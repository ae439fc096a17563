//! Noisy-client detection: use data valuation to find low-quality clients.
//!
//! ```sh
//! cargo run --release --example noisy_client_detection
//! ```
//!
//! The paper's Section VII-C use case: progressively noisier clients
//! (client i has 5·i% of its examples corrupted) should be ranked
//! progressively lower by a good valuation. Prints each metric's ranking
//! and its Spearman correlation with the true quality ordering, then runs
//! the robustness catalog's `noisy_labels` scenario and scores every
//! valuation as a detector (ROC-AUC, precision@k, Jaccard overlap of the
//! flagged set). Quality is graded by label corruption (see "Departures
//! from the paper" in the README for why feature noise is too weak a
//! signal on the simulated datasets).

use comfedsv::metrics::{bottom_k_indices, jaccard_index, spearman_rho};
use comfedsv::prelude::*;

fn main() {
    // Part 1: graded corruption (paper Fig. 6 construction).
    let n = 10usize;
    let noise: Vec<(usize, f64)> = (0..n).map(|i| (i, 0.05 * i as f64)).collect();
    let truth_scores: Vec<f64> = noise.iter().map(|&(_, f)| -f).collect();

    let world = ExperimentBuilder::sim_mnist(false)
        .num_clients(n)
        .samples_per_client(120)
        .test_samples(200)
        .label_noise(noise)
        .seed(3)
        .build();
    let trace = world.train(&FlConfig::new(10, 3, 0.1, 3));
    let oracle = world.oracle(&trace);

    let fed = FedSv::exact().run(&oracle).expect("small cohorts");
    let com = ComFedSv::exact(6)
        .with_lambda(0.01)
        .run(&oracle)
        .expect("10 clients is exact-safe")
        .values;
    let gt = ExactShapley.run(&oracle).expect("10 clients is exact-safe");

    println!("== graded corruption (client i: 5i% corrupted examples) ==");
    println!("{:>10}  {:>10}", "metric", "spearman");
    for (name, values) in [("groundtruth", &gt), ("FedSV", &fed), ("ComFedSV", &com)] {
        let rho = spearman_rho(values, &truth_scores).unwrap_or(f64::NAN);
        println!("{name:>10}  {rho:>10.4}");
    }

    // Part 2: the robustness catalog's noisy_labels scenario — behavior-
    // driven corruption with ground-truth bad-client labels, scored with
    // the detection metrics the robustness harness uses.
    let scenario = Scenario::noisy_labels();
    let world2 = scenario.build(4);
    let trace2 = world2.train(&scenario.fl_config(4));
    let oracle2 = world2.oracle(&trace2);
    let bad = scenario.bad_clients();
    let truth_set: Vec<usize> = bad
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i))
        .collect();
    let k = scenario.num_bad();
    let fed2 = FedSv::exact().run(&oracle2).expect("small cohorts");
    let com2 = ComFedSv::exact(4)
        .with_lambda(0.01)
        .run(&oracle2)
        .expect("8 clients is exact-safe")
        .values;

    println!(
        "\n== scenario '{}' (clients {truth_set:?} noisy) ==",
        scenario.name
    );
    println!(
        "{:>10}  {:>7}  {:>7}  {:>24}",
        "metric", "auc", "prec@k", "flagged (Jaccard)"
    );
    for (name, values) in [("FedSV", &fed2), ("ComFedSV", &com2)] {
        let auc = detection_auc(values, &bad).expect("scenario has bad and good clients");
        let p = precision_at_k(values, &bad, k).expect("k in range");
        let flagged = bottom_k_indices(values, k);
        let j = jaccard_index(&flagged, &truth_set);
        println!("{name:>10}  {auc:>7.3}  {p:>7.3}  {flagged:?} ({j:.3})");
    }
}
