//! The valuation API's end-to-end bar: the 35 seeded valuations (all 7
//! registered methods × 5 seeded worlds) keep their exact bits, and
//! invalid inputs surface as typed [`ValuationError`]s rather than
//! panics.

use comfedsv::prelude::*;
use fedval_linalg::DeterminismTier;

const SEEDS: [u64; 5] = [1, 7, 11, 21, 42];

/// Order-sensitive XOR-rotate checksum of every value's bits, per
/// `(world seed, method)`, in the session's registry order. Training
/// and valuation both pin the `BitExact` tier, so the table holds for
/// every `FEDVAL_TIER` and `FEDVAL_THREADS` and in every build profile.
/// A deliberate numeric change re-pins it from the failure message.
const PINNED: [(u64, &str, u64); 35] = [
    (1, "exact", 0x027d8e63c6738396),
    (1, "fedsv", 0x5836e356434b1d22),
    (1, "fedsv-mc", 0x52a65770f6425493),
    (1, "comfedsv", 0xb6cb601b33bbc0db),
    (1, "comfedsv-mc", 0xdc6759a5bfbe70d2),
    (1, "tmc", 0x0234932a7a929e24),
    (1, "group-testing", 0x51e9784735f1ebb5),
    (7, "exact", 0xa609bc745b1cafff),
    (7, "fedsv", 0x6c4b9da52aa60d57),
    (7, "fedsv-mc", 0xe2c6b6631f20d877),
    (7, "comfedsv", 0xa5f088d3c36394fd),
    (7, "comfedsv-mc", 0xc63b1cbcee8d73fc),
    (7, "tmc", 0x164178294b6b9e9e),
    (7, "group-testing", 0x3b1ab359a97f2ad6),
    (11, "exact", 0x3b03fc7c14179118),
    (11, "fedsv", 0xf29a6503fe51ac10),
    (11, "fedsv-mc", 0xee81d14c9ed67a4b),
    (11, "comfedsv", 0xe4ff2a5d2f97e73f),
    (11, "comfedsv-mc", 0x77ae207bd0054ab1),
    (11, "tmc", 0x2a1155430a247cbd),
    (11, "group-testing", 0x31c49b24c220eb05),
    (21, "exact", 0xa7acb2dfa1041a62),
    (21, "fedsv", 0x28188a33baa235b7),
    (21, "fedsv-mc", 0x6237b2fa75826dea),
    (21, "comfedsv", 0x83da2ed8a187d702),
    (21, "comfedsv-mc", 0xaf52fd0f941d1cd3),
    (21, "tmc", 0x4408bdaa489807de),
    (21, "group-testing", 0xad3d1bc5b09ce0d6),
    (42, "exact", 0x2ac68ae290580eac),
    (42, "fedsv", 0x3249f98d52724734),
    (42, "fedsv-mc", 0xda2af43ae5431b98),
    (42, "comfedsv", 0xc555eb32c7eb7535),
    (42, "comfedsv-mc", 0xf75c03c58c6eff78),
    (42, "tmc", 0xf47d9dc6b1574f29),
    (42, "group-testing", 0x12968392fa587a3d),
];

fn value_checksum(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits())
}

/// The `tests/cache_equivalence.rs` worlds, trained at `BitExact`.
fn pinned_world(seed: u64) -> (World, TrainingTrace) {
    let world = ExperimentBuilder::synthetic(true)
        .num_clients(5)
        .samples_per_client(30)
        .test_samples(60)
        .seed(seed)
        .build();
    let cfg = FlConfig::new(4, 3, 0.2, seed).with_tier(DeterminismTier::BitExact);
    let trace = world.train(&cfg);
    (world, trace)
}

/// Runs `methods` on the five pinned worlds and asserts each
/// `(seed, method)` checksum equals its [`PINNED`] row. The checksums
/// are the outputs of the valuation code before its deprecated free
/// functions were removed, so these are the legacy-parity checks.
fn assert_pinned(methods: &[&str]) {
    let mut actual = Vec::new();
    for seed in SEEDS {
        let (world, trace) = pinned_world(seed);
        let oracle = world.oracle(&trace).with_tier(DeterminismTier::BitExact);
        let mut session = ValuationSession::builder()
            .rank(3)
            .permutations(30)
            .samples(80)
            .seed(seed)
            .build();
        for &name in methods {
            let report = session
                .run(name, &oracle)
                .unwrap_or_else(|e| panic!("seed {seed}, {name}: {e}"));
            actual.push((seed, name, value_checksum(&report.values)));
        }
    }
    let expected: Vec<(u64, &str, u64)> = SEEDS
        .iter()
        .flat_map(|&seed| {
            methods.iter().map(move |&name| {
                *PINNED
                    .iter()
                    .find(|(s, n, _)| *s == seed && *n == name)
                    .unwrap_or_else(|| panic!("no pinned row for seed {seed}, {name}"))
            })
        })
        .collect();
    let mismatched = actual.iter().zip(&expected).filter(|(a, e)| a != e).count();
    let table: String = actual
        .iter()
        .map(|(seed, name, sum)| format!("    ({seed}, \"{name}\", 0x{sum:016x}),\n"))
        .collect();
    assert!(
        mismatched == 0 && actual.len() == expected.len(),
        "{mismatched} of {} seeded valuations moved; this run's rows:\n{table}",
        expected.len()
    );
}

#[test]
fn pinned_table_covers_every_registered_method() {
    let session = ValuationSession::builder().build();
    let mut names = session.method_names();
    names.sort();
    let mut pinned: Vec<&str> = PINNED.iter().map(|(_, n, _)| *n).collect();
    pinned.sort();
    pinned.dedup();
    assert_eq!(names, pinned);
}

#[test]
fn comfedsv_valuator_matches_legacy_pipeline_bitwise() {
    assert_pinned(&["comfedsv"]);
}

#[test]
fn comfedsv_monte_carlo_matches_legacy_bitwise() {
    assert_pinned(&["comfedsv-mc"]);
}

#[test]
fn fedsv_valuators_match_legacy_bitwise() {
    assert_pinned(&["fedsv", "fedsv-mc"]);
}

#[test]
fn tmc_valuator_matches_legacy_bitwise() {
    assert_pinned(&["tmc"]);
}

#[test]
fn group_testing_valuator_matches_legacy_bitwise() {
    assert_pinned(&["group-testing"]);
}

#[test]
fn exact_valuator_matches_legacy_ground_truth_bitwise() {
    assert_pinned(&["exact"]);
}

/// `(seed, method, cells_evaluated, cell_hits)` of ComFedSV-MC on a
/// fresh oracle, then ComFedSV (exact) and ComFedSV-MC again on the
/// same oracle (cold, partially warm, fully warm), per [`PINNED`]
/// world: the cost counters a valuation reports, pinned so a change to
/// how the pipeline reads its cells cannot move them.
const PINNED_COUNTS: [(u64, &str, u64, u64); 15] = [
    (1, "comfedsv-mc", 49, 0),
    (1, "comfedsv", 3, 49),
    (1, "comfedsv-mc", 0, 49),
    (7, "comfedsv-mc", 50, 0),
    (7, "comfedsv", 2, 50),
    (7, "comfedsv-mc", 0, 50),
    (11, "comfedsv-mc", 48, 0),
    (11, "comfedsv", 4, 48),
    (11, "comfedsv-mc", 0, 48),
    (21, "comfedsv-mc", 51, 0),
    (21, "comfedsv", 1, 51),
    (21, "comfedsv-mc", 0, 51),
    (42, "comfedsv-mc", 52, 0),
    (42, "comfedsv", 0, 52),
    (42, "comfedsv-mc", 0, 52),
];

#[test]
fn comfedsv_cell_counts_match_their_pinned_rows() {
    let mut actual = Vec::new();
    for seed in SEEDS {
        let (world, trace) = pinned_world(seed);
        let oracle = world.oracle(&trace).with_tier(DeterminismTier::BitExact);
        let mut session = ValuationSession::builder()
            .rank(3)
            .permutations(30)
            .seed(seed)
            .build();
        for name in ["comfedsv-mc", "comfedsv", "comfedsv-mc"] {
            let d = session.run(name, &oracle).unwrap().diagnostics;
            actual.push((seed, name, d.cells_evaluated, d.cell_hits));
        }
    }
    let table: String = actual
        .iter()
        .map(|(seed, name, evaluated, hits)| {
            format!("    ({seed}, \"{name}\", {evaluated}, {hits}),\n")
        })
        .collect();
    assert_eq!(actual, PINNED_COUNTS, "this run's rows:\n{table}");
}

/// Consecutive methods on an oracle pinned to `Fast` share cells as
/// they do at `BitExact`: the rows are the `BitExact` rows, and the
/// values equal a fresh-cache run's at `Fast`.
#[test]
fn a_fast_oracle_shares_cells_between_methods() {
    for seed in SEEDS {
        let (world, trace) = pinned_world(seed);
        let oracle = world.oracle(&trace).with_tier(DeterminismTier::Fast);
        let session = |isolated: bool| {
            ValuationSession::builder()
                .rank(3)
                .permutations(30)
                .seed(seed)
                .isolated_runs(isolated)
                .build()
        };
        let mut shared = session(false);
        let mut rows = Vec::new();
        let mut values = Vec::new();
        for name in ["comfedsv-mc", "comfedsv", "comfedsv-mc"] {
            let report = shared.run(name, &oracle).unwrap();
            let d = &report.diagnostics;
            rows.push((seed, name, d.cells_evaluated, d.cell_hits));
            values.push(report.values);
        }
        let pinned: Vec<_> = PINNED_COUNTS
            .iter()
            .filter(|r| r.0 == seed)
            .copied()
            .collect();
        assert_eq!(rows, pinned);
        let isolated = session(true).run("comfedsv", &oracle).unwrap().values;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values[1]), bits(&isolated), "seed {seed}");
    }
}

fn seeded_world() -> (World, TrainingTrace) {
    let world = ExperimentBuilder::synthetic(true)
        .num_clients(6)
        .samples_per_client(40)
        .test_samples(80)
        .seed(23)
        .build();
    let trace = world.train(&FlConfig::new(6, 3, 0.2, 23));
    (world, trace)
}

#[test]
fn session_sweep_is_bit_identical_to_direct_valuators() {
    let (world, trace) = seeded_world();
    let oracle = world.oracle(&trace);
    let mut session = ValuationSession::builder().rank(4).seed(23).build();
    let direct = ComFedSv::exact(4)
        .with_lambda(1e-3)
        .with_seed(23)
        .run(&oracle)
        .unwrap();
    let via_session = session.run("comfedsv", &oracle).unwrap();
    // Session defaults: rank 4 (set above), λ 1e-3 (default), seed 23.
    assert_eq!(via_session.values, direct.values);
}

#[test]
fn all_methods_box_as_dyn_valuator() {
    let (world, trace) = seeded_world();
    let methods: Vec<Box<dyn Valuator>> = vec![
        Box::new(ExactShapley),
        Box::new(FedSv::exact()),
        Box::new(FedSv::monte_carlo(FedSvConfig::default())),
        Box::new(ComFedSv::exact(4).with_lambda(1e-3)),
        Box::new(Tmc {
            permutations: 20,
            truncation_tol: 0.01,
            seed: 1,
            ..Tmc::default()
        }),
        Box::new(GroupTesting {
            num_samples: 60,
            seed: 1,
        }),
    ];
    for m in methods {
        // Fresh oracle per method: cells_evaluated counts real model
        // evaluations, and a shared cache would zero it for later runs.
        let oracle = world.oracle(&trace);
        let report = m.value(&oracle, &mut RunContext::new()).unwrap();
        assert_eq!(report.values.len(), 6, "{}", m.name());
        assert!(report.values.iter().all(|v| v.is_finite()), "{}", m.name());
        assert!(report.diagnostics.cells_evaluated > 0, "{}", m.name());
    }
}

#[test]
fn too_many_clients_is_a_typed_error_at_n17() {
    // 17 clients: one past the exact-enumeration gate.
    let world = ExperimentBuilder::synthetic(false)
        .num_clients(17)
        .samples_per_client(8)
        .test_samples(20)
        .seed(1)
        .build();
    let trace = world.train(&FlConfig::new(1, 2, 0.2, 1));
    let oracle = world.oracle(&trace);
    assert_eq!(
        ExactShapley.run(&oracle).unwrap_err(),
        ValuationError::TooManyClients {
            clients: 17,
            max: comfedsv::shapley::MAX_EXACT_CLIENTS
        }
    );
    assert_eq!(
        ComFedSv::exact(4).run(&oracle).unwrap_err(),
        ValuationError::TooManyClients {
            clients: 17,
            max: comfedsv::shapley::MAX_EXACT_CLIENTS
        }
    );
    // Exact FedSV trips on the round-0 everyone-heard cohort of 17.
    assert!(matches!(
        FedSv::exact().run(&oracle).unwrap_err(),
        ValuationError::CohortTooLarge {
            round: 0,
            cohort: 17,
            ..
        }
    ));
}

#[test]
fn empty_trace_is_rejected_by_every_method() {
    let world = ExperimentBuilder::synthetic(false)
        .num_clients(4)
        .samples_per_client(10)
        .test_samples(20)
        .seed(2)
        .build();
    let trace = world.train(&FlConfig::new(0, 2, 0.2, 2));
    let oracle = world.oracle(&trace);
    let methods: Vec<Box<dyn Valuator>> = vec![
        Box::new(ExactShapley),
        Box::new(FedSv::exact()),
        Box::new(FedSv::monte_carlo(FedSvConfig::default())),
        Box::new(ComFedSv::exact(3)),
        Box::new(Tmc::default()),
        Box::new(GroupTesting {
            num_samples: 10,
            seed: 0,
        }),
    ];
    for m in methods {
        assert_eq!(
            m.value(&oracle, &mut RunContext::new()).unwrap_err(),
            ValuationError::EmptyTrace,
            "{}",
            m.name()
        );
    }
}

#[test]
fn invalid_sampling_budgets_are_typed_errors() {
    let (world, trace) = seeded_world();
    let oracle = world.oracle(&trace);
    assert_eq!(
        Tmc {
            permutations: 0,
            truncation_tol: 0.0,
            seed: 0,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap_err(),
        ValuationError::NoPermutations
    );
    assert_eq!(
        GroupTesting {
            num_samples: 0,
            seed: 0
        }
        .run(&oracle)
        .unwrap_err(),
        ValuationError::NoSamples
    );
    assert_eq!(
        FedSv::monte_carlo(FedSvConfig {
            permutations_per_round: Some(0),
            seed: 0
        })
        .run(&oracle)
        .unwrap_err(),
        ValuationError::NoPermutations
    );
}
