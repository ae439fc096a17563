//! The analytic unfairness probability of Observation 1 (paper Fig. 1).
//!
//! For two clients with identical data and per-round value `δ` when
//! selected, the paper lower-bounds the probability that their final
//! FedSVs differ by at least `s·δ` via a trinomial model: each round is
//! "(i selected, j not)" with probability `p = m(N−m)/(N(N−1))`,
//! "(j selected, i not)" with probability `p`, or neutral otherwise.
//!
//! ```text
//! P_s = P(#(i only) − #(j only) ≥ s)
//!     = Σ_{a=s}^{T} Σ_{b=0}^{⌊(T−a)/2⌋} C(T; b+a, T−a−2b, b) p^{2b+a} (1−2p)^{T−2b−a}
//! ```
//!
//! Note: the paper's appendix prints the neutral-category probability as
//! `(1−p)`, which makes the sum exceed 1; the trinomial requires `(1−2p)`
//! (the neutral probability is `1 − 2p`), which we verified against direct
//! enumeration and Monte-Carlo simulation. We implement the corrected
//! version (see "Departures from the paper" in the README).

use crate::coeffs::LogFactorial;

/// Parameters of the Observation-1 setting.
#[derive(Debug, Clone, Copy)]
pub struct UnfairnessParams {
    /// Total rounds `T`.
    pub rounds: usize,
    /// Total clients `N`.
    pub num_clients: usize,
    /// Clients selected per round `m`.
    pub selected_per_round: usize,
}

impl UnfairnessParams {
    /// The asymmetric-selection probability
    /// `p = P(i ∈ I_t, j ∉ I_t) = m(N−m)/(N(N−1))`.
    pub fn asymmetry_probability(&self) -> f64 {
        let n = self.num_clients as f64;
        let m = self.selected_per_round as f64;
        assert!(self.num_clients >= 2, "need at least two clients");
        assert!(
            self.selected_per_round >= 1 && self.selected_per_round <= self.num_clients,
            "selected count out of range"
        );
        m * (n - m) / (n * (n - 1.0))
    }
}

/// `P_s` — the probability that FedSV is *not* `sδ`-Shapley-fair under
/// Observation 1's model (the paper's lower bound, corrected as described
/// in the module docs).
pub fn unfairness_probability(params: &UnfairnessParams, s: usize) -> f64 {
    let t = params.rounds;
    if s > t {
        return 0.0;
    }
    let p = params.asymmetry_probability();
    probability_with_p(t, p, s)
}

/// Same as [`unfairness_probability`] but with the asymmetry probability
/// supplied directly (the paper's Fig. 1 sweeps `p` explicitly).
pub fn probability_with_p(t: usize, p: f64, s: usize) -> f64 {
    assert!(
        (0.0..=0.5).contains(&p),
        "p = m(N-m)/(N(N-1)) is at most 1/2"
    );
    if s == 0 {
        return 1.0;
    }
    if s > t {
        return 0.0;
    }
    let lf = LogFactorial::new(t);
    let ln_p = if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
    let neutral = 1.0 - 2.0 * p;
    let ln_q = if neutral > 0.0 {
        neutral.ln()
    } else {
        f64::NEG_INFINITY
    };
    let mut total = 0.0;
    for a in s..=t {
        let max_b = (t - a) / 2;
        for b in 0..=max_b {
            // Categories: (i only) = b + a, neutral = t − a − 2b,
            // (j only) = b.
            let ln_coeff = lf.ln_multinomial3(t, b + a, t - a - 2 * b, b);
            let p_exponent = (2 * b + a) as f64;
            let q_exponent = (t - 2 * b - a) as f64;
            // Avoid 0 * (-inf) = NaN when an exponent is zero.
            let mut ln_term = ln_coeff;
            if p_exponent > 0.0 {
                ln_term += p_exponent * ln_p;
            }
            if q_exponent > 0.0 {
                ln_term += q_exponent * ln_q;
            }
            total += ln_term.exp();
        }
    }
    total.min(1.0)
}

/// Monte-Carlo check of the same (one-sided) probability by simulating the
/// selection process directly — used by tests and available to the harness
/// as an independent verification of the closed form.
pub fn simulate_unfairness_probability(
    params: &UnfairnessParams,
    s: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    use rand::rngs::StdRng;
    use rand::seq::index::sample;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.num_clients;
    let m = params.selected_per_round;
    let mut hits = 0usize;
    for _ in 0..trials {
        // diff counts (i selected, j not) minus (j selected, i not); with
        // δ_t ≡ δ the one-sided statistic P_s bounds is diff ≥ s.
        let mut diff: i64 = 0;
        for _ in 0..params.rounds {
            let picks = sample(&mut rng, n, m);
            let has_i = picks.iter().any(|x| x == 0);
            let has_j = picks.iter().any(|x| x == 1);
            diff += i64::from(has_i) - i64::from(has_j);
        }
        if diff >= s as i64 {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetry_probability_formula() {
        let params = UnfairnessParams {
            rounds: 10,
            num_clients: 10,
            selected_per_round: 3,
        };
        // 3*7/(10*9) = 21/90.
        assert!((params.asymmetry_probability() - 21.0 / 90.0).abs() < 1e-15);
    }

    #[test]
    fn s_zero_is_certain() {
        assert_eq!(probability_with_p(5, 0.2, 0), 1.0);
    }

    #[test]
    fn s_beyond_rounds_is_impossible() {
        let params = UnfairnessParams {
            rounds: 4,
            num_clients: 10,
            selected_per_round: 3,
        };
        assert_eq!(unfairness_probability(&params, 5), 0.0);
    }

    #[test]
    fn single_round_matches_binomial() {
        // T = 1, s = 1: one-sided P = P(diff >= 1) = p.
        let p = 0.21;
        assert!((probability_with_p(1, p, 1) - p).abs() < 1e-12);
    }

    #[test]
    fn matches_trinomial_enumeration() {
        // Direct enumeration of the trinomial distribution.
        let t = 8;
        let p: f64 = 0.2;
        let brute = |s: usize| {
            let lf = LogFactorial::new(t);
            let mut tot = 0.0;
            for x in 0..=t {
                for z in 0..=(t - x) {
                    let y = t - x - z;
                    if x as i64 - z as i64 >= s as i64 {
                        let c = lf.ln_multinomial3(t, x, y, z).exp();
                        tot += c
                            * p.powi(x as i32)
                            * p.powi(z as i32)
                            * (1.0 - 2.0 * p).powi(y as i32);
                    }
                }
            }
            tot
        };
        for s in [1usize, 2, 3, 5] {
            let a = probability_with_p(t, p, s);
            let b = brute(s);
            assert!((a - b).abs() < 1e-12, "s={s}: {a} vs {b}");
        }
    }

    #[test]
    fn monotone_decreasing_in_s() {
        let params = UnfairnessParams {
            rounds: 20,
            num_clients: 10,
            selected_per_round: 3,
        };
        let mut prev = 1.0;
        for s in 0..=20 {
            let ps = unfairness_probability(&params, s);
            assert!(ps <= prev + 1e-12, "P_{s} = {ps} > {prev}");
            assert!((0.0..=1.0).contains(&ps));
            prev = ps;
        }
    }

    #[test]
    fn closed_form_matches_simulation() {
        let params = UnfairnessParams {
            rounds: 10,
            num_clients: 10,
            selected_per_round: 3,
        };
        for s in [1usize, 2, 4] {
            let analytic = unfairness_probability(&params, s);
            let simulated = simulate_unfairness_probability(&params, s, 40_000, 7);
            assert!(
                (analytic - simulated).abs() < 0.02,
                "s={s}: analytic {analytic} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn zero_p_never_unfair() {
        assert_eq!(probability_with_p(10, 0.0, 1), 0.0);
    }

    #[test]
    fn larger_p_is_more_unfair() {
        let lo = probability_with_p(15, 0.1, 3);
        let hi = probability_with_p(15, 0.4, 3);
        assert!(hi > lo);
    }
}
