//! Termination-probability models (Figure 5, right column).
//!
//! Three estimators of the probability that a correct replica decides in a
//! view led by a correct leader after GST:
//!
//! 1. [`termination_bound`] — the paper's closed-form Chernoff bound
//!    (Lemma 4); loose but exactly as printed.
//! 2. [`termination_exact`] — the semi-analytic model: exact binomial
//!    quorum-formation probabilities with the prepare→commit dependency
//!    handled by conditioning on the number of prepared replicas
//!    (the paper's own proof strategy, Lemma 3, but with exact tails
//!    instead of Chernoff). Sender events are treated as independent — the
//!    paper shows they are negatively associated, so this is an upper
//!    envelope that Monte Carlo confirms is tight.
//! 3. [`termination_monte_carlo`] — direct simulation of the sampling
//!    experiment (no crypto, no event loop), sharp for probabilities down
//!    to ~1/trials.

use crate::binomial::binomial_sf;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Protocol parameters for a termination experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TerminationParams {
    /// Population size.
    pub n: usize,
    /// Number of Byzantine replicas (silent in this model — the worst case
    /// for termination, Theorem 2).
    pub f: usize,
    /// Probabilistic quorum size `q`.
    pub q: usize,
    /// Sample size `s = ⌈o·q⌉` (capped at `n`).
    pub s: usize,
}

impl TerminationParams {
    /// Builds params from the paper's `(n, f, l, o)` parameterisation.
    pub fn from_paper(n: usize, f: usize, l: f64, o: f64) -> Self {
        let q = (l * (n as f64).sqrt()).ceil() as usize;
        let s = ((o * q as f64).ceil() as usize).min(n);
        TerminationParams { n, f, q, s }
    }
}

/// The paper's Lemma 4 closed-form per-replica bound.
pub fn termination_bound(p: TerminationParams) -> f64 {
    crate::chernoff::lemma4_termination_per_replica(p.n, p.f, p.q as f64, p.s as f64 / p.q as f64)
}

/// Semi-analytic per-replica termination probability.
///
/// - `p_prep = P[Bin(n−f, s/n) ≥ q]`: all `n−f` correct replicas multicast
///   Prepare to uniform samples; a fixed replica forms a prepare quorum if
///   at least `q` samples include it.
/// - Conditioned on `K = k` correct replicas having prepared (binomial with
///   success probability `p_prep`), the replica decides if it prepared and
///   at least `q` of the `k` committers include it:
///   `P[decide] = p_prep · Σ_k P[K = k] · P[Bin(k, s/n) ≥ q]`.
///
/// The self-conditioning (the replica itself prepared) is folded in by
/// counting the replica among the committers when it prepared.
pub fn termination_exact(p: TerminationParams) -> f64 {
    let correct = (p.n - p.f) as u64;
    let incl = p.s as f64 / p.n as f64;
    let p_prep = binomial_sf(correct, incl, p.q as u64);

    // Σ_k P[K = k | self prepared] · P[Bin(k, s/n) ≥ q]; K counts correct
    // prepared replicas including self, so k ranges 1..=correct with
    // K − 1 ~ Bin(correct − 1, p_prep).
    let mut decide_given_prep = 0.0;
    for k in 1..=correct {
        let pk = crate::binomial::binomial_ln_pmf(correct - 1, p_prep, k - 1).exp();
        if pk < 1e-18 {
            continue;
        }
        decide_given_prep += pk * binomial_sf(k, incl, p.q as u64);
    }
    (p_prep * decide_given_prep).clamp(0.0, 1.0)
}

/// All-correct-replica termination from the per-replica probability via the
/// union bound (`1 − (n−f)(1 − p_single)`), clamped to `[0, 1]`.
pub fn termination_exact_all(p: TerminationParams) -> f64 {
    let single = termination_exact(p);
    (1.0 - (p.n - p.f) as f64 * (1.0 - single)).clamp(0.0, 1.0)
}

/// Monte Carlo estimate of the per-replica termination probability.
///
/// Simulates the actual sampling experiment: each correct replica draws a
/// uniform `s`-subset for the prepare phase; replicas with ≥ `q` inclusions
/// prepare and draw a fresh commit-phase subset; the fraction of correct
/// replicas that also reach `q` commit inclusions (having prepared) is
/// averaged over `trials` runs.
pub fn termination_monte_carlo(p: TerminationParams, trials: u32, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let correct = p.n - p.f;
    let mut decided_total = 0u64;

    let mut population: Vec<usize> = (0..p.n).collect();
    for _ in 0..trials {
        // Prepare phase: count inclusions per replica.
        let mut prep_count = vec![0u32; p.n];
        for _sender in 0..correct {
            population.shuffle(&mut rng);
            for &target in &population[..p.s] {
                prep_count[target] += 1;
            }
        }
        let prepared: Vec<bool> = (0..p.n)
            .map(|i| i < correct && prep_count[i] >= p.q as u32)
            .collect();

        // Commit phase: only prepared correct replicas multicast.
        let mut commit_count = vec![0u32; p.n];
        for &sender_prepared in prepared.iter().take(correct) {
            if sender_prepared {
                population.shuffle(&mut rng);
                for &target in &population[..p.s] {
                    commit_count[target] += 1;
                }
            }
        }
        decided_total += (0..correct)
            .filter(|&i| prepared[i] && commit_count[i] >= p.q as u32)
            .count() as u64;
    }
    decided_total as f64 / (trials as u64 * correct as u64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_point() -> TerminationParams {
        TerminationParams::from_paper(100, 20, 2.0, 1.7)
    }

    #[test]
    fn params_from_paper_match_hand_computation() {
        let p = paper_point();
        assert_eq!(p.q, 20);
        assert_eq!(p.s, 34);
    }

    #[test]
    fn exact_is_at_least_the_chernoff_bound() {
        for o in [1.6, 1.7, 1.8] {
            for f in [10, 20, 30] {
                let p = TerminationParams::from_paper(100, f, 2.0, o);
                let bound = termination_bound(p);
                let exact = termination_exact(p);
                assert!(
                    exact + 1e-9 >= bound,
                    "o={o} f={f}: exact {exact} below bound {bound}"
                );
            }
        }
    }

    #[test]
    fn exact_monotone_in_n_and_o_and_f() {
        // Increasing n (fixed f/n) raises termination probability.
        let small = termination_exact(TerminationParams::from_paper(100, 20, 2.0, 1.7));
        let large = termination_exact(TerminationParams::from_paper(300, 60, 2.0, 1.7));
        assert!(large > small, "{large} vs {small}");
        // Increasing o helps.
        let lo = termination_exact(TerminationParams::from_paper(100, 20, 2.0, 1.6));
        let hi = termination_exact(TerminationParams::from_paper(100, 20, 2.0, 1.8));
        assert!(hi > lo);
        // More faults hurt.
        let few = termination_exact(TerminationParams::from_paper(100, 10, 2.0, 1.7));
        let many = termination_exact(TerminationParams::from_paper(100, 30, 2.0, 1.7));
        assert!(few > many);
    }

    #[test]
    fn monte_carlo_agrees_with_exact_model() {
        let p = paper_point();
        let exact = termination_exact(p);
        let mc = termination_monte_carlo(p, 300, 42);
        assert!(
            (exact - mc).abs() < 0.05,
            "exact {exact} vs Monte Carlo {mc}"
        );
    }

    #[test]
    fn termination_near_one_at_larger_scale() {
        // Figure 5 top-right: at f/n = 0.2 termination approaches 1 as n
        // grows. Our exact model sits below the paper's plotted curve
        // (`fig5_termination --sweep n` prints it next to the Lemma-4
        // bound and a Monte Carlo column); the shape — rapid approach to
        // 1 — is what we assert.
        let p100 = termination_exact(TerminationParams::from_paper(100, 20, 2.0, 1.8));
        let p300 = termination_exact(TerminationParams::from_paper(300, 60, 2.0, 1.8));
        let p640 = termination_exact(TerminationParams::from_paper(640, 128, 2.0, 1.8));
        assert!(p300 > 0.98, "{p300}");
        assert!(p100 < p300 && p300 < p640, "{p100} {p300} {p640}");
        assert!(p640 > 0.995, "{p640}");
    }

    #[test]
    fn all_replica_probability_not_above_single() {
        let p = paper_point();
        assert!(termination_exact_all(p) <= termination_exact(p) + 1e-12);
    }
}
