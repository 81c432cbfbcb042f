//! Safety sweep: many seeded runs under every Byzantine strategy — the
//! empirical counterpart of Theorem 7 / Corollary 1 (safety with
//! probability `1 − exp(−Θ(√n))`).

use probft::core::config::View;
use probft::core::harness::InstanceBuilder;
use probft::core::value::Value;
use probft::core::ByzantineStrategy;
use probft::quorum::ReplicaId;

const N: usize = 31;
const F: usize = 10;

fn strategies() -> Vec<(&'static str, Vec<(ReplicaId, ByzantineStrategy)>)> {
    let all_byz = |s: ByzantineStrategy| -> Vec<(ReplicaId, ByzantineStrategy)> {
        (0..F).map(|i| (ReplicaId::from(i), s.clone())).collect()
    };
    vec![
        (
            "silent leader",
            vec![(ReplicaId(0), ByzantineStrategy::Silent)],
        ),
        (
            "crash leader",
            vec![(ReplicaId(0), ByzantineStrategy::Crash)],
        ),
        (
            "equivocating leader",
            vec![(
                ReplicaId(0),
                ByzantineStrategy::EquivocatingLeader {
                    values: 2,
                    skip_fraction: 0.1,
                },
            )],
        ),
        (
            "split leader",
            vec![(ReplicaId(0), ByzantineStrategy::SplitLeader)],
        ),
        (
            "optimal split, full collusion",
            all_byz(ByzantineStrategy::OptimalSplitLeader),
        ),
        (
            "flooders",
            (1..=3)
                .map(|i| {
                    (
                        ReplicaId::from(i as usize),
                        ByzantineStrategy::FloodingReplica,
                    )
                })
                .collect(),
        ),
    ]
}

/// No strategy, on any tested seed, produces two different decided values.
#[test]
fn no_strategy_violates_agreement() {
    for (name, byz) in strategies() {
        for seed in 0..4 {
            let mut b = InstanceBuilder::new(N).seed(seed);
            for (id, s) in &byz {
                b = b.byzantine(*id, s.clone());
            }
            let outcome = b.run();
            assert!(
                outcome.agreement(),
                "strategy '{name}' seed {seed} violated agreement: {outcome:?}"
            );
            assert!(
                outcome.all_correct_decided(),
                "strategy '{name}' seed {seed} blocked liveness: {outcome:?}"
            );
        }
    }
}

/// Validity: decided values are always some replica's input or a value the
/// (equivocating) leader actually signed — never fabricated by followers.
#[test]
fn decided_values_are_attributable() {
    let legitimate: Vec<_> = (0..N as u64).map(Value::from_tag).collect();
    let (eq_a, eq_b) = probft::core::byzantine::equivocation_values();

    for (name, byz) in strategies() {
        let mut b = InstanceBuilder::new(N).seed(99);
        for (id, s) in &byz {
            b = b.byzantine(*id, s.clone());
        }
        let outcome = b.run();
        for d in outcome.decisions.values() {
            let digest = d.value.digest();
            let known = legitimate.iter().any(|v| v.digest() == digest)
                || digest == eq_a.digest()
                || digest == eq_b.digest()
                || d.value.as_bytes().starts_with(b"equivocation-");
            assert!(
                known,
                "strategy '{name}' decided unattributable {:?}",
                d.value
            );
        }
    }
}

/// The decision latch: replicas that decided in view v and keep
/// participating never flip their decision in later views (the
/// conflicting-decision flag stays clear even across forced view changes).
#[test]
fn decisions_are_stable_across_view_changes() {
    // Silent leaders for views 2 and 3 force the system onwards after most
    // replicas decided in view 1 (stragglers decide later).
    let outcome = InstanceBuilder::new(N)
        .seed(13)
        .byzantine(ReplicaId(1), ByzantineStrategy::Silent)
        .byzantine(ReplicaId(2), ByzantineStrategy::Silent)
        .run();
    assert!(outcome.agreement(), "{outcome:?}");
    assert!(outcome.all_correct_decided());
    // First decisions happen in view 1 (leader 0 is honest).
    assert_eq!(outcome.decided_views().first(), Some(&View(1)));
}

/// safeProposal end to end: after a decision in view 1, every later view's
/// leader is forced to re-propose the decided value.
#[test]
fn later_views_carry_the_decided_value() {
    // Force several view changes after a view-1 decision by silencing the
    // next two leaders.
    let outcome = InstanceBuilder::new(13)
        .seed(21)
        .byzantine(ReplicaId(1), ByzantineStrategy::Silent)
        .byzantine(ReplicaId(2), ByzantineStrategy::Silent)
        .run();
    assert!(outcome.agreement());
    assert!(outcome.all_correct_decided());
    let decided: Vec<_> = outcome
        .decisions
        .values()
        .map(|d| d.value.digest())
        .collect();
    assert!(
        decided.windows(2).all(|w| w[0] == w[1]),
        "value changed across views"
    );
    // All decisions equal the view-1 leader's value.
    assert_eq!(decided[0], Value::from_tag(0).digest());
}

/// Every replica opens the instance directly in view 3 — the way an SMR
/// slot opens in the cluster's current view, with nothing prepared — and
/// `leader(3)` runs the split attack, its two proposals carrying a valid
/// quorum of honest `NewLeader` messages. Agreement must hold on every
/// seed, and a later honest leader must still bring everyone to a
/// decision.
#[test]
fn split_leader_in_a_later_start_view_never_breaks_agreement() {
    let start = View(3);
    let attacker = ReplicaId(2); // leader(3)
    let mut detections = 0;
    for seed in 0..12 {
        let outcome = InstanceBuilder::new(N)
            .seed(seed)
            .start_view(start)
            .byzantine(attacker, ByzantineStrategy::SplitLeader)
            .run();
        assert!(
            outcome.agreement(),
            "seed {seed} violated agreement: {outcome:?}"
        );
        assert!(
            outcome.all_correct_decided(),
            "seed {seed} blocked liveness: {outcome:?}"
        );
        assert!(
            outcome.decided_views().iter().all(|v| *v >= start),
            "seed {seed} decided below the start view: {:?}",
            outcome.decided_views()
        );
        detections += outcome.equivocation_detections;
    }
    // The attack really ran: honest replicas accepted one justified
    // proposal and then saw the other.
    assert!(detections > 0, "no replica ever saw the split proposals");
}
