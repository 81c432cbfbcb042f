//! HotStuff baseline scenarios: normal case, linear message complexity,
//! view changes under silent/crashed leaders.

use probft_core::config::View;
use probft_core::harness::InstanceBuilder;
use probft_hotstuff::{HsReplica, HsStrategy};
use probft_quorum::ReplicaId;

#[test]
fn normal_case_decides_in_view_one() {
    for seed in 0..3 {
        let outcome = InstanceBuilder::<HsReplica>::for_protocol(10)
            .seed(seed)
            .run();
        assert!(outcome.all_correct_decided(), "seed {seed}: {outcome:?}");
        assert!(outcome.agreement());
        assert_eq!(outcome.decided_views(), vec![View(1)]);
    }
}

#[test]
fn message_complexity_is_linear() {
    let outcome = InstanceBuilder::<HsReplica>::for_protocol(50).seed(1).run();
    assert!(outcome.all_correct_decided());
    let total = outcome.metrics.total_sent();
    // 4 leader broadcasts (n each) + 3 vote rounds (n each) ≈ 7n = 350.
    assert!(total < 10 * 50, "expected O(n) ≈ 350 messages, got {total}");
    assert_eq!(outcome.metrics.kind("Propose").sent, 50);
    assert_eq!(outcome.metrics.kind("Decide").sent, 50);
}

#[test]
fn silent_leader_triggers_view_change() {
    let outcome = InstanceBuilder::<HsReplica>::for_protocol(10)
        .seed(2)
        .byzantine(ReplicaId(0), HsStrategy::Silent)
        .run();
    assert!(outcome.all_correct_decided(), "{outcome:?}");
    assert!(outcome.agreement());
    assert!(outcome.decided_views().iter().all(|v| *v >= View(2)));
}

#[test]
fn crashed_leader_tolerated() {
    let outcome = InstanceBuilder::<HsReplica>::for_protocol(10)
        .seed(3)
        .byzantine(ReplicaId(0), HsStrategy::Crash)
        .run();
    assert!(outcome.all_correct_decided(), "{outcome:?}");
    assert!(outcome.agreement());
}

#[test]
fn multiple_crashes_tolerated() {
    let mut b = InstanceBuilder::<HsReplica>::for_protocol(10).seed(4);
    for i in [0usize, 1, 4] {
        b = b.byzantine(ReplicaId::from(i), HsStrategy::Crash);
    }
    let outcome = b.run();
    assert!(outcome.all_correct_decided(), "{outcome:?}");
    assert!(outcome.agreement());
}

#[test]
fn deterministic_replay() {
    let a = InstanceBuilder::<HsReplica>::for_protocol(10).seed(5).run();
    let b = InstanceBuilder::<HsReplica>::for_protocol(10).seed(5).run();
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.metrics.total_sent(), b.metrics.total_sent());
}
