//! Cross-protocol integration: the Figure 1 comparison, measured end to
//! end on the same simulator substrate.

use probft::core::harness::InstanceBuilder;
use probft::hotstuff::HsReplica;
use probft::pbft::PbftReplica;

/// All three protocols decide and agree on the leader's value at the same
/// population size and seed.
#[test]
fn all_three_protocols_decide() {
    let n = 25;
    let probft = InstanceBuilder::new(n).seed(4).run();
    let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
        .seed(4)
        .run();
    let hs = InstanceBuilder::<HsReplica>::for_protocol(n).seed(4).run();

    assert!(
        probft.all_correct_decided() && probft.agreement(),
        "{probft:?}"
    );
    assert!(pbft.all_correct_decided() && pbft.agreement(), "{pbft:?}");
    assert!(hs.all_correct_decided() && hs.agreement(), "{hs:?}");
}

/// Message-count ordering of Figure 1b: HotStuff < ProBFT < PBFT, with the
/// ProBFT/PBFT gap consistent with O(n√n) vs O(n²).
#[test]
fn message_ordering_matches_figure_1b() {
    let n = 100;
    let probft = InstanceBuilder::new(n).seed(5).run();
    let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
        .seed(5)
        .run();
    let hs = InstanceBuilder::<HsReplica>::for_protocol(n).seed(5).run();
    assert!(probft.all_correct_decided() && pbft.all_correct_decided() && hs.all_correct_decided());

    let (p, b, h) = (
        probft.metrics.total_sent_excluding_self(),
        pbft.metrics.total_sent_excluding_self(),
        hs.metrics.total_sent_excluding_self(),
    );
    assert!(
        h < p && p < b,
        "ordering broken: hs={h} probft={p} pbft={b}"
    );

    // Closed-form sanity: measured ProBFT within 20% of the formula.
    let formula = probft::analysis::messages::probft_messages_discrete(n, 2.0, 1.7);
    let rel = (p as f64 - formula).abs() / formula;
    assert!(rel < 0.2, "measured {p} vs formula {formula}");

    // PBFT prepare phase is exactly n(n-1) (no self messages counted).
    assert_eq!(pbft.metrics.kind("Prepare").sent, (n * n) as u64);
}

/// Latency ordering of Figure 1a: ProBFT matches PBFT's 3 steps; HotStuff's
/// extra phases cost real (virtual) time.
#[test]
fn latency_ordering_matches_figure_1a() {
    let n = 31;
    let probft = InstanceBuilder::new(n).seed(6).run();
    let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
        .seed(6)
        .run();
    let hs = InstanceBuilder::<HsReplica>::for_protocol(n).seed(6).run();
    assert!(probft.all_correct_decided() && pbft.all_correct_decided() && hs.all_correct_decided());

    // HotStuff needs strictly more virtual time than both 3-step protocols.
    assert!(
        hs.finished_at > probft.finished_at,
        "hotstuff {} vs probft {}",
        hs.finished_at,
        probft.finished_at
    );
    assert!(
        hs.finished_at > pbft.finished_at,
        "hotstuff {} vs pbft {}",
        hs.finished_at,
        pbft.finished_at
    );
    // ProBFT and PBFT are within 2x of each other (same step count, random
    // delays differ).
    let ratio = probft.finished_at.ticks() as f64 / pbft.finished_at.ticks() as f64;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
}

/// The §5 ratio claim measured end to end at n = 200: ProBFT uses below
/// 30% of PBFT's messages (the closed form says 24%, simulator noise and
/// ceilings allowed for).
#[test]
fn measured_ratio_consistent_with_section_5() {
    let n = 200;
    let probft = InstanceBuilder::new(n).seed(7).run();
    let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
        .seed(7)
        .run();
    assert!(probft.all_correct_decided() && pbft.all_correct_decided());
    let ratio = probft.metrics.total_sent_excluding_self() as f64
        / pbft.metrics.total_sent_excluding_self() as f64;
    assert!(
        (0.15..0.30).contains(&ratio),
        "measured ratio {ratio} out of expected band"
    );
}

/// What a pinned run must reproduce exactly: `(total_sent, total_bytes,
/// finished_at ticks, decided_views, decided value digest prefix)`.
type Pinned = (u64, u64, u64, Vec<u64>, Option<u64>);

/// Condenses a single-shot outcome into its pinned figures.
macro_rules! pinned {
    ($outcome:expr) => {{
        let o = $outcome;
        assert!(o.all_correct_decided() && o.agreement(), "{o:?}");
        let views = o.decided_views().iter().map(|v| v.0).collect();
        let digest = o
            .decisions
            .values()
            .next()
            .map(|d| d.value.digest().to_u64());
        let pinned: Pinned = (
            o.metrics.total_sent(),
            o.metrics.total_bytes(),
            o.finished_at.ticks(),
            views,
            digest,
        );
        pinned
    }};
}

/// Every harness run is a pure function of its settings: these figures
/// were recorded before the per-protocol harnesses were folded into one,
/// and any change to the keyring seed, network construction, process order
/// or stop predicate moves at least one of them.
#[test]
fn pinned_outcomes_are_reproduced_exactly() {
    use probft::core::ByzantineStrategy;
    use probft::hotstuff::HsStrategy;
    use probft::pbft::PbftStrategy;
    use probft::quorum::ReplicaId;
    use probft::simnet::{SimDuration, SimTime};
    use probft::smr::{Command, SmrBuilder};

    let rows: Vec<(&str, Pinned)> = vec![
        (
            "probft fault-free",
            pinned!(InstanceBuilder::new(31).seed(21).run()),
        ),
        (
            "probft split leader",
            pinned!(InstanceBuilder::new(31)
                .seed(22)
                .byzantine(ReplicaId(0), ByzantineStrategy::SplitLeader)
                .run()),
        ),
        (
            "probft gst + link faults + partition",
            pinned!(InstanceBuilder::new(13)
                .seed(23)
                .gst(SimTime::from_ticks(40_000))
                .pre_gst_max_delay(SimDuration::from_ticks(10_000))
                .link_faults(0.02, 0.1)
                .partition(
                    (0..13).map(|i| u8::from(i >= 7)).collect(),
                    SimTime::from_ticks(60_000)
                )
                .run()),
        ),
        (
            "pbft silent leader",
            pinned!(InstanceBuilder::<PbftReplica>::for_protocol(10)
                .seed(24)
                .byzantine(ReplicaId(0), PbftStrategy::Silent)
                .run()),
        ),
        (
            "hotstuff crashed leader",
            pinned!(InstanceBuilder::<HsReplica>::for_protocol(10)
                .seed(25)
                .byzantine(ReplicaId(0), HsStrategy::Crash)
                .run()),
        ),
    ];
    let expected: Vec<Pinned> = vec![
        (
            1333,
            236_468,
            176,
            vec![1],
            Some(14_113_160_269_095_465_296),
        ),
        (
            4772,
            608_684,
            50_322,
            vec![2],
            Some(4_416_334_920_376_109_964),
        ),
        (
            637,
            76_024,
            60_288,
            vec![2],
            Some(4_416_334_920_376_109_964),
        ),
        (
            289,
            17_834,
            50_364,
            vec![2],
            Some(4_416_334_920_376_109_964),
        ),
        (
            166,
            19_684,
            50_593,
            vec![2],
            Some(4_416_334_920_376_109_964),
        ),
    ];
    for ((name, got), want) in rows.iter().zip(&expected) {
        assert_eq!(got, want, "{name}");
    }

    let smr = SmrBuilder::new(7, 6)
        .seed(26)
        .silent(ReplicaId(0))
        .workload(
            ReplicaId(1),
            (0..6)
                .map(|i| Command::Put {
                    key: format!("k{i}"),
                    value: format!("v{i}"),
                })
                .collect(),
        )
        .run();
    assert!(smr.logs_consistent() && smr.states_consistent());
    let digests: Vec<u64> = smr.log_digests.iter().map(|d| d.to_u64()).collect();
    let (silent, live) = (3_050_727_386_326_048_795, 4_270_103_187_630_583_692);
    assert_eq!(digests, [silent, live, live, live, live, live, live]);
    assert_eq!(smr.finished_at.ticks(), 50_752);
}
