//! Integration tests for the client read path: the three consistency
//! tiers over a real TCP cluster, plus robustness of the read frames.

use probft::runtime::{LiveSmrBuilder, ReplicaReport};
use probft::smr::{Command, Consistency, KvResponse};

/// Linearizable reads are ordered through the log, so a read issued after
/// a write's applied reply *must* observe that write — even when the
/// client starts at a follower and has to follow a redirect first.
#[test]
fn linearizable_read_observes_just_applied_write() {
    let cluster = LiveSmrBuilder::new(4)
        .seed(101)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    // Start at a follower: the first operation exercises the redirect
    // path before the read path is measured.
    let mut client = cluster.client(1).leader_hint(2);

    client.put("x", "1").expect("applied");
    assert_eq!(
        client.get("x", Consistency::Linearizable).expect("read"),
        Some("1".to_string())
    );
    client.put("x", "2").expect("applied");
    assert_eq!(
        client.get("x", Consistency::Linearizable).expect("read"),
        Some("2".to_string()),
        "a linearizable read after the applied reply must see the write"
    );
    client.delete("x").expect("applied");
    assert_eq!(
        client.get("x", Consistency::Linearizable).expect("read"),
        None
    );

    // The ordered reads occupy log slots but never mutate the store.
    let reports = cluster.shutdown();
    let first = &reports[0];
    assert!(reports.iter().all(|r| r.log == first.log));
    assert_eq!(first.state.applied(), 3, "3 writes; reads executed none");
    assert!(
        first.log.iter().filter(|e| e.is_read()).count() >= 3,
        "linearizable reads appear as read entries in the log"
    );
}

/// Leader reads are served off the leader's applied state: a client that
/// writes through the leader and then leader-reads observes its own
/// write (monotonic read-your-writes for a sequential client).
#[test]
fn leader_read_observes_own_writes() {
    let cluster = LiveSmrBuilder::new(4)
        .seed(103)
        .batch_size(4)
        .start()
        .expect("cluster boots");
    let mut client = cluster.client(1).leader_hint(3);

    for i in 0..5 {
        client.put("seq", &i.to_string()).expect("applied");
        // The leader answered the write post-apply, so its local state
        // already holds it; the leader read must too.
        assert_eq!(
            client.get("seq", Consistency::Leader).expect("read"),
            Some(i.to_string()),
            "leader read lost a write it had already acknowledged"
        );
    }
    assert!(
        client.redirects() >= 1,
        "starting at a follower must redirect at least once \
         (writes and leader reads both route to the leader)"
    );
    cluster.shutdown();
}

/// Local reads may be stale but never torn: every observed value is one
/// that was actually written (never interleaved garbage), and reads off
/// one replica are monotone — each reader connection polls a single
/// replica whose state only moves forward between whole-batch applies.
#[test]
fn local_reads_are_stale_at_worst_never_torn() {
    let cluster = LiveSmrBuilder::new(4)
        .seed(107)
        .batch_size(2)
        .start()
        .expect("cluster boots");

    // A reader pinned to a follower (replica 3). Local reads are served
    // by whichever replica the client points at, without redirects.
    let mut reader = cluster.client(2).leader_hint(3);
    let mut writer = cluster.client(1);

    let written: Vec<String> = (0..12).map(|i| format!("value-{i:04}-suffix")).collect();
    let mut observed = Vec::new();
    for value in &written {
        writer.put("k", value).expect("applied");
        observed.push(reader.get("k", Consistency::Local).expect("read"));
    }
    assert_eq!(
        reader.redirects(),
        0,
        "local reads are served by the contacted replica, never redirected"
    );

    // Never torn: everything observed is exactly one written value (or
    // None before the first apply reached the follower).
    for obs in observed.iter().flatten() {
        assert!(
            written.contains(obs),
            "local read observed a value never written: {obs:?}"
        );
    }
    // Monotone per replica: once a value is visible, later reads on the
    // same replica never regress to an earlier one.
    let mut last_index: Option<usize> = None;
    for obs in observed.iter() {
        let index = obs
            .as_ref()
            .map(|v| written.iter().position(|w| w == v).expect("checked above"));
        if let (Some(prev), Some(cur)) = (last_index, index) {
            assert!(
                cur >= prev,
                "local reads on one replica went backwards: {prev} then {cur}"
            );
        }
        if index.is_some() {
            last_index = index;
        }
    }
    // Liveness of the cheap tier: by the final write the follower has
    // applied *something* (commits flow to followers continuously).
    assert!(
        observed.iter().any(Option::is_some),
        "the follower never observed any of 12 writes"
    );
    cluster.shutdown();
}

/// Malformed and torn read frames must not wedge a replica: after a
/// rogue client sends a read request with a bad consistency tag, a
/// truncated read frame, and a mid-frame disconnect, well-behaved
/// clients still read and write.
#[test]
fn malformed_read_frames_do_not_wedge_the_cluster() {
    use probft::core::wire::{put, Wire};
    use probft::runtime::{write_frame, SmrFrame};
    use probft::smr::{KvStore, RequestId};
    use std::io::Write;
    use std::net::TcpStream;

    let cluster = LiveSmrBuilder::new(4).seed(109).start().expect("boots");

    // A syntactically valid ReadRequest frame, then corrupted variants.
    let good = SmrFrame::<KvStore>::ReadRequest {
        request: RequestId { client: 9, seq: 1 },
        consistency: Consistency::Local,
        op: Command::Get { key: "k".into() },
    }
    .to_wire_bytes();

    let mut rogue = TcpStream::connect(cluster.addrs()[0]).expect("connect");
    // Bad consistency tier byte.
    let mut bad_tier = vec![5u8]; // FRAME_READ_REQUEST
    put::u64(&mut bad_tier, 9);
    put::u64(&mut bad_tier, 2);
    bad_tier.push(99); // no such tier
    write_frame(&mut rogue, &bad_tier).expect("send");
    // Truncated op after a valid header.
    let truncated = &good[..good.len() - 2];
    write_frame(&mut rogue, truncated).expect("send");
    // Torn frame: half a length prefix, then vanish.
    rogue.write_all(&[0, 0, 0]).expect("half a prefix");
    drop(rogue);

    // The cluster still serves reads and writes at every tier.
    let mut client = cluster.client(3);
    assert_eq!(
        client.put("alive", "yes").expect("applied"),
        KvResponse::Prev(None)
    );
    for level in Consistency::all() {
        assert_eq!(
            client.get("alive", level).expect("read"),
            Some("yes".to_string()),
            "read at {level} failed after malformed frames"
        );
    }

    let metrics = ReplicaReport::aggregate_metrics(&cluster.shutdown());
    assert!(
        metrics.counter("frames_malformed") >= 2,
        "malformed read frames must be counted"
    );
    assert!(
        metrics.counter("frames_torn") >= 1,
        "torn frame must be counted"
    );
}

/// The whole consistency ladder in one session: a fresh key is written,
/// then read at every tier; all tiers eventually agree on the value, and
/// the linearizable tier agrees immediately.
#[test]
fn all_tiers_answer_and_linearizable_is_immediate() {
    let cluster = LiveSmrBuilder::new(4)
        .seed(113)
        .start()
        .expect("cluster boots");
    let mut client = cluster.client(1);

    client.put("ladder", "rung").expect("applied");
    // Immediate guarantee only for the ordered tier.
    assert_eq!(
        client
            .get("ladder", Consistency::Linearizable)
            .expect("read"),
        Some("rung".to_string())
    );
    // The client talks to the leader after the write, so leader reads are
    // also immediate from here.
    assert_eq!(
        client.get("ladder", Consistency::Leader).expect("read"),
        Some("rung".to_string())
    );
    // Local tier: answers (possibly stale); since this client still
    // points at the leader, it observes the write as well.
    assert_eq!(
        client.get("ladder", Consistency::Local).expect("read"),
        Some("rung".to_string())
    );
    cluster.shutdown();
}
