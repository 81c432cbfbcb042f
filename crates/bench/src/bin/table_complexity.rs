//! §3.3 — message and communication complexity, including the view-change
//! path.
//!
//! Measures, in the simulator: (a) the good case, and (b) a forced view
//! change (silent view-1 leader), reporting message counts and bytes. The
//! paper's statements being validated:
//!
//! - good case: `Ω(n√n)` messages for ProBFT vs `Ω(n²)` for PBFT;
//! - view change: ProBFT's communication complexity grows to `O(n²√n)`
//!   because NewLeader messages carry prepared certificates of `O(√n)`
//!   Prepare messages and the new leader rebroadcasts a deterministic
//!   quorum of them.

use probft_bench::{fmt_count, print_row};
use probft_core::config::View;
use probft_core::harness::{InstanceBuilder, InstanceOutcome};
use probft_core::ByzantineStrategy;
use probft_pbft::{PbftReplica, PbftStrategy};
use probft_quorum::ReplicaId;

fn main() {
    println!("§3.3 — measured message/communication complexity\n");
    print_row(
        "scenario",
        &[
            "n".into(),
            "messages".into(),
            "bytes".into(),
            "msgs/n^1.5".into(),
            "msgs/n^2".into(),
        ],
    );

    for n in [50usize, 100, 150] {
        // ProBFT good case: termination in view 1 is probabilistic, so
        // scan seeds for a run where every replica decided in view 1 (the
        // figure's good-case definition).
        let good = clean_view1_run(n);
        assert!(good.all_correct_decided());
        emit(
            "ProBFT good",
            n,
            good.metrics.total_sent(),
            good.metrics.total_bytes(),
        );

        // ProBFT with a silent leader: one view change.
        let vc = InstanceBuilder::new(n)
            .seed(3)
            .byzantine(ReplicaId(0), ByzantineStrategy::Silent)
            .run();
        assert!(vc.all_correct_decided());
        emit(
            "ProBFT viewchg",
            n,
            vc.metrics.total_sent(),
            vc.metrics.total_bytes(),
        );

        // PBFT good case for reference.
        let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
            .seed(3)
            .run();
        assert!(pbft.all_correct_decided());
        emit(
            "PBFT good",
            n,
            pbft.metrics.total_sent(),
            pbft.metrics.total_bytes(),
        );

        let pbft_vc = InstanceBuilder::<PbftReplica>::for_protocol(n)
            .seed(3)
            .byzantine(ReplicaId(0), PbftStrategy::Silent)
            .run();
        assert!(pbft_vc.all_correct_decided());
        emit(
            "PBFT viewchg",
            n,
            pbft_vc.metrics.total_sent(),
            pbft_vc.metrics.total_bytes(),
        );
        println!();
    }

    println!("Reading: ProBFT-good msgs/n^1.5 is a stable constant (≈ 2·o·l)");
    println!("while msgs/n² shrinks — the O(n√n) claim. PBFT-good msgs/n² is");
    println!("the stable constant (≈ 2) instead. The view-change rows show the");
    println!("byte blow-up from certificate-carrying NewLeader messages");
    println!("(ProBFT's O(n²√n) communication complexity).");
}

/// Finds a seed whose run decides entirely in view 1 (no straggler).
fn clean_view1_run(n: usize) -> InstanceOutcome {
    for seed in 0..20 {
        let outcome = InstanceBuilder::new(n).seed(seed).run();
        if outcome.all_correct_decided()
            && outcome.max_view == View(1)
            && outcome.decided_views() == vec![View(1)]
        {
            return outcome;
        }
    }
    panic!("no clean view-1 run in 20 seeds at n = {n} — investigate");
}

fn emit(label: &str, n: usize, msgs: u64, bytes: u64) {
    let nf = n as f64;
    print_row(
        label,
        &[
            n.to_string(),
            fmt_count(msgs as f64),
            fmt_count(bytes as f64),
            format!("{:.2}", msgs as f64 / nf.powf(1.5)),
            format!("{:.3}", msgs as f64 / (nf * nf)),
        ],
    );
}
