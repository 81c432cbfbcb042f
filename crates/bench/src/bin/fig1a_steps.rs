//! Figure 1a — good-case message pattern and communication steps.
//!
//! Prints the number of communication steps each protocol needs in the good
//! case (the paper's claim: ProBFT matches PBFT's optimal three), both from
//! the closed-form table and *measured*: the simulator runs each protocol
//! and reports the distinct message-exchange phases observed on the
//! decision path.

use probft_bench::print_row;
use probft_core::harness::InstanceBuilder;
use probft_hotstuff::HsReplica;
use probft_pbft::PbftReplica;

fn main() {
    let n = 40;
    println!("Figure 1a — good-case communication steps (n = {n})\n");
    print_row(
        "protocol",
        &["steps".into(), "pattern".into(), "measured kinds".into()],
    );

    // Analytic step counts.
    let rows = [
        ("PBFT", 3, "1-to-all, all-to-all, all-to-all"),
        ("ProBFT", 3, "1-to-all, all-to-sample, all-to-sample"),
        (
            "HotStuff",
            7,
            "star (leader aggregation), 4 broadcasts + 3 vote rounds",
        ),
    ];

    // Measured: kinds on the decision path (excluding synchronizer noise).
    let probft = InstanceBuilder::new(n).seed(1).run();
    assert!(probft.all_correct_decided(), "ProBFT run must decide");
    let probft_kinds = decision_kinds(&probft.metrics);

    let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
        .seed(1)
        .run();
    assert!(pbft.all_correct_decided(), "PBFT run must decide");
    let pbft_kinds = decision_kinds(&pbft.metrics);

    let hs = InstanceBuilder::<HsReplica>::for_protocol(n).seed(1).run();
    assert!(hs.all_correct_decided(), "HotStuff run must decide");
    let hs_kinds = decision_kinds(&hs.metrics);

    let measured = [pbft_kinds, probft_kinds, hs_kinds];
    for ((name, steps, pattern), kinds) in rows.iter().zip(measured.iter()) {
        print_row(
            name,
            &[steps.to_string(), pattern.to_string(), kinds.clone()],
        );
    }

    println!("\nProBFT and PBFT share the optimal 3-step latency; HotStuff");
    println!("trades steps for linear message complexity (see fig1b_messages).");
}

fn decision_kinds(metrics: &probft_simnet::metrics::MessageMetrics) -> String {
    let kinds: Vec<&str> = metrics
        .iter()
        .filter(|(k, s)| s.sent > 0 && *k != "Wish" && *k != "NewLeader" && *k != "NewView")
        .map(|(k, _)| k)
        .collect();
    format!("{} ({} kinds)", kinds.join("→"), kinds.len())
}
