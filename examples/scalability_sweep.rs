//! Scalability sweep: measured messages and latency for ProBFT vs PBFT vs
//! HotStuff across system sizes — the intro's motivating workload.
//!
//! ```text
//! cargo run --release --example scalability_sweep
//! ```
//!
//! (Use `--release`; the n = 150 ProBFT instance verifies thousands of VRF
//! proofs.)

use probft::core::harness::InstanceBuilder;
use probft::hotstuff::HsReplica;
use probft::pbft::PbftReplica;

fn main() {
    println!("Good-case cost sweep (simulator-measured, network messages)\n");
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "n", "ProBFT msgs", "PBFT msgs", "HotStuff msgs", "ProBFT t", "PBFT t", "HotStuff t"
    );

    for n in [25usize, 50, 100, 150] {
        let probft = InstanceBuilder::new(n).seed(9).run();
        let pbft = InstanceBuilder::<PbftReplica>::for_protocol(n)
            .seed(9)
            .run();
        let hs = InstanceBuilder::<HsReplica>::for_protocol(n).seed(9).run();
        assert!(probft.all_correct_decided() && probft.agreement());
        assert!(pbft.all_correct_decided() && pbft.agreement());
        assert!(hs.all_correct_decided() && hs.agreement());

        println!(
            "{:>5} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12}",
            n,
            probft.metrics.total_sent_excluding_self(),
            pbft.metrics.total_sent_excluding_self(),
            hs.metrics.total_sent_excluding_self(),
            probft.finished_at,
            pbft.finished_at,
            hs.finished_at,
        );
    }

    println!("\nReading:");
    println!("- messages: HotStuff (O(n)) < ProBFT (O(n√n)) < PBFT (O(n²)),");
    println!("  with the ProBFT/PBFT gap widening as n grows;");
    println!("- virtual latency: ProBFT ≈ PBFT (3 steps) < HotStuff (7 steps).");
}
