//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-mixed-n4|leader-kill-n7|consensus-n100-sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input derives from `--seed`. The
//! run measures for `--seconds`, checks the program's outputs, prints each
//! metric with its unit and sample count, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` holding
//! the end-to-end metrics, or with `--trace 1` the per-layer ones (timed
//! from spans around the calls into each crate, written to
//! `perfbench/out/`). It exits 1 when a correctness check fails and 2 on
//! bad arguments.

mod layers;
mod live;
mod report;
mod sim;
mod spans;
mod stats;

use report::Report;
use std::path::PathBuf;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["kv-mixed-n4", "leader-kill-n7", "consensus-n100-sim"];

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            usage(&format!("{} needs a value", pair[0]));
        };
        fn bad<T>(flag: &str, value: &str) -> T {
            usage(&format!("{flag}: bad value {value:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad(flag, value))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Writes the traced run's spans to
/// `perfbench/out/<workload>-seed<n>.spans.tsv`.
pub fn write_spans(spans: &spans::Spans, args: &Args, report: &mut Report) {
    let path = PathBuf::from("perfbench/out")
        .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    report.line(match spans.write_tsv(&path) {
        Ok(()) => format!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => format!("WARNING: writing spans to {}: {e}", path.display()),
    });
}

fn main() {
    let args = parse_args();
    let mut report = Report::default();
    match args.workload.as_str() {
        "kv-mixed-n4" => live::kv_mixed(&args, &mut report),
        "leader-kill-n7" => live::leader_kill(&args, &mut report),
        _ => sim::run(&args, &mut report),
    }
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
