//! The metric catalogue and the run's report.
//!
//! Every workload reports every metric of the catalogue: the untraced run
//! prints the end-to-end metrics, the traced run the per-layer ones. A
//! per-layer metric a workload does not exercise reads 0 and says so.
//! The last line of standard output is the machine-readable result.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). What each means on each workload is
/// tabulated in the benchmark's README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("bytes_per_op", "B/op"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.client_write_us.p50", "us"),
    ("runtime.client_write_us.p99", "us"),
    ("runtime.client_read_us.p50", "us"),
    ("runtime.client_read_us.p99", "us"),
    ("runtime.commit_latency_us.p50", "us"),
    ("runtime.peer_bytes_per_op", "B/op"),
    ("runtime.client_retries_per_op", "1/op"),
    ("runtime.client_redirects_per_op", "1/op"),
    ("runtime.recovery_latency_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("smr.decide_latency_us.p50", "us"),
    ("smr.apply_latency_us.p50", "us"),
    ("smr.batch_size.mean", "count"),
    ("smr.slots_per_op", "1/op"),
    ("smr.checkpoints_taken", "count"),
    ("smr.drops_total", "count"),
    ("core.handle_us.Propose", "us"),
    ("core.handle_us.Prepare", "us"),
    ("core.handle_us.Commit", "us"),
    ("core.handle_us.Wish", "us"),
    ("core.handle_us.NewLeader", "us"),
    ("core.msgs.Propose", "1/decision"),
    ("core.msgs.Prepare", "1/decision"),
    ("core.msgs.Commit", "1/decision"),
    ("core.msgs.Wish", "1/decision"),
    ("core.msgs.NewLeader", "1/decision"),
    ("core.bytes.Propose", "B/decision"),
    ("core.bytes.Prepare", "B/decision"),
    ("core.bytes.Commit", "B/decision"),
    ("core.bytes.Wish", "B/decision"),
    ("core.bytes.NewLeader", "B/decision"),
    ("core.view1_ratio", "ratio"),
    ("core.wire_decode_us.Propose", "us"),
    ("core.wire_decode_us.Prepare", "us"),
    ("core.wire_decode_us.Commit", "us"),
    ("core.wire_decode_us.Wish", "us"),
    ("core.wire_decode_us.NewLeader", "us"),
    ("crypto.vrf_verify_us.n100_s34", "us"),
    ("crypto.vrf_verify_us.n4_s4", "us"),
    ("crypto.vrf_prove_us", "us"),
    ("crypto.schnorr_sign_us", "us"),
    ("crypto.schnorr_verify_us", "us"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("crypto.est_share_of_core", "ratio"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.self_ms_per_decision", "ms"),
    ("obs.hist_record_ns", "ns"),
    ("obs.telemetry_ns_per_op", "ns"),
    ("trace.overhead_pct", "%"),
];

/// The consensus message kinds, in protocol order.
pub const KINDS: [&str; 5] = ["Propose", "Prepare", "Commit", "Wish", "NewLeader"];

#[derive(Clone, Debug)]
struct Value {
    value: f64,
    samples: u64,
    note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
    violations: Vec<String>,
    lines: Vec<String>,
    /// Operations (requests or instances) the workload scheduled.
    pub attempted: u64,
    /// Of those, the ones that errored or were still unserved at the
    /// deadline.
    pub failed: u64,
}

impl Report {
    /// Records metric `name` (which must be in the catalogue) measured
    /// over `samples` samples, with a short note on what it is.
    pub fn set(&mut self, name: &str, value: f64, samples: u64, note: impl Into<String>) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(
            key,
            Value {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// The value recorded for `name` (0 if none yet).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    /// Fails the run's correctness check with `why`.
    pub fn violation(&mut self, why: impl Into<String>) {
        self.violations.push(why.into());
    }

    /// Checks `ok`, failing the run with `why` when it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(why());
        }
    }

    /// Prints a metric under its own name beside the catalogue: the
    /// workload-specific figures the catalogue's shared names stand for.
    pub fn aside(&mut self, name: &str, value: f64, unit: &str, samples: u64, note: &str) {
        self.lines.push(format!(
            "{name:<34} {value:>14.4} {unit:<10} n={samples:<8} {note}"
        ));
    }

    /// Adds a free-form line to the human-readable part of the output.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints the human-readable report, then the result object as the
    /// last line: the end-to-end metrics, or with `traced` the per-layer
    /// ones.
    pub fn print(&self, traced: bool) {
        for line in &self.lines {
            println!("{line}");
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut json = Vec::new();
        for (name, unit) in catalogue {
            let v = self.values.get(name).cloned().unwrap_or_else(|| {
                assert!(traced, "end-to-end metric {name} was not measured");
                Value {
                    value: 0.0,
                    samples: 0,
                    note: "not exercised by this workload".into(),
                }
            });
            println!(
                "{name:<34} {:>14.4} {unit:<10} n={:<8} {}",
                v.value, v.samples, v.note
            );
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            ));
        }
        println!(
            "failed_ratio {} / {} = {:.4}",
            self.failed,
            self.attempted,
            crate::stats::ratio(self.failed as f64, self.attempted as f64)
        );
        for v in &self.violations {
            println!("CHECK FAILED: {v}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}
