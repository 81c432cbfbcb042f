//! The two live workloads: a real TCP `LiveSmrBuilder` cluster on
//! loopback, driven by an open-loop generator over two `SmrClient`
//! connections, one thread each.
//!
//! Open loop: request `k` of a connection is due at a fixed time on the
//! schedule whether or not earlier requests have been answered. A
//! connection holds one request in flight (the client is sequential), so
//! a stall delays every later request of that connection; latency is
//! timed from the due time, which charges that wait to the program.

use crate::layers;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio, splitmix64};
use crate::Args;
use probft_obs::MetricsSnapshot;
use probft_runtime::nemesis::{execute, verify_exactly_once, verify_invariants, Fault, FaultPlan};
use probft_runtime::{LiveSmrBuilder, LiveSmrCluster, ReplicaReport, SmrClient};
use probft_smr::{Command, Consistency, KvStore, RequestId};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Connections (one client thread each) the generator drives.
const CONNS: usize = 2;
/// Distinct keys per connection. Each connection owns its keys, so every
/// leader-tier read has one correct answer: the connection's last
/// acknowledged write to the key.
const KEYS_PER_CONN: u64 = 64;

/// The shape of one live workload.
struct Shape {
    n: usize,
    /// Offered load over all connections (requests per second).
    rate: f64,
    /// Share of requests that are `Consistency::Leader` GETs.
    read_pct: u64,
    checkpoint_interval: usize,
    /// Closed-loop requests per connection run during set-up.
    warmup_ops: u64,
    /// Per-attempt and overall client timeouts.
    attempt_timeout: Duration,
    overall_timeout: Duration,
    /// When, in seconds into the window, the fault schedule strikes.
    fault_at: Option<f64>,
    /// How long after the schedule ends requests may still complete;
    /// anything unserved by then counts as failed.
    grace: Duration,
}

/// One scheduled request, as the generator saw it. Times are seconds
/// since the start of its measured window.
#[derive(Clone, Copy, Debug)]
struct Sample {
    write: bool,
    due: f64,
    /// When the connection was free to send it: `max(due, previous done)`.
    free: f64,
    sent: f64,
    done: f64,
    ok: bool,
    traced: bool,
    /// Due while no fault was active.
    steady: bool,
    /// Time inside the `SmrClient` call (µs).
    call_us: f64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// One client connection and what it has been acknowledged.
struct Conn {
    client: SmrClient<KvStore>,
    id: u64,
    /// The next request's sequence number (the client numbers every
    /// request, reads included, from 1).
    seq: u64,
    last_acked: HashMap<String, String>,
    acked_writes: u64,
    write_errors: u64,
}

impl Conn {
    fn key(&self, j: u64) -> String {
        format!("c{}-k{j}", self.id)
    }

    /// Runs one request; returns whether it succeeded and, for a read,
    /// a description of a wrong answer.
    fn request(&mut self, write: bool, j: u64, value: String) -> (bool, Option<String>) {
        let key = self.key(j);
        let id = RequestId {
            client: self.id,
            seq: self.seq,
        };
        self.seq += 1;
        if write {
            let put = Command::Put {
                key: key.clone(),
                value: value.clone(),
            };
            let ok = self.client.submit(put).is_ok();
            if ok {
                self.acked_writes += 1;
                self.last_acked.insert(key, value);
            } else {
                // The write may still apply later: its key has no single
                // correct answer any more.
                self.write_errors += 1;
                self.last_acked.remove(&key);
            }
            return (ok, None);
        }
        match self.client.get(&key, Consistency::Leader) {
            Ok(got) => {
                let want = self.last_acked.get(&key);
                let stale = (got.as_ref() != want).then(|| {
                    format!("read {id} of {key} returned {got:?}, last acknowledged {want:?}")
                });
                (true, stale)
            }
            Err(_) => (false, None),
        }
    }
}

/// A live cluster after set-up, with its connected, warmed-up clients.
struct Booted {
    cluster: LiveSmrCluster<KvStore>,
    conns: Vec<Conn>,
    setup_s: f64,
}

/// Boots a cluster, connects the clients and warms both up; the time
/// this takes is one `setup_s` sample.
fn boot(shape: &Shape, seed: u64) -> Booted {
    let started = Instant::now();
    let cluster = LiveSmrBuilder::new(shape.n)
        .seed(seed)
        .checkpoint_interval(shape.checkpoint_interval)
        .start()
        .expect("loopback listeners bind");
    let mut conns: Vec<Conn> = (1..=CONNS as u64)
        .map(|id| Conn {
            client: cluster
                .client(id)
                .timeouts(shape.attempt_timeout, shape.overall_timeout),
            id,
            seq: 1,
            last_acked: HashMap::new(),
            acked_writes: 0,
            write_errors: 0,
        })
        .collect();
    // Warm-up: peer links connected, first slots decided, client
    // connections open. Closed loop, alternating writes and reads.
    for conn in &mut conns {
        for k in 0..shape.warmup_ops {
            let (ok, _) = conn.request(k % 2 == 0, k % KEYS_PER_CONN, format!("warm{k}"));
            assert!(ok, "warm-up request {k} failed");
        }
    }
    Booted {
        cluster,
        conns,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// What one connection thread returns.
struct ConnResult {
    conn: Conn,
    samples: Vec<Sample>,
    /// Scheduled requests never sent because the deadline passed.
    unserved: u64,
    retries: u64,
    redirects: u64,
    confirmed: Vec<RequestId>,
    stale_reads: Vec<String>,
    spans: Spans,
}

/// Drives the open-loop schedule on one connection for `seconds`.
fn drive(
    mut conn: Conn,
    shape: &Shape,
    args: &Args,
    seconds: f64,
    start: Instant,
    conn_index: usize,
    mut spans: Spans,
) -> ConnResult {
    let interval = CONNS as f64 / shape.rate;
    let phase = interval * conn_index as f64 / CONNS as f64;
    let deadline = seconds + shape.grace.as_secs_f64();
    let (retries0, redirects0) = (conn.client.retries(), conn.client.redirects());
    let start_ns = spans.now_ns() as f64 - start.elapsed().as_secs_f64() * 1e9;
    let mut samples = Vec::new();
    let mut confirmed = Vec::new();
    let mut stale_reads = Vec::new();
    let mut unserved = 0;
    let mut prev_done = 0.0f64;
    let now = || start.elapsed().as_secs_f64();
    for k in 0u64.. {
        let due = phase + k as f64 * interval;
        if due >= seconds {
            break;
        }
        if now() >= deadline {
            unserved += 1;
            continue;
        }
        let wait = due - now();
        if wait > 0.0 {
            thread::sleep(Duration::from_secs_f64(wait));
        }
        let draw = splitmix64(args.seed ^ (conn.id << 48) ^ k);
        let write = draw % 100 >= shape.read_pct;
        let j = (draw >> 16) % KEYS_PER_CONN;
        let value = format!("v{:x}-{}-{k}", args.seed, conn.id);
        let traced = args.trace && k % 2 == 1;
        let id = RequestId {
            client: conn.id,
            seq: conn.seq,
        };
        let sent = now();
        let call_start = spans.now_ns();
        let (ok, stale) = conn.request(write, j, value);
        let call_end = spans.now_ns();
        let done = now();
        if traced {
            // Root: the request from its due time to its reply. Child: the
            // call into the runtime's client.
            let key = (conn.id << 32) | k;
            let due_ns = (start_ns + due * 1e9) as u64;
            let root = spans.record("gen.request", 0, key, due_ns, call_end);
            let name = if write {
                "runtime.SmrClient::submit"
            } else {
                "runtime.SmrClient::get"
            };
            spans.record(name, root, key, call_start, call_end);
        }
        if ok && write {
            confirmed.push(id);
        }
        stale_reads.extend(stale);
        samples.push(Sample {
            write,
            due,
            free: due.max(prev_done),
            sent,
            done,
            ok,
            traced,
            steady: shape.fault_at.is_none_or(|f| due < f),
            call_us: (call_end - call_start) as f64 / 1e3,
        });
        prev_done = done;
    }
    ConnResult {
        retries: conn.client.retries() - retries0,
        redirects: conn.client.redirects() - redirects0,
        conn,
        samples,
        unserved,
        confirmed,
        stale_reads,
        spans,
    }
}

/// Cluster-wide telemetry totals, read from every replica's obs bundle.
#[derive(Clone, Copy, Debug, Default)]
struct ObsTotals {
    peer_bytes: u64,
    /// Slots proposed: every replica records one batch size per slot it
    /// opens, so this is the largest per-replica count.
    slots: u64,
    batched_entries: u64,
    checkpoints: u64,
    drops: u64,
    hist_records: u64,
}

impl ObsTotals {
    fn since(self, before: ObsTotals) -> ObsTotals {
        ObsTotals {
            peer_bytes: self.peer_bytes - before.peer_bytes,
            slots: self.slots - before.slots,
            batched_entries: self.batched_entries - before.batched_entries,
            checkpoints: self.checkpoints - before.checkpoints,
            drops: self.drops - before.drops,
            hist_records: self.hist_records - before.hist_records,
        }
    }

    fn add(&mut self, other: ObsTotals) {
        self.peer_bytes += other.peer_bytes;
        self.slots += other.slots;
        self.batched_entries += other.batched_entries;
        self.checkpoints += other.checkpoints;
        self.drops += other.drops;
        self.hist_records += other.hist_records;
    }
}

/// Histograms the replicas record into.
const REPLICA_HISTOGRAMS: [&str; 7] = [
    "commit_latency_us",
    "decide_latency_us",
    "apply_latency_us",
    "batch_size",
    "checkpoint_interval_us",
    "state_transfer_us",
    "recovery_latency_us",
];

const DROP_COUNTERS: [&str; 5] = [
    "drops_future_horizon",
    "drops_slot_flood",
    "drops_stale",
    "drops_invalid_checkpoint",
    "drops_pending_overflow",
];

fn obs_totals(cluster: &LiveSmrCluster<KvStore>) -> (ObsTotals, MetricsSnapshot) {
    let mut t = ObsTotals::default();
    let mut merged = MetricsSnapshot::default();
    for obs in cluster.obs_handles() {
        let snap = obs.snapshot();
        t.peer_bytes += obs.frame_bytes_out("peer").get();
        if let Some(h) = snap.histogram("batch_size") {
            t.slots = t.slots.max(h.count());
            t.batched_entries += h.sum();
        }
        t.checkpoints += snap.counter("checkpoints_taken");
        t.drops += DROP_COUNTERS.iter().map(|c| snap.counter(c)).sum::<u64>();
        t.hist_records += REPLICA_HISTOGRAMS
            .iter()
            .filter_map(|h| snap.histogram(h))
            .map(|h| h.count())
            .sum::<u64>();
        merged.merge(&snap);
    }
    (t, merged)
}

/// Everything measured over the run's windows (one per cluster).
struct Measured {
    /// The clock every span of the run counts from.
    epoch: Instant,
    results: Vec<ConnResult>,
    obs: ObsTotals,
    merged: MetricsSnapshot,
}

impl Measured {
    fn new() -> Self {
        Measured {
            epoch: Instant::now(),
            results: Vec::new(),
            obs: ObsTotals::default(),
            merged: MetricsSnapshot::default(),
        }
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.results.iter().flat_map(|r| &r.samples)
    }

    /// Runs the generator on every connection of `booted` for `seconds`,
    /// calling `during` on this thread meanwhile (the fault schedule),
    /// then shuts the cluster down and checks it. Returns this window's
    /// results.
    fn window(
        &mut self,
        mut booted: Booted,
        shape: &Shape,
        args: &Args,
        seconds: f64,
        during: impl FnOnce(&LiveSmrCluster<KvStore>, Instant),
        report: &mut Report,
    ) -> &[ConnResult] {
        let (before, _) = obs_totals(&booted.cluster);
        let barrier = Barrier::new(CONNS + 1);
        let start_cell = OnceLock::new();
        let id_base = self.results.len() as u64;
        let results = thread::scope(|scope| {
            let handles: Vec<_> = booted
                .conns
                .drain(..)
                .enumerate()
                .map(|(i, conn)| {
                    let (barrier, start_cell) = (&barrier, &start_cell);
                    let spans = Spans::new(self.epoch, id_base + i as u64 + 1);
                    scope.spawn(move || {
                        barrier.wait();
                        let start = *start_cell.get().expect("start is set before the barrier");
                        drive(conn, shape, args, seconds, start, i, spans)
                    })
                })
                .collect();
            let start = Instant::now();
            start_cell.set(start).expect("start is set once");
            barrier.wait();
            during(&booted.cluster, start);
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect::<Vec<_>>()
        });
        let (after, merged) = obs_totals(&booted.cluster);
        self.obs.add(after.since(before));
        self.merged.merge(&merged);
        check_shutdown(booted.cluster, &results, report);
        let from = self.results.len();
        self.results.extend(results);
        &self.results[from..]
    }
}

/// Shuts the cluster down and checks, on the replicas not left paused:
/// digest-chain agreement and the nemesis invariants over the
/// acknowledged writes, exactly-once execution, and that every key holds
/// its connection's last acknowledged write.
fn check_shutdown(cluster: LiveSmrCluster<KvStore>, results: &[ConnResult], report: &mut Report) {
    let paused: Vec<usize> = (0..cluster.addrs().len())
        .filter(|&i| cluster.is_paused(i))
        .collect();
    let reports = cluster.shutdown();
    let live: Vec<&ReplicaReport<KvStore>> =
        reports.iter().filter(|r| !paused.contains(&r.id)).collect();
    report.check(
        live.windows(2).all(|w| {
            (w[0].total_log_len(), w[0].log_digest) == (w[1].total_log_len(), w[1].log_digest)
        }),
        || {
            let lens: Vec<u64> = live.iter().map(|r| r.total_log_len()).collect();
            format!("digest chains of the unpaused replicas disagree (log lengths {lens:?})")
        },
    );
    let confirmed: BTreeSet<RequestId> = results
        .iter()
        .flat_map(|r| r.confirmed.iter().copied())
        .collect();
    if let Err(v) = verify_invariants(&reports, &paused, &confirmed) {
        report.violation(format!("nemesis invariants: {v:?}"));
    }
    if let Err(v) = verify_exactly_once(&reports, &paused) {
        report.violation(format!("exactly-once: {v:?}"));
    }
    // The log check above is skipped once checkpoints truncate the log;
    // the final state still pins down lost and doubled writes.
    let acked: u64 = results.iter().map(|r| r.conn.acked_writes).sum();
    let errors: u64 = results.iter().map(|r| r.conn.write_errors).sum();
    for r in &live {
        let applied = r.state.applied();
        report.check(applied >= acked && applied <= acked + errors, || {
            format!(
                "replica {} executed {applied} writes; clients saw {acked} acknowledged and {errors} failed",
                r.id
            )
        });
        for conn in results.iter().map(|r| &r.conn) {
            for (key, value) in &conn.last_acked {
                report.check(r.state.get(key) == Some(value.as_str()), || {
                    format!(
                        "replica {} holds {:?} for {key}, last acknowledged {value:?}",
                        r.id,
                        r.state.get(key)
                    )
                });
            }
        }
    }
}

/// Counts attempts and failures, and fails the run on wrong reads.
fn tally(measured: &Measured, report: &mut Report) {
    let errors = measured.samples().filter(|s| !s.ok).count() as u64;
    let unserved: u64 = measured.results.iter().map(|r| r.unserved).sum();
    let scheduled = measured.samples().count() as u64 + unserved;
    report.attempted = scheduled;
    report.failed = errors + unserved;
    report.check(scheduled > 0, || "no request was scheduled".into());
    report.line(format!(
        "requests: {scheduled} scheduled, {errors} client errors, {unserved} unserved at the deadline"
    ));
    for r in &measured.results {
        for stale in r.stale_reads.iter().take(5) {
            report.violation(format!("leader read: {stale}"));
        }
    }
}

/// Per-layer metrics shared by both live workloads.
fn live_layers(report: &mut Report, m: &Measured, args: &Args) {
    let samples: Vec<&Sample> = m.samples().collect();
    let acked = samples.iter().filter(|s| s.ok && s.write).count() as u64;
    let ops = samples.len() as u64;
    for (write, what, call) in [
        (true, "write", "SmrClient::submit"),
        (false, "read", "SmrClient::get (leader tier)"),
    ] {
        let calls: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced && s.ok && s.write == write)
            .map(|s| s.call_us)
            .collect();
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            report.set(
                &format!("runtime.client_{what}_us.{tag}"),
                quantile(&calls, q),
                calls.len() as u64,
                format!("{call}, traced requests"),
            );
        }
    }
    for (name, metric, what) in [
        (
            "commit_latency_us",
            "runtime.commit_latency_us.p50",
            "request received -> reply sent",
        ),
        (
            "decide_latency_us",
            "smr.decide_latency_us.p50",
            "slot opened -> decided",
        ),
        (
            "apply_latency_us",
            "smr.apply_latency_us.p50",
            "slot opened -> applied",
        ),
    ] {
        if let Some(h) = m.merged.histogram(name) {
            report.set(
                metric,
                h.p50() as f64,
                h.count(),
                format!("obs {name}, all replicas, {what} (includes warm-up)"),
            );
        }
    }
    if let Some(h) = m
        .merged
        .histogram("recovery_latency_us")
        .filter(|h| h.count() > 0)
    {
        report.set(
            "runtime.recovery_latency_ms",
            h.p50() as f64 / 1e3,
            h.count(),
            "obs recovery_latency_us p50: fault -> next applied slot, surviving replicas",
        );
    }
    let o = m.obs;
    report.set(
        "smr.batch_size.mean",
        ratio(o.batched_entries as f64, o.slots as f64),
        o.slots,
        "obs batch_size: entries per proposed slot",
    );
    report.set(
        "smr.slots_per_op",
        ratio(o.slots as f64, acked as f64),
        acked,
        format!("{} slots / {acked} acknowledged writes", o.slots),
    );
    report.set(
        "smr.checkpoints_taken",
        o.checkpoints as f64,
        1,
        "obs checkpoints_taken, summed over replicas",
    );
    report.set(
        "smr.drops_total",
        o.drops as f64,
        1,
        "obs drops_* counters, summed over replicas",
    );
    report.set(
        "runtime.peer_bytes_per_op",
        ratio(o.peer_bytes as f64, acked as f64),
        acked,
        "obs frame_bytes_out{kind=peer}, all replicas, per acknowledged write",
    );
    let retries: u64 = m.results.iter().map(|r| r.retries).sum();
    let redirects: u64 = m.results.iter().map(|r| r.redirects).sum();
    report.set(
        "runtime.client_retries_per_op",
        ratio(retries as f64, ops as f64),
        ops,
        format!("{retries} retries / {ops} requests"),
    );
    report.set(
        "runtime.client_redirects_per_op",
        ratio(redirects as f64, ops as f64),
        ops,
        format!("{redirects} redirects / {ops} requests"),
    );
    // The generator's own lateness: send time minus the moment the
    // connection was free to send. Queueing behind a slow reply is the
    // program's, not the generator's.
    let late: Vec<f64> = samples.iter().map(|s| (s.sent - s.free) * 1e3).collect();
    report.set(
        "gen.late_p99_ms",
        quantile(&late, 0.99),
        late.len() as u64,
        "send time - max(due, previous reply)",
    );
    let hist_ns = layers::hist_record_ns();
    let per_op = ratio(o.hist_records as f64, acked as f64);
    report.set(
        "obs.hist_record_ns",
        hist_ns,
        1,
        "Histogram::record, timed loop",
    );
    report.set(
        "obs.telemetry_ns_per_op",
        hist_ns * per_op,
        acked,
        format!("hist_record_ns x {per_op:.2} replica histogram records per acknowledged write"),
    );
    // Traced and untraced requests alternate, so both halves see the same
    // load at the same moments.
    let p50_of = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.write && s.ok && s.steady && s.traced == traced)
            .map(|s| s.latency_ms())
            .collect();
        median(&v)
    };
    let (on, off) = (p50_of(true), p50_of(false));
    let steady = samples
        .iter()
        .filter(|s| s.write && s.ok && s.steady)
        .count() as u64;
    report.set(
        "trace.overhead_pct",
        ratio(on - off, off) * 100.0,
        steady,
        format!("PUT p50 from due, no fault active: traced {on:.4} ms vs untraced {off:.4} ms"),
    );
    let mut all = Spans::new(Instant::now(), 0);
    for r in &m.results {
        all.absorb(&r.spans);
    }
    layers::crypto(report);
    crate::write_spans(&all, args, report);
}

/// `kv-mixed-n4`: n=4 with checkpoints, an open loop of 50% PUT and 50%
/// leader-tier GET at 800 requests/s over two connections.
pub fn kv_mixed(args: &Args, report: &mut Report) {
    /// Clusters per run, each booted fresh and measured for an equal
    /// share of `--seconds`. One cluster's latency can sit high for its
    /// whole window (2.7 ms against 1.1–1.5 ms for the other four of one
    /// run); pooling five keeps it from setting the run's figures, and
    /// gives `setup_s` five samples.
    const CLUSTERS: u64 = 5;
    let shape = Shape {
        n: 4,
        rate: 800.0,
        read_pct: 50,
        checkpoint_interval: 64,
        warmup_ops: 200,
        attempt_timeout: Duration::from_millis(1000),
        overall_timeout: Duration::from_secs(10),
        fault_at: None,
        grace: Duration::from_secs(15),
    };
    let window_s = args.seconds / CLUSTERS as f64;
    report.line(format!(
        "kv-mixed-n4: n={} checkpoint every {} slots, open loop {} req/s over {CONNS} connections, \
         {}% leader GET; {CLUSTERS} fresh clusters x {window_s} s",
        shape.n, shape.checkpoint_interval, shape.rate, shape.read_pct
    ));
    let mut setups = Vec::new();
    let mut m = Measured::new();
    let mut window_p50s = Vec::new();
    let mut served_secs = 0.0;
    for c in 0..CLUSTERS {
        let booted = boot(&shape, splitmix64(args.seed ^ c));
        setups.push(booted.setup_s);
        let results = m.window(booted, &shape, args, window_s, |_, _| {}, report);
        let samples: Vec<&Sample> = results.iter().flat_map(|r| &r.samples).collect();
        let writes: Vec<f64> = samples
            .iter()
            .filter(|s| s.write && s.ok && !s.traced)
            .map(|s| s.latency_ms())
            .collect();
        window_p50s.push(median(&writes));
        served_secs += samples.iter().map(|s| s.done).fold(0.0, f64::max);
    }
    report.set(
        "setup_s",
        median(&setups),
        CLUSTERS,
        format!(
            "boot n={} + connect + {} warm-up requests/connection, median of {CLUSTERS} boots",
            shape.n, shape.warmup_ops
        ),
    );
    report.line(format!("PUT p50 per cluster (ms): {window_p50s:.4?}"));
    tally(&m, report);
    let lat = |write: bool| -> Vec<f64> {
        m.samples()
            .filter(|s| s.write == write && s.ok && !s.traced)
            .map(Sample::latency_ms)
            .collect()
    };
    let (writes, reads) = (lat(true), lat(false));
    let served = m.samples().filter(|s| s.ok).count() as f64;
    report.set(
        "ops_per_s",
        served / served_secs,
        served as u64,
        "requests served per second, PUT + GET, first due -> last reply",
    );
    let acked = m.samples().filter(|s| s.write && s.ok).count() as u64;
    report.set(
        "bytes_per_op",
        ratio(m.obs.peer_bytes as f64, acked as f64),
        acked,
        "peer frame bytes sent, all replicas, per acknowledged PUT",
    );
    for (name, v, n, note) in [
        (
            "write_p50_ms",
            median(&writes),
            writes.len(),
            "PUT, due -> acknowledged",
        ),
        (
            "write_p75_ms",
            quantile(&writes, 0.75),
            writes.len(),
            "PUT, due -> acknowledged",
        ),
        (
            "write_p99_ms",
            quantile(&writes, 0.99),
            writes.len(),
            "PUT, due -> acknowledged",
        ),
        (
            "read_p50_ms",
            median(&reads),
            reads.len(),
            "leader GET, due -> answered",
        ),
        (
            "read_p99_ms",
            quantile(&reads, 0.99),
            reads.len(),
            "leader GET, due -> answered",
        ),
    ] {
        report.aside(name, v, "ms", n as u64, note);
    }
    report.aside(
        "served_ops_s",
        served / served_secs,
        "1/s",
        served as u64,
        "requests served / (first due -> last reply)",
    );
    if args.trace {
        live_layers(report, &m, args);
    }
}

/// Seconds of each `leader-kill-n7` cycle: healthy, then the leader
/// paused. The leader is resumed when the cycle's schedule ends.
const HEALTHY_S: f64 = 2.0;
const PAUSED_S: f64 = 4.0;

/// `leader-kill-n7`: n=7, an open loop of PUTs at 40/s over two
/// connections. Each cycle boots a fresh cluster, runs it healthy, then
/// pauses the leader through the nemesis with the schedule still running,
/// and resumes it when the schedule ends so the backlog drains.
pub fn leader_kill(args: &Args, report: &mut Report) {
    let shape = Shape {
        n: 7,
        rate: 40.0,
        read_pct: 0,
        checkpoint_interval: 4,
        warmup_ops: 50,
        attempt_timeout: Duration::from_millis(500),
        overall_timeout: Duration::from_secs(15),
        fault_at: Some(HEALTHY_S),
        grace: Duration::from_secs(15),
    };
    let cycle_s = HEALTHY_S + PAUSED_S;
    let cycles = ((args.seconds / cycle_s).round() as usize).max(3);
    report.line(format!(
        "leader-kill-n7: n={} checkpoint every {} slots, open loop {} PUT/s over {CONNS} connections; \
         {cycles} cycles, each a fresh cluster: {HEALTHY_S} s healthy, then the leader paused \
         for {PAUSED_S} s and resumed",
        shape.n, shape.checkpoint_interval, shape.rate
    ));
    let mut m = Measured::new();
    let mut setups = Vec::new();
    let mut outages = Vec::new();
    let mut healthy = Vec::new();
    let (mut post_commits, mut post_secs) = (0u64, 0.0f64);
    let (mut fault_commits, mut fault_secs) = (0u64, 0.0f64);
    for c in 0..cycles {
        let booted = boot(&shape, splitmix64(args.seed ^ c as u64));
        setups.push(booted.setup_s);
        let (mut fault, mut resume, mut replica) = (0.0, 0.0, 0);
        let during = |cluster: &LiveSmrCluster<KvStore>, start: Instant| {
            sleep_until(start + Duration::from_secs_f64(HEALTHY_S));
            execute(
                cluster,
                &FaultPlan::new(args.seed).at(Duration::ZERO, Fault::KillLeader),
            );
            fault = start.elapsed().as_secs_f64();
            replica = (0..shape.n).find(|&i| cluster.is_paused(i)).unwrap_or(0);
            sleep_until(start + Duration::from_secs_f64(cycle_s));
            execute(
                cluster,
                &FaultPlan::new(args.seed).at(Duration::ZERO, Fault::Resume(replica)),
            );
            resume = start.elapsed().as_secs_f64();
        };
        let results = m.window(booted, &shape, args, cycle_s, during, report);
        let samples: Vec<&Sample> = results.iter().flat_map(|r| &r.samples).collect();
        healthy.extend(
            samples
                .iter()
                .filter(|s| s.ok && !s.traced && s.steady)
                .map(|s| s.latency_ms()),
        );
        // Unavailability: the fault -> the first reply to a request due
        // after it.
        let Some(first) = samples
            .iter()
            .filter(|s| s.ok && s.due >= fault)
            .map(|s| s.done)
            .min_by(f64::total_cmp)
        else {
            report.violation(format!(
                "cycle {c}: no request due after the fault was served"
            ));
            continue;
        };
        outages.push(first - fault);
        // The commit rate while the leader stays paused: replies from the
        // end of the outage until the resume.
        let post = samples
            .iter()
            .filter(|s| s.ok && s.done >= first && s.done < resume)
            .count() as u64;
        post_commits += post;
        post_secs += resume - first;
        fault_commits += post;
        fault_secs += resume - fault;
        report.line(format!(
            "cycle {c}: paused replica {replica} at {fault:.3} s, unavailable {:.3} s, \
             {post} replies before the resume at {resume:.3} s",
            first - fault,
        ));
    }
    tally(&m, report);
    report.set(
        "setup_s",
        median(&setups),
        setups.len() as u64,
        format!(
            "boot n={} + connect + {} warm-up requests/connection, median of {cycles} cycles",
            shape.n, shape.warmup_ops
        ),
    );
    let all: Vec<f64> = m
        .samples()
        .filter(|s| s.ok)
        .map(Sample::latency_ms)
        .collect();
    // Outage and degraded service in one figure: replies per second
    // while the leader is down, so a shorter outage or a faster recovery
    // both raise it. Timers, not processor speed, set it.
    report.set(
        "ops_per_s",
        ratio(fault_commits as f64, fault_secs),
        fault_commits,
        "PUT replies per second from the fault to the resume",
    );
    report.set(
        "bytes_per_op",
        ratio(m.obs.peer_bytes as f64, all.len() as f64),
        all.len() as u64,
        "peer frame bytes sent, all replicas, per acknowledged PUT",
    );
    report.aside(
        "unavailable_s",
        median(&outages),
        "s",
        outages.len() as u64,
        &format!("median over cycles of fault -> first reply to a request due after it; all: {outages:.3?}"),
    );
    report.aside(
        "post_fault_ops_s",
        ratio(post_commits as f64, post_secs),
        "1/s",
        post_commits,
        &format!("replies over {post_secs:.3} s, leader paused"),
    );
    let window_s = cycles as f64 * cycle_s;
    report.aside(
        "served_ops_s",
        all.len() as f64 / window_s,
        "1/s",
        all.len() as u64,
        &format!("PUTs acknowledged / {window_s} s of schedule"),
    );
    report.aside(
        "write_p99_ms",
        quantile(&all, 0.99),
        "ms",
        all.len() as u64,
        "every PUT, due -> acknowledged, outages included",
    );
    report.aside(
        "write_p50_ms",
        median(&all),
        "ms",
        all.len() as u64,
        "every PUT, due -> acknowledged, outages included",
    );
    report.aside(
        "write_p50_healthy_ms",
        median(&healthy),
        "ms",
        healthy.len() as u64,
        "PUT due before the fault, due -> acknowledged",
    );
    if args.trace {
        live_layers(report, &m, args);
    }
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
}
