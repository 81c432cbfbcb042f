//! `consensus-n100-sim`: single-shot ProBFT instances in the
//! deterministic simulator at n=100 (l=2, o=1.7, so q=20 and s=34 — the
//! paper's sampled quorums actually run). Even instances are fault-free;
//! odd ones have a `SplitLeader` as the view-1 leader and decide through
//! a view change. Instance seeds derive from the workload seed.
//!
//! The untraced run goes through `InstanceBuilder`. The traced run also
//! replays every instance through this file's copy of the harness, whose
//! nodes are wrapped in a `Process` that times each call into
//! `probft_core::Replica`.

use crate::layers;
use crate::report::{Report, KINDS};
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio, splitmix64};
use crate::Args;
use probft_analysis::messages::probft_messages_discrete;
use probft_analysis::{termination_exact, TerminationParams};
use probft_core::config::{SharedConfig, View};
use probft_core::message::Message;
use probft_core::wire::Wire;
use probft_core::{ByzantineReplica, ByzantineStrategy, InstanceBuilder, InstanceOutcome, Node};
use probft_core::{Replica, Value};
use probft_crypto::keyring::Keyring;
use probft_crypto::Digest;
use probft_quorum::ReplicaId;
use probft_simnet::{
    Context, Measurable, PartialSynchrony, Process, ProcessId, SimDuration, SimTime, Simulation,
    TimerToken,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 100;
const L: f64 = 2.0;
const O: f64 = 1.7;
/// Instance set-ups timed for `setup_s`.
const SETUPS: u64 = 51;
/// Fewest instances of each kind a run measures.
const MIN_PER_KIND: u64 = 3;
/// Encoded messages kept per kind for the decode timing.
const CAPTURE_PER_KIND: usize = 64;

/// One instance of the workload.
fn builder(seed: u64, split: bool) -> InstanceBuilder {
    let b = InstanceBuilder::new(N)
        .seed(seed)
        .quorum_multiplier(L)
        .overprovision(O);
    if split {
        b.byzantine(ReplicaId::from(0usize), ByzantineStrategy::SplitLeader)
    } else {
        b
    }
}

/// What the traced replay records, shared by every wrapped node.
struct Recorder {
    spans: Spans,
    instance_span: u64,
    instance: u64,
    handler_ns: u64,
    captured: BTreeMap<&'static str, Vec<Vec<u8>>>,
}

impl Recorder {
    fn record(&mut self, name: &'static str, start: u64, end: u64) {
        let (parent, key) = (self.instance_span, self.instance);
        self.spans.record(name, parent, key, start, end);
    }
}

/// A node whose calls into the core replica are timed when `rec` is set.
struct Timed {
    node: Node,
    rec: Option<Rc<RefCell<Recorder>>>,
}

impl Timed {
    fn timed(&mut self, name: &'static str, call: impl FnOnce(&mut Node)) {
        let Some(rec) = self.rec.as_ref().filter(|_| self.node.is_honest()) else {
            call(&mut self.node);
            return;
        };
        let start = rec.borrow().spans.now_ns();
        call(&mut self.node);
        let mut rec = rec.borrow_mut();
        let end = rec.spans.now_ns();
        rec.handler_ns += end - start;
        rec.record(name, start, end);
    }
}

fn handler_span(kind: &str) -> &'static str {
    match kind {
        "Propose" => "core.Replica::on_message.Propose",
        "Prepare" => "core.Replica::on_message.Prepare",
        "Commit" => "core.Replica::on_message.Commit",
        "Wish" => "core.Replica::on_message.Wish",
        "NewLeader" => "core.Replica::on_message.NewLeader",
        _ => "core.Replica::on_message.other",
    }
}

impl Process for Timed {
    type Message = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.timed("core.Replica::on_start", |n| n.on_start(ctx));
    }

    fn on_message(&mut self, from: ProcessId, msg: Message, ctx: &mut Context<'_, Message>) {
        let kind = msg.kind();
        if let Some(rec) = &self.rec {
            let mut rec = rec.borrow_mut();
            let kept = rec.captured.entry(kind).or_default();
            if kept.len() < CAPTURE_PER_KIND {
                kept.push(msg.to_wire_bytes());
            }
        }
        self.timed(handler_span(kind), |n| n.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Message>) {
        self.timed("core.Replica::on_timer", |n| n.on_timer(token, ctx));
    }
}

/// Sets up one instance as `InstanceBuilder::run` does, with the
/// builder's default network (GST 0, post-GST delay 100 ticks): keys,
/// configuration, the replicas and the simulator. Returns it with the
/// honest replicas' ids.
fn build(
    seed: u64,
    split: bool,
    rec: Option<&Rc<RefCell<Recorder>>>,
) -> (Simulation<Timed>, Vec<ProcessId>) {
    let cfg: SharedConfig = Arc::new(builder(seed, split).config());
    let keyring = Keyring::generate(N, &seed.to_be_bytes());
    let public = Arc::new(keyring.public());
    let faulty: Arc<BTreeSet<ReplicaId>> = Arc::new(if split {
        BTreeSet::from([ReplicaId::from(0usize)])
    } else {
        BTreeSet::new()
    });
    let network = PartialSynchrony::new(
        SimTime::ZERO,
        SimDuration::from_ticks(1),
        SimDuration::from_ticks(30_000),
        SimDuration::from_ticks(1),
        SimDuration::from_ticks(100),
    );
    let mut sim: Simulation<Timed> = Simulation::new(network, seed);
    for i in 0..N {
        let id = ReplicaId::from(i);
        let sk = keyring.signing_key(i).expect("index in range").clone();
        let node = if faulty.contains(&id) {
            Node::Byzantine(Box::new(ByzantineReplica::new(
                cfg.clone(),
                id,
                sk,
                public.clone(),
                faulty.clone(),
                ByzantineStrategy::SplitLeader,
            )))
        } else {
            Node::Honest(Box::new(Replica::new(
                cfg.clone(),
                id,
                sk,
                public.clone(),
                Value::from_tag(i as u64),
            )))
        };
        sim.add_process(Timed {
            node,
            rec: rec.cloned(),
        });
    }
    let honest = (0..N)
        .filter(|i| !faulty.contains(&ReplicaId::from(*i)))
        .map(ProcessId)
        .collect();
    (sim, honest)
}

/// What one traced replay measured.
struct Replay {
    sent: u64,
    bytes: u64,
    decided: Option<Digest>,
    events: u64,
    delivered_prepare_commit: u64,
}

/// Replays one instance with timed nodes.
fn replay(seed: u64, split: bool, rec: &Rc<RefCell<Recorder>>) -> Replay {
    let start = rec.borrow().spans.now_ns();
    let (mut sim, honest) = build(seed, split, Some(rec));
    let end = rec.borrow().spans.now_ns();
    rec.borrow_mut().record("simnet.build", start, end);
    let watch = honest.clone();
    sim.run_until_condition(
        move |s: &Simulation<Timed>| {
            watch
                .iter()
                .all(|p| s.process(*p).node.decision().is_some())
        },
        20_000_000,
    );
    let decided: BTreeSet<Digest> = honest
        .iter()
        .filter_map(|p| sim.process(*p).node.decision().map(|d| d.value.digest()))
        .collect();
    let m = sim.metrics();
    Replay {
        sent: m.total_sent(),
        bytes: m.total_bytes(),
        decided: (decided.len() == 1)
            .then(|| decided.first().copied())
            .flatten(),
        events: sim.events_processed(),
        delivered_prepare_commit: m.kind("Prepare").delivered + m.kind("Commit").delivered,
    }
}

/// One measured instance.
struct Done {
    split: bool,
    wall_s: f64,
    outcome: InstanceOutcome,
}

/// Checks one instance's outcome against the protocol's guarantees.
fn check(i: u64, seed: u64, d: &Done, report: &mut Report) -> bool {
    let o = &d.outcome;
    let mut ok = true;
    if !o.all_correct_decided() {
        report.violation(format!(
            "instance {i} (seed {seed}): {} correct replicas did not decide",
            o.undecided.len()
        ));
        ok = false;
    }
    if !o.agreement() || o.distinct_decided_values() > 1 {
        report.violation(format!("instance {i} (seed {seed}): safety violated"));
        ok = false;
    }
    if o.decided_views() == vec![View(1)] {
        // View 1 is one Propose to each of the n replicas plus, per phase,
        // one sample of s from each replica: exactly n + 2ns sends. The
        // self-addressed sample slots are random; the analysis crate
        // counts them out in expectation, so that count must lie within
        // five standard deviations of it.
        let s = builder(seed, d.split).config().sample_size() as u64;
        let exact = N as u64 + 2 * N as u64 * s;
        let expected = probft_messages_discrete(N, L, O);
        let p = s as f64 / N as f64;
        let sd = (2.0 * N as f64 * p * (1.0 - p)).sqrt();
        let excl = o.metrics.total_sent_excluding_self() as f64;
        if o.metrics.total_sent() != exact || (excl - expected).abs() > 5.0 * sd {
            report.violation(format!(
                "instance {i} (seed {seed}): view 1 sent {} messages ({excl} excluding self), \
                 expected {exact} ({expected:.1} excluding self, analysis)",
                o.metrics.total_sent()
            ));
            ok = false;
        }
    }
    ok
}

pub fn run(args: &Args, report: &mut Report) {
    report.line(format!(
        "consensus-n100-sim: n={N} l={L} o={O}, instances alternate fault-free / SplitLeader \
         in view 1, {} s",
        args.seconds
    ));
    // Set-up: everything one instance does before its first event.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|k| {
            let start = Instant::now();
            let built = build(splitmix64(args.seed ^ k), k % 2 == 1, None);
            let took = start.elapsed().as_secs_f64();
            drop(std::hint::black_box(built));
            took
        })
        .collect();
    report.set(
        "setup_s",
        median(&setups),
        SETUPS,
        format!("keys + config + {N} replicas + simulator, median of {SETUPS}"),
    );

    let rec = Rc::new(RefCell::new(Recorder {
        spans: Spans::new(Instant::now(), 1),
        instance_span: 0,
        instance: 0,
        handler_ns: 0,
        captured: BTreeMap::new(),
    }));
    let mut done: Vec<Done> = Vec::new();
    let (mut traced_wall, mut untraced_wall, mut self_ns) = (0.0, 0.0, 0u64);
    let (mut events, mut delivered_pc, mut mismatches) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    // Until time is up, and until each median below has a few samples:
    // fault-free instances decided in view 1, and SplitLeader ones.
    let mut view1_count = 0;
    for i in 0u64.. {
        let enough = view1_count >= MIN_PER_KIND && i / 2 >= MIN_PER_KIND;
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let seed = splitmix64(args.seed.wrapping_mul(1_000_003) ^ i);
        let split = i % 2 == 1;
        let t = Instant::now();
        let outcome = builder(seed, split).run();
        let d = Done {
            split,
            wall_s: t.elapsed().as_secs_f64(),
            outcome,
        };
        if !split && d.outcome.decided_views() == vec![View(1)] {
            view1_count += 1;
        }
        if !check(i, seed, &d, report) {
            report.failed += 1;
        }
        if args.trace {
            let t0 = rec.borrow().spans.now_ns();
            {
                let mut r = rec.borrow_mut();
                r.instance = i;
                r.handler_ns = 0;
                // Opened now, closed once the replay ends.
                r.instance_span = r.spans.record("simnet.instance", 0, i, t0, t0);
            }
            let replay = replay(seed, split, &rec);
            let mut r = rec.borrow_mut();
            let t1 = r.spans.now_ns();
            let id = r.instance_span;
            r.spans.finish(id, t1);
            traced_wall += (t1 - t0) as f64 / 1e9;
            untraced_wall += d.wall_s;
            self_ns += (t1 - t0).saturating_sub(r.handler_ns);
            events += replay.events;
            delivered_pc += replay.delivered_prepare_commit;
            let m = &d.outcome.metrics;
            if (replay.sent, replay.bytes) != (m.total_sent(), m.total_bytes())
                || replay.decided != d.outcome.decided_value().map(Value::digest)
            {
                mismatches += 1;
            }
        }
        done.push(d);
    }
    report.attempted = done.len() as u64;

    let class = |split: bool| done.iter().filter(move |d| d.split == split);
    let walls = |split: bool| -> Vec<f64> { class(split).map(|d| d.wall_s * 1e3).collect() };
    let (ff, sl) = (walls(false), walls(true));
    // The fault-free figures are those of instances that decide in view 1.
    // About one fault-free instance in four needs view 2 with prepared
    // certificates and costs twenty times as much; in the ~20 fault-free
    // instances of a run their share swings the plain median (11 of 22 in
    // one run). Their rate is `core.view1_ratio`, their cost shows in
    // `decisions_per_s`.
    let view1: Vec<&Done> = class(false)
        .filter(|d| d.outcome.decided_views() == vec![View(1)])
        .collect();
    let v1_wall: Vec<f64> = view1.iter().map(|d| d.wall_s * 1e3).collect();
    let v1_bytes: Vec<f64> = view1
        .iter()
        .map(|d| d.outcome.metrics.total_bytes() as f64)
        .collect();
    let sl_bytes: Vec<f64> = class(true)
        .map(|d| d.outcome.metrics.total_bytes() as f64)
        .collect();
    // Simulated time (one tick is one microsecond, as in the live
    // runtime): the protocol's latency on the modelled network, which the
    // seeds, not processor speed, set. Wall-clock figures are printed.
    let sim_s = |d: &Done| d.outcome.finished_at.ticks() as f64 / 1e6;
    let v1_sim: Vec<f64> = view1.iter().map(|d| sim_s(d)).collect();
    let sl_sim: Vec<f64> = class(true).map(sim_s).collect();
    report.set(
        "ops_per_s",
        2.0 / (median(&v1_sim) + median(&sl_sim)),
        done.len() as u64,
        "decisions per simulated second at the 1:1 mix: \
         2 / (view-1 fault-free median + SplitLeader median)",
    );
    report.aside(
        "decisions_per_wall_s",
        2e3 / (median(&v1_wall) + median(&sl)),
        "1/s",
        done.len() as u64,
        "2 / (view-1 fault-free median + SplitLeader median), wall time",
    );
    report.aside(
        "write_p50_ms",
        median(&v1_wall),
        "ms",
        v1_wall.len() as u64,
        "fault-free instance decided in view 1, wall time until every correct replica decided",
    );
    report.set(
        "bytes_per_op",
        (median(&v1_bytes) + median(&sl_bytes)) / 2.0,
        done.len() as u64,
        "bytes sent per decision, mean of the view-1 fault-free and SplitLeader medians",
    );
    let n = done.len() as f64;
    let total_wall: f64 = done.iter().map(|d| d.wall_s).sum();
    let msgs: u64 = done.iter().map(|d| d.outcome.metrics.total_sent()).sum();
    let all_bytes: u64 = done.iter().map(|d| d.outcome.metrics.total_bytes()).sum();
    let instances = done.len() as u64;
    report.aside(
        "view_change_instance_ms",
        median(&sl),
        "ms",
        sl.len() as u64,
        "SplitLeader instance (decides through a view change), wall time, median",
    );
    report.aside(
        "decisions_per_s",
        n / total_wall,
        "1/s",
        instances,
        &format!(
            "instances / wall time ({} fault-free, {} SplitLeader)",
            ff.len(),
            sl.len()
        ),
    );
    report.aside(
        "msgs_per_decision",
        msgs as f64 / n,
        "count",
        instances,
        "all instances",
    );
    report.aside(
        "bytes_per_decision",
        all_bytes as f64 / n,
        "B",
        instances,
        "all instances",
    );
    report.line(format!(
        "instance wall ms: fault-free p90 {:.3} max {:.3}; SplitLeader p90 {:.3} max {:.3}",
        quantile(&ff, 0.9),
        quantile(&ff, 1.0),
        quantile(&sl, 0.9),
        quantile(&sl, 1.0)
    ));
    if !args.trace {
        return;
    }

    for kind in KINDS {
        let (sent, b) = done.iter().fold((0u64, 0u64), |(s, b), d| {
            let k = d.outcome.metrics.kind(kind);
            (s + k.sent, b + k.bytes_sent)
        });
        let note = "simnet MessageMetrics, sent per decision, all instances";
        report.set(
            &format!("core.msgs.{kind}"),
            sent as f64 / n,
            done.len() as u64,
            note,
        );
        report.set(
            &format!("core.bytes.{kind}"),
            b as f64 / n,
            done.len() as u64,
            note,
        );
    }
    let ff_view1 = view1.len();
    let f = builder(0, false).config().faults();
    let exact = |silent| termination_exact(TerminationParams::from_paper(N, silent, L, O));
    report.set(
        "core.view1_ratio",
        ratio(ff_view1 as f64, ff.len() as f64),
        ff.len() as u64,
        format!(
            "{ff_view1} of {} fault-free instances decided in view 1; analysis termination_exact \
             per replica: {:.4} with 0 silent, {:.4} with f={f} silent",
            ff.len(),
            exact(0),
            exact(f)
        ),
    );

    let rec = Rc::try_unwrap(rec)
        .ok()
        .expect("no node outlives its simulation")
        .into_inner();
    for kind in KINDS {
        let times = rec.spans.self_times_us(handler_span(kind));
        report.set(
            &format!("core.handle_us.{kind}"),
            median(&times),
            times.len() as u64,
            "self time of Replica::on_message, traced replay",
        );
        let captured = rec.captured.get(kind).map(Vec::as_slice).unwrap_or(&[]);
        report.set(
            &format!("core.wire_decode_us.{kind}"),
            layers::wire_decode_us(captured),
            captured.len() as u64,
            "Message::from_wire_bytes on messages captured from the run",
        );
    }
    layers::crypto(report);
    report.set(
        "obs.hist_record_ns",
        layers::hist_record_ns(),
        1,
        "Histogram::record, timed loop",
    );
    let handler_us = rec.spans.total_us("core.");
    let verify_us = report.value("crypto.vrf_verify_us.n100_s34")
        + 2.0 * report.value("crypto.schnorr_verify_us");
    report.set(
        "crypto.est_share_of_core",
        ratio(delivered_pc as f64 * verify_us, handler_us),
        delivered_pc,
        "ESTIMATE: delivered Prepare+Commit x (vrf_verify + 2 Schnorr verify) / core handler time",
    );
    report.set(
        "simnet.events_per_s",
        ratio(events as f64, traced_wall),
        events,
        "simulation events per second of traced instance wall time",
    );
    report.set(
        "simnet.self_ms_per_decision",
        self_ns as f64 / 1e6 / n,
        done.len() as u64,
        "traced instance wall time minus core handler time",
    );
    report.set(
        "trace.overhead_pct",
        ratio(traced_wall - untraced_wall, untraced_wall) * 100.0,
        done.len() as u64,
        format!(
            "traced replay {traced_wall:.3} s vs untraced {untraced_wall:.3} s, same instances"
        ),
    );
    if mismatches > 0 {
        report.line(format!(
            "WARNING: {mismatches} traced replays differ from their InstanceBuilder run: \
             this file's harness copy no longer mirrors InstanceBuilder::run"
        ));
    }
    crate::write_spans(&rec.spans, args, report);
}
