//! Experiment harness: build a full ProBFT instance, run it, inspect the
//! outcome.
//!
//! Everything the integration tests, examples, and figure-regeneration
//! binaries do goes through [`InstanceBuilder`]: it wires the keyring,
//! configuration, network model, honest replicas, and Byzantine strategies
//! into one deterministic simulation and condenses the run into an
//! [`InstanceOutcome`].
//!
//! # Examples
//!
//! ```
//! use probft_core::harness::InstanceBuilder;
//!
//! // 7 replicas, all honest, synchronous network: one view, unanimous.
//! let outcome = InstanceBuilder::new(7).seed(42).run();
//! assert!(outcome.all_correct_decided());
//! assert!(outcome.agreement());
//! assert_eq!(outcome.decided_views(), vec![probft_core::config::View(1)]);
//! ```

use crate::byzantine::{ByzantineReplica, ByzantineStrategy};
use crate::config::{ProbftConfig, SharedConfig, View};
use crate::node::Node;
use crate::replica::{Decision, Replica};
use crate::value::{ValidityPredicate, Value};
use probft_crypto::keyring::Keyring;
use probft_quorum::ReplicaId;
use probft_simnet::delay::{DelayModel, HealingPartition, Lossy, PartialSynchrony};
use probft_simnet::metrics::MessageMetrics;
use probft_simnet::process::ProcessId;
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Default per-event budget: generous enough for hundreds of views.
const DEFAULT_MAX_EVENTS: u64 = 20_000_000;

/// Builds and runs a single ProBFT consensus instance.
#[derive(Debug)]
pub struct InstanceBuilder {
    n: usize,
    f_override: Option<usize>,
    l: f64,
    o: f64,
    seed: u64,
    gst: SimTime,
    pre_gst_max_delay: SimDuration,
    post_gst_delay: SimDuration,
    base_timeout: SimDuration,
    start_view: View,
    byzantine: BTreeMap<ReplicaId, ByzantineStrategy>,
    values: BTreeMap<ReplicaId, Value>,
    validity: ValidityPredicate,
    drop_prob: f64,
    dup_prob: f64,
    partition: Option<(Vec<u8>, SimTime)>,
    max_events: u64,
    horizon: SimTime,
}

impl InstanceBuilder {
    /// Starts building an instance with `n` replicas (all honest, GST = 0).
    pub fn new(n: usize) -> Self {
        InstanceBuilder {
            n,
            f_override: None,
            l: 2.0,
            o: 1.7,
            seed: 0,
            gst: SimTime::ZERO,
            pre_gst_max_delay: SimDuration::from_ticks(30_000),
            post_gst_delay: SimDuration::from_ticks(100),
            base_timeout: SimDuration::from_ticks(50_000),
            start_view: View::FIRST,
            byzantine: BTreeMap::new(),
            values: BTreeMap::new(),
            validity: ValidityPredicate::accept_all(),
            drop_prob: 0.0,
            dup_prob: 0.0,
            partition: None,
            max_events: DEFAULT_MAX_EVENTS,
            horizon: SimTime::from_ticks(u64::MAX / 2),
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the quorum multiplier `l`.
    pub fn quorum_multiplier(mut self, l: f64) -> Self {
        self.l = l;
        self
    }

    /// Sets the overprovision factor `o`.
    pub fn overprovision(mut self, o: f64) -> Self {
        self.o = o;
        self
    }

    /// Overrides the assumed fault threshold `f` (default `⌊(n−1)/3⌋`).
    pub fn assumed_faults(mut self, f: usize) -> Self {
        self.f_override = Some(f);
        self
    }

    /// Sets the global stabilization time (default 0: synchronous run).
    pub fn gst(mut self, gst: SimTime) -> Self {
        self.gst = gst;
        self
    }

    /// Sets the maximum pre-GST message delay (adversarial asynchrony).
    pub fn pre_gst_max_delay(mut self, d: SimDuration) -> Self {
        self.pre_gst_max_delay = d;
        self
    }

    /// Sets the post-GST delay bound Δ.
    pub fn post_gst_delay(mut self, d: SimDuration) -> Self {
        self.post_gst_delay = d;
        self
    }

    /// Sets the base view timeout.
    pub fn base_timeout(mut self, d: SimDuration) -> Self {
        self.base_timeout = d;
        self
    }

    /// Opens every replica directly in `view` instead of view 1 (the
    /// entry point an SMR slot uses to open in the cluster's current
    /// view); Byzantine strategies attack that view.
    pub fn start_view(mut self, view: View) -> Self {
        self.start_view = view;
        self
    }

    /// Assigns a Byzantine strategy to replica `id`.
    pub fn byzantine(mut self, id: ReplicaId, strategy: ByzantineStrategy) -> Self {
        self.byzantine.insert(id, strategy);
        self
    }

    /// Sets replica `id`'s input value (default: `Value::from_tag(id)`).
    pub fn value(mut self, id: ReplicaId, value: Value) -> Self {
        self.values.insert(id, value);
        self
    }

    /// Sets the application validity predicate (default: accept all).
    pub fn validity(mut self, validity: ValidityPredicate) -> Self {
        self.validity = validity;
        self
    }

    /// Injects link faults: each message is dropped with `drop_prob` and
    /// duplicated with `dup_prob` (defaults 0.0 — faithful partial
    /// synchrony never loses messages; these knobs exist for robustness
    /// testing).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` (checked by the
    /// underlying [`Lossy`] model at run time).
    pub fn link_faults(mut self, drop_prob: f64, dup_prob: f64) -> Self {
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self
    }

    /// Splits the network into partition groups (one group id per
    /// replica) that heal at `heal_at`. Cross-group messages are withheld
    /// until the heal — a robustness scenario beyond the paper's
    /// sender-oblivious scheduler.
    pub fn partition(mut self, groups: Vec<u8>, heal_at: SimTime) -> Self {
        self.partition = Some((groups, heal_at));
        self
    }

    /// Caps the number of simulation events (default 20M).
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Caps virtual time.
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Builds the configuration this instance will run with.
    pub fn config(&self) -> ProbftConfig {
        let mut b = ProbftConfig::builder(self.n)
            .quorum_multiplier(self.l)
            .overprovision(self.o)
            .base_timeout(self.base_timeout)
            .validity(self.validity.clone());
        if let Some(f) = self.f_override {
            b = b.faults(f);
        }
        b.build()
    }

    /// Runs the instance to completion (all correct replicas decided) or
    /// until the event/time budget runs out.
    pub fn run(self) -> InstanceOutcome {
        let cfg: SharedConfig = Arc::new(self.config());
        let keyring = Keyring::generate(self.n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());
        let faulty: Arc<BTreeSet<ReplicaId>> = Arc::new(self.byzantine.keys().copied().collect());

        let network = PartialSynchrony::new(
            self.gst,
            SimDuration::from_ticks(1),
            self.pre_gst_max_delay,
            SimDuration::from_ticks(1),
            self.post_gst_delay,
        );
        // Stack the optional fault wrappers around the base model.
        let network: Box<dyn DelayModel> = {
            let base: Box<dyn DelayModel> = match self.partition.clone() {
                Some((groups, heal_at)) => {
                    Box::new(HealingPartition::new(network, groups, heal_at))
                }
                None => Box::new(network),
            };
            if self.drop_prob > 0.0 || self.dup_prob > 0.0 {
                Box::new(Lossy::new(base, self.drop_prob, self.dup_prob))
            } else {
                base
            }
        };
        let mut sim: Simulation<Node> = Simulation::new(network, self.seed);

        for i in 0..self.n {
            let id = ReplicaId::from(i);
            let sk = keyring.signing_key(i).expect("index in range").clone();
            let node = match self.byzantine.get(&id) {
                Some(strategy) => Node::Byzantine(Box::new(
                    ByzantineReplica::new(
                        cfg.clone(),
                        id,
                        sk,
                        public.clone(),
                        faulty.clone(),
                        strategy.clone(),
                    )
                    .starting_in(self.start_view),
                )),
                None => {
                    let value = self
                        .values
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| Value::from_tag(i as u64));
                    Node::Honest(Box::new(
                        Replica::new(cfg.clone(), id, sk, public.clone(), value)
                            .starting_in(self.start_view),
                    ))
                }
            };
            sim.add_process(node);
        }

        let honest: Vec<ProcessId> = (0..self.n)
            .filter(|i| !self.byzantine.contains_key(&ReplicaId::from(*i)))
            .map(ProcessId)
            .collect();

        let horizon = self.horizon;
        let all_decided = move |s: &Simulation<Node>| {
            honest.iter().all(|p| s.process(*p).decision().is_some()) || s.now() >= horizon
        };
        let run_outcome = sim.run_until_condition(all_decided, self.max_events);

        InstanceOutcome::collect(&sim, &cfg, &self.byzantine, run_outcome)
    }
}

/// The condensed result of one consensus instance.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    /// Decisions of honest replicas, by id.
    pub decisions: BTreeMap<ReplicaId, Decision>,
    /// Ids of honest replicas that did not decide within the budget.
    pub undecided: Vec<ReplicaId>,
    /// True if any pair of honest decisions conflict, or any replica's
    /// decide rule fired twice with different values.
    pub safety_violated: bool,
    /// Honest replicas that detected leader equivocation (blocked a view).
    pub equivocation_detections: u64,
    /// Highest view any honest replica entered.
    pub max_view: View,
    /// Message metrics for the whole run.
    pub metrics: MessageMetrics,
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
    /// Why the simulation loop returned.
    pub run_outcome: RunOutcome,
}

impl InstanceOutcome {
    fn collect(
        sim: &Simulation<Node>,
        cfg: &ProbftConfig,
        byzantine: &BTreeMap<ReplicaId, ByzantineStrategy>,
        run_outcome: RunOutcome,
    ) -> Self {
        let mut decisions = BTreeMap::new();
        let mut undecided = Vec::new();
        let mut safety_violated = false;
        let mut equivocation_detections = 0;
        let mut max_view = View::NONE;

        for i in 0..cfg.n() {
            let id = ReplicaId::from(i);
            if byzantine.contains_key(&id) {
                continue;
            }
            let node = sim.process(ProcessId(i));
            let replica = node.as_honest().expect("non-byzantine node is honest");
            max_view = max_view.max(replica.current_view());
            equivocation_detections += replica.stats().equivocations_detected;
            if replica.has_conflicting_decision() {
                safety_violated = true;
            }
            match replica.decision() {
                Some(d) => {
                    decisions.insert(id, d.clone());
                }
                None => undecided.push(id),
            }
        }

        // Pairwise agreement across honest deciders.
        let mut digests = decisions.values().map(|d| d.value.digest());
        if let Some(first) = digests.next() {
            if digests.any(|d| d != first) {
                safety_violated = true;
            }
        }

        InstanceOutcome {
            decisions,
            undecided,
            safety_violated,
            equivocation_detections,
            max_view,
            metrics: sim.metrics().clone(),
            finished_at: sim.now(),
            run_outcome,
        }
    }

    /// Whether every honest replica decided.
    pub fn all_correct_decided(&self) -> bool {
        self.undecided.is_empty() && !self.decisions.is_empty()
    }

    /// Whether all decisions agree (vacuously true with ≤ 1 decision) and
    /// no per-replica conflict was latched.
    pub fn agreement(&self) -> bool {
        !self.safety_violated
    }

    /// The distinct decided values' count (0 = none, 1 = agreement,
    /// ≥ 2 = disagreement).
    pub fn distinct_decided_values(&self) -> usize {
        let set: BTreeSet<_> = self.decisions.values().map(|d| d.value.digest()).collect();
        set.len()
    }

    /// The sorted set of views in which decisions happened.
    pub fn decided_views(&self) -> Vec<View> {
        let set: BTreeSet<View> = self.decisions.values().map(|d| d.view).collect();
        set.into_iter().collect()
    }

    /// The unique decided value, if agreement held and someone decided.
    pub fn decided_value(&self) -> Option<&Value> {
        let mut values = self.decisions.values().map(|d| &d.value);
        let first = values.next()?;
        if values.all(|v| v.digest() == first.digest()) {
            Some(first)
        } else {
            None
        }
    }
}
