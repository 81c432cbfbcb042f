//! Experiment harness: build a full consensus instance, run it, inspect
//! the outcome — for ProBFT and, through [`Protocol`], for the PBFT and
//! HotStuff baselines, so the Figure 1 comparison runs every protocol on
//! the same keyring, network and stop rule.
//!
//! Everything the integration tests, examples, and figure-regeneration
//! binaries do goes through [`InstanceBuilder`]: it wires the keyring,
//! configuration, network model, honest replicas, and Byzantine strategies
//! into one deterministic simulation and condenses the run into an
//! [`InstanceOutcome`]. [`Network::simulate`] is the set-up both this
//! builder and the SMR harness run on.
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
use crate::config::{ProbftConfig, ProbftConfigBuilder, SharedConfig, View};
use crate::replica::{Decision, Replica, ReplicaStats};
use crate::value::{ValidityPredicate, Value};
use probft_crypto::keyring::{Keyring, PublicKeyring};
use probft_crypto::schnorr::SigningKey;
use probft_quorum::ReplicaId;
use probft_simnet::delay::{DelayModel, HealingPartition, Lossy, PartialSynchrony};
use probft_simnet::metrics::{Measurable, MessageMetrics};
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Per-instance event budget: generous enough for hundreds of views.
const MAX_EVENTS: u64 = 20_000_000;
/// The post-GST delay bound Δ, in ticks.
const POST_GST_DELAY: u64 = 100;

/// A consensus protocol the harness runs, implemented by its honest
/// replica: what the harness reads from an honest replica, and how it
/// builds each replica of an instance.
pub trait Protocol: Process<Message: Measurable + Clone> + fmt::Debug + Sized {
    /// The Byzantine replica.
    type Byzantine: Process<Message = Self::Message> + fmt::Debug;
    /// The behaviours a Byzantine replica can be given.
    type Strategy: Clone + fmt::Debug;

    /// The configuration an `n`-replica instance starts from.
    fn config(n: usize) -> ProbftConfigBuilder {
        ProbftConfig::builder(n)
    }

    /// Builds the honest replica for `seat`.
    fn honest(seat: Seat) -> Self;

    /// Builds the Byzantine replica for `seat`.
    fn byzantine(seat: Seat, strategy: Self::Strategy) -> Self::Byzantine;

    /// The decision, if one has been reached.
    fn decision(&self) -> Option<&Decision>;

    /// Whether the decide rule fired for two different values.
    fn has_conflicting_decision(&self) -> bool;

    /// The view the replica currently occupies.
    fn current_view(&self) -> View;

    /// Run counters.
    fn stats(&self) -> &ReplicaStats;
}

/// Everything one replica of an instance is built from.
#[derive(Debug)]
pub struct Seat {
    /// The instance's configuration.
    pub cfg: SharedConfig,
    /// The replica's identifier.
    pub id: ReplicaId,
    /// The replica's signing key.
    pub sk: SigningKey,
    /// Every replica's public keys.
    pub keys: Arc<PublicKeyring>,
    /// The Byzantine replicas of the instance.
    pub faulty: Arc<BTreeSet<ReplicaId>>,
    /// The view every replica opens the instance in.
    pub start_view: View,
}

impl Seat {
    /// The value this replica proposes when it leads.
    pub fn value(&self) -> Value {
        Value::from_tag(self.id.index() as u64)
    }
}

impl Protocol for Replica {
    type Byzantine = ByzantineReplica;
    type Strategy = ByzantineStrategy;

    fn honest(seat: Seat) -> Self {
        let value = seat.value();
        Replica::new(seat.cfg, seat.id, seat.sk, seat.keys, value).starting_in(seat.start_view)
    }

    fn byzantine(seat: Seat, strategy: ByzantineStrategy) -> ByzantineReplica {
        ByzantineReplica::new(seat.cfg, seat.id, seat.sk, seat.keys, seat.faulty, strategy)
            .starting_in(seat.start_view)
    }

    fn decision(&self) -> Option<&Decision> {
        Replica::decision(self)
    }

    fn has_conflicting_decision(&self) -> bool {
        Replica::has_conflicting_decision(self)
    }

    fn current_view(&self) -> View {
        Replica::current_view(self)
    }

    fn stats(&self) -> &ReplicaStats {
        Replica::stats(self)
    }
}

/// A simulated protocol participant: an honest replica or a Byzantine one.
#[derive(Debug)]
pub enum InstanceNode<P: Protocol> {
    /// A correct replica.
    Honest(Box<P>),
    /// A faulty replica following a fixed Byzantine strategy.
    Byzantine(Box<P::Byzantine>),
}

/// A ProBFT participant.
pub type Node = InstanceNode<Replica>;

impl<P: Protocol> InstanceNode<P> {
    /// Whether this node runs the honest protocol.
    pub fn is_honest(&self) -> bool {
        matches!(self, InstanceNode::Honest(_))
    }

    /// The honest replica, if this node is honest.
    pub fn as_honest(&self) -> Option<&P> {
        match self {
            InstanceNode::Honest(r) => Some(r),
            InstanceNode::Byzantine(_) => None,
        }
    }

    /// The decision of an honest node (Byzantine nodes never "decide").
    pub fn decision(&self) -> Option<&Decision> {
        self.as_honest().and_then(P::decision)
    }
}

impl<P: Protocol> Process for InstanceNode<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Message>) {
        match self {
            InstanceNode::Honest(r) => r.on_start(ctx),
            InstanceNode::Byzantine(b) => b.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: P::Message, ctx: &mut Context<'_, P::Message>) {
        match self {
            InstanceNode::Honest(r) => r.on_message(from, msg, ctx),
            InstanceNode::Byzantine(b) => b.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, P::Message>) {
        match self {
            InstanceNode::Honest(r) => r.on_timer(token, ctx),
            InstanceNode::Byzantine(b) => b.on_timer(token, ctx),
        }
    }
}

/// The simulated network of a harness run: partial synchrony with delays
/// in `[1, pre_gst_max_delay]` before GST and `[1, Δ = 100]` after it,
/// optionally partitioned until a heal and lossy.
#[derive(Clone, Debug)]
pub struct Network {
    /// Seeds the keyring and the simulator: runs are deterministic per
    /// seed.
    pub seed: u64,
    /// The global stabilization time (0: synchronous from the start).
    pub gst: SimTime,
    /// The largest pre-GST message delay (adversarial asynchrony).
    pub pre_gst_max_delay: SimDuration,
    /// Probability that a message is dropped.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice.
    pub dup_prob: f64,
    /// Partition group per replica, and when the partition heals.
    pub partition: Option<(Vec<u8>, SimTime)>,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            seed: 0,
            gst: SimTime::ZERO,
            pre_gst_max_delay: SimDuration::from_ticks(30_000),
            drop_prob: 0.0,
            dup_prob: 0.0,
            partition: None,
        }
    }
}

impl Network {
    /// The delay model: the partition wraps partial synchrony, and the
    /// lossy links wrap that only when a probability is non-zero.
    fn delay_model(&self) -> Box<dyn DelayModel> {
        let sync = PartialSynchrony::new(
            self.gst,
            SimDuration::from_ticks(1),
            self.pre_gst_max_delay,
            SimDuration::from_ticks(1),
            SimDuration::from_ticks(POST_GST_DELAY),
        );
        let base: Box<dyn DelayModel> = match self.partition.clone() {
            Some((groups, heal_at)) => Box::new(HealingPartition::new(sync, groups, heal_at)),
            None => Box::new(sync),
        };
        if self.drop_prob > 0.0 || self.dup_prob > 0.0 {
            Box::new(Lossy::new(base, self.drop_prob, self.dup_prob))
        } else {
            base
        }
    }

    /// Builds and runs one simulated cluster of `n` replicas: keys from
    /// the seed, one process per replica in id order (built by
    /// `replica`), the `crashed` replicas crashed before the start. Runs
    /// until every other replica is `done` or `max_events` ran out.
    pub fn simulate<N>(
        &self,
        n: usize,
        crashed: &BTreeSet<ReplicaId>,
        max_events: u64,
        mut replica: impl FnMut(ReplicaId, SigningKey, &Arc<PublicKeyring>) -> N,
        done: impl Fn(&N) -> bool,
    ) -> (Simulation<N>, RunOutcome)
    where
        N: Process<Message: Measurable + Clone>,
    {
        let keyring = Keyring::generate(n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());
        let mut sim = Simulation::new(self.delay_model(), self.seed);
        for i in 0..n {
            let sk = keyring.signing_key(i).expect("index in range").clone();
            sim.add_process(replica(ReplicaId::from(i), sk, &public));
        }
        for id in crashed {
            sim.crash(ProcessId(id.index()));
        }
        let watched: Vec<ProcessId> = (0..n)
            .filter(|&i| !crashed.contains(&ReplicaId::from(i)))
            .map(ProcessId)
            .collect();
        let all_done = move |s: &Simulation<N>| watched.iter().all(|&p| done(s.process(p)));
        let run_outcome = sim.run_until_condition(all_done, max_events);
        (sim, run_outcome)
    }
}

/// Builds and runs a single consensus instance of protocol `P` (ProBFT
/// unless set otherwise).
#[derive(Debug)]
pub struct InstanceBuilder<P: Protocol = Replica> {
    config: ProbftConfigBuilder,
    network: Network,
    start_view: View,
    byzantine: BTreeMap<ReplicaId, P::Strategy>,
}

impl InstanceBuilder<Replica> {
    /// Starts building a ProBFT instance with `n` replicas (all honest,
    /// GST = 0).
    pub fn new(n: usize) -> Self {
        Self::for_protocol(n)
    }

    /// Sets the quorum multiplier `l`.
    pub fn quorum_multiplier(mut self, l: f64) -> Self {
        self.config = self.config.quorum_multiplier(l);
        self
    }

    /// Sets the overprovision factor `o`.
    pub fn overprovision(mut self, o: f64) -> Self {
        self.config = self.config.overprovision(o);
        self
    }

    /// Opens every replica directly in `view` instead of view 1 (the
    /// entry point an SMR slot uses to open in the cluster's current
    /// view); Byzantine strategies attack that view.
    pub fn start_view(mut self, view: View) -> Self {
        self.start_view = view;
        self
    }
}

impl<P: Protocol> InstanceBuilder<P> {
    /// Starts building an instance of protocol `P` with `n` replicas (all
    /// honest, GST = 0): `InstanceBuilder::<PbftReplica>::for_protocol(n)`.
    pub fn for_protocol(n: usize) -> Self {
        InstanceBuilder {
            config: P::config(n),
            network: Network::default(),
            start_view: View::FIRST,
            byzantine: BTreeMap::new(),
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.network.seed = seed;
        self
    }

    /// Sets the global stabilization time (default 0: synchronous run).
    pub fn gst(mut self, gst: SimTime) -> Self {
        self.network.gst = gst;
        self
    }

    /// Sets the maximum pre-GST message delay (adversarial asynchrony).
    pub fn pre_gst_max_delay(mut self, d: SimDuration) -> Self {
        self.network.pre_gst_max_delay = d;
        self
    }

    /// Assigns a Byzantine strategy to replica `id`.
    pub fn byzantine(mut self, id: ReplicaId, strategy: P::Strategy) -> Self {
        self.byzantine.insert(id, strategy);
        self
    }

    /// Sets the application validity predicate (default: accept all).
    pub fn validity(mut self, validity: ValidityPredicate) -> Self {
        self.config = self.config.validity(validity);
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
        self.network.drop_prob = drop_prob;
        self.network.dup_prob = dup_prob;
        self
    }

    /// Splits the network into partition groups (one group id per
    /// replica) that heal at `heal_at`. Cross-group messages are withheld
    /// until the heal — a robustness scenario beyond the paper's
    /// sender-oblivious scheduler.
    pub fn partition(mut self, groups: Vec<u8>, heal_at: SimTime) -> Self {
        self.network.partition = Some((groups, heal_at));
        self
    }

    /// Builds the configuration this instance will run with.
    pub fn config(&self) -> ProbftConfig {
        self.config.clone().build()
    }

    /// Runs the instance to completion (all correct replicas decided) or
    /// until the event budget runs out.
    pub fn run(self) -> InstanceOutcome {
        let cfg: SharedConfig = Arc::new(self.config());
        let faulty: Arc<BTreeSet<ReplicaId>> = Arc::new(self.byzantine.keys().copied().collect());
        let (sim, run_outcome) = self.network.simulate(
            cfg.n(),
            &BTreeSet::new(),
            MAX_EVENTS,
            |id, sk, keys| {
                let seat = Seat {
                    cfg: cfg.clone(),
                    id,
                    sk,
                    keys: keys.clone(),
                    faulty: faulty.clone(),
                    start_view: self.start_view,
                };
                match self.byzantine.get(&id) {
                    Some(s) => InstanceNode::Byzantine(Box::new(P::byzantine(seat, s.clone()))),
                    None => InstanceNode::Honest(Box::new(P::honest(seat))),
                }
            },
            |node: &InstanceNode<P>| !node.is_honest() || node.decision().is_some(),
        );
        InstanceOutcome::collect(&sim, run_outcome)
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
    fn collect<P: Protocol>(sim: &Simulation<InstanceNode<P>>, run_outcome: RunOutcome) -> Self {
        let mut decisions = BTreeMap::new();
        let mut undecided = Vec::new();
        let mut safety_violated = false;
        let mut equivocation_detections = 0;
        let mut max_view = View::NONE;

        for (pid, node) in sim.processes() {
            let Some(replica) = node.as_honest() else {
                continue;
            };
            let id = ReplicaId::from(pid.index());
            max_view = max_view.max(replica.current_view());
            equivocation_detections += replica.stats().equivocations_detected;
            safety_violated |= replica.has_conflicting_decision();
            match replica.decision() {
                Some(d) => {
                    decisions.insert(id, d.clone());
                }
                None => undecided.push(id),
            }
        }

        let mut outcome = InstanceOutcome {
            decisions,
            undecided,
            safety_violated,
            equivocation_detections,
            max_view,
            metrics: sim.metrics().clone(),
            finished_at: sim.now(),
            run_outcome,
        };
        // Pairwise agreement across honest deciders.
        outcome.safety_violated |= outcome.distinct_decided_values() > 1;
        outcome
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
