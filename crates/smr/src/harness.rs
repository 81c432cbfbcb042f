//! Harness for replicated-state-machine experiments.

use crate::checkpoint::CheckpointStats;
use crate::kv::KvStore;
use crate::machine::{Entry, StateMachine};
use crate::node::{SmrNode, SmrSettings};
use probft_core::config::{ProbftConfig, SharedConfig};
use probft_crypto::keyring::Keyring;
use probft_crypto::sha256::Digest;
use probft_quorum::ReplicaId;
use probft_simnet::delay::PartialSynchrony;
use probft_simnet::metrics::{MessageMetrics, ThroughputStats};
use probft_simnet::process::ProcessId;
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Builds and runs an SMR cluster ordering a shared workload against any
/// [`StateMachine`] (the default is the reference [`KvStore`]).
#[derive(Debug)]
pub struct SmrBuilder<S: StateMachine = KvStore> {
    n: usize,
    seed: u64,
    workloads: BTreeMap<ReplicaId, Vec<S::Op>>,
    silent: BTreeSet<ReplicaId>,
    settings: SmrSettings,
    max_events: u64,
}

impl SmrBuilder<KvStore> {
    /// Starts building an `n`-replica KV cluster that stops after
    /// `target_len` entries are applied everywhere. Defaults to a
    /// pipeline depth of 4 and one entry per batch.
    pub fn new(n: usize, target_len: usize) -> Self {
        Self::for_machine(n, target_len)
    }
}

impl<S: StateMachine> SmrBuilder<S> {
    /// Starts building an `n`-replica cluster replicating an arbitrary
    /// [`StateMachine`] `S` (`SmrBuilder::<MyMachine>::for_machine(..)`).
    pub fn for_machine(n: usize, target_len: usize) -> Self {
        SmrBuilder {
            n,
            seed: 0,
            workloads: BTreeMap::new(),
            silent: BTreeSet::new(),
            settings: SmrSettings {
                target_len,
                pipeline_depth: 4,
                batch_size: 1,
                lazy_open: false,
                checkpoint_interval: 0,
                adaptive_batching: false,
                max_pending: 0,
            },
            max_events: 50_000_000,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many slots run consensus concurrently (1 = sequential).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.settings.pipeline_depth = depth.max(1);
        self
    }

    /// Sets how many pending entries a proposer packs per slot.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.settings.batch_size = batch.max(1);
        self
    }

    /// Sizes batches from the observed pending-queue depth instead of
    /// the static `batch_size` cap (off by default in the sim harness,
    /// which predates the adaptive loop and keeps batch boundaries
    /// reproducible for slot-level assertions).
    pub fn adaptive_batching(mut self, on: bool) -> Self {
        self.settings.adaptive_batching = on;
        self
    }

    /// Takes a checkpoint every `interval` applied slots (0 disables —
    /// the default). Stable checkpoints truncate each replica's resident
    /// command log, so long runs hold O(interval × batch) entries instead
    /// of the full history.
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.settings.checkpoint_interval = interval;
        self
    }

    /// Queues `ops` at replica `id` (proposed when it leads a slot).
    pub fn workload(mut self, id: ReplicaId, ops: Vec<S::Op>) -> Self {
        self.workloads.insert(id, ops);
        self
    }

    /// Makes replica `id` silent for the whole run: it never starts,
    /// sends nothing, and drops everything it receives (a crashed
    /// replica). The run then ends when every *other* replica applied
    /// `target_len` entries, and the outcome's consistency checks skip
    /// it.
    pub fn silent(mut self, id: ReplicaId) -> Self {
        self.silent.insert(id);
        self
    }

    /// Runs the cluster until every non-silent replica applied
    /// `target_len` entries.
    ///
    /// The target must not exceed the workload queued at the replica
    /// that leads the cluster (replica 0, or the next live replica when
    /// the leaders before it are [`silent`](Self::silent)): slots with
    /// nothing pending decide *empty* batches, which keep the pipeline
    /// moving but never grow the log, and no other replica's queue is
    /// ever proposed — an over-sized target burns the whole event budget
    /// without completing.
    pub fn run(self) -> SmrOutcome<S> {
        let cfg: SharedConfig = Arc::new(
            ProbftConfig::builder(self.n)
                .base_timeout(SimDuration::from_ticks(50_000))
                .build(),
        );
        let keyring = Keyring::generate(self.n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());

        let network =
            PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(100));
        let mut sim: Simulation<SmrNode<S>> = Simulation::new(network, self.seed);
        for i in 0..self.n {
            let id = ReplicaId::from(i);
            let workload = self.workloads.get(&id).cloned().unwrap_or_default();
            sim.add_process(SmrNode::new(
                cfg.clone(),
                id,
                keyring.signing_key(i).expect("in range").clone(),
                public.clone(),
                workload,
                self.settings,
            ));
        }

        for id in &self.silent {
            sim.crash(ProcessId(id.index()));
        }
        let live: Vec<ProcessId> = (0..self.n)
            .filter(|&i| !self.silent.contains(&ReplicaId::from(i)))
            .map(ProcessId)
            .collect();
        let watched = live.clone();
        let all_done =
            move |s: &Simulation<SmrNode<S>>| watched.iter().all(|&p| s.process(p).done());
        let run_outcome = sim.run_until_condition(all_done, self.max_events);

        let logs: Vec<Vec<Entry<S::Op>>> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).log().to_vec())
            .collect();
        let states: Vec<S> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).state().clone())
            .collect();
        let resident_slots: Vec<usize> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).resident_slots())
            .collect();
        let dropped_messages: Vec<u64> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).dropped_messages())
            .collect();
        let log_offsets: Vec<u64> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).log_offset())
            .collect();
        let log_digests: Vec<Digest> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).log_digest())
            .collect();
        let checkpoints: Vec<CheckpointStats> = (0..self.n)
            .map(|i| sim.process(ProcessId(i)).checkpoint_stats())
            .collect();

        // Throughput is measured at the first live replica: all correct
        // replicas apply the same slots, so its view is representative of
        // the run.
        let node0 = sim.process(live.first().copied().unwrap_or(ProcessId(0)));
        let throughput = ThroughputStats {
            commands: node0.total_log_len(),
            slots_opened: node0.slots_opened(),
            slots_applied: node0.slots_applied(),
            ticks: sim.now().ticks(),
        };

        SmrOutcome {
            logs,
            states,
            resident_slots,
            dropped_messages,
            log_offsets,
            log_digests,
            checkpoints,
            silent: self.silent,
            metrics: sim.metrics().clone(),
            throughput,
            finished_at: sim.now(),
            run_outcome,
        }
    }
}

/// Whether every element equals its neighbor (vacuously true for empty
/// and single-element slices) — the panic-free replacement for the
/// `windows(2)` + index idiom.
fn all_adjacent_equal<T: PartialEq>(items: &[T]) -> bool {
    items.iter().zip(items.iter().skip(1)).all(|(a, b)| a == b)
}

/// Result of an SMR run.
#[derive(Clone, Debug)]
pub struct SmrOutcome<S: StateMachine = KvStore> {
    /// Per-replica *resident* decided entry logs (the full logs unless
    /// checkpoint truncation ran; see [`log_offsets`](Self::log_offsets)).
    pub logs: Vec<Vec<Entry<S::Op>>>,
    /// Per-replica final application states.
    pub states: Vec<S>,
    /// Per-replica count of consensus instances still heap-resident at the
    /// end of the run (bounded by the pipeline depth: applied slots are
    /// pruned).
    pub resident_slots: Vec<usize>,
    /// Per-replica count of rejected messages: bounded future-slot
    /// buffer drops plus invalid checkpoint traffic (zero in honest
    /// runs).
    pub dropped_messages: Vec<u64>,
    /// Per-replica count of entries truncated below the stable checkpoint
    /// (all zero with checkpointing disabled).
    pub log_offsets: Vec<u64>,
    /// Per-replica running digest chain over every entry ever applied —
    /// what full-log equality is checked against once truncation makes
    /// resident logs incomparable.
    pub log_digests: Vec<Digest>,
    /// Per-replica checkpoint / truncation / transfer counters.
    pub checkpoints: Vec<CheckpointStats>,
    /// Replicas that were silent for the run; the consistency checks
    /// skip them.
    pub silent: BTreeSet<ReplicaId>,
    /// Message metrics.
    pub metrics: MessageMetrics,
    /// Commands/slots/ticks throughput accounting (measured at replica 0).
    pub throughput: ThroughputStats,
    /// Virtual completion time.
    pub finished_at: SimTime,
    /// Loop exit reason.
    pub run_outcome: RunOutcome,
}

impl<S: StateMachine> SmrOutcome<S> {
    /// Per-replica *total* log length: truncated plus resident entries.
    pub fn total_log_lens(&self) -> Vec<u64> {
        self.logs
            .iter()
            .zip(&self.log_offsets)
            .map(|(log, offset)| offset.saturating_add(log.len() as u64))
            .collect()
    }

    /// The entries of a per-replica vector that belong to non-silent
    /// replicas.
    fn live<'a, T>(&self, items: &'a [T]) -> Vec<&'a T> {
        items
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.silent.contains(&ReplicaId::from(*i)))
            .map(|(_, item)| item)
            .collect()
    }

    /// Whether all non-silent replicas hold the identical logical log.
    /// Compared via total length plus the running SHA-256 entry chain, so
    /// replicas that truncated different prefixes behind stable
    /// checkpoints still compare over their *full* histories, not just
    /// the resident suffixes.
    pub fn logs_consistent(&self) -> bool {
        all_adjacent_equal(&self.live(&self.total_log_lens()))
            && all_adjacent_equal(&self.live(&self.log_digests))
    }

    /// Whether all non-silent replicas reached identical application
    /// state.
    pub fn states_consistent(&self) -> bool {
        all_adjacent_equal(&self.live(&self.states))
    }

    /// The first non-silent replica's resident log, if all logs agree
    /// (the full agreed log when nothing was truncated).
    pub fn agreed_log(&self) -> Option<&[Entry<S::Op>]> {
        if self.logs_consistent() {
            self.live(&self.logs).first().map(|l| l.as_slice())
        } else {
            None
        }
    }
}
