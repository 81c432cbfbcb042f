//! State-machine replication by pipelining batched ProBFT instances.
//!
//! The paper's future work (§7) proposes "leveraging ProBFT for
//! constructing a scalable state machine replication protocol". This module
//! is that construction grown into a throughput engine over a *generic*
//! [`StateMachine`]: one ProBFT consensus instance per log slot, where
//!
//! * **batching** — each decided [`Value`] carries a [`Batch`] of
//!   [`Entry`]s (opaque operations plus client tags), so one consensus
//!   round amortises over many operations, and
//! * **pipelining** — up to [`SmrSettings::pipeline_depth`] slots run
//!   concurrently. Decisions may arrive out of slot order; they are
//!   buffered and applied to the state machine strictly in order, so the
//!   replicated state is identical to a sequential (`depth = 1`) run.
//!
//! Each [`SmrNode`] hosts the per-slot [`Replica`] state machines and
//! multiplexes their traffic over one simulated (or real) network by
//! wrapping every message in a [`SlotMessage`]. The composition reuses the
//! unmodified single-shot replica via the simulator's embedding API
//! ([`Context::detached`] + [`Context::drain_actions`]): the SMR layer is
//! *pure orchestration*, so any fix to the consensus core is inherited
//! here.
//!
//! All slots share one *cluster view* ([`SmrNode::cluster_view`]): a
//! fresh slot opens directly in the view the cluster last worked in, so a
//! crashed leader costs the cluster one view change, not one per slot. A
//! replica that fell behind asks its peers for what it missed: the stable
//! checkpoint, plus their retained signed messages for the slots above it
//! (see DESIGN.md, "Cluster view and laggard catch-up").
//!
//! Applying an entry yields the machine's typed
//! [`Response`](StateMachine::Response), which is recorded per client (the
//! reply cache behind at-most-once retries) and surfaced through
//! [`SmrNode::drain_applied`] so the embedding runtime can answer the
//! submitting client with the actual result, not a bare acknowledgement.

use crate::checkpoint::{
    CheckpointStats, CheckpointVote, Snapshot, StableCheckpoint, StateReply, StateRequest,
};
use crate::machine::{Batch, Entry, OpKind, RequestId, StateMachine, MAX_BATCH};
use probft_core::config::{SharedConfig, View};
use probft_core::message::{Message, VerifyCtx};
use probft_core::replica::Replica;
use probft_core::value::Value;
use probft_core::wire::{put, Reader, Wire, WireError};
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::{Digest, Sha256};
use probft_obs::{Counter, Obs, TraceKind};
use probft_quorum::ReplicaId;
use probft_simnet::metrics::Measurable;
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A consensus message tagged with its log slot.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotMessage {
    /// The log slot this message belongs to.
    pub slot: u64,
    /// The inner single-shot ProBFT message.
    pub inner: Message,
}

impl Measurable for SlotMessage {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn wire_size(&self) -> usize {
        8 + self.inner.to_wire_bytes().len()
    }
}

impl Wire for SlotMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.slot);
        self.inner.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let slot = r.u64()?;
        let inner = Message::decode(r)?;
        Ok(SlotMessage { slot, inner })
    }
}

/// Everything one [`SmrNode`] says to another: per-slot consensus traffic
/// plus the checkpoint subsystem's attestations and snapshot transfers.
/// The simulator delivers these directly; the live runtime maps each
/// variant onto its own self-describing `SmrFrame`.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrMessage {
    /// Slot-tagged single-shot consensus traffic.
    Slot(SlotMessage),
    /// A signed checkpoint attestation.
    CheckpointVote(CheckpointVote),
    /// A laggard asking for a stable-checkpoint snapshot.
    StateRequest(StateRequest),
    /// A stable-checkpoint snapshot in flight to a laggard.
    StateReply(StateReply),
}

impl Measurable for SmrMessage {
    fn kind(&self) -> &'static str {
        match self {
            SmrMessage::Slot(m) => m.kind(),
            SmrMessage::CheckpointVote(_) => "checkpoint-vote",
            SmrMessage::StateRequest(_) => "state-request",
            SmrMessage::StateReply(_) => "state-reply",
        }
    }
    fn wire_size(&self) -> usize {
        1 + match self {
            SmrMessage::Slot(m) => m.wire_size(),
            SmrMessage::CheckpointVote(v) => v.to_wire_bytes().len(),
            SmrMessage::StateRequest(r) => r.to_wire_bytes().len(),
            SmrMessage::StateReply(r) => r.to_wire_bytes().len(),
        }
    }
}

/// Replication parameters shared by every node of a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmrSettings {
    /// Stop opening new slots once this many entries are applied.
    pub target_len: usize,
    /// How many slots may run consensus concurrently (≥ 1; 1 reproduces
    /// the strictly sequential chain).
    pub pipeline_depth: usize,
    /// Most entries a proposer packs into one slot's batch (≥ 1).
    pub batch_size: usize,
    /// Demand-driven slot opening (the live-cluster mode): a node opens a
    /// slot only when it holds pending entries to propose, or when peer
    /// traffic for an in-window slot arrives. With `false` (the simulator
    /// workload mode) slots open eagerly up to the pipeline window until
    /// `target_len` is reached.
    pub lazy_open: bool,
    /// Take a checkpoint every this many applied slots (0 disables the
    /// checkpoint subsystem). With a quorum of matching attestations the
    /// checkpoint becomes *stable*: the command log is truncated below it
    /// and laggards past the buffering horizon catch up by snapshot
    /// transfer instead of log replay.
    pub checkpoint_interval: usize,
    /// Adaptive batching: size each proposed batch from the *observed*
    /// pending-queue depth — targeting a drain of the whole queue across
    /// the slots the pipeline window can still open — instead of always
    /// packing up to the static `batch_size` cap. Under light load
    /// batches stay small (one consensus round per operation, minimal
    /// latency); under a deep queue they grow past `batch_size` up to the
    /// wire cap ([`MAX_BATCH`](crate::MAX_BATCH)), so throughput scales
    /// with offered load instead of collapsing into per-op rounds. The
    /// choice is proposer-local (followers decide on whatever value was
    /// proposed), so it never affects cross-replica agreement.
    pub adaptive_batching: bool,
    /// Admission control: most entries the pending queue may hold before
    /// the node reports itself [`overloaded`](SmrNode::overloaded)
    /// (0 = unbounded). The live runtime sheds client submissions with an
    /// explicit `Overloaded` reply at that point instead of queueing
    /// without bound and collapsing.
    pub max_pending: usize,
}

impl SmrSettings {
    /// Sequential, one-entry-per-slot replication of `target_len`
    /// entries — the baseline configuration.
    pub fn sequential(target_len: usize) -> Self {
        SmrSettings {
            target_len,
            pipeline_depth: 1,
            batch_size: 1,
            lazy_open: false,
            checkpoint_interval: 0,
            adaptive_batching: false,
            max_pending: 0,
        }
    }

    /// Open-ended, demand-driven replication for a live cluster serving
    /// client traffic: no target length, slots open only for what actually
    /// arrived. Checkpointing starts disabled; set
    /// [`checkpoint_interval`](Self::checkpoint_interval) to bound the
    /// resident log.
    pub fn live(pipeline_depth: usize, batch_size: usize) -> Self {
        SmrSettings {
            target_len: usize::MAX,
            pipeline_depth,
            batch_size,
            lazy_open: true,
            checkpoint_interval: 0,
            adaptive_batching: true,
            max_pending: 0,
        }
        .normalized()
    }

    fn normalized(mut self) -> Self {
        self.pipeline_depth = self.pipeline_depth.max(1);
        self.batch_size = self.batch_size.max(1);
        self
    }

    /// How many slots ahead of the lowest unapplied slot this node
    /// buffers traffic for. With checkpointing enabled the horizon is
    /// tight — anyone dropped beyond it recovers by snapshot state
    /// transfer. Without it there is no recovery path for a stranded
    /// laggard (peers prune decided slots and never retransmit), so the
    /// wide pre-checkpointing slack is kept.
    pub fn future_window(&self) -> u64 {
        let depth = self.pipeline_depth as u64;
        if self.checkpoint_interval == 0 {
            (depth * FALLBACK_FUTURE_WINDOW_DEPTHS).max(FALLBACK_MIN_FUTURE_WINDOW)
        } else {
            (depth * FUTURE_WINDOW_DEPTHS).max(MIN_FUTURE_WINDOW)
        }
    }
}

/// Most messages buffered for any single not-yet-opened slot. Honest
/// replicas send a small constant number of messages per slot per view;
/// anything past this is a misbehaving peer flooding one slot.
pub const MAX_BUFFERED_PER_SLOT: usize = 1024;

/// How many slots ahead of the lowest unapplied slot a node accepts
/// buffered traffic for, as a multiple of the pipeline depth (with a
/// floor, so shallow pipelines still tolerate honest skew) — when
/// checkpointing is enabled. Peers can transiently run ahead of a
/// lagging replica — their quorums need not include the laggard — so one
/// extra pipeline window of slack absorbs honest skew; beyond that, the
/// sender is either Byzantine (spraying far-future slot numbers) or far
/// enough ahead that the laggard recovers by checkpoint state transfer,
/// so the message is dropped and counted instead of growing memory.
pub const FUTURE_WINDOW_DEPTHS: u64 = 2;

/// Floor for the buffering horizon in slots, with checkpointing enabled.
pub const MIN_FUTURE_WINDOW: u64 = 8;

/// The buffering horizon multiple with checkpointing *disabled*: no
/// state transfer exists, so dropping honest in-horizon traffic would
/// strand a laggard forever — the horizon errs wide, as it did before
/// the checkpoint subsystem.
pub const FALLBACK_FUTURE_WINDOW_DEPTHS: u64 = 4;

/// Floor for the buffering horizon in slots, with checkpointing
/// disabled.
pub const FALLBACK_MIN_FUTURE_WINDOW: u64 = 16;

/// Most own messages a node retains per slot for retransmission. An
/// honest replica signs at most one Propose, Prepare and Commit per view,
/// so this keeps the last few views of a slot; older ones are evicted
/// first.
const MAX_RETAINED_PER_SLOT: usize = 9;

/// Most distinct checkpoint slots a node tracks attestations for. Honest
/// clusters have votes in flight for one or two boundaries; a Byzantine
/// peer spraying far-future checkpoint slots (each costing it one signed
/// vote) hits this cap and evicts its own least-supported slots first.
pub const MAX_TRACKED_CHECKPOINT_SLOTS: usize = 64;

/// Most locally-taken checkpoints retained while awaiting stability; if
/// attestation quorums lag by more than this many intervals, the oldest
/// unstable snapshot is discarded (it can be rebuilt from newer ones).
const MAX_PENDING_CHECKPOINTS: usize = 4;

/// Hard ceiling on the locally pending (submitted but unproposed) entry
/// queue, enforced at the push site. Admission control
/// ([`SmrNode::overloaded`] against the configurable
/// `SmrSettings::max_pending`) is the *caller's* shedding policy and can
/// be disabled; this cap is the node's own memory bound and cannot.
pub const MAX_PENDING_ENTRIES: usize = 65_536;

/// A locally produced checkpoint awaiting a stability quorum.
struct OwnCheckpoint {
    digest: Digest,
    /// Total log entries at the checkpoint (the truncation mark).
    log_len: u64,
    /// The encoded [`Snapshot`].
    bytes: Vec<u8>,
}

/// Notification that a client-tagged entry reached the applied log —
/// drained by the embedding runtime to answer the submitting client with
/// the typed response.
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedRequest<R> {
    /// The request that was applied.
    pub request: RequestId,
    /// The log slot whose batch carried it.
    pub slot: u64,
    /// Whether the operation executed against the state machine. `false`
    /// means this decided entry was a duplicate of an already-applied
    /// request (a client retry that got ordered twice) and was skipped —
    /// the at-most-once guarantee in action. The `response` is then the
    /// cached result of the original execution.
    pub executed: bool,
    /// What the operation returned.
    pub response: R,
}

/// A replica of the replicated state machine, generic over the
/// application [`StateMachine`] it hosts.
pub struct SmrNode<S: StateMachine> {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    keys: Arc<PublicKeyring>,
    /// Entries this node wants ordered, proposed in batches when this
    /// node leads a slot.
    pending: VecDeque<Entry<S::Op>>,
    settings: SmrSettings,

    /// Per-slot consensus instances still in flight. Applied slots are
    /// pruned immediately (only the log and machine state survive), so
    /// this map never holds more than `pipeline_depth` replicas.
    slots: BTreeMap<u64, Replica>,
    /// Messages for in-window slots that have not started here yet.
    /// Bounded: only slots inside the pipeline window ahead of the lowest
    /// unapplied slot are buffered, and each slot buffers at most
    /// [`MAX_BUFFERED_PER_SLOT`] messages.
    future: BTreeMap<u64, Vec<Message>>,
    /// Messages rejected: outside the buffering window (far-future slot
    /// spray, stale slots), over the per-slot cap, or invalid checkpoint
    /// traffic (forged/misaligned votes, unverifiable state replies,
    /// vote-table evictions, attested-digest disagreement).
    dropped_messages: u64,
    /// The lowest slot whose decision has not been applied yet.
    next_apply: u64,
    /// The next slot index to open (slots `next_apply..next_open` are in
    /// flight).
    next_open: u64,
    /// The cluster view: the view every fresh slot opens in, and whose
    /// leader redirected clients are pointed at. Monotone. It rises to
    /// the view of every applied decision and, by the f+1 rule, to any
    /// view that `f + 1` distinct peers were seen working in; undecided
    /// resident slots then move into it.
    cluster_view: View,
    /// Per peer: the highest view of a verified Propose, Prepare, Commit
    /// or NewLeader it signed. Feeds the f+1 rule. Bounded by `n`.
    peer_views: BTreeMap<ReplicaId, View>,
    /// This node's own signed Propose, Prepare and Commit messages per
    /// slot, kept to answer a laggard's [`StateRequest`]. Only slots at or
    /// above the stable checkpoint and at most one future window below
    /// the apply frontier are kept, each with at most
    /// [`MAX_RETAINED_PER_SLOT`] messages.
    retained: BTreeMap<u64, Vec<Message>>,
    /// `(slot, peer)` pairs already answered from `retained`: each peer
    /// gets a slot's messages at most once. Pruned with `retained`.
    resent: BTreeSet<(u64, u32)>,
    /// The apply frontier this node last asked its peers to fill, and
    /// when: at most one ask per base timeout for the same frontier.
    last_catch_up: Option<(u64, SimTime)>,
    /// Outer timer token → (slot, inner token). Tokens are allocated from
    /// a counter, so concurrent slots can never collide regardless of how
    /// large the inner (view-carrying) tokens grow.
    timers: BTreeMap<u64, (u64, TimerToken)>,
    next_timer: u64,
    /// Decided entries in slot order — the *resident* suffix of the
    /// logical log: entries below the stable checkpoint are truncated and
    /// survive only in `log_offset`/`log_digest` and the snapshot.
    log: Vec<Entry<S::Op>>,
    /// Entries truncated below the stable checkpoint (the resident log's
    /// global starting index).
    log_offset: u64,
    /// Running SHA-256 chain over every entry ever applied. Two replicas
    /// with equal `(log_offset + log.len(), log_digest)` hold the
    /// identical logical log, however differently they truncated.
    log_digest: Digest,
    /// Locally taken checkpoints awaiting a stability quorum, by slot.
    own_checkpoints: BTreeMap<u64, OwnCheckpoint>,
    /// Checkpoint attestations by slot, one vote per replica (first one
    /// wins — a Byzantine double-vote never counts twice). The full
    /// signed votes are kept, so a stability quorum doubles as a
    /// transferable *certificate*. Bounded by
    /// [`MAX_TRACKED_CHECKPOINT_SLOTS`] slots of at most `n` votes each.
    votes: BTreeMap<u64, BTreeMap<ReplicaId, CheckpointVote>>,
    /// Per peer: the stable-checkpoint slot last sent to it (serving a
    /// [`StateRequest`] or pushing after observing sub-checkpoint
    /// traffic). Caps snapshot sends at one per peer per stable
    /// checkpoint — a forged request cannot reflect more than one
    /// snapshot per checkpoint at a victim. Bounded by `n`.
    served_checkpoints: BTreeMap<u32, u64>,
    /// The highest checkpoint this node saw become stable, with its
    /// snapshot (served to laggards on [`StateRequest`]).
    stable: Option<StableCheckpoint>,
    /// A stable checkpoint known to exist beyond this node's pipeline
    /// window — state transfer has been requested and not yet completed.
    transfer_wanted: Option<(u64, Digest)>,
    /// Checkpoint / truncation / transfer counters.
    ckpt_stats: CheckpointStats,
    /// The application state machine.
    state: S,
    /// Per client: the highest applied request sequence number and the
    /// response it produced — the dedup watermark *and* reply cache
    /// behind at-most-once execution of retried client requests. Bounded
    /// by the number of distinct clients (one response each).
    applied_requests: BTreeMap<u64, (u64, S::Response)>,
    /// Apply notifications not yet drained by the embedding runtime.
    applied_events: Vec<AppliedRequest<S::Response>>,
    /// Largest batch this node ever proposed — the observable half of the
    /// adaptive-batching loop (how far past the static cap load pushed
    /// it).
    max_batch_proposed: usize,
    /// Telemetry bundle: metrics registry plus flight-recorder journal
    /// (`probft-obs`). The live runtime attaches a shared handle so the
    /// nemesis and shutdown aggregation see what this node records.
    obs: Arc<Obs>,
    /// Obs-clock micros at which each in-flight slot opened — feeds the
    /// decide/apply latency histograms. Entries live and die with
    /// `slots`, so the map is bounded by the pipeline window.
    opened_at: BTreeMap<u64, u64>,
    /// Obs-clock micros of the previous local checkpoint (drives the
    /// checkpoint-interval histogram).
    last_checkpoint_at: Option<u64>,
    /// Obs-clock micros at which the outstanding state transfer was
    /// requested (drives the state-transfer duration histogram).
    transfer_started_at: Option<u64>,
    rng: StdRng,
}

impl<S: StateMachine> SmrNode<S> {
    /// Creates an SMR node that wants `workload` ordered (as untagged
    /// writes) under the given replication settings.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        workload: Vec<S::Op>,
        settings: SmrSettings,
    ) -> Self {
        let seed = 0xD15C_0000 ^ id.0 as u64;
        SmrNode {
            cfg,
            id,
            sk,
            keys,
            pending: workload.into_iter().map(Entry::write).collect(),
            settings: settings.normalized(),
            slots: BTreeMap::new(),
            future: BTreeMap::new(),
            dropped_messages: 0,
            next_apply: 0,
            next_open: 0,
            cluster_view: View::FIRST,
            peer_views: BTreeMap::new(),
            retained: BTreeMap::new(),
            resent: BTreeSet::new(),
            last_catch_up: None,
            timers: BTreeMap::new(),
            next_timer: 0,
            log: Vec::new(),
            log_offset: 0,
            log_digest: log_genesis(),
            own_checkpoints: BTreeMap::new(),
            votes: BTreeMap::new(),
            served_checkpoints: BTreeMap::new(),
            stable: None,
            transfer_wanted: None,
            ckpt_stats: CheckpointStats::default(),
            state: S::default(),
            applied_requests: BTreeMap::new(),
            applied_events: Vec::new(),
            max_batch_proposed: 0,
            obs: {
                let obs = Obs::new(format!("replica-{}", id.0));
                obs.note_view(View::FIRST.0);
                Arc::new(obs)
            },
            opened_at: BTreeMap::new(),
            last_checkpoint_at: None,
            transfer_started_at: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The *resident* decided entry log: the suffix above the stable
    /// checkpoint (the full log, while nothing has been truncated).
    pub fn log(&self) -> &[Entry<S::Op>] {
        &self.log
    }

    /// Entries truncated below the stable checkpoint — the global index
    /// of `log()[0]`.
    pub fn log_offset(&self) -> u64 {
        self.log_offset
    }

    /// Total entries ever applied: truncated plus resident.
    pub fn total_log_len(&self) -> u64 {
        self.log_offset.saturating_add(self.log.len() as u64)
    }

    /// Running digest chain over every entry ever applied. Equal
    /// `(total_log_len, log_digest)` pairs identify identical logical
    /// logs across replicas that truncated at different checkpoints.
    pub fn log_digest(&self) -> Digest {
        self.log_digest
    }

    /// Checkpoint / truncation / state-transfer counters.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt_stats
    }

    /// The highest checkpoint this node saw become stable, if any.
    pub fn stable_checkpoint(&self) -> Option<&StableCheckpoint> {
        self.stable.as_ref()
    }

    /// The application state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Whether the node has applied its target number of entries.
    pub fn done(&self) -> bool {
        self.total_log_len() >= self.settings.target_len as u64
    }

    /// Slots this node has opened (including in-flight ones).
    pub fn slots_opened(&self) -> u64 {
        self.next_open
    }

    /// Slots decided *and applied* in order.
    pub fn slots_applied(&self) -> u64 {
        self.next_apply
    }

    /// The replication settings this node runs under.
    pub fn settings(&self) -> SmrSettings {
        self.settings
    }

    /// Per-slot consensus instances currently resident on the heap.
    /// Bounded by `pipeline_depth`: decided slots are pruned on apply.
    pub fn resident_slots(&self) -> usize {
        self.slots.len()
    }

    /// Messages rejected by this node: outside the bounded buffering
    /// window, over the per-slot buffer cap, or invalid checkpoint
    /// traffic (forged or misaligned votes, unverifiable state replies,
    /// vote-table evictions, and attested-digest disagreement — the last
    /// signalling this replica diverged from a checkpoint quorum).
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// The telemetry bundle this node records into.
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Replaces the telemetry bundle. The live runtime attaches one it
    /// created up front so fault injection and shutdown aggregation share
    /// the registry and journal this node records into.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        obs.note_view(self.cluster_view.0);
        self.obs = obs;
    }

    /// Bumps the back-compat drop total *and* the attributable registry
    /// counter for one rejected message, so drops stop being conflated.
    fn note_dropped(&mut self, counter: Counter) {
        self.dropped_messages = self.dropped_messages.saturating_add(1);
        counter.inc();
    }

    /// Messages currently buffered for in-window slots not yet open here.
    pub fn buffered_future(&self) -> usize {
        self.future.values().map(Vec::len).sum()
    }

    /// Entries queued locally but not yet proposed into a slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether admission control considers this node overloaded: the
    /// pending queue is at or past [`SmrSettings::max_pending`]. The
    /// embedding runtime checks this before accepting a client submission
    /// and sheds with an explicit `Overloaded` reply instead of letting
    /// the queue (and every queued client's latency) grow without bound.
    /// Always `false` with `max_pending = 0`.
    pub fn overloaded(&self) -> bool {
        self.settings.max_pending > 0 && self.pending.len() >= self.settings.max_pending
    }

    /// The largest batch this node ever proposed — with adaptive batching
    /// this is the observed high-water mark of the queue-depth feedback
    /// loop (it exceeds the static `batch_size` exactly when load did).
    pub fn max_batch_proposed(&self) -> usize {
        self.max_batch_proposed
    }

    /// The replica this node believes currently leads the cluster: the
    /// leader of the cluster view. Clients are redirected here.
    pub fn current_leader(&self) -> ReplicaId {
        self.cfg.leader_of(self.cluster_view)
    }

    /// The cluster view: the view fresh slots open in.
    pub fn cluster_view(&self) -> View {
        self.cluster_view
    }

    /// Whether `request` has already been applied to the state machine
    /// (so a retried submission can be answered without re-ordering it).
    pub fn request_applied(&self, request: RequestId) -> bool {
        self.applied_requests
            .get(&request.client)
            .is_some_and(|(last, _)| *last >= request.seq)
    }

    /// The cached response for an already-applied request, if any — the
    /// reply-cache read path for answering client retries without
    /// re-executing. For a sequential client (one request in flight) the
    /// cache always holds the response of its latest applied request.
    pub fn cached_response(&self, request: RequestId) -> Option<&S::Response> {
        self.applied_requests
            .get(&request.client)
            .filter(|(last, _)| *last >= request.seq)
            .map(|(_, response)| response)
    }

    /// Evaluates `op` read-only against this node's applied state — the
    /// serving path for [`Consistency::Local`](crate::Consistency) and
    /// [`Consistency::Leader`](crate::Consistency) reads. Runs between
    /// whole-batch applies, so the observation is never torn.
    pub fn query(&self, op: &S::Op) -> S::Response {
        self.state.query(op)
    }

    /// Enqueues an entry for ordering and opens a slot for it if the
    /// pipeline window allows. The live runtime calls this on the leader
    /// for each accepted client request (writes *and* linearizable
    /// reads).
    pub fn submit(&mut self, entry: Entry<S::Op>, ctx: &mut Context<'_, SmrMessage>) {
        // An embedding runtime that skips the `overloaded()` admission
        // check must still not grow this queue without bound.
        if self.pending.len() >= MAX_PENDING_ENTRIES {
            self.note_dropped(self.obs.drops_pending_overflow.clone());
            return;
        }
        self.pending.push_back(entry);
        self.obs.pending_depth.set(self.pending.len() as u64);
        self.open_ready_slots(ctx);
    }

    /// Opens one slot on an otherwise idle node (lazy mode only) — the
    /// follower-initiated probe behind the idle-leader-crash case: with no
    /// slot in flight, no view timer runs that could notice the crash. A
    /// follower that keeps being contacted by clients while the leader it
    /// redirects them to stays silent calls this: the probe slot's leader
    /// times out, the view-change machinery runs, and the next decision
    /// raises the cluster view past the dead leader. Proposes whatever is
    /// pending locally (usually an empty batch), so a spurious probe costs
    /// one empty slot, never safety.
    pub fn probe_open(&mut self, ctx: &mut Context<'_, SmrMessage>) -> bool {
        if !self.settings.lazy_open || !self.slots.is_empty() || self.next_open > self.next_apply {
            return false;
        }
        let slot = self.next_open;
        self.next_open = self.next_open.saturating_add(1);
        self.open_slot(slot, ctx);
        true
    }

    /// Removes and returns the apply notifications (with typed responses)
    /// for client-tagged entries since the last drain.
    pub fn drain_applied(&mut self) -> Vec<AppliedRequest<S::Response>> {
        std::mem::take(&mut self.applied_events)
    }

    /// The value this node proposes for the next slot: a batch of pending
    /// entries. With nothing pending the proposal is an *empty* batch — it
    /// keeps the slot progressing without growing the log (the generic
    /// replacement for ordering filler no-ops).
    ///
    /// With static batching the batch packs up to `batch_size` entries.
    /// With [`adaptive_batching`](SmrSettings::adaptive_batching) the size
    /// closes a feedback loop on the observed queue depth instead: each
    /// batch takes `ceil(pending / slots the window can still open)`, so a
    /// short queue spreads across the pipeline in small low-latency
    /// batches while a deep queue drains in batches that grow past the
    /// static cap (up to the wire limit) rather than falling behind one
    /// `batch_size` slice per slot.
    ///
    /// Batches are drained in slot-open order, which is ascending slot
    /// order at every pipeline depth — that invariant is what makes a
    /// pipelined run decide the same value per slot as a sequential one.
    fn next_value(&mut self) -> (Value, usize) {
        let pending = self.pending.len();
        let take = if self.settings.adaptive_batching {
            // `next_value` runs from `open_slot`, after `next_open` was
            // advanced past the slot being opened — so the slots this
            // window can still open, *including* this one, number
            // `next_apply + depth - next_open + 1` (floored at 1: the
            // lazy open-on-peer-traffic path can open a slot the local
            // window would not have).
            let window_left = (self
                .next_apply
                .saturating_add(self.settings.pipeline_depth as u64))
            .saturating_sub(self.next_open)
            .saturating_add(1)
            .max(1) as usize;
            pending.div_ceil(window_left).min(MAX_BATCH as usize)
        } else {
            self.settings.batch_size
        }
        .min(pending);
        self.max_batch_proposed = self.max_batch_proposed.max(take);
        let entries: Vec<Entry<S::Op>> = self.pending.drain(..take).collect();
        self.obs.pending_depth.set(self.pending.len() as u64);
        self.obs.batch_size.record(take as u64);
        (Batch(entries).to_value(), take)
    }

    /// Opens every slot the pipeline window allows. In lazy (live) mode a
    /// slot is only opened while entries are pending locally or peer
    /// traffic for it (or a later slot) was buffered — peers otherwise
    /// open slots on demand when traffic for them arrives.
    fn open_ready_slots(&mut self, ctx: &mut Context<'_, SmrMessage>) {
        loop {
            let open_horizon = self
                .next_apply
                .saturating_add(self.settings.pipeline_depth as u64);
            if self.total_log_len() >= self.settings.target_len as u64
                || self.next_open >= open_horizon
            {
                break;
            }
            if self.settings.lazy_open
                && self.pending.is_empty()
                && self
                    .future
                    .range(self.next_open..open_horizon)
                    .next()
                    .is_none()
            {
                break;
            }
            let slot = self.next_open;
            self.next_open = self.next_open.saturating_add(1);
            self.open_slot(slot, ctx);
        }
    }

    /// Opens slot `slot` in the cluster view and runs its `on_start`.
    fn open_slot(&mut self, slot: u64, ctx: &mut Context<'_, SmrMessage>) {
        let view = self.cluster_view;
        let (value, batched) = self.next_value();
        self.opened_at.insert(slot, self.obs.now_micros());
        self.obs.trace(TraceKind::SlotOpened { slot, view: view.0 });
        if batched > 0 {
            self.obs.trace(TraceKind::BatchFormed {
                slot,
                entries: batched as u64,
            });
        }
        let mut replica = Replica::new(
            self.cfg.clone(),
            self.id,
            self.sk.clone(),
            self.keys.clone(),
            value,
        )
        .starting_in(view);
        let actions = {
            let mut inner = Context::detached(ProcessId(self.id.index()), ctx.now(), &mut self.rng);
            replica.on_start(&mut inner);
            inner.drain_actions()
        };
        self.slots.insert(slot, replica);
        // Past view 1 the slot starts with Algorithm 1's line 5: everyone
        // sends a NewLeader to the leader. The leader also sends its own
        // to every peer, which is what tells a follower the slot exists:
        // it opens the slot and answers with its NewLeader.
        if view > View::FIRST && self.cfg.leader_of(view) == self.id {
            let announce = actions.iter().find_map(|action| match action {
                Action::Send {
                    msg: msg @ Message::NewLeader(_),
                    ..
                } => Some(msg.clone()),
                _ => None,
            });
            if let Some(inner) = announce {
                for peer in self.cfg.all_replicas().filter(|&p| p != self.id) {
                    let inner = inner.clone();
                    ctx.send(
                        ProcessId(peer.index()),
                        SmrMessage::Slot(SlotMessage { slot, inner }),
                    );
                }
            }
        }
        self.relay(slot, actions, ctx);

        // Replay any buffered traffic for this slot.
        if let Some(msgs) = self.future.remove(&slot) {
            for msg in msgs {
                self.dispatch(slot, None, DispatchEvent::Message(msg), ctx);
            }
        }
    }

    /// Translates a slot replica's actions into outer-world actions.
    fn relay(
        &mut self,
        slot: u64,
        actions: Vec<Action<Message>>,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    self.retain(slot, &msg);
                    ctx.send(to, SmrMessage::Slot(SlotMessage { slot, inner: msg }))
                }
                Action::SetTimer { delay, token } => {
                    let outer = self.next_timer;
                    self.next_timer += 1;
                    self.timers.insert(outer, (slot, token));
                    ctx.set_timer(delay, TimerToken(outer));
                }
                Action::Halt => {}
            }
        }
    }

    /// Keeps a copy of this node's own signed Propose, Prepare or Commit
    /// for `slot` (once per kind and view; a multicast relays the same
    /// message to every recipient) for retransmission to laggards.
    fn retain(&mut self, slot: u64, msg: &Message) {
        if matches!(msg, Message::NewLeader(_) | Message::Wish(_)) || msg.signer() != self.id {
            return;
        }
        let kept = self.retained.entry(slot).or_default();
        let kind = std::mem::discriminant(msg);
        if kept
            .iter()
            .any(|m| std::mem::discriminant(m) == kind && m.view() == msg.view())
        {
            return;
        }
        if kept.len() >= MAX_RETAINED_PER_SLOT {
            kept.remove(0);
        }
        kept.push(msg.clone());
    }

    /// Drops retained messages (and their resend marks) for slots below
    /// the stable checkpoint or more than one future window behind the
    /// apply frontier.
    fn prune_retained(&mut self) {
        let floor = self.stable_slot().max(
            self.next_apply
                .saturating_sub(self.settings.future_window()),
        );
        self.retained = self.retained.split_off(&floor);
        self.resent = self.resent.split_off(&(floor, 0));
    }

    /// Feeds one event into a slot replica and handles a resulting
    /// decision.
    fn dispatch(
        &mut self,
        slot: u64,
        from: Option<ProcessId>,
        event: DispatchEvent,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        let Some(replica) = self.slots.get_mut(&slot) else {
            return;
        };
        let already_decided = replica.decision().is_some();
        let actions = {
            let mut inner = Context::detached(ProcessId(self.id.index()), ctx.now(), &mut self.rng);
            match event {
                DispatchEvent::Message(msg) => {
                    let from = from.unwrap_or(ProcessId(self.id.index()));
                    replica.on_message(from, msg, &mut inner);
                }
                DispatchEvent::Timer(token) => replica.on_timer(token, &mut inner),
                DispatchEvent::Advance(view) => replica.advance_to(view, &mut inner),
            }
            inner.drain_actions()
        };
        let newly_decided = !already_decided && replica.decision().is_some();
        self.relay(slot, actions, ctx);
        if newly_decided {
            let view = self
                .slots
                .get(&slot)
                .and_then(|r| r.decision())
                .map_or(0, |d| d.view.0);
            if let Some(&opened) = self.opened_at.get(&slot) {
                self.obs
                    .decide_latency_us
                    .record(self.obs.now_micros().saturating_sub(opened));
            }
            self.obs.trace(TraceKind::SlotDecided { slot, view });
        }

        // Out-of-order decisions (slot > next_apply) stay buffered in their
        // replica until the gap closes; only the in-order frontier advances
        // the applied log.
        if newly_decided && slot == self.next_apply {
            self.advance(ctx);
        }
    }

    /// Applies decided slots in order, prunes their consensus state, and
    /// refills the pipeline window. Every `checkpoint_interval` applied
    /// slots the node snapshots its state and broadcasts an attestation.
    fn advance(&mut self, ctx: &mut Context<'_, SmrMessage>) {
        while self.total_log_len() < self.settings.target_len as u64 {
            let Some(decision) = self.slots.get(&self.next_apply).and_then(|r| r.decision()) else {
                break;
            };
            let decided_view = decision.view;
            let batch = Batch::from_value(&decision.value).unwrap_or_default();
            let slot = self.next_apply;
            let entries = batch.0.len() as u64;
            for entry in batch.0 {
                self.apply_entry(entry, slot);
            }
            // The slot is applied: free its replica and message state.
            // Only the log, machine state, and checkpoints outlive a slot.
            self.slots.remove(&slot);
            self.obs.trace(TraceKind::SlotApplied { slot, entries });
            if let Some(opened) = self.opened_at.remove(&slot) {
                self.obs
                    .apply_latency_us
                    .record(self.obs.now_micros().saturating_sub(opened));
                self.obs.note_progress(opened, decided_view.0);
            }
            self.next_apply = self.next_apply.saturating_add(1);
            // The view this slot decided in is where the cluster works now.
            self.raise_cluster_view(decided_view, ctx);
            self.maybe_take_checkpoint(ctx);
            self.prune_retained();
            self.open_ready_slots(ctx);
        }
        debug_assert!(
            self.slots.len() <= self.settings.pipeline_depth,
            "resident slots ({}) exceed the pipeline window ({})",
            self.slots.len(),
            self.settings.pipeline_depth,
        );
    }

    /// Raises the cluster view to `view` (a no-op unless higher) and moves
    /// every undecided resident slot still in a lower view into it.
    fn raise_cluster_view(&mut self, view: View, ctx: &mut Context<'_, SmrMessage>) {
        if view <= self.cluster_view {
            return;
        }
        self.obs.trace(TraceKind::ViewChange {
            from_view: self.cluster_view.0,
            to_view: view.0,
        });
        self.cluster_view = view;
        self.obs.note_view(view.0);
        let behind: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, r)| r.decision().is_none() && r.current_view() < view)
            .map(|(&slot, _)| slot)
            .collect();
        for slot in behind {
            self.dispatch(slot, None, DispatchEvent::Advance(view), ctx);
        }
    }

    /// The f+1 rule: records the view of a verified Propose, Prepare,
    /// Commit or NewLeader signed by a peer, and raises the cluster view
    /// to the highest view that `f + 1` distinct peers reached. At least
    /// one of them is correct, so some correct replica really works in
    /// that view, which is the synchronizer's amplification argument.
    /// Only messages above the cluster view from a peer not yet known to
    /// be that far are verified here, so the steady state pays nothing.
    fn note_peer_view(&mut self, msg: &Message, ctx: &mut Context<'_, SmrMessage>) {
        let view = msg.view();
        let signer = msg.signer();
        if view <= self.cluster_view
            || matches!(msg, Message::Wish(_))
            || signer == self.id
            || signer.index() >= self.cfg.n()
            || self.peer_views.get(&signer).is_some_and(|&v| v >= view)
            || msg.verify(&VerifyCtx::new(&self.cfg, &self.keys)).is_err()
        {
            return;
        }
        self.peer_views.insert(signer, view);
        let mut views: Vec<View> = self.peer_views.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a));
        if let Some(&reached) = views.get(self.cfg.faults()) {
            self.raise_cluster_view(reached, ctx);
        }
    }

    /// Asks every peer for what this node missed from its apply frontier
    /// on: a stable checkpoint above it, and their retained messages for
    /// the slots from it. At most once per base timeout for the same
    /// frontier. Called when an undecided slot's view timer fires, after
    /// a snapshot install, and by the runtime when it resumes a paused
    /// replica.
    pub fn catch_up(&mut self, ctx: &mut Context<'_, SmrMessage>) {
        let now = ctx.now();
        if let Some((slot, at)) = self.last_catch_up {
            if slot == self.next_apply && now < at.saturating_add(self.cfg.base_timeout()) {
                return;
            }
        }
        self.last_catch_up = Some((self.next_apply, now));
        let req = StateRequest {
            min_slot: self.next_apply,
        };
        for peer in self.cfg.all_replicas().filter(|&p| p != self.id) {
            ctx.send(ProcessId(peer.index()), SmrMessage::StateRequest(req));
        }
    }

    /// Applies one decided entry to the log and — unless it is a
    /// duplicate of an already-executed client request — the state
    /// machine. Every replica sees the identical decided sequence, so this
    /// dedup is deterministic and replicated states stay equal. Read
    /// entries execute via [`StateMachine::query`], observing the state
    /// at their log position without mutating it.
    fn apply_entry(&mut self, entry: Entry<S::Op>, slot: u64) {
        match entry.request {
            Some(request) => {
                // A retry ordered twice skips execution and answers from
                // the reply cache. A dedup hit with no cached response is
                // impossible today (`request_applied` reads the same map),
                // but every replica must make the same call if that
                // invariant ever breaks — so degrade deterministically to
                // executing the entry instead of aborting the replica.
                let cached = if self.request_applied(request) {
                    self.applied_requests
                        .get(&request.client)
                        .map(|(_, response)| response.clone())
                } else {
                    None
                };
                let fresh = cached.is_none();
                if !fresh {
                    self.obs.reply_cache_hits.inc();
                }
                let response = match cached {
                    Some(response) => response,
                    None => {
                        let response = match entry.kind {
                            OpKind::Write => self.state.apply(&entry.op),
                            OpKind::Read => self.state.query(&entry.op),
                        };
                        // `fresh` means the seq is above the watermark, so
                        // this insert keeps the watermark monotone even if
                        // a (misbehaving) client's sequence numbers get
                        // ordered out of order.
                        self.applied_requests
                            .insert(request.client, (request.seq, response.clone()));
                        response
                    }
                };
                self.applied_events.push(AppliedRequest {
                    request,
                    slot,
                    executed: fresh,
                    response,
                });
            }
            None => match entry.kind {
                OpKind::Write => {
                    self.state.apply(&entry.op);
                }
                // An untagged read has no client waiting and no effect:
                // evaluating it would be pure wasted work (a full state
                // clone under the default `query`), which a Byzantine
                // proposer could otherwise exploit. Log it, skip it.
                OpKind::Read => {}
            },
        }
        self.log_digest =
            Sha256::digest_parts(&[self.log_digest.as_bytes(), &entry.to_wire_bytes()]);
        self.log.push(entry);
    }

    // ------------------------------------------------------------------
    // Checkpointing, truncation, and state transfer (PBFT §4.3 style).
    // ------------------------------------------------------------------

    fn stable_slot(&self) -> u64 {
        self.stable.as_ref().map_or(0, |s| s.slot)
    }

    /// At an interval boundary: snapshot the replicated state, remember it
    /// pending stability, and broadcast a signed attestation of its
    /// digest.
    fn maybe_take_checkpoint(&mut self, ctx: &mut Context<'_, SmrMessage>) {
        let interval = self.settings.checkpoint_interval as u64;
        if interval == 0 || self.next_apply == 0 || !self.next_apply.is_multiple_of(interval) {
            return;
        }
        let slot = self.next_apply;
        if slot <= self.stable_slot() || self.own_checkpoints.contains_key(&slot) {
            return;
        }
        let snapshot = Snapshot {
            slot,
            log_len: self.total_log_len(),
            log_digest: self.log_digest,
            state: self.state.clone(),
            replies: self.applied_requests.clone(),
        };
        let bytes = snapshot.to_wire_bytes();
        let digest = Snapshot::<S>::digest(&bytes);
        self.own_checkpoints.insert(
            slot,
            OwnCheckpoint {
                digest,
                log_len: snapshot.log_len,
                bytes,
            },
        );
        // Stability quorums normally lag by a round-trip, not by whole
        // intervals; if they do fall behind, the oldest pending snapshot
        // is expendable (a newer one subsumes it).
        while self.own_checkpoints.len() > MAX_PENDING_CHECKPOINTS {
            self.own_checkpoints.pop_first();
        }
        self.ckpt_stats.taken += 1;
        self.obs.checkpoints_taken.inc();
        let now = self.obs.now_micros();
        if let Some(prev) = self.last_checkpoint_at {
            self.obs
                .checkpoint_interval_us
                .record(now.saturating_sub(prev));
        }
        self.last_checkpoint_at = Some(now);
        self.obs.trace(TraceKind::CheckpointVote { slot });
        let vote = CheckpointVote::sign(&self.sk, self.id, slot, digest);
        for peer in self.cfg.all_replicas() {
            if peer != self.id {
                ctx.send(
                    ProcessId(peer.index()),
                    SmrMessage::CheckpointVote(vote.clone()),
                );
            }
        }
        // Peers may have attested this boundary before we reached it;
        // recording our own vote may complete the quorum right here.
        self.record_vote(vote, ctx);
    }

    /// Records one (already signature-checked) attestation and acts if it
    /// completes a quorum. One vote per replica per slot; tracked slots
    /// are bounded against far-future checkpoint spray.
    fn record_vote(&mut self, vote: CheckpointVote, ctx: &mut Context<'_, SmrMessage>) {
        let interval = self.settings.checkpoint_interval as u64;
        if interval == 0 || vote.slot == 0 || !vote.slot.is_multiple_of(interval) {
            self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
            return;
        }
        if vote.slot <= self.stable_slot() {
            return; // old news, already stable here
        }
        let slot = vote.slot;
        let slot_votes = self.votes.entry(slot).or_default();
        if slot_votes.contains_key(&vote.from) {
            return; // first vote per replica per slot wins
        }
        slot_votes.insert(vote.from, vote);
        if self.votes.len() > MAX_TRACKED_CHECKPOINT_SLOTS {
            // Evict the least-supported tracked slot (ties: the highest,
            // i.e. the most future — the shape of a spray).
            if let Some(&evict) = self
                .votes
                .iter()
                .min_by_key(|(s, v)| (v.len(), std::cmp::Reverse(**s)))
                .map(|(s, _)| s)
            {
                self.votes.remove(&evict);
                self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
                if evict == slot {
                    return;
                }
            }
        }
        self.check_stability(slot, ctx);
    }

    /// If `slot` has a digest attested by a deterministic quorum, the
    /// checkpoint is stable: adopt-and-truncate if we have applied that
    /// far, or request a snapshot transfer if it is beyond the pipeline
    /// window (consensus cannot recover those slots — peers prune decided
    /// slot state on apply).
    fn check_stability(&mut self, slot: u64, ctx: &mut Context<'_, SmrMessage>) {
        let quorum = self.cfg.deterministic_quorum();
        let Some(slot_votes) = self.votes.get(&slot) else {
            return;
        };
        let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
        for vote in slot_votes.values() {
            *counts.entry(vote.digest).or_default() += 1;
        }
        let Some((&digest, _)) = counts.iter().find(|(_, &count)| count >= quorum) else {
            return;
        };
        if slot <= self.next_apply {
            self.adopt_stable(slot, digest);
        } else if slot
            > self
                .next_apply
                .saturating_add(self.settings.pipeline_depth as u64)
            && self.transfer_wanted != Some((slot, digest))
        {
            // Beyond anything in-flight consensus can still decide for
            // us: fetch the snapshot from the replicas that attested it.
            // `f + 1` recipients guarantee at least one honest holder
            // without soliciting a quorum's worth of redundant
            // snapshot-sized replies; the next boundary's quorum is the
            // retry path if all of them fail.
            self.transfer_wanted = Some((slot, digest));
            self.transfer_started_at = Some(self.obs.now_micros());
            self.obs.trace(TraceKind::StateTransferStart { slot });
            let voters: Vec<ReplicaId> = self
                .votes
                .get(&slot)
                .map(|v| {
                    v.values()
                        .filter(|vote| vote.digest == digest && vote.from != self.id)
                        .map(|vote| vote.from)
                        .take(self.cfg.faults() + 1)
                        .collect()
                })
                .unwrap_or_default();
            let req = StateRequest {
                min_slot: self.next_apply,
            };
            for voter in voters {
                ctx.send(ProcessId(voter.index()), SmrMessage::StateRequest(req));
            }
        }
        // Otherwise the slot is inside the pipeline window: in-flight
        // consensus will carry us there, and our own checkpoint at that
        // boundary will re-run this check and adopt.
    }

    /// Marks `slot` stable and truncates everything at or below it: log
    /// entries below the checkpoint's mark, older pending checkpoints,
    /// and votes.
    fn adopt_stable(&mut self, slot: u64, digest: Digest) {
        if slot <= self.stable_slot() {
            return;
        }
        let Some(own) = self.own_checkpoints.remove(&slot) else {
            return; // pending snapshot was evicted; the next boundary will stabilise
        };
        if own.digest != digest {
            // A quorum attested a state we do not hold: this replica has
            // diverged (or the quorum is corrupt). Keep serving from the
            // old checkpoint and surface the disagreement as a drop.
            self.own_checkpoints.insert(slot, own);
            self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
            return;
        }
        let drop = usize::try_from(own.log_len.saturating_sub(self.log_offset))
            .unwrap_or(0)
            .min(self.log.len());
        self.log.drain(..drop);
        self.log_offset = self.log_offset.saturating_add(drop as u64);
        self.ckpt_stats.truncated_entries += drop as u64;
        self.ckpt_stats.stable_slot = slot;
        self.obs.trace(TraceKind::CheckpointStable { slot });
        // The quorum of signed votes is the checkpoint's certificate:
        // kept alongside the snapshot so served/pushed copies prove
        // themselves to receivers with no vote state of their own.
        let certificate: Vec<CheckpointVote> = self
            .votes
            .get(&slot)
            .map(|v| {
                v.values()
                    .filter(|vote| vote.digest == digest)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        self.stable = Some(StableCheckpoint {
            slot,
            digest,
            log_len: own.log_len,
            snapshot: own.bytes,
            certificate,
        });
        self.own_checkpoints.retain(|&s, _| s > slot);
        self.votes.retain(|&s, _| s > slot);
        if self.transfer_wanted.is_some_and(|(s, _)| s <= slot) {
            self.transfer_wanted = None;
        }
        self.prune_retained();
    }

    /// Serves a laggard's [`StateRequest`]: the stable checkpoint if it
    /// lies above the requester's frontier — at most once per peer per
    /// stable checkpoint — and this node's retained messages for the
    /// slots from the frontier, at most once per peer per slot. The caps
    /// are what keep the unauthenticated request harmless: `from` is only
    /// as trusted as the connection that carried it, so without them a
    /// forger could reflect unbounded replies at a third replica. A
    /// genuine laggard whose snapshot is lost retries via the next
    /// boundary's quorum (a *new* stable slot, which re-arms the cap).
    fn handle_state_request(
        &mut self,
        from: ProcessId,
        req: StateRequest,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        if from.index() >= self.cfg.n() || from.index() == self.id.index() {
            return;
        }
        if self.stable.as_ref().is_some_and(|s| s.slot > req.min_slot) {
            self.send_checkpoint(from, ctx);
        }
        // Retransmission: the original signed messages, so the laggard's
        // slot replicas verify and count them exactly as if they had
        // arrived the first time.
        let peer = ReplicaId::from(from.index());
        let until = req.min_slot.saturating_add(self.settings.future_window());
        for (&slot, msgs) in self.retained.range(req.min_slot..until) {
            if !self.resent.insert((slot, peer.0)) {
                continue;
            }
            for msg in msgs {
                let addressed = match msg {
                    Message::Prepare(m) | Message::Commit(m) => m.includes(peer),
                    _ => true,
                };
                if addressed {
                    let inner = msg.clone();
                    ctx.send(from, SmrMessage::Slot(SlotMessage { slot, inner }));
                }
            }
        }
    }

    /// Sends the stable checkpoint (snapshot + certificate) to `to`,
    /// unless that peer was already sent this checkpoint.
    fn send_checkpoint(&mut self, to: ProcessId, ctx: &mut Context<'_, SmrMessage>) {
        if to.index() >= self.cfg.n() {
            return;
        }
        let Some(stable) = &self.stable else {
            return;
        };
        let peer = to.index() as u32;
        if self.served_checkpoints.get(&peer).copied().unwrap_or(0) >= stable.slot {
            return;
        }
        self.served_checkpoints.insert(peer, stable.slot);
        self.ckpt_stats.snapshots_served += 1;
        ctx.send(
            to,
            SmrMessage::StateReply(StateReply {
                slot: stable.slot,
                snapshot: stable.snapshot.clone(),
                certificate: stable.certificate.clone(),
            }),
        );
    }

    /// Pushes the stable checkpoint to a peer observed sending traffic
    /// for a slot *below* it: that peer can never decide those slots
    /// again (they are truncated cluster-wide), and the votes that would
    /// have told it so were broadcast once, long ago — so the checkpoint
    /// must come to it. At most one send per peer per stable checkpoint;
    /// the self-proving certificate makes the unsolicited reply safe to
    /// accept.
    fn maybe_push_checkpoint(
        &mut self,
        to: ProcessId,
        slot: u64,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        if self.stable.as_ref().is_none_or(|s| slot >= s.slot) {
            return; // ordinary frontier skew, not a stranded laggard
        }
        self.send_checkpoint(to, ctx);
    }

    /// Verifies a transferred snapshot against its embedded certificate
    /// and restores from it. The reply is self-proving: every vote in the
    /// certificate must carry a valid Schnorr signature over the same
    /// `(slot, digest)`, distinct signers must reach the deterministic
    /// quorum, and the attested digest must equal the payload's own —
    /// so both solicited replies and unsolicited catch-up pushes are
    /// accepted on identical evidence, and no local vote state is
    /// required.
    fn handle_state_reply(&mut self, rep: StateReply, ctx: &mut Context<'_, SmrMessage>) {
        let interval = self.settings.checkpoint_interval as u64;
        if interval == 0 || !rep.slot.is_multiple_of(interval) {
            self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
            return;
        }
        // Only a checkpoint above the apply frontier moves this node
        // forward; anything else is a replayed or duplicate reply.
        if rep.slot <= self.next_apply {
            return;
        }
        let digest = Snapshot::<S>::digest(&rep.snapshot);
        if !self.certificate_proves(&rep, digest) {
            self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
            return;
        }
        let Ok(snapshot) = Snapshot::<S>::from_wire_bytes(&rep.snapshot) else {
            self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
            return;
        };
        if snapshot.slot != rep.slot {
            self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
            return;
        }
        self.restore_from(snapshot, rep, digest, ctx);
    }

    /// Whether a reply's certificate is a valid stability quorum for
    /// exactly (`rep.slot`, `digest`). Strict: one malformed vote damns
    /// the whole certificate (honest senders only ship valid ones).
    fn certificate_proves(&self, rep: &StateReply, digest: Digest) -> bool {
        let quorum = self.cfg.deterministic_quorum();
        let n = self.cfg.n();
        let mut signers = std::collections::BTreeSet::new();
        for vote in &rep.certificate {
            if vote.slot != rep.slot
                || vote.digest != digest
                || vote.from.index() >= n
                || !vote.verify(&self.keys)
            {
                return false;
            }
            signers.insert(vote.from);
        }
        signers.len() >= quorum
    }

    /// Jumps the node to a verified checkpoint: replicated state, reply
    /// cache, and log bookkeeping come from the snapshot; every in-flight
    /// slot below it is obsolete and dropped, while in-flight slots at or
    /// above it keep their consensus state (and the votes already cast
    /// there). Consensus resumes from the checkpoint slot — transferred
    /// entries produce no [`drain_applied`](Self::drain_applied) events
    /// (their clients were answered by the replicas that applied them;
    /// the restored reply cache still answers retries). The node then
    /// asks its peers for the slots above the checkpoint.
    fn restore_from(
        &mut self,
        snapshot: Snapshot<S>,
        rep: StateReply,
        digest: Digest,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        let transferred_bytes = rep.snapshot.len() as u64;
        self.state = snapshot.state;
        self.applied_requests = snapshot.replies;
        // The cluster view is deliberately NOT in the snapshot (it is a
        // replica-local observation, not agreed state): the restored node
        // keeps its own, which the f+1 rule raises as peer traffic
        // arrives.
        let from = snapshot.slot;
        self.next_apply = from;
        self.next_open = self.next_open.max(from);
        self.slots = self.slots.split_off(&from);
        self.opened_at = self.opened_at.split_off(&from);
        self.timers.retain(|_, (slot, _)| *slot >= from);
        self.future.retain(|&s, _| s >= from);
        self.log.clear();
        self.log_offset = snapshot.log_len;
        self.log_digest = snapshot.log_digest;
        self.own_checkpoints.clear();
        self.votes.retain(|&s, _| s > snapshot.slot);
        self.ckpt_stats.stable_slot = snapshot.slot;
        self.ckpt_stats.state_transfers += 1;
        self.ckpt_stats.transfer_bytes = self
            .ckpt_stats
            .transfer_bytes
            .saturating_add(transferred_bytes);
        self.obs.state_transfer_bytes.add(transferred_bytes);
        if let Some(started) = self.transfer_started_at.take() {
            self.obs
                .state_transfer_us
                .record(self.obs.now_micros().saturating_sub(started));
        }
        self.obs.trace(TraceKind::StateTransferDone {
            slot: snapshot.slot,
            bytes: transferred_bytes,
        });
        self.stable = Some(StableCheckpoint {
            slot: snapshot.slot,
            digest,
            log_len: snapshot.log_len,
            snapshot: rep.snapshot,
            certificate: rep.certificate,
        });
        self.transfer_wanted = None;
        self.prune_retained();
        // Rejoin the pipeline immediately: a kept slot may already have
        // decided, pending local entries (and, in lazy mode, subsequent
        // peer traffic) open slots from the checkpoint onward, and peers
        // fill in the slots they already decided above it.
        self.advance(ctx);
        self.open_ready_slots(ctx);
        self.catch_up(ctx);
    }
}

/// The starting point of every replica's log digest chain.
fn log_genesis() -> Digest {
    Sha256::digest(b"probft-log-genesis")
}

enum DispatchEvent {
    Message(Message),
    Timer(TimerToken),
    /// Move the slot into a higher view (the cluster view rose).
    Advance(View),
}

impl<S: StateMachine> SmrNode<S> {
    /// Routes one slot-tagged consensus message: deliver to a resident
    /// slot, drop stale/far-future traffic, open in-window slots on
    /// demand (lazy mode), or buffer for the window to reach them.
    fn on_slot_message(
        &mut self,
        from: ProcessId,
        msg: SlotMessage,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        let slot = msg.slot;
        self.note_peer_view(&msg.inner, ctx);
        if self.slots.contains_key(&slot) {
            self.dispatch(slot, Some(from), DispatchEvent::Message(msg.inner), ctx);
            return;
        }
        if slot < self.next_open {
            // Below the open frontier but not resident: the slot was
            // applied and pruned. Stale traffic, drop — but if the sender
            // is below our stable checkpoint, it is stranded (those slots
            // are truncated cluster-wide) and this traffic is our only
            // signal of its existence: push the checkpoint to it.
            self.note_dropped(self.obs.drops_stale.clone());
            self.maybe_push_checkpoint(from, slot, ctx);
            return;
        }
        // Bounded buffering horizon ahead of the lowest unapplied slot.
        // A Byzantine peer spraying far-future slot numbers lands here
        // and is dropped instead of growing memory without bound. The
        // horizon is tight when checkpointing is on (anyone dropped
        // recovers by state transfer) and wide when it is off (no
        // recovery path exists, so slack is the only protection).
        let window = self.settings.future_window();
        let horizon = self.next_apply.saturating_add(window);
        if slot >= horizon {
            self.note_dropped(self.obs.drops_future_horizon.clone());
            return;
        }
        let open_horizon = self
            .next_apply
            .saturating_add(self.settings.pipeline_depth as u64);
        if self.settings.lazy_open
            && slot < open_horizon
            && self.total_log_len() < self.settings.target_len as u64
        {
            // Live mode: peer traffic for an in-window slot is the signal
            // that the slot exists — open every slot up to it (proposing
            // whatever is pending locally, or an empty batch) and deliver.
            while self.next_open <= slot {
                let open = self.next_open;
                self.next_open = self.next_open.saturating_add(1);
                self.open_slot(open, ctx);
            }
            self.dispatch(slot, Some(from), DispatchEvent::Message(msg.inner), ctx);
            return;
        }
        // Eager mode (or target reached): buffer until the window opens
        // the slot, with a hard per-slot cap against single-slot floods.
        let buffered = self.future.entry(slot).or_default();
        if buffered.len() >= MAX_BUFFERED_PER_SLOT {
            self.note_dropped(self.obs.drops_slot_flood.clone());
        } else {
            buffered.push(msg.inner);
        }
    }
}

impl<S: StateMachine> Process for SmrNode<S> {
    type Message = SmrMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, SmrMessage>) {
        self.open_ready_slots(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SmrMessage, ctx: &mut Context<'_, SmrMessage>) {
        match msg {
            SmrMessage::Slot(msg) => self.on_slot_message(from, msg, ctx),
            SmrMessage::CheckpointVote(vote) => {
                // The signature, not the connection, authenticates the
                // attestation — checkpoint certificates must be as
                // unforgeable as the consensus votes they garbage-collect.
                if vote.verify(&self.keys) {
                    self.record_vote(vote, ctx);
                } else {
                    self.note_dropped(self.obs.drops_invalid_checkpoint.clone());
                }
            }
            SmrMessage::StateRequest(req) => self.handle_state_request(from, req, ctx),
            SmrMessage::StateReply(rep) => self.handle_state_reply(rep, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, SmrMessage>) {
        // Timers fire once; forgetting the mapping afterwards keeps the
        // table bounded by the number of outstanding timers.
        if let Some((slot, inner)) = self.timers.remove(&token.0) {
            // A live (not stale) view timer of an undecided slot: the
            // slot is stuck, possibly because this node missed messages
            // the rest of the cluster already acted on.
            let stuck = self
                .slots
                .get(&slot)
                .is_some_and(|r| r.decision().is_none() && r.current_view().0 == inner.0);
            self.dispatch(slot, None, DispatchEvent::Timer(inner), ctx);
            if stuck {
                self.catch_up(ctx);
            }
        }
    }
}

impl<S: StateMachine> fmt::Debug for SmrNode<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmrNode")
            .field("id", &self.id)
            .field("next_apply", &self.next_apply)
            .field("next_open", &self.next_open)
            .field("log_len", &self.log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Command, KvResponse, KvStore};
    use probft_core::config::{ProbftConfig, View};
    use probft_core::message::Wish;
    use probft_crypto::keyring::Keyring;
    use probft_simnet::time::SimTime;

    fn test_node(settings: SmrSettings) -> (SmrNode<KvStore>, StdRng) {
        let n = 4;
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(n).build());
        let keyring = Keyring::generate(n, b"node-tests");
        let public = Arc::new(keyring.public());
        let node = SmrNode::new(
            cfg,
            ReplicaId(0),
            keyring.signing_key(0).expect("in range").clone(),
            public,
            Vec::new(),
            settings,
        );
        (node, StdRng::seed_from_u64(7))
    }

    /// Any message from peer 1, tagged with `slot`.
    fn slot_msg(keyring_seed: &[u8], slot: u64) -> SmrMessage {
        let keyring = Keyring::generate(4, keyring_seed);
        let wish = Wish::sign(
            keyring.signing_key(1).expect("in range"),
            ReplicaId(1),
            View(2),
        );
        SmrMessage::Slot(SlotMessage {
            slot,
            inner: Message::Wish(wish),
        })
    }

    #[test]
    fn slot_message_round_trips() {
        let SmrMessage::Slot(msg) = slot_msg(b"node-tests", 42) else {
            panic!("slot_msg builds a Slot variant");
        };
        let bytes = msg.to_wire_bytes();
        assert_eq!(SlotMessage::from_wire_bytes(&bytes).unwrap(), msg);
        // Truncated input degrades to an error, never a panic.
        assert!(SlotMessage::from_wire_bytes(&bytes[..4]).is_err());
    }

    /// A Byzantine peer spraying far-future slot numbers must not grow
    /// memory: everything beyond the bounded horizon is dropped and
    /// counted, nothing is buffered for it.
    #[test]
    fn far_future_slot_spray_is_dropped_not_buffered() {
        let (mut node, mut rng) = test_node(SmrSettings {
            target_len: 1_000_000,
            pipeline_depth: 2,
            batch_size: 1,
            lazy_open: false,
            checkpoint_interval: 0,
            adaptive_batching: false,
            max_pending: 0,
        });
        let spray = 1000;
        for i in 0..spray {
            let msg = slot_msg(b"node-tests", 1_000_000 + i);
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
            node.on_message(ProcessId(1), msg, &mut ctx);
        }
        assert_eq!(node.dropped_messages(), spray);
        assert_eq!(
            node.buffered_future(),
            0,
            "nothing beyond the horizon buffers"
        );
    }

    /// Flooding one in-window slot hits the per-slot cap instead of
    /// growing its buffer without bound.
    #[test]
    fn single_slot_flood_is_capped() {
        let (mut node, mut rng) = test_node(SmrSettings {
            target_len: 1_000_000,
            pipeline_depth: 2,
            batch_size: 1,
            lazy_open: false,
            checkpoint_interval: 0,
            adaptive_batching: false,
            max_pending: 0,
        });
        // Slot inside the buffering horizon but not yet open (the node
        // has not started, so nothing is open).
        let slot = MIN_FUTURE_WINDOW - 1;
        let flood = MAX_BUFFERED_PER_SLOT as u64 + 500;
        for _ in 0..flood {
            let msg = slot_msg(b"node-tests", slot);
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
            node.on_message(ProcessId(1), msg, &mut ctx);
        }
        assert_eq!(node.buffered_future(), MAX_BUFFERED_PER_SLOT);
        assert_eq!(node.dropped_messages(), 500);
    }

    /// Stale traffic for already-applied (pruned) slots is dropped, and a
    /// fresh node reports an empty, bounded footprint.
    #[test]
    fn footprint_accessors_start_empty() {
        let (node, _rng) = test_node(SmrSettings::sequential(4));
        assert_eq!(node.resident_slots(), 0);
        assert_eq!(node.buffered_future(), 0);
        assert_eq!(node.dropped_messages(), 0);
        assert_eq!(node.pending_len(), 0);
        assert_eq!(node.current_leader(), ReplicaId(0));
        assert_eq!(node.cluster_view(), View::FIRST);
    }

    /// The reply cache: applying a tagged entry records its response;
    /// a duplicate of the same request skips execution and replays the
    /// cached response.
    #[test]
    fn reply_cache_deduplicates_and_replays_response() {
        let (mut node, _rng) = test_node(SmrSettings::sequential(usize::MAX));
        let request = RequestId { client: 9, seq: 1 };
        let entry = Entry::tagged_write(
            request,
            Command::Put {
                key: "a".into(),
                value: "1".into(),
            },
        );
        node.apply_entry(entry.clone(), 0);
        node.apply_entry(entry, 1);

        let events = node.drain_applied();
        assert_eq!(events.len(), 2);
        assert!(events[0].executed);
        assert!(!events[1].executed, "duplicate must not re-execute");
        assert_eq!(events[0].response, KvResponse::Prev(None));
        assert_eq!(
            events[1].response,
            KvResponse::Prev(None),
            "duplicate replays the cached response, not a re-execution \
             (a re-run would observe Prev(Some(\"1\")))"
        );
        assert_eq!(node.state().applied(), 1);
        assert_eq!(node.cached_response(request), Some(&KvResponse::Prev(None)));
    }

    /// Read entries ordered through the log observe the state at their
    /// log position and never mutate it.
    #[test]
    fn log_ordered_read_observes_prefix_without_mutation() {
        let (mut node, _rng) = test_node(SmrSettings::sequential(usize::MAX));
        node.apply_entry(
            Entry::write(Command::Put {
                key: "k".into(),
                value: "before".into(),
            }),
            0,
        );
        let read = RequestId { client: 4, seq: 1 };
        node.apply_entry(
            Entry::tagged_read(read, Command::Get { key: "k".into() }),
            1,
        );
        node.apply_entry(
            Entry::write(Command::Put {
                key: "k".into(),
                value: "after".into(),
            }),
            2,
        );
        let events = node.drain_applied();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].response, KvResponse::Value(Some("before".into())));
        assert_eq!(node.state().applied(), 2, "reads don't count as applies");
        assert_eq!(node.log().len(), 3, "reads do occupy log positions");
    }

    /// A node with checkpointing at the given interval, as replica `id`
    /// of the shared 4-replica test keyring.
    fn checkpoint_node(id: usize, interval: usize, depth: usize) -> (SmrNode<KvStore>, StdRng) {
        let n = 4;
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(n).build());
        let keyring = Keyring::generate(n, b"node-tests");
        let public = Arc::new(keyring.public());
        let node = SmrNode::new(
            cfg,
            ReplicaId::from(id),
            keyring.signing_key(id).expect("in range").clone(),
            public,
            Vec::new(),
            SmrSettings {
                target_len: usize::MAX,
                pipeline_depth: depth,
                batch_size: 1,
                lazy_open: true,
                checkpoint_interval: interval,
                adaptive_batching: false,
                max_pending: 0,
            },
        );
        (node, StdRng::seed_from_u64(id as u64 + 1))
    }

    /// A peer's signed attestation of `digest` at `slot`.
    fn peer_vote(id: usize, slot: u64, digest: Digest) -> SmrMessage {
        let keyring = Keyring::generate(4, b"node-tests");
        SmrMessage::CheckpointVote(CheckpointVote::sign(
            keyring.signing_key(id).expect("in range"),
            ReplicaId::from(id),
            slot,
            digest,
        ))
    }

    /// Applies `count` tagged puts as one entry per slot and advances the
    /// apply frontier accordingly (the unit-test stand-in for decided
    /// consensus slots).
    fn apply_slots(node: &mut SmrNode<KvStore>, rng: &mut StdRng, from: u64, count: u64) {
        for i in from..from + count {
            let entry = Entry::tagged_write(
                RequestId {
                    client: 1,
                    seq: i + 1,
                },
                Command::Put {
                    key: format!("k{i}"),
                    value: format!("v{i}"),
                },
            );
            node.apply_entry(entry, i);
            node.next_apply = i + 1;
            // Preserve the next_open ≥ next_apply invariant the real
            // apply path maintains.
            node.next_open = node.next_open.max(i + 1);
            let mut ctx = Context::detached(ProcessId(node.id.index()), SimTime::ZERO, rng);
            node.maybe_take_checkpoint(&mut ctx);
        }
    }

    /// A quorum of matching attestations makes the checkpoint stable: the
    /// log truncates below it, but the reply cache, total length, and
    /// digest chain all survive.
    #[test]
    fn stable_checkpoint_truncates_log_and_keeps_reply_cache() {
        let (mut node, mut rng) = checkpoint_node(0, 2, 1);
        apply_slots(&mut node, &mut rng, 0, 2);
        assert_eq!(node.checkpoint_stats().taken, 1);
        let digest = node.own_checkpoints.get(&2).expect("own checkpoint").digest;
        let total_before = node.total_log_len();
        let chain_before = node.log_digest();

        // Own vote alone is not a quorum (⌈(4+1+1)/2⌉ = 3); two peers
        // complete it.
        assert!(node.stable_checkpoint().is_none());
        for peer in [1, 2] {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
            node.on_message(ProcessId(peer), peer_vote(peer, 2, digest), &mut ctx);
        }
        let stable = node.stable_checkpoint().expect("quorum reached");
        assert_eq!(stable.slot, 2);
        assert_eq!(node.log().len(), 0, "entries below the checkpoint gone");
        assert_eq!(node.log_offset(), 2);
        assert_eq!(node.total_log_len(), total_before);
        assert_eq!(node.log_digest(), chain_before, "digest chain unbroken");
        assert_eq!(node.checkpoint_stats().truncated_entries, 2);
        assert_eq!(node.checkpoint_stats().stable_slot, 2);
        // At-most-once survives truncation: the replies live in the
        // snapshot, not the truncated log.
        let request = RequestId { client: 1, seq: 2 };
        assert!(node.request_applied(request));
        assert_eq!(node.cached_response(request), Some(&KvResponse::Prev(None)));
    }

    /// A vote quorum for a slot beyond the pipeline window makes a
    /// laggard request state transfer; an attested `StateReply` restores
    /// it to the checkpoint — state, reply cache, log bookkeeping and
    /// all — without replaying the truncated log.
    #[test]
    fn laggard_restores_from_attested_state_reply() {
        // Replica 0 applies 4 slots and checkpoints at slot 4.
        let (mut donor, mut donor_rng) = checkpoint_node(0, 4, 1);
        apply_slots(&mut donor, &mut donor_rng, 0, 4);
        let digest = donor.own_checkpoints.get(&4).expect("own").digest;
        let snapshot = donor.own_checkpoints.get(&4).expect("own").bytes.clone();

        // Replica 3 never saw any of it. Votes from 0, 1, 2 arrive.
        let (mut laggard, mut rng) = checkpoint_node(3, 4, 1);
        for peer in [0, 1, 2] {
            let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
            laggard.on_message(ProcessId(peer), peer_vote(peer, 4, digest), &mut ctx);
            let requests: Vec<_> = ctx
                .drain_actions()
                .into_iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Send {
                            msg: SmrMessage::StateRequest(_),
                            ..
                        }
                    )
                })
                .collect();
            if peer == 2 {
                assert!(
                    !requests.is_empty(),
                    "quorum for a far-ahead checkpoint must trigger requests"
                );
            }
        }
        assert_eq!(laggard.transfer_wanted, Some((4, digest)));

        // The certificate: the quorum of signed votes for (slot 4, digest).
        let keyring = Keyring::generate(4, b"node-tests");
        let certificate: Vec<CheckpointVote> = [0usize, 1, 2]
            .iter()
            .map(|&i| {
                CheckpointVote::sign(
                    keyring.signing_key(i).expect("in range"),
                    ReplicaId::from(i),
                    4,
                    digest,
                )
            })
            .collect();

        // A tampered payload is rejected and counted…
        let mut bad = snapshot.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let dropped_before = laggard.dropped_messages();
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(
            ProcessId(1),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot: bad,
                certificate: certificate.clone(),
            }),
            &mut ctx,
        );
        assert_eq!(laggard.dropped_messages(), dropped_before + 1);
        assert_eq!(laggard.slots_applied(), 0, "tampered snapshot ignored");

        // …as is a certificate short of the quorum…
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(
            ProcessId(1),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot: snapshot.clone(),
                certificate: certificate[..2].to_vec(),
            }),
            &mut ctx,
        );
        assert_eq!(laggard.dropped_messages(), dropped_before + 2);
        assert_eq!(laggard.slots_applied(), 0, "sub-quorum certificate ignored");

        // …the attested one restores.
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(
            ProcessId(1),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot,
                certificate: certificate.clone(),
            }),
            &mut ctx,
        );
        assert_eq!(laggard.slots_applied(), 4);
        assert_eq!(laggard.state(), donor.state());
        assert_eq!(laggard.log_offset(), 4);
        assert_eq!(laggard.log().len(), 0, "transferred, not replayed");
        assert_eq!(laggard.log_digest(), donor.log_digest());
        assert_eq!(laggard.checkpoint_stats().state_transfers, 1);
        let request = RequestId { client: 1, seq: 4 };
        assert_eq!(
            laggard.cached_response(request),
            donor.cached_response(request),
            "reply cache rides the snapshot"
        );
        // A duplicate reply is a no-op.
        let stable = laggard
            .stable_checkpoint()
            .expect("stable")
            .snapshot
            .clone();
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(
            ProcessId(2),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot: stable,
                certificate,
            }),
            &mut ctx,
        );
        assert_eq!(laggard.checkpoint_stats().state_transfers, 1);
    }

    /// The self-proving certificate makes *unsolicited* catch-up pushes
    /// safe: a fresh replica that never collected a single vote restores
    /// from a pushed stable checkpoint, and a peer pushes one when it
    /// sees traffic from below its stable checkpoint (at most once per
    /// checkpoint per peer).
    #[test]
    fn unsolicited_checkpoint_push_restores_a_voteless_laggard() {
        // Donor: 4 slots applied, checkpoint at 4 made stable by votes
        // from peers 1 and 2.
        let (mut donor, mut donor_rng) = checkpoint_node(0, 4, 1);
        apply_slots(&mut donor, &mut donor_rng, 0, 4);
        let digest = donor.own_checkpoints.get(&4).expect("own").digest;
        for peer in [1, 2] {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut donor_rng);
            donor.on_message(ProcessId(peer), peer_vote(peer, 4, digest), &mut ctx);
        }
        let stable = donor.stable_checkpoint().expect("stable");
        assert_eq!(stable.certificate.len(), 3, "own vote + two peers");

        // Stale traffic from replica 3 (below the stable checkpoint)
        // makes the donor push its checkpoint — exactly once.
        let mut pushes = Vec::new();
        for _ in 0..3 {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut donor_rng);
            donor.on_message(ProcessId(3), slot_msg(b"node-tests", 0), &mut ctx);
            pushes.extend(ctx.drain_actions().into_iter().filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: SmrMessage::StateReply(rep),
                } => Some((to, rep)),
                _ => None,
            }));
        }
        assert_eq!(pushes.len(), 1, "one push per peer per stable checkpoint");
        let (to, rep) = pushes.pop().expect("one push");
        assert_eq!(to, ProcessId(3));

        // The voteless laggard accepts it purely on the certificate.
        let (mut laggard, mut rng) = checkpoint_node(3, 4, 1);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(ProcessId(0), SmrMessage::StateReply(rep), &mut ctx);
        assert_eq!(laggard.slots_applied(), 4);
        assert_eq!(laggard.state(), donor.state());
        assert_eq!(laggard.checkpoint_stats().state_transfers, 1);
    }

    /// A laggard that caught up by snapshot install keeps checkpointing on
    /// its own: once more slots decide through real consensus, it takes
    /// checkpoints at the following interval boundaries and sees them
    /// become stable, instead of living off installed snapshots forever.
    #[test]
    fn laggard_keeps_checkpointing_after_snapshot_install() {
        let interval = 4u64;
        let mut cluster: Vec<(SmrNode<KvStore>, StdRng)> = (0..4)
            .map(|id| checkpoint_node(id, interval as usize, 1))
            .collect();
        // Replicas 0–2 apply the first interval; replica 3 installs it from
        // an attested state reply instead.
        for (node, rng) in &mut cluster[..3] {
            apply_slots(node, rng, 0, interval);
        }
        let (donor, _) = &cluster[0];
        let own = donor.own_checkpoints.get(&interval).expect("own");
        let keyring = Keyring::generate(4, b"node-tests");
        let rep = StateReply {
            slot: interval,
            snapshot: own.bytes.clone(),
            certificate: (0..3)
                .map(|i| {
                    CheckpointVote::sign(
                        keyring.signing_key(i).expect("in range"),
                        ReplicaId::from(i),
                        interval,
                        own.digest,
                    )
                })
                .collect(),
        };
        let (laggard, rng) = &mut cluster[3];
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, rng);
        laggard.on_message(ProcessId(0), SmrMessage::StateReply(rep), &mut ctx);
        assert_eq!(laggard.checkpoint_stats().state_transfers, 1);
        assert_eq!(laggard.checkpoint_stats().taken, 0);

        // Two more intervals of writes through the view-1 leader, decided
        // by the four nodes exchanging messages in FIFO order (timers never
        // fire: the run is fault-free).
        let mut inflight: std::collections::VecDeque<(usize, ProcessId, SmrMessage)> =
            std::collections::VecDeque::new();
        for i in interval..3 * interval {
            let (leader, rng) = &mut cluster[0];
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, rng);
            leader.submit(
                Entry::tagged_write(
                    RequestId {
                        client: 2,
                        seq: i + 1,
                    },
                    Command::Put {
                        key: format!("k{i}"),
                        value: format!("v{i}"),
                    },
                ),
                &mut ctx,
            );
            for action in ctx.drain_actions() {
                if let Action::Send { to, msg } = action {
                    inflight.push_back((to.index(), ProcessId(0), msg));
                }
            }
            while let Some((to, from, msg)) = inflight.pop_front() {
                let (node, rng) = &mut cluster[to];
                let mut ctx = Context::detached(ProcessId(to), SimTime::ZERO, rng);
                node.on_message(from, msg, &mut ctx);
                for action in ctx.drain_actions() {
                    if let Action::Send { to: next, msg } = action {
                        inflight.push_back((next.index(), ProcessId(to), msg));
                    }
                }
            }
        }

        let (laggard, _) = &cluster[3];
        assert_eq!(laggard.total_log_len(), 3 * interval);
        let stats = laggard.checkpoint_stats();
        assert_eq!(stats.taken, 2, "own checkpoints at slots 8 and 12");
        assert_eq!(stats.state_transfers, 1, "no second install needed");
        assert_eq!(stats.stable_slot, 3 * interval);
        assert_eq!(laggard.log_digest(), cluster[0].0.log_digest());
    }

    /// A checkpoint just above the apply frontier (inside the pipeline
    /// window) is installed, and a resident slot at or above it keeps its
    /// consensus state: a slot replica that may already have voted must
    /// not be opened afresh, or it could vote twice in one view.
    #[test]
    fn install_inside_the_window_keeps_slots_at_or_above_the_checkpoint() {
        let (mut donor, mut donor_rng) = checkpoint_node(0, 4, 4);
        apply_slots(&mut donor, &mut donor_rng, 0, 4);
        let own = donor.own_checkpoints.get(&4).expect("own");
        let keyring = Keyring::generate(4, b"node-tests");
        let rep = StateReply {
            slot: 4,
            snapshot: own.bytes.clone(),
            certificate: (0..3)
                .map(|i| {
                    CheckpointVote::sign(
                        keyring.signing_key(i).expect("in range"),
                        ReplicaId::from(i),
                        4,
                        own.digest,
                    )
                })
                .collect(),
        };

        // The laggard applied slots 0 and 1, then peer traffic for slot 4
        // opened slots 2, 3 and 4.
        let (mut laggard, mut rng) = checkpoint_node(3, 4, 4);
        apply_slots(&mut laggard, &mut rng, 0, 2);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(
            ProcessId(1),
            new_leader_from(b"node-tests", 1, 1, 4),
            &mut ctx,
        );
        assert_eq!(laggard.resident_slots(), 3);

        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO, &mut rng);
        laggard.on_message(ProcessId(0), SmrMessage::StateReply(rep), &mut ctx);
        assert_eq!(laggard.slots_applied(), 4, "installed inside the window");
        assert_eq!(laggard.state(), donor.state());
        assert_eq!(
            laggard.slots.keys().copied().collect::<Vec<_>>(),
            vec![4],
            "slots below the checkpoint dropped, slot 4 kept"
        );
        // The install asks every peer for the slots above the checkpoint.
        let asks = ctx
            .drain_actions()
            .into_iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: SmrMessage::StateRequest(StateRequest { min_slot: 4 }),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(asks, 3);
    }

    /// Unsigned or forged checkpoint votes never count toward a quorum.
    #[test]
    fn forged_checkpoint_votes_are_dropped() {
        let (mut node, mut rng) = checkpoint_node(0, 2, 1);
        apply_slots(&mut node, &mut rng, 0, 2);
        let digest = node.own_checkpoints.get(&2).expect("own").digest;
        // Votes "from" replicas 1 and 2, but signed with the wrong keys.
        let other = Keyring::generate(4, b"imposter");
        for peer in [1usize, 2] {
            let forged = CheckpointVote::sign(
                other.signing_key(peer).expect("in range"),
                ReplicaId::from(peer),
                2,
                digest,
            );
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
            node.on_message(
                ProcessId(peer),
                SmrMessage::CheckpointVote(forged),
                &mut ctx,
            );
        }
        assert!(node.stable_checkpoint().is_none(), "forged quorum rejected");
        assert_eq!(node.dropped_messages(), 2);
    }

    /// The buffering horizon is conditional: wide without checkpointing
    /// (no recovery path exists for anyone dropped beyond it), tight with
    /// it (state transfer recovers them).
    #[test]
    fn buffering_horizon_is_wide_without_checkpointing_tight_with() {
        assert_eq!(SmrSettings::live(4, 1).future_window(), 16);
        let mut with = SmrSettings::live(4, 1);
        with.checkpoint_interval = 8;
        assert_eq!(with.future_window(), 8);
        // Deep pipelines scale both horizons past their floors.
        assert_eq!(SmrSettings::live(16, 1).future_window(), 64);
        let mut deep = SmrSettings::live(16, 1);
        deep.checkpoint_interval = 8;
        assert_eq!(deep.future_window(), 32);
    }

    /// A peer's signed NewLeader for `view` with nothing prepared, tagged
    /// with `slot`; `keyring_seed` other than the cluster's forges it.
    fn new_leader_from(keyring_seed: &[u8], peer: usize, view: u64, slot: u64) -> SmrMessage {
        let keyring = Keyring::generate(4, keyring_seed);
        let nl = probft_core::message::NewLeader::sign(
            keyring.signing_key(peer).expect("in range"),
            ReplicaId::from(peer),
            View(view),
            View::NONE,
            None,
            Vec::new(),
        );
        SmrMessage::Slot(SlotMessage {
            slot,
            inner: Message::NewLeader(nl),
        })
    }

    /// The f+1 rule (f = 1 at n = 4): one peer seen in view 3 is not
    /// enough, forged and Wish traffic never counts, and a second verified
    /// peer raises the cluster view and moves the undecided resident slot
    /// into it.
    #[test]
    fn cluster_view_rises_on_f_plus_one_verified_peers() {
        let (mut node, mut rng) = checkpoint_node(0, 0, 4);
        let mut deliver = |node: &mut SmrNode<KvStore>, from: usize, msg: SmrMessage| {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
            node.on_message(ProcessId(from), msg, &mut ctx);
        };
        deliver(&mut node, 1, new_leader_from(b"node-tests", 1, 3, 0));
        assert_eq!(node.resident_slots(), 1, "peer traffic opened slot 0");
        assert_eq!(node.cluster_view(), View::FIRST, "one peer is not f+1");
        deliver(&mut node, 2, new_leader_from(b"imposter", 2, 3, 0));
        assert_eq!(node.cluster_view(), View::FIRST, "forged views never count");
        let wish = Wish::sign(
            Keyring::generate(4, b"node-tests")
                .signing_key(2)
                .expect("in range"),
            ReplicaId(2),
            View(5),
        );
        let wish = SmrMessage::Slot(SlotMessage {
            slot: 0,
            inner: Message::Wish(wish),
        });
        deliver(&mut node, 2, wish);
        assert_eq!(node.cluster_view(), View::FIRST, "a wish is not a view");
        deliver(&mut node, 2, new_leader_from(b"node-tests", 2, 3, 0));
        assert_eq!(node.cluster_view(), View(3));
        assert_eq!(node.current_leader(), ReplicaId(2), "leader(3)");
        assert_eq!(
            node.slots.get(&0).map(Replica::current_view),
            Some(View(3)),
            "the undecided slot moved into the cluster view"
        );
    }

    /// A fresh slot opens in the cluster view; its leader announces it by
    /// sending its NewLeader to every peer (and, per line 5, itself).
    #[test]
    fn leader_announces_a_slot_opened_in_a_later_view() {
        let (mut node, mut rng) = checkpoint_node(1, 0, 4);
        node.cluster_view = View(2); // leader(2) = replica 1
        let mut ctx = Context::detached(ProcessId(1), SimTime::ZERO, &mut rng);
        node.submit(Entry::write(Command::Get { key: "k".into() }), &mut ctx);
        let mut to: Vec<usize> = ctx
            .drain_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg:
                        SmrMessage::Slot(SlotMessage {
                            inner: Message::NewLeader(nl),
                            ..
                        }),
                } if nl.view == View(2) => Some(to.index()),
                _ => None,
            })
            .collect();
        to.sort_unstable();
        assert_eq!(to, vec![0, 1, 2, 3]);
        assert_eq!(node.slots.get(&0).map(Replica::current_view), Some(View(2)));
    }

    /// Retransmission answers a laggard's request with this node's own
    /// retained messages for the slots from its frontier, once per peer
    /// and slot, and never without a request.
    #[test]
    fn state_request_resends_retained_messages_once_per_peer_and_slot() {
        let (mut node, mut rng) = checkpoint_node(0, 0, 4);
        let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
        node.submit(Entry::write(Command::Get { key: "k".into() }), &mut ctx);
        ctx.drain_actions();
        let mut ask = |node: &mut SmrNode<KvStore>, from: usize, min_slot: u64| {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
            node.on_message(
                ProcessId(from),
                SmrMessage::StateRequest(StateRequest { min_slot }),
                &mut ctx,
            );
            ctx.drain_actions()
                .into_iter()
                .filter_map(|a| match a {
                    Action::Send {
                        to,
                        msg: SmrMessage::Slot(m),
                    } => Some((to.index(), m)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let resent = ask(&mut node, 3, 0);
        assert!(
            resent
                .iter()
                .any(|(to, m)| *to == 3 && m.slot == 0 && matches!(m.inner, Message::Propose(_))),
            "the view-1 leader's retained Propose goes back to the laggard: {resent:?}"
        );
        assert!(ask(&mut node, 3, 0).is_empty(), "once per peer and slot");
        assert!(!ask(&mut node, 2, 0).is_empty(), "another peer is served");
        assert!(
            ask(&mut node, 1, 1).is_empty(),
            "nothing retained above slot 0"
        );
    }

    /// The probe opens exactly one slot, only on an idle lazy node — the
    /// follower's lever for forcing a view change on a silent leader.
    #[test]
    fn probe_open_only_fires_on_idle_lazy_nodes() {
        let (mut node, mut rng) = checkpoint_node(1, 0, 4);
        let mut ctx = Context::detached(ProcessId(1), SimTime::ZERO, &mut rng);
        assert!(node.probe_open(&mut ctx));
        assert_eq!(node.slots_opened(), 1);
        // Already probing: a second probe is a no-op.
        assert!(!node.probe_open(&mut ctx));
        assert_eq!(node.slots_opened(), 1);
        // Eager nodes never probe (the workload drives them).
        let (mut eager, mut rng2) = test_node(SmrSettings::sequential(4));
        let mut ctx2 = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng2);
        assert!(!eager.probe_open(&mut ctx2));
    }
}
