//! Live TCP state-machine replication: [`SmrNode`] driven by real sockets.
//!
//! Each replica thread hosts the same pipelined, batched [`SmrNode`] that
//! runs in the simulator — generic over the replicated [`StateMachine`] —
//! but its slot-tagged consensus traffic travels as [`SmrFrame::Peer`]
//! frames over loopback TCP and its operations come from real clients
//! instead of a prebuilt workload: an [`SmrFrame::Request`] carries a
//! client operation plus its [`RequestId`], the node feeds it into the
//! pending queue (demand-driven slot opening, so batching operates on what
//! actually arrived), and once the operation reaches the applied log the
//! replica answers with an [`SmrReply::Applied`] carrying the machine's
//! *typed response*. Non-leaders redirect the client to the leader of
//! their cluster view (id *and* address); retried request ids
//! are deduplicated inside the replicated state machine and answered from
//! its reply cache, so submissions stay at-most-once across redirects,
//! reconnects, and view changes.
//!
//! Reads have their own consensus-bypassing frames:
//! [`SmrFrame::ReadRequest`] is evaluated against the contacted replica's
//! applied state ([`Consistency::Local`] — any replica, possibly stale;
//! [`Consistency::Leader`] — only the replica that believes it leads,
//! redirecting otherwise) and answered with [`SmrFrame::ReadReply`].
//! [`Consistency::Linearizable`] reads never use these frames: the client
//! submits them as ordered read entries through the normal request path,
//! paying one consensus round for a log-ordered observation.
//!
//! With a [`checkpoint_interval`](LiveSmrBuilder::checkpoint_interval)
//! set, the checkpoint subsystem rides three more frames: signed
//! [`SmrFrame::CheckpointVote`] attestations make checkpoints stable (and
//! the resident log bounded), and a replica that finds itself behind the
//! cluster's stable checkpoint — a restarted or partitioned laggard —
//! fetches the snapshot over TCP with [`SmrFrame::StateRequest`] /
//! [`SmrFrame::StateReply`] and resumes consensus from the checkpoint
//! slot instead of replaying (or waiting forever for) the truncated log.
//! The same request brings back the peers' retained signed messages for
//! the slots above the checkpoint; a replica resumed after a
//! [`pause`](LiveSmrCluster::pause) sends it right away.

use crate::client::unusable_addr;
use crate::cluster::ClusterError;
use crate::driver::{aggregate, bind_listeners, Codec, Driver, Inbound, ReplyHandle};
use crate::transport::write_frame;
use probft_core::config::{ProbftConfig, SharedConfig};
use probft_core::wire::{put, Reader, Wire, WireError};
use probft_crypto::keyring::Keyring;
use probft_crypto::sha256::Digest;
use probft_obs::{MetricsSnapshot, Obs, TraceEvent, TraceKind};
use probft_quorum::ReplicaId;
use probft_simnet::process::{Process, ProcessId};
use probft_simnet::time::SimDuration;
use probft_smr::node::SmrNode;
use probft_smr::{
    CheckpointStats, CheckpointVote, Consistency, Entry, KvStore, OpKind, RequestId, SlotMessage,
    SmrMessage, SmrSettings, StateMachine, StateReply, StateRequest,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One frame of the live SMR wire protocol, typed by the replicated
/// [`StateMachine`]. Self-describing, so replicas and clients share a
/// single listener port.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrFrame<S: StateMachine> {
    /// Replica-to-replica consensus traffic for one log slot.
    Peer {
        /// Sending replica id (the replica's own signatures are what is
        /// actually trusted; this routes the message to per-slot state).
        from: u32,
        /// The slot-tagged consensus message.
        msg: SlotMessage,
    },
    /// Client-to-replica submission of an operation to be *ordered*
    /// through the log: a write, or a linearizable read (`kind`
    /// distinguishes them — read entries are applied via `query` and
    /// never mutate the machine).
    Request {
        /// The client's unique id for this submission (retries reuse it).
        request: RequestId,
        /// Whether the operation mutates state or is a log-ordered read.
        kind: OpKind,
        /// The operation to order.
        op: S::Op,
    },
    /// Replica-to-client outcome of a [`Request`](Self::Request).
    Reply(SmrReply<S::Response>),
    /// Client-to-replica read served off the replica's applied state,
    /// bypassing consensus ([`Consistency::Local`] and
    /// [`Consistency::Leader`] tiers).
    ReadRequest {
        /// Reply-matching id (reads are not deduplicated — they execute
        /// nothing — but replies must find their way back).
        request: RequestId,
        /// The tier the client demands.
        consistency: Consistency,
        /// The read operation to evaluate.
        op: S::Op,
    },
    /// Replica-to-client answer to a consensus-bypassing read.
    ReadReply {
        /// The read this answers.
        request: RequestId,
        /// The machine's typed response, evaluated between whole-batch
        /// applies (never torn).
        response: S::Response,
    },
    /// Replica-to-replica signed checkpoint attestation. The Schnorr
    /// signature inside the vote (not the connection it arrived on) is
    /// what authenticates it, so a rogue client cannot forge a stability
    /// quorum.
    CheckpointVote(CheckpointVote),
    /// A lagging replica asking a peer for its stable-checkpoint
    /// snapshot.
    StateRequest {
        /// Requesting replica id (where the [`StateReply`]
        /// (Self::StateReply) goes).
        from: u32,
        /// What is being asked for.
        req: StateRequest,
    },
    /// A stable-checkpoint snapshot in flight to a laggard, verified by
    /// the receiver against the quorum-attested digest.
    StateReply {
        /// Sending replica id.
        from: u32,
        /// The snapshot payload.
        rep: StateReply,
    },
}

/// A replica's answer to a client submission.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrReply<R> {
    /// The operation reached the replicated log and was applied (or was
    /// recognised as an already-applied retry and answered from the
    /// reply cache). Sent only after apply, carrying the typed result.
    Applied {
        /// The request this reply answers.
        request: RequestId,
        /// What the operation returned when it executed.
        response: R,
    },
    /// This replica is not the leader; resubmit to the named replica.
    /// The hint is the leader of the redirecting replica's cluster view,
    /// so after a view change even an idle replica points at the new
    /// leader.
    Redirect {
        /// The request this reply answers.
        request: RequestId,
        /// The replica currently believed to lead, by id.
        leader: u32,
        /// The same replica's listening address — the authoritative hint,
        /// valid even if the client orders its address list differently.
        addr: SocketAddr,
    },
    /// Admission control: the leader *is* alive and *is* the leader, but
    /// its pending queue is full, so this submission was shed instead of
    /// queued. The right client response is to back off and retry the
    /// same request id *here* — rotating to another replica would only
    /// stampede a follower that redirects straight back.
    Overloaded {
        /// The request that was shed (not ordered, not applied).
        request: RequestId,
        /// The queue depth observed when shedding — a load signal the
        /// client can feed into its backoff.
        queued: u32,
    },
}

/// How long a replica keeps an unanswered client reply handle before
/// concluding the request was lost upstream (view change, deposed
/// leadership) and the client has long since retried elsewhere. Twice the
/// client's default overall submission budget.
const WAITER_TTL: Duration = Duration::from_secs(60);

const FRAME_PEER: u8 = 1;
const FRAME_REQUEST: u8 = 2;
const FRAME_APPLIED: u8 = 3;
const FRAME_REDIRECT: u8 = 4;
const FRAME_READ_REQUEST: u8 = 5;
const FRAME_READ_REPLY: u8 = 6;
const FRAME_CHECKPOINT_VOTE: u8 = 7;
const FRAME_STATE_REQUEST: u8 = 8;
const FRAME_STATE_REPLY: u8 = 9;
const FRAME_OVERLOADED: u8 = 10;

fn encode_addr(out: &mut Vec<u8>, addr: &SocketAddr) {
    put::var_bytes(out, addr.to_string().as_bytes());
}

fn decode_addr(r: &mut Reader<'_>) -> Result<SocketAddr, WireError> {
    std::str::from_utf8(r.var_bytes()?)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(WireError::BadCrypto("socket address"))
}

fn encode_request(out: &mut Vec<u8>, request: RequestId) {
    put::u64(out, request.client);
    put::u64(out, request.seq);
}

fn decode_request(r: &mut Reader<'_>) -> Result<RequestId, WireError> {
    Ok(RequestId {
        client: r.u64()?,
        seq: r.u64()?,
    })
}

impl<S: StateMachine> Wire for SmrFrame<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SmrFrame::Peer { from, msg } => {
                out.push(FRAME_PEER);
                put::u32(out, *from);
                msg.encode(out);
            }
            SmrFrame::Request { request, kind, op } => {
                out.push(FRAME_REQUEST);
                encode_request(out, *request);
                kind.encode(out);
                op.encode(out);
            }
            SmrFrame::Reply(SmrReply::Applied { request, response }) => {
                out.push(FRAME_APPLIED);
                encode_request(out, *request);
                response.encode(out);
            }
            SmrFrame::Reply(SmrReply::Redirect {
                request,
                leader,
                addr,
            }) => {
                out.push(FRAME_REDIRECT);
                encode_request(out, *request);
                put::u32(out, *leader);
                encode_addr(out, addr);
            }
            SmrFrame::Reply(SmrReply::Overloaded { request, queued }) => {
                out.push(FRAME_OVERLOADED);
                encode_request(out, *request);
                put::u32(out, *queued);
            }
            SmrFrame::ReadRequest {
                request,
                consistency,
                op,
            } => {
                out.push(FRAME_READ_REQUEST);
                encode_request(out, *request);
                consistency.encode(out);
                op.encode(out);
            }
            SmrFrame::ReadReply { request, response } => {
                out.push(FRAME_READ_REPLY);
                encode_request(out, *request);
                response.encode(out);
            }
            SmrFrame::CheckpointVote(vote) => {
                out.push(FRAME_CHECKPOINT_VOTE);
                vote.encode(out);
            }
            SmrFrame::StateRequest { from, req } => {
                out.push(FRAME_STATE_REQUEST);
                put::u32(out, *from);
                req.encode(out);
            }
            SmrFrame::StateReply { from, rep } => {
                out.push(FRAME_STATE_REPLY);
                put::u32(out, *from);
                rep.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            FRAME_PEER => {
                let from = r.u32()?;
                let msg = SlotMessage::decode(r)?;
                Ok(SmrFrame::Peer { from, msg })
            }
            FRAME_REQUEST => {
                let request = decode_request(r)?;
                let kind = OpKind::decode(r)?;
                let op = S::Op::decode(r)?;
                Ok(SmrFrame::Request { request, kind, op })
            }
            FRAME_APPLIED => {
                let request = decode_request(r)?;
                let response = S::Response::decode(r)?;
                Ok(SmrFrame::Reply(SmrReply::Applied { request, response }))
            }
            FRAME_REDIRECT => {
                let request = decode_request(r)?;
                let leader = r.u32()?;
                let addr = decode_addr(r)?;
                Ok(SmrFrame::Reply(SmrReply::Redirect {
                    request,
                    leader,
                    addr,
                }))
            }
            FRAME_OVERLOADED => {
                let request = decode_request(r)?;
                let queued = r.u32()?;
                Ok(SmrFrame::Reply(SmrReply::Overloaded { request, queued }))
            }
            FRAME_READ_REQUEST => {
                let request = decode_request(r)?;
                let consistency = Consistency::decode(r)?;
                let op = S::Op::decode(r)?;
                Ok(SmrFrame::ReadRequest {
                    request,
                    consistency,
                    op,
                })
            }
            FRAME_READ_REPLY => {
                let request = decode_request(r)?;
                let response = S::Response::decode(r)?;
                Ok(SmrFrame::ReadReply { request, response })
            }
            FRAME_CHECKPOINT_VOTE => Ok(SmrFrame::CheckpointVote(CheckpointVote::decode(r)?)),
            FRAME_STATE_REQUEST => {
                let from = r.u32()?;
                let req = StateRequest::decode(r)?;
                Ok(SmrFrame::StateRequest { from, req })
            }
            FRAME_STATE_REPLY => {
                let from = r.u32()?;
                let rep = StateReply::decode(r)?;
                Ok(SmrFrame::StateReply { from, rep })
            }
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// A nemesis rule for one directed replica-to-replica link.
///
/// Rules are *directed*: a rule on `(a, b)` affects only frames a sends
/// toward b, so asymmetric partitions (a cannot reach b, but b still
/// reaches a) are expressed by installing a rule on one direction only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkRule {
    /// Drop every frame on this link (a hard partition of the direction).
    pub drop: bool,
    /// Minimum added delivery latency per frame.
    pub delay_min: Duration,
    /// Maximum added delivery latency per frame. With `delay_max >
    /// delay_min` each frame's extra latency is drawn uniformly from the
    /// range by a deterministic per-frame hash — simnet's `Uniform` delay
    /// model ported to real sockets (jitter reorders frames exactly the
    /// way a real network would).
    pub delay_max: Duration,
}

impl LinkRule {
    /// A rule that drops everything on the link.
    pub fn blackhole() -> Self {
        LinkRule {
            drop: true,
            ..LinkRule::default()
        }
    }

    /// A rule adding `min..=max` of latency to every frame on the link.
    pub fn latency(min: Duration, max: Duration) -> Self {
        LinkRule {
            drop: false,
            delay_min: min,
            delay_max: max.max(min),
        }
    }
}

/// What the [`NetPolicy`] says to do with one outbound peer frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDecision {
    /// Write the frame now.
    Deliver,
    /// Discard the frame (partitioned link).
    Drop,
    /// Hold the frame and write it after the given delay.
    Delay(Duration),
}

/// Cluster-wide per-link fault rules, shared by every replica's event
/// loop and mutated live by the nemesis harness (via
/// [`LiveSmrCluster::set_link`] and friends). Only replica-to-replica
/// traffic consults it; client connections are outside its reach, exactly
/// like a real switch fabric sitting between the replicas.
#[derive(Debug, Default)]
pub struct NetPolicy {
    /// Directed link rules, by `(from, to)`.
    rules: Mutex<BTreeMap<(usize, usize), LinkRule>>,
    /// Frames discarded by drop rules.
    dropped: AtomicU64,
    /// Frames held back by latency rules.
    delayed: AtomicU64,
    /// Monotone per-frame counter feeding the deterministic jitter hash.
    frames: AtomicU64,
    /// Seed for the jitter hash (the cluster/nemesis seed).
    seed: AtomicU64,
}

impl NetPolicy {
    /// Installs `rule` on the directed link `from → to`.
    pub fn set_link(&self, from: usize, to: usize, rule: LinkRule) {
        if let Ok(mut rules) = self.rules.lock() {
            rules.insert((from, to), rule);
        }
    }

    /// Removes any rule on the directed link `from → to`.
    pub fn clear_link(&self, from: usize, to: usize) {
        if let Ok(mut rules) = self.rules.lock() {
            rules.remove(&(from, to));
        }
    }

    /// Removes every rule — the fully healed network.
    pub fn heal(&self) {
        if let Ok(mut rules) = self.rules.lock() {
            rules.clear();
        }
    }

    /// Frames discarded by drop rules so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Frames held back by latency rules so far.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::SeqCst)
    }

    /// Seeds the deterministic per-frame jitter hash.
    pub fn reseed(&self, seed: u64) {
        self.seed.store(seed, Ordering::SeqCst);
    }

    /// What to do with one frame on `from → to`, per the installed rules.
    /// Latency is sampled by hashing `(seed, from, to, frame counter)` —
    /// no shared RNG, so two runs with the same seed and the same send
    /// interleaving delay identically.
    pub fn decide(&self, from: usize, to: usize) -> LinkDecision {
        let rule = match self.rules.lock() {
            Ok(rules) => match rules.get(&(from, to)) {
                Some(rule) => *rule,
                None => return LinkDecision::Deliver,
            },
            Err(_) => return LinkDecision::Deliver,
        };
        if rule.drop {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            return LinkDecision::Drop;
        }
        if rule.delay_max.is_zero() {
            return LinkDecision::Deliver;
        }
        let n = self.frames.fetch_add(1, Ordering::SeqCst);
        let seed = self.seed.load(Ordering::SeqCst);
        let span = rule
            .delay_max
            .saturating_sub(rule.delay_min)
            .as_micros()
            .max(1) as u64;
        let jitter = Duration::from_micros(
            splitmix64(seed ^ (from as u64) << 40 ^ (to as u64) << 20 ^ n) % span,
        );
        self.delayed.fetch_add(1, Ordering::SeqCst);
        LinkDecision::Delay(rule.delay_min + jitter)
    }
}

/// SplitMix64 — the standard small deterministic mixer, here turning
/// (seed, link, frame index) into per-frame jitter without any shared RNG
/// state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What one replica held when the cluster was shut down.
#[derive(Clone, Debug)]
pub struct ReplicaReport<S: StateMachine = KvStore> {
    /// The replica's id.
    pub id: usize,
    /// Its *resident* decided entry log: the suffix above the stable
    /// checkpoint (the full log while checkpointing is off; identical
    /// across correct replicas up to truncation points).
    pub log: Vec<Entry<S::Op>>,
    /// Entries truncated below the stable checkpoint — the global index
    /// of `log[0]`.
    pub log_offset: u64,
    /// Running SHA-256 chain over every entry the replica ever applied;
    /// with [`total_log_len`](Self::total_log_len) it identifies the full
    /// logical log even after truncation.
    pub log_digest: Digest,
    /// Its application state.
    pub state: S,
    /// Per-slot consensus instances still heap-resident (bounded by the
    /// pipeline depth — decided slots are pruned on apply).
    pub resident_slots: usize,
    /// Messages its node rejected: bounded future-slot buffer drops plus
    /// invalid checkpoint traffic (forged votes, unverifiable state
    /// replies).
    pub dropped_messages: u64,
    /// Checkpoint / truncation / state-transfer counters.
    pub checkpoints: CheckpointStats,
    /// Client submissions this replica shed with an `Overloaded` reply
    /// (admission control; never ordered, never applied).
    pub shed_requests: u64,
    /// The largest batch this replica ever proposed — the adaptive
    /// batching loop's observed high-water mark.
    pub max_batch: usize,
    /// Final snapshot of the replica's `probft-obs` metrics registry:
    /// latency histograms (commit/decide/apply/recovery), attributable
    /// drop counters, frame byte counters, and gauges.
    pub metrics: MetricsSnapshot,
    /// The replica's flight-recorder journal at shutdown: the last
    /// `DEFAULT_JOURNAL_CAPACITY` consensus-phase events, with any
    /// nemesis fault markers interleaved on the same clock.
    pub journal: Vec<TraceEvent>,
}

impl<S: StateMachine> ReplicaReport<S> {
    /// Total entries the replica applied: truncated plus resident.
    pub fn total_log_len(&self) -> u64 {
        self.log_offset.saturating_add(self.log.len() as u64)
    }

    /// Folds every replica's metrics snapshot into one cluster-wide
    /// snapshot (labeled `cluster`): counters and histogram buckets add,
    /// so percentiles read over the union of all replicas' samples.
    pub fn aggregate_metrics(reports: &[ReplicaReport<S>]) -> MetricsSnapshot {
        aggregate(reports.iter().map(|r| &r.metrics))
    }
}

/// Builds a live TCP cluster that serves state-machine replication of any
/// [`StateMachine`] to [`SmrClient`](crate::SmrClient)s (default: the
/// reference [`KvStore`]).
///
/// ```no_run
/// use probft_runtime::LiveSmrBuilder;
///
/// let cluster = LiveSmrBuilder::new(4).start().unwrap();
/// let mut client = cluster.client(1);
/// client.put("greeting", "hello").unwrap();
/// let reports = cluster.shutdown();
/// assert!(reports.iter().all(|r| r.state.get("greeting") == Some("hello")));
/// ```
#[derive(Debug)]
pub struct LiveSmrBuilder<S: StateMachine = KvStore> {
    n: usize,
    seed: u64,
    base_port: Option<u16>,
    pipeline_depth: usize,
    batch_size: usize,
    checkpoint_interval: usize,
    adaptive_batching: bool,
    max_pending: usize,
    _machine: std::marker::PhantomData<S>,
}

impl LiveSmrBuilder<KvStore> {
    /// Starts building an `n`-replica live KV cluster on OS-assigned
    /// loopback ports, pipeline depth 4, batch size 8.
    pub fn new(n: usize) -> Self {
        Self::for_machine(n)
    }
}

impl<S: StateMachine> LiveSmrBuilder<S> {
    /// Starts building an `n`-replica live cluster replicating an
    /// arbitrary [`StateMachine`]
    /// (`LiveSmrBuilder::<MyMachine>::for_machine(n)`).
    pub fn for_machine(n: usize) -> Self {
        LiveSmrBuilder {
            n,
            seed: 1,
            base_port: None,
            pipeline_depth: 4,
            batch_size: 8,
            checkpoint_interval: 0,
            adaptive_batching: true,
            max_pending: 0,
            _machine: std::marker::PhantomData,
        }
    }

    /// Key-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses a fixed port range (replica `i` on `base_port + i`) instead of
    /// OS-assigned ports.
    pub fn base_port(mut self, port: u16) -> Self {
        self.base_port = Some(port);
        self
    }

    /// How many log slots run consensus concurrently.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Most pending entries the leader packs into one slot's batch. With
    /// adaptive batching (the default) this is only the light-load
    /// behaviour's reference point — deep queues grow batches past it.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Toggles adaptive batching (default on): batches are sized from the
    /// observed pending-queue depth — small under light load, growing
    /// past the static `batch_size` cap under a deep queue — instead of
    /// always packing a fixed-size slice.
    pub fn adaptive_batching(mut self, on: bool) -> Self {
        self.adaptive_batching = on;
        self
    }

    /// Admission-control cap: once a leader's pending queue holds this
    /// many entries, further client submissions are shed with an explicit
    /// [`SmrReply::Overloaded`] instead of queued (0 — the default —
    /// disables shedding). Clients back off and retry; the queue, and
    /// with it every queued client's latency, stays bounded.
    pub fn max_pending(mut self, cap: usize) -> Self {
        self.max_pending = cap;
        self
    }

    /// Takes a checkpoint every `interval` applied slots (0 disables —
    /// the default). Bounds every replica's resident command log to
    /// O(interval + pipeline depth) slots' worth of entries and lets a
    /// replica that fell behind the stable checkpoint catch up by
    /// snapshot transfer instead of stalling.
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Boots the replica threads and returns a handle serving clients.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Bind`] if a listener port cannot be bound.
    pub fn start(self) -> Result<LiveSmrCluster<S>, ClusterError> {
        // A generous base view timeout (250 ms wall time under the
        // tick-is-a-microsecond convention): loopback slots decide in
        // single-digit milliseconds, so view changes fire only on real
        // trouble, not on a loaded CI machine's scheduling hiccups.
        let cfg: SharedConfig = Arc::new(
            ProbftConfig::builder(self.n)
                .base_timeout(SimDuration::from_ticks(250_000))
                .build(),
        );
        let keyring = Keyring::generate(self.n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut settings = SmrSettings::live(self.pipeline_depth, self.batch_size);
        settings.checkpoint_interval = self.checkpoint_interval;
        settings.adaptive_batching = self.adaptive_batching;
        settings.max_pending = self.max_pending;

        let (listeners, addrs) = bind_listeners(self.n, self.base_port)?;
        let addrs = Arc::new(addrs);
        let watches: Vec<Arc<ReplicaWatch>> = (0..self.n).map(|_| Arc::default()).collect();
        let net = Arc::new(NetPolicy::default());
        net.reseed(self.seed);
        // One telemetry bundle per replica, created up front so the
        // cluster handle (and through it the nemesis) shares the exact
        // registry and journal the replica thread records into.
        let obs_handles: Vec<Arc<Obs>> = (0..self.n)
            .map(|i| Arc::new(Obs::new(format!("replica-{i}"))))
            .collect();

        let mut handles = Vec::with_capacity(self.n);
        // Zip the per-replica handles instead of indexing them: the loop
        // can then never panic, even if a future edit desynchronizes the
        // vector lengths (it would shorten the zip, and the keyring lookup
        // below reports that as a typed config error).
        let per_replica = listeners
            .into_iter()
            .zip(watches.iter().cloned())
            .zip(obs_handles.iter().cloned())
            .enumerate();
        for (i, ((listener, watch), obs)) in per_replica {
            let sk = keyring
                .signing_key(i)
                .map_err(|_| ClusterError::Config("keyring shorter than cluster size"))?
                .clone();
            let mut node: SmrNode<S> = SmrNode::new(
                cfg.clone(),
                ReplicaId::from(i),
                sk,
                public.clone(),
                Vec::new(), // no prebuilt workload: operations arrive from clients
                settings,
            );
            // Record into the bundle the cluster handle (and the nemesis)
            // shares.
            node.set_obs(obs.clone());
            let addrs = addrs.clone();
            let shutdown = shutdown.clone();
            let net = net.clone();
            handles.push(thread::spawn(move || {
                smr_replica_main(i, addrs, listener, node, shutdown, watch, net, obs)
            }));
        }

        Ok(LiveSmrCluster {
            addrs,
            shutdown,
            handles,
            watches,
            net,
            keyring,
            obs: obs_handles,
        })
    }
}

/// A running live SMR cluster. Dropping without calling
/// [`shutdown`](Self::shutdown) detaches the replica threads; call
/// `shutdown` to stop them and collect their final logs and states.
#[derive(Debug)]
pub struct LiveSmrCluster<S: StateMachine = KvStore> {
    addrs: Arc<Vec<SocketAddr>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<ReplicaReport<S>>>,
    /// What each replica thread publishes to (and takes from) the handle.
    watches: Vec<Arc<ReplicaWatch>>,
    /// Per-link network fault policy every replica's outbound path
    /// consults (fault injection: partitions, latency, jitter).
    net: Arc<NetPolicy>,
    /// The cluster's keyring (fault injection: lets a live Byzantine
    /// agent sign protocol-valid equivocation with a real replica's key —
    /// the deployment-secret analogue of the sim's in-process adversary).
    keyring: Keyring,
    /// Per-replica telemetry bundles — the same ones the replica threads
    /// record into, so the nemesis can inject fault markers and tests can
    /// watch histograms fill while the cluster runs.
    obs: Vec<Arc<Obs>>,
}

impl<S: StateMachine> LiveSmrCluster<S> {
    /// The replicas' listening addresses, indexed by replica id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Creates a client for this cluster. `client_id` must be unique among
    /// concurrently submitting clients — it namespaces request ids.
    pub fn client(&self, client_id: u64) -> crate::client::SmrClient<S> {
        crate::client::SmrClient::new(self.addrs.to_vec(), client_id)
    }

    /// Per-replica applied-log lengths right now (indexed by replica id).
    pub fn applied_lens(&self) -> Vec<u64> {
        self.watches
            .iter()
            .map(|w| w.applied_len.load(Ordering::SeqCst))
            .collect()
    }

    /// Stalls replica `i`: it stops firing timers, sends nothing, and
    /// discards everything it receives — indistinguishable from a crash
    /// or partition to the rest of the cluster. Fault injection for
    /// tests and experiments; a no-op for out-of-range ids.
    pub fn pause(&self, i: usize) {
        if let Some(w) = self.watches.get(i) {
            w.paused.store(true, Ordering::SeqCst);
        }
    }

    /// Un-stalls replica `i`. The replica resumes with whatever state it
    /// had when paused and at once asks its peers for what it missed: the
    /// stable checkpoint if the cluster moved past one, and the peers'
    /// retained messages for the slots above it.
    pub fn resume(&self, i: usize) {
        if let Some(w) = self.watches.get(i) {
            w.paused.store(false, Ordering::SeqCst);
        }
    }

    /// Whether replica `i` is currently [`pause`](Self::pause)d (false
    /// for out-of-range ids).
    pub fn is_paused(&self, i: usize) -> bool {
        self.watches
            .get(i)
            .is_some_and(|w| w.paused.load(Ordering::SeqCst))
    }

    /// The per-link network fault policy: drop rules build (asymmetric)
    /// partitions, latency rules inject deterministic jitter. Every
    /// replica's outbound peer path consults it; client connections are
    /// deliberately unaffected (the nemesis attacks the cluster, not the
    /// observer).
    pub fn net(&self) -> &NetPolicy {
        &self.net
    }

    /// The id the (unpaused) cluster currently believes leads: the
    /// plurality of the replicas' published beliefs, ties broken low.
    /// Transiently stale mid-view-change — callers targeting "the leader"
    /// get whoever most of the cluster would redirect a client to.
    pub fn current_leader(&self) -> usize {
        let mut votes: BTreeMap<u64, usize> = BTreeMap::new();
        for w in &self.watches {
            if !w.paused.load(Ordering::SeqCst) {
                *votes.entry(w.leader.load(Ordering::SeqCst)).or_default() += 1;
            }
        }
        votes
            .into_iter()
            .max_by_key(|&(id, count)| (count, std::cmp::Reverse(id)))
            .map(|(id, _)| id as usize)
            .unwrap_or(0)
    }

    /// Replica `i`'s telemetry bundle — the exact registry and journal
    /// its thread records into, live (None for out-of-range ids).
    pub fn obs(&self, i: usize) -> Option<Arc<Obs>> {
        self.obs.get(i).cloned()
    }

    /// Every replica's telemetry bundle, indexed by replica id.
    pub fn obs_handles(&self) -> &[Arc<Obs>] {
        &self.obs
    }

    /// Journals a nemesis fault marker on every replica's flight
    /// recorder. With `kill` set the marker also arms each replica's
    /// recovery-latency clock: its first applied slot that opened after
    /// the fault and decided in a later view records the fault→progress
    /// time into the `recovery_latency_us` histogram — the
    /// post-leader-kill view-change recovery cost.
    pub fn note_fault(&self, fault: &str, kill: bool) {
        for obs in &self.obs {
            if kill {
                obs.mark_fault(fault);
            } else {
                obs.trace(TraceKind::FaultStart {
                    fault: fault.to_string(),
                });
            }
        }
    }

    /// Journals the lifting of a nemesis fault on every replica's flight
    /// recorder (the recovery clock, if armed, stays armed: recovery
    /// means commit progress, not fault removal).
    pub fn note_fault_lifted(&self, fault: &str) {
        for obs in &self.obs {
            obs.mark_fault_lifted(fault);
        }
    }

    /// The cluster's full keyring. Fault-injection surface: a nemesis
    /// uses a replica's signing key to forge protocol-valid Byzantine
    /// traffic (equivocating proposals, far-future wish spray) exactly
    /// like the sim's in-process adversaries — the live analogue of a
    /// compromised deployment secret.
    pub fn keyring(&self) -> &Keyring {
        &self.keyring
    }

    /// Stops every replica thread and returns what each one held, in
    /// replica-id order.
    ///
    /// The leader answers a client as soon as *it* applies, so at the
    /// moment the last reply arrives the followers may still be a few
    /// commit deliveries behind. Before raising the shutdown flag this
    /// waits (bounded) for quiescence — every replica at the same applied
    /// length, unchanged for a quiet period — so callers that stopped
    /// submitting observe identical logs everywhere. Replicas left
    /// [`pause`](Self::pause)d are excluded from the wait (they cannot
    /// make progress by definition).
    pub fn shutdown(self) -> Vec<ReplicaReport<S>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stable: Option<(Vec<u64>, Instant)> = None;
        while Instant::now() < deadline {
            let lens: Vec<u64> = self
                .watches
                .iter()
                .filter(|w| !w.paused.load(Ordering::SeqCst))
                .map(|w| w.applied_len.load(Ordering::SeqCst))
                .collect();
            let all_equal = lens.iter().zip(lens.iter().skip(1)).all(|(a, b)| a == b);
            match &stable {
                Some((prev, since)) if *prev == lens => {
                    if all_equal && since.elapsed() >= Duration::from_millis(250) {
                        break;
                    }
                }
                _ => stable = Some((lens, Instant::now())),
            }
            crate::pacing::pause(crate::pacing::QUIESCE_POLL);
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let mut reports: Vec<ReplicaReport<S>> = self
            .handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect();
        reports.sort_by_key(|r| r.id);
        reports
    }
}

/// How many client contacts a non-leading replica absorbs, without any
/// log progress in between, before probing a slot open to force the
/// view-change machinery to run. Covers the idle-leader-crash case:
/// clients keep arriving, every redirect points at the silent leader of
/// the cluster view, and nothing would ever time out because no slot is
/// in flight anywhere.
const FOLLOWER_PROBE_CONTACTS: u32 = 3;

/// What a live replica thread shares with the cluster handle.
#[derive(Debug, Default)]
struct ReplicaWatch {
    /// Applied-log length, for the quiescence wait at shutdown.
    applied_len: AtomicU64,
    /// Fault injection: a paused replica drops everything it receives and
    /// sends nothing, like a partitioned or stalled process.
    paused: AtomicBool,
    /// Current-leader belief, published every event-loop turn (lets a
    /// nemesis target "the leader").
    leader: AtomicU64,
}

/// Inbound events to a live SMR replica's event loop.
pub(crate) enum SmrEvent<S: StateMachine> {
    /// Consensus or checkpoint traffic from a peer replica.
    Peer(ProcessId, SmrMessage),
    /// A client submission to be ordered, with the write half of its
    /// connection for the eventual reply.
    Request {
        request: RequestId,
        kind: OpKind,
        op: S::Op,
        reply: ReplyHandle,
    },
    /// A consensus-bypassing client read.
    Read {
        request: RequestId,
        consistency: Consistency,
        op: S::Op,
        reply: ReplyHandle,
    },
}

/// The live wire format: self-describing [`SmrFrame`]s, so replicas and
/// clients share one listener port.
#[derive(Clone)]
pub(crate) struct SmrCodec<S> {
    n: usize,
    _machine: PhantomData<fn() -> S>,
}

impl<S> SmrCodec<S> {
    /// The codec of an `n`-replica cluster (sender ids at or above `n`
    /// are malformed).
    pub(crate) fn new(n: usize) -> Self {
        SmrCodec {
            n,
            _machine: PhantomData,
        }
    }
}

impl<S: StateMachine> Codec for SmrCodec<S> {
    type Msg = SmrMessage;
    type Event = SmrEvent<S>;
    const OUT_KINDS: &'static [&'static str] = &["peer", "checkpoint", "state"];
    const IN_KINDS: &'static [&'static str] = &["peer", "request", "read", "checkpoint", "state"];

    fn encode(&self, from: usize, msg: SmrMessage) -> (&'static str, Vec<u8>) {
        let from = from as u32;
        let (kind, frame) = match msg {
            SmrMessage::Slot(msg) => ("peer", SmrFrame::<S>::Peer { from, msg }),
            SmrMessage::CheckpointVote(vote) => ("checkpoint", SmrFrame::CheckpointVote(vote)),
            SmrMessage::StateRequest(req) => ("state", SmrFrame::StateRequest { from, req }),
            SmrMessage::StateReply(rep) => ("state", SmrFrame::StateReply { from, rep }),
        };
        (kind, frame.to_wire_bytes())
    }

    fn decode(&self, frame: &[u8], reply: &ReplyHandle) -> Option<(&'static str, SmrEvent<S>)> {
        // Peer traffic must name a sender inside the cluster.
        let peer = |from: usize, msg| (from < self.n).then(|| SmrEvent::Peer(ProcessId(from), msg));
        Some(match SmrFrame::<S>::from_wire_bytes(frame).ok()? {
            SmrFrame::Peer { from, msg } => ("peer", peer(from as usize, SmrMessage::Slot(msg))?),
            // Checkpoint traffic: votes authenticate themselves (the node
            // checks the Schnorr signature); requests and replies carry the
            // sender id for reply routing, and a forged reply is discarded
            // by the digest check against the attested quorum.
            SmrFrame::CheckpointVote(vote) => {
                let from = vote.from.index();
                ("checkpoint", peer(from, SmrMessage::CheckpointVote(vote))?)
            }
            SmrFrame::StateRequest { from, req } => {
                ("state", peer(from as usize, SmrMessage::StateRequest(req))?)
            }
            SmrFrame::StateReply { from, rep } => {
                ("state", peer(from as usize, SmrMessage::StateReply(rep))?)
            }
            SmrFrame::Request { request, kind, op } => {
                let reply = reply.clone();
                (
                    "request",
                    SmrEvent::Request {
                        request,
                        kind,
                        op,
                        reply,
                    },
                )
            }
            // A linearizable read *is* an ordered request (a read-kind
            // entry): rewrite it here so the event loop serves it through
            // the one request path — dedup, reply cache, waiting map and
            // all.
            SmrFrame::ReadRequest {
                request,
                consistency: Consistency::Linearizable,
                op,
            } => {
                let reply = reply.clone();
                let kind = OpKind::Read;
                (
                    "read",
                    SmrEvent::Request {
                        request,
                        kind,
                        op,
                        reply,
                    },
                )
            }
            SmrFrame::ReadRequest {
                request,
                consistency,
                op,
            } => {
                let reply = reply.clone();
                (
                    "read",
                    SmrEvent::Read {
                        request,
                        consistency,
                        op,
                        reply,
                    },
                )
            }
            // Replies sent *to* a replica are malformed input.
            SmrFrame::Reply(_) | SmrFrame::ReadReply { .. } => return None,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn smr_replica_main<S: StateMachine>(
    id: usize,
    addrs: Arc<Vec<SocketAddr>>,
    listener: TcpListener,
    mut node: SmrNode<S>,
    shutdown: Arc<AtomicBool>,
    watch: Arc<ReplicaWatch>,
    net: Arc<NetPolicy>,
    obs: Arc<Obs>,
) -> ReplicaReport<S> {
    let n = addrs.len();
    let codec = SmrCodec::<S>::new(n);
    // The loop keeps its own sender, so the channel never disconnects
    // under it, even if the accept thread stops.
    let (event_tx, event_rx) = mpsc::channel();
    let inbound = Inbound::accept(
        listener,
        codec.clone(),
        event_tx.clone(),
        shutdown.clone(),
        obs.clone(),
    );
    let mut driver = Driver::new(
        id,
        addrs.clone(),
        codec,
        net,
        obs.clone(),
        0x11FE ^ id as u64,
    );
    // Points a client at the leader of this replica's cluster view, by id
    // and address.
    let redirect = |node: &SmrNode<S>, reply: &ReplyHandle, request: RequestId| {
        let leader = node.current_leader().index();
        // `% n` keeps the index in range for any sane `addrs`; `.get`
        // degrades an impossible empty list to a redirect the client
        // treats as unreachable, instead of panicking the replica.
        let addr = addrs
            .get(leader % n.max(1))
            .copied()
            .unwrap_or_else(unusable_addr);
        let leader = leader as u32;
        send::<S>(
            reply,
            SmrFrame::Reply(SmrReply::Redirect {
                request,
                leader,
                addr,
            }),
        );
        obs.redirects_served.inc();
        obs.trace(TraceKind::RedirectServed {
            leader: u64::from(leader),
        });
    };
    // Clients awaiting a post-apply reply, by request id, with the time
    // each entry was (last) registered.
    let mut waiting: BTreeMap<RequestId, (ReplyHandle, Instant)> = BTreeMap::new();

    // Start the node (in live mode this opens no slots until traffic
    // arrives).
    driver.step(|ctx| node.on_start(ctx));

    // Follower probing (the idle-leader-crash escape hatch): client
    // contacts answered with a redirect since the log last advanced.
    let mut unserved_contacts: u32 = 0;
    let mut last_progress: u64 = 0;
    // Admission control: submissions answered `Overloaded` instead of
    // queued because the pending queue was at its cap.
    let mut shed_requests: u64 = 0;

    let mut was_paused = false;
    while !shutdown.load(Ordering::SeqCst) {
        if watch.paused.load(Ordering::SeqCst) {
            // Fault injection: a paused replica is a partitioned process.
            // Discard whatever arrives, fire nothing, send nothing.
            while event_rx.try_recv().is_ok() {}
            crate::pacing::pause(crate::pacing::PAUSED_POLL);
            was_paused = true;
            continue;
        }
        if was_paused {
            // Back from a pause: the cluster may have moved on, and an
            // idle cluster sends nothing that would tell us. Ask.
            was_paused = false;
            driver.step(|ctx| node.catch_up(ctx));
        }
        driver.fire_due(&mut node);
        match event_rx.recv_timeout(driver.wait()) {
            Ok(SmrEvent::Peer(from, msg)) => driver.step(|ctx| node.on_message(from, msg, ctx)),
            Ok(SmrEvent::Request {
                request,
                kind,
                op,
                reply,
            }) => {
                if node.current_leader().index() != id {
                    // Not the leader: point the client at who is. Counted
                    // toward the follower probe (checked once per loop
                    // turn, below).
                    redirect(&node, &reply, request);
                    unserved_contacts += 1;
                } else if let Some(response) = node.cached_response(request).cloned() {
                    // A retry of something already applied: answer from
                    // the reply cache without re-ordering it
                    // (at-most-once).
                    send::<S>(
                        &reply,
                        SmrFrame::Reply(SmrReply::Applied { request, response }),
                    );
                } else if node.overloaded() && !waiting.contains_key(&request) {
                    // Admission control: the pending queue is at its cap,
                    // so shed this submission with an explicit signal
                    // instead of letting the queue (and every queued
                    // client's latency) grow without bound. The client
                    // backs off and retries here — rotating to a follower
                    // would only earn a redirect straight back. Retries of
                    // an entry already queued are exempt: refusing those
                    // would orphan their reply handle.
                    shed_requests += 1;
                    obs.shed_requests.inc();
                    obs.trace(TraceKind::OverloadShed);
                    let queued = node.pending_len().min(u32::MAX as usize) as u32;
                    send::<S>(
                        &reply,
                        SmrFrame::Reply(SmrReply::Overloaded { request, queued }),
                    );
                } else {
                    // Accept: remember who to answer, feed the entry into
                    // the pending queue. Duplicate in-flight retries just
                    // refresh the reply handle; the decided log's dedup
                    // keeps execution at-most-once.
                    waiting.insert(request, (reply, Instant::now()));
                    let entry = Entry {
                        request: Some(request),
                        kind,
                        op,
                    };
                    driver.step(|ctx| node.submit(entry, ctx));
                }
            }
            // Consensus-bypassing reads only (the codec rewrites a
            // linearizable read into an ordered `Request`). A local read
            // is served by any replica; a leader read only by the replica
            // that believes it leads, redirecting otherwise — exactly like
            // a write. Queries run here, between whole-batch applies on
            // this thread, so the observation is stale-at-worst, never
            // torn.
            Ok(SmrEvent::Read {
                request,
                consistency,
                op,
                reply,
            }) => {
                if consistency == Consistency::Local || node.current_leader().index() == id {
                    let response = node.query(&op);
                    send::<S>(&reply, SmrFrame::ReadReply { request, response });
                } else {
                    // A leader read bounced off a silent leader is client
                    // contact too — it must count toward the probe, or an
                    // idle dead-leader cluster would serve writes but
                    // starve reads forever.
                    redirect(&node, &reply, request);
                    unserved_contacts += 1;
                }
            }
            Err(_) => {}
        }

        // Clients keep arriving but the leader every redirect names never
        // orders anything: after a few contacts with no log progress,
        // probe a slot open so the view-change timers run and the next
        // decision repoints every hint at a live leader. (A spurious
        // probe on a healthy cluster costs one empty slot.)
        if unserved_contacts >= FOLLOWER_PROBE_CONTACTS {
            driver.step(|ctx| {
                node.probe_open(ctx);
            });
            unserved_contacts = 0;
        }

        // Answer every client whose entry reached the applied log, with
        // the typed response its operation produced.
        for applied in node.drain_applied() {
            if let Some((reply, since)) = waiting.remove(&applied.request) {
                // Receive → applied-and-answered at this replica: the
                // server-side commit latency the paper's probabilistic
                // latency claims are about.
                obs.commit_latency_us
                    .record(since.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let (request, response) = (applied.request, applied.response);
                send::<S>(
                    &reply,
                    SmrFrame::Reply(SmrReply::Applied { request, response }),
                );
            }
        }
        // Forget waiters whose entry never reached the log (e.g. lost
        // to a view change before being re-proposed): past the client's
        // retry budget nobody reads the handle any more, and keeping it
        // would pin the connection forever.
        if !waiting.is_empty() {
            waiting.retain(|_, (_, since)| since.elapsed() < WAITER_TTL);
        }
        let total = node.total_log_len();
        if total != last_progress {
            last_progress = total;
            unserved_contacts = 0;
        }
        watch.applied_len.store(total, Ordering::SeqCst);
        // Publish who this replica currently believes leads, so the
        // nemesis layer can target "the leader" without guessing.
        watch
            .leader
            .store(node.current_leader().index() as u64, Ordering::SeqCst);
    }

    // Join the accept loop and every reader before reporting, so shutdown
    // leaves no running threads behind.
    inbound.join();

    ReplicaReport {
        id,
        log: node.log().to_vec(),
        log_offset: node.log_offset(),
        log_digest: node.log_digest(),
        state: node.state().clone(),
        resident_slots: node.resident_slots(),
        dropped_messages: node.dropped_messages(),
        checkpoints: node.checkpoint_stats(),
        shed_requests,
        max_batch: node.max_batch_proposed(),
        metrics: obs.snapshot(),
        journal: obs.journal().snapshot(),
    }
}

/// Writes one frame to a client connection, ignoring failures (a vanished
/// client simply never reads its answer; the state machine is already
/// consistent).
fn send<S: StateMachine>(conn: &ReplyHandle, frame: SmrFrame<S>) {
    let bytes = frame.to_wire_bytes();
    if let Ok(mut stream) = conn.lock() {
        let _ = write_frame(&mut *stream, &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_smr::{Command, KvResponse};

    fn sample_request() -> RequestId {
        RequestId { client: 3, seq: 9 }
    }

    #[test]
    fn frame_round_trips() {
        let frames: Vec<SmrFrame<KvStore>> = vec![
            SmrFrame::Request {
                request: sample_request(),
                kind: OpKind::Write,
                op: Command::Put {
                    key: "k".into(),
                    value: "v".into(),
                },
            },
            SmrFrame::Request {
                request: sample_request(),
                kind: OpKind::Read,
                op: Command::Get { key: "k".into() },
            },
            SmrFrame::Reply(SmrReply::Applied {
                request: sample_request(),
                response: KvResponse::Prev(Some("old".into())),
            }),
            SmrFrame::Reply(SmrReply::Redirect {
                request: sample_request(),
                leader: 2,
                addr: "127.0.0.1:4242".parse().unwrap(),
            }),
            SmrFrame::ReadRequest {
                request: sample_request(),
                consistency: Consistency::Local,
                op: Command::Get { key: "k".into() },
            },
            SmrFrame::ReadRequest {
                request: sample_request(),
                consistency: Consistency::Leader,
                op: Command::Get { key: "k".into() },
            },
            SmrFrame::ReadReply {
                request: sample_request(),
                response: KvResponse::Value(None),
            },
            {
                let keyring = probft_crypto::keyring::Keyring::generate(4, b"frame-tests");
                SmrFrame::CheckpointVote(CheckpointVote::sign(
                    keyring.signing_key(2).unwrap(),
                    ReplicaId(2),
                    64,
                    probft_crypto::sha256::Sha256::digest(b"snapshot"),
                ))
            },
            SmrFrame::StateRequest {
                from: 3,
                req: StateRequest { min_slot: 64 },
            },
            SmrFrame::StateReply {
                from: 1,
                rep: StateReply {
                    slot: 64,
                    snapshot: vec![1, 2, 3, 4],
                    certificate: {
                        let keyring = probft_crypto::keyring::Keyring::generate(4, b"frame-tests");
                        let digest = probft_crypto::sha256::Sha256::digest(b"snapshot");
                        (0..3)
                            .map(|i| {
                                CheckpointVote::sign(
                                    keyring.signing_key(i).unwrap(),
                                    ReplicaId::from(i),
                                    64,
                                    digest,
                                )
                            })
                            .collect()
                    },
                },
            },
        ];
        for frame in frames {
            let bytes = frame.to_wire_bytes();
            assert_eq!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn garbage_frames_rejected() {
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&[]).is_err());
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&[0xFF, 1, 2, 3]).is_err());
        // A peer frame with a truncated slot message.
        let mut bytes = vec![FRAME_PEER];
        put::u32(&mut bytes, 0);
        put::u64(&mut bytes, 7);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A read request with a bad consistency tag.
        let mut bytes = vec![FRAME_READ_REQUEST];
        put::u64(&mut bytes, 3);
        put::u64(&mut bytes, 9);
        bytes.push(7); // no such tier
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A redirect whose address bytes are not an address.
        let mut bytes = vec![FRAME_REDIRECT];
        put::u64(&mut bytes, 3);
        put::u64(&mut bytes, 9);
        put::u32(&mut bytes, 1);
        put::var_bytes(&mut bytes, b"not-an-addr");
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A checkpoint vote too short to hold a signature.
        let mut bytes = vec![FRAME_CHECKPOINT_VOTE];
        put::u32(&mut bytes, 1);
        put::u64(&mut bytes, 64);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A state reply whose snapshot length prefix overruns the frame.
        let mut bytes = vec![FRAME_STATE_REPLY];
        put::u32(&mut bytes, 1);
        put::u64(&mut bytes, 64);
        put::u64(&mut bytes, 1_000_000);
        bytes.push(0xAB);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
    }
}
