//! Thread-per-replica TCP cluster running one single-shot ProBFT
//! instance to decision.
//!
//! Each replica thread drives the unmodified [`Replica`] on the shared
//! socket driver: its own listener (an OS-assigned loopback port by
//! default, or `127.0.0.1:base_port + id` when a fixed range is
//! requested), a deadline-driven timer loop, and lazy outgoing connections
//! to its peers. Frames carry `u32 sender ‖ message bytes`; the replica's
//! own cryptographic verification decides what to trust, exactly as in the
//! simulator. Malformed peer input never panics a reader thread — short,
//! undecodable, and torn frames are dropped and counted in the replica's
//! `frames_malformed` / `frames_torn` metrics.

use crate::driver::{aggregate, bind_listeners, Codec, Driver, Inbound, ReplyHandle};
use probft_core::config::{ProbftConfig, SharedConfig};
use probft_core::message::Message;
use probft_core::replica::{Decision, Replica};
use probft_core::value::Value;
use probft_core::wire::Wire;
use probft_crypto::keyring::Keyring;
use probft_obs::{MetricsSnapshot, Obs};
use probft_quorum::ReplicaId;
use probft_simnet::process::{Process, ProcessId};
use std::error::Error;
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Why an inbound frame was rejected before reaching the replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameReject {
    /// Shorter than the 4-byte sender prefix.
    Short,
    /// Sender id out of range or undecodable message body.
    Malformed,
}

/// Decodes `u32 sender ‖ message bytes` without any panicking slice or
/// conversion — every byte here is peer-controlled.
fn parse_peer_frame(frame: &[u8], n: usize) -> Result<(ProcessId, Message), FrameReject> {
    match frame {
        [a, b, c, d, rest @ ..] => {
            let from = u32::from_be_bytes([*a, *b, *c, *d]) as usize;
            if from >= n {
                return Err(FrameReject::Malformed);
            }
            let msg = Message::from_wire_bytes(rest).map_err(|_| FrameReject::Malformed)?;
            Ok((ProcessId(from), msg))
        }
        _ => Err(FrameReject::Short),
    }
}

/// The single-shot wire format: `u32 sender ‖ message bytes`, peers only.
#[derive(Clone, Copy, Debug)]
struct PeerCodec {
    /// Cluster size; sender ids at or above it are malformed.
    n: usize,
}

impl Codec for PeerCodec {
    type Msg = Message;
    type Event = (ProcessId, Message);
    const OUT_KINDS: &'static [&'static str] = &["peer"];
    const IN_KINDS: &'static [&'static str] = &["peer"];

    fn encode(&self, from: usize, msg: Message) -> (&'static str, Vec<u8>) {
        let mut frame = (from as u32).to_be_bytes().to_vec();
        msg.encode(&mut frame);
        ("peer", frame)
    }

    fn decode(&self, frame: &[u8], _reply: &ReplyHandle) -> Option<(&'static str, Self::Event)> {
        // Short and undecodable frames are both malformed input here.
        parse_peer_frame(frame, self.n)
            .ok()
            .map(|event| ("peer", event))
    }
}

/// Errors from running a live cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A listener could not bind (port in use?).
    Bind(std::io::Error),
    /// Not all replicas decided within the configured deadline.
    Timeout {
        /// How many decisions arrived in time.
        decided: usize,
        /// Cluster size.
        n: usize,
    },
    /// The cluster was misconfigured (e.g. a keyring shorter than `n`).
    /// Surfaced as a typed error so setup bugs fail the run, not the
    /// process.
    Config(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Bind(e) => write!(f, "failed to bind listener: {e}"),
            ClusterError::Timeout { decided, n } => {
                write!(f, "only {decided}/{n} replicas decided before the deadline")
            }
            ClusterError::Config(what) => write!(f, "cluster misconfigured: {what}"),
        }
    }
}

impl Error for ClusterError {}

/// Builds and runs a localhost TCP ProBFT cluster.
///
/// By default every replica binds an OS-assigned loopback port (bind to
/// port 0, then read the actual address), so parallel test runs and
/// occupied ports cannot collide; [`base_port`](Self::base_port) opts into
/// a fixed range when externally-known addresses are needed.
#[derive(Debug)]
pub struct ClusterBuilder {
    n: usize,
    base_port: Option<u16>,
    seed: u64,
    deadline: Duration,
}

impl ClusterBuilder {
    /// Starts building an `n`-replica cluster on OS-assigned ports.
    pub fn new(n: usize) -> Self {
        ClusterBuilder {
            n,
            base_port: None,
            seed: 1,
            deadline: Duration::from_secs(30),
        }
    }

    /// Uses a fixed port range instead of OS-assigned ports; replica `i`
    /// listens on `base_port + i`.
    pub fn base_port(mut self, port: u16) -> Self {
        self.base_port = Some(port);
        self
    }

    /// Key-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overall deadline for all replicas to decide.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Runs the cluster to decision on every replica.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Bind`] if a port cannot be bound,
    /// [`ClusterError::Timeout`] if the deadline passes first.
    pub fn run(self) -> Result<Vec<Decision>, ClusterError> {
        self.run_with_stats().map(|(decisions, _)| decisions)
    }

    /// Like [`run`](Self::run), additionally returning the cluster-wide
    /// metrics snapshot: every replica's `probft-obs` registry folded into
    /// one (frame byte counters, rejected-frame counters), for
    /// observability and malformed-peer tests.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_stats(self) -> Result<(Vec<Decision>, MetricsSnapshot), ClusterError> {
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(self.n).build());
        let keyring = Keyring::generate(self.n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (decision_tx, decision_rx) = mpsc::channel::<(usize, Decision)>();

        // Bind all listeners up front (collecting the OS-assigned
        // addresses) so peers can connect immediately.
        let (listeners, addrs) = bind_listeners(self.n, self.base_port)?;
        let addrs = Arc::new(addrs);
        let obs: Vec<Arc<Obs>> = (0..self.n)
            .map(|i| Arc::new(Obs::new(format!("replica-{i}"))))
            .collect();

        let mut handles = Vec::with_capacity(self.n);
        for (i, (listener, obs)) in listeners.into_iter().zip(obs.iter().cloned()).enumerate() {
            let sk = keyring
                .signing_key(i)
                .map_err(|_| ClusterError::Config("keyring shorter than cluster size"))?
                .clone();
            let replica = Replica::new(
                cfg.clone(),
                ReplicaId::from(i),
                sk,
                public.clone(),
                Value::from_tag(i as u64),
            );
            let addrs = addrs.clone();
            let shutdown = shutdown.clone();
            let decision_tx = decision_tx.clone();
            handles.push(thread::spawn(move || {
                decide_and_report(i, addrs, listener, replica, shutdown, obs, decision_tx)
            }));
        }
        drop(decision_tx);

        // Collect decisions until the deadline.
        let start = Instant::now();
        let mut decisions: Vec<Option<Decision>> = vec![None; self.n];
        let mut decided = 0usize;
        while decided < self.n {
            let remaining = self
                .deadline
                .checked_sub(start.elapsed())
                .unwrap_or(Duration::ZERO);
            match decision_rx.recv_timeout(remaining.max(Duration::from_millis(1))) {
                Ok((id, d)) => {
                    // `id` comes off a channel; index fallibly so a buggy
                    // sender cannot panic the collector.
                    if let Some(slot @ None) = decisions.get_mut(id) {
                        *slot = Some(d);
                        decided += 1;
                    }
                }
                Err(_) if start.elapsed() >= self.deadline => break,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        shutdown.store(true, Ordering::SeqCst);
        for h in handles {
            let _ = h.join();
        }

        // A partially-decided run must surface as the typed timeout error,
        // never as a panic: collect fallibly instead of `expect`ing, and
        // count from the actual slots so a miscounted `decided` cannot
        // reach an unwrap path.
        let done: Vec<Decision> = decisions.into_iter().flatten().collect();
        if done.len() < self.n {
            return Err(ClusterError::Timeout {
                decided: done.len(),
                n: self.n,
            });
        }
        let snapshots: Vec<MetricsSnapshot> = obs.iter().map(|o| o.snapshot()).collect();
        Ok((done, aggregate(&snapshots)))
    }
}

/// One replica thread: drive the replica until shutdown, reporting its
/// decision once.
fn decide_and_report(
    id: usize,
    addrs: Arc<Vec<SocketAddr>>,
    listener: TcpListener,
    mut replica: Replica,
    shutdown: Arc<AtomicBool>,
    obs: Arc<Obs>,
    decision_tx: mpsc::Sender<(usize, Decision)>,
) {
    let codec = PeerCodec { n: addrs.len() };
    // The loop keeps its own sender, so the channel never disconnects
    // under it, even if the accept thread stops.
    let (event_tx, event_rx) = mpsc::channel();
    let inbound = Inbound::accept(
        listener,
        codec,
        event_tx.clone(),
        shutdown.clone(),
        obs.clone(),
    );
    let mut driver = Driver::new(id, addrs, codec, Arc::default(), obs, 0xC1A5 ^ id as u64);
    driver.step(|ctx| replica.on_start(ctx));
    let mut reported = false;
    while !shutdown.load(Ordering::SeqCst) {
        driver.fire_due(&mut replica);
        if let Ok((from, msg)) = event_rx.recv_timeout(driver.wait()) {
            driver.step(|ctx| replica.on_message(from, msg, ctx));
        }
        if !reported {
            if let Some(d) = replica.decision() {
                reported = true;
                let _ = decision_tx.send((id, d.clone()));
            }
        }
    }
    inbound.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::read_loop;
    use crate::live::SmrCodec;
    use crate::transport::write_frame;
    use probft_smr::KvStore;
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::Mutex;

    #[test]
    fn five_replica_cluster_decides() {
        // Default OS-assigned ports: no fixed range, no collisions under
        // parallel test runs.
        let (decisions, metrics) = ClusterBuilder::new(5)
            .deadline(Duration::from_secs(30))
            .run_with_stats()
            .expect("cluster decides");
        assert_eq!(decisions.len(), 5);
        let first = decisions[0].value.digest();
        assert!(
            decisions.iter().all(|d| d.value.digest() == first),
            "agreement over TCP"
        );
        // Replica 0 leads view 1 and proposes its own value.
        assert_eq!(decisions[0].value, Value::from_tag(0));
        // Honest peers produce no rejected frames, and every replica's
        // outbound peer bytes land in the cluster-wide snapshot.
        assert_eq!(metrics.label(), "cluster");
        assert_eq!(metrics.counter("frames_malformed"), 0);
        assert!(metrics.counter_total("frame_bytes_out") > 0);
    }

    #[test]
    fn bind_conflict_reported() {
        // Hold an OS-assigned port, then ask the cluster to use exactly it
        // — guaranteed conflict without hardcoding a port number.
        let hold = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = hold.local_addr().expect("addr").port();
        let err = ClusterBuilder::new(4).base_port(port).run().unwrap_err();
        assert!(matches!(err, ClusterError::Bind(_)), "{err}");
    }

    /// Runs the shared read loop over one connection whose peer end `feed`
    /// writes to and then drops, returning the reader's metrics and how
    /// many events reached the replica.
    fn read_with<C: Codec>(codec: C, feed: impl FnOnce(TcpStream)) -> (MetricsSnapshot, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        feed(peer);
        let (events, delivered) = mpsc::channel();
        let obs = Obs::new("replica-0");
        read_loop(stream, &codec, &events, &AtomicBool::new(false), &obs);
        (obs.snapshot(), delivered.try_iter().count())
    }

    /// Regression: short (< 4 byte) and undecodable frames from a rogue
    /// peer used to reach a panicking `expect` path; they must be counted
    /// and dropped while the reader thread keeps serving the connection.
    fn malformed_frames_are_counted<C: Codec>(codec: C) {
        let (metrics, delivered) = read_with(codec, |mut peer| {
            // Frame shorter than the sender prefix.
            write_frame(&mut peer, &[0xAB, 0xCD]).expect("short frame");
            // Valid sender id (0 < 4) but garbage message bytes.
            write_frame(&mut peer, &[0, 0, 0, 0, 0xFF, 0xFF, 0xFF]).expect("garbage frame");
            // Out-of-range sender id with a plausible length.
            write_frame(&mut peer, &[0xFF, 0xFF, 0xFF, 0xFF, 1]).expect("bogus sender");
            // Dropping the peer is a clean EOF at a frame boundary: not a
            // torn frame.
        });
        assert_eq!(metrics.counter("frames_malformed"), 3);
        assert_eq!(metrics.counter("frames_torn"), 0);
        assert_eq!(delivered, 0, "no rejected frame may reach the replica");
    }

    #[test]
    fn malformed_peer_frames_are_counted_not_fatal() {
        malformed_frames_are_counted(PeerCodec { n: 4 });
        malformed_frames_are_counted(SmrCodec::<KvStore>::new(4));
    }

    /// A peer dying mid-frame (torn length prefix) is recorded as a torn
    /// connection, not mistaken for a clean close.
    fn torn_connection_is_counted<C: Codec>(codec: C) {
        let (metrics, _) = read_with(codec, |mut peer| {
            peer.write_all(&[0, 0]).expect("half a length prefix");
        });
        assert_eq!(metrics.counter("frames_torn"), 1);
        assert_eq!(metrics.counter("frames_malformed"), 0);
    }

    #[test]
    fn torn_peer_connection_is_counted() {
        torn_connection_is_counted(PeerCodec { n: 4 });
        torn_connection_is_counted(SmrCodec::<KvStore>::new(4));
    }

    /// A peer announcing a frame beyond the size cap is counted as
    /// malformed and disconnected — not silently dropped, not trusted
    /// with the allocation.
    fn oversized_frame_is_counted<C: Codec>(codec: C) {
        let (metrics, _) = read_with(codec, |mut peer| {
            peer.write_all(&u32::MAX.to_be_bytes())
                .expect("absurd length prefix");
        });
        assert_eq!(metrics.counter("frames_malformed"), 1);
        assert_eq!(metrics.counter("frames_torn"), 0);
    }

    #[test]
    fn oversized_peer_frame_is_counted() {
        oversized_frame_is_counted(PeerCodec { n: 4 });
        oversized_frame_is_counted(SmrCodec::<KvStore>::new(4));
    }

    /// Garbage never decodes into an event, whichever codec reads it.
    fn garbage_is_rejected<C: Codec>(codec: C) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let conn = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let reply: ReplyHandle = Arc::new(Mutex::new(conn));
        let garbage: [&[u8]; 4] = [&[], &[1, 2, 3], &[0, 0, 0, 9, 1, 2, 3], &[0, 0, 0, 0]];
        for frame in garbage {
            assert!(codec.decode(frame, &reply).is_none(), "{frame:?} decoded");
        }
    }

    #[test]
    fn parse_peer_frame_never_panics_on_garbage() {
        assert_eq!(parse_peer_frame(&[], 4), Err(FrameReject::Short));
        assert_eq!(parse_peer_frame(&[1, 2, 3], 4), Err(FrameReject::Short));
        assert_eq!(
            parse_peer_frame(&[0, 0, 0, 9, 1, 2, 3], 4),
            Err(FrameReject::Malformed),
            "sender id beyond cluster size is rejected"
        );
        assert_eq!(
            parse_peer_frame(&[0, 0, 0, 0], 4),
            Err(FrameReject::Malformed),
            "empty message body is rejected"
        );
        garbage_is_rejected(PeerCodec { n: 4 });
        garbage_is_rejected(SmrCodec::<KvStore>::new(4));
    }
}
