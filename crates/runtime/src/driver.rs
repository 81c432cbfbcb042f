//! The socket substrate both cluster shapes run on.
//!
//! A replica thread is three pieces, none of which knows which protocol it
//! carries:
//!
//! - [`bind_listeners`] binds one loopback listener per replica;
//! - [`Inbound::accept`] runs the accept loop, one reader thread per
//!   connection, each turning frames into events through a [`Codec`] and
//!   counting rejected input in the replica's [`Obs`];
//! - a [`Driver`] steps any [`Process`] in a detached [`Context`] and
//!   carries out the actions it records: timers on a wall-clock heap,
//!   sends through the [`NetPolicy`] (drop, delay, deliver) onto lazily
//!   connected peer sockets.
//!
//! A cluster shape supplies only its [`Codec`] and the event loop's policy
//! around these calls.

use crate::cluster::ClusterError;
use crate::live::{LinkDecision, NetPolicy};
use crate::transport::{read_frame, write_frame, FrameError};
use probft_obs::{Counter, MetricsSnapshot, Obs};
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The write half of an inbound connection, shared by every event decoded
/// from it so the replica can answer a client on the connection it used.
pub(crate) type ReplyHandle = Arc<Mutex<TcpStream>>;

/// How one cluster shape puts its process's messages on the wire and reads
/// inbound frames back. Every byte handed to [`decode`](Self::decode) is
/// peer-controlled: it must reject, never panic.
pub(crate) trait Codec: Clone + Send + 'static {
    /// The driven process's message type.
    type Msg;
    /// What an accepted inbound frame becomes for the replica's event loop.
    type Event: Send + 'static;
    /// Every kind [`encode`](Self::encode) returns, registered when the
    /// driver starts so a snapshot shows an unused kind as 0.
    const OUT_KINDS: &'static [&'static str];
    /// Every kind [`decode`](Self::decode) returns, registered when a
    /// connection opens.
    const IN_KINDS: &'static [&'static str];

    /// Encodes `msg` from replica `from` as one peer frame, with the
    /// `frame_bytes_out` kind its bytes are counted under.
    fn encode(&self, from: usize, msg: Self::Msg) -> (&'static str, Vec<u8>);

    /// Decodes one inbound frame read off the connection whose write half
    /// is `reply`, with the `frame_bytes_in` kind its bytes are counted
    /// under; `None` rejects it as malformed.
    fn decode(&self, frame: &[u8], reply: &ReplyHandle) -> Option<(&'static str, Self::Event)>;
}

/// Binds one loopback listener per replica — OS-assigned ports by default,
/// `base_port + i` when a fixed range was requested — and returns the
/// listeners with their actual addresses.
pub(crate) fn bind_listeners(
    n: usize,
    base_port: Option<u16>,
) -> Result<(Vec<TcpListener>, Vec<SocketAddr>), ClusterError> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let addr = match base_port {
            Some(base) => {
                let port = base.checked_add(i as u16).ok_or_else(|| {
                    ClusterError::Bind(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "base_port + replica id overflows u16",
                    ))
                })?;
                format!("127.0.0.1:{port}")
            }
            None => "127.0.0.1:0".to_string(),
        };
        let listener = TcpListener::bind(&addr).map_err(ClusterError::Bind)?;
        addrs.push(listener.local_addr().map_err(ClusterError::Bind)?);
        listeners.push(listener);
    }
    Ok((listeners, addrs))
}

/// Folds per-replica metrics snapshots into one cluster-wide snapshot
/// (labeled `cluster`): counters and histogram buckets add, so percentiles
/// read over the union of all replicas' samples.
pub(crate) fn aggregate<'a>(
    snapshots: impl IntoIterator<Item = &'a MetricsSnapshot>,
) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    merged.set_label("cluster");
    for snapshot in snapshots {
        merged.merge(snapshot);
    }
    merged
}

/// A replica's accept loop and the reader threads it spawned.
pub(crate) struct Inbound {
    accept: thread::JoinHandle<()>,
    readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl Inbound {
    /// Accepts connections on `listener` until `shutdown`, reading each on
    /// its own thread and forwarding decoded frames to `events`.
    pub(crate) fn accept<C: Codec>(
        listener: TcpListener,
        codec: C,
        events: mpsc::Sender<C::Event>,
        shutdown: Arc<AtomicBool>,
        obs: Arc<Obs>,
    ) -> Self {
        let readers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::default();
        let can_accept = listener.set_nonblocking(true).is_ok();
        let accept = {
            let readers = readers.clone();
            thread::spawn(move || {
                while can_accept && !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let codec = codec.clone();
                            let events = events.clone();
                            let shutdown = shutdown.clone();
                            let obs = obs.clone();
                            let handle = thread::spawn(move || {
                                read_loop(stream, &codec, &events, &shutdown, &obs)
                            });
                            if let Ok(mut guard) = readers.lock() {
                                reap_finished(&mut guard);
                                guard.push(handle);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            crate::pacing::pause(crate::pacing::ACCEPT_POLL);
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Inbound { accept, readers }
    }

    /// Waits for the accept loop and every reader it spawned, so a stopped
    /// replica leaves no threads behind. Call after raising `shutdown`.
    pub(crate) fn join(self) {
        let _ = self.accept.join();
        let handles = match self.readers.lock() {
            Ok(mut guard) => guard.drain(..).collect::<Vec<_>>(),
            Err(_) => Vec::new(),
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Joins and removes reader threads that already exited (disconnected
/// peers/clients), so a long-lived accept loop does not accumulate dead
/// handles without bound.
fn reap_finished(handles: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles.get(i).is_some_and(|h| h.is_finished()) {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Reads frames off one connection until shutdown, a clean close, or a
/// fatal error. Rejected input is counted in `obs` and never panics:
/// undecodable frames are dropped and the connection kept (a malformed
/// peer must not silence a link); an oversized length prefix counts as
/// malformed and ends the connection; EOF inside a frame, a mid-frame
/// stall, or a socket error counts as torn and ends it.
pub(crate) fn read_loop<C: Codec>(
    stream: TcpStream,
    codec: &C,
    events: &mpsc::Sender<C::Event>,
    shutdown: &AtomicBool,
    obs: &Obs,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    // Bound reply writes: a client that stops reading must cost the
    // replica a failed write, not a wedged event loop.
    let _ = stream.set_write_timeout(Some(WRITE_STALL_LIMIT));
    let reply = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut bytes_in = KindCounters::new(C::IN_KINDS, |k| obs.frame_bytes_in(k));
    let mut reader = BufReader::new(stream);
    while !shutdown.load(Ordering::SeqCst) {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => match codec.decode(&frame, &reply) {
                Some((kind, event)) => {
                    bytes_in.add(kind, frame.len(), |k| obs.frame_bytes_in(k));
                    if events.send(event).is_err() {
                        return;
                    }
                }
                None => obs.frames_malformed.inc(),
            },
            Ok(None) => return, // peer closed at a frame boundary
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(FrameError::Oversized(_)) => {
                obs.frames_malformed.inc();
                return;
            }
            Err(FrameError::Io(_) | FrameError::Stalled { .. }) => {
                obs.frames_torn.inc();
                return;
            }
        }
    }
}

/// Per-kind frame byte counters, fetched from the registry once per kind
/// instead of once per frame.
struct KindCounters(Vec<(&'static str, Counter)>);

impl KindCounters {
    fn new(kinds: &[&'static str], fetch: impl Fn(&str) -> Counter) -> Self {
        KindCounters(kinds.iter().map(|&kind| (kind, fetch(kind))).collect())
    }

    fn add(&mut self, kind: &'static str, bytes: usize, fetch: impl FnOnce(&str) -> Counter) {
        match self.0.iter().find(|(k, _)| *k == kind) {
            Some((_, counter)) => counter.add(bytes as u64),
            None => {
                let counter = fetch(kind);
                counter.add(bytes as u64);
                self.0.push((kind, counter));
            }
        }
    }
}

/// Connect attempts while a cluster boots (peers come up concurrently;
/// retry for up to ~500 ms).
const BOOT_CONNECT_ATTEMPTS: u32 = 50;

/// Connect attempts once the cluster has run for [`BOOT_WINDOW`]: one
/// quick try, so a dead replica costs the sender an immediate refusal
/// instead of a 500 ms stall inside its event loop on every send.
const STEADY_CONNECT_ATTEMPTS: u32 = 1;

/// How long after boot a refused connect is still retried.
const BOOT_WINDOW: Duration = Duration::from_secs(5);

/// Bound on how long a blocking socket write may stall the caller. A peer
/// (or client) that stops reading fills its kernel buffer; without this a
/// single such connection wedges the sender's whole event loop.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(1);

/// Longest an event loop blocks between checks of its shutdown flag.
const MAX_WAIT: Duration = Duration::from_millis(20);

/// One held-back frame: delivery instant, insertion sequence (FIFO tie
/// break), destination replica index, encoded frame bytes.
type HeldFrame = (Instant, u64, usize, Vec<u8>);

/// Steps one replica's [`Process`] against real sockets and the wall
/// clock. One simulator tick is one microsecond of wall time.
pub(crate) struct Driver<C: Codec> {
    id: usize,
    addrs: Arc<Vec<SocketAddr>>,
    codec: C,
    net: Arc<NetPolicy>,
    obs: Arc<Obs>,
    rng: StdRng,
    started: Instant,
    peers: Vec<Option<TcpStream>>,
    timers: BinaryHeap<Reverse<(Instant, TimerToken)>>,
    /// Outbound frames held back by a latency rule, ordered by delivery
    /// instant (the sequence number keeps FIFO per link on ties).
    delayed: BinaryHeap<Reverse<HeldFrame>>,
    delayed_seq: u64,
    bytes_out: KindCounters,
}

impl<C: Codec> Driver<C> {
    /// A driver for replica `id` of the cluster listening on `addrs`,
    /// sending through `net` and counting into `obs`.
    pub(crate) fn new(
        id: usize,
        addrs: Arc<Vec<SocketAddr>>,
        codec: C,
        net: Arc<NetPolicy>,
        obs: Arc<Obs>,
        rng_seed: u64,
    ) -> Self {
        let peers = (0..addrs.len()).map(|_| None).collect();
        let bytes_out = KindCounters::new(C::OUT_KINDS, |k| obs.frame_bytes_out(k));
        Driver {
            id,
            addrs,
            codec,
            net,
            obs,
            rng: StdRng::seed_from_u64(rng_seed),
            started: Instant::now(),
            peers,
            timers: BinaryHeap::new(),
            delayed: BinaryHeap::new(),
            delayed_seq: 0,
            bytes_out,
        }
    }

    /// Runs one process handler in a detached context and carries out the
    /// actions it recorded.
    pub(crate) fn step(&mut self, handler: impl FnOnce(&mut Context<'_, C::Msg>)) {
        let now = SimTime::from_ticks(self.started.elapsed().as_micros() as u64);
        let actions = {
            let mut ctx = Context::detached(ProcessId(self.id), now, &mut self.rng);
            handler(&mut ctx);
            ctx.drain_actions()
        };
        for action in actions {
            match action {
                Action::Send { to, msg } => self.send(to.index(), msg),
                Action::SetTimer { delay, token } => {
                    let deadline = Instant::now() + Duration::from_micros(delay.ticks());
                    self.timers.push(Reverse((deadline, token)));
                }
                Action::Halt => {}
            }
        }
    }

    /// Fires every due timer into `process` and releases every held frame
    /// whose delivery instant has passed.
    pub(crate) fn fire_due<P: Process<Message = C::Msg>>(&mut self, process: &mut P) {
        while let Some(&Reverse((deadline, token))) = self.timers.peek() {
            if deadline > Instant::now() {
                break;
            }
            self.timers.pop();
            self.step(|ctx| process.on_timer(token, ctx));
        }
        while let Some(Reverse((at, ..))) = self.delayed.peek() {
            if *at > Instant::now() {
                break;
            }
            if let Some(Reverse((_, _, to, frame))) = self.delayed.pop() {
                self.write(to, &frame);
            }
        }
    }

    /// How long the event loop may block before the next timer or held
    /// frame comes due.
    pub(crate) fn wait(&self) -> Duration {
        let now = Instant::now();
        let next = self.timers.peek().map(|Reverse((at, _))| *at);
        let held = self.delayed.peek().map(|Reverse((at, ..))| *at);
        next.into_iter()
            .chain(held)
            .min()
            .map_or(MAX_WAIT, |at| at.saturating_duration_since(now))
            .min(MAX_WAIT)
    }

    fn send(&mut self, to: usize, msg: C::Msg) {
        if to >= self.addrs.len() {
            return;
        }
        let (kind, frame) = self.codec.encode(self.id, msg);
        let delay = match self.net.decide(self.id, to) {
            LinkDecision::Drop => return,
            LinkDecision::Deliver => None,
            LinkDecision::Delay(by) => Some(by),
        };
        let obs = &self.obs;
        self.bytes_out
            .add(kind, frame.len(), |k| obs.frame_bytes_out(k));
        let Some(by) = delay else {
            self.write(to, &frame);
            return;
        };
        // Per-link FIFO: a later frame on the same link never samples a
        // deadline that sorts before an earlier one already held.
        let at = self
            .delayed
            .iter()
            .filter(|Reverse((_, _, dest, _))| *dest == to)
            .map(|Reverse((at, ..))| *at)
            .fold(Instant::now() + by, Instant::max);
        self.delayed_seq = self.delayed_seq.saturating_add(1);
        self.delayed
            .push(Reverse((at, self.delayed_seq, to, frame)));
    }

    /// Writes one encoded frame to peer `to`, (re)connecting as needed.
    fn write(&mut self, to: usize, frame: &[u8]) {
        let attempts = if self.started.elapsed() < BOOT_WINDOW {
            BOOT_CONNECT_ATTEMPTS
        } else {
            STEADY_CONNECT_ATTEMPTS
        };
        let (Some(&addr), Some(slot)) = (self.addrs.get(to), self.peers.get_mut(to)) else {
            return;
        };
        if slot.is_none() {
            *slot = connect(addr, attempts);
        }
        let Some(stream) = slot.as_mut() else {
            return;
        };
        match write_frame(stream, frame) {
            Ok(()) => {}
            // An unsendable frame (e.g. a snapshot beyond the transport's
            // MAX_FRAME cap) wrote nothing: the link is healthy and also
            // carries consensus traffic, so keep it — but count the loss,
            // or a too-big-to-transfer snapshot would strand its laggard
            // with no observable signal.
            Err(FrameError::Oversized(_)) => self.obs.frames_unsendable.inc(),
            // Broken link; a later send reconnects.
            Err(_) => *slot = None,
        }
    }
}

fn connect(addr: SocketAddr, attempts: u32) -> Option<TcpStream> {
    for attempt in 0..attempts {
        if attempt > 0 {
            crate::pacing::pause(crate::pacing::CONNECT_RETRY);
        }
        if let Ok(s) = TcpStream::connect(addr) {
            let _ = s.set_nodelay(true);
            let _ = s.set_write_timeout(Some(WRITE_STALL_LIMIT));
            return Some(s);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LinkRule;
    use probft_simnet::time::SimDuration;

    /// Opaque byte messages, so the driver runs without a protocol.
    #[derive(Clone, Copy)]
    struct Bytes;

    impl Codec for Bytes {
        type Msg = Vec<u8>;
        type Event = Vec<u8>;
        const OUT_KINDS: &'static [&'static str] = &["peer"];
        const IN_KINDS: &'static [&'static str] = &["peer"];

        fn encode(&self, _from: usize, msg: Vec<u8>) -> (&'static str, Vec<u8>) {
            ("peer", msg)
        }

        fn decode(&self, frame: &[u8], _reply: &ReplyHandle) -> Option<(&'static str, Vec<u8>)> {
            Some(("peer", frame.to_vec()))
        }
    }

    /// Replica 0 of three, with `net` deciding every send, so no frame in
    /// these tests ever reaches a socket.
    fn driver(net: Arc<NetPolicy>) -> (Driver<Bytes>, Arc<Obs>) {
        let addrs = (0..3)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], 9 + i)))
            .collect();
        let obs = Arc::new(Obs::new("replica-0"));
        let driver = Driver::new(0, Arc::new(addrs), Bytes, net, obs.clone(), 7);
        (driver, obs)
    }

    /// Dropped frames are neither written nor counted as sent; delayed
    /// frames are counted when held and leave each link in send order.
    #[test]
    fn net_policy_drops_and_holds_frames_in_link_order() {
        let net = Arc::new(NetPolicy::default());
        net.set_link(0, 1, LinkRule::blackhole());
        let slow = LinkRule::latency(Duration::from_secs(60), Duration::from_secs(120));
        net.set_link(0, 2, slow);
        let (mut driver, obs) = driver(net.clone());
        driver.step(|ctx| {
            ctx.send(ProcessId(1), vec![1; 10]);
            ctx.send(ProcessId(2), vec![2; 10]);
            ctx.send(ProcessId(2), vec![3; 10]);
            ctx.send(ProcessId(9), vec![4; 10]); // no such replica
        });
        assert_eq!(net.dropped(), 1);
        assert_eq!(net.delayed(), 2);
        assert_eq!(obs.frame_bytes_out("peer").get(), 20);
        let mut held = Vec::new();
        while let Some(Reverse((_, _, to, frame))) = driver.delayed.pop() {
            held.push((to, frame));
        }
        assert_eq!(held, vec![(2, vec![2; 10]), (2, vec![3; 10])]);
    }

    /// The loop never blocks past its shutdown poll, nor past the next
    /// timer.
    #[test]
    fn wait_is_bounded_by_the_next_timer() {
        let (mut driver, _) = driver(Arc::default());
        assert!(driver.wait() <= MAX_WAIT);
        driver.step(|ctx| ctx.set_timer(SimDuration::from_ticks(1_000), TimerToken(1)));
        assert!(driver.wait() <= Duration::from_millis(1));
    }
}
