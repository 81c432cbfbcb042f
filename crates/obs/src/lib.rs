//! # probft-obs
//!
//! Unified, dependency-free telemetry for the ProBFT reproduction's live
//! stack. ProBFT's headline claims are quantitative — `O(n√n)` messages,
//! probabilistic commit latency (paper §3.3, Fig. 1b) — so the runtime
//! needs latency *distributions*, not end-of-run averages. This crate
//! provides the three pieces the live stack threads through itself:
//!
//! 1. **Metrics registry** ([`Registry`]): atomics-based [`Counter`]s and
//!    [`Gauge`]s plus log-bucketed HDR-style [`Histogram`]s with
//!    p50/p90/p99/p999 readout, snapshot-able without stopping the world,
//!    with JSON and Prometheus text exposition on [`MetricsSnapshot`].
//! 2. **Consensus-phase tracing** ([`Journal`]): a bounded ring buffer of
//!    [`TraceEvent`]s — slots opening/deciding/applying, checkpoints,
//!    view changes, overload sheds, nemesis fault markers — acting as a
//!    flight recorder for chaos runs.
//! 3. **The [`Obs`] bundle**: one per replica (or client), pre-registering
//!    every known metric so hot paths touch pre-fetched atomic handles
//!    and every exposition carries the same metric set.
//!
//! Everything here is `std`-only, lock-free on the hot paths (the journal
//! and registration take short mutexes never held across I/O), and cheap
//! enough to stay on in benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry};
pub use trace::{Journal, TraceEvent, TraceKind, DEFAULT_JOURNAL_CAPACITY};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The per-entity telemetry bundle: a registry, a flight-recorder journal,
/// a shared epoch clock, and pre-fetched handles for every metric the live
/// stack records. Wrap it in an [`Arc`] and hand clones to each thread
/// touching the entity.
pub struct Obs {
    registry: Arc<Registry>,
    journal: Journal,
    epoch: Instant,
    /// Microseconds-since-epoch of the most recent nemesis fault, plus
    /// one (so zero means "no outstanding fault"). Cleared by the first
    /// applied slot that opened after the fault and decided past
    /// `fault_view`, which records the elapsed time into
    /// `recovery_latency_us`.
    fault_marker: AtomicU64,
    /// The view the entity works in, as last reported by
    /// [`Obs::note_view`] (0 until then).
    view: AtomicU64,
    /// `view` when the outstanding fault was marked.
    fault_view: AtomicU64,

    /// Request receive → reply sent, per request, at the serving replica (µs).
    pub commit_latency_us: Arc<Histogram>,
    /// Slot opened → slot decided (µs).
    pub decide_latency_us: Arc<Histogram>,
    /// Slot opened → slot applied to the state machine (µs).
    pub apply_latency_us: Arc<Histogram>,
    /// Entries per decided batch.
    pub batch_size: Arc<Histogram>,
    /// Time between consecutive local checkpoints (µs).
    pub checkpoint_interval_us: Arc<Histogram>,
    /// State-transfer request → snapshot restored (µs).
    pub state_transfer_us: Arc<Histogram>,
    /// Client-side request round-trip time (µs).
    pub request_rtt_us: Arc<Histogram>,
    /// Nemesis fault marker → first applied slot that opened after it and
    /// decided in a later view (µs): the view-change recovery cost after a
    /// leader kill.
    pub recovery_latency_us: Arc<Histogram>,

    /// Requests answered from the reply cache without re-execution.
    pub reply_cache_hits: Counter,
    /// Slot messages dropped beyond the future-slot horizon.
    pub drops_future_horizon: Counter,
    /// Slot messages dropped by the per-slot flood cap.
    pub drops_slot_flood: Counter,
    /// Messages for already-closed slots dropped as stale.
    pub drops_stale: Counter,
    /// Invalid or unverifiable checkpoint traffic dropped.
    pub drops_invalid_checkpoint: Counter,
    /// Client submissions dropped because the pending queue was full.
    pub drops_pending_overflow: Counter,
    /// Frames abandoned mid-read after a peer stalled or died.
    pub frames_torn: Counter,
    /// Frames rejected by the wire codec.
    pub frames_malformed: Counter,
    /// Frames that could not be written to a peer socket.
    pub frames_unsendable: Counter,
    /// Client requests shed under overload.
    pub shed_requests: Counter,
    /// Client contacts answered with a leader redirect.
    pub redirects_served: Counter,
    /// Checkpoints taken locally.
    pub checkpoints_taken: Counter,
    /// Bytes of snapshot state received via state transfer.
    pub state_transfer_bytes: Counter,
    /// Client-side: requests retried after a transport error.
    pub client_retries: Counter,
    /// Client-side: redirects followed to reach the leader.
    pub client_redirects: Counter,
    /// Client-side: overload backoffs taken.
    pub client_overloads: Counter,

    /// Current depth of the pending client-request queue.
    pub pending_depth: Gauge,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("label", &self.label())
            .field("journal_len", &self.journal.len())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// Creates a bundle labeled `label` (e.g. `replica-0`) with the
    /// default journal capacity.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_journal_capacity(label, DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates a bundle retaining at most `capacity` journal events.
    pub fn with_journal_capacity(label: impl Into<String>, capacity: usize) -> Self {
        let registry = Arc::new(Registry::new(label));
        Self {
            commit_latency_us: registry.histogram("commit_latency_us"),
            decide_latency_us: registry.histogram("decide_latency_us"),
            apply_latency_us: registry.histogram("apply_latency_us"),
            batch_size: registry.histogram("batch_size"),
            checkpoint_interval_us: registry.histogram("checkpoint_interval_us"),
            state_transfer_us: registry.histogram("state_transfer_us"),
            request_rtt_us: registry.histogram("request_rtt_us"),
            recovery_latency_us: registry.histogram("recovery_latency_us"),
            reply_cache_hits: registry.counter("reply_cache_hits"),
            drops_future_horizon: registry.counter("drops_future_horizon"),
            drops_slot_flood: registry.counter("drops_slot_flood"),
            drops_stale: registry.counter("drops_stale"),
            drops_invalid_checkpoint: registry.counter("drops_invalid_checkpoint"),
            drops_pending_overflow: registry.counter("drops_pending_overflow"),
            frames_torn: registry.counter("frames_torn"),
            frames_malformed: registry.counter("frames_malformed"),
            frames_unsendable: registry.counter("frames_unsendable"),
            shed_requests: registry.counter("shed_requests"),
            redirects_served: registry.counter("redirects_served"),
            checkpoints_taken: registry.counter("checkpoints_taken"),
            state_transfer_bytes: registry.counter("state_transfer_bytes"),
            client_retries: registry.counter("client_retries"),
            client_redirects: registry.counter("client_redirects"),
            client_overloads: registry.counter("client_overloads"),
            pending_depth: registry.gauge("pending_depth"),
            registry,
            journal: Journal::new(capacity),
            epoch: Instant::now(),
            fault_marker: AtomicU64::new(0),
            view: AtomicU64::new(0),
            fault_view: AtomicU64::new(0),
        }
    }

    /// The label this bundle reports under.
    pub fn label(&self) -> &str {
        self.registry.label()
    }

    /// Microseconds elapsed since this bundle was created — the clock all
    /// journal timestamps and fault markers share.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// The underlying registry, for ad-hoc (e.g. per-frame-kind labeled)
    /// metrics beyond the pre-registered set.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Pre-fetches the labeled counter for frame bytes received of `kind`.
    pub fn frame_bytes_in(&self, kind: &str) -> Counter {
        self.registry
            .counter_labeled("frame_bytes_in", &[("kind", kind)])
    }

    /// Pre-fetches the labeled counter for frame bytes sent of `kind`.
    pub fn frame_bytes_out(&self, kind: &str) -> Counter {
        self.registry
            .counter_labeled("frame_bytes_out", &[("kind", kind)])
    }

    /// The flight-recorder journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Appends an event to the journal, stamped with [`Obs::now_micros`].
    pub fn trace(&self, kind: TraceKind) {
        self.journal.push(self.now_micros(), kind);
    }

    /// Captures a point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Notes the view the entity now works in (an SMR replica's cluster
    /// view). A fault marker remembers it, so recovery can be told apart
    /// from the leftovers of the view the fault hit.
    pub fn note_view(&self, view: u64) {
        self.view.store(view, Ordering::SeqCst);
    }

    /// Injects a nemesis fault marker: journals `FaultStart` and arms the
    /// recovery-latency clock. The next [`Obs::note_progress`] for a slot
    /// that opened after the fault and decided in a later view than the
    /// one noted at the fault records the elapsed time into
    /// `recovery_latency_us`.
    pub fn mark_fault(&self, fault: &str) {
        let now = self.now_micros();
        self.journal.push(
            now,
            TraceKind::FaultStart {
                fault: fault.to_string(),
            },
        );
        self.fault_view
            .store(self.view.load(Ordering::SeqCst), Ordering::SeqCst);
        self.fault_marker
            .store(now.saturating_add(1), Ordering::SeqCst);
    }

    /// Journals that a nemesis fault was lifted. Does *not* disarm the
    /// recovery clock: recovery means commit progress, not fault removal.
    pub fn mark_fault_lifted(&self, fault: &str) {
        self.trace(TraceKind::FaultStop {
            fault: fault.to_string(),
        });
    }

    /// Notes commit progress: a slot that opened at `opened_at_micros`
    /// (on this bundle's clock) was applied, decided in `decided_view`.
    /// If a fault marker is armed, the slot opened at or after the fault
    /// and it decided past the view noted at the fault, records the
    /// fault→progress latency and disarms it. Other slots do not count:
    /// one in flight when the fault hit, or one a follower opened just
    /// after it for a proposal the failed leader sent just before, says
    /// nothing about whether the cluster recovered.
    pub fn note_progress(&self, opened_at_micros: u64, decided_view: u64) {
        let marker = self.fault_marker.load(Ordering::SeqCst);
        if marker == 0
            || opened_at_micros < marker - 1
            || decided_view <= self.fault_view.load(Ordering::SeqCst)
        {
            return;
        }
        if self
            .fault_marker
            .compare_exchange(marker, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let elapsed = self.now_micros().saturating_sub(marker - 1);
            self.recovery_latency_us.record(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_marker_drives_recovery_histogram() {
        let obs = Obs::new("replica-0");
        obs.note_progress(obs.now_micros(), 2);
        assert_eq!(obs.recovery_latency_us.count(), 0);
        obs.mark_fault("kill leader 0");
        let after = obs.now_micros();
        obs.note_progress(after, 2);
        obs.note_progress(after, 2);
        assert_eq!(obs.recovery_latency_us.count(), 1);
        let journal = obs.journal().snapshot();
        assert!(matches!(journal[0].kind, TraceKind::FaultStart { .. }));
    }

    /// Recovery is the first applied slot that opened after the fault and
    /// decided past the view the fault hit: slots that were already in
    /// flight, or that carry the failed leader's last proposals, leave
    /// the clock running.
    #[test]
    fn recovery_clock_ignores_slots_in_flight_at_the_fault() {
        let obs = Obs::new("replica-1");
        obs.note_view(1);
        let in_flight = obs.now_micros();
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.mark_fault("kill leader 0");
        std::thread::sleep(std::time::Duration::from_millis(20));
        obs.note_progress(in_flight, 2);
        assert_eq!(
            obs.recovery_latency_us.count(),
            0,
            "a slot opened before the fault is not recovery"
        );
        obs.note_progress(obs.now_micros(), 1);
        assert_eq!(
            obs.recovery_latency_us.count(),
            0,
            "a slot decided in the failed view is not recovery"
        );
        obs.note_view(2);
        let reopened = obs.now_micros();
        std::thread::sleep(std::time::Duration::from_millis(5));
        obs.note_progress(reopened, 2);
        let h = obs.snapshot();
        let h = h.histogram("recovery_latency_us").expect("registered");
        assert_eq!(h.count(), 1);
        assert!(
            h.max() >= 25_000,
            "the clock ran from the fault to the later slot's apply: {} us",
            h.max()
        );
    }

    #[test]
    fn every_metric_is_pre_registered() {
        let obs = Obs::new("replica-3");
        let snap = obs.snapshot();
        assert_eq!(snap.label(), "replica-3");
        assert!(snap.histogram("recovery_latency_us").is_some());
        assert!(snap.histogram("commit_latency_us").is_some());
        assert_eq!(snap.counter("reply_cache_hits"), 0);
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE probft_recovery_latency_us summary"));
        assert!(text.contains("probft_reply_cache_hits{replica=\"replica-3\"} 0"));
    }
}
