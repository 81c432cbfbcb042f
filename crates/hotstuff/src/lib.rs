//! # probft-hotstuff
//!
//! Single-shot basic HotStuff (Yin et al., PODC 2019) — the second baseline
//! of the ProBFT paper's comparison (Figure 1).
//!
//! Where PBFT broadcasts votes all-to-all (`O(n²)` messages, 3 steps) and
//! ProBFT multicasts to `O(√n)` samples (`O(n√n)` messages, 3 steps),
//! HotStuff routes every vote through the leader and broadcasts aggregated
//! quorum certificates: `O(n)` messages per view, but 7–8 communication
//! steps — the latency/message-count trade-off the ProBFT paper positions
//! itself against.
//!
//! # Examples
//!
//! ```
//! use probft_core::harness::InstanceBuilder;
//! use probft_hotstuff::HsReplica;
//!
//! let outcome = InstanceBuilder::<HsReplica>::for_protocol(7).seed(1).run();
//! assert!(outcome.all_correct_decided());
//! assert!(outcome.agreement());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod message;
pub mod replica;

pub use byzantine::HsStrategy;
pub use message::{HsMessage, HsPhase, HsVote, LeaderBroadcast, Qc};
pub use replica::HsReplica;
