//! # probft-runtime
//!
//! A real-clock, real-network deployment substrate for ProBFT: one OS
//! thread per replica, TCP links with length-prefixed framing, and a
//! deadline-driven timer loop. The same unmodified [`Replica`] state
//! machine that runs in the deterministic simulator runs here, driven
//! through the simulator's embedding API ([`Context::detached`] +
//! [`Context::drain_actions`]).
//!
//! One socket driver carries every replica thread: listener binding, an
//! accept loop with one reader thread per connection, and a driver that
//! steps any `Process` and carries out its actions against sockets and
//! the wall clock (timers, the [`NetPolicy`] fault rules, lazy peer
//! connects). Rejected input is counted in each replica's `probft-obs`
//! metrics. A cluster shape supplies only its frame codec and the policy
//! around its event loop. Two shapes run on it:
//!
//! - [`ClusterBuilder`] runs one single-shot consensus instance to
//!   decision over `u32 sender ‖ message` frames.
//! - [`LiveSmrBuilder`] runs full state-machine replication of any
//!   [`StateMachine`](probft_smr::StateMachine) over [`SmrFrame`]s —
//!   pipelined, batched `SmrNode`s served by a real client front-end
//!   ([`SmrClient`]) with typed responses, leader routing,
//!   address-carrying redirects, retries, at-most-once execution of
//!   retried request ids, and a three-tier read path (`Local` / `Leader`
//!   reads bypass consensus; `Linearizable` reads are ordered through the
//!   log). With a checkpoint interval set, replicas exchange signed
//!   checkpoint attestations, truncate their logs behind stable
//!   checkpoints, and bring laggards back by snapshot state transfer over
//!   dedicated wire frames; `LiveSmrCluster::pause`/`resume` provide
//!   crash/partition fault injection for exercising exactly that.
//!
//! `tokio` is not available in this offline build environment (see
//! DESIGN.md, "Substitutions"); the thread-per-replica design over
//! `std::net` provides equivalent message-passing semantics for
//! laptop-scale clusters, which is all the paper's evaluation needs.
//!
//! Virtual-time convention: one simulator tick = one microsecond of wall
//! time (so the default 50 ms base view timeout carries over sensibly).
//!
//! # Examples
//!
//! ```no_run
//! use probft_runtime::ClusterBuilder;
//!
//! // Run a 5-replica ProBFT cluster over localhost TCP. Each replica
//! // binds an OS-assigned loopback port, so runs never collide.
//! let decisions = ClusterBuilder::new(5).run().unwrap();
//! assert_eq!(decisions.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub(crate) mod driver;
pub mod live;
pub mod nemesis;
pub(crate) mod pacing;
pub mod transport;

pub use client::{ClientError, SmrClient};
pub use cluster::{ClusterBuilder, ClusterError};
pub use live::{
    LinkDecision, LinkRule, LiveSmrBuilder, LiveSmrCluster, NetPolicy, ReplicaReport, SmrFrame,
    SmrReply,
};
pub use nemesis::{execute, verify_exactly_once, verify_invariants, Fault, FaultPlan, NemesisRun};
pub use transport::{read_frame, write_frame, FrameError};
