//! # probft-pbft
//!
//! Single-shot PBFT (Castro–Liskov, in the single-shot consensus
//! formulation of Bravo et al. used by the ProBFT paper, §2.3) — the
//! primary baseline ProBFT is measured against.
//!
//! Same three-phase structure as ProBFT (Propose → Prepare → Commit), but:
//!
//! - Prepare/Commit votes are **broadcast to all n replicas** — `O(n²)`
//!   messages per view (Figure 1b's top curve);
//! - progress needs a **deterministic quorum** of `⌈(n+f+1)/2⌉` matching
//!   votes, so any two quorums intersect in a correct replica and safety is
//!   certain, not probabilistic.
//!
//! # Examples
//!
//! ```
//! use probft_core::harness::InstanceBuilder;
//! use probft_pbft::PbftReplica;
//!
//! let outcome = InstanceBuilder::<PbftReplica>::for_protocol(7).seed(1).run();
//! assert!(outcome.all_correct_decided());
//! assert!(outcome.agreement());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod message;
pub mod replica;

pub use byzantine::{PbftByzantine, PbftStrategy};
pub use message::{PbftMessage, PbftNewLeader, PbftPropose, Vote, VotePhase};
pub use replica::PbftReplica;
