//! Byzantine replica behaviours, including the attack models of §4.3.
//!
//! The paper's agreement analysis (Figure 4) considers three leader
//! strategies, culminating in the *optimal* one — the strategy a rational
//! adversary maximising the probability of disagreement would pick:
//!
//! - **General case (Fig. 4a)** — [`ByzantineStrategy::EquivocatingLeader`]:
//!   the leader sends `m ≥ 2` distinct proposals to arbitrary, possibly
//!   overlapping subsets, leaving some replicas with none.
//! - **Sub-optimal case (Fig. 4b)** — [`ByzantineStrategy::SplitLeader`]:
//!   the leader splits *all* replicas into two halves and sends each half
//!   one proposal.
//! - **Optimal case (Fig. 4c)** — [`ByzantineStrategy::OptimalSplitLeader`]:
//!   the leader splits only the *correct* replicas into two equal halves
//!   Π¹_C and Π²_C and sends `val1` to Π¹_C ∪ Π_F and `val2` to Π²_C ∪ Π_F.
//!   All Byzantine replicas then *double-vote*: within their (genuine,
//!   VRF-mandated) recipient samples, they support `val1` toward Π¹_C and
//!   `val2` toward Π²_C, without waiting for quorums they never formed.
//!
//! Byzantine replicas cannot forge what the cryptography pins down: their
//! recipient samples are fixed by the VRF (attempting otherwise is the
//! [`ByzantineStrategy::FloodingReplica`] strategy, rejected by honest
//! verifiers), and Prepare/Commit messages must embed a *leader-signed*
//! proposal, so helpers can only amplify values the leader actually signed.
//!
//! All strategies are *static*: they are fixed before the run starts
//! (static corruption adversary, §2.1), and the colluding replicas know
//! each other (`Π_F` is shared).
//!
//! Strategies attack the instance's *start view* — view 1 unless the run
//! opens every replica directly in a later view
//! ([`ByzantineReplica::starting_in`]). In a later view a leader can only
//! get honest replicas to accept a proposal that carries a deterministic
//! quorum of `NewLeader` messages, so there the attacking leader first
//! collects that quorum from the honest replicas and then equivocates
//! with it attached.

use crate::config::{SharedConfig, View};
use crate::message::{Message, NewLeader, PhaseMessage, Propose, SignedProposal};
use crate::sampling::{derive_sample, Phase};
use crate::value::Value;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A Byzantine behaviour, fixed at the start of the run.
#[derive(Clone, Debug, PartialEq)]
pub enum ByzantineStrategy {
    /// Fail-stop: halts before doing anything.
    Crash,
    /// Stays alive but never sends a message (a silent leader forces a
    /// view change; a silent follower just sheds messages).
    Silent,
    /// Fig. 4a: as leader, sends `m` distinct proposals to random subsets,
    /// leaving roughly `skip_fraction` of replicas with no proposal.
    EquivocatingLeader {
        /// Number of distinct values to equivocate between (≥ 2).
        values: usize,
        /// Fraction of replicas receiving no proposal at all.
        skip_fraction: f64,
    },
    /// Fig. 4b: as leader, splits *all* replicas into two halves.
    SplitLeader,
    /// Fig. 4c: the optimal attack. As leader, splits the *correct*
    /// replicas into two halves and sends both values to all of Π_F; as a
    /// follower, double-votes toward each half within its VRF samples.
    OptimalSplitLeader,
    /// Sends Prepare messages with a forged recipient sample covering the
    /// whole population (honest replicas must reject the VRF proof).
    FloodingReplica,
    /// As leader, proposes a value violating the application `valid`
    /// predicate (honest replicas must reject via `safeProposal`).
    InvalidValueLeader {
        /// The invalid value to propose.
        value: Value,
    },
}

/// The two values an equivocating leader tries to get decided.
///
/// Deterministic so that colluding replicas agree on them without
/// communication.
pub fn equivocation_values() -> (Value, Value) {
    (
        Value::new(b"equivocation-A".to_vec()),
        Value::new(b"equivocation-B".to_vec()),
    )
}

/// A Byzantine replica executing one [`ByzantineStrategy`].
pub struct ByzantineReplica {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    #[allow(dead_code)] // kept for strategies that verify before misusing
    keys: Arc<PublicKeyring>,
    /// The colluding set Π_F (known to every Byzantine replica, §2.1).
    faulty: Arc<BTreeSet<ReplicaId>>,
    strategy: ByzantineStrategy,
    /// The view the attack runs in (see the module docs).
    start_view: View,
    /// `NewLeader` messages for `start_view`, collected (up to a quorum)
    /// by a leader that may only propose with a quorum of them attached.
    new_leaders: BTreeMap<ReplicaId, NewLeader>,
    /// Leader-signed proposals observed (the ammunition for double-voting).
    seen_proposals: Vec<SignedProposal>,
    /// Guards against double-casting the helper votes.
    helper_voted: bool,
}

impl ByzantineReplica {
    /// Creates a Byzantine replica.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        faulty: Arc<BTreeSet<ReplicaId>>,
        strategy: ByzantineStrategy,
    ) -> Self {
        ByzantineReplica {
            cfg,
            id,
            sk,
            keys,
            faulty,
            strategy,
            start_view: View::FIRST,
            new_leaders: BTreeMap::new(),
            seen_proposals: Vec::new(),
            helper_voted: false,
        }
    }

    /// Runs the strategy in `view` instead of view 1 — the counterpart of
    /// [`Replica::starting_in`](crate::replica::Replica::starting_in) for
    /// runs in which every replica opens the instance in a later view.
    #[must_use]
    pub fn starting_in(mut self, view: View) -> Self {
        self.start_view = view.max(View::FIRST);
        self
    }

    /// The strategy this replica executes.
    pub fn strategy(&self) -> &ByzantineStrategy {
        &self.strategy
    }

    /// The correct replicas, in index order.
    fn correct_replicas(&self) -> Vec<ReplicaId> {
        self.cfg
            .all_replicas()
            .filter(|r| !self.faulty.contains(r))
            .collect()
    }

    /// The two halves (Π¹_C, Π²_C) of the optimal split, plus Π_F.
    fn optimal_split(&self) -> (BTreeSet<ReplicaId>, BTreeSet<ReplicaId>) {
        let correct = self.correct_replicas();
        let half = correct.len() / 2;
        let pi1: BTreeSet<ReplicaId> = correct[..half].iter().copied().collect();
        let pi2: BTreeSet<ReplicaId> = correct[half..].iter().copied().collect();
        (pi1, pi2)
    }

    fn leads_start_view(&self) -> bool {
        self.cfg.leader_of(self.start_view) == self.id
    }

    /// Sends `value` as a start-view proposal to `recipients`, justified by
    /// the collected `NewLeader` quorum (empty in view 1).
    fn send_proposal_to(
        &mut self,
        value: Value,
        recipients: impl IntoIterator<Item = ReplicaId>,
        ctx: &mut Context<'_, Message>,
    ) -> SignedProposal {
        let proposal = SignedProposal::sign(&self.sk, self.id, self.start_view, value);
        let justification: Vec<NewLeader> = self.new_leaders.values().cloned().collect();
        let propose = Propose::sign(&self.sk, proposal.clone(), justification);
        let targets: Vec<ProcessId> = recipients
            .into_iter()
            .map(|r| ProcessId(r.index()))
            .collect();
        ctx.multicast(targets, Message::Propose(propose));
        proposal
    }

    /// The optimal-attack helper votes: for each signed proposal, send
    /// Prepare and Commit within the genuine VRF samples, restricted to the
    /// half (plus Π_F) that proposal targets.
    ///
    /// Byzantine replicas skip quorum formation entirely — they commit
    /// without having prepared, which honest verifiers cannot observe.
    fn cast_split_votes(&mut self, ctx: &mut Context<'_, Message>) {
        if self.helper_voted || self.seen_proposals.len() < 2 {
            return;
        }
        self.helper_voted = true;
        let (pi1, pi2) = self.optimal_split();
        let (val1, val2) = equivocation_values();

        let proposals: Vec<SignedProposal> = self.seen_proposals.clone();
        for proposal in proposals {
            let side: &BTreeSet<ReplicaId> = if proposal.value.digest() == val1.digest() {
                &pi1
            } else if proposal.value.digest() == val2.digest() {
                &pi2
            } else {
                continue;
            };
            for phase in [Phase::Prepare, Phase::Commit] {
                let (sample, proof) = derive_sample(
                    &self.sk,
                    proposal.view,
                    phase,
                    self.cfg.sample_size(),
                    self.cfg.n(),
                );
                let msg = PhaseMessage::sign(
                    &self.sk,
                    phase,
                    self.id,
                    proposal.clone(),
                    sample.clone(),
                    proof,
                );
                // Omission within the sample is undetectable: send only to
                // sample members in this proposal's side (or fellow
                // Byzantine replicas, who cannot be tricked anyway).
                let targets: Vec<ProcessId> = sample
                    .iter()
                    .filter(|r| side.contains(r) || self.faulty.contains(r))
                    .map(|r| ProcessId(r.index()))
                    .collect();
                let wrapped = match phase {
                    Phase::Prepare => Message::Prepare(msg),
                    Phase::Commit => Message::Commit(msg),
                };
                ctx.multicast(targets, wrapped);
            }
        }
    }

    /// The leader half of every strategy, run once in the start view.
    fn lead(&mut self, ctx: &mut Context<'_, Message>) {
        match self.strategy.clone() {
            ByzantineStrategy::Crash | ByzantineStrategy::Silent => {}
            ByzantineStrategy::EquivocatingLeader {
                values,
                skip_fraction,
            } => {
                if !self.leads_start_view() {
                    return;
                }
                // Assign each replica one of `values` proposals at random,
                // or none with probability `skip_fraction` (Fig. 4a).
                let n = self.cfg.n();
                let mut assignment: Vec<Vec<ReplicaId>> = vec![Vec::new(); values];
                for r in 0..n {
                    if ctx.rng().gen_bool(skip_fraction) {
                        continue;
                    }
                    let v = ctx.rng().gen_range(0..values);
                    assignment[v].push(ReplicaId::from(r));
                }
                for (tag, group) in assignment.into_iter().enumerate() {
                    let value = Value::new(format!("equivocation-{tag}").into_bytes());
                    let p = self.send_proposal_to(value, group, ctx);
                    self.seen_proposals.push(p);
                }
            }
            ByzantineStrategy::SplitLeader => {
                if !self.leads_start_view() {
                    return;
                }
                // Fig. 4b: split all replicas into two halves by index.
                let n = self.cfg.n();
                let (val1, val2) = equivocation_values();
                let first: Vec<ReplicaId> = (0..n / 2).map(ReplicaId::from).collect();
                let second: Vec<ReplicaId> = (n / 2..n).map(ReplicaId::from).collect();
                let p1 = self.send_proposal_to(val1, first, ctx);
                let p2 = self.send_proposal_to(val2, second, ctx);
                self.seen_proposals.push(p1);
                self.seen_proposals.push(p2);
            }
            ByzantineStrategy::OptimalSplitLeader => {
                if self.leads_start_view() {
                    // Fig. 4c: val1 → Π¹_C ∪ Π_F, val2 → Π²_C ∪ Π_F.
                    let (pi1, pi2) = self.optimal_split();
                    let (val1, val2) = equivocation_values();
                    let to1: Vec<ReplicaId> =
                        pi1.iter().chain(self.faulty.iter()).copied().collect();
                    let to2: Vec<ReplicaId> =
                        pi2.iter().chain(self.faulty.iter()).copied().collect();
                    let p1 = self.send_proposal_to(val1, to1, ctx);
                    let p2 = self.send_proposal_to(val2, to2, ctx);
                    self.seen_proposals.push(p1);
                    self.seen_proposals.push(p2);
                    // The leader is also a helper.
                    self.cast_split_votes(ctx);
                }
                // Helpers wait for the leader's signed proposals.
            }
            ByzantineStrategy::FloodingReplica => {}
            ByzantineStrategy::InvalidValueLeader { value } => {
                if self.leads_start_view() {
                    let all: Vec<ReplicaId> = self.cfg.all_replicas().collect();
                    self.send_proposal_to(value, all, ctx);
                }
            }
        }
    }
}

impl Process for ByzantineReplica {
    type Message = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        match self.strategy {
            ByzantineStrategy::Crash => ctx.halt(),
            // View 1 needs no justification: attack right away. In a later
            // view the attack waits for a NewLeader quorum (`on_message`).
            _ if self.start_view == View::FIRST => self.lead(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: Message, ctx: &mut Context<'_, Message>) {
        if let Message::NewLeader(m) = &msg {
            // A later-view leader attacks once honest replicas handed it
            // the quorum its proposals must carry.
            let quorum = self.cfg.deterministic_quorum();
            if self.start_view > View::FIRST
                && self.leads_start_view()
                && m.view == self.start_view
                && self.new_leaders.len() < quorum
            {
                self.new_leaders.insert(m.sender, m.clone());
                if self.new_leaders.len() == quorum {
                    self.lead(ctx);
                }
            }
            return;
        }
        match &self.strategy {
            ByzantineStrategy::OptimalSplitLeader => {
                // Helpers collect the leader's signed equivocating
                // proposals, then double-vote.
                if let Message::Propose(p) = &msg {
                    if p.view() == self.start_view
                        && !self
                            .seen_proposals
                            .iter()
                            .any(|sp| sp.value.digest() == p.proposal.value.digest())
                    {
                        self.seen_proposals.push(p.proposal.clone());
                    }
                    self.cast_split_votes(ctx);
                }
            }
            ByzantineStrategy::FloodingReplica => {
                // On any view-1 proposal: claim the whole population as our
                // sample. The VRF proof cannot cover it, so honest replicas
                // reject — this strategy exists to *prove* that in tests.
                if let Message::Propose(p) = &msg {
                    if p.view() != self.start_view {
                        return;
                    }
                    let (_, proof) = derive_sample(
                        &self.sk,
                        self.start_view,
                        Phase::Prepare,
                        self.cfg.sample_size(),
                        self.cfg.n(),
                    );
                    let everyone: Vec<ReplicaId> = self.cfg.all_replicas().collect();
                    let forged = PhaseMessage::sign(
                        &self.sk,
                        Phase::Prepare,
                        self.id,
                        p.proposal.clone(),
                        everyone.clone(),
                        proof,
                    );
                    let targets: Vec<ProcessId> =
                        everyone.iter().map(|r| ProcessId(r.index())).collect();
                    ctx.multicast(targets, Message::Prepare(forged));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, Message>) {}
}

impl fmt::Debug for ByzantineReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByzantineReplica")
            .field("id", &self.id)
            .field("strategy", &self.strategy)
            .finish()
    }
}
