//! The honest ProBFT replica — a faithful implementation of Algorithm 1.
//!
//! Each numbered handler of the paper's pseudocode maps to a method here:
//!
//! | Algorithm 1 | Method |
//! |---|---|
//! | `upon newView(v)`, lines 1–5 | [`Replica::enter_view`] (also reached directly through [`Replica::starting_in`] and [`Replica::advance_to`]) |
//! | NewLeader quorum, lines 6–12 | [`Replica::on_new_leader`] / [`Replica::maybe_propose`] |
//! | `upon receiving Propose`, lines 13–16 | [`Replica::on_propose`] |
//! | Prepare quorum, lines 17–20 | [`Replica::maybe_commit`] |
//! | Commit quorum, lines 21–22 | [`Replica::maybe_decide`] |
//! | equivocation, lines 23–25 | [`Replica::check_equivocation`] |
//!
//! The replica is driven by the deterministic simulator through the
//! [`Process`] implementation; the same state machine is reused by the
//! thread/TCP runtime (`probft-runtime`).

use crate::config::{SharedConfig, View};
use crate::message::{Message, NewLeader, PhaseMessage, Propose, SignedProposal, VerifyCtx};
use crate::predicates;
use crate::sampling::{derive_sample, Phase};
use crate::value::Value;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_quorum::{QuorumTracker, ReplicaId};
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A decision reached by a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The view in which the decision happened.
    pub view: View,
    /// The decided value.
    pub value: Value,
    /// Virtual time of the decision.
    pub at: SimTime,
}

/// Counters describing a replica's run, for experiments and assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Messages rejected by cryptographic or semantic checks.
    pub rejected: u64,
    /// Views entered (including view 1).
    pub views_entered: u64,
    /// Times leader equivocation was detected (lines 23–25 fired).
    pub equivocations_detected: u64,
    /// Prepare-phase quorums formed.
    pub prepare_quorums: u64,
    /// Commit-phase quorums formed.
    pub commit_quorums: u64,
}

/// The honest replica state machine (Algorithm 1).
pub struct Replica {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    keys: Arc<PublicKeyring>,
    /// This replica's input value (`myValue()`).
    my_value: Value,

    /// The view `on_start` enters: view 1 for a standalone instance, a
    /// later one for an instance opened in a view the system already
    /// works in. View timeouts are measured from it.
    start_view: View,

    // --- Algorithm 1, line 1 state ---
    cur_view: View,
    cur_val: Option<Value>,
    voted: bool,
    block_view: bool,
    /// The accepted Propose message (`proposal` in the pseudocode),
    /// re-broadcast on equivocation detection (line 25).
    accepted_propose: Option<Propose>,

    // --- prepared state (persists across views) ---
    prepared_view: View,
    prepared_value: Option<Value>,
    prepared_cert: Vec<PhaseMessage>,

    // --- per-view vote tracking ---
    prepare_votes: QuorumTracker<(View, Digest), PhaseMessage>,
    commit_votes: QuorumTracker<(View, Digest), PhaseMessage>,
    sent_commit: bool,

    // --- leader state for the current view ---
    new_leader_msgs: BTreeMap<ReplicaId, NewLeader>,
    proposed: bool,

    // --- synchronizer ---
    sync: crate::synchronizer::Synchronizer,

    /// Messages for views within the buffering horizon, replayed on entry.
    future: BTreeMap<View, Vec<Message>>,

    decision: Option<Decision>,
    /// Set if a *different* value would later satisfy the decide rule — a
    /// safety violation that experiments watch for.
    conflicting_decision: bool,

    stats: ReplicaStats,
}

impl Replica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the keyring population.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        my_value: Value,
    ) -> Self {
        assert!(id.index() < keys.len(), "replica id outside population");
        let q = cfg.probabilistic_quorum();
        let f = cfg.faults();
        Replica {
            cfg,
            id,
            sk,
            keys,
            my_value,
            start_view: View::FIRST,
            cur_view: View::FIRST,
            cur_val: None,
            voted: false,
            block_view: false,
            accepted_propose: None,
            prepared_view: View::NONE,
            prepared_value: None,
            prepared_cert: Vec::new(),
            prepare_votes: QuorumTracker::new(q),
            commit_votes: QuorumTracker::new(q),
            sent_commit: false,
            new_leader_msgs: BTreeMap::new(),
            proposed: false,
            sync: crate::synchronizer::Synchronizer::new(id, f),
            future: BTreeMap::new(),
            decision: None,
            conflicting_decision: false,
            stats: ReplicaStats::default(),
        }
    }

    /// Makes `on_start` enter `view` directly instead of view 1, as if the
    /// synchronizer had just announced `newView(view)`. The replica runs
    /// line 5 for it: a `NewLeader` with nothing prepared goes to
    /// `leader(view)`, which proposes once a deterministic quorum of them
    /// arrived (lines 6–12). This is safe because it is an execution the
    /// synchronizer abstraction already allows: a replica may enter any
    /// higher view, and one that never prepared anything reports exactly
    /// that. The view timer starts at the base timeout in `view`.
    #[must_use]
    pub fn starting_in(mut self, view: View) -> Self {
        self.start_view = view.max(View::FIRST);
        self.sync.jump_to(self.start_view);
        self
    }

    /// Moves a running replica into `view` now (a no-op unless `view` is
    /// higher than the current one), with everything it prepared so far:
    /// line 5 reports it to `leader(view)` exactly as after a timeout-driven
    /// view change, and messages buffered for `view` are replayed.
    pub fn advance_to(&mut self, view: View, ctx: &mut Context<'_, Message>) {
        if view <= self.cur_view {
            return;
        }
        self.sync.jump_to(view);
        self.enter_view(view, ctx);
    }

    /// This replica's identifier.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The decision, if one has been reached.
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    /// The view the replica currently occupies.
    pub fn current_view(&self) -> View {
        self.cur_view
    }

    /// Whether the current view is blocked after equivocation detection.
    pub fn is_view_blocked(&self) -> bool {
        self.block_view
    }

    /// True if the decide rule ever fired for two different values — a
    /// safety violation (probability `exp(−Θ(√n))` per the paper).
    pub fn has_conflicting_decision(&self) -> bool {
        self.conflicting_decision
    }

    /// Run counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// The value this replica would propose as leader.
    pub fn my_value(&self) -> &Value {
        &self.my_value
    }

    fn verify_ctx(&self) -> VerifyCtx<'_> {
        VerifyCtx::new(&self.cfg, &self.keys)
    }

    fn all_peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.cfg.n()).map(ProcessId)
    }

    // -----------------------------------------------------------------
    // newView(v): Algorithm 1 lines 1–5.
    // -----------------------------------------------------------------
    fn enter_view(&mut self, view: View, ctx: &mut Context<'_, Message>) {
        debug_assert!(view >= self.cur_view);
        self.cur_view = view;
        self.cur_val = None;
        self.voted = false;
        self.block_view = false;
        self.accepted_propose = None;
        self.sent_commit = false;
        self.proposed = false;
        self.new_leader_msgs.clear();
        self.prepare_votes.clear();
        self.commit_votes.clear();
        self.stats.views_entered += 1;

        // Arm the view timer (token = view number).
        ctx.set_timer(
            self.cfg.timeout_since(self.start_view, view),
            TimerToken(view.0),
        );

        if view == View::FIRST {
            if self.cfg.leader_of(view) == self.id {
                // Line 3: first leader proposes its own value immediately.
                self.broadcast_propose(self.my_value.clone(), vec![], ctx);
            }
        } else {
            // Line 5: report the latest prepared value to the new leader.
            let nl = NewLeader::sign(
                &self.sk,
                self.id,
                view,
                self.prepared_view,
                self.prepared_value.clone(),
                self.prepared_cert.clone(),
            );
            let leader = self.cfg.leader_of(view);
            ctx.send(ProcessId(leader.index()), Message::NewLeader(nl));
        }

        // Replay buffered messages for this view (and drop older buffers).
        self.future.retain(|v, _| *v >= view);
        if let Some(msgs) = self.future.remove(&view) {
            for msg in msgs {
                self.handle_current_view_message(msg, ctx);
            }
        }
    }

    fn broadcast_propose(
        &mut self,
        value: Value,
        justification: Vec<NewLeader>,
        ctx: &mut Context<'_, Message>,
    ) {
        let proposal = SignedProposal::sign(&self.sk, self.id, self.cur_view, value);
        let propose = Propose::sign(&self.sk, proposal, justification);
        self.proposed = true;
        let peers: Vec<ProcessId> = self.all_peers().collect();
        ctx.multicast(peers, Message::Propose(propose));
    }

    // -----------------------------------------------------------------
    // Leader: NewLeader aggregation, lines 6–12.
    // -----------------------------------------------------------------
    fn on_new_leader(&mut self, msg: NewLeader, ctx: &mut Context<'_, Message>) {
        // pre (line 6): curView = v ∧ i = leader(v); each message valid.
        if msg.view != self.cur_view || self.cfg.leader_of(self.cur_view) != self.id {
            return;
        }
        if self.proposed {
            return;
        }
        if !predicates::valid_new_leader(&msg, &self.verify_ctx()) {
            self.stats.rejected += 1;
            return;
        }
        self.new_leader_msgs.insert(msg.sender, msg);
        self.maybe_propose(ctx);
    }

    fn maybe_propose(&mut self, ctx: &mut Context<'_, Message>) {
        if self.proposed || self.new_leader_msgs.len() < self.cfg.deterministic_quorum() {
            return;
        }
        let justification: Vec<NewLeader> = self.new_leader_msgs.values().cloned().collect();
        // Lines 7–12: propose the mode of the latest prepared view, or our
        // own value if nothing was prepared.
        let value =
            predicates::choose_proposal(&justification).unwrap_or_else(|| self.my_value.clone());
        self.broadcast_propose(value, justification, ctx);
    }

    // -----------------------------------------------------------------
    // Propose: lines 13–16.
    // -----------------------------------------------------------------
    fn on_propose(&mut self, propose: Propose, ctx: &mut Context<'_, Message>) {
        // pre (line 13): ¬blockView ∧ curView = v ∧ ¬voted ∧ safeProposal(m).
        if self.block_view || self.voted || propose.view() != self.cur_view {
            return;
        }
        if !predicates::safe_proposal(&propose, &self.verify_ctx()) {
            self.stats.rejected += 1;
            return;
        }
        // Line 14.
        let value = propose.proposal.value.clone();
        self.cur_val = Some(value.clone());
        self.voted = true;
        self.accepted_propose = Some(propose.clone());

        // Lines 15–16: multicast Prepare to the VRF-selected sample.
        let (sample, proof) = derive_sample(
            &self.sk,
            self.cur_view,
            Phase::Prepare,
            self.cfg.sample_size(),
            self.cfg.n(),
        );
        let prepare = PhaseMessage::sign(
            &self.sk,
            Phase::Prepare,
            self.id,
            propose.proposal.clone(),
            sample.clone(),
            proof,
        );
        let recipients: Vec<ProcessId> = sample.iter().map(|r| ProcessId(r.index())).collect();
        ctx.multicast(recipients, Message::Prepare(prepare));

        // Votes buffered before we voted may already complete a quorum.
        self.maybe_commit(ctx);
        self.maybe_decide(ctx);
    }

    // -----------------------------------------------------------------
    // Prepare: collect votes, lines 17–20.
    // -----------------------------------------------------------------
    fn on_prepare(&mut self, msg: PhaseMessage, ctx: &mut Context<'_, Message>) {
        // Receiver-specific precondition: i ∈ S.
        if !msg.includes(self.id) {
            self.stats.rejected += 1;
            return;
        }
        let key = msg.proposal.matching_key();
        self.prepare_votes.insert(key, msg.sender, msg);
        self.maybe_commit(ctx);
    }

    /// Fires the prepare-quorum rule (lines 17–20) if its preconditions
    /// hold: records the prepared certificate and multicasts `Commit`.
    fn maybe_commit(&mut self, ctx: &mut Context<'_, Message>) {
        if self.block_view || !self.voted || self.sent_commit {
            return;
        }
        let Some(value) = self.cur_val.clone() else {
            return;
        };
        let key = (self.cur_view, value.digest());
        if self.prepare_votes.count(&key) < self.cfg.probabilistic_quorum() {
            return;
        }
        self.stats.prepare_quorums += 1;

        // Line 18: preparedVal, preparedView, cert ← curVal, curView, C.
        self.prepared_view = self.cur_view;
        self.prepared_value = Some(value.clone());
        self.prepared_cert = self
            .prepare_votes
            .votes(&key)
            .map(|(_, m)| m.clone())
            .collect();

        // Lines 19–20: multicast Commit to a fresh VRF sample.
        let proposal = self
            .accepted_propose
            .as_ref()
            .expect("voted implies an accepted proposal")
            .proposal
            .clone();
        let (sample, proof) = derive_sample(
            &self.sk,
            self.cur_view,
            Phase::Commit,
            self.cfg.sample_size(),
            self.cfg.n(),
        );
        let commit = PhaseMessage::sign(
            &self.sk,
            Phase::Commit,
            self.id,
            proposal,
            sample.clone(),
            proof,
        );
        let recipients: Vec<ProcessId> = sample.iter().map(|r| ProcessId(r.index())).collect();
        ctx.multicast(recipients, Message::Commit(commit));
        self.sent_commit = true;

        // Commit votes may already be waiting.
        self.maybe_decide(ctx);
    }

    // -----------------------------------------------------------------
    // Commit: collect votes, lines 21–22.
    // -----------------------------------------------------------------
    fn on_commit(&mut self, msg: PhaseMessage, ctx: &mut Context<'_, Message>) {
        if !msg.includes(self.id) {
            self.stats.rejected += 1;
            return;
        }
        let key = msg.proposal.matching_key();
        self.commit_votes.insert(key, msg.sender, msg);
        self.maybe_decide(ctx);
    }

    fn maybe_decide(&mut self, ctx: &mut Context<'_, Message>) {
        // pre (line 21): ¬blockView ∧ preparedVal = x ∧
        //                curView = preparedView = v.
        if self.block_view || self.prepared_view != self.cur_view {
            return;
        }
        let Some(value) = self.prepared_value.clone() else {
            return;
        };
        let key = (self.cur_view, value.digest());
        if self.commit_votes.count(&key) < self.cfg.probabilistic_quorum() {
            return;
        }
        self.stats.commit_quorums += 1;

        // Line 22: decide(curVal).
        match &self.decision {
            None => {
                self.decision = Some(Decision {
                    view: self.cur_view,
                    value,
                    at: ctx.now(),
                });
            }
            Some(d) if d.value.digest() != value.digest() => {
                // Safety violation — latched for the experiment harness.
                self.conflicting_decision = true;
            }
            Some(_) => {}
        }
    }

    // -----------------------------------------------------------------
    // Equivocation: lines 23–25.
    // -----------------------------------------------------------------
    /// Checks an incoming message for a conflicting leader-signed proposal.
    /// Returns `true` if the view was blocked by this message.
    fn check_equivocation(&mut self, msg: &Message, ctx: &mut Context<'_, Message>) -> bool {
        // pre (line 23): ¬blockView ∧ curView = v ∧ j = leader(v) ∧
        //                voted ∧ curVal ≠ x.
        if self.block_view || !self.voted {
            return false;
        }
        let Some(prop) = msg.embedded_proposal() else {
            return false;
        };
        if prop.view != self.cur_view {
            return false;
        }
        let Some(cur) = &self.cur_val else {
            return false;
        };
        if prop.value.digest() == cur.digest() {
            return false;
        }
        // Line 24: block the view; line 25: expose both proposals.
        self.block_view = true;
        self.stats.equivocations_detected += 1;
        let peers: Vec<ProcessId> = self.all_peers().collect();
        ctx.multicast(peers.clone(), msg.clone());
        if let Some(original) = &self.accepted_propose {
            ctx.multicast(peers, Message::Propose(original.clone()));
        }
        true
    }

    /// Dispatches a message already routed to the current view.
    fn handle_current_view_message(&mut self, msg: Message, ctx: &mut Context<'_, Message>) {
        if self.check_equivocation(&msg, ctx) {
            return;
        }
        if self.block_view {
            // Blocked views ignore protocol traffic (we wait for the
            // synchronizer); NewLeader is still collected because it
            // belongs to *entering* the view, not to deciding in it.
            if let Message::NewLeader(m) = msg {
                self.on_new_leader(m, ctx);
            }
            return;
        }
        match msg {
            Message::Propose(p) => self.on_propose(p, ctx),
            Message::Prepare(p) => self.on_prepare(p, ctx),
            Message::Commit(c) => self.on_commit(c, ctx),
            Message::NewLeader(m) => self.on_new_leader(m, ctx),
            Message::Wish(_) => unreachable!("wishes are routed separately"),
        }
    }
}

impl Process for Replica {
    type Message = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.enter_view(self.start_view, ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: Message, ctx: &mut Context<'_, Message>) {
        // Cryptographic verification first: Byzantine peers may send
        // arbitrary bytes; nothing below this line sees an unverified
        // message. (The transport sender is deliberately ignored — relayed
        // messages verify against their embedded signer, line 25.)
        if let Err(_reason) = msg.verify(&self.verify_ctx()) {
            self.stats.rejected += 1;
            return;
        }

        // Synchronizer traffic is view-independent (cumulative wishes).
        if let Message::Wish(w) = &msg {
            let action = self.sync.on_wish(w.sender, w.view);
            self.apply_sync_action(action, ctx);
            return;
        }

        let view = msg.view();
        if view < self.cur_view {
            // Stale: consensus state for old views is gone.
            return;
        }
        if view > self.cur_view {
            // Buffer messages for imminent views; drop beyond the horizon.
            if view.0.saturating_sub(self.cur_view.0) <= self.cfg.view_buffer_horizon() {
                self.future.entry(view).or_default().push(msg);
            } else {
                self.stats.rejected += 1;
            }
            return;
        }
        self.handle_current_view_message(msg, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Message>) {
        let view = View(token.0);
        if view != self.cur_view {
            return; // stale timer from an earlier view
        }
        // View timer expired: wish to advance, and re-arm so a stuck view
        // keeps re-broadcasting its wish.
        let action = self.sync.on_timeout();
        ctx.set_timer(
            self.cfg.timeout_since(self.start_view, self.cur_view),
            TimerToken(self.cur_view.0),
        );
        self.apply_sync_action(action, ctx);
    }
}

impl Replica {
    fn apply_sync_action(
        &mut self,
        action: crate::synchronizer::SyncAction,
        ctx: &mut Context<'_, Message>,
    ) {
        if let Some(wish) = action.broadcast_wish {
            let msg = Message::Wish(crate::message::Wish::sign(&self.sk, self.id, wish));
            let peers: Vec<ProcessId> = self.all_peers().collect();
            ctx.multicast(peers, msg);
        }
        if let Some(view) = action.enter_view {
            self.enter_view(view, ctx);
        }
    }
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.cur_view)
            .field("voted", &self.voted)
            .field("blocked", &self.block_view)
            .field("prepared_view", &self.prepared_view)
            .field("decided", &self.decision.is_some())
            .finish()
    }
}
