//! The view synchronizer (Bravo–Chockler–Gotsman abstraction, §3.2).
//!
//! ProBFT assumes "a synchronizer exactly like the one presented in [6]"
//! that emits `newView(v)` notifications such that, after GST, all correct
//! replicas eventually overlap in the same view for long enough to decide
//! under a correct leader. This module implements the classic wish-based
//! construction:
//!
//! - A replica whose view timer expires *wishes* for the next view by
//!   broadcasting a signed `Wish`.
//! - Seeing `f+1` distinct replicas wish for views `≥ v` amplifies the
//!   replica's own wish to `v` (at least one correct replica wants it, so
//!   it is safe to join) — Bracha-style amplification.
//! - Seeing `2f+1` distinct replicas wish for views `≥ v > curView` enters
//!   view `v` (a majority of correct replicas will also see them and
//!   follow).
//!
//! Per-replica wish state is monotone (only a replica's highest wish
//! counts), so Byzantine replicas cannot force view changes alone: a jump
//! to view `v` requires `f+1` *correct* wishes among the `2f+1`.
//!
//! The synchronizer is a pure state machine: it reports [`SyncAction`]s and
//! never touches the network itself, which keeps it unit-testable and
//! reusable by the PBFT and HotStuff baselines.

use crate::config::View;
use probft_quorum::ReplicaId;
use std::collections::BTreeMap;

/// What the caller should do after feeding an event to the synchronizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SyncAction {
    /// If set, broadcast a `Wish` for this view (the replica's new wish).
    pub broadcast_wish: Option<View>,
    /// If set, enter this view (`newView(v)` notification).
    pub enter_view: Option<View>,
}

impl SyncAction {
    fn nothing() -> Self {
        SyncAction::default()
    }
}

/// Wish-based view synchronizer state for one replica.
#[derive(Clone, Debug)]
pub struct Synchronizer {
    /// Highest wish seen per replica (including our own).
    wishes: BTreeMap<ReplicaId, View>,
    me: ReplicaId,
    f: usize,
    current: View,
    my_wish: View,
}

impl Synchronizer {
    /// Creates a synchronizer for replica `me` with fault threshold `f`.
    /// The replica starts in view 1 (no wishes required).
    pub fn new(me: ReplicaId, f: usize) -> Self {
        Synchronizer {
            wishes: BTreeMap::new(),
            me,
            f,
            current: View::FIRST,
            my_wish: View::NONE,
        }
    }

    /// The view this replica currently occupies.
    pub fn current_view(&self) -> View {
        self.current
    }

    /// The highest view this replica has wished for.
    pub fn my_wish(&self) -> View {
        self.my_wish
    }

    /// The replica's view timer expired: wish for the next view.
    ///
    /// Returns a wish broadcast unless we already wished that high; also
    /// checks for (unlikely) immediate entry, e.g. when `f = 0`.
    pub fn on_timeout(&mut self) -> SyncAction {
        let target = self.current.next();
        self.raise_wish(target)
    }

    /// Moves this replica straight into `view` (a no-op unless it is
    /// higher than the current one), as if a `newView(view)` notification
    /// had fired. Used to open an instance in the view the rest of the
    /// system already works in; later views are reached by the usual
    /// wish rules from there.
    pub fn jump_to(&mut self, view: View) {
        self.current = self.current.max(view);
    }

    /// Records a (verified) wish from `sender` for `view`.
    pub fn on_wish(&mut self, sender: ReplicaId, view: View) -> SyncAction {
        let entry = self.wishes.entry(sender).or_insert(View::NONE);
        if view <= *entry {
            // Stale or duplicate wish; cumulative state unchanged.
            return SyncAction::nothing();
        }
        *entry = view;
        self.evaluate()
    }

    /// Raises our own wish to at least `target`.
    fn raise_wish(&mut self, target: View) -> SyncAction {
        let mut action = SyncAction::nothing();
        if target > self.my_wish {
            self.my_wish = target;
            self.wishes.insert(self.me, target);
            action.broadcast_wish = Some(target);
        } else if self.my_wish > self.current {
            // Re-broadcast the standing wish (timer re-fired while stuck).
            action.broadcast_wish = Some(self.my_wish);
        }
        let eval = self.evaluate();
        action.enter_view = eval.enter_view;
        if let Some(w) = eval.broadcast_wish {
            // Amplification may have raised the wish beyond `target`.
            action.broadcast_wish = Some(w);
        }
        action
    }

    /// The largest view `v` such that at least `count` replicas wish `≥ v`,
    /// or `None` if fewer than `count` wishes exist.
    fn kth_highest_wish(&self, count: usize) -> Option<View> {
        if self.wishes.len() < count || count == 0 {
            return None;
        }
        let mut views: Vec<View> = self.wishes.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a)); // descending
        Some(views[count - 1])
    }

    /// Applies the amplification (`f+1`) and entry (`2f+1`) rules.
    fn evaluate(&mut self) -> SyncAction {
        let mut action = SyncAction::nothing();

        // Amplification: f+1 wishes ≥ v means a correct replica wants v.
        if let Some(v) = self.kth_highest_wish(self.f + 1) {
            if v > self.my_wish && v > self.current {
                self.my_wish = v;
                self.wishes.insert(self.me, v);
                action.broadcast_wish = Some(v);
            }
        }

        // Entry: 2f+1 wishes ≥ v > current.
        if let Some(v) = self.kth_highest_wish(2 * self.f + 1) {
            if v > self.current {
                self.current = v;
                action.enter_view = Some(v);
            }
        }

        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync(f: usize) -> Synchronizer {
        Synchronizer::new(ReplicaId(0), f)
    }

    #[test]
    fn starts_in_view_one() {
        let s = sync(1);
        assert_eq!(s.current_view(), View::FIRST);
        assert_eq!(s.my_wish(), View::NONE);
    }

    #[test]
    fn timeout_broadcasts_wish() {
        let mut s = sync(1);
        let a = s.on_timeout();
        assert_eq!(a.broadcast_wish, Some(View(2)));
        assert_eq!(a.enter_view, None, "one wish is not enough with f=1");
    }

    #[test]
    fn entry_requires_two_f_plus_one() {
        let mut s = sync(1); // need 3 wishes
        s.on_timeout(); // our own wish for view 2
        assert_eq!(s.on_wish(ReplicaId(1), View(2)).enter_view, None);
        let a = s.on_wish(ReplicaId(2), View(2));
        assert_eq!(a.enter_view, Some(View(2)));
        assert_eq!(s.current_view(), View(2));
    }

    #[test]
    fn amplification_at_f_plus_one() {
        let mut s = sync(1);
        // Two peers wish view 5; we have not timed out ourselves.
        assert_eq!(s.on_wish(ReplicaId(1), View(5)).broadcast_wish, None);
        let a = s.on_wish(ReplicaId(2), View(5));
        // f+1 = 2 wishes ≥ 5 → we join the wish (and that makes 3 = 2f+1,
        // entering the view in the same step).
        assert_eq!(a.broadcast_wish, Some(View(5)));
        assert_eq!(a.enter_view, Some(View(5)));
    }

    #[test]
    fn byzantine_minority_cannot_force_view_change() {
        let mut s = sync(2); // n ≥ 7, amplification needs 3
        assert_eq!(s.on_wish(ReplicaId(5), View(100)).broadcast_wish, None);
        let a = s.on_wish(ReplicaId(6), View(100));
        assert_eq!(a.broadcast_wish, None, "f wishes must not amplify");
        assert_eq!(a.enter_view, None);
        assert_eq!(s.current_view(), View::FIRST);
    }

    #[test]
    fn wish_state_is_monotone_per_replica() {
        let mut s = sync(1);
        s.on_wish(ReplicaId(1), View(5));
        // The same replica "lowering" its wish changes nothing.
        assert_eq!(s.on_wish(ReplicaId(1), View(2)), SyncAction::default());
        // A second peer wish amplifies ours, making 2f+1 total: entry at
        // view 5 (the cumulative max), never view 2.
        let a = s.on_wish(ReplicaId(2), View(5));
        assert_eq!(a.enter_view, Some(View(5)));
        assert_eq!(s.current_view(), View(5));
    }

    #[test]
    fn repeated_timeout_rebroadcasts_standing_wish() {
        let mut s = sync(1);
        assert_eq!(s.on_timeout().broadcast_wish, Some(View(2)));
        // Still stuck in view 1; a second timeout re-broadcasts wish 2.
        assert_eq!(s.on_timeout().broadcast_wish, Some(View(2)));
    }

    #[test]
    fn straggler_jumps_to_quorum_view() {
        let mut s = sync(1);
        // The rest of the system has moved on to view 9. The second wish
        // amplifies ours (f+1 rule), which immediately completes the 2f+1
        // entry quorum — the straggler jumps straight to view 9.
        s.on_wish(ReplicaId(1), View(9));
        let a = s.on_wish(ReplicaId(2), View(9));
        assert_eq!(a.broadcast_wish, Some(View(9)));
        assert_eq!(a.enter_view, Some(View(9)));
        assert_eq!(s.current_view(), View(9));
    }

    #[test]
    fn jump_skips_ahead_and_wishes_continue_from_there() {
        let mut s = sync(1);
        s.jump_to(View(3));
        assert_eq!(s.current_view(), View(3));
        s.jump_to(View(2));
        assert_eq!(s.current_view(), View(3), "jumps never go back");
        // Wishes for views the jump skipped are stale.
        s.on_wish(ReplicaId(1), View(2));
        assert_eq!(s.on_wish(ReplicaId(2), View(2)).enter_view, None);
        // A timeout wishes for the view after the jump target.
        assert_eq!(s.on_timeout().broadcast_wish, Some(View(4)));
    }

    #[test]
    fn f_zero_single_timeout_advances() {
        let mut s = sync(0);
        let a = s.on_timeout();
        assert_eq!(a.broadcast_wish, Some(View(2)));
        assert_eq!(a.enter_view, Some(View(2)), "with f=0 one wish is 2f+1");
    }
}
