//! Byzantine behaviours for the HotStuff baseline: crash and silence
//! only. HotStuff's QC rules make equivocation experiments a ProBFT/PBFT
//! concern.

use crate::message::HsMessage;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};

/// A Byzantine HotStuff replica, which is nothing but its behaviour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HsStrategy {
    /// Halts immediately.
    Crash,
    /// Stays alive but silent.
    Silent,
}

impl Process for HsStrategy {
    type Message = HsMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, HsMessage>) {
        if *self == HsStrategy::Crash {
            ctx.halt();
        }
    }

    fn on_message(&mut self, _from: ProcessId, _msg: HsMessage, _ctx: &mut Context<'_, HsMessage>) {
    }

    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, HsMessage>) {}
}
