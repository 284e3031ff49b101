//! The consensus-instance sequencer: atomic broadcast by reduction to
//! reliable broadcast plus a sequence of Chandra–Toueg consensus
//! instances `#1, #2, …` (paper Section 4.1).
//!
//! `A-broadcast(m)` reliable-broadcasts `m`; instance `k` decides a
//! batch of message ids, which is A-delivered — in id order — before
//! the batch of instance `k+1`. The sequencer is generic over the
//! decided value ([`SeqValue`]): the FD algorithm decides batches that
//! carry their payloads ([`crate::Batch`]), the ring algorithm
//! (`ringpaxos`) decides compact id batches and repairs missing
//! bodies through [`Hooks`]. Everything else lives here once:
//! instance buffering and in-order application of decisions, the
//! coordinator renumbering of Section 7, the stall probe and its
//! nudge, and the proposal and decision plumbing.

use std::collections::{BTreeMap, BTreeSet};

use consensus::{Consensus, ConsensusAction, ConsensusConfig, ConsensusMsg, Value};
use fdet::SuspectSet;
use neko::{FdEvent, Message, Pid};
use rbcast::{RbAction, RbMsg, ReliableBcast};

use crate::common::{MsgId, Payload};

/// A consensus value the [`Sequencer`] orders: a batch of message ids,
/// tagged with its proposer for the renumbering optimisation.
pub trait SeqValue<P>: Value {
    /// `proposer`'s proposal: everything it has pending, in id order.
    fn propose(proposer: Pid, pending: &BTreeMap<MsgId, P>) -> Self;

    /// The process whose proposal this is.
    fn proposer(&self) -> Pid;

    /// The decided messages in delivery order, each with its payload
    /// when the value carries one (otherwise the body received by
    /// reliable broadcast or repair is delivered).
    fn into_msgs(self) -> impl Iterator<Item = (MsgId, Option<P>)>;

    /// The `mutation-skip-tiebreak` self-check's reordering of a
    /// decided value by local arrival; only the FD algorithm's batches
    /// override it.
    #[cfg(feature = "mutation-skip-tiebreak")]
    fn skip_tiebreak(self, _arrival: &[MsgId]) -> Self {
        self
    }
}

/// Wire messages of a sequencer deciding values of type `V`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqMsg<V, P> {
    /// Reliable broadcast of a payload.
    Data(RbMsg<(MsgId, P)>),
    /// Consensus traffic of instance `k`.
    Cons {
        /// The instance number.
        k: u64,
        /// The embedded consensus message.
        inner: ConsensusMsg<V>,
    },
    /// Channel repair: "my oldest undecided instance is `k` and it
    /// has made no progress — resend what I may have lost". Sent by
    /// the stall probe after a crash-recovery or healed partition
    /// dropped in-flight messages; receivers answer with the
    /// decisions the sender is missing, or re-emit their directed
    /// state for the instance.
    Nudge {
        /// The sender's current instance.
        k: u64,
    },
}

impl<V: SeqValue<P>, P: Payload> Message for SeqMsg<V, P> {
    // Consensus aggregates whole batches per instance; no wire-level
    // coalescing is needed (or used by the paper).
}

/// Outputs of a sequencer-based state machine, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<M, P> {
    /// Send to one process.
    Send(Pid, M),
    /// Send to all other processes.
    Multicast(M),
    /// `A-deliver`.
    Deliver {
        /// The broadcast's identity.
        id: MsgId,
        /// Its payload.
        payload: P,
    },
}

impl<M, P> Action<M, P> {
    /// Converts the carried wire message.
    pub fn map_msg<N>(self, f: impl FnOnce(M) -> N) -> Action<N, P> {
        match self {
            Action::Send(to, m) => Action::Send(to, f(m)),
            Action::Multicast(m) => Action::Multicast(f(m)),
            Action::Deliver { id, payload } => Action::Deliver { id, payload },
        }
    }
}

/// Where a [`Sequencer`]'s actions go, and where a machine built on it
/// extends the shared control flow. A plain action vector is the FD
/// algorithm's sink; the ring algorithm's sink adds payload repair.
/// Every hook except [`Hooks::push`] does nothing by default.
pub trait Hooks<V: SeqValue<P>, P: Payload> {
    /// Emits one action.
    fn push(&mut self, action: Action<SeqMsg<V, P>, P>);

    /// Whether the decision of the current instance may be applied
    /// now; `false` blocks in-order delivery until a later call.
    fn ready(&mut self, _seq: &Sequencer<V, P>, _decided: &V) -> bool {
        true
    }

    /// A payload arrived by reliable broadcast (just before it
    /// becomes pending).
    fn on_body(&mut self, _id: MsgId) {}

    /// `id` is A-delivered with `payload`.
    fn on_deliver(&mut self, _id: MsgId, _payload: &P) {}

    /// A process became suspected: called after reliable broadcast
    /// relayed its undecided payloads, before consensus reacts.
    fn on_suspect(&mut self, _seq: &Sequencer<V, P>) {}
}

impl<V: SeqValue<P>, P: Payload> Hooks<V, P> for Vec<Action<SeqMsg<V, P>, P>> {
    fn push(&mut self, action: Action<SeqMsg<V, P>, P>) {
        Vec::push(self, action);
    }
}

/// A consensus-sequenced state machine, as the [`crate::SeqNode`]
/// shell drives it: the FD algorithm ([`crate::FdAbcast`]) or the ring
/// algorithm (`ringpaxos`).
pub trait SeqMachine: 'static {
    /// The A-broadcast payload.
    type Payload: Payload;
    /// The wire message.
    type Msg: Message;

    /// Creates the endpoint for `me` in a system of `n` processes.
    /// `suspects` is the failure detector's current output.
    fn new(me: Pid, n: usize, suspects: &SuspectSet) -> Self;

    /// `A-broadcast(payload)`; returns the new message's id.
    fn broadcast(&mut self, payload: Self::Payload, out: &mut Actions<Self>) -> MsgId;

    /// Handles a wire message.
    fn on_message(&mut self, from: Pid, msg: Self::Msg, out: &mut Actions<Self>);

    /// Handles a failure-detector edge.
    fn on_fd(&mut self, ev: FdEvent, out: &mut Actions<Self>);

    /// Periodic repair probe (see [`Sequencer::stall_probe`]).
    fn stall_probe(&mut self, out: &mut Actions<Self>);
}

/// The action buffer of a [`SeqMachine`].
pub type Actions<M> = Vec<Action<<M as SeqMachine>::Msg, <M as SeqMachine>::Payload>>;

/// Observable progress of the oldest undecided instance, compared
/// across stall probes: `(instance, consensus diagnostic snapshot)`.
type ProgressSig = (u64, Option<(u32, &'static str, usize, usize)>);

/// Per-process state of the consensus sequence: a pure state machine
/// whose handlers write their actions to a [`Hooks`] sink.
#[derive(Debug)]
pub struct Sequencer<V: SeqValue<P>, P: Payload> {
    me: Pid,
    n: usize,
    renumbering: bool,
    rb: ReliableBcast<(MsgId, P)>,
    /// Received but not yet ordered payloads.
    pending: BTreeMap<MsgId, P>,
    delivered: BTreeSet<MsgId>,
    delivered_log: Vec<MsgId>,
    /// Next instance to decide (all below are decided).
    k: u64,
    instances: BTreeMap<u64, Consensus<V>>,
    decisions_ahead: BTreeMap<u64, V>,
    /// Consensus messages buffered for instances not yet started.
    future: BTreeMap<u64, Vec<(Pid, ConsensusMsg<V>)>>,
    coord_first: Pid,
    suspects: SuspectSet,
    /// Progress signature at the last stall probe.
    last_probe: Option<ProgressSig>,
    /// Consecutive probes with a frozen signature.
    stalled_probes: u32,
    /// Reused action buffers for the inner rbcast/consensus machines.
    /// Always empty between calls; kept only for their capacity (the
    /// handlers otherwise allocate a fresh vector per wire message).
    rb_scratch: Vec<RbAction<(MsgId, P)>>,
    cons_scratch: Vec<ConsensusAction<V>>,
    /// Local arrival order of pending messages — only consulted by
    /// the `mutation-skip-tiebreak` self-check build.
    #[cfg(feature = "mutation-skip-tiebreak")]
    arrival: Vec<MsgId>,
}

impl<V: SeqValue<P>, P: Payload> Sequencer<V, P> {
    /// Creates the endpoint for `me` in a system of `n` processes.
    /// `suspects` is the failure detector's current output.
    pub fn new(me: Pid, n: usize, suspects: &SuspectSet) -> Self {
        Sequencer {
            me,
            n,
            renumbering: true,
            rb: ReliableBcast::new(me),
            pending: BTreeMap::new(),
            delivered: BTreeSet::new(),
            delivered_log: Vec::new(),
            k: 1,
            instances: BTreeMap::new(),
            decisions_ahead: BTreeMap::new(),
            future: BTreeMap::new(),
            coord_first: Pid::new(0),
            suspects: suspects.clone(),
            last_probe: None,
            stalled_probes: 0,
            rb_scratch: Vec::new(),
            cons_scratch: Vec::new(),
            #[cfg(feature = "mutation-skip-tiebreak")]
            arrival: Vec::new(),
        }
    }

    /// Disables the coordinator-renumbering optimisation (ablation).
    pub fn without_renumbering(mut self) -> Self {
        self.renumbering = false;
        self
    }

    /// The A-delivery order so far (ids).
    pub fn delivered_log(&self) -> &[MsgId] {
        &self.delivered_log
    }

    /// Number of messages received but not yet ordered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Current consensus instance number.
    pub fn instance(&self) -> u64 {
        self.k
    }

    /// This process.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// The group size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Round-1 coordinator of the current instance: the last decided
    /// proposer under renumbering.
    pub fn coord_first(&self) -> Pid {
        self.coord_first
    }

    /// The failure detector's current output.
    pub fn suspects(&self) -> &SuspectSet {
        &self.suspects
    }

    /// The current instance's decision, while a [`Hooks::ready`] hook
    /// holds it back.
    pub fn blocked_decision(&self) -> Option<&V> {
        self.decisions_ahead.get(&self.k)
    }

    /// The payload of a received, not yet delivered message.
    pub fn body(&self, id: MsgId) -> Option<&P> {
        self.pending.get(&id)
    }

    /// Whether `id`'s payload is held locally or already delivered.
    pub fn holds(&self, id: MsgId) -> bool {
        self.delivered.contains(&id) || self.pending.contains_key(&id)
    }

    /// Makes a payload that arrived outside reliable broadcast pending,
    /// unless it is already delivered.
    pub fn receive(&mut self, id: MsgId, payload: P) {
        if !self.delivered.contains(&id) {
            self.pending.entry(id).or_insert(payload);
        }
    }

    /// `A-broadcast(payload)`; returns the new message's id.
    pub fn broadcast(&mut self, payload: P, out: &mut impl Hooks<V, P>) -> MsgId {
        // One reliable broadcast per A-broadcast; the rb id doubles as
        // the message id, and is embedded in the payload so receivers
        // (and consensus batches) carry it around.
        let bid = self.rb.next_id();
        let id = MsgId {
            origin: bid.origin,
            seq: bid.seq,
        };
        let mut rb_out = std::mem::take(&mut self.rb_scratch);
        let assigned = self.rb.broadcast((id, payload), &mut rb_out);
        debug_assert_eq!(assigned, bid);
        self.map_rb(&mut rb_out, out);
        self.rb_scratch = rb_out;
        id
    }

    /// Handles a wire message.
    pub fn on_message(&mut self, from: Pid, msg: SeqMsg<V, P>, out: &mut impl Hooks<V, P>) {
        match msg {
            SeqMsg::Data(rbmsg) => {
                let mut rb_out = std::mem::take(&mut self.rb_scratch);
                self.rb.on_message(from, rbmsg, &self.suspects, &mut rb_out);
                self.map_rb(&mut rb_out, out);
                self.rb_scratch = rb_out;
                // A data arrival may be the body a held-back decision
                // waits for.
                self.apply_ready_decisions(out);
            }
            SeqMsg::Cons { k, inner } => {
                if k > self.k {
                    // Instances run strictly in order locally; keep
                    // early traffic for later.
                    self.future.entry(k).or_default().push((from, inner));
                    return;
                }
                if k == self.k {
                    self.ensure_instance(out);
                }
                let Some(inst) = self.instances.get_mut(&k) else {
                    return;
                };
                let mut cons_out = std::mem::take(&mut self.cons_scratch);
                inst.on_message(from, inner, &mut cons_out);
                self.pump_cons(k, &mut cons_out, out);
                self.cons_scratch = cons_out;
            }
            SeqMsg::Nudge { k } => {
                if k < self.k {
                    // The sender is behind: serve it every decision it
                    // is missing (it applies them in order and catches
                    // up in one hop).
                    for kk in k..self.k {
                        if let Some(reply) =
                            self.instances.get(&kk).and_then(Consensus::decision_reply)
                        {
                            out.push(Action::Send(
                                from,
                                SeqMsg::Cons {
                                    k: kk,
                                    inner: reply,
                                },
                            ));
                        }
                    }
                } else if k == self.k {
                    // Same instance: re-emit our directed state — the
                    // proposal (coordinator) or estimate/ack
                    // (participant) the sender may have lost.
                    if let Some(inst) = self.instances.get(&k) {
                        let mut cons_out = std::mem::take(&mut self.cons_scratch);
                        inst.resend_to(from, &mut cons_out);
                        self.pump_cons(k, &mut cons_out, out);
                        self.cons_scratch = cons_out;
                    }
                }
                // k > self.k: the nudger is ahead; our own stall probe
                // covers our side.
            }
        }
    }

    /// Periodic channel-repair probe. Call at a coarse interval (the
    /// [`crate::SeqNode`] shell uses a timer): when the oldest
    /// undecided instance has made *no* observable progress since the
    /// last probe, ask the group to resend what was lost. Quiet in
    /// loss-free runs — consensus always progresses between probes —
    /// so steady-state behaviour is untouched.
    pub fn stall_probe(&mut self, out: &mut impl Hooks<V, P>) {
        let sig = (
            self.k,
            self.instances.get(&self.k).map(Consensus::debug_state),
        );
        if self.last_probe.as_ref() == Some(&sig) {
            self.stalled_probes += 1;
        } else {
            self.stalled_probes = 0;
        }
        self.last_probe = Some(sig);
        // Two consecutive frozen probes (≥ 2 intervals of zero
        // progress) separate real message loss from an instance
        // merely queued behind a deep backlog near saturation, where
        // nudging would add load (and perturb the FD ≡ GM message
        // pattern) for nothing.
        if self.stalled_probes < 2 {
            return;
        }
        let undecided = self
            .instances
            .get(&self.k)
            .is_some_and(|c| !c.has_decided());
        if undecided {
            out.push(Action::Multicast(SeqMsg::Nudge { k: self.k }));
        }
    }

    /// Handles a failure-detector edge.
    pub fn on_fd(&mut self, ev: FdEvent, out: &mut impl Hooks<V, P>) {
        self.suspects.apply(ev);
        if let FdEvent::Suspect(p) = ev {
            // Lazy relay of undecided payloads from the suspect.
            let mut rb_out = std::mem::take(&mut self.rb_scratch);
            self.rb.on_suspect(p, &mut rb_out);
            self.map_rb(&mut rb_out, out);
            self.rb_scratch = rb_out;
            out.on_suspect(self);
        }
        // Only the in-flight instance reacts to suspicions (the paper's
        // "the FD algorithm reacts only to the crash of the [current]
        // coordinator"). Decided instances serve laggards by replying
        // to their messages with the decision instead.
        let k = self.k;
        if let Some(inst) = self.instances.get_mut(&k) {
            let mut cons_out = std::mem::take(&mut self.cons_scratch);
            inst.on_fd(ev, &mut cons_out);
            self.pump_cons(k, &mut cons_out, out);
            self.cons_scratch = cons_out;
        }
    }

    fn map_rb(&mut self, rb_out: &mut Vec<RbAction<(MsgId, P)>>, out: &mut impl Hooks<V, P>) {
        for a in rb_out.drain(..) {
            match a {
                RbAction::Deliver {
                    payload: (id, p), ..
                } => {
                    if !self.delivered.contains(&id) {
                        #[cfg(feature = "mutation-skip-tiebreak")]
                        if !self.pending.contains_key(&id) {
                            self.arrival.push(id);
                        }
                        out.on_body(id);
                        self.pending.insert(id, p);
                        self.ensure_instance(out);
                    }
                }
                RbAction::Multicast(m) => out.push(Action::Multicast(SeqMsg::Data(m))),
                RbAction::Send(to, m) => out.push(Action::Send(to, SeqMsg::Data(m))),
            }
        }
    }

    /// Creates (and proposes in) the current instance if there is a
    /// reason to: pending messages, or incoming traffic for it.
    pub fn ensure_instance(&mut self, out: &mut impl Hooks<V, P>) {
        if self.pending.is_empty() && !self.instances.contains_key(&self.k) {
            return;
        }
        let k = self.k;
        if !self.instances.contains_key(&k) {
            let cfg = if self.renumbering {
                ConsensusConfig::ring_from(self.me, self.n, self.coord_first)
            } else {
                ConsensusConfig::ring(self.me, self.n)
            };
            self.instances
                .insert(k, Consensus::new(cfg, &self.suspects));
        }
        // Propose our current pending batch (empty batches are valid
        // when we were dragged in). An instance proposes once, so skip
        // building the proposal when it would be a no-op.
        let inst = &self.instances[&k];
        if inst.has_proposed() || inst.has_decided() {
            return;
        }
        let proposal = V::propose(self.me, &self.pending);
        let mut cons_out = std::mem::take(&mut self.cons_scratch);
        self.instances
            .get_mut(&k)
            .expect("inserted above")
            .propose(proposal, &mut cons_out);
        self.pump_cons(k, &mut cons_out, out);
        self.cons_scratch = cons_out;
    }

    fn pump_cons(
        &mut self,
        k: u64,
        cons_out: &mut Vec<ConsensusAction<V>>,
        out: &mut impl Hooks<V, P>,
    ) {
        let mut decided = None;
        for a in cons_out.drain(..) {
            match a {
                ConsensusAction::Send(p, m) => {
                    out.push(Action::Send(p, SeqMsg::Cons { k, inner: m }));
                }
                ConsensusAction::Multicast(m) => {
                    out.push(Action::Multicast(SeqMsg::Cons { k, inner: m }));
                }
                ConsensusAction::Decided(v) => decided = Some(v),
            }
        }
        if let Some(v) = decided {
            self.decisions_ahead.insert(k, v);
            self.apply_ready_decisions(out);
        }
    }

    /// Applies decisions in instance order for as long as the next one
    /// is decided and [`Hooks::ready`].
    pub fn apply_ready_decisions(&mut self, out: &mut impl Hooks<V, P>) {
        loop {
            let Some(next) = self.decisions_ahead.get(&self.k) else {
                return;
            };
            if !out.ready(self, next) {
                return;
            }
            let decided = self
                .decisions_ahead
                .remove(&self.k)
                .expect("present: just inspected");
            #[cfg(feature = "mutation-skip-tiebreak")]
            let decided = decided.skip_tiebreak(&self.arrival);
            let proposer = decided.proposer();
            for (id, body) in decided.into_msgs() {
                if self.delivered.insert(id) {
                    let pending = self.pending.remove(&id);
                    let payload = body
                        .or(pending)
                        .expect("ready only once every body is held");
                    self.delivered_log.push(id);
                    self.rb.forget(rbcast::BcastId {
                        origin: id.origin,
                        seq: id.seq,
                    });
                    out.on_deliver(id, &payload);
                    out.push(Action::Deliver { id, payload });
                }
            }
            if self.renumbering {
                self.coord_first = proposer;
            }
            self.k += 1;
            // Drain consensus traffic that arrived early for the new
            // instance. The instance number is pinned *outside* the
            // loop: processing one buffered message can decide this
            // instance and advance `self.k` (decisions already queued
            // in `decisions_ahead` chain-apply), and feeding the
            // remaining buffered messages — e.g. a second copy of the
            // decision, from the relay — into the *new* current
            // instance would decide it with the old instance's value
            // and silently diverge from the group. (Found by the
            // schedule explorer; pinned by
            // `buffered_duplicate_decision_stays_in_its_instance`.)
            let drained_k = self.k;
            if let Some(msgs) = self.future.remove(&drained_k) {
                self.ensure_instance(out);
                for (from, inner) in msgs {
                    let Some(inst) = self.instances.get_mut(&drained_k) else {
                        continue;
                    };
                    let mut cons_out = std::mem::take(&mut self.cons_scratch);
                    inst.on_message(from, inner, &mut cons_out);
                    self.pump_cons(drained_k, &mut cons_out, out);
                    self.cons_scratch = cons_out;
                }
            }
            self.ensure_instance(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Batch;

    #[test]
    fn without_renumbering_keeps_ring_order() {
        let s = SuspectSet::new();
        let a = Sequencer::<Batch<u32>, u32>::new(Pid::new(0), 3, &s).without_renumbering();
        assert!(!a.renumbering);
    }
}
