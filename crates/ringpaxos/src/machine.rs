//! The Ring Paxos-style atomic broadcast state machine.
//!
//! Ordering is the FD algorithm's [`Sequencer`] with one structural
//! change: consensus values are [`IdBatch`]es of **ids only**. A
//! decision can therefore outrun its payloads (the FD algorithm's
//! batches carry the bodies, so it never can), and the sequencer's
//! [`Hooks::ready`] check blocks delivery at the first decided id
//! whose payload is locally missing. The repair is the ring: a
//! [`RingMsg::Fetch`] is sent unicast to the most likely holder (the
//! id's origin, then the requester's ring successor) and hops acceptor
//! to acceptor around the f+1-member ring until some holder answers
//! the requester directly with a [`RingMsg::Fwd`]. Delivered bodies
//! are archived so any process that has delivered can serve a
//! laggard's fetch.

use std::collections::{BTreeMap, BTreeSet};

use abcast::{Action, Actions, Hooks, MsgId, Payload, SeqMachine, SeqMsg, SeqValue, Sequencer};
use consensus::ConsensusMsg;
use fdet::SuspectSet;
use neko::{FdEvent, Message, Pid};
use rbcast::RbMsg;

use crate::ring::{ring_members, ring_successor};

/// A consensus proposal/decision: the *ids* of a batch of messages,
/// tagged with the proposer for the renumbering optimisation. This is
/// the Ring Paxos signature — the ordering tier agrees on compact
/// identifiers, never on payload bodies.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IdBatch {
    /// The process whose proposal this is.
    pub proposer: Pid,
    /// The batched message ids, in id order.
    pub ids: Vec<MsgId>,
}

impl<P: Payload> SeqValue<P> for IdBatch {
    fn propose(proposer: Pid, pending: &BTreeMap<MsgId, P>) -> Self {
        // BTreeMap keys are already in id order, the paper's in-batch
        // delivery tie-break.
        IdBatch {
            proposer,
            ids: pending.keys().copied().collect(),
        }
    }

    fn proposer(&self) -> Pid {
        self.proposer
    }

    fn into_msgs(self) -> impl Iterator<Item = (MsgId, Option<P>)> {
        self.ids.into_iter().map(|id| (id, None))
    }
}

/// Wire messages of the ring algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingMsg<P> {
    /// Reliable broadcast of a payload.
    Data(RbMsg<(MsgId, P)>),
    /// Consensus traffic of instance `k` (ids only).
    Cons {
        /// The instance number.
        k: u64,
        /// The embedded consensus message.
        inner: ConsensusMsg<IdBatch>,
    },
    /// The sequencer's stall-probe nudge (see [`SeqMsg::Nudge`]).
    Nudge {
        /// The sender's current instance.
        k: u64,
    },
    /// Payload repair: `requester` holds a decision for `ids` but not
    /// their bodies. Hops unicast around the ring — each acceptor
    /// serves what it holds and forwards the remainder to its ring
    /// successor while `ttl` lasts.
    Fetch {
        /// The process missing the payloads (the `Fwd` target).
        requester: Pid,
        /// The ids still unresolved at this hop.
        ids: Vec<MsgId>,
        /// Remaining hops before the fetch is dropped (the
        /// requester's stall probe re-issues).
        ttl: u8,
    },
    /// Payload repair answer: bodies sent unicast straight back to
    /// the fetch's requester.
    Fwd {
        /// The resolved `(id, payload)` pairs.
        msgs: Vec<(MsgId, P)>,
    },
}

impl<P: Payload> Message for RingMsg<P> {
    // Consensus aggregates whole id-batches per instance, and fetches
    // are one-shot repairs; no wire-level coalescing.
}

impl<P> From<SeqMsg<IdBatch, P>> for RingMsg<P> {
    fn from(m: SeqMsg<IdBatch, P>) -> Self {
        match m {
            SeqMsg::Data(m) => RingMsg::Data(m),
            SeqMsg::Cons { k, inner } => RingMsg::Cons { k, inner },
            SeqMsg::Nudge { k } => RingMsg::Nudge { k },
        }
    }
}

/// Outputs of the ring state machine, in execution order.
pub type RingAction<P> = Action<RingMsg<P>, P>;

/// Per-process endpoint of the ring atomic broadcast algorithm: the
/// shared sequencer over [`IdBatch`]es plus the payload-repair state.
///
/// Pure state machine; the [`crate::RingNode`] shell adapts it to
/// [`neko::Process`].
#[derive(Debug)]
pub struct RingAbcast<P: Payload> {
    seq: Sequencer<IdBatch, P>,
    repair: Repair<P>,
}

/// The ring's own state: what it takes to find a missing body.
#[derive(Debug)]
struct Repair<P> {
    /// Delivered bodies, retained to serve laggards' fetches. Bounded
    /// by the run length, like the sequencer's decided-instance map —
    /// the study's runs are seconds of simulated time.
    archive: BTreeMap<MsgId, P>,
    /// Ids with a fetch in flight (cleared each probe tick, so lost
    /// fetches are retried at probe cadence without flooding).
    fetching: BTreeSet<MsgId>,
    /// Rotates the fetch entry point across re-issues: origin first,
    /// then around the ring, then everyone else.
    fetch_cursor: usize,
}

/// The sequencer's sink for one ring handler call: the action buffer
/// plus the repair state its hooks update.
struct Sink<'a, P> {
    repair: &'a mut Repair<P>,
    out: &'a mut Vec<RingAction<P>>,
}

impl<P: Payload> Hooks<IdBatch, P> for Sink<'_, P> {
    fn push(&mut self, action: Action<SeqMsg<IdBatch, P>, P>) {
        self.out.push(action.map_msg(RingMsg::from));
    }

    fn ready(&mut self, seq: &Sequencer<IdBatch, P>, decided: &IdBatch) -> bool {
        let missing = missing_of(seq, decided);
        if missing.is_empty() {
            return true;
        }
        // The decision outran its payloads: block in-order delivery
        // and start the ring repair.
        self.repair.issue_fetch(seq, missing, self.out);
        false
    }

    fn on_body(&mut self, id: MsgId) {
        self.repair.fetching.remove(&id);
    }

    fn on_deliver(&mut self, id: MsgId, payload: &P) {
        // Retain the body: a laggard applying this decision later
        // fetches it from us.
        self.repair.archive.insert(id, payload.clone());
    }

    fn on_suspect(&mut self, seq: &Sequencer<IdBatch, P>) {
        // A fetch in flight may have been addressed to (or routed
        // through) the suspect; re-issue on the rotated ring.
        let missing = missing_payloads(seq);
        if !missing.is_empty() {
            self.repair.fetching.clear();
            self.repair.issue_fetch(seq, missing, self.out);
        }
    }
}

/// The decided ids of `batch` whose payloads are not held locally.
fn missing_of<P: Payload>(seq: &Sequencer<IdBatch, P>, batch: &IdBatch) -> Vec<MsgId> {
    batch
        .ids
        .iter()
        .copied()
        .filter(|&id| !seq.holds(id))
        .collect()
}

fn missing_payloads<P: Payload>(seq: &Sequencer<IdBatch, P>) -> Vec<MsgId> {
    seq.blocked_decision()
        .map(|b| missing_of(seq, b))
        .unwrap_or_default()
}

impl<P: Payload> RingAbcast<P> {
    /// The shared consensus sequence (delivery log, pending set,
    /// current instance).
    pub fn sequencer(&self) -> &Sequencer<IdBatch, P> {
        &self.seq
    }

    /// Ids decided at the current instance whose payloads are still
    /// missing locally (the delivery loop is blocked on them).
    pub fn missing_payloads(&self) -> Vec<MsgId> {
        missing_payloads(&self.seq)
    }
}

impl<P: Payload> SeqMachine for RingAbcast<P> {
    type Payload = P;
    type Msg = RingMsg<P>;

    fn new(me: Pid, n: usize, suspects: &SuspectSet) -> Self {
        RingAbcast {
            seq: Sequencer::new(me, n, suspects),
            repair: Repair {
                archive: BTreeMap::new(),
                fetching: BTreeSet::new(),
                fetch_cursor: 0,
            },
        }
    }

    fn broadcast(&mut self, payload: P, out: &mut Actions<Self>) -> MsgId {
        let repair = &mut self.repair;
        self.seq.broadcast(payload, &mut Sink { repair, out })
    }

    fn on_message(&mut self, from: Pid, msg: RingMsg<P>, out: &mut Actions<Self>) {
        let msg = match msg {
            RingMsg::Data(m) => SeqMsg::Data(m),
            RingMsg::Cons { k, inner } => SeqMsg::Cons { k, inner },
            RingMsg::Nudge { k } => SeqMsg::Nudge { k },
            RingMsg::Fetch {
                requester,
                ids,
                ttl,
            } => return self.repair.on_fetch(&self.seq, requester, ids, ttl, out),
            RingMsg::Fwd { msgs } => {
                for (id, p) in msgs {
                    self.repair.fetching.remove(&id);
                    self.seq.receive(id, p);
                }
                let repair = &mut self.repair;
                let sink = &mut Sink { repair, out };
                self.seq.apply_ready_decisions(sink);
                self.seq.ensure_instance(sink);
                return;
            }
        };
        let repair = &mut self.repair;
        self.seq.on_message(from, msg, &mut Sink { repair, out });
    }

    /// Handles a failure-detector edge. Suspicion reconfigures the
    /// ring implicitly — membership is a pure function of the suspect
    /// set — and re-targets any blocked fetch aimed at the suspect.
    fn on_fd(&mut self, ev: FdEvent, out: &mut Actions<Self>) {
        let repair = &mut self.repair;
        self.seq.on_fd(ev, &mut Sink { repair, out });
    }

    /// The sequencer's consensus nudge, preceded by the ring's payload
    /// re-fetch when a decided batch is still blocked on missing
    /// bodies — lost fetches or forwards are retried with a rotated
    /// entry point. Quiet in loss-free runs, so steady-state behaviour
    /// (and the FD-identical message pattern) is untouched.
    fn stall_probe(&mut self, out: &mut Actions<Self>) {
        // Payload repair is not subject to the two-probe hysteresis: a
        // decided-but-missing-payload state is never "slow consensus",
        // it is a lost message by construction.
        let missing = self.missing_payloads();
        if !missing.is_empty() {
            self.repair.fetching.clear();
            self.repair.fetch_cursor += 1;
            self.repair.issue_fetch(&self.seq, missing, out);
        }
        let repair = &mut self.repair;
        self.seq.stall_probe(&mut Sink { repair, out });
    }
}

impl<P: Payload> Repair<P> {
    /// Serves a fetch hop: answer the requester with every body held
    /// locally, forward the rest to the ring successor.
    fn on_fetch(
        &self,
        seq: &Sequencer<IdBatch, P>,
        requester: Pid,
        ids: Vec<MsgId>,
        ttl: u8,
        out: &mut Vec<RingAction<P>>,
    ) {
        if requester == seq.me() {
            // Our own fetch walked the whole ring unanswered; the
            // stall probe re-issues with a rotated entry point.
            return;
        }
        let mut found = Vec::new();
        let mut rest = Vec::new();
        for id in ids {
            if let Some(p) = seq.body(id).or_else(|| self.archive.get(&id)) {
                found.push((id, p.clone()));
            } else {
                rest.push(id);
            }
        }
        if !found.is_empty() {
            out.push(Action::Send(requester, RingMsg::Fwd { msgs: found }));
        }
        if !rest.is_empty() && ttl > 1 {
            let succ = ring_successor(seq.me(), seq.n(), seq.coord_first(), seq.suspects());
            if let Some(succ) = succ.filter(|&s| s != requester) {
                out.push(Action::Send(
                    succ,
                    RingMsg::Fetch {
                        requester,
                        ids: rest,
                        ttl: ttl - 1,
                    },
                ));
            }
        }
    }

    /// Sends a fetch for every missing id that has none in flight.
    /// The entry point rotates with `fetch_cursor`: the id's origin
    /// first (it certainly held the body), then around the ring from
    /// our successor, then any remaining process — so a repeatedly
    /// re-issued fetch eventually tries every live holder.
    fn issue_fetch(
        &mut self,
        seq: &Sequencer<IdBatch, P>,
        missing: Vec<MsgId>,
        out: &mut Vec<RingAction<P>>,
    ) {
        let (me, n) = (seq.me(), seq.n());
        let members = ring_members(n, seq.coord_first(), seq.suspects());
        let mut pool: Vec<Pid> = Vec::new();
        if let Some(i) = members.iter().position(|&p| p == me) {
            for j in 1..members.len() {
                pool.push(members[(i + j) % members.len()]);
            }
        } else {
            pool.extend(members.iter().copied());
        }
        for p in Pid::all(n) {
            if p != me && !pool.contains(&p) {
                pool.push(p);
            }
        }
        if pool.is_empty() {
            return;
        }
        let ttl = n.min(u8::MAX as usize) as u8;
        let mut by_target: BTreeMap<Pid, Vec<MsgId>> = BTreeMap::new();
        for id in missing {
            if !self.fetching.insert(id) {
                continue; // already in flight
            }
            let mut candidates: Vec<Pid> = Vec::new();
            if id.origin != me && !seq.suspects().is_suspected(id.origin) {
                candidates.push(id.origin);
            }
            for &p in &pool {
                if !candidates.contains(&p) {
                    candidates.push(p);
                }
            }
            let target = candidates[self.fetch_cursor % candidates.len()];
            by_target.entry(target).or_default().push(id);
        }
        for (target, ids) in by_target {
            out.push(Action::Send(
                target,
                RingMsg::Fetch {
                    requester: me,
                    ids,
                    ttl,
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = RingAction<u32>;

    fn nodes(n: usize) -> Vec<RingAbcast<u32>> {
        (0..n)
            .map(|i| RingAbcast::new(Pid::new(i), n, &SuspectSet::new()))
            .collect()
    }

    /// Routes actions until quiescence (FIFO), returning deliveries
    /// per process.
    fn drive(
        nodes: &mut [RingAbcast<u32>],
        mut queue: Vec<(usize, usize, RingMsg<u32>)>,
    ) -> Vec<Vec<(MsgId, u32)>> {
        let n = nodes.len();
        let mut delivered = vec![Vec::new(); n];
        let mut steps = 0;
        while !queue.is_empty() {
            steps += 1;
            assert!(steps < 100_000, "no quiescence");
            let (from, to, m) = queue.remove(0);
            let mut out = Vec::new();
            nodes[to].on_message(Pid::new(from), m, &mut out);
            route(to, out, n, &mut queue, &mut delivered);
        }
        delivered
    }

    fn route(
        from: usize,
        out: Vec<A>,
        n: usize,
        queue: &mut Vec<(usize, usize, RingMsg<u32>)>,
        delivered: &mut [Vec<(MsgId, u32)>],
    ) {
        for a in out {
            match a {
                RingAction::Send(to, m) => queue.push((from, to.index(), m)),
                RingAction::Multicast(m) => {
                    for to in 0..n {
                        if to != from {
                            queue.push((from, to, m.clone()));
                        }
                    }
                }
                RingAction::Deliver { id, payload } => delivered[from].push((id, payload)),
            }
        }
    }

    #[test]
    fn single_broadcast_delivered_everywhere_in_same_order() {
        let mut ns = nodes(3);
        let mut out = Vec::new();
        let id = ns[1].broadcast(77, &mut out);
        let mut queue = Vec::new();
        let mut delivered = vec![Vec::new(); 3];
        route(1, out, 3, &mut queue, &mut delivered);
        let more = drive(&mut ns, queue);
        for (i, d) in more.iter().enumerate() {
            let mut all = delivered[i].clone();
            all.extend(d.iter().cloned());
            assert_eq!(all, vec![(id, 77)], "at p{}", i + 1);
        }
    }

    #[test]
    fn concurrent_broadcasts_are_totally_ordered() {
        let mut ns = nodes(3);
        let mut queue = Vec::new();
        let mut delivered = vec![Vec::new(); 3];
        for (i, n) in ns.iter_mut().enumerate() {
            let mut out = Vec::new();
            n.broadcast(10 + i as u32, &mut out);
            route(i, out, 3, &mut queue, &mut delivered);
        }
        let more = drive(&mut ns, queue);
        let mut logs: Vec<Vec<(MsgId, u32)>> = Vec::new();
        for i in 0..3 {
            let mut all = delivered[i].clone();
            all.extend(more[i].iter().cloned());
            logs.push(all);
        }
        assert_eq!(logs[0].len(), 3);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
    }

    #[test]
    fn back_to_back_broadcasts_all_ordered() {
        let mut ns = nodes(3);
        let mut queue = Vec::new();
        let mut delivered = vec![Vec::new(); 3];
        for v in [1u32, 2u32, 3u32] {
            let mut out = Vec::new();
            ns[0].broadcast(v, &mut out);
            route(0, out, 3, &mut queue, &mut delivered);
        }
        let more = drive(&mut ns, queue);
        for i in 0..3 {
            let mut all = delivered[i].clone();
            all.extend(more[i].iter().cloned());
            assert_eq!(all.len(), 3, "at p{}", i + 1);
        }
        assert_eq!(
            ns[0].sequencer().delivered_log(),
            ns[1].sequencer().delivered_log()
        );
        assert_eq!(
            ns[1].sequencer().delivered_log(),
            ns[2].sequencer().delivered_log()
        );
        assert_eq!(ns[0].sequencer().pending(), 0);
    }

    #[test]
    fn duplicate_data_is_idempotent() {
        let mut ns = nodes(3);
        let mut out = Vec::new();
        ns[0].broadcast(9, &mut out);
        let data = out
            .iter()
            .find_map(|a| match a {
                RingAction::Multicast(m @ RingMsg::Data(_)) => Some(m.clone()),
                _ => None,
            })
            .expect("data multicast");
        let mut out1 = Vec::new();
        ns[1].on_message(Pid::new(0), data.clone(), &mut out1);
        assert_eq!(ns[1].sequencer().pending(), 1);
        let mut out2 = Vec::new();
        ns[1].on_message(Pid::new(0), data, &mut out2);
        assert!(out2.is_empty(), "duplicate ignored: {out2:?}");
        assert_eq!(ns[1].sequencer().pending(), 1);
    }

    /// The ring's raison d'être: a decision whose payload never
    /// arrived blocks delivery, a fetch walks to a holder, and the
    /// forwarded body unblocks delivery in the agreed order.
    #[test]
    fn missing_payload_is_fetched_and_delivery_stays_in_order() {
        let mut ns = nodes(3);
        // p1 and p2 decide two batches while p3 hears nothing.
        let mut to_p3: Vec<(usize, RingMsg<u32>)> = Vec::new();
        let mut delivered = vec![Vec::new(); 3];
        for (origin, v) in [(0usize, 10u32), (1, 20)] {
            let mut out = Vec::new();
            ns[origin].broadcast(v, &mut out);
            let mut queue = Vec::new();
            capture(origin, out, &mut queue, &mut to_p3, &mut delivered);
            let mut steps = 0;
            while !queue.is_empty() {
                steps += 1;
                assert!(steps < 100_000, "no quiescence");
                let (from, to, m) = queue.remove(0);
                let mut out = Vec::new();
                ns[to].on_message(Pid::new(from), m, &mut out);
                capture(to, out, &mut queue, &mut to_p3, &mut delivered);
            }
        }
        assert_eq!(ns[0].sequencer().delivered_log().len(), 2);

        // The cut heals selectively: p3 receives the *second*
        // broadcast's body and both decisions, but the first
        // broadcast's Data multicast is lost for good. p3 must block
        // on batch 1, not deliver out of order or out of thin air.
        let mut queue: Vec<(usize, usize, RingMsg<u32>)> = Vec::new();
        let mut out = Vec::new();
        let second_data = to_p3
            .iter()
            .find(|(from, m)| *from == 1 && matches!(m, RingMsg::Data(_)))
            .cloned()
            .expect("second broadcast's data");
        ns[2].on_message(Pid::new(second_data.0), second_data.1, &mut out);
        for (from, m) in to_p3
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    RingMsg::Cons {
                        inner: ConsensusMsg::Decide(_),
                        ..
                    }
                )
            })
            .cloned()
        {
            ns[2].on_message(Pid::new(from), m, &mut out);
        }
        assert!(
            !out.iter().any(|a| matches!(a, RingAction::Deliver { .. })),
            "batch 1's payload is missing, so nothing may deliver: {out:?}"
        );
        assert!(
            out.iter()
                .any(|a| matches!(a, RingAction::Send(_, RingMsg::Fetch { .. }))),
            "blocked delivery issues a fetch: {out:?}"
        );
        assert_eq!(ns[2].missing_payloads().len(), 1);

        // Route p3's repair traffic against the live group until
        // quiescent: the fetched body arrives and p3 ends with the
        // group's exact log.
        route(2, out, 3, &mut queue, &mut delivered);
        drive(&mut ns, queue);
        assert_eq!(
            ns[2].sequencer().delivered_log(),
            ns[0].sequencer().delivered_log(),
            "fetched payloads deliver in the agreed order"
        );
        assert!(ns[2].missing_payloads().is_empty());
    }

    /// Routes among p1 ↔ p2 only; traffic addressed to p3 is captured
    /// for manual replay (p3 is cut off and lagging).
    fn capture(
        from: usize,
        out: Vec<A>,
        queue: &mut Vec<(usize, usize, RingMsg<u32>)>,
        to_p3: &mut Vec<(usize, RingMsg<u32>)>,
        delivered: &mut [Vec<(MsgId, u32)>],
    ) {
        for a in out {
            match a {
                RingAction::Send(to, m) => {
                    if to.index() == 2 {
                        to_p3.push((from, m));
                    } else {
                        queue.push((from, to.index(), m));
                    }
                }
                RingAction::Multicast(m) => {
                    for to in 0..3 {
                        if to == from {
                            continue;
                        }
                        if to == 2 {
                            to_p3.push((from, m.clone()));
                        } else {
                            queue.push((from, to, m.clone()));
                        }
                    }
                }
                RingAction::Deliver { id, payload } => delivered[from].push((id, payload)),
            }
        }
    }

    /// A fetch hop that holds nothing forwards the remainder to its
    /// ring successor with a decremented ttl, and a ttl of 1 ends the
    /// walk.
    #[test]
    fn fetch_forwards_around_the_ring_and_ttl_bounds_the_walk() {
        let mut ns = nodes(5);
        let id = MsgId {
            origin: Pid::new(3),
            seq: 0,
        };
        let mut out = Vec::new();
        ns[1].on_message(
            Pid::new(0),
            RingMsg::Fetch {
                requester: Pid::new(0),
                ids: vec![id],
                ttl: 3,
            },
            &mut out,
        );
        // p2 holds nothing: no Fwd, one forward to its ring successor.
        assert_eq!(out.len(), 1);
        match &out[0] {
            RingAction::Send(
                to,
                RingMsg::Fetch {
                    requester,
                    ids,
                    ttl,
                },
            ) => {
                assert_eq!(*to, Pid::new(2), "ring successor of p2");
                assert_eq!(*requester, Pid::new(0));
                assert_eq!(ids, &vec![id]);
                assert_eq!(*ttl, 2);
            }
            other => panic!("expected a forwarded fetch, got {other:?}"),
        }
        let mut out = Vec::new();
        ns[1].on_message(
            Pid::new(0),
            RingMsg::Fetch {
                requester: Pid::new(0),
                ids: vec![id],
                ttl: 1,
            },
            &mut out,
        );
        assert!(out.is_empty(), "ttl exhausted: {out:?}");
    }

    /// Duplicate forwarded bodies (two acceptors both answered, or a
    /// retried fetch double-resolved) deliver exactly once.
    #[test]
    fn duplicate_fwd_is_idempotent() {
        let mut ns = nodes(3);
        let mut to_p3: Vec<(usize, RingMsg<u32>)> = Vec::new();
        let mut delivered = vec![Vec::new(); 3];
        let mut out = Vec::new();
        ns[0].broadcast(10, &mut out);
        let mut queue = Vec::new();
        capture(0, out, &mut queue, &mut to_p3, &mut delivered);
        while !queue.is_empty() {
            let (from, to, m) = queue.remove(0);
            let mut out = Vec::new();
            ns[to].on_message(Pid::new(from), m, &mut out);
            capture(to, out, &mut queue, &mut to_p3, &mut delivered);
        }
        let decision = to_p3
            .iter()
            .find(|(_, m)| {
                matches!(
                    m,
                    RingMsg::Cons {
                        inner: ConsensusMsg::Decide(_),
                        ..
                    }
                )
            })
            .cloned()
            .expect("decision");
        // p3 A-broadcasts its own message (its multicast is lost to
        // the cut) so it has a pending message and an open instance —
        // the state any real participant is in when consensus traffic
        // reaches it.
        let mut out = Vec::new();
        ns[2].broadcast(30, &mut out);
        let mut out = Vec::new();
        ns[2].on_message(Pid::new(decision.0), decision.1, &mut out);
        let body = ns[0].repair.archive[&ns[0].sequencer().delivered_log()[0]];
        let fwd = RingMsg::Fwd {
            msgs: vec![(ns[0].sequencer().delivered_log()[0], body)],
        };
        let mut out1 = Vec::new();
        ns[2].on_message(Pid::new(0), fwd.clone(), &mut out1);
        let deliveries = |v: &Vec<A>| {
            v.iter()
                .filter(|a| matches!(a, RingAction::Deliver { .. }))
                .count()
        };
        assert_eq!(deliveries(&out1), 1, "first copy delivers: {out1:?}");
        let mut out2 = Vec::new();
        ns[2].on_message(Pid::new(1), fwd, &mut out2);
        assert_eq!(deliveries(&out2), 0, "second copy is a no-op: {out2:?}");
        assert_eq!(ns[2].sequencer().delivered_log().len(), 1);
    }

    #[test]
    fn suspicion_relays_pending_payloads() {
        let mut ns = nodes(3);
        let mut out = Vec::new();
        ns[0].broadcast(9, &mut out);
        let data = out
            .iter()
            .find_map(|a| match a {
                RingAction::Multicast(m @ RingMsg::Data(_)) => Some(m.clone()),
                _ => None,
            })
            .expect("data multicast");
        let mut out1 = Vec::new();
        ns[1].on_message(Pid::new(0), data, &mut out1);
        let mut out_fd = Vec::new();
        ns[1].on_fd(FdEvent::Suspect(Pid::new(0)), &mut out_fd);
        assert!(
            out_fd
                .iter()
                .any(|a| matches!(a, RingAction::Multicast(RingMsg::Data(_)))),
            "pending payload from the suspect is relayed: {out_fd:?}"
        );
    }

    #[test]
    fn ring_messages_never_merge() {
        let mk = || {
            RingMsg::Data(RbMsg::Data {
                id: rbcast::BcastId {
                    origin: Pid::new(0),
                    seq: 0,
                },
                payload: (
                    MsgId {
                        origin: Pid::new(0),
                        seq: 0,
                    },
                    7u32,
                ),
            })
        };
        let mut a = mk();
        assert!(!Message::try_merge(&mut a, &mk()));
    }
}
