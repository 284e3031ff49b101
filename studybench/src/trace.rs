//! Host-time attribution from outside the program: a [`Process`]
//! decorator that times every handler call and classifies it by the
//! protocol layer it enters, plus a [`Ctx`] wrapper that carves the
//! time spent back inside the kernel (sends, timers, emits) out of the
//! handler's self time.
//!
//! The decorator forwards every call and every context operation
//! unchanged, so a traced simulation is the same simulation: the
//! re-drive checks that bit for bit against the untraced runner.

use std::time::{Duration, Instant};

use abcast::{FdCastMsg, GmCastMsg};
use neko::{Ctx, Dur, FdEvent, Message, Pid, Process, Time, TimerId};
use ringpaxos::RingMsg;

/// The handler layers a call is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Rbcast,
    Consensus,
    GmSeq,
    Membership,
    Catchup,
    RingRepair,
    Nudge,
    Command,
    Timer,
    FdEdge,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Rbcast,
        Layer::Consensus,
        Layer::GmSeq,
        Layer::Membership,
        Layer::Catchup,
        Layer::RingRepair,
        Layer::Nudge,
        Layer::Command,
        Layer::Timer,
        Layer::FdEdge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Rbcast => "rbcast",
            Layer::Consensus => "consensus",
            Layer::GmSeq => "abcast.gm_seq",
            Layer::Membership => "membership",
            Layer::Catchup => "abcast.catchup",
            Layer::RingRepair => "ringpaxos.repair",
            Layer::Nudge => "abcast.nudge",
            Layer::Command => "abcast.command",
            Layer::Timer => "abcast.timer",
            Layer::FdEdge => "fdet.edge",
        }
    }
}

/// Which layer an incoming wire message enters.
pub trait Classify {
    fn layer(&self) -> Layer;
}

impl<P> Classify for FdCastMsg<P> {
    fn layer(&self) -> Layer {
        match self {
            FdCastMsg::Data(_) => Layer::Rbcast,
            FdCastMsg::Cons { .. } => Layer::Consensus,
            FdCastMsg::Nudge { .. } => Layer::Nudge,
        }
    }
}

impl<P> Classify for GmCastMsg<P> {
    fn layer(&self) -> Layer {
        match self {
            GmCastMsg::Data { .. }
            | GmCastMsg::Seq { .. }
            | GmCastMsg::AckSn { .. }
            | GmCastMsg::AckUpTo { .. }
            | GmCastMsg::Deliver { .. } => Layer::GmSeq,
            GmCastMsg::Gm(_) => Layer::Membership,
            GmCastMsg::StateReq { .. } | GmCastMsg::StateResp { .. } => Layer::Catchup,
        }
    }
}

impl<P> Classify for RingMsg<P> {
    fn layer(&self) -> Layer {
        match self {
            RingMsg::Data(_) => Layer::Rbcast,
            RingMsg::Cons { .. } => Layer::Consensus,
            RingMsg::Nudge { .. } => Layer::Nudge,
            RingMsg::Fetch { .. } | RingMsg::Fwd { .. } => Layer::RingRepair,
        }
    }
}

/// Calls and self time per handler layer, plus the kernel operations
/// the handlers invoked through their context.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub calls: [u64; Layer::ALL.len()],
    pub self_time: [Duration; Layer::ALL.len()],
    pub ctx_calls: u64,
    pub ctx_time: Duration,
}

impl LayerTimes {
    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..Layer::ALL.len() {
            self.calls[i] += other.calls[i];
            self.self_time[i] += other.self_time[i];
        }
        self.ctx_calls += other.ctx_calls;
        self.ctx_time += other.ctx_time;
    }

    pub fn handler_time(&self) -> Duration {
        self.self_time.iter().sum()
    }
}

/// A process whose handler calls are timed per [`Layer`].
pub struct Timed<P> {
    inner: P,
    times: LayerTimes,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            times: LayerTimes::default(),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn times(&self) -> &LayerTimes {
        &self.times
    }
}

impl<P: Process> Timed<P> {
    fn call(
        &mut self,
        layer: Layer,
        ctx: &mut dyn Ctx<P::Msg, P::Out>,
        f: impl FnOnce(&mut P, &mut dyn Ctx<P::Msg, P::Out>),
    ) {
        let start = Instant::now();
        let mut tc = TimedCtx {
            ctx,
            calls: 0,
            spent: Duration::ZERO,
        };
        f(&mut self.inner, &mut tc);
        let total = start.elapsed();
        let i = layer as usize;
        self.times.calls[i] += 1;
        self.times.self_time[i] += total.saturating_sub(tc.spent);
        self.times.ctx_calls += tc.calls;
        self.times.ctx_time += tc.spent;
    }
}

impl<P> Process for Timed<P>
where
    P: Process,
    P::Msg: Classify,
{
    type Msg = P::Msg;
    type Cmd = P::Cmd;
    type Out = P::Out;

    // Start and recovery only (re)arm the protocol's probe timers.
    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(Layer::Timer, ctx, |p, c| p.on_start(c));
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: Self::Cmd) {
        self.call(Layer::Command, ctx, |p, c| p.on_command(c, cmd));
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        let layer = msg.layer();
        self.call(layer, ctx, |p, c| p.on_message(c, from, msg));
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.call(Layer::FdEdge, ctx, |p, c| p.on_fd(c, ev));
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        self.call(Layer::Timer, ctx, |p, c| p.on_timer(c, id, tag));
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.call(Layer::Timer, ctx, |p, c| p.on_recover(c));
    }
}

/// Forwards to the kernel's context, timing the operations that do
/// kernel work (message and timer scheduling, output collection).
struct TimedCtx<'a, 'c, M: Message, O> {
    ctx: &'a mut (dyn Ctx<M, O> + 'c),
    calls: u64,
    spent: Duration,
}

impl<M: Message, O> TimedCtx<'_, '_, M, O> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Ctx<M, O>) -> R) -> R {
        let start = Instant::now();
        let r = f(self.ctx);
        self.spent += start.elapsed();
        self.calls += 1;
        r
    }
}

impl<M: Message, O> Ctx<M, O> for TimedCtx<'_, '_, M, O> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn pid(&self) -> Pid {
        self.ctx.pid()
    }

    fn n(&self) -> usize {
        self.ctx.n()
    }

    fn send(&mut self, to: Pid, msg: M) {
        self.timed(|c| c.send(to, msg));
    }

    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.timed(|c| c.multicast(dests, msg));
    }

    fn broadcast(&mut self, msg: M) {
        self.timed(|c| c.broadcast(msg));
    }

    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        self.timed(|c| c.set_timer(after, tag))
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timed(|c| c.cancel_timer(id));
    }

    fn emit(&mut self, out: O) {
        self.timed(|c| c.emit(out));
    }

    fn is_suspected(&self, p: Pid) -> bool {
        self.ctx.is_suspected(p)
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        self.ctx.rng()
    }
}
