//! Re-drives of `study::run_once` (steady runs) and
//! `study::explore::run_tuple`, rebuilt from the library's public
//! parts — `FaultScript::compile`, `poisson_arrivals`, `SimBuilder`
//! and the node constructors — so every phase can be timed from
//! outside, and the nodes can be wrapped in the [`Timed`] decorator.
//!
//! A re-drive is only trusted when it reproduces the untraced call
//! bit for bit; `main` checks that on every unit it re-drives.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use abcast::{AbcastEvent, BatchConfig, Batched, FdNode, GmNode, Pack, Payload};
use fdet::SuspectSet;
use neko::{
    derive_seed, Dur, Injection, NetParams, NetStats, Pid, Process, Schedule, SimBuilder,
    SimScratch, Time,
};
use ringpaxos::RingNode;
use study::explore::Tuple;
use study::oracle::{self, DeliveryLog};
use study::{
    poisson_arrivals, Algorithm, CompiledScript, Reservoir, Running, ScriptAction, SingleRun,
    DEFAULT_LATENCY_SAMPLE_CAP,
};

use crate::trace::{Classify, LayerTimes, Timed};
use crate::workloads::RunSpec;

/// Read-only probes into a finished node.
pub trait Inspect {
    /// Views this process installed after the initial one.
    fn views_installed(&self) -> u64 {
        0
    }

    /// Handler times, when the node is [`Timed`].
    fn layer_times(&self) -> Option<&LayerTimes> {
        None
    }
}

impl<P: Payload> Inspect for FdNode<P> {}
impl<P: Payload> Inspect for RingNode<P> {}

impl<P: Payload> Inspect for GmNode<P> {
    fn views_installed(&self) -> u64 {
        self.algorithm().view().id().0
    }
}

impl<P: Payload, N: Inspect> Inspect for Batched<P, N> {
    fn views_installed(&self) -> u64 {
        self.inner().views_installed()
    }
}

impl<P: Inspect> Inspect for Timed<P> {
    fn views_installed(&self) -> u64 {
        self.inner().views_installed()
    }

    fn layer_times(&self) -> Option<&LayerTimes> {
        Some(self.times())
    }
}

/// Host time per phase of one re-drive, and the kernel's own counters.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    pub compile: Duration,
    pub arrivals: Duration,
    pub build: Duration,
    pub run_until: Duration,
    /// Scheduling, output collection and latency bookkeeping.
    pub bookkeeping: Duration,
    pub oracle: Duration,
    /// Broadcasts the workload offered.
    pub commands: u64,
    pub events: u64,
    pub queue_peak: u64,
    pub views: u64,
    pub layers: LayerTimes,
}

impl Spans {
    pub fn total(&self) -> Duration {
        self.compile + self.arrivals + self.build + self.run_until + self.bookkeeping + self.oracle
    }

    pub fn add(&mut self, o: &Spans) {
        self.compile += o.compile;
        self.arrivals += o.arrivals;
        self.build += o.build;
        self.run_until += o.run_until;
        self.bookkeeping += o.bookkeeping;
        self.oracle += o.oracle;
        self.commands += o.commands;
        self.events += o.events;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.views += o.views;
        self.layers.add(&o.layers);
    }
}

/// What one re-driven simulation produced.
pub struct Redriven {
    /// The steady run's `SingleRun` (steady re-drives only).
    pub run: Option<SingleRun>,
    pub net: NetStats,
    /// Deliveries in the longest delivery log.
    pub longest_log: usize,
    /// Latency (ms) of every delivered broadcast, in payload order
    /// (tuple re-drives only; a steady run's are in `run`).
    pub latencies: Vec<f64>,
    /// Whether the oracle's uniform total-order check passed.
    pub ordered: bool,
    pub spans: Spans,
}

impl Redriven {
    /// Whether a steady run sustained its load (the runner's
    /// undelivered-fraction rule).
    pub fn sustained(&self) -> bool {
        self.run
            .as_ref()
            .is_some_and(|r| r.mean_latency_ms.is_some())
    }
}

/// One simulation's inputs, however the caller derived them.
struct SimInputs<'a> {
    n: usize,
    seed: u64,
    net: NetParams,
    schedule: Schedule,
    end: Time,
    compiled: &'a CompiledScript,
    /// Commands, scheduled after the script's injections (the order
    /// both the runner and the explorer use).
    arrivals: &'a [(Time, Pid, u64)],
}

/// Builds the group and dispatches to [`Drive::run`] with the node
/// type of `alg` (batched or not).
fn with_nodes<D: Drive>(
    alg: Algorithm,
    batching: Option<BatchConfig>,
    n: usize,
    initial: &SuspectSet,
    d: D,
) -> D::Out {
    match (alg, batching) {
        (Algorithm::Fd, None) => d.run(|p| FdNode::<u64>::new(p, n, initial)),
        (Algorithm::Fd, Some(cfg)) => {
            d.run(|p| Batched::new(p, FdNode::<Pack<u64>>::new(p, n, initial), cfg))
        }
        (Algorithm::Gm, None) => d.run(|p| GmNode::<u64>::new(p, n, initial)),
        (Algorithm::Gm, Some(cfg)) => {
            d.run(|p| Batched::new(p, GmNode::<Pack<u64>>::new(p, n, initial), cfg))
        }
        (Algorithm::Ring, None) => d.run(|p| RingNode::<u64>::new(p, n, initial)),
        (Algorithm::Ring, Some(cfg)) => {
            d.run(|p| Batched::new(p, RingNode::<Pack<u64>>::new(p, n, initial), cfg))
        }
        (other, _) => panic!("the benchmark runs the study algorithms only, not {other:?}"),
    }
}

/// A computation generic over the node type.
trait Drive {
    type Out;
    fn run<P>(self, factory: impl FnMut(Pid) -> P) -> Self::Out
    where
        P: Process<Cmd = u64, Out = AbcastEvent<u64>> + Inspect,
        P::Msg: Classify;
}

struct Simulate<'a> {
    inputs: SimInputs<'a>,
    timed: bool,
}

/// A finished simulation's outputs and spans.
struct Simulated {
    outputs: Vec<(Time, Pid, AbcastEvent<u64>)>,
    net: NetStats,
    spans: Spans,
}

impl Drive for Simulate<'_> {
    type Out = Simulated;

    fn run<P>(self, mut factory: impl FnMut(Pid) -> P) -> Simulated
    where
        P: Process<Cmd = u64, Out = AbcastEvent<u64>> + Inspect,
        P::Msg: Classify,
    {
        if self.timed {
            simulate(&self.inputs, |p| Timed::new(factory(p)))
        } else {
            simulate(&self.inputs, factory)
        }
    }
}

thread_local! {
    /// Finished simulations' allocations, one per node type, reused
    /// the way the runner and the explorer reuse theirs — so a
    /// re-drive's `run_until` costs what the untraced one does.
    static SCRATCH: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

type Scratch<P> = SimScratch<<P as Process>::Msg, <P as Process>::Cmd, <P as Process>::Out>;

fn take_scratch<P: Process>() -> Option<Scratch<P>> {
    SCRATCH.with(|pool| {
        let mut pool = pool.borrow_mut();
        let i = pool.iter().position(|s| s.is::<Scratch<P>>())?;
        pool.swap_remove(i).downcast().ok().map(|s| *s)
    })
}

fn simulate<P>(inp: &SimInputs<'_>, factory: impl FnMut(Pid) -> P) -> Simulated
where
    P: Process<Cmd = u64, Out = AbcastEvent<u64>> + Inspect,
{
    let mut spans = Spans::default();
    let t = Instant::now();
    let mut sim = SimBuilder::new(inp.n)
        .seed(inp.seed)
        .network(inp.net)
        .schedule(inp.schedule)
        .build_with_scratch(factory, take_scratch::<P>());
    spans.build = t.elapsed();

    let t = Instant::now();
    for (at, act) in inp.compiled.entries() {
        match act {
            ScriptAction::Inject(inj) => sim.schedule_injection(*at, inj.clone()),
            ScriptAction::Probe(_) => panic!("benchmark scripts carry no probe"),
        }
    }
    for &(at, p, v) in inp.arrivals {
        sim.schedule_command(at, p, v);
    }
    spans.commands = inp.arrivals.len() as u64;
    spans.bookkeeping = t.elapsed();

    let t = Instant::now();
    spans.events = sim.run_until(inp.end) as u64;
    spans.run_until = t.elapsed();

    let t = Instant::now();
    let outputs = sim.take_outputs();
    for p in Pid::all(inp.n) {
        let node = sim.process(p);
        spans.views += node.views_installed();
        if let Some(l) = node.layer_times() {
            spans.layers.add(l);
        }
    }
    spans.queue_peak = sim.event_queue_peak();
    let net = sim.net_stats();
    let scratch: Box<dyn Any> = Box::new(sim.into_scratch());
    SCRATCH.with(|pool| pool.borrow_mut().push(scratch));
    spans.bookkeeping += t.elapsed();
    Simulated {
        outputs,
        net,
        spans,
    }
}

/// First A-delivery time of every payload.
fn first_deliveries(outputs: &[(Time, Pid, AbcastEvent<u64>)]) -> BTreeMap<u64, Time> {
    let mut first = BTreeMap::new();
    for (t, _, ev) in outputs {
        let AbcastEvent::Delivered { payload, .. } = ev;
        first.entry(*payload).or_insert(*t);
    }
    first
}

/// The oracle's uniform total-order check on the run's delivery logs;
/// returns the longest log's length and the verdict.
fn check_order(
    n: usize,
    outputs: Vec<(Time, Pid, AbcastEvent<u64>)>,
    spans: &mut Spans,
) -> (usize, bool) {
    let t = Instant::now();
    let logs: Vec<DeliveryLog> = oracle::delivery_logs(n, outputs);
    let ordered = oracle::check_uniform_total_order(&logs).is_ok();
    spans.oracle = t.elapsed();
    (logs.iter().map(Vec::len).max().unwrap_or(0), ordered)
}

/// A steady `run_once` (no probe), rebuilt: same compile, same
/// arrivals, same scheduling order, same measurement window and
/// latency reservoir.
pub fn steady(spec: &RunSpec, timed: bool) -> Redriven {
    let (n, seed) = (spec.n, spec.seed);
    let send_horizon = Time::ZERO + spec.warmup + spec.measure;
    let end = send_horizon + spec.drain;

    let t = Instant::now();
    let compiled = spec.script.compile(n, spec.warmup, end, seed);
    let compile = t.elapsed();

    let t = Instant::now();
    let ancient = compiled.ancient_crashes();
    let senders: Vec<Pid> = Pid::all(n).filter(|p| !ancient.contains(p)).collect();
    let arrivals = poisson_arrivals(
        n,
        spec.throughput,
        send_horizon,
        &senders,
        derive_seed(seed, 0x40AD),
    );
    let arrivals_span = t.elapsed();

    let inputs = SimInputs {
        n,
        seed,
        net: spec.net(),
        schedule: Schedule::Fifo,
        end,
        compiled: &compiled,
        arrivals: &arrivals,
    };
    let initial = compiled.initial_suspects().clone();
    let sim = with_nodes(
        spec.alg,
        spec.batching,
        n,
        &initial,
        Simulate { inputs, timed },
    );
    let mut spans = sim.spans;
    spans.compile = compile;
    spans.arrivals = arrivals_span;

    let t = Instant::now();
    let first = first_deliveries(&sim.outputs);
    let downtime = down_intervals(&compiled, n);
    let w0 = Time::ZERO + spec.warmup;
    let mut lat = Running::new();
    let mut reservoir = Reservoir::new(DEFAULT_LATENCY_SAMPLE_CAP, derive_seed(seed, 0x1A7E));
    let (mut measured, mut undelivered) = (0u64, 0u64);
    for &(sent, sender, payload) in &arrivals {
        if sent < w0 || sent >= send_horizon {
            continue;
        }
        if downtime[sender.index()]
            .iter()
            .any(|(from, until)| sent >= *from && until.is_none_or(|u| sent < u))
        {
            continue;
        }
        measured += 1;
        match first.get(&payload) {
            Some(t) => {
                let l = (*t - sent).as_millis_f64();
                lat.push(l);
                reservoir.push(l);
            }
            None => undelivered += 1,
        }
    }
    let saturated = measured == 0 || (undelivered as f64) > SATURATION_FRAC * measured as f64;
    let run = SingleRun {
        mean_latency_ms: (!saturated && !lat.is_empty()).then(|| lat.mean()),
        measured,
        undelivered,
        latencies: reservoir.into_samples(),
        net: sim.net,
    };
    spans.bookkeeping += t.elapsed();
    let (longest_log, ordered) = check_order(n, sim.outputs, &mut spans);
    Redriven {
        run: Some(run),
        net: sim.net,
        longest_log,
        latencies: Vec::new(),
        ordered,
        spans,
    }
}

/// `RunParams`' default undelivered-fraction threshold; the benchmark
/// keeps it, and the runner's default tie-break and sample cap.
const SATURATION_FRAC: f64 = 0.05;

/// One explorer tuple, rebuilt the way `run_tuple` drives it.
pub fn tuple(t: &Tuple, timed: bool) -> Redriven {
    let end = Time::ZERO + t.horizon + t.drain;
    let tm = Instant::now();
    let compiled = t.script.compile(t.n, Dur::ZERO, end, t.seed);
    let compile = tm.elapsed();

    let tm = Instant::now();
    let senders: Vec<Pid> = Pid::all(t.n).collect();
    let arrivals = poisson_arrivals(
        t.n,
        t.throughput,
        Time::ZERO + t.horizon,
        &senders,
        derive_seed(t.seed, 0xE791),
    );
    let arrivals_span = tm.elapsed();

    let inputs = SimInputs {
        n: t.n,
        seed: t.seed,
        net: NetParams::default().with_model(t.topology),
        schedule: t.schedule,
        end,
        compiled: &compiled,
        arrivals: &arrivals,
    };
    let initial = compiled.initial_suspects().clone();
    let sim = with_nodes(t.alg, None, t.n, &initial, Simulate { inputs, timed });
    let mut spans = sim.spans;
    spans.compile = compile;
    spans.arrivals = arrivals_span;

    let tm = Instant::now();
    let first = first_deliveries(&sim.outputs);
    let latencies = arrivals
        .iter()
        .filter_map(|(sent, _, payload)| first.get(payload).map(|d| (*d - *sent).as_millis_f64()))
        .collect();
    spans.bookkeeping += tm.elapsed();
    let (longest_log, ordered) = check_order(t.n, sim.outputs, &mut spans);
    Redriven {
        run: None,
        net: sim.net,
        longest_log,
        latencies,
        ordered,
        spans,
    }
}

/// Per-process down intervals `[crash, recover)`, read back from the
/// compiled injection stream (the runner's own rule: a crash while
/// down and a recovery while up are ignored).
fn down_intervals(compiled: &CompiledScript, n: usize) -> Vec<Vec<(Time, Option<Time>)>> {
    let mut edges: Vec<(Time, bool, Pid)> = compiled
        .entries()
        .iter()
        .filter_map(|(t, a)| match a {
            ScriptAction::Inject(Injection::Crash(p)) => Some((*t, true, *p)),
            ScriptAction::Inject(Injection::Recover(p)) => Some((*t, false, *p)),
            _ => None,
        })
        .collect();
    edges.sort_by_key(|(t, is_crash, _)| (*t, !*is_crash));
    let mut down: Vec<Vec<(Time, Option<Time>)>> = vec![Vec::new(); n];
    for (t, is_crash, p) in edges {
        let intervals = &mut down[p.index()];
        if is_crash {
            if !matches!(intervals.last(), Some((_, None))) {
                intervals.push((t, None));
            }
        } else if let Some((_, until @ None)) = intervals.last_mut() {
            *until = Some(t);
        }
    }
    down
}
