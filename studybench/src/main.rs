//! `studybench` — the study's benchmark: host time and simulated time
//! over four workloads, and a traced run that attributes host time to
//! the protocol layers.
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload paper-n7 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets up (builds the unit list from the seed and runs the
//! workload's canary against its committed digest, nine times), then
//! repeats passes over the unit list for `--seconds`, then re-drives
//! the first pass from the library's public parts and checks it bit
//! for bit. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` next to this crate for every metric's definition.

mod digest;
mod redrive;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use neko::derive_seed;
use study::explore::{run_tuple, Verdict};
use study::{find_saturation, run_once, Algorithm, SaturationResult, SingleRun, Summary};

use crate::digest::{committed, same_run, Digest};
use crate::redrive::{Redriven, Spans};
use crate::trace::Layer;
use crate::workloads::{RunSpec, Unit};

/// Counts heap allocations (for `alloc.per_unit`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all real work to `System`; only a counter is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What an untraced unit returned.
enum Outcome {
    Run(SingleRun),
    Knee(SaturationResult),
    /// `None` when `run_tuple` panicked.
    Tuple(Option<Verdict>),
}

fn execute(u: &Unit) -> Outcome {
    match u {
        Unit::Steady(s) => Outcome::Run(run_once(s.alg, &s.script, &s.params(), s.seed)),
        Unit::Knee(s, search) => Outcome::Knee(find_saturation(
            s.alg,
            &s.script,
            &s.params(),
            s.seed,
            search,
        )),
        Unit::Tuple(t) => Outcome::Tuple(catch_unwind(AssertUnwindSafe(|| run_tuple(t))).ok()),
    }
}

fn digest_outcome(d: &mut Digest, o: &Outcome) {
    match o {
        Outcome::Run(r) => d.run(r),
        Outcome::Knee(k) => {
            d.f64(k.t_star);
            for &(t, sustained) in &k.probes {
                d.f64(t);
                d.u64(u64::from(sustained));
            }
            for r in k.at_t_star.iter().flat_map(|o| &o.runs) {
                d.run(r);
            }
        }
        Outcome::Tuple(v) => match v {
            Some(Verdict::Pass { delivered }) => d.u64(*delivered as u64),
            Some(Verdict::Fail(v)) => {
                d.u64(u64::MAX - 1);
                for b in format!("{v:?}").bytes() {
                    d.u64(u64::from(b));
                }
            }
            None => d.u64(u64::MAX),
        },
    }
}

/// Operations attempted and failed: measured broadcasts (undelivered
/// at the deadline fail), knee searches (finding no knee below the
/// ceiling fails — a run at `T*` may by definition leave up to 5 % of
/// its broadcasts undelivered) or explorer tuples (a `Fail` verdict or
/// a panic fails).
fn ops(o: &Outcome) -> (u64, u64) {
    match o {
        Outcome::Run(r) => (r.measured, r.undelivered),
        Outcome::Knee(k) => (1, u64::from(k.t_star <= 0.0 || k.saturated_at.is_none())),
        Outcome::Tuple(v) => (1, u64::from(!matches!(v, Some(Verdict::Pass { .. })))),
    }
}

/// One simulation a unit consists of, with what the untraced call
/// says it must produce.
enum SimCase {
    Run {
        spec: RunSpec,
        expect: Option<SingleRun>,
    },
    Tuple {
        tuple: study::explore::Tuple,
        expect: Option<Verdict>,
    },
}

/// The simulations behind a unit: the run itself, every
/// probe × replication of a knee search, or the tuple.
fn cases(u: &Unit, o: &Outcome) -> Vec<SimCase> {
    match (u, o) {
        (Unit::Steady(s), Outcome::Run(r)) => vec![SimCase::Run {
            spec: s.clone(),
            expect: Some(r.clone()),
        }],
        (Unit::Knee(s, _), Outcome::Knee(k)) => k
            .probes
            .iter()
            .flat_map(|&(t, _)| {
                (0..s.replications).map(move |rep| {
                    let at_knee = t.to_bits() == k.t_star.to_bits();
                    let expect = at_knee
                        .then(|| k.at_t_star.as_ref().map(|o| o.runs[rep].clone()))
                        .flatten();
                    let mut spec = s.with_throughput(t);
                    spec.seed = derive_seed(s.seed, rep as u64);
                    SimCase::Run { spec, expect }
                })
            })
            .collect(),
        (Unit::Tuple(t), Outcome::Tuple(v)) => vec![SimCase::Tuple {
            tuple: t.clone(),
            expect: v.clone(),
        }],
        _ => unreachable!("outcome kind follows unit kind"),
    }
}

fn redrive(c: &SimCase, timed: bool) -> Redriven {
    match c {
        SimCase::Run { spec, .. } => redrive::steady(spec, timed),
        SimCase::Tuple { tuple, .. } => redrive::tuple(tuple, timed),
    }
}

/// Checks a re-drive against what the untraced call produced, and the
/// oracle's uniform total order on its logs.
fn check(c: &SimCase, rd: &Redriven) -> Result<(), String> {
    match c {
        SimCase::Run { spec, expect } => {
            let run = rd.run.as_ref().expect("steady re-drives return a run");
            if !rd.ordered {
                return Err(format!("{:?} n={}: total order violated", spec.alg, spec.n));
            }
            if let Some(e) = expect {
                if !same_run(run, e) {
                    return Err(format!(
                        "{:?} n={} T={}: re-drive differs from run_once",
                        spec.alg, spec.n, spec.throughput
                    ));
                }
            }
        }
        SimCase::Tuple { tuple, expect } => {
            if let Some(Verdict::Pass { delivered }) = expect {
                if !rd.ordered || *delivered != rd.longest_log {
                    return Err(format!(
                        "{:?} n={} seed={:#x}: re-drive differs from run_tuple",
                        tuple.alg, tuple.n, tuple.seed
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Whether a knee search's sustained flags agree with its re-driven
/// replications' (`sustained`, in [`cases`] order) under the
/// runner's majority rule.
fn check_knee(u: &Unit, o: &Outcome, sustained: &[bool]) -> Result<(), String> {
    let (Unit::Knee(s, _), Outcome::Knee(k)) = (u, o) else {
        return Ok(());
    };
    for (i, &(t, flag)) in k.probes.iter().enumerate() {
        let reps = &sustained[i * s.replications..(i + 1) * s.replications];
        let ok = reps.iter().filter(|&&r| r).count();
        if (ok * 2 > s.replications) != flag {
            return Err(format!(
                "{:?}: knee probe at {t}/s re-drives differently",
                s.alg
            ));
        }
    }
    Ok(())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it
/// (nearest rank), or the median for fewer than twenty samples.
fn tail(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len().saturating_sub(11).max((v.len() - 1) / 2);
    v[idx]
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn alg_key(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Fd => "fd",
        Algorithm::Gm => "gm",
        Algorithm::Ring => "ring",
        other => panic!("not a study algorithm: {other:?}"),
    }
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// The measured passes of an untraced run, and its end-to-end metrics.
fn end_to_end(
    units: &[Unit],
    outcomes: &[Outcome],
    latencies: &[(Vec<f64>, u64)],
    walls: &[f64],
    setup: f64,
    peak_rss: f64,
) -> Result<Metrics, String> {
    let mut m: Metrics = vec![
        ("setup_s".into(), setup, "s"),
        ("wall_s".into(), median(walls), "s"),
        ("peak_rss_mb".into(), peak_rss, "MB"),
    ];
    let mut pooled: [Vec<f64>; 3] = Default::default();
    let mut knee: [Vec<f64>; 3] = Default::default();
    // Sum over runs of the offered load times the share delivered,
    // and the number of runs.
    let mut rate: [(f64, f64); 3] = [(0.0, 0.0); 3];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for ((u, o), lat) in units.iter().zip(outcomes).zip(latencies) {
        let i = Algorithm::STUDY
            .iter()
            .position(|&a| a == u.alg())
            .expect("study algorithm");
        let (a, f) = ops(o);
        attempted += a;
        failed += f;
        match (u, o) {
            (Unit::Steady(s), Outcome::Run(r)) => {
                pooled[i].extend(&r.latencies);
                let delivered = (r.measured - r.undelivered) as f64;
                rate[i].0 += s.throughput * delivered / r.measured.max(1) as f64;
                rate[i].1 += 1.0;
            }
            (Unit::Knee(..), Outcome::Knee(k)) => {
                if k.t_star <= 0.0 {
                    return Err(format!(
                        "{:?}: no sustained load below the ceiling",
                        u.alg()
                    ));
                }
                knee[i].push(k.t_star);
            }
            (Unit::Tuple(t), Outcome::Tuple(_)) => {
                let (lat, offered) = lat;
                pooled[i].extend(lat);
                rate[i].0 += t.throughput * lat.len() as f64 / (*offered).max(1) as f64;
                rate[i].1 += 1.0;
            }
            _ => unreachable!("outcome kind follows unit kind"),
        }
    }
    for (i, alg) in Algorithm::STUDY.into_iter().enumerate() {
        let s = Summary::from_samples(&pooled[i]);
        let (Some(p50), Some(p99)) = (s.p50(), s.p99()) else {
            return Err(format!("{alg:?}: no delivered broadcast"));
        };
        let t_star = if knee[i].is_empty() {
            rate[i].0 / rate[i].1
        } else {
            median(&knee[i])
        };
        let k = alg_key(alg);
        m.push((format!("sim_p50_ms.{k}"), p50, "sim_ms"));
        m.push((format!("sim_p99_ms.{k}"), p99, "sim_ms"));
        m.push((format!("t_star_per_s.{k}"), t_star, "1/sim_s"));
    }
    m.push((
        "ok_frac".into(),
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    Ok(m)
}

/// One traced pass's aggregates.
#[derive(Default)]
struct TracePass {
    /// Wall of the untraced units (`run_once`, `find_saturation`,
    /// `run_tuple`).
    untraced_wall: f64,
    /// Wall of the plain and the decorated re-drives.
    plain_wall: f64,
    traced_wall: f64,
    plain: Spans,
    traced: Spans,
    /// `run_once`/`run_tuple` wall outside the simulator's
    /// `run_until`.
    runner_self: f64,
    /// `find_saturation` wall outside its `run_once` calls.
    saturate_self: f64,
    probes: u64,
    saturated: u64,
    /// Untraced tuple walls (ms): small groups, then n = 64.
    tuple_ms: [Vec<f64>; 2],
    allocs: u64,
    units: u64,
    sims: u64,
    wire: u64,
    deliveries: u64,
    merges: u64,
    cpu_busy_s: f64,
    net_busy_s: f64,
    highwater: u64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs every unit untraced, then re-drives each of its simulations
/// plainly and with the [`trace::Timed`] decorator, checking both
/// against the untraced result.
fn trace_pass(units: &[Unit]) -> Result<(TracePass, Vec<Outcome>), String> {
    let mut tp = TracePass::default();
    let mut outcomes = Vec::with_capacity(units.len());
    for u in units {
        let a0 = ALLOCATIONS.load(Ordering::Relaxed);
        let (o, wall) = timed(|| execute(u));
        tp.allocs += ALLOCATIONS.load(Ordering::Relaxed) - a0;
        tp.units += 1;
        tp.untraced_wall += wall;
        let mut in_runs = 0.0;
        let mut sustained = Vec::new();
        for c in cases(u, &o) {
            // A knee probe's own `run_once` is timed here; a steady
            // run or a tuple is the unit itself.
            let reference = match (&c, u) {
                (SimCase::Run { spec: s, .. }, Unit::Knee(..)) => {
                    let (r, w) = timed(|| run_once(s.alg, &s.script, &s.params(), s.seed));
                    in_runs += w;
                    Some((r, w))
                }
                _ => None,
            };
            let (plain, plain_wall) = timed(|| redrive(&c, false));
            let (traced, traced_wall) = timed(|| redrive(&c, true));
            check(&c, &plain)?;
            check(&c, &traced)?;
            let same = match (&plain.run, &traced.run) {
                (Some(a), Some(b)) => same_run(a, b),
                _ => plain.net == traced.net,
            } && plain.longest_log == traced.longest_log;
            if !same {
                return Err(format!("{:?}: traced re-drive differs from plain", u.alg()));
            }
            let ref_wall = match reference {
                Some((r, w)) => {
                    if !same_run(&r, plain.run.as_ref().expect("steady re-drive")) {
                        return Err(format!("{:?}: knee probe differs from run_once", u.alg()));
                    }
                    w
                }
                None => wall,
            };
            tp.runner_self += ref_wall - secs(plain.spans.run_until);
            tp.plain_wall += plain_wall;
            tp.traced_wall += traced_wall;
            tp.plain.add(&plain.spans);
            tp.traced.add(&traced.spans);
            tp.sims += 1;
            let net = &traced.net;
            tp.wire += net.wire_messages;
            tp.deliveries += net.deliveries;
            tp.merges += net.merges;
            tp.cpu_busy_s += net.cpu_busy.as_millis_f64() / 1e3;
            tp.net_busy_s += net.net_busy.as_millis_f64() / 1e3;
            tp.highwater = tp.highwater.max(net.queue_highwater);
            sustained.push(plain.sustained());
        }
        check_knee(u, &o, &sustained)?;
        match (u, &o) {
            (Unit::Knee(..), Outcome::Knee(k)) => {
                tp.saturate_self += wall - in_runs;
                tp.probes += k.probes.len() as u64;
                tp.saturated += k.probes.iter().filter(|(_, s)| !s).count() as u64;
            }
            (Unit::Tuple(t), _) => tp.tuple_ms[usize::from(t.n >= 64)].push(wall * 1e3),
            _ => {}
        }
        outcomes.push(o);
    }
    Ok((tp, outcomes))
}

fn per_layer(tp: &TracePass) -> Metrics {
    let mut m: Metrics = Vec::new();
    let l = &tp.traced.layers;
    for layer in Layer::ALL {
        let i = layer as usize;
        let calls = l.calls[i];
        let s = secs(l.self_time[i]);
        m.push((format!("{}.calls", layer.name()), calls as f64, "count"));
        m.push((format!("{}.self_s", layer.name()), s, "s"));
        let ns = if calls == 0 {
            0.0
        } else {
            s * 1e9 / calls as f64
        };
        m.push((format!("{}.ns_per_call", layer.name()), ns, "ns"));
    }
    let run_until = secs(tp.traced.run_until);
    let kernel = run_until - secs(l.handler_time()) - secs(l.ctx_time);
    let plain_run_until = secs(tp.plain.run_until);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let bcasts = tp.traced.commands as f64;
    m.extend([
        ("neko.events".into(), tp.plain.events as f64, "count"),
        (
            "neko.events_per_s".into(),
            ratio(tp.plain.events as f64, plain_run_until),
            "1/s",
        ),
        ("neko.self_s".into(), kernel, "s"),
        ("neko.ctx_calls".into(), l.ctx_calls as f64, "count"),
        ("neko.ctx_s".into(), secs(l.ctx_time), "s"),
        (
            "neko.queue_peak".into(),
            tp.plain.queue_peak as f64,
            "count",
        ),
        ("neko.net.wire_messages".into(), tp.wire as f64, "count"),
        ("neko.net.deliveries".into(), tp.deliveries as f64, "count"),
        (
            "neko.net.merge_ratio".into(),
            ratio(tp.merges as f64, (tp.merges + tp.wire) as f64),
            "ratio",
        ),
        ("neko.net.cpu_busy_s".into(), tp.cpu_busy_s, "sim_s"),
        ("neko.net.net_busy_s".into(), tp.net_busy_s, "sim_s"),
        (
            "neko.net.queue_highwater".into(),
            tp.highwater as f64,
            "count",
        ),
        (
            "wire_msgs_per_bcast".into(),
            ratio(tp.wire as f64, bcasts),
            "ratio",
        ),
        ("study.runner.self_s".into(), tp.runner_self, "s"),
        ("study.arrivals_s".into(), secs(tp.plain.arrivals), "s"),
        ("study.compile_s".into(), secs(tp.plain.compile), "s"),
        ("study.oracle_s".into(), secs(tp.plain.oracle), "s"),
        ("study.saturate.self_s".into(), tp.saturate_self, "s"),
        ("study.saturate.probes".into(), tp.probes as f64, "count"),
        (
            "study.saturate.saturated_share".into(),
            ratio(tp.saturated as f64, tp.probes as f64),
            "ratio",
        ),
        (
            "study.explore.tuple_ms_p50.small".into(),
            median(&tp.tuple_ms[0]),
            "ms",
        ),
        (
            "study.explore.tuple_ms_tail.small".into(),
            tail(&tp.tuple_ms[0]),
            "ms",
        ),
        (
            "study.explore.tuple_ms_p50.n64".into(),
            median(&tp.tuple_ms[1]),
            "ms",
        ),
        (
            "study.explore.tuple_ms_tail.n64".into(),
            tail(&tp.tuple_ms[1]),
            "ms",
        ),
        (
            "alloc.per_unit".into(),
            ratio(tp.allocs as f64, tp.units as f64),
            "count",
        ),
        (
            "membership.views_installed".into(),
            tp.plain.views as f64,
            "count",
        ),
        ("trace.untraced_wall_s".into(), tp.untraced_wall, "s"),
        ("trace.redrive_wall_s".into(), tp.plain_wall, "s"),
        ("trace.traced_wall_s".into(), tp.traced_wall, "s"),
        (
            "trace.overhead_s".into(),
            tp.traced_wall - tp.plain_wall,
            "s",
        ),
        (
            "trace.overhead_frac".into(),
            ratio(run_until - plain_run_until, plain_run_until),
            "ratio",
        ),
        (
            "trace.coverage".into(),
            ratio(secs(tp.traced.total()), tp.traced_wall),
            "ratio",
        ),
        ("trace.sims".into(), tp.sims as f64, "count"),
    ]);
    m
}

/// Runs the workload's canary list and checks it against the
/// committed digest.
fn canary(workload: &str) -> Result<(), String> {
    let units = workloads::units(workload, 0, true).expect("known workload");
    let mut d = Digest::new();
    for u in &units {
        digest_outcome(&mut d, &execute(u));
    }
    let got = d.hex();
    match committed(workload, "canary") {
        Some(want) if want == got => Ok(()),
        want => Err(format!(
            "canary digest {got} does not match the committed {}",
            want.unwrap_or("(none)")
        )),
    }
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with all its digits (non-finite values cannot occur
/// in a correct run and are written as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn run(args: &Args, start: Instant) -> Result<(bool, u64, u64, Metrics), String> {
    // One sweep worker: `find_saturation` fans replications across
    // `STUDY_SWEEP_THREADS` workers, and a single one is the steadier
    // host-time measurement. Set before any thread exists.
    std::env::set_var("STUDY_SWEEP_THREADS", "1");
    let mut problems: Vec<String> = Vec::new();

    // Set-up: the unit list, and the canary (which also warms the
    // allocator and the runner's per-thread scratch pool).
    let mut setups = Vec::new();
    let mut units = Vec::new();
    for i in 0..SETUP_REPEATS {
        let t = if i == 0 { start } else { Instant::now() };
        units = workloads::units(&args.workload, args.seed, false).expect("known workload");
        if let Err(e) = canary(&args.workload) {
            problems.push(e);
        }
        setups.push(secs(t.elapsed()));
    }
    let setup = median(&setups);

    // Measurement: closed-loop passes over the unit list.
    let measure = Instant::now();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<Vec<Outcome>> = None;
    let mut layer_passes: Vec<Metrics> = Vec::new();
    while walls.is_empty() || secs(measure.elapsed()) < args.seconds {
        let t = Instant::now();
        let outcomes = if args.trace {
            let (tp, outcomes) = trace_pass(&units)?;
            layer_passes.push(per_layer(&tp));
            outcomes
        } else {
            units.iter().map(execute).collect()
        };
        walls.push(secs(t.elapsed()));
        let mut d = Digest::new();
        for o in &outcomes {
            digest_outcome(&mut d, o);
        }
        digests.push(d.hex());
        first.get_or_insert(outcomes);
    }
    let outcomes = first.expect("at least one pass");
    let passes = walls.len() as u64;
    // Before verification, whose re-drives are not the workload's.
    let peak_rss = peak_rss_mb();

    if digests.iter().any(|d| *d != digests[0]) {
        problems.push("passes over the same units gave different results".into());
    }
    for (u, o) in units.iter().zip(&outcomes) {
        if let (Unit::Tuple(t), Outcome::Tuple(v)) = (u, o) {
            if !matches!(v, Some(Verdict::Pass { .. })) {
                eprintln!("studybench: failed tuple {t:?}: {v:?}");
            }
        }
    }
    let key = args.seed.to_string();
    match committed(&args.workload, &key) {
        Some(want) if want != digests[0] => problems.push(format!(
            "seed {} digest {} does not match the committed {want}",
            args.seed, digests[0]
        )),
        _ => {}
    }
    eprintln!(
        "studybench: {} seed {} digest {} over {} passes",
        args.workload, args.seed, digests[0], passes
    );

    // Verification: the first pass re-driven from public parts.
    // Explorer latencies come from here: `run_tuple` returns a verdict.
    let mut latencies = Vec::with_capacity(units.len());
    for (u, o) in units.iter().zip(&outcomes) {
        let mut sustained = Vec::new();
        let (mut lat, mut offered) = (Vec::new(), 0);
        for c in cases(u, o) {
            let rd = redrive(&c, false);
            if let Err(e) = check(&c, &rd) {
                problems.push(e);
            }
            sustained.push(rd.sustained());
            lat.extend(rd.latencies);
            offered += rd.spans.commands;
        }
        if let Err(e) = check_knee(u, o, &sustained) {
            problems.push(e);
        }
        latencies.push((lat, offered));
    }

    let (mut attempted, mut failed) = (0, 0);
    for o in &outcomes {
        let (a, f) = ops(o);
        attempted += a * passes;
        failed += f * passes;
    }
    let metrics = if args.trace {
        // Medians over passes, metric by metric (counts repeat exactly).
        let mut m = layer_passes[0].clone();
        for (i, entry) in m.iter_mut().enumerate() {
            let vals: Vec<f64> = layer_passes.iter().map(|p| p[i].1).collect();
            entry.1 = median(&vals);
        }
        m
    } else {
        end_to_end(&units, &outcomes, &latencies, &walls, setup, peak_rss)?
    };
    for p in &problems {
        eprintln!("studybench: INCORRECT: {p}");
    }
    Ok((problems.is_empty(), attempted, failed, metrics))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("studybench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok((correct, attempted, failed, metrics)) => {
            for (name, value, unit) in &metrics {
                println!("{name:<40} {value:>20} {unit}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                json_metrics(&metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}
