//! The four workloads: each is a fixed list of units, a pure function
//! of the workload seed. Host side, a run is a closed loop over that
//! list; simulated side, every unit is the paper's open-loop Poisson
//! workload (each process broadcasts at rate `T/n`) on the paper's
//! network (1 ms unit, λ = 1).

use abcast::BatchConfig;
use fdet::QosParams;
use neko::{derive_seed, Dur, NetParams, NetworkModel, Pid, Schedule, Time};
use study::explore::Tuple;
use study::{Algorithm, FaultScript, RunParams, SaturationSearch, ScriptTime};

pub const NAMES: [&str; 4] = ["paper-n7", "group-n64", "knee-batched", "explore-soak"];

/// Runs per algorithm in one `group-n64` pass, each with its own
/// seed.
const GROUP_RUNS: u64 = 10;
/// Tuples per algorithm in one `explore-soak` pass.
const SOAK_TUPLES: u64 = 600;
/// Tuples per algorithm in the `explore-soak` canary.
const CANARY_TUPLES: u64 = 32;
/// Independent knee searches per algorithm in one `knee-batched`
/// pass: the bisection path (which loads get probed) follows the
/// seed, so one search per algorithm leaves the pass's host time
/// seed-dependent.
const KNEE_SEARCHES: u64 = 3;
/// The load at which the `knee-batched` canary probes the batched
/// stack (the knee the committed `fig_saturation` rows report).
const CANARY_KNEE_RATE: f64 = 38_400.0;
/// The fixed load `knee-batched` reads latency at: the last ramp step
/// below the knee (100 · 2⁸ per second).
const KNEE_LATENCY_RATE: f64 = 25_600.0;

/// One simulated run: the dimensions of a `study::run_once` call.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub alg: Algorithm,
    pub script: FaultScript,
    pub n: usize,
    pub throughput: f64,
    pub model: NetworkModel,
    pub batching: Option<BatchConfig>,
    pub warmup: Dur,
    pub measure: Dur,
    pub drain: Dur,
    pub replications: usize,
    pub seed: u64,
}

impl RunSpec {
    pub fn net(&self) -> NetParams {
        NetParams::default().with_model(self.model)
    }

    pub fn params(&self) -> RunParams {
        let p = RunParams::new(self.n, self.throughput)
            .with_network_model(self.model)
            .with_warmup(self.warmup)
            .with_measure(self.measure)
            .with_drain(self.drain)
            .with_replications(self.replications);
        match self.batching {
            Some(cfg) => p.with_batching(cfg),
            None => p,
        }
    }

    pub fn with_throughput(&self, t: f64) -> RunSpec {
        RunSpec {
            throughput: t,
            ..self.clone()
        }
    }
}

/// One unit of host-side work.
#[derive(Clone, Debug)]
pub enum Unit {
    /// `run_once` on a steady scenario.
    Steady(RunSpec),
    /// `find_saturation` over the spec's dimensions.
    Knee(RunSpec, SaturationSearch),
    /// `explore::run_tuple`.
    Tuple(Tuple),
}

impl Unit {
    pub fn alg(&self) -> Algorithm {
        match self {
            Unit::Steady(s) | Unit::Knee(s, _) => s.alg,
            Unit::Tuple(t) => t.alg,
        }
    }
}

/// The unit list of `workload` under `seed`; `canary` gives the
/// workload's short, seed-independent self-check list instead.
pub fn units(workload: &str, seed: u64, canary: bool) -> Option<Vec<Unit>> {
    let seed = if canary { 0 } else { seed };
    let measure = |full: u64, short: u64| Dur::from_secs(if canary { short } else { full });
    let steady = |alg, script: &FaultScript, n, t, model, sub| RunSpec {
        alg,
        script: script.clone(),
        n,
        throughput: t,
        model,
        batching: None,
        warmup: Dur::from_millis(500),
        measure: Dur::ZERO,
        drain: Dur::from_secs(2),
        replications: 1,
        seed: derive_seed(seed, sub),
    };
    let units = match workload {
        // The per-message path, and membership/round changes under
        // zero-length wrong suspicions (mean recurrence 10 s per
        // monitored pair: about four a second across the group; at
        // 3 s GM's p99 is set by a few stalled view changes and swings
        // by a quarter from seed to seed, at 300 ms GM saturates).
        "paper-n7" => {
            let qos = QosParams::new()
                .with_mistake_recurrence(Dur::from_secs(10))
                .with_mistake_duration(Dur::ZERO);
            let scripts = [
                FaultScript::normal_steady(),
                FaultScript::suspicion_steady(qos),
            ];
            let mut v = Vec::new();
            // The suspicion half runs longer: GM's p99 is set by the
            // broadcasts caught in the slowest view changes, and over
            // 60 s one slow episode still moves it by a fifth. Each
            // half is split into short runs with their own seeds, as
            // in `group-n64`: one 150 s run's logs held 220 MB and its
            // host time swung by a fifth with other tenants' load.
            let halves = [(2, 10), (5, 30)];
            for (i, (script, (runs, secs))) in scripts.iter().zip(halves).enumerate() {
                let runs = if canary { 1 } else { runs };
                for alg in Algorithm::STUDY {
                    for k in 0..runs {
                        let sub = i as u64 + 2 * k;
                        let mut s = steady(alg, script, 7, 300.0, NetworkModel::SharedMedium, sub);
                        s.measure = measure(secs, 2);
                        v.push(Unit::Steady(s));
                    }
                }
            }
            v
        }
        // Per-destination work: every multicast fans out 63 ways. Many
        // short runs rather than one long run per algorithm: a long
        // run's delivered logs grow its working set to tens of MB, and
        // its host time then swings with the cache pressure other
        // tenants put on a shared host.
        "group-n64" => {
            let runs = if canary { 1 } else { GROUP_RUNS };
            Algorithm::STUDY
                .into_iter()
                .flat_map(|alg| (0..runs).map(move |k| (alg, k)))
                .map(|(alg, k)| {
                    let script = FaultScript::normal_steady();
                    let mut s = steady(alg, &script, 64, 100.0, NetworkModel::Switched, k);
                    s.warmup = Dur::from_secs(1);
                    s.measure = Dur::from_secs(2);
                    Unit::Steady(s)
                })
                .collect()
        }
        // Few wire messages carrying 32-payload packs; probes past
        // the 65 536-sample reservoir cap; saturated backlogs.
        "knee-batched" => {
            let mut v = Vec::new();
            for alg in Algorithm::STUDY {
                let script = FaultScript::normal_steady();
                let mut s = steady(alg, &script, 3, 0.0, NetworkModel::SharedMedium, 0);
                s.batching = Some(BatchConfig::new(32, Dur::from_millis(10)));
                s.measure = Dur::from_secs(2);
                s.drain = Dur::from_secs(1);
                if canary {
                    v.push(Unit::Steady(s.with_throughput(CANARY_KNEE_RATE)));
                    continue;
                }
                // Latency is read at a fixed load every search sustains:
                // at the knee itself it is a backlog, not a latency.
                v.push(Unit::Steady(s.with_throughput(KNEE_LATENCY_RATE)));
                let search = SaturationSearch::default()
                    .with_start(100.0)
                    .with_ceiling(51_200.0)
                    .with_rel_tol(0.05);
                for k in 1..=KNEE_SEARCHES {
                    let mut s = s.clone();
                    s.seed = derive_seed(seed, k);
                    v.push(Unit::Knee(s, search));
                }
            }
            v
        }
        // Thousands of short faulty runs: per-run set-up, the oracle,
        // schedule permutation, exclusion/rejoin and ring repair.
        "explore-soak" => {
            let count = if canary { CANARY_TUPLES } else { SOAK_TUPLES };
            Algorithm::STUDY
                .into_iter()
                .flat_map(|alg| (0..count).map(move |i| (alg, i)))
                .map(|(alg, i)| Unit::Tuple(soak_tuple(alg, i, seed)))
                .collect()
        }
        _ => return None,
    };
    Some(units)
}

/// One `explore-soak` tuple. Every tuple has the same fault shape —
/// the highest process leaves at 400 ms and rejoins 200 ms later —
/// while the group size, topology and tie-break policy cycle through
/// the explorer's classes by index and the seed drives the workload
/// and the schedule. Every 16th tuple is a fault-free 64-process
/// group on the switched fabric at the explorer's per-process load.
/// (The explorer's own random mix is not used: its per-tuple cost and
/// latency tail are so heavy-tailed that a pass of thousands of tuples
/// still moves by a sixth from seed to seed.)
fn soak_tuple(alg: Algorithm, i: u64, seed: u64) -> Tuple {
    let tseed = derive_seed(derive_seed(seed, 0x50A4), i);
    let schedule = match i % 8 {
        0 => Schedule::Fifo,
        1..=5 => Schedule::SeededRandom(derive_seed(tseed, 1)),
        _ => Schedule::Pct {
            seed: derive_seed(tseed, 2),
            change_period: 3 + (i % 14) as u32,
        },
    };
    let (n, topology, script, throughput) = if i % 16 == 11 {
        (
            64,
            NetworkModel::Switched,
            FaultScript::default(),
            80.0 * 6.0 / 64.0,
        )
    } else {
        let n = 3 + (i % 3) as usize;
        let topology = [NetworkModel::SharedMedium, NetworkModel::Switched][(i % 2) as usize];
        let script = FaultScript::default().churn(
            ScriptTime::At(Time::from_millis(400)),
            Pid::new(n - 1),
            Dur::from_millis(200),
            Dur::from_millis(20),
        );
        (n, topology, script, 80.0)
    };
    Tuple {
        alg,
        n,
        topology,
        schedule,
        script,
        seed: derive_seed(tseed, 3),
        throughput,
        horizon: Dur::from_millis(1_200),
        drain: Dur::from_millis(2_500),
    }
}
