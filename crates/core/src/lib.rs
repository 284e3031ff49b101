//! # study — the paper's benchmark methodology
//!
//! The performance-evaluation methodology of the DSN 2003 paper
//! (Sections 5–6), as a library:
//!
//! * [`poisson_arrivals`] — the workload: every process broadcasts at
//!   rate `T/n`, Poisson arrivals;
//! * [`FaultScript`] — composable fault scenarios as timed injection
//!   timelines; the paper's four benchmark scenarios (normal-steady,
//!   crash-steady, suspicion-steady, crash-transient) are one-line
//!   constructors, and richer schedules (crash-recover, healing
//!   partitions, churn) use the same grammar;
//! * [`Algorithm`] — which algorithm/variant to run;
//! * [`Backend`] — where to run it: the deterministic [`neko`]
//!   simulator ([`Backend::Sim`]) or the thread-based real-time
//!   runtime ([`Backend::Real`]), both behind [`neko::Runtime`];
//! * [`run_once`] / [`run_replicated`] / [`run_sweep`] — execute
//!   scenarios on the selected backend and measure latency
//!   (`L = min_i t_deliver_i − t_broadcast`) with 95% confidence
//!   intervals over replications, fanning replications and sweep
//!   points across all CPU cores with deterministic results;
//! * [`RunParams::with_batching`] — adaptive message batching
//!   ([`abcast::Batched`]): aggregate A-broadcasts into packs that
//!   ride the stack as one wire message each;
//! * [`find_saturation`] — deterministic bracketed search (geometric
//!   ramp + bisection) for the max sustainable throughput `T*` of any
//!   scenario — the knee where the paper's curves leave the chart;
//! * [`oracle`] — the reusable atomic-broadcast invariant checker
//!   (agreement, total order, integrity, validity with a quiescence
//!   deadline) shared by the test suites and the explorer;
//! * [`explore`] — the adversarial schedule explorer: deterministic
//!   fuzzing over (schedule seed × fault script × algorithm ×
//!   topology) tuples with oracle checking and automatic shrinking of
//!   failures to a minimal replayable [`explore::Repro`];
//! * [`paper`] — the exact parameter grids behind each figure of the
//!   paper's evaluation.
//!
//! ```
//! use study::{run_replicated, Algorithm, FaultScript, RunParams};
//! use neko::Dur;
//!
//! let params = RunParams::new(3, 100.0)
//!     .with_warmup(Dur::from_millis(200))
//!     .with_measure(Dur::from_secs(2))
//!     .with_replications(2);
//! let out = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &params, 1);
//! let latency = out.latency.expect("well below saturation");
//! assert!(latency.mean() > 0.0);
//! ```

pub mod explore;
pub mod oracle;
pub mod paper;
mod runner;
mod saturate;
mod script;
mod stats;
mod workload;

pub use runner::{
    run_once, run_replicated, run_sweep, run_sweep_with_workers, Algorithm, Backend, RunOutput,
    RunParams, SingleRun, SweepPoint, DEFAULT_LATENCY_SAMPLE_CAP,
};
pub use saturate::{find_saturation, SaturationResult, SaturationSearch};
pub use script::{CompiledScript, FaultEvent, FaultScript, ScriptAction, ScriptTime};
pub use stats::{Reservoir, Running, Summary};
pub use workload::{poisson_arrivals, Arrival};
