//! Workspace tests for the adversarial schedule explorer
//! (`study::explore`) and the determinism contract it leans on.
//!
//! The explorer's value rests on two pillars, both pinned here:
//!
//! 1. **Reproducibility** — a [`study::explore::Tuple`] fully
//!    determines its verdict (same tuple → same verdict, bit for
//!    bit), and the sweep worker pool never leaks scheduling into
//!    results (1, 2 and 8 workers produce byte-identical
//!    `RunOutput`s).
//! 2. **Teeth** — with the `mutation-skip-tiebreak` feature the FD
//!    algorithm deliberately skips the paper's id-order tie-break
//!    inside decided batches; the explorer must *catch* the resulting
//!    total-order violation and *shrink* it to a minimal, replayable
//!    [`study::explore::Repro`]. (That test only compiles with the
//!    feature, which CI enables for exactly this file; the clean-run
//!    tests below compile always and must stay clean.)

use neko::{derive_seed, Dur, NetworkModel, Pid, Schedule, Time};
use study::explore::{run_tuple, Explorer, Tuple, Verdict};
use study::{
    run_sweep_with_workers, Algorithm, FaultScript, RunOutput, RunParams, ScriptTime, SweepPoint,
};

fn quick_explorer(seed: u64) -> Explorer {
    Explorer::new(seed)
        .with_budget(25)
        .with_group_sizes(3, 4)
        .with_throughput(70.0)
}

/// Every latency bit, counter and net stat of a sweep, for exact
/// comparison.
fn fingerprint(outs: &[RunOutput]) -> Vec<(Vec<u64>, u64, u64, u64)> {
    outs.iter()
        .flat_map(|o| {
            o.runs.iter().map(|r| {
                (
                    r.latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    r.measured,
                    r.undelivered,
                    r.net.wire_messages,
                )
            })
        })
        .collect()
}

#[test]
fn sweeps_are_byte_identical_for_1_2_and_8_workers() {
    let params = RunParams::new(3, 90.0)
        .with_warmup(Dur::from_millis(200))
        .with_measure(Dur::from_secs(1))
        .with_drain(Dur::from_millis(800))
        .with_replications(3);
    let points = vec![
        SweepPoint::new(
            Algorithm::Fd,
            FaultScript::normal_steady(),
            params.clone(),
            41,
        ),
        SweepPoint::new(
            Algorithm::Gm,
            FaultScript::crash_steady(&[neko::Pid::new(2)]),
            params.clone(),
            42,
        ),
        SweepPoint::new(
            Algorithm::Ring,
            FaultScript::normal_steady(),
            params.clone(),
            43,
        ),
        SweepPoint::new(Algorithm::Fd, FaultScript::normal_steady(), params, 44),
    ];
    let serial = run_sweep_with_workers(&points, 1);
    let two = run_sweep_with_workers(&points, 2);
    let eight = run_sweep_with_workers(&points, 8);
    assert_eq!(fingerprint(&serial), fingerprint(&two));
    assert_eq!(fingerprint(&serial), fingerprint(&eight));
}

#[test]
fn explorer_verdicts_are_reproducible_from_the_tuple_alone() {
    // A verdict must be a pure function of the regenerated tuple — no
    // hidden state from the exploration that produced it.
    let e = quick_explorer(0xE0);
    for alg in Algorithm::STUDY {
        for index in [0, 1, 7] {
            let t = e.tuple(alg, index);
            assert_eq!(
                run_tuple(&t),
                run_tuple(&t),
                "{alg:?}/{index} must judge identically on every replay"
            );
        }
    }
}

/// Pinned repro of a liveness failure in the default exploration
/// (tuple 107 of `Explorer::new(derive_seed(3, 0))`'s FD corpus,
/// about one tuple in 3 000): FD with n = 64 on the switched fabric,
/// p64 crashes at 254 ms, and under this tie-break schedule a storm
/// of stall-probe nudges ends with correct p1 never delivering
/// payload 6. The shrinker returns the tuple unchanged — dropping the
/// crash or halving its time makes the run pass. The stall probe is
/// the sequencer's, shared by FD and Ring, so one fix covers both.
#[test]
#[ignore = "known FD nudge storm at n=64; a fix moves pinned simulated results"]
fn fd_nudge_storm_at_n64_delivers_every_payload() {
    let repro = Tuple {
        alg: Algorithm::Fd,
        n: 64,
        topology: NetworkModel::Switched,
        schedule: Schedule::SeededRandom(8_874_195_788_074_520_876),
        script: FaultScript::default().crash(
            ScriptTime::At(Time::from_millis(254)),
            Pid::new(63),
            Dur::from_millis(19),
        ),
        seed: 0xbab8_89e9_7a28_1310,
        throughput: 7.5,
        horizon: Dur::from_millis(1_200),
        drain: Dur::from_millis(2_500),
    };
    assert_eq!(
        repro,
        Explorer::new(derive_seed(3, 0)).tuple(Algorithm::Fd, 107),
        "the pinned tuple is the one the explorer generates"
    );
    let verdict = run_tuple(&repro);
    assert!(matches!(verdict, Verdict::Pass { .. }), "{verdict:?}");
}

#[cfg(not(feature = "mutation-skip-tiebreak"))]
#[test]
fn small_clean_budget_passes_all_algorithms() {
    // The CI-scale budget (1000 tuples per algorithm) runs as the
    // `explore` example; this is the fast smoke of the same pipeline,
    // covering the paper's two algorithms plus the ring contender.
    let outcome = quick_explorer(0xC1EA).explore();
    assert_eq!(outcome.examined, 75, "25 tuples × 3 algorithms");
    assert!(
        outcome.repro.is_none(),
        "violation on a clean build: {}",
        outcome.repro.unwrap()
    );
}

#[cfg(feature = "mutation-skip-tiebreak")]
#[test]
fn explorer_catches_and_shrinks_the_seeded_mutation() {
    // The mutation delivers decided FD batches in local arrival order
    // instead of id order — divergent exactly when broadcasts race.
    // The explorer must find it quickly and shrink it to a repro that
    // replays the violation deterministically.
    let outcome = Explorer::new(0x7EE7)
        .with_budget(300)
        .with_algorithms(&[Algorithm::Fd])
        .with_group_sizes(3, 4)
        .explore();
    let repro = outcome
        .repro
        .expect("the seeded tie-break mutation must be caught");
    assert!(
        outcome.examined < 300,
        "must stop at the first failing tuple, not run the budget out: {}",
        outcome.examined
    );
    // Shrinking never grows the script …
    assert!(repro.tuple.script.events().len() <= repro.found.script.events().len());
    // … and the minimized tuple replays the recorded violation, twice.
    let first = repro.replay();
    assert_eq!(
        first.violation(),
        Some(&repro.violation),
        "replay must reproduce the recorded violation"
    );
    assert_eq!(first, repro.replay(), "replays are deterministic");
}
