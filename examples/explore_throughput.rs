//! Explorer throughput program: measures how many adversarial tuples
//! per second `study::explore` examines, on the small-group mix and
//! on the default mix, and how many heap allocations each tuple costs.
//!
//! Doubles as the CI perf smoke: with `ATOMBENCH_MIN_TUPLES_PER_S`
//! set, exits non-zero when small-mix throughput falls below the floor.
//!
//! ```sh
//! cargo run --release --example explore_throughput
//! ATOMBENCH_EXPLORE_BUDGET=500 ATOMBENCH_MIN_TUPLES_PER_S=300 \
//!     cargo run --release --example explore_throughput
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use figures::Report;
use study::explore::Explorer;

/// Counts every allocator hit so the program can report allocations
/// per tuple.
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

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One measured pass over the budget; returns (tuples/s, allocs/tuple).
/// `large` keeps or drops the n = 64 tuple class — dropping it gives
/// the small-group mix comparable with pre-multi-word baselines.
fn pass(seed: u64, budget: usize, large: bool) -> (f64, f64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let outcome = Explorer::new(seed)
        .with_budget(budget)
        .with_large_group(if large { Some(64) } else { None })
        .explore();
    let secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        outcome.repro.is_none(),
        "throughput program hit an invariant violation: {:?}",
        outcome.repro
    );
    (
        outcome.examined as f64 / secs,
        allocs as f64 / outcome.examined as f64,
    )
}

fn main() {
    let seed = env_u64("ATOMBENCH_EXPLORE_SEED", 0x5EED);
    let budget = env_u64("ATOMBENCH_EXPLORE_BUDGET", 400) as usize;
    println!("explorer throughput, {budget} tuples per algorithm (seed {seed:#x}) …");

    // Warm-up pass (untimed): faults in the page cache, JIT-free but
    // branch predictors and allocator arenas settle.
    let _ = pass(seed, (budget / 4).max(10), false);

    let (tps, apt) = pass(seed, budget, false);
    println!("  small mix:            {tps:>8.0} tuples/s  {apt:>8.0} allocs/tuple");
    let (def_tps, def_apt) = pass(seed, budget, true);
    println!("  default mix (n ≤ 64): {def_tps:>8.0} tuples/s  {def_apt:>8.0} allocs/tuple");

    // Record the two passes in BENCH_results.json so the explorer's
    // throughput is tracked run-over-run like the figure benches.
    // Allocations per tuple ride in the second column — deterministic
    // where tuples/s is at the mercy of machine noise.
    let mut report = Report::new_custom("explorer_throughput", "budget_per_algorithm");
    for (series, t, a) in [
        ("small mix", tps, apt),
        ("default mix (n<=64)", def_tps, def_apt),
    ] {
        report.custom_row(
            series,
            budget,
            "tuples_per_s",
            "allocs_per_tuple",
            Some((t, a)),
            &[],
        );
    }
    report.finish();

    if let Ok(floor) = std::env::var("ATOMBENCH_MIN_TUPLES_PER_S") {
        let floor: f64 = floor
            .parse()
            .expect("ATOMBENCH_MIN_TUPLES_PER_S not a number");
        if tps < floor {
            eprintln!("FAIL: {tps:.0} tuples/s below the floor of {floor:.0}");
            std::process::exit(1);
        }
        println!("floor {floor:.0} tuples/s: ok");
    }
}
