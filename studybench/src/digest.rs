//! A 64-bit FNV-1a digest of simulated results, and the committed
//! table it is checked against.

use neko::NetStats;
use study::SingleRun;

pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn net(&mut self, s: &NetStats) {
        for x in [
            s.send_calls,
            s.wire_messages,
            s.deliveries,
            s.self_deliveries,
            s.merges,
            s.dropped_to_crashed,
            s.dropped_partitioned,
            s.net_busy.as_micros(),
            s.cpu_busy.as_micros(),
            s.queue_highwater,
            s.links_used,
        ] {
            self.u64(x);
        }
    }

    pub fn run(&mut self, r: &SingleRun) {
        self.u64(r.measured);
        self.u64(r.undelivered);
        self.f64(r.mean_latency_ms.unwrap_or(f64::NAN));
        self.u64(r.latencies.len() as u64);
        for &l in &r.latencies {
            self.f64(l);
        }
        self.net(&r.net);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Bit-for-bit equality of two runs' simulated results.
pub fn same_run(a: &SingleRun, b: &SingleRun) -> bool {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    a.measured == b.measured
        && a.undelivered == b.undelivered
        && bits(a.mean_latency_ms) == bits(b.mean_latency_ms)
        && a.latencies.len() == b.latencies.len()
        && a.latencies
            .iter()
            .zip(&b.latencies)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.net == b.net
}

/// The committed digests: `<workload> canary <hex>` for each
/// workload's seed-independent canary list, and `<workload> <seed>
/// <hex>` for the full unit list under the seeds recorded so far.
const COMMITTED: &str = include_str!("../digests.txt");

pub fn committed(workload: &str, key: &str) -> Option<&'static str> {
    COMMITTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(key))
            .then(|| f.next())
            .flatten()
    })
}
