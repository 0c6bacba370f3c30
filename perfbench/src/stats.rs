//! Order statistics and the outcome digest.

use m2m_core::faults::FaultOutcome;
use m2m_core::metrics::RoundCost;
use m2m_core::session::RoundReport;
use m2m_core::sim::SimOutcome;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between closest ranks. `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// FNV-1a, 64-bit.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn cost(&mut self, c: &RoundCost) {
        self.f64(c.tx_uj);
        self.f64(c.rx_uj);
        self.u64(c.messages as u64);
        self.u64(c.units as u64);
        self.u64(c.payload_bytes);
    }
}

/// Digest of one round's outcome: every result's bits (a lost result
/// hashes as a marker), the cost, the delivery flag, and — for lossy and
/// simulated rounds — coverage, retry and queue counts. Computed the same
/// way from a [`RoundReport`] and from the engines' raw outputs, so the
/// traced replay can prove it reproduces the session bit for bit.
pub fn round_digest(
    results: impl Iterator<Item = Option<f64>>,
    cost: &RoundCost,
    delivered: bool,
    fault: Option<&FaultOutcome>,
    sim: Option<&SimOutcome>,
) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        match r {
            Some(v) => h.f64(v),
            None => h.u64(0x6e6f_6e65),
        }
    }
    h.cost(cost);
    h.u64(u64::from(delivered));
    if let Some(f) = fault {
        for c in &f.coverage {
            h.u64(u64::from(c.destination.0));
            h.u64(c.covered as u64);
            h.u64(c.demanded as u64);
        }
        h.u64(u64::from(f.slots_used));
        h.u64(f.retransmissions as u64);
        h.u64(f.dropped_messages as u64);
    }
    if let Some(s) = sim {
        h.u64(s.events);
        h.u64(s.ticks);
        h.u64(u64::from(s.peak_queue_depth));
        h.u64(s.queue_overflows);
    }
    h.0
}

pub fn report_digest(r: &RoundReport) -> u64 {
    round_digest(
        r.results().iter().copied(),
        &r.cost(),
        r.delivered(),
        r.fault(),
        r.sim(),
    )
}

pub fn fault_digest(out: &FaultOutcome) -> u64 {
    round_digest(
        out.results.iter().copied(),
        &out.cost,
        out.delivered,
        Some(out),
        None,
    )
}

pub fn sim_digest(out: &SimOutcome) -> u64 {
    round_digest(
        out.outcome.results.iter().copied(),
        &out.outcome.cost,
        out.outcome.delivered,
        Some(&out.outcome),
        Some(out),
    )
}

pub fn compiled_digest(results: &[f64], cost: &RoundCost) -> u64 {
    round_digest(results.iter().copied().map(Some), cost, true, None, None)
}

/// Mean per-destination covered fraction of one round (1.0 for a
/// compiled round, where every demanded value arrives).
pub fn coverage(r: &RoundReport) -> f64 {
    match r.fault() {
        Some(f) if !f.coverage.is_empty() => {
            f.coverage.iter().map(|c| c.fraction()).sum::<f64>() / f.coverage.len() as f64
        }
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}
