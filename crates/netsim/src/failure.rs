//! Transient link-failure injection.
//!
//! §3 motivates milestone routing with routes that are "susceptible to
//! transient failures": a link may be down for a round and recover later.
//! The models here are deterministic given a seed — reproducibility is a
//! hard requirement for the fault-tolerant executor, whose outcomes are
//! digest-compared across runs and thread counts.
//!
//! Three delivery models are provided behind one dispatch type,
//! [`DeliveryModel`]:
//!
//! * [`LinkFailureModel`] — uniform per-(link, tick) Bernoulli loss,
//! * a per-link Bernoulli map derived from [`crate::quality::LinkQuality`]
//!   (lossier links drop more frames, matching their ETX),
//! * [`FailureTrace`] — scripted down-intervals for exact replay of a
//!   specific failure scenario.
//!
//! [`DeliveryModel::link`] resolves one link's loss once, as a [`LinkLoss`]
//! oracle over ticks; [`DeliveryModel::is_down`] is that oracle asked once.
//! A caller attempting the same link many times (every slot of a lossy
//! round, every round of a batch) resolves it once and keeps the oracle.

use std::collections::BTreeMap;

use m2m_graph::NodeId;

use crate::quality::LinkQuality;

/// Independent per-(link, round) Bernoulli failures.
#[derive(Clone, Copy, Debug)]
pub struct LinkFailureModel {
    /// Probability a given link is down in a given round.
    pub failure_probability: f64,
    /// Seed decorrelating this model from other randomness.
    pub seed: u64,
}

impl LinkFailureModel {
    /// A model in which links never fail.
    pub const fn reliable() -> Self {
        LinkFailureModel {
            failure_probability: 0.0,
            seed: 0,
        }
    }

    /// Creates a model with the given failure probability.
    ///
    /// # Panics
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn new(failure_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_probability),
            "failure probability must be in [0, 1]"
        );
        LinkFailureModel {
            failure_probability,
            seed,
        }
    }

    /// Returns true if the undirected link `{a, b}` is down in `round`.
    /// Symmetric in `a` and `b`.
    pub fn is_down(&self, a: NodeId, b: NodeId, round: u64) -> bool {
        LinkLoss::bernoulli(self.failure_probability, a, b, self.seed).is_down(round)
    }
}

/// The seeded hash state of undirected link `{a, b}`: the (seed, link)
/// prefix of the per-(link, tick) stream, so a tick costs one more
/// [`splitmix64`] round. Symmetric in the endpoints.
fn link_key(a: NodeId, b: NodeId, seed: u64) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for word in [u64::from(lo), u64::from(hi)] {
        h ^= word;
        h = splitmix64(h);
    }
    h
}

/// Maps a link's [`link_key`] and a tick to a uniform value in `[0, 1)`
/// with 53-bit precision.
#[inline]
fn tick_unit(key: u64, tick: u64) -> f64 {
    (splitmix64(key ^ tick) >> 11) as f64 / (1u64 << 53) as f64
}

/// One link's loss, resolved once from a [`DeliveryModel`] by
/// [`DeliveryModel::link`]: answers "is a frame on this link lost at
/// `tick`?" exactly as [`DeliveryModel::is_down`] does for the link, but
/// without finding the link again (no map lookup, no seed hashing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkLoss<'a> {
    /// The link never drops a frame.
    Never,
    /// The link drops every frame.
    Always,
    /// Independent per-tick loss with probability `p`, drawn from the
    /// link's seeded per-tick stream.
    Bernoulli {
        /// Loss probability, strictly inside `(0, 1)`.
        p: f64,
        /// The stream's state after hashing the seed and both endpoints.
        key: u64,
    },
    /// Scripted half-open down intervals `[from, until)`.
    Trace(&'a [(u64, u64)]),
}

impl LinkLoss<'_> {
    /// Bernoulli loss `p` on link `{a, b}` under `seed`; `p ≤ 0` never
    /// drops and `p ≥ 1` always does.
    fn bernoulli(p: f64, a: NodeId, b: NodeId, seed: u64) -> Self {
        if p <= 0.0 {
            LinkLoss::Never
        } else if p >= 1.0 {
            LinkLoss::Always
        } else {
            LinkLoss::Bernoulli {
                p,
                key: link_key(a, b, seed),
            }
        }
    }

    /// True if a frame sent on this link at `tick` is lost.
    #[inline]
    pub fn is_down(&self, tick: u64) -> bool {
        match *self {
            LinkLoss::Never => false,
            LinkLoss::Always => true,
            LinkLoss::Bernoulli { p, key } => tick_unit(key, tick) < p,
            LinkLoss::Trace(down) => down
                .iter()
                .any(|&(from, until)| from <= tick && tick < until),
        }
    }
}

/// A scripted failure schedule: each undirected link is down during an
/// explicit set of half-open tick intervals `[from, until)`. Unlike the
/// Bernoulli models, a trace replays one *specific* scenario — the same
/// partition at the same tick every run, independent of any seed — which
/// is what the resilience benchmarks commit to disk.
#[derive(Clone, Debug, Default)]
pub struct FailureTrace {
    /// Down intervals per undirected link, keyed `(min, max)`.
    down: BTreeMap<(NodeId, NodeId), Vec<(u64, u64)>>,
}

impl FailureTrace {
    /// An empty trace (no link ever fails).
    pub fn new() -> Self {
        FailureTrace::default()
    }

    /// Marks link `{a, b}` down for ticks `from..until` (half-open).
    /// Builder-style; intervals may overlap.
    ///
    /// # Panics
    /// Panics if `from >= until` (an empty interval is a scripting bug).
    #[must_use]
    pub fn down(mut self, a: NodeId, b: NodeId, from: u64, until: u64) -> Self {
        assert!(from < until, "empty down interval [{from}, {until})");
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.down.entry(key).or_default().push((from, until));
        self
    }

    /// True if link `{a, b}` is scripted down at `tick`.
    pub fn is_down(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        self.link(a, b).is_down(tick)
    }

    /// Link `{a, b}`'s scripted intervals as a [`LinkLoss`] oracle.
    fn link(&self, a: NodeId, b: NodeId) -> LinkLoss<'_> {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.down
            .get(&key)
            .map_or(LinkLoss::Never, |down| LinkLoss::Trace(down))
    }

    /// Number of links with at least one scripted down interval.
    pub fn link_count(&self) -> usize {
        self.down.len()
    }
}

/// A per-(link, tick) delivery oracle: the one question the fault-aware
/// executor asks — "does a frame sent on `{a, b}` at `tick` get through?"
/// — answered deterministically by one of three models.
#[derive(Clone, Debug)]
pub enum DeliveryModel {
    /// Uniform Bernoulli loss: every link drops with the same probability.
    Bernoulli(LinkFailureModel),
    /// Per-link Bernoulli loss (each link drops with its own probability,
    /// typically its [`LinkQuality`] loss).
    PerLink {
        /// Loss probability per undirected link, keyed `(min, max)`.
        /// Links absent from the map never drop.
        loss: BTreeMap<(NodeId, NodeId), f64>,
        /// Seed decorrelating drops from other randomness.
        seed: u64,
    },
    /// Scripted down intervals.
    Trace(FailureTrace),
}

impl DeliveryModel {
    /// Every frame is delivered.
    pub fn reliable() -> Self {
        DeliveryModel::Bernoulli(LinkFailureModel::reliable())
    }

    /// Uniform loss probability `p` on every link.
    ///
    /// # Panics
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn uniform(p: f64, seed: u64) -> Self {
        DeliveryModel::Bernoulli(LinkFailureModel::new(p, seed))
    }

    /// Per-link loss taken from a [`LinkQuality`] map: each link drops
    /// frames with exactly its modeled loss probability, so ETX and
    /// realized retransmission counts agree in expectation.
    pub fn from_quality(quality: &LinkQuality, seed: u64) -> Self {
        DeliveryModel::PerLink {
            loss: quality.links().collect(),
            seed,
        }
    }

    /// A scripted trace.
    pub fn trace(trace: FailureTrace) -> Self {
        DeliveryModel::Trace(trace)
    }

    /// True if a frame sent on link `{a, b}` at `tick` is lost.
    /// Deterministic and symmetric in the endpoints. Resolves the link
    /// each call; see [`DeliveryModel::link`] to resolve it once.
    pub fn is_down(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        self.link(a, b).is_down(tick)
    }

    /// Link `{a, b}`'s loss as a per-tick oracle: `link(a, b).is_down(t)
    /// == is_down(a, b, t)` for every tick, in either endpoint order.
    pub fn link(&self, a: NodeId, b: NodeId) -> LinkLoss<'_> {
        match self {
            DeliveryModel::Bernoulli(m) => LinkLoss::bernoulli(m.failure_probability, a, b, m.seed),
            DeliveryModel::PerLink { loss, seed } => {
                let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
                let p = loss.get(&key).copied().unwrap_or(0.0);
                LinkLoss::bernoulli(p, a, b, *seed)
            }
            DeliveryModel::Trace(t) => t.link(a, b),
        }
    }
}

/// SplitMix64 finalizer — a tiny, well-distributed integer hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_model_never_fails() {
        let m = LinkFailureModel::reliable();
        for r in 0..100 {
            assert!(!m.is_down(NodeId(1), NodeId(2), r));
        }
    }

    #[test]
    fn certain_failure_always_fails() {
        let m = LinkFailureModel::new(1.0, 3);
        assert!(m.is_down(NodeId(0), NodeId(1), 0));
    }

    #[test]
    fn symmetric_in_endpoints() {
        let m = LinkFailureModel::new(0.5, 9);
        for r in 0..50 {
            assert_eq!(
                m.is_down(NodeId(3), NodeId(8), r),
                m.is_down(NodeId(8), NodeId(3), r)
            );
        }
    }

    #[test]
    fn empirical_rate_close_to_p() {
        let m = LinkFailureModel::new(0.3, 77);
        let trials = 20_000;
        let mut down = 0;
        for r in 0..trials {
            if m.is_down(NodeId(0), NodeId(1), r) {
                down += 1;
            }
        }
        let rate = down as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LinkFailureModel::new(0.4, 5);
        let b = LinkFailureModel::new(0.4, 5);
        for r in 0..100 {
            assert_eq!(
                a.is_down(NodeId(2), NodeId(4), r),
                b.is_down(NodeId(2), NodeId(4), r)
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn invalid_probability_panics() {
        LinkFailureModel::new(1.5, 0);
    }

    #[test]
    fn trace_intervals_are_half_open_and_symmetric() {
        let t =
            FailureTrace::new()
                .down(NodeId(4), NodeId(1), 3, 6)
                .down(NodeId(1), NodeId(4), 10, 11);
        assert!(!t.is_down(NodeId(1), NodeId(4), 2));
        assert!(t.is_down(NodeId(1), NodeId(4), 3));
        assert!(t.is_down(NodeId(4), NodeId(1), 5));
        assert!(!t.is_down(NodeId(1), NodeId(4), 6));
        assert!(t.is_down(NodeId(1), NodeId(4), 10));
        assert!(!t.is_down(NodeId(1), NodeId(4), 11));
        assert_eq!(t.link_count(), 1);
        assert!(
            !t.is_down(NodeId(0), NodeId(1), 4),
            "unscripted link stays up"
        );
    }

    #[test]
    #[should_panic(expected = "empty down interval")]
    fn empty_trace_interval_panics() {
        let _ = FailureTrace::new().down(NodeId(0), NodeId(1), 5, 5);
    }

    #[test]
    fn delivery_model_reliable_and_uniform_match_bernoulli() {
        let reliable = DeliveryModel::reliable();
        let uniform = DeliveryModel::uniform(0.5, 9);
        let raw = LinkFailureModel::new(0.5, 9);
        for tick in 0..200 {
            assert!(!reliable.is_down(NodeId(0), NodeId(1), tick));
            assert_eq!(
                uniform.is_down(NodeId(3), NodeId(8), tick),
                raw.is_down(NodeId(3), NodeId(8), tick)
            );
        }
    }

    #[test]
    fn per_link_model_respects_individual_probabilities() {
        let mut loss = BTreeMap::new();
        loss.insert((NodeId(0), NodeId(1)), 0.0);
        loss.insert((NodeId(1), NodeId(2)), 1.0);
        loss.insert((NodeId(2), NodeId(3)), 0.4);
        let m = DeliveryModel::PerLink { loss, seed: 21 };
        let mut drops = 0u32;
        for tick in 0..5_000 {
            assert!(!m.is_down(NodeId(0), NodeId(1), tick));
            assert!(
                m.is_down(NodeId(2), NodeId(1), tick),
                "p=1 link always down"
            );
            // Unknown links never drop.
            assert!(!m.is_down(NodeId(7), NodeId(9), tick));
            if m.is_down(NodeId(2), NodeId(3), tick) {
                drops += 1;
            }
        }
        let rate = f64::from(drops) / 5_000.0;
        assert!((rate - 0.4).abs() < 0.03, "rate {rate} too far from 0.4");
    }

    #[test]
    fn trace_model_is_exactly_reproducible() {
        let build = || DeliveryModel::trace(FailureTrace::new().down(NodeId(2), NodeId(5), 1, 4));
        let (a, b) = (build(), build());
        for tick in 0..10 {
            assert_eq!(
                a.is_down(NodeId(2), NodeId(5), tick),
                b.is_down(NodeId(2), NodeId(5), tick)
            );
        }
    }
}
