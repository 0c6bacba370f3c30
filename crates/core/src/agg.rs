//! Generalized algebraic aggregation functions (§2.1).
//!
//! The paper requires each destination's function `f_d` to decompose as
//! `f_d(v_1, …, v_n) = e_d(m_d({w_{d,s1}(v_1), …, w_{d,sn}(v_n)}))` where
//! the pre-aggregation functions `w_{d,s}` may transform *each input
//! differently* (this is the generalization over classic algebraic
//! aggregates — it is what admits weighted variants), the merging function
//! `m_d` is associative-commutative over partial aggregate records, and the
//! evaluator `e_d` produces the final value.
//!
//! Partial records are constant-size; their byte size (vs. the raw reading
//! size) is exactly what the vertex-cover weights in [`crate::edge_opt`]
//! trade off: e.g. for weighted sum both sides weigh one float, for
//! weighted average the destination side carries an extra count (§2.2).

use std::collections::BTreeMap;

use m2m_graph::NodeId;

/// Size in bytes of one raw sensor reading as transmitted on air. Motes
/// report readings as single-precision values.
pub const RAW_VALUE_BYTES: u32 = 4;

/// The family of built-in aggregation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggregateKind {
    /// `Σ α_s·v_s` — partial record: one float.
    WeightedSum,
    /// `(Σ α_s·v_s) / n` — partial record: float + count.
    WeightedAverage,
    /// Weighted population variance of `{α_s·v_s}` — partial record:
    /// sum + sum of squares + count.
    WeightedVariance,
    /// `min α_s·v_s` — partial record: one float.
    Min,
    /// `max α_s·v_s` — partial record: one float.
    Max,
    /// Number of contributing sources — partial record: one count. The
    /// partial record is *smaller* than a raw value, exercising the
    /// asymmetric-weight case of the cover reduction.
    Count,
    /// `max α_s·v_s − min α_s·v_s` — partial record: two floats. A
    /// record twice the raw size, biasing covers further toward raw
    /// multicast.
    Range,
    /// Weighted geometric mean `(Π v_s^{α_s})^(1/Σα_s)` over positive
    /// readings — algebraic in log space; partial record: log-sum +
    /// weight-sum.
    GeometricMean,
}

impl AggregateKind {
    /// Every kind, in declaration order.
    pub const ALL: [AggregateKind; 8] = [
        AggregateKind::WeightedSum,
        AggregateKind::WeightedAverage,
        AggregateKind::WeightedVariance,
        AggregateKind::Min,
        AggregateKind::Max,
        AggregateKind::Count,
        AggregateKind::Range,
        AggregateKind::GeometricMean,
    ];

    /// The kind's name in persisted specs ([`crate::textio`]);
    /// `parse(name)` round-trips.
    pub fn name(self) -> &'static str {
        match self {
            AggregateKind::WeightedSum => "weighted_sum",
            AggregateKind::WeightedAverage => "weighted_average",
            AggregateKind::WeightedVariance => "weighted_variance",
            AggregateKind::Min => "min",
            AggregateKind::Max => "max",
            AggregateKind::Count => "count",
            AggregateKind::Range => "range",
            AggregateKind::GeometricMean => "geometric_mean",
        }
    }

    /// The kind [`AggregateKind::name`] calls `name`, if any.
    pub fn parse(name: &str) -> Option<AggregateKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// On-air size of one partial aggregate record, in bytes.
    pub fn partial_record_bytes(self) -> u32 {
        match self {
            AggregateKind::WeightedSum | AggregateKind::Min | AggregateKind::Max => 4,
            AggregateKind::WeightedAverage => 6,
            AggregateKind::WeightedVariance => 10,
            AggregateKind::Count => 2,
            AggregateKind::Range | AggregateKind::GeometricMean => 8,
        }
    }

    /// True if changes to inputs can be folded in as deltas, i.e. the
    /// function can be maintained under temporal suppression (§3:
    /// "some types of aggregation functions can be continuously
    /// maintained"). Linear functions qualify; order statistics do not.
    pub fn supports_delta_maintenance(self) -> bool {
        matches!(
            self,
            AggregateKind::WeightedSum | AggregateKind::WeightedAverage
        )
    }

    /// The pre-aggregation function with the source weight `alpha` already
    /// resolved. [`AggregateFunction::pre_aggregate`] delegates here after
    /// its weight lookup, and the compiled executor
    /// ([`crate::exec::CompiledSchedule`]) calls it directly with weights
    /// resolved at compile time — both paths share this single arithmetic
    /// implementation, which is what makes them bit-identical.
    pub fn pre_aggregate_weighted(self, alpha: f64, value: f64) -> PartialRecord {
        let x = alpha * value;
        match self {
            AggregateKind::WeightedSum => PartialRecord::Sum(x),
            AggregateKind::WeightedAverage => PartialRecord::Avg { sum: x, count: 1 },
            AggregateKind::WeightedVariance => PartialRecord::Var {
                sum: x,
                sum_sq: x * x,
                count: 1,
            },
            AggregateKind::Min => PartialRecord::Min(x),
            AggregateKind::Max => PartialRecord::Max(x),
            AggregateKind::Count => PartialRecord::Count(1),
            AggregateKind::Range => PartialRecord::MinMax { min: x, max: x },
            AggregateKind::GeometricMean => {
                assert!(value > 0.0, "geometric mean requires positive readings");
                PartialRecord::LogSum {
                    log_sum: alpha * value.ln(),
                    weight_sum: alpha,
                }
            }
        }
    }

    /// The merging function `m_d` at the kind level.
    ///
    /// # Panics
    /// Panics if the records are of mismatched shapes for this kind.
    pub fn merge_records(self, a: PartialRecord, b: PartialRecord) -> PartialRecord {
        use PartialRecord as P;
        match (self, a, b) {
            (AggregateKind::WeightedSum, P::Sum(x), P::Sum(y)) => P::Sum(x + y),
            (
                AggregateKind::WeightedAverage,
                P::Avg { sum: x, count: a },
                P::Avg { sum: y, count: b },
            ) => P::Avg {
                sum: x + y,
                count: a + b,
            },
            (
                AggregateKind::WeightedVariance,
                P::Var {
                    sum: xs,
                    sum_sq: xq,
                    count: xc,
                },
                P::Var {
                    sum: ys,
                    sum_sq: yq,
                    count: yc,
                },
            ) => P::Var {
                sum: xs + ys,
                sum_sq: xq + yq,
                count: xc + yc,
            },
            (AggregateKind::Min, P::Min(x), P::Min(y)) => P::Min(x.min(y)),
            (AggregateKind::Max, P::Max(x), P::Max(y)) => P::Max(x.max(y)),
            (AggregateKind::Count, P::Count(x), P::Count(y)) => P::Count(x + y),
            (
                AggregateKind::Range,
                P::MinMax {
                    min: a_min,
                    max: a_max,
                },
                P::MinMax {
                    min: b_min,
                    max: b_max,
                },
            ) => P::MinMax {
                min: a_min.min(b_min),
                max: a_max.max(b_max),
            },
            (
                AggregateKind::GeometricMean,
                P::LogSum {
                    log_sum: xs,
                    weight_sum: xw,
                },
                P::LogSum {
                    log_sum: ys,
                    weight_sum: yw,
                },
            ) => P::LogSum {
                log_sum: xs + ys,
                weight_sum: xw + yw,
            },
            (kind, a, b) => panic!("cannot merge {a:?} and {b:?} under {kind:?}"),
        }
    }

    /// The evaluator `e_d` at the kind level.
    ///
    /// # Panics
    /// Panics if the record's shape does not match this kind.
    pub fn evaluate_record(self, record: PartialRecord) -> f64 {
        use PartialRecord as P;
        match (self, record) {
            (AggregateKind::WeightedSum, P::Sum(x)) => x,
            (AggregateKind::WeightedAverage, P::Avg { sum, count }) => sum / f64::from(count),
            (AggregateKind::WeightedVariance, P::Var { sum, sum_sq, count }) => {
                let n = f64::from(count);
                let mean = sum / n;
                (sum_sq / n - mean * mean).max(0.0)
            }
            (AggregateKind::Min, P::Min(x)) => x,
            (AggregateKind::Max, P::Max(x)) => x,
            (AggregateKind::Count, P::Count(c)) => f64::from(c),
            (AggregateKind::Range, P::MinMax { min, max }) => max - min,
            (
                AggregateKind::GeometricMean,
                P::LogSum {
                    log_sum,
                    weight_sum,
                },
            ) => (log_sum / weight_sum).exp(),
            (kind, r) => panic!("cannot evaluate {r:?} under {kind:?}"),
        }
    }
}

/// A partial aggregate record — the unit of in-network aggregation state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartialRecord {
    /// Running weighted sum.
    Sum(f64),
    /// Running weighted sum plus contribution count.
    Avg {
        /// Σ α_s·v_s so far.
        sum: f64,
        /// Number of contributions.
        count: u32,
    },
    /// Running moments for variance.
    Var {
        /// Σ x where x = α_s·v_s.
        sum: f64,
        /// Σ x².
        sum_sq: f64,
        /// Number of contributions.
        count: u32,
    },
    /// Running minimum.
    Min(f64),
    /// Running maximum.
    Max(f64),
    /// Running count.
    Count(u32),
    /// Running minimum and maximum (for range).
    MinMax {
        /// Smallest `α_s·v_s` so far.
        min: f64,
        /// Largest `α_s·v_s` so far.
        max: f64,
    },
    /// Running log-space sum for the geometric mean.
    LogSum {
        /// Σ α_s·ln(v_s).
        log_sum: f64,
        /// Σ α_s.
        weight_sum: f64,
    },
}

/// Maximum number of `f64` components a [`PartialRecord`] decomposes
/// into (variance: sum, sum of squares, count). The lane-batched
/// executor sizes its dense component planes by this.
pub(crate) const MAX_COMPONENTS: usize = 3;

/// The structure-of-arrays twin of [`PartialRecord`]: every record kind
/// is laid out as up to [`MAX_COMPONENTS`] `f64` components, and each
/// kind's pre-aggregate / merge / evaluate become straight-line
/// component arithmetic with **exactly** the same operations, in the
/// same order, as the enum methods above. That is the bit-identity
/// contract the lane-batched executor ([`crate::exec`]) relies on: a
/// lane is one round, and folding a lane through a [`LaneKernel`]
/// produces the same `f64` bits as folding the round through
/// [`AggregateKind::pre_aggregate_weighted`] /
/// [`AggregateKind::merge_records`] / [`AggregateKind::evaluate_record`].
///
/// Integer counts ride in an `f64` component: additions of small
/// integers are exact in `f64` (well below 2^53 here), and the enum
/// path's `f64::from(count)` conversion at evaluation time yields the
/// same value, so the bits agree. The `lane_kernels_match_enum_records`
/// test pins the contract for every kind.
pub(crate) trait LaneKernel {
    /// Components this kind actually uses (`<= MAX_COMPONENTS`).
    const COMPS: usize;
    /// Component form of [`AggregateKind::pre_aggregate_weighted`].
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64);
    /// Component form of [`AggregateKind::merge_records`].
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64);
    /// Component form of [`AggregateKind::evaluate_record`].
    fn eval(r: (f64, f64, f64)) -> f64;
}

/// [`LaneKernel`] for [`AggregateKind::WeightedSum`].
pub(crate) struct SumKernel;
/// [`LaneKernel`] for [`AggregateKind::WeightedAverage`].
pub(crate) struct AvgKernel;
/// [`LaneKernel`] for [`AggregateKind::WeightedVariance`].
pub(crate) struct VarKernel;
/// [`LaneKernel`] for [`AggregateKind::Min`].
pub(crate) struct MinKernel;
/// [`LaneKernel`] for [`AggregateKind::Max`].
pub(crate) struct MaxKernel;
/// [`LaneKernel`] for [`AggregateKind::Count`].
pub(crate) struct CountKernel;
/// [`LaneKernel`] for [`AggregateKind::Range`].
pub(crate) struct RangeKernel;
/// [`LaneKernel`] for [`AggregateKind::GeometricMean`].
pub(crate) struct GeoKernel;

impl LaneKernel for SumKernel {
    const COMPS: usize = 1;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        (alpha * value, 0.0, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0 + b.0, 0.0, 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        r.0
    }
}

impl LaneKernel for AvgKernel {
    const COMPS: usize = 2;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        (alpha * value, 1.0, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0 + b.0, a.1 + b.1, 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        r.0 / r.1
    }
}

impl LaneKernel for VarKernel {
    const COMPS: usize = 3;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        let x = alpha * value;
        (x, x * x, 1.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0 + b.0, a.1 + b.1, a.2 + b.2)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        let n = r.2;
        let mean = r.0 / n;
        (r.1 / n - mean * mean).max(0.0)
    }
}

impl LaneKernel for MinKernel {
    const COMPS: usize = 1;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        (alpha * value, 0.0, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0.min(b.0), 0.0, 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        r.0
    }
}

impl LaneKernel for MaxKernel {
    const COMPS: usize = 1;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        (alpha * value, 0.0, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0.max(b.0), 0.0, 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        r.0
    }
}

impl LaneKernel for CountKernel {
    const COMPS: usize = 1;
    #[inline(always)]
    fn pre(_alpha: f64, _value: f64) -> (f64, f64, f64) {
        (1.0, 0.0, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0 + b.0, 0.0, 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        r.0
    }
}

impl LaneKernel for RangeKernel {
    const COMPS: usize = 2;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        let x = alpha * value;
        (x, x, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0.min(b.0), a.1.max(b.1), 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        r.1 - r.0
    }
}

impl LaneKernel for GeoKernel {
    const COMPS: usize = 2;
    #[inline(always)]
    fn pre(alpha: f64, value: f64) -> (f64, f64, f64) {
        assert!(value > 0.0, "geometric mean requires positive readings");
        (alpha * value.ln(), alpha, 0.0)
    }
    #[inline(always)]
    fn merge(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0 + b.0, a.1 + b.1, 0.0)
    }
    #[inline(always)]
    fn eval(r: (f64, f64, f64)) -> f64 {
        (r.0 / r.1).exp()
    }
}

/// Dispatches `$kind` to its [`LaneKernel`] type, binding it as `$K`
/// inside `$body`. This is the single point where the executor's
/// dynamic `AggregateKind` meets the monomorphized kernels: the match
/// runs once per op *run*, so the inner per-op, per-lane loops are
/// free of kind dispatch.
macro_rules! with_lane_kernel {
    ($kind:expr, $K:ident => $body:expr) => {
        match $kind {
            $crate::agg::AggregateKind::WeightedSum => {
                type $K = $crate::agg::SumKernel;
                $body
            }
            $crate::agg::AggregateKind::WeightedAverage => {
                type $K = $crate::agg::AvgKernel;
                $body
            }
            $crate::agg::AggregateKind::WeightedVariance => {
                type $K = $crate::agg::VarKernel;
                $body
            }
            $crate::agg::AggregateKind::Min => {
                type $K = $crate::agg::MinKernel;
                $body
            }
            $crate::agg::AggregateKind::Max => {
                type $K = $crate::agg::MaxKernel;
                $body
            }
            $crate::agg::AggregateKind::Count => {
                type $K = $crate::agg::CountKernel;
                $body
            }
            $crate::agg::AggregateKind::Range => {
                type $K = $crate::agg::RangeKernel;
                $body
            }
            $crate::agg::AggregateKind::GeometricMean => {
                type $K = $crate::agg::GeoKernel;
                $body
            }
        }
    };
}
pub(crate) use with_lane_kernel;

/// One destination's aggregation function: a kind plus per-source weights.
///
/// The weight map is also the source list — `s` is a source of this
/// function iff it has a weight (the paper's `s ∼ d` relation).
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateFunction {
    kind: AggregateKind,
    weights: BTreeMap<NodeId, f64>,
}

impl AggregateFunction {
    /// Creates a function of the given kind with per-source weights.
    ///
    /// # Panics
    /// Panics if no sources are given.
    pub fn new(kind: AggregateKind, weights: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let weights: BTreeMap<NodeId, f64> = weights.into_iter().collect();
        assert!(
            !weights.is_empty(),
            "an aggregation function needs at least one source"
        );
        AggregateFunction { kind, weights }
    }

    /// Weighted-sum convenience constructor.
    pub fn weighted_sum(weights: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        Self::new(AggregateKind::WeightedSum, weights)
    }

    /// Weighted-average convenience constructor.
    pub fn weighted_average(weights: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        Self::new(AggregateKind::WeightedAverage, weights)
    }

    /// The function kind.
    #[inline]
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// The sources of this function, ascending.
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.weights.keys().copied()
    }

    /// Number of sources.
    #[inline]
    pub fn source_count(&self) -> usize {
        self.weights.len()
    }

    /// True if `s` contributes to this function.
    pub fn has_source(&self, s: NodeId) -> bool {
        self.weights.contains_key(&s)
    }

    /// The weight `α_s`, if `s` is a source.
    pub fn weight(&self, s: NodeId) -> Option<f64> {
        self.weights.get(&s).copied()
    }

    /// Adds (or updates) a source weight. Used by dynamic adaptation.
    pub fn set_weight(&mut self, s: NodeId, weight: f64) {
        self.weights.insert(s, weight);
    }

    /// Removes a source; returns true if it was present. The caller must
    /// keep at least one source (checked).
    ///
    /// # Panics
    /// Panics if removing the last source.
    pub fn remove_source(&mut self, s: NodeId) -> bool {
        let removed = self.weights.remove(&s).is_some();
        assert!(
            !self.weights.is_empty(),
            "cannot remove the last source of an aggregation function"
        );
        removed
    }

    /// On-air size of one partial aggregate record for this function.
    #[inline]
    pub fn partial_record_bytes(&self) -> u32 {
        self.kind.partial_record_bytes()
    }

    /// The pre-aggregation function `w_{d,s}`: transforms a raw reading
    /// into a partial aggregate record specific to this destination.
    ///
    /// # Panics
    /// Panics if `s` is not a source of this function.
    pub fn pre_aggregate(&self, s: NodeId, value: f64) -> PartialRecord {
        let alpha = self
            .weights
            .get(&s)
            .unwrap_or_else(|| panic!("{s} is not a source of this function"));
        self.kind.pre_aggregate_weighted(*alpha, value)
    }

    /// The merging function `m_d`: combines two partial records.
    ///
    /// # Panics
    /// Panics if the records are of mismatched shapes for this kind.
    pub fn merge(&self, a: PartialRecord, b: PartialRecord) -> PartialRecord {
        self.kind.merge_records(a, b)
    }

    /// The evaluator `e_d`: produces the final aggregate from a complete
    /// partial record.
    pub fn evaluate(&self, record: PartialRecord) -> f64 {
        self.kind.evaluate_record(record)
    }

    /// Direct (out-of-network) computation of the function over readings —
    /// the ground truth every in-network execution is checked against.
    ///
    /// # Panics
    /// Panics if a source is missing from `readings`.
    pub fn reference_result(&self, readings: &BTreeMap<NodeId, f64>) -> f64 {
        let mut acc: Option<PartialRecord> = None;
        for &s in self.weights.keys() {
            let v = *readings
                .get(&s)
                .unwrap_or_else(|| panic!("no reading for source {s}"));
            let p = self.pre_aggregate(s, v);
            acc = Some(match acc {
                None => p,
                Some(prev) => self.merge(prev, p),
            });
        }
        self.evaluate(acc.expect("at least one source"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readings(pairs: &[(u32, f64)]) -> BTreeMap<NodeId, f64> {
        pairs.iter().map(|&(n, v)| (NodeId(n), v)).collect()
    }

    #[test]
    fn weighted_sum_end_to_end() {
        let f = AggregateFunction::weighted_sum([(NodeId(1), 2.0), (NodeId(2), -1.0)]);
        let r = readings(&[(1, 3.0), (2, 4.0)]);
        assert!((f.reference_result(&r) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_matches_paper_example() {
        // §2.1's worked example: f(v_1..v_n) = (1/n)·Σ α_i v_i with
        // w_i(x) = ⟨α_i x, 1⟩, m({⟨x,a⟩,⟨y,b⟩}) = ⟨x+y, a+b⟩, e(⟨x,a⟩)=x/a.
        let f = AggregateFunction::weighted_average([
            (NodeId(1), 1.0),
            (NodeId(2), 2.0),
            (NodeId(3), 3.0),
        ]);
        let r = readings(&[(1, 10.0), (2, 10.0), (3, 10.0)]);
        // (10 + 20 + 30) / 3 = 20.
        assert!((f.reference_result(&r) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let f = AggregateFunction::new(
            AggregateKind::WeightedVariance,
            [(NodeId(1), 1.0), (NodeId(2), 1.0), (NodeId(3), 1.0)],
        );
        let parts: Vec<PartialRecord> = [(NodeId(1), 2.0), (NodeId(2), 5.0), (NodeId(3), 11.0)]
            .iter()
            .map(|&(s, v)| f.pre_aggregate(s, v))
            .collect();
        let left = f.merge(f.merge(parts[0], parts[1]), parts[2]);
        let right = f.merge(parts[0], f.merge(parts[1], parts[2]));
        assert_eq!(left, right);
    }

    #[test]
    fn variance_matches_direct_formula() {
        let f = AggregateFunction::new(
            AggregateKind::WeightedVariance,
            [
                (NodeId(1), 1.0),
                (NodeId(2), 1.0),
                (NodeId(3), 1.0),
                (NodeId(4), 1.0),
            ],
        );
        let r = readings(&[(1, 2.0), (2, 4.0), (3, 4.0), (4, 6.0)]);
        // mean 4, squared deviations {4,0,0,4} → variance 2.
        assert!((f.reference_result(&r) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_merge_order_and_respect_weights() {
        let f = AggregateFunction::new(AggregateKind::Min, [(NodeId(1), -1.0), (NodeId(2), 1.0)]);
        let r = readings(&[(1, 5.0), (2, 3.0)]);
        // α·v values: {-5, 3} → min -5.
        assert!((f.reference_result(&r) + 5.0).abs() < 1e-12);
        let g = AggregateFunction::new(AggregateKind::Max, [(NodeId(1), -1.0), (NodeId(2), 1.0)]);
        assert!((g.reference_result(&r) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn count_partial_is_smaller_than_raw() {
        assert!(AggregateKind::Count.partial_record_bytes() < RAW_VALUE_BYTES);
        let f = AggregateFunction::new(
            AggregateKind::Count,
            [(NodeId(1), 1.0), (NodeId(2), 1.0), (NodeId(3), 1.0)],
        );
        let r = readings(&[(1, 9.0), (2, 9.0), (3, 9.0)]);
        assert_eq!(f.reference_result(&r), 3.0);
    }

    #[test]
    fn range_tracks_spread_of_weighted_values() {
        let f = AggregateFunction::new(
            AggregateKind::Range,
            [(NodeId(1), 1.0), (NodeId(2), 2.0), (NodeId(3), 1.0)],
        );
        let r = readings(&[(1, 5.0), (2, 1.0), (3, -3.0)]);
        // Weighted values {5, 2, -3} → range 8.
        assert!((f.reference_result(&r) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn range_merge_is_associative() {
        let f = AggregateFunction::new(
            AggregateKind::Range,
            [(NodeId(1), 1.0), (NodeId(2), 1.0), (NodeId(3), 1.0)],
        );
        let parts: Vec<PartialRecord> = [(NodeId(1), 4.0), (NodeId(2), -1.0), (NodeId(3), 7.0)]
            .iter()
            .map(|&(s, v)| f.pre_aggregate(s, v))
            .collect();
        let left = f.merge(f.merge(parts[0], parts[1]), parts[2]);
        let right = f.merge(parts[0], f.merge(parts[1], parts[2]));
        assert_eq!(left, right);
    }

    #[test]
    fn geometric_mean_matches_direct_formula() {
        let f = AggregateFunction::new(
            AggregateKind::GeometricMean,
            [(NodeId(1), 1.0), (NodeId(2), 1.0)],
        );
        let r = readings(&[(1, 4.0), (2, 9.0)]);
        // sqrt(4 · 9) = 6.
        assert!((f.reference_result(&r) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_geometric_mean_respects_weights() {
        let f = AggregateFunction::new(
            AggregateKind::GeometricMean,
            [(NodeId(1), 3.0), (NodeId(2), 1.0)],
        );
        let r = readings(&[(1, 2.0), (2, 16.0)]);
        // (2³·16)^(1/4) = 128^0.25 ≈ 3.3636.
        let expected = 128f64.powf(0.25);
        assert!((f.reference_result(&r) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive readings")]
    fn geometric_mean_rejects_nonpositive() {
        let f = AggregateFunction::new(AggregateKind::GeometricMean, [(NodeId(1), 1.0)]);
        f.pre_aggregate(NodeId(1), -1.0);
    }

    #[test]
    fn record_sizes_match_paper_reasoning() {
        // "for weighted sum, source and destination weights would be equal
        //  … but for weighted average, destinations would weigh more" (§2.2)
        assert_eq!(
            AggregateKind::WeightedSum.partial_record_bytes(),
            RAW_VALUE_BYTES
        );
        assert!(AggregateKind::WeightedAverage.partial_record_bytes() > RAW_VALUE_BYTES);
    }

    #[test]
    fn delta_maintenance_support() {
        assert!(AggregateKind::WeightedSum.supports_delta_maintenance());
        assert!(AggregateKind::WeightedAverage.supports_delta_maintenance());
        assert!(!AggregateKind::Min.supports_delta_maintenance());
        assert!(!AggregateKind::WeightedVariance.supports_delta_maintenance());
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_function_rejected() {
        AggregateFunction::weighted_sum(std::iter::empty::<(NodeId, f64)>());
    }

    #[test]
    #[should_panic(expected = "not a source")]
    fn pre_aggregate_unknown_source_panics() {
        let f = AggregateFunction::weighted_sum([(NodeId(1), 1.0)]);
        f.pre_aggregate(NodeId(9), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn mismatched_merge_panics() {
        let f = AggregateFunction::weighted_sum([(NodeId(1), 1.0)]);
        f.merge(PartialRecord::Sum(1.0), PartialRecord::Count(1));
    }

    /// The component form of a record, with the same `0.0` filler the
    /// lane kernels leave in unused components.
    fn components(r: PartialRecord) -> (f64, f64, f64) {
        use PartialRecord as P;
        match r {
            P::Sum(x) | P::Min(x) | P::Max(x) => (x, 0.0, 0.0),
            P::Avg { sum, count } => (sum, f64::from(count), 0.0),
            P::Var { sum, sum_sq, count } => (sum, sum_sq, f64::from(count)),
            P::Count(c) => (f64::from(c), 0.0, 0.0),
            P::MinMax { min, max } => (min, max, 0.0),
            P::LogSum {
                log_sum,
                weight_sum,
            } => (log_sum, weight_sum, 0.0),
        }
    }

    fn bits(t: (f64, f64, f64)) -> (u64, u64, u64) {
        (t.0.to_bits(), t.1.to_bits(), t.2.to_bits())
    }

    #[test]
    fn lane_kernels_match_enum_records_bit_for_bit() {
        // The contract the lane-batched executor rests on: for every
        // kind, folding weighted inputs through the LaneKernel produces
        // the same f64 bits — at every intermediate component and at the
        // final evaluation — as folding them through the PartialRecord
        // enum methods.
        let inputs = [
            (1.0, 3.75),
            (2.5, 0.125),
            (-1.5, 7.0),
            (0.3, 19.25),
            (4.0, 0.011),
        ];
        // GeometricMean demands alpha-weighted positive readings.
        let geo_inputs = [(1.0, 3.75), (2.5, 0.125), (1.5, 7.0), (0.3, 19.25)];
        for kind in [
            AggregateKind::WeightedSum,
            AggregateKind::WeightedAverage,
            AggregateKind::WeightedVariance,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Count,
            AggregateKind::Range,
            AggregateKind::GeometricMean,
        ] {
            let inputs: &[(f64, f64)] = if kind == AggregateKind::GeometricMean {
                &geo_inputs
            } else {
                &inputs
            };
            with_lane_kernel!(kind, K => {
                const { assert!(K::COMPS <= MAX_COMPONENTS) };
                let mut enum_acc: Option<PartialRecord> = None;
                let mut lane_acc = (0.0, 0.0, 0.0);
                for (i, &(alpha, v)) in inputs.iter().enumerate() {
                    let part = kind.pre_aggregate_weighted(alpha, v);
                    let lane_part = K::pre(alpha, v);
                    assert_eq!(bits(components(part)), bits(lane_part), "{kind:?} pre");
                    enum_acc = Some(match enum_acc {
                        None => part,
                        Some(prev) => kind.merge_records(prev, part),
                    });
                    lane_acc = if i == 0 {
                        lane_part
                    } else {
                        K::merge(lane_acc, lane_part)
                    };
                    assert_eq!(
                        bits(components(enum_acc.unwrap())),
                        bits(lane_acc),
                        "{kind:?} merge step {i}"
                    );
                }
                let enum_eval = kind.evaluate_record(enum_acc.unwrap());
                assert_eq!(
                    enum_eval.to_bits(),
                    K::eval(lane_acc).to_bits(),
                    "{kind:?} eval"
                );
            });
        }
    }
}
