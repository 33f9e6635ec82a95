//! Range patterns: the one-column interval predicate behind
//! `query_range` (the IndexRange access path).
//!
//! A [`RangePattern`] names a single column and an interval of values
//! over it — each end independently open, closed, or unbounded — plus an
//! optional `limit` for top-k queries. It extends the paper's §2 query
//! language, which binds columns by equality only: a range query matches
//! every tuple whose value in the range column falls inside the
//! interval, *in addition to* whatever equality pattern accompanies it.
//!
//! Ordering matters: range results are returned sorted by the range
//! column first (then by the projected tuple), which is what makes `limit`
//! meaningful (the k smallest matches) and what sorted containers can
//! serve natively with a bounded in-order scan.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;

use crate::column::{ColumnId, ColumnSet};
use crate::tuple::Tuple;
use crate::value::Value;

/// An interval predicate over one column: `lo ≤/< col ≤/< hi`, with
/// either end optionally unbounded, plus an optional result `limit`
/// (top-k in range order).
///
/// # Examples
///
/// ```
/// use relc_spec::{library, RangePattern, Value};
///
/// let schema = library::graph_schema();
/// let dst = schema.column("dst").unwrap();
/// // 2 ≤ dst < 7
/// let r = RangePattern::half_open(dst, Value::from(2), Value::from(7));
/// assert!(r.contains(&Value::from(2)));
/// assert!(!r.contains(&Value::from(7)));
/// // the 3 smallest dst values ≥ 10
/// let topk = RangePattern::at_least(dst, Value::from(10)).with_limit(3);
/// assert_eq!(topk.limit(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePattern {
    col: ColumnId,
    lo: Bound<Value>,
    hi: Bound<Value>,
    limit: Option<usize>,
}

impl RangePattern {
    /// A range with explicit bounds on both ends.
    pub fn new(col: ColumnId, lo: Bound<Value>, hi: Bound<Value>) -> Self {
        RangePattern {
            col,
            lo,
            hi,
            limit: None,
        }
    }

    /// The half-open interval `lo ≤ col < hi` (the conventional paging
    /// shape).
    pub fn half_open(col: ColumnId, lo: Value, hi: Value) -> Self {
        Self::new(col, Bound::Included(lo), Bound::Excluded(hi))
    }

    /// The closed interval `lo ≤ col ≤ hi`.
    pub fn closed(col: ColumnId, lo: Value, hi: Value) -> Self {
        Self::new(col, Bound::Included(lo), Bound::Included(hi))
    }

    /// The lower-bounded ray `col ≥ lo`.
    pub fn at_least(col: ColumnId, lo: Value) -> Self {
        Self::new(col, Bound::Included(lo), Bound::Unbounded)
    }

    /// The upper-bounded ray `col < hi`.
    pub fn below(col: ColumnId, hi: Value) -> Self {
        Self::new(col, Bound::Unbounded, Bound::Excluded(hi))
    }

    /// The unbounded range over `col`: matches every tuple, but still
    /// imposes range order (useful with [`Self::with_limit`] for plain
    /// top-k).
    pub fn all(col: ColumnId) -> Self {
        Self::new(col, Bound::Unbounded, Bound::Unbounded)
    }

    /// Caps the result at the `k` smallest matches in range order.
    #[must_use]
    pub fn with_limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// This range with the result cap removed (a sharded fan-out reads
    /// each shard uncapped and applies the cap after the global merge —
    /// a per-shard cap could starve projections that dedup across
    /// shards).
    #[must_use]
    pub fn without_limit(&self) -> Self {
        RangePattern {
            limit: None,
            ..self.clone()
        }
    }

    /// The column the interval constrains.
    pub fn col(&self) -> ColumnId {
        self.col
    }

    /// The lower bound.
    pub fn lo(&self) -> Bound<&Value> {
        self.lo.as_ref()
    }

    /// The upper bound.
    pub fn hi(&self) -> Bound<&Value> {
        self.hi.as_ref()
    }

    /// The result cap, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: &Value) -> bool {
        let above_lo = match &self.lo {
            Bound::Included(lo) => v >= lo,
            Bound::Excluded(lo) => v > lo,
            Bound::Unbounded => true,
        };
        let below_hi = match &self.hi {
            Bound::Included(hi) => v <= hi,
            Bound::Excluded(hi) => v < hi,
            Bound::Unbounded => true,
        };
        above_lo && below_hi
    }

    /// The reference `query_range r s ρ C` result over `tuples`: matches
    /// every tuple `u ⊇ s` whose value in the range column lies inside the
    /// interval, orders the matches by **range-column value first, then
    /// projected tuple**, projects each onto `cols` in that order,
    /// deduplicates keeping first occurrences, and truncates at the limit.
    ///
    /// This is the specification side of the rule — the oracle and the
    /// linearizability model both answer with it; implementations assemble
    /// their results independently and are tested against it. The
    /// tie-break is the *projection*, not the full tuple, so a
    /// representation whose access path binds only the queried columns can
    /// reproduce the order exactly.
    pub fn select<'a>(
        &self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
        s: &Tuple,
        cols: ColumnSet,
    ) -> Vec<Tuple> {
        let mut matched: Vec<(&Value, Tuple)> = tuples
            .into_iter()
            .filter(|u| u.extends(s))
            .filter_map(|u| {
                let v = u.get(self.col).filter(|v| self.contains(v))?;
                Some((v, u.project(cols)))
            })
            .collect();
        matched.sort();
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for (_, p) in matched {
            if self.limit.is_some_and(|k| out.len() >= k) {
                break;
            }
            if seen.insert(p.clone()) {
                out.push(p);
            }
        }
        out
    }

    /// Whether the interval is syntactically empty (`lo > hi`, or equal
    /// with an open end). Containers may skip the traversal entirely.
    pub fn is_empty_interval(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::Included(lo), Bound::Included(hi)) => lo > hi,
            (Bound::Included(lo), Bound::Excluded(hi))
            | (Bound::Excluded(lo), Bound::Included(hi))
            | (Bound::Excluded(lo), Bound::Excluded(hi)) => lo >= hi,
            _ => false,
        }
    }
}

impl fmt::Display for RangePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Bound::Included(v) => write!(f, "{v} <= ")?,
            Bound::Excluded(v) => write!(f, "{v} < ")?,
            Bound::Unbounded => {}
        }
        write!(f, "col#{}", self.col.index())?;
        match &self.hi {
            Bound::Included(v) => write!(f, " <= {v}")?,
            Bound::Excluded(v) => write!(f, " < {v}")?,
            Bound::Unbounded => {}
        }
        if let Some(k) = self.limit {
            write!(f, " limit {k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::library::graph_schema;

    #[test]
    fn containment_respects_bound_kinds() {
        let c = graph_schema().column("dst").unwrap();
        let half = RangePattern::half_open(c, Value::from(2), Value::from(5));
        assert!(!half.contains(&Value::from(1)));
        assert!(half.contains(&Value::from(2)));
        assert!(half.contains(&Value::from(4)));
        assert!(!half.contains(&Value::from(5)));

        let closed = RangePattern::closed(c, Value::from(2), Value::from(5));
        assert!(closed.contains(&Value::from(5)));

        let open = RangePattern::new(c, Bound::Excluded(Value::from(2)), Bound::Unbounded);
        assert!(!open.contains(&Value::from(2)));
        assert!(open.contains(&Value::from(3)));

        assert!(RangePattern::all(c).contains(&Value::from(i64::MIN)));
    }

    #[test]
    fn empty_intervals_detected() {
        let c = graph_schema().column("dst").unwrap();
        assert!(RangePattern::half_open(c, Value::from(5), Value::from(5)).is_empty_interval());
        assert!(RangePattern::closed(c, Value::from(6), Value::from(5)).is_empty_interval());
        assert!(!RangePattern::closed(c, Value::from(5), Value::from(5)).is_empty_interval());
        assert!(!RangePattern::all(c).is_empty_interval());
    }

    #[test]
    fn limit_caps_the_selection_and_zero_selects_nothing() {
        let schema = graph_schema();
        let c = schema.column("dst").unwrap();
        let tuples: Vec<Tuple> = (0..4)
            .map(|k| {
                schema
                    .tuple(&[
                        ("src", Value::from(1)),
                        ("dst", Value::from(k)),
                        ("weight", Value::from(0)),
                    ])
                    .unwrap()
            })
            .collect();
        let cols = ColumnSet::new().with(c);
        let select = |r: RangePattern| r.select(&tuples, &Tuple::empty(), cols).len();
        assert_eq!(select(RangePattern::all(c)), 4);
        assert_eq!(select(RangePattern::all(c).with_limit(2)), 2);
        assert_eq!(select(RangePattern::all(c).with_limit(0)), 0);
    }
}
