//! The reference (oracle) relation: the paper's §2 semantics, executed
//! literally under one global lock.
//!
//! [`OracleRelation`] implements the four relational operations exactly as
//! specified ("we represent relations as ML-style references to a set of
//! tuples"), making every operation trivially linearizable. The synthesis
//! pipeline's tests compare every synthesized representation against this
//! oracle, and the linearizability checker uses it as the sequential
//! specification.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use crate::column::ColumnSet;
use crate::error::SpecError;
use crate::range::RangePattern;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;

/// A reference implementation of a concurrent relation: a mutex around a set
/// of tuples, with the §2 operation semantics.
///
/// # Examples
///
/// ```
/// use relc_spec::{library, OracleRelation, Value};
///
/// let schema = library::graph_schema();
/// let r = OracleRelation::empty(schema.clone());
/// let key = schema.tuple(&[("src", Value::from(1)), ("dst", Value::from(2))]).unwrap();
/// let payload = schema.tuple(&[("weight", Value::from(42))]).unwrap();
/// assert!(r.insert(&key, &payload).unwrap());
/// // A second insert with the same (src, dst) is a no-op: put-if-absent.
/// let payload2 = schema.tuple(&[("weight", Value::from(101))]).unwrap();
/// assert!(!r.insert(&key, &payload2).unwrap());
/// assert_eq!(r.len(), 1);
/// ```
#[derive(Debug)]
pub struct OracleRelation {
    schema: Arc<RelationSchema>,
    tuples: Mutex<BTreeSet<Tuple>>,
}

impl OracleRelation {
    /// `empty ()`: creates a new empty relation (§2).
    pub fn empty(schema: Arc<RelationSchema>) -> Self {
        OracleRelation {
            schema,
            tuples: Mutex::new(BTreeSet::new()),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// `insert r s t`: inserts `s ∪ t` provided no existing tuple extends
    /// `s`; returns whether the insertion happened (§2).
    ///
    /// This generalizes put-if-absent: the caller can test whether the
    /// functional dependencies would be preserved even under concurrency by
    /// putting the FD left-hand side in `s`.
    ///
    /// # Errors
    ///
    /// * [`SpecError::OverlappingInsertDomains`] if `s` and `t` share columns.
    /// * [`SpecError::NotAValuation`] if `s ∪ t` is not a full valuation.
    /// * [`SpecError::FdViolation`] if inserting would violate a declared FD
    ///   (eager check; the paper makes this a client obligation).
    pub fn insert(&self, s: &Tuple, t: &Tuple) -> Result<bool, SpecError> {
        if !s.dom().is_disjoint(t.dom()) {
            return Err(SpecError::OverlappingInsertDomains {
                shared: self
                    .schema
                    .catalog()
                    .render_set(s.dom().intersection(t.dom())),
            });
        }
        let merged = s.union(t).expect("disjoint domains cannot conflict");
        self.schema.check_valuation(&merged)?;

        let mut guard = self.tuples.lock().expect("oracle lock poisoned");
        if guard.iter().any(|u| u.extends(s)) {
            return Ok(false);
        }
        // Eager FD validation against the rest of the relation.
        for fd in self.schema.fds().iter() {
            let lhs = merged.project(fd.lhs());
            for u in guard.iter() {
                if u.project(fd.lhs()) == lhs && u.project(fd.rhs()) != merged.project(fd.rhs()) {
                    return Err(SpecError::FdViolation {
                        fd: fd.render(self.schema.catalog()),
                    });
                }
            }
        }
        guard.insert(merged);
        Ok(true)
    }

    /// `remove r s`: removes all tuples extending `s`, returning how many
    /// were removed (§2).
    ///
    /// The paper's implementation requires `s` to be a key; the oracle
    /// accepts any pattern so it can also serve as the sequential
    /// specification for generalized removals.
    pub fn remove(&self, s: &Tuple) -> usize {
        let mut guard = self.tuples.lock().expect("oracle lock poisoned");
        let before = guard.len();
        guard.retain(|t| !t.extends(s));
        before - guard.len()
    }

    /// `update r s t`: replaces the unique tuple `u ⊇ s` with `u ⊕ t`
    /// (right-biased override), returning the replaced tuple, or `None` if
    /// no tuple extends `s` (§2).
    ///
    /// Like the paper's implementation of `remove`, `s` must be a key, so
    /// at most one tuple matches; the updated columns must be disjoint
    /// from the key pattern (a tuple's identity does not change under
    /// `update` — remove and re-insert to move it).
    ///
    /// # Errors
    ///
    /// * [`SpecError::RemoveNotByKey`] if `dom s` is not a key;
    /// * [`SpecError::EmptyUpdate`] if `t` assigns nothing;
    /// * [`SpecError::UpdateOverlapsPattern`] if `t` assigns a column of
    ///   `dom s`.
    pub fn update(&self, s: &Tuple, t: &Tuple) -> Result<Option<Tuple>, SpecError> {
        if t.is_empty() {
            return Err(SpecError::EmptyUpdate);
        }
        if !s.dom().is_disjoint(t.dom()) {
            return Err(SpecError::UpdateOverlapsPattern {
                shared: self
                    .schema
                    .catalog()
                    .render_set(s.dom().intersection(t.dom())),
            });
        }
        if !self.schema.is_key(s.dom()) {
            return Err(SpecError::RemoveNotByKey {
                dom: self.schema.catalog().render_set(s.dom()),
            });
        }
        let mut guard = self.tuples.lock().expect("oracle lock poisoned");
        let Some(old) = guard.iter().find(|u| u.extends(s)).cloned() else {
            return Ok(None);
        };
        guard.remove(&old);
        guard.insert(old.override_with(t));
        Ok(Some(old))
    }

    /// `query r s C`: returns `π_C {t ∈ r | t ⊇ s}` as a deduplicated,
    /// sorted vector (§2).
    pub fn query(&self, s: &Tuple, cols: ColumnSet) -> Vec<Tuple> {
        let guard = self.tuples.lock().expect("oracle lock poisoned");
        let set: BTreeSet<Tuple> = guard
            .iter()
            .filter(|t| t.extends(s))
            .map(|t| t.project(cols))
            .collect();
        set.into_iter().collect()
    }

    /// `query_range r s ρ C`: the range-query reference semantics every
    /// synthesized representation must match — [`RangePattern::select`]
    /// over the current tuples. Unlike `query` + filter, `limit` selects
    /// the k *smallest* matches in range order, and projections are
    /// emitted in range order rather than projected-tuple order.
    pub fn query_range(&self, s: &Tuple, range: &RangePattern, cols: ColumnSet) -> Vec<Tuple> {
        let guard = self.tuples.lock().expect("oracle lock poisoned");
        range.select(guard.iter(), s, cols)
    }

    /// Number of tuples currently in the relation.
    pub fn len(&self) -> usize {
        self.tuples.lock().expect("oracle lock poisoned").len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the full tuple set, sorted.
    pub fn snapshot(&self) -> Vec<Tuple> {
        self.tuples
            .lock()
            .expect("oracle lock poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Replaces the contents wholesale (test setup helper).
    pub fn load<I: IntoIterator<Item = Tuple>>(&self, tuples: I) {
        let mut guard = self.tuples.lock().expect("oracle lock poisoned");
        guard.clear();
        guard.extend(tuples);
    }

    /// Checks that the current contents satisfy every declared FD.
    ///
    /// # Errors
    ///
    /// Returns the first violated FD as a [`SpecError::FdViolation`].
    pub fn check_fds(&self) -> Result<(), SpecError> {
        let guard = self.tuples.lock().expect("oracle lock poisoned");
        let tuples: Vec<&Tuple> = guard.iter().collect();
        for fd in self.schema.fds().iter() {
            for (i, a) in tuples.iter().enumerate() {
                for b in &tuples[i + 1..] {
                    if a.project(fd.lhs()) == b.project(fd.lhs())
                        && a.project(fd.rhs()) != b.project(fd.rhs())
                    {
                        return Err(SpecError::FdViolation {
                            fd: fd.render(self.schema.catalog()),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::library::graph_schema;
    use crate::value::Value;

    fn edge_key(r: &OracleRelation, s: i64, d: i64) -> Tuple {
        r.schema()
            .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
            .unwrap()
    }

    fn weight(r: &OracleRelation, w: i64) -> Tuple {
        r.schema().tuple(&[("weight", Value::from(w))]).unwrap()
    }

    #[test]
    fn paper_running_example() {
        // §2: insert ⟨src:1,dst:2⟩ ⟨weight:42⟩ then a conflicting insert is a no-op.
        let r = OracleRelation::empty(graph_schema());
        assert!(r.insert(&edge_key(&r, 1, 2), &weight(&r, 42)).unwrap());
        assert!(!r.insert(&edge_key(&r, 1, 2), &weight(&r, 101)).unwrap());
        assert_eq!(r.len(), 1);
        let snap = r.snapshot();
        assert_eq!(
            snap[0].get(r.schema().column("weight").unwrap()),
            Some(&Value::from(42))
        );
    }

    #[test]
    fn query_projects_and_dedupes() {
        let r = OracleRelation::empty(graph_schema());
        r.insert(&edge_key(&r, 1, 2), &weight(&r, 10)).unwrap();
        r.insert(&edge_key(&r, 1, 3), &weight(&r, 10)).unwrap();
        r.insert(&edge_key(&r, 2, 3), &weight(&r, 10)).unwrap();
        let src1 = r.schema().tuple(&[("src", Value::from(1))]).unwrap();
        let dw = r.schema().column_set(&["dst", "weight"]).unwrap();
        let res = r.query(&src1, dw);
        assert_eq!(res.len(), 2);
        // projecting to just weight dedupes
        let w = r.schema().column_set(&["weight"]).unwrap();
        let res = r.query(&Tuple::empty(), w);
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn remove_by_pattern() {
        let r = OracleRelation::empty(graph_schema());
        r.insert(&edge_key(&r, 1, 2), &weight(&r, 10)).unwrap();
        r.insert(&edge_key(&r, 3, 2), &weight(&r, 11)).unwrap();
        r.insert(&edge_key(&r, 3, 4), &weight(&r, 12)).unwrap();
        // §2: "delete edges with a dst of 2"
        let dst2 = r.schema().tuple(&[("dst", Value::from(2))]).unwrap();
        assert_eq!(r.remove(&dst2), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.remove(&dst2), 0);
    }

    #[test]
    fn insert_rejects_overlapping_domains() {
        let r = OracleRelation::empty(graph_schema());
        let s = r
            .schema()
            .tuple(&[("src", Value::from(1)), ("dst", Value::from(2))])
            .unwrap();
        let t = r
            .schema()
            .tuple(&[("dst", Value::from(2)), ("weight", Value::from(3))])
            .unwrap();
        assert!(matches!(
            r.insert(&s, &t),
            Err(SpecError::OverlappingInsertDomains { .. })
        ));
    }

    #[test]
    fn insert_rejects_partial_tuples() {
        let r = OracleRelation::empty(graph_schema());
        let s = r.schema().tuple(&[("src", Value::from(1))]).unwrap();
        let t = r.schema().tuple(&[("weight", Value::from(3))]).unwrap();
        assert!(matches!(
            r.insert(&s, &t),
            Err(SpecError::NotAValuation { .. })
        ));
    }

    #[test]
    fn insert_detects_fd_violation_when_key_not_in_s() {
        let r = OracleRelation::empty(graph_schema());
        r.insert(&edge_key(&r, 1, 2), &weight(&r, 10)).unwrap();
        // keying only on src: (1,3) does not clash with (1,2) on the FD,
        // inserting is fine
        let s = r.schema().tuple(&[("src", Value::from(1))]).unwrap();
        let t = r
            .schema()
            .tuple(&[("dst", Value::from(3)), ("weight", Value::from(9))])
            .unwrap();
        // no tuple extends ⟨src:1⟩? one does — put-if-absent refuses.
        assert!(!r.insert(&s, &t).unwrap());
        // keying on weight only: (1,2,77) violates src,dst→weight vs (1,2,10)
        let s = r.schema().tuple(&[("weight", Value::from(77))]).unwrap();
        let t = edge_key(&r, 1, 2);
        assert!(matches!(
            r.insert(&s, &t),
            Err(SpecError::FdViolation { .. })
        ));
    }

    #[test]
    fn check_fds_detects_violations_after_load() {
        let r = OracleRelation::empty(graph_schema());
        let mk = |s: i64, d: i64, w: i64| {
            r.schema()
                .tuple(&[
                    ("src", Value::from(s)),
                    ("dst", Value::from(d)),
                    ("weight", Value::from(w)),
                ])
                .unwrap()
        };
        r.load([mk(1, 2, 10), mk(1, 2, 20)]);
        assert!(r.check_fds().is_err());
        r.load([mk(1, 2, 10), mk(2, 1, 20)]);
        assert!(r.check_fds().is_ok());
    }

    #[test]
    fn query_range_orders_limits_and_dedupes() {
        let r = OracleRelation::empty(graph_schema());
        r.insert(&edge_key(&r, 1, 5), &weight(&r, 50)).unwrap();
        r.insert(&edge_key(&r, 1, 2), &weight(&r, 20)).unwrap();
        r.insert(&edge_key(&r, 2, 3), &weight(&r, 20)).unwrap();
        r.insert(&edge_key(&r, 1, 3), &weight(&r, 30)).unwrap();
        let dst = r.schema().column("dst").unwrap();
        let src1 = r.schema().tuple(&[("src", Value::from(1))]).unwrap();
        let dcols = r.schema().column_set(&["dst"]).unwrap();
        // 2 ≤ dst < 5 with src = 1: dst ∈ {2, 3}, in range order.
        let rng = crate::RangePattern::half_open(dst, Value::from(2), Value::from(5));
        let got = r.query_range(&src1, &rng, dcols);
        let dval = |t: &Tuple| t.get(dst).unwrap().as_int().unwrap();
        assert_eq!(got.iter().map(dval).collect::<Vec<_>>(), vec![2, 3]);
        // Projection onto weight dedupes: dst ∈ {2,3} over all srcs maps
        // to weights {20, 20, 30} → [20, 30] in range order.
        let wcols = r.schema().column_set(&["weight"]).unwrap();
        let got = r.query_range(&Tuple::empty(), &rng, wcols);
        assert_eq!(got.len(), 2);
        // limit takes the smallest matches in range order.
        let top1 = crate::RangePattern::all(dst).with_limit(1);
        let got = r.query_range(&src1, &top1, dcols);
        assert_eq!(got.iter().map(dval).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn empty_relation_properties() {
        let r = OracleRelation::empty(graph_schema());
        assert!(r.is_empty());
        assert_eq!(r.query(&Tuple::empty(), r.schema().columns()), vec![]);
        assert_eq!(r.remove(&Tuple::empty()), 0);
    }
}
