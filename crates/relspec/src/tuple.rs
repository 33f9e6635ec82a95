//! Tuples: finite maps from columns to values.
//!
//! A tuple `t = ⟨c1: v1, c2: v2, ...⟩` maps a set of columns to values (§2).
//! [`Tuple`] stores fields sorted by [`ColumnId`], giving canonical equality,
//! a total order (used for the lexicographic part of the global lock order,
//! §5.1), and O(log n) field access.
//!
//! Most tuples the engine stores and compares have one field: every edge
//! key of `stick`, `split` and `kv`, every `kv` payload, every one-column
//! query pattern. A tuple holds one field inline — a `Tuple` is 32 bytes,
//! a one-field tuple no allocation, and a key comparison no dependent load
//! — and two or more in a `Vec`. Which form holds a tuple is never
//! observable: equality, order and hashing all read the field slice.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::column::{Catalog, ColumnId, ColumnSet};
use crate::value::Value;

/// A tuple: a finite map from columns to [`Value`]s, sorted by column.
///
/// # Examples
///
/// ```
/// use relc_spec::{Tuple, Value, ColumnId};
///
/// let src = ColumnId::from_index(0);
/// let dst = ColumnId::from_index(1);
/// let t = Tuple::from_pairs([(src, Value::from(1)), (dst, Value::from(2))]);
/// assert_eq!(t.get(src), Some(&Value::from(1)));
/// assert_eq!(t.dom().len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct Tuple {
    /// Sorted by `ColumnId`, no duplicates.
    fields: Fields,
}

/// A tuple's fields: one inline, or any number in a `Vec` (the form of
/// every tuple of two or more fields, and of a buffer [`Tuple::assign`]
/// reuses once it has allocated, whatever it holds). Read only through
/// the slice it derefs to.
#[derive(Clone)]
enum Fields {
    One((ColumnId, Value)),
    Many(Vec<(ColumnId, Value)>),
}

impl Fields {
    /// `fields`, in the form their count picks. `cap` is a `Vec`'s starting
    /// capacity (at least two); callers that know an upper bound on the
    /// count pass it, so the `Vec` is allocated once.
    fn collect(fields: impl IntoIterator<Item = (ColumnId, Value)>, cap: usize) -> Fields {
        let mut fields = fields.into_iter();
        let Some(first) = fields.next() else {
            return Fields::default();
        };
        let Some(second) = fields.next() else {
            return Fields::One(first);
        };
        let mut v = Vec::with_capacity(cap.max(2));
        v.push(first);
        v.push(second);
        v.extend(fields);
        Fields::Many(v)
    }

    /// `fields`, in the form their count picks, read from the iterator's
    /// size hint. One that knows it yields two or more is collected by
    /// `Vec` itself, which sizes it exactly and keeps the buffer of a `Vec`
    /// passed in; any other goes through [`Fields::collect`], with room
    /// for four fields if it needs a `Vec`, as `Vec`'s own `collect` makes.
    fn from_iter(fields: impl IntoIterator<Item = (ColumnId, Value)>) -> Fields {
        let fields = fields.into_iter();
        match fields.size_hint() {
            (lo, Some(hi)) if lo == hi && lo >= 2 => Fields::Many(fields.collect()),
            (lo, _) => Fields::collect(fields, lo.max(4)),
        }
    }
}

impl Default for Fields {
    fn default() -> Self {
        Fields::Many(Vec::new())
    }
}

impl Deref for Fields {
    type Target = [(ColumnId, Value)];

    #[inline]
    fn deref(&self) -> &Self::Target {
        match self {
            Fields::One(f) => std::slice::from_ref(f),
            Fields::Many(v) => v,
        }
    }
}

impl Tuple {
    /// The empty tuple `⟨⟩`.
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Builds a tuple from `(column, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the same column appears twice with different values.
    pub fn from_pairs<I: IntoIterator<Item = (ColumnId, Value)>>(pairs: I) -> Self {
        let mut fields = Fields::from_iter(pairs);
        if let Fields::Many(v) = &mut fields {
            v.sort_by_key(|(c, _)| *c);
            for w in v.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(
                        w[0].1 == w[1].1,
                        "duplicate column {:?} with conflicting values",
                        w[0].0
                    );
                }
            }
            v.dedup_by(|a, b| a.0 == b.0);
            if v.len() == 1 {
                fields = Fields::One(v.pop().expect("one field"));
            }
        }
        Tuple { fields }
    }

    /// The columns of the tuple, `dom t`.
    pub fn dom(&self) -> ColumnSet {
        self.fields.iter().map(|(c, _)| *c).collect()
    }

    /// Whether the tuple is a valuation for `cols`, i.e. `dom t = cols`.
    pub fn is_valuation_for(&self, cols: ColumnSet) -> bool {
        self.dom() == cols
    }

    /// The value of column `c`, if present.
    pub fn get(&self, c: ColumnId) -> Option<&Value> {
        self.fields
            .binary_search_by_key(&c, |(k, _)| *k)
            .ok()
            .map(|i| &self.fields[i].1)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether this is the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(column, value)` pairs in ascending column order.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &Value)> + '_ {
        self.fields.iter().map(|(c, v)| (*c, v))
    }

    /// Projection `π_C t`: restricts the tuple to the columns in `cols`.
    ///
    /// Columns in `cols` that are absent from `t` are silently dropped
    /// (standard relational projection semantics on partial tuples).
    #[must_use]
    pub fn project(&self, cols: ColumnSet) -> Tuple {
        let kept = self.fields.iter().filter(|(c, _)| cols.contains(*c));
        Tuple {
            fields: Fields::collect(kept.cloned(), self.len().min(cols.len())),
        }
    }

    /// Whether `self ⊇ other`: `self` extends `other`, agreeing on all of
    /// `other`'s columns.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc_spec::{Tuple, Value, ColumnId};
    /// let c0 = ColumnId::from_index(0);
    /// let c1 = ColumnId::from_index(1);
    /// let big = Tuple::from_pairs([(c0, Value::from(1)), (c1, Value::from(2))]);
    /// let small = Tuple::from_pairs([(c0, Value::from(1))]);
    /// assert!(big.extends(&small));
    /// assert!(!small.extends(&big));
    /// ```
    pub fn extends(&self, other: &Tuple) -> bool {
        other.fields.iter().all(|(c, v)| self.get(*c) == Some(v))
    }

    /// Whether `self ∼ other`: the tuples agree on all *common* columns.
    pub fn matches(&self, other: &Tuple) -> bool {
        // Merge-walk both sorted field lists.
        let (mut i, mut j) = (0, 0);
        while i < self.fields.len() && j < other.fields.len() {
            match self.fields[i].0.cmp(&other.fields[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    if self.fields[i].1 != other.fields[j].1 {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Union of two tuples with disjoint or agreeing domains.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the tuples disagree on a shared column.
    pub fn union(&self, other: &Tuple) -> Result<Tuple, TupleMergeError> {
        if !self.matches(other) {
            return Err(TupleMergeError {
                left: self.clone(),
                right: other.clone(),
            });
        }
        Ok(self.merge(other))
    }

    /// Union of two tuples whose domains the *caller* guarantees disjoint
    /// — one sorted merge, no conflict scan, no re-sort. The batched
    /// operation hot path builds one full tuple per row this way after
    /// validating the (shared) domains once per batch.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the domains overlap.
    #[must_use]
    pub fn union_disjoint(&self, other: &Tuple) -> Tuple {
        debug_assert!(
            self.dom().is_disjoint(other.dom()),
            "union_disjoint requires disjoint domains"
        );
        self.merge(other)
    }

    /// Right-biased override: the fields of `self`, with every column of
    /// `other` taking `other`'s value (columns new in `other` are added).
    /// This is the §2 `update` combinator: `update r s t` replaces the
    /// tuple `u ⊇ s` with `u ⊕ t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc_spec::{Tuple, Value, ColumnId};
    /// let c0 = ColumnId::from_index(0);
    /// let c1 = ColumnId::from_index(1);
    /// let u = Tuple::from_pairs([(c0, Value::from(1)), (c1, Value::from(2))]);
    /// let t = Tuple::from_pairs([(c1, Value::from(9))]);
    /// let got = u.override_with(&t);
    /// assert_eq!(got.get(c0), Some(&Value::from(1)));
    /// assert_eq!(got.get(c1), Some(&Value::from(9)));
    /// ```
    #[must_use]
    pub fn override_with(&self, other: &Tuple) -> Tuple {
        self.merge(other)
    }

    /// One sorted merge of both field lists; a column in both takes
    /// `other`'s value.
    fn merge(&self, other: &Tuple) -> Tuple {
        let (a, b) = (&*self.fields, &*other.fields);
        let (mut i, mut j) = (0, 0);
        let merged = std::iter::from_fn(|| {
            let next = match (a.get(i), b.get(j)) {
                (Some(x), y) if y.is_none_or(|y| x.0 < y.0) => {
                    i += 1;
                    x
                }
                (x, Some(y)) => {
                    i += usize::from(x.is_some_and(|x| x.0 == y.0));
                    j += 1;
                    y
                }
                _ => return None,
            };
            Some(next.clone())
        });
        Tuple {
            fields: Fields::collect(merged, a.len() + b.len()),
        }
    }

    /// A deterministic 64-bit hash of the projection of this tuple onto
    /// `cols`, for lock striping (§4.4): the stripe is `hash mod k`.
    pub fn stable_hash_of(&self, cols: ColumnSet) -> u64 {
        self.fold_hash_of(cols, STABLE_SEED)
    }

    /// [`Tuple::stable_hash_of`] with an explicit seed and a final
    /// avalanche, so independent consumers (shard routers vs. lock
    /// stripes vs. container buckets) draw decorrelated bit streams from
    /// the same key columns: two hashes of the same projection under
    /// different seeds share no usable structure, and the avalanche keeps
    /// `hash mod k` uniform even for small `k` and sequential values.
    pub fn stable_hash_of_seeded(&self, cols: ColumnSet, seed: u64) -> u64 {
        // splitmix64 finalizer over the seeded fold.
        let mut h = self.fold_hash_of(cols, seed ^ 0x6a09_e667_f3bc_c909);
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// [`Tuple::stable_hash_of`] over fields held elsewhere than in a
    /// tuple: `fields` in ascending column order hash exactly as a tuple
    /// of those fields hashes on its whole domain.
    pub fn stable_hash_fields<'a>(fields: impl IntoIterator<Item = (ColumnId, &'a Value)>) -> u64 {
        fold_hash(fields, STABLE_SEED)
    }

    fn fold_hash_of(&self, cols: ColumnSet, seed: u64) -> u64 {
        let fields = self.fields.iter().filter(|(c, _)| cols.contains(*c));
        fold_hash(fields.map(|(c, v)| (*c, v)), seed)
    }

    /// Replaces the fields with `fields`, which must come in ascending
    /// column order without repeats, keeping the allocation: a caller that
    /// builds many short-lived tuples of one shape, one after the other,
    /// allocates once.
    ///
    /// A buffer that holds an allocated `Vec` keeps it, even for one field;
    /// any other takes the form the new fields' count picks, so a reused
    /// one-field key never allocates.
    pub fn assign(&mut self, fields: impl IntoIterator<Item = (ColumnId, Value)>) {
        match &mut self.fields {
            Fields::Many(v) if v.capacity() > 0 => {
                v.clear();
                v.extend(fields);
            }
            _ => self.fields = Fields::from_iter(fields),
        }
        debug_assert!(
            self.fields.windows(2).all(|w| w[0].0 < w[1].0),
            "assign requires ascending, distinct columns"
        );
    }

    /// Renders the tuple with column names from `catalog`,
    /// e.g. `⟨src: 1, dst: 2⟩`.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut s = String::from("⟨");
        for (i, (c, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(catalog.name(*c));
            s.push_str(": ");
            s.push_str(&v.to_string());
        }
        s.push('⟩');
        s
    }
}

/// The seed of [`Tuple::stable_hash_of`].
const STABLE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn fold_hash<'a>(fields: impl IntoIterator<Item = (ColumnId, &'a Value)>, seed: u64) -> u64 {
    fields.into_iter().fold(seed, |h, (c, v)| {
        h.rotate_left(13)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .wrapping_add(u64::from(c.0 as u32))
            .wrapping_add(v.stable_hash())
    })
}

/// Equality of the field lists, whichever form holds them.
impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        *self.fields == *other.fields
    }
}

impl Eq for Tuple {}

/// Hashes the field slice: the bytes a `Vec` of the same fields writes, so
/// container buckets and lock stripes do not depend on the form.
impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fields[..].hash(state);
    }
}

/// Total order: lexicographic over the sorted field list.
///
/// For tuples that are valuations of the *same* column set, this coincides
/// with the lexicographic value order the paper uses to order node instances
/// (§5.1). Tuples over different domains are still totally ordered (by the
/// interleaved column/value sequence), which keeps `BTreeMap<Tuple, _>`
/// usable as a container key type.
impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.fields[..].cmp(&other.fields[..])
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (c, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {v}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<(ColumnId, Value)> for Tuple {
    fn from_iter<T: IntoIterator<Item = (ColumnId, Value)>>(iter: T) -> Self {
        Tuple::from_pairs(iter)
    }
}

/// Error returned by [`Tuple::union`] when tuples disagree on a shared column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleMergeError {
    /// Left operand of the failed union.
    pub left: Tuple,
    /// Right operand of the failed union.
    pub right: Tuple,
}

impl fmt::Display for TupleMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuples disagree on a shared column: {:?} vs {:?}",
            self.left, self.right
        )
    }
}

impl std::error::Error for TupleMergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> ColumnId {
        ColumnId::from_index(i)
    }

    fn t(pairs: &[(usize, i64)]) -> Tuple {
        Tuple::from_pairs(pairs.iter().map(|&(i, v)| (c(i), Value::from(v))))
    }

    #[test]
    fn fields_are_sorted_and_deduped() {
        let a = Tuple::from_pairs([(c(2), Value::from(9)), (c(0), Value::from(1))]);
        let cols: Vec<usize> = a.iter().map(|(cid, _)| cid.index()).collect();
        assert_eq!(cols, vec![0, 2]);
        let dup = Tuple::from_pairs([(c(1), Value::from(5)), (c(1), Value::from(5))]);
        assert_eq!(dup.len(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting")]
    fn conflicting_duplicates_panic() {
        let _ = Tuple::from_pairs([(c(1), Value::from(5)), (c(1), Value::from(6))]);
    }

    #[test]
    fn get_and_dom() {
        let a = t(&[(0, 1), (3, 4)]);
        assert_eq!(a.get(c(0)), Some(&Value::from(1)));
        assert_eq!(a.get(c(1)), None);
        assert_eq!(a.dom(), ColumnSet::from_iter([c(0), c(3)]));
        assert!(a.is_valuation_for(ColumnSet::from_iter([c(0), c(3)])));
        assert!(!a.is_valuation_for(ColumnSet::from_iter([c(0)])));
    }

    #[test]
    fn hash_of_fields_matches_hash_of_tuple_and_assign_reuses() {
        let a = t(&[(0, 1), (1, 2), (2, 3)]);
        let cols = ColumnSet::from_iter([c(0), c(2)]);
        let fields = cols.iter().map(|col| (col, a.get(col).unwrap()));
        assert_eq!(Tuple::stable_hash_fields(fields), a.stable_hash_of(cols));
        let mut key = Tuple::empty();
        key.assign([(c(0), Value::from(1)), (c(2), Value::from(3))]);
        assert_eq!(key, a.project(cols));
        key.assign([(c(1), Value::from(2))]);
        assert_eq!(key, t(&[(1, 2)]));
    }

    #[test]
    fn projection() {
        let a = t(&[(0, 1), (1, 2), (2, 3)]);
        let p = a.project(ColumnSet::from_iter([c(0), c(2), c(5)]));
        assert_eq!(p, t(&[(0, 1), (2, 3)]));
        assert_eq!(a.project(ColumnSet::EMPTY), Tuple::empty());
    }

    #[test]
    fn extends_and_matches() {
        let big = t(&[(0, 1), (1, 2)]);
        let small = t(&[(0, 1)]);
        let other = t(&[(0, 9)]);
        let disjoint = t(&[(5, 5)]);
        assert!(big.extends(&small));
        assert!(big.extends(&big));
        assert!(!big.extends(&other));
        assert!(!small.extends(&big));
        assert!(big.matches(&small));
        assert!(!big.matches(&other));
        assert!(big.matches(&disjoint), "disjoint domains always match");
        assert!(Tuple::empty().matches(&big));
        assert!(big.extends(&Tuple::empty()));
    }

    #[test]
    fn union_merges_or_errors() {
        let a = t(&[(0, 1)]);
        let b = t(&[(1, 2)]);
        assert_eq!(a.union(&b).unwrap(), t(&[(0, 1), (1, 2)]));
        let conflict = t(&[(0, 7)]);
        let err = a.union(&conflict).unwrap_err();
        assert!(format!("{err}").contains("disagree"));
        // union with agreeing overlap is fine
        let overlap = t(&[(0, 1), (2, 3)]);
        assert_eq!(a.union(&overlap).unwrap(), t(&[(0, 1), (2, 3)]));
    }

    #[test]
    fn ordering_is_lexicographic_on_same_domain() {
        let a = t(&[(0, 1), (1, 5)]);
        let b = t(&[(0, 1), (1, 6)]);
        let z = t(&[(0, 2), (1, 0)]);
        assert!(a < b);
        assert!(b < z);
        let mut v = vec![z.clone(), a.clone(), b.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, z]);
    }

    #[test]
    fn stable_hash_respects_projection() {
        let a = t(&[(0, 1), (1, 2), (2, 3)]);
        let b = t(&[(0, 1), (1, 99), (2, 3)]);
        let cols02 = ColumnSet::from_iter([c(0), c(2)]);
        assert_eq!(a.stable_hash_of(cols02), b.stable_hash_of(cols02));
        let cols01 = ColumnSet::from_iter([c(0), c(1)]);
        assert_ne!(a.stable_hash_of(cols01), b.stable_hash_of(cols01));
    }

    #[test]
    fn render_and_debug() {
        let mut cat = Catalog::new();
        let src = cat.intern("src");
        let dst = cat.intern("dst");
        let e = Tuple::from_pairs([(src, Value::from(1)), (dst, Value::from(2))]);
        assert_eq!(e.render(&cat), "⟨src: 1, dst: 2⟩");
        assert_eq!(format!("{:?}", Tuple::empty()), "⟨⟩");
    }
}
