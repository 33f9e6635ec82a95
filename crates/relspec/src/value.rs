//! Untyped relational values.
//!
//! The paper assumes "a set of untyped values `v` drawn from a universe `V`
//! that includes the integers". [`Value`] is that universe: a small dynamic
//! enum with a total order and a hash, so it can serve both as container key
//! material and as lock-ordering material (lock order on node instances is
//! lexicographic on key-column values, §5.1 of the paper).
//!
//! A `Value` is 16 bytes: a tag and one 8-byte payload. A string is held
//! behind a thin reference-counted pointer (`Arc<String>`, one word) rather
//! than a fat `Arc<str>` (two words), so that the integers that make up
//! nearly every key pay nothing for the rare string. A `Tuple` of one field
//! holds that field inline, which is only a memory win while `Value` is
//! this small.

use std::fmt;
use std::sync::Arc;

/// A single untyped relational value.
///
/// `Value` is cheap to clone: strings are reference counted. It is 16
/// bytes; a string costs one allocation more than its `Value`.
///
/// # Examples
///
/// ```
/// use relc_spec::Value;
///
/// let a = Value::from(42);
/// let b = Value::from("fs-node");
/// assert!(a < b); // integers order before strings
/// assert_eq!(a.as_int(), Some(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// A unit value; used for columns that carry no data (e.g. set-like
    /// relations) and as the key of singleton container entries.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer. The common case in the paper's benchmarks
    /// (graph node ids, weights).
    Int(i64),
    /// A string (reference-counted, cheap to clone). The `Arc<String>`
    /// keeps the pointer thin; it orders and hashes as the `str` it holds.
    Str(Arc<String>),
}

impl Value {
    /// Returns the integer payload, if this is an [`Value::Int`].
    ///
    /// # Examples
    ///
    /// ```
    /// use relc_spec::Value;
    /// assert_eq!(Value::from(7).as_int(), Some(7));
    /// assert_eq!(Value::from("x").as_int(), None);
    /// ```
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A stable small-integer tag used for cross-variant ordering and
    /// hashing-based lock striping.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// A cheap, deterministic 64-bit hash of the value, independent of the
    /// process's hash-map randomization. Used for lock striping (§4.4), where
    /// the stripe index must be a pure function of the tuple.
    ///
    /// # Examples
    ///
    /// ```
    /// use relc_spec::Value;
    /// assert_eq!(Value::from(3).stable_hash(), Value::from(3).stable_hash());
    /// ```
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the tag and payload bytes: deterministic across runs.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut step = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        step(self.tag());
        match self {
            Value::Unit => {}
            Value::Bool(b) => step(u8::from(*b)),
            Value::Int(i) => {
                for b in i.to_le_bytes() {
                    step(b);
                }
            }
            Value::Str(s) => {
                for b in s.as_bytes() {
                    step(*b);
                }
            }
        }
        h
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::new(v.to_owned()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::new(v))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Value::from(5).as_int(), Some(5));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::Unit.as_int(), None);
        assert_eq!(Value::from(5).as_str(), None);
        assert_eq!(Value::from(5).as_bool(), None);
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let vals = [
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(7),
            Value::from("a"),
            Value::from("b"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        assert_eq!(Value::from(3).stable_hash(), Value::from(3).stable_hash());
        assert_ne!(Value::from(3).stable_hash(), Value::from(4).stable_hash());
        assert_ne!(
            Value::from("3").stable_hash(),
            Value::from(3).stable_hash(),
            "string and int with same digits must differ"
        );
        assert_ne!(Value::Unit.stable_hash(), Value::Bool(false).stable_hash());
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            Value::Unit,
            Value::from(1),
            Value::from("x"),
            Value::from(true),
        ] {
            assert!(!format!("{v}").is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn value_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    /// The fat-pointer layout `Value` had before: the thin one must hash
    /// and order every value exactly as it did, or container buckets, lock
    /// stripes and shard routes would move.
    #[derive(Hash, PartialEq, Eq, PartialOrd, Ord)]
    enum FatValue {
        Unit,
        Bool(bool),
        Int(i64),
        Str(Arc<str>),
    }

    #[test]
    fn hashes_and_orders_as_the_fat_layout_did() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        fn hash(x: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        let pairs = [
            (Value::Unit, FatValue::Unit),
            (Value::Bool(true), FatValue::Bool(true)),
            (Value::Int(-3), FatValue::Int(-3)),
            (Value::from("héllo"), FatValue::Str("héllo".into())),
            (
                Value::from(String::from("hello")),
                FatValue::Str("hello".into()),
            ),
        ];
        for (thin, fat) in &pairs {
            assert_eq!(hash(thin), hash(fat), "{thin:?}");
            for (thin2, fat2) in &pairs {
                assert_eq!(thin.cmp(thin2), fat.cmp(fat2), "{thin:?} vs {thin2:?}");
            }
        }
        assert_eq!(Value::from("héllo").as_str(), Some("héllo"));
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
    }
}
