//! A `Tuple` holds one field inline and two or more in a `Vec`, and a
//! buffer reused through `Tuple::assign` keeps its `Vec` even for one
//! field. Which form holds a tuple must never be observable: this suite
//! builds the same fields through every constructor — so that they land
//! inline in one tuple and in a one-element `Vec` in another — and checks
//! that equality, order, the container hash and the stable hashes all
//! agree with a plain sorted `Vec<(ColumnId, Value)>`.

use std::cmp::Ordering;

use proptest::prelude::*;
use relc_containers::hashing::hash_key;
use relc_spec::{ColumnId, ColumnSet, Tuple, Value};

type Fields = Vec<(ColumnId, Value)>;

/// Columns the generated fields use; `WIDE` is outside them.
const COLS: usize = 6;
const WIDE: usize = 7;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::from),
        (-3i64..3).prop_map(Value::from),
        (0usize..4).prop_map(|i| Value::from(["", "a", "ab", "b"][i])),
    ]
}

/// Sorted fields without repeated columns, mostly zero to two of them.
fn fields_strategy() -> impl Strategy<Value = Fields> {
    proptest::collection::btree_map(0usize..COLS, value_strategy(), 0..4).prop_map(|m| {
        m.into_iter()
            .map(|(c, v)| (ColumnId::from_index(c), v))
            .collect()
    })
}

fn colset_strategy() -> impl Strategy<Value = ColumnSet> {
    proptest::collection::vec(0usize..COLS, 0..COLS)
        .prop_map(|v| v.into_iter().map(ColumnId::from_index).collect())
}

fn dom(fields: &[(ColumnId, Value)]) -> ColumnSet {
    fields.iter().map(|(c, _)| *c).collect()
}

/// `fields` built every way a tuple can be built; `split` picks where the
/// two-operand constructors cut the fields.
fn every_construction(fields: &Fields, split: usize) -> Vec<(&'static str, Tuple)> {
    let k = split.min(fields.len());
    let (left, right) = fields.split_at(k);
    let of = |f: &[(ColumnId, Value)]| Tuple::from_pairs(f.iter().cloned());
    let extra = (ColumnId::from_index(WIDE), Value::from(9));
    let wider = Tuple::from_pairs(fields.iter().cloned().chain([extra.clone()]));
    // `left` plus `right`'s columns under other values, for `override_with`.
    let stale = Tuple::from_pairs(
        left.iter()
            .cloned()
            .chain(right.iter().map(|(c, _)| (*c, Value::from(99)))),
    );

    let mut reused_wide = Tuple::empty();
    reused_wide.assign(fields.iter().cloned().chain([extra.clone()]));
    reused_wide.assign(fields.iter().cloned());
    let mut reused_one = Tuple::from_pairs([extra]);
    reused_one.assign(fields.iter().cloned());
    let mut reused_empty = Tuple::empty();
    reused_empty.assign(fields.iter().cloned());

    vec![
        ("from_pairs", of(fields)),
        (
            "from_pairs reversed",
            Tuple::from_pairs(fields.iter().rev().cloned()),
        ),
        (
            "from_pairs with repeats",
            Tuple::from_pairs(fields.iter().chain(fields.iter()).cloned()),
        ),
        ("collect", fields.iter().cloned().collect()),
        ("project", wider.project(dom(fields))),
        ("union", of(left).union(&of(right)).unwrap()),
        (
            "union overlapping",
            of(&fields[..(k + 1).min(fields.len())])
                .union(&of(right))
                .unwrap(),
        ),
        ("union_disjoint", of(left).union_disjoint(&of(right))),
        ("override_with", stale.override_with(&of(right))),
        ("assign after a wider tuple", reused_wide),
        ("assign onto one inline field", reused_one),
        ("assign onto an empty buffer", reused_empty),
    ]
}

/// `Tuple::stable_hash_of_seeded` of `fields` projected onto `cols`,
/// written out over the plain field list.
fn stable_hash_seeded_reference(fields: &Fields, cols: ColumnSet, seed: u64) -> u64 {
    let mut h = fields.iter().filter(|(c, _)| cols.contains(*c)).fold(
        seed ^ 0x6a09_e667_f3bc_c909,
        |h, (c, v)| {
            h.rotate_left(13)
                .wrapping_mul(0xff51_afd7_ed55_8ccd)
                .wrapping_add(c.index() as u64)
                .wrapping_add(v.stable_hash())
        },
    );
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn representation_is_never_observable(
        f in fields_strategy(),
        g in fields_strategy(),
        split in 0usize..4,
        cols in colset_strategy(),
        seed in any::<u64>(),
    ) {
        let fs = every_construction(&f, split);
        let gs = every_construction(&g, split);
        for (how, t) in &fs {
            let got: Fields = t.iter().map(|(c, v)| (c, v.clone())).collect();
            prop_assert_eq!(&got, &f, "{} built the wrong fields", how);
            prop_assert_eq!(t.len(), f.len());
            prop_assert_eq!(hash_key(t), hash_key(&f), "hash_key of {}", how);
            let projected: Vec<_> = f
                .iter()
                .filter(|(c, _)| cols.contains(*c))
                .map(|(c, v)| (*c, v))
                .collect();
            prop_assert_eq!(
                t.stable_hash_of(cols),
                Tuple::stable_hash_fields(projected),
                "stable_hash_of of {}", how
            );
            prop_assert_eq!(
                t.stable_hash_of_seeded(cols, seed),
                stable_hash_seeded_reference(&f, cols, seed),
                "stable_hash_of_seeded of {}", how
            );
            for (how_g, u) in &gs {
                prop_assert_eq!(t == u, f == g, "{} == {}", how, how_g);
                prop_assert_eq!(t.cmp(u), f.cmp(&g), "{} cmp {}", how, how_g);
                prop_assert_eq!(t.partial_cmp(u), Some(f.cmp(&g)));
            }
            for (how_f, u) in &fs {
                prop_assert!(t == u, "{} != {}", how, how_f);
                prop_assert_eq!(t.cmp(u), Ordering::Equal);
                prop_assert_eq!(hash_key(t), hash_key(u));
            }
        }
    }
}

#[test]
fn a_tuple_is_thirty_two_bytes() {
    assert_eq!(std::mem::size_of::<Tuple>(), 32);
}
