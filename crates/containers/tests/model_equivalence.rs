//! Property tests: every container implementation is observationally
//! equivalent to `std::collections::BTreeMap` under arbitrary single-threaded
//! operation sequences, and sorted containers scan in order.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use proptest::prelude::*;
use relc_containers::{Container, ContainerKind};

#[derive(Debug, Clone)]
enum Op {
    Write(i64, Option<i64>),
    Move(i64, i64, i64),
    Lookup(i64),
    Scan,
    Len,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, proptest::option::of(any::<i64>())).prop_map(|(k, v)| Op::Write(k, v)),
        (0i64..40, 0i64..40, any::<i64>()).prop_map(|(o, n, v)| Op::Move(o, n, v)),
        (0i64..40).prop_map(Op::Lookup),
        Just(Op::Scan),
        Just(Op::Len),
    ]
}

fn check_model(kind: ContainerKind, ops: &[Op]) {
    let container: Box<dyn Container<i64, i64>> = kind.instantiate();
    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Write(k, v) => {
                let expected = match v {
                    Some(v) => model.insert(*k, *v),
                    None => model.remove(k),
                };
                let got = container.write(k, *v);
                assert_eq!(got, expected, "{kind}: write({k}, {v:?})");
            }
            Op::Move(old_key, new_key, v) => {
                let expected = match model.remove(old_key) {
                    Some(old) => {
                        model.insert(*new_key, *v);
                        Some(old)
                    }
                    None => None,
                };
                let got = container.update_entry(old_key, new_key, *v);
                assert_eq!(
                    got, expected,
                    "{kind}: update_entry({old_key}, {new_key}, {v})"
                );
            }
            Op::Lookup(k) => {
                assert_eq!(
                    container.lookup(k),
                    model.get(k).copied(),
                    "{kind}: lookup({k})"
                );
            }
            Op::Scan => {
                let mut got: Vec<(i64, i64)> = Vec::new();
                container.scan(&mut |k, v| {
                    got.push((*k, *v));
                    ControlFlow::Continue(())
                });
                if container.props().sorted_scan {
                    let expected: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, expected, "{kind}: sorted scan");
                } else {
                    got.sort_unstable();
                    let expected: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, expected, "{kind}: unsorted scan (as set)");
                }
            }
            Op::Len => {
                assert_eq!(container.len(), model.len(), "{kind}: len");
                assert_eq!(container.is_empty(), model.is_empty(), "{kind}: is_empty");
            }
        }
    }
}

macro_rules! model_test {
    ($name:ident, $kind:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                check_model($kind, &ops);
            }
        }
    };
}

model_test!(hash_map_matches_model, ContainerKind::HashMap);
model_test!(tree_map_matches_model, ContainerKind::TreeMap);
model_test!(
    concurrent_hash_map_matches_model,
    ContainerKind::ConcurrentHashMap
);
model_test!(
    skip_list_matches_model,
    ContainerKind::ConcurrentSkipListMap
);
model_test!(cow_list_matches_model, ContainerKind::CopyOnWriteArrayList);
model_test!(splay_tree_matches_model, ContainerKind::SplayTreeMap);

// The singleton cell intentionally deviates from map semantics (capacity 1),
// so it gets a dedicated model: a BTreeMap truncated to the latest entry.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn singleton_holds_last_entry(ops in proptest::collection::vec(
        (0i64..4, proptest::option::of(any::<i64>())), 1..50))
    {
        let c: Box<dyn Container<i64, i64>> = ContainerKind::Singleton.instantiate();
        let mut model: Option<(i64, i64)> = None;
        for (k, v) in ops {
            match v {
                Some(v) => {
                    c.write(&k, Some(v));
                    model = Some((k, v));
                }
                None => {
                    c.write(&k, None);
                    if model.map(|(mk, _)| mk == k).unwrap_or(false) {
                        model = None;
                    }
                }
            }
            match model {
                Some((mk, mv)) => {
                    prop_assert_eq!(c.lookup(&mk), Some(mv));
                    prop_assert_eq!(c.len(), 1);
                }
                None => prop_assert_eq!(c.len(), 0),
            }
        }
    }
}

#[test]
fn update_entry_semantics_on_every_kind() {
    for kind in ContainerKind::ALL {
        let c: Box<dyn Container<i64, i64>> = kind.instantiate();
        // Miss: the container stays unchanged and the value is dropped.
        assert_eq!(c.update_entry(&1, &2, 99), None, "{kind}: miss");
        assert!(c.is_empty(), "{kind}: miss leaves it empty");
        // Hit with a key move.
        c.write(&1, Some(10));
        assert_eq!(c.update_entry(&1, &2, 20), Some(10), "{kind}: move");
        assert_eq!(c.lookup(&1), None, "{kind}: old key gone");
        assert_eq!(c.lookup(&2), Some(20), "{kind}: new key present");
        assert_eq!(c.len(), 1, "{kind}: a move preserves len");
        // Hit in place (old == new): the value is replaced.
        assert_eq!(c.update_entry(&2, &2, 30), Some(20), "{kind}: in place");
        assert_eq!(c.lookup(&2), Some(30), "{kind}: value rewritten");
        assert_eq!(c.len(), 1, "{kind}");
    }
}

#[test]
fn scan_break_is_honored_by_every_kind() {
    for kind in ContainerKind::ALL {
        let c: Box<dyn Container<i64, i64>> = kind.instantiate();
        for i in 0..20 {
            c.write(&i, Some(i));
        }
        let mut visits = 0;
        c.scan(&mut |_, _| {
            visits += 1;
            ControlFlow::Break(())
        });
        assert!(visits <= 1, "{kind}: break must stop the scan");
    }
}
