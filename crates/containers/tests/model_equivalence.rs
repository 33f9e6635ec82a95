//! Property tests: the container [`ContainerKind::instantiate`] builds for
//! every kind — a `StripedHashMap` for a hashed kind, a
//! `ConcurrentSkipListMap` for every other — is observationally equivalent
//! to `std::collections::BTreeMap` under arbitrary single-threaded
//! operation sequences, and sorted containers scan in order.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use proptest::prelude::*;
use relc_containers::{Container, ContainerKind};

#[derive(Debug, Clone)]
enum Op {
    Write(i64, Option<i64>),
    Lookup(i64),
    Scan,
    Len,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, proptest::option::of(any::<i64>())).prop_map(|(k, v)| Op::Write(k, v)),
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
                if kind.props().sorted_scan {
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
model_test!(singleton_matches_model, ContainerKind::Singleton);

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
