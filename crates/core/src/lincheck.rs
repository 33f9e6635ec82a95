//! A Wing–Gong style linearizability checker for concurrent-relation
//! histories.
//!
//! The paper requires that "the implementations of the relational operations
//! are linearizable" (§2). This module provides the test-side machinery: a
//! recorder for per-thread operation histories (invocation/response
//! timestamps plus observed results) and an exhaustive checker that searches
//! for a sequential order, consistent with real time, under which the §2
//! semantics explain every observed result.
//!
//! Complexity is exponential in the number of overlapping operations;
//! intended for small stress histories (a few dozen operations).

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use relc_spec::{ColumnSet, RangePattern, RelationSchema, Tuple};

/// One completed operation with its observed result.
#[derive(Debug, Clone)]
pub enum OpRecord {
    /// `insert r s t` returning whether the tuple was inserted.
    Insert {
        /// Key pattern `s`.
        s: Tuple,
        /// Payload `t`.
        t: Tuple,
        /// Observed result.
        result: bool,
    },
    /// `remove r s` returning the number of tuples removed.
    Remove {
        /// Key pattern `s`.
        s: Tuple,
        /// Observed result.
        result: usize,
    },
    /// `query r s C` returning the sorted projection.
    Query {
        /// Pattern `s`.
        s: Tuple,
        /// Projection columns `C`.
        cols: ColumnSet,
        /// Observed result (sorted, deduplicated).
        result: Vec<Tuple>,
    },
    /// `query_range r s ρ C` returning the range-ordered projection.
    Range {
        /// Pattern `s`.
        s: Tuple,
        /// The interval predicate over one column (plus optional limit).
        range: RangePattern,
        /// Projection columns `C`.
        cols: ColumnSet,
        /// Observed result (ordered by (range value, projection),
        /// deduplicated, capped at the range's limit).
        result: Vec<Tuple>,
    },
    /// `update r s t` returning the replaced tuple.
    Update {
        /// Key pattern `s`.
        s: Tuple,
        /// Assignment `t` (right-biased override).
        t: Tuple,
        /// Observed result: the replaced tuple, if one matched.
        result: Option<Tuple>,
    },
    /// A multi-operation transaction: the inner operations (with their
    /// observed results) take effect atomically, as one linearization
    /// point.
    Txn {
        /// The transaction's operations, in program order.
        ops: Vec<OpRecord>,
    },
    /// `insert_all r [(s, t)]`: the sequential put-if-absent fold over the
    /// rows, taking effect atomically as one linearization point.
    InsertAll {
        /// The batch rows, in order.
        rows: Vec<(Tuple, Tuple)>,
        /// Observed per-row results.
        results: Vec<bool>,
    },
    /// `remove_all r [s]`: the sequential removal fold over the keys,
    /// taking effect atomically as one linearization point.
    RemoveAll {
        /// The batch keys, in order.
        keys: Vec<Tuple>,
        /// Observed per-key outcomes (whether each key's tuple existed
        /// and was removed; duplicates of a removed key observe `false`).
        results: Vec<bool>,
    },
    /// A live migration ([`crate::ConcurrentRelation::migrate_to`] /
    /// [`crate::ShardedRelation::migrate_to`]): swaps the physical
    /// representation while the *abstract* relation is unchanged — the
    /// identity on the model state. Recording it in a concurrent history
    /// still constrains the search (the checker must find a total order
    /// where every read before and after the cutover is explained by the
    /// same evolving contents, i.e. the cutover neither lost, duplicated,
    /// nor invented tuples).
    Migrate,
}

/// A completed operation with real-time interval.
#[derive(Debug, Clone)]
pub struct HistoryEvent {
    /// Invocation timestamp (ns from the recorder's epoch).
    pub invoke_ns: u64,
    /// Response timestamp.
    pub respond_ns: u64,
    /// The operation and its result.
    pub op: OpRecord,
}

/// Thread-safe recorder of a concurrent history.
#[derive(Debug)]
pub struct HistoryRecorder {
    epoch: Instant,
    events: Mutex<Vec<HistoryEvent>>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(HistoryRecorder {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Times `f` and records its result as one event. The closure returns
    /// the operation record describing what happened.
    pub fn record<R>(&self, f: impl FnOnce() -> (R, OpRecord)) -> R {
        let invoke_ns = self.epoch.elapsed().as_nanos() as u64;
        let (r, op) = f();
        let respond_ns = self.epoch.elapsed().as_nanos() as u64;
        self.events.lock().expect("recorder").push(HistoryEvent {
            invoke_ns,
            respond_ns,
            op,
        });
        r
    }

    /// Extracts the recorded history.
    pub fn into_history(self: Arc<Self>) -> Vec<HistoryEvent> {
        Arc::try_unwrap(self)
            .expect("all recording threads joined")
            .events
            .into_inner()
            .expect("recorder")
    }
}

/// Applies `op` to the model state; returns `false` if the observed result
/// contradicts the §2 semantics.
fn apply(state: &mut BTreeSet<Tuple>, op: &OpRecord) -> bool {
    match op {
        OpRecord::Insert { s, t, result } => {
            let exists = state.iter().any(|u| u.extends(s));
            if exists {
                !*result
            } else {
                if !*result {
                    return false;
                }
                let x = s.union(t).expect("recorded inserts have disjoint domains");
                state.insert(x);
                true
            }
        }
        OpRecord::Remove { s, result } => {
            let before = state.len();
            state.retain(|u| !u.extends(s));
            before - state.len() == *result
        }
        OpRecord::Query { s, cols, result } => {
            let got: BTreeSet<Tuple> = state
                .iter()
                .filter(|u| u.extends(s))
                .map(|u| u.project(*cols))
                .collect();
            got.iter().cloned().collect::<Vec<_>>() == *result
        }
        OpRecord::Range {
            s,
            range,
            cols,
            result,
        } => range.select(state.iter(), s, *cols) == *result,
        OpRecord::Update { s, t, result } => match result {
            Some(old) => {
                if old.extends(s) && state.remove(old) {
                    state.insert(old.override_with(t));
                    true
                } else {
                    false
                }
            }
            None => !state.iter().any(|u| u.extends(s)),
        },
        // Representation change only: the abstract state is untouched, so
        // any placement in the order explains it.
        OpRecord::Migrate => true,
        OpRecord::Txn { ops } => {
            // All-or-nothing: the sub-operations must be explainable in
            // program order from this linearization point.
            let mut scratch = state.clone();
            if ops.iter().all(|op| apply(&mut scratch, op)) {
                *state = scratch;
                true
            } else {
                false
            }
        }
        OpRecord::InsertAll { rows, results } => {
            // The §2 semantics of a batch is the sequential fold; each
            // row's observed flag must match put-if-absent against the
            // state the earlier rows built.
            if rows.len() != results.len() {
                return false;
            }
            let mut scratch = state.clone();
            for ((s, t), &r) in rows.iter().zip(results) {
                let exists = scratch.iter().any(|u| u.extends(s));
                if exists == r {
                    return false;
                }
                if r {
                    let x = s.union(t).expect("recorded inserts have disjoint domains");
                    scratch.insert(x);
                }
            }
            *state = scratch;
            true
        }
        OpRecord::RemoveAll { keys, results } => {
            // The fold semantics per key: the observed flag must match
            // whether anything matched against the state the earlier keys
            // left behind.
            if keys.len() != results.len() {
                return false;
            }
            let mut scratch = state.clone();
            for (s, &r) in keys.iter().zip(results) {
                let before = scratch.len();
                scratch.retain(|u| !u.extends(s));
                if (before != scratch.len()) != r {
                    return false;
                }
            }
            *state = scratch;
            true
        }
    }
}

/// Checks whether `history` is linearizable with respect to the §2 relation
/// semantics, starting from an empty relation.
///
/// Uses Wing–Gong search: repeatedly pick a minimal operation (one invoked
/// before every pending operation's response), apply it to the model, and
/// backtrack on contradiction, memoizing failed (chosen-set, state) pairs.
pub fn check_linearizable(_schema: &Arc<RelationSchema>, history: &[HistoryEvent]) -> bool {
    assert!(
        history.len() <= 63,
        "checker is exponential; keep histories small"
    );
    let n = history.len();
    if n == 0 {
        return true;
    }
    let full: u64 = (1u64 << n) - 1;
    let mut failed: HashSet<(u64, u64)> = HashSet::new();

    fn state_hash(state: &BTreeSet<Tuple>) -> u64 {
        // Order-independent-ish cheap hash over the sorted contents.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in state {
            h = h.rotate_left(7) ^ t.stable_hash_of(t.dom());
        }
        h
    }

    fn search(
        history: &[HistoryEvent],
        done: u64,
        full: u64,
        state: &mut BTreeSet<Tuple>,
        failed: &mut HashSet<(u64, u64)>,
    ) -> bool {
        if done == full {
            return true;
        }
        let key = (done, state_hash(state));
        if failed.contains(&key) {
            return false;
        }
        // Minimal response time among pending ops.
        let min_respond = history
            .iter()
            .enumerate()
            .filter(|(i, _)| done & (1 << i) == 0)
            .map(|(_, e)| e.respond_ns)
            .min()
            .expect("pending ops exist");
        for (i, e) in history.iter().enumerate() {
            if done & (1 << i) != 0 {
                continue;
            }
            // Real-time constraint: `e` may linearize next only if no
            // pending op responded before `e` was invoked.
            if e.invoke_ns > min_respond {
                continue;
            }
            let saved = state.clone();
            if apply(state, &e.op) && search(history, done | (1 << i), full, state, failed) {
                return true;
            }
            *state = saved;
        }
        failed.insert(key);
        false
    }

    let mut state = BTreeSet::new();
    search(history, 0, full, &mut state, &mut failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relc_spec::{library, Value};

    fn schema() -> Arc<RelationSchema> {
        library::graph_schema()
    }

    fn edge(s: i64, d: i64) -> Tuple {
        schema()
            .tuple(&[("src", Value::from(s)), ("dst", Value::from(d))])
            .unwrap()
    }

    fn weight(w: i64) -> Tuple {
        schema().tuple(&[("weight", Value::from(w))]).unwrap()
    }

    fn ev(invoke: u64, respond: u64, op: OpRecord) -> HistoryEvent {
        HistoryEvent {
            invoke_ns: invoke,
            respond_ns: respond,
            op,
        }
    }

    #[test]
    fn empty_and_sequential_histories() {
        assert!(check_linearizable(&schema(), &[]));
        let h = vec![
            ev(
                0,
                1,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(9),
                    result: true,
                },
            ),
            ev(
                2,
                3,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(7),
                    result: false,
                },
            ),
            ev(
                4,
                5,
                OpRecord::Remove {
                    s: edge(1, 2),
                    result: 1,
                },
            ),
            ev(
                6,
                7,
                OpRecord::Remove {
                    s: edge(1, 2),
                    result: 0,
                },
            ),
        ];
        assert!(check_linearizable(&schema(), &h));
    }

    #[test]
    fn detects_non_linearizable_sequential_result() {
        // Remove reports success on an empty relation: impossible.
        let h = vec![ev(
            0,
            1,
            OpRecord::Remove {
                s: edge(1, 2),
                result: 1,
            },
        )];
        assert!(!check_linearizable(&schema(), &h));
    }

    #[test]
    fn overlapping_inserts_one_winner() {
        // Two overlapping put-if-absent inserts on the same key: exactly one
        // may win, regardless of real-time order.
        let h = vec![
            ev(
                0,
                10,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(1),
                    result: true,
                },
            ),
            ev(
                1,
                9,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(2),
                    result: false,
                },
            ),
        ];
        assert!(check_linearizable(&schema(), &h));
        let h2 = vec![
            ev(
                0,
                10,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(1),
                    result: true,
                },
            ),
            ev(
                1,
                9,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(2),
                    result: true,
                },
            ),
        ];
        assert!(
            !check_linearizable(&schema(), &h2),
            "two winners is a violation"
        );
    }

    #[test]
    fn real_time_order_is_respected() {
        // A query that completes *before* an insert begins must not see it.
        let cols = schema().column_set(&["weight"]).unwrap();
        let h = vec![
            ev(
                0,
                1,
                OpRecord::Query {
                    s: edge(1, 2),
                    cols,
                    result: vec![weight(5)],
                },
            ),
            ev(
                2,
                3,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(5),
                    result: true,
                },
            ),
        ];
        assert!(
            !check_linearizable(&schema(), &h),
            "query preceding the insert in real time cannot observe it"
        );
        // If they overlap, it is fine.
        let h2 = vec![
            ev(
                0,
                10,
                OpRecord::Query {
                    s: edge(1, 2),
                    cols,
                    result: vec![weight(5)],
                },
            ),
            ev(
                1,
                9,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(5),
                    result: true,
                },
            ),
        ];
        assert!(check_linearizable(&schema(), &h2));
    }

    #[test]
    fn update_semantics_are_checked() {
        // Sequential: insert then update; the update must report the old
        // tuple exactly.
        let full = edge(1, 2).union(&weight(9)).unwrap();
        let h = vec![
            ev(
                0,
                1,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(9),
                    result: true,
                },
            ),
            ev(
                2,
                3,
                OpRecord::Update {
                    s: edge(1, 2),
                    t: weight(5),
                    result: Some(full.clone()),
                },
            ),
            ev(
                4,
                5,
                OpRecord::Remove {
                    s: edge(1, 2),
                    result: 1,
                },
            ),
        ];
        assert!(check_linearizable(&schema(), &h));
        // Claiming the wrong old value is a violation.
        let wrong = edge(1, 2).union(&weight(7)).unwrap();
        let h2 = vec![
            ev(
                0,
                1,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(9),
                    result: true,
                },
            ),
            ev(
                2,
                3,
                OpRecord::Update {
                    s: edge(1, 2),
                    t: weight(5),
                    result: Some(wrong),
                },
            ),
        ];
        assert!(!check_linearizable(&schema(), &h2));
        // Updating a missing tuple must observe None.
        let h3 = vec![ev(
            0,
            1,
            OpRecord::Update {
                s: edge(1, 2),
                t: weight(5),
                result: Some(full),
            },
        )];
        assert!(!check_linearizable(&schema(), &h3));
        let h4 = vec![ev(
            0,
            1,
            OpRecord::Update {
                s: edge(1, 2),
                t: weight(5),
                result: None,
            },
        )];
        assert!(check_linearizable(&schema(), &h4));
    }

    #[test]
    fn transactions_are_single_linearization_points() {
        let full = edge(1, 2).union(&weight(9)).unwrap();
        // A transfer transaction overlapping a query: the query may see
        // the state before or after the whole transaction, never between
        // its operations.
        let txn = OpRecord::Txn {
            ops: vec![
                OpRecord::Remove {
                    s: edge(1, 2),
                    result: 1,
                },
                OpRecord::Insert {
                    s: edge(3, 4),
                    t: weight(9),
                    result: true,
                },
            ],
        };
        let cols = schema().column_set(&["weight"]).unwrap();
        let h = vec![
            ev(
                0,
                1,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(9),
                    result: true,
                },
            ),
            ev(2, 10, txn.clone()),
            // Overlapping query sees the pre-state on (1,2)...
            ev(
                3,
                9,
                OpRecord::Query {
                    s: edge(1, 2),
                    cols,
                    result: vec![weight(9)],
                },
            ),
        ];
        assert!(check_linearizable(&schema(), &h));
        // ...but the *intermediate* state — the relation empty between the
        // remove and the insert — must never be observable: a full query
        // always sees exactly one tuple.
        let all = schema().columns();
        let h2 = vec![
            ev(
                0,
                1,
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(9),
                    result: true,
                },
            ),
            ev(2, 10, txn),
            ev(
                3,
                9,
                OpRecord::Query {
                    s: Tuple::empty(),
                    cols: all,
                    result: vec![],
                },
            ),
        ];
        assert!(!check_linearizable(&schema(), &h2));
        // Seeing the pre- or post-state of the transaction is fine.
        let post = edge(3, 4).union(&weight(9)).unwrap();
        for observed in [full, post] {
            let h3 = vec![
                ev(
                    0,
                    1,
                    OpRecord::Insert {
                        s: edge(1, 2),
                        t: weight(9),
                        result: true,
                    },
                ),
                ev(
                    2,
                    10,
                    OpRecord::Txn {
                        ops: vec![
                            OpRecord::Remove {
                                s: edge(1, 2),
                                result: 1,
                            },
                            OpRecord::Insert {
                                s: edge(3, 4),
                                t: weight(9),
                                result: true,
                            },
                        ],
                    },
                ),
                ev(
                    3,
                    9,
                    OpRecord::Query {
                        s: Tuple::empty(),
                        cols: all,
                        result: vec![observed],
                    },
                ),
            ];
            assert!(check_linearizable(&schema(), &h3));
        }
    }

    #[test]
    fn batch_records_are_single_linearization_points() {
        let cols = schema().columns();
        // An insert_all of two rows overlapping a full query: the query may
        // see zero or two of the batch's tuples, never exactly one.
        let batch = OpRecord::InsertAll {
            rows: vec![(edge(1, 2), weight(1)), (edge(3, 4), weight(2))],
            results: vec![true, true],
        };
        let one = edge(1, 2).union(&weight(1)).unwrap();
        let both = vec![
            edge(1, 2).union(&weight(1)).unwrap(),
            edge(3, 4).union(&weight(2)).unwrap(),
        ];
        for (observed, ok) in [
            (vec![], true),
            (both.clone(), true),
            (vec![one.clone()], false),
        ] {
            let h = vec![
                ev(0, 10, batch.clone()),
                ev(
                    1,
                    9,
                    OpRecord::Query {
                        s: Tuple::empty(),
                        cols,
                        result: observed,
                    },
                ),
            ];
            assert_eq!(check_linearizable(&schema(), &h), ok);
        }
        // A duplicate pattern inside one batch must lose to the first row.
        let dup_ok = OpRecord::InsertAll {
            rows: vec![(edge(1, 2), weight(1)), (edge(1, 2), weight(9))],
            results: vec![true, false],
        };
        assert!(check_linearizable(&schema(), &[ev(0, 1, dup_ok)]));
        let dup_bad = OpRecord::InsertAll {
            rows: vec![(edge(1, 2), weight(1)), (edge(1, 2), weight(9))],
            results: vec![true, true],
        };
        assert!(!check_linearizable(&schema(), &[ev(0, 1, dup_bad)]));
        // remove_all reports the sequential fold per key (duplicates of a
        // removed key observe false).
        let h = vec![
            ev(0, 10, batch),
            ev(
                11,
                12,
                OpRecord::RemoveAll {
                    keys: vec![edge(1, 2), edge(1, 2), edge(3, 4), edge(5, 6)],
                    results: vec![true, false, true, false],
                },
            ),
        ];
        assert!(check_linearizable(&schema(), &h));
        let h_bad = vec![ev(
            0,
            1,
            OpRecord::RemoveAll {
                keys: vec![edge(1, 2)],
                results: vec![true],
            },
        )];
        assert!(
            !check_linearizable(&schema(), &h_bad),
            "removal from an empty relation cannot succeed"
        );
    }

    #[test]
    fn recorder_round_trip() {
        let rec = HistoryRecorder::new();
        rec.record(|| {
            (
                (),
                OpRecord::Insert {
                    s: edge(1, 2),
                    t: weight(1),
                    result: true,
                },
            )
        });
        rec.record(|| {
            (
                (),
                OpRecord::Remove {
                    s: edge(1, 2),
                    result: 1,
                },
            )
        });
        let hist = rec.into_history();
        assert_eq!(hist.len(), 2);
        assert!(hist[0].respond_ns <= hist[1].invoke_ns);
        assert!(check_linearizable(&schema(), &hist));
    }
}
