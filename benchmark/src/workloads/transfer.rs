//! `txn_transfer`: accounts on `kv(ConcurrentHashMap)` +
//! `striped_root(64)`, Zipf(0.9) account choice. 85% four-op transfer
//! `transaction`s (query, query, update, update) and 15% `read_transaction`
//! audits of 8 accounts on one cut. Lock acquisition order, upgrades,
//! restarts, the undo log and the commit clock do the work here; the
//! containers do little.
//!
//! Money only moves inside a group of 8 accounts, so an audit of one group
//! has an exact expected sum: it is the inline check that a snapshot is
//! one cut.

use relc::decomp::library::kv;
use relc::placement::LockPlacement;
use relc::ConcurrentRelation;
use relc_containers::ContainerKind;
use relc_spec::{ColumnId, ColumnSet, Tuple, Value};

use super::{int, quiescent_rows_of, stats_of};
use crate::stream::{Op, Rng, Zipf, STREAM_LEN};
use crate::trace::Tracer;
use crate::workload::{Counters, Outcome, PostCheck, ProbeSpec, Scale, Target, Workload};

const TRANSFER: u8 = 0;
const AUDIT: u8 = 1;

const GROUP: u32 = 8;
const INITIAL_BALANCE: i64 = 1_000_000;

pub struct TxnTransfer {
    accounts: u32,
    zipf: Zipf,
}

impl TxnTransfer {
    pub fn new(scale: Scale) -> Self {
        let accounts = scale.rows(16_384);
        TxnTransfer {
            accounts,
            zipf: Zipf::new(accounts, 0.9),
        }
    }

    /// A Zipf-ranked account. Ranks are scattered over the id space (an
    /// odd multiplier is a bijection modulo a power of two), or the
    /// hottest accounts would all share group 0.
    fn account(&self, rng: &mut Rng) -> u32 {
        debug_assert!(self.accounts.is_power_of_two());
        self.zipf.sample(rng).wrapping_mul(2_654_435_761) % self.accounts
    }
}

pub struct TransferState {
    rel: ConcurrentRelation,
    key: ColumnId,
    value: ColumnId,
    value_cols: ColumnSet,
}

impl TransferState {
    fn key(&self, account: u32) -> Tuple {
        Tuple::from_pairs([(self.key, Value::from(account))])
    }

    fn value(&self, balance: i64) -> Tuple {
        Tuple::from_pairs([(self.value, Value::from(balance))])
    }

    fn balance(&self, rows: &[Tuple]) -> Option<i64> {
        match rows {
            [row] => int(row, self.value),
            _ => None,
        }
    }
}

impl Target for TxnTransfer {
    type State = TransferState;

    fn setup(&self, _tag: &str) -> TransferState {
        let d = kv(ContainerKind::ConcurrentHashMap);
        let p = LockPlacement::striped_root(&d, 64).expect("striped_root placement");
        let rel = ConcurrentRelation::new(d, p).expect("kv/striped64 relation");
        let schema = rel.schema().clone();
        let st = TransferState {
            key: schema.column("key").expect("kv schema column"),
            value: schema.column("value").expect("kv schema column"),
            value_cols: schema.column_set(&["value"]).expect("kv columns"),
            rel,
        };
        for a in 0..self.accounts {
            let fresh = st.rel.insert(&st.key(a), &st.value(INITIAL_BALANCE));
            assert_eq!(fresh, Ok(true), "preload account {a}");
        }
        st
    }

    fn exec<T: Tracer>(&self, st: &TransferState, op: Op, tr: &mut T) -> Outcome {
        match op.kind {
            TRANSFER => {
                tr.enter("relspec.args");
                let (from, to) = (st.key(op.k1), st.key(op.k2));
                let amount = op.w as i64;
                tr.next("relation.transaction");
                let moved = st.rel.transaction(|tx| {
                    // Each span closes before `?` can leave the closure.
                    tr.enter("txn.query");
                    let a = tx.query(&from, st.value_cols);
                    tr.exit();
                    let a = a?;
                    tr.enter("txn.query");
                    let b = tx.query(&to, st.value_cols);
                    tr.exit();
                    let (Some(a), Some(b)) = (st.balance(&a), st.balance(&b?)) else {
                        return Ok(false);
                    };
                    tr.enter("txn.update");
                    let ua = tx.update(&from, &st.value(a - amount));
                    tr.exit();
                    ua?;
                    tr.enter("txn.update");
                    let ub = tx.update(&to, &st.value(b + amount));
                    tr.exit();
                    Ok(ub?.is_some())
                });
                tr.exit();
                Outcome::write(moved == Ok(true))
            }
            AUDIT => {
                tr.enter("relspec.args");
                let first = op.k1 / GROUP * GROUP;
                let keys: Vec<Tuple> = (first..first + GROUP).map(|a| st.key(a)).collect();
                tr.next("relation.read_transaction");
                let sum = st.rel.read_transaction(|snap| {
                    let mut sum = 0;
                    for k in &keys {
                        tr.enter("snapshot.query");
                        let rows = snap.query(k, st.value_cols);
                        tr.exit();
                        sum += st.balance(&rows.ok()?)?;
                    }
                    Some(sum)
                });
                tr.exit();
                Outcome::read(sum == Some(GROUP as i64 * INITIAL_BALANCE))
            }
            k => unreachable!("transfer op kind {k}"),
        }
    }
}

impl Workload for TxnTransfer {
    fn name(&self) -> &'static str {
        "txn_transfer"
    }

    fn gen_stream(&self, rng: &mut Rng) -> Vec<Op> {
        (0..STREAM_LEN)
            .map(|_| {
                let kind = if rng.below(100) < 85 { TRANSFER } else { AUDIT };
                let a = self.account(rng);
                // Another member of the same group.
                let b = a / GROUP * GROUP + (a % GROUP + 1 + rng.below(GROUP - 1)) % GROUP;
                Op {
                    kind,
                    k1: a,
                    k2: b,
                    w: 1 + rng.below(100),
                }
            })
            .collect()
    }

    fn counters(&self, st: &TransferState) -> Counters {
        stats_of(&st.rel)
    }

    fn probe_spec<'a>(&'a self, st: &'a TransferState) -> ProbeSpec<'a> {
        ProbeSpec {
            rel: &st.rel,
            sharded: None,
            top_kind: ContainerKind::ConcurrentHashMap,
            top_entries: self.accounts,
            top_col: st.key,
            key: Box::new(|i| st.key(i)),
            keys: self.accounts,
            payload_cols: st.value_cols,
            payload: Box::new(|w| st.value(w as i64)),
        }
    }

    fn post_check(&self, st: TransferState) -> Result<PostCheck, String> {
        let rows = quiescent_rows_of(&st.rel)?;
        if rows.len() != self.accounts as usize {
            return Err(format!("{} rows, {} accounts", rows.len(), self.accounts));
        }
        let total: i64 = rows.iter().filter_map(|r| int(r, st.value)).sum();
        let expected = self.accounts as i64 * INITIAL_BALANCE;
        if total != expected {
            return Err(format!("total balance {total}, expected {expected}"));
        }
        Ok(PostCheck {
            rows: rows.len(),
            ..PostCheck::default()
        })
    }
}
