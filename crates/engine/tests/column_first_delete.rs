//! Differential tests of column-first DELETE / UPDATE.
//!
//! `Table::delete_where` with prune ranges chooses its victims by zone map
//! and a typed kernel over one column before any row is built. These
//! properties check it against a naive full pass written here: a model
//! holding the live rows in table order. Tables use chunk capacities of
//! 2–8, so every case mixes sealed chunks, tombstones, an unsealed tail,
//! NULLs and post-`compact()` layouts. Each comparison covers the returned
//! rows and their order, the delta-log records and their order, the live
//! rows, `row_count()` and `dead_rows()`.
//!
//! Rerun with more cases: `PROPTEST_CASES=1024 cargo test -p imp-engine
//! --test column_first_delete`.

use imp_engine::update::StatementResult;
use imp_engine::Database;
use imp_storage::{DataType, DeltaOp, DeltaRecord, Field, Row, Schema, Table, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Columns: `a` Int, `f` Float, `s` Str, `b` Int. `a`, `f` and `s` are the
/// range columns; `b` feeds the extra non-range conjunct.
fn schema() -> Schema {
    Schema::new(vec![
        Field::nullable("a", DataType::Int),
        Field::nullable("f", DataType::Float),
        Field::nullable("s", DataType::Str),
        Field::nullable("b", DataType::Int),
    ])
}

const COLUMNS: [&str; 4] = ["a", "f", "s", "b"];
const WORDS: [&str; 6] = ["", "a", "ab", "b", "ba", "c"];

fn maybe_null(v: impl Strategy<Value = Value> + 'static) -> BoxedStrategy<Value> {
    prop_oneof![1 => Just(Value::Null), 4 => v].boxed()
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        maybe_null((-4i64..12).prop_map(Value::Int)),
        maybe_null(
            prop::sample::select(vec![-1.5, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 7.25])
                .prop_map(Value::Float),
        ),
        maybe_null(prop::sample::select(WORDS.to_vec()).prop_map(Value::str)),
        maybe_null((-3i64..9).prop_map(Value::Int)),
    )
        .prop_map(|(a, f, s, b)| Row::new(vec![a, f, s, b]))
}

/// A literal for a bound on `col`. Int and Float columns draw both Int and
/// Float literals, so Int↔Float numeric comparison is exercised.
fn arb_literal(col: usize) -> BoxedStrategy<Value> {
    match col {
        2 => prop::sample::select(WORDS.to_vec())
            .prop_map(Value::str)
            .boxed(),
        _ => prop_oneof![
            (-2i64..12).prop_map(Value::Int),
            prop::sample::select(vec![0.0, 0.5, 1.0, 2.5, 3.0, 6.5, 9.0]).prop_map(Value::Float),
        ]
        .boxed(),
    }
}

/// One comparison bound: the literal and whether it is strict.
type Bound = (Value, bool);

/// A range with at least one bound.
#[derive(Debug, Clone)]
struct RangeSpec {
    lo: Option<Bound>,
    hi: Option<Bound>,
}

fn arb_range(col: usize) -> impl Strategy<Value = RangeSpec> {
    (
        0u8..3,
        arb_literal(col),
        any::<bool>(),
        arb_literal(col),
        any::<bool>(),
    )
        .prop_map(|(sides, lo, lo_strict, hi, hi_strict)| RangeSpec {
            lo: (sides != 1).then_some((lo, lo_strict)),
            hi: (sides != 0).then_some((hi, hi_strict)),
        })
}

/// `(r1) OR (r2) …` on one column, optionally AND an extra non-range
/// conjunct `b % 3 = k` placed before or after the ranges.
#[derive(Debug, Clone)]
struct PredSpec {
    column: usize,
    ranges: Vec<RangeSpec>,
    extra: Option<(i64, bool)>,
}

fn arb_pred() -> impl Strategy<Value = PredSpec> {
    let on_column = |column: usize| {
        (
            prop::collection::vec(arb_range(column), 1..4),
            prop_oneof![Just(None), (0i64..3, any::<bool>()).prop_map(Some)],
        )
            .prop_map(move |(ranges, extra)| PredSpec {
                column,
                ranges,
                extra,
            })
    };
    prop_oneof![on_column(0), on_column(1), on_column(2)]
}

impl PredSpec {
    /// The naive predicate: SQL comparison semantics, NULL never matches.
    fn matches(&self, row: &Row) -> bool {
        let v = &row[self.column];
        let in_range = !v.is_null()
            && self.ranges.iter().any(|r| {
                let lo_ok = r.lo.as_ref().is_none_or(|(lo, strict)| {
                    let c = v.cmp(lo);
                    c == Ordering::Greater || (!strict && c == Ordering::Equal)
                });
                let hi_ok = r.hi.as_ref().is_none_or(|(hi, strict)| {
                    let c = v.cmp(hi);
                    c == Ordering::Less || (!strict && c == Ordering::Equal)
                });
                lo_ok && hi_ok
            });
        let extra_ok = match self.extra {
            None => true,
            Some((k, _)) => row[3].as_i64().is_some_and(|b| b % 3 == k),
        };
        in_range && extra_ok
    }

    /// The inclusive prune ranges an extractor would derive: strict bounds
    /// widen to inclusive ones.
    fn prune_ranges(&self) -> Vec<(Option<Value>, Option<Value>)> {
        self.ranges
            .iter()
            .map(|r| {
                (
                    r.lo.as_ref().map(|(v, _)| v.clone()),
                    r.hi.as_ref().map(|(v, _)| v.clone()),
                )
            })
            .collect()
    }

    fn sql(&self) -> String {
        let col = COLUMNS[self.column];
        let lit = |v: &Value| match v {
            Value::Str(s) => format!("'{s}'"),
            other => other.to_string(),
        };
        let range = |r: &RangeSpec| {
            let mut parts = Vec::new();
            if let Some((v, strict)) = &r.lo {
                parts.push(format!(
                    "{col} {} {}",
                    if *strict { ">" } else { ">=" },
                    lit(v)
                ));
            }
            if let Some((v, strict)) = &r.hi {
                parts.push(format!(
                    "{col} {} {}",
                    if *strict { "<" } else { "<=" },
                    lit(v)
                ));
            }
            parts.join(" AND ")
        };
        let ranges = if self.ranges.len() == 1 {
            range(&self.ranges[0])
        } else {
            let branches: Vec<String> = self
                .ranges
                .iter()
                .map(|r| format!("({})", range(r)))
                .collect();
            format!("({})", branches.join(" OR "))
        };
        match self.extra {
            None => ranges,
            Some((k, true)) => format!("b % 3 = {k} AND {ranges}"),
            Some((k, false)) => format!("{ranges} AND b % 3 = {k}"),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Row>),
    Delete(PredSpec),
    Update(PredSpec),
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(arb_row(), 1..6).prop_map(Op::Insert),
        4 => arb_pred().prop_map(Op::Delete),
        2 => arb_pred().prop_map(Op::Update),
        1 => Just(Op::Compact),
    ]
}

/// The naive table: live rows in table order plus the tombstone count.
struct Model {
    live: Vec<Row>,
    dead: usize,
}

impl Model {
    fn delete(&mut self, pred: &PredSpec) -> Vec<Row> {
        let (gone, kept) = std::mem::take(&mut self.live)
            .into_iter()
            .partition(|r| pred.matches(r));
        self.live = kept;
        self.dead += gone.len();
        gone
    }
}

fn records(op: DeltaOp, version: u64, rows: &[Row]) -> Vec<(u64, DeltaOp, Row, u64)> {
    rows.iter().map(|r| (version, op, r.clone(), 1)).collect()
}

fn flat(log: &[DeltaRecord]) -> Vec<(u64, DeltaOp, Row, u64)> {
    log.iter()
        .map(|r| (r.version, r.op, r.row.clone(), r.mult))
        .collect()
}

fn bumped(row: &Row) -> Row {
    let mut vals = row.values().to_vec();
    vals[3] = match vals[3] {
        Value::Int(b) => Value::Int(b + 1),
        ref other => other.clone(),
    };
    Row::new(vals)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `Table::delete_where` with prune ranges equals the naive full pass.
    #[test]
    fn table_delete_where_matches_full_pass(
        capacity in 2usize..9,
        load in prop::collection::vec(arb_row(), 0..40),
        ops in prop::collection::vec(arb_op(), 1..12),
    ) {
        let mut t = Table::with_chunk_capacity("t", schema(), capacity);
        t.bulk_load(load.clone()).unwrap();
        let mut model = Model { live: load, dead: 0 };
        for (step, op) in ops.iter().enumerate() {
            let version = step as u64 + 1;
            match op {
                Op::Insert(rows) => {
                    for r in rows {
                        t.insert(r.clone(), version).unwrap();
                    }
                    model.live.extend(rows.iter().cloned());
                }
                Op::Delete(pred) | Op::Update(pred) => {
                    let ranges = pred.prune_ranges();
                    let got = t.delete_where(version, Some((pred.column, &ranges)), |r| pred.matches(r));
                    let expected = model.delete(pred);
                    prop_assert_eq!(&got, &expected, "step {}: {:?}", step, pred);
                    prop_assert_eq!(
                        flat(t.delta_log().since(version - 1)),
                        records(DeltaOp::Delete, version, &expected)
                    );
                }
                Op::Compact => {
                    t.compact();
                    model.dead = 0;
                }
            }
            prop_assert_eq!(t.rows(), model.live.clone(), "step {}", step);
            prop_assert_eq!(t.row_count(), model.live.len());
            prop_assert_eq!(t.dead_rows(), model.dead);
        }
    }

    /// SQL `DELETE` and `UPDATE … SET b = b + 1` equal the naive full pass:
    /// an UPDATE logs the deleted rows, then their re-inserts, all at the
    /// statement's version.
    #[test]
    fn sql_delete_and_update_match_full_pass(
        capacity in 2usize..9,
        load in prop::collection::vec(arb_row(), 0..40),
        ops in prop::collection::vec(arb_op(), 1..12),
    ) {
        let mut table = Table::with_chunk_capacity("t", schema(), capacity);
        table.bulk_load(load.clone()).unwrap();
        let mut db = Database::new();
        db.register_table(table).unwrap();
        let mut model = Model { live: load, dead: 0 };
        for (step, op) in ops.iter().enumerate() {
            let v0 = db.version();
            let expected_log = match op {
                Op::Insert(rows) => {
                    let t = db.table_mut("t").unwrap();
                    for r in rows {
                        t.insert(r.clone(), v0 + 1).unwrap();
                    }
                    db.next_version();
                    model.live.extend(rows.iter().cloned());
                    records(DeltaOp::Insert, v0 + 1, rows)
                }
                Op::Delete(pred) => {
                    let sql = format!("DELETE FROM t WHERE {}", pred.sql());
                    let res = db.execute_sql(&sql);
                    let Ok(StatementResult::Affected { count, version, .. }) = res else {
                        return Err(TestCaseError::fail(format!("{sql}: {res:?}")));
                    };
                    let gone = model.delete(pred);
                    prop_assert_eq!(count, gone.len() as u64, "{}", sql);
                    records(DeltaOp::Delete, version, &gone)
                }
                Op::Update(pred) => {
                    let sql = format!("UPDATE t SET b = b + 1 WHERE {}", pred.sql());
                    let res = db.execute_sql(&sql);
                    let Ok(StatementResult::Affected { count, version, .. }) = res else {
                        return Err(TestCaseError::fail(format!("{sql}: {res:?}")));
                    };
                    let gone = model.delete(pred);
                    let new: Vec<Row> = gone.iter().map(bumped).collect();
                    model.live.extend(new.iter().cloned());
                    prop_assert_eq!(count, 2 * gone.len() as u64, "{}", sql);
                    let mut log = records(DeltaOp::Delete, version, &gone);
                    log.extend(records(DeltaOp::Insert, version, &new));
                    log
                }
                Op::Compact => {
                    db.table_mut("t").unwrap().compact();
                    model.dead = 0;
                    Vec::new()
                }
            };
            prop_assert_eq!(flat(db.delta_since("t", v0).unwrap()), expected_log, "step {}: {:?}", step, op);
            let t = db.table("t").unwrap();
            prop_assert_eq!(t.rows(), model.live.clone(), "step {}", step);
            prop_assert_eq!(t.row_count(), model.live.len());
            prop_assert_eq!(t.dead_rows(), model.dead);
        }
    }
}
