//! Update execution: INSERT / DELETE / UPDATE / CREATE TABLE.
//!
//! Every update statement commits under a fresh snapshot version; the
//! delta model of paper §4.2 treats an UPDATE as a delete of the old tuple
//! followed by an insert of the new one, which is exactly how it is logged
//! here.

use crate::database::{Database, QueryResult};
use crate::error::EngineError;
use crate::eval::extract_prune_ranges;
use crate::Result;
use imp_sql::{Catalog, Expr, Resolver, Statement};
use imp_storage::{Field, Row, Schema, Table, Value};

/// Outcome of executing a statement.
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// SELECT output.
    Rows(QueryResult),
    /// EXPLAIN output: the rendered logical plan.
    Explained(String),
    /// Update outcome: affected row count and the snapshot version the
    /// change committed at.
    Affected {
        /// Table changed.
        table: String,
        /// Rows inserted + deleted (an UPDATE counts each row twice:
        /// one delete + one insert in the delta model).
        count: u64,
        /// Commit version.
        version: u64,
    },
    /// DDL succeeded.
    Created,
}

/// Execute `stmt` against `db`.
pub fn apply_statement(db: &mut Database, stmt: &Statement) -> Result<StatementResult> {
    match stmt {
        Statement::Select(s) => {
            let plan = Resolver::new(db).resolve_select(s)?;
            Ok(StatementResult::Rows(db.execute_plan(&plan)?))
        }
        Statement::Explain(s) => {
            let plan = Resolver::new(db).resolve_select(s)?;
            Ok(StatementResult::Explained(plan.explain()))
        }
        Statement::CreateTable { name, columns } => {
            let fields = columns
                .iter()
                .map(|(n, t)| Field::nullable(n.clone(), *t))
                .collect();
            db.create_table(name, Schema::new(fields))?;
            Ok(StatementResult::Created)
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => insert(db, table, columns.as_deref(), rows),
        Statement::Delete { table, filter } => delete(db, table, filter.as_ref()),
        Statement::Update {
            table,
            sets,
            filter,
        } => update(db, table, sets, filter.as_ref()),
    }
}

fn insert(
    db: &mut Database,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<imp_sql::AstExpr>],
) -> Result<StatementResult> {
    let schema = db
        .table_schema(table)
        .ok_or_else(|| EngineError::Sql(imp_sql::SqlError::UnknownTable(table.into())))?;
    // Map provided columns to schema positions.
    let positions: Vec<usize> = match columns {
        None => (0..schema.arity()).collect(),
        Some(cols) => cols
            .iter()
            .map(|c| {
                schema
                    .resolve(None, c)
                    .map_err(|_| EngineError::Sql(imp_sql::SqlError::UnknownColumn(c.clone())))
            })
            .collect::<Result<_>>()?,
    };
    let resolver = Resolver::new(db);
    let empty = Row::new(vec![]);
    let mut materialized = Vec::with_capacity(rows.len());
    for row_exprs in rows {
        if row_exprs.len() != positions.len() {
            return Err(EngineError::Execution(format!(
                "INSERT expects {} values, found {}",
                positions.len(),
                row_exprs.len()
            )));
        }
        let mut vals = vec![Value::Null; schema.arity()];
        for (pos, e) in positions.iter().zip(row_exprs) {
            // VALUES expressions are constant: resolve over the empty schema.
            let resolved = resolver.resolve_expr(e, &Schema::empty())?;
            vals[*pos] = resolved.eval(&empty)?;
        }
        materialized.push(Row::new(vals));
    }
    let version = db.next_version();
    let count = materialized.len() as u64;
    let t = db.table_mut(table)?;
    for row in materialized {
        t.insert(row, version)?;
    }
    Ok(StatementResult::Affected {
        table: table.to_ascii_lowercase(),
        count,
        version,
    })
}

/// Delete the rows of `t` that `predicate` accepts (all rows when `None`)
/// at `version`, returning them in table order.
///
/// Victims are chosen column-first: when [`extract_prune_ranges`] finds
/// ranges on one column, [`Table::delete_where`] skips chunks by zone map
/// and runs a typed range kernel over that column, and only the candidate
/// rows it returns are evaluated against the full predicate. As with the
/// filtered SELECT, a row excluded by the range conjuncts is never
/// evaluated by the other conjuncts, so an evaluation error those would
/// raise on it does not surface.
fn delete_matching(t: &mut Table, version: u64, predicate: Option<&Expr>) -> Result<Vec<Row>> {
    let Some(p) = predicate else {
        return Ok(t.delete_where(version, None, |_| true));
    };
    let prune = extract_prune_ranges(p);
    let mut eval_err: Option<EngineError> = None;
    let deleted = t.delete_where(
        version,
        prune.as_ref().map(|r| (r.column, r.ranges.as_slice())),
        |row| match p.eval_predicate(row) {
            Ok(b) => b,
            Err(e) => {
                eval_err.get_or_insert(EngineError::Sql(e));
                false
            }
        },
    );
    match eval_err {
        Some(e) => Err(e),
        None => Ok(deleted),
    }
}

/// `DELETE FROM table [WHERE filter]`, with victims chosen column-first by
/// [`delete_matching`]. As with the filtered SELECT, rows excluded by the
/// filter's range conjuncts are never evaluated by its other conjuncts.
fn delete(
    db: &mut Database,
    table: &str,
    filter: Option<&imp_sql::AstExpr>,
) -> Result<StatementResult> {
    let schema = db
        .table_schema(table)
        .ok_or_else(|| EngineError::Sql(imp_sql::SqlError::UnknownTable(table.into())))?;
    let qualified = schema.with_qualifier(&table.to_ascii_lowercase());
    let predicate = match filter {
        Some(f) => Some(Resolver::new(db).resolve_expr(f, &qualified)?),
        None => None,
    };
    let version = db.next_version();
    let deleted = delete_matching(db.table_mut(table)?, version, predicate.as_ref())?;
    Ok(StatementResult::Affected {
        table: table.to_ascii_lowercase(),
        count: deleted.len() as u64,
        version,
    })
}

/// `UPDATE table SET … [WHERE filter]`: the old rows are chosen like
/// [`delete`]'s victims, then re-inserted with the assignments applied, all
/// at one version.
fn update(
    db: &mut Database,
    table: &str,
    sets: &[(String, imp_sql::AstExpr)],
    filter: Option<&imp_sql::AstExpr>,
) -> Result<StatementResult> {
    let schema = db
        .table_schema(table)
        .ok_or_else(|| EngineError::Sql(imp_sql::SqlError::UnknownTable(table.into())))?;
    let qualified = schema.with_qualifier(&table.to_ascii_lowercase());
    let resolver = Resolver::new(db);
    let predicate = match filter {
        Some(f) => Some(resolver.resolve_expr(f, &qualified)?),
        None => None,
    };
    let assignments: Vec<(usize, imp_sql::Expr)> = sets
        .iter()
        .map(|(col, e)| {
            let idx = qualified
                .resolve(None, col)
                .map_err(|_| EngineError::Sql(imp_sql::SqlError::UnknownColumn(col.clone())))?;
            Ok((idx, resolver.resolve_expr(e, &qualified)?))
        })
        .collect::<Result<_>>()?;

    // Delta model: UPDATE = DELETE old ∪ INSERT new at one version.
    let version = db.next_version();
    let t = db.table_mut(table)?;
    let old_rows = delete_matching(t, version, predicate.as_ref())?;
    let count = old_rows.len() as u64 * 2;
    for old in old_rows {
        let mut vals = old.values().to_vec();
        for (idx, e) in &assignments {
            vals[*idx] = e.eval(&old)?;
        }
        t.insert(Row::new(vals), version)?;
    }
    Ok(StatementResult::Affected {
        table: table.to_ascii_lowercase(),
        count,
        version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, DataType, DeltaOp};

    fn db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        db
    }

    #[test]
    fn insert_then_query() {
        let db = db();
        let r = db.query("SELECT a FROM t WHERE b >= 20").unwrap();
        assert_eq!(r.canonical(), vec![(row![2], 1), (row![3], 1)]);
    }

    #[test]
    fn insert_with_column_list() {
        let mut db = db();
        db.execute_sql("INSERT INTO t (b, a) VALUES (99, 9)")
            .unwrap();
        let r = db.query("SELECT a, b FROM t WHERE a = 9").unwrap();
        assert_eq!(r.canonical(), vec![(row![9, 99], 1)]);
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = db();
        let StatementResult::Affected { count, .. } =
            db.execute_sql("DELETE FROM t WHERE b > 15").unwrap()
        else {
            panic!()
        };
        assert_eq!(count, 2);
        assert_eq!(db.query("SELECT * FROM t").unwrap().cardinality(), 1);
    }

    #[test]
    fn update_is_delete_plus_insert_in_log() {
        let mut db = db();
        let v0 = db.version();
        db.execute_sql("UPDATE t SET b = b + 1 WHERE a = 1")
            .unwrap();
        let delta = db.delta_since("t", v0).unwrap();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0].op, DeltaOp::Delete);
        assert_eq!(delta[0].row, row![1, 10]);
        assert_eq!(delta[1].op, DeltaOp::Insert);
        assert_eq!(delta[1].row, row![1, 11]);
    }

    /// `t(id INT, b INT, x INT)` with ids 0..10 in chunks of 4: two sealed
    /// chunks (0–3, 4–7) and an unsealed tail (8, 9). `x` is NULL for odd
    /// ids.
    fn chunked_db() -> Database {
        let schema = Schema::new(vec![
            Field::nullable("id", DataType::Int),
            Field::nullable("b", DataType::Int),
            Field::nullable("x", DataType::Int),
        ]);
        let mut t = Table::with_chunk_capacity("t", schema, 4);
        t.bulk_load((0..10).map(|i| {
            let x = if i % 2 == 0 {
                Value::Int(i)
            } else {
                Value::Null
            };
            Row::new(vec![Value::Int(i), Value::Int(i * 10), x])
        }))
        .unwrap();
        let mut db = Database::new();
        db.register_table(t).unwrap();
        db
    }

    /// Remaining ids after `sql`, plus the ids its delete records logged.
    fn delete_ids(sql: &str) -> (Vec<i64>, Vec<i64>) {
        let mut db = chunked_db();
        let v0 = db.version();
        db.execute_sql(sql).unwrap();
        let id = |r: &Row| r[0].as_i64().unwrap();
        let left = db.table("t").unwrap().rows().iter().map(id).collect();
        let logged = db
            .delta_since("t", v0)
            .unwrap()
            .iter()
            .map(|rec| {
                assert_eq!(rec.op, DeltaOp::Delete);
                id(&rec.row)
            })
            .collect();
        (left, logged)
    }

    #[test]
    fn delete_float_bound_on_int_column() {
        let (left, gone) = delete_ids("DELETE FROM t WHERE id >= 2.5");
        assert_eq!(left, vec![0, 1, 2]);
        assert_eq!(gone, vec![3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn delete_equal_null_deletes_nothing() {
        let (left, gone) = delete_ids("DELETE FROM t WHERE x = NULL");
        assert_eq!(left.len(), 10);
        assert!(gone.is_empty());
    }

    #[test]
    fn delete_range_union_spans_chunks_and_tail() {
        let (left, gone) =
            delete_ids("DELETE FROM t WHERE (id >= 1 AND id <= 2) OR (id >= 8 AND id <= 9)");
        assert_eq!(left, vec![0, 3, 4, 5, 6, 7]);
        assert_eq!(gone, vec![1, 2, 8, 9]);
    }

    #[test]
    fn range_narrows_and_full_predicate_decides() {
        let (left, gone) = delete_ids("DELETE FROM t WHERE id >= 5 AND b % 20 = 0");
        assert_eq!(left, vec![0, 1, 2, 3, 4, 5, 7, 9]);
        assert_eq!(gone, vec![6, 8]);
    }

    #[test]
    fn non_range_predicate_takes_the_full_pass() {
        let (left, gone) = delete_ids("DELETE FROM t WHERE b + 1 > 31");
        assert_eq!(left, vec![0, 1, 2, 3]);
        assert_eq!(gone, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn range_update_reinserts_at_one_version() {
        let mut db = chunked_db();
        let v0 = db.version();
        let StatementResult::Affected { count, version, .. } = db
            .execute_sql("UPDATE t SET b = b + 1 WHERE id > 2 AND id < 5")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(count, 4);
        let log: Vec<(DeltaOp, Row)> = db
            .delta_since("t", v0)
            .unwrap()
            .iter()
            .map(|rec| {
                assert_eq!(rec.version, version);
                (rec.op, rec.row.clone())
            })
            .collect();
        assert_eq!(
            log,
            vec![
                (DeltaOp::Delete, row![3, 30, Value::Null]),
                (DeltaOp::Delete, row![4, 40, 4]),
                (DeltaOp::Insert, row![3, 31, Value::Null]),
                (DeltaOp::Insert, row![4, 41, 4]),
            ]
        );
        let t = db.table("t").unwrap();
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.dead_rows(), 2);
    }

    #[test]
    fn create_table_types() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE x (i INT, f FLOAT, s TEXT, b BOOL)")
            .unwrap();
        let s = db.table_schema("x").unwrap();
        assert_eq!(s.field(1).dtype, DataType::Float);
        assert_eq!(s.field(2).dtype, DataType::Str);
    }

    #[test]
    fn versions_advance_per_statement() {
        let mut db = db();
        let v1 = db.version();
        db.execute_sql("INSERT INTO t VALUES (4, 40)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (5, 50)").unwrap();
        assert_eq!(db.version(), v1 + 2);
    }
}
