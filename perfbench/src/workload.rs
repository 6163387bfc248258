//! The three workloads: data sizes, middleware configuration, and the
//! seeded operation stream each one drives through `Imp::execute`.
//!
//! Every stream is a fixed list of operations generated from the seed
//! before anything is timed, so a run does the same work however fast the
//! program is, and count metrics repeat exactly for a seed.

use imp_core::{ImpConfig, MaintenanceStrategy};
use imp_data::queries;
use imp_data::synthetic::{self, SyntheticConfig};
use imp_data::workload::{insert_stream, mixed_workload, WorkloadOp};
use imp_engine::Database;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dashboard traffic on a clustered table: 1U5Q, lazy maintenance.
    ReadHeavy,
    /// Writes beside reads: six eagerly maintained sketches per update.
    ChurnEager,
    /// TPC-H refreshes through the sharded scheduler with one worker.
    TpchSharded,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ReadHeavy,
        Workload::ChurnEager,
        Workload::TpchSharded,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHeavy => "read-heavy",
            Workload::ChurnEager => "churn-eager",
            Workload::TpchSharded => "tpch-sharded",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Middleware configuration: defaults, except the maintenance
    /// strategy or scheduler the workload is about, and no telemetry
    /// endpoint whatever the environment says.
    pub fn config(self) -> ImpConfig {
        let mut config = ImpConfig {
            obsd_addr: Some(String::new()),
            ..ImpConfig::default()
        };
        match self {
            Workload::ReadHeavy => config.strategy = MaintenanceStrategy::Lazy,
            Workload::ChurnEager => config.strategy = MaintenanceStrategy::Eager { batch_size: 1 },
            Workload::TpchSharded => config.sched_workers = 1,
        }
        config
    }
}

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of `edb1` (synthetic workloads).
    pub rows: usize,
    /// Distinct values of the group attribute `a`.
    pub groups: i64,
    /// TPC-H scale (1.0 = 10k customers, 100k orders).
    pub tpch_scale: f64,
    /// Rows per synthetic INSERT / DELETE, orders per TPC-H refresh.
    pub delta: usize,
    /// Statements in the timed stream (barriers come on top).
    pub ops: usize,
}

impl Sizes {
    /// The benchmark's sizes: the stream length is the workload's nominal
    /// rate on a 2-core machine times `seconds`, so one run measures about
    /// that long.
    pub fn standard(w: Workload, seconds: u64) -> Sizes {
        let seconds = seconds as usize;
        match w {
            Workload::ReadHeavy => Sizes {
                rows: 100_000,
                groups: 1_000,
                tpch_scale: 0.0,
                delta: 10,
                ops: 78 * seconds,
            },
            Workload::ChurnEager => Sizes {
                rows: 20_000,
                groups: 1_000,
                tpch_scale: 0.0,
                delta: 200,
                ops: 80 * seconds,
            },
            Workload::TpchSharded => Sizes {
                rows: 0,
                groups: 0,
                tpch_scale: 0.1,
                delta: 5,
                ops: 26 * seconds,
            },
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny(w: Workload) -> Sizes {
        match w {
            Workload::ReadHeavy => Sizes {
                rows: 4_000,
                groups: 100,
                tpch_scale: 0.0,
                delta: 10,
                ops: 90,
            },
            Workload::ChurnEager => Sizes {
                rows: 2_000,
                groups: 100,
                tpch_scale: 0.0,
                delta: 40,
                ops: 66,
            },
            Workload::TpchSharded => Sizes {
                rows: 0,
                groups: 0,
                tpch_scale: 0.01,
                delta: 3,
                ops: 40,
            },
        }
    }
}

/// Statement kinds, plus the maintenance barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// A SELECT.
    Query,
    /// A multi-row INSERT.
    Insert,
    /// A DELETE of an id / key window.
    Delete,
    /// `Imp::maintain_all_stale()`.
    Drain,
    /// `Imp::vacuum()`, run outside the timed interval.
    Vacuum,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::Query,
        Kind::Insert,
        Kind::Delete,
        Kind::Drain,
        Kind::Vacuum,
    ];

    /// Lower-case label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Drain => "drain",
            Kind::Vacuum => "vacuum",
        }
    }
}

/// One operation of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// What it is.
    pub kind: Kind,
    /// Its SQL text (empty for a drain or a vacuum).
    pub sql: String,
}

/// Everything a run executes: the queries whose sketches set-up captures,
/// then the timed stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Distinct query texts, captured in this order during set-up.
    pub setup: Vec<String>,
    /// The timed operations.
    pub ops: Vec<Op>,
}

impl Stream {
    /// FNV-1a hash of the set-up queries and every operation, printed so
    /// two runs can be seen to share their inputs.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for sql in &self.setup {
            eat(sql.as_bytes());
            eat(b"\n");
        }
        for op in &self.ops {
            eat(op.kind.label().as_bytes());
            eat(op.sql.as_bytes());
            eat(b"\n");
        }
        h
    }

    /// Number of operations of one kind.
    pub fn count(&self, kind: Kind) -> usize {
        self.ops.iter().filter(|o| o.kind == kind).count()
    }
}

/// Data seed and stream seed both derive from the command-line seed.
fn stream_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed
}

fn synthetic_config(sizes: &Sizes, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        rows: sizes.rows,
        groups: sizes.groups,
        seed,
        ..SyntheticConfig::default()
    }
}

/// Load the workload's tables into a fresh database.
pub fn load(w: Workload, sizes: &Sizes, seed: u64) -> imp_engine::Result<Database> {
    let mut db = Database::new();
    match w {
        Workload::ReadHeavy => synthetic::load(&mut db, &synthetic_config(sizes, seed))?,
        Workload::ChurnEager => {
            synthetic::load(&mut db, &synthetic_config(sizes, seed))?;
            synthetic::load_join_helper(&mut db, "h", sizes.groups, 50, 1, seed ^ 0x4)?;
        }
        Workload::TpchSharded => imp_data::tpch::load(&mut db, sizes.tpch_scale, seed)?,
    }
    Ok(db)
}

/// Generate the workload's stream for `seed`.
pub fn stream(w: Workload, sizes: &Sizes, seed: u64) -> Stream {
    let seed = stream_seed(seed);
    match w {
        Workload::ReadHeavy => read_heavy(sizes, seed),
        Workload::ChurnEager => churn_eager(sizes, seed),
        Workload::TpchSharded => tpch_sharded(sizes, seed),
    }
}

/// `DELETE` of the `n`-th window of `delta` ids, oldest ids first: every
/// delete removes exactly `delta` live rows, and with one insert per
/// delete the table keeps its size.
fn fifo_delete(n: usize, delta: usize) -> Op {
    let start = n * delta;
    Op {
        kind: Kind::Delete,
        sql: format!(
            "DELETE FROM edb1 WHERE id >= {start} AND id < {}",
            start + delta
        ),
    }
}

/// 1U5Q `Q_endtoend` over the four HAVING windows of `mixed_workload`;
/// updates alternate Δ-row inserts and Δ-row deletes.
fn read_heavy(sizes: &Sizes, seed: u64) -> Stream {
    let mixed = mixed_workload(1, 5, sizes.ops, sizes.delta, sizes.groups, sizes.rows, seed);
    let mut ops = Vec::with_capacity(sizes.ops);
    let mut setup: Vec<String> = Vec::new();
    let mut updates = 0usize;
    for op in mixed.ops {
        match op {
            WorkloadOp::Query(sql) => {
                if !setup.contains(&sql) {
                    setup.push(sql.clone());
                }
                ops.push(Op {
                    kind: Kind::Query,
                    sql,
                });
            }
            WorkloadOp::Update { sql, .. } => {
                let op = if updates.is_multiple_of(2) {
                    Op {
                        kind: Kind::Insert,
                        sql,
                    }
                } else {
                    fifo_delete(updates / 2, sizes.delta)
                };
                ops.push(op);
                updates += 1;
            }
        }
    }
    setup.sort();
    Stream { setup, ops }
}

/// Six templates over `edb1` (one joins the helper `h`); Δ-row inserts
/// alternate with Δ-row deletes, and a query runs every 10 updates,
/// cycling through the templates. A vacuum follows each query: without
/// it, deleted rows stay in the table's chunks and every delete and scan
/// grows slower over the run.
fn churn_eager(sizes: &Sizes, seed: u64) -> Stream {
    let g = sizes.groups;
    let c_mid = (g / 2) as f64 * synthetic::coef(1);
    let templates = vec![
        queries::q_endtoend(c_mid as i64 - 40, c_mid as i64 + 40),
        queries::q_having("edb1", 3),
        queries::q_groups("edb1", c_mid as i64),
        queries::q_selpd("edb1", g / 2),
        queries::q_topk("edb1", 10),
        queries::q_join(
            "edb1",
            "h",
            g * 3 / 4,
            (g as f64 * synthetic::coef(1) * 0.8) as i64,
        ),
    ];
    let mut inserts = insert_stream("edb1", sizes.ops / 2 + 1, sizes.delta, g, sizes.rows, seed)
        .into_iter()
        .map(|op| match op {
            WorkloadOp::Update { sql, .. } => sql,
            WorkloadOp::Query(_) => unreachable!("insert_stream yields updates only"),
        });
    let mut ops = Vec::with_capacity(sizes.ops + sizes.ops / 10);
    let mut statements = 0usize;
    let mut updates = 0usize;
    while statements < sizes.ops {
        ops.push(if updates.is_multiple_of(2) {
            Op {
                kind: Kind::Insert,
                sql: inserts.next().expect("one insert per two updates"),
            }
        } else {
            fifo_delete(updates / 2, sizes.delta)
        });
        updates += 1;
        statements += 1;
        if updates.is_multiple_of(10) && statements < sizes.ops {
            ops.push(Op {
                kind: Kind::Query,
                sql: templates[(updates / 10 - 1) % templates.len()].clone(),
            });
            ops.push(Op {
                kind: Kind::Vacuum,
                sql: String::new(),
            });
            statements += 1;
        }
    }
    Stream {
        setup: templates,
        ops,
    }
}

/// RF1 (insert orders, then their lineitems in two statements)
/// alternates with RF2 (delete the lineitems of an order-key window; the
/// orders stay). Lineitem INSERTs are two thirds of the inserts, so the
/// insert median falls inside their latency group, not between it and
/// the cheaper orders INSERTs. Drain barriers
/// come before every refresh and after every refresh statement, so the
/// client never overlaps the shard worker: each update meets an idle
/// worker and each barrier waits for at most one statement's
/// maintenance. Without them, an update's latency depended on whether it
/// ran before or after the worker's maintenance of the previous one.
/// One query follows each refresh, cycling through a single-table
/// HAVING (about 40 ms at these sizes), the 4-way join top-k `Q_space`
/// (65 ms), a binary join with HAVING (80 ms), and `Q_space` again. With
/// `Q_space` at half the queries, the query median falls inside its
/// latency group, not between two groups, where it moved with every
/// shift in their balance.
fn tpch_sharded(sizes: &Sizes, seed: u64) -> Stream {
    let cycle = [
        queries::TPCH_SINGLE,
        queries::Q_SPACE,
        queries::TPCH_HAVING,
        queries::Q_SPACE,
    ];
    let templates: Vec<String> = cycle[..3].iter().map(|q| q.to_string()).collect();
    let orders =
        (imp_data::tpch::CUSTOMERS_AT_SCALE_1 as f64 * sizes.tpch_scale).max(10.0) as i64 * 10;
    let refreshes = sizes.ops / 2 + 1;
    let rf1 = imp_data::tpch::refresh_stream(refreshes, sizes.delta, true, orders - 1, seed);
    let rf2 = imp_data::tpch::refresh_stream(refreshes, sizes.delta, false, orders - 1, seed ^ 0x2);
    // RF1 yields (orders, lineitem) INSERT pairs; RF2 yields (lineitem,
    // orders) DELETE pairs, of which the lineitem DELETE runs.
    let mut rf1 = rf1.chunks(2).map(|pair| {
        let [orders, lineitem] = [&pair[0], &pair[1]].map(update_sql);
        let (first, second) = split_insert(&lineitem);
        vec![orders, first, second]
    });
    let mut rf2 = rf2.chunks(2).map(|pair| vec![update_sql(&pair[0])]);
    let mut ops = Vec::with_capacity(sizes.ops * 2);
    let mut refresh = 0usize;
    let mut statements = 0usize;
    while statements < sizes.ops {
        let (kind, refresh_ops) = if refresh.is_multiple_of(2) {
            (Kind::Insert, rf1.next())
        } else {
            (Kind::Delete, rf2.next())
        };
        ops.push(Op {
            kind: Kind::Drain,
            sql: String::new(),
        });
        for sql in refresh_ops.expect("one refresh per cycle") {
            ops.push(Op { kind, sql });
            ops.push(Op {
                kind: Kind::Drain,
                sql: String::new(),
            });
            statements += 1;
        }
        ops.push(Op {
            kind: Kind::Query,
            sql: cycle[refresh % cycle.len()].to_string(),
        });
        statements += 1;
        refresh += 1;
    }
    Stream {
        setup: templates,
        ops,
    }
}

/// The SQL text of a generated update.
fn update_sql(op: &WorkloadOp) -> String {
    match op {
        WorkloadOp::Update { sql, .. } => sql.clone(),
        WorkloadOp::Query(_) => unreachable!("refresh streams hold updates only"),
    }
}

/// Split a multi-row `INSERT ... VALUES (..), (..)` into two statements
/// with the first and the second half of its rows. The generated rows
/// hold no parentheses, so `"), ("` separates them.
fn split_insert(sql: &str) -> (String, String) {
    let (head, values) = sql.split_once(" VALUES (").expect("a multi-row INSERT");
    let rows: Vec<&str> = values
        .strip_suffix(')')
        .expect("VALUES end with a row")
        .split("), (")
        .collect();
    assert!(rows.len() >= 2, "an INSERT of one row cannot be split");
    let half = rows.len().div_ceil(2);
    let statement = |rows: &[&str]| format!("{head} VALUES ({})", rows.join("), ("));
    (statement(&rows[..half]), statement(&rows[half..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_insert_halves_the_rows() {
        let (a, b) = split_insert("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
        assert_eq!(a, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
        assert_eq!(b, "INSERT INTO t VALUES (3, 'c')");
    }

    #[test]
    fn tpch_lineitem_inserts_are_two_thirds_of_the_inserts() {
        let w = Workload::TpchSharded;
        let s = stream(w, &Sizes::tiny(w), 1);
        let lineitem = s
            .ops
            .iter()
            .filter(|o| o.kind == Kind::Insert && o.sql.starts_with("INSERT INTO lineitem"))
            .count();
        assert_eq!(3 * lineitem, 2 * s.count(Kind::Insert));
        for op in s.ops.iter().filter(|o| o.kind != Kind::Drain) {
            assert!(imp_sql::parse_one(&op.sql).is_ok(), "{}", op.sql);
        }
    }
}
