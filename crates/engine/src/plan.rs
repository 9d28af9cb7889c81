//! Logical and physical query plans.
//!
//! The binder lowers a SQL AST into a [`LogicalPlan`]; the logical
//! optimizer rewrites it (constant folding, predicate pushdown, join
//! conversion); then [`crate::optimize::physicalize`] lowers the result
//! into a [`PhysicalPlan`] — the tree the production executor
//! ([`crate::exec::execute_physical`]) runs. Plans carry only column
//! *offsets* — output names live in the binder's result
//! ([`crate::bind::BoundQuery`]).
//!
//! The logical → physical split is where **access paths** are chosen:
//! a logical `Filter` over a `Scan` becomes either a streamed
//! [`PhysicalPlan::SeqScan`]+[`PhysicalPlan::FilterExec`] pipeline or an
//! O(1) [`PhysicalPlan::IndexLookup`] against one of the table's
//! secondary hash indexes (see [`crate::table::Table`]). The physical
//! tree renders `EXPLAIN`-style through its [`std::fmt::Display`] impl,
//! one operator per line, children indented.

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::schema::EngineError;
use crate::value::Value;

/// Join types supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join (unmatched left rows padded with NULLs).
    Left,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` (non-null values)
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggFunc {
    /// Look up by lower-case name (excluding `COUNT(*)`, which the binder
    /// special-cases).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// One aggregate computation in an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument (`None` only for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// `DISTINCT` aggregation.
    pub distinct: bool,
}

/// A logical plan node. Execution is bottom-up and materialising.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Produces no rows, with the given arity.
    Empty {
        /// Output arity.
        arity: usize,
    },
    /// Literal rows (each row a vector of constant expressions).
    Values {
        /// The rows.
        rows: Vec<Vec<BoundExpr>>,
        /// Output arity.
        arity: usize,
    },
    /// Full scan of a base table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Filter rows by a boolean predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Keep rows where this evaluates to `TRUE`.
        predicate: BoundExpr,
    },
    /// Compute output columns from input rows.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
    },
    /// Cartesian product.
    CrossJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Equi-join executed with a hash table on the right side.
    HashJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Key expressions over left rows.
        left_keys: Vec<BoundExpr>,
        /// Key expressions over right rows.
        right_keys: Vec<BoundExpr>,
        /// Residual predicate over the concatenated row.
        residual: Option<BoundExpr>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// General join evaluated by nested loops.
    NestedLoopJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate over the concatenated row (`None` = always true).
        predicate: Option<BoundExpr>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// Set/bag union.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Bag semantics (`UNION ALL`).
        all: bool,
    },
    /// Set/bag difference.
    Except {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Bag semantics (`EXCEPT ALL`).
        all: bool,
    },
    /// Set/bag intersection.
    Intersect {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Bag semantics (`INTERSECT ALL`).
        all: bool,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Grouped aggregation. Output = group expressions, then aggregates.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions (empty = single global group).
        group_exprs: Vec<BoundExpr>,
        /// Aggregates.
        aggregates: Vec<AggExpr>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, descending)` keys, major first.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Limit/offset.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit (`None` = unbounded).
        limit: Option<u64>,
        /// Rows to skip.
        offset: u64,
    },
}

impl LogicalPlan {
    /// Output arity of the plan.
    pub fn arity(&self, catalog: &Catalog) -> Result<usize, EngineError> {
        Ok(match self {
            LogicalPlan::Empty { arity } | LogicalPlan::Values { arity, .. } => *arity,
            LogicalPlan::Scan { table } => catalog.table(table)?.schema.arity(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.arity(catalog)?,
            LogicalPlan::Project { exprs, .. } => exprs.len(),
            LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::HashJoin { left, right, .. }
            | LogicalPlan::NestedLoopJoin { left, right, .. } => {
                left.arity(catalog)? + right.arity(catalog)?
            }
            LogicalPlan::Union { left, .. }
            | LogicalPlan::Except { left, .. }
            | LogicalPlan::Intersect { left, .. } => left.arity(catalog)?,
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                ..
            } => group_exprs.len() + aggregates.len(),
        })
    }

    /// A plan producing exactly one empty row (used for `SELECT` without
    /// `FROM`).
    pub fn one_row() -> LogicalPlan {
        LogicalPlan::Values {
            rows: vec![Vec::new()],
            arity: 0,
        }
    }

    /// Literal single-row values plan.
    pub fn values_literal(rows: Vec<Vec<Value>>, arity: usize) -> LogicalPlan {
        LogicalPlan::Values {
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(BoundExpr::Literal).collect())
                .collect(),
            arity,
        }
    }

    /// Visit all nodes of the plan tree (pre-order), not descending into
    /// subquery plans inside expressions.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::Empty { .. } | LogicalPlan::Values { .. } | LogicalPlan::Scan { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.visit(f),
            LogicalPlan::CrossJoin { left, right }
            | LogicalPlan::HashJoin { left, right, .. }
            | LogicalPlan::NestedLoopJoin { left, right, .. }
            | LogicalPlan::Union { left, right, .. }
            | LogicalPlan::Except { left, right, .. }
            | LogicalPlan::Intersect { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
        }
    }

    /// Count plan nodes (diagnostics / tests).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

// Plans are pure owned data (no interior mutability, no borrows), so a
// plan bound once — e.g. against a [`crate::db::DbSnapshot`]'s catalog —
// may be evaluated concurrently from many threads, each with its own
// `EvalEnv`. Compile-time proof.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<LogicalPlan>();
    assert_sync_send::<PhysicalPlan>();
};

/// A physical plan node: what the production executor
/// ([`crate::exec::execute_physical`]) actually runs. Produced from an
/// optimized [`LogicalPlan`] by [`crate::optimize::physicalize`], which
/// maps every logical operator 1:1 **except** access paths: a `Filter`
/// over a `Scan` whose equality conjuncts cover one of the table's hash
/// indexes becomes an [`PhysicalPlan::IndexLookup`] (plus a residual
/// [`PhysicalPlan::FilterExec`] for the remaining conjuncts).
///
/// The executor streams the row-wise pipeline shapes —
/// `LimitExec`/`FilterExec`/`ProjectExec` directly over a source — with
/// early exit, which is what turns a membership probe
/// (`SELECT 1 FROM t WHERE … LIMIT 1`) into a bounded amount of work;
/// everything else materialises bottom-up exactly like the logical
/// reference executor.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Produces no rows, with the given arity.
    Empty {
        /// Output arity.
        arity: usize,
    },
    /// Literal rows.
    Values {
        /// The rows.
        rows: Vec<Vec<BoundExpr>>,
        /// Output arity.
        arity: usize,
    },
    /// Full scan of a base table, in slot order.
    SeqScan {
        /// Table name.
        table: String,
    },
    /// O(1) probe of a secondary hash index: produces the live rows
    /// whose `index_cols` values equal the evaluated `key`, in slot
    /// order (identical to what a `SeqScan` + equality filter yields).
    /// A `NULL` key component produces no rows (SQL equality). Key
    /// expressions must be row-independent (literals or
    /// [`BoundExpr::Param`]s).
    IndexLookup {
        /// Table name.
        table: String,
        /// The indexed column set (an existing index of the table).
        index_cols: Vec<usize>,
        /// Key expressions, parallel to `index_cols`.
        key: Vec<BoundExpr>,
    },
    /// Filter rows by a boolean predicate (streams over a source input).
    FilterExec {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Keep rows where this evaluates to `TRUE`.
        predicate: BoundExpr,
    },
    /// Compute output columns from input rows.
    ProjectExec {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
    },
    /// Cartesian product.
    CrossJoinExec {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Equi-join executed with a hash table on the right side.
    HashJoinExec {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Key expressions over left rows.
        left_keys: Vec<BoundExpr>,
        /// Key expressions over right rows.
        right_keys: Vec<BoundExpr>,
        /// Residual predicate over the concatenated row.
        residual: Option<BoundExpr>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// General join evaluated by nested loops.
    NestedLoopJoinExec {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated row (`None` = always true).
        predicate: Option<BoundExpr>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// Set/bag union.
    UnionExec {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Bag semantics (`UNION ALL`).
        all: bool,
    },
    /// Set/bag difference.
    ExceptExec {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Bag semantics (`EXCEPT ALL`).
        all: bool,
    },
    /// Set/bag intersection.
    IntersectExec {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Bag semantics (`INTERSECT ALL`).
        all: bool,
    },
    /// Duplicate elimination.
    DistinctExec {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// Grouped aggregation. Output = group expressions, then aggregates.
    AggregateExec {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping expressions (empty = single global group).
        group_exprs: Vec<BoundExpr>,
        /// Aggregates.
        aggregates: Vec<AggExpr>,
    },
    /// Sort.
    SortExec {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// `(expression, descending)` keys, major first.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Limit/offset (streams its pipeline input with early exit).
    LimitExec {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Maximum rows to emit (`None` = unbounded).
        limit: Option<u64>,
        /// Rows to skip.
        offset: u64,
    },
}

impl PhysicalPlan {
    /// Output arity of the plan.
    pub fn arity(&self, catalog: &Catalog) -> Result<usize, EngineError> {
        Ok(match self {
            PhysicalPlan::Empty { arity } | PhysicalPlan::Values { arity, .. } => *arity,
            PhysicalPlan::SeqScan { table } | PhysicalPlan::IndexLookup { table, .. } => {
                catalog.table(table)?.schema.arity()
            }
            PhysicalPlan::FilterExec { input, .. }
            | PhysicalPlan::DistinctExec { input }
            | PhysicalPlan::SortExec { input, .. }
            | PhysicalPlan::LimitExec { input, .. } => input.arity(catalog)?,
            PhysicalPlan::ProjectExec { exprs, .. } => exprs.len(),
            PhysicalPlan::CrossJoinExec { left, right }
            | PhysicalPlan::HashJoinExec { left, right, .. }
            | PhysicalPlan::NestedLoopJoinExec { left, right, .. } => {
                left.arity(catalog)? + right.arity(catalog)?
            }
            PhysicalPlan::UnionExec { left, .. }
            | PhysicalPlan::ExceptExec { left, .. }
            | PhysicalPlan::IntersectExec { left, .. } => left.arity(catalog)?,
            PhysicalPlan::AggregateExec {
                group_exprs,
                aggregates,
                ..
            } => group_exprs.len() + aggregates.len(),
        })
    }

    /// Visit all nodes of the plan tree (pre-order), not descending into
    /// subquery plans inside expressions.
    pub fn visit(&self, f: &mut impl FnMut(&PhysicalPlan)) {
        f(self);
        match self {
            PhysicalPlan::Empty { .. }
            | PhysicalPlan::Values { .. }
            | PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexLookup { .. } => {}
            PhysicalPlan::FilterExec { input, .. }
            | PhysicalPlan::ProjectExec { input, .. }
            | PhysicalPlan::DistinctExec { input }
            | PhysicalPlan::AggregateExec { input, .. }
            | PhysicalPlan::SortExec { input, .. }
            | PhysicalPlan::LimitExec { input, .. } => input.visit(f),
            PhysicalPlan::CrossJoinExec { left, right }
            | PhysicalPlan::HashJoinExec { left, right, .. }
            | PhysicalPlan::NestedLoopJoinExec { left, right, .. }
            | PhysicalPlan::UnionExec { left, right, .. }
            | PhysicalPlan::ExceptExec { left, right, .. }
            | PhysicalPlan::IntersectExec { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
        }
    }

    /// Count the plan's base-table access paths: `(index_probes,
    /// scan_probes)` — how many [`PhysicalPlan::IndexLookup`] /
    /// [`PhysicalPlan::SeqScan`] sources one execution of this plan
    /// touches. Feeds the engine's probe counters (`DbStats` /
    /// snapshot statistics).
    pub fn access_paths(&self) -> (usize, usize) {
        let (mut idx, mut scan) = (0, 0);
        self.visit(&mut |p| match p {
            PhysicalPlan::IndexLookup { .. } => idx += 1,
            PhysicalPlan::SeqScan { .. } => scan += 1,
            _ => {}
        });
        (idx, scan)
    }

    /// Does any access path of this plan go through an index?
    pub fn uses_index(&self) -> bool {
        self.access_paths().0 > 0
    }

    fn fmt_indented(&self, f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
        for _ in 0..depth {
            f.write_str("  ")?;
        }
        match self {
            PhysicalPlan::Empty { arity } => writeln!(f, "Empty arity={arity}"),
            PhysicalPlan::Values { rows, arity } => {
                writeln!(f, "Values rows={} arity={arity}", rows.len())
            }
            PhysicalPlan::SeqScan { table } => writeln!(f, "SeqScan {table}"),
            PhysicalPlan::IndexLookup {
                table,
                index_cols,
                key,
            } => {
                let cols: Vec<String> = index_cols.iter().map(|c| format!("#{c}")).collect();
                let keys: Vec<String> = key.iter().map(fmt_expr).collect();
                writeln!(
                    f,
                    "IndexLookup {table} index=({}) key=({})",
                    cols.join(", "),
                    keys.join(", ")
                )
            }
            PhysicalPlan::FilterExec { input, predicate } => {
                writeln!(f, "FilterExec {}", fmt_expr(predicate))?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::ProjectExec { input, exprs } => {
                let out: Vec<String> = exprs.iter().map(fmt_expr).collect();
                writeln!(f, "ProjectExec [{}]", out.join(", "))?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::CrossJoinExec { left, right } => {
                writeln!(f, "CrossJoinExec")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::HashJoinExec {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
                ..
            } => {
                let lk: Vec<String> = left_keys.iter().map(fmt_expr).collect();
                let rk: Vec<String> = right_keys.iter().map(fmt_expr).collect();
                writeln!(
                    f,
                    "HashJoinExec {:?} ({}) = ({})",
                    join_type,
                    lk.join(", "),
                    rk.join(", ")
                )?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::NestedLoopJoinExec {
                left,
                right,
                join_type,
                ..
            } => {
                writeln!(f, "NestedLoopJoinExec {join_type:?}")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::UnionExec { left, right, all } => {
                writeln!(f, "UnionExec all={all}")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::ExceptExec { left, right, all } => {
                writeln!(f, "ExceptExec all={all}")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::IntersectExec { left, right, all } => {
                writeln!(f, "IntersectExec all={all}")?;
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::DistinctExec { input } => {
                writeln!(f, "DistinctExec")?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::AggregateExec {
                input,
                group_exprs,
                aggregates,
            } => {
                writeln!(
                    f,
                    "AggregateExec groups={} aggs={}",
                    group_exprs.len(),
                    aggregates.len()
                )?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::SortExec { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| format!("{}{}", fmt_expr(e), if *desc { " DESC" } else { "" }))
                    .collect();
                writeln!(f, "SortExec [{}]", ks.join(", "))?;
                input.fmt_indented(f, depth + 1)
            }
            PhysicalPlan::LimitExec {
                input,
                limit,
                offset,
            } => {
                match limit {
                    Some(l) => writeln!(f, "LimitExec limit={l} offset={offset}")?,
                    None => writeln!(f, "LimitExec offset={offset}")?,
                }
                input.fmt_indented(f, depth + 1)
            }
        }
    }
}

/// `EXPLAIN`-style rendering: one operator per line, children indented
/// two spaces — the access path actually chosen is visible at the leaf.
impl std::fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// Compact expression rendering for plan display (`#i` = column offset,
/// `$i` = prepared parameter).
fn fmt_expr(e: &BoundExpr) -> String {
    match e {
        BoundExpr::Literal(v) => format!("{v}"),
        BoundExpr::Column(i) => format!("#{i}"),
        BoundExpr::Param(i) => format!("${i}"),
        BoundExpr::OuterRef { level, index } => format!("outer[{level}].#{index}"),
        BoundExpr::Binary { op, left, right } => {
            format!("({} {} {})", fmt_expr(left), op.sql(), fmt_expr(right))
        }
        BoundExpr::Unary { op, expr } => {
            let op = match op {
                hippo_sql::UnaryOp::Not => "NOT",
                hippo_sql::UnaryOp::Neg => "-",
            };
            format!("({op} {})", fmt_expr(expr))
        }
        BoundExpr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            fmt_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        _ => "<expr>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Text),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn arity_propagates() {
        let c = catalog();
        let scan = LogicalPlan::Scan { table: "t".into() };
        assert_eq!(scan.arity(&c).unwrap(), 2);
        let join = LogicalPlan::CrossJoin {
            left: Box::new(scan.clone()),
            right: Box::new(scan.clone()),
        };
        assert_eq!(join.arity(&c).unwrap(), 4);
        let proj = LogicalPlan::Project {
            input: Box::new(join),
            exprs: vec![BoundExpr::Column(0)],
        };
        assert_eq!(proj.arity(&c).unwrap(), 1);
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan),
            group_exprs: vec![BoundExpr::Column(1)],
            aggregates: vec![AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        assert_eq!(agg.arity(&c).unwrap(), 2);
    }

    #[test]
    fn arity_errors_on_missing_table() {
        let c = catalog();
        let scan = LogicalPlan::Scan {
            table: "missing".into(),
        };
        assert!(scan.arity(&c).is_err());
    }

    #[test]
    fn node_count_counts() {
        let scan = LogicalPlan::Scan { table: "t".into() };
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan),
            }),
            predicate: BoundExpr::true_(),
        };
        assert_eq!(plan.node_count(), 3);
    }

    #[test]
    fn one_row_has_single_empty_row() {
        let p = LogicalPlan::one_row();
        let LogicalPlan::Values { rows, arity } = p else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(arity, 0);
    }
}
