//! Plan execution: the physical executor and the logical reference.
//!
//! Two executors share one set of operator implementations:
//!
//! * [`execute_physical`] — the **production** path, running the
//!   [`PhysicalPlan`] the optimizer lowered. Its row-wise pipeline
//!   shapes stream: a `FilterExec` directly over a source clones only
//!   surviving rows, a `LimitExec` over a
//!   `ProjectExec?`/`FilterExec?`/source pipeline stops the scan as
//!   soon as `offset + limit` rows are produced, and an `IndexLookup`
//!   touches only the probed bucket. (These subsume the ad-hoc
//!   `Filter`-over-`Scan` and `LIMIT` special cases the logical
//!   executor used to carry.)
//! * [`execute`] — the **unoptimized logical reference**: bottom-up,
//!   fully materialising, no access-path tricks. It decides the
//!   semantics; the differential suite (`tests/prop_physical.rs`)
//!   checks the physical executor against it row-for-row. Expression
//!   subqueries (`EXISTS`/`IN`/scalar) also run here — with the
//!   correlated-`EXISTS` hash memo in [`EvalEnv`] covering the hot
//!   shape.
//!
//! Since PR 10 the physical executor is two-engined: before walking an
//! operator row-wise, [`execute_physical`] offers the whole subtree to
//! the **vectorized** compiler (`column::try_execute`), which
//! runs eligible scan/aggregate/join shapes batch-at-a-time over the
//! table's [`crate::column::ColumnStore`]:
//!
//! ```text
//!                 PhysicalPlan subtree
//!                         │
//!             column::try_execute(plan, env)?
//!            ╱                              ╲
//!   compiles (typed cols,            anything else
//!   supported ops only)                     │
//!            │                              ▼
//!            ▼                      row-mode operators
//!   ColumnStore ─ 1024-row ─▶ filter ─▶ project/agg/join
//!   (Arc-shared) ColumnBatch   (selection vector, typed
//!                               slices, no Value clones)
//!            ╲                              ╱
//!             same rows, errors, budget charges — the engine
//!             choice shows only in EXPLAIN and DbStats
//!             (batches_executed / vectorized_rows / rowmode_rows)
//! ```
//!
//! Fallback is per-subtree, so a row-mode `SortExec` or `DistinctExec`
//! still vectorizes its input; see `column.rs` for the eligibility
//! rules and the charging-parity contract.
//!
//! Execution never mutates the catalog: all run state (the enclosing-row
//! stack, the correlated-`EXISTS` memo, prepared-parameter bindings,
//! the optional budget) lives in the per-call [`EvalEnv`], which each
//! invocation owns privately. So any number of threads may execute
//! over one shared `&Catalog` with no locking. The entry points:
//!
//! * [`execute_physical`] / [`execute`] — over a caller-built
//!   [`EvalEnv`]; [`crate::db::DbSnapshot`] (the read surface that
//!   every [`crate::db::Database`] derefs to) builds one per query and
//!   folds its counters into the snapshot's statistics;
//! * [`execute_physical_params`] / [`execute_physical_params_governed`]
//!   — a prepared, parameterised plan against a catalog, the base-mode
//!   membership probe path (optionally under a budget).

use crate::expr::{eval, BoundExpr, EvalEnv};
use crate::plan::{AggExpr, AggFunc, JoinType, LogicalPlan, PhysicalPlan};
use crate::schema::EngineError;
use crate::value::{Row, Value};
use rustc_hash::{FxHashMap, FxHashSet};

/// Execute a plan within an environment (catalog + enclosing rows).
pub fn execute(plan: &LogicalPlan, env: &mut EvalEnv<'_>) -> Result<Vec<Row>, EngineError> {
    match plan {
        LogicalPlan::Empty { .. } => Ok(Vec::new()),
        LogicalPlan::Values { rows, .. } => {
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let row: Row = exprs
                    .iter()
                    .map(|e| eval(e, &[], env))
                    .collect::<Result<_, _>>()?;
                out.push(row);
            }
            Ok(out)
        }
        LogicalPlan::Scan { table } => Ok(env.catalog.table(table)?.rows()),
        LogicalPlan::Filter { input, predicate } => {
            // A filter directly over a scan evaluates the predicate on
            // the *stored* rows and clones only the survivors. This is
            // purely an allocation detail, not an access path: the
            // same predicate runs on the same rows in the same (slot)
            // order as materialise-then-filter, so the reference
            // semantics are untouched — but the expression-subquery
            // paths (`IN`/scalar/non-memo `EXISTS`), which re-execute
            // their subplan here per outer row, don't pay a full-table
            // clone per evaluation.
            if let LogicalPlan::Scan { table } = &**input {
                let catalog = env.catalog;
                let t = catalog.table(table)?;
                let mut out = Vec::new();
                for (_, row) in t.iter() {
                    if eval(predicate, row, env)? == Value::Bool(true) {
                        out.push(row.clone());
                    }
                }
                return Ok(out);
            }
            let rows = execute(input, env)?;
            let mut out = Vec::new();
            for row in rows {
                if eval(predicate, &row, env)? == Value::Bool(true) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs } => {
            let rows = execute(input, env)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let projected: Row = exprs
                    .iter()
                    .map(|e| eval(e, &row, env))
                    .collect::<Result<_, _>>()?;
                out.push(projected);
            }
            Ok(out)
        }
        LogicalPlan::CrossJoin { left, right } => {
            let l = execute(left, env)?;
            let r = execute(right, env)?;
            let mut out = Vec::with_capacity(l.len().saturating_mul(r.len()));
            for lr in &l {
                for rr in &r {
                    let mut row = Vec::with_capacity(lr.len() + rr.len());
                    row.extend_from_slice(lr);
                    row.extend_from_slice(rr);
                    out.push(row);
                }
            }
            Ok(out)
        }
        LogicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            join_type,
        } => {
            let l = execute(left, env)?;
            let r = execute(right, env)?;
            let right_arity = match r.first() {
                Some(row) => row.len(),
                None => right.arity(env.catalog)?,
            };
            hash_join_rows(
                l,
                r,
                right_arity,
                left_keys,
                right_keys,
                residual.as_ref(),
                *join_type,
                env,
            )
        }
        LogicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
            join_type,
        } => {
            let l = execute(left, env)?;
            let r = execute(right, env)?;
            let right_arity = match r.first() {
                Some(row) => row.len(),
                None => right.arity(env.catalog)?,
            };
            nested_loop_rows(l, r, right_arity, predicate.as_ref(), *join_type, env)
        }
        LogicalPlan::Union { left, right, all } => {
            let l = execute(left, env)?;
            let r = execute(right, env)?;
            Ok(union_rows(l, r, *all))
        }
        LogicalPlan::Except { left, right, all } => {
            let l = execute(left, env)?;
            let r = execute(right, env)?;
            Ok(except_rows(l, r, *all))
        }
        LogicalPlan::Intersect { left, right, all } => {
            let l = execute(left, env)?;
            let r = execute(right, env)?;
            Ok(intersect_rows(l, r, *all))
        }
        LogicalPlan::Distinct { input } => Ok(dedup(execute(input, env)?)),
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let rows = execute(input, env)?;
            aggregate_rows(rows, group_exprs, aggregates, env)
        }
        LogicalPlan::Sort { input, keys } => {
            let rows = execute(input, env)?;
            sort_rows(rows, keys, env)
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = execute(input, env)?;
            Ok(limit_slice(rows, *limit, *offset))
        }
    }
}

/// Execute a physical plan within an environment.
///
/// Every call — including the recursive calls operator arms make on
/// their inputs — first offers the plan to the vectorized engine
/// ([`crate::column`]). That placement is what makes batch execution
/// composable: a `DistinctExec`, `SortExec`, set operation, or
/// materialising `LimitExec` whose *input* is an eligible
/// scan/aggregate/join shape runs that subtree on column batches even
/// though the operator itself stays row-mode.
pub fn execute_physical(
    plan: &PhysicalPlan,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    if let Some(rows) = crate::column::try_execute(plan, env)? {
        return Ok(rows);
    }
    match plan {
        PhysicalPlan::Empty { .. } => Ok(Vec::new()),
        PhysicalPlan::Values { rows, .. } => {
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let row: Row = exprs
                    .iter()
                    .map(|e| eval(e, &[], env))
                    .collect::<Result<_, _>>()?;
                out.push(row);
            }
            Ok(out)
        }
        PhysicalPlan::SeqScan { table } => {
            let rows = env.catalog.table(table)?.rows();
            env.charge_batch(rows.len())?;
            env.rowmode_rows += rows.len() as u64;
            Ok(rows)
        }
        PhysicalPlan::IndexLookup {
            table,
            index_cols,
            key,
        } => index_lookup_rows(table, index_cols, key, env),
        PhysicalPlan::FilterExec { input, predicate } => match &**input {
            // Filter directly over a scan streams the stored rows and
            // clones only the survivors — materialising the scan first
            // would copy every row of the table per evaluation.
            PhysicalPlan::SeqScan { table } => {
                let t = env.catalog.table(table)?;
                let mut out = Vec::new();
                for (_, row) in t.iter() {
                    env.charge_row()?;
                    env.rowmode_rows += 1;
                    if eval(predicate, row, env)? == Value::Bool(true) {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            }
            other => {
                let rows = execute_physical(other, env)?;
                let mut out = Vec::new();
                for row in rows {
                    env.charge_row()?;
                    if eval(predicate, &row, env)? == Value::Bool(true) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
        },
        PhysicalPlan::ProjectExec { input, exprs } => {
            let rows = execute_physical(input, env)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let projected: Row = exprs
                    .iter()
                    .map(|e| eval(e, &row, env))
                    .collect::<Result<_, _>>()?;
                out.push(projected);
            }
            Ok(out)
        }
        PhysicalPlan::CrossJoinExec { left, right } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            let mut out = Vec::with_capacity(l.len().saturating_mul(r.len()));
            for lr in &l {
                for rr in &r {
                    let mut row = Vec::with_capacity(lr.len() + rr.len());
                    row.extend_from_slice(lr);
                    row.extend_from_slice(rr);
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysicalPlan::HashJoinExec {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            join_type,
        } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            let right_arity = match r.first() {
                Some(row) => row.len(),
                None => right.arity(env.catalog)?,
            };
            hash_join_rows(
                l,
                r,
                right_arity,
                left_keys,
                right_keys,
                residual.as_ref(),
                *join_type,
                env,
            )
        }
        PhysicalPlan::NestedLoopJoinExec {
            left,
            right,
            predicate,
            join_type,
        } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            let right_arity = match r.first() {
                Some(row) => row.len(),
                None => right.arity(env.catalog)?,
            };
            nested_loop_rows(l, r, right_arity, predicate.as_ref(), *join_type, env)
        }
        PhysicalPlan::UnionExec { left, right, all } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            Ok(union_rows(l, r, *all))
        }
        PhysicalPlan::ExceptExec { left, right, all } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            Ok(except_rows(l, r, *all))
        }
        PhysicalPlan::IntersectExec { left, right, all } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            Ok(intersect_rows(l, r, *all))
        }
        PhysicalPlan::DistinctExec { input } => Ok(dedup(execute_physical(input, env)?)),
        PhysicalPlan::AggregateExec {
            input,
            group_exprs,
            aggregates,
        } => {
            let rows = execute_physical(input, env)?;
            aggregate_rows(rows, group_exprs, aggregates, env)
        }
        PhysicalPlan::SortExec { input, keys } => {
            let rows = execute_physical(input, env)?;
            sort_rows(rows, keys, env)
        }
        PhysicalPlan::LimitExec {
            input,
            limit,
            offset,
        } => {
            if let Some(rows) = streaming_limit(input, *limit, *offset, env)? {
                return Ok(rows);
            }
            let rows = execute_physical(input, env)?;
            Ok(limit_slice(rows, *limit, *offset))
        }
    }
}

/// Evaluate a prepared (parameterised) physical plan against a shared
/// read-only catalog: `params` binds the plan's [`BoundExpr::Param`]
/// placeholders. One compiled probe plan is re-executed here per
/// candidate binding by the base-mode membership path.
pub fn execute_physical_params(
    plan: &PhysicalPlan,
    catalog: &crate::catalog::Catalog,
    params: &[Value],
) -> Result<Vec<Row>, EngineError> {
    let mut env = EvalEnv::with_params(catalog, params);
    execute_physical(plan, &mut env)
}

/// [`execute_physical_params`] under an optional resource
/// [`crate::budget::Budget`] (the governed membership-probe path;
/// `budget = None` is exactly the ungoverned call).
pub fn execute_physical_params_governed(
    plan: &PhysicalPlan,
    catalog: &crate::catalog::Catalog,
    params: &[Value],
    budget: Option<&crate::budget::Budget>,
    stage: &'static str,
) -> Result<Vec<Row>, EngineError> {
    let mut env = EvalEnv::with_params(catalog, params);
    if let Some(b) = budget {
        env.set_budget(b, stage);
    }
    let res = execute_physical(plan, &mut env);
    env.flush_budget();
    res
}

/// The one index-probe protocol, shared by every consumer: evaluate
/// the key expressions against the empty row, short-circuit a `NULL`
/// component to the empty bucket (SQL equality matches nothing), and
/// borrow the bucket's live tuple ids (ascending slot order). Errors
/// if the plan references an index the table does not have, or if a
/// key value does not inhabit the indexed column's type exactly — hash
/// identity only coincides with SQL equality for exact-type keys, so a
/// mis-typed [`BoundExpr::Param`] binding (a contract violation by the
/// prepared-plan caller) fails loudly instead of silently diverging
/// from the scan plan.
fn resolve_index_bucket<'a>(
    table: &str,
    index_cols: &[usize],
    key_exprs: &[BoundExpr],
    env: &mut EvalEnv<'a>,
) -> Result<(&'a crate::table::Table, &'a [crate::table::TupleId]), EngineError> {
    use crate::schema::DataType;
    let catalog = env.catalog;
    let t = catalog.table(table)?;
    let mut key = Vec::with_capacity(key_exprs.len());
    for (e, &col) in key_exprs.iter().zip(index_cols) {
        let v = eval(e, &[], env)?;
        if v.is_null() {
            return Ok((t, &[]));
        }
        let column = t.schema.columns.get(col).ok_or_else(|| {
            EngineError::new(format!("index column {col} out of range for {table:?}"))
        })?;
        let exact = matches!(
            (column.ty, &v),
            (DataType::Int, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Bool, Value::Bool(_))
        );
        if !exact {
            return Err(EngineError::new(format!(
                "prepared index probe on {table:?} bound a {} value to {} column {:?}",
                v.type_name(),
                column.ty,
                column.name
            )));
        }
        key.push(v);
    }
    let ids = t
        .index_bucket(index_cols, &key)
        .ok_or_else(|| EngineError::new(format!("plan references a missing index on {table:?}")))?;
    Ok((t, ids))
}

/// Materialise an index lookup: clone the matching live rows (ascending
/// slot order — exactly what a scan + equality filter would produce).
fn index_lookup_rows(
    table: &str,
    index_cols: &[usize],
    key_exprs: &[BoundExpr],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let (t, ids) = resolve_index_bucket(table, index_cols, key_exprs, env)?;
    env.rowmode_rows += ids.len() as u64;
    Ok(ids
        .iter()
        .map(|&id| t.get(id).expect("index buckets hold live ids").clone())
        .collect())
}

/// `LIMIT` over a row-wise `ProjectExec?(FilterExec?(source))` pipeline
/// stops producing as soon as `offset + limit` rows exist, instead of
/// materialising the whole input first. This turns an existence probe
/// (`SELECT 1 FROM t WHERE … LIMIT 1` — the base-mode membership
/// query) into work bounded by the first match; over an `IndexLookup`
/// source the bound is the probed bucket. Row order matches the
/// materialising path exactly (slot order), so results are identical.
/// Returns `None` when the plan is not of that shape.
fn streaming_limit(
    input: &PhysicalPlan,
    limit: Option<u64>,
    offset: u64,
    env: &mut EvalEnv<'_>,
) -> Result<Option<Vec<Row>>, EngineError> {
    let Some(limit) = limit else { return Ok(None) };
    let (projection, filter, source) = match input {
        PhysicalPlan::ProjectExec { input, exprs } => match &**input {
            PhysicalPlan::FilterExec { input, predicate } => {
                (Some(exprs), Some(predicate), &**input)
            }
            source => (Some(exprs), None, source),
        },
        PhysicalPlan::FilterExec { input, predicate } => (None, Some(predicate), &**input),
        source => (None, None, source),
    };
    // The source must be a base-table access path; anything else (a
    // join, a set operation, …) falls back to materialising. Rows are
    // *borrowed* from the table (scan iterator or index bucket ids)
    // and cloned only when they survive the filter and the window
    // still wants them — a `LIMIT 1` membership probe over a
    // duplicate-key bucket clones at most one row.
    let need = offset as usize + limit as usize;
    let catalog = env.catalog;
    let mut out = Vec::with_capacity(need.min(64));
    let produce = |row: &Row, env: &mut EvalEnv<'_>| -> Result<Option<Row>, EngineError> {
        if let Some(pred) = filter {
            if eval(pred, row, env)? != Value::Bool(true) {
                return Ok(None);
            }
        }
        Ok(Some(match projection {
            Some(exprs) => exprs
                .iter()
                .map(|e| eval(e, row, env))
                .collect::<Result<_, _>>()?,
            None => row.clone(),
        }))
    };
    match source {
        PhysicalPlan::SeqScan { table } => {
            let t = catalog.table(table)?;
            for (_, row) in t.iter() {
                if out.len() >= need {
                    break;
                }
                env.charge_row()?;
                env.rowmode_rows += 1;
                if let Some(p) = produce(row, env)? {
                    out.push(p);
                }
            }
        }
        PhysicalPlan::IndexLookup {
            table,
            index_cols,
            key,
        } => {
            let (t, ids) = resolve_index_bucket(table, index_cols, key, env)?;
            for &id in ids {
                if out.len() >= need {
                    break;
                }
                env.charge_row()?;
                env.rowmode_rows += 1;
                let row = t.get(id).expect("index buckets hold live ids");
                if let Some(p) = produce(row, env)? {
                    out.push(p);
                }
            }
        }
        _ => return Ok(None),
    }
    let start = (offset as usize).min(out.len());
    Ok(Some(out[start..].to_vec()))
}

/// Slice materialised rows to a `LIMIT`/`OFFSET` window.
fn limit_slice(rows: Vec<Row>, limit: Option<u64>, offset: u64) -> Vec<Row> {
    let start = (offset as usize).min(rows.len());
    let end = match limit {
        Some(l) => (start + l as usize).min(rows.len()),
        None => rows.len(),
    };
    rows[start..end].to_vec()
}

/// Bag/set union of materialised inputs.
fn union_rows(mut l: Vec<Row>, r: Vec<Row>, all: bool) -> Vec<Row> {
    l.extend(r);
    if all {
        l
    } else {
        dedup(l)
    }
}

/// Bag/set difference of materialised inputs.
fn except_rows(l: Vec<Row>, r: Vec<Row>, all: bool) -> Vec<Row> {
    if all {
        // Bag difference: remove one occurrence per right row.
        let mut counts: FxHashMap<Row, usize> =
            FxHashMap::with_capacity_and_hasher(r.len(), Default::default());
        for row in r {
            *counts.entry(row).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for row in l {
            match counts.get_mut(&row) {
                Some(c) if *c > 0 => *c -= 1,
                _ => out.push(row),
            }
        }
        out
    } else {
        let rset: FxHashSet<Row> = r.into_iter().collect();
        dedup(l.into_iter().filter(|row| !rset.contains(row)).collect())
    }
}

/// Bag/set intersection of materialised inputs.
fn intersect_rows(l: Vec<Row>, r: Vec<Row>, all: bool) -> Vec<Row> {
    if all {
        let mut counts: FxHashMap<Row, usize> =
            FxHashMap::with_capacity_and_hasher(r.len(), Default::default());
        for row in r {
            *counts.entry(row).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for row in l {
            if let Some(c) = counts.get_mut(&row) {
                if *c > 0 {
                    *c -= 1;
                    out.push(row);
                }
            }
        }
        out
    } else {
        let rset: FxHashSet<Row> = r.into_iter().collect();
        dedup(l.into_iter().filter(|row| rset.contains(row)).collect())
    }
}

/// Sort materialised rows stably by the given keys.
fn sort_rows(
    rows: Vec<Row>,
    keys: &[(BoundExpr, bool)],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    // Evaluate keys once per row, then sort stably.
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let k: Vec<Value> = keys
            .iter()
            .map(|(e, _)| eval(e, &row, env))
            .collect::<Result<_, _>>()?;
        keyed.push((k, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let ord = ka[i].cmp(&kb[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Order-preserving duplicate elimination.
fn dedup(rows: Vec<Row>) -> Vec<Row> {
    let mut seen: FxHashSet<Row> =
        FxHashSet::with_capacity_and_hasher(rows.len(), Default::default());
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if seen.insert(row.clone()) {
            out.push(row);
        }
    }
    out
}

/// Hash join over materialised inputs (shared by both executors).
/// `right_arity` is needed for LEFT-join NULL padding when the right
/// side produced no rows.
#[allow(clippy::too_many_arguments)]
fn hash_join_rows(
    l: Vec<Row>,
    r: Vec<Row>,
    right_arity: usize,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    join_type: JoinType,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    // Build hash table over the right side; NULL keys never match.
    let mut table: FxHashMap<Vec<Value>, Vec<usize>> =
        FxHashMap::with_capacity_and_hasher(r.len(), Default::default());
    'rows: for (i, row) in r.iter().enumerate() {
        let mut key = Vec::with_capacity(right_keys.len());
        for k in right_keys {
            let v = eval(k, row, env)?;
            if v.is_null() {
                continue 'rows;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }

    let mut out = Vec::new();
    for lrow in &l {
        let mut matched = false;
        let mut key = Vec::with_capacity(left_keys.len());
        let mut null_key = false;
        for k in left_keys {
            let v = eval(k, lrow, env)?;
            if v.is_null() {
                null_key = true;
                break;
            }
            key.push(v);
        }
        if !null_key {
            if let Some(candidates) = table.get(&key) {
                for &i in candidates {
                    // One exact-size allocation per output row; the old
                    // `lrow.clone()` + `extend` pattern allocated at the
                    // left arity and then regrew for the right half.
                    let mut row = Vec::with_capacity(lrow.len() + r[i].len());
                    row.extend_from_slice(lrow);
                    row.extend_from_slice(&r[i]);
                    let keep = match residual {
                        Some(p) => eval(p, &row, env)? == Value::Bool(true),
                        None => true,
                    };
                    if keep {
                        matched = true;
                        out.push(row);
                    }
                }
            }
        }
        if !matched && join_type == JoinType::Left {
            let mut row = Vec::with_capacity(lrow.len() + right_arity);
            row.extend_from_slice(lrow);
            row.extend(std::iter::repeat_n(Value::Null, right_arity));
            out.push(row);
        }
    }
    Ok(out)
}

/// Nested-loop join over materialised inputs (shared by both executors).
fn nested_loop_rows(
    l: Vec<Row>,
    r: Vec<Row>,
    right_arity: usize,
    predicate: Option<&BoundExpr>,
    join_type: JoinType,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let mut out = Vec::new();
    for lrow in &l {
        let mut matched = false;
        for rrow in &r {
            let mut row = Vec::with_capacity(lrow.len() + rrow.len());
            row.extend_from_slice(lrow);
            row.extend_from_slice(rrow);
            let keep = match predicate {
                Some(p) => eval(p, &row, env)? == Value::Bool(true),
                None => true,
            };
            if keep {
                matched = true;
                out.push(row);
            }
        }
        if !matched && join_type == JoinType::Left {
            let mut row = Vec::with_capacity(lrow.len() + right_arity);
            row.extend_from_slice(lrow);
            row.extend(std::iter::repeat_n(Value::Null, right_arity));
            out.push(row);
        }
    }
    Ok(out)
}

/// Accumulator for one aggregate in one group. Shared with the
/// vectorized aggregation path ([`crate::column`]), which feeds it the
/// same `Value` sequence the row-mode loop would — update/finish
/// semantics (overflow checks, type errors, DISTINCT replay) are
/// defined here once.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(i64),
    Sum {
        sum_i: i64,
        sum_f: f64,
        is_float: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    Distinct {
        values: FxHashSet<Value>,
        func: AggFunc,
    },
}

impl Acc {
    pub(crate) fn new(agg: &AggExpr) -> Acc {
        if agg.distinct {
            return Acc::Distinct {
                values: FxHashSet::default(),
                func: agg.func,
            };
        }
        match agg.func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                sum_i: 0,
                sum_f: 0.0,
                is_float: false,
                seen: false,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => Acc::MinMax {
                best: None,
                is_min: false,
            },
        }
    }

    pub(crate) fn update(&mut self, v: Option<Value>) -> Result<(), EngineError> {
        match self {
            Acc::Count(n) => match v {
                // COUNT(*) gets None (always counts); COUNT(e) skips NULLs.
                None => *n += 1,
                Some(Value::Null) => {}
                Some(_) => *n += 1,
            },
            Acc::Sum {
                sum_i,
                sum_f,
                is_float,
                seen,
            } => match v {
                Some(Value::Int(x)) => {
                    *seen = true;
                    *sum_i = sum_i
                        .checked_add(x)
                        .ok_or_else(|| EngineError::new("integer overflow in SUM"))?;
                    *sum_f += x as f64;
                }
                Some(Value::Float(x)) => {
                    *seen = true;
                    *is_float = true;
                    *sum_f += x;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(EngineError::new(format!("SUM of {}", other.type_name())))
                }
            },
            Acc::Avg { sum, n } => match v {
                Some(Value::Int(x)) => {
                    *sum += x as f64;
                    *n += 1;
                }
                Some(Value::Float(x)) => {
                    *sum += x;
                    *n += 1;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(EngineError::new(format!("AVG of {}", other.type_name())))
                }
            },
            Acc::MinMax { best, is_min } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => match v.sql_cmp(b) {
                                Some(std::cmp::Ordering::Less) => *is_min,
                                Some(std::cmp::Ordering::Greater) => !*is_min,
                                _ => false,
                            },
                        };
                        if better {
                            *best = Some(v);
                        }
                    }
                }
            }
            Acc::Distinct { values, .. } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        values.insert(v);
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<Value, EngineError> {
        Ok(match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum {
                sum_i,
                sum_f,
                is_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if is_float {
                    Value::Float(sum_f)
                } else {
                    Value::Int(sum_i)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::MinMax { best, .. } => best.unwrap_or(Value::Null),
            Acc::Distinct { values, func } => {
                let mut acc = Acc::new(&AggExpr {
                    func,
                    arg: None,
                    distinct: false,
                });
                for v in values {
                    acc.update(Some(v))?;
                }
                acc.finish()?
            }
        })
    }
}

/// Grouped aggregation over materialised input (shared by both
/// executors).
fn aggregate_rows(
    rows: Vec<Row>,
    group_exprs: &[BoundExpr],
    aggregates: &[AggExpr],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    // Deterministic group order: remember first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: FxHashMap<Vec<Value>, Vec<Acc>> =
        FxHashMap::with_capacity_and_hasher(rows.len().min(1 << 16), Default::default());
    for row in &rows {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|e| eval(e, row, env))
            .collect::<Result<_, _>>()?;
        // Entry API: the key is moved in and cloned once only for
        // first-seen groups (the old probe-then-insert path cloned it
        // twice per new group).
        let accs = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(e.key().clone());
                e.insert(aggregates.iter().map(Acc::new).collect::<Vec<_>>())
            }
        };
        for (acc, agg) in accs.iter_mut().zip(aggregates) {
            let v = match &agg.arg {
                Some(e) => Some(eval(e, row, env)?),
                None => None,
            };
            acc.update(v)?;
        }
    }
    // Global aggregate over an empty input still yields one row.
    if group_exprs.is_empty() && groups.is_empty() {
        let accs: Vec<Acc> = aggregates.iter().map(Acc::new).collect();
        let mut row = Vec::new();
        for acc in accs {
            row.push(acc.finish()?);
        }
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group recorded");
        let mut row = key;
        for acc in accs {
            row.push(acc.finish()?);
        }
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::{Column, DataType, TableSchema};

    fn catalog_with_t() -> Catalog {
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
        let t = c.table_mut("t").unwrap();
        for (a, b) in [(1, "x"), (2, "y"), (3, "x")] {
            t.insert(vec![Value::Int(a), Value::text(b)]).unwrap();
        }
        c
    }

    fn run(c: &Catalog, plan: &LogicalPlan) -> Vec<Row> {
        let mut env = EvalEnv::new(c);
        execute(plan, &mut env).unwrap()
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan { table: "t".into() }
    }

    #[test]
    fn scan_and_filter() {
        let c = catalog_with_t();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Binary {
                op: hippo_sql::BinaryOp::Gt,
                left: Box::new(BoundExpr::Column(0)),
                right: Box::new(BoundExpr::Literal(Value::Int(1))),
            },
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn cross_join_sizes() {
        let c = catalog_with_t();
        let plan = LogicalPlan::CrossJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
        };
        assert_eq!(run(&c, &plan).len(), 9);
    }

    #[test]
    fn hash_join_inner_and_left() {
        let c = catalog_with_t();
        // join t with itself on b
        let join = |jt| LogicalPlan::HashJoin {
            left: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: BoundExpr::Binary {
                    op: hippo_sql::BinaryOp::Eq,
                    left: Box::new(BoundExpr::Column(0)),
                    right: Box::new(BoundExpr::Literal(Value::Int(1))),
                },
            }),
            right: Box::new(scan()),
            left_keys: vec![BoundExpr::Column(1)],
            right_keys: vec![BoundExpr::Column(1)],
            residual: None,
            join_type: jt,
        };
        // left side = (1, x); matches rows with b=x: (1,x),(3,x)
        assert_eq!(run(&c, &join(JoinType::Inner)).len(), 2);
        assert_eq!(run(&c, &join(JoinType::Left)).len(), 2);
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut c = catalog_with_t();
        c.create_table(
            TableSchema::new("empty", vec![Column::new("z", DataType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let plan = LogicalPlan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(LogicalPlan::Scan {
                table: "empty".into(),
            }),
            predicate: None,
            join_type: JoinType::Left,
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 3 && r[2] == Value::Null));
    }

    #[test]
    fn null_keys_never_join() {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new("n", vec![Column::new("k", DataType::Int)], &[]).unwrap())
            .unwrap();
        c.table_mut("n").unwrap().insert(vec![Value::Null]).unwrap();
        let plan = LogicalPlan::HashJoin {
            left: Box::new(LogicalPlan::Scan { table: "n".into() }),
            right: Box::new(LogicalPlan::Scan { table: "n".into() }),
            left_keys: vec![BoundExpr::Column(0)],
            right_keys: vec![BoundExpr::Column(0)],
            residual: None,
            join_type: JoinType::Inner,
        };
        assert!(run(&c, &plan).is_empty());
    }

    #[test]
    fn set_operations() {
        let c = Catalog::new();
        let vals = |xs: &[i64]| {
            LogicalPlan::values_literal(xs.iter().map(|&x| vec![Value::Int(x)]).collect(), 1)
        };
        let union = LogicalPlan::Union {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 3])),
            all: false,
        };
        assert_eq!(run(&c, &union).len(), 3);
        let union_all = LogicalPlan::Union {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 3])),
            all: true,
        };
        assert_eq!(run(&c, &union_all).len(), 5);
        let except = LogicalPlan::Except {
            left: Box::new(vals(&[1, 2, 2, 3])),
            right: Box::new(vals(&[2])),
            all: false,
        };
        assert_eq!(
            run(&c, &except),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
        let except_all = LogicalPlan::Except {
            left: Box::new(vals(&[1, 2, 2, 3])),
            right: Box::new(vals(&[2])),
            all: true,
        };
        assert_eq!(
            run(&c, &except_all).len(),
            3,
            "EXCEPT ALL removes one occurrence"
        );
        let intersect = LogicalPlan::Intersect {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 2, 3])),
            all: false,
        };
        assert_eq!(run(&c, &intersect), vec![vec![Value::Int(2)]]);
        let intersect_all = LogicalPlan::Intersect {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 2, 3])),
            all: true,
        };
        assert_eq!(run(&c, &intersect_all).len(), 2);
    }

    #[test]
    fn distinct_dedups_preserving_order() {
        let c = Catalog::new();
        let plan = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::values_literal(
                vec![
                    vec![Value::Int(2)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                ],
                1,
            )),
        };
        assert_eq!(
            run(&c, &plan),
            vec![vec![Value::Int(2)], vec![Value::Int(1)]]
        );
    }

    #[test]
    fn aggregate_group_by() {
        let c = catalog_with_t();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_exprs: vec![BoundExpr::Column(1)],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
            ],
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 2);
        // groups in first-seen order: x then y
        assert_eq!(
            rows[0],
            vec![
                Value::text("x"),
                Value::Int(2),
                Value::Int(4),
                Value::Int(1),
                Value::Int(3),
                Value::Float(2.0)
            ]
        );
        assert_eq!(rows[1][0], Value::text("y"));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let c = Catalog::new();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Empty { arity: 1 }),
            group_exprs: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
            ],
        };
        let rows = run(&c, &plan);
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn count_distinct() {
        let c = Catalog::new();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::values_literal(
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                    vec![Value::Null],
                ],
                1,
            )),
            group_exprs: vec![],
            aggregates: vec![AggExpr {
                func: AggFunc::Count,
                arg: Some(BoundExpr::Column(0)),
                distinct: true,
            }],
        };
        assert_eq!(run(&c, &plan), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn sort_and_limit() {
        let c = catalog_with_t();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![(BoundExpr::Column(0), true)],
            }),
            limit: Some(2),
            offset: 1,
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(rows[1][0], Value::Int(1));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let c = Catalog::new();
        let input = LogicalPlan::values_literal(vec![vec![Value::Int(1)], vec![Value::Null]], 1);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Count,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
            ],
        };
        assert_eq!(run(&c, &plan), vec![vec![Value::Int(2), Value::Int(1)]]);
    }
}
