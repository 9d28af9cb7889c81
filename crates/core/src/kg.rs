//! Knowledge gathering: the extended-envelope optimization.
//!
//! In the base system, the Prover resolves every literal `fact ∈ D?` with a
//! separate membership query against the RDBMS — the paper identifies this
//! as the dominant cost. Knowledge gathering rewrites the envelope query so
//! the *same single evaluation* also returns, per candidate tuple, the
//! truth of every membership the prover could ask: one extra boolean
//! column (`EXISTS (SELECT … FROM rel WHERE …)`) per literal template.
//! The prover then answers membership checks from the fetched flags and
//! issues **zero** queries against the database.
//!
//! This module also houses the base-mode membership sources. They read
//! through the engine's one read surface, a frozen, `Sync`
//! [`DbSnapshot`] (a live [`hippo_engine::Database`] derefs to one), and
//! the answer pipeline runs base mode against the snapshot it answers
//! on: every prover shard owns a
//! [`MemoSqlMembership`], which compiles each literal's probe **once**
//! into a prepared physical plan (an `IndexLookup` when the relation
//! has a covering hash index) and re-executes it per candidate binding,
//! memoized so the shard pays one probe per distinct fact instead of
//! one per check. No SQL text is rendered, parsed or optimized on the
//! hot path.
//!
//! # NULL-bearing facts
//!
//! Membership is **value equality**: a fact holding a NULL is in `D` iff
//! an identical row is — the semantics of repairs, and of set difference.
//! SQL `=` never matches a NULL, so every source decides NULL-free facts
//! through its equality lookup and settles NULL-bearing ones directly:
//! [`settle_null_flags`] re-decides the extended envelope's false flags,
//! the prepared probes of [`MemoSqlMembership`] fall back to a scan of
//! the relation, and the per-check SQL probe renders `col IS NULL`.

use crate::formula::{LitTemplate, MembershipTemplate};
use crate::pred::value_to_sql;
use crate::prover::MembershipSource;
use crate::query::SjudQuery;
use hippo_engine::{Catalog, DbSnapshot, EngineError, Row, Value};
use hippo_sql::{Expr, Query, SelectCore, SelectItem, TableRef};
use rustc_hash::{FxHashMap, FxHashSet};

/// Build the extended envelope query: envelope columns `c0..c{n-1}` plus
/// one membership flag `f0..f{m-1}` per literal template.
pub fn extended_envelope_sql(
    envelope: &SjudQuery,
    template: &MembershipTemplate,
    catalog: &Catalog,
) -> Result<Query, EngineError> {
    let arity = envelope.validate(catalog)?;
    let inner = envelope.to_sql_query(catalog)?;
    let mut core = SelectCore::empty();
    core.from = vec![TableRef::Subquery {
        query: Box::new(inner),
        alias: "e".into(),
    }];
    core.projection = (0..arity)
        .map(|i| SelectItem::Expr {
            expr: Expr::qcol("e", format!("c{i}")),
            alias: Some(format!("c{i}")),
        })
        .collect();
    for (fi, lit) in template.literals.iter().enumerate() {
        core.projection.push(SelectItem::Expr {
            expr: membership_exists_expr(lit, catalog)?,
            alias: Some(format!("f{fi}")),
        });
    }
    Ok(Query::Select(Box::new(core)))
}

/// `EXISTS (SELECT * FROM rel WHERE rel.col_j = e.c{lit.cols[j]} ...)`.
fn membership_exists_expr(lit: &LitTemplate, catalog: &Catalog) -> Result<Expr, EngineError> {
    let schema = &catalog.table(&lit.rel)?.schema;
    if schema.arity() != lit.cols.len() {
        return Err(EngineError::new(format!(
            "literal template arity mismatch for {:?}",
            lit.rel
        )));
    }
    let mut sub = SelectCore::empty();
    sub.projection = vec![SelectItem::Wildcard];
    sub.from = vec![TableRef::Table {
        name: lit.rel.clone(),
        alias: Some("m".into()),
    }];
    let cond = Expr::conjoin(schema.columns.iter().enumerate().map(|(j, col)| {
        Expr::qcol("m", col.name.clone()).eq(Expr::qcol("e", format!("c{}", lit.cols[j])))
    }))
    .expect("relations have at least one column");
    sub.filter = Some(cond);
    Ok(Expr::Exists {
        query: Box::new(Query::Select(Box::new(sub))),
        negated: false,
    })
}

/// The result of one extended-envelope evaluation: candidates plus their
/// prefetched membership flags.
#[derive(Debug, Clone)]
pub struct GatheredCandidates {
    /// Candidate tuples (envelope columns only).
    pub candidates: Vec<Row>,
    /// `flags[i][fi]` = is literal `fi`'s fact (instantiated with candidate
    /// `i`) present in the database?
    pub flags: Vec<Vec<bool>>,
}

/// Split the raw rows of the extended envelope into candidates and flags.
pub fn split_gathered(rows: Vec<Row>, arity: usize, n_literals: usize) -> GatheredCandidates {
    let mut candidates = Vec::with_capacity(rows.len());
    let mut flags = Vec::with_capacity(rows.len());
    for row in rows {
        debug_assert_eq!(row.len(), arity + n_literals);
        let mut it = row.into_iter();
        let cand: Row = it.by_ref().take(arity).collect();
        let f: Vec<bool> = it.map(|v| v == hippo_engine::Value::Bool(true)).collect();
        candidates.push(cand);
        flags.push(f);
    }
    GatheredCandidates { candidates, flags }
}

/// Settle the flags of NULL-bearing facts (see the module doc): the
/// extended envelope's `EXISTS` leaves each one false, so each false flag
/// whose fact holds a NULL is re-decided against the set of the
/// relation's NULL-bearing rows, built on first use. NULL-free instances
/// pay one pass over the false flags.
pub fn settle_null_flags(
    gathered: &mut GatheredCandidates,
    template: &MembershipTemplate,
    catalog: &Catalog,
) -> Result<(), EngineError> {
    let mut null_rows: FxHashMap<&str, FxHashSet<&[Value]>> = FxHashMap::default();
    let mut fact = Row::new();
    for (cand, flags) in gathered.candidates.iter().zip(&mut gathered.flags) {
        for (li, lit) in template.literals.iter().enumerate() {
            if flags[li] || !lit.cols.iter().any(|&c| cand[c].is_null()) {
                continue;
            }
            let rows = match null_rows.entry(&lit.rel) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => e.insert(
                    catalog
                        .table(&lit.rel)?
                        .iter()
                        .map(|(_, r)| r.as_slice())
                        .filter(|r| r.iter().any(Value::is_null))
                        .collect(),
                ),
            };
            fact.clear();
            fact.extend(lit.cols.iter().map(|&c| cand[c].clone()));
            flags[li] = rows.contains(fact.as_slice());
        }
    }
    Ok(())
}

/// A [`MembershipSource`] answering from gathered flags for the current
/// candidate. Construction is allocation-free: it borrows the template,
/// the candidate tuple and the flag slice — which is what makes it the
/// per-candidate view of the **parallel answer pipeline** (see
/// [`crate::hippo`]): every prover shard builds one of these per
/// candidate over the shared read-only flag matrix and passes it `&mut`
/// into [`crate::prover::Prover::is_consistent_answer`]; no shard ever
/// touches the engine handle.
///
/// The prover only ever asks about the facts the literal templates produce
/// for the current tuple, and it knows *which* literal it is asking about,
/// so the fast path ([`MembershipSource::literal_in_db`]) is a bare array
/// access into the prefetched flags — no hashing, no allocation, no
/// comparison. The by-value path ([`MembershipSource::fact_in_db`]) is
/// kept for generic callers and matches the (query-size-bounded) literal
/// templates against the borrowed key column-by-column, so no fact is ever
/// instantiated; the former `HashMap<(String, Row), bool>` keyed lookup —
/// which cloned the relation name *and* the row on every probe — is gone.
pub struct GatheredMembership<'a> {
    template: &'a MembershipTemplate,
    tuple: &'a Row,
    flags: &'a [bool],
    /// Checks that could not be answered from gathered knowledge (should
    /// stay zero; tested).
    pub misses: usize,
}

impl<'a> GatheredMembership<'a> {
    /// Build for one candidate; `flags` are the prefetched per-literal
    /// membership answers, parallel to `template.literals`.
    pub fn for_candidate(
        template: &'a MembershipTemplate,
        tuple: &'a Row,
        flags: &'a [bool],
    ) -> GatheredMembership<'a> {
        debug_assert_eq!(template.literals.len(), flags.len());
        GatheredMembership {
            template,
            tuple,
            flags,
            misses: 0,
        }
    }

    /// Would literal `lit`, instantiated with the current tuple, produce
    /// exactly the fact `(rel, values)`? Borrowed comparison, no build.
    fn literal_matches(&self, lit: &LitTemplate, rel: &str, values: &Row) -> bool {
        lit.rel == rel
            && lit.cols.len() == values.len()
            && lit
                .cols
                .iter()
                .zip(values)
                .all(|(&c, v)| &self.tuple[c] == v)
    }
}

impl MembershipSource for GatheredMembership<'_> {
    fn fact_in_db(&mut self, rel: &str, values: &Row) -> Result<bool, EngineError> {
        match self
            .template
            .literals
            .iter()
            .position(|lit| self.literal_matches(lit, rel, values))
        {
            Some(fi) => Ok(self.flags[fi]),
            None => {
                self.misses += 1;
                Err(EngineError::new(format!(
                    "knowledge gathering miss for fact {rel}{values:?}"
                )))
            }
        }
    }

    fn literal_in_db(&mut self, li: usize, _rel: &str, _values: &Row) -> Result<bool, EngineError> {
        Ok(self.flags[li])
    }
}

/// Render the membership probe `SELECT 1 FROM rel WHERE col = v … LIMIT 1`,
/// with `col IS NULL` for a NULL `v`.
fn membership_probe_sql(catalog: &Catalog, rel: &str, values: &Row) -> Result<String, EngineError> {
    let schema = &catalog.table(rel)?.schema;
    let mut core = SelectCore::empty();
    core.projection = vec![SelectItem::Expr {
        expr: Expr::int(1),
        alias: None,
    }];
    core.from = vec![TableRef::Table {
        name: rel.to_string(),
        alias: None,
    }];
    core.filter = Expr::conjoin(schema.columns.iter().zip(values).map(|(c, v)| match v {
        Value::Null => Expr::IsNull {
            expr: Box::new(Expr::col(c.name.clone())),
            negated: false,
        },
        _ => Expr::col(c.name.clone()).eq(value_to_sql(v)),
    }));
    core.limit = Some(1);
    Ok(hippo_sql::print_query(&Query::Select(Box::new(core))))
}

/// A [`MembershipSource`] that issues one SQL membership query per check —
/// the base system's behaviour, whose cost the KG optimization removes.
/// Kept as the test oracle of the prepared-probe path
/// ([`MemoSqlMembership`]); a [`hippo_engine::Database`] passes as its
/// read half.
pub struct SqlMembership<'a> {
    /// The snapshot to query.
    pub db: &'a DbSnapshot,
    /// Number of SQL queries issued.
    pub queries_issued: usize,
}

impl<'a> SqlMembership<'a> {
    /// Constructor.
    pub fn new(db: &'a DbSnapshot) -> Self {
        SqlMembership {
            db,
            queries_issued: 0,
        }
    }
}

impl MembershipSource for SqlMembership<'_> {
    fn fact_in_db(&mut self, rel: &str, values: &Row) -> Result<bool, EngineError> {
        let sql = membership_probe_sql(self.db.catalog(), rel, values)?;
        self.queries_issued += 1;
        Ok(!self.db.query(&sql)?.is_empty())
    }
}

/// One literal's membership probe, compiled **once** to a prepared
/// physical plan and re-executed per candidate binding.
struct PreparedProbe {
    /// The physical plan: `LimitExec 1` over `ProjectExec [1]` over the
    /// chosen access path — an `IndexLookup` keyed by `Param`s when the
    /// relation has a covering index, a filtered `SeqScan` otherwise.
    plan: hippo_engine::PhysicalPlan,
    /// Whether the chosen access path is an index lookup.
    uses_index: bool,
}

impl PreparedProbe {
    /// Compile the probe `SELECT 1 FROM rel WHERE c0 = $0 AND … LIMIT 1`
    /// for `lit`'s relation: build the logical pipeline with `Param`
    /// placeholders, then let the optimizer pick the access path.
    /// Parameter bindings come from candidate projections over the same
    /// columns, so their types always match (or are `NULL`, which
    /// matches nothing) — the contract index-safe `Param` keys require.
    fn compile(
        catalog: &Catalog,
        lit: &LitTemplate,
        use_indexes: bool,
    ) -> Result<PreparedProbe, EngineError> {
        use hippo_engine::BoundExpr;
        let schema = &catalog.table(&lit.rel)?.schema;
        if schema.arity() != lit.cols.len() {
            return Err(EngineError::new(format!(
                "literal template arity mismatch for {:?}",
                lit.rel
            )));
        }
        let predicate = BoundExpr::conjoin((0..schema.arity()).map(|j| BoundExpr::Binary {
            op: hippo_sql::BinaryOp::Eq,
            left: Box::new(BoundExpr::Column(j)),
            right: Box::new(BoundExpr::Param(j)),
        }));
        let plan = hippo_engine::LogicalPlan::Limit {
            input: Box::new(hippo_engine::LogicalPlan::Project {
                input: Box::new(hippo_engine::LogicalPlan::Filter {
                    input: Box::new(hippo_engine::LogicalPlan::Scan {
                        table: lit.rel.clone(),
                    }),
                    predicate,
                }),
                exprs: vec![BoundExpr::Literal(hippo_engine::Value::Int(1))],
            }),
            limit: Some(1),
            offset: 0,
        };
        let plan = hippo_engine::physicalize_with(
            plan,
            catalog,
            &hippo_engine::PhysicalOptions { use_indexes },
        );
        let uses_index = plan.uses_index();
        Ok(PreparedProbe { plan, uses_index })
    }
}

/// The base-mode shard's flag gatherer: resolves the per-literal
/// membership flags of one candidate through **prepared physical
/// probes** against a frozen snapshot, memoized per literal. At
/// construction each literal's probe is compiled once — access path
/// and all — so the steady state has no SQL text, no parsing, no
/// binding and no optimization: a memo miss is one
/// [`DbSnapshot::run_prepared`] call, which on an
/// indexed relation is a hash-bucket probe (O(1) per candidate) and on
/// an unindexed one an early-exiting scan. The memo is keyed by
/// `(literal, projected key values)` and lives for the whole shard, so
/// across a shard's candidates each distinct fact pays exactly one
/// probe — the per-shard analog of what knowledge gathering prefetches
/// in one envelope query. Shards are fixed slices of the candidate
/// list, so `queries_issued` / `memo_hits` / the probe-kind counters
/// are bit-identical for any worker count.
pub struct MemoSqlMembership<'a> {
    snapshot: &'a DbSnapshot,
    template: &'a MembershipTemplate,
    /// Per-literal prepared probe plans, parallel to `template.literals`.
    probes: Vec<PreparedProbe>,
    /// Per-literal memo: projected literal row → membership flag. (The
    /// template already dedups identical literals, so per-literal slots
    /// never probe the same fact twice for one candidate; the memo's
    /// win is *across* candidates — shared projections of product /
    /// permuted candidates, and any repeated envelope row.)
    memo: Vec<rustc_hash::FxHashMap<Row, bool>>,
    /// Reusable projection buffer.
    row_buf: Row,
    /// Probes actually executed (memo misses).
    pub queries_issued: usize,
    /// Checks answered from the memo.
    pub memo_hits: usize,
    /// Executed probes whose access path was an `IndexLookup`.
    pub index_probes: usize,
    /// Executed probes whose access path was a sequential scan.
    pub scan_probes: usize,
    /// Per-call budget governing the probe executions (stage
    /// `"membership"`); `None` on ungoverned calls — the probes then
    /// run the exact pre-governance path.
    budget: Option<&'a hippo_engine::Budget>,
}

impl<'a> MemoSqlMembership<'a> {
    /// Compile one prepared probe per literal template against the
    /// snapshot's catalog. `use_indexes` selects the access path
    /// (`false` forces the sequential-scan plans — the pre-optimizer
    /// behaviour, kept for differential tests and ablations).
    pub fn new(
        snapshot: &'a DbSnapshot,
        template: &'a MembershipTemplate,
        use_indexes: bool,
    ) -> Result<Self, EngineError> {
        let probes = template
            .literals
            .iter()
            .map(|lit| PreparedProbe::compile(snapshot.catalog(), lit, use_indexes))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MemoSqlMembership {
            snapshot,
            template,
            probes,
            memo: vec![rustc_hash::FxHashMap::default(); template.literals.len()],
            row_buf: Row::new(),
            queries_issued: 0,
            memo_hits: 0,
            index_probes: 0,
            scan_probes: 0,
            budget: None,
        })
    }

    /// Govern this gatherer's probe executions: each executed probe
    /// charges its result rows against `budget` and checks it under the
    /// `"membership"` stage label.
    pub fn with_budget(mut self, budget: Option<&'a hippo_engine::Budget>) -> Self {
        self.budget = budget;
        self
    }

    /// Resolve every literal's membership flag for `candidate` into
    /// `flags` (cleared first), consulting the memo before the snapshot.
    pub fn gather_flags(
        &mut self,
        candidate: &Row,
        flags: &mut Vec<bool>,
    ) -> Result<(), EngineError> {
        flags.clear();
        for (li, lit) in self.template.literals.iter().enumerate() {
            self.row_buf.clear();
            self.row_buf
                .extend(lit.cols.iter().map(|&c| candidate[c].clone()));
            let memo = &mut self.memo[li];
            let flag = match memo.get(self.row_buf.as_slice()) {
                Some(&b) => {
                    self.memo_hits += 1;
                    b
                }
                None => {
                    let probe = &self.probes[li];
                    self.queries_issued += 1;
                    // Execute against the frozen catalog directly and
                    // count locally — per-probe atomics on the shared
                    // snapshot stats would contend across shards at
                    // sub-microsecond probe cost. The totals fold into
                    // the snapshot in one `record_prepared` call when
                    // the shard finishes (see `flush_backend_stats`).
                    let b = if self.row_buf.iter().any(Value::is_null) {
                        // `=` keys cannot match a NULL: value equality
                        // by scan (see the module doc).
                        self.scan_probes += 1;
                        if let Some(budget) = self.budget {
                            budget.check("membership")?;
                        }
                        let table = self.snapshot.catalog().table(&lit.rel)?;
                        table.iter().any(|(_, r)| r == &self.row_buf)
                    } else {
                        if probe.uses_index {
                            self.index_probes += 1;
                        } else {
                            self.scan_probes += 1;
                        }
                        !hippo_engine::exec::execute_physical_params_governed(
                            &probe.plan,
                            self.snapshot.catalog(),
                            &self.row_buf,
                            self.budget,
                            "membership",
                        )?
                        .is_empty()
                    };
                    memo.insert(self.row_buf.clone(), b);
                    b
                }
            };
            flags.push(flag);
        }
        Ok(())
    }

    /// Fold this gatherer's probe totals into the snapshot's statistics
    /// in one batch (exact accounting, one atomic round instead of one
    /// per probe). Call once when the shard is done.
    pub fn flush_backend_stats(&self) {
        self.snapshot
            .record_prepared(self.queries_issued, self.index_probes, self.scan_probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::envelope;
    use crate::pred::{CmpOp, Pred};
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for name in ["r", "s"] {
            db.catalog_mut()
                .create_table(
                    TableSchema::new(
                        name,
                        vec![
                            Column::new("a", DataType::Int),
                            Column::new("b", DataType::Int),
                        ],
                        &[],
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        db.insert_rows(
            "r",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        db.insert_rows("s", vec![vec![Value::Int(1), Value::Int(10)]])
            .unwrap();
        db
    }

    #[test]
    fn extended_envelope_carries_flags() {
        let db = db();
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let env = envelope(&q);
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert_eq!(template.literals.len(), 2);
        let sql_q = extended_envelope_sql(&env, &template, db.catalog()).unwrap();
        let sql = hippo_sql::print_query(&sql_q);
        let result = db.query(&sql).unwrap();
        assert_eq!(result.columns, vec!["c0", "c1", "f0", "f1"]);
        let gathered = split_gathered(result.rows, 2, 2);
        assert_eq!(gathered.candidates.len(), 2);
        // Candidate (1,10): in r (f0) and in s (f1). Candidate (2,20): in r only.
        for (cand, flags) in gathered.candidates.iter().zip(&gathered.flags) {
            if cand[0] == Value::Int(1) {
                assert_eq!(flags, &vec![true, true]);
            } else {
                assert_eq!(flags, &vec![true, false]);
            }
        }
    }

    #[test]
    fn gathered_membership_answers_without_queries() {
        let db = db();
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let tuple = vec![Value::Int(1), Value::Int(10)];
        let mut m = GatheredMembership::for_candidate(&template, &tuple, &[true, false]);
        assert!(m.fact_in_db("r", &tuple).unwrap());
        assert!(!m.fact_in_db("s", &tuple).unwrap());
        assert_eq!(m.misses, 0);
        // Unknown fact is a miss (the prover never asks for one).
        assert!(m
            .fact_in_db("r", &vec![Value::Int(9), Value::Int(9)])
            .is_err());
        assert_eq!(m.misses, 1);
    }

    #[test]
    fn sql_membership_counts_queries() {
        let db = db();
        let mut m = SqlMembership::new(&db);
        assert!(m
            .fact_in_db("r", &vec![Value::Int(1), Value::Int(10)])
            .unwrap());
        assert!(!m
            .fact_in_db("r", &vec![Value::Int(9), Value::Int(9)])
            .unwrap());
        assert_eq!(m.queries_issued, 2);
    }

    #[test]
    fn flags_agree_with_sql_membership() {
        let db = db();
        let q = SjudQuery::rel("r")
            .select(Pred::cmp_const(1, CmpOp::Ge, 0i64))
            .diff(SjudQuery::rel("s"));
        let env = envelope(&q);
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let sql_q = extended_envelope_sql(&env, &template, db.catalog()).unwrap();
        let result = db.query(&hippo_sql::print_query(&sql_q)).unwrap();
        let arity = 2;
        let gathered = split_gathered(result.rows, arity, template.literals.len());
        let mut sqlm = SqlMembership::new(&db);
        for (cand, flags) in gathered.candidates.iter().zip(&gathered.flags) {
            for (fi, lit) in template.literals.iter().enumerate() {
                let fact = lit.instantiate(cand);
                let expected = sqlm.fact_in_db(&fact.rel, &fact.values).unwrap();
                assert_eq!(flags[fi], expected, "candidate {cand:?} literal {fi}");
            }
        }
    }

    #[test]
    fn null_bearing_facts_are_members_by_value() {
        let mut db = db();
        db.execute("INSERT INTO r VALUES (3, NULL), (NULL, NULL)")
            .unwrap();
        db.execute("INSERT INTO s VALUES (3, NULL)").unwrap();
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let sql_q = extended_envelope_sql(&envelope(&q), &template, db.catalog()).unwrap();
        let result = db.query(&hippo_sql::print_query(&sql_q)).unwrap();
        let mut gathered = split_gathered(result.rows, 2, template.literals.len());
        settle_null_flags(&mut gathered, &template, db.catalog()).unwrap();
        let snapshot = db.snapshot();
        let mut memo = MemoSqlMembership::new(&snapshot, &template, true).unwrap();
        let mut sqlm = SqlMembership::new(&db);
        let (mut probed, mut checked) = (Vec::new(), 0);
        for (cand, flags) in gathered.candidates.iter().zip(&gathered.flags) {
            // (3,NULL) is in r and s, (NULL,NULL) in r only, the rest
            // NULL-free.
            let in_s = cand == &vec![Value::Int(3), Value::Null] || cand[0] == Value::Int(1);
            assert_eq!(flags, &vec![true, in_s], "candidate {cand:?}");
            memo.gather_flags(cand, &mut probed).unwrap();
            assert_eq!(&probed, flags, "prepared probes, candidate {cand:?}");
            for (fi, lit) in template.literals.iter().enumerate() {
                let fact = lit.instantiate(cand);
                let got = sqlm.fact_in_db(&fact.rel, &fact.values).unwrap();
                assert_eq!(got, flags[fi], "SQL probe, candidate {cand:?} literal {fi}");
            }
            checked += 1;
        }
        assert_eq!(checked, 4);
    }
}
