//! The core-filter ("true filter") optimization.
//!
//! Besides the envelope (a superset of the consistent answers), the paper's
//! optimizations include an expression selecting a *subset* of the
//! consistent answers: tuples caught by it skip the Prover entirely, which
//! can drastically reduce prover work when conflicts are sparse.
//!
//! The filter evaluates the query with
//!
//! * positive leaves on the **conflict-free core** (tuples in no conflict —
//!   a subset of every repair), and
//! * subtracted branches replaced by their **envelope on the full
//!   instance** (a superset of the branch's value in every repair).
//!
//! By induction this yields `F(D) ⊆ Q(D')` for every repair `D'`, i.e.
//! every filtered tuple is a consistent answer.
//!
//! # Per-candidate form (the answer path)
//!
//! The answer pipeline never materialises `F(D)`. An SJUD query has no
//! projection, so a candidate `t` names every fact its membership in
//! `F(D)` depends on: the literals of the query's
//! [`crate::formula::MembershipTemplate`], instantiated with slices of
//! `t`. Membership in `F(D)` is then the template formula evaluated with
//! polarity ([`crate::prover::Prover::core_accepts`]):
//!
//! * a literal in positive position holds iff its fact is in `D` (the
//!   knowledge-gathering flag) and carries no conflicting vertex — the
//!   fact is in the core;
//! * under a `Not` (a subtracted branch) a literal reads the flag alone
//!   — the branch is judged on the full instance;
//! * a `Not` nested inside a subtracted branch is `true`, which is the
//!   envelope rule `env(a − b) = env(a)`;
//! * guards (selections, permutation consistency) evaluate on `t`.
//!
//! Each case mirrors one case of the set form below, by induction on the
//! query, so the two agree on every candidate. And since
//! `F(D) ⊆ env(Q)(D)`, testing only the envelope's candidates loses
//! nothing. The test costs O(literals) hash probes per candidate and runs
//! inside the prover shards, before the signature cache and the prover.
//!
//! Both forms compare facts by value, NULLs included: the flags are
//! value-equality membership (see [`crate::kg`]), as are the core and the
//! set form's row sets.
//!
//! [`core_filter_direct`] keeps the set form as the reference the
//! per-candidate test is checked against in the tests.

use crate::envelope::envelope;
use crate::hypergraph::ConflictHypergraph;
use crate::query::SjudQuery;
use hippo_engine::{Catalog, Row};
use rustc_hash::FxHashSet;

/// Evaluate the core filter: a set of tuples guaranteed to be consistent
/// answers. `core` is the conflict-free instance view, `full` the complete
/// instance view.
pub fn core_filter_rows(
    q: &SjudQuery,
    core: &impl Fn(&str) -> Vec<Row>,
    full: &impl Fn(&str) -> Vec<Row>,
) -> Vec<Row> {
    let mut rows = eval_filter(q, core, full);
    rows.sort();
    rows.dedup();
    rows
}

fn eval_filter(
    q: &SjudQuery,
    core: &impl Fn(&str) -> Vec<Row>,
    full: &impl Fn(&str) -> Vec<Row>,
) -> Vec<Row> {
    match q {
        SjudQuery::Rel(r) => core(r),
        SjudQuery::Select { input, pred } => eval_filter(input, core, full)
            .into_iter()
            .filter(|row| pred.eval(row))
            .collect(),
        SjudQuery::Product(l, r) => {
            let lv = eval_filter(l, core, full);
            let rv = eval_filter(r, core, full);
            let mut out = Vec::with_capacity(lv.len() * rv.len());
            for a in &lv {
                for b in &rv {
                    let mut row = a.clone();
                    row.extend(b.iter().cloned());
                    out.push(row);
                }
            }
            out
        }
        SjudQuery::Union(l, r) => {
            let mut lv = eval_filter(l, core, full);
            lv.extend(eval_filter(r, core, full));
            lv
        }
        SjudQuery::Diff(l, r) => {
            // Subtract the *envelope of r over the full instance*: an
            // over-approximation of r in any repair, so what survives the
            // subtraction is absent from r in every repair.
            let renv = envelope(r);
            let rv: FxHashSet<Row> = renv.eval_over(full).into_iter().collect();
            eval_filter(l, core, full)
                .into_iter()
                .filter(|row| !rv.contains(row))
                .collect()
        }
        SjudQuery::Permute { input, perm } => eval_filter(input, core, full)
            .into_iter()
            .map(|row| perm.iter().map(|&p| row[p].clone()).collect())
            .collect(),
    }
}

/// Direct (nested-loop) evaluation of the set form over instance views:
/// the sorted filter rows. The test oracle for
/// [`crate::prover::Prover::core_accepts`].
pub fn core_filter_direct(q: &SjudQuery, catalog: &Catalog, g: &ConflictHypergraph) -> Vec<Row> {
    let core = crate::repair::core_instance(catalog, g);
    let full = |rel: &str| catalog.table(rel).map(|t| t.rows()).unwrap_or_default();
    core_filter_rows(q, &core, &full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::DenialConstraint;
    use crate::detect::detect_conflicts;
    use crate::formula::MembershipTemplate;
    use crate::pred::{CmpOp, Pred};
    use crate::prover::{CatalogMembership, Prover};
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn emp_db(rows: &[(&str, i64)]) -> Database {
        let mut db = Database::new();
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "emp",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("salary", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows(
            "emp",
            rows.iter()
                .map(|&(n, s)| vec![Value::text(n), Value::Int(s)])
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn filter_keeps_only_nonconflicting_on_relation_query() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp");
        let rows = core_filter_direct(&q, db.catalog(), &g);
        assert_eq!(rows, vec![vec![Value::text("bob"), Value::Int(300)]]);
    }

    #[test]
    fn filter_subset_of_consistent_answers_with_difference() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 50)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        // q = emp − σ_{salary < 150}(emp)
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        )));
        let filtered = core_filter_direct(&q, db.catalog(), &g);
        // Every filtered tuple must be verified consistent by the prover.
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let mut prover = Prover::new(&g, &template);
        let mut membership = CatalogMembership {
            catalog: db.catalog(),
        };
        for row in &filtered {
            assert!(
                prover.is_consistent_answer(row, &mut membership).unwrap(),
                "core filter produced non-consistent {row:?}"
            );
        }
        // bob (300): non-conflicting, not subtracted → must be caught.
        assert!(filtered.contains(&vec![Value::text("bob"), Value::Int(300)]));
        // cyd (50): fails the subtraction (subtracted on full instance).
        assert!(!filtered.contains(&vec![Value::text("cyd"), Value::Int(50)]));
    }

    #[test]
    fn filter_on_consistent_instance_equals_query_result() {
        let db = emp_db(&[("ann", 100), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 200i64));
        let filtered = core_filter_direct(&q, db.catalog(), &g);
        let direct = q.eval_on_catalog(db.catalog()).unwrap();
        assert_eq!(filtered, direct, "no conflicts → filter is exact");
    }

    #[test]
    fn filter_union_and_product() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp").product(SjudQuery::rel("emp"));
        let rows = core_filter_direct(&q, db.catalog(), &g);
        assert_eq!(rows.len(), 1, "only bob×bob survives the core");
        let q = SjudQuery::rel("emp").union(SjudQuery::rel("emp"));
        let rows = core_filter_direct(&q, db.catalog(), &g);
        assert_eq!(rows.len(), 1);
    }
}
