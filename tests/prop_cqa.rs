//! Property-based tests over randomized instances and queries.
//!
//! The central invariants of the system:
//! * repairs are independent and maximal;
//! * Hippo (every optimization level) ≡ naive repair-enumeration CQA;
//! * core filter ⊆ consistent answers ⊆ envelope;
//! * the per-candidate core test ≡ the set-form core filter, and full
//!   mode ≡ knowledge-gathering mode;
//! * query rewriting ≡ ground truth on its supported class;
//! * SJUD SQL rendering ≡ direct algebra evaluation.

use hippo::cqa::corefilter::core_filter_direct;
use hippo::cqa::detect::detect_conflicts;
use hippo::cqa::formula::MembershipTemplate;
use hippo::cqa::kg::{extended_envelope_sql, settle_null_flags, split_gathered};
use hippo::cqa::naive::naive_consistent_answers;
use hippo::cqa::prelude::*;
use hippo::cqa::prover::Prover;
use hippo::engine::{Database, Row, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// A small random instance: emp(name:int, salary:int) with values from a
/// narrow domain so conflicts happen often but repairs stay enumerable.
fn arb_instance() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..4), 0..12)
}

fn build_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (name INT, salary INT)")
        .unwrap();
    // Deduplicate: the theory assumes set instances.
    let unique: HashSet<(i64, i64)> = rows.iter().copied().collect();
    db.insert_rows(
        "emp",
        unique
            .into_iter()
            .map(|(n, s)| vec![Value::Int(n), Value::Int(s)])
            .collect(),
    )
    .unwrap();
    db
}

/// A small random SJUD query over emp.
fn arb_query() -> impl Strategy<Value = SjudQuery> {
    let leaf = Just(SjudQuery::rel("emp"));
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..4).prop_map(|(q, c)| q.select(Pred::cmp_const(1, CmpOp::Ge, c))),
            (inner.clone(), 0i64..6).prop_map(|(q, c)| q.select(Pred::cmp_const(0, CmpOp::Eq, c))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            inner.clone().prop_map(|q| q.permute(vec![1, 0])),
        ]
    })
    // Keep arity 2 everywhere: unions/diffs of same-shaped subqueries.
    .prop_filter("arity-2 only", query_arity_ok)
}

/// The per-candidate core test run over the knowledge-gathering
/// envelope's candidates — the set full mode's shards accept — sorted.
fn core_test_accepts(q: &SjudQuery, db: &Database, g: &ConflictHypergraph) -> Vec<Row> {
    let catalog = db.catalog();
    let arity = q.validate(catalog).unwrap();
    let template = MembershipTemplate::build(q, catalog).unwrap();
    let sql = extended_envelope_sql(&envelope(q), &template, catalog).unwrap();
    let rows = db.query(&hippo::sql::print_query(&sql)).unwrap().rows;
    let mut gathered = split_gathered(rows, arity, template.literals.len());
    settle_null_flags(&mut gathered, &template, catalog).unwrap();
    let prover = Prover::new(g, &template);
    let mut facts = Vec::new();
    let mut out: Vec<Row> = gathered
        .candidates
        .iter()
        .zip(&gathered.flags)
        .filter(|(c, f)| {
            prover.literal_facts(c, &mut facts);
            prover.core_accepts(c, f, &facts)
        })
        .map(|(c, _)| c.clone())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Full mode at 1 and 4 prover threads, ungoverned and under a generous
/// row budget: the core test accepts as many candidates as the oracle
/// holds, and the answers equal knowledge-gathering mode's.
fn assert_full_mode_agrees(hippo: &mut Hippo, q: &SjudQuery) {
    let oracle = core_filter_direct(q, hippo.db().catalog(), hippo.graph()).len();
    hippo.options = HippoOptions::kg();
    let kg = hippo.consistent_answers(q).unwrap();
    for threads in [1, 4] {
        for opts in [
            HippoOptions::full(),
            HippoOptions::full().with_row_budget(1 << 40),
        ] {
            hippo.options = opts.with_prover_threads(threads);
            let ans = hippo.consistent_answers_governed(q).unwrap();
            assert!(
                ans.completeness.is_complete(),
                "query {q} threads {threads}"
            );
            assert_eq!(ans.rows, kg, "full vs kg: query {q} threads {threads}");
            assert_eq!(
                ans.stats.filtered_consistent, oracle,
                "filtered vs oracle: query {q} threads {threads}"
            );
        }
    }
}

fn query_arity_ok(q: &SjudQuery) -> bool {
    fn arity(q: &SjudQuery) -> Option<usize> {
        match q {
            SjudQuery::Rel(_) => Some(2),
            SjudQuery::Select { input, .. } => arity(input),
            SjudQuery::Product(l, r) => Some(arity(l)? + arity(r)?),
            SjudQuery::Union(l, r) | SjudQuery::Diff(l, r) => {
                let (a, b) = (arity(l)?, arity(r)?);
                (a == b).then_some(a)
            }
            SjudQuery::Permute { input, perm } => {
                let a = arity(input)?;
                (perm.iter().all(|&p| p < a) && (0..a).all(|c| perm.contains(&c)))
                    .then_some(perm.len())
            }
        }
    }
    arity(q).is_some()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn repairs_are_independent_and_maximal(rows in arb_instance()) {
        let db = build_db(&rows);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let repairs = enumerate_repairs(&g, None);
        prop_assert!(!repairs.is_empty(), "at least one repair always exists");
        for r in &repairs {
            prop_assert!(is_repair(&g, r));
        }
        // Repairs are pairwise incomparable (no repair contains another).
        for a in &repairs {
            for b in &repairs {
                if a != b {
                    prop_assert!(!a.is_subset(b), "repairs must be ⊆-incomparable");
                }
            }
        }
    }

    #[test]
    fn hippo_equals_naive_ground_truth(rows in arb_instance(), q in arb_query()) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        for opts in [HippoOptions::base(), HippoOptions::kg(), HippoOptions::full()] {
            let hippo = Hippo::with_options(build_db(&rows), constraints.clone(), opts.clone()).unwrap();
            let got = hippo.consistent_answers(&q).unwrap();
            prop_assert_eq!(&got, &truth, "query {} opts {:?}", q, opts);
        }
        assert_full_mode_agrees(&mut Hippo::new(db, constraints).unwrap(), &q);
    }

    #[test]
    fn filter_subset_consistent_subset_envelope(rows in arb_instance(), q in arb_query()) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let truth: HashSet<Row> =
            naive_consistent_answers(&q, db.catalog(), &g).into_iter().collect();
        // core filter ⊆ consistent
        for row in core_filter_direct(&q, db.catalog(), &g) {
            prop_assert!(truth.contains(&row), "filter overclaims {:?} for {}", row, q);
        }
        // consistent ⊆ envelope(D)
        let env_rows: HashSet<Row> =
            envelope(&q).eval_on_catalog(db.catalog()).unwrap().into_iter().collect();
        for row in &truth {
            prop_assert!(env_rows.contains(row), "envelope misses {:?} for {}", row, q);
        }
    }

    #[test]
    fn rewriting_equals_truth_on_supported_class(rows in arb_instance(), sel in 0i64..4) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        // An SJD query: σ(emp) − σ(emp).
        let q = SjudQuery::rel("emp")
            .select(Pred::cmp_const(1, CmpOp::Ge, sel))
            .diff(SjudQuery::rel("emp").select(Pred::cmp_const(0, CmpOp::Eq, sel)));
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        prop_assert_eq!(rewritten, truth);
    }

    #[test]
    fn sql_rendering_matches_algebra_eval(rows in arb_instance(), q in arb_query()) {
        let db = build_db(&rows);
        let sql = q.to_sql(db.catalog()).unwrap();
        let mut via_sql = db.query(&sql).unwrap().rows;
        via_sql.sort();
        via_sql.dedup();
        let direct = q.eval_on_catalog(db.catalog()).unwrap();
        prop_assert_eq!(via_sql, direct, "query {} sql {}", q, sql);
    }

    #[test]
    fn consistent_answers_hold_in_every_repair(rows in arb_instance(), q in arb_query()) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let hippo = Hippo::new(db, constraints).unwrap();
        let answers = hippo.consistent_answers(&q).unwrap();
        let repairs = enumerate_repairs(hippo.graph(), None);
        for kept in &repairs {
            let inst = hippo::cqa::repair::repair_instance(
                hippo.db().catalog(), hippo.graph(), kept);
            let result: HashSet<Row> = q.eval_over(&inst).into_iter().collect();
            for a in &answers {
                prop_assert!(result.contains(a),
                    "answer {:?} missing from a repair for {}", a, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Two-constraint mix: FD plus a CHECK denial — exercises singleton
    /// edges interacting with pair edges (the hard case for the prover's
    /// blocking logic).
    #[test]
    fn hippo_equals_naive_with_check_constraints(rows in arb_instance(), q in arb_query()) {
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Eq,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let constraints = vec![
            DenialConstraint::functional_dependency("emp", &[0], 1),
            chk,
        ];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        for opts in [HippoOptions::kg(), HippoOptions::full()] {
            let hippo = Hippo::with_options(build_db(&rows), constraints.clone(), opts.clone()).unwrap();
            prop_assert_eq!(hippo.consistent_answers(&q).unwrap(), truth.clone(),
                "query {} opts {:?}", q, opts);
        }
        assert_full_mode_agrees(&mut Hippo::new(db, constraints).unwrap(), &q);
    }
}

/// Two-relation instances with an FD on `emp` plus an exclusion constraint
/// between `emp` and `ban` — cross-relation hyperedges.
type TwoRelRows = (Vec<(i64, i64)>, Vec<(i64, i64)>);

fn arb_two_rel() -> impl Strategy<Value = TwoRelRows> {
    (
        prop::collection::vec((0i64..5, 0i64..3), 0..9),
        prop::collection::vec((0i64..5, 0i64..3), 0..5),
    )
}

fn build_two_rel_db(emp: &[(i64, i64)], ban: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (name INT, salary INT)")
        .unwrap();
    db.execute("CREATE TABLE ban (name INT, why INT)").unwrap();
    let dedup = |rows: &[(i64, i64)]| -> Vec<Vec<Value>> {
        let u: HashSet<(i64, i64)> = rows.iter().copied().collect();
        u.into_iter()
            .map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect()
    };
    db.insert_rows("emp", dedup(emp)).unwrap();
    db.insert_rows("ban", dedup(ban)).unwrap();
    db
}

fn two_rel_constraints() -> Vec<DenialConstraint> {
    vec![
        DenialConstraint::functional_dependency("emp", &[0], 1),
        DenialConstraint::exclusion("emp", "ban", &[(0, 0)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn hippo_equals_naive_with_exclusion_constraints(
        (emp, ban) in arb_two_rel(),
        sel in 0i64..3,
    ) {
        let constraints = two_rel_constraints();
        let db = build_two_rel_db(&emp, &ban);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let queries = vec![
            SjudQuery::rel("emp"),
            SjudQuery::rel("ban"),
            SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, sel)),
            SjudQuery::rel("emp").diff(SjudQuery::rel("ban")),
            SjudQuery::rel("emp").union(SjudQuery::rel("ban")),
            SjudQuery::rel("emp")
                .product(SjudQuery::rel("ban"))
                .select(Pred::cmp_cols(0, CmpOp::Eq, 2)),
        ];
        let mut full = Hippo::new(build_two_rel_db(&emp, &ban), constraints.clone()).unwrap();
        for q in queries {
            let truth = naive_consistent_answers(&q, db.catalog(), &g);
            for opts in [HippoOptions::kg(), HippoOptions::full()] {
                let hippo = Hippo::with_options(
                    build_two_rel_db(&emp, &ban), constraints.clone(), opts.clone()).unwrap();
                prop_assert_eq!(hippo.consistent_answers(&q).unwrap(), truth.clone(),
                    "query {} opts {:?}", q, opts);
            }
            assert_full_mode_agrees(&mut full, &q);
        }
    }

    #[test]
    fn rewriting_equals_truth_with_exclusion(( emp, ban) in arb_two_rel()) {
        let constraints = two_rel_constraints();
        let db = build_two_rel_db(&emp, &ban);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let q = SjudQuery::rel("emp");
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        prop_assert_eq!(rewritten, truth);
    }

    #[test]
    fn range_aggregation_matches_enumeration(rows in arb_instance()) {
        use hippo::cqa::aggregate::{range_aggregate_fd, range_aggregate_naive, AggOp};
        let db = build_db(&rows);
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
            let fast = range_aggregate_fd(db.catalog(), "emp", &[0], 1, 1, op).unwrap();
            let slow = range_aggregate_naive(db.catalog(), "emp", &constraints, 1, op).unwrap();
            prop_assert_eq!(fast.glb.as_f64(), slow.glb.as_f64(), "glb for {:?}", op);
            prop_assert_eq!(fast.lub.as_f64(), slow.lub.as_f64(), "lub for {:?}", op);
        }
    }
}

/// Random arity-2 queries over `emp` and `ban`: selections, unions,
/// column swaps and (nested) differences.
fn arb_two_rel_query_2() -> impl Strategy<Value = SjudQuery> {
    prop_oneof![Just(SjudQuery::rel("emp")), Just(SjudQuery::rel("ban"))].prop_recursive(
        3,
        12,
        2,
        |inner| {
            prop_oneof![
                (inner.clone(), 0i64..3).prop_map(|(q, c)| q.select(Pred::cmp_const(
                    1,
                    CmpOp::Ge,
                    c
                ))),
                (inner.clone(), 0i64..5).prop_map(|(q, c)| q.select(Pred::cmp_const(
                    0,
                    CmpOp::Eq,
                    c
                ))),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
                inner.prop_map(|q| q.permute(vec![1, 0])),
            ]
        },
    )
}

/// The arity-2 queries plus products of them: joined, subtracted from
/// each other, reordered, or with a duplicated column (a permutation
/// consistency guard).
fn arb_two_rel_query() -> impl Strategy<Value = SjudQuery> {
    let q2 = arb_two_rel_query_2;
    prop_oneof![
        q2(),
        (q2(), q2()).prop_map(|(a, b)| a.product(b).select(Pred::cmp_cols(0, CmpOp::Eq, 2))),
        (q2(), q2(), q2(), q2()).prop_map(|(a, b, c, d)| a.product(b).diff(c.product(d))),
        (q2(), q2()).prop_map(|(a, b)| a.product(b).permute(vec![2, 3, 0, 1])),
        (q2(), q2()).prop_map(|(a, b)| a.product(b).permute(vec![0, 1, 0, 2, 3])),
    ]
}

/// A fixed two-relation instance with NULLs in keys and values.
fn build_null_db() -> Database {
    let mut db = build_two_rel_db(&[(1, 0), (2, 1), (2, 2), (3, 0), (4, 1)], &[(3, 1), (0, 2)]);
    db.execute("INSERT INTO emp VALUES (1, NULL), (NULL, 2), (4, NULL), (NULL, NULL)")
        .unwrap();
    db.execute("INSERT INTO ban VALUES (NULL, 1), (4, NULL)")
        .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// The per-candidate core test over the envelope's candidates accepts
    /// exactly the set-form core filter, under FD + exclusion
    /// constraints, on a random instance and on the NULL-bearing one;
    /// every mode then agrees with the naive ground truth, and full mode
    /// with knowledge gathering.
    #[test]
    fn core_test_equals_core_filter_direct(
        (emp, ban) in arb_two_rel(),
        q in arb_two_rel_query(),
    ) {
        let constraints = two_rel_constraints();
        for db in [build_two_rel_db(&emp, &ban), build_null_db()] {
            let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
            prop_assert_eq!(
                core_test_accepts(&q, &db, &g),
                core_filter_direct(&q, db.catalog(), &g),
                "query {}", q
            );
            let truth = naive_consistent_answers(&q, db.catalog(), &g);
            let mut hippo = Hippo::new(db, constraints.clone()).unwrap();
            for opts in [HippoOptions::base(), HippoOptions::kg(), HippoOptions::full()] {
                hippo.options = opts.clone();
                prop_assert_eq!(hippo.consistent_answers(&q).unwrap(), truth.clone(),
                    "query {} opts {:?}", q, opts);
            }
            assert_full_mode_agrees(&mut hippo, &q);
        }
    }
}
