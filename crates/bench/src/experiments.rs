//! Experiment implementations: one function per table/figure of the
//! reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Each experiment returns a [`Table`] — a header plus rows of cells — so
//! the harness binary and the Criterion benches share the same workload
//! code. All workloads are seeded; re-running reproduces identical inputs.

use hippo_cqa::detect::detect_conflicts;
use hippo_cqa::naive::{conflict_free_answers, naive_consistent_answers, plain_answers};
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, Value};
use std::time::{Duration, Instant};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "E1".
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape expectations, caveats).
    pub notes: Vec<String>,
}

impl Table {
    fn new(id: &'static str, title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut all = vec![self.header.clone()];
        all.extend(self.rows.clone());
        let cols = self.header.len();
        let widths: Vec<usize> = (0..cols)
            .map(|c| {
                all.iter()
                    .map(|r| r.get(c).map(String::len).unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        let fmt_row = |r: &[String]| {
            r.iter()
                .enumerate()
                .map(|(c, cell)| format!("{cell:>width$}", width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The standard selection-over-join query used by E1/E2:
/// `σ(r.k = s.k ∧ r.payload ≥ p)(r × s)`.
fn join_query(payload_min: i64) -> SjudQuery {
    SjudQuery::rel("r")
        .product(SjudQuery::rel("s"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(2, CmpOp::Ge, payload_min)))
}

/// One measured row comparing the strategies on a join workload.
struct StrategyTimes {
    plain_sql: Duration,
    rewriting: Option<Duration>,
    hippo_base: Duration,
    hippo_kg: Duration,
    hippo_full: Duration,
    answers: usize,
}

fn measure_strategies(
    workload: &JoinWorkload,
    q: &SjudQuery,
) -> Result<StrategyTimes, Box<dyn std::error::Error>> {
    // Plain SQL evaluation of the query itself (ignore inconsistency).
    let db = workload.build()?;
    let sql = q.to_sql(db.catalog())?;
    let t = Instant::now();
    let _plain = db.query(&sql)?;
    let plain_sql = t.elapsed();

    // Query rewriting.
    let rewriting = match rewritten_answers(q, &workload.constraints(), &db) {
        Ok(_rows) => {
            let t = Instant::now();
            let _ = rewritten_answers(q, &workload.constraints(), &db)?;
            Some(t.elapsed())
        }
        Err(RewriteError::Unsupported(_)) => None,
        Err(e) => return Err(Box::new(e)),
    };

    // Hippo at three optimization levels (conflict detection excluded: it
    // is a once-per-instance cost, reported separately in E4).
    let run = |opts: HippoOptions| -> Result<(Duration, usize), Box<dyn std::error::Error>> {
        let hippo = Hippo::with_options(workload.build()?, workload.constraints(), opts)?;
        let t = Instant::now();
        let answers = hippo.consistent_answers(q)?;
        Ok((t.elapsed(), answers.len()))
    };
    let (hippo_base, _) = run(HippoOptions::base())?;
    let (hippo_kg, _) = run(HippoOptions::kg())?;
    let (hippo_full, n) = run(HippoOptions::full())?;

    Ok(StrategyTimes {
        plain_sql,
        rewriting,
        hippo_base,
        hippo_kg,
        hippo_full,
        answers: n,
    })
}

/// D1 — information extracted: CQA vs conflict-free strawman vs plain SQL,
/// varying conflict rate.
///
/// Workload: sensor-style readings with an FD `k → v` plus a CHECK denial
/// banning out-of-range values. Each conflict is a corrupted retransmission
/// whose value is *also* impossible — so the corrupted copy is in **no**
/// repair and the clean copy is in **every** repair. CQA proves the clean
/// copies consistent; the "delete everything that conflicts" strawman
/// throws both copies away. The gain column counts the rescued tuples.
pub fn d1_information(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut t = Table::new(
        "D1",
        "information extracted: consistent answers vs deleting conflicting tuples",
        &[
            "conflict%",
            "rows",
            "plain",
            "conflict-free",
            "consistent(CQA)",
            "CQA-gain",
        ],
    );
    let base_rows = if quick { 400 } else { 2000 };
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, payload INT)")?;
        let mut rng = StdRng::seed_from_u64(11);
        let mut rows = Vec::new();
        for i in 0..base_rows {
            rows.push(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..1000)),
            ]);
        }
        let n_conflicts = (base_rows as f64 * rate).round() as usize;
        for c in 0..n_conflicts {
            // Corrupted duplicate: same key, impossible value (≥ 5000).
            rows.push(vec![
                Value::Int(c as i64),
                Value::Int(5000 + rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..1000)),
            ]);
        }
        db.insert_rows("t", rows)?;
        let constraints = vec![
            DenialConstraint::functional_dependency("t", &[0], 1),
            DenialConstraint::check(
                "t",
                vec![Comparison {
                    op: CmpOp::Ge,
                    left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                    right: Term::Const(Value::Int(5000)),
                }],
            ),
        ];
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        // Query: the physically valid readings.
        let q = SjudQuery::rel("t").select(Pred::cmp_const(1, CmpOp::Lt, 1000i64));
        let plain = plain_answers(&q, db.catalog()).len();
        let straw = conflict_free_answers(&q, db.catalog(), &g).len();
        let total_rows = db.catalog().table("t")?.len();
        let hippo = Hippo::new(db, constraints)?;
        let cqa = hippo.consistent_answers(&q)?.len();
        let gain = cqa as i64 - straw as i64;
        t.rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            total_rows.to_string(),
            plain.to_string(),
            straw.to_string(),
            cqa.to_string(),
            format!("{gain:+}"),
        ]);
    }
    t.notes.push(
        "every conflicting pair consists of a clean copy (in every repair: its corrupted \
         partner is impossible, hence in no repair) and a corrupted copy; CQA rescues all \
         clean copies, the strawman deletes them — the gain equals the conflict count"
            .into(),
    );
    Ok(t)
}

/// D2 — expressiveness matrix: which (query class, constraint class)
/// combinations each approach supports, with agreement checks vs ground
/// truth where both run.
pub fn d2_expressiveness() -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "D2",
        "expressiveness: Hippo vs query rewriting (✓ = supported & matches ground truth)",
        &["query class", "constraints", "Hippo", "rewriting"],
    );

    let fresh_db = || -> Result<Database, Box<dyn std::error::Error>> {
        let mut d = Database::new();
        d.execute("CREATE TABLE a (x INT, y INT)")?;
        d.execute("CREATE TABLE b (x INT, y INT)")?;
        d.execute("INSERT INTO a VALUES (1,1), (1,2), (2,1), (3,5), (3,6), (3,7)")?;
        d.execute("INSERT INTO b VALUES (1,1), (2,9), (4,4)")?;
        Ok(d)
    };
    let db = fresh_db()?;

    let fd = DenialConstraint::functional_dependency("a", &[0], 1);
    let excl = DenialConstraint::exclusion("a", "b", &[(0, 0)]);
    let ternary = DenialConstraint::new(
        "ternary",
        vec!["a".into(), "a".into(), "a".into()],
        vec![
            Comparison::attr_eq(AttrRef { atom: 0, col: 0 }, AttrRef { atom: 1, col: 0 }),
            Comparison::attr_eq(AttrRef { atom: 1, col: 0 }, AttrRef { atom: 2, col: 0 }),
            Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Attr(AttrRef { atom: 1, col: 1 }),
            },
            Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 1, col: 1 }),
                right: Term::Attr(AttrRef { atom: 2, col: 1 }),
            },
        ],
    );

    let s_query = SjudQuery::rel("a").select(Pred::cmp_const(1, CmpOp::Ge, 1i64));
    let sj_query = SjudQuery::rel("a")
        .product(SjudQuery::rel("b"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 2));
    let sud_query = SjudQuery::rel("a")
        .select(Pred::cmp_const(1, CmpOp::Le, 2i64))
        .union(SjudQuery::rel("b"))
        .diff(SjudQuery::rel("b").select(Pred::cmp_const(1, CmpOp::Gt, 5i64)));
    let sd_query =
        SjudQuery::rel("a").diff(SjudQuery::rel("b").select(Pred::cmp_const(1, CmpOp::Lt, 5i64)));

    let cases: Vec<(&str, SjudQuery, &str, Vec<DenialConstraint>)> = vec![
        ("S", s_query.clone(), "FD", vec![fd.clone()]),
        ("SJ", sj_query.clone(), "FD", vec![fd.clone()]),
        ("SD", sd_query.clone(), "FD", vec![fd.clone()]),
        ("SUD", sud_query.clone(), "FD", vec![fd.clone()]),
        (
            "S",
            s_query.clone(),
            "FD+exclusion",
            vec![fd.clone(), excl.clone()],
        ),
        ("S", s_query, "ternary denial", vec![ternary.clone()]),
        ("SJ", sj_query, "ternary denial", vec![ternary]),
    ];

    for (qclass, q, cclass, constraints) in cases {
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        let truth = naive_consistent_answers(&q, db.catalog(), &g);

        let hippo = Hippo::new(fresh_db()?, constraints.clone())?;
        let hippo_cell = if hippo.consistent_answers(&q)? == truth {
            "✓"
        } else {
            "✗ WRONG"
        };

        let rw_cell = match rewritten_answers(&q, &constraints, &db) {
            Ok(rows) => {
                if rows == truth {
                    "✓"
                } else {
                    "✗ WRONG"
                }
            }
            Err(RewriteError::Unsupported(_)) => "n/a",
            Err(_) => "error",
        };
        t.rows.push(vec![
            qclass.to_string(),
            cclass.to_string(),
            hippo_cell.to_string(),
            rw_cell.to_string(),
        ]);
    }
    t.notes.push(
        "rewriting is n/a for unions and for non-binary constraints — the gap the demo \
         highlights; Hippo covers the full SJUD class under arbitrary denial constraints"
            .into(),
    );
    Ok(t)
}

/// E1 — running time vs database size (join query, 2% conflicts).
pub fn e1_scaling(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "E1",
        "running time vs relation size (σ+join query, 2% conflicts; ms)",
        &[
            "|r|=|s|",
            "plain SQL",
            "rewriting",
            "Hippo base",
            "Hippo+KG",
            "Hippo full",
            "answers",
        ],
    );
    let sizes: &[usize] = if quick {
        &[500, 1000, 2000]
    } else {
        &[1000, 2000, 4000, 8000, 16000]
    };
    for &n in sizes {
        let w = JoinWorkload::new(n, 0.02, 77);
        let q = join_query(500);
        let m = measure_strategies(&w, &q)?;
        t.rows.push(vec![
            n.to_string(),
            ms(m.plain_sql),
            m.rewriting.map(ms).unwrap_or_else(|| "n/a".into()),
            ms(m.hippo_base),
            ms(m.hippo_kg),
            ms(m.hippo_full),
            m.answers.to_string(),
        ]);
    }
    t.notes.push(
        "expected shape: Hippo tracks plain SQL within a small constant factor; \
         rewriting's correlated NOT EXISTS residues grow faster on joins"
            .into(),
    );
    Ok(t)
}

/// E2 — running time vs conflict percentage at fixed size.
pub fn e2_conflicts(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E2",
        format!("running time vs conflict rate (|r|=|s|={n}; ms)"),
        &[
            "conflict%",
            "plain SQL",
            "rewriting",
            "Hippo base",
            "Hippo+KG",
            "Hippo full",
            "answers",
        ],
    );
    for rate in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let w = JoinWorkload::new(n, rate, 78);
        let q = join_query(500);
        let m = measure_strategies(&w, &q)?;
        t.rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            ms(m.plain_sql),
            m.rewriting.map(ms).unwrap_or_else(|| "n/a".into()),
            ms(m.hippo_base),
            ms(m.hippo_kg),
            ms(m.hippo_full),
            m.answers.to_string(),
        ]);
    }
    t.notes.push(
        "Hippo's cost is driven by envelope size, not conflict count: only conflicting \
         candidates reach the prover, so times stay nearly flat as conflicts grow"
            .into(),
    );
    Ok(t)
}

/// E3 — running time by query class (S, SJ, SUD, SJUD).
pub fn e3_query_classes(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E3",
        format!("running time by query class (|r|=|s|={n}, 2% conflicts; ms)"),
        &["class", "plain SQL", "rewriting", "Hippo full", "answers"],
    );
    let w = JoinWorkload::new(n, 0.02, 79);

    let s_q = SjudQuery::rel("r").select(Pred::cmp_const(2, CmpOp::Ge, 500i64));
    let sj_q = join_query(500);
    let sud_q = SjudQuery::rel("r")
        .select(Pred::cmp_const(2, CmpOp::Ge, 800i64))
        .union(SjudQuery::rel("s").select(Pred::cmp_const(2, CmpOp::Lt, 100i64)))
        .diff(SjudQuery::rel("r").select(Pred::cmp_const(1, CmpOp::Lt, 1000i64)));
    let sjud_q =
        SjudQuery::rel("r")
            .product(SjudQuery::rel("s"))
            .select(Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(2, CmpOp::Ge, 800i64)))
            .diff(SjudQuery::rel("r").product(SjudQuery::rel("s")).select(
                Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(5, CmpOp::Lt, 100i64)),
            ));

    for (class, q) in [("S", s_q), ("SJ", sj_q), ("SUD", sud_q), ("SJUD", sjud_q)] {
        let db = w.build()?;
        let sql = q.to_sql(db.catalog())?;
        let t0 = Instant::now();
        let _ = db.query(&sql)?;
        let plain = t0.elapsed();

        let rw = match rewritten_answers(&q, &w.constraints(), &db) {
            Ok(_) => {
                let t0 = Instant::now();
                let _ = rewritten_answers(&q, &w.constraints(), &db)?;
                Some(t0.elapsed())
            }
            Err(RewriteError::Unsupported(_)) => None,
            Err(e) => return Err(Box::new(e)),
        };

        let hippo = Hippo::with_options(w.build()?, w.constraints(), HippoOptions::full())?;
        let t0 = Instant::now();
        let answers = hippo.consistent_answers(&q)?;
        let full = t0.elapsed();

        t.rows.push(vec![
            class.to_string(),
            ms(plain),
            rw.map(ms).unwrap_or_else(|| "n/a".into()),
            ms(full),
            answers.len().to_string(),
        ]);
    }
    t.notes
        .push("rewriting cannot run the union classes at all (n/a)".into());
    Ok(t)
}

/// E4 — conflict detection / hypergraph construction time vs size.
pub fn e4_detection(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "E4",
        "conflict detection and hypergraph size vs relation size (2% conflicts)",
        &[
            "rows",
            "detect ms",
            "edges",
            "conflicting tuples",
            "combinations checked",
        ],
    );
    let sizes: &[usize] = if quick {
        &[1000, 4000, 16000]
    } else {
        &[1000, 4000, 16000, 64000, 128000]
    };
    for &n in sizes {
        let spec = FdTableSpec::new("t", n, 0.02, 80);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let (g, stats) = detect_conflicts(db.catalog(), &[spec.fd()])?;
        t.rows.push(vec![
            db.catalog().table("t")?.len().to_string(),
            ms(stats.elapsed),
            g.edge_count().to_string(),
            g.conflicting_vertex_count().to_string(),
            stats.combinations_checked.to_string(),
        ]);
    }
    t.notes
        .push("FD fast path: one hash pass, near-linear scaling".into());
    Ok(t)
}

/// E5 — ablation: membership checks and time across optimization levels.
pub fn e5_ablation(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E5",
        format!("optimization ablation on a difference query (|t|={n}, 5% conflicts)"),
        &[
            "variant",
            "time ms",
            "DB membership queries",
            "prover calls",
            "filtered",
            "answers",
        ],
    );
    let spec = FdTableSpec::new("t", n, 0.05, 81);
    let constraints = vec![spec.fd()];
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));
    for (label, opts) in [
        ("base", HippoOptions::base()),
        ("+KG", HippoOptions::kg()),
        ("+KG +core-filter", HippoOptions::full()),
    ] {
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let hippo = Hippo::with_options(db, constraints.clone(), opts)?;
        let t0 = Instant::now();
        let (answers, stats) = hippo.consistent_answers_with_stats(&q)?;
        let elapsed = t0.elapsed();
        t.rows.push(vec![
            label.to_string(),
            ms(elapsed),
            stats.membership_queries.to_string(),
            stats.prover_calls.to_string(),
            stats.filtered_consistent.to_string(),
            answers.len().to_string(),
        ]);
    }
    t.notes.push(
        "KG eliminates every per-tuple membership query; the core filter removes \
         prover calls for non-conflicting candidates"
            .into(),
    );
    Ok(t)
}

/// E6 — envelope tightness: candidates vs consistent answers vs filter.
pub fn e6_envelope(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 1000 } else { 8000 };
    let mut t = Table::new(
        "E6",
        format!("envelope tightness vs conflict rate (|t|={n}, difference query)"),
        &[
            "conflict%",
            "candidates",
            "core-filtered",
            "prover calls",
            "consistent",
        ],
    );
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let spec = FdTableSpec::new("t", n, rate, 82);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let constraints = vec![spec.fd()];
        let q = SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            2,
            CmpOp::Ge,
            900i64,
        )));
        let hippo = Hippo::with_options(db, constraints, HippoOptions::full())?;
        let (answers, stats) = hippo.consistent_answers_with_stats(&q)?;
        t.rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            stats.candidates.to_string(),
            stats.filtered_consistent.to_string(),
            stats.prover_calls.to_string(),
            answers.len().to_string(),
        ]);
    }
    t.notes
        .push("prover work grows only with the number of conflicting candidates".into());
    Ok(t)
}

/// E7 — why not repairs: repair count and naive CQA time vs number of
/// conflicts (exponential), against Hippo (polynomial).
pub fn e7_repair_blowup(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let mut t = Table::new(
        "E7",
        "repair enumeration blow-up vs Hippo (3 copies per conflicting key → 3^k repairs)",
        &["conflicts", "repairs", "naive ms", "Hippo full ms", "agree"],
    );
    let counts: &[usize] = if quick {
        &[2, 4, 6, 8]
    } else {
        &[2, 4, 6, 8, 10, 12]
    };
    for &k in counts {
        // k independent FD conflicts of 3 tuples each: 3^k repairs.
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, payload INT)")?;
        let mut rows = Vec::new();
        for i in 0..k {
            for copy in 0..3 {
                rows.push(vec![
                    Value::Int(i as i64),
                    Value::Int(copy as i64),
                    Value::Int((i * 3 + copy) as i64),
                ]);
            }
        }
        db.insert_rows("t", rows)?;
        let constraints = vec![DenialConstraint::functional_dependency("t", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        let q = SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            2i64,
        )));

        let t0 = Instant::now();
        let repairs = enumerate_repairs(&g, None).len();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let naive_time = t0.elapsed();

        let hippo = Hippo::with_options(db, constraints, HippoOptions::full())?;
        let t0 = Instant::now();
        let answers = hippo.consistent_answers(&q)?;
        let hippo_time = t0.elapsed();

        t.rows.push(vec![
            k.to_string(),
            repairs.to_string(),
            ms(naive_time),
            ms(hippo_time),
            (answers == truth).to_string(),
        ]);
    }
    t.notes.push(
        "repairs grow as 3^conflicts (the exponential the LP-based comparators pay); \
         Hippo's time stays flat — the paper's headline claim"
            .into(),
    );
    Ok(t)
}

/// E8 — sharded parallel detection: thread scaling on the 16k-row FD
/// workload, plus incremental redetect vs full rebuild after a
/// single-tuple insert.
pub fn e8_parallel(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    use hippo_cqa::detect::{detect_conflicts_with, DetectOptions};
    let n = 16_000;
    let reps = if quick { 3 } else { 10 };
    let mut t = Table::new(
        "E8",
        format!("sharded detection thread scaling + incremental redetect (|t|={n}, 2% conflicts)"),
        &["variant", "threads", "time ms", "speedup", "edges"],
    );
    let spec = FdTableSpec::new("t", n, 0.02, 80);
    let mut db = Database::new();
    spec.populate(&mut db)?;
    let constraints = vec![spec.fd()];

    // Thread scaling (fixed shard count — identical output, min-of-reps).
    let mut single_thread = Duration::ZERO;
    for &threads in &[1usize, 2, 4, 8] {
        let opts = DetectOptions::with_threads(threads);
        let mut best = Duration::MAX;
        let mut edges = 0;
        for _ in 0..reps {
            let t0 = Instant::now();
            let (g, _) = detect_conflicts_with(db.catalog(), &constraints, &opts)?;
            best = best.min(t0.elapsed());
            edges = g.edge_count();
        }
        if threads == 1 {
            single_thread = best;
        }
        t.rows.push(vec![
            "fd_detect".into(),
            threads.to_string(),
            ms(best),
            format!("{:.2}x", single_thread.as_secs_f64() / best.as_secs_f64()),
            edges.to_string(),
        ]);
    }

    // Incremental redetect after one insert vs a full rebuild.
    let mut hippo = Hippo::new(db, constraints)?;
    let mut best_full = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        hippo.redetect_full()?;
        best_full = best_full.min(t0.elapsed());
    }
    t.rows.push(vec![
        "full_redetect".into(),
        "-".into(),
        ms(best_full),
        "1.00x".into(),
        hippo.graph().edge_count().to_string(),
    ]);
    let mut best_inc = Duration::MAX;
    let mut edges_inc = 0;
    for i in 0..reps {
        // Insert a fresh conflict (v = -1 never occurs in the workload),
        // time the incremental reconciliation, then undo it.
        let row = vec![Value::Int(i as i64), Value::Int(-1), Value::Int(0)];
        let tids = hippo.insert_tuples("t", vec![row])?;
        let t0 = Instant::now();
        let stats = hippo.redetect()?;
        best_inc = best_inc.min(t0.elapsed());
        assert!(stats.incremental, "delta path expected");
        edges_inc = hippo.graph().edge_count();
        hippo.delete_tuples("t", &tids)?;
        hippo.redetect()?;
    }
    t.rows.push(vec![
        "incremental_redetect_1_insert".into(),
        "-".into(),
        ms(best_inc),
        format!("{:.2}x", best_full.as_secs_f64() / best_inc.as_secs_f64()),
        edges_inc.to_string(),
    ]);
    t.notes.push(
        "thread rows share one fixed shard decomposition (identical edge ids); speedup \
         is vs 1 thread and needs real cores — single-CPU environments show ~1x"
            .into(),
    );
    t.notes.push(
        "incremental redetect copies surviving edges and delta-probes the FD group \
         index: cost tracks the conflict graph + delta, not the instance"
            .into(),
    );
    Ok(t)
}

/// E9 — the parallel batched prover (PR 3): answer-pipeline thread
/// scaling, the closure-signature cache (ablation + hit-rate sweep over
/// conflict rates), and O(delta) vs O(outer) general-denial redetects.
pub fn e9_prover(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 2000 } else { 16000 };
    let reps = if quick { 3 } else { 10 };
    let mut t = Table::new(
        "E9",
        format!("parallel batched prover + closure cache + O(delta) general denials (|t|={n})"),
        &[
            "variant",
            "param",
            "time ms",
            "speedup",
            "prover calls",
            "cache hits",
            "detail",
        ],
    );
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));
    let build = |opts: HippoOptions| -> Result<Hippo, Box<dyn std::error::Error>> {
        let spec = FdTableSpec::new("t", n, 0.05, 81);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        Ok(Hippo::with_options(db, vec![spec.fd()], opts)?)
    };
    let time_answers =
        |hippo: &Hippo| -> Result<(Duration, AnswerStats), Box<dyn std::error::Error>> {
            let mut best = Duration::MAX;
            let mut stats = AnswerStats::default();
            for _ in 0..reps {
                let t0 = Instant::now();
                let (_, s) = hippo.consistent_answers_with_stats(&q)?;
                let el = t0.elapsed();
                if el < best {
                    best = el;
                }
                stats = s;
            }
            Ok((best, stats))
        };

    // (1) Prover thread scaling (fixed shard decomposition: identical
    // answers and stats on every row; speedup needs real cores).
    let mut single = Duration::ZERO;
    for threads in [1usize, 2, 4, 8] {
        let hippo = build(HippoOptions::kg().with_prover_threads(threads))?;
        let (best, stats) = time_answers(&hippo)?;
        if threads == 1 {
            single = best;
        }
        t.rows.push(vec![
            "prover_threads".into(),
            threads.to_string(),
            ms(best),
            format!("{:.2}x", single.as_secs_f64() / best.as_secs_f64()),
            stats.prover_calls.to_string(),
            stats.prover_cache_hits.to_string(),
            format!("answers={}", stats.answers),
        ]);
    }

    // (2) Closure-signature cache ablation, single-threaded so the
    // memoization effect is isolated from parallel speedup. The timed
    // column is the **prover stage** (`t_prover`): the envelope's SQL
    // evaluation dominates end-to-end time on this workload and would
    // bury the effect (end-to-end is in the detail column).
    let time_prover_stage =
        |hippo: &Hippo| -> Result<(Duration, Duration, AnswerStats), Box<dyn std::error::Error>> {
            let mut best = Duration::MAX;
            let mut total = Duration::MAX;
            let mut stats = AnswerStats::default();
            for _ in 0..reps {
                let (_, s) = hippo.consistent_answers_with_stats(&q)?;
                if s.t_prover < best {
                    best = s.t_prover;
                }
                total = total.min(s.t_total);
                stats = s;
            }
            Ok((best, total, stats))
        };
    let hippo_raw = build(
        HippoOptions::kg()
            .with_prover_threads(1)
            .without_prover_cache(),
    )?;
    let (best_raw, total_raw, stats_raw) = time_prover_stage(&hippo_raw)?;
    let hippo_memo = build(HippoOptions::kg().with_prover_threads(1))?;
    let (best_memo, total_memo, stats_memo) = time_prover_stage(&hippo_memo)?;
    t.rows.push(vec![
        "prover_cache".into(),
        "uncached".into(),
        ms(best_raw),
        "1.00x".into(),
        stats_raw.prover_calls.to_string(),
        "0".into(),
        format!(
            "tuples_proved={} total={}ms",
            stats_raw.prover.tuples_checked,
            ms(total_raw)
        ),
    ]);
    t.rows.push(vec![
        "prover_cache".into(),
        "memoized".into(),
        ms(best_memo),
        format!("{:.2}x", best_raw.as_secs_f64() / best_memo.as_secs_f64()),
        stats_memo.prover_calls.to_string(),
        stats_memo.prover_cache_hits.to_string(),
        format!(
            "tuples_proved={} total={}ms",
            stats_memo.prover.tuples_checked,
            ms(total_memo)
        ),
    ]);

    // (3) Cache hit-rate sweep over conflict rates.
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let spec = FdTableSpec::new("t", n, rate, 81);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        let hippo = Hippo::with_options(
            db,
            vec![spec.fd()],
            HippoOptions::kg().with_prover_threads(1),
        )?;
        let t0 = Instant::now();
        let (_, stats) = hippo.consistent_answers_with_stats(&q)?;
        let el = t0.elapsed();
        let hit_rate = if stats.prover_calls > 0 {
            100.0 * stats.prover_cache_hits as f64 / stats.prover_calls as f64
        } else {
            0.0
        };
        t.rows.push(vec![
            "cache_hit_rate".into(),
            format!("{:.0}%", rate * 100.0),
            ms(el),
            "-".into(),
            stats.prover_calls.to_string(),
            stats.prover_cache_hits.to_string(),
            format!("hit-rate {hit_rate:.1}%"),
        ]);
    }

    // (4) O(delta) vs O(outer) general-denial redetect: exclusion
    // constraint between t and s; the single changed tuple lands in the
    // *non-outer* atom, which used to force a rescan of t.
    let spec = FdTableSpec::new("t", n, 0.02, 83);
    let mut db = Database::new();
    spec.populate(&mut db)?;
    db.execute("CREATE TABLE s (k INT, v INT, payload INT)")?;
    let excl = DenialConstraint::exclusion("t", "s", &[(0, 0)]);
    let mut hippo = Hippo::new(db, vec![spec.fd(), excl])?;
    let mut best_full = Duration::MAX;
    let mut combos_full = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let stats = hippo.redetect_full()?;
        let el = t0.elapsed();
        if el < best_full {
            best_full = el;
        }
        combos_full = stats.combinations_checked;
    }
    t.rows.push(vec![
        "gd_redetect".into(),
        "full_rebuild".into(),
        ms(best_full),
        "1.00x".into(),
        "-".into(),
        "-".into(),
        format!("combos={combos_full}"),
    ]);
    let mut best_inc = Duration::MAX;
    let mut combos_inc = 0usize;
    for i in 0..reps {
        let row = vec![Value::Int(i as i64), Value::Int(0), Value::Int(0)];
        let tids = hippo.insert_tuples("s", vec![row])?;
        let t0 = Instant::now();
        let stats = hippo.redetect()?;
        let el = t0.elapsed();
        if el < best_inc {
            best_inc = el;
        }
        assert!(stats.incremental, "delta path expected");
        combos_inc = stats.combinations_checked;
        hippo.delete_tuples("s", &tids)?;
        hippo.redetect()?;
    }
    t.rows.push(vec![
        "gd_redetect".into(),
        "delta_seeded_1_insert".into(),
        ms(best_inc),
        format!("{:.2}x", best_full.as_secs_f64() / best_inc.as_secs_f64()),
        "-".into(),
        "-".into(),
        format!("combos={combos_inc}"),
    ]);
    t.notes.push(
        "prover_threads rows share one fixed shard decomposition (identical answers and \
         stats); speedup is vs 1 thread and needs real cores — single-CPU environments \
         show ~1x"
            .into(),
    );
    t.notes.push(
        "delta_seeded redetect binds the changed tuple first and hash-extends through the \
         persistent per-atom join indexes: combos track the delta's join matches, the \
         full pass scans the outer atom"
            .into(),
    );
    Ok(t)
}

/// E10 — base mode over engine snapshots (PR 4): the paper's canonical
/// configuration (per-check SQL membership) now runs through the same
/// shard → merge pipeline as KG mode, against a frozen `DbSnapshot`
/// shared by all workers. Rows: prover-stage thread scaling, the
/// per-shard SQL membership memo, the cross-call verdict cache, and
/// fk-incremental redetect through the orphan-count index.
pub fn e10_base_mode(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 2000 } else { 16000 };
    let reps = if quick { 3 } else { 10 };
    let mut t = Table::new(
        "E10",
        format!("sharded base mode over snapshots + fk-incremental redetect (|t|={n})"),
        &[
            "variant",
            "param",
            "time ms",
            "speedup",
            "membership sql",
            "detail",
        ],
    );
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));
    let build = |opts: HippoOptions| -> Result<Hippo, Box<dyn std::error::Error>> {
        let spec = FdTableSpec::new("t", n, 0.05, 84);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        Ok(Hippo::with_options(db, vec![spec.fd()], opts)?)
    };
    // Prover-stage time (the envelope's SQL evaluation dominates
    // end-to-end on this workload and would bury the scaling). Each
    // rep rebuilds the system so the cross-call verdict cache never
    // contaminates a timed call; base runs take seconds each at full
    // size — min-of-3 is plenty stable.
    let base_reps = 3usize;
    let time_prover_stage =
        |opts: HippoOptions| -> Result<(Duration, AnswerStats), Box<dyn std::error::Error>> {
            let mut best = Duration::MAX;
            let mut stats = AnswerStats::default();
            for _ in 0..base_reps {
                let hippo = build(opts.clone())?;
                let (_, s) = hippo.consistent_answers_with_stats(&q)?;
                if s.t_prover < best {
                    best = s.t_prover;
                }
                stats = s;
            }
            Ok((best, stats))
        };

    // (1) Base-mode thread scaling (fixed shard decomposition: every
    // row produces identical answers and stats — including the SQL
    // membership counts, since each shard's memo is shard-local).
    let mut single = Duration::ZERO;
    for threads in [1usize, 2, 4, 8] {
        let (best, stats) = time_prover_stage(HippoOptions::base().with_prover_threads(threads))?;
        if threads == 1 {
            single = best;
        }
        let memo_rate = {
            let probes = stats.membership_queries + stats.membership_memo_hits;
            if probes > 0 {
                100.0 * stats.membership_memo_hits as f64 / probes as f64
            } else {
                0.0
            }
        };
        t.rows.push(vec![
            "base_threads".into(),
            threads.to_string(),
            ms(best),
            format!("{:.2}x", single.as_secs_f64() / best.as_secs_f64()),
            stats.membership_queries.to_string(),
            format!(
                "answers={} shards={} memo {memo_rate:.1}%",
                stats.answers, stats.shards_used
            ),
        ]);
    }

    // (2) KG reference at one thread: what prefetching the flags in the
    // envelope buys over per-shard membership SQL.
    let (best_kg, stats_kg) = time_prover_stage(HippoOptions::kg().with_prover_threads(1))?;
    t.rows.push(vec![
        "kg_reference".into(),
        "1".into(),
        ms(best_kg),
        format!("{:.2}x", single.as_secs_f64() / best_kg.as_secs_f64()),
        stats_kg.membership_queries.to_string(),
        format!("answers={}", stats_kg.answers),
    ]);

    // (3) Cross-call verdict cache: a second identical run answers
    // entirely from the persistent signature map.
    let hippo = build(HippoOptions::base().with_prover_threads(1))?;
    let (_, s1) = hippo.consistent_answers_with_stats(&q)?;
    let first = s1.t_prover;
    let (_, s2) = hippo.consistent_answers_with_stats(&q)?;
    let mut best_second = s2.t_prover;
    for _ in 0..base_reps {
        let (_, s) = hippo.consistent_answers_with_stats(&q)?;
        best_second = best_second.min(s.t_prover);
    }
    t.rows.push(vec![
        "cross_call_cache".into(),
        "2nd call".into(),
        ms(best_second),
        format!("{:.2}x", first.as_secs_f64() / best_second.as_secs_f64()),
        s2.membership_queries.to_string(),
        format!(
            "cross hits {}/{} proved {}",
            s2.prover_cache_cross_hits, s2.prover_calls, s2.prover.tuples_checked
        ),
    ]);

    // (4) FK-incremental redetect: deleting one parent orphans its
    // children through the orphan-count index instead of a rebuild.
    let spec = FdTableSpec::new("t", n, 0.02, 85);
    let mut db = Database::new();
    spec.populate(&mut db)?;
    db.execute("CREATE TABLE parent (id INT)")?;
    // Every t.k has a parent: the instance starts fk-consistent, so a
    // single parent delete orphans exactly its own children — the case
    // the orphan-count index makes O(affected children).
    db.insert_rows(
        "parent",
        (0..n as i64).map(|i| vec![Value::Int(i)]).collect(),
    )?;
    let fk = ForeignKey::new("t", vec![0], "parent", vec![0]);
    // The FD rides along (parents stay constraint-free as required), so
    // the incremental path carries denial edges *and* flips orphans.
    let mut hippo = Hippo::with_foreign_keys(db, vec![spec.fd()], vec![fk])?;
    let mut best_full = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        hippo.redetect_full()?;
        best_full = best_full.min(t0.elapsed());
    }
    t.rows.push(vec![
        "fk_redetect".into(),
        "full_rebuild".into(),
        ms(best_full),
        "1.00x".into(),
        "-".into(),
        format!("edges={}", hippo.graph().edge_count()),
    ]);
    let mut best_inc = Duration::MAX;
    let mut edges_inc = 0;
    for _ in 0..reps {
        let (deleted, row) = hippo
            .db()
            .catalog()
            .table("parent")?
            .iter()
            .next()
            .map(|(tid, row)| (tid, row.clone()))
            .expect("parent rows remain");
        hippo.delete_tuples("parent", &[deleted])?;
        let t0 = Instant::now();
        let stats = hippo.redetect()?;
        best_inc = best_inc.min(t0.elapsed());
        assert!(stats.incremental, "fk delta path expected");
        edges_inc = hippo.graph().edge_count();
        // Restore the deleted parent so every rep measures the same
        // one-parent orphaning against the same instance.
        hippo.insert_tuples("parent", vec![row])?;
        hippo.redetect()?;
    }
    t.rows.push(vec![
        "fk_redetect".into(),
        "incremental_1_parent_delete".into(),
        ms(best_inc),
        format!("{:.2}x", best_full.as_secs_f64() / best_inc.as_secs_f64()),
        "-".into(),
        format!("edges={edges_inc}"),
    ]);
    t.notes.push(
        "base_threads rows share one fixed shard decomposition over one frozen snapshot \
         (identical answers, stats and SQL counts); speedup is vs 1 thread and needs real \
         cores — single-CPU environments show ~1x"
            .into(),
    );
    t.notes.push(
        "fk incremental redetect flips orphan edges through the per-FK orphan-count index: \
         cost tracks the batch and its affected children, not the instance"
            .into(),
    );
    Ok(t)
}

/// E11 — index-backed membership probes (PR 5): base mode's
/// per-candidate membership probe is compiled once to a prepared
/// physical plan whose access path the optimizer picks. On the FD
/// workload the key column carries the primary-key auto-index, so
/// every executed probe is an `IndexLookup` (hash-bucket, O(1));
/// the ablation row forces the sequential-scan plans — the
/// pre-refactor access path — on the same instance and query.
/// Answers are asserted bit-identical across both and against KG mode;
/// the new `AnswerStats::index_probes`/`scan_probes` counters verify
/// which access path actually ran.
pub fn e11_index_probes(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let n = if quick { 2000 } else { 16000 };
    let reps = 3usize;
    let mut t = Table::new(
        "E11",
        format!("index-backed membership probes vs the scan path (|t|={n})"),
        &[
            "variant",
            "access path",
            "membership stage ms",
            "speedup",
            "probes (idx/scan)",
            "detail",
        ],
    );
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));
    let build = |opts: HippoOptions| -> Result<Hippo, Box<dyn std::error::Error>> {
        let spec = FdTableSpec::new("t", n, 0.05, 84);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        Ok(Hippo::with_options(db, vec![spec.fd()], opts)?)
    };
    // Measure the prover stage (per-candidate membership resolution +
    // proving; the membership probes dominate it in base mode). Each
    // rep rebuilds the system so the cross-call verdict cache never
    // contaminates a timed call.
    let stage =
        |opts: HippoOptions| -> Result<(Duration, Vec<Row>, AnswerStats), Box<dyn std::error::Error>> {
            let mut best = Duration::MAX;
            let mut answers = Vec::new();
            let mut stats = AnswerStats::default();
            for _ in 0..reps {
                let hippo = build(opts.clone())?;
                let (a, s) = hippo.consistent_answers_with_stats(&q)?;
                if s.t_prover < best {
                    best = s.t_prover;
                }
                answers = a;
                stats = s;
            }
            Ok((best, answers, stats))
        };

    let (t_idx, ans_idx, s_idx) = stage(HippoOptions::base())?;
    // The acceptance check: every executed probe ran as an IndexLookup.
    assert_eq!(
        s_idx.index_probes, s_idx.membership_queries,
        "indexed run left probes on the scan path: {s_idx}"
    );
    assert_eq!(s_idx.scan_probes, 0, "{s_idx}");
    let (t_scan, ans_scan, s_scan) = stage(HippoOptions::base().without_index_probes())?;
    assert_eq!(s_scan.index_probes, 0, "{s_scan}");
    assert_eq!(
        s_scan.scan_probes, s_scan.membership_queries,
        "scan ablation still used the index: {s_scan}"
    );
    assert_eq!(ans_idx, ans_scan, "access path changed the answers");
    let (t_kg, ans_kg, _) = stage(HippoOptions::kg())?;
    assert_eq!(ans_idx, ans_kg, "base and KG disagree");

    t.rows.push(vec![
        "base_probes".into(),
        "IndexLookup".into(),
        ms(t_idx),
        format!("{:.2}x", t_scan.as_secs_f64() / t_idx.as_secs_f64()),
        format!("{}/{}", s_idx.index_probes, s_idx.scan_probes),
        format!(
            "answers={} membership_queries={} memo_hits={}",
            s_idx.answers, s_idx.membership_queries, s_idx.membership_memo_hits
        ),
    ]);
    t.rows.push(vec![
        "base_probes".into(),
        "SeqScan (pre-refactor)".into(),
        ms(t_scan),
        "1.00x".into(),
        format!("{}/{}", s_scan.index_probes, s_scan.scan_probes),
        format!("answers={}", s_scan.answers),
    ]);
    t.rows.push(vec![
        "kg_reference".into(),
        "prefetched flags".into(),
        ms(t_kg),
        format!("{:.2}x", t_scan.as_secs_f64() / t_kg.as_secs_f64()),
        "0/0".into(),
        format!("answers={}", ans_kg.len()),
    ]);
    t.notes.push(
        "probes (idx/scan) are the new AnswerStats::index_probes / scan_probes counters; \
         answers asserted bit-identical across the three rows"
            .into(),
    );
    t.notes.push(
        "both base rows execute the same prepared physical probe plans per literal \
         (no SQL text on the hot path); only the access path differs — the speedup \
         is the index"
            .into(),
    );
    Ok(t)
}

/// E12 — governance overhead. The resource-governance checkpoints ride
/// the E9/E11 hot paths (KG prover loop; base-mode membership probes):
/// an *ungoverned* call must pay nothing (budget creation is gated on
/// the options actually configuring governance), and a governed call
/// with generous limits should stay within a couple of percent — the
/// checks are strided and only every `CHECK_STRIDE`th does the
/// `Instant::now` read.
pub fn e12_governance(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    // The timed stages are small (a few ms); on a busy container the
    // run-to-run jitter exceeds the effect being measured, so this
    // experiment leans on many interleaved reps and best-of-each.
    let n = if quick { 2000 } else { 16000 };
    let reps = if quick { 5 } else { 20 };
    let mut t = Table::new(
        "E12",
        format!("governance checkpoint overhead on the E9/E11 hot paths (|t|={n})"),
        &[
            "variant",
            "governance",
            "stage ms",
            "overhead",
            "budget checks",
            "detail",
        ],
    );
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));
    let build = |opts: HippoOptions| -> Result<Hippo, Box<dyn std::error::Error>> {
        let spec = FdTableSpec::new("t", n, 0.05, 81);
        let mut db = Database::new();
        spec.populate(&mut db)?;
        Ok(Hippo::with_options(db, vec![spec.fd()], opts)?)
    };
    // Time the prover stage (the governed per-candidate loop; in base
    // mode it also contains every membership probe). Fresh system per
    // rep so the verdict cache never contaminates a timed call; one
    // measured rep of each config.
    let one_rep =
        |opts: HippoOptions| -> Result<(Duration, Vec<Row>, u64), Box<dyn std::error::Error>> {
            let hippo = build(opts.clone())?;
            let ans = hippo.consistent_answers_governed(&q)?;
            Ok((ans.stats.t_prover, ans.rows, ans.stats.budget_checks))
        };
    // Generous limits: never trip, but every checkpoint is live.
    let governed = |opts: HippoOptions| -> HippoOptions {
        opts.with_deadline(Duration::from_secs(3600))
            .with_row_budget(u64::MAX)
    };

    for (variant, base_opts) in [
        ("kg_prover", HippoOptions::kg()),
        ("base_membership", HippoOptions::base()),
    ] {
        // Interleave the governed/ungoverned reps (A/B/A/B…): each pair
        // runs under near-identical background load, so the per-pair
        // time ratio cancels the machine's slow drift, and the *median*
        // ratio sheds the bursty outliers that make separately-taken
        // minima flip sign run to run on a busy shared box.
        let mut t_off = Duration::MAX;
        let mut t_on = Duration::MAX;
        let mut ratios = Vec::with_capacity(reps);
        let mut ans_off = Vec::new();
        let mut ans_on = Vec::new();
        let mut c_off = 0u64;
        let mut c_on = 0u64;
        for _ in 0..reps {
            let (toff, a, c) = one_rep(base_opts.clone())?;
            if toff < t_off {
                t_off = toff;
            }
            ans_off = a;
            c_off = c;
            let (ton, a, c) = one_rep(governed(base_opts.clone()))?;
            if ton < t_on {
                t_on = ton;
            }
            ans_on = a;
            c_on = c;
            ratios.push(ton.as_secs_f64() / toff.as_secs_f64());
        }
        assert_eq!(ans_on, ans_off, "{variant}: governance changed the answers");
        assert_eq!(c_off, 0, "{variant}: ungoverned run counted budget checks");
        ratios.sort_by(|a, b| a.total_cmp(b));
        let overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;
        t.rows.push(vec![
            variant.into(),
            "off".into(),
            ms(t_off),
            "—".into(),
            "0".into(),
            format!("answers={}", ans_off.len()),
        ]);
        t.rows.push(vec![
            variant.into(),
            "deadline+row budget".into(),
            ms(t_on),
            format!("{overhead:+.2}%"),
            c_on.to_string(),
            format!("answers={}", ans_on.len()),
        ]);
    }
    t.notes.push(
        "overhead = median over interleaved rep pairs of governed/ungoverned − 1; \
         target ≤ 2% — checks are strided (every CHECK_STRIDE=256 units of work) so \
         the deadline read stays off the per-row path"
            .into(),
    );
    t.notes
        .push("answers asserted bit-identical with governance on and off".into());
    Ok(t)
}

/// E13 — chaos/traffic harness for the concurrent CQA service layer.
/// N client threads drive one [`hippo_server::Engine`] at a mixed
/// read:write:CQA ratio under three scenarios:
///
/// * `steady`: no faults, default admission — a correctness baseline;
/// * `overload`: admission squeezed to (2 active, 1 queued) so load
///   shedding fires, with clients retrying `Overloaded` through the
///   jittered-backoff [`hippo_server::RetryPolicy`];
/// * `chaos`: one saboteur client injects a writer panic mid-redetect,
///   a prover-shard panic, a millisecond deadline and a delayed shard
///   into the live traffic.
///
/// Invariants asserted on every scenario — the experiment *fails*
/// (returns `Err`) if any is violated:
///
/// * no deadlock (the traffic joins; drain completes afterwards);
/// * no poisoned epoch: every successful CQA answer is bit-identical
///   to a **serial oracle replay** — a fresh single-threaded `Hippo`
///   built from that epoch's own catalog — and every plain read sees
///   exactly its epoch's row count;
/// * every failure is structured: `Overloaded`/`Cancelled`/`Budget`/
///   injected `WorkerPanic` — nothing else;
/// * a failed write never publishes (`writer_recoveries` counts it and
///   the epoch id does not advance past successful writes).
///
/// Reported per scenario: request counts by outcome, epochs published,
/// writer recoveries, shed rate, and p50/p99 client latency.
pub fn e13_chaos_service(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    let rows = if quick { 1_200 } else { 6_000 };
    let clients = if quick { 4 } else { 8 };
    let iters = if quick { 24 } else { 48 };
    let mut t = Table::new(
        "E13",
        format!(
            "chaos/traffic harness on the service layer (|t|={rows}, {clients} clients × {iters} ops, 45:10:45 read:write:CQA)"
        ),
        &[
            "scenario", "reqs", "ok", "shed", "cancel", "budget", "panic", "recov", "epochs",
            "shed rate", "p50 ms", "p99 ms", "oracle",
        ],
    );
    for scenario in ["steady", "overload", "chaos"] {
        let out = chaos_scenario(scenario, rows, clients, iters)?;
        t.rows.push(vec![
            scenario.into(),
            out.requests.to_string(),
            out.ok.to_string(),
            out.shed.to_string(),
            out.cancelled.to_string(),
            out.budget.to_string(),
            out.panics.to_string(),
            out.recoveries.to_string(),
            out.epochs.to_string(),
            format!("{:.1}%", out.shed_rate * 100.0),
            ms(out.p50),
            ms(out.p99),
            format!("ok ({} epochs replayed)", out.epochs_checked),
        ]);
    }
    t.notes.push(
        "oracle = per pinned epoch, a fresh single-threaded Hippo rebuilt from that epoch's \
         catalog must reproduce every successful CQA answer bit-identically"
            .into(),
    );
    t.notes.push(
        "every client failure is structured (Overloaded/Cancelled/Budget/injected WorkerPanic); \
         drain() completes after traffic and subsequent requests get Shutdown"
            .into(),
    );
    Ok(t)
}

struct ChaosOutcome {
    requests: u64,
    ok: u64,
    shed: u64,
    cancelled: u64,
    budget: u64,
    panics: u64,
    recoveries: u64,
    epochs: u64,
    epochs_checked: usize,
    shed_rate: f64,
    p50: Duration,
    p99: Duration,
}

/// One seeded traffic run; see [`e13_chaos_service`] for the scenario
/// definitions and the invariants enforced here.
fn chaos_scenario(
    scenario: &str,
    rows: usize,
    clients: usize,
    iters: usize,
) -> Result<ChaosOutcome, Box<dyn std::error::Error>> {
    use hippo_server::{Engine, EngineConfig, RetryPolicy, WriteOp};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    let spec = FdTableSpec::new("t", rows, 0.05, 71);
    let mut db = Database::new();
    spec.populate(&mut db)?;
    let cons = vec![spec.fd()];
    let hippo = Hippo::with_options(db, cons.clone(), HippoOptions::full())?;
    let config = match scenario {
        "overload" => EngineConfig {
            max_active: 2,
            max_queue: 1,
            retry_after: Duration::from_millis(1),
            default_deadline: None,
        },
        _ => EngineConfig::default(),
    };
    let eng = Engine::new(hippo, config)?;
    let q =
        SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)));

    // Fresh insert keys, far outside the workload's 0..rows key range.
    let next_key = AtomicI64::new(10_000_000);
    // Per-epoch evidence for the serial oracle replay: the first clean
    // CQA answer seen on each epoch (later samples of the same epoch
    // must agree bit-for-bit), and the row count plain reads observed.
    type Samples = Mutex<HashMap<u64, (Arc<hippo_server::Epoch>, Vec<Row>)>>;
    let cqa_samples: Samples = Mutex::new(HashMap::new());
    let read_counts: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let (ok_n, shed_n, cancel_n, budget_n, panic_n, other_n) = (
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    );

    std::thread::scope(|s| {
        for c in 0..clients {
            let eng = eng.clone();
            let q = &q;
            let next_key = &next_key;
            let cqa_samples = &cqa_samples;
            let read_counts = &read_counts;
            let latencies = &latencies;
            let (ok_n, shed_n, cancel_n, budget_n, panic_n, other_n) =
                (&ok_n, &shed_n, &cancel_n, &budget_n, &panic_n, &other_n);
            let saboteur = scenario == "chaos" && c == 0;
            let retry = (scenario == "overload").then(|| RetryPolicy {
                max_attempts: 5,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(8),
                seed: 0xC11E47 + c as u64,
            });
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xE13 + c as u64);
                let mut session = eng.session();
                let mut local_lat: Vec<Duration> = Vec::with_capacity(iters);
                for k in 0..iters {
                    // Pinning forever would starve the oracle of new
                    // epochs: re-pin every few ops.
                    if k % 4 == 0 {
                        session.refresh();
                    }
                    // Saboteur schedule: each arm is a fresh one-shot
                    // plan, injected into live traffic.
                    let mut clean = true;
                    if saboteur {
                        match k % 8 {
                            2 => {
                                // Writer panic mid-redetect: the write
                                // fails structurally, nothing publishes.
                                eng.set_writer_options(HippoOptions::full().with_faults(
                                    FaultPlan::new("detect", Some(0), FaultKind::Panic),
                                ));
                                let key = next_key.fetch_add(1, Ordering::Relaxed);
                                let r = eng.write(vec![WriteOp::Insert {
                                    table: "t".into(),
                                    rows: vec![vec![Value::Int(key), Value::Int(1), Value::Int(0)]],
                                }]);
                                if let Err(e) = &r {
                                    assert!(
                                        e.is_worker_panic() || e.is_budget(),
                                        "sabotaged write must fail structurally: {e}"
                                    );
                                }
                                eng.set_writer_options(HippoOptions::full());
                                continue;
                            }
                            5 => {
                                // Prover-shard panic inside a CQA read.
                                *session.options_mut() = HippoOptions::full().with_faults(
                                    FaultPlan::new("prover", Some(0), FaultKind::Panic),
                                );
                                clean = false;
                            }
                            7 => {
                                // A delayed shard racing a short deadline.
                                *session.options_mut() =
                                    HippoOptions::full().with_faults(FaultPlan::new(
                                        "prover",
                                        None,
                                        FaultKind::Delay(Duration::from_millis(30)),
                                    ));
                                session.set_deadline(Some(Duration::from_millis(10)));
                                clean = false;
                            }
                            3 => {
                                // Deadline trip with no fault plan.
                                session.set_deadline(Some(Duration::from_millis(1)));
                                clean = false;
                            }
                            _ => {}
                        }
                    }
                    let die = rng.gen_range(0u32..100);
                    let t0 = Instant::now();
                    let outcome: Result<(), hippo_engine::EngineError> = if die < 45 {
                        // Plain read on the pinned epoch.
                        session.query("SELECT * FROM t").map(|r| {
                            if clean {
                                let epoch = session.epoch().id();
                                let mut counts = read_counts.lock().unwrap();
                                let n = counts.entry(epoch).or_insert(r.rows.len());
                                assert_eq!(
                                    *n,
                                    r.rows.len(),
                                    "epoch {epoch}: plain reads disagree on row count"
                                );
                            }
                        })
                    } else if die < 55 {
                        // Write: a fresh conflict pair (two rows, same
                        // key) or one clean row.
                        let key = next_key.fetch_add(1, Ordering::Relaxed);
                        let rows = if die % 2 == 0 {
                            vec![
                                vec![Value::Int(key), Value::Int(1), Value::Int(0)],
                                vec![Value::Int(key), Value::Int(2), Value::Int(0)],
                            ]
                        } else {
                            vec![vec![Value::Int(key), Value::Int(5), Value::Int(0)]]
                        };
                        let op = vec![WriteOp::Insert {
                            table: "t".into(),
                            rows,
                        }];
                        match &retry {
                            Some(p) => p.run(|_| eng.write(op.clone())).map(|_| ()),
                            None => eng.write(op).map(|_| ()),
                        }
                    } else {
                        // CQA on the pinned epoch.
                        let r = match &retry {
                            Some(p) => p.run(|_| session.consistent_answers(q)),
                            None => session.consistent_answers(q),
                        };
                        r.map(|rows| {
                            if clean {
                                let epoch = Arc::clone(session.epoch());
                                let mut samples = cqa_samples.lock().unwrap();
                                let (_, first) = samples
                                    .entry(epoch.id())
                                    .or_insert_with(|| (epoch, rows.clone()));
                                assert_eq!(
                                    *first, rows,
                                    "two readers pinned to the same epoch diverged"
                                );
                            }
                        })
                    };
                    local_lat.push(t0.elapsed());
                    match outcome {
                        Ok(()) => {
                            ok_n.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_overloaded() => {
                            shed_n.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_cancelled() => {
                            cancel_n.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_budget() => {
                            budget_n.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_worker_panic() => {
                            assert!(
                                saboteur || scenario == "chaos",
                                "worker panic without an injected fault: {e}"
                            );
                            panic_n.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("unstructured failure in {scenario}: {e}");
                            other_n.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if !clean {
                        // Disarm: back to the session's vanilla options.
                        *session.options_mut() = HippoOptions::full();
                        session.set_deadline(None);
                    }
                }
                latencies.lock().unwrap().extend(local_lat);
            });
        }
    });

    // Traffic joined: no deadlock. Graceful drain must complete and
    // close the gate behind itself.
    eng.drain();
    let mut closed = eng.session();
    assert!(
        closed.consistent_answers(&q).unwrap_err().is_shutdown(),
        "drained service must reject with Shutdown"
    );

    // Serial oracle replay: every sampled epoch, rebuilt from its own
    // catalog into a fresh single-threaded Hippo, must reproduce the
    // answers the concurrent readers saw.
    let samples = cqa_samples.into_inner().unwrap();
    let read_counts = read_counts.into_inner().unwrap();
    let epochs_checked = samples.len();
    for (id, (epoch, rows_seen)) in &samples {
        let oracle_db = Database::from_catalog(epoch.frozen().catalog().clone());
        let oracle = Hippo::with_options(
            oracle_db,
            cons.clone(),
            HippoOptions::full().with_prover_threads(1),
        )?;
        let want = oracle.consistent_answers(&q)?;
        if want != *rows_seen {
            return Err(format!(
                "{scenario}: epoch {id} diverged from its serial oracle \
                 ({} vs {} answer rows)",
                rows_seen.len(),
                want.len()
            )
            .into());
        }
        if let Some(n) = read_counts.get(id) {
            let got = epoch
                .frozen()
                .snapshot()
                .query("SELECT * FROM t")?
                .rows
                .len();
            if got != *n {
                return Err(format!(
                    "{scenario}: epoch {id} plain-read count {n} != catalog count {got}"
                )
                .into());
            }
        }
    }

    let stats = eng.stats();
    let (ok, shed, cancelled, budget, panics, other) = (
        ok_n.into_inner(),
        shed_n.into_inner(),
        cancel_n.into_inner(),
        budget_n.into_inner(),
        panic_n.into_inner(),
        other_n.into_inner(),
    );
    if other != 0 {
        return Err(format!("{scenario}: {other} unstructured failures").into());
    }
    if scenario == "overload" && stats.requests_shed == 0 {
        return Err("overload scenario shed nothing — admission never saturated".into());
    }
    if scenario == "chaos" && stats.writer_recoveries == 0 {
        return Err("chaos scenario: the injected writer panic never fired".into());
    }
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let pctl = |p: f64| -> Duration {
        if lat.is_empty() {
            Duration::ZERO
        } else {
            lat[((lat.len() - 1) as f64 * p).round() as usize]
        }
    };
    let requests = ok + shed + cancelled + budget + panics;
    Ok(ChaosOutcome {
        requests,
        ok,
        shed,
        cancelled,
        budget,
        panics,
        recoveries: stats.writer_recoveries,
        epochs: stats.epochs_published,
        epochs_checked,
        shed_rate: if requests == 0 {
            0.0
        } else {
            shed as f64 / requests as f64
        },
        p50: pctl(0.50),
        p99: pctl(0.99),
    })
}

// ---------------------------------------------------------------------
// E14: crash recovery — kill-tested durability.
// ---------------------------------------------------------------------

/// Base key for the crash-child's sequenced inserts: far above any key
/// the seeded workload generator produces.
const E14_BASE_KEY: i64 = 10_000_000;

fn e14_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("hippo-e14-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn e14_workload(
    rows: usize,
    seed: u64,
) -> Result<(Database, Vec<DenialConstraint>), Box<dyn std::error::Error>> {
    let spec = FdTableSpec::new("t", rows, 0.05, seed);
    let mut db = Database::new();
    spec.populate(&mut db)?;
    Ok((db, vec![spec.fd()]))
}

fn e14_row(key: i64) -> Row {
    vec![Value::Int(key), Value::Int(5), Value::Int(0)]
}

fn e14_query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

/// Serial oracle: fresh single-threaded Hippo over the seeded base
/// table plus the first `k` sequenced crash-child rows.
fn e14_oracle(rows: usize, seed: u64, k: u64) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let (db, cons) = e14_workload(rows, seed)?;
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full().with_prover_threads(1))?;
    for i in 0..k {
        hippo.insert_tuples("t", vec![e14_row(E14_BASE_KEY + i as i64)])?;
    }
    hippo.redetect()?;
    Ok(hippo.consistent_answers(&e14_query())?)
}

/// Hidden crash-child entry point, selected purely by environment so
/// that both the harness binary and the test binary can serve as the
/// SIGKILL target. `HIPPO_E14_CHILD=dir|rows|seed|start|limit` makes
/// the process open (or recover) a durable engine in `dir` and append
/// sequenced single-row transactions, acking each durable commit on
/// stdout, until it is killed.
pub fn e14_child_from_env() {
    let Ok(spec) = std::env::var("HIPPO_E14_CHILD") else {
        return;
    };
    use hippo_server::{DurabilityConfig, Engine, EngineConfig, WriteOp};
    let parts: Vec<&str> = spec.split('|').collect();
    let (dir, rows, seed, start, limit) = (
        std::path::PathBuf::from(parts[0]),
        parts[1].parse::<usize>().unwrap(),
        parts[2].parse::<u64>().unwrap(),
        parts[3].parse::<u64>().unwrap(),
        parts[4].parse::<u64>().unwrap(),
    );
    let config = DurabilityConfig {
        dir: dir.clone(),
        checkpoint_every_frames: 8,
    };
    let (db, cons) = e14_workload(rows, seed).unwrap();
    let eng = if dir.join("checkpoint.bin").exists() {
        Engine::recover(
            EngineConfig::default(),
            config,
            cons,
            Vec::new(),
            HippoOptions::full(),
        )
        .unwrap()
    } else {
        let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
        Engine::new_durable(hippo, EngineConfig::default(), config).unwrap()
    };
    for i in start..start + limit {
        eng.write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: vec![e14_row(E14_BASE_KEY + i as i64)],
        }])
        .unwrap();
        // Rust's stdout is line-buffered: the ack is flushed before the
        // next write begins, so every line the parent reads names a
        // transaction whose fsync completed.
        println!("acked {i}");
    }
    // Limit reached before the parent's kill: idle and wait for it.
    loop {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// E14: crash recovery. Four phases:
///
/// 1. `fault`: in-process injected panics at every durability fault
///    point (`wal:append`, `wal:fsync`, `checkpoint:write`,
///    `checkpoint:swap`); the engine is dropped mid-write and
///    relaunched on the same directory.
/// 2. `sigkill`: an out-of-process child is spawned, runs real write
///    traffic against the same directory, and is SIGKILL'd mid-flight;
///    the parent recovers and checks the committed prefix.
/// 3. `recover_time`: recovery wall-time versus log length.
/// 4. `group_commit`: write throughput at batch sizes 1/4/16 (batch 1
///    = one fsync and one reconciliation per transaction).
///
/// Every phase checks recovered consistent answers bit-identically
/// against a fresh single-threaded oracle on the committed prefix.
pub fn e14_crash_recovery(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    use hippo_cqa::budget::{FaultKind, FaultPlan};
    use hippo_server::{DurabilityConfig, Engine, EngineConfig, WriteOp};

    let rows = if quick { 600 } else { 2_000 };
    let seed = 73u64;
    let mut t = Table::new(
        "E14",
        format!("crash recovery: durability fault points, SIGKILL traffic, recovery time, group commit (|t|={rows})"),
        &["phase", "case", "detail", "frames", "wal bytes", "ms", "result"],
    );

    let insert = |key: i64| -> WriteOp {
        WriteOp::Insert {
            table: "t".into(),
            rows: vec![e14_row(key)],
        }
    };
    let recover = |dir: &std::path::Path| -> Result<Engine, Box<dyn std::error::Error>> {
        let (_, cons) = e14_workload(rows, seed)?;
        let eng = Engine::recover(
            EngineConfig::default(),
            DurabilityConfig {
                dir: dir.to_path_buf(),
                checkpoint_every_frames: 0,
            },
            cons,
            Vec::new(),
            HippoOptions::full(),
        )?;
        if let Some(report) = eng.recovery_report() {
            println!("  [E14 recover] {report}");
        }
        Ok(eng)
    };

    // Phase 1: in-process panics at every durability fault point.
    for stage in [
        "wal:append",
        "wal:fsync",
        "checkpoint:write",
        "checkpoint:swap",
    ] {
        let dir = e14_dir(&format!("fault-{}", stage.replace(':', "-")));
        let (db, cons) = e14_workload(rows, seed)?;
        let hippo = Hippo::with_options(db, cons, HippoOptions::full())?;
        let eng = Engine::new_durable(
            hippo,
            EngineConfig::default(),
            DurabilityConfig {
                dir: dir.clone(),
                checkpoint_every_frames: 0,
            },
        )?;
        // One durable commit, then arm the fault and crash mid-write
        // (or mid-checkpoint).
        eng.write(vec![insert(E14_BASE_KEY)])?;
        eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
            stage,
            Some(0),
            FaultKind::Panic,
        )));
        let is_ckpt = stage.starts_with("checkpoint");
        let failed = if is_ckpt {
            eng.checkpoint().is_err()
        } else {
            eng.write(vec![insert(E14_BASE_KEY + 1)]).is_err()
        };
        if !failed {
            return Err(format!("E14 fault {stage}: injected panic did not surface").into());
        }
        drop(eng); // crash: relaunch on the same directory

        let start = Instant::now();
        let eng2 = recover(&dir)?;
        let elapsed = start.elapsed();
        let report = eng2.recovery_report().unwrap();
        // A complete but unacknowledged frame on disk (possible only
        // for the fsync fault) is resolved forward — standard WAL
        // ambiguous-commit semantics. The replayed frame count says
        // which way it went; the oracle must match it either way.
        let committed = report.frames_replayed;
        let got = eng2.session().consistent_answers(&e14_query())?;
        if got != e14_oracle(rows, seed, committed)? {
            return Err(format!("E14 fault {stage}: recovery diverged from oracle").into());
        }
        t.rows.push(vec![
            "fault".into(),
            format!("{stage}/panic"),
            format!(
                "write {} after relaunch",
                if committed > 1 {
                    "resolved forward"
                } else {
                    "rolled back"
                }
            ),
            report.frames_replayed.to_string(),
            report.wal_bytes.to_string(),
            ms(elapsed),
            "oracle ok".into(),
        ]);
        drop(eng2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Phase 2: out-of-process SIGKILL mid-traffic.
    let kill_rounds = if quick { 3 } else { 5 };
    let kill_after = Duration::from_millis(if quick { 350 } else { 600 });
    let dir = e14_dir("sigkill");
    let mut next_start = 0u64;
    for round in 0..kill_rounds {
        let exe = std::env::current_exe()?;
        let mut child = std::process::Command::new(&exe)
            .env(
                "HIPPO_E14_CHILD",
                format!("{}|{rows}|{seed}|{next_start}|4000", dir.display()),
            )
            // When the target is a libtest binary these args select the
            // (otherwise no-op) child entry test and un-capture its
            // stdout; the harness binary checks the env var first and
            // never parses them.
            .args(["e14_child_entry", "--nocapture", "--test-threads=1"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        std::thread::sleep(kill_after);
        if let Some(status) = child.try_wait()? {
            return Err(format!("E14 sigkill round {round}: child died early: {status}").into());
        }
        child.kill()?; // SIGKILL — no destructors, no flushes
        let out = child.wait_with_output()?;
        // A libtest child glues its preamble onto the first ack
        // ("test ... ... acked 0"), so search rather than prefix-match.
        let acked: Vec<u64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| {
                l[l.rfind("acked ")?..]
                    .trim_start_matches("acked ")
                    .trim()
                    .parse()
                    .ok()
            })
            .collect();
        for (i, a) in acked.iter().enumerate() {
            if *a != next_start + i as u64 {
                return Err(format!("E14 sigkill round {round}: acks out of order").into());
            }
        }

        let start = Instant::now();
        let eng = match recover(&dir) {
            Ok(e) => e,
            // Killed before the birth checkpoint: an empty directory is
            // a legal crash state; the next round starts from scratch.
            Err(e) if e.to_string().contains("no checkpoint") => {
                t.rows.push(vec![
                    "sigkill".into(),
                    format!("round {round}"),
                    "killed before birth checkpoint".into(),
                    "0".into(),
                    "0".into(),
                    "-".into(),
                    "empty dir ok".into(),
                ]);
                next_start = 0;
                continue;
            }
            Err(e) => return Err(e),
        };
        let elapsed = start.elapsed();
        let report = eng.recovery_report().unwrap();

        // The recovered sequence must be a contiguous prefix that
        // contains every acked transaction.
        let mut session = eng.session();
        let mut keys: Vec<i64> = session
            .epoch()
            .frozen()
            .catalog()
            .table("t")?
            .iter()
            .filter_map(|(_, r)| match r[0] {
                Value::Int(k) if k >= E14_BASE_KEY => Some(k - E14_BASE_KEY),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        let k = keys.len() as u64;
        if keys.iter().enumerate().any(|(i, &key)| key != i as i64) {
            return Err(format!("E14 sigkill round {round}: recovered keys have gaps").into());
        }
        let durable_floor = next_start + acked.len() as u64;
        if k < durable_floor {
            return Err(format!(
                "E14 sigkill round {round}: lost acked writes (recovered {k} < acked {durable_floor})"
            )
            .into());
        }
        let got = session.consistent_answers(&e14_query())?;
        if got != e14_oracle(rows, seed, k)? {
            return Err(format!("E14 sigkill round {round}: recovery diverged from oracle").into());
        }
        t.rows.push(vec![
            "sigkill".into(),
            format!("round {round}"),
            format!(
                "acked={} recovered={k} ckpt_lsn={} torn_tail={}",
                durable_floor, report.checkpoint_lsn, report.torn_tail_truncated
            ),
            report.frames_replayed.to_string(),
            report.wal_bytes.to_string(),
            ms(elapsed),
            "prefix+oracle ok".into(),
        ]);
        next_start = k;
        drop(session);
        drop(eng);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 3: recovery time versus log length (no checkpoints, so the
    // whole log replays).
    for frames in if quick {
        [16u64, 64, 256]
    } else {
        [64, 256, 1024]
    } {
        let dir = e14_dir(&format!("rectime-{frames}"));
        let (db, cons) = e14_workload(rows, seed)?;
        let hippo = Hippo::with_options(db, cons, HippoOptions::full())?;
        let eng = Engine::new_durable(
            hippo,
            EngineConfig::default(),
            DurabilityConfig {
                dir: dir.clone(),
                checkpoint_every_frames: 0,
            },
        )?;
        for i in 0..frames {
            eng.write(vec![insert(E14_BASE_KEY + i as i64)])?;
        }
        drop(eng);
        let start = Instant::now();
        let eng2 = recover(&dir)?;
        let elapsed = start.elapsed();
        let report = eng2.recovery_report().unwrap();
        let got = eng2.session().consistent_answers(&e14_query())?;
        if got != e14_oracle(rows, seed, frames)? {
            return Err(format!("E14 recover_time frames={frames}: oracle diverged").into());
        }
        t.rows.push(vec![
            "recover_time".into(),
            format!("frames={frames}"),
            "full log replay (no checkpoint)".into(),
            report.frames_replayed.to_string(),
            report.wal_bytes.to_string(),
            ms(elapsed),
            "oracle ok".into(),
        ]);
        drop(eng2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Phase 4: group-commit throughput at batch sizes 1/4/16. Each
    // size gets a fresh engine so table growth doesn't bias the
    // comparison. Batch 1 is the per-op-fsync baseline.
    let txns = if quick { 96u64 } else { 240 };
    let mut base_thr = 0.0f64;
    for batch in [1u64, 4, 16] {
        let dir = e14_dir(&format!("group-{batch}"));
        let (db, cons) = e14_workload(rows, seed)?;
        let hippo = Hippo::with_options(db, cons, HippoOptions::full())?;
        let eng = Engine::new_durable(
            hippo,
            EngineConfig::default(),
            DurabilityConfig {
                dir: dir.clone(),
                checkpoint_every_frames: 0,
            },
        )?;
        let start = Instant::now();
        let mut seq = 0u64;
        while seq < txns {
            let group: Vec<Vec<WriteOp>> = (0..batch)
                .map(|j| vec![insert(E14_BASE_KEY + (seq + j) as i64)])
                .collect();
            for r in eng.write_group(group)? {
                r?;
            }
            seq += batch;
        }
        let elapsed = start.elapsed();
        let stats = eng.stats();
        let thr = txns as f64 / elapsed.as_secs_f64();
        if batch == 1 {
            base_thr = thr;
        }
        drop(eng);
        let eng2 = recover(&dir)?;
        let got = eng2.session().consistent_answers(&e14_query())?;
        if got != e14_oracle(rows, seed, txns)? {
            return Err(format!("E14 group_commit batch={batch}: oracle diverged").into());
        }
        t.rows.push(vec![
            "group_commit".into(),
            format!("batch={batch}"),
            format!("{txns} txns, {} fsyncs, {:.0} tx/s", stats.wal_fsyncs, thr),
            stats.wal_frames.to_string(),
            "-".into(),
            ms(elapsed),
            format!("{:.1}x vs batch 1", thr / base_thr),
        ]);
        drop(eng2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    t.notes.push(
        "oracle = fresh single-threaded Hippo over the seeded base table plus the recovered \
         committed prefix; every phase requires bit-identical consistent answers"
            .into(),
    );
    t.notes.push(
        "sigkill invariants: acks are durable (never lost), recovered keys form a contiguous \
         prefix, torn tails truncate silently; acceptance: batch=16 group commit ≥2x the \
         per-op-fsync baseline"
            .into(),
    );
    Ok(t)
}

// =====================================================================
// E15: replication failover — kill-tested promotion, fencing, chaos
// transports, catch-up time and steady-state lag.
// =====================================================================

fn e15_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("hippo-e15-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn e15_replica_config(seed: u64) -> hippo_server::ReplicaConfig {
    let (_, cons) = e14_workload(1, seed).unwrap();
    let mut config = hippo_server::ReplicaConfig::new(cons);
    config.options = HippoOptions::full();
    config.resync_after = Duration::from_millis(30);
    config
}

/// Poll `cond` until it holds or `deadline` passes (structured error,
/// never a hang — experiments must fail loudly).
fn e15_wait(
    mut cond: impl FnMut() -> bool,
    what: &str,
    deadline: Duration,
) -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    while !cond() {
        if start.elapsed() > deadline {
            return Err(format!("E15: timed out waiting for {what}").into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Count the sequenced crash-traffic keys an engine holds and demand
/// they form a contiguous prefix `0..k`.
fn e15_applied_prefix(eng: &hippo_server::Engine) -> Result<u64, Box<dyn std::error::Error>> {
    let session = eng.session();
    let mut keys: Vec<i64> = session
        .epoch()
        .frozen()
        .catalog()
        .table("t")?
        .iter()
        .filter_map(|(_, r)| match r[0] {
            Value::Int(k) if k >= E14_BASE_KEY => Some(k - E14_BASE_KEY),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    for (i, &k) in keys.iter().enumerate() {
        if k != i as i64 {
            return Err(format!("E15: applied keys have gaps at index {i} (key {k})").into());
        }
    }
    Ok(keys.len() as u64)
}

/// Hidden crash-child entry point for E15, selected purely by
/// environment (`HIPPO_E15_CHILD=dir|rows|seed|limit`): open a durable
/// engine in `dir`, serve replication on an ephemeral TCP port
/// (announced as `port N` on stdout), then append sequenced single-row
/// transactions, acking each durable commit, until SIGKILL'd.
pub fn e15_child_from_env() {
    let Ok(spec) = std::env::var("HIPPO_E15_CHILD") else {
        return;
    };
    use hippo_server::{DurabilityConfig, Engine, EngineConfig, WriteOp};
    let parts: Vec<&str> = spec.split('|').collect();
    let (dir, rows, seed, limit) = (
        std::path::PathBuf::from(parts[0]),
        parts[1].parse::<usize>().unwrap(),
        parts[2].parse::<u64>().unwrap(),
        parts[3].parse::<u64>().unwrap(),
    );
    let (db, cons) = e14_workload(rows, seed).unwrap();
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let eng = Engine::new_durable(
        hippo,
        EngineConfig::default(),
        DurabilityConfig {
            dir,
            checkpoint_every_frames: 8,
        },
    )
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = eng.serve_replication(listener).unwrap();
    // Line-buffered stdout: the parent reads this before attaching.
    println!("port {}", server.addr().port());
    for i in 0..limit {
        eng.write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: vec![e14_row(E14_BASE_KEY + i as i64)],
        }])
        .unwrap();
        println!("acked {i}");
    }
    // Limit reached before the parent's kill: idle and wait for it.
    loop {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// E15: WAL-shipping replication and kill-tested failover. Five phases:
///
/// 1. `failover`: an out-of-process primary serves replication over
///    TCP and runs acked write traffic; a replica follows; the primary
///    is SIGKILL'd mid-flight and the replica is **promoted**. The
///    promoted node's consistent answers must be bit-identical to a
///    serial oracle on its applied prefix, the term must bump, and
///    recovering the dead primary's directory must show the replica
///    applied a prefix of what was committed.
/// 2. `fencing`: a crafted higher-term heartbeat turns the live
///    primary into a zombie; its frames must be rejected without
///    touching replica state, and the rejection must teach the zombie
///    to stop feeding.
/// 3. `chaos`: armed `repl:drop`/`repl:corrupt`/`repl:delay` faults on
///    the shipping path heal via resync (bit-identical convergence);
///    `repl:disconnect` surfaces structurally and a re-attach recovers.
/// 4. `catchup`: a partitioned replica rejoins after N frames of
///    missed traffic; catch-up must go through the incremental WAL
///    path (no snapshot), timed per N.
/// 5. `lag`: steady-state replication lag sampled under write traffic,
///    converging to zero.
pub fn e15_replication_failover(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    use hippo_cqa::budget::{FaultKind, FaultPlan};
    use hippo_server::replicate::ReplMsg;
    use hippo_server::{
        ChannelTransport, DurabilityConfig, Engine, EngineConfig, Replica, TcpTransport, Transport,
        WriteOp,
    };

    let rows = if quick { 400 } else { 1_500 };
    let seed = 79u64;
    let mut t = Table::new(
        "E15",
        format!("replication failover: SIGKILL'd primary, promotion, fencing, chaos transports, catch-up and lag (|t|={rows})"),
        &["phase", "case", "detail", "lsns", "ms", "result"],
    );

    let insert = |key: i64| -> WriteOp {
        WriteOp::Insert {
            table: "t".into(),
            rows: vec![e14_row(key)],
        }
    };
    let durable = |dir: &std::path::Path| -> Result<Engine, Box<dyn std::error::Error>> {
        let (db, cons) = e14_workload(rows, seed)?;
        let hippo = Hippo::with_options(db, cons, HippoOptions::full())?;
        Ok(Engine::new_durable(
            hippo,
            EngineConfig::default(),
            DurabilityConfig {
                dir: dir.to_path_buf(),
                checkpoint_every_frames: 0,
            },
        )?)
    };
    let recover = |dir: &std::path::Path| -> Result<Engine, Box<dyn std::error::Error>> {
        let (_, cons) = e14_workload(rows, seed)?;
        let eng = Engine::recover(
            EngineConfig::default(),
            DurabilityConfig {
                dir: dir.to_path_buf(),
                checkpoint_every_frames: 0,
            },
            cons,
            Vec::new(),
            HippoOptions::full(),
        )?;
        if let Some(report) = eng.recovery_report() {
            println!("  [E15 recover] {report}");
        }
        Ok(eng)
    };
    let wait_caught_up = |eng: &Engine, replica: &Replica, what: &str| {
        let target = eng.replication_stats().last_lsn;
        e15_wait(
            || replica.staleness().applied_lsn >= target && replica.broken().is_none(),
            what,
            Duration::from_secs(30),
        )
    };

    // -----------------------------------------------------------------
    // Phase 1: SIGKILL the primary mid-traffic, promote the replica.
    // -----------------------------------------------------------------
    {
        let dir = e15_dir("failover");
        let min_acks = if quick { 25 } else { 60 };
        let exe = std::env::current_exe()?;
        let mut child = std::process::Command::new(&exe)
            .env(
                "HIPPO_E15_CHILD",
                format!("{}|{rows}|{seed}|4000", dir.display()),
            )
            // Libtest-target argv (see E14): selects the child entry
            // test and un-captures stdout; the harness binary checks
            // the env var first and ignores these.
            .args(["e15_child_entry", "--nocapture", "--test-threads=1"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        // The port arrives on stdout *before* the kill, so the stream
        // must be read incrementally — a reader thread feeds a channel.
        let stdout = child.stdout.take().ok_or("E15: no child stdout")?;
        let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            use std::io::BufRead as _;
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(l) = line else { break };
                if line_tx.send(l).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut port: Option<u16> = None;
        let mut acked = 0u64;
        while port.is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                return Err("E15 failover: child never announced its port".into());
            }
            if let Ok(l) = line_rx.recv_timeout(Duration::from_millis(50)) {
                // Libtest glues its preamble onto the first line.
                if let Some(at) = l.rfind("port ") {
                    port = l[at + 5..].trim().parse().ok();
                }
            }
        }
        let transport = TcpTransport::connect(&format!("127.0.0.1:{}", port.unwrap()))?;
        let replica = Replica::start(Box::new(transport), e15_replica_config(seed));

        // Let real traffic flow: count acks until the kill threshold.
        while acked < min_acks {
            if Instant::now() > deadline {
                let _ = child.kill();
                return Err(format!("E15 failover: only {acked} acks before deadline").into());
            }
            if let Ok(l) = line_rx.recv_timeout(Duration::from_millis(50)) {
                if l.contains("acked ") {
                    acked += 1;
                }
            }
        }
        child.kill()?; // SIGKILL — no destructors, no flushes
        child.wait()?;
        // Drain the acks that were in flight when the kill landed.
        while let Ok(l) = line_rx.recv_timeout(Duration::from_millis(100)) {
            if l.contains("acked ") {
                acked += 1;
            }
        }
        reader.join().ok();

        // Let in-flight frames settle, then promote.
        let settle = Instant::now();
        let mut last = replica.staleness().applied_lsn;
        loop {
            std::thread::sleep(Duration::from_millis(60));
            let now = replica.staleness().applied_lsn;
            if now == last || settle.elapsed() > Duration::from_secs(10) {
                break;
            }
            last = now;
        }
        let term_before = replica.term();
        let start = Instant::now();
        let (promoted, report) = replica.promote(EngineConfig::default(), None)?;
        let promote_ms = start.elapsed();
        if report.term != term_before + 1 || promoted.term() != report.term {
            return Err(format!(
                "E15 failover: promotion must bump the fencing term ({term_before} -> {:?})",
                report
            )
            .into());
        }

        // The promoted node serves exactly its applied prefix...
        let k = e15_applied_prefix(&promoted)?;
        let got = promoted.session().consistent_answers(&e14_query())?;
        if got != e14_oracle(rows, seed, k)? {
            return Err("E15 failover: promoted answers diverged from the serial oracle".into());
        }
        // ...which is a prefix of what the dead primary committed, and
        // every acked transaction survived in the primary's own log.
        let dead = recover(&dir)?;
        let m = e15_applied_prefix(&dead)?;
        let dead_got = dead.session().consistent_answers(&e14_query())?;
        if dead_got != e14_oracle(rows, seed, m)? {
            return Err("E15 failover: recovered primary diverged from the serial oracle".into());
        }
        if k > m {
            return Err(format!(
                "E15 failover: replica applied {k} writes but only {m} were committed"
            )
            .into());
        }
        if acked > m {
            return Err(format!(
                "E15 failover: {acked} acked writes but only {m} recovered — durability lost"
            )
            .into());
        }
        t.rows.push(vec![
            "failover".into(),
            "sigkill + promote".into(),
            format!(
                "acked={acked} applied={k} committed={m} term={}",
                report.term
            ),
            report.applied_lsn.to_string(),
            ms(promote_ms),
            "prefix+oracle ok".into(),
        ]);
        drop(dead);
        drop(promoted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // Phase 2: fencing — a zombie primary's frames are rejected.
    // -----------------------------------------------------------------
    {
        let dir = e15_dir("fencing");
        let eng = durable(&dir)?;
        let (a, b) = ChannelTransport::pair();
        let replica = Replica::start(Box::new(b), e15_replica_config(seed));
        eng.attach_replica(Box::new(a))?;
        eng.write(vec![insert(E14_BASE_KEY)])?;
        wait_caught_up(&eng, &replica, "fencing: initial sync")?;
        let settled = {
            let mut s = replica.session()?;
            s.consistent_answers(&e14_query())?
        };

        // A higher-term heartbeat teaches the replica the cluster
        // moved on; the still-live old primary is now a zombie.
        let (mut ours, theirs) = ChannelTransport::pair();
        replica.attach(Box::new(theirs));
        ours.send(
            &ReplMsg::Heartbeat {
                term: eng.term() + 1,
                last_lsn: replica.staleness().applied_lsn,
            }
            .encode(),
        )?;
        e15_wait(
            || replica.term() == eng.term() + 1,
            "fencing: term adoption",
            Duration::from_secs(10),
        )?;
        eng.write(vec![insert(E14_BASE_KEY + 1)])?;
        e15_wait(
            || replica.stats().frames_fenced >= 1,
            "fencing: stale frames rejected",
            Duration::from_secs(10),
        )?;
        let now = {
            let mut s = replica.session()?;
            s.consistent_answers(&e14_query())?
        };
        if now != settled {
            return Err("E15 fencing: fenced frames must not touch replica state".into());
        }
        e15_wait(
            || eng.replication_stats().feeds_fenced >= 1,
            "fencing: zombie learns via ack",
            Duration::from_secs(10),
        )?;
        let rs = replica.stats();
        t.rows.push(vec![
            "fencing".into(),
            "zombie primary".into(),
            format!(
                "frames_fenced={} feeds_fenced={}",
                rs.frames_fenced,
                eng.replication_stats().feeds_fenced
            ),
            rs.applied_lsn.to_string(),
            "-".into(),
            "state unchanged".into(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // Phase 3: chaos transports — drop/corrupt/delay heal, disconnect
    // surfaces structurally and a re-attach recovers.
    // -----------------------------------------------------------------
    {
        let dir = e15_dir("chaos");
        let eng = durable(&dir)?;
        let gov = HippoOptions::full()
            .with_faults(
                FaultPlan::parse("repl:drop:*:drop,repl:corrupt:*:corrupt,repl:delay:*:delay5")
                    .map_err(|e| format!("E15 chaos: {e}"))?,
            )
            .governance();
        let (a, b) = ChannelTransport::pair();
        let replica = Replica::start(Box::new(b), e15_replica_config(seed));
        eng.attach_replica(Box::new(a.with_faults(gov, 0)))?;
        let start = Instant::now();
        for i in 0..8 {
            eng.write(vec![insert(E14_BASE_KEY + i)])?;
        }
        wait_caught_up(&eng, &replica, "chaos: convergence through faults")?;
        let elapsed = start.elapsed();
        let got = {
            let mut s = replica.session()?;
            s.consistent_answers(&e14_query())?
        };
        if got != eng.session().consistent_answers(&e14_query())? {
            return Err("E15 chaos: dropped/corrupted frames must heal, not diverge".into());
        }
        let rs = replica.stats();
        if rs.broken {
            return Err(format!("E15 chaos: replica broke: {rs}").into());
        }
        if rs.msgs_corrupt < 1 || rs.gaps_detected + rs.resync_requests < 1 {
            return Err(format!("E15 chaos: armed faults never fired: {rs}").into());
        }
        t.rows.push(vec![
            "chaos".into(),
            "drop+corrupt+delay".into(),
            format!(
                "corrupt={} resyncs={} snapshots={}",
                rs.msgs_corrupt,
                rs.gaps_detected + rs.resync_requests,
                rs.snapshots_loaded
            ),
            rs.applied_lsn.to_string(),
            ms(elapsed),
            "bit-identical".into(),
        ]);

        // Disconnect: structured hangup, then a clean re-attach.
        let disc_gov = HippoOptions::full()
            .with_faults(FaultPlan::new(
                "repl:disconnect",
                None,
                FaultKind::Disconnect,
            ))
            .governance();
        let (a2, b2) = ChannelTransport::pair();
        let replica2 = Replica::start(Box::new(b2), e15_replica_config(seed));
        eng.attach_replica(Box::new(a2.with_faults(disc_gov, 0)))?;
        eng.write(vec![insert(E14_BASE_KEY + 8)])?;
        e15_wait(
            || replica2.stats().disconnects >= 1,
            "chaos: structured disconnect",
            Duration::from_secs(10),
        )?;
        if replica2.broken().is_some() {
            return Err("E15 chaos: a disconnect must never break replica state".into());
        }
        let (a3, b3) = ChannelTransport::pair();
        replica2.attach(Box::new(b3));
        eng.attach_replica(Box::new(a3))?;
        wait_caught_up(&eng, &replica2, "chaos: post-disconnect recovery")?;
        let got = {
            let mut s = replica2.session()?;
            s.consistent_answers(&e14_query())?
        };
        if got != eng.session().consistent_answers(&e14_query())? {
            return Err("E15 chaos: re-attached replica diverged".into());
        }
        t.rows.push(vec![
            "chaos".into(),
            "disconnect + reattach".into(),
            format!("disconnects={}", replica2.stats().disconnects),
            replica2.staleness().applied_lsn.to_string(),
            "-".into(),
            "bit-identical".into(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // Phase 4: catch-up time versus missed-log length. A replica syncs,
    // is partitioned (its primary dies), a successor commits N more
    // frames, and the replica rejoins — the catch-up must ride the
    // incremental WAL path, not a fresh snapshot.
    // -----------------------------------------------------------------
    for frames in if quick {
        [8u64, 32, 128]
    } else {
        [16, 64, 256]
    } {
        let dir = e15_dir(&format!("catchup-{frames}"));
        let eng = durable(&dir)?;
        let (a, b) = ChannelTransport::pair();
        let replica = Replica::start(Box::new(b), e15_replica_config(seed));
        eng.attach_replica(Box::new(a))?;
        eng.write(vec![insert(E14_BASE_KEY)])?;
        wait_caught_up(&eng, &replica, "catchup: initial sync")?;
        drop(eng); // partition: the feed dies with its engine

        let eng2 = recover(&dir)?;
        for i in 0..frames {
            eng2.write(vec![insert(E14_BASE_KEY + 1 + i as i64)])?;
        }
        let snapshots_before = replica.stats().snapshots_loaded;
        let (a2, b2) = ChannelTransport::pair();
        replica.attach(Box::new(b2));
        let start = Instant::now();
        eng2.attach_replica(Box::new(a2))?;
        wait_caught_up(&eng2, &replica, "catchup: rejoin")?;
        let elapsed = start.elapsed();
        let rs = replica.stats();
        if rs.snapshots_loaded != snapshots_before {
            return Err(format!(
                "E15 catchup frames={frames}: rejoin took a snapshot instead of the log: {rs}"
            )
            .into());
        }
        let got = {
            let mut s = replica.session()?;
            s.consistent_answers(&e14_query())?
        };
        if got != eng2.session().consistent_answers(&e14_query())? {
            return Err(format!("E15 catchup frames={frames}: diverged after rejoin").into());
        }
        t.rows.push(vec![
            "catchup".into(),
            format!("frames={frames}"),
            format!(
                "incremental replay (frames_applied={} ops={})",
                rs.frames_applied, rs.ops_applied
            ),
            rs.applied_lsn.to_string(),
            ms(elapsed),
            "incremental ok".into(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // Phase 5: steady-state replication lag under write traffic.
    // -----------------------------------------------------------------
    {
        let dir = e15_dir("lag");
        let eng = durable(&dir)?;
        let (a, b) = ChannelTransport::pair();
        let replica = Replica::start(Box::new(b), e15_replica_config(seed));
        eng.attach_replica(Box::new(a))?;
        let writes = if quick { 30u64 } else { 80 };
        let mut max_lag = 0u64;
        let mut lag_sum = 0u64;
        let start = Instant::now();
        for i in 0..writes {
            eng.write(vec![insert(E14_BASE_KEY + i as i64)])?;
            let lag = replica.staleness().lsn_lag;
            max_lag = max_lag.max(lag);
            lag_sum += lag;
        }
        wait_caught_up(&eng, &replica, "lag: final convergence")?;
        let elapsed = start.elapsed();
        let st = replica.staleness();
        if st.lsn_lag != 0 {
            return Err(format!("E15 lag: settled replica still lags: {st:?}").into());
        }
        let got = {
            let mut s = replica.session()?;
            s.consistent_answers(&e14_query())?
        };
        if got != eng.session().consistent_answers(&e14_query())? {
            return Err("E15 lag: converged replica diverged".into());
        }
        t.rows.push(vec![
            "lag".into(),
            format!("writes={writes}"),
            format!(
                "max_lag={max_lag} mean_lag={:.1} settled_lag=0",
                lag_sum as f64 / writes as f64
            ),
            st.applied_lsn.to_string(),
            ms(elapsed),
            "converged to 0".into(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    t.notes.push(
        "oracle = fresh single-threaded Hippo over the seeded base table plus the applied \
         committed prefix; failover requires promoted answers bit-identical to it and \
         applied <= committed (no invented writes), acked <= committed (no lost acks)"
            .into(),
    );
    t.notes.push(
        "fencing: promotion bumps a monotonic term carried in every frame; stale-term frames \
         are rejected without touching state and the rejection teaches the zombie to stop"
            .into(),
    );
    Ok(t)
}

/// Best-of-`reps` wall-clock of `f` (min absorbs scheduler noise).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// E16 (PR 10): columnar batch execution — typed column vectors with
/// selection-vector operators against the row-at-a-time engine, on the
/// E9 workload table. Three variants: the full-scan filter and grouped
/// aggregation SQL hot paths (columnar forced on vs off on the same
/// instance; answers must match bit for bit and the engine-choice
/// counters must prove which engine ran), the FD-detection LHS hash
/// pass (contiguous typed column slices vs slot-by-slot `Value`
/// hashing), and end-to-end conflict detection. In full mode the
/// vectorized filter, aggregate and hash pass must each hold their
/// speedup targets; quick mode (CI) only checks correctness — 2k-row
/// scans finish in microseconds, where shared-runner noise drowns
/// ratios.
pub fn e16_columnar(quick: bool) -> Result<Table, Box<dyn std::error::Error>> {
    use hippo_engine::set_columnar_override;
    use std::hash::{Hash, Hasher};
    use std::hint::black_box;

    let n = if quick { 2000 } else { 16000 };
    let reps = if quick { 30 } else { 10 };
    let mut t = Table::new(
        "E16",
        format!("columnar batch execution: vectorized vs row mode (|t|={n})"),
        &["variant", "engine", "time ms", "speedup", "detail"],
    );

    let spec = FdTableSpec::new("t", n, 0.05, 81);
    let mut db = Database::new();
    spec.populate(&mut db)?;
    // Warm the column store once: every timed region below measures the
    // steady state (DML invalidates the store; the next read rebuilds).
    db.catalog().table("t")?.column_store();

    // (1) Full-scan filter and grouped aggregation through SQL.
    for (variant, sql, target) in [
        ("filter_scan", "SELECT k FROM t WHERE payload >= 500", 2.0),
        (
            "aggregate",
            "SELECT payload, COUNT(*), SUM(v) FROM t GROUP BY payload",
            1.2,
        ),
    ] {
        let mut times = [Duration::ZERO; 2];
        let mut answers: Vec<Vec<Row>> = Vec::new();
        for (i, columnar) in [true, false].into_iter().enumerate() {
            set_columnar_override(Some(columnar));
            answers.push(db.query(sql)?.rows);
            db.reset_stats();
            db.query(sql)?;
            let s = db.stats();
            // The engine-choice counters prove which engine really ran.
            if columnar && (s.batches_executed == 0 || s.vectorized_rows == 0) {
                return Err(format!("{variant}: columnar run fell back to row mode").into());
            }
            if !columnar && s.vectorized_rows != 0 {
                return Err(format!("{variant}: row-mode run used the vectorized engine").into());
            }
            times[i] = best_of(reps, || {
                black_box(db.query(sql).unwrap());
            });
            set_columnar_override(None);
        }
        if answers[0] != answers[1] {
            return Err(format!("{variant}: columnar answers diverge from row mode").into());
        }
        let speedup = times[1].as_secs_f64() / times[0].as_secs_f64();
        if !quick && speedup < target {
            return Err(format!(
                "{variant}: vectorized speedup {speedup:.2}x below the {target}x target"
            )
            .into());
        }
        let rows_out = answers[0].len();
        for (engine, time, rel) in [
            ("vectorized", times[0], format!("{speedup:.2}x")),
            ("rowmode", times[1], "1.00x".into()),
        ] {
            t.rows.push(vec![
                variant.into(),
                engine.into(),
                ms(time),
                rel,
                format!("rows_out={rows_out} answers bit-identical"),
            ]);
        }
    }

    // (2) The FD-detection LHS hash pass in isolation: slot loop over
    // `Value` rows vs `ColumnStore::hash_cols` on contiguous slices
    // (identical hash bytes — this is exactly the E9 Phase A work).
    let table = db.catalog().table("t")?;
    let store = table
        .column_store()
        .ok_or("column store unavailable for t")?;
    let lhs = [0usize];
    let row_pass = best_of(reps, || {
        let mut acc = 0u64;
        for (_, row) in table.iter() {
            let mut h = rustc_hash::FxHasher::default();
            if row[lhs[0]].is_null() {
                continue;
            }
            row[lhs[0]].hash(&mut h);
            acc = acc.wrapping_add(h.finish());
        }
        black_box(acc);
    });
    let col_pass = best_of(reps, || {
        let mut acc = 0u64;
        store.for_each_hash::<rustc_hash::FxHasher, _>(0..store.len(), &lhs, |_, h| {
            acc = acc.wrapping_add(h);
        });
        black_box(acc);
    });
    let speedup = row_pass.as_secs_f64() / col_pass.as_secs_f64();
    if !quick && speedup < 2.0 {
        return Err(
            format!("detect_hash: vectorized speedup {speedup:.2}x below the 2x target").into(),
        );
    }
    t.rows.push(vec![
        "detect_hash".into(),
        "vectorized".into(),
        ms(col_pass),
        format!("{speedup:.2}x"),
        format!("{} live rows hashed, identical hash bytes", store.len()),
    ]);
    t.rows.push(vec![
        "detect_hash".into(),
        "rowmode".into(),
        ms(row_pass),
        "1.00x".into(),
        format!("{} live rows hashed", table.len()),
    ]);

    // (3) End-to-end conflict detection (Phase A vectorized, Phase B
    // identical): the graph must not change shape with the toggle.
    let constraints = vec![spec.fd()];
    let mut edges = [0usize; 2];
    let mut detect_times = [Duration::ZERO; 2];
    for (i, columnar) in [true, false].into_iter().enumerate() {
        set_columnar_override(Some(columnar));
        let (g, _) = detect_conflicts(db.catalog(), &constraints)?;
        edges[i] = g.edge_count();
        detect_times[i] = best_of(reps.min(5), || {
            black_box(detect_conflicts(db.catalog(), &constraints).unwrap());
        });
        set_columnar_override(None);
    }
    if edges[0] != edges[1] {
        return Err("detect_full: edge count changed with the columnar toggle".into());
    }
    let speedup = detect_times[1].as_secs_f64() / detect_times[0].as_secs_f64();
    for (engine, time, rel) in [
        ("vectorized", detect_times[0], format!("{speedup:.2}x")),
        ("rowmode", detect_times[1], "1.00x".into()),
    ] {
        t.rows.push(vec![
            "detect_full".into(),
            engine.into(),
            ms(time),
            rel,
            format!("edges={} (identical)", edges[0]),
        ]);
    }

    t.notes.push(
        "vectorized = typed column vectors + validity bitmaps + selection-vector operators \
         (crates/engine/src/column.rs); rowmode = the streamed row-at-a-time operators. \
         Answers, errors and budget charges are bit-identical by construction — only the \
         engine-choice counters (batches_executed / vectorized_rows / rowmode_rows) differ"
            .into(),
    );
    t.notes.push(
        "speedup targets (filter >= 2x, detect hash pass >= 2x) are asserted in full mode; \
         quick mode checks correctness only (2k-row scans are microsecond-scale and \
         CI-runner noise dominates the ratio)"
            .into(),
    );
    Ok(t)
}

/// Run every experiment; `quick` shrinks sizes for CI.
pub fn run_all(quick: bool) -> Result<Vec<Table>, Box<dyn std::error::Error>> {
    Ok(vec![
        d1_information(quick)?,
        d2_expressiveness()?,
        e1_scaling(quick)?,
        e2_conflicts(quick)?,
        e3_query_classes(quick)?,
        e4_detection(quick)?,
        e5_ablation(quick)?,
        e6_envelope(quick)?,
        e7_repair_blowup(quick)?,
        e8_parallel(quick)?,
        e9_prover(quick)?,
        e10_base_mode(quick)?,
        e11_index_probes(quick)?,
        e12_governance(quick)?,
        e13_chaos_service(quick)?,
        e14_crash_recovery(quick)?,
        e15_replication_failover(quick)?,
        e16_columnar(quick)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d2_matrix_has_no_wrong_cells() {
        let t = d2_expressiveness().unwrap();
        for row in &t.rows {
            assert_ne!(row[2], "✗ WRONG", "{row:?}");
            assert_ne!(row[3], "✗ WRONG", "{row:?}");
        }
        // rewriting must be n/a for the union row and ternary rows
        let sud = t.rows.iter().find(|r| r[0] == "SUD").unwrap();
        assert_eq!(sud[3], "n/a");
        let tern = t.rows.iter().find(|r| r[1] == "ternary denial").unwrap();
        assert_eq!(tern[3], "n/a");
    }

    #[test]
    fn e7_hippo_agrees_with_naive_everywhere() {
        let t = e7_repair_blowup(true).unwrap();
        for row in &t.rows {
            assert_eq!(row[4], "true", "{row:?}");
        }
        // Repair counts are 3^k.
        assert_eq!(t.rows[0][1], "9");
        assert_eq!(t.rows[1][1], "81");
    }

    #[test]
    fn e5_kg_kills_membership_queries() {
        let t = e5_ablation(true).unwrap();
        let base = &t.rows[0];
        let kg = &t.rows[1];
        assert!(base[2].parse::<usize>().unwrap() > 0);
        assert_eq!(kg[2], "0");
        // Answers identical across variants.
        assert_eq!(base[5], kg[5]);
        assert_eq!(kg[5], t.rows[2][5]);
    }

    #[test]
    fn e6_candidate_counts_consistent() {
        let t = e6_envelope(true).unwrap();
        for row in &t.rows {
            let candidates: usize = row[1].parse().unwrap();
            let filtered: usize = row[2].parse().unwrap();
            let prover: usize = row[3].parse().unwrap();
            let consistent: usize = row[4].parse().unwrap();
            assert_eq!(filtered + prover, candidates, "{row:?}");
            assert!(consistent <= candidates);
            assert!(filtered <= consistent);
        }
    }

    #[test]
    fn e9_rows_are_internally_consistent() {
        let t = e9_prover(true).unwrap();
        // Thread rows: identical prover calls / cache hits / answers.
        let threads: Vec<&Vec<String>> =
            t.rows.iter().filter(|r| r[0] == "prover_threads").collect();
        assert_eq!(threads.len(), 4);
        for r in &threads {
            assert_eq!(r[4], threads[0][4], "prover calls differ: {r:?}");
            assert_eq!(r[5], threads[0][5], "cache hits differ: {r:?}");
            assert_eq!(r[6], threads[0][6], "answers differ: {r:?}");
        }
        // Cache rows: memoized proves fewer tuples than uncached.
        let uncached = t.rows.iter().find(|r| r[1] == "uncached").unwrap();
        let memoized = t.rows.iter().find(|r| r[1] == "memoized").unwrap();
        assert_eq!(uncached[5], "0");
        let hits: usize = memoized[5].parse().unwrap();
        assert!(hits > 0, "memoized run must hit the cache: {memoized:?}");
        // Hit-rate sweep: hits ≤ calls on every row.
        for r in t.rows.iter().filter(|r| r[0] == "cache_hit_rate") {
            let calls: usize = r[4].parse().unwrap();
            let hits: usize = r[5].parse().unwrap();
            assert!(hits <= calls, "{r:?}");
        }
        // Delta-seeded redetect checks far fewer combinations than the
        // full pass (no outer-atom rescan).
        let combos =
            |r: &Vec<String>| -> usize { r[6].strip_prefix("combos=").unwrap().parse().unwrap() };
        let full = t.rows.iter().find(|r| r[1] == "full_rebuild").unwrap();
        let delta = t
            .rows
            .iter()
            .find(|r| r[1] == "delta_seeded_1_insert")
            .unwrap();
        assert!(
            combos(delta) * 100 <= combos(full),
            "delta combos {} vs full {}",
            combos(delta),
            combos(full)
        );
    }

    #[test]
    fn e11_rows_are_internally_consistent() {
        let t = e11_index_probes(true).unwrap();
        // Row 0: indexed — all probes through the index.
        let idx_split = &t.rows[0][4];
        assert!(idx_split.ends_with("/0"), "{idx_split}");
        assert!(!idx_split.starts_with("0/"), "no probes executed at all?");
        // Row 1: scan ablation — no index probes.
        assert!(t.rows[1][4].starts_with("0/"), "{:?}", t.rows[1]);
        // All three rows agree on the answer count (also asserted
        // inside the experiment itself).
        let ans = |row: &[String]| {
            row[5]
                .split("answers=")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(ans(&t.rows[0]), ans(&t.rows[1]));
        assert_eq!(ans(&t.rows[0]), ans(&t.rows[2]));
    }

    #[test]
    fn e10_rows_are_internally_consistent() {
        let t = e10_base_mode(true).unwrap();
        // Base thread rows: identical answers, shard counts and SQL
        // membership counts on every row.
        let threads: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "base_threads").collect();
        assert_eq!(threads.len(), 4);
        for r in &threads {
            assert_eq!(r[4], threads[0][4], "membership sql differs: {r:?}");
            assert_eq!(r[5], threads[0][5], "answers/shards differ: {r:?}");
        }
        assert!(
            threads[0][4].parse::<usize>().unwrap() > 0,
            "base mode pays membership SQL"
        );
        // KG reference issues zero membership SQL.
        let kg = t.rows.iter().find(|r| r[0] == "kg_reference").unwrap();
        assert_eq!(kg[4], "0");
        // Cross-call cache: the second run proves nothing.
        let cc = t.rows.iter().find(|r| r[0] == "cross_call_cache").unwrap();
        assert!(cc[5].contains("proved 0"), "{cc:?}");
        // FK redetect rows exist and the incremental one flips edges.
        assert!(t.rows.iter().any(|r| r[1] == "full_rebuild"));
        assert!(t.rows.iter().any(|r| r[1] == "incremental_1_parent_delete"));
    }

    #[test]
    fn table_renders() {
        let t = d1_information(true).unwrap();
        let s = t.render();
        assert!(s.contains("D1"));
        assert!(s.lines().count() > 5);
    }

    /// SIGKILL target for [`e14_crash_recovery`]: a no-op unless the
    /// parent set `HIPPO_E14_CHILD`, in which case it never returns —
    /// it runs durable write traffic until the parent kills it.
    #[test]
    fn e14_child_entry() {
        e14_child_from_env();
    }

    /// SIGKILL target for [`e15_replication_failover`]: a no-op unless
    /// the parent set `HIPPO_E15_CHILD`, in which case it never
    /// returns — it serves replication and runs durable write traffic
    /// until the parent kills it.
    #[test]
    fn e15_child_entry() {
        e15_child_from_env();
    }

    #[test]
    fn e15_replication_failover_invariants_hold_quick() {
        // The failover, fencing, chaos and catch-up invariants are
        // enforced inside the experiment: Ok means promotion bumped
        // the term, promoted answers matched the serial oracle on the
        // applied prefix, no acked write was lost, fenced frames never
        // touched state, and every rejoin rode the incremental path.
        let t = e15_replication_failover(true).unwrap();
        assert_eq!(t.rows.iter().filter(|r| r[0] == "failover").count(), 1);
        assert_eq!(t.rows.iter().filter(|r| r[0] == "fencing").count(), 1);
        assert_eq!(t.rows.iter().filter(|r| r[0] == "chaos").count(), 2);
        assert_eq!(t.rows.iter().filter(|r| r[0] == "catchup").count(), 3);
        assert_eq!(t.rows.iter().filter(|r| r[0] == "lag").count(), 1);
        let failover = t.rows.iter().find(|r| r[0] == "failover").unwrap();
        assert!(failover[2].contains("term=2"), "{failover:?}");
        assert_eq!(failover[5], "prefix+oracle ok");
    }

    #[test]
    fn e14_crash_recovery_invariants_hold_quick() {
        // Kill-recovery, prefix and oracle invariants are enforced
        // inside the experiment: Ok means they held for every fault
        // point, every SIGKILL round, and every batch size.
        let t = e14_crash_recovery(true).unwrap();
        assert_eq!(
            t.rows.iter().filter(|r| r[0] == "fault").count(),
            4,
            "one row per durability fault point"
        );
        assert!(t.rows.iter().filter(|r| r[0] == "sigkill").count() >= 3);
        // Acceptance: group commit at batch 16 beats per-op fsync 2x.
        let b16 = t
            .rows
            .iter()
            .find(|r| r[1] == "batch=16")
            .expect("batch=16 row");
        let speedup: f64 = b16[6].split('x').next().unwrap().parse().unwrap();
        assert!(
            speedup >= 2.0,
            "group commit must amortize: {speedup}x ({b16:?})"
        );
    }

    #[test]
    fn e13_chaos_invariants_hold_quick() {
        // The invariants (oracle replay, structured-failures-only, no
        // deadlock, drain) are enforced inside the experiment: Ok means
        // they all held for every scenario.
        let t = e13_chaos_service(true).unwrap();
        assert_eq!(t.rows.len(), 3);
        let overload = t.rows.iter().find(|r| r[0] == "overload").unwrap();
        assert_ne!(
            overload[3], "0",
            "overload scenario must shed: {overload:?}"
        );
        let chaos = t.rows.iter().find(|r| r[0] == "chaos").unwrap();
        assert_ne!(chaos[7], "0", "chaos writer panic must recover: {chaos:?}");
    }
}
