//! The timed loops, their oracles and the metrics they report.

use crate::gen::{self, Instance, MixOp, WriteGen, WriteKind};
use crate::probes::{self, Rung, StageSplit, Txn};
use crate::stats::{
    fingerprint, median, ms, peak_rss_mb, percentile, ratio, reset_peak_rss, Fingerprint,
};
use crate::trace::{Spans, Trace};
use crate::{Args, Outcome, Workload, SETUP_REPS, SETUP_REPS_BEFORE};
use hippo_cqa::hippo::{AnswerStats, Hippo, HippoOptions};
use hippo_cqa::query::SjudQuery;
use hippo_engine::{Catalog, Database, EngineError, Row, Value};
use hippo_server::{DurabilityConfig, Engine, EngineConfig, ServiceStats, Session, WriteOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

type BoxErr = Box<dyn std::error::Error>;

/// Pre-drawn request parameters per client (far more than a run uses).
const DRAWS: usize = 1 << 16;
/// Untimed requests before `diff_denial`'s timed loop (enough to build
/// the column stores; `join_fd` warms every one of its queries instead).
const WARMUP: usize = 4;
/// `service_mix` clients (the machine has 2 cores).
pub const MIX_CLIENTS: usize = 2;
/// Epochs whose CQA answers are re-derived by a serial oracle: the first
/// one answered on, then one in every `EPOCH_STRIDE`, at most `EPOCH_SAMPLES`.
/// They are rebuilt after traffic by replaying the acknowledged writes,
/// so no sampled epoch stays alive while the clients run.
const EPOCH_STRIDE: u64 = 16;
const EPOCH_SAMPLES: usize = 8;
/// Distinct queries the traced probes (stage split, ladder) run.
const PROBE_QUERIES: usize = 6;
/// Point reads the stage-split probe times.
const PROBE_READS: usize = 64;
/// Write transactions the traced run replays.
const REPLAY_TXNS: usize = 96;
/// In a traced run, every `UNTRACED_EVERY`-th request runs untraced,
/// interleaved with the traced ones so that machine drift cancels out of
/// `trace.overhead_pct`.
const UNTRACED_EVERY: usize = 4;
/// Distinct query parameters of a read-only run whose answers the serial
/// oracle re-derives (the first ones of the request sequence).
const ORACLE_PARAMS: usize = 64;

/// The workload's initial instance.
pub fn instance(w: Workload, seed: u64, scale: gen::Scale) -> Result<Instance, EngineError> {
    match w {
        Workload::JoinFd => gen::join_instance(seed, scale),
        Workload::DiffDenial | Workload::ServiceMix => gen::diff_instance(seed, scale),
    }
}

/// The workload's query family, indexed by parameter.
pub fn queries(w: Workload) -> Vec<SjudQuery> {
    match w {
        Workload::JoinFd => (0..gen::JOIN_PARAMS)
            .map(|i| gen::join_query(gen::param_value(i, gen::JOIN_PARAMS)))
            .collect(),
        Workload::DiffDenial | Workload::ServiceMix => (0..gen::DIFF_PARAMS)
            .map(|i| gen::diff_query(gen::param_value(i, gen::DIFF_PARAMS)))
            .collect(),
    }
}

/// A servable engine and what setting it up cost.
struct Served {
    engine: Engine,
    setup_s: Vec<f64>,
    detect_ms: Vec<f64>,
    edges: usize,
    dir: Option<PathBuf>,
}

impl Served {
    /// Shut the engine down and remove its directory.
    fn retire(self) {
        drop(self.engine);
        if let Some(d) = self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Seed → first servable epoch, once per set-up number in `reps`; keeps
/// the last. Each set-up is retired before the next one starts.
fn serve(args: &Args, reps: Range<usize>, mut tr: Option<&mut Trace>) -> Result<Served, BoxErr> {
    let durable = args.workload == Workload::ServiceMix;
    let mut served: Option<Served> = None;
    let (mut setup_s, mut detect_ms) = (Vec::new(), Vec::new());
    for rep in reps {
        if let Some(old) = served.take() {
            old.retire();
        }
        let dir = durable.then(|| args.work_dir.join(format!("durable-{rep}")));
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let t0 = Instant::now();
        let inst = instance(args.workload, args.seed, args.scale)?;
        let t_gen = t0.elapsed();
        let hippo = inst.into_hippo()?;
        let t_built = t0.elapsed();
        let detect = hippo.detect_stats();
        let edges = hippo.graph().edge_count();
        let engine = match &dir {
            None => Engine::new(hippo, EngineConfig::default())?,
            Some(d) => {
                Engine::new_durable(hippo, EngineConfig::default(), DurabilityConfig::new(d))?
            }
        };
        let elapsed = t0.elapsed();
        if let Some(tr) = tr.as_deref_mut() {
            let req = probes::PROBE_REQ + (1 << 28) + rep as u64;
            let top = tr.record("setup", None, req, t0, elapsed);
            tr.record("gen", Some(top), req, t0, t_gen);
            let build = tr.record("hippo.build", Some(top), req, t0 + t_gen, t_built - t_gen);
            tr.record("detect", Some(build), req, t0 + t_gen, detect.elapsed);
            tr.record(
                "engine.new",
                Some(top),
                req,
                t0 + t_built,
                elapsed - t_built,
            );
        }
        setup_s.push(elapsed.as_secs_f64());
        detect_ms.push(ms(detect.elapsed));
        served = Some(Served {
            engine,
            setup_s: Vec::new(),
            detect_ms: Vec::new(),
            edges,
            dir,
        });
    }
    let mut served = served.expect("at least one set-up");
    served.setup_s = setup_s;
    served.detect_ms = detect_ms;
    Ok(served)
}

/// The set-ups after the timed loop: their times join `served`'s.
fn more_setups(args: &Args, served: &mut Served, tr: Option<&mut Trace>) -> Result<(), BoxErr> {
    let later = serve(args, SETUP_REPS_BEFORE..SETUP_REPS, tr)?;
    served.setup_s.extend(&later.setup_s);
    served.detect_ms.extend(&later.detect_ms);
    later.retire();
    Ok(())
}

/// One answered CQA request.
struct CqaSample {
    param: usize,
    epoch: u64,
    lat: Duration,
    fp: Fingerprint,
    stats: AnswerStats,
    traced: bool,
}

/// Issue one CQA request through the session; when traced, record the
/// call and its stage timers as spans. A traced sample's latency runs to
/// the end of its span recording, so `trace.overhead_pct` sees that cost.
fn cqa_once(
    session: &mut Session,
    q: &SjudQuery,
    param: usize,
    req: u64,
    tr: Option<&mut Trace>,
) -> Result<CqaSample, EngineError> {
    let t0 = Instant::now();
    let r = session.consistent_answers_governed(q);
    let mut lat = t0.elapsed();
    let a = r?;
    let traced = tr.is_some();
    if let Some(tr) = tr {
        let call = tr.record("session.consistent_answers", None, req, t0, lat);
        let answer_start = t0 + lat.saturating_sub(a.stats.t_total);
        let answer = tr.record(
            "hippo.answer",
            Some(call),
            req,
            answer_start,
            a.stats.t_total,
        );
        probes::stage_spans(tr, answer, req, answer_start, &a.stats);
        lat = t0.elapsed();
    }
    Ok(CqaSample {
        param,
        epoch: session.epoch().id(),
        lat,
        fp: fingerprint(&a.rows),
        stats: a.stats,
        traced,
    })
}

/// Errors and counts shared by the loops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// A fresh single-threaded base-mode `Hippo` (the live-database path, not
/// the frozen one the service answers from) over `catalog`.
fn oracle_hippo(catalog: Catalog, inst: &Instance) -> Result<Hippo, EngineError> {
    let mut h = Hippo::with_foreign_keys(
        Database::from_catalog(catalog),
        inst.constraints.clone(),
        inst.foreign_keys.clone(),
    )?;
    h.options = HippoOptions::base().with_prover_threads(1);
    Ok(h)
}

/// Check every sample against the oracle's answer for its parameter.
fn check_answers<'a>(
    oracle: &Hippo,
    qs: &[SjudQuery],
    samples: impl Iterator<Item = &'a CqaSample> + Clone,
    tally: &mut Tally,
) -> Result<(), EngineError> {
    let params: BTreeSet<usize> = samples.clone().map(|s| s.param).collect();
    let mut want: HashMap<usize, Fingerprint> = HashMap::new();
    for p in params {
        want.insert(p, fingerprint(&oracle.consistent_answers(&qs[p])?));
    }
    for s in samples {
        if want[&s.param] != s.fp {
            tally.fail(format!(
                "epoch {} query #{}: {} answer rows differ from the serial oracle's {}",
                s.epoch, s.param, s.fp.rows, want[&s.param].rows
            ));
        }
    }
    Ok(())
}

/// Answers to the same query on the same epoch must agree. Returns how
/// many epochs were answered on.
fn check_agreement(samples: &[CqaSample], tally: &mut Tally) -> usize {
    let mut seen: HashMap<(u64, usize), Fingerprint> = HashMap::new();
    for s in samples {
        if *seen.entry((s.epoch, s.param)).or_insert(s.fp) != s.fp {
            tally.fail(format!(
                "epoch {} query #{}: answers disagree",
                s.epoch, s.param
            ));
        }
    }
    seen.keys().map(|k| k.0).collect::<BTreeSet<_>>().len()
}

fn setup_summary(setup_s: &[f64]) -> String {
    let ms_of = |q: f64| percentile(setup_s, q) * 1e3;
    format!(
        "setup  n={:<6} p50={:.3} ms  min={:.3} ms  max={:.3} ms",
        setup_s.len(),
        median(setup_s) * 1e3,
        ms_of(0.0),
        ms_of(1.0)
    )
}

fn summary(name: &str, lats: &[f64]) -> String {
    format!(
        "{name:<6} n={:<6} p50={:.3} ms  p95={:.3} ms{}",
        lats.len(),
        median(lats),
        percentile(lats, 0.95),
        if lats.len() < 200 {
            "  (p95 from fewer than 200 samples)"
        } else {
            ""
        }
    )
}

/// `join_fd` and `diff_denial`: one client, closed loop, one epoch.
pub fn run_read_only(args: &Args) -> Result<Outcome, BoxErr> {
    let origin = Instant::now();
    let mut trace = args.trace.then(|| Trace::new(origin, 0));
    let mut served = serve(args, 0..SETUP_REPS_BEFORE, trace.as_mut())?;
    reset_peak_rss();
    let qs = queries(args.workload);
    let draws = gen::param_draws(args.seed, 1, qs.len(), DRAWS);
    let mut session = served.engine.session();
    let mut tally = Tally::default();

    // Warm-up: every join query once (the cache-resident workload), or
    // the first few draws (the column stores are built either way).
    let warm: Vec<usize> = match args.workload {
        Workload::JoinFd => (0..qs.len()).collect(),
        _ => draws[..WARMUP].to_vec(),
    };
    for &p in &warm {
        session.consistent_answers_governed(&qs[p])?;
    }

    let mut samples: Vec<CqaSample> = Vec::new();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let mut next = WARMUP;
    while Instant::now() < end {
        let p = draws[next % DRAWS];
        let req = next as u64;
        let traced = args.trace && !next.is_multiple_of(UNTRACED_EVERY);
        next += 1;
        tally.attempted += 1;
        let tr = if traced { trace.as_mut() } else { None };
        match cqa_once(&mut session, &qs[p], p, req, tr) {
            Ok(s) => samples.push(s),
            Err(e) => tally.fail(format!("query #{p}: {e}")),
        }
    }
    let elapsed = start.elapsed();
    let peak_rss = peak_rss_mb();
    more_setups(args, &mut served, trace.as_mut())?;

    // Oracle: a fresh serial system over a regenerated instance derives
    // the answers of the first ORACLE_PARAMS parameters asked.
    let t_oracle = Instant::now();
    check_agreement(&samples, &mut tally);
    let mut checked = BTreeSet::new();
    for s in &samples {
        if checked.len() == ORACLE_PARAMS {
            break;
        }
        checked.insert(s.param);
    }
    let inst = instance(args.workload, args.seed, args.scale)?;
    let oracle = oracle_hippo(inst.db.catalog().clone(), &inst)?;
    let to_check = samples.iter().filter(|s| checked.contains(&s.param));
    let n_checked = to_check.clone().count();
    check_answers(&oracle, &qs, to_check, &mut tally)?;
    drop(oracle);
    let oracle_s = t_oracle.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        ..Outcome::default()
    };
    let untraced_lat: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| ms(s.lat))
        .collect();
    out.report.push(format!(
        "workload {} seed {}: 1 client, closed loop, {} distinct queries, {:.1} s measured",
        args.workload.name(),
        args.seed,
        qs.len(),
        elapsed.as_secs_f64()
    ));
    out.report.push(setup_summary(&served.setup_s));
    out.report.push(summary("cqa", &untraced_lat));
    out.report.push(format!(
        "checks: answers to one query agree; {n_checked} of {} answers ({} queries) equal \
         a serial base-mode oracle's ({oracle_s:.1} s)",
        samples.len(),
        checked.len()
    ));
    if !args.trace {
        out.report
            .push(format!("error_rate = {}/{}", out.failed, out.attempted));
        let completed = untraced_lat.len() as f64;
        out.metrics = vec![
            ("setup_s", median(&served.setup_s), "s"),
            ("cqa_p50_ms", median(&untraced_lat), "ms"),
            ("cqa_p95_ms", percentile(&untraced_lat, 0.95), "ms"),
            ("ops_per_s", completed / elapsed.as_secs_f64(), "1/s"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ];
        return Ok(out);
    }

    // Traced run: probes on the quiescent epoch, then the write replay.
    let mut tr = trace.take().expect("traced run");
    let epoch = served.engine.current_epoch();
    let probe_qs = probe_queries(&qs, &draws);
    let reads = point_reads(inst.write_table, args.seed, args.scale.rows);
    let split = probes::stage_split(epoch.frozen(), &probe_qs, &reads, &mut tr)?;
    let rungs = probes::ladder(
        epoch.frozen().catalog(),
        &inst.constraints,
        &inst.foreign_keys,
        &probe_qs,
        &mut tr,
    )?;
    drop(epoch);
    drop(session);
    drop(served.engine);
    let txns = probe_writes(&inst, args.seed)?;
    let dir = args.work_dir.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let (constraints, fks) = (inst.constraints.clone(), inst.foreign_keys.clone());
    let mut hippo = inst.into_hippo()?;
    let replay = probes::replay(&mut hippo, &txns, &dir, &mut tr)?;
    let (recovered, recover_ms) = recover(&dir, &constraints, &fks, &mut tr)?;
    if let Err(e) = same_rows(
        hippo.db().catalog(),
        recovered.current_epoch().frozen().catalog(),
    ) {
        out.errors
            .push(format!("write replay: recovered state differs: {e}"));
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let ctx = LayerCtx {
        samples: &samples,
        split: &split,
        rungs: &rungs,
        replay: &replay,
        served_detect_ms: &served.detect_ms,
        edges: served.edges,
        receipts: &[],
        service: None,
        write_ms: &[],
        recover_ms,
    };
    finish_traced(args, &mut out, tr, &ctx);
    Ok(out)
}

/// The first [`PROBE_QUERIES`] distinct parameters of the request sequence.
fn probe_queries<'a>(qs: &'a [SjudQuery], draws: &[usize]) -> Vec<&'a SjudQuery> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for &p in draws {
        if seen.insert(p) {
            out.push(&qs[p]);
            if out.len() == PROBE_QUERIES {
                break;
            }
        }
    }
    out
}

fn point_read_sql(table: &str, key: i64) -> String {
    format!("SELECT * FROM {table} WHERE k = {key}")
}

fn point_reads(table: &str, seed: u64, rows: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9EAD);
    (0..PROBE_READS)
        .map(|_| point_read_sql(table, rng.gen_range(0..rows as i64)))
        .collect()
}

/// The write probe replayed on a read-only instance: [`REPLAY_TXNS`]
/// writes from the service mix's generator, with the tuple ids an
/// append-only table assigns.
fn probe_writes(inst: &Instance, seed: u64) -> Result<Vec<Txn>, EngineError> {
    let mut gen = WriteGen::new(seed, 0, inst.write_table, &inst.missing_ids);
    let mut next = inst.db.catalog().table(inst.write_table)?.slot_count() as u32;
    let mut txns = Vec::with_capacity(REPLAY_TXNS);
    for _ in 0..REPLAY_TXNS {
        let kind = gen.next_kind();
        let ops = gen.ops(&kind);
        let inserted: Vec<_> = match &kind {
            WriteKind::Insert(rows) => (0..rows.len())
                .map(|_| {
                    next += 1;
                    hippo_engine::TupleId(next - 1)
                })
                .collect(),
            _ => Vec::new(),
        };
        gen.ack(&kind, &inserted);
        txns.push(Txn { ops, inserted });
    }
    Ok(txns)
}

/// `Engine::recover` on `dir`, as a span.
fn recover(
    dir: &Path,
    constraints: &[hippo_cqa::constraint::DenialConstraint],
    fks: &[hippo_cqa::inclusion::ForeignKey],
    tr: &mut Trace,
) -> Result<(Engine, f64), EngineError> {
    let (r, d) = tr.time(
        "engine.recover",
        None,
        probes::PROBE_REQ + (1 << 29),
        || {
            Engine::recover(
                EngineConfig::default(),
                DurabilityConfig::new(dir),
                constraints.to_vec(),
                fks.to_vec(),
                HippoOptions::default(),
            )
        },
    );
    Ok((r?, ms(d)))
}

fn sorted_rows(c: &Catalog, name: &str) -> Vec<Row> {
    let mut rows = c.table(name).map(|t| t.rows()).unwrap_or_default();
    rows.sort();
    rows
}

/// Do two catalogs hold the same tables with the same rows?
fn same_rows(a: &Catalog, b: &Catalog) -> Result<(), String> {
    if a.table_names() != b.table_names() {
        return Err(format!(
            "tables {:?} vs {:?}",
            a.table_names(),
            b.table_names()
        ));
    }
    for name in a.table_names() {
        let (x, y) = (sorted_rows(a, &name), sorted_rows(b, &name));
        if x != y {
            return Err(format!("table {name}: {} vs {} rows", x.len(), y.len()));
        }
    }
    Ok(())
}

/// One committed write of `service_mix`.
struct Commit {
    epoch: u64,
    client: usize,
    txn: Txn,
    detect: hippo_cqa::detect::DetectStats,
    traced: bool,
}

/// What one `service_mix` client did.
#[derive(Default)]
struct ClientOut {
    reads: Vec<(f64, bool)>,
    writes: Vec<(f64, bool)>,
    cqa: Vec<CqaSample>,
    commits: Vec<Commit>,
    tally: Tally,
    gen: Option<WriteGen>,
    trace: Option<Trace>,
}

/// A point read checked against the pinned epoch's own index.
fn check_read(session: &Session, key: i64, got: &[Row]) -> Result<(), String> {
    let catalog = session.epoch().frozen().catalog();
    let t = catalog.table("t").map_err(|e| e.to_string())?;
    let mut want: Vec<Row> = t
        .index_bucket(&[0], &[Value::Int(key)])
        .unwrap_or(&[])
        .iter()
        .filter_map(|&id| t.get(id).cloned())
        .collect();
    let mut got = got.to_vec();
    want.sort();
    got.sort();
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "epoch {} point read k={key}: {} rows, epoch holds {}",
            session.epoch().id(),
            got.len(),
            want.len()
        ))
    }
}

struct MixCtx<'a> {
    args: &'a Args,
    engine: &'a Engine,
    qs: &'a [SjudQuery],
    missing_ids: &'a [i64],
    origin: Instant,
    end: Instant,
}

/// One `service_mix` client: refresh, then read:write:CQA = 50:30:20.
fn mix_client(c: usize, ctx: &MixCtx<'_>) -> ClientOut {
    let seed = ctx.args.seed;
    let mut rng = StdRng::seed_from_u64(seed ^ ((0x4EAD + c as u64) << 32));
    let plan = gen::mix_ops(seed, c, DRAWS);
    let draws = gen::param_draws(seed, 2 + c as u64, ctx.qs.len(), DRAWS);
    let mut gen = WriteGen::new(seed, c, "t", ctx.missing_ids);
    let mut session = ctx.engine.session();
    let mut out = ClientOut {
        trace: ctx.args.trace.then(|| Trace::new(ctx.origin, 1 + c as u64)),
        ..ClientOut::default()
    };
    let mut i = 0usize;
    while Instant::now() < ctx.end {
        let traced = out.trace.is_some() && !i.is_multiple_of(UNTRACED_EVERY);
        let req = ((c as u64) << 24) | i as u64;
        let op = plan[i % DRAWS];
        i += 1;
        out.tally.attempted += 1;
        let mut tr = if traced { out.trace.as_mut() } else { None };
        match &mut tr {
            Some(tr) => {
                tr.time("session.refresh", None, req, || session.refresh());
            }
            None => session.refresh(),
        }
        if op == MixOp::Read {
            let key = rng.gen_range(0..ctx.args.scale.rows as i64);
            let sql = point_read_sql("t", key);
            let t0 = Instant::now();
            let r = session.query(&sql);
            let lat = t0.elapsed();
            if let Some(tr) = tr {
                tr.record("session.query", None, req, t0, lat);
            }
            match r
                .map_err(|e| e.to_string())
                .and_then(|r| check_read(&session, key, &r.rows))
            {
                Ok(()) => out.reads.push((ms(lat), traced)),
                Err(e) => out.tally.fail(e),
            }
        } else if op == MixOp::Write {
            let kind = gen.next_kind();
            let ops = gen.ops(&kind);
            let t0 = Instant::now();
            let r = ctx.engine.write(ops.clone());
            let lat = t0.elapsed();
            match r {
                Ok(receipt) => {
                    if let Some(tr) = tr {
                        tr.record("engine.write", None, req, t0, lat);
                    }
                    gen.ack(&kind, &receipt.inserted);
                    out.writes.push((ms(lat), traced));
                    out.commits.push(Commit {
                        epoch: receipt.epoch,
                        client: c,
                        txn: Txn {
                            ops,
                            inserted: receipt.inserted,
                        },
                        detect: receipt.detect,
                        traced,
                    });
                }
                Err(e) => out.tally.fail(format!("write: {e}")),
            }
        } else {
            let p = draws[i % DRAWS];
            match cqa_once(&mut session, &ctx.qs[p], p, req, tr) {
                Ok(s) => out.cqa.push(s),
                Err(e) => out.tally.fail(format!("cqa query #{p}: {e}")),
            }
        }
    }
    out.gen = Some(gen);
    out
}

/// Apply one acknowledged write to `db`; its inserts must land on the
/// tuple ids the engine's receipt names.
fn apply_commit(db: &mut Database, c: &Commit) -> Result<(), EngineError> {
    let mut receipt = c.txn.inserted.iter();
    for op in &c.txn.ops {
        match op {
            WriteOp::Insert { table, rows } => {
                let t = db.catalog_mut().table_mut(table)?;
                for row in rows {
                    let id = t.insert(row.clone())?;
                    if receipt.next() != Some(&id) {
                        return Err(EngineError::new(format!(
                            "epoch {}: replayed insert got tuple id {}, not the receipt's",
                            c.epoch, id.0
                        )));
                    }
                }
            }
            WriteOp::Delete { table, tids } => {
                let t = db.catalog_mut().table_mut(table)?;
                for &id in tids {
                    t.delete(id);
                }
            }
            WriteOp::Update { table, updates } => {
                let t = db.catalog_mut().table_mut(table)?;
                for (id, row) in updates {
                    t.update(*id, row.clone())?;
                }
            }
        }
    }
    Ok(())
}

/// Rebuild the sampled epochs — the first one answered on, then one in
/// every [`EPOCH_STRIDE`] — by replaying the sorted acknowledged writes on
/// the initial instance, and check each one's CQA answers against a
/// serial oracle over it. Returns the catalog after every write.
fn check_epochs(
    args: &Args,
    qs: &[SjudQuery],
    commits: &[Commit],
    samples: &[CqaSample],
    tally: &mut Tally,
) -> Result<Catalog, BoxErr> {
    let mut sampled = BTreeSet::new();
    for e in samples.iter().map(|s| s.epoch).collect::<BTreeSet<_>>() {
        if sampled.len() < EPOCH_SAMPLES && (sampled.is_empty() || e % EPOCH_STRIDE == 0) {
            sampled.insert(e);
        }
    }
    let mut inst = instance(Workload::ServiceMix, args.seed, args.scale)?;
    let mut pending = sampled.into_iter().peekable();
    let mut commits = commits.iter().peekable();
    while let Some(&epoch) = pending.peek() {
        while let Some(c) = commits.next_if(|c| c.epoch <= epoch) {
            apply_commit(&mut inst.db, c)?;
        }
        let oracle = oracle_hippo(inst.db.catalog().clone(), &inst)?;
        let on_epoch = samples.iter().filter(|s| s.epoch == epoch);
        check_answers(&oracle, qs, on_epoch, tally)?;
        pending.next();
    }
    for c in commits {
        apply_commit(&mut inst.db, c)?;
    }
    Ok(inst.db.catalog().clone())
}

/// `service_mix`: a durable engine, two clients, writes beside reads.
pub fn run_service_mix(args: &Args) -> Result<Outcome, BoxErr> {
    let origin = Instant::now();
    let mut main_trace = args.trace.then(|| Trace::new(origin, 0));
    let mut served = serve(args, 0..SETUP_REPS_BEFORE, main_trace.as_mut())?;
    let dir = served.dir.clone().expect("service_mix is durable");
    let qs = queries(Workload::ServiceMix);
    let Instance {
        constraints,
        foreign_keys,
        missing_ids,
        ..
    } = instance(Workload::ServiceMix, args.seed, args.scale)?;
    reset_peak_rss();
    let start = Instant::now();
    let ctx = MixCtx {
        args,
        engine: &served.engine,
        qs: &qs,
        missing_ids: &missing_ids,
        origin,
        end: start + Duration::from_secs_f64(args.seconds),
    };
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..MIX_CLIENTS)
            .map(|c| {
                let ctx = &ctx;
                s.spawn(move || mix_client(c, ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let peak_rss = peak_rss_mb();
    more_setups(args, &mut served, main_trace.as_mut())?;
    let service = served.engine.stats();
    let last = served.engine.current_epoch();

    let mut tally = Tally::default();
    let mut samples: Vec<CqaSample> = Vec::new();
    let (mut reads, mut writes, mut commits, mut gens, mut traces) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for c in clients {
        tally.attempted += c.tally.attempted;
        tally.failed += c.tally.failed;
        tally.errors.extend(c.tally.errors);
        reads.extend(c.reads);
        writes.extend(c.writes);
        samples.extend(c.cqa);
        commits.extend(c.commits);
        gens.extend(c.gen);
        traces.extend(c.trace);
    }
    // The engine applies a commit group's inserts in tuple-id order.
    commits.sort_by_key(|c| (c.epoch, c.txn.inserted.first().map_or(0, |t| t.0), c.client));

    // Readers pinned to one epoch must agree on every query, and a serial
    // oracle over each sampled epoch's replayed catalog must agree with them.
    let epochs_answered = check_agreement(&samples, &mut tally);
    let replayed = check_epochs(args, &qs, &commits, &samples, &mut tally)?;
    if let Err(e) = same_rows(&replayed, last.frozen().catalog()) {
        tally.fail(format!(
            "replaying the acknowledged writes does not give the last epoch: {e}"
        ));
    }
    drop(replayed);

    // Durability: every acknowledged write is in the last epoch, and
    // recovery from the directory reproduces it.
    if last.writes_applied() != commits.len() as u64 {
        tally.fail(format!(
            "last epoch folds {} writes, clients hold {} receipts",
            last.writes_applied(),
            commits.len()
        ));
    }
    let probe = args
        .trace
        .then(|| probe_queries(&qs, &gen::param_draws(args.seed, 2, qs.len(), DRAWS)));
    let mut tr = main_trace.take();
    let (split, rungs) = match (&probe, tr.as_mut()) {
        (Some(pq), Some(tr)) => {
            let reads = point_reads("t", args.seed, args.scale.rows);
            let split = probes::stage_split(last.frozen(), pq, &reads, tr)?;
            let rungs =
                probes::ladder(last.frozen().catalog(), &constraints, &foreign_keys, pq, tr)?;
            (split, rungs)
        }
        _ => (StageSplit::default(), Vec::new()),
    };
    drop(served.engine);
    let mut scratch = Trace::new(origin, 99);
    let (recovered, recover_ms) = recover(
        &dir,
        &constraints,
        &foreign_keys,
        tr.as_mut().unwrap_or(&mut scratch),
    )?;
    let rec_epoch = recovered.current_epoch();
    if let Err(e) = same_rows(last.frozen().catalog(), rec_epoch.frozen().catalog()) {
        tally.fail(format!(
            "recovery differs from the last published epoch: {e}"
        ));
    }
    for gen in &gens {
        let t = rec_epoch.frozen().catalog().table("t")?;
        let rows_of = |key: i64| -> Vec<Row> {
            let mut v: Vec<Row> = t
                .index_bucket(&[0], &[Value::Int(key)])
                .unwrap_or(&[])
                .iter()
                .filter_map(|&id| t.get(id).cloned())
                .collect();
            v.sort();
            v
        };
        for g in gen.live() {
            let mut want: Vec<Row> = g.rows.iter().map(|(_, r)| r.clone()).collect();
            want.sort();
            if rows_of(g.key) != want {
                tally.fail(format!(
                    "acknowledged write of key {} lost or altered by recovery",
                    g.key
                ));
            }
        }
        for &k in gen.deleted_keys() {
            if !rows_of(k).is_empty() {
                tally.fail(format!("acknowledged delete of key {k} undone by recovery"));
            }
        }
    }
    for p in [0, qs.len() / 2] {
        let a = last.frozen().consistent_answers(&qs[p])?;
        let b = rec_epoch.frozen().consistent_answers(&qs[p])?;
        if fingerprint(&a) != fingerprint(&b) {
            tally.fail(format!("query #{p}: recovered engine answers differently"));
        }
    }
    drop(rec_epoch);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        ..Outcome::default()
    };
    let pick = |v: &[(f64, bool)], traced: bool| -> Vec<f64> {
        v.iter().filter(|x| x.1 == traced).map(|x| x.0).collect()
    };
    let cqa_lat: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| ms(s.lat))
        .collect();
    let (read_lat, write_lat) = (pick(&reads, false), pick(&writes, false));
    out.report.push(format!(
        "workload service_mix seed {}: {MIX_CLIENTS} clients, closed loop, refresh before every op, \
         read:write:CQA = 50:30:20, {:.1} s measured",
        args.seed,
        elapsed.as_secs_f64()
    ));
    out.report.push(format!(
        "flush policy: one WAL append + fsync per commit group, checkpoint every {} frames",
        probes::CHECKPOINT_EVERY
    ));
    out.report.push(setup_summary(&served.setup_s));
    out.report.push(summary("cqa", &cqa_lat));
    out.report.push(summary("write", &write_lat));
    out.report.push(summary("read", &read_lat));
    out.report.push(format!("service: {service}"));
    out.report.push(format!(
        "checks: {} CQA answers on {} epochs, serial oracle on sampled epochs, \
         {} acknowledged writes recovered ({recover_ms:.1} ms)",
        samples.len(),
        epochs_answered,
        commits.len()
    ));
    if !args.trace {
        out.report
            .push(format!("error_rate = {}/{}", out.failed, out.attempted));
        let completed = (cqa_lat.len() + read_lat.len() + write_lat.len()) as f64;
        out.metrics = vec![
            ("setup_s", median(&served.setup_s), "s"),
            ("cqa_p50_ms", median(&cqa_lat), "ms"),
            ("cqa_p95_ms", percentile(&cqa_lat, 0.95), "ms"),
            ("ops_per_s", completed / elapsed.as_secs_f64(), "1/s"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ];
        return Ok(out);
    }

    let mut tr = tr.expect("traced run");
    for t in traces {
        tr.absorb(t);
    }
    let txns: Vec<Txn> = commits
        .iter()
        .take(REPLAY_TXNS)
        .map(|c| c.txn.clone())
        .collect();
    let replay_dir = args.work_dir.join("replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    let mut hippo = instance(Workload::ServiceMix, args.seed, args.scale)?.into_hippo()?;
    let replay = probes::replay(&mut hippo, &txns, &replay_dir, &mut tr)?;
    drop(hippo);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let receipts: Vec<hippo_cqa::detect::DetectStats> = commits
        .iter()
        .filter(|c| c.traced)
        .map(|c| c.detect)
        .collect();
    let traced_writes = pick(&writes, true);
    let ctx = LayerCtx {
        samples: &samples,
        split: &split,
        rungs: &rungs,
        replay: &replay,
        served_detect_ms: &served.detect_ms,
        edges: served.edges,
        receipts: &receipts,
        service: Some(&service),
        write_ms: &traced_writes,
        recover_ms,
    };
    finish_traced(args, &mut out, tr, &ctx);
    Ok(out)
}

/// Everything the per-layer metrics are computed from.
struct LayerCtx<'a> {
    samples: &'a [CqaSample],
    split: &'a StageSplit,
    rungs: &'a [Rung],
    replay: &'a probes::Replay,
    served_detect_ms: &'a [f64],
    edges: usize,
    /// Detection stats of the traced phase's write receipts.
    receipts: &'a [hippo_cqa::detect::DetectStats],
    service: Option<&'a ServiceStats>,
    /// `Engine::write` latencies of the traced phase.
    write_ms: &'a [f64],
    recover_ms: f64,
}

/// Compute the per-layer metrics, print the ladder table and write the
/// span dump.
fn finish_traced(args: &Args, out: &mut Outcome, tr: Trace, c: &LayerCtx<'_>) {
    let spans = Spans::new(tr.into_spans());
    let traced: Vec<&CqaSample> = c.samples.iter().filter(|s| s.traced).collect();
    let untraced_p50 = median(
        &c.samples
            .iter()
            .filter(|s| !s.traced)
            .map(|s| ms(s.lat))
            .collect::<Vec<_>>(),
    );
    let traced_p50 = median(&traced.iter().map(|s| ms(s.lat)).collect::<Vec<_>>());
    let sum =
        |f: &dyn Fn(&AnswerStats) -> usize| traced.iter().map(|s| f(&s.stats) as f64).sum::<f64>();
    let med = |f: &dyn Fn(&AnswerStats) -> usize| {
        median(
            &traced
                .iter()
                .map(|s| f(&s.stats) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let rung = |mode: &str| c.rungs.iter().find(|r| r.mode == mode);
    let rung_ms = |mode: &str| {
        rung(mode).map_or(0.0, |r| {
            median(&r.stats.iter().map(|s| ms(s.t_total)).collect::<Vec<_>>())
        })
    };
    let base = rung("base");
    let base_sum = |f: &dyn Fn(&AnswerStats) -> usize| {
        base.map_or(0.0, |r| r.stats.iter().map(|s| f(s) as f64).sum::<f64>())
    };
    let r = c.replay;
    let (redetect_ms, redetect_comb, incremental) = if c.receipts.is_empty() {
        (
            median(&r.redetect_ms),
            median(&r.redetect_combinations),
            ratio(r.incremental as f64, r.redetect_ms.len() as f64),
        )
    } else {
        (
            median(&c.receipts.iter().map(|d| ms(d.elapsed)).collect::<Vec<_>>()),
            median(
                &c.receipts
                    .iter()
                    .map(|d| d.combinations_checked as f64)
                    .collect::<Vec<_>>(),
            ),
            ratio(
                c.receipts.iter().filter(|d| d.incremental).count() as f64,
                c.receipts.len() as f64,
            ),
        )
    };
    let (frames_per_fsync, checkpoints) = match c.service {
        Some(s) => (
            ratio(s.wal_frames as f64, s.wal_fsyncs as f64),
            s.checkpoints as f64,
        ),
        None => (
            if r.append_ms.is_empty() { 0.0 } else { 1.0 },
            r.checkpoint_ms.len() as f64,
        ),
    };
    let write_overhead = if c.write_ms.is_empty() {
        0.0
    } else {
        median(c.write_ms) - median(&r.stage_sum_ms)
    };
    let overhead_pct = ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0;
    out.metrics = vec![
        ("sql.parse_ms", median(&c.split.parse_ms), "ms"),
        (
            "sql.envelope_bytes",
            median(&c.split.envelope_bytes),
            "bytes",
        ),
        ("engine.bind_ms", median(&c.split.bind_ms), "ms"),
        ("engine.optimize_ms", median(&c.split.optimize_ms), "ms"),
        ("engine.exec_ms", median(&c.split.exec_ms), "ms"),
        (
            "engine.vectorized_rows",
            median(&c.split.vectorized_rows),
            "rows",
        ),
        ("engine.rowmode_rows", median(&c.split.rowmode_rows), "rows"),
        ("engine.batches", median(&c.split.batches), "count"),
        ("engine.column_build_ms", median(&r.column_build_ms), "ms"),
        ("engine.catalog_clone_ms", median(&r.catalog_clone_ms), "ms"),
        ("engine.point_read_ms", median(&c.split.point_read_ms), "ms"),
        ("plan.ms", median(&c.split.plan_ms), "ms"),
        ("envelope.ms", median(&spans.durations_ms("envelope")), "ms"),
        ("envelope.candidates", med(&|s| s.candidates), "rows"),
        (
            "corefilter.ms",
            median(&spans.durations_ms("corefilter")),
            "ms",
        ),
        (
            "corefilter.accept_ratio",
            ratio(sum(&|s| s.filtered_consistent), sum(&|s| s.candidates)),
            "ratio",
        ),
        ("prover.ms", median(&spans.durations_ms("prover")), "ms"),
        ("prover.calls", med(&|s| s.prover_calls), "count"),
        (
            "prover.cache_hit_ratio",
            ratio(sum(&|s| s.prover_cache_hits), sum(&|s| s.prover_calls)),
            "ratio",
        ),
        (
            "prover.cross_hit_ratio",
            ratio(
                sum(&|s| s.prover_cache_cross_hits),
                sum(&|s| s.prover_calls),
            ),
            "ratio",
        ),
        (
            "prover.tuples_checked",
            med(&|s| s.prover.tuples_checked),
            "count",
        ),
        (
            "prover.edge_visits",
            med(&|s| s.prover.edge_visits),
            "count",
        ),
        (
            "answer.other_ms",
            median(&spans.self_ms("hippo.answer")),
            "ms",
        ),
        ("ladder.base_ms", rung_ms("base"), "ms"),
        ("ladder.kg_ms", rung_ms("kg"), "ms"),
        ("ladder.full_ms", rung_ms("full"), "ms"),
        (
            "membership.queries",
            ratio(
                base_sum(&|s| s.membership_queries),
                base.map_or(0, |r| r.stats.len()) as f64,
            ),
            "count",
        ),
        (
            "membership.index_probe_ratio",
            ratio(
                base_sum(&|s| s.index_probes),
                base_sum(&|s| s.membership_queries),
            ),
            "ratio",
        ),
        ("detect.full_ms", median(c.served_detect_ms), "ms"),
        ("detect.edges", c.edges as f64, "count"),
        ("detect.redetect_ms", redetect_ms, "ms"),
        ("detect.redetect_combinations", redetect_comb, "count"),
        ("detect.incremental_ratio", incremental, "ratio"),
        ("write.apply_ms", median(&r.apply_ms), "ms"),
        ("write.freeze_ms", median(&r.freeze_ms), "ms"),
        ("wal.append_ms", median(&r.append_ms), "ms"),
        ("wal.frames_per_fsync", frames_per_fsync, "ratio"),
        (
            "wal.bytes_per_user_byte",
            ratio(r.bytes_written as f64, r.user_bytes as f64),
            "ratio",
        ),
        ("checkpoint.write_ms", median(&r.checkpoint_ms), "ms"),
        ("checkpoint.count", checkpoints, "count"),
        ("server.write_overhead_ms", write_overhead, "ms"),
        (
            "server.cqa_overhead_ms",
            median(&spans.self_ms("session.consistent_answers")),
            "ms",
        ),
        ("recover.ms", c.recover_ms, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];

    // The answers of every rung must agree (the ladder changes cost only).
    if let Some(first) = c.rungs.first() {
        for r in &c.rungs[1..] {
            if r.answers != first.answers {
                out.errors.push(format!(
                    "ladder: {} mode answers differ from {} mode",
                    r.mode, first.mode
                ));
            }
        }
    }
    out.report.push(format!(
        "traced run: {} spans, {} traced CQA requests; trace.overhead_pct = {overhead_pct:+.1}% \
         (CQA p50 {traced_p50:.2} ms traced, span recording included, vs {untraced_p50:.2} ms \
         for the untraced requests interleaved with them; a difference inside the run-to-run \
         spread is noise)",
        spans.len(),
        traced.len()
    ));
    out.report
        .push("ladder (warm; medians per call over the probe queries):".into());
    out.report.push(format!(
        "  {:<5} {:>10} {:>10} {:>12} {:>10} {:>10} {:>11} {:>8} {:>11}",
        "mode",
        "total ms",
        "envelope",
        "core filter",
        "prover",
        "other",
        "candidates",
        "answers",
        "membership"
    ));
    for r in c.rungs {
        let m =
            |f: &dyn Fn(&AnswerStats) -> f64| median(&r.stats.iter().map(f).collect::<Vec<_>>());
        let total = m(&|s| ms(s.t_total));
        let (env, filt, prov) = (
            m(&|s| ms(s.t_envelope)),
            m(&|s| ms(s.t_filter)),
            m(&|s| ms(s.t_prover)),
        );
        out.report.push(format!(
            "  {:<5} {:>10.2} {:>10.2} {:>12.2} {:>10.2} {:>10.2} {:>11.0} {:>8.0} {:>11.0}",
            r.mode,
            total,
            env,
            filt,
            prov,
            m(&|s| ms(s
                .t_total
                .saturating_sub(s.t_envelope + s.t_filter + s.t_prover))),
            m(&|s| s.candidates as f64),
            m(&|s| s.answers as f64),
            m(&|s| s.membership_queries as f64),
        ));
        if r.mode == "full" {
            let (stage, ms) = [("envelope", env), ("core filter", filt), ("prover", prov)]
                .into_iter()
                .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
            out.report.push(format!(
                "  ladder total: base {:.2} ms, kg {:.2} ms, full {:.2} ms; largest full-mode \
                 stage: {stage} ({ms:.2} ms)",
                rung_ms("base"),
                rung_ms("kg"),
                rung_ms("full")
            ));
        }
    }
    if !c.write_ms.is_empty() {
        out.report.push(format!(
            "server.write_overhead_ms = {write_overhead:.2}: Engine::write p50 {:.2} ms minus the \
             replayed stage-sum p50 {:.2} ms; a difference of two medians over different \
             transactions, so values near 0 (or below it) are noise",
            median(c.write_ms),
            median(&r.stage_sum_ms)
        ));
    }
    let path = args
        .work_dir
        .parent()
        .unwrap_or(&args.work_dir)
        .join("spans")
        .join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    match spans.write_tsv(&path) {
        Ok(()) => out
            .report
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.report.push(format!("could not write spans: {e}")),
    }
}
