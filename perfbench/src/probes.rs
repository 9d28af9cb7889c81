//! Traced-run probes: the calls that split one request into the layers
//! the system does not time itself. Each runs after the traffic, on a
//! quiescent epoch, so the engine's counters it reads are exact.
//!
//! - [`stage_split`]: plan → parse → bind → optimize → execute of the
//!   envelope SQL, plus point reads.
//! - [`ladder`]: the paper's optimization ladder (base → KG → full), each
//!   mode on its own `Hippo` built from the same catalog.
//! - [`replay`]: the write path behind `Engine::write`, replayed on one
//!   thread through the same public functions in the commit path's
//!   order: apply → redetect → freeze → WAL append + fsync → checkpoint
//!   every 64 frames.

use crate::stats::{fingerprint, ms, Fingerprint};
use crate::trace::Trace;
use hippo_cqa::budget::Governance;
use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::envelope::envelope;
use hippo_cqa::formula::MembershipTemplate;
use hippo_cqa::hippo::{AnswerStats, FrozenHippo, Hippo, HippoOptions};
use hippo_cqa::inclusion::ForeignKey;
use hippo_cqa::kg::extended_envelope_sql;
use hippo_cqa::query::SjudQuery;
use hippo_engine::{Catalog, Database, EngineError, Row, TupleId};
use hippo_server::checkpoint::write_checkpoint;
use hippo_server::wal::{FrameKind, Wal, WalOp};
use hippo_server::WriteOp;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Request ids of probe spans start here (traffic requests count from 0).
pub const PROBE_REQ: u64 = 1 << 32;
/// Checkpoint cadence of the replay: `DurabilityConfig::new`'s default.
pub const CHECKPOINT_EVERY: u64 = 64;

fn diff_ms(a: Duration, b: Duration) -> f64 {
    (ms(a) - ms(b)).max(0.0)
}

/// The envelope SQL's per-stage costs and the engine's exact row counts.
#[derive(Debug, Default)]
pub struct StageSplit {
    pub plan_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub bind_ms: Vec<f64>,
    pub optimize_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub envelope_bytes: Vec<f64>,
    pub vectorized_rows: Vec<f64>,
    pub rowmode_rows: Vec<f64>,
    pub batches: Vec<f64>,
    pub point_read_ms: Vec<f64>,
}

/// Split each query's envelope into plan / parse / bind / optimize /
/// execute by calling the layers' public functions in turn, and time
/// `point_reads` through `DbSnapshot::query`.
pub fn stage_split(
    frozen: &FrozenHippo,
    queries: &[&SjudQuery],
    point_reads: &[String],
    tr: &mut Trace,
) -> Result<StageSplit, EngineError> {
    let cat = frozen.catalog();
    let snap = frozen.snapshot();
    let mut s = StageSplit::default();
    for (i, q) in queries.iter().enumerate() {
        let req = PROBE_REQ + i as u64;
        // The default (full) mode evaluates the knowledge-gathering envelope.
        let (sql, d_plan_q) = tr.time("plan", None, req, || -> Result<String, EngineError> {
            q.validate(cat)?;
            let template = MembershipTemplate::build(q, cat)?;
            let env = envelope(q);
            let ext = extended_envelope_sql(&env, &template, cat)?;
            Ok(hippo_sql::print_query(&ext))
        });
        let sql = sql?;
        let (parsed, d_parse) = tr.time("sql.parse_query", None, req, || {
            hippo_sql::parse_query(&sql)
        });
        parsed.map_err(|e| EngineError::new(format!("envelope SQL does not parse: {e}")))?;
        let (r, d_plan) = tr.time("engine.plan", None, req, || snap.plan(&sql));
        r?;
        let (r, d_phys) = tr.time("engine.physical_plan", None, req, || {
            snap.physical_plan(&sql)
        });
        r?;
        let before = snap.stats();
        let (r, d_query) = tr.time("engine.query", None, req, || snap.query(&sql));
        r?;
        let after = snap.stats();
        s.plan_ms.push(ms(d_plan_q));
        s.envelope_bytes.push(sql.len() as f64);
        s.parse_ms.push(ms(d_parse));
        s.bind_ms.push(diff_ms(d_plan, d_parse));
        s.optimize_ms.push(diff_ms(d_phys, d_plan));
        s.exec_ms.push(diff_ms(d_query, d_phys));
        s.vectorized_rows
            .push((after.vectorized_rows - before.vectorized_rows) as f64);
        s.rowmode_rows
            .push((after.rowmode_rows - before.rowmode_rows) as f64);
        s.batches
            .push((after.batches_executed - before.batches_executed) as f64);
    }
    for (i, sql) in point_reads.iter().enumerate() {
        let req = PROBE_REQ + (queries.len() + i) as u64;
        let (r, d) = tr.time("engine.point_read", None, req, || snap.query(sql));
        r?;
        s.point_read_ms.push(ms(d));
    }
    Ok(s)
}

/// One rung of the optimization ladder.
#[derive(Debug)]
pub struct Rung {
    pub mode: &'static str,
    /// Stats of the measured (warm) pass, one per query.
    pub stats: Vec<AnswerStats>,
    pub answers: Vec<Fingerprint>,
}

/// Run `queries` in base, KG and full mode, each on its own `Hippo`
/// built from `catalog` (so verdict caches are not shared): one warm-up
/// pass, then one measured pass.
pub fn ladder(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    foreign_keys: &[ForeignKey],
    queries: &[&SjudQuery],
    tr: &mut Trace,
) -> Result<Vec<Rung>, EngineError> {
    let modes: [(&'static str, &'static str, HippoOptions); 3] = [
        ("base", "ladder.base", HippoOptions::base()),
        ("kg", "ladder.kg", HippoOptions::kg()),
        ("full", "ladder.full", HippoOptions::full()),
    ];
    let mut rungs = Vec::new();
    for (r, (mode, span, options)) in modes.into_iter().enumerate() {
        let mut hippo = Hippo::with_foreign_keys(
            Database::from_catalog(catalog.clone()),
            constraints.to_vec(),
            foreign_keys.to_vec(),
        )?;
        hippo.options = options;
        let frozen = hippo.freeze()?;
        for q in queries {
            frozen.consistent_answers_governed(q)?;
        }
        let mut rung = Rung {
            mode,
            stats: Vec::new(),
            answers: Vec::new(),
        };
        for (i, q) in queries.iter().enumerate() {
            let req = PROBE_REQ + ((r as u64 + 1) << 16) + i as u64;
            let t0 = Instant::now();
            let a = frozen.consistent_answers_governed(q)?;
            let parent = tr.record(span, None, req, t0, t0.elapsed());
            stage_spans(tr, parent, req, t0, &a.stats);
            rung.answers.push(fingerprint(&a.rows));
            rung.stats.push(a.stats);
        }
        rungs.push(rung);
    }
    Ok(rungs)
}

/// Record an answer run's own stage timers as child spans of `parent`,
/// laid out in pipeline order from `start`: envelope, core filter,
/// prover. What is left of `t_total` is the answer span's self time.
pub fn stage_spans(tr: &mut Trace, parent: u64, req: u64, start: Instant, s: &AnswerStats) {
    let mut at = start;
    for (name, d) in [
        ("envelope", s.t_envelope),
        ("corefilter", s.t_filter),
        ("prover", s.t_prover),
    ] {
        tr.record(name, Some(parent), req, at, d);
        at += d;
    }
}

/// One committed write transaction, as its client submitted it, with
/// the tuple ids the engine assigned to its inserts.
#[derive(Debug, Clone)]
pub struct Txn {
    pub ops: Vec<WriteOp>,
    pub inserted: Vec<TupleId>,
}

/// Stage costs of the replayed write path, one entry per transaction
/// (checkpoints: one per checkpoint). `write.apply` includes the
/// catalog copy-on-write that `engine.catalog_clone` times on its own.
#[derive(Debug, Default)]
pub struct Replay {
    pub apply_ms: Vec<f64>,
    pub redetect_ms: Vec<f64>,
    pub redetect_combinations: Vec<f64>,
    pub incremental: usize,
    pub freeze_ms: Vec<f64>,
    pub catalog_clone_ms: Vec<f64>,
    pub column_build_ms: Vec<f64>,
    pub append_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// apply + redetect + freeze + append (+ the checkpoint it triggered).
    pub stage_sum_ms: Vec<f64>,
    pub bytes_written: u64,
    pub user_bytes: u64,
}

fn dir_bytes_except(dir: &Path, skip: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter(|e| e.path() != skip)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// User bytes of a transaction: 8 per value written, 4 per tuple id named.
fn user_bytes(ops: &[WriteOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            WriteOp::Insert { rows, .. } => rows.iter().map(|r| 8 * r.len() as u64).sum(),
            WriteOp::Delete { tids, .. } => 4 * tids.len() as u64,
            WriteOp::Update { updates, .. } => {
                updates.iter().map(|(_, r)| 4 + 8 * r.len() as u64).sum()
            }
        })
        .sum()
}

fn mapped(map: &HashMap<TupleId, TupleId>, id: &TupleId) -> Result<TupleId, EngineError> {
    map.get(id)
        .copied()
        .ok_or_else(|| EngineError::new(format!("replay: tuple id {id:?} was never inserted")))
}

/// Apply one transaction's ops, translating the submitted tuple ids to
/// the replay's own, and return the WAL ops the commit path would log.
fn apply(
    hippo: &mut Hippo,
    txn: &Txn,
    map: &mut HashMap<TupleId, TupleId>,
) -> Result<Vec<WalOp>, EngineError> {
    let mut submitted = txn.inserted.iter();
    let mut walops = Vec::with_capacity(txn.ops.len());
    for op in &txn.ops {
        walops.push(match op {
            WriteOp::Insert { table, rows } => {
                let tids = hippo.insert_tuples(table, rows.clone())?;
                for &id in &tids {
                    let orig = submitted
                        .next()
                        .ok_or_else(|| EngineError::new("replay: more inserts than receipts"))?;
                    map.insert(*orig, id);
                }
                WalOp::Insert {
                    table: table.clone(),
                    rows: rows.clone(),
                    tids,
                }
            }
            WriteOp::Delete { table, tids } => {
                let tids = tids
                    .iter()
                    .map(|t| mapped(map, t))
                    .collect::<Result<Vec<_>, _>>()?;
                hippo.delete_tuples(table, &tids)?;
                WalOp::Delete {
                    table: table.clone(),
                    tids,
                }
            }
            WriteOp::Update { table, updates } => {
                let updates = updates
                    .iter()
                    .map(|(t, r)| Ok((mapped(map, t)?, r.clone())))
                    .collect::<Result<Vec<(TupleId, Row)>, EngineError>>()?;
                hippo.update_tuples(table, updates.clone())?;
                WalOp::Update {
                    table: table.clone(),
                    updates,
                }
            }
        });
    }
    Ok(walops)
}

fn written_tables(ops: &[WriteOp]) -> Vec<&str> {
    let mut names: Vec<&str> = ops
        .iter()
        .map(|op| match op {
            WriteOp::Insert { table, .. }
            | WriteOp::Delete { table, .. }
            | WriteOp::Update { table, .. } => table.as_str(),
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Replay `txns` on `hippo` (a fresh system on the workload's initial
/// instance) with its own WAL and checkpoints under `dir`. Returns the
/// stage costs; `hippo` ends in the replayed state.
pub fn replay(
    hippo: &mut Hippo,
    txns: &[Txn],
    dir: &Path,
    tr: &mut Trace,
) -> Result<Replay, EngineError> {
    let gov = Governance::default();
    std::fs::create_dir_all(dir).map_err(|e| EngineError::new(format!("replay dir: {e}")))?;
    write_checkpoint(dir, hippo.db().catalog(), 0, &gov)?;
    let (mut wal, _) = Wal::open(dir)?;
    let wal_path = wal.path().to_path_buf();
    // Bytes written count from here: the birth checkpoint is set-up.
    let mut out = Replay::default();
    // The published epoch shares the writer's catalog, so the next
    // write's apply pays the copy-on-write clone, as it does in the engine.
    let mut published: Option<FrozenHippo> = Some(hippo.freeze()?);
    let mut map: HashMap<TupleId, TupleId> = HashMap::new();
    let mut since_checkpoint = 0u64;
    for (i, txn) in txns.iter().enumerate() {
        let req = PROBE_REQ + (1 << 24) + i as u64;
        let open = tr.begin("replay.write", None, req);
        let parent = Some(tr.id(&open));
        let (walops, d_apply) = tr.time("write.apply", parent, req, || apply(hippo, txn, &mut map));
        let walops = walops?;
        let (det, d_redetect) = tr.time("detect.redetect", parent, req, || hippo.redetect());
        let det = det?;
        let (frozen, d_freeze) = tr.time("write.freeze", parent, req, || hippo.freeze());
        let before = wal.len();
        let (lsns, d_append) = tr.time("wal.append", parent, req, || {
            wal.append(&[(FrameKind::Commit, walops)], &gov)
        });
        let last_lsn = *lsns?.last().expect("one frame appended");
        out.bytes_written += wal.len().saturating_sub(before);
        out.user_bytes += user_bytes(&txn.ops);
        since_checkpoint += 1;
        let mut d_checkpoint = Duration::ZERO;
        if since_checkpoint >= CHECKPOINT_EVERY {
            let (r, d) = tr.time(
                "checkpoint.write",
                parent,
                req,
                || -> Result<(), EngineError> {
                    write_checkpoint(dir, hippo.db().catalog(), last_lsn, &gov)?;
                    wal.truncate_all()
                },
            );
            r?;
            out.bytes_written += dir_bytes_except(dir, &wal_path);
            out.checkpoint_ms.push(ms(d));
            d_checkpoint = d;
            since_checkpoint = 0;
        }
        let frozen = &*published.insert(frozen?);
        tr.end(open);
        // Reader-side costs of the new epoch, measured outside the commit
        // path: the copy-on-write clone the next write's apply pays, and
        // the column store the first query on a written table builds.
        let (clone, d_clone) = tr.time("engine.catalog_clone", None, req, || {
            frozen.catalog().clone()
        });
        drop(clone);
        let (_, d_columns) = tr.time("engine.column_build", None, req, || {
            for name in written_tables(&txn.ops) {
                if let Ok(t) = frozen.catalog().table(name) {
                    std::hint::black_box(t.column_store());
                }
            }
        });
        out.apply_ms.push(ms(d_apply));
        out.redetect_ms.push(ms(d_redetect));
        out.redetect_combinations
            .push(det.combinations_checked as f64);
        out.incremental += usize::from(det.incremental);
        out.freeze_ms.push(ms(d_freeze));
        out.append_ms.push(ms(d_append));
        out.catalog_clone_ms.push(ms(d_clone));
        out.column_build_ms.push(ms(d_columns));
        out.stage_sum_ms.push(ms(d_apply
            + d_redetect
            + d_freeze
            + d_append
            + d_checkpoint));
    }
    Ok(out)
}
