//! The metric catalogue: every metric the benchmark prints, its unit and
//! direction, and — for per-layer metrics — the layer it belongs to, how
//! it is measured from outside the program, and which end-to-end metric
//! on which workload it should move. `BENCHMARK.json` lists the same
//! names, units and directions (a test keeps the two in step).

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate or module the metric belongs to.
    pub layer: &'static str,
    /// How it is measured, from outside the program.
    pub source: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`), present on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, "all", "seed → first servable epoch: generation, detection, Engine::new/new_durable incl. birth checkpoint; median of SETUP_REPS set-ups, half before the timed loop and half after it", "-"),
    m("cqa_p50_ms", "ms", Lower, "all", "Session::consistent_answers_governed, call → answer set; median", "-"),
    m("cqa_p95_ms", "ms", Lower, "all", "same calls; nearest-rank p95", "-"),
    m("ops_per_s", "1/s", Higher, "all", "completed ops per second of run, all clients", "-"),
    m("peak_rss_mb", "MiB", Lower, "all", "VmHWM of the benchmark process, reset after set-up and read right after the timed loop", "-"),
];

/// Per-layer metrics (`--trace 1`), present on every workload. A stage a
/// workload never reaches reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("sql.parse_ms", "ms", Lower, "sql", "hippo_sql::parse_query on the request's envelope SQL", "cqa_p50_ms (diff_denial)"),
    m("sql.envelope_bytes", "bytes", Lower, "sql", "length of that SQL text", "cqa_p50_ms (diff_denial)"),
    m("engine.bind_ms", "ms", Lower, "engine", "DbSnapshot::plan minus parse (bind + logical rewrite)", "cqa_p50_ms (diff_denial)"),
    m("engine.optimize_ms", "ms", Lower, "engine", "DbSnapshot::physical_plan minus DbSnapshot::plan", "cqa_p50_ms (diff_denial)"),
    m("engine.exec_ms", "ms", Lower, "engine", "DbSnapshot::query minus DbSnapshot::physical_plan", "cqa_p50_ms (join_fd, diff_denial)"),
    m("engine.vectorized_rows", "rows", Lower, "engine", "DbSnapshot::stats() delta around that query", "cqa_p50_ms (join_fd)"),
    m("engine.rowmode_rows", "rows", Lower, "engine", "DbSnapshot::stats() delta around that query", "cqa_p50_ms (diff_denial)"),
    m("engine.batches", "count", Lower, "engine", "DbSnapshot::stats() delta around that query", "cqa_p50_ms (join_fd)"),
    m("engine.column_build_ms", "ms", Lower, "engine", "first Table::column_store() per written table on a new epoch (write replay)", "cqa_p50_ms (service_mix)"),
    m("engine.catalog_clone_ms", "ms", Lower, "engine", "Catalog::clone of each freshly frozen catalog (write replay)", "write latency, peak_rss_mb (service_mix)"),
    m("engine.point_read_ms", "ms", Lower, "engine", "DbSnapshot::query of a point read by key", "ops_per_s (service_mix)"),
    m("plan.ms", "ms", Lower, "core.plan", "SjudQuery::validate + MembershipTemplate::build + envelope + kg::extended_envelope_sql", "cqa_p50_ms (all; expected small)"),
    m("envelope.ms", "ms", Lower, "core.envelope/kg", "AnswerStats.t_envelope", "cqa_p50_ms (diff_denial most)"),
    m("envelope.candidates", "rows", Lower, "core.envelope/kg", "AnswerStats.candidates", "cqa_p50_ms (diff_denial)"),
    m("corefilter.ms", "ms", Lower, "core.corefilter", "AnswerStats.t_filter", "cqa_p50_ms (all three)"),
    m("corefilter.accept_ratio", "ratio", Higher, "core.corefilter", "Σ filtered_consistent / Σ candidates", "cqa_p50_ms (all three)"),
    m("prover.ms", "ms", Lower, "core.prover", "AnswerStats.t_prover", "cqa_p50_ms (diff_denial; not join_fd)"),
    m("prover.calls", "count", Lower, "core.prover", "AnswerStats.prover_calls", "cqa_p50_ms (diff_denial)"),
    m("prover.cache_hit_ratio", "ratio", Higher, "core.prover", "Σ prover_cache_hits / Σ prover_calls", "cqa_p50_ms (diff_denial)"),
    m("prover.cross_hit_ratio", "ratio", Higher, "core.prover", "Σ prover_cache_cross_hits / Σ prover_calls", "cqa_p50_ms (join_fd)"),
    m("prover.tuples_checked", "count", Lower, "core.prover", "ProverRunStats.tuples_checked", "cqa_p50_ms (diff_denial)"),
    m("prover.edge_visits", "count", Lower, "core.prover", "ProverRunStats.edge_visits", "cqa_p50_ms (diff_denial)"),
    m("answer.other_ms", "ms", Lower, "core.hippo", "t_total − envelope − filter − prover (self time of the answer span)", "cqa_p50_ms (all)"),
    m("ladder.base_ms", "ms", Lower, "core.hippo", "t_total in base mode, own Hippo from the same catalog, warm", "cqa_p50_ms (join_fd, diff_denial)"),
    m("ladder.kg_ms", "ms", Lower, "core.hippo", "t_total in KG mode, own Hippo, warm", "cqa_p50_ms (join_fd, diff_denial)"),
    m("ladder.full_ms", "ms", Lower, "core.hippo", "t_total in full mode (the default), own Hippo, warm", "cqa_p50_ms (join_fd, diff_denial)"),
    m("membership.queries", "count", Lower, "core.kg", "AnswerStats.membership_queries per call in the base-mode ladder run", "none; documents the base rung"),
    m("membership.index_probe_ratio", "ratio", Higher, "core.kg", "Σ index_probes / Σ membership_queries in the base-mode ladder run", "none; documents the base rung"),
    m("detect.full_ms", "ms", Lower, "core.detect", "DetectStats.elapsed of the set-up detection", "setup_s (all)"),
    m("detect.edges", "count", Lower, "core.detect", "ConflictHypergraph::edge_count after set-up", "setup_s (all)"),
    m("detect.redetect_ms", "ms", Lower, "core.detect", "WriteReceipt.detect.elapsed (service_mix) or the replay's Hippo::redetect", "write latency (service_mix)"),
    m("detect.redetect_combinations", "count", Lower, "core.detect", "DetectStats.combinations_checked of those redetections", "write latency (service_mix)"),
    m("detect.incremental_ratio", "ratio", Higher, "core.detect", "share of those redetections that were incremental", "write latency (service_mix)"),
    m("write.apply_ms", "ms", Lower, "core.hippo", "replay: Hippo::insert/delete/update_tuples", "write latency (service_mix)"),
    m("write.freeze_ms", "ms", Lower, "core.hippo", "replay: Hippo::freeze", "write latency (service_mix)"),
    m("wal.append_ms", "ms", Lower, "server.wal", "replay: wal::Wal::append incl. fsync", "write latency, ops_per_s (service_mix)"),
    m("wal.frames_per_fsync", "ratio", Higher, "server.wal", "ServiceStats wal_frames / wal_fsyncs (the replay's 1 elsewhere)", "ops_per_s (service_mix)"),
    m("wal.bytes_per_user_byte", "ratio", Lower, "server.wal", "replay: WAL + checkpoint bytes written / user row bytes written", "ops_per_s (service_mix)"),
    m("checkpoint.write_ms", "ms", Lower, "server.checkpoint", "replay: checkpoint::write_checkpoint + log truncation", "write p95 (service_mix)"),
    m("checkpoint.count", "count", Lower, "server.checkpoint", "ServiceStats.checkpoints (the replay's count elsewhere)", "write p95 (service_mix)"),
    m("server.write_overhead_ms", "ms", Lower, "server", "Engine::write median minus the replayed stage-sum median (queueing, lock wait, publish); 0 without writes", "write latency (service_mix)"),
    m("server.cqa_overhead_ms", "ms", Lower, "server", "Session call minus AnswerStats.t_total (admission)", "cqa_p50_ms (all)"),
    m("recover.ms", "ms", Lower, "server.recover", "Engine::recover on the run's durable directory after traffic", "none; shows work moved into recovery"),
    m("trace.overhead_pct", "%", Lower, "bench", "CQA median of traced requests (span recording included) vs the untraced requests interleaved with them (every 4th) in the same run", "none"),
];
