//! # perfbench — the standing CQA ledger
//!
//! One command measures the Hippo system end to end and, in a separately
//! started traced run, layer by layer:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <join_fd|diff_denial|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload from the seed, drives it through the public
//! API (`Hippo`, `Engine`, `Session`) from a single process, checks every
//! answer, and prints a human-readable report followed by one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `python3
//! perfbench/ledger.py` collects result sets over many seeds and compares
//! two of them (parent against change).
//!
//! ## Workloads
//!
//! Sizes are part of each workload's definition ([`gen::Scale::full`]).
//! Every loop is closed: each client waits for its reply before sending
//! the next request. The program's own `HIPPO_*` thread defaults stay as
//! shipped.
//!
//! `BENCHMARK.json` lists `diff_denial` and `service_mix`. `join_fd` runs
//! by name but is left out of the ledger: on a 2-core machine its 16k join
//! answers about 6 requests a second, so a p95 over 200 samples needs
//! runs that, for three workloads, do not fit the ledger's time budget.
//!
//! - **`join_fd`** — read-only, warm; **1 client** on one non-durable
//!   published epoch. E1's join workload: `r` and `s` at 16,000 rows each,
//!   2% FD conflicts, FD `k → v` on both. Each request runs
//!   `σ(r.k = s.k ∧ r.payload ≥ p)(r × s)` with `p` drawn from 16 values,
//!   fewer distinct queries than the 64-slot verdict cache. *Why:* the
//!   envelope is a columnar hash join of two 16k relations and the core
//!   filter copies both relations on every call, while prover work is
//!   small (2% conflicts, mostly cross-call verdict hits). No writes.
//! - **`diff_denial`** — read-only, little shared work; **1 client**.
//!   `t(k, v, payload)`: 16,000 rows plus 20% FD conflicts; `u(k, v,
//!   payload)`: 8,000 rows on `t`'s keys (half copy `t`'s row) plus 5% FD
//!   conflicts, FD `k → v`; the binary general denial `t.k = u.k ∧
//!   t.payload < u.payload`; the restricted FK `t.payload ⊆ p.id` where
//!   `p` lacks 8 ids, so some tuples are orphans. Each request runs
//!   `t − σ(payload ≥ p)(u)` with `p` drawn from 256 values, more than the
//!   verdict cache's 64 query slots. *Why:* dominated by the
//!   knowledge-gathering envelope's correlated `EXISTS` plus prover and
//!   hypergraph work over FD, general-denial and orphan edges; little
//!   hash-join work; four times as many distinct queries as the verdict
//!   cache has slots. (Measured: the cache keys its slots by the query's
//!   shape, `(t − σ(u))`, not its constant, so it still hits; the ledger
//!   reports this as `prover.cross_hit_ratio`.)
//! - **`service_mix`** — durable service, cold epochs, writes beside
//!   reads; **2 clients**, each calling `Session::refresh` before every op
//!   and drawing read:write:CQA as 50:30:20. Reads are point `SELECT`s by
//!   key; writes are the seeded [`gen::WriteGen`] mix (fresh-key inserts,
//!   some FD-conflict pairs and FK orphans; deletes of the client's own
//!   earlier inserts; updates); CQA requests run `diff_denial`'s query.
//!   *Why:* the only workload that reaches the commit path (apply,
//!   incremental redetect, freeze, WAL append + fsync, checkpoint,
//!   publish), and almost every CQA request lands on a freshly published
//!   epoch (column-store rebuild, empty verdict cache).
//!
//! **Flush and checkpoint policy** (`service_mix`, and the traced write
//! replay): `Engine::new_durable` with `DurabilityConfig::new` — every
//! commit group is one WAL append with one `fsync`, and a snapshot
//! checkpoint (then log truncation) runs every 64 frames. The figures are
//! this machine's page cache and disk, not a device's.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! See [`layers::END_TO_END`]: `setup_s` (seed → first servable epoch,
//! median of [`SETUP_REPS`] set-ups, half of them before the timed loop
//! and half after it), `cqa_p50_ms` / `cqa_p95_ms`
//! (`Session::consistent_answers_governed`, call → answer set; p95 is
//! nearest-rank), `ops_per_s` (completed ops per second of run) and
//! `peak_rss_mb` (`VmHWM`, reset once the first servable epoch exists and
//! read right after the timed loop, so it holds the served engine and its
//! traffic but none of the benchmark's set-up or oracle work). The report
//! also prints, with sample counts,
//! the write and point-read latencies of `service_mix` and the error
//! rate, which the JSON line carries as `failed / attempted`.
//!
//! ## Checks
//!
//! Every check runs outside the timed region, and any mismatch counts in
//! `failed` and makes the run incorrect:
//!
//! - read-only workloads: answers to the same query agree, and those to
//!   the first 64 distinct queries of the request sequence equal a fresh
//!   single-threaded base-mode `Hippo` over a regenerated instance (the
//!   oracle costs about 80 ms a query, so checking all 256 would take
//!   more time than the timed loop can spare);
//! - `service_mix`: readers pinned to one epoch agree; sampled epochs
//!   are rebuilt after traffic by replaying the acknowledged writes in
//!   commit order, and their answers equal a serial oracle's over the
//!   rebuilt catalog; the fully replayed catalog equals the last
//!   published epoch; point reads match the pinned epoch's index;
//! - durability: `Engine::recover` on the run's directory holds every
//!   acknowledged insert, delete and update, the whole last catalog, and
//!   answers as the last epoch does.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! See [`layers::PER_LAYER`]: for each metric, the layer, how it is
//! measured from outside, and which end-to-end metric on which workload
//! it should move. Every call the benchmark makes into a layer's public
//! function is a [`trace::Span`]; a layer's self time is its span minus
//! its children. Stages behind `Engine::write` are measured by replaying
//! the committed op sequence on one thread ([`probes::replay`]).
//!
//! ## Honest reporting
//!
//! - End-to-end numbers never come from a traced run.
//! - `trace.overhead_pct` and `server.*_overhead_ms` are differences of
//!   two noisy medians; values inside the run-to-run spread of the
//!   figures they are taken from are noise, and the report labels them so.
//! - The machine this was tuned on has 2 cores: no thread-scaling claim
//!   may come from these runs.
//!
//! ## Out of scope
//!
//! The replication/transport layer (it waits for the client protocol),
//! an open-loop rate sweep, spans inside the program (the benchmark only
//! wraps calls from outside), retiring the one-off E1–E16 experiments
//! (CI still invokes them) and CI wiring.

pub mod gen;
pub mod layers;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median. The first
/// [`SETUP_REPS_BEFORE`] run before the timed loop (the last of them is
/// served), the rest right after it, so that the median spans two moments
/// of the machine's load.
pub const SETUP_REPS: usize = 32;
pub const SETUP_REPS_BEFORE: usize = 16;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JoinFd,
    DiffDenial,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::JoinFd, Workload::DiffDenial, Workload::ServiceMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinFd => "join_fd",
            Workload::DiffDenial => "diff_denial",
            Workload::ServiceMix => "service_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: gen::Scale,
    /// Scratch directory for durable state and the span dump.
    pub work_dir: PathBuf,
}

/// A run's verdict and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report lines, printed before the JSON line.
    pub report: Vec<String>,
    /// Oracle failures (each makes `correct` false).
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(&args.work_dir)?;
    let mut out = match args.workload {
        Workload::JoinFd | Workload::DiffDenial => workloads::run_read_only(args)?,
        Workload::ServiceMix => workloads::run_service_mix(args)?,
    };
    out.correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    Ok(out)
}
