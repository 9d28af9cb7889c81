//! The Hippo system facade: the data flow of the paper's Figure 1,
//! with the resource-governance checkpoints (`◆`) each governed call
//! passes through (see [`crate::budget`]):
//!
//! ```text
//! Query ──▶ Enveloping ──▶ Candidates(SQL) ──▶ Evaluation (RDBMS) ──▶ [core test ▶] Prover ──▶ Answer Set
//!                              ◆ "envelope"       ◆ "corefilter"      ◆ "prover" / "membership"
//!                              └─ vectorized scans (column batches)
//!                                 when the engine's columnar store is on
//! IC, DB ──▶ Conflict Detection ──▶ Conflict Hypergraph (main memory) ──▶ Prover
//!               ◆ "detect" (always strict)
//!               └─ FD hash pass off contiguous column slices
//!                  (`ColumnStore::for_each_hash`, bit-identical shards)
//! ```
//!
//! Both SQL legs ride the engine's two-engine executor (PR 10): the
//! envelope/KG evaluation and base-mode membership probes vectorize
//! when their plan shapes are eligible, and the FD detector's Phase A
//! hashes LHS projections straight off the typed column slices —
//! answers and every stats counter stay bit-identical either way
//! (`HIPPO_COLUMNAR=0` forces row mode).
//!
//! A checkpoint is a no-op unless the call's [`HippoOptions`] configure
//! a deadline, row budget, cancellation handle or fault plan. When one
//! trips, strict mode (the default) returns a structured
//! [`EngineError`] naming the stage; degraded mode
//! ([`HippoOptions::degraded`]) returns the sound subset proved so far,
//! marked [`Completeness::TruncatedAt`] — except during detection,
//! which is always strict (an incomplete conflict hypergraph would make
//! every later prover verdict unsound, so there is no sound partial
//! answer to fall back on).
//!
//! [`Hippo::new`] performs conflict detection once; each
//! [`Hippo::consistent_answers`] run envelopes the query, evaluates the
//! candidates on a frozen [`DbSnapshot`], and filters them through the
//! Prover.
//! [`HippoOptions::level`] selects the rung of the optimization ladder
//! ([`OptLevel`]):
//!
//! * **base** — the prover issues one membership probe per literal
//!   check (the costly behaviour the paper describes);
//! * **knowledge gathering** — the envelope is extended to prefetch every
//!   membership flag; zero membership queries;
//! * **full** — additionally, candidates provably consistent from the
//!   conflict-free core skip the prover. The core filter is a
//!   per-candidate test over the prefetched flags and the hypergraph's
//!   fact index ([`crate::corefilter`]), O(literals) per candidate, run
//!   inside the prover shards. Only its `"corefilter"` checkpoint runs
//!   before them, so full mode does no per-call work beyond KG's.
//!
//! # The shard → merge answer pipeline
//!
//! Candidate decisions are independent of each other — each depends
//! only on the candidate's conflict neighbourhood — so the answer stage
//! mirrors detection's shard → merge design, in **every** mode:
//!
//! ```text
//!                 candidates (one envelope evaluation)  ◆ "envelope"
//!                         │ split_ranges → PROVER_SHARDS fixed slices
//!        ┌────────────┬───┴────────┬────────────┐
//!        ▼            ▼            ▼            ▼        workers:
//!   ┌─ shard 0 ─┐┌─ shard 1 ─┐        …   ┌─ shard 15 ─┐ HIPPO_PROVER_THREADS
//!   │ ◆ entry   ││           │             │            │ (panic-isolated:
//!   │ dedup     ││   (same)  │             │   (same)   │  a crash poisons
//!   │ core test ││           │             │            │  one slot, the
//!   │ flags:    ││           │             │            │  siblings drain)
//!   │  KG: rows ││           │             │            │
//!   │  base:    │→ one frozen DbSnapshot Arc, prepared ←│
//!   │  prepared │   physical probes (IndexLookup: O(1)
//!   │  probes ◆ │   hash-bucket per fact), memoized     ◆ "membership"
//!   │ sig cache ││           │             │            │
//!   │ prover  ◆ ││           │             │            │ ◆ strided tick
//!   └────┬──────┘└────┬──────┘             └────┬───────┘   per candidate
//!        └────────────┴─── merge in shard order┴──▶ answers + stats
//!                          └▶ fresh verdicts → persistent cache
//!                             (skipped if any shard failed/cancelled)
//! ```
//!
//! There is **no serial prefix beyond candidate collection**: dedup,
//! the core-filter test, membership resolution and the prover all run
//! inside the shards. Knowledge-gathering mode reads prefetched flag
//! rows; **base mode** — the paper's canonical per-check-SQL
//! configuration — resolves its membership probes against one
//! read-only [`DbSnapshot`] shared by all workers (zero locking).
//! Each shard compiles every literal's probe **once** into a prepared
//! physical plan ([`MemoSqlMembership`]): the engine's optimizer picks
//! the access path, so on a relation with a covering hash index
//! (auto-built on key columns, or `CREATE INDEX`) a membership check
//! is an O(1) bucket probe — no SQL text, parsing or planning per
//! candidate — and per-shard memoization collapses repeated facts
//! ([`AnswerStats::index_probes`] / [`AnswerStats::scan_probes`] count
//! how the executed probes ran). Each shard owns one reusable
//! [`Prover`] workspace and a private **closure-signature cache**
//! ([`Prover::closure_signature`]): candidates whose guard outcomes,
//! membership flags and per-literal conflict facts coincide share one
//! verdict ([`AnswerStats::prover_cache_hits`]). Newly proved
//! signatures are folded, at merge time and in shard order, into a
//! **persistent per-query verdict cache** reused by later
//! `consistent_answers` calls on the same graph
//! ([`AnswerStats::prover_cache_cross_hits`]); the cache is dropped
//! whenever the graph is replaced. Shard decomposition is fixed by the
//! candidate count — answers and every [`AnswerStats`] counter are
//! bit-identical for any worker count.
//!
//! # Incremental maintenance
//!
//! Database changes made through [`Hippo::insert_tuples`] /
//! [`Hippo::delete_tuples`] / [`Hippo::update_tuples`] are *recorded*,
//! and the next [`Hippo::redetect`] reconciles the hypergraph
//! **incrementally**: edges touching deleted tuples are dropped while
//! surviving edges are carried over verbatim, and inserted tuples are
//! delta-detected (an in-place update is recorded as delete + insert
//! of the same tuple id). For FD constraints the delta probes the
//! persistent LHS-hash group index; general denials **seed** their
//! joins from the changed tuples and extend through persistent
//! per-atom join indexes (`GenIndex`) — in both cases the work is
//! proportional to the conflict graph plus the change and its join
//! matches, never the instance or the constraint's outer atom.
//! Restricted foreign keys are incremental too: a per-FK
//! **orphan-count index** ([`crate::inclusion::FkIndex`]) tracks live
//! parents per key and live children per key, so a batch flips exactly
//! the orphan edges whose parent count crossed zero. Mutating the
//! database any other way ([`Hippo::db_mut`]) marks the catalog dirty
//! and the next `redetect` falls back to a full sharded rebuild.
//!
//! # Epoch publication (the service layer's view)
//!
//! Everything the answer pipeline reads is immutable for the duration
//! of a run — the catalog snapshot, the conflict hypergraph, the
//! verdict cache `Arc` — which is exactly what a concurrent service
//! needs. [`Hippo::freeze`] packages those three into a [`FrozenHippo`]
//! (`Send + Sync`, cheap `Arc` clones) that answers queries without
//! `&Hippo`, so a single writer can keep mutating the live system while
//! readers fan out over the last published freeze:
//!
//! ```text
//! writer:  insert/delete ──▶ redetect ──▶ freeze() ──▶ publish Arc<Epoch>
//!          (recorded ops)      │ Err / panic: nothing published —
//!                              │ readers keep the previous epoch
//! readers: pin epoch ──▶ FrozenHippo::consistent_answers  (lock-free,
//!          shared verdict cache, same shard → merge pipeline as above)
//! ```
//!
//! There is one answer path. The live calls
//! ([`Hippo::consistent_answers`] and friends) are
//! `self.freeze()?.consistent_answers…`: an O(1) freeze with a fresh
//! statistics lineage, dropped after the call, so the envelope query
//! and base-mode probes are counted on that snapshot and never on
//! [`Hippo::db`]. Answering therefore refuses unreconciled state exactly
//! as `freeze` does — with changes recorded (or the catalog dirtied
//! through [`Hippo::db_mut`]) but not yet redetected, the hypergraph
//! describes older data and its verdicts would be unsound.
//!
//! `crates/server` builds the epoch protocol (admission control, drain,
//! retry) on top of this; the invariant enforced *here* is that a
//! freeze of a reconciled system is self-consistent — [`Hippo::freeze`]
//! refuses while recorded changes are pending — and that replacing the
//! live graph never mutates state a frozen view still references
//! (`redetect` swaps the graph and verdict-cache `Arc`s instead of
//! clearing them in place).

use crate::budget::{trip_stage, Budget, CancelHandle, Completeness, ConsistentAnswer, Governance};
use crate::constraint::DenialConstraint;
use crate::detect::{
    build_gen_index, detect_with_index, fd_delta_delete, fd_delta_insert, general_delta_insert,
    DetectIndex, DetectOptions, DetectStats,
};
use crate::envelope::envelope;
use crate::formula::MembershipTemplate;
use crate::hypergraph::{ConflictHypergraph, FactId, Vertex};
use crate::kg::{
    extended_envelope_sql, settle_null_flags, split_gathered, GatheredMembership, MemoSqlMembership,
};
use crate::parallel;
use crate::prover::{Prover, ProverRunStats};
use crate::query::SjudQuery;
use hippo_engine::{Catalog, Database, DbSnapshot, EngineError, Row, TupleId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fixed shard count of the answer pipeline. Like detection's
/// `DEFAULT_SHARDS`, the decomposition depends only on the worklist
/// length — never on the worker count — so answer order, every
/// [`AnswerStats`] counter and the cache-hit totals are bit-identical
/// for any `HIPPO_PROVER_THREADS` setting.
pub const PROVER_SHARDS: usize = 16;

/// Optimization switches plus per-call resource governance.
#[derive(Debug, Clone, Default)]
pub struct GovernanceOptions {
    /// Wall-clock deadline per governed call.
    pub deadline: Option<Duration>,
    /// Row budget per governed call (rows materialised/visited across
    /// all stages).
    pub row_budget: Option<u64>,
    /// Degraded mode: on budget exhaustion return the sound subset
    /// proved so far (with [`crate::budget::Completeness::TruncatedAt`])
    /// instead of an error. Detection stays strict regardless — an
    /// incomplete conflict hypergraph would make the prover unsound.
    pub degraded: bool,
    /// Cancellation flag shared with callers via
    /// [`HippoOptions::cancel_handle`]; only armed (and only then does
    /// it create a budget) once that handle has been taken.
    cancel: CancelHandle,
    cancel_armed: bool,
    /// Deterministic fault injection (tests / CI only).
    faults: Option<Arc<crate::budget::FaultPlan>>,
}

/// The rung of the paper's optimization ladder an answer run uses. Each
/// rung adds one optimization on top of the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// The prover resolves each membership check through a base-mode
    /// probe against a frozen snapshot.
    Base,
    /// Knowledge gathering: the envelope query prefetches every
    /// membership flag, so the prover issues no probes.
    Kg,
    /// Knowledge gathering plus the core filter: candidates the
    /// per-candidate core test accepts skip the prover.
    Full,
}

/// Optimization switches.
#[derive(Debug, Clone)]
pub struct HippoOptions {
    /// Per-call resource governance (deadline, row budget, cancellation,
    /// degraded mode, fault injection). Default: ungoverned — no budget
    /// object is created and every stage runs exactly the ungoverned
    /// code path, so answers *and stats* are bit-identical to a build
    /// without governance.
    pub governance: GovernanceOptions,
    /// The optimization rung: [`OptLevel::Base`], [`OptLevel::Kg`]
    /// (prefetch membership flags in the envelope query instead of
    /// probing per check) or [`OptLevel::Full`] (additionally skip the
    /// prover for candidates the core filter accepts). The core filter
    /// reads the prefetched flags, so it exists only on top of knowledge
    /// gathering.
    pub level: OptLevel,
    /// Worker threads for the answer pipeline's prover stage; `0` =
    /// auto (the `HIPPO_PROVER_THREADS` environment variable if set,
    /// else available parallelism). Every mode shards: knowledge
    /// gathering reads prefetched flags, base mode issues its
    /// membership SQL against a frozen [`DbSnapshot`] shared by all
    /// workers. The thread count never affects answers or stats, only
    /// wall-clock.
    pub prover_threads: usize,
    /// Memoize prover verdicts by conflict-closure signature (see
    /// [`crate::prover::Prover::closure_signature`]); candidates whose
    /// signatures match an already-proved candidate in the same shard
    /// are decided without running the prover.
    pub prover_cache: bool,
    /// Let base mode's prepared membership probes use the engine's
    /// index access paths (`IndexLookup`); `false` forces the
    /// sequential-scan plans — answers and every other counter are
    /// identical either way (differentially tested), only
    /// [`AnswerStats::index_probes`] / [`AnswerStats::scan_probes`] and
    /// wall-clock move.
    pub index_probes: bool,
}

impl HippoOptions {
    /// Base system: no optimizations.
    pub fn base() -> Self {
        HippoOptions {
            governance: GovernanceOptions::default(),
            level: OptLevel::Base,
            prover_threads: 0,
            prover_cache: true,
            index_probes: true,
        }
    }

    /// Knowledge gathering only.
    pub fn kg() -> Self {
        HippoOptions {
            level: OptLevel::Kg,
            ..HippoOptions::base()
        }
    }

    /// Knowledge gathering + core filter (the fully optimized system).
    pub fn full() -> Self {
        HippoOptions {
            level: OptLevel::Full,
            ..HippoOptions::base()
        }
    }

    /// Explicit prover worker count (`0` = auto).
    pub fn with_prover_threads(mut self, threads: usize) -> Self {
        self.prover_threads = threads;
        self
    }

    /// Disable the closure-signature verdict cache (every candidate
    /// reaching the prover stage is proved from scratch; used by the
    /// differential tests and the cache-ablation experiments).
    pub fn without_prover_cache(mut self) -> Self {
        self.prover_cache = false;
        self
    }

    /// Force base mode's membership probes onto sequential-scan plans
    /// (the pre-optimizer access path; used by the differential tests
    /// and the E11 index ablation).
    pub fn without_index_probes(mut self) -> Self {
        self.index_probes = false;
        self
    }

    /// Bound every governed call's wall-clock time. On exhaustion the
    /// call returns a structured `Budget` error (strict, the default)
    /// or the sound subset proved so far ([`HippoOptions::degraded`]).
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.governance.deadline = Some(limit);
        self
    }

    /// Bound the rows a governed call may materialise/visit across all
    /// stages (envelope evaluation, membership probes, prover loops).
    pub fn with_row_budget(mut self, rows: u64) -> Self {
        self.governance.row_budget = Some(rows);
        self
    }

    /// Degraded mode: a budget trip in the answer pipeline yields
    /// `Ok` with the sound subset proved so far and
    /// [`crate::budget::Completeness::TruncatedAt`] naming the stage,
    /// instead of an error. Conflict detection stays strict even here.
    pub fn degraded(mut self) -> Self {
        self.governance.degraded = true;
        self
    }

    /// Install a deterministic fault plan (tests / CI): the plan's
    /// fault fires **once** at its stage/shard checkpoint, then the
    /// plan is spent — later calls run clean.
    pub fn with_faults(mut self, plan: crate::budget::FaultPlan) -> Self {
        self.governance.faults = Some(Arc::new(plan));
        self
    }

    /// A handle that cancels any in-flight (or future) governed call on
    /// these options from another thread. Taking the handle arms
    /// cancellation: subsequent calls create a budget and check the
    /// flag cooperatively. The flag is sticky until
    /// [`CancelHandle::reset`].
    pub fn cancel_handle(&mut self) -> CancelHandle {
        self.governance.cancel_armed = true;
        self.governance.cancel.clone()
    }

    /// Whether the installed fault plan (if any) has fired. A plan
    /// pinned to a stage/shard checkpoint that a call never reaches
    /// stays unfired — tests use this to tell "the fault degraded the
    /// answer" apart from "the fault was never hit".
    pub fn governance_faults_fired(&self) -> bool {
        self.governance
            .faults
            .as_ref()
            .is_some_and(|p| p.has_fired())
    }

    fn resolved_prover_threads(&self) -> usize {
        if self.prover_threads == 0 {
            parallel::prover_threads()
        } else {
            self.prover_threads
        }
    }

    /// Materialise the per-call [`Governance`]. Ungoverned options
    /// (no deadline, row budget, armed cancellation or fault plan)
    /// return an inactive governance whose checks compile to no-ops —
    /// that call takes exactly the pre-governance code path. Public so
    /// service layers can hand the same budget to [`FrozenHippo`]
    /// entry points that take a raw [`Budget`].
    pub fn governance(&self) -> Governance {
        let g = &self.governance;
        let governed =
            g.deadline.is_some() || g.row_budget.is_some() || g.cancel_armed || g.faults.is_some();
        if !governed {
            return Governance::default();
        }
        let mut budget = Budget::new();
        if let Some(limit) = g.deadline {
            budget = budget.with_deadline(limit);
        }
        if let Some(rows) = g.row_budget {
            budget = budget.with_row_limit(rows);
        }
        if g.cancel_armed {
            budget = budget.with_cancel_flag(g.cancel.clone());
        }
        Governance {
            budget: Some(Arc::new(budget)),
            faults: g.faults.clone(),
            degraded: g.degraded,
        }
    }
}

impl Default for HippoOptions {
    fn default() -> Self {
        HippoOptions::full()
    }
}

/// Statistics of one consistent-query-answering run. Every counter is
/// an exact sum over the answer pipeline's shards, independent of the
/// prover worker count.
#[derive(Debug, Clone, Default)]
pub struct AnswerStats {
    /// Candidate tuples returned by the envelope.
    pub candidates: usize,
    /// Tuples accepted without the prover by the core filter.
    pub filtered_consistent: usize,
    /// Candidates reaching the prover stage (each is decided either by
    /// a prover run or by a closure-signature cache hit).
    pub prover_calls: usize,
    /// Prover-stage candidates decided from a closure-signature cache
    /// (shard-local or persistent) without running the prover.
    pub prover_cache_hits: usize,
    /// Subset of [`AnswerStats::prover_cache_hits`] served by the
    /// persistent cross-call verdict cache (signatures proved by an
    /// earlier `consistent_answers` run on the same graph).
    pub prover_cache_cross_hits: usize,
    /// Prover shards the candidate list was decomposed into (`0` when
    /// there were no candidates). Base and KG mode report this
    /// identically now that both run the sharded pipeline.
    pub shards_used: usize,
    /// Prover-internal counters.
    pub prover: ProverRunStats,
    /// Membership probes executed against the backend (base mode; memo
    /// misses only — each shard memoizes per-literal probes).
    pub membership_queries: usize,
    /// Base-mode membership checks answered from a shard's probe memo
    /// instead of an execution.
    pub membership_memo_hits: usize,
    /// Subset of [`AnswerStats::membership_queries`] that executed as
    /// O(1) `IndexLookup` access paths (the optimizer chose an index).
    pub index_probes: usize,
    /// Subset of [`AnswerStats::membership_queries`] that executed as
    /// sequential scans (no covering index, or index probes disabled).
    pub scan_probes: usize,
    /// Consistent answers produced.
    pub answers: usize,
    /// Full budget checks performed across every governed stage and
    /// shard (`0` on ungoverned calls — no budget object exists).
    pub budget_checks: u64,
    /// Prover shards that stopped early on a budget trip (degraded
    /// mode); their accepted-so-far prefix is still sound.
    pub cancelled_shards: usize,
    /// The call ran in degraded mode (whether or not it truncated).
    pub degraded: bool,
    /// Time enveloping + evaluating candidates.
    pub t_envelope: Duration,
    /// Time in the core-filter stage before the shards: only its
    /// governance checkpoint. The per-candidate core test runs inside
    /// the shards, so its time is part of [`AnswerStats::t_prover`].
    pub t_filter: Duration,
    /// Time proving.
    pub t_prover: Duration,
    /// Total wall-clock for the run.
    pub t_total: Duration,
}

impl fmt::Display for AnswerStats {
    /// One-line report, symmetric across modes: shard count, cache hit
    /// rate (with the cross-call share) and the membership-probe memo
    /// rate (with its index/scan access-path split) are always printed
    /// — base mode reports its shards exactly like KG mode does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hit_rate = if self.prover_calls > 0 {
            100.0 * self.prover_cache_hits as f64 / self.prover_calls as f64
        } else {
            0.0
        };
        let memo_rate = {
            let probes = self.membership_queries + self.membership_memo_hits;
            if probes > 0 {
                100.0 * self.membership_memo_hits as f64 / probes as f64
            } else {
                0.0
            }
        };
        write!(
            f,
            "answers={} candidates={} filtered={} prover_calls={} shards={} \
             cache_hits={} ({hit_rate:.1}% hit rate, {} cross-call) \
             membership_queries={} (memo {memo_rate:.1}%, {} index / {} scan) \
             t_total={:.3}ms",
            self.answers,
            self.candidates,
            self.filtered_consistent,
            self.prover_calls,
            self.shards_used,
            self.prover_cache_hits,
            self.prover_cache_cross_hits,
            self.membership_queries,
            self.index_probes,
            self.scan_probes,
            self.t_total.as_secs_f64() * 1e3,
        )?;
        if self.budget_checks > 0 || self.degraded {
            write!(
                f,
                " budget_checks={} cancelled_shards={}{}",
                self.budget_checks,
                self.cancelled_shards,
                if self.degraded { " degraded" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// One recorded database change, awaiting reconciliation by
/// [`Hippo::redetect`].
#[derive(Debug, Clone)]
enum PendingOp {
    /// A tuple inserted through [`Hippo::insert_tuples`].
    Insert { table: String, tid: TupleId },
    /// A tuple deleted through [`Hippo::delete_tuples`]; `row` is its
    /// content as of deletion (needed to unhook the FD index and the
    /// fact table without the tuple still being readable).
    Delete {
        table: String,
        tid: TupleId,
        row: Row,
    },
}

/// The Hippo system: database + constraints + conflict hypergraph.
pub struct Hippo {
    db: Database,
    constraints: Vec<DenialConstraint>,
    /// Behind an `Arc` so [`Hippo::freeze`] can hand a frozen view to
    /// concurrent readers; redetection *replaces* the `Arc` (never
    /// mutates through it), so frozen views keep their graph.
    graph: Arc<ConflictHypergraph>,
    detect_stats: DetectStats,
    /// Restricted foreign keys (orphan edges maintained incrementally
    /// through [`Hippo::fk_indexes`], re-derived in full on
    /// [`Hippo::redetect_full`]).
    foreign_keys: Vec<crate::inclusion::ForeignKey>,
    /// Per-FK orphan-count indexes (parallel to `foreign_keys`): parent
    /// key → live parent count plus key → live child tuples, so a
    /// recorded change flips orphan edges in O(affected children)
    /// instead of forcing a full rebuild.
    fk_indexes: Vec<crate::inclusion::FkIndex>,
    /// Persistent detection state for incremental redetection; `None`
    /// only after a legacy build path that did not request it.
    detect_index: Option<DetectIndex>,
    /// Changes recorded since the last (re)detection, in order.
    pending: Vec<PendingOp>,
    /// Set by [`Hippo::db_mut`]: the database may have changed in ways
    /// the pending log does not capture, so only a full rebuild is safe.
    catalog_dirty: bool,
    /// Persistent closure-signature verdicts, shared **across**
    /// `consistent_answers` calls: each run's shards read the previous
    /// runs' verdicts lock-free (behind an `Arc` taken once at run
    /// start) and newly proved signatures are folded back in shard
    /// order during the merge phase — the lock is held only at the two
    /// ends, never while a shard works. Keyed by the query's rendering.
    /// Whenever the graph is replaced the whole `Arc` is swapped for a
    /// fresh one (a signature captures the database's influence through
    /// flags and interned fact ids, so data-only changes stay sound,
    /// but fact ids are meaningless across graphs) — frozen views
    /// ([`Hippo::freeze`]) keep the old `Arc`, which stays sound for
    /// *their* graph.
    verdict_cache: Arc<Mutex<VerdictCache>>,
    /// Options applied to subsequent runs.
    pub options: HippoOptions,
}

/// Verdicts by query rendering, then by conflict-closure signature.
/// Per-query maps sit behind `Arc`s so a running call can read one
/// without holding the registry lock.
#[derive(Debug, Default)]
struct VerdictCache {
    by_query: FxHashMap<String, Arc<FxHashMap<Vec<u64>, bool>>>,
}

/// Distinct queries cached before the registry resets (a safety valve
/// against unbounded growth under ad-hoc query streams; per-query maps
/// are bounded by the query's signature classes and need no cap).
const VERDICT_CACHE_MAX_QUERIES: usize = 64;

impl Hippo {
    /// Build the system: validates constraints and performs conflict
    /// detection (Figure 1's lower path).
    pub fn new(db: Database, constraints: Vec<DenialConstraint>) -> Result<Hippo, EngineError> {
        Hippo::with_options(db, constraints, HippoOptions::default())
    }

    /// Build with explicit options. Construction-time conflict detection
    /// runs under the options' governance (strictly — a budget trip or
    /// injected detect fault surfaces as an error even in degraded mode,
    /// since an incomplete hypergraph would make every later answer
    /// unsound).
    pub fn with_options(
        db: Database,
        constraints: Vec<DenialConstraint>,
        options: HippoOptions,
    ) -> Result<Hippo, EngineError> {
        let gov = options.governance();
        let (graph, detect_stats, index) =
            detect_with_index(db.catalog(), &constraints, &DetectOptions::default(), &gov)?;
        Ok(Hippo {
            db,
            constraints,
            graph: Arc::new(graph),
            detect_stats,
            foreign_keys: Vec::new(),
            fk_indexes: Vec::new(),
            detect_index: Some(index),
            pending: Vec::new(),
            catalog_dirty: false,
            verdict_cache: Arc::new(Mutex::new(VerdictCache::default())),
            options,
        })
    }

    /// The underlying database (read access).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access. Mutations invalidate the hypergraph — call
    /// [`Hippo::redetect`] afterwards. Changes made through this handle
    /// are *not* recorded, so the next redetection is a full rebuild;
    /// prefer [`Hippo::insert_tuples`] / [`Hippo::delete_tuples`] for
    /// updates that should be reconciled incrementally.
    pub fn db_mut(&mut self) -> &mut Database {
        self.catalog_dirty = true;
        &mut self.db
    }

    /// Insert rows into `table`, recording them so the next
    /// [`Hippo::redetect`] can reconcile the hypergraph incrementally.
    /// Returns the new tuples' stable ids. The batch is validated
    /// up-front: a bad row rejects the whole call before anything is
    /// inserted, so `Err` means the database is unchanged.
    pub fn insert_tuples(
        &mut self,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Vec<TupleId>, EngineError> {
        let t = self.db.catalog_mut().table_mut(table)?;
        // Validate/coerce every row before inserting any — no
        // half-applied batches whose ids the caller never learns.
        let rows = rows
            .into_iter()
            .map(|row| t.schema.check_row(row))
            .collect::<Result<Vec<Row>, _>>()?;
        let mut tids = Vec::with_capacity(rows.len());
        for row in rows {
            // Pre-validated, so this only fails on table exhaustion;
            // recording each insert as it lands keeps the pending log
            // consistent with the database even then.
            let tid = t.insert(row)?;
            tids.push(tid);
            self.pending.push(PendingOp::Insert {
                table: table.to_string(),
                tid,
            });
        }
        Ok(tids)
    }

    /// Delete tuples from `table` by id, recording them so the next
    /// [`Hippo::redetect`] can reconcile the hypergraph incrementally.
    /// Unknown or already-deleted ids are skipped; returns the number of
    /// tuples actually deleted.
    pub fn delete_tuples(&mut self, table: &str, tids: &[TupleId]) -> Result<usize, EngineError> {
        let mut removed: Vec<(TupleId, Row)> = Vec::new();
        {
            let t = self.db.catalog_mut().table_mut(table)?;
            for &tid in tids {
                if let Some(row) = t.get(tid).cloned() {
                    t.delete(tid);
                    removed.push((tid, row));
                }
            }
        }
        let n = removed.len();
        for (tid, row) in removed {
            self.pending.push(PendingOp::Delete {
                table: table.to_string(),
                tid,
                row,
            });
        }
        Ok(n)
    }

    /// Update tuples **in place** (the tuple ids survive), recording each
    /// change as a delete of the old content plus a re-insert — so the
    /// next [`Hippo::redetect`] stays on the incremental path instead of
    /// falling back to a full rebuild (which mutating through
    /// [`Hippo::db_mut`] would force). The batch is validated up-front:
    /// an unknown tuple id or a bad row rejects the whole call before
    /// anything changes, so `Err` means the database is untouched.
    /// Returns the number of tuples updated.
    pub fn update_tuples(
        &mut self,
        table: &str,
        updates: Vec<(TupleId, Row)>,
    ) -> Result<usize, EngineError> {
        let mut replaced: Vec<(TupleId, Row)> = Vec::with_capacity(updates.len());
        {
            let t = self.db.catalog_mut().table_mut(table)?;
            let updates = updates
                .into_iter()
                .map(|(tid, row)| {
                    if t.get(tid).is_none() {
                        return Err(EngineError::new(format!(
                            "update of missing tuple {} in {table}",
                            tid.0
                        )));
                    }
                    Ok((tid, t.schema.check_row(row)?))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            for (tid, row) in updates {
                // Pre-validated: `update` can only fail on a missing
                // tuple, which we just ruled out.
                let old = t.update(tid, row)?;
                replaced.push((tid, old));
            }
        }
        let n = replaced.len();
        for (tid, old) in replaced {
            // Delete-then-insert of the *same* tuple id: the fold in
            // `redetect_incremental` drops the old content's edges and
            // index entries via the recorded row, then delta-detects the
            // id again with its new content.
            self.pending.push(PendingOp::Delete {
                table: table.to_string(),
                tid,
                row: old,
            });
            self.pending.push(PendingOp::Insert {
                table: table.to_string(),
                tid,
            });
        }
        Ok(n)
    }

    /// Tear down the system, returning the owned database (e.g. to rebuild
    /// with different constraints).
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Bring the hypergraph up to date after data changes.
    ///
    /// If every change since the last detection was recorded through
    /// [`Hippo::insert_tuples`] / [`Hippo::delete_tuples`], this takes
    /// the **incremental** path: surviving edges are carried over,
    /// deleted tuples' edges are dropped, inserted tuples are
    /// delta-detected, and foreign-key orphan edges are flipped through
    /// the per-FK orphan-count indexes — the returned stats have
    /// `incremental == true` and count only the delta work. Otherwise
    /// (the catalog was touched via [`Hippo::db_mut`]) it falls back to
    /// a full sharded rebuild. With no changes at all it returns the
    /// current stats untouched.
    pub fn redetect(&mut self) -> Result<DetectStats, EngineError> {
        if self.catalog_dirty || self.detect_index.is_none() {
            return self.redetect_full();
        }
        if self.pending.is_empty() {
            return Ok(self.detect_stats);
        }
        self.redetect_incremental()
    }

    /// Unconditionally re-run full conflict detection (including
    /// foreign-key orphan edges when configured), discarding any
    /// recorded pending changes.
    pub fn redetect_full(&mut self) -> Result<DetectStats, EngineError> {
        // Compute everything into locals first and assign only on full
        // success: a failure (or a worker panic, contained below) leaves
        // the previous graph, stats, detect index and FK indexes exactly
        // as they were — the system stays usable and `catalog_dirty`
        // still forces a fresh rebuild on the next attempt.
        let gov = self.options.governance();
        let db = &self.db;
        let constraints = &self.constraints;
        let foreign_keys = &self.foreign_keys;
        type Computed = (
            ConflictHypergraph,
            DetectStats,
            DetectIndex,
            Vec<crate::inclusion::FkIndex>,
        );
        let compute = || -> Result<Computed, EngineError> {
            if foreign_keys.is_empty() {
                let (graph, stats, index) =
                    detect_with_index(db.catalog(), constraints, &DetectOptions::default(), &gov)?;
                Ok((graph, stats, index, Vec::new()))
            } else {
                let start = Instant::now();
                let (mut graph, mut stats, index) =
                    crate::detect::detect_unfinalized_with_index(db.catalog(), constraints, &gov)?;
                let mut fk_indexes = Vec::with_capacity(foreign_keys.len());
                for (i, fk) in foreign_keys.iter().enumerate() {
                    let added = crate::inclusion::orphan_edges(
                        &mut graph,
                        db.catalog(),
                        fk,
                        constraints.len() + i,
                    )?;
                    stats.edges_emitted += added;
                    fk_indexes.push(crate::inclusion::FkIndex::build(db.catalog(), fk)?);
                }
                graph.finalize();
                stats.elapsed = start.elapsed();
                Ok((graph, stats, index, fk_indexes))
            }
        };
        let (graph, stats, index, fk_indexes) = std::panic::catch_unwind(
            std::panic::AssertUnwindSafe(compute),
        )
        .map_err(|payload| {
            EngineError::worker_panic("detect", 0, &parallel::panic_message(payload.as_ref()))
        })??;
        self.graph = Arc::new(graph);
        self.detect_stats = stats;
        self.detect_index = Some(index);
        self.fk_indexes = fk_indexes;
        self.pending.clear();
        self.catalog_dirty = false;
        self.invalidate_verdicts();
        Ok(self.detect_stats)
    }

    /// Drop all cross-call verdicts: signatures embed interned fact ids,
    /// which are meaningless once the graph is replaced. (Data-only
    /// changes keep the cache sound — a candidate's signature captures
    /// the database's influence through its membership flags.) The
    /// whole `Arc` is swapped rather than the map cleared in place:
    /// frozen views ([`Hippo::freeze`]) still hold the old `Arc`, and
    /// their verdicts stay valid for the graph they were proved on.
    fn invalidate_verdicts(&mut self) {
        self.verdict_cache = Arc::new(Mutex::new(VerdictCache::default()));
    }

    /// Drop the persistent cross-call verdict cache through a shared
    /// handle. Verdicts re-accumulate on the next run; answers never
    /// change. For callers that want every `consistent_answers` call
    /// measured (or bounded) cold — benchmarks clear between
    /// iterations so repeated runs on one system don't collapse into
    /// cache reads.
    pub fn clear_verdict_cache(&self) {
        self.verdict_cache.lock().unwrap().by_query.clear();
    }

    /// The incremental path: reconcile the recorded pending operations
    /// against the existing graph. The cost is proportional to the
    /// graph size plus the delta for **all** denial classes: FDs probe
    /// the persistent LHS-hash group index, general denials seed their
    /// joins from the changed tuples through the persistent per-atom
    /// join indexes (see `general_delta_insert`).
    fn redetect_incremental(&mut self) -> Result<DetectStats, EngineError> {
        // Poison-on-entry: the inner path consumes the pending log and
        // mutates the persistent detect/FK indexes in place, so bailing
        // out anywhere — an early `?` return, an injected fault, a
        // panic — would leave them inconsistent with the graph. Marking
        // the catalog dirty *now* and clearing it only on success means
        // any failed reconciliation forces the next `redetect` onto the
        // full-rebuild path instead of silently reusing half-updated
        // indexes.
        self.catalog_dirty = true;
        let gov = self.options.governance();
        // Panic containment, symmetric with `redetect_full`: an
        // injected `detect` fault (the chaos harness's "writer panic
        // mid-redetect") or a genuine bug in the delta code surfaces as
        // a structured `WorkerPanic` error instead of unwinding through
        // the caller — and the dirty flag above keeps the system
        // usable afterwards.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gov.fault_point("detect", 0)?;
            self.redetect_incremental_inner()
        }))
        .map_err(|payload| {
            EngineError::worker_panic("detect", 0, &parallel::panic_message(payload.as_ref()))
        })?
    }

    fn redetect_incremental_inner(&mut self) -> Result<DetectStats, EngineError> {
        let start = Instant::now();
        let mut stats = DetectStats {
            incremental: true,
            shards_used: 0,
            ..DetectStats::default()
        };
        let pending = std::mem::take(&mut self.pending);
        let DetectIndex { fd, general } = self
            .detect_index
            .as_mut()
            .expect("incremental path requires a detect index");
        // Materialise any missing general-denial join indexes **lazily**
        // from the current catalog. The catalog already reflects this
        // pending batch, so a freshly built index is up to date and must
        // skip the batch's fold maintenance below (`fresh` marks them);
        // read-only systems never pay for these owned indexes at all.
        let mut fresh = vec![false; self.constraints.len()];
        for (ci, c) in self.constraints.iter().enumerate() {
            if fd[ci].is_none() && general[ci].is_none() {
                general[ci] = Some(build_gen_index(self.db.catalog(), c)?);
                fresh[ci] = true;
            }
        }
        let old = &self.graph;

        // New graph with the identical relation-interning order, so
        // vertex `rel` indices stay comparable across the copy.
        let mut g = ConflictHypergraph::new();
        for r in 0..old.relation_count() as u32 {
            g.intern(old.relation_name(r));
        }

        // Fold the pending log: net deleted vertices, net inserted
        // tuples per table (an insert later deleted in the same batch
        // cancels out), and FD/join index maintenance for deletes. An
        // in-place update arrives as delete-then-insert of one tuple
        // id: the delete unhooks the old content (recorded row), the
        // insert re-detects the id with its new content.
        let mut deleted: FxHashSet<Vertex> = FxHashSet::default();
        let mut inserted_by_table: FxHashMap<String, Vec<TupleId>> = FxHashMap::default();
        for op in &pending {
            match op {
                PendingOp::Insert { table, tid } => {
                    inserted_by_table
                        .entry(table.clone())
                        .or_default()
                        .push(*tid);
                }
                PendingOp::Delete { table, tid, row } => {
                    if let Some(ri) = old.relation_index(table) {
                        deleted.insert(Vertex { rel: ri, tid: *tid });
                    }
                    for fdix in fd.iter_mut().flatten() {
                        if fdix.rel == *table {
                            fd_delta_delete(fdix, row, *tid);
                        }
                    }
                    for (ci, gix) in general.iter_mut().enumerate() {
                        if fresh[ci] {
                            continue; // built post-batch: already current
                        }
                        if let Some(gix) = gix {
                            gix.remove_tuple(table, *tid, row);
                        }
                    }
                    if let Some(list) = inserted_by_table.get_mut(table) {
                        list.retain(|t| t != tid);
                    }
                }
            }
        }

        // ---- Foreign-key orphan reconciliation ----
        //
        // Net change per touched (table, tid): the *first* Delete op for
        // a tid records its pre-batch row, presence in the (post-batch)
        // catalog gives its final row; insert-then-delete transients net
        // to nothing. Feeding the per-FK orphan-count indexes with these
        // nets yields, per FK, the parent keys that crossed zero — keys
        // whose count rose from 0 un-orphan their children (their
        // singleton edges are *not* carried over below), keys whose
        // count fell to 0 orphan all their live children (fresh
        // singleton edges are added after the denial deltas). Work is
        // O(batch + affected children), never the instance.
        let mut fk_newly_matched: Vec<FxHashSet<Row>> = Vec::new();
        let mut fk_orphan_adds: Vec<Vec<TupleId>> = Vec::new();
        if !self.foreign_keys.is_empty() {
            let mut net_map: FxHashMap<(String, TupleId), Option<Row>> = FxHashMap::default();
            for op in &pending {
                match op {
                    PendingOp::Insert { table, tid } => {
                        net_map.entry((table.clone(), *tid)).or_insert(None);
                    }
                    PendingOp::Delete { table, tid, row } => {
                        net_map
                            .entry((table.clone(), *tid))
                            .or_insert_with(|| Some(row.clone()));
                    }
                }
            }
            // Resolve each tuple's post-batch row once (FK-independent),
            // sorted so the per-FK passes — and therefore orphan-edge
            // insertion order — are canonical.
            type NetChange<'a> = ((String, TupleId), Option<Row>, Option<&'a Row>);
            let mut net: Vec<NetChange<'_>> = net_map
                .into_iter()
                .map(|((table, tid), pre)| {
                    let post = self
                        .db
                        .catalog()
                        .table(&table)
                        .ok()
                        .and_then(|t| t.get(tid));
                    ((table, tid), pre, post)
                })
                .collect();
            net.sort_by(|a, b| a.0.cmp(&b.0));
            for (fk, fkix) in self.foreign_keys.iter().zip(&mut self.fk_indexes) {
                let mut parent_delta: FxHashMap<Row, i64> = FxHashMap::default();
                let mut inserted_children: Vec<(TupleId, Row)> = Vec::new();
                for ((table, tid), pre, post) in &net {
                    let post = *post;
                    if *table == fk.parent {
                        if let Some(r) = pre {
                            *parent_delta.entry(fk.parent_key(r)).or_insert(0) -= 1;
                        }
                        if let Some(r) = post {
                            *parent_delta.entry(fk.parent_key(r)).or_insert(0) += 1;
                        }
                    }
                    if *table == fk.child {
                        if let Some(key) = pre.as_ref().and_then(|r| fk.child_key(r)) {
                            fkix.remove_child(&key, *tid);
                        }
                        if let Some(key) = post.and_then(|r| fk.child_key(r)) {
                            fkix.add_child(key.clone(), *tid);
                            inserted_children.push((*tid, key));
                        }
                    }
                }
                let mut newly_matched: FxHashSet<Row> = FxHashSet::default();
                let mut newly_orphaned: Vec<Row> = Vec::new();
                for (key, delta) in parent_delta {
                    if delta == 0 {
                        continue;
                    }
                    let old_count = fkix.parent_count(&key);
                    for _ in 0..delta.max(0) {
                        fkix.add_parent(key.clone());
                    }
                    for _ in 0..(-delta).max(0) {
                        fkix.remove_parent(&key);
                    }
                    let new_count = fkix.parent_count(&key);
                    if old_count == 0 && new_count > 0 {
                        newly_matched.insert(key);
                    } else if old_count > 0 && new_count == 0 {
                        newly_orphaned.push(key);
                    }
                }
                // Orphan-edge additions: net-inserted children with no
                // parent, plus every live child of a key that lost its
                // last parent. Sorted for deterministic edge ids;
                // overlaps collapse in the graph's edge dedup.
                let mut adds: Vec<TupleId> = inserted_children
                    .into_iter()
                    .filter(|(_, key)| fkix.parent_count(key) == 0)
                    .map(|(tid, _)| tid)
                    .collect();
                newly_orphaned.sort();
                for key in &newly_orphaned {
                    adds.extend_from_slice(fkix.children_of(key));
                }
                adds.sort_unstable();
                adds.dedup();
                fk_newly_matched.push(newly_matched);
                fk_orphan_adds.push(adds);
            }
        }

        // Register the net inserts with the carried-over (non-fresh)
        // join indexes *before* the delta joins run, so new-new
        // combinations across different atom positions are visible to
        // every seed pass. Fresh indexes scanned the post-batch catalog
        // and contain the inserts already.
        let stale_general: Vec<usize> = general
            .iter()
            .enumerate()
            .filter(|(ci, g)| g.is_some() && !fresh[*ci])
            .map(|(ci, _)| ci)
            .collect();
        if !stale_general.is_empty() {
            for (table, tids) in &inserted_by_table {
                let t = self.db.catalog().table(table)?;
                for &tid in tids {
                    if let Some(row) = t.get(tid) {
                        for &ci in &stale_general {
                            general[ci]
                                .as_mut()
                                .expect("filtered to Some above")
                                .insert_tuple(table, tid, row);
                        }
                    }
                }
            }
        }

        // Carry surviving edges over. Every edge vertex is present in
        // the old fact table (add_edge interns each vertex's fact), so
        // a fact reverse-map recovers the rows without touching the
        // catalog.
        let mut vertex_fact: FxHashMap<Vertex, FactId> =
            FxHashMap::with_capacity_and_hasher(old.fact_count(), Default::default());
        for f in 0..old.fact_count() as u32 {
            for &v in old.vertices_of_fact_id(FactId(f)) {
                vertex_fact.insert(v, FactId(f));
            }
        }
        let mut rows_buf: Vec<&Row> = Vec::new();
        let n_denials = self.constraints.len();
        for (eid, edge) in old.edges() {
            if edge.iter().any(|v| deleted.contains(v)) {
                continue;
            }
            let constraint = old.edge_constraint(eid);
            // Orphan edges whose parent key just gained a parent are
            // resolved: drop them instead of carrying them over.
            if constraint >= n_denials {
                let fk_i = constraint - n_denials;
                if let (Some(fk), Some(matched)) =
                    (self.foreign_keys.get(fk_i), fk_newly_matched.get(fk_i))
                {
                    debug_assert_eq!(edge.len(), 1, "orphan edges are singletons");
                    let row = old.fact(vertex_fact[&edge[0]]).1;
                    if fk.child_key(row).is_some_and(|key| matched.contains(&key)) {
                        continue;
                    }
                }
            }
            rows_buf.clear();
            rows_buf.extend(edge.iter().map(|v| old.fact(vertex_fact[v]).1));
            g.add_edge(edge, &rows_buf, constraint);
        }

        // Delta-detect the inserted tuples, constraint by constraint:
        // FDs probe their LHS-hash group index, general denials seed
        // their joins from the delta through the persistent per-atom
        // join indexes. Both are O(delta × matches), never O(instance).
        for (ci, c) in self.constraints.iter().enumerate() {
            match fd[ci].as_mut() {
                Some(fdix) => {
                    if let Some(tids) = inserted_by_table.get(&fdix.rel) {
                        fd_delta_insert(self.db.catalog(), &mut g, ci, fdix, tids, &mut stats)?;
                    }
                }
                None => {
                    let gix = general[ci]
                        .as_ref()
                        .expect("general index exists for every non-FD constraint");
                    general_delta_insert(
                        self.db.catalog(),
                        &mut g,
                        ci,
                        c,
                        gix,
                        &inserted_by_table,
                        &mut stats,
                    )?;
                }
            }
        }

        // New orphan edges: children inserted without a parent plus
        // children whose key lost its last parent (computed above).
        for (fk_i, adds) in fk_orphan_adds.into_iter().enumerate() {
            if adds.is_empty() {
                continue;
            }
            let fk = &self.foreign_keys[fk_i];
            let child = self.db.catalog().table(&fk.child)?;
            let rel = g.intern(&fk.child);
            for tid in adds {
                let row = child
                    .get(tid)
                    .expect("orphan candidate is live in the catalog");
                g.add_edge(&[Vertex { rel, tid }], &[row], n_denials + fk_i);
                stats.edges_emitted += 1;
            }
        }

        g.finalize();
        self.graph = Arc::new(g);
        self.invalidate_verdicts();
        stats.elapsed = start.elapsed();
        self.detect_stats = stats;
        self.catalog_dirty = false; // reconciliation fully succeeded
        Ok(stats)
    }

    /// The conflict hypergraph.
    pub fn graph(&self) -> &ConflictHypergraph {
        &self.graph
    }

    /// The constraints.
    pub fn constraints(&self) -> &[DenialConstraint] {
        &self.constraints
    }

    /// The restricted foreign keys (empty unless built via
    /// [`Hippo::with_foreign_keys`]). The durability layer needs these
    /// to rebuild an equivalent `Hippo` around a recovered database —
    /// constraints are code, not data, so they are re-supplied at
    /// recovery rather than serialized.
    pub fn foreign_keys(&self) -> &[crate::inclusion::ForeignKey] {
        &self.foreign_keys
    }

    /// Number of recorded-but-unreconciled changes (inserts + deletes
    /// recorded since the last [`Hippo::redetect`]). The write-ahead log
    /// frames a transaction only once this is back to zero — a non-zero
    /// count at frame time would mean logging a state the hypergraph
    /// does not yet reflect.
    pub fn pending_changes(&self) -> usize {
        self.pending.len()
    }

    /// Conflict-detection statistics.
    pub fn detect_stats(&self) -> DetectStats {
        self.detect_stats
    }

    /// Build the system with restricted foreign keys in addition to denial
    /// constraints (the paper's future-work extension — see
    /// [`crate::inclusion`]): parents must be constraint-free; orphaned
    /// child tuples become singleton hyperedges.
    pub fn with_foreign_keys(
        db: Database,
        constraints: Vec<DenialConstraint>,
        foreign_keys: Vec<crate::inclusion::ForeignKey>,
    ) -> Result<Hippo, EngineError> {
        if foreign_keys.is_empty() {
            // No orphan edges to derive: identical to `new`, which keeps
            // the incremental redetection path available.
            return Hippo::new(db, constraints);
        }
        crate::inclusion::validate_restricted(&foreign_keys, &constraints, db.catalog())?;
        // Un-finalized: orphan edges are still coming; freeze once, below.
        let gov = crate::budget::Governance::default();
        let (mut graph, mut detect_stats, index) =
            crate::detect::detect_unfinalized_with_index(db.catalog(), &constraints, &gov)?;
        let mut fk_indexes = Vec::with_capacity(foreign_keys.len());
        for (i, fk) in foreign_keys.iter().enumerate() {
            let added = crate::inclusion::orphan_edges(
                &mut graph,
                db.catalog(),
                fk,
                constraints.len() + i,
            )?;
            detect_stats.edges_emitted += added;
            fk_indexes.push(crate::inclusion::FkIndex::build(db.catalog(), fk)?);
        }
        graph.finalize();
        Ok(Hippo {
            db,
            constraints,
            graph: Arc::new(graph),
            detect_stats,
            foreign_keys,
            fk_indexes,
            detect_index: Some(index),
            pending: Vec::new(),
            catalog_dirty: false,
            verdict_cache: Arc::new(Mutex::new(VerdictCache::default())),
            options: HippoOptions::default(),
        })
    }

    /// Compute the consistent answers to `query`. Returns sorted rows.
    ///
    /// When the options carry a budget ([`HippoOptions::with_deadline`]
    /// etc.) this is the strict governed call: a trip surfaces as a
    /// structured error. Degraded callers who want the partial result
    /// use [`Hippo::consistent_answers_governed`].
    pub fn consistent_answers(&self, query: &SjudQuery) -> Result<Vec<Row>, EngineError> {
        Ok(self.consistent_answers_governed(query)?.rows)
    }

    /// Compute the consistent answers to a SQL `SELECT` (see
    /// [`crate::sql_front`] for the accepted class).
    pub fn consistent_answers_sql(&self, sql: &str) -> Result<Vec<Row>, EngineError> {
        let q = crate::sql_front::sjud_from_sql(sql, self.db.catalog())
            .map_err(|e| EngineError::new(e.to_string()))?;
        self.consistent_answers(&q)
    }

    /// Compute consistent answers plus run statistics.
    ///
    /// The answer-filtering stage is a **shard → merge pipeline**
    /// mirroring detection's, with no serial prefix beyond candidate
    /// collection: the candidate list is cut into [`PROVER_SHARDS`]
    /// contiguous slices, and each shard dedups, probes the core
    /// filter, resolves membership (prefetched flags in KG mode, one
    /// shared read-only [`DbSnapshot`] with per-shard memoized SQL in
    /// base mode) and proves, with a private closure-signature verdict
    /// cache seeded by previous calls' verdicts. Shard outputs are
    /// merged in shard order, so answers and stats are identical for
    /// any worker count.
    pub fn consistent_answers_with_stats(
        &self,
        query: &SjudQuery,
    ) -> Result<(Vec<Row>, AnswerStats), EngineError> {
        let a = self.consistent_answers_governed(query)?;
        Ok((a.rows, a.stats))
    }

    /// The governed entry point: compute consistent answers under the
    /// options' resource budget and report how complete the result is.
    ///
    /// * Ungoverned options (the default): identical to
    ///   [`Hippo::consistent_answers_with_stats`] — no budget object is
    ///   even created, every stage runs the exact pre-governance path,
    ///   and the result is [`Completeness::Complete`].
    /// * Governed, **strict** (default mode): a deadline / row-budget /
    ///   cancellation trip anywhere in the pipeline returns
    ///   `Err` with kind `Budget { stage, spent, limit }` or
    ///   `Cancelled { stage }`.
    /// * Governed, **degraded** ([`HippoOptions::degraded`]): a trip
    ///   yields `Ok` with the *sound subset* proved before the trip and
    ///   [`Completeness::TruncatedAt`] naming the stage — an
    ///   envelope/core-filter trip truncates to the empty set, a
    ///   prover-stage trip keeps every candidate fully proved before
    ///   the budget ran out (each stopped shard counts in
    ///   [`AnswerStats::cancelled_shards`]).
    ///
    /// A worker panic in the prover stage is contained either way: the
    /// sibling shards drain, the error is `WorkerPanic { stage, shard }`,
    /// no partial merge happens, and this `Hippo` (including its
    /// persistent verdict cache) stays fully usable.
    ///
    /// Answers through [`Hippo::freeze`], so it errors while data
    /// changes are recorded but not yet redetected.
    pub fn consistent_answers_governed(
        &self,
        query: &SjudQuery,
    ) -> Result<ConsistentAnswer, EngineError> {
        self.freeze()?.consistent_answers_governed(query)
    }

    /// Freeze the current state into an immutable, `Send + Sync`
    /// [`FrozenHippo`]: the catalog snapshot, the conflict hypergraph
    /// and the persistent verdict cache, all shared by cheap `Arc`
    /// clones (no data is copied).
    ///
    /// The frozen view answers queries concurrently with further
    /// mutation of this `Hippo`: redetection *replaces* the graph and
    /// verdict-cache `Arc`s, so the view keeps exactly the state it
    /// captured. Refuses while changes are recorded but not yet
    /// reconciled (`redetect` first) — freezing then would pair a
    /// pre-change hypergraph with post-change data, making every
    /// prover verdict unsound.
    pub fn freeze(&self) -> Result<FrozenHippo, EngineError> {
        if self.catalog_dirty || !self.pending.is_empty() {
            return Err(EngineError::new(
                "data changes recorded since the last detection; call redetect() first",
            ));
        }
        Ok(FrozenHippo {
            snapshot: self.db.snapshot(),
            graph: Arc::clone(&self.graph),
            verdict_cache: Arc::clone(&self.verdict_cache),
            options: self.options.clone(),
        })
    }
}

/// An immutable, `Send + Sync` view of a [`Hippo`] at one point in
/// time: the frozen catalog snapshot, the conflict hypergraph and the
/// persistent verdict cache, produced by [`Hippo::freeze`].
///
/// Any number of threads may run [`FrozenHippo::consistent_answers`]
/// (or plain SQL through [`FrozenHippo::snapshot`]) on one view — or on
/// clones, which share everything — with no locks beyond the verdict cache's
/// merge-phase write-back, entirely independent of the live `Hippo`
/// the view came from. This is the unit the service layer
/// (`crates/server`) publishes as an epoch.
#[derive(Clone, Debug)]
pub struct FrozenHippo {
    snapshot: DbSnapshot,
    graph: Arc<ConflictHypergraph>,
    verdict_cache: Arc<Mutex<VerdictCache>>,
    /// Default options for answer runs on this view (captured from the
    /// `Hippo` at freeze time; per-request governance goes through
    /// [`FrozenHippo::consistent_answers_with`]).
    pub options: HippoOptions,
}

// The whole point of freezing: readers share one view across threads.
// Compile-time proof, not a convention.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<FrozenHippo>();
};

impl FrozenHippo {
    /// The frozen catalog.
    pub fn catalog(&self) -> &Catalog {
        self.snapshot.catalog()
    }

    /// The frozen database snapshot.
    pub fn snapshot(&self) -> &DbSnapshot {
        &self.snapshot
    }

    /// The frozen conflict hypergraph.
    pub fn graph(&self) -> &ConflictHypergraph {
        &self.graph
    }

    /// Consistent answers on the frozen view (sorted rows; governance
    /// per [`FrozenHippo::options`]).
    pub fn consistent_answers(&self, query: &SjudQuery) -> Result<Vec<Row>, EngineError> {
        Ok(self.consistent_answers_governed(query)?.rows)
    }

    /// The governed entry point (see
    /// [`Hippo::consistent_answers_governed`], which freezes and lands
    /// here): answers, stats and degradation semantics under
    /// [`FrozenHippo::options`].
    pub fn consistent_answers_governed(
        &self,
        query: &SjudQuery,
    ) -> Result<ConsistentAnswer, EngineError> {
        self.consistent_answers_with(query, &self.options)
    }

    /// Run with per-request options (the service layer's deadline
    /// propagation: each request derives its own governance without
    /// touching the shared view).
    pub fn consistent_answers_with(
        &self,
        query: &SjudQuery,
        options: &HippoOptions,
    ) -> Result<ConsistentAnswer, EngineError> {
        let gov = options.governance();
        answers_pipeline(
            &self.snapshot,
            &self.graph,
            options,
            &self.verdict_cache,
            query,
            &gov,
        )
    }
}

/// The answer pipeline behind every entry point ([`Hippo`] answers
/// through [`Hippo::freeze`]): envelope → core filter → sharded
/// prove/merge, all reads through one frozen `snapshot`.
fn answers_pipeline(
    snapshot: &DbSnapshot,
    graph: &ConflictHypergraph,
    options: &HippoOptions,
    verdict_cache: &Mutex<VerdictCache>,
    query: &SjudQuery,
    gov: &Governance,
) -> Result<ConsistentAnswer, EngineError> {
    let t0 = Instant::now();
    let mut stats = AnswerStats {
        degraded: gov.degraded,
        ..AnswerStats::default()
    };
    let arity = query.validate(snapshot.catalog())?;
    let template = MembershipTemplate::build(query, snapshot.catalog())?;
    let env = envelope(query);

    // ---- Enveloping + Evaluation ----
    let te = Instant::now();
    let env_res: Result<_, EngineError> = (|| {
        gov.checkpoint("envelope", 0)?;
        if options.level != OptLevel::Base {
            let sql_q = extended_envelope_sql(&env, &template, snapshot.catalog())?;
            let sql = hippo_sql::print_query(&sql_q);
            let rows = snapshot
                .query_governed(&sql, gov.budget_ref(), "envelope")?
                .rows;
            let mut gathered = split_gathered(rows, arity, template.literals.len());
            settle_null_flags(&mut gathered, &template, snapshot.catalog())?;
            Ok((gathered.candidates, Some(gathered.flags)))
        } else {
            let sql = env.to_sql(snapshot.catalog())?;
            let rows = snapshot
                .query_governed(&sql, gov.budget_ref(), "envelope")?
                .rows;
            Ok((rows, None))
        }
    })();
    let (candidates, flags) = match env_res {
        Ok(v) => v,
        Err(e) if gov.degraded && e.is_governance() => {
            return Ok(truncated(stats, &e, gov, t0));
        }
        Err(e) => return Err(e),
    };
    stats.candidates = candidates.len();
    stats.t_envelope = te.elapsed();

    // ---- Core filter: only its checkpoint runs here; the test itself
    // is per candidate, inside the shards ----
    let tf = Instant::now();
    let core_filter = options.level == OptLevel::Full;
    if core_filter {
        if let Err(e) = gov.checkpoint("corefilter", 0) {
            if gov.degraded && e.is_governance() {
                return Ok(truncated(stats, &e, gov, t0));
            }
            return Err(e);
        }
    }
    stats.t_filter = tf.elapsed();

    // ---- Sharded answer stage ----
    //
    // No serial prefix beyond candidate collection: dedup, the
    // core-filter test and the prover all run inside the shards.
    // Dedup is shard-local (a duplicate crossing a shard boundary is
    // decided twice and collapsed by the final sort+dedup — the
    // envelope is set-semantics, so this is a belt-and-braces case),
    // which keeps every counter an exact sum over fixed shards.
    let tp = Instant::now();
    let shards = parallel::split_ranges(candidates.len(), PROVER_SHARDS);
    let threads = options.resolved_prover_threads();
    let use_cache = options.prover_cache;
    // Cross-call verdicts: take the persistent map for this query
    // under the lock, then read it lock-free from every shard.
    let query_key = use_cache.then(|| query.to_string());
    let persistent: Option<Arc<FxHashMap<Vec<u64>, bool>>> = query_key.as_ref().map(|k| {
        let cache = verdict_cache.lock().unwrap();
        cache.by_query.get(k).cloned().unwrap_or_default()
    });
    let input = ShardInput {
        graph,
        template: &template,
        candidates: &candidates,
        flags: flags.as_deref(),
        // Base mode: all workers share the one snapshot and issue their
        // membership probes against it.
        snapshot: flags.is_none().then_some(snapshot),
        core_flags: if core_filter { flags.as_deref() } else { None },
        use_cache,
        index_probes: options.index_probes,
        persistent: persistent.as_deref(),
        gov,
    };
    // Panic-isolating runner: a panicking shard poisons only its
    // slot; every sibling drains. The first failure — in shard
    // order, panic or error alike — is surfaced *after* the drain,
    // and the merge (including the verdict-cache write-back) is
    // skipped entirely, so the `Hippo` and its caches stay valid.
    let outs = parallel::run_indexed_isolated(shards.len(), threads, |si| {
        prove_shard(&input, si, shards[si].0, shards[si].1)
    });
    // Deterministic merge: shard order, exact stat sums.
    stats.shards_used = shards.len();
    let mut answers: Vec<Row> = Vec::new();
    let mut fresh: Vec<(Vec<u64>, bool)> = Vec::new();
    let mut verdicts: Vec<ShardVerdicts> = Vec::with_capacity(outs.len());
    let mut first_err: Option<EngineError> = None;
    for out in outs {
        match out {
            Err(p) => {
                if first_err.is_none() {
                    first_err = Some(EngineError::worker_panic("prover", p.task, &p.message));
                }
            }
            Ok(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            Ok(Ok(v)) => verdicts.push(v),
        }
    }
    if let Some(e) = first_err {
        if gov.degraded && e.is_governance() {
            return Ok(truncated(stats, &e, gov, t0));
        }
        return Err(e);
    }
    for out in verdicts {
        if out.cancelled {
            stats.cancelled_shards += 1;
        }
        stats.prover = merge(stats.prover, out.stats);
        stats.prover_calls += out.prover_calls;
        stats.prover_cache_hits += out.cache_hits;
        stats.prover_cache_cross_hits += out.cross_hits;
        stats.filtered_consistent += out.filtered_consistent;
        stats.membership_queries += out.membership_queries;
        stats.membership_memo_hits += out.membership_memo_hits;
        stats.index_probes += out.index_probes;
        stats.scan_probes += out.scan_probes;
        for i in out.accepted {
            answers.push(candidates[i as usize].clone());
        }
        fresh.extend(out.fresh);
    }
    // Merge-phase write-back of newly proved signatures (shard
    // order, first writer wins — verdicts for equal signatures are
    // equal anyway). The lock is only held here, never by a shard.
    if let Some(k) = query_key {
        if !fresh.is_empty() {
            let mut cache = verdict_cache.lock().unwrap();
            if cache.by_query.len() >= VERDICT_CACHE_MAX_QUERIES && !cache.by_query.contains_key(&k)
            {
                cache.by_query.clear();
            }
            let entry = cache.by_query.entry(k).or_default();
            let map = Arc::make_mut(entry);
            map.reserve(fresh.len());
            for (sig, verdict) in fresh {
                map.entry(sig).or_insert(verdict);
            }
        }
    }
    stats.t_prover = tp.elapsed();

    answers.sort();
    answers.dedup();
    stats.answers = answers.len();
    if let Some(b) = gov.budget_ref() {
        stats.budget_checks = b.checks();
    }
    stats.t_total = t0.elapsed();
    let completeness = if stats.cancelled_shards > 0 {
        Completeness::TruncatedAt("prover")
    } else {
        Completeness::Complete
    };
    Ok(ConsistentAnswer {
        rows: answers,
        completeness,
        stats,
    })
}

/// Degraded-mode truncation: finalize the stats collected so far and
/// wrap the (empty — nothing proved yet) answer set with the tripped
/// stage. Prover-stage truncation takes the partial path in
/// `answers_pipeline` instead; this is for trips before any candidate
/// was proved.
fn truncated(
    mut stats: AnswerStats,
    e: &EngineError,
    gov: &Governance,
    t0: Instant,
) -> ConsistentAnswer {
    stats.degraded = true;
    if let Some(b) = gov.budget_ref() {
        stats.budget_checks = b.checks();
    }
    stats.t_total = t0.elapsed();
    ConsistentAnswer {
        rows: Vec::new(),
        completeness: Completeness::TruncatedAt(trip_stage(e)),
        stats,
    }
}

/// Read-only state shared by every shard of one answer run. Everything
/// here is `Sync`: the frozen graph, the compiled template, the
/// candidate rows, the prefetched flag matrix (KG mode) *or* the frozen
/// database snapshot (base mode), and the previous calls' verdict map.
struct ShardInput<'a> {
    graph: &'a ConflictHypergraph,
    template: &'a MembershipTemplate,
    candidates: &'a [Row],
    /// KG mode: per-candidate prefetched membership flags.
    flags: Option<&'a [Vec<bool>]>,
    /// Base mode: the snapshot all shards issue membership SQL against.
    snapshot: Option<&'a DbSnapshot>,
    /// Full mode only: the prefetched flags the per-candidate core test
    /// reads; candidates it accepts skip the prover.
    core_flags: Option<&'a [Vec<bool>]>,
    use_cache: bool,
    /// Base mode: let the prepared probes use index access paths.
    index_probes: bool,
    /// Cross-call verdicts proved by earlier runs on this graph.
    persistent: Option<&'a FxHashMap<Vec<u64>, bool>>,
    /// The call's governance (inactive on ungoverned calls: every
    /// check is a no-op and the shard runs the pre-governance path).
    gov: &'a Governance,
}

/// Decide the candidate slice `lo..hi`: dedup (shard-local), run the
/// per-candidate core test (full mode), resolve membership flags
/// (prefetched in KG mode, memoized snapshot SQL in base mode), then
/// decide by signature cache or prover run. Runs on a worker thread;
/// mutates nothing shared.
///
/// Governance: the shard checkpoints at entry (fault-injection point
/// `("prover", si)`) and ticks the budget per candidate. In degraded
/// mode a trip sets [`ShardVerdicts::cancelled`] and returns the
/// accepted-so-far prefix — every accepted candidate was fully proved,
/// so the prefix is sound; in strict mode the trip is returned as an
/// error.
fn prove_shard(
    input: &ShardInput<'_>,
    si: usize,
    lo: usize,
    hi: usize,
) -> Result<ShardVerdicts, EngineError> {
    let mut out = ShardVerdicts::default();
    if let Err(e) = input.gov.checkpoint("prover", si) {
        if input.gov.degraded && e.is_governance() {
            out.cancelled = true;
            return Ok(out);
        }
        return Err(e);
    }
    let mut prover = Prover::new(input.graph, input.template);
    let mut local: FxHashMap<Vec<u64>, bool> = FxHashMap::default();
    let mut sig: Vec<u64> = Vec::new();
    let mut seen: FxHashSet<&Row> =
        FxHashSet::with_capacity_and_hasher(hi - lo, Default::default());
    let mut sql = match input.snapshot {
        Some(s) => Some(
            MemoSqlMembership::new(s, input.template, input.index_probes)?
                .with_budget(input.gov.budget_ref()),
        ),
        None => None,
    };
    let mut flag_buf: Vec<bool> = Vec::new();
    let mut facts: Vec<Option<FactId>> = Vec::new();
    // Cooperative per-candidate checkpoint, flattened by hand: one
    // local increment and a predicted branch per candidate; every
    // CHECK_STRIDE candidates the locally-accumulated row charges are
    // flushed to the shared budget and one full check runs. Charging
    // the shared atomic per candidate would ping-pong the budget's
    // cache line across worker threads (and costs ~10% of this loop
    // even single-threaded).
    let budget = input.gov.budget_ref();
    let mut work = 0u32;
    let mut pending_rows = 0u64;
    for i in lo..hi {
        work = work.wrapping_add(1);
        if work & (crate::budget::CHECK_STRIDE - 1) == 0 {
            if let Some(b) = budget {
                b.charge_rows(std::mem::take(&mut pending_rows));
                if let Err(e) = b.check("prover") {
                    if input.gov.degraded && e.is_governance() {
                        out.cancelled = true;
                        break;
                    }
                    return Err(e);
                }
            }
        }
        let cand = &input.candidates[i];
        if !seen.insert(cand) {
            continue; // duplicate candidate within the shard
        }
        // One hypergraph probe per literal, read by the core test and
        // the signature alike.
        if input.use_cache || input.core_flags.is_some() {
            prover.literal_facts(cand, &mut facts);
        }
        if input
            .core_flags
            .is_some_and(|fl| prover.core_accepts(cand, &fl[i], &facts))
        {
            out.filtered_consistent += 1;
            out.accepted.push(i as u32);
            continue;
        }
        out.prover_calls += 1;
        pending_rows += 1;
        // Membership flags: prefetched (KG) or gathered through the
        // shard's memoized snapshot-SQL probe (base). A governance trip
        // inside the probe (stage "membership") cancels the shard in
        // degraded mode — the candidate was not decided, so it is not
        // counted or accepted.
        let cand_flags: &[bool] = match input.flags {
            Some(fl) => &fl[i],
            None => {
                let gather = input.gov.fault_point("membership", si).and_then(|()| {
                    sql.as_mut()
                        .expect("base mode carries a snapshot")
                        .gather_flags(cand, &mut flag_buf)
                });
                match gather {
                    Ok(()) => &flag_buf,
                    Err(e) if input.gov.degraded && e.is_governance() => {
                        out.prover_calls -= 1;
                        out.cancelled = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let ok = if input.use_cache {
            prover.closure_signature(cand, cand_flags, &facts, &mut sig);
            if let Some(&v) = local.get(&sig) {
                out.cache_hits += 1;
                v
            } else if let Some(&v) = input.persistent.and_then(|p| p.get(&sig)) {
                out.cache_hits += 1;
                out.cross_hits += 1;
                v
            } else {
                let mut membership =
                    GatheredMembership::for_candidate(input.template, cand, cand_flags);
                let v = prover.is_consistent_answer(cand, &mut membership)?;
                let key = std::mem::take(&mut sig);
                out.fresh.push((key.clone(), v));
                local.insert(key, v);
                v
            }
        } else {
            let mut membership =
                GatheredMembership::for_candidate(input.template, cand, cand_flags);
            prover.is_consistent_answer(cand, &mut membership)?
        };
        if ok {
            out.accepted.push(i as u32);
        }
    }
    if let Some(b) = budget {
        b.charge_rows(pending_rows);
    }
    out.stats = prover.stats;
    if let Some(sql) = sql {
        sql.flush_backend_stats();
        out.membership_queries = sql.queries_issued;
        out.membership_memo_hits = sql.memo_hits;
        out.index_probes = sql.index_probes;
        out.scan_probes = sql.scan_probes;
    }
    Ok(out)
}

/// One prover shard's output (merged in shard order).
#[derive(Debug, Default)]
struct ShardVerdicts {
    /// Accepted candidate indices (core-filtered or proved), in
    /// candidate order.
    accepted: Vec<u32>,
    /// Signatures first proved by this shard, in discovery order
    /// (folded into the persistent cache at merge).
    fresh: Vec<(Vec<u64>, bool)>,
    /// The shard prover's counters.
    stats: ProverRunStats,
    /// Candidates reaching the prover stage in this shard.
    prover_calls: usize,
    /// Candidates accepted by the core filter in this shard.
    filtered_consistent: usize,
    /// Entries answered from a signature cache (local or persistent).
    cache_hits: usize,
    /// Subset of `cache_hits` answered from the persistent map.
    cross_hits: usize,
    /// Base mode: probes executed (memo misses).
    membership_queries: usize,
    /// Base mode: probes answered from the shard memo.
    membership_memo_hits: usize,
    /// Base mode: executed probes that ran as `IndexLookup`s.
    index_probes: usize,
    /// Base mode: executed probes that ran as sequential scans.
    scan_probes: usize,
    /// Degraded mode: this shard stopped early on a budget trip; its
    /// accepted list is the sound prefix proved before the trip.
    cancelled: bool,
}

fn merge(a: ProverRunStats, b: ProverRunStats) -> ProverRunStats {
    ProverRunStats {
        tuples_checked: a.tuples_checked + b.tuples_checked,
        membership_checks: a.membership_checks + b.membership_checks,
        disjuncts_checked: a.disjuncts_checked + b.disjuncts_checked,
        edge_visits: a.edge_visits + b.edge_visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_consistent_answers;
    use crate::pred::{CmpOp, Pred};
    use hippo_engine::{Column, DataType, TableSchema, Value};

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

    fn fd() -> Vec<DenialConstraint> {
        vec![DenialConstraint::functional_dependency("emp", &[0], 1)]
    }

    fn queries() -> Vec<SjudQuery> {
        vec![
            SjudQuery::rel("emp"),
            SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 150i64)),
            SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
                1,
                CmpOp::Lt,
                150i64,
            ))),
            SjudQuery::rel("emp")
                .select(Pred::cmp_const(1, CmpOp::Lt, 150i64))
                .union(SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 250i64))),
            SjudQuery::rel("emp").permute(vec![1, 0]),
        ]
    }

    #[test]
    fn all_option_levels_agree_with_ground_truth() {
        let rows = [
            ("ann", 100),
            ("ann", 200),
            ("bob", 300),
            ("cyd", 50),
            ("cyd", 60),
            ("dee", 400),
        ];
        for opts in [
            HippoOptions::base(),
            HippoOptions::kg(),
            HippoOptions::full(),
        ] {
            let db = emp_db(&rows);
            let hippo = Hippo::with_options(db, fd(), opts.clone()).unwrap();
            let truth_graph = hippo.graph();
            for q in queries() {
                let got = hippo.consistent_answers(&q).unwrap();
                let truth = naive_consistent_answers(&q, hippo.db().catalog(), truth_graph);
                assert_eq!(got, truth, "query {q} options {opts:?}");
            }
        }
    }

    #[test]
    fn kg_issues_no_membership_queries_base_does() {
        let rows = [("ann", 100), ("ann", 200), ("bob", 300)];
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        )));

        let hippo = Hippo::with_options(emp_db(&rows), fd(), HippoOptions::base()).unwrap();
        let (_, base_stats) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert!(
            base_stats.membership_queries > 0,
            "base mode pays per-check queries"
        );

        let hippo = Hippo::with_options(emp_db(&rows), fd(), HippoOptions::kg()).unwrap();
        let (_, kg_stats) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(
            kg_stats.membership_queries, 0,
            "KG answers from gathered flags"
        );
        assert!(
            kg_stats.prover.membership_checks > 0,
            "checks still happen, just locally"
        );
    }

    #[test]
    fn base_mode_probes_plan_as_index_lookups() {
        use crate::workload::FdTableSpec;
        let q = SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            500_000i64,
        )));
        let build = |opts: HippoOptions| {
            let spec = FdTableSpec::new("t", 200, 0.1, 11);
            let mut db = Database::new();
            spec.populate(&mut db).unwrap();
            Hippo::with_options(db, vec![spec.fd()], opts).unwrap()
        };
        // The workload's key column is indexed (auto-built on the
        // primary key), so every executed probe is an IndexLookup…
        let hippo = build(HippoOptions::base());
        let (answers, s) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert!(s.membership_queries > 0);
        assert_eq!(s.index_probes, s.membership_queries, "{s}");
        assert_eq!(s.scan_probes, 0, "{s}");
        // …and disabling index probes flips every probe to a scan with
        // answers and all other counters unchanged.
        let hippo = build(HippoOptions::base().without_index_probes());
        let (answers2, s2) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(answers, answers2);
        assert_eq!(s2.scan_probes, s2.membership_queries);
        assert_eq!(s2.index_probes, 0);
        assert_eq!(s.membership_queries, s2.membership_queries);
        assert_eq!(s.membership_memo_hits, s2.membership_memo_hits);
        assert_eq!(s.prover_calls, s2.prover_calls);
        assert_eq!(s.answers, s2.answers);
        // The one-line report carries the access-path split.
        assert!(format!("{s}").contains("index"), "{s}");
    }

    #[test]
    fn core_filter_reduces_prover_calls() {
        // Lots of clean tuples, one conflict.
        let mut rows: Vec<(String, i64)> = (0..50).map(|i| (format!("p{i}"), 100 + i)).collect();
        rows.push(("p0".into(), 999)); // conflict with p0
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
                .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                .collect(),
        )
        .unwrap();
        let q = SjudQuery::rel("emp");

        let h_kg = Hippo::with_options(
            {
                let mut d = Database::new();
                d.catalog_mut()
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
                d.insert_rows(
                    "emp",
                    rows.iter()
                        .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                        .collect(),
                )
                .unwrap();
                d
            },
            fd(),
            HippoOptions::kg(),
        )
        .unwrap();
        let (ans_kg, s_kg) = h_kg.consistent_answers_with_stats(&q).unwrap();

        let h_full = Hippo::with_options(db, fd(), HippoOptions::full()).unwrap();
        let (ans_full, s_full) = h_full.consistent_answers_with_stats(&q).unwrap();

        assert_eq!(ans_kg, ans_full);
        assert!(s_full.prover_calls < s_kg.prover_calls);
        assert_eq!(
            s_full.prover_calls, 2,
            "only the two conflicting tuples reach the prover"
        );
        assert_eq!(s_full.filtered_consistent, 49);
    }

    #[test]
    fn stats_populated() {
        let hippo = Hippo::new(emp_db(&[("ann", 100), ("ann", 200)]), fd()).unwrap();
        let (_, stats) = hippo
            .consistent_answers_with_stats(&SjudQuery::rel("emp"))
            .unwrap();
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.answers, 0);
        assert!(hippo.detect_stats().combinations_checked > 0);
        assert_eq!(hippo.graph().edge_count(), 1);
    }

    #[test]
    fn redetect_after_mutation() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        hippo
            .db_mut()
            .execute("INSERT INTO emp VALUES ('ann', 999)")
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(
            !stats.incremental,
            "unrecorded db_mut changes force a full rebuild"
        );
        assert_eq!(hippo.graph().edge_count(), 1);
        let answers = hippo.consistent_answers(&SjudQuery::rel("emp")).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn incremental_insert_detects_new_conflicts() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        let tids = hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(999)]])
            .unwrap();
        assert_eq!(tids.len(), 1);
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental, "recorded inserts take the delta path");
        assert_eq!(stats.shards_used, 0);
        assert_eq!(hippo.graph().edge_count(), 1);
        let answers = hippo.consistent_answers(&SjudQuery::rel("emp")).unwrap();
        assert_eq!(answers, vec![vec![Value::text("bob"), Value::Int(200)]]);
    }

    #[test]
    fn incremental_delete_clears_conflicts() {
        let mut hippo =
            Hippo::new(emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 1);
        // Delete one side of the conflicting pair (tid 1 = second row).
        let n = hippo
            .delete_tuples("emp", &[hippo_engine::TupleId(1)])
            .unwrap();
        assert_eq!(n, 1);
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
        let answers = hippo.consistent_answers(&SjudQuery::rel("emp")).unwrap();
        assert_eq!(answers.len(), 2, "ann(100) is consistent again");
    }

    #[test]
    fn incremental_matches_full_rebuild_over_mixed_batches() {
        // Interleave inserts and deletes (including insert-then-delete of
        // the same tuple within one batch), redetect incrementally, and
        // compare against a freshly built system on the same final data.
        let rows = [("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 50)];
        let mut hippo = Hippo::new(emp_db(&rows), fd()).unwrap();
        let t = hippo
            .insert_tuples(
                "emp",
                vec![
                    vec![Value::text("bob"), Value::Int(301)],
                    vec![Value::text("dee"), Value::Int(7)],
                    vec![Value::text("cyd"), Value::Int(51)],
                ],
            )
            .unwrap();
        hippo
            .delete_tuples("emp", &[hippo_engine::TupleId(0), t[2]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);

        let reference = Hippo::new(
            {
                let mut db = emp_db(&rows);
                let table = db.catalog_mut().table_mut("emp").unwrap();
                table
                    .insert(vec![Value::text("bob"), Value::Int(301)])
                    .unwrap();
                table
                    .insert(vec![Value::text("dee"), Value::Int(7)])
                    .unwrap();
                let c = table
                    .insert(vec![Value::text("cyd"), Value::Int(51)])
                    .unwrap();
                table.delete(hippo_engine::TupleId(0));
                table.delete(c);
                db
            },
            fd(),
        )
        .unwrap();
        let canon = |h: &Hippo| {
            let g = h.graph();
            let mut edges: Vec<(usize, Vec<crate::hypergraph::Vertex>)> = g
                .edges()
                .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(canon(&hippo), canon(&reference));
        assert_eq!(
            hippo.consistent_answers(&SjudQuery::rel("emp")).unwrap(),
            reference
                .consistent_answers(&SjudQuery::rel("emp"))
                .unwrap()
        );
    }

    #[test]
    fn redetect_without_changes_is_a_noop() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("ann", 200)]), fd()).unwrap();
        let before = hippo.detect_stats();
        let stats = hippo.redetect().unwrap();
        assert_eq!(stats, before, "nothing recorded, nothing re-detected");
        assert_eq!(hippo.graph().edge_count(), 1);
    }

    #[test]
    fn incremental_chains_across_multiple_redetects() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(200)]])
            .unwrap();
        assert!(hippo.redetect().unwrap().incremental);
        assert_eq!(hippo.graph().edge_count(), 1);
        // Second round on top of the incrementally-maintained state.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(300)]])
            .unwrap();
        assert!(hippo.redetect().unwrap().incremental);
        assert_eq!(hippo.graph().edge_count(), 3, "all pairs of the trio");
        // Full rebuild agrees.
        hippo.redetect_full().unwrap();
        assert_eq!(hippo.graph().edge_count(), 3);
    }

    #[test]
    fn foreign_key_redetect_keeps_orphan_edges() {
        let mut db = Database::new();
        db.execute("CREATE TABLE parent (id INT)").unwrap();
        db.execute("CREATE TABLE child (pid INT, x INT)").unwrap();
        db.execute("INSERT INTO parent VALUES (1)").unwrap();
        db.execute("INSERT INTO child VALUES (1, 10), (2, 20)")
            .unwrap();
        let fk = crate::inclusion::ForeignKey {
            child: "child".into(),
            child_cols: vec![0],
            parent: "parent".into(),
            parent_cols: vec![0],
        };
        let mut hippo = Hippo::with_foreign_keys(db, vec![], vec![fk]).unwrap();
        assert_eq!(hippo.graph().edge_count(), 1, "child(2,·) is orphaned");
        // Regression: redetect used to silently drop orphan edges.
        let stats = hippo.redetect_full().unwrap();
        assert!(!stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 1);
        // Recorded changes stay incremental under fks (PR 4): an
        // orphaned insert adds its singleton edge via the orphan-count
        // index, no rebuild.
        hippo
            .insert_tuples("child", vec![vec![Value::Int(3), Value::Int(30)]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental, "fk changes take the delta path now");
        assert_eq!(hippo.graph().edge_count(), 2);
    }

    #[test]
    fn fk_incremental_flips_orphans_in_both_directions() {
        let mut db = Database::new();
        db.execute("CREATE TABLE parent (id INT)").unwrap();
        db.execute("CREATE TABLE child (pid INT, x INT)").unwrap();
        db.execute("INSERT INTO parent VALUES (1)").unwrap();
        db.execute("INSERT INTO child VALUES (1, 10), (2, 20), (2, 21)")
            .unwrap();
        let fk = crate::inclusion::ForeignKey {
            child: "child".into(),
            child_cols: vec![0],
            parent: "parent".into(),
            parent_cols: vec![0],
        };
        let mut hippo = Hippo::with_foreign_keys(db, vec![], vec![fk]).unwrap();
        assert_eq!(
            hippo.graph().edge_count(),
            2,
            "both pid=2 children orphaned"
        );
        // Inserting parent 2 un-orphans both children incrementally.
        let p2 = hippo
            .insert_tuples("parent", vec![vec![Value::Int(2)]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
        // Deleting parent 1 orphans child (1, 10); deleting parent 2
        // re-orphans the pid=2 pair — all via the orphan-count index.
        hippo
            .delete_tuples("parent", &[hippo_engine::TupleId(0), p2[0]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 3, "every child is orphaned");
        // Differential: a forced full rebuild agrees edge-for-edge.
        let canon = |h: &Hippo| {
            let g = h.graph();
            let mut edges: Vec<(usize, Vec<crate::hypergraph::Vertex>)> = g
                .edges()
                .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
                .collect();
            edges.sort();
            edges
        };
        let inc = canon(&hippo);
        hippo.redetect_full().unwrap();
        assert_eq!(inc, canon(&hippo));
        // An in-place child update that dodges the orphan: update pid
        // 2 → re-insert parent 2 first, then move a child onto a
        // missing parent.
        hippo
            .insert_tuples("parent", vec![vec![Value::Int(2)]])
            .unwrap();
        assert!(hippo.redetect().unwrap().incremental);
        hippo
            .update_tuples(
                "child",
                vec![(
                    hippo_engine::TupleId(1),
                    vec![Value::Int(9), Value::Int(20)],
                )],
            )
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        // child(1,10) orphan (parent 1 gone), child(9,20) orphan
        // (parent 9 never existed), child(2,21) matched by parent 2.
        assert_eq!(hippo.graph().edge_count(), 2);
        let inc = canon(&hippo);
        hippo.redetect_full().unwrap();
        assert_eq!(inc, canon(&hippo));
    }

    #[test]
    fn update_tuples_stays_incremental() {
        // Create a conflict by updating, then resolve it by updating back.
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        let n = hippo
            .update_tuples(
                "emp",
                vec![(
                    hippo_engine::TupleId(1),
                    vec![Value::text("ann"), Value::Int(999)],
                )],
            )
            .unwrap();
        assert_eq!(n, 1);
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental, "recorded updates take the delta path");
        assert_eq!(hippo.graph().edge_count(), 1, "ann now disagrees with ann");
        assert!(hippo
            .consistent_answers(&SjudQuery::rel("emp"))
            .unwrap()
            .is_empty());
        // Update the same tuple id again to clear the conflict.
        hippo
            .update_tuples(
                "emp",
                vec![(
                    hippo_engine::TupleId(1),
                    vec![Value::text("bob"), Value::Int(200)],
                )],
            )
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
        assert_eq!(
            hippo
                .consistent_answers(&SjudQuery::rel("emp"))
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn update_tuples_validates_batch_upfront() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        // Second entry targets a missing tuple: whole batch rejected.
        let err = hippo.update_tuples(
            "emp",
            vec![
                (
                    hippo_engine::TupleId(0),
                    vec![Value::text("ann"), Value::Int(7)],
                ),
                (
                    hippo_engine::TupleId(9),
                    vec![Value::text("x"), Value::Int(8)],
                ),
            ],
        );
        assert!(err.is_err());
        assert_eq!(
            hippo
                .db()
                .catalog()
                .table("emp")
                .unwrap()
                .get(hippo_engine::TupleId(0)),
            Some(&vec![Value::text("ann"), Value::Int(100)]),
            "failed batch leaves the database untouched"
        );
        // Nothing was recorded, so redetect is a no-op on the old stats.
        assert!(!hippo.redetect().unwrap().incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
    }

    #[test]
    fn general_denial_delta_is_seeded_not_outer_scanned() {
        // Exclusion between emp and contractor; the delta lands in the
        // *second* atom, which used to force an O(outer) rescan of emp.
        let mut db = emp_db(&[("ann", 100), ("bob", 200), ("cyd", 300), ("dee", 400)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "contractor",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("rate", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        let constraints = vec![DenialConstraint::exclusion("emp", "contractor", &[(0, 0)])];
        let mut hippo = Hippo::new(db, constraints.clone()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        hippo
            .insert_tuples("contractor", vec![vec![Value::text("bob"), Value::Int(50)]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 1, "bob is in both relations");
        // Seeded delta: the new tuple plus its single join match — not
        // the 4-row emp outer atom.
        assert!(
            stats.combinations_checked <= 2,
            "delta join must not rescan the outer atom (checked {})",
            stats.combinations_checked
        );
        // Deleting the tuple clears the conflict incrementally too.
        let last = hippo
            .db()
            .catalog()
            .table("contractor")
            .unwrap()
            .slot_count()
            - 1;
        hippo
            .delete_tuples("contractor", &[hippo_engine::TupleId(last as u32)])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
    }

    #[test]
    fn prover_thread_count_never_changes_answers_or_stats() {
        let mut rows: Vec<(String, i64)> = (0..60).map(|i| (format!("p{i}"), 100 + i)).collect();
        for c in 0..12 {
            rows.push((format!("p{c}"), 5000 + c)); // conflicting duplicates
        }
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            5000i64,
        )));
        let build = |threads: usize| {
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
                    .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                    .collect(),
            )
            .unwrap();
            Hippo::with_options(db, fd(), HippoOptions::kg().with_prover_threads(threads)).unwrap()
        };
        let (ans1, s1) = build(1).consistent_answers_with_stats(&q).unwrap();
        assert!(s1.prover_calls > 0);
        for threads in [2usize, 4, 8] {
            let (ans, s) = build(threads).consistent_answers_with_stats(&q).unwrap();
            assert_eq!(ans, ans1, "threads={threads}");
            assert_eq!(s.prover_calls, s1.prover_calls);
            assert_eq!(s.prover_cache_hits, s1.prover_cache_hits);
            assert_eq!(s.filtered_consistent, s1.filtered_consistent);
            assert_eq!(s.prover, s1.prover, "prover counters at threads={threads}");
            assert_eq!(s.answers, s1.answers);
        }
    }

    #[test]
    fn columnar_toggle_never_changes_answers_or_stats() {
        // The vectorized engine claims bit-identical behaviour: same
        // answers and the same AnswerStats counters (only wall-clock
        // may differ) in base and KG mode, serial and sharded alike.
        let mut rows: Vec<(String, i64)> = (0..50).map(|i| (format!("p{i}"), 100 + i)).collect();
        for c in 0..10 {
            rows.push((format!("p{c}"), 5000 + c)); // conflicting duplicates
        }
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            5000i64,
        )));
        let build = |opts: HippoOptions| {
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
                    .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                    .collect(),
            )
            .unwrap();
            Hippo::with_options(db, fd(), opts).unwrap()
        };
        // Every counter except the timings must match exactly.
        let counters = |mut s: AnswerStats| {
            s.t_envelope = Duration::ZERO;
            s.t_filter = Duration::ZERO;
            s.t_prover = Duration::ZERO;
            s.t_total = Duration::ZERO;
            format!("{s:?}")
        };
        for threads in [1usize, 4] {
            for opts in [HippoOptions::base(), HippoOptions::kg()] {
                let label = format!("threads={threads} options={opts:?}");
                let run = |columnar: bool| {
                    hippo_engine::set_columnar_override(Some(columnar));
                    let out = build(opts.clone().with_prover_threads(threads))
                        .consistent_answers_with_stats(&q)
                        .unwrap();
                    hippo_engine::set_columnar_override(None);
                    out
                };
                let (ans_on, s_on) = run(true);
                let (ans_off, s_off) = run(false);
                assert!(s_on.candidates > 0, "{label}");
                assert_eq!(ans_on, ans_off, "answers diverged: {label}");
                assert_eq!(counters(s_on), counters(s_off), "stats diverged: {label}");
            }
        }
    }

    #[test]
    fn closure_cache_collapses_equivalence_classes() {
        // Many conflict-free tuples share one signature class; only the
        // conflicting pair needs real prover runs.
        let mut rows: Vec<(&str, i64)> = vec![("ann", 1), ("ann", 2)];
        let names: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
        for n in &names {
            rows.push((n.as_str(), 500));
        }
        let db = emp_db(&rows);
        let q = SjudQuery::rel("emp");
        let hippo = Hippo::with_options(db, fd(), HippoOptions::kg()).unwrap();
        let (answers, stats) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(answers.len(), 40);
        assert_eq!(stats.prover_calls, 42, "no core filter: everything proved");
        // The cache is per shard (16 shards here), so each shard pays at
        // most one miss per signature class it sees: ≥ 42 − 16 − 2 hits.
        assert!(
            stats.prover_cache_hits >= 24,
            "conflict-free candidates collapse (hits = {})",
            stats.prover_cache_hits
        );
        assert!(stats.prover.tuples_checked < stats.prover_calls);

        // Differential: disabling the cache changes no answer.
        let db2 = emp_db(&rows);
        let hippo2 =
            Hippo::with_options(db2, fd(), HippoOptions::kg().without_prover_cache()).unwrap();
        let (answers2, stats2) = hippo2.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(answers, answers2);
        assert_eq!(stats2.prover_cache_hits, 0);
        assert_eq!(stats2.prover.tuples_checked, stats2.prover_calls);
    }

    #[test]
    fn verdict_cache_persists_across_calls_and_invalidates_on_redetect() {
        let mut rows: Vec<(&str, i64)> = vec![("ann", 1), ("ann", 2)];
        let names: Vec<String> = (0..30).map(|i| format!("p{i}")).collect();
        for n in &names {
            rows.push((n.as_str(), 500));
        }
        let q = SjudQuery::rel("emp");
        let mut hippo = Hippo::with_options(emp_db(&rows), fd(), HippoOptions::kg()).unwrap();
        let (ans1, s1) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(s1.prover_cache_cross_hits, 0, "first call has no history");
        assert!(s1.prover.tuples_checked > 0);
        // Second identical call: every signature class was proved by the
        // first call, so no prover runs at all — all hits are cross-call.
        let (ans2, s2) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(ans2, ans1);
        assert_eq!(s2.prover.tuples_checked, 0, "everything served from cache");
        assert_eq!(s2.prover_cache_cross_hits, s2.prover_cache_hits);
        assert_eq!(s2.prover_cache_hits, s2.prover_calls);
        // Replacing the graph drops the cross-call verdicts.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("zzz"), Value::Int(7)]])
            .unwrap();
        hippo.redetect().unwrap();
        let (_, s3) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(s3.prover_cache_cross_hits, 0, "cache cleared on redetect");
        assert!(s3.prover.tuples_checked > 0);
    }

    #[test]
    fn base_mode_shards_report_and_memoize_membership() {
        // Product query: candidates are pairs, so many candidates in one
        // shard share each side's literal projection — the shard's SQL
        // memo must absorb the repeats.
        let mut rows: Vec<(String, i64)> = (0..10).map(|i| (format!("p{i}"), 100)).collect();
        rows.push(("p0".into(), 999)); // one conflict
        let rows: Vec<(&str, i64)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let q = SjudQuery::rel("emp").product(SjudQuery::rel("emp"));
        let hippo = Hippo::with_options(emp_db(&rows), fd(), HippoOptions::base()).unwrap();
        let (answers, stats) = hippo.consistent_answers_with_stats(&q).unwrap();
        assert_eq!(answers.len(), 9 * 9, "pairs of the 9 conflict-free rows");
        assert!(stats.shards_used > 1, "base mode shards now");
        assert!(stats.membership_queries > 0, "base mode still pays SQL");
        assert!(
            stats.membership_memo_hits > 0,
            "repeated projections answered from the shard memo"
        );
        // The Display impl reports shards for base mode.
        let line = stats.to_string();
        assert!(line.contains("shards="), "{line}");
        assert!(line.contains("membership_queries="), "{line}");
    }

    #[test]
    fn consistent_database_passes_everything_through() {
        let hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        let (answers, stats) = hippo
            .consistent_answers_with_stats(&SjudQuery::rel("emp"))
            .unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.answers, 2);
        assert_eq!(stats.prover_calls, 0, "core filter accepts everything");
    }

    #[test]
    fn frozen_view_matches_live_in_every_mode() {
        let rows = [
            ("ann", 100),
            ("ann", 200),
            ("bob", 300),
            ("cyd", 50),
            ("cyd", 60),
        ];
        for opts in [
            HippoOptions::base(),
            HippoOptions::kg(),
            HippoOptions::full(),
        ] {
            let hippo = Hippo::with_options(emp_db(&rows), fd(), opts.clone()).unwrap();
            let frozen = hippo.freeze().unwrap();
            for q in queries() {
                let live = hippo.consistent_answers_governed(&q).unwrap();
                let cold = frozen.consistent_answers_governed(&q).unwrap();
                assert_eq!(live.rows, cold.rows, "query {q} options {opts:?}");
                assert_eq!(live.stats.candidates, cold.stats.candidates);
                assert_eq!(live.stats.answers, cold.stats.answers);
                // Plain SQL flows through the snapshot too.
                let via_sql = frozen.snapshot().query("SELECT * FROM emp").unwrap();
                assert_eq!(via_sql.rows.len(), rows.len());
            }
        }
    }

    #[test]
    fn frozen_view_survives_live_mutation_and_redetect() {
        let mut hippo =
            Hippo::new(emp_db(&[("ann", 100), ("ann", 200), ("bob", 1)]), fd()).unwrap();
        let q = SjudQuery::rel("emp");
        let frozen = hippo.freeze().unwrap();
        let before = frozen.consistent_answers(&q).unwrap();
        assert_eq!(before, vec![vec![Value::text("bob"), Value::Int(1)]]);
        // Mutate and reconcile the live system: bob becomes conflicted.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("bob"), Value::Int(999)]])
            .unwrap();
        hippo.redetect().unwrap();
        assert!(hippo.consistent_answers(&q).unwrap().is_empty());
        // The frozen view still answers from its captured state: old
        // data, old graph, old verdict cache.
        assert_eq!(frozen.consistent_answers(&q).unwrap(), before);
        assert_eq!(frozen.graph().edge_count(), 1, "pre-mutation graph");
        assert_eq!(hippo.graph().edge_count(), 2);
    }

    #[test]
    fn freeze_refuses_unreconciled_changes() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(2)]])
            .unwrap();
        let err = hippo.freeze().unwrap_err();
        assert!(err.to_string().contains("call redetect() first"), "{err}");
        hippo.redetect().unwrap();
        hippo.freeze().unwrap();
        // Unrecorded mutation (catalog dirty) refuses as well.
        hippo.db_mut();
        assert!(hippo.freeze().is_err());
        hippo.redetect().unwrap();
        hippo.freeze().unwrap();
    }

    #[test]
    fn answering_refuses_a_stale_conflict_graph() {
        // Recorded but unreconciled changes: answering from the old graph
        // would pass both conflicting `ann` rows as consistent.
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 300)]), fd()).unwrap();
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(200)]])
            .unwrap();
        let q = SjudQuery::rel("emp");
        let err = hippo.consistent_answers(&q).unwrap_err();
        assert!(err.to_string().contains("call redetect() first"), "{err}");
        hippo.redetect().unwrap();
        assert_eq!(
            hippo.consistent_answers(&q).unwrap(),
            vec![vec![Value::text("bob"), Value::Int(300)]]
        );
    }

    #[test]
    fn frozen_view_answers_concurrently_across_threads() {
        let mut rows: Vec<(String, i64)> = (0..64).map(|i| (format!("p{i}"), 100 + i)).collect();
        rows.push(("p0".into(), 999));
        let rows: Vec<(&str, i64)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let hippo = Hippo::new(emp_db(&rows), fd()).unwrap();
        let frozen = hippo.freeze().unwrap();
        let expected = frozen.consistent_answers(&SjudQuery::rel("emp")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let view = frozen.clone();
                let expected = &expected;
                s.spawn(move || {
                    for q in queries() {
                        let _ = view.consistent_answers(&q).unwrap();
                    }
                    let got = view.consistent_answers(&SjudQuery::rel("emp")).unwrap();
                    assert_eq!(&got, expected);
                });
            }
        });
    }

    #[test]
    fn incremental_redetect_contains_injected_panic() {
        use crate::budget::{FaultKind, FaultPlan};
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        hippo.options =
            HippoOptions::full().with_faults(FaultPlan::new("detect", Some(0), FaultKind::Panic));
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(999)]])
            .unwrap();
        // The injected panic fires on the incremental path and is
        // contained as a structured error; nothing was published.
        let err = hippo.redetect().unwrap_err();
        assert!(err.is_worker_panic(), "{err}");
        assert_eq!(hippo.graph().edge_count(), 0, "old graph still in place");
        // The plan is spent and the dirty flag forces a full rebuild:
        // the same instance recovers on the next call.
        let stats = hippo.redetect().unwrap();
        assert!(!stats.incremental, "poisoned state takes the full path");
        assert_eq!(hippo.graph().edge_count(), 1);
        let answers = hippo.consistent_answers(&SjudQuery::rel("emp")).unwrap();
        assert_eq!(answers, vec![vec![Value::text("bob"), Value::Int(200)]]);
    }

    #[test]
    fn incremental_redetect_budget_trip_is_structured_and_recoverable() {
        use crate::budget::{FaultKind, FaultPlan};
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        hippo.options =
            HippoOptions::full().with_faults(FaultPlan::new("detect", None, FaultKind::BudgetTrip));
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(2)]])
            .unwrap();
        let err = hippo.redetect().unwrap_err();
        assert!(err.is_budget(), "{err}");
        assert!(hippo.freeze().is_err(), "failed reconciliation is dirty");
        let stats = hippo.redetect().unwrap();
        assert!(!stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 1);
        hippo.freeze().unwrap();
    }
}
