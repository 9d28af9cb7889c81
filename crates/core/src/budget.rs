//! Resource governance and deterministic fault injection for the
//! answer pipeline.
//!
//! The engine crate owns the raw mechanism ([`Budget`], [`CancelHandle`]
//! — re-exported here); this module owns the **policy**: how one
//! `consistent_answers` call bundles its budget with an optional
//! [`FaultPlan`] into a [`Governance`] handle, how the pipeline's stages
//! consult it, and what a budget trip produces — a structured
//! `EngineError` in strict mode, or a sound-but-partial
//! [`ConsistentAnswer`] carrying a [`Completeness`] marker in degraded
//! mode.
//!
//! # Fault-point catalog
//!
//! Checkpoints are identified by stage name. This table is the one
//! authoritative list, across every layer of the system:
//!
//! | stage             | layer       | where it is checked                                      |
//! |-------------------|-------------|----------------------------------------------------------|
//! | `detect`          | CQA pipeline| conflict-detection shard loops (`detect.rs`)             |
//! | `envelope`        | CQA pipeline| the candidate query's executor loops (engine `exec.rs`)  |
//! | `corefilter`      | CQA pipeline| once before the prover shards, full mode (`hippo.rs`)    |
//! | `membership`      | CQA pipeline| base-mode membership probing (`kg.rs`)                   |
//! | `prover`          | CQA pipeline| the per-candidate prover shard loops (`hippo.rs`)        |
//! | `wal:append`      | durability  | before WAL bytes are written (`server/wal.rs`)           |
//! | `wal:fsync`       | durability  | between WAL write and fsync (`server/wal.rs`)            |
//! | `checkpoint:write`| durability  | before the checkpoint tmp file lands (`server/checkpoint.rs`) |
//! | `checkpoint:swap` | durability  | between tmp fsync and the atomic rename (`server/checkpoint.rs`) |
//! | `repl:drop`       | replication | per frame, on the transport send path (`server/transport.rs`) |
//! | `repl:corrupt`    | replication | per frame, after `repl:drop`                             |
//! | `repl:delay`      | replication | per frame, after `repl:corrupt`                          |
//! | `repl:disconnect` | replication | per frame, after `repl:delay`                            |
//!
//! Detection trips are **always strict errors**: an incomplete conflict
//! hypergraph would make the prover unsound, so there is no partial
//! result to degrade to. Every later pipeline stage can degrade —
//! whatever was fully proved before the trip is consistent in its own
//! right (answer-set monotonicity over candidate prefixes), so the
//! degraded answer set is always a subset of the complete one.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] deterministically forces a panic, an injected delay,
//! a budget trip, a short write, or a transport fault at
//! `(stage, shard)` checkpoints. Each armed fault fires **at most
//! once** (an atomic latch), so a test can inject a panic, observe the
//! structured failure, and immediately re-run the same call to verify
//! the system stayed usable. Plans come from the `HIPPO_FAULT`
//! environment variable — a comma-separated list of `stage:shard:kind`
//! arms (shard `*` = any shard; kind `panic`, `trip`, `delay<ms>`,
//! `shortwrite`, `drop`, `corrupt`, or `disconnect`), e.g.
//! `HIPPO_FAULT=wal:0:panic,detect:0:trip` — via [`FaultPlan::from_env`],
//! or programmatically via [`FaultPlan::new`] / [`FaultPlan::parse`] —
//! tests prefer the API because environment mutation is racy under a
//! multi-threaded test harness. The plan is only ever consulted through
//! a [`Governance`] the caller opted into; an exported `HIPPO_FAULT`
//! does not affect `Hippo` instances that did not ask for it.
//!
//! A fault armed at stage `wal` also fires at the sub-stage checkpoints
//! `wal:append` and `wal:fsync` (segment-prefix matching), so one spec
//! can cover a whole subsystem while `wal:fsync:0:panic` pins a single
//! checkpoint; likewise `repl:*:drop` covers every transport
//! checkpoint. [`FaultKind::ShortWrite`] is implemented by the
//! file-writing stages themselves (they truncate the write and fail),
//! and the transport kinds ([`FaultKind::Drop`], [`FaultKind::Corrupt`],
//! [`FaultKind::Disconnect`]) by the frame-sending stages; at stages
//! that cannot honor them they degrade to a loud injected error.

use hippo_engine::EngineError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use hippo_engine::{Budget, CancelHandle, ErrorKind, CHECK_STRIDE};

/// How complete a [`ConsistentAnswer`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// Every candidate was decided: the full consistent answer set.
    Complete,
    /// The budget ran out (or the call was cancelled) at the named
    /// stage: the rows are a **sound subset** of the complete answer
    /// set — everything present was fully proved — but candidates left
    /// undecided at the cut may be missing.
    TruncatedAt(&'static str),
}

impl Completeness {
    /// Is this the complete answer set?
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// A consistent-answer result that knows how complete it is: the rows,
/// a [`Completeness`] marker, and the run's exact statistics (including
/// the governance counters `budget_checks` / `cancelled_shards`).
#[derive(Debug, Clone)]
pub struct ConsistentAnswer {
    /// Sorted, deduplicated answer rows. With
    /// [`Completeness::TruncatedAt`], a sound subset of the complete
    /// answer set.
    pub rows: Vec<hippo_engine::Row>,
    /// Whether every candidate was decided.
    pub completeness: Completeness,
    /// Run statistics.
    pub stats: crate::hippo::AnswerStats,
}

/// What an injected fault does when its checkpoint is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on the worker that hits the checkpoint (exercises panic
    /// containment: other shards drain, the call fails structurally,
    /// the system stays usable).
    Panic,
    /// Sleep for the given duration (exercises deadline trips at a
    /// chosen point instead of wherever the clock happens to land).
    Delay(Duration),
    /// Force the call's budget to report exhaustion (exercises the
    /// strict/degraded trip paths without any timing dependence).
    BudgetTrip,
    /// At a file-writing checkpoint (`wal:append`, `checkpoint:write`):
    /// write only a prefix of the intended bytes, then fail — the torn
    /// frame a power loss mid-`write(2)` leaves behind. Stages that do
    /// not write files turn this into a loud injected error.
    ShortWrite,
    /// At a frame-sending checkpoint (`repl:*`): silently discard the
    /// frame — the sender believes it was delivered. Exercises gap
    /// detection and resync on the receiver.
    Drop,
    /// At a frame-sending checkpoint: flip a payload byte *after* the
    /// CRC was computed, so the receiver's checksum rejects the frame.
    /// Exercises the corrupt-frame skip-and-resync path.
    Corrupt,
    /// At a frame-sending checkpoint: sever the connection after this
    /// frame fails to send. Exercises reconnect/re-attach handling.
    Disconnect,
}

/// One armed fault: a [`FaultKind`] at one `(stage, shard)` checkpoint,
/// with its own fire-at-most-once latch.
#[derive(Debug)]
struct FaultArm {
    stage: String,
    /// `None` = any shard (the first checkpoint reached fires).
    shard: Option<usize>,
    kind: FaultKind,
    fired: AtomicBool,
}

impl FaultArm {
    /// Does this arm cover checkpoint `point`? Exact match, or a
    /// segment prefix: an arm at `wal` covers `wal:append` and
    /// `wal:fsync` (but `wa` covers neither).
    fn covers(&self, point: &str) -> bool {
        point == self.stage
            || (point.len() > self.stage.len()
                && point.starts_with(self.stage.as_str())
                && point.as_bytes()[self.stage.len()] == b':')
    }

    fn try_fire(&self, stage: &str, shard: usize) -> Option<FaultKind> {
        if !self.covers(stage) || self.shard.is_some_and(|s| s != shard) {
            return None;
        }
        if self.fired.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(self.kind)
    }
}

/// A deterministic fault plan: one or more [`FaultArm`]s, each firing at
/// most once. Built from a comma-separated `stage:shard:kind` list so
/// crash-matrix tests can compose faults
/// (`HIPPO_FAULT=wal:0:panic,detect:0:trip`).
#[derive(Debug)]
pub struct FaultPlan {
    arms: Vec<FaultArm>,
}

impl FaultPlan {
    /// Arm a single fault at `(stage, shard)`; `shard = None` matches
    /// any shard.
    pub fn new(stage: impl Into<String>, shard: Option<usize>, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            arms: vec![FaultArm {
                stage: stage.into(),
                shard,
                kind,
                fired: AtomicBool::new(false),
            }],
        }
    }

    /// Parse a comma-separated list of `stage:shard:kind` arms (shard
    /// `*` = any; kind `panic`, `trip`, `delay<ms>`, or `shortwrite`).
    /// Stage names may themselves contain colons (`wal:fsync:0:panic`
    /// pins the fsync checkpoint) — the *last two* segments are always
    /// shard and kind. The error names what is wrong with the spec — a
    /// chaos run configured with a typo must fail loudly, not silently
    /// run without its injection.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut arms = Vec::new();
        for arm_spec in spec.split(',') {
            arms.push(Self::parse_arm(arm_spec.trim(), spec)?);
        }
        Ok(FaultPlan { arms })
    }

    fn parse_arm(arm: &str, spec: &str) -> Result<FaultArm, String> {
        // Right-to-left: kind and shard are the last two segments; the
        // rest (which may contain ':') is the stage.
        let mut parts = arm.rsplitn(3, ':');
        let (Some(kind), Some(shard), Some(stage)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "expected stage:shard:kind (e.g. prover:7:panic), got {arm:?} in {spec:?}"
            ));
        };
        let (stage, shard, kind) = (stage.trim(), shard.trim(), kind.trim());
        if stage.is_empty() {
            return Err(format!("empty stage in {spec:?}"));
        }
        let shard =
            if shard == "*" {
                None
            } else {
                Some(shard.parse::<usize>().map_err(|_| {
                    format!("shard must be a number or '*', got {shard:?} in {spec:?}")
                })?)
            };
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "trip" => FaultKind::BudgetTrip,
            "shortwrite" => FaultKind::ShortWrite,
            "drop" => FaultKind::Drop,
            "corrupt" => FaultKind::Corrupt,
            "disconnect" => FaultKind::Disconnect,
            k => match k.strip_prefix("delay") {
                Some(ms) => {
                    let ms = ms.parse::<u64>().map_err(|_| {
                        format!("delay takes milliseconds (e.g. delay25), got {k:?} in {spec:?}")
                    })?;
                    FaultKind::Delay(Duration::from_millis(ms))
                }
                None => {
                    return Err(format!(
                        "unknown fault kind {k:?} in {spec:?} (expected panic, trip, \
                         delay<ms>, shortwrite, drop, corrupt, or disconnect)"
                    ));
                }
            },
        };
        Ok(FaultArm {
            stage: stage.into(),
            shard,
            kind,
            fired: AtomicBool::new(false),
        })
    }

    /// Read a plan from the `HIPPO_FAULT` environment variable. Unset
    /// (or set to whitespace) means no plan; a malformed value is an
    /// error naming the problem. Only callers that thread the result
    /// into their options are affected — the variable is never
    /// consulted implicitly.
    pub fn try_from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("HIPPO_FAULT") {
            Err(_) => Ok(None),
            Ok(s) if s.trim().is_empty() => Ok(None),
            Ok(s) => FaultPlan::parse(&s)
                .map(Some)
                .map_err(|e| format!("HIPPO_FAULT: {e}")),
        }
    }

    /// [`FaultPlan::try_from_env`], panicking on a malformed value.
    /// This is the startup hook for chaos legs: a typo like
    /// `prover:7:panik` must abort the run loudly instead of silently
    /// disabling the injection the run exists to exercise.
    pub fn from_env() -> Option<FaultPlan> {
        match FaultPlan::try_from_env() {
            Ok(plan) => plan,
            Err(e) => panic!("{e} — fix or unset HIPPO_FAULT"),
        }
    }

    /// Has any arm fired already? (Each arm fires at most once.)
    pub fn has_fired(&self) -> bool {
        self.arms.iter().any(|a| a.fired.load(Ordering::Relaxed))
    }

    /// Have all arms fired? (A crash-matrix run is done once every
    /// composed fault has been exercised.)
    pub fn all_fired(&self) -> bool {
        self.arms.iter().all(|a| a.fired.load(Ordering::Relaxed))
    }

    /// Consume the first matching unfired arm for `(stage, shard)`.
    fn try_fire(&self, stage: &str, shard: usize) -> Option<FaultKind> {
        self.arms.iter().find_map(|a| a.try_fire(stage, shard))
    }
}

/// The per-call governance bundle every pipeline stage consults: an
/// optional shared [`Budget`], an optional [`FaultPlan`], and the
/// strict/degraded policy switch. `Governance::default()` is the
/// zero-cost ungoverned call — every checkpoint is a single
/// `Option::None` branch.
#[derive(Debug, Clone, Default)]
pub struct Governance {
    /// The call's budget (deadline / row limit / cancellation), if any.
    pub budget: Option<Arc<Budget>>,
    /// Armed fault, if any (tests, CI smoke legs).
    pub faults: Option<Arc<FaultPlan>>,
    /// Degraded mode: absorb budget/cancellation trips after detection
    /// into a truncated [`ConsistentAnswer`] instead of erroring.
    pub degraded: bool,
}

impl Governance {
    /// Is any governance (budget or fault plan) attached at all?
    pub fn active(&self) -> bool {
        self.budget.is_some() || self.faults.is_some()
    }

    /// Borrow the budget for engine entry points that take
    /// `Option<&Budget>`.
    pub fn budget_ref(&self) -> Option<&Budget> {
        self.budget.as_deref()
    }

    /// Fire the armed fault if this `(stage, shard)` checkpoint matches:
    /// panic, sleep, or budget-trip error. A [`FaultKind::ShortWrite`]
    /// reaching this generic checkpoint (instead of a file-writing stage
    /// that consumes it via [`Governance::take_fault`]) is a loud error
    /// — the stage has no bytes to tear.
    pub fn fault_point(&self, stage: &'static str, shard: usize) -> Result<(), EngineError> {
        if let Some(plan) = &self.faults {
            if let Some(kind) = plan.try_fire(stage, shard) {
                match kind {
                    FaultKind::Panic => panic!("injected fault: panic at {stage}:{shard}"),
                    FaultKind::Delay(d) => std::thread::sleep(d),
                    FaultKind::BudgetTrip => {
                        if let Some(b) = &self.budget {
                            b.force_trip();
                        }
                        return Err(EngineError::budget(stage, 0, 0));
                    }
                    FaultKind::ShortWrite => {
                        return Err(EngineError::new(format!(
                            "injected fault: short write at {stage}:{shard} \
                             (stage writes no file; arm shortwrite at a wal/checkpoint stage)"
                        )));
                    }
                    FaultKind::Drop | FaultKind::Corrupt | FaultKind::Disconnect => {
                        return Err(EngineError::new(format!(
                            "injected fault: {kind:?} at {stage}:{shard} \
                             (stage sends no frames; arm it at a repl stage)"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Consume the armed fault for `(stage, shard)` and hand back its
    /// raw [`FaultKind`] without acting on it. File-writing stages use
    /// this so they can implement [`FaultKind::ShortWrite`] themselves
    /// (truncate the write, then fail) and panic *inside* their own
    /// unwind boundary.
    pub fn take_fault(&self, stage: &str, shard: usize) -> Option<FaultKind> {
        self.faults.as_ref().and_then(|p| p.try_fire(stage, shard))
    }

    /// One full budget check (no-op without a budget).
    pub fn check(&self, stage: &'static str) -> Result<(), EngineError> {
        match &self.budget {
            Some(b) => b.check(stage),
            None => Ok(()),
        }
    }

    /// Strided budget check for hot loops (no-op without a budget).
    #[inline]
    pub fn tick(&self, counter: &mut u32, stage: &'static str) -> Result<(), EngineError> {
        match &self.budget {
            Some(b) => b.tick(counter, stage),
            None => Ok(()),
        }
    }

    /// Fault point plus full budget check — the standard shard-entry
    /// checkpoint.
    pub fn checkpoint(&self, stage: &'static str, shard: usize) -> Result<(), EngineError> {
        self.fault_point(stage, shard)?;
        self.check(stage)
    }
}

/// The stage a governance error tripped at (from its [`ErrorKind`]);
/// `"unknown"` for non-governance errors.
pub fn trip_stage(e: &EngineError) -> &'static str {
    match e.kind {
        ErrorKind::Budget { stage, .. } | ErrorKind::Cancelled { stage } => stage,
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specs() {
        let p = FaultPlan::parse("prover:7:panic").unwrap();
        let a = &p.arms[0];
        assert_eq!(
            (a.stage.as_str(), a.shard, a.kind),
            ("prover", Some(7), FaultKind::Panic)
        );
        let p = FaultPlan::parse("detect:*:trip").unwrap();
        assert_eq!(
            (p.arms[0].shard, p.arms[0].kind),
            (None, FaultKind::BudgetTrip)
        );
        let p = FaultPlan::parse("membership:0:delay25").unwrap();
        assert_eq!(p.arms[0].kind, FaultKind::Delay(Duration::from_millis(25)));
        let p = FaultPlan::parse("wal:append:0:shortwrite").unwrap();
        let a = &p.arms[0];
        assert_eq!(
            (a.stage.as_str(), a.shard, a.kind),
            ("wal:append", Some(0), FaultKind::ShortWrite),
            "colon-ed stage names parse right-to-left"
        );
    }

    #[test]
    fn parse_composes_comma_separated_arms() {
        let p = FaultPlan::parse("wal:0:panic,detect:0:trip").unwrap();
        assert_eq!(p.arms.len(), 2);
        assert_eq!(p.try_fire("detect", 0), Some(FaultKind::BudgetTrip));
        assert!(p.has_fired() && !p.all_fired());
        // `wal` covers the `wal:append` sub-stage via segment prefix.
        assert_eq!(p.try_fire("wal:append", 0), Some(FaultKind::Panic));
        assert!(p.all_fired());
        assert!(p.try_fire("wal:fsync", 0).is_none(), "arms are one-shot");
    }

    #[test]
    fn stage_prefix_matches_whole_segments_only() {
        let p = FaultPlan::parse("wal:0:panic").unwrap();
        assert!(p.arms[0].covers("wal"));
        assert!(p.arms[0].covers("wal:fsync"));
        assert!(!p.arms[0].covers("walrus"), "not a segment boundary");
        let pinned = FaultPlan::parse("wal:fsync:0:panic").unwrap();
        assert!(!pinned.arms[0].covers("wal:append"));
        assert!(pinned.arms[0].covers("wal:fsync"));
    }

    #[test]
    fn malformed_specs_error_and_name_the_problem() {
        for (bad, names) in [
            ("", "stage:shard:kind"),
            ("prover", "stage:shard:kind"),
            ("prover:7", "stage:shard:kind"),
            ("prover:x:panic", "shard must be a number"),
            ("prover:7:boom", "unknown fault kind"),
            ("prover:7:panik", "unknown fault kind"),
            ("prover:7:delayxx", "delay takes milliseconds"),
            (":0:panic", "empty stage"),
            ("prover:7:panic,", "stage:shard:kind"),
            ("prover:7:panic,detect:0:zap", "unknown fault kind"),
            ("wal:0:panic,,detect:0:trip", "stage:shard:kind"),
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains(names), "{bad:?}: {err}");
            assert!(err.contains(bad), "error quotes the spec: {err}");
        }
    }

    #[test]
    fn transport_kinds_parse_and_cover_repl_checkpoints() {
        let p =
            FaultPlan::parse("repl:drop:*:drop,repl:corrupt:0:corrupt,repl:*:disconnect").unwrap();
        assert_eq!(p.try_fire("repl:drop", 3), Some(FaultKind::Drop));
        assert_eq!(p.try_fire("repl:corrupt", 0), Some(FaultKind::Corrupt));
        // The loose `repl` arm covers every transport sub-checkpoint.
        assert_eq!(p.try_fire("repl:delay", 1), Some(FaultKind::Disconnect));
        assert!(p.all_fired());
        // At a stage that sends no frames, transport kinds fail loudly.
        let gov = Governance {
            budget: None,
            faults: Some(Arc::new(FaultPlan::new("prover", None, FaultKind::Drop))),
            degraded: false,
        };
        let err = gov.fault_point("prover", 0).unwrap_err();
        assert!(err.message.contains("sends no frames"), "{err}");
    }

    #[test]
    fn shortwrite_at_fileless_stage_is_loud_error() {
        let gov = Governance {
            budget: None,
            faults: Some(Arc::new(FaultPlan::new(
                "prover",
                None,
                FaultKind::ShortWrite,
            ))),
            degraded: false,
        };
        let err = gov.fault_point("prover", 0).unwrap_err();
        assert!(err.message.contains("short write"), "{err}");
        // take_fault hands the raw kind to stages that implement it.
        let gov = Governance {
            budget: None,
            faults: Some(Arc::new(FaultPlan::new(
                "wal:append",
                Some(0),
                FaultKind::ShortWrite,
            ))),
            degraded: false,
        };
        assert_eq!(gov.take_fault("wal:append", 0), Some(FaultKind::ShortWrite));
        assert_eq!(gov.take_fault("wal:append", 0), None, "one-shot");
    }

    #[test]
    fn faults_fire_at_most_once_and_only_where_armed() {
        let p = FaultPlan::new("prover", Some(7), FaultKind::BudgetTrip);
        assert!(p.try_fire("prover", 3).is_none(), "wrong shard");
        assert!(p.try_fire("detect", 7).is_none(), "wrong stage");
        assert!(!p.has_fired());
        assert_eq!(p.try_fire("prover", 7), Some(FaultKind::BudgetTrip));
        assert!(p.has_fired());
        assert!(p.try_fire("prover", 7).is_none(), "one-shot");
    }

    #[test]
    fn wildcard_shard_fires_on_first_checkpoint() {
        let p = FaultPlan::new("corefilter", None, FaultKind::BudgetTrip);
        assert_eq!(p.try_fire("corefilter", 11), Some(FaultKind::BudgetTrip));
        assert!(p.try_fire("corefilter", 0).is_none());
    }

    #[test]
    fn governance_trip_forces_budget_exhaustion() {
        let gov = Governance {
            budget: Some(Arc::new(Budget::new())),
            faults: Some(Arc::new(FaultPlan::new(
                "prover",
                None,
                FaultKind::BudgetTrip,
            ))),
            degraded: false,
        };
        let err = gov.checkpoint("prover", 2).unwrap_err();
        assert!(err.is_budget());
        assert_eq!(trip_stage(&err), "prover");
        // The budget itself is now tripped: later checks fail too.
        assert!(gov.check("prover").unwrap_err().is_budget());
    }

    #[test]
    fn ungoverned_checkpoints_are_noops() {
        let gov = Governance::default();
        assert!(!gov.active());
        gov.checkpoint("prover", 0).unwrap();
        let mut c = 0;
        for _ in 0..1000 {
            gov.tick(&mut c, "prover").unwrap();
        }
    }
}
