//! The benchmark's own tests: determinism of its inputs and counts, a
//! tiny-size smoke run of every workload through its oracle, and the
//! metric catalogue matching `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hippo_cqa::hippo::HippoOptions;
use hippo_engine::TupleId;
use perfbench::gen::{self, Scale, WriteGen, WriteKind};
use perfbench::layers::{END_TO_END, PER_LAYER};
use perfbench::workloads::{instance, queries};
use perfbench::{Args, Workload};
use std::path::PathBuf;

/// The first `n` writes of a client, acknowledged with the ids an
/// append-only table assigns.
fn op_sequence(seed: u64, client: usize, n: usize) -> Vec<WriteKind> {
    let mut g = WriteGen::new(seed, client, "t", &[3, 7]);
    let mut next = 0u32;
    (0..n)
        .map(|_| {
            let kind = g.next_kind();
            let ids: Vec<TupleId> = match &kind {
                WriteKind::Insert(rows) => rows
                    .iter()
                    .map(|_| {
                        next += 1;
                        TupleId(next)
                    })
                    .collect(),
                _ => Vec::new(),
            };
            g.ack(&kind, &ids);
            kind
        })
        .collect()
}

#[test]
fn same_seed_same_op_sequence_other_seed_other_inputs() {
    assert_eq!(op_sequence(5, 0, 300), op_sequence(5, 0, 300));
    assert_ne!(op_sequence(5, 0, 300), op_sequence(6, 0, 300));
    assert_ne!(op_sequence(5, 0, 300), op_sequence(5, 1, 300));
    assert_eq!(
        gen::param_draws(5, 1, 256, 500),
        gen::param_draws(5, 1, 256, 500)
    );
    assert_ne!(
        gen::param_draws(5, 1, 256, 500),
        gen::param_draws(6, 1, 256, 500)
    );
    for w in [Workload::JoinFd, Workload::DiffDenial] {
        let rows = |seed: u64| {
            let inst = instance(w, seed, Scale::tiny()).unwrap();
            let cat = inst.db.catalog();
            cat.table_names()
                .iter()
                .map(|name| cat.table(name).unwrap().rows())
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(5), rows(5), "{}: same seed, same instance", w.name());
        assert_ne!(
            rows(5),
            rows(6),
            "{}: another seed, another instance",
            w.name()
        );
    }
}

/// Exact counters of a fixed serial request sequence: edges, then per
/// query candidates, prover calls, base-mode membership queries and the
/// engine's vectorized / row-mode rows.
fn exact_counts(w: Workload, seed: u64) -> Vec<usize> {
    let qs = queries(w);
    let draws = gen::param_draws(seed, 1, qs.len(), 6);
    let mut out = Vec::new();
    for options in [HippoOptions::full(), HippoOptions::base()] {
        let mut hippo = instance(w, seed, Scale::tiny())
            .unwrap()
            .into_hippo()
            .unwrap();
        out.push(hippo.graph().edge_count());
        hippo.options = options.with_prover_threads(1);
        let frozen = hippo.freeze().unwrap();
        for &p in &draws {
            let before = frozen.snapshot().stats();
            let a = frozen.consistent_answers_governed(&qs[p]).unwrap();
            let after = frozen.snapshot().stats();
            out.extend([
                a.stats.candidates,
                a.stats.prover_calls,
                a.stats.membership_queries,
                after.vectorized_rows - before.vectorized_rows,
                after.rowmode_rows - before.rowmode_rows,
            ]);
        }
    }
    out
}

#[test]
fn same_seed_same_exact_counts() {
    for w in [Workload::JoinFd, Workload::DiffDenial] {
        let a = exact_counts(w, 9);
        assert_eq!(a, exact_counts(w, 9), "{}: counts repeat exactly", w.name());
        assert_ne!(
            a,
            exact_counts(w, 10),
            "{}: another seed, other counts",
            w.name()
        );
    }
}

fn tiny_args(w: Workload, trace: bool) -> Args {
    Args {
        workload: w,
        seed: 3,
        seconds: 1.0,
        trace,
        scale: Scale::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("perfbench-smoke")
            .join(format!("{}-{}", w.name(), u8::from(trace))),
    }
}

fn smoke(w: Workload) {
    for trace in [false, true] {
        let args = tiny_args(w, trace);
        let out = perfbench::run(&args).unwrap();
        let _ = std::fs::remove_dir_all(&args.work_dir);
        assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.errors);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
            .iter()
            .map(|m| m.name)
            .collect();
        let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert_eq!(got, want, "{} trace={trace}: metric set", w.name());
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite(), "{name} is not finite");
            if !trace {
                assert!(*value > 0.0, "end-to-end metric {name} is 0");
            }
        }
    }
}

#[test]
fn smoke_join_fd() {
    smoke(Workload::JoinFd);
}

#[test]
fn smoke_diff_denial() {
    smoke(Workload::DiffDenial);
}

#[test]
fn smoke_service_mix() {
    smoke(Workload::ServiceMix);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let compact: String = json.split_whitespace().collect();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        compact.matches("\"better\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the catalogue does not"
    );
}
