//! Seeded inputs: the three workloads' instances, their query families
//! and the service mix's write generator. Everything here is a pure
//! function of the seed and the [`Scale`], so the same seed always
//! yields the same instance, the same request sequence and the same
//! per-client op sequence.

use hippo_cqa::constraint::{AttrRef, Comparison, DenialConstraint, Term};
use hippo_cqa::hippo::Hippo;
use hippo_cqa::inclusion::ForeignKey;
use hippo_cqa::pred::{CmpOp, Pred};
use hippo_cqa::query::SjudQuery;
use hippo_cqa::workload::JoinWorkload;
use hippo_engine::{Column, DataType, Database, EngineError, Row, TableSchema, TupleId, Value};
use hippo_server::WriteOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instance sizes. [`Scale::full`] is the committed definition of every
/// workload; [`Scale::tiny`] exists only for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rows of `r` and `s` (`join_fd`) and base rows of `t` (the
    /// difference workloads).
    pub rows: usize,
    /// Base rows of `u`.
    pub u_rows: usize,
    /// Ids `0..parent_ids` of the FK parent `p` (some are left out).
    pub parent_ids: i64,
    /// Ids missing from `p`: children carrying them are orphans.
    pub missing_ids: usize,
}

impl Scale {
    /// The committed workload sizes.
    pub fn full() -> Scale {
        Scale {
            rows: 16_000,
            u_rows: 8_000,
            parent_ids: 1_000,
            missing_ids: 8,
        }
    }

    /// Test-only sizes: the same shapes at a few hundred rows.
    pub fn tiny() -> Scale {
        Scale {
            rows: 400,
            u_rows: 200,
            parent_ids: 1_000,
            missing_ids: 8,
        }
    }
}

/// FD conflict rate of `r` and `s` in `join_fd`.
pub const JOIN_CONFLICT_RATE: f64 = 0.02;
/// FD conflict rate of `t` in `diff_denial` and `service_mix`.
pub const T_CONFLICT_RATE: f64 = 0.20;
/// FD conflict rate of `u`.
pub const U_CONFLICT_RATE: f64 = 0.05;
/// Distinct join queries: fewer than the 64-slot verdict cache.
pub const JOIN_PARAMS: usize = 16;
/// Distinct difference queries: more than the verdict cache holds.
pub const DIFF_PARAMS: usize = 256;

/// A generated database plus the constraints it is checked against.
pub struct Instance {
    pub db: Database,
    pub constraints: Vec<DenialConstraint>,
    pub foreign_keys: Vec<ForeignKey>,
    /// The table the write generator targets.
    pub write_table: &'static str,
    /// FK parent ids absent from `p` (empty without a foreign key).
    pub missing_ids: Vec<i64>,
}

impl Instance {
    /// Build the Hippo system (full conflict detection, orphan edges
    /// included) with the shipped default options.
    pub fn into_hippo(self) -> Result<Hippo, EngineError> {
        Hippo::with_foreign_keys(self.db, self.constraints, self.foreign_keys)
    }
}

/// `join_fd`: E1's join workload, `r` and `s` with FD `k → v`.
pub fn join_instance(seed: u64, scale: Scale) -> Result<Instance, EngineError> {
    let w = JoinWorkload::new(scale.rows, JOIN_CONFLICT_RATE, seed);
    Ok(Instance {
        db: w.build()?,
        constraints: w.constraints(),
        foreign_keys: Vec::new(),
        write_table: "r",
        missing_ids: Vec::new(),
    })
}

fn kvp_table(name: &str) -> Result<TableSchema, EngineError> {
    // `k` is a declared but violated key: it gives base-mode membership
    // probes and point reads a hash index, while conflicting pairs share it.
    TableSchema::new(
        name,
        vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
            Column::new("payload", DataType::Int),
        ],
        &["k"],
    )
}

fn int_row(k: i64, v: i64, payload: i64) -> Row {
    vec![Value::Int(k), Value::Int(v), Value::Int(payload)]
}

/// `diff_denial` (and `service_mix`'s initial state):
/// - `t(k, v, payload)`: `rows` base rows plus 20% FD conflicts;
/// - `u(k, v, payload)`: `u_rows` rows on `t`'s keys (half copy `t`'s row,
///   so the difference removes something) plus 5% FD conflicts;
/// - the binary denial `t.k = u.k ∧ t.payload < u.payload`;
/// - the restricted FK `t.payload ⊆ p.id`, with a few ids missing from `p`.
pub fn diff_instance(seed: u64, scale: Scale) -> Result<Instance, EngineError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF_DE41);
    let mut db = Database::new();
    db.catalog_mut().create_table(kvp_table("t")?)?;
    db.catalog_mut().create_table(kvp_table("u")?)?;
    db.catalog_mut().create_table(TableSchema::new(
        "p",
        vec![Column::new("id", DataType::Int)],
        &["id"],
    )?)?;

    let mut missing: Vec<i64> = Vec::with_capacity(scale.missing_ids);
    while missing.len() < scale.missing_ids {
        let id = rng.gen_range(0..scale.parent_ids);
        if !missing.contains(&id) {
            missing.push(id);
        }
    }
    missing.sort_unstable();
    let parents: Vec<Row> = (0..scale.parent_ids)
        .filter(|id| !missing.contains(id))
        .map(|id| vec![Value::Int(id)])
        .collect();
    db.insert_rows("p", parents)?;

    let mut t: Vec<Row> = Vec::with_capacity(scale.rows * 6 / 5);
    let mut base_v = Vec::with_capacity(scale.rows);
    for k in 0..scale.rows as i64 {
        let v = rng.gen_range(0..1_000_000i64);
        base_v.push(v);
        t.push(int_row(k, v, rng.gen_range(0..scale.parent_ids)));
    }
    let t_conflicts = (scale.rows as f64 * T_CONFLICT_RATE).round() as usize;
    for (k, &base) in base_v.iter().enumerate().take(t_conflicts) {
        let v = base + 1 + rng.gen_range(0..1_000i64);
        t.push(int_row(k as i64, v, rng.gen_range(0..scale.parent_ids)));
    }

    let mut u: Vec<Row> = Vec::with_capacity(scale.u_rows * 21 / 20);
    for i in 0..scale.u_rows {
        // Spread u over t's key range; every second u row copies t's base
        // row exactly, the rest carry a fresh value and payload.
        let k = i * scale.rows / scale.u_rows.max(1);
        if rng.gen_bool(0.5) {
            u.push(t[k].clone());
        } else {
            let v = rng.gen_range(0..1_000_000i64);
            u.push(int_row(k as i64, v, rng.gen_range(0..scale.parent_ids)));
        }
    }
    let u_conflicts = (scale.u_rows as f64 * U_CONFLICT_RATE).round() as usize;
    for c in 0..u_conflicts {
        let Value::Int(k) = u[c][0] else {
            unreachable!("u rows are all-Int")
        };
        let Value::Int(v) = u[c][1] else {
            unreachable!("u rows are all-Int")
        };
        u.push(int_row(k, v + 1, rng.gen_range(0..scale.parent_ids)));
    }
    db.insert_rows("t", t)?;
    db.insert_rows("u", u)?;

    Ok(Instance {
        db,
        constraints: diff_constraints(),
        foreign_keys: vec![ForeignKey::new("t", vec![2], "p", vec![0])],
        write_table: "t",
        missing_ids: missing,
    })
}

/// `diff_denial`'s constraints: FD `k → v` on `t` and `u`, plus the binary
/// general denial `¬(t(k, _, a) ∧ u(k, _, b) ∧ a < b)`.
pub fn diff_constraints() -> Vec<DenialConstraint> {
    let denial = DenialConstraint::new(
        "deny:t.k=u.k,t.payload<u.payload",
        vec!["t".into(), "u".into()],
        vec![
            Comparison::attr_eq(AttrRef { atom: 0, col: 0 }, AttrRef { atom: 1, col: 0 }),
            Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 2 }),
                right: Term::Attr(AttrRef { atom: 1, col: 2 }),
            },
        ],
    );
    vec![
        DenialConstraint::functional_dependency("t", &[0], 1),
        DenialConstraint::functional_dependency("u", &[0], 1),
        denial,
    ]
}

/// `σ(r.k = s.k ∧ r.payload ≥ p)(r × s)`.
pub fn join_query(p: i64) -> SjudQuery {
    SjudQuery::rel("r")
        .product(SjudQuery::rel("s"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 3).and(Pred::cmp_const(2, CmpOp::Ge, p)))
}

/// `t − σ(payload ≥ p)(u)`.
pub fn diff_query(p: i64) -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("u").select(Pred::cmp_const(2, CmpOp::Ge, p)))
}

/// The `i`-th of `n` parameter values, spread evenly over payloads 0..1000.
pub fn param_value(i: usize, n: usize) -> i64 {
    (i * 1000 / n) as i64
}

/// A seeded sequence of parameter indexes in `0..n`, one per request:
/// consecutive blocks of `n` requests are seeded permutations of all `n`
/// parameters, so every run sees nearly the same mix of cheap and costly
/// queries however its seed falls.
pub fn param_draws(seed: u64, stream: u64, n: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    let mut out = Vec::with_capacity(len + n);
    while out.len() < len {
        let mut block: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
        out.extend(block);
    }
    out.truncate(len);
    out
}

/// One `service_mix` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    Read,
    Write,
    Cqa,
}

/// A client's seeded op sequence: blocks of ten ops, each a seeded
/// permutation of 5 reads, 3 writes and 2 CQA requests, so every stretch
/// of a run holds the 50:30:20 mix.
pub fn mix_ops(seed: u64, client: usize, len: usize) -> Vec<MixOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((0x5E55 + client as u64) << 32));
    let mut out = Vec::with_capacity(len + 10);
    while out.len() < len {
        let mut block = [MixOp::Read; 10];
        block[5..8].fill(MixOp::Write);
        block[8..].fill(MixOp::Cqa);
        for i in (1..10).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
        out.extend(block);
    }
    out.truncate(len);
    out
}

/// Keys of one inserted group: the rows sharing a fresh key, with the
/// ids the engine assigned.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveGroup {
    pub key: i64,
    pub rows: Vec<(TupleId, Row)>,
}

/// What the next write of a client will do (before ids are known).
#[derive(Debug, Clone, PartialEq)]
pub enum WriteKind {
    /// Insert a group of rows sharing a fresh key.
    Insert(Vec<Row>),
    /// Delete the oldest live group.
    Delete,
    /// Re-value one row of a live group.
    Update { group: usize, row: usize, v: i64 },
}

/// One client's seeded write stream for `service_mix` (and the write
/// probe the traced run replays on the read-only instances).
///
/// Inserts use fresh keys from a per-client range. Half of them are one
/// clean row, 30% an FD-conflict pair, 20% an FK orphan (a payload id
/// missing from `p`; a clean row where there is no FK). Deletes remove
/// the client's oldest live group; updates give one of its rows a new
/// value. Inserts and deletes are drawn equally often and a delete with
/// nothing live becomes an insert, so the instance size stays steady.
pub struct WriteGen {
    rng: StdRng,
    table: String,
    next_key: i64,
    missing_ids: Vec<i64>,
    parent_ids: i64,
    live: std::collections::VecDeque<LiveGroup>,
    deleted_keys: Vec<i64>,
}

impl WriteGen {
    pub fn new(seed: u64, client: usize, inst_table: &str, missing_ids: &[i64]) -> WriteGen {
        WriteGen {
            rng: StdRng::seed_from_u64(seed ^ ((0xA11CE + client as u64) << 20)),
            table: inst_table.to_string(),
            next_key: 10_000_000 + client as i64 * 1_000_000,
            missing_ids: missing_ids.to_vec(),
            parent_ids: 1_000,
            live: std::collections::VecDeque::new(),
            deleted_keys: Vec::new(),
        }
    }

    /// Draw the next write.
    pub fn next_kind(&mut self) -> WriteKind {
        let die = self.rng.gen_range(0..100u32);
        if die >= 40 && !self.live.is_empty() {
            if die < 80 {
                return WriteKind::Delete;
            }
            let group = self.rng.gen_range(0..self.live.len());
            let row = self.rng.gen_range(0..self.live[group].rows.len());
            let v = self.rng.gen_range(0..1_000_000i64);
            return WriteKind::Update { group, row, v };
        }
        let key = self.next_key;
        self.next_key += 1;
        let shape = self.rng.gen_range(0..100u32);
        let v = self.rng.gen_range(0..1_000_000i64);
        let present = self.present_payload();
        let rows = if shape < 50 {
            vec![int_row(key, v, present)]
        } else if shape < 80 {
            let other = self.present_payload();
            vec![int_row(key, v, present), int_row(key, v + 1, other)]
        } else if self.missing_ids.is_empty() {
            vec![int_row(key, v, present)]
        } else {
            let i = self.rng.gen_range(0..self.missing_ids.len());
            vec![int_row(key, v, self.missing_ids[i])]
        };
        WriteKind::Insert(rows)
    }

    fn present_payload(&mut self) -> i64 {
        loop {
            let id = self.rng.gen_range(0..self.parent_ids);
            if !self.missing_ids.contains(&id) {
                return id;
            }
        }
    }

    /// The engine ops for a drawn write.
    pub fn ops(&self, kind: &WriteKind) -> Vec<WriteOp> {
        let table = self.table.clone();
        match kind {
            WriteKind::Insert(rows) => vec![WriteOp::Insert {
                table,
                rows: rows.clone(),
            }],
            WriteKind::Delete => vec![WriteOp::Delete {
                table,
                tids: self.live[0].rows.iter().map(|(id, _)| *id).collect(),
            }],
            WriteKind::Update { group, row, v } => {
                let (id, old) = &self.live[*group].rows[*row];
                let mut new = old.clone();
                new[1] = Value::Int(*v);
                vec![WriteOp::Update {
                    table,
                    updates: vec![(*id, new)],
                }]
            }
        }
    }

    /// Fold an acknowledged write into the client's model.
    pub fn ack(&mut self, kind: &WriteKind, inserted: &[TupleId]) {
        match kind {
            WriteKind::Insert(rows) => {
                let Value::Int(key) = rows[0][0] else {
                    unreachable!("generated rows are all-Int")
                };
                self.live.push_back(LiveGroup {
                    key,
                    rows: inserted.iter().copied().zip(rows.iter().cloned()).collect(),
                });
            }
            WriteKind::Delete => {
                let g = self
                    .live
                    .pop_front()
                    .expect("delete drawn with a live group");
                self.deleted_keys.push(g.key);
            }
            WriteKind::Update { group, row, v } => {
                self.live[*group].rows[*row].1[1] = Value::Int(*v);
            }
        }
    }

    /// Groups the client believes are live after its acknowledged writes.
    pub fn live(&self) -> impl Iterator<Item = &LiveGroup> {
        self.live.iter()
    }

    /// Keys whose groups the client deleted.
    pub fn deleted_keys(&self) -> &[i64] {
        &self.deleted_keys
    }
}
