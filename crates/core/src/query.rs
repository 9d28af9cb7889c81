//! The SJUD query algebra.
//!
//! Hippo computes consistent answers to **SJUD** queries: relational
//! algebra expressions built from **S**election, cartesian product
//! (**J**oin), **U**nion and **D**ifference over base relations, plus the
//! restricted projection the paper allows — one that introduces no
//! existential quantifiers, i.e. a permutation/duplication of columns
//! ([`SjudQuery::Permute`]).
//!
//! A query can be
//! * validated and schema-checked against a catalog,
//! * rendered to SQL text (the form Hippo ships to its RDBMS backend),
//! * evaluated directly over any *instance view* (a `relation name → rows`
//!   function), which is how the naive repair-based ground truth and the
//!   core-filter optimization evaluate queries over hypothetical instances.

use crate::pred::Pred;
use hippo_engine::{Catalog, EngineError, Row};
use hippo_sql::{Expr, Query, SelectCore, SelectItem, SetOp, TableRef};
use std::collections::BTreeSet;

/// An SJUD relational algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SjudQuery {
    /// A base relation.
    Rel(String),
    /// Selection by a quantifier-free predicate.
    Select {
        /// Input expression.
        input: Box<SjudQuery>,
        /// Selection predicate over the input's columns.
        pred: Pred,
    },
    /// Cartesian product.
    Product(Box<SjudQuery>, Box<SjudQuery>),
    /// Set union (same arity both sides).
    Union(Box<SjudQuery>, Box<SjudQuery>),
    /// Set difference (same arity both sides).
    Diff(Box<SjudQuery>, Box<SjudQuery>),
    /// Existential-free projection: output column `i` is input column
    /// `perm[i]`. Every input column must appear at least once (otherwise
    /// the projection would quantify it existentially, leaving the class).
    Permute {
        /// Input expression.
        input: Box<SjudQuery>,
        /// Output-to-input column mapping.
        perm: Vec<usize>,
    },
}

impl SjudQuery {
    /// Base relation.
    pub fn rel(name: impl Into<String>) -> SjudQuery {
        SjudQuery::Rel(name.into())
    }

    /// `σ_pred(self)`.
    pub fn select(self, pred: Pred) -> SjudQuery {
        SjudQuery::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// `self × other`.
    pub fn product(self, other: SjudQuery) -> SjudQuery {
        SjudQuery::Product(Box::new(self), Box::new(other))
    }

    /// `self ∪ other`.
    pub fn union(self, other: SjudQuery) -> SjudQuery {
        SjudQuery::Union(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn diff(self, other: SjudQuery) -> SjudQuery {
        SjudQuery::Diff(Box::new(self), Box::new(other))
    }

    /// Existential-free projection.
    pub fn permute(self, perm: Vec<usize>) -> SjudQuery {
        SjudQuery::Permute {
            input: Box::new(self),
            perm,
        }
    }

    /// Equi-join convenience: `σ_{left_col = right_col}(self × other)`.
    /// Both column positions are *combined* offsets over the product's
    /// columns (left columns first).
    pub fn join_on(self, left_col: usize, other: SjudQuery, right_col: usize) -> SjudQuery {
        self.product(other)
            .select(Pred::cmp_cols(left_col, crate::pred::CmpOp::Eq, right_col))
    }

    /// All base relations referenced (sorted, deduplicated).
    pub fn relations(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        self.collect_relations(&mut set);
        set.into_iter().collect()
    }

    fn collect_relations(&self, out: &mut BTreeSet<String>) {
        match self {
            SjudQuery::Rel(r) => {
                out.insert(r.clone());
            }
            SjudQuery::Select { input, .. } | SjudQuery::Permute { input, .. } => {
                input.collect_relations(out)
            }
            SjudQuery::Product(l, r) | SjudQuery::Union(l, r) | SjudQuery::Diff(l, r) => {
                l.collect_relations(out);
                r.collect_relations(out);
            }
        }
    }

    /// Does the query contain a difference?
    pub fn has_diff(&self) -> bool {
        match self {
            SjudQuery::Rel(_) => false,
            SjudQuery::Select { input, .. } | SjudQuery::Permute { input, .. } => input.has_diff(),
            SjudQuery::Product(l, r) | SjudQuery::Union(l, r) => l.has_diff() || r.has_diff(),
            SjudQuery::Diff(_, _) => true,
        }
    }

    /// Does the query contain a union?
    pub fn has_union(&self) -> bool {
        match self {
            SjudQuery::Rel(_) => false,
            SjudQuery::Select { input, .. } | SjudQuery::Permute { input, .. } => input.has_union(),
            SjudQuery::Product(l, r) | SjudQuery::Diff(l, r) => l.has_union() || r.has_union(),
            SjudQuery::Union(_, _) => true,
        }
    }

    /// Validate against a catalog and compute the output arity.
    ///
    /// Checks: relations exist, selection predicates stay within arity,
    /// union/difference arities match, permutations are within range and
    /// existential-free (every input column appears).
    pub fn validate(&self, catalog: &Catalog) -> Result<usize, EngineError> {
        match self {
            SjudQuery::Rel(r) => Ok(catalog.table(r)?.schema.arity()),
            SjudQuery::Select { input, pred } => {
                let arity = input.validate(catalog)?;
                if let Some(m) = pred.max_col() {
                    if m >= arity {
                        return Err(EngineError::new(format!(
                            "selection predicate references column {m} but input arity is {arity}"
                        )));
                    }
                }
                Ok(arity)
            }
            SjudQuery::Product(l, r) => Ok(l.validate(catalog)? + r.validate(catalog)?),
            SjudQuery::Union(l, r) | SjudQuery::Diff(l, r) => {
                let la = l.validate(catalog)?;
                let ra = r.validate(catalog)?;
                if la != ra {
                    return Err(EngineError::new(format!(
                        "set operation arity mismatch: {la} vs {ra}"
                    )));
                }
                Ok(la)
            }
            SjudQuery::Permute { input, perm } => {
                let arity = input.validate(catalog)?;
                for &p in perm {
                    if p >= arity {
                        return Err(EngineError::new(format!(
                            "permutation index {p} out of range (arity {arity})"
                        )));
                    }
                }
                for col in 0..arity {
                    if !perm.contains(&col) {
                        return Err(EngineError::new(format!(
                            "projection drops column {col}: it would introduce an existential \
                             quantifier, leaving the supported PSJUD fragment"
                        )));
                    }
                }
                Ok(perm.len())
            }
        }
    }

    /// Render to a SQL query (set semantics). Every level exposes columns
    /// named `c0..c{n-1}`.
    pub fn to_sql_query(&self, catalog: &Catalog) -> Result<Query, EngineError> {
        self.validate(catalog)?;
        self.render(catalog)
    }

    /// Render to SQL text.
    pub fn to_sql(&self, catalog: &Catalog) -> Result<String, EngineError> {
        Ok(hippo_sql::print_query(&self.to_sql_query(catalog)?))
    }

    fn render(&self, catalog: &Catalog) -> Result<Query, EngineError> {
        match self {
            SjudQuery::Rel(r) => {
                let schema = &catalog.table(r)?.schema;
                let mut core = SelectCore::empty();
                core.distinct = true; // set semantics at the leaves
                core.projection = schema
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| SelectItem::Expr {
                        expr: Expr::col(c.name.clone()),
                        alias: Some(format!("c{i}")),
                    })
                    .collect();
                core.from = vec![TableRef::Table {
                    name: r.clone(),
                    alias: None,
                }];
                Ok(Query::Select(Box::new(core)))
            }
            SjudQuery::Select { input, pred } => {
                let inner = input.render(catalog)?;
                let mut core = SelectCore::empty();
                core.projection = vec![SelectItem::Wildcard];
                core.from = vec![TableRef::Subquery {
                    query: Box::new(inner),
                    alias: "s".into(),
                }];
                core.filter = Some(pred.to_sql_expr(&|i| Expr::qcol("s", format!("c{i}"))));
                Ok(Query::Select(Box::new(core)))
            }
            SjudQuery::Product(l, r) => {
                let la = l.validate(catalog)?;
                let ra = r.validate(catalog)?;
                let lq = l.render(catalog)?;
                let rq = r.render(catalog)?;
                let mut core = SelectCore::empty();
                core.projection = (0..la)
                    .map(|i| SelectItem::Expr {
                        expr: Expr::qcol("a", format!("c{i}")),
                        alias: Some(format!("c{i}")),
                    })
                    .chain((0..ra).map(|i| SelectItem::Expr {
                        expr: Expr::qcol("b", format!("c{i}")),
                        alias: Some(format!("c{}", la + i)),
                    }))
                    .collect();
                core.from = vec![
                    TableRef::Subquery {
                        query: Box::new(lq),
                        alias: "a".into(),
                    },
                    TableRef::Subquery {
                        query: Box::new(rq),
                        alias: "b".into(),
                    },
                ];
                Ok(Query::Select(Box::new(core)))
            }
            SjudQuery::Union(l, r) => Ok(Query::SetOp {
                op: SetOp::Union,
                all: false,
                left: Box::new(l.render(catalog)?),
                right: Box::new(r.render(catalog)?),
            }),
            SjudQuery::Diff(l, r) => Ok(Query::SetOp {
                op: SetOp::Except,
                all: false,
                left: Box::new(l.render(catalog)?),
                right: Box::new(r.render(catalog)?),
            }),
            SjudQuery::Permute { input, perm } => {
                let inner = input.render(catalog)?;
                let mut core = SelectCore::empty();
                core.distinct = true;
                core.projection = perm
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| SelectItem::Expr {
                        expr: Expr::qcol("s", format!("c{p}")),
                        alias: Some(format!("c{i}")),
                    })
                    .collect();
                core.from = vec![TableRef::Subquery {
                    query: Box::new(inner),
                    alias: "s".into(),
                }];
                Ok(Query::Select(Box::new(core)))
            }
        }
    }

    /// Evaluate directly over an *instance view*: a function from relation
    /// name to rows (set semantics; duplicates in the input are collapsed).
    pub fn eval_over(&self, instance: &impl Fn(&str) -> Vec<Row>) -> Vec<Row> {
        let mut rows = self.eval_inner(instance);
        rows.sort();
        rows.dedup();
        rows
    }

    fn eval_inner(&self, instance: &impl Fn(&str) -> Vec<Row>) -> Vec<Row> {
        match self {
            SjudQuery::Rel(r) => instance(r),
            SjudQuery::Select { input, pred } => input
                .eval_inner(instance)
                .into_iter()
                .filter(|row| pred.eval(row))
                .collect(),
            SjudQuery::Product(l, r) => {
                let lv = l.eval_inner(instance);
                let rv = r.eval_inner(instance);
                let mut out = Vec::with_capacity(lv.len() * rv.len());
                for a in &lv {
                    for b in &rv {
                        let mut row = a.clone();
                        row.extend(b.iter().cloned());
                        out.push(row);
                    }
                }
                out
            }
            SjudQuery::Union(l, r) => {
                let mut lv = l.eval_inner(instance);
                lv.extend(r.eval_inner(instance));
                lv
            }
            SjudQuery::Diff(l, r) => {
                let rv: std::collections::HashSet<Row> =
                    r.eval_inner(instance).into_iter().collect();
                l.eval_inner(instance)
                    .into_iter()
                    .filter(|row| !rv.contains(row))
                    .collect()
            }
            SjudQuery::Permute { input, perm } => input
                .eval_inner(instance)
                .into_iter()
                .map(|row| perm.iter().map(|&p| row[p].clone()).collect())
                .collect(),
        }
    }

    /// Evaluate over the catalog's current contents (ordinary evaluation,
    /// ignoring inconsistency).
    pub fn eval_on_catalog(&self, catalog: &Catalog) -> Result<Vec<Row>, EngineError> {
        self.validate(catalog)?;
        let mut missing: Option<EngineError> = None;
        let rows = self.eval_over(&|rel: &str| match catalog.table(rel) {
            Ok(t) => t.rows(),
            Err(_) => Vec::new(),
        });
        if let Some(e) = missing.take() {
            return Err(e);
        }
        Ok(rows)
    }
}

/// Short display form, e.g. `((r × s) − u)`.
impl std::fmt::Display for SjudQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SjudQuery::Rel(r) => write!(f, "{r}"),
            SjudQuery::Select { input, .. } => write!(f, "σ({input})"),
            SjudQuery::Product(l, r) => write!(f, "({l} × {r})"),
            SjudQuery::Union(l, r) => write!(f, "({l} ∪ {r})"),
            SjudQuery::Diff(l, r) => write!(f, "({l} − {r})"),
            SjudQuery::Permute { input, perm } => write!(f, "π{perm:?}({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for (name, arity) in [("r", 2), ("s", 2), ("u", 2)] {
            let cols = (0..arity)
                .map(|i| Column::new(format!("x{i}"), DataType::Int))
                .collect();
            db.catalog_mut()
                .create_table(TableSchema::new(name, cols, &[]).unwrap())
                .unwrap();
        }
        let rows = |xs: &[(i64, i64)]| {
            xs.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect()
        };
        db.insert_rows("r", rows(&[(1, 10), (2, 20), (3, 30)]))
            .unwrap();
        db.insert_rows("s", rows(&[(1, 100), (2, 200)])).unwrap();
        db.insert_rows("u", rows(&[(1, 10)])).unwrap();
        db
    }

    #[test]
    fn validates_arities() {
        let db = db();
        let q = SjudQuery::rel("r").product(SjudQuery::rel("s"));
        assert_eq!(q.validate(db.catalog()).unwrap(), 4);
        let q = SjudQuery::rel("r").union(SjudQuery::rel("s"));
        assert_eq!(q.validate(db.catalog()).unwrap(), 2);
        let bad = SjudQuery::rel("r").union(SjudQuery::rel("r").product(SjudQuery::rel("s")));
        assert!(bad.validate(db.catalog()).is_err());
    }

    #[test]
    fn validates_predicates_and_permutations() {
        let db = db();
        let q = SjudQuery::rel("r").select(Pred::cmp_const(5, CmpOp::Eq, 1i64));
        assert!(q.validate(db.catalog()).is_err(), "predicate out of range");
        let q = SjudQuery::rel("r").permute(vec![1, 0]);
        assert_eq!(q.validate(db.catalog()).unwrap(), 2);
        let q = SjudQuery::rel("r").permute(vec![1, 0, 1]);
        assert_eq!(q.validate(db.catalog()).unwrap(), 3, "duplication allowed");
        let q = SjudQuery::rel("r").permute(vec![0]);
        let err = q.validate(db.catalog()).unwrap_err();
        assert!(err.message.contains("existential"), "{err}");
    }

    #[test]
    fn same_selection_renders_to_equivalent_sql() {
        let mut db = db();
        db.execute("INSERT INTO r VALUES (NULL, NULL), (NULL, 5), (7, 7)")
            .unwrap();
        let q = SjudQuery::rel("r").select(Pred::Same(0, 1));
        let mut sql = db.query(&q.to_sql(db.catalog()).unwrap()).unwrap().rows;
        sql.sort();
        let direct = q.eval_on_catalog(db.catalog()).unwrap();
        assert_eq!(sql, direct);
        assert_eq!(
            direct,
            vec![
                vec![Value::Null, Value::Null],
                vec![Value::Int(7), Value::Int(7)]
            ]
        );
    }

    #[test]
    fn unknown_relation_rejected() {
        let db = db();
        assert!(SjudQuery::rel("nope").validate(db.catalog()).is_err());
    }

    #[test]
    fn sql_rendering_matches_direct_eval() {
        let db = db();
        let queries = vec![
            SjudQuery::rel("r"),
            SjudQuery::rel("r").select(Pred::cmp_const(1, CmpOp::Ge, 20i64)),
            SjudQuery::rel("r")
                .product(SjudQuery::rel("s"))
                .select(Pred::cmp_cols(0, CmpOp::Eq, 2)),
            SjudQuery::rel("r").union(SjudQuery::rel("s")),
            SjudQuery::rel("r").diff(SjudQuery::rel("u")),
            SjudQuery::rel("r").permute(vec![1, 0]),
            SjudQuery::rel("r")
                .diff(SjudQuery::rel("u"))
                .union(SjudQuery::rel("s").select(Pred::cmp_const(0, CmpOp::Eq, 1i64))),
        ];
        for q in queries {
            let sql = q.to_sql(db.catalog()).unwrap();
            let mut via_sql = db.query(&sql).unwrap().rows;
            via_sql.sort();
            via_sql.dedup();
            let direct = q.eval_on_catalog(db.catalog()).unwrap();
            assert_eq!(via_sql, direct, "mismatch for {q} ({sql})");
        }
    }

    #[test]
    fn eval_over_instance_view() {
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("u"));
        let rows = q.eval_over(&|rel: &str| match rel {
            "r" => vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            "u" => vec![vec![Value::Int(2)]],
            _ => vec![],
        });
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn eval_is_set_semantics() {
        let q = SjudQuery::rel("r");
        let rows = q.eval_over(&|_| vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn class_predicates() {
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("u"));
        assert!(q.has_diff());
        assert!(!q.has_union());
        let q = SjudQuery::rel("r").union(SjudQuery::rel("s"));
        assert!(q.has_union());
        assert!(!q.has_diff());
    }

    #[test]
    fn display_is_readable() {
        let q = SjudQuery::rel("r")
            .product(SjudQuery::rel("s"))
            .diff(SjudQuery::rel("u"));
        assert_eq!(q.to_string(), "((r × s) − u)");
    }

    #[test]
    fn permute_duplicates_columns_in_sql() {
        let db = db();
        let q = SjudQuery::rel("r").permute(vec![0, 1, 0]);
        let rows = db.query(&q.to_sql(db.catalog()).unwrap()).unwrap().rows;
        for row in rows {
            assert_eq!(row[0], row[2]);
        }
    }
}
