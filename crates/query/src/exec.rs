//! Shared query-evaluation machinery.
//!
//! Every engine in the workspace — full scan, Hive's Compact/Aggregate/
//! Bitmap indexes, DGFIndex, HadoopDB — differs only in *which rows it
//! feeds* to the evaluator. [`RowSink`] centralizes the semantics of the
//! four query shapes so engines cannot drift apart: a map task pushes its
//! matching rows into a sink, sinks from parallel tasks merge, and
//! `finish` produces the [`QueryResult`].

use std::collections::BTreeMap;
use std::sync::Arc;

use dgf_common::batch::{Column, ColumnBatch, ColumnData, Selection};
use dgf_common::{DgfError, Result, Row, Schema, Value};

use crate::agg::{AggPartials, AggSet, AggState};
use crate::predicate::BoundPredicate;
use crate::spec::{Query, QueryResult};

/// A mergeable accumulator for one query over one row stream.
pub struct RowSink {
    schema: Arc<Schema>,
    kind: SinkKind,
}

enum SinkKind {
    Aggregate {
        set: AggSet,
        states: Vec<AggState>,
    },
    GroupBy {
        key_idx: usize,
        set: AggSet,
        groups: BTreeMap<Value, Vec<AggState>>,
    },
    Join {
        left_key_idx: usize,
        left_project: Vec<usize>,
        build: Arc<JoinTable>,
        out: Vec<Row>,
    },
    Select {
        project: Vec<usize>,
        out: Vec<Row>,
    },
}

/// The build side of a map join: join key → the projected right rows with
/// that key, in the dimension table's row order. NULL keys never join and
/// are left out.
///
/// It depends only on the dimension table's rows, the key column and the
/// projection, so it is built once and shared: by the sinks of every map
/// task of a query, and by every query that joins the same version of the
/// same table.
#[derive(Debug, Default)]
pub struct JoinTable(BTreeMap<Value, Vec<Row>>);

impl JoinTable {
    /// Index `rows` by column `key`, keeping columns `project` of each.
    pub fn new<'a>(rows: impl IntoIterator<Item = &'a Row>, key: usize, project: &[usize]) -> Self {
        let mut table: BTreeMap<Value, Vec<Row>> = BTreeMap::new();
        for r in rows {
            let k = &r[key];
            if k.is_null() {
                continue; // NULL keys never join
            }
            let projected = project.iter().map(|i| r[*i].clone()).collect();
            table.entry(k.clone()).or_default().push(projected);
        }
        JoinTable(table)
    }

    /// The projected rows whose key equals `key`.
    pub fn get(&self, key: &Value) -> Option<&[Row]> {
        self.0.get(key).map(Vec::as_slice)
    }
}

impl RowSink {
    /// Create a sink for `query` over rows of `schema`.
    ///
    /// Join queries need the dimension table (`right`): its schema and
    /// the build side made from its rows ([`JoinTable`]), mirroring Hive's
    /// map-side broadcast join of a small archive table. Sinks for the
    /// other tasks of the same query come from [`Self::sibling`] and share
    /// it.
    pub fn new(
        query: &Query,
        schema: &Schema,
        right: Option<(&Schema, Arc<JoinTable>)>,
    ) -> Result<RowSink> {
        let kind = match query {
            Query::Aggregate { aggs, .. } => {
                let set = AggSet::bind(aggs, schema)?;
                let states = set.new_states();
                SinkKind::Aggregate { set, states }
            }
            Query::GroupBy { key, aggs, .. } => SinkKind::GroupBy {
                key_idx: schema.index_of(key)?,
                set: AggSet::bind(aggs, schema)?,
                groups: BTreeMap::new(),
            },
            Query::Join {
                left_key,
                right_key,
                left_project,
                right_project,
                ..
            } => {
                let (right_schema, build) = right.ok_or_else(|| {
                    DgfError::Query("join query requires the dimension table".into())
                })?;
                // The build side was made by the caller; a right column
                // the table lacks is still refused here, probe or not.
                for c in std::iter::once(right_key).chain(right_project) {
                    right_schema.index_of(c)?;
                }
                SinkKind::Join {
                    left_key_idx: schema.index_of(left_key)?,
                    left_project: left_project
                        .iter()
                        .map(|c| schema.index_of(c))
                        .collect::<Result<_>>()?,
                    build,
                    out: Vec::new(),
                }
            }
            Query::Select { project, .. } => SinkKind::Select {
                project: if project.is_empty() {
                    (0..schema.len()).collect()
                } else {
                    project
                        .iter()
                        .map(|c| schema.index_of(c))
                        .collect::<Result<_>>()?
                },
                out: Vec::new(),
            },
        };
        Ok(RowSink {
            schema: Arc::new(schema.clone()),
            kind,
        })
    }

    /// An empty sink for the same query — what one more map task fills
    /// and [`Self::merge`] folds back. Siblings share the schema and a
    /// join's build side; nothing is bound or built again.
    pub fn sibling(&self) -> RowSink {
        let kind = match &self.kind {
            SinkKind::Aggregate { set, .. } => SinkKind::Aggregate {
                set: set.clone(),
                states: set.new_states(),
            },
            SinkKind::GroupBy { key_idx, set, .. } => SinkKind::GroupBy {
                key_idx: *key_idx,
                set: set.clone(),
                groups: BTreeMap::new(),
            },
            SinkKind::Join {
                left_key_idx,
                left_project,
                build,
                ..
            } => SinkKind::Join {
                left_key_idx: *left_key_idx,
                left_project: left_project.clone(),
                build: Arc::clone(build),
                out: Vec::new(),
            },
            SinkKind::Select { project, .. } => SinkKind::Select {
                project: project.clone(),
                out: Vec::new(),
            },
        };
        RowSink {
            schema: Arc::clone(&self.schema),
            kind,
        }
    }

    /// Feed one row that already passed the predicate.
    pub fn push(&mut self, row: &Row) -> Result<()> {
        match &mut self.kind {
            SinkKind::Aggregate { set, states } => set.update(states, row, &self.schema),
            SinkKind::GroupBy {
                key_idx,
                set,
                groups,
            } => {
                let key = row[*key_idx].clone();
                let states = groups.entry(key).or_insert_with(|| set.new_states());
                set.update(states, row, &self.schema)
            }
            SinkKind::Join {
                left_key_idx,
                left_project,
                build,
                out,
            } => {
                let k = &row[*left_key_idx];
                if let Some(matches) = build.get(k) {
                    for m in matches {
                        let mut joined = Vec::with_capacity(m.len() + left_project.len());
                        joined.extend(m.iter().cloned());
                        joined.extend(left_project.iter().map(|i| row[*i].clone()));
                        out.push(joined);
                    }
                }
                Ok(())
            }
            SinkKind::Select { project, out } => {
                out.push(project.iter().map(|i| row[*i].clone()).collect());
                Ok(())
            }
        }
    }

    /// Feed every selected row of a batch — the vectorized counterpart of
    /// calling [`Self::push`] once per selected row.
    ///
    /// Aggregation queries run entirely on slice kernels
    /// ([`AggSet::update_batch`]), and so does GROUP BY: the selection is
    /// split by key and each part folded by the same kernels, so every
    /// key sees its rows in row order, as it would from the row path.
    /// Joins and selects build output rows cell by cell from the typed
    /// columns. Results are bit-identical to the row path in all shapes.
    pub fn push_batch(&mut self, batch: &ColumnBatch, sel: &Selection) -> Result<()> {
        match &mut self.kind {
            SinkKind::Aggregate { set, states } => {
                set.update_batch(states, batch, sel, &self.schema)
            }
            SinkKind::GroupBy {
                key_idx,
                set,
                groups,
            } => for_each_key_part(batch.column(*key_idx), sel, |key, part| {
                let states = groups.entry(key).or_insert_with(|| set.new_states());
                set.update_batch(states, batch, part, &self.schema)
            }),
            SinkKind::Join {
                left_key_idx,
                left_project,
                build,
                out,
            } => {
                for i in sel.iter() {
                    let k = batch.value(i, *left_key_idx);
                    if let Some(matches) = build.get(&k) {
                        for m in matches {
                            let mut joined = Vec::with_capacity(m.len() + left_project.len());
                            joined.extend(m.iter().cloned());
                            joined.extend(left_project.iter().map(|c| batch.value(i, *c)));
                            out.push(joined);
                        }
                    }
                }
                Ok(())
            }
            SinkKind::Select { project, out } => {
                for i in sel.iter() {
                    out.push(project.iter().map(|c| batch.value(i, *c)).collect());
                }
                Ok(())
            }
        }
    }

    /// Filter-and-push convenience.
    pub fn push_if(&mut self, row: &Row, pred: &BoundPredicate) -> Result<bool> {
        if pred.matches(row) {
            self.push(row)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Merge a sink produced by a parallel task over the same query.
    pub fn merge(&mut self, other: RowSink) -> Result<()> {
        match (&mut self.kind, other.kind) {
            (
                SinkKind::Aggregate { set, states },
                SinkKind::Aggregate { states: o, .. },
            ) => set.merge(states, &o),
            (
                SinkKind::GroupBy { set, groups, .. },
                SinkKind::GroupBy { groups: og, .. },
            ) => og
                .into_iter()
                .try_for_each(|(k, ostates)| merge_group(set, groups, k, ostates)),
            (SinkKind::Join { out, .. }, SinkKind::Join { out: o, .. }) => {
                out.extend(o);
                Ok(())
            }
            (SinkKind::Select { out, .. }, SinkKind::Select { out: o, .. }) => {
                out.extend(o);
                Ok(())
            }
            _ => Err(DgfError::Query("merging sinks of different queries".into())),
        }
    }

    /// Merge pre-aggregated partials (DGFIndex's inner region) into an
    /// aggregate or GROUP BY sink. A group the sink has not seen yet opens
    /// with the partial's states, as it would from a sibling sink.
    pub fn merge_agg_states(&mut self, partials: &AggPartials) -> Result<()> {
        match (&mut self.kind, partials) {
            (SinkKind::Aggregate { set, states }, AggPartials::Scalar(p)) => set.merge(states, p),
            (SinkKind::GroupBy { set, groups, .. }, AggPartials::Groups(p)) => p
                .iter()
                .try_for_each(|(k, st)| merge_group(set, groups, k.clone(), st.clone())),
            _ => Err(DgfError::Query(
                "pre-aggregated partials do not match the query's shape".into(),
            )),
        }
    }

    /// The aggregate set, for decoding headers against this query.
    pub fn agg_set(&self) -> Option<&AggSet> {
        match &self.kind {
            SinkKind::Aggregate { set, .. } | SinkKind::GroupBy { set, .. } => Some(set),
            _ => None,
        }
    }

    /// Produce the final result. The groups map calls −0.0 and +0.0 one
    /// key and keeps whichever came first, so a zero key is emitted as
    /// +0.0: the answer's bits do not depend on row or merge order.
    pub fn finish(self) -> QueryResult {
        match self.kind {
            SinkKind::Aggregate { set, states } => QueryResult::Scalars(set.finalize(&states)),
            SinkKind::GroupBy { set, groups, .. } => QueryResult::Groups(
                groups
                    .into_iter()
                    .map(|(k, st)| {
                        // −0.0 + 0.0 is +0.0; any other key is unchanged.
                        let k = match k {
                            Value::Float(z) => Value::Float(z + 0.0),
                            k => k,
                        };
                        (k, set.finalize(&st))
                    })
                    .collect(),
            ),
            SinkKind::Join { out, .. } | SinkKind::Select { out, .. } => QueryResult::Rows(out),
        }
    }
}

/// Fold one group's partial states into `groups`; a key not yet there
/// takes them as they are.
fn merge_group(
    set: &AggSet,
    groups: &mut BTreeMap<Value, Vec<AggState>>,
    key: Value,
    states: Vec<AggState>,
) -> Result<()> {
    match groups.get_mut(&key) {
        Some(st) => set.merge(st, &states),
        None => {
            groups.insert(key, states);
            Ok(())
        }
    }
}

/// Split `sel` by the value of the key column and hand each part to
/// `fold` with its key: rows ascending inside a part, parts in key order.
/// Keys are told apart the way the `groups` map does: by `Value`'s order,
/// so NULLs are one group. A column holds cells of its schema type only,
/// so two keys of one batch never differ in type alone. A constant key
/// — the usual case when the key is a grid dimension and the batch one
/// cell's — is one part: `sel` itself, nothing copied.
fn for_each_key_part(
    col: &Column,
    sel: &Selection,
    fold: impl FnMut(Value, &Selection) -> Result<()>,
) -> Result<()> {
    match &col.data {
        ColumnData::Int(v) if !col.nulls.any_nulls() => key_parts(sel, |i| v[i], Value::Int, fold),
        ColumnData::Date(v) if !col.nulls.any_nulls() => {
            key_parts(sel, |i| v[i], Value::Date, fold)
        }
        _ => key_parts(sel, |i| col.value_at(i), |v| v, fold),
    }
}

fn key_parts<K: Ord>(
    sel: &Selection,
    key_at: impl Fn(usize) -> K,
    to_value: impl Fn(K) -> Value,
    mut fold: impl FnMut(Value, &Selection) -> Result<()>,
) -> Result<()> {
    let mut rows = sel.iter();
    let Some(first) = rows.next().map(&key_at) else {
        return Ok(());
    };
    if rows.all(|i| key_at(i).cmp(&first).is_eq()) {
        return fold(to_value(first), sel);
    }
    let mut parts: BTreeMap<K, Vec<u32>> = BTreeMap::new();
    for i in sel.iter() {
        parts.entry(key_at(i)).or_default().push(i as u32);
    }
    for (key, rows) in parts {
        fold(to_value(key), &Selection::Rows(&rows))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::predicate::{ColumnRange, Predicate};
    use dgf_common::ValueType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("region_id", ValueType::Int),
            ("power", ValueType::Float),
        ])
    }

    fn rows() -> Vec<Row> {
        (0..10)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 3),
                    Value::Float(i as f64),
                ]
            })
            .collect()
    }

    #[test]
    fn aggregate_sink() {
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Sum("power".into()), AggFunc::Count],
            predicate: Predicate::all(),
        };
        let s = schema();
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        for r in rows() {
            sink.push(&r).unwrap();
        }
        assert_eq!(
            sink.finish(),
            QueryResult::Scalars(vec![Value::Float(45.0), Value::Int(10)])
        );
    }

    #[test]
    fn group_by_sink_sorted_by_key() {
        let q = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let s = schema();
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        for r in rows() {
            sink.push(&r).unwrap();
        }
        let groups = sink.finish().into_groups();
        assert_eq!(
            groups,
            vec![
                (Value::Int(0), vec![Value::Int(4)]),
                (Value::Int(1), vec![Value::Int(3)]),
                (Value::Int(2), vec![Value::Int(3)]),
            ]
        );
    }

    #[test]
    fn join_sink_projects_right_then_left() {
        let right_schema = Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("name", ValueType::Str),
        ]);
        let right_rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Str("alice".into())],
            vec![Value::Int(2), Value::Str("bob".into())],
            vec![Value::Int(2), Value::Str("bob2".into())], // duplicate key
            vec![Value::Null, Value::Str("nobody".into())],  // never joins
        ];
        let q = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec!["power".into()],
            right_project: vec!["name".into()],
            predicate: Predicate::all(),
        };
        let s = schema();
        let mut sink = RowSink::new(&q, &s, Some((&right_schema, names(&right_rows)))).unwrap();
        for r in rows() {
            sink.push(&r).unwrap();
        }
        let mut out = sink.finish().into_rows();
        out.sort_by(|a, b| a.iter().cmp(b.iter()));
        assert_eq!(
            out,
            vec![
                vec![Value::Str("alice".into()), Value::Float(1.0)],
                vec![Value::Str("bob".into()), Value::Float(2.0)],
                vec![Value::Str("bob2".into()), Value::Float(2.0)],
            ]
        );
    }

    /// `user_id` → `name`: the build side of every join in these tests.
    fn names(right_rows: &[Row]) -> Arc<JoinTable> {
        Arc::new(JoinTable::new(right_rows, 0, &[1]))
    }

    /// A right column the dimension table lacks is refused when the sink
    /// is made, before anything probes.
    #[test]
    fn join_sink_refuses_a_right_column_the_table_lacks() {
        let right_schema = Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("name", ValueType::Str),
        ]);
        let q = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec![],
            right_project: vec!["nickname".into()],
            predicate: Predicate::all(),
        };
        let s = schema();
        assert!(RowSink::new(&q, &s, Some((&right_schema, names(&[])))).is_err());
    }

    #[test]
    fn select_sink_with_default_projection() {
        let q = Query::Select {
            project: vec![],
            predicate: Predicate::all(),
        };
        let s = schema();
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        sink.push(&rows()[0]).unwrap();
        assert_eq!(sink.finish().into_rows()[0].len(), 3);
    }

    #[test]
    fn parallel_merge_equals_sequential() {
        let q = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Sum("power".into()), AggFunc::Max("power".into())],
            predicate: Predicate::all(),
        };
        let s = schema();
        let rs = rows();
        let mut seq = RowSink::new(&q, &s, None).unwrap();
        for r in &rs {
            seq.push(r).unwrap();
        }
        let mut a = RowSink::new(&q, &s, None).unwrap();
        let mut b = RowSink::new(&q, &s, None).unwrap();
        for r in &rs[..4] {
            a.push(r).unwrap();
        }
        for r in &rs[4..] {
            b.push(r).unwrap();
        }
        a.merge(b).unwrap();
        assert_eq!(a.finish(), seq.finish());
    }

    /// Group partials stand in for the rows they fold: merged into a sink
    /// that scanned the rest, they give the answer of pushing every row —
    /// a group only the partials hold included. A shape that does not
    /// match the sink's is refused.
    #[test]
    fn group_partials_merge_like_the_rows_they_fold() {
        let q = Query::GroupBy {
            key: "region_id".into(),
            aggs: vec![AggFunc::Sum("power".into()), AggFunc::Count],
            predicate: Predicate::all(),
        };
        let s = schema();
        let rs = rows();
        let mut all = RowSink::new(&q, &s, None).unwrap();
        for r in &rs {
            all.push(r).unwrap();
        }
        // Region 2 and half of region 0 are "inner": pre-aggregated.
        let inner =
            |r: &Row| r[1] == Value::Int(2) || (r[1] == Value::Int(0) && r[0] < Value::Int(5));
        let set = AggSet::bind(&[AggFunc::Sum("power".into()), AggFunc::Count], &s).unwrap();
        let mut partials: BTreeMap<Value, Vec<AggState>> = BTreeMap::new();
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        for r in &rs {
            if inner(r) {
                let st = partials
                    .entry(r[1].clone())
                    .or_insert_with(|| set.new_states());
                set.update(st, r, &s).unwrap();
            } else {
                sink.push(r).unwrap();
            }
        }
        let partials = AggPartials::Groups(partials.into_iter().collect());
        sink.merge_agg_states(&partials).unwrap();
        assert_eq!(sink.finish(), all.finish());

        let mut grouped = RowSink::new(&q, &s, None).unwrap();
        assert!(grouped
            .merge_agg_states(&AggPartials::Scalar(set.new_states()))
            .is_err());
        let plain = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let mut scalar = RowSink::new(&plain, &s, None).unwrap();
        assert!(scalar.merge_agg_states(&partials).is_err());
    }

    #[test]
    fn push_if_filters() {
        let pred = Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(3), Value::Int(6)));
        let s = schema();
        let bound = pred.bind(&s).unwrap();
        let q = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: pred,
        };
        let mut sink = RowSink::new(&q, &s, None).unwrap();
        let mut matched = 0;
        for r in rows() {
            if sink.push_if(&r, &bound).unwrap() {
                matched += 1;
            }
        }
        assert_eq!(matched, 3);
        assert_eq!(sink.finish().into_scalars()[0], Value::Int(3));
    }

    #[test]
    fn merging_mismatched_sinks_fails() {
        let s = schema();
        let a = Query::Aggregate {
            aggs: vec![AggFunc::Count],
            predicate: Predicate::all(),
        };
        let b = Query::Select {
            project: vec![],
            predicate: Predicate::all(),
        };
        let mut sa = RowSink::new(&a, &s, None).unwrap();
        let sb = RowSink::new(&b, &s, None).unwrap();
        assert!(sa.merge(sb).is_err());
    }

    #[test]
    fn join_without_right_table_fails() {
        let q = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec![],
            right_project: vec![],
            predicate: Predicate::all(),
        };
        assert!(RowSink::new(&q, &schema(), None).is_err());
    }

    fn join_query() -> (Schema, Vec<Row>, Query) {
        let right_schema = Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("name", ValueType::Str),
        ]);
        let right_rows: Vec<Row> = (0..8)
            .map(|i| vec![Value::Int(i % 6), Value::Str(format!("u{i}"))])
            .collect();
        let q = Query::Join {
            left_key: "user_id".into(),
            right_key: "user_id".into(),
            left_project: vec!["power".into()],
            right_project: vec!["name".into()],
            predicate: Predicate::all(),
        };
        (right_schema, right_rows, q)
    }

    #[test]
    fn sibling_join_sinks_share_one_build_and_merge_in_task_order() {
        let (right_schema, right_rows, q) = join_query();
        let s = schema();
        let rs = rows();
        let mut single = RowSink::new(&q, &s, Some((&right_schema, names(&right_rows)))).unwrap();
        for r in &rs {
            single.push(r).unwrap();
        }

        let total = RowSink::new(&q, &s, Some((&right_schema, names(&right_rows)))).unwrap();
        let mut tasks: Vec<RowSink> = (0..3).map(|_| total.sibling()).collect();
        let SinkKind::Join { build, .. } = &total.kind else {
            panic!("not a join sink");
        };
        assert_eq!(Arc::strong_count(build), 4, "one build, four holders");
        assert_eq!(Arc::strong_count(&total.schema), 4);
        for (task, part) in tasks.iter_mut().zip([&rs[..3], &rs[3..4], &rs[4..]]) {
            for r in part {
                task.push(r).unwrap();
            }
        }
        let mut tasks = tasks.into_iter();
        let mut merged = tasks.next().unwrap();
        for t in tasks {
            merged.merge(t).unwrap();
        }
        let out = merged.finish();
        assert!(!out.clone().into_rows().is_empty());
        assert_eq!(out, single.finish(), "merged in task order ≡ one sink");
    }

    /// `table` as one batch, each column decoded from its cells'
    /// encoding as a reader decodes it.
    fn batch_of(s: &Schema, table: &[Row]) -> ColumnBatch {
        use dgf_common::batch::decode_column;
        use dgf_common::codec::put_value;
        let columns = s
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let mut bytes = Vec::new();
                for r in table {
                    put_value(&mut bytes, &r[c]);
                }
                let mut col = Column::skipped();
                decode_column(&bytes, table.len(), f.vtype, &mut col).unwrap();
                col
            })
            .collect();
        ColumnBatch::new(columns, table.len(), 0)
    }

    /// Bits, not approximate equality: the batch fold must update each
    /// key's states with the same values in the same order as the row
    /// fold, for a key with NULLs and a constant key alike.
    #[test]
    fn group_by_batch_fold_is_the_row_fold_bit_for_bit() {
        let s = Schema::from_pairs(&[
            ("k_nulls", ValueType::Int),
            ("k_const", ValueType::Int),
            ("power", ValueType::Float),
        ]);
        // Keys repeat out of order; sums are order-sensitive in the last
        // bits (0.1 + 0.2 + 0.3 ≠ 0.3 + 0.2 + 0.1).
        let n = 40usize;
        let table: Vec<Row> = (0..n)
            .map(|i| {
                vec![
                    if i % 5 == 0 { Value::Null } else { Value::Int([7, 3, 7, 1, 3][i % 5]) },
                    Value::Int(9),
                    Value::Float(0.1 * (i % 7) as f64 + 1e-9 * i as f64),
                ]
            })
            .collect();
        let batch = batch_of(&s, &table);
        let sparse: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        for key in ["k_nulls", "k_const"] {
            let q = Query::GroupBy {
                key: key.into(),
                aggs: vec![
                    AggFunc::Sum("power".into()),
                    AggFunc::Avg("power".into()),
                    AggFunc::Min("k_nulls".into()),
                    AggFunc::Max("k_nulls".into()),
                    AggFunc::Count,
                ],
                predicate: Predicate::all(),
            };
            for sel in [Selection::All(n), Selection::Rows(&sparse)] {
                let mut by_row = RowSink::new(&q, &s, None).unwrap();
                for i in sel.iter() {
                    by_row.push(&table[i]).unwrap();
                }
                let mut by_batch = RowSink::new(&q, &s, None).unwrap();
                by_batch.push_batch(&batch, &sel).unwrap();
                let (rows, batches) = (by_row.finish().into_groups(), by_batch.finish().into_groups());
                assert_eq!(rows.len(), batches.len(), "{key}");
                for ((rk, rv), (bk, bv)) in rows.iter().zip(&batches) {
                    // Derived equality: the same key cells, which in a
                    // column of one type is the same key order.
                    assert_eq!(rk, bk, "{key}");
                    for (r, b) in rv.iter().zip(bv) {
                        match (r, b) {
                            (Value::Float(r), Value::Float(b)) => {
                                assert_eq!(r.to_bits(), b.to_bits(), "{key} {rk:?}")
                            }
                            _ => assert_eq!(r, b, "{key} {rk:?}"),
                        }
                    }
                }
            }
        }
    }

    /// −0.0 and +0.0 are one group, keyed +0.0 whichever zero came
    /// first, by row, by batch and through a sibling merge.
    #[test]
    fn a_zero_group_key_is_positive_in_any_order() {
        let s = Schema::from_pairs(&[("k", ValueType::Float), ("power", ValueType::Float)]);
        let q = Query::GroupBy {
            key: "k".into(),
            aggs: vec![
                AggFunc::Count,
                AggFunc::Sum("power".into()),
                AggFunc::Min("k".into()),
                AggFunc::Max("k".into()),
            ],
            predicate: Predicate::all(),
        };
        let bits = |result: QueryResult| -> Vec<u64> {
            let groups = result.into_groups();
            assert_eq!(groups.len(), 1);
            let (key, values) = &groups[0];
            std::iter::once(key)
                .chain(values)
                .map(|v| match v {
                    Value::Float(f) => f.to_bits(),
                    Value::Int(n) => *n as u64,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let mut answers = Vec::new();
        for zeros in [[-0.0, 0.0], [0.0, -0.0]] {
            let table: Vec<Row> = zeros
                .iter()
                .zip([1.5, 2.25])
                .map(|(k, p)| vec![Value::Float(*k), Value::Float(p)])
                .collect();

            let mut by_row = RowSink::new(&q, &s, None).unwrap();
            for r in &table {
                by_row.push(r).unwrap();
            }

            let mut by_batch = RowSink::new(&q, &s, None).unwrap();
            let all = Selection::All(table.len());
            by_batch.push_batch(&batch_of(&s, &table), &all).unwrap();

            let mut merged = RowSink::new(&q, &s, None).unwrap();
            merged.push(&table[0]).unwrap();
            let mut sibling = merged.sibling();
            sibling.push(&table[1]).unwrap();
            merged.merge(sibling).unwrap();

            for sink in [by_row, by_batch, merged] {
                answers.push(bits(sink.finish()));
            }
        }
        assert_eq!(answers[0][0], 0);
        assert!(answers.iter().all(|a| *a == answers[0]), "{answers:x?}");
    }
}
