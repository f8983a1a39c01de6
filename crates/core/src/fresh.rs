//! Buffered cells: the rows of a GFU and their header, from ack to Slice.
//!
//! Each cell of a [`GfuCells`] holds its rows in arrival order and folds
//! the index's pre-computed aggregates over them: the header a build
//! writes for those rows. A build's map task, `append` and the memtable
//! (WAL replay included) fill cells through [`GfuCells::insert`]; a
//! build's reducer joins the map tasks' parts of each cell
//! (`GfuCells::merge_parts`); the Slice writer writes cells as they are.
//! A set records the policy it was routed under; a reader under another
//! (a plan pinned to a regridded view, a flush after a regrid) re-groups
//! it through the same `insert`.
//!
//! Each cell sits behind an [`Arc`], and so does a memtable's whole set:
//! a snapshot is a pointer copy, and [`insert`](GfuCells::insert) copies
//! a cell only while a snapshot still holds it (`Arc::make_mut`).
//!
//! A [`FreshSource`] (the `dgf-ingest` memtable) hands the planner its
//! unflushed cells. The trait lives here so the ingest crate implements
//! it and holds no reference back to the [`DgfIndex`](crate::DgfIndex).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use dgf_common::{Result, Row, SchemaRef};
use dgf_query::{AggFunc, AggSet, AggState};

use crate::gfu::GfuKey;
use crate::policy::SplittingPolicy;

/// The rows of one GFU and their header.
#[derive(Debug, Clone)]
pub struct GfuCell {
    /// Running states of the index's pre-computed aggregates, in index
    /// order, folded over `rows` in order.
    pub states: Vec<AggState>,
    /// The rows, in arrival order.
    pub rows: Vec<Row>,
}

/// Rows routed to their GFU cells under one splitting policy.
#[derive(Debug, Clone)]
pub struct GfuCells {
    /// The policy the rows were routed under.
    pub(crate) policy: Arc<SplittingPolicy>,
    /// The schema column of each policy dimension.
    columns: Vec<usize>,
    schema: SchemaRef,
    aggs: AggSet,
    /// The cells, in key order, each shared with every snapshot of the
    /// set that saw it.
    pub(crate) cells: BTreeMap<GfuKey, Arc<GfuCell>>,
}

impl GfuCells {
    /// No cells yet: rows of `schema` will route under `policy` and fold
    /// `aggs`, the index's pre-computed aggregates.
    pub fn new(policy: Arc<SplittingPolicy>, schema: &SchemaRef, aggs: &[AggFunc]) -> Result<GfuCells> {
        let columns = policy.dims().iter().map(|d| schema.index_of(&d.name));
        Ok(GfuCells {
            columns: columns.collect::<Result<_>>()?,
            aggs: AggSet::bind(aggs, schema)?,
            schema: Arc::clone(schema),
            policy,
            cells: BTreeMap::new(),
        })
    }

    /// The cell `row` belongs to (Algorithm 1's standardization of every
    /// indexed dimension).
    pub fn route(&self, row: &Row) -> Result<GfuKey> {
        let dims = self.columns.iter().zip(self.policy.dims());
        Ok(GfuKey::new(dims.map(|(i, d)| d.cell_of(&row[*i])).collect::<Result<_>>()?))
    }

    /// Route `row` to its cell and fold it into that cell's header. A
    /// cell a snapshot still holds is copied first; the snapshot keeps
    /// the old one.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        let key = self.route(&row)?;
        let aggs = &self.aggs;
        let cell = self.cells.entry(key).or_insert_with(|| {
            Arc::new(GfuCell {
                states: aggs.new_states(),
                rows: Vec::new(),
            })
        });
        let cell = Arc::make_mut(cell);
        aggs.update(&mut cell.states, &row, &self.schema)?;
        cell.rows.push(row);
        Ok(())
    }

    /// Add cell `key`, new to this set, joined from `parts` that other
    /// sets folded, each over a run of its rows, in the order given:
    /// states merge ([`AggSet::merge`], exact, so the header is the one
    /// the rows' fold in that order reaches) and rows move, concatenated.
    /// A part no other handle shares is unwrapped, not copied.
    pub(crate) fn merge_parts(
        &mut self,
        key: GfuKey,
        parts: impl IntoIterator<Item = Arc<GfuCell>>,
    ) -> Result<()> {
        let mut parts = parts.into_iter().map(Arc::unwrap_or_clone);
        let Some(mut cell) = parts.next() else {
            return Ok(());
        };
        for mut part in parts {
            self.aggs.merge(&mut cell.states, &part.states)?;
            cell.rows.append(&mut part.rows);
        }
        self.cells.insert(key, Arc::new(cell));
        Ok(())
    }

    /// These rows under `policy`: the cells themselves when they were
    /// routed under it, else every row re-inserted cell by cell in key
    /// order, so each new cell keeps its rows' order.
    pub fn regroup(&self, policy: &Arc<SplittingPolicy>) -> Result<Cow<'_, GfuCells>> {
        if self.policy == *policy {
            return Ok(Cow::Borrowed(self));
        }
        let mut cells = GfuCells::new(Arc::clone(policy), &self.schema, self.aggs.funcs())?;
        for row in self.rows() {
            cells.insert(row.clone())?;
        }
        Ok(Cow::Owned(cells))
    }

    /// Every row, cell by cell in key order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Row> {
        self.cells.values().flat_map(|c| &c.rows)
    }

    /// The cells, in key order.
    pub fn cells(&self) -> impl Iterator<Item = (&GfuKey, &Arc<GfuCell>)> {
        self.cells.iter()
    }
}

/// A source of acknowledged-but-unflushed rows, consulted at plan time.
///
/// `flushed_seq` is the ingest watermark of the view the plan pinned
/// (see `DgfIndex::ingest_watermark`): the highest ingest batch sequence
/// whose rows that view holds in Slices. The planner relies on one
/// contract: a buffered set is returned while its highest batch sequence
/// exceeds the given watermark, and it leaves the source only after the
/// commit that flushed it has landed. Then a plan pinned before that
/// commit reads the set from memory, a plan pinned after it reads the
/// rows from the store, and the plan's validation of its pinned view
/// catches a commit landing in between: no row is counted twice or
/// missed.
pub trait FreshSource: Send + Sync {
    /// Snapshot of every buffered set of cells holding rows with batch
    /// sequence greater than `flushed_seq`; empty when nothing is
    /// buffered. The same coordinates may appear in more than one set
    /// (e.g. an actively-filling buffer and one staged for flush); the
    /// planner absorbs each independently.
    ///
    /// The sets are *shared* with the source and *immutable*: a later
    /// ingest into a set a snapshot holds copies what it changes
    /// (`Arc::make_mut`), never the rows the snapshot sees. Taking the
    /// snapshot is O(1) per set under the source's lock — a pointer copy,
    /// not a row copy.
    fn fresh_cells(&self, flushed_seq: u64) -> Vec<Arc<GfuCells>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DimPolicy;
    use dgf_common::{Schema, Value, ValueType};

    fn cells(interval: i64) -> GfuCells {
        let schema = Arc::new(Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Float)]));
        let policy = SplittingPolicy::new(vec![DimPolicy::int("k", 0, interval)]).unwrap();
        GfuCells::new(Arc::new(policy), &schema, &[AggFunc::Count, AggFunc::Sum("v".into())]).unwrap()
    }

    fn sum(states: &[AggState]) -> f64 {
        match &states[1] {
            AggState::Sum { sum, .. } => sum.value(),
            other => panic!("unexpected state {other:?}"),
        }
    }

    /// Rows fold into their cell's states in arrival order, and a regroup
    /// under a finer policy re-routes them, each new cell keeping its
    /// rows' order.
    #[test]
    fn rows_fold_into_their_cells_and_follow_a_regroup() {
        let mut set = cells(2);
        for (k, v) in [(1i64, 2.0f64), (0, 3.5), (2, 1.0), (1, 0.5)] {
            set.insert(vec![Value::Int(k), Value::Float(v)]).unwrap();
        }
        let keys: Vec<_> = set.cells.keys().map(|k| k.cells.clone()).collect();
        assert_eq!(keys, [vec![0], vec![1]]);
        let low = &set.cells[&GfuKey::new(vec![0])];
        assert_eq!(low.states[0], AggState::Count(3));
        assert_eq!(sum(&low.states), 6.0);
        let order: Vec<_> = low.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(order, [Value::Int(1), Value::Int(0), Value::Int(1)]);
        assert!(matches!(set.regroup(&set.policy).unwrap(), Cow::Borrowed(_)));

        let regrouped = set.regroup(&cells(1).policy).unwrap().into_owned();
        assert_eq!(regrouped.cells.len(), 3);
        let one = &regrouped.cells[&GfuKey::new(vec![1])];
        assert_eq!(one.states[0], AggState::Count(2));
        assert_eq!(sum(&one.states), 2.5);
        assert_eq!(one.rows[0][1], Value::Float(2.0));
        assert!(set.route(&vec![Value::Null, Value::Float(0.0)]).is_err());
    }

    /// Cells folded over runs of the rows and joined in run order are the
    /// cells one set folding every row in that order holds: the same rows
    /// in the same order and the same states, to the bit.
    #[test]
    fn merged_parts_are_the_fold_of_every_row() {
        let rows: Vec<Row> = (0..30i64)
            .map(|i| vec![Value::Int(i % 7), Value::Float(0.1 * i as f64 + 1e15 * (i % 3) as f64)])
            .collect();
        let mut whole = cells(3);
        rows.iter().try_for_each(|r| whole.insert(r.clone())).unwrap();
        let mut parts: BTreeMap<GfuKey, Vec<Arc<GfuCell>>> = BTreeMap::new();
        for run in rows.chunks(11) {
            let mut part = cells(3);
            run.iter().try_for_each(|r| part.insert(r.clone())).unwrap();
            for (key, cell) in part.cells {
                parts.entry(key).or_default().push(cell);
            }
        }
        assert!(parts.values().any(|p| p.len() > 1));
        let mut joined = cells(3);
        for (key, cell_parts) in parts {
            joined.merge_parts(key, cell_parts).unwrap();
        }
        let keys = |set: &GfuCells| set.cells.keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(&joined), keys(&whole));
        for (key, cell) in &whole.cells {
            let other = &joined.cells[key];
            assert_eq!(other.rows, cell.rows);
            assert_eq!(AggSet::encode_states(&other.states), AggSet::encode_states(&cell.states));
        }
    }
}
