//! The memtable: acknowledged rows in their GFU cells until a flush.
//!
//! Every acknowledged row joins the *active* slot's [`GfuCells`], which
//! routes it to its cell and folds it into the cell's running states of
//! the index's pre-computed aggregates (`sum`/`count`/`min`/`max`, paper
//! §4.2) — the very header a flush writes for those rows. A slot's cells
//! keep the policy they were routed under, the index's when the slot was
//! opened: rows buffered across a regrid are re-grouped where they are
//! read (by the planner, by the flush), not here. A flush swaps the
//! active slot into the *flushing* slot — the union the planner sees is
//! unchanged by the swap — and hands its cells, as they are, to
//! `DgfIndex::append_cells`.
//!
//! A slot's cells are shared, not copied, with every plan that
//! snapshots them ([`fresh cells`](Memtable::fresh_cells) hands out
//! `Arc` clones under the lock). An ingest that finds its slot held by a
//! snapshot copies the cell map and the cells its batch touches
//! (`Arc::make_mut`), so the snapshot never sees a later row and no
//! ingest ever copies a whole slot.
//!
//! Visibility is decided per slot against the index's persisted ingest
//! watermark: a slot is part of [`fresh cells`](Memtable::fresh_cells)
//! exactly while its highest batch sequence exceeds the watermark, so the
//! instant a flush's commit lands (watermark advance and Slice
//! publication are one atomic manifest put) the flushed slot stops being
//! merged from memory — no window where rows are counted twice or not at
//! all.

use std::sync::Arc;
use std::time::Instant;

use dgf_common::{Result, Row};
use dgf_core::GfuCells;

/// One swap slot of the memtable: the cells filled by a range of
/// acknowledged batches.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The buffered rows in their cells, shared with the snapshots plans
    /// hold.
    pub(crate) cells: Arc<GfuCells>,
    /// Total buffered rows.
    pub(crate) rows: u64,
    /// Total buffered bytes (the rows' WAL encoding — the same accounting
    /// admission control uses).
    pub(crate) bytes: u64,
    /// Highest batch sequence buffered here. The slot is query-visible
    /// while this exceeds the index's persisted ingest watermark.
    pub(crate) max_seq: u64,
    /// When the oldest still-buffered row arrived (drives age-based
    /// background flushes).
    pub(crate) first_row_at: Option<Instant>,
}

impl Slot {
    /// An empty slot filling `cells`.
    pub(crate) fn new(cells: GfuCells) -> Slot {
        Slot { cells: Arc::new(cells), rows: 0, bytes: 0, max_seq: 0, first_row_at: None }
    }

    /// Whether the slot holds no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Buffer batch `seq`, whose WAL encoding takes `bytes`: each row
    /// joins its cell and folds into the cell's states. Cells a snapshot
    /// still holds are copied first (see the module docs).
    pub(crate) fn insert(&mut self, seq: u64, rows: Vec<Row>, bytes: u64) -> Result<()> {
        let cells = Arc::make_mut(&mut self.cells);
        for row in rows {
            cells.insert(row)?;
            self.rows += 1;
        }
        self.bytes += bytes;
        self.max_seq = self.max_seq.max(seq);
        self.first_row_at.get_or_insert_with(Instant::now);
        Ok(())
    }
}

/// The two-slot memtable: `active` absorbs new batches; `flushing` is the
/// slot a running flush is writing, shared with that flush.
#[derive(Debug)]
pub(crate) struct Memtable {
    /// The slot new ingests land in.
    pub(crate) active: Slot,
    /// The slot a running flush is publishing, if any.
    pub(crate) flushing: Option<Arc<Slot>>,
}

impl Memtable {
    /// The cells of every slot still ahead of `flushed_seq`, shared.
    pub(crate) fn fresh_cells(&self, flushed_seq: u64) -> Vec<Arc<GfuCells>> {
        let slots = std::iter::once(&self.active).chain(self.flushing.as_deref());
        let ahead = slots.filter(|s| !s.is_empty() && s.max_seq > flushed_seq);
        ahead.map(|s| Arc::clone(&s.cells)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Schema, Value, ValueType};
    use dgf_core::{DimPolicy, GfuKey, SplittingPolicy};
    use dgf_query::{AggFunc, AggState};

    fn slot() -> Slot {
        let schema = Arc::new(Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Float)]));
        let policy = Arc::new(SplittingPolicy::new(vec![DimPolicy::int("k", 0, 1)]).unwrap());
        let aggs = [AggFunc::Count, AggFunc::Sum("v".into())];
        Slot::new(GfuCells::new(policy, &schema, &aggs).unwrap())
    }

    #[test]
    fn slot_visibility_follows_watermark() {
        let mut mem = Memtable { active: slot(), flushing: None };
        let rows = [(1i64, 2.0f64), (1, 3.5), (2, 1.0)].map(|(k, v)| vec![Value::Int(k), Value::Float(v)]);
        mem.active.insert(3, rows.to_vec(), 30).unwrap();
        assert_eq!((mem.active.rows, mem.active.bytes), (3, 30));
        assert_eq!(mem.fresh_cells(0).len(), 1);
        assert_eq!(mem.fresh_cells(2).len(), 1);
        // Watermark caught up: the slot's rows are all committed.
        assert!(mem.fresh_cells(3).is_empty());

        // A flushing slot obeys the same rule, and the active/flushing
        // union is what the planner merges.
        mem.flushing = Some(Arc::new(std::mem::replace(&mut mem.active, slot())));
        assert_eq!(mem.fresh_cells(0).len(), 1);
        assert!(mem.fresh_cells(3).is_empty());
    }

    /// A snapshot is the slot's own set, and an ingest while it is held
    /// leaves it as it was: the slot copies the cells the batch touches
    /// and keeps sharing the rest.
    #[test]
    fn a_snapshot_is_shared_and_isolated() {
        let row = |k: i64, v: f64| vec![Value::Int(k), Value::Float(v)];
        let headers = |set: &GfuCells| -> Vec<(usize, Vec<AggState>)> {
            set.cells().map(|(_, c)| (c.rows.len(), c.states.clone())).collect()
        };
        let mut mem = Memtable { active: slot(), flushing: None };
        mem.active.insert(1, vec![row(1, 2.0), row(2, 3.5), row(3, 1.0)], 30).unwrap();
        let held = mem.fresh_cells(0).pop().unwrap();
        assert!(Arc::ptr_eq(&held, &mem.active.cells));
        let seen = headers(&held);

        mem.active.insert(2, vec![row(2, 0.5)], 10).unwrap();
        assert_eq!(headers(&held), seen);
        let next = mem.fresh_cells(0).pop().unwrap();
        let rows: usize = headers(&next).iter().map(|(n, _)| n).sum();
        assert_eq!(rows, 4);
        let touched = GfuKey::new(vec![2]);
        let (_, grown) = next.cells().find(|(k, _)| **k == touched).unwrap();
        assert_eq!(grown.states[0], AggState::Count(2));
        assert_eq!(held.cells().count(), next.cells().count());
        for ((key, was), (_, now)) in held.cells().zip(next.cells()) {
            assert_eq!(Arc::ptr_eq(was, now), *key != touched, "cell {key:?}");
        }
    }
}
