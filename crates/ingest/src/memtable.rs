//! Per-GFU in-memory buffers with running partial aggregates.
//!
//! Every acknowledged row lands in the *active* slot's cell for its
//! GFUKey, updating the same aggregate states the index pre-computes into
//! GFU headers (`sum`/`count`/`min`/`max`, paper §4.2). A flush swaps the
//! active slot into the *flushing* slot — the union the planner sees is
//! unchanged by the swap — and converts it into real Slices through the
//! staged-commit append path.
//!
//! Visibility is decided per slot against the index's persisted ingest
//! watermark: a slot is part of [`fresh cells`](Slot::fresh_cells) exactly
//! while its highest batch sequence exceeds the watermark, so the instant
//! a flush's commit lands (watermark advance and Slice publication are one
//! atomic manifest put) the flushed slot stops being merged from memory —
//! no window where rows are counted twice or not at all.

use std::collections::BTreeMap;
use std::time::Instant;

use dgf_common::{Result, Row, Schema};
use dgf_core::{FreshCell, GfuKey};
use dgf_query::{AggSet, AggState};

/// Buffered rows and running partial aggregates of one GFU cell.
#[derive(Debug)]
pub struct MemCell {
    /// Partial states of the index's pre-computed aggregate list, in
    /// index order (encodable with `AggSet::encode_states` into the same
    /// header bytes a persisted GFU carries).
    pub states: Vec<AggState>,
    /// The buffered rows themselves, in arrival order (needed for
    /// boundary merges, non-aggregate queries, and the flush).
    pub rows: Vec<Row>,
}

/// One swap slot of the memtable: a set of GFU cells filled by a range of
/// acknowledged batches.
#[derive(Debug, Default)]
pub struct Slot {
    /// Cells keyed by GFU coordinates (ordered, like the store's keys).
    pub cells: BTreeMap<Vec<i64>, MemCell>,
    /// Total buffered rows.
    pub rows: u64,
    /// Total buffered bytes (the rows' WAL encoding — the same accounting
    /// admission control uses).
    pub bytes: u64,
    /// Highest batch sequence buffered here. The slot is query-visible
    /// while this exceeds the index's persisted ingest watermark.
    pub max_seq: u64,
    /// When the oldest still-buffered row arrived (drives age-based
    /// background flushes).
    pub first_row_at: Option<Instant>,
}

impl Slot {
    /// Whether the slot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Buffer batch `seq` — each row with its GFU cell coordinates —
    /// whose WAL encoding takes `bytes`, updating the running aggregates.
    pub fn insert(
        &mut self,
        seq: u64,
        rows: impl IntoIterator<Item = (Vec<i64>, Row)>,
        bytes: u64,
        agg_set: &AggSet,
        schema: &Schema,
    ) -> Result<()> {
        for (cells, row) in rows {
            let cell = self.cells.entry(cells).or_insert_with(|| MemCell {
                states: agg_set.new_states(),
                rows: Vec::new(),
            });
            agg_set.update(&mut cell.states, &row, schema)?;
            cell.rows.push(row);
            self.rows += 1;
        }
        self.bytes += bytes;
        self.max_seq = self.max_seq.max(seq);
        self.first_row_at.get_or_insert_with(Instant::now);
        Ok(())
    }

    /// Project every cell into the planner's [`FreshCell`] form.
    pub fn fresh_cells(&self, out: &mut Vec<FreshCell>) {
        for (cells, cell) in &self.cells {
            out.push(FreshCell {
                key: GfuKey::new(cells.clone()),
                header: AggSet::encode_states(&cell.states),
                record_count: cell.rows.len() as u64,
                rows: cell.rows.clone(),
            });
        }
    }

    /// All buffered rows in cell-key order, each cell's in arrival order:
    /// the groups the flush's append writes as Slices.
    pub fn all_rows(&self) -> Vec<Row> {
        self.cells
            .values()
            .flat_map(|c| c.rows.iter().cloned())
            .collect()
    }
}

/// The two-slot memtable: `active` absorbs new batches; `flushing` holds
/// a snapshot being converted into Slices.
#[derive(Debug, Default)]
pub struct Memtable {
    /// The slot new ingests land in.
    pub active: Slot,
    /// The slot a running flush is publishing, if any.
    pub flushing: Option<Slot>,
}

impl Memtable {
    /// Whether any slot holds rows.
    pub fn has_rows(&self) -> bool {
        !self.active.is_empty() || self.flushing.as_ref().is_some_and(|s| !s.is_empty())
    }

    /// Fresh cells of every slot still ahead of `flushed_seq`.
    pub fn fresh_cells(&self, flushed_seq: u64) -> Vec<FreshCell> {
        let mut out = Vec::new();
        if !self.active.is_empty() && self.active.max_seq > flushed_seq {
            self.active.fresh_cells(&mut out);
        }
        if let Some(f) = &self.flushing {
            if !f.is_empty() && f.max_seq > flushed_seq {
                f.fresh_cells(&mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::{Value, ValueType};
    use dgf_query::AggFunc;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Float)])
    }

    fn aggs(schema: &Schema) -> AggSet {
        AggSet::bind(
            &[AggFunc::Count, AggFunc::Sum("v".into())],
            schema,
        )
        .unwrap()
    }

    #[test]
    fn partial_states_match_index_encoding() {
        let schema = schema();
        let set = aggs(&schema);
        let mut slot = Slot::default();
        let rows = [(1i64, 2.0f64), (1, 3.5), (2, 1.0)]
            .map(|(k, v)| (vec![k], vec![Value::Int(k), Value::Float(v)]));
        slot.insert(7, rows, 30, &set, &schema).unwrap();
        assert_eq!(slot.rows, 3);
        assert_eq!(slot.bytes, 30);

        let mut out = Vec::new();
        slot.fresh_cells(&mut out);
        assert_eq!(out.len(), 2);
        // Cell [1] folded two rows: its header decodes to count=2, sum=5.5.
        let c1 = &out[0];
        assert_eq!(c1.key.cells, vec![1]);
        assert_eq!(c1.record_count, 2);
        let states = set.decode_states(&c1.header).unwrap();
        assert_eq!(states[0], AggState::Count(2));
        match &states[1] {
            AggState::Sum { sum, comp, non_null } => {
                assert!((sum + comp - 5.5).abs() < 1e-9);
                assert_eq!(*non_null, 2);
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn slot_visibility_follows_watermark() {
        let schema = schema();
        let set = aggs(&schema);
        let mut mem = Memtable::default();
        let row = (vec![1], vec![Value::Int(1), Value::Float(1.0)]);
        mem.active.insert(3, [row], 5, &set, &schema).unwrap();
        assert_eq!(mem.fresh_cells(0).len(), 1);
        assert_eq!(mem.fresh_cells(2).len(), 1);
        // Watermark caught up: the slot's rows are all committed.
        assert!(mem.fresh_cells(3).is_empty());

        // A flushing slot obeys the same rule, and the active/flushing
        // union is what the planner merges.
        mem.flushing = Some(std::mem::take(&mut mem.active));
        assert_eq!(mem.fresh_cells(0).len(), 1);
        assert!(mem.fresh_cells(3).is_empty());
        assert!(mem.has_rows());
    }
}
