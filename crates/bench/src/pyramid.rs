//! Pyramid readpath experiment (DESIGN.md §14).
//!
//! The claim: on an inner-heavy multidimensional range query,
//! decomposing the fully-covered region into canonical pyramid nodes
//! (`p:` keys) cuts the KV reads spent on headers by ≥10× versus flat
//! per-cell enumeration — with the merged inner states **bit**-identical,
//! because both strategies fold the inner region through the same
//! canonical merge tree.
//!
//! The lab synthesizes the store directly instead of reorganizing a
//! million-row table: deterministic per-cell headers are written as
//! `g:` leaves, [`pyramid::rebuild_all`] derives every `p:` node
//! bottom-up (the exact folds incremental maintenance would have
//! produced), and the index metadata — one committed non-pending
//! [`ReadView`] — is put alongside, so a stock [`DgfIndex::open`]
//! reader plans against it like any live index. Two passes run the same inner-heavy query
//! under [`PlanStrategy::PrefixScan`] and [`PlanStrategy::Pyramid`],
//! each on a cold header cache, comparing KV-stats deltas. It also assembles the `BENCH_pyramid.json`
//! document.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dgf_common::obs::JsonObject;
use dgf_common::{Result, Schema, TempDir, Value, ValueType};
use dgf_core::gfu::META_VIEW_KEY;
use dgf_core::{
    pyramid, DgfEngine, DgfIndex, DimPolicy, Extents, GfuKey, GfuValue, PlanStrategy, ReadView,
    SlicePlacement, SplittingPolicy,
};
use dgf_format::FileFormat;
use dgf_hive::{HiveContext, TableRef};
use dgf_kvstore::{KvStore, MemKvStore};
use dgf_mapreduce::MrEngine;
use dgf_query::{AggFunc, AggSet, AggState, ColumnRange, Engine, Predicate, Query};
use dgf_storage::SimHdfs;

const INDEX: &str = "dgf_pyr_bench";

/// Shape of the pyramid readpath experiment.
#[derive(Debug, Clone, Copy)]
pub struct PyramidConfig {
    /// Grid cells per dimension (the grid is `n × n`).
    pub cells_per_dim: i64,
    /// Cells shaved off each side of the query box. A small odd margin
    /// keeps the box misaligned with every pyramid level, so the
    /// decomposition exercises its fringe descent instead of
    /// degenerating to one giant node.
    pub margin: i64,
    /// Pyramid height recorded in the view and built by the backfill.
    pub levels: u8,
}

impl PyramidConfig {
    /// The release-bench acceptance configuration: a 1024×1024 grid,
    /// whose margin-3 query box covers 1018² ≈ 1.04M inner cells.
    pub fn acceptance() -> PyramidConfig {
        PyramidConfig {
            cells_per_dim: 1024,
            margin: 3,
            levels: 12,
        }
    }

    /// A debug-test-sized configuration (64×64 grid, 58² inner cells).
    pub fn tiny() -> PyramidConfig {
        PyramidConfig {
            cells_per_dim: 64,
            margin: 3,
            levels: 8,
        }
    }
}

/// The synthesized store plus the warehouse a reader opens against.
pub struct PyramidLab {
    _tmp: TempDir,
    cfg: PyramidConfig,
    ctx: Arc<HiveContext>,
    base: TableRef,
    /// The store holding leaves, pyramid nodes, and index metadata.
    pub kv: Arc<dyn KvStore>,
    /// Pyramid nodes the backfill wrote.
    pub nodes_built: u64,
    /// `g:` leaf headers written.
    pub leaves: u64,
}

/// One cold-cache planning pass's outcome under a fetch strategy.
#[derive(Debug, Clone)]
pub struct ReadPass {
    /// Strategy label (`prefix_scan` / `pyramid`).
    pub strategy: &'static str,
    /// Wall time of plan assembly.
    pub wall: Duration,
    /// KV read round trips (gets + scans + multi_gets) the plan issued.
    pub read_ops: u64,
    /// Point-addressed keys requested (gets + multi_get keys).
    pub keys_requested: u64,
    /// Value bytes the store returned — scans included, so this is the
    /// one KV-level measure that sees every header a strategy fetched.
    pub bytes_read: u64,
    /// Headers merged into the inner accumulator (cells for the flat
    /// scan; decomposition items for the pyramid).
    pub inner_gfus: u64,
    /// Records those headers summarize.
    pub inner_records: u64,
    /// Level ≥ 1 nodes merged (0 for the flat scan).
    pub pyramid_nodes: u64,
    /// Leaf cells those nodes summarized.
    pub pyramid_cells: u64,
    /// Encoded merged inner states — byte equality here is bit
    /// identity of every compensated partial sum.
    pub states: Vec<u8>,
    /// Finalized scalar answers.
    pub answers: Vec<Value>,
}

fn aggs() -> Vec<AggFunc> {
    vec![AggFunc::Sum("v".into()), AggFunc::Count]
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("x", ValueType::Int),
        ("y", ValueType::Int),
        ("v", ValueType::Float),
    ]))
}

/// The deterministic per-cell header: a record count in `1..=3` and a
/// sum whose magnitude swings with the coordinates, so compensated
/// summation order is observable (uniform values would make any fold
/// order agree and the bit-identity check vacuous).
fn cell_header(x: i64, y: i64) -> (f64, u64) {
    let mix = (x * 1_009 + y * 9_176) % 9_973;
    let magnitude = 10f64.powi((mix % 7) as i32 - 3);
    (mix as f64 * magnitude, 1 + ((x + y) % 3) as u64)
}

impl PyramidLab {
    /// Synthesize the store: `n²` leaf headers, a full pyramid over
    /// them, and the metadata a reader needs to open and plan.
    pub fn build(cfg: PyramidConfig) -> Result<PyramidLab> {
        let tmp = TempDir::new("pyr-bench")?;
        let hdfs = SimHdfs::open(tmp.path())?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(1));
        let base = ctx.create_table("pyr_base", schema(), FileFormat::Text)?;
        // The reader resolves `<index>_data` at open; it stays empty
        // because an inner-only plan never reads a Slice.
        ctx.create_table(&format!("{INDEX}_data"), schema(), FileFormat::Text)?;

        let set = AggSet::bind(&aggs(), &base.schema)?;
        let kv: Arc<dyn KvStore> = Arc::new(MemKvStore::new());
        let n = cfg.cells_per_dim;
        let mut leaves = 0u64;
        for x in 0..n {
            for y in 0..n {
                let (sum, count) = cell_header(x, y);
                let states = vec![
                    AggState::Sum {
                        sum,
                        comp: 0.0,
                        non_null: count,
                    },
                    AggState::Count(count),
                ];
                let value = GfuValue {
                    header: AggSet::encode_states(&states),
                    slices: Vec::new(),
                    record_count: count,
                };
                kv.put(&GfuKey::new(vec![x, y]).encode(), &value.encode())?;
                leaves += 1;
            }
        }
        let nodes_built = pyramid::rebuild_all(kv.as_ref(), 2, cfg.levels, &set)?;

        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("x", 0, 1),
            DimPolicy::int("y", 0, 1),
        ])?;
        let extents = Extents {
            dims: vec![(0, n - 1), (0, n - 1)],
        };
        let view = ReadView {
            generation: 1,
            pending: false,
            watermark: 0,
            // The synthetic store has no reorganized files and its base
            // table holds none either, so the freshness check passes.
            files: 0,
            extents,
            data_files: Vec::new(),
            policy: policy.encode(),
            agg_keys: aggs().iter().map(|a| a.key()).collect(),
            placement: SlicePlacement::KeyHash,
            pyramid: cfg.levels,
        };
        kv.put(META_VIEW_KEY, &view.encode())?;

        Ok(PyramidLab {
            _tmp: tmp,
            cfg,
            ctx,
            base,
            kv,
            nodes_built,
            leaves,
        })
    }

    /// The inner-heavy query: the cell-aligned box `[margin, n-margin)`
    /// on both dimensions. Every cell in range is fully covered (cell
    /// width 1), so the flat scan fetches each of the
    /// [`inner_cells`](Self::inner_cells) headers while the pyramid
    /// reads its decomposition.
    pub fn query(&self) -> Query {
        let (lo, hi) = (self.cfg.margin, self.cfg.cells_per_dim - self.cfg.margin);
        Query::Aggregate {
            aggs: aggs(),
            predicate: Predicate::all()
                .and("x", ColumnRange::half_open(Value::Int(lo), Value::Int(hi)))
                .and("y", ColumnRange::half_open(Value::Int(lo), Value::Int(hi))),
        }
    }

    /// Total grid cells.
    pub fn grid_cells(&self) -> u64 {
        (self.cfg.cells_per_dim * self.cfg.cells_per_dim) as u64
    }

    /// Cells the query's inner region covers.
    pub fn inner_cells(&self) -> u64 {
        let w = (self.cfg.cells_per_dim - 2 * self.cfg.margin) as u64;
        w * w
    }

    /// One cold pass: open a fresh reader (empty header cache), plan
    /// the query under `strategy` measuring the KV-stats delta, then
    /// finalize the answer through the engine.
    pub fn read_pass(&self, strategy: PlanStrategy) -> Result<ReadPass> {
        let reader = Arc::new(DgfIndex::open(
            Arc::clone(&self.ctx),
            Arc::clone(&self.base),
            Arc::clone(&self.kv),
            INDEX,
            aggs(),
        )?);
        let q = self.query();
        let before = self.kv.stats().snapshot();
        let watch = Instant::now();
        let plan = reader.plan_with_strategy(&q, true, strategy)?;
        let wall = watch.elapsed();
        let delta = self.kv.stats().snapshot().since(&before);
        let states = plan
            .inner_states
            .as_deref()
            .map(AggSet::encode_states)
            .unwrap_or_default();
        let answers = DgfEngine::new(reader)
            .with_strategy(strategy)
            .run(&q)?
            .result
            .into_scalars();
        Ok(ReadPass {
            strategy: match strategy {
                PlanStrategy::PrefixScan => "prefix_scan",
                PlanStrategy::Pyramid => "pyramid",
            },
            wall,
            read_ops: delta.read_ops(),
            keys_requested: delta.gets + delta.multi_get_keys,
            bytes_read: delta.bytes_read,
            inner_gfus: plan.inner_gfus,
            inner_records: plan.inner_records,
            pyramid_nodes: plan.pyramid_nodes,
            pyramid_cells: plan.pyramid_cells,
            states,
            answers,
        })
    }
}

/// `flat / pyramid`, saturating to 0 when the denominator is 0 (an
/// all-cached pass read nothing — not a speedup worth claiming).
pub fn reduction(flat: u64, pyramid: u64) -> f64 {
    if pyramid == 0 {
        0.0
    } else {
        flat as f64 / pyramid as f64
    }
}

fn pass_json(p: &ReadPass) -> String {
    JsonObject::new()
        .string("strategy", p.strategy)
        .value("wall_us", p.wall.as_micros())
        .value("read_ops", p.read_ops)
        .value("keys_requested", p.keys_requested)
        .value("bytes_read", p.bytes_read)
        .value("inner_gfus", p.inner_gfus)
        .value("inner_records", p.inner_records)
        .value("pyramid_nodes", p.pyramid_nodes)
        .value("pyramid_cells", p.pyramid_cells)
        .finish()
}

/// Assemble the `BENCH_pyramid.json` document: the flat and the pyramid
/// pass plus the pyramid's read reductions over flat enumeration (the
/// headline `kv_read_reduction` is byte-based — the one KV measure that
/// sees scan-returned headers too).
pub fn pyramid_json(config: &str, lab: &PyramidLab, scan: &ReadPass, pyr: &ReadPass) -> String {
    let ops = reduction(scan.read_ops, pyr.read_ops);
    let bytes = reduction(scan.bytes_read, pyr.bytes_read);
    JsonObject::new()
        .string("experiment", "pyramid")
        .string("config", config)
        .value("grid_cells", lab.grid_cells())
        .value("inner_cells", lab.inner_cells())
        .value("leaves", lab.leaves)
        .value("nodes_built", lab.nodes_built)
        .array("passes", [pass_json(scan), pass_json(pyr)])
        .value("read_ops_reduction", format_args!("{ops:.2}"))
        .value("kv_read_reduction", format_args!("{bytes:.2}"))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-scale correctness: both strategies merge bit-identical
    /// inner states and finalize identical scalars, and even a 64×64
    /// grid clears the ≥10× read-reduction bar.
    #[test]
    fn tiny_grid_passes_are_bit_identical_and_reduced() {
        let lab = PyramidLab::build(PyramidConfig::tiny()).unwrap();
        assert_eq!(lab.leaves, lab.grid_cells());
        assert!(lab.nodes_built > 0);

        let scan = lab.read_pass(PlanStrategy::PrefixScan).unwrap();
        let pyr = lab.read_pass(PlanStrategy::Pyramid).unwrap();

        assert!(!scan.states.is_empty());
        assert_eq!(scan.states, pyr.states, "pyramid states not bit-identical");
        assert_eq!(scan.answers, pyr.answers);
        assert_eq!(scan.inner_records, pyr.inner_records);

        assert_eq!(scan.inner_gfus, lab.inner_cells());
        assert!(pyr.pyramid_nodes > 0);
        assert!(pyr.pyramid_cells > pyr.pyramid_nodes);
        assert!(
            reduction(scan.read_ops, pyr.read_ops) >= 10.0,
            "scan {} ops vs pyramid {} ops",
            scan.read_ops,
            pyr.read_ops
        );
        assert!(
            reduction(scan.bytes_read, pyr.bytes_read) >= 10.0,
            "scan {}B vs pyramid {}B",
            scan.bytes_read,
            pyr.bytes_read
        );
    }

    /// The JSON document carries the schema EXPERIMENTS.md documents.
    #[test]
    fn json_carries_the_documented_schema() {
        let lab = PyramidLab::build(PyramidConfig::tiny()).unwrap();
        let scan = lab.read_pass(PlanStrategy::PrefixScan).unwrap();
        let pyr = lab.read_pass(PlanStrategy::Pyramid).unwrap();
        let json = pyramid_json("tiny", &lab, &scan, &pyr);
        for needle in [
            "\"experiment\":\"pyramid\"",
            "\"passes\":[",
            "\"strategy\":\"prefix_scan\"",
            "\"strategy\":\"pyramid\"",
            "\"pyramid_nodes\":",
            "\"read_ops_reduction\":",
            "\"kv_read_reduction\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
