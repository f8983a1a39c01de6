//! The write side of a DGFIndex: the reorganization job (paper §4.2,
//! Algorithms 1 and 2) and the writers built on it.
//!
//! Construction is a MapReduce job that **reorganizes** the base table.
//! A map task standardizes each record's indexed dimensions into a
//! GFUKey and folds the record into its split's own cell for that key
//! (rows and pre-computed aggregates), then emits one `(GFUKey, cell)`
//! part per cell: an in-mapper combiner, so the shuffle moves one pair
//! per (split, cell), not per row. The key-hash shuffle sends every part
//! of a cell to one reducer, in map-task order; the reducer joins them
//! (`GfuCells::merge_parts`), writes each cell's rows contiguously as a
//! *Slice* of its output file and stages the `GFUKey → GFUValue` pair.
//! Because the shuffle groups and sorts by key, a Slice always holds
//! exactly the records of one GFU, in split order and, within a split,
//! in read order. A regrid runs the same job over the index's own Slices
//! under a new policy.
//!
//! The time dimension makes the index append-only: new meter data lands in
//! new time cells, so `append` merges new Slices into the store — no
//! rebuild, and write throughput is unaffected (paper §1 contribution
//! iii). An append and a streaming flush write their rows to the base
//! table for scans and hand them, as [`GfuCells`], to the reducer's body:
//! no job, nothing read back. Every writer publishes through one `Txn`
//! ([`crate::txn`]).

use std::collections::HashMap;
use std::sync::Arc;

use dgf_common::{Result, Row, Stopwatch};
use dgf_format::{sidecar_path, SidecarBuilder};
use dgf_hive::{open_input, BuildReport, ScanInput, TableDesc, TableWriter};
use dgf_mapreduce::{JobOutput, JobReport};
use dgf_query::{AggSet, AggState};
use dgf_storage::{FileSplit, HdfsRef};

use crate::fresh::{GfuCell, GfuCells};
use crate::gfu::{Extents, FileId, GfuKey, GfuValue, SliceLoc, GFU_PREFIX};
use crate::index::DgfIndex;
use crate::policy::SplittingPolicy;
use crate::pyramid;
use crate::txn::{live_key, stage_prefix, Outcome, Txn};

impl DgfIndex {
    /// Index new records: they are appended to the base table as a fresh
    /// file and written as new Slices; existing GFU entries extend
    /// rather than rebuild (the paper's time-extension load path). A row
    /// the base table cannot hold ([`TableDesc::conform`]) or the grid
    /// cannot route is an error before any write.
    pub fn append(&self, rows: &[Row]) -> Result<BuildReport> {
        let span = self.profiler().span("append");
        let kv_before = self.kv.stats().snapshot();
        let attempt = (|| -> Result<BuildReport> {
            let rows = self.base.conform(rows)?;
            let mut cells = GfuCells::new(self.policy(), &self.base.schema, &self.aggs)?;
            for row in rows.iter() {
                cells.insert(row.clone())?;
            }
            let watch = Stopwatch::start();
            self.write_delta_and_cells(rows.iter(), &cells, None)?;
            Ok(BuildReport {
                build_time: watch.elapsed(),
                index_size_bytes: self.kv.logical_size_bytes(),
                index_entries: self.gfu_count()? as u64,
            })
        })();
        self.kv.stats().snapshot().since(&kv_before).attach_to_span(&span);
        attempt
    }

    /// The streaming flush: write buffered `cells` as
    /// [`append`](Self::append) writes its rows (the base-table delta
    /// holds them cell by cell in key order), and advance the persisted
    /// ingest watermark to `watermark` *atomically with the commit*: the
    /// watermark is a field of the [`ReadView`](crate::view::ReadView)
    /// the transaction publishes, so after a crash either both the new
    /// Slices and the watermark are live or neither is, and WAL replay
    /// can tell flushed batches from unflushed ones.
    pub fn append_cells(&self, cells: &GfuCells, watermark: u64) -> Result<()> {
        self.write_delta_and_cells(cells.rows(), cells, Some(watermark))
    }

    /// Write `delta` to the base table, then `cells` — re-grouped under
    /// the policy the commit publishes — as the Slices of one file.
    fn write_delta_and_cells<'r>(
        &self,
        delta: impl Iterator<Item = &'r Row>,
        cells: &GfuCells,
        watermark: Option<u64>,
    ) -> Result<()> {
        // The Intent declares the delta file about to be written BEFORE
        // it is written: a crash between the base-table write and the
        // commit point must roll the unacknowledged delta back, or the
        // index would be permanently stale.
        let txn = Txn::begin(self, true)?;
        let path = txn.base_delta().expect("declared at begin");
        let mut w = TableWriter::create(&self.ctx.hdfs, path, &self.base)?;
        for row in delta {
            w.write(row)?;
        }
        w.close()?;
        self.crash_point("append.delta-written")?;
        self.sync_point("append.delta-written");
        let policy = self.policy();
        let cells = cells.regroup(&policy)?;
        let mut written = Vec::new();
        if !cells.cells.is_empty() {
            let file = FileId::new(txn.gen(), 0);
            written.push((self.write_slices(&txn, file, false, &cells)?, file));
        }
        self.commit_slices(txn, policy, written, watermark, false)
    }

    /// The reorganization job (Algorithms 1 + 2) of a build or a regrid,
    /// run inside the transaction `txn` its caller began. With a `regrid`
    /// policy the splits cover the index's own live data files and the
    /// job is a **full rewrite** under the *new* policy (see
    /// [`commit_slices`](Self::commit_slices)).
    pub(crate) fn reorganize(
        &self,
        txn: Txn<'_>,
        splits: Vec<FileSplit>,
        regrid: Option<Arc<SplittingPolicy>>,
    ) -> Result<JobReport> {
        let rewrite = regrid.is_some();
        let policy = regrid.unwrap_or_else(|| self.policy());
        // Every map task and every reducer fills a copy of it.
        let empty = GfuCells::new(Arc::clone(&policy), &self.base.schema, &self.aggs)?;
        let num_reducers = self.ctx.engine.threads().min(splits.len()).max(1);
        let (ctx, base) = (&self.ctx, &self.base);

        let job = if splits.is_empty() {
            // Nothing to index. The transaction still commits, so the
            // metadata and a view exist and queries work.
            JobOutput {
                outputs: Vec::new(),
                report: JobReport::default(),
            }
        } else {
            self.ctx.engine.map_reduce(
                splits,
                num_reducers,
                // Map (Algorithm 1), combined in the mapper: standardize
                // dims → GFUKey and fold the split's rows into its own
                // cells, then emit one (key, cell) part per cell. A
                // regrid's splits cover the data table's files, which
                // have the base table's schema and format.
                &|_, split: FileSplit, e| {
                    let mut cells = empty.clone();
                    let input = ScanInput::FullSplit(split);
                    open_input(ctx, base, &input)?
                        .for_each_row(|_, row| cells.insert(row.clone()))?;
                    for (key, cell) in cells.cells {
                        e.emit(key.encode(), cell);
                    }
                    Ok(())
                },
                None,
                // Reduce (Algorithm 2): one STAGED file per reducer. A
                // key's parts arrive in map-task order (the shuffle's sort
                // is stable), so each cell's rows keep the order one
                // reducer folding every row would have given them.
                &|tid, groups: Vec<(Vec<u8>, Vec<Arc<GfuCell>>)>| {
                    let mut cells = empty.clone();
                    for (key, parts) in groups {
                        cells.merge_parts(GfuKey::decode(&key, policy.arity())?, parts)?;
                    }
                    let file = FileId::new(txn.gen(), tid as u32);
                    Ok((self.write_slices(&txn, file, rewrite, &cells)?, file))
                },
            )?
        };
        let report = job.report;
        self.commit_slices(txn, policy, job.outputs, None, rewrite)?;
        Ok(report)
    }

    /// The body of a reducer (Algorithm 2): write `cells` as the Slices
    /// of the one STAGED file `file`, in key order, and stage each
    /// cell's final post-commit value, its header merged with the live
    /// one. Nothing live changes until commit. Returns the extents of the
    /// cells written.
    fn write_slices(&self, txn: &Txn<'_>, file: FileId, rewrite: bool, cells: &GfuCells) -> Result<Extents> {
        let agg_set = AggSet::bind(&self.aggs, &self.base.schema)?;
        // Slice locations name the file by id, which the rename into the
        // data directory at apply preserves: keys publish unmodified.
        let mut w = SliceWriter::create(&self.ctx.hdfs, &file.path(txn.staging_dir()), &self.base)?;
        let mut extents = Extents::empty(cells.policy.arity());
        for (key, cell) in &cells.cells {
            extents.observe(key);
            let start = w.offset();
            for row in &cell.rows {
                w.write(row)?;
            }
            let slice = SliceLoc::new(file, start, w.end_slice()?);
            // The staged value is the FINAL post-commit value: the live
            // value (untouched until commit) merged with this slice. Each
            // key reaches one writer once per transaction, so publishing
            // it later is an idempotent put.
            self.sync_point("reorg.stage-cell");
            // A regrid rewrite replaces the keyspace wholesale: new cell
            // coordinates may collide with a live old-granularity key,
            // and merging with it would double-count every record it held.
            let key = key.encode();
            let old = if rewrite { None } else { self.kv_get(&key)? };
            let merged = merge_gfu(old.as_deref(), &cell.states, slice, cell.rows.len() as u64, &agg_set)?;
            txn.stage(&key, &merged.encode())?;
        }
        w.close()?;
        Ok(extents)
    }

    /// The commit tail of every writer of new Slices: fold the `written`
    /// files' extents into the view's, stage the pyramid nodes above the
    /// staged cells, and commit under `policy` with the ingest
    /// `watermark`. A `rewrite` (regrid) replaces the grid instead: its
    /// extents come from its own files alone, its tombstones and
    /// `deletes` retire every old-granularity key, and the replaced
    /// files join the deferred-reclamation list.
    fn commit_slices(
        &self,
        txn: Txn<'_>,
        policy: Arc<SplittingPolicy>,
        written: Vec<(Extents, FileId)>,
        watermark: Option<u64>,
        rewrite: bool,
    ) -> Result<()> {
        let mut extents = if rewrite {
            Extents::empty(policy.arity())
        } else {
            txn.view().extents.clone()
        };
        written.iter().for_each(|(e, _)| extents.merge(e));
        let files = written.into_iter().map(|(_, file)| file).collect();
        // Everything the writer staged, by live key: the final post-commit
        // values of the `g:` cells it wrote. The stage prefix is the
        // list; the two passes below share one scan of it.
        let levels = self.pyramid_levels();
        let mut staged: HashMap<Vec<u8>, GfuValue> = HashMap::new();
        if levels.is_some() || rewrite {
            for (skey, v) in self.kv_scan_prefix(&stage_prefix(txn.gen()))? {
                staged.insert(live_key(&skey).to_vec(), GfuValue::decode(&v)?);
            }
        }
        // Stage the pyramid delta in the SAME transaction: recompute
        // every node whose subtree holds a cell this writer touched, from
        // the final post-commit child values. The staged nodes publish
        // through the same apply phase as the cells — visibility flips
        // with the one `m:view` put, so readers never see cells and
        // ancestors from different epochs.
        if let Some(levels) = levels {
            self.stage_pyramid_updates(&txn, levels, rewrite, &mut staged)?;
        }
        // A rewrite retires every old-granularity key it did not
        // re-stage: an identity-valued tombstone is staged over each one
        // (so a pending-view reader's staged-over-live overlay masks the
        // old grid completely — new cell coordinates share the old key
        // space, so un-masked old keys would answer the new grid's
        // probes), and the manifest's `deletes` removes them at apply.
        let mut deletes: Vec<Vec<u8>> = Vec::new();
        let mut retire: Vec<FileId> = Vec::new();
        if rewrite {
            // A rewrite's view lists only its own outputs: the files it
            // read — the previous view's — are retired wholesale (not
            // deleted: a pinned reader may still hold that view).
            retire = txn.view().data_files.iter().map(|(id, _)| *id).collect();
            let agg_set = AggSet::bind(&self.aggs, &self.base.schema)?;
            let tombstone = GfuValue {
                header: AggSet::encode_states(&agg_set.new_states()),
                slices: Vec::new(),
                record_count: 0,
            }
            .encode();
            let mut old_keys = self.kv_scan_prefix(GFU_PREFIX)?;
            old_keys.extend(self.kv_scan_prefix(pyramid::PYRAMID_PREFIX)?);
            for (k, _) in old_keys {
                if staged.contains_key(&k) {
                    continue;
                }
                txn.stage(&k, &tombstone)?;
                deletes.push(k);
            }
        }
        txn.commit(Outcome {
            policy,
            extents,
            watermark,
            files,
            retire,
            deletes,
        })
    }

    /// Recompute and stage the pyramid nodes dirtied by `txn`'s staged
    /// cells (`current`, by live key; every node staged here joins it).
    /// Every dirty level-`k` parent is merged from its 2^d children
    /// ([`pyramid::fold_node`]): touched children come from this
    /// transaction's staged values (their *final* post-commit state),
    /// untouched siblings from the live store. The nodes are staged
    /// through the same [`Txn::stage`] as the cells, so the generic
    /// apply/rollback/recovery machinery publishes or
    /// discards them with the cells — no pyramid-specific crash
    /// handling exists or is needed.
    /// `rewrite` (regrid) folds strictly from this transaction's staged
    /// cells: the live store holds old-granularity values whose
    /// coordinates may collide with new ones, so falling back to it
    /// would fold stale children into the new pyramid.
    pub(crate) fn stage_pyramid_updates(
        &self,
        txn: &Txn<'_>,
        levels: u8,
        rewrite: bool,
        current: &mut HashMap<Vec<u8>, GfuValue>,
    ) -> Result<()> {
        let agg_set = AggSet::bind(&self.aggs, &self.base.schema)?;
        let arity = self.policy().arity();
        let mut dirty: Vec<Vec<i64>> = Vec::new();
        for live in current.keys().filter(|k| k.starts_with(GFU_PREFIX)) {
            dirty.push(GfuKey::decode(live, arity)?.cells);
        }
        for level in 1..=levels {
            // Parent coords are not monotone in child order: sort+dedup.
            let mut parents: Vec<Vec<i64>> =
                dirty.iter().map(|c| pyramid::parent_coords(c)).collect();
            parents.sort();
            parents.dedup();
            // One scheduling point per LEVEL, not per parent: the
            // interleaving harness can still pause mid-pyramid-staging
            // without its seeded pauses dominating a commit. Staging
            // changes nothing a reader sees, so readers do not wait on it.
            self.sync_point("reorg.stage-pyramid");
            for parent in &parents {
                let child_value = |coords: &[i64]| -> Result<Option<(Vec<AggState>, u64)>> {
                    let ckey = pyramid::level_key(level - 1, coords);
                    let value = match current.get(&ckey) {
                        Some(v) => Some(v.clone()),
                        None if rewrite => None,
                        None => self
                            .kv_get(&ckey)?
                            .as_deref()
                            .map(GfuValue::decode)
                            .transpose()?,
                    };
                    match value {
                        None => Ok(None),
                        Some(v) => Ok(Some((agg_set.decode_states(&v.header)?, v.record_count))),
                    }
                };
                let folded = pyramid::fold_node(
                    &agg_set,
                    pyramid::child_coords(parent).iter().map(|c| child_value(c)),
                )?;
                // A dirty parent always has at least one present child
                // (the staged cell that dirtied it), but stay defensive.
                let Some((states, count)) = folded else { continue };
                let node = GfuValue {
                    header: AggSet::encode_states(&states),
                    slices: Vec::new(),
                    record_count: count,
                };
                let nkey = pyramid::pyramid_key(level, parent);
                txn.stage(&nkey, &node.encode())?;
                current.insert(nkey, node);
            }
            dirty = parents;
        }
        self.crash_point("reorg.pyramid-staged")?;
        Ok(())
    }
}

/// Encode the `m:gc` deferred-reclamation list (count + paths).
pub(crate) fn encode_gc_list(paths: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    dgf_common::codec::put_u32(&mut buf, paths.len() as u32);
    for p in paths {
        dgf_common::codec::put_str(&mut buf, p);
    }
    buf
}

/// Decode the `m:gc` deferred-reclamation list.
pub(crate) fn decode_gc_list(bytes: &[u8]) -> Result<Vec<String>> {
    let mut d = dgf_common::codec::Decoder::new(bytes);
    let n = d.count(4)?;
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        paths.push(d.str()?.to_owned());
    }
    if d.remaining() != 0 {
        return Err(dgf_common::DgfError::Corrupt("gc list has trailing bytes".into()));
    }
    Ok(paths)
}

/// Writer of slice-aligned reorganized data: the table's one
/// [`TableWriter`], plus, for RCFile, a [`SidecarBuilder`] that sees
/// every row and, at close, writes the zone-map + hierarchical bitmap
/// sidecar beside the data file (`<path>.scx`, DESIGN.md §15). Written
/// into the staging directory, the sidecar rides the same staged-commit
/// renames as its slice file, so it is never visible without the data it
/// describes.
pub(crate) struct SliceWriter {
    writer: TableWriter,
    hdfs: HdfsRef,
    path: String,
    sidecar: Option<SidecarBuilder>,
}

impl SliceWriter {
    /// A writer of `table`'s format, schema and group size.
    pub(crate) fn create(hdfs: &HdfsRef, path: &str, table: &TableDesc) -> Result<SliceWriter> {
        let writer = TableWriter::create(hdfs, path, table)?;
        let sidecar = matches!(writer, TableWriter::Rc(_)).then(|| {
            SidecarBuilder::new(table.schema.fields().iter().map(|f| f.name.clone()).collect())
        });
        Ok(SliceWriter {
            writer,
            hdfs: hdfs.clone(),
            path: path.to_owned(),
            sidecar,
        })
    }

    /// Offset where the next slice will begin.
    pub(crate) fn offset(&self) -> u64 {
        self.writer.offset()
    }

    /// Append one record.
    pub(crate) fn write(&mut self, row: &Row) -> Result<()> {
        let start = self.writer.offset();
        self.writer.write(row)?;
        if let Some(sidecar) = &mut self.sidecar {
            sidecar.observe(row);
        }
        // A full row group flushes on the row that fills it.
        self.sealed(start);
        Ok(())
    }

    /// Close the current slice at a record/group boundary; returns its
    /// exclusive end offset.
    pub(crate) fn end_slice(&mut self) -> Result<u64> {
        let start = self.writer.offset();
        let end = self.writer.seal()?;
        self.sealed(start);
        Ok(end)
    }

    pub(crate) fn close(mut self) -> Result<u64> {
        // Seal any group still open (the reducer normally ends every
        // slice first, making this a no-op) so the builder and the file
        // agree on group boundaries before the footer is written.
        self.end_slice()?;
        let data_len = self.writer.close()?;
        if let Some(sidecar) = self.sidecar {
            let bytes = sidecar.finish(data_len).encode();
            let mut w = self.hdfs.create(&sidecar_path(&self.path))?;
            use std::io::Write as _;
            w.write_all(&bytes)?;
            w.close()?;
        }
        Ok(data_len)
    }

    /// Tell the sidecar that the group begun at `start` is on disk, if
    /// the writer's offset has moved past it.
    fn sealed(&mut self, start: u64) {
        let end = self.writer.offset();
        if let Some(sidecar) = self.sidecar.as_mut().filter(|_| end != start) {
            sidecar.finish_group(start, end - start);
        }
    }
}

/// Merge a freshly built slice of `count` records, whose header folded
/// to `states`, into an existing GFU value (or create one).
pub(crate) fn merge_gfu(
    old: Option<&[u8]>,
    states: &[AggState],
    slice: SliceLoc,
    count: u64,
    agg_set: &AggSet,
) -> Result<GfuValue> {
    match old {
        None => Ok(GfuValue {
            header: AggSet::encode_states(states),
            slices: vec![slice],
            record_count: count,
        }),
        Some(bytes) => {
            let mut v = GfuValue::decode(bytes)?;
            if !agg_set.is_empty() {
                let mut merged = agg_set.decode_states(&v.header)?;
                agg_set.merge(&mut merged, states)?;
                v.header = AggSet::encode_states(&merged);
            }
            v.slices.push(slice);
            v.record_count += count;
            Ok(v)
        }
    }
}
