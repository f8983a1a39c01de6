//! Crash-atomic commit protocol: the one write path of a DGFIndex.
//!
//! Build, append, streaming flush, delta compaction and regrid all
//! change the index the same way, through one `Txn`:
//! `Txn::begin` declares Intent, the writer stages, and
//! `Txn::commit` publishes. No other code writes [`TXN_MANIFEST_KEY`].
//!
//! HAIL-style atomic publication: writers put their Slice files under a
//! **staging directory** (a sibling of the data table, so half-written
//! files never appear in split enumeration) and their GFU values under
//! **staged keys** (`s:` + live key). Nothing live is touched until a
//! single [`TxnManifest`] record flips to [`TxnState::Committed`] — that
//! one `put` is the commit point. After it, applying the transaction
//! (renaming staged files into the data directory, putting the new
//! [`ReadView`], copying staged values to their live keys) is
//! **idempotent**: every step checks whether it already happened, so a
//! crash at any point during apply or cleanup is repaired by simply
//! re-applying.
//!
//! Before the commit point the inverse holds: rolling back (deleting
//! staged keys, the staging directory, and any base-table delta file the
//! transaction wrote but never acknowledged) restores the previous epoch
//! exactly. [`recover`] dispatches between the two. It runs in three
//! places: [`DgfIndex::open`](crate::index::DgfIndex::open), the start of
//! every `Txn::begin` (so a writer can never declare Intent over a dead
//! transaction's manifest), and — best effort — whenever a writer fails
//! between `begin` and the end of `commit`. A crash or an error at *any*
//! site therefore leaves the index either fully at the old epoch or
//! fully at the new one, and the next writer on any handle starts clean.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dgf_common::codec::{self, Decoder};
use dgf_common::fault::{FaultPlan, RetryPolicy};
use dgf_common::obs::names;
use dgf_common::{counter_block, DgfError, Result};
use dgf_format::sidecar_path;
use dgf_kvstore::KvStore;
use dgf_storage::HdfsRef;

use crate::gfu::{Extents, FileId, META_GC_KEY, META_VIEW_KEY};
use crate::index::{kv_retry, DgfIndex};
use crate::policy::SplittingPolicy;
use crate::view::ReadView;
use crate::write::encode_gc_list;

/// Key of the (single) transaction manifest. One in-flight transaction
/// at a time: the index is a single-writer structure (the paper's load
/// path appends new time cells serially).
pub const TXN_MANIFEST_KEY: &[u8] = b"t:manifest";

/// Prefix under which a transaction stages its merged GFU values and
/// pyramid nodes before commit. Disjoint from the live `g:`/`p:`/`m:`
/// spaces.
pub const STAGE_PREFIX: &[u8] = b"s:";

/// The staged twin of a live key, qualified by the staging transaction
/// id: `s:` + big-endian txn + live key. The qualifier keeps staged keys
/// of transaction N invisible to a reader overlaying transaction M's
/// staged state, and big-endian order means a prefix scan of one
/// transaction's staged keys yields live-key order.
pub fn stage_key(txn: u64, live: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(STAGE_PREFIX.len() + 8 + live.len());
    k.extend_from_slice(STAGE_PREFIX);
    k.extend_from_slice(&txn.to_be_bytes());
    k.extend_from_slice(live);
    k
}

/// The scan prefix covering every staged key of one transaction.
pub fn stage_prefix(txn: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(STAGE_PREFIX.len() + 8);
    k.extend_from_slice(STAGE_PREFIX);
    k.extend_from_slice(&txn.to_be_bytes());
    k
}

/// The live key a staged key publishes to.
pub fn live_key(staged: &[u8]) -> &[u8] {
    match staged.strip_prefix(STAGE_PREFIX) {
        Some(rest) if rest.len() >= 8 => &rest[8..],
        Some(rest) => rest,
        None => staged,
    }
}

/// Lifecycle of a transaction, recorded in its manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Declared: the transaction may have written a base-table delta
    /// file and staging state, but its outcome is still undecided.
    /// Recovery rolls it back.
    Intent,
    /// The commit point has passed. Recovery re-applies (idempotently)
    /// and cleans up.
    Committed,
}

impl TxnState {
    fn code(self) -> u32 {
        match self {
            TxnState::Intent => 0,
            TxnState::Committed => 2,
        }
    }

    fn from_code(c: u32) -> Result<TxnState> {
        match c {
            0 => Ok(TxnState::Intent),
            2 => Ok(TxnState::Committed),
            n => Err(DgfError::Corrupt(format!("unknown txn state {n}"))),
        }
    }
}

/// The durable record of one reorganize transaction. Written at Intent
/// (before any other write of the transaction) and rewritten once, with
/// the whole apply recipe and the state Committed, by the commit-point
/// `put`. The recipe does not list the staged keys: the store holds
/// them under [`stage_prefix`], and that prefix *is* the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnManifest {
    /// Current lifecycle state.
    pub state: TxnState,
    /// Transaction id — the index generation the reorganize ran at.
    pub txn: u64,
    /// HDFS directory holding the transaction's staged Slice files.
    pub staging_dir: String,
    /// Base-table delta file written by this transaction (appends only);
    /// deleted on rollback because the append was never acknowledged.
    pub base_delta: Option<String>,
    /// Staged-file → live-file renames to perform at apply.
    pub renames: Vec<(String, String)>,
    /// The full encoded `m:gc` list (what was already awaiting
    /// reclamation plus the files this transaction retires), put after
    /// the staged-key publishes; empty when the transaction retires no
    /// file. Precomputed, so re-applying is a plain overwrite.
    pub gc: Vec<u8>,
    /// Encoded [`ReadView`] (with `pending` set) that apply publishes
    /// under `m:view` right after the file renames and *before* the
    /// staged-key publishes: flipping the view is the visibility pivot
    /// for live readers, and a pending view tells them to overlay this
    /// transaction's staged keys. The view is all the metadata a
    /// transaction publishes.
    pub view: Vec<u8>,
    /// Live keys this transaction retires after publishing its staged
    /// state (cell re-split/merge drops the old granularity's `g:`/`p:`
    /// keys). Deletes run *after* the view put and staged publishes, so
    /// pending-view readers have already switched to the new cells;
    /// re-deleting on recovery is a no-op.
    pub deletes: Vec<Vec<u8>>,
}

impl TxnManifest {
    /// A fresh Intent-state manifest.
    pub fn intent(txn: u64, staging_dir: String, base_delta: Option<String>) -> TxnManifest {
        TxnManifest {
            state: TxnState::Intent,
            txn,
            staging_dir,
            base_delta,
            renames: Vec::new(),
            gc: Vec::new(),
            view: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Serialize for the key-value store.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, self.state.code());
        codec::put_u64(&mut buf, self.txn);
        codec::put_str(&mut buf, &self.staging_dir);
        codec::put_str(&mut buf, self.base_delta.as_deref().unwrap_or(""));
        codec::put_u32(&mut buf, self.renames.len() as u32);
        for (from, to) in &self.renames {
            codec::put_str(&mut buf, from);
            codec::put_str(&mut buf, to);
        }
        codec::put_bytes(&mut buf, &self.gc);
        codec::put_bytes(&mut buf, &self.view);
        codec::put_u32(&mut buf, self.deletes.len() as u32);
        for k in &self.deletes {
            codec::put_bytes(&mut buf, k);
        }
        buf
    }

    /// Decode a stored manifest.
    pub fn decode(bytes: &[u8]) -> Result<TxnManifest> {
        let mut d = Decoder::new(bytes);
        let state = TxnState::from_code(d.u32()?)?;
        let txn = d.u64()?;
        let staging_dir = d.str()?.to_owned();
        let base_delta = match d.str()? {
            "" => None,
            p => Some(p.to_owned()),
        };
        // A rename is two length-prefixed paths, a retired key one
        // length-prefixed key: a count the bytes left cannot hold is
        // `Corrupt`, never an allocation.
        let n = d.count(8)?;
        let mut renames = Vec::with_capacity(n);
        for _ in 0..n {
            let from = d.str()?.to_owned();
            let to = d.str()?.to_owned();
            renames.push((from, to));
        }
        let gc = d.bytes()?.to_vec();
        let view = d.bytes()?.to_vec();
        let n = d.count(4)?;
        let mut deletes = Vec::with_capacity(n);
        for _ in 0..n {
            deletes.push(d.bytes()?.to_vec());
        }
        if d.remaining() != 0 {
            return Err(DgfError::Corrupt("txn manifest has trailing bytes".into()));
        }
        Ok(TxnManifest {
            state,
            txn,
            staging_dir,
            base_delta,
            renames,
            gc,
            view,
            deletes,
        })
    }
}

counter_block! {
    /// Transaction counters of one [`DgfIndex`] handle, covering every
    /// writer alike (they all commit through one `Txn`); projected under
    /// the `txn.*` names by [`DgfIndex::metrics`].
    pub struct TxnStats, snapshot TxnSnapshot {
        /// Transactions this handle committed and finished.
        commits: names::TXN_COMMITS,
        /// Transactions rolled back: found dead before their commit point,
        /// failed before it, or abandoned by their writer.
        rollbacks: names::TXN_ROLLBACKS,
        /// Committed transactions rolled forward by recovery instead of by
        /// the writer that committed them.
        recovered: names::TXN_RECOVERED,
        /// Staged keys published by committed transactions.
        staged_keys: names::TXN_STAGED_KEYS,
        /// Staged files (Slice files and their sidecars) renamed into the
        /// data directory.
        files_published: names::TXN_FILES_PUBLISHED,
        /// Data files moved onto the deferred-reclamation list.
        files_retired: names::TXN_FILES_RETIRED,
    }
}

impl TxnStats {
    /// Count what [`recover`] found and finished.
    pub(crate) fn count_recovery(&self, found: Option<TxnState>) {
        match found {
            Some(TxnState::Committed) => self.recovered.inc(),
            Some(TxnState::Intent) => self.rollbacks.inc(),
            None => {}
        }
    }
}

/// What differs between the writers at commit time; [`Txn::commit`]
/// does everything else.
pub(crate) struct Outcome {
    /// The grid policy of the new epoch (unchanged except by a regrid).
    pub policy: Arc<SplittingPolicy>,
    /// Per-dimension extents of the new epoch.
    pub extents: Extents,
    /// Ingest watermark to advance to (it never regresses; `None` keeps
    /// the previous view's).
    pub watermark: Option<u64>,
    /// The Slice files the writer created under the staging directory,
    /// each at [`FileId::path`] with a `.scx` sidecar beside it where the
    /// format writes one. Commit renames them into the data directory
    /// and adds them to the view.
    pub files: Vec<FileId>,
    /// Live data files the new epoch no longer reads. They leave the
    /// view and join the deferred-reclamation list (`m:gc`) instead of
    /// being deleted: a reader pinned to the old view may still hold
    /// them for one maintenance round.
    pub retire: Vec<FileId>,
    /// Live keys to delete after the staged publishes (see
    /// [`TxnManifest::deletes`]).
    pub deletes: Vec<Vec<u8>>,
}

/// One write transaction against a [`DgfIndex`]: the only code that
/// writes [`TXN_MANIFEST_KEY`]. A writer calls [`begin`](Self::begin),
/// stages Slice files under [`staging_dir`](Self::staging_dir) and GFU
/// values through [`stage`](Self::stage), and hands what is particular
/// to it to [`commit`](Self::commit). Dropping a transaction that did
/// not finish — the writer returned an error, or abandoned it — repairs
/// the store the way [`recover`] would at the next open, best effort.
pub(crate) struct Txn<'a> {
    index: &'a DgfIndex,
    manifest: TxnManifest,
    /// The view committed when the transaction began (for a build,
    /// [`DgfIndex::genesis_view`]): what the writer reads its inputs
    /// from and what [`commit`](Self::commit) derives the next view from.
    base: ReadView,
    finished: bool,
}

impl<'a> Txn<'a> {
    /// Open the next transaction of `index`: finish whatever manifest
    /// the store still holds (so no writer can overwrite a dead
    /// transaction), allocate the generation, and declare Intent before
    /// the transaction's first write. With `base_delta`, the Intent
    /// names the base-table delta file the writer is about to create
    /// ([`base_delta`](Self::base_delta)), so a rollback deletes it.
    ///
    /// A second `begin` while this handle has a transaction open is the
    /// caller breaking the single-writer rule: it is an error, never a
    /// transaction to "recover".
    pub(crate) fn begin(index: &'a DgfIndex, base_delta: bool) -> Result<Txn<'a>> {
        if index.writing.swap(true, Ordering::AcqRel) {
            return Err(DgfError::Index(
                "a write transaction is already open on this index handle (the index is \
                 single-writer: builds, appends, flushes and maintenance must not overlap)"
                    .into(),
            ));
        }
        // From here the handle's writer slot is ours; `Drop` releases it.
        let base = settle(index)
            .map(|view| {
                view.unwrap_or_else(|| DgfIndex::genesis_view(&index.policy(), &index.aggs))
            })
            .inspect_err(|_| index.writing.store(false, Ordering::Release))?;
        let gen = index.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let delta = base_delta.then(|| format!("{}/delta-{gen:05}", index.base.location));
        // A *sibling* of the data directory, so half-written Slice files
        // never appear in the data table's split enumeration.
        let staging_dir = format!("{}_staging/txn-{gen:05}", index.data.location);
        let txn = Txn {
            index,
            manifest: TxnManifest::intent(gen, staging_dir, delta),
            base,
            finished: false,
        };
        index.kv_put(TXN_MANIFEST_KEY, &txn.manifest.encode())?;
        index.crash_point("txn.intent")?;
        index.sync_point("txn.intent");
        Ok(txn)
    }

    /// The transaction id: the index generation it runs at.
    pub(crate) fn gen(&self) -> u64 {
        self.manifest.txn
    }

    /// Directory the transaction's Slice files are written under.
    pub(crate) fn staging_dir(&self) -> &str {
        &self.manifest.staging_dir
    }

    /// The view this transaction builds on.
    pub(crate) fn view(&self) -> &ReadView {
        &self.base
    }

    /// The base-table delta file declared at [`begin`](Self::begin).
    pub(crate) fn base_delta(&self) -> Option<&str> {
        self.manifest.base_delta.as_deref()
    }

    /// Put `value` under the staged twin of `live`; commit publishes it.
    pub(crate) fn stage(&self, live: &[u8], value: &[u8]) -> Result<()> {
        self.index.kv_put(&stage_key(self.manifest.txn, live), value)
    }

    /// Publish the transaction: rewrite the manifest with the full apply
    /// recipe and the state Committed — the commit point — then apply
    /// and clean up.
    pub(crate) fn commit(mut self, outcome: Outcome) -> Result<()> {
        let index = self.index;
        // The post-commit split list: the previous view's files minus
        // the retired ones, plus the files this transaction wrote (sized
        // from the staged files — slice files are immutable once
        // renamed, so the pinned lengths stay exact). Recorded in the
        // view so a pinned reader never mixes one epoch's headers with
        // another's split list. Sidecars ride the renames with their
        // slice files but are never data.
        let base = &self.base;
        let hdfs = &index.ctx.hdfs;
        let retire: HashSet<FileId> = outcome.retire.iter().copied().collect();
        let mut data_files: Vec<(FileId, u64)> =
            base.data_files.iter().filter(|(id, _)| !retire.contains(id)).copied().collect();
        let mut renames: Vec<(String, String)> = Vec::with_capacity(2 * outcome.files.len());
        for id in &outcome.files {
            let (from, to) = (id.path(&self.manifest.staging_dir), id.path(&index.data.location));
            data_files.push((*id, hdfs.file_len(&from)?));
            let sidecar = (sidecar_path(&from), sidecar_path(&to));
            renames.push((from, to));
            if hdfs.file_exists(&sidecar.0) {
                renames.push(sidecar);
            }
        }
        data_files.sort();
        data_files.dedup();
        index.crash_point("txn.staged")?;

        // The manifest gets the whole recipe: renames, the one view that
        // is the new epoch's metadata, the gc list and the retired keys.
        // What to publish is whatever sits under the stage prefix.
        let mut manifest = self.manifest.clone();
        manifest.state = TxnState::Committed;
        manifest.renames = renames;
        manifest.deletes = outcome.deletes;
        if !outcome.retire.is_empty() {
            let mut gc = index.gc_list()?;
            gc.extend(outcome.retire.iter().map(|id| id.path(&index.data.location)));
            gc.sort();
            gc.dedup();
            manifest.gc = encode_gc_list(&gc);
        }
        manifest.view = ReadView {
            generation: manifest.txn,
            pending: true,
            watermark: base.watermark.max(outcome.watermark.unwrap_or(0)),
            files: index.ctx.hdfs.list_files(&index.base.location).len() as u64,
            extents: outcome.extents,
            data_files,
            policy: outcome.policy.encode(),
            agg_keys: base.agg_keys.clone(),
            pyramid: base.pyramid,
        }
        .encode();
        // COMMIT POINT: this single put flips the epoch. Before it,
        // recovery rolls everything back; after it, recovery re-applies.
        index.kv_put(TXN_MANIFEST_KEY, &manifest.encode())?;
        index.crash_point("txn.committed")?;

        let kv = index.kv.as_ref();
        let published = apply_committed(hdfs, kv, index.retry, &manifest, index.fault_plan())?;
        index.crash_point("txn.applied")?;
        cleanup_txn(hdfs, kv, index.retry, &manifest, &published)?;
        self.finished = true;
        index.install_policy(outcome.policy);
        let stats = &index.txn_stats;
        stats.commits.inc();
        stats.staged_keys.add(published.len() as u64);
        stats.files_published.add(manifest.renames.len() as u64);
        stats.files_retired.add(outcome.retire.len() as u64);
        Ok(())
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Repair in-process instead of leaving the manifest (and an
            // orphaned delta) for the next open. Errors are swallowed:
            // if the store itself is down the manifest survives, and the
            // next `begin` or `open` is the backstop.
            let _ = settle(self.index);
        }
        // Retire the header-cache epoch only now that the new GFU values
        // are in the store (or the write failed partway through): a plan
        // racing this transaction may have cached older values under its
        // generation. Generations only need to be monotonic.
        self.index.generation.fetch_add(1, Ordering::AcqRel);
        self.index.writing.store(false, Ordering::Release);
    }
}

/// Finish whatever transaction the store holds (one `get` finds none)
/// and bring the handle's in-memory policy and generation up to
/// the committed view, which the writer that published it may never
/// have seen: a roll-forward here, or another handle's open finishing a
/// failed writer of this handle's. Returns that view, or `None` when the
/// store holds no index yet.
fn settle(index: &DgfIndex) -> Result<Option<ReadView>> {
    if index.kv_get(TXN_MANIFEST_KEY)?.is_some() {
        let found = recover(&index.ctx.hdfs, &index.kv, index.retry, None)?;
        index.txn_stats.count_recovery(found);
    }
    let Some(bytes) = index.kv_get(META_VIEW_KEY)? else {
        return Ok(None);
    };
    let view = ReadView::decode(&bytes)?;
    index.install_policy(Arc::new(SplittingPolicy::decode(&view.policy)?));
    index.generation.fetch_max(view.generation, Ordering::AcqRel);
    Ok(Some(view))
}

/// Repair an interrupted transaction, if the store holds one. Returns
/// the state the transaction was found in, or `None` when the store was
/// clean.
///
/// * [`TxnState::Intent`] — the commit point never passed: staged keys,
///   the staging directory, and any unacknowledged base-table delta file
///   are deleted, restoring the previous epoch exactly.
/// * [`TxnState::Committed`] — the commit point passed: the apply recipe
///   recorded in the manifest is (re-)executed; every step is
///   idempotent, so partial prior applies are harmless.
///
/// The manifest itself is deleted last in both directions, so a crash
/// *during recovery* is recovered by the next recovery. `fault` threads
/// a fault plan into the re-apply path, so its crash and scheduling
/// points fire during recovery too (the interleaving harness drives
/// query threads through a recovery in progress this way).
pub fn recover(
    hdfs: &HdfsRef,
    kv: &Arc<dyn KvStore>,
    retry: RetryPolicy,
    fault: Option<&Arc<FaultPlan>>,
) -> Result<Option<TxnState>> {
    let Some(bytes) = kv_retry(retry, kv.as_ref(), || kv.get(TXN_MANIFEST_KEY))? else {
        // No manifest: any staged key is an orphan from a cleanup that
        // lost the race with a crash after the manifest delete —
        // unreachable by design, but garbage-collecting is cheap.
        let orphans = kv_retry(retry, kv.as_ref(), || kv.scan_prefix(STAGE_PREFIX))?;
        for (k, _) in orphans {
            kv_retry(retry, kv.as_ref(), || kv.delete(&k))?;
        }
        return Ok(None);
    };
    let manifest = TxnManifest::decode(&bytes)?;
    match manifest.state {
        TxnState::Committed => {
            let published = apply_committed(hdfs, kv.as_ref(), retry, &manifest, fault)?;
            cleanup_txn(hdfs, kv.as_ref(), retry, &manifest, &published)?;
        }
        TxnState::Intent => {
            rollback_txn(hdfs, kv.as_ref(), retry, &manifest)?;
        }
    }
    Ok(Some(manifest.state))
}

/// Phase B of the commit protocol: make the committed transaction
/// live, and return the staged keys it published. Every step is
/// idempotent — renames skip when the destination exists, the publishes
/// copy whatever one scan of the transaction's stage prefix still holds
/// (a staged key an earlier cleanup removed was published before it was
/// removed, and is simply absent), the view and `m:gc` puts are plain
/// overwrites of precomputed values.
///
/// Ordering is load-bearing for live readers (DESIGN.md §11): the
/// new pending [`ReadView`] is put *after* the renames (so its split
/// list resolves) and *before* the first live GFU overwrite. A
/// reader pinned to the old view that races the publishes will see
/// the new view at validation time and retry; a reader pinned to the
/// pending view reconstructs the complete new state by overlaying
/// this transaction's staged keys.
fn apply_committed(
    hdfs: &HdfsRef,
    kv: &dyn KvStore,
    retry: RetryPolicy,
    manifest: &TxnManifest,
    fault: Option<&Arc<FaultPlan>>,
) -> Result<Vec<Vec<u8>>> {
    for (from, to) in &manifest.renames {
        if hdfs.file_exists(to) {
            continue;
        }
        if hdfs.file_exists(from) {
            kv_retry(retry, kv, || hdfs.rename_file(from, to))?;
        }
    }
    if let Some(plan) = fault {
        plan.crash_point("apply.renamed")?;
    }
    kv_retry(retry, kv, || kv.put(META_VIEW_KEY, &manifest.view))?;
    if let Some(plan) = fault {
        plan.crash_point("apply.view")?;
    }
    let staged = kv_retry(retry, kv, || kv.scan_prefix(&stage_prefix(manifest.txn)))?;
    let mut published = Vec::with_capacity(staged.len());
    for (skey, value) in staged {
        if let Some(plan) = fault {
            plan.sync_point("apply.publish-cell");
        }
        kv_retry(retry, kv, || kv.put(live_key(&skey), &value))?;
        published.push(skey);
    }
    if let Some(plan) = fault {
        plan.crash_point("apply.published")?;
    }
    if !manifest.gc.is_empty() {
        kv_retry(retry, kv, || kv.put(META_GC_KEY, &manifest.gc))?;
    }
    // Retire keys the transaction re-gridded away. Runs after the
    // staged publishes: a pending-view reader masks these keys with
    // the staged tombstone twins until they are gone, so at no point
    // can it see both grid epochs. Deleting an already-deleted key
    // is a no-op, keeping re-apply idempotent.
    for k in &manifest.deletes {
        kv_retry(retry, kv, || kv.delete(k).map(|_| ()))?;
    }
    if let Some(plan) = fault {
        if !manifest.deletes.is_empty() {
            plan.crash_point("apply.retired")?;
        }
    }
    Ok(published)
}

/// Remove a finished (applied) transaction's staging state; `staged`
/// is the keys [`apply_committed`] published. The view is re-put with
/// `pending` cleared only after the staged keys are gone (readers read
/// staged-then-live, so a deleted staged key always falls back to the
/// already-published live value); the manifest goes last: if a crash
/// interrupts cleanup, recovery re-applies and re-cleans.
fn cleanup_txn(
    hdfs: &HdfsRef,
    kv: &dyn KvStore,
    retry: RetryPolicy,
    manifest: &TxnManifest,
    staged: &[Vec<u8>],
) -> Result<()> {
    for skey in staged {
        kv_retry(retry, kv, || kv.delete(skey))?;
    }
    let mut view = ReadView::decode(&manifest.view)?;
    view.pending = false;
    let enc = view.encode();
    kv_retry(retry, kv, || kv.put(META_VIEW_KEY, &enc))?;
    hdfs.delete_tree(&manifest.staging_dir)?;
    kv_retry(retry, kv, || kv.delete(TXN_MANIFEST_KEY))?;
    kv_retry(retry, kv, || kv.flush())?;
    Ok(())
}

/// Undo a transaction that never reached its commit point. The sweep
/// covers every transaction's stage prefix, not only this one's, so it
/// also collects what an older dead writer may have left.
fn rollback_txn(
    hdfs: &HdfsRef,
    kv: &dyn KvStore,
    retry: RetryPolicy,
    manifest: &TxnManifest,
) -> Result<()> {
    let staged = kv_retry(retry, kv, || kv.scan_prefix(STAGE_PREFIX))?;
    for (k, _) in staged {
        kv_retry(retry, kv, || kv.delete(&k))?;
    }
    hdfs.delete_tree(&manifest.staging_dir)?;
    if let Some(delta) = &manifest.base_delta {
        // Torn or whole: a delta its writer never closed is on disk only.
        hdfs.delete_file(delta)?;
    }
    kv_retry(retry, kv, || kv.delete(TXN_MANIFEST_KEY))?;
    kv_retry(retry, kv, || kv.flush())?;
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let mut m = TxnManifest::intent(7, "/warehouse/idx/data_staging/txn-00007".into(), None);
        assert_eq!(TxnManifest::decode(&m.encode()).unwrap(), m);

        m.state = TxnState::Committed;
        m.base_delta = Some("/warehouse/base/delta-00007".into());
        m.renames = vec![("/a/x".into(), "/b/x".into()), ("/a/y".into(), "/b/y".into())];
        m.gc = vec![0xBE, 0xEF];
        m.view = vec![0xDE, 0xAD];
        assert_eq!(TxnManifest::decode(&m.encode()).unwrap(), m);

        m.deletes = vec![b"g:old1".to_vec(), b"p:old2".to_vec()];
        assert_eq!(TxnManifest::decode(&m.encode()).unwrap(), m);
    }

    /// Seeded mutations of a committed manifest — every truncation, one
    /// bit of every byte, and over-large counts spliced over both list
    /// counts — are `Corrupt` or decode to a manifest that encodes back to
    /// the same bytes; never a panic, and never an allocation the bytes
    /// cannot back.
    #[test]
    fn mutated_manifests_are_corrupt_or_round_trip() {
        let (staging, delta) = ("/w/idx/data_staging/txn-00007", "/w/base/delta-00007");
        let mut m = TxnManifest::intent(7, staging.into(), Some(delta.into()));
        m.state = TxnState::Committed;
        m.renames = vec![("/a/x".into(), "/b/x".into()), ("/a/y".into(), "/b/y".into())];
        m.gc = vec![0xBE, 0xEF];
        m.view = vec![0xDE, 0xAD, 0x01];
        m.deletes = vec![b"g:old1".to_vec(), b"p:old2".to_vec()];
        let good = m.encode();
        let mut mutants: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        let mut rng = dgf_common::fault::XorShift64::new(32);
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << rng.next_below(8);
            mutants.push(bytes);
        }
        let renames_at = 4 + 8 + 4 + staging.len() + 4 + delta.len();
        let deletes_at = good.len() - 2 * (4 + 6) - 4;
        assert_eq!(good[renames_at..renames_at + 4], 2u32.to_le_bytes());
        assert_eq!(good[deletes_at..deletes_at + 4], 2u32.to_le_bytes());
        for at in [renames_at, deletes_at] {
            for n in [3, 1 << 20, u32::MAX] {
                let mut bytes = good.clone();
                bytes[at..at + 4].copy_from_slice(&n.to_le_bytes());
                mutants.push(bytes);
            }
        }
        for (i, bytes) in mutants.iter().enumerate() {
            match std::panic::catch_unwind(|| TxnManifest::decode(bytes)) {
                Ok(Ok(decoded)) => assert_eq!(decoded.encode(), *bytes, "mutant {i}"),
                Ok(Err(DgfError::Corrupt(_))) => {}
                Ok(Err(e)) => panic!("mutant {i}: {e}"),
                Err(_) => panic!("mutant {i} panicked"),
            }
        }
        for n in [1u32 << 20, u32::MAX] {
            let mut bytes = good[..renames_at].to_vec();
            bytes.extend(n.to_le_bytes());
            assert!(matches!(TxnManifest::decode(&bytes), Err(DgfError::Corrupt(_))));
        }
    }

    #[test]
    fn stage_and_live_keys_invert() {
        let live = b"g:\x00\x01";
        let staged = stage_key(42, live);
        assert!(staged.starts_with(STAGE_PREFIX));
        assert!(staged.starts_with(&stage_prefix(42)));
        assert!(!staged.starts_with(&stage_prefix(41)));
        assert_eq!(live_key(&staged), live);
    }

    #[test]
    fn stage_keys_preserve_live_key_order_within_a_txn() {
        let lives: Vec<&[u8]> = vec![b"g:\x00", b"g:\x01", b"g:\x01\x02", b"p:\x01"];
        let staged: Vec<Vec<u8>> = lives.iter().map(|l| stage_key(9, l)).collect();
        for w in staged.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn corrupt_manifests_are_rejected() {
        assert!(TxnManifest::decode(b"").is_err());
        let mut good = TxnManifest::intent(1, "/s".into(), None).encode();
        good.push(0xAB);
        assert!(TxnManifest::decode(&good).is_err());
        // State codes this build does not write.
        for code in [1u32, 9] {
            let mut bad_state = TxnManifest::intent(1, "/s".into(), None).encode();
            bad_state[..4].copy_from_slice(&code.to_le_bytes());
            assert!(matches!(TxnManifest::decode(&bad_state), Err(DgfError::Corrupt(_))));
        }
    }
}
