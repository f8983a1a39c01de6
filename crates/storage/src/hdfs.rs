//! `SimHdfs`: a single-process stand-in for HDFS.
//!
//! Files are real files on the local file system, so reads and writes in
//! benchmarks do real I/O. What is simulated is the *cluster metadata*: an
//! HDFS-style namespace with a [`NameNode`] accounting for directories,
//! files, and blocks, and block-granularity split enumeration for MapReduce
//! input. Every reader and writer charges a shared [`IoStats`] block, which
//! is how the paper's "records read" tables are measured.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use dgf_common::fault::{io_error_is_transient, FaultPlan, RetryPolicy};
use dgf_common::stats::{IoStats, IoStatsRef};
use dgf_common::{DgfError, Result};

use crate::namenode::{parent_of, FileMeta, NameNode};
use crate::split::{splits_for_file, FileSplit};

/// Default block size. The paper uses 64 MB; the default here is scaled down
/// so laptop-sized datasets still produce multi-split tables.
pub const DEFAULT_BLOCK_SIZE: u64 = 4 * 1024 * 1024;

/// Configuration for a simulated cluster.
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    /// Block size in bytes; also the default split size.
    pub block_size: u64,
    /// Replication factor. Only affects reported storage cost, not layout.
    pub replication: u32,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            replication: 2, // the paper's cluster setting
        }
    }
}

/// Chaos-mode wiring: a fault schedule plus the retry policy that
/// readers and writers use to absorb its transient faults internally
/// (the fault decision is drawn *before* any bytes move, so a retry is
/// always idempotent).
#[derive(Debug, Clone)]
struct FaultCtx {
    plan: Arc<FaultPlan>,
    retry: RetryPolicy,
}

/// A simulated HDFS instance rooted at a local directory.
#[derive(Debug)]
pub struct SimHdfs {
    root: PathBuf,
    config: HdfsConfig,
    namenode: Mutex<NameNode>,
    stats: IoStatsRef,
    fault: Mutex<Option<FaultCtx>>,
}

/// Shared handle to a [`SimHdfs`].
pub type HdfsRef = Arc<SimHdfs>;

impl SimHdfs {
    /// Create a cluster rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>, config: HdfsConfig) -> Result<HdfsRef> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Arc::new(SimHdfs {
            root,
            config,
            namenode: Mutex::new(NameNode::new()),
            stats: Arc::new(IoStats::default()),
            fault: Mutex::new(None),
        }))
    }

    /// Create a cluster with default configuration.
    pub fn open(root: impl Into<PathBuf>) -> Result<HdfsRef> {
        SimHdfs::new(root, HdfsConfig::default())
    }

    /// Reopen a cluster whose files already exist under `root`: the
    /// NameNode recovers its namespace by walking the directory tree
    /// (the equivalent of loading the fsimage after a restart). Every
    /// file gets a fresh inode id: ids are per cluster instance.
    pub fn reopen(root: impl Into<PathBuf>, config: HdfsConfig) -> Result<HdfsRef> {
        let hdfs = SimHdfs::new(root, config)?;
        fn walk(hdfs: &SimHdfs, local: &std::path::Path, hpath: &str) -> Result<()> {
            for entry in std::fs::read_dir(local)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with('.') {
                    // Hidden entries are not part of the namespace (the
                    // CLI keeps key-value store logs in a dot-directory),
                    // mirroring Hadoop's treatment of hidden files.
                    continue;
                }
                let child = if hpath == "/" {
                    format!("/{name}")
                } else {
                    format!("{hpath}/{name}")
                };
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    hdfs.namenode.lock().mkdirs(&child);
                    walk(hdfs, &entry.path(), &child)?;
                } else {
                    hdfs.finish_file(&child, meta.len());
                }
            }
            Ok(())
        }
        let root = hdfs.root.clone();
        walk(&hdfs, &root, "/")?;
        Ok(hdfs)
    }

    /// The local directory backing this cluster.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// The configured block size.
    pub fn block_size(&self) -> u64 {
        self.config.block_size
    }

    /// The shared I/O counters charged by all readers and writers.
    pub fn stats(&self) -> &IoStatsRef {
        &self.stats
    }

    /// Enable chaos mode: every subsequent `create`/`open_reader` and
    /// every read/write of the handles they return consults `plan`.
    /// Transient faults are absorbed internally under `retry` (counted in
    /// [`IoStats::retries`]); crashes at writer close produce torn,
    /// unregistered files, like an HDFS client dying before the block
    /// report.
    pub fn enable_faults(&self, plan: Arc<FaultPlan>, retry: RetryPolicy) {
        *self.fault.lock() = Some(FaultCtx { plan, retry });
    }

    /// Disable chaos mode (already-open readers/writers keep the plan
    /// they captured).
    pub fn disable_faults(&self) {
        *self.fault.lock() = None;
    }

    fn fault_ctx(&self) -> Option<FaultCtx> {
        self.fault.lock().clone()
    }

    /// Consult the fault plan (if any) for a metadata-level operation,
    /// retrying transient faults into `stats.retries`.
    fn fault_check(&self, what: &str, is_write: bool) -> Result<()> {
        let Some(ctx) = self.fault_ctx() else {
            return Ok(());
        };
        let mut attempt = 1u32;
        loop {
            let res = if is_write {
                ctx.plan.before_write(what)
            } else {
                ctx.plan.before_read(what)
            };
            match res {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < ctx.retry.max_attempts => {
                    self.stats.retries.inc();
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Estimated NameNode heap usage for the current namespace.
    pub fn namenode_memory_bytes(&self) -> u64 {
        self.namenode.lock().memory_bytes()
    }

    /// Namespace object counts `(dirs, files, blocks)`.
    pub fn namenode_objects(&self) -> (u64, u64, u64) {
        let nn = self.namenode.lock();
        (nn.dir_count(), nn.file_count(), nn.block_count())
    }

    fn localize(&self, path: &str) -> Result<PathBuf> {
        let rel = path
            .strip_prefix('/')
            .ok_or_else(|| DgfError::Io(io::Error::other(format!("path {path:?} not absolute"))))?;
        if rel.split('/').any(|c| c == "..") {
            return Err(DgfError::Io(io::Error::other(format!(
                "path {path:?} escapes the namespace"
            ))));
        }
        Ok(self.root.join(rel))
    }

    /// Create a directory (and ancestors).
    pub fn mkdirs(&self, path: &str) -> Result<()> {
        std::fs::create_dir_all(self.localize(path)?)?;
        self.namenode.lock().mkdirs(path);
        Ok(())
    }

    /// Whether a file exists at `path`.
    pub fn file_exists(&self, path: &str) -> bool {
        self.namenode.lock().file(path).is_some()
    }

    /// Whether a directory exists at `path`.
    pub fn dir_exists(&self, path: &str) -> bool {
        self.namenode.lock().is_dir(path)
    }

    /// The NameNode's record of the file at `path`.
    fn meta(&self, path: &str) -> Result<FileMeta> {
        self.namenode
            .lock()
            .file(path)
            .cloned()
            .ok_or_else(|| DgfError::Io(io::Error::new(io::ErrorKind::NotFound, path.to_owned())))
    }

    /// Length of the file at `path`.
    pub fn file_len(&self, path: &str) -> Result<u64> {
        Ok(self.meta(path)?.len)
    }

    /// The inode id of the file at `path`: like [`file_ids`](Self::file_ids)
    /// for one file, a NameNode lookup that reads no byte.
    pub fn file_id(&self, path: &str) -> Result<u64> {
        Ok(self.meta(path)?.id)
    }

    /// All files under `dir`, recursively, as `(path, len)` in path order.
    pub fn list_files(&self, dir: &str) -> Vec<(String, u64)> {
        self.namenode
            .lock()
            .files_under(dir)
            .into_iter()
            .map(|(p, m)| (p, m.len))
            .collect()
    }

    /// The inode ids of every file under `dir`, recursively, in path
    /// order (the order of [`list_files`](Self::list_files)). A NameNode
    /// lookup: no file is opened and no byte is read. Two calls return
    /// the same list exactly when no file under `dir` was created,
    /// deleted or renamed in between, whatever the names and lengths.
    pub fn file_ids(&self, dir: &str) -> Vec<u64> {
        self.namenode
            .lock()
            .files_under(dir)
            .into_iter()
            .map(|(_, m)| m.id)
            .collect()
    }

    /// Create a new file for writing. Fails if the file already exists —
    /// HDFS files are write-once, which is exactly the meter-data contract
    /// the paper relies on (feature ii in §1).
    pub fn create(self: &Arc<Self>, path: &str) -> Result<HdfsWriter> {
        self.fault_check("hdfs.create", true)?;
        if self.file_exists(path) {
            return Err(DgfError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                path.to_owned(),
            )));
        }
        if let Some(parent) = parent_of(path) {
            self.mkdirs(&parent)?;
        }
        let local = self.localize(path)?;
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(local)?;
        Ok(HdfsWriter {
            inner: Some(BufWriter::new(file)),
            hdfs: Arc::clone(self),
            path: path.to_owned(),
            written: 0,
            fault: self.fault_ctx(),
        })
    }

    /// Open a file for positioned reading.
    pub fn open_reader(&self, path: &str) -> Result<HdfsReader> {
        self.fault_check("hdfs.open_reader", false)?;
        let len = self.file_len(path)?;
        let file = File::open(self.localize(path)?)?;
        self.stats.opens.inc();
        Ok(HdfsReader {
            file,
            len,
            stats: Arc::clone(&self.stats),
            fault: self.fault_ctx(),
        })
    }

    /// Read a whole (small) file into memory, charging its bytes to
    /// [`IoStats`] like any other read. Used for
    /// slice sidecar indexes, whose planner-side consumers want the full
    /// checksummed payload in one call.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>> {
        let mut r = self.open_reader(path)?;
        let mut buf = Vec::new();
        io::Read::read_to_end(&mut r, &mut buf)?;
        Ok(buf)
    }

    /// Atomically move a file to a new path. Fails if `from` is missing
    /// or `to` already exists; parents of `to` are created. This is the
    /// publish step of the staging→commit protocol (HDFS renames are
    /// atomic NameNode operations). The file keeps its inode id.
    pub fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        self.fault_check("hdfs.rename", true)?;
        let meta = self.meta(from)?;
        if self.file_exists(to) {
            return Err(DgfError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                to.to_owned(),
            )));
        }
        if let Some(parent) = parent_of(to) {
            self.mkdirs(&parent)?;
        }
        std::fs::rename(self.localize(from)?, self.localize(to)?)?;
        let mut nn = self.namenode.lock();
        nn.remove_file(from);
        nn.put_file(to, meta);
        Ok(())
    }

    /// Delete one file: its inode, and its bytes also when it has none —
    /// a writer that died before its close left them on disk outside the
    /// namespace, where a restart's re-walk would find them. A path that
    /// holds nothing is a no-op.
    pub fn delete_file(&self, path: &str) -> Result<()> {
        self.namenode.lock().remove_file(path);
        match std::fs::remove_file(self.localize(path)?) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            removed => Ok(removed?),
        }
    }

    /// Delete a directory tree.
    pub fn delete_tree(&self, path: &str) -> Result<()> {
        self.namenode.lock().remove_tree(path);
        let local = self.localize(path)?;
        if local.exists() {
            std::fs::remove_dir_all(local)?;
        }
        Ok(())
    }

    /// Enumerate block-aligned input splits for every file under `dir`.
    pub fn splits_for_dir(&self, dir: &str) -> Vec<FileSplit> {
        self.splits_for_dir_sized(dir, self.config.block_size)
    }

    /// Enumerate input splits of at most `split_size` bytes.
    pub fn splits_for_dir_sized(&self, dir: &str, split_size: u64) -> Vec<FileSplit> {
        let mut out = Vec::new();
        for (path, len) in self.list_files(dir) {
            out.extend(splits_for_file(&path, len, split_size));
        }
        out
    }

    /// Total bytes stored under `dir` (logical, before replication).
    pub fn dir_size(&self, dir: &str) -> u64 {
        self.list_files(dir).iter().map(|(_, l)| *l).sum()
    }

    fn finish_file(&self, path: &str, len: u64) {
        let blocks = len.div_ceil(self.config.block_size);
        self.namenode.lock().add_file(path, len, blocks);
    }
}

/// Buffered writer charging [`IoStats`] and registering the file with the
/// NameNode on [`close`](HdfsWriter::close).
#[derive(Debug)]
pub struct HdfsWriter {
    inner: Option<BufWriter<File>>,
    hdfs: HdfsRef,
    path: String,
    written: u64,
    fault: Option<FaultCtx>,
}

impl HdfsWriter {
    /// Bytes written so far.
    pub fn position(&self) -> u64 {
        self.written
    }

    /// The file's HDFS path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Flush, register with the NameNode, and return the final length.
    pub fn close(mut self) -> Result<u64> {
        self.close_inner()?;
        Ok(self.written)
    }

    fn close_inner(&mut self) -> Result<()> {
        let Some(mut w) = self.inner.take() else {
            return Ok(());
        };
        // Crash point before close: the client dies with data in flight.
        // The file is torn at a schedule-chosen offset and never reaches
        // the NameNode — exactly the partial-write state HDFS leaves when
        // a writer crashes before its final block report.
        if let Some(ctx) = &self.fault {
            if let Err(e) = ctx.plan.crash_point("hdfs.writer.close") {
                let _ = w.flush();
                drop(w);
                let keep = ctx.plan.draw_below(self.written + 1);
                if let Ok(local) = self.hdfs.localize(&self.path) {
                    if let Ok(f) = OpenOptions::new().write(true).open(local) {
                        let _ = f.set_len(keep);
                    }
                }
                return Err(e);
            }
        }
        w.flush()?;
        self.hdfs.finish_file(&self.path, self.written);
        // Crash point after close: the file is durable and registered,
        // but the caller never learns the close succeeded.
        if let Some(ctx) = &self.fault {
            ctx.plan.crash_point("hdfs.writer.close.ack")?;
        }
        Ok(())
    }

    /// Consult the fault plan before moving bytes; absorbs transient
    /// faults internally (idempotent — nothing was transferred yet).
    fn fault_check_io(fault: &Option<FaultCtx>, stats: &IoStats, what: &str) -> io::Result<()> {
        let Some(ctx) = fault else {
            return Ok(());
        };
        let mut attempt = 1u32;
        loop {
            match ctx.plan.before_write_io(what) {
                Ok(()) => return Ok(()),
                Err(e) if io_error_is_transient(&e) && attempt < ctx.retry.max_attempts => {
                    stats.retries.inc();
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Write for HdfsWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        HdfsWriter::fault_check_io(&self.fault, &self.hdfs.stats, "hdfs.write")?;
        let w = self
            .inner
            .as_mut()
            .ok_or_else(|| io::Error::other("writer already closed"))?;
        let n = w.write(buf)?;
        self.written += n as u64;
        self.hdfs.stats.bytes_written.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

impl Drop for HdfsWriter {
    fn drop(&mut self) {
        // Best effort: an explicitly closed writer is a no-op here.
        let _ = self.close_inner();
    }
}

/// Positioned reader charging [`IoStats`].
#[derive(Debug)]
pub struct HdfsReader {
    file: File,
    len: u64,
    stats: IoStatsRef,
    fault: Option<FaultCtx>,
}

impl HdfsReader {
    /// File length at open time.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Read for HdfsReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Draw the fault before the transfer so a retry re-reads nothing.
        if let Some(ctx) = &self.fault {
            let mut attempt = 1u32;
            loop {
                match ctx.plan.before_read_io("hdfs.read") {
                    Ok(()) => break,
                    Err(e) if io_error_is_transient(&e) && attempt < ctx.retry.max_attempts => {
                        self.stats.retries.inc();
                        attempt += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        let n = self.file.read(buf)?;
        self.stats.bytes_read.add(n as u64);
        Ok(n)
    }
}

impl Seek for HdfsReader {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.stats.seeks.inc();
        self.file.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::TempDir;
    use std::io::BufReader;

    fn cluster() -> (TempDir, HdfsRef) {
        let t = TempDir::new("hdfs").unwrap();
        let h = SimHdfs::new(
            t.path(),
            HdfsConfig {
                block_size: 64,
                replication: 2,
            },
        )
        .unwrap();
        (t, h)
    }

    #[test]
    fn write_then_read_round_trip() {
        let (_t, h) = cluster();
        let mut w = h.create("/data/f1").unwrap();
        w.write_all(b"hello hdfs").unwrap();
        let len = w.close().unwrap();
        assert_eq!(len, 10);
        assert_eq!(h.file_len("/data/f1").unwrap(), 10);

        let mut r = h.open_reader("/data/f1").unwrap();
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "hello hdfs");
        assert_eq!(h.stats().bytes_read.get(), 10);
        assert_eq!(h.stats().bytes_written.get(), 10);
    }

    #[test]
    fn create_is_write_once() {
        let (_t, h) = cluster();
        h.create("/f").unwrap().close().unwrap();
        assert!(h.create("/f").is_err());
    }

    #[test]
    fn splits_follow_block_size() {
        let (_t, h) = cluster();
        let mut w = h.create("/tab/part-0").unwrap();
        w.write_all(&[b'x'; 150]).unwrap();
        w.close().unwrap();
        let mut w = h.create("/tab/part-1").unwrap();
        w.write_all(&[b'y'; 64]).unwrap();
        w.close().unwrap();

        let splits = h.splits_for_dir("/tab");
        assert_eq!(splits.len(), 4); // 64+64+22, 64
        assert_eq!(splits[0], FileSplit::new("/tab/part-0", 0, 64));
        assert_eq!(splits[2], FileSplit::new("/tab/part-0", 128, 22));
        assert_eq!(splits[3], FileSplit::new("/tab/part-1", 0, 64));
        assert_eq!(h.dir_size("/tab"), 214);
    }

    #[test]
    fn namenode_tracks_blocks() {
        let (_t, h) = cluster();
        let mut w = h.create("/a/f").unwrap();
        w.write_all(&[0u8; 130]).unwrap();
        w.close().unwrap();
        let (dirs, files, blocks) = h.namenode_objects();
        assert_eq!(files, 1);
        assert_eq!(blocks, 3); // ceil(130/64)
        assert!(dirs >= 2); // "/" and "/a"
        assert_eq!(
            h.namenode_memory_bytes(),
            (dirs + files + blocks) * crate::namenode::BYTES_PER_OBJECT
        );
    }

    #[test]
    fn seek_and_positioned_read() {
        let (_t, h) = cluster();
        let mut w = h.create("/f").unwrap();
        w.write_all(b"0123456789").unwrap();
        w.close().unwrap();

        let mut r = h.open_reader("/f").unwrap();
        r.seek(SeekFrom::Start(4)).unwrap();
        let mut buf = [0u8; 3];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"456");
        assert_eq!(h.stats().seeks.get(), 1);
        assert_eq!(h.stats().opens.get(), 1);
    }

    #[test]
    fn delete_file_and_tree() {
        let (_t, h) = cluster();
        h.create("/t/a").unwrap().close().unwrap();
        h.create("/t/b").unwrap().close().unwrap();
        h.delete_file("/t/a").unwrap();
        assert!(!h.file_exists("/t/a"));
        assert!(h.file_exists("/t/b"));
        h.delete_tree("/t").unwrap();
        assert!(!h.file_exists("/t/b"));
        assert!(h.open_reader("/t/b").is_err());
    }

    #[test]
    fn dropped_writer_still_registers() {
        let (_t, h) = cluster();
        {
            let mut w = h.create("/f").unwrap();
            w.write_all(b"abc").unwrap();
            // dropped without close()
        }
        assert_eq!(h.file_len("/f").unwrap(), 3);
    }

    #[test]
    fn path_validation() {
        let (_t, h) = cluster();
        assert!(h.mkdirs("relative").is_err());
        assert!(h.mkdirs("/ok/../escape").is_err());
    }

    #[test]
    fn reopen_recovers_the_namespace() {
        let t = TempDir::new("hdfs-reopen").unwrap();
        {
            let h = SimHdfs::new(
                t.path(),
                HdfsConfig {
                    block_size: 64,
                    replication: 1,
                },
            )
            .unwrap();
            let mut w = h.create("/tab/part-0").unwrap();
            w.write_all(&[b'x'; 100]).unwrap();
            w.close().unwrap();
            h.create("/tab/sub/part-1").unwrap().close().unwrap();
        }
        // "Restart": a fresh instance over the same root.
        let h = SimHdfs::reopen(
            t.path(),
            HdfsConfig {
                block_size: 64,
                replication: 1,
            },
        )
        .unwrap();
        assert_eq!(h.file_len("/tab/part-0").unwrap(), 100);
        assert!(h.file_exists("/tab/sub/part-1"));
        assert!(h.dir_exists("/tab/sub"));
        assert_eq!(h.splits_for_dir("/tab").len(), 2); // 64+36 bytes
        let ids = h.file_ids("/tab");
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        let mut r = h.open_reader("/tab/part-0").unwrap();
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn rename_file_moves_data_and_metadata() {
        let (_t, h) = cluster();
        let mut w = h.create("/stage/f").unwrap();
        w.write_all(b"payload").unwrap();
        w.close().unwrap();

        let id = h.file_ids("/stage");
        h.rename_file("/stage/f", "/live/f").unwrap();
        assert_eq!(h.file_ids("/live"), id, "a rename keeps the inode id");
        assert!(h.file_ids("/stage").is_empty());
        assert!(!h.file_exists("/stage/f"));
        assert_eq!(h.file_len("/live/f").unwrap(), 7);
        let mut r = h.open_reader("/live/f").unwrap();
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "payload");

        // Missing source and occupied destination are both errors.
        assert!(h.rename_file("/stage/f", "/live/g").is_err());
        h.create("/live/g").unwrap().close().unwrap();
        assert!(h.rename_file("/live/f", "/live/g").is_err());
    }

    /// A file deleted and written again under the same name and length is
    /// a new inode; the listing by name and length cannot tell them apart.
    #[test]
    fn a_recreated_file_has_a_new_inode_id() {
        let (_t, h) = cluster();
        let write = |bytes: &[u8]| {
            let mut w = h.create("/t/f").unwrap();
            w.write_all(bytes).unwrap();
            w.close().unwrap();
        };
        write(b"alice");
        h.create("/t/g").unwrap().close().unwrap();
        let (listed, ids) = (h.list_files("/t"), h.file_ids("/t"));
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(h.file_ids("/t"), ids, "a lookup changes nothing");
        assert_eq!(h.file_id("/t/f").unwrap(), ids[0]);

        h.delete_file("/t/f").unwrap();
        write(b"bobby");
        assert_eq!(h.list_files("/t"), listed);
        let again = h.file_ids("/t");
        assert_ne!(again[0], ids[0]);
        assert_eq!(again[1], ids[1]);
        assert_eq!(h.file_id("/t/f").unwrap(), again[0]);
        h.delete_file("/t/f").unwrap();
        assert!(h.file_id("/t/f").is_err());
    }

    #[test]
    fn transient_faults_are_absorbed_and_counted() {
        use dgf_common::fault::{FaultConfig, FaultPlan};
        let (_t, h) = cluster();
        let mut w = h.create("/f").unwrap();
        w.write_all(b"0123456789").unwrap();
        w.close().unwrap();

        // Half the draws fault; a generous retry budget absorbs them all.
        h.enable_faults(
            Arc::new(FaultPlan::new(FaultConfig::transient(3, 0.5))),
            RetryPolicy::fast(20),
        );
        let mut r = h.open_reader("/f").unwrap();
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "0123456789");
        assert!(h.stats().retries.get() > 0, "absorbed retries must be counted");

        // With no retry budget the same fault surfaces as a typed error.
        h.enable_faults(
            Arc::new(FaultPlan::new(FaultConfig::transient(3, 1.0))),
            RetryPolicy::NONE,
        );
        let err = h.open_reader("/f").unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn crash_at_close_leaves_a_torn_unregistered_file() {
        use dgf_common::fault::{FaultConfig, FaultPlan};
        let (_t, h) = cluster();
        h.enable_faults(
            Arc::new(FaultPlan::new(FaultConfig::crash_at(9, 0))),
            RetryPolicy::NONE,
        );
        let mut w = h.create("/f").unwrap();
        w.write_all(b"will be torn").unwrap();
        let err = w.close().unwrap_err();
        assert!(!err.is_transient());
        // Not in the namespace: a reopen-style recovery never sees it.
        assert!(!h.file_exists("/f"));
        // And the local bytes are truncated at or before the full length.
        let local = std::fs::metadata(h.root().join("f")).unwrap();
        assert!(local.len() <= 12);
        // Deleting the path deletes those bytes: a restart's re-walk would
        // otherwise put the torn file into the namespace.
        h.delete_file("/f").unwrap();
        assert!(!h.root().join("f").exists());
        h.delete_file("/f").unwrap();
    }

    #[test]
    fn crash_after_close_registers_but_reports_failure() {
        use dgf_common::fault::{FaultConfig, FaultPlan};
        let (_t, h) = cluster();
        h.enable_faults(
            Arc::new(FaultPlan::new(FaultConfig::crash_at(9, 1))),
            RetryPolicy::NONE,
        );
        let mut w = h.create("/f").unwrap();
        w.write_all(b"acked late").unwrap();
        assert!(w.close().is_err());
        // The close itself completed: data is durable and registered.
        assert_eq!(h.file_len("/f").unwrap(), 10);
    }

    #[test]
    fn buffered_reader_wraps_cleanly() {
        let (_t, h) = cluster();
        let mut w = h.create("/f").unwrap();
        for i in 0..100 {
            writeln!(w, "line {i}").unwrap();
        }
        w.close().unwrap();
        let r = BufReader::new(h.open_reader("/f").unwrap());
        use std::io::BufRead;
        assert_eq!(r.lines().count(), 100);
    }
}
