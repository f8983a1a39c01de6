//! NameNode namespace accounting.
//!
//! HDFS keeps every directory, file, and block descriptor in the NameNode's
//! heap — roughly 150 bytes each (the paper cites the Cloudera small-files
//! article for this figure). The paper's §2.2 argument against
//! multidimensional Hive *partitioning* is exactly this pressure: three
//! partition dimensions with 100 distinct values each create 10^6
//! directories ≈ 143 MB of NameNode memory. This module reproduces that
//! arithmetic so the partitioning experiment reports real numbers.

use std::collections::BTreeMap;

/// Heap bytes charged per namespace object (directory, file, or block).
pub const BYTES_PER_OBJECT: u64 = 150;

/// Metadata for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Inode id, HDFS's `INodeId`: handed out when the file is registered,
    /// kept across renames and never reused, so a file re-created under
    /// the same name is told apart from the one it replaced.
    pub id: u64,
    /// Length in bytes.
    pub len: u64,
    /// Number of blocks (`ceil(len / block_size)`, 0 for empty files).
    pub blocks: u64,
}

/// In-memory namespace of the simulated cluster.
#[derive(Debug, Default)]
pub struct NameNode {
    dirs: BTreeMap<String, ()>,
    files: BTreeMap<String, FileMeta>,
    /// The last inode id handed out.
    last_id: u64,
}

impl NameNode {
    /// A fresh namespace containing only the root directory `/`.
    pub fn new() -> Self {
        let mut nn = NameNode::default();
        nn.dirs.insert("/".to_owned(), ());
        nn
    }

    /// Register a directory and all missing ancestors.
    pub fn mkdirs(&mut self, path: &str) {
        for p in ancestors_inclusive(path) {
            self.dirs.insert(p, ());
        }
    }

    /// Register a new file under a fresh inode id, creating parent dirs.
    /// Returns the id.
    pub fn add_file(&mut self, path: &str, len: u64, blocks: u64) -> u64 {
        self.last_id += 1;
        let id = self.last_id;
        self.put_file(path, FileMeta { id, len, blocks });
        id
    }

    /// Register (or replace) a file's metadata as it is, creating parent
    /// dirs (a rename moves a file's metadata, id included).
    pub fn put_file(&mut self, path: &str, meta: FileMeta) {
        if let Some(parent) = parent_of(path) {
            self.mkdirs(&parent);
        }
        self.files.insert(path.to_owned(), meta);
    }

    /// Remove a file. Returns its metadata if it existed.
    pub fn remove_file(&mut self, path: &str) -> Option<FileMeta> {
        self.files.remove(path)
    }

    /// Remove a directory and everything under it.
    pub fn remove_tree(&mut self, path: &str) {
        let prefix = format!("{}/", path.trim_end_matches('/'));
        self.dirs.retain(|d, _| d != path && !d.starts_with(&prefix));
        self.files.retain(|f, _| f != path && !f.starts_with(&prefix));
    }

    /// Look up a file.
    pub fn file(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    /// Whether `path` is a registered directory.
    pub fn is_dir(&self, path: &str) -> bool {
        self.dirs.contains_key(path)
    }

    /// All files under `dir` (recursive), in path order.
    pub fn files_under(&self, dir: &str) -> Vec<(String, FileMeta)> {
        let prefix = if dir == "/" {
            "/".to_owned()
        } else {
            format!("{}/", dir.trim_end_matches('/'))
        };
        self.files
            .range(prefix.clone()..)
            .take_while(|(p, _)| p.starts_with(&prefix))
            .map(|(p, m)| (p.clone(), m.clone()))
            .collect()
    }

    /// Count of directory objects.
    pub fn dir_count(&self) -> u64 {
        self.dirs.len() as u64
    }

    /// Count of file objects.
    pub fn file_count(&self) -> u64 {
        self.files.len() as u64
    }

    /// Count of block objects across all files.
    pub fn block_count(&self) -> u64 {
        self.files.values().map(|m| m.blocks).sum()
    }

    /// Estimated NameNode heap consumption for the current namespace.
    pub fn memory_bytes(&self) -> u64 {
        (self.dir_count() + self.file_count() + self.block_count()) * BYTES_PER_OBJECT
    }
}

/// Parent path of `path`, or `None` for `/`.
pub fn parent_of(path: &str) -> Option<String> {
    let trimmed = path.trim_end_matches('/');
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.rfind('/') {
        Some(0) => Some("/".to_owned()),
        Some(i) => Some(trimmed[..i].to_owned()),
        None => None,
    }
}

fn ancestors_inclusive(path: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = path.trim_end_matches('/').to_owned();
    if cur.is_empty() {
        cur = "/".to_owned();
    }
    loop {
        out.push(cur.clone());
        match parent_of(&cur) {
            Some(p) => cur = p,
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkdirs_creates_ancestors() {
        let mut nn = NameNode::new();
        nn.mkdirs("/warehouse/meterdata/day=1");
        assert!(nn.is_dir("/"));
        assert!(nn.is_dir("/warehouse"));
        assert!(nn.is_dir("/warehouse/meterdata"));
        assert!(nn.is_dir("/warehouse/meterdata/day=1"));
        assert_eq!(nn.dir_count(), 4);
    }

    #[test]
    fn file_accounting() {
        let mut nn = NameNode::new();
        let f1 = nn.add_file("/a/f1", 130, 3);
        let f2 = nn.add_file("/a/f2", 0, 0);
        assert_ne!(f1, f2);
        assert_eq!(nn.file_count(), 2);
        assert_eq!(nn.block_count(), 3);
        // dirs: "/", "/a" → 2; files 2; blocks 3 → 7 objects.
        assert_eq!(nn.memory_bytes(), 7 * BYTES_PER_OBJECT);
        assert_eq!(nn.file("/a/f1").unwrap().len, 130);
    }

    #[test]
    fn paper_partition_pressure_example() {
        // §2.2: 3 dimensions × 100 distinct values = 1M directories
        // ≈ 143 MB. We verify the arithmetic at 10×10×10 scale.
        let mut nn = NameNode::new();
        for a in 0..10 {
            for b in 0..10 {
                for c in 0..10 {
                    nn.mkdirs(&format!("/t/a={a}/b={b}/c={c}"));
                }
            }
        }
        // leaf dirs: 1000, plus 100 (a,b), 10 (a), /t, / .
        assert_eq!(nn.dir_count(), 1000 + 100 + 10 + 1 + 1);
    }

    #[test]
    fn files_under_lists_recursively() {
        let mut nn = NameNode::new();
        nn.add_file("/t/p1/f1", 1, 1);
        nn.add_file("/t/p2/f2", 2, 1);
        nn.add_file("/u/f3", 3, 1);
        let got: Vec<String> = nn.files_under("/t").into_iter().map(|(p, _)| p).collect();
        assert_eq!(got, vec!["/t/p1/f1".to_owned(), "/t/p2/f2".to_owned()]);
        assert_eq!(nn.files_under("/").len(), 3);
    }

    #[test]
    fn remove_tree_drops_subtree_only() {
        let mut nn = NameNode::new();
        nn.add_file("/t/p1/f1", 1, 1);
        nn.add_file("/tx/f2", 2, 1);
        nn.remove_tree("/t");
        assert!(nn.file("/t/p1/f1").is_none());
        assert!(nn.file("/tx/f2").is_some());
        assert!(!nn.is_dir("/t"));
        assert!(nn.is_dir("/tx"));
    }

    #[test]
    fn parent_of_edges() {
        assert_eq!(parent_of("/a/b"), Some("/a".to_owned()));
        assert_eq!(parent_of("/a"), Some("/".to_owned()));
        assert_eq!(parent_of("/"), None);
    }
}
