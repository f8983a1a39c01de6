//! Error types shared across the DGFIndex workspace.

use std::fmt;
use std::io;

/// The unified error type for all DGFIndex crates.
#[derive(Debug)]
pub enum DgfError {
    /// An underlying I/O failure (file system, simulated HDFS, key-value store log).
    Io(io::Error),
    /// On-disk or in-flight data failed to decode (bad magic, truncated frame, checksum).
    Corrupt(String),
    /// A schema violation: unknown column, arity mismatch, type mismatch.
    Schema(String),
    /// A malformed or unsupported query (e.g. non-additive aggregate in a header).
    Query(String),
    /// An index-level failure (bad splitting policy, missing metadata, rebuild required).
    Index(String),
    /// A key-value store failure.
    KvStore(String),
    /// A MapReduce task panicked or the job was misconfigured.
    Job(String),
    /// A feature deliberately out of scope for this reproduction.
    Unsupported(String),
    /// A transient failure (injected or environmental) that a
    /// [`RetryPolicy`](crate::fault::RetryPolicy) may absorb.
    Transient(String),
    /// Admission control rejected a streaming write: the ingest buffers
    /// are full. Not retried blindly by a
    /// [`RetryPolicy`](crate::fault::RetryPolicy); the caller should
    /// flush (or wait for the background flusher) and resubmit.
    Backpressure(String),
}

impl DgfError {
    /// Whether this error is transient and worth retrying. See
    /// [`fault::is_transient`](crate::fault::is_transient).
    pub fn is_transient(&self) -> bool {
        crate::fault::is_transient(self)
    }
}

impl fmt::Display for DgfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgfError::Io(e) => write!(f, "io error: {e}"),
            DgfError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            DgfError::Schema(m) => write!(f, "schema error: {m}"),
            DgfError::Query(m) => write!(f, "query error: {m}"),
            DgfError::Index(m) => write!(f, "index error: {m}"),
            DgfError::KvStore(m) => write!(f, "kv store error: {m}"),
            DgfError::Job(m) => write!(f, "job error: {m}"),
            DgfError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DgfError::Transient(m) => write!(f, "transient error: {m}"),
            DgfError::Backpressure(m) => write!(f, "ingest backpressure: {m}"),
        }
    }
}

impl std::error::Error for DgfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DgfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DgfError {
    fn from(e: io::Error) -> Self {
        DgfError::Io(e)
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, DgfError>;

/// Run every job on its own scoped thread and join them all. A job that
/// panicked becomes [`DgfError::Job`] naming `what` once every other
/// job has finished — never an unwind through the caller.
pub fn run_scoped<F: FnOnce() + Send>(what: &str, jobs: impl IntoIterator<Item = F>) -> Result<()> {
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|job| s.spawn(job)).collect();
        // Join each handle: a joined panic is a value here, where an
        // unjoined one would re-panic as the scope closes.
        let mut panicked = false;
        for h in handles {
            panicked |= h.join().is_err();
        }
        if panicked {
            return Err(DgfError::Job(format!("{what} panicked")));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = DgfError::Corrupt("bad magic".into());
        assert_eq!(e.to_string(), "corrupt data: bad magic");
        let e = DgfError::Schema("no such column".into());
        assert!(e.to_string().contains("schema"));
    }

    #[test]
    fn scoped_jobs_all_run_and_a_panic_is_an_error() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ran = AtomicU64::new(0);
        let job = || {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        run_scoped("job", (0..4).map(|_| &job)).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(|| panic!("boom")),
            Box::new(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        let err = run_scoped("a worker", jobs).unwrap_err();
        assert!(
            matches!(&err, DgfError::Job(m) if m == "a worker panicked"),
            "{err}"
        );
        assert_eq!(
            ran.load(Ordering::Relaxed),
            5,
            "the other job still ran to the end"
        );
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: DgfError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, DgfError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&DgfError::Query("q".into())).is_none());
    }
}
