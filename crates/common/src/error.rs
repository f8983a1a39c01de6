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

/// Run `jobs` and return their results in job order: the first on the
/// calling thread, every other one on a scoped thread of its own, so one
/// job spawns nothing. A job that panicked — the caller's included —
/// becomes [`DgfError::Job`] naming `what` once every other job has
/// finished, never an unwind through the caller.
pub fn run_scoped<T: Send, F: FnOnce() -> T + Send>(
    what: &str,
    jobs: impl IntoIterator<Item = F>,
) -> Result<Vec<T>> {
    let mut jobs = jobs.into_iter();
    let Some(mine) = jobs.next() else {
        return Ok(Vec::new());
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
        // The caller's job runs while the others do; its panic is caught
        // here as theirs is by `join`. Join each handle: a joined panic is
        // a value here, where an unjoined one would re-panic as the scope
        // closes.
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(mine));
        let outcomes = std::iter::once(mine).chain(handles.into_iter().map(|h| h.join()));
        let mut results = Vec::new();
        let mut panicked = false;
        for outcome in outcomes {
            match outcome {
                Ok(t) => results.push(t),
                Err(_) => panicked = true,
            }
        }
        if panicked {
            return Err(DgfError::Job(format!("{what} panicked")));
        }
        Ok(results)
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
        let job = || ran.fetch_add(1, Ordering::Relaxed);
        let mut order = run_scoped("job", (0..4).map(|_| &job)).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2, 3], "one result per job");
        let ids = run_scoped("job", (0..5u64).map(|i| move || i * 10)).unwrap();
        assert_eq!(ids, [0, 10, 20, 30, 40], "results come back in job order");
        assert!(run_scoped("job", std::iter::empty::<fn()>())
            .unwrap()
            .is_empty());
        // A panic in a spawned job and one in the job the caller runs
        // (the first) are both an error once the other jobs finish.
        for at in [1, 0] {
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..3)
                .map(|i| -> Box<dyn FnOnce() + Send> {
                    match i == at {
                        true => Box::new(|| panic!("boom")),
                        false => Box::new(|| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        }),
                    }
                })
                .collect();
            let before = ran.load(Ordering::Relaxed);
            let err = run_scoped("a worker", jobs).unwrap_err();
            assert!(
                matches!(&err, DgfError::Job(m) if m == "a worker panicked"),
                "{err}"
            );
            assert_eq!(
                ran.load(Ordering::Relaxed),
                before + 2,
                "the other jobs still ran to the end"
            );
        }
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: DgfError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, DgfError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&DgfError::Query("q".into())).is_none());
    }
}
