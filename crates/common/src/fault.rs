//! Deterministic fault injection and retry policies.
//!
//! The paper leans on Hadoop and HBase for fault tolerance: index
//! construction "is just a MapReduce job" and GFU headers live in a
//! durable key-value store, so transient RPC failures and task crashes
//! are expected, survivable events. This module is the substrate that
//! lets the reproduction *prove* the same property: a [`FaultPlan`] is a
//! seeded, fully deterministic schedule of injected faults that chaos
//! wrappers (`ChaosKv` in `dgf-kvstore`, the chaos mode of `SimHdfs` in
//! `dgf-storage`) and the index's commit protocol consult at every
//! decision point, and a [`RetryPolicy`] is the bounded
//! exponential-backoff loop the engine threads through every key-value
//! and storage round trip.
//!
//! Determinism is the whole point: the same seed produces the same fault
//! schedule, so every chaos-test failure replays exactly, and crash
//! points can be enumerated (`crash at site i for i in 0..N`) to sweep
//! the entire commit protocol.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::{DgfError, Result};
use crate::stats::Counter;

/// A tiny, deterministic xorshift64* generator. Not statistically fancy,
/// but plenty for scheduling faults, and — unlike `rand` generators —
/// trivially embeddable behind a mutex with `Copy` state.
#[derive(Debug, Clone, Copy)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded construction; a zero seed is remapped (xorshift's only
    /// fixed point is 0).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `0` when `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Marker payload carried inside an injected transient [`io::Error`], so
/// transience survives the trip through `DgfError::Io` and can be
/// recognized by [`DgfError::is_transient`].
#[derive(Debug)]
pub struct TransientFault(pub String);

impl fmt::Display for TransientFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transient fault (injected): {}", self.0)
    }
}

impl std::error::Error for TransientFault {}

/// Whether an error is a transient fault worth retrying. Crash faults and
/// real corruption are deliberately *not* transient.
pub fn is_transient(err: &DgfError) -> bool {
    match err {
        DgfError::Transient(_) => true,
        DgfError::Io(e) => io_error_is_transient(e),
        _ => false,
    }
}

/// [`is_transient`] for a raw [`io::Error`] (used by the storage layer,
/// whose `Read`/`Write` impls never see a `DgfError`).
pub fn io_error_is_transient(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<TransientFault>())
}

/// Configuration of a [`FaultPlan`]: which faults fire, and how often.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// RNG seed; the entire schedule is a pure function of it.
    pub seed: u64,
    /// Probability that any single operation fails with a transient
    /// error (independently drawn per operation).
    pub p_transient: f64,
    /// Crash (sticky, non-retryable) after this many write operations.
    pub crash_after_writes: Option<u64>,
    /// Crash at the Nth [`FaultPlan::crash_point`] invocation (0-based
    /// global ordinal across every instrumented site).
    pub crash_at_point: Option<u64>,
    /// Probability that a [`FaultPlan::sync_point`] pauses the calling
    /// thread (drawn from a dedicated RNG stream so enabling scheduling
    /// noise never perturbs the fault schedule above).
    pub p_yield: f64,
    /// Upper bound on a single `sync_point` pause; a drawn pause is
    /// uniform in `[0, max_pause]`. `ZERO` degrades pauses to bare
    /// `yield_now` calls.
    pub max_pause: Duration,
}

impl FaultConfig {
    /// A schedule that injects nothing (useful for recording crash-point
    /// ordinals without perturbing a run).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            p_transient: 0.0,
            crash_after_writes: None,
            crash_at_point: None,
            p_yield: 0.0,
            max_pause: Duration::ZERO,
        }
    }

    /// A scheduling-noise-only plan for interleaving tests: every
    /// [`FaultPlan::sync_point`] yields or pauses with probability `p`,
    /// pausing up to `max_pause`, with no faults injected. The schedule
    /// of pauses is a pure function of `seed`.
    pub fn interleave(seed: u64, p: f64, max_pause: Duration) -> FaultConfig {
        FaultConfig {
            p_yield: p,
            max_pause,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Transient faults only, at probability `p` per operation.
    pub fn transient(seed: u64, p: f64) -> FaultConfig {
        FaultConfig {
            p_transient: p,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Crash at crash-point ordinal `i` (nothing else injected).
    pub fn crash_at(seed: u64, i: u64) -> FaultConfig {
        FaultConfig {
            crash_at_point: Some(i),
            ..FaultConfig::quiet(seed)
        }
    }

    /// Crash after the `n`th write (nothing else injected).
    pub fn crash_after_writes(seed: u64, n: u64) -> FaultConfig {
        FaultConfig {
            crash_after_writes: Some(n),
            ..FaultConfig::quiet(seed)
        }
    }
}

#[derive(Debug)]
struct FaultState {
    rng: XorShift64,
    /// Independent stream for `sync_point` draws: consuming scheduling
    /// randomness must not shift the fault schedule, or seeded chaos
    /// tests would stop replaying when sync points are added to a path.
    yield_rng: XorShift64,
    writes_seen: u64,
    points_seen: u64,
    crashed: bool,
}

/// A deterministic, shareable fault schedule.
///
/// One plan is typically wired into every layer of a test world (the
/// chaos key-value wrapper, the simulated HDFS, and the index's commit
/// protocol) so crash-point ordinals form a single global sequence and a
/// test can sweep `crash at point i` across the whole stack.
///
/// A crash is **sticky**: once triggered, every subsequent consultation
/// of the plan fails, modeling a dead process. Recovery tests then build
/// fresh, fault-free handles over the surviving on-disk state.
///
/// # Example
///
/// ```
/// use dgf_common::{FaultConfig, FaultPlan};
///
/// // Same seed → same schedule: a failure replays exactly.
/// let mk = || FaultPlan::new(FaultConfig::transient(7, 0.5));
/// let (a, b) = (mk(), mk());
/// for op in 0..32 {
///     assert_eq!(a.before_read("get").is_err(), b.before_read("get").is_err());
/// }
/// assert_eq!(a.faults_injected(), b.faults_injected());
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    state: Mutex<FaultState>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan following `cfg`.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            state: Mutex::new(FaultState {
                rng: XorShift64::new(cfg.seed),
                yield_rng: XorShift64::new(cfg.seed ^ 0xA5A5_5A5A_C3C3_3C3C),
                writes_seen: 0,
                points_seen: 0,
                crashed: false,
            }),
            cfg,
            injected: AtomicU64::new(0),
        }
    }

    /// The configuration this plan follows.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Transient faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether a crash has been triggered.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Crash points consulted so far (for recording runs that enumerate
    /// the crash-site space before a sweep).
    pub fn points_hit(&self) -> u64 {
        self.state.lock().points_seen
    }

    /// Consult the plan before a read-like operation `what`. May inject a
    /// transient error; fails permanently after a crash.
    pub fn before_read(&self, what: &str) -> Result<()> {
        self.before_op(what, false)
    }

    /// Consult the plan before a write-like operation `what`. Same as
    /// [`before_read`](Self::before_read), plus the write counter that
    /// drives `crash_after_writes`.
    pub fn before_write(&self, what: &str) -> Result<()> {
        self.before_op(what, true)
    }

    fn before_op(&self, what: &str, is_write: bool) -> Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(crash_error(what));
        }
        if is_write {
            st.writes_seen += 1;
            if Some(st.writes_seen) == self.cfg.crash_after_writes {
                st.crashed = true;
                return Err(crash_error(what));
            }
        }
        if self.cfg.p_transient > 0.0 && st.rng.next_f64() < self.cfg.p_transient {
            drop(st);
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(DgfError::Transient(format!("injected fault in {what}")));
        }
        Ok(())
    }

    /// [`before_read`](Self::before_read) flavored for `io::Error` paths
    /// (the storage layer's `Read`/`Write` impls).
    pub fn before_read_io(&self, what: &str) -> io::Result<()> {
        self.before_read(what).map_err(to_io)
    }

    /// [`before_write`](Self::before_write) flavored for `io::Error` paths.
    pub fn before_write_io(&self, what: &str) -> io::Result<()> {
        self.before_write(what).map_err(to_io)
    }

    /// Consult a named crash site. Every invocation advances a global
    /// ordinal; when the ordinal matches `crash_at_point` the plan
    /// crashes (sticky). Recording runs (no `crash_at_point`) use the
    /// final ordinal count to enumerate the sweep space.
    pub fn crash_point(&self, site: &str) -> Result<()> {
        let mut st = self.state.lock();
        if st.crashed {
            return Err(crash_error(site));
        }
        let ordinal = st.points_seen;
        st.points_seen += 1;
        if Some(ordinal) == self.cfg.crash_at_point {
            st.crashed = true;
            return Err(DgfError::Io(io::Error::other(format!(
                "injected crash at point {ordinal} ({site})"
            ))));
        }
        Ok(())
    }

    /// A deterministic pseudo-random draw below `n` from the plan's RNG
    /// stream (used e.g. to pick torn-write truncation offsets).
    pub fn draw_below(&self, n: u64) -> u64 {
        self.state.lock().rng.next_below(n)
    }

    /// Consult a named scheduling point (`site` is for diagnostics only).
    /// With probability [`FaultConfig::p_yield`] the calling thread is
    /// paused — a bounded sleep drawn below [`FaultConfig::max_pause`],
    /// or a bare `yield_now` when that bound is zero — widening the race
    /// windows between instrumented sites so seeded interleaving tests
    /// explore different cross-thread schedules per seed.
    ///
    /// Never fails and never injects faults: sites are sprinkled through
    /// committed hot paths, and the draws come from a dedicated RNG
    /// stream so fault schedules replay unchanged. A no-op after a crash
    /// or when `p_yield` is zero.
    pub fn sync_point(&self, _site: &str) {
        if self.cfg.p_yield <= 0.0 {
            return;
        }
        let pause = {
            let mut st = self.state.lock();
            if st.crashed || st.yield_rng.next_f64() >= self.cfg.p_yield {
                return;
            }
            let max = self.cfg.max_pause.as_micros() as u64;
            Duration::from_micros(st.yield_rng.next_below(max.saturating_add(1)))
        };
        if pause.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(pause);
        }
    }
}

fn crash_error(what: &str) -> DgfError {
    DgfError::Io(io::Error::other(format!(
        "store is down (injected crash); op {what} rejected"
    )))
}

fn to_io(e: DgfError) -> io::Error {
    match e {
        DgfError::Transient(m) => io::Error::other(TransientFault(m)),
        DgfError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

/// Bounded retry with capped exponential backoff.
///
/// Deterministic by construction: no jitter, and tests use zero
/// backoff so absorbed-retry counts are exact.
///
/// # Example
///
/// ```
/// use dgf_common::{Counter, DgfError, RetryPolicy};
///
/// let absorbed = Counter::new();
/// let mut failures_left = 3;
/// let v = RetryPolicy::fast(8).run(&absorbed, || {
///     if failures_left > 0 {
///         failures_left -= 1;
///         return Err(DgfError::Transient("rpc timeout".into()));
///     }
///     Ok(42)
/// })?;
/// assert_eq!(v, 42);
/// assert_eq!(absorbed.get(), 3);
/// # Ok::<(), DgfError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries at all: the first error propagates.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };

    /// The production-ish default: 5 attempts, 1 ms base doubling to a
    /// 50 ms cap (HBase client defaults scaled down for a simulation).
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }

    /// A test policy: generous attempts, zero backoff, fully
    /// deterministic wall-clock-free behavior.
    pub fn fast(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Backoff before retry number `retry` (1-based): `base * 2^(retry-1)`
    /// capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << (retry.saturating_sub(1)).min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }

    /// Run `f`, retrying transient errors up to the attempt budget. Every
    /// absorbed (retried) fault increments `absorbed`; the terminal error
    /// — non-transient, or transient with the budget exhausted —
    /// propagates untouched.
    pub fn run<T>(
        &self,
        absorbed: &Counter,
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 1u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < self.max_attempts => {
                    absorbed.inc();
                    let pause = self.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
        let f = XorShift64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let mk = || FaultPlan::new(FaultConfig::transient(99, 0.5));
        let (a, b) = (mk(), mk());
        for i in 0..200 {
            let what = format!("op{i}");
            assert_eq!(
                a.before_read(&what).is_err(),
                b.before_read(&what).is_err(),
                "schedules diverged at op {i}"
            );
        }
        assert_eq!(a.faults_injected(), b.faults_injected());
        assert!(a.faults_injected() > 0);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::quiet(1));
        for _ in 0..100 {
            plan.before_read("r").unwrap();
            plan.before_write("w").unwrap();
        }
        assert_eq!(plan.faults_injected(), 0);
        assert!(!plan.crashed());
    }

    #[test]
    fn crash_after_writes_is_sticky_and_ignores_reads() {
        let plan = FaultPlan::new(FaultConfig::crash_after_writes(1, 3));
        plan.before_read("r").unwrap();
        plan.before_write("w1").unwrap();
        plan.before_write("w2").unwrap();
        assert!(plan.before_write("w3").is_err());
        assert!(plan.crashed());
        // Sticky: reads now fail too, and nothing is transient.
        let e = plan.before_read("r").unwrap_err();
        assert!(!is_transient(&e));
    }

    #[test]
    fn crash_point_ordinals_enumerate() {
        let record = FaultPlan::new(FaultConfig::quiet(1));
        for s in ["a", "b", "c"] {
            record.crash_point(s).unwrap();
        }
        assert_eq!(record.points_hit(), 3);

        let plan = FaultPlan::new(FaultConfig::crash_at(1, 1));
        plan.crash_point("a").unwrap();
        assert!(plan.crash_point("b").is_err());
        assert!(plan.crash_point("c").is_err(), "crash is sticky");
        assert!(plan.crashed());
    }

    #[test]
    fn sync_points_do_not_perturb_the_fault_schedule() {
        // Two plans, same seed; one also draws scheduling pauses at every
        // op. The transient-fault schedules must stay identical.
        let plain = FaultPlan::new(FaultConfig::transient(13, 0.4));
        let noisy = FaultPlan::new(FaultConfig {
            p_yield: 1.0,
            ..FaultConfig::transient(13, 0.4)
        });
        for i in 0..200 {
            noisy.sync_point("site");
            let what = format!("op{i}");
            assert_eq!(
                plain.before_read(&what).is_err(),
                noisy.before_read(&what).is_err(),
                "sync-point draws shifted the fault schedule at op {i}"
            );
        }
        assert_eq!(plain.faults_injected(), noisy.faults_injected());
    }

    #[test]
    fn sync_point_never_fails_and_is_inert_when_disabled() {
        let off = FaultPlan::new(FaultConfig::quiet(5));
        let on = FaultPlan::new(FaultConfig::interleave(5, 1.0, Duration::ZERO));
        for _ in 0..50 {
            off.sync_point("a");
            on.sync_point("a");
        }
        assert_eq!(off.faults_injected(), 0);
        assert_eq!(on.faults_injected(), 0);
        assert!(!on.crashed());
        // Sticky crash silences sync points instead of erroring.
        let crashed = FaultPlan::new(FaultConfig {
            p_yield: 1.0,
            ..FaultConfig::crash_after_writes(5, 1)
        });
        assert!(crashed.before_write("w").is_err());
        crashed.sync_point("after-crash");
    }

    #[test]
    fn transient_classification_survives_io_wrapping() {
        let e = DgfError::Transient("kv.get".into());
        assert!(is_transient(&e));
        let io_e = io::Error::other(TransientFault("hdfs.read".into()));
        assert!(io_error_is_transient(&io_e));
        assert!(is_transient(&DgfError::Io(io_e)));
        assert!(!is_transient(&DgfError::Io(io::Error::other("plain"))));
        assert!(!is_transient(&DgfError::KvStore("x".into())));
    }

    #[test]
    fn retry_absorbs_transients_and_counts() {
        let absorbed = Counter::new();
        let mut left = 3;
        let got = RetryPolicy::fast(5)
            .run(&absorbed, || {
                if left > 0 {
                    left -= 1;
                    Err(DgfError::Transient("flaky".into()))
                } else {
                    Ok(7)
                }
            })
            .unwrap();
        assert_eq!(got, 7);
        assert_eq!(absorbed.get(), 3);
    }

    #[test]
    fn retry_budget_exhaustion_propagates_the_error() {
        let absorbed = Counter::new();
        let res: Result<()> = RetryPolicy::fast(3)
            .run(&absorbed, || Err(DgfError::Transient("always".into())));
        assert!(matches!(res, Err(DgfError::Transient(_))));
        assert_eq!(absorbed.get(), 2);
    }

    #[test]
    fn retry_does_not_touch_non_transient_errors() {
        let absorbed = Counter::new();
        let res: Result<()> = RetryPolicy::fast(5)
            .run(&absorbed, || Err(DgfError::Corrupt("bad".into())));
        assert!(matches!(res, Err(DgfError::Corrupt(_))));
        assert_eq!(absorbed.get(), 0);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        assert_eq!(p.backoff(4), Duration::from_millis(10)); // capped
        assert_eq!(p.backoff(9), Duration::from_millis(10));
        assert_eq!(RetryPolicy::fast(4).backoff(3), Duration::ZERO);
    }
}
