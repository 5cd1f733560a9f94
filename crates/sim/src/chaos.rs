//! Deterministic fault injection on the virtual clock.
//!
//! A [`FaultPlan`] declares *shaped* failures — outage windows, payload
//! corruption, crash points, cold-start storms — that the substrates
//! (`rustwren-store`, `rustwren-faas`, the agent runtime) consult at their
//! hook points. Every decision is a pure function of the plan seed, the
//! fault's index in the plan, and a caller-supplied request token, so the
//! same seed + plan reproduces the same fault timeline exactly: chaos runs
//! are replayable, and a failing sweep can be re-run under a debugger.
//!
//! The engine is installed on a [`Kernel`](crate::Kernel) via
//! [`Kernel::install_chaos`](crate::Kernel::install_chaos); code running on
//! simulation threads reaches it with [`current`].
//!
//! ```
//! use std::time::Duration;
//! use rustwren_sim::chaos::{ChaosEngine, FaultPlan, PathScope, TimeWindow};
//! use rustwren_sim::Kernel;
//!
//! let plan = FaultPlan::new(7)
//!     .cos_outage(
//!         PathScope::prefix("jobs/"),
//!         TimeWindow::between(Duration::from_secs(2), Duration::from_secs(3)),
//!     );
//! let kernel = Kernel::new();
//! kernel.install_chaos(std::sync::Arc::new(ChaosEngine::new(plan)));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::rawlock::RawMutex;

use crate::hash::{hash2, unit_f64};
use crate::kernel;

/// Upper bound on retained [`FaultRecord`]s; storms past this point still
/// count in [`ChaosStats`] but are no longer logged individually.
const LOG_CAP: usize = 65_536;

/// A half-open window `[from, until)` of virtual time during which a fault
/// is armed. Times are measured from kernel start (virtual nanosecond 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// Start of the window (inclusive), relative to kernel start.
    pub from: Duration,
    /// End of the window (exclusive), relative to kernel start.
    pub until: Duration,
}

impl TimeWindow {
    /// A window covering all of virtual time.
    pub fn always() -> TimeWindow {
        TimeWindow {
            from: Duration::ZERO,
            until: Duration::MAX,
        }
    }

    /// The window `[from, until)`.
    ///
    /// # Panics
    /// Panics if `from > until`.
    pub fn between(from: Duration, until: Duration) -> TimeWindow {
        assert!(
            from <= until,
            "TimeWindow: from ({from:?}) must not exceed until ({until:?})"
        );
        TimeWindow { from, until }
    }

    /// The window starting at `from` and never closing.
    pub fn starting_at(from: Duration) -> TimeWindow {
        TimeWindow {
            from,
            until: Duration::MAX,
        }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Duration) -> bool {
        now >= self.from && now < self.until
    }
}

/// Which objects a storage fault applies to. An empty scope matches every
/// bucket and key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathScope {
    bucket: Option<String>,
    key_prefix: Option<String>,
}

impl PathScope {
    /// Match every bucket and key.
    pub fn any() -> PathScope {
        PathScope::default()
    }

    /// Match only objects in `bucket`.
    pub fn bucket(bucket: impl Into<String>) -> PathScope {
        PathScope {
            bucket: Some(bucket.into()),
            key_prefix: None,
        }
    }

    /// Match objects (in any bucket) whose key starts with `prefix`.
    pub fn prefix(prefix: impl Into<String>) -> PathScope {
        PathScope {
            bucket: None,
            key_prefix: Some(prefix.into()),
        }
    }

    /// Whether `bucket`/`key` is covered by this scope.
    pub fn matches(&self, bucket: &str, key: &str) -> bool {
        if let Some(b) = &self.bucket {
            if b != bucket {
                return false;
            }
        }
        if let Some(p) = &self.key_prefix {
            if !key.starts_with(p.as_str()) {
                return false;
            }
        }
        true
    }
}

/// How a corrupted GET mangles the returned bytes. The stored object is
/// untouched — only this response is corrupted, so a re-fetch can heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// XOR one token-selected byte with `0x5A`.
    FlipByte,
    /// Drop a token-selected suffix of the payload (models a cut-short
    /// response body).
    Truncate,
}

impl fmt::Display for CorruptMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptMode::FlipByte => write!(f, "flip-byte"),
            CorruptMode::Truncate => write!(f, "truncate"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum FaultKind {
    CosOutage {
        scope: PathScope,
    },
    CosBrownout {
        scope: PathScope,
        rate: f64,
    },
    CorruptGet {
        scope: PathScope,
        mode: CorruptMode,
        probability: f64,
    },
    Crash {
        phase: String,
        probability: f64,
    },
    ColdStorm,
    PoisonCache {
        scope: PathScope,
        probability: f64,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct Fault {
    kind: FaultKind,
    window: TimeWindow,
    max_fires: Option<u64>,
}

/// A declarative schedule of faults, built once and handed to
/// [`ChaosEngine::new`]. Builder methods validate their arguments eagerly
/// (probabilities must be finite and in `[0, 1]`), so a malformed plan
/// fails at construction, not mid-sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

fn check_probability(what: &str, p: f64) -> f64 {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "{what} must be a finite probability in [0, 1], got {p}"
    );
    p
}

impl FaultPlan {
    /// An empty plan deriving all randomness from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// The seed every fault decision is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan has no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn push(mut self, kind: FaultKind, window: TimeWindow) -> FaultPlan {
        self.faults.push(Fault {
            kind,
            window,
            max_fires: None,
        });
        self
    }

    /// Total COS outage: every request touching `scope` during `window`
    /// fails (the client sees it as a network failure and retries).
    pub fn cos_outage(self, scope: PathScope, window: TimeWindow) -> FaultPlan {
        self.push(FaultKind::CosOutage { scope }, window)
    }

    /// COS brownout: each request touching `scope` during `window` fails
    /// independently with probability `rate`.
    ///
    /// # Panics
    /// Panics if `rate` is NaN, negative, or greater than 1.
    pub fn cos_brownout(self, scope: PathScope, window: TimeWindow, rate: f64) -> FaultPlan {
        check_probability("cos_brownout rate", rate);
        self.push(FaultKind::CosBrownout { scope, rate }, window)
    }

    /// Corrupt the bytes returned by GETs touching `scope` during `window`
    /// with probability `probability`, using `mode`.
    ///
    /// # Panics
    /// Panics if `probability` is NaN, negative, or greater than 1.
    pub fn corrupt_get(
        self,
        scope: PathScope,
        window: TimeWindow,
        mode: CorruptMode,
        probability: f64,
    ) -> FaultPlan {
        check_probability("corrupt_get probability", probability);
        self.push(
            FaultKind::CorruptGet {
                scope,
                mode,
                probability,
            },
            window,
        )
    }

    /// Crash (panic) code reaching the named `phase` hook during `window`
    /// with probability `probability`. The rustwren agent exposes the
    /// phases `agent:before-run`, `agent:after-compute`, `agent:after-put`,
    /// and `invoker`.
    ///
    /// # Panics
    /// Panics if `probability` is NaN, negative, or greater than 1.
    pub fn crash(
        self,
        phase: impl Into<String>,
        window: TimeWindow,
        probability: f64,
    ) -> FaultPlan {
        check_probability("crash probability", probability);
        self.push(
            FaultKind::Crash {
                phase: phase.into(),
                probability,
            },
            window,
        )
    }

    /// Cold-start storm: during `window` the FaaS platform bypasses its
    /// warm container pool, forcing cold starts.
    pub fn cold_storm(self, window: TimeWindow) -> FaultPlan {
        self.push(FaultKind::ColdStorm, window)
    }

    /// Poison container-local cached blobs: a cache *hit* on an object in
    /// `scope` during `window` returns bytes with one flipped byte, with
    /// probability `probability`. The backing store is untouched, so a
    /// checksum-validating consumer detects the mismatch and heals by
    /// refetching from storage.
    ///
    /// # Panics
    /// Panics if `probability` is NaN, negative, or greater than 1.
    pub fn poison_cache(self, scope: PathScope, window: TimeWindow, probability: f64) -> FaultPlan {
        check_probability("poison_cache probability", probability);
        self.push(FaultKind::PoisonCache { scope, probability }, window)
    }

    /// Limit the most recently added fault to firing at most `n` times
    /// (not meaningful for [`FaultPlan::cold_storm`], which is purely
    /// window-driven).
    ///
    /// # Panics
    /// Panics if the plan is empty.
    pub fn limit_fires(mut self, n: u64) -> FaultPlan {
        let fault = self
            .faults
            .last_mut()
            .expect("limit_fires: plan has no faults");
        fault.max_fires = Some(n);
        self
    }

    /// Shorthand for [`FaultPlan::limit_fires`]`(1)`.
    pub fn once(self) -> FaultPlan {
        self.limit_fires(1)
    }
}

/// One injected fault, for the replay log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Virtual time of injection, relative to kernel start.
    pub at: Duration,
    /// Human-readable description (`"cos-outage GET b/jobs/…"`).
    pub what: String,
}

/// Counters of injected faults, grouped by hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Requests failed by outage or brownout faults.
    pub cos_faults: u64,
    /// GET responses corrupted (flipped or truncated).
    pub corruptions: u64,
    /// Injected crashes (agent phases and invoker kills).
    pub crashes: u64,
    /// Warm containers bypassed by cold-start storms.
    pub forced_cold_starts: u64,
    /// Container-local cache hits poisoned with a flipped byte.
    pub cache_poisons: u64,
}

impl ChaosStats {
    /// Total faults injected across all hooks.
    pub fn total(&self) -> u64 {
        self.cos_faults
            + self.corruptions
            + self.crashes
            + self.forced_cold_starts
            + self.cache_poisons
    }
}

struct FaultState {
    fault: Fault,
    fires: AtomicU64,
}

/// The runtime side of a [`FaultPlan`]: substrates query it at their hook
/// points; it decides, counts, and logs. Install on a kernel with
/// [`Kernel::install_chaos`](crate::Kernel::install_chaos).
pub struct ChaosEngine {
    seed: u64,
    faults: Vec<FaultState>,
    cos_faults: AtomicU64,
    corruptions: AtomicU64,
    crashes: AtomicU64,
    forced_cold_starts: AtomicU64,
    cache_poisons: AtomicU64,
    log: RawMutex<Vec<FaultRecord>>,
}

impl fmt::Debug for ChaosEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosEngine")
            .field("seed", &self.seed)
            .field("faults", &self.faults.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ChaosEngine {
    /// Builds the engine for `plan`.
    pub fn new(plan: FaultPlan) -> ChaosEngine {
        ChaosEngine {
            seed: plan.seed,
            faults: plan
                .faults
                .into_iter()
                .map(|fault| FaultState {
                    fault,
                    fires: AtomicU64::new(0),
                })
                .collect(),
            cos_faults: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            forced_cold_starts: AtomicU64::new(0),
            cache_poisons: AtomicU64::new(0),
            log: RawMutex::new(Vec::new()),
        }
    }

    /// Decides whether fault `idx` fires for `token`, honoring its
    /// probability and fire limit. Pure in (seed, idx, token) except for
    /// the fire-limit counter.
    fn fires(&self, idx: usize, state: &FaultState, token: u64, probability: f64) -> bool {
        if probability < 1.0 {
            let draw = unit_f64(hash2(hash2(self.seed, idx as u64), token));
            if draw >= probability {
                return false;
            }
        }
        match state.fault.max_fires {
            None => {
                state.fires.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(max) => state
                .fires
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fired| {
                    (fired < max).then_some(fired + 1)
                })
                .is_ok(),
        }
    }

    fn record(&self, at: Duration, what: String) {
        let mut log = self.log.lock();
        if log.len() < LOG_CAP {
            log.push(FaultRecord { at, what });
        }
    }

    /// Storage hook: should this COS request attempt (identified by its
    /// deterministic network `token`) fail? Outages always fire inside
    /// their window; brownouts fire with their configured rate. `op` is the
    /// display form (`"GET b/k"`) used in the fault log; `bucket`/`key`
    /// are matched against each fault's [`PathScope`].
    pub fn cos_attempt_fails(&self, op: &str, bucket: &str, key: &str, token: u64) -> bool {
        let now = virtual_now();
        for (idx, state) in self.faults.iter().enumerate() {
            let (name, scope, rate) = match &state.fault.kind {
                FaultKind::CosOutage { scope } => ("cos-outage", scope, 1.0),
                FaultKind::CosBrownout { scope, rate } => ("cos-brownout", scope, *rate),
                _ => continue,
            };
            if !state.fault.window.contains(now) || !scope.matches(bucket, key) {
                continue;
            }
            if self.fires(idx, state, token, rate) {
                self.cos_faults.fetch_add(1, Ordering::Relaxed);
                self.record(now, format!("{name} {op}"));
                return true;
            }
        }
        false
    }

    /// Storage hook: corrupt the response body of a GET. Returns the
    /// mangled bytes if a corruption fault fired, `None` otherwise. Empty
    /// payloads are never corrupted.
    pub fn corrupt_get(&self, bucket: &str, key: &str, token: u64, data: &[u8]) -> Option<Vec<u8>> {
        if data.is_empty() {
            return None;
        }
        let now = virtual_now();
        for (idx, state) in self.faults.iter().enumerate() {
            let (scope, mode, probability) = match &state.fault.kind {
                FaultKind::CorruptGet {
                    scope,
                    mode,
                    probability,
                } => (scope, *mode, *probability),
                _ => continue,
            };
            if !state.fault.window.contains(now) || !scope.matches(bucket, key) {
                continue;
            }
            if self.fires(idx, state, token, probability) {
                let mut bytes = data.to_vec();
                let pick = hash2(hash2(self.seed, idx as u64 ^ 0xB17E), token);
                match mode {
                    CorruptMode::FlipByte => {
                        let at = (pick % bytes.len() as u64) as usize;
                        bytes[at] ^= 0x5A;
                    }
                    CorruptMode::Truncate => {
                        let cut = (pick % bytes.len() as u64) as usize;
                        bytes.truncate(cut);
                    }
                }
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                self.record(now, format!("corrupt-{mode} GET {bucket}/{key}"));
                return Some(bytes);
            }
        }
        None
    }

    /// Cache hook: poison the bytes served from a container-local cache
    /// hit. Returns the mangled bytes (one byte XORed with `0x5A`) if a
    /// poison fault fired, `None` otherwise. The backing store — and the
    /// cache entry itself — are untouched; only this hit is poisoned, so a
    /// checksum-validating consumer refetches and heals. Empty payloads are
    /// never poisoned.
    pub fn poison_cached_blob(
        &self,
        bucket: &str,
        key: &str,
        token: u64,
        data: &[u8],
    ) -> Option<Vec<u8>> {
        if data.is_empty() {
            return None;
        }
        let now = virtual_now();
        for (idx, state) in self.faults.iter().enumerate() {
            let (scope, probability) = match &state.fault.kind {
                FaultKind::PoisonCache { scope, probability } => (scope, *probability),
                _ => continue,
            };
            if !state.fault.window.contains(now) || !scope.matches(bucket, key) {
                continue;
            }
            if self.fires(idx, state, token, probability) {
                let mut bytes = data.to_vec();
                let pick = hash2(hash2(self.seed, idx as u64 ^ 0xCAC4E), token);
                let at = (pick % bytes.len() as u64) as usize;
                bytes[at] ^= 0x5A;
                self.cache_poisons.fetch_add(1, Ordering::Relaxed);
                self.record(now, format!("poison-cache {bucket}/{key}"));
                return Some(bytes);
            }
        }
        None
    }

    /// Crash hook: should code at `phase` (identified by `token`, e.g. the
    /// activation id) crash now? Callers are expected to `panic!` when this
    /// returns `true`.
    pub fn should_crash(&self, phase: &str, token: u64) -> bool {
        let now = virtual_now();
        for (idx, state) in self.faults.iter().enumerate() {
            let (want, probability) = match &state.fault.kind {
                FaultKind::Crash { phase, probability } => (phase.as_str(), *probability),
                _ => continue,
            };
            if want != phase || !state.fault.window.contains(now) {
                continue;
            }
            if self.fires(idx, state, token, probability) {
                self.crashes.fetch_add(1, Ordering::Relaxed);
                self.record(now, format!("crash {phase} #{token}"));
                return true;
            }
        }
        false
    }

    /// FaaS hook: is a cold-start storm active right now? Purely
    /// window-driven; call [`ChaosEngine::record_forced_cold`] when a warm
    /// container was actually bypassed because of it.
    pub fn cold_storm_active(&self) -> bool {
        let now = virtual_now();
        self.faults.iter().any(|state| {
            matches!(state.fault.kind, FaultKind::ColdStorm) && state.fault.window.contains(now)
        })
    }

    /// Counts one warm container bypassed by an active cold-start storm.
    pub fn record_forced_cold(&self, action: &str) {
        self.forced_cold_starts.fetch_add(1, Ordering::Relaxed);
        self.record(virtual_now(), format!("cold-storm {action}"));
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            cos_faults: self.cos_faults.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            forced_cold_starts: self.forced_cold_starts.load(Ordering::Relaxed),
            cache_poisons: self.cache_poisons.load(Ordering::Relaxed),
        }
    }

    /// The fault timeline so far, sorted by (time, description) so that
    /// logs from runs with identical fault decisions compare equal even if
    /// OS scheduling interleaved same-instant injections differently.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        let mut log = self.log.lock().clone();
        log.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.what.cmp(&b.what)));
        log
    }
}

/// Virtual time elapsed since kernel start on the current simulation
/// thread.
///
/// # Panics
/// Panics if called from outside a simulation thread.
fn virtual_now() -> Duration {
    Duration::from_nanos(crate::now().as_nanos())
}

/// The chaos engine installed on the current simulation thread's kernel,
/// if any. Returns `None` off the simulation (so substrates can query
/// unconditionally) and `None` when no engine is installed (the common,
/// zero-overhead case).
pub fn current() -> Option<Arc<ChaosEngine>> {
    kernel::try_with_current(|k, _| k.chaos()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    fn run_sim(engine: Arc<ChaosEngine>, f: impl FnOnce()) {
        let kernel = Kernel::new();
        kernel.install_chaos(engine);
        kernel.run("chaos-test", f);
    }

    #[test]
    fn outage_fires_only_inside_window() {
        let plan = FaultPlan::new(1).cos_outage(
            PathScope::any(),
            TimeWindow::between(Duration::from_secs(1), Duration::from_secs(2)),
        );
        let engine = Arc::new(ChaosEngine::new(plan));
        let probe = Arc::clone(&engine);
        run_sim(engine.clone(), move || {
            assert!(!probe.cos_attempt_fails("GET", "b", "k", 1));
            crate::sleep(Duration::from_millis(1500));
            assert!(probe.cos_attempt_fails("GET", "b", "k", 2));
            crate::sleep(Duration::from_secs(1));
            assert!(!probe.cos_attempt_fails("GET", "b", "k", 3));
        });
        assert_eq!(engine.stats().cos_faults, 1);
        assert_eq!(engine.fault_log().len(), 1);
        assert_eq!(engine.fault_log()[0].at, Duration::from_millis(1500));
    }

    #[test]
    fn scope_filters_bucket_and_prefix() {
        let scope = PathScope {
            bucket: Some("data".into()),
            key_prefix: Some("jobs/".into()),
        };
        assert!(scope.matches("data", "jobs/e/j/func"));
        assert!(!scope.matches("other", "jobs/e/j/func"));
        assert!(!scope.matches("data", "raw/part-0"));
        assert!(PathScope::any().matches("x", "y"));
        assert!(PathScope::prefix("jobs/").matches("anything", "jobs/k"));
    }

    #[test]
    fn brownout_rate_is_deterministic_per_token() {
        let mk = || {
            Arc::new(ChaosEngine::new(FaultPlan::new(9).cos_brownout(
                PathScope::any(),
                TimeWindow::always(),
                0.5,
            )))
        };
        let (a, b) = (mk(), mk());
        let run = |engine: Arc<ChaosEngine>| {
            let kernel = Kernel::new();
            kernel.install_chaos(Arc::clone(&engine));
            kernel.run("probe", || {
                (0..64)
                    .map(|t| engine.cos_attempt_fails("GET", "b", "k", t))
                    .collect::<Vec<bool>>()
            })
        };
        let (ha, hb) = (run(a), run(b));
        assert_eq!(ha, hb);
        let fired = ha.iter().filter(|&&x| x).count();
        assert!(fired > 8 && fired < 56, "rate 0.5 wildly off: {fired}/64");
    }

    #[test]
    fn corrupt_modes_mangle_bytes() {
        let plan = FaultPlan::new(3)
            .corrupt_get(
                PathScope::prefix("flip/"),
                TimeWindow::always(),
                CorruptMode::FlipByte,
                1.0,
            )
            .corrupt_get(
                PathScope::prefix("cut/"),
                TimeWindow::always(),
                CorruptMode::Truncate,
                1.0,
            );
        let engine = Arc::new(ChaosEngine::new(plan));
        let probe = Arc::clone(&engine);
        run_sim(engine.clone(), move || {
            let data = vec![7u8; 32];
            let flipped = probe.corrupt_get("b", "flip/k", 1, &data).unwrap();
            assert_eq!(flipped.len(), 32);
            assert_eq!(flipped.iter().filter(|&&b| b != 7).count(), 1);
            let cut = probe.corrupt_get("b", "cut/k", 1, &data).unwrap();
            assert!(cut.len() < 32);
            assert!(probe.corrupt_get("b", "other/k", 1, &data).is_none());
            assert!(probe.corrupt_get("b", "flip/k", 2, &[]).is_none());
        });
        assert_eq!(engine.stats().corruptions, 2);
    }

    #[test]
    fn poison_cache_flips_one_byte_on_scoped_hits() {
        let plan = FaultPlan::new(4)
            .poison_cache(PathScope::prefix("jobs/"), TimeWindow::always(), 1.0)
            .once();
        let engine = Arc::new(ChaosEngine::new(plan));
        let probe = Arc::clone(&engine);
        run_sim(engine.clone(), move || {
            let blob = vec![3u8; 64];
            assert!(probe.poison_cached_blob("b", "raw/k", 1, &blob).is_none());
            let mangled = probe
                .poison_cached_blob("b", "jobs/e/j/func", 1, &blob)
                .unwrap();
            assert_eq!(mangled.len(), 64);
            assert_eq!(mangled.iter().filter(|&&x| x != 3).count(), 1);
            // once(): the second hit is clean.
            assert!(probe
                .poison_cached_blob("b", "jobs/e/j/func", 2, &blob)
                .is_none());
            assert!(probe
                .poison_cached_blob("b", "jobs/e/j/func", 3, &[])
                .is_none());
        });
        assert_eq!(engine.stats().cache_poisons, 1);
        assert_eq!(engine.stats().total(), 1);
    }

    #[test]
    fn once_limits_fires() {
        let plan = FaultPlan::new(5)
            .crash("agent:before-run", TimeWindow::always(), 1.0)
            .once();
        let engine = Arc::new(ChaosEngine::new(plan));
        let probe = Arc::clone(&engine);
        run_sim(engine.clone(), move || {
            assert!(probe.should_crash("agent:before-run", 10));
            assert!(!probe.should_crash("agent:before-run", 11));
            assert!(!probe.should_crash("agent:after-put", 12));
        });
        assert_eq!(engine.stats().crashes, 1);
    }

    #[test]
    fn cold_storm_is_window_driven() {
        let plan = FaultPlan::new(2).cold_storm(TimeWindow::between(
            Duration::from_secs(1),
            Duration::from_secs(2),
        ));
        let engine = Arc::new(ChaosEngine::new(plan));
        let probe = Arc::clone(&engine);
        run_sim(engine.clone(), move || {
            assert!(!probe.cold_storm_active());
            crate::sleep(Duration::from_millis(1100));
            assert!(probe.cold_storm_active());
            probe.record_forced_cold("my-action");
            crate::sleep(Duration::from_secs(1));
            assert!(!probe.cold_storm_active());
        });
        assert_eq!(engine.stats().forced_cold_starts, 1);
    }

    #[test]
    fn current_is_none_off_sim_and_without_engine() {
        assert!(current().is_none());
        let kernel = Kernel::new();
        kernel.run("no-chaos", || assert!(current().is_none()));
    }

    #[test]
    fn current_finds_installed_engine() {
        let kernel = Kernel::new();
        kernel.install_chaos(Arc::new(ChaosEngine::new(FaultPlan::new(1))));
        kernel.run("with-chaos", || assert!(current().is_some()));
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn brownout_rejects_nan_rate() {
        let _ = FaultPlan::new(1).cos_brownout(PathScope::any(), TimeWindow::always(), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn corrupt_rejects_out_of_range_probability() {
        let _ = FaultPlan::new(1).corrupt_get(
            PathScope::any(),
            TimeWindow::always(),
            CorruptMode::FlipByte,
            1.5,
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn window_rejects_inverted_bounds() {
        let _ = TimeWindow::between(Duration::from_secs(2), Duration::from_secs(1));
    }
}
