//! Thread-safe memoization: the generic [`MemoCache`] and the
//! unit-run profile cache built on it.
//!
//! [`crate::Executor::run`] starts every accelerated run by profiling one
//! unit of the workload in the VM. The profile depends only on the
//! testcase, the core count, and the execution knobs that shape the unit
//! run — not on the processor's defects (profiling runs fault-free) or on
//! its thermal state. Across a fleet campaign, a multi-round evaluation,
//! or the 27-case deep study, the same (testcase × shape) profile is
//! recomputed thousands of times; a [`ProfileCache`] shared between
//! executors makes each unique key execute once, with the profiling RNG
//! derived purely from the key so cached and uncached runs are bitwise
//! identical.

use crate::error::ExecError;
use crate::executor::{compute_unit_profile, CoreProfile, ExecConfig};
use crate::profile::SiteSamples;
use crate::testcase::Testcase;
use sdc_model::{DetRng, TestcaseId};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything [`crate::Executor::run`] needs from the unit profiling run:
/// the condensed per-core profiles and the profiler's reservoir samples.
/// The profiler's per-core retire counts are not kept — they are
/// condensed into the site rates, and at 64 cores they would hold about
/// 135 KB per profile.
#[derive(Debug)]
pub struct CachedUnitProfile {
    /// Per-machine-core profiles (site rates, power, event rates).
    pub(crate) profiles: Vec<CoreProfile>,
    /// Unit wall time in seconds.
    pub(crate) unit_secs: f64,
    /// Sampled result bits per site, which feed record materialization.
    pub(crate) samples: SiteSamples,
}

impl CachedUnitProfile {
    /// Unit wall time in seconds.
    pub fn unit_secs(&self) -> f64 {
        self.unit_secs
    }
}

/// The memoization key: every input that shapes a unit profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// The testcase profiled.
    pub testcase: TestcaseId,
    /// Machine core count the testcase was instantiated on.
    pub cores: usize,
    /// [`ExecConfig::unit_iters`].
    pub unit_iters: u32,
    /// [`ExecConfig::clock_hz`], as raw bits (f64 is not `Eq`).
    pub clock_hz_bits: u64,
    /// [`ExecConfig::max_unit_steps`].
    pub max_unit_steps: u64,
}

impl ProfileKey {
    /// The key for running `testcase` on `cores` cores under `cfg`.
    pub fn of(testcase: TestcaseId, cores: usize, cfg: &ExecConfig) -> ProfileKey {
        ProfileKey {
            testcase,
            cores,
            unit_iters: cfg.unit_iters,
            clock_hz_bits: cfg.clock_hz.to_bits(),
            max_unit_steps: cfg.max_unit_steps,
        }
    }

    /// The profiling RNG for this key — a pure function of the key, so a
    /// profile computed on any thread (or not cached at all) draws the
    /// same stream.
    pub fn stream(&self) -> DetRng {
        DetRng::new(0x9e0f_11e5_eed5_0bad)
            .fork(self.testcase.0 as u64)
            .fork(self.cores as u64)
            .fork(self.unit_iters as u64)
            .fork(self.clock_hz_bits)
            .fork(self.max_unit_steps)
    }
}

/// Point-in-time counters of a [`MemoCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found the key present (possibly still computing).
    pub hits: u64,
    /// Lookups that created the entry and ran the computation.
    pub misses: u64,
    /// Entries discarded to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A computation in flight or done; only successes stay in the map.
type Slot<V, E> = Arc<OnceLock<Result<Arc<V>, E>>>;

struct Entry<V, E> {
    slot: Slot<V, E>,
    /// Value of [`Inner::clock`] at the entry's latest lookup.
    last_use: u64,
}

struct Inner<K, V, E> {
    map: HashMap<K, Entry<V, E>>,
    /// Lookup counter stamping recency.
    clock: u64,
}

/// Shared, thread-safe memoization of a pure, expensive computation per
/// key, with optional LRU eviction. Failures are not cached.
///
/// Concurrency model: the map is guarded by a mutex held only for
/// bookkeeping; the computation runs outside the lock inside a per-key
/// `OnceLock`, so two threads asking for the *same* key compute it once
/// (the second blocks), while different keys compute in parallel. A hit
/// only restamps its entry; the least recently used entry is looked for
/// only when a miss finds a bounded cache full.
pub struct MemoCache<K, V, E = Infallible> {
    /// `None` = unbounded.
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<Inner<K, V, E>>,
}

impl<K, V, E> std::fmt::Debug for MemoCache<K, V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V, E> Default for MemoCache<K, V, E> {
    /// An unbounded cache.
    fn default() -> Self {
        MemoCache::new(None)
    }
}

impl<K, V, E> MemoCache<K, V, E> {
    /// A cache holding at most `capacity` values (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn new(capacity: Option<usize>) -> Self {
        assert_ne!(capacity, Some(0), "zero-capacity memo cache");
        MemoCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("memo cache poisoned").map.len(),
        }
    }
}

impl<K: Eq + Hash + Clone, V, E: Clone> MemoCache<K, V, E> {
    /// Returns the cached value for `key`, computing it with `compute` on
    /// first use; an error is handed to every caller waiting on the
    /// computation and the entry is dropped, so the next read computes
    /// again.
    pub fn get_or_try_compute<F>(&self, key: K, compute: F) -> Result<Arc<V>, E>
    where
        F: FnOnce() -> Result<V, E>,
    {
        let slot: Slot<V, E> = {
            let mut inner = self.inner.lock().expect("memo cache poisoned");
            inner.clock += 1;
            let now = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.last_use = now;
                entry.slot.clone()
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if self.capacity.is_some_and(|c| inner.map.len() >= c) {
                    let oldest = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_use)
                        .map(|(k, _)| k.clone())
                        .expect("a full cache has entries");
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let slot: Slot<V, E> = Arc::new(OnceLock::new());
                inner.map.insert(
                    key.clone(),
                    Entry {
                        slot: slot.clone(),
                        last_use: now,
                    },
                );
                slot
            }
        };
        let out = slot.get_or_init(|| compute().map(Arc::new)).clone();
        if out.is_err() {
            let mut inner = self.inner.lock().expect("memo cache poisoned");
            if inner
                .map
                .get(&key)
                .is_some_and(|e| Arc::ptr_eq(&e.slot, &slot))
            {
                inner.map.remove(&key);
            }
        }
        out
    }
}

impl<K: Eq + Hash + Clone, V> MemoCache<K, V> {
    /// [`MemoCache::get_or_try_compute`] for a computation that cannot
    /// fail.
    pub fn get_or_compute<F>(&self, key: K, compute: F) -> Arc<V>
    where
        F: FnOnce() -> V,
    {
        let Ok(value) = self.get_or_try_compute(key, || Ok(compute()));
        value
    }
}

/// Shared unit-profile memoization with LRU eviction: a [`MemoCache`]
/// keyed by [`ProfileKey`].
#[derive(Debug)]
pub struct ProfileCache(MemoCache<ProfileKey, CachedUnitProfile, ExecError>);

impl Default for ProfileCache {
    /// A cache sized for a whole standard suite across several package
    /// shapes (633 testcases × 12 core counts fit; the full deep study
    /// reads 1,922 keys).
    fn default() -> Self {
        ProfileCache::with_capacity(8192)
    }
}

impl ProfileCache {
    /// A cache holding at most `capacity` profiles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        ProfileCache(MemoCache::new(Some(capacity)))
    }

    /// A fresh default-capacity cache behind an [`Arc`], ready to share
    /// between executors.
    pub fn shared() -> Arc<ProfileCache> {
        Arc::new(ProfileCache::default())
    }

    /// The unit profile of `tc` on a `cores`-core machine under `cfg`,
    /// computed on first use. Drivers call this ahead of their per-item
    /// loops to profile keys in parallel; executors call it on every run.
    ///
    /// Fails with [`ExecError::StepBudget`] when the unit run overruns
    /// `cfg.max_unit_steps`. Failures are not cached: the next read of
    /// the key computes (and fails) again.
    pub fn profile(
        &self,
        tc: &Testcase,
        cores: usize,
        cfg: &ExecConfig,
    ) -> Result<Arc<CachedUnitProfile>, ExecError> {
        let key = ProfileKey::of(tc.id, cores, cfg);
        self.0
            .get_or_try_compute(key, || compute_unit_profile(tc, key, cfg))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore as _;

    impl ProfileCache {
        /// Infallible lookup for tests that never fail a computation.
        fn get_or_compute<F>(&self, key: ProfileKey, compute: F) -> Arc<CachedUnitProfile>
        where
            F: FnOnce() -> CachedUnitProfile,
        {
            self.0
                .get_or_try_compute(key, || Ok(compute()))
                .expect("infallible compute")
        }
    }

    fn dummy_profile(tag: f64) -> CachedUnitProfile {
        CachedUnitProfile {
            profiles: Vec::new(),
            unit_secs: tag,
            samples: SiteSamples::default(),
        }
    }

    fn key(tc: u32) -> ProfileKey {
        ProfileKey::of(TestcaseId(tc), 4, &ExecConfig::default())
    }

    #[test]
    fn compute_runs_once_per_key() {
        let cache = ProfileCache::with_capacity(8);
        let a = cache.get_or_compute(key(1), || dummy_profile(1.0));
        let b = cache.get_or_compute(key(1), || panic!("second compute for a cached key"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = ProfileCache::with_capacity(8);
        cache.get_or_compute(key(1), || dummy_profile(1.0));
        cache.get_or_compute(key(2), || dummy_profile(2.0));
        let mut cfg = ExecConfig::default();
        cfg.unit_iters += 1;
        cache.get_or_compute(ProfileKey::of(TestcaseId(1), 4, &cfg), || {
            dummy_profile(3.0)
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = ProfileCache::with_capacity(2);
        cache.get_or_compute(key(1), || dummy_profile(1.0));
        cache.get_or_compute(key(2), || dummy_profile(2.0));
        // Touch 1 so 2 becomes the eviction victim.
        cache.get_or_compute(key(1), || unreachable!());
        cache.get_or_compute(key(3), || dummy_profile(3.0));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // 1 survived; 2 was evicted and recomputes.
        cache.get_or_compute(key(1), || panic!("1 must still be resident"));
        let mut recomputed = false;
        cache.get_or_compute(key(2), || {
            recomputed = true;
            dummy_profile(2.0)
        });
        assert!(recomputed, "2 must have been evicted");
    }

    #[test]
    fn unit_run_over_step_budget_is_a_typed_error() {
        let suite = crate::Suite::standard();
        let tc = &suite.testcases()[0];
        let cfg = ExecConfig {
            max_unit_steps: 10,
            ..ExecConfig::default()
        };
        let overrun = ExecError::StepBudget {
            testcase: tc.id,
            budget: 10,
        };
        let cache = Arc::new(ProfileCache::with_capacity(8));
        assert_eq!(cache.profile(tc, 1, &cfg).unwrap_err(), overrun);
        assert_eq!(cache.stats().entries, 0, "failures are not cached");

        let processor = silicon::Processor::healthy(sdc_model::CpuId(1), sdc_model::ArchId(1), 1.0);
        let duration = sdc_model::Duration::from_secs(10);
        for cache in [Some(Arc::clone(&cache)), None] {
            let mut executor = crate::Executor::new(&processor, cfg);
            executor.set_cache(cache);
            let run = executor.try_run(tc, &[0], duration, &mut DetRng::new(1));
            assert_eq!(run.unwrap_err(), overrun);
        }
        // The executor's read computed (and failed) again.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn key_stream_is_pure() {
        let a = key(9).stream().next_u64();
        let b = key(9).stream().next_u64();
        let c = key(10).stream().next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = Arc::new(ProfileCache::with_capacity(8));
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let computed = computed.clone();
                s.spawn(move || {
                    cache.get_or_compute(key(5), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        dummy_profile(5.0)
                    });
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
