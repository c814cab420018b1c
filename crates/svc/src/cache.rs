//! The results cache: canonical job key → rendered result — and the
//! checkpoint store backing the `explore`/`resume` jobs.
//!
//! Deterministic jobs (valency, monte_carlo, verify_witness,
//! protocols — see [`crate::job::Job::cacheable`]) are pure functions
//! of their parsed, fully-defaulted [`crate::job::Job`], so a repeated
//! query is served from memory without touching the queue. *Every*
//! result-shaping knob must be a field of that job — including the
//! exploration strategy flag `por` (partial-order reduction), which
//! changes visited counts even though it preserves verdicts — so a reduced run
//! can never answer a raw query from cache, or vice versa. The cache
//! is bounded with FIFO eviction: a verification service's hot set is
//! small and recency tracking is not worth a lock per hit beyond the
//! map's own.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use randsync_obs::Json;

/// Default capacity (entries) of a [`ResultsCache`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// A bounded map from cache key (see [`crate::job::Job::cache_key`]) to
/// result, with `svc.cache.*` hit/miss counters.
#[derive(Debug)]
pub struct ResultsCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<String, Json>,
    order: VecDeque<String>,
}

impl ResultsCache {
    /// An empty cache holding at most `capacity` results (min 1).
    pub fn new(capacity: usize) -> Self {
        ResultsCache { inner: Mutex::new(CacheInner::default()), capacity: capacity.max(1) }
    }

    /// Look `key` up, counting a `svc.cache.hits` / `svc.cache.misses`.
    pub fn get(&self, key: &str) -> Option<Json> {
        let found = self.inner.lock().expect("cache poisoned").map.get(key).cloned();
        let m = randsync_obs::global_metrics();
        if found.is_some() {
            m.counter("svc.cache.hits").inc();
        } else {
            m.counter("svc.cache.misses").inc();
        }
        found
    }

    /// Insert a result, evicting the oldest entry when full.
    pub fn put(&self, key: String, result: Json) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(slot) = inner.map.get_mut(&key) {
            *slot = result;
            return;
        }
        while inner.map.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else { break };
            inner.map.remove(&oldest);
            randsync_obs::global_metrics().counter("svc.cache.evictions").inc();
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, result);
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Durable artifacts of truncated `explore` jobs: checkpoint id →
/// on-disk checkpoint file, so a later `resume` job (possibly from a
/// different connection) can continue the search under a fresh budget.
///
/// Ids are issued by [`CheckpointStore::reserve`] *before* the engine
/// runs; the entry becomes visible only on [`CheckpointStore::commit`],
/// so a search that finished (and wrote nothing) never leaks an id.
/// Files persist until the process exits — checkpoints are the entire
/// point of surviving a budget, so they are never evicted.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    seq: AtomicU64,
    map: Mutex<HashMap<String, PathBuf>>,
}

impl CheckpointStore {
    fn new(dir: PathBuf) -> CheckpointStore {
        std::fs::create_dir_all(&dir).ok();
        CheckpointStore { dir, seq: AtomicU64::new(0), map: Mutex::new(HashMap::new()) }
    }

    /// Issue a fresh id and the path a checkpoint for it should be
    /// written to. The id resolves only after [`commit`](Self::commit).
    pub fn reserve(&self) -> (String, PathBuf) {
        let id = format!("ckpt-{}", self.seq.fetch_add(1, Ordering::Relaxed));
        let path = self.dir.join(format!("{id}.ckpt"));
        (id, path)
    }

    /// Publish a reserved id whose file was actually written.
    pub fn commit(&self, id: String, path: PathBuf) {
        self.map.lock().expect("checkpoint store poisoned").insert(id, path);
        randsync_obs::global_metrics()
            .gauge("svc.checkpoints")
            .set(self.len() as i64);
    }

    /// The checkpoint file behind `id`, if it was committed.
    pub fn get(&self, id: &str) -> Option<PathBuf> {
        self.map.lock().expect("checkpoint store poisoned").get(id).cloned()
    }

    /// Number of committed checkpoints.
    pub fn len(&self) -> usize {
        self.map.lock().expect("checkpoint store poisoned").len()
    }

    /// Whether no checkpoint has been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static CHECKPOINT_DIR: OnceLock<PathBuf> = OnceLock::new();
static CHECKPOINT_STORE: OnceLock<CheckpointStore> = OnceLock::new();

/// Choose the directory the process-global [`CheckpointStore`] writes
/// to. Effective only before the store's first use (the server calls
/// this at bind time); returns whether the override took.
pub fn set_checkpoint_dir(dir: PathBuf) -> bool {
    CHECKPOINT_DIR.set(dir).is_ok()
}

/// The process-global checkpoint store, created on first use under the
/// configured directory (default: a pid-unique subdirectory of
/// [`std::env::temp_dir`]).
pub fn checkpoint_store() -> &'static CheckpointStore {
    CHECKPOINT_STORE.get_or_init(|| {
        let dir = CHECKPOINT_DIR.get().cloned().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("randsync-svc-ckpt-{}", std::process::id()))
        });
        CheckpointStore::new(dir)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_ids_resolve_only_after_commit() {
        let store = CheckpointStore::new(
            std::env::temp_dir().join(format!("randsync-ckpt-test-{}", std::process::id())),
        );
        let (id, path) = store.reserve();
        assert!(store.get(&id).is_none(), "reserved but not committed");
        store.commit(id.clone(), path.clone());
        assert_eq!(store.get(&id), Some(path));
        let (id2, _) = store.reserve();
        assert_ne!(id, id2);
    }

    #[test]
    fn hit_after_put_miss_before() {
        let cache = ResultsCache::new(8);
        assert!(cache.get("k").is_none());
        cache.put("k".to_string(), Json::Int(7));
        assert_eq!(cache.get("k"), Some(Json::Int(7)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = ResultsCache::new(2);
        cache.put("a".to_string(), Json::Int(1));
        cache.put("b".to_string(), Json::Int(2));
        cache.put("a".to_string(), Json::Int(10)); // overwrite, no growth
        assert_eq!(cache.len(), 2);
        cache.put("c".to_string(), Json::Int(3)); // evicts "a" (oldest insert)
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none());
        assert_eq!(cache.get("b"), Some(Json::Int(2)));
        assert_eq!(cache.get("c"), Some(Json::Int(3)));
    }
}
