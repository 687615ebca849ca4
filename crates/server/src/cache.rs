//! The cache levels behind the daemon.
//!
//! * **Level 0 — fingerprints** ([`FingerprintCache`]): raw query text →
//!   (canonical text, fingerprint). Parsing and canonicalization are the
//!   one CPU cost a fully warm request would otherwise still pay; caching
//!   the mapping lets the reactor's fast path answer a repeated `COUNT`
//!   without ever parsing. Raw text is the key on purpose: two spellings
//!   of the same query get two L0 entries but share everything below.
//! * **Level 1 — plans** ([`PlanCache`]): canonical query text →
//!   [`PreparedPlan`] (+ lazily computed width report). Keyed on the
//!   *canonical* form from `cqcount_query::fingerprint`, so clients that
//!   rename variables or reorder atoms share an entry. Plans are
//!   data-independent, so this level survives database reloads.
//! * **Level 2 — counts** ([`CountCache`]): (canonical text, database
//!   name, database *epoch*) → exact count. The epoch in the key is the
//!   invalidation mechanism for wholesale replacement: a `RELOAD` bumps
//!   the database's epoch, so stale counts stop being addressable, and
//!   [`CountCache::purge_epochs_below`] evicts the dead entries eagerly
//!   rather than letting them squat in the FIFO until churn pushes them
//!   out. Single-tuple mutations (`INSERT`/`DELETE`) do **not** bump the
//!   epoch; each cached count carries the relation names its query
//!   mentions ([`CountInfo::rels`]) and
//!   [`CountCache::refresh_relations`] surgically sweeps only the
//!   entries a mutated relation can affect — counts over untouched
//!   relations stay warm, and a count whose entry carries a built
//!   [`Maintenance`] state is refreshed in place instead of dropped. The
//!   entry owns that state: FIFO eviction, the epoch purge and `FLUSH`
//!   end it together with its count.
//!
//! Every level is a bounded FIFO map — eviction only needs to keep memory
//! flat under adversarial key churn, not maximize hit rate, so the cheap
//! policy wins over an LRU's extra bookkeeping — **sharded** 16 ways (the
//! concurrent-memo pattern from `decomp::ghw`): a key hashes to one shard
//! and only that shard's mutex is taken, so cache hits from many reactor
//! and worker threads never serialize on a global lock.
//!
//! Hit/miss accounting contract: [`PlanCache::get`]/[`CountCache::get`]
//! count both outcomes and are called exactly once per probe on the
//! worker path. The `peek` variants are for the reactor's fast path,
//! which only *opportunistically* checks for warm entries: a peek counts
//! a hit when it serves and counts **nothing** on absence, because the
//! request then goes to a worker whose own probe records the miss —
//! otherwise one cold request would count two misses.

use cqcount_arith::Natural;
use cqcount_core::planner::{PreparedPlan, WidthReport};
use cqcount_delta::MaterializedCount;
use cqcount_obs::metrics::Counter;
use cqcount_query::ConjunctiveQuery;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// A cached plan: the prepared decomposition plus a compute-once slot for
/// the width report (filled on the first `WIDTH_REPORT` request, not
/// eagerly — `COUNT` traffic never pays for `ghw` search). `OnceLock`
/// makes the warm path a lock-free load: after the first fill, readers
/// never contend, and a reactor thread can serve the report inline.
#[derive(Debug)]
pub struct PlanEntry {
    /// The data-independent plan.
    pub prepared: PreparedPlan,
    /// Lazily filled structural report.
    pub report: OnceLock<WidthReport>,
}

/// A bounded FIFO map, the single-shard building block of every level.
#[derive(Debug)]
struct FifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> FifoMap<K, V> {
    fn new(capacity: usize) -> FifoMap<K, V> {
        FifoMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(k)
    }

    /// Inserts, returning how many old entries FIFO eviction removed.
    fn insert(&mut self, k: K, v: V) -> u64 {
        let mut evicted = 0;
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Drops every entry failing the predicate, returning how many died.
    /// The FIFO order keeps only surviving keys, so later evictions stay
    /// exact.
    fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) -> u64 {
        let before = self.map.len();
        self.map.retain(|k, v| keep(k, v));
        if self.map.len() != before {
            let map = &self.map;
            self.order.retain(|k| map.contains_key(k));
        }
        (before - self.map.len()) as u64
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }
}

/// Most shards per cache; small caches get fewer so each shard still
/// holds a meaningful slice of the budget (see [`MIN_SHARD_CAPACITY`]).
const MAX_SHARDS: usize = 16;

/// A cache only splits into shards once each shard would hold at least
/// this many entries. Sharding a tiny cache would turn the global FIFO
/// bound into per-shard bounds so small that unlucky hash collisions
/// evict entries well before the configured capacity is reached — the
/// e2e tests (and small deployments) rely on a cap-N cache actually
/// holding N entries.
const MIN_SHARD_CAPACITY: usize = 64;

/// A sharded bounded FIFO map: a key owns one shard, chosen by its hash
/// under `DefaultHasher` with the default (fixed) keys — deterministic
/// across threads and runs, unlike a `RandomState`-seeded pick.
#[derive(Debug)]
struct ShardedFifo<K, V> {
    shards: Vec<Mutex<FifoMap<K, V>>>,
}

impl<K: Hash + Eq + Clone, V> ShardedFifo<K, V> {
    fn new(capacity: usize) -> ShardedFifo<K, V> {
        let capacity = capacity.max(1);
        let nshards = (capacity / MIN_SHARD_CAPACITY).clamp(1, MAX_SHARDS);
        let per_shard = capacity / nshards; // ≥ 1 because nshards ≤ capacity
        ShardedFifo {
            shards: (0..nshards)
                .map(|_| Mutex::new(FifoMap::new(per_shard)))
                .collect(),
        }
    }

    fn shard<Q>(&self, k: &Q) -> &Mutex<FifoMap<K, V>>
    where
        Q: Hash + ?Sized,
    {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    fn get<Q>(&self, k: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.shard(k).lock().unwrap().get(k).cloned()
    }

    /// Inserts, returning the number of evictions. `keep_first` makes a
    /// racing duplicate a no-op (first writer wins).
    fn insert(&self, k: K, v: V, keep_first: bool) -> u64 {
        let mut shard = self.shard(&k).lock().unwrap();
        if keep_first && shard.get(&k).is_some() {
            return 0;
        }
        shard.insert(k, v)
    }

    fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
    }

    /// Applies [`FifoMap::retain`] to every shard, returning the total
    /// number of entries dropped. One shard lock at a time — concurrent
    /// hits on other shards proceed.
    fn retain(&self, mut keep: impl FnMut(&K, &mut V) -> bool) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().retain(&mut keep))
            .sum()
    }

    /// Visits every entry, one shard lock at a time.
    fn for_each(&self, mut visit: impl FnMut(&K, &V)) {
        for s in &self.shards {
            for (k, v) in s.lock().unwrap().iter() {
                visit(k, v);
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

/// Level 0 value: the canonical text and fingerprint of a parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprinted {
    /// Canonical text (the L1 key and part of the L2 key).
    pub canonical: String,
    /// The 64-bit canonical fingerprint.
    pub fingerprint: u64,
}

/// Level 0: raw query text → canonical text + fingerprint, so a warm
/// request skips the parser entirely. Installed by workers after they
/// parse; probed by the reactor before admission. No hit/miss counters:
/// this level is an internal shortcut, not part of the exported cache
/// contract (the L1/L2 counters keep their exact meanings).
#[derive(Debug)]
pub struct FingerprintCache {
    inner: ShardedFifo<String, Arc<Fingerprinted>>,
}

impl FingerprintCache {
    /// A fingerprint cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> FingerprintCache {
        FingerprintCache {
            inner: ShardedFifo::new(capacity),
        }
    }

    /// Looks up the canonical form of a raw query text.
    pub fn get(&self, raw: &str) -> Option<Arc<Fingerprinted>> {
        self.inner.get(raw)
    }

    /// Installs a mapping (first writer wins).
    pub fn insert(&self, raw: String, value: Arc<Fingerprinted>) {
        self.inner.insert(raw, value, true);
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Level 1: canonical query text → [`PlanEntry`].
#[derive(Debug)]
pub struct PlanCache {
    inner: ShardedFifo<String, Arc<PlanEntry>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PlanCache {
    /// A plan cache holding at most `capacity` entries, with private
    /// (unregistered) counters.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache::with_counters(
            capacity,
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// A plan cache whose hit/miss/eviction counters are externally owned
    /// handles — the server passes registry-backed counters here so the
    /// cache's own bookkeeping *is* the exported metric.
    pub fn with_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> PlanCache {
        PlanCache {
            inner: ShardedFifo::new(capacity),
            hits,
            misses,
            evictions,
        }
    }

    /// Looks up a plan by canonical text, counting the hit or miss.
    pub fn get(&self, canonical: &str) -> Option<Arc<PlanEntry>> {
        match self.inner.get(canonical) {
            Some(e) => {
                self.hits.inc();
                Some(e)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Fast-path probe: counts a hit when the entry is present, counts
    /// *nothing* when absent (see the module-level accounting contract).
    pub fn peek(&self, canonical: &str) -> Option<Arc<PlanEntry>> {
        let e = self.inner.get(canonical)?;
        self.hits.inc();
        Some(e)
    }

    /// Installs a plan (first writer wins; a racing duplicate is dropped).
    pub fn insert(&self, canonical: String, entry: Arc<PlanEntry>) {
        self.evictions
            .add(self.inner.insert(canonical, entry, true));
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Entries evicted by the FIFO bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

/// Level 2 key: canonical query text + database name + database epoch.
pub type CountKey = (String, String, u64);

/// A count entry's incremental-maintenance state (see [`crate::mutation`]).
#[derive(Debug)]
pub enum Maintenance {
    /// Attached by a fresh count of a maintainable query; the first
    /// mutation batch that touches one of its relations builds it.
    Pending(ConjunctiveQuery),
    /// The pinned join-tree DP state, patched by every effective op.
    Built(MaterializedCount),
}

/// The shared handle to an entry's maintenance state, so a mutation batch
/// can patch it without holding a cache lock. Emptied (`None`) when the
/// state cannot absorb a delta.
pub type MaintenanceSlot = Arc<Mutex<Option<Maintenance>>>;

/// Level 2 value: the exact count, the invalidation scope, and the
/// maintenance state that keeps the count fresh across mutations.
#[derive(Debug, Clone)]
pub struct CountInfo {
    /// The exact count.
    pub value: Natural,
    /// Relation names the query mentions, sorted + deduped. A mutation
    /// touching none of them cannot change `value`, so the entry
    /// survives; a mutation touching any of them kills it unless its
    /// maintenance state is built and healthy.
    pub rels: Vec<String>,
    /// Set on fresh counts of maintainable queries; `None` for counts
    /// that mutations only invalidate.
    pub maintenance: Option<MaintenanceSlot>,
}

impl CountInfo {
    /// Does the query behind this count mention `rel`?
    pub fn mentions(&self, rel: &str) -> bool {
        self.rels.binary_search_by(|r| r.as_str().cmp(rel)).is_ok()
    }

    /// Applies `f` to the entry's built state, if it holds one.
    fn with_built<R>(&self, f: impl FnOnce(&MaterializedCount) -> R) -> Option<R> {
        match &*self.maintenance.as_ref()?.lock().unwrap() {
            Some(Maintenance::Built(mc)) => Some(f(mc)),
            _ => None,
        }
    }
}

/// Level 2: exact counts, invalidated by epoch bumps (reloads) or
/// per-relation sweeps (mutations).
#[derive(Debug)]
pub struct CountCache {
    inner: ShardedFifo<CountKey, Arc<CountInfo>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CountCache {
    /// A count cache holding at most `capacity` entries, with private
    /// (unregistered) counters.
    pub fn new(capacity: usize) -> CountCache {
        CountCache::with_counters(
            capacity,
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// A count cache whose counters are externally owned handles (see
    /// [`PlanCache::with_counters`]).
    pub fn with_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> CountCache {
        CountCache {
            inner: ShardedFifo::new(capacity),
            hits,
            misses,
            evictions,
        }
    }

    /// Looks up a count, counting the hit or miss.
    pub fn get(&self, key: &CountKey) -> Option<Arc<CountInfo>> {
        match self.inner.get(key) {
            Some(n) => {
                self.hits.inc();
                Some(n)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Fast-path probe: counts a hit when the count is present, counts
    /// *nothing* when absent (see the module-level accounting contract).
    pub fn peek(&self, key: &CountKey) -> Option<Arc<CountInfo>> {
        let n = self.inner.get(key)?;
        self.hits.inc();
        Some(n)
    }

    /// Installs a count.
    pub fn insert(&self, key: CountKey, value: Arc<CountInfo>) {
        self.evictions.add(self.inner.insert(key, value, false));
    }

    /// Eagerly drops every entry for `db` cached under an epoch older
    /// than `current` (they became unaddressable when the reload bumped
    /// the epoch; this reclaims their slots immediately). Returns how
    /// many entries died. Counted as evictions: the FIFO bound and the
    /// purge are the only two ways a live entry leaves the cache.
    pub fn purge_epochs_below(&self, db: &str, current: u64) -> u64 {
        let dead = self
            .inner
            .retain(|(_, d, epoch), _| d != db || *epoch >= current);
        self.evictions.add(dead);
        dead
    }

    /// The maintenance slots of `db`'s entries at `epoch` whose query
    /// mentions any of `rels`, plus the number of built states the whole
    /// cache holds (what `materialize_cap` bounds). One pass, one shard
    /// lock at a time.
    pub fn maintenance_slots(
        &self,
        db: &str,
        epoch: u64,
        rels: &[&str],
    ) -> (Vec<MaintenanceSlot>, usize) {
        let mut slots = Vec::new();
        let mut built = 0;
        self.inner.for_each(|(_, d, e), info| {
            let Some(slot) = &info.maintenance else {
                return;
            };
            built += usize::from(info.with_built(|_| ()).is_some());
            if d == db && *e == epoch && rels.iter().any(|r| info.mentions(r)) {
                slots.push(Arc::clone(slot));
            }
        });
        (slots, built)
    }

    /// The sweep after a mutation: every entry for `db` at `epoch` whose
    /// query mentions any of `rels` is refreshed in place from its built
    /// maintenance state, or dropped when it has none (pending, emptied
    /// by a fault, or never maintainable). Entries for other databases,
    /// other epochs, or queries over untouched relations survive. Returns
    /// `(refreshed, dropped)`; only drops count as evictions.
    pub fn refresh_relations(&self, db: &str, epoch: u64, rels: &[String]) -> (u64, u64) {
        let mut refreshed = 0;
        let dropped = self.inner.retain(|(_, d, e), info| {
            if d != db || *e != epoch || !rels.iter().any(|r| info.mentions(r)) {
                return true;
            }
            let Some(value) = info.with_built(MaterializedCount::count) else {
                return false;
            };
            Arc::make_mut(info).value = value;
            refreshed += 1;
            true
        });
        self.evictions.add(dropped);
        (refreshed, dropped)
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Entries evicted by the FIFO bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqcount_core::planner::prepare_plan;
    use cqcount_query::parse_query;

    fn entry() -> Arc<PlanEntry> {
        let q = parse_query("ans(X) :- r(X, Y).").unwrap();
        Arc::new(PlanEntry {
            prepared: prepare_plan(&q, 3),
            report: OnceLock::new(),
        })
    }

    fn info(n: u64) -> Arc<CountInfo> {
        info_over(n, &["r"])
    }

    fn info_over(n: u64, rels: &[&str]) -> Arc<CountInfo> {
        Arc::new(CountInfo {
            value: Natural::from(n),
            rels: rels.iter().map(|r| (*r).to_owned()).collect(),
            maintenance: None,
        })
    }

    #[test]
    fn plan_cache_hits_and_misses() {
        let c = PlanCache::new(8);
        assert!(c.get("k1").is_none());
        c.insert("k1".into(), entry());
        assert!(c.get("k1").is_some());
        assert_eq!(c.counters(), (1, 1));
        c.clear();
        assert!(c.get("k1").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn peek_counts_hits_but_never_misses() {
        let c = PlanCache::new(8);
        assert!(c.peek("k1").is_none());
        assert_eq!(c.counters(), (0, 0), "a failed peek records nothing");
        c.insert("k1".into(), entry());
        assert!(c.peek("k1").is_some());
        assert_eq!(c.counters(), (1, 0));

        let cc = CountCache::new(8);
        let key: CountKey = ("q".into(), "db".into(), 0);
        assert!(cc.peek(&key).is_none());
        assert_eq!(cc.counters(), (0, 0));
        cc.insert(key.clone(), info(3));
        assert_eq!(cc.peek(&key).unwrap().value, Natural::from(3u64));
        assert_eq!(cc.counters(), (1, 0));
    }

    #[test]
    fn fifo_eviction_bounds_memory() {
        // Capacity 2 shards into 2 × 1; which early keys die depends on
        // the hash split, but the bound and the accounting are exact and
        // the newest key always survives (it just landed in its shard).
        let c = CountCache::new(2);
        for i in 0..5u64 {
            c.insert((format!("q{i}"), "db".into(), 0), info(i));
        }
        assert!(c.len() <= 2, "capacity bound violated: {}", c.len());
        assert_eq!(c.evictions(), 5 - c.len() as u64);
        assert_eq!(
            c.get(&("q4".into(), "db".into(), 0)).unwrap().value,
            Natural::from(4u64)
        );
    }

    #[test]
    fn sharded_capacity_bound_holds_under_churn() {
        // A capacity big enough to use all 16 shards: total occupancy
        // never exceeds the configured bound, however keys distribute.
        let c = CountCache::new(64);
        for i in 0..1000u64 {
            c.insert((format!("q{i}"), "db".into(), 0), info(i));
        }
        assert!(c.len() <= 64, "capacity bound violated: {}", c.len());
        assert_eq!(c.evictions(), 1000 - c.len() as u64);
    }

    #[test]
    fn external_counter_handles_observe_cache_traffic() {
        let hits = cqcount_obs::metrics::Counter::detached();
        let c =
            CountCache::with_counters(4, hits.clone(), Counter::detached(), Counter::detached());
        c.insert(("q".into(), "db".into(), 0), info(1));
        let _ = c.get(&("q".into(), "db".into(), 0));
        assert_eq!(hits.get(), 1);
        assert_eq!(c.counters().0, 1);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let c = CountCache::new(8);
        c.insert(("q".into(), "db".into(), 1), info(7));
        assert!(c.get(&("q".into(), "db".into(), 2)).is_none());
        assert_eq!(
            c.get(&("q".into(), "db".into(), 1)).unwrap().value,
            Natural::from(7u64)
        );
    }

    #[test]
    fn reinsert_same_key_does_not_grow_order() {
        let c = CountCache::new(2);
        for _ in 0..10 {
            c.insert(("q".into(), "db".into(), 0), info(1));
        }
        c.insert(("r".into(), "db".into(), 0), info(2));
        assert!(c.len() <= 2);
        assert!(c.get(&("q".into(), "db".into(), 0)).is_some());
        assert!(c.get(&("r".into(), "db".into(), 0)).is_some());
    }

    #[test]
    fn epoch_purge_evicts_dead_entries_eagerly() {
        let c = CountCache::new(64);
        // Two dbs, several epochs each; a reload of "a" to epoch 3 must
        // kill exactly a@1 and a@2.
        for (db, epoch) in [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2)] {
            c.insert(("q".into(), db.into(), epoch), info(epoch));
        }
        let before = c.evictions();
        assert_eq!(c.purge_epochs_below("a", 3), 2);
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.evictions(),
            before + 2,
            "purged entries count as evictions"
        );
        assert!(c.get(&("q".into(), "a".into(), 3)).is_some());
        assert!(c.get(&("q".into(), "b".into(), 1)).is_some());
        assert!(c.get(&("q".into(), "b".into(), 2)).is_some());
        assert!(c.get(&("q".into(), "a".into(), 1)).is_none());
        // The purge must leave the FIFO order consistent: filling past
        // capacity afterwards still bounds memory.
        for i in 0..200u64 {
            c.insert((format!("q{i}"), "a".into(), 3), info(i));
        }
        assert!(c.len() <= 64, "capacity bound violated after purge");
    }

    #[test]
    fn relation_sweep_spares_unrelated_queries() {
        let c = CountCache::new(64);
        c.insert(("q_r".into(), "db".into(), 1), info_over(1, &["r"]));
        c.insert(("q_s".into(), "db".into(), 1), info_over(2, &["s"]));
        c.insert(("q_rs".into(), "db".into(), 1), info_over(3, &["r", "s"]));
        c.insert(
            ("q_r_other_epoch".into(), "db".into(), 2),
            info_over(4, &["r"]),
        );
        c.insert(
            ("q_r_other_db".into(), "db2".into(), 1),
            info_over(5, &["r"]),
        );

        assert_eq!(c.refresh_relations("db", 1, &["r".to_owned()]), (0, 2));
        assert!(c.get(&("q_r".into(), "db".into(), 1)).is_none());
        assert!(c.get(&("q_rs".into(), "db".into(), 1)).is_none());
        assert!(c.get(&("q_s".into(), "db".into(), 1)).is_some());
        assert!(c.get(&("q_r_other_epoch".into(), "db".into(), 2)).is_some());
        assert!(c.get(&("q_r_other_db".into(), "db2".into(), 1)).is_some());

        // A sweep over a relation nobody mentions is a no-op.
        assert_eq!(c.refresh_relations("db", 1, &["zzz".to_owned()]), (0, 0));
    }

    #[test]
    fn refresh_sweep_keeps_built_and_drops_pending_or_faulted() {
        let db = cqcount_query::parse_database("r(a, b). r(b, c).").unwrap();
        let q = parse_query("ans(X, Y) :- r(X, Y).").unwrap();
        let slot = |m: Option<Maintenance>| -> MaintenanceSlot { Arc::new(Mutex::new(m)) };
        let built = || {
            Some(Maintenance::Built(
                MaterializedCount::build(&q, &db).unwrap(),
            ))
        };
        let with = |n: u64, m: MaintenanceSlot| {
            Arc::new(CountInfo {
                maintenance: Some(m),
                ..(*info(n)).clone()
            })
        };
        let c = CountCache::new(64);
        let key = |name: &str, db: &str, epoch| (name.to_owned(), db.to_owned(), epoch);
        // Stale values (9): only the sweep can correct the built one to 2.
        c.insert(key("built", "db", 1), with(9, slot(built())));
        c.insert(
            key("pending", "db", 1),
            with(9, slot(Some(Maintenance::Pending(q.clone())))),
        );
        c.insert(key("faulted", "db", 1), with(9, slot(None)));
        c.insert(key("plain", "db", 1), info(9));
        c.insert(key("built", "db", 2), with(9, slot(built())));
        c.insert(key("built", "db2", 1), with(9, slot(built())));

        let (slots, nbuilt) = c.maintenance_slots("db", 1, &["r"]);
        assert_eq!(slots.len(), 3, "pending, built and faulted of db@1");
        assert_eq!(nbuilt, 3, "built states across the whole cache");
        assert!(c.maintenance_slots("db", 1, &["s"]).0.is_empty());

        let evictions = c.evictions();
        assert_eq!(c.refresh_relations("db", 1, &["r".to_owned()]), (1, 3));
        assert_eq!(c.evictions(), evictions + 3, "refreshes are not evictions");
        assert_eq!(
            c.get(&key("built", "db", 1)).unwrap().value,
            Natural::from(2u64)
        );
        for dead in ["pending", "faulted", "plain"] {
            assert!(c.get(&key(dead, "db", 1)).is_none(), "{dead} survived");
        }
        // Other epochs and databases are untouched, stale values and all.
        for (d, e) in [("db", 2), ("db2", 1)] {
            assert_eq!(
                c.get(&key("built", d, e)).unwrap().value,
                Natural::from(9u64)
            );
        }
    }

    #[test]
    fn fingerprint_cache_maps_raw_to_canonical() {
        let c = FingerprintCache::new(8);
        assert!(c.get("ans(X) :- r(X, Y).").is_none());
        let v = Arc::new(Fingerprinted {
            canonical: "ans(V0) :- r(V0, V1).".into(),
            fingerprint: 0xfeed,
        });
        c.insert("ans(X) :- r(X, Y).".into(), Arc::clone(&v));
        // Two raw spellings, two entries, shared canonical value.
        c.insert("ans(A) :- r(A, B).".into(), Arc::clone(&v));
        assert_eq!(c.get("ans(X) :- r(X, Y).").unwrap().fingerprint, 0xfeed);
        assert_eq!(c.get("ans(A) :- r(A, B).").unwrap().canonical, v.canonical);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }
}
