//! A shared, concurrency-safe memoization layer for the signature
//! pipeline.
//!
//! Profiling the corpus runs shows the simplifier's hot loop is exactly
//! the paper's §4.1–§4.3 sequence, repeated for every maximal bitwise
//! subtree: evaluate the subtree on all `2^t` boolean rows (the truth
//! table), read off the signature vector, and re-express it in a
//! normalized basis. Obfuscated corpora are massively redundant at this
//! layer — the same rewrite rules stamp out the same subtrees, and
//! syntactically different subtrees collapse to the same truth table —
//! so memoizing each stage removes most of the work.
//!
//! [`SigCache`] memoizes three pure functions behind sharded
//! reader-writer locks (16 shards, keyed by hash, so parallel batch
//! simplification does not serialize on one lock):
//!
//! 1. `(arena node id, variable order) → TruthTable` — the `2^t`
//!    evaluation sweep ([`SigCache::table_of_id`]);
//! 2. `TruthTable → ∧-basis coefficients` — the Möbius inversion of
//!    §4.3 ([`SigCache::and_coefficients`]);
//! 3. `TruthTable → ∨-basis coefficients` — the Table 9 linear solve,
//!    including negative results ([`SigCache::or_coefficients`]).
//!
//! Every cached value is a pure function of its key, so cache hits can
//! never change simplification output — `tests/differential_cache.rs`
//! locks that property down. Hit/miss counters aggregate into
//! [`CacheStats`] for the bench harness.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mba_expr::{ExprArena, Ident, NodeId};
use mba_linalg::{Matrix, Rational};

use crate::signature::SignatureVector;
use crate::truth::{NotBitwiseError, TruthTable};

/// Shard count; a power of two so the shard index is a mask.
const SHARDS: usize = 16;

/// Shard lock guards that survive a panic in another holder: every
/// shard update leaves the map and its clock ring consistent, and the
/// server catches worker panics, so one panicking request must not
/// poison the cache for every later one.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters of one [`SigCache`], captured at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then stored) their value.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, `0.0` when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// The activity between an `earlier` snapshot and `self` — the
    /// standard way to report per-batch or per-request cache telemetry
    /// against a long-lived shared cache (the bench runner and the
    /// serving layer both use it). Saturates rather than underflows if
    /// the cache was cleared between the snapshots.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}%)",
            self.hits,
            self.lookups(),
            100.0 * self.hit_rate()
        )
    }
}

/// One entry in a shard's clock ring. The `referenced` bit is an
/// atomic so the read path can mark recency under the shard's *read*
/// lock — hits never take the write lock.
struct Slot<K, V> {
    key: K,
    value: V,
    referenced: AtomicBool,
}

/// One shard: the key index plus the clock ring it points into.
/// Invariant: `map.len() == slots.len()`, and `map[slots[i].key] == i`.
struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Clock hand — the next eviction candidate.
    hand: usize,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }
}

/// One entry budget shared by every map of a bounded [`SigCache`]. A
/// map reserves a unit before it grows, so traffic that favours one map
/// can fill the whole budget before anything is evicted.
struct Budget {
    cap: usize,
    /// Entries held across the maps. Only atomic read-modify-writes
    /// touch it and it guards no other data, so `Relaxed` suffices.
    used: AtomicUsize,
}

impl Budget {
    /// Reserves room for one more entry; `false` once the budget is
    /// spent.
    fn reserve(&self) -> bool {
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self, entries: usize) {
        self.used.fetch_sub(entries, Ordering::Relaxed);
    }
}

/// A sharded `key → value` map with optional clock (second-chance)
/// eviction.
///
/// Unbounded maps grow forever — the pre-eviction behaviour, kept for
/// library use where byte-identity across a whole corpus matters more
/// than memory. Bounded maps grow while their shared [`Budget`] has
/// room. Once it is spent, an insert sweeps the clock hand of the key's
/// shard, clearing `referenced` bits as it passes, and replaces the
/// first slot found unreferenced since the last sweep; a key whose
/// shard is empty is then not cached at all. The sweep is bounded (two
/// laps, then the slot under the hand is taken regardless), so inserts
/// are O(shard size) worst case and O(1) amortized.
struct ShardedMap<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    /// The budget this map shares with its siblings; `None` means
    /// unbounded.
    budget: Option<Arc<Budget>>,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    fn new(budget: Option<Arc<Budget>>) -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::new())).collect(),
            budget,
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    fn get(&self, key: &K) -> Option<V> {
        let shard = read(self.shard(key));
        let &idx = shard.map.get(key)?;
        let slot = &shard.slots[idx];
        slot.referenced.store(true, Ordering::Relaxed);
        Some(slot.value.clone())
    }

    fn insert(&self, key: K, value: V) {
        let mut shard = write(self.shard(&key));
        if let Some(&idx) = shard.map.get(&key) {
            // Racing computations of the same key: last write wins,
            // which is harmless — every cached value is a pure function
            // of its key.
            let slot = &mut shard.slots[idx];
            slot.value = value;
            slot.referenced.store(true, Ordering::Relaxed);
            return;
        }
        if self.budget.as_ref().is_none_or(|b| b.reserve()) {
            let idx = shard.slots.len();
            shard.slots.push(Slot {
                key: key.clone(),
                value,
                referenced: AtomicBool::new(true),
            });
            shard.map.insert(key, idx);
            return;
        }
        // Budget spent: advance this shard's clock hand past
        // recently-referenced slots (clearing their bit — the "second
        // chance"), bounded to two laps so a pathological
        // all-referenced ring still makes progress. An empty shard has
        // no slot to give up, and the value just goes uncached.
        let len = shard.slots.len();
        if len == 0 {
            return;
        }
        for _ in 0..2 * len {
            let hand = shard.hand;
            if shard.slots[hand].referenced.swap(false, Ordering::Relaxed) {
                shard.hand = (hand + 1) % len;
            } else {
                break;
            }
        }
        let victim = shard.hand;
        let old_key = shard.slots[victim].key.clone();
        shard.map.remove(&old_key);
        shard.slots[victim] = Slot {
            key: key.clone(),
            value,
            referenced: AtomicBool::new(true),
        };
        shard.map.insert(key, victim);
        shard.hand = (victim + 1) % len;
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).map.len()).sum()
    }

    fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| read(s).map.len()).collect()
    }

    fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Visits every entry, shard by shard, under read locks. Order is
    /// unspecified; snapshot writers sort afterwards.
    fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.shards {
            let shard = read(s);
            for slot in &shard.slots {
                f(&slot.key, &slot.value);
            }
        }
    }

    fn clear(&self) {
        for s in &self.shards {
            let mut shard = write(s);
            if let Some(budget) = &self.budget {
                budget.release(shard.slots.len());
            }
            shard.map.clear();
            shard.slots.clear();
            shard.hand = 0;
        }
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Cache key for truth tables: the node id plus the arena's identity
/// and generation ([`ExprArena::uid`] / [`ExprArena::generation`]), so
/// an id from a cleared-and-refilled or different arena can never
/// satisfy a stale probe, plus the variable order (the same subtree
/// has different tables under different orders). Hashing is O(1) —
/// four integers plus the variable order — instead of re-hashing a
/// whole subtree, and hash-consing makes the id hit across
/// *expressions*: every occurrence of `x & y` in the workload maps to
/// one key.
#[derive(Hash, PartialEq, Eq, Clone)]
struct IdKey {
    arena_uid: u64,
    generation: u64,
    id: NodeId,
    vars: Vec<Ident>,
}

/// The shared signature-pipeline memoization layer.
///
/// A `SigCache` is `Send + Sync`; wrap it in an [`Arc`] and hand clones
/// to every simplifier that should share it:
///
/// ```
/// use std::sync::Arc;
/// use mba_expr::{ExprArena, Ident};
/// use mba_sig::SigCache;
///
/// let cache = Arc::new(SigCache::new());
/// let arena = ExprArena::new();
/// let vars = [Ident::new("x"), Ident::new("y")];
/// let id = arena.intern(&"x | ~y".parse().unwrap());
/// let t1 = cache.table_of_id(&arena, id, &vars).unwrap();
/// let t2 = cache.table_of_id(&arena, id, &vars).unwrap();
/// assert_eq!(t1, t2);
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct SigCache {
    /// Truth tables keyed by arena node id ([`SigCache::table_of_id`]).
    id_tables: ShardedMap<IdKey, Arc<TruthTable>>,
    and_coeffs: ShardedMap<TruthTable, Arc<Vec<i128>>>,
    /// `None` records that no integer ∨-basis solution exists, so the
    /// failing solve is not repeated either.
    or_coeffs: ShardedMap<TruthTable, Option<Arc<Vec<i128>>>>,
    /// The entry budget the maps share; `None` = unbounded.
    budget: Option<Arc<Budget>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SigCache {
    fn default() -> Self {
        SigCache::new()
    }
}

impl std::fmt::Debug for SigCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SigCache {
    /// Creates an empty, **unbounded** cache — the library default,
    /// where byte-identity across a whole corpus matters more than
    /// memory.
    pub fn new() -> SigCache {
        SigCache {
            id_tables: ShardedMap::new(None),
            and_coeffs: ShardedMap::new(None),
            or_coeffs: ShardedMap::new(None),
            budget: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Creates an empty cache holding at most `budget` entries across
    /// its three internal maps, which share the budget: any map may
    /// fill it. Once it is full, an insert evicts clock-wise (second
    /// chance) within its key's shard of the same map. `budget` is
    /// clamped to at least 1; [`SigCache::len`] never exceeds the
    /// clamped budget. Eviction can only cost recompute time, never
    /// correctness — every cached value is a pure function of its key,
    /// which the differential cache tests pin down.
    pub fn with_budget(budget: usize) -> SigCache {
        let shared = Arc::new(Budget {
            cap: budget.max(1),
            used: AtomicUsize::new(0),
        });
        SigCache {
            id_tables: ShardedMap::new(Some(Arc::clone(&shared))),
            and_coeffs: ShardedMap::new(Some(Arc::clone(&shared))),
            or_coeffs: ShardedMap::new(Some(Arc::clone(&shared))),
            budget: Some(shared),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured entry budget (after clamping), or `None` for an
    /// unbounded cache.
    pub fn budget(&self) -> Option<usize> {
        self.budget.as_ref().map(|b| b.cap)
    }

    /// Entries evicted so far across all maps (always 0 when
    /// unbounded).
    pub fn evictions(&self) -> u64 {
        self.id_tables.evictions() + self.and_coeffs.evictions() + self.or_coeffs.evictions()
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// The truth table of an arena-interned pure-bitwise subtree over
    /// `vars`, memoized by `(arena uid, generation, id, vars)`. The key
    /// never re-hashes the subtree, and hash-consing gives
    /// cross-expression CSE: after any expression computes the table
    /// for a shared subtree, every later expression containing that
    /// subtree hits. Each lookup counts one hit or one miss.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`TruthTable::of_arena`] fails; errors are
    /// not cached.
    pub fn table_of_id(
        &self,
        arena: &ExprArena,
        id: NodeId,
        vars: &[Ident],
    ) -> Result<Arc<TruthTable>, NotBitwiseError> {
        let key = IdKey {
            arena_uid: arena.uid(),
            generation: arena.generation(),
            id,
            vars: vars.to_vec(),
        };
        if let Some(hit) = self.id_tables.get(&key) {
            self.hit();
            return Ok(hit);
        }
        self.miss();
        let table = Arc::new(TruthTable::of_arena(arena, id, vars)?);
        self.id_tables.insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// The normalized ∧-basis coefficients of a 0/1 truth-table
    /// signature (§4.3's Möbius inversion), memoized.
    pub fn and_coefficients(&self, tt: &TruthTable) -> Arc<Vec<i128>> {
        if let Some(hit) = self.and_coeffs.get(tt) {
            self.hit();
            return hit;
        }
        self.miss();
        let sig = SignatureVector::from_truth_table(tt);
        let coeffs = Arc::new(sig.normalized_coefficients());
        self.and_coeffs.insert(tt.clone(), Arc::clone(&coeffs));
        coeffs
    }

    /// The ∨-basis (`{−1} ∪ {∨S}`, Table 9) coefficients of a 0/1
    /// truth-table signature, memoized — including the *absence* of an
    /// integer solution, so callers fall back to the ∧ basis without
    /// re-solving.
    ///
    /// Coefficients are indexed like
    /// [`SignatureVector::normalized_coefficients`]: by subset mask over
    /// row-index bit positions, index 0 being the constant `−1` column.
    pub fn or_coefficients(&self, tt: &TruthTable) -> Option<Arc<Vec<i128>>> {
        if let Some(hit) = self.or_coeffs.get(tt) {
            self.hit();
            return hit;
        }
        self.miss();
        let solved = or_basis_coefficients(tt).map(Arc::new);
        self.or_coeffs.insert(tt.clone(), solved.clone());
        solved
    }

    /// Counters since construction (or the last [`SigCache::clear`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized entries across all three maps.
    pub fn len(&self) -> usize {
        self.id_tables.len() + self.and_coeffs.len() + self.or_coeffs.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard entry counts (summed across the three maps), index
    /// `0..SHARDS`. The spread shows whether the key hash is balancing
    /// load across shard locks.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        let mut totals = vec![0usize; SHARDS];
        for map_lens in [
            self.id_tables.shard_lens(),
            self.and_coeffs.shard_lens(),
            self.or_coeffs.shard_lens(),
        ] {
            for (total, n) in totals.iter_mut().zip(map_lens) {
                *total += n;
            }
        }
        totals
    }

    /// Copies the cache's current state into `registry` as gauges:
    /// `sig.cache.hits` / `sig.cache.misses` / `sig.cache.entries`,
    /// `sig.evictions` / `sig.cache.budget` (0 when unbounded), plus
    /// per-shard occupancy under `sig.shard.NN.entries`. Called at
    /// snapshot points (stats requests, end of bench runs) rather than
    /// on the lookup hot path — the cache keeps its own atomics and
    /// this just mirrors them.
    pub fn publish_metrics(&self, registry: &mba_obs::MetricsRegistry) {
        let stats = self.stats();
        registry.gauge("sig.cache.hits").set(stats.hits as i64);
        registry.gauge("sig.cache.misses").set(stats.misses as i64);
        registry.gauge("sig.cache.entries").set(self.len() as i64);
        registry.gauge("sig.evictions").set(self.evictions() as i64);
        registry
            .gauge("sig.cache.budget")
            .set(self.budget().unwrap_or(0) as i64);
        for (i, n) in self.shard_occupancy().into_iter().enumerate() {
            registry
                .gauge(&format!("sig.shard.{i:02}.entries"))
                .set(n as i64);
        }
        publish_eval_engine_metrics(registry);
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        self.id_tables.clear();
        self.and_coeffs.clear();
        self.or_coeffs.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Serializes the cache's durable contents as one canonical JSON
    /// line, for snapshot-to-disk and warm-start across restarts
    /// ([`SigCache::load_snapshot`]). Canonical means byte-identical
    /// for equal cache contents: entries are sorted, `u64` truth-table
    /// blocks render as hex strings and `i128` coefficients as decimal
    /// strings (the workspace JSON parser carries numbers as `f64`,
    /// lossy above 2⁵³, so integers ride in strings).
    ///
    /// Only the restart-durable maps are included: the two coefficient
    /// maps. Id-keyed tables are scoped to one arena generation inside
    /// one process and can never be valid in the next one.
    pub fn snapshot_json(&self) -> String {
        fn table_fields(tt: &TruthTable) -> String {
            let blocks: Vec<String> = tt.blocks().iter().map(|b| format!("\"0x{b:x}\"")).collect();
            format!(
                "\"num_vars\":{},\"blocks\":[{}]",
                tt.num_vars(),
                blocks.join(",")
            )
        }
        fn coeff_list(coeffs: &[i128]) -> String {
            let parts: Vec<String> = coeffs.iter().map(|c| format!("\"{c}\"")).collect();
            format!("[{}]", parts.join(","))
        }
        let mut and_entries = Vec::new();
        self.and_coeffs.for_each(|tt, coeffs| {
            and_entries.push(format!(
                "{{{},\"coeffs\":{}}}",
                table_fields(tt),
                coeff_list(coeffs)
            ));
        });
        let mut or_entries = Vec::new();
        self.or_coeffs.for_each(|tt, coeffs| {
            let rendered = coeffs
                .as_ref()
                .map_or_else(|| "null".to_string(), |c| coeff_list(c));
            or_entries.push(format!("{{{},\"coeffs\":{}}}", table_fields(tt), rendered));
        });
        // Rendering is injective on entries, so sorting the rendered
        // strings sorts the entries — determinism without a custom key.
        and_entries.sort();
        or_entries.sort();
        format!(
            "{{\"version\":1,\"and_coeffs\":[{}],\"or_coeffs\":[{}]}}",
            and_entries.join(","),
            or_entries.join(",")
        )
    }

    /// Loads a [`SigCache::snapshot_json`] document, inserting every
    /// entry it carries (idempotent; hit/miss counters are untouched).
    /// Loading into a bounded cache goes through the normal eviction
    /// path, so occupancy stays within budget even when the snapshot
    /// came from a bigger cache. Returns the number of entries read.
    ///
    /// Snapshots are trusted local state — validation is structural
    /// (shape, parseability, block widths), not semantic; a hand-edited
    /// snapshot that pairs a table with the wrong coefficients is the
    /// operator's own foot-gun, exactly like editing any other cache
    /// file on disk.
    ///
    /// # Errors
    ///
    /// Rejects documents that fail to parse, carry an unknown version,
    /// or contain structurally invalid entries.
    pub fn load_snapshot(&self, doc: &str) -> Result<usize, String> {
        use mba_obs::json::{parse_json, Json};
        fn entries<'j>(
            obj: &'j std::collections::BTreeMap<String, Json>,
            key: &str,
        ) -> Result<&'j [Json], String> {
            match obj.get(key) {
                None => Ok(&[]),
                Some(Json::Arr(items)) => Ok(items),
                Some(_) => Err(format!("`{key}` is not an array")),
            }
        }
        fn table_of_entry(
            obj: &std::collections::BTreeMap<String, Json>,
        ) -> Result<TruthTable, String> {
            let num_vars = obj
                .get("num_vars")
                .and_then(Json::as_u64)
                .ok_or("entry missing `num_vars`")? as usize;
            let blocks: Vec<u64> = match obj.get("blocks") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|b| {
                        let s = b.as_str().ok_or("block is not a string")?;
                        let hex = s
                            .strip_prefix("0x")
                            .ok_or_else(|| format!("block `{s}` missing 0x prefix"))?;
                        u64::from_str_radix(hex, 16).map_err(|e| format!("bad block `{s}`: {e}"))
                    })
                    .collect::<Result<_, String>>()?,
                _ => return Err("entry missing `blocks`".into()),
            };
            TruthTable::from_blocks(num_vars, blocks)
        }
        fn coeffs_of_entry(
            obj: &std::collections::BTreeMap<String, Json>,
        ) -> Result<Option<Vec<i128>>, String> {
            match obj.get("coeffs") {
                Some(Json::Null) => Ok(None),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|c| {
                        let s = c.as_str().ok_or("coefficient is not a string")?;
                        s.parse::<i128>()
                            .map_err(|e| format!("bad coefficient `{s}`: {e}"))
                    })
                    .collect::<Result<Vec<_>, String>>()
                    .map(Some),
                _ => Err("entry missing `coeffs`".into()),
            }
        }
        let parsed = parse_json(doc)?;
        let obj = parsed.as_obj().ok_or("snapshot is not an object")?;
        if obj.get("version").and_then(Json::as_u64) != Some(1) {
            return Err("unsupported snapshot version".into());
        }
        let mut loaded = 0usize;
        for entry in entries(obj, "and_coeffs")? {
            let e = entry.as_obj().ok_or("coeff entry is not an object")?;
            let table = table_of_entry(e)?;
            let coeffs = coeffs_of_entry(e)?.ok_or("and_coeffs cannot be null")?;
            self.and_coeffs.insert(table, Arc::new(coeffs));
            loaded += 1;
        }
        for entry in entries(obj, "or_coeffs")? {
            let e = entry.as_obj().ok_or("coeff entry is not an object")?;
            let table = table_of_entry(e)?;
            let coeffs = coeffs_of_entry(e)?.map(Arc::new);
            self.or_coeffs.insert(table, coeffs);
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// Mirrors an arena's [`mba_expr::ArenaStats`] into `registry` as
/// gauges: `arena.nodes`, `arena.idents`, `arena.interned_hits`,
/// `arena.bytes`, `arena.generation`. Same snapshot-point bridge
/// pattern as [`publish_eval_engine_metrics`] — `mba-expr` has no
/// `mba-obs` dependency, so the mirror lives at the signature layer.
pub fn publish_arena_metrics(arena: &ExprArena, registry: &mba_obs::MetricsRegistry) {
    let s = arena.stats();
    registry.gauge("arena.nodes").set(s.nodes as i64);
    registry.gauge("arena.idents").set(s.idents as i64);
    registry
        .gauge("arena.interned_hits")
        .set(s.interned_hits as i64);
    registry.gauge("arena.bytes").set(s.bytes as i64);
    registry.gauge("arena.generation").set(s.generation as i64);
}

/// Mirrors the batch evaluation engine's process-global counters
/// ([`mba_expr::engine_stats`]) into `registry` as gauges:
/// `eval.tape_compiles`, `eval.bitparallel.passes`,
/// `eval.bitparallel.rows`, `eval.wide_passes`, `eval.batch.passes`,
/// `eval.batch.rows`.
/// Like [`SigCache::publish_metrics`] (which includes this), it is a
/// snapshot-point mirror, not a hot-path instrument — `mba-expr` keeps
/// its own atomics and has no `mba-obs` dependency, so the bridge
/// lives here with the rest of the signature-layer telemetry.
pub fn publish_eval_engine_metrics(registry: &mba_obs::MetricsRegistry) {
    let s = mba_expr::engine_stats();
    registry
        .gauge("eval.tape_compiles")
        .set(s.tape_compiles as i64);
    registry
        .gauge("eval.bitparallel.passes")
        .set(s.bit_parallel_passes as i64);
    registry
        .gauge("eval.bitparallel.rows")
        .set(s.bit_parallel_rows as i64);
    registry.gauge("eval.wide_passes").set(s.wide_passes as i64);
    registry
        .gauge("eval.batch.passes")
        .set(s.batch_passes as i64);
    registry.gauge("eval.batch.rows").set(s.batch_rows as i64);
}

/// Solves a 0/1 signature in the ∨ basis without materializing basis
/// expressions: the column of `∨S` at row `r` is `1` iff `r ∧ S ≠ 0`
/// (any selected variable is set), and `S = 0` is the all-ones `−1`
/// column — the same construction [`SignatureVector::solve_in_basis`]
/// reaches through `TruthTable::of`, minus the expression round-trip.
///
/// This is the uncached compute path behind
/// [`SigCache::or_coefficients`]; cache-disabled pipelines call it
/// directly so both configurations share one solver.
pub fn or_basis_coefficients(tt: &TruthTable) -> Option<Vec<i128>> {
    let rows = tt.num_rows();
    let columns: Vec<Vec<i128>> = (0..rows)
        .map(|s| {
            (0..rows)
                .map(|r| if s == 0 || r & s != 0 { 1 } else { 0 })
                .collect()
        })
        .collect();
    let m = Matrix::from_i128_columns(&columns);
    let rhs: Vec<Rational> = tt.column().into_iter().map(Rational::from).collect();
    let solution = m.solve(&rhs)?;
    solution.iter().map(Rational::to_integer).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Expr;

    fn vars2() -> Vec<Ident> {
        vec![Ident::new("x"), Ident::new("y")]
    }

    #[test]
    fn cached_and_coefficients_match_direct_computation() {
        let cache = SigCache::new();
        for src in ["x | y", "x ^ y", "~x & y", "x & y"] {
            let e: Expr = src.parse().unwrap();
            let tt = TruthTable::of(&e, &vars2()).unwrap();
            let cached = cache.and_coefficients(&tt);
            let direct = SignatureVector::from_truth_table(&tt).normalized_coefficients();
            assert_eq!(*cached, direct, "{src}");
            // Second lookup must hit.
            let before = cache.stats().hits;
            cache.and_coefficients(&tt);
            assert_eq!(cache.stats().hits, before + 1);
        }
    }

    #[test]
    fn cached_or_coefficients_match_solve_in_basis() {
        let cache = SigCache::new();
        let v = vars2();
        let basis: Vec<Expr> = ["-1", "y", "x", "x|y"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for src in ["x & y", "x | y", "x ^ y", "~x"] {
            let e: Expr = src.parse().unwrap();
            let tt = TruthTable::of(&e, &v).unwrap();
            let cached = cache.or_coefficients(&tt);
            // Reference: the expression-level solver over the matching
            // basis order (subset masks 0b00, 0b01=y, 0b10=x, 0b11=x∨y).
            let sig = SignatureVector::from_truth_table(&tt);
            let reference = sig.solve_in_basis(&basis, &v).unwrap();
            assert_eq!(cached.map(|c| (*c).clone()), reference, "{src}");
        }
    }

    #[test]
    fn or_solution_absence_is_cached() {
        let cache = SigCache::new();
        // x∧y needs coefficient pattern solvable in the ∨ basis — use a
        // signature known to have no integer ∨ solution? All 0/1
        // signatures solve rationally; integrality can fail. Either
        // way, the second lookup must be a hit.
        let tt = TruthTable::of(&"x ^ y".parse().unwrap(), &vars2()).unwrap();
        let first = cache.or_coefficients(&tt);
        let hits_before = cache.stats().hits;
        let second = cache.or_coefficients(&tt);
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, hits_before + 1);
    }

    #[test]
    fn id_keyed_tables_hit_on_repeat_and_across_expressions() {
        let cache = SigCache::new();
        let arena = ExprArena::new();
        let e: Expr = "x & ~y".parse().unwrap();
        let id = arena.intern(&e);
        let t1 = cache.table_of_id(&arena, id, &vars2()).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        let t2 = cache.table_of_id(&arena, id, &vars2()).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(cache.stats().hits, 1);
        // Cross-expression CSE: the same subtree inside a *different*
        // expression interns to the same id, so the lookup hits without
        // ever seeing the first expression again.
        let wrapped: Expr = "(x & ~y) | (x & ~y)".parse().unwrap();
        let wrapped_id = arena.intern(&wrapped);
        let mba_expr::arena::Node::Binary(_, shared, _) = arena.node(wrapped_id) else {
            panic!("expected a binary root");
        };
        assert_eq!(shared, id);
        cache.table_of_id(&arena, shared, &vars2()).unwrap();
        assert_eq!(cache.stats().hits, 2);
        // The table itself is byte-identical to the uncached sweep's.
        assert_eq!(*t1, TruthTable::of(&e, &vars2()).unwrap());
        // A different variable order is a different key.
        let flipped = vec![Ident::new("y"), Ident::new("x")];
        let t3 = cache.table_of_id(&arena, id, &flipped).unwrap();
        assert_ne!(t1.column(), t3.column());
    }

    #[test]
    fn id_keys_are_generation_scoped() {
        let cache = SigCache::new();
        let arena = ExprArena::new();
        let e: Expr = "x | y".parse().unwrap();
        let id = arena.intern(&e);
        cache.table_of_id(&arena, id, &vars2()).unwrap();
        arena.clear();
        // Same numeric id, new generation: must miss, not serve the
        // stale table.
        let id2 = arena.intern(&e);
        assert_eq!(id2.index(), 2); // x, y, then x|y — dense again
        let misses_before = cache.stats().misses;
        cache.table_of_id(&arena, id2, &vars2()).unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn since_computes_deltas_and_saturates() {
        let before = CacheStats { hits: 3, misses: 5 };
        let after = CacheStats {
            hits: 10,
            misses: 6,
        };
        assert_eq!(after.since(&before), CacheStats { hits: 7, misses: 1 });
        // A clear between snapshots must not underflow.
        let reset = CacheStats { hits: 0, misses: 0 };
        assert_eq!(reset.since(&before), CacheStats::default());
    }

    #[test]
    fn occupancy_and_published_metrics_mirror_cache_state() {
        let cache = SigCache::new();
        let arena = ExprArena::new();
        for src in ["x & y", "x | y", "x ^ y"] {
            let id = arena.intern(&src.parse().unwrap());
            let tt = cache.table_of_id(&arena, id, &vars2()).unwrap();
            cache.and_coefficients(&tt);
        }
        let occupancy = cache.shard_occupancy();
        assert_eq!(occupancy.len(), SHARDS);
        assert_eq!(occupancy.iter().sum::<usize>(), cache.len());

        let reg = mba_obs::MetricsRegistry::new();
        cache.publish_metrics(&reg);
        let snap = reg.snapshot();
        let stats = cache.stats();
        assert_eq!(snap.gauge("sig.cache.hits"), stats.hits as i64);
        assert_eq!(snap.gauge("sig.cache.misses"), stats.misses as i64);
        assert_eq!(snap.gauge("sig.cache.entries"), cache.len() as i64);
        let shard_total: i64 = (0..SHARDS)
            .map(|i| snap.gauge(&format!("sig.shard.{i:02}.entries")))
            .sum();
        assert_eq!(shard_total, cache.len() as i64);
        // The eval-engine mirror rides along: table_of_id compiled at
        // least one tape (bit-parallel truth-table extraction), so the
        // published gauges must be non-zero.
        assert!(snap.gauge("eval.tape_compiles") >= 1);
        assert!(snap.gauge("eval.bitparallel.rows") >= 1);
    }

    #[test]
    fn wide_pass_counter_bridges_into_eval_gauges() {
        let e: Expr = "x ^ y".parse().unwrap();
        let program = mba_expr::EvalProgram::compile(&e);
        program.eval_bits_wide(&[[0; mba_expr::WIDE_LANES]; 2]);
        let reg = mba_obs::MetricsRegistry::new();
        publish_eval_engine_metrics(&reg);
        let snap = reg.snapshot();
        assert!(snap.gauge("eval.wide_passes") >= 1);
        // A wide pass contributes its 256 rows to the shared row gauge.
        assert!(snap.gauge("eval.bitparallel.rows") >= 256);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = SigCache::new();
        let arena = ExprArena::new();
        let id = arena.intern(&"x | y".parse().unwrap());
        cache.table_of_id(&arena, id, &vars2()).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(SigCache::new());
        let arena = ExprArena::new();
        let exprs: Vec<Expr> = ["x&y", "x|y", "x^y", "~x&~y", "x|~y", "~(x&y)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let vars = vars2();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let (arena, exprs, vars) = (&arena, &exprs, &vars);
                scope.spawn(move || {
                    for e in exprs {
                        let id = arena.intern(e);
                        let tt = cache.table_of_id(arena, id, vars).unwrap();
                        let c = cache.and_coefficients(&tt);
                        let direct =
                            SignatureVector::from_truth_table(&tt).normalized_coefficients();
                        assert_eq!(*c, direct);
                    }
                });
            }
        });
        assert!(cache.stats().hits > 0, "threads must share entries");
    }
}
