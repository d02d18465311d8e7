//! Generic hash-consing arenas.
//!
//! [`ConcurrentInterner<T>`] assigns each structurally distinct value of
//! `T` a dense `u32` id and stores the value once, forever: interned nodes
//! are leaked into `&'static` storage, so an id can be dereferenced without
//! holding any lock for the lifetime of the process. Equality of ids is
//! equality of values, which turns deep structural comparisons into
//! integer compares and makes ids usable as memo-table keys.
//!
//! The arena is built to be shared by many threads: id dereference
//! ([`ConcurrentInterner::get`]) is entirely lock-free via a
//! [`ChunkedSlab`] node index, the hash-cons table is sharded so lookups
//! from different threads rarely touch the same lock word, and hit
//! counters are striped across padded per-thread cache lines. A single
//! shared `RwLock` + one hit counter serializes parallel readers through
//! two hot cache lines; the sharded layout removes exactly that.
//!
//! Each shard is an open-addressing table of packed `u64` slots — 32 bits
//! of the node's hash beside its id — so an intern hashes the node once,
//! compares hash bits before it touches a candidate node, and grows by
//! moving packed words without reading or re-hashing a single node.
//!
//! # Examples
//!
//! ```
//! use ps_ir::ConcurrentInterner;
//! static ARENA: ConcurrentInterner<(u32, u32)> = ConcurrentInterner::new();
//! let a = ARENA.intern((1, 2));
//! let b = ARENA.intern((1, 2));
//! assert_eq!(a, b);
//! assert_eq!(ARENA.get(a), Some(&(1, 2)));
//! assert_eq!(ARENA.len(), 1);
//! ```

use std::cell::Cell;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

// ----- hashing ------------------------------------------------------------

/// A fast, deterministic multiply-rotate hasher (the `FxHash` scheme) for
/// the hash-cons tables.
///
/// Interned nodes are small trees of `u32` ids and enum discriminants;
/// SipHash's per-byte mixing dominates the interning hot path on such
/// keys, while Fx folds a whole word per multiply. The tables never hold
/// untrusted keys, so HashDoS resistance buys nothing here, and the fixed
/// seed keeps hashes — and therefore shard assignment — deterministic
/// across runs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 64-bit multiplicative-hash constant (⌊2⁶⁴/φ⌋, odd).
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the tail length so "ab" and "ab\0" differ.
            word[7] = word[7].wrapping_add(rest.len() as u8);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

// ----- lock-free id-indexed storage ---------------------------------------

/// Chunk `c` holds ids `[2^c - 1, 2^{c+1} - 1)`; 33 chunks cover all of
/// `u32`.
const SLAB_CHUNKS: usize = 33;

/// A lock-free, append-only table from dense `u32` ids to leaked
/// `&'static T`s: the node index of [`ConcurrentInterner`] and the backing
/// store for id-keyed memo tables.
///
/// Entries live in doubling chunks so the table grows without ever moving
/// an entry (a `Vec` resize would invalidate concurrent readers). Readers
/// take two `Acquire` loads — chunk pointer, then entry pointer — and no
/// lock. Writers allocate chunks with a CAS (the loser frees its copy) and
/// publish entries with a `Release` store. Callers must only ever publish
/// one value per id, or semantically equal values (a memo of a
/// deterministic function may benignly race on one entry).
pub struct ChunkedSlab<T> {
    chunks: [AtomicPtr<AtomicPtr<T>>; SLAB_CHUNKS],
}

impl<T> ChunkedSlab<T> {
    /// An empty slab; usable in `static` initializers.
    #[must_use]
    pub const fn new() -> ChunkedSlab<T> {
        ChunkedSlab {
            chunks: [const { AtomicPtr::new(null_mut()) }; SLAB_CHUNKS],
        }
    }

    /// (chunk, offset) of `id`: chunk `c = ⌊log2(id + 1)⌋` has `2^c`
    /// entries.
    fn locate(id: u32) -> (usize, usize) {
        let n = u64::from(id) + 1;
        let chunk = (63 - n.leading_zeros()) as usize;
        (chunk, (n - (1u64 << chunk)) as usize)
    }

    /// The entry published for `id`, if any. Lock-free.
    pub fn get(&self, id: u32) -> Option<&'static T> {
        let (c, off) = Self::locate(id);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer is a leaked array of `1 << c`
        // entries (allocated in `set`), and `off < 1 << c` by `locate`.
        let entry = unsafe { &*chunk.add(off) };
        // SAFETY: non-null entries are leaked `&'static T`s.
        unsafe { entry.load(Ordering::Acquire).as_ref() }
    }

    /// Publishes the entry for `id`.
    pub fn set(&self, id: u32, value: &'static T) {
        let (c, off) = Self::locate(id);
        let slot = &self.chunks[c];
        let mut chunk = slot.load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<[AtomicPtr<T>]> = (0..1usize << c)
                .map(|_| AtomicPtr::new(null_mut()))
                .collect();
            let fresh = Box::leak(fresh).as_mut_ptr();
            match slot.compare_exchange(null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => chunk = fresh,
                Err(won) => {
                    // SAFETY: `fresh` was leaked just above from a boxed
                    // slice of `1 << c` entries and lost the race
                    // unpublished, so reclaiming it here is exclusive.
                    drop(unsafe {
                        Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, 1usize << c))
                    });
                    chunk = won;
                }
            }
        }
        // SAFETY: as in `get`; the store publishes a leaked `&'static T`.
        unsafe { &*chunk.add(off) }.store((value as *const T).cast_mut(), Ordering::Release);
    }

    /// Number of published entries (for telemetry; walks the whole
    /// capacity).
    pub fn count(&self) -> usize {
        let mut n = 0;
        for (c, slot) in self.chunks.iter().enumerate() {
            let chunk = slot.load(Ordering::Acquire);
            if chunk.is_null() {
                continue;
            }
            for off in 0..1usize << c {
                // SAFETY: as in `get`.
                if !unsafe { &*chunk.add(off) }
                    .load(Ordering::Acquire)
                    .is_null()
                {
                    n += 1;
                }
            }
        }
        n
    }
}

impl<T> Default for ChunkedSlab<T> {
    fn default() -> ChunkedSlab<T> {
        ChunkedSlab::new()
    }
}

// ----- packed hash-cons table --------------------------------------------

/// Bits of a node's hash kept in its slot as a tag. A table finds a slot's
/// home from the tag alone, so one table holds at most `2^TAG_BITS` slots.
const TAG_BITS: u32 = 32;

/// log2 of a table's slot count when its first node arrives.
const MIN_SLOTS_LOG2: u32 = 4;

/// One hash-cons table shard: open addressing with linear probing over
/// packed `u64` slots, at a load of at most 3/4.
///
/// A slot is `tag << 32 | (id + 1)`, or 0 when empty, where the tag is the
/// upper [`TAG_BITS`] bits of the node's hash. A probe compares tags and
/// dereferences only the candidates whose tag matches, and the home slot is
/// the tag's top bits, so growth re-places packed words without reading or
/// re-hashing a node.
struct Table {
    slots: Vec<u64>,
    len: usize,
}

impl Table {
    const fn new() -> Table {
        Table {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// The home slot of `tag` in a table of `2^log2` slots: the tag's top
    /// `log2` bits, the best-mixed bits of a multiplicative hash. Widened
    /// to `u64` so that `log2 == TAG_BITS` takes the whole tag.
    fn home(tag: u32, log2: u32) -> usize {
        ((u64::from(tag) << log2) >> TAG_BITS) as usize
    }

    /// The id of the first node stored under `tag` that `is_key` accepts,
    /// or `None` once the probe run ends at an empty slot.
    fn find(&self, tag: u32, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(tag, self.slots.len().trailing_zeros());
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if (slot >> TAG_BITS) as u32 == tag && is_key(slot as u32 - 1) {
                return Some(slot as u32 - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `id` under `tag`, doubling the table first if the insert
    /// would take its load above 3/4.
    fn insert(&mut self, tag: u32, id: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let log2 = if self.slots.is_empty() {
                MIN_SLOTS_LOG2
            } else {
                grown_log2(self.slots.len().trailing_zeros())
            };
            let old = std::mem::replace(&mut self.slots, vec![0; 1 << log2]);
            for word in old.into_iter().filter(|&w| w != 0) {
                Self::place(&mut self.slots, word);
            }
        }
        Self::place(
            &mut self.slots,
            u64::from(tag) << TAG_BITS | (u64::from(id) + 1),
        );
        self.len += 1;
    }

    /// Writes a packed word into the first empty slot of its probe run.
    fn place(slots: &mut [u64], word: u64) {
        let mask = slots.len() - 1;
        let mut i = Self::home((word >> TAG_BITS) as u32, slots.len().trailing_zeros());
        while slots[i] != 0 {
            i = (i + 1) & mask;
        }
        slots[i] = word;
    }
}

/// log2 of the slot count after doubling a table of `2^log2` slots.
///
/// # Panics
///
/// Panics if the doubled table would need a home index wider than a tag
/// (more than 2³² slots in one shard; unreachable in practice, like the
/// `u32::MAX` id overflow).
fn grown_log2(log2: u32) -> u32 {
    assert!(
        log2 < TAG_BITS,
        "interner shard overflow: a table of 2^{log2} slots cannot double"
    );
    log2 + 1
}

// ----- concurrent interner ------------------------------------------------

/// log2 of the number of hash-cons table shards. The shard of a value is
/// the `SHARD_BITS` hash bits just below its tag, so every tag bit stays
/// free to index the shard's table.
const SHARD_BITS: u32 = 4;

/// Number of hash-cons table shards.
const SHARDS: usize = 1 << SHARD_BITS;

/// Number of striped hit counters, each on its own cache line.
const HIT_STRIPES: usize = 8;

/// A hit counter padded to a cache line so stripes do not false-share.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// The stripe this thread bumps: threads are assigned round-robin on
/// first use, so concurrent certification workers land on distinct cache
/// lines.
fn stripe_index() -> usize {
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    STRIPE.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(i);
        }
        i % HIT_STRIPES
    })
}

/// A shared hash-consing arena built for parallel readers.
///
/// The hot paths are laid out so that many threads interning and
/// dereferencing concurrently do not bounce shared cache lines:
///
/// * [`get`](Self::get) (id → node) reads a [`ChunkedSlab`] — no lock;
/// * [`intern`](Self::intern) hashes the value once and probes one of 16
///   independent packed tables, taking a read lock on only that shard
///   (write lock and re-probe on a miss);
/// * hit counters are striped over padded per-thread cache lines.
///
/// Ids are dense across the whole arena (a shared allocation counter), and
/// every node is published to the slab *before* its id is returned, so any
/// id obtained from `intern` can be dereferenced lock-free forever.
pub struct ConcurrentInterner<T: 'static> {
    shards: [RwLock<Table>; SHARDS],
    nodes: ChunkedSlab<T>,
    next: AtomicU32,
    hits: [PaddedCounter; HIT_STRIPES],
}

/// Read-locks a shard even if a writer panicked mid-insert: the tables are
/// append-only caches, so a poisoned shard is still internally consistent.
fn shard_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write-lock counterpart of [`shard_read`].
fn shard_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: Eq + Hash> ConcurrentInterner<T> {
    /// An empty arena; usable in `static` initializers.
    #[must_use]
    pub const fn new() -> ConcurrentInterner<T> {
        ConcurrentInterner {
            shards: [const { RwLock::new(Table::new()) }; SHARDS],
            nodes: ChunkedSlab::new(),
            next: AtomicU32::new(0),
            hits: [const { PaddedCounter(AtomicU64::new(0)) }; HIT_STRIPES],
        }
    }

    fn note_hit(&self) {
        self.hits[stripe_index()].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Interns `value`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct nodes, or if one shard would need
    /// more than 2³² slots (both unreachable in practice).
    pub fn intern(&self, value: T) -> u32 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        let hash = h.finish();
        let tag = (hash >> TAG_BITS) as u32;
        let shard = &self.shards[(hash >> (TAG_BITS - SHARD_BITS)) as usize & (SHARDS - 1)];
        let is_key = |id| self.nodes.get(id) == Some(&value);
        if let Some(id) = shard_read(shard).find(tag, is_key) {
            self.note_hit();
            return id;
        }
        let mut table = shard_write(shard);
        if let Some(id) = table.find(tag, is_key) {
            self.note_hit();
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(id != u32::MAX, "interner overflow");
        // Publish for lock-free deref before the id can escape.
        self.nodes.set(id, Box::leak(Box::new(value)));
        table.insert(tag, id);
        id
    }
}

impl<T> ConcurrentInterner<T> {
    /// The node for `id`, if `id` was produced by this arena. Lock-free.
    pub fn get(&self, id: u32) -> Option<&'static T> {
        self.nodes.get(id)
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of times an intern call found its value already present.
    pub fn hits(&self) -> u64 {
        self.hits.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

impl<T: Eq + Hash> Default for ConcurrentInterner<T> {
    fn default() -> ConcurrentInterner<T> {
        ConcurrentInterner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key whose hash is one of three constants: equal tags over unequal
    /// nodes, so every probe walks a long run of candidates it must
    /// dereference and compare.
    #[derive(PartialEq, Eq, Debug)]
    struct Clash(u32);

    impl Hash for Clash {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(self.0 % 3);
        }
    }

    /// Slot counts of every shard.
    fn capacities<T: 'static>(arena: &ConcurrentInterner<T>) -> Vec<usize> {
        arena
            .shards
            .iter()
            .map(|s| shard_read(s).slots.len())
            .collect()
    }

    #[test]
    fn interning_is_idempotent() {
        static ARENA: ConcurrentInterner<String> = ConcurrentInterner::new();
        let a = ARENA.intern("x".to_string());
        let b = ARENA.intern("x".to_string());
        assert_eq!(a, b);
        assert_eq!(ARENA.len(), 1);
        assert_eq!(ARENA.hits(), 1);
        assert_eq!(ARENA.get(a).map(String::as_str), Some("x"));
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let arena: ConcurrentInterner<u64> = ConcurrentInterner::new();
        let a = arena.intern(1);
        let b = arena.intern(2);
        assert_ne!(a, b);
        assert_eq!(arena.get(a), Some(&1));
        assert_eq!(arena.get(b), Some(&2));
        assert_eq!(arena.get(2), None);
    }

    #[test]
    fn nodes_are_static() {
        let arena: ConcurrentInterner<Vec<u32>> = ConcurrentInterner::new();
        let id = arena.intern(vec![1, 2, 3]);
        let node: &'static Vec<u32> = arena.get(id).unwrap();
        assert_eq!(node.len(), 3);
    }

    #[test]
    fn single_thread_ids_follow_insertion_order() {
        let arena: ConcurrentInterner<u32> = ConcurrentInterner::new();
        // A scrambled key order: ids must follow the calls, not the keys or
        // their shards.
        let keys: Vec<u32> = (0..1000u32).map(|i| i * 7919 % 1000).collect();
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(arena.intern(k), n as u32);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(arena.intern(k), n as u32);
        }
        assert_eq!(arena.len(), 1000);
        assert_eq!(arena.hits(), 1000);
    }

    #[test]
    fn equal_tags_over_unequal_nodes_stay_distinct() {
        let arena: ConcurrentInterner<Clash> = ConcurrentInterner::new();
        for k in 0..300 {
            assert_eq!(arena.intern(Clash(k)), k);
        }
        for k in (0..300).rev() {
            assert_eq!(arena.intern(Clash(k)), k);
            assert_eq!(arena.get(k), Some(&Clash(k)));
        }
        assert_eq!(arena.len(), 300);
        assert_eq!(arena.hits(), 300);
        // Three hashes, so at most three tables hold anything.
        assert!(capacities(&arena).iter().filter(|&&c| c > 0).count() <= 3);
    }

    /// Interns `key(0), key(1), …` until the table holding `key(0)` has
    /// doubled six times from empty, re-interning every earlier key after
    /// each doubling.
    fn grow_through_six_doublings<T: Eq + Hash + 'static>(key: impl Fn(u32) -> T) {
        let arena = ConcurrentInterner::new();
        assert_eq!(arena.intern(key(0)), 0);
        let watched = capacities(&arena).iter().position(|&c| c > 0).unwrap();
        let (mut doublings, mut hits, mut k) = (0, 0, 1);
        while doublings < 6 {
            let before = capacities(&arena)[watched];
            assert_eq!(arena.intern(key(k)), k);
            k += 1;
            let table = shard_read(&arena.shards[watched]);
            assert!(table.len * 4 <= table.slots.len() * 3, "load above 3/4");
            let after = table.slots.len();
            drop(table);
            if after != before {
                assert_eq!(after, 2 * before);
                doublings += 1;
                for j in 0..k {
                    assert_eq!(arena.intern(key(j)), j, "key {j}, doubling {doublings}");
                }
                hits += u64::from(k);
            }
        }
        assert_eq!(capacities(&arena)[watched], 1 << (MIN_SLOTS_LOG2 + 6));
        assert_eq!(arena.len(), k as usize);
        assert_eq!(arena.hits(), hits);
    }

    #[test]
    fn growth_keeps_every_earlier_id() {
        // Every key under one tag: the longest probe runs there are.
        grow_through_six_doublings(|k| Clash(3 * k));
        // Spread keys: distinct tags, every shard filling side by side.
        grow_through_six_doublings(u64::from);
    }

    #[test]
    fn home_slots_never_wrap() {
        for log2 in 0..=TAG_BITS {
            assert_eq!(Table::home(0, log2), 0);
            assert_eq!(Table::home(u32::MAX, log2), (1usize << log2) - 1);
        }
        assert_eq!(Table::home(0xdead_beef, TAG_BITS), 0xdead_beef);
        assert_eq!(Table::home(0xdead_beef, 4), 0xd);
        assert_eq!(grown_log2(TAG_BITS - 1), TAG_BITS);
    }

    #[test]
    #[should_panic(expected = "interner shard overflow")]
    fn a_table_cannot_outgrow_its_tag_bits() {
        grown_log2(TAG_BITS);
    }

    #[test]
    fn slab_round_trips_across_chunk_boundaries() {
        let slab: ChunkedSlab<u32> = ChunkedSlab::new();
        assert_eq!(slab.get(0), None);
        for id in [0u32, 1, 2, 3, 6, 7, 1000, 65_535, 1 << 20] {
            let v: &'static u32 = Box::leak(Box::new(id * 3 + 1));
            slab.set(id, v);
            assert_eq!(slab.get(id), Some(v));
        }
        assert_eq!(slab.get(4), None);
        assert_eq!(slab.count(), 9);
    }

    #[test]
    fn concurrent_interning_of_overlapping_key_sets() {
        for colliding in [false, true] {
            let pairs: ConcurrentInterner<(u32, u32)> = ConcurrentInterner::new();
            let clashes: ConcurrentInterner<Clash> = ConcurrentInterner::new();
            // Thread t interns keys [250 t, 250 t + 500): neighbours share
            // half their keys, 1250 distinct in all.
            std::thread::scope(|s| {
                for t in 0..4u32 {
                    let (pairs, clashes) = (&pairs, &clashes);
                    s.spawn(move || {
                        for i in 250 * t..250 * t + 500 {
                            if colliding {
                                let id = clashes.intern(Clash(i));
                                assert_eq!(clashes.get(id), Some(&Clash(i)));
                            } else {
                                let id = pairs.intern((i, i * 2));
                                assert_eq!(pairs.get(id), Some(&(i, i * 2)));
                            }
                        }
                    });
                }
            });
            let (len, hits) = if colliding {
                (clashes.len(), clashes.hits())
            } else {
                (pairs.len(), pairs.hits())
            };
            assert_eq!(len, 1250);
            // 2000 calls, 1250 of them first.
            assert_eq!(hits, 750);
            // Ids are dense and each names exactly one key.
            let mut seen = vec![false; 1250];
            for id in 0..1250u32 {
                let k = if colliding {
                    clashes.get(id).unwrap().0
                } else {
                    let &(k, d) = pairs.get(id).unwrap();
                    assert_eq!(d, 2 * k);
                    k
                };
                assert!(!std::mem::replace(&mut seen[k as usize], true));
            }
            assert!(seen.iter().all(|&s| s));
            assert_eq!(pairs.get(1250), None);
            assert_eq!(clashes.get(1250), None);
        }
    }
}
