//! Generic hash-consing arenas.
//!
//! [`ConcurrentInterner<T>`] assigns each structurally distinct value of
//! `T` a dense `u32` id and stores the value once, forever, in place in a
//! [`ChunkedSlab`] slot that is never moved or freed, so an id can be
//! dereferenced to a `&'static T` without holding any lock for the lifetime
//! of the process. Equality of ids is equality of values, which turns deep
//! structural comparisons into integer compares and makes ids usable as
//! memo-table keys.
//!
//! The arena is safe to share between threads: id dereference
//! ([`ConcurrentInterner::get`]) is entirely lock-free, and the hash-cons
//! table is sharded so lookups from different threads rarely touch the
//! same lock word.
//!
//! Each shard is an open-addressing table of packed `u64` slots — 32 bits
//! of the node's hash beside its id — so an intern hashes the node once,
//! compares hash bits before it touches a candidate node, and grows by
//! moving packed words without reading or re-hashing a single node.
//!
//! The same slabs back id-keyed memo tables: [`ChunkedSlab`] stores each
//! entry in its slot, beside a state byte, and [`PointerSlab`] stores one
//! pointer to a boxed entry, for tables that are sparse over their ids.
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

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::UnsafeCell;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;
use std::mem::{size_of, MaybeUninit};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
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

/// (chunk, offset) of `id`: chunk `c = ⌊log2(id + 1)⌋` has `2^c` slots.
fn locate(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let chunk = (63 - n.leading_zeros()) as usize;
    (chunk, (n - (1u64 << chunk)) as usize)
}

/// A slot type whose all-zero bit pattern is a valid empty slot, so that a
/// chunk of slots can come straight from a zeroed allocation.
///
/// # Safety
///
/// Every byte of an implementor may be zero, and the type is not
/// zero-sized.
unsafe trait ZeroedSlot {}

/// The doubling chunks of slots behind both slabs. A chunk is allocated
/// zeroed on its first write and is never moved or freed, so a slot
/// reference is valid for the rest of the process and a slab grows without
/// invalidating concurrent readers (a `Vec` resize would). Pages of a chunk
/// that no slot write touches stay untouched, so the unused tail of the
/// newest chunk costs address space, not resident memory.
struct Chunks<S> {
    chunks: [AtomicPtr<S>; SLAB_CHUNKS],
}

impl<S: ZeroedSlot + 'static> Chunks<S> {
    const fn new() -> Chunks<S> {
        Chunks {
            chunks: [const { AtomicPtr::new(null_mut()) }; SLAB_CHUNKS],
        }
    }

    /// The slot of `id`, if its chunk has been allocated. Lock-free.
    fn slot(&self, id: u32) -> Option<&'static S> {
        let (c, off) = locate(id);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        // SAFETY: a non-null chunk pointer is a zeroed allocation of
        // `1 << c` slots made in `slot_or_alloc` and never freed, all-zero
        // slots are valid (`ZeroedSlot`), and `off < 1 << c` by `locate`.
        (!chunk.is_null()).then(|| unsafe { &*chunk.add(off) })
    }

    /// The slot of `id`, allocating its chunk first if need be.
    fn slot_or_alloc(&self, id: u32) -> &'static S {
        if let Some(slot) = self.slot(id) {
            return slot;
        }
        let (c, off) = locate(id);
        let Ok(layout) = Layout::array::<S>(1 << c) else {
            // A chunk larger than the address space cannot be allocated
            // (only ids no table reaches live in chunks that large).
            handle_alloc_error(Layout::new::<S>())
        };
        // SAFETY: `layout` is not zero-sized: `S` is not (`ZeroedSlot`) and
        // a chunk holds at least one slot.
        let fresh = unsafe { alloc_zeroed(layout) }.cast::<S>();
        if fresh.is_null() {
            handle_alloc_error(layout);
        }
        let chunk = match self.chunks[c].compare_exchange(
            null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(won) => {
                // SAFETY: `fresh` was allocated above with `layout` and lost
                // the race unpublished, so no other thread can see it.
                unsafe { dealloc(fresh.cast(), layout) };
                won
            }
        };
        // SAFETY: as in `slot`.
        unsafe { &*chunk.add(off) }
    }

    /// Every slot of every allocated chunk, for the occupancy counts.
    fn all(&self) -> impl Iterator<Item = &'static S> + '_ {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            let chunk = chunk.load(Ordering::Acquire);
            let slots: &'static [S] = if chunk.is_null() {
                &[]
            } else {
                // SAFETY: as in `slot`: `1 << c` valid slots, never freed.
                unsafe { std::slice::from_raw_parts(chunk, 1 << c) }
            };
            slots.iter()
        })
    }
}

/// [`ChunkedSlab`] slot states. The all-zero slot is `EMPTY`.
const EMPTY: u8 = 0;
const WRITING: u8 = 1;
const FULL: u8 = 2;

/// A [`ChunkedSlab`] slot: the entry stored in place beside its state.
struct Slot<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: all-zero is `state == EMPTY` beside an uninitialized value, and
// the state byte keeps the slot at least one byte wide.
unsafe impl<T> ZeroedSlot for Slot<T> {}

// SAFETY: the all-zero `AtomicPtr` is null, and a pointer is not
// zero-sized.
unsafe impl<T> ZeroedSlot for AtomicPtr<T> {}

/// A lock-free, append-only table from dense `u32` ids to entries stored
/// in place: the node store of [`ConcurrentInterner`] and the backing store
/// of dense id-keyed memo tables.
///
/// A slot is the entry beside a state byte, in doubling chunks that are
/// never moved or freed, so a published entry is `&'static` even when the
/// slab itself is not a `static`. A read is two `Acquire` loads (chunk
/// pointer, then state) and no lock, and a write allocates nothing once
/// its chunk exists. Exactly one writer fills a slot: it claims the empty
/// slot, writes the entry and publishes it with a `Release` store; a
/// writer that loses the claim drops its value and returns the published
/// entry, so a memo of a deterministic function may race benignly on one
/// id. Readers never see a half-written entry.
pub struct ChunkedSlab<T: 'static> {
    chunks: Chunks<Slot<T>>,
    /// Readers on any thread get `&'static T`s, so sharing the slab is
    /// sharing its entries.
    _entries: PhantomData<&'static T>,
}

impl<T> ChunkedSlab<T> {
    /// Bytes one slot takes: the entry plus its state byte, rounded up to
    /// the entry's alignment.
    pub const SLOT_BYTES: usize = size_of::<Slot<T>>();

    /// An empty slab; usable in `static` initializers.
    #[must_use]
    pub const fn new() -> ChunkedSlab<T> {
        ChunkedSlab {
            chunks: Chunks::new(),
            _entries: PhantomData,
        }
    }

    /// The entry published for `id`, if any. Lock-free.
    pub fn get(&self, id: u32) -> Option<&'static T> {
        let slot = self.chunks.slot(id)?;
        // SAFETY: `FULL`, loaded with `Acquire`, means the writer's
        // `Release` store followed its write of the value, which is never
        // written again.
        (slot.state.load(Ordering::Acquire) == FULL)
            .then(|| unsafe { (*slot.value.get()).assume_init_ref() })
    }

    /// Publishes `value` for `id` unless an entry is already published (or
    /// being written) there, and returns the entry that `id` holds. Callers
    /// must only ever offer one value per id, or equal values.
    pub fn set(&self, id: u32, value: T) -> &'static T {
        let slot = self.chunks.slot_or_alloc(id);
        if slot
            .state
            .compare_exchange(EMPTY, WRITING, Ordering::Acquire, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: winning the `EMPTY → WRITING` claim makes this the only
            // thread that writes the slot, and no reader looks at the value
            // before `FULL`.
            unsafe { (*slot.value.get()).write(value) };
            slot.state.store(FULL, Ordering::Release);
        } else {
            // Another writer owns the slot; it publishes within a move.
            while slot.state.load(Ordering::Acquire) != FULL {
                std::thread::yield_now();
            }
        }
        // SAFETY: the state is `FULL`, stored by this thread or loaded with
        // `Acquire` above, so the value is written and never written again.
        unsafe { (*slot.value.get()).assume_init_ref() }
    }

    /// Number of published entries (for telemetry; walks the whole
    /// capacity).
    pub fn count(&self) -> usize {
        self.chunks
            .all()
            .filter(|slot| slot.state.load(Ordering::Acquire) == FULL)
            .count()
    }
}

impl<T> Default for ChunkedSlab<T> {
    fn default() -> ChunkedSlab<T> {
        ChunkedSlab::new()
    }
}

/// A lock-free, append-only table from dense `u32` ids to boxed entries,
/// one pointer per slot (null = empty): for tables that are *sparse* over
/// their ids and whose entries are large, where storing the entry in place
/// ([`ChunkedSlab`]) would spend a whole entry on every untouched id that
/// shares a page with a touched one.
///
/// The first writer of an id publishes its box with a compare-and-swap; a
/// writer that loses frees its box and returns the winner's entry.
pub struct PointerSlab<T: 'static> {
    chunks: Chunks<AtomicPtr<T>>,
    /// As in [`ChunkedSlab`].
    _entries: PhantomData<&'static T>,
}

impl<T> PointerSlab<T> {
    /// An empty slab; usable in `static` initializers.
    #[must_use]
    pub const fn new() -> PointerSlab<T> {
        PointerSlab {
            chunks: Chunks::new(),
            _entries: PhantomData,
        }
    }

    /// The entry published for `id`, if any. Lock-free.
    pub fn get(&self, id: u32) -> Option<&'static T> {
        let entry = self.chunks.slot(id)?.load(Ordering::Acquire);
        // SAFETY: a non-null entry is a leaked box, published with
        // `Release` after it was written and never freed.
        unsafe { entry.as_ref() }
    }

    /// Publishes `entry` for `id` unless an entry is already published
    /// there, and returns the entry that `id` holds.
    pub fn set(&self, id: u32, entry: Box<T>) -> &'static T {
        let fresh = Box::into_raw(entry);
        let slot = self.chunks.slot_or_alloc(id);
        match slot.compare_exchange(null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            // SAFETY: `fresh` is now a published leaked box, never freed.
            Ok(_) => unsafe { &*fresh },
            Err(won) => {
                // SAFETY: `fresh` came from `Box::into_raw` above and lost
                // the race unpublished; `won` is a published leaked box.
                unsafe {
                    drop(Box::from_raw(fresh));
                    &*won
                }
            }
        }
    }

    /// Number of published entries (for telemetry; walks the whole
    /// capacity).
    pub fn count(&self) -> usize {
        self.chunks
            .all()
            .filter(|entry| !entry.load(Ordering::Acquire).is_null())
            .count()
    }
}

impl<T> Default for PointerSlab<T> {
    fn default() -> PointerSlab<T> {
        PointerSlab::new()
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

/// A hash-consing arena that threads can share.
///
/// * [`get`](Self::get) (id → node) reads a [`ChunkedSlab`] — no lock;
/// * [`intern`](Self::intern) hashes the value once and probes one of 16
///   independent packed tables, taking a read lock on only that shard
///   (write lock and re-probe on a miss).
///
/// Ids are dense across the whole arena (a shared allocation counter), and
/// every node is written into its slab slot *before* its id is returned, so
/// any id obtained from `intern` can be dereferenced lock-free forever.
pub struct ConcurrentInterner<T: 'static> {
    shards: [RwLock<Table>; SHARDS],
    nodes: ChunkedSlab<T>,
    next: AtomicU32,
    hits: AtomicU64,
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
            hits: AtomicU64::new(0),
        }
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
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
        self.nodes.set(id, value);
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
        self.hits.load(Ordering::Relaxed)
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
    use std::sync::Arc;

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

    /// Ids on both sides of the first 21 chunk boundaries.
    fn boundary_ids() -> impl Iterator<Item = u32> {
        (0..21).flat_map(|c: u32| [(1u32 << c).saturating_sub(2), (1 << c) - 1, 1 << c])
    }

    #[test]
    fn slab_round_trips_across_chunk_boundaries() {
        let slab: ChunkedSlab<u32> = ChunkedSlab::new();
        let boxed: PointerSlab<u32> = PointerSlab::new();
        assert_eq!(slab.get(0), None);
        assert_eq!(boxed.get(0), None);
        for id in boundary_ids() {
            assert_eq!(*slab.set(id, id * 3 + 1), id * 3 + 1);
            assert_eq!(*boxed.set(id, Box::new(id * 3 + 1)), id * 3 + 1);
        }
        for id in boundary_ids() {
            assert_eq!(slab.get(id), Some(&(id * 3 + 1)));
            assert_eq!(boxed.get(id), Some(&(id * 3 + 1)));
        }
        let distinct = boundary_ids()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(slab.count(), distinct);
        assert_eq!(boxed.count(), distinct);
    }

    #[test]
    fn unset_ids_read_none_across_chunk_boundaries() {
        let slab: ChunkedSlab<u32> = ChunkedSlab::new();
        let boxed: PointerSlab<u32> = PointerSlab::new();
        // One id in each of chunks 0, 2, 9, 16 and 20; chunks 21 and up are
        // never allocated.
        let set = [0u32, 5, 1000, 65_535, 1 << 20];
        for id in set {
            slab.set(id, id + 1);
            boxed.set(id, Box::new(id + 1));
        }
        for id in boundary_ids().chain(set.map(|id| id + 1)) {
            let want = set.contains(&id).then_some(id + 1);
            assert_eq!(slab.get(id).copied(), want, "id {id}");
            assert_eq!(boxed.get(id).copied(), want, "id {id}");
        }
        assert_eq!(slab.get(u32::MAX - 1), None);
        assert_eq!(boxed.get(u32::MAX - 1), None);
        assert_eq!(slab.count(), set.len());
        assert_eq!(boxed.count(), set.len());
    }

    #[test]
    fn references_survive_later_chunks() {
        let slab: ChunkedSlab<u64> = ChunkedSlab::new();
        let boxed: PointerSlab<u64> = PointerSlab::new();
        let first = slab.set(0, 7);
        let first_boxed = boxed.set(0, Box::new(7));
        // Ids up to 2^14 allocate chunks 1 through 13.
        for id in 1..1u32 << 14 {
            slab.set(id, u64::from(id));
            boxed.set(id, Box::new(u64::from(id)));
        }
        assert_eq!((*first, *first_boxed), (7, 7));
        assert!(std::ptr::eq(first, slab.get(0).unwrap()));
        assert!(std::ptr::eq(first_boxed, boxed.get(0).unwrap()));
    }

    /// Drops of [`Counted`] values, for the racing-writers test alone.
    static DROPPED: AtomicU32 = AtomicU32::new(0);

    struct Counted(u32);

    impl Drop for Counted {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn racing_writers_publish_one_entry() {
        const WRITERS: u32 = 8;
        let slab: ChunkedSlab<Counted> = ChunkedSlab::new();
        let boxed: PointerSlab<Counted> = PointerSlab::new();
        let start = std::sync::Barrier::new(WRITERS as usize);
        let published: Vec<(&Counted, &Counted)> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (
                            slab.set(1000, Counted(1)),
                            boxed.set(1000, Box::new(Counted(1))),
                        )
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let (entry, boxed_entry) = (slab.get(1000).unwrap(), boxed.get(1000).unwrap());
        assert_eq!((entry.0, boxed_entry.0), (1, 1));
        for (a, b) in published {
            assert!(std::ptr::eq(a, entry) && std::ptr::eq(b, boxed_entry));
        }
        assert_eq!((slab.count(), boxed.count()), (1, 1));
        // Every writer but the one that published dropped its value.
        assert_eq!(DROPPED.load(Ordering::Relaxed), 2 * (WRITERS - 1));
    }

    #[test]
    fn in_place_slots_stay_small() {
        // A 40-byte, 8-aligned entry (a λGC `Value` on x86-64) and a 4-byte
        // one (a `TyId`): the state byte fits in the alignment padding.
        assert_eq!(ChunkedSlab::<[u64; 5]>::SLOT_BYTES, 48);
        assert_eq!(ChunkedSlab::<u32>::SLOT_BYTES, 8);
    }

    /// The test binary's allocator: the system allocator, counting each
    /// thread's allocations so that tests on other threads do not count.
    struct CountingAlloc;

    thread_local! {
        static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to the system allocator;
    // the count is a const-initialized thread-local without a destructor,
    // so bumping it never allocates.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            // SAFETY: the caller upholds `alloc`'s contract.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            // SAFETY: the caller upholds `alloc_zeroed`'s contract.
            unsafe { std::alloc::System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller upholds `dealloc`'s contract.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// Allocations the calling thread makes while running `f`.
    fn allocations(f: impl FnOnce()) -> u64 {
        let before = ALLOCATIONS.with(std::cell::Cell::get);
        f();
        ALLOCATIONS.with(std::cell::Cell::get) - before
    }

    #[test]
    fn storing_entries_allocates_per_chunk_not_per_entry() {
        const N: u32 = 10_000;
        let arena: ConcurrentInterner<(u32, u32)> = ConcurrentInterner::new();
        let memo: ChunkedSlab<u32> = ChunkedSlab::new();
        // 14 node chunks cover ids below 2^14; each of the 16 hash-cons
        // shards is allocated once and doubles about six times.
        let interning = allocations(|| {
            for k in 0..N {
                arena.intern((k, k));
            }
        });
        assert!(interning < 200, "{interning} allocations for {N} nodes");
        let memoizing = allocations(|| {
            for k in 0..N {
                memo.set(k, k);
            }
        });
        assert_eq!(memoizing, 14, "one allocation per chunk");
    }

    #[test]
    fn concurrent_interning_of_overlapping_key_sets() {
        for colliding in [false, true] {
            let pairs: Arc<ConcurrentInterner<(u32, u32)>> = Arc::default();
            let clashes: Arc<ConcurrentInterner<Clash>> = Arc::default();
            // Thread t interns keys [250 t, 250 t + 500): neighbours share
            // half their keys, 1250 distinct in all.
            let workers: Vec<_> = (0..4u32)
                .map(|t| {
                    let (pairs, clashes) = (Arc::clone(&pairs), Arc::clone(&clashes));
                    std::thread::spawn(move || {
                        for i in 250 * t..250 * t + 500 {
                            if colliding {
                                let id = clashes.intern(Clash(i));
                                assert_eq!(clashes.get(id), Some(&Clash(i)));
                            } else {
                                let id = pairs.intern((i, i * 2));
                                assert_eq!(pairs.get(id), Some(&(i, i * 2)));
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
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
