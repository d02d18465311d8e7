//! Region-based memory: the `M` and `Ψ` of Fig. 5/7, stored BiBOP-style.
//!
//! A memory is a map from region names `ν` to regions; a region is an arena
//! of slots addressed by offset `ℓ`. The distinguished code region `cd`
//! holds only code blocks and can never be reclaimed (§4.3/§6.2).
//!
//! # Big Bag of Pages layout
//!
//! Data regions are not flat vectors: each region owns a list of fixed-size
//! **pages** drawn from a shared [`Memory`]-wide page store. A page's header
//! records its owning region, its block size **class** (a power of two, in
//! words), an occupancy count, and a per-slot **dirty bitmap**. Objects of
//! the same class share a page; objects larger than a page get a dedicated
//! multi-page-footprint "large" page with a single slot. Offsets encode the
//! page directly — `ℓ = ordinal · page_words + slot` — so `put`/`get`/`set`
//! resolve `(ν, ℓ)` in O(1) through the region's page list, and locs still
//! ascend in allocation order within a size class.
//!
//! The page store gives three things the flat representation could not:
//!
//! 1. **Exact heap accounting** — [`MemConfig::max_heap_words`] caps the
//!    *reserved* page footprint, checked at page-allocation time, instead of
//!    a per-value running estimate.
//! 2. **Dirty-page tracking** — every `put`/`set` marks its slot in the
//!    page's dirty bitmap and enrolls the page in a memory-wide dirty set,
//!    so the auditor ([`crate::verify::audit_dirty`]) can re-check only what
//!    changed since the last audit. Region frees raise
//!    [`Memory::wants_full_audit`], forcing the next audit to walk
//!    everything (dangling pointers can hide in clean pages).
//! 3. **Page-level fault surface** — [`Memory::corrupt_page_header`] lets
//!    [`crate::faults`] desync a header from its storage, exercising the
//!    header checks real collectors depend on.
//!
//! The code region is special-cased as a dense vector: it is immortal,
//! bump-allocated once at load time, and read on every `app` step, so paging
//! it would cost indirection for nothing.
//!
//! Each data region carries a *word budget*; `ifgc ρ` tests fullness against
//! it (the paper's "if ρ is full" condition). Budgets follow a configurable
//! growth policy so that a collection into a fresh region always has room
//! for the live data (a heap-growth policy the paper leaves implicit).
//!
//! When [`MemConfig::track_types`] is on, the memory also maintains the
//! memory type `Ψ` (Fig. 7) incrementally, as per-slot metadata: each page
//! keeps one interned [`TyId`] per slot beside its values and size memos,
//! and `cd` keeps one per code block. Every `put` records the inferred
//! type of the stored value in its slot, freeing a page (`only`) frees its
//! entries with it, and `widen` (handled by the machine) rewrites the live
//! entries of the from-region with the `T` operator of Appendix C and
//! drops the rest. Checkpoints share `Ψ` with the pages it lives in. `Ψ` is
//! observer machinery for the well-formedness checks; it does not affect
//! evaluation, and an untracked memory stores none of it.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::{mem_err, oom_err, Result};
use crate::intern::{intern_ty, SlotVal, TyId};
use crate::syntax::{Region, RegionName, Ty, Value, CD};

/// How budgets for freshly allocated regions are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Every region gets [`MemConfig::region_budget`] words.
    Fixed,
    /// A new region gets `max(region_budget, 2 × words(largest live data
    /// region))` — the classic two-space doubling policy, guaranteeing the
    /// to-space of a collection can hold all live data.
    Adaptive,
}

impl std::fmt::Display for GrowthPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GrowthPolicy::Fixed => "fixed",
            GrowthPolicy::Adaptive => "adaptive",
        })
    }
}

impl std::str::FromStr for GrowthPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<GrowthPolicy, String> {
        match s {
            "fixed" => Ok(GrowthPolicy::Fixed),
            "adaptive" => Ok(GrowthPolicy::Adaptive),
            other => Err(format!(
                "unknown growth policy {other:?} (expected fixed|adaptive)"
            )),
        }
    }
}

/// Memory configuration.
#[derive(Clone, Copy, Debug)]
pub struct MemConfig {
    /// Base budget for fresh regions, in words.
    pub region_budget: usize,
    /// Budget growth policy.
    pub growth: GrowthPolicy,
    /// Maintain `Ψ` incrementally (needed for machine-state
    /// well-formedness checking; costs time, so benchmarks turn it off).
    pub track_types: bool,
    /// Hard cap on total reserved page words. `put` fails with a typed
    /// [`crate::error::ErrorKind::OutOfMemory`] error once allocating a
    /// fresh page would exceed the cap; `None` means unbounded.
    pub max_heap_words: Option<usize>,
    /// Page size in words. Normalized to a power of two in
    /// `1..=`[`MAX_PAGE_WORDS`] by [`Memory::new`]. The default, 512 words ×
    /// 8 bytes, is a 4KB page.
    pub page_words: usize,
}

/// The largest page size, in words: 2¹⁶ words, a 512KB page. A location is
/// `ordinal << slot_bits | slot` in a `u32`, so this leaves 16 bits for the
/// page ordinal, and it bounds the slot arrays a page allocates up front.
/// [`Memory::new`] saturates larger sizes to it.
pub const MAX_PAGE_WORDS: usize = 1 << 16;

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            region_budget: 256,
            growth: GrowthPolicy::Adaptive,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        }
    }
}

const BITMAP_WORD_BITS: usize = 64;

/// One BiBOP page: a header plus bump-allocated slots of a single size
/// class. `occupancy` deliberately duplicates `slots.len()` — the runtime
/// reads the storage, the auditor cross-checks the header, and the
/// `stale-page-header` fault class desyncs them.
#[derive(Clone, Debug)]
struct Page {
    owner: RegionName,
    /// Index of this page within its owner's page list.
    ordinal: u32,
    /// Slot size in words (power of two ≤ page_words, or the full footprint
    /// for a large single-slot page).
    class: usize,
    /// Maximum number of slots.
    capacity: u32,
    /// Header object count; must equal `slots.len()` in a sound store.
    occupancy: u32,
    /// Sum of `value_words` of the slots *at put time*. `set` never adjusts
    /// word counts (the slot keeps its `Υ`-assigned size), mirroring the
    /// per-region accounting.
    live_words: usize,
    /// Reserved words: `page_words`, or a rounded-up multiple for a large
    /// page. Drives exact `max_heap_words` accounting.
    footprint: usize,
    slots: Vec<SlotVal>,
    /// Per-slot size memo: `value_words` of each slot *at put time* (its
    /// `Υ`-assigned size). Never updated by `set`, so the incremental
    /// auditor can recount one dirty slot against its memo instead of
    /// walking the whole page.
    sizes: Vec<u32>,
    /// Per-slot dirty bitmap, cleared when the auditor acknowledges a pass.
    dirty: Vec<u64>,
    /// Per-slot "pristine" bitmap: set at put time, cleared by `set` (and
    /// only by `set` — a lazy-force backfill keeps it). A pristine slot
    /// still holds exactly the value whose type `put` inferred into `Ψ`, so
    /// the incremental auditor can skip re-synthesizing it.
    pristine: Vec<u64>,
    /// Per-slot `Ψ` entries, parallel to `slots` under
    /// [`MemConfig::track_types`] and empty (never allocated) otherwise.
    /// `None` is an entry `widen` dropped: a dead slot (Def. 7.1).
    psi: Vec<Option<TyId>>,
    /// Number of slots currently stored as unforced thunks, so a page free
    /// can bulk-report skipped interning probes in O(1).
    lazy_count: u32,
    /// Is this page currently enrolled in the memory-wide dirty set?
    in_dirty: bool,
}

impl Page {
    fn mark_slot_dirty(&mut self, slot: usize) -> bool {
        if let Some(w) = self.dirty.get_mut(slot / BITMAP_WORD_BITS) {
            *w |= 1u64 << (slot % BITMAP_WORD_BITS);
        }
        if self.in_dirty {
            false
        } else {
            self.in_dirty = true;
            true
        }
    }

    fn set_pristine(&mut self, slot: usize) {
        if let Some(w) = self.pristine.get_mut(slot / BITMAP_WORD_BITS) {
            *w |= 1u64 << (slot % BITMAP_WORD_BITS);
        }
    }

    fn clear_pristine(&mut self, slot: usize) {
        if let Some(w) = self.pristine.get_mut(slot / BITMAP_WORD_BITS) {
            *w &= !(1u64 << (slot % BITMAP_WORD_BITS));
        }
    }

    fn is_pristine(&self, slot: usize) -> bool {
        self.pristine
            .get(slot / BITMAP_WORD_BITS)
            .is_some_and(|w| (w >> (slot % BITMAP_WORD_BITS)) & 1 == 1)
    }
}

/// Size-class shape for an object of `words` words: `(class, capacity,
/// footprint)`. Small objects round up to a power-of-two class and share a
/// `page_words` page; larger objects get a single-slot page whose footprint
/// is rounded up to whole pages.
fn class_shape(words: usize, page_words: usize) -> (usize, u32, usize) {
    if words <= page_words {
        let class = words.max(1).next_power_of_two();
        (class, (page_words / class) as u32, page_words)
    } else {
        let footprint = words.div_ceil(page_words) * page_words;
        (footprint, 1, footprint)
    }
}

/// One region `R = {ℓ₁ ↦ v₁, …}`: a list of pages plus accounting.
#[derive(Clone, Debug, Default)]
struct RegionData {
    /// Page ids in allocation order; a page's `ordinal` indexes this list.
    pages: Vec<u32>,
    /// Current allocation page per size class: `(class, ordinal)`. Regions
    /// see a handful of classes, so a linear scan beats a map.
    open: Vec<(usize, u32)>,
    words: usize,
    budget: usize,
    objects: usize,
}

/// A read-only view of one region (the code region or a data region),
/// abstracting over their different representations.
#[derive(Clone, Copy)]
pub struct RegionView<'a> {
    mem: &'a Memory,
    inner: ViewInner<'a>,
}

#[derive(Clone, Copy)]
enum ViewInner<'a> {
    Code,
    Data(&'a RegionData),
}

impl<'a> RegionView<'a> {
    /// Number of words allocated in this region.
    pub fn words(&self) -> usize {
        match self.inner {
            ViewInner::Code => self.mem.code_words,
            ViewInner::Data(r) => r.words,
        }
    }

    /// This region's word budget (the code region is unbounded).
    pub fn budget(&self) -> usize {
        match self.inner {
            ViewInner::Code => usize::MAX,
            ViewInner::Data(r) => r.budget,
        }
    }

    /// Number of objects in this region.
    pub fn len(&self) -> usize {
        match self.inner {
            ViewInner::Code => self.mem.code.len(),
            ViewInner::Data(r) => r.objects,
        }
    }

    /// Is the region empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages backing this region (0 for the unpaged code region).
    pub fn page_count(&self) -> usize {
        match self.inner {
            ViewInner::Code => 0,
            ViewInner::Data(r) => r.pages.len(),
        }
    }

    /// Page ids backing this region, in ordinal order (empty for the
    /// unpaged code region).
    pub fn page_ids(&self) -> &'a [u32] {
        match self.inner {
            ViewInner::Code => &[],
            ViewInner::Data(r) => &r.pages,
        }
    }

    /// Iterates over `(offset, value)` pairs in ascending offset order.
    pub fn iter(&self) -> RegionIter<'a> {
        RegionIter {
            inner: match self.inner {
                ViewInner::Code => IterInner::Code(self.mem.code.iter().enumerate()),
                ViewInner::Data(r) => IterInner::Data {
                    mem: self.mem,
                    pages: &r.pages,
                    ordinal: 0,
                    slot: 0,
                },
            },
        }
    }
}

/// Iterator over a region's `(offset, value)` pairs.
pub struct RegionIter<'a> {
    inner: IterInner<'a>,
}

enum IterInner<'a> {
    Code(std::iter::Enumerate<std::slice::Iter<'a, SlotVal>>),
    Data {
        mem: &'a Memory,
        pages: &'a [u32],
        ordinal: usize,
        slot: usize,
    },
}

impl<'a> Iterator for RegionIter<'a> {
    type Item = (u32, &'a SlotVal);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            IterInner::Code(it) => it.next().map(|(i, v)| (i as u32, v)),
            IterInner::Data {
                mem,
                pages,
                ordinal,
                slot,
            } => loop {
                let &pid = pages.get(*ordinal)?;
                let Some(page) = mem.pages.get(pid as usize).and_then(Option::as_ref) else {
                    *ordinal += 1;
                    *slot = 0;
                    continue;
                };
                if let Some(v) = page.slots.get(*slot) {
                    let loc = ((*ordinal as u32) << mem.slot_bits) | (*slot as u32);
                    *slot += 1;
                    return Some((loc, v));
                }
                *ordinal += 1;
                *slot = 0;
            },
        }
    }
}

/// A read-only view of one page's header and slots.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    mem: &'a Memory,
    page: &'a Page,
    id: u32,
}

impl<'a> PageView<'a> {
    /// This page's id in the store.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The region that owns this page.
    pub fn owner(&self) -> RegionName {
        self.page.owner
    }

    /// Index of this page within its owner's page list.
    pub fn ordinal(&self) -> u32 {
        self.page.ordinal
    }

    /// Slot size class in words.
    pub fn class(&self) -> usize {
        self.page.class
    }

    /// Maximum number of slots.
    pub fn capacity(&self) -> u32 {
        self.page.capacity
    }

    /// Header occupancy count (equals [`PageView::len`] in a sound store).
    pub fn occupancy(&self) -> u32 {
        self.page.occupancy
    }

    /// Sum of slot sizes recorded at put time.
    pub fn live_words(&self) -> usize {
        self.page.live_words
    }

    /// Reserved words charged against the heap cap.
    pub fn footprint(&self) -> usize {
        self.page.footprint
    }

    /// Number of slots actually stored.
    pub fn len(&self) -> usize {
        self.page.slots.len()
    }

    /// Is the page empty?
    pub fn is_empty(&self) -> bool {
        self.page.slots.is_empty()
    }

    /// The slot value at index `i`, if populated.
    pub fn slot(&self, i: usize) -> Option<&'a SlotVal> {
        self.page.slots.get(i)
    }

    /// The put-time size memo of slot `i`, in words (the slot's
    /// `Υ`-assigned size; `set` never updates it).
    pub fn slot_size(&self, i: usize) -> Option<usize> {
        self.page.sizes.get(i).map(|&w| w as usize)
    }

    /// Is slot `i` pristine — unwritten since its `put` (so its `Ψ` entry
    /// still describes exactly its contents)?
    pub fn is_pristine(&self, i: usize) -> bool {
        self.page.is_pristine(i)
    }

    /// Iterates over the populated slots.
    pub fn slots(&self) -> impl Iterator<Item = &'a SlotVal> {
        self.page.slots.iter()
    }

    /// Slot indices written since the last acknowledged audit.
    pub fn dirty_slots(&self) -> impl Iterator<Item = usize> + 'a {
        let page = self.page;
        (0..page.slots.len()).filter(move |s| {
            page.dirty
                .get(s / BITMAP_WORD_BITS)
                .is_some_and(|w| (w >> (s % BITMAP_WORD_BITS)) & 1 == 1)
        })
    }

    /// The region offset of slot `i` on this page.
    pub fn loc_of(&self, i: usize) -> u32 {
        (self.page.ordinal << self.mem.slot_bits) | (i as u32)
    }
}

/// Counters describing the page store, for `--stats-pages` and telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Page size in words (normalized).
    pub page_words: usize,
    /// Pages ever allocated.
    pub allocated: u64,
    /// Pages ever freed.
    pub freed: u64,
    /// Pages currently live.
    pub live: usize,
    /// High-water mark of live pages.
    pub peak_live: usize,
    /// Words currently reserved by live pages (what `max_heap_words` caps).
    pub reserved_words: usize,
    /// Live data words within those pages.
    pub live_data_words: usize,
}

/// A fresh page allocation performed by a `put`, reported so callers can
/// emit telemetry without the memory knowing about observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageAlloc {
    /// The new page's id.
    pub page: u32,
    /// Its size class in words.
    pub class: usize,
    /// Reserved words charged against the heap cap.
    pub footprint: usize,
}

/// The result of a counted `put`: the new offset, the stored value's size,
/// and the page allocation it triggered (if any).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutRecord {
    /// Offset of the stored value.
    pub loc: u32,
    /// The stored value's size in words.
    pub words: usize,
    /// `Some` iff this put opened a fresh page.
    pub page: Option<PageAlloc>,
}

/// The size in words of a stored value.
///
/// Ints, addresses and code pointers occupy one word; pairs are unboxed
/// aggregates; existential packages carry one extra word for the runtime
/// tag; `inl`/`inr` cost nothing extra (§7: the forwarding discriminator is
/// a single stolen bit, which the paper contrasts with the extra word of
/// Wang–Appel-style paired forwarding).
pub fn value_words(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Addr(..) | Value::Var(_) | Value::Code(_) | Value::TagApp(..) => 1,
        Value::Pair(a, b) => value_words(a) + value_words(b),
        Value::PackTag { val, .. } => 1 + value_words(val),
        Value::PackAlpha { val, .. } | Value::PackRgn { val, .. } => value_words(val),
        Value::Inl(x) | Value::Inr(x) => value_words(x),
    }
}

/// The size in words of a stored slot, computed *without* forcing: a
/// thunk's children are canonical nodes, so the sum equals
/// [`value_words`] of the forced form by construction.
pub fn slot_words(sv: &SlotVal) -> usize {
    match sv {
        SlotVal::Val(v) => value_words(v),
        SlotVal::LazyPair(c) => value_words(c.0.value()) + value_words(c.1.value()),
        SlotVal::LazyInl(c) | SlotVal::LazyInr(c) => value_words(c.value()),
    }
}

/// The result of an `only ∆` reclamation, recorded for statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReclaimReport {
    /// `(region, words, objects)` for each dropped region.
    pub dropped: Vec<(RegionName, usize, usize)>,
    /// Total live words kept (data regions only).
    pub kept_words: usize,
    /// `(region, page id, footprint words)` for each page returned to the
    /// store, in free order (grouped by region).
    pub freed_pages: Vec<(RegionName, u32, usize)>,
}

impl ReclaimReport {
    /// Total words reclaimed.
    pub fn words_reclaimed(&self) -> usize {
        self.dropped.iter().map(|(_, w, _)| *w).sum()
    }
}

/// A λGC memory: a BiBOP page store and regions. Under
/// [`MemConfig::track_types`] it also holds the memory type `Ψ`, as one
/// interned type per slot in the page beside the slot ([`Memory::psi_entry`]);
/// `cd`'s types are kept either way.
///
/// # Examples
///
/// ```
/// use ps_gc_lang::memory::{MemConfig, Memory};
/// use ps_gc_lang::syntax::Value;
///
/// let mut mem = Memory::new(MemConfig::default());
/// let nu = mem.alloc_region();
/// let loc = mem.put(nu, Value::pair(Value::Int(1), Value::Int(2))).unwrap();
/// assert_eq!(mem.get(nu, loc).unwrap(), &Value::pair(Value::Int(1), Value::Int(2)));
/// let report = mem.only(&[]); // reclaim everything but cd
/// assert_eq!(report.words_reclaimed(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Memory {
    /// Region table indexed by the (monotonically assigned) region name:
    /// `regions[n]` is `Some` while data region `n` is live. Names are
    /// dense — `cd` is 0 (kept as a permanent `None` placeholder so indices
    /// align) and `alloc_region` hands out successors — so a flat table
    /// gives O(1) lookup and iteration in ascending-name order, matching
    /// the ordered-map semantics telemetry and audits rely on.
    regions: Vec<Option<RegionData>>,
    /// The code region, dense: immortal, bump-allocated at load time, read
    /// on every `app` step, so it bypasses the page store. Entries are
    /// always the canonical [`SlotVal::Val`] arm — code is never lazy.
    code: Vec<SlotVal>,
    /// `Ψ` of `cd`: each code block's type, parallel to `code`. Kept
    /// whether or not types are tracked; it is what code addresses type by.
    code_tys: Vec<TyId>,
    code_words: usize,
    /// The page store. `pages[id]` is `Some` while page `id` is live; freed
    /// ids are recycled through `free_pages`. Pages sit behind `Arc` so a
    /// `Memory` clone — the machine-checkpoint image — is copy-on-reference:
    /// refcount bumps now, a page copied only when a later write touches it
    /// ([`Arc::make_mut`]).
    pages: Vec<Option<Arc<Page>>>,
    free_pages: Vec<u32>,
    /// Ids of pages written since the last acknowledged audit. A `BTreeSet`
    /// so reused ids dedup (bounding growth even when no audits run) and
    /// iteration is deterministic.
    dirty: BTreeSet<u32>,
    /// Set when regions were freed since the last full audit: dangling
    /// pointers can hide in clean pages, so the next audit must walk
    /// everything.
    full_pending: bool,
    /// Ids of live data regions. Region ids are never reused, so `regions`
    /// grows monotonically; this index keeps `region_names` (and with it
    /// the per-step incremental audit) O(live) instead of O(ever
    /// allocated).
    live_regions: BTreeSet<u32>,
    next_region: u32,
    config: MemConfig,
    /// `page_words.trailing_zeros()`: offsets are `ordinal << slot_bits | slot`.
    slot_bits: u32,
    /// Running total of live value words in data regions, maintained by
    /// `put`/`only` so [`Memory::data_words`] is O(1). `set` deliberately
    /// does not adjust word counts (the slot keeps its location's size in
    /// the region type `Υ`), so no adjustment is needed here either.
    data_words: usize,
    /// Sum of live page footprints; what `max_heap_words` caps.
    reserved_words: usize,
    pages_allocated: u64,
    pages_freed: u64,
    live_pages: usize,
    peak_live_pages: usize,
}

impl Memory {
    /// Creates an empty memory containing only the code region. The
    /// configured `page_words` is normalized to a power of two in
    /// `1..=`[`MAX_PAGE_WORDS`], saturating at the maximum.
    pub fn new(mut config: MemConfig) -> Memory {
        config.page_words = config
            .page_words
            .clamp(1, MAX_PAGE_WORDS)
            .next_power_of_two();
        let slot_bits = config.page_words.trailing_zeros();
        Memory {
            regions: vec![None],
            code: Vec::new(),
            code_tys: Vec::new(),
            code_words: 0,
            pages: Vec::new(),
            free_pages: Vec::new(),
            dirty: BTreeSet::new(),
            full_pending: false,
            live_regions: BTreeSet::new(),
            next_region: 1,
            config,
            slot_bits,
            data_words: 0,
            reserved_words: 0,
            pages_allocated: 0,
            pages_freed: 0,
            live_pages: 0,
            peak_live_pages: 0,
        }
    }

    /// The configuration this memory was created with (with `page_words`
    /// normalized).
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Installs a code block in `cd` with its `Ψ` type, returning its
    /// offset.
    ///
    /// Only used at load time (§4.3: functions are placed into `cd` when
    /// translating code and never directly appear in λGC terms).
    pub fn install_code(&mut self, code: Value, ty: TyId) -> u32 {
        let loc = self.code.len() as u32;
        self.code_words += value_words(&code);
        self.code.push(SlotVal::Val(code));
        self.code_tys.push(ty);
        loc
    }

    /// Allocates a fresh region and returns its name.
    pub fn alloc_region(&mut self) -> RegionName {
        let budget = match self.config.growth {
            GrowthPolicy::Fixed => self.config.region_budget,
            GrowthPolicy::Adaptive => {
                let max_live = self
                    .live_regions
                    .iter()
                    .filter_map(|&i| self.regions.get(i as usize).and_then(Option::as_ref))
                    .map(|r| r.words)
                    .max()
                    .unwrap_or(0);
                self.config.region_budget.max(max_live * 2)
            }
        };
        let name = RegionName(self.next_region);
        self.next_region += 1;
        let idx = name.0 as usize;
        if self.regions.len() <= idx {
            self.regions.resize_with(idx + 1, || None);
        }
        self.regions[idx] = Some(RegionData {
            budget,
            ..RegionData::default()
        });
        self.live_regions.insert(name.0);
        name
    }

    /// Stores `v` in region `nu` and returns the new offset.
    ///
    /// # Errors
    ///
    /// Fails if the region does not exist or is the code region, or with a
    /// typed out-of-memory error if a fresh page would exceed the heap cap.
    pub fn put(&mut self, nu: RegionName, v: Value) -> Result<u32> {
        Ok(self.put_slot_counted(nu, SlotVal::Val(v))?.loc)
    }

    /// Like [`Memory::put`], but stores a [`SlotVal`] directly and also
    /// returns the stored value's size in words and any fresh page
    /// allocation, so callers tallying statistics and telemetry reuse the
    /// walk the size-class computation performed. Allocation paths can
    /// defer the interning of freshly built pairs and injections
    /// ([`SlotVal::pair`]/[`SlotVal::inl`]/[`SlotVal::inr`]): word
    /// accounting and `Ψ` inference read the uninterned nodes, and both
    /// agree exactly with the forced form.
    ///
    /// # Errors
    ///
    /// As [`Memory::put`].
    pub fn put_slot_counted(&mut self, nu: RegionName, sv: SlotVal) -> Result<PutRecord> {
        if nu.is_cd() {
            return Err(mem_err("cannot put into the code region"));
        }
        let inferred = if self.config.track_types {
            Some(self.infer_slot_ty(&sv)?)
        } else {
            None
        };
        let ridx = nu.0 as usize;
        if self.regions.get(ridx).and_then(Option::as_ref).is_none() {
            return Err(mem_err(format!("put into missing region {nu}")));
        }
        let words = slot_words(&sv);
        let (class, capacity, footprint) = class_shape(words, self.config.page_words);

        // Probe the region's open page for this size class.
        let mut target: Option<(u32, u32)> = None; // (page id, ordinal)
        if let Some(region) = self.regions.get(ridx).and_then(Option::as_ref) {
            if let Some(&(_, ordinal)) = region.open.iter().find(|(c, _)| *c == class) {
                if let Some(&pid) = region.pages.get(ordinal as usize) {
                    if let Some(page) = self.pages.get(pid as usize).and_then(Option::as_ref) {
                        if (page.slots.len() as u32) < page.capacity {
                            target = Some((pid, ordinal));
                        }
                    }
                }
            }
        }

        let mut page_alloc = None;
        let (pid, ordinal) = match target {
            Some(t) => t,
            None => {
                // Fresh page: this is where the heap cap is enforced,
                // exactly and page-granularly.
                if let Some(limit) = self.config.max_heap_words {
                    if self.reserved_words + footprint > limit {
                        return Err(oom_err(format!(
                            "a fresh {footprint}-word page would exceed the heap cap \
                             ({} reserved + {footprint} > {limit})",
                            self.reserved_words
                        )));
                    }
                }
                let ordinal = self
                    .regions
                    .get(ridx)
                    .and_then(Option::as_ref)
                    .map_or(0, |r| r.pages.len() as u32);
                let page = Page {
                    owner: nu,
                    ordinal,
                    class,
                    capacity,
                    occupancy: 0,
                    live_words: 0,
                    footprint,
                    slots: Vec::with_capacity(capacity as usize),
                    sizes: Vec::with_capacity(capacity as usize),
                    dirty: vec![0; (capacity as usize).div_ceil(BITMAP_WORD_BITS)],
                    pristine: vec![0; (capacity as usize).div_ceil(BITMAP_WORD_BITS)],
                    psi: if inferred.is_some() {
                        Vec::with_capacity(capacity as usize)
                    } else {
                        Vec::new()
                    },
                    lazy_count: 0,
                    in_dirty: false,
                };
                let pid = match self.free_pages.pop() {
                    Some(id) => {
                        if let Some(cell) = self.pages.get_mut(id as usize) {
                            *cell = Some(Arc::new(page));
                        }
                        id
                    }
                    None => {
                        self.pages.push(Some(Arc::new(page)));
                        (self.pages.len() - 1) as u32
                    }
                };
                if let Some(region) = self.regions.get_mut(ridx).and_then(Option::as_mut) {
                    region.pages.push(pid);
                    match region.open.iter_mut().find(|(c, _)| *c == class) {
                        Some(entry) => entry.1 = ordinal,
                        None => region.open.push((class, ordinal)),
                    }
                }
                self.reserved_words += footprint;
                self.pages_allocated += 1;
                self.live_pages += 1;
                self.peak_live_pages = self.peak_live_pages.max(self.live_pages);
                page_alloc = Some(PageAlloc {
                    page: pid,
                    class,
                    footprint,
                });
                (pid, ordinal)
            }
        };

        let mut slot = 0u32;
        let mut newly_dirty = false;
        let lazy = sv.is_lazy();
        if let Some(page) = self
            .pages
            .get_mut(pid as usize)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
        {
            slot = page.slots.len() as u32;
            page.slots.push(sv);
            page.sizes.push(words as u32);
            if lazy {
                page.lazy_count += 1;
            }
            page.occupancy = page.occupancy.wrapping_add(1);
            page.live_words += words;
            page.set_pristine(slot as usize);
            if inferred.is_some() {
                page.psi.push(inferred);
            }
            newly_dirty = page.mark_slot_dirty(slot as usize);
        }
        if newly_dirty {
            self.dirty.insert(pid);
        }
        if let Some(region) = self.regions.get_mut(ridx).and_then(Option::as_mut) {
            region.words += words;
            region.objects += 1;
        }
        self.data_words += words;
        let loc = (ordinal << self.slot_bits) | slot;
        Ok(PutRecord {
            loc,
            words,
            page: page_alloc,
        })
    }

    /// Reads the value at `ν.ℓ`, resolving through the page headers in
    /// O(1). A read is an *identity demand*: if the slot is still a thunk
    /// it is forced — its deferred interning probes are paid — and
    /// backfilled in place with its canonical form (marking the slot
    /// dirty), so each slot is interned at most once. Use
    /// [`Memory::peek`] for a forcing-free read.
    ///
    /// # Errors
    ///
    /// Fails on dangling addresses (reclaimed region or bad offset).
    pub fn get(&mut self, nu: RegionName, loc: u32) -> Result<&Value> {
        if nu.is_cd() {
            return self
                .code
                .get(loc as usize)
                .and_then(SlotVal::as_val)
                .ok_or_else(|| mem_err(format!("get from bad offset {nu}.{loc}")));
        }
        let region = self
            .regions
            .get(nu.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| mem_err(format!("get from reclaimed region {nu}")))?;
        let ordinal = (loc >> self.slot_bits) as usize;
        let slot = (loc as usize) & (self.config.page_words - 1);
        let pid = *region
            .pages
            .get(ordinal)
            .ok_or_else(|| mem_err(format!("get from bad offset {nu}.{loc}")))?;
        let lazy = self
            .pages
            .get(pid as usize)
            .and_then(Option::as_ref)
            .and_then(|p| p.slots.get(slot))
            .map(SlotVal::is_lazy)
            .ok_or_else(|| mem_err(format!("get from bad offset {nu}.{loc}")))?;
        if lazy {
            // Backfilling is observationally invisible — the canonical
            // value, its word count, its inferred type, and its outgoing
            // pointers are all unchanged — so the slot is deliberately NOT
            // dirty-marked: the auditor already vetted it when the put
            // dirtied it, and re-queuing every forced slot would charge
            // the incremental audit for reads.
            if let Some(page) = self
                .pages
                .get_mut(pid as usize)
                .and_then(Option::as_mut)
                .map(Arc::make_mut)
            {
                if let Some(stored) = page.slots.get_mut(slot) {
                    stored.backfill();
                }
                page.lazy_count = page.lazy_count.saturating_sub(1);
            }
        }
        self.pages
            .get(pid as usize)
            .and_then(Option::as_ref)
            .and_then(|p| p.slots.get(slot))
            .and_then(SlotVal::as_val)
            .ok_or_else(|| mem_err(format!("get from bad offset {nu}.{loc}")))
    }

    /// Reads the slot at `ν.ℓ` without forcing: a thunk stays a thunk.
    /// Observational machinery (auditor, supervisor, well-formedness
    /// checker) reads through this so a verification pass cannot perturb
    /// the interning counters. Error messages are identical to
    /// [`Memory::get`]'s, so audit verdicts don't depend on which path
    /// probed a dangling address.
    ///
    /// # Errors
    ///
    /// Fails on dangling addresses (reclaimed region or bad offset).
    pub fn peek(&self, nu: RegionName, loc: u32) -> Result<&SlotVal> {
        if nu.is_cd() {
            return self
                .code
                .get(loc as usize)
                .ok_or_else(|| mem_err(format!("get from bad offset {nu}.{loc}")));
        }
        let region = self
            .regions
            .get(nu.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| mem_err(format!("get from reclaimed region {nu}")))?;
        let ordinal = (loc >> self.slot_bits) as usize;
        let slot = (loc as usize) & (self.config.page_words - 1);
        region
            .pages
            .get(ordinal)
            .and_then(|&pid| self.pages.get(pid as usize).and_then(Option::as_ref))
            .and_then(|p| p.slots.get(slot))
            .ok_or_else(|| mem_err(format!("get from bad offset {nu}.{loc}")))
    }

    /// Overwrites the slot at `ν.ℓ` (the `set` of λGCforw), marking the
    /// page dirty. The memory type entry is unchanged: the region type `Υ`
    /// assigns a fixed type to every location, and `set` is only used at
    /// sum type.
    ///
    /// # Errors
    ///
    /// Fails on the code region, reclaimed regions, and bad offsets.
    pub fn set(&mut self, nu: RegionName, loc: u32, v: Value) -> Result<()> {
        if nu.is_cd() {
            return Err(mem_err("cannot set into the code region"));
        }
        let region = self
            .regions
            .get(nu.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| mem_err(format!("set into missing region {nu}")))?;
        let ordinal = (loc >> self.slot_bits) as usize;
        let slot = (loc as usize) & (self.config.page_words - 1);
        let pid = *region
            .pages
            .get(ordinal)
            .ok_or_else(|| mem_err(format!("set at bad offset {nu}.{loc}")))?;
        let page = self
            .pages
            .get_mut(pid as usize)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
            .ok_or_else(|| mem_err(format!("set at bad offset {nu}.{loc}")))?;
        let stored = page
            .slots
            .get_mut(slot)
            .ok_or_else(|| mem_err(format!("set at bad offset {nu}.{loc}")))?;
        let was_lazy = stored.is_lazy();
        *stored = SlotVal::Val(v);
        if was_lazy {
            // The thunk died unforced: its interning probes were never paid.
            crate::intern::note_lazy_skipped_n(1);
            page.lazy_count = page.lazy_count.saturating_sub(1);
        }
        page.clear_pristine(slot);
        if page.mark_slot_dirty(slot) {
            self.dirty.insert(pid);
        }
        Ok(())
    }

    /// Is region `nu` full (words ≥ budget)? The code region is never full.
    ///
    /// # Errors
    ///
    /// Fails if the region does not exist.
    pub fn is_full(&self, nu: RegionName) -> Result<bool> {
        if nu.is_cd() {
            return Ok(false);
        }
        let r = self
            .regions
            .get(nu.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| mem_err(format!("ifgc on missing region {nu}")))?;
        Ok(r.words >= r.budget)
    }

    /// Implements `only ∆`: reclaims every data region not in `keep`
    /// (`cd` is always kept), returning each region's pages to the store.
    /// Returns a report of what was dropped. Any reclamation raises
    /// [`Memory::wants_full_audit`].
    pub fn only(&mut self, keep: &[RegionName]) -> ReclaimReport {
        let mut report = ReclaimReport::default();
        let live: Vec<u32> = self.live_regions.iter().copied().collect();
        for idx in live {
            let nu = RegionName(idx);
            if keep.contains(&nu) {
                if let Some(r) = self.regions.get(idx as usize).and_then(Option::as_ref) {
                    report.kept_words += r.words;
                }
                continue;
            }
            let Some(dropped) = self.regions.get_mut(idx as usize).and_then(Option::take) else {
                continue;
            };
            self.live_regions.remove(&idx);
            for &pid in &dropped.pages {
                let footprint = self.free_page(pid);
                report.freed_pages.push((nu, pid, footprint));
            }
            self.data_words -= dropped.words;
            report.dropped.push((nu, dropped.words, dropped.objects));
        }
        if !report.dropped.is_empty() {
            self.full_pending = true;
        }
        report
    }

    /// Returns page `pid` to the store, yielding its footprint (0 if the
    /// page was already gone — an internal invariant violation the auditor
    /// would flag via the owning region's page list).
    fn free_page(&mut self, pid: u32) -> usize {
        let Some(page) = self.pages.get_mut(pid as usize).and_then(Option::take) else {
            return 0;
        };
        // Thunks that die with their page never pay their interning probes.
        crate::intern::note_lazy_skipped_n(u64::from(page.lazy_count));
        self.free_pages.push(pid);
        self.dirty.remove(&pid);
        self.reserved_words -= page.footprint;
        self.live_pages -= 1;
        self.pages_freed += 1;
        page.footprint
    }

    /// Drops a single data region unconditionally, bypassing `only`'s
    /// keep-set discipline. This is **fault-injection machinery** (a
    /// simulated double-free for [`crate::faults`]); collectors reclaim
    /// through [`Memory::only`]. Returns whether the region existed.
    pub fn force_free_region(&mut self, nu: RegionName) -> bool {
        if nu.is_cd() {
            return false;
        }
        let Some(dropped) = self.regions.get_mut(nu.0 as usize).and_then(Option::take) else {
            return false;
        };
        self.live_regions.remove(&nu.0);
        for &pid in &dropped.pages {
            self.free_page(pid);
        }
        self.data_words -= dropped.words;
        self.full_pending = true;
        true
    }

    /// Overwrites a region's budget, ignoring the growth policy. This is
    /// **fault-injection machinery** (a simulated budget underflow for
    /// [`crate::faults`]). Returns whether the region existed.
    pub fn corrupt_budget(&mut self, nu: RegionName, budget: usize) -> bool {
        if nu.is_cd() {
            return false;
        }
        match self.regions.get_mut(nu.0 as usize).and_then(Option::as_mut) {
            Some(region) => {
                region.budget = budget;
                true
            }
            None => false,
        }
    }

    /// Bumps page `pid`'s header occupancy without touching its storage,
    /// and enrolls the page in the dirty set. This is **fault-injection
    /// machinery** (the `stale-page-header` class of [`crate::faults`]).
    /// Returns whether the page existed.
    pub fn corrupt_page_header(&mut self, pid: u32) -> bool {
        let Some(page) = self
            .pages
            .get_mut(pid as usize)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
        else {
            return false;
        };
        page.occupancy = page.occupancy.wrapping_add(1);
        page.in_dirty = true;
        self.dirty.insert(pid);
        true
    }

    /// Live region names (including `cd`), ascending. O(live regions):
    /// backed by the `live_regions` index, not a scan of the monotonically
    /// growing `regions` vector.
    pub fn region_names(&self) -> impl Iterator<Item = RegionName> + '_ {
        std::iter::once(CD).chain(self.live_regions.iter().map(|&i| RegionName(i)))
    }

    /// The id the *next* `alloc_region` will use. Telemetry snapshots this
    /// at collection begin: regions with a smaller id predate the
    /// collection, so copies into them are promotions.
    pub fn next_region_id(&self) -> u32 {
        self.next_region
    }

    /// Does region `nu` exist?
    pub fn has_region(&self, nu: RegionName) -> bool {
        nu.is_cd()
            || self
                .regions
                .get(nu.0 as usize)
                .and_then(Option::as_ref)
                .is_some()
    }

    /// Access a region's data.
    pub fn region(&self, nu: RegionName) -> Option<RegionView<'_>> {
        if nu.is_cd() {
            return Some(RegionView {
                mem: self,
                inner: ViewInner::Code,
            });
        }
        self.regions
            .get(nu.0 as usize)
            .and_then(Option::as_ref)
            .map(|r| RegionView {
                mem: self,
                inner: ViewInner::Data(r),
            })
    }

    /// Access a page's header and slots.
    pub fn page(&self, pid: u32) -> Option<PageView<'_>> {
        self.pages
            .get(pid as usize)
            .and_then(Option::as_ref)
            .map(|p| PageView {
                mem: self,
                page: p,
                id: pid,
            })
    }

    /// Ids of all live pages, ascending.
    pub fn live_page_ids(&self) -> Vec<u32> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i as u32))
            .collect()
    }

    /// Ids of pages written since the last acknowledged audit, ascending.
    pub fn dirty_page_ids(&self) -> Vec<u32> {
        self.dirty.iter().copied().collect()
    }

    /// Number of live pages.
    pub fn live_pages(&self) -> usize {
        self.live_pages
    }

    /// Page-store counters.
    pub fn page_stats(&self) -> PageStats {
        PageStats {
            page_words: self.config.page_words,
            allocated: self.pages_allocated,
            freed: self.pages_freed,
            live: self.live_pages,
            peak_live: self.peak_live_pages,
            reserved_words: self.reserved_words,
            live_data_words: self.data_words,
        }
    }

    /// Words currently reserved by live pages (what `max_heap_words` caps).
    pub fn reserved_words(&self) -> usize {
        self.reserved_words
    }

    // ----- audit bookkeeping --------------------------------------------

    /// Must the next audit walk the full heap? Raised by region frees:
    /// dangling pointers can hide in pages that were never re-dirtied.
    pub fn wants_full_audit(&self) -> bool {
        self.full_pending
    }

    /// Acknowledges a dirty-page audit: clears the dirty set and every
    /// enrolled page's bitmap.
    pub fn note_dirty_audit(&mut self) {
        let ids = std::mem::take(&mut self.dirty);
        for pid in ids {
            if let Some(page) = self
                .pages
                .get_mut(pid as usize)
                .and_then(Option::as_mut)
                .map(Arc::make_mut)
            {
                page.in_dirty = false;
                page.dirty.fill(0);
            }
        }
    }

    /// Acknowledges a full audit: as [`Memory::note_dirty_audit`], and
    /// clears the full-walk request.
    pub fn note_full_audit(&mut self) {
        self.note_dirty_audit();
        self.full_pending = false;
    }

    /// Total words in data regions. O(1): the total is maintained
    /// incrementally by `put` and `only`, so the interpreter can take a
    /// peak reading on every step without an O(regions) walk.
    pub fn data_words(&self) -> usize {
        debug_assert_eq!(
            self.data_words,
            self.regions
                .iter()
                .skip(1) // cd placeholder
                .flatten()
                .map(|r| r.words)
                .sum::<usize>(),
            "incremental data-word total out of sync"
        );
        self.data_words
    }

    // ----- Ψ maintenance (observer machinery) ---------------------------

    /// The `Ψ` entry at `ν.ℓ`, resolved through the same ordinal/slot
    /// lookup as [`Memory::peek`]. `None` for a dangling address, for a
    /// slot whose entry `widen` dropped, and for every data slot of an
    /// untracked memory; `cd`'s entries are always kept.
    pub fn psi_entry(&self, nu: RegionName, loc: u32) -> Option<TyId> {
        if nu.is_cd() {
            return self.code_tys.get(loc as usize).copied();
        }
        let region = self.regions.get(nu.0 as usize)?.as_ref()?;
        let pid = *region.pages.get((loc >> self.slot_bits) as usize)?;
        let page = self.pages.get(pid as usize)?.as_ref()?;
        page.psi
            .get((loc as usize) & (self.config.page_words - 1))
            .copied()
            .flatten()
    }

    /// Overwrites the `Ψ` entry of the live data slot `ν.ℓ`: the machine's
    /// `widen` handler rewrites reachable entries with the `T` operator of
    /// Appendix C and drops (`None`) the rest, dead garbage by Def. 7.1's
    /// `M̄ ⊆ M`. Does nothing on an untracked memory or a dangling address.
    /// A page a checkpoint shares is copied first, so the checkpoint keeps
    /// its entry.
    pub fn set_psi_entry(&mut self, nu: RegionName, loc: u32, ty: Option<TyId>) {
        if nu.is_cd() {
            return;
        }
        let Some(&pid) = self
            .regions
            .get(nu.0 as usize)
            .and_then(Option::as_ref)
            .and_then(|r| r.pages.get((loc >> self.slot_bits) as usize))
        else {
            return;
        };
        let slot = (loc as usize) & (self.config.page_words - 1);
        if let Some(page) = self.pages.get_mut(pid as usize).and_then(Option::as_mut) {
            if slot < page.psi.len() {
                Arc::make_mut(page).psi[slot] = ty;
            }
        }
    }

    /// Infers the type of a storable value from its structure, its
    /// annotations, and `Ψ` (for embedded addresses), as an interned id.
    ///
    /// This is syntax-directed: packages carry their body types, code blocks
    /// their signatures, and addresses are looked up in `Ψ`. The
    /// well-formedness checker re-validates all of this against the real
    /// typing rules; inference only *names* the type.
    ///
    /// # Errors
    ///
    /// Fails on open values or addresses missing from `Ψ`.
    pub fn infer_stored_ty(&self, v: &Value) -> Result<TyId> {
        let ty = match v {
            Value::Int(_) => Ty::Int,
            Value::Var(x) => {
                return Err(mem_err(format!("open value (free variable {x}) in store")))
            }
            Value::Addr(nu, loc) => {
                let ty = self
                    .psi_entry(*nu, *loc)
                    .ok_or_else(|| mem_err(format!("no Ψ entry for {nu}.{loc}")))?;
                Ty::At(ty, Region::Name(*nu))
            }
            Value::Pair(a, b) => Ty::Prod(self.infer_stored_ty(a)?, self.infer_stored_ty(b)?),
            Value::PackTag {
                tvar,
                kind,
                body_ty,
                ..
            } => Ty::ExistTag {
                tvar: *tvar,
                kind: *kind,
                body: *body_ty,
            },
            Value::PackAlpha {
                avar,
                regions,
                body_ty,
                ..
            } => Ty::ExistAlpha {
                avar: *avar,
                regions: regions.clone(),
                body: *body_ty,
            },
            Value::PackRgn {
                rvar,
                bound,
                body_ty,
                ..
            } => Ty::ExistRgn {
                rvar: *rvar,
                bound: bound.clone(),
                body: *body_ty,
            },
            Value::TagApp(f, tags, regions) => match self.infer_stored_ty(f)?.node() {
                Ty::At(inner, rho) => match inner.node() {
                    Ty::Code { tvars, rvars, args } => {
                        if tvars.len() != tags.len() || rvars.len() != regions.len() {
                            return Err(mem_err("translucent application arity mismatch"));
                        }
                        let mut sub = crate::subst::Subst::new();
                        for ((t, _), tau) in tvars.iter().zip(tags.iter()) {
                            sub = sub.with_tag(*t, *tau);
                        }
                        for (r, nu) in rvars.iter().zip(regions.iter()) {
                            sub = sub.with_rgn(*r, *nu);
                        }
                        Ty::Trans {
                            tags: tags.clone(),
                            regions: regions.clone(),
                            args: args.iter().map(|a| sub.ty_id(*a)).collect(),
                            rho: *rho,
                        }
                    }
                    _ => return Err(mem_err("tag application of non-code value")),
                },
                _ => return Err(mem_err("tag application of non-address value")),
            },
            Value::Code(def) => return Ok(def.ty()),
            Value::Inl(x) => Ty::Left(self.infer_stored_ty(x)?),
            Value::Inr(x) => Ty::Right(self.infer_stored_ty(x)?),
        };
        Ok(intern_ty(ty))
    }

    /// [`Memory::infer_stored_ty`] for either arm of a slot: thunks are
    /// typed from their uninterned child nodes without forcing, and the
    /// result equals what the forced form would infer (inference is
    /// structural and the children are canonical).
    ///
    /// # Errors
    ///
    /// As [`Memory::infer_stored_ty`].
    pub fn infer_slot_ty(&self, sv: &SlotVal) -> Result<TyId> {
        let ty = match sv {
            SlotVal::Val(v) => return self.infer_stored_ty(v),
            SlotVal::LazyPair(c) => Ty::Prod(
                self.infer_stored_ty(c.0.value())?,
                self.infer_stored_ty(c.1.value())?,
            ),
            SlotVal::LazyInl(c) => Ty::Left(self.infer_stored_ty(c.value())?),
            SlotVal::LazyInr(c) => Ty::Right(self.infer_stored_ty(c.value())?),
        };
        Ok(intern_ty(ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;
    use crate::syntax::Region;

    fn mem() -> Memory {
        Memory::new(MemConfig {
            region_budget: 8,
            growth: GrowthPolicy::Fixed,
            track_types: true,
            max_heap_words: None,
            page_words: 8,
        })
    }

    fn paged(page_words: usize, cap: Option<usize>) -> Memory {
        Memory::new(MemConfig {
            region_budget: 1024,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: cap,
            page_words,
        })
    }

    #[test]
    fn new_memory_has_only_cd() {
        let m = mem();
        let names: Vec<_> = m.region_names().collect();
        assert_eq!(names, vec![CD]);
    }

    #[test]
    fn alloc_put_get_roundtrip() {
        let mut m = mem();
        let r = m.alloc_region();
        let loc = m.put(r, Value::pair(Value::Int(1), Value::Int(2))).unwrap();
        assert_eq!(
            m.get(r, loc).unwrap(),
            &Value::pair(Value::Int(1), Value::Int(2))
        );
    }

    #[test]
    fn words_accounting() {
        let mut m = mem();
        let r = m.alloc_region();
        m.put(r, Value::pair(Value::Int(1), Value::Int(2))).unwrap();
        assert_eq!(m.region(r).unwrap().words(), 2);
        m.put(r, Value::Int(3)).unwrap();
        assert_eq!(m.region(r).unwrap().words(), 3);
    }

    #[test]
    fn value_words_of_packages_and_sums() {
        let v = Value::PackTag {
            tvar: ps_ir::Symbol::intern("t"),
            kind: crate::syntax::Kind::Omega,
            tag: crate::syntax::Tag::Int.into(),
            val: (Value::Int(1)).into(),
            body_ty: Ty::Int.into(),
        };
        assert_eq!(value_words(&v), 2, "one word for the runtime tag");
        assert_eq!(
            value_words(&Value::inl(Value::pair(Value::Int(1), Value::Int(2)))),
            2
        );
    }

    #[test]
    fn fullness_against_budget() {
        let mut m = mem();
        let r = m.alloc_region();
        assert!(!m.is_full(r).unwrap());
        for i in 0..8 {
            m.put(r, Value::Int(i)).unwrap();
        }
        assert!(m.is_full(r).unwrap());
        assert!(!m.is_full(CD).unwrap(), "cd is never full");
    }

    #[test]
    fn adaptive_budget_doubles() {
        let mut m = Memory::new(MemConfig {
            region_budget: 4,
            growth: GrowthPolicy::Adaptive,
            track_types: false,
            max_heap_words: None,
            page_words: 8,
        });
        let r1 = m.alloc_region();
        assert_eq!(m.region(r1).unwrap().budget(), 4);
        for i in 0..10 {
            m.put(r1, Value::Int(i)).unwrap();
        }
        let r2 = m.alloc_region();
        assert_eq!(m.region(r2).unwrap().budget(), 20);
    }

    #[test]
    fn only_reclaims_unlisted() {
        let mut m = mem();
        let r1 = m.alloc_region();
        let r2 = m.alloc_region();
        m.put(r1, Value::Int(1)).unwrap();
        m.put(r2, Value::Int(2)).unwrap();
        let report = m.only(&[r2]);
        assert!(!m.has_region(r1));
        assert!(m.has_region(r2));
        assert!(m.has_region(CD), "cd is always kept");
        assert_eq!(report.words_reclaimed(), 1);
        assert_eq!(report.kept_words, 1);
        assert_eq!(report.dropped, vec![(r1, 1, 1)]);
        assert_eq!(report.freed_pages.len(), 1, "r1's one page was returned");
    }

    #[test]
    fn get_from_reclaimed_region_fails() {
        let mut m = mem();
        let r1 = m.alloc_region();
        let loc = m.put(r1, Value::Int(1)).unwrap();
        m.only(&[]);
        assert!(m.get(r1, loc).is_err());
    }

    #[test]
    fn put_into_cd_fails() {
        let mut m = mem();
        assert!(m.put(CD, Value::Int(1)).is_err());
    }

    #[test]
    fn set_into_cd_fails() {
        let mut m = mem();
        assert!(m.set(CD, 0, Value::Int(1)).is_err());
    }

    #[test]
    fn set_overwrites() {
        let mut m = mem();
        let r = m.alloc_region();
        let loc = m.put(r, Value::inl(Value::Int(1))).unwrap();
        m.set(r, loc, Value::inr(Value::Int(2))).unwrap();
        assert_eq!(m.get(r, loc).unwrap(), &Value::inr(Value::Int(2)));
    }

    #[test]
    fn psi_tracks_puts() {
        let mut m = mem();
        let r = m.alloc_region();
        let loc = m.put(r, Value::pair(Value::Int(1), Value::Int(2))).unwrap();
        assert_eq!(m.psi_entry(r, loc), Some(Ty::prod(Ty::Int, Ty::Int).id()));
    }

    #[test]
    fn psi_follows_addresses() {
        let mut m = mem();
        let r = m.alloc_region();
        let inner = m.put(r, Value::Int(7)).unwrap();
        let loc = m
            .put(r, Value::pair(Value::Addr(r, inner), Value::Int(0)))
            .unwrap();
        assert_eq!(
            m.psi_entry(r, loc),
            Some(Ty::prod(Ty::Int.at(Region::Name(r)), Ty::Int).id())
        );
    }

    #[test]
    fn untracked_memory_stores_no_psi() {
        let mut m = paged(8, None);
        let r = m.alloc_region();
        let loc = m.put(r, Value::Int(1)).unwrap();
        assert_eq!(m.psi_entry(r, loc), None);
        let pid = m.live_page_ids()[0];
        assert_eq!(m.pages[pid as usize].as_ref().unwrap().psi.capacity(), 0);
        // `cd` types its code addresses either way.
        let code = m.install_code(Value::Int(0), Ty::Int.id());
        assert_eq!(m.psi_entry(CD, code), Some(Ty::Int.id()));
    }

    #[test]
    fn psi_entries_die_with_their_pages_and_clones_keep_theirs() {
        let mut m = mem();
        let r1 = m.alloc_region();
        let r2 = m.alloc_region();
        let a = m.put(r1, Value::Int(1)).unwrap();
        let b = m.put(r1, Value::inl(Value::Int(2))).unwrap();
        let c = m.put(r2, Value::Int(3)).unwrap();
        let image = m.clone();
        let int = Ty::Int.id();
        m.set_psi_entry(r1, a, Some(Ty::Left(int).id()));
        m.set_psi_entry(r1, b, None);
        assert_eq!(m.psi_entry(r1, a), Some(Ty::Left(int).id()));
        assert_eq!(m.psi_entry(r1, b), None, "widen dropped it");
        // The image shares pages copy-on-write: its Ψ is the captured one.
        assert_eq!(image.psi_entry(r1, a), Some(int));
        assert_eq!(image.psi_entry(r1, b), Some(Ty::Left(int).id()));
        // A region free takes its Ψ with it; other regions keep theirs.
        m.only(&[r2]);
        assert_eq!(m.psi_entry(r1, a), None);
        assert_eq!(m.psi_entry(r2, c), Some(int));
    }

    #[test]
    fn infer_rejects_open_values() {
        let m = mem();
        assert!(m
            .infer_stored_ty(&Value::Var(ps_ir::Symbol::intern("x")))
            .is_err());
    }

    #[test]
    fn data_words_excludes_cd() {
        let mut m = mem();
        let r = m.alloc_region();
        m.put(r, Value::Int(1)).unwrap();
        assert_eq!(m.data_words(), 1);
    }

    #[test]
    fn data_words_tracks_put_set_and_only() {
        let mut m = Memory::new(MemConfig {
            region_budget: 8,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 8,
        });
        let r1 = m.alloc_region();
        let r2 = m.alloc_region();
        m.put(r1, Value::pair(Value::Int(1), Value::Int(2)))
            .unwrap();
        let loc = m.put(r2, Value::Int(3)).unwrap();
        assert_eq!(m.data_words(), 3);
        // `set` never adjusts word counts (the slot keeps its Υ size).
        m.set(r2, loc, Value::Int(9)).unwrap();
        assert_eq!(m.data_words(), 3);
        m.only(&[r2]);
        assert_eq!(m.data_words(), 1);
        m.only(&[]);
        assert_eq!(m.data_words(), 0);
    }

    // ----- BiBOP page-store tests ---------------------------------------

    #[test]
    fn page_words_is_normalized_to_a_power_of_two() {
        let m = paged(7, None);
        assert_eq!(m.config().page_words, 8);
        let m = paged(0, None);
        assert_eq!(m.config().page_words, 1);
    }

    #[test]
    fn page_words_saturates_at_the_maximum() {
        for words in [MAX_PAGE_WORDS - 1, MAX_PAGE_WORDS + 1, 1 << 33] {
            assert_eq!(paged(words, None).config().page_words, MAX_PAGE_WORDS);
        }
        // The largest size still resolves a location on a second page
        // instead of wrapping its ordinal out of the `u32`.
        let mut m = paged(usize::MAX, None);
        assert_eq!(m.config().page_words, MAX_PAGE_WORDS);
        let r = m.alloc_region();
        let locs: Vec<u32> = (0..=MAX_PAGE_WORDS as i64)
            .map(|i| m.put(r, Value::Int(i)).unwrap())
            .collect();
        assert_eq!(m.region(r).unwrap().page_count(), 2);
        assert_eq!(locs[MAX_PAGE_WORDS], 1 << 16);
        assert_eq!(
            m.get(r, 1 << 16).unwrap(),
            &Value::Int(MAX_PAGE_WORDS as i64)
        );
        assert_eq!(m.get(r, 0).unwrap(), &Value::Int(0));
    }

    #[test]
    fn size_classes_segregate_pages() {
        let mut m = paged(8, None);
        let r = m.alloc_region();
        m.put(r, Value::Int(1)).unwrap(); // class 1
        m.put(r, Value::pair(Value::Int(2), Value::Int(3))).unwrap(); // class 2
        m.put(r, Value::Int(4)).unwrap(); // back on the class-1 page
        assert_eq!(m.region(r).unwrap().page_count(), 2);
        let ids = m.live_page_ids();
        assert_eq!(ids.len(), 2);
        let classes: Vec<_> = ids.iter().map(|&p| m.page(p).unwrap().class()).collect();
        assert_eq!(classes, vec![1, 2]);
    }

    #[test]
    fn loc_resolution_across_pages() {
        let mut m = paged(4, None);
        let r = m.alloc_region();
        let mut locs = Vec::new();
        for i in 0..6 {
            locs.push(m.put(r, Value::Int(i)).unwrap());
        }
        // Class-1 pages hold 4 slots: offsets 0..=3 on page ordinal 0,
        // then (1 << 2) | slot on ordinal 1.
        assert_eq!(locs, vec![0, 1, 2, 3, 4, 5]);
        for (i, &loc) in locs.iter().enumerate() {
            assert_eq!(m.get(r, loc).unwrap(), &Value::Int(i as i64));
        }
        assert_eq!(m.region(r).unwrap().page_count(), 2);
        // Iteration yields ascending offsets.
        let seen: Vec<u32> = m.region(r).unwrap().iter().map(|(l, _)| l).collect();
        assert_eq!(seen, locs);
    }

    #[test]
    fn large_object_gets_a_dedicated_page() {
        let mut m = paged(4, None);
        let r = m.alloc_region();
        // A 5-word object on a 4-word page: footprint rounds to 8 words.
        let big = Value::pair(
            Value::pair(Value::Int(1), Value::Int(2)),
            Value::pair(Value::Int(3), Value::pair(Value::Int(4), Value::Int(5))),
        );
        assert_eq!(value_words(&big), 5);
        let loc = m.put(r, big.clone()).unwrap();
        assert_eq!(m.get(r, loc).unwrap(), &big);
        let pid = m.live_page_ids()[0];
        let page = m.page(pid).unwrap();
        assert_eq!(page.capacity(), 1);
        assert_eq!(page.footprint(), 8);
        assert_eq!(m.reserved_words(), 8);
        // A second large object opens a second page.
        m.put(r, big).unwrap();
        assert_eq!(m.region(r).unwrap().page_count(), 2);
    }

    #[test]
    fn heap_cap_is_page_granular_with_exact_boundary() {
        // One 8-word page fits under a 15-word cap; a second does not.
        let mut m = paged(8, Some(15));
        let r = m.alloc_region();
        m.put(r, Value::Int(1)).unwrap();
        let err = m
            .put(r, Value::pair(Value::Int(2), Value::Int(3)))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::OutOfMemory);
        assert!(err.to_string().contains("out of memory"), "{err}");

        // The boundary is exact: a 16-word cap admits both pages.
        let mut m = paged(8, Some(16));
        let r = m.alloc_region();
        m.put(r, Value::Int(1)).unwrap();
        m.put(r, Value::pair(Value::Int(2), Value::Int(3))).unwrap();
        assert_eq!(m.reserved_words(), 16);
        // …and a third page is one page too many.
        let err = m
            .put(
                r,
                Value::inl(Value::pair(
                    Value::Int(4),
                    Value::pair(Value::Int(5), Value::Int(6)),
                )),
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::OutOfMemory);
        // Filling an *open* page never trips the cap.
        m.put(r, Value::Int(7)).unwrap();
    }

    #[test]
    fn freed_page_ids_are_reused() {
        let mut m = paged(8, None);
        let r1 = m.alloc_region();
        m.put(r1, Value::Int(1)).unwrap();
        let first = m.live_page_ids();
        m.only(&[]);
        assert!(m.live_page_ids().is_empty());
        assert_eq!(m.reserved_words(), 0);
        let r2 = m.alloc_region();
        m.put(r2, Value::Int(2)).unwrap();
        assert_eq!(m.live_page_ids(), first, "page id recycled");
        let stats = m.page_stats();
        assert_eq!(stats.allocated, 2);
        assert_eq!(stats.freed, 1);
        assert_eq!(stats.live, 1);
        assert_eq!(stats.peak_live, 1);
    }

    #[test]
    fn dirty_tracking_marks_and_clears() {
        let mut m = paged(8, None);
        let r = m.alloc_region();
        let loc = m.put(r, Value::inl(Value::Int(1))).unwrap();
        let pid = m.live_page_ids()[0];
        assert_eq!(m.dirty_page_ids(), vec![pid]);
        assert_eq!(
            m.page(pid).unwrap().dirty_slots().collect::<Vec<_>>(),
            vec![0]
        );
        m.note_dirty_audit();
        assert!(m.dirty_page_ids().is_empty());
        assert!(m.page(pid).unwrap().dirty_slots().next().is_none());
        // A set re-dirties exactly the written slot.
        m.set(r, loc, Value::inr(Value::Int(2))).unwrap();
        assert_eq!(m.dirty_page_ids(), vec![pid]);
        assert_eq!(
            m.page(pid).unwrap().dirty_slots().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn frees_demand_a_full_audit() {
        let mut m = paged(8, None);
        let r1 = m.alloc_region();
        m.put(r1, Value::Int(1)).unwrap();
        assert!(!m.wants_full_audit());
        m.only(&[]);
        assert!(m.wants_full_audit());
        m.note_dirty_audit();
        assert!(m.wants_full_audit(), "dirty audits don't clear the request");
        m.note_full_audit();
        assert!(!m.wants_full_audit());

        let r2 = m.alloc_region();
        m.put(r2, Value::Int(2)).unwrap();
        assert!(m.force_free_region(r2));
        assert!(m.wants_full_audit());
    }

    #[test]
    fn corrupt_page_header_desyncs_occupancy() {
        let mut m = paged(8, None);
        let r = m.alloc_region();
        m.put(r, Value::Int(1)).unwrap();
        m.put(r, Value::Int(2)).unwrap();
        m.note_dirty_audit();
        let pid = m.live_page_ids()[0];
        assert!(m.corrupt_page_header(pid));
        let page = m.page(pid).unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(page.occupancy(), 3, "header desynced from storage");
        assert_eq!(m.dirty_page_ids(), vec![pid], "corruption enrolls the page");
        assert!(!m.corrupt_page_header(999), "missing pages report false");
    }

    #[test]
    fn page_view_exposes_header_fields() {
        let mut m = paged(8, None);
        let r = m.alloc_region();
        let loc = m.put(r, Value::pair(Value::Int(1), Value::Int(2))).unwrap();
        let pid = m.live_page_ids()[0];
        let page = m.page(pid).unwrap();
        assert_eq!(page.id(), pid);
        assert_eq!(page.owner(), r);
        assert_eq!(page.ordinal(), 0);
        assert_eq!(page.class(), 2);
        assert_eq!(page.capacity(), 4);
        assert_eq!(page.occupancy(), 1);
        assert_eq!(page.live_words(), 2);
        assert_eq!(page.footprint(), 8);
        assert_eq!(page.loc_of(0), loc);
        assert_eq!(
            page.slot(0).and_then(SlotVal::as_val),
            Some(&Value::pair(Value::Int(1), Value::Int(2)))
        );
        assert_eq!(page.slot_size(0), Some(2));
        assert!(page.is_pristine(0));
    }

    #[test]
    fn lazy_slots_force_on_get_and_backfill_once() {
        use crate::intern::LazyChild;
        let mut m = paged(8, None);
        let r = m.alloc_region();
        let sv = SlotVal::pair(
            LazyChild::thunk(Value::Int(41)),
            LazyChild::thunk(Value::Int(42)),
        );
        assert!(sv.is_lazy());
        assert_eq!(slot_words(&sv), 2);
        let rec = m.put_slot_counted(r, sv).unwrap();
        assert_eq!(rec.words, 2);
        // A peek does not force…
        assert!(m.peek(r, rec.loc).unwrap().is_lazy());
        // …a get does, and backfills the canonical form in place.
        assert_eq!(
            m.get(r, rec.loc).unwrap(),
            &Value::pair(Value::Int(41), Value::Int(42))
        );
        assert!(!m.peek(r, rec.loc).unwrap().is_lazy());
        // Forcing keeps the slot pristine (its contents are unchanged).
        let pid = m.live_page_ids()[0];
        assert!(m.page(pid).unwrap().is_pristine(0));
        // Word accounting never depended on forcing.
        assert_eq!(m.region(r).unwrap().words(), 2);
    }

    #[test]
    fn set_clears_pristine_and_keeps_size_memo() {
        let mut m = paged(8, None);
        let r = m.alloc_region();
        let loc = m.put(r, Value::pair(Value::Int(1), Value::Int(2))).unwrap();
        let pid = m.live_page_ids()[0];
        assert!(m.page(pid).unwrap().is_pristine(0));
        m.set(r, loc, Value::Int(9)).unwrap();
        assert!(!m.page(pid).unwrap().is_pristine(0));
        assert_eq!(
            m.page(pid).unwrap().slot_size(0),
            Some(2),
            "the size memo keeps the put-time Υ size"
        );
    }
}
