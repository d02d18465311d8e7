//! Structured GC telemetry: an event stream emitted by every interpreter
//! backend, for all collectors.
//!
//! The paper certifies the collector *inside* the language, but the
//! machine statistics ([`crate::machine::Stats`]) are a flat struct
//! sampled once at the end of a run: there is no way to see *when* a
//! scavenge fired, what each `gc` call copied, or how the heap evolved.
//! This module adds that visibility without touching the semantics:
//!
//! * [`GcEvent`] — the event vocabulary: region allocation/reclamation,
//!   collection begin/end (with from/to-space sizes, copy and promotion
//!   work, and heap-occupancy snapshots), per-object copies during a
//!   collection, periodic heap samples, fuel exhaustion, and halt.
//! * [`Observer`] — the consumer interface. Every hook has a no-op
//!   default, and a machine with no observer attached pays only an
//!   `Option` check per hook site (the "disabled" path measured by E10).
//! * [`Telemetry`] — the emitter state every backend keeps. The rule
//!   effects each backend calls on its machine core fire the hooks at the
//!   same rule applications on the same shared [`Memory`], so the
//!   backends produce *identical* event sequences (checked by the
//!   differential suites).
//! * [`Recorder`] — an [`Observer`] that aggregates [`Metrics`]
//!   (counters and copy-size histograms) and optionally keeps the raw
//!   event log, with JSON-lines ([`Recorder::to_jsonl`]) and
//!   human-readable ([`Metrics`]' `Display`) exporters.
//! * [`validate_jsonl_trace`] — the canonical schema check for exported
//!   traces; the trace format is a stability contract, and this function
//!   (used by the test suite) is its single definition.
//!
//! # How machine rules map to events
//!
//! A collection, at machine level, is: the mutator's `ifgc ρ` comes back
//! "full" (→ [`GcEvent::GcBegin`]), control jumps to the collector's `gc`
//! entry, the collector allocates its to-space and continuation regions
//! with `let region` (→ [`GcEvent::RegionAlloc`]), copies live data with
//! `put` (→ [`GcEvent::Copy`]), and finally executes `only ∆`, dropping
//! the from-space (→ [`GcEvent::RegionFree`] per dropped region, then
//! [`GcEvent::GcEnd`]). A copy into a region that already existed when
//! the collection began is a *promotion* — exactly the generational
//! collector's minor copies into the old region (`Copy { promoted: true }`).
//! An `ifgc` firing while a collection is already active (the generational
//! collector's fall-through from minor to major collection) does not open
//! a nested collection; its copy work is accounted to the ongoing one.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::memory::{Memory, PageAlloc, ReclaimReport};
use crate::syntax::RegionName;

/// One data region's occupancy at a snapshot point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionSnapshot {
    /// The region's name.
    pub region: RegionName,
    /// Words currently allocated in it.
    pub words: usize,
    /// Its word budget.
    pub budget: usize,
    /// Pages the region currently holds.
    pub pages: usize,
}

/// Captures the occupancy of every data region (the code region `cd` is
/// excluded: it is immutable after load and has no budget).
fn occupancy(mem: &Memory) -> Vec<RegionSnapshot> {
    mem.region_names()
        .filter(|nu| !nu.is_cd())
        .filter_map(|nu| {
            mem.region(nu).map(|r| RegionSnapshot {
                region: nu,
                words: r.words(),
                budget: r.budget(),
                pages: r.page_count(),
            })
        })
        .collect()
}

/// A telemetry event. All `step` fields are the machine's step counter at
/// emission time, so events from the three backends can be compared (and
/// merged with [`crate::machine::Stats::steps`]) directly.
#[derive(Clone, Debug, PartialEq)]
pub enum GcEvent {
    /// `let region` allocated a fresh region.
    RegionAlloc {
        step: u64,
        region: RegionName,
        /// The budget the growth policy assigned it.
        budget: usize,
        /// Total data-region words after the allocation.
        heap_words: usize,
    },
    /// `only ∆` dropped a region (one event per dropped region).
    RegionFree {
        step: u64,
        region: RegionName,
        /// Words that were allocated in it.
        words: usize,
        /// Objects that were allocated in it.
        objects: usize,
    },
    /// A `put` did not fit on any of the destination region's open pages,
    /// so the store gave the region a fresh page.
    PageAlloc {
        step: u64,
        /// The page's owning region.
        region: RegionName,
        /// The page's store-wide id.
        page: u32,
        /// Its size class in words (0 for a dedicated large-object page).
        class: usize,
        /// Its footprint against the heap cap, in words.
        words: usize,
    },
    /// `only ∆` returned a page to the store's free list (one event per
    /// freed page, emitted just before its owner's [`GcEvent::RegionFree`]).
    PageFree {
        step: u64,
        /// The region that owned the page.
        region: RegionName,
        /// The page's store-wide id.
        page: u32,
        /// The footprint it gave back, in words.
        words: usize,
    },
    /// An `ifgc` came back "full" outside an active collection: a
    /// collection is beginning.
    GcBegin {
        step: u64,
        /// Index of this collection (0-based).
        collection: u64,
        /// The region whose fullness triggered the collection (from-space).
        region: RegionName,
        /// Words in the triggering region.
        region_words: usize,
        /// Total data-region words.
        heap_words: usize,
        /// Occupancy of every data region at the trigger point.
        occupancy: Vec<RegionSnapshot>,
    },
    /// A `put` performed while a collection is active: the collector
    /// copied one object.
    Copy {
        step: u64,
        /// Destination region.
        region: RegionName,
        /// Size of the copied object in words.
        words: usize,
        /// True if the destination existed before the collection began —
        /// a promotion (the generational collector's minor copies into
        /// the old generation).
        promoted: bool,
    },
    /// The collection's `only` executed: the collection is over.
    GcEnd {
        step: u64,
        /// Index of this collection (matches its [`GcEvent::GcBegin`]).
        collection: u64,
        /// Machine steps the collection took (trigger to `only`).
        gc_steps: u64,
        /// Total words `put` while the collection was active.
        words_copied: u64,
        /// Number of `put`s while the collection was active.
        objects_copied: u64,
        /// Words copied into pre-existing regions (promotions).
        words_promoted: u64,
        /// Number of promoting copies.
        objects_promoted: u64,
        /// Words reclaimed by the `only`.
        words_reclaimed: u64,
        /// Live words kept by the `only` (data regions).
        kept_words: u64,
        /// Words now in the regions created during the collection
        /// (to-space and the collector's auxiliary regions).
        to_space_words: usize,
        /// Total data-region words after the `only`.
        heap_words: usize,
        /// Occupancy of every surviving data region.
        occupancy: Vec<RegionSnapshot>,
    },
    /// A periodic heap sample (every `step_interval` machine steps).
    Step {
        step: u64,
        /// Total data-region words.
        heap_words: usize,
        /// Number of live data regions.
        regions: usize,
        /// Number of live pages across all data regions.
        heap_pages: usize,
    },
    /// The machine ran out of fuel.
    FuelExhausted { step: u64 },
    /// The periodic heap audit found a violated invariant; the run stops
    /// here (a `Halt`-class final event, like [`GcEvent::FuelExhausted`]).
    InvariantViolation {
        step: u64,
        /// The auditor's description of the first violated invariant.
        detail: String,
    },
    /// A `put` would have pushed the store past its configured
    /// `max_heap_words` cap; the run stops here.
    OutOfMemory {
        step: u64,
        /// Live data-region words at the failed allocation.
        heap_words: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The machine captured a checkpoint (`--checkpoint-every`): a
    /// restorable image of control, statistics, and the page store.
    Snapshot {
        step: u64,
        /// Live data-region words captured in the image.
        heap_words: usize,
        /// Live pages captured in the image.
        heap_pages: usize,
    },
    /// The supervisor restored a checkpoint after an abort (emitted at the
    /// abort step, so traces stay monotone in `step`).
    Restore {
        step: u64,
        /// The step the restored checkpoint was captured at.
        from_step: u64,
    },
    /// The supervisor finished a triage replay (emitted after
    /// [`GcEvent::Restore`], also stamped with the abort step).
    Triage {
        step: u64,
        /// The first step at which the oracle replay violates an invariant.
        fault_step: u64,
        /// The fault-class guess (empty when unclassified).
        guess: String,
        /// The heap site named by the violated invariant.
        site: String,
    },
    /// The machine halted with the given integer.
    Halt { step: u64, value: i64 },
}

impl GcEvent {
    /// The event's name as it appears in the JSON-lines `"event"` field.
    pub fn name(&self) -> &'static str {
        match self {
            GcEvent::RegionAlloc { .. } => "region_alloc",
            GcEvent::RegionFree { .. } => "region_free",
            GcEvent::PageAlloc { .. } => "page_alloc",
            GcEvent::PageFree { .. } => "page_free",
            GcEvent::GcBegin { .. } => "gc_begin",
            GcEvent::Copy { .. } => "copy",
            GcEvent::GcEnd { .. } => "gc_end",
            GcEvent::Step { .. } => "step",
            GcEvent::FuelExhausted { .. } => "fuel_exhausted",
            GcEvent::InvariantViolation { .. } => "invariant_violation",
            GcEvent::OutOfMemory { .. } => "oom",
            GcEvent::Snapshot { .. } => "snapshot",
            GcEvent::Restore { .. } => "restore",
            GcEvent::Triage { .. } => "triage",
            GcEvent::Halt { .. } => "halt",
        }
    }

    /// The machine step at which the event was emitted.
    pub fn step(&self) -> u64 {
        match self {
            GcEvent::RegionAlloc { step, .. }
            | GcEvent::RegionFree { step, .. }
            | GcEvent::PageAlloc { step, .. }
            | GcEvent::PageFree { step, .. }
            | GcEvent::GcBegin { step, .. }
            | GcEvent::Copy { step, .. }
            | GcEvent::GcEnd { step, .. }
            | GcEvent::Step { step, .. }
            | GcEvent::FuelExhausted { step }
            | GcEvent::InvariantViolation { step, .. }
            | GcEvent::OutOfMemory { step, .. }
            | GcEvent::Snapshot { step, .. }
            | GcEvent::Restore { step, .. }
            | GcEvent::Triage { step, .. }
            | GcEvent::Halt { step, .. } => *step,
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("event", self.name());
        o.int("step", self.step());
        match self {
            GcEvent::RegionAlloc {
                region,
                budget,
                heap_words,
                ..
            } => {
                o.int("region", u64::from(region.0));
                o.int("budget", *budget as u64);
                o.int("heap_words", *heap_words as u64);
            }
            GcEvent::RegionFree {
                region,
                words,
                objects,
                ..
            } => {
                o.int("region", u64::from(region.0));
                o.int("words", *words as u64);
                o.int("objects", *objects as u64);
            }
            GcEvent::PageAlloc {
                region,
                page,
                class,
                words,
                ..
            } => {
                o.int("region", u64::from(region.0));
                o.int("page", u64::from(*page));
                o.int("class", *class as u64);
                o.int("words", *words as u64);
            }
            GcEvent::PageFree {
                region,
                page,
                words,
                ..
            } => {
                o.int("region", u64::from(region.0));
                o.int("page", u64::from(*page));
                o.int("words", *words as u64);
            }
            GcEvent::GcBegin {
                collection,
                region,
                region_words,
                heap_words,
                occupancy,
                ..
            } => {
                o.int("collection", *collection);
                o.int("region", u64::from(region.0));
                o.int("region_words", *region_words as u64);
                o.int("heap_words", *heap_words as u64);
                o.occupancy(occupancy);
            }
            GcEvent::Copy {
                region,
                words,
                promoted,
                ..
            } => {
                o.int("region", u64::from(region.0));
                o.int("words", *words as u64);
                o.bool("promoted", *promoted);
            }
            GcEvent::GcEnd {
                collection,
                gc_steps,
                words_copied,
                objects_copied,
                words_promoted,
                objects_promoted,
                words_reclaimed,
                kept_words,
                to_space_words,
                heap_words,
                occupancy,
                ..
            } => {
                o.int("collection", *collection);
                o.int("gc_steps", *gc_steps);
                o.int("words_copied", *words_copied);
                o.int("objects_copied", *objects_copied);
                o.int("words_promoted", *words_promoted);
                o.int("objects_promoted", *objects_promoted);
                o.int("words_reclaimed", *words_reclaimed);
                o.int("kept_words", *kept_words);
                o.int("to_space_words", *to_space_words as u64);
                o.int("heap_words", *heap_words as u64);
                o.occupancy(occupancy);
            }
            GcEvent::Step {
                heap_words,
                regions,
                heap_pages,
                ..
            } => {
                o.int("heap_words", *heap_words as u64);
                o.int("regions", *regions as u64);
                o.int("heap_pages", *heap_pages as u64);
            }
            GcEvent::FuelExhausted { .. } => {}
            GcEvent::InvariantViolation { detail, .. } => {
                o.str("detail", detail);
            }
            GcEvent::OutOfMemory {
                heap_words, limit, ..
            } => {
                o.int("heap_words", *heap_words as u64);
                o.int("limit", *limit as u64);
            }
            GcEvent::Snapshot {
                heap_words,
                heap_pages,
                ..
            } => {
                o.int("heap_words", *heap_words as u64);
                o.int("heap_pages", *heap_pages as u64);
            }
            GcEvent::Restore { from_step, .. } => {
                o.int("from_step", *from_step);
            }
            GcEvent::Triage {
                fault_step,
                guess,
                site,
                ..
            } => {
                o.int("fault_step", *fault_step);
                o.str("guess", guess);
                o.str("site", site);
            }
            GcEvent::Halt { value, .. } => {
                o.signed("value", *value);
            }
        }
        o.finish()
    }
}

/// A consumer of [`GcEvent`]s.
///
/// The single hook has a no-op default body, so an implementation may
/// observe selectively. `Debug` is required so machines carrying an
/// observer stay `Debug` themselves.
pub trait Observer: fmt::Debug {
    /// Called on every emitted event, in emission order.
    fn on_event(&mut self, _event: &GcEvent) {}
}

/// A shareable observer handle: the caller keeps a clone and reads the
/// results after the run; the machine holds the other.
pub type SharedObserver = Rc<RefCell<dyn Observer>>;

/// State of the collection currently in progress.
#[derive(Clone, Debug)]
struct GcPhase {
    collection: u64,
    begin_step: u64,
    /// Regions with `id < first_new_region` existed when the collection
    /// began; a copy into one of them is a promotion.
    first_new_region: u32,
    words_copied: u64,
    objects_copied: u64,
    words_promoted: u64,
    objects_promoted: u64,
}

/// The emitter: owned by each machine, called from the same rule effects
/// on every backend. With no observer attached every hook is a single
/// `Option` check (`None` short-circuit) — the "disabled path" whose cost
/// E10 bounds at < 2% of E9 throughput.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    observer: Option<SharedObserver>,
    step_interval: u64,
    collections: u64,
    phase: Option<GcPhase>,
}

/// An opaque capture of the emitter's collection accounting (collection
/// index plus any open collection phase). Checkpoints carry one so a
/// resumed run numbers its collections — and detects promotions — exactly
/// as the uninterrupted run would; see [`crate::snapshot::Snapshot`].
#[derive(Clone, Debug, Default)]
pub struct TelemetryPhase {
    collections: u64,
    phase: Option<GcPhase>,
}

impl Telemetry {
    /// Attaches an observer. `step_interval > 0` additionally emits a
    /// [`GcEvent::Step`] heap sample every `step_interval` machine steps.
    pub fn attach(&mut self, observer: SharedObserver, step_interval: u64) {
        self.observer = Some(observer);
        self.step_interval = step_interval;
    }

    /// Is an observer attached?
    pub fn is_enabled(&self) -> bool {
        self.observer.is_some()
    }

    /// Captures the collection accounting for a checkpoint.
    pub fn phase_state(&self) -> TelemetryPhase {
        TelemetryPhase {
            collections: self.collections,
            phase: self.phase.clone(),
        }
    }

    /// Restores previously captured collection accounting. The attached
    /// observer (if any) is kept: only the counters move.
    pub fn restore_phase(&mut self, state: &TelemetryPhase) {
        self.collections = state.collections;
        self.phase = state.phase.clone();
    }

    fn emit(&self, event: GcEvent) {
        if let Some(obs) = &self.observer {
            obs.borrow_mut().on_event(&event);
        }
    }

    /// Hook: a machine step is being taken (`step` is the post-increment
    /// counter).
    #[inline]
    pub fn on_step(&mut self, step: u64, mem: &Memory) {
        if self.observer.is_none() || self.step_interval == 0 {
            return;
        }
        if step.is_multiple_of(self.step_interval) {
            let regions = mem.region_names().filter(|nu| !nu.is_cd()).count();
            self.emit(GcEvent::Step {
                step,
                heap_words: mem.data_words(),
                regions,
                heap_pages: mem.live_pages(),
            });
        }
    }

    /// Hook: `let region` allocated `region`.
    #[inline]
    pub fn on_region_alloc(&mut self, region: RegionName, mem: &Memory, step: u64) {
        if self.observer.is_none() {
            return;
        }
        let budget = mem.region(region).map_or(0, |r| r.budget());
        self.emit(GcEvent::RegionAlloc {
            step,
            region,
            budget,
            heap_words: mem.data_words(),
        });
    }

    /// Hook: `ifgc` came back "full" on `region`.
    #[inline]
    pub fn on_gc_trigger(&mut self, region: RegionName, mem: &Memory, step: u64) {
        if self.observer.is_none() {
            return;
        }
        if self.phase.is_some() {
            // The generational collector's minor→major fall-through: the
            // old region is full while the minor collection is dispatching.
            // The major collection's work is accounted to the open phase.
            return;
        }
        let collection = self.collections;
        self.collections += 1;
        self.phase = Some(GcPhase {
            collection,
            begin_step: step,
            first_new_region: mem.next_region_id(),
            words_copied: 0,
            objects_copied: 0,
            words_promoted: 0,
            objects_promoted: 0,
        });
        let region_words = mem.region(region).map_or(0, |r| r.words());
        self.emit(GcEvent::GcBegin {
            step,
            collection,
            region,
            region_words,
            heap_words: mem.data_words(),
            occupancy: occupancy(mem),
        });
    }

    /// Hook: a `put` overflowed the region's open pages and the store
    /// handed it a fresh page. Fires just before the `put`'s own
    /// [`Telemetry::on_put`], from the same rule site in every backend.
    #[inline]
    pub fn on_page_alloc(&mut self, region: RegionName, alloc: PageAlloc, step: u64) {
        if self.observer.is_none() {
            return;
        }
        self.emit(GcEvent::PageAlloc {
            step,
            region,
            page: alloc.page,
            class: alloc.class,
            words: alloc.footprint,
        });
    }

    /// Hook: a `put` stored `words` words into `region`.
    #[inline]
    pub fn on_put(&mut self, region: RegionName, words: usize, step: u64) {
        if self.observer.is_none() {
            return;
        }
        if let Some(phase) = &mut self.phase {
            let promoted = region.0 < phase.first_new_region;
            phase.words_copied += words as u64;
            phase.objects_copied += 1;
            if promoted {
                phase.words_promoted += words as u64;
                phase.objects_promoted += 1;
            }
            self.emit(GcEvent::Copy {
                step,
                region,
                words,
                promoted,
            });
        }
    }

    /// Hook: `only ∆` executed, producing `report`.
    #[inline]
    pub fn on_only(&mut self, report: &ReclaimReport, mem: &Memory, step: u64) {
        if self.observer.is_none() {
            return;
        }
        for (region, words, objects) in &report.dropped {
            for (owner, page, footprint) in &report.freed_pages {
                if owner == region {
                    self.emit(GcEvent::PageFree {
                        step,
                        region: *owner,
                        page: *page,
                        words: *footprint,
                    });
                }
            }
            self.emit(GcEvent::RegionFree {
                step,
                region: *region,
                words: *words,
                objects: *objects,
            });
        }
        // A collection ends at its `only` — which, coming from the
        // collector, always drops the (full, hence non-empty) from-space.
        if let Some(phase) = self.phase.take() {
            let to_space_words = mem
                .region_names()
                .filter(|nu| !nu.is_cd() && nu.0 >= phase.first_new_region)
                .map(|nu| mem.region(nu).map_or(0, |r| r.words()))
                .sum();
            self.emit(GcEvent::GcEnd {
                step,
                collection: phase.collection,
                gc_steps: step - phase.begin_step,
                words_copied: phase.words_copied,
                objects_copied: phase.objects_copied,
                words_promoted: phase.words_promoted,
                objects_promoted: phase.objects_promoted,
                words_reclaimed: report.words_reclaimed() as u64,
                kept_words: report.kept_words as u64,
                to_space_words,
                heap_words: mem.data_words(),
                occupancy: occupancy(mem),
            });
        }
    }

    /// Hook: the machine halted with `value`.
    #[inline]
    pub fn on_halt(&mut self, value: i64, step: u64) {
        if self.observer.is_none() {
            return;
        }
        self.emit(GcEvent::Halt { step, value });
    }

    /// Hook: the machine's fuel ran out.
    #[inline]
    pub fn on_fuel_exhausted(&mut self, step: u64) {
        if self.observer.is_none() {
            return;
        }
        self.emit(GcEvent::FuelExhausted { step });
    }

    /// Hook: the periodic audit found a violated heap invariant. Like fuel
    /// exhaustion this is a final event: the machine stops after emitting
    /// it, so attached recorders see a complete stream.
    #[inline]
    pub fn on_invariant_violation(&mut self, step: u64, detail: &str) {
        if self.observer.is_none() {
            return;
        }
        self.emit(GcEvent::InvariantViolation {
            step,
            detail: detail.to_string(),
        });
    }

    /// Hook: the machine captured a checkpoint. Emitted just before the
    /// image is stored, so the event precedes anything a restored run could
    /// replay from it.
    #[inline]
    pub fn on_snapshot(&mut self, step: u64, mem: &Memory) {
        if self.observer.is_none() {
            return;
        }
        self.emit(GcEvent::Snapshot {
            step,
            heap_words: mem.data_words(),
            heap_pages: mem.live_pages(),
        });
    }

    /// Hook: an allocation failed against the `max_heap_words` cap. Also a
    /// final event — the machine propagates the typed error after emitting.
    #[inline]
    pub fn on_oom(&mut self, step: u64, heap_words: usize, limit: usize) {
        if self.observer.is_none() {
            return;
        }
        self.emit(GcEvent::OutOfMemory {
            step,
            heap_words,
            limit,
        });
    }
}

// ---------------------------------------------------------------------------
// Recorder: metrics + optional event log + exporters
// ---------------------------------------------------------------------------

/// Run-level metadata for exported traces (the machine does not know which
/// collector image it is running; the pipeline or CLI fills this in).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Collector name (`basic`/`forwarding`/`generational`).
    pub collector: String,
    /// Interpreter backend name (`subst`/`env`).
    pub backend: String,
    /// Base region budget in words.
    pub budget: usize,
    /// Growth policy name (`fixed`/`adaptive`).
    pub growth: String,
    /// Fuel the run was given.
    pub fuel: u64,
    /// `Step`-sample interval (0 = no sampling).
    pub step_interval: u64,
}

impl RunMeta {
    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("event", "meta");
        o.str("collector", &self.collector);
        o.str("backend", &self.backend);
        o.int("budget", self.budget as u64);
        o.str("growth", &self.growth);
        o.int("fuel", self.fuel);
        o.int("step_interval", self.step_interval);
        o.finish()
    }
}

/// A power-of-two histogram: bucket *i* counts values whose bit length is
/// *i* (i.e. `2^(i-1) ≤ v < 2^i`; zero lands in bucket 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 33],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; 33] }
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bits = 64 - value.leading_zeros();
        self.buckets[(bits as usize).min(32)] += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `(range_start, range_end_inclusive, count)` for each non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| match i {
                0 => (0, 0, c),
                _ => (1u64 << (i - 1), (1u64 << i) - 1, c),
            })
            .collect()
    }

    fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
            .collect();
        format!("[{}]", parts.join(","))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count() == 0 {
            return write!(f, "(empty)");
        }
        let rows = self.nonzero_buckets();
        let max = rows.iter().map(|&(_, _, c)| c).max().unwrap_or(1);
        for (lo, hi, c) in rows {
            let bar = "#".repeat(((c * 24).div_ceil(max)) as usize);
            if lo == hi {
                writeln!(f, "    {lo:>10}      {c:>8} {bar}")?;
            } else {
                writeln!(f, "    {lo:>10}-{hi:<10} {c:>8} {bar}")?;
            }
        }
        Ok(())
    }
}

/// Aggregate counters over an event stream, maintained incrementally by
/// [`Recorder`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Events seen (including `Copy` and `Step` samples).
    pub events: u64,
    /// Collections completed (`GcEnd` events).
    pub collections: u64,
    /// Regions allocated (`RegionAlloc` events).
    pub regions_allocated: u64,
    /// Regions reclaimed (`RegionFree` events).
    pub regions_freed: u64,
    /// Pages handed out by the store (`PageAlloc` events).
    pub pages_allocated: u64,
    /// Pages returned to the store's free list (`PageFree` events).
    pub pages_freed: u64,
    /// Total words copied during collections.
    pub words_copied: u64,
    /// Total objects copied during collections.
    pub objects_copied: u64,
    /// Total words promoted into pre-existing regions.
    pub words_promoted: u64,
    /// Total promoting copies.
    pub objects_promoted: u64,
    /// Total words reclaimed.
    pub words_reclaimed: u64,
    /// Total machine steps spent inside collections.
    pub gc_steps: u64,
    /// Histogram of per-object copy sizes (words per `Copy`).
    pub copy_sizes: Histogram,
    /// Histogram of per-collection copy volumes (words per `GcEnd`).
    pub collection_sizes: Histogram,
}

impl Metrics {
    fn record(&mut self, event: &GcEvent) {
        self.events += 1;
        match event {
            GcEvent::RegionAlloc { .. } => self.regions_allocated += 1,
            GcEvent::RegionFree { .. } => self.regions_freed += 1,
            GcEvent::PageAlloc { .. } => self.pages_allocated += 1,
            GcEvent::PageFree { .. } => self.pages_freed += 1,
            GcEvent::Copy {
                words, promoted, ..
            } => {
                self.words_copied += *words as u64;
                self.objects_copied += 1;
                if *promoted {
                    self.words_promoted += *words as u64;
                    self.objects_promoted += 1;
                }
                self.copy_sizes.record(*words as u64);
            }
            GcEvent::GcEnd {
                gc_steps,
                words_copied,
                words_reclaimed,
                ..
            } => {
                self.collections += 1;
                self.gc_steps += gc_steps;
                self.words_reclaimed += words_reclaimed;
                self.collection_sizes.record(*words_copied);
            }
            GcEvent::GcBegin { .. }
            | GcEvent::Step { .. }
            | GcEvent::FuelExhausted { .. }
            | GcEvent::InvariantViolation { .. }
            | GcEvent::OutOfMemory { .. }
            | GcEvent::Snapshot { .. }
            | GcEvent::Restore { .. }
            | GcEvent::Triage { .. }
            | GcEvent::Halt { .. } => {}
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("event", "summary");
        o.int("events", self.events);
        o.int("collections", self.collections);
        o.int("regions_allocated", self.regions_allocated);
        o.int("regions_freed", self.regions_freed);
        o.int("pages_allocated", self.pages_allocated);
        o.int("pages_freed", self.pages_freed);
        o.int("words_copied", self.words_copied);
        o.int("objects_copied", self.objects_copied);
        o.int("words_promoted", self.words_promoted);
        o.int("objects_promoted", self.objects_promoted);
        o.int("words_reclaimed", self.words_reclaimed);
        o.int("gc_steps", self.gc_steps);
        o.raw("copy_sizes", &self.copy_sizes.to_json());
        o.raw("collection_sizes", &self.collection_sizes.to_json());
        o.finish()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "collections:       {}", self.collections)?;
        writeln!(f, "gc steps:          {}", self.gc_steps)?;
        writeln!(
            f,
            "regions:           {} allocated, {} reclaimed",
            self.regions_allocated, self.regions_freed
        )?;
        writeln!(
            f,
            "pages:             {} allocated, {} reclaimed",
            self.pages_allocated, self.pages_freed
        )?;
        writeln!(
            f,
            "copied:            {} objects ({} words)",
            self.objects_copied, self.words_copied
        )?;
        writeln!(
            f,
            "promoted:          {} objects ({} words)",
            self.objects_promoted, self.words_promoted
        )?;
        writeln!(f, "words reclaimed:   {}", self.words_reclaimed)?;
        writeln!(f, "copy sizes (words/object):")?;
        write!(f, "{}", self.copy_sizes)?;
        writeln!(f, "collection sizes (words/collection):")?;
        write!(f, "{}", self.collection_sizes)
    }
}

/// An [`Observer`] that aggregates [`Metrics`] and (optionally) keeps the
/// full event log for export.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Run metadata for the trace header (set by the pipeline / CLI).
    pub meta: Option<RunMeta>,
    /// The recorded events (empty if built with [`Recorder::metrics_only`]).
    pub events: Vec<GcEvent>,
    /// The aggregate counters.
    pub metrics: Metrics,
    keep_events: bool,
}

impl Recorder {
    /// A recorder that keeps the full event log.
    pub fn new() -> Recorder {
        Recorder {
            keep_events: true,
            ..Recorder::default()
        }
    }

    /// A recorder that only maintains [`Metrics`] — constant space, for
    /// long runs where the raw log is not needed (`psgc --metrics`).
    pub fn metrics_only() -> Recorder {
        Recorder::default()
    }

    /// Attaches run metadata for the trace header.
    pub fn with_meta(mut self, meta: RunMeta) -> Recorder {
        self.meta = Some(meta);
        self
    }

    /// Wraps the recorder for sharing with a machine; keep a clone of the
    /// returned handle to read the results after the run.
    pub fn into_shared(self) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(self))
    }

    /// The trace as JSON lines: a `meta` header (if set), one line per
    /// event, and a closing `summary` line with the metrics.
    pub fn to_jsonl(&self) -> String {
        let mut buf = String::new();
        if let Some(meta) = &self.meta {
            buf.push_str(&meta.to_json());
            buf.push('\n');
        }
        for ev in &self.events {
            buf.push_str(&ev.to_json());
            buf.push('\n');
        }
        buf.push_str(&self.metrics.to_json());
        buf.push('\n');
        buf
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, event: &GcEvent) {
        self.metrics.record(event);
        if self.keep_events {
            self.events.push(event.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// JSON rendering (hand-rolled: the repo takes no external dependencies)
// ---------------------------------------------------------------------------

/// One JSON object under construction, written left to right: the one
/// writer, and so the one string escaper, of every trace line and of the
/// supervisor's triage report.
pub(crate) struct JsonObj {
    buf: String,
}

impl JsonObj {
    pub(crate) fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    pub(crate) fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    pub(crate) fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    fn signed(&mut self, k: &str, v: i64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push_str(v);
    }

    fn occupancy(&mut self, snaps: &[RegionSnapshot]) {
        let parts: Vec<String> = snaps
            .iter()
            .map(|s| {
                format!(
                    "{{\"region\":{},\"words\":{},\"budget\":{},\"pages\":{}}}",
                    s.region.0, s.words, s.budget, s.pages
                )
            })
            .collect();
        self.raw("occupancy", &format!("[{}]", parts.join(",")));
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Trace schema validation (the stability contract, in one place)
// ---------------------------------------------------------------------------

/// The expected JSON type of a field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FieldKind {
    Int,
    SignedInt,
    Bool,
    Str,
    /// Array of `[lo, hi, count]` integer triples (histograms).
    Buckets,
    /// Array of `{region, words, budget}` objects.
    Occupancy,
}

/// `(event name, required fields)` — every line of a trace must carry
/// exactly these keys with these types. Changing this table is a schema
/// change and must be reflected in DESIGN.md.
fn schema() -> &'static [(&'static str, &'static [(&'static str, FieldKind)])] {
    use FieldKind::*;
    &[
        (
            "meta",
            &[
                ("collector", Str),
                ("backend", Str),
                ("budget", Int),
                ("growth", Str),
                ("fuel", Int),
                ("step_interval", Int),
            ],
        ),
        (
            "region_alloc",
            &[
                ("step", Int),
                ("region", Int),
                ("budget", Int),
                ("heap_words", Int),
            ],
        ),
        (
            "region_free",
            &[
                ("step", Int),
                ("region", Int),
                ("words", Int),
                ("objects", Int),
            ],
        ),
        (
            "page_alloc",
            &[
                ("step", Int),
                ("region", Int),
                ("page", Int),
                ("class", Int),
                ("words", Int),
            ],
        ),
        (
            "page_free",
            &[
                ("step", Int),
                ("region", Int),
                ("page", Int),
                ("words", Int),
            ],
        ),
        (
            "gc_begin",
            &[
                ("step", Int),
                ("collection", Int),
                ("region", Int),
                ("region_words", Int),
                ("heap_words", Int),
                ("occupancy", Occupancy),
            ],
        ),
        (
            "copy",
            &[
                ("step", Int),
                ("region", Int),
                ("words", Int),
                ("promoted", Bool),
            ],
        ),
        (
            "gc_end",
            &[
                ("step", Int),
                ("collection", Int),
                ("gc_steps", Int),
                ("words_copied", Int),
                ("objects_copied", Int),
                ("words_promoted", Int),
                ("objects_promoted", Int),
                ("words_reclaimed", Int),
                ("kept_words", Int),
                ("to_space_words", Int),
                ("heap_words", Int),
                ("occupancy", Occupancy),
            ],
        ),
        (
            "step",
            &[
                ("step", Int),
                ("heap_words", Int),
                ("regions", Int),
                ("heap_pages", Int),
            ],
        ),
        ("fuel_exhausted", &[("step", Int)]),
        ("invariant_violation", &[("step", Int), ("detail", Str)]),
        ("oom", &[("step", Int), ("heap_words", Int), ("limit", Int)]),
        (
            "snapshot",
            &[("step", Int), ("heap_words", Int), ("heap_pages", Int)],
        ),
        ("restore", &[("step", Int), ("from_step", Int)]),
        (
            "triage",
            &[
                ("step", Int),
                ("fault_step", Int),
                ("guess", Str),
                ("site", Str),
            ],
        ),
        ("halt", &[("step", Int), ("value", SignedInt)]),
        (
            "summary",
            &[
                ("events", Int),
                ("collections", Int),
                ("regions_allocated", Int),
                ("regions_freed", Int),
                ("pages_allocated", Int),
                ("pages_freed", Int),
                ("words_copied", Int),
                ("objects_copied", Int),
                ("words_promoted", Int),
                ("objects_promoted", Int),
                ("words_reclaimed", Int),
                ("gc_steps", Int),
                ("copy_sizes", Buckets),
                ("collection_sizes", Buckets),
            ],
        ),
    ]
}

/// What a validated trace contained, for assertions beyond well-formedness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of lines (including `meta`/`summary`).
    pub lines: usize,
    /// Count of each event name, in schema order.
    pub counts: Vec<(&'static str, usize)>,
}

impl TraceSummary {
    /// How many lines carried the given event name.
    pub fn count(&self, name: &str) -> usize {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, c)| *c)
    }
}

/// Validates a JSON-lines trace against the schema: every line must be a
/// flat JSON object whose `"event"` names a known event and which carries
/// exactly that event's fields with the right types; `step` fields must be
/// non-decreasing.
///
/// # Errors
///
/// Returns a message naming the offending line and problem.
pub fn validate_jsonl_trace(trace: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary {
        lines: 0,
        counts: schema().iter().map(|(n, _)| (*n, 0)).collect(),
    };
    let mut last_step: u64 = 0;
    for (i, line) in trace.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            return Err(format!("line {n}: empty line"));
        }
        summary.lines += 1;
        let obj = json::parse_object(line).map_err(|e| format!("line {n}: {e}"))?;
        let Some(json::Value::Str(event)) = obj.get("event") else {
            return Err(format!("line {n}: missing string \"event\" field"));
        };
        let Some((name, fields)) = schema().iter().find(|(name, _)| name == event) else {
            return Err(format!("line {n}: unknown event {event:?}"));
        };
        for (field, kind) in *fields {
            let Some(v) = obj.get(*field) else {
                return Err(format!("line {n}: {event} is missing field {field:?}"));
            };
            if !json::matches_kind(v, *kind) {
                return Err(format!(
                    "line {n}: {event} field {field:?} has the wrong type ({v:?}, expected {kind:?})"
                ));
            }
        }
        let expected = fields.len() + 1; // + the "event" field itself
        if obj.len() != expected {
            return Err(format!(
                "line {n}: {event} has {} fields, schema says {expected}",
                obj.len()
            ));
        }
        if let Some(json::Value::Int(step)) = obj.get("step") {
            let step = *step as u64;
            if step < last_step {
                return Err(format!(
                    "line {n}: step {step} goes backwards (previous {last_step})"
                ));
            }
            last_step = step;
        }
        for (cname, count) in &mut summary.counts {
            if cname == name {
                *count += 1;
            }
        }
    }
    if summary.lines == 0 {
        return Err("empty trace".into());
    }
    Ok(summary)
}

/// A minimal JSON parser — just enough to validate the traces this module
/// itself emits (objects, arrays, strings, integers, booleans).
mod json {
    use super::FieldKind;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Int(i64),
        Bool(bool),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    pub fn matches_kind(v: &Value, kind: FieldKind) -> bool {
        match kind {
            FieldKind::Int => matches!(v, Value::Int(n) if *n >= 0),
            FieldKind::SignedInt => matches!(v, Value::Int(_)),
            FieldKind::Bool => matches!(v, Value::Bool(_)),
            FieldKind::Str => matches!(v, Value::Str(_)),
            FieldKind::Buckets => match v {
                Value::Arr(items) => items.iter().all(|it| match it {
                    Value::Arr(triple) => {
                        triple.len() == 3
                            && triple.iter().all(|x| matches!(x, Value::Int(n) if *n >= 0))
                    }
                    _ => false,
                }),
                _ => false,
            },
            FieldKind::Occupancy => match v {
                Value::Arr(items) => items.iter().all(|it| match it {
                    Value::Obj(o) => {
                        o.len() == 4
                            && ["region", "words", "budget", "pages"]
                                .iter()
                                .all(|k| matches!(o.get(*k), Some(Value::Int(n)) if *n >= 0))
                    }
                    _ => false,
                }),
                _ => false,
            },
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    pub fn parse_object(s: &str) -> Result<BTreeMap<String, Value>, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        match v {
            Value::Obj(o) => Ok(o),
            other => Err(format!("not a JSON object: {other:?}")),
        }
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at offset {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
            }
        }

        fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(v)
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| format!("non-UTF-8 number at offset {start}: {e}"))?;
            text.parse()
                .map(Value::Int)
                .map_err(|e| format!("bad integer {text:?} at offset {start}: {e}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let mut code = self.hex4(self.pos + 1)?;
                                self.pos += 4;
                                // A character outside the BMP is escaped as a
                                // surrogate pair, `\uD83D\uDE00`.
                                if (0xD800..0xDC00).contains(&code)
                                    && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                                {
                                    let low = self.hex4(self.pos + 3)?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        self.pos += 6;
                                    }
                                }
                                out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Advance over one UTF-8 character.
                        let s = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| e.to_string())?;
                        let c = s.chars().next().ok_or("truncated string")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }

        /// The four hex digits of a `\u` escape, starting at byte `at`.
        fn hex4(&self, at: usize) -> Result<u32, String> {
            let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
            u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                .map_err(|e| e.to_string())
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                if map.insert(key.clone(), val).is_some() {
                    return Err(format!("duplicate key {key:?}"));
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{GrowthPolicy, MemConfig};
    use crate::syntax::Value;

    fn mem() -> Memory {
        Memory::new(MemConfig {
            region_budget: 4,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 8,
        })
    }

    #[test]
    fn disabled_telemetry_emits_nothing_and_tracks_nothing() {
        let mut t = Telemetry::default();
        let m = mem();
        t.on_gc_trigger(RegionName(1), &m, 1);
        t.on_put(RegionName(1), 3, 2);
        assert!(!t.is_enabled());
        assert!(t.phase.is_none(), "no phase tracking without an observer");
    }

    #[test]
    fn a_synthetic_collection_produces_balanced_events() {
        let rec = Recorder::new().into_shared();
        let mut t = Telemetry::default();
        t.attach(rec.clone(), 0);

        let mut m = mem();
        let from = m.alloc_region();
        t.on_region_alloc(from, &m, 1);
        for i in 0..4 {
            m.put(from, Value::Int(i)).unwrap();
            t.on_put(from, 1, 2 + i as u64);
        }
        // The region is full: trigger, copy into a fresh to-space, only.
        t.on_gc_trigger(from, &m, 10);
        let to = m.alloc_region();
        t.on_region_alloc(to, &m, 11);
        m.put(to, Value::pair(Value::Int(1), Value::Int(2)))
            .unwrap();
        t.on_put(to, 2, 12);
        let report = m.only(&[to]);
        t.on_only(&report, &m, 13);
        t.on_halt(0, 14);

        let rec = rec.borrow();
        let names: Vec<&str> = rec.events.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "region_alloc",
                "gc_begin",
                "region_alloc",
                "copy",
                "page_free",
                "region_free",
                "gc_end",
                "halt"
            ]
        );
        assert_eq!(rec.metrics.pages_freed, 1, "from-space held one page");
        assert_eq!(rec.metrics.collections, 1);
        assert_eq!(rec.metrics.words_copied, 2);
        assert_eq!(rec.metrics.objects_copied, 1);
        assert_eq!(
            rec.metrics.words_promoted, 0,
            "to-space is new: no promotion"
        );
        assert_eq!(rec.metrics.words_reclaimed, 4);
        match &rec.events[6] {
            GcEvent::GcEnd {
                to_space_words,
                gc_steps,
                ..
            } => {
                assert_eq!(*to_space_words, 2);
                assert_eq!(*gc_steps, 3);
            }
            other => panic!("expected GcEnd, got {other:?}"),
        }
    }

    #[test]
    fn copies_into_preexisting_regions_are_promotions() {
        let rec = Recorder::new().into_shared();
        let mut t = Telemetry::default();
        t.attach(rec.clone(), 0);

        let mut m = mem();
        let old = m.alloc_region();
        let young = m.alloc_region();
        for i in 0..4 {
            m.put(young, Value::Int(i)).unwrap();
        }
        t.on_gc_trigger(young, &m, 5);
        m.put(old, Value::Int(7)).unwrap();
        t.on_put(old, 1, 6); // promotion: `old` predates the collection
        let report = m.only(&[old]);
        t.on_only(&report, &m, 7);

        let rec = rec.borrow();
        assert_eq!(rec.metrics.objects_promoted, 1);
        assert_eq!(rec.metrics.words_promoted, 1);
        assert!(matches!(
            rec.events.iter().find(|e| e.name() == "copy"),
            Some(GcEvent::Copy { promoted: true, .. })
        ));
    }

    #[test]
    fn step_sampling_respects_the_interval() {
        let rec = Recorder::new().into_shared();
        let mut t = Telemetry::default();
        t.attach(rec.clone(), 10);
        let m = mem();
        for step in 1..=35 {
            t.on_step(step, &m);
        }
        assert_eq!(rec.borrow().events.len(), 3, "samples at steps 10, 20, 30");
    }

    #[test]
    fn recorder_jsonl_roundtrips_through_the_validator() {
        let rec = Recorder::new().into_shared();
        let mut t = Telemetry::default();
        t.attach(rec.clone(), 1);
        let mut m = mem();
        let r = m.alloc_region();
        t.on_region_alloc(r, &m, 1);
        t.on_step(2, &m);
        t.on_gc_trigger(r, &m, 3);
        let to = m.alloc_region();
        t.on_region_alloc(to, &m, 4);
        t.on_put(to, 2, 5);
        let report = m.only(&[to]);
        t.on_only(&report, &m, 6);
        t.on_fuel_exhausted(7);
        t.on_halt(-3, 8);

        let trace = {
            let mut r = rec.borrow_mut();
            r.meta = Some(RunMeta {
                collector: "basic".into(),
                backend: "env".into(),
                budget: 4,
                growth: "fixed".into(),
                fuel: 100,
                step_interval: 1,
            });
            r.to_jsonl()
        };
        let summary = validate_jsonl_trace(&trace).expect("trace validates");
        assert_eq!(summary.count("meta"), 1);
        assert_eq!(summary.count("summary"), 1);
        assert_eq!(summary.count("gc_begin"), 1);
        assert_eq!(summary.count("gc_end"), 1);
        assert_eq!(summary.count("halt"), 1);
        assert_eq!(summary.count("fuel_exhausted"), 1);
    }

    /// The validator reads every escape JSON has, not only the ones the
    /// writer emits: a trace whose `meta` line spells a newline `\n`
    /// validates exactly like one that spells it `\u000a`, a surrogate pair
    /// reads as its one character, and the writer's own escapes read back
    /// as the string it was given.
    #[test]
    fn validator_reads_every_json_escape() {
        let meta = RunMeta {
            collector: "ba\nsic".into(),
            ..RunMeta::default()
        }
        .to_json();
        assert!(meta.contains(r#""collector":"ba\u000asic""#), "{meta}");
        let short = meta.replace(r"\u000a", r"\n");
        for line in [&meta, &short] {
            let summary = validate_jsonl_trace(line).expect("trace validates");
            assert_eq!(summary.count("meta"), 1);
        }
        let obj = json::parse_object(r#"{"s":"\"\\\/\b\f\n\r\t\u0041\ud83d\ude00"}"#).unwrap();
        assert_eq!(
            obj.get("s"),
            Some(&json::Value::Str("\"\\/\u{8}\u{c}\n\r\tA\u{1f600}".into()))
        );
        let every: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\ λ\u{1f600}".chars())
            .collect();
        let mut o = JsonObj::new();
        o.str("s", &every);
        let obj = json::parse_object(&o.finish()).unwrap();
        assert_eq!(obj.get("s"), Some(&json::Value::Str(every)));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_jsonl_trace("").is_err());
        assert!(validate_jsonl_trace("not json").is_err());
        assert!(validate_jsonl_trace("{\"event\":\"nope\"}").is_err());
        // Missing fields:
        assert!(validate_jsonl_trace("{\"event\":\"halt\",\"step\":1}").is_err());
        // Extra fields:
        assert!(
            validate_jsonl_trace("{\"event\":\"halt\",\"step\":1,\"value\":2,\"extra\":3}")
                .is_err()
        );
        // Wrong type:
        assert!(validate_jsonl_trace("{\"event\":\"halt\",\"step\":1,\"value\":\"x\"}").is_err());
        // Steps running backwards:
        let backwards = "{\"event\":\"fuel_exhausted\",\"step\":5}\n\
                         {\"event\":\"fuel_exhausted\",\"step\":4}";
        assert!(validate_jsonl_trace(backwards).is_err());
    }

    #[test]
    fn page_events_roundtrip_through_the_validator() {
        let rec = Recorder::new().into_shared();
        let mut t = Telemetry::default();
        t.attach(rec.clone(), 1);
        let mut m = mem();
        let r = m.alloc_region();
        t.on_region_alloc(r, &m, 1);
        let put = m
            .put_slot_counted(r, crate::intern::SlotVal::Val(Value::Int(9)))
            .unwrap();
        let alloc = put.page.expect("first put opens a page");
        t.on_page_alloc(r, alloc, 2);
        t.on_step(3, &m);
        let report = m.only(&[]);
        t.on_only(&report, &m, 4);
        t.on_halt(0, 5);

        let trace = rec.borrow().to_jsonl();
        let summary = validate_jsonl_trace(&trace).expect("trace validates");
        assert_eq!(summary.count("page_alloc"), 1);
        assert_eq!(summary.count("page_free"), 1);
        let rec = rec.borrow();
        assert_eq!(rec.metrics.pages_allocated, 1);
        assert_eq!(rec.metrics.pages_freed, 1);
        assert!(matches!(
            rec.events.iter().find(|e| e.name() == "step"),
            Some(GcEvent::Step { heap_pages: 1, .. })
        ));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(
            h.nonzero_buckets(),
            vec![
                (0, 0, 1),
                (1, 1, 2),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (512, 1023, 1)
            ]
        );
    }
}
