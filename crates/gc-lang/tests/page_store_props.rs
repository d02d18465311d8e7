//! Property tests for the BiBOP page store: random `put`/`set`/`only`
//! sequences against a flat model map, with the page-level bookkeeping
//! (loc encoding, footprint accounting, free-list reuse) and the heap
//! auditor checked after every operation.
//!
//! The driver is a decision tape (the proptest input), so shrinking the
//! tape shrinks the operation sequence.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use ps_gc_lang::intern::SlotVal;
use ps_gc_lang::memory::{value_words, MemConfig, Memory};
use ps_gc_lang::syntax::{Dialect, RegionName, Term, Value};

struct Tape<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tape<'a> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }
}

/// A storable value of tape-chosen shape: nested pairs of ints, depth ≤ 3,
/// so word sizes span several size classes.
fn gen_value(tape: &mut Tape, depth: u32) -> Value {
    if depth == 0 || tape.next().is_multiple_of(3) {
        return Value::Int(i64::from(tape.next()));
    }
    Value::pair(gen_value(tape, depth - 1), gen_value(tape, depth - 1))
}

/// Rebuilds `v` with the same shape (hence the same word count) but fresh
/// leaf ints — a `set` payload that keeps every dialect's word accounting
/// exact.
fn reshape(tape: &mut Tape, v: &Value) -> Value {
    match v {
        Value::Pair(a, b) => Value::pair(reshape(tape, a), reshape(tape, b)),
        _ => Value::Int(i64::from(tape.next())),
    }
}

/// The model: a flat map of every live slot, plus the page ids the store
/// has handed out and taken back.
#[derive(Default)]
struct Model {
    slots: BTreeMap<(RegionName, u32), Value>,
    in_use_pages: BTreeSet<u32>,
    freed_pages: BTreeSet<u32>,
}

fn check_against_model(mem: &Memory, model: &Model, page_words: usize) {
    // Every model slot reads back exactly; the loc encoding resolves
    // through the owning region's page list to the same value.
    let slot_bits = page_words.max(1).next_power_of_two().trailing_zeros();
    for ((nu, loc), expected) in &model.slots {
        let got = mem.peek(*nu, *loc).expect("live slot reads back");
        assert_eq!(got.as_val(), Some(expected), "round-trip at {nu}.{loc}");
        let region = mem.region(*nu).expect("owning region is live");
        let ordinal = (loc >> slot_bits) as usize;
        let slot = (loc & ((1 << slot_bits) - 1)) as usize;
        let pid = region.page_ids()[ordinal];
        let page = mem.page(pid).expect("page is live");
        assert_eq!(page.owner(), *nu);
        assert_eq!(page.ordinal() as usize, ordinal);
        assert_eq!(page.loc_of(slot), *loc, "loc encoding round-trips");
        assert_eq!(
            page.slot(slot)
                .and_then(ps_gc_lang::intern::SlotVal::as_val),
            Some(expected),
            "page-level read agrees"
        );
    }
    // Page accounting: the stats, the live-page walk, and the model's idea
    // of which ids are in use all agree; reserved words are exactly the
    // footprints of live pages.
    let stats = mem.page_stats();
    let live_ids: BTreeSet<u32> = mem.live_page_ids().into_iter().collect();
    assert_eq!(live_ids, model.in_use_pages, "live page ids");
    assert_eq!(stats.live, live_ids.len());
    assert_eq!(stats.allocated - stats.freed, stats.live as u64);
    assert!(stats.peak_live >= stats.live);
    let footprints: usize = mem.live_pages_iter_footprint();
    assert_eq!(stats.reserved_words, footprints, "reserved word accounting");
    let model_words: usize = model.slots.values().map(value_words).sum();
    assert_eq!(stats.live_data_words, model_words, "live data words");
}

/// Footprint sum helper on Memory: not part of the API, so recompute from
/// the public page views.
trait FootprintSum {
    fn live_pages_iter_footprint(&self) -> usize;
}

impl FootprintSum for Memory {
    fn live_pages_iter_footprint(&self) -> usize {
        self.live_page_ids()
            .into_iter()
            .filter_map(|pid| self.page(pid))
            .map(|p| p.footprint())
            .sum()
    }
}

fn run_tape(bytes: &[u8], dialect: Dialect) {
    let mut tape = Tape { bytes, pos: 0 };
    // Small pages so sequences of tens of ops exercise multi-page regions,
    // several size classes, and ordinal/slot splits.
    let page_words = match tape.next() % 3 {
        0 => 4,
        1 => 8,
        _ => 16,
    };
    let config = MemConfig {
        page_words,
        ..MemConfig::default()
    };
    let mut mem = Memory::new(config);
    let mut model = Model::default();
    let mut regions: Vec<RegionName> = Vec::new();
    let root = Term::Halt(Value::Int(0));

    let ops = 24 + (tape.next() as usize % 40);
    for _ in 0..ops {
        match tape.next() % 8 {
            // Allocate a region (bounded so `only` has meaningful work).
            0 if regions.len() < 6 => {
                regions.push(mem.alloc_region());
            }
            // Reclaim: keep a tape-chosen subset of live regions.
            1 if !regions.is_empty() => {
                let keep: Vec<RegionName> = regions
                    .iter()
                    .copied()
                    .filter(|_| tape.next().is_multiple_of(2))
                    .collect();
                let report = mem.only(&keep);
                for (_, pid, _) in &report.freed_pages {
                    assert!(
                        model.in_use_pages.remove(pid),
                        "freed page {pid} was not live"
                    );
                    model.freed_pages.insert(*pid);
                }
                for (nu, ..) in &report.dropped {
                    model.slots.retain(|(r, _), _| r != nu);
                }
                regions.retain(|r| keep.contains(r));
            }
            // Overwrite an existing slot with a same-shape value.
            2 if !model.slots.is_empty() => {
                let i = tape.next() as usize % model.slots.len();
                let (&(nu, loc), old) = model.slots.iter().nth(i).expect("indexed within len");
                let fresh = reshape(&mut tape, old);
                mem.set(nu, loc, fresh.clone()).expect("set on a live slot");
                model.slots.insert((nu, loc), fresh);
            }
            // Everything else: put a random value into a random region.
            _ => {
                if regions.is_empty() {
                    regions.push(mem.alloc_region());
                }
                let nu = regions[tape.next() as usize % regions.len()];
                let v = gen_value(&mut tape, 3);
                let rec = mem
                    .put_slot_counted(nu, SlotVal::Val(v.clone()))
                    .expect("unbounded put");
                assert_eq!(rec.words, value_words(&v));
                if let Some(alloc) = rec.page {
                    // A fresh page must reuse a previously freed id when
                    // one is available (LIFO free list), and must never
                    // collide with a live page.
                    assert!(
                        !model.in_use_pages.contains(&alloc.page),
                        "page {} handed out twice",
                        alloc.page
                    );
                    if !model.freed_pages.is_empty() {
                        assert!(
                            model.freed_pages.remove(&alloc.page),
                            "free list ignored: got page {} with {:?} free",
                            alloc.page,
                            model.freed_pages
                        );
                    }
                    model.in_use_pages.insert(alloc.page);
                    assert!(alloc.footprint >= rec.words);
                }
                let prior = model.slots.insert((nu, rec.loc), v);
                assert!(prior.is_none(), "put returned an occupied loc");
            }
        }
        check_against_model(&mem, &model, page_words);
        // Both audit strategies stay green throughout: the incremental
        // audit on the dirty set, and the full walk whenever frees have
        // scheduled one.
        if mem.wants_full_audit() {
            ps_gc_lang::verify::audit_state(&mem, dialect, &root).expect("full audit clean");
            mem.note_full_audit();
        } else {
            ps_gc_lang::verify::audit_dirty(&mut mem, dialect).expect("incremental audit clean");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random op sequences round-trip through the page store under the
    /// strict word-accounting dialect.
    #[test]
    fn page_store_round_trips_basic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        run_tape(&bytes, Dialect::Basic);
    }

    /// And under the forwarding dialect, whose word audit is an upper
    /// bound (in-place shrinking `set` is legal there).
    #[test]
    fn page_store_round_trips_forwarding(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        run_tape(&bytes, Dialect::Forwarding);
    }
}
