//! Runtime heap-invariant auditor: the dynamic half of Fig. 7's
//! `⊢ M : Ψ` judgement, checkable on a *live* machine state.
//!
//! The paper certifies collectors statically (Props. 6.3–6.5: the
//! typechecker proves type preservation and progress before the program
//! runs). This module re-validates the invariants those propositions
//! guarantee, against the actual store, while the machine runs:
//!
//! 1. **CD intact** — the code region exists and holds only code blocks
//!    (§4.3: `cd` is never reclaimed and never mutated after load).
//! 2. **Budget floor** — every data region's budget is at least the
//!    configured base budget. Budgets are `usize`, so an arithmetic
//!    underflow (the classic accounting bug) surfaces as a huge or a
//!    below-floor value; both growth policies guarantee the floor.
//! 3. **Word accounting** — each region's recorded word count matches the
//!    sizes of its slots: exactly for λGC/λGCgen, and as an upper bound for
//!    λGCforw, whose `set` may shrink a slot in place without adjusting the
//!    count (the slot keeps its `Υ`-assigned size).
//! 4. **Pointer validity** — no address reachable from the current term
//!    points into a reclaimed region or past a region's end (the dynamic
//!    face of `Ψ; Dom(Ψ) ⊢ v` and Def. 7.1's reachability restriction).
//! 5. **Ψ conformance** (when [`crate::memory::MemConfig::track_types`] is
//!    on) — every stored value checks against its recorded `Ψ` type, with
//!    Def. 7.1's sufficient-subset weakening for λGCforw.
//!
//! Checks 1–4 need no type tracking, so the auditor runs on production
//! configurations; check 5 upgrades it to the full Fig. 7 judgement. The
//! auditor is purely observational: it never touches statistics or
//! telemetry, so an audited clean run is bit-identical to an unaudited one.
//!
//! Every backend exposes it as [`crate::machine::Machine::audit`], and the
//! shared run loop runs it every N steps
//! ([`crate::machine::RunControl::verify_every`]). [`crate::faults`]
//! provides the adversarial counterpart that these checks must catch.

use crate::error::{wf_err, Result};
use crate::intern::SlotVal;
use crate::memory::{slot_words, Memory, PageView};
use crate::syntax::{Dialect, RegionName, Term, Value, CD};
use crate::tyck::{Checker, Ctx};
use crate::wf::{self, Reachable};

/// Audits a memory against the invariants of Fig. 7, with `root` as the
/// reachability root (the machine's current term, with any environment
/// already applied).
///
/// # Errors
///
/// Returns a [`crate::error::ErrorKind::WellFormedness`] error describing
/// the first violated invariant.
pub fn audit_state(mem: &Memory, dialect: Dialect, root: &Term) -> Result<()> {
    audit_cd(mem)?;
    audit_budgets(mem)?;
    audit_pages(mem)?;
    audit_words(mem, dialect)?;
    let reachable = wf::reachable_from(mem, root);
    audit_pointers(&reachable)?;
    if mem.config().track_types {
        // Check 5, over the reachable slots under λGCforw (Def. 7.1). The
        // current term is not re-typechecked: the heap side is what
        // corruption perturbs, and leaving the term out keeps the audit
        // identical on every backend, whose in-flight terms differ only by
        // pending substitutions.
        let reachable = (dialect == Dialect::Forwarding).then_some(&reachable.slots);
        wf::check_store(mem, dialect, reachable, false)?;
    }
    Ok(())
}

/// Incremental audit: re-checks only the pages dirtied since the last
/// acknowledged audit, then clears the dirty set. Region budgets are always
/// checked (they live outside pages); header consistency, word accounting,
/// pointer validity, and `Ψ` conformance are checked per dirty page/slot.
///
/// Soundness relies on [`Memory::wants_full_audit`]: region frees raise it,
/// and callers must run [`audit_state`] (a full walk) before resuming
/// incremental audits — between full audits no region dies, so a dangling
/// pointer can only have been *written*, i.e. it sits in a dirty slot.
///
/// Unlike the full walk, no reachability root is needed: every dirty slot is
/// checked unconditionally (a superset of the reachable dirty slots), which
/// is sound because the C-form `Ψ` types accept forwarding installs.
///
/// # Errors
///
/// Returns a [`crate::error::ErrorKind::WellFormedness`] error describing
/// the first violated invariant. On error the dirty set is left intact so
/// diagnostics can inspect it.
pub fn audit_dirty(mem: &mut Memory, dialect: Dialect) -> Result<()> {
    audit_dirty_inner(mem, dialect)?;
    mem.note_dirty_audit();
    Ok(())
}

fn audit_dirty_inner(mem: &Memory, dialect: Dialect) -> Result<()> {
    audit_budgets(mem)?;
    // The typing context is built on the first slot that needs a typed
    // re-check: most audited steps dirty only pristine slots.
    let mut typing: Option<(Checker, Ctx)> = None;
    let mut work: Vec<(RegionName, u32)> = Vec::new();
    for pid in mem.dirty_page_ids() {
        let Some(page) = mem.page(pid) else {
            // Freed since it was dirtied; the pending full audit covers it.
            continue;
        };
        page_header_check(mem, pid, &page)?;
        page_memo_sum_check(pid, &page)?;
        let nu = page.owner();
        for slot in page.dirty_slots() {
            let Some(stored) = page.slot(slot) else {
                continue;
            };
            let loc = page.loc_of(slot);
            slot_word_check(nu, loc, &page, slot, stored, dialect)?;
            // Pointer validity: everything a dirty slot references must
            // resolve to a live slot.
            work.clear();
            wf::collect_slot_addrs(stored, &mut work);
            for &(tnu, tloc) in &work {
                if let Err(e) = mem.peek(tnu, tloc) {
                    return Err(wf_err(format!(
                        "pointer {tnu}.{tloc} stored in dirty slot {nu}.{loc} \
                         is dangling: {e}"
                    )));
                }
            }
            if mem.config().track_types {
                let Some(entry) = mem.psi_entry(nu, loc) else {
                    // Dead garbage discarded by widen (Def. 7.1) — only the
                    // forwarding dialect may have Ψ-less slots.
                    if dialect == Dialect::Forwarding {
                        continue;
                    }
                    return Err(wf_err(format!("slot {nu}.{loc} has no Ψ entry")));
                };
                // A pristine slot still holds exactly the value whose type
                // `put` inferred into Ψ, so re-synthesizing it proves
                // nothing new; only written-since-put slots are re-checked.
                // (This trusts put-time inference; the full walk re-checks
                // everything.)
                if !page.is_pristine(slot) {
                    let (checker, ctx) =
                        typing.get_or_insert_with(|| wf::typing_context(mem, dialect));
                    checker
                        .check_value(ctx, &stored.canonical(), entry)
                        .map_err(|e| {
                            wf_err(format!("slot {nu}.{loc} does not match its Ψ type: {e}"))
                        })?;
                }
            }
        }
    }
    Ok(())
}

/// Header consistency over every live page (part of the full walk).
fn audit_pages(mem: &Memory) -> Result<()> {
    for pid in mem.live_page_ids() {
        let Some(page) = mem.page(pid) else {
            continue;
        };
        page_header_check(mem, pid, &page)?;
    }
    Ok(())
}

/// One page's header against its storage and its owner's page list.
fn page_header_check(mem: &Memory, pid: u32, page: &PageView<'_>) -> Result<()> {
    let nu = page.owner();
    let Some(region) = mem.region(nu) else {
        return Err(wf_err(format!(
            "page {pid} is owned by reclaimed region {nu}"
        )));
    };
    if region.page_ids().get(page.ordinal() as usize) != Some(&pid) {
        return Err(wf_err(format!(
            "page {pid} claims ordinal {} of region {nu}, which does not \
             point back at it",
            page.ordinal()
        )));
    }
    if page.len() > page.capacity() as usize {
        return Err(wf_err(format!(
            "page {pid} holds {} objects but has capacity {}",
            page.len(),
            page.capacity()
        )));
    }
    if page.occupancy() as usize != page.len() {
        return Err(wf_err(format!(
            "page {pid} header records occupancy {} but it holds {} objects",
            page.occupancy(),
            page.len()
        )));
    }
    Ok(())
}

/// One page's recorded live words against its per-slot size memos. Both
/// are put-time sums that `set` never adjusts, so they agree *exactly* in
/// every dialect; summing the memo vector costs O(slots) integer adds, not
/// a value walk.
fn page_memo_sum_check(pid: u32, page: &PageView<'_>) -> Result<()> {
    let memo_sum: usize = (0..page.len()).filter_map(|i| page.slot_size(i)).sum();
    let recorded = page.live_words();
    if memo_sum != recorded {
        return Err(wf_err(format!(
            "page {pid} records {recorded} words but its size memos sum to {memo_sum}"
        )));
    }
    Ok(())
}

/// One dirty slot's current size against its put-time memo (the per-slot
/// face of check 3; λGCforw's in-place shrinking `set` makes the memo an
/// upper bound). O(dirty slot), replacing the full-page value walk.
fn slot_word_check(
    nu: RegionName,
    loc: u32,
    page: &PageView<'_>,
    slot: usize,
    stored: &SlotVal,
    dialect: Dialect,
) -> Result<()> {
    let recomputed = slot_words(stored);
    let Some(memo) = page.slot_size(slot) else {
        return Err(wf_err(format!("slot {nu}.{loc} has no size memo")));
    };
    let bad = match dialect {
        Dialect::Forwarding => recomputed > memo,
        Dialect::Basic | Dialect::Generational => recomputed != memo,
    };
    if bad {
        return Err(wf_err(format!(
            "slot {nu}.{loc} holds {recomputed} words but its size memo records {memo}"
        )));
    }
    Ok(())
}

/// Check 1: the code region exists and holds only code blocks.
fn audit_cd(mem: &Memory) -> Result<()> {
    let Some(cd) = mem.region(CD) else {
        return Err(wf_err("code region cd has been reclaimed"));
    };
    for (loc, v) in cd.iter() {
        if !matches!(v.as_val(), Some(Value::Code(_))) {
            let v = v.canonical();
            return Err(wf_err(format!("cd.{loc} holds a non-code value: {v:?}")));
        }
    }
    Ok(())
}

/// Check 2: no data region's budget dropped below the configured base
/// budget (both growth policies allocate at least that much).
fn audit_budgets(mem: &Memory) -> Result<()> {
    let floor = mem.config().region_budget;
    for nu in mem.region_names() {
        if nu.is_cd() {
            continue;
        }
        let Some(region) = mem.region(nu) else {
            continue;
        };
        if region.budget() < floor {
            return Err(wf_err(format!(
                "region {nu} budget {} underflowed the floor {floor}",
                region.budget()
            )));
        }
    }
    Ok(())
}

/// Check 3: recorded per-region word counts agree with the slots. λGCforw's
/// `set` legitimately shrinks slots in place, so there the recomputed total
/// is only bounded above by the record.
fn audit_words(mem: &Memory, dialect: Dialect) -> Result<()> {
    for nu in mem.region_names() {
        if nu.is_cd() {
            continue;
        }
        let Some(region) = mem.region(nu) else {
            continue;
        };
        let recomputed: usize = region.iter().map(|(_, v)| slot_words(v)).sum();
        let recorded = region.words();
        let bad = match dialect {
            Dialect::Forwarding => recomputed > recorded,
            Dialect::Basic | Dialect::Generational => recomputed != recorded,
        };
        if bad {
            return Err(wf_err(format!(
                "region {nu} records {recorded} words but its slots hold {recomputed}"
            )));
        }
    }
    Ok(())
}

/// Check 4: every address reachable from the root hits a live slot.
fn audit_pointers(reachable: &Reachable) -> Result<()> {
    match &reachable.dangling {
        Some(((nu, loc), e)) => Err(wf_err(format!(
            "reachable pointer {nu}.{loc} is dangling: {e}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Program, SubstMachine};
    use crate::memory::{GrowthPolicy, MemConfig};
    use crate::syntax::{Region, Term, Value};
    use ps_ir::Symbol;

    fn config(track: bool) -> MemConfig {
        MemConfig {
            region_budget: 16,
            growth: GrowthPolicy::Fixed,
            track_types: track,
            max_heap_words: None,
            page_words: 8,
        }
    }

    /// A machine paused right after allocating a region and a pair, with
    /// the pair's address still live in the term.
    fn paused_machine(track: bool) -> SubstMachine {
        let r = Symbol::intern("vr");
        let x = Symbol::intern("vx");
        let y = Symbol::intern("vy");
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::LetRegion {
                rvar: r,
                body: (Term::let_(
                    x,
                    crate::syntax::Op::Put(
                        Region::Var(r),
                        Value::pair(Value::Int(1), Value::Int(2)),
                    ),
                    Term::let_(
                        y,
                        crate::syntax::Op::Get(Value::Var(x)),
                        Term::Halt(Value::Int(0)),
                    ),
                ))
                .into(),
            },
        };
        let mut m = SubstMachine::load(&p, config(track));
        m.step().unwrap(); // let region
        m.step().unwrap(); // put
        m
    }

    #[test]
    fn clean_state_passes_tracked_and_untracked() {
        for track in [false, true] {
            let m = paused_machine(track);
            audit_state(m.memory(), Dialect::Basic, m.term()).unwrap();
        }
    }

    #[test]
    fn double_free_is_detected() {
        let mut m = paused_machine(false);
        let nu = m
            .memory()
            .region_names()
            .find(|n| !n.is_cd())
            .expect("data region");
        assert!(m.memory_mut().force_free_region(nu));
        let err = audit_state(m.memory(), Dialect::Basic, m.term()).unwrap_err();
        assert!(err.to_string().contains("dangling"), "{err}");
    }

    #[test]
    fn budget_underflow_is_detected() {
        let mut m = paused_machine(false);
        let nu = m
            .memory()
            .region_names()
            .find(|n| !n.is_cd())
            .expect("data region");
        assert!(m.memory_mut().corrupt_budget(nu, 0));
        let err = audit_state(m.memory(), Dialect::Basic, m.term()).unwrap_err();
        assert!(err.to_string().contains("underflowed"), "{err}");
    }

    #[test]
    fn truncation_is_detected_by_word_accounting() {
        let mut m = paused_machine(false);
        let nu = m
            .memory()
            .region_names()
            .find(|n| !n.is_cd())
            .expect("data region");
        // Shrink the pair to a single int; the recorded count still says 2.
        m.memory_mut().set(nu, 0, Value::Int(7)).unwrap();
        let err = audit_state(m.memory(), Dialect::Basic, m.term()).unwrap_err();
        assert!(err.to_string().contains("words"), "{err}");
    }

    #[test]
    fn tag_flip_is_detected_under_psi_tracking() {
        // Build a forwarding-dialect store with an `inl` object and flip it.
        let mut mem = Memory::new(config(true));
        let nu = mem.alloc_region();
        mem.put(nu, Value::inl(Value::Int(3))).unwrap();
        let root = Term::Halt(Value::Addr(nu, 0));
        audit_state(&mem, Dialect::Forwarding, &root).unwrap();
        mem.set(nu, 0, Value::inr(Value::Int(3))).unwrap();
        let err = audit_state(&mem, Dialect::Forwarding, &root).unwrap_err();
        assert!(err.to_string().contains("Ψ"), "{err}");
    }

    #[test]
    fn audit_needs_no_type_tracking_for_structural_checks() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::Int(1)).unwrap();
        let root = Term::Halt(Value::Addr(nu, 5)); // past the end
        let err = audit_state(&mem, Dialect::Basic, &root).unwrap_err();
        assert!(err.to_string().contains("dangling"), "{err}");
    }

    #[test]
    fn forwarding_word_check_is_an_upper_bound() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::inl(Value::pair(Value::Int(1), Value::Int(2))))
            .unwrap();
        // A legitimate forwarding install shrinks the slot in place.
        mem.set(nu, 0, Value::inr(Value::Addr(nu, 0))).unwrap();
        audit_words(&mem, Dialect::Forwarding).unwrap();
        assert!(audit_words(&mem, Dialect::Basic).is_err());
    }

    #[test]
    fn stale_page_header_is_detected_by_full_audit() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::Int(1)).unwrap();
        let root = Term::Halt(Value::Int(0));
        audit_state(&mem, Dialect::Basic, &root).unwrap();
        let pid = mem.live_page_ids()[0];
        assert!(mem.corrupt_page_header(pid));
        let err = audit_state(&mem, Dialect::Basic, &root).unwrap_err();
        assert!(err.to_string().contains("occupancy"), "{err}");
    }

    #[test]
    fn dirty_audit_passes_clean_and_detects_stale_header() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::Int(1)).unwrap();
        audit_dirty(&mut mem, Dialect::Basic).unwrap();
        assert!(
            mem.dirty_page_ids().is_empty(),
            "a passing audit acknowledges"
        );
        let pid = mem.live_page_ids()[0];
        assert!(mem.corrupt_page_header(pid));
        let err = audit_dirty(&mut mem, Dialect::Basic).unwrap_err();
        assert!(err.to_string().contains("occupancy"), "{err}");
        assert_eq!(
            mem.dirty_page_ids(),
            vec![pid],
            "a failing audit leaves the dirty set for diagnostics"
        );
    }

    #[test]
    fn dirty_audit_detects_truncation_in_a_dirty_slot() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::pair(Value::Int(1), Value::Int(2)))
            .unwrap();
        audit_dirty(&mut mem, Dialect::Basic).unwrap();
        mem.set(nu, 0, Value::Int(7)).unwrap();
        let err = audit_dirty(&mut mem, Dialect::Basic).unwrap_err();
        assert!(err.to_string().contains("words"), "{err}");
    }

    #[test]
    fn dirty_audit_detects_dangling_pointer_written_into_a_slot() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::Int(1)).unwrap();
        audit_dirty(&mut mem, Dialect::Basic).unwrap();
        // Write a pointer past the end of the region (word counts stay
        // right: both values are one word).
        mem.set(nu, 0, Value::Addr(nu, 77)).unwrap();
        let err = audit_dirty(&mut mem, Dialect::Basic).unwrap_err();
        assert!(err.to_string().contains("dangling"), "{err}");
    }

    #[test]
    fn dirty_audit_detects_tag_flip_under_psi_tracking() {
        let mut mem = Memory::new(config(true));
        let nu = mem.alloc_region();
        mem.put(nu, Value::inl(Value::Int(3))).unwrap();
        audit_dirty(&mut mem, Dialect::Forwarding).unwrap();
        mem.set(nu, 0, Value::inr(Value::Int(3))).unwrap();
        let err = audit_dirty(&mut mem, Dialect::Forwarding).unwrap_err();
        assert!(err.to_string().contains("Ψ"), "{err}");
    }

    #[test]
    fn dirty_audit_skips_clean_slots() {
        let mut mem = Memory::new(config(false));
        let nu = mem.alloc_region();
        mem.put(nu, Value::pair(Value::Int(1), Value::Int(2)))
            .unwrap();
        let loc2 = mem
            .put(nu, Value::pair(Value::Int(3), Value::Int(4)))
            .unwrap();
        audit_dirty(&mut mem, Dialect::Basic).unwrap();
        // Corrupt slot 0 *without* dirtying it is impossible through the
        // public API; instead verify that dirtying only slot 2 audits only
        // slot 2 (the truncation there is found, proving the walk ran).
        mem.set(nu, loc2, Value::Int(9)).unwrap();
        let err = audit_dirty(&mut mem, Dialect::Basic).unwrap_err();
        assert!(err.to_string().contains("words"), "{err}");
    }

    #[test]
    fn frees_route_to_the_full_walk() {
        let mut m = paused_machine(false);
        let nu = m
            .memory()
            .region_names()
            .find(|n| !n.is_cd())
            .expect("data region");
        assert!(m.memory_mut().force_free_region(nu));
        assert!(m.memory().wants_full_audit());
        // The full walk sees the dangling address still live in the term.
        let err = audit_state(m.memory(), Dialect::Basic, m.term()).unwrap_err();
        assert!(err.to_string().contains("dangling"), "{err}");
    }
}
