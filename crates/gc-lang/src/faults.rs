//! Seeded, deterministic fault injection: the adversarial counterpart of
//! [`crate::verify`].
//!
//! The paper's certification story (Props. 6.3–6.5) says a well-typed
//! collector cannot corrupt the heap; this module *does* corrupt it, on
//! purpose, with the classic garbage-collection bugs the type system rules
//! out, so that tests can prove the runtime auditor actually fires:
//!
//! * [`FaultKind::RetargetPointer`] — point a live reference at a region
//!   that `only` already reclaimed (a stale from-space pointer);
//! * [`FaultKind::ClobberForward`] — smash a forwarding pointer (`inr a`)
//!   so it dangles;
//! * [`FaultKind::FlipTag`] — flip a sum discriminator (`inl` ↔ `inr`),
//!   the stolen-bit bug of §7;
//! * [`FaultKind::TruncateTuple`] — drop the second component of a stored
//!   pair (a short copy);
//! * [`FaultKind::DoubleFree`] — reclaim a region that live data still
//!   references;
//! * [`FaultKind::UnderflowBudget`] — wreck a region's word budget (the
//!   accounting underflow that makes `ifgc` lie);
//! * [`FaultKind::StalePageHeader`] — desynchronize a page header's
//!   occupancy count from the objects the page actually holds (the BiBOP
//!   store's version of a corrupted size field).
//!
//! A [`FaultPlan`] names the fault, the step at or after which to inject
//! it, and a seed that picks the victim site deterministically (so a
//! failing run is replayable from its spec string alone). Injection only
//! targets sites *reachable from the current term*: corrupting garbage
//! would be indistinguishable from a legal collection, and Def. 7.1
//! explicitly permits dead slots to be ill-typed. When a fault's natural
//! site shape does not exist in the current dialect (e.g. no sums outside
//! λGCforw), injection degrades along a documented fallback chain rather
//! than never firing, so every fault class is injectable — and must be
//! detected — under every collector.

use std::str::FromStr;

use crate::memory::Memory;
use crate::syntax::{RegionName, Term, Value};
use crate::wf;

/// The classes of heap corruption the injector can inflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Retarget a reachable pointer into a reclaimed region.
    RetargetPointer,
    /// Replace a forwarding pointer's target with a dangling address.
    ClobberForward,
    /// Flip a sum discriminator in place (`inl` ↔ `inr`).
    FlipTag,
    /// Replace a stored pair with its first component only.
    TruncateTuple,
    /// Free a data region that reachable values still point into.
    DoubleFree,
    /// Drop a region's budget below the configured floor.
    UnderflowBudget,
    /// Desynchronize a page header's occupancy count from its slots.
    StalePageHeader,
}

impl FaultKind {
    /// All fault classes, for test matrices.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::RetargetPointer,
        FaultKind::ClobberForward,
        FaultKind::FlipTag,
        FaultKind::TruncateTuple,
        FaultKind::DoubleFree,
        FaultKind::UnderflowBudget,
        FaultKind::StalePageHeader,
    ];

    /// The spec-string name of this fault class.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::RetargetPointer => "retarget-pointer",
            FaultKind::ClobberForward => "clobber-forward",
            FaultKind::FlipTag => "flip-tag",
            FaultKind::TruncateTuple => "truncate-tuple",
            FaultKind::DoubleFree => "double-free",
            FaultKind::UnderflowBudget => "underflow-budget",
            FaultKind::StalePageHeader => "stale-page-header",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultKind, String> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown fault {s:?} (expected one of {})", names.join("|"))
            })
    }
}

/// A deterministic corruption plan: *what* to inject, *when*, and the seed
/// that picks the victim site.
///
/// The spec-string form is `kind@step[:seed]`, e.g. `flip-tag@500` or
/// `double-free@1000:7`. Injection fires at the first step `≥ step` at
/// which an eligible site exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The corruption to inflict.
    pub kind: FaultKind,
    /// Earliest machine step at which to inject.
    pub step: u64,
    /// Site-selection seed (`0` if omitted from the spec).
    pub seed: u64,
}

impl FaultPlan {
    /// Parses `kind@step[:seed]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed specs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (kind_s, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("fault spec {spec:?} must look like kind@step[:seed]"))?;
        let kind = kind_s.parse()?;
        let (step_s, seed_s) = match rest.split_once(':') {
            Some((a, b)) => (a, Some(b)),
            None => (rest, None),
        };
        let step = step_s
            .parse()
            .map_err(|_| format!("bad step {step_s:?} in fault spec {spec:?}"))?;
        let seed = match seed_s {
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad seed {s:?} in fault spec {spec:?}"))?,
            None => 0,
        };
        Ok(FaultPlan { kind, step, seed })
    }

    /// Renders the plan back to its spec string (`parse` ∘ `to_spec` is the
    /// identity).
    pub fn to_spec(&self) -> String {
        if self.seed == 0 {
            format!("{}@{}", self.kind, self.step)
        } else {
            format!("{}@{}:{}", self.kind, self.step, self.seed)
        }
    }
}

/// Parses a comma-separated list of fault specs
/// (`kind@step[:seed],kind@step[:seed],…`) into plans, in spec order.
///
/// # Errors
///
/// Returns a human-readable message naming the first malformed spec.
pub fn parse_plans(spec: &str) -> Result<Vec<FaultPlan>, String> {
    spec.split(',')
        .map(|s| FaultPlan::parse(s.trim()))
        .collect()
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse(s)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_spec())
    }
}

/// Attempts to inject `plan`'s fault into `mem`, with `root` (the current
/// term, environment applied) as the reachability root.
///
/// Returns a description of what was corrupted, or `None` if no eligible
/// site exists yet — the caller should retry after the next step. The
/// choice of site is a pure function of `(plan.seed, state)`.
pub fn apply(plan: &FaultPlan, mem: &mut Memory, root: &Term) -> Option<String> {
    let seed = mix(plan.seed);
    match plan.kind {
        FaultKind::RetargetPointer => {
            retarget_pointer(seed, mem, root).or_else(|| smash_slot(seed, mem, root))
        }
        FaultKind::ClobberForward => clobber_forward(seed, mem, root)
            .or_else(|| retarget_pointer(seed, mem, root))
            .or_else(|| smash_slot(seed, mem, root)),
        FaultKind::FlipTag => flip_tag(seed, mem, root).or_else(|| smash_slot(seed, mem, root)),
        FaultKind::TruncateTuple => {
            truncate_tuple(seed, mem, root).or_else(|| smash_slot(seed, mem, root))
        }
        FaultKind::DoubleFree => double_free(seed, mem, root),
        FaultKind::UnderflowBudget => underflow_budget(seed, mem),
        FaultKind::StalePageHeader => stale_page_header(seed, mem),
    }
}

/// splitmix64: one-shot avalanche so consecutive seeds pick unrelated sites.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reachable data-region slots with their values, in deterministic order.
fn reachable_sites(mem: &Memory, root: &Term) -> Vec<(RegionName, u32)> {
    let mut sites: Vec<(RegionName, u32)> = wf::reachable_from(mem, root)
        .slots
        .into_iter()
        .filter(|(nu, _)| !nu.is_cd())
        .collect();
    sites.sort_unstable();
    sites
}

fn pick<T: Copy>(sites: &[T], seed: u64) -> Option<T> {
    if sites.is_empty() {
        None
    } else {
        sites.get((seed % sites.len() as u64) as usize).copied()
    }
}

/// A region name that is *not* live: a previously reclaimed id when one
/// exists (the true "pointer into from-space after `only`"), otherwise an
/// id far past anything the machine will allocate.
fn dead_region(mem: &Memory) -> RegionName {
    (1..mem.next_region_id())
        .map(RegionName)
        .find(|nu| !mem.has_region(*nu))
        .unwrap_or(RegionName(u32::MAX))
}

/// Number of addresses [`retarget`] can reach in `v` (stored values only —
/// code bodies are not descended, matching `retarget`).
fn count_addrs(v: &Value) -> u64 {
    match v {
        Value::Addr(..) => 1,
        Value::Pair(a, b) => count_addrs(a) + count_addrs(b),
        Value::PackTag { val, .. }
        | Value::PackAlpha { val, .. }
        | Value::PackRgn { val, .. }
        | Value::Inl(val)
        | Value::Inr(val)
        | Value::TagApp(val, _, _) => count_addrs(val),
        Value::Int(_) | Value::Var(_) | Value::Code(_) => 0,
    }
}

/// Clones `v` with its `k`-th address (pre-order) retargeted to `dead.0`.
fn retarget(v: &Value, k: &mut i64, dead: RegionName) -> Value {
    match v {
        Value::Addr(..) => {
            let hit = *k == 0;
            *k -= 1;
            if hit {
                Value::Addr(dead, 0)
            } else {
                v.clone()
            }
        }
        Value::Pair(a, b) => Value::Pair(retarget(a, k, dead).id(), retarget(b, k, dead).id()),
        Value::PackTag {
            tvar,
            kind,
            tag,
            val,
            body_ty,
        } => Value::PackTag {
            tvar: *tvar,
            kind: *kind,
            tag: *tag,
            val: retarget(val, k, dead).id(),
            body_ty: *body_ty,
        },
        Value::PackAlpha {
            avar,
            regions,
            witness,
            val,
            body_ty,
        } => Value::PackAlpha {
            avar: *avar,
            regions: regions.clone(),
            witness: *witness,
            val: retarget(val, k, dead).id(),
            body_ty: *body_ty,
        },
        Value::PackRgn {
            rvar,
            bound,
            witness,
            val,
            body_ty,
        } => Value::PackRgn {
            rvar: *rvar,
            bound: bound.clone(),
            witness: *witness,
            val: retarget(val, k, dead).id(),
            body_ty: *body_ty,
        },
        Value::Inl(x) => Value::Inl(retarget(x, k, dead).id()),
        Value::Inr(x) => Value::Inr(retarget(x, k, dead).id()),
        Value::TagApp(f, tags, regions) => {
            Value::TagApp(retarget(f, k, dead).id(), tags.clone(), regions.clone())
        }
        Value::Int(_) | Value::Var(_) | Value::Code(_) => v.clone(),
    }
}

fn retarget_pointer(seed: u64, mem: &mut Memory, root: &Term) -> Option<String> {
    let sites: Vec<(RegionName, u32, u64)> = reachable_sites(mem, root)
        .into_iter()
        .filter_map(|(nu, loc)| {
            let n = count_addrs(mem.get(nu, loc).ok()?);
            (n > 0).then_some((nu, loc, n))
        })
        .collect();
    let (nu, loc, n) = pick(&sites, seed)?;
    let dead = dead_region(mem);
    let mut k = (mix(seed ^ 0x517c) % n) as i64;
    let corrupted = retarget(mem.get(nu, loc).ok()?, &mut k, dead);
    mem.set(nu, loc, corrupted).ok()?;
    Some(format!(
        "retargeted a pointer inside {nu}.{loc} to reclaimed region {dead}"
    ))
}

fn clobber_forward(seed: u64, mem: &mut Memory, root: &Term) -> Option<String> {
    let sites: Vec<(RegionName, u32)> = reachable_sites(mem, root)
        .into_iter()
        .filter(|&(nu, loc)| matches!(mem.get(nu, loc), Ok(Value::Inr(x)) if count_addrs(x) > 0))
        .collect();
    let (nu, loc) = pick(&sites, seed)?;
    let dead = dead_region(mem);
    mem.set(nu, loc, Value::Inr(Value::Addr(dead, 0).id()))
        .ok()?;
    Some(format!(
        "clobbered the forwarding pointer at {nu}.{loc} to point into {dead}"
    ))
}

fn flip_tag(seed: u64, mem: &mut Memory, root: &Term) -> Option<String> {
    let sites: Vec<(RegionName, u32)> = reachable_sites(mem, root)
        .into_iter()
        .filter(|&(nu, loc)| matches!(mem.get(nu, loc), Ok(Value::Inl(_) | Value::Inr(_))))
        .collect();
    let (nu, loc) = pick(&sites, seed)?;
    let flipped = match mem.get(nu, loc).ok()? {
        Value::Inl(x) => Value::Inr(*x),
        Value::Inr(x) => Value::Inl(*x),
        _ => return None,
    };
    mem.set(nu, loc, flipped).ok()?;
    Some(format!("flipped the sum tag at {nu}.{loc}"))
}

fn truncate_tuple(seed: u64, mem: &mut Memory, root: &Term) -> Option<String> {
    let sites: Vec<(RegionName, u32)> = reachable_sites(mem, root)
        .into_iter()
        .filter(|&(nu, loc)| matches!(mem.get(nu, loc), Ok(Value::Pair(..))))
        .collect();
    let (nu, loc) = pick(&sites, seed)?;
    let Ok(Value::Pair(a, _)) = mem.get(nu, loc) else {
        return None;
    };
    let first = (**a).clone();
    mem.set(nu, loc, first).ok()?;
    Some(format!(
        "truncated the pair at {nu}.{loc} to its first component"
    ))
}

fn double_free(seed: u64, mem: &mut Memory, root: &Term) -> Option<String> {
    let mut regions: Vec<RegionName> = reachable_sites(mem, root)
        .into_iter()
        .map(|(nu, _)| nu)
        .collect();
    regions.dedup();
    let nu = pick(&regions, seed)?;
    mem.force_free_region(nu)
        .then(|| format!("freed region {nu} while reachable values still point into it"))
}

fn underflow_budget(seed: u64, mem: &mut Memory) -> Option<String> {
    if mem.config().region_budget == 0 {
        return None;
    }
    let regions: Vec<RegionName> = mem.region_names().filter(|nu| !nu.is_cd()).collect();
    let nu = pick(&regions, seed)?;
    mem.corrupt_budget(nu, 0)
        .then(|| format!("underflowed the budget of region {nu} to 0"))
}

fn stale_page_header(seed: u64, mem: &mut Memory) -> Option<String> {
    let pages = mem.live_page_ids();
    let pid = pick(&pages, seed)?;
    mem.corrupt_page_header(pid)
        .then(|| format!("bumped the occupancy header of page {pid} past its slot count"))
}

/// The universal fallback: overwrite a reachable non-int slot with a bare
/// int. Under Ψ tracking this always mismatches the recorded type; in the
/// exact-accounting dialects it also breaks the word count whenever the
/// victim was wider than one word.
fn smash_slot(seed: u64, mem: &mut Memory, root: &Term) -> Option<String> {
    let sites: Vec<(RegionName, u32)> = reachable_sites(mem, root)
        .into_iter()
        .filter(|&(nu, loc)| !matches!(mem.get(nu, loc), Ok(Value::Int(_)) | Err(_)))
        .collect();
    let (nu, loc) = pick(&sites, seed)?;
    mem.set(nu, loc, Value::Int(seed as i64)).ok()?;
    Some(format!(
        "no site with the requested shape; smashed {nu}.{loc} to a bare int instead"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemConfig;
    use crate::syntax::Dialect;
    use crate::verify::audit_state;

    #[test]
    fn spec_round_trips() {
        for kind in FaultKind::ALL {
            for (step, seed) in [(0, 0), (100, 0), (7, 42)] {
                let plan = FaultPlan { kind, step, seed };
                let spec = plan.to_spec();
                assert_eq!(FaultPlan::parse(&spec), Ok(plan), "{spec}");
            }
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "",
            "flip-tag",
            "flip-tag@",
            "flip-tag@abc",
            "flip-tag@1:xyz",
            "mark-sweep@1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn display_matches_to_spec() {
        let plan = FaultPlan {
            kind: FaultKind::DoubleFree,
            step: 9,
            seed: 3,
        };
        assert_eq!(plan.to_string(), "double-free@9:3");
        assert_eq!("double-free@9:3".parse(), Ok(plan));
    }

    /// Build a store whose single data region holds one of everything the
    /// injectors target, all reachable from the root. Ψ tracking is on so
    /// the audit catches shape-preserving faults (e.g. a flipped tag, which
    /// is invisible to the structural checks under λGCforw's relaxed word
    /// accounting).
    fn rich_store() -> (Memory, Term) {
        let mut mem = Memory::new(MemConfig {
            region_budget: 64,
            track_types: true,
            ..MemConfig::default()
        });
        let nu = mem.alloc_region();
        let pair = mem
            .put(nu, Value::pair(Value::Int(1), Value::Int(2)))
            .unwrap();
        let sum = mem.put(nu, Value::inl(Value::Int(5))).unwrap();
        let fwd = mem.put(nu, Value::inr(Value::Addr(nu, pair))).unwrap();
        let root = Term::Halt(Value::pair(
            Value::pair(Value::Addr(nu, pair), Value::Addr(nu, sum)),
            Value::Addr(nu, fwd),
        ));
        (mem, root)
    }

    #[test]
    fn every_fault_applies_and_is_caught_on_a_rich_store() {
        for kind in FaultKind::ALL {
            for seed in 0..4 {
                let (mut mem, root) = rich_store();
                audit_state(&mem, Dialect::Forwarding, &root).unwrap();
                let plan = FaultPlan {
                    kind,
                    step: 0,
                    seed,
                };
                let desc =
                    apply(&plan, &mut mem, &root).unwrap_or_else(|| panic!("{kind} found no site"));
                let err = audit_state(&mem, Dialect::Forwarding, &root);
                assert!(err.is_err(), "{kind} seed {seed} undetected after: {desc}");
            }
        }
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        for kind in FaultKind::ALL {
            let plan = FaultPlan {
                kind,
                step: 0,
                seed: 11,
            };
            let (mut m1, root) = rich_store();
            let (mut m2, _) = rich_store();
            let d1 = apply(&plan, &mut m1, &root);
            let d2 = apply(&plan, &mut m2, &root);
            assert_eq!(d1, d2, "{kind}");
        }
    }

    #[test]
    fn stale_page_header_is_caught_by_the_incremental_audit() {
        let (mut mem, root) = rich_store();
        audit_state(&mem, Dialect::Forwarding, &root).unwrap();
        let plan = FaultPlan {
            kind: FaultKind::StalePageHeader,
            step: 0,
            seed: 0,
        };
        apply(&plan, &mut mem, &root).expect("a live page exists");
        let err = crate::verify::audit_dirty(&mut mem, Dialect::Forwarding)
            .expect_err("the dirty-page audit sees the corrupted header");
        assert!(
            err.to_string().contains("occupancy"),
            "unexpected detail: {err}"
        );
    }

    #[test]
    fn no_site_means_no_injection() {
        // An empty store (just cd) offers nothing to corrupt except a
        // budget — and there is no data region for that either.
        let mut mem = Memory::new(MemConfig::default());
        let root = Term::Halt(Value::Int(0));
        for kind in FaultKind::ALL {
            let plan = FaultPlan {
                kind,
                step: 0,
                seed: 0,
            };
            assert_eq!(apply(&plan, &mut mem, &root), None, "{kind}");
        }
    }
}
