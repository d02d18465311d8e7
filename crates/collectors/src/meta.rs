//! An *untyped* meta-level copying collector — the baseline the paper
//! argues against.
//!
//! This collector lives outside the language: it is ordinary Rust code that
//! walks machine values and copies reachable objects into a fresh region.
//! It is exactly the kind of "trusted garbage collector" §1 identifies as
//! the residual hole in PCC/TAL systems: nothing checks it, and a bug here
//! (a missed field, a stale address) silently corrupts the heap.
//!
//! It is the sharing-preserving side of `examples/sharing.rs`, which sets
//! it against a share-oblivious copy on DAG heaps built by [`synth_dag`].
//! Like Fig. 9's collector (and unlike Fig. 4's), it preserves sharing,
//! using a side table of forwarding addresses.

use std::collections::HashMap;

use ps_gc_lang::error::Result;
use ps_gc_lang::memory::Memory;
use ps_gc_lang::syntax::{RegionName, Value};

/// Statistics from one meta-level collection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Objects copied (unique heap cells).
    pub objects_copied: usize,
    /// Words copied.
    pub words_copied: usize,
    /// Forwarding-table hits (shared references that were *not* re-copied).
    pub sharing_hits: usize,
}

/// Copies everything reachable from `roots` into a fresh region and
/// reclaims all other data regions. Returns the new region, the rewritten
/// roots, and statistics.
///
/// # Errors
///
/// Fails on dangling addresses (which a type-safe heap cannot contain —
/// this collector, being untyped, has to just hope).
pub fn collect(mem: &mut Memory, roots: &[Value]) -> Result<(RegionName, Vec<Value>, MetaStats)> {
    let to = mem.alloc_region();
    let mut forwarded: HashMap<(RegionName, u32), (RegionName, u32)> = HashMap::new();
    let mut stats = MetaStats::default();
    let new_roots = roots
        .iter()
        .map(|r| copy_value(mem, r, to, &mut forwarded, &mut stats))
        .collect::<Result<Vec<_>>>()?;
    mem.only(&[to]);
    Ok((to, new_roots, stats))
}

fn copy_value(
    mem: &mut Memory,
    v: &Value,
    to: RegionName,
    forwarded: &mut HashMap<(RegionName, u32), (RegionName, u32)>,
    stats: &mut MetaStats,
) -> Result<Value> {
    match v {
        Value::Int(_) | Value::Var(_) | Value::Code(_) => Ok(v.clone()),
        Value::Addr(nu, loc) => {
            if nu.is_cd() {
                return Ok(v.clone());
            }
            if let Some(&(n2, l2)) = forwarded.get(&(*nu, *loc)) {
                stats.sharing_hits += 1;
                return Ok(Value::Addr(n2, l2));
            }
            let stored = mem.get(*nu, *loc)?.clone();
            let copied = copy_value(mem, &stored, to, forwarded, stats)?;
            stats.objects_copied += 1;
            stats.words_copied += ps_gc_lang::memory::value_words(&copied);
            let l2 = mem.put(to, copied)?;
            forwarded.insert((*nu, *loc), (to, l2));
            Ok(Value::Addr(to, l2))
        }
        Value::Pair(a, b) => Ok(Value::Pair(
            (copy_value(mem, a, to, forwarded, stats)?).into(),
            (copy_value(mem, b, to, forwarded, stats)?).into(),
        )),
        Value::PackTag {
            tvar,
            kind,
            tag,
            val,
            body_ty,
        } => Ok(Value::PackTag {
            tvar: *tvar,
            kind: *kind,
            tag: *tag,
            val: (copy_value(mem, val, to, forwarded, stats)?).into(),
            body_ty: *body_ty,
        }),
        Value::PackAlpha {
            avar,
            regions,
            witness,
            val,
            body_ty,
        } => Ok(Value::PackAlpha {
            avar: *avar,
            regions: regions.clone(),
            witness: *witness,
            val: (copy_value(mem, val, to, forwarded, stats)?).into(),
            body_ty: *body_ty,
        }),
        Value::PackRgn {
            rvar,
            bound,
            witness,
            val,
            body_ty,
        } => Ok(Value::PackRgn {
            rvar: *rvar,
            bound: bound.clone(),
            witness: *witness,
            val: (copy_value(mem, val, to, forwarded, stats)?).into(),
            body_ty: *body_ty,
        }),
        Value::TagApp(f, tags, regions) => Ok(Value::TagApp(
            (copy_value(mem, f, to, forwarded, stats)?).into(),
            tags.clone(),
            regions.clone(),
        )),
        Value::Inl(x) => Ok(Value::Inl(
            (copy_value(mem, x, to, forwarded, stats)?).into(),
        )),
        Value::Inr(x) => Ok(Value::Inr(
            (copy_value(mem, x, to, forwarded, stats)?).into(),
        )),
    }
}

/// Builds a complete binary tree of pairs of the given depth in `region`,
/// returning the root value: a heap of known shape (`2^depth − 1` cells)
/// for the tests below.
///
/// # Errors
///
/// Fails if `region` does not exist.
pub fn synth_tree(mem: &mut Memory, region: RegionName, depth: u32) -> Result<Value> {
    if depth == 0 {
        return Ok(Value::Int(1));
    }
    let a = synth_tree(mem, region, depth - 1)?;
    let b = synth_tree(mem, region, depth - 1)?;
    let loc = mem.put(region, Value::pair(a, b))?;
    Ok(Value::Addr(region, loc))
}

/// Builds a DAG: a chain of `depth` pair cells where both components point
/// at the *same* child — linear in cells, exponential in paths. The heap
/// `examples/sharing.rs` collects.
///
/// # Errors
///
/// Fails if `region` does not exist.
pub fn synth_dag(mem: &mut Memory, region: RegionName, depth: u32) -> Result<Value> {
    let mut cur = Value::Int(1);
    for _ in 0..depth {
        let loc = mem.put(region, Value::pair(cur.clone(), cur))?;
        cur = Value::Addr(region, loc);
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_gc_lang::memory::{GrowthPolicy, MemConfig};

    fn mem() -> Memory {
        Memory::new(MemConfig {
            region_budget: 1 << 20,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        })
    }

    #[test]
    fn copies_a_tree_exactly() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 4).unwrap();
        let before = m.region(r).unwrap().words();
        let (to, roots, stats) = collect(&mut m, &[root]).unwrap();
        assert!(!m.has_region(r));
        assert_eq!(m.region(to).unwrap().words(), before);
        assert_eq!(stats.objects_copied, 15, "2^4 - 1 pair cells");
        assert_eq!(stats.sharing_hits, 0);
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn garbage_is_not_copied() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 3).unwrap();
        // Unreachable garbage.
        synth_tree(&mut m, r, 5).unwrap();
        let (_, _, stats) = collect(&mut m, &[root]).unwrap();
        assert_eq!(stats.objects_copied, 7);
    }

    #[test]
    fn sharing_is_preserved() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_dag(&mut m, r, 20).unwrap();
        let (_, _, stats) = collect(&mut m, &[root]).unwrap();
        // 20 cells, each reachable along two edges; one copy each.
        assert_eq!(stats.objects_copied, 20);
        assert!(stats.sharing_hits > 0);
    }

    #[test]
    fn multiple_roots_share_the_forwarding_table() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 3).unwrap();
        let (_, roots, stats) = collect(&mut m, &[root.clone(), root]).unwrap();
        assert_eq!(stats.objects_copied, 7, "second root is fully shared");
        assert_eq!(roots[0], roots[1]);
    }

    #[test]
    fn code_addresses_survive_unchanged() {
        let mut m = mem();
        let r = m.alloc_region();
        let cd_ref = Value::Addr(ps_gc_lang::syntax::CD, 0);
        let loc = m
            .put(r, Value::pair(cd_ref.clone(), Value::Int(2)))
            .unwrap();
        let (_, roots, _) = collect(&mut m, &[Value::Addr(r, loc)]).unwrap();
        let Value::Addr(to, l2) = roots[0] else {
            panic!()
        };
        match m.get(to, l2).unwrap() {
            Value::Pair(a, _) => assert_eq!(**a, cd_ref),
            other => panic!("bad copy {other:?}"),
        }
    }

    #[test]
    fn dangling_addresses_error() {
        let mut m = mem();
        let r = m.alloc_region();
        let bad = Value::Addr(RegionName(99), 0);
        let loc = m.put(r, bad).unwrap();
        assert!(collect(&mut m, &[Value::Addr(r, loc)]).is_err());
    }
}
