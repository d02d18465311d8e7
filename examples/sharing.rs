//! Sharing preservation (§7): the basic collector of Fig. 4/12 "does not
//! preserve sharing and thus turns any DAG into a tree"; the forwarding
//! collector of Fig. 9 copies every unique object once.
//!
//! This example builds DAG-shaped heaps of growing depth directly in the
//! region memory and collects them with the untyped meta-level collector
//! (sharing-preserving, like Fig. 9) versus a deliberately share-oblivious
//! copy (like Fig. 4), printing the exponential-versus-linear divergence.
//! It then demonstrates the same effect inside the language by running one
//! program under both certified collectors.
//!
//! ```text
//! cargo run --example sharing
//! ```

use scavenger::collectors::meta;
use scavenger::gc_lang::memory::{GrowthPolicy, MemConfig, Memory};
use scavenger::gc_lang::syntax::{RegionName, Value};
use scavenger::{Collector, PipelineError, RunOptions};

/// A Fig. 4-style copy: no forwarding table, so shared subgraphs are
/// duplicated along every path.
fn copy_no_sharing(mem: &mut Memory, v: &Value, to: RegionName, copied: &mut usize) -> Value {
    match v {
        Value::Addr(nu, loc) if !nu.is_cd() => {
            let stored = mem.get(*nu, *loc).expect("live address").clone();
            let inner = copy_no_sharing(mem, &stored, to, copied);
            *copied += 1;
            let l2 = mem.put(to, inner).expect("to-space alloc");
            Value::Addr(to, l2)
        }
        Value::Pair(a, b) => Value::pair(
            copy_no_sharing(mem, a, to, copied),
            copy_no_sharing(mem, b, to, copied),
        ),
        other => other.clone(),
    }
}

fn main() -> Result<(), PipelineError> {
    println!("DAG of depth d: d pair cells, but 2^d paths to the leaf.\n");
    println!(
        "{:>6} {:>16} {:>16}",
        "depth", "Fig.4 copies", "Fig.9 copies"
    );
    for depth in [4u32, 8, 12, 16, 20] {
        let config = MemConfig {
            region_budget: 1 << 26,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        };
        // Share-oblivious copy.
        let mut m1 = Memory::new(config);
        let r1 = m1.alloc_region();
        let root1 = meta::synth_dag(&mut m1, r1, depth).expect("dag");
        let to1 = m1.alloc_region();
        let mut naive = 0usize;
        copy_no_sharing(&mut m1, &root1, to1, &mut naive);
        // Forwarding copy.
        let mut m2 = Memory::new(config);
        let r2 = m2.alloc_region();
        let root2 = meta::synth_dag(&mut m2, r2, depth).expect("dag");
        let (_, _, stats) = meta::collect(&mut m2, &[root2]).expect("collect");
        println!("{depth:>6} {naive:>16} {:>16}", stats.objects_copied);
    }

    println!("\nThe same effect inside the language: one program, both certified collectors.");
    // Each frame keeps a dup'd (shared) pair live across the recursive
    // call, so collections see a heap full of DAG edges.
    let src = "fun dup (x : int * int) : (int * int) * (int * int) = (x, x)\n\
               fun go (n : int) : int = if0 n then 0 else \
                 (let d = dup ((n, n)) in (let rest = go (n - 1) in fst (fst d) - n + rest))\n go 40";
    for collector in [Collector::Basic, Collector::Forwarding] {
        let opts = RunOptions::builder()
            .collector(collector)
            .budget(96)
            .fuel(200_000_000)
            .build();
        let run = opts.compile(src)?.run_with(&opts)?;
        println!(
            "  {:<11} result={} collections={} words copied to to-space={}",
            collector.to_string(),
            run.result,
            run.stats.collections,
            run.stats.kept_words_total,
        );
    }
    Ok(())
}
