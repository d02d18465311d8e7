//! The paper's quantitative claims, as exact counter gates.
//!
//! *Principled Scavenging* has no tables: its quantitative content is prose
//! claims about what the collectors copy, allocate and reclaim. Each test
//! here runs one claim's workload from `scavenger::workloads`, compiled by
//! `RunOptions::compile_program` like any other program, pins every row of
//! its EXPERIMENTS.md table exactly and asserts the shape the paper states.
//! The counters are deterministic and identical on every backend, so the
//! default backend runs them. Each test prints its table in the Markdown
//! EXPERIMENTS.md shows:
//!
//! ```text
//! cargo test --test paper_claims -- --nocapture --test-threads 1
//! ```
//!
//! E7 and E8 are pinned by unit tests (`gc_lang::tags`,
//! `gc_lang::ablation`), and E3's structural claim, that no minor
//! collection copies the old region, by
//! `minor_collections_do_not_copy_old_data` in `crates/trans`. Timing
//! claims belong to the benchmark in `perfbench/`.

use scavenger::gc_lang::machine::Stats;
use scavenger::gc_lang::memory::{GrowthPolicy, MemConfig, Memory};
use scavenger::gc_lang::syntax::Value;
use scavenger::lambda::syntax::SrcProgram;
use scavenger::workloads::{live_dag_churn, live_tree_churn};
use scavenger::{Collector, RunOptions};

/// Compiles the workload `build` returns, links it with `collector`, and
/// returns the statistics of one run at each base region budget.
///
/// Each case runs on its own thread with a 64 MiB stack: the front-end
/// passes recurse once per nesting level, and in a debug build compiling
/// `live_tree_churn(9, _)` overflows the 8 MiB main stack, let alone a test
/// thread's 2 MiB.
fn run_at<const N: usize>(
    build: impl FnOnce() -> SrcProgram + Send + 'static,
    collector: Collector,
    budgets: [usize; N],
) -> [Stats; N] {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let mut opts = RunOptions::new(collector);
            let compiled = opts
                .compile_program(build())
                .expect("the workload compiles");
            budgets.map(|budget| {
                opts.budget = budget;
                compiled.run_with(&opts).expect("the workload runs").stats
            })
        })
        .expect("spawning a case thread")
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// `n` with its digits grouped in threes, as EXPERIMENTS.md writes them.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// E1 (Figs. 4/12): the basic collector copies everything reachable, so
/// the words it copies per collection track the live tree.
#[test]
fn e1_copy_cost_tracks_live_data() {
    println!("| depth | live tree (words) | words/collection (measured) |");
    println!("|---|---|---|");
    let mut per_collection = Vec::new();
    for (depth, want) in [(3, 274), (5, 404), (7, 566), (9, 1_334)] {
        // The live tree plus a little churn headroom, so the first
        // collection comes soon after the tree is built at every depth.
        let budget = (2 << depth) + 96;
        let [stats] = run_at(
            move || live_tree_churn(depth, 120),
            Collector::Basic,
            [budget],
        );
        let live: u64 = 2 * ((1 << depth) - 1); // 2^d − 1 pairs of two words
        let per = stats.kept_words_total / stats.collections;
        println!("| {depth} | {} | {} |", grouped(live), grouped(per));
        assert!(
            per >= live,
            "depth {depth}: a collection copies the live tree"
        );
        assert_eq!(per, want, "depth {depth}");
        per_collection.push(per);
    }
    assert!(
        per_collection.windows(2).all(|w| w[0] < w[1]),
        "the copy rises with the live tree: {per_collection:?}"
    );

    // The rest of each collection's copy is the churn loop's CPS
    // continuation chain: the CPS conversion does not pass a tail call's
    // continuation through, so the chain grows with the churn. Once tail
    // calls are space-safe these rows become a flatness check.
    println!();
    println!("| churn (depth 3) | words/collection (measured) |");
    println!("|---|---|");
    for (churn, want) in [(120, 274), (500, 718), (2_000, 2_215)] {
        let [stats] = run_at(
            move || live_tree_churn(3, churn),
            Collector::Basic,
            [(2 << 3) + 96],
        );
        let per = stats.kept_words_total / stats.collections;
        println!("| {} | {} |", grouped(churn as u64), grouped(per));
        assert_eq!(per, want, "churn {churn}");
    }
}

/// E2 (§7, Fig. 9): the basic collector turns a DAG into a tree, so its
/// copy work grows with the DAG's paths; forwarding copies each cell once.
#[test]
fn e2_forwarding_preserves_sharing() {
    println!("| depth | basic copy (words) | forwarding copy (words) |");
    println!("|---|---|---|");
    let (mut basic, mut forwarding) = (Vec::new(), Vec::new());
    for (depth, want_basic, want_forwarding) in
        [(4, 1_256, 1_192), (8, 1_954, 1_046), (12, 16_492, 978)]
    {
        let copied = |collector| {
            let [stats] = run_at(move || live_dag_churn(depth, 80), collector, [128]);
            stats.kept_words_total
        };
        let (b, f) = (copied(Collector::Basic), copied(Collector::Forwarding));
        println!("| {depth} | {} | {} |", grouped(b), grouped(f));
        assert_eq!((b, f), (want_basic, want_forwarding), "depth {depth}");
        basic.push(b);
        forwarding.push(f);
    }
    assert!(
        basic[2] > 8 * basic[1],
        "basic copies grow with the DAG's paths: {basic:?}"
    );
    let (lo, hi) = (forwarding.iter().min(), forwarding.iter().max());
    assert!(
        4 * hi.unwrap() <= 5 * lo.unwrap(),
        "forwarding copies stay within 25% of each other: {forwarding:?}"
    );
}

/// E3 (§8, Fig. 11): minor collections promote the long-lived tree once,
/// where the basic collector re-copies it at every collection. Collector
/// words are the words allocated at a 160-word budget minus those of the
/// same program at a budget it never fills: copies, promotions and
/// continuation records alike.
#[test]
fn e3_generational_spares_the_old_generation() {
    println!("| depth | basic GC allocation (words) | generational GC allocation (words) |");
    println!("|---|---|---|");
    for (depth, want_basic, want_generational) in
        [(4, 15_460, 7_767), (6, 18_967, 7_543), (8, 16_584, 14_337)]
    {
        let collector_words = |collector| {
            let [tight, roomy] = run_at(
                move || live_tree_churn(depth, 200),
                collector,
                [160, 1 << 28],
            );
            assert_eq!(roomy.collections, 0, "the mutator's own allocation");
            tight.words_allocated - roomy.words_allocated
        };
        let b = collector_words(Collector::Basic);
        let g = collector_words(Collector::Generational);
        println!("| {depth} | {} | {} |", grouped(b), grouped(g));
        assert_eq!((b, g), (want_basic, want_generational), "depth {depth}");
        assert!(g < b, "depth {depth}: generational allocates less");
    }
}

/// E4 (§6.1): the CPS'd copy keeps its continuation stack in a temporary
/// region whose size is bounded by to-space.
#[test]
fn e4_continuation_region_is_bounded_by_to_space() {
    println!(
        "| depth | to-space (words) | continuation region (words) | continuation records | ratio |"
    );
    println!("|---|---|---|---|---|");
    let mut ratios = Vec::new();
    for (depth, want_to, want_cont, want_records) in [
        (4, 78, 396, 68),
        (6, 302, 1_516, 260),
        (8, 1_198, 5_996, 1_028),
    ] {
        let budget = 1 << (depth + 3);
        let [stats] = run_at(
            move || live_tree_churn(depth, 120),
            Collector::Basic,
            [budget],
        );
        // The first collection keeps to-space (Fig. 12's r2) and drops
        // from-space and the continuation region r3, which `gc` creates
        // after r2: of the two dropped regions, the newer one.
        let first = &stats.reclaim_events[0];
        assert_eq!(first.dropped.len(), 2, "depth {depth}: {first:?}");
        let &(_, cont, records) = first.dropped.iter().max_by_key(|d| d.0).unwrap();
        let (to, cont, records) = (first.kept_words as u64, cont as u64, records as u64);
        let ratio = cont as f64 / to as f64;
        println!(
            "| {depth} | {} | {} | {} | {ratio:.2} |",
            grouped(to),
            grouped(cont),
            grouped(records)
        );
        assert_eq!(
            (to, cont, records),
            (want_to, want_cont, want_records),
            "depth {depth}"
        );
        ratios.push(ratio);
    }
    // Linear in to-space: the ratio is a constant that does not grow with
    // the live tree. It is about 5, not 1: the copy pushes one record per
    // component of a pair (copypair1, copypair2) and one per existential
    // payload (copyexist1), not one per object, and a record takes about
    // six words where a pair takes two.
    assert!(ratios.iter().all(|&r| r <= 6.0), "{ratios:?}");
    assert!(ratios.windows(2).all(|w| w[1] <= w[0]), "{ratios:?}");
}

/// E6 (§4.1, §6.4): `only` visits every live region and returns every page
/// of each region it drops, so its work is counted in regions plus pages,
/// whatever the regions hold.
#[test]
fn e6_only_work_is_regions_plus_pages() {
    // Fills `regions` regions with `words` one-word values each, keeps the
    // last, and returns how many regions and pages `only` drops.
    let only = |regions: u64, words: i64| {
        let mut mem = Memory::new(MemConfig {
            region_budget: 1 << 20,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        });
        let last = (0..regions)
            .map(|_| {
                let r = mem.alloc_region();
                for i in 0..words {
                    mem.put(r, Value::Int(i)).expect("put into a live region");
                }
                r
            })
            .last();
        let report = mem.only(last.as_slice());
        (report.dropped.len() as u64, report.freed_pages.len() as u64)
    };
    println!("| live regions | dropped regions | freed pages (1-word regions) | freed pages (600-word regions) |");
    println!("|---|---|---|---|");
    for (regions, want_dropped, want_small, want_large) in
        [(1, 0, 0, 0), (16, 15, 15, 30), (256, 255, 255, 510)]
    {
        let (dropped, small) = only(regions, 1);
        let (dropped_large, large) = only(regions, 600);
        println!("| {regions} | {dropped} | {small} | {large} |");
        assert_eq!(
            (dropped, small, large),
            (want_dropped, want_small, want_large),
            "{regions} regions"
        );
        assert_eq!(dropped_large, dropped, "{regions} regions");
        // One page per 1-word region, two per 600-word region (512-word
        // pages): the pages freed follow the regions dropped.
        assert_eq!((small, large), (dropped, 2 * dropped));
    }
}
