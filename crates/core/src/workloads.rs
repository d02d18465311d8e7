//! Shared workload builders for the E1–E9 experiments.
//!
//! The paper has no empirical tables; its quantitative claims live in
//! prose (sharing loss without forwarding pointers, the CPS continuation
//! region of §6.1, `only` cost of §4.1/§6.4, §2.2.1's type growth). Each
//! claim gets an experiment; this module builds the mutator programs they
//! sweep over. It lives in `scavenger` so the offline examples and the
//! benchmark in `perfbench/` share one set of builders.
//!
//! Source programs with *deep live structure* need types of matching depth
//! (the source language is simply typed), so the builders construct source
//! ASTs directly rather than going through the parser.

use ps_ir::symbol::gensym;
use ps_lambda::syntax::{BinOp, Expr, FunDef, SrcProgram, SrcTy};

use crate::{Collector, Compiled, Pipeline};

/// The type of a complete pair-tree of the given depth.
pub fn tree_ty(depth: u32) -> SrcTy {
    if depth == 0 {
        SrcTy::Int
    } else {
        let t = tree_ty(depth - 1);
        SrcTy::prod(t.clone(), t)
    }
}

/// A literal expression building a complete pair-tree of the given depth
/// (`2^depth − 1` heap cells once allocated).
pub fn tree_expr(depth: u32) -> Expr {
    if depth == 0 {
        Expr::Int(1)
    } else {
        Expr::pair(tree_expr(depth - 1), tree_expr(depth - 1))
    }
}

/// `fst (fst (… t))` — reads the leftmost leaf, keeping the tree live.
pub fn leftmost(mut e: Expr, depth: u32) -> Expr {
    for _ in 0..depth {
        e = Expr::Proj(1, e.into());
    }
    e
}

/// A DAG of the given depth: `let d₀ = 7 in let d₁ = (d₀,d₀) in …` —
/// `depth` heap cells, `2^depth` paths. The body receives the root's
/// variable.
pub fn dag_bindings(depth: u32, body: impl FnOnce(ps_ir::Symbol) -> Expr) -> Expr {
    let syms: Vec<ps_ir::Symbol> = (0..=depth).map(|_| gensym("dag")).collect();
    let mut e = body(syms[depth as usize]);
    for i in (1..=depth as usize).rev() {
        e = Expr::let_(
            syms[i],
            Expr::pair(Expr::Var(syms[i - 1]), Expr::Var(syms[i - 1])),
            e,
        );
    }
    Expr::let_(syms[0], Expr::Int(7), e)
}

/// The standard churn loop: `churn k` makes `k` throwaway pair
/// allocations.
pub fn churn_def() -> FunDef {
    let churn = ps_ir::Symbol::intern("churn");
    let k = ps_ir::Symbol::intern("k");
    let junk = gensym("junk");
    FunDef {
        name: churn,
        param: k,
        param_ty: SrcTy::Int,
        ret_ty: SrcTy::Int,
        body: Expr::If0(
            Expr::Var(k).into(),
            Expr::Int(0).into(),
            Expr::let_(
                junk,
                Expr::pair(Expr::Var(k), Expr::Var(k)),
                Expr::app(
                    Expr::Var(churn),
                    Expr::Bin(BinOp::Sub, Expr::Var(k).into(), Expr::Int(1).into()),
                ),
            )
            .into(),
        ),
    }
}

/// A program that keeps a live tree of `depth` while churning `k`
/// allocations (so collections repeatedly copy the tree), then consumes
/// the tree.
pub fn live_tree_churn(depth: u32, k: i64) -> SrcProgram {
    let t = gensym("tree");
    let z = gensym("z");
    let main = Expr::let_(
        t,
        tree_expr(depth),
        Expr::let_(
            z,
            Expr::app(Expr::Var(ps_ir::Symbol::intern("churn")), Expr::Int(k)),
            Expr::Bin(
                BinOp::Add,
                leftmost(Expr::Var(t), depth).into(),
                Expr::Var(z).into(),
            ),
        ),
    );
    SrcProgram {
        defs: vec![churn_def()],
        main,
    }
}

/// A program that keeps a live DAG of `depth` while churning `k`
/// allocations.
pub fn live_dag_churn(depth: u32, k: i64) -> SrcProgram {
    let main = dag_bindings(depth, |root| {
        let z = gensym("z");
        Expr::let_(
            z,
            Expr::app(Expr::Var(ps_ir::Symbol::intern("churn")), Expr::Int(k)),
            Expr::Bin(
                BinOp::Add,
                leftmost(Expr::Var(root), depth).into(),
                Expr::Var(z).into(),
            ),
        )
    });
    SrcProgram {
        defs: vec![churn_def()],
        main,
    }
}

/// Compiles a source AST with the given collector and base region budget.
pub fn compile_ast(p: &SrcProgram, collector: Collector, budget: usize) -> Compiled {
    let cps = ps_clos::cps::cps_program(p).expect("cps");
    let clos = ps_clos::cc::cc_program(&cps).expect("cc");
    let image = collector.image();
    let program = match collector {
        Collector::Basic => ps_trans::basic::translate(&clos, &image),
        Collector::Forwarding => ps_trans::forwarding::translate(&clos, &image),
        Collector::Generational => ps_trans::generational::translate(&clos, &image),
    }
    .expect("translate");
    let config = Pipeline::new(collector).region_budget(budget).config();
    Compiled::from_parts(collector, config, p.clone(), clos, program)
}

/// Runs a compiled program on the substitution backend and returns its
/// machine statistics. (Backend choice is irrelevant for the statistics —
/// the backends agree bit-for-bit — but the E1–E8 experiments predate the
/// environment machine and are kept on the oracle.)
pub fn run_stats(c: &Compiled) -> ps_gc_lang::machine::Stats {
    let mut m = c.machine();
    match m.run(1_000_000_000).expect("runs") {
        ps_gc_lang::machine::Outcome::Halted(_) => m.stats().clone(),
        other => panic!("abnormal outcome: {other:?}"),
    }
}

/// Total words copied into to-space across all collections of a run — the
/// collector's copy work (two-space collectors; for the generational
/// collector use [`gc_alloc_overhead`], since the kept-word total
/// re-counts the persistent old region at every event).
pub fn copy_work(stats: &ps_gc_lang::machine::Stats) -> u64 {
    stats.kept_words_total
}

/// Words allocated *by the collector* during a run: total allocation with
/// the given budget minus the mutator's own allocation (measured with an
/// effectively infinite budget, where no collection runs). Covers copies,
/// promotions and continuation records uniformly across collectors.
pub fn gc_alloc_overhead(p: &SrcProgram, collector: Collector, budget: usize) -> u64 {
    let with_gc = run_stats(&compile_ast(p, collector, budget)).words_allocated;
    let without = run_stats(&compile_ast(p, collector, 1 << 28)).words_allocated;
    with_gc - without
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_programs_run_and_collect() {
        let p = live_tree_churn(4, 60);
        ps_lambda::typecheck::check_program(&p).unwrap();
        let c = compile_ast(&p, Collector::Basic, 128);
        let stats = run_stats(&c);
        assert!(stats.collections > 0);
    }

    #[test]
    fn dag_programs_agree_with_the_oracle() {
        let p = live_dag_churn(6, 60);
        ps_lambda::typecheck::check_program(&p).unwrap();
        let expected = ps_lambda::eval::run_program(&p, 1_000_000).unwrap();
        for collector in [Collector::Basic, Collector::Forwarding] {
            let c = compile_ast(&p, collector, 128);
            let run = c.run(1_000_000_000).unwrap();
            assert_eq!(run.result, expected);
            assert!(run.stats.collections > 0, "{collector}");
        }
    }

    #[test]
    fn dag_sharing_shows_in_copy_work() {
        // Basic copies the DAG as a tree (≈2^d cells per collection);
        // forwarding copies d cells.
        let p = live_dag_churn(10, 40);
        let basic = copy_work(&run_stats(&compile_ast(&p, Collector::Basic, 128)));
        let fwd = copy_work(&run_stats(&compile_ast(&p, Collector::Forwarding, 128)));
        assert!(
            basic > fwd * 4,
            "expected exponential blowup: basic={basic} forwarding={fwd}"
        );
    }

    #[test]
    fn generational_copies_less_with_long_lived_data() {
        let p = live_tree_churn(6, 200);
        let basic = gc_alloc_overhead(&p, Collector::Basic, 160);
        let gener = gc_alloc_overhead(&p, Collector::Generational, 160);
        assert!(
            gener < basic,
            "generational should copy the long-lived tree once: gen={gener} basic={basic}"
        );
    }

    #[test]
    fn tree_ty_and_expr_agree() {
        let p = SrcProgram {
            defs: vec![],
            main: leftmost(tree_expr(5), 5),
        };
        ps_lambda::typecheck::check_program(&p).unwrap();
        assert_eq!(ps_lambda::eval::run_program(&p, 100_000).unwrap(), 1);
        assert_eq!(tree_ty(2), SrcTy::prod(tree_ty(1), tree_ty(1)));
    }
}
