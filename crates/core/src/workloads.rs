//! Shared workload builders for the paper-claim gates and the benchmark.
//!
//! The paper has no empirical tables; its quantitative claims live in
//! prose (copy cost tracking live data, sharing loss without forwarding
//! pointers, the CPS continuation region of §6.1, minor collections that
//! spare the old generation). `tests/paper_claims.rs` pins each claim's
//! counters on the mutator programs built here, and the benchmark in
//! `perfbench/` times the same programs, so both share one set of
//! builders. Compile them with
//! [`RunOptions::compile_program`](crate::RunOptions::compile_program).
//!
//! Source programs with *deep live structure* need types of matching depth
//! (the source language is simply typed), so the builders construct source
//! ASTs directly rather than going through the parser.

use ps_ir::symbol::gensym;
use ps_lambda::syntax::{BinOp, Expr, FunDef, SrcProgram, SrcTy};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, RunOptions};

    #[test]
    fn dag_programs_agree_with_the_oracle() {
        let p = live_dag_churn(6, 60);
        let expected = ps_lambda::eval::run_program(&p, 1_000_000).unwrap();
        for collector in [Collector::Basic, Collector::Forwarding] {
            let opts = RunOptions::builder()
                .collector(collector)
                .budget(128)
                .build();
            let run = opts
                .compile_program(p.clone())
                .unwrap()
                .run_with(&opts)
                .unwrap();
            assert_eq!(run.result, expected);
            assert!(run.stats.collections > 0, "{collector}");
        }
    }

    #[test]
    fn tree_ty_and_expr_agree() {
        let p = SrcProgram {
            defs: vec![],
            main: leftmost(tree_expr(5), 5),
        };
        assert_eq!(ps_lambda::eval::run_program(&p, 100_000).unwrap(), 1);
        RunOptions::default().compile_program(p).unwrap();
        assert_eq!(tree_ty(2), SrcTy::prod(tree_ty(1), tree_ty(1)));
    }
}
