//! Typechecker for λCLOS.
//!
//! Environments: `Θ` for existential type variables, `Γ` for value
//! variables, plus the `letrec` function signatures. Types compare up to
//! α-equivalence. One context serves a whole program: binders extend it in
//! place and restore what they shadowed on the way out
//! ([`ps_ir::scope`]), so checking is linear in the program.

use std::collections::{HashMap, HashSet};
use std::fmt;

use ps_ir::{scoped, Scope, Symbol};

use crate::syntax::{cty_alpha_eq, CExp, CProgram, CTy, CVal};

/// A λCLOS type error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosTypeError(pub String);

impl fmt::Display for ClosTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λCLOS type error: {}", self.0)
    }
}

impl std::error::Error for ClosTypeError {}

type TResult<T> = Result<T, ClosTypeError>;

/// The checking context.
///
/// The checker extends it in place and hands it back as it found it.
#[derive(Clone, Debug, Default)]
pub struct ClosCtx {
    /// Function signatures (the `letrec` environment).
    pub funs: HashMap<Symbol, CTy>,
    /// Type variables in scope.
    pub theta: HashSet<Symbol>,
    /// Value variables.
    pub gamma: HashMap<Symbol, CTy>,
}

/// Type formation under `Θ`.
fn wf(theta: &mut HashSet<Symbol>, ty: &CTy) -> TResult<()> {
    match ty {
        CTy::Int => Ok(()),
        CTy::Var(t) => {
            if theta.contains(t) {
                Ok(())
            } else {
                Err(ClosTypeError(format!("unbound type variable {t}")))
            }
        }
        CTy::Prod(a, b) => {
            wf(theta, a)?;
            wf(theta, b)
        }
        CTy::Arrow(a) => wf(theta, a),
        CTy::Exist(t, body) => scoped(theta, *t, (), |theta| wf(theta, body)),
    }
}

/// Infers the type of a value.
///
/// # Errors
///
/// Fails on unbound variables and ill-typed packages.
pub fn infer_val(ctx: &mut ClosCtx, v: &CVal) -> TResult<CTy> {
    match v {
        CVal::Int(_) => Ok(CTy::Int),
        CVal::Var(x) => ctx
            .gamma
            .get(x)
            .cloned()
            .ok_or_else(|| ClosTypeError(format!("unbound variable {x}"))),
        CVal::FnName(f) => ctx
            .funs
            .get(f)
            .cloned()
            .ok_or_else(|| ClosTypeError(format!("unknown function {f}"))),
        CVal::Pair(a, b) => Ok(CTy::prod(infer_val(ctx, a)?, infer_val(ctx, b)?)),
        CVal::Pack {
            tvar,
            witness,
            val,
            body_ty,
        } => {
            wf(&mut ctx.theta, witness)?;
            scoped(&mut ctx.theta, *tvar, (), |theta| wf(theta, body_ty))?;
            let expected = body_ty.subst(*tvar, witness);
            let got = infer_val(ctx, val)?;
            if !cty_alpha_eq(&got, &expected) {
                return Err(ClosTypeError(format!(
                    "package payload has type {got}, expected {expected}"
                )));
            }
            Ok(CTy::exist(*tvar, body_ty.clone()))
        }
    }
}

/// Checks a term.
///
/// # Errors
///
/// Fails on the first rule violation, with a short description.
pub fn check_exp(ctx: &mut ClosCtx, e: &CExp) -> TResult<()> {
    match e {
        CExp::Let { x, v, body } => {
            let t = infer_val(ctx, v)?;
            check_in(ctx, *x, t, body)
        }
        CExp::LetProj { x, i, v, body } => match infer_val(ctx, v)? {
            CTy::Prod(a, b) => {
                let t = if *i == 1 { (*a).clone() } else { (*b).clone() };
                check_in(ctx, *x, t, body)
            }
            other => Err(ClosTypeError(format!(
                "projection of non-pair type {other}"
            ))),
        },
        CExp::LetPrim { x, a, b, body, .. } => {
            for (what, v) in [("left", a), ("right", b)] {
                match infer_val(ctx, v)? {
                    CTy::Int => {}
                    other => {
                        return Err(ClosTypeError(format!(
                            "{what} operand of primitive has type {other}, expected Int"
                        )))
                    }
                }
            }
            check_in(ctx, *x, CTy::Int, body)
        }
        CExp::App(f, a) => match infer_val(ctx, f)? {
            CTy::Arrow(dom) => {
                let at = infer_val(ctx, a)?;
                if cty_alpha_eq(&at, &dom) {
                    Ok(())
                } else {
                    Err(ClosTypeError(format!(
                        "argument has type {at}, function expects {dom}"
                    )))
                }
            }
            other => Err(ClosTypeError(format!(
                "application of non-function type {other}"
            ))),
        },
        CExp::Open { pkg, tvar, x, body } => match infer_val(ctx, pkg)? {
            CTy::Exist(t0, bty) => {
                if ctx.theta.contains(tvar) {
                    return Err(ClosTypeError(format!("open shadows type variable {tvar}")));
                }
                let opened = bty.subst(t0, &CTy::Var(*tvar));
                ctx.theta.insert(*tvar);
                let verdict = check_in(ctx, *x, opened, body);
                ctx.theta.remove(tvar);
                verdict
            }
            other => Err(ClosTypeError(format!(
                "open of non-existential type {other}"
            ))),
        },
        CExp::Halt(v) => match infer_val(ctx, v)? {
            CTy::Int => Ok(()),
            other => Err(ClosTypeError(format!("halt on type {other}, expected Int"))),
        },
        CExp::If0 { v, zero, nonzero } => {
            match infer_val(ctx, v)? {
                CTy::Int => {}
                other => {
                    return Err(ClosTypeError(format!(
                        "if0 condition has type {other}, expected Int"
                    )))
                }
            }
            check_exp(ctx, zero)?;
            check_exp(ctx, nonzero)
        }
    }
}

/// Checks `body` under `Γ, x : t`, then takes the binding back.
fn check_in(ctx: &mut ClosCtx, x: Symbol, t: CTy, body: &CExp) -> TResult<()> {
    let shadowed = ctx.gamma.bind(x, t);
    let verdict = check_exp(ctx, body);
    ctx.gamma.unbind(x, shadowed);
    verdict
}

/// Checks a whole program: each function body under its parameter (code is
/// closed — only the `letrec` names and the parameter are in scope), then
/// the main term.
///
/// # Errors
///
/// Fails on the first ill-typed definition or term.
pub fn check_program(p: &CProgram) -> TResult<()> {
    // One context for the whole program: between definitions its `Θ` and
    // `Γ` are back to empty, so each body sees only its parameter.
    let mut ctx = ClosCtx::default();
    for f in &p.funs {
        if ctx.funs.insert(f.name, f.ty()).is_some() {
            return Err(ClosTypeError(format!("duplicate function {}", f.name)));
        }
    }
    for f in &p.funs {
        wf(&mut ctx.theta, &f.param_ty)
            .map_err(|e| ClosTypeError(format!("{} (parameter of {})", e.0, f.name)))?;
        check_in(&mut ctx, f.param, f.param_ty.clone(), &f.body)
            .map_err(|e| ClosTypeError(format!("{} (in body of {})", e.0, f.name)))?;
    }
    check_exp(&mut ctx, &p.main).map_err(|e| ClosTypeError(format!("{} (in main)", e.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::CFun;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn halt_int() {
        check_exp(&mut ClosCtx::default(), &CExp::Halt(CVal::Int(1))).unwrap();
    }

    #[test]
    fn halt_pair_fails() {
        let e = CExp::Halt(CVal::pair(CVal::Int(1), CVal::Int(2)));
        assert!(check_exp(&mut ClosCtx::default(), &e).is_err());
    }

    #[test]
    fn simple_function_program() {
        // letrec f = λ(x:Int). halt x in f(42)
        let f = CFun {
            name: s("f"),
            param: s("x"),
            param_ty: CTy::Int,
            body: CExp::Halt(CVal::Var(s("x"))),
        };
        let p = CProgram {
            funs: vec![f],
            main: CExp::App(CVal::FnName(s("f")), CVal::Int(42)),
        };
        check_program(&p).unwrap();
    }

    #[test]
    fn function_bodies_are_closed() {
        // A body referencing a main-term variable must fail.
        let f = CFun {
            name: s("g"),
            param: s("x"),
            param_ty: CTy::Int,
            body: CExp::Halt(CVal::Var(s("outer"))),
        };
        let p = CProgram {
            funs: vec![f],
            main: CExp::let_(s("outer"), CVal::Int(1), CExp::Halt(CVal::Int(0))),
        };
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn packages_and_open() {
        // A closure-shaped package ⟨t=Int, (f, 7) : ((t×Int)→0) × t⟩.
        let t = s("t");
        let f = CFun {
            name: s("code"),
            param: s("p"),
            param_ty: CTy::prod(CTy::Int, CTy::Int),
            body: CExp::Halt(CVal::Int(0)),
        };
        let pkg = CVal::Pack {
            tvar: t,
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::pair(CVal::FnName(s("code")), CVal::Int(7))),
            body_ty: CTy::prod(CTy::arrow(CTy::prod(CTy::Var(t), CTy::Int)), CTy::Var(t)),
        };
        // open pkg as ⟨t,p⟩ in let c = π1 p in let env = π2 p in
        // let arg = (env, 1) in c(arg)
        let body = CExp::Open {
            pkg,
            tvar: s("topen"),
            x: s("p"),
            body: std::rc::Rc::new(CExp::let_proj(
                s("c"),
                1,
                CVal::Var(s("p")),
                CExp::let_proj(
                    s("env"),
                    2,
                    CVal::Var(s("p")),
                    CExp::let_(
                        s("arg"),
                        CVal::pair(CVal::Var(s("env")), CVal::Int(1)),
                        CExp::App(CVal::Var(s("c")), CVal::Var(s("arg"))),
                    ),
                ),
            )),
        };
        let p = CProgram {
            funs: vec![f],
            main: body,
        };
        check_program(&p).unwrap();
    }

    #[test]
    fn package_payload_mismatch() {
        let t = s("t");
        let pkg = CVal::Pack {
            tvar: t,
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::pair(CVal::Int(1), CVal::Int(2))),
            body_ty: CTy::Var(t),
        };
        assert!(infer_val(&mut ClosCtx::default(), &pkg).is_err());
    }

    #[test]
    fn hidden_witness_does_not_leak() {
        // After open, the payload has an abstract type; halting on it fails.
        let t = s("t");
        let pkg = CVal::Pack {
            tvar: t,
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::Int(1)),
            body_ty: CTy::Var(t),
        };
        let e = CExp::Open {
            pkg,
            tvar: s("u"),
            x: s("x"),
            body: std::rc::Rc::new(CExp::Halt(CVal::Var(s("x")))),
        };
        assert!(check_exp(&mut ClosCtx::default(), &e).is_err());
    }

    #[test]
    fn if0_and_prims() {
        let e = CExp::LetPrim {
            x: s("n"),
            op: BinOp::Sub,
            a: CVal::Int(3),
            b: CVal::Int(3),
            body: std::rc::Rc::new(CExp::If0 {
                v: CVal::Var(s("n")),
                zero: std::rc::Rc::new(CExp::Halt(CVal::Int(1))),
                nonzero: std::rc::Rc::new(CExp::Halt(CVal::Int(0))),
            }),
        };
        check_exp(&mut ClosCtx::default(), &e).unwrap();
    }

    #[test]
    fn opened_type_variable_stays_in_its_arm() {
        // `⟨t = u, 1⟩ : ∃t.Int` is well formed only where `u` is bound, so
        // it is fine inside the `open` that binds `u` and must be rejected
        // in the other `if0` arm: a context that forgot to restore `Θ`
        // after the first arm would accept it.
        let uses_u = || CVal::Pack {
            tvar: s("t"),
            witness: CTy::Var(s("u")),
            val: std::rc::Rc::new(CVal::Int(1)),
            body_ty: CTy::Int,
        };
        let pkg = CVal::Pack {
            tvar: s("t"),
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::Int(1)),
            body_ty: CTy::Var(s("t")),
        };
        let open_then = |body: CExp| CExp::Open {
            pkg: pkg.clone(),
            tvar: s("u"),
            x: s("y"),
            body: std::rc::Rc::new(body),
        };
        let use_u = || CExp::let_(s("z"), uses_u(), CExp::Halt(CVal::Int(0)));
        check_exp(&mut ClosCtx::default(), &open_then(use_u())).unwrap();
        let leak = CExp::If0 {
            v: CVal::Int(0),
            zero: std::rc::Rc::new(open_then(CExp::Halt(CVal::Int(0)))),
            nonzero: std::rc::Rc::new(use_u()),
        };
        let mut ctx = ClosCtx::default();
        assert!(check_exp(&mut ctx, &leak).is_err());
        assert!(ctx.theta.is_empty() && ctx.gamma.is_empty());
    }

    use crate::syntax::BinOp;
}
