//! Typechecker for the source language.
//!
//! Synthesis-directed: every binder is annotated, so types are inferred
//! bottom-up with no unification. One environment serves the whole pass:
//! each binder extends it in place and restores the shadowed entry on the
//! way out ([`ps_ir::scope`]), so checking is linear in the program.

use std::collections::HashMap;
use std::fmt;

use ps_ir::{scoped, Symbol};

use crate::syntax::{Expr, SrcProgram, SrcTy};

/// A source type error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

type TResult<T> = Result<T, TypeError>;

/// Infers the type of an expression under the given environment.
///
/// The binders of `e` extend `env` for their extent only; on return (`Err`
/// included) `env` is as it was passed.
///
/// # Errors
///
/// Returns a [`TypeError`] naming the mismatch.
pub fn infer(env: &mut HashMap<Symbol, SrcTy>, e: &Expr) -> TResult<SrcTy> {
    match e {
        Expr::Int(_) => Ok(SrcTy::Int),
        Expr::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| TypeError(format!("unbound variable {x}"))),
        Expr::Bin(op, a, b) => {
            expect(env, a, &SrcTy::Int, &format!("left operand of {op}"))?;
            expect(env, b, &SrcTy::Int, &format!("right operand of {op}"))?;
            Ok(SrcTy::Int)
        }
        Expr::If0(c, t, f) => {
            expect(env, c, &SrcTy::Int, "if0 condition")?;
            let tt = infer(env, t)?;
            let ft = infer(env, f)?;
            if tt != ft {
                return Err(TypeError(format!(
                    "if0 branches disagree: {tt} versus {ft}"
                )));
            }
            Ok(tt)
        }
        Expr::Pair(a, b) => Ok(SrcTy::prod(infer(env, a)?, infer(env, b)?)),
        Expr::Proj(i, a) => match infer(env, a)? {
            SrcTy::Prod(x, y) => Ok(if *i == 1 { (*x).clone() } else { (*y).clone() }),
            other => Err(TypeError(format!("projection of non-pair type {other}"))),
        },
        Expr::Lam {
            param,
            param_ty,
            body,
        } => {
            let ret = scoped(env, *param, param_ty.clone(), |env| infer(env, body))?;
            Ok(SrcTy::arrow(param_ty.clone(), ret))
        }
        Expr::App(f, a) => match infer(env, f)? {
            SrcTy::Arrow(dom, cod) => {
                let at = infer(env, a)?;
                if at != *dom {
                    return Err(TypeError(format!(
                        "argument type {at} does not match parameter type {dom}"
                    )));
                }
                Ok((*cod).clone())
            }
            other => Err(TypeError(format!(
                "application of non-function type {other}"
            ))),
        },
        Expr::Let { x, rhs, body } => {
            let rt = infer(env, rhs)?;
            scoped(env, *x, rt, |env| infer(env, body))
        }
    }
}

fn expect(env: &mut HashMap<Symbol, SrcTy>, e: &Expr, want: &SrcTy, what: &str) -> TResult<()> {
    let got = infer(env, e)?;
    if &got == want {
        Ok(())
    } else {
        Err(TypeError(format!("{what} has type {got}, expected {want}")))
    }
}

/// Builds the top-level environment of a program (its function
/// signatures).
pub fn top_env(p: &SrcProgram) -> HashMap<Symbol, SrcTy> {
    p.defs.iter().map(|d| (d.name, d.ty())).collect()
}

/// Checks a whole program: each definition's body against its declared
/// return type, and the main expression at type `int`.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
pub fn check_program(p: &SrcProgram) -> TResult<()> {
    let mut env = top_env(p);
    let mut names = std::collections::HashSet::new();
    for d in &p.defs {
        if !names.insert(d.name) {
            return Err(TypeError(format!("duplicate function {}", d.name)));
        }
        let got = scoped(&mut env, d.param, d.param_ty.clone(), |env| {
            infer(env, &d.body)
        })?;
        if got != d.ret_ty {
            return Err(TypeError(format!(
                "function {} declares return type {} but its body has type {got}",
                d.name, d.ret_ty
            )));
        }
    }
    expect(&mut env, &p.main, &SrcTy::Int, "main expression")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_program};

    fn infer_str(src: &str) -> TResult<SrcTy> {
        infer(&mut HashMap::new(), &parse_expr(src).unwrap())
    }

    #[test]
    fn literals() {
        assert_eq!(infer_str("42").unwrap(), SrcTy::Int);
    }

    #[test]
    fn pairs_and_projections() {
        assert_eq!(
            infer_str("(1, (2, 3))").unwrap(),
            SrcTy::prod(SrcTy::Int, SrcTy::prod(SrcTy::Int, SrcTy::Int))
        );
        assert_eq!(infer_str("fst (1, 2)").unwrap(), SrcTy::Int);
        assert!(infer_str("fst 1").is_err());
    }

    #[test]
    fn lambdas_and_application() {
        assert_eq!(
            infer_str("fn (x : int) => x + 1").unwrap(),
            SrcTy::arrow(SrcTy::Int, SrcTy::Int)
        );
        assert_eq!(infer_str("(fn (x : int) => x + 1) 2").unwrap(), SrcTy::Int);
        assert!(infer_str("(fn (x : int) => x) (1, 2)").is_err());
        assert!(infer_str("1 2").is_err());
    }

    #[test]
    fn if0_branches_must_agree() {
        assert!(infer_str("if0 0 then 1 else (1, 2)").is_err());
        assert_eq!(infer_str("if0 0 then 1 else 2").unwrap(), SrcTy::Int);
        assert!(infer_str("if0 (1, 1) then 1 else 2").is_err());
    }

    #[test]
    fn unbound_variable() {
        assert!(infer_str("mystery").is_err());
    }

    #[test]
    fn scopes_end_where_their_binders_do() {
        // A checker whose environment forgot to restore would let `y`
        // escape its `let`, or a parameter its function.
        assert!(infer_str("(let y = 1 in y) + y").is_err());
        assert!(infer_str("(fn (z : int) => z) 1 + z").is_err());
        let p = parse_program("fun f (q : int) : int = q\n q").unwrap();
        assert!(check_program(&p).is_err());
        // The restore puts a shadowed binding back, not just removes.
        assert_eq!(
            infer_str("let x = (1, 2) in (let x = 5 in x) + fst x").unwrap(),
            SrcTy::Int
        );
    }

    #[test]
    fn recursive_program_checks() {
        let p =
            parse_program("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 5")
                .unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn mutual_recursion_checks() {
        let p = parse_program(
            "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
             fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
             even 10",
        )
        .unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn wrong_return_type_rejected() {
        let p = parse_program("fun f (x : int) : int * int = x\n 0").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn main_must_be_int() {
        let p = parse_program("(1, 2)").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn duplicate_function_names_rejected() {
        let p = parse_program("fun f (x : int) : int = x\nfun f (x : int) : int = x\n 0").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn higher_order_functions() {
        let p = parse_program(
            "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
             (twice (fn (y : int) => y + 3)) 1",
        )
        .unwrap();
        check_program(&p).unwrap();
    }
}
