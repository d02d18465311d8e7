//! Reference evaluator for the source language.
//!
//! A direct, environment-based, call-by-value big-step evaluator. It is the
//! *observational oracle* for the whole pipeline: a compiled λGC program —
//! through any number of garbage collections — must halt with the same
//! integer this evaluator produces.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use ps_ir::Symbol;

use crate::syntax::{Expr, FunDef, SrcProgram};

/// A runtime value.
#[derive(Clone, Debug)]
pub enum SrcValue {
    Int(i64),
    Pair(Rc<SrcValue>, Rc<SrcValue>),
    /// A closure: parameter, body, captured environment.
    Closure {
        param: Symbol,
        body: Rc<Expr>,
        env: Env,
    },
    /// A top-level (recursive) function.
    TopFun(usize),
}

impl SrcValue {
    /// Extracts an integer.
    ///
    /// # Errors
    ///
    /// Fails if the value is not an integer.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            SrcValue::Int(n) => Ok(*n),
            other => Err(EvalError(format!("expected an integer, got {other:?}"))),
        }
    }
}

/// The evaluation environment (persistently shared).
pub type Env = Rc<HashMap<Symbol, SrcValue>>;

/// A runtime error (impossible for well-typed terms; exists because the
/// evaluator is independent of the typechecker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// An evaluator for a fixed program (holding its top-level definitions).
pub struct Evaluator<'a> {
    defs: &'a [FunDef],
    /// Remaining call budget, to keep property tests total.
    fuel: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with the given call-budget.
    pub fn new(defs: &'a [FunDef], fuel: u64) -> Evaluator<'a> {
        Evaluator { defs, fuel }
    }

    fn lookup_def(&self, name: Symbol) -> Option<usize> {
        self.defs.iter().position(|d| d.name == name)
    }

    /// Evaluates an expression.
    ///
    /// # Errors
    ///
    /// Fails on unbound variables, type-incorrect operations (impossible
    /// after typechecking) or fuel exhaustion.
    pub fn eval(&mut self, env: &Env, e: &Expr) -> Result<SrcValue, EvalError> {
        match e {
            Expr::Int(n) => Ok(SrcValue::Int(*n)),
            Expr::Var(x) => {
                if let Some(v) = env.get(x) {
                    Ok(v.clone())
                } else if let Some(i) = self.lookup_def(*x) {
                    Ok(SrcValue::TopFun(i))
                } else {
                    Err(EvalError(format!("unbound variable {x}")))
                }
            }
            Expr::Bin(op, a, b) => {
                let a = self.eval(env, a)?.as_int()?;
                let b = self.eval(env, b)?.as_int()?;
                Ok(SrcValue::Int(op.apply(a, b)))
            }
            Expr::If0(c, t, f) => {
                if self.eval(env, c)?.as_int()? == 0 {
                    self.eval(env, t)
                } else {
                    self.eval(env, f)
                }
            }
            Expr::Pair(a, b) => Ok(SrcValue::Pair(
                Rc::new(self.eval(env, a)?),
                Rc::new(self.eval(env, b)?),
            )),
            Expr::Proj(i, a) => match self.eval(env, a)? {
                SrcValue::Pair(x, y) => Ok(if *i == 1 { (*x).clone() } else { (*y).clone() }),
                other => Err(EvalError(format!("projection of non-pair {other:?}"))),
            },
            Expr::Lam { param, body, .. } => Ok(SrcValue::Closure {
                param: *param,
                body: body.clone(),
                env: env.clone(),
            }),
            Expr::App(f, a) => {
                let fv = self.eval(env, f)?;
                let av = self.eval(env, a)?;
                self.apply(fv, av)
            }
            Expr::Let { x, rhs, body } => {
                let rv = self.eval(env, rhs)?;
                let mut env2 = (**env).clone();
                env2.insert(*x, rv);
                self.eval(&Rc::new(env2), body)
            }
        }
    }

    /// Applies a function value.
    ///
    /// # Errors
    ///
    /// Fails when `f` is not a function or the fuel budget is exhausted.
    pub fn apply(&mut self, f: SrcValue, arg: SrcValue) -> Result<SrcValue, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError("out of fuel".to_string()));
        }
        self.fuel -= 1;
        match f {
            SrcValue::Closure { param, body, env } => {
                let mut env2 = (*env).clone();
                env2.insert(param, arg);
                self.eval(&Rc::new(env2), &body)
            }
            SrcValue::TopFun(i) => {
                let def = &self.defs[i];
                let mut env2 = HashMap::new();
                env2.insert(def.param, arg);
                let body = def.body.clone();
                self.eval(&Rc::new(env2), &body)
            }
            other => Err(EvalError(format!("application of non-function {other:?}"))),
        }
    }
}

/// Runs a whole program to an integer result.
///
/// # Errors
///
/// Fails on runtime errors (impossible for typechecked programs), a
/// non-integer result, or fuel exhaustion.
///
/// # Examples
///
/// ```
/// let p = ps_lambda::parse::parse_program(
///     "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 5",
/// )
/// .unwrap();
/// assert_eq!(ps_lambda::eval::run_program(&p, 10_000).unwrap(), 120);
/// ```
pub fn run_program(p: &SrcProgram, fuel: u64) -> Result<i64, EvalError> {
    let mut ev = Evaluator::new(&p.defs, fuel);
    let env: Env = Rc::new(HashMap::new());
    ev.eval(&env, &p.main)?.as_int()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn run(src: &str) -> i64 {
        let p = parse_program(src).unwrap();
        crate::typecheck::check_program(&p).unwrap();
        run_program(&p, 1_000_000).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("1 + 2 * 3"), 7);
        assert_eq!(run("10 - 3 - 2"), 5, "subtraction is left associative");
    }

    #[test]
    fn pairs() {
        assert_eq!(run("fst (1, 2) + snd (3, 4)"), 5);
        assert_eq!(run("snd (fst ((1, 2), 3))"), 2);
    }

    #[test]
    fn let_shadowing() {
        assert_eq!(run("let x = 1 in let x = x + 1 in x"), 2);
    }

    #[test]
    fn factorial() {
        assert_eq!(
            run("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 10"),
            3_628_800
        );
    }

    #[test]
    fn fibonacci() {
        assert_eq!(
            run("fun fib (n : int) : int = if0 n then 0 else if0 n - 1 then 1 else fib (n - 1) + fib (n - 2)\n fib 15"),
            610
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            run("fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
                 fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
                 even 10 + odd 10"),
            1
        );
    }

    #[test]
    fn closures_capture() {
        assert_eq!(run("let y = 10 in (fn (x : int) => x + y) 5"), 15);
    }

    #[test]
    fn higher_order() {
        assert_eq!(
            run(
                "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
                 (twice (fn (y : int) => y * 2)) 3"
            ),
            12
        );
    }

    #[test]
    fn church_style_pairs_of_functions() {
        assert_eq!(
            run(
                "fun applyp (p : (int -> int) * int) : int = (fst p) (snd p)\n\
                 applyp ((fn (x : int) => x + 1), 41)"
            ),
            42
        );
    }

    #[test]
    fn fuel_exhaustion() {
        let p = parse_program("fun loop (n : int) : int = loop n\n loop 0").unwrap();
        assert!(run_program(&p, 100).is_err());
    }
}
