//! Typed closure conversion: CPS'd source programs → λCLOS.
//!
//! Closures become existential packages `∃t.((t × τ) → 0) × t` in the
//! Minamide–Morrisett–Harper style (paper ref. 10) the paper adopts (§3): the
//! environment's type is the hidden witness, the code is a closed top-level
//! function, and application opens the package and passes `(env, arg)`.
//!
//! This is the key departure from Wang–Appel (paper ref. 23), who used Tolmach-style
//! defunctionalization requiring whole-program analysis; packages keep the
//! conversion local, which is what lets the collector be a library (§2.2).
//!
//! Invariants assumed of the input (established by [`crate::cps`]):
//! all applications are tail calls, every intermediate computation is
//! let-bound, and all functions answer `int`.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use ps_ir::symbol::gensym;
use ps_ir::{scoped, Symbol, SymbolSet};

use ps_lambda::syntax::{Expr, SrcProgram, SrcTy};

use crate::syntax::{CExp, CFun, CProgram, CTy, CVal};

/// An error raised during closure conversion (only on inputs violating the
/// CPS invariants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcError(pub String);

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "closure conversion error: {}", self.0)
    }
}

impl std::error::Error for CcError {}

type CResult<T> = Result<T, CcError>;

/// The closure-conversion type translation: arrows (which after CPS all
/// answer `int`) become closure packages.
pub fn cc_ty(ty: &SrcTy) -> CTy {
    match ty {
        SrcTy::Int => CTy::Int,
        SrcTy::Prod(a, b) => CTy::prod(cc_ty(a), cc_ty(b)),
        SrcTy::Arrow(dom, _answer) => CTy::closure(cc_ty(dom)),
    }
}

struct Cc<'a> {
    /// Top-level function names of the CPS'd program (globals, not
    /// captured).
    top: &'a HashMap<Symbol, SrcTy>,
    /// Lifted code blocks.
    lifted: Vec<CFun>,
}

/// Conversion-time environment: in-scope variables with both their source
/// and converted types. One per function body, extended in place at each
/// binder and restored after it.
type Env = HashMap<Symbol, (SrcTy, CTy)>;

impl<'a> Cc<'a> {
    /// Ordered free variables of `e` that are bound in `env` (top-level
    /// names and the expression's own binders excluded).
    fn free_vars(&self, e: &Expr, env: &Env) -> Vec<Symbol> {
        fn go(e: &Expr, bound: &mut SymbolSet, out: &mut SymbolSet) {
            match e {
                Expr::Int(_) => {}
                Expr::Var(x) => {
                    if !bound.contains(x) {
                        out.insert(*x);
                    }
                }
                Expr::Bin(_, a, b) | Expr::Pair(a, b) | Expr::App(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Expr::If0(a, b, c) => {
                    go(a, bound, out);
                    go(b, bound, out);
                    go(c, bound, out);
                }
                Expr::Proj(_, a) => go(a, bound, out),
                Expr::Lam { param, body, .. } => {
                    scoped(bound, *param, (), |bound| go(body, bound, out));
                }
                Expr::Let { x, rhs, body } => {
                    go(rhs, bound, out);
                    scoped(bound, *x, (), |bound| go(body, bound, out));
                }
            }
        }
        let mut seen = SymbolSet::default();
        go(e, &mut SymbolSet::default(), &mut seen);
        let mut out: Vec<Symbol> = seen
            .into_iter()
            .filter(|x| env.contains_key(x) && !self.top.contains_key(x))
            .collect();
        out.sort();
        out
    }

    /// Builds the environment tuple value and its types for a capture list.
    fn env_tuple(&self, fvs: &[Symbol], env: &Env) -> (CVal, CTy, SrcTy) {
        if fvs.is_empty() {
            return (CVal::Int(0), CTy::Int, SrcTy::Int);
        }
        let (last_src, last_cc) = env[fvs.last().unwrap()].clone();
        let mut val = CVal::Var(*fvs.last().unwrap());
        let mut cty = last_cc;
        let mut sty = last_src;
        for x in fvs[..fvs.len() - 1].iter().rev() {
            let (xs, xc) = env[x].clone();
            val = CVal::pair(CVal::Var(*x), val);
            cty = CTy::prod(xc, cty);
            sty = SrcTy::prod(xs, sty);
        }
        (val, cty, sty)
    }

    /// Converts a *value* expression (the CPS invariant guarantees these
    /// are the only expressions in value positions).
    fn value(&mut self, env: &mut Env, e: &Expr) -> CResult<CVal> {
        match e {
            Expr::Int(n) => Ok(CVal::Int(*n)),
            Expr::Var(x) => {
                if env.contains_key(x) {
                    Ok(CVal::Var(*x))
                } else if let Some(fty) = self.top.get(x) {
                    // A reference to a top-level function becomes a closure
                    // with a dummy (integer) environment.
                    let dom = match fty {
                        SrcTy::Arrow(d, _) => cc_ty(d),
                        other => {
                            return Err(CcError(format!(
                                "top-level {x} has non-function type {other}"
                            )))
                        }
                    };
                    let t = gensym("tenv");
                    Ok(CVal::Pack {
                        tvar: t,
                        witness: CTy::Int,
                        val: Rc::new(CVal::pair(CVal::FnName(*x), CVal::Int(0))),
                        body_ty: CTy::prod(CTy::arrow(CTy::prod(CTy::Var(t), dom)), CTy::Var(t)),
                    })
                } else {
                    Err(CcError(format!("unbound variable {x}")))
                }
            }
            Expr::Pair(a, b) => Ok(CVal::pair(self.value(env, a)?, self.value(env, b)?)),
            Expr::Lam {
                param,
                param_ty,
                body,
            } => {
                let fvs = self.free_vars(body, env);
                let fvs: Vec<Symbol> = fvs.into_iter().filter(|v| v != param).collect();
                let (env_val, env_cty, env_sty) = self.env_tuple(&fvs, env);
                // The lifted code block.
                let code_name = gensym("code");
                let p = gensym("cp");
                let envv = gensym("cenv");
                // Inner scope: captured variables + the parameter.
                let mut inner = Env::default();
                for x in &fvs {
                    inner.insert(*x, env[x].clone());
                }
                inner.insert(*param, (param_ty.clone(), cc_ty(param_ty)));
                let mut body_exp = self.tail(&mut inner, body)?;
                // Destructure the environment tuple (right-nested pairs):
                // record the binding chain forwards, then wrap the body
                // innermost-last so each `rest` is in scope for the next.
                enum Bind {
                    Split {
                        x: Symbol,
                        cur: Symbol,
                        rest: Symbol,
                    },
                    Last {
                        x: Symbol,
                        cur: Symbol,
                    },
                }
                if !fvs.is_empty() {
                    let mut cur = envv;
                    let mut chain = Vec::with_capacity(fvs.len());
                    for (i, x) in fvs.iter().enumerate() {
                        if i + 1 == fvs.len() {
                            chain.push(Bind::Last { x: *x, cur });
                        } else {
                            let rest = gensym("cenv");
                            chain.push(Bind::Split { x: *x, cur, rest });
                            cur = rest;
                        }
                    }
                    for b in chain.into_iter().rev() {
                        body_exp = match b {
                            Bind::Last { x, cur } => CExp::let_(x, CVal::Var(cur), body_exp),
                            Bind::Split { x, cur, rest } => CExp::let_proj(
                                x,
                                1,
                                CVal::Var(cur),
                                CExp::let_proj(rest, 2, CVal::Var(cur), body_exp),
                            ),
                        };
                    }
                }
                let code_body = CExp::let_proj(
                    envv,
                    1,
                    CVal::Var(p),
                    CExp::let_proj(*param, 2, CVal::Var(p), body_exp),
                );
                self.lifted.push(CFun {
                    name: code_name,
                    param: p,
                    param_ty: CTy::prod(env_cty.clone(), cc_ty(param_ty)),
                    body: code_body,
                });
                let _ = env_sty;
                let t = gensym("tenv");
                Ok(CVal::Pack {
                    tvar: t,
                    witness: env_cty,
                    val: Rc::new(CVal::pair(CVal::FnName(code_name), env_val)),
                    body_ty: CTy::prod(
                        CTy::arrow(CTy::prod(CTy::Var(t), cc_ty(param_ty))),
                        CTy::Var(t),
                    ),
                })
            }
            other => Err(CcError(format!(
                "expression {other:?} in value position violates the CPS invariant"
            ))),
        }
    }

    /// Converts a tail expression.
    fn tail(&mut self, env: &mut Env, e: &Expr) -> CResult<CExp> {
        match e {
            Expr::Let { x, rhs, body } => {
                // The rhs is one of the CPS-value forms or a primitive.
                match &**rhs {
                    Expr::Bin(op, a, b) => {
                        let av = self.value(env, a)?;
                        let bv = self.value(env, b)?;
                        let body = self.tail_under(env, *x, SrcTy::Int, body)?;
                        Ok(CExp::LetPrim {
                            x: *x,
                            op: *op,
                            a: av,
                            b: bv,
                            body: Rc::new(body),
                        })
                    }
                    Expr::Proj(i, a) => {
                        let av = self.value(env, a)?;
                        let src_ty = self.src_ty_of(env, a)?;
                        let comp = match src_ty {
                            SrcTy::Prod(p, q) => {
                                if *i == 1 {
                                    (*p).clone()
                                } else {
                                    (*q).clone()
                                }
                            }
                            other => {
                                return Err(CcError(format!("projection of non-pair type {other}")))
                            }
                        };
                        let body = self.tail_under(env, *x, comp, body)?;
                        Ok(CExp::let_proj(*x, *i, av, body))
                    }
                    value_form => {
                        let v = self.value(env, value_form)?;
                        let src_ty = self.src_ty_of(env, value_form)?;
                        let body = self.tail_under(env, *x, src_ty, body)?;
                        Ok(CExp::let_(*x, v, body))
                    }
                }
            }
            Expr::App(f, a) => {
                let fv = self.value(env, f)?;
                let av = self.value(env, a)?;
                let pkg = gensym("clo");
                let pay = gensym("cpair");
                let code = gensym("cptr");
                let cenv = gensym("cenv");
                let arg = gensym("carg");
                let tv = gensym("topen");
                // let clo = fv in open clo as ⟨t, p⟩ in
                //   let code = π1 p in let env = π2 p in
                //   let arg = (env, av) in code(arg)
                Ok(CExp::let_(
                    pkg,
                    fv,
                    CExp::Open {
                        pkg: CVal::Var(pkg),
                        tvar: tv,
                        x: pay,
                        body: Rc::new(CExp::let_proj(
                            code,
                            1,
                            CVal::Var(pay),
                            CExp::let_proj(
                                cenv,
                                2,
                                CVal::Var(pay),
                                CExp::let_(
                                    arg,
                                    CVal::pair(CVal::Var(cenv), av),
                                    CExp::App(CVal::Var(code), CVal::Var(arg)),
                                ),
                            ),
                        )),
                    },
                ))
            }
            Expr::If0(c, t, f) => {
                let cv = self.value(env, c)?;
                Ok(CExp::If0 {
                    v: cv,
                    zero: Rc::new(self.tail(env, t)?),
                    nonzero: Rc::new(self.tail(env, f)?),
                })
            }
            // A plain value in tail position is the program's answer.
            Expr::Int(_) | Expr::Var(_) => {
                let v = self.value(env, e)?;
                Ok(CExp::Halt(v))
            }
            other => Err(CcError(format!(
                "expression {other:?} in tail position violates the CPS invariant"
            ))),
        }
    }

    /// Converts the tail expression `body` in the scope of `x : ty`.
    fn tail_under(&mut self, env: &mut Env, x: Symbol, ty: SrcTy, body: &Expr) -> CResult<CExp> {
        let cty = cc_ty(&ty);
        scoped(env, x, (ty, cty), |env| self.tail(env, body))
    }

    /// The source type of a CPS-value expression.
    fn src_ty_of(&mut self, env: &Env, e: &Expr) -> CResult<SrcTy> {
        match e {
            Expr::Int(_) => Ok(SrcTy::Int),
            Expr::Var(x) => env
                .get(x)
                .map(|(s, _)| s.clone())
                .or_else(|| self.top.get(x).cloned())
                .ok_or_else(|| CcError(format!("unbound variable {x}"))),
            Expr::Pair(a, b) => Ok(SrcTy::prod(
                self.src_ty_of(env, a)?,
                self.src_ty_of(env, b)?,
            )),
            Expr::Lam { param_ty, body, .. } => {
                // CPS'd lambdas always answer int.
                let _ = body;
                Ok(SrcTy::arrow(param_ty.clone(), SrcTy::Int))
            }
            other => Err(CcError(format!("no source type for non-value {other:?}"))),
        }
    }
}

/// Closure-converts a CPS'd program into λCLOS.
///
/// # Errors
///
/// Fails if the input violates the CPS invariants (see module docs).
pub fn cc_program(p: &SrcProgram) -> CResult<CProgram> {
    let top: HashMap<Symbol, SrcTy> = p.defs.iter().map(|d| (d.name, d.ty())).collect();
    let mut cc = Cc {
        top: &top,
        lifted: Vec::new(),
    };
    let mut funs = Vec::new();
    for d in &p.defs {
        // Uniform calling convention: every top-level function takes
        // (dummy-env × converted-parameter).
        let pf = gensym("fp");
        let mut env = Env::default();
        env.insert(d.param, (d.param_ty.clone(), cc_ty(&d.param_ty)));
        let body = cc.tail(&mut env, &d.body)?;
        funs.push(CFun {
            name: d.name,
            param: pf,
            param_ty: CTy::prod(CTy::Int, cc_ty(&d.param_ty)),
            body: CExp::let_proj(d.param, 2, CVal::Var(pf), body),
        });
    }
    let main = cc.tail(&mut Env::default(), &p.main)?;
    funs.extend(cc.lifted);
    Ok(CProgram { funs, main })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cps::cps_program;
    use crate::eval;
    use crate::tyck;
    use ps_lambda::parse::parse_program;

    /// Full front-end: parse → typecheck → CPS → closure-convert →
    /// typecheck λCLOS → run, comparing with the source evaluator.
    fn pipeline(src: &str) -> i64 {
        let p = parse_program(src).unwrap();
        ps_lambda::typecheck::check_program(&p).unwrap();
        let expected = ps_lambda::eval::run_program(&p, 1_000_000).unwrap();
        let cps = cps_program(&p).unwrap();
        let clos = cc_program(&cps).unwrap();
        tyck::check_program(&clos)
            .unwrap_or_else(|e| panic!("λCLOS output ill-typed for {src}: {e}"));
        let got = eval::run_program(&clos, 10_000_000).unwrap();
        assert_eq!(
            got, expected,
            "closure conversion changed the result of {src}"
        );
        got
    }

    #[test]
    fn arithmetic() {
        assert_eq!(pipeline("1 + 2 * 3"), 7);
    }

    #[test]
    fn pairs_and_projections() {
        assert_eq!(pipeline("fst (1, 2) + snd (3, 4)"), 5);
        assert_eq!(pipeline("snd (fst ((1, 2), 3))"), 2);
    }

    #[test]
    fn conditionals() {
        assert_eq!(pipeline("if0 0 then 10 else 20"), 10);
        assert_eq!(pipeline("if0 7 then 10 else 20"), 20);
    }

    #[test]
    fn closures_capture_environment() {
        assert_eq!(pipeline("let y = 10 in (fn (x : int) => x + y) 5"), 15);
        assert_eq!(
            pipeline("let a = 1 in let b = 2 in let c = 3 in (fn (x : int) => a + b + c + x) 4"),
            10
        );
    }

    #[test]
    fn top_level_recursion() {
        assert_eq!(
            pipeline("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 6"),
            720
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            pipeline(
                "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
                 fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
                 even 8"
            ),
            1
        );
    }

    #[test]
    fn higher_order_and_currying() {
        assert_eq!(
            pipeline(
                "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
                 (twice (fn (y : int) => y * 2)) 5"
            ),
            20
        );
    }

    #[test]
    fn functions_stored_in_pairs() {
        assert_eq!(
            pipeline(
                "fun applyp (p : (int -> int) * int) : int = (fst p) (snd p)\n\
                 applyp ((fn (x : int) => x + 1), 41)"
            ),
            42
        );
    }

    #[test]
    fn heap_heavy_list_as_pairs() {
        // Build a 20-element list of pairs and sum it: exercises data
        // structures through the converted existential machinery.
        assert_eq!(
            pipeline(
                "fun build (n : int) : int * int = if0 n then (0, 0) else \
                   (let rest = build (n - 1) in (n + fst rest, n))\n\
                 fst (build 20)"
            ),
            210
        );
    }

    #[test]
    fn closure_over_closure() {
        assert_eq!(
            pipeline("let add = fn (x : int) => fn (y : int) => x + y in (add 30) 12"),
            42
        );
    }

    #[test]
    fn cc_ty_shapes() {
        // ⟦int → int⟧ after CPS is ((int × (int→int))→int); converted, the
        // outermost becomes a closure package.
        let t = crate::cps::cps_ty(&SrcTy::arrow(SrcTy::Int, SrcTy::Int));
        match cc_ty(&t) {
            CTy::Exist(..) => {}
            other => panic!("expected closure package, got {other}"),
        }
    }

    #[test]
    fn value_invariant_violation_reported() {
        let mut cc = Cc {
            top: &HashMap::new(),
            lifted: Vec::new(),
        };
        let bad = Expr::If0(
            Rc::new(Expr::Int(0)),
            Rc::new(Expr::Int(1)),
            Rc::new(Expr::Int(2)),
        );
        assert!(cc.value(&mut Env::default(), &bad).is_err());
    }
}
