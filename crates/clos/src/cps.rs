//! CPS conversion (the first phase of §3's pipeline).
//!
//! The conversion stays *inside* the source language: a CPS'd program is
//! again a well-typed source program in which every function takes a pair
//! `(argument, continuation)` and "returns" only by invoking the
//! continuation; the answer type is `int`. This gives a free correctness
//! oracle — the reference evaluator must produce the same result before and
//! after conversion — before closure conversion leaves the source language.
//!
//! Types translate as
//!
//! ```text
//! ⟦int⟧   = int
//! ⟦τ × σ⟧ = ⟦τ⟧ × ⟦σ⟧
//! ⟦τ → σ⟧ = (⟦τ⟧ × (⟦σ⟧ → int)) → int
//! ```
//!
//! The implementation is one-pass with meta-continuations (after
//! Danvy–Filinski, paper ref. 7), so no administrative β-redexes are
//! produced; `if0` reifies a join-point continuation to avoid duplicating
//! contexts. Unlike Danvy–Filinski's conversion, it never passes a
//! continuation variable through unchanged, so it produces η-redexes: a
//! call in tail position wraps the caller's continuation `k` as
//! `λr. k r`, and an `if0` in tail position reifies its join as
//! `λjv. k jv`. Each tail call therefore allocates continuation closures
//! chained to the caller's, and tail calls are not space-safe: a
//! tail-recursive loop keeps heap live in proportion to its iteration
//! count.
//!
//! # Scopes
//!
//! A meta-continuation builds the code for the *rest* of the enclosing
//! expression, and it runs inside the extent of any `let` its subject
//! expression ends in: converting `(let x = 5 in x) + x` emits the second
//! `x` under the first's `let x = 5`. In the output, a source `let`'s scope
//! runs on to the end of its function body, past the end of its source
//! scope. Two things follow.
//!
//! * A source `let` binder whose name is already bound earlier in the same
//!   definition — by an outer `let` it shadows, a sibling `let`, a
//!   parameter or a top-level function — is renamed to a fresh symbol, or
//!   it would capture the continuation's occurrences of the other binding
//!   (`(let x = 1 in x) + (let x = 2 in x)` would add the second `x` to
//!   itself). Parameters need no renaming: a converted `fn`'s body is
//!   closed off from every continuation but its own. Binders whose names
//!   are new keep them.
//! * Conversion cannot keep one mutable environment either: the
//!   continuation would see the inner binding. Instead a linear pre-pass
//!   (`Scan`) resolves every node once, in its own scope, and conversion
//!   reads the results by the node's pre-order index.

use std::collections::HashMap;
use std::fmt;

use ps_ir::symbol::gensym;
use ps_ir::{scoped, Symbol, SymbolSet};

use ps_lambda::syntax::{Expr, FunDef, SrcProgram, SrcTy};

/// An error raised during CPS conversion (only on ill-typed input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpsError(pub String);

impl fmt::Display for CpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CPS conversion error: {}", self.0)
    }
}

impl std::error::Error for CpsError {}

type CResult<T> = Result<T, CpsError>;

/// The CPS type translation `⟦τ⟧`.
pub fn cps_ty(ty: &SrcTy) -> SrcTy {
    match ty {
        SrcTy::Int => SrcTy::Int,
        SrcTy::Prod(a, b) => SrcTy::prod(cps_ty(a), cps_ty(b)),
        SrcTy::Arrow(a, b) => SrcTy::arrow(
            SrcTy::prod(cps_ty(a), SrcTy::arrow(cps_ty(b), SrcTy::Int)),
            SrcTy::Int,
        ),
    }
}

/// The meta-continuation: receives the CPS *value* for the converted
/// expression and that expression's **source** type.
type MetaK<'a> = &'a mut dyn FnMut(Expr, &SrcTy) -> CResult<Expr>;

/// One node of a source expression, as [`Scan`] resolved it.
struct Node {
    /// Pre-order index one past this node's subtree: where its next
    /// sibling's entry is.
    end: usize,
    /// The node's source type.
    ty: SrcTy,
    /// The emitted name of a renamed `let` binder, or of a variable that
    /// one binds.
    renamed: Option<Symbol>,
}

/// The pre-pass environment: source name ↦ emitted name and source type.
/// It holds the top-level functions throughout.
type Env = HashMap<Symbol, (Symbol, SrcTy)>;

/// The pre-pass: one walk over an expression in a single scoped
/// environment, recording a `Node` per node in pre-order.
///
/// It computes types rather than checking them (its input has passed the
/// source typechecker), failing only where a type it needs does not exist.
#[derive(Default)]
struct Scan {
    /// Every binder name of the current definition met so far.
    seen: SymbolSet,
    nodes: Vec<Node>,
}

impl Scan {
    /// Resolves `e` and its subtree under `env`, appending their entries.
    fn expr(&mut self, env: &mut Env, e: &Expr) -> CResult<SrcTy> {
        let at = self.nodes.len();
        self.nodes.push(Node {
            end: at,
            ty: SrcTy::Int,
            renamed: None,
        });
        let mut renamed = None;
        let ty = match e {
            Expr::Int(_) => SrcTy::Int,
            Expr::Var(x) => {
                let (emitted, ty) = env
                    .get(x)
                    .ok_or_else(|| CpsError(format!("unbound variable {x}")))?;
                renamed = (emitted != x).then_some(*emitted);
                ty.clone()
            }
            Expr::Bin(_, a, b) => {
                self.expr(env, a)?;
                self.expr(env, b)?;
                SrcTy::Int
            }
            Expr::If0(c, t, f) => {
                self.expr(env, c)?;
                let ty = self.expr(env, t)?;
                self.expr(env, f)?;
                ty
            }
            Expr::Pair(a, b) => SrcTy::prod(self.expr(env, a)?, self.expr(env, b)?),
            Expr::Proj(i, a) => match self.expr(env, a)? {
                SrcTy::Prod(x, y) => (*if *i == 1 { x } else { y }).clone(),
                other => return Err(CpsError(format!("projection of non-pair type {other}"))),
            },
            Expr::Lam {
                param,
                param_ty,
                body,
            } => {
                self.seen.insert(*param);
                let binding = (*param, param_ty.clone());
                let ret = scoped(env, *param, binding, |env| self.expr(env, body))?;
                SrcTy::arrow(param_ty.clone(), ret)
            }
            Expr::App(f, a) => match self.expr(env, f)? {
                SrcTy::Arrow(_, cod) => {
                    self.expr(env, a)?;
                    (*cod).clone()
                }
                other => {
                    return Err(CpsError(format!(
                        "application of non-function type {other}"
                    )))
                }
            },
            Expr::Let { x, rhs, body } => {
                let rt = self.expr(env, rhs)?;
                let taken = !self.seen.insert(*x) || env.contains_key(x);
                renamed = taken.then(|| x.fresh());
                let binding = (renamed.unwrap_or(*x), rt);
                scoped(env, *x, binding, |env| self.expr(env, body))?
            }
        };
        self.nodes[at] = Node {
            end: self.nodes.len(),
            ty: ty.clone(),
            renamed,
        };
        Ok(ty)
    }
}

/// Converts one expression, the node at pre-order index `at` of `nodes`.
fn cps_exp(nodes: &[Node], at: usize, e: &Expr, k: MetaK) -> CResult<Expr> {
    // Children sit at `at + 1`, then each at its elder sibling's `end`.
    let first = at + 1;
    let second = || nodes[first].end;
    match e {
        Expr::Int(n) => k(Expr::Int(*n), &SrcTy::Int),
        Expr::Var(x) => {
            let node = &nodes[at];
            k(Expr::Var(node.renamed.unwrap_or(*x)), &node.ty)
        }
        Expr::Bin(op, a, b) => {
            let op = *op;
            cps_exp(nodes, first, a, &mut |va, _| {
                cps_exp(nodes, second(), b, &mut |vb, _| {
                    let x = gensym("prim");
                    let body = k(Expr::Var(x), &SrcTy::Int)?;
                    Ok(Expr::let_(
                        x,
                        Expr::Bin(op, va.clone().into(), vb.into()),
                        body,
                    ))
                })
            })
        }
        Expr::Pair(a, b) => cps_exp(nodes, first, a, &mut |va, ta| {
            let ta = ta.clone();
            cps_exp(nodes, second(), b, &mut |vb, tb| {
                let x = gensym("pair");
                let ty = SrcTy::prod(ta.clone(), tb.clone());
                let body = k(Expr::Var(x), &ty)?;
                Ok(Expr::let_(x, Expr::pair(va.clone(), vb), body))
            })
        }),
        Expr::Proj(i, a) => {
            let i = *i;
            cps_exp(nodes, first, a, &mut |va, ta| {
                let comp = match ta {
                    SrcTy::Prod(x, y) => {
                        if i == 1 {
                            (**x).clone()
                        } else {
                            (**y).clone()
                        }
                    }
                    other => return Err(CpsError(format!("projection of non-pair type {other}"))),
                };
                let x = gensym("proj");
                let body = k(Expr::Var(x), &comp)?;
                Ok(Expr::let_(x, Expr::Proj(i, va.into()), body))
            })
        }
        Expr::If0(c, t, f) => {
            // The (common) branch type, resolved by the pre-pass.
            let branch_ty = &nodes[at].ty;
            let then_at = second();
            let else_at = nodes[then_at].end;
            cps_exp(nodes, first, c, &mut |vc, _| {
                let jk = gensym("join");
                let xj = gensym("jv");
                // The join continuation carries a CPS-world value.
                let jk_body = k(Expr::Var(xj), branch_ty)?;
                let jk_lam = Expr::Lam {
                    param: xj,
                    param_ty: cps_ty(branch_ty),
                    body: jk_body.into(),
                };
                let call_join = |v: Expr| Expr::app(Expr::Var(jk), v);
                let then_e = cps_exp(nodes, then_at, t, &mut |v, _| Ok(call_join(v)))?;
                let else_e = cps_exp(nodes, else_at, f, &mut |v, _| Ok(call_join(v)))?;
                Ok(Expr::let_(
                    jk,
                    jk_lam,
                    Expr::If0(vc.into(), then_e.into(), else_e.into()),
                ))
            })
        }
        Expr::Lam {
            param,
            param_ty,
            body,
        } => {
            let ret_ty = &nodes[first].ty;
            let p = gensym("clo");
            let kv = gensym("k");
            let inner = cps_exp(nodes, first, body, &mut |v, _| {
                Ok(Expr::app(Expr::Var(kv), v))
            })?;
            let cps_lam = Expr::Lam {
                param: p,
                param_ty: SrcTy::prod(cps_ty(param_ty), SrcTy::arrow(cps_ty(ret_ty), SrcTy::Int)),
                body: Expr::let_(
                    *param,
                    Expr::Proj(1, Expr::Var(p).into()),
                    Expr::let_(kv, Expr::Proj(2, Expr::Var(p).into()), inner),
                )
                .into(),
            };
            let src_ty = SrcTy::arrow(param_ty.clone(), ret_ty.clone());
            k(cps_lam, &src_ty)
        }
        Expr::App(f, a) => cps_exp(nodes, first, f, &mut |vf, tf| {
            let cod = match tf {
                SrcTy::Arrow(_, c) => (**c).clone(),
                other => {
                    return Err(CpsError(format!(
                        "application of non-function type {other}"
                    )))
                }
            };
            cps_exp(nodes, second(), a, &mut |va, _| {
                let r = gensym("ret");
                let body = k(Expr::Var(r), &cod)?;
                let cont = Expr::Lam {
                    param: r,
                    param_ty: cps_ty(&cod),
                    body: body.into(),
                };
                Ok(Expr::app(vf.clone(), Expr::pair(va, cont)))
            })
        }),
        Expr::Let { x, rhs, body } => {
            let x = nodes[at].renamed.unwrap_or(*x);
            cps_exp(nodes, first, rhs, &mut |v, _| {
                let inner = cps_exp(nodes, second(), body, k)?;
                Ok(Expr::let_(x, v, inner))
            })
        }
    }
}

/// CPS-converts a whole program.
///
/// Every definition `fun f (x : τ) : σ = e` becomes
/// `fun f (p : ⟦τ⟧ × (⟦σ⟧ → int)) : int = …`; the main expression is run
/// with the identity continuation.
///
/// # Errors
///
/// Fails only on ill-typed input (run
/// [`ps_lambda::typecheck::check_program`] first for a better message).
pub fn cps_program(p: &SrcProgram) -> CResult<SrcProgram> {
    // The top-level functions keep their names; conversion emits them
    // verbatim, so the CPS'd program refers to the CPS'd functions.
    let mut env: Env = p.defs.iter().map(|d| (d.name, (d.name, d.ty()))).collect();
    let mut scan = Scan::default();
    let mut defs = Vec::with_capacity(p.defs.len());
    for d in &p.defs {
        scan.nodes.clear();
        scan.seen.clear();
        scan.seen.insert(d.param);
        let binding = (d.param, d.param_ty.clone());
        scoped(&mut env, d.param, binding, |env| scan.expr(env, &d.body))?;
        let pk = gensym("parg");
        let kv = gensym("k");
        let inner = cps_exp(&scan.nodes, 0, &d.body, &mut |v, _| {
            Ok(Expr::app(Expr::Var(kv), v))
        })?;
        let body = Expr::let_(
            d.param,
            Expr::Proj(1, Expr::Var(pk).into()),
            Expr::let_(kv, Expr::Proj(2, Expr::Var(pk).into()), inner),
        );
        defs.push(FunDef {
            name: d.name,
            param: pk,
            param_ty: SrcTy::prod(
                cps_ty(&d.param_ty),
                SrcTy::arrow(cps_ty(&d.ret_ty), SrcTy::Int),
            ),
            ret_ty: SrcTy::Int,
            body,
        });
    }
    scan.nodes.clear();
    scan.seen.clear();
    scan.expr(&mut env, &p.main)?;
    let main = cps_exp(&scan.nodes, 0, &p.main, &mut |v, _| Ok(v))?;
    Ok(SrcProgram { defs, main })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lambda::eval::run_program;
    use ps_lambda::parse::parse_program;
    use ps_lambda::typecheck;

    /// Source and CPS'd program must agree, and the CPS'd program must
    /// still typecheck.
    fn roundtrip(src: &str) -> i64 {
        let p = parse_program(src).unwrap();
        typecheck::check_program(&p).unwrap();
        let expected = run_program(&p, 1_000_000).unwrap();
        let q = cps_program(&p).unwrap();
        typecheck::check_program(&q).unwrap_or_else(|e| panic!("CPS output ill-typed: {e}\n{q:?}"));
        let got = run_program(&q, 10_000_000).unwrap();
        assert_eq!(got, expected, "CPS changed the result for {src}");
        got
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(roundtrip("1 + 2 * 3"), 7);
    }

    #[test]
    fn pairs() {
        assert_eq!(roundtrip("fst (1, 2) + snd (3, 4)"), 5);
    }

    #[test]
    fn conditionals() {
        assert_eq!(roundtrip("if0 0 then 10 else 20"), 10);
        assert_eq!(roundtrip("if0 1 then 10 else 20"), 20);
        assert_eq!(roundtrip("if0 2 - 2 then 1 + 1 else 9"), 2);
    }

    #[test]
    fn lets() {
        assert_eq!(roundtrip("let x = 4 in let y = x * x in y - x"), 12);
    }

    #[test]
    fn lambdas() {
        assert_eq!(roundtrip("(fn (x : int) => x + 1) 41"), 42);
        assert_eq!(roundtrip("let y = 10 in (fn (x : int) => x + y) 5"), 15);
    }

    #[test]
    fn recursion() {
        assert_eq!(
            roundtrip("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 6"),
            720
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            roundtrip(
                "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
                 fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
                 even 9"
            ),
            0
        );
    }

    #[test]
    fn higher_order() {
        assert_eq!(
            roundtrip(
                "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
                 (twice (fn (y : int) => y * 2)) 5"
            ),
            20
        );
    }

    #[test]
    fn functions_in_pairs() {
        assert_eq!(
            roundtrip(
                "fun applyp (p : (int -> int) * int) : int = (fst p) (snd p)\n\
                 applyp ((fn (x : int) => x + 1), 41)"
            ),
            42
        );
    }

    #[test]
    fn shadowing_lets_do_not_capture_the_continuation() {
        // The continuation of `(let x = 5 in x)` converts the second `x`
        // inside that `let`: the inner binder must not capture it.
        assert_eq!(roundtrip("let x = 1 in (let x = 5 in x) + x"), 6);
        assert_eq!(roundtrip("let x = (1, 2) in (let x = 5 in x) + fst x"), 6);
        assert_eq!(
            roundtrip("fun f (x : int) : int = (let x = 5 in x) + x\n f 1"),
            6
        );
        assert_eq!(
            roundtrip("fun g (y : int) : int = y\n (let g = 2 in g) + g 3"),
            5
        );
        assert_eq!(
            roundtrip("let x = 1 in (if0 (let x = 0 in x) then x else 7) + x"),
            2
        );
        // Sibling lets shadow nothing in the source, but the first one's
        // scope in the output covers the second and the addition.
        assert_eq!(roundtrip("(let x = 1 in x) + (let x = 2 in x)"), 3);
        assert_eq!(
            roundtrip(
                "(let a = let a = 1 in fn (a : int) => a + 10 in a) (let a = let a = 2 in a in a)"
            ),
            12
        );
    }

    #[test]
    fn only_shadowing_binders_are_renamed() {
        let binders = |src: &str| {
            let q = cps_program(&parse_program(src).unwrap()).unwrap();
            let mut out = Vec::new();
            let mut e = &q.main;
            while let Expr::Let { x, body, .. } = e {
                out.push(*x);
                e = body;
            }
            out
        };
        let (x, y) = (Symbol::intern("x"), Symbol::intern("y"));
        assert_eq!(binders("let x = 4 in let y = x in y"), vec![x, y]);
        let renamed = binders("let x = 4 in let x = x in x");
        assert_eq!(renamed[0], x);
        assert_ne!(renamed[1], x);
        assert_eq!(renamed[1].base(), "x");
    }

    #[test]
    fn cps_types_translate() {
        let t = SrcTy::arrow(SrcTy::Int, SrcTy::Int);
        // (int × (int → int)) → int
        match cps_ty(&t) {
            SrcTy::Arrow(dom, cod) => {
                assert_eq!(*cod, SrcTy::Int);
                assert!(matches!(&*dom, SrcTy::Prod(..)));
            }
            other => panic!("bad CPS type {other}"),
        }
    }

    #[test]
    fn cps_functions_return_int() {
        let p = parse_program("fun id (x : int * int) : int * int = x\n fst (id (1, 2))").unwrap();
        let q = cps_program(&p).unwrap();
        for d in &q.defs {
            assert_eq!(d.ret_ty, SrcTy::Int, "CPS'd functions answer int");
        }
    }
}
