//! Differential tests for the interned tag/type/term/value layer: the
//! memoized, id-keyed normalizers and equality checks in `tags`/`moper`,
//! and the fingerprint-skipping substitution in `subst`, must agree with
//! the pre-refactor recursive implementations kept verbatim in
//! `gc_lang::reference`.
//!
//! Inputs come from byte-tape generators (the `crates/proptest` shim): a
//! tape is decoded into a well-kinded tag or a type, and decoding the same
//! tape twice with different *binder-name prefixes* yields a guaranteed
//! α-equivalent pair that differs only in bound names (and, for region
//! sets, in element order) — exercising the canonicalization paths with
//! known-positive cases, while tags/types from disjoint tapes exercise the
//! negative side.

use proptest::prelude::*;

use scavenger::gc_lang::machine::{Machine, Outcome, Program, SubstMachine};
use scavenger::gc_lang::memory::{GrowthPolicy, MemConfig};
use scavenger::gc_lang::reference::{self, RefSubst};
use scavenger::gc_lang::subst::Subst;
use scavenger::gc_lang::syntax::{
    Dialect, Kind, Op, PrimOp, Region, RegionName, Tag, Term, Ty, Value,
};
use scavenger::gc_lang::tags::{self, Equiv};
use scavenger::gc_lang::{intern, moper};
use scavenger::ir::Symbol;

const DIALECTS: [Dialect; 3] = [Dialect::Basic, Dialect::Forwarding, Dialect::Generational];

/// A cursor over the random byte tape. Exhausted tapes yield zeros, so
/// every tape decodes to *something* (usually small).
struct Tape<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tape<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Tape { bytes, pos: 0 }
    }

    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }
}

/// Deterministic binder names: decoding one tape with prefixes `"x"` and
/// `"y"` produces two trees identical up to bound-name renaming.
struct Names {
    prefix: &'static str,
    counter: u32,
}

impl Names {
    fn fresh(&mut self, class: &str) -> Symbol {
        self.counter += 1;
        Symbol::intern(&format!("{}{}!{}", self.prefix, class, self.counter))
    }
}

fn free_tag_var(b: u8) -> Symbol {
    Symbol::intern(["ft!a", "ft!b"][b as usize % 2])
}

fn free_alpha_var(b: u8) -> Symbol {
    Symbol::intern(["fa!a", "fa!b"][b as usize % 2])
}

/// A region: `cd`, a concrete name, a free region variable, or a bound one.
fn gen_region(tape: &mut Tape, renv: &[Symbol]) -> Region {
    match tape.next() % 4 {
        0 => Region::cd(),
        1 => Region::Name(RegionName(1 + tape.next() as u32 % 3)),
        2 if !renv.is_empty() => {
            let i = tape.next() as usize % renv.len();
            Region::Var(renv[i])
        }
        _ => Region::Var(Symbol::intern(["fr!a", "fr!b"][tape.next() as usize % 2])),
    }
}

/// A well-kinded tag of kind Ω (β-redexes included), mirroring the
/// generator in `crates/gc-lang/tests/tag_props.rs` but with deterministic
/// binder names so α-variant pairs can be produced from one tape.
fn gen_tag(tape: &mut Tape, env: &mut Vec<Symbol>, names: &mut Names, depth: u32) -> Tag {
    if depth == 0 {
        return if env.is_empty() || tape.next().is_multiple_of(2) {
            Tag::Int
        } else {
            let i = tape.next() as usize % env.len();
            Tag::Var(env[i])
        };
    }
    match tape.next() % 8 {
        0 => Tag::Int,
        1 => Tag::Var(free_tag_var(tape.next())),
        2 => {
            if env.is_empty() {
                Tag::Int
            } else {
                let i = tape.next() as usize % env.len();
                Tag::Var(env[i])
            }
        }
        3 => Tag::prod(
            gen_tag(tape, env, names, depth - 1),
            gen_tag(tape, env, names, depth - 1),
        ),
        4 => {
            let n = 1 + tape.next() as usize % 2;
            let args: Vec<Tag> = (0..n)
                .map(|_| gen_tag(tape, env, names, depth - 1))
                .collect();
            Tag::arrow(args)
        }
        5 => {
            let t = names.fresh("t");
            env.push(t);
            let body = gen_tag(tape, env, names, depth - 1);
            env.pop();
            Tag::exist(t, body)
        }
        // A β-redex: (λt.body) arg.
        _ => {
            let t = names.fresh("t");
            env.push(t);
            let body = gen_tag(tape, env, names, depth - 1);
            env.pop();
            let arg = gen_tag(tape, env, names, depth - 1);
            Tag::app(Tag::lam(t, body), arg)
        }
    }
}

/// A type covering every `Ty` constructor: the hard-wired operators over
/// generated tags, all three existentials (with their binders *used* in the
/// body), sums, and `Code`. `mirror` reverses generated region sets — the
/// sets must compare as sets, so a reversed set stays α-equal.
fn gen_ty(
    tape: &mut Tape,
    tenv: &mut Vec<Symbol>,
    renv: &mut Vec<Symbol>,
    aenv: &mut Vec<Symbol>,
    names: &mut Names,
    mirror: bool,
    depth: u32,
) -> Ty {
    let tag = |tape: &mut Tape, names: &mut Names, d: u32| {
        let mut env = tenv.clone();
        gen_tag(tape, &mut env, names, d)
    };
    if depth == 0 {
        return match tape.next() % 3 {
            0 => Ty::Int,
            1 if !aenv.is_empty() => {
                let i = tape.next() as usize % aenv.len();
                Ty::Alpha(aenv[i])
            }
            1 => Ty::Alpha(free_alpha_var(tape.next())),
            _ => Ty::m(gen_region(tape, renv), tag(tape, names, 1)),
        };
    }
    match tape.next() % 13 {
        0 => Ty::Int,
        1 => {
            if !aenv.is_empty() && tape.next().is_multiple_of(2) {
                let i = tape.next() as usize % aenv.len();
                Ty::Alpha(aenv[i])
            } else {
                Ty::Alpha(free_alpha_var(tape.next()))
            }
        }
        2 => Ty::m(gen_region(tape, renv), tag(tape, names, depth)),
        3 => Ty::c(
            gen_region(tape, renv),
            gen_region(tape, renv),
            tag(tape, names, depth),
        ),
        4 => Ty::mgen(
            gen_region(tape, renv),
            gen_region(tape, renv),
            tag(tape, names, depth),
        ),
        5 => Ty::prod(
            gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1),
            gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1),
        ),
        6 => Ty::sum(
            gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1),
            gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1),
        ),
        7 => {
            let inner = gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1);
            if tape.next().is_multiple_of(2) {
                Ty::Left(inner.id())
            } else {
                Ty::Right(inner.id())
            }
        }
        8 => gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1).at(gen_region(tape, renv)),
        9 => {
            let t = names.fresh("bt");
            tenv.push(t);
            let body = gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1);
            tenv.pop();
            // Pair the binder with a use, so renaming it is observable.
            let used = Ty::prod(Ty::m(gen_region(tape, renv), Tag::Var(t)), body);
            Ty::exist_tag(t, Kind::Omega, used)
        }
        10 => {
            let a = names.fresh("ba");
            let mut set = vec![gen_region(tape, renv), gen_region(tape, renv)];
            if mirror {
                set.reverse();
            }
            aenv.push(a);
            let body = gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1);
            aenv.pop();
            Ty::exist_alpha(a, set, Ty::prod(Ty::Alpha(a), body))
        }
        11 => {
            let r = names.fresh("br");
            let mut bound = vec![gen_region(tape, renv), gen_region(tape, renv)];
            if mirror {
                bound.reverse();
            }
            renv.push(r);
            let body = gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1);
            renv.pop();
            Ty::exist_rgn(r, bound, body)
        }
        _ => {
            let t = names.fresh("ct");
            let r = names.fresh("cr");
            tenv.push(t);
            renv.push(r);
            let n = 1 + tape.next() as usize % 2;
            let args: Vec<Ty> = (0..n)
                .map(|_| gen_ty(tape, tenv, renv, aenv, names, mirror, depth - 1))
                .collect();
            renv.pop();
            tenv.pop();
            Ty::code([(t, Kind::Omega)], [r], args)
        }
    }
}

fn tag_from(bytes: &[u8], prefix: &'static str) -> Tag {
    let mut tape = Tape::new(bytes);
    let mut names = Names { prefix, counter: 0 };
    gen_tag(&mut tape, &mut Vec::new(), &mut names, 4)
}

fn ty_from(bytes: &[u8], prefix: &'static str, mirror: bool) -> Ty {
    let mut tape = Tape::new(bytes);
    let mut names = Names { prefix, counter: 0 };
    gen_ty(
        &mut tape,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
        &mut names,
        mirror,
        4,
    )
}

fn free_val_var(b: u8) -> Symbol {
    Symbol::intern(["fx!a", "fx!b"][b as usize % 2])
}

/// Binder environments for all four namespaces, threaded through the
/// term/value generators.
#[derive(Default)]
struct Envs {
    tenv: Vec<Symbol>,
    renv: Vec<Symbol>,
    aenv: Vec<Symbol>,
    xenv: Vec<Symbol>,
}

/// A value covering every constructor programs build (packages included;
/// code literals are load-time-only, so they are not generated).
fn gen_value(tape: &mut Tape, e: &mut Envs, names: &mut Names, depth: u32) -> Value {
    if depth == 0 {
        return match tape.next() % 3 {
            0 => Value::Int(i64::from(tape.next())),
            1 if !e.xenv.is_empty() => {
                let i = tape.next() as usize % e.xenv.len();
                Value::Var(e.xenv[i])
            }
            _ => Value::Var(free_val_var(tape.next())),
        };
    }
    match tape.next() % 10 {
        0 => Value::Int(i64::from(tape.next())),
        1 => {
            if !e.xenv.is_empty() && tape.next().is_multiple_of(2) {
                let i = tape.next() as usize % e.xenv.len();
                Value::Var(e.xenv[i])
            } else {
                Value::Var(free_val_var(tape.next()))
            }
        }
        2 => Value::Addr(
            RegionName(1 + tape.next() as u32 % 3),
            tape.next() as u32 % 4,
        ),
        3 => Value::pair(
            gen_value(tape, e, names, depth - 1),
            gen_value(tape, e, names, depth - 1),
        ),
        4 => {
            let t = names.fresh("vt");
            let tag = gen_tag(tape, &mut e.tenv, names, depth - 1);
            let val = gen_value(tape, e, names, depth - 1).id();
            e.tenv.push(t);
            let body_ty = gen_ty(
                tape,
                &mut e.tenv,
                &mut e.renv,
                &mut e.aenv,
                names,
                false,
                depth - 1,
            );
            e.tenv.pop();
            Value::PackTag {
                tvar: t,
                kind: Kind::Omega,
                tag: tag.id(),
                val,
                body_ty: body_ty.id(),
            }
        }
        5 => {
            let a = names.fresh("va");
            let regions = [gen_region(tape, &e.renv), gen_region(tape, &e.renv)];
            let witness = gen_ty(
                tape,
                &mut e.tenv,
                &mut e.renv,
                &mut e.aenv,
                names,
                false,
                depth - 1,
            );
            let val = gen_value(tape, e, names, depth - 1).id();
            e.aenv.push(a);
            let body_ty = gen_ty(
                tape,
                &mut e.tenv,
                &mut e.renv,
                &mut e.aenv,
                names,
                false,
                depth - 1,
            );
            e.aenv.pop();
            Value::PackAlpha {
                avar: a,
                regions: regions.into(),
                witness: witness.id(),
                val,
                body_ty: body_ty.id(),
            }
        }
        6 => {
            let r = names.fresh("vr");
            let bound = [gen_region(tape, &e.renv), gen_region(tape, &e.renv)];
            let witness = gen_region(tape, &e.renv);
            let val = gen_value(tape, e, names, depth - 1).id();
            e.renv.push(r);
            let body_ty = gen_ty(
                tape,
                &mut e.tenv,
                &mut e.renv,
                &mut e.aenv,
                names,
                false,
                depth - 1,
            );
            e.renv.pop();
            Value::PackRgn {
                rvar: r,
                bound: bound.into(),
                witness,
                val,
                body_ty: body_ty.id(),
            }
        }
        7 => Value::TagApp(
            gen_value(tape, e, names, depth - 1).id(),
            [gen_tag(tape, &mut e.tenv, names, depth - 1).id()].into(),
            [gen_region(tape, &e.renv)].into(),
        ),
        8 => Value::Inl(gen_value(tape, e, names, depth - 1).id()),
        _ => Value::Inr(gen_value(tape, e, names, depth - 1).id()),
    }
}

fn gen_op(tape: &mut Tape, e: &mut Envs, names: &mut Names, depth: u32) -> Op {
    match tape.next() % 6 {
        0 => Op::Val(gen_value(tape, e, names, depth)),
        1 => Op::Proj(1 + tape.next() % 2, gen_value(tape, e, names, depth)),
        2 => Op::Put(gen_region(tape, &e.renv), gen_value(tape, e, names, depth)),
        3 => Op::Get(gen_value(tape, e, names, depth)),
        4 => Op::Strip(gen_value(tape, e, names, depth)),
        _ => Op::Prim(
            PrimOp::Add,
            gen_value(tape, e, names, depth),
            gen_value(tape, e, names, depth),
        ),
    }
}

/// A term covering every `Term` constructor, with binders in all four
/// namespaces drawn from deterministic prefixed names (so one tape yields
/// α-variant pairs, like [`gen_tag`]/[`gen_ty`]).
fn gen_term(tape: &mut Tape, e: &mut Envs, names: &mut Names, depth: u32) -> Term {
    if depth == 0 {
        return Term::Halt(gen_value(tape, e, names, 1));
    }
    let vd = depth - 1;
    match tape.next() % 15 {
        0 => Term::App {
            f: gen_value(tape, e, names, vd),
            tags: [gen_tag(tape, &mut e.tenv, names, vd).id()].into(),
            regions: vec![gen_region(tape, &e.renv)],
            args: vec![gen_value(tape, e, names, vd)],
        },
        1 => {
            let x = names.fresh("v");
            let op = gen_op(tape, e, names, vd);
            e.xenv.push(x);
            let body = gen_term(tape, e, names, depth - 1);
            e.xenv.pop();
            Term::let_(x, op, body)
        }
        2 => Term::Halt(gen_value(tape, e, names, vd)),
        3 => Term::IfGc {
            rho: gen_region(tape, &e.renv),
            full: gen_term(tape, e, names, depth - 1).id(),
            cont: gen_term(tape, e, names, depth - 1).id(),
        },
        4 => {
            let pkg = gen_value(tape, e, names, vd);
            let t = names.fresh("ot");
            let x = names.fresh("ox");
            e.tenv.push(t);
            e.xenv.push(x);
            let body = gen_term(tape, e, names, depth - 1).id();
            e.xenv.pop();
            e.tenv.pop();
            Term::OpenTag {
                pkg,
                tvar: t,
                x,
                body,
            }
        }
        5 => {
            let pkg = gen_value(tape, e, names, vd);
            let a = names.fresh("oa");
            let x = names.fresh("ox");
            e.aenv.push(a);
            e.xenv.push(x);
            let body = gen_term(tape, e, names, depth - 1).id();
            e.xenv.pop();
            e.aenv.pop();
            Term::OpenAlpha {
                pkg,
                avar: a,
                x,
                body,
            }
        }
        6 => {
            let pkg = gen_value(tape, e, names, vd);
            let r = names.fresh("or");
            let x = names.fresh("ox");
            e.renv.push(r);
            e.xenv.push(x);
            let body = gen_term(tape, e, names, depth - 1).id();
            e.xenv.pop();
            e.renv.pop();
            Term::OpenRgn {
                pkg,
                rvar: r,
                x,
                body,
            }
        }
        7 => {
            let r = names.fresh("lr");
            e.renv.push(r);
            let body = gen_term(tape, e, names, depth - 1).id();
            e.renv.pop();
            Term::LetRegion { rvar: r, body }
        }
        8 => Term::Only {
            regions: vec![gen_region(tape, &e.renv), gen_region(tape, &e.renv)],
            body: gen_term(tape, e, names, depth - 1).id(),
        },
        9 => {
            let tag = gen_tag(tape, &mut e.tenv, names, vd);
            let int_arm = gen_term(tape, e, names, depth - 1).id();
            let arrow_arm = gen_term(tape, e, names, depth - 1).id();
            let (t1, t2) = (names.fresh("tp"), names.fresh("tp"));
            e.tenv.push(t1);
            e.tenv.push(t2);
            let pe = gen_term(tape, e, names, depth - 1).id();
            e.tenv.pop();
            e.tenv.pop();
            let te = names.fresh("te");
            e.tenv.push(te);
            let ee = gen_term(tape, e, names, depth - 1).id();
            e.tenv.pop();
            Term::Typecase {
                tag: tag.into(),
                int_arm,
                arrow_arm,
                prod_arm: (t1, t2, pe),
                exist_arm: (te, ee),
            }
        }
        10 => {
            let scrut = gen_value(tape, e, names, vd);
            let x = names.fresh("il");
            e.xenv.push(x);
            let left = gen_term(tape, e, names, depth - 1).id();
            let right = gen_term(tape, e, names, depth - 1).id();
            e.xenv.pop();
            Term::IfLeft {
                x,
                scrut,
                left,
                right,
            }
        }
        11 => Term::Set {
            dst: gen_value(tape, e, names, vd),
            src: gen_value(tape, e, names, vd),
            body: gen_term(tape, e, names, depth - 1).id(),
        },
        12 => {
            let from = gen_region(tape, &e.renv);
            let to = gen_region(tape, &e.renv);
            let tag = gen_tag(tape, &mut e.tenv, names, vd);
            let v = gen_value(tape, e, names, vd);
            let x = names.fresh("w");
            e.xenv.push(x);
            let body = gen_term(tape, e, names, depth - 1).id();
            e.xenv.pop();
            Term::Widen {
                x,
                from,
                to,
                tag: tag.into(),
                v,
                body,
            }
        }
        13 => Term::IfReg {
            r1: gen_region(tape, &e.renv),
            r2: gen_region(tape, &e.renv),
            eq: gen_term(tape, e, names, depth - 1).id(),
            ne: gen_term(tape, e, names, depth - 1).id(),
        },
        _ => Term::If0 {
            scrut: gen_value(tape, e, names, vd),
            zero: gen_term(tape, e, names, depth - 1).id(),
            nonzero: gen_term(tape, e, names, depth - 1).id(),
        },
    }
}

fn term_from(bytes: &[u8], prefix: &'static str) -> Term {
    let mut tape = Tape::new(bytes);
    let mut names = Names { prefix, counter: 0 };
    gen_term(&mut tape, &mut Envs::default(), &mut names, 4)
}

fn value_from(bytes: &[u8], prefix: &'static str) -> Value {
    let mut tape = Tape::new(bytes);
    let mut names = Names { prefix, counter: 0 };
    gen_value(&mut tape, &mut Envs::default(), &mut names, 4)
}

/// Builds the *same* simultaneous substitution through both paths: the
/// fingerprint-skipping [`Subst`] and the pre-interning [`RefSubst`]. The
/// domain targets the free-variable pools the generators draw from, so
/// hits actually occur; at least one binding is always present.
fn subs_from(bytes: &[u8]) -> (Subst, RefSubst) {
    let mut tape = Tape::new(bytes);
    let mut names = Names {
        prefix: "s",
        counter: 0,
    };
    let mut e = Envs::default();
    let mut fast = Subst::new();
    let mut slow = RefSubst::new();
    if tape.next().is_multiple_of(2) {
        let tau = gen_tag(&mut tape, &mut e.tenv, &mut names, 2);
        let t = free_tag_var(tape.next());
        fast = fast.with_tag(t, tau.clone());
        slow = slow.with_tag(t, tau);
    }
    if tape.next().is_multiple_of(2) {
        let rho = gen_region(&mut tape, &[]);
        let r = Symbol::intern(["fr!a", "fr!b"][tape.next() as usize % 2]);
        fast = fast.with_rgn(r, rho);
        slow = slow.with_rgn(r, rho);
    }
    if tape.next().is_multiple_of(2) {
        let sigma = gen_ty(
            &mut tape,
            &mut e.tenv,
            &mut e.renv,
            &mut e.aenv,
            &mut names,
            false,
            2,
        );
        let a = free_alpha_var(tape.next());
        fast = fast.with_alpha(a, sigma.clone());
        slow = slow.with_alpha(a, sigma);
    }
    let v = gen_value(&mut tape, &mut e, &mut names, 2);
    let x = free_val_var(tape.next());
    fast = fast.with_val(x, v.clone());
    slow = slow.with_val(x, v);
    (fast, slow)
}

// ----- runnable α-variant programs ---------------------------------------

/// Variables live during runnable-program generation, by runtime shape.
#[derive(Default)]
struct RunScope {
    /// Bound to integers.
    ints: Vec<Symbol>,
    /// Bound to `put` addresses of integer pairs.
    addrs: Vec<Symbol>,
    /// Live region binders.
    rgns: Vec<Symbol>,
}

fn int_of(tape: &mut Tape, scope: &RunScope) -> Value {
    if scope.ints.is_empty() || tape.next().is_multiple_of(2) {
        Value::Int(i64::from(tape.next() % 16))
    } else {
        let i = tape.next() as usize % scope.ints.len();
        Value::Var(scope.ints[i])
    }
}

/// A closed, terminating λGC term: `let` chains of arithmetic, region
/// allocation, `put`/`get`/`proj` round-trips, and `if0` splits, ending in
/// `halt`. Fuel strictly decreases, so every tape terminates.
fn gen_run_term(tape: &mut Tape, names: &mut Names, fuel: u32, scope: &mut RunScope) -> Term {
    if fuel == 0 {
        return Term::Halt(int_of(tape, scope));
    }
    match tape.next() % 6 {
        0 => {
            let x = names.fresh("i");
            let op = Op::Prim(PrimOp::Add, int_of(tape, scope), int_of(tape, scope));
            scope.ints.push(x);
            let body = gen_run_term(tape, names, fuel - 1, scope);
            scope.ints.pop();
            Term::let_(x, op, body)
        }
        1 => {
            let r = names.fresh("r");
            scope.rgns.push(r);
            let body = gen_run_term(tape, names, fuel - 1, scope);
            scope.rgns.pop();
            Term::LetRegion {
                rvar: r,
                body: body.id(),
            }
        }
        2 if !scope.rgns.is_empty() => {
            let i = tape.next() as usize % scope.rgns.len();
            let a = names.fresh("a");
            let op = Op::Put(
                Region::Var(scope.rgns[i]),
                Value::pair(int_of(tape, scope), int_of(tape, scope)),
            );
            scope.addrs.push(a);
            let body = gen_run_term(tape, names, fuel - 1, scope);
            scope.addrs.pop();
            Term::let_(a, op, body)
        }
        3 if !scope.addrs.is_empty() => {
            let i = tape.next() as usize % scope.addrs.len();
            let p = names.fresh("p");
            let x = names.fresh("i");
            let proj = 1 + tape.next() % 2;
            scope.ints.push(x);
            let body = gen_run_term(tape, names, fuel - 1, scope);
            scope.ints.pop();
            Term::let_(
                p,
                Op::Get(Value::Var(scope.addrs[i])),
                Term::let_(x, Op::Proj(proj, Value::Var(p)), body),
            )
        }
        4 => Term::If0 {
            scrut: int_of(tape, scope),
            zero: gen_run_term(tape, names, fuel / 2, scope).id(),
            nonzero: gen_run_term(tape, names, fuel / 2, scope).id(),
        },
        _ => {
            let x = names.fresh("i");
            let op = Op::Val(int_of(tape, scope));
            scope.ints.push(x);
            let body = gen_run_term(tape, names, fuel - 1, scope);
            scope.ints.pop();
            Term::let_(x, op, body)
        }
    }
}

fn runnable_from(bytes: &[u8], prefix: &'static str) -> Program {
    let mut tape = Tape::new(bytes);
    let mut names = Names { prefix, counter: 0 };
    let fuel = 3 + u32::from(tape.next() % 8);
    Program {
        dialect: Dialect::Basic,
        code: vec![],
        main: gen_run_term(&mut tape, &mut names, fuel, &mut RunScope::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The memoized normalizer and the reference normalizer agree on the
    /// normal form (up to α — capture-avoiding renames draw different
    /// fresh names) and on the *exact* β-step count, which is what feeds
    /// the machine's `Stats`.
    #[test]
    fn tag_normalization_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let tau = tag_from(&bytes, "x");
        let (mem, mem_steps) = tags::normalize_id(tau.id());
        let mut ref_steps = 0u64;
        let reference_nf = reference::normalize_tag_counted(&tau, &mut ref_steps);
        prop_assert!(tags::is_normal(&mem), "memoized nf not normal: {mem:?}");
        prop_assert!(
            reference::tag_alpha_eq(&mem, &reference_nf),
            "normal forms disagree:\n  input: {tau:?}\n  memo:  {mem:?}\n  ref:   {reference_nf:?}"
        );
        prop_assert_eq!(mem_steps, ref_steps, "β-step counts disagree on {:?}", tau);
    }

    /// Both equality modes agree with the reference on α-variant pairs
    /// (always equal) and on independently generated pairs (usually not).
    #[test]
    fn tag_equality_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let (lo, hi) = bytes.split_at(bytes.len() / 2);
        let a = tag_from(lo, "x");
        let b = tag_from(lo, "y"); // same tape, renamed binders
        let c = tag_from(hi, "x");

        prop_assert!(tags::equiv_id(a.id(), b.id(), Equiv::Syntactic), "α-variant must be equal: {a:?}");
        prop_assert!(reference::tag_alpha_eq(&a, &b));

        for other in [&b, &c] {
            prop_assert_eq!(
                tags::equiv_id(a.id(), other.id(), Equiv::Syntactic),
                reference::tag_alpha_eq(&a, other),
                "Syntactic disagrees on {:?} vs {:?}", &a, other
            );
            prop_assert_eq!(
                tags::equiv_id(a.id(), other.id(), Equiv::Normalizing),
                reference::tag_eq(&a, other),
                "Normalizing disagrees on {:?} vs {:?}", &a, other
            );
        }
    }

    /// The memoized Typerec expansion (`moper::normalize_ty_id`) matches the
    /// reference expansion in every dialect.
    #[test]
    fn ty_normalization_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let sigma = ty_from(&bytes, "x", false);
        for dialect in DIALECTS {
            let mem = moper::normalize_ty_id(sigma.id(), dialect);
            let reference_nf = reference::normalize_ty(&sigma, dialect);
            prop_assert!(
                reference::ty_alpha_eq(&mem, &reference_nf),
                "{dialect:?} normal forms disagree:\n  input: {sigma:?}\n  memo:  {mem:?}\n  ref:   {reference_nf:?}"
            );
        }
    }

    /// The fingerprint-skipping substitution agrees (up to α) with the
    /// pre-interning recursive reference substitution, and is itself
    /// insensitive to α-renaming of its input.
    #[test]
    fn term_substitution_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        let (lo, hi) = bytes.split_at(bytes.len() / 2);
        let t1 = term_from(lo, "x");
        let t2 = term_from(lo, "y"); // same tape, renamed binders
        prop_assert!(
            reference::term_alpha_eq(&t1, &t2),
            "α-variant inputs must be α-equal:\n  {t1:?}\n  {t2:?}"
        );
        let (fast, slow) = subs_from(hi);
        let out_fast = fast.term(&t1);
        let out_slow = slow.term(&t1);
        prop_assert!(
            reference::term_alpha_eq(&out_fast, &out_slow),
            "substitution paths disagree:\n  input: {t1:?}\n  fast:  {out_fast:?}\n  ref:   {out_slow:?}"
        );
        let out_variant = fast.term(&t2);
        prop_assert!(
            reference::term_alpha_eq(&out_fast, &out_variant),
            "fast path is α-sensitive:\n  {out_fast:?}\n  {out_variant:?}"
        );
    }

    /// Same agreement for values (packages carry tags, types, and regions,
    /// so all four namespaces are exercised).
    #[test]
    fn value_substitution_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let (lo, hi) = bytes.split_at(bytes.len() / 2);
        let v1 = value_from(lo, "x");
        let v2 = value_from(lo, "y");
        prop_assert!(reference::value_alpha_eq(&v1, &v2));
        let (fast, slow) = subs_from(hi);
        let out_fast = fast.value(&v1);
        let out_slow = slow.value(&v1);
        prop_assert!(
            reference::value_alpha_eq(&out_fast, &out_slow),
            "substitution paths disagree:\n  input: {v1:?}\n  fast:  {out_fast:?}\n  ref:   {out_slow:?}"
        );
        prop_assert!(reference::value_alpha_eq(&out_fast, &fast.value(&v2)));
    }

    /// A substitution whose domain misses every free variable of the term
    /// is a fingerprint-checked no-op: the *same* id comes back untouched.
    #[test]
    fn fingerprint_miss_returns_same_id(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let t = term_from(&bytes, "x");
        let v = value_from(&bytes, "x");
        let sub = Subst::new()
            .with_tag(Symbol::intern("zz!t"), Tag::Int)
            .with_rgn(Symbol::intern("zz!r"), Region::cd())
            .with_alpha(Symbol::intern("zz!a"), Ty::Int)
            .with_val(Symbol::intern("zz!x"), Value::Int(0));
        let tid = t.id();
        let vid = v.id();
        prop_assert_eq!(sub.term_id(tid), tid, "term id must be skipped unchanged");
        prop_assert_eq!(sub.value_id(vid), vid, "value id must be skipped unchanged");
    }

    /// α-renaming a runnable program is invisible to the substitution
    /// machine: identical results and identical step counts (the skip
    /// fingerprints are name-sets, so this pins down that skipping never
    /// depends on *which* bound names a program uses).
    #[test]
    fn alpha_variant_programs_run_identically(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let p1 = runnable_from(&bytes, "x");
        let p2 = runnable_from(&bytes, "y");
        prop_assert!(reference::term_alpha_eq(&p1.main, &p2.main));
        let config = MemConfig {
            region_budget: 4096,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        };
        let mut m1 = SubstMachine::load(&p1, config);
        let mut m2 = SubstMachine::load(&p2, config);
        let o1 = m1.run(10_000).expect("α-variant 1 runs");
        let o2 = m2.run(10_000).expect("α-variant 2 runs");
        match (o1, o2) {
            (Outcome::Halted(a), Outcome::Halted(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "unexpected outcomes: {a:?} vs {b:?}"),
        }
        prop_assert_eq!(m1.stats(), m2.stats(), "step counts/stats diverge under α-renaming");
    }

    /// α-equivalence (canonical-form ids) and full type equality agree
    /// with the reference on α-variants — including reversed region sets,
    /// which must compare as sets — and on unrelated pairs.
    #[test]
    fn ty_equality_agrees(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let (lo, hi) = bytes.split_at(bytes.len() / 2);
        let a = ty_from(lo, "x", false);
        let b = ty_from(lo, "y", true); // renamed binders, reversed sets
        let c = ty_from(hi, "x", false);

        prop_assert!(intern::ty_alpha_eq(a.id(), b.id()), "α-variant must be equal: {a:?}\n vs {b:?}");
        prop_assert!(reference::ty_alpha_eq(&a, &b));

        for other in [&b, &c] {
            prop_assert_eq!(
                intern::ty_alpha_eq(a.id(), other.id()),
                reference::ty_alpha_eq(&a, other),
                "alpha_eq disagrees on {:?} vs {:?}", &a, other
            );
            for dialect in DIALECTS {
                prop_assert_eq!(
                    moper::ty_eq_id(a.id(), other.id(), dialect),
                    reference::ty_eq(&a, other, dialect),
                    "{:?} ty_eq disagrees on {:?} vs {:?}", dialect, &a, other
                );
            }
        }
    }
}
