//! Reference (pre-interning) normalization and α-equivalence.
//!
//! These are the straightforward structural-recursion implementations that
//! [`crate::tags`] and [`crate::moper`] used before tags and types were
//! hash-consed: no memo tables, no canonical forms, no free-variable
//! fingerprints — every call walks the whole tree and α-compares with an
//! explicit binder-pairing environment. The crate itself has only the
//! id forms; these owned-tree ports are the oracle they are checked
//! against.
//!
//! Since terms and values were interned too, the module also keeps the
//! pre-interning recursive *substitution* ([`RefSubst`]): every node is
//! rebuilt unconditionally, with no free-variable fingerprints and no
//! same-id short-circuit, plus term/value α-equivalence
//! ([`term_alpha_eq`], [`value_alpha_eq`]) to compare its answers against
//! the fingerprint-skipping [`crate::subst::Subst`] fast path.
//!
//! They are kept (and exported) for one purpose: the differential suite in
//! `tests/intern_agreement.rs` property-checks the memoized, id-keyed fast
//! paths against these slow-but-obviously-correct ports. Nothing in the
//! crate's own pipeline calls them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ps_ir::Symbol;

use crate::subst::Subst;
use crate::syntax::{CodeDef, Dialect, Kind, Op, Region, Tag, Term, Ty, Value};

// ----- tags --------------------------------------------------------------

/// [`crate::tags::normalize_id`] by direct normal-order reduction, no memo.
pub fn normalize_tag(tau: &Tag) -> Tag {
    normalize_tag_counted(tau, &mut 0)
}

/// Like [`normalize_tag`] but counts β-steps, as
/// [`crate::tags::normalize_id`] does.
pub fn normalize_tag_counted(tau: &Tag, steps: &mut u64) -> Tag {
    match tau {
        Tag::Var(_) | Tag::Int | Tag::AnyArrow(_) => tau.clone(),
        Tag::Prod(a, b) => Tag::prod(
            normalize_tag_counted(a, steps),
            normalize_tag_counted(b, steps),
        ),
        Tag::Arrow(args) => Tag::arrow(
            args.iter()
                .map(|a| normalize_tag_counted(a, steps))
                .collect::<Vec<_>>(),
        ),
        Tag::Exist(t, body) => Tag::exist(*t, normalize_tag_counted(body, steps)),
        Tag::Lam(t, body) => Tag::lam(*t, normalize_tag_counted(body, steps)),
        Tag::App(f, a) => {
            let f = normalize_tag_counted(f, steps);
            match f {
                Tag::Lam(t, body) => {
                    *steps += 1;
                    // Normal order: substitute the *unnormalized* argument.
                    let reduced = Subst::one_tag(t, a.node().clone()).tag(body.node());
                    normalize_tag_counted(&reduced, steps)
                }
                _ => Tag::app(f, normalize_tag_counted(a, steps)),
            }
        }
    }
}

fn var_eq(x: Symbol, y: Symbol, env: &[(Symbol, Symbol)]) -> bool {
    for &(a, b) in env.iter().rev() {
        if a == x || b == y {
            return a == x && b == y;
        }
    }
    x == y
}

/// α-equivalence of tags by explicit binder pairing.
pub fn tag_alpha_eq(a: &Tag, b: &Tag) -> bool {
    fn go(a: &Tag, b: &Tag, env: &mut Vec<(Symbol, Symbol)>) -> bool {
        match (a, b) {
            (Tag::Var(x), Tag::Var(y)) | (Tag::AnyArrow(x), Tag::AnyArrow(y)) => {
                var_eq(*x, *y, env)
            }
            (Tag::Int, Tag::Int) => true,
            (Tag::Prod(a1, a2), Tag::Prod(b1, b2)) | (Tag::App(a1, a2), Tag::App(b1, b2)) => {
                go(a1, b1, env) && go(a2, b2, env)
            }
            (Tag::Arrow(xs), Tag::Arrow(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| go(x, y, env))
            }
            (Tag::Exist(x, bx), Tag::Exist(y, by)) | (Tag::Lam(x, bx), Tag::Lam(y, by)) => {
                env.push((*x, *y));
                let r = go(bx, by, env);
                env.pop();
                r
            }
            _ => false,
        }
    }
    go(a, b, &mut Vec::new())
}

/// Tag equality: reference-normalize both sides, then α-compare.
pub fn tag_eq(a: &Tag, b: &Tag) -> bool {
    tag_alpha_eq(&normalize_tag(a), &normalize_tag(b))
}

// ----- types -------------------------------------------------------------

fn r_m() -> Symbol {
    Symbol::intern("r!m")
}
fn ry_m() -> Symbol {
    Symbol::intern("ry!m")
}
fn ro_m() -> Symbol {
    Symbol::intern("ro!m")
}

/// Deduplicated region set, preserving first-occurrence order (the
/// pre-interning [`crate::moper::region_set`] behavior).
fn region_set(rs: &[Region]) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::with_capacity(rs.len());
    for r in rs {
        if !out.contains(r) {
            out.push(*r);
        }
    }
    out
}

fn expand_m(dialect: Dialect, rho: Region, tag: &Tag) -> Option<Ty> {
    match tag {
        Tag::Int => Some(Ty::Int),
        Tag::AnyArrow(_) => None,
        Tag::Arrow(args) => Some(code_rep(dialect, args.iter().map(|a| a.node().clone()))),
        Tag::Prod(a, b) => {
            let inner = Ty::prod(Ty::m(rho, a.node().clone()), Ty::m(rho, b.node().clone()));
            Some(match dialect {
                Dialect::Basic | Dialect::Generational => inner.at(rho),
                Dialect::Forwarding => Ty::Left(inner.id()).at(rho),
            })
        }
        Tag::Exist(t, body) => {
            let inner = Ty::exist_tag(*t, Kind::Omega, Ty::m(rho, body.node().clone()));
            Some(match dialect {
                Dialect::Basic | Dialect::Generational => inner.at(rho),
                Dialect::Forwarding => Ty::Left(inner.id()).at(rho),
            })
        }
        Tag::Var(_) | Tag::App(..) | Tag::Lam(..) => None,
    }
}

fn code_rep(dialect: Dialect, args: impl IntoIterator<Item = Tag>) -> Ty {
    match dialect {
        Dialect::Basic | Dialect::Forwarding => {
            let r = r_m();
            Ty::code(
                [],
                [r],
                args.into_iter()
                    .map(|a| Ty::m(Region::Var(r), a))
                    .collect::<Vec<_>>(),
            )
            .at(Region::cd())
        }
        Dialect::Generational => {
            let ry = ry_m();
            let ro = ro_m();
            Ty::code(
                [],
                [ry, ro],
                args.into_iter()
                    .map(|a| Ty::mgen(Region::Var(ry), Region::Var(ro), a))
                    .collect::<Vec<_>>(),
            )
            .at(Region::cd())
        }
    }
}

fn expand_c(from: Region, to: Region, tag: &Tag) -> Option<Ty> {
    match tag {
        Tag::Int => Some(Ty::Int),
        Tag::AnyArrow(_) => None,
        Tag::Arrow(args) => Some(code_rep(
            Dialect::Forwarding,
            args.iter().map(|a| a.node().clone()),
        )),
        Tag::Prod(a, b) => {
            let left = Ty::prod(
                Ty::c(from, to, a.node().clone()),
                Ty::c(from, to, b.node().clone()),
            );
            let right = Ty::m(to, tag.clone());
            Some(Ty::sum(left, right).at(from))
        }
        Tag::Exist(t, body) => {
            let left = Ty::exist_tag(*t, Kind::Omega, Ty::c(from, to, body.node().clone()));
            let right = Ty::m(to, tag.clone());
            Some(Ty::sum(left, right).at(from))
        }
        Tag::Var(_) | Tag::App(..) | Tag::Lam(..) => None,
    }
}

fn expand_mgen(young: Region, old: Region, tag: &Tag) -> Option<Ty> {
    match tag {
        Tag::Int => Some(Ty::Int),
        Tag::AnyArrow(_) => None,
        Tag::Arrow(args) => Some(code_rep(
            Dialect::Generational,
            args.iter().map(|a| a.node().clone()),
        )),
        Tag::Prod(a, b) => {
            let r = r_m();
            let body = Ty::prod(
                Ty::mgen(Region::Var(r), old, a.node().clone()),
                Ty::mgen(Region::Var(r), old, b.node().clone()),
            );
            Some(Ty::exist_rgn(r, region_set(&[young, old]), body))
        }
        Tag::Exist(t, body) => {
            let r = r_m();
            let inner = Ty::exist_tag(
                *t,
                Kind::Omega,
                Ty::mgen(Region::Var(r), old, body.node().clone()),
            );
            Some(Ty::exist_rgn(r, region_set(&[young, old]), inner))
        }
        Tag::Var(_) | Tag::App(..) | Tag::Lam(..) => None,
    }
}

/// [`crate::moper::normalize_ty_id`] by direct structural recursion, no
/// memo.
pub fn normalize_ty(sigma: &Ty, dialect: Dialect) -> Ty {
    match sigma {
        Ty::Int | Ty::Alpha(_) => sigma.clone(),
        Ty::Prod(a, b) => Ty::prod(normalize_ty(a, dialect), normalize_ty(b, dialect)),
        Ty::Sum(a, b) => Ty::sum(normalize_ty(a, dialect), normalize_ty(b, dialect)),
        Ty::Left(a) => Ty::Left(normalize_ty(a, dialect).id()),
        Ty::Right(a) => Ty::Right(normalize_ty(a, dialect).id()),
        Ty::Code { tvars, rvars, args } => Ty::code(
            tvars.iter().copied(),
            rvars.iter().copied(),
            args.iter()
                .map(|a| normalize_ty(a, dialect))
                .collect::<Vec<_>>(),
        ),
        Ty::ExistTag { tvar, kind, body } => {
            Ty::exist_tag(*tvar, *kind, normalize_ty(body, dialect))
        }
        Ty::At(inner, rho) => normalize_ty(inner, dialect).at(*rho),
        Ty::M(rho, tag) => {
            let nf = normalize_tag(tag);
            if let Tag::AnyArrow(_) = nf {
                return Ty::m(Region::cd(), nf);
            }
            match expand_m(dialect, *rho, &nf) {
                Some(t) => normalize_ty(&t, dialect),
                None => Ty::m(*rho, nf),
            }
        }
        Ty::C(from, to, tag) => {
            let nf = normalize_tag(tag);
            if let Tag::AnyArrow(_) = nf {
                return Ty::m(Region::cd(), nf);
            }
            match expand_c(*from, *to, &nf) {
                Some(t) => normalize_ty(&t, dialect),
                None => Ty::c(*from, *to, nf),
            }
        }
        Ty::MGen(y, o, tag) => {
            let nf = normalize_tag(tag);
            if let Tag::AnyArrow(_) = nf {
                return Ty::m(Region::cd(), nf);
            }
            match expand_mgen(*y, *o, &nf) {
                Some(t) => normalize_ty(&t, dialect),
                None => Ty::mgen(*y, *o, nf),
            }
        }
        Ty::ExistAlpha {
            avar,
            regions,
            body,
        } => Ty::exist_alpha(*avar, region_set(regions), normalize_ty(body, dialect)),
        Ty::Trans {
            tags: ts,
            regions,
            args,
            rho,
        } => Ty::Trans {
            tags: ts.iter().map(|t| normalize_tag(t).id()).collect(),
            regions: regions.clone(),
            args: args.iter().map(|a| normalize_ty(a, dialect).id()).collect(),
            rho: *rho,
        },
        Ty::ExistRgn { rvar, bound, body } => {
            Ty::exist_rgn(*rvar, region_set(bound), normalize_ty(body, dialect))
        }
    }
}

/// Environment of corresponding binders for type α-comparison.
#[derive(Default)]
struct AlphaEnv {
    tags: Vec<(Symbol, Symbol)>,
    rgns: Vec<(Symbol, Symbol)>,
    alphas: Vec<(Symbol, Symbol)>,
}

fn region_eq(a: &Region, b: &Region, env: &AlphaEnv) -> bool {
    match (a, b) {
        (Region::Var(x), Region::Var(y)) => var_eq(*x, *y, &env.rgns),
        (Region::Name(x), Region::Name(y)) => x == y,
        _ => false,
    }
}

/// Compares two region sets as sets under the α-environment.
fn region_set_eq(a: &[Region], b: &[Region], env: &AlphaEnv) -> bool {
    a.iter().all(|x| b.iter().any(|y| region_eq(x, y, env)))
        && b.iter().all(|y| a.iter().any(|x| region_eq(x, y, env)))
}

fn tag_eq_env(a: &Tag, b: &Tag, env: &mut AlphaEnv) -> bool {
    match (a, b) {
        (Tag::Var(x), Tag::Var(y)) | (Tag::AnyArrow(x), Tag::AnyArrow(y)) => {
            var_eq(*x, *y, &env.tags)
        }
        (Tag::Int, Tag::Int) => true,
        (Tag::Prod(a1, a2), Tag::Prod(b1, b2)) | (Tag::App(a1, a2), Tag::App(b1, b2)) => {
            tag_eq_env(a1, b1, env) && tag_eq_env(a2, b2, env)
        }
        (Tag::Arrow(xs), Tag::Arrow(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| tag_eq_env(x, y, env))
        }
        (Tag::Exist(x, bx), Tag::Exist(y, by)) | (Tag::Lam(x, bx), Tag::Lam(y, by)) => {
            env.tags.push((*x, *y));
            let r = tag_eq_env(bx, by, env);
            env.tags.pop();
            r
        }
        _ => false,
    }
}

fn ty_eq_env(a: &Ty, b: &Ty, env: &mut AlphaEnv) -> bool {
    match (a, b) {
        (Ty::Int, Ty::Int) => true,
        (Ty::Prod(a1, a2), Ty::Prod(b1, b2)) | (Ty::Sum(a1, a2), Ty::Sum(b1, b2)) => {
            ty_eq_env(a1, b1, env) && ty_eq_env(a2, b2, env)
        }
        (Ty::Left(x), Ty::Left(y)) | (Ty::Right(x), Ty::Right(y)) => ty_eq_env(x, y, env),
        (
            Ty::Code {
                tvars: tv1,
                rvars: rv1,
                args: a1,
            },
            Ty::Code {
                tvars: tv2,
                rvars: rv2,
                args: a2,
            },
        ) => {
            if tv1.len() != tv2.len() || rv1.len() != rv2.len() || a1.len() != a2.len() {
                return false;
            }
            if tv1
                .iter()
                .zip(tv2.iter())
                .any(|((_, k1), (_, k2))| k1 != k2)
            {
                return false;
            }
            let nt = tv1.len();
            let nr = rv1.len();
            for ((t1, _), (t2, _)) in tv1.iter().zip(tv2.iter()) {
                env.tags.push((*t1, *t2));
            }
            for (r1, r2) in rv1.iter().zip(rv2.iter()) {
                env.rgns.push((*r1, *r2));
            }
            let r = a1.iter().zip(a2.iter()).all(|(x, y)| ty_eq_env(x, y, env));
            env.tags.truncate(env.tags.len() - nt);
            env.rgns.truncate(env.rgns.len() - nr);
            r
        }
        (
            Ty::ExistTag {
                tvar: t1,
                kind: k1,
                body: b1,
            },
            Ty::ExistTag {
                tvar: t2,
                kind: k2,
                body: b2,
            },
        ) => {
            if k1 != k2 {
                return false;
            }
            env.tags.push((*t1, *t2));
            let r = ty_eq_env(b1, b2, env);
            env.tags.pop();
            r
        }
        (Ty::At(x, rx), Ty::At(y, ry)) => region_eq(rx, ry, env) && ty_eq_env(x, y, env),
        (Ty::M(r1, t1), Ty::M(r2, t2)) => region_eq(r1, r2, env) && tag_eq_env(t1, t2, env),
        (Ty::C(f1, o1, t1), Ty::C(f2, o2, t2)) => {
            region_eq(f1, f2, env) && region_eq(o1, o2, env) && tag_eq_env(t1, t2, env)
        }
        (Ty::MGen(y1, o1, t1), Ty::MGen(y2, o2, t2)) => {
            region_eq(y1, y2, env) && region_eq(o1, o2, env) && tag_eq_env(t1, t2, env)
        }
        (Ty::Alpha(x), Ty::Alpha(y)) => var_eq(*x, *y, &env.alphas),
        (
            Ty::ExistAlpha {
                avar: a1,
                regions: d1,
                body: b1,
            },
            Ty::ExistAlpha {
                avar: a2,
                regions: d2,
                body: b2,
            },
        ) => {
            if !region_set_eq(d1, d2, env) {
                return false;
            }
            env.alphas.push((*a1, *a2));
            let r = ty_eq_env(b1, b2, env);
            env.alphas.pop();
            r
        }
        (
            Ty::Trans {
                tags: ts1,
                regions: rs1,
                args: a1,
                rho: rho1,
            },
            Ty::Trans {
                tags: ts2,
                regions: rs2,
                args: a2,
                rho: rho2,
            },
        ) => {
            ts1.len() == ts2.len()
                && rs1.len() == rs2.len()
                && a1.len() == a2.len()
                && region_eq(rho1, rho2, env)
                && ts1
                    .iter()
                    .zip(ts2.iter())
                    .all(|(x, y)| tag_eq_env(x, y, env))
                && rs1
                    .iter()
                    .zip(rs2.iter())
                    .all(|(x, y)| region_eq(x, y, env))
                && a1.iter().zip(a2.iter()).all(|(x, y)| ty_eq_env(x, y, env))
        }
        (
            Ty::ExistRgn {
                rvar: r1,
                bound: d1,
                body: b1,
            },
            Ty::ExistRgn {
                rvar: r2,
                bound: d2,
                body: b2,
            },
        ) => {
            if !region_set_eq(d1, d2, env) {
                return false;
            }
            env.rgns.push((*r1, *r2));
            let r = ty_eq_env(b1, b2, env);
            env.rgns.pop();
            r
        }
        _ => false,
    }
}

/// α-equivalence of types by explicit binder pairing (no normalization).
pub fn ty_alpha_eq(a: &Ty, b: &Ty) -> bool {
    ty_eq_env(a, b, &mut AlphaEnv::default())
}

/// Type equality: reference-normalize both sides, then α-compare.
pub fn ty_eq(a: &Ty, b: &Ty, dialect: Dialect) -> bool {
    if a == b {
        return true;
    }
    ty_alpha_eq(&normalize_ty(a, dialect), &normalize_ty(b, dialect))
}

// ----- terms and values --------------------------------------------------

/// Pre-interning recursive substitution over the four λGC namespaces.
///
/// This is the straightforward capture-avoiding structural recursion that
/// [`crate::subst::Subst`] performed before terms and values were
/// hash-consed: every node is rebuilt unconditionally — no free-variable
/// fingerprints, no same-id short-circuit, no skip counters. Tag and α
/// binders are renamed to a fresh name on *every* entry (the
/// obviously-correct capture-avoidance policy), so results agree with the
/// fast path only up to α — compare with [`term_alpha_eq`].
///
/// Two deliberate asymmetries mirror `Subst` exactly, because they are
/// semantic rather than representational:
///
/// * value binders are never renamed (runtime ranges are closed in `x`,
///   and both paths must shadow identically), and
/// * region binders are renamed only when they would capture a free
///   region variable of a *region* range — region variables inside α and
///   value witnesses are intentionally capturable (the Fig. 12
///   translucency pun; see [`Subst::with_alpha`]).
#[derive(Clone, Debug, Default)]
pub struct RefSubst {
    tags: HashMap<Symbol, Tag>,
    rgns: HashMap<Symbol, Region>,
    alphas: HashMap<Symbol, Ty>,
    vals: HashMap<Symbol, Value>,
    /// Free region variables of the region ranges — the one capture check
    /// that must *not* be conservative (see the translucency pun above).
    range_rvars: HashSet<Symbol>,
}

impl RefSubst {
    /// The empty substitution.
    pub fn new() -> RefSubst {
        RefSubst::default()
    }

    /// Extends with `t ↦ τ`.
    #[must_use]
    pub fn with_tag(mut self, t: Symbol, tau: Tag) -> RefSubst {
        self.tags.insert(t, tau);
        self
    }

    /// Extends with `r ↦ ρ`.
    #[must_use]
    pub fn with_rgn(mut self, r: Symbol, rho: Region) -> RefSubst {
        if let Region::Var(v) = rho {
            self.range_rvars.insert(v);
        }
        self.rgns.insert(r, rho);
        self
    }

    /// Extends with `α ↦ σ`.
    #[must_use]
    pub fn with_alpha(mut self, a: Symbol, sigma: Ty) -> RefSubst {
        self.alphas.insert(a, sigma);
        self
    }

    /// Extends with `x ↦ v`.
    #[must_use]
    pub fn with_val(mut self, x: Symbol, v: Value) -> RefSubst {
        self.vals.insert(x, v);
        self
    }

    // ----- binder entry (always-fresh for tags and α) --------------------

    fn enter_tag_binder(&self, t: Symbol) -> (RefSubst, Symbol) {
        let mut sub = self.clone();
        sub.tags.remove(&t);
        let fresh = t.fresh();
        sub.tags.insert(t, Tag::Var(fresh));
        (sub, fresh)
    }

    fn enter_alpha_binder(&self, a: Symbol) -> (RefSubst, Symbol) {
        let mut sub = self.clone();
        sub.alphas.remove(&a);
        let fresh = a.fresh();
        sub.alphas.insert(a, Ty::Alpha(fresh));
        (sub, fresh)
    }

    fn enter_rgn_binder(&self, r: Symbol) -> (RefSubst, Symbol) {
        let mut sub = self.clone();
        sub.rgns.remove(&r);
        if sub.range_rvars.contains(&r) {
            let fresh = r.fresh();
            sub.range_rvars.insert(fresh);
            sub.rgns.insert(r, Region::Var(fresh));
            (sub, fresh)
        } else {
            (sub, r)
        }
    }

    fn enter_val_binder(&self, x: Symbol) -> RefSubst {
        let mut sub = self.clone();
        sub.vals.remove(&x);
        sub
    }

    // ----- application ----------------------------------------------------

    /// Applies the substitution to a region.
    pub fn region(&self, rho: &Region) -> Region {
        match rho {
            Region::Var(r) => self.rgns.get(r).copied().unwrap_or(*rho),
            Region::Name(_) => *rho,
        }
    }

    /// Applies the substitution to a tag, rebuilding every node.
    pub fn tag(&self, tau: &Tag) -> Tag {
        match tau {
            Tag::Var(t) => self.tags.get(t).cloned().unwrap_or_else(|| tau.clone()),
            Tag::AnyArrow(t) => match self.tags.get(t) {
                Some(Tag::Var(t2)) => Tag::AnyArrow(*t2),
                Some(concrete @ Tag::Arrow(_)) => concrete.clone(),
                Some(Tag::AnyArrow(t2)) => Tag::AnyArrow(*t2),
                Some(other) => other.clone(),
                None => tau.clone(),
            },
            Tag::Int => Tag::Int,
            Tag::Prod(a, b) => Tag::prod(self.tag(a), self.tag(b)),
            Tag::Arrow(args) => Tag::arrow(args.iter().map(|a| self.tag(a)).collect::<Vec<_>>()),
            Tag::Exist(t, body) => {
                let (sub, t2) = self.enter_tag_binder(*t);
                Tag::exist(t2, sub.tag(body))
            }
            Tag::Lam(t, body) => {
                let (sub, t2) = self.enter_tag_binder(*t);
                Tag::lam(t2, sub.tag(body))
            }
            Tag::App(f, a) => Tag::app(self.tag(f), self.tag(a)),
        }
    }

    /// Applies the substitution to a type, rebuilding every node.
    pub fn ty(&self, sigma: &Ty) -> Ty {
        match sigma {
            Ty::Int => Ty::Int,
            Ty::Prod(a, b) => Ty::prod(self.ty(a), self.ty(b)),
            Ty::Sum(a, b) => Ty::sum(self.ty(a), self.ty(b)),
            Ty::Left(a) => Ty::Left(self.ty(a).id()),
            Ty::Right(a) => Ty::Right(self.ty(a).id()),
            Ty::Code { tvars, rvars, args } => {
                let mut sub = self.clone();
                let mut tvs = Vec::with_capacity(tvars.len());
                for (t, k) in tvars.iter() {
                    let (s2, t2) = sub.enter_tag_binder(*t);
                    sub = s2;
                    tvs.push((t2, *k));
                }
                let mut rvs = Vec::with_capacity(rvars.len());
                for r in rvars.iter() {
                    let (s2, r2) = sub.enter_rgn_binder(*r);
                    sub = s2;
                    rvs.push(r2);
                }
                Ty::code(tvs, rvs, args.iter().map(|a| sub.ty(a)).collect::<Vec<_>>())
            }
            Ty::ExistTag { tvar, kind, body } => {
                let (sub, t2) = self.enter_tag_binder(*tvar);
                Ty::exist_tag(t2, *kind, sub.ty(body))
            }
            Ty::At(inner, rho) => self.ty(inner).at(self.region(rho)),
            Ty::M(rho, tag) => Ty::m(self.region(rho), self.tag(tag)),
            Ty::C(from, to, tag) => Ty::c(self.region(from), self.region(to), self.tag(tag)),
            Ty::MGen(y, o, tag) => Ty::mgen(self.region(y), self.region(o), self.tag(tag)),
            Ty::Alpha(a) => self.alphas.get(a).cloned().unwrap_or_else(|| sigma.clone()),
            Ty::ExistAlpha {
                avar,
                regions,
                body,
            } => {
                let regions: Vec<Region> = regions.iter().map(|r| self.region(r)).collect();
                let (sub, a2) = self.enter_alpha_binder(*avar);
                Ty::exist_alpha(a2, regions, sub.ty(body))
            }
            Ty::Trans {
                tags,
                regions,
                args,
                rho,
            } => Ty::Trans {
                tags: tags.iter().map(|t| self.tag(t).id()).collect(),
                regions: regions.iter().map(|r| self.region(r)).collect(),
                args: args.iter().map(|a| self.ty(a).id()).collect(),
                rho: self.region(rho),
            },
            Ty::ExistRgn { rvar, bound, body } => {
                let bound: Vec<Region> = bound.iter().map(|r| self.region(r)).collect();
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                Ty::exist_rgn(r2, bound, sub.ty(body))
            }
        }
    }

    /// Applies the substitution to a value, rebuilding every node.
    pub fn value(&self, v: &Value) -> Value {
        match v {
            Value::Int(_) | Value::Addr(..) => v.clone(),
            Value::Var(x) => self.vals.get(x).cloned().unwrap_or_else(|| v.clone()),
            Value::Pair(a, b) => Value::pair(self.value(a), self.value(b)),
            Value::PackTag {
                tvar,
                kind,
                tag,
                val,
                body_ty,
            } => {
                let tag = self.tag(tag).id();
                let val = self.value(val).id();
                let (sub, t2) = self.enter_tag_binder(*tvar);
                Value::PackTag {
                    tvar: t2,
                    kind: *kind,
                    tag,
                    val,
                    body_ty: sub.ty(body_ty).id(),
                }
            }
            Value::PackAlpha {
                avar,
                regions,
                witness,
                val,
                body_ty,
            } => {
                let regions: Arc<[Region]> = regions.iter().map(|r| self.region(r)).collect();
                let witness = self.ty(witness).id();
                let val = self.value(val).id();
                let (sub, a2) = self.enter_alpha_binder(*avar);
                Value::PackAlpha {
                    avar: a2,
                    regions,
                    witness,
                    val,
                    body_ty: sub.ty(body_ty).id(),
                }
            }
            Value::PackRgn {
                rvar,
                bound,
                witness,
                val,
                body_ty,
            } => {
                let bound: Arc<[Region]> = bound.iter().map(|r| self.region(r)).collect();
                let witness = self.region(witness);
                let val = self.value(val).id();
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                Value::PackRgn {
                    rvar: r2,
                    bound,
                    witness,
                    val,
                    body_ty: sub.ty(body_ty).id(),
                }
            }
            Value::TagApp(f, tags, regions) => Value::TagApp(
                self.value(f).id(),
                tags.iter().map(|t| self.tag(t).id()).collect(),
                regions.iter().map(|r| self.region(r)).collect(),
            ),
            Value::Code(def) => Value::Code(Arc::new(self.code_def(def))),
            Value::Inl(x) => Value::Inl(self.value(x).id()),
            Value::Inr(x) => Value::Inr(self.value(x).id()),
        }
    }

    /// Applies the substitution to an operation.
    pub fn op(&self, op: &Op) -> Op {
        match op {
            Op::Val(v) => Op::Val(self.value(v)),
            Op::Proj(i, v) => Op::Proj(*i, self.value(v)),
            Op::Put(rho, v) => Op::Put(self.region(rho), self.value(v)),
            Op::Get(v) => Op::Get(self.value(v)),
            Op::Strip(v) => Op::Strip(self.value(v)),
            Op::Prim(p, a, b) => Op::Prim(*p, self.value(a), self.value(b)),
        }
    }

    /// Applies the substitution to a code definition.
    pub fn code_def(&self, def: &CodeDef) -> CodeDef {
        let mut sub = self.clone();
        let mut tvs = Vec::with_capacity(def.tvars.len());
        for (t, k) in &def.tvars {
            let (s2, t2) = sub.enter_tag_binder(*t);
            sub = s2;
            tvs.push((t2, *k));
        }
        let mut rvs = Vec::with_capacity(def.rvars.len());
        for r in &def.rvars {
            let (s2, r2) = sub.enter_rgn_binder(*r);
            sub = s2;
            rvs.push(r2);
        }
        let mut params = Vec::with_capacity(def.params.len());
        for (x, t) in &def.params {
            params.push((*x, sub.ty(t).id()));
        }
        for (x, _) in &def.params {
            sub = sub.enter_val_binder(*x);
        }
        CodeDef {
            name: def.name,
            tvars: tvs,
            rvars: rvs,
            params,
            body: sub.term(&def.body),
        }
    }

    /// Applies the substitution to a term, rebuilding every node.
    pub fn term(&self, e: &Term) -> Term {
        match e {
            Term::App {
                f,
                tags,
                regions,
                args,
            } => Term::App {
                f: self.value(f),
                tags: tags.iter().map(|t| self.tag(t).id()).collect(),
                regions: regions.iter().map(|r| self.region(r)).collect(),
                args: args.iter().map(|v| self.value(v)).collect(),
            },
            Term::Let { x, op, body } => {
                let op = self.op(op);
                let sub = self.enter_val_binder(*x);
                Term::let_(*x, op, sub.term(body))
            }
            Term::Halt(v) => Term::Halt(self.value(v)),
            Term::IfGc { rho, full, cont } => Term::IfGc {
                rho: self.region(rho),
                full: self.term(full).id(),
                cont: self.term(cont).id(),
            },
            Term::OpenTag { pkg, tvar, x, body } => {
                let pkg = self.value(pkg);
                let (sub, t2) = self.enter_tag_binder(*tvar);
                let sub = sub.enter_val_binder(*x);
                Term::OpenTag {
                    pkg,
                    tvar: t2,
                    x: *x,
                    body: sub.term(body).id(),
                }
            }
            Term::OpenAlpha { pkg, avar, x, body } => {
                let pkg = self.value(pkg);
                let (sub, a2) = self.enter_alpha_binder(*avar);
                let sub = sub.enter_val_binder(*x);
                Term::OpenAlpha {
                    pkg,
                    avar: a2,
                    x: *x,
                    body: sub.term(body).id(),
                }
            }
            Term::OpenRgn { pkg, rvar, x, body } => {
                let pkg = self.value(pkg);
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                let sub = sub.enter_val_binder(*x);
                Term::OpenRgn {
                    pkg,
                    rvar: r2,
                    x: *x,
                    body: sub.term(body).id(),
                }
            }
            Term::LetRegion { rvar, body } => {
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                Term::LetRegion {
                    rvar: r2,
                    body: sub.term(body).id(),
                }
            }
            Term::Only { regions, body } => Term::Only {
                regions: regions.iter().map(|r| self.region(r)).collect(),
                body: self.term(body).id(),
            },
            Term::Typecase {
                tag,
                int_arm,
                arrow_arm,
                prod_arm,
                exist_arm,
            } => {
                let tag = self.tag(tag).id();
                let int_arm = self.term(int_arm).id();
                let arrow_arm = self.term(arrow_arm).id();
                let (t1, t2, pe) = prod_arm;
                let (s1, t1b) = self.enter_tag_binder(*t1);
                let (s2, t2b) = s1.enter_tag_binder(*t2);
                let prod_arm = (t1b, t2b, s2.term(pe).id());
                let (te, ee) = exist_arm;
                let (s3, teb) = self.enter_tag_binder(*te);
                let exist_arm = (teb, s3.term(ee).id());
                Term::Typecase {
                    tag,
                    int_arm,
                    arrow_arm,
                    prod_arm,
                    exist_arm,
                }
            }
            Term::IfLeft {
                x,
                scrut,
                left,
                right,
            } => {
                let scrut = self.value(scrut);
                let sub = self.enter_val_binder(*x);
                Term::IfLeft {
                    x: *x,
                    scrut,
                    left: sub.term(left).id(),
                    right: sub.term(right).id(),
                }
            }
            Term::Set { dst, src, body } => Term::Set {
                dst: self.value(dst),
                src: self.value(src),
                body: self.term(body).id(),
            },
            Term::Widen {
                x,
                from,
                to,
                tag,
                v,
                body,
            } => {
                let from = self.region(from);
                let to = self.region(to);
                let tag = self.tag(tag).id();
                let v = self.value(v);
                let sub = self.enter_val_binder(*x);
                Term::Widen {
                    x: *x,
                    from,
                    to,
                    tag,
                    v,
                    body: sub.term(body).id(),
                }
            }
            Term::IfReg { r1, r2, eq, ne } => Term::IfReg {
                r1: self.region(r1),
                r2: self.region(r2),
                eq: self.term(eq).id(),
                ne: self.term(ne).id(),
            },
            Term::If0 {
                scrut,
                zero,
                nonzero,
            } => Term::If0 {
                scrut: self.value(scrut),
                zero: self.term(zero).id(),
                nonzero: self.term(nonzero).id(),
            },
        }
    }
}

/// Binder-pairing environment extended with the value namespace.
#[derive(Default)]
struct TermAlphaEnv {
    tys: AlphaEnv,
    vals: Vec<(Symbol, Symbol)>,
}

fn value_eq_env(a: &Value, b: &Value, env: &mut TermAlphaEnv) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Var(x), Value::Var(y)) => var_eq(*x, *y, &env.vals),
        (Value::Addr(n1, l1), Value::Addr(n2, l2)) => n1 == n2 && l1 == l2,
        (Value::Pair(a1, a2), Value::Pair(b1, b2)) => {
            value_eq_env(a1, b1, env) && value_eq_env(a2, b2, env)
        }
        (
            Value::PackTag {
                tvar: t1,
                kind: k1,
                tag: g1,
                val: v1,
                body_ty: s1,
            },
            Value::PackTag {
                tvar: t2,
                kind: k2,
                tag: g2,
                val: v2,
                body_ty: s2,
            },
        ) => {
            if k1 != k2 || !tag_eq_env(g1, g2, &mut env.tys) || !value_eq_env(v1, v2, env) {
                return false;
            }
            env.tys.tags.push((*t1, *t2));
            let r = ty_eq_env(s1, s2, &mut env.tys);
            env.tys.tags.pop();
            r
        }
        (
            Value::PackAlpha {
                avar: a1,
                regions: d1,
                witness: w1,
                val: v1,
                body_ty: s1,
            },
            Value::PackAlpha {
                avar: a2,
                regions: d2,
                witness: w2,
                val: v2,
                body_ty: s2,
            },
        ) => {
            if !region_set_eq(d1, d2, &env.tys)
                || !ty_eq_env(w1, w2, &mut env.tys)
                || !value_eq_env(v1, v2, env)
            {
                return false;
            }
            env.tys.alphas.push((*a1, *a2));
            let r = ty_eq_env(s1, s2, &mut env.tys);
            env.tys.alphas.pop();
            r
        }
        (
            Value::PackRgn {
                rvar: r1,
                bound: d1,
                witness: w1,
                val: v1,
                body_ty: s1,
            },
            Value::PackRgn {
                rvar: r2,
                bound: d2,
                witness: w2,
                val: v2,
                body_ty: s2,
            },
        ) => {
            if !region_set_eq(d1, d2, &env.tys)
                || !region_eq(w1, w2, &env.tys)
                || !value_eq_env(v1, v2, env)
            {
                return false;
            }
            env.tys.rgns.push((*r1, *r2));
            let r = ty_eq_env(s1, s2, &mut env.tys);
            env.tys.rgns.pop();
            r
        }
        (Value::TagApp(f1, g1, d1), Value::TagApp(f2, g2, d2)) => {
            value_eq_env(f1, f2, env)
                && g1.len() == g2.len()
                && d1.len() == d2.len()
                && g1
                    .iter()
                    .zip(g2.iter())
                    .all(|(x, y)| tag_eq_env(x, y, &mut env.tys))
                && d1
                    .iter()
                    .zip(d2.iter())
                    .all(|(x, y)| region_eq(x, y, &env.tys))
        }
        (Value::Code(d1), Value::Code(d2)) => code_def_eq_env(d1, d2, env),
        (Value::Inl(x), Value::Inl(y)) | (Value::Inr(x), Value::Inr(y)) => value_eq_env(x, y, env),
        _ => false,
    }
}

fn op_eq_env(a: &Op, b: &Op, env: &mut TermAlphaEnv) -> bool {
    match (a, b) {
        (Op::Val(x), Op::Val(y)) | (Op::Get(x), Op::Get(y)) | (Op::Strip(x), Op::Strip(y)) => {
            value_eq_env(x, y, env)
        }
        (Op::Proj(i, x), Op::Proj(j, y)) => i == j && value_eq_env(x, y, env),
        (Op::Put(r1, x), Op::Put(r2, y)) => region_eq(r1, r2, &env.tys) && value_eq_env(x, y, env),
        (Op::Prim(p, a1, a2), Op::Prim(q, b1, b2)) => {
            p == q && value_eq_env(a1, b1, env) && value_eq_env(a2, b2, env)
        }
        _ => false,
    }
}

fn code_def_eq_env(a: &CodeDef, b: &CodeDef, env: &mut TermAlphaEnv) -> bool {
    // Names are labels resolved through `cd` at application time, so they
    // are semantically significant and must match exactly.
    if a.name != b.name
        || a.tvars.len() != b.tvars.len()
        || a.rvars.len() != b.rvars.len()
        || a.params.len() != b.params.len()
        || a.tvars
            .iter()
            .zip(b.tvars.iter())
            .any(|((_, k1), (_, k2))| k1 != k2)
    {
        return false;
    }
    let nt = a.tvars.len();
    let nr = a.rvars.len();
    let nx = a.params.len();
    for ((t1, _), (t2, _)) in a.tvars.iter().zip(b.tvars.iter()) {
        env.tys.tags.push((*t1, *t2));
    }
    for (r1, r2) in a.rvars.iter().zip(b.rvars.iter()) {
        env.tys.rgns.push((*r1, *r2));
    }
    let mut ok = a
        .params
        .iter()
        .zip(b.params.iter())
        .all(|((_, s1), (_, s2))| ty_eq_env(s1, s2, &mut env.tys));
    for ((x1, _), (x2, _)) in a.params.iter().zip(b.params.iter()) {
        env.vals.push((*x1, *x2));
    }
    ok = ok && term_eq_env(&a.body, &b.body, env);
    env.vals.truncate(env.vals.len() - nx);
    env.tys.rgns.truncate(env.tys.rgns.len() - nr);
    env.tys.tags.truncate(env.tys.tags.len() - nt);
    ok
}

fn term_eq_env(a: &Term, b: &Term, env: &mut TermAlphaEnv) -> bool {
    match (a, b) {
        (
            Term::App {
                f: f1,
                tags: g1,
                regions: d1,
                args: a1,
            },
            Term::App {
                f: f2,
                tags: g2,
                regions: d2,
                args: a2,
            },
        ) => {
            value_eq_env(f1, f2, env)
                && g1.len() == g2.len()
                && d1.len() == d2.len()
                && a1.len() == a2.len()
                && g1
                    .iter()
                    .zip(g2.iter())
                    .all(|(x, y)| tag_eq_env(x, y, &mut env.tys))
                && d1
                    .iter()
                    .zip(d2.iter())
                    .all(|(x, y)| region_eq(x, y, &env.tys))
                && a1
                    .iter()
                    .zip(a2.iter())
                    .all(|(x, y)| value_eq_env(x, y, env))
        }
        (
            Term::Let {
                x: x1,
                op: o1,
                body: b1,
            },
            Term::Let {
                x: x2,
                op: o2,
                body: b2,
            },
        ) => {
            if !op_eq_env(o1, o2, env) {
                return false;
            }
            env.vals.push((*x1, *x2));
            let r = term_eq_env(b1, b2, env);
            env.vals.pop();
            r
        }
        (Term::Halt(x), Term::Halt(y)) => value_eq_env(x, y, env),
        (
            Term::IfGc {
                rho: r1,
                full: f1,
                cont: c1,
            },
            Term::IfGc {
                rho: r2,
                full: f2,
                cont: c2,
            },
        ) => region_eq(r1, r2, &env.tys) && term_eq_env(f1, f2, env) && term_eq_env(c1, c2, env),
        (
            Term::OpenTag {
                pkg: p1,
                tvar: t1,
                x: x1,
                body: b1,
            },
            Term::OpenTag {
                pkg: p2,
                tvar: t2,
                x: x2,
                body: b2,
            },
        ) => {
            if !value_eq_env(p1, p2, env) {
                return false;
            }
            env.tys.tags.push((*t1, *t2));
            env.vals.push((*x1, *x2));
            let r = term_eq_env(b1, b2, env);
            env.vals.pop();
            env.tys.tags.pop();
            r
        }
        (
            Term::OpenAlpha {
                pkg: p1,
                avar: a1,
                x: x1,
                body: b1,
            },
            Term::OpenAlpha {
                pkg: p2,
                avar: a2,
                x: x2,
                body: b2,
            },
        ) => {
            if !value_eq_env(p1, p2, env) {
                return false;
            }
            env.tys.alphas.push((*a1, *a2));
            env.vals.push((*x1, *x2));
            let r = term_eq_env(b1, b2, env);
            env.vals.pop();
            env.tys.alphas.pop();
            r
        }
        (
            Term::OpenRgn {
                pkg: p1,
                rvar: r1,
                x: x1,
                body: b1,
            },
            Term::OpenRgn {
                pkg: p2,
                rvar: r2,
                x: x2,
                body: b2,
            },
        ) => {
            if !value_eq_env(p1, p2, env) {
                return false;
            }
            env.tys.rgns.push((*r1, *r2));
            env.vals.push((*x1, *x2));
            let r = term_eq_env(b1, b2, env);
            env.vals.pop();
            env.tys.rgns.pop();
            r
        }
        (Term::LetRegion { rvar: r1, body: b1 }, Term::LetRegion { rvar: r2, body: b2 }) => {
            env.tys.rgns.push((*r1, *r2));
            let r = term_eq_env(b1, b2, env);
            env.tys.rgns.pop();
            r
        }
        (
            Term::Only {
                regions: d1,
                body: b1,
            },
            Term::Only {
                regions: d2,
                body: b2,
            },
        ) => region_set_eq(d1, d2, &env.tys) && term_eq_env(b1, b2, env),
        (
            Term::Typecase {
                tag: g1,
                int_arm: i1,
                arrow_arm: l1,
                prod_arm: (p1a, p1b, p1e),
                exist_arm: (e1t, e1e),
            },
            Term::Typecase {
                tag: g2,
                int_arm: i2,
                arrow_arm: l2,
                prod_arm: (p2a, p2b, p2e),
                exist_arm: (e2t, e2e),
            },
        ) => {
            if !tag_eq_env(g1, g2, &mut env.tys)
                || !term_eq_env(i1, i2, env)
                || !term_eq_env(l1, l2, env)
            {
                return false;
            }
            env.tys.tags.push((*p1a, *p2a));
            env.tys.tags.push((*p1b, *p2b));
            let prod_ok = term_eq_env(p1e, p2e, env);
            env.tys.tags.pop();
            env.tys.tags.pop();
            if !prod_ok {
                return false;
            }
            env.tys.tags.push((*e1t, *e2t));
            let exist_ok = term_eq_env(e1e, e2e, env);
            env.tys.tags.pop();
            exist_ok
        }
        (
            Term::IfLeft {
                x: x1,
                scrut: s1,
                left: l1,
                right: r1,
            },
            Term::IfLeft {
                x: x2,
                scrut: s2,
                left: l2,
                right: r2,
            },
        ) => {
            if !value_eq_env(s1, s2, env) {
                return false;
            }
            env.vals.push((*x1, *x2));
            let r = term_eq_env(l1, l2, env) && term_eq_env(r1, r2, env);
            env.vals.pop();
            r
        }
        (
            Term::Set {
                dst: d1,
                src: s1,
                body: b1,
            },
            Term::Set {
                dst: d2,
                src: s2,
                body: b2,
            },
        ) => value_eq_env(d1, d2, env) && value_eq_env(s1, s2, env) && term_eq_env(b1, b2, env),
        (
            Term::Widen {
                x: x1,
                from: f1,
                to: t1,
                tag: g1,
                v: v1,
                body: b1,
            },
            Term::Widen {
                x: x2,
                from: f2,
                to: t2,
                tag: g2,
                v: v2,
                body: b2,
            },
        ) => {
            if !region_eq(f1, f2, &env.tys)
                || !region_eq(t1, t2, &env.tys)
                || !tag_eq_env(g1, g2, &mut env.tys)
                || !value_eq_env(v1, v2, env)
            {
                return false;
            }
            env.vals.push((*x1, *x2));
            let r = term_eq_env(b1, b2, env);
            env.vals.pop();
            r
        }
        (
            Term::IfReg {
                r1: a1,
                r2: a2,
                eq: e1,
                ne: n1,
            },
            Term::IfReg {
                r1: b1,
                r2: b2,
                eq: e2,
                ne: n2,
            },
        ) => {
            region_eq(a1, b1, &env.tys)
                && region_eq(a2, b2, &env.tys)
                && term_eq_env(e1, e2, env)
                && term_eq_env(n1, n2, env)
        }
        (
            Term::If0 {
                scrut: s1,
                zero: z1,
                nonzero: n1,
            },
            Term::If0 {
                scrut: s2,
                zero: z2,
                nonzero: n2,
            },
        ) => value_eq_env(s1, s2, env) && term_eq_env(z1, z2, env) && term_eq_env(n1, n2, env),
        _ => false,
    }
}

/// α-equivalence of values by explicit binder pairing across all four
/// namespaces.
pub fn value_alpha_eq(a: &Value, b: &Value) -> bool {
    value_eq_env(a, b, &mut TermAlphaEnv::default())
}

/// α-equivalence of terms by explicit binder pairing across all four
/// namespaces (region sets compare as sets, like [`ty_alpha_eq`]).
pub fn term_alpha_eq(a: &Term, b: &Term) -> bool {
    term_eq_env(a, b, &mut TermAlphaEnv::default())
}
