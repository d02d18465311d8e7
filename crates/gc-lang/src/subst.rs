//! Capture-avoiding substitution for λGC.
//!
//! λGC has four variable namespaces that can be substituted:
//!
//! * tag variables `t` (bound by `∃t.τ`, `λt.τ`, code blocks, `typecase`
//!   arms and `open`),
//! * region variables `r` (bound by `let region`, code blocks, region
//!   existentials and `open`),
//! * type variables `α` (bound by `∃α:∆.σ` and `open`),
//! * value variables `x` (bound by `let`, `open`, `ifleft`, `widen` and code
//!   parameters).
//!
//! A single [`Subst`] carries all four maps so one traversal implements the
//! simultaneous substitutions of Fig. 5 (e.g.
//! `e[~ρ, ~τ, ~v / ~r, ~t, ~x]` for code application). Binders are renamed
//! on the fly when they would capture a free variable of a substitution
//! range.
//!
//! Tags never mention regions (they are the *region-free* half of the
//! type/tag split of §2.2.2), so region substitution does not descend into
//! tags.

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::sync::Arc;

use ps_ir::symbol::{SymbolMap, SymbolSet};
use ps_ir::Symbol;

use crate::intern::{
    self, intern_tag, intern_term, intern_ty, intern_value, TagId, TermId, TyId, ValId,
};
use crate::syntax::{CodeDef, Op, Region, Tag, Term, Ty, Value};

/// Does the substitution domain `map` touch any of the (sorted) free
/// variables `fv`? Iterates whichever side is smaller.
fn touches<V>(fv: &[Symbol], map: &SymbolMap<V>) -> bool {
    if fv.len() <= map.len() {
        fv.iter().any(|x| map.contains_key(x))
    } else {
        map.keys().any(|x| fv.binary_search(x).is_ok())
    }
}

/// A simultaneous substitution over the four λGC namespaces.
///
/// Besides one-shot application (built with [`Subst::with_val`] etc. and
/// applied by [`Subst::term`]), a `Subst` also serves as the mutable
/// *environment* of the environment machine
/// ([`crate::env_machine::EnvMachine`]): the `insert_*` methods extend the
/// maps in place, and resolution of a value/tag/region against the
/// environment is exactly substitution application. Sharing the
/// implementation guarantees both backends resolve identically.
///
/// Tag and type ranges are held as interned ids, like the children of every
/// node they are substituted into: a variable's image is reused by id, never
/// rebuilt and re-interned.
#[derive(Clone, Debug, Default)]
pub struct Subst {
    tags: SymbolMap<TagId>,
    rgns: SymbolMap<Region>,
    alphas: SymbolMap<TyId>,
    vals: SymbolMap<Value>,
    /// Free tag variables of all ranges (for capture checks).
    range_tvars: SymbolSet,
    /// Free region variables of all ranges.
    range_rvars: SymbolSet,
    /// Free α variables of all ranges.
    range_avars: SymbolSet,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Is this the identity substitution?
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
            && self.rgns.is_empty()
            && self.alphas.is_empty()
            && self.vals.is_empty()
    }

    /// Extends with `t ↦ τ`.
    pub fn with_tag(mut self, t: Symbol, tau: impl Into<TagId>) -> Subst {
        self.insert_tag(t, tau);
        self
    }

    /// Extends with `r ↦ ρ`.
    pub fn with_rgn(mut self, r: Symbol, rho: Region) -> Subst {
        self.insert_rgn(r, rho);
        self
    }

    /// Extends with `α ↦ σ`.
    ///
    /// Free *region* variables of the witness are deliberately **not**
    /// protected from capture: Fig. 12's continuation type
    /// `∀⟦t̄⟧[r₁,r₂,r₃](…, αc) → 0` names its translucent region binders
    /// after the very regions `αc` is confined to, so that instantiating
    /// `αc` rebinds the environment's regions at the application site.
    /// Renaming the binders (ordinary capture avoidance) would break that
    /// pun — see the `paper:` note on the Trans formation rule in
    /// [`crate::tyck`].
    pub fn with_alpha(mut self, a: Symbol, sigma: impl Into<TyId>) -> Subst {
        self.insert_alpha(a, sigma);
        self
    }

    /// Extends with `x ↦ v`.
    ///
    /// As with [`Self::with_alpha`], free region variables in the value's
    /// type annotations are not protected from capture (at runtime they are
    /// concrete region names anyway, which cannot be captured).
    pub fn with_val(mut self, x: Symbol, v: Value) -> Subst {
        self.insert_val(x, v);
        self
    }

    // ----- in-place extension (environment-machine entry points) --------

    /// Extends with `t ↦ τ` in place.
    pub(crate) fn insert_tag(&mut self, t: Symbol, tau: impl Into<TagId>) {
        let tau = tau.into();
        self.range_tvars.extend(intern::tag_fv(tau).iter().copied());
        self.tags.insert(t, tau);
    }

    /// Extends with `r ↦ ρ` in place.
    pub(crate) fn insert_rgn(&mut self, r: Symbol, rho: Region) {
        if let Region::Var(v) = rho {
            self.range_rvars.insert(v);
        }
        self.rgns.insert(r, rho);
    }

    /// Extends with `α ↦ σ` in place (capture caveats as [`Self::with_alpha`]).
    pub(crate) fn insert_alpha(&mut self, a: Symbol, sigma: impl Into<TyId>) {
        let sigma = sigma.into();
        let fv = intern::ty_fv(sigma);
        self.range_tvars.extend(fv.tvars.iter().copied());
        self.range_avars.extend(fv.avars.iter().copied());
        self.alphas.insert(a, sigma);
    }

    /// Extends with `x ↦ v` in place (capture caveats as [`Self::with_val`]).
    pub(crate) fn insert_val(&mut self, x: Symbol, v: Value) {
        // Values may mention tags (in packages); collect them so binders in
        // terms get renamed when needed.
        let mut dropped_rvars = HashSet::new();
        value_free_vars(
            &v,
            &mut self.range_tvars,
            &mut dropped_rvars,
            &mut self.range_avars,
        );
        self.vals.insert(x, v);
    }

    // ----- closed-range (runtime) extension -----------------------------
    //
    // The Fig. 5 rules only ever substitute *resolved* runtime ranges:
    // normalized tags, concrete regions, and values that both machines
    // have already passed through the current substitution. Such ranges
    // are closed, so they contribute nothing to the capture-check sets and
    // walking them (`value_free_vars` on every `let`, `ty_free_vars` on
    // every closure-environment package) is pure overhead — measurably the
    // dominant per-step cost of the environment machine. The `bind_*`
    // methods skip that bookkeeping. Both machines must use the same
    // binding policy so their rename behavior (and therefore their states)
    // stay bit-identical; the typechecker, whose ranges are genuinely
    // open, keeps using `with_*`.

    /// Extends with `t ↦ τ` in place without capture bookkeeping (`τ` must
    /// be a closed runtime tag).
    pub(crate) fn bind_tag(&mut self, t: Symbol, tau: TagId) {
        self.tags.insert(t, tau);
    }

    /// Extends with `r ↦ ρ` in place without capture bookkeeping (`ρ` must
    /// be a concrete region name).
    pub(crate) fn bind_rgn(&mut self, r: Symbol, rho: Region) {
        self.rgns.insert(r, rho);
    }

    /// Extends with `α ↦ σ` in place without capture bookkeeping (`σ` must
    /// be a closed runtime witness type).
    pub(crate) fn bind_alpha(&mut self, a: Symbol, sigma: TyId) {
        self.alphas.insert(a, sigma);
    }

    /// Extends with `x ↦ v` in place without capture bookkeeping (`v` must
    /// be a closed runtime value).
    pub(crate) fn bind_val(&mut self, x: Symbol, v: Value) {
        self.vals.insert(x, v);
    }

    /// Empties every map, keeping allocated capacity. The environment
    /// machine calls this at each code application: λGC code blocks are
    /// closed, so the caller's bindings can never be referenced again.
    pub(crate) fn clear(&mut self) {
        self.tags.clear();
        self.rgns.clear();
        self.alphas.clear();
        self.vals.clear();
        self.range_tvars.clear();
        self.range_rvars.clear();
        self.range_avars.clear();
    }

    /// Convenience: the single-tag substitution `[τ/t]`.
    pub fn one_tag(t: Symbol, tau: impl Into<TagId>) -> Subst {
        Subst::new().with_tag(t, tau)
    }

    /// Convenience: the single-region substitution `[ρ/r]`.
    pub fn one_rgn(r: Symbol, rho: Region) -> Subst {
        Subst::new().with_rgn(r, rho)
    }

    /// Convenience: the single-α substitution `[σ/α]`.
    pub fn one_alpha(a: Symbol, sigma: impl Into<TyId>) -> Subst {
        Subst::new().with_alpha(a, sigma)
    }

    /// Convenience: the single-value substitution `[v/x]`.
    pub fn one_val(x: Symbol, v: Value) -> Subst {
        Subst::new().with_val(x, v)
    }

    // ----- binder entry -------------------------------------------------
    //
    // Each namespace has an in-place `_mut` variant (for loops over binder
    // lists, which would otherwise clone once per binder) and a
    // copy-on-write wrapper. The wrapper's fast path — the binder is
    // neither in the domain nor capturable — borrows `self` unchanged;
    // since a machine-step substitution's domain is a single closed value,
    // descending under tag/region/α binders then costs nothing, which is
    // measurably the difference between the substitution machine cloning
    // four hash maps per package value and not.

    /// Prepares to descend under a tag binder `t`, in place: removes `t`
    /// from the domain and, if `t` would capture a range variable, renames
    /// it. Returns the (possibly fresh) binder.
    fn enter_tag_binder_mut(&mut self, t: Symbol) -> Symbol {
        self.tags.remove(&t);
        if self.range_tvars.contains(&t) {
            let fresh = t.fresh();
            self.insert_tag(t, intern_tag(Tag::Var(fresh)));
            fresh
        } else {
            t
        }
    }

    /// Copy-on-write [`Self::enter_tag_binder_mut`].
    fn enter_tag_binder(&self, t: Symbol) -> (Cow<'_, Subst>, Symbol) {
        if !self.tags.contains_key(&t) && !self.range_tvars.contains(&t) {
            return (Cow::Borrowed(self), t);
        }
        let mut sub = self.clone();
        let t2 = sub.enter_tag_binder_mut(t);
        (Cow::Owned(sub), t2)
    }

    /// Like [`Self::enter_tag_binder_mut`] for region binders.
    fn enter_rgn_binder_mut(&mut self, r: Symbol) -> Symbol {
        self.rgns.remove(&r);
        if self.range_rvars.contains(&r) {
            let fresh = r.fresh();
            self.insert_rgn(r, Region::Var(fresh));
            fresh
        } else {
            r
        }
    }

    /// Copy-on-write [`Self::enter_rgn_binder_mut`].
    fn enter_rgn_binder(&self, r: Symbol) -> (Cow<'_, Subst>, Symbol) {
        if !self.rgns.contains_key(&r) && !self.range_rvars.contains(&r) {
            return (Cow::Borrowed(self), r);
        }
        let mut sub = self.clone();
        let r2 = sub.enter_rgn_binder_mut(r);
        (Cow::Owned(sub), r2)
    }

    /// Like [`Self::enter_tag_binder_mut`] for α binders.
    fn enter_alpha_binder_mut(&mut self, a: Symbol) -> Symbol {
        self.alphas.remove(&a);
        if self.range_avars.contains(&a) {
            let fresh = a.fresh();
            self.insert_alpha(a, intern_ty(Ty::Alpha(fresh)));
            fresh
        } else {
            a
        }
    }

    /// Copy-on-write [`Self::enter_alpha_binder_mut`].
    fn enter_alpha_binder(&self, a: Symbol) -> (Cow<'_, Subst>, Symbol) {
        if !self.alphas.contains_key(&a) && !self.range_avars.contains(&a) {
            return (Cow::Borrowed(self), a);
        }
        let mut sub = self.clone();
        let a2 = sub.enter_alpha_binder_mut(a);
        (Cow::Owned(sub), a2)
    }

    /// Value binders never capture (ranges are values whose value variables
    /// are not tracked — runtime substitution ranges are closed), but we
    /// still remove the binder from the domain to respect shadowing.
    fn enter_val_binder(&self, x: Symbol) -> Cow<'_, Subst> {
        if !self.vals.contains_key(&x) {
            return Cow::Borrowed(self);
        }
        let mut sub = self.clone();
        sub.vals.remove(&x);
        Cow::Owned(sub)
    }

    // ----- application --------------------------------------------------

    /// Applies the substitution to a region.
    pub fn region(&self, rho: &Region) -> Region {
        match rho {
            Region::Var(r) => self.rgns.get(r).copied().unwrap_or(*rho),
            Region::Name(_) => *rho,
        }
    }

    /// Applies the substitution to a tag.
    pub fn tag(&self, tau: &Tag) -> Tag {
        if self.tags.is_empty() {
            return tau.clone();
        }
        match tau {
            Tag::Var(t) => self
                .tags
                .get(t)
                .map_or_else(|| tau.clone(), |id| id.node().clone()),
            Tag::AnyArrow(t) => match self.tags.get(t).map(|id| id.node()) {
                // An `AnyArrow(t)` refinement follows `t` under renaming;
                // substituting a concrete arrow for `t` collapses it.
                Some(Tag::Var(t2)) => Tag::AnyArrow(*t2),
                Some(concrete @ Tag::Arrow(_)) => concrete.clone(),
                Some(Tag::AnyArrow(t2)) => Tag::AnyArrow(*t2),
                Some(other) => other.clone(),
                None => tau.clone(),
            },
            Tag::Int => Tag::Int,
            Tag::Prod(a, b) => Tag::Prod(self.tag_id(*a), self.tag_id(*b)),
            Tag::Arrow(args) => Tag::Arrow(args.iter().map(|a| self.tag_id(*a)).collect()),
            Tag::Exist(t, body) => {
                let (sub, t2) = self.enter_tag_binder(*t);
                Tag::Exist(t2, sub.tag_id(*body))
            }
            Tag::Lam(t, body) => {
                let (sub, t2) = self.enter_tag_binder(*t);
                Tag::Lam(t2, sub.tag_id(*body))
            }
            Tag::App(f, a) => Tag::App(self.tag_id(*f), self.tag_id(*a)),
        }
    }

    /// Applies the substitution to an interned tag, skipping subtrees whose
    /// free-variable fingerprint misses the domain: the no-op case returns
    /// the *same* id, preserving sharing (and any memoized results keyed by
    /// it) in O(domain) time.
    pub fn tag_id(&self, id: TagId) -> TagId {
        if self.tags.is_empty() || !touches(intern::tag_fv(id), &self.tags) {
            return id;
        }
        if let Tag::Var(t) = id.node() {
            if let Some(&tau) = self.tags.get(t) {
                return tau;
            }
        }
        intern_tag(self.tag(id.node()))
    }

    /// Applies the substitution to a type.
    pub fn ty(&self, sigma: &Ty) -> Ty {
        // Types mention tags, regions and αs but never value variables, so
        // a vals-only substitution — every machine `let` step — is the
        // identity on types.
        if self.tags.is_empty() && self.rgns.is_empty() && self.alphas.is_empty() {
            return sigma.clone();
        }
        match sigma {
            Ty::Int => Ty::Int,
            Ty::Prod(a, b) => Ty::Prod(self.ty_id(*a), self.ty_id(*b)),
            Ty::Code { tvars, rvars, args } => {
                let mut sub = self.clone();
                let mut tvs = Vec::with_capacity(tvars.len());
                for (t, k) in tvars.iter() {
                    tvs.push((sub.enter_tag_binder_mut(*t), *k));
                }
                let mut rvs = Vec::with_capacity(rvars.len());
                for r in rvars.iter() {
                    rvs.push(sub.enter_rgn_binder_mut(*r));
                }
                Ty::Code {
                    tvars: tvs.into(),
                    rvars: rvs.into(),
                    args: args.iter().map(|a| sub.ty_id(*a)).collect(),
                }
            }
            Ty::ExistTag { tvar, kind, body } => {
                let (sub, t2) = self.enter_tag_binder(*tvar);
                Ty::ExistTag {
                    tvar: t2,
                    kind: *kind,
                    body: sub.ty_id(*body),
                }
            }
            Ty::At(inner, rho) => Ty::At(self.ty_id(*inner), self.region(rho)),
            Ty::M(rho, tag) => Ty::M(self.region(rho), self.tag_id(*tag)),
            Ty::C(from, to, tag) => Ty::C(self.region(from), self.region(to), self.tag_id(*tag)),
            Ty::MGen(y, o, tag) => Ty::MGen(self.region(y), self.region(o), self.tag_id(*tag)),
            Ty::Alpha(a) => self
                .alphas
                .get(a)
                .map_or_else(|| sigma.clone(), |id| id.node().clone()),
            Ty::ExistAlpha {
                avar,
                regions,
                body,
            } => {
                let regions = regions.iter().map(|r| self.region(r)).collect();
                let (sub, a2) = self.enter_alpha_binder(*avar);
                Ty::ExistAlpha {
                    avar: a2,
                    regions,
                    body: sub.ty_id(*body),
                }
            }
            Ty::Trans {
                tags,
                regions,
                args,
                rho,
            } => Ty::Trans {
                tags: tags.iter().map(|t| self.tag_id(*t)).collect(),
                regions: regions.iter().map(|r| self.region(r)).collect(),
                args: args.iter().map(|a| self.ty_id(*a)).collect(),
                rho: self.region(rho),
            },
            Ty::Left(t) => Ty::Left(self.ty_id(*t)),
            Ty::Right(t) => Ty::Right(self.ty_id(*t)),
            Ty::Sum(a, b) => Ty::Sum(self.ty_id(*a), self.ty_id(*b)),
            Ty::ExistRgn { rvar, bound, body } => {
                let bound = bound.iter().map(|r| self.region(r)).collect();
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                Ty::ExistRgn {
                    rvar: r2,
                    bound,
                    body: sub.ty_id(*body),
                }
            }
        }
    }

    /// Applies the substitution to an interned type, with the same
    /// fingerprint-based no-op skip as [`Self::tag_id`] — checked per
    /// namespace against the type's [`intern::TyFv`].
    pub fn ty_id(&self, id: TyId) -> TyId {
        // As in `ty`: a vals-only substitution is the identity on types.
        if self.tags.is_empty() && self.rgns.is_empty() && self.alphas.is_empty() {
            return id;
        }
        let fv = intern::ty_fv(id);
        let miss = (self.tags.is_empty() || !touches(&fv.tvars, &self.tags))
            && (self.rgns.is_empty() || !touches(&fv.rvars, &self.rgns))
            && (self.alphas.is_empty() || !touches(&fv.avars, &self.alphas));
        if miss {
            return id;
        }
        if let Ty::Alpha(a) = id.node() {
            if let Some(&sigma) = self.alphas.get(a) {
                return sigma;
            }
        }
        intern_ty(self.ty(id.node()))
    }

    /// Do all four free-variable namespaces of `fv` miss this domain?
    fn misses(&self, fv: &intern::NodeFv) -> bool {
        (self.tags.is_empty() || !touches(&fv.tvars, &self.tags))
            && (self.rgns.is_empty() || !touches(&fv.rvars, &self.rgns))
            && (self.alphas.is_empty() || !touches(&fv.avars, &self.alphas))
            && (self.vals.is_empty() || !touches(&fv.xvars, &self.vals))
    }

    /// Applies the substitution to a value.
    pub fn value(&self, v: &Value) -> Value {
        if self.is_empty() {
            return v.clone();
        }
        match v {
            Value::Int(_) | Value::Addr(..) => v.clone(),
            Value::Var(x) => self.vals.get(x).cloned().unwrap_or_else(|| v.clone()),
            Value::Pair(a, b) => Value::Pair(self.value_id(*a), self.value_id(*b)),
            Value::PackTag {
                tvar,
                kind,
                tag,
                val,
                body_ty,
            } => {
                let tag = self.tag_id(*tag);
                let val = self.value_id(*val);
                let (sub, t2) = self.enter_tag_binder(*tvar);
                Value::PackTag {
                    tvar: t2,
                    kind: *kind,
                    tag,
                    val,
                    body_ty: sub.ty_id(*body_ty),
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
                let witness = self.ty_id(*witness);
                let val = self.value_id(*val);
                let (sub, a2) = self.enter_alpha_binder(*avar);
                Value::PackAlpha {
                    avar: a2,
                    regions,
                    witness,
                    val,
                    body_ty: sub.ty_id(*body_ty),
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
                let val = self.value_id(*val);
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                Value::PackRgn {
                    rvar: r2,
                    bound,
                    witness,
                    val,
                    body_ty: sub.ty_id(*body_ty),
                }
            }
            Value::TagApp(f, tags, regions) => Value::TagApp(
                self.value_id(*f),
                tags.iter().map(|t| self.tag_id(*t)).collect(),
                regions.iter().map(|r| self.region(r)).collect(),
            ),
            Value::Code(def) => Value::Code(Arc::new(self.code_def(def))),
            Value::Inl(x) => Value::Inl(self.value_id(*x)),
            Value::Inr(x) => Value::Inr(self.value_id(*x)),
        }
    }

    /// Applies the substitution to an interned value, skipping subtrees
    /// whose four-namespace fingerprint misses the domain: the no-op case
    /// returns the *same* id, preserving sharing in O(domain) time.
    pub fn value_id(&self, id: ValId) -> ValId {
        if self.is_empty() {
            return id;
        }
        if self.misses(intern::value_fv(id)) {
            intern::note_val_skip();
            return id;
        }
        intern_value(self.value(id.node()))
    }

    /// The no-op half of [`Self::value_id`]: `Some(id)` when the
    /// substitution provably leaves `id` untouched (empty domain or a
    /// fingerprint miss), `None` when a real rewrite — and hence a fresh
    /// intern — would be needed. Lazy allocation paths use this to keep an
    /// existing identity without paying for a new one.
    pub fn value_id_noop(&self, id: ValId) -> Option<ValId> {
        if self.is_empty() {
            return Some(id);
        }
        if self.misses(intern::value_fv(id)) {
            intern::note_val_skip();
            return Some(id);
        }
        None
    }

    /// Applies the substitution to a code definition (respecting its own
    /// binders).
    pub fn code_def(&self, def: &CodeDef) -> CodeDef {
        let mut sub = self.clone();
        let mut tvs = Vec::with_capacity(def.tvars.len());
        for (t, k) in &def.tvars {
            tvs.push((sub.enter_tag_binder_mut(*t), *k));
        }
        let mut rvs = Vec::with_capacity(def.rvars.len());
        for r in &def.rvars {
            rvs.push(sub.enter_rgn_binder_mut(*r));
        }
        let mut params = Vec::with_capacity(def.params.len());
        for (x, t) in &def.params {
            params.push((*x, sub.ty_id(*t)));
        }
        for (x, _) in &def.params {
            sub.vals.remove(x);
        }
        CodeDef {
            name: def.name,
            tvars: tvs,
            rvars: rvs,
            params,
            body: sub.term(&def.body),
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

    /// Applies the substitution to a term.
    pub fn term(&self, e: &Term) -> Term {
        if self.is_empty() {
            return e.clone();
        }
        match e {
            Term::App {
                f,
                tags,
                regions,
                args,
            } => Term::App {
                f: self.value(f),
                tags: tags.iter().map(|t| self.tag_id(*t)).collect(),
                regions: regions.iter().map(|r| self.region(r)).collect(),
                args: args.iter().map(|v| self.value(v)).collect(),
            },
            Term::Let { x, op, body } => {
                // Let chains are the program spine and can be thousands of
                // bindings deep (tree literals, CPS sequences); walk them
                // iteratively to keep stack use constant. The walk stops as
                // soon as the remaining substitution cannot touch the
                // suffix — shadowing shrinks the domain, and the suffix's
                // free-variable fingerprint is a memoized O(domain) probe —
                // so a machine step `[v/x] body` rebuilds only the prefix
                // up to the last use of `x`, and the (potentially
                // thousands-deep) suffix keeps its shared id untouched.
                let mut sub = Cow::Borrowed(self);
                let x0 = *x;
                let op0 = sub.op(op);
                if sub.vals.contains_key(x) {
                    sub.to_mut().vals.remove(x);
                }
                let mut rest: Vec<(Symbol, Op)> = Vec::new();
                let mut tail = *body;
                let mut out = loop {
                    if sub.is_empty() {
                        break tail;
                    }
                    if sub.misses(intern::term_fv(tail)) {
                        intern::note_term_skip();
                        break tail;
                    }
                    match tail.node() {
                        Term::Let { x, op, body } => {
                            rest.push((*x, sub.op(op)));
                            if sub.vals.contains_key(x) {
                                sub.to_mut().vals.remove(x);
                            }
                            tail = *body;
                        }
                        _ => break sub.term_id(tail),
                    }
                };
                for (x, op) in rest.into_iter().rev() {
                    out = intern_term(Term::Let { x, op, body: out });
                }
                Term::Let {
                    x: x0,
                    op: op0,
                    body: out,
                }
            }
            Term::Halt(v) => Term::Halt(self.value(v)),
            Term::IfGc { rho, full, cont } => Term::IfGc {
                rho: self.region(rho),
                full: self.term_id(*full),
                cont: self.term_id(*cont),
            },
            Term::OpenTag { pkg, tvar, x, body } => {
                let pkg = self.value(pkg);
                let (sub, t2) = self.enter_tag_binder(*tvar);
                let sub = sub.enter_val_binder(*x);
                Term::OpenTag {
                    pkg,
                    tvar: t2,
                    x: *x,
                    body: sub.term_id(*body),
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
                    body: sub.term_id(*body),
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
                    body: sub.term_id(*body),
                }
            }
            Term::LetRegion { rvar, body } => {
                let (sub, r2) = self.enter_rgn_binder(*rvar);
                Term::LetRegion {
                    rvar: r2,
                    body: sub.term_id(*body),
                }
            }
            Term::Only { regions, body } => Term::Only {
                regions: regions.iter().map(|r| self.region(r)).collect(),
                body: self.term_id(*body),
            },
            Term::Typecase {
                tag,
                int_arm,
                arrow_arm,
                prod_arm,
                exist_arm,
            } => {
                let tag = self.tag_id(*tag);
                let int_arm = self.term_id(*int_arm);
                let arrow_arm = self.term_id(*arrow_arm);
                let (t1, t2, pe) = prod_arm;
                let (s1, t1b) = self.enter_tag_binder(*t1);
                let (s2, t2b) = s1.enter_tag_binder(*t2);
                let prod_arm = (t1b, t2b, s2.term_id(*pe));
                let (te, ee) = exist_arm;
                let (s3, teb) = self.enter_tag_binder(*te);
                let exist_arm = (teb, s3.term_id(*ee));
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
                    left: sub.term_id(*left),
                    right: sub.term_id(*right),
                }
            }
            Term::Set { dst, src, body } => Term::Set {
                dst: self.value(dst),
                src: self.value(src),
                body: self.term_id(*body),
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
                let tag = self.tag_id(*tag);
                let v = self.value(v);
                let sub = self.enter_val_binder(*x);
                Term::Widen {
                    x: *x,
                    from,
                    to,
                    tag,
                    v,
                    body: sub.term_id(*body),
                }
            }
            Term::IfReg { r1, r2, eq, ne } => Term::IfReg {
                r1: self.region(r1),
                r2: self.region(r2),
                eq: self.term_id(*eq),
                ne: self.term_id(*ne),
            },
            Term::If0 {
                scrut,
                zero,
                nonzero,
            } => Term::If0 {
                scrut: self.value(scrut),
                zero: self.term_id(*zero),
                nonzero: self.term_id(*nonzero),
            },
        }
    }

    /// Applies the substitution to an interned term, with the same
    /// fingerprint-based no-op skip as [`Self::value_id`]. This is what
    /// makes the Fig. 5 machine's continuation "clones" plain u32 copies:
    /// a runtime substitution whose domain misses a continuation's free
    /// variables hands the same id back untouched.
    pub fn term_id(&self, id: TermId) -> TermId {
        if self.is_empty() {
            return id;
        }
        if self.misses(intern::term_fv(id)) {
            intern::note_term_skip();
            return id;
        }
        intern_term(self.term(id.node()))
    }
}

// ----- free variables ----------------------------------------------------

/// Collects the free tag/region/α variables mentioned inside a value (in its
/// type annotations and embedded tags).
///
/// Backed by the per-node fingerprint [`intern::value_fv`]. Unlike the
/// pre-interning version, code blocks are *not* assumed closed — their
/// (normally empty) free variables through the block's own binders are
/// reported honestly, so the capture-check sets stay sound even on
/// ill-typed inputs.
pub fn value_free_vars<S1: BuildHasher, S2: BuildHasher, S3: BuildHasher>(
    v: &Value,
    tvars: &mut HashSet<Symbol, S1>,
    rvars: &mut HashSet<Symbol, S2>,
    avars: &mut HashSet<Symbol, S3>,
) {
    let fv = intern::value_fv(v.id());
    tvars.extend(fv.tvars.iter().copied());
    rvars.extend(fv.rvars.iter().copied());
    avars.extend(fv.avars.iter().copied());
}

/// Collects every region (variable or name) mentioned free in a type.
/// Used for the `Γ|∆′` restriction of the `only` rule (§6.4).
pub fn ty_regions(sigma: &Ty) -> HashSet<Region> {
    fn go(sigma: &Ty, bound: &mut Vec<Symbol>, out: &mut HashSet<Region>) {
        let add = |rho: &Region, bound: &Vec<Symbol>, out: &mut HashSet<Region>| match rho {
            Region::Var(r) => {
                if !bound.contains(r) {
                    out.insert(*rho);
                }
            }
            Region::Name(_) => {
                out.insert(*rho);
            }
        };
        match sigma {
            Ty::Int | Ty::Alpha(_) => {}
            Ty::Prod(a, b) | Ty::Sum(a, b) => {
                go(a, bound, out);
                go(b, bound, out);
            }
            Ty::Left(a) | Ty::Right(a) => go(a, bound, out),
            Ty::Code { rvars, args, .. } => {
                let n = rvars.len();
                bound.extend(rvars.iter().copied());
                for a in args.iter() {
                    go(a, bound, out);
                }
                bound.truncate(bound.len() - n);
            }
            Ty::ExistTag { body, .. } => go(body, bound, out),
            Ty::At(inner, rho) => {
                go(inner, bound, out);
                add(rho, bound, out);
            }
            Ty::M(rho, _) => add(rho, bound, out),
            Ty::C(a, b, _) | Ty::MGen(a, b, _) => {
                add(a, bound, out);
                add(b, bound, out);
            }
            Ty::ExistAlpha { regions, body, .. } => {
                for r in regions.iter() {
                    add(r, bound, out);
                }
                go(body, bound, out);
            }
            Ty::Trans {
                regions, args, rho, ..
            } => {
                add(rho, bound, out);
                for r in regions.iter() {
                    add(r, bound, out);
                }
                for a in args.iter() {
                    go(a, bound, out);
                }
            }
            Ty::ExistRgn {
                rvar,
                bound: bd,
                body,
            } => {
                for r in bd.iter() {
                    add(r, bound, out);
                }
                bound.push(*rvar);
                go(body, bound, out);
                bound.pop();
            }
        }
    }
    let mut out = HashSet::new();
    go(sigma, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Kind;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn tag_substitution_basic() {
        let t = s("t");
        let tau = Tag::prod(Tag::Var(t), Tag::Int);
        let out = Subst::one_tag(t, Tag::Int).tag(&tau);
        assert_eq!(out, Tag::prod(Tag::Int, Tag::Int));
    }

    #[test]
    fn tag_substitution_respects_shadowing() {
        let t = s("t");
        let tau = Tag::lam(t, Tag::Var(t));
        let out = Subst::one_tag(t, Tag::Int).tag(&tau);
        // The bound t must not be replaced.
        match out {
            Tag::Lam(b, body) => assert_eq!(*body, Tag::Var(b)),
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn tag_substitution_avoids_capture() {
        let t = s("t");
        let u = s("u");
        // λu. t   with  [u/t]  must not produce λu.u.
        let tau = Tag::lam(u, Tag::Var(t));
        let out = Subst::one_tag(t, Tag::Var(u)).tag(&tau);
        match out {
            Tag::Lam(b, body) => {
                assert_ne!(b, u, "binder must be renamed");
                assert_eq!(*body, Tag::Var(u));
            }
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn region_substitution_in_types() {
        let r = s("r");
        let sigma = Ty::Int.at(Region::Var(r));
        let out = Subst::one_rgn(r, Region::cd()).ty(&sigma);
        assert_eq!(out, Ty::Int.at(Region::cd()));
    }

    #[test]
    fn region_substitution_stops_at_binders() {
        let r = s("r");
        let sigma = Ty::Code {
            tvars: std::sync::Arc::from(vec![]),
            rvars: std::sync::Arc::from(vec![r]),
            args: std::sync::Arc::from(vec![Ty::Int.at(Region::Var(r)).id()]),
        };
        let out = Subst::one_rgn(r, Region::cd()).ty(&sigma);
        assert_eq!(out, sigma, "bound region variables are untouched");
    }

    #[test]
    fn alpha_substitution() {
        let a = s("alpha");
        let sigma = Ty::prod(Ty::Alpha(a), Ty::Int);
        let out = Subst::one_alpha(a, Ty::Int).ty(&sigma);
        assert_eq!(out, Ty::prod(Ty::Int, Ty::Int));
    }

    #[test]
    fn value_substitution_in_terms() {
        let x = s("x");
        let e = Term::Halt(Value::Var(x));
        let out = Subst::one_val(x, Value::Int(7)).term(&e);
        assert_eq!(out, Term::Halt(Value::Int(7)));
    }

    #[test]
    fn value_substitution_respects_let_shadowing() {
        let x = s("x");
        let e = Term::let_(x, Op::Val(Value::Int(1)), Term::Halt(Value::Var(x)));
        let out = Subst::one_val(x, Value::Int(7)).term(&e);
        // Inner x is rebound; the halt must still see the let-bound x.
        match out {
            Term::Let { body, .. } => assert_eq!(*body, Term::Halt(Value::Var(x))),
            _ => panic!("expected let"),
        }
    }

    #[test]
    fn m_type_substitutes_both_parts() {
        let r = s("r");
        let t = s("t");
        let sigma = Ty::m(Region::Var(r), Tag::Var(t));
        let out = Subst::new()
            .with_rgn(r, Region::Name(crate::syntax::RegionName(4)))
            .with_tag(t, Tag::Int)
            .ty(&sigma);
        assert_eq!(
            out,
            Ty::m(Region::Name(crate::syntax::RegionName(4)), Tag::Int)
        );
    }

    #[test]
    fn anyarrow_collapses_to_concrete_arrow() {
        let t = s("t");
        let arrow = Tag::arrow([Tag::Int]);
        let out = Subst::one_tag(t, arrow.clone()).tag(&Tag::AnyArrow(t));
        assert_eq!(out, arrow);
    }

    #[test]
    fn free_tag_vars_of_exist() {
        let t = s("t");
        let u = s("u");
        let tau = Tag::exist(t, Tag::prod(Tag::Var(t), Tag::Var(u)));
        assert_eq!(intern::tag_fv(tau.id()), [u]);
    }

    #[test]
    fn ty_regions_finds_names_and_vars() {
        let r = s("r");
        let sigma = Ty::prod(
            Ty::Int.at(Region::Var(r)),
            Ty::Int.at(Region::Name(crate::syntax::RegionName(2))),
        );
        let rs = ty_regions(&sigma);
        assert!(rs.contains(&Region::Var(r)));
        assert!(rs.contains(&Region::Name(crate::syntax::RegionName(2))));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn ty_regions_skips_bound() {
        let r = s("r");
        let sigma = Ty::exist_rgn(r, [Region::cd()], Ty::Int.at(Region::Var(r)));
        let rs = ty_regions(&sigma);
        assert!(rs.contains(&Region::cd()));
        assert!(!rs.contains(&Region::Var(r)));
    }

    #[test]
    fn typecase_substitution_enters_arms() {
        let t = s("t");
        let t1 = s("t1");
        let t2 = s("t2");
        let te = s("te");
        let e = Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: Term::Halt(Value::Int(0)).id(),
            arrow_arm: Term::Halt(Value::Int(1)).id(),
            prod_arm: (t1, t2, Term::Halt(Value::Int(2)).id()),
            exist_arm: (te, Term::Halt(Value::Int(3)).id()),
        };
        let out = Subst::one_tag(t, Tag::Int).term(&e);
        match out {
            Term::Typecase { tag, .. } => assert_eq!(tag, Tag::Int.into()),
            _ => panic!("expected typecase"),
        }
    }

    #[test]
    fn pack_tag_value_substitution() {
        let t = s("t");
        let x = s("x");
        let v = Value::PackTag {
            tvar: t,
            kind: Kind::Omega,
            tag: Tag::Int.into(),
            val: Value::Var(x).id(),
            body_ty: Ty::m(Region::cd(), Tag::Var(t)).into(),
        };
        let out = Subst::one_val(x, Value::Int(9)).value(&v);
        match out {
            Value::PackTag { val, .. } => assert_eq!(*val, Value::Int(9)),
            _ => panic!("expected package"),
        }
    }
}
