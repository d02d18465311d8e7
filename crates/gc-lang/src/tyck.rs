//! The static semantics of λGC: Fig. 6, extended with Fig. 8 (λGCforw) and
//! Fig. 10 (λGCgen).
//!
//! The checker is judgement-directed: [`Checker::check_term`] implements
//! `Ψ; ∆; Θ; Φ; Γ ⊢ e`, [`Checker::synth_value`] and
//! [`Checker::check_value`] implement `Ψ; ∆; Θ; Φ; Γ ⊢ v : σ` (checking
//! mode exists because λGCforw's sum subsumption rules
//! `v : σ₁ ⟹ v : σ₁ + σ₂` are not syntax-directed), and
//! [`Checker::ty_wf`] implements `∆; Θ; Φ ⊢ σ`.
//!
//! Every judgement takes and returns types as interned [`TyId`]s, and Γ
//! maps variables to them: a synthesized type is normalized, compared and
//! substituted by id, through the memoized [`normalize_ty_id`] and the
//! α-canonical [`intern::ty_alpha_eq`], without rebuilding a node it was
//! handed.
//!
//! Departures from the paper's figures, each marked `paper:` at its use
//! site:
//!
//! * the `λ` arm of `typecase` on a tag variable `t` refines `t` to
//!   [`crate::syntax::Tag::AnyArrow`] (Fig. 6 leaves the branch unrefined,
//!   which cannot typecheck Fig. 4's own collector);
//! * `put[ρ]` statically requires `ρ ≠ cd` (the paper separates code and
//!   data informally in §4.3/§6.2; without this restriction progress would
//!   fail on a `put[cd]`);
//! * `let region r` requires `r` not already in scope (the paper assumes
//!   unique binders, Appendix A).

use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use ps_ir::scope::{unbind_all, Scope};
use ps_ir::Symbol;

use crate::error::{dialect_err, form_err, type_err, LangError, Result};
use crate::intern::{self, intern_tag, intern_ty, TagId, TermId, TyId};
use crate::machine::Program;
use crate::memory::Memory;
use crate::moper::normalize_ty_id;
use crate::subst::{ty_regions, Subst};
use crate::syntax::{CodeDef, Dialect, Kind, Op, Region, RegionName, Tag, Term, Ty, Value};
use crate::tags::{self, Equiv};

/// The static environments `∆; Θ; Φ; Γ` of Fig. 6.
///
/// The judgements that take it mutably ([`Checker::check_term`],
/// [`Checker::ty_wf`]) extend it in place at each binder and restore what
/// the binder shadowed on every exit path, so a caller gets it back as it
/// passed it, whatever the verdict.
#[derive(Clone, Debug, Default)]
pub struct Ctx {
    /// `∆` — regions in scope (`cd` is always implicitly present).
    pub delta: BTreeSet<Region>,
    /// `Θ` — tag variables and their kinds.
    pub theta: HashMap<Symbol, Kind>,
    /// `Φ` — type variables `α` and their region-set bounds.
    pub phi: HashMap<Symbol, Vec<Region>>,
    /// `Γ` — value variables and their types.
    pub gamma: HashMap<Symbol, TyId>,
    /// Bounds of region variables introduced by `open` on region
    /// existentials: §8 notes these existentials are "closer to a bounded
    /// quantification", and the generational subtyping below needs the
    /// bound (`r ∈ ∆` means a value at `M_{r,ρo}(τ)` inhabits
    /// `M_{ρy,ρo}(τ)` whenever `∆ ⊆ {ρy, ρo}`).
    pub rbounds: HashMap<Symbol, Vec<Region>>,
}

impl Ctx {
    /// The empty context (top level).
    pub fn empty() -> Ctx {
        Ctx::default()
    }

    /// Is `ρ` in `∆` (or `cd`, which always is)?
    pub fn in_delta(&self, rho: &Region) -> bool {
        rho.is_cd() || self.delta.contains(rho)
    }
}

/// The λGC typechecker for a fixed dialect and memory typing.
///
/// The memory typing `Ψ` is read where it lives, never copied: a machine
/// memory keeps it as one interned type per slot beside the slot
/// ([`Checker::from_memory`]), and certification's `Ψ|cd`
/// ([`Checker::check_program`]) is one type per code block. The rules that
/// restrict `Ψ` (`only`, `widen`, code blocks) narrow a region filter over
/// that source. Types go in and out of every judgement as [`TyId`]s, the
/// form `Ψ`, Γ and the syntax already hold them in.
///
/// # Examples
///
/// ```
/// use ps_gc_lang::machine::Program;
/// use ps_gc_lang::syntax::{Dialect, Term, Value};
/// use ps_gc_lang::tyck::Checker;
///
/// let ok = Program {
///     dialect: Dialect::Basic,
///     code: vec![],
///     main: Term::Halt(Value::Int(0)),
/// };
/// Checker::check_program(&ok).unwrap();
///
/// let bad = Program {
///     dialect: Dialect::Basic,
///     code: vec![],
///     main: Term::Halt(Value::pair(Value::Int(1), Value::Int(2))),
/// };
/// assert!(Checker::check_program(&bad).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct Checker<'p> {
    dialect: Dialect,
    psi: Psi<'p>,
    /// `Ψ|∆′`: `Some(names)` hides every data region but `names` (`cd` is
    /// always kept); `None` keeps all of `Dom(Ψ)`.
    keep: Option<Vec<RegionName>>,
}

/// Where a [`Checker`] reads `Ψ` from.
#[derive(Clone, Copy, Debug)]
enum Psi<'p> {
    /// `Ψ|cd` alone: `tys[i]` types `cd.i`.
    Code(&'p [TyId]),
    /// A machine memory's `Ψ`, read in place from its pages.
    Memory(&'p Memory),
}

impl<'p> Checker<'p> {
    /// A checker with an empty `Ψ` (for standalone code).
    pub fn new(dialect: Dialect) -> Checker<'static> {
        Checker::with_code(dialect, &[])
    }

    /// A checker whose `Ψ` is `Ψ|cd` with `tys[i]` the type of `cd.i` (the
    /// table certification checks code blocks under).
    fn with_code(dialect: Dialect, tys: &'p [TyId]) -> Checker<'p> {
        Checker {
            dialect,
            psi: Psi::Code(tys),
            keep: None,
        }
    }

    /// A checker whose `Ψ` is a machine memory's, read in place (the memory
    /// must have been created with type tracking on, or only `cd` is
    /// typed). Nothing is copied, which is what keeps the incremental heap
    /// audit O(dirty work).
    pub fn from_memory(dialect: Dialect, mem: &Memory) -> Checker<'_> {
        Checker {
            dialect,
            psi: Psi::Memory(mem),
            keep: None,
        }
    }

    /// The dialect being checked.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// `Dom(Ψ)` as a `∆`: `cd`, plus the live regions of a tracked memory
    /// that the region filter keeps.
    pub fn psi_domain(&self) -> BTreeSet<Region> {
        let mut dom = BTreeSet::from([Region::cd()]);
        if let Psi::Memory(mem) = self.psi {
            if mem.config().track_types {
                dom.extend(
                    mem.region_names()
                        .filter(|n| self.keeps(*n))
                        .map(Region::Name),
                );
            }
        }
        dom
    }

    /// Does the region filter keep `nu`?
    fn keeps(&self, nu: RegionName) -> bool {
        nu.is_cd() || self.keep.as_ref().is_none_or(|k| k.contains(&nu))
    }

    fn psi_lookup(&self, nu: RegionName, loc: u32) -> Option<TyId> {
        if !self.keeps(nu) {
            return None;
        }
        match self.psi {
            Psi::Code(tys) if nu.is_cd() => tys.get(loc as usize).copied(),
            Psi::Code(_) => None,
            Psi::Memory(mem) => mem.psi_entry(nu, loc),
        }
    }

    /// `Ψ|∆′` — restrict to the given names plus `cd`. Only the region
    /// filter changes: it becomes the names both it and `keep` keep, and
    /// `Ψ` itself is shared, so checking n code blocks stays O(n).
    fn restrict_psi(&self, keep: &BTreeSet<Region>) -> Checker<'p> {
        let names = keep
            .iter()
            .filter_map(|r| match r {
                Region::Name(n) if self.keeps(*n) => Some(*n),
                _ => None,
            })
            .collect();
        Checker {
            dialect: self.dialect,
            psi: self.psi,
            keep: Some(names),
        }
    }

    fn require_dialect(&self, wanted: &[Dialect], what: &str) -> Result<()> {
        if wanted.contains(&self.dialect) {
            Ok(())
        } else {
            Err(dialect_err(format!(
                "{what} is not part of {}",
                self.dialect
            )))
        }
    }

    // ===== whole programs ================================================

    /// Checks a whole program: every code block in `cd`, in block order,
    /// then the main term under empty environments (Definition 6.3 without
    /// a data store).
    ///
    /// # Errors
    ///
    /// Returns the first kinding/typing error found, with context naming
    /// the offending code block.
    pub fn check_program(program: &Program) -> Result<()> {
        let cd: Vec<TyId> = program.code.iter().map(CodeDef::ty).collect();
        let checker = Checker::with_code(program.dialect, &cd);
        for def in &program.code {
            checker
                .check_code(def)
                .map_err(|e| e.in_context(format!("code block {}", def.name)))?;
        }
        checker
            .check_term(&mut Ctx::empty(), &program.main)
            .map_err(|e| e.in_context("main term"))
    }

    /// Checks a code block (the `λ[t̄:κ̄][r̄](x̄:σ̄).e` rule of Fig. 6):
    /// the body is typed under `Ψ|cd; cd, r̄; t̄:κ̄; ·; x̄:σ̄`, and every
    /// parameter type must be well formed under `cd, r̄; t̄; ·`.
    pub fn check_code(&self, def: &CodeDef) -> Result<()> {
        let mut ctx = Ctx::empty();
        for (t, k) in &def.tvars {
            if ctx.theta.insert(*t, *k).is_some() {
                return Err(type_err(format!(
                    "duplicate tag binder {t} in {}",
                    def.name
                )));
            }
        }
        for r in &def.rvars {
            if !ctx.delta.insert(Region::Var(*r)) {
                return Err(type_err(format!(
                    "duplicate region binder {r} in {}",
                    def.name
                )));
            }
        }
        let restricted = self.restrict_psi(&BTreeSet::new());
        for (x, sigma) in &def.params {
            restricted
                .ty_wf(&mut ctx, sigma)
                .map_err(|e| e.in_context(format!("parameter {x} of {}", def.name)))?;
            if ctx.gamma.insert(*x, *sigma).is_some() {
                return Err(type_err(format!("duplicate parameter {x} in {}", def.name)));
            }
        }
        restricted
            .check_term(&mut ctx, &def.body)
            .map_err(|e| e.in_context(format!("body of {}", def.name)))
    }

    // ===== type formation (∆; Θ; Φ ⊢ σ) ==================================

    /// The type-formation judgement `∆; Θ; Φ ⊢ σ` of Fig. 6 (left column),
    /// extended per Figs. 8 and 10.
    pub fn ty_wf(&self, ctx: &mut Ctx, sigma: &Ty) -> Result<()> {
        match sigma {
            Ty::Int => Ok(()),
            Ty::Prod(a, b) => {
                self.ty_wf(ctx, a)?;
                self.ty_wf(ctx, b)
            }
            Ty::Sum(a, b) => {
                self.require_dialect(&[Dialect::Forwarding], "sum type")?;
                self.ty_wf(ctx, a)?;
                self.ty_wf(ctx, b)
            }
            Ty::Left(a) | Ty::Right(a) => {
                self.require_dialect(&[Dialect::Forwarding], "tag-bit type")?;
                self.ty_wf(ctx, a)
            }
            Ty::Code { tvars, rvars, args } => {
                // Args well formed under {r̄}; Θ, t̄:κ̄; ·.
                // paper: Fig. 6's formation rule reads `{~r}; t̄:κ̄; ·`, but
                // Fig. 4's own `gc` parameter `f : ∀[][r](M_r(t)) → 0`
                // mentions gc's tag binder t, so Θ must be kept (as the
                // translucent-type rule does explicitly). Region and value
                // environments are still discarded — that is what closedness
                // of code is about.
                let mut inner = Ctx::empty();
                inner.theta = ctx.theta.clone();
                for (t, k) in tvars.iter() {
                    inner.theta.insert(*t, *k);
                }
                for r in rvars.iter() {
                    inner.delta.insert(Region::Var(*r));
                }
                for a in args.iter() {
                    self.ty_wf(&mut inner, a)?;
                }
                Ok(())
            }
            Ty::ExistTag { tvar, kind, body } => {
                let shadowed = ctx.theta.bind(*tvar, *kind);
                let verdict = self.ty_wf(ctx, body);
                ctx.theta.unbind(*tvar, shadowed);
                verdict
            }
            Ty::At(inner, rho) => {
                if !ctx.in_delta(rho) {
                    return Err(form_err(format!("region {rho} not in scope in σ at ρ")));
                }
                self.ty_wf(ctx, inner)
            }
            Ty::M(rho, tag) => {
                if !ctx.in_delta(rho) {
                    return Err(form_err(format!("region {rho} not in scope in M")));
                }
                tags::check_kind(tag, &ctx.theta, Kind::Omega)
            }
            Ty::C(from, to, tag) => {
                self.require_dialect(&[Dialect::Forwarding], "C operator")?;
                if !ctx.in_delta(from) || !ctx.in_delta(to) {
                    return Err(form_err("region not in scope in C".to_string()));
                }
                tags::check_kind(tag, &ctx.theta, Kind::Omega)
            }
            Ty::MGen(y, o, tag) => {
                self.require_dialect(&[Dialect::Generational], "two-index M operator")?;
                if !ctx.in_delta(y) || !ctx.in_delta(o) {
                    return Err(form_err("region not in scope in M_gen".to_string()));
                }
                tags::check_kind(tag, &ctx.theta, Kind::Omega)
            }
            Ty::Alpha(a) => {
                let bound = ctx
                    .phi
                    .get(a)
                    .ok_or_else(|| form_err(format!("unbound type variable {a}")))?;
                for r in bound {
                    if !ctx.in_delta(r) {
                        return Err(form_err(format!(
                            "type variable {a}'s bound region {r} not in scope"
                        )));
                    }
                }
                Ok(())
            }
            Ty::ExistAlpha {
                avar,
                regions,
                body,
            } => {
                for r in regions.iter() {
                    if !ctx.in_delta(r) {
                        return Err(form_err(format!("∃α bound region {r} not in scope")));
                    }
                }
                let shadowed = ctx.phi.bind(*avar, regions.to_vec());
                let verdict = self.ty_wf(ctx, body);
                ctx.phi.unbind(*avar, shadowed);
                verdict
            }
            Ty::Trans {
                tags: ts,
                regions,
                args,
                rho,
            } => {
                // paper: see the note on `Ty::Trans` in `syntax` — the
                // translucent type records its region instantiation rather
                // than quantifying, so args are checked in the ambient
                // environments with the recorded regions in scope.
                if !ctx.in_delta(rho) {
                    return Err(form_err(format!(
                        "region {rho} not in scope in translucent type"
                    )));
                }
                for r in regions.iter() {
                    if !ctx.in_delta(r) {
                        return Err(form_err(format!(
                            "region {r} not in scope in translucent type"
                        )));
                    }
                }
                for t in ts.iter() {
                    tags::kind_of(t, &ctx.theta)?;
                }
                for a in args.iter() {
                    self.ty_wf(ctx, a)?;
                }
                Ok(())
            }
            Ty::ExistRgn { rvar, bound, body } => {
                self.require_dialect(&[Dialect::Generational], "region existential")?;
                for r in bound.iter() {
                    if !ctx.in_delta(r) {
                        return Err(form_err(format!("∃r bound region {r} not in scope")));
                    }
                }
                let r = Region::Var(*rvar);
                let shadowed = ctx.delta.bind(r, ());
                let verdict = self.ty_wf(ctx, body);
                ctx.delta.unbind(r, shadowed);
                verdict
            }
        }
    }

    // ===== values ========================================================

    /// Synthesizes a type for a value (`Ψ; ∆; Θ; Φ; Γ ⊢ v : σ`).
    ///
    /// # Errors
    ///
    /// Fails on unbound variables, dangling addresses, ill-kinded package
    /// witnesses, and malformed tag applications.
    pub fn synth_value(&self, ctx: &Ctx, v: &Value) -> Result<TyId> {
        match v {
            Value::Int(_) => Ok(int_ty()),
            Value::Var(x) => ctx
                .gamma
                .get(x)
                .copied()
                .ok_or_else(|| type_err(format!("unbound variable {x}"))),
            Value::Addr(nu, loc) => {
                let sigma = self
                    .psi_lookup(*nu, *loc)
                    .ok_or_else(|| type_err(format!("no Ψ entry for address {nu}.{loc}")))?;
                Ok(intern_ty(Ty::At(sigma, Region::Name(*nu))))
            }
            Value::Pair(a, b) => Ok(intern_ty(Ty::Prod(
                self.synth_value(ctx, a)?,
                self.synth_value(ctx, b)?,
            ))),
            Value::PackTag {
                tvar,
                kind,
                tag,
                val,
                body_ty,
            } => {
                tags::check_kind(tag, &ctx.theta, *kind)?;
                let instantiated = Subst::one_tag(*tvar, *tag).ty_id(*body_ty);
                self.check_value(ctx, val, instantiated)
                    .map_err(|e| e.in_context("tag package payload"))?;
                Ok(intern_ty(Ty::ExistTag {
                    tvar: *tvar,
                    kind: *kind,
                    body: *body_ty,
                }))
            }
            Value::PackAlpha {
                avar,
                regions,
                witness,
                val,
                body_ty,
            } => {
                // ∆′; Θ; Φ|∆′ ⊢ σ₁ and v : σ₂[σ₁/α].
                let mut inner = Ctx::empty();
                inner.theta = ctx.theta.clone();
                inner.delta = regions.iter().copied().collect();
                inner.phi = ctx
                    .phi
                    .iter()
                    .filter(|(_, bound)| bound.iter().all(|r| r.is_cd() || regions.contains(r)))
                    .map(|(a, b)| (*a, b.clone()))
                    .collect();
                self.ty_wf(&mut inner, witness)
                    .map_err(|e| e.in_context("α-package witness"))?;
                let instantiated = Subst::one_alpha(*avar, *witness).ty_id(*body_ty);
                self.check_value(ctx, val, instantiated)
                    .map_err(|e| e.in_context("α-package payload"))?;
                Ok(intern_ty(Ty::ExistAlpha {
                    avar: *avar,
                    regions: regions.clone(),
                    body: *body_ty,
                }))
            }
            Value::PackRgn {
                rvar,
                bound,
                witness,
                val,
                body_ty,
            } => {
                self.require_dialect(&[Dialect::Generational], "region package")?;
                if !bound.contains(witness) {
                    return Err(type_err(format!(
                        "region package witness {witness} not in its bound"
                    )));
                }
                for r in bound.iter() {
                    if !ctx.in_delta(r) {
                        return Err(type_err(format!("region package bound {r} not in scope")));
                    }
                }
                let instantiated = intern_ty(Ty::At(
                    Subst::one_rgn(*rvar, *witness).ty_id(*body_ty),
                    *witness,
                ));
                self.check_value(ctx, val, instantiated)
                    .map_err(|e| e.in_context("region package payload"))?;
                Ok(intern_ty(Ty::ExistRgn {
                    rvar: *rvar,
                    bound: bound.clone(),
                    body: *body_ty,
                }))
            }
            Value::TagApp(f, ts, rhos) => {
                let fty = self.synth_normal(ctx, f)?;
                match fty.node() {
                    Ty::At(inner, rho) => match inner.node() {
                        Ty::Code { tvars, rvars, args } => {
                            if tvars.len() != ts.len() || rvars.len() != rhos.len() {
                                return Err(type_err(format!(
                                    "translucent application arity: code takes [{}][{}], given [{}][{}]",
                                    tvars.len(),
                                    rvars.len(),
                                    ts.len(),
                                    rhos.len()
                                )));
                            }
                            let mut sub = Subst::new();
                            for ((t, k), tau) in tvars.iter().zip(ts.iter()) {
                                tags::check_kind(tau, &ctx.theta, *k)?;
                                sub = sub.with_tag(*t, *tau);
                            }
                            for (r, nu) in rvars.iter().zip(rhos.iter()) {
                                if !ctx.in_delta(nu) {
                                    return Err(type_err(format!(
                                        "translucent region {nu} not in scope"
                                    )));
                                }
                                sub = sub.with_rgn(*r, *nu);
                            }
                            Ok(intern_ty(Ty::Trans {
                                tags: ts.clone(),
                                regions: rhos.clone(),
                                args: args.iter().map(|a| sub.ty_id(*a)).collect(),
                                rho: *rho,
                            }))
                        }
                        other => Err(type_err(format!(
                            "tag application of non-code value of type {other:?}"
                        ))),
                    },
                    other => Err(type_err(format!(
                        "tag application of non-address value of type {other:?}"
                    ))),
                }
            }
            Value::Code(def) => {
                self.check_code(def)?;
                Ok(def.ty())
            }
            Value::Inl(x) => {
                self.require_dialect(&[Dialect::Forwarding], "inl")?;
                Ok(intern_ty(Ty::Left(self.synth_value(ctx, x)?)))
            }
            Value::Inr(x) => {
                self.require_dialect(&[Dialect::Forwarding], "inr")?;
                Ok(intern_ty(Ty::Right(self.synth_value(ctx, x)?)))
            }
        }
    }

    /// Checks a value against an expected type, applying λGCforw's sum
    /// subsumption (`v : σ₁ ⟹ v : σ₁ + σ₂`) structurally through value
    /// forms, as the paper's value judgements do. The auditors pass a `Ψ`
    /// entry as it is stored.
    pub fn check_value(&self, ctx: &Ctx, v: &Value, expected: TyId) -> Result<()> {
        self.check_against(ctx, v, expected, true)
    }

    /// [`Self::check_value`], where `explain` only decides whether a failure
    /// carries a message: the sum rule tries `left`, then `right`, and
    /// throws both attempts' errors away, so the attempts run with `explain`
    /// off and fail without formatting one.
    fn check_against(&self, ctx: &Ctx, v: &Value, expected: TyId, explain: bool) -> Result<()> {
        let synth = self.synth_value(ctx, v);
        self.check_synthed(ctx, v, &synth, expected, explain)
    }

    /// [`Self::check_against`] given `synth`, the type synthesized for
    /// `v`: the sum rule's two attempts are on the same value, so they
    /// share the one synthesis.
    fn check_synthed(
        &self,
        ctx: &Ctx,
        v: &Value,
        synth: &Result<TyId>,
        expected: TyId,
        explain: bool,
    ) -> Result<()> {
        // Fast path: exact (synthesized) match, or the generational
        // subtyping below. `expected` is normalized once, up front: both the
        // fast path and the structural match below compare against the same
        // `norm`.
        let norm = normalize_ty_id(expected, self.dialect);
        if let Ok(t) = synth {
            if self.subty(ctx, normalize_ty_id(*t, self.dialect), norm) {
                return Ok(());
            }
        }
        match (norm.node(), v) {
            (Ty::Sum(a, b), _) => {
                let left = intern_ty(Ty::Left(*a));
                let right = intern_ty(Ty::Right(*b));
                self.check_synthed(ctx, v, synth, left, false)
                    .or_else(|_| self.check_synthed(ctx, v, synth, right, false))
                    .map_err(|_| self.mismatch(explain, v, norm, synth))
            }
            (Ty::Left(a), Value::Inl(inner)) => self.check_against(ctx, inner, *a, explain),
            (Ty::Right(b), Value::Inr(inner)) => self.check_against(ctx, inner, *b, explain),
            (Ty::Prod(a, b), Value::Pair(x, y)) => {
                self.check_against(ctx, x, *a, explain)?;
                self.check_against(ctx, y, *b, explain)
            }
            (
                Ty::ExistTag { tvar, kind, body },
                Value::PackTag {
                    kind: vk, tag, val, ..
                },
            ) => {
                if kind != vk {
                    return Err(self.mismatch(explain, v, norm, synth));
                }
                tags::check_kind(tag, &ctx.theta, *kind)?;
                let instantiated = Subst::one_tag(*tvar, *tag).ty_id(*body);
                self.check_against(ctx, val, instantiated, explain)
            }
            _ => Err(self.mismatch(explain, v, norm, synth)),
        }
    }

    /// Subtyping on (normalized) types. Beyond α-equivalence, this carries
    /// the generational-dialect coercions §8 treats as free:
    ///
    /// * `∃r∈∆₁.σ ≤ ∃r∈∆₂.σ` when `∆₁ ⊆ ∆₂` (the repacking
    ///   `⟨r∈{ρo}=ρo, x⟩` Fig. 11 performs "just to help the type system"
    ///   at the top of an object; widening the bound is sound because the
    ///   witness stays in the smaller set);
    /// * `M_{ρo,ρo}(τ) ≤ M_{ρy,ρo}(τ)` on stuck operators — data wholly in
    ///   the old generation inhabits the general mutator type, which is how
    ///   the collector's result (`M_{ro,ro}(t)`) flows back to the mutator
    ///   (`M_{ry,ro}(t)` at a fresh `ry`) in Fig. 11's `gc`.
    ///
    /// Products and references are covariant; everything else is invariant.
    fn subty(&self, ctx: &Ctx, a: TyId, b: TyId) -> bool {
        if intern::ty_alpha_eq(a, b) {
            return true;
        }
        match (a.node(), b.node()) {
            (Ty::MGen(ya, oa, ta), Ty::MGen(yb, ob, tb)) => {
                // Bounded quantification: r ∈ ∆ with ∆ (transitively)
                // within {yb, ob}.
                let index_ok =
                    ya == yb || ya == oa || region_within(ctx, ya, &[*yb, *ob], &mut Vec::new());
                oa == ob && tags::equiv_id(*ta, *tb, Equiv::Syntactic) && index_ok
            }
            (
                Ty::ExistRgn {
                    rvar: ra,
                    bound: da,
                    body: ba,
                },
                Ty::ExistRgn {
                    rvar: rb,
                    bound: db,
                    body: bb,
                },
            ) => {
                let subset = da
                    .iter()
                    .all(|r| region_within(ctx, r, db, &mut Vec::new()));
                let bb2 = Subst::one_rgn(*rb, Region::Var(*ra)).ty_id(*bb);
                subset && self.subty(ctx, *ba, bb2)
            }
            (Ty::Prod(a1, a2), Ty::Prod(b1, b2)) => {
                self.subty(ctx, *a1, *b1) && self.subty(ctx, *a2, *b2)
            }
            (Ty::At(ia, ra), Ty::At(ib, rb)) => ra == rb && self.subty(ctx, *ia, *ib),
            (
                Ty::ExistTag {
                    tvar: ta,
                    kind: ka,
                    body: ba,
                },
                Ty::ExistTag {
                    tvar: tb,
                    kind: kb,
                    body: bb,
                },
            ) => {
                let bb2 = Subst::one_tag(*tb, Tag::Var(*ta)).ty_id(*bb);
                ka == kb && self.subty(ctx, *ba, bb2)
            }
            _ => false,
        }
    }

    /// The failure of `v` against `expected`, message-free when `explain`
    /// is off (the caller discards it).
    fn mismatch(
        &self,
        explain: bool,
        v: &Value,
        expected: TyId,
        synth: &Result<TyId>,
    ) -> LangError {
        if !explain {
            return type_err(String::new());
        }
        match synth {
            Ok(t) => type_err(format!(
                "value has type {:?} but {:?} was expected",
                normalize_ty_id(*t, self.dialect),
                expected
            )),
            Err(e) => e.clone().in_context(format!("while checking value {v:?}")),
        }
    }

    // ===== operations ====================================================

    /// Synthesizes the type of an operation (`Ψ; ∆; Θ; Φ; Γ ⊢ op : σ`).
    pub fn synth_op(&self, ctx: &Ctx, op: &Op) -> Result<TyId> {
        match op {
            Op::Val(v) => self.synth_value(ctx, v),
            Op::Proj(i, v) => {
                let t = self.synth_normal(ctx, v)?;
                match t.node() {
                    Ty::Prod(a, b) => Ok(if *i == 1 { *a } else { *b }),
                    other => Err(type_err(format!(
                        "projection π{i} of non-pair type {other:?}"
                    ))),
                }
            }
            Op::Put(rho, v) => {
                if !ctx.in_delta(rho) {
                    return Err(type_err(format!("put into out-of-scope region {rho}")));
                }
                // paper: reject put[cd] statically so that progress holds;
                // §4.3 keeps cd data-free informally.
                if rho.is_cd() {
                    return Err(type_err("put into the code region".to_string()));
                }
                Ok(intern_ty(Ty::At(self.synth_value(ctx, v)?, *rho)))
            }
            Op::Get(v) => {
                let t = self.synth_normal(ctx, v)?;
                match t.node() {
                    Ty::At(inner, _) => Ok(*inner),
                    other => Err(type_err(format!("get of non-reference type {other:?}"))),
                }
            }
            Op::Strip(v) => {
                self.require_dialect(&[Dialect::Forwarding], "strip")?;
                let t = self.synth_normal(ctx, v)?;
                match t.node() {
                    Ty::Left(inner) | Ty::Right(inner) => Ok(*inner),
                    other => Err(type_err(format!("strip of untagged type {other:?}"))),
                }
            }
            Op::Prim(_, a, b) => {
                self.check_value(ctx, a, int_ty())?;
                self.check_value(ctx, b, int_ty())?;
                Ok(int_ty())
            }
        }
    }

    /// The normal form of the type synthesized for `v`, for the rules that
    /// take it apart.
    fn synth_normal(&self, ctx: &Ctx, v: &Value) -> Result<TyId> {
        Ok(normalize_ty_id(self.synth_value(ctx, v)?, self.dialect))
    }

    // ===== terms =========================================================

    /// The term judgement `Ψ; ∆; Θ; Φ; Γ ⊢ e`.
    pub fn check_term(&self, ctx: &mut Ctx, e: &Term) -> Result<()> {
        match e {
            Term::App {
                f,
                tags: ts,
                regions,
                args,
            } => self.check_app(ctx, f, ts, regions, args),
            Term::Let { .. } => {
                let mut shadowed = Vec::new();
                let verdict = self.check_let_spine(ctx, e, &mut shadowed);
                unbind_all(&mut ctx.gamma, shadowed);
                verdict
            }
            Term::Halt(v) => self
                .check_value(ctx, v, int_ty())
                .map_err(|e| e.in_context("halt")),
            Term::IfGc { rho, full, cont } => {
                if !ctx.in_delta(rho) {
                    return Err(type_err(format!("ifgc on out-of-scope region {rho}")));
                }
                self.check_term(ctx, full)?;
                self.check_term(ctx, cont)
            }
            Term::OpenTag { pkg, tvar, x, body } => {
                let t = self.synth_normal(ctx, pkg)?;
                match t.node() {
                    Ty::ExistTag {
                        tvar: t0,
                        kind,
                        body: bty,
                    } => {
                        if ctx.theta.contains_key(tvar) {
                            return Err(type_err(format!("open shadows tag variable {tvar}")));
                        }
                        let opened = Subst::one_tag(*t0, Tag::Var(*tvar)).ty_id(*bty);
                        ctx.theta.insert(*tvar, *kind);
                        let verdict = self.check_in(ctx, *x, opened, body);
                        ctx.theta.remove(tvar);
                        verdict
                    }
                    other => Err(type_err(format!("open(tag) of non-existential {other:?}"))),
                }
            }
            Term::OpenAlpha { pkg, avar, x, body } => {
                let t = self.synth_normal(ctx, pkg)?;
                match t.node() {
                    Ty::ExistAlpha {
                        avar: a0,
                        regions,
                        body: bty,
                    } => {
                        if ctx.phi.contains_key(avar) {
                            return Err(type_err(format!("open shadows type variable {avar}")));
                        }
                        let opened = Subst::one_alpha(*a0, Ty::Alpha(*avar)).ty_id(*bty);
                        ctx.phi.insert(*avar, regions.to_vec());
                        let verdict = self.check_in(ctx, *x, opened, body);
                        ctx.phi.remove(avar);
                        verdict
                    }
                    other => Err(type_err(format!("open(α) of non-existential {other:?}"))),
                }
            }
            Term::OpenRgn { pkg, rvar, x, body } => {
                self.require_dialect(&[Dialect::Generational], "open(region)")?;
                let t = self.synth_normal(ctx, pkg)?;
                match t.node() {
                    Ty::ExistRgn {
                        rvar: r0,
                        bound,
                        body: bty,
                    } => {
                        let r = Region::Var(*rvar);
                        if ctx.delta.contains(&r) {
                            return Err(type_err(format!("open shadows region variable {rvar}")));
                        }
                        let opened = intern_ty(Ty::At(Subst::one_rgn(*r0, r).ty_id(*bty), r));
                        ctx.delta.insert(r);
                        let shadowed = ctx.rbounds.bind(*rvar, bound.to_vec());
                        let verdict = self.check_in(ctx, *x, opened, body);
                        ctx.rbounds.unbind(*rvar, shadowed);
                        ctx.delta.remove(&r);
                        verdict
                    }
                    other => Err(type_err(format!(
                        "open(region) of non-existential {other:?}"
                    ))),
                }
            }
            Term::LetRegion { rvar, body } => {
                let r = Region::Var(*rvar);
                if ctx.delta.contains(&r) {
                    // paper: unique binders assumed (Appendix A).
                    return Err(type_err(format!("let region shadows {rvar}")));
                }
                ctx.delta.insert(r);
                let verdict = self.check_term(ctx, body);
                ctx.delta.remove(&r);
                verdict
            }
            Term::Only { regions, body } => {
                for r in regions {
                    if !ctx.in_delta(r) {
                        return Err(type_err(format!("only keeps out-of-scope region {r}")));
                    }
                }
                let keep: BTreeSet<Region> = regions.iter().copied().collect();
                let restricted = self.restrict_psi(&keep);
                let mut inner = Ctx::empty();
                inner.delta = keep.clone();
                inner.theta = ctx.theta.clone();
                // Φ|∆′ and Γ|∆′: keep entries whose regions survive.
                inner.phi = ctx
                    .phi
                    .iter()
                    .filter(|(_, bound)| bound.iter().all(|r| r.is_cd() || keep.contains(r)))
                    .map(|(a, b)| (*a, b.clone()))
                    .collect();
                inner.gamma = ctx
                    .gamma
                    .iter()
                    .filter(|(_, sigma)| {
                        let regions_ok = ty_regions(sigma)
                            .iter()
                            .all(|r| r.is_cd() || keep.contains(r));
                        let alphas = &intern::ty_fv(**sigma).avars;
                        regions_ok && alphas.iter().all(|a| inner.phi.contains_key(a))
                    })
                    .map(|(x, t)| (*x, *t))
                    .collect();
                restricted.check_term(&mut inner, body)
            }
            Term::Typecase {
                tag,
                int_arm,
                arrow_arm,
                prod_arm,
                exist_arm,
            } => self.check_typecase(ctx, *tag, int_arm, arrow_arm, prod_arm, exist_arm),
            Term::IfLeft {
                x,
                scrut,
                left,
                right,
            } => {
                self.require_dialect(&[Dialect::Forwarding], "ifleft")?;
                let t = self.synth_normal(ctx, scrut)?;
                match t.node() {
                    Ty::Sum(a, b) => {
                        self.check_in(ctx, *x, intern_ty(Ty::Left(*a)), left)?;
                        self.check_in(ctx, *x, intern_ty(Ty::Right(*b)), right)
                    }
                    // A literal `inl v`/`inr v` scrutinee (mid-execution
                    // machine state) synthesizes a bare `left`/`right` type;
                    // by sum subsumption it inhabits σ₁ + σ₂ for any other
                    // side, and only the live branch needs checking — the
                    // analogue of Fig. 10's literal `ifreg (ν₁ = ν₂)` rules.
                    Ty::Left(_) if matches!(scrut, Value::Inl(_)) => {
                        self.check_in(ctx, *x, t, left)
                    }
                    Ty::Right(_) if matches!(scrut, Value::Inr(_)) => {
                        self.check_in(ctx, *x, t, right)
                    }
                    other => Err(type_err(format!("ifleft on non-sum type {other:?}"))),
                }
            }
            Term::Set { dst, src, body } => {
                self.require_dialect(&[Dialect::Forwarding], "set")?;
                let t = self.synth_normal(ctx, dst)?;
                match t.node() {
                    Ty::At(sigma, _) => {
                        self.check_value(ctx, src, *sigma)
                            .map_err(|e| e.in_context("set source"))?;
                        self.check_term(ctx, body)
                    }
                    other => Err(type_err(format!("set on non-reference type {other:?}"))),
                }
            }
            Term::Widen {
                x,
                from,
                to,
                tag,
                v,
                body,
            } => {
                self.require_dialect(&[Dialect::Forwarding], "widen")?;
                if !ctx.in_delta(from) || !ctx.in_delta(to) {
                    return Err(type_err("widen region not in scope".to_string()));
                }
                tags::check_kind(tag, &ctx.theta, Kind::Omega)?;
                self.check_value(ctx, v, intern_ty(Ty::M(*from, *tag)))
                    .map_err(|e| e.in_context("widen argument"))?;
                // Fig. 8: the body is typed under Ψ|cd; cd, ρ, ρ′; Θ; Φ|ρρ′;
                // Γ = x : Cρ,ρ′(τ) only.
                let restricted = self.restrict_psi(&BTreeSet::new());
                let mut inner = Ctx::empty();
                inner.delta.insert(*from);
                inner.delta.insert(*to);
                inner.theta = ctx.theta.clone();
                inner.phi = ctx
                    .phi
                    .iter()
                    .filter(|(_, bound)| {
                        bound.iter().all(|r| r.is_cd() || *r == *from || *r == *to)
                    })
                    .map(|(a, b)| (*a, b.clone()))
                    .collect();
                inner.gamma.insert(*x, intern_ty(Ty::C(*from, *to, *tag)));
                restricted.check_term(&mut inner, body)
            }
            Term::IfReg { r1, r2, eq, ne } => {
                self.require_dialect(&[Dialect::Generational], "ifreg")?;
                self.check_ifreg(ctx, r1, r2, *eq, ne)
            }
            Term::If0 {
                scrut,
                zero,
                nonzero,
            } => {
                self.check_value(ctx, scrut, int_ty())?;
                self.check_term(ctx, zero)?;
                self.check_term(ctx, nonzero)
            }
        }
    }

    /// Checks `body` under `Γ, x : σ`, then takes the binding back.
    fn check_in(&self, ctx: &mut Ctx, x: Symbol, sigma: TyId, body: &Term) -> Result<()> {
        let shadowed = ctx.gamma.bind(x, sigma);
        let verdict = self.check_term(ctx, body);
        ctx.gamma.unbind(x, shadowed);
        verdict
    }

    /// Binds the `let` spine that starts at `e` into `Γ`, logging what each
    /// binding shadows in `shadowed` for the caller to restore, then checks
    /// the term at its end. Iterative: a spine can be thousands deep.
    fn check_let_spine(
        &self,
        ctx: &mut Ctx,
        e: &Term,
        shadowed: &mut Vec<(Symbol, Option<TyId>)>,
    ) -> Result<()> {
        let mut cur = e;
        while let Term::Let { x, op, body } = cur {
            let sigma = self
                .synth_op(ctx, op)
                .map_err(|e| e.in_context(format!("let-binding of {x}")))?;
            shadowed.push((*x, ctx.gamma.bind(*x, sigma)));
            cur = body;
        }
        self.check_term(ctx, cur)
    }

    fn check_app(
        &self,
        ctx: &Ctx,
        f: &Value,
        ts: &[TagId],
        regions: &[Region],
        args: &[Value],
    ) -> Result<()> {
        for rho in regions {
            if !ctx.in_delta(rho) {
                return Err(type_err(format!("application region {rho} not in scope")));
            }
        }
        let fty = self.synth_normal(ctx, f)?;
        match fty.node() {
            Ty::At(inner, _) => match inner.node() {
                Ty::Code {
                    tvars,
                    rvars,
                    args: params,
                } => {
                    if tvars.len() != ts.len()
                        || rvars.len() != regions.len()
                        || params.len() != args.len()
                    {
                        return Err(type_err(format!(
                            "application arity: expected [{}][{}]({}), got [{}][{}]({})",
                            tvars.len(),
                            rvars.len(),
                            params.len(),
                            ts.len(),
                            regions.len(),
                            args.len()
                        )));
                    }
                    let mut sub = Subst::new();
                    for ((t, k), tau) in tvars.iter().zip(ts.iter()) {
                        tags::check_kind(tau, &ctx.theta, *k)?;
                        sub = sub.with_tag(*t, *tau);
                    }
                    for (r, rho) in rvars.iter().zip(regions.iter()) {
                        sub = sub.with_rgn(*r, *rho);
                    }
                    for (i, (param, arg)) in params.iter().zip(args.iter()).enumerate() {
                        self.check_value(ctx, arg, sub.ty_id(*param))
                            .map_err(|e| e.in_context(format!("argument {}", i + 1)))?;
                    }
                    Ok(())
                }
                other => Err(type_err(format!("application of non-code type {other:?}"))),
            },
            Ty::Trans {
                tags: rec,
                regions: rec_rgn,
                args: params,
                ..
            } => {
                if rec.len() != ts.len()
                    || rec_rgn.len() != regions.len()
                    || params.len() != args.len()
                {
                    return Err(type_err(
                        "translucent application arity mismatch".to_string(),
                    ));
                }
                for (given, recorded) in ts.iter().zip(rec.iter()) {
                    if !tags::equiv_id(*given, *recorded, Equiv::Normalizing) {
                        return Err(type_err(format!(
                            "translucent application tag mismatch: given {given:?}, recorded {recorded:?}"
                        )));
                    }
                }
                for (given, recorded) in regions.iter().zip(rec_rgn.iter()) {
                    if given != recorded {
                        return Err(type_err(format!(
                            "translucent application region mismatch: given {given}, recorded {recorded}"
                        )));
                    }
                }
                for (i, (param, arg)) in params.iter().zip(args.iter()).enumerate() {
                    self.check_value(ctx, arg, *param)
                        .map_err(|e| e.in_context(format!("argument {}", i + 1)))?;
                }
                Ok(())
            }
            other => Err(type_err(format!("application of non-code type {other:?}"))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_typecase(
        &self,
        ctx: &mut Ctx,
        tag: TagId,
        int_arm: &Term,
        arrow_arm: &Term,
        prod_arm: &(Symbol, Symbol, TermId),
        exist_arm: &(Symbol, TermId),
    ) -> Result<()> {
        tags::check_kind(&tag, &ctx.theta, Kind::Omega)?;
        let nf = tags::normalize_id(tag).0;
        match nf.node() {
            Tag::Int => self.check_term(ctx, int_arm),
            Tag::Arrow(_) | Tag::AnyArrow(_) => self.check_term(ctx, arrow_arm),
            Tag::Prod(a, b) => {
                let (t1, t2, body) = prod_arm;
                let sub = Subst::new().with_tag(*t1, *a).with_tag(*t2, *b);
                self.check_term(ctx, &sub.term(body))
            }
            Tag::Exist(t, btag) => {
                let (te, body) = exist_arm;
                let lam = intern_tag(Tag::Lam(*t, *btag));
                self.check_term(ctx, &Subst::one_tag(*te, lam).term(body))
            }
            Tag::Var(t) => {
                let t = *t;
                // The refining rule of Fig. 6: each arm is checked with the
                // variable refined in Γ and in the arm itself. Γ is rebuilt
                // under the refinement for the arm and put back after it.
                let refine = |ctx: &mut Ctx, sub: &Subst, arm: &Term| -> Result<()> {
                    let refined = ctx
                        .gamma
                        .iter()
                        .map(|(x, sigma)| (*x, sub.ty_id(*sigma)))
                        .collect();
                    let outer = std::mem::replace(&mut ctx.gamma, refined);
                    let verdict = self.check_term(ctx, &sub.term(arm));
                    ctx.gamma = outer;
                    verdict
                };
                refine(ctx, &Subst::one_tag(t, Tag::Int), int_arm)
                    .map_err(|e| e.in_context("typecase int arm"))?;
                // paper: Fig. 6 checks eλ without refinement; we refine to
                // AnyArrow(t) (see syntax::Tag::AnyArrow) so that Fig. 4's
                // `λ ⇒ x` arm typechecks.
                refine(ctx, &Subst::one_tag(t, Tag::AnyArrow(t)), arrow_arm)
                    .map_err(|e| e.in_context("typecase λ arm"))?;
                {
                    let (t1, t2, body) = prod_arm;
                    let sub = Subst::one_tag(t, Tag::prod(Tag::Var(*t1), Tag::Var(*t2)));
                    let shadowed1 = ctx.theta.bind(*t1, Kind::Omega);
                    let shadowed2 = ctx.theta.bind(*t2, Kind::Omega);
                    let verdict = refine(ctx, &sub, body);
                    ctx.theta.unbind(*t2, shadowed2);
                    ctx.theta.unbind(*t1, shadowed1);
                    verdict.map_err(|e| e.in_context("typecase × arm"))?;
                }
                {
                    let (te, body) = exist_arm;
                    // The refinement `∃u. te u` binds `t#u`: the name
                    // depends on this check alone, not on what the process
                    // checked before, and no text can write it (neither
                    // lexer accepts `#`). Its only free variable is `te`,
                    // so `u` need only differ from that.
                    let u = match Symbol::intern("t#u") {
                        u if u != *te => u,
                        _ => Symbol::intern("t#v"),
                    };
                    let refined = Tag::exist(u, Tag::app(Tag::Var(*te), Tag::Var(u)));
                    let sub = Subst::one_tag(t, refined);
                    let shadowed = ctx.theta.bind(*te, Kind::Arrow);
                    let verdict = refine(ctx, &sub, body);
                    ctx.theta.unbind(*te, shadowed);
                    verdict.map_err(|e| e.in_context("typecase ∃ arm"))?;
                }
                Ok(())
            }
            other => Err(type_err(format!(
                "typecase on neutral tag {other:?} is not supported"
            ))),
        }
    }

    fn check_ifreg(
        &self,
        ctx: &mut Ctx,
        r1: &Region,
        r2: &Region,
        eq: TermId,
        ne: &Term,
    ) -> Result<()> {
        if !ctx.in_delta(r1) || !ctx.in_delta(r2) {
            return Err(type_err("ifreg region not in scope".to_string()));
        }
        // Fig. 10: the equal branch is checked under the unifying
        // substitution; the not-equal branch is checked as-is (and for two
        // equal names, only the equal branch; for two distinct names, only
        // the not-equal branch).
        match (r1, r2) {
            (Region::Name(n1), Region::Name(n2)) => {
                if n1 == n2 {
                    self.check_term(ctx, &eq)
                } else {
                    self.check_term(ctx, ne)
                }
            }
            (Region::Var(a), Region::Var(b)) => {
                // The unified region is `r#eqN` for the least `N` neither
                // in `∆` nor free in the branch (`only` can drop an
                // enclosing refinement's region from `∆` while the branch
                // still names it). The name depends on this check alone,
                // not on what the process checked before, and no text can
                // write it: neither lexer accepts `#`.
                let free = &intern::term_fv(eq).rvars;
                let mut n = 0u32;
                let fresh = loop {
                    let r = Symbol::intern(&format!("r#eq{n}"));
                    if !ctx.delta.contains(&Region::Var(r)) && free.binary_search(&r).is_err() {
                        break r;
                    }
                    n += 1;
                };
                let sub = Subst::new()
                    .with_rgn(*a, Region::Var(fresh))
                    .with_rgn(*b, Region::Var(fresh));
                self.check_term(
                    &mut subst_ctx(ctx, &sub, Some(Region::Var(fresh))),
                    &sub.term(&eq),
                )?;
                self.check_term(ctx, ne)
            }
            (Region::Var(a), Region::Name(n)) | (Region::Name(n), Region::Var(a)) => {
                let sub = Subst::one_rgn(*a, Region::Name(*n));
                self.check_term(
                    &mut subst_ctx(ctx, &sub, Some(Region::Name(*n))),
                    &sub.term(&eq),
                )?;
                self.check_term(ctx, ne)
            }
        }
    }
}

/// The type `int`, interned once.
fn int_ty() -> TyId {
    static INT: OnceLock<TyId> = OnceLock::new();
    *INT.get_or_init(|| intern_ty(Ty::Int))
}

/// Is region `r` (transitively, through the recorded bounds of opened
/// region variables) within the set `db`?
fn region_within(ctx: &Ctx, r: &Region, db: &[Region], seen: &mut Vec<Symbol>) -> bool {
    if db.contains(r) {
        return true;
    }
    match r {
        Region::Var(v) => {
            if seen.contains(v) {
                return false;
            }
            seen.push(*v);
            ctx.rbounds
                .get(v)
                .is_some_and(|bound| bound.iter().all(|x| region_within(ctx, x, db, seen)))
        }
        Region::Name(_) => false,
    }
}

/// Applies a region substitution to a whole context (`∆[ν/r]`, `Φ[ν/r]`,
/// `Γ[ν/r]` in the ifreg rules of Fig. 10). `add` is inserted into `∆`
/// (the unified region).
fn subst_ctx(ctx: &Ctx, sub: &Subst, add: Option<Region>) -> Ctx {
    let mut delta: BTreeSet<Region> = ctx.delta.iter().map(|r| sub.region(r)).collect();
    if let Some(r) = add {
        delta.insert(r);
    }
    Ctx {
        delta,
        theta: ctx.theta.clone(),
        phi: ctx
            .phi
            .iter()
            .map(|(a, bound)| (*a, bound.iter().map(|r| sub.region(r)).collect()))
            .collect(),
        gamma: ctx.gamma.iter().map(|(x, t)| (*x, sub.ty_id(*t))).collect(),
        rbounds: ctx
            .rbounds
            .iter()
            .map(|(r, bound)| (*r, bound.iter().map(|x| sub.region(x)).collect()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moper::ty_eq_id;
    use crate::syntax::{PrimOp, CD};

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn basic() -> Checker<'static> {
        Checker::new(Dialect::Basic)
    }

    fn ctx_with_region(r: &str) -> Ctx {
        let mut c = Ctx::empty();
        c.delta.insert(Region::Var(s(r)));
        c
    }

    #[test]
    fn halt_int_checks() {
        basic()
            .check_term(&mut Ctx::empty(), &Term::Halt(Value::Int(3)))
            .unwrap();
    }

    #[test]
    fn halt_pair_fails() {
        let e = Term::Halt(Value::pair(Value::Int(1), Value::Int(2)));
        assert!(basic().check_term(&mut Ctx::empty(), &e).is_err());
    }

    #[test]
    fn unbound_variable_fails() {
        assert!(basic()
            .check_term(&mut Ctx::empty(), &Term::Halt(Value::Var(s("ghost"))))
            .is_err());
    }

    #[test]
    fn let_binds_and_projects() {
        let x = s("p");
        let y = s("y");
        let e = Term::let_(
            x,
            Op::Val(Value::pair(Value::Int(1), Value::Int(2))),
            Term::let_(y, Op::Proj(1, Value::Var(x)), Term::Halt(Value::Var(y))),
        );
        basic().check_term(&mut Ctx::empty(), &e).unwrap();
    }

    #[test]
    fn put_requires_region_in_scope() {
        let e = Term::let_(
            s("a"),
            Op::Put(Region::Var(s("r")), Value::Int(1)),
            Term::Halt(Value::Int(0)),
        );
        assert!(basic().check_term(&mut Ctx::empty(), &e).is_err());
        basic().check_term(&mut ctx_with_region("r"), &e).unwrap();
    }

    #[test]
    fn put_into_cd_rejected() {
        let e = Term::let_(
            s("a"),
            Op::Put(Region::cd(), Value::Int(1)),
            Term::Halt(Value::Int(0)),
        );
        assert!(basic().check_term(&mut Ctx::empty(), &e).is_err());
    }

    #[test]
    fn let_region_then_put_get() {
        let r = s("r");
        let a = s("a");
        let b = s("b");
        let e = Term::LetRegion {
            rvar: r,
            body: (Term::let_(
                a,
                Op::Put(Region::Var(r), Value::Int(1)),
                Term::let_(b, Op::Get(Value::Var(a)), Term::Halt(Value::Var(b))),
            ))
            .into(),
        };
        basic().check_term(&mut Ctx::empty(), &e).unwrap();
    }

    #[test]
    fn only_drops_bindings_that_mention_dropped_regions() {
        let r1 = s("r1");
        let r2 = s("r2");
        let a = s("a");
        // After `only {r2}`, a (of type int at r1) is gone.
        let bad = Term::LetRegion {
            rvar: r1,
            body: (Term::LetRegion {
                rvar: r2,
                body: (Term::let_(
                    a,
                    Op::Put(Region::Var(r1), Value::Int(1)),
                    Term::Only {
                        regions: vec![Region::Var(r2)],
                        body: (Term::let_(
                            s("b"),
                            Op::Get(Value::Var(a)),
                            Term::Halt(Value::Var(s("b"))),
                        ))
                        .into(),
                    },
                ))
                .into(),
            })
            .into(),
        };
        assert!(basic().check_term(&mut Ctx::empty(), &bad).is_err());
        // Keeping r1 instead makes it fine.
        let good = Term::LetRegion {
            rvar: r1,
            body: (Term::LetRegion {
                rvar: r2,
                body: (Term::let_(
                    a,
                    Op::Put(Region::Var(r1), Value::Int(1)),
                    Term::Only {
                        regions: vec![Region::Var(r1)],
                        body: (Term::let_(
                            s("b"),
                            Op::Get(Value::Var(a)),
                            Term::Halt(Value::Var(s("b"))),
                        ))
                        .into(),
                    },
                ))
                .into(),
            })
            .into(),
        };
        basic().check_term(&mut Ctx::empty(), &good).unwrap();
    }

    #[test]
    fn prim_requires_ints() {
        let e = Term::let_(
            s("x"),
            Op::Prim(
                PrimOp::Add,
                Value::Int(1),
                Value::pair(Value::Int(1), Value::Int(2)),
            ),
            Term::Halt(Value::Int(0)),
        );
        assert!(basic().check_term(&mut Ctx::empty(), &e).is_err());
    }

    #[test]
    fn code_rule_closes_over_environment() {
        // A code block may not mention an outer value variable.
        let def = CodeDef {
            name: s("leaky"),
            tvars: vec![],
            rvars: vec![],
            params: vec![],
            body: Term::Halt(Value::Var(s("outer"))),
        };
        assert!(basic().check_code(&def).is_err());
    }

    #[test]
    fn code_with_m_typed_param() {
        // λ[t:Ω][r](x : M_r(t)). halt 0 — the shape of every translated
        // function (Fig. 3).
        let t = s("t");
        let r = s("r");
        let def = CodeDef {
            name: s("f"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![r],
            params: vec![(s("x"), Ty::m(Region::Var(r), Tag::Var(t)).id())],
            body: Term::Halt(Value::Int(0)),
        };
        basic().check_code(&def).unwrap();
    }

    #[test]
    fn application_instantiates_tags_and_regions() {
        let t = s("t");
        let r = s("r");
        let def = CodeDef {
            name: s("f"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![r],
            params: vec![(s("x"), Ty::m(Region::Var(r), Tag::Var(t)).id())],
            body: Term::Halt(Value::Int(0)),
        };
        let prog = |arg: Value, tag: Tag| Program {
            dialect: Dialect::Basic,
            code: vec![def.clone()],
            main: Term::LetRegion {
                rvar: s("r0"),
                body: (Term::app(Value::Addr(CD, 0), [tag], [Region::Var(s("r0"))], [arg])).into(),
            },
        };
        // M_r(Int) = int, so an integer argument is fine at tag Int.
        Checker::check_program(&prog(Value::Int(7), Tag::Int)).unwrap();
        // ... but not at tag Int×Int.
        assert!(
            Checker::check_program(&prog(Value::Int(7), Tag::prod(Tag::Int, Tag::Int))).is_err()
        );
    }

    #[test]
    fn application_arity_mismatch() {
        let def = CodeDef {
            name: s("f"),
            tvars: vec![],
            rvars: vec![],
            params: vec![(s("x"), Ty::Int.id())],
            body: Term::Halt(Value::Int(0)),
        };
        let prog = Program {
            dialect: Dialect::Basic,
            code: vec![def],
            main: Term::app(Value::Addr(CD, 0), [], [], []),
        };
        assert!(Checker::check_program(&prog).is_err());
    }

    #[test]
    fn typecase_on_variable_checks_all_arms() {
        // copy's skeleton: typecase t with x : M_r(t) in Γ; the int arm may
        // treat x as an int, the pair arm as a reference.
        let t = s("t");
        let r = s("r");
        let x = s("x");
        let body = Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: (Term::Halt(Value::Var(x))).into(),
            arrow_arm: (Term::Halt(Value::Int(0))).into(),
            prod_arm: (
                s("t1"),
                s("t2"),
                (Term::let_(s("y"), Op::Get(Value::Var(x)), Term::Halt(Value::Int(0)))).into(),
            ),
            exist_arm: (s("te"), (Term::Halt(Value::Int(0))).into()),
        };
        let def = CodeDef {
            name: s("probe"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![r],
            params: vec![(x, Ty::m(Region::Var(r), Tag::Var(t)).id())],
            body,
        };
        basic().check_code(&def).unwrap();
    }

    #[test]
    fn region_from_one_if0_arm_is_out_of_scope_in_the_other() {
        // A checker whose context forgot to restore `∆` after `let region`
        // would accept the `put` in the other arm.
        let r = s("r");
        let put_r = || {
            Term::let_(
                s("a"),
                Op::Put(Region::Var(r), Value::Int(1)),
                Term::Halt(Value::Int(0)),
            )
        };
        let own_arm = Term::LetRegion {
            rvar: r,
            body: put_r().into(),
        };
        basic().check_term(&mut Ctx::empty(), &own_arm).unwrap();
        let leak = Term::If0 {
            scrut: Value::Int(0),
            zero: (Term::LetRegion {
                rvar: r,
                body: (Term::Halt(Value::Int(0))).into(),
            })
            .into(),
            nonzero: put_r().into(),
        };
        let mut ctx = Ctx::empty();
        assert!(basic().check_term(&mut ctx, &leak).is_err());
        assert!(ctx.delta.is_empty() && ctx.gamma.is_empty());
    }

    #[test]
    fn typecase_product_binders_stay_in_their_arm() {
        // `⟨u = t1, 0⟩ : ∃u:Ω.int` is well formed only where the × arm's
        // binder `t1` is: fine in that arm, rejected in the int arm and in
        // the ∃ arm (checked after ×, so a forgotten restore would show
        // there).
        let (t, t1, t2) = (s("t"), s("t1"), s("t2"));
        let halt = || Term::Halt(Value::Int(0));
        let uses_t1 = || {
            Term::let_(
                s("z"),
                Op::Val(Value::PackTag {
                    tvar: s("u"),
                    kind: Kind::Omega,
                    tag: Tag::Var(t1).into(),
                    val: Value::Int(0).into(),
                    body_ty: Ty::Int.into(),
                }),
                Term::Halt(Value::Int(0)),
            )
        };
        let typecase = |int_arm: Term, prod: Term, exist: Term| Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: int_arm.into(),
            arrow_arm: halt().into(),
            prod_arm: (t1, t2, prod.into()),
            exist_arm: (s("te"), exist.into()),
        };
        let mut ctx = Ctx::empty();
        ctx.theta.insert(t, Kind::Omega);
        basic()
            .check_term(&mut ctx, &typecase(halt(), uses_t1(), halt()))
            .unwrap();
        assert!(basic()
            .check_term(&mut ctx, &typecase(uses_t1(), halt(), halt()))
            .is_err());
        assert!(basic()
            .check_term(&mut ctx, &typecase(halt(), halt(), uses_t1()))
            .is_err());
        assert_eq!(ctx.theta.len(), 1, "the arms' binders are gone again");
    }

    #[test]
    fn typecase_int_arm_cannot_get() {
        // In the int arm, x : int, so `get x` must fail.
        let t = s("t");
        let r = s("r");
        let x = s("x");
        let body = Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: (Term::let_(s("y"), Op::Get(Value::Var(x)), Term::Halt(Value::Int(0)))).into(),
            arrow_arm: (Term::Halt(Value::Int(0))).into(),
            prod_arm: (s("t1"), s("t2"), (Term::Halt(Value::Int(0))).into()),
            exist_arm: (s("te"), (Term::Halt(Value::Int(0))).into()),
        };
        let def = CodeDef {
            name: s("probe"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![r],
            params: vec![(x, Ty::m(Region::Var(r), Tag::Var(t)).id())],
            body,
        };
        assert!(basic().check_code(&def).is_err());
    }

    #[test]
    fn lambda_arm_is_region_independent() {
        // The crux of Fig. 4's λ arm: x : M_{r1}(t) can be returned where
        // M_{r2}(t) is expected once t is known to be an arrow.
        let t = s("t");
        let r1 = s("r1");
        let r2 = s("r2");
        let x = s("x");
        let k = s("k");
        // k : ∀[][r](M_r(t)) → 0 at cd (the Fig. 3 return-continuation
        // shape); call k[][r2](x) in the λ arm even though x : M_{r1}(t).
        let rk = s("rk");
        let k_ty = Ty::code([], [rk], [Ty::m(Region::Var(rk), Tag::Var(t))]).at(Region::cd());
        let body = Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: (Term::app(Value::Var(k), [], [Region::Var(r2)], [Value::Var(x)])).into(),
            arrow_arm: (Term::app(Value::Var(k), [], [Region::Var(r2)], [Value::Var(x)])).into(),
            prod_arm: (s("t1"), s("t2"), (Term::Halt(Value::Int(0))).into()),
            exist_arm: (s("te"), (Term::Halt(Value::Int(0))).into()),
        };
        let def = CodeDef {
            name: s("lamarm"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![r1, r2],
            params: vec![
                (x, Ty::m(Region::Var(r1), Tag::Var(t)).id()),
                (k, k_ty.id()),
            ],
            body,
        };
        basic().check_code(&def).unwrap();
    }

    #[test]
    fn lambda_arm_refinement_is_not_too_strong() {
        // Outside the λ arm (e.g. the pair arm) the same call must fail:
        // M_{r1}(t1×t2) ≠ M_{r2}(t1×t2).
        let t = s("t");
        let r1 = s("r1");
        let r2 = s("r2");
        let x = s("x");
        let k = s("k");
        let rk = s("rk2");
        let k_ty = Ty::code([], [rk], [Ty::m(Region::Var(rk), Tag::Var(t))]).at(Region::cd());
        let body = Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: (Term::Halt(Value::Int(0))).into(),
            arrow_arm: (Term::Halt(Value::Int(0))).into(),
            prod_arm: (
                s("t1"),
                s("t2"),
                (Term::app(Value::Var(k), [], [Region::Var(r2)], [Value::Var(x)])).into(),
            ),
            exist_arm: (s("te"), (Term::Halt(Value::Int(0))).into()),
        };
        let def = CodeDef {
            name: s("pairarm"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![r1, r2],
            params: vec![
                (x, Ty::m(Region::Var(r1), Tag::Var(t)).id()),
                (k, k_ty.id()),
            ],
            body,
        };
        assert!(basic().check_code(&def).is_err());
    }

    #[test]
    fn open_tag_package() {
        // open ⟨t=Int, 5 : M_cd(t)⟩ as ⟨u, x⟩ in halt 0 — x : M_cd(u).
        let t = s("t");
        let u = s("u");
        let x = s("x");
        let pkg = Value::PackTag {
            tvar: t,
            kind: Kind::Omega,
            tag: Tag::Int.into(),
            val: (Value::Int(5)).into(),
            body_ty: Ty::m(Region::cd(), Tag::Var(t)).into(),
        };
        let e = Term::OpenTag {
            pkg,
            tvar: u,
            x,
            body: (Term::Halt(Value::Int(0))).into(),
        };
        basic().check_term(&mut Ctx::empty(), &e).unwrap();
    }

    #[test]
    fn pack_tag_payload_must_match() {
        let t = s("t");
        let pkg = Value::PackTag {
            tvar: t,
            kind: Kind::Omega,
            tag: Tag::prod(Tag::Int, Tag::Int).into(),
            val: (Value::Int(5)).into(),
            body_ty: Ty::m(Region::cd(), Tag::Var(t)).into(),
        };
        // M_cd(Int×Int) is a reference, not an int.
        assert!(basic().synth_value(&Ctx::empty(), &pkg).is_err());
    }

    #[test]
    fn forwarding_constructs_rejected_in_basic() {
        let e = Term::let_(
            s("x"),
            Op::Strip(Value::inl(Value::Int(1))),
            Term::Halt(Value::Var(s("x"))),
        );
        assert!(basic().check_term(&mut Ctx::empty(), &e).is_err());
        Checker::new(Dialect::Forwarding)
            .check_term(&mut Ctx::empty(), &e)
            .unwrap();
    }

    #[test]
    fn sum_subsumption_on_set() {
        // set x := inr z where x : (left a + right b) at r.
        let fw = Checker::new(Dialect::Forwarding);
        let r = s("r");
        let x = s("x");
        let mut ctx = ctx_with_region("r");
        ctx.gamma
            .insert(x, Ty::sum(Ty::Int, Ty::Int).at(Region::Var(r)).into());
        let e = Term::Set {
            dst: Value::Var(x),
            src: Value::inr(Value::Int(2)),
            body: (Term::Halt(Value::Int(0))).into(),
        };
        fw.check_term(&mut ctx, &e).unwrap();
        // A bare int is not of sum type.
        let bad = Term::Set {
            dst: Value::Var(x),
            src: Value::Int(2),
            body: (Term::Halt(Value::Int(0))).into(),
        };
        assert!(fw.check_term(&mut ctx, &bad).is_err());
    }

    /// A value that fits neither side of a sum fails with one message that
    /// names the whole sum; the speculative `left`/`right` attempts add
    /// nothing to it.
    #[test]
    fn value_fitting_neither_side_of_a_sum_names_the_sum() {
        let fw = Checker::new(Dialect::Forwarding);
        let v = Value::inl(Value::pair(Value::Int(1), Value::Int(2)));
        let err = fw
            .check_value(&Ctx::empty(), &v, Ty::sum(Ty::Int, Ty::Int).id())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "type error: value has type Left(Prod(Int, Int)) but Sum(Int, Int) was expected"
        );
    }

    #[test]
    fn ifleft_refines_both_arms() {
        let fw = Checker::new(Dialect::Forwarding);
        let x = s("x");
        let y = s("y");
        let mut ctx = Ctx::empty();
        ctx.gamma
            .insert(s("v"), Ty::sum(Ty::Int, Ty::prod(Ty::Int, Ty::Int)).into());
        let e = Term::IfLeft {
            x,
            scrut: Value::Var(s("v")),
            left: (Term::let_(y, Op::Strip(Value::Var(x)), Term::Halt(Value::Var(y)))).into(),
            right: (Term::let_(
                y,
                Op::Strip(Value::Var(x)),
                // y : Int×Int here, so halting on it must fail...
                Term::Halt(Value::Int(0)),
            ))
            .into(),
        };
        fw.check_term(&mut ctx, &e).unwrap();
        let bad = Term::IfLeft {
            x,
            scrut: Value::Var(s("v")),
            left: (Term::Halt(Value::Int(0))).into(),
            right: (Term::let_(y, Op::Strip(Value::Var(x)), Term::Halt(Value::Var(y)))).into(),
        };
        assert!(fw.check_term(&mut ctx, &bad).is_err());
    }

    #[test]
    fn widen_types_body_in_restricted_env() {
        let fw = Checker::new(Dialect::Forwarding);
        let r1 = s("r1");
        let r2 = s("r2");
        let x = s("x");
        // v : M_{r1}(Int) = int.
        let e = Term::LetRegion {
            rvar: r1,
            body: (Term::LetRegion {
                rvar: r2,
                body: (Term::Widen {
                    x,
                    from: Region::Var(r1),
                    to: Region::Var(r2),
                    tag: Tag::Int.into(),
                    v: Value::Int(1),
                    body: (Term::Halt(Value::Var(x))).into(),
                })
                .into(),
            })
            .into(),
        };
        fw.check_term(&mut Ctx::empty(), &e).unwrap();
        // The body may NOT use outer bindings (Γ is just x).
        let leak = s("leak");
        let mut ctx = Ctx::empty();
        ctx.gamma.insert(leak, Ty::Int.into());
        let bad = Term::LetRegion {
            rvar: r1,
            body: (Term::LetRegion {
                rvar: r2,
                body: (Term::Widen {
                    x,
                    from: Region::Var(r1),
                    to: Region::Var(r2),
                    tag: Tag::Int.into(),
                    v: Value::Int(1),
                    body: (Term::Halt(Value::Var(leak))).into(),
                })
                .into(),
            })
            .into(),
        };
        assert!(fw.check_term(&mut ctx, &bad).is_err());
    }

    #[test]
    fn ifreg_substitutes_in_eq_branch() {
        let gen = Checker::new(Dialect::Generational);
        let r1 = s("r1");
        let r2 = s("r2");
        let a = s("a");
        // a : int at r1. In the eq branch (r1 = r2 unified) we can still get
        // it; in the ne branch too. The point is it typechecks at all with
        // the substitution applied.
        let e = Term::LetRegion {
            rvar: r1,
            body: (Term::LetRegion {
                rvar: r2,
                body: (Term::let_(
                    a,
                    Op::Put(Region::Var(r1), Value::Int(1)),
                    Term::IfReg {
                        r1: Region::Var(r1),
                        r2: Region::Var(r2),
                        eq: (Term::let_(
                            s("b"),
                            Op::Get(Value::Var(a)),
                            Term::Halt(Value::Var(s("b"))),
                        ))
                        .into(),
                        ne: (Term::Halt(Value::Int(0))).into(),
                    },
                ))
                .into(),
            })
            .into(),
        };
        gen.check_term(&mut Ctx::empty(), &e).unwrap();
    }

    /// The region `ifreg` unifies into is fresh for the branch: λGC text
    /// cannot name it, and a nested `ifreg` under `only` does not reuse an
    /// enclosing refinement's name that the branch still mentions.
    #[test]
    fn ifreg_refinement_is_fresh_for_its_branch() {
        let gen = Checker::new(Dialect::Generational);
        let regions = "let region ra in let region rb in let region rc in let region rd in";
        for branch in [
            "let x = put[r!eq0] 1 in halt 0",
            "let x = put[r!eq%0] 1 in halt 0",
            "only {rc, rd} in ifreg (rc = rd) then let x = put[ra] 1 in halt 0 else halt 0",
        ] {
            let src = format!("{regions} ifreg (ra = rb) then {branch} else halt 0");
            let e = crate::parse::parse_term(&src).unwrap();
            let err = gen.check_term(&mut Ctx::empty(), &e).unwrap_err();
            assert!(
                err.to_string().contains("out-of-scope region"),
                "{src}: {err}"
            );
        }
        assert!(crate::parse::parse_term("let x = put[r#eq0] 1 in halt 0").is_err());
    }

    #[test]
    fn region_package_roundtrip() {
        let gen = Checker::new(Dialect::Generational);
        let r0 = s("r0");
        let r = s("r");
        let x = s("x");
        let y = s("y");
        let a = s("a");
        let e = Term::LetRegion {
            rvar: r0,
            body: (Term::let_(
                a,
                Op::Put(Region::Var(r0), Value::Int(8)),
                Term::OpenRgn {
                    pkg: Value::PackRgn {
                        rvar: r,
                        bound: (vec![Region::Var(r0)]).into(),
                        witness: Region::Var(r0),
                        val: (Value::Var(a)).into(),
                        body_ty: Ty::Int.into(),
                    },
                    rvar: s("ropen"),
                    x,
                    body: (Term::let_(y, Op::Get(Value::Var(x)), Term::Halt(Value::Var(y)))).into(),
                },
            ))
            .into(),
        };
        gen.check_term(&mut Ctx::empty(), &e).unwrap();
    }

    #[test]
    fn region_package_witness_must_be_in_bound() {
        let gen = Checker::new(Dialect::Generational);
        let mut ctx = Ctx::empty();
        ctx.delta.insert(Region::Var(s("ra")));
        ctx.delta.insert(Region::Var(s("rb")));
        let pkg = Value::PackRgn {
            rvar: s("r"),
            bound: (vec![Region::Var(s("ra"))]).into(),
            witness: Region::Var(s("rb")),
            val: (Value::Int(0)).into(),
            body_ty: Ty::Int.into(),
        };
        assert!(gen.synth_value(&ctx, &pkg).is_err());
    }

    #[test]
    fn translucent_application_requires_matching_tags() {
        // Build ⟨code⟩Jt=IntK and apply it at Int (ok) and at Int×Int (no).
        let t = s("t");
        let def = CodeDef {
            name: s("k"),
            tvars: vec![(t, Kind::Omega)],
            rvars: vec![],
            params: vec![(s("x"), Ty::m(Region::cd(), Tag::Var(t)).id())],
            body: Term::Halt(Value::Int(0)),
        };
        let cd = [def.ty().id()];
        let ck = Checker::with_code(Dialect::Basic, &cd);
        let tapp = Value::tag_app(Value::Addr(CD, 0), [Tag::Int], []);
        let ok = Term::app(tapp.clone(), [Tag::Int], [], [Value::Int(1)]);
        ck.check_term(&mut Ctx::empty(), &ok).unwrap();
        let bad = Term::app(tapp, [Tag::prod(Tag::Int, Tag::Int)], [], [Value::Int(1)]);
        assert!(ck.check_term(&mut Ctx::empty(), &bad).is_err());
    }

    #[test]
    fn addr_types_come_from_psi() {
        let mut mem = Memory::new(crate::memory::MemConfig {
            track_types: true,
            ..Default::default()
        });
        let nu = mem.alloc_region();
        let loc = mem.put(nu, Value::Int(7)).unwrap();
        let ck = Checker::from_memory(Dialect::Basic, &mem);
        let mut ctx = Ctx::empty();
        ctx.delta = ck.psi_domain();
        assert!(ctx.delta.contains(&Region::Name(nu)));
        let t = ck.synth_value(&ctx, &Value::Addr(nu, loc)).unwrap();
        assert!(ty_eq_id(
            t,
            Ty::Int.at(Region::Name(nu)).id(),
            Dialect::Basic
        ));
        assert!(ck.synth_value(&ctx, &Value::Addr(nu, loc + 1)).is_err());
        assert!(ck
            .synth_value(&ctx, &Value::Addr(RegionName(nu.0 + 1), 0))
            .is_err());
        // `Ψ|∆′` hides the regions `only` drops, and keeps hiding them
        // under a later restriction that names them again.
        let hidden = ck.restrict_psi(&BTreeSet::new());
        assert!(!hidden.psi_domain().contains(&Region::Name(nu)));
        assert!(hidden.synth_value(&ctx, &Value::Addr(nu, loc)).is_err());
        let again = hidden.restrict_psi(&BTreeSet::from([Region::Name(nu)]));
        assert!(again.synth_value(&ctx, &Value::Addr(nu, loc)).is_err());
        let kept = ck.restrict_psi(&BTreeSet::from([Region::Name(nu)]));
        assert!(kept.synth_value(&ctx, &Value::Addr(nu, loc)).is_ok());
    }
}
