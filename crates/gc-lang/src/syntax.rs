//! Abstract syntax of λGC (Fig. 2 of the paper) and of its two dialect
//! extensions λGCforw (§7) and λGCgen (§8).
//!
//! The three calculi of the paper share a spine; we keep a single AST and a
//! [`Dialect`] marker that the typechecker and the machine use to reject
//! constructs outside the calculus under consideration (e.g. `widen` in the
//! basic dialect).
//!
//! Naming follows the paper:
//!
//! * regions `ρ` ([`Region`]) are either region variables `r` or region names
//!   `ν` ([`RegionName`]); the code region `cd` is the distinguished name
//!   [`CD`];
//! * kinds `κ` ([`Kind`]) are `Ω` and `Ω → Ω` (Fig. 2 allows nothing else);
//! * tags `τ` ([`Tag`]) are the runtime type descriptors — the source-level
//!   types of λCLOS plus tag functions and applications;
//! * types `σ` ([`Ty`]) classify terms and include the hard-wired Typerec
//!   operators `Mρ(τ)` (§4.2), `Cρ,ρ′(τ)` (§7) and `Mρy,ρo(τ)` (§8).
//!
//! Tags and types have one representation: wherever a node of any kind
//! holds a tag or a type — a [`Term`]'s tag arguments, a [`Value`]'s
//! witness, a [`CodeDef`]'s parameter types — it holds the interned
//! [`TagId`]/[`TyId`] handle ([`crate::intern`]). Equality is an id
//! compare, the machines and the checker hand the same id on without
//! rebuilding it, and `Debug` of an id prints its node, so the ids are
//! invisible in every listing and message.
//!
//! ## Extensions relative to the paper, all marked `paper:` where used
//!
//! * Integer primitives (`+`, `-`, `*`) and `if0` exist at the term level so
//!   mutators can compute. They introduce no type constructors, so tags and
//!   the collectors are untouched.
//! * `widen` carries its *from* region explicitly (the paper leaves it to be
//!   inferred from the type of the widened value).

use std::fmt;
use std::sync::Arc;

use ps_ir::Symbol;

use crate::intern::{intern_tag, intern_term, intern_ty, intern_value, TagId, TermId, TyId, ValId};

/// Which calculus a program lives in.
///
/// * `Basic` — λGC of §4–6 (Fig. 2/5/6).
/// * `Forwarding` — λGCforw of §7 (Fig. 8): sums, tag bits, `set`, `widen`.
/// * `Generational` — λGCgen of §8 (Fig. 10): region existentials, `ifreg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dialect {
    Basic,
    Forwarding,
    Generational,
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dialect::Basic => write!(f, "λGC"),
            Dialect::Forwarding => write!(f, "λGCforw"),
            Dialect::Generational => write!(f, "λGCgen"),
        }
    }
}

/// A runtime region name `ν`.
///
/// Region name 0 is reserved for the code region `cd` (see [`CD`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionName(pub u32);

/// The distinguished code region `cd` (§4.3).
pub const CD: RegionName = RegionName(0);

impl RegionName {
    /// Is this the code region?
    pub fn is_cd(self) -> bool {
        self == CD
    }
}

impl fmt::Display for RegionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_cd() {
            write!(f, "cd")
        } else {
            write!(f, "ν{}", self.0)
        }
    }
}

/// A region `ρ ::= ν | r` (Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// A region variable `r`, bound by `let region`, code blocks, region
    /// existentials, or `widen`.
    Var(Symbol),
    /// A concrete region name `ν` (only appears at runtime or in memory
    /// types).
    Name(RegionName),
}

impl Region {
    /// The code region `cd` as a region.
    pub fn cd() -> Region {
        Region::Name(CD)
    }

    /// Is this the code region?
    pub fn is_cd(&self) -> bool {
        matches!(self, Region::Name(n) if n.is_cd())
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Var(s) => write!(f, "{s}"),
            Region::Name(n) => write!(f, "{n}"),
        }
    }
}

/// A kind `κ ::= Ω | Ω → Ω` (Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `Ω`, the kind of complete tags.
    Omega,
    /// `Ω → Ω`, the kind of tag functions (needed for analysing
    /// existentials, §4.2).
    Arrow,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Omega => write!(f, "Ω"),
            Kind::Arrow => write!(f, "Ω→Ω"),
        }
    }
}

/// A tag `τ` — the runtime type descriptor language (Fig. 2).
///
/// Tags mirror the λCLOS type grammar plus tag-level functions and
/// applications. They form a simply typed λ-calculus, so reduction is
/// strongly normalizing and confluent (Prop. 6.1/6.2); see
/// [`crate::tags::normalize_id`].
///
/// Nodes are *shallow*: children are [`TagId`] handles into the global
/// hash-consing arena ([`crate::intern`]), so the derived `PartialEq`
/// compares whole subtrees by integer id and cloning a node is O(1). A
/// `TagId` dereferences to its `&'static Tag`, so pattern matching through
/// children works as it would with owned boxes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Tag {
    /// A tag variable `t`.
    Var(Symbol),
    /// `Int`.
    Int,
    /// `τ₁ × τ₂`.
    Prod(TagId, TagId),
    /// `~τ → 0` — the tag of a CPS function. The paper's λCLOS functions are
    /// unary but λGC's internal code is n-ary, hence the vector.
    Arrow(Arc<[TagId]>),
    /// `∃t.τ` with `t : Ω`.
    Exist(Symbol, TagId),
    /// A tag function `λt.τ` (kind `Ω → Ω`).
    Lam(Symbol, TagId),
    /// A tag application `τ₁ τ₂`.
    App(TagId, TagId),
    /// Internal-only: a tag known to be *some* arrow, introduced by the
    /// typechecker when refining the `λ` arm of a `typecase` on a tag
    /// variable.
    ///
    /// paper: Fig. 6's typecase rule leaves Γ unrefined in the `eλ` branch,
    /// which is too weak to typecheck Fig. 4's own `λ ⇒ x` arm (it needs
    /// `Mρ(t)` to be ρ-independent once `t` is known to be an arrow). We
    /// strengthen the rule soundly by substituting `AnyArrow(t)` for `t`: a
    /// neutral tag whose `M`-image is canonically placed at `cd`, exactly
    /// capturing "`t` is an arrow so its data lives in the code region".
    /// `AnyArrow` never appears in programs or at runtime.
    AnyArrow(Symbol),
}

impl Tag {
    /// Interns this node, returning its arena id.
    pub fn id(&self) -> TagId {
        intern_tag(self.clone())
    }

    /// Convenience constructor for `τ₁ × τ₂`.
    pub fn prod(a: Tag, b: Tag) -> Tag {
        Tag::Prod(intern_tag(a), intern_tag(b))
    }

    /// Convenience constructor for `~τ → 0`.
    pub fn arrow(args: impl IntoIterator<Item = Tag>) -> Tag {
        Tag::Arrow(args.into_iter().map(intern_tag).collect())
    }

    /// Convenience constructor for `∃t.τ`.
    pub fn exist(t: Symbol, body: Tag) -> Tag {
        Tag::Exist(t, intern_tag(body))
    }

    /// Convenience constructor for `λt.τ`.
    pub fn lam(t: Symbol, body: Tag) -> Tag {
        Tag::Lam(t, intern_tag(body))
    }

    /// Convenience constructor for `τ₁ τ₂`.
    pub fn app(f: Tag, a: Tag) -> Tag {
        Tag::App(intern_tag(f), intern_tag(a))
    }

    /// The identity tag function `λt.t`, used pervasively in Fig. 12.
    pub fn id_fn() -> Tag {
        let t = Symbol::intern("t_id");
        Tag::lam(t, Tag::Var(t))
    }
}

/// A type `σ` (Fig. 2, extended per Figs. 8 and 10).
///
/// Like [`Tag`], nodes are shallow: children are interned [`TyId`]/[`TagId`]
/// handles, so equality is an id compare and clones are O(1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `int`.
    Int,
    /// `σ₁ × σ₂`.
    Prod(TyId, TyId),
    /// `∀[t̄:κ̄][r̄](σ̄) → 0` — the type of a fully closed code block.
    Code {
        tvars: Arc<[(Symbol, Kind)]>,
        rvars: Arc<[Symbol]>,
        args: Arc<[TyId]>,
    },
    /// `∃t:κ.σ`.
    ExistTag {
        tvar: Symbol,
        kind: Kind,
        body: TyId,
    },
    /// `σ at ρ` — a reference to a `σ` stored in region `ρ` (§4.1).
    At(TyId, Region),
    /// `Mρ(τ)` — in the basic dialect the operator of §4.2; in the
    /// forwarding dialect the mutator-view operator of §7.
    M(Region, TagId),
    /// `Cρ,ρ′(τ)` — the collector-view operator of §7 (forwarding dialect
    /// only).
    C(Region, Region, TagId),
    /// `Mρy,ρo(τ)` — the two-index operator of §8 (generational dialect
    /// only).
    MGen(Region, Region, TagId),
    /// A type variable `α` ranging over types confined to a region set `∆`
    /// (kind environment Φ).
    Alpha(Symbol),
    /// `∃α:∆.σ` — existential over types confined to `∆` (§4, used for
    /// typed closure conversion of `copy`, §6.1).
    ExistAlpha {
        avar: Symbol,
        regions: Arc<[Region]>,
        body: TyId,
    },
    /// `∀J~τKJ~ρK(σ̄) →ρ 0` — the translucent type of a code block already
    /// specialized to tags `~τ` and regions `~ρ`, residing at `ρ` (§6.1,
    /// Fig. 12).
    ///
    /// paper: Fig. 12's translucent type `∀J~τK[~r](σ̄) →ρ 0` quantifies
    /// over regions, but its continuation environments (`αc`) are confined
    /// to the very regions the quantifier rebinds — a name pun that breaks
    /// type preservation once the machine substitutes concrete region names
    /// (the quantified and free occurrences diverge). Every use in Fig. 12
    /// applies the continuation at the current `[r₁,r₂,r₃]`, so we record
    /// that instantiation in the type instead of quantifying; `args` are
    /// stored already instantiated.
    Trans {
        tags: Arc<[TagId]>,
        regions: Arc<[Region]>,
        args: Arc<[TyId]>,
        rho: Region,
    },
    /// `left σ` (λGCforw, Fig. 8).
    Left(TyId),
    /// `right σ` (λGCforw, Fig. 8).
    Right(TyId),
    /// `left σ₁ + right σ₂` (λGCforw, Fig. 8). The components are stored
    /// *without* their `left`/`right` wrappers.
    Sum(TyId, TyId),
    /// `∃r ∈ ∆.(σ at r)` (λGCgen, Fig. 10); `body` is the `σ` under the
    /// binder.
    ExistRgn {
        rvar: Symbol,
        bound: Arc<[Region]>,
        body: TyId,
    },
}

impl Ty {
    /// Interns this node, returning its arena id.
    pub fn id(&self) -> TyId {
        intern_ty(self.clone())
    }

    /// Convenience constructor for `σ₁ × σ₂`.
    pub fn prod(a: Ty, b: Ty) -> Ty {
        Ty::Prod(intern_ty(a), intern_ty(b))
    }

    /// Convenience constructor for `σ at ρ`.
    pub fn at(self, rho: Region) -> Ty {
        Ty::At(intern_ty(self), rho)
    }

    /// Convenience constructor for `Mρ(τ)`.
    pub fn m(rho: Region, tag: Tag) -> Ty {
        Ty::M(rho, intern_tag(tag))
    }

    /// Convenience constructor for `Cρ,ρ′(τ)`.
    pub fn c(from: Region, to: Region, tag: Tag) -> Ty {
        Ty::C(from, to, intern_tag(tag))
    }

    /// Convenience constructor for `Mρy,ρo(τ)`.
    pub fn mgen(young: Region, old: Region, tag: Tag) -> Ty {
        Ty::MGen(young, old, intern_tag(tag))
    }

    /// Convenience constructor for `∀[t̄:κ̄][r̄](σ̄) → 0`.
    pub fn code(
        tvars: impl IntoIterator<Item = (Symbol, Kind)>,
        rvars: impl IntoIterator<Item = Symbol>,
        args: impl IntoIterator<Item = Ty>,
    ) -> Ty {
        Ty::Code {
            tvars: tvars.into_iter().collect(),
            rvars: rvars.into_iter().collect(),
            args: args.into_iter().map(intern_ty).collect(),
        }
    }

    /// Convenience constructor for `∃t:κ.σ`.
    pub fn exist_tag(tvar: Symbol, kind: Kind, body: Ty) -> Ty {
        Ty::ExistTag {
            tvar,
            kind,
            body: intern_ty(body),
        }
    }

    /// Convenience constructor for `∃α:∆.σ`.
    pub fn exist_alpha(avar: Symbol, regions: impl IntoIterator<Item = Region>, body: Ty) -> Ty {
        Ty::ExistAlpha {
            avar,
            regions: regions.into_iter().collect(),
            body: intern_ty(body),
        }
    }

    /// Convenience constructor for `∃r∈∆.(σ at r)`.
    pub fn exist_rgn(rvar: Symbol, bound: impl IntoIterator<Item = Region>, body: Ty) -> Ty {
        Ty::ExistRgn {
            rvar,
            bound: bound.into_iter().collect(),
            body: intern_ty(body),
        }
    }

    /// Convenience constructor for `left σ₁ + right σ₂`.
    pub fn sum(l: Ty, r: Ty) -> Ty {
        Ty::Sum(intern_ty(l), intern_ty(r))
    }
}

/// Integer primitive operators (extension; see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimOp {
    Add,
    Sub,
    Mul,
}

impl PrimOp {
    /// Applies the primitive (wrapping on overflow, like machine
    /// arithmetic).
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            PrimOp::Add => a.wrapping_add(b),
            PrimOp::Sub => a.wrapping_sub(b),
            PrimOp::Mul => a.wrapping_mul(b),
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimOp::Add => write!(f, "+"),
            PrimOp::Sub => write!(f, "-"),
            PrimOp::Mul => write!(f, "*"),
        }
    }
}

/// A code block `λ[t̄:κ̄][r̄](x̄:σ̄).e` (a value of type
/// `∀[t̄:κ̄][r̄](σ̄) → 0`).
///
/// `name` is a debugging label only; it has no semantic significance.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CodeDef {
    pub name: Symbol,
    pub tvars: Vec<(Symbol, Kind)>,
    pub rvars: Vec<Symbol>,
    pub params: Vec<(Symbol, TyId)>,
    pub body: Term,
}

impl CodeDef {
    /// The type `∀[t̄:κ̄][r̄](σ̄) → 0` of this code block.
    pub fn ty(&self) -> TyId {
        intern_ty(Ty::Code {
            tvars: self.tvars.iter().cloned().collect(),
            rvars: self.rvars.iter().cloned().collect(),
            args: self.params.iter().map(|(_, t)| *t).collect(),
        })
    }
}

/// A value `v` (Fig. 2, extended per Figs. 8 and 10).
///
/// Like [`Tag`] and [`Ty`], nodes are *shallow*: every child — value, tag
/// or type — is an interned [`ValId`]/[`TagId`]/[`TyId`] handle into the
/// global arenas, so structurally equal subtrees are stored once, equality
/// is an id compare, and clones are O(1). Region sets, `TagApp`'s lists
/// and code blocks sit behind an `Arc`, so a node is 40 bytes on 64-bit
/// targets, the size every interned value and every heap slot pays.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer literal `n`.
    Int(i64),
    /// A value variable `x`.
    Var(Symbol),
    /// A memory address `ν.ℓ`.
    Addr(RegionName, u32),
    /// A pair `(v₁, v₂)`.
    Pair(ValId, ValId),
    /// A tag existential package `⟨t = τ, v : σ⟩ : ∃t:κ.σ`.
    PackTag {
        tvar: Symbol,
        kind: Kind,
        tag: TagId,
        val: ValId,
        body_ty: TyId,
    },
    /// A type existential package `⟨α : ∆ = σ₁, v : σ₂⟩ : ∃α:∆.σ₂`.
    PackAlpha {
        avar: Symbol,
        regions: Arc<[Region]>,
        witness: TyId,
        val: ValId,
        body_ty: TyId,
    },
    /// A region existential package `⟨r ∈ ∆ = ρ, v : σ⟩ : ∃r∈∆.(σ at r)`
    /// (λGCgen).
    PackRgn {
        rvar: Symbol,
        bound: Arc<[Region]>,
        witness: Region,
        val: ValId,
        body_ty: TyId,
    },
    /// A translucent partial application `vJ~τ; ~ρK` (§6.1): a code pointer
    /// specialized to tags and regions, awaiting only its value arguments
    /// (see the `paper:` note on [`Ty::Trans`]).
    TagApp(ValId, Arc<[TagId]>, Arc<[Region]>),
    /// A code block literal (only placed in `cd` at load time; never
    /// constructed by running programs, §4.3).
    Code(Arc<CodeDef>),
    /// `inl v` (λGCforw).
    Inl(ValId),
    /// `inr v` (λGCforw).
    Inr(ValId),
}

impl Value {
    /// Interns this node, returning its arena id.
    pub fn id(&self) -> ValId {
        intern_value(self.clone())
    }

    /// Convenience constructor for `(v₁, v₂)`.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(intern_value(a), intern_value(b))
    }

    /// Convenience constructor for `inl v`.
    pub fn inl(v: Value) -> Value {
        Value::Inl(intern_value(v))
    }

    /// Convenience constructor for `inr v`.
    pub fn inr(v: Value) -> Value {
        Value::Inr(intern_value(v))
    }

    /// Convenience constructor for `vJ~τ; ~ρK`.
    pub fn tag_app(
        v: Value,
        tags: impl IntoIterator<Item = Tag>,
        regions: impl IntoIterator<Item = Region>,
    ) -> Value {
        Value::TagApp(
            intern_value(v),
            tags.into_iter().map(intern_tag).collect(),
            regions.into_iter().collect(),
        )
    }

    /// Is this a closed runtime value (no free value variables)? Used by the
    /// machine's sanity checks.
    pub fn is_runtime(&self) -> bool {
        match self {
            Value::Int(_) | Value::Addr(..) => true,
            Value::Var(_) => false,
            Value::Pair(a, b) => a.is_runtime() && b.is_runtime(),
            Value::PackTag { val, .. }
            | Value::PackAlpha { val, .. }
            | Value::PackRgn { val, .. }
            | Value::Inl(val)
            | Value::Inr(val) => val.is_runtime(),
            Value::TagApp(v, _, _) => v.is_runtime(),
            Value::Code(_) => true,
        }
    }
}

/// An operation `op ::= v | πᵢ v | put[ρ]v | get v | …` (Fig. 2, plus
/// `strip` from Fig. 8 and integer primitives).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `v`.
    Val(Value),
    /// `πᵢ v` (`i ∈ {1, 2}`).
    Proj(u8, Value),
    /// `put[ρ]v`.
    Put(Region, Value),
    /// `get v`.
    Get(Value),
    /// `strip v` (λGCforw).
    Strip(Value),
    /// `v₁ ⊕ v₂` (extension).
    Prim(PrimOp, Value, Value),
}

/// A term `e` (Fig. 2, extended per Figs. 8 and 10 and the primitives
/// extension).
///
/// Term children are interned [`TermId`] handles: continuation "clones" in
/// the Fig. 5 machine are plain `u32` copies, and [`crate::subst::Subst`]
/// can skip untouched subtrees by fingerprint, returning the same id back.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// `v[~τ][~ρ](~v)` — application of code or of a translucent value.
    App {
        f: Value,
        tags: Arc<[TagId]>,
        regions: Vec<Region>,
        args: Vec<Value>,
    },
    /// `let x = op in e`.
    Let { x: Symbol, op: Op, body: TermId },
    /// `halt v` with `v : int`.
    Halt(Value),
    /// `ifgc ρ e₁ e₂` — take `e₁` when region `ρ` is full.
    IfGc {
        rho: Region,
        full: TermId,
        cont: TermId,
    },
    /// `open v as ⟨t, x⟩ in e` for tag existentials.
    OpenTag {
        pkg: Value,
        tvar: Symbol,
        x: Symbol,
        body: TermId,
    },
    /// `open v as ⟨α, x⟩ in e` for type existentials.
    OpenAlpha {
        pkg: Value,
        avar: Symbol,
        x: Symbol,
        body: TermId,
    },
    /// `open v as ⟨r, x⟩ in e` for region existentials (λGCgen).
    OpenRgn {
        pkg: Value,
        rvar: Symbol,
        x: Symbol,
        body: TermId,
    },
    /// `let region r in e`.
    LetRegion { rvar: Symbol, body: TermId },
    /// `only ∆ in e` — reclaim every region not in `∆` (plus `cd`, which is
    /// always kept).
    Only { regions: Vec<Region>, body: TermId },
    /// `typecase τ of (eᵢ; eλ; t₁t₂.e×; tₑ.e∃)`.
    Typecase {
        tag: TagId,
        int_arm: TermId,
        arrow_arm: TermId,
        prod_arm: (Symbol, Symbol, TermId),
        exist_arm: (Symbol, TermId),
    },
    /// `ifleft x = v eₗ eᵣ` (λGCforw).
    IfLeft {
        x: Symbol,
        scrut: Value,
        left: TermId,
        right: TermId,
    },
    /// `set v₁ := v₂ ; e` (λGCforw).
    Set {
        dst: Value,
        src: Value,
        body: TermId,
    },
    /// `let x = widen[ρ′][τ](v) in e` (λGCforw, Fig. 8).
    ///
    /// paper: we additionally record the *from* region `ρ` explicitly; the
    /// paper infers it from `v : Mρ(τ)`.
    Widen {
        x: Symbol,
        from: Region,
        to: Region,
        tag: TagId,
        v: Value,
        body: TermId,
    },
    /// `ifreg (ρ₁ = ρ₂) e₁ e₂` (λGCgen).
    IfReg {
        r1: Region,
        r2: Region,
        eq: TermId,
        ne: TermId,
    },
    /// `if0 v e₁ e₂` (extension).
    If0 {
        scrut: Value,
        zero: TermId,
        nonzero: TermId,
    },
}

impl Term {
    /// Interns this node, returning its arena id.
    pub fn id(&self) -> TermId {
        intern_term(self.clone())
    }

    /// Convenience constructor for `let x = op in e`.
    pub fn let_(x: Symbol, op: Op, body: Term) -> Term {
        Term::Let {
            x,
            op,
            body: intern_term(body),
        }
    }

    /// Convenience constructor for `v[~τ][~ρ](~v)`.
    pub fn app(
        f: Value,
        tags: impl IntoIterator<Item = Tag>,
        regions: impl IntoIterator<Item = Region>,
        args: impl IntoIterator<Item = Value>,
    ) -> Term {
        Term::App {
            f,
            tags: tags.into_iter().map(intern_tag).collect(),
            regions: regions.into_iter().collect(),
            args: args.into_iter().collect(),
        }
    }

    /// Approximate size of the term (number of AST nodes), used by
    /// diagnostics and benchmarks.
    pub fn size(&self) -> usize {
        match self {
            Term::App { .. } | Term::Halt(_) => 1,
            Term::Let { body, .. }
            | Term::OpenTag { body, .. }
            | Term::OpenAlpha { body, .. }
            | Term::OpenRgn { body, .. }
            | Term::LetRegion { body, .. }
            | Term::Only { body, .. }
            | Term::Set { body, .. }
            | Term::Widen { body, .. } => 1 + body.size(),
            Term::IfGc { full, cont, .. } => 1 + full.size() + cont.size(),
            Term::Typecase {
                int_arm,
                arrow_arm,
                prod_arm,
                exist_arm,
                ..
            } => 1 + int_arm.size() + arrow_arm.size() + prod_arm.2.size() + exist_arm.1.size(),
            Term::IfLeft { left, right, .. } => 1 + left.size() + right.size(),
            Term::IfReg { eq, ne, .. } => 1 + eq.size() + ne.size(),
            Term::If0 { zero, nonzero, .. } => 1 + zero.size() + nonzero.size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn cd_is_region_zero() {
        assert!(CD.is_cd());
        assert!(Region::cd().is_cd());
        assert!(!RegionName(1).is_cd());
        assert!(!Region::Var(s("r")).is_cd());
    }

    #[test]
    fn display_regions() {
        assert_eq!(Region::cd().to_string(), "cd");
        assert_eq!(Region::Name(RegionName(3)).to_string(), "ν3");
        assert_eq!(Region::Var(s("r1")).to_string(), "r1");
    }

    #[test]
    fn tag_constructors() {
        let t = Tag::prod(Tag::Int, Tag::arrow([Tag::Int]));
        match &t {
            Tag::Prod(a, b) => {
                assert_eq!(**a, Tag::Int);
                assert!(matches!(**b, Tag::Arrow(_)));
            }
            _ => panic!("expected product"),
        }
    }

    #[test]
    fn id_fn_is_a_lambda() {
        assert!(matches!(Tag::id_fn(), Tag::Lam(..)));
    }

    #[test]
    fn code_def_type() {
        let def = CodeDef {
            name: s("f"),
            tvars: vec![(s("t"), Kind::Omega)],
            rvars: vec![s("r")],
            params: vec![(s("x"), Ty::Int.id())],
            body: Term::Halt(Value::Int(0)),
        };
        match def.ty().node() {
            Ty::Code { tvars, rvars, args } => {
                assert_eq!(tvars.len(), 1);
                assert_eq!(rvars.len(), 1);
                assert_eq!(args.len(), 1);
                assert_eq!(args[0], Ty::Int.id());
            }
            _ => panic!("expected code type"),
        }
    }

    #[test]
    fn runtime_values() {
        assert!(Value::Int(5).is_runtime());
        assert!(!Value::Var(s("x")).is_runtime());
        assert!(Value::pair(Value::Int(1), Value::Addr(RegionName(1), 0)).is_runtime());
        assert!(!Value::pair(Value::Int(1), Value::Var(s("y"))).is_runtime());
        assert!(Value::inl(Value::Int(3)).is_runtime());
    }

    #[test]
    fn term_size_counts_nodes() {
        let t = Term::let_(
            s("x"),
            Op::Val(Value::Int(1)),
            Term::let_(
                s("y"),
                Op::Val(Value::Int(2)),
                Term::Halt(Value::Var(s("y"))),
            ),
        );
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn prim_ops_wrap() {
        assert_eq!(PrimOp::Add.apply(2, 3), 5);
        assert_eq!(PrimOp::Sub.apply(2, 3), -1);
        assert_eq!(PrimOp::Mul.apply(4, 5), 20);
        assert_eq!(PrimOp::Add.apply(i64::MAX, 1), i64::MIN);
    }

    /// Every interned value node and every heap slot pays `Value`'s size,
    /// and every interned term pays `Term`'s, so a field that grows them
    /// grows each arena and the whole heap. Children are ids for this
    /// reason: an owned `Ty` or `Tag` field would make `Value` 136 bytes,
    /// and `Term::App`'s tags as a `Vec<Tag>` made `Term` 112.
    /// The arenas and the id-valued memos store entries in place, beside a
    /// state byte that must fit in the entry's alignment padding.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_sizes_stay_small() {
        use ps_ir::ChunkedSlab;
        use std::mem::size_of;
        assert!(
            size_of::<Value>() <= 40,
            "Value: {} bytes",
            size_of::<Value>()
        );
        let slot = size_of::<crate::intern::SlotVal>();
        assert!(slot <= 40, "SlotVal: {slot} bytes");
        let arena_slot = ChunkedSlab::<Value>::SLOT_BYTES;
        assert!(arena_slot <= 48, "Value arena slot: {arena_slot} bytes");
        let memo_slot = ChunkedSlab::<crate::intern::TyId>::SLOT_BYTES;
        assert!(memo_slot <= 8, "TyId memo slot: {memo_slot} bytes");
        assert!(
            size_of::<Term>() <= 104,
            "Term: {} bytes",
            size_of::<Term>()
        );
    }

    #[test]
    fn dialect_display() {
        assert_eq!(Dialect::Basic.to_string(), "λGC");
        assert_eq!(Dialect::Forwarding.to_string(), "λGCforw");
        assert_eq!(Dialect::Generational.to_string(), "λGCgen");
    }
}
