//! # A register-based bytecode VM for λGC
//!
//! The third interpreter backend ([`Backend::Bytecode`]): interned
//! [`TermId`] programs are compiled *once* into a flat instruction stream
//! and then executed by a dispatch loop over four register files (values,
//! tags, regions, types). Where [`crate::env_machine`] resolves every
//! variable occurrence through a hash-map environment at run time, the
//! compiler here resolves each occurrence to a **register slot at compile
//! time**, so the hot path is a vector index instead of a lookup.
//!
//! ## Why compile-time slot resolution is sound
//!
//! λGC is CPS: control never returns. Every step either descends into the
//! body/arm of the current term or β-reduces into a *closed* code block.
//! Consequently the set of bindings the environment machine holds at any
//! program point is exactly the **lexical scope chain** of that point:
//! `let`/`open`/`typecase`/… binders on the path from the enclosing unit's
//! root, or the code block's parameters right after a call. The compiler
//! walks each unit once, assigns every binder a fresh slot (shadowing gets
//! a fresh slot; lookups find the innermost), and rewrites each variable
//! occurrence to its slot. A register is written strictly before any
//! instruction that reads it, on every path, by construction.
//!
//! ## Operand classification
//!
//! Using the interner's free-variable fingerprints
//! ([`crate::intern::value_fv`]/[`tag_fv`]), each
//! operand is classified at compile time:
//!
//! * **`Reg`** — a plain variable bound in scope: one vector index.
//! * **`Imm`** — an operand with no in-scope free variables: used as-is
//!   (hash-consed children make the clone O(1)).
//! * **`Build`** — a structured operand with in-scope free variables: at
//!   run time a mini-[`Subst`] binds exactly those variables from the
//!   registers and substitutes. This reuses the *same* substitution
//!   machinery as the environment machine, so resolution is identical by
//!   construction.
//!
//! ## Superinstructions
//!
//! Two fusions target the patterns that dominate the battery (the
//! `ifgc`-guarded `let`-spines emitted by closure conversion):
//!
//! * **`lets` chains** — consecutive `let x = op in …` forms fuse into one
//!   instruction holding a micro-op array: one fetch/dispatch per spine
//!   instead of one per binding. `ifgc` and other control forms bound the
//!   chains, so a chain is exactly an allocation burst between GC checks.
//! * **`put-pair`** — `let x = put[ρ] (v₁, v₂)`, the allocation form that
//!   closure environments and list cells compile to, resolves the two
//!   components directly into a fresh pair without a generic `Build`.
//!
//! Both preserve per-rule observability: each micro-op is still one
//! machine step (`Stats.steps`, `on_step`, audit cadence, fault-injection
//! points are byte-identical to the substitution oracle).
//!
//! Telemetry hooks, [`Stats`](crate::machine::Stats) counters, error messages, and the
//! [resolved control view](BcMachine::resolved_control) all mirror the
//! Fig. 5 machine rule for rule; the lockstep differential suite holds all
//! three backends to that contract.
//!
//! [`Backend::Bytecode`]: crate::machine::Backend::Bytecode

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use ps_ir::{FxBuildHasher, FxHasher, Symbol};

use crate::error::Result;
use crate::intern::{
    intern_tag, intern_term, intern_ty, intern_value, tag_fv, ty_fv, value_fv, LazyChild, SlotVal,
    TagId, TermId, TyId, ValId,
};
use crate::machine::sealed::{Core, HasCore};
use crate::machine::{drive, widen_psi, Machine, Outcome, Program, TypecaseArm};
use crate::memory::MemConfig;
use crate::snapshot::Snapshot;
use crate::subst::Subst;
use crate::syntax::{CodeDef, Kind, Op, PrimOp, Region, RegionName, Tag, Term, Ty, Value, CD};
use crate::tags;

/// Sentinel scope id for "empty scope chain".
const NO_SCOPE: u32 = u32::MAX;

/// Placeholder branch target, patched after the arm is compiled.
const PATCH: u32 = u32::MAX;

/// The binder namespaces (λGC has four: values, tags, regions, types).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ns {
    Val,
    Tag,
    Rgn,
    Alpha,
}

/// One register to bind when materializing a `Build` operand.
#[derive(Clone, Copy, Debug)]
struct Bind {
    ns: Ns,
    sym: Symbol,
    slot: u32,
}

/// A value operand, resolved at compile time.
/// `Imm`/`Build` are as large as a `Value` node; boxing them would put an
/// indirection on the decode path of the common `Reg` case for no gain —
/// operands live in the compiled stream, not in registers.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum ValOp {
    /// A variable bound in scope: read the register.
    Reg(u32),
    /// No in-scope free variables: the operand resolves to itself.
    Imm(Value),
    /// Structured operand with in-scope free variables: instantiate the
    /// precompiled template `tpl` from the registers. `val`/`binds` keep
    /// the source form for the disassembler and for the [`VTpl::Generic`]
    /// fallback (the [`Subst`] path, shared with the environment machine).
    Build {
        val: Value,
        binds: Box<[Bind]>,
        tpl: VTpl,
    },
}

/// A precompiled instantiation template for a [`ValOp::Build`] operand.
///
/// Resolving a structured operand through [`Subst::value`] re-walks the
/// value — and, at every package binder, clones the substitution and
/// re-substitutes the (large, heavily shared) closure types — on every
/// step that executes the operand. The template performs that walk once,
/// at compile time: subtrees whose free variables miss the bound registers
/// collapse to interned immediates ([`VTpl::ImmId`], the compile-time
/// image of the substituter's fingerprint skip), bound variables become
/// register reads, and the remaining spine is rebuilt directly. Type
/// positions ([`TyTpl::Sub`]) memoize per instruction site on the interned
/// identities of the bound registers: tag/region/type bindings are stable
/// across the allocations of one GC cycle, so the expensive [`Subst::ty`]
/// runs once per cycle instead of once per allocation.
///
/// Instantiation is structurally identical to the `Subst` path: runtime
/// ranges are closed, so the substituter never renames binders (entering a
/// binder only removes it from the domain — reproduced here by dropping
/// the binder from each `body_ty`'s bind set), and restricting the domain
/// to the variables that actually occur free leaves the result unchanged.
#[derive(Clone, Debug)]
enum VTpl {
    /// Interned subtree untouched by the bound registers: reuse it as-is.
    ImmId(ValId),
    /// A bound value variable: read the register.
    Reg(u32),
    Pair(Box<VTpl>, Box<VTpl>),
    PackTag {
        tvar: Symbol,
        kind: Kind,
        tag: TagTpl,
        val: Box<VTpl>,
        body_ty: TyTpl,
    },
    PackAlpha {
        avar: Symbol,
        regions: Box<[RgnTpl]>,
        witness: TyTpl,
        val: Box<VTpl>,
        body_ty: TyTpl,
    },
    PackRgn {
        rvar: Symbol,
        bound: Box<[RgnTpl]>,
        witness: RgnTpl,
        val: Box<VTpl>,
        body_ty: TyTpl,
    },
    TagApp(Box<VTpl>, Box<[TagTpl]>, Box<[RgnTpl]>),
    Inl(Box<VTpl>),
    Inr(Box<VTpl>),
    /// Fall back to the generic [`Subst`] path. Used for operands that
    /// contain `Code` literals (substitution descends into the code
    /// definition — far too rare to template). Only ever the *root* of a
    /// template: [`BcMachine::rv`] dispatches it before instantiating.
    Generic,
}

/// A tag position inside a [`VTpl`].
#[derive(Clone, Debug)]
enum TagTpl {
    Imm(TagId),
    /// `Tag::Var(t)` with `t` bound: read the register.
    Reg(u32),
    /// `Tag::AnyArrow(t)` with `t` bound: apply [`Subst::tag`]'s collapse
    /// rule to the register contents.
    AnyArrow(u32),
    /// A structural tag with bound variables inside: substitute.
    Sub {
        tag: TagId,
        binds: Box<[(Symbol, u32)]>,
    },
}

/// A type position inside a [`VTpl`].
#[derive(Clone, Debug)]
enum TyTpl {
    Imm(TyId),
    /// Substitute the bound registers into `ty`, memoized per `site`
    /// (unique within the unit) on the interned identities of the
    /// register contents.
    Sub {
        ty: TyId,
        binds: Box<[Bind]>,
        site: u32,
    },
}

/// A region position inside a [`VTpl`].
#[derive(Clone, Debug)]
enum RgnTpl {
    Imm(Region),
    Reg(u32),
}

/// A captured register value keying one [`TyTpl::Sub`] cache entry.
/// Tags and types are interned ids, so a probe is a handful of integer
/// compares, and equal bind values guarantee equal substitution output
/// (substitution is a pure function of the bindings).
#[derive(Clone, Copy, Debug, PartialEq)]
enum BindVal {
    Tag(TagId),
    Rgn(Region),
    Alpha(TyId),
}

/// Per-machine bucket: captured register values → substituted type.
type TyCacheBucket = Vec<(Box<[BindVal]>, TyId)>;

/// A tag operand (tags can only mention tag variables).
#[derive(Clone, Debug)]
enum TagOp {
    Reg(u32),
    Imm(TagId),
    Build {
        tag: TagId,
        binds: Box<[(Symbol, u32)]>,
    },
}

/// A region operand. `Imm(Region::Var(_))` is an *unbound* region variable,
/// kept so use sites report the same "unsubstituted region variable" error
/// as the other backends.
#[derive(Clone, Debug)]
enum RgnOp {
    Reg(u32),
    Imm(Region),
}

/// The operation of one fused `let` binding.
#[derive(Clone, Debug)]
enum MicroOp {
    Val(ValOp),
    Proj(u8, ValOp),
    Put(RgnOp, ValOp),
    /// Superinstruction: `put[ρ] (v₁, v₂)` with the pair built in place.
    PutPair(RgnOp, ValOp, ValOp),
    Get(ValOp),
    Strip(ValOp),
    Prim(PrimOp, ValOp, ValOp),
}

/// One `let` binding inside a [`Instr::Lets`] chain. Carries its own
/// source/scope so mid-chain states resolve to the right control term.
#[derive(Clone, Debug)]
struct Micro {
    dst: u32,
    op: MicroOp,
    src: TermId,
    scope: u32,
}

/// A bytecode instruction. Single-continuation forms fall through to
/// `pc + 1`; branch forms carry explicit targets; `Call`/`Halt` terminate
/// the unit.
/// Variant sizes are dominated by inline [`ValOp`] operands (see there);
/// instructions are decoded in place, never moved, so the size spread is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Instr {
    /// A maximal run of consecutive `let`s. Each micro-op is one machine
    /// step.
    Lets(Box<[Micro]>),
    Call {
        f: ValOp,
        tags: Box<[TagOp]>,
        rgns: Box<[RgnOp]>,
        args: Box<[ValOp]>,
    },
    Halt(ValOp),
    IfGc {
        r: RgnOp,
        full: u32,
        cont: u32,
    },
    OpenTag {
        pkg: ValOp,
        tdst: u32,
        vdst: u32,
    },
    OpenAlpha {
        pkg: ValOp,
        adst: u32,
        vdst: u32,
    },
    OpenRgn {
        pkg: ValOp,
        rdst: u32,
        vdst: u32,
    },
    LetRegion {
        rdst: u32,
    },
    Only {
        keep: Box<[RgnOp]>,
    },
    Typecase {
        tag: TagOp,
        int_arm: u32,
        arrow_arm: u32,
        t1dst: u32,
        t2dst: u32,
        prod_arm: u32,
        tedst: u32,
        exist_arm: u32,
    },
    IfLeft {
        dst: u32,
        scrut: ValOp,
        left: u32,
        right: u32,
    },
    Set {
        dst: ValOp,
        src: ValOp,
    },
    Widen {
        dst: u32,
        from: RgnOp,
        to: RgnOp,
        tag: TagOp,
        v: ValOp,
    },
    IfReg {
        r1: RgnOp,
        r2: RgnOp,
        eq: u32,
        ne: u32,
    },
    If0 {
        scrut: ValOp,
        zero: u32,
        nonzero: u32,
    },
}

/// Source mapping for one instruction: the term it was compiled from and
/// the scope in force *before* it executes. [`Instr::Lets`] chains use the
/// per-micro fields instead.
#[derive(Clone, Copy, Debug)]
struct InstrMeta {
    src: TermId,
    scope: u32,
}

/// One node of a unit's compile-time scope chain.
#[derive(Clone, Copy, Debug)]
struct ScopeNode {
    parent: u32,
    ns: Ns,
    sym: Symbol,
    slot: u32,
}

/// A compiled unit: the main term or one code block's body.
#[derive(Clone, Debug)]
struct Unit {
    label: String,
    instrs: Vec<Instr>,
    metas: Vec<InstrMeta>,
    scopes: Vec<ScopeNode>,
    val_slots: u32,
    tag_slots: u32,
    rgn_slots: u32,
    alpha_slots: u32,
}

/// All compiled units of a loaded program. Unit 0 is the main term; code
/// blocks are keyed by the identity of their installed `Arc<CodeDef>`.
#[derive(Clone, Debug, Default)]
struct CodeCache {
    units: Vec<Unit>,
    by_def: HashMap<usize, u32, FxBuildHasher>,
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

#[derive(Default)]
struct UnitBuilder {
    instrs: Vec<Instr>,
    metas: Vec<InstrMeta>,
    scopes: Vec<ScopeNode>,
    nval: u32,
    ntag: u32,
    nrgn: u32,
    nalpha: u32,
    /// Allocator for [`TyTpl::Sub`] memoization sites.
    ty_sites: u32,
}

impl UnitBuilder {
    fn bind(&mut self, parent: u32, ns: Ns, sym: Symbol) -> (u32, u32) {
        let slot = match ns {
            Ns::Val => {
                self.nval += 1;
                self.nval - 1
            }
            Ns::Tag => {
                self.ntag += 1;
                self.ntag - 1
            }
            Ns::Rgn => {
                self.nrgn += 1;
                self.nrgn - 1
            }
            Ns::Alpha => {
                self.nalpha += 1;
                self.nalpha - 1
            }
        };
        self.scopes.push(ScopeNode {
            parent,
            ns,
            sym,
            slot,
        });
        ((self.scopes.len() - 1) as u32, slot)
    }

    fn lookup(&self, mut scope: u32, ns: Ns, sym: Symbol) -> Option<u32> {
        while scope != NO_SCOPE {
            let n = &self.scopes[scope as usize];
            if n.ns == ns && n.sym == sym {
                return Some(n.slot);
            }
            scope = n.parent;
        }
        None
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn push(&mut self, i: Instr, src: TermId, scope: u32) -> u32 {
        let pc = self.here();
        self.instrs.push(i);
        self.metas.push(InstrMeta { src, scope });
        pc
    }

    fn classify_val(&mut self, v: &Value, scope: u32) -> ValOp {
        if let Value::Var(x) = v {
            return match self.lookup(scope, Ns::Val, *x) {
                Some(slot) => ValOp::Reg(slot),
                // A free variable resolves to itself (the environment
                // machine's lookup would miss too).
                None => ValOp::Imm(v.clone()),
            };
        }
        let fv = value_fv(intern_value(v.clone()));
        let mut binds = Vec::new();
        for &x in fv.xvars.iter() {
            if let Some(slot) = self.lookup(scope, Ns::Val, x) {
                binds.push(Bind {
                    ns: Ns::Val,
                    sym: x,
                    slot,
                });
            }
        }
        for &t in fv.tvars.iter() {
            if let Some(slot) = self.lookup(scope, Ns::Tag, t) {
                binds.push(Bind {
                    ns: Ns::Tag,
                    sym: t,
                    slot,
                });
            }
        }
        for &r in fv.rvars.iter() {
            if let Some(slot) = self.lookup(scope, Ns::Rgn, r) {
                binds.push(Bind {
                    ns: Ns::Rgn,
                    sym: r,
                    slot,
                });
            }
        }
        for &a in fv.avars.iter() {
            if let Some(slot) = self.lookup(scope, Ns::Alpha, a) {
                binds.push(Bind {
                    ns: Ns::Alpha,
                    sym: a,
                    slot,
                });
            }
        }
        if binds.is_empty() {
            ValOp::Imm(v.clone())
        } else {
            let tpl = if contains_code(v) {
                VTpl::Generic
            } else {
                self.vtpl_node(v, &binds)
            };
            ValOp::Build {
                val: v.clone(),
                binds: binds.into_boxed_slice(),
                tpl,
            }
        }
    }

    /// Compiles one value subtree of a `Build` operand, mirroring
    /// [`Subst::value_id`]: a subtree whose free-variable fingerprint
    /// misses the bound registers is the interned identity.
    fn vtpl_child(&mut self, id: ValId, binds: &[Bind]) -> VTpl {
        let fv = value_fv(id);
        let hit = binds.iter().any(|b| match b.ns {
            Ns::Val => fv.xvars.binary_search(&b.sym).is_ok(),
            Ns::Tag => fv.tvars.binary_search(&b.sym).is_ok(),
            Ns::Rgn => fv.rvars.binary_search(&b.sym).is_ok(),
            Ns::Alpha => fv.avars.binary_search(&b.sym).is_ok(),
        });
        if hit {
            self.vtpl_node(id.node(), binds)
        } else {
            VTpl::ImmId(id)
        }
    }

    /// Compiles one value node of a `Build` operand, variant by variant
    /// the compile-time image of [`Subst::value`]. Value, tag, witness and
    /// region positions see the full bind set; each package's `body_ty`
    /// drops that package's own binder (entering a binder removes it from
    /// the substitution domain — closed runtime ranges never force a
    /// rename).
    fn vtpl_node(&mut self, v: &Value, binds: &[Bind]) -> VTpl {
        match v {
            Value::Int(_) | Value::Addr(..) => VTpl::ImmId(v.id()),
            Value::Var(x) => binds
                .iter()
                .find(|b| b.ns == Ns::Val && b.sym == *x)
                .map_or_else(|| VTpl::ImmId(v.id()), |b| VTpl::Reg(b.slot)),
            Value::Pair(a, b) => VTpl::Pair(
                self.vtpl_child(*a, binds).into(),
                self.vtpl_child(*b, binds).into(),
            ),
            Value::PackTag {
                tvar,
                kind,
                tag,
                val,
                body_ty,
            } => VTpl::PackTag {
                tvar: *tvar,
                kind: *kind,
                tag: self.tag_tpl(*tag, binds),
                val: self.vtpl_child(*val, binds).into(),
                body_ty: self.ty_tpl(*body_ty, binds, Some((Ns::Tag, *tvar))),
            },
            Value::PackAlpha {
                avar,
                regions,
                witness,
                val,
                body_ty,
            } => VTpl::PackAlpha {
                avar: *avar,
                regions: regions.iter().map(|r| rgn_tpl(r, binds)).collect(),
                witness: self.ty_tpl(*witness, binds, None),
                val: self.vtpl_child(*val, binds).into(),
                body_ty: self.ty_tpl(*body_ty, binds, Some((Ns::Alpha, *avar))),
            },
            Value::PackRgn {
                rvar,
                bound,
                witness,
                val,
                body_ty,
            } => VTpl::PackRgn {
                rvar: *rvar,
                bound: bound.iter().map(|r| rgn_tpl(r, binds)).collect(),
                witness: rgn_tpl(witness, binds),
                val: self.vtpl_child(*val, binds).into(),
                body_ty: self.ty_tpl(*body_ty, binds, Some((Ns::Rgn, *rvar))),
            },
            Value::TagApp(f, ts, rs) => VTpl::TagApp(
                self.vtpl_child(*f, binds).into(),
                ts.iter().map(|t| self.tag_tpl(*t, binds)).collect(),
                rs.iter().map(|r| rgn_tpl(r, binds)).collect(),
            ),
            Value::Inl(x) => VTpl::Inl(self.vtpl_child(*x, binds).into()),
            Value::Inr(x) => VTpl::Inr(self.vtpl_child(*x, binds).into()),
            // Guarded out by `contains_code` before compilation starts.
            Value::Code(_) => VTpl::Generic,
        }
    }

    /// Compiles one tag position, restricted to the tag-namespace binds
    /// that occur free in `tau` (restricting the domain to occurring
    /// variables leaves [`Subst::tag`] unchanged).
    fn tag_tpl(&self, tau: TagId, binds: &[Bind]) -> TagTpl {
        let fv = tag_fv(tau);
        let hits: Vec<(Symbol, u32)> = binds
            .iter()
            .filter(|b| b.ns == Ns::Tag && fv.binary_search(&b.sym).is_ok())
            .map(|b| (b.sym, b.slot))
            .collect();
        match (hits.as_slice(), tau.node()) {
            ([], _) => TagTpl::Imm(tau),
            ([(_, slot)], Tag::Var(_)) => TagTpl::Reg(*slot),
            ([(_, slot)], Tag::AnyArrow(_)) => TagTpl::AnyArrow(*slot),
            _ => TagTpl::Sub {
                tag: tau,
                binds: hits.into_boxed_slice(),
            },
        }
    }

    /// Compiles one type position, restricted to the binds that occur free
    /// in `sigma` (types never mention value variables), minus `skip` (the
    /// enclosing package's own binder).
    fn ty_tpl(&mut self, sigma: TyId, binds: &[Bind], skip: Option<(Ns, Symbol)>) -> TyTpl {
        let fv = ty_fv(sigma);
        let hits: Vec<Bind> = binds
            .iter()
            .filter(|b| {
                skip != Some((b.ns, b.sym))
                    && match b.ns {
                        Ns::Tag => fv.tvars.binary_search(&b.sym).is_ok(),
                        Ns::Rgn => fv.rvars.binary_search(&b.sym).is_ok(),
                        Ns::Alpha => fv.avars.binary_search(&b.sym).is_ok(),
                        Ns::Val => false,
                    }
            })
            .copied()
            .collect();
        if hits.is_empty() {
            TyTpl::Imm(sigma)
        } else {
            let site = self.ty_sites;
            self.ty_sites += 1;
            TyTpl::Sub {
                ty: sigma,
                binds: hits.into_boxed_slice(),
                site,
            }
        }
    }

    fn classify_tag(&self, id: TagId, scope: u32) -> TagOp {
        if let Tag::Var(t) = id.node() {
            if let Some(slot) = self.lookup(scope, Ns::Tag, *t) {
                return TagOp::Reg(slot);
            }
        }
        let binds: Vec<(Symbol, u32)> = tag_fv(id)
            .iter()
            .filter_map(|&t| self.lookup(scope, Ns::Tag, t).map(|slot| (t, slot)))
            .collect();
        if binds.is_empty() {
            TagOp::Imm(id)
        } else {
            TagOp::Build {
                tag: id,
                binds: binds.into_boxed_slice(),
            }
        }
    }

    fn classify_rgn(&self, rho: &Region, scope: u32) -> RgnOp {
        match rho {
            Region::Var(r) => match self.lookup(scope, Ns::Rgn, *r) {
                Some(slot) => RgnOp::Reg(slot),
                None => RgnOp::Imm(*rho),
            },
            Region::Name(_) => RgnOp::Imm(*rho),
        }
    }

    fn classify_op(&mut self, op: &Op, scope: u32) -> MicroOp {
        match op {
            Op::Val(v) => MicroOp::Val(self.classify_val(v, scope)),
            Op::Proj(i, v) => MicroOp::Proj(*i, self.classify_val(v, scope)),
            Op::Put(rho, v) => {
                let r = self.classify_rgn(rho, scope);
                if let Value::Pair(a, b) = v {
                    return MicroOp::PutPair(
                        r,
                        self.classify_val(a.node(), scope),
                        self.classify_val(b.node(), scope),
                    );
                }
                MicroOp::Put(r, self.classify_val(v, scope))
            }
            Op::Get(v) => MicroOp::Get(self.classify_val(v, scope)),
            Op::Strip(v) => MicroOp::Strip(self.classify_val(v, scope)),
            Op::Prim(p, a, b) => {
                MicroOp::Prim(*p, self.classify_val(a, scope), self.classify_val(b, scope))
            }
        }
    }

    fn compile_term(&mut self, mut t: TermId, mut scope: u32) {
        loop {
            match t.node() {
                Term::Let { .. } => {
                    let (src0, scope0) = (t, scope);
                    let mut micros = Vec::new();
                    while let Term::Let { x, op, body } = t.node() {
                        let mop = self.classify_op(op, scope);
                        let (nsc, slot) = self.bind(scope, Ns::Val, *x);
                        micros.push(Micro {
                            dst: slot,
                            op: mop,
                            src: t,
                            scope,
                        });
                        scope = nsc;
                        t = *body;
                    }
                    self.push(Instr::Lets(micros.into_boxed_slice()), src0, scope0);
                }
                Term::App {
                    f,
                    tags: ts,
                    regions,
                    args,
                } => {
                    let i = Instr::Call {
                        f: self.classify_val(f, scope),
                        tags: ts
                            .iter()
                            .map(|tau| self.classify_tag(*tau, scope))
                            .collect(),
                        rgns: regions
                            .iter()
                            .map(|r| self.classify_rgn(r, scope))
                            .collect(),
                        args: args.iter().map(|v| self.classify_val(v, scope)).collect(),
                    };
                    self.push(i, t, scope);
                    return;
                }
                Term::Halt(v) => {
                    let i = Instr::Halt(self.classify_val(v, scope));
                    self.push(i, t, scope);
                    return;
                }
                Term::IfGc { rho, full, cont } => {
                    let r = self.classify_rgn(rho, scope);
                    let pc = self.push(
                        Instr::IfGc {
                            r,
                            full: PATCH,
                            cont: PATCH,
                        },
                        t,
                        scope,
                    );
                    let cont_pc = self.here();
                    self.compile_term(*cont, scope);
                    let full_pc = self.here();
                    self.compile_term(*full, scope);
                    if let Instr::IfGc { full, cont, .. } = &mut self.instrs[pc as usize] {
                        *full = full_pc;
                        *cont = cont_pc;
                    }
                    return;
                }
                Term::OpenTag { pkg, tvar, x, body } => {
                    let p = self.classify_val(pkg, scope);
                    let (sc1, tdst) = self.bind(scope, Ns::Tag, *tvar);
                    let (sc2, vdst) = self.bind(sc1, Ns::Val, *x);
                    self.push(Instr::OpenTag { pkg: p, tdst, vdst }, t, scope);
                    scope = sc2;
                    t = *body;
                }
                Term::OpenAlpha { pkg, avar, x, body } => {
                    let p = self.classify_val(pkg, scope);
                    let (sc1, adst) = self.bind(scope, Ns::Alpha, *avar);
                    let (sc2, vdst) = self.bind(sc1, Ns::Val, *x);
                    self.push(Instr::OpenAlpha { pkg: p, adst, vdst }, t, scope);
                    scope = sc2;
                    t = *body;
                }
                Term::OpenRgn { pkg, rvar, x, body } => {
                    let p = self.classify_val(pkg, scope);
                    let (sc1, rdst) = self.bind(scope, Ns::Rgn, *rvar);
                    let (sc2, vdst) = self.bind(sc1, Ns::Val, *x);
                    self.push(Instr::OpenRgn { pkg: p, rdst, vdst }, t, scope);
                    scope = sc2;
                    t = *body;
                }
                Term::LetRegion { rvar, body } => {
                    let (sc1, rdst) = self.bind(scope, Ns::Rgn, *rvar);
                    self.push(Instr::LetRegion { rdst }, t, scope);
                    scope = sc1;
                    t = *body;
                }
                Term::Only { regions, body } => {
                    let keep: Box<[RgnOp]> = regions
                        .iter()
                        .map(|r| self.classify_rgn(r, scope))
                        .collect();
                    self.push(Instr::Only { keep }, t, scope);
                    t = *body;
                }
                Term::Typecase {
                    tag,
                    int_arm,
                    arrow_arm,
                    prod_arm,
                    exist_arm,
                } => {
                    let tg = self.classify_tag(*tag, scope);
                    let (t1, t2, prod_body) = prod_arm;
                    let (te, exist_body) = exist_arm;
                    let (psc1, t1dst) = self.bind(scope, Ns::Tag, *t1);
                    let (psc2, t2dst) = self.bind(psc1, Ns::Tag, *t2);
                    let (esc, tedst) = self.bind(scope, Ns::Tag, *te);
                    let pc = self.push(
                        Instr::Typecase {
                            tag: tg,
                            int_arm: PATCH,
                            arrow_arm: PATCH,
                            t1dst,
                            t2dst,
                            prod_arm: PATCH,
                            tedst,
                            exist_arm: PATCH,
                        },
                        t,
                        scope,
                    );
                    let ia = self.here();
                    self.compile_term(*int_arm, scope);
                    let aa = self.here();
                    self.compile_term(*arrow_arm, scope);
                    let pa = self.here();
                    self.compile_term(*prod_body, psc2);
                    let ea = self.here();
                    self.compile_term(*exist_body, esc);
                    if let Instr::Typecase {
                        int_arm,
                        arrow_arm,
                        prod_arm,
                        exist_arm,
                        ..
                    } = &mut self.instrs[pc as usize]
                    {
                        *int_arm = ia;
                        *arrow_arm = aa;
                        *prod_arm = pa;
                        *exist_arm = ea;
                    }
                    return;
                }
                Term::IfLeft {
                    x,
                    scrut,
                    left,
                    right,
                } => {
                    let s = self.classify_val(scrut, scope);
                    let (sc1, dst) = self.bind(scope, Ns::Val, *x);
                    let pc = self.push(
                        Instr::IfLeft {
                            dst,
                            scrut: s,
                            left: PATCH,
                            right: PATCH,
                        },
                        t,
                        scope,
                    );
                    let la = self.here();
                    self.compile_term(*left, sc1);
                    let ra = self.here();
                    self.compile_term(*right, sc1);
                    if let Instr::IfLeft { left, right, .. } = &mut self.instrs[pc as usize] {
                        *left = la;
                        *right = ra;
                    }
                    return;
                }
                Term::Set { dst, src, body } => {
                    let i = Instr::Set {
                        dst: self.classify_val(dst, scope),
                        src: self.classify_val(src, scope),
                    };
                    self.push(i, t, scope);
                    t = *body;
                }
                Term::Widen {
                    x,
                    from,
                    to,
                    tag,
                    v,
                    body,
                } => {
                    let i_from = self.classify_rgn(from, scope);
                    let i_to = self.classify_rgn(to, scope);
                    let i_tag = self.classify_tag(*tag, scope);
                    let i_v = self.classify_val(v, scope);
                    let (sc1, dst) = self.bind(scope, Ns::Val, *x);
                    self.push(
                        Instr::Widen {
                            dst,
                            from: i_from,
                            to: i_to,
                            tag: i_tag,
                            v: i_v,
                        },
                        t,
                        scope,
                    );
                    scope = sc1;
                    t = *body;
                }
                Term::IfReg { r1, r2, eq, ne } => {
                    let i1 = self.classify_rgn(r1, scope);
                    let i2 = self.classify_rgn(r2, scope);
                    let pc = self.push(
                        Instr::IfReg {
                            r1: i1,
                            r2: i2,
                            eq: PATCH,
                            ne: PATCH,
                        },
                        t,
                        scope,
                    );
                    let ea = self.here();
                    self.compile_term(*eq, scope);
                    let na = self.here();
                    self.compile_term(*ne, scope);
                    if let Instr::IfReg { eq, ne, .. } = &mut self.instrs[pc as usize] {
                        *eq = ea;
                        *ne = na;
                    }
                    return;
                }
                Term::If0 {
                    scrut,
                    zero,
                    nonzero,
                } => {
                    let s = self.classify_val(scrut, scope);
                    let pc = self.push(
                        Instr::If0 {
                            scrut: s,
                            zero: PATCH,
                            nonzero: PATCH,
                        },
                        t,
                        scope,
                    );
                    let za = self.here();
                    self.compile_term(*zero, scope);
                    let na = self.here();
                    self.compile_term(*nonzero, scope);
                    if let Instr::If0 { zero, nonzero, .. } = &mut self.instrs[pc as usize] {
                        *zero = za;
                        *nonzero = na;
                    }
                    return;
                }
            }
        }
    }

    fn finish(self, label: String) -> Unit {
        Unit {
            label,
            instrs: self.instrs,
            metas: self.metas,
            scopes: self.scopes,
            val_slots: self.nval,
            tag_slots: self.ntag,
            rgn_slots: self.nrgn,
            alpha_slots: self.nalpha,
        }
    }
}

/// Does the value tree contain a `Code` literal? Substitution descends
/// into code definitions; operands holding one keep the generic path.
fn contains_code(v: &Value) -> bool {
    match v {
        Value::Code(_) => true,
        Value::Int(_) | Value::Var(_) | Value::Addr(..) => false,
        Value::Pair(a, b) => contains_code(a.node()) || contains_code(b.node()),
        Value::PackTag { val, .. } | Value::PackAlpha { val, .. } | Value::PackRgn { val, .. } => {
            contains_code(val.node())
        }
        Value::TagApp(f, ..) => contains_code(f.node()),
        Value::Inl(x) | Value::Inr(x) => contains_code(x.node()),
    }
}

/// Compiles one region position of a `Build` operand.
fn rgn_tpl(rho: &Region, binds: &[Bind]) -> RgnTpl {
    if let Region::Var(r) = rho {
        if let Some(b) = binds.iter().find(|b| b.ns == Ns::Rgn && b.sym == *r) {
            return RgnTpl::Reg(b.slot);
        }
    }
    RgnTpl::Imm(*rho)
}

/// Compiles the main term (empty initial scope).
fn compile_main(main: &Term) -> Unit {
    let mut b = UnitBuilder::default();
    b.compile_term(intern_term(main.clone()), NO_SCOPE);
    b.finish("<main>".to_string())
}

/// Compiles one code block. Parameters take the first slots of each file
/// (tags `0..`, regions `0..`, values `0..`, in declaration order), which
/// is what [`BcMachine`]'s call sequence writes.
fn compile_def(def: &CodeDef) -> Unit {
    let mut b = UnitBuilder::default();
    let mut sc = NO_SCOPE;
    for (t, _) in &def.tvars {
        sc = b.bind(sc, Ns::Tag, *t).0;
    }
    for r in &def.rvars {
        sc = b.bind(sc, Ns::Rgn, *r).0;
    }
    for (x, _) in &def.params {
        sc = b.bind(sc, Ns::Val, *x).0;
    }
    b.compile_term(intern_term(def.body.clone()), sc);
    b.finish(format!(
        "code {}[{}][{}]({})",
        def.name,
        def.tvars.len(),
        def.rvars.len(),
        def.params.len()
    ))
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

/// The register-based bytecode machine (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct BcMachine {
    core: Core,
    main: Term,
    /// Lazy ids-or-thunks slot representation: when set (the default),
    /// `put` stores operands whose interned identity is unknown as thunks
    /// and lets the page store backfill them on first identity demand.
    lazy: bool,
    cache: Option<Arc<CodeCache>>,
    /// A `TagApp` unfolding materialized last step, to be executed as an
    /// application this step (costs one step, like the other backends).
    /// Kept as parts — the equivalent `Term::App` is only built (and
    /// interned) on the rare [`BcMachine::resolved_control`] query.
    pending: Option<PendingApp>,
    vals: Vec<Value>,
    tag_regs: Vec<TagId>,
    rgn_regs: Vec<Region>,
    alpha_regs: Vec<TyId>,
    unit: u32,
    pc: u32,
    sub: u32,
    /// [`TyTpl::Sub`] memoization: `(unit, site, key hash)` ↦ substituted
    /// types, keyed by the captured values of the bound registers (hashed
    /// straight from the registers, so a probe allocates nothing). Collector
    /// copy sites cycle through one key per scanned tag shape per GC cycle,
    /// so buckets stay near length one.
    ty_cache: HashMap<(u32, u32, u64), TyCacheBucket, FxBuildHasher>,
    /// Scratch buffers for call operand resolution, reused across calls so
    /// the hot β-reduction path does not allocate.
    /// Shadow interned-id file: `val_ids[i]`, when set, is the interned
    /// identity of `vals[i]`. Writers that learn a value's id for free
    /// (projection of an interned pair child, opening a package, a
    /// register-to-register move) record it here so later uses as a child
    /// of a constructed node skip re-interning; writers of fresh values
    /// (puts, gets, primitives) store `None`.
    val_ids: Vec<Option<ValId>>,
    scratch_tags: Vec<TagId>,
    scratch_rgns: Vec<Region>,
    scratch_args: Vec<(Value, Option<ValId>)>,
}

/// A point-in-time scope-chain binding captured by a deferred snapshot
/// ([`BcMachine::snapshot`]): the register payload for one namespace,
/// cloned (refcount bumps — everything is interned) at checkpoint time and
/// only assembled into a [`Subst`] if the snapshot is ever resolved.
enum SnapBind {
    Val(Value),
    Tag(TagId),
    Rgn(Region),
    Alpha(TyId),
}

/// A materialized `TagApp` unfolding: `(vJ~τ;~ρK)[~τ′][~ρ′](~v) ⇒
/// v[~τ][~ρ](~v)`, held as parts until the next step executes it.
#[derive(Clone, Debug)]
struct PendingApp {
    f: Value,
    tags: Arc<[TagId]>,
    regions: Arc<[Region]>,
    args: Box<[(Value, Option<ValId>)]>,
}

impl BcMachine {
    /// Loads a program: installs its code blocks in `cd` and schedules the
    /// main term. Compilation to bytecode happens lazily on the first step.
    pub fn load(program: &Program, config: MemConfig) -> BcMachine {
        BcMachine {
            core: Core::load(program, config),
            main: program.main.clone(),
            lazy: true,
            cache: None,
            pending: None,
            vals: Vec::new(),
            tag_regs: Vec::new(),
            rgn_regs: Vec::new(),
            alpha_regs: Vec::new(),
            unit: 0,
            pc: 0,
            sub: 0,
            ty_cache: HashMap::default(),
            val_ids: Vec::new(),
            scratch_tags: Vec::new(),
            scratch_rgns: Vec::new(),
            scratch_args: Vec::new(),
        }
    }

    /// The current instruction's unit, source term and compile-time scope;
    /// `None` before the first step (the control is still the uncompiled
    /// main term) and while a `TagApp` unfolding is pending.
    fn position(&self) -> Option<(&Unit, TermId, u32)> {
        if self.pending.is_some() {
            return None;
        }
        let unit = &self.cache.as_ref()?.units[self.unit as usize];
        let (src, scope) = match unit.instrs.get(self.pc as usize) {
            Some(Instr::Lets(ms)) => {
                let m = &ms[self.sub as usize];
                (m.src, m.scope)
            }
            _ => {
                let m = &unit.metas[self.pc as usize];
                (m.src, m.scope)
            }
        };
        Some((unit, src, scope))
    }

    /// The unobserved loop under a deadline: [`Self::run_fast`] in bursts
    /// of 1024 steps, polling the clock between bursts, as the shared run
    /// loop polls it every 1024 steps.
    fn run_fast_until(&mut self, fuel: u64, deadline: Instant) -> Result<Outcome> {
        let mut left = fuel;
        while left > 0 {
            let burst = left.min(1024);
            match self.run_fast(burst)? {
                Outcome::OutOfFuel => {}
                done => return Ok(done),
            }
            left -= burst;
            if Instant::now() >= deadline {
                return Ok(Outcome::DeadlineExceeded);
            }
        }
        Ok(Outcome::OutOfFuel)
    }

    /// The unobserved dispatch loop: with no observer attached every
    /// telemetry hook is a no-op, so each iteration is just dispatch +
    /// statistics. Fused chains execute back-to-back micro-ops without
    /// re-entering the dispatch match, one counted step (and one unit of
    /// fuel) per micro-op.
    fn run_fast(&mut self, fuel: u64) -> Result<Outcome> {
        if let Some(n) = self.core.halted {
            return Ok(Outcome::Halted(n));
        }
        let mut cache = self.take_cache();
        let mut left = fuel;
        let out = loop {
            if left == 0 {
                break Ok(Outcome::OutOfFuel);
            }
            if self.pending.is_none() {
                if let Instr::Lets(ms) = &cache.units[self.unit as usize].instrs[self.pc as usize] {
                    let end = (ms.len() as u64).min(u64::from(self.sub) + left) as u32;
                    let mut sub = self.sub;
                    let mut err = None;
                    while sub < end {
                        let m = &ms[sub as usize];
                        self.core.stats.steps += 1;
                        left -= 1;
                        match self.eval_micro(&m.op) {
                            Ok((v, id)) => self.set_val(m.dst, v, id),
                            Err(e) => {
                                err = Some(e);
                                break;
                            }
                        }
                        self.core.sample_peak();
                        sub += 1;
                    }
                    if sub == ms.len() as u32 {
                        self.sub = 0;
                        self.pc += 1;
                    } else {
                        self.sub = sub;
                    }
                    if let Some(e) = err {
                        break Err(e);
                    }
                    continue;
                }
            }
            self.core.stats.steps += 1;
            left -= 1;
            match self.exec_with(&mut cache) {
                Ok(true) => self.core.sample_peak(),
                Ok(false) => break self.core.ended().map(Outcome::Halted),
                Err(e) => break Err(e),
            }
        };
        self.cache = Some(cache);
        out
    }

    /// Moves the code cache out of `self` for the duration of a step or a
    /// fast run, compiling the program on first use: the dispatch body
    /// borrows instructions from it freely while mutating registers, and
    /// the sole strong reference means a fault-injection recompile extends
    /// it in place instead of deep-cloning.
    fn take_cache(&mut self) -> Arc<CodeCache> {
        if let Some(cache) = self.cache.take() {
            return cache;
        }
        let mut cache = CodeCache {
            units: vec![compile_main(&self.main)],
            by_def: HashMap::default(),
        };
        if let Some(cd) = self.core.mem.region(CD) {
            for (_, v) in cd.iter() {
                if let Some(Value::Code(def)) = v.as_val() {
                    let u = cache.units.len() as u32;
                    cache.units.push(compile_def(def));
                    cache.by_def.insert(Arc::as_ptr(def) as usize, u);
                }
            }
        }
        let u0 = &cache.units[0];
        let (nv, nt, nr, na) = (u0.val_slots, u0.tag_slots, u0.rgn_slots, u0.alpha_slots);
        self.unit = 0;
        self.pc = 0;
        self.sub = 0;
        self.grow_regs(nv, nt, nr, na);
        Arc::new(cache)
    }

    fn grow_regs(&mut self, nv: u32, nt: u32, nr: u32, na: u32) {
        if self.vals.len() < nv as usize {
            self.vals.resize(nv as usize, Value::Int(0));
            self.val_ids.resize(nv as usize, None);
        }
        if self.tag_regs.len() < nt as usize {
            self.tag_regs.resize(nt as usize, intern_tag(Tag::Int));
        }
        if self.rgn_regs.len() < nr as usize {
            self.rgn_regs.resize(nr as usize, Region::Name(CD));
        }
        if self.alpha_regs.len() < na as usize {
            self.alpha_regs.resize(na as usize, intern_ty(Ty::Int));
        }
    }

    /// Resolves a value operand against the registers.
    fn rv(&mut self, op: &ValOp) -> Value {
        match op {
            ValOp::Reg(i) => self.vals[*i as usize].clone(),
            ValOp::Imm(v) => v.clone(),
            ValOp::Build { val, binds, tpl } => {
                if matches!(tpl, VTpl::Generic) {
                    let mut sub = Subst::new();
                    for b in binds.iter() {
                        match b.ns {
                            Ns::Val => sub.bind_val(b.sym, self.vals[b.slot as usize].clone()),
                            Ns::Tag => sub.bind_tag(b.sym, self.tag_regs[b.slot as usize]),
                            Ns::Rgn => sub.bind_rgn(b.sym, self.rgn_regs[b.slot as usize]),
                            Ns::Alpha => sub.bind_alpha(b.sym, self.alpha_regs[b.slot as usize]),
                        }
                    }
                    sub.value(val)
                } else {
                    self.inst_val(tpl)
                }
            }
        }
    }

    /// Writes a value register together with its shadow id (pass `None`
    /// when the interned identity is unknown).
    fn set_val(&mut self, dst: u32, v: Value, id: Option<ValId>) {
        self.vals[dst as usize] = v;
        self.val_ids[dst as usize] = id;
    }

    /// The interned id of an operand when it is known without interning:
    /// a register whose shadow id is set, or a pre-interned immediate.
    fn rvid_opt(&self, op: &ValOp) -> Option<ValId> {
        match op {
            ValOp::Reg(i) => self.val_ids[*i as usize],
            _ => None,
        }
    }

    /// Resolves an operand to an interned id, interning only when the id
    /// is not already known; a register's freshly computed id is
    /// backfilled into the shadow file.
    fn rvid(&mut self, op: &ValOp) -> ValId {
        if let Some(id) = self.rvid_opt(op) {
            return id;
        }
        let v = self.rv(op);
        let id = intern_value(v);
        if let ValOp::Reg(i) = op {
            self.val_ids[*i as usize] = Some(id);
        }
        id
    }

    /// Instantiates a value template against the registers — the runtime
    /// half of [`UnitBuilder::vtpl_node`].
    fn inst_val(&mut self, t: &VTpl) -> Value {
        match t {
            VTpl::ImmId(id) => id.node().clone(),
            VTpl::Reg(i) => self.vals[*i as usize].clone(),
            VTpl::Pair(a, b) => Value::Pair(self.inst_id(a), self.inst_id(b)),
            VTpl::PackTag {
                tvar,
                kind,
                tag,
                val,
                body_ty,
            } => Value::PackTag {
                tvar: *tvar,
                kind: *kind,
                tag: self.inst_tag(tag),
                val: self.inst_id(val),
                body_ty: self.inst_ty(body_ty),
            },
            VTpl::PackAlpha {
                avar,
                regions,
                witness,
                val,
                body_ty,
            } => Value::PackAlpha {
                avar: *avar,
                regions: regions.iter().map(|r| self.inst_rgn(r)).collect(),
                witness: self.inst_ty(witness),
                val: self.inst_id(val),
                body_ty: self.inst_ty(body_ty),
            },
            VTpl::PackRgn {
                rvar,
                bound,
                witness,
                val,
                body_ty,
            } => Value::PackRgn {
                rvar: *rvar,
                bound: bound.iter().map(|r| self.inst_rgn(r)).collect(),
                witness: self.inst_rgn(witness),
                val: self.inst_id(val),
                body_ty: self.inst_ty(body_ty),
            },
            VTpl::TagApp(f, ts, rs) => Value::TagApp(
                self.inst_id(f),
                ts.iter().map(|tau| self.inst_tag(tau)).collect(),
                rs.iter().map(|r| self.inst_rgn(r)).collect(),
            ),
            VTpl::Inl(x) => Value::Inl(self.inst_id(x)),
            VTpl::Inr(x) => Value::Inr(self.inst_id(x)),
            // Never nested: a tree containing `Code` compiles to `Generic`
            // at the root, and `rv` dispatches root `Generic` to the
            // `Subst` path before instantiating.
            VTpl::Generic => Value::Int(0),
        }
    }

    /// Instantiates a child template to an interned value; the `ImmId`
    /// fast path is the substituter's fingerprint skip.
    fn inst_id(&mut self, t: &VTpl) -> ValId {
        match t {
            VTpl::ImmId(id) => *id,
            VTpl::Reg(i) => {
                if let Some(id) = self.val_ids[*i as usize] {
                    return id;
                }
                let id = intern_value(self.vals[*i as usize].clone());
                self.val_ids[*i as usize] = Some(id);
                id
            }
            _ => intern_value(self.inst_val(t)),
        }
    }

    fn inst_tag(&self, t: &TagTpl) -> TagId {
        match t {
            TagTpl::Imm(tau) => *tau,
            TagTpl::Reg(i) => self.tag_regs[*i as usize],
            TagTpl::AnyArrow(i) => {
                // `AnyArrow(t)` follows `t` under renaming; any other
                // contents, a concrete arrow included, replace it (mirrors
                // `Subst::tag`).
                let reg = self.tag_regs[*i as usize];
                match reg.node() {
                    Tag::Var(t2) => intern_tag(Tag::AnyArrow(*t2)),
                    _ => reg,
                }
            }
            TagTpl::Sub { tag, binds } => {
                let mut sub = Subst::new();
                for (t2, slot) in binds.iter() {
                    sub.bind_tag(*t2, self.tag_regs[*slot as usize]);
                }
                sub.tag_id(*tag)
            }
        }
    }

    fn inst_rgn(&self, t: &RgnTpl) -> Region {
        match t {
            RgnTpl::Imm(r) => *r,
            RgnTpl::Reg(i) => self.rgn_regs[*i as usize],
        }
    }

    /// Instantiates a type position. `Sub` sites memoize on the captured
    /// values of the bound registers, so repeated allocations of the same
    /// closure type (per scanned tag shape, per GC cycle) pay for one
    /// substitution each; everything after is a probe of id compares.
    fn inst_ty(&mut self, t: &TyTpl) -> TyId {
        match t {
            TyTpl::Imm(sigma) => *sigma,
            TyTpl::Sub { ty, binds, site } => {
                // Hash the captured register values straight off the
                // register files — a probe allocates nothing. `binds` never
                // contains `Ns::Val` (types have no value variables), so
                // stored keys align with `binds` index-for-index; the full
                // structural compare below makes hash collisions harmless.
                let mut hasher = FxHasher::default();
                for b in binds.iter() {
                    match b.ns {
                        Ns::Tag => self.tag_regs[b.slot as usize].hash(&mut hasher),
                        Ns::Rgn => self.rgn_regs[b.slot as usize].hash(&mut hasher),
                        Ns::Alpha => self.alpha_regs[b.slot as usize].hash(&mut hasher),
                        Ns::Val => {}
                    }
                }
                let h = hasher.finish();
                if let Some(entries) = self.ty_cache.get(&(self.unit, *site, h)) {
                    'entry: for (k, sigma) in entries.iter() {
                        for (kv, b) in k.iter().zip(binds.iter()) {
                            let eq = match kv {
                                BindVal::Tag(t0) => *t0 == self.tag_regs[b.slot as usize],
                                BindVal::Rgn(r0) => *r0 == self.rgn_regs[b.slot as usize],
                                BindVal::Alpha(a0) => *a0 == self.alpha_regs[b.slot as usize],
                            };
                            if !eq {
                                continue 'entry;
                            }
                        }
                        return *sigma;
                    }
                }
                let mut sub = Subst::new();
                let key = self.capture_binds(binds);
                for (b, kv) in binds.iter().zip(key.iter()) {
                    match *kv {
                        BindVal::Tag(v) => sub.bind_tag(b.sym, v),
                        BindVal::Rgn(v) => sub.bind_rgn(b.sym, v),
                        BindVal::Alpha(v) => sub.bind_alpha(b.sym, v),
                    }
                }
                let out = sub.ty_id(*ty);
                self.ty_cache_insert(*site, h, key, out);
                out
            }
        }
    }

    /// Snapshots the register values a `Sub` site binds, in `binds`
    /// order, as the structural half of a substitution-cache key.
    fn capture_binds(&self, binds: &[Bind]) -> Vec<BindVal> {
        binds
            .iter()
            .filter(|b| b.ns != Ns::Val)
            .map(|b| match b.ns {
                Ns::Tag => BindVal::Tag(self.tag_regs[b.slot as usize]),
                Ns::Rgn => BindVal::Rgn(self.rgn_regs[b.slot as usize]),
                _ => BindVal::Alpha(self.alpha_regs[b.slot as usize]),
            })
            .collect()
    }

    /// Inserts into the per-machine substitution cache, clearing it
    /// wholesale at the cap: old entries die with their GC cycle (keys
    /// mention reclaimed regions), so per-site eviction buys nothing.
    fn ty_cache_insert(&mut self, site: u32, h: u64, key: Vec<BindVal>, out: TyId) {
        if self.ty_cache.len() >= 1 << 13 {
            self.ty_cache.clear();
        }
        self.ty_cache
            .entry((self.unit, site, h))
            .or_default()
            .push((key.into_boxed_slice(), out));
    }

    fn rtag(&self, op: &TagOp) -> TagId {
        match op {
            TagOp::Reg(i) => self.tag_regs[*i as usize],
            TagOp::Imm(t) => *t,
            TagOp::Build { tag, binds } => {
                let mut sub = Subst::new();
                for (t, slot) in binds.iter() {
                    sub.bind_tag(*t, self.tag_regs[*slot as usize]);
                }
                sub.tag_id(*tag)
            }
        }
    }

    /// Resolves a tag operand to *normal form* (what `call`, `typecase`,
    /// and `widen` consume). Tag registers only ever hold normal tags —
    /// every writer normalizes first, and normal forms are closed under the
    /// subterm extraction `typecase` performs — so the `Reg` arm skips
    /// normalization outright; `Imm` and `Build` go through the memoized
    /// normalizer.
    fn rtag_nf(&self, op: &TagOp) -> TagId {
        match op {
            TagOp::Reg(i) => self.tag_regs[*i as usize],
            _ => tags::normalize_id(self.rtag(op)).0,
        }
    }

    fn rrgn(&self, op: &RgnOp) -> Region {
        match op {
            RgnOp::Reg(i) => self.rgn_regs[*i as usize],
            RgnOp::Imm(r) => *r,
        }
    }

    fn rname(&self, op: &RgnOp) -> Result<RegionName> {
        self.core.name(self.rrgn(op))
    }

    /// Reconstructs the environment at `scope` as a substitution, binding
    /// outermost-first so shadowing resolves innermost like the other
    /// backends.
    fn scope_subst(&self, unit: &Unit, scope: u32) -> Subst {
        let mut chain = Vec::new();
        let mut s = scope;
        while s != NO_SCOPE {
            chain.push(s);
            s = unit.scopes[s as usize].parent;
        }
        let mut sub = Subst::new();
        for &s in chain.iter().rev() {
            let n = &unit.scopes[s as usize];
            match n.ns {
                Ns::Val => sub.bind_val(n.sym, self.vals[n.slot as usize].clone()),
                Ns::Tag => sub.bind_tag(n.sym, self.tag_regs[n.slot as usize]),
                Ns::Rgn => sub.bind_rgn(n.sym, self.rgn_regs[n.slot as usize]),
                Ns::Alpha => sub.bind_alpha(n.sym, self.alpha_regs[n.slot as usize]),
            }
        }
        sub
    }

    /// Executes one rule. Returns `Ok(true)` to continue, `Ok(false)` when
    /// the machine halted this step.
    fn exec_with(&mut self, cache: &mut Arc<CodeCache>) -> Result<bool> {
        if let Some(p) = self.pending.take() {
            return self.exec_pending(cache, p);
        }
        match &cache.units[self.unit as usize].instrs[self.pc as usize] {
            Instr::Lets(ms) => {
                let m = &ms[self.sub as usize];
                let (v, id) = self.eval_micro(&m.op)?;
                self.set_val(m.dst, v, id);
                self.sub += 1;
                if self.sub as usize == ms.len() {
                    self.sub = 0;
                    self.pc += 1;
                }
                Ok(true)
            }
            Instr::Call {
                f,
                tags: ts,
                rgns,
                args,
            } => {
                let fv = self.rv(f);
                if let Value::TagApp(inner, rec_tags, rec_rgns) = fv {
                    // (vJ~τ;~ρK)[~τ][~ρ](~v) ⇒ v[~τ][~ρ](~v): spend one
                    // step materializing the unfolded application, exactly
                    // like the other backends.
                    let mut out = Vec::with_capacity(args.len());
                    for v in args.iter() {
                        let id = self.rvid_opt(v);
                        out.push((self.rv(v), id));
                    }
                    self.pending = Some(PendingApp {
                        f: (*inner).clone(),
                        tags: rec_tags,
                        regions: rec_rgns,
                        args: out.into_boxed_slice(),
                    });
                    return Ok(true);
                }
                let code = self.core.callee(&fv, ts.len(), rgns.len(), args.len())?;
                // Operands land in scratch buffers reused across calls, so
                // the steady-state β-step is allocation free.
                let mut rtags = std::mem::take(&mut self.scratch_tags);
                let mut rrgns = std::mem::take(&mut self.scratch_rgns);
                let mut rargs = std::mem::take(&mut self.scratch_args);
                rtags.clear();
                rrgns.clear();
                rargs.clear();
                rtags.extend(ts.iter().map(|tau| self.rtag_nf(tau)));
                rrgns.extend(rgns.iter().map(|r| self.rrgn(r)));
                for v in args.iter() {
                    let id = self.rvid_opt(v);
                    let rv = self.rv(v);
                    rargs.push((rv, id));
                }
                self.enter_def(cache, &code, &mut rtags, &mut rrgns, &mut rargs);
                self.scratch_tags = rtags;
                self.scratch_rgns = rrgns;
                self.scratch_args = rargs;
                Ok(true)
            }
            Instr::Halt(v) => {
                let v = self.rv(v);
                self.core.halt(v)?;
                Ok(false)
            }
            Instr::IfGc { r, full, cont } => {
                let rho = self.rrgn(r);
                self.pc = if self.core.ifgc(rho)? { *full } else { *cont };
                Ok(true)
            }
            Instr::OpenTag { pkg, tdst, vdst } => match self.rv(pkg) {
                Value::PackTag { tag, val, .. } => {
                    // Fig. 5 normalizes the witness tag before binding.
                    self.tag_regs[*tdst as usize] = tags::normalize_id(tag).0;
                    self.set_val(*vdst, val.node().clone(), Some(val));
                    self.pc += 1;
                    Ok(true)
                }
                other => Err(self
                    .core
                    .stuck(format!("open(tag) on non-package {other:?}"))),
            },
            Instr::OpenAlpha { pkg, adst, vdst } => match self.rv(pkg) {
                Value::PackAlpha { witness, val, .. } => {
                    self.alpha_regs[*adst as usize] = witness;
                    self.set_val(*vdst, val.node().clone(), Some(val));
                    self.pc += 1;
                    Ok(true)
                }
                other => Err(self.core.stuck(format!("open(α) on non-package {other:?}"))),
            },
            Instr::OpenRgn { pkg, rdst, vdst } => match self.rv(pkg) {
                Value::PackRgn { witness, val, .. } => {
                    let nu = self.core.name(witness)?;
                    self.rgn_regs[*rdst as usize] = Region::Name(nu);
                    self.set_val(*vdst, val.node().clone(), Some(val));
                    self.pc += 1;
                    Ok(true)
                }
                other => Err(self
                    .core
                    .stuck(format!("open(region) on non-package {other:?}"))),
            },
            Instr::LetRegion { rdst } => {
                self.rgn_regs[*rdst as usize] = self.core.let_region();
                self.pc += 1;
                Ok(true)
            }
            Instr::Only { keep } => {
                let keep: Vec<Region> = keep.iter().map(|r| self.rrgn(r)).collect();
                self.core.only(keep)?;
                self.pc += 1;
                Ok(true)
            }
            Instr::Typecase {
                tag,
                int_arm,
                arrow_arm,
                t1dst,
                t2dst,
                prod_arm,
                tedst,
                exist_arm,
            } => {
                let nf = self.rtag_nf(tag);
                self.pc = match self.core.typecase(nf)? {
                    TypecaseArm::Int => *int_arm,
                    TypecaseArm::Arrow => *arrow_arm,
                    TypecaseArm::Prod(a, b) => {
                        self.tag_regs[*t1dst as usize] = a;
                        self.tag_regs[*t2dst as usize] = b;
                        *prod_arm
                    }
                    TypecaseArm::Exist(f) => {
                        self.tag_regs[*tedst as usize] = f;
                        *exist_arm
                    }
                };
                Ok(true)
            }
            Instr::IfLeft {
                dst,
                scrut,
                left,
                right,
            } => {
                let id = self.rvid_opt(scrut);
                match self.rv(scrut) {
                    v @ Value::Inl(_) => {
                        self.set_val(*dst, v, id);
                        self.pc = *left;
                        Ok(true)
                    }
                    v @ Value::Inr(_) => {
                        self.set_val(*dst, v, id);
                        self.pc = *right;
                        Ok(true)
                    }
                    other => Err(self
                        .core
                        .stuck(format!("ifleft on non-sum value {other:?}"))),
                }
            }
            Instr::Set { dst, src } => {
                let (dst, src) = (self.rv(dst), self.rv(src));
                self.core.set(dst, src)?;
                self.pc += 1;
                Ok(true)
            }
            Instr::Widen {
                dst,
                from,
                to,
                tag,
                v,
            } => {
                // Operationally a no-op; only the observer memory typing Ψ
                // is rewritten when tracked.
                let id = self.rvid_opt(v);
                let rv = self.rv(v);
                if self.core.mem.config().track_types {
                    let from = self.rname(from)?;
                    let to = self.rname(to)?;
                    let nf = self.rtag_nf(tag);
                    widen_psi(&mut self.core.mem, &rv, nf, from, to)?;
                }
                self.set_val(*dst, rv, id);
                self.pc += 1;
                Ok(true)
            }
            Instr::IfReg { r1, r2, eq, ne } => {
                let n1 = self.rname(r1)?;
                let n2 = self.rname(r2)?;
                self.pc = if n1 == n2 { *eq } else { *ne };
                Ok(true)
            }
            Instr::If0 {
                scrut,
                zero,
                nonzero,
            } => match self.rv(scrut) {
                Value::Int(0) => {
                    self.pc = *zero;
                    Ok(true)
                }
                Value::Int(_) => {
                    self.pc = *nonzero;
                    Ok(true)
                }
                other => Err(self.core.stuck(format!("if0 on non-integer {other:?}"))),
            },
        }
    }

    /// Executes a materialized `TagApp` unfolding: a closed application,
    /// interpreted directly (no compilation — each unfolding is unique, so
    /// caching it as a unit would never pay off). A failed application
    /// leaves it pending.
    fn exec_pending(&mut self, cache: &mut Arc<CodeCache>, p: PendingApp) -> Result<bool> {
        if let Value::TagApp(inner, rec_tags, rec_rgns) = p.f {
            self.pending = Some(PendingApp {
                f: (*inner).clone(),
                tags: rec_tags,
                regions: rec_rgns,
                args: p.args,
            });
            return Ok(true);
        }
        let code = match self
            .core
            .callee(&p.f, p.tags.len(), p.regions.len(), p.args.len())
        {
            Ok(code) => code,
            Err(e) => {
                self.pending = Some(p);
                return Err(e);
            }
        };
        let mut rtags = std::mem::take(&mut self.scratch_tags);
        let mut rrgns = std::mem::take(&mut self.scratch_rgns);
        rtags.clear();
        rrgns.clear();
        rtags.extend(p.tags.iter().map(|tau| tags::normalize_id(*tau).0));
        rrgns.extend_from_slice(&p.regions);
        let mut rargs: Vec<(Value, Option<ValId>)> = p.args.into_vec();
        self.enter_def(cache, &code, &mut rtags, &mut rrgns, &mut rargs);
        self.scratch_tags = rtags;
        self.scratch_rgns = rrgns;
        Ok(true)
    }

    /// β-reduction: jump to the code block's unit with parameters written
    /// into the leading register slots. The operands were fully resolved
    /// against the caller's registers first, so self-calls are safe; stale
    /// caller registers are never read again (CPS — control never
    /// returns).
    fn enter_def(
        &mut self,
        cache: &mut Arc<CodeCache>,
        def: &Arc<CodeDef>,
        rtags: &mut Vec<TagId>,
        rrgns: &mut Vec<Region>,
        rargs: &mut Vec<(Value, Option<ValId>)>,
    ) {
        let u = self.unit_for_def(cache, def);
        let (nv, nt, nr, na) = {
            let unit = &cache.units[u as usize];
            (
                unit.val_slots,
                unit.tag_slots,
                unit.rgn_slots,
                unit.alpha_slots,
            )
        };
        self.grow_regs(nv, nt, nr, na);
        for (i, tau) in rtags.drain(..).enumerate() {
            self.tag_regs[i] = tau;
        }
        for (i, rho) in rrgns.drain(..).enumerate() {
            self.rgn_regs[i] = rho;
        }
        for (i, (v, id)) in rargs.drain(..).enumerate() {
            self.vals[i] = v;
            self.val_ids[i] = id;
        }
        self.unit = u;
        self.pc = 0;
        self.sub = 0;
    }

    /// The unit for an installed code block. The loader compiles every
    /// block in `cd` eagerly, so the map lookup only misses when fault
    /// injection rewired the heap to a code value the loader never saw;
    /// compile it on the spot in that case.
    fn unit_for_def(&mut self, cache: &mut Arc<CodeCache>, def: &Arc<CodeDef>) -> u32 {
        let key = Arc::as_ptr(def) as usize;
        if let Some(&u) = cache.by_def.get(&key) {
            return u;
        }
        let unit = compile_def(def);
        let c = Arc::make_mut(cache);
        let u = c.units.len() as u32;
        c.units.push(unit);
        c.by_def.insert(key, u);
        u
    }

    fn eval_micro(&mut self, op: &MicroOp) -> Result<(Value, Option<ValId>)> {
        match op {
            MicroOp::Val(v) => {
                let id = self.rvid_opt(v);
                Ok((self.rv(v), id))
            }
            MicroOp::Proj(i, v) => {
                // Projection reads a pair child that is interned by
                // construction, so the result's id is always known.
                if let ValOp::Reg(r) = v {
                    return match &self.vals[*r as usize] {
                        Value::Pair(a, b) => {
                            let id = if *i == 1 { *a } else { *b };
                            Ok((id.node().clone(), Some(id)))
                        }
                        other => Err(self
                            .core
                            .stuck(format!("projection π{i} of non-pair {other:?}"))),
                    };
                }
                match self.rv(v) {
                    Value::Pair(a, b) => {
                        let id = if *i == 1 { a } else { b };
                        Ok((id.node().clone(), Some(id)))
                    }
                    other => Err(self
                        .core
                        .stuck(format!("projection π{i} of non-pair {other:?}"))),
                }
            }
            MicroOp::Put(r, v) => {
                let nu = self.rname(r)?;
                let sv = self.rv_slot(v);
                Ok((self.core.put(nu, sv)?, None))
            }
            MicroOp::PutPair(r, a, b) => {
                let nu = self.rname(r)?;
                let sv = if self.lazy {
                    let ac = self.lazy_operand(a);
                    let bc = self.lazy_operand(b);
                    SlotVal::pair(ac, bc)
                } else {
                    SlotVal::Val(Value::Pair(self.rvid(a), self.rvid(b)))
                };
                Ok((self.core.put(nu, sv)?, None))
            }
            MicroOp::Get(v) => match self.rv(v) {
                Value::Addr(nu, loc) => Ok((self.core.mem.get(nu, loc)?.clone(), None)),
                other => Err(self.core.stuck(format!("get of non-address {other:?}"))),
            },
            MicroOp::Strip(v) => match self.rv(v) {
                Value::Inl(x) | Value::Inr(x) => Ok((x.node().clone(), Some(x))),
                other => Err(self
                    .core
                    .stuck(format!("strip of untagged value {other:?}"))),
            },
            MicroOp::Prim(p, a, b) => match (self.rv(a), self.rv(b)) {
                (Value::Int(x), Value::Int(y)) => Ok((Value::Int(p.apply(x, y)), None)),
                (a, b) => Err(self
                    .core
                    .stuck(format!("primitive {p} on non-integers {a:?}, {b:?}"))),
            },
        }
    }

    /// Resolves a `put` payload to a slot value: under the lazy
    /// representation, `Pair`/`Inl`/`Inr` constructor templates store their
    /// children as ids-or-thunks instead of interning them here.
    fn rv_slot(&mut self, v: &ValOp) -> SlotVal {
        if self.lazy {
            if let ValOp::Build { tpl, .. } = v {
                match tpl {
                    VTpl::Pair(a, b) => {
                        let ac = self.inst_child(a);
                        let bc = self.inst_child(b);
                        return SlotVal::pair(ac, bc);
                    }
                    VTpl::Inl(x) => {
                        let c = self.inst_child(x);
                        return SlotVal::inl(c);
                    }
                    VTpl::Inr(x) => {
                        let c = self.inst_child(x);
                        return SlotVal::inr(c);
                    }
                    _ => {}
                }
            }
        }
        SlotVal::Val(self.rv(v))
    }

    /// A `put` operand as a lazy child: interned identity when it is known
    /// for free (shadow id, pre-interned immediate template), a thunk
    /// otherwise.
    fn lazy_operand(&mut self, op: &ValOp) -> LazyChild {
        if let Some(id) = self.rvid_opt(op) {
            return LazyChild::interned(id);
        }
        if let ValOp::Build { tpl, .. } = op {
            match tpl {
                VTpl::ImmId(id) => return LazyChild::interned(*id),
                VTpl::Reg(i) => {
                    return match self.val_ids[*i as usize] {
                        Some(id) => LazyChild::interned(id),
                        None => LazyChild::thunk(self.vals[*i as usize].clone()),
                    }
                }
                _ => {}
            }
        }
        LazyChild::thunk(self.rv(op))
    }

    /// Instantiates a child template as a lazy child: `ImmId` and shadowed
    /// registers keep their known identity, everything else becomes a thunk.
    fn inst_child(&mut self, t: &VTpl) -> LazyChild {
        match t {
            VTpl::ImmId(id) => LazyChild::interned(*id),
            VTpl::Reg(i) => match self.val_ids[*i as usize] {
                Some(id) => LazyChild::interned(id),
                None => LazyChild::thunk(self.vals[*i as usize].clone()),
            },
            _ => LazyChild::thunk(self.inst_val(t)),
        }
    }
}

impl HasCore for BcMachine {
    fn core(&self) -> &Core {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// One λGC reduction rule; a fused chain still steps through its
    /// micro-ops one at a time.
    fn reduce(&mut self) -> Result<bool> {
        let mut cache = self.take_cache();
        let r = self.exec_with(&mut cache);
        self.cache = Some(cache);
        r
    }
}

impl Machine for BcMachine {
    /// Captures a checkpoint. The control is captured *resolved* (register
    /// file substituted in), so the snapshot restores into any backend —
    /// but the resolution itself is deferred: the checkpoint stores the
    /// raw scope-chain bindings (point-in-time register clones, all
    /// interned — one `Vec`, no map construction) and the source term id,
    /// and the closed term is only built if the snapshot is ever restored
    /// or triaged.
    fn snapshot(&self) -> Snapshot {
        let Some((unit, src, scope)) = self.position() else {
            return Snapshot::capture(&self.core, self.resolved_control());
        };
        // Innermost-first, mirroring the chain walk of `scope_subst`; the
        // closure rebinds outermost-first so shadowing resolves identically.
        let mut binds: Vec<(Symbol, SnapBind)> = Vec::new();
        let mut s = scope;
        while s != NO_SCOPE {
            let n = &unit.scopes[s as usize];
            let b = match n.ns {
                Ns::Val => SnapBind::Val(self.vals[n.slot as usize].clone()),
                Ns::Tag => SnapBind::Tag(self.tag_regs[n.slot as usize]),
                Ns::Rgn => SnapBind::Rgn(self.rgn_regs[n.slot as usize]),
                Ns::Alpha => SnapBind::Alpha(self.alpha_regs[n.slot as usize]),
            };
            binds.push((n.sym, b));
            s = n.parent;
        }
        Snapshot::capture_deferred(&self.core, move || {
            let mut sub = Subst::new();
            for (sym, b) in binds.iter().rev() {
                match b {
                    SnapBind::Val(v) => sub.bind_val(*sym, v.clone()),
                    SnapBind::Tag(t) => sub.bind_tag(*sym, *t),
                    SnapBind::Rgn(r) => sub.bind_rgn(*sym, *r),
                    SnapBind::Alpha(a) => sub.bind_alpha(*sym, *a),
                }
            }
            sub.term(&src)
        })
    }

    /// Restores a checkpoint captured by any backend. The snapshot's closed
    /// control becomes the new main term and the bytecode cache is rebuilt
    /// lazily on the next step (code blocks live in `cd`, which the
    /// captured memory image carries).
    fn restore(&mut self, snap: &Snapshot) -> Result<()> {
        self.core.restore(snap)?;
        self.main = snap.control().clone();
        // Invalidate every compilation artifact: the restored control is a
        // fresh entry unit, and stale register/ty-cache contents must not
        // leak across the restore (the closed control writes every slot it
        // reads, but interned-id shadows must not outlive their values).
        self.cache = None;
        self.pending = None;
        self.unit = 0;
        self.pc = 0;
        self.sub = 0;
        self.ty_cache.clear();
        for id in &mut self.val_ids {
            *id = None;
        }
        Ok(())
    }

    /// Disables (or re-enables) the lazy ids-or-thunks slot representation;
    /// with eager interning every `put` stores a fully-interned value.
    fn set_eager_intern(&mut self, on: bool) {
        self.lazy = !on;
    }

    /// Built by walking the current instruction's compile-time scope chain
    /// and substituting register contents — the inverse of the slot
    /// resolution the compiler performed.
    fn resolved_control(&self) -> Term {
        if let Some(p) = &self.pending {
            return Term::App {
                f: p.f.clone(),
                tags: p.tags.clone(),
                regions: p.regions.to_vec(),
                args: p.args.iter().map(|(v, _)| v.clone()).collect(),
            };
        }
        match self.position() {
            Some((unit, src, scope)) => self.scope_subst(unit, scope).term(&src),
            None => self.main.clone(),
        }
    }

    /// With no fault plan, no audit cadence, no checkpoint interval and no
    /// observer, nothing can see intermediate per-step state, so the
    /// unobserved fused dispatch loop runs instead of the shared run loop:
    /// no per-step hook checks, and fused `Lets` chains execute one whole
    /// chain per dispatch (the payoff of superinstruction fusion).
    /// Statistics are accounted per counted step either way, so `Stats`
    /// stay byte-identical to the substitution oracle. A checkpointing run
    /// takes the shared loop, so its checkpoints land at the steps every
    /// backend takes them at.
    fn run(&mut self, fuel: u64) -> Result<Outcome> {
        let deadline = self.core.ctl.deadline();
        let ctl = &self.core.ctl;
        if ctl.faults.is_empty()
            && ctl.verify_every == 0
            && ctl.checkpoint_every == 0
            && !self.core.telem.is_enabled()
        {
            return match deadline {
                None => self.run_fast(fuel),
                Some(dl) => self.run_fast_until(fuel, dl),
            };
        }
        drive(self, fuel, deadline)
    }
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

/// Disassembles a compiled program into a stable textual format: unit 0 is
/// the main term, then one unit per code block in installation order.
/// The output depends only on the program (and the interner's symbol
/// names), not on any heap or machine state.
pub fn disassemble(program: &Program) -> String {
    let mut units = vec![compile_main(&program.main)];
    for def in &program.code {
        units.push(compile_def(def));
    }
    let mut out = String::new();
    out.push_str(&format!(
        ";; λGC bytecode — dialect {}, superinstructions on\n;; {} unit(s)\n",
        program.dialect,
        units.len()
    ));
    for (i, u) in units.iter().enumerate() {
        out.push_str(&format!(
            "\nunit {}: {}  [v={} t={} r={} a={}]\n",
            i, u.label, u.val_slots, u.tag_slots, u.rgn_slots, u.alpha_slots
        ));
        for (pc, instr) in u.instrs.iter().enumerate() {
            fmt_instr(&mut out, pc, instr);
        }
    }
    out
}

fn fmt_instr(out: &mut String, pc: usize, instr: &Instr) {
    match instr {
        Instr::Lets(ms) => {
            if let [m] = ms.as_ref() {
                out.push_str(&format!("  {pc:03}  let v{} = {}\n", m.dst, fmt_micro(&m.op)));
            } else {
                out.push_str(&format!("  {pc:03}  lets\n"));
                for m in ms.iter() {
                    out.push_str(&format!("         v{} = {}\n", m.dst, fmt_micro(&m.op)));
                }
            }
        }
        Instr::Call {
            f,
            tags,
            rgns,
            args,
        } => {
            out.push_str(&format!(
                "  {pc:03}  call {} [{}][{}]({})\n",
                fmt_val_op(f),
                join(tags.iter().map(fmt_tag_op)),
                join(rgns.iter().map(fmt_rgn_op)),
                join(args.iter().map(fmt_val_op)),
            ));
        }
        Instr::Halt(v) => out.push_str(&format!("  {pc:03}  halt {}\n", fmt_val_op(v))),
        Instr::IfGc { r, full, cont } => out.push_str(&format!(
            "  {pc:03}  ifgc {} full->{full:03} cont->{cont:03}\n",
            fmt_rgn_op(r)
        )),
        Instr::OpenTag { pkg, tdst, vdst } => out.push_str(&format!(
            "  {pc:03}  open-tag {} -> t{tdst}, v{vdst}\n",
            fmt_val_op(pkg)
        )),
        Instr::OpenAlpha { pkg, adst, vdst } => out.push_str(&format!(
            "  {pc:03}  open-alpha {} -> a{adst}, v{vdst}\n",
            fmt_val_op(pkg)
        )),
        Instr::OpenRgn { pkg, rdst, vdst } => out.push_str(&format!(
            "  {pc:03}  open-region {} -> r{rdst}, v{vdst}\n",
            fmt_val_op(pkg)
        )),
        Instr::LetRegion { rdst } => {
            out.push_str(&format!("  {pc:03}  let-region -> r{rdst}\n"))
        }
        Instr::Only { keep } => out.push_str(&format!(
            "  {pc:03}  only [{}]\n",
            join(keep.iter().map(fmt_rgn_op))
        )),
        Instr::Typecase {
            tag,
            int_arm,
            arrow_arm,
            t1dst,
            t2dst,
            prod_arm,
            tedst,
            exist_arm,
        } => out.push_str(&format!(
            "  {pc:03}  typecase {} int->{int_arm:03} arrow->{arrow_arm:03} prod(t{t1dst},t{t2dst})->{prod_arm:03} exist(t{tedst})->{exist_arm:03}\n",
            fmt_tag_op(tag)
        )),
        Instr::IfLeft {
            dst,
            scrut,
            left,
            right,
        } => out.push_str(&format!(
            "  {pc:03}  ifleft {} -> v{dst} left->{left:03} right->{right:03}\n",
            fmt_val_op(scrut)
        )),
        Instr::Set { dst, src } => out.push_str(&format!(
            "  {pc:03}  set {} := {}\n",
            fmt_val_op(dst),
            fmt_val_op(src)
        )),
        Instr::Widen {
            dst,
            from,
            to,
            tag,
            v,
        } => out.push_str(&format!(
            "  {pc:03}  widen v{dst} = [{}->{}][{}] {}\n",
            fmt_rgn_op(from),
            fmt_rgn_op(to),
            fmt_tag_op(tag),
            fmt_val_op(v)
        )),
        Instr::IfReg { r1, r2, eq, ne } => out.push_str(&format!(
            "  {pc:03}  ifreg {} == {} eq->{eq:03} ne->{ne:03}\n",
            fmt_rgn_op(r1),
            fmt_rgn_op(r2)
        )),
        Instr::If0 {
            scrut,
            zero,
            nonzero,
        } => out.push_str(&format!(
            "  {pc:03}  if0 {} zero->{zero:03} nonzero->{nonzero:03}\n",
            fmt_val_op(scrut)
        )),
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

fn fmt_micro(op: &MicroOp) -> String {
    match op {
        MicroOp::Val(v) => fmt_val_op(v),
        MicroOp::Proj(i, v) => format!("π{i} {}", fmt_val_op(v)),
        MicroOp::Put(r, v) => format!("put[{}] {}", fmt_rgn_op(r), fmt_val_op(v)),
        MicroOp::PutPair(r, a, b) => format!(
            "put-pair[{}] {}, {}",
            fmt_rgn_op(r),
            fmt_val_op(a),
            fmt_val_op(b)
        ),
        MicroOp::Get(v) => format!("get {}", fmt_val_op(v)),
        MicroOp::Strip(v) => format!("strip {}", fmt_val_op(v)),
        MicroOp::Prim(p, a, b) => format!("prim {p} {}, {}", fmt_val_op(a), fmt_val_op(b)),
    }
}

fn fmt_val_op(op: &ValOp) -> String {
    match op {
        ValOp::Reg(i) => format!("v{i}"),
        ValOp::Imm(v) => format!("#{}", fmt_value(v)),
        ValOp::Build { val, binds, .. } => format!(
            "build({}; {})",
            fmt_value(val),
            join(binds.iter().map(|b| {
                let file = match b.ns {
                    Ns::Val => "v",
                    Ns::Tag => "t",
                    Ns::Rgn => "r",
                    Ns::Alpha => "a",
                };
                format!("{}={}{}", b.sym, file, b.slot)
            }))
        ),
    }
}

fn fmt_tag_op(op: &TagOp) -> String {
    match op {
        TagOp::Reg(i) => format!("t{i}"),
        TagOp::Imm(t) => format!("#{}", crate::pretty::tag_to_string(t)),
        TagOp::Build { tag, binds } => format!(
            "build({}; {})",
            crate::pretty::tag_to_string(tag),
            join(binds.iter().map(|(t, slot)| format!("{t}=t{slot}")))
        ),
    }
}

fn fmt_rgn_op(op: &RgnOp) -> String {
    match op {
        RgnOp::Reg(i) => format!("r{i}"),
        RgnOp::Imm(r) => format!("{r}"),
    }
}

/// Compact, deterministic value rendering for immediates.
fn fmt_value(v: &Value) -> String {
    match v {
        Value::Int(n) => format!("{n}"),
        Value::Var(x) => format!("{x}"),
        Value::Addr(nu, loc) => format!("{nu}.{loc}"),
        Value::Pair(a, b) => format!("({}, {})", fmt_value(a), fmt_value(b)),
        Value::Inl(x) => format!("inl {}", fmt_value(x)),
        Value::Inr(x) => format!("inr {}", fmt_value(x)),
        Value::PackTag { tag, val, .. } => format!(
            "pack[t={}]({})",
            crate::pretty::tag_to_string(tag),
            fmt_value(val)
        ),
        Value::PackAlpha { witness, val, .. } => format!(
            "pack[α={}]({})",
            crate::pretty::ty_to_string(witness),
            fmt_value(val)
        ),
        Value::PackRgn { witness, val, .. } => {
            format!("pack[r={witness}]({})", fmt_value(val))
        }
        Value::TagApp(f, ts, rs) => format!(
            "{}[[{}; {}]]",
            fmt_value(f),
            join(ts.iter().map(|tau| crate::pretty::tag_to_string(tau))),
            join(rs.iter().map(|r| format!("{r}")))
        ),
        Value::Code(def) => format!("code {}", def.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Backend, StepOutcome};
    use crate::memory::GrowthPolicy;
    use crate::syntax::{Dialect, Kind};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn halt_program(n: i64) -> Program {
        Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(n)),
        }
    }

    #[test]
    fn halts_on_halt() {
        let mut m = BcMachine::load(&halt_program(42), MemConfig::default());
        assert_eq!(m.run(10).expect("runs"), Outcome::Halted(42));
        assert_eq!(m.stats().steps, 1);
    }

    #[test]
    fn halted_machine_stays_halted() {
        let mut m = BcMachine::load(&halt_program(7), MemConfig::default());
        assert_eq!(m.run(10).expect("runs"), Outcome::Halted(7));
        assert_eq!(m.step().expect("still halted"), StepOutcome::Halted(7));
        assert_eq!(m.stats().steps, 1, "halted steps are free");
    }

    #[test]
    fn let_spine_allocates_and_projects() {
        // let p = put[r] (1, 2) in let a = get p in let x = π1 a in
        // let y = π2 a in let s = x + y in halt s
        let (r, p, a, x, y, s) = (sym("r"), sym("p"), sym("a"), sym("x"), sym("y"), sym("s"));
        let body = Term::let_(
            p,
            Op::Put(Region::Var(r), Value::pair(Value::Int(1), Value::Int(2))),
            Term::let_(
                a,
                Op::Get(Value::Var(p)),
                Term::let_(
                    x,
                    Op::Proj(1, Value::Var(a)),
                    Term::let_(
                        y,
                        Op::Proj(2, Value::Var(a)),
                        Term::let_(
                            s,
                            Op::Prim(PrimOp::Add, Value::Var(x), Value::Var(y)),
                            Term::Halt(Value::Var(s)),
                        ),
                    ),
                ),
            ),
        );
        let program = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::LetRegion {
                rvar: r,
                body: intern_term(body),
            },
        };
        let mut m = BcMachine::load(&program, MemConfig::default());
        assert_eq!(m.run(100).expect("runs"), Outcome::Halted(3));
        assert_eq!(m.stats().steps, 7);
        assert_eq!(m.stats().allocations, 1);
    }

    #[test]
    fn calls_bind_parameters_into_registers() {
        // code add[][r](a, b): let s = a + b in halt s
        // main: let region r in add[][r](20, 22)
        let (r, a, b, s) = (sym("r"), sym("a"), sym("b"), sym("s"));
        let def = CodeDef {
            name: sym("add"),
            tvars: vec![],
            rvars: vec![r],
            params: vec![(a, Ty::Int.id()), (b, Ty::Int.id())],
            body: Term::let_(
                s,
                Op::Prim(PrimOp::Add, Value::Var(a), Value::Var(b)),
                Term::Halt(Value::Var(s)),
            ),
        };
        let main = Term::LetRegion {
            rvar: r,
            body: intern_term(Term::app(
                Value::Addr(CD, 0),
                [],
                [Region::Var(r)],
                [Value::Int(20), Value::Int(22)],
            )),
        };
        let program = Program {
            dialect: Dialect::Basic,
            code: vec![def],
            main,
        };
        let mut m = BcMachine::load(&program, MemConfig::default());
        assert_eq!(m.run(100).expect("runs"), Outcome::Halted(42));
    }

    #[test]
    fn resolved_control_matches_subst_machine_lockstep() {
        use crate::machine::SubstMachine;
        let (r, p, q, x) = (sym("r"), sym("p"), sym("q"), sym("x"));
        let body = Term::let_(
            p,
            Op::Put(Region::Var(r), Value::pair(Value::Int(5), Value::Int(6))),
            Term::let_(
                q,
                Op::Get(Value::Var(p)),
                Term::let_(x, Op::Proj(2, Value::Var(q)), Term::Halt(Value::Var(x))),
            ),
        );
        let program = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::LetRegion {
                rvar: r,
                body: intern_term(body),
            },
        };
        let config = MemConfig {
            region_budget: 64,
            growth: GrowthPolicy::Fixed,
            ..MemConfig::default()
        };
        let mut oracle = SubstMachine::load(&program, config);
        let mut bc = BcMachine::load(&program, config);
        loop {
            assert_eq!(oracle.term(), &bc.resolved_control());
            let a = oracle.step().expect("oracle steps");
            let b = bc.step().expect("bc steps");
            assert_eq!(a, b);
            assert_eq!(oracle.stats(), bc.stats());
            if a != StepOutcome::Continue {
                break;
            }
        }
        assert_eq!(bc.halted(), Some(6));
    }

    #[test]
    fn disassembly_is_deterministic_and_mentions_superinstructions() {
        let (r, p, q) = (sym("r"), sym("p"), sym("q"));
        let body = Term::let_(
            p,
            Op::Put(Region::Var(r), Value::pair(Value::Int(1), Value::Int(2))),
            Term::let_(q, Op::Get(Value::Var(p)), Term::Halt(Value::Int(0))),
        );
        let program = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::LetRegion {
                rvar: r,
                body: intern_term(body),
            },
        };
        let on = disassemble(&program);
        assert_eq!(on, disassemble(&program));
        assert!(on.contains("superinstructions on"), "{on}");
        assert!(on.contains("put-pair[r0]"), "{on}");
        assert!(on.contains("let-region -> r0"), "{on}");
    }

    #[test]
    fn backend_load_returns_a_working_bytecode_machine() {
        let program = halt_program(9);
        let mut m = Backend::Bytecode.load(&program, MemConfig::default());
        assert_eq!(m.run(10).expect("runs"), Outcome::Halted(9));
        assert_eq!(m.halted(), Some(9));
    }

    #[test]
    fn typecase_dispatches_through_registers() {
        // open pkg as <t, x> in typecase t of int => halt 1 | ...
        let (t, x) = (sym("t"), sym("x"));
        let (t1, t2, te) = (sym("t1"), sym("t2"), sym("te"));
        let pkg = Value::PackTag {
            tvar: t,
            kind: Kind::Omega,
            tag: Tag::Int.into(),
            val: Value::Int(0).id(),
            body_ty: Ty::Int.into(),
        };
        let program = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::OpenTag {
                pkg,
                tvar: t,
                x,
                body: intern_term(Term::Typecase {
                    tag: Tag::Var(t).into(),
                    int_arm: intern_term(Term::Halt(Value::Int(1))),
                    arrow_arm: intern_term(Term::Halt(Value::Int(2))),
                    prod_arm: (t1, t2, intern_term(Term::Halt(Value::Int(3)))),
                    exist_arm: (te, intern_term(Term::Halt(Value::Int(4)))),
                }),
            },
        };
        let mut m = BcMachine::load(&program, MemConfig::default());
        assert_eq!(m.run(100).expect("runs"), Outcome::Halted(1));
        assert_eq!(m.stats().typecase_dispatches, 1);
    }
}
