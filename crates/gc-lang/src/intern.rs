//! Hash-consed tag, type, term, and value nodes: ids, memo tables,
//! free-variable fingerprints, and α-canonicalization.
//!
//! Every [`Tag`], [`Ty`], [`Term`], and [`Value`] node in the crate stores
//! its children as [`TagId`]/[`TyId`]/[`TermId`]/[`ValId`] handles into four
//! global [`ps_ir::ConcurrentInterner`] arenas, so structurally equal
//! subtrees are stored exactly once and *structural equality of whole trees
//! is equality of `u32` ids* (the derived `PartialEq` on nodes compares
//! children by id). On top of the arenas this module keeps side tables, all
//! indexed by id — ids are dense, so each table is an append-only
//! [`ChunkedSlab`] probed by index rather than a `HashMap` (the
//! normalization table for types keeps one slab per dialect):
//!
//! * **normalization memos** — [`crate::tags::normalize`] and
//!   [`crate::moper::normalize_ty`] record their result (and, for tags, the
//!   β-step count, so counting callers see identical numbers on memo hits)
//!   once per node;
//! * **free-variable fingerprints** ([`tag_fv`], [`ty_fv`], [`term_fv`],
//!   [`value_fv`]) — the sorted free variables of a node, computed once and
//!   leaked, which lets [`crate::subst::Subst`] skip no-op substitutions in
//!   O(domain) without walking the tree (generalizing the closed-range fast
//!   path of the environment machine to *every* substitution, at every
//!   level from tags up to whole terms);
//! * **α-canonical forms** ([`canon_tag`], [`canon_ty`]) — each binder is
//!   renamed to a fixed placeholder and each bound variable to its
//!   per-namespace de Bruijn index (spelled `!i` / `!ri` / `!ai`; `!` is
//!   unproducible by surface syntax, and `gensym` uses `%`, so the names
//!   are collision-free). Region *sets* (`∃α:∆` and `∃r∈∆` bounds) are
//!   sorted and deduplicated, matching the set semantics of the paper's
//!   `∆`s. Two nodes are α-equivalent iff their canonical ids are equal,
//!   which makes `alpha_eq` an integer compare after the first call.
//!
//! The *read* side is entirely lock-free: interned nodes are leaked
//! (`&'static`) and published through [`ChunkedSlab`]s — append-only
//! chunked atomic-pointer tables — so dereferencing a [`TagId`] (it
//! implements `Deref<Target = Tag>`) and probing any memo touch no lock at
//! all. This matters for parallel certification: `check_program` fans code
//! blocks over worker threads that deref ids and hit the memos on every
//! node; a shared `RwLock` read on that path makes the threads bounce the
//! lock's cache line and serializes them. Only *interning* (the hash-cons
//! lookup/insert) still takes the `RwLock` around one shard of the arena's
//! hash table, and it is never held across recursive work: probe under a
//! read lock, compute unlocked, insert under a short write lock.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use ps_ir::{ChunkedSlab, ConcurrentInterner, Symbol};

use crate::syntax::{CodeDef, Dialect, Region, Tag, Term, Ty, Value};

// ----- arenas -------------------------------------------------------------

static TAGS: ConcurrentInterner<Tag> = ConcurrentInterner::new();
static TYS: ConcurrentInterner<Ty> = ConcurrentInterner::new();
static TERMS: ConcurrentInterner<Term> = ConcurrentInterner::new();
static VALS: ConcurrentInterner<Value> = ConcurrentInterner::new();

/// Acquires a read lock even if a writer panicked mid-update. The caches
/// behind these locks are append-only, so a poisoned value is still
/// internally consistent — at worst it misses the entry the panicking
/// thread was about to add.
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write-lock counterpart of [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// Ids are minted only by `intern`, which publishes the node before the id
// escapes, so a missing entry is unreachable.
#[allow(clippy::expect_used)]
fn arena_get<T: 'static>(arena: &ConcurrentInterner<T>, id: u32) -> &'static T {
    arena.get(id).expect("id minted by this arena")
}

/// Interns a tag node, returning its id.
pub fn intern_tag(node: Tag) -> TagId {
    TagId(TAGS.intern(node))
}

/// Interns a type node, returning its id.
pub fn intern_ty(node: Ty) -> TyId {
    TyId(TYS.intern(node))
}

/// Interns a term node, returning its id.
pub fn intern_term(node: Term) -> TermId {
    TermId(TERMS.intern(node))
}

/// Interns a value node, returning its id.
pub fn intern_value(node: Value) -> ValId {
    ValId(VALS.intern(node))
}

/// Handle to an interned [`Tag`] node: `Copy`, compared and hashed as a
/// `u32`. Dereferences to the `&'static` node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(u32);

/// Handle to an interned [`Ty`] node: `Copy`, compared and hashed as a
/// `u32`. Dereferences to the `&'static` node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TyId(u32);

/// Handle to an interned [`Term`] node: `Copy`, compared and hashed as a
/// `u32`. Dereferences to the `&'static` node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

/// Handle to an interned [`Value`] node: `Copy`, compared and hashed as a
/// `u32`. Dereferences to the `&'static` node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValId(u32);

macro_rules! id_impls {
    ($id:ident, $node:ident, $arena:ident, $intern:ident) => {
        impl $id {
            /// The interned node.
            pub fn node(self) -> &'static $node {
                arena_get(&$arena, self.0)
            }

            /// The raw arena index.
            pub fn index(self) -> u32 {
                self.0
            }
        }

        impl Deref for $id {
            type Target = $node;
            fn deref(&self) -> &$node {
                self.node()
            }
        }

        impl fmt::Debug for $id {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.node().fmt(f)
            }
        }

        impl From<$node> for $id {
            fn from(node: $node) -> $id {
                $intern(node)
            }
        }
    };
}

id_impls!(TagId, Tag, TAGS, intern_tag);
id_impls!(TyId, Ty, TYS, intern_ty);
id_impls!(TermId, Term, TERMS, intern_term);
id_impls!(ValId, Value, VALS, intern_value);

// ----- memo tables --------------------------------------------------------

/// An id-indexed memo table: ids are dense arena indices, so the table is
/// an append-only [`ChunkedSlab`] rather than a hash map — a probe is two
/// atomic loads and no lock. Memoized values are deterministic functions of
/// the id, so concurrent writers racing on one entry publish equal values
/// (the loser's box leaks, like every other interned allocation).
type FlatMemo<V> = ChunkedSlab<V>;

static TAG_NORM: FlatMemo<(TagId, u64)> = FlatMemo::new();
/// One per-dialect table (`Basic`, `Forwarding`, `Generational`), replacing
/// the old `(TyId, Dialect)`-keyed map.
static TY_NORM: [FlatMemo<TyId>; 3] = [FlatMemo::new(), FlatMemo::new(), FlatMemo::new()];
static TAG_CANON: FlatMemo<TagId> = FlatMemo::new();
static TY_CANON: FlatMemo<TyId> = FlatMemo::new();
static TAG_FV: FlatMemo<&'static [Symbol]> = FlatMemo::new();
static TY_FV: FlatMemo<&'static TyFv> = FlatMemo::new();
static TERM_FV: FlatMemo<&'static NodeFv> = FlatMemo::new();
static VAL_FV: FlatMemo<&'static NodeFv> = FlatMemo::new();

fn dialect_index(dialect: Dialect) -> usize {
    match dialect {
        Dialect::Basic => 0,
        Dialect::Forwarding => 1,
        Dialect::Generational => 2,
    }
}

fn memo_get<V: Copy + 'static>(memo: &FlatMemo<V>, id: u32) -> Option<V> {
    memo.get(id).copied()
}

fn memo_put<V: Copy + 'static>(memo: &FlatMemo<V>, id: u32, value: V) {
    memo.set(id, Box::leak(Box::new(value)));
}

fn memo_len<V>(memo: &FlatMemo<V>) -> usize {
    memo.count()
}

/// Memoized result of [`crate::tags::normalize`]: normal form and β-step
/// count for the subtree.
pub(crate) fn tag_norm_lookup(id: TagId) -> Option<(TagId, u64)> {
    memo_get(&TAG_NORM, id.index())
}

pub(crate) fn tag_norm_insert(id: TagId, nf: TagId, steps: u64) {
    memo_put(&TAG_NORM, id.index(), (nf, steps));
}

/// Memoized result of [`crate::moper::normalize_ty`] for one dialect.
pub(crate) fn ty_norm_lookup(id: TyId, dialect: Dialect) -> Option<TyId> {
    memo_get(&TY_NORM[dialect_index(dialect)], id.index())
}

pub(crate) fn ty_norm_insert(id: TyId, dialect: Dialect, nf: TyId) {
    memo_put(&TY_NORM[dialect_index(dialect)], id.index(), nf);
}

// ----- free-variable fingerprints -----------------------------------------

/// The free variables of a type node, split by namespace. Each slice is
/// sorted and deduplicated; membership is a binary search.
#[derive(Debug)]
pub struct TyFv {
    /// Free tag variables (`t`, including `AnyArrow` refinements).
    pub tvars: Box<[Symbol]>,
    /// Free region variables (`r`).
    pub rvars: Box<[Symbol]>,
    /// Free type variables (`α`).
    pub avars: Box<[Symbol]>,
}

impl TyFv {
    /// No free variables in any namespace?
    pub fn is_closed(&self) -> bool {
        self.tvars.is_empty() && self.rvars.is_empty() && self.avars.is_empty()
    }
}

fn sorted(mut v: Vec<Symbol>) -> Vec<Symbol> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The sorted free tag variables of a tag, computed once per node.
pub fn tag_fv(id: TagId) -> &'static [Symbol] {
    if let Some(fv) = memo_get(&TAG_FV, id.index()) {
        return fv;
    }
    let mut out: Vec<Symbol> = Vec::new();
    match id.node() {
        Tag::Var(t) | Tag::AnyArrow(t) => out.push(*t),
        Tag::Int => {}
        Tag::Prod(a, b) | Tag::App(a, b) => {
            out.extend_from_slice(tag_fv(*a));
            out.extend_from_slice(tag_fv(*b));
        }
        Tag::Arrow(args) => {
            for a in args.iter() {
                out.extend_from_slice(tag_fv(*a));
            }
        }
        Tag::Exist(t, body) | Tag::Lam(t, body) => {
            out.extend(tag_fv(*body).iter().copied().filter(|x| x != t));
        }
    }
    let leaked: &'static [Symbol] = Box::leak(sorted(out).into_boxed_slice());
    memo_put(&TAG_FV, id.index(), leaked);
    leaked
}

/// The free variables of a type (all three namespaces), computed once per
/// node.
pub fn ty_fv(id: TyId) -> &'static TyFv {
    if let Some(fv) = memo_get(&TY_FV, id.index()) {
        return fv;
    }
    let mut tvars: Vec<Symbol> = Vec::new();
    let mut rvars: Vec<Symbol> = Vec::new();
    let mut avars: Vec<Symbol> = Vec::new();
    {
        fn add_child(
            child: TyId,
            tvars: &mut Vec<Symbol>,
            rvars: &mut Vec<Symbol>,
            avars: &mut Vec<Symbol>,
        ) {
            let fv = ty_fv(child);
            tvars.extend_from_slice(&fv.tvars);
            rvars.extend_from_slice(&fv.rvars);
            avars.extend_from_slice(&fv.avars);
        }
        fn add_rgn(rvars: &mut Vec<Symbol>, rho: &Region) {
            if let Region::Var(r) = rho {
                rvars.push(*r);
            }
        }
        match id.node() {
            Ty::Int => {}
            Ty::Alpha(a) => avars.push(*a),
            Ty::Prod(a, b) | Ty::Sum(a, b) => {
                add_child(*a, &mut tvars, &mut rvars, &mut avars);
                add_child(*b, &mut tvars, &mut rvars, &mut avars);
            }
            Ty::Left(a) | Ty::Right(a) => add_child(*a, &mut tvars, &mut rvars, &mut avars),
            Ty::At(inner, rho) => {
                add_child(*inner, &mut tvars, &mut rvars, &mut avars);
                add_rgn(&mut rvars, rho);
            }
            Ty::M(rho, tag) => {
                add_rgn(&mut rvars, rho);
                tvars.extend_from_slice(tag_fv(*tag));
            }
            Ty::C(r1, r2, tag) | Ty::MGen(r1, r2, tag) => {
                add_rgn(&mut rvars, r1);
                add_rgn(&mut rvars, r2);
                tvars.extend_from_slice(tag_fv(*tag));
            }
            Ty::Code {
                tvars: tv,
                rvars: rv,
                args,
            } => {
                for a in args.iter() {
                    let fv = ty_fv(*a);
                    tvars.extend(
                        fv.tvars
                            .iter()
                            .copied()
                            .filter(|t| !tv.iter().any(|(b, _)| b == t)),
                    );
                    rvars.extend(fv.rvars.iter().copied().filter(|r| !rv.contains(r)));
                    avars.extend_from_slice(&fv.avars);
                }
            }
            Ty::ExistTag { tvar, body, .. } => {
                let fv = ty_fv(*body);
                tvars.extend(fv.tvars.iter().copied().filter(|t| t != tvar));
                rvars.extend_from_slice(&fv.rvars);
                avars.extend_from_slice(&fv.avars);
            }
            Ty::ExistAlpha {
                avar,
                regions,
                body,
            } => {
                for r in regions.iter() {
                    add_rgn(&mut rvars, r);
                }
                let fv = ty_fv(*body);
                tvars.extend_from_slice(&fv.tvars);
                rvars.extend_from_slice(&fv.rvars);
                avars.extend(fv.avars.iter().copied().filter(|a| a != avar));
            }
            Ty::ExistRgn { rvar, bound, body } => {
                for r in bound.iter() {
                    add_rgn(&mut rvars, r);
                }
                let fv = ty_fv(*body);
                tvars.extend_from_slice(&fv.tvars);
                rvars.extend(fv.rvars.iter().copied().filter(|r| r != rvar));
                avars.extend_from_slice(&fv.avars);
            }
            Ty::Trans {
                tags,
                regions,
                args,
                rho,
            } => {
                for t in tags.iter() {
                    tvars.extend_from_slice(tag_fv(*t));
                }
                add_rgn(&mut rvars, rho);
                for r in regions.iter() {
                    add_rgn(&mut rvars, r);
                }
                for a in args.iter() {
                    add_child(*a, &mut tvars, &mut rvars, &mut avars);
                }
            }
        }
    }
    let leaked: &'static TyFv = Box::leak(Box::new(TyFv {
        tvars: sorted(tvars).into_boxed_slice(),
        rvars: sorted(rvars).into_boxed_slice(),
        avars: sorted(avars).into_boxed_slice(),
    }));
    memo_put(&TY_FV, id.index(), leaked);
    leaked
}

// ----- term/value fingerprints --------------------------------------------

/// The free variables of a term or value node, split over all four λGC
/// namespaces. Each slice is sorted and deduplicated; membership is a
/// binary search.
///
/// Unlike the old `value_free_vars` (which assumed code blocks are closed),
/// [`Value::Code`] fingerprints are computed *honestly* through the block's
/// own binders, so a fingerprint miss is a sound reason to skip
/// substitution even on ill-typed inputs.
#[derive(Debug)]
pub struct NodeFv {
    /// Free tag variables (`t`, including `AnyArrow` refinements).
    pub tvars: Box<[Symbol]>,
    /// Free region variables (`r`).
    pub rvars: Box<[Symbol]>,
    /// Free type variables (`α`).
    pub avars: Box<[Symbol]>,
    /// Free value variables (`x`).
    pub xvars: Box<[Symbol]>,
}

impl NodeFv {
    /// No free variables in any namespace?
    pub fn is_closed(&self) -> bool {
        self.tvars.is_empty()
            && self.rvars.is_empty()
            && self.avars.is_empty()
            && self.xvars.is_empty()
    }
}

/// Accumulator for a four-namespace fingerprint under construction.
#[derive(Default)]
struct FvAcc {
    tvars: Vec<Symbol>,
    rvars: Vec<Symbol>,
    avars: Vec<Symbol>,
    xvars: Vec<Symbol>,
}

impl FvAcc {
    fn add_tag(&mut self, tag: &Tag) {
        self.tvars
            .extend_from_slice(tag_fv(intern_tag(tag.clone())));
    }

    fn add_ty(&mut self, sigma: &Ty) {
        let fv = ty_fv(intern_ty(sigma.clone()));
        self.tvars.extend_from_slice(&fv.tvars);
        self.rvars.extend_from_slice(&fv.rvars);
        self.avars.extend_from_slice(&fv.avars);
    }

    fn add_rgn(&mut self, rho: &Region) {
        if let Region::Var(r) = rho {
            self.rvars.push(*r);
        }
    }

    fn add_node(&mut self, fv: &NodeFv) {
        self.tvars.extend_from_slice(&fv.tvars);
        self.rvars.extend_from_slice(&fv.rvars);
        self.avars.extend_from_slice(&fv.avars);
        self.xvars.extend_from_slice(&fv.xvars);
    }

    /// Adds `fv` with some variables of the given namespaces removed
    /// (binder filtering).
    fn add_node_minus(
        &mut self,
        fv: &NodeFv,
        tbind: &[Symbol],
        rbind: &[Symbol],
        abind: &[Symbol],
        xbind: &[Symbol],
    ) {
        self.tvars
            .extend(fv.tvars.iter().copied().filter(|t| !tbind.contains(t)));
        self.rvars
            .extend(fv.rvars.iter().copied().filter(|r| !rbind.contains(r)));
        self.avars
            .extend(fv.avars.iter().copied().filter(|a| !abind.contains(a)));
        self.xvars
            .extend(fv.xvars.iter().copied().filter(|x| !xbind.contains(x)));
    }

    fn add_value(&mut self, v: &Value) {
        self.add_node(value_fv(intern_value(v.clone())));
    }

    fn add_op(&mut self, op: &crate::syntax::Op) {
        use crate::syntax::Op;
        match op {
            Op::Val(v) | Op::Proj(_, v) | Op::Get(v) | Op::Strip(v) => self.add_value(v),
            Op::Put(rho, v) => {
                self.add_rgn(rho);
                self.add_value(v);
            }
            Op::Prim(_, a, b) => {
                self.add_value(a);
                self.add_value(b);
            }
        }
    }

    fn leak(self) -> &'static NodeFv {
        Box::leak(Box::new(NodeFv {
            tvars: sorted(self.tvars).into_boxed_slice(),
            rvars: sorted(self.rvars).into_boxed_slice(),
            avars: sorted(self.avars).into_boxed_slice(),
            xvars: sorted(self.xvars).into_boxed_slice(),
        }))
    }
}

/// The honest fingerprint of a code block: body and parameter types through
/// the block's own tag/region/parameter binders.
fn add_code_def(acc: &mut FvAcc, def: &CodeDef) {
    let tbind: Vec<Symbol> = def.tvars.iter().map(|(t, _)| *t).collect();
    let rbind: Vec<Symbol> = def.rvars.clone();
    for (_, sigma) in &def.params {
        let fv = ty_fv(intern_ty(sigma.clone()));
        acc.tvars
            .extend(fv.tvars.iter().copied().filter(|t| !tbind.contains(t)));
        acc.rvars
            .extend(fv.rvars.iter().copied().filter(|r| !rbind.contains(r)));
        acc.avars.extend_from_slice(&fv.avars);
    }
    let xbind: Vec<Symbol> = def.params.iter().map(|(x, _)| *x).collect();
    let body = term_fv(intern_term(def.body.clone()));
    acc.add_node_minus(body, &tbind, &rbind, &[], &xbind);
}

/// The free variables of a value (all four namespaces), computed once per
/// node.
pub fn value_fv(id: ValId) -> &'static NodeFv {
    if let Some(fv) = memo_get(&VAL_FV, id.index()) {
        return fv;
    }
    let mut acc = FvAcc::default();
    match id.node() {
        Value::Int(_) | Value::Addr(..) => {}
        Value::Var(x) => acc.xvars.push(*x),
        Value::Pair(a, b) => {
            acc.add_node(value_fv(*a));
            acc.add_node(value_fv(*b));
        }
        Value::PackTag {
            tvar,
            tag,
            val,
            body_ty,
            ..
        } => {
            acc.add_tag(tag);
            acc.add_node(value_fv(*val));
            let mut body = FvAcc::default();
            body.add_ty(body_ty);
            acc.tvars
                .extend(body.tvars.into_iter().filter(|t| t != tvar));
            acc.rvars.extend(body.rvars);
            acc.avars.extend(body.avars);
        }
        Value::PackAlpha {
            avar,
            regions,
            witness,
            val,
            body_ty,
        } => {
            for r in regions.iter() {
                acc.add_rgn(r);
            }
            acc.add_ty(witness);
            acc.add_node(value_fv(*val));
            let mut body = FvAcc::default();
            body.add_ty(body_ty);
            acc.tvars.extend(body.tvars);
            acc.rvars.extend(body.rvars);
            acc.avars
                .extend(body.avars.into_iter().filter(|a| a != avar));
        }
        Value::PackRgn {
            rvar,
            bound,
            witness,
            val,
            body_ty,
        } => {
            for r in bound.iter() {
                acc.add_rgn(r);
            }
            acc.add_rgn(witness);
            acc.add_node(value_fv(*val));
            let mut body = FvAcc::default();
            body.add_ty(body_ty);
            acc.tvars.extend(body.tvars);
            acc.rvars
                .extend(body.rvars.into_iter().filter(|r| r != rvar));
            acc.avars.extend(body.avars);
        }
        Value::TagApp(f, tags, regions) => {
            acc.add_node(value_fv(*f));
            for t in tags.iter() {
                acc.add_tag(t);
            }
            for r in regions.iter() {
                acc.add_rgn(r);
            }
        }
        Value::Code(def) => add_code_def(&mut acc, def),
        Value::Inl(v) | Value::Inr(v) => acc.add_node(value_fv(*v)),
    }
    let leaked = acc.leak();
    memo_put(&VAL_FV, id.index(), leaked);
    leaked
}

/// The free variables of a term (all four namespaces), computed once per
/// node. `Let` spines are walked iteratively (they can be thousands of
/// bindings deep), memoizing every suffix on the way back out.
pub fn term_fv(id: TermId) -> &'static NodeFv {
    if let Some(fv) = memo_get(&TERM_FV, id.index()) {
        return fv;
    }
    // Collect the unmemoized prefix of the Let spine, innermost last.
    let mut spine: Vec<TermId> = Vec::new();
    let mut cur = id;
    while let Term::Let { body, .. } = cur.node() {
        spine.push(cur);
        if memo_get(&TERM_FV, body.index()).is_some() {
            break;
        }
        cur = *body;
    }
    // Innermost first: each node's body is then a memo hit for the next.
    // When `id` is a `Let` it is the spine's first element, so the loop
    // covers it; otherwise the spine is empty and it is computed below.
    for node in spine.into_iter().rev() {
        let fv = term_fv_node(node);
        memo_put(&TERM_FV, node.index(), fv);
    }
    if let Some(fv) = memo_get(&TERM_FV, id.index()) {
        return fv;
    }
    let leaked = term_fv_node(id);
    memo_put(&TERM_FV, id.index(), leaked);
    leaked
}

/// Computes one node's fingerprint, assuming `Let` bodies are either
/// memoized or reachable without re-walking a long spine (guaranteed by
/// [`term_fv`]'s spine loop).
fn term_fv_node(id: TermId) -> &'static NodeFv {
    let mut acc = FvAcc::default();
    match id.node() {
        Term::App {
            f,
            tags,
            regions,
            args,
        } => {
            acc.add_value(f);
            for t in tags {
                acc.add_tag(t);
            }
            for r in regions {
                acc.add_rgn(r);
            }
            for v in args {
                acc.add_value(v);
            }
        }
        Term::Let { x, op, body } => {
            acc.add_op(op);
            acc.add_node_minus(term_fv(*body), &[], &[], &[], &[*x]);
        }
        Term::Halt(v) => acc.add_value(v),
        Term::IfGc { rho, full, cont } => {
            acc.add_rgn(rho);
            acc.add_node(term_fv(*full));
            acc.add_node(term_fv(*cont));
        }
        Term::OpenTag { pkg, tvar, x, body } => {
            acc.add_value(pkg);
            acc.add_node_minus(term_fv(*body), &[*tvar], &[], &[], &[*x]);
        }
        Term::OpenAlpha { pkg, avar, x, body } => {
            acc.add_value(pkg);
            acc.add_node_minus(term_fv(*body), &[], &[], &[*avar], &[*x]);
        }
        Term::OpenRgn { pkg, rvar, x, body } => {
            acc.add_value(pkg);
            acc.add_node_minus(term_fv(*body), &[], &[*rvar], &[], &[*x]);
        }
        Term::LetRegion { rvar, body } => {
            acc.add_node_minus(term_fv(*body), &[], &[*rvar], &[], &[]);
        }
        Term::Only { regions, body } => {
            for r in regions {
                acc.add_rgn(r);
            }
            acc.add_node(term_fv(*body));
        }
        Term::Typecase {
            tag,
            int_arm,
            arrow_arm,
            prod_arm,
            exist_arm,
        } => {
            acc.add_tag(tag);
            acc.add_node(term_fv(*int_arm));
            acc.add_node(term_fv(*arrow_arm));
            let (t1, t2, pe) = prod_arm;
            acc.add_node_minus(term_fv(*pe), &[*t1, *t2], &[], &[], &[]);
            let (te, ee) = exist_arm;
            acc.add_node_minus(term_fv(*ee), &[*te], &[], &[], &[]);
        }
        Term::IfLeft {
            x,
            scrut,
            left,
            right,
        } => {
            acc.add_value(scrut);
            acc.add_node_minus(term_fv(*left), &[], &[], &[], &[*x]);
            acc.add_node_minus(term_fv(*right), &[], &[], &[], &[*x]);
        }
        Term::Set { dst, src, body } => {
            acc.add_value(dst);
            acc.add_value(src);
            acc.add_node(term_fv(*body));
        }
        Term::Widen {
            x,
            from,
            to,
            tag,
            v,
            body,
        } => {
            acc.add_rgn(from);
            acc.add_rgn(to);
            acc.add_tag(tag);
            acc.add_value(v);
            acc.add_node_minus(term_fv(*body), &[], &[], &[], &[*x]);
        }
        Term::IfReg { r1, r2, eq, ne } => {
            acc.add_rgn(r1);
            acc.add_rgn(r2);
            acc.add_node(term_fv(*eq));
            acc.add_node(term_fv(*ne));
        }
        Term::If0 {
            scrut,
            zero,
            nonzero,
        } => {
            acc.add_value(scrut);
            acc.add_node(term_fv(*zero));
            acc.add_node(term_fv(*nonzero));
        }
    }
    acc.leak()
}

// ----- fingerprint-skip counters ------------------------------------------

static TERM_SKIPS: AtomicU64 = AtomicU64::new(0);
static VAL_SKIPS: AtomicU64 = AtomicU64::new(0);

/// Records that a term-level substitution was skipped whole by fingerprint.
pub(crate) fn note_term_skip() {
    TERM_SKIPS.fetch_add(1, Ordering::Relaxed);
}

/// Records that a value-level substitution was skipped whole by fingerprint.
pub(crate) fn note_val_skip() {
    VAL_SKIPS.fetch_add(1, Ordering::Relaxed);
}

// ----- lazy slot values ---------------------------------------------------

static LAZY_DEFERRED: AtomicU64 = AtomicU64::new(0);
static LAZY_FORCED: AtomicU64 = AtomicU64::new(0);
static LAZY_BACKFILLED: AtomicU64 = AtomicU64::new(0);
static LAZY_SKIPPED: AtomicU64 = AtomicU64::new(0);

fn note_lazy_deferred() {
    LAZY_DEFERRED.fetch_add(1, Ordering::Relaxed);
}

fn note_lazy_forced() {
    LAZY_FORCED.fetch_add(1, Ordering::Relaxed);
}

fn note_lazy_backfilled() {
    LAZY_BACKFILLED.fetch_add(1, Ordering::Relaxed);
}

/// Records that `n` lazy slots died without ever being forced (their
/// interning probes were skipped outright).
pub(crate) fn note_lazy_skipped_n(n: u64) {
    if n > 0 {
        LAZY_SKIPPED.fetch_add(n, Ordering::Relaxed);
    }
}

/// One child position of a lazily-interned heap slot: either an identity
/// an earlier construction already paid for, or the child's value node
/// (itself canonical — *its* children are interned) whose hash-cons probe
/// is being deferred.
#[derive(Clone, Debug)]
pub enum LazyChild {
    /// The identity is already known — nothing was deferred.
    Id(ValId),
    /// The identity is not yet known; interning is deferred until the
    /// slot is forced. The node's own children are interned ids.
    Thunk(Value),
}

impl LazyChild {
    /// A child whose identity is already known (no probe was deferred).
    pub fn interned(id: ValId) -> LazyChild {
        LazyChild::Id(id)
    }

    /// A child whose identity is not yet known; interning it is deferred
    /// until the slot is forced.
    pub fn thunk(v: Value) -> LazyChild {
        LazyChild::Thunk(v)
    }

    /// The child's value node, without forcing (allocation-free).
    pub fn value(&self) -> &Value {
        match self {
            LazyChild::Id(id) => id.node(),
            LazyChild::Thunk(v) => v,
        }
    }

    /// The known identity, if any.
    fn id(&self) -> Option<ValId> {
        match self {
            LazyChild::Id(id) => Some(*id),
            LazyChild::Thunk(_) => None,
        }
    }

    /// The child's interned identity, paying the deferred probe now if it
    /// was never paid.
    pub fn force_id(&self) -> ValId {
        match self {
            LazyChild::Id(id) => *id,
            LazyChild::Thunk(v) => intern_value(v.clone()),
        }
    }
}

/// A heap slot: either an already-canonical [`Value`] (every child id
/// known) or a thunk whose child identities have not been demanded yet.
/// Only the hot allocation shapes (`pair`, `inl`, `inr`) have thunk forms;
/// the cold pack/code shapes stay eager. Slots are forced — interned and
/// replaced by their canonical form — on first *identity demand*; see
/// [`crate::memory::Memory::get`].
#[derive(Clone, Debug)]
pub enum SlotVal {
    /// A canonical value: all identities known.
    Val(Value),
    /// An uninterned pair node.
    LazyPair(Box<(LazyChild, LazyChild)>),
    /// An uninterned left-injection node.
    LazyInl(Box<LazyChild>),
    /// An uninterned right-injection node.
    LazyInr(Box<LazyChild>),
}

impl SlotVal {
    /// A pair slot; canonical immediately when both child ids are known
    /// (no probe to defer), a thunk otherwise.
    pub fn pair(a: LazyChild, b: LazyChild) -> SlotVal {
        match (a.id(), b.id()) {
            (Some(x), Some(y)) => SlotVal::Val(Value::Pair(x, y)),
            _ => {
                note_lazy_deferred();
                SlotVal::LazyPair(Box::new((a, b)))
            }
        }
    }

    /// A left-injection slot; canonical when the child id is known.
    pub fn inl(x: LazyChild) -> SlotVal {
        match x.id() {
            Some(i) => SlotVal::Val(Value::Inl(i)),
            None => {
                note_lazy_deferred();
                SlotVal::LazyInl(Box::new(x))
            }
        }
    }

    /// A right-injection slot; canonical when the child id is known.
    pub fn inr(x: LazyChild) -> SlotVal {
        match x.id() {
            Some(i) => SlotVal::Val(Value::Inr(i)),
            None => {
                note_lazy_deferred();
                SlotVal::LazyInr(Box::new(x))
            }
        }
    }

    /// Is this slot still a thunk (some child identity unknown)?
    pub fn is_lazy(&self) -> bool {
        !matches!(self, SlotVal::Val(_))
    }

    /// The canonical value, without forcing: `None` while the slot is a
    /// thunk.
    pub fn as_val(&self) -> Option<&Value> {
        match self {
            SlotVal::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Forces the slot into its canonical value (paying the deferred
    /// interning probes). Counted; callers use [`SlotVal::canonical`].
    fn force(&self) -> Value {
        note_lazy_forced();
        match self {
            SlotVal::Val(v) => v.clone(),
            SlotVal::LazyPair(c) => Value::Pair(c.0.force_id(), c.1.force_id()),
            SlotVal::LazyInl(c) => Value::Inl(c.force_id()),
            SlotVal::LazyInr(c) => Value::Inr(c.force_id()),
        }
    }

    /// The canonical value: borrowed when already canonical, forced (and
    /// interned) otherwise. The slot itself is left as-is; in-place
    /// replacement is [`SlotVal::backfill`].
    pub fn canonical(&self) -> std::borrow::Cow<'_, Value> {
        match self {
            SlotVal::Val(v) => std::borrow::Cow::Borrowed(v),
            _ => std::borrow::Cow::Owned(self.force()),
        }
    }

    /// Forces a thunk and replaces it in place with its canonical form, so
    /// each slot pays its interning probes at most once. No-op on a
    /// canonical slot.
    pub fn backfill(&mut self) {
        if self.is_lazy() {
            let v = self.force();
            note_lazy_backfilled();
            *self = SlotVal::Val(v);
        }
    }
}

impl PartialEq for SlotVal {
    fn eq(&self, other: &SlotVal) -> bool {
        match (self, other) {
            (SlotVal::Val(a), SlotVal::Val(b)) => a == b,
            _ => *self.canonical() == *other.canonical(),
        }
    }
}

// ----- α-canonicalization -------------------------------------------------

static DB_TAG: RwLock<Vec<Symbol>> = RwLock::new(Vec::new());
static DB_RGN: RwLock<Vec<Symbol>> = RwLock::new(Vec::new());
static DB_ALPHA: RwLock<Vec<Symbol>> = RwLock::new(Vec::new());

fn db_symbol(cache: &RwLock<Vec<Symbol>>, prefix: &str, i: usize) -> Symbol {
    {
        let v = read_lock(cache);
        if i < v.len() {
            return v[i];
        }
    }
    let mut v = write_lock(cache);
    while v.len() <= i {
        let s = Symbol::intern(&format!("{prefix}{}", v.len()));
        v.push(s);
    }
    v[i]
}

fn binder_sym(cell: &OnceLock<Symbol>, name: &str) -> Symbol {
    *cell.get_or_init(|| Symbol::intern(name))
}

static TAG_BINDER: OnceLock<Symbol> = OnceLock::new();
static RGN_BINDER: OnceLock<Symbol> = OnceLock::new();
static ALPHA_BINDER: OnceLock<Symbol> = OnceLock::new();

/// Is any free variable of (sorted) `fv` bound in `env`?
fn hits_env(fv: &[Symbol], env: &[Symbol]) -> bool {
    env.iter().any(|b| fv.binary_search(b).is_ok())
}

/// De Bruijn index of `x` in `env` (distance to the innermost binder), if
/// bound.
fn db_index(x: Symbol, env: &[Symbol]) -> Option<usize> {
    env.iter().rev().position(|&b| b == x)
}

/// The α-canonical form of a tag: binders renamed to `!`, bound variables
/// to their de Bruijn index `!i`. Two tags are α-equivalent iff their
/// canonical ids are equal.
pub fn canon_tag(id: TagId) -> TagId {
    if let Some(c) = memo_get(&TAG_CANON, id.index()) {
        return c;
    }
    let c = canon_tag_rec(id, &mut Vec::new());
    memo_put(&TAG_CANON, id.index(), c);
    c
}

fn canon_tag_rec(id: TagId, env: &mut Vec<Symbol>) -> TagId {
    // A subterm whose free variables miss every enclosing binder
    // canonicalizes exactly as it would at top level — reuse the memo.
    if !env.is_empty() && !hits_env(tag_fv(id), env) {
        return canon_tag(id);
    }
    match id.node() {
        Tag::Int => id,
        Tag::Var(t) => match db_index(*t, env) {
            Some(i) => intern_tag(Tag::Var(db_symbol(&DB_TAG, "!", i))),
            None => id,
        },
        Tag::AnyArrow(t) => match db_index(*t, env) {
            Some(i) => intern_tag(Tag::AnyArrow(db_symbol(&DB_TAG, "!", i))),
            None => id,
        },
        Tag::Prod(a, b) => intern_tag(Tag::Prod(canon_tag_rec(*a, env), canon_tag_rec(*b, env))),
        Tag::App(f, a) => intern_tag(Tag::App(canon_tag_rec(*f, env), canon_tag_rec(*a, env))),
        Tag::Arrow(args) => intern_tag(Tag::Arrow(
            args.iter().map(|a| canon_tag_rec(*a, env)).collect(),
        )),
        Tag::Exist(t, body) => {
            env.push(*t);
            let b = canon_tag_rec(*body, env);
            env.pop();
            intern_tag(Tag::Exist(binder_sym(&TAG_BINDER, "!"), b))
        }
        Tag::Lam(t, body) => {
            env.push(*t);
            let b = canon_tag_rec(*body, env);
            env.pop();
            intern_tag(Tag::Lam(binder_sym(&TAG_BINDER, "!"), b))
        }
    }
}

#[derive(Default)]
struct CanonEnv {
    tags: Vec<Symbol>,
    rgns: Vec<Symbol>,
    alphas: Vec<Symbol>,
}

impl CanonEnv {
    fn is_empty(&self) -> bool {
        self.tags.is_empty() && self.rgns.is_empty() && self.alphas.is_empty()
    }
}

fn canon_region(rho: &Region, env: &CanonEnv) -> Region {
    match rho {
        Region::Var(r) => match db_index(*r, &env.rgns) {
            Some(i) => Region::Var(db_symbol(&DB_RGN, "!r", i)),
            None => *rho,
        },
        Region::Name(_) => *rho,
    }
}

/// Canonical form of a region *set* (`∆`): rename, then sort and
/// deduplicate — the paper's `∆`s are sets, so order is not significant.
fn canon_region_set(rs: &[Region], env: &CanonEnv) -> Vec<Region> {
    let mut out: Vec<Region> = rs.iter().map(|r| canon_region(r, env)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The α-canonical form of a type, with per-namespace de Bruijn naming
/// (`!i` for tags, `!ri` for regions, `!ai` for αs). Two types are
/// α-equivalent iff their canonical ids are equal.
pub fn canon_ty(id: TyId) -> TyId {
    if let Some(c) = memo_get(&TY_CANON, id.index()) {
        return c;
    }
    let c = canon_ty_rec(id, &mut CanonEnv::default());
    memo_put(&TY_CANON, id.index(), c);
    c
}

fn canon_ty_rec(id: TyId, env: &mut CanonEnv) -> TyId {
    if !env.is_empty() {
        let fv = ty_fv(id);
        if !hits_env(&fv.tvars, &env.tags)
            && !hits_env(&fv.rvars, &env.rgns)
            && !hits_env(&fv.avars, &env.alphas)
        {
            return canon_ty(id);
        }
    }
    match id.node() {
        Ty::Int => id,
        Ty::Alpha(a) => match db_index(*a, &env.alphas) {
            Some(i) => intern_ty(Ty::Alpha(db_symbol(&DB_ALPHA, "!a", i))),
            None => id,
        },
        Ty::Prod(a, b) => intern_ty(Ty::Prod(canon_ty_rec(*a, env), canon_ty_rec(*b, env))),
        Ty::Sum(a, b) => intern_ty(Ty::Sum(canon_ty_rec(*a, env), canon_ty_rec(*b, env))),
        Ty::Left(a) => intern_ty(Ty::Left(canon_ty_rec(*a, env))),
        Ty::Right(a) => intern_ty(Ty::Right(canon_ty_rec(*a, env))),
        Ty::At(inner, rho) => {
            let rho = canon_region(rho, env);
            intern_ty(Ty::At(canon_ty_rec(*inner, env), rho))
        }
        Ty::M(rho, tag) => intern_ty(Ty::M(
            canon_region(rho, env),
            canon_tag_rec(*tag, &mut env.tags),
        )),
        Ty::C(from, to, tag) => intern_ty(Ty::C(
            canon_region(from, env),
            canon_region(to, env),
            canon_tag_rec(*tag, &mut env.tags),
        )),
        Ty::MGen(young, old, tag) => intern_ty(Ty::MGen(
            canon_region(young, env),
            canon_region(old, env),
            canon_tag_rec(*tag, &mut env.tags),
        )),
        Ty::Code { tvars, rvars, args } => {
            let nt = tvars.len();
            let nr = rvars.len();
            env.tags.extend(tvars.iter().map(|(t, _)| *t));
            env.rgns.extend(rvars.iter().copied());
            let args = args.iter().map(|a| canon_ty_rec(*a, env)).collect();
            env.tags.truncate(env.tags.len() - nt);
            env.rgns.truncate(env.rgns.len() - nr);
            intern_ty(Ty::Code {
                tvars: tvars
                    .iter()
                    .map(|(_, k)| (binder_sym(&TAG_BINDER, "!"), *k))
                    .collect(),
                rvars: rvars
                    .iter()
                    .map(|_| binder_sym(&RGN_BINDER, "!r"))
                    .collect(),
                args,
            })
        }
        Ty::ExistTag { tvar, kind, body } => {
            env.tags.push(*tvar);
            let body = canon_ty_rec(*body, env);
            env.tags.pop();
            intern_ty(Ty::ExistTag {
                tvar: binder_sym(&TAG_BINDER, "!"),
                kind: *kind,
                body,
            })
        }
        Ty::ExistAlpha {
            avar,
            regions,
            body,
        } => {
            let regions = canon_region_set(regions, env).into();
            env.alphas.push(*avar);
            let body = canon_ty_rec(*body, env);
            env.alphas.pop();
            intern_ty(Ty::ExistAlpha {
                avar: binder_sym(&ALPHA_BINDER, "!a"),
                regions,
                body,
            })
        }
        Ty::ExistRgn { rvar, bound, body } => {
            let bound = canon_region_set(bound, env).into();
            env.rgns.push(*rvar);
            let body = canon_ty_rec(*body, env);
            env.rgns.pop();
            intern_ty(Ty::ExistRgn {
                rvar: binder_sym(&RGN_BINDER, "!r"),
                bound,
                body,
            })
        }
        Ty::Trans {
            tags,
            regions,
            args,
            rho,
        } => intern_ty(Ty::Trans {
            tags: tags
                .iter()
                .map(|t| canon_tag_rec(*t, &mut env.tags))
                .collect(),
            regions: regions.iter().map(|r| canon_region(r, env)).collect(),
            args: args.iter().map(|a| canon_ty_rec(*a, env)).collect(),
            rho: canon_region(rho, env),
        }),
    }
}

/// α-equivalence of tags as an id compare (after canonicalization).
pub fn tag_alpha_eq(a: TagId, b: TagId) -> bool {
    a == b || canon_tag(a) == canon_tag(b)
}

/// α-equivalence of types as an id compare (after canonicalization).
pub fn ty_alpha_eq(a: TyId, b: TyId) -> bool {
    a == b || canon_ty(a) == canon_ty(b)
}

// ----- telemetry ----------------------------------------------------------

/// Occupancy of the interning subsystem: arena sizes, hit counts, and memo
/// table sizes. Printed by `psgc --stats-intern`.
#[derive(Clone, Copy, Debug, Default)]
pub struct InternStats {
    /// Distinct tag nodes interned.
    pub tag_nodes: usize,
    /// Intern calls that found an existing tag node.
    pub tag_hits: u64,
    /// Distinct type nodes interned.
    pub ty_nodes: usize,
    /// Intern calls that found an existing type node.
    pub ty_hits: u64,
    /// Entries in the tag-normalization memo.
    pub tag_norm: usize,
    /// Entries in the (type, dialect) normalization memo.
    pub ty_norm: usize,
    /// Entries in the tag α-canonicalization memo.
    pub tag_canon: usize,
    /// Entries in the type α-canonicalization memo.
    pub ty_canon: usize,
    /// Tag free-variable fingerprints computed.
    pub tag_fv: usize,
    /// Type free-variable fingerprints computed.
    pub ty_fv: usize,
    /// Distinct term nodes interned.
    pub term_nodes: usize,
    /// Intern calls that found an existing term node.
    pub term_hits: u64,
    /// Distinct value nodes interned.
    pub val_nodes: usize,
    /// Intern calls that found an existing value node.
    pub val_hits: u64,
    /// Term free-variable fingerprints computed.
    pub term_fv: usize,
    /// Value free-variable fingerprints computed.
    pub val_fv: usize,
    /// Term substitutions skipped whole by fingerprint.
    pub term_skips: u64,
    /// Value substitutions skipped whole by fingerprint.
    pub val_skips: u64,
    /// Heap slots stored as thunks (interning probes deferred at put).
    pub lazy_deferred: u64,
    /// Thunk slots forced into canonical form by an identity demand.
    pub lazy_forced: u64,
    /// Forced slots backfilled in place (each pays its probes at most once).
    pub lazy_backfilled: u64,
    /// Thunk slots that died (freed or overwritten) without ever being
    /// forced: interning probes skipped outright.
    pub lazy_skipped: u64,
}

/// A snapshot of the global interner and memo-table occupancy.
pub fn stats() -> InternStats {
    let (tag_nodes, tag_hits) = (TAGS.len(), TAGS.hits());
    let (ty_nodes, ty_hits) = (TYS.len(), TYS.hits());
    let (term_nodes, term_hits) = (TERMS.len(), TERMS.hits());
    let (val_nodes, val_hits) = (VALS.len(), VALS.hits());
    InternStats {
        tag_nodes,
        tag_hits,
        ty_nodes,
        ty_hits,
        tag_norm: memo_len(&TAG_NORM),
        ty_norm: TY_NORM.iter().map(memo_len).sum(),
        tag_canon: memo_len(&TAG_CANON),
        ty_canon: memo_len(&TY_CANON),
        tag_fv: memo_len(&TAG_FV),
        ty_fv: memo_len(&TY_FV),
        term_nodes,
        term_hits,
        val_nodes,
        val_hits,
        term_fv: memo_len(&TERM_FV),
        val_fv: memo_len(&VAL_FV),
        term_skips: TERM_SKIPS.load(Ordering::Relaxed),
        val_skips: VAL_SKIPS.load(Ordering::Relaxed),
        lazy_deferred: LAZY_DEFERRED.load(Ordering::Relaxed),
        lazy_forced: LAZY_FORCED.load(Ordering::Relaxed),
        lazy_backfilled: LAZY_BACKFILLED.load(Ordering::Relaxed),
        lazy_skipped: LAZY_SKIPPED.load(Ordering::Relaxed),
    }
}

impl fmt::Display for InternStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tag nodes      {:>10}  (hits {})",
            self.tag_nodes, self.tag_hits
        )?;
        writeln!(
            f,
            "ty nodes       {:>10}  (hits {})",
            self.ty_nodes, self.ty_hits
        )?;
        writeln!(
            f,
            "term nodes     {:>10}  (hits {})",
            self.term_nodes, self.term_hits
        )?;
        writeln!(
            f,
            "val nodes      {:>10}  (hits {})",
            self.val_nodes, self.val_hits
        )?;
        writeln!(f, "tag norm memo  {:>10}", self.tag_norm)?;
        writeln!(f, "ty norm memo   {:>10}", self.ty_norm)?;
        writeln!(f, "tag canon memo {:>10}", self.tag_canon)?;
        writeln!(f, "ty canon memo  {:>10}", self.ty_canon)?;
        writeln!(f, "tag fv memo    {:>10}", self.tag_fv)?;
        writeln!(f, "ty fv memo     {:>10}", self.ty_fv)?;
        writeln!(f, "term fv memo   {:>10}", self.term_fv)?;
        writeln!(f, "val fv memo    {:>10}", self.val_fv)?;
        writeln!(f, "term skips     {:>10}", self.term_skips)?;
        writeln!(f, "val skips      {:>10}", self.val_skips)?;
        writeln!(f, "lazy deferred  {:>10}", self.lazy_deferred)?;
        writeln!(f, "lazy forced    {:>10}", self.lazy_forced)?;
        writeln!(f, "lazy backfill  {:>10}", self.lazy_backfilled)?;
        write!(f, "lazy skipped   {:>10}", self.lazy_skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Kind;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let a = Tag::prod(Tag::Int, Tag::arrow([Tag::Int]));
        let b = Tag::prod(Tag::Int, Tag::arrow([Tag::Int]));
        assert_eq!(a.id(), b.id());
        let c = Tag::prod(Tag::Int, Tag::Int);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn canon_renames_binders() {
        let a = Tag::lam(s("u"), Tag::Var(s("u"))).id();
        let b = Tag::lam(s("v"), Tag::Var(s("v"))).id();
        assert_eq!(canon_tag(a), canon_tag(b));
        assert!(tag_alpha_eq(a, b));
    }

    #[test]
    fn canon_keeps_free_vars() {
        let a = Tag::lam(s("u"), Tag::Var(s("w"))).id();
        let b = Tag::lam(s("v"), Tag::Var(s("z"))).id();
        assert!(!tag_alpha_eq(a, b));
    }

    #[test]
    fn canon_distinguishes_depths() {
        // ∃u.∃v.(u × v) vs ∃u.∃v.(v × u): different index patterns.
        let a = Tag::exist(
            s("u"),
            Tag::exist(s("v"), Tag::prod(Tag::Var(s("u")), Tag::Var(s("v")))),
        );
        let b = Tag::exist(
            s("u"),
            Tag::exist(s("v"), Tag::prod(Tag::Var(s("v")), Tag::Var(s("u")))),
        );
        assert!(!tag_alpha_eq(a.id(), b.id()));
    }

    #[test]
    fn ty_canon_region_sets_are_sets() {
        let r1 = Region::Var(s("ra"));
        let r2 = Region::Var(s("rb"));
        let a = Ty::exist_rgn(s("r"), [r1, r2], Ty::Int).id();
        let b = Ty::exist_rgn(s("rr"), [r2, r1, r2], Ty::Int).id();
        assert!(ty_alpha_eq(a, b));
    }

    #[test]
    fn ty_canon_code_binders_positional() {
        let a = Ty::code(
            [(s("t"), Kind::Omega)],
            [s("r")],
            [Ty::m(Region::Var(s("r")), Tag::Var(s("t")))],
        )
        .id();
        let b = Ty::code(
            [(s("u"), Kind::Omega)],
            [s("q")],
            [Ty::m(Region::Var(s("q")), Tag::Var(s("u")))],
        )
        .id();
        assert!(ty_alpha_eq(a, b));
        let c = Ty::code(
            [(s("u"), Kind::Arrow)],
            [s("q")],
            [Ty::m(Region::Var(s("q")), Tag::Var(s("u")))],
        )
        .id();
        assert!(!ty_alpha_eq(a, c));
    }

    #[test]
    fn fv_fingerprints() {
        let t = Tag::exist(s("u"), Tag::prod(Tag::Var(s("u")), Tag::Var(s("w"))));
        let fv = tag_fv(t.id());
        assert!(fv.contains(&s("w")));
        assert!(!fv.contains(&s("u")));
        let sigma = Ty::exist_rgn(
            s("r"),
            [Region::Var(s("rb"))],
            Ty::m(Region::Var(s("r")), Tag::Var(s("t"))),
        );
        let fv = ty_fv(sigma.id());
        assert_eq!(&*fv.rvars, &[s("rb")]);
        assert_eq!(&*fv.tvars, &[s("t")]);
        assert!(fv.avars.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let _ = Tag::prod(Tag::Int, Tag::Int).id();
        let st = stats();
        assert!(st.tag_nodes > 0);
    }
}
