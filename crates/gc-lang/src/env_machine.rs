//! An environment-based (CEK-style) fast path for the λGC machine.
//!
//! [`crate::machine::SubstMachine`] implements Fig. 5 literally: every step
//! performs a textual substitution, deep-cloning the entire continuation
//! term, so one step costs O(|term|). [`EnvMachine`] runs the *same*
//! operational semantics without ever rewriting the continuation:
//!
//! * the control is an interned [`TermId`] handle — stepping into a
//!   `let` body or a branch arm is a u32 copy, never a deep clone;
//! * binders extend a mutable environment ([`Subst`]) instead of
//!   substituting, and `Value::Var` / `Region::Var` / `Tag::Var` are
//!   resolved lazily at their use sites.
//!
//! # Why a flat environment is sound
//!
//! λGC is a CPS calculus: control never *returns* — each step replaces the
//! whole control with exactly one continuation, so evaluation descends
//! through each binder at most once per code-block activation, and the
//! only re-entry point is `App`, whose target is a closed code block
//! (λGC's typing rules close code over its `tvars`/`rvars`/`params`).
//! A single mutable map with overwrite-on-shadow therefore implements
//! lexical scope exactly, and it can be wholesale cleared at every `App`.
//!
//! # Why it agrees exactly with the substitution machine
//!
//! Resolution against the environment *is* substitution application — the
//! environment is literally a [`Subst`], so this machine and the Fig. 5
//! substitution machine share one resolution code path (the third backend,
//! the bytecode VM of [`crate::bytecode`], uses it too, for its `Build`
//! operands). At runtime every substitution range is closed
//! (values/tags/regions that reach the environment are fully resolved
//! first), so [`Subst`]'s capture-avoidance never renames a binder and
//! simultaneous application coincides with the substitution machine's
//! sequential application. Consequently the two machines produce identical
//! heap contents, identical results, and identical
//! [`Stats`](crate::machine::Stats) — checked program-by-program by the
//! differential test suite and step-for-step by the lockstep property test.
//!
//! Typed runs (`track_types`) work on this backend as on the others: the
//! heap audits of [`crate::verify`] take their reachability root from
//! [`Machine::resolved_control`], the closed term the substitution machine
//! holds at the same step, and check every live slot against its `Ψ`
//! entry. Only [`crate::wf::check_state`], which also types the current
//! term, takes a substitution machine.

use std::sync::Arc;

use crate::error::Result;
use crate::intern::{intern_term, LazyChild, SlotVal, TagId, TermId, ValId};
use crate::machine::sealed::{Core, HasCore};
use crate::machine::{widen_psi, Machine, Program, TypecaseArm};
use crate::memory::MemConfig;
use crate::snapshot::Snapshot;
use crate::subst::Subst;
use crate::syntax::{CodeDef, Op, Region, RegionName, Term, Value};
use crate::tags;

/// The control of the machine: a shared handle to the term being reduced.
///
/// Code bodies are owned by their [`CodeDef`], so jumping to a block keeps
/// the whole definition alive rather than cloning the body out of it.
#[derive(Clone, Debug)]
enum Ctrl {
    Term(TermId),
    Body(Arc<CodeDef>),
}

impl Ctrl {
    fn term(&self) -> &Term {
        match self {
            Ctrl::Term(t) => t.node(),
            Ctrl::Body(def) => &def.body,
        }
    }
}

/// The environment-machine state: `(M, e, E)` where `E` maps the free
/// variables of `e` to closed values/tags/regions/types.
#[derive(Clone, Debug)]
pub struct EnvMachine {
    core: Core,
    control: Ctrl,
    env: Subst,
    lazy: bool,
}

impl EnvMachine {
    /// Loads a program: installs its code blocks in `cd` and sets the main
    /// term as the current control.
    pub fn load(program: &Program, config: MemConfig) -> EnvMachine {
        EnvMachine {
            core: Core::load(program, config),
            control: Ctrl::Term(program.main.id()),
            env: Subst::new(),
            lazy: true,
        }
    }

    /// Resolves a region against the environment down to a concrete name.
    fn resolve_name(&self, rho: &Region) -> Result<RegionName> {
        self.core.name(self.env.region(rho))
    }

    /// Resolves a tag against the environment and normalizes it, as Fig. 5
    /// does before `typecase`, `widen` and a β step consume it.
    fn resolve_tag_nf(&self, tau: TagId) -> TagId {
        tags::normalize_id(self.env.tag_id(tau)).0
    }

    fn step_term(&mut self, term: &Term) -> Result<Option<Ctrl>> {
        let next = match term {
            Term::App {
                f,
                tags: ts,
                regions,
                args,
            } => return self.step_app(f, ts, regions, args).map(Some),
            Term::Let { x, op, body } => {
                let v = self.eval_op(op)?;
                self.env.bind_val(*x, v);
                body
            }
            Term::Halt(v) => {
                self.core.halt(self.env.value(v))?;
                return Ok(None);
            }
            Term::IfGc { rho, full, cont } => {
                if self.core.ifgc(self.env.region(rho))? {
                    full
                } else {
                    cont
                }
            }
            Term::OpenTag { pkg, tvar, x, body } => match self.env.value(pkg) {
                Value::PackTag { tag, val, .. } => {
                    // Fig. 5 normalizes the witness tag before binding.
                    self.env.bind_tag(*tvar, tags::normalize_id(tag).0);
                    self.env.bind_val(*x, (*val).clone());
                    body
                }
                other => {
                    return Err(self
                        .core
                        .stuck(format!("open(tag) on non-package {other:?}")))
                }
            },
            Term::OpenAlpha { pkg, avar, x, body } => match self.env.value(pkg) {
                Value::PackAlpha { witness, val, .. } => {
                    self.env.bind_alpha(*avar, witness);
                    self.env.bind_val(*x, (*val).clone());
                    body
                }
                other => return Err(self.core.stuck(format!("open(α) on non-package {other:?}"))),
            },
            Term::OpenRgn { pkg, rvar, x, body } => match self.env.value(pkg) {
                Value::PackRgn { witness, val, .. } => {
                    let nu = self.core.name(witness)?;
                    self.env.bind_rgn(*rvar, Region::Name(nu));
                    self.env.bind_val(*x, (*val).clone());
                    body
                }
                other => {
                    return Err(self
                        .core
                        .stuck(format!("open(region) on non-package {other:?}")))
                }
            },
            Term::LetRegion { rvar, body } => {
                let rho = self.core.let_region();
                self.env.bind_rgn(*rvar, rho);
                body
            }
            Term::Only { regions, body } => {
                self.core.only(regions.iter().map(|r| self.env.region(r)))?;
                body
            }
            Term::Typecase {
                tag,
                int_arm,
                arrow_arm,
                prod_arm: (t1, t2, prod_body),
                exist_arm: (te, exist_body),
            } => match self.core.typecase(self.resolve_tag_nf(*tag))? {
                TypecaseArm::Int => int_arm,
                TypecaseArm::Arrow => arrow_arm,
                TypecaseArm::Prod(a, b) => {
                    self.env.bind_tag(*t1, a);
                    self.env.bind_tag(*t2, b);
                    prod_body
                }
                TypecaseArm::Exist(f) => {
                    self.env.bind_tag(*te, f);
                    exist_body
                }
            },
            Term::IfLeft {
                x,
                scrut,
                left,
                right,
            } => {
                let v = self.env.value(scrut);
                let arm = match v {
                    Value::Inl(_) => left,
                    Value::Inr(_) => right,
                    other => {
                        return Err(self
                            .core
                            .stuck(format!("ifleft on non-sum value {other:?}")))
                    }
                };
                self.env.bind_val(*x, v);
                arm
            }
            Term::Set { dst, src, body } => {
                self.core.set(self.env.value(dst), self.env.value(src))?;
                body
            }
            Term::Widen {
                x,
                from,
                to,
                tag,
                v,
                body,
            } => {
                // Operationally a no-op (see the substitution machine); only
                // the observer memory typing Ψ is rewritten when tracked.
                let rv = self.env.value(v);
                if self.core.mem.config().track_types {
                    let from = self.resolve_name(from)?;
                    let to = self.resolve_name(to)?;
                    let nf = self.resolve_tag_nf(*tag);
                    widen_psi(&mut self.core.mem, &rv, nf, from, to)?;
                }
                self.env.bind_val(*x, rv);
                body
            }
            Term::IfReg { r1, r2, eq, ne } => {
                if self.resolve_name(r1)? == self.resolve_name(r2)? {
                    eq
                } else {
                    ne
                }
            }
            Term::If0 {
                scrut,
                zero,
                nonzero,
            } => match self.env.value(scrut) {
                Value::Int(0) => zero,
                Value::Int(_) => nonzero,
                other => return Err(self.core.stuck(format!("if0 on non-integer {other:?}"))),
            },
        };
        Ok(Some(Ctrl::Term(*next)))
    }

    fn step_app(
        &mut self,
        f: &Value,
        ts: &[TagId],
        regions: &[Region],
        args: &[Value],
    ) -> Result<Ctrl> {
        let f = self.env.value(f);
        if let Value::TagApp(inner, rec_tags, rec_rgns) = f {
            // (vJ~τ;~ρK)[~τ][~ρ](~v) ⇒ v[~τ][~ρ](~v), one step, exactly
            // like the substitution machine (which also spends a step
            // materializing the unfolded application). The recorded
            // tags/regions are already resolved — they were part of a
            // resolved value — and the args are resolved here, so the
            // materialized term is closed and re-resolution on the next
            // step is the identity.
            return Ok(Ctrl::Term(intern_term(Term::App {
                f: (*inner).clone(),
                tags: rec_tags.clone(),
                regions: rec_rgns.to_vec(),
                args: args.iter().map(|v| self.env.value(v)).collect(),
            })));
        }
        let code = self.core.callee(&f, ts.len(), regions.len(), args.len())?;
        // Resolve every argument against the caller's environment
        // *before* clearing it — the callee's frame starts from the
        // empty environment because code blocks are closed.
        // Fig. 5's first rule normalizes tag arguments at the β step.
        let rtags: Vec<TagId> = ts.iter().map(|tau| self.resolve_tag_nf(*tau)).collect();
        let rrgns: Vec<Region> = regions.iter().map(|r| self.env.region(r)).collect();
        let rargs: Vec<Value> = args.iter().map(|v| self.env.value(v)).collect();
        self.env.clear();
        for ((t, _), tau) in code.tvars.iter().zip(rtags) {
            self.env.bind_tag(*t, tau);
        }
        for (r, rho) in code.rvars.iter().zip(rrgns) {
            self.env.bind_rgn(*r, rho);
        }
        for ((x, _), v) in code.params.iter().zip(rargs) {
            self.env.bind_val(*x, v);
        }
        Ok(Ctrl::Body(code))
    }

    /// Closes one child of a `put` payload for the lazy slot path: when the
    /// environment provably leaves `id` untouched its identity is already
    /// known (no intern probe at all); otherwise the substituted node is
    /// stored as a thunk whose identity is recovered only on demand.
    fn lazy_child(&self, id: ValId) -> LazyChild {
        match self.env.value_id_noop(id) {
            Some(cid) => LazyChild::interned(cid),
            None => LazyChild::thunk(self.env.value(id.node())),
        }
    }

    fn eval_op(&mut self, op: &Op) -> Result<Value> {
        match op {
            Op::Val(v) => Ok(self.env.value(v)),
            Op::Proj(i, v) => match self.env.value(v) {
                Value::Pair(a, b) => Ok(if *i == 1 { (*a).clone() } else { (*b).clone() }),
                other => Err(self
                    .core
                    .stuck(format!("projection π{i} of non-pair {other:?}"))),
            },
            Op::Put(rho, v) => {
                let nu = self.resolve_name(rho)?;
                let sv = if self.lazy {
                    match v {
                        Value::Pair(a, b) => {
                            SlotVal::pair(self.lazy_child(*a), self.lazy_child(*b))
                        }
                        Value::Inl(x) => SlotVal::inl(self.lazy_child(*x)),
                        Value::Inr(x) => SlotVal::inr(self.lazy_child(*x)),
                        other => SlotVal::Val(self.env.value(other)),
                    }
                } else {
                    SlotVal::Val(self.env.value(v))
                };
                self.core.put(nu, sv)
            }
            Op::Get(v) => match self.env.value(v) {
                Value::Addr(nu, loc) => Ok(self.core.mem.get(nu, loc)?.clone()),
                other => Err(self.core.stuck(format!("get of non-address {other:?}"))),
            },
            Op::Strip(v) => match self.env.value(v) {
                Value::Inl(x) | Value::Inr(x) => Ok((*x).clone()),
                other => Err(self
                    .core
                    .stuck(format!("strip of untagged value {other:?}"))),
            },
            Op::Prim(p, a, b) => match (self.env.value(a), self.env.value(b)) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(p.apply(x, y))),
                (a, b) => Err(self
                    .core
                    .stuck(format!("primitive {p} on non-integers {a:?}, {b:?}"))),
            },
        }
    }
}

impl HasCore for EnvMachine {
    fn core(&self) -> &Core {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    fn reduce(&mut self) -> Result<bool> {
        // Cheap handle clone so `self` stays free for mutation while the
        // current term is being matched.
        let ctrl = self.control.clone();
        match self.step_term(ctrl.term())? {
            Some(next) => {
                self.control = next;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl Machine for EnvMachine {
    /// Captures a checkpoint. The control is captured *resolved*
    /// (environment applied), so the snapshot restores into any backend —
    /// but resolution is deferred: the checkpoint stores a clone of the
    /// environment and the raw control, and the closed term is only built
    /// if the snapshot is ever restored or triaged.
    fn snapshot(&self) -> Snapshot {
        let env = self.env.clone();
        let control = self.control.clone();
        Snapshot::capture_deferred(&self.core, move || env.term(control.term()))
    }

    /// Restores a checkpoint captured by any backend. The snapshot's
    /// control is closed, so it becomes the new control over an empty
    /// environment.
    fn restore(&mut self, snap: &Snapshot) -> Result<()> {
        self.core.restore(snap)?;
        self.control = Ctrl::Term(snap.control().id());
        self.env.clear();
        Ok(())
    }

    /// Disables (or re-enables) the lazy ids-or-thunks slot representation;
    /// with eager interning every `put` stores a fully-interned value.
    fn set_eager_intern(&mut self, on: bool) {
        self.lazy = !on;
    }

    /// The control term with the environment applied — the closed term the
    /// substitution machine holds at the same step. Costs a full term
    /// copy, so not on the fast path.
    fn resolved_control(&self) -> Term {
        self.env.term(self.control.term())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Outcome, StepOutcome, SubstMachine};
    use crate::memory::GrowthPolicy;
    use crate::syntax::Tag;
    use crate::syntax::{Dialect, Op, PrimOp, CD};
    use ps_ir::Symbol;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn config() -> MemConfig {
        MemConfig {
            region_budget: 16,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 8,
        }
    }

    /// Runs a program on the substitution and environment machines and
    /// asserts identical outcome and identical statistics.
    fn run_both(p: &Program) -> Outcome {
        let mut subst = SubstMachine::load(p, config());
        let mut env = EnvMachine::load(p, config());
        let a = subst.run(100_000).expect("subst backend");
        let b = env.run(100_000).expect("env backend");
        assert_eq!(a, b, "backends disagree on the outcome");
        assert_eq!(subst.stats(), env.stats(), "backends disagree on stats");
        a
    }

    fn run_main(main: Term) -> i64 {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main,
        };
        match run_both(&p) {
            Outcome::Halted(n) => n,
            other => panic!("abnormal outcome: {other:?}"),
        }
    }

    #[test]
    fn halt_and_let_resolve_variables() {
        let x = s("exm_x");
        let y = s("exm_y");
        let e = Term::let_(
            x,
            Op::Val(Value::Int(5)),
            Term::let_(
                y,
                Op::Prim(PrimOp::Add, Value::Var(x), Value::Var(x)),
                Term::Halt(Value::Var(y)),
            ),
        );
        assert_eq!(run_main(e), 10);
    }

    #[test]
    fn shadowing_overwrites() {
        let x = s("exm_shadow");
        let e = Term::let_(
            x,
            Op::Val(Value::Int(1)),
            Term::let_(
                x,
                Op::Prim(PrimOp::Add, Value::Var(x), Value::Int(1)),
                Term::Halt(Value::Var(x)),
            ),
        );
        assert_eq!(run_main(e), 2);
    }

    #[test]
    fn heap_roundtrip_through_regions() {
        let r = s("exm_r");
        let a = s("exm_a");
        let b = s("exm_b");
        let c = s("exm_c");
        let e = Term::LetRegion {
            rvar: r,
            body: intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r), Value::pair(Value::Int(3), Value::Int(4))),
                Term::let_(
                    b,
                    Op::Get(Value::Var(a)),
                    Term::let_(c, Op::Proj(2, Value::Var(b)), Term::Halt(Value::Var(c))),
                ),
            )),
        };
        assert_eq!(run_main(e), 4);
    }

    #[test]
    fn application_clears_the_frame() {
        // After jumping to code, only the parameters are in scope; the
        // argument is resolved in the caller's frame first.
        let x = s("exm_p");
        let y = s("exm_q");
        let id = CodeDef {
            name: s("exm_id"),
            tvars: vec![],
            rvars: vec![],
            params: vec![(x, Ty::Int.id())],
            body: Term::Halt(Value::Var(x)),
        };
        let main = Term::let_(
            y,
            Op::Val(Value::Int(33)),
            Term::app(Value::Addr(CD, 0), [], [], [Value::Var(y)]),
        );
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![id],
            main,
        };
        assert_eq!(run_both(&p), Outcome::Halted(33));
    }

    #[test]
    fn tag_arguments_flow_through_typecase() {
        let t = s("exm_t");
        let body = Term::Typecase {
            tag: Tag::Var(t).into(),
            int_arm: Term::Halt(Value::Int(0)).id(),
            arrow_arm: Term::Halt(Value::Int(1)).id(),
            prod_arm: (s("exm_t1"), s("exm_t2"), Term::Halt(Value::Int(2)).id()),
            exist_arm: (s("exm_te"), Term::Halt(Value::Int(3)).id()),
        };
        let dispatch = CodeDef {
            name: s("exm_dispatch"),
            tvars: vec![(t, crate::syntax::Kind::Omega)],
            rvars: vec![],
            params: vec![],
            body,
        };
        let main = Term::app(Value::Addr(CD, 0), [Tag::prod(Tag::Int, Tag::Int)], [], []);
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![dispatch],
            main,
        };
        assert_eq!(run_both(&p), Outcome::Halted(2));
    }

    #[test]
    fn collection_stats_agree() {
        let r1 = s("exm_r1");
        let r2 = s("exm_r2");
        let a = s("exm_only_a");
        let e = Term::LetRegion {
            rvar: r1,
            body: intern_term(Term::let_(
                a,
                Op::Put(Region::Var(r1), Value::Int(5)),
                Term::LetRegion {
                    rvar: r2,
                    body: intern_term(Term::Only {
                        regions: vec![Region::Var(r2)],
                        body: Term::Halt(Value::Int(0)).id(),
                    }),
                },
            )),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: e,
        };
        let mut env = EnvMachine::load(&p, config());
        assert_eq!(env.run(1000).unwrap(), Outcome::Halted(0));
        assert_eq!(env.stats().collections, 1);
        assert_eq!(env.stats().words_reclaimed, 1);
        assert_eq!(env.stats().regions_created, 2);
        run_both(&p);
    }

    #[test]
    fn stuck_states_match_the_oracle() {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::pair(Value::Int(1), Value::Int(2))),
        };
        assert!(EnvMachine::load(&p, config()).run(10).is_err());
        assert!(SubstMachine::load(&p, config()).run(10).is_err());
    }

    #[test]
    fn halted_machine_stays_halted() {
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(7)),
        };
        let mut m = EnvMachine::load(&p, MemConfig::default());
        assert_eq!(m.run(10).unwrap(), Outcome::Halted(7));
        assert_eq!(m.halted(), Some(7));
        assert_eq!(m.step().unwrap(), StepOutcome::Halted(7));
        assert_eq!(m.run(5).unwrap(), Outcome::Halted(7));
    }

    #[test]
    fn out_of_fuel_counts_steps() {
        let f = CodeDef {
            name: s("exm_loop"),
            tvars: vec![],
            rvars: vec![],
            params: vec![],
            body: Term::app(Value::Addr(CD, 0), [], [], []),
        };
        let p = Program {
            dialect: Dialect::Basic,
            code: vec![f],
            main: Term::app(Value::Addr(CD, 0), [], [], []),
        };
        let mut m = EnvMachine::load(&p, config());
        assert_eq!(m.run(100).unwrap(), Outcome::OutOfFuel);
        assert_eq!(m.stats().steps, 100);
    }

    use crate::syntax::Ty;
}
