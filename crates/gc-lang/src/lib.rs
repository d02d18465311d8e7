//! # ps-gc-lang — the λGC family of calculi
//!
//! This crate implements the target language of *Principled Scavenging*
//! (Monnier, Saha, Shao; PLDI 2001) and its two extensions:
//!
//! * **λGC** (§4–6): a closed CPS language with regions (`let region`,
//!   `put`/`get`, `only`) and intensional type analysis (`typecase` over a
//!   tag language), plus the hard-wired Typerec `Mρ(τ)` that states the
//!   mutator–collector contract.
//! * **λGCforw** (§7): sums, tag bits, `set` and the `widen` cast, enabling
//!   efficient forwarding pointers.
//! * **λGCgen** (§8): region existentials and `ifreg`, enabling
//!   generational collection.
//!
//! The pieces:
//!
//! * [`syntax`] — ASTs (Fig. 2 + extensions) with a [`syntax::Dialect`]
//!   marker selecting the calculus;
//! * [`intern`] — the hash-consed representation behind tags, types,
//!   terms and values: global lock-free-on-read arenas, id handles,
//!   free-variable fingerprints, memoized normalization and
//!   α-canonicalization;
//! * [`tags`] — tag kinding and normalization (Props. 6.1/6.2);
//! * [`moper`] — the `M`/`C`/`M_gen` operators and type equality;
//! * [`subst`] — capture-avoiding simultaneous substitution;
//! * [`tyck`] — the static semantics (Figs. 6, 8, 10);
//! * [`memory`]/[`machine`] — the allocation semantics (Fig. 5) on real
//!   region-backed stores, with statistics;
//! * [`env_machine`] — an environment-based (CEK-style) fast path for the
//!   same semantics: no per-step substitution, continuations shared as
//!   interned [`intern::TermId`]s; observationally identical to
//!   [`machine`] (including statistics), selected via
//!   [`machine::Backend`];
//! * [`bytecode`] — a register-based bytecode VM for the same semantics:
//!   interned programs compiled once to a flat instruction stream with
//!   compile-time slot resolution and fused superinstructions; the
//!   third [`machine::Backend`], observationally identical to the other
//!   two;
//! * [`wf`] — machine-state well-formedness (`⊢ (M,e)`, Fig. 7), the
//!   engine behind the preservation/progress property tests;
//! * [`verify`] — the runtime heap-invariant auditor: Fig. 7's `⊢ M : Ψ`
//!   checks (plus structural invariants that need no type tracking) on a
//!   live machine state, runnable on demand or every N steps;
//! * [`faults`] — seeded, deterministic injection of classic GC bugs, the
//!   adversarial harness proving the auditor fires;
//! * [`snapshot`] — cheap machine checkpoints (copy-on-reference page
//!   store images) restorable into any backend;
//! * [`supervisor`] — the containment policy around [`machine::Machine::run`]:
//!   catches violations/OOM/deadlines/panics, restores the last good
//!   checkpoint, and replays on the substitution oracle to triage the
//!   first violating step;
//! * [`pretty`] — rendering in the paper's notation;
//! * [`ablation`] — the measurable version of §2.2.1's S-vs-M argument.
//!
//! # Examples
//!
//! Run a tiny λGC program:
//!
//! ```
//! use ps_gc_lang::machine::{Machine, Outcome, Program, SubstMachine};
//! use ps_gc_lang::memory::MemConfig;
//! use ps_gc_lang::syntax::{Dialect, Term, Value};
//!
//! let program = Program {
//!     dialect: Dialect::Basic,
//!     code: vec![],
//!     main: Term::Halt(Value::Int(42)),
//! };
//! let mut m = SubstMachine::load(&program, MemConfig::default());
//! assert_eq!(m.run(10).unwrap(), Outcome::Halted(42));
//! ```

#![forbid(unsafe_code)]

pub mod ablation;
pub mod bytecode;
pub mod env_machine;
pub mod error;
pub mod faults;
pub mod intern;
pub mod machine;
pub mod memory;
pub mod moper;
pub mod parse;
pub mod pretty;
pub mod reference;
pub mod snapshot;
pub mod subst;
pub mod supervisor;
pub mod syntax;
pub mod tags;
pub mod telemetry;
pub mod tyck;
pub mod verify;
pub mod wf;
