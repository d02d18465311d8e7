//! Checker-soundness fuzzing: randomly corrupt well-typed λGC programs
//! (swap regions, perturb tags, truncate argument lists, change projection
//! indices) and check the two sides of the soundness coin:
//!
//! * if the typechecker **accepts** the mutant, the machine must not get
//!   stuck (progress — the checker is *sound*);
//! * most mutants should be **rejected** (the checker is not vacuous;
//!   tracked as a sanity ratio, not an absolute).
//!
//! The interesting direction is the first: a bug in the typing rules that
//! accepts a bad program shows up here as a stuck machine.

use proptest::prelude::*;

use ps_gc_lang::faults::{FaultKind, FaultPlan};
use ps_gc_lang::machine::Machine;
use ps_gc_lang::memory::{GrowthPolicy, MemConfig};
use ps_gc_lang::syntax::{Op, Region, Tag, Term};
use ps_gc_lang::tyck::Checker;
use scavenger::{Backend, Collector, PipelineError, RunOptions};

/// One structural mutation, selected and located by the byte tape.
fn mutate_term(e: &Term, tape: &mut impl FnMut() -> u8) -> Term {
    // With probability ~1/4 mutate here; otherwise descend.
    if tape().is_multiple_of(4) {
        match (tape() % 4, e) {
            // Swap a projection index.
            (
                0,
                Term::Let {
                    x,
                    op: Op::Proj(i, v),
                    body,
                },
            ) => {
                return Term::Let {
                    x: *x,
                    op: Op::Proj(3 - i, v.clone()),
                    body: *body,
                }
            }
            // Retarget a put to another region in scope… approximated by
            // swapping its region for cd (always ill-typed) or keeping it.
            (
                1,
                Term::Let {
                    x,
                    op: Op::Put(_, v),
                    body,
                },
            ) => {
                return Term::Let {
                    x: *x,
                    op: Op::Put(Region::cd(), v.clone()),
                    body: *body,
                }
            }
            // Perturb an application's tag arguments.
            (
                2,
                Term::App {
                    f,
                    tags,
                    regions,
                    args,
                },
            ) if !tags.is_empty() => {
                let mut tags = tags.to_vec();
                tags[0] = Tag::Prod(tags[0], Tag::Int.id()).id();
                return Term::App {
                    f: f.clone(),
                    tags: tags.into(),
                    regions: regions.clone(),
                    args: args.clone(),
                };
            }
            // Drop an argument.
            (
                3,
                Term::App {
                    f,
                    tags,
                    regions,
                    args,
                },
            ) if !args.is_empty() => {
                let mut args = args.clone();
                args.pop();
                return Term::App {
                    f: f.clone(),
                    tags: tags.clone(),
                    regions: regions.clone(),
                    args,
                };
            }
            _ => {}
        }
    }
    match e {
        Term::Let { x, op, body } => Term::Let {
            x: *x,
            op: op.clone(),
            body: (mutate_term(body, tape)).into(),
        },
        Term::IfGc { rho, full, cont } => Term::IfGc {
            rho: *rho,
            full: (mutate_term(full, tape)).into(),
            cont: (mutate_term(cont, tape)).into(),
        },
        Term::If0 {
            scrut,
            zero,
            nonzero,
        } => Term::If0 {
            scrut: scrut.clone(),
            zero: (mutate_term(zero, tape)).into(),
            nonzero: (mutate_term(nonzero, tape)).into(),
        },
        Term::OpenTag { pkg, tvar, x, body } => Term::OpenTag {
            pkg: pkg.clone(),
            tvar: *tvar,
            x: *x,
            body: (mutate_term(body, tape)).into(),
        },
        Term::LetRegion { rvar, body } => Term::LetRegion {
            rvar: *rvar,
            body: (mutate_term(body, tape)).into(),
        },
        Term::Only { regions, body } => Term::Only {
            regions: regions.clone(),
            body: (mutate_term(body, tape)).into(),
        },
        other => other.clone(),
    }
}

const SRC: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 8)";

/// Every fault class, injected into every collector on both interpreter
/// backends, must be caught by the per-step audit: the run ends in
/// [`PipelineError::InvariantViolation`], never in a clean halt. (The
/// adversarial counterpart of the audited-clean-run battery test.)
#[test]
fn every_fault_class_is_detected_on_every_collector_and_backend() {
    for kind in FaultKind::ALL {
        for collector in Collector::ALL {
            for backend in Backend::ALL {
                // Ψ tracking upgrades the audit to the full Fig. 7
                // judgement, making every class detectable on every
                // dialect (flip-tag on λGC/λGCgen falls back to a value
                // smash that only Ψ conformance distinguishes).
                let opts = RunOptions::builder()
                    .collector(collector)
                    .backend(backend)
                    .budget(64)
                    .track_types(true)
                    .verify_every(1)
                    .inject(FaultPlan {
                        kind,
                        step: 20,
                        seed: 1,
                    })
                    .build();
                let compiled = opts.compile(SRC).expect("compiles");
                match compiled.run_with(&opts) {
                    Err(PipelineError::InvariantViolation(e)) => {
                        assert!(
                            !e.to_string().is_empty(),
                            "{kind}/{collector}/{backend}: empty violation"
                        );
                    }
                    other => {
                        panic!("{kind}/{collector}/{backend}: fault escaped the auditor: {other:?}")
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accepted_mutants_never_get_stuck(bytes in proptest::collection::vec(any::<u8>(), 4..64)) {
        let compiled = RunOptions::new(Collector::Basic)
            .compile(SRC)
            .expect("base program compiles");
        let mut program = compiled.program.clone();

        // Mutate one mutator block (never the collector: those are covered
        // by the broken_collectors suite) or the main term.
        let mut pos = 0usize;
        let mut tape = || {
            let b = bytes.get(pos).copied().unwrap_or(0);
            pos += 1;
            b
        };
        let n_collector = Collector::Basic.image().code.len();
        let choice = tape() as usize;
        let n_mutator = program.code.len() - n_collector;
        if n_mutator > 0 && choice % (n_mutator + 1) != n_mutator {
            let idx = n_collector + choice % n_mutator;
            let body = program.code[idx].body.clone();
            program.code[idx].body = mutate_term(&body, &mut tape);
        } else {
            program.main = mutate_term(&program.main.clone(), &mut tape);
        }

        match Checker::check_program(&program) {
            Err(_) => {
                // Rejected: fine (and the common case).
            }
            Ok(()) => {
                // Accepted: progress must hold. The mutation may change the
                // *result* (e.g. a swapped projection of an int×int pair is
                // still well typed) — soundness only promises no stuck
                // state. Every interpreter backend must agree on whatever
                // the mutant does, statistics included.
                let config = MemConfig {
                    region_budget: 64,
                    growth: GrowthPolicy::Adaptive,
                    track_types: false,
                    max_heap_words: None,
                    page_words: 512,
                };
                let mut oracle: Box<dyn Machine> = Backend::Subst.load(&program, config);
                let oracle_outcome = oracle
                    .run(5_000_000)
                    .unwrap_or_else(|e| panic!("checker accepted a stuck program: {e}"));
                for backend in Backend::ALL {
                    if backend == Backend::Subst {
                        continue;
                    }
                    let mut m = backend.load(&program, config);
                    match m.run(5_000_000) {
                        Ok(o) => {
                            prop_assert_eq!(
                                &o, &oracle_outcome,
                                "{} disagrees on an accepted mutant", backend
                            );
                            prop_assert_eq!(
                                m.stats(), oracle.stats(),
                                "{} stats disagree", backend
                            );
                        }
                        Err(e) => prop_assert!(
                            false,
                            "{backend} backend stuck on an accepted program: {e}"
                        ),
                    }
                }
            }
        }
    }
}
