//! The benchmark's workloads, generated from a seed.
//!
//! There is no user traffic to replay, so the workloads are the paper-claim
//! programs of `scavenger::workloads` (each tuned into one collector or
//! mutator regime) plus a compile stress test. The seed picks the integer
//! constants the programs compute with, so different seeds give different
//! inputs and results. Sizes do not depend on the seed: literals are
//! unboxed words, so steps and heap shape are the same on every seed, and
//! the spread of a timing across seeds is the machine's noise alone.

use scavenger::lambda::syntax::{Expr, SrcProgram};
use scavenger::workloads::{live_dag_churn, live_tree_churn};
use scavenger::Collector;

/// Every workload, in the order a full set runs them.
pub const NAMES: [&str; 5] = [
    "gc-tree",
    "mutator",
    "dag-forwarding",
    "gc-generational",
    "compile",
];

/// The property a workload exists to exercise. A sample whose run leaves
/// the regime measured the wrong thing, so it counts as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Collector steps are at least half of all machine steps.
    CollectorBound,
    /// No collection runs at all: the heap only grows.
    NoCollections,
    /// The forwarding collector installs forwarding pointers.
    Forwarding,
    /// Minor collections promote into the old generation.
    Promoting,
    /// No run-time regime (the compile workload).
    Any,
}

/// One source program of a workload, the collector it is linked with, and
/// the base region budget it runs under (with adaptive growth).
#[derive(Clone, Debug)]
pub struct Program {
    pub source: String,
    pub collector: Collector,
    pub budget: usize,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub regime: Regime,
    pub programs: Vec<Program>,
}

/// Builds the named workload for `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    let mut rng = Rng::new(seed, name);
    let churn = |rng: &mut Rng, p: SrcProgram, collector, budget| Program {
        source: canonical_names(&scavenger::lambda::print::program(&SrcProgram {
            main: reseed(&p.main, rng),
            defs: p.defs,
        })),
        collector,
        budget,
    };
    let (regime, programs) = match name {
        // A 511-cell live tree copied by the basic collector at a budget
        // small enough that about 70% of all steps are collector steps.
        "gc-tree" => {
            let p = live_tree_churn(9, 2000);
            (
                Regime::CollectorBound,
                vec![churn(&mut rng, p, Collector::Basic, 1120)],
            )
        }
        // The same mutator, longer, under a budget it never fills: dispatch
        // and fresh-value interning do all the work and nothing is freed.
        "mutator" => {
            let p = live_tree_churn(9, 10_000);
            (
                Regime::NoCollections,
                vec![churn(&mut rng, p, Collector::Basic, 1 << 26)],
            )
        }
        // A shared DAG under the forwarding collector: `set` writes sit
        // beside reads in the page store.
        "dag-forwarding" => {
            let p = live_dag_churn(10, 1500);
            (
                Regime::Forwarding,
                vec![churn(&mut rng, p, Collector::Forwarding, 1120)],
            )
        }
        // Minor collections promote the tree into an old generation whose
        // pages are never freed.
        "gc-generational" => {
            let p = live_tree_churn(9, 2000);
            (
                Regime::Promoting,
                vec![churn(&mut rng, p, Collector::Generational, 1120)],
            )
        }
        "compile" => (Regime::Any, compile_programs(&mut rng)),
        _ => unreachable!("NAMES lists every workload"),
    };
    Some(Workload {
        name,
        regime,
        programs,
    })
}

/// Replaces the integer literals that are data (pair components and
/// `let`-bound constants) with seeded values. Literals are unboxed words,
/// so the step count and heap shape do not change; the result does.
fn reseed(e: &Expr, rng: &mut Rng) -> Expr {
    let data = |e: &Expr, rng: &mut Rng| match e {
        Expr::Int(_) => Expr::Int(rng.range(1, 999)),
        other => reseed(other, rng),
    };
    match e {
        Expr::Pair(a, b) => {
            let a = data(a, rng);
            Expr::pair(a, data(b, rng))
        }
        Expr::Let { x, rhs, body } => {
            let rhs = data(rhs, rng);
            Expr::let_(*x, rhs, reseed(body, rng))
        }
        Expr::Bin(op, a, b) => Expr::Bin(*op, reseed(a, rng).into(), reseed(b, rng).into()),
        Expr::If0(c, t, f) => Expr::If0(
            reseed(c, rng).into(),
            reseed(t, rng).into(),
            reseed(f, rng).into(),
        ),
        Expr::Proj(i, a) => Expr::Proj(*i, reseed(a, rng).into()),
        Expr::Lam {
            param,
            param_ty,
            body,
        } => Expr::Lam {
            param: *param,
            param_ty: param_ty.clone(),
            body: reseed(body, rng).into(),
        },
        Expr::App(f, a) => Expr::app(reseed(f, rng), reseed(a, rng)),
        Expr::Int(_) | Expr::Var(_) => e.clone(),
    }
}

/// Renumbers the printed gensym suffixes (`_g<n>`) in order of first
/// appearance. The builders draw names from a process-wide counter, so
/// without this the same seed would print differently depending on what
/// the process built before.
fn canonical_names(src: &str) -> String {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(at) = rest.find("_g") {
        let digits = rest[at + 2..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len() - at - 2);
        let (head, tail) = rest.split_at(at + 2 + digits);
        out.push_str(&head[..at]);
        if digits == 0 {
            out.push_str("_g");
        } else {
            let n = &head[at..];
            let id = seen.iter().position(|s| *s == n).unwrap_or_else(|| {
                seen.push(n);
                seen.len() - 1
            });
            out.push_str(&format!("_g{id}"));
        }
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// Small kernels, each a `{c}`-parameterised source text: the constant
/// changes the result but not the amount of work.
const KERNELS: [&str; 10] = [
    // fib
    "fun fib (n : int) : int = if0 n then 0 else if0 n - 1 then 1 else fib (n - 1) + fib (n - 2)\n\
     fib 8 + {c}",
    // Ackermann on a pair argument
    "fun ack (p : int * int) : int =\n\
       if0 fst p then snd p + 1\n\
       else if0 snd p then ack (fst p - 1, 1)\n\
       else ack (fst p - 1, ack (fst p, snd p - 1))\n\
     ack (2, 2) + {c}",
    // list-sum over closure-encoded lists
    "fun cons (p : int * (int -> int)) : int -> int = fn (i : int) => if0 i then fst p else (snd p) (i - 1)\n\
     fun nil (i : int) : int = 0\n\
     fun build (n : int) : int -> int = if0 n then nil else cons (n + {c}, build (n - 1))\n\
     fun sum (p : (int -> int) * int) : int = if0 snd p then 0 else (fst p) (snd p - 1) + sum (fst p, snd p - 1)\n\
     sum (build 8, 8)",
    // higher-order: function composition and iteration
    "fun compose (p : (int -> int) * (int -> int)) : int -> int = fn (x : int) => (fst p) ((snd p) x)\n\
     fun iter (p : int * (int -> int)) : int -> int = if0 fst p then fn (x : int) => x else compose (snd p, iter (fst p - 1, snd p))\n\
     fun inc (x : int) : int = x + {c}\n\
     iter (10, inc) 1",
    // twice twice
    "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
     fun dbl (x : int) : int = x + x\n\
     twice (twice (twice dbl)) {c}",
    // factorial
    "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n\
     fact 12 + {c}",
    // mutual recursion
    "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
     fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
     even 30 + {c}",
    // accumulator loop over a pair state
    "fun loop (s : int * int) : int = if0 fst s then snd s else loop (fst s - 1, snd s * 3 + {c})\n\
     loop (20, 1)",
    // curried arithmetic through closures
    "fun add (x : int) : int -> int = fn (y : int) => x + y\n\
     fun apply (p : (int -> int) * int) : int = (fst p) (snd p)\n\
     fun go (n : int) : int = if0 n then {c} else apply (add n, go (n - 1))\n\
     go 12",
    // a small fixed-depth tree consumed by projections
    "fun mk (x : int) : (int * int) * (int * int) = ((x, x + 1), (x + 2, x + 3))\n\
     fun tsum (t : (int * int) * (int * int)) : int = fst (fst t) + snd (fst t) + fst (snd t) + snd (snd t)\n\
     fun rep (n : int) : int = if0 n then 0 else tsum (mk n) + rep (n - 1)\n\
     rep 8 + {c}",
];

/// Bindings in the `let`-chain program. The front end is superlinear in
/// it, and it stays well below the depth where the recursive passes
/// overflow the main thread's stack.
const CHAIN_BINDINGS: i64 = 400;

/// Top-level functions in the many-function program; certification cost
/// grows with the code blocks they become.
const FUNCTIONS: i64 = 150;

/// The compile workload: every kernel plus one long `let` chain and one
/// many-function program, linked with the collectors in turn, so each
/// collector is translated and certified with several programs. (Linking
/// every program with every collector tripled a sample to about 0.7 s, and
/// the few samples a run then held left its medians 8–14% apart across
/// seeds.)
fn compile_programs(rng: &mut Rng) -> Vec<Program> {
    let mut sources: Vec<String> = KERNELS
        .iter()
        .map(|k| k.replace("{c}", &rng.range(1, 99).to_string()))
        .collect();

    let mut chain = format!("let x0 = {} in\n", rng.range(1, 99));
    for i in 1..=CHAIN_BINDINGS {
        let op = ["+", "-", "*"][(i % 3) as usize];
        let c = if op == "*" { 1 } else { rng.range(1, 9) };
        chain.push_str(&format!("let x{i} = x{} {op} {c} in\n", i - 1));
    }
    chain.push_str(&format!("x{CHAIN_BINDINGS}"));
    sources.push(chain);

    let mut funcs = String::new();
    for i in 0..FUNCTIONS {
        funcs.push_str(&format!(
            "fun f{i} (x : int) : int = f{} (x + {})\n",
            i + 1,
            rng.range(1, 9)
        ));
    }
    funcs.push_str(&format!(
        "fun f{FUNCTIONS} (x : int) : int = x\nf0 {}",
        rng.range(1, 99)
    ));
    sources.push(funcs);

    sources
        .into_iter()
        .zip(Collector::ALL.into_iter().cycle())
        .map(|(source, collector)| Program {
            source,
            collector,
            budget: 256,
        })
        .collect()
}

/// SplitMix64: a tiny deterministic generator, so the inputs depend only on
/// the seed and the workload name.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, salt: &str) -> Rng {
        let mut rng = Rng(seed);
        for b in salt.bytes() {
            rng.0 ^= u64::from(b);
            rng.next();
        }
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_parses_typechecks_and_evaluates() {
        for name in NAMES {
            let w = build(name, 1).unwrap();
            for p in &w.programs {
                let src = scavenger::lambda::parse::parse_program(&p.source)
                    .unwrap_or_else(|e| panic!("{name}: {e}\n{}", p.source));
                scavenger::lambda::typecheck::check_program(&src)
                    .unwrap_or_else(|e| panic!("{name}: {e}\n{}", p.source));
            }
        }
    }

    #[test]
    fn the_seed_changes_inputs_and_nothing_else_does() {
        let a = build("gc-tree", 1).unwrap();
        let b = build("gc-tree", 1).unwrap();
        let c = build("gc-tree", 2).unwrap();
        assert_eq!(a.programs[0].source, b.programs[0].source);
        assert_ne!(a.programs[0].source, c.programs[0].source);
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn the_seed_changes_only_integer_literals() {
        let shape = |src: &str| {
            src.split(|c: char| c.is_ascii_digit())
                .filter(|part| !part.is_empty())
                .collect::<Vec<_>>()
                .join("#")
        };
        for name in NAMES {
            let (a, b) = (build(name, 1).unwrap(), build(name, 2).unwrap());
            assert_eq!(a.programs.len(), b.programs.len(), "{name}");
            for (p, q) in a.programs.iter().zip(&b.programs) {
                assert_eq!(shape(&p.source), shape(&q.source), "{name}");
                assert_eq!((p.collector, p.budget), (q.collector, q.budget), "{name}");
            }
        }
    }
}
