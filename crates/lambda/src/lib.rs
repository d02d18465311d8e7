//! # ps-lambda — the source language
//!
//! The simply typed λ-calculus that *Principled Scavenging* compiles and
//! garbage-collects (§3), fleshed out with integers, `if0`, pairs and
//! mutually recursive top-level functions so that mutators can compute.
//!
//! * [`syntax`] — AST,
//! * [`parse`] — an ML-flavoured surface syntax,
//! * [`typecheck`] — a synthesis-directed checker,
//! * [`eval`] — the reference evaluator (the observational oracle for the
//!   whole compilation pipeline).
//!
//! # Examples
//!
//! ```
//! let p = ps_lambda::parse::parse_program(
//!     "fun double (x : int) : int = x + x\n double 21",
//! )
//! .unwrap();
//! ps_lambda::typecheck::check_program(&p).unwrap();
//! assert_eq!(ps_lambda::eval::run_program(&p, 1000).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]

pub mod eval;
pub mod parse;
pub mod print;
pub mod syntax;
pub mod typecheck;
