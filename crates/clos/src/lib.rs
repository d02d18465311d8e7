//! # ps-clos — λCLOS and the front-end conversions
//!
//! λCLOS (§3) is the language the paper starts its translation to λGC
//! from: closed CPS code with existential closures. This crate provides
//!
//! * [`syntax`] — the λCLOS AST (types are exactly λGC tags);
//! * [`tyck`] — the λCLOS typechecker;
//! * [`eval`] — a tail-call evaluator (the mid-pipeline oracle);
//! * [`cps`] — one-pass CPS conversion (source → source);
//! * [`cc`] — typed closure conversion (CPS'd source → λCLOS) using
//!   existential packages rather than Wang–Appel's whole-program
//!   defunctionalization.
//!
//! # Examples
//!
//! ```
//! let p = ps_lambda::parse::parse_program(
//!     "fun double (x : int) : int = x + x\n double 21",
//! )
//! .unwrap();
//! let cps = ps_clos::cps::cps_program(&p).unwrap();
//! let clos = ps_clos::cc::cc_program(&cps).unwrap();
//! ps_clos::tyck::check_program(&clos).unwrap();
//! assert_eq!(ps_clos::eval::run_program(&clos, 100_000).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]

pub mod cc;
pub mod cps;
pub mod eval;
pub mod print;
pub mod syntax;
pub mod tyck;
