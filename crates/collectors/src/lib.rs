//! # ps-collectors — the type-safe collectors, as λGC programs
//!
//! The paper's central artifact: garbage collectors written *inside* the
//! type-safe language λGC, certified by an ordinary typechecker rather than
//! trusted. This crate constructs them as λGC ASTs:
//!
//! * [`basic`] — the stop-and-copy collector of Fig. 12 (the executable CPS
//!   and closure-converted form of Fig. 4);
//! * `forwarding` — Fig. 9's collector with efficient forwarding pointers
//!   (our CPS conversion of it);
//! * `generational` — Fig. 11's generational collector (CPS-converted),
//!   plus the full-collection companion §8 alludes to;
//! * [`meta`] — an *untyped* meta-level copying collector operating
//!   directly on the machine state: the trusted-GC baseline the paper
//!   argues against, the sharing-preserving foil of `examples/sharing.rs`.

#![forbid(unsafe_code)]

pub mod basic;
pub mod cont;
pub mod forwarding;
pub mod generational;
pub mod major;
pub mod meta;

use ps_gc_lang::syntax::{CodeDef, Dialect};

/// A collector compiled to λGC code, ready to be installed at the front of
/// the `cd` region.
#[derive(Clone, Debug)]
pub struct CollectorImage {
    /// The λGC dialect the collector is written in, which is the dialect
    /// a mutator must be translated into to link with it.
    pub dialect: Dialect,
    /// The collector's code blocks (install at cd offsets `0..len`).
    pub code: Vec<CodeDef>,
    /// Offset of the `gc` entry point within `code`.
    pub gc_entry: u32,
}
