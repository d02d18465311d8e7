//! Shared compiler infrastructure for the Principled Scavenging reproduction.
//!
//! This crate provides the machinery every calculus in the workspace
//! needs:
//!
//! * [`Symbol`] — cheap interned identifiers with a global `gensym` for
//!   generating fresh binders during CPS conversion, closure conversion and
//!   capture-avoiding substitution.
//! * [`scope`] — the one insert/restore step with which every pass keeps a
//!   single scoped environment instead of copying it at each binder.
//! * [`doc`] — a small Wadler-style pretty-printing library used to render
//!   λCLOS and λGC programs in a notation close to the paper's.
//!
//! # Examples
//!
//! ```
//! use ps_ir::Symbol;
//! let x = Symbol::intern("x");
//! assert_eq!(x.as_str(), "x");
//! let x1 = x.fresh();
//! assert_ne!(x, x1);
//! assert!(x1.as_str().starts_with("x%"));
//! ```

pub mod doc;
pub mod interner;
pub mod scope;
pub mod symbol;

pub use doc::Doc;
pub use interner::{ChunkedSlab, ConcurrentInterner, FxBuildHasher, FxHasher, PointerSlab};
pub use scope::{scoped, unbind_all, Scope};
pub use symbol::{Symbol, SymbolMap, SymbolSet};
