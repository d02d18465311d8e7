//! Workspace façade re-exports.

#![forbid(unsafe_code)]

pub use scavenger::*;
