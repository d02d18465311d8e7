//! The §2.2.1 ablation: asymmetric substitution-based `S` operators versus
//! the symmetric `M` operator.
//!
//! §2.2.1 ("A case for symmetry") explains why the naive Typerec
//! `S_{T,F}(σ)` — substitute region `T` for `F` — cannot work: each
//! collection wraps another `S` around the (abstract) type, and
//! `S_{ρ,T}(S_{T,F}(α))` is a normal form because `α` is abstract, so types
//! grow without bound. The paper's fix is the symmetric contract
//! `copy : ∀F.∀T.∀α.(S_F(α) → S_T(α))`, realized by the hard-wired `M`.
//!
//! This module makes that argument *measurable* (experiment E8): it models
//! both disciplines on an abstract mutator type and reports the type size
//! after `k` collections.

use crate::moper::ty_size;
use crate::syntax::{Region, RegionName, Tag, Ty};

/// A type under the *asymmetric* discipline of §2.2.1: the mutator's data
/// type as seen after some number of collections, with the pending `S`
/// operators that cannot reduce because the underlying type is abstract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SType {
    /// The abstract type `α` hidden in an existential (e.g. a closure
    /// environment) — the reason `S` cannot reduce.
    Abstract,
    /// `S_{to,from}(σ)` — substitute region `to` for `from` in `σ`, stuck
    /// until `σ` is concrete.
    S {
        from: Region,
        to: Region,
        inner: Box<SType>,
    },
}

impl SType {
    /// The size of the pending-operator tower.
    pub fn size(&self) -> usize {
        match self {
            SType::Abstract => 1,
            SType::S { inner, .. } => 1 + inner.size(),
        }
    }
}

/// One collection under the asymmetric discipline: from-space `from` is
/// evacuated to to-space `to`, wrapping another stuck `S`.
pub fn s_collect(ty: SType, from: Region, to: Region) -> SType {
    SType::S {
        from,
        to,
        inner: Box::new(ty),
    }
}

/// Runs `k` collections under the asymmetric discipline and returns the
/// type size after each collection (strictly increasing — the §2.2.1
/// problem).
pub fn s_growth(k: usize) -> Vec<usize> {
    let mut ty = SType::Abstract;
    let mut sizes = Vec::with_capacity(k);
    for i in 0..k {
        let from = Region::Name(RegionName(i as u32 + 1));
        let to = Region::Name(RegionName(i as u32 + 2));
        ty = s_collect(ty, from, to);
        sizes.push(ty.size());
    }
    sizes
}

/// Runs `k` collections under the paper's symmetric discipline — the data's
/// type is `M_ρ(t)` before and after every collection, with only the region
/// index changing — and returns the type size after each collection
/// (constant).
pub fn m_growth(k: usize) -> Vec<usize> {
    let t = ps_ir::Symbol::intern("t!abl");
    let mut sizes = Vec::with_capacity(k);
    for i in 0..k {
        let rho = Region::Name(RegionName(i as u32 + 2));
        let ty = Ty::m(rho, Tag::Var(t));
        sizes.push(ty_size(&ty));
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_discipline_grows_linearly() {
        let sizes = s_growth(64);
        assert_eq!(sizes.len(), 64);
        for (i, w) in sizes.windows(2).enumerate() {
            assert!(w[1] > w[0], "S tower must grow at step {i}");
        }
        // E8's table: the tower is k + 1 after k = 1 / 16 / 64 collections.
        assert_eq!([sizes[0], sizes[15], sizes[63]], [2, 17, 65]);
    }

    #[test]
    fn m_discipline_stays_constant() {
        // E8's table: `M_ρ(t)` has size 2 after every collection.
        assert_eq!(m_growth(64), vec![2; 64]);
    }

    #[test]
    fn s_tower_is_a_normal_form() {
        // S_{ρ,T}(S_{T,F}(α)) does not reduce: both layers persist.
        let f = Region::Name(RegionName(1));
        let t = Region::Name(RegionName(2));
        let rho = Region::Name(RegionName(3));
        let once = s_collect(SType::Abstract, f, t);
        let twice = s_collect(once.clone(), t, rho);
        assert_eq!(twice.size(), 3);
        match twice {
            SType::S { inner, .. } => assert_eq!(*inner, once),
            _ => panic!("expected stuck S"),
        }
    }
}
