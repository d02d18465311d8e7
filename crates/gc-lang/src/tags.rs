//! The tag language: kinding (`Θ ⊢ τ : κ`, Fig. 6) and normalization.
//!
//! Tags form a simply typed λ-calculus over the kinds `Ω` and `Ω → Ω`
//! (Fig. 2), so reduction of well-kinded tags is strongly normalizing and
//! confluent — Propositions 6.1 and 6.2 of the paper. [`normalize`] computes
//! the (unique) normal form by normal-order reduction; the property tests in
//! this module check confluence by comparing against an applicative-order
//! strategy.

use std::collections::HashMap;
use std::sync::Arc;

use ps_ir::Symbol;

use crate::error::{kind_err, Result};
use crate::intern::{self, intern_tag, TagId};
use crate::subst::Subst;
use crate::syntax::{Kind, Tag};

/// The tag kinding judgement `Θ ⊢ τ : κ` (Fig. 6, top-left block).
///
/// # Errors
///
/// Returns a kinding error for unbound variables, ill-kinded applications,
/// or tag functions whose body is not of kind `Ω`.
pub fn kind_of(tau: &Tag, theta: &HashMap<Symbol, Kind>) -> Result<Kind> {
    match tau {
        Tag::Var(t) => theta
            .get(t)
            .copied()
            .ok_or_else(|| kind_err(format!("unbound tag variable {t}"))),
        Tag::AnyArrow(_) => Ok(Kind::Omega),
        Tag::Int => Ok(Kind::Omega),
        Tag::Prod(a, b) => {
            expect_omega(a, theta)?;
            expect_omega(b, theta)?;
            Ok(Kind::Omega)
        }
        Tag::Arrow(args) => {
            for a in args.iter() {
                expect_omega(a, theta)?;
            }
            Ok(Kind::Omega)
        }
        Tag::Exist(t, body) => {
            let mut theta2 = theta.clone();
            theta2.insert(*t, Kind::Omega);
            match kind_of(body, &theta2)? {
                Kind::Omega => Ok(Kind::Omega),
                k => Err(kind_err(format!(
                    "existential body has kind {k}, expected Ω"
                ))),
            }
        }
        Tag::Lam(t, body) => {
            let mut theta2 = theta.clone();
            theta2.insert(*t, Kind::Omega);
            match kind_of(body, &theta2)? {
                Kind::Omega => Ok(Kind::Arrow),
                k => Err(kind_err(format!(
                    "tag function body has kind {k}, expected Ω"
                ))),
            }
        }
        Tag::App(f, a) => {
            match kind_of(f, theta)? {
                Kind::Arrow => {}
                k => return Err(kind_err(format!("applied tag has kind {k}, expected Ω→Ω"))),
            }
            expect_omega(a, theta)?;
            Ok(Kind::Omega)
        }
    }
}

fn expect_omega(tau: &Tag, theta: &HashMap<Symbol, Kind>) -> Result<()> {
    match kind_of(tau, theta)? {
        Kind::Omega => Ok(()),
        k => Err(kind_err(format!("tag has kind {k}, expected Ω"))),
    }
}

/// Checks `Θ ⊢ τ : κ` for an expected kind.
pub fn check_kind(tau: &Tag, theta: &HashMap<Symbol, Kind>, expected: Kind) -> Result<()> {
    let k = kind_of(tau, theta)?;
    if k == expected {
        Ok(())
    } else {
        Err(kind_err(format!("tag has kind {k}, expected {expected}")))
    }
}

/// Normalizes a tag by normal-order β-reduction.
///
/// Well-kinded tags always terminate (Prop. 6.1); ill-kinded self-applications
/// would diverge, so callers must kind-check first — which every judgement in
/// this crate does.
///
/// The result is memoized per interned node ([`normalize_id`]), so repeated
/// normalization of a shared subtree is a table lookup.
pub fn normalize(tau: &Tag) -> Tag {
    normalize_id(tau.id()).0.node().clone()
}

/// Like [`normalize`] but counts β-steps, for the E7 benchmark. The memo
/// stores the per-subtree step count, so counted callers see identical
/// numbers whether or not the work was cached.
pub fn normalize_counted(tau: &Tag, steps: &mut u64) -> Tag {
    let (nf, n) = normalize_id(tau.id());
    *steps += n;
    nf.node().clone()
}

/// Memoized normal-order normalization by id: returns the normal form and
/// the number of β-steps the (uncached) reduction performs.
pub fn normalize_id(id: TagId) -> (TagId, u64) {
    if let Some(hit) = intern::tag_norm_lookup(id) {
        return hit;
    }
    let (nf, steps) = match id.node() {
        Tag::Var(_) | Tag::Int | Tag::AnyArrow(_) => (id, 0),
        Tag::Prod(a, b) => {
            let (na, ca) = normalize_id(*a);
            let (nb, cb) = normalize_id(*b);
            (intern_tag(Tag::Prod(na, nb)), ca + cb)
        }
        Tag::Arrow(args) => {
            let mut count = 0;
            let nargs: Arc<[TagId]> = args
                .iter()
                .map(|a| {
                    let (na, ca) = normalize_id(*a);
                    count += ca;
                    na
                })
                .collect();
            (intern_tag(Tag::Arrow(nargs)), count)
        }
        Tag::Exist(t, body) => {
            let (nb, cb) = normalize_id(*body);
            (intern_tag(Tag::Exist(*t, nb)), cb)
        }
        Tag::Lam(t, body) => {
            let (nb, cb) = normalize_id(*body);
            (intern_tag(Tag::Lam(*t, nb)), cb)
        }
        Tag::App(f, a) => {
            let (nf, cf) = normalize_id(*f);
            match nf.node() {
                Tag::Lam(t, body) => {
                    let reduced = Subst::one_tag(*t, a.node().clone()).tag(body.node());
                    let (nr, cr) = normalize_id(reduced.id());
                    (nr, cf + 1 + cr)
                }
                _ => {
                    let (na, ca) = normalize_id(*a);
                    (intern_tag(Tag::App(nf, na)), cf + ca)
                }
            }
        }
    };
    intern::tag_norm_insert(id, nf, steps);
    (nf, steps)
}

/// Is the tag in *tagnf* (Fig. 2's `τ′` grammar — no β-redexes)?
pub fn is_normal(tau: &Tag) -> bool {
    match tau {
        Tag::Var(_) | Tag::Int | Tag::AnyArrow(_) => true,
        Tag::Prod(a, b) => is_normal(a) && is_normal(b),
        Tag::Arrow(args) => args.iter().all(|a| is_normal(a)),
        Tag::Exist(_, body) | Tag::Lam(_, body) => is_normal(body),
        Tag::App(f, a) => !matches!(**f, Tag::Lam(..)) && is_normal(f) && is_normal(a),
    }
}

/// How [`equiv`] compares two tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Equiv {
    /// Compare as written, up to α-renaming of binders. Use when both sides
    /// are already in normal form (or when redexes must be distinguished).
    Syntactic,
    /// β-normalize both sides first — definitional equality. This is what
    /// the typing rules mean by `τ₁ = τ₂`.
    Normalizing,
}

/// The single equality entry point for tags.
///
/// Both modes reduce to an integer compare of α-canonical ids
/// ([`crate::intern::canon_tag`]); `Normalizing` additionally sends each
/// side through the (memoized) normalizer first. [`tag_eq`] and
/// [`alpha_eq`] are thin wrappers fixing the mode.
pub fn equiv(a: &Tag, b: &Tag, mode: Equiv) -> bool {
    equiv_id(a.id(), b.id(), mode)
}

/// [`equiv`] on interned ids.
pub fn equiv_id(a: TagId, b: TagId, mode: Equiv) -> bool {
    let (a, b) = match mode {
        Equiv::Syntactic => (a, b),
        Equiv::Normalizing => (normalize_id(a).0, normalize_id(b).0),
    };
    intern::tag_alpha_eq(a, b)
}

/// α-equivalence of tags (no normalization): `equiv(_, _, Syntactic)`.
pub fn alpha_eq(a: &Tag, b: &Tag) -> bool {
    equiv(a, b, Equiv::Syntactic)
}

/// Tag equality: normalize then compare up to α —
/// `equiv(_, _, Normalizing)`.
pub fn tag_eq(a: &Tag, b: &Tag) -> bool {
    equiv(a, b, Equiv::Normalizing)
}

/// The size of a tag (number of constructors), used for benchmarks and
/// generator bounds.
pub fn tag_size(tau: &Tag) -> usize {
    match tau {
        Tag::Var(_) | Tag::Int | Tag::AnyArrow(_) => 1,
        Tag::Prod(a, b) | Tag::App(a, b) => 1 + tag_size(a) + tag_size(b),
        Tag::Arrow(args) => 1 + args.iter().map(|a| tag_size(a)).sum::<usize>(),
        Tag::Exist(_, body) | Tag::Lam(_, body) => 1 + tag_size(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn omega_env() -> HashMap<Symbol, Kind> {
        let mut m = HashMap::new();
        m.insert(s("t"), Kind::Omega);
        m.insert(s("te"), Kind::Arrow);
        m
    }

    #[test]
    fn int_has_kind_omega() {
        assert_eq!(kind_of(&Tag::Int, &HashMap::new()).unwrap(), Kind::Omega);
    }

    #[test]
    fn unbound_variable_fails() {
        assert!(kind_of(&Tag::Var(s("nope")), &HashMap::new()).is_err());
    }

    #[test]
    fn lambda_has_arrow_kind() {
        let tau = Tag::lam(s("u"), Tag::prod(Tag::Var(s("u")), Tag::Int));
        assert_eq!(kind_of(&tau, &HashMap::new()).unwrap(), Kind::Arrow);
    }

    #[test]
    fn application_checks_operand() {
        let env = omega_env();
        let good = Tag::app(Tag::Var(s("te")), Tag::Int);
        assert_eq!(kind_of(&good, &env).unwrap(), Kind::Omega);
        let bad = Tag::app(Tag::Var(s("t")), Tag::Int);
        assert!(kind_of(&bad, &env).is_err());
        let bad2 = Tag::app(Tag::Var(s("te")), Tag::Var(s("te")));
        assert!(kind_of(&bad2, &env).is_err());
    }

    #[test]
    fn exist_binds_omega() {
        let tau = Tag::exist(s("u"), Tag::Var(s("u")));
        assert_eq!(kind_of(&tau, &HashMap::new()).unwrap(), Kind::Omega);
    }

    #[test]
    fn no_higher_kinds() {
        // λu. λv. u is not expressible: the inner λ has kind Ω→Ω ≠ Ω.
        let tau = Tag::lam(s("u"), Tag::lam(s("v"), Tag::Var(s("u"))));
        assert!(kind_of(&tau, &HashMap::new()).is_err());
    }

    #[test]
    fn beta_reduction() {
        let id = Tag::id_fn();
        let tau = Tag::app(id, Tag::Int);
        assert_eq!(normalize(&tau), Tag::Int);
    }

    #[test]
    fn reduction_under_constructors() {
        let tau = Tag::prod(Tag::app(Tag::id_fn(), Tag::Int), Tag::Int);
        assert_eq!(normalize(&tau), Tag::prod(Tag::Int, Tag::Int));
    }

    #[test]
    fn neutral_applications_stay() {
        let env = omega_env();
        let tau = Tag::app(Tag::Var(s("te")), Tag::Int);
        check_kind(&tau, &env, Kind::Omega).unwrap();
        assert_eq!(normalize(&tau), tau);
        assert!(is_normal(&tau));
    }

    #[test]
    fn normal_form_detection() {
        assert!(is_normal(&Tag::Int));
        assert!(!is_normal(&Tag::app(Tag::id_fn(), Tag::Int)));
        // A redex under a binder is not normal.
        let tau = Tag::lam(s("u"), Tag::app(Tag::id_fn(), Tag::Var(s("u"))));
        assert!(!is_normal(&tau));
        assert!(is_normal(&normalize(&tau)));
    }

    #[test]
    fn alpha_equivalence() {
        let a = Tag::lam(s("u"), Tag::Var(s("u")));
        let b = Tag::lam(s("v"), Tag::Var(s("v")));
        assert!(alpha_eq(&a, &b));
        let c = Tag::lam(s("u"), Tag::Int);
        assert!(!alpha_eq(&a, &c));
    }

    #[test]
    fn alpha_eq_respects_shadowing() {
        // λu.λ... not expressible; use exist nesting instead.
        let a = Tag::exist(
            s("u"),
            Tag::exist(s("v"), Tag::prod(Tag::Var(s("u")), Tag::Var(s("v")))),
        );
        let b = Tag::exist(
            s("v"),
            Tag::exist(s("u"), Tag::prod(Tag::Var(s("v")), Tag::Var(s("u")))),
        );
        assert!(alpha_eq(&a, &b));
        let c = Tag::exist(
            s("v"),
            Tag::exist(s("u"), Tag::prod(Tag::Var(s("u")), Tag::Var(s("v")))),
        );
        assert!(!alpha_eq(&a, &c));
    }

    #[test]
    fn tag_eq_normalizes() {
        let a = Tag::app(Tag::id_fn(), Tag::prod(Tag::Int, Tag::Int));
        let b = Tag::prod(Tag::Int, Tag::Int);
        assert!(tag_eq(&a, &b));
    }

    #[test]
    fn normalization_counts_steps() {
        let mut steps = 0;
        let tau = Tag::app(Tag::id_fn(), Tag::app(Tag::id_fn(), Tag::Int));
        normalize_counted(&tau, &mut steps);
        assert_eq!(steps, 2);
        // E7's β-chains `id (id (… (id τ)))`: one β-step per redex.
        let inner = Tag::prod(Tag::Int, Tag::Int);
        for n in [8, 64, 512] {
            let chain = (0..n).fold(inner.clone(), |t, _| Tag::app(Tag::id_fn(), t));
            let mut steps = 0;
            assert_eq!(normalize_counted(&chain, &mut steps), inner);
            assert_eq!(steps, n, "{n}-redex chain");
        }
    }

    #[test]
    fn exist_analysis_shape() {
        // The tag ∃t.τ decomposes in the machine as λt.τ applied to the
        // witness; check the pieces normalize as expected.
        let t = s("w");
        let body = Tag::prod(Tag::Var(t), Tag::Int);
        let lam = Tag::lam(t, body.clone());
        let applied = Tag::app(lam, Tag::Int);
        assert_eq!(normalize(&applied), Tag::prod(Tag::Int, Tag::Int));
    }
}
