//! Property tests for the tag calculus: Propositions 6.1 (strong
//! normalization) and 6.2 (confluence), plus substitution/kinding
//! metatheory.

use std::collections::HashMap;

use proptest::prelude::*;

use ps_gc_lang::intern::TagId;
use ps_gc_lang::subst::Subst;
use ps_gc_lang::syntax::{Kind, Tag};
use ps_gc_lang::tags::{self, Equiv};
use ps_ir::symbol::gensym;
use ps_ir::Symbol;

/// The normal form of `tag`.
fn nf(tag: &Tag) -> TagId {
    tags::normalize_id(tag.id()).0
}

fn alpha_eq(a: TagId, b: TagId) -> bool {
    tags::equiv_id(a, b, Equiv::Syntactic)
}

/// Generates a random *well-kinded* tag of kind Ω (with tag-function
/// redexes sprinkled in), from a byte tape.
fn gen_tag(bytes: &[u8], pos: &mut usize, env: &mut Vec<Symbol>, depth: u32) -> Tag {
    let next = |pos: &mut usize| {
        let b = bytes.get(*pos).copied().unwrap_or(0);
        *pos += 1;
        b
    };
    if depth == 0 {
        return if env.is_empty() || next(pos) % 2 == 0 {
            Tag::Int
        } else {
            let i = next(pos) as usize % env.len();
            Tag::Var(env[i])
        };
    }
    match next(pos) % 8 {
        0 | 1 => Tag::Int,
        2 => {
            if env.is_empty() {
                Tag::Int
            } else {
                let i = next(pos) as usize % env.len();
                Tag::Var(env[i])
            }
        }
        3 => Tag::prod(
            gen_tag(bytes, pos, env, depth - 1),
            gen_tag(bytes, pos, env, depth - 1),
        ),
        4 => Tag::arrow([gen_tag(bytes, pos, env, depth - 1)]),
        5 => {
            let t = gensym("pt");
            env.push(t);
            let body = gen_tag(bytes, pos, env, depth - 1);
            env.pop();
            Tag::exist(t, body)
        }
        // A β-redex: (λt.body) arg.
        _ => {
            let t = gensym("pt");
            env.push(t);
            let body = gen_tag(bytes, pos, env, depth - 1);
            env.pop();
            let arg = gen_tag(bytes, pos, env, depth - 1);
            Tag::app(Tag::lam(t, body), arg)
        }
    }
}

/// An *applicative-order* normalizer — a different strategy than the
/// crate's normal-order one. By confluence (Prop. 6.2) they must agree.
fn applicative_normalize(tau: &Tag) -> Tag {
    match tau {
        Tag::Var(_) | Tag::Int | Tag::AnyArrow(_) => tau.clone(),
        Tag::Prod(a, b) => Tag::prod(applicative_normalize(a), applicative_normalize(b)),
        Tag::Arrow(args) => Tag::arrow(
            args.iter()
                .map(|a| applicative_normalize(a))
                .collect::<Vec<_>>(),
        ),
        Tag::Exist(t, body) => Tag::exist(*t, applicative_normalize(body)),
        Tag::Lam(t, body) => Tag::lam(*t, applicative_normalize(body)),
        Tag::App(f, a) => {
            // Normalize the ARGUMENT first (the opposite of normal order).
            let a = applicative_normalize(a);
            let f = applicative_normalize(f);
            match f {
                Tag::Lam(t, body) => applicative_normalize(&Subst::one_tag(t, a).tag(body.node())),
                other => Tag::app(other, a),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated tags are well kinded at Ω.
    #[test]
    fn generated_tags_kind_check(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut pos = 0;
        let tag = gen_tag(&bytes, &mut pos, &mut Vec::new(), 4);
        prop_assert_eq!(
            tags::kind_of(&tag, &HashMap::new()).unwrap(),
            Kind::Omega
        );
    }

    /// Prop. 6.1: normalization terminates (implicitly — the call returns)
    /// and yields a normal form; normalization is idempotent.
    #[test]
    fn normalization_yields_normal_forms(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut pos = 0;
        let tag = gen_tag(&bytes, &mut pos, &mut Vec::new(), 4);
        let normal = nf(&tag);
        prop_assert!(tags::is_normal(&normal), "{normal:?}");
        prop_assert!(alpha_eq(nf(&normal), normal));
    }

    /// Prop. 6.2: confluence — normal-order and applicative-order
    /// strategies reach α-equal normal forms.
    #[test]
    fn normalization_is_confluent(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut pos = 0;
        let tag = gen_tag(&bytes, &mut pos, &mut Vec::new(), 4);
        let a = nf(&tag);
        let b = applicative_normalize(&tag);
        prop_assert!(alpha_eq(a, b.id()), "normal {a:?} vs applicative {b:?}");
    }

    /// Substitution commutes with normalization for closed ranges:
    /// `normalize(τ[σ/t]) == normalize(normalize(τ)[σ/t])`.
    #[test]
    fn substitution_commutes_with_normalization(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        bytes2 in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let t = gensym("ps");
        let mut pos = 0;
        let mut env = vec![t];
        let tau = gen_tag(&bytes, &mut pos, &mut env, 4);
        let mut pos2 = 0;
        let sigma = gen_tag(&bytes2, &mut pos2, &mut Vec::new(), 3);
        let lhs = nf(&Subst::one_tag(t, sigma.clone()).tag(&tau));
        let rhs = nf(&Subst::one_tag(t, sigma).tag(&nf(&tau)));
        prop_assert!(alpha_eq(lhs, rhs), "{lhs:?} vs {rhs:?}");
    }

    /// α-equivalence is preserved by normalization.
    #[test]
    fn alpha_eq_stable_under_renaming(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        let mut pos = 0;
        let tag = gen_tag(&bytes, &mut pos, &mut Vec::new(), 4);
        // Rename every binder by round-tripping through a substitution that
        // forces freshening.
        let renamed = Subst::new().tag(&tag);
        prop_assert!(alpha_eq(nf(&tag), nf(&renamed)));
    }
}
