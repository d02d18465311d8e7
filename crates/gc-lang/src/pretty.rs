//! Pretty-printing of λGC in a notation close to the paper's figures.
//!
//! # Examples
//!
//! ```
//! use ps_gc_lang::pretty;
//! use ps_gc_lang::syntax::{Region, Tag, Ty};
//! let sigma = Ty::m(Region::cd(), Tag::prod(Tag::Int, Tag::Int));
//! assert_eq!(pretty::ty_to_string(&sigma), "M[cd](Int × Int)");
//! ```

use ps_ir::Doc;

use crate::syntax::{CodeDef, Op, Region, Tag, Term, Ty, Value};

fn rgn(r: &Region) -> Doc {
    Doc::text(r.to_string())
}

fn rgns(rs: &[Region]) -> Doc {
    Doc::join(rs.iter().map(rgn), Doc::text(", "))
}

/// Renders a tag.
pub fn tag(t: &Tag) -> Doc {
    tag_prec(t, 0)
}

fn tag_prec(t: &Tag, prec: u8) -> Doc {
    let d = match t {
        Tag::Var(x) => Doc::text(x.to_string()),
        Tag::AnyArrow(x) => Doc::text(format!("arrow({x})")),
        Tag::Int => Doc::text("Int"),
        Tag::Prod(a, b) => tag_prec(a, 2)
            .append(Doc::text(" × "))
            .append(tag_prec(b, 2)),
        Tag::Arrow(args) => Doc::text("(")
            .append(Doc::join(
                args.iter().map(|a| tag_prec(a, 0)),
                Doc::text(", "),
            ))
            .append(Doc::text(") → 0")),
        Tag::Exist(x, body) => Doc::text(format!("∃{x}.")).append(tag_prec(body, 1)),
        Tag::Lam(x, body) => Doc::text(format!("λ{x}.")).append(tag_prec(body, 1)),
        Tag::App(f, a) => tag_prec(f, 2).append(Doc::text(" ")).append(tag_prec(a, 3)),
    };
    let needs = match t {
        Tag::Prod(..) => prec >= 2,
        Tag::Exist(..) | Tag::Lam(..) => prec >= 1,
        Tag::App(..) => prec >= 3,
        _ => false,
    };
    if needs {
        Doc::text("(").append(d).append(Doc::text(")"))
    } else {
        d
    }
}

/// Renders a type.
pub fn ty(t: &Ty) -> Doc {
    ty_prec(t, 0)
}

fn ty_prec(t: &Ty, prec: u8) -> Doc {
    let d = match t {
        Ty::Int => Doc::text("int"),
        Ty::Prod(a, b) => ty_prec(a, 2).append(Doc::text(" × ")).append(ty_prec(b, 2)),
        Ty::Code { tvars, rvars, args } => {
            let tv = Doc::join(
                tvars.iter().map(|(t, k)| Doc::text(format!("{t}:{k}"))),
                Doc::text(", "),
            );
            let rv = Doc::join(
                rvars.iter().map(|r| Doc::text(r.to_string())),
                Doc::text(", "),
            );
            let ar = Doc::join(args.iter().map(|a| ty_prec(a, 0)), Doc::text(", "));
            Doc::text("∀[")
                .append(tv)
                .append(Doc::text("]["))
                .append(rv)
                .append(Doc::text("]("))
                .append(ar)
                .append(Doc::text(") → 0"))
        }
        Ty::ExistTag { tvar, kind, body } => {
            Doc::text(format!("∃{tvar}:{kind}.")).append(ty_prec(body, 1))
        }
        Ty::At(inner, r) => ty_prec(inner, 2).append(Doc::text(" at ")).append(rgn(r)),
        Ty::M(r, t) => Doc::text("M[")
            .append(rgn(r))
            .append(Doc::text("]("))
            .append(tag(t))
            .append(Doc::text(")")),
        Ty::C(f, o, t) => Doc::text("C[")
            .append(rgn(f))
            .append(Doc::text(", "))
            .append(rgn(o))
            .append(Doc::text("]("))
            .append(tag(t))
            .append(Doc::text(")")),
        Ty::MGen(y, o, t) => Doc::text("M[")
            .append(rgn(y))
            .append(Doc::text(", "))
            .append(rgn(o))
            .append(Doc::text("]("))
            .append(tag(t))
            .append(Doc::text(")")),
        Ty::Alpha(a) => Doc::text(a.to_string()),
        Ty::ExistAlpha {
            avar,
            regions,
            body,
        } => Doc::text(format!("∃{avar}:{{"))
            .append(rgns(regions))
            .append(Doc::text("}."))
            .append(ty_prec(body, 1)),
        Ty::Trans {
            tags,
            regions,
            args,
            rho,
        } => {
            let ts = Doc::join(tags.iter().map(|t| tag(t)), Doc::text(", "));
            let rv = Doc::join(
                regions.iter().map(|r| Doc::text(r.to_string())),
                Doc::text(", "),
            );
            let ar = Doc::join(args.iter().map(|a| ty_prec(a, 0)), Doc::text(", "));
            Doc::text("∀⟦")
                .append(ts)
                .append(Doc::text("⟧["))
                .append(rv)
                .append(Doc::text("]("))
                .append(ar)
                .append(Doc::text(") →"))
                .append(rgn(rho))
                .append(Doc::text(" 0"))
        }
        Ty::Left(a) => Doc::text("left ").append(ty_prec(a, 3)),
        Ty::Right(a) => Doc::text("right ").append(ty_prec(a, 3)),
        Ty::Sum(a, b) => Doc::text("left ")
            .append(ty_prec(a, 3))
            .append(Doc::text(" + right "))
            .append(ty_prec(b, 3)),
        Ty::ExistRgn { rvar, bound, body } => Doc::text(format!("∃{rvar}∈{{"))
            .append(rgns(bound))
            .append(Doc::text("}.("))
            .append(ty_prec(body, 0))
            .append(Doc::text(format!(" at {rvar})"))),
    };
    let needs = match t {
        Ty::Prod(..) | Ty::At(..) | Ty::Sum(..) | Ty::Left(..) | Ty::Right(..) => prec >= 2,
        Ty::ExistTag { .. } | Ty::ExistAlpha { .. } | Ty::Code { .. } | Ty::Trans { .. } => {
            prec >= 1
        }
        _ => false,
    };
    if needs {
        Doc::text("(").append(d).append(Doc::text(")"))
    } else {
        d
    }
}

/// Renders a value.
pub fn value(v: &Value) -> Doc {
    match v {
        Value::Int(n) => Doc::text(n.to_string()),
        Value::Var(x) => Doc::text(x.to_string()),
        Value::Addr(nu, l) => Doc::text(format!("{nu}.{l}")),
        Value::Pair(a, b) => Doc::text("(")
            .append(value(a))
            .append(Doc::text(", "))
            .append(value(b))
            .append(Doc::text(")")),
        Value::PackTag {
            tvar,
            kind,
            tag: t,
            val,
            body_ty,
        } => Doc::text(format!("⟨{tvar}:{kind} = "))
            .append(tag(t))
            .append(Doc::text(", "))
            .append(value(val))
            .append(Doc::text(" : "))
            .append(ty(body_ty))
            .append(Doc::text("⟩")),
        Value::PackAlpha {
            avar,
            regions,
            witness,
            val,
            body_ty,
        } => Doc::text(format!("⟨{avar}:{{"))
            .append(rgns(regions))
            .append(Doc::text("} = "))
            .append(ty(witness))
            .append(Doc::text(", "))
            .append(value(val))
            .append(Doc::text(" : "))
            .append(ty(body_ty))
            .append(Doc::text("⟩")),
        Value::PackRgn {
            rvar,
            witness,
            val,
            bound,
            body_ty,
        } => Doc::text(format!("⟨{rvar}∈{{"))
            .append(rgns(bound))
            .append(Doc::text("} = "))
            .append(rgn(witness))
            .append(Doc::text(", "))
            .append(value(val))
            .append(Doc::text(" : "))
            .append(ty(body_ty))
            .append(Doc::text("⟩")),
        Value::TagApp(f, ts, rs) => value(f)
            .append(Doc::text("⟦"))
            .append(Doc::join(ts.iter().map(|t| tag(t)), Doc::text(", ")))
            .append(Doc::text("; "))
            .append(rgns(rs))
            .append(Doc::text("⟧")),
        Value::Code(def) => Doc::text(format!("<code {}>", def.name)),
        Value::Inl(x) => Doc::text("inl ").append(value(x)),
        Value::Inr(x) => Doc::text("inr ").append(value(x)),
    }
}

/// Renders an operation.
pub fn op(o: &Op) -> Doc {
    match o {
        Op::Val(v) => value(v),
        Op::Proj(i, v) => Doc::text(format!("π{i} ")).append(value(v)),
        Op::Put(r, v) => Doc::text("put[")
            .append(rgn(r))
            .append(Doc::text("]"))
            .append(value(v)),
        Op::Get(v) => Doc::text("get ").append(value(v)),
        Op::Strip(v) => Doc::text("strip ").append(value(v)),
        Op::Prim(p, a, b) => value(a)
            .append(Doc::text(format!(" {p} ")))
            .append(value(b)),
    }
}

/// Renders a term.
pub fn term(e: &Term) -> Doc {
    match e {
        Term::App {
            f,
            tags,
            regions,
            args,
        } => value(f)
            .append(Doc::text("["))
            .append(Doc::join(tags.iter().map(|t| tag(t)), Doc::text(", ")))
            .append(Doc::text("]["))
            .append(rgns(regions))
            .append(Doc::text("]("))
            .append(Doc::join(args.iter().map(value), Doc::text(", ")))
            .append(Doc::text(")")),
        Term::Let { .. } => {
            let mut doc = Doc::nil();
            let mut cur = e;
            while let Term::Let { x, op: o, body } = cur {
                doc = doc
                    .append(Doc::group(
                        Doc::text(format!("let {x} = "))
                            .append(op(o))
                            .append(Doc::text(" in")),
                    ))
                    .append(Doc::hardline());
                cur = body;
            }
            doc.append(term(cur))
        }
        Term::Halt(v) => Doc::text("halt ").append(value(v)),
        Term::IfGc { rho, full, cont } => Doc::text("ifgc ")
            .append(rgn(rho))
            .append(Doc::text(" ("))
            .append(Doc::hardline().append(term(full)).nest(2))
            .append(Doc::hardline())
            .append(Doc::text(")"))
            .append(Doc::hardline())
            .append(term(cont)),
        Term::OpenTag { pkg, tvar, x, body } => Doc::text("open ")
            .append(value(pkg))
            .append(Doc::text(format!(" as ⟨{tvar}, {x}⟩ in")))
            .append(Doc::hardline())
            .append(term(body)),
        Term::OpenAlpha { pkg, avar, x, body } => Doc::text("openα ")
            .append(value(pkg))
            .append(Doc::text(format!(" as ⟨{avar}, {x}⟩ in")))
            .append(Doc::hardline())
            .append(term(body)),
        Term::OpenRgn { pkg, rvar, x, body } => Doc::text("openρ ")
            .append(value(pkg))
            .append(Doc::text(format!(" as ⟨{rvar}, {x}⟩ in")))
            .append(Doc::hardline())
            .append(term(body)),
        Term::LetRegion { rvar, body } => Doc::text(format!("let region {rvar} in"))
            .append(Doc::hardline())
            .append(term(body)),
        Term::Only { regions, body } => Doc::text("only {")
            .append(rgns(regions))
            .append(Doc::text("} in"))
            .append(Doc::hardline())
            .append(term(body)),
        Term::Typecase {
            tag: t,
            int_arm,
            arrow_arm,
            prod_arm,
            exist_arm,
        } => Doc::text("typecase ")
            .append(tag(t))
            .append(Doc::text(" of"))
            .append(
                Doc::hardline()
                    .append(Doc::text("int ⇒ ").append(term(int_arm)))
                    .append(Doc::hardline())
                    .append(Doc::text("λ ⇒ ").append(term(arrow_arm)))
                    .append(Doc::hardline())
                    .append(
                        Doc::text(format!("{} × {} ⇒ ", prod_arm.0, prod_arm.1))
                            .append(term(&prod_arm.2)),
                    )
                    .append(Doc::hardline())
                    .append(Doc::text(format!("∃{} ⇒ ", exist_arm.0)).append(term(&exist_arm.1)))
                    .nest(2),
            ),
        Term::IfLeft {
            x,
            scrut,
            left,
            right,
        } => Doc::text(format!("ifleft {x} = "))
            .append(value(scrut))
            .append(Doc::text(" then"))
            .append(Doc::hardline().append(term(left)).nest(2))
            .append(Doc::hardline())
            .append(Doc::text("else"))
            .append(Doc::hardline().append(term(right)).nest(2)),
        Term::Set { dst, src, body } => Doc::text("set ")
            .append(value(dst))
            .append(Doc::text(" := "))
            .append(value(src))
            .append(Doc::text(" ;"))
            .append(Doc::hardline())
            .append(term(body)),
        Term::Widen {
            x,
            from,
            to,
            tag: t,
            v,
            body,
        } => Doc::text(format!("let {x} = widen["))
            .append(rgn(from))
            .append(Doc::text(" → "))
            .append(rgn(to))
            .append(Doc::text("]["))
            .append(tag(t))
            .append(Doc::text("]("))
            .append(value(v))
            .append(Doc::text(") in"))
            .append(Doc::hardline())
            .append(term(body)),
        Term::IfReg { r1, r2, eq, ne } => Doc::text("ifreg (")
            .append(rgn(r1))
            .append(Doc::text(" = "))
            .append(rgn(r2))
            .append(Doc::text(") then"))
            .append(Doc::hardline().append(term(eq)).nest(2))
            .append(Doc::hardline())
            .append(Doc::text("else"))
            .append(Doc::hardline().append(term(ne)).nest(2)),
        Term::If0 {
            scrut,
            zero,
            nonzero,
        } => Doc::text("if0 ")
            .append(value(scrut))
            .append(Doc::text(" then"))
            .append(Doc::hardline().append(term(zero)).nest(2))
            .append(Doc::hardline())
            .append(Doc::text("else"))
            .append(Doc::hardline().append(term(nonzero)).nest(2)),
    }
}

/// Renders a code definition in `fix f[...][...](...)` style (Fig. 4/12).
pub fn code_def(def: &CodeDef) -> Doc {
    let tv = Doc::join(
        def.tvars.iter().map(|(t, k)| Doc::text(format!("{t}:{k}"))),
        Doc::text(", "),
    );
    let rv = Doc::join(
        def.rvars.iter().map(|r| Doc::text(r.to_string())),
        Doc::text(", "),
    );
    let ps = Doc::join(
        def.params
            .iter()
            .map(|(x, t)| Doc::text(format!("{x} : ")).append(ty(t))),
        Doc::text(", "),
    );
    Doc::text(format!("fix {}[", def.name))
        .append(tv)
        .append(Doc::text("]["))
        .append(rv)
        .append(Doc::text("]("))
        .append(ps)
        .append(Doc::text(")."))
        .append(Doc::hardline().append(term(&def.body)).nest(2))
}

/// Convenience: a tag rendered to a string at width 100.
pub fn tag_to_string(t: &Tag) -> String {
    tag(t).render(100)
}

/// Convenience: a type rendered to a string at width 100.
pub fn ty_to_string(t: &Ty) -> String {
    ty(t).render(100)
}

/// Convenience: a term rendered to a string at width 100.
pub fn term_to_string(e: &Term) -> String {
    term(e).render(100)
}

/// Convenience: a code definition rendered to a string at width 100.
pub fn code_def_to_string(d: &CodeDef) -> String {
    code_def(d).render(100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_ir::Symbol;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn tags_render() {
        assert_eq!(tag_to_string(&Tag::Int), "Int");
        assert_eq!(tag_to_string(&Tag::prod(Tag::Int, Tag::Int)), "Int × Int");
        assert_eq!(
            tag_to_string(&Tag::exist(s("t"), Tag::prod(Tag::Var(s("t")), Tag::Int))),
            "∃t.t × Int"
        );
        assert_eq!(tag_to_string(&Tag::arrow([Tag::Int])), "(Int) → 0");
    }

    #[test]
    fn types_render() {
        assert_eq!(ty_to_string(&Ty::Int.at(Region::cd())), "int at cd");
        assert_eq!(
            ty_to_string(&Ty::m(Region::Var(s("r1")), Tag::Var(s("t")))),
            "M[r1](t)"
        );
        assert_eq!(
            ty_to_string(&Ty::sum(Ty::Int, Ty::Int)),
            "left int + right int"
        );
    }

    #[test]
    fn terms_render() {
        let e = Term::let_(
            s("x"),
            Op::Val(Value::Int(1)),
            Term::Halt(Value::Var(s("x"))),
        );
        let out = term_to_string(&e);
        assert!(out.contains("let x = 1 in"));
        assert!(out.contains("halt x"));
    }

    #[test]
    fn code_defs_render_like_fig4() {
        let def = CodeDef {
            name: s("gc"),
            tvars: vec![(s("t"), crate::syntax::Kind::Omega)],
            rvars: vec![s("r1")],
            params: vec![(s("x"), Ty::m(Region::Var(s("r1")), Tag::Var(s("t"))).id())],
            body: Term::Halt(Value::Int(0)),
        };
        let out = code_def_to_string(&def);
        assert!(out.starts_with("fix gc[t:Ω][r1](x : M[r1](t))."));
    }

    #[test]
    fn values_render() {
        assert_eq!(value(&Value::inl(Value::Int(1))).render(80), "inl 1");
        assert_eq!(
            value(&Value::pair(Value::Int(1), Value::Int(2))).render(80),
            "(1, 2)"
        );
    }
}
