//! Order pins for the two outputs whose order is visible to users.
//!
//! `:analyze` lists its `ifp` lines in `Expr::visit`'s pre-order, where a
//! λ body comes before the input it is mapped over; `free_vars` (the
//! `bases:` lines and a view's reads) lists the input before the body.
//! Both orders are part of the output and must not move with the child
//! order of whatever traversal computes them.

use std::sync::Arc;

use balg_core::analyze::{analyze, render_report};
use balg_core::expr::{Expr, Pred, Var};
use balg_core::schema::Schema;
use balg_core::types::Type;

fn names(vars: &[Var]) -> Vec<&str> {
    vars.iter().map(Arc::as_ref).collect()
}

#[test]
fn analyze_lists_nested_fixpoints_body_before_input() {
    // ifp(T, ifp(U, U, T), ifp(V, V, G)): the outer body holds `U`, its
    // input `V`.
    let expr = Expr::var("G")
        .ifp("V", Expr::var("V"))
        .ifp("T", Expr::var("T").ifp("U", Expr::var("U")));
    let schema = Schema::new().with("G", Type::relation(2));
    let facts = analyze(&expr, &schema).unwrap();
    assert_eq!(
        render_report(&expr, &facts),
        "type: {{[U, U]}}\n\
         set: may contain duplicates\n\
         errors: cannot error (shape-safe on conforming databases)\n\
         cost: exponential — TooLarge risk\n\
         bases:\n  G: non-linear\n\
         ifp T: full\n\
         ifp U: full\n\
         ifp V: full"
    );
}

#[test]
fn free_vars_list_an_input_before_its_lambda_body() {
    // IFP_T[T ∪⁺ MAP_x[x](S)](R) ∪⁺ σ_y[y ∈ U](W): each body reads a base
    // its input does not.
    let fixpoint = Expr::var("R").ifp(
        "T",
        Expr::var("T").additive_union(Expr::var("S").map("x", Expr::var("x"))),
    );
    let filtered = Expr::var("W").select("y", Pred::Member(Expr::var("y"), Expr::var("U")));
    assert_eq!(
        names(&fixpoint.additive_union(filtered).free_vars()),
        ["R", "S", "W", "U"]
    );

    // MAP_x[MAP_y[τ(x, y, O)](K)](J): the inner λ reads the outer binder
    // and a base; nested bodies come after their inputs at every level.
    let inner = Expr::var("K").map(
        "y",
        Expr::tuple([Expr::var("x"), Expr::var("y"), Expr::var("O")]),
    );
    assert_eq!(
        names(&Expr::var("J").map("x", inner).free_vars()),
        ["J", "K", "O"]
    );
}
