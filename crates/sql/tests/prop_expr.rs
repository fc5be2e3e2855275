//! Property tests for expression evaluation: no panics for arbitrary
//! expression trees, and algebraic identities hold.

use amdb_sql::ast::{BinOp, Expr, UnOp};
use amdb_sql::expr::{eval, EvalCtx};
use amdb_sql::{SqlError, Value};
use proptest::prelude::*;

/// Any `i64`, half the time a small one, so that products fit as often as
/// they overflow.
fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), -3_037_000_499i64..3_037_000_500]
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Literal(Value::Null)),
        (-1000i64..1000).prop_map(|i| Expr::Literal(Value::Int(i))),
        (-1000.0..1000.0f64).prop_map(|d| Expr::Literal(Value::Double(d))),
        "[a-z]{0,6}".prop_map(|s| Expr::Literal(Value::Text(s))),
        any::<bool>().prop_map(|b| Expr::Literal(Value::Bool(b))),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_leaf().prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(a, b, op)| {
                let op = match op % 11 {
                    0 => BinOp::And,
                    1 => BinOp::Or,
                    2 => BinOp::Eq,
                    3 => BinOp::NotEq,
                    4 => BinOp::Lt,
                    5 => BinOp::LtEq,
                    6 => BinOp::Gt,
                    7 => BinOp::GtEq,
                    8 => BinOp::Add,
                    9 => BinOp::Sub,
                    _ => BinOp::Mul,
                };
                Expr::Binary(Box::new(a), op, Box::new(b))
            }),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            inner.clone().prop_map(|e| Expr::IsNull {
                expr: Box::new(e),
                negated: false
            }),
            (inner.clone(), prop::collection::vec(inner.clone(), 0..3)).prop_map(|(e, list)| {
                Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated: false,
                }
            }),
        ]
    })
}

proptest! {
    /// Arbitrary well-formed trees evaluate to Ok or a clean error — never a
    /// panic. (Type mismatches are data-dependent and legitimate errors.)
    #[test]
    fn eval_never_panics(e in arb_expr()) {
        let ctx = EvalCtx::bare(123);
        let _ = eval(&e, &ctx, &[]);
    }

    /// Double negation is identity on boolean-valued expressions.
    #[test]
    fn not_not_is_identity_on_bools(b in any::<bool>()) {
        let ctx = EvalCtx::bare(0);
        let e = Expr::Unary(
            UnOp::Not,
            Box::new(Expr::Unary(
                UnOp::Not,
                Box::new(Expr::Literal(Value::Bool(b))),
            )),
        );
        prop_assert_eq!(eval(&e, &ctx, &[]).unwrap(), Value::Bool(b));
    }

    /// x = x is TRUE for any non-null comparable literal.
    #[test]
    fn reflexive_equality(i in any::<i64>()) {
        let ctx = EvalCtx::bare(0);
        let lit = Expr::Literal(Value::Int(i));
        let e = Expr::Binary(Box::new(lit.clone()), BinOp::Eq, Box::new(lit));
        prop_assert_eq!(eval(&e, &ctx, &[]).unwrap(), Value::Bool(true));
    }

    /// Integer `+`, `-` and `*` over all of `i64` match Rust's checked
    /// arithmetic: the exact `Int` where it fits, an out-of-range error
    /// where it does not.
    #[test]
    fn int_addition_matches(a in arb_i64(), b in arb_i64(), op in 0u8..3) {
        let (op, want) = match op {
            0 => (BinOp::Add, a.checked_add(b)),
            1 => (BinOp::Sub, a.checked_sub(b)),
            _ => (BinOp::Mul, a.checked_mul(b)),
        };
        let ctx = EvalCtx::bare(0);
        let e = Expr::Binary(
            Box::new(Expr::Literal(Value::Int(a))),
            op,
            Box::new(Expr::Literal(Value::Int(b))),
        );
        let got = eval(&e, &ctx, &[]);
        match want {
            Some(v) => prop_assert_eq!(got, Ok(Value::Int(v))),
            None => prop_assert!(
                matches!(got, Err(SqlError::TypeMismatch(ref m)) if m.starts_with("BIGINT value is out of range")),
                "{a} {op:?} {b}: {got:?}"
            ),
        }
    }

    /// AND is commutative in outcome for any pair of literals.
    #[test]
    fn and_commutes(a in arb_leaf(), b in arb_leaf()) {
        let ctx = EvalCtx::bare(0);
        let ab = Expr::Binary(Box::new(a.clone()), BinOp::And, Box::new(b.clone()));
        let ba = Expr::Binary(Box::new(b), BinOp::And, Box::new(a));
        // Both either error together or agree.
        match (eval(&ab, &ctx, &[]), eval(&ba, &ctx, &[])) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), _) | (_, Err(_)) => {} // type-dependent errors allowed
        }
    }
}
