//! Scalar expression evaluation with SQL three-valued logic.

use crate::ast::{AggKind, BinOp, Expr, UnOp};
use crate::error::SqlError;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Shared NULL that a NULL-extended (LEFT JOIN) row reads as.
pub(crate) static NULL_VALUE: Value = Value::Null;

/// Evaluation context: bound parameters plus the session clock reading.
///
/// `now_micros` is supplied by the *session* (ultimately the owning VM's
/// drifting clock), never by the host machine — this is what makes the
/// paper's heartbeat measurement work: the same replicated `INSERT ...
/// NOW_MICROS()` statement commits different timestamps on master and slave.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    pub params: &'a [Value],
    pub now_micros: i64,
}

impl<'a> EvalCtx<'a> {
    /// Context with no parameters.
    pub fn bare(now_micros: i64) -> Self {
        Self {
            params: &[],
            now_micros,
        }
    }
}

/// The error for a column name that binds to nothing: `q.name`, or `name`.
pub(crate) fn unknown_column(qualifier: Option<&str>, name: &str) -> SqlError {
    SqlError::UnknownColumn(match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    })
}

/// The error for an aggregate call where no group is being folded; the
/// binder raises it at prepare.
pub(crate) fn misplaced_aggregate(name: &str) -> SqlError {
    SqlError::Unsupported(format!("aggregate {name} used in a non-aggregate context"))
}

/// The error for an integer result outside `i64` (MySQL's BIGINT).
fn out_of_range(expr: std::fmt::Arguments) -> SqlError {
    SqlError::TypeMismatch(format!("BIGINT value is out of range in '{expr}'"))
}

/// Evaluate an expression to an owned value. `scope` holds one row per FROM
/// binding, in plan order; `None` reads as NULL (a NULL-extended LEFT JOIN
/// row). Column references must already be bound to positions
/// ([`Expr::Resolved`]): the evaluator looks up no name.
pub fn eval(expr: &Expr, ctx: &EvalCtx, scope: &[Option<&[Value]>]) -> Result<Value, SqlError> {
    eval_cow(expr, ctx, scope).map(Cow::into_owned)
}

/// Evaluate an expression's SQL truth without materializing the value —
/// the predicate fast path (filters, JOIN conditions, HAVING).
pub fn eval_truth(
    expr: &Expr,
    ctx: &EvalCtx,
    scope: &[Option<&[Value]>],
) -> Result<Truth, SqlError> {
    let v = eval_cow(expr, ctx, scope)?;
    Ok(truth(&v))
}

/// Evaluate an expression, borrowing the result where it already lives in
/// the scope's rows, the parameter list, or the expression tree itself
/// (bound columns, params, literals). Comparisons and predicates
/// over Text columns therefore allocate nothing; only computed values
/// (arithmetic, functions) are owned.
pub fn eval_cow<'e>(
    expr: &'e Expr,
    ctx: &'e EvalCtx,
    scope: &'e [Option<&'e [Value]>],
) -> Result<Cow<'e, Value>, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        // Prepare binds every name; one that was not has no row to read.
        Expr::Column { qualifier, name } => Err(unknown_column(qualifier.as_deref(), name)),
        Expr::Resolved { binding, col } => Ok(Cow::Borrowed(match scope[*binding] {
            Some(values) => &values[*col],
            None => &NULL_VALUE,
        })),
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .map(Cow::Borrowed)
            .ok_or_else(|| SqlError::BadParameter(format!("parameter ?{} not bound", i + 1))),
        Expr::Unary(op, inner) => {
            let v = eval_cow(inner, ctx, scope)?;
            match op {
                UnOp::Neg => match v.as_ref() {
                    Value::Null => Ok(Cow::Owned(Value::Null)),
                    Value::Int(i) => match i.checked_neg() {
                        Some(n) => Ok(Cow::Owned(Value::Int(n))),
                        None => Err(out_of_range(format_args!("-({i})"))),
                    },
                    Value::Double(d) => Ok(Cow::Owned(Value::Double(-d))),
                    other => Err(SqlError::TypeMismatch(format!("cannot negate {other:?}"))),
                },
                UnOp::Not => Ok(Cow::Owned(match truth(&v) {
                    Truth::True => Value::Bool(false),
                    Truth::False => Value::Bool(true),
                    Truth::Unknown => Value::Null,
                })),
            }
        }
        Expr::Binary(a, op, b) => eval_binary(a, *op, b, ctx, scope),
        Expr::Func { name, args, star } => eval_func(name, args, *star, ctx, scope).map(Cow::Owned),
        Expr::IsNull { expr, negated } => {
            let v = eval_cow(expr, ctx, scope)?;
            Ok(Cow::Owned(Value::Bool(v.is_null() != *negated)))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_cow(expr, ctx, scope)?;
            let p = eval_cow(pattern, ctx, scope)?;
            match (v.as_ref(), p.as_ref()) {
                (Value::Null, _) | (_, Value::Null) => Ok(Cow::Owned(Value::Null)),
                (Value::Text(s), Value::Text(pat)) => {
                    Ok(Cow::Owned(Value::Bool(like_match(s, pat) != *negated)))
                }
                (a, b) => Err(SqlError::TypeMismatch(format!(
                    "LIKE requires text operands, got {a:?} LIKE {b:?}"
                ))),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_cow(expr, ctx, scope)?;
            if v.is_null() {
                return Ok(Cow::Owned(Value::Null));
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval_cow(item, ctx, scope)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(Ordering::Equal) {
                    return Ok(Cow::Owned(Value::Bool(!negated)));
                }
            }
            if saw_null {
                Ok(Cow::Owned(Value::Null))
            } else {
                Ok(Cow::Owned(Value::Bool(*negated)))
            }
        }
        Expr::Between { expr, lo, hi } => {
            let v = eval_cow(expr, ctx, scope)?;
            let l = eval_cow(lo, ctx, scope)?;
            let h = eval_cow(hi, ctx, scope)?;
            if v.is_null() || l.is_null() || h.is_null() {
                return Ok(Cow::Owned(Value::Null));
            }
            let ge = v.sql_cmp(&l).map(|o| o != Ordering::Less);
            let le = v.sql_cmp(&h).map(|o| o != Ordering::Greater);
            match (ge, le) {
                (Some(a), Some(b)) => Ok(Cow::Owned(Value::Bool(a && b))),
                _ => Err(SqlError::TypeMismatch(
                    "BETWEEN operands incomparable".into(),
                )),
            }
        }
    }
}

/// SQL three-valued truth of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    True,
    False,
    Unknown,
}

/// Classify a value as a SQL truth value.
pub fn truth(v: &Value) -> Truth {
    match v {
        Value::Null => Truth::Unknown,
        other => {
            if other.is_true() {
                Truth::True
            } else {
                Truth::False
            }
        }
    }
}

fn eval_binary<'e>(
    a: &'e Expr,
    op: BinOp,
    b: &'e Expr,
    ctx: &'e EvalCtx,
    scope: &'e [Option<&'e [Value]>],
) -> Result<Cow<'e, Value>, SqlError> {
    let owned = |v: Value| Ok(Cow::Owned(v));
    match op {
        BinOp::And => {
            let lv = eval_cow(a, ctx, scope)?;
            let l = truth(&lv);
            if l == Truth::False {
                return owned(Value::Bool(false));
            }
            let rv = eval_cow(b, ctx, scope)?;
            let r = truth(&rv);
            owned(match (l, r) {
                (Truth::True, Truth::True) => Value::Bool(true),
                (_, Truth::False) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        BinOp::Or => {
            let lv = eval_cow(a, ctx, scope)?;
            let l = truth(&lv);
            if l == Truth::True {
                return owned(Value::Bool(true));
            }
            let rv = eval_cow(b, ctx, scope)?;
            let r = truth(&rv);
            owned(match (l, r) {
                (_, Truth::True) => Value::Bool(true),
                (Truth::False, Truth::False) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let l = eval_cow(a, ctx, scope)?;
            let r = eval_cow(b, ctx, scope)?;
            match l.sql_cmp(&r) {
                None => owned(Value::Null),
                Some(ord) => {
                    let res = match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::NotEq => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::LtEq => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::GtEq => ord != Ordering::Less,
                        _ => unreachable!(),
                    };
                    owned(Value::Bool(res))
                }
            }
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let l = eval_cow(a, ctx, scope)?;
            let r = eval_cow(b, ctx, scope)?;
            arith(&l, op, &r).map(Cow::Owned)
        }
    }
}

/// `l op r` for an arithmetic `op`. Two integers (INT or TIMESTAMP) give an
/// exact INT, or an out-of-range error; `/`, and anything with a DOUBLE,
/// computes in `f64`. Division or modulo by zero is NULL, as in MySQL.
pub(crate) fn arith(l: &Value, op: BinOp, r: &Value) -> Result<Value, SqlError> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    if let (Int(a) | Timestamp(a), Int(b) | Timestamp(b), false) = (l, r, op == BinOp::Div) {
        let (a, b) = (*a, *b);
        let (v, sym) = match op {
            BinOp::Add => (a.checked_add(b), '+'),
            BinOp::Sub => (a.checked_sub(b), '-'),
            BinOp::Mul => (a.checked_mul(b), '*'),
            BinOp::Mod if b == 0 => return Ok(Null),
            // `i64::MIN % -1` is 0, not an overflow.
            BinOp::Mod => (Some(a.wrapping_rem(b)), '%'),
            _ => unreachable!(),
        };
        return v
            .map(Int)
            .ok_or_else(|| out_of_range(format_args!("({a} {sym} {b})")));
    }
    // Text concatenation via + is not SQL; reject non-numeric.
    let f = |v: &Value| match v {
        Int(i) | Timestamp(i) => Some(*i as f64),
        Double(d) => Some(*d),
        _ => None,
    };
    let (Some(a), Some(b)) = (f(l), f(r)) else {
        return Err(SqlError::TypeMismatch(format!(
            "arithmetic on non-numeric values {l:?}, {r:?}"
        )));
    };
    Ok(match op {
        BinOp::Add => Double(a + b),
        BinOp::Sub => Double(a - b),
        BinOp::Mul => Double(a * b),
        BinOp::Div | BinOp::Mod if b == 0.0 => Null,
        BinOp::Div => Double(a / b),
        BinOp::Mod => Double(a % b),
        _ => unreachable!(),
    })
}

fn eval_func(
    name: &str,
    args: &[Expr],
    star: bool,
    ctx: &EvalCtx,
    scope: &[Option<&[Value]>],
) -> Result<Value, SqlError> {
    if AggKind::of(name).is_some() {
        // The binder turns every aggregate call it accepts into a column of
        // the group's scope entry.
        return Err(misplaced_aggregate(name));
    }
    if star {
        return Err(SqlError::Parse(format!("{name}(*) is not a function")));
    }
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(a, ctx, scope)?);
    }
    let argc = |n: usize| -> Result<(), SqlError> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(SqlError::BadParameter(format!(
                "{name} expects {n} argument(s), got {}",
                vals.len()
            )))
        }
    };
    match name {
        // The paper's microsecond-resolution timestamp UDF (their workaround
        // for MySQL bug #8523).
        "NOW_MICROS" => {
            argc(0)?;
            Ok(Value::Timestamp(ctx.now_micros))
        }
        "LOWER" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(s.to_lowercase())),
                v => Err(SqlError::TypeMismatch(format!("LOWER on {v:?}"))),
            }
        }
        "UPPER" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(s.to_uppercase())),
                v => Err(SqlError::TypeMismatch(format!("UPPER on {v:?}"))),
            }
        }
        "LENGTH" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                v => Err(SqlError::TypeMismatch(format!("LENGTH on {v:?}"))),
            }
        }
        "ABS" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                v => Err(SqlError::TypeMismatch(format!("ABS on {v:?}"))),
            }
        }
        "FLOOR" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Double(d) => Ok(Value::Int(d.floor() as i64)),
                v => Err(SqlError::TypeMismatch(format!("FLOOR on {v:?}"))),
            }
        }
        "CEIL" | "CEILING" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Double(d) => Ok(Value::Int(d.ceil() as i64)),
                v => Err(SqlError::TypeMismatch(format!("CEIL on {v:?}"))),
            }
        }
        "COALESCE" | "IFNULL" => {
            if vals.is_empty() {
                return Err(SqlError::BadParameter(format!("{name} needs arguments")));
            }
            Ok(vals
                .into_iter()
                .find(|v| !v.is_null())
                .unwrap_or(Value::Null))
        }
        "SUBSTRING" | "SUBSTR" => {
            // SUBSTRING(str, pos [, len]) — 1-based pos like MySQL.
            if vals.len() < 2 || vals.len() > 3 {
                return Err(SqlError::BadParameter(format!(
                    "{name} expects 2 or 3 arguments, got {}",
                    vals.len()
                )));
            }
            match (&vals[0], &vals[1]) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(text), Value::Int(pos)) => {
                    let chars: Vec<char> = text.chars().collect();
                    let start = if *pos > 0 {
                        (*pos - 1) as usize
                    } else if *pos < 0 {
                        chars.len().saturating_sub(pos.unsigned_abs() as usize)
                    } else {
                        return Ok(Value::Text(String::new()));
                    };
                    let len = match vals.get(2) {
                        Some(Value::Int(l)) if *l >= 0 => *l as usize,
                        Some(Value::Null) => return Ok(Value::Null),
                        Some(v) => {
                            return Err(SqlError::TypeMismatch(format!(
                                "SUBSTRING length must be INT, got {v:?}"
                            )))
                        }
                        None => usize::MAX,
                    };
                    Ok(Value::Text(chars.iter().skip(start).take(len).collect()))
                }
                (a, b) => Err(SqlError::TypeMismatch(format!("SUBSTRING on {a:?}, {b:?}"))),
            }
        }
        "TRIM" => {
            argc(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(s.trim().to_string())),
                v => Err(SqlError::TypeMismatch(format!("TRIM on {v:?}"))),
            }
        }
        "REPLACE" => {
            argc(3)?;
            match (&vals[0], &vals[1], &vals[2]) {
                (Value::Null, _, _) | (_, Value::Null, _) | (_, _, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(from), Value::Text(to)) => {
                    if from.is_empty() {
                        Ok(Value::Text(s.clone()))
                    } else {
                        Ok(Value::Text(s.replace(from.as_str(), to)))
                    }
                }
                (a, b, c) => Err(SqlError::TypeMismatch(format!(
                    "REPLACE on {a:?}, {b:?}, {c:?}"
                ))),
            }
        }
        "ROUND" => {
            if vals.is_empty() || vals.len() > 2 {
                return Err(SqlError::BadParameter(
                    "ROUND expects 1 or 2 arguments".into(),
                ));
            }
            let digits = match vals.get(1) {
                Some(Value::Int(d)) => *d,
                Some(Value::Null) => return Ok(Value::Null),
                Some(v) => {
                    return Err(SqlError::TypeMismatch(format!(
                        "ROUND digits must be INT, got {v:?}"
                    )))
                }
                None => 0,
            };
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Double(d) => {
                    let scale = 10f64.powi(digits as i32);
                    let r = (d * scale).round() / scale;
                    if digits <= 0 {
                        Ok(Value::Int(r as i64))
                    } else {
                        Ok(Value::Double(r))
                    }
                }
                v => Err(SqlError::TypeMismatch(format!("ROUND on {v:?}"))),
            }
        }
        "GREATEST" | "LEAST" => {
            if vals.is_empty() {
                return Err(SqlError::BadParameter(format!("{name} needs arguments")));
            }
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let want_greater = name == "GREATEST";
            let mut best = vals[0].clone();
            for v in &vals[1..] {
                match v.sql_cmp(&best) {
                    Some(std::cmp::Ordering::Greater) if want_greater => best = v.clone(),
                    Some(std::cmp::Ordering::Less) if !want_greater => best = v.clone(),
                    None => {
                        return Err(SqlError::TypeMismatch(format!(
                            "{name} operands incomparable"
                        )))
                    }
                    _ => {}
                }
            }
            Ok(best)
        }
        "CONCAT" => {
            let mut s = String::new();
            for v in &vals {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                s.push_str(&v.to_string());
            }
            Ok(Value::Text(s))
        }
        other => Err(SqlError::UnknownFunction(other.to_string())),
    }
}

/// SQL LIKE matcher: `%` matches any run, `_` matches one character.
/// Case-sensitive (like MySQL with a binary collation).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Try every split (including empty).
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn eval_one(sql: &str, params: &[Value]) -> Result<Value, SqlError> {
        // Parse `SELECT <expr>` and evaluate the lone item.
        let stmt = parse(&format!("SELECT {sql}"))?;
        match stmt {
            crate::ast::Statement::Select(sel) => match &sel.items[0] {
                crate::ast::SelectItem::Expr { expr, .. } => {
                    let ctx = EvalCtx {
                        params,
                        now_micros: 1_000_000,
                    };
                    eval(expr, &ctx, &[])
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_one("1 + 2 * 3", &[]).unwrap(), Value::Int(7));
        assert_eq!(eval_one("(1 + 2) * 3", &[]).unwrap(), Value::Int(9));
        assert_eq!(eval_one("7 / 2", &[]).unwrap(), Value::Double(3.5));
        assert_eq!(eval_one("7 % 3", &[]).unwrap(), Value::Int(1));
        assert_eq!(eval_one("-5 + 1", &[]).unwrap(), Value::Int(-4));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(eval_one("1 / 0", &[]).unwrap(), Value::Null);
        assert_eq!(eval_one("1 % 0", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_one("NULL AND TRUE", &[]).unwrap(), Value::Null);
        assert_eq!(eval_one("NULL AND FALSE", &[]).unwrap(), Value::Bool(false));
        assert_eq!(eval_one("NULL OR TRUE", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("NULL OR FALSE", &[]).unwrap(), Value::Null);
        assert_eq!(eval_one("NOT NULL", &[]).unwrap(), Value::Null);
        assert_eq!(eval_one("NULL = NULL", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_one("1 < 2", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("2 >= 2.0", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("'a' <> 'b'", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_and_in_and_between() {
        assert_eq!(eval_one("NULL IS NULL", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("1 IS NOT NULL", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("2 IN (1, 2, 3)", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("4 IN (1, 2, 3)", &[]).unwrap(), Value::Bool(false));
        assert_eq!(eval_one("4 NOT IN (1, 2)", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval_one("4 IN (1, NULL)", &[]).unwrap(), Value::Null);
        assert_eq!(
            eval_one("2 BETWEEN 1 AND 3", &[]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_one("0 BETWEEN 1 AND 3", &[]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "H%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a_"));
        assert!(like_match("a%b", "a%b"));
        assert_eq!(
            eval_one("'web 2.0' LIKE '%2.0'", &[]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_one("'x' NOT LIKE 'y%'", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn params_bind_in_order() {
        assert_eq!(
            eval_one("? + ?", &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(3)
        );
        assert!(matches!(
            eval_one("? + ?", &[Value::Int(1)]),
            Err(SqlError::BadParameter(_))
        ));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            eval_one("LOWER('AbC')", &[]).unwrap(),
            Value::Text("abc".into())
        );
        assert_eq!(eval_one("LENGTH('héllo')", &[]).unwrap(), Value::Int(5));
        assert_eq!(eval_one("ABS(-3)", &[]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_one("COALESCE(NULL, NULL, 7)", &[]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            eval_one("CONCAT('a', 1, 'b')", &[]).unwrap(),
            Value::Text("a1b".into())
        );
        assert_eq!(eval_one("FLOOR(2.7)", &[]).unwrap(), Value::Int(2));
        assert_eq!(eval_one("CEIL(2.1)", &[]).unwrap(), Value::Int(3));
    }

    #[test]
    fn now_micros_reads_session_clock() {
        assert_eq!(
            eval_one("NOW_MICROS()", &[]).unwrap(),
            Value::Timestamp(1_000_000)
        );
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(matches!(
            eval_one("FROBNICATE(1)", &[]),
            Err(SqlError::UnknownFunction(_))
        ));
    }

    #[test]
    fn aggregate_outside_aggregation_rejected() {
        assert!(matches!(
            eval_one("COUNT(*)", &[]),
            Err(SqlError::Unsupported(_))
        ));
    }
}
