//! Property tests for the lexer/parser: no panics on arbitrary input, and
//! structurally generated statements always parse.

use amdb_sql::parser::parse;
use proptest::prelude::*;

proptest! {
    /// The parser is exposed to user input; it must reject garbage with an
    /// error, never a panic.
    #[test]
    fn arbitrary_text_never_panics(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// Same for arbitrary byte-ish ASCII soup with SQL-looking fragments.
    #[test]
    fn sql_fragment_soup_never_panics(
        parts in prop::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()),
                Just("FROM".to_string()),
                Just("WHERE".to_string()),
                Just("INSERT INTO".to_string()),
                Just("VALUES".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just("'str'".to_string()),
                Just("?".to_string()),
                Just("42".to_string()),
                Just("*".to_string()),
                Just("=".to_string()),
                Just("users".to_string()),
                Just("JOIN".to_string()),
                Just("ON".to_string()),
                Just("GROUP BY".to_string()),
                Just("ORDER BY".to_string()),
                Just("LIMIT".to_string()),
            ],
            0..20,
        )
    ) {
        let _ = parse(&parts.join(" "));
    }

    /// Generated well-formed point SELECTs always parse.
    #[test]
    fn generated_selects_parse(
        table in "[a-z][a-z0-9_]{0,10}",
        col in "[a-z][a-z0-9_]{0,10}",
        v in any::<i64>(),
        limit in 1u64..1000,
    ) {
        let sql = format!("SELECT {col} FROM {table} WHERE {col} = {v} LIMIT {limit}");
        let stmt = parse(&sql).expect("well-formed select parses");
        prop_assert!(matches!(stmt, amdb_sql::ast::Statement::Select(_)));
    }

    /// Generated INSERTs with string literals (including quotes that need
    /// escaping) always parse and preserve the value.
    #[test]
    fn generated_inserts_parse(text in ".{0,40}") {
        let escaped = text.replace('\'', "''");
        let sql = format!("INSERT INTO t (a) VALUES ('{escaped}')");
        let stmt = parse(&sql).expect("well-formed insert parses");
        match stmt {
            amdb_sql::ast::Statement::Insert { rows, .. } => {
                match &rows[0][0] {
                    amdb_sql::ast::Expr::Literal(amdb_sql::Value::Text(s)) => {
                        prop_assert_eq!(s, &text);
                    }
                    other => prop_assert!(false, "unexpected expr {:?}", other),
                }
            }
            other => prop_assert!(false, "unexpected stmt {:?}", other),
        }
    }

    /// Numeric literals round-trip through the lexer.
    #[test]
    fn int_literals_round_trip(v in any::<i64>()) {
        let sql = format!("SELECT {v}");
        let stmt = parse(&sql).expect("parses");
        match stmt {
            amdb_sql::ast::Statement::Select(sel) => match &sel.items[0] {
                amdb_sql::ast::SelectItem::Expr { expr, .. } => {
                    // Negative literals parse as Neg(positive); evaluate both.
                    let ctx = amdb_sql::expr::EvalCtx::bare(0);
                    let got = amdb_sql::expr::eval(expr, &ctx, &[])
                        .expect("evaluates");
                    prop_assert_eq!(got, amdb_sql::Value::Int(v));
                }
                _ => prop_assert!(false),
            },
            _ => prop_assert!(false),
        }
    }
}
