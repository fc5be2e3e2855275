//! Heuristic access-path planning: index selection from WHERE / ON clauses.
//!
//! The planner is deliberately MySQL-5-era in spirit: for each table access
//! it picks, in order of preference, a primary-key point lookup, a secondary
//! index point lookup, a primary-key range, a secondary index range, or a
//! full scan. Join lookups reuse the same machinery with the "constant" side
//! allowed to reference columns of already-bound tables. The planner works
//! on expressions whose column names are already positions
//! ([`Expr::Resolved`]), so "already bound" is a comparison of indices.

use crate::ast::{BinOp, Expr};
use crate::storage::Table;

/// How the executor should locate candidate rows for one table access.
#[derive(Debug, Clone, PartialEq)]
pub enum Path {
    /// Scan every row.
    FullScan,
    /// Primary key equality: `pk = key`.
    PkEq { key: Expr },
    /// Secondary-index equality on `column`: `col = key`.
    IndexEq { column: usize, key: Expr },
    /// Primary key range.
    PkRange {
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
    },
    /// Secondary-index range on `column`. Bounds are `(expr, inclusive)`.
    IndexRange {
        column: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
    },
}

impl Path {
    /// Human-readable plan description (EXPLAIN-style; used in tests).
    pub fn describe(&self) -> String {
        match self {
            Path::FullScan => "full scan".into(),
            Path::PkEq { .. } => "pk eq".into(),
            Path::IndexEq { column, .. } => format!("index eq col{column}"),
            Path::PkRange { .. } => "pk range".into(),
            Path::IndexRange { column, .. } => format!("index range col{column}"),
        }
    }
}

/// Split a boolean expression into its top-level AND conjuncts, in
/// evaluation order.
pub fn into_conjuncts(expr: Expr) -> Vec<Expr> {
    fn rec(e: Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary(a, BinOp::And, b) => {
                rec(*a, out);
                rec(*b, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    rec(expr, &mut out);
    out
}

/// Can `key` be evaluated before source `source` is scanned? Only if every
/// column in it is bound by an earlier source.
fn bound_before(key: &Expr, source: usize) -> bool {
    let mut ok = true;
    key.walk(&mut |e| {
        if let Expr::Resolved { binding, .. } = e {
            ok &= *binding < source;
        }
    });
    ok
}

/// If `expr` is a column of source `source`, return its column index.
fn own_column(expr: &Expr, source: usize) -> Option<usize> {
    match expr {
        Expr::Resolved { binding, col } if *binding == source => Some(*col),
        _ => None,
    }
}

/// A sargable conjunct: `column <op> key` where `key` is evaluable before
/// the table is scanned (see [`bound_before`]).
#[derive(Debug, Clone)]
struct Sarg {
    column: usize,
    op: BinOp,
    key: Expr,
    /// Index of the conjunct this sarg came from.
    conjunct: usize,
}

fn extract_sargs(conjuncts: &[Expr], source: usize) -> Vec<Sarg> {
    let mut sargs = Vec::new();
    for (conjunct, conj) in conjuncts.iter().enumerate() {
        let mut push = |column: usize, op: BinOp, key: &Expr| {
            sargs.push(Sarg {
                column,
                op,
                key: key.clone(),
                conjunct,
            })
        };
        let (lhs, op, rhs) = match conj {
            Expr::Binary(a, op, b)
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
                ) =>
            {
                (a.as_ref(), *op, b.as_ref())
            }
            Expr::Between { expr, lo, hi } => {
                // col BETWEEN lo AND hi -> two sargs.
                if let Some(col) = own_column(expr, source) {
                    if bound_before(lo, source) && bound_before(hi, source) {
                        push(col, BinOp::GtEq, lo);
                        push(col, BinOp::LtEq, hi);
                    }
                }
                continue;
            }
            _ => continue,
        };
        if let (Some(col), true) = (own_column(lhs, source), bound_before(rhs, source)) {
            push(col, op, rhs); // col <op> key
        } else if let (Some(col), true) = (own_column(rhs, source), bound_before(lhs, source)) {
            let flipped = match op {
                BinOp::Eq => BinOp::Eq,
                BinOp::Lt => BinOp::Gt,
                BinOp::LtEq => BinOp::GtEq,
                BinOp::Gt => BinOp::Lt,
                BinOp::GtEq => BinOp::LtEq,
                _ => unreachable!(),
            };
            push(col, flipped, lhs); // key <op> col
        }
    }
    sargs
}

/// Choose the access path for FROM source number `source` given the
/// conjuncts of its predicate (WHERE for the base table, ON for a join
/// target), with column names already resolved to positions. Also returns
/// the index of the conjunct an equality path consumed: when the probe is
/// exact the executor need not evaluate that conjunct again.
pub fn choose_path(table: &Table, source: usize, conjuncts: &[Expr]) -> (Path, Option<usize>) {
    let sargs = extract_sargs(conjuncts, source);
    let pk_col = table.schema().pk_index();

    // 1. PK equality.
    if let Some(s) = sargs
        .iter()
        .find(|s| Some(s.column) == pk_col && s.op == BinOp::Eq)
    {
        return (Path::PkEq { key: s.key.clone() }, Some(s.conjunct));
    }
    // 2. Secondary-index equality.
    for s in &sargs {
        if s.op == BinOp::Eq && table.index_on(s.column).is_some() {
            let path = Path::IndexEq {
                column: s.column,
                key: s.key.clone(),
            };
            return (path, Some(s.conjunct));
        }
    }
    // 3. PK range.
    if let Some(pk) = pk_col {
        let (lo, hi) = range_bounds(&sargs, pk);
        if lo.is_some() || hi.is_some() {
            return (Path::PkRange { lo, hi }, None);
        }
    }
    // 4. Secondary-index range.
    for s in &sargs {
        if table.index_on(s.column).is_some() {
            let (lo, hi) = range_bounds(&sargs, s.column);
            if lo.is_some() || hi.is_some() {
                let path = Path::IndexRange {
                    column: s.column,
                    lo,
                    hi,
                };
                return (path, None);
            }
        }
    }
    (Path::FullScan, None)
}

type OptBound = Option<(Expr, bool)>;

fn range_bounds(sargs: &[Sarg], column: usize) -> (OptBound, OptBound) {
    let mut lo: OptBound = None;
    let mut hi: OptBound = None;
    for s in sargs.iter().filter(|s| s.column == column) {
        match s.op {
            BinOp::Gt => lo = lo.or(Some((s.key.clone(), false))),
            BinOp::GtEq => lo = lo.or(Some((s.key.clone(), true))),
            BinOp::Lt => hi = hi.or(Some((s.key.clone(), false))),
            BinOp::LtEq => hi = hi.or(Some((s.key.clone(), true))),
            BinOp::Eq => {
                lo = Some((s.key.clone(), true));
                hi = Some((s.key.clone(), true));
            }
            _ => {}
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{resolve_columns, Binding};
    use crate::parser::parse;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn table_with_index() -> Table {
        let schema = TableSchema::new(
            "events",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("created_by", DataType::Int),
                Column::new("title", DataType::Text),
            ],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index("idx_created_by", 1, false).unwrap();
        t
    }

    /// WHERE conjuncts of `sql`, names resolved against `bindings`, each of
    /// which binds a `table_with_index()`.
    fn where_of(sql: &str, bindings: &[&str]) -> Vec<Expr> {
        let bindings: Vec<Binding> = bindings
            .iter()
            .map(|b| Binding::new(b, &table_with_index()))
            .collect();
        match parse(sql).unwrap() {
            crate::ast::Statement::Select(s) => {
                let mut f = s.filter.unwrap();
                resolve_columns(&mut f, &bindings).unwrap();
                into_conjuncts(f)
            }
            _ => panic!(),
        }
    }

    /// The path chosen for `events` as the only source.
    fn events_path(sql: &str) -> Path {
        choose_path(&table_with_index(), 0, &where_of(sql, &["events"])).0
    }

    #[test]
    fn pk_eq_preferred() {
        let f = where_of(
            "SELECT * FROM events WHERE title = 'x' AND id = 5",
            &["events"],
        );
        let (path, consumed) = choose_path(&table_with_index(), 0, &f);
        assert_eq!(path.describe(), "pk eq");
        assert_eq!(consumed, Some(1), "the second conjunct is the probe");
    }

    #[test]
    fn index_eq_when_no_pk_predicate() {
        let path = events_path("SELECT * FROM events WHERE created_by = 3");
        assert_eq!(path.describe(), "index eq col1");
    }

    #[test]
    fn flipped_operands_recognized() {
        let path = events_path("SELECT * FROM events WHERE 5 = id");
        assert_eq!(path.describe(), "pk eq");
    }

    #[test]
    fn pk_range_from_inequalities() {
        match events_path("SELECT * FROM events WHERE id > 10 AND id <= 20") {
            Path::PkRange { lo, hi } => {
                assert!(!lo.unwrap().1, "lo exclusive");
                assert!(hi.unwrap().1, "hi inclusive");
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn between_becomes_range() {
        assert!(matches!(
            events_path("SELECT * FROM events WHERE id BETWEEN 1 AND 9"),
            Path::PkRange { .. }
        ));
    }

    #[test]
    fn unindexed_predicate_full_scans() {
        let path = events_path("SELECT * FROM events WHERE title = 'x'");
        assert_eq!(path, Path::FullScan);
    }

    #[test]
    fn key_over_an_earlier_binding_is_usable_for_join_lookup() {
        // ON e.created_by = u.id with `u` bound first: planning access to
        // `e`, the key `u.id` is evaluable before the lookup.
        let f = where_of("SELECT * FROM x WHERE e.created_by = u.id", &["u", "e"]);
        match choose_path(&table_with_index(), 1, &f) {
            (Path::IndexEq { column: 1, key }, Some(0)) => {
                assert_eq!(key, Expr::Resolved { binding: 0, col: 0 });
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn key_over_a_later_binding_is_not_a_sarg() {
        // The same predicate with `u` bound after `e`: `u.id` has no value
        // while `e` is scanned, so the conjunct cannot drive the lookup.
        let f = where_of("SELECT * FROM x WHERE e.created_by = u.id", &["e", "u"]);
        assert_eq!(choose_path(&table_with_index(), 0, &f).0, Path::FullScan);
        // The next usable sarg is taken instead.
        let f = where_of(
            "SELECT * FROM x WHERE e.id = u.created_by AND e.created_by = 7",
            &["e", "u"],
        );
        let (path, consumed) = choose_path(&table_with_index(), 0, &f);
        assert_eq!(
            (path.describe().as_str(), consumed),
            ("index eq col1", Some(1))
        );
    }

    #[test]
    fn own_column_on_both_sides_not_sargable() {
        let path = events_path("SELECT * FROM events WHERE id = created_by");
        assert_eq!(path, Path::FullScan);
    }

    #[test]
    fn or_disables_sargs() {
        let path = events_path("SELECT * FROM events WHERE id = 1 OR created_by = 2");
        assert_eq!(path, Path::FullScan);
    }

    #[test]
    fn conjuncts_split() {
        let f = where_of(
            "SELECT * FROM events WHERE id = 1 AND title = 'x' AND (id = 3 OR created_by = 4)",
            &["events"],
        );
        assert_eq!(f.len(), 3);
    }
}
