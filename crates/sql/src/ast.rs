//! Abstract syntax tree for the supported SQL subset.

use crate::schema::TableSchema;
use crate::value::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        schema: TableSchema,
        if_not_exists: bool,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
        unique: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        /// Explicit column list; empty means "all columns in order".
        columns: Vec<String>,
        rows: Vec<Vec<Expr>>,
    },
    Select(SelectStmt),
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
    Begin,
    Commit,
    Rollback,
    /// `EXPLAIN SELECT ...`: report the chosen access paths instead of rows.
    Explain(Box<SelectStmt>),
}

impl Statement {
    /// True for statements that modify data or schema (and therefore must be
    /// routed to the master and logged to the binlog).
    pub fn is_write(&self) -> bool {
        !matches!(
            self,
            Statement::Select(_)
                | Statement::Begin
                | Statement::Commit
                | Statement::Rollback
                | Statement::Explain(_)
        )
    }

    /// Number of `?` placeholders in the statement. The parser numbers
    /// placeholders sequentially in source order, so this count equals the
    /// number of parameters the statement binds.
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.walk_exprs(&mut |e| {
            if matches!(e, Expr::Param(_)) {
                n += 1;
            }
        });
        n
    }

    /// Visit every expression in the statement, depth-first.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Statement::Insert { rows, .. } => {
                for row in rows {
                    for e in row {
                        e.walk(f);
                    }
                }
            }
            Statement::Select(sel) => walk_select_exprs(sel, f),
            Statement::Explain(sel) => walk_select_exprs(sel, f),
            Statement::Update { sets, filter, .. } => {
                for (_, e) in sets {
                    e.walk(f);
                }
                if let Some(w) = filter {
                    w.walk(f);
                }
            }
            Statement::Delete { filter, .. } => {
                if let Some(w) = filter {
                    w.walk(f);
                }
            }
            Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. }
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback => {}
        }
    }
}

/// Visit every expression in a SELECT, depth-first.
fn walk_select_exprs(sel: &SelectStmt, f: &mut impl FnMut(&Expr)) {
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.walk(f);
        }
    }
    if let Some(from) = &sel.from {
        for j in &from.joins {
            j.on.walk(f);
        }
    }
    if let Some(w) = &sel.filter {
        w.walk(f);
    }
    for g in &sel.group_by {
        g.walk(f);
    }
    if let Some(h) = &sel.having {
        h.walk(f);
    }
    for ok in &sel.order_by {
        ok.expr.walk(f);
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Option<FromClause>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// FROM clause: a base table plus zero or more joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    pub base: TableRef,
    pub joins: Vec<Join>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds in scopes (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// Join kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

/// One JOIN.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Expr,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub desc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// Column reference: optional qualifier (table or alias) plus name.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// `?` positional parameter (0-based position).
    Param(usize),
    /// Column reference bound at prepare to positional `(FROM binding,
    /// column)` indices. Never produced by the parser; the binder
    /// (`exec::bind`) rewrites every [`Expr::Column`] of a row
    /// statement into one, or fails the statement.
    Resolved {
        binding: usize,
        col: usize,
    },
    Unary(UnOp, Box<Expr>),
    Binary(Box<Expr>, BinOp, Box<Expr>),
    /// Function call. The parser upper-cases `name`, and everything that
    /// matches on it (the binder's aggregate lookup, the evaluator) relies
    /// on that. `COUNT(*)` is `Func("COUNT", [])` with `star = true`.
    Func {
        name: String,
        args: Vec<Expr>,
        star: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (list)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for an unqualified column.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Number of `?` parameters contained in this expression.
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |e| {
            if matches!(e, Expr::Param(_)) {
                n += 1;
            }
        });
        n
    }

    /// Depth-first traversal.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary(_, e) | Expr::IsNull { expr: e, .. } => e.walk(f),
            Expr::Binary(a, _, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between { expr, lo, hi } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) | Expr::Resolved { .. } => {}
        }
    }

    /// True when this expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Func { name, .. } = e {
                found |= AggKind::of(name).is_some();
            }
        });
        found
    }
}

/// The aggregate functions: each folds the rows of a group into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    /// The aggregate an upper-case function name denotes, if any.
    pub fn of(name: &str) -> Option<AggKind> {
        Some(match name {
            "COUNT" => AggKind::Count,
            "SUM" => AggKind::Sum,
            "AVG" => AggKind::Avg,
            "MIN" => AggKind::Min,
            "MAX" => AggKind::Max,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_write_classification() {
        assert!(!Statement::Begin.is_write());
        assert!(!Statement::Select(SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: None,
            filter: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
            offset: None,
        })
        .is_write());
        assert!(Statement::Delete {
            table: "t".into(),
            filter: None
        }
        .is_write());
    }

    #[test]
    fn param_count_walks_nested() {
        let e = Expr::Binary(
            Box::new(Expr::Param(0)),
            BinOp::And,
            Box::new(Expr::InList {
                expr: Box::new(Expr::col("x")),
                list: vec![Expr::Param(1), Expr::Param(2)],
                negated: false,
            }),
        );
        assert_eq!(e.param_count(), 3);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Func {
            name: "COUNT".into(),
            args: vec![],
            star: true,
        };
        assert!(agg.contains_aggregate());
        let scalar = Expr::Func {
            name: "LOWER".into(),
            args: vec![Expr::col("name")],
            star: false,
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn table_ref_binding_prefers_alias() {
        let t = TableRef {
            table: "users".into(),
            alias: Some("u".into()),
        };
        assert_eq!(t.binding(), "u");
        let t2 = TableRef {
            table: "users".into(),
            alias: None,
        };
        assert_eq!(t2.binding(), "users");
    }
}
