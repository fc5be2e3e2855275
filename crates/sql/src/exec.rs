//! Query execution: SELECT pipelines, and DML that records every row it
//! changes.

use crate::ast::*;
use crate::error::SqlError;
use crate::expr::{
    arith, eval, eval_cow, eval_truth, misplaced_aggregate, unknown_column, EvalCtx, Truth,
    NULL_VALUE,
};
use crate::plan::{choose_path, into_conjuncts, Path};
use crate::storage::{IndexView, Postings, RowId, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// The table catalog: lower-cased table name → table.
pub type Catalog = BTreeMap<String, Table>;

/// Catalog key for a table name: lower-cased, but borrowed when the name is
/// already lower-case (the overwhelmingly common case on the hot path, where
/// the per-statement allocation would otherwise add up).
pub fn table_key(name: &str) -> std::borrow::Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        std::borrow::Cow::Owned(name.to_ascii_lowercase())
    } else {
        std::borrow::Cow::Borrowed(name)
    }
}

/// Look up a table (case-insensitive).
pub fn get_table<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table, SqlError> {
    catalog
        .get(table_key(name).as_ref())
        .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
}

/// Look up a table mutably (case-insensitive).
pub fn get_table_mut<'a>(catalog: &'a mut Catalog, name: &str) -> Result<&'a mut Table, SqlError> {
    catalog
        .get_mut(table_key(name).as_ref())
        .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
}

/// The result of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (SELECT only). Shared out of the cached plan —
    /// cloning a result header is a refcount bump, not a `Vec<String>`.
    pub columns: std::sync::Arc<[String]>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub rows_affected: u64,
    /// Auto-increment id assigned by the last INSERT, if any.
    pub last_insert_id: Option<i64>,
    /// Rows fetched from storage while executing — the executor's work
    /// measure, consumed by the cost model.
    pub rows_examined: u64,
}

/// One changed row, as a write records it and the row binlog ships it.
/// Images are the table's own `Arc<[Value]>` handles, so recording a row,
/// shipping it and fanning it out to slaves copies no value.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    /// Catalog key (lower-cased name) of the changed table, shared with the
    /// plan that wrote it.
    pub table: Arc<str>,
    pub kind: RowChangeKind,
}

/// Kind of row mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum RowChangeKind {
    Insert {
        row: Arc<[Value]>,
    },
    Update {
        before: Arc<[Value]>,
        after: Arc<[Value]>,
    },
    Delete {
        row: Arc<[Value]>,
    },
}

/// The write record: every row a statement (or an open transaction)
/// changed, in order, with its row id. The engine undoes it in reverse when
/// a statement fails or a transaction rolls back, and a row-logging master
/// ships its changes as one `Rows` event at commit.
pub type WriteLog = Vec<(RowId, RowChange)>;

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// One table a statement names, as the binder sees it: the name it binds
/// in the statement and its columns. Column names are the table's shared
/// list ([`Table::col_names`]): binding a table costs a refcount bump, not
/// one `String` clone per column. Bindings live only while a statement is
/// bound; execution reads rows by position.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    name: String,
    columns: std::sync::Arc<[String]>,
}

impl Binding {
    pub(crate) fn new(name: &str, table: &Table) -> Self {
        Binding {
            name: name.to_string(),
            columns: table.col_names(),
        }
    }
}

// ---------------------------------------------------------------------------
// Candidate iteration (access paths)
// ---------------------------------------------------------------------------

/// Candidate rows for one table access. A primary-key probe holds its one
/// row; index postings are iterated in place instead of materializing a
/// fresh `Vec` per access; full scans iterate storage directly, skipping
/// both the row-id `Vec` and the per-id lookup an id list would cost.
enum Cands<'t> {
    One(Option<(RowId, &'t [Value])>),
    Postings(&'t Table, Postings<'t>),
    Ids(&'t Table, std::vec::IntoIter<RowId>),
    Scan(crate::storage::ScanIter<'t>),
}

impl<'t> Iterator for Cands<'t> {
    type Item = (RowId, &'t [Value]);

    #[inline]
    fn next(&mut self) -> Option<(RowId, &'t [Value])> {
        match self {
            Cands::One(hit) => hit.take(),
            Cands::Postings(table, ids) => ids.find_map(|rid| Some((rid, table.get(rid)?))),
            Cands::Ids(table, ids) => ids.find_map(|rid| Some((rid, table.get(rid)?))),
            Cands::Scan(rows) => rows.next(),
        }
    }
}

/// Does an index equality probe with `key` on a column of type `ty` decide
/// `col = key`, so that the executor need not evaluate the predicate on the
/// candidates? Stored values carry their column's type (`Table::validate`
/// coerces), and for these pairs the index's `index_cmp` equality is
/// `sql_cmp` equality. Any pair involving DOUBLE is not exact: the integer
/// index rounds a probe (`2.0` finds `2`) and `index_cmp` calls a TIMESTAMP
/// and a DOUBLE equal where `sql_cmp` calls them incomparable.
fn probe_is_exact(ty: DataType, key: &Value) -> bool {
    matches!(
        (ty, key),
        (
            DataType::Int | DataType::Timestamp,
            Value::Int(_) | Value::Timestamp(_)
        ) | (DataType::Text, Value::Text(_))
            | (DataType::Bool, Value::Bool(_))
    )
}

/// A planned access path resolved against the live table once per
/// statement: the primary key's type, or the index's view. A cached plan
/// is re-planned after any DDL on its tables, so the key or index it names
/// exists; a missing one is an error, not a panic.
#[derive(Clone, Copy)]
enum Access<'a, 't> {
    Scan,
    PkEq {
        key: &'a Expr,
        ty: DataType,
    },
    IndexEq {
        key: &'a Expr,
        ty: DataType,
        index: IndexView<'t>,
    },
    PkRange {
        lo: &'a Option<(Expr, bool)>,
        hi: &'a Option<(Expr, bool)>,
    },
    IndexRange {
        index: IndexView<'t>,
        lo: &'a Option<(Expr, bool)>,
        hi: &'a Option<(Expr, bool)>,
    },
}

impl<'a, 't> Access<'a, 't> {
    /// `path` resolved against `table`.
    fn resolve(table: &'t Table, path: &'a Path) -> Result<Self, SqlError> {
        let schema = table.schema();
        let gone = |what: &str| {
            SqlError::Unsupported(format!(
                "the plan probes a {what} '{}' does not have",
                schema.name
            ))
        };
        let index = |column: usize| table.index_on(column).ok_or_else(|| gone("index"));
        Ok(match path {
            Path::FullScan => Access::Scan,
            Path::PkEq { key } => {
                let pk = schema.pk_index().ok_or_else(|| gone("primary key"))?;
                let ty = schema.columns[pk].ty;
                Access::PkEq { key, ty }
            }
            Path::IndexEq { column, key } => Access::IndexEq {
                key,
                ty: schema.columns[*column].ty,
                index: index(*column)?,
            },
            Path::PkRange { lo, hi } => Access::PkRange { lo, hi },
            Path::IndexRange { column, lo, hi } => Access::IndexRange {
                index: index(*column)?,
                lo,
                hi,
            },
        })
    }

    /// The candidate rows of `table` for one scope row, and whether the
    /// probe was exact ([`probe_is_exact`]; range probes and scans never
    /// are). The planner only accepts keys over earlier bindings, so a key
    /// always evaluates in `scope`.
    fn candidates(
        self,
        table: &'t Table,
        ctx: &EvalCtx,
        scope: &[Option<&[Value]>],
    ) -> Result<(Cands<'t>, bool), SqlError> {
        Ok(match self {
            Access::Scan => (Cands::Scan(table.scan()), false),
            // Keys evaluate through the borrowing evaluator: an equality
            // probe against a `Text` literal or parameter must not clone the
            // string just to hash it.
            Access::PkEq { key, ty } => {
                let v = eval_cow(key, ctx, scope)?;
                let rid = if v.is_null() {
                    None
                } else {
                    table.pk_lookup(&v)
                };
                let hit = rid.and_then(|rid| Some((rid, table.get(rid)?)));
                (Cands::One(hit), probe_is_exact(ty, &v))
            }
            Access::IndexEq { key, ty, index } => {
                let v = eval_cow(key, ctx, scope)?;
                let cands = if v.is_null() {
                    Cands::One(None)
                } else {
                    Cands::Postings(table, index.lookup_eq(&v))
                };
                (cands, probe_is_exact(ty, &v))
            }
            Access::PkRange { lo, hi } => {
                let (lo, hi) = (eval_bound(lo, ctx, scope)?, eval_bound(hi, ctx, scope)?);
                match table.pk_range(as_bound(&lo), as_bound(&hi)) {
                    Some(rids) => (Cands::Ids(table, rids), false),
                    None => (Cands::Scan(table.scan()), false),
                }
            }
            Access::IndexRange { index, lo, hi } => {
                let (lo, hi) = (eval_bound(lo, ctx, scope)?, eval_bound(hi, ctx, scope)?);
                let rids: Vec<RowId> = index.lookup_range(as_bound(&lo), as_bound(&hi)).collect();
                (Cands::Ids(table, rids.into_iter()), false)
            }
        })
    }
}

type EvaluatedBound = Option<(Value, bool)>;

/// Evaluate one range bound; a NULL bound leaves its side unbounded (the
/// predicate, evaluated on every candidate, then rejects them all).
fn eval_bound(
    bound: &Option<(Expr, bool)>,
    ctx: &EvalCtx,
    scope: &[Option<&[Value]>],
) -> Result<EvaluatedBound, SqlError> {
    let Some((e, inclusive)) = bound else {
        return Ok(None);
    };
    let v = eval(e, ctx, scope)?;
    Ok((!v.is_null()).then_some((v, *inclusive)))
}

fn as_bound(b: &EvaluatedBound) -> Bound<&Value> {
    match b {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(v),
        Some((v, false)) => Bound::Excluded(v),
    }
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

/// One planned FROM source. The table is recorded by catalog key rather than
/// by reference so the plan owns no borrows and can be cached; execution
/// re-resolves the key against the live catalog.
#[derive(Debug, Clone)]
struct PlannedSource {
    /// Lower-cased catalog key.
    table_key: String,
    kind: JoinKind,
    /// Conjuncts of the ON predicate. Empty for the base table, whose
    /// predicate is the plan's WHERE.
    on: Vec<Expr>,
    path: Path,
    /// The conjunct of this source's predicate that `path` probes for: an
    /// exact probe has decided it, so only the others are evaluated.
    consumed: Option<usize>,
}

/// One ORDER BY key, located at plan time.
#[derive(Debug, Clone)]
struct SortKey {
    src: KeySrc,
    desc: bool,
}

#[derive(Debug, Clone)]
enum KeySrc {
    /// A plain column, or a bare aggregate (a column of a group's aggregate
    /// entry): compared in place in the borrowed scope row.
    Stored { binding: usize, col: usize },
    /// Anything else: evaluated once per row into slot `slot` of that row's
    /// stretch of the computed-key buffer. A key that names an output
    /// column carries that item's expression.
    Computed { expr: Expr, slot: usize },
}

/// A fully planned SELECT — everything about the statement that does not
/// depend on row data: FROM sources with access paths over positional keys,
/// predicates split into conjuncts, the expanded projection list, the
/// aggregate calls and the located sort keys.
///
/// Every expression reads one scope row: an entry per FROM source and, when
/// the SELECT aggregates, one more, entry `sources.len()`, holding a group's
/// aggregate values in `aggs` order.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    sources: Vec<PlannedSource>,
    /// Conjuncts of the WHERE predicate.
    filter: Vec<Expr>,
    out_cols: std::sync::Arc<[String]>,
    item_exprs: Vec<(Expr, String)>, // (expr, name) expanded
    /// `Some` when the SELECT aggregates (GROUP BY, HAVING, or an aggregate
    /// in its select list): every distinct aggregate call of its select
    /// list, HAVING and ORDER BY, in the order the binder met them.
    aggs: Option<Vec<AggSpec>>,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    order_by: Vec<SortKey>,
    /// Number of [`KeySrc::Computed`] keys in `order_by`.
    computed_keys: usize,
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
    /// The SELECT neither aggregates nor is DISTINCT, and its select list
    /// and ORDER BY keys are all columns or literals: nothing after the join
    /// can fail or change `rows_examined`, so [`examine_select_planned`]
    /// may count the join's rows instead of building the answer.
    plain_output: bool,
}

/// The rows an UPDATE or DELETE touches: its WHERE conjuncts bound to the
/// statement's one table, and the access path chosen for them.
#[derive(Debug)]
pub struct RowScan {
    /// Lower-cased catalog key, shared with every row change it records.
    table_key: Arc<str>,
    filter: Vec<Expr>,
    path: Path,
    /// The conjunct an exact probe on `path` decides (as in a SELECT source).
    consumed: Option<usize>,
}

/// A bound UPDATE: the rows to change and, per SET clause, the column it
/// writes and its expression over the old row.
#[derive(Debug)]
pub struct UpdatePlan {
    scan: RowScan,
    sets: Vec<(usize, Expr)>,
}

/// A bound INSERT: the schema position each value of a row fills, and the
/// rows of value expressions (which can name no column).
#[derive(Debug)]
pub struct InsertPlan {
    /// Lower-cased catalog key, shared with every row change it records.
    table_key: Arc<str>,
    positions: Vec<usize>,
    rows: Vec<Vec<Expr>>,
}

/// A statement as prepare leaves it. Every statement that reads or writes
/// rows is bound: its column names are positions and its access paths are
/// chosen. DDL and transaction control run from the parsed statement.
#[derive(Debug)]
pub enum Plan {
    Select(SelectPlan),
    /// EXPLAIN's answer, which depends only on the SELECT's plan.
    Explain(QueryResult),
    Insert(InsertPlan),
    Update(UpdatePlan),
    Delete(RowScan),
    Unbound(Statement),
}

/// `(catalog key, schema serial at bind time)` of every table a plan binds.
/// A cached plan is stale once any of these serials has moved.
pub type Deps = Vec<(String, u64)>;

/// Bind a parsed statement against the catalog. This is the engine's one
/// binder: every table and column a row statement names resolves here, once
/// per prepare, and execution reads positions only. An unknown table is an
/// [`SqlError::UnknownTable`] and an unknown or ambiguous column an
/// [`SqlError::UnknownColumn`], whether or not the statement would touch a
/// row. Returns the plan and the tables it depends on.
pub(crate) fn bind(catalog: &Catalog, stmt: Statement) -> Result<(Plan, Deps), SqlError> {
    let mut deps = Deps::new();
    let plan = match stmt {
        Statement::Select(sel) => Plan::Select(plan_select(catalog, &sel, &mut deps)?),
        Statement::Explain(sel) => {
            let plan = plan_select(catalog, &sel, &mut deps)?;
            Plan::Explain(explain(&plan, &sel))
        }
        Statement::Insert {
            table,
            columns,
            mut rows,
        } => {
            let (table_key, t) = bind_table(catalog, &table, &mut deps)?;
            let positions: Vec<usize> = if columns.is_empty() {
                (0..t.schema().arity()).collect()
            } else {
                let positions = columns
                    .iter()
                    .map(|c| column_index(t, c))
                    .collect::<Result<Vec<_>, _>>()?;
                for (i, c) in columns.iter().enumerate() {
                    if positions[..i].contains(&positions[i]) {
                        return Err(SqlError::Constraint(format!(
                            "column '{c}' specified twice"
                        )));
                    }
                }
                positions
            };
            for row in &mut rows {
                if row.len() != positions.len() {
                    return Err(SqlError::Constraint(format!(
                        "INSERT has {} values for {} columns",
                        row.len(),
                        positions.len()
                    )));
                }
                for e in row {
                    resolve_columns(e, &[])?;
                }
            }
            Plan::Insert(InsertPlan {
                table_key: table_key.into(),
                positions,
                rows,
            })
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let (table_key, t) = bind_table(catalog, &table, &mut deps)?;
            let bindings = [Binding::new(&table, t)];
            let sets = sets
                .into_iter()
                .map(|(c, mut e)| {
                    let pos = column_index(t, &c)?;
                    resolve_columns(&mut e, &bindings)?;
                    Ok((pos, e))
                })
                .collect::<Result<_, SqlError>>()?;
            let scan = bind_scan(table_key, t, &bindings, filter)?;
            Plan::Update(UpdatePlan { scan, sets })
        }
        Statement::Delete { table, filter } => {
            let (table_key, t) = bind_table(catalog, &table, &mut deps)?;
            Plan::Delete(bind_scan(table_key, t, &[Binding::new(&table, t)], filter)?)
        }
        other => Plan::Unbound(other),
    };
    Ok((plan, deps))
}

/// Look up a table the statement names, recording it in `deps`; returns
/// its catalog key.
fn bind_table<'c>(
    catalog: &'c Catalog,
    name: &str,
    deps: &mut Deps,
) -> Result<(String, &'c Table), SqlError> {
    let table = get_table(catalog, name)?;
    let key = table_key(name).into_owned();
    deps.push((key.clone(), table.schema_serial()));
    Ok((key, table))
}

/// The schema position of column `name` of `table`.
pub(crate) fn column_index(table: &Table, name: &str) -> Result<usize, SqlError> {
    table
        .schema()
        .column_index(name)
        .ok_or_else(|| SqlError::UnknownColumn(name.to_string()))
}

/// Bind the WHERE of an UPDATE or DELETE and choose its access path.
fn bind_scan(
    table_key: String,
    table: &Table,
    bindings: &[Binding],
    filter: Option<Expr>,
) -> Result<RowScan, SqlError> {
    let filter = bound_conjuncts(filter, bindings)?;
    let (path, consumed) = choose_path(table, 0, &filter);
    Ok(RowScan {
        table_key: table_key.into(),
        filter,
        path,
        consumed,
    })
}

/// The `(binding, column)` position that `qualifier.name`, or a bare `name`,
/// names among `bindings`. A qualifier picks the first binding of that name;
/// a bare name must be a column of exactly one binding.
fn column_position(
    bindings: &[Binding],
    qualifier: Option<&str>,
    name: &str,
) -> Result<(usize, usize), SqlError> {
    let col = |b: &Binding| b.columns.iter().position(|c| c.eq_ignore_ascii_case(name));
    match qualifier {
        Some(q) => bindings
            .iter()
            .position(|b| b.name.eq_ignore_ascii_case(q))
            .and_then(|i| Some((i, col(&bindings[i])?))),
        None => {
            let mut hits = bindings
                .iter()
                .enumerate()
                .filter_map(|(i, b)| Some((i, col(b)?)));
            let hit = hits.next();
            if hits.next().is_some() {
                return Err(SqlError::UnknownColumn(format!(
                    "ambiguous column '{name}'"
                )));
            }
            hit
        }
    }
    .ok_or_else(|| unknown_column(qualifier, name))
}

/// Rewrite every [`Expr::Column`] in `e` into the positional
/// [`Expr::Resolved`] it names among `bindings`, the statement's tables in
/// FROM order (none for INSERT values). This is the engine's only name
/// lookup; an unknown or ambiguous name is an [`SqlError::UnknownColumn`].
/// `e` may call no aggregate.
pub(crate) fn resolve_columns(e: &mut Expr, bindings: &[Binding]) -> Result<(), SqlError> {
    bind_expr(e, bindings, None)
}

/// [`resolve_columns`], where `aggs` is `Some` in the positions an
/// aggregating SELECT folds groups for (its select list, HAVING and ORDER
/// BY). There each aggregate call is entered in `aggs` once and becomes
/// column `i` of scope entry `bindings.len()`, which holds a group's
/// aggregate values. An aggregate anywhere else fails the statement.
fn bind_expr(
    e: &mut Expr,
    bindings: &[Binding],
    mut aggs: Option<&mut Vec<AggSpec>>,
) -> Result<(), SqlError> {
    match e {
        Expr::Column { qualifier, name } => {
            let (binding, col) = column_position(bindings, qualifier.as_deref(), name)?;
            *e = Expr::Resolved { binding, col };
        }
        Expr::Func { name, args, star } => match (AggKind::of(name), aggs) {
            (None, mut aggs) => {
                for a in args {
                    bind_expr(a, bindings, aggs.as_deref_mut())?;
                }
            }
            (Some(_), None) => return Err(misplaced_aggregate(name)),
            (Some(kind), Some(aggs)) => {
                let arg = match (kind, *star, args.as_mut_slice()) {
                    (AggKind::Count, true, _) => None,
                    (_, true, _) => {
                        return Err(SqlError::Parse(format!("{name}(*) is not a function")))
                    }
                    (_, false, [arg]) => {
                        resolve_columns(arg, bindings)?;
                        Some(arg.clone())
                    }
                    (_, false, args) => {
                        return Err(SqlError::BadParameter(format!(
                            "{name} expects 1 argument(s), got {}",
                            args.len()
                        )))
                    }
                };
                let spec = AggSpec { kind, arg };
                let col = match aggs.iter().position(|a| *a == spec) {
                    Some(col) => col,
                    None => {
                        aggs.push(spec);
                        aggs.len() - 1
                    }
                };
                *e = Expr::Resolved {
                    binding: bindings.len(),
                    col,
                };
            }
        },
        Expr::Unary(_, inner) | Expr::IsNull { expr: inner, .. } => {
            bind_expr(inner, bindings, aggs)?
        }
        Expr::Binary(a, _, b)
        | Expr::Like {
            expr: a,
            pattern: b,
            ..
        } => {
            bind_expr(a, bindings, aggs.as_deref_mut())?;
            bind_expr(b, bindings, aggs)?;
        }
        Expr::InList { expr, list, .. } => {
            bind_expr(expr, bindings, aggs.as_deref_mut())?;
            for i in list {
                bind_expr(i, bindings, aggs.as_deref_mut())?;
            }
        }
        Expr::Between { expr, lo, hi } => {
            bind_expr(expr, bindings, aggs.as_deref_mut())?;
            bind_expr(lo, bindings, aggs.as_deref_mut())?;
            bind_expr(hi, bindings, aggs)?;
        }
        Expr::Literal(_) | Expr::Param(_) | Expr::Resolved { .. } => {}
    }
    Ok(())
}

/// A predicate as the planner and executor want it: names resolved to
/// positions, split into conjuncts.
fn bound_conjuncts(pred: Option<Expr>, bindings: &[Binding]) -> Result<Vec<Expr>, SqlError> {
    let Some(mut pred) = pred else {
        return Ok(Vec::new());
    };
    resolve_columns(&mut pred, bindings)?;
    Ok(into_conjuncts(pred))
}

/// Plan a SELECT: resolve tables and column names, choose access paths,
/// expand the projection, enter the aggregate calls, locate the sort keys.
/// Everything here depends only on catalog schemas and index definitions,
/// so the result stays valid until a schema-affecting DDL runs.
fn plan_select(
    catalog: &Catalog,
    sel: &SelectStmt,
    deps: &mut Deps,
) -> Result<SelectPlan, SqlError> {
    // FROM: every binding first, so that predicates resolve against all.
    let mut refs: Vec<(&TableRef, JoinKind, Option<&Expr>)> = Vec::new();
    if let Some(from) = &sel.from {
        refs.push((&from.base, JoinKind::Inner, None));
        refs.extend(from.joins.iter().map(|j| (&j.table, j.kind, Some(&j.on))));
    }
    let mut tables: Vec<(String, &Table)> = Vec::with_capacity(refs.len());
    let mut bindings: Vec<Binding> = Vec::with_capacity(refs.len());
    for (r, ..) in &refs {
        let (key, table) = bind_table(catalog, &r.table, deps)?;
        bindings.push(Binding::new(r.binding(), table));
        tables.push((key, table));
    }
    let filter = bound_conjuncts(sel.filter.clone(), &bindings)?;
    let mut sources: Vec<PlannedSource> = Vec::with_capacity(refs.len());
    for (i, ((_, kind, on), (table_key, table))) in refs.iter().zip(tables).enumerate() {
        let on = bound_conjuncts(on.cloned(), &bindings)?;
        let (path, consumed) = choose_path(table, i, if i == 0 { &filter } else { &on });
        sources.push(PlannedSource {
            table_key,
            kind: *kind,
            on,
            path,
            consumed,
        });
    }

    if sel.having.is_some() && sel.group_by.is_empty() {
        return Err(SqlError::Unsupported(
            "HAVING requires GROUP BY in this engine".into(),
        ));
    }
    let aggregating = !sel.group_by.is_empty()
        || sel.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });
    let mut aggs = aggregating.then(Vec::new);

    // Output columns.
    let mut out_cols: Vec<String> = Vec::new();
    let mut item_exprs: Vec<(Expr, String)> = Vec::new(); // (expr, name) expanded
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (binding, b) in bindings.iter().enumerate() {
                    for (col, c) in b.columns.iter().enumerate() {
                        out_cols.push(c.clone());
                        item_exprs.push((Expr::Resolved { binding, col }, c.clone()));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    Expr::Func { name, .. } => name.to_ascii_lowercase(),
                    _ => format!("col{}", i + 1),
                });
                out_cols.push(name.clone());
                let mut expr = expr.clone();
                bind_expr(&mut expr, &bindings, aggs.as_mut())?;
                item_exprs.push((expr, name));
            }
        }
    }

    let mut group_by = sel.group_by.clone();
    for g in &mut group_by {
        resolve_columns(g, &bindings)?;
    }
    let mut having = sel.having.clone();
    if let Some(h) = &mut having {
        bind_expr(h, &bindings, aggs.as_mut())?;
    }

    // ORDER BY keys resolve output names ahead of table columns; a key that
    // names an output column sorts by that item's expression.
    let mut computed_keys = 0;
    let mut order_by = Vec::with_capacity(sel.order_by.len());
    for ok in &sel.order_by {
        let output = match &ok.expr {
            Expr::Column {
                qualifier: None,
                name,
            } => out_cols.iter().position(|c| c.eq_ignore_ascii_case(name)),
            _ => None,
        };
        let expr = match output {
            Some(pos) => item_exprs[pos].0.clone(),
            None => {
                let mut expr = ok.expr.clone();
                bind_expr(&mut expr, &bindings, aggs.as_mut())?;
                expr
            }
        };
        let src = match expr {
            Expr::Resolved { binding, col } => KeySrc::Stored { binding, col },
            expr => {
                computed_keys += 1;
                KeySrc::Computed {
                    expr,
                    slot: computed_keys - 1,
                }
            }
        };
        order_by.push(SortKey { src, desc: ok.desc });
    }
    let plain = |e: &Expr| matches!(e, Expr::Resolved { .. } | Expr::Literal(_));
    let plain_output = aggs.is_none()
        && !sel.distinct
        && item_exprs.iter().all(|(e, _)| plain(e))
        && order_by.iter().all(|k| match &k.src {
            KeySrc::Stored { .. } => true,
            KeySrc::Computed { expr, .. } => plain(expr),
        });

    Ok(SelectPlan {
        sources,
        filter,
        out_cols: out_cols.into(),
        item_exprs,
        aggs,
        group_by,
        having,
        order_by,
        computed_keys,
        distinct: sel.distinct,
        limit: sel.limit,
        offset: sel.offset,
        plain_output,
    })
}

/// One aggregation group: accumulators plus the representative scope row
/// (the group's first, which non-aggregate expressions read).
type AggGroup<'t> = (Vec<AggAcc>, Vec<Option<&'t [Value]>>);

/// Sink receiving each surviving scope row from the join driver.
type RowSink<'s, 't> = dyn FnMut(&[Option<&'t [Value]>]) -> Result<(), SqlError> + 's;

/// SQL AND over `conjuncts` except `skip`, as the AND tree they were split
/// from evaluates it: in order, every conjunct up to the first False.
fn all_true(
    conjuncts: &[Expr],
    skip: Option<usize>,
    ctx: &EvalCtx,
    scope: &[Option<&[Value]>],
) -> Result<bool, SqlError> {
    let mut all = true;
    for (i, conjunct) in conjuncts.iter().enumerate() {
        if Some(i) != skip {
            match eval_truth(conjunct, ctx, scope)? {
                Truth::True => {}
                Truth::False => return Ok(false),
                Truth::Unknown => all = false,
            }
        }
    }
    Ok(all)
}

/// Scope rows per batch between two join stages: enough independent outer
/// rows for their probes' cache misses to overlap, few enough that a
/// statement's batches stay a few KiB.
const BATCH: usize = 32;

/// One FROM source as the join runs it: its table, re-resolved against the
/// live catalog, and its access path, resolved against that table.
#[derive(Clone, Copy)]
struct Stage<'a, 't> {
    src: &'a PlannedSource,
    table: &'t Table,
    access: Access<'a, 't>,
}

/// Index-nested-loop join over the planned sources, run stage by stage
/// over batches of scope rows. Stage `k` binds source `k`: it expands each
/// scope row of its input batch, in order, into its output batch — one row
/// per candidate that passes the ON predicate, or the null-extended row of
/// a LEFT JOIN that has none — and hands a full batch to stage `k + 1`
/// before it continues. The last stage hands each row straight to WHERE
/// and the sink. So the sink sees the rows of a depth-first nested loop, in
/// its order, and every candidate is fetched and counted once, as there;
/// but up to [`BATCH`] independent outer rows probe back to back, and
/// their cache misses overlap (a primary-key stage probes its whole batch
/// in phases: [`Join::probe_pk`]).
///
/// A stage that fails first pushes the rows it has produced through the
/// later stages and the sink: a failure there comes earlier in depth-first
/// order, so the error returned is the one a nested loop returns.
///
/// Rows are borrowed straight out of storage; nothing is cloned until a
/// sink decides it must keep something.
struct Join<'a, 't> {
    plan: &'a SelectPlan,
    stages: Vec<Stage<'a, 't>>,
    ctx: &'a EvalCtx<'a>,
    /// The WHERE conjunct the base table's probe has decided, if it has.
    where_skip: Option<usize>,
    /// Every row fetched from storage, whatever became of it.
    rows_examined: u64,
}

/// Scope rows, `stages.len()` entries each, end to end.
type Batch<'t> = [Option<&'t [Value]>];

/// Where a stage puts the rows it produces: its output batch, the rows of it
/// filled so far, and the batches of the stages after it.
struct Output<'b, 't> {
    batch: &'b mut Batch<'t>,
    filled: usize,
    rest: &'b mut Batch<'t>,
}

impl<'a, 't> Join<'a, 't> {
    /// The join of `plan`, its tables re-resolved against the live catalog
    /// and their access paths against the tables.
    fn new(
        catalog: &'t Catalog,
        plan: &'a SelectPlan,
        ctx: &'a EvalCtx<'a>,
    ) -> Result<Self, SqlError> {
        let stages = plan
            .sources
            .iter()
            .map(|src| {
                let table = catalog
                    .get(&src.table_key)
                    .ok_or_else(|| SqlError::UnknownTable(src.table_key.clone()))?;
                let access = Access::resolve(table, &src.path)?;
                Ok(Stage { src, table, access })
            })
            .collect::<Result<_, SqlError>>()?;
        Ok(Join {
            plan,
            stages,
            ctx,
            where_skip: None,
            rows_examined: 0,
        })
    }

    /// Feed each joined scope row that passes WHERE to `sink`.
    fn run(&mut self, sink: &mut RowSink<'_, 't>) -> Result<(), SqlError> {
        let width = self.stages.len();
        if width == 0 {
            // A FROM-less SELECT yields exactly one row, over an empty scope.
            return sink(&[]);
        }
        // One allocation: the empty scope row stage 0 expands, then the
        // output batch of every stage but the last.
        let mut rows = vec![None; width + (width - 1) * BATCH * width];
        let (root, batches) = rows.split_at_mut(width);
        self.stage(0, root, batches, sink)
    }

    /// Run stage `k` over the scope rows of `input`; `batches` holds the
    /// output batches of stages `k..`.
    fn stage(
        &mut self,
        k: usize,
        input: &mut Batch<'t>,
        batches: &mut Batch<'t>,
        sink: &mut RowSink<'_, 't>,
    ) -> Result<(), SqlError> {
        let width = self.stages.len();
        let last = k + 1 == width;
        let (batch, rest) = batches.split_at_mut(if last { 0 } else { BATCH * width });
        let out = &mut Output {
            batch,
            filled: 0,
            rest,
        };
        let Stage { table, access, .. } = self.stages[k];
        let expanded = match access {
            Access::PkEq { key, ty } => self.probe_pk(k, key, ty, input, out, sink),
            _ => input.chunks_exact_mut(width).try_for_each(|scope| {
                let (cands, exact) = access.candidates(table, self.ctx, scope)?;
                let cands = cands.map(|(_rid, row)| row);
                self.bind(k, scope, cands, exact, out, sink)
            }),
        };
        // On a failure, the rows produced before it go first.
        self.flush(k, out, sink)?;
        expanded
    }

    /// Stage `k` over a primary-key probe, in phases over the whole batch:
    /// evaluate every key, probe the key index with each, fetch each hit,
    /// then bind each row to its hit in order. Each phase is a short loop
    /// whose iterations do not wait on each other, so the cache misses of
    /// up to [`BATCH`] probes overlap. A key that fails ends the first
    /// phase; the rows before it still bind, and its error follows theirs.
    fn probe_pk(
        &mut self,
        k: usize,
        key: &Expr,
        ty: DataType,
        input: &mut Batch<'t>,
        out: &mut Output<'_, 't>,
        sink: &mut RowSink<'_, 't>,
    ) -> Result<(), SqlError> {
        let (table, width) = (self.stages[k].table, self.stages.len());
        let mut rids: [(Option<RowId>, bool); BATCH] = [(None, false); BATCH];
        let mut probed = 0;
        let mut failed = Ok(());
        {
            let mut keys: [Cow<Value>; BATCH] = [const { Cow::Borrowed(&NULL_VALUE) }; BATCH];
            for scope in input.chunks_exact(width) {
                match eval_cow(key, self.ctx, scope) {
                    Ok(v) => keys[probed] = v,
                    Err(e) => {
                        failed = Err(e);
                        break;
                    }
                }
                probed += 1;
            }
            for (rid, v) in rids.iter_mut().zip(&keys[..probed]) {
                let hit = if v.is_null() {
                    None
                } else {
                    table.pk_lookup(v)
                };
                *rid = (hit, probe_is_exact(ty, v));
            }
        }
        let mut hits: [(Option<&'t [Value]>, bool); BATCH] = [(None, false); BATCH];
        for (hit, &(rid, exact)) in hits.iter_mut().zip(&rids[..probed]) {
            *hit = (rid.and_then(|rid| table.get(rid)), exact);
        }
        for (scope, &(hit, exact)) in input.chunks_exact_mut(width).zip(&hits[..probed]) {
            self.bind(k, scope, hit, exact, out, sink)?;
        }
        failed
    }

    /// Bind source `k` of `scope` to each of its candidates in turn, and
    /// emit each scope row that passes the ON predicate; `exact` says
    /// whether the probe that found them was.
    fn bind(
        &mut self,
        k: usize,
        scope: &mut [Option<&'t [Value]>],
        cands: impl IntoIterator<Item = &'t [Value]>,
        exact: bool,
        out: &mut Output<'_, 't>,
        sink: &mut RowSink<'_, 't>,
    ) -> Result<(), SqlError> {
        let (src, ctx) = (self.stages[k].src, self.ctx);
        // An exact probe has decided its conjunct for every candidate; the
        // rest of the predicate (the path may be a superset) is evaluated.
        let skip = if exact { src.consumed } else { None };
        if k == 0 {
            self.where_skip = skip;
        }
        let mut matched = false;
        for row in cands {
            self.rows_examined += 1;
            scope[k] = Some(row);
            if all_true(&src.on, skip, ctx, scope)? {
                matched = true;
                self.emit(k, scope, out, sink)?;
            }
        }
        scope[k] = None;
        if !matched && src.kind == JoinKind::Left {
            self.emit(k, scope, out, sink)?;
        }
        Ok(())
    }

    /// Emit a scope row stage `k` produced: into its output batch, which
    /// runs through stage `k + 1` once full, or, from the last stage, to
    /// WHERE and the sink.
    fn emit(
        &mut self,
        k: usize,
        scope: &[Option<&'t [Value]>],
        out: &mut Output<'_, 't>,
        sink: &mut RowSink<'_, 't>,
    ) -> Result<(), SqlError> {
        let width = self.stages.len();
        if k + 1 == width {
            if all_true(&self.plan.filter, self.where_skip, self.ctx, scope)? {
                sink(scope)?;
            }
            return Ok(());
        }
        out.batch[out.filled * width..][..width].copy_from_slice(scope);
        out.filled += 1;
        if out.filled == BATCH {
            self.flush(k, out, sink)?;
        }
        Ok(())
    }

    /// Run the rows of stage `k`'s output batch through the later stages,
    /// emptying it first: after a failure there, nothing is left to flush.
    fn flush(
        &mut self,
        k: usize,
        out: &mut Output<'_, 't>,
        sink: &mut RowSink<'_, 't>,
    ) -> Result<(), SqlError> {
        let rows = std::mem::take(&mut out.filled) * self.stages.len();
        if rows == 0 {
            return Ok(());
        }
        self.stage(k + 1, &mut out.batch[..rows], out.rest, sink)
    }
}

/// Evaluate the projection list over one scope row.
fn project(
    plan: &SelectPlan,
    ctx: &EvalCtx,
    scope_rows: &[Option<&[Value]>],
) -> Result<Vec<Value>, SqlError> {
    let mut out_row = Vec::with_capacity(plan.item_exprs.len());
    for (e, _) in &plan.item_exprs {
        out_row.push(eval(e, ctx, scope_rows)?);
    }
    Ok(out_row)
}

/// Apply ORDER BY, then OFFSET / LIMIT, to the row numbers in `order`
/// (ascending = emission order); `key(row, k)` is row `row`'s `k`-th sort
/// key. The row number is the last sort key, so ties keep emission order
/// and an unstable sort is as good as a stable one; with a LIMIT only the
/// rows up to the window's end are selected and sorted.
fn sorted_window<'v>(
    mut order: Vec<usize>,
    plan: &SelectPlan,
    key: impl Fn(usize, usize) -> &'v Value,
) -> Vec<usize> {
    let start = (plan.offset.unwrap_or(0) as usize).min(order.len());
    let end = match plan.limit {
        Some(limit) => start.saturating_add(limit as usize).min(order.len()),
        None => order.len(),
    };
    if !plan.order_by.is_empty() {
        let cmp = |a: &usize, b: &usize| {
            for (k, sk) in plan.order_by.iter().enumerate() {
                let ord = key(*a, k).index_cmp(key(*b, k));
                if ord != std::cmp::Ordering::Equal {
                    return if sk.desc { ord.reverse() } else { ord };
                }
            }
            a.cmp(b)
        };
        if end < order.len() {
            order.select_nth_unstable_by(end, cmp);
        }
        order.truncate(end);
        order.sort_unstable_by(cmp);
    }
    order.truncate(end);
    order.drain(..start);
    order
}

/// Run a planned SELECT for what it costs: its `rows_examined` (and
/// `columns`) are those of [`exec_select_planned`]. A SELECT that neither
/// aggregates nor is DISTINCT, and whose select list and ORDER BY keys are
/// all columns or literals, runs its join — WHERE and ON evaluated as ever,
/// every candidate fetched and counted — into a sink that keeps nothing, and
/// returns no rows: none is sorted, windowed or projected. Any other SELECT
/// is executed in full, so an aggregate, DISTINCT or a computed output fails
/// exactly where it would.
pub fn examine_select_planned(
    catalog: &Catalog,
    plan: &SelectPlan,
    ctx: &EvalCtx,
) -> Result<QueryResult, SqlError> {
    if !plan.plain_output {
        return exec_select_planned(catalog, plan, ctx);
    }
    let mut join = Join::new(catalog, plan, ctx)?;
    join.run(&mut |_| Ok(()))?;
    Ok(QueryResult {
        columns: plan.out_cols.clone(),
        rows_examined: join.rows_examined,
        ..QueryResult::default()
    })
}

/// Execute a previously planned SELECT against the catalog.
pub fn exec_select_planned(
    catalog: &Catalog,
    plan: &SelectPlan,
    ctx: &EvalCtx,
) -> Result<QueryResult, SqlError> {
    let mut join = Join::new(catalog, plan, ctx)?;

    // Sorting needs every emitted row at once, so the rows are materialised
    // — but as borrowed scope rows, `width` entries each, in one flat
    // buffer, and unprojected: projection clones every value, so it waits
    // until the window is known. A plain SELECT emits the join's rows; an
    // aggregating one emits each group that passes HAVING, as its
    // representative row plus its aggregate values (`agg_rows`).
    let width = plan.sources.len() + usize::from(plan.aggs.is_some());
    let agg_rows: Vec<Vec<Value>>;
    let mut flat: Vec<Option<&[Value]>> = Vec::new();
    let mut emitted = 0;
    match &plan.aggs {
        None => join.run(&mut |scope_rows| {
            flat.extend_from_slice(scope_rows);
            emitted += 1;
            Ok(())
        })?,
        Some(aggs) => {
            let groups = fold_groups(&mut join, aggs)?;
            agg_rows = groups
                .iter()
                .map(|(accs, _)| accs.iter().map(AggAcc::finish).collect())
                .collect();
            for ((_, rep), values) in groups.iter().zip(&agg_rows) {
                let start = flat.len();
                flat.extend_from_slice(rep);
                flat.push(Some(values));
                match &plan.having {
                    Some(h) if eval_truth(h, ctx, &flat[start..])? != Truth::True => {
                        flat.truncate(start)
                    }
                    _ => emitted += 1,
                }
            }
        }
    }
    let row = |i: usize| &flat[i * width..(i + 1) * width];

    // The computed sort keys (chunks of `plan.computed_keys`) and, for
    // DISTINCT, the projected rows, one per emitted row.
    let mut computed: Vec<Value> = Vec::new();
    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    if plan.computed_keys > 0 || plan.distinct {
        for i in 0..emitted {
            for sk in &plan.order_by {
                if let KeySrc::Computed { expr, .. } = &sk.src {
                    computed.push(eval(expr, ctx, row(i))?);
                }
            }
            if plan.distinct {
                out_rows.push(project(plan, ctx, row(i))?);
            }
        }
    }

    let mut order: Vec<usize> = (0..emitted).collect();
    // DISTINCT: keep the first occurrence of each projected row.
    if plan.distinct {
        let mut seen: std::collections::HashSet<GroupKey> = std::collections::HashSet::new();
        order.retain(|&i| {
            seen.insert(GroupKey(
                out_rows[i]
                    .iter()
                    .map(|v| ValueKey::from(v.clone()))
                    .collect(),
            ))
        });
    }
    let order = sorted_window(order, plan, |i, k| match &plan.order_by[k].src {
        KeySrc::Stored { binding, col } => match row(i)[*binding] {
            Some(values) => &values[*col],
            None => &NULL_VALUE,
        },
        KeySrc::Computed { slot, .. } => &computed[i * plan.computed_keys + slot],
    });
    let mut rows = Vec::with_capacity(order.len());
    for i in order {
        rows.push(if plan.distinct {
            std::mem::take(&mut out_rows[i])
        } else {
            project(plan, ctx, row(i))?
        });
    }

    Ok(QueryResult {
        columns: plan.out_cols.clone(),
        rows,
        rows_affected: 0,
        last_insert_id: None,
        rows_examined: join.rows_examined,
    })
}

/// Run the join, folding its rows into the groups of `join.plan`'s GROUP BY
/// — in discovery order, so the index map can be an unordered `HashMap` —
/// over the aggregate calls `aggs`. Rows stream straight into
/// accumulators; only each group's first row is kept. A global aggregate
/// (no GROUP BY) skips the key hashing and yields its one group even over
/// zero rows.
fn fold_groups<'t>(
    join: &mut Join<'_, 't>,
    aggs: &[AggSpec],
) -> Result<Vec<AggGroup<'t>>, SqlError> {
    let (plan, ctx) = (join.plan, join.ctx);
    let new_accs = || aggs.iter().map(|a| AggAcc::new(a.kind)).collect();
    let mut groups: Vec<AggGroup<'t>> = Vec::new();
    let mut group_index: HashMap<GroupKey, usize> = HashMap::new();
    let global = plan.group_by.is_empty();
    join.run(&mut |scope_rows| {
        let gi = if global {
            if groups.is_empty() {
                groups.push((new_accs(), scope_rows.to_vec()));
            }
            0
        } else {
            let mut key = Vec::with_capacity(plan.group_by.len());
            for g in &plan.group_by {
                key.push(ValueKey::from(eval(g, ctx, scope_rows)?));
            }
            *group_index.entry(GroupKey(key)).or_insert_with(|| {
                groups.push((new_accs(), scope_rows.to_vec()));
                groups.len() - 1
            })
        };
        for (acc, agg) in groups[gi].0.iter_mut().zip(aggs) {
            acc.update(agg.arg.as_ref(), ctx, scope_rows)?;
        }
        Ok(())
    })?;
    if groups.is_empty() && global {
        groups.push((new_accs(), vec![None; plan.sources.len()]));
    }
    Ok(groups)
}

/// Exact-value grouping / DISTINCT key. Equality must distinguish exactly
/// what `Value`'s `Debug` formatting distinguishes — `Int(1)` ≠
/// `Double(1.0)` ≠ `Timestamp(1)`, `-0.0` ≠ `0.0` — while treating every
/// NaN as equal to itself, without allocating a formatted string per row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey(Vec<ValueKey>);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ValueKey {
    Null,
    Int(i64),
    /// `f64` bits, with every NaN normalized to one pattern.
    DoubleBits(u64),
    Text(String),
    Bool(bool),
    Timestamp(i64),
}

impl From<Value> for ValueKey {
    fn from(v: Value) -> ValueKey {
        match v {
            Value::Null => ValueKey::Null,
            Value::Int(i) => ValueKey::Int(i),
            Value::Double(d) => ValueKey::DoubleBits(if d.is_nan() {
                f64::NAN.to_bits()
            } else {
                d.to_bits()
            }),
            Value::Text(s) => ValueKey::Text(s),
            Value::Bool(b) => ValueKey::Bool(b),
            Value::Timestamp(t) => ValueKey::Timestamp(t),
        }
    }
}

/// EXPLAIN's answer: each table access of `plan`, the plan of `sel`, with
/// its chosen path.
fn explain(plan: &SelectPlan, sel: &SelectStmt) -> QueryResult {
    let mut res = QueryResult {
        columns: vec!["table".into(), "binding".into(), "access".into()].into(),
        ..QueryResult::default()
    };
    let refs = sel
        .from
        .iter()
        .flat_map(|from| std::iter::once(&from.base).chain(from.joins.iter().map(|j| &j.table)));
    for (r, src) in refs.zip(&plan.sources) {
        res.rows.push(vec![
            Value::Text(r.table.clone()),
            Value::Text(r.binding().to_string()),
            Value::Text(src.path.describe()),
        ]);
    }
    if res.rows.is_empty() {
        res.rows.push(vec![
            Value::Text("(no table)".into()),
            Value::Null,
            Value::Text("constant".into()),
        ]);
    }
    res
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// One aggregate call of a SELECT, bound at prepare: its kind and its
/// argument over the FROM bindings (`None` for `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
struct AggSpec {
    kind: AggKind,
    arg: Option<Expr>,
}

/// One aggregate's running value over a group. Every aggregate skips NULL;
/// SUM, MIN and MAX are NULL until their first value, and SUM is exact while
/// every value is an INT.
#[derive(Debug)]
enum AggAcc {
    Count(i64),
    Sum(Value),
    Avg { sum: f64, n: i64 },
    Min(Value),
    Max(Value),
}

impl AggAcc {
    fn new(kind: AggKind) -> AggAcc {
        match kind {
            AggKind::Count => AggAcc::Count(0),
            AggKind::Sum => AggAcc::Sum(Value::Null),
            AggKind::Avg => AggAcc::Avg { sum: 0.0, n: 0 },
            AggKind::Min => AggAcc::Min(Value::Null),
            AggKind::Max => AggAcc::Max(Value::Null),
        }
    }

    /// Fold in one row's value of `arg` (`None`: `COUNT(*)`, which counts
    /// every row).
    fn update(
        &mut self,
        arg: Option<&Expr>,
        ctx: &EvalCtx,
        scope: &[Option<&[Value]>],
    ) -> Result<(), SqlError> {
        let v = match arg {
            Some(arg) => eval_cow(arg, ctx, scope)?,
            None => std::borrow::Cow::Owned(Value::Int(1)),
        };
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::Sum(sum) => match v.as_ref() {
                Value::Int(_) | Value::Double(_) => {
                    let acc = if sum.is_null() { &Value::Int(0) } else { &*sum };
                    *sum = arith(acc, BinOp::Add, &v)?;
                }
                v => return Err(SqlError::TypeMismatch(format!("SUM over {v:?}"))),
            },
            AggAcc::Avg { sum, n } => {
                *sum += match v.as_ref() {
                    Value::Int(i) => *i as f64,
                    Value::Double(d) => *d,
                    v => return Err(SqlError::TypeMismatch(format!("AVG over {v:?}"))),
                };
                *n += 1;
            }
            AggAcc::Min(cur) => {
                if cur.is_null() || v.sql_cmp(cur) == Some(std::cmp::Ordering::Less) {
                    *cur = v.into_owned();
                }
            }
            AggAcc::Max(cur) => {
                if cur.is_null() || v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater) {
                    *cur = v.into_owned();
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(*n),
            AggAcc::Avg { n: 0, .. } => Value::Null,
            AggAcc::Avg { sum, n } => Value::Double(sum / *n as f64),
            AggAcc::Sum(v) | AggAcc::Min(v) | AggAcc::Max(v) => v.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

/// Execute a bound INSERT, recording each inserted row in `log`.
pub fn exec_insert(
    catalog: &mut Catalog,
    plan: &InsertPlan,
    ctx: &EvalCtx,
    log: &mut WriteLog,
) -> Result<QueryResult, SqlError> {
    let table = get_table_mut(catalog, &plan.table_key)?;
    let (arity, pk_auto) = {
        let schema = table.schema();
        let pk_auto = schema
            .pk_index()
            .filter(|&pk| schema.columns[pk].auto_increment);
        (schema.arity(), pk_auto)
    };

    let mut result = QueryResult::default();
    for value_exprs in &plan.rows {
        let mut full = vec![Value::Null; arity];
        for (pos, e) in plan.positions.iter().zip(value_exprs) {
            full[*pos] = eval(e, ctx, &[])?;
        }
        let rid = table.insert(full)?;
        let row = Arc::clone(table.handle(rid).expect("just inserted"));
        if let Some(pk) = pk_auto {
            // TIMESTAMP auto-increment keys store `Timestamp`; the assigned
            // id is still reported through last_insert_id.
            if let Value::Int(v) | Value::Timestamp(v) = row[pk] {
                result.last_insert_id = Some(v);
            }
        }
        log.push((
            rid,
            RowChange {
                table: Arc::clone(&plan.table_key),
                kind: RowChangeKind::Insert { row },
            },
        ));
        result.rows_affected += 1;
    }
    Ok(result)
}

/// The rows of `table` a bound UPDATE or DELETE matches.
fn matching_rows(
    table: &Table,
    scan: &RowScan,
    ctx: &EvalCtx,
    rows_examined: &mut u64,
) -> Result<Vec<RowId>, SqlError> {
    let access = Access::resolve(table, &scan.path)?;
    let (cands, exact) = access.candidates(table, ctx, &[None])?;
    let skip = if exact { scan.consumed } else { None };
    let mut out = Vec::new();
    for (rid, row) in cands {
        *rows_examined += 1;
        if all_true(&scan.filter, skip, ctx, &[Some(row)])? {
            out.push(rid);
        }
    }
    Ok(out)
}

/// Execute a bound UPDATE, recording each updated row in `log`.
pub fn exec_update(
    catalog: &mut Catalog,
    plan: &UpdatePlan,
    ctx: &EvalCtx,
    log: &mut WriteLog,
) -> Result<QueryResult, SqlError> {
    let key = &plan.scan.table_key;
    let table = get_table_mut(catalog, key)?;
    let mut result = QueryResult::default();
    let rids = matching_rows(table, &plan.scan, ctx, &mut result.rows_examined)?;
    for rid in rids {
        // One clone builds the new image; the SET expressions evaluate
        // against the borrowed old row.
        let old = table.get(rid).expect("matched row valid");
        let mut new_row = old.to_vec();
        for (pos, e) in &plan.sets {
            new_row[*pos] = eval(e, ctx, &[Some(old)])?;
        }
        let before = table.update(rid, new_row)?;
        let after = Arc::clone(table.handle(rid).expect("updated row valid"));
        log.push((
            rid,
            RowChange {
                table: Arc::clone(key),
                kind: RowChangeKind::Update { before, after },
            },
        ));
        result.rows_affected += 1;
    }
    Ok(result)
}

/// Execute a bound DELETE, recording each deleted row in `log`.
pub fn exec_delete(
    catalog: &mut Catalog,
    scan: &RowScan,
    ctx: &EvalCtx,
    log: &mut WriteLog,
) -> Result<QueryResult, SqlError> {
    let key = &scan.table_key;
    let table = get_table_mut(catalog, key)?;
    let mut result = QueryResult::default();
    let rids = matching_rows(table, scan, ctx, &mut result.rows_examined)?;
    for rid in rids {
        let row = table.delete(rid).expect("matched row valid");
        log.push((
            rid,
            RowChange {
                table: Arc::clone(key),
                kind: RowChangeKind::Delete { row },
            },
        ));
        result.rows_affected += 1;
    }
    Ok(result)
}
