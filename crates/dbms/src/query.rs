//! The read path: FROM resolution (views, joins, subqueries), filtering,
//! grouping/aggregation, window functions, set operations, ordering.
//!
//! Structured as a straightforward interpreter rather than a physical plan
//! tree; the planner *decisions* a real optimizer would make (index vs. seq
//! scan, stats availability, join strategy) are still modelled as coverage
//! branches so that fuzzers see an optimizer-shaped search space.

use crate::catalog::Catalog;
use crate::ctx::ExecCtx;
use crate::eval::{
    contains_aggregate, eval, is_aggregate, is_lowercase_of, upper, Bindings, EvalEnv,
};
use crate::profile::Profile;
use crate::value::{Row, Value};
use lego_coverage::{cov, site_id};
use lego_sqlast::ast::*;
use lego_sqlast::expr::*;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Output of a query.
#[derive(Clone, Debug, Default)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// The rows in a deterministic canonical order (total order via
    /// [`Value::sort_cmp`], lexicographic across columns), independent of
    /// scan/evaluation order. Oracles compare result *multisets*, so two
    /// result sets are equivalent iff their canonical rows are equal.
    pub fn canonical_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.sort_cmp(y);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            a.len().cmp(&b.len())
        });
        rows
    }

    /// An order-insensitive 64-bit digest of the result multiset
    /// (FNV-1a over the canonical rows' [`Value::key_repr`] encodings plus
    /// the column count). Equal digests ⇒ equal multisets for oracle
    /// purposes; used for cross-dialect result comparison.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(&(self.columns.len() as u64).to_le_bytes());
        for row in self.canonical_rows() {
            mix(b"\x02");
            for v in &row {
                mix(b"\x01");
                mix(v.key_repr().as_bytes());
            }
        }
        h
    }

    /// How many rows are truthy in a single-column result (the NoREC scan
    /// count). Rows whose value is NULL or false do not count.
    pub fn truthy_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.first().map(|v| v.is_truthy()).unwrap_or(false)).count()
    }
}

/// Read-path environment.
pub struct QueryEnv<'a> {
    pub cat: &'a Catalog,
    pub prof: &'a Profile,
    pub user: &'a str,
    /// View-expansion recursion guard.
    pub view_depth: usize,
}

const MAX_VIEW_DEPTH: usize = 8;
const MAX_INTERMEDIATE_ROWS: usize = 20_000;

impl<'a> QueryEnv<'a> {
    pub fn new(cat: &'a Catalog, prof: &'a Profile, user: &'a str) -> Self {
        Self { cat, prof, user, view_depth: 0 }
    }
}

/// Intermediate relation: bindings + rows. A scan borrows the stored rows;
/// joins and subqueries own theirs.
struct Rel<'a> {
    cols: Bindings<'a>,
    rows: Vec<Cow<'a, Row>>,
}

/// A binding name from an owned column name, lowercased in place.
fn owned_name(mut name: String) -> Cow<'static, str> {
    name.make_ascii_lowercase();
    Cow::Owned(name)
}

/// Reorder `rows` to the stable order of `keys`, moving them.
fn sort_rows(rows: Vec<Row>, keys: &[Vec<Value>], items: &[OrderItem]) -> Vec<Row> {
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.sort_by(|&a, &b| compare_key_rows(&keys[a], &keys[b], items));
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    idx.into_iter().map(|i| slots[i].take().expect("each row once")).collect()
}

pub fn run_query(env: &QueryEnv, ctx: &mut ExecCtx, q: &Query) -> Result<ResultSet, String> {
    cov!(ctx, 0xedf2608cb52cced5);
    let mut out = run_set_expr(env, ctx, &q.body, Some(q))?;
    // LIMIT / OFFSET after ordering (ordering handled inside run_set_expr for
    // the plain-select case; set-ops order here).
    apply_limit_offset(ctx, q, &mut out)?;
    Ok(out)
}

fn apply_limit_offset(ctx: &mut ExecCtx, q: &Query, out: &mut ResultSet) -> Result<(), String> {
    let as_count = |e: &Expr, ctx: &mut ExecCtx| -> Result<usize, String> {
        let cols: Bindings = vec![];
        let row: Vec<Value> = vec![];
        let mut env = EvalEnv { cols: &cols, row: &row, ctx, subquery: None };
        let v = eval(e, &mut env)?;
        match v.as_int() {
            Some(n) if n >= 0 => Ok(n as usize),
            Some(_) => Err("LIMIT must not be negative".into()),
            None => Err("LIMIT requires an integer".into()),
        }
    };
    if let Some(off) = &q.offset {
        cov!(ctx, 0xf1faa08cb5639316);
        let n = as_count(off, ctx)?;
        if n < out.rows.len() {
            out.rows.drain(..n);
        } else {
            out.rows.clear();
        }
    }
    if let Some(lim) = &q.limit {
        cov!(ctx, 0xf378608cb577e7cb);
        let n = as_count(lim, ctx)?;
        out.rows.truncate(n);
    }
    Ok(())
}

fn run_set_expr(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    body: &SetExpr,
    order_ctx: Option<&Query>,
) -> Result<ResultSet, String> {
    match body {
        SetExpr::Select(sel) => run_select(env, ctx, sel, order_ctx),
        SetExpr::Values(rows) => {
            cov!(ctx, 0xf6dea08cb5a62127);
            let mut out_rows = Vec::new();
            let cols: Bindings = vec![];
            let row: Vec<Value> = vec![];
            for r in rows {
                let mut out = Vec::with_capacity(r.len());
                for e in r {
                    let mut eenv = EvalEnv { cols: &cols, row: &row, ctx, subquery: None };
                    out.push(eval(e, &mut eenv)?);
                }
                out_rows.push(out);
            }
            let width = out_rows.first().map(|r| r.len()).unwrap_or(0);
            let columns = (1..=width).map(|i| format!("column{i}")).collect();
            let mut rs = ResultSet { columns, rows: out_rows };
            if let Some(q) = order_ctx {
                sort_output_rows(env, ctx, q, &mut rs)?;
            }
            Ok(rs)
        }
        SetExpr::SetOp { op, all, left, right } => {
            cov!(ctx, 0xfc9aa08cb5f41314);
            let l = run_set_expr(env, ctx, left, None)?;
            let r = run_set_expr(env, ctx, right, None)?;
            let key = |row: &Row| -> String {
                row.iter().map(|v| v.key_repr()).collect::<Vec<_>>().join("\u{1}")
            };
            let mut rows = Vec::new();
            match (op, all) {
                (SetOp::Union, true) => {
                    cov!(ctx, 0xfe15608cb6081639);
                    rows.extend(l.rows);
                    rows.extend(r.rows);
                }
                (SetOp::Union, false) => {
                    cov!(ctx, 0xfeba608cb610f2ae);
                    let mut seen = std::collections::HashSet::new();
                    for row in l.rows.into_iter().chain(r.rows) {
                        if seen.insert(key(&row)) {
                            rows.push(row);
                        }
                    }
                }
                (SetOp::Except, all) => {
                    cov!(ctx, 0x0035208cb624f5d3);
                    let mut counts: HashMap<String, usize> = HashMap::new();
                    for row in &r.rows {
                        *counts.entry(key(row)).or_default() += 1;
                    }
                    let mut emitted = std::collections::HashSet::new();
                    for row in l.rows {
                        let k = key(&row);
                        if let Some(c) = counts.get_mut(&k) {
                            if *c > 0 {
                                *c -= 1;
                                continue;
                            }
                        }
                        if *all || emitted.insert(k) {
                            rows.push(row);
                        }
                    }
                }
                (SetOp::Intersect, all) => {
                    cov!(ctx, 0x0475208cb65ec29f);
                    let mut counts: HashMap<String, usize> = HashMap::new();
                    for row in &r.rows {
                        *counts.entry(key(row)).or_default() += 1;
                    }
                    let mut emitted = std::collections::HashSet::new();
                    for row in l.rows {
                        let k = key(&row);
                        if let Some(c) = counts.get_mut(&k) {
                            if *c > 0 {
                                *c -= 1;
                                if *all || emitted.insert(k) {
                                    rows.push(row);
                                }
                            }
                        }
                    }
                }
            }
            let mut rs = ResultSet { columns: l.columns, rows };
            if let Some(q) = order_ctx {
                sort_output_rows(env, ctx, q, &mut rs)?;
            }
            Ok(rs)
        }
    }
}

// ---------------------------------------------------------------------------
// FROM resolution
// ---------------------------------------------------------------------------

fn base_relation<'a>(
    env: &QueryEnv<'a>,
    ctx: &mut ExecCtx,
    name: &'a str,
    alias: Option<&'a str>,
) -> Result<Rel<'a>, String> {
    let label = Catalog::norm(alias.unwrap_or(name));
    if let Some(t) = env.cat.table(name) {
        cov!(ctx, 0x0cf4608cb6d247d3); // seq/index scan dispatch
        if env.prof.check_privileges
            && env.user != "admin"
            && !env.cat.has_privilege(env.user, name, "SELECT")
        {
            cov!(ctx, 0x0f4aa08cb6f20dfc); // permission-denied path
            return Err(format!("permission denied for table {name}"));
        }
        // Planner branches: statistics and index availability shape the
        // "plan" (and therefore coverage), even though row retrieval is the
        // same underneath.
        if t.analyzed {
            cov!(ctx, 0x0f80a08cb6f4e6f3);
        }
        if !env.cat.indexes_on(name).is_empty() {
            cov!(ctx, 0x1090e08cb70360f2);
            if t.rows.len() > 16 {
                cov!(ctx, 0x11d6608cb7149f84); // index considered profitable
            }
        }
        if t.clustered.is_some() {
            cov!(ctx, 0x12b0a08cb720408c);
        }
        let cols =
            t.columns.iter().map(|c| (Some(label.clone()), Catalog::norm(&c.name))).collect();
        ctx.charge_rows(t.rows.len())?;
        return Ok(Rel { cols, rows: t.rows.iter().map(Cow::Borrowed).collect() });
    }
    if let Some(v) = env.cat.view(name) {
        cov!(ctx, 0x1464608cb7376e38);
        if !env.prof.has_views {
            return Err("views are not supported by this engine".into());
        }
        if env.view_depth >= MAX_VIEW_DEPTH {
            cov!(ctx, 0x1506e08cb74006b5);
            return Err(format!("infinite recursion detected in view {name}"));
        }
        if v.materialized {
            cov!(ctx, 0x15e0e08cb74ba0f1);
            if let Some((cols, rows)) = &v.snapshot {
                // Serve from the materialized snapshot.
                cov!(ctx, 0x16f1608cb75a21bc);
                let bind = cols.iter().map(|c| (Some(label.clone()), Catalog::norm(c))).collect();
                return Ok(Rel { cols: bind, rows: rows.iter().map(Cow::Borrowed).collect() });
            }
        }
        let mut sub_env = QueryEnv {
            cat: env.cat,
            prof: env.prof,
            user: env.user,
            view_depth: env.view_depth + 1,
        };
        // Views execute with the privileges of their owner (admin), as in
        // PostgreSQL's default security model.
        sub_env.user = "admin";
        let rs = run_query(&sub_env, ctx, &v.query)?;
        let cols = rs.columns.into_iter().map(|c| (Some(label.clone()), owned_name(c))).collect();
        return Ok(Rel { cols, rows: rs.rows.into_iter().map(Cow::Owned).collect() });
    }
    cov!(ctx, 0x1b30208cb793cc8c);
    Err(format!("relation \"{name}\" does not exist"))
}

fn resolve_table_ref<'a>(
    env: &QueryEnv<'a>,
    ctx: &mut ExecCtx,
    t: &'a TableRef,
) -> Result<Rel<'a>, String> {
    match t {
        TableRef::Named { name, alias } => base_relation(env, ctx, name, alias.as_deref()),
        TableRef::Subquery { query, alias } => {
            cov!(ctx, 0x1ce2a08cb7aad83c);
            let rs = run_query(env, ctx, query)?;
            let label = Catalog::norm(alias);
            let cols =
                rs.columns.into_iter().map(|c| (Some(label.clone()), owned_name(c))).collect();
            Ok(Rel { cols, rows: rs.rows.into_iter().map(Cow::Owned).collect() })
        }
        TableRef::Join { left, right, kind, on } => {
            let l = resolve_table_ref(env, ctx, left)?;
            let r = resolve_table_ref(env, ctx, right)?;
            join_rels(env, ctx, l, r, *kind, on.as_ref())
        }
    }
}

fn join_rels<'a>(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    l: Rel<'a>,
    r: Rel<'a>,
    kind: JoinKind,
    on: Option<&Expr>,
) -> Result<Rel<'a>, String> {
    // One path per (strategy, build-side size bucket, probe-side size
    // bucket) — a real planner picks different physical joins by cardinality.
    let bucket = |n: usize| -> u64 {
        match n {
            0 => 0,
            1 => 1,
            2..=7 => 2,
            8..=63 => 3,
            _ => 4,
        }
    };
    ctx.hit_idx(
        site_id!(0x2489608cb812ebfc),
        (kind as u64) << 6 | bucket(l.rows.len()) << 3 | bucket(r.rows.len()),
    );
    let (lw, rw) = (l.cols.len(), r.cols.len());
    let mut cols = l.cols;
    cols.extend(r.cols);
    let mut rows = Vec::new();
    let mut matched_right = vec![false; r.rows.len()];
    let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
        run_query(env, ctx, q).map(|rs| rs.rows)
    };
    let concat = |left: Option<&Row>, right: Option<&Row>| -> Row {
        let mut row = Vec::with_capacity(lw + rw);
        match left {
            Some(l) => row.extend_from_slice(l),
            None => row.resize(lw, Value::Null),
        }
        match right {
            Some(r) => row.extend_from_slice(r),
            None => row.resize(lw + rw, Value::Null),
        }
        row
    };
    for lrow in &l.rows {
        let mut matched = false;
        for (ri, rrow) in r.rows.iter().enumerate() {
            let combined = concat(Some(lrow), Some(rrow));
            let ok = match on {
                None => true,
                Some(e) => {
                    let mut eenv =
                        EvalEnv { cols: &cols, row: &combined, ctx, subquery: Some(&mut run_subq) };
                    eval(e, &mut eenv)?.is_truthy()
                }
            };
            if ok {
                matched = true;
                matched_right[ri] = true;
                rows.push(Cow::Owned(combined));
                if rows.len() > MAX_INTERMEDIATE_ROWS {
                    cov!(ctx, 0x2a7a208cb86394e4);
                    return Err("join result too large".into());
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            cov!(ctx, 0x2ae6e08cb8695b36);
            rows.push(Cow::Owned(concat(Some(lrow), None)));
        }
    }
    if kind == JoinKind::Right {
        for (ri, rrow) in r.rows.iter().enumerate() {
            if !matched_right[ri] {
                cov!(ctx, 0x2c65608cb87dc44f);
                rows.push(Cow::Owned(concat(None, Some(rrow))));
            }
        }
    }
    ctx.charge_rows(rows.len())?;
    Ok(Rel { cols, rows })
}

// ---------------------------------------------------------------------------
// SELECT core
// ---------------------------------------------------------------------------

fn run_select(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    sel: &Select,
    order_ctx: Option<&Query>,
) -> Result<ResultSet, String> {
    cov!(ctx, 0x3220208cb8cb9440);
    // FROM: cross product of the from-list items.
    let mut rel = match sel.from.split_first() {
        None => Rel { cols: vec![], rows: vec![Cow::Owned(vec![])] },
        Some((first, rest)) => {
            let mut rel = resolve_table_ref(env, ctx, first)?;
            for t in rest {
                let r = resolve_table_ref(env, ctx, t)?;
                rel = join_rels(env, ctx, rel, r, JoinKind::Cross, None)?;
            }
            rel
        }
    };

    // WHERE.
    if let Some(w) = &sel.where_ {
        cov!(ctx, 0x3586e08cb8f9db34);
        let mut kept = Vec::new();
        let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
            run_query(env, ctx, q).map(|rs| rs.rows)
        };
        for row in rel.rows {
            let mut eenv =
                EvalEnv { cols: &rel.cols, row: &row, ctx, subquery: Some(&mut run_subq) };
            if eval(w, &mut eenv)?.is_truthy() {
                kept.push(row);
            }
        }
        if ctx.faults.where_drops_last_row && !kept.is_empty() {
            // Planted wrong-result fault (test-only, see `crate::faults`):
            // the filtered scan silently loses its last qualifying row.
            kept.pop();
        }
        rel.rows = kept;
        if rel.rows.is_empty() {
            cov!(ctx, 0x3848a08cb91f45b3); // empty-result short path (cf. Fig. 2 flowchart)
        }
    }

    let has_aggregates = sel
        .projection
        .iter()
        .any(|p| matches!(p, SelectItem::Expr { expr, .. } if contains_aggregate(expr)))
        || sel.having.as_ref().map(contains_aggregate).unwrap_or(false);

    if !sel.group_by.is_empty() || has_aggregates {
        cov!(ctx, 0x3b0ca08cb944ed5e);
        let rs = run_grouped(env, ctx, sel, &rel)?;
        let mut rs = rs;
        if let Some(q) = order_ctx {
            sort_output_rows(env, ctx, q, &mut rs)?;
        }
        return Ok(rs);
    }

    // Window functions over the filtered rows.
    let window_values = compute_windows(env, ctx, sel, &rel)?;

    // Projection.
    let (columns, mut out_rows) = project(env, ctx, sel, &rel, &window_values)?;

    // ORDER BY may reference source columns not in the projection, so sort
    // (source, output) pairs together.
    if let Some(q) = order_ctx {
        if !q.order_by.is_empty() {
            cov!(ctx, 0x3f82e08cb98199ed);
            let keys = order_keys(env, ctx, q, &rel.cols, &rel.rows, &columns, &out_rows)?;
            out_rows = sort_rows(out_rows, &keys, &q.order_by);
        }
    }

    let mut rs = ResultSet { columns, rows: out_rows };

    if sel.distinct {
        cov!(ctx, 0x4244608cb9a6fda0);
        let mut seen = std::collections::HashSet::new();
        rs.rows.retain(|row| {
            seen.insert(row.iter().map(|v| v.key_repr()).collect::<Vec<_>>().join("\u{1}"))
        });
    }
    Ok(rs)
}

fn project(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    sel: &Select,
    rel: &Rel,
    window_values: &HashMap<usize, Vec<Value>>,
) -> Result<(Vec<String>, Vec<Row>), String> {
    let mut columns: Vec<String> = Vec::new();
    for (pi, item) in sel.projection.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for (_, c) in &rel.cols {
                    columns.push(c.to_string());
                }
            }
            SelectItem::QualifiedStar(t) => {
                let mut any = false;
                for (tab, c) in &rel.cols {
                    if tab.as_deref().is_some_and(|tab| is_lowercase_of(tab, t)) {
                        columns.push(c.to_string());
                        any = true;
                    }
                }
                if !any {
                    return Err(format!("missing FROM-clause entry for table \"{t}\""));
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| default_column_name(expr, pi)));
            }
        }
    }
    let mut out_rows = Vec::with_capacity(rel.rows.len());
    let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
        run_query(env, ctx, q).map(|rs| rs.rows)
    };
    for (ri, row) in rel.rows.iter().enumerate() {
        let mut out = Vec::with_capacity(columns.len());
        for (pi, item) in sel.projection.iter().enumerate() {
            match item {
                SelectItem::Star => out.extend(row.iter().cloned()),
                SelectItem::QualifiedStar(t) => {
                    for (ci, (tab, _)) in rel.cols.iter().enumerate() {
                        if tab.as_deref().is_some_and(|tab| is_lowercase_of(tab, t)) {
                            out.push(row[ci].clone());
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    if let Expr::Window { .. } = expr {
                        let vals = window_values
                            .get(&pi)
                            .ok_or_else(|| "window value missing".to_string())?;
                        out.push(vals[ri].clone());
                    } else {
                        let mut eenv =
                            EvalEnv { cols: &rel.cols, row, ctx, subquery: Some(&mut run_subq) };
                        out.push(eval(expr, &mut eenv)?);
                    }
                }
            }
        }
        out_rows.push(out);
    }
    ctx.charge_rows(out_rows.len())?;
    Ok((columns, out_rows))
}

fn default_column_name(expr: &Expr, index: usize) -> String {
    match expr {
        Expr::Column(c) => c.column.to_ascii_lowercase(),
        Expr::Func(f) => f.name.to_ascii_lowercase(),
        Expr::Window { func, .. } => func.name.to_ascii_lowercase(),
        _ => format!("column{}", index + 1),
    }
}

// ---------------------------------------------------------------------------
// ORDER BY
// ---------------------------------------------------------------------------

/// Evaluate order keys preferring source bindings (`SELECT v2 … ORDER BY v1`)
/// and falling back to output columns / positional references.
#[allow(clippy::too_many_arguments)]
fn order_keys(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    q: &Query,
    src_cols: &Bindings,
    src_rows: &[Cow<Row>],
    out_cols: &[String],
    out_rows: &[Row],
) -> Result<Vec<Vec<Value>>, String> {
    let n = out_rows.len();
    let mut keys: Vec<Vec<Value>> = vec![Vec::with_capacity(q.order_by.len()); n];
    let out_bindings: Bindings = out_cols.iter().map(|c| (None, Catalog::norm(c))).collect();
    let mut run_subq = |sq: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
        run_query(env, ctx, sq).map(|rs| rs.rows)
    };
    for item in &q.order_by {
        // Positional ORDER BY (e.g. `ORDER BY 2`).
        if let Expr::Integer(pos) = item.expr {
            cov!(ctx, 0x59d8e08cbae79431);
            let idx = pos - 1;
            if idx < 0 || idx as usize >= out_cols.len() {
                cov!(ctx, 0x5ae9608cbaf614fc);
                return Err(format!("ORDER BY position {pos} is not in select list"));
            }
            for (i, row) in out_rows.iter().enumerate() {
                keys[i].push(row[idx as usize].clone());
            }
            continue;
        }
        for i in 0..n {
            // Try source bindings first (they include unprojected columns).
            let v = if src_rows.len() == n {
                let mut eenv = EvalEnv {
                    cols: src_cols,
                    row: &src_rows[i],
                    ctx,
                    subquery: Some(&mut run_subq),
                };
                eval(&item.expr, &mut eenv)
            } else {
                Err("no source rows".into())
            };
            let v = match v {
                Ok(v) => v,
                Err(_) => {
                    let mut eenv = EvalEnv {
                        cols: &out_bindings,
                        row: &out_rows[i],
                        ctx,
                        subquery: Some(&mut run_subq),
                    };
                    eval(&item.expr, &mut eenv)?
                }
            };
            keys[i].push(v);
        }
    }
    Ok(keys)
}

fn compare_key_rows(a: &[Value], b: &[Value], items: &[OrderItem]) -> Ordering {
    for (i, item) in items.iter().enumerate() {
        let ord = a[i].sort_cmp(&b[i]);
        let ord = if item.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort a result set by its own output columns (set-ops / VALUES).
fn sort_output_rows(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    q: &Query,
    rs: &mut ResultSet,
) -> Result<(), String> {
    if q.order_by.is_empty() {
        return Ok(());
    }
    cov!(ctx, 0x67a7208cbba33e34);
    let keys = order_keys(env, ctx, q, &vec![], &[], &rs.columns, &rs.rows)?;
    rs.rows = sort_rows(std::mem::take(&mut rs.rows), &keys, &q.order_by);
    Ok(())
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

fn run_grouped(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    sel: &Select,
    rel: &Rel,
) -> Result<ResultSet, String> {
    if sel
        .projection
        .iter()
        .any(|p| matches!(p, SelectItem::Expr { expr, .. } if matches!(expr, Expr::Window { .. })))
    {
        cov!(ctx, 0x6b42e08cbbd442ef);
        return Err("window functions with GROUP BY are not supported".into());
    }
    // Group rows by the GROUP BY key (single group when absent).
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
        run_query(env, ctx, q).map(|rs| rs.rows)
    };
    for (ri, row) in rel.rows.iter().enumerate() {
        let mut key_parts = Vec::with_capacity(sel.group_by.len());
        for g in &sel.group_by {
            // Positional GROUP BY like the paper's `GROUP BY 89, 34`: an
            // out-of-range position is a semantic error (a distinct branch).
            if let Expr::Integer(pos) = g {
                cov!(ctx, 0x6edea08cbc0547aa);
                let idx = *pos - 1;
                if idx < 0 || idx as usize >= rel.cols.len() {
                    cov!(ctx, 0x6fee608cbc13b411);
                    return Err(format!("GROUP BY position {pos} is not in select list"));
                }
                key_parts.push(row[idx as usize].key_repr());
                continue;
            }
            let mut eenv = EvalEnv { cols: &rel.cols, row, ctx, subquery: Some(&mut run_subq) };
            key_parts.push(eval(g, &mut eenv)?.key_repr());
        }
        let key = key_parts.join("\u{1}");
        match index.get(&key) {
            Some(&gi) => groups[gi].1.push(ri),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![ri]));
            }
        }
    }
    // Aggregates over zero rows with no GROUP BY still yield one group.
    if groups.is_empty() && sel.group_by.is_empty() {
        cov!(ctx, 0x742ea08cbc4d87a9);
        groups.push((String::new(), vec![]));
    }

    let mut columns: Vec<String> = Vec::new();
    for (pi, item) in sel.projection.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| default_column_name(expr, pi)));
            }
            SelectItem::Star | SelectItem::QualifiedStar(_) => {
                // `SELECT * … GROUP BY` is accepted leniently: star expands
                // to the first row of each group (MySQL's permissive mode).
                cov!(ctx, 0x7686208cbc6d6fce);
                for (_, c) in &rel.cols {
                    columns.push(c.to_string());
                }
            }
        }
    }

    let mut out_rows = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        // HAVING.
        if let Some(h) = &sel.having {
            cov!(ctx, 0x7910e08cbc8fe626);
            let keep = eval_agg(env, ctx, h, rel, members)?;
            if !keep.is_truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(columns.len());
        for item in &sel.projection {
            match item {
                SelectItem::Expr { expr, .. } => {
                    out.push(eval_agg(env, ctx, expr, rel, members)?);
                }
                SelectItem::Star | SelectItem::QualifiedStar(_) => match members.first() {
                    Some(&ri) => out.extend(rel.rows[ri].iter().cloned()),
                    None => out.extend(std::iter::repeat_n(Value::Null, rel.cols.len())),
                },
            }
        }
        out_rows.push(out);
    }
    Ok(ResultSet { columns, rows: out_rows })
}

/// Evaluate an expression in aggregate context: aggregate calls compute over
/// the group; other column references resolve against the group's first row.
fn eval_agg(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    expr: &Expr,
    rel: &Rel,
    members: &[usize],
) -> Result<Value, String> {
    if let Expr::Func(call) = expr {
        if is_aggregate(call) {
            return eval_aggregate_call(env, ctx, call, rel, members);
        }
    }
    if !contains_aggregate(expr) {
        let empty_row: Row = vec![];
        let row: &Row = match members.first() {
            Some(&ri) => &rel.rows[ri],
            None => &empty_row,
        };
        let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
            run_query(env, ctx, q).map(|rs| rs.rows)
        };
        let no_cols = Bindings::new();
        let cols = if row.is_empty() { &no_cols } else { &rel.cols };
        let mut eenv = EvalEnv { cols, row, ctx, subquery: Some(&mut run_subq) };
        return eval(expr, &mut eenv);
    }
    // Mixed expression: recurse structurally, computing aggregate leaves.
    match expr {
        Expr::Unary(op, e) => {
            let inner = eval_agg(env, ctx, e, rel, members)?;
            let tmp = Expr::Unary(*op, Box::new(value_to_expr(&inner)));
            eval_const(ctx, &tmp)
        }
        Expr::Binary(l, op, r) => {
            let lv = eval_agg(env, ctx, l, rel, members)?;
            let rv = eval_agg(env, ctx, r, rel, members)?;
            let tmp = Expr::Binary(Box::new(value_to_expr(&lv)), *op, Box::new(value_to_expr(&rv)));
            eval_const(ctx, &tmp)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_agg(env, ctx, expr, rel, members)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Cast { expr, ty } => {
            let v = eval_agg(env, ctx, expr, rel, members)?;
            Ok(v.coerce_to(*ty))
        }
        _ => Err("unsupported aggregate expression shape".into()),
    }
}

fn value_to_expr(v: &Value) -> Expr {
    match v {
        Value::Null => Expr::Null,
        Value::Int(i) => Expr::Integer(*i),
        Value::Float(f) => Expr::Float(*f),
        Value::Text(s) => Expr::Str(s.clone()),
        Value::Bool(b) => Expr::Bool(*b),
        Value::Blob(b) => Expr::Str(String::from_utf8_lossy(b).into_owned()),
    }
}

fn eval_const(ctx: &mut ExecCtx, e: &Expr) -> Result<Value, String> {
    let cols: Bindings = vec![];
    let row: Vec<Value> = vec![];
    let mut eenv = EvalEnv { cols: &cols, row: &row, ctx, subquery: None };
    eval(e, &mut eenv)
}

fn eval_aggregate_call(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    call: &FuncCall,
    rel: &Rel,
    members: &[usize],
) -> Result<Value, String> {
    let name = upper(&call.name);
    // Per-(aggregate, group-size bucket) transition function.
    let mut name_code: u64 = 0;
    for b in name.bytes() {
        name_code = name_code.wrapping_mul(31).wrapping_add(b as u64);
    }
    let gb = match members.len() {
        0 => 0u64,
        1 => 1,
        2..=7 => 2,
        _ => 3,
    };
    ctx.hit_idx(site_id!(0x90daa08cbdd3414a), (name_code % 32) << 2 | gb);
    if call.star {
        if name != "COUNT" {
            return Err(format!("{name}(*) is not valid"));
        }
        return Ok(Value::Int(members.len() as i64));
    }
    let arg = call.args.first().ok_or_else(|| format!("{name} requires an argument"))?;
    let mut values = Vec::with_capacity(members.len());
    let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
        run_query(env, ctx, q).map(|rs| rs.rows)
    };
    for &ri in members {
        let mut eenv =
            EvalEnv { cols: &rel.cols, row: &rel.rows[ri], ctx, subquery: Some(&mut run_subq) };
        let v = eval(arg, &mut eenv)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if call.distinct {
        cov!(ctx, 0x94e4608cbe0a2e53);
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.key_repr()));
    }
    Ok(match &*name {
        "COUNT" => Value::Int(values.len() as i64),
        "SUM" | "AVG" => {
            if values.is_empty() {
                cov!(ctx, 0x9698e08cbe217063);
                Value::Null
            } else {
                let all_int = values.iter().all(|v| matches!(v, Value::Int(_) | Value::Bool(_)));
                let sum: f64 = values.iter().filter_map(|v| v.as_float()).sum();
                if name == "AVG" {
                    Value::Float(sum / values.len() as f64)
                } else if all_int {
                    Value::Int(sum as i64)
                } else {
                    Value::Float(sum)
                }
            }
        }
        "MIN" => values.into_iter().min_by(|a, b| a.sort_cmp(b)).unwrap_or(Value::Null),
        "MAX" => values.into_iter().max_by(|a, b| a.sort_cmp(b)).unwrap_or(Value::Null),
        other => return Err(format!("unknown aggregate {other}")),
    })
}

// ---------------------------------------------------------------------------
// Window functions
// ---------------------------------------------------------------------------

/// Compute window values for each window-expression projection item.
/// Returns map: projection index -> per-row values.
fn compute_windows(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    sel: &Select,
    rel: &Rel,
) -> Result<HashMap<usize, Vec<Value>>, String> {
    let mut out = HashMap::new();
    for (pi, item) in sel.projection.iter().enumerate() {
        if let SelectItem::Expr { expr: Expr::Window { func, spec }, .. } = item {
            cov!(ctx, 0x9e72e08cbe8c1256);
            if !env.prof.has_window_functions {
                cov!(ctx, 0x9fb8e08cbe9d5e80);
                return Err("window functions are not supported by this engine".into());
            }
            out.insert(pi, compute_one_window(env, ctx, func, spec, rel)?);
        }
    }
    Ok(out)
}

fn compute_one_window(
    env: &QueryEnv,
    ctx: &mut ExecCtx,
    func: &FuncCall,
    spec: &WindowSpec,
    rel: &Rel,
) -> Result<Vec<Value>, String> {
    let n = rel.rows.len();
    let mut run_subq = |q: &Query, ctx: &mut ExecCtx| -> Result<Vec<Row>, String> {
        run_query(env, ctx, q).map(|rs| rs.rows)
    };
    // Partition keys.
    let mut partitions: HashMap<String, Vec<usize>> = HashMap::new();
    for ri in 0..n {
        let mut key = String::new();
        for p in &spec.partition_by {
            let mut eenv =
                EvalEnv { cols: &rel.cols, row: &rel.rows[ri], ctx, subquery: Some(&mut run_subq) };
            key.push_str(&eval(p, &mut eenv)?.key_repr());
            key.push('\u{1}');
        }
        partitions.entry(key).or_default().push(ri);
    }
    if !spec.partition_by.is_empty() {
        cov!(ctx, 0xa64f208cbef6f175);
    }
    // Frame clause validation branches (RANGE with offsets requires exactly
    // one numeric ORDER BY key — mirroring real planner checks).
    if let Some(frame) = &spec.frame {
        cov!(ctx, 0xa6f3208cbeffb2ba);
        if frame.unit == FrameUnit::Range {
            cov!(ctx, 0xa838a08cbf10f14c);
            let offset_bound =
                |b: &FrameBound| matches!(b, FrameBound::Preceding(_) | FrameBound::Following(_));
            let has_offset =
                offset_bound(&frame.start) || frame.end.as_ref().map(offset_bound).unwrap_or(false);
            if has_offset && spec.order_by.len() != 1 {
                cov!(ctx, 0xa8a6a08cbf16d99a);
                return Err("RANGE with offset requires exactly one ORDER BY column".into());
            }
        }
    }

    let name = upper(&func.name);
    {
        // Per-window-function entry path.
        let mut name_code: u64 = 0;
        for b in name.bytes() {
            name_code = name_code.wrapping_mul(31).wrapping_add(b as u64);
        }
        ctx.hit_idx(site_id!(0xaafd208cbf36a68f), name_code % 32);
    }
    let mut results = vec![Value::Null; n];
    let mut sorted_parts: Vec<(&String, &Vec<usize>)> = partitions.iter().collect();
    sorted_parts.sort_by(|a, b| a.0.cmp(b.0));
    for (_, members) in sorted_parts {
        // Order within the partition.
        let mut order: Vec<usize> = members.clone();
        if !spec.order_by.is_empty() {
            cov!(ctx, 0xae2aa08cbf61bc30);
            let mut keys: HashMap<usize, Vec<Value>> = HashMap::new();
            for &ri in members {
                let mut key = Vec::new();
                for o in &spec.order_by {
                    let mut eenv = EvalEnv {
                        cols: &rel.cols,
                        row: &rel.rows[ri],
                        ctx,
                        subquery: Some(&mut run_subq),
                    };
                    key.push(eval(&o.expr, &mut eenv)?);
                }
                keys.insert(ri, key);
            }
            order.sort_by(|&a, &b| compare_key_rows(&keys[&a], &keys[&b], &spec.order_by));
        }
        match &*name {
            "ROW_NUMBER" => {
                for (i, &ri) in order.iter().enumerate() {
                    results[ri] = Value::Int(i as i64 + 1);
                }
            }
            "RANK" | "DENSE_RANK" => {
                cov!(ctx, 0x0045608ca88def9c);
                let mut rank = 0i64;
                let mut dense = 0i64;
                let mut prev_key: Option<Vec<String>> = None;
                for (i, &ri) in order.iter().enumerate() {
                    let key: Vec<String> = spec
                        .order_by
                        .iter()
                        .map(|o| {
                            let mut eenv = EvalEnv {
                                cols: &rel.cols,
                                row: &rel.rows[ri],
                                ctx,
                                subquery: None,
                            };
                            eval(&o.expr, &mut eenv).map(|v| v.key_repr()).unwrap_or_default()
                        })
                        .collect();
                    if prev_key.as_ref() != Some(&key) {
                        rank = i as i64 + 1;
                        dense += 1;
                        prev_key = Some(key);
                    }
                    results[ri] = Value::Int(if name == "RANK" { rank } else { dense });
                }
            }
            "LEAD" | "LAG" => {
                cov!(ctx, 0x04b9608ca8ca5eff);
                let arg = func.args.first();
                for (i, &ri) in order.iter().enumerate() {
                    let j = if name == "LEAD" { i.checked_add(1) } else { i.checked_sub(1) };
                    results[ri] = match j.and_then(|j| order.get(j)) {
                        Some(&src) => match arg {
                            Some(a) => {
                                let mut eenv = EvalEnv {
                                    cols: &rel.cols,
                                    row: &rel.rows[src],
                                    ctx,
                                    subquery: Some(&mut run_subq),
                                };
                                eval(a, &mut eenv)?
                            }
                            None => Value::Null,
                        },
                        None => Value::Null,
                    };
                }
            }
            "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" => {
                cov!(ctx, 0x0a41208ca915a789);
                match &spec.frame {
                    None => {
                        // No frame: aggregate over the whole partition.
                        let v = eval_aggregate_call(env, ctx, func, rel, &order)?;
                        for &ri in &order {
                            results[ri] = v.clone();
                        }
                    }
                    Some(frame) => {
                        cov!(ctx, 0x0b85e08ca926d1b7);
                        // Materialize the frame per row. ROWS counts
                        // physical neighbours; RANGE measures distance on
                        // the single numeric ORDER BY key (validated above).
                        let key_of = |ctx: &mut ExecCtx, ri: usize| -> Result<Value, String> {
                            match spec.order_by.first() {
                                Some(o) => {
                                    let mut eenv = EvalEnv {
                                        cols: &rel.cols,
                                        row: &rel.rows[ri],
                                        ctx,
                                        subquery: None,
                                    };
                                    eval(&o.expr, &mut eenv)
                                }
                                None => Ok(Value::Null),
                            }
                        };
                        let bound_offset = |ctx: &mut ExecCtx,
                                            b: &FrameBound|
                         -> Result<Option<f64>, String> {
                            Ok(match b {
                                FrameBound::UnboundedPreceding | FrameBound::UnboundedFollowing => {
                                    None
                                }
                                FrameBound::CurrentRow => Some(0.0),
                                FrameBound::Preceding(e) | FrameBound::Following(e) => {
                                    let cols2: crate::eval::Bindings = vec![];
                                    let row2: Vec<Value> = vec![];
                                    let mut eenv =
                                        EvalEnv { cols: &cols2, row: &row2, ctx, subquery: None };
                                    eval(e, &mut eenv)?.as_float()
                                }
                            })
                        };
                        let start_off = bound_offset(ctx, &frame.start)?;
                        let end_off = match &frame.end {
                            Some(b) => bound_offset(ctx, b)?,
                            None => Some(0.0), // single-bound frame: start .. CURRENT ROW
                        };
                        for (pos, &ri) in order.iter().enumerate() {
                            let members: Vec<usize> = match frame.unit {
                                FrameUnit::Rows => {
                                    let lo = match (&frame.start, start_off) {
                                        (FrameBound::Following(_), Some(k)) => pos + k as usize,
                                        (_, Some(k)) => pos.saturating_sub(k as usize),
                                        (_, None) => 0,
                                    };
                                    let hi = match (frame.end.as_ref(), end_off) {
                                        (Some(FrameBound::Preceding(_)), Some(k)) => {
                                            pos.saturating_sub(k as usize)
                                        }
                                        (_, Some(k)) => (pos + k as usize).min(order.len() - 1),
                                        (_, None) => order.len() - 1,
                                    };
                                    if lo > hi || lo >= order.len() {
                                        vec![]
                                    } else {
                                        order[lo..=hi].to_vec()
                                    }
                                }
                                FrameUnit::Range => {
                                    let center = key_of(ctx, ri)?.as_float();
                                    match center {
                                        None => vec![ri],
                                        Some(c) => {
                                            let lo = start_off.map(|k| match frame.start {
                                                FrameBound::Following(_) => c + k,
                                                _ => c - k,
                                            });
                                            let hi = end_off.map(|k| match frame.end.as_ref() {
                                                Some(FrameBound::Preceding(_)) => c - k,
                                                _ => c + k,
                                            });
                                            let mut m = Vec::new();
                                            for &rj in &order {
                                                let kv = key_of(ctx, rj)?.as_float();
                                                if let Some(v) = kv {
                                                    let ge = lo.is_none_or(|l| v >= l);
                                                    let le = hi.is_none_or(|h| v <= h);
                                                    if ge && le {
                                                        m.push(rj);
                                                    }
                                                }
                                            }
                                            m
                                        }
                                    }
                                }
                            };
                            results[ri] = if members.is_empty() {
                                cov!(ctx, 0x1f45208caa332b6e); // empty-frame path
                                if name == "COUNT" {
                                    Value::Int(0)
                                } else {
                                    Value::Null
                                }
                            } else {
                                eval_aggregate_call(env, ctx, func, rel, &members)?
                            };
                        }
                    }
                }
            }
            other => {
                cov!(ctx, 0x2318e08caa673f80);
                return Err(format!("unknown window function {other}"));
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnMeta, TableMeta};
    use lego_sqlast::Dialect;
    use lego_sqlparser::parse_statement;

    fn setup() -> (Catalog, Profile) {
        let mut cat = Catalog::new();
        cat.add_table(TableMeta {
            name: "t1".into(),
            temporary: false,
            columns: std::sync::Arc::new(vec![
                ColumnMeta {
                    name: "v1".into(),
                    ty: DataType::Int,
                    not_null: false,
                    unique: false,
                    primary_key: false,
                    default: None,
                    check: None,
                    references: None,
                },
                ColumnMeta {
                    name: "v2".into(),
                    ty: DataType::Int,
                    not_null: false,
                    unique: false,
                    primary_key: false,
                    default: None,
                    check: None,
                    references: None,
                },
            ]),
            checks: vec![],
            foreign_keys: vec![],
            rows: vec![
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(3), Value::Int(10)],
            ],
            analyzed: false,
            clustered: None,
        })
        .unwrap();
        (cat, Profile::for_dialect(Dialect::Postgres))
    }

    fn query(cat: &Catalog, prof: &Profile, sql: &str) -> ResultSet {
        let stmt = parse_statement(sql).unwrap();
        let q = match stmt {
            lego_sqlast::ast::Statement::Select(s) => s.query,
            other => panic!("not a select: {other:?}"),
        };
        let env = QueryEnv::new(cat, prof, "admin");
        let mut ctx = ExecCtx::new();
        run_query(&env, &mut ctx, &q).unwrap()
    }

    #[test]
    fn select_star() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT * FROM t1;");
        assert_eq!(rs.columns, vec!["v1", "v2"]);
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn where_and_order_by_unprojected_column() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT v2 FROM t1 WHERE v2 = 10 ORDER BY v1;");
        assert_eq!(rs.rows, vec![vec![Value::Int(10)], vec![Value::Int(10)]]);
        let rs = query(&cat, &prof, "SELECT v2 FROM t1 ORDER BY v1 DESC;");
        assert_eq!(rs.rows[0], vec![Value::Int(10)]); // v1=3 row first
    }

    #[test]
    fn limit_offset() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT v1 FROM t1 ORDER BY v1 LIMIT 1 OFFSET 1;");
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn aggregates() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT COUNT(*), SUM(v2), MIN(v1), MAX(v1), AVG(v2) FROM t1;");
        assert_eq!(
            rs.rows,
            vec![vec![
                Value::Int(3),
                Value::Int(40),
                Value::Int(1),
                Value::Int(3),
                Value::Float(40.0 / 3.0)
            ]]
        );
    }

    #[test]
    fn group_by_and_having() {
        let (cat, prof) = setup();
        let rs = query(
            &cat,
            &prof,
            "SELECT v2, COUNT(*) FROM t1 GROUP BY v2 HAVING COUNT(*) > 1 ORDER BY v2;",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(10), Value::Int(2)]]);
    }

    #[test]
    fn aggregate_on_empty_table_yields_one_row() {
        let (mut cat, prof) = setup();
        cat.table_mut("t1").unwrap().rows.clear();
        let rs = query(&cat, &prof, "SELECT COUNT(*) FROM t1;");
        assert_eq!(rs.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn distinct_dedups() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT DISTINCT v2 FROM t1;");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn joins() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT * FROM t1 AS a JOIN t1 AS b ON a.v1 = b.v1;");
        assert_eq!(rs.rows.len(), 3);
        let rs = query(&cat, &prof, "SELECT * FROM t1 AS a CROSS JOIN t1 AS b;");
        assert_eq!(rs.rows.len(), 9);
        let rs = query(&cat, &prof, "SELECT * FROM t1 AS a LEFT JOIN t1 AS b ON a.v1 = b.v1 + 10;");
        assert_eq!(rs.rows.len(), 3); // all null-extended
        assert_eq!(rs.rows[0][2], Value::Null);
    }

    #[test]
    fn set_operations() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT 32 EXCEPT SELECT v2 + 16 FROM t1;");
        // 32 is excluded: one of the v2+16 values is 26/36? v2 in {20,10,10}
        // -> {36,26,26}; 32 not excluded.
        assert_eq!(rs.rows, vec![vec![Value::Int(32)]]);
        let rs = query(&cat, &prof, "SELECT 1 UNION ALL SELECT 1;");
        assert_eq!(rs.rows.len(), 2);
        let rs = query(&cat, &prof, "SELECT 1 UNION SELECT 1;");
        assert_eq!(rs.rows.len(), 1);
        let rs = query(&cat, &prof, "SELECT v2 FROM t1 INTERSECT SELECT 10;");
        assert_eq!(rs.rows, vec![vec![Value::Int(10)]]);
    }

    #[test]
    fn subqueries_scalar_and_exists() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT (SELECT MAX(v1) FROM t1) FROM t1 LIMIT 1;");
        assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
        let rs = query(
            &cat,
            &prof,
            "SELECT v1 FROM t1 WHERE EXISTS (SELECT 1 FROM t1 WHERE v2 = 20) ORDER BY v1;",
        );
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn window_row_number_and_rank() {
        let (cat, prof) = setup();
        let rs =
            query(&cat, &prof, "SELECT v1, ROW_NUMBER() OVER (ORDER BY v1) FROM t1 ORDER BY v1;");
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(1)]);
        assert_eq!(rs.rows[2], vec![Value::Int(3), Value::Int(3)]);
        let rs =
            query(&cat, &prof, "SELECT v2, RANK() OVER (ORDER BY v2) FROM t1 ORDER BY v2, v1;");
        // v2 values sorted: 10,10,20 -> ranks 1,1,3
        let ranks: Vec<_> = rs.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(ranks, vec![Value::Int(1), Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn window_lead_lag() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT v1, LEAD(v1) OVER (ORDER BY v1) FROM t1 ORDER BY v1;");
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(rs.rows[2], vec![Value::Int(3), Value::Null]);
    }

    #[test]
    fn rows_frame_sums_physical_neighbours() {
        let (cat, prof) = setup();
        // t1 rows sorted by v1: (1,10), (2,20), (3,10); running SUM(v1) over
        // ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING = [1, 3, 5].
        let rs = query(
            &cat,
            &prof,
            "SELECT v1, SUM(v1) OVER (ORDER BY v1 ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING) FROM t1 ORDER BY v1;",
        );
        let sums: Vec<_> = rs.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(sums, vec![Value::Int(1), Value::Int(3), Value::Int(5)]);
    }

    #[test]
    fn range_frame_measures_key_distance() {
        let (cat, prof) = setup();
        // v1 values 1,2,3; RANGE BETWEEN 1 PRECEDING AND 1 FOLLOWING around
        // each: {1,2}=3, {1,2,3}=6, {2,3}=5.
        let rs = query(
            &cat,
            &prof,
            "SELECT v1, SUM(v1) OVER (ORDER BY v1 RANGE BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM t1 ORDER BY v1;",
        );
        let sums: Vec<_> = rs.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(sums, vec![Value::Int(3), Value::Int(6), Value::Int(5)]);
    }

    #[test]
    fn empty_rows_frame_counts_zero() {
        let (cat, prof) = setup();
        // A frame strictly in the future of the last row is empty there.
        let rs = query(
            &cat,
            &prof,
            "SELECT v1, COUNT(v1) OVER (ORDER BY v1 ROWS BETWEEN 1 FOLLOWING AND 2 FOLLOWING) FROM t1 ORDER BY v1;",
        );
        let counts: Vec<_> = rs.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(counts, vec![Value::Int(2), Value::Int(1), Value::Int(0)]);
    }

    #[test]
    fn range_frame_with_offset_requires_single_order_key() {
        let (cat, prof) = setup();
        let stmt = parse_statement(
            "SELECT SUM(v1) OVER (RANGE BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM t1;",
        )
        .unwrap();
        let q = match stmt {
            lego_sqlast::ast::Statement::Select(s) => s.query,
            _ => unreachable!(),
        };
        let env = QueryEnv::new(&cat, &prof, "admin");
        let mut ctx = ExecCtx::new();
        assert!(run_query(&env, &mut ctx, &q).is_err());
    }

    #[test]
    fn unknown_table_errors() {
        let (cat, prof) = setup();
        let stmt = parse_statement("SELECT * FROM nope;").unwrap();
        let q = match stmt {
            lego_sqlast::ast::Statement::Select(s) => s.query,
            _ => unreachable!(),
        };
        let env = QueryEnv::new(&cat, &prof, "admin");
        let mut ctx = ExecCtx::new();
        assert!(run_query(&env, &mut ctx, &q).is_err());
    }

    #[test]
    fn privilege_enforced_for_non_admin() {
        let (cat, prof) = setup();
        let stmt = parse_statement("SELECT * FROM t1;").unwrap();
        let q = match stmt {
            lego_sqlast::ast::Statement::Select(s) => s.query,
            _ => unreachable!(),
        };
        let env = QueryEnv::new(&cat, &prof, "eve");
        let mut ctx = ExecCtx::new();
        assert!(run_query(&env, &mut ctx, &q).is_err());
    }

    #[test]
    fn positional_order_and_group_by_bounds() {
        let (cat, prof) = setup();
        let rs = query(&cat, &prof, "SELECT v1, v2 FROM t1 ORDER BY 2, 1;");
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(10)]);
        let stmt = parse_statement("SELECT v1 FROM t1 GROUP BY 89;").unwrap();
        let q = match stmt {
            lego_sqlast::ast::Statement::Select(s) => s.query,
            _ => unreachable!(),
        };
        let env = QueryEnv::new(&cat, &prof, "admin");
        let mut ctx = ExecCtx::new();
        assert!(run_query(&env, &mut ctx, &q).is_err());
    }

    #[test]
    fn coverage_differs_between_query_shapes() {
        let (cat, prof) = setup();
        let shapes = [
            "SELECT * FROM t1;",
            "SELECT DISTINCT v1 FROM t1;",
            "SELECT COUNT(*) FROM t1;",
            "SELECT * FROM t1 AS a JOIN t1 AS b ON a.v1 = b.v1;",
        ];
        let mut digests = std::collections::HashSet::new();
        for sql in shapes {
            let stmt = parse_statement(sql).unwrap();
            let q = match stmt {
                lego_sqlast::ast::Statement::Select(s) => s.query,
                _ => unreachable!(),
            };
            let env = QueryEnv::new(&cat, &prof, "admin");
            let mut ctx = ExecCtx::new();
            run_query(&env, &mut ctx, &q).unwrap();
            digests.insert(ctx.cov.map().digest());
        }
        assert_eq!(digests.len(), shapes.len());
    }
}
