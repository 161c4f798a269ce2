//! AST walkers.
//!
//! The fuzzer needs two views of a statement: read-only structural queries
//! (which tables does it touch? does it contain a window function?) and a
//! mutable walk used by the instantiator to rebind identifiers and refill
//! literals ([`MutVisitor`]).

use crate::ast::*;
use crate::expr::Expr;

/// Mutable visitor over the names and literals of a statement.
///
/// Default methods do nothing, so implementors override only what they need.
pub trait MutVisitor {
    /// Every table (or view) name position: definitions and references.
    fn table_name(&mut self, _name: &mut String) {}
    /// Every column-name position (column refs, column defs, insert lists…).
    fn column_name(&mut self, _name: &mut String) {}
    /// Every full column-reference expression, qualifier included. The
    /// default delegates to the name hooks, so implementors that only care
    /// about names keep working unchanged.
    fn column_ref(&mut self, c: &mut crate::expr::ColumnRef) {
        if let Some(t) = &mut c.table {
            self.table_name(t);
        }
        self.column_name(&mut c.column);
    }
    /// Every literal leaf expression.
    fn literal(&mut self, _expr: &mut Expr) {}
}

pub fn walk_expr_mut(expr: &mut Expr, v: &mut dyn MutVisitor) {
    match expr {
        Expr::Null | Expr::Bool(_) | Expr::Integer(_) | Expr::Float(_) | Expr::Str(_) => {
            v.literal(expr)
        }
        Expr::Column(c) => v.column_ref(c),
        Expr::Unary(_, e) => walk_expr_mut(e, v),
        Expr::Binary(l, _, r) => {
            walk_expr_mut(l, v);
            walk_expr_mut(r, v);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr_mut(expr, v);
            walk_expr_mut(pattern, v);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr_mut(expr, v);
            list.iter_mut().for_each(|e| walk_expr_mut(e, v));
        }
        Expr::Between { expr, low, high, .. } => {
            walk_expr_mut(expr, v);
            walk_expr_mut(low, v);
            walk_expr_mut(high, v);
        }
        Expr::IsNull { expr, .. } => walk_expr_mut(expr, v),
        Expr::Case { operand, whens, else_ } => {
            if let Some(o) = operand {
                walk_expr_mut(o, v);
            }
            for (w, t) in whens {
                walk_expr_mut(w, v);
                walk_expr_mut(t, v);
            }
            if let Some(e) = else_ {
                walk_expr_mut(e, v);
            }
        }
        Expr::Func(c) => c.args.iter_mut().for_each(|e| walk_expr_mut(e, v)),
        Expr::Window { func, spec } => {
            func.args.iter_mut().for_each(|e| walk_expr_mut(e, v));
            spec.partition_by.iter_mut().for_each(|e| walk_expr_mut(e, v));
            spec.order_by.iter_mut().for_each(|o| walk_expr_mut(&mut o.expr, v));
            if let Some(fr) = &mut spec.frame {
                if let crate::expr::FrameBound::Preceding(e)
                | crate::expr::FrameBound::Following(e) = &mut fr.start
                {
                    walk_expr_mut(e, v);
                }
                if let Some(
                    crate::expr::FrameBound::Preceding(e) | crate::expr::FrameBound::Following(e),
                ) = &mut fr.end
                {
                    walk_expr_mut(e, v);
                }
            }
        }
        Expr::Cast { expr, .. } => walk_expr_mut(expr, v),
        Expr::Subquery(q) => walk_query_mut(q, v),
        Expr::Exists { query, .. } => walk_query_mut(query, v),
    }
}

pub fn walk_query_mut(q: &mut Query, v: &mut dyn MutVisitor) {
    walk_set_expr_mut(&mut q.body, v);
    q.order_by.iter_mut().for_each(|o| walk_expr_mut(&mut o.expr, v));
    if let Some(l) = &mut q.limit {
        walk_expr_mut(l, v);
    }
    if let Some(o) = &mut q.offset {
        walk_expr_mut(o, v);
    }
}

fn walk_set_expr_mut(s: &mut SetExpr, v: &mut dyn MutVisitor) {
    match s {
        SetExpr::Select(sel) => walk_select_mut(sel, v),
        SetExpr::SetOp { left, right, .. } => {
            walk_set_expr_mut(left, v);
            walk_set_expr_mut(right, v);
        }
        SetExpr::Values(rows) => {
            rows.iter_mut().for_each(|r| r.iter_mut().for_each(|e| walk_expr_mut(e, v)))
        }
    }
}

fn walk_select_mut(sel: &mut Select, v: &mut dyn MutVisitor) {
    for item in &mut sel.projection {
        match item {
            SelectItem::Star => {}
            SelectItem::QualifiedStar(t) => v.table_name(t),
            SelectItem::Expr { expr, .. } => walk_expr_mut(expr, v),
        }
    }
    sel.from.iter_mut().for_each(|t| walk_table_ref_mut(t, v));
    if let Some(w) = &mut sel.where_ {
        walk_expr_mut(w, v);
    }
    sel.group_by.iter_mut().for_each(|e| walk_expr_mut(e, v));
    if let Some(h) = &mut sel.having {
        walk_expr_mut(h, v);
    }
}

fn walk_table_ref_mut(t: &mut TableRef, v: &mut dyn MutVisitor) {
    match t {
        TableRef::Named { name, .. } => v.table_name(name),
        TableRef::Join { left, right, on, .. } => {
            walk_table_ref_mut(left, v);
            walk_table_ref_mut(right, v);
            if let Some(on) = on {
                walk_expr_mut(on, v);
            }
        }
        TableRef::Subquery { query, .. } => walk_query_mut(query, v),
    }
}

/// Walk every name/literal position of a statement.
pub fn walk_statement_mut(stmt: &mut Statement, v: &mut dyn MutVisitor) {
    match stmt {
        Statement::CreateTable(c) => {
            v.table_name(&mut c.name);
            for col in &mut c.columns {
                v.column_name(&mut col.name);
                for con in &mut col.constraints {
                    match con {
                        ColumnConstraint::Default(e) | ColumnConstraint::Check(e) => {
                            walk_expr_mut(e, v)
                        }
                        ColumnConstraint::References { table, column } => {
                            v.table_name(table);
                            if let Some(c) = column {
                                v.column_name(c);
                            }
                        }
                        _ => {}
                    }
                }
            }
            for con in &mut c.constraints {
                match con {
                    TableConstraint::PrimaryKey(cols) | TableConstraint::Unique(cols) => {
                        cols.iter_mut().for_each(|c| v.column_name(c))
                    }
                    TableConstraint::Check(e) => walk_expr_mut(e, v),
                    TableConstraint::ForeignKey { columns, ref_table, ref_columns } => {
                        columns.iter_mut().for_each(|c| v.column_name(c));
                        v.table_name(ref_table);
                        ref_columns.iter_mut().for_each(|c| v.column_name(c));
                    }
                }
            }
        }
        Statement::CreateView(c) => {
            v.table_name(&mut c.name);
            walk_query_mut(&mut c.query, v);
        }
        Statement::CreateIndex(c) => {
            v.table_name(&mut c.table);
            c.columns.iter_mut().for_each(|c| v.column_name(c));
        }
        Statement::CreateTrigger(c) => {
            v.table_name(&mut c.table);
            walk_statement_mut(&mut c.action, v);
        }
        Statement::CreateRule(c) => {
            v.table_name(&mut c.table);
            if let Some(a) = &mut c.action {
                walk_statement_mut(a, v);
            }
        }
        Statement::CreateTableAs { name, query } => {
            v.table_name(name);
            walk_query_mut(query, v);
        }
        Statement::AlterTable(a) => {
            v.table_name(&mut a.name);
            match &mut a.action {
                AlterTableAction::AddColumn(c) => v.column_name(&mut c.name),
                AlterTableAction::DropColumn(c) => v.column_name(c),
                AlterTableAction::RenameColumn { old, new } => {
                    v.column_name(old);
                    v.column_name(new);
                }
                AlterTableAction::RenameTo(n) => v.table_name(n),
                AlterTableAction::AlterColumnType { name, .. } => v.column_name(name),
            }
        }
        Statement::Drop(d) => {
            if matches!(
                d.object,
                crate::kind::ObjectKind::Table
                    | crate::kind::ObjectKind::View
                    | crate::kind::ObjectKind::MaterializedView
            ) {
                v.table_name(&mut d.name);
            }
            if let Some(t) = &mut d.on_table {
                v.table_name(t);
            }
        }
        Statement::GenericDdl(_) => {}
        Statement::Select(s) => walk_query_mut(&mut s.query, v),
        Statement::Insert(i) => {
            v.table_name(&mut i.table);
            i.columns.iter_mut().for_each(|c| v.column_name(c));
            match &mut i.source {
                InsertSource::Values(rows) => {
                    rows.iter_mut().for_each(|r| r.iter_mut().for_each(|e| walk_expr_mut(e, v)))
                }
                InsertSource::Query(q) => walk_query_mut(q, v),
                InsertSource::DefaultValues => {}
            }
        }
        Statement::Update(u) => {
            v.table_name(&mut u.table);
            for (c, e) in &mut u.assignments {
                v.column_name(c);
                walk_expr_mut(e, v);
            }
            if let Some(w) = &mut u.where_ {
                walk_expr_mut(w, v);
            }
        }
        Statement::Delete(d) => {
            v.table_name(&mut d.table);
            if let Some(w) = &mut d.where_ {
                walk_expr_mut(w, v);
            }
        }
        Statement::With(w) => {
            for cte in &mut w.ctes {
                match &mut cte.body {
                    CteBody::Query(q) => walk_query_mut(q, v),
                    CteBody::Dml(s) => walk_statement_mut(s, v),
                }
            }
            walk_statement_mut(&mut w.body, v);
        }
        Statement::Values(rows) => {
            rows.iter_mut().for_each(|r| r.iter_mut().for_each(|e| walk_expr_mut(e, v)))
        }
        Statement::Truncate { table } => v.table_name(table),
        Statement::Copy(c) => match &mut c.source {
            CopySource::Table { name, columns } => {
                v.table_name(name);
                columns.iter_mut().for_each(|c| v.column_name(c));
            }
            CopySource::Query(q) => walk_query_mut(q, v),
        },
        Statement::Grant(g) | Statement::Revoke(g) => v.table_name(&mut g.object),
        Statement::LockTable { table, .. } => v.table_name(table),
        Statement::Analyze(Some(t)) | Statement::Vacuum { table: Some(t), .. } => v.table_name(t),
        Statement::Cluster(Some(t)) | Statement::Reindex(Some(t)) => v.table_name(t),
        Statement::Explain(inner) => walk_statement_mut(inner, v),
        Statement::RefreshMatView(n) => v.table_name(n),
        Statement::Call { args, .. } => args.iter_mut().for_each(|e| walk_expr_mut(e, v)),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Read-only structural queries (built on the mutable walker via collectors)
// ---------------------------------------------------------------------------

struct Collector {
    tables: Vec<String>,
}

impl MutVisitor for Collector {
    fn table_name(&mut self, name: &mut String) {
        self.tables.push(name.clone());
    }
}

/// All table names mentioned by the statement (definitions and references).
pub fn table_names(stmt: &Statement) -> Vec<String> {
    let mut c = Collector { tables: vec![] };
    let mut s = stmt.clone();
    walk_statement_mut(&mut s, &mut c);
    c.tables
}

/// Does the statement contain a window function anywhere?
pub fn has_window_function(stmt: &Statement) -> bool {
    // The MutVisitor has no hook for non-literal expressions, so walk the
    // tree manually.
    fn expr_has_window(e: &Expr) -> bool {
        match e {
            Expr::Window { .. } => true,
            Expr::Unary(_, e) | Expr::IsNull { expr: e, .. } | Expr::Cast { expr: e, .. } => {
                expr_has_window(e)
            }
            Expr::Binary(l, _, r) => expr_has_window(l) || expr_has_window(r),
            Expr::Like { expr, pattern, .. } => expr_has_window(expr) || expr_has_window(pattern),
            Expr::InList { expr, list, .. } => {
                expr_has_window(expr) || list.iter().any(expr_has_window)
            }
            Expr::Between { expr, low, high, .. } => {
                expr_has_window(expr) || expr_has_window(low) || expr_has_window(high)
            }
            Expr::Case { operand, whens, else_ } => {
                operand.as_deref().map(expr_has_window).unwrap_or(false)
                    || whens.iter().any(|(w, t)| expr_has_window(w) || expr_has_window(t))
                    || else_.as_deref().map(expr_has_window).unwrap_or(false)
            }
            Expr::Func(c) => c.args.iter().any(expr_has_window),
            Expr::Subquery(q) | Expr::Exists { query: q, .. } => query_has_window(q),
            _ => false,
        }
    }
    fn query_has_window(q: &Query) -> bool {
        fn set_has(s: &SetExpr) -> bool {
            match s {
                SetExpr::Select(sel) => {
                    sel.projection.iter().any(|i| match i {
                        SelectItem::Expr { expr, .. } => expr_has_window(expr),
                        _ => false,
                    }) || sel.where_.as_ref().map(expr_has_window).unwrap_or(false)
                        || sel.group_by.iter().any(expr_has_window)
                        || sel.having.as_ref().map(expr_has_window).unwrap_or(false)
                        || sel.from.iter().any(|t| match t {
                            TableRef::Subquery { query, .. } => query_has_window(query),
                            _ => false,
                        })
                }
                SetExpr::SetOp { left, right, .. } => set_has(left) || set_has(right),
                SetExpr::Values(rows) => rows.iter().flatten().any(expr_has_window),
            }
        }
        set_has(&q.body) || q.order_by.iter().any(|o| expr_has_window(&o.expr))
    }
    match stmt {
        Statement::Select(s) => query_has_window(&s.query),
        Statement::CreateView(v) => query_has_window(&v.query),
        Statement::CreateTableAs { query, .. } => query_has_window(query),
        Statement::Insert(Insert { source: InsertSource::Query(q), .. }) => query_has_window(q),
        Statement::With(w) => {
            w.ctes.iter().any(|c| match &c.body {
                CteBody::Query(q) => query_has_window(q),
                CteBody::Dml(s) => has_window_function(s),
            }) || has_window_function(&w.body)
        }
        Statement::Copy(CopyStmt { source: CopySource::Query(q), .. }) => query_has_window(q),
        Statement::CreateTrigger(t) => has_window_function(&t.action),
        Statement::Explain(s) => has_window_function(s),
        _ => false,
    }
}

/// Does the statement contain a GROUP BY anywhere (top-level query only)?
pub fn has_group_by(stmt: &Statement) -> bool {
    fn query_has(q: &Query) -> bool {
        fn set_has(s: &SetExpr) -> bool {
            match s {
                SetExpr::Select(sel) => !sel.group_by.is_empty(),
                SetExpr::SetOp { left, right, .. } => set_has(left) || set_has(right),
                SetExpr::Values(_) => false,
            }
        }
        set_has(&q.body)
    }
    match stmt {
        Statement::Select(s) => query_has(&s.query),
        Statement::CreateView(v) => query_has(&v.query),
        Statement::CreateTableAs { query, .. } => query_has(query),
        Statement::With(w) => {
            w.ctes.iter().any(|c| match &c.body {
                CteBody::Query(q) => query_has(q),
                CteBody::Dml(s) => has_group_by(s),
            }) || has_group_by(&w.body)
        }
        Statement::Copy(CopyStmt { source: CopySource::Query(q), .. }) => query_has(q),
        Statement::CreateTrigger(t) => has_group_by(&t.action),
        Statement::Insert(Insert { source: InsertSource::Query(q), .. }) => query_has(q),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{DataType, FuncCall, WindowSpec};

    fn select_t1() -> Statement {
        Statement::Select(SelectStmt {
            query: Box::new(Query::star_from("t1")),
            variant: SelectVariant::Plain,
        })
    }

    #[test]
    fn table_names_of_select() {
        assert_eq!(table_names(&select_t1()), vec!["t1".to_string()]);
    }

    #[test]
    fn table_names_of_create_table_with_fk() {
        let c = Statement::CreateTable(CreateTable {
            name: "child".into(),
            temporary: false,
            if_not_exists: false,
            columns: vec![ColumnDef {
                name: "pid".into(),
                ty: DataType::Int,
                constraints: vec![ColumnConstraint::References {
                    table: "parent".into(),
                    column: None,
                }],
            }],
            constraints: vec![],
        });
        let t = table_names(&c);
        assert!(t.contains(&"child".to_string()));
        assert!(t.contains(&"parent".to_string()));
    }

    #[test]
    fn window_detection() {
        let mut q = Query::star_from("t1");
        assert!(!has_window_function(&Statement::Select(SelectStmt {
            query: Box::new(q.clone()),
            variant: SelectVariant::Plain
        })));
        if let SetExpr::Select(sel) = &mut q.body {
            sel.projection = vec![SelectItem::Expr {
                expr: Expr::Window { func: FuncCall::star("RANK"), spec: WindowSpec::default() },
                alias: None,
            }];
        }
        assert!(has_window_function(&Statement::Select(SelectStmt {
            query: Box::new(q),
            variant: SelectVariant::Plain
        })));
    }

    #[test]
    fn group_by_detection_through_trigger_action() {
        let mut q = Query::star_from("t2");
        if let SetExpr::Select(sel) = &mut q.body {
            sel.group_by = vec![Expr::col("full_name")];
        }
        let trig = Statement::CreateTrigger(CreateTrigger {
            name: "v0".into(),
            timing: TriggerTiming::After,
            event: DmlEvent::Update,
            table: "t2".into(),
            for_each_row: true,
            action: Box::new(Statement::Insert(Insert {
                table: "t2".into(),
                columns: vec![],
                source: InsertSource::Query(Box::new(q)),
                ignore: false,
                replace: false,
                low_priority: false,
            })),
        });
        assert!(has_group_by(&trig));
    }

    #[test]
    fn mut_visitor_can_rename_tables() {
        struct Renamer;
        impl MutVisitor for Renamer {
            fn table_name(&mut self, name: &mut String) {
                *name = "renamed".into();
            }
        }
        let mut s = select_t1();
        walk_statement_mut(&mut s, &mut Renamer);
        assert_eq!(table_names(&s), vec!["renamed".to_string()]);
    }
}
