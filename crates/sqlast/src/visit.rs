//! AST walkers.
//!
//! The fuzzer needs two views of a statement: read-only structural queries
//! (which tables does it touch? does it contain a window function?) and a
//! mutable walk used by the instantiator to rebind identifiers and refill
//! literals ([`MutVisitor`]). [`Visitor`] is the same walk over a borrowed
//! statement; one macro body defines both, so they visit the same positions
//! in the same order.

use crate::ast::*;
use crate::expr::{ColumnRef, Expr, FrameBound};

/// Defines a visitor trait and its walkers. `$m` is `mut` for the mutable
/// set and absent for the read-only one; a name hook receives `&$m $Name`.
macro_rules! visitor {
    (
        $(#[$doc:meta])*
        $Visitor:ident, $Name:ty,
        $walk_expr:ident, $walk_query:ident, $walk_set_expr:ident, $walk_select:ident,
        $walk_table_ref:ident, $walk_statement:ident $(, $m:tt)?
    ) => {
        $(#[$doc])*
        ///
        /// Default methods do nothing, so implementors override only what
        /// they need.
        pub trait $Visitor {
            /// Every table (or view) name position: definitions and references.
            fn table_name(&mut self, _name: &$($m)? $Name) {}
            /// Every column-name position (column refs, column defs, insert
            /// lists…).
            fn column_name(&mut self, _name: &$($m)? $Name) {}
            /// Every full column-reference expression, qualifier included.
            /// The default delegates to the name hooks, so implementors that
            /// only care about names keep working unchanged.
            fn column_ref(&mut self, c: &$($m)? ColumnRef) {
                if let Some(t) = &$($m)? c.table {
                    self.table_name(t);
                }
                self.column_name(&$($m)? c.column);
            }
            /// Every literal leaf expression.
            fn literal(&mut self, _expr: &$($m)? Expr) {}
        }

        pub fn $walk_expr(expr: &$($m)? Expr, v: &mut dyn $Visitor) {
            match expr {
                Expr::Null | Expr::Bool(_) | Expr::Integer(_) | Expr::Float(_) | Expr::Str(_) => {
                    v.literal(expr)
                }
                Expr::Column(c) => v.column_ref(c),
                Expr::Unary(_, e) => $walk_expr(e, v),
                Expr::Binary(l, _, r) => {
                    $walk_expr(l, v);
                    $walk_expr(r, v);
                }
                Expr::Like { expr, pattern, .. } => {
                    $walk_expr(expr, v);
                    $walk_expr(pattern, v);
                }
                Expr::InList { expr, list, .. } => {
                    $walk_expr(expr, v);
                    for e in list {
                        $walk_expr(e, v);
                    }
                }
                Expr::Between { expr, low, high, .. } => {
                    $walk_expr(expr, v);
                    $walk_expr(low, v);
                    $walk_expr(high, v);
                }
                Expr::IsNull { expr, .. } => $walk_expr(expr, v),
                Expr::Case { operand, whens, else_ } => {
                    if let Some(o) = operand {
                        $walk_expr(o, v);
                    }
                    for (w, t) in whens {
                        $walk_expr(w, v);
                        $walk_expr(t, v);
                    }
                    if let Some(e) = else_ {
                        $walk_expr(e, v);
                    }
                }
                Expr::Func(c) => {
                    for e in &$($m)? c.args {
                        $walk_expr(e, v);
                    }
                }
                Expr::Window { func, spec } => {
                    for e in &$($m)? func.args {
                        $walk_expr(e, v);
                    }
                    for e in &$($m)? spec.partition_by {
                        $walk_expr(e, v);
                    }
                    for o in &$($m)? spec.order_by {
                        $walk_expr(&$($m)? o.expr, v);
                    }
                    if let Some(fr) = &$($m)? spec.frame {
                        if let FrameBound::Preceding(e) | FrameBound::Following(e) =
                            &$($m)? fr.start
                        {
                            $walk_expr(e, v);
                        }
                        if let Some(FrameBound::Preceding(e) | FrameBound::Following(e)) =
                            &$($m)? fr.end
                        {
                            $walk_expr(e, v);
                        }
                    }
                }
                Expr::Cast { expr, .. } => $walk_expr(expr, v),
                Expr::Subquery(q) => $walk_query(q, v),
                Expr::Exists { query, .. } => $walk_query(query, v),
            }
        }

        pub fn $walk_query(q: &$($m)? Query, v: &mut dyn $Visitor) {
            $walk_set_expr(&$($m)? q.body, v);
            for o in &$($m)? q.order_by {
                $walk_expr(&$($m)? o.expr, v);
            }
            if let Some(l) = &$($m)? q.limit {
                $walk_expr(l, v);
            }
            if let Some(o) = &$($m)? q.offset {
                $walk_expr(o, v);
            }
        }

        fn $walk_set_expr(s: &$($m)? SetExpr, v: &mut dyn $Visitor) {
            match s {
                SetExpr::Select(sel) => $walk_select(sel, v),
                SetExpr::SetOp { left, right, .. } => {
                    $walk_set_expr(left, v);
                    $walk_set_expr(right, v);
                }
                SetExpr::Values(rows) => {
                    for e in rows.into_iter().flatten() {
                        $walk_expr(e, v);
                    }
                }
            }
        }

        fn $walk_select(sel: &$($m)? Select, v: &mut dyn $Visitor) {
            for item in &$($m)? sel.projection {
                match item {
                    SelectItem::Star => {}
                    SelectItem::QualifiedStar(t) => v.table_name(t),
                    SelectItem::Expr { expr, .. } => $walk_expr(expr, v),
                }
            }
            for t in &$($m)? sel.from {
                $walk_table_ref(t, v);
            }
            if let Some(w) = &$($m)? sel.where_ {
                $walk_expr(w, v);
            }
            for e in &$($m)? sel.group_by {
                $walk_expr(e, v);
            }
            if let Some(h) = &$($m)? sel.having {
                $walk_expr(h, v);
            }
        }

        fn $walk_table_ref(t: &$($m)? TableRef, v: &mut dyn $Visitor) {
            match t {
                TableRef::Named { name, .. } => v.table_name(name),
                TableRef::Join { left, right, on, .. } => {
                    $walk_table_ref(left, v);
                    $walk_table_ref(right, v);
                    if let Some(on) = on {
                        $walk_expr(on, v);
                    }
                }
                TableRef::Subquery { query, .. } => $walk_query(query, v),
            }
        }

        /// Walk every name/literal position of a statement.
        pub fn $walk_statement(stmt: &$($m)? Statement, v: &mut dyn $Visitor) {
            match stmt {
                Statement::CreateTable(c) => {
                    v.table_name(&$($m)? c.name);
                    for col in &$($m)? c.columns {
                        v.column_name(&$($m)? col.name);
                        for con in &$($m)? col.constraints {
                            match con {
                                ColumnConstraint::Default(e) | ColumnConstraint::Check(e) => {
                                    $walk_expr(e, v)
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
                    for con in &$($m)? c.constraints {
                        match con {
                            TableConstraint::PrimaryKey(cols) | TableConstraint::Unique(cols) => {
                                for c in cols {
                                    v.column_name(c);
                                }
                            }
                            TableConstraint::Check(e) => $walk_expr(e, v),
                            TableConstraint::ForeignKey { columns, ref_table, ref_columns } => {
                                for c in columns {
                                    v.column_name(c);
                                }
                                v.table_name(ref_table);
                                for c in ref_columns {
                                    v.column_name(c);
                                }
                            }
                        }
                    }
                }
                Statement::CreateView(c) => {
                    v.table_name(&$($m)? c.name);
                    $walk_query(&$($m)? c.query, v);
                }
                Statement::CreateIndex(c) => {
                    v.table_name(&$($m)? c.table);
                    for c in &$($m)? c.columns {
                        v.column_name(c);
                    }
                }
                Statement::CreateTrigger(c) => {
                    v.table_name(&$($m)? c.table);
                    $walk_statement(&$($m)? c.action, v);
                }
                Statement::CreateRule(c) => {
                    v.table_name(&$($m)? c.table);
                    if let Some(a) = &$($m)? c.action {
                        $walk_statement(a, v);
                    }
                }
                Statement::CreateTableAs { name, query } => {
                    v.table_name(name);
                    $walk_query(query, v);
                }
                Statement::AlterTable(a) => {
                    v.table_name(&$($m)? a.name);
                    match &$($m)? a.action {
                        AlterTableAction::AddColumn(c) => v.column_name(&$($m)? c.name),
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
                        v.table_name(&$($m)? d.name);
                    }
                    if let Some(t) = &$($m)? d.on_table {
                        v.table_name(t);
                    }
                }
                Statement::GenericDdl(_) => {}
                Statement::Select(s) => $walk_query(&$($m)? s.query, v),
                Statement::Insert(i) => {
                    v.table_name(&$($m)? i.table);
                    for c in &$($m)? i.columns {
                        v.column_name(c);
                    }
                    match &$($m)? i.source {
                        InsertSource::Values(rows) => {
                            for e in rows.into_iter().flatten() {
                                $walk_expr(e, v);
                            }
                        }
                        InsertSource::Query(q) => $walk_query(q, v),
                        InsertSource::DefaultValues => {}
                    }
                }
                Statement::Update(u) => {
                    v.table_name(&$($m)? u.table);
                    for (c, e) in &$($m)? u.assignments {
                        v.column_name(c);
                        $walk_expr(e, v);
                    }
                    if let Some(w) = &$($m)? u.where_ {
                        $walk_expr(w, v);
                    }
                }
                Statement::Delete(d) => {
                    v.table_name(&$($m)? d.table);
                    if let Some(w) = &$($m)? d.where_ {
                        $walk_expr(w, v);
                    }
                }
                Statement::With(w) => {
                    for cte in &$($m)? w.ctes {
                        match &$($m)? cte.body {
                            CteBody::Query(q) => $walk_query(q, v),
                            CteBody::Dml(s) => $walk_statement(s, v),
                        }
                    }
                    $walk_statement(&$($m)? w.body, v);
                }
                Statement::Values(rows) => {
                    for e in rows.into_iter().flatten() {
                        $walk_expr(e, v);
                    }
                }
                Statement::Truncate { table } => v.table_name(table),
                Statement::Copy(c) => match &$($m)? c.source {
                    CopySource::Table { name, columns } => {
                        v.table_name(name);
                        for c in columns {
                            v.column_name(c);
                        }
                    }
                    CopySource::Query(q) => $walk_query(q, v),
                },
                Statement::Grant(g) | Statement::Revoke(g) => v.table_name(&$($m)? g.object),
                Statement::LockTable { table, .. } => v.table_name(table),
                Statement::Analyze(Some(t)) | Statement::Vacuum { table: Some(t), .. } => {
                    v.table_name(t)
                }
                Statement::Cluster(Some(t)) | Statement::Reindex(Some(t)) => v.table_name(t),
                Statement::Explain(inner) => $walk_statement(inner, v),
                Statement::RefreshMatView(n) => v.table_name(n),
                Statement::Call { args, .. } => {
                    for e in args {
                        $walk_expr(e, v);
                    }
                }
                _ => {}
            }
        }
    };
}

visitor!(
    /// Mutable visitor over the names and literals of a statement.
    MutVisitor, String,
    walk_expr_mut, walk_query_mut, walk_set_expr_mut, walk_select_mut,
    walk_table_ref_mut, walk_statement_mut, mut
);

visitor!(
    /// Read-only visitor over the names and literals of a statement.
    Visitor, str,
    walk_expr, walk_query, walk_set_expr, walk_select, walk_table_ref, walk_statement
);

// ---------------------------------------------------------------------------
// Read-only structural queries
// ---------------------------------------------------------------------------

struct Collector {
    tables: Vec<String>,
}

impl Visitor for Collector {
    fn table_name(&mut self, name: &str) {
        self.tables.push(name.to_string());
    }
}

/// All table names mentioned by the statement (definitions and references),
/// in walk order.
pub fn table_names(stmt: &Statement) -> Vec<String> {
    let mut c = Collector { tables: vec![] };
    walk_statement(stmt, &mut c);
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
                expr: Expr::Window {
                    func: Box::new(FuncCall::star("RANK")),
                    spec: Box::new(WindowSpec::default()),
                },
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
