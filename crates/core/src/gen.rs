//! Statement generation: a schema-aware generator able to produce a
//! statement of *every* statement type of every dialect.
//!
//! Used by sequence-oriented mutation (substituted/inserted statements),
//! by the instantiator when the AST library has no skeleton for a type yet,
//! and by the generation-based baseline fuzzers.

use lego_sqlast::ast::*;
use lego_sqlast::expr::*;
use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};
use lego_sqlast::Dialect;
use rand::rngs::SmallRng;
use rand::Rng;
use std::borrow::Borrow;

/// A lightweight model of the schema produced by a statement prefix.
#[derive(Clone, Debug, Default)]
pub struct SchemaModel {
    pub tables: Vec<TableModel>,
}

#[derive(Clone, Debug)]
pub struct TableModel {
    pub name: String,
    pub columns: Vec<ColumnModel>,
}

/// One column of a [`TableModel`], with the constraints the validator
/// repairs INSERT rows against.
#[derive(Clone, Debug)]
pub struct ColumnModel {
    pub name: String,
    pub ty: DataType,
    /// Rejects explicit NULL values (NOT NULL or PRIMARY KEY, with or
    /// without a DEFAULT).
    pub not_null: bool,
    /// Must appear in an INSERT column list (NOT NULL or PRIMARY KEY,
    /// without a DEFAULT to fall back on). The validator appends the
    /// required columns an explicit list lacks, in table order.
    pub required: bool,
    /// Rejects duplicate values (UNIQUE or PRIMARY KEY).
    pub unique: bool,
}

impl ColumnModel {
    /// A column without constraints.
    pub fn new(name: String, ty: DataType) -> Self {
        Self { name, ty, not_null: false, required: false, unique: false }
    }

    /// Does `name` (in any letter case) name this column?
    pub fn is(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
    }
}

impl TableModel {
    /// The first column called `name`.
    pub fn column(&self, name: &str) -> Option<&ColumnModel> {
        self.columns.iter().find(|c| c.is(name))
    }

    /// Does a column called `column` reject NULL? Constraints belong to
    /// names: with two columns of one name, either one's flag counts.
    pub fn is_not_null(&self, column: &str) -> bool {
        self.columns.iter().any(|c| c.not_null && c.is(column))
    }

    /// Does a column called `column` reject duplicates?
    pub fn is_unique(&self, column: &str) -> bool {
        self.columns.iter().any(|c| c.unique && c.is(column))
    }
}

impl SchemaModel {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn table(&self, name: &str) -> Option<&TableModel> {
        self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.table(name).is_some()
    }

    pub fn random_table<'a>(&'a self, rng: &mut SmallRng) -> Option<&'a TableModel> {
        if self.tables.is_empty() {
            None
        } else {
            Some(&self.tables[rng.gen_range(0..self.tables.len())])
        }
    }

    pub fn fresh_table_name(&self, rng: &mut SmallRng) -> String {
        for _ in 0..64 {
            let name = format!("v{}", rng.gen_range(0..100));
            if !self.has_table(&name) {
                return name;
            }
        }
        format!("v{}", self.tables.len() + 100)
    }

    /// Update the model with the effect of one statement (tables created,
    /// dropped, renamed, altered; views modelled as tables for reference
    /// purposes).
    pub fn observe(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable(c) if !self.has_table(&c.name) => {
                use lego_sqlast::ast::ColumnConstraint as CC;
                let columns = c
                    .columns
                    .iter()
                    .map(|col| {
                        let has = |f: fn(&CC) -> bool| col.constraints.iter().any(f);
                        let not_null = has(|k| matches!(k, CC::NotNull | CC::PrimaryKey));
                        ColumnModel {
                            name: col.name.clone(),
                            ty: col.ty,
                            not_null,
                            required: not_null && !has(|k| matches!(k, CC::Default(_))),
                            unique: has(|k| matches!(k, CC::Unique | CC::PrimaryKey)),
                        }
                    })
                    .collect();
                self.tables.push(TableModel { name: c.name.clone(), columns });
            }
            Statement::CreateTableAs { name, .. } if !self.has_table(name) => {
                self.tables.push(TableModel {
                    name: name.clone(),
                    columns: vec![ColumnModel::new("column1".into(), DataType::Int)],
                });
            }
            Statement::CreateView(v) if !self.has_table(&v.name) => {
                // Approximate view columns by the underlying table's, without
                // its constraints.
                let columns = lego_sqlast::visit::table_names(stmt)
                    .iter()
                    .skip(1)
                    .find_map(|t| self.table(t))
                    .map(|t| {
                        t.columns.iter().map(|c| ColumnModel::new(c.name.clone(), c.ty)).collect()
                    })
                    .unwrap_or_else(|| vec![ColumnModel::new("column1".into(), DataType::Int)]);
                self.tables.push(TableModel { name: v.name.clone(), columns });
            }
            Statement::Drop(d) if matches!(d.object, ObjectKind::Table | ObjectKind::View) => {
                self.tables.retain(|t| !t.name.eq_ignore_ascii_case(&d.name));
            }
            Statement::AlterTable(a) => {
                let name = a.name.clone();
                if let Some(t) = self.tables.iter_mut().find(|t| t.name.eq_ignore_ascii_case(&name))
                {
                    match &a.action {
                        AlterTableAction::AddColumn(c) => {
                            t.columns.push(ColumnModel::new(c.name.clone(), c.ty))
                        }
                        AlterTableAction::DropColumn(c) => t.columns.retain(|col| !col.is(c)),
                        AlterTableAction::RenameColumn { old, new } => {
                            // The first column called `old` takes the new
                            // name. Constraints belong to names (see
                            // `TableModel::is_not_null`), so each flag it
                            // lacks moves to it from the first other column
                            // called `old` that has it.
                            if let Some(i) = t.columns.iter().position(|c| c.is(old)) {
                                let (head, rest) = t.columns.split_at_mut(i + 1);
                                let renamed = &mut head[i];
                                for c in rest.iter_mut().filter(|c| c.is(old)) {
                                    for (flag, other) in [
                                        (&mut renamed.not_null, &mut c.not_null),
                                        (&mut renamed.required, &mut c.required),
                                        (&mut renamed.unique, &mut c.unique),
                                    ] {
                                        if !*flag {
                                            *flag = std::mem::take(other);
                                        }
                                    }
                                }
                                renamed.name = new.clone();
                            }
                        }
                        AlterTableAction::RenameTo(new) => t.name = new.clone(),
                        AlterTableAction::AlterColumnType { name, ty } => {
                            if let Some(col) = t.columns.iter_mut().find(|c| c.is(name)) {
                                col.ty = *ty;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Build the model for a whole statement prefix.
    pub fn of_statements<S: Borrow<Statement>>(stmts: &[S]) -> Self {
        let mut m = Self::new();
        for s in stmts {
            m.observe(s.borrow());
        }
        m
    }
}

/// Random literal of a given type.
pub fn gen_literal(ty: DataType, rng: &mut SmallRng) -> Expr {
    if rng.gen_bool(0.08) {
        return Expr::Null;
    }
    gen_literal_not_null(ty, rng)
}

/// Random literal that is never NULL — for columns with NOT NULL / PRIMARY
/// KEY constraints, where a NULL would make the whole case semantically
/// invalid.
pub fn gen_literal_not_null(ty: DataType, rng: &mut SmallRng) -> Expr {
    match ty {
        t if t.is_numeric() => {
            if rng.gen_bool(0.2) {
                Expr::Float(f64::from(rng.gen_range(-1000i32..10_000)) / 10.0)
            } else {
                Expr::Integer(rng.gen_range(-100i64..10_000))
            }
        }
        DataType::Bool => Expr::Bool(rng.gen_bool(0.5)),
        t if t.is_textual() => {
            const WORDS: &[&str] = &["name1", "x", "Water", "abc", "", "z%", "_a"];
            Expr::Str(WORDS[rng.gen_range(0..WORDS.len())].to_string())
        }
        _ => Expr::Str(format!("blob{}", rng.gen_range(0..16))),
    }
}

fn random_type(rng: &mut SmallRng) -> DataType {
    DataType::COMMON[rng.gen_range(0..DataType::COMMON.len())]
}

/// Random scalar expression over the given columns.
pub fn gen_expr(cols: &[ColumnModel], rng: &mut SmallRng, depth: usize) -> Expr {
    let col = |rng: &mut SmallRng| -> Expr {
        if cols.is_empty() {
            Expr::Integer(1)
        } else {
            Expr::col(cols[rng.gen_range(0..cols.len())].name.clone())
        }
    };
    if depth == 0 {
        return if rng.gen_bool(0.5) { col(rng) } else { gen_literal(random_type(rng), rng) };
    }
    match rng.gen_range(0..10) {
        0..=2 => gen_literal(random_type(rng), rng),
        3..=4 => col(rng),
        5 => {
            let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod, BinOp::Concat];
            Expr::binary(
                gen_expr(cols, rng, depth - 1),
                ops[rng.gen_range(0..ops.len())],
                gen_expr(cols, rng, depth - 1),
            )
        }
        6 => {
            let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
            Expr::binary(
                gen_expr(cols, rng, depth - 1),
                ops[rng.gen_range(0..ops.len())],
                gen_expr(cols, rng, depth - 1),
            )
        }
        7 => match rng.gen_range(0..4) {
            0 => Expr::IsNull { expr: Box::new(col(rng)), negated: rng.gen_bool(0.5) },
            1 => Expr::Like {
                expr: Box::new(col(rng)),
                pattern: Box::new(Expr::Str(if rng.gen_bool(0.5) { "x%" } else { "%a_" }.into())),
                negated: rng.gen_bool(0.3),
            },
            2 => Expr::Between {
                expr: Box::new(col(rng)),
                low: Box::new(gen_literal(DataType::Int, rng)),
                high: Box::new(gen_literal(DataType::Int, rng)),
                negated: rng.gen_bool(0.3),
            },
            _ => Expr::InList {
                expr: Box::new(col(rng)),
                list: (0..rng.gen_range(1..4)).map(|_| gen_literal(DataType::Int, rng)).collect(),
                negated: rng.gen_bool(0.3),
            },
        },
        8 => {
            const FNS: &[&str] =
                &["ABS", "LENGTH", "UPPER", "LOWER", "COALESCE", "TRIM", "HEX", "SIGN", "TYPEOF"];
            Expr::Func(FuncCall::new(
                FNS[rng.gen_range(0..FNS.len())],
                vec![gen_expr(cols, rng, depth - 1)],
            ))
        }
        _ => Expr::Case {
            operand: None,
            whens: vec![(gen_expr(cols, rng, depth - 1), gen_literal(DataType::Int, rng))],
            else_: Some(Box::new(gen_literal(DataType::Int, rng))),
        },
    }
}

fn gen_window_expr(cols: &[ColumnModel], rng: &mut SmallRng) -> Expr {
    const WFNS: &[&str] = &["ROW_NUMBER", "RANK", "DENSE_RANK", "LEAD", "LAG", "SUM", "COUNT"];
    let name = WFNS[rng.gen_range(0..WFNS.len())];
    let args = if matches!(name, "ROW_NUMBER" | "RANK" | "DENSE_RANK") {
        vec![]
    } else {
        vec![gen_expr(cols, rng, 0)]
    };
    let order_col = if cols.is_empty() {
        Expr::Integer(1)
    } else {
        Expr::col(cols[rng.gen_range(0..cols.len())].name.clone())
    };
    let frame = if rng.gen_bool(0.3) {
        Some(FrameClause {
            unit: if rng.gen_bool(0.5) { FrameUnit::Rows } else { FrameUnit::Range },
            start: FrameBound::Preceding(Box::new(Expr::Integer(rng.gen_range(0..100)))),
            end: Some(FrameBound::Following(Box::new(Expr::Integer(rng.gen_range(0..100))))),
        })
    } else {
        None
    };
    Expr::Window {
        func: Box::new(FuncCall::new(name, args)),
        spec: Box::new(WindowSpec {
            partition_by: if rng.gen_bool(0.3) && !cols.is_empty() {
                vec![Expr::col(cols[rng.gen_range(0..cols.len())].name.clone())]
            } else {
                vec![]
            },
            order_by: vec![OrderItem { expr: order_col, desc: rng.gen_bool(0.3) }],
            frame,
        }),
    }
}

/// Random query over the schema.
pub fn gen_query(
    schema: &SchemaModel,
    dialect: Dialect,
    rng: &mut SmallRng,
    depth: usize,
) -> Query {
    let table = schema.random_table(rng).cloned();
    let (from, cols): (Vec<TableRef>, Vec<ColumnModel>) = match &table {
        None => (vec![], vec![]),
        Some(t) => {
            let mut from = vec![TableRef::named(t.name.clone())];
            let mut cols = t.columns.clone();
            if rng.gen_bool(0.2) && depth > 0 {
                if let Some(t2) = schema.random_table(rng) {
                    let kinds = [JoinKind::Inner, JoinKind::Left, JoinKind::Right, JoinKind::Cross];
                    let kind = kinds[rng.gen_range(0..kinds.len())];
                    let on = if kind == JoinKind::Cross || t2.columns.is_empty() || cols.is_empty()
                    {
                        None
                    } else {
                        Some(Expr::eq(
                            Expr::Column(ColumnRef::qualified(
                                t.name.clone(),
                                cols[rng.gen_range(0..cols.len())].name.clone(),
                            )),
                            Expr::Column(ColumnRef::qualified(
                                t2.name.clone(),
                                t2.columns[rng.gen_range(0..t2.columns.len())].name.clone(),
                            )),
                        ))
                    };
                    let left = from.pop().unwrap();
                    from.push(TableRef::Join {
                        left: Box::new(left),
                        right: Box::new(TableRef::named(t2.name.clone())),
                        kind,
                        on,
                    });
                    cols.extend(t2.columns.clone());
                }
            }
            (from, cols)
        }
    };
    let group = !cols.is_empty() && rng.gen_bool(0.15);
    let projection = if group {
        let key = cols[rng.gen_range(0..cols.len())].name.clone();
        vec![
            SelectItem::Expr { expr: Expr::col(key), alias: None },
            SelectItem::Expr {
                expr: Expr::Func(if rng.gen_bool(0.5) {
                    FuncCall::star("COUNT")
                } else {
                    FuncCall::new("SUM", vec![gen_expr(&cols, rng, 0)])
                }),
                alias: None,
            },
        ]
    } else if from.is_empty() || rng.gen_bool(0.4) {
        if from.is_empty() {
            vec![SelectItem::Expr { expr: gen_literal(DataType::Int, rng), alias: None }]
        } else {
            vec![SelectItem::Star]
        }
    } else {
        let mut items = Vec::new();
        for _ in 0..rng.gen_range(1..3) {
            let expr = if rng.gen_bool(0.12)
                && Dialect::supports(dialect, StmtKind::Other(StandaloneKind::Select))
                && dialect != Dialect::Comdb2
            {
                gen_window_expr(&cols, rng)
            } else if rng.gen_bool(0.15) {
                Expr::Func(if rng.gen_bool(0.5) {
                    FuncCall::star("COUNT")
                } else {
                    FuncCall::new("MAX", vec![gen_expr(&cols, rng, 0)])
                })
            } else {
                gen_expr(&cols, rng, 1)
            };
            let alias =
                if rng.gen_bool(0.25) { Some(format!("a{}", rng.gen_range(0..8))) } else { None };
            items.push(SelectItem::Expr { expr, alias });
        }
        items
    };
    let group_by = if group {
        vec![match &projection[0] {
            SelectItem::Expr { expr, .. } => expr.clone(),
            _ => Expr::Integer(1),
        }]
    } else {
        vec![]
    };
    let having = if group && rng.gen_bool(0.3) {
        Some(Expr::binary(Expr::Func(FuncCall::star("COUNT")), BinOp::Gt, Expr::Integer(1)))
    } else {
        None
    };
    let where_ =
        if !from.is_empty() && rng.gen_bool(0.5) { Some(gen_expr(&cols, rng, 2)) } else { None };
    let mut body = SetExpr::Select(Box::new(Select {
        distinct: rng.gen_bool(0.12),
        projection,
        from,
        where_,
        group_by,
        having,
    }));
    if depth > 0 && rng.gen_bool(0.1) {
        let ops = [SetOp::Union, SetOp::Except, SetOp::Intersect];
        let right = gen_query(schema, dialect, rng, 0).body;
        body = SetExpr::SetOp {
            op: ops[rng.gen_range(0..ops.len())],
            all: rng.gen_bool(0.4),
            left: Box::new(body),
            right: Box::new(right),
        };
    }
    let order_by = if rng.gen_bool(0.4) && !cols.is_empty() {
        vec![OrderItem {
            expr: Expr::col(cols[rng.gen_range(0..cols.len())].name.clone()),
            desc: rng.gen_bool(0.4),
        }]
    } else {
        vec![]
    };
    Query {
        body,
        order_by,
        limit: if rng.gen_bool(0.2) { Some(Expr::Integer(rng.gen_range(1..50))) } else { None },
        offset: if rng.gen_bool(0.08) { Some(Expr::Integer(rng.gen_range(0..5))) } else { None },
    }
}

fn gen_insert(schema: &SchemaModel, dialect: Dialect, rng: &mut SmallRng, replace: bool) -> Insert {
    let (table, columns) = match schema.random_table(rng) {
        Some(t) => (t.name.clone(), t.columns.clone()),
        None => ("t1".to_string(), vec![ColumnModel::new("v1".into(), DataType::Int)]),
    };
    let source = if rng.gen_bool(0.1) {
        InsertSource::Query(Box::new(gen_query(schema, dialect, rng, 0)))
    } else {
        let nrows = rng.gen_range(1..4);
        let rows =
            (0..nrows).map(|_| columns.iter().map(|c| gen_literal(c.ty, rng)).collect()).collect();
        InsertSource::Values(rows)
    };
    let mysqlish = matches!(dialect, Dialect::MySql | Dialect::MariaDb);
    Insert {
        table,
        columns: vec![],
        source,
        ignore: !replace && mysqlish && rng.gen_bool(0.25),
        replace,
        low_priority: !replace && mysqlish && rng.gen_bool(0.1),
    }
}

fn generic_name(obj: ObjectKind, rng: &mut SmallRng) -> String {
    // Small per-kind name pools so CREATE/ALTER/DROP of the same object can
    // meet (the order-sensitive branches in the generic catalog).
    format!("o{}_{}", obj as u16, rng.gen_range(0..3))
}

fn misc_arg(kind: StandaloneKind, schema: &SchemaModel, rng: &mut SmallRng) -> Option<String> {
    use StandaloneKind as K;
    let table = schema
        .tables
        .get(
            rng.gen_range(0..schema.tables.len().max(1)).min(schema.tables.len().saturating_sub(1)),
        )
        .map(|t| t.name.clone())
        .unwrap_or_else(|| "t1".into());
    Some(match kind {
        K::DeclareCursor | K::Fetch | K::Move | K::CloseCursor => {
            format!("c{}", rng.gen_range(0..3))
        }
        K::PrepareStmt | K::ExecuteStmt | K::Deallocate => format!("p{}", rng.gen_range(0..3)),
        K::ExecuteImmediate => "'SELECT 1'".into(),
        K::XaBegin | K::XaCommit | K::XaRollback => format!("'x{}'", rng.gen_range(0..2)),
        K::PrepareTransaction | K::CommitPrepared | K::RollbackPrepared => {
            format!("'g{}'", rng.gen_range(0..2))
        }
        K::SetTransaction => "ISOLATION LEVEL READ COMMITTED".into(),
        K::SetConstraints => "ALL DEFERRED".into(),
        K::SetRole | K::SetSessionAuthorization => {
            if rng.gen_bool(0.5) {
                "alice".into()
            } else {
                "NONE".into()
            }
        }
        K::SetDefaultRole => "alice".into(),
        K::SetPassword => "FOR alice".into(),
        K::RenameUser => "alice TO bob".into(),
        K::RenameTable => {
            let new = format!("v{}", rng.gen_range(0..100));
            format!("{table} TO {new}")
        }
        K::CheckTable
        | K::ChecksumTable
        | K::OptimizeTable
        | K::RepairTable
        | K::Rebuild
        | K::TableStmt
        | K::Describe
        | K::ShowCreateTable
        | K::ShowColumns
        | K::ShowIndex => table,
        K::Use => format!("db{}", rng.gen_range(0..2)),
        K::KillStmt => format!("{}", rng.gen_range(1..100)),
        K::HelpStmt => "'SELECT'".into(),
        K::Handler => format!("{table} OPEN"),
        K::ExecProcedure => format!("p{} ( )", rng.gen_range(0..3)),
        K::Put => format!("counter{} ON", rng.gen_range(0..3)),
        K::BulkImport => table,
        K::LoadData | K::LoadXml | K::ImportTable => format!("INFILE 'data' INTO TABLE {table}"),
        K::LockTables => format!("{table} READ"),
        K::Signal | K::Resignal => "SQLSTATE '45000'".into(),
        K::GetDiagnostics => "cnt = ROW_COUNT".into(),
        K::PurgeBinaryLogs => "TO 'binlog.000001'".into(),
        K::ChangeMaster | K::ChangeReplicationFilter => "TO master_host = 'h'".into(),
        K::CacheIndex => format!("{table} IN hot"),
        K::LoadIndexIntoCache => table,
        K::Binlog => "'AAAA'".into(),
        K::FlushStmt => "PRIVILEGES".into(),
        K::InstallPlugin | K::UninstallPlugin => "plug SONAME 'plug.so'".into(),
        K::CloneStmt => "LOCAL DATA DIRECTORY 'd'".into(),
        K::BackupStage => "START".into(),
        K::ShowGrants => "FOR alice".into(),
        K::ShowEngine => "innodb STATUS".into(),
        K::DropOwned | K::ReassignOwned => "BY alice".into(),
        K::ImportForeignSchema => format!("s{}", rng.gen_range(0..2)),
        K::AlterSystem => "SET checkpoint_timeout = 60".into(),
        K::AlterDefaultPrivileges => "GRANT SELECT ON TABLES TO alice".into(),
        K::Load => "'module'".into(),
        K::Merge => format!("INTO {table} USING {table} ON 1 = 1"),
        _ => return None,
    })
}

/// Generate a statement of the requested type against the current schema.
pub fn gen_statement(
    kind: StmtKind,
    schema: &SchemaModel,
    dialect: Dialect,
    rng: &mut SmallRng,
) -> Statement {
    use StandaloneKind as K;
    let table_name = |rng: &mut SmallRng| -> String {
        schema.random_table(rng).map(|t| t.name.clone()).unwrap_or_else(|| "t1".into())
    };
    match kind {
        StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table) => {
            let name = schema.fresh_table_name(rng);
            let ncols = rng.gen_range(1..5);
            let mut columns = Vec::with_capacity(ncols);
            for i in 0..ncols {
                let mut def = ColumnDef::new(format!("v{}", i + 1), random_type(rng));
                if i == 0 && rng.gen_bool(0.3) {
                    def.constraints.push(ColumnConstraint::PrimaryKey);
                } else {
                    if rng.gen_bool(0.15) {
                        def.constraints.push(ColumnConstraint::Unique);
                    }
                    if rng.gen_bool(0.1) {
                        def.constraints.push(ColumnConstraint::NotNull);
                    }
                    if rng.gen_bool(0.1) {
                        def.constraints.push(ColumnConstraint::Default(gen_literal(def.ty, rng)));
                    }
                }
                columns.push(def);
            }
            Statement::CreateTable(CreateTable {
                name,
                temporary: rng.gen_bool(0.1),
                if_not_exists: rng.gen_bool(0.1),
                columns,
                constraints: vec![],
            })
        }
        StmtKind::Ddl(DdlVerb::Create, ObjectKind::View | ObjectKind::MaterializedView) => {
            Statement::CreateView(CreateView {
                name: schema.fresh_table_name(rng),
                or_replace: rng.gen_bool(0.2),
                materialized: matches!(kind, StmtKind::Ddl(_, ObjectKind::MaterializedView)),
                query: Box::new(gen_query(schema, dialect, rng, 0)),
            })
        }
        StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index) => {
            let (table, column) = match schema.random_table(rng) {
                Some(t) if !t.columns.is_empty() => {
                    (t.name.clone(), t.columns[rng.gen_range(0..t.columns.len())].name.clone())
                }
                _ => ("t1".into(), "v1".into()),
            };
            Statement::CreateIndex(CreateIndex {
                name: format!("i{}", rng.gen_range(0..10)),
                unique: rng.gen_bool(0.3),
                table,
                columns: vec![column],
            })
        }
        StmtKind::Ddl(DdlVerb::Create, ObjectKind::Trigger) => {
            let table = table_name(rng);
            let events = [DmlEvent::Insert, DmlEvent::Update, DmlEvent::Delete];
            let action = match rng.gen_range(0..3) {
                0 => Statement::Insert(gen_insert(schema, dialect, rng, false)),
                1 => Statement::Delete(Delete { table: table.clone(), where_: None }),
                _ => Statement::Select(SelectStmt {
                    query: Box::new(gen_query(schema, dialect, rng, 0)),
                    variant: SelectVariant::Plain,
                }),
            };
            Statement::CreateTrigger(CreateTrigger {
                name: format!("tg{}", rng.gen_range(0..10)),
                timing: if rng.gen_bool(0.5) {
                    TriggerTiming::After
                } else {
                    TriggerTiming::Before
                },
                event: events[rng.gen_range(0..events.len())],
                table,
                for_each_row: rng.gen_bool(0.7),
                action: Box::new(action),
            })
        }
        StmtKind::Ddl(DdlVerb::Create, ObjectKind::Rule) => {
            let events = [DmlEvent::Insert, DmlEvent::Update, DmlEvent::Delete];
            // NOTIFY actions dominate: DO INSTEAD NOTIFY is the idiomatic
            // PostgreSQL rule in the wild (and the case-study shape).
            let action = match rng.gen_range(0..4) {
                0 | 1 => Some(Box::new(Statement::Notify {
                    channel: format!("ch{}", rng.gen_range(0..4)),
                    payload: None,
                })),
                2 => None,
                _ => Some(Box::new(Statement::Delete(Delete {
                    table: table_name(rng),
                    where_: None,
                }))),
            };
            Statement::CreateRule(CreateRule {
                name: format!("r{}", rng.gen_range(0..10)),
                or_replace: rng.gen_bool(0.4),
                table: table_name(rng),
                event: events[rng.gen_range(0..events.len())],
                instead: rng.gen_bool(0.6),
                action,
            })
        }
        StmtKind::Ddl(DdlVerb::Alter, ObjectKind::Table) => {
            let (name, col) = match schema.random_table(rng) {
                Some(t) if !t.columns.is_empty() => {
                    (t.name.clone(), t.columns[rng.gen_range(0..t.columns.len())].name.clone())
                }
                _ => ("t1".into(), "v1".into()),
            };
            let action = match rng.gen_range(0..5) {
                0 => AlterTableAction::AddColumn(ColumnDef::new(
                    format!("c{}", rng.gen_range(0..20)),
                    random_type(rng),
                )),
                1 => AlterTableAction::DropColumn(col),
                2 => AlterTableAction::RenameColumn {
                    old: col,
                    new: format!("c{}", rng.gen_range(0..20)),
                },
                3 => AlterTableAction::RenameTo(schema.fresh_table_name(rng)),
                _ => AlterTableAction::AlterColumnType { name: col, ty: random_type(rng) },
            };
            Statement::AlterTable(AlterTable { name, action })
        }
        StmtKind::Ddl(DdlVerb::Drop, obj) => {
            let name = match obj {
                ObjectKind::Table | ObjectKind::View | ObjectKind::MaterializedView => {
                    table_name(rng)
                }
                ObjectKind::Index => format!("i{}", rng.gen_range(0..10)),
                ObjectKind::Trigger => format!("tg{}", rng.gen_range(0..10)),
                ObjectKind::Rule => format!("r{}", rng.gen_range(0..10)),
                other => generic_name(other, rng),
            };
            let on_table = if matches!(obj, ObjectKind::Trigger | ObjectKind::Rule) {
                Some(table_name(rng))
            } else {
                None
            };
            Statement::Drop(DropStmt { object: obj, if_exists: rng.gen_bool(0.3), name, on_table })
        }
        StmtKind::Ddl(verb, obj) => Statement::GenericDdl(GenericDdl {
            verb,
            object: obj,
            name: generic_name(obj, rng),
            arg: None,
        }),
        StmtKind::Other(K::Select) => Statement::Select(SelectStmt {
            query: Box::new(gen_query(schema, dialect, rng, 1)),
            variant: SelectVariant::Plain,
        }),
        StmtKind::Other(K::SelectV) => Statement::Select(SelectStmt {
            query: Box::new(gen_query(schema, dialect, rng, 0)),
            variant: SelectVariant::SelectV,
        }),
        StmtKind::Other(K::SelectInto) => Statement::Select(SelectStmt {
            query: Box::new(gen_query(schema, dialect, rng, 0)),
            variant: SelectVariant::Into(schema.fresh_table_name(rng)),
        }),
        StmtKind::Other(K::Insert) => Statement::Insert(gen_insert(schema, dialect, rng, false)),
        StmtKind::Other(K::Replace) => Statement::Insert(gen_insert(schema, dialect, rng, true)),
        StmtKind::Other(K::Update) => {
            let (table, cols) = match schema.random_table(rng) {
                Some(t) if !t.columns.is_empty() => (t.name.clone(), t.columns.clone()),
                _ => ("t1".into(), vec![ColumnModel::new("v1".into(), DataType::Int)]),
            };
            let target = &cols[rng.gen_range(0..cols.len())];
            Statement::Update(Update {
                table,
                assignments: vec![(target.name.clone(), gen_literal(target.ty, rng))],
                where_: if rng.gen_bool(0.7) { Some(gen_expr(&cols, rng, 1)) } else { None },
            })
        }
        StmtKind::Other(K::Delete) => {
            let (table, cols) = match schema.random_table(rng) {
                Some(t) => (t.name.clone(), t.columns.clone()),
                None => ("t1".into(), vec![ColumnModel::new("v1".into(), DataType::Int)]),
            };
            Statement::Delete(Delete {
                table,
                where_: if rng.gen_bool(0.7) { Some(gen_expr(&cols, rng, 1)) } else { None },
            })
        }
        StmtKind::Other(K::With) => {
            let cte_name = schema.fresh_table_name(rng);
            let body_dml = rng.gen_bool(0.5);
            let cte = Cte {
                name: cte_name,
                body: if rng.gen_bool(0.6) && dialect == Dialect::Postgres {
                    CteBody::Dml(Box::new(Statement::Insert(gen_insert(
                        schema, dialect, rng, false,
                    ))))
                } else {
                    CteBody::Query(Box::new(gen_query(schema, dialect, rng, 0)))
                },
            };
            let body: Statement = if body_dml {
                Statement::Delete(Delete {
                    table: table_name(rng),
                    where_: Some(gen_expr(&[], rng, 1)),
                })
            } else {
                Statement::Select(SelectStmt {
                    query: Box::new(gen_query(schema, dialect, rng, 0)),
                    variant: SelectVariant::Plain,
                })
            };
            Statement::With(WithStmt { ctes: vec![cte], body: Box::new(body) })
        }
        StmtKind::Other(K::Values) => Statement::Values(
            (0..rng.gen_range(1..3))
                .map(|_| {
                    (0..rng.gen_range(1..4)).map(|_| gen_literal(DataType::Int, rng)).collect()
                })
                .collect(),
        ),
        StmtKind::Other(K::Truncate) => Statement::Truncate { table: table_name(rng) },
        StmtKind::Other(K::Copy) => {
            if rng.gen_bool(0.5) {
                Statement::Copy(CopyStmt {
                    source: CopySource::Query(Box::new(gen_query(schema, dialect, rng, 0))),
                    direction: CopyDirection::To,
                    target: "STDOUT".into(),
                    options: if rng.gen_bool(0.5) {
                        vec!["CSV".into(), "HEADER".into()]
                    } else {
                        vec![]
                    },
                })
            } else {
                Statement::Copy(CopyStmt {
                    source: CopySource::Table { name: table_name(rng), columns: vec![] },
                    direction: if rng.gen_bool(0.5) {
                        CopyDirection::To
                    } else {
                        CopyDirection::From
                    },
                    target: if rng.gen_bool(0.5) { "STDOUT".into() } else { "STDIN".into() },
                    options: vec![],
                })
            }
        }
        StmtKind::Other(K::Grant) | StmtKind::Other(K::Revoke) => {
            const PRIVS: &[&str] = &["SELECT", "INSERT", "UPDATE", "DELETE", "ALL"];
            let g = GrantStmt {
                privilege: PRIVS[rng.gen_range(0..PRIVS.len())].into(),
                object: table_name(rng),
                grantee: if rng.gen_bool(0.7) { "alice".into() } else { "bob".into() },
            };
            if kind == StmtKind::Other(K::Grant) {
                Statement::Grant(g)
            } else {
                Statement::Revoke(g)
            }
        }
        StmtKind::Other(K::Begin) => Statement::Begin,
        StmtKind::Other(K::StartTransaction) => Statement::StartTransaction,
        StmtKind::Other(K::Commit) => Statement::Commit,
        StmtKind::Other(K::End) => Statement::End,
        StmtKind::Other(K::Rollback) => Statement::Rollback,
        StmtKind::Other(K::Abort) => Statement::Abort,
        StmtKind::Other(K::Savepoint) => Statement::Savepoint(format!("sp{}", rng.gen_range(0..3))),
        StmtKind::Other(K::ReleaseSavepoint) => {
            Statement::ReleaseSavepoint(format!("sp{}", rng.gen_range(0..3)))
        }
        StmtKind::Other(K::RollbackToSavepoint) => {
            Statement::RollbackToSavepoint(format!("sp{}", rng.gen_range(0..3)))
        }
        StmtKind::Other(K::Set) => {
            const VARS: &[(&str, &str)] = &[
                ("search_path", "public"),
                ("sql_mode", "strict"),
                ("work_mem", "64"),
                ("explicit_for_timestamp", "OFF"),
            ];
            let (name, value) = VARS[rng.gen_range(0..VARS.len())];
            Statement::Set(SetStmt {
                scope: if rng.gen_bool(0.2) { Some("@@SESSION.".into()) } else { None },
                name: name.into(),
                value: value.into(),
            })
        }
        StmtKind::Other(K::Reset) => Statement::Reset("search_path".into()),
        StmtKind::Other(K::Show) => {
            Statement::Show(if rng.gen_bool(0.5) { "server_version" } else { "search_path" }.into())
        }
        StmtKind::Other(K::Pragma) => Statement::Pragma {
            name: "foreign_keys".into(),
            value: Some(if rng.gen_bool(0.5) { "ON" } else { "OFF" }.into()),
        },
        StmtKind::Other(K::Analyze) => {
            Statement::Analyze(if rng.gen_bool(0.7) { Some(table_name(rng)) } else { None })
        }
        StmtKind::Other(K::Vacuum) => Statement::Vacuum {
            table: if rng.gen_bool(0.7) { Some(table_name(rng)) } else { None },
            full: rng.gen_bool(0.3),
        },
        StmtKind::Other(K::Explain) => {
            Statement::Explain(Box::new(Statement::Select(SelectStmt {
                query: Box::new(gen_query(schema, dialect, rng, 0)),
                variant: SelectVariant::Plain,
            })))
        }
        StmtKind::Other(K::Reindex) => Statement::Reindex(Some(table_name(rng))),
        StmtKind::Other(K::Checkpoint) => Statement::Checkpoint,
        StmtKind::Other(K::Cluster) => Statement::Cluster(Some(table_name(rng))),
        StmtKind::Other(K::Discard) => {
            Statement::Discard(if rng.gen_bool(0.5) { "ALL" } else { "TEMP" }.into())
        }
        StmtKind::Other(K::Listen) => Statement::Listen(format!("ch{}", rng.gen_range(0..4))),
        StmtKind::Other(K::Notify) => Statement::Notify {
            channel: format!("ch{}", rng.gen_range(0..4)),
            payload: if rng.gen_bool(0.3) { Some("hi".into()) } else { None },
        },
        StmtKind::Other(K::Unlisten) => Statement::Unlisten(format!("ch{}", rng.gen_range(0..4))),
        StmtKind::Other(K::LockTable) => Statement::LockTable {
            table: table_name(rng),
            mode: if rng.gen_bool(0.5) { Some("EXCLUSIVE".into()) } else { None },
        },
        StmtKind::Other(K::Comment) => Statement::Comment {
            object: ObjectKind::Table,
            name: table_name(rng),
            text: "generated".into(),
        },
        StmtKind::Other(K::Call) => Statement::Call {
            name: format!("p{}", rng.gen_range(0..3)),
            args: vec![gen_literal(DataType::Int, rng)],
        },
        StmtKind::Other(K::RefreshMaterializedView) => Statement::RefreshMatView(table_name(rng)),
        StmtKind::Other(K::CreateTableAs) => Statement::CreateTableAs {
            name: schema.fresh_table_name(rng),
            query: Box::new(gen_query(schema, dialect, rng, 0)),
        },
        StmtKind::Other(k) => Statement::Misc(MiscStmt { kind: k, arg: misc_arg(k, schema, rng) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn schema_with_table() -> SchemaModel {
        let mut m = SchemaModel::new();
        m.observe(&lego_sqlparser::parse_statement("CREATE TABLE t1 (v1 INT, v2 TEXT);").unwrap());
        m
    }

    #[test]
    fn generator_covers_every_kind_of_every_dialect() {
        let schema = schema_with_table();
        let mut rng = SmallRng::seed_from_u64(7);
        for d in Dialect::ALL {
            for kind in d.supported_kinds() {
                let stmt = gen_statement(kind, &schema, d, &mut rng);
                assert_eq!(stmt.kind(), kind, "generator produced wrong kind for {kind:?}");
            }
        }
    }

    #[test]
    fn generated_statements_render_and_reparse() {
        let schema = schema_with_table();
        let mut rng = SmallRng::seed_from_u64(11);
        for d in Dialect::ALL {
            for kind in d.supported_kinds() {
                for _ in 0..3 {
                    let stmt = gen_statement(kind, &schema, d, &mut rng);
                    let sql = format!("{stmt};");
                    let parsed = lego_sqlparser::parse_script(&sql)
                        .unwrap_or_else(|e| panic!("unparseable generated SQL {sql:?}: {e}"));
                    assert_eq!(parsed.statements[0].kind(), kind, "{sql}");
                }
            }
        }
    }

    #[test]
    fn schema_model_tracks_ddl() {
        let mut m = SchemaModel::new();
        let stmts = lego_sqlparser::parse_script(
            "CREATE TABLE a (x INT);\n\
             ALTER TABLE a ADD COLUMN y TEXT;\n\
             ALTER TABLE a RENAME TO b;\n\
             CREATE TABLE c (z INT);\n\
             DROP TABLE c;",
        )
        .unwrap();
        for s in &stmts.statements {
            m.observe(s);
        }
        assert!(m.has_table("b"));
        assert!(!m.has_table("a"));
        assert!(!m.has_table("c"));
        assert_eq!(m.table("b").unwrap().columns.len(), 2);
    }

    /// The table model as it was before the constraint flags moved onto
    /// the columns: the columns, plus three lists of constrained column
    /// names kept next to them.
    #[derive(Debug, Default)]
    struct ListSchema {
        tables: Vec<ListTable>,
    }

    #[derive(Debug)]
    struct ListTable {
        name: String,
        columns: Vec<(String, DataType)>,
        required: Vec<String>,
        not_null: Vec<String>,
        unique: Vec<String>,
    }

    impl ListSchema {
        fn table(&self, name: &str) -> Option<&ListTable> {
            self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name))
        }

        fn observe(&mut self, stmt: &Statement) {
            let unconstrained = |name: &String, columns| ListTable {
                name: name.clone(),
                columns,
                required: Vec::new(),
                not_null: Vec::new(),
                unique: Vec::new(),
            };
            match stmt {
                Statement::CreateTable(c) if self.table(&c.name).is_none() => {
                    use lego_sqlast::ast::ColumnConstraint as CC;
                    let mut t = unconstrained(&c.name, Vec::new());
                    for col in &c.columns {
                        t.columns.push((col.name.clone(), col.ty));
                        let nn = col
                            .constraints
                            .iter()
                            .any(|k| matches!(k, CC::NotNull | CC::PrimaryKey));
                        let has_default =
                            col.constraints.iter().any(|k| matches!(k, CC::Default(_)));
                        if nn {
                            t.not_null.push(col.name.clone());
                            if !has_default {
                                t.required.push(col.name.clone());
                            }
                        }
                        if col.constraints.iter().any(|k| matches!(k, CC::Unique | CC::PrimaryKey))
                        {
                            t.unique.push(col.name.clone());
                        }
                    }
                    self.tables.push(t);
                }
                Statement::CreateTableAs { name, .. } if self.table(name).is_none() => {
                    self.tables.push(unconstrained(name, vec![("column1".into(), DataType::Int)]));
                }
                Statement::CreateView(v) if self.table(&v.name).is_none() => {
                    let cols = lego_sqlast::visit::table_names(stmt)
                        .iter()
                        .skip(1)
                        .find_map(|t| self.table(t).map(|t| t.columns.clone()))
                        .unwrap_or_else(|| vec![("column1".into(), DataType::Int)]);
                    self.tables.push(unconstrained(&v.name, cols));
                }
                Statement::Drop(d) if matches!(d.object, ObjectKind::Table | ObjectKind::View) => {
                    self.tables.retain(|t| !t.name.eq_ignore_ascii_case(&d.name));
                }
                Statement::AlterTable(a) => {
                    let Some(t) =
                        self.tables.iter_mut().find(|t| t.name.eq_ignore_ascii_case(&a.name))
                    else {
                        return;
                    };
                    match &a.action {
                        AlterTableAction::AddColumn(c) => t.columns.push((c.name.clone(), c.ty)),
                        AlterTableAction::DropColumn(c) => {
                            t.columns.retain(|(n, _)| !n.eq_ignore_ascii_case(c));
                            t.required.retain(|n| !n.eq_ignore_ascii_case(c));
                            t.not_null.retain(|n| !n.eq_ignore_ascii_case(c));
                            t.unique.retain(|n| !n.eq_ignore_ascii_case(c));
                        }
                        AlterTableAction::RenameColumn { old, new } => {
                            if let Some(col) =
                                t.columns.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(old))
                            {
                                col.0 = new.clone();
                            }
                            for list in [&mut t.required, &mut t.not_null, &mut t.unique] {
                                if let Some(r) =
                                    list.iter_mut().find(|n| n.eq_ignore_ascii_case(old))
                                {
                                    *r = new.clone();
                                }
                            }
                        }
                        AlterTableAction::RenameTo(new) => t.name = new.clone(),
                        AlterTableAction::AlterColumnType { name, ty } => {
                            if let Some(col) =
                                t.columns.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(name))
                            {
                                col.1 = *ty;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The two models agree on everything the validator asks of them: the
    /// tables in order, their columns in order, and, for every column name
    /// in two letter cases, NOT NULL and UNIQUE. Required columns agree as a
    /// multiset; their order can differ (see `ColumnModel::required`).
    /// Returns whether some table had two columns of one name.
    fn assert_same_schema(new: &SchemaModel, old: &ListSchema, what: &str) -> bool {
        let names =
            |t: &TableModel| t.columns.iter().map(|c| (c.name.clone(), c.ty)).collect::<Vec<_>>();
        assert_eq!(
            new.tables.iter().map(|t| (t.name.clone(), names(t))).collect::<Vec<_>>(),
            old.tables.iter().map(|t| (t.name.clone(), t.columns.clone())).collect::<Vec<_>>(),
            "{what}"
        );
        let mut duplicates = false;
        for (t, o) in new.tables.iter().zip(&old.tables) {
            let listed = |list: &[String], c: &str| list.iter().any(|n| n.eq_ignore_ascii_case(c));
            for col in &t.columns {
                for c in [col.name.clone(), col.name.to_ascii_uppercase()] {
                    assert_eq!(
                        t.is_not_null(&c),
                        listed(&o.not_null, &c),
                        "{what}: {}.{c}",
                        t.name
                    );
                    assert_eq!(t.is_unique(&c), listed(&o.unique, &c), "{what}: {}.{c}", t.name);
                }
                duplicates |= t.columns.iter().filter(|d| d.is(&col.name)).count() > 1;
            }
            let mut required: Vec<&str> =
                t.columns.iter().filter(|c| c.required).map(|c| c.name.as_str()).collect();
            let mut listed_required: Vec<&str> = o.required.iter().map(String::as_str).collect();
            required.sort_unstable();
            listed_required.sort_unstable();
            assert_eq!(required, listed_required, "{what}: {}", t.name);
        }
        duplicates
    }

    #[test]
    fn schema_model_matches_the_three_list_reference() {
        use lego_sqlast::ast::AlterTableAction as A;
        // Hand-written: every ALTER TABLE column action, and renames that
        // give two columns one name and then rename one of them.
        let scripts = [
            "CREATE TABLE t (a INT PRIMARY KEY, b INT NOT NULL, c INT UNIQUE, d INT NOT NULL DEFAULT 1);\n\
             ALTER TABLE t ADD COLUMN e INT; ALTER TABLE t RENAME COLUMN b TO f;\n\
             ALTER TABLE t DROP COLUMN c; ALTER TABLE t ALTER COLUMN a TYPE TEXT;\n\
             ALTER TABLE t RENAME TO u; ALTER TABLE u RENAME COLUMN D TO g;",
            "CREATE TABLE t (a INT, b INT NOT NULL);\n\
             ALTER TABLE t RENAME COLUMN a TO b; ALTER TABLE t RENAME COLUMN b TO c;\n\
             ALTER TABLE t RENAME COLUMN B TO a; ALTER TABLE t DROP COLUMN c;",
            "CREATE TABLE t (a INT UNIQUE, b INT PRIMARY KEY, c INT);\n\
             ALTER TABLE t ADD COLUMN a INT; ALTER TABLE t RENAME COLUMN c TO a;\n\
             ALTER TABLE t RENAME COLUMN a TO z; ALTER TABLE t RENAME COLUMN a TO y;\n\
             ALTER TABLE t RENAME COLUMN b TO y; ALTER TABLE t RENAME COLUMN y TO x;",
            "CREATE TABLE t (a INT NOT NULL, a INT UNIQUE, A INT PRIMARY KEY);\n\
             CREATE VIEW w AS SELECT * FROM t; ALTER TABLE t RENAME COLUMN a TO b;\n\
             ALTER TABLE t RENAME COLUMN a TO c; ALTER TABLE t RENAME COLUMN a TO d;\n\
             DROP VIEW w; CREATE TABLE w AS SELECT 1; DROP TABLE t;",
        ];
        let mut duplicates = 0;
        for script in scripts {
            let case = lego_sqlparser::parse_script(script).unwrap();
            let (mut new, mut old) = (SchemaModel::new(), ListSchema::default());
            for (i, stmt) in case.statements.iter().enumerate() {
                new.observe(stmt);
                old.observe(stmt);
                duplicates +=
                    assert_same_schema(&new, &old, &format!("{script}, statement {i}")) as usize;
            }
        }
        assert!(duplicates >= 8, "{duplicates}");

        // Generated: every prefix of every generated case. The validator's
        // rebinding turns many an ADD COLUMN or RENAME COLUMN into one that
        // repeats a name, so the cases are full of duplicate columns.
        let (mut alters, mut duplicates) = ([0usize; 3], 0usize);
        for dialect in Dialect::ALL {
            for (n, case) in crate::testutil::generated_cases(dialect).iter().enumerate() {
                let (mut new, mut old) = (SchemaModel::new(), ListSchema::default());
                for (i, stmt) in case.statements.iter().enumerate() {
                    if let Statement::AlterTable(a) = &**stmt {
                        match a.action {
                            A::AddColumn(_) => alters[0] += 1,
                            A::DropColumn(_) => alters[1] += 1,
                            A::RenameColumn { .. } => alters[2] += 1,
                            _ => {}
                        }
                    }
                    new.observe(stmt);
                    old.observe(stmt);
                    let what = format!("{dialect:?} case {n} statement {i}: {stmt}");
                    duplicates += assert_same_schema(&new, &old, &what) as usize;
                }
            }
        }
        assert!(alters.iter().all(|&a| a >= 100), "ADD / DROP / RENAME COLUMN: {alters:?}");
        assert!(duplicates >= 100, "prefixes with duplicate columns: {duplicates}");
    }

    /// `visit::table_names` as it was: the mutable walk over a copy of the
    /// statement.
    fn table_names_by_clone(stmt: &Statement) -> Vec<String> {
        struct Collector(Vec<String>);
        impl lego_sqlast::visit::MutVisitor for Collector {
            fn table_name(&mut self, name: &mut String) {
                self.0.push(name.clone());
            }
        }
        let mut c = Collector(vec![]);
        lego_sqlast::visit::walk_statement_mut(&mut stmt.clone(), &mut c);
        c.0
    }

    #[test]
    fn table_names_match_the_clone_based_reference_on_generated_cases() {
        let mut names = 0;
        for dialect in Dialect::ALL {
            for (n, case) in crate::testutil::generated_cases(dialect).iter().enumerate() {
                for (i, stmt) in case.statements.iter().enumerate() {
                    let got = lego_sqlast::visit::table_names(stmt);
                    assert_eq!(
                        got,
                        table_names_by_clone(stmt),
                        "{dialect:?} case {n} statement {i}: {stmt}"
                    );
                    names += got.len();
                }
            }
        }
        assert!(names >= 10_000, "{names}");
    }

    #[test]
    fn required_columns_follow_table_order_after_a_rename_to_a_taken_name() {
        // `c` takes the name `a`, then the first `a` is renamed `z` and
        // takes `c`'s NOT NULL along. The three-list model kept `r, z`;
        // the flags list the required columns in table order.
        let mut m = SchemaModel::new();
        for s in lego_sqlparser::parse_script(
            "CREATE TABLE t (a INT, r INT NOT NULL, c INT NOT NULL);\n\
             ALTER TABLE t RENAME COLUMN c TO a; ALTER TABLE t RENAME COLUMN a TO z;",
        )
        .unwrap()
        .statements
        {
            m.observe(&s);
        }
        let t = m.table("t").unwrap();
        let required: Vec<&str> =
            t.columns.iter().filter(|c| c.required).map(|c| c.name.as_str()).collect();
        assert_eq!(required, ["z", "r"]);
        assert!(t.is_not_null("z") && t.is_not_null("r") && !t.is_not_null("a"));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let schema = schema_with_table();
        let kind = StmtKind::Other(StandaloneKind::Select);
        let a = gen_statement(kind, &schema, Dialect::Postgres, &mut SmallRng::seed_from_u64(3));
        let b = gen_statement(kind, &schema, Dialect::Postgres, &mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
