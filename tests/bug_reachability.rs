//! Reachability proof for the planted bug inventory: for every Table I bug
//! we craft a script realizing its pattern + predicates and check that the
//! engine crashes — i.e. all 102 bugs are actually discoverable, none is a
//! dead entry.

use lego_fuzz::dbms::bugs::{self, BugSpec, StateReq, Structural};
use lego_fuzz::fuzzer::gen::{gen_statement, SchemaModel};
use lego_fuzz::prelude::*;
use lego_fuzz::sqlast::ast::*;
use lego_fuzz::sqlast::expr::*;
use lego_fuzz::sqlast::kind::StandaloneKind;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Build a statement of `kind` whose structure satisfies `structural`.
fn stmt_for(
    kind: StmtKind,
    structural: Structural,
    schema: &SchemaModel,
    dialect: Dialect,
    rng: &mut SmallRng,
) -> Statement {
    let table = schema.tables.first().map(|t| t.name.clone()).unwrap_or_else(|| "t0".into());
    let col = "a".to_string();
    let simple_select = |proj: Vec<SelectItem>,
                         where_: Option<Expr>,
                         group_by: Vec<Expr>,
                         order: Vec<OrderItem>,
                         distinct: bool,
                         from: Vec<TableRef>| {
        Statement::Select(SelectStmt {
            query: Box::new(Query {
                body: SetExpr::Select(Box::new(Select {
                    distinct,
                    projection: proj,
                    from,
                    where_,
                    group_by,
                    having: None,
                })),
                order_by: order,
                limit: None,
                offset: None,
            }),
            variant: if kind == StmtKind::Other(StandaloneKind::SelectV) {
                SelectVariant::SelectV
            } else {
                SelectVariant::Plain
            },
        })
    };
    match (kind, structural) {
        (StmtKind::Other(StandaloneKind::Select | StandaloneKind::SelectV), s) => {
            let from = vec![TableRef::named(table.clone())];
            match s {
                Structural::WindowFunction => simple_select(
                    vec![SelectItem::Expr {
                        expr: Expr::Window {
                            func: Box::new(FuncCall::new("LEAD", vec![Expr::col(col.clone())])),
                            spec: Box::new(WindowSpec {
                                partition_by: vec![],
                                order_by: vec![OrderItem { expr: Expr::col(col), desc: false }],
                                frame: None,
                            }),
                        },
                        alias: None,
                    }],
                    None,
                    vec![],
                    vec![],
                    false,
                    from,
                ),
                Structural::GroupBy => simple_select(
                    vec![
                        SelectItem::Expr { expr: Expr::col(col.clone()), alias: None },
                        SelectItem::Expr { expr: Expr::Func(FuncCall::star("COUNT")), alias: None },
                    ],
                    None,
                    vec![Expr::col(col)],
                    vec![],
                    false,
                    from,
                ),
                Structural::OrderBy => simple_select(
                    vec![SelectItem::Star],
                    None,
                    vec![],
                    vec![OrderItem { expr: Expr::col(col), desc: false }],
                    false,
                    from,
                ),
                Structural::WhereClause => simple_select(
                    vec![SelectItem::Star],
                    Some(Expr::binary(Expr::col(col), BinOp::Gt, Expr::int(0))),
                    vec![],
                    vec![],
                    false,
                    from,
                ),
                Structural::Distinct => {
                    simple_select(vec![SelectItem::Star], None, vec![], vec![], true, from)
                }
                Structural::Join => simple_select(
                    vec![SelectItem::Star],
                    None,
                    vec![],
                    vec![],
                    false,
                    vec![TableRef::Join {
                        left: Box::new(TableRef::Named {
                            name: table.clone(),
                            alias: Some("j1".into()),
                        }),
                        right: Box::new(TableRef::Named { name: table, alias: Some("j2".into()) }),
                        kind: JoinKind::Cross,
                        on: None,
                    }],
                ),
                Structural::SetOperation => Statement::Select(SelectStmt {
                    query: Box::new(Query {
                        body: SetExpr::SetOp {
                            op: SetOp::Union,
                            all: true,
                            left: Box::new(SetExpr::Select(Box::new(Select {
                                distinct: false,
                                projection: vec![SelectItem::Star],
                                from: vec![TableRef::named(table)],
                                where_: None,
                                group_by: vec![],
                                having: None,
                            }))),
                            right: Box::new(SetExpr::Values(vec![vec![
                                Expr::int(1),
                                Expr::int(1),
                            ]])),
                        },
                        order_by: vec![],
                        limit: None,
                        offset: None,
                    }),
                    variant: SelectVariant::Plain,
                }),
                _ => simple_select(vec![SelectItem::Star], None, vec![], vec![], false, from),
            }
        }
        (StmtKind::Other(StandaloneKind::Insert), s) => Statement::Insert(Insert {
            table,
            columns: vec![],
            source: InsertSource::Values(vec![vec![Expr::int(5), Expr::int(6)]]),
            ignore: s == Structural::InsertIgnore,
            replace: false,
            low_priority: false,
        }),
        (StmtKind::Other(StandaloneKind::Update), s) => Statement::Update(Update {
            table,
            assignments: vec![(col.clone(), Expr::int(9))],
            where_: if s == Structural::WhereClause {
                Some(Expr::binary(Expr::col(col), BinOp::Ge, Expr::int(0)))
            } else {
                None
            },
        }),
        (StmtKind::Other(StandaloneKind::Delete), s) => Statement::Delete(Delete {
            table,
            where_: if s == Structural::WhereClause {
                Some(Expr::binary(Expr::col(col), BinOp::Lt, Expr::int(0)))
            } else {
                None
            },
        }),
        (other, _) => gen_statement(other, schema, dialect, rng),
    }
}

/// Craft a script that should trigger `bug`, then execute it.
fn craft_and_run(bug: &BugSpec) -> Option<lego_fuzz::dbms::CrashReport> {
    let mut rng = SmallRng::seed_from_u64(500 + bug.id as u64);
    let mut statements = Vec::new();
    let mut schema = SchemaModel::new();

    // Prologue: a populated table.
    let ct = lego_fuzz::sqlparser::parse_statement("CREATE TABLE t0 (a INT, b INT);").unwrap();
    schema.observe(&ct);
    statements.push(ct);
    statements.push(
        lego_fuzz::sqlparser::parse_statement("INSERT INTO t0 VALUES (1, 1), (2, 2);").unwrap(),
    );

    // State setup.
    match bug.state {
        StateReq::TriggerExists => statements.push(
            lego_fuzz::sqlparser::parse_statement(
                "CREATE TRIGGER tr0 AFTER DELETE ON t0 FOR EACH ROW DELETE FROM t0;",
            )
            .unwrap(),
        ),
        StateReq::RuleExists => statements.push(
            lego_fuzz::sqlparser::parse_statement("CREATE RULE r0 AS ON DELETE TO t0 DO NOTHING;")
                .unwrap(),
        ),
        StateReq::InTransaction => statements.push(Statement::Begin),
        StateReq::IndexExists => statements
            .push(lego_fuzz::sqlparser::parse_statement("CREATE INDEX ix0 ON t0 (a);").unwrap()),
        StateReq::ViewExists => statements.push(
            lego_fuzz::sqlparser::parse_statement("CREATE VIEW vw0 AS SELECT a FROM t0;").unwrap(),
        ),
        StateReq::TableNonEmpty | StateReq::Any => {}
    }

    // The pattern itself; the final statement carries the structural feature.
    for (i, &kind) in bug.pattern.iter().enumerate() {
        let structural = if i + 1 == bug.pattern.len() { bug.structural } else { Structural::Any };
        let stmt = stmt_for(kind, structural, &schema, bug.dialect, &mut rng);
        schema.observe(&stmt);
        statements.push(stmt);
    }

    let case = TestCase::new(statements);
    let mut db = Dbms::new(bug.dialect);
    let report = db.execute_case(&case);
    report.crash().cloned()
}

#[test]
fn every_planted_bug_is_reachable() {
    let mut exact = 0usize;
    let mut crashed = 0usize;
    let mut misses: Vec<&str> = Vec::new();
    let mut specials = 0usize;
    for bug in bugs::manifest() {
        if bug.special.is_some() {
            // The PG case study has its own end-to-end test.
            specials += 1;
            continue;
        }
        match craft_and_run(bug) {
            Some(crash) => {
                crashed += 1;
                if crash.bug_id == bug.id {
                    exact += 1;
                }
            }
            None => misses.push(&bug.identifier),
        }
    }
    let total = bugs::manifest().len() - specials;
    assert!(
        misses.is_empty(),
        "crafted scripts failed to crash for {} bugs: {:?}",
        misses.len(),
        misses
    );
    // A handful may be shadowed by an overlapping bug with higher precedence;
    // the vast majority must fire exactly.
    assert!(
        exact * 10 >= total * 9,
        "only {exact}/{total} bugs fired exactly (crashed: {crashed})"
    );
}

#[test]
fn the_special_case_study_bug_is_reachable() {
    let r = Dbms::new(Dialect::Postgres).execute_script(
        "CREATE TABLE t0 (a INT);\n\
         CREATE RULE r0 AS ON INSERT TO t0 DO INSTEAD NOTIFY ch;\n\
         WITH w AS (INSERT INTO t0 VALUES (1)) SELECT 1;",
    );
    assert_eq!(r.crash().map(|c| c.identifier.as_str()), Some("BUG #17097"));
}
