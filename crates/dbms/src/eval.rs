//! Row-level expression evaluation with SQL NULL semantics.

use crate::ctx::ExecCtx;
use crate::value::{Row, Value};
use lego_coverage::{cov, site_id};
use lego_sqlast::ast::Query;
use lego_sqlast::expr::*;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Column bindings available to an expression: `(table alias, column name)`,
/// both lowercase, positionally matching the row. Names that already are
/// lowercase are borrowed ([`Catalog::norm`](crate::catalog::Catalog)).
pub type Bindings<'a> = Vec<(Option<Cow<'a, str>>, Cow<'a, str>)>;

/// Callback that executes a correlated-free subquery and yields its rows.
pub type SubqueryExec<'a> = dyn FnMut(&Query, &mut ExecCtx) -> Result<Vec<Row>, String> + 'a;

/// Everything an expression needs at evaluation time.
pub struct EvalEnv<'a> {
    pub cols: &'a Bindings<'a>,
    pub row: &'a [Value],
    pub ctx: &'a mut ExecCtx,
    /// Executes correlated-free subqueries; `None` where subqueries are
    /// disallowed (e.g. CHECK constraints).
    pub subquery: Option<&'a mut SubqueryExec<'a>>,
}

impl<'a> EvalEnv<'a> {
    fn lookup(&self, table: &Option<String>, column: &str) -> Result<Value, String> {
        let mut found = None;
        for (i, (t, c)) in self.cols.iter().enumerate() {
            let table_ok = match (table, t) {
                (None, _) => true,
                (Some(want), Some(t)) => is_lowercase_of(t, want),
                (Some(_), None) => false,
            };
            if is_lowercase_of(c, column) && table_ok {
                if found.is_some() && table.is_none() {
                    return Err(format!("column reference \"{column}\" is ambiguous"));
                }
                found = Some(i);
                if table.is_some() {
                    break;
                }
            }
        }
        match found {
            Some(i) => Ok(self.row.get(i).cloned().unwrap_or(Value::Null)),
            None => Err(format!("column \"{column}\" does not exist")),
        }
    }
}

/// `bound == name.to_ascii_lowercase()`, without building the lowercase copy.
pub(crate) fn is_lowercase_of(bound: &str, name: &str) -> bool {
    bound.len() == name.len()
        && bound.bytes().zip(name.bytes()).all(|(b, n)| b == n.to_ascii_lowercase())
}

/// Coverage class of a runtime value (NULL / numeric / text / bool / blob) —
/// real engines take different code for each operand-type combination.
fn vclass(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Text(_) => 3,
        Value::Bool(_) => 4,
        Value::Blob(_) => 5,
    }
}

/// Evaluate an expression against one row.
///
/// Every recursive step re-enters through here, so the per-case
/// expression-depth budget ([`ExecCtx::enter_eval`]) sees the true
/// evaluation depth, including subqueries and nested function calls.
pub fn eval(expr: &Expr, env: &mut EvalEnv) -> Result<Value, String> {
    env.ctx.enter_eval()?;
    let r = eval_inner(expr, env);
    env.ctx.exit_eval();
    r
}

fn eval_inner(expr: &Expr, env: &mut EvalEnv) -> Result<Value, String> {
    match expr {
        Expr::Null => Ok(Value::Null),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Integer(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Float(*v)),
        Expr::Str(s) => Ok(Value::Text(s.clone())),
        Expr::Column(c) => env.lookup(&c.table, &c.column),
        Expr::Unary(op, e) => {
            let v = eval(e, env)?;
            env.ctx.hit_idx(site_id!(0x374966e2aa9bf3e3), (*op as u64) << 3 | vclass(&v));
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                    other => Ok(other.as_float().map(|f| Value::Float(-f)).unwrap_or(Value::Null)),
                },
                UnaryOp::Plus => Ok(v),
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    other => Ok(Value::Bool(!other.is_truthy())),
                },
            }
        }
        Expr::Binary(l, op, r) => eval_binary(l, *op, r, env),
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, env)?;
            let p = eval(pattern, env)?;
            cov!(env.ctx, 0x41e8a6e2ab2c5f7d);
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let text = match &v {
                Value::Text(s) => s.clone(),
                other => other.to_string(),
            };
            let pat = match &p {
                Value::Text(s) => s.clone(),
                other => other.to_string(),
            };
            // Pattern shape selects different matcher paths.
            let shape = (pat.contains('%') as u64) << 1 | pat.contains('_') as u64;
            env.ctx.hit_idx(site_id!(0x3e1566e2aaf85903), shape << 1 | m_negated_flag(*negated));
            let m = like_match(&text, &pat);
            Ok(Value::Bool(m != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, env)?;
            cov!(env.ctx, 0x3f5aa6e2ab0990c9);
            let mut saw_null = v.is_null();
            let mut found = false;
            for item in list {
                let iv = eval(item, env)?;
                match v.sql_eq(&iv) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if found {
                Ok(Value::Bool(!*negated))
            } else if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, env)?;
            let lo = eval(low, env)?;
            let hi = eval(high, env)?;
            cov!(env.ctx, 0x0e8066e2a87179f3);
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env)?;
            cov!(env.ctx, 0x1810a6e2a8f38d8a);
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case { operand, whens, else_ } => {
            cov!(env.ctx, 0x18e8a6e2a8fef166);
            let op_v = operand.as_ref().map(|o| eval(o, env)).transpose()?;
            for (w, t) in whens {
                let wv = eval(w, env)?;
                let hit = match &op_v {
                    Some(o) => o.sql_eq(&wv) == Some(true),
                    None => wv.is_truthy(),
                };
                if hit {
                    cov!(env.ctx, 0x1a64e6e2a9131d53);
                    return eval(t, env);
                }
            }
            match else_ {
                Some(e) => eval(e, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Func(call) => eval_scalar_func(call, env),
        Expr::Window { .. } => Err("window functions are not allowed here".into()),
        Expr::Cast { expr, ty } => {
            let v = eval(expr, env)?;
            // One conversion routine per (source class, target type).
            env.ctx.hit_idx(site_id!(0x1691a6e2a8df16d9), vclass(&v) << 8 | cast_ty_code(*ty));
            Ok(v.coerce_to(*ty))
        }
        Expr::Subquery(q) => {
            cov!(env.ctx, 0x176ca6e2a8eacc45);
            let rows = run_subquery(q, env)?;
            match rows.first() {
                Some(r) => Ok(r.first().cloned().unwrap_or(Value::Null)),
                None => Ok(Value::Null),
            }
        }
        Expr::Exists { query, negated } => {
            cov!(env.ctx, 0x1feca6e2a95e65dd);
            let rows = run_subquery(query, env)?;
            Ok(Value::Bool(rows.is_empty() == *negated))
        }
    }
}

fn m_negated_flag(n: bool) -> u64 {
    n as u64
}

fn cast_ty_code(ty: lego_sqlast::expr::DataType) -> u64 {
    use lego_sqlast::expr::DataType as D;
    match ty {
        D::Int => 0,
        D::BigInt => 1,
        D::SmallInt => 2,
        D::Float => 3,
        D::Double => 4,
        D::Decimal(..) => 5,
        D::Text => 6,
        D::VarChar(_) => 7,
        D::Char(_) => 8,
        D::Bool => 9,
        D::Blob => 10,
        D::Date => 11,
        D::Time => 12,
        D::Timestamp => 13,
        D::Year => 14,
    }
}

fn run_subquery(q: &Query, env: &mut EvalEnv) -> Result<Vec<Row>, String> {
    match env.subquery.as_mut() {
        Some(f) => f(q, &mut *env.ctx),
        None => Err("subqueries are not allowed in this context".into()),
    }
}

fn eval_binary(l: &Expr, op: BinOp, r: &Expr, env: &mut EvalEnv) -> Result<Value, String> {
    // AND/OR get SQL three-valued logic with short-circuiting.
    if matches!(op, BinOp::And | BinOp::Or) {
        let lv = eval(l, env)?;
        cov!(env.ctx, 0x22ae26e2a983c990);
        let short = match (op, &lv) {
            (BinOp::And, v) if !v.is_null() && !v.is_truthy() => Some(Value::Bool(false)),
            (BinOp::Or, v) if !v.is_null() && v.is_truthy() => Some(Value::Bool(true)),
            _ => None,
        };
        if let Some(v) = short {
            return Ok(v);
        }
        let rv = eval(r, env)?;
        let combine = |a: Option<bool>, b: Option<bool>| -> Option<bool> {
            match op {
                BinOp::And => match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                _ => match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            }
        };
        let tri = |v: &Value| if v.is_null() { None } else { Some(v.is_truthy()) };
        return Ok(match combine(tri(&lv), tri(&rv)) {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        });
    }

    let lv = eval(l, env)?;
    let rv = eval(r, env)?;
    // Each (operator, left class, right class) combination is its own
    // dispatch path, like an engine's per-type operator implementations.
    env.ctx
        .hit_idx(site_id!(0x6011e6e2acc6603b), (op as u64) << 6 | vclass(&lv) << 3 | vclass(&rv));
    if op.is_comparison() {
        return Ok(match (op, lv.sql_cmp(&rv), lv.sql_eq(&rv)) {
            (_, None, _) => Value::Null,
            (BinOp::Eq, _, Some(e)) => Value::Bool(e),
            (BinOp::Ne, _, Some(e)) => Value::Bool(!e),
            (BinOp::Lt, Some(c), _) => Value::Bool(c == Ordering::Less),
            (BinOp::Le, Some(c), _) => Value::Bool(c != Ordering::Greater),
            (BinOp::Gt, Some(c), _) => Value::Bool(c == Ordering::Greater),
            (BinOp::Ge, Some(c), _) => Value::Bool(c != Ordering::Less),
            _ => Value::Null,
        });
    }
    if lv.is_null() || rv.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Concat => {
            cov!(env.ctx, 0x6ab0a6e2ad56be3d);
            let mut s = match &lv {
                Value::Text(s) => s.clone(),
                other => other.to_string(),
            };
            match &rv {
                Value::Text(t) => s.push_str(t),
                other => s.push_str(&other.to_string()),
            }
            Ok(Value::Text(s))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            // Integer arithmetic when both sides are integral, else float.
            if let (Value::Int(a), Value::Int(b)) = (&lv, &rv) {
                cov!(env.ctx, 0x66de26e2ad22cc27);
                return Ok(match op {
                    BinOp::Add => Value::Int(a.wrapping_add(*b)),
                    BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
                    BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
                    BinOp::Div => {
                        if *b == 0 {
                            cov!(env.ctx, 0x68c5a6e2ad3c959e); // division-by-zero path
                            Value::Null
                        } else {
                            Value::Int(a.wrapping_div(*b))
                        }
                    }
                    BinOp::Mod => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a.wrapping_rem(*b))
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let (a, b) = match (lv.as_float(), rv.as_float()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Ok(Value::Null),
            };
            cov!(env.ctx, 0x6d06a6e2ad767d9a);
            Ok(match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a % b)
                    }
                }
                _ => unreachable!(),
            })
        }
        _ => unreachable!("comparison handled above"),
    }
}

/// `name` in uppercase; a name that already is (the generators' spelling)
/// is borrowed.
pub(crate) fn upper(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(name.to_ascii_uppercase())
    } else {
        Cow::Borrowed(name)
    }
}

fn eval_scalar_func(call: &FuncCall, env: &mut EvalEnv) -> Result<Value, String> {
    let name = upper(&call.name);
    let mut args = Vec::with_capacity(call.args.len());
    for a in &call.args {
        args.push(eval(a, env)?);
    }
    let mut name_code: u64 = 0;
    for b in name.bytes() {
        name_code = name_code.wrapping_mul(31).wrapping_add(b as u64);
    }
    let c0 = args.first().map(vclass).unwrap_or(0);
    env.ctx.hit_idx(site_id!(0x7475e6e2addb8f9b), (name_code % 64) << 3 | c0);
    let arg0 = || args.first().cloned().unwrap_or(Value::Null);
    match &*name {
        "ABS" => Ok(match arg0() {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(v.wrapping_abs()),
            other => other.as_float().map(|f| Value::Float(f.abs())).unwrap_or(Value::Null),
        }),
        "LENGTH" | "CHAR_LENGTH" => Ok(match arg0() {
            Value::Null => Value::Null,
            Value::Text(s) => Value::Int(s.len() as i64),
            other => Value::Int(other.to_string().len() as i64),
        }),
        "UPPER" => Ok(match arg0() {
            Value::Null => Value::Null,
            Value::Text(s) => Value::Text(s.to_ascii_uppercase()),
            other => Value::Text(other.to_string().to_ascii_uppercase()),
        }),
        "LOWER" => Ok(match arg0() {
            Value::Null => Value::Null,
            Value::Text(s) => Value::Text(s.to_ascii_lowercase()),
            other => Value::Text(other.to_string().to_ascii_lowercase()),
        }),
        "COALESCE" => Ok(args.into_iter().find(|v| !v.is_null()).unwrap_or(Value::Null)),
        "NULLIF" => {
            if args.len() != 2 {
                return Err("NULLIF takes two arguments".into());
            }
            if args[0].sql_eq(&args[1]) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(args.into_iter().next().unwrap())
            }
        }
        "ROUND" => Ok(match arg0().as_float() {
            Some(f) => Value::Float(f.round()),
            None => Value::Null,
        }),
        "SUBSTR" | "SUBSTRING" => {
            let text = match arg0() {
                Value::Null => return Ok(Value::Null),
                Value::Text(s) => s,
                other => other.to_string(),
            };
            let start = args.get(1).and_then(|v| v.as_int()).unwrap_or(1).max(1) as usize;
            let len = args.get(2).and_then(|v| v.as_int()).map(|v| v.max(0) as usize);
            let chars: Vec<char> = text.chars().collect();
            let from = (start - 1).min(chars.len());
            let to = match len {
                Some(l) => (from + l).min(chars.len()),
                None => chars.len(),
            };
            Ok(Value::Text(chars[from..to].iter().collect()))
        }
        "REPLACE" => {
            let (s0, s1, s2) = (
                args.first().cloned().unwrap_or(Value::Null),
                args.get(1).cloned().unwrap_or(Value::Null),
                args.get(2).cloned().unwrap_or(Value::Null),
            );
            if s0.is_null() || s1.is_null() || s2.is_null() {
                return Ok(Value::Null);
            }
            let text = match s0 {
                Value::Text(t) => t,
                other => other.to_string(),
            };
            let from = match s1 {
                Value::Text(t) => t,
                other => other.to_string(),
            };
            let to = match s2 {
                Value::Text(t) => t,
                other => other.to_string(),
            };
            if from.is_empty() {
                return Ok(Value::Text(text));
            }
            Ok(Value::Text(text.replace(&from, &to)))
        }
        "TRIM" => Ok(match arg0() {
            Value::Null => Value::Null,
            Value::Text(s) => Value::Text(s.trim().to_string()),
            other => Value::Text(other.to_string().trim().to_string()),
        }),
        "HEX" => Ok(match arg0() {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Text(format!("{v:X}")),
            Value::Text(s) => {
                Value::Text(s.bytes().map(|b| format!("{b:02X}")).collect::<String>())
            }
            other => Value::Text(other.to_string()),
        }),
        "INSTR" => {
            let hay = arg0();
            let needle = args.get(1).cloned().unwrap_or(Value::Null);
            if hay.is_null() || needle.is_null() {
                return Ok(Value::Null);
            }
            let h = match hay {
                Value::Text(s) => s,
                other => other.to_string(),
            };
            let n = match needle {
                Value::Text(s) => s,
                other => other.to_string(),
            };
            Ok(Value::Int(h.find(&n).map(|p| p as i64 + 1).unwrap_or(0)))
        }
        "GREATEST" | "LEAST" => {
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let picked = if name == "GREATEST" {
                args.iter().max_by(|a, b| a.sort_cmp(b))
            } else {
                args.iter().min_by(|a, b| a.sort_cmp(b))
            };
            Ok(picked.cloned().unwrap_or(Value::Null))
        }
        "CONCAT" => {
            let mut out = String::new();
            for a in &args {
                if a.is_null() {
                    return Ok(Value::Null);
                }
                match a {
                    Value::Text(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::Text(out))
        }
        "SIGN" => Ok(match arg0().as_float() {
            Some(f) => Value::Int(if f > 0.0 {
                1
            } else if f < 0.0 {
                -1
            } else {
                0
            }),
            None => Value::Null,
        }),
        "MOD" => {
            let (a, b) = (arg0().as_int(), args.get(1).and_then(|v| v.as_int()));
            Ok(match (a, b) {
                (Some(_), Some(0)) => Value::Null,
                (Some(a), Some(b)) => Value::Int(a.wrapping_rem(b)),
                _ => Value::Null,
            })
        }
        "TYPEOF" => Ok(Value::Text(
            match arg0() {
                Value::Null => "null",
                Value::Int(_) => "integer",
                Value::Float(_) => "real",
                Value::Text(_) => "text",
                Value::Bool(_) => "boolean",
                Value::Blob(_) => "blob",
            }
            .into(),
        )),
        // Aggregates appearing in a scalar context without GROUP BY are
        // resolved by the executor before row-level evaluation, so reaching
        // here is a semantic error.
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => {
            Err(format!("aggregate function {name} is not allowed here"))
        }
        other => Err(format!("unknown function {other}")),
    }
}

/// Case-insensitive SQL LIKE with `%` and `_`.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn inner(t: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => (0..=t.len()).any(|i| inner(&t[i..], &p[1..])),
            Some(b'_') => !t.is_empty() && inner(&t[1..], &p[1..]),
            Some(&c) => !t.is_empty() && t[0].eq_ignore_ascii_case(&c) && inner(&t[1..], &p[1..]),
        }
    }
    inner(text.as_bytes(), pattern.as_bytes())
}

/// Is the call an aggregate function?
pub fn is_aggregate(call: &FuncCall) -> bool {
    ["COUNT", "SUM", "AVG", "MIN", "MAX"].iter().any(|a| call.name.eq_ignore_ascii_case(a))
}

/// Does the expression contain an aggregate call (outside subqueries)?
pub fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Func(c) => is_aggregate(c) || c.args.iter().any(contains_aggregate),
        Expr::Unary(_, x) | Expr::IsNull { expr: x, .. } | Expr::Cast { expr: x, .. } => {
            contains_aggregate(x)
        }
        Expr::Binary(l, _, r) => contains_aggregate(l) || contains_aggregate(r),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::Case { operand, whens, else_ } => {
            operand.as_deref().map(contains_aggregate).unwrap_or(false)
                || whens.iter().any(|(w, t)| contains_aggregate(w) || contains_aggregate(t))
                || else_.as_deref().map(contains_aggregate).unwrap_or(false)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ExecCtx;
    use lego_sqlast::expr::Expr;

    fn eval_const(e: &Expr) -> Value {
        let mut ctx = ExecCtx::new_detached();
        let cols: Bindings = vec![];
        let row: Vec<Value> = vec![];
        let mut env = EvalEnv { cols: &cols, row: &row, ctx: &mut ctx, subquery: None };
        eval(e, &mut env).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            eval_const(&Expr::binary(Expr::int(2), BinOp::Add, Expr::int(3))),
            Value::Int(5)
        );
        assert_eq!(
            eval_const(&Expr::binary(Expr::int(7), BinOp::Div, Expr::int(2))),
            Value::Int(3)
        );
        assert_eq!(
            eval_const(&Expr::binary(Expr::Float(7.0), BinOp::Div, Expr::int(2))),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(eval_const(&Expr::binary(Expr::int(1), BinOp::Div, Expr::int(0))), Value::Null);
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(eval_const(&Expr::binary(Expr::Null, BinOp::Add, Expr::int(1))), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        assert_eq!(
            eval_const(&Expr::binary(Expr::Null, BinOp::And, Expr::Bool(false))),
            Value::Bool(false)
        );
        assert_eq!(
            eval_const(&Expr::binary(Expr::Null, BinOp::Or, Expr::Bool(true))),
            Value::Bool(true)
        );
        assert_eq!(
            eval_const(&Expr::binary(Expr::Bool(true), BinOp::And, Expr::Null)),
            Value::Null
        );
    }

    #[test]
    fn like_matching() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("HELLO", "hello"));
        assert!(like_match("", "%"));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = Expr::InList {
            expr: Box::new(Expr::int(3)),
            list: vec![Expr::int(1), Expr::Null],
            negated: false,
        };
        assert_eq!(eval_const(&e), Value::Null);
        let e2 = Expr::InList {
            expr: Box::new(Expr::int(1)),
            list: vec![Expr::int(1), Expr::Null],
            negated: false,
        };
        assert_eq!(eval_const(&e2), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("ABS", vec![Expr::int(-5)]))),
            Value::Int(5)
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("UPPER", vec![Expr::str("ab")]))),
            Value::Text("AB".into())
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "COALESCE",
                vec![Expr::Null, Expr::int(2), Expr::int(3)]
            ))),
            Value::Int(2)
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "SUBSTR",
                vec![Expr::str("hello"), Expr::int(2), Expr::int(3)]
            ))),
            Value::Text("ell".into())
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "REPLACE",
                vec![Expr::str("aXbX"), Expr::str("X"), Expr::str("-")]
            ))),
            Value::Text("a-b-".into())
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("TRIM", vec![Expr::str("  hi ")]))),
            Value::Text("hi".into())
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "INSTR",
                vec![Expr::str("water"), Expr::str("ter")]
            ))),
            Value::Int(3)
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("HEX", vec![Expr::int(255)]))),
            Value::Text("FF".into())
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "CONCAT",
                vec![Expr::str("a"), Expr::int(1), Expr::str("b")]
            ))),
            Value::Text("a1b".into())
        );
    }

    #[test]
    fn math_functions() {
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "GREATEST",
                vec![Expr::int(3), Expr::int(9), Expr::int(5)]
            ))),
            Value::Int(9)
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new(
                "LEAST",
                vec![Expr::int(3), Expr::Null, Expr::int(5)]
            ))),
            Value::Null
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("SIGN", vec![Expr::int(-5)]))),
            Value::Int(-1)
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("MOD", vec![Expr::int(7), Expr::int(3)]))),
            Value::Int(1)
        );
        assert_eq!(
            eval_const(&Expr::Func(FuncCall::new("MOD", vec![Expr::int(7), Expr::int(0)]))),
            Value::Null
        );
    }

    #[test]
    fn concat() {
        assert_eq!(
            eval_const(&Expr::binary(Expr::str("a"), BinOp::Concat, Expr::str("b"))),
            Value::Text("ab".into())
        );
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            operand: Some(Box::new(Expr::int(2))),
            whens: vec![(Expr::int(1), Expr::str("one")), (Expr::int(2), Expr::str("two"))],
            else_: None,
        };
        assert_eq!(eval_const(&e), Value::Text("two".into()));
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Func(FuncCall::star("COUNT"));
        assert!(contains_aggregate(&agg));
        assert!(!contains_aggregate(&Expr::int(1)));
        let nested = Expr::binary(
            Expr::Func(FuncCall::new("SUM", vec![Expr::col("a")])),
            BinOp::Gt,
            Expr::int(1),
        );
        assert!(contains_aggregate(&nested));
    }
}
