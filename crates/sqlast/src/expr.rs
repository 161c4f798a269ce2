//! Scalar expressions, data types, and their SQL rendering.

use std::fmt;

/// SQL data types supported by the simulated engines.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    Int,
    BigInt,
    SmallInt,
    Float,
    Double,
    Decimal(u8, u8),
    Text,
    VarChar(u32),
    Char(u32),
    Bool,
    Blob,
    Date,
    Time,
    Timestamp,
    Year,
}

impl DataType {
    /// A small pool used by generators/mutators.
    pub const COMMON: &'static [DataType] = &[
        DataType::Int,
        DataType::BigInt,
        DataType::Float,
        DataType::Text,
        DataType::VarChar(100),
        DataType::Bool,
        DataType::Blob,
        DataType::Timestamp,
        DataType::Year,
        DataType::Decimal(10, 2),
    ];

    /// Is this a numeric type (for coercion logic)?
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Int
                | DataType::BigInt
                | DataType::SmallInt
                | DataType::Float
                | DataType::Double
                | DataType::Decimal(..)
                | DataType::Year
        )
    }

    pub fn is_textual(self) -> bool {
        matches!(self, DataType::Text | DataType::VarChar(_) | DataType::Char(_))
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => f.write_str("INT"),
            DataType::BigInt => f.write_str("BIGINT"),
            DataType::SmallInt => f.write_str("SMALLINT"),
            DataType::Float => f.write_str("FLOAT"),
            DataType::Double => f.write_str("DOUBLE"),
            DataType::Decimal(p, s) => write!(f, "DECIMAL({}, {})", p, s),
            DataType::Text => f.write_str("TEXT"),
            DataType::VarChar(n) => write!(f, "VARCHAR({})", n),
            DataType::Char(n) => write!(f, "CHAR({})", n),
            DataType::Bool => f.write_str("BOOLEAN"),
            DataType::Blob => f.write_str("BLOB"),
            DataType::Date => f.write_str("DATE"),
            DataType::Time => f.write_str("TIME"),
            DataType::Timestamp => f.write_str("TIMESTAMP"),
            DataType::Year => f.write_str("YEAR"),
        }
    }
}

/// A (possibly qualified) column reference.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn bare(column: impl Into<String>) -> Self {
        Self { table: None, column: column.into() }
    }

    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self { table: Some(table.into()), column: column.into() }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(t) = &self.table {
            write!(f, "{}.{}", t, self.column)
        } else {
            f.write_str(&self.column)
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    Neg,
    Not,
    Plus,
}

impl UnaryOp {
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "NOT ",
            UnaryOp::Plus => "+",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

impl BinOp {
    pub const ALL: &'static [BinOp] = &[
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::Concat,
    ];

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        }
    }

    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

/// A plain or aggregate function call.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncCall {
    pub name: String,
    pub args: Vec<Expr>,
    pub distinct: bool,
    /// `COUNT(*)`-style star argument.
    pub star: bool,
}

impl FuncCall {
    pub fn new(name: impl Into<String>, args: Vec<Expr>) -> Self {
        Self { name: name.into(), args, distinct: false, star: false }
    }

    pub fn star(name: impl Into<String>) -> Self {
        Self { name: name.into(), args: vec![], distinct: false, star: true }
    }
}

impl fmt::Display for FuncCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        if self.star {
            f.write_str("*")?;
        } else {
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", a)?;
            }
        }
        f.write_str(")")
    }
}

/// `ORDER BY` item.
#[derive(Clone, PartialEq, Debug)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.desc {
            f.write_str(" DESC")?;
        }
        Ok(())
    }
}

/// Window frame units.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameUnit {
    Rows,
    Range,
}

#[derive(Clone, PartialEq, Debug)]
pub enum FrameBound {
    UnboundedPreceding,
    Preceding(Box<Expr>),
    CurrentRow,
    Following(Box<Expr>),
    UnboundedFollowing,
}

impl fmt::Display for FrameBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameBound::UnboundedPreceding => f.write_str("UNBOUNDED PRECEDING"),
            FrameBound::Preceding(e) => write!(f, "{} PRECEDING", e),
            FrameBound::CurrentRow => f.write_str("CURRENT ROW"),
            FrameBound::Following(e) => write!(f, "{} FOLLOWING", e),
            FrameBound::UnboundedFollowing => f.write_str("UNBOUNDED FOLLOWING"),
        }
    }
}

#[derive(Clone, PartialEq, Debug)]
pub struct FrameClause {
    pub unit: FrameUnit,
    pub start: FrameBound,
    pub end: Option<FrameBound>,
}

impl fmt::Display for FrameClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = match self.unit {
            FrameUnit::Rows => "ROWS",
            FrameUnit::Range => "RANGE",
        };
        match &self.end {
            Some(end) => write!(f, "{} BETWEEN {} AND {}", unit, self.start, end),
            None => write!(f, "{} {}", unit, self.start),
        }
    }
}

/// `OVER (...)` specification.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WindowSpec {
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
    pub frame: Option<FrameClause>,
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        let mut need_space = false;
        if !self.partition_by.is_empty() {
            f.write_str("PARTITION BY ")?;
            for (i, e) in self.partition_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", e)?;
            }
            need_space = true;
        }
        if !self.order_by.is_empty() {
            if need_space {
                f.write_str(" ")?;
            }
            f.write_str("ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", o)?;
            }
            need_space = true;
        }
        if let Some(fr) = &self.frame {
            if need_space {
                f.write_str(" ")?;
            }
            write!(f, "{}", fr)?;
        }
        f.write_str(")")
    }
}

/// A scalar expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    Null,
    Bool(bool),
    Integer(i64),
    Float(f64),
    Str(String),
    Column(ColumnRef),
    Unary(UnaryOp, Box<Expr>),
    Binary(Box<Expr>, BinOp, Box<Expr>),
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool },
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    IsNull { expr: Box<Expr>, negated: bool },
    Case { operand: Option<Box<Expr>>, whens: Vec<(Expr, Expr)>, else_: Option<Box<Expr>> },
    Func(FuncCall),
    Window { func: Box<FuncCall>, spec: Box<WindowSpec> },
    Cast { expr: Box<Expr>, ty: DataType },
    Subquery(Box<crate::ast::Query>),
    Exists { query: Box<crate::ast::Query>, negated: bool },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    pub fn int(v: i64) -> Expr {
        Expr::Integer(v)
    }

    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Str(v.into())
    }

    pub fn binary(l: Expr, op: BinOp, r: Expr) -> Expr {
        Expr::Binary(Box::new(l), op, Box::new(r))
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinOp::Eq, r)
    }

    pub fn is_literal(&self) -> bool {
        matches!(
            self,
            Expr::Null | Expr::Bool(_) | Expr::Integer(_) | Expr::Float(_) | Expr::Str(_)
        )
    }
}

fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Null => f.write_str("NULL"),
            Expr::Bool(true) => f.write_str("TRUE"),
            Expr::Bool(false) => f.write_str("FALSE"),
            Expr::Integer(v) => write!(f, "{}", v),
            Expr::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{}", v)
                }
            }
            Expr::Str(s) => write!(f, "'{}'", sql_escape(s)),
            Expr::Column(c) => write!(f, "{}", c),
            Expr::Unary(op, e) => write!(f, "{}({})", op.symbol(), e),
            Expr::Binary(l, op, r) => write!(f, "({} {} {})", l, op.symbol(), r),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({} {}LIKE {})", expr, if *negated { "NOT " } else { "" }, pattern)
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "({} {}IN (", expr, if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", e)?;
                }
                f.write_str("))")
            }
            Expr::Between { expr, low, high, negated } => {
                write!(
                    f,
                    "({} {}BETWEEN {} AND {})",
                    expr,
                    if *negated { "NOT " } else { "" },
                    low,
                    high
                )
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({} IS {}NULL)", expr, if *negated { "NOT " } else { "" })
            }
            Expr::Case { operand, whens, else_ } => {
                f.write_str("CASE")?;
                if let Some(op) = operand {
                    write!(f, " {}", op)?;
                }
                for (w, t) in whens {
                    write!(f, " WHEN {} THEN {}", w, t)?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {}", e)?;
                }
                f.write_str(" END")
            }
            Expr::Func(c) => write!(f, "{}", c),
            Expr::Window { func, spec } => write!(f, "{} OVER {}", func, spec),
            Expr::Cast { expr, ty } => write!(f, "CAST({} AS {})", expr, ty),
            Expr::Subquery(q) => write!(f, "({})", q),
            Expr::Exists { query, negated } => {
                write!(f, "({}EXISTS ({}))", if *negated { "NOT " } else { "" }, query)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_rendering() {
        assert_eq!(Expr::int(7).to_string(), "7");
        assert_eq!(Expr::str("a'b").to_string(), "'a''b'");
        assert_eq!(Expr::Null.to_string(), "NULL");
        assert_eq!(Expr::Bool(true).to_string(), "TRUE");
        assert_eq!(Expr::Float(1.0).to_string(), "1.0");
        assert_eq!(Expr::Float(1.5).to_string(), "1.5");
    }

    #[test]
    fn binary_and_comparison() {
        let e = Expr::binary(Expr::col("v1"), BinOp::Add, Expr::int(1));
        assert_eq!(e.to_string(), "(v1 + 1)");
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn window_rendering() {
        let w = Expr::Window {
            func: Box::new(FuncCall::new("LEAD", vec![Expr::Bool(true)])),
            spec: Box::new(WindowSpec {
                partition_by: vec![],
                order_by: vec![OrderItem { expr: Expr::col("v1"), desc: false }],
                frame: Some(FrameClause {
                    unit: FrameUnit::Range,
                    start: FrameBound::Preceding(Box::new(Expr::int(1))),
                    end: Some(FrameBound::Following(Box::new(Expr::int(16)))),
                }),
            }),
        };
        assert_eq!(
            w.to_string(),
            "LEAD(TRUE) OVER (ORDER BY v1 RANGE BETWEEN 1 PRECEDING AND 16 FOLLOWING)"
        );
    }

    #[test]
    fn window_debug_text_is_pinned() {
        // Campaign fingerprints and structure keys print `Debug`; boxing the
        // window call and spec must not change the text.
        let w = Expr::Window {
            func: Box::new(FuncCall::star("RANK")),
            spec: Box::new(WindowSpec {
                partition_by: vec![Expr::col("v0")],
                order_by: vec![OrderItem { expr: Expr::int(1), desc: true }],
                frame: None,
            }),
        };
        assert_eq!(
            format!("{w:?}"),
            "Window { func: FuncCall { name: \"RANK\", args: [], distinct: false, star: true }, \
             spec: WindowSpec { partition_by: [Column(ColumnRef { table: None, column: \"v0\" })], \
             order_by: [OrderItem { expr: Integer(1), desc: true }], frame: None } }"
        );
    }

    #[test]
    fn case_rendering() {
        let e = Expr::Case {
            operand: None,
            whens: vec![(Expr::Bool(true), Expr::int(1))],
            else_: Some(Box::new(Expr::int(0))),
        };
        assert_eq!(e.to_string(), "CASE WHEN TRUE THEN 1 ELSE 0 END");
    }

    #[test]
    fn datatype_rendering_and_classification() {
        assert_eq!(DataType::VarChar(100).to_string(), "VARCHAR(100)");
        assert_eq!(DataType::Decimal(10, 2).to_string(), "DECIMAL(10, 2)");
        assert!(DataType::Year.is_numeric());
        assert!(DataType::Text.is_textual());
        assert!(!DataType::Blob.is_numeric());
    }
}
