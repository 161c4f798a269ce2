//! Runtime values and SQL coercion semantics.

use lego_sqlast::expr::DataType;
use std::cmp::Ordering;
use std::fmt;

/// A runtime cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    Blob(Vec<u8>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL truthiness: NULL is unknown (treated as false in filters).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Text(s) => !s.is_empty(),
            Value::Blob(b) => !b.is_empty(),
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64 as f64),
            Value::Text(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Bool(b) => Some(*b as i64),
            Value::Text(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Total order used for ORDER BY / index keys: NULLs first, then by type
    /// class, then by value (mirrors SQLite's type ordering).
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) | Value::Bool(_) => 1,
                Value::Text(_) => 2,
                Value::Blob(_) => 3,
            }
        }
        match class(self).cmp(&class(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Text(a), Value::Text(b)) => a.cmp(b),
                (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
                (a, b) => {
                    let (x, y) = (a.as_float().unwrap_or(0.0), b.as_float().unwrap_or(0.0));
                    x.partial_cmp(&y).unwrap_or(Ordering::Equal)
                }
            },
            o => o,
        }
    }

    /// SQL `=` comparison with NULL semantics: returns `None` when either
    /// side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Blob(a), Value::Blob(b)) => a == b,
            (a, b) => match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        })
    }

    /// SQL ordering comparison; `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.sort_cmp(other))
    }

    /// Coerce for storage into a column of declared type (type affinity, like
    /// SQLite/MySQL silently converting on insert), and for CAST. Takes the
    /// value, so text that already fits moves into the result.
    pub fn coerce_to(self, ty: DataType) -> Value {
        if self.is_null() {
            return Value::Null;
        }
        match ty {
            t if t.is_numeric() => {
                if matches!(t, DataType::Float | DataType::Double | DataType::Decimal(..)) {
                    self.as_float().map(Value::Float).unwrap_or(Value::Null)
                } else if matches!(t, DataType::Year) {
                    // YEAR clamps into [1901, 2155], MySQL-style; 0 allowed.
                    match self.as_int() {
                        Some(0) => Value::Int(0),
                        Some(v) => Value::Int(v.clamp(1901, 2155)),
                        None => Value::Null,
                    }
                } else {
                    self.as_int().map(Value::Int).unwrap_or(Value::Null)
                }
            }
            t if t.is_textual() => {
                let mut s = self.into_text();
                if let DataType::VarChar(n) | DataType::Char(n) = t {
                    // The length counts characters, not bytes.
                    if let Some((cut, _)) = s.char_indices().nth(n as usize) {
                        s.truncate(cut);
                    }
                }
                Value::Text(s)
            }
            DataType::Bool => Value::Bool(self.is_truthy()),
            DataType::Blob => match self {
                Value::Blob(b) => Value::Blob(b),
                other => Value::Blob(other.into_text().into_bytes()),
            },
            // Temporal types store their textual form.
            _ => Value::Text(self.into_text()),
        }
    }

    fn into_text(self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => v.to_string(),
            Value::Text(s) => s,
            Value::Bool(b) => if b { "1" } else { "0" }.to_string(),
            Value::Blob(b) => String::from_utf8_lossy(&b).into_owned(),
        }
    }

    /// Key encoding for unique/index comparisons (NULLs are distinct, as in
    /// SQL unique constraints).
    pub fn key_repr(&self) -> String {
        match self {
            Value::Null => "\u{0}N".into(),
            Value::Int(v) => format!("i{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && *v < 1e15 && *v > -1e15 {
                    format!("i{}", *v as i64)
                } else {
                    format!("f{v}")
                }
            }
            Value::Text(s) => format!("t{s}"),
            Value::Bool(b) => format!("i{}", *b as i64),
            Value::Blob(b) => format!("b{}", String::from_utf8_lossy(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Blob(b) => write!(f, "x'{}'", b.len()),
        }
    }
}

/// A row of values.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagation_in_eq() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(1).sql_eq(&Value::Float(1.0)), Some(true));
        assert_eq!(Value::Bool(true).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn text_and_numbers_do_not_collide_in_sort() {
        assert_eq!(Value::Int(5).sort_cmp(&Value::Text("5".into())), Ordering::Less);
        assert_eq!(Value::Null.sort_cmp(&Value::Int(0)), Ordering::Less);
    }

    #[test]
    fn year_coercion_clamps() {
        assert_eq!(Value::Int(22471185).coerce_to(DataType::Year), Value::Int(2155));
        assert_eq!(Value::Int(1000).coerce_to(DataType::Year), Value::Int(1901));
        assert_eq!(Value::Int(2021).coerce_to(DataType::Year), Value::Int(2021));
        assert_eq!(Value::Int(0).coerce_to(DataType::Year), Value::Int(0));
    }

    #[test]
    fn varchar_truncates() {
        assert_eq!(
            Value::Text("hello world".into()).coerce_to(DataType::VarChar(5)),
            Value::Text("hello".into())
        );
    }

    #[test]
    fn varchar_and_char_count_characters_not_bytes() {
        for ty in [DataType::VarChar(1), DataType::Char(1)] {
            assert_eq!(Value::Text("éx".into()).coerce_to(ty), Value::Text("é".into()));
        }
        assert_eq!(
            Value::Text("日本語".into()).coerce_to(DataType::VarChar(5)),
            Value::Text("日本語".into())
        );
    }

    #[test]
    fn text_to_int_coercion() {
        assert_eq!(Value::Text("42".into()).coerce_to(DataType::Int), Value::Int(42));
        assert_eq!(Value::Text("x".into()).coerce_to(DataType::Int), Value::Null);
    }

    #[test]
    fn key_repr_unifies_int_and_integral_float() {
        assert_eq!(Value::Int(3).key_repr(), Value::Float(3.0).key_repr());
        assert_ne!(Value::Int(3).key_repr(), Value::Text("3".into()).key_repr());
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(Value::Int(2).is_truthy());
        assert!(!Value::Text(String::new()).is_truthy());
    }
}
