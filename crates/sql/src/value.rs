//! Runtime values and column data types.

use crate::error::SqlError;
use std::cmp::Ordering;
use std::fmt;

/// Column data types supported by the engine — the subset the Cloudstone
/// schema and the heartbeat table need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INT` / `BIGINT`).
    Int,
    /// 64-bit float (`DOUBLE` / `FLOAT`).
    Double,
    /// UTF-8 string (`VARCHAR` / `TEXT`).
    Text,
    /// Boolean (`BOOLEAN`).
    Bool,
    /// Microseconds since the Unix epoch (`TIMESTAMP`); the paper needed a
    /// microsecond-resolution UDF because MySQL's native functions resolve
    /// to seconds (§III-A).
    Timestamp,
}

impl DataType {
    /// SQL keyword for display.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOLEAN",
            DataType::Timestamp => "TIMESTAMP",
        }
    }
}

/// A runtime value. `Null` is a distinct variant (SQL three-valued logic is
/// implemented in the expression evaluator).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Text(String),
    Bool(bool),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// True when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to the column type `ty`, applying the engine's (small) set of
    /// implicit conversions: Int↔Double, Int→Timestamp, Bool→Int.
    pub fn coerce_to(self, ty: DataType) -> Result<Value, SqlError> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Int(_), DataType::Int) => Ok(v),
            (v @ Value::Double(_), DataType::Double) => Ok(v),
            (v @ Value::Text(_), DataType::Text) => Ok(v),
            (v @ Value::Bool(_), DataType::Bool) => Ok(v),
            (v @ Value::Timestamp(_), DataType::Timestamp) => Ok(v),
            (Value::Int(i), DataType::Double) => Ok(Value::Double(i as f64)),
            (Value::Double(d), DataType::Int) => Ok(Value::Int(d as i64)),
            (Value::Int(i), DataType::Timestamp) => Ok(Value::Timestamp(i)),
            (Value::Timestamp(t), DataType::Int) => Ok(Value::Int(t)),
            (Value::Bool(b), DataType::Int) => Ok(Value::Int(b as i64)),
            (Value::Int(i), DataType::Bool) => Ok(Value::Bool(i != 0)),
            (v, ty) => Err(SqlError::TypeMismatch(format!(
                "cannot store {v:?} in {} column",
                ty.name()
            ))),
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (unknown) or
    /// the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Timestamp(a), Int(b)) => Some(a.cmp(b)),
            (Int(a), Timestamp(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering for ORDER BY and index keys: NULLs first, then by type
    /// class, then by value. Unlike [`Value::sql_cmp`] this is total.
    pub fn index_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) | Value::Timestamp(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => match class(self).cmp(&class(other)) {
                // Same class but incomparable can only be NaN doubles.
                Ordering::Equal => self.sql_cmp(other).unwrap_or(Ordering::Equal),
                o => o,
            },
        }
    }

    /// Truthiness for WHERE evaluation (NULL is not true).
    pub fn is_true(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Double(d) => *d != 0.0,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn timestamp_int_interop() {
        assert_eq!(
            Value::Timestamp(10).sql_cmp(&Value::Int(10)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(5).coerce_to(DataType::Timestamp),
            Ok(Value::Timestamp(5))
        );
    }

    #[test]
    fn index_cmp_is_total_with_nulls_first() {
        let mut vs = [
            Value::Text("b".into()),
            Value::Null,
            Value::Int(3),
            Value::Int(1),
            Value::Bool(true),
        ];
        vs.sort_by(|a, b| a.index_cmp(b));
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(1));
        assert_eq!(vs[3], Value::Int(3));
        assert_eq!(vs[4], Value::Text("b".into()));
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int(1).coerce_to(DataType::Double),
            Ok(Value::Double(1.0))
        );
        assert!(Value::Text("x".into()).coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Int), Ok(Value::Null));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_true());
        assert!(Value::Int(2).is_true());
        assert!(!Value::Int(0).is_true());
        assert!(!Value::Null.is_true());
        assert!(!Value::Text("t".into()).is_true());
    }
}
