//! Scalar values.
//!
//! [`Value`] is the boxed scalar used for literals in expressions, plan
//! parameters, and row extraction in tests. The hot execution path operates
//! on [`crate::Column`] vectors and never materialises per-row `Value`s.
//!
//! `Value` implements `Eq`, `Ord`, and `Hash` with a *total* order so it can
//! serve as a key in the recycler graph's parameter matching: floats are
//! compared by their IEEE-754 bit pattern (after normalising `-0.0` to
//! `0.0`), and `Null` sorts before everything else.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::types::{format_date, DataType};

/// A single scalar value, possibly `Null`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (untyped).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string. `Arc<str>` makes cloning between batches cheap.
    Str(Arc<str>),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The type of this value; `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Whether this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract as bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract as i64, if integral.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract as f64, promoting ints.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract as date days, if a date.
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Discriminant used for cross-type total ordering and hashing.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Date(_) => 5,
        }
    }

    /// Canonical float bits: normalises -0.0 to 0.0 so `Eq`/`Hash` agree.
    /// Two floats are equal `Value`s exactly when these are equal.
    pub fn float_bits(v: f64) -> u64 {
        if v == 0.0 {
            0f64.to_bits()
        } else {
            v.to_bits()
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Value::float_bits(*a) == Value::float_bits(*b),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            // Numeric cross-type comparison (int literal vs float column).
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Float(v) => Value::float_bits(*v).hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "date '{}'", format_date(*d)),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_agree_for_floats() {
        let a = Value::Float(0.0);
        let b = Value::Float(-0.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let nan1 = Value::Float(f64::NAN);
        let nan2 = Value::Float(f64::NAN);
        assert_eq!(nan1, nan2); // bitwise equal NaNs compare equal
    }

    #[test]
    fn total_order_is_consistent() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(7),
            Value::Float(1.5),
            Value::str("abc"),
            Value::Date(100),
        ];
        for a in &vals {
            assert_eq!(a.cmp(a), Ordering::Equal);
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
            }
        }
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Date(3).as_date(), Some(3));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("ab").to_string(), "'ab'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(0).to_string(), "date '1970-01-01'");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(1.25), Value::Float(1.25));
    }
}
