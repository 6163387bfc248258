//! Typed column vectors with null bitmaps.

use crate::bitvec::BitVec;
use crate::error::StorageError;
use crate::table::ValueRange;
use crate::value::{DataType, Value};
use crate::Result;
use std::sync::Arc;

/// The typed payload of a column.
#[derive(Debug, Clone)]
enum TypedVec {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
}

/// A single column of a [`crate::DataChunk`], stored as a typed vector plus
/// an optional validity bitmap (absent ⇔ the column holds no NULLs).
///
/// The paper (§7.1) stores data "in a columnar representation for
/// horizontal chunks of a table"; this is that representation.
#[derive(Debug, Clone)]
pub struct ColumnData {
    values: TypedVec,
    /// Set bits mark NULL positions. Allocated on the first NULL; from
    /// then on it has exactly one bit per entry.
    nulls: Option<BitVec>,
    dtype: DataType,
}

impl ColumnData {
    /// Empty column of the given type.
    pub fn new(dtype: DataType) -> ColumnData {
        ColumnData {
            values: match dtype {
                DataType::Bool => TypedVec::Bool(Vec::new()),
                DataType::Int => TypedVec::Int(Vec::new()),
                DataType::Float => TypedVec::Float(Vec::new()),
                DataType::Str => TypedVec::Str(Vec::new()),
            },
            nulls: None,
            dtype,
        }
    }

    /// Column type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of entries (including NULLs).
    pub fn len(&self) -> usize {
        match &self.values {
            TypedVec::Bool(v) => v.len(),
            TypedVec::Int(v) => v.len(),
            TypedVec::Float(v) => v.len(),
            TypedVec::Str(v) => v.len(),
        }
    }

    /// True iff the column holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value. `Int` values coerce into `Float` columns (SQL-style
    /// numeric widening); every other mismatch is an error.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            let len = self.len();
            // Push a placeholder and mark the slot as NULL.
            match &mut self.values {
                TypedVec::Bool(v) => v.push(false),
                TypedVec::Int(v) => v.push(0),
                TypedVec::Float(v) => v.push(0.0),
                TypedVec::Str(v) => v.push(Arc::from("")),
            }
            self.nulls
                .get_or_insert_with(|| BitVec::new(len))
                .push(true);
            return Ok(());
        }
        match (&mut self.values, value) {
            (TypedVec::Bool(v), Value::Bool(b)) => v.push(*b),
            (TypedVec::Int(v), Value::Int(i)) => v.push(*i),
            (TypedVec::Float(v), Value::Float(f)) => v.push(*f),
            (TypedVec::Float(v), Value::Int(i)) => v.push(*i as f64),
            (TypedVec::Str(v), Value::Str(s)) => v.push(s.clone()),
            _ => {
                return Err(StorageError::TypeMismatch {
                    expected: self.dtype,
                    found: value.data_type(),
                })
            }
        }
        if let Some(nulls) = &mut self.nulls {
            nulls.push(false);
        }
        Ok(())
    }

    fn is_null(&self, idx: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(idx))
    }

    /// Read the value at `idx`.
    pub fn get(&self, idx: usize) -> Value {
        if self.is_null(idx) {
            return Value::Null;
        }
        match &self.values {
            TypedVec::Bool(v) => Value::Bool(v[idx]),
            TypedVec::Int(v) => Value::Int(v[idx]),
            TypedVec::Float(v) => Value::Float(v[idx]),
            TypedVec::Str(v) => Value::Str(v[idx].clone()),
        }
    }

    /// Column-first range selection: append to `out`, ascending, every
    /// position whose value lies in at least one of the inclusive `ranges`
    /// (`None` = unbounded). Values compare by [`Value`]'s `Ord`, so an
    /// `Int` column against a `Float` bound compares numerically, exactly
    /// as a row predicate `col >= bound` would; a NULL never matches.
    ///
    /// The loop runs over the typed vector and builds no [`crate::Row`].
    /// An `Int` column whose bounds are all `Int` compares plain `i64`s.
    pub fn select_in_ranges(&self, ranges: &[ValueRange], out: &mut Vec<usize>) {
        let nulls = self.nulls.as_ref();
        match &self.values {
            TypedVec::Int(v) => match int_bounds(ranges) {
                Some(b) => push_matching(v, nulls, out, |&x| {
                    b.iter().any(|&(lo, hi)| lo <= x && x <= hi)
                }),
                None => push_matching(v, nulls, out, |&x| in_ranges(&Value::Int(x), ranges)),
            },
            TypedVec::Float(v) => {
                push_matching(v, nulls, out, |&x| in_ranges(&Value::Float(x), ranges))
            }
            TypedVec::Bool(v) => {
                push_matching(v, nulls, out, |&x| in_ranges(&Value::Bool(x), ranges))
            }
            TypedVec::Str(v) => {
                push_matching(v, nulls, out, |x| in_ranges(&Value::Str(x.clone()), ranges))
            }
        }
    }

    /// Min and max non-NULL values (zone-map input); `None` when all NULL
    /// or empty.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for i in 0..self.len() {
            let v = self.get(i);
            if v.is_null() {
                continue;
            }
            match &mut min {
                None => min = Some(v.clone()),
                Some(m) if v < *m => *m = v.clone(),
                _ => {}
            }
            match &mut max {
                None => max = Some(v),
                Some(m) => {
                    if v > *m {
                        *m = v;
                    }
                }
            }
        }
        min.zip(max)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        let data = match &self.values {
            TypedVec::Bool(v) => v.capacity(),
            TypedVec::Int(v) => v.capacity() * 8,
            TypedVec::Float(v) => v.capacity() * 8,
            TypedVec::Str(v) => {
                v.capacity() * std::mem::size_of::<Arc<str>>()
                    + v.iter().map(|s| s.len()).sum::<usize>()
            }
        };
        data + self.nulls.as_ref().map_or(0, BitVec::heap_size)
    }
}

/// Append to `out` every non-NULL position of `values` that `keep` accepts.
fn push_matching<T>(
    values: &[T],
    nulls: Option<&BitVec>,
    out: &mut Vec<usize>,
    keep: impl Fn(&T) -> bool,
) {
    for (i, x) in values.iter().enumerate() {
        if keep(x) && !nulls.is_some_and(|n| n.get(i)) {
            out.push(i);
        }
    }
}

/// Is `v` inside at least one inclusive range?
fn in_ranges(v: &Value, ranges: &[ValueRange]) -> bool {
    ranges.iter().any(|(lo, hi)| {
        lo.as_ref().is_none_or(|lo| v >= lo) && hi.as_ref().is_none_or(|hi| v <= hi)
    })
}

/// `ranges` as inclusive `i64` pairs, when every bound is an `Int` or
/// unbounded; `None` when some bound needs [`Value`]'s mixed-type order.
fn int_bounds(ranges: &[ValueRange]) -> Option<Vec<(i64, i64)>> {
    let bound = |b: &Option<Value>, open: i64| match b {
        None => Some(open),
        Some(Value::Int(i)) => Some(*i),
        Some(_) => None,
    };
    ranges
        .iter()
        .map(|(lo, hi)| Some((bound(lo, i64::MIN)?, bound(hi, i64::MAX)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(&Value::Int(1)).unwrap();
        c.push(&Value::Int(-5)).unwrap();
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Int(-5));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn nulls_tracked() {
        let mut c = ColumnData::new(DataType::Str);
        c.push(&Value::str("x")).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::str("y")).unwrap();
        assert_eq!(c.get(0), Value::str("x"));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::str("y"));
    }

    #[test]
    fn int_widens_to_float() {
        let mut c = ColumnData::new(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = ColumnData::new(DataType::Int);
        let err = c.push(&Value::str("nope")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn min_max_skips_nulls() {
        let mut c = ColumnData::new(DataType::Int);
        for v in [Value::Null, Value::Int(5), Value::Int(-2), Value::Null] {
            c.push(&v).unwrap();
        }
        assert_eq!(c.min_max(), Some((Value::Int(-2), Value::Int(5))));
        let empty = ColumnData::new(DataType::Int);
        assert_eq!(empty.min_max(), None);
    }

    #[test]
    fn nulls_interleaved_across_word_boundary() {
        // Non-NULL prefix (no bitmap yet), then NULLs every third slot
        // across the 64-bit word boundary of the bitmap.
        let expected: Vec<Value> = (0..150)
            .map(|i| {
                if i >= 10 && i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let mut c = ColumnData::new(DataType::Int);
        for v in &expected {
            c.push(v).unwrap();
            assert_eq!(c.nulls.as_ref().map_or(c.len(), BitVec::len), c.len());
        }
        let got: Vec<Value> = (0..c.len()).map(|i| c.get(i)).collect();
        assert_eq!(got, expected);
        assert_eq!(c.min_max(), Some((Value::Int(0), Value::Int(149))));
    }

    fn selected(c: &ColumnData, ranges: &[ValueRange]) -> Vec<usize> {
        let mut out = Vec::new();
        c.select_in_ranges(ranges, &mut out);
        out
    }

    #[test]
    fn select_in_ranges_follows_value_order() {
        let mut c = ColumnData::new(DataType::Int);
        for v in [
            Value::Int(1),
            Value::Null,
            Value::Int(3),
            Value::Int(5),
            Value::Int(8),
        ] {
            c.push(&v).unwrap();
        }
        let int = |i| Some(Value::Int(i));
        // Int bounds: inclusive, OR-union, unbounded sides.
        assert_eq!(selected(&c, &[(int(3), int(5))]), vec![2, 3]);
        assert_eq!(selected(&c, &[(None, int(1)), (int(8), None)]), vec![0, 4]);
        // NULL never matches, not even a fully unbounded range.
        assert_eq!(selected(&c, &[(None, None)]), vec![0, 2, 3, 4]);
        // Float bounds on an Int column compare numerically.
        let fl = |f| Some(Value::Float(f));
        assert_eq!(selected(&c, &[(fl(2.5), fl(5.0))]), vec![2, 3]);
        // Mixed-type bounds follow Value's type rank: every Int sorts
        // below every Str.
        assert_eq!(
            selected(&c, &[(None, Some(Value::str("a")))]),
            vec![0, 2, 3, 4]
        );
        assert!(selected(&c, &[(Some(Value::str("a")), None)]).is_empty());

        let mut s = ColumnData::new(DataType::Str);
        for v in [Value::str("b"), Value::Null, Value::str("d")] {
            s.push(&v).unwrap();
        }
        let st = |x| Some(Value::str(x));
        assert_eq!(selected(&s, &[(st("a"), st("c"))]), vec![0]);
        assert_eq!(selected(&s, &[(st("c"), None)]), vec![2]);
    }
}
