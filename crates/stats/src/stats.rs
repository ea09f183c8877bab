//! Relation- and attribute-level statistics.
//!
//! Exactly the "standard statistics" of Section 3: block counts, tuple
//! counts, average tuple sizes for relations; minimum/maximum values,
//! distinct counts, histograms, and index availability for attributes;
//! clustering for indexes.

use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tango_algebra::value::Key;
use tango_algebra::{Batch, Column, Schema, Tuple, Value};

/// Statistics for one attribute.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AttrStats {
    /// Minimum value (numeric view; `None` if all-null or non-numeric).
    pub min: Option<f64>,
    /// Maximum value (numeric view).
    pub max: Option<f64>,
    /// Number of distinct (non-null) values.
    pub distinct: u64,
    /// Number of nulls.
    pub nulls: u64,
    /// Height-balanced histogram, when collected.
    pub histogram: Option<Histogram>,
    /// Average stored width of this attribute in bytes.
    pub avg_width: f64,
    /// Is there an index on this attribute?
    pub indexed: bool,
    /// Is that index clustering (rows stored in index order)?
    pub clustered: bool,
}

impl AttrStats {
    /// `minVal(A, r)` of the paper.
    pub fn min_val(&self) -> f64 {
        self.min.unwrap_or(0.0)
    }

    /// `maxVal(A, r)` of the paper.
    pub fn max_val(&self) -> f64 {
        self.max.unwrap_or(0.0)
    }

    /// `hasHistogram(A, r)` of the paper.
    pub fn has_histogram(&self) -> bool {
        self.histogram.is_some()
    }
}

/// Statistics for one relation (base or derived).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RelationStats {
    /// `cardinality(r)`.
    pub rows: f64,
    /// Disk blocks occupied (base relations).
    pub blocks: u64,
    /// Average tuple size in bytes.
    pub avg_tuple_bytes: f64,
    /// Per-attribute statistics keyed by (case-normalized bare) name.
    pub attrs: BTreeMap<String, AttrStats>,
}

impl RelationStats {
    /// `size(r)` of the cost formulas: cardinality × average tuple size.
    pub fn size_bytes(&self) -> f64 {
        self.rows * self.avg_tuple_bytes
    }

    /// Look up attribute statistics by (possibly qualified) name.
    pub fn attr(&self, name: &str) -> Option<&AttrStats> {
        let bare = name.rsplit('.').next().unwrap_or(name).to_uppercase();
        self.attrs.get(&bare)
    }

    pub fn set_attr(&mut self, name: &str, stats: AttrStats) {
        let bare = name.rsplit('.').next().unwrap_or(name).to_uppercase();
        self.attrs.insert(bare, stats);
    }

    /// `distinct(A, r)`, defaulting to a tenth of the rows when unknown
    /// (the usual textbook default).
    pub fn distinct(&self, name: &str) -> f64 {
        match self.attr(name) {
            Some(a) if a.distinct > 0 => a.distinct as f64,
            _ => (self.rows / 10.0).max(1.0),
        }
    }

    /// Full statistics of `rows` (each conforming to `schema`), read in
    /// place — the mini-DBMS's ANALYZE.
    pub fn from_rows(schema: &Schema, rows: &[Tuple], histogram_buckets: usize) -> Self {
        Self::from_parts(schema, &[Part::Rows(rows)], histogram_buckets)
    }

    /// Statistics of a stream drained into batches of either layout —
    /// the adaptive engine's staged breaker outputs. Equal, field for
    /// field, to [`RelationStats::from_rows`] over the same rows.
    pub fn from_batches(schema: &Schema, batches: &[Batch], histogram_buckets: usize) -> Self {
        let parts: Vec<Part<'_>> = batches
            .iter()
            .map(|b| match b.columns() {
                Some((cols, offset, len)) => Part::Cols { cols, offset, len },
                None => Part::Rows(b.as_rows().expect("a batch without columns holds rows")),
            })
            .collect();
        Self::from_parts(schema, &parts, histogram_buckets)
    }

    /// The statistics kernel: one typed pass per column. A tuple's byte
    /// size is the sum of its values' widths, so the relation-level
    /// sizes fall out of the per-column width sums.
    fn from_parts(schema: &Schema, parts: &[Part<'_>], histogram_buckets: usize) -> Self {
        let rows: usize = parts.iter().map(Part::len).sum();
        let mut s = RelationStats { rows: rows as f64, ..Default::default() };
        let mut bytes = 0;
        for (i, attr) in schema.attrs().iter().enumerate() {
            let (stats, width) = column_stats(parts, i, rows, histogram_buckets);
            bytes += width;
            s.set_attr(&attr.name, stats);
        }
        s.blocks = (bytes as u64).div_ceil(8192).max(1);
        s.avg_tuple_bytes =
            if rows == 0 { schema.est_tuple_bytes() as f64 } else { bytes as f64 / rows as f64 };
        s
    }
}

/// A run of rows the statistics kernel reads: tuples, or the
/// `offset..offset + len` range of a columnar batch's columns.
enum Part<'a> {
    Rows(&'a [Tuple]),
    Cols { cols: &'a [Column], offset: usize, len: usize },
}

impl Part<'_> {
    fn len(&self) -> usize {
        match self {
            Part::Rows(rows) => rows.len(),
            Part::Cols { len, .. } => *len,
        }
    }
}

/// A borrowed view of one value: no string is cloned to read it.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    Int(i64),
    Date(i64),
    Double(f64),
    Str(&'a str),
}

impl<'a> Cell<'a> {
    fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Date(d) => Cell::Date(*d as i64),
            Value::Double(d) => Cell::Double(*d),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// [`Value::byte_size`] of the value this cell views.
    fn width(self) -> usize {
        match self {
            Cell::Null => 1,
            Cell::Int(_) | Cell::Double(_) => 8,
            Cell::Date(_) => 4,
            Cell::Str(s) => 2 + s.len(),
        }
    }

    /// [`Value::as_f64`].
    fn num(self) -> Option<f64> {
        match self {
            Cell::Int(i) | Cell::Date(i) => Some(i as f64),
            Cell::Double(d) => Some(d),
            Cell::Null | Cell::Str(_) => None,
        }
    }

    /// [`Value::key`].
    fn key(self) -> Option<Key> {
        match self {
            Cell::Null => None,
            Cell::Int(i) | Cell::Date(i) => Some(Key::Num(i)),
            Cell::Double(d) => Some(Key::of_double(d)),
            Cell::Str(s) => Some(Key::Str(s.to_string())),
        }
    }
}

/// Call `f` on every cell of column `col`, in row order.
fn for_each_cell<'a>(parts: &[Part<'a>], col: usize, mut f: impl FnMut(Cell<'a>)) {
    for part in parts {
        match *part {
            Part::Rows(rows) => rows.iter().for_each(|t| f(Cell::of(&t[col]))),
            Part::Cols { cols, offset, len } => {
                let rows = offset..offset + len;
                // non-null typed columns read their flat buffers directly
                match &cols[col] {
                    Column::Int { vals, valid: None } => {
                        vals[rows].iter().for_each(|&i| f(Cell::Int(i)))
                    }
                    Column::Date { vals, valid: None } => {
                        vals[rows].iter().for_each(|&d| f(Cell::Date(d)))
                    }
                    Column::Double { vals, valid: None } => {
                        vals[rows].iter().for_each(|&d| f(Cell::Double(d)))
                    }
                    Column::Str { codes, dict, valid: None } => {
                        codes[rows].iter().for_each(|&c| f(Cell::Str(&dict[c as usize])))
                    }
                    column => rows.for_each(|i| f(cell_at(column, i))),
                }
            }
        }
    }
}

/// The cell at absolute row `i` of a column.
fn cell_at(column: &Column, i: usize) -> Cell<'_> {
    if !column.is_valid(i) {
        return Cell::Null;
    }
    match column {
        Column::Int { vals, .. } => Cell::Int(vals[i]),
        Column::Date { vals, .. } => Cell::Date(vals[i]),
        Column::Double { vals, .. } => Cell::Double(vals[i]),
        Column::Str { codes, dict, .. } => Cell::Str(&dict[codes[i] as usize]),
        Column::Mixed { vals } => Cell::of(&vals[i]),
    }
}

/// Statistics of column `col` over `rows` rows, and the column's total
/// width in bytes. One pass splits the non-null values by type. A
/// column of one kind — Int and Date together, Double, or Str — is then
/// summarized from one sort of its typed values; a column mixing kinds
/// takes the generic per-[`Key`] path.
fn column_stats(
    parts: &[Part<'_>],
    col: usize,
    rows: usize,
    histogram_buckets: usize,
) -> (AttrStats, usize) {
    let (mut nulls, mut width) = (0u64, 0usize);
    let mut ints: Vec<i64> = Vec::new();
    let mut doubles: Vec<f64> = Vec::new();
    let mut strs: Vec<&str> = Vec::new();
    for_each_cell(parts, col, |c| {
        width += c.width();
        match c {
            Cell::Null => nulls += 1,
            Cell::Int(i) | Cell::Date(i) => ints.push(i),
            Cell::Double(d) => doubles.push(d),
            Cell::Str(s) => strs.push(s),
        }
    });
    let kinds = [!ints.is_empty(), !doubles.is_empty(), !strs.is_empty()];
    let (min, max, distinct, histogram) = match kinds {
        [true, false, false] => {
            // ints and dates compare, key and histogram as i64: min, max,
            // distinct count and endpoints all come from one sort
            ints.sort_unstable();
            let distinct = 1 + ints.windows(2).filter(|w| w[0] != w[1]).count();
            let histogram =
                Histogram::from_sorted(ints.len(), histogram_buckets, |i| ints[i] as f64);
            (ints.first().map(|&i| i as f64), ints.last().map(|&i| i as f64), distinct, histogram)
        }
        [false, true, false] => {
            // min/max reduce in row order, as `f64::min` settles NaNs and
            // signed zeros by position
            let min = doubles.iter().copied().reduce(f64::min);
            let max = doubles.iter().copied().reduce(f64::max);
            doubles.sort_by(f64::total_cmp);
            // values with equal keys (only -0.0 and 0.0 among distinct
            // bit patterns) sit next to each other in total order
            let distinct = 1 + doubles
                .windows(2)
                .filter(|w| Key::of_double(w[0]) != Key::of_double(w[1]))
                .count();
            let histogram =
                Histogram::from_sorted(doubles.len(), histogram_buckets, |i| doubles[i]);
            (min, max, distinct, histogram)
        }
        [false, false, true] => {
            strs.sort_unstable();
            strs.dedup();
            (None, None, strs.len(), None)
        }
        [false, false, false] => (None, None, 0, None),
        _ => {
            let mut nums = Vec::new();
            let mut keys = Vec::new();
            for_each_cell(parts, col, |c| {
                nums.extend(c.num());
                keys.extend(c.key());
            });
            keys.sort();
            keys.dedup();
            let min = nums.iter().copied().reduce(f64::min);
            let max = nums.iter().copied().reduce(f64::max);
            (min, max, keys.len(), Histogram::build(nums, histogram_buckets))
        }
    };
    let stats = AttrStats {
        min,
        max,
        distinct: distinct as u64,
        nulls,
        histogram,
        avg_width: if rows == 0 { 8.0 } else { width as f64 / rows as f64 },
        indexed: false,
        clustered: false,
    };
    (stats, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tango_algebra::{tup, Attr, Relation, Type};

    #[test]
    fn from_rows_basics() {
        let schema =
            Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("S", Type::Str)]));
        let rel =
            Relation::new(schema, vec![tup![1, "x"], tup![2, "y"], tup![2, "y"], tup![5, "z"]]);
        let s = RelationStats::from_rows(rel.schema(), rel.tuples(), 4);
        assert_eq!(s.rows, 4.0);
        let a = s.attr("A").unwrap();
        assert_eq!(a.min, Some(1.0));
        assert_eq!(a.max, Some(5.0));
        assert_eq!(a.distinct, 3);
        assert!(a.has_histogram());
        let str_attr = s.attr("S").unwrap();
        assert_eq!(str_attr.distinct, 3);
        assert!(!str_attr.has_histogram()); // strings are not histogrammed
        assert!(s.size_bytes() > 0.0);
    }

    /// The per-`Value` implementation the typed kernel replaced: the
    /// reference the differential test compares against.
    fn oracle(rel: &Relation, histogram_buckets: usize) -> RelationStats {
        let schema: &Schema = rel.schema();
        let mut s = RelationStats {
            rows: rel.len() as f64,
            blocks: (rel.byte_size() as u64).div_ceil(8192).max(1),
            avg_tuple_bytes: rel.avg_tuple_bytes(),
            attrs: BTreeMap::new(),
        };
        for (i, attr) in schema.attrs().iter().enumerate() {
            let col: Vec<&Value> = rel.tuples().iter().map(|t| &t[i]).collect();
            let nums: Vec<f64> = col.iter().filter_map(|v| v.as_f64()).collect();
            let nulls = col.iter().filter(|v| v.is_null()).count() as u64;
            let mut keys: Vec<_> = col.iter().filter(|v| !v.is_null()).map(|v| v.key()).collect();
            keys.sort();
            keys.dedup();
            let histogram = if histogram_buckets > 0 && !nums.is_empty() {
                Histogram::build(nums.clone(), histogram_buckets)
            } else {
                None
            };
            let width_sum: usize = col.iter().map(|v| v.byte_size()).sum();
            s.set_attr(
                &attr.name,
                AttrStats {
                    min: nums.iter().copied().reduce(f64::min),
                    max: nums.iter().copied().reduce(f64::max),
                    distinct: keys.len() as u64,
                    nulls,
                    histogram,
                    avg_width: if col.is_empty() {
                        8.0
                    } else {
                        width_sum as f64 / col.len() as f64
                    },
                    indexed: false,
                    clustered: false,
                },
            );
        }
        s
    }

    /// A seeded relation with one column per value mix the kernel
    /// distinguishes, nulls sprinkled through every column but the last.
    fn random_relation(seed: u64, rows: usize) -> Relation {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let doubles = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, -2.25, 3.0, f64::INFINITY, 1e300];
        let schema = Arc::new(Schema::new(vec![
            Attr::new("I", Type::Int),
            Attr::new("D", Type::Date),
            Attr::new("ID", Type::Int),
            Attr::new("F", Type::Double),
            Attr::new("S", Type::Str),
            Attr::new("IF", Type::Double),
            Attr::new("IS", Type::Str),
            Attr::new("N", Type::Int),
            Attr::new("DENSE", Type::Int),
        ]));
        let tuples = (0..rows)
            .map(|_| {
                let r = next();
                let null = |k: u64| (r >> k).is_multiple_of(7);
                let small = (next() % 40) as i64 - 20;
                let cell = |k: u64, v: Value| if null(k) { Value::Null } else { v };
                let double = match next() % 3 {
                    0 => Value::Double(doubles[(next() % doubles.len() as u64) as usize]),
                    1 => Value::Double(small as f64),
                    _ => Value::Double(small as f64 / 8.0),
                };
                Tuple::new(vec![
                    cell(3, Value::Int(small * 1_000_003)),
                    cell(6, Value::Date(small as i32)),
                    cell(9, if r % 2 == 0 { Value::Int(small) } else { Value::Date(small as i32) }),
                    cell(12, double.clone()),
                    cell(15, Value::Str(format!("s{}", small.rem_euclid(9)))),
                    cell(18, if r % 3 == 0 { Value::Int(small) } else { double }),
                    cell(21, if r % 2 == 0 { Value::Int(small) } else { Value::Str("x".into()) }),
                    Value::Null,
                    Value::Int(small),
                ])
            })
            .collect();
        Relation::new(schema, tuples)
    }

    /// The same rows as batches of seeded sizes, alternating row and
    /// columnar layout.
    fn random_batches(rel: &Relation, seed: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        let mut at = 0;
        let mut k = seed;
        while at < rel.len() {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let n = (1 + (k >> 33) as usize % 50).min(rel.len() - at);
            let b = Batch::new(rel.schema().clone(), rel.tuples()[at..at + n].to_vec());
            out.push(if out.len() % 2 == 0 { b.columnarize() } else { b });
            at += n;
        }
        out
    }

    #[test]
    fn typed_kernel_matches_per_value_oracle() {
        for seed in 0..60u64 {
            let rows = [0, 1, 2, 7, 64, 300][seed as usize % 6];
            let rel = random_relation(seed, rows);
            let batches = random_batches(&rel, seed);
            for buckets in [0, 20] {
                // Debug output tells -0.0 from 0.0 and prints NaN alike,
                // so equal strings mean bit-for-bit equal statistics
                let want = format!("{:?}", oracle(&rel, buckets));
                let got = RelationStats::from_rows(rel.schema(), rel.tuples(), buckets);
                assert_eq!(format!("{got:?}"), want, "seed {seed}, {buckets} buckets");
                let got = RelationStats::from_batches(rel.schema(), &batches, buckets);
                assert_eq!(format!("{got:?}"), want, "seed {seed}, {buckets} buckets, batches");
            }
        }
    }

    #[test]
    fn qualified_lookup() {
        let mut s = RelationStats::default();
        s.set_attr("P.PosID", AttrStats { distinct: 7, ..Default::default() });
        assert_eq!(s.attr("posid").unwrap().distinct, 7);
        assert_eq!(s.attr("X.POSID").unwrap().distinct, 7);
    }
}
