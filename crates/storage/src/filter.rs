//! Compiled row predicates: the storage-level form of a `WHERE` clause.
//!
//! The query layer resolves column *names* to positional indices against
//! a [`crate::Schema`] and compiles the textual predicate into a
//! [`RowFilter`] — a conjunction of comparisons evaluated directly
//! against each sampled or scanned row tuple, so filtering happens where
//! the rows are produced instead of in a post-pass.

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
}

impl CmpOp {
    /// Evaluates `lhs op rhs`.
    #[inline]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Gt => lhs > rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }

    fn tag(self) -> u8 {
        match self {
            CmpOp::Gt => 0,
            CmpOp::Lt => 1,
            CmpOp::Ge => 2,
            CmpOp::Le => 3,
            CmpOp::Eq => 4,
            CmpOp::Ne => 5,
        }
    }
}

/// One compiled comparison against a positional column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnPredicate {
    /// Positional column index into the row tuple.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: f64,
}

impl ColumnPredicate {
    /// Evaluates the predicate against a row tuple.
    #[inline]
    pub fn matches(&self, row: &[f64]) -> bool {
        self.op.eval(row[self.column], self.value)
    }
}

/// A conjunction of column predicates (`a AND b AND …`).
///
/// An empty filter matches every row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowFilter {
    predicates: Vec<ColumnPredicate>,
}

impl RowFilter {
    /// Maximum rejection-sampling attempts per draw on a filtered view
    /// before the draw fails with
    /// [`crate::StorageError::SelectivityTooLow`]. At this budget, a
    /// predicate needs selectivity below ~10⁻³ for a draw to fail with
    /// probability ~e⁻¹⁰. The rejection path only runs when a
    /// [`crate::SelectionVector`] could not be compiled (unscannable
    /// blocks); compiled selections draw without rejection and never
    /// trip this.
    pub const MAX_REJECTION_ATTEMPTS: u32 = 10_000;

    /// A filter that matches every row.
    pub fn all() -> Self {
        Self::default()
    }

    /// Builds a conjunction of predicates.
    ///
    /// Conjuncts are stored in a canonical order — sorted by `(column,
    /// operator, literal bits)` — because conjunction is commutative:
    /// `a > 1 AND b < 2` and `b < 2 AND a > 1` select exactly the same
    /// rows, so they must compare equal and fingerprint equal. Without
    /// the canonicalization, permuted spellings of one predicate split
    /// every fingerprint-keyed cache (selections, pre-estimates) into
    /// needless duplicate slots.
    pub fn new(mut predicates: Vec<ColumnPredicate>) -> Self {
        predicates.sort_by_key(|p| (p.column, p.op.tag(), p.value.to_bits()));
        Self { predicates }
    }

    /// The conjuncts.
    pub fn predicates(&self) -> &[ColumnPredicate] {
        &self.predicates
    }

    /// Whether the filter is trivial (matches everything).
    pub fn is_trivial(&self) -> bool {
        self.predicates.is_empty()
    }

    /// The largest column index referenced, if any.
    pub fn max_column(&self) -> Option<usize> {
        self.predicates.iter().map(|p| p.column).max()
    }

    /// Evaluates the conjunction against a row tuple.
    #[inline]
    pub fn matches(&self, row: &[f64]) -> bool {
        self.predicates.iter().all(|p| p.matches(row))
    }

    /// The columns a scan must deliver to evaluate this filter and read
    /// the `also` columns beside it (ascending, de-duplicated), and the
    /// filter re-indexed against that list; column `c` of the original
    /// row sits at `columns.partition_point(|&x| x < c)`. Re-indexing
    /// is monotone, so the conjuncts keep their canonical order and
    /// perform the same comparisons on the same values.
    pub fn projected(&self, also: impl IntoIterator<Item = usize>) -> (Vec<usize>, RowFilter) {
        let mut columns: Vec<usize> = self
            .predicates
            .iter()
            .map(|p| p.column)
            .chain(also)
            .collect();
        columns.sort_unstable();
        columns.dedup();
        let predicates = self
            .predicates
            .iter()
            .map(|p| ColumnPredicate {
                column: columns.partition_point(|&c| c < p.column),
                ..*p
            })
            .collect();
        (columns, RowFilter { predicates })
    }

    /// Evaluates the conjunction over one chunk of aligned column
    /// slices (`cols[c][i]` is column `c` of the chunk's row `i`, as
    /// [`crate::DataBlock::scan_column_chunks`] delivers them), writing
    /// `base + i` for every matching row `i` into `out` (cleared
    /// first), ascending — exactly the rows
    /// [`RowFilter::matches`] accepts, [`CmpOp::eval`]'s NaN and ±0
    /// semantics included.
    ///
    /// The first conjunct is one dense compare over its column with
    /// branch-free index compaction (every index is stored, the write
    /// position advances only on a match — no data-dependent branch for
    /// the predictor to lose); each further conjunct refines the
    /// candidate list in place, reading only the surviving rows. The
    /// row count is `cols[0]`'s length, so at least one column must be
    /// given; a trivial filter selects every row of it.
    ///
    /// # Panics
    ///
    /// Panics if a conjunct's column is missing from `cols`, a column
    /// is shorter than `cols[0]`, or `base` plus the chunk's length
    /// overflows `u32`.
    pub fn select(&self, cols: &[&[f64]], base: u32, out: &mut Vec<u32>) {
        let rows = cols.first().map_or(0, |col| col.len());
        let end = u64::from(base) + rows as u64;
        assert!(
            end <= u64::from(u32::MAX),
            "chunk indices must fit the u32 index space"
        );
        out.clear();
        if self.predicates.is_empty() {
            out.extend(base..end as u32);
            return;
        }
        for (k, p) in self.predicates.iter().enumerate() {
            let (col, rhs, dense) = (&cols[p.column][..rows], p.value, k == 0);
            // One arm per operator, so each pass is a loop over a single
            // inlined comparison — `CmpOp::eval` itself, constant-folded.
            match p.op {
                CmpOp::Gt => conjunct_pass(col, base, dense, out, |v| CmpOp::Gt.eval(v, rhs)),
                CmpOp::Lt => conjunct_pass(col, base, dense, out, |v| CmpOp::Lt.eval(v, rhs)),
                CmpOp::Ge => conjunct_pass(col, base, dense, out, |v| CmpOp::Ge.eval(v, rhs)),
                CmpOp::Le => conjunct_pass(col, base, dense, out, |v| CmpOp::Le.eval(v, rhs)),
                CmpOp::Eq => conjunct_pass(col, base, dense, out, |v| CmpOp::Eq.eval(v, rhs)),
                CmpOp::Ne => conjunct_pass(col, base, dense, out, |v| CmpOp::Ne.eval(v, rhs)),
            }
        }
    }

    /// Evaluates the conjunction over the rows `start..start + 64` of
    /// one chunk of aligned column slices (clipped to `cols[0]`'s
    /// length), returning a word whose bit `i` is set when row
    /// `start + i` matches — the same rows [`RowFilter::select`] lists,
    /// as one bitmap word instead of an index list.
    ///
    /// Each conjunct, in canonical order, is one dense pass of
    /// [`CmpOp::eval`] over its column's rows of the word, setting bits
    /// branch-free; the word is the AND of the passes, and conjuncts
    /// after the word empties are not read. A trivial filter sets every
    /// row's bit.
    ///
    /// # Panics
    ///
    /// Panics if a conjunct's column is missing from `cols` or shorter
    /// than `cols[0]`.
    pub fn select_word(&self, cols: &[&[f64]], start: usize) -> u64 {
        let end = cols
            .first()
            .map_or(0, |col| col.len())
            .min(start.saturating_add(64));
        let mut word = match end.saturating_sub(start) {
            0 => return 0,
            64 => u64::MAX,
            rows => (1u64 << rows) - 1,
        };
        for p in &self.predicates {
            if word == 0 {
                break;
            }
            let (col, rhs) = (&cols[p.column][start..end], p.value);
            // One arm per operator, as in `select`.
            word &= match p.op {
                CmpOp::Gt => word_pass(col, |v| CmpOp::Gt.eval(v, rhs)),
                CmpOp::Lt => word_pass(col, |v| CmpOp::Lt.eval(v, rhs)),
                CmpOp::Ge => word_pass(col, |v| CmpOp::Ge.eval(v, rhs)),
                CmpOp::Le => word_pass(col, |v| CmpOp::Le.eval(v, rhs)),
                CmpOp::Eq => word_pass(col, |v| CmpOp::Eq.eval(v, rhs)),
                CmpOp::Ne => word_pass(col, |v| CmpOp::Ne.eval(v, rhs)),
            };
        }
        word
    }

    /// A stable digest of the compiled predicate, for cache keys: two
    /// filters fingerprint equal exactly when every conjunct is
    /// bit-identical.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.predicates.len().hash(&mut h);
        for p in &self.predicates {
            p.column.hash(&mut h);
            p.op.tag().hash(&mut h);
            p.value.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

/// One conjunct of [`RowFilter::select`] over a chunk column. `dense`
/// (the first conjunct) tests every row; otherwise the candidates
/// already in `out` are refined in place. Either way every candidate
/// index is stored and the write position advances only when `keep`
/// holds, so the loop carries no data-dependent branch.
#[inline]
fn conjunct_pass(
    col: &[f64],
    base: u32,
    dense: bool,
    out: &mut Vec<u32>,
    keep: impl Fn(f64) -> bool,
) {
    let mut kept = 0;
    if dense {
        out.resize(col.len(), 0);
        for (i, &v) in col.iter().enumerate() {
            out[kept] = base + i as u32;
            kept += usize::from(keep(v));
        }
    } else {
        for k in 0..out.len() {
            let idx = out[k];
            out[kept] = idx;
            kept += usize::from(keep(col[(idx - base) as usize]));
        }
    }
    out.truncate(kept);
}

/// One conjunct of [`RowFilter::select_word`]: bit `i` set when `keep`
/// holds for `col[i]` (at most 64 values), without a branch per row.
/// Eight rows at a time, each outcome is one byte (0 or 1) of a word
/// that one multiplication gathers into eight bits.
#[inline]
fn word_pass(col: &[f64], keep: impl Fn(f64) -> bool) -> u64 {
    let mut groups = col.chunks_exact(8);
    let mut word = 0;
    for (g, group) in groups.by_ref().enumerate() {
        let bytes = u64::from_le_bytes(std::array::from_fn(|j| u8::from(keep(group[j]))));
        // Byte j (bit 8j) moves to bit 56 + j; no two partial
        // products overlap, so nothing carries into the top byte.
        word |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    let tail = col.len() - groups.remainder().len();
    for (j, &v) in groups.remainder().iter().enumerate() {
        word |= u64::from(keep(v)) << (tail + j);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_evaluate() {
        assert!(CmpOp::Gt.eval(2.0, 1.0));
        assert!(!CmpOp::Gt.eval(1.0, 1.0));
        assert!(CmpOp::Ge.eval(1.0, 1.0));
        assert!(CmpOp::Lt.eval(0.0, 1.0));
        assert!(CmpOp::Le.eval(1.0, 1.0));
        assert!(CmpOp::Eq.eval(3.0, 3.0));
        assert!(CmpOp::Ne.eval(3.0, 4.0));
        assert_eq!(CmpOp::Ge.symbol(), ">=");
    }

    #[test]
    fn conjunction_semantics() {
        let filter = RowFilter::new(vec![
            ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 10.0,
            },
            ColumnPredicate {
                column: 1,
                op: CmpOp::Eq,
                value: 2.0,
            },
        ]);
        assert!(filter.matches(&[11.0, 2.0]));
        assert!(!filter.matches(&[9.0, 2.0]));
        assert!(!filter.matches(&[11.0, 3.0]));
        assert_eq!(filter.max_column(), Some(1));
        assert!(!filter.is_trivial());
        assert!(RowFilter::all().matches(&[1.0]));
        assert!(RowFilter::all().is_trivial());
        assert_eq!(RowFilter::all().max_column(), None);
    }

    #[test]
    fn permuted_conjunctions_are_one_filter() {
        // Conjunction is commutative: the same conjuncts in any textual
        // order are the same predicate, so they must share equality,
        // fingerprint — and therefore every fingerprint-keyed cache
        // slot. (Regression: the order-sensitive fingerprint used to
        // split `a > 1 AND b < 2` from `b < 2 AND a > 1`.)
        let a = ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 1.0,
        };
        let b = ColumnPredicate {
            column: 1,
            op: CmpOp::Lt,
            value: 2.0,
        };
        let ab = RowFilter::new(vec![a, b]);
        let ba = RowFilter::new(vec![b, a]);
        assert_eq!(ab, ba, "permuted conjunctions compare equal");
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        // Same rows either way.
        assert!(ab.matches(&[2.0, 1.0]) && ba.matches(&[2.0, 1.0]));
        assert!(!ab.matches(&[0.0, 1.0]) && !ba.matches(&[0.0, 1.0]));
        // Canonicalization reorders but never drops or merges: a
        // duplicated conjunct stays a distinct (if redundant) entry.
        let dup = RowFilter::new(vec![a, a]);
        assert_eq!(dup.predicates().len(), 2);
        assert_ne!(dup.fingerprint(), RowFilter::new(vec![a]).fingerprint());
    }

    #[test]
    fn fingerprints_separate_distinct_filters() {
        let base = RowFilter::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            value: 10.0,
        }]);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let variants = [
            RowFilter::all(),
            RowFilter::new(vec![ColumnPredicate {
                column: 1,
                op: CmpOp::Gt,
                value: 10.0,
            }]),
            RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Ge,
                value: 10.0,
            }]),
            RowFilter::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::Gt,
                value: 11.0,
            }]),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }
}
