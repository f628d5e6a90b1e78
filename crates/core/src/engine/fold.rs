//! The row fold: the one path every row-model phase reads rows through.
//!
//! The Calculation phase, the row pilots (one-shot and epoch-segment,
//! strict and best-effort, and the `WITHIN` probe that times them), the
//! hit-rate pilot and the exact grouped scan all fold rows the same
//! way, a batch at a time:
//!
//! 1. **batch** — a gathered sample batch (row-major tuples, in draw
//!    order) or a scan chunk (column slices, in row order);
//! 2. **select** — the rows matching the filter, by the branch-free
//!    conjunct passes of [`isla_storage::RowFilter::select`] (scan
//!    chunks) / [`isla_storage::RowSampleBuf::select`] (sample batches);
//! 3. **route** — each selected row to its group, by a lower
//!    bound over the sorted group keys whose steps depend on the key
//!    count alone ([`GroupKeys::route`]);
//! 4. **fold** — each group's rows into that group's state, in batch
//!    order: the Calculation phase stages each group's values in a lane
//!    and folds the lane with `offer_slice`; the value-at-a-time folds —
//!    Welford for the pilots, a compensated sum for exact scans, a count
//!    for hit rates — fold each routed row into its group's state
//!    directly ([`Groups`]).
//!
//! Each group sees its rows in batch order, so every value reaches its
//! group's state in the order the per-row loop delivered it; the drawn,
//! matched and offered counts are sums. The answers, the RNG
//! stream and `samples_used` are therefore the per-row loop's, bit for
//! bit (pinned by `tests/kernel_identity.rs`).

use std::hint::select_unpredictable;

use isla_storage::RowSampleBuf;

use super::rows::RowSpec;

/// The key of every row of an ungrouped spec ([`RowSpec::group_key`]).
pub(crate) const UNGROUPED_KEY: u64 = 0;

/// Group keys (value bit patterns), ascending and distinct, with a
/// branch-free lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct GroupKeys(Vec<u64>);

impl GroupKeys {
    /// Keys already ascending and distinct (a plan's groups).
    pub(crate) fn new(sorted: Vec<u64>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        Self(sorted)
    }

    /// The number of keys — and the route of a key that is not one.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The position of `key`, or [`GroupKeys::len`] when it is not one
    /// of the keys. A lower bound that halves the range by a conditional
    /// move, so the number of steps depends on the key count alone and
    /// no step branches on the data. (`select_unpredictable` is what
    /// keeps the moves: written as arithmetic, the selects compiled to
    /// branches, and routing two groups split 2:1 cost more than the
    /// binary search it replaces.)
    #[inline]
    pub(crate) fn route(&self, key: u64) -> usize {
        let keys = self.0.as_slice();
        if keys.is_empty() {
            return 0;
        }
        // `base` is the last position whose key is ≤ `key` (or 0).
        let (mut base, mut size) = (0, keys.len());
        while size > 1 {
            let half = size / 2;
            base = select_unpredictable(keys[base + half] <= key, base + half, base);
            size -= half;
        }
        select_unpredictable(keys[base] == key, base, keys.len())
    }

    /// The position of `key`, when it is one of the keys.
    pub(crate) fn index(&self, key: u64) -> Option<usize> {
        Some(self.route(key)).filter(|&at| at < self.len())
    }

    /// Adds `key`, which must not be one of the keys yet, at its sorted
    /// position, and returns that position.
    fn insert(&mut self, key: u64) -> usize {
        let at = self.0.partition_point(|&k| k < key);
        self.0.insert(at, key);
        at
    }
}

/// Stages `value_of(i)` for every row `i` of `rows`, in order, in the
/// lane of its key's group: lane `keys.len()` collects the rows whose
/// key is none of `keys`. Ungrouped rows (`key_of` is `None`) all share
/// [`UNGROUPED_KEY`], looked up once. Returns whether the unknown-key
/// lane stayed empty.
#[inline]
pub(crate) fn stage(
    keys: &GroupKeys,
    rows: impl Iterator<Item = usize>,
    key_of: Option<impl Fn(usize) -> u64>,
    value_of: impl Fn(usize) -> f64,
    lanes: &mut [Vec<f64>],
) -> bool {
    match key_of {
        Some(key_of) => rows.for_each(|i| lanes[keys.route(key_of(i))].push(value_of(i))),
        None => lanes[keys.route(UNGROUPED_KEY)].extend(rows.map(value_of)),
    }
    lanes[keys.len()].is_empty()
}

/// The group key (`None` when ungrouped) and the aggregated value of
/// tuple `i` of a row-major batch of `spec`'s `width`-wide tuples.
pub(crate) fn tuple_fields<'a>(
    spec: &RowSpec,
    rows: &'a [f64],
    width: usize,
) -> (
    Option<impl Fn(usize) -> u64 + 'a>,
    impl Fn(usize) -> f64 + 'a,
) {
    let agg = spec.agg_column;
    (
        spec.group_by
            .map(|c| move |i: usize| rows[i * width + c].to_bits()),
        move |i| rows[i * width + agg],
    )
}

/// Per-group states under keys discovered as rows arrive — the pilots',
/// the grouped hit rate's and the exact scan's fold target. These folds
/// take one value at a time (Welford, a compensated sum, a count), so
/// a routed row folds straight into its group's state; no lane is
/// staged.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Groups<S> {
    keys: GroupKeys,
    states: Vec<S>,
}

impl<S: Default> Groups<S> {
    /// Folds `value_of(i)` for every row `i` of `rows` into its key's
    /// group with `fold`, each group's rows in order. One routed pass
    /// serves the known keys; a row whose key is new folds into a
    /// scratch state past the last group and is counted, and only then
    /// does a second pass add the new keys and fold their rows, in
    /// order. A key is new once per fold, so the second pass is rare.
    /// Ungrouped rows (`key_of` is `None`) all belong to one group.
    pub(crate) fn fold(
        &mut self,
        mut rows: impl Iterator<Item = usize> + Clone,
        key_of: Option<impl Fn(usize) -> u64>,
        value_of: impl Fn(usize) -> f64,
        mut fold: impl FnMut(&mut S, f64),
    ) {
        let Some(key_of) = key_of else {
            if let Some(first) = rows.next() {
                let state = self.state(UNGROUPED_KEY);
                fold(state, value_of(first));
                rows.for_each(|i| fold(state, value_of(i)));
            }
            return;
        };
        let n = self.keys.len();
        self.states.push(S::default());
        let mut unknown = 0;
        for i in rows.clone() {
            let g = self.keys.route(key_of(i));
            unknown += usize::from(g == n);
            fold(&mut self.states[g], value_of(i));
        }
        self.states.pop();
        if unknown > 0 {
            let known = self.keys.clone();
            for i in rows.filter(|&i| known.index(key_of(i)).is_none()) {
                fold(self.state(key_of(i)), value_of(i));
            }
        }
    }

    /// The state of group `key`, added (default) when new.
    fn state(&mut self, key: u64) -> &mut S {
        let at = match self.keys.index(key) {
            Some(at) => at,
            None => {
                let at = self.keys.insert(key);
                self.states.insert(at, S::default());
                at
            }
        };
        &mut self.states[at]
    }

    /// Folds the selected rows of a sample batch: selects with
    /// `spec.filter` and folds as [`Groups::fold`]. Returns the batch's
    /// drawn and matched row counts.
    pub(crate) fn fold_batch(
        &mut self,
        spec: &RowSpec,
        buf: &mut RowSampleBuf,
        fold: impl FnMut(&mut S, f64),
    ) -> (u64, u64) {
        let width = buf.width();
        let (rows, selected, _) = buf.select(&spec.filter, 0);
        let (key_of, value_of) = tuple_fields(spec, rows, width);
        self.fold(selected.iter().map(|&i| i as usize), key_of, value_of, fold);
        let drawn = rows.len().checked_div(width).unwrap_or(0);
        (drawn as u64, selected.len() as u64)
    }

    /// The groups, ascending by key.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &S)> {
        self.keys.0.iter().copied().zip(&self.states)
    }

    /// The number of groups.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_find_every_key_and_send_the_rest_past_the_end() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 300] {
            // Spaced keys, so the gaps between them are unplanned.
            let keys: Vec<u64> = (0..n as u64).map(|k| 3 * k + 1).collect();
            let router = GroupKeys::new(keys.clone());
            for probe in 0..3 * n as u64 + 3 {
                let want = keys.binary_search(&probe).unwrap_or(n);
                assert_eq!(router.route(probe), want, "{n} keys, probe {probe}");
            }
            assert_eq!(router.route(u64::MAX), n);
        }
    }

    #[test]
    fn float_keys_route_by_bit_pattern() {
        let bits = [
            0f64.to_bits(),
            (-0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 1,
            f64::INFINITY.to_bits(),
        ];
        let mut sorted = bits.to_vec();
        sorted.sort_unstable();
        let router = GroupKeys::new(sorted.clone());
        for b in bits {
            assert_eq!(router.index(b), sorted.iter().position(|&k| k == b));
        }
        assert_eq!(router.index(1f64.to_bits()), None);
    }

    #[test]
    fn discovered_groups_fold_in_row_order() {
        let keys = [5u64, 2, 5, 9, 2, 2];
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut groups: Groups<Vec<f64>> = Groups::default();
        let fold = |s: &mut Vec<f64>, v: f64| s.push(v);
        let key_of = Some(|i: usize| keys[i]);
        // Known keys fold in the first pass, new ones in the second.
        groups.fold(0..2, key_of, |i| values[i], fold);
        groups.fold(2..keys.len(), key_of, |i| values[i], fold);
        let got: Vec<(u64, Vec<f64>)> = groups.iter().map(|(k, s)| (k, s.clone())).collect();
        assert_eq!(
            got,
            vec![
                (2, vec![2.0, 5.0, 6.0]),
                (5, vec![1.0, 3.0]),
                (9, vec![4.0])
            ]
        );
        // Ungrouped rows fold straight into the one group, in order.
        let mut ungrouped: Groups<Vec<f64>> = Groups::default();
        let none = None::<fn(usize) -> u64>;
        ungrouped.fold(0..0, none, |i| values[i], fold);
        assert_eq!(ungrouped.len(), 0, "no row, no group");
        ungrouped.fold(1..4, none, |i| values[i], fold);
        let got: Vec<(u64, Vec<f64>)> = ungrouped.iter().map(|(k, s)| (k, s.clone())).collect();
        assert_eq!(got, vec![(UNGROUPED_KEY, vec![2.0, 3.0, 4.0])]);
    }
}
