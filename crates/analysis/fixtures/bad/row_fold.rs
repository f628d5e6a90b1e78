//! Known-bad fixture: per-row predicate tests in engine folds.

pub fn fold(rows: &[Vec<f64>], spec: &RowSpec, sum: &mut f64) {
    for row in rows {
        if spec.filter.matches(row) {
            *sum += row[spec.agg_column];
        }
    }
}

pub fn count(rows: &[Vec<f64>], filter: &RowFilter) -> usize {
    rows.iter().filter(|row| RowFilter::matches(filter, row)).count()
}
