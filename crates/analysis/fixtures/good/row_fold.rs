//! Known-good fixture: batch selection, the `matches!` macro, and
//! per-row tests in test code.

pub fn fold(buf: &mut RowSampleBuf, spec: &RowSpec, sum: &mut f64) {
    let width = buf.width();
    let (rows, selected, _) = buf.select(&spec.filter, 0);
    for &i in selected {
        *sum += rows[i as usize * width + spec.agg_column];
    }
}

pub fn is_trivial(spec: &RowSpec) -> bool {
    matches!(spec.group_by, None) && spec.filter.is_trivial()
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_reference_tests_rows_one_at_a_time() {
        assert!(RowFilter::all().matches(&[1.0]));
    }
}
