//! The query AST.

pub use isla_storage::CmpOp;

/// One textual `WHERE` conjunct: `column op literal`.
///
/// The executor resolves the column name against the table's
/// [`isla_storage::Schema`] and compiles the conjunction into an
/// [`isla_storage::RowFilter`] pushed down to the storage scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The filtered column's name.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: f64,
}

/// Aggregate functions the engine answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `AVG(col)` — the paper's primary target.
    Avg,
    /// `SUM(col)` — computed as `AVG × M` (paper Section I).
    Sum,
    /// `COUNT(*)` — exact from block metadata.
    Count,
    /// `MAX(col)` — leverage-guided sampled lower bound (paper §VII-D).
    Max,
    /// `MIN(col)` — leverage-guided sampled upper bound (paper §VII-D).
    Min,
}

/// Estimation methods selectable with `METHOD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// The paper's contribution (default).
    #[default]
    Isla,
    /// Uniform sampling.
    Us,
    /// Stratified sampling.
    Sts,
    /// Measure-biased on values.
    Mv,
    /// Measure-biased on values and boundaries.
    Mvb,
    /// Full-data algorithmic leveraging.
    Slev,
    /// Exact full scan (ground truth; refuses virtual blocks).
    Exact,
}

impl Method {
    /// Parses a method name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "ISLA" => Some(Method::Isla),
            "US" => Some(Method::Us),
            "STS" => Some(Method::Sts),
            "MV" => Some(Method::Mv),
            "MVB" => Some(Method::Mvb),
            "SLEV" => Some(Method::Slev),
            "EXACT" => Some(Method::Exact),
            _ => None,
        }
    }
}

/// A parsed aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The aggregate function.
    pub agg: AggFunc,
    /// Aggregated column (empty for `COUNT(*)`).
    pub column: String,
    /// Source table.
    pub table: String,
    /// `WHERE` conjuncts (empty when unfiltered).
    pub predicates: Vec<Predicate>,
    /// `GROUP BY` column, when grouping.
    pub group_by: Option<String>,
    /// Desired precision `e` (`WITH PRECISION e`).
    pub precision: Option<f64>,
    /// Confidence `β` (`CONFIDENCE β`), defaulting to 0.95 downstream.
    pub confidence: Option<f64>,
    /// Estimation method, defaulting to ISLA.
    pub method: Method,
    /// Whether the statement named its method (`METHOD …`). A default
    /// query may be answered from block metadata where that is exact; a
    /// named `METHOD ISLA` always runs the paper's pilots and
    /// Algorithms 1–2.
    pub method_named: bool,
    /// Explicit sample budget (`SAMPLES n`), required by baselines when
    /// no precision is given.
    pub samples: Option<u64>,
    /// Time constraint in milliseconds (`WITHIN t MS`, paper §VII-F).
    pub within_ms: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip() {
        assert_eq!(Method::from_name("isla"), Some(Method::Isla));
        assert_eq!(Method::from_name("US"), Some(Method::Us));
        assert_eq!(Method::from_name("sts"), Some(Method::Sts));
        assert_eq!(Method::from_name("Mv"), Some(Method::Mv));
        assert_eq!(Method::from_name("MVB"), Some(Method::Mvb));
        assert_eq!(Method::from_name("slev"), Some(Method::Slev));
        assert_eq!(Method::from_name("EXACT"), Some(Method::Exact));
        assert_eq!(Method::from_name("nope"), None);
        assert_eq!(Method::default(), Method::Isla);
    }
}
