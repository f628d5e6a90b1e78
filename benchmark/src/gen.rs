//! Seeded inputs and the independent oracle.
//!
//! The program under test sees only the generated columns and SQL text.
//! Reference answers come from plain loops over those columns, never
//! from the program's own `METHOD EXACT`.

/// splitmix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator's own PRNG (a splitmix64 stream), so the inputs are a
/// pure function of the seed that no crate of the program can change.
struct Uniform(u64);

impl Uniform {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Uniform in `[0, 1)` from 53 mantissa bits.
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.0, 0) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Box–Muller normals over [`Uniform`].
struct Normals {
    rng: Uniform,
    spare: Option<f64>,
}

impl Normals {
    fn new(seed: u64) -> Self {
        Self {
            rng: Uniform::new(seed),
            spare: None,
        }
    }

    fn unit(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1 = 1.0 - self.rng.next(); // (0, 1]
        let u2 = self.rng.next();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
        self.spare = Some(r * s);
        r * c
    }

    fn next(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.unit()
    }
}

/// `trips(distance, fare, tip)`: distance ~ N(100, 20²), fare a linear
/// function of it, tip ~ Exp(mean 3) (heavy right tail).
pub struct Trips {
    pub distance: Vec<f64>,
    pub fare: Vec<f64>,
    pub tip: Vec<f64>,
}

impl Trips {
    pub const COLUMNS: [&'static str; 3] = ["distance", "fare", "tip"];

    pub fn generate(rows: usize, seed: u64) -> Self {
        let mut normals = Normals::new(mix(seed, 1));
        let mut tips = Uniform::new(mix(seed, 2));
        let distance: Vec<f64> = (0..rows).map(|_| normals.next(100.0, 20.0)).collect();
        let fare = distance.iter().map(|d| 2.5 * d + 3.0).collect();
        let tip = (0..rows).map(|_| -3.0 * (1.0 - tips.next()).ln()).collect();
        Self {
            distance,
            fare,
            tip,
        }
    }

    pub fn column(&self, name: &str) -> &[f64] {
        match name {
            "distance" => &self.distance,
            "fare" => &self.fare,
            "tip" => &self.tip,
            other => panic!("trips has no column {other}"),
        }
    }

    pub fn columns(&self) -> Vec<(&'static str, &[f64])> {
        Self::COLUMNS
            .iter()
            .map(|&name| (name, self.column(name)))
            .collect()
    }
}

/// `sales(amount, margin, store, ts)`: amount ~ N(50, 10²); margin
/// correlated with it (so a margin predicate selects uniformly across
/// blocks yet shifts the filtered mean); store ∈ {0, 1} skewed 2:1
/// (groups); ts = row index (range-partitioned, zone-map prunable).
#[derive(Default)]
pub struct Sales {
    pub amount: Vec<f64>,
    pub margin: Vec<f64>,
    pub store: Vec<f64>,
    pub ts: Vec<f64>,
}

impl Sales {
    pub const COLUMNS: [&'static str; 4] = ["amount", "margin", "store", "ts"];
    pub const CATEGORICAL: [&'static str; 1] = ["store"];

    pub fn generate(rows: usize, seed: u64) -> Self {
        let mut normals = Normals::new(mix(seed, 3));
        let mut sales = Sales::default();
        for i in 0..rows {
            let amount = normals.next(50.0, 10.0);
            sales.amount.push(amount);
            sales.margin.push(0.5 * amount + normals.next(0.0, 5.0));
            sales.store.push(f64::from(u8::from(i % 3 == 0)));
            sales.ts.push(i as f64);
        }
        sales
    }

    pub fn column(&self, name: &str) -> &[f64] {
        match name {
            "amount" => &self.amount,
            "margin" => &self.margin,
            "store" => &self.store,
            "ts" => &self.ts,
            other => panic!("sales has no column {other}"),
        }
    }

    /// Columns restricted to the first `rows` rows (the base table; the
    /// tail feeds the ingest batches).
    pub fn columns(&self, rows: usize) -> Vec<(&'static str, &[f64])> {
        Self::COLUMNS
            .iter()
            .map(|&name| (name, &self.column(name)[..rows]))
            .collect()
    }

    /// Rows `range` as owned tuples, the shape the ingest call takes.
    pub fn rows(&self, range: std::ops::Range<usize>) -> Vec<Vec<f64>> {
        range
            .map(|i| vec![self.amount[i], self.margin[i], self.store[i], self.ts[i]])
            .collect()
    }
}

/// Running exact aggregate of one value population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub count: u64,
    pub sum: f64,
    pub sumsq: f64,
    pub max: f64,
}

impl Default for Stat {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Stat {
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sumsq += v * v;
        self.max = self.max.max(v);
    }

    pub fn merged(self, other: Stat) -> Stat {
        Stat {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            sumsq: self.sumsq + other.sumsq,
            max: self.max.max(other.max),
        }
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    pub fn std_dev(&self) -> f64 {
        let m = self.mean();
        (self.sumsq / self.count as f64 - m * m).max(0.0).sqrt()
    }

    pub fn of(values: &[f64]) -> Stat {
        let mut s = Stat::default();
        for &v in values {
            s.push(v);
        }
        s
    }
}

/// `amount` aggregates of the matching rows, split by `store`.
pub type ByStore = [Stat; 2];

/// The predicate columns the workloads filter on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredCol {
    Margin,
    Ts,
}

impl PredCol {
    pub fn name(self) -> &'static str {
        match self {
            PredCol::Margin => "margin",
            PredCol::Ts => "ts",
        }
    }
}

/// `WHERE <col> > <gt>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pred {
    pub col: PredCol,
    pub gt: f64,
}

/// Folds rows `range` of `sales` into `into` — the whole oracle for
/// fixed shapes, and its incremental step for `ingest_mixed`.
pub fn sales_scan(
    sales: &Sales,
    range: std::ops::Range<usize>,
    pred: Option<Pred>,
    into: &mut ByStore,
) {
    let pcol = pred.map(|p| sales.column(p.col.name()));
    for i in range {
        if let (Some(p), Some(col)) = (pred, pcol) {
            if col[i] <= p.gt {
                continue;
            }
        }
        into[sales.store[i] as usize].push(sales.amount[i]);
    }
}

/// Answers `WHERE col > t` for *any* `t` from one sort: rows ordered by
/// `col` descending, with running per-store aggregates, so the many
/// unique-literal queries of `adhoc_cold` need no per-query scan.
pub struct ThresholdIndex {
    /// Predicate-column values, descending.
    keys: Vec<f64>,
    /// `prefix[k]` aggregates the `k` rows with the largest keys.
    prefix: Vec<ByStore>,
}

impl ThresholdIndex {
    pub fn build(sales: &Sales, rows: usize, col: PredCol) -> Self {
        let values = &sales.column(col.name())[..rows];
        let mut order: Vec<u32> = (0..rows as u32).collect();
        order.sort_by(|&a, &b| values[b as usize].total_cmp(&values[a as usize]));
        let mut keys = Vec::with_capacity(rows);
        let mut prefix = Vec::with_capacity(rows + 1);
        let mut acc = ByStore::default();
        prefix.push(acc);
        for &i in &order {
            let i = i as usize;
            keys.push(values[i]);
            acc[sales.store[i] as usize].push(sales.amount[i]);
            prefix.push(acc);
        }
        Self { keys, prefix }
    }

    pub fn above(&self, t: f64) -> ByStore {
        let k = self.keys.partition_point(|&v| v > t);
        self.prefix[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = Sales::generate(1_000, 7);
        let b = Sales::generate(1_000, 7);
        let c = Sales::generate(1_000, 8);
        assert_eq!(a.amount, b.amount);
        assert_eq!(a.margin, b.margin);
        assert_ne!(a.amount, c.amount);
        assert_eq!(a.ts[999], 999.0);
        let ones = a.store.iter().filter(|&&s| s == 1.0).count();
        assert_eq!(ones, 334);
        let t = Trips::generate(20_000, 7);
        let d = Stat::of(&t.distance);
        assert!((d.mean() - 100.0).abs() < 1.0 && (d.std_dev() - 20.0).abs() < 1.0);
        assert!((Stat::of(&t.tip).mean() - 3.0).abs() < 0.2);
        assert_eq!(t.fare[5], 2.5 * t.distance[5] + 3.0);
    }

    #[test]
    fn running_aggregates_equal_one_shot_aggregates() {
        let sales = Sales::generate(3_000, 11);
        let pred = Some(Pred {
            col: PredCol::Margin,
            gt: 25.0,
        });
        let mut whole = ByStore::default();
        sales_scan(&sales, 0..3_000, pred, &mut whole);
        let mut stepped = ByStore::default();
        for start in (0..3_000).step_by(700) {
            sales_scan(&sales, start..(start + 700).min(3_000), pred, &mut stepped);
        }
        for g in 0..2 {
            assert_eq!(whole[g].count, stepped[g].count);
            assert_eq!(whole[g].max, stepped[g].max);
            assert!((whole[g].sum - stepped[g].sum).abs() < 1e-6);
        }
        // Brute force, written differently.
        let brute: f64 = (0..3_000)
            .filter(|&i| sales.margin[i] > 25.0 && sales.store[i] == 1.0)
            .map(|i| sales.amount[i])
            .sum();
        assert!((whole[1].sum - brute).abs() < 1e-6);
        assert!(whole[0].count + whole[1].count < 3_000);
    }

    #[test]
    fn threshold_index_agrees_with_the_scan() {
        let sales = Sales::generate(2_000, 5);
        for col in [PredCol::Margin, PredCol::Ts] {
            let index = ThresholdIndex::build(&sales, 2_000, col);
            for gt in [-1e9, 10.0, 24.5, 25.0, 700.0, 1_999.0, 1e9] {
                let mut scan = ByStore::default();
                sales_scan(&sales, 0..2_000, Some(Pred { col, gt }), &mut scan);
                let fast = index.above(gt);
                for g in 0..2 {
                    assert_eq!(fast[g].count, scan[g].count, "{col:?} > {gt}");
                    assert_eq!(fast[g].max, scan[g].max);
                    assert!((fast[g].sum - scan[g].sum).abs() <= 1e-9 * scan[g].sum.abs());
                }
            }
        }
    }

    #[test]
    fn stat_moments() {
        let s = Stat::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
        let m = s.merged(Stat::of(&[10.0]));
        assert_eq!((m.count, m.max, m.sum), (5, 10.0, 20.0));
    }
}
