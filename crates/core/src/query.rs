//! Queries as Map/Reduce decompositions.
//!
//! UPA requires only that a query be expressed as a **mapper** applied
//! independently per record, a **commutative and associative reducer**
//! over the mapped values, and a final output projection. That is exactly
//! the contract MapReduce frameworks already impose on user code to enable
//! parallelism and fault tolerance (paper §II-C) — which is the paper's key
//! observation.

use crate::output::DpOutput;
use dataflow::Data;
use std::sync::Arc;

/// Shared handle to a query mapper `M : T → Acc`.
pub type MapFn<T, Acc> = Arc<dyn Fn(&T) -> Acc + Send + Sync>;
/// Shared handle to a commutative, associative reducer `R`.
pub type ReduceFn<Acc> = Arc<dyn Fn(&Acc, &Acc) -> Acc + Send + Sync>;
/// Shared handle to the output projection `finalize`.
pub type FinalizeFn<Acc, Out> = Arc<dyn Fn(Option<&Acc>) -> Out + Send + Sync>;
/// Shared handle to a stable half key (see
/// [`MapReduceQuery::with_half_key`]).
pub type HalfKeyFn<T> = Arc<dyn Fn(&T) -> u64 + Send + Sync>;
/// Shared handle to a fused slice-fold kernel (see
/// [`MapReduceQuery::with_slice_fold`]). Arguments: the record run, the
/// physical half for queries without a half key, and the two per-half
/// accumulators to fold into.
pub type SliceFoldFn<T, Acc> = Arc<dyn Fn(&[T], usize, &mut [Option<Acc>; 2]) + Send + Sync>;

/// A query `f = finalize ∘ R ∘ M` over records of type `T`.
///
/// * `M : T → Acc` (the mapper, applied per record);
/// * `R : Acc × Acc → Acc` (the reducer — **must** be commutative and
///   associative; the engine and UPA both rely on it);
/// * `finalize : Option<Acc> → Out` (output projection — e.g. the model
///   update step of Linear Regression; receives `None` for an empty
///   dataset).
///
/// Cloning is cheap: the closures are shared through `Arc`s.
pub struct MapReduceQuery<T, Acc, Out> {
    name: String,
    map: MapFn<T, Acc>,
    reduce: ReduceFn<Acc>,
    finalize: FinalizeFn<Acc, Out>,
    half_key: Option<HalfKeyFn<T>>,
    slice_fold: Option<SliceFoldFn<T, Acc>>,
}

impl<T, Acc, Out> Clone for MapReduceQuery<T, Acc, Out> {
    fn clone(&self) -> Self {
        MapReduceQuery {
            name: self.name.clone(),
            map: Arc::clone(&self.map),
            reduce: Arc::clone(&self.reduce),
            finalize: Arc::clone(&self.finalize),
            half_key: self.half_key.clone(),
            slice_fold: self.slice_fold.clone(),
        }
    }
}

impl<T, Acc, Out> std::fmt::Debug for MapReduceQuery<T, Acc, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapReduceQuery")
            .field("name", &self.name)
            .finish()
    }
}

impl<T: Data, Acc: Data, Out: DpOutput> MapReduceQuery<T, Acc, Out> {
    /// Creates a query from its three components.
    pub fn new(
        name: impl Into<String>,
        map: impl Fn(&T) -> Acc + Send + Sync + 'static,
        reduce: impl Fn(&Acc, &Acc) -> Acc + Send + Sync + 'static,
        finalize: impl Fn(Option<&Acc>) -> Out + Send + Sync + 'static,
    ) -> Self {
        MapReduceQuery {
            name: name.into(),
            map: Arc::new(map),
            reduce: Arc::new(reduce),
            finalize: Arc::new(finalize),
            half_key: None,
            slice_fold: None,
        }
    }

    /// Attaches a **stable half key**: a content-derived key whose low bit
    /// assigns each record to one of RANGE ENFORCER's two logical dataset
    /// partitions `x1`/`x2` (the paper's `D1`/`D2`).
    ///
    /// The paper's enforcer compares a query's outputs on the two halves
    /// against previous queries to recognise a repeat on a *neighbouring*
    /// dataset. That comparison is only meaningful if a record keeps its
    /// half when other records are added or removed, so the assignment
    /// must depend on record **content** (a natural key such as
    /// `suppkey`, or a hash of the feature bits), not on physical
    /// position. Queries without a half key fall back to physical
    /// partition halves, which still enforce the output range but can
    /// miss repeats whose layout shifted.
    pub fn with_half_key(mut self, key: impl Fn(&T) -> u64 + Send + Sync + 'static) -> Self {
        self.half_key = Some(Arc::new(key));
        self
    }

    /// The stable half key, if one is attached.
    pub fn half_key(&self) -> Option<&HalfKeyFn<T>> {
        self.half_key.as_ref()
    }

    /// Attaches a **fused slice-fold kernel**: a monomorphic loop that
    /// folds an uninterrupted run of records into the two per-half
    /// accumulators in one call, instead of paying three dynamic
    /// dispatches (`half_key`, `map`, `reduce`) per record.
    ///
    /// The columnar prepare path calls the kernel once per run between
    /// sampled rows; every other path (and any run the kernel is absent
    /// for) goes through the generic closures, so the kernel is purely
    /// an optimisation hook.
    ///
    /// **Contract:** `kernel(slice, phys_half, acc)` must leave `acc`
    /// exactly as the generic composition would — for each record in
    /// order, pick half `h` as `half_key(x) % 2` (or `phys_half` when
    /// the query has no half key), then fold `map(x)` into `acc[h]`
    /// with `reduce` as a left fold. Only the order *within* a half is
    /// fixed: the two halves' folds are independent, so a kernel may
    /// route records by half and interleave the two chains (the
    /// server's sum/mean/count kernel walks a 64-record parity mask
    /// and keeps both sums in registers), and may replace repeated
    /// adds by one add where that is exact. Same operations per half,
    /// same order per half: bit-identical floating-point results, up to
    /// the sign and payload of a NaN, which Rust leaves unspecified. A
    /// kernel that disagrees silently changes released values, so pair
    /// every kernel with an equivalence test against
    /// [`MapReduceQuery::fold_run_generic`].
    pub fn with_slice_fold(
        mut self,
        kernel: impl Fn(&[T], usize, &mut [Option<Acc>; 2]) + Send + Sync + 'static,
    ) -> Self {
        self.slice_fold = Some(Arc::new(kernel));
        self
    }

    /// The fused slice-fold kernel, if one is attached.
    pub fn slice_fold(&self) -> Option<&SliceFoldFn<T, Acc>> {
        self.slice_fold.as_ref()
    }

    /// Folds a record run through the generic closures — the reference
    /// semantics every [`MapReduceQuery::with_slice_fold`] kernel must
    /// reproduce bit for bit.
    pub fn fold_run_generic(&self, slice: &[T], phys_half: usize, acc: &mut [Option<Acc>; 2]) {
        for v in slice {
            let h = match self.half_key() {
                Some(hk) => (hk(v) % 2) as usize,
                None => phys_half,
            };
            let m = self.map(v);
            match &mut acc[h] {
                Some(a) => *a = self.reduce(a, &m),
                None => acc[h] = Some(m),
            }
        }
    }

    /// Folds a record run into `acc`, through the fused kernel when one
    /// is attached and the generic closures otherwise.
    pub fn fold_run(&self, slice: &[T], phys_half: usize, acc: &mut [Option<Acc>; 2]) {
        match &self.slice_fold {
            Some(kernel) => kernel(slice, phys_half, acc),
            None => self.fold_run_generic(slice, phys_half, acc),
        }
    }

    /// The query name (used in reports and benchmark output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies the mapper to one record.
    pub fn map(&self, record: &T) -> Acc {
        (self.map)(record)
    }

    /// Combines two accumulators with the reducer.
    pub fn reduce(&self, a: &Acc, b: &Acc) -> Acc {
        (self.reduce)(a, b)
    }

    /// Merges two optional partial reductions.
    pub fn merge_opt(&self, a: Option<Acc>, b: Option<Acc>) -> Option<Acc> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.reduce(&a, &b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Merges two optional partial reductions **by reference**, cloning
    /// only when a single side is present. The pipeline's prefix/suffix
    /// reuse calls this O(n) times per release, so avoiding an
    /// accumulator clone per merge matters for vector-valued queries
    /// (histograms, gradient accumulators).
    pub fn merge_ref(&self, a: Option<&Acc>, b: Option<&Acc>) -> Option<Acc> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.reduce(a, b)),
            (Some(a), None) => Some(a.clone()),
            (None, b) => b.cloned(),
        }
    }

    /// Projects a final reduction to the query output.
    pub fn finalize(&self, acc: Option<&Acc>) -> Out {
        (self.finalize)(acc)
    }

    /// Reduces a slice of accumulators left to right.
    pub fn reduce_all(&self, accs: &[Acc]) -> Option<Acc> {
        let mut it = accs.iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |a, b| self.reduce(&a, b)))
    }

    /// Evaluates the query sequentially over a record slice — the
    /// reference semantics used by tests and the brute-force ground truth.
    pub fn evaluate_slice(&self, records: &[T]) -> Out {
        let mut acc: Option<Acc> = None;
        for r in records {
            let m = self.map(r);
            acc = Some(match acc {
                Some(a) => self.reduce(&a, &m),
                None => m,
            });
        }
        self.finalize(acc.as_ref())
    }

    /// A shared handle to the mapper, for handing to engine stages.
    pub fn mapper(&self) -> MapFn<T, Acc> {
        Arc::clone(&self.map)
    }

    /// A shared handle to the reducer, for handing to engine stages.
    pub fn reducer(&self) -> ReduceFn<Acc> {
        Arc::clone(&self.reduce)
    }
}

impl<T: Data> MapReduceQuery<T, f64, f64> {
    /// Convenience constructor for scalar SUM-style queries: the reducer
    /// is `+` and the output is the sum itself (`0` for an empty input).
    /// Counting queries are sums of per-record indicator values.
    pub fn scalar_sum(
        name: impl Into<String>,
        map: impl Fn(&T) -> f64 + Send + Sync + 'static,
    ) -> Self {
        MapReduceQuery::new(name, map, |a, b| a + b, |acc| acc.copied().unwrap_or(0.0))
    }
}

impl<T: Data> MapReduceQuery<T, Vec<f64>, Vec<f64>> {
    /// A histogram query: per-bucket counts as a vector output, so UPA
    /// infers a per-bucket sensitivity and adds per-bucket noise — the
    /// classic DP histogram, expressed as a Map/Reduce decomposition.
    /// Records for which `bucket_of` returns `None` (or an out-of-range
    /// index) count toward no bucket.
    pub fn histogram(
        name: impl Into<String>,
        bins: usize,
        bucket_of: impl Fn(&T) -> Option<usize> + Send + Sync + 'static,
    ) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        MapReduceQuery::new(
            name,
            move |t: &T| {
                let mut counts = vec![0.0; bins];
                if let Some(b) = bucket_of(t) {
                    if b < bins {
                        counts[b] = 1.0;
                    }
                }
                counts
            },
            |a: &Vec<f64>, b: &Vec<f64>| a.iter().zip(b).map(|(x, y)| x + y).collect(),
            move |acc: Option<&Vec<f64>>| acc.cloned().unwrap_or_else(|| vec![0.0; bins]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sum_counts() {
        let q =
            MapReduceQuery::scalar_sum("count_even", |x: &i64| if x % 2 == 0 { 1.0 } else { 0.0 });
        let data: Vec<i64> = (0..10).collect();
        assert_eq!(q.evaluate_slice(&data), 5.0);
        assert_eq!(q.evaluate_slice(&[]), 0.0);
        assert_eq!(q.name(), "count_even");
    }

    #[test]
    fn vector_query_with_finalize() {
        // Mean vector: accumulate (sum, count), finalize divides.
        let q: MapReduceQuery<Vec<f64>, (Vec<f64>, u64), Vec<f64>> = MapReduceQuery::new(
            "mean_vec",
            |rec: &Vec<f64>| (rec.clone(), 1u64),
            |a, b| {
                (
                    a.0.iter().zip(b.0.iter()).map(|(x, y)| x + y).collect(),
                    a.1 + b.1,
                )
            },
            |acc| match acc {
                Some((sum, n)) => sum.iter().map(|s| s / *n as f64).collect(),
                None => Vec::new(),
            },
        );
        let data = vec![vec![1.0, 10.0], vec![3.0, 30.0]];
        assert_eq!(q.evaluate_slice(&data), vec![2.0, 20.0]);
    }

    #[test]
    fn merge_opt_handles_absence() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| *x);
        assert_eq!(q.merge_opt(None, None), None);
        assert_eq!(q.merge_opt(Some(1.0), None), Some(1.0));
        assert_eq!(q.merge_opt(None, Some(2.0)), Some(2.0));
        assert_eq!(q.merge_opt(Some(1.0), Some(2.0)), Some(3.0));
    }

    #[test]
    fn merge_ref_matches_merge_opt() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| *x);
        assert_eq!(q.merge_ref(None, None), None);
        assert_eq!(q.merge_ref(Some(&1.0), None), Some(1.0));
        assert_eq!(q.merge_ref(None, Some(&2.0)), Some(2.0));
        assert_eq!(q.merge_ref(Some(&1.0), Some(&2.0)), Some(3.0));
    }

    #[test]
    fn reduce_all_matches_iterated_reduce() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| *x);
        assert_eq!(q.reduce_all(&[1.0, 2.0, 3.0]), Some(6.0));
        assert_eq!(q.reduce_all(&[]), None);
    }

    #[test]
    fn clone_shares_closures() {
        let q = MapReduceQuery::scalar_sum("sum", |x: &f64| *x);
        let q2 = q.clone();
        assert_eq!(q2.evaluate_slice(&[1.0, 2.0]), 3.0);
        assert_eq!(q2.name(), "sum");
    }

    #[test]
    fn histogram_counts_buckets() {
        let q = MapReduceQuery::histogram("ages", 3, |age: &f64| Some((*age as usize) / 30));
        let data = vec![5.0, 25.0, 35.0, 65.0, 95.0];
        // Buckets: [0,30) -> 2, [30,60) -> 1, [60,90) -> 1; 95 maps to
        // bucket 3 which is out of range and dropped.
        assert_eq!(q.evaluate_slice(&data), vec![2.0, 1.0, 1.0]);
        assert_eq!(q.evaluate_slice(&[]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn histogram_none_counts_nowhere() {
        let q =
            MapReduceQuery::histogram(
                "opt",
                2,
                |x: &i64| {
                    if *x >= 0 {
                        Some(*x as usize % 2)
                    } else {
                        None
                    }
                },
            );
        assert_eq!(q.evaluate_slice(&[-5, 0, 1, 2]), vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = MapReduceQuery::histogram("bad", 0, |_: &f64| Some(0));
    }
}
