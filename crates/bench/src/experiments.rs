//! The six experiments of the paper's evaluation (§VI), as callable
//! functions. Each prints the paper's reference claim next to measured
//! values so a reader can check the *shape* of the result directly.

use crate::report::{pct, sci, time_median, Table};
use dataflow::{Config, Context};
use std::time::Instant;
use upa_repro::suite::{build_queries, EvalData, EvalQuery, EvalScale};
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_stats::rmse::rmse;

/// Experiment configuration (environment-overridable scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// TPC-H orders (drives all table sizes).
    pub orders: usize,
    /// ML records.
    pub ml_records: usize,
    /// Partitions per dataset.
    pub partitions: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Timing repetitions / accuracy trials.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Simulated per-record scan cost (ns) applied to the *timing*
    /// experiments (Fig. 2b, 4a, 4b) to stand in for Spark's I/O-bound
    /// scans; accuracy experiments run without it.
    pub scan_cost_ns: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExpConfig {
            orders: 4_000,
            ml_records: 8_000,
            partitions: 8,
            threads: avail.clamp(4, 8),
            trials: 3,
            seed: 7,
            scan_cost_ns: 150,
        }
    }
}

impl ExpConfig {
    /// Reads `UPA_BENCH_ORDERS`, `UPA_BENCH_ML_RECORDS`,
    /// `UPA_BENCH_TRIALS`, `UPA_BENCH_THREADS` env overrides.
    pub fn from_env() -> Self {
        let mut cfg = ExpConfig::default();
        let read = |name: &str| std::env::var(name).ok().and_then(|v| v.parse().ok());
        if let Some(v) = read("UPA_BENCH_ORDERS") {
            cfg.orders = v;
        }
        if let Some(v) = read("UPA_BENCH_ML_RECORDS") {
            cfg.ml_records = v;
        }
        if let Some(v) = read("UPA_BENCH_TRIALS") {
            cfg.trials = v;
        }
        if let Some(v) = read("UPA_BENCH_THREADS") {
            cfg.threads = v;
        }
        if let Some(v) = std::env::var("UPA_BENCH_SCAN_NS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            cfg.scan_cost_ns = v;
        }
        cfg
    }

    fn scale(&self) -> EvalScale {
        EvalScale {
            orders: self.orders,
            ml_records: self.ml_records,
            partitions: self.partitions,
            seed: self.seed,
        }
    }
}

fn setup(cfg: &ExpConfig) -> (Context, EvalData, Vec<Box<dyn EvalQuery>>) {
    setup_with_scan(cfg, 0)
}

/// Like [`setup`] but with the simulated per-record scan cost enabled —
/// used by the timing experiments so the vanilla baseline carries an
/// I/O-like cost per record, as the paper's 114 GB Spark scans do.
fn setup_with_scan(
    cfg: &ExpConfig,
    scan_cost_ns: u64,
) -> (Context, EvalData, Vec<Box<dyn EvalQuery>>) {
    let ctx = Context::new(Config {
        threads: cfg.threads,
        default_partitions: cfg.partitions,
        shuffle_partitions: cfg.partitions,
        scan_cost_ns,
        ..Config::default()
    });
    let data = EvalData::generate(&ctx, cfg.scale());
    let queries = build_queries(&data);
    (ctx, data, queries)
}

fn upa_for(ctx: &Context, sample_size: usize, seed: u64, noise: bool) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            seed,
            add_noise: noise,
            ..UpaConfig::default()
        },
    )
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Table II: the query/dataset support matrix.
pub fn table2(cfg: &ExpConfig) {
    let (_ctx, data, queries) = setup(cfg);
    println!("== Table II: evaluated queries and support matrix ==");
    println!(
        "(paper: 114-133 GB TPC-H / life-science datasets; here: generated at orders={}, ml={})\n",
        cfg.orders, cfg.ml_records
    );
    let mut t = Table::new(&[
        "Query Name",
        "Protected table",
        "Protected rows",
        "Query Type",
        "Support by UPA",
        "Support by FLEX",
    ]);
    for q in &queries {
        let rows = match q.protected() {
            "lineitem" => data.tables.lineitem.len(),
            "orders" => data.tables.orders.len(),
            "partsupp" => data.tables.partsupp.len(),
            "supplier" => data.tables.supplier.len(),
            _ => data.scale.ml_records,
        };
        t.row(vec![
            q.name().into(),
            q.protected().into(),
            rows.to_string(),
            q.kind().into(),
            "yes".into(),
            if q.flex_supported() { "yes" } else { "NO" }.into(),
        ]);
    }
    t.print();
    let flex_count = queries.iter().filter(|q| q.flex_supported()).count();
    println!(
        "\nUPA supports {}/9 queries; FLEX supports {}/9 (paper: 9/9 vs 5/9).",
        queries.len(),
        flex_count
    );
}

// ---------------------------------------------------------------------------
// Figure 2(a): sensitivity RMSE, UPA vs FLEX
// ---------------------------------------------------------------------------

/// Figure 2(a): RMSE of inferred local sensitivity vs brute-force ground
/// truth, UPA vs FLEX, log scale.
pub fn fig2a(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup(cfg);
    println!("== Figure 2(a): sensitivity RMSE vs ground truth (lower is better) ==");
    println!("(paper: UPA averages 3.81% RMSE; FLEX is 1-5 orders of magnitude worse;");
    println!(" FLEX is exact on TPCH1, worst on the multi-join TPCH16/TPCH21)\n");

    let mut t = Table::new(&[
        "Query",
        "ground truth LS",
        "UPA estimate",
        "UPA RMSE",
        "FLEX bound",
        "FLEX RMSE",
        "FLEX/UPA error",
    ]);
    let mut upa_rel_sum = 0.0;
    let mut upa_rel_count = 0usize;
    for q in &queries {
        let gt = q.ground_truth(&data, 1_000, cfg.seed ^ 0xA11);
        let truth = gt.local_sensitivity;
        let mut estimates = Vec::with_capacity(cfg.trials);
        for trial in 0..cfg.trials {
            let mut upa = upa_for(&ctx, 1_000, cfg.seed + 100 + trial as u64, false);
            let result = q.run_upa(&mut upa, &data).expect("query runs");
            estimates.push(result.max_empirical_sensitivity());
        }
        let truths = vec![truth; estimates.len()];
        let upa_abs = rmse(&estimates, &truths).expect("non-empty");
        let denom = truth.abs().max(1e-12);
        let upa_rel = upa_abs / denom;
        upa_rel_sum += upa_rel;
        upa_rel_count += 1;
        let mean_est = estimates.iter().sum::<f64>() / estimates.len() as f64;

        let (flex_cell, flex_rmse_cell, ratio_cell) = match q.flex_sensitivity(&data) {
            Ok(flex) => {
                let flex_rel = (flex - truth).abs() / denom;
                let ratio = if upa_rel > 0.0 {
                    format!("{:.1e}x", flex_rel / upa_rel)
                } else if flex_rel == 0.0 {
                    "1x".to_string()
                } else {
                    "inf".to_string()
                };
                (sci(Some(flex)), pct(flex_rel), ratio)
            }
            Err(_) => ("unsupported".into(), "n/a".into(), "n/a".into()),
        };
        t.row(vec![
            q.name().into(),
            sci(Some(truth)),
            sci(Some(mean_est)),
            pct(upa_rel),
            flex_cell,
            flex_rmse_cell,
            ratio_cell,
        ]);
    }
    t.print();
    println!(
        "\nUPA average RMSE across all nine queries: {} (paper: 3.81%)",
        pct(upa_rel_sum / upa_rel_count as f64)
    );
}

// ---------------------------------------------------------------------------
// Figure 2(b): runtime normalized to vanilla
// ---------------------------------------------------------------------------

/// Figure 2(b): UPA end-to-end runtime normalized to the vanilla
/// dataflow execution.
pub fn fig2b(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup_with_scan(cfg, cfg.scan_cost_ns);
    println!("== Figure 2(b): UPA runtime normalized to vanilla execution ==");
    println!("(paper: 19.1%-130.9% overhead, avg 77.6%; join queries TPCH4/13 exceed");
    println!(" 100% because joinDP shuffles twice; TPCH16/21 stay lower because their");
    println!(" filters drop most sampled-neighbour work. Without Spark's I/O and");
    println!(" cluster costs the vanilla baseline here is much cheaper, so absolute");
    println!(" ratios run higher — the per-query ordering is the reproduction target.)\n");

    let mut t = Table::new(&[
        "Query",
        "vanilla ms",
        "UPA ms",
        "normalized",
        "extra shuffles",
        "shuffle-time share",
    ]);
    let mut ratios = Vec::new();
    for q in &queries {
        let (_, vanilla_ms) = time_median(cfg.trials, || q.run_plain(&data));
        ctx.reset_metrics();
        let before = ctx.metrics();
        let mut upa = upa_for(&ctx, 1_000, cfg.seed + 500, true);
        let (_, upa_ms) = time_median(cfg.trials, || {
            q.run_upa(&mut upa, &data).expect("query runs")
        });
        let shuffles = ctx.metrics().since(&before).shuffles;
        let shuffle_share = ctx.shuffle_time_share();
        let ratio = upa_ms / vanilla_ms.max(1e-6);
        ratios.push((q.name(), ratio));
        t.row(vec![
            q.name().into(),
            format!("{vanilla_ms:.2}"),
            format!("{upa_ms:.2}"),
            format!("{ratio:.2}x"),
            shuffles.to_string(),
            pct(shuffle_share),
        ]);
    }
    t.print();
    let avg: f64 = ratios.iter().map(|(_, r)| r).sum::<f64>() / ratios.len() as f64;
    println!("\naverage normalized runtime: {avg:.2}x vanilla");
    let join_avg = avg_of(&ratios, &["TPCH4", "TPCH13"]);
    let filtered_join_avg = avg_of(&ratios, &["TPCH16", "TPCH21"]);
    println!(
        "join queries (TPCH4/13) average {join_avg:.2}x vs multi-join-filtered (TPCH16/21) {filtered_join_avg:.2}x\n(paper shape: the former exceed the latter; the paper also reports >42.8% of\n execution time in shuffling for the local queries — compare the\n shuffle-time-share column)"
    );
}

fn avg_of(ratios: &[(&str, f64)], names: &[&str]) -> f64 {
    let sel: Vec<f64> = ratios
        .iter()
        .filter(|(n, _)| names.contains(n))
        .map(|(_, r)| *r)
        .collect();
    sel.iter().sum::<f64>() / sel.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// Figure 3: neighbour-output coverage vs sample size
// ---------------------------------------------------------------------------

/// Figure 3: how much of the true neighbour-output distribution the
/// inferred range covers, per sample size.
pub fn fig3(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup(cfg);
    println!("== Figure 3: neighbour-output coverage of the inferred range ==");
    println!("(paper: with n=1000 the inferred range covers 98.9%-100% of all");
    println!(" neighbour outputs for 8 of 9 queries; TPCH21 is the outlier-heavy");
    println!(" exception. Red lines = inferred range, blue = true extremes.)\n");

    let sample_sizes = [100usize, 1_000, 10_000];
    let mut t = Table::new(&[
        "Query",
        "true min..max (comp 0)",
        "inferred range @n=1000",
        "cov @100",
        "cov @1000",
        "cov @10000",
        "KS vs normal",
        "distribution",
    ]);
    for q in &queries {
        let gt = q.ground_truth(&data, 1_000, cfg.seed ^ 0xF13);
        let extremes = gt.neighbour_extremes();
        let mut coverages = Vec::new();
        let mut range_at_1000 = String::new();
        for (si, &n) in sample_sizes.iter().enumerate() {
            let mut upa = upa_for(&ctx, n, cfg.seed + 900 + si as u64, false);
            let result = q.run_upa(&mut upa, &data).expect("query runs");
            // Coverage: fraction of ALL true neighbour outputs inside the
            // inferred per-component range.
            let mut inside = 0usize;
            let mut total = 0usize;
            for o in gt.removal_outputs.iter().chain(gt.addition_outputs.iter()) {
                for (c, v) in o.iter().enumerate() {
                    let (lo, hi) = result.range.bounds[c];
                    total += 1;
                    if *v >= lo && *v <= hi {
                        inside += 1;
                    }
                }
            }
            coverages.push(inside as f64 / total.max(1) as f64);
            if n == 1_000 {
                let (lo, hi) = result.range.bounds[0];
                range_at_1000 = format!("[{lo:.4}, {hi:.4}]");
            }
        }
        // §VI-C normality analysis: KS distance of the true
        // neighbour-output distribution (component 0) against its own
        // normal fit, plus a sparkline of the distribution itself.
        let comp0: Vec<f64> = gt
            .removal_outputs
            .iter()
            .chain(gt.addition_outputs.iter())
            .filter_map(|o| o.first().copied())
            .collect();
        let ks = upa_repro::upa_stats::ks::ks_vs_normal_fit(&comp0)
            .map(|d| format!("{d:.3}"))
            .unwrap_or_else(|_| "n/a".into());
        let spark = upa_repro::upa_stats::ks::Histogram::from_samples(&comp0, 16).sparkline();
        t.row(vec![
            q.name().into(),
            format!("[{:.4}, {:.4}]", extremes[0].0, extremes[0].1),
            range_at_1000,
            pct(coverages[0]),
            pct(coverages[1]),
            pct(coverages[2]),
            ks,
            spark,
        ]);
    }
    t.print();
    println!(
        "
(large KS = strongly non-normal neighbour outputs, the paper's"
    );
    println!(" §VI-C explanation for residual inaccuracy; TPCH21's outliers show");
    println!(" as a heavy-tailed sparkline)");
}

// ---------------------------------------------------------------------------
// Figure 4(a): scalability with dataset size
// ---------------------------------------------------------------------------

/// Figure 4(a): normalized overhead as the dataset grows (the cost of
/// sensitivity inference is constant in `n`, so overhead falls).
pub fn fig4a(cfg: &ExpConfig) {
    println!("== Figure 4(a): UPA overhead vs dataset size ==");
    println!("(paper: overhead decreases as datasets grow, because inferring");
    println!(" sensitivity costs O(n)=O(1000) regardless of dataset size)\n");

    let selected = ["TPCH1", "TPCH4", "TPCH6", "TPCH21", "LinearRegression"];
    let factors = [1usize, 2, 4, 8];
    let mut t = Table::new(&{
        let mut h = vec!["dataset scale"];
        h.extend(selected);
        h
    });
    for &f in &factors {
        let scaled = ExpConfig {
            orders: cfg.orders * f,
            ml_records: cfg.ml_records * f,
            ..*cfg
        };
        let (ctx, data, queries) = setup_with_scan(&scaled, cfg.scan_cost_ns);
        let mut cells = vec![format!("{}x ({} lineitems)", f, data.tables.lineitem.len())];
        for name in &selected {
            let q = queries
                .iter()
                .find(|q| q.name() == *name)
                .expect("query exists");
            let (_, vanilla_ms) = time_median(cfg.trials, || q.run_plain(&data));
            let mut upa = upa_for(&ctx, 1_000, cfg.seed + 1_700 + f as u64, true);
            let (_, upa_ms) = time_median(cfg.trials, || {
                q.run_upa(&mut upa, &data).expect("query runs")
            });
            cells.push(format!("{:.2}x", upa_ms / vanilla_ms.max(1e-6)));
        }
        t.row(cells);
    }
    t.print();
    println!("\n(each column should trend downward as the scale factor grows)");
}

// ---------------------------------------------------------------------------
// Stage-level audit (observability layer)
// ---------------------------------------------------------------------------

/// Stage-level audit: runs every suite query once and reports where
/// Algorithm 1 spends its time, from each release's [`QueryAudit`]
/// (`upa_core::QueryAudit`). The full audits are also written as a JSON
/// array to `BENCH_STAGES.json` (override the path with
/// `UPA_BENCH_STAGES_OUT`) for downstream tooling.
pub fn stage_audit(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup(cfg);
    println!("== Stage-level audit: per-phase wall-clock of Algorithm 1 ==");
    println!("(all times in ms; prefix stages prepare/*, suffix stages release/*)\n");

    let stages = [
        "partition",
        "sample",
        "map",
        "reduce",
        "neighbours",
        "mle_fit",
        "enforce",
        "clamp",
        "noise",
    ];
    let mut t = Table::new(&{
        let mut h = vec!["Query", "total"];
        h.extend(stages);
        h
    });
    let mut jsons = Vec::new();
    for q in &queries {
        let mut upa = upa_for(&ctx, 1_000, cfg.seed + 3_100, true);
        q.run_upa(&mut upa, &data).expect("query runs");
        let audit = upa
            .last_audit()
            .expect("every successful release leaves an audit")
            .clone();
        let mut cells = vec![
            q.name().to_string(),
            format!("{:.2}", audit.total_nanos as f64 / 1e6),
        ];
        for s in &stages {
            cells.push(format!("{:.2}", audit.stage_nanos(s) as f64 / 1e6));
        }
        t.row(cells);
        jsons.push(audit.to_json());
    }
    t.print();

    let payload = format!("[{}]", jsons.join(",\n"));
    match crate::report::write_bench_json("STAGES", &payload) {
        Ok(path) => println!("\nwrote {} query audits to {}", jsons.len(), path.display()),
        Err(e) => eprintln!("\ncannot write BENCH_STAGES.json: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Hot-path microbenchmark: combining, fusion, parallel phase 4
// ---------------------------------------------------------------------------

/// Hot-path perf benchmark: measures the wall-clock and shuffle-volume
/// effect of map-side combining on (i) a scalar-sum UPA query and (ii) a
/// keyed `reduce_by_key` workload, plus the cost of a repeated release
/// (phases 3–4 only: pool-parallel, engine-free). Results are printed
/// and written as JSON to `BENCH_PERF.json` (override the path with
/// `UPA_BENCH_PERF_OUT`).
pub fn perf_hotpath(cfg: &ExpConfig) {
    use dataflow::PairOps;
    use upa_repro::upa_core::domain::EmpiricalSampler;
    use upa_repro::upa_core::query::MapReduceQuery;

    let records = cfg.orders.max(1) * 25;
    let parts = cfg.partitions;
    println!("== Hot-path perf: map-side combining, fused stages, parallel phase 4 ==");
    println!(
        "({records} records, {parts} partitions, median of {} trials)\n",
        cfg.trials
    );

    let engine = |combine: bool| {
        Context::new(Config {
            threads: cfg.threads,
            default_partitions: parts,
            shuffle_partitions: parts,
            map_side_combine: combine,
            ..Config::default()
        })
    };
    let variant = |combine: bool| if combine { "combine_on" } else { "combine_off" };

    // (workload, variant, wall ms, shuffle records, shuffle bytes)
    let mut rows: Vec<(String, String, f64, u64, u64)> = Vec::new();

    // (i) Scalar-sum UPA query: the per-half remainder reduce is the
    // engine-visible shuffle the combiner compresses to ≤2 records per
    // map partition.
    for combine in [true, false] {
        let ctx = engine(combine);
        let data: Vec<f64> = (0..records).map(|i| (i % 97) as f64).collect();
        let ds = ctx.parallelize(data.clone(), parts);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let before = ctx.metrics();
        let mut upa = upa_for(&ctx, 1_000, cfg.seed + 4_100, true);
        upa.run(&ds, &query, &domain).expect("query runs");
        let delta = ctx.metrics().since(&before);
        let (_, ms) = time_median(cfg.trials, || {
            upa.run(&ds, &query, &domain).expect("query runs")
        });
        rows.push((
            "scalar_sum_upa".into(),
            variant(combine).into(),
            ms,
            delta.shuffle_records,
            delta.shuffle_bytes,
        ));
    }

    // (ii) Keyed count: a pure engine workload with many records per key.
    for combine in [true, false] {
        let ctx = engine(combine);
        let pairs: Vec<(u64, u64)> = (0..records as u64).map(|i| (i % 64, 1)).collect();
        let ds = ctx.parallelize(pairs, parts);
        let before = ctx.metrics();
        let counted = ds.reduce_by_key(|a, b| a + b).collect();
        assert_eq!(counted.len(), 64.min(records));
        let delta = ctx.metrics().since(&before);
        let (_, ms) = time_median(cfg.trials, || ds.reduce_by_key(|a, b| a + b).collect());
        rows.push((
            "keyed_count".into(),
            variant(combine).into(),
            ms,
            delta.shuffle_records,
            delta.shuffle_bytes,
        ));
    }

    // (iii) Repeated release off a prepared query: phase 4 runs its 2·n
    // neighbour finalizations and MLE fits on the worker pool without
    // touching the engine — zero stages, zero shuffled records.
    {
        let ctx = engine(true);
        let data: Vec<f64> = (0..records).map(|i| (i % 97) as f64).collect();
        let ds = ctx.parallelize(data.clone(), parts);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let mut upa = upa_for(&ctx, 1_000, cfg.seed + 4_300, true);
        let prepared = upa.prepare(&ds, &query, &domain).expect("prepare runs");
        let before = ctx.metrics();
        let (_, ms) = time_median(cfg.trials, || upa.release(&prepared).expect("release runs"));
        let delta = ctx.metrics().since(&before);
        rows.push((
            "repeated_release".into(),
            "combine_on".into(),
            ms,
            delta.shuffle_records,
            delta.shuffle_bytes,
        ));
    }

    let mut t = Table::new(&[
        "workload",
        "variant",
        "wall ms",
        "shuffle records",
        "shuffle KiB",
    ]);
    for (w, v, ms, recs, bytes) in &rows {
        t.row(vec![
            w.clone(),
            v.clone(),
            format!("{ms:.2}"),
            recs.to_string(),
            format!("{:.1}", *bytes as f64 / 1024.0),
        ]);
    }
    t.print();

    let json_rows: Vec<String> = rows
        .iter()
        .map(|(w, v, ms, recs, bytes)| {
            format!(
                "    {{\"workload\": \"{w}\", \"variant\": \"{v}\", \"wall_ms\": {ms:.3}, \
                 \"shuffle_records\": {recs}, \"shuffle_bytes\": {bytes}}}"
            )
        })
        .collect();
    let payload = format!(
        "{{\n  \"records\": {records},\n  \"partitions\": {parts},\n  \"threads\": {},\n  \
         \"trials\": {},\n  \"workloads\": [\n{}\n  ]\n}}",
        cfg.threads,
        cfg.trials,
        json_rows.join(",\n")
    );
    match crate::report::write_bench_json("PERF", &payload) {
        Ok(path) => println!(
            "\nwrote {} workload measurements to {}",
            rows.len(),
            path.display()
        ),
        Err(e) => eprintln!("\ncannot write BENCH_PERF.json: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Serving throughput: upa-server under concurrent clients
// ---------------------------------------------------------------------------

/// Serving benchmark: an in-process `upa-server` on a loopback socket,
/// hammered by concurrent clients in three phases. The steady and
/// contended phases carry a generous `deadline_ms` so every request
/// takes the scheduler (queue, coalescing, worker pool) — the contended
/// phase quadruples the clients so coalescing is what keeps latency
/// bounded. The fast-path phase then drops the deadline: cached releases
/// are served on their connection threads (zero queue) with spends
/// group-committed, and its qps/p99 plus the fsyncs-per-release ratio
/// are the headline numbers. Everything is printed and written to
/// `BENCH_SERVE.json` (override with `UPA_BENCH_SERVE_OUT`; client and
/// request counts with `UPA_BENCH_CLIENTS` / `UPA_BENCH_SERVE_REQUESTS` /
/// `UPA_BENCH_FASTPATH_REQUESTS`).
pub fn serve_throughput(cfg: &ExpConfig) {
    use upa_server::{AggKind, Client, DatasetSpec, Server, ServerConfig, ServerState};
    use upa_store::{IngestOptions, Store};

    let read_env = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let clients = read_env("UPA_BENCH_CLIENTS", 4).max(1);
    let contended_clients = (clients * 4).max(8);
    let requests = read_env("UPA_BENCH_SERVE_REQUESTS", 64).max(1);
    let fastpath_requests = read_env("UPA_BENCH_FASTPATH_REQUESTS", 400).max(1);
    let records = cfg.orders.max(1) * 25;

    println!("== Serving throughput: upa-server under concurrent clients ==");
    println!(
        "({records} records, {clients} steady / {contended_clients} contended clients x \
         {requests} scheduled releases each, then {contended_clients} x {fastpath_requests} \
         fast-path releases, {} engine threads)\n",
        cfg.threads
    );

    // A real (temp) ledger puts the append+fsync on the release path, so
    // the scraped `upa_ledger_fsync_us` histogram measures actual I/O.
    let ledger_path =
        std::env::temp_dir().join(format!("upa-bench-serve-{}.ledger", std::process::id()));
    let _ = std::fs::remove_file(&ledger_path);
    let server = Server::bind(
        ServerConfig {
            datasets: vec![DatasetSpec::synthetic("data", records, 97)],
            epsilon: 0.1,
            ledger_path: Some(ledger_path.clone()),
            sample_size: 1_000.min(records),
            seed: cfg.seed,
            threads: cfg.threads,
            max_connections: contended_clients + 4,
            queue_capacity: contended_clients * 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback server");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    // Pay the one-off prepare outside any measured window so the
    // percentiles describe steady-state (cached, zero-stage) serving,
    // then warm the serving path itself — connections, the prepared
    // cache, the group committer — with a short unmeasured burst.
    {
        let mut warm = Client::connect(&addr).expect("warm-up connect");
        for _ in 0..8 {
            warm.release("data", "sum", "v", None, false)
                .expect("warm-up release");
        }
    }

    // One flood of `n` clients x `per_client` releases; a deadline opts
    // every request into the scheduler, `None` rides the zero-queue fast
    // path once cached. Returns the sorted latencies and the wall time.
    let flood = |n: usize, per_client: usize, deadline_ms: Option<u64>| -> (Vec<f64>, f64) {
        let phase_start = Instant::now();
        let mut workers = Vec::new();
        for _ in 0..n {
            let addr = addr.clone();
            workers.push(std::thread::spawn(move || {
                let mut client = Client::builder()
                    .retry_busy(8)
                    .connect(&addr)
                    .expect("client connect");
                let mut latencies_us = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let start = Instant::now();
                    client
                        .release_with_deadline("data", "sum", "v", None, false, deadline_ms)
                        .expect("release delivers");
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
                latencies_us
            }));
        }
        let mut latencies_us: Vec<f64> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect();
        latencies_us.sort_by(f64::total_cmp);
        (latencies_us, phase_start.elapsed().as_secs_f64())
    };
    let percentile = |sorted: &[f64], p: f64| -> f64 {
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    };
    let counter = |m: &upa_server::MetricsReply, name: &str| -> u64 {
        m.snapshot.counters.get(name).copied().unwrap_or(0)
    };

    let (steady, wall_s) = flood(clients, requests, Some(600_000));
    let (contended, contended_wall_s) = flood(contended_clients, requests, Some(600_000));

    // Snapshot the fsync counter on the phase boundary so the fast-path
    // phase's batching ratio is isolated from the scheduled phases.
    let fsyncs_before_fastpath = {
        let mut observer = Client::connect(&addr).expect("pre-fastpath connect");
        let m = observer.metrics().expect("metrics reply");
        counter(&m, "upa_ledger_fsyncs_total")
    };
    let (fastpath, fastpath_wall_s) = flood(contended_clients, fastpath_requests, None);

    let (stats, metrics) = {
        let mut observer = Client::connect(&addr).expect("stats connect");
        let stats = observer.stats().expect("stats reply");
        let metrics = observer.metrics().expect("metrics reply");
        (stats, metrics)
    };
    handle.shutdown();
    join.join().expect("server thread").expect("server exits");
    let _ = std::fs::remove_file(&ledger_path);

    // Cold-prepare phase: one store-backed dataset attached into two
    // in-process states over the *same* chunks — one serving through the
    // columnar zero-copy kernels, one forced down the row path (which
    // re-materialises a `Vec<f64>` and walks it record by record). Each
    // iteration purges the prepared cache so every prepare is cold; the
    // two paths are bit-identical under the shared seed, so the speedup
    // buys latency, never a different answer.
    let cold_iters = read_env("UPA_BENCH_COLD_ITERS", 9).max(3);
    let cold_rows = read_env("UPA_BENCH_COLD_ROWS", 400_000).max(records);
    let store_dir = std::env::temp_dir().join(format!("upa-bench-coldprep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("mkdir cold store");
    {
        let store = Store::open(&store_dir).expect("open cold store");
        // The fraction sets the low mantissa bit of about half the
        // values, so both halves of the fused kernel are folded
        // (integers alone all have even parity).
        let values: Vec<f64> = (0..cold_rows)
            .map(|i| (i % 97) as f64 + (i % 89) as f64 / 89.0)
            .collect();
        let columns = vec![("v".to_string(), values)];
        store
            .ingest("cold", &columns, &IngestOptions::default())
            .expect("ingest cold dataset");
    }
    let cold_state = |columnar: bool| {
        ServerState::new(ServerConfig {
            datasets: vec![],
            epsilon: 0.1,
            sample_size: 1_000.min(cold_rows),
            seed: cfg.seed,
            threads: cfg.threads,
            store_path: Some(store_dir.clone()),
            attach: vec!["cold".to_string()],
            columnar,
            ..ServerConfig::default()
        })
        .expect("cold-prepare state")
    };
    let col_state = cold_state(true);
    let row_state = cold_state(false);
    let time_cold = |state: &ServerState| -> Vec<f64> {
        let mut us = Vec::with_capacity(cold_iters);
        for _ in 0..cold_iters {
            state.invalidate_prepared("cold");
            let start = Instant::now();
            let (_, _, hit) = state
                .prepare("cold", AggKind::Sum, "v")
                .expect("cold prepare");
            assert!(!hit, "invalidation makes every prepare cold");
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        us.sort_by(f64::total_cmp);
        us
    };
    let cold_col = time_cold(&col_state);
    let cold_row = time_cold(&row_state);
    // Both engines consumed identical RNG draws, so one release each
    // must agree to the last bit — the speedup changes nothing else.
    let a = col_state
        .release("cold", AggKind::Sum, "v", None, false)
        .expect("columnar release");
    let b = row_state
        .release("cold", AggKind::Sum, "v", None, false)
        .expect("row release");
    assert_eq!(
        a.released.to_bits(),
        b.released.to_bits(),
        "columnar and row cold prepares must release identical bits"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    let (cold_col_p50, cold_col_p99) = (percentile(&cold_col, 50.0), percentile(&cold_col, 99.0));
    let (cold_row_p50, cold_row_p99) = (percentile(&cold_row, 50.0), percentile(&cold_row, 99.0));
    let cold_speedup = cold_row_p50 / cold_col_p50.max(1e-9);

    // Server-side latency breakdowns, from the same registry the
    // `metrics` op scrapes (microsecond histograms).
    let hist_pcts = |name: &str| -> (u64, u64) {
        metrics
            .snapshot
            .histograms
            .get(name)
            .map(|h| (h.quantile(0.50), h.quantile(0.99)))
            .unwrap_or((0, 0))
    };
    let (queue_p50, queue_p99) = hist_pcts("upa_queue_wait_us");
    let (fsync_p50, fsync_p99) = hist_pcts("upa_ledger_fsync_us");
    let (batch_p50, _) = hist_pcts("upa_ledger_batch_size");
    let (commit_wait_p50, commit_wait_p99) = hist_pcts("upa_ledger_commit_wait_us");
    let batch_max = metrics
        .snapshot
        .histograms
        .get("upa_ledger_batch_size")
        .map(|h| h.max())
        .unwrap_or(0);

    let total = steady.len();
    let qps = total as f64 / wall_s.max(1e-9);
    let contended_qps = contended.len() as f64 / contended_wall_s.max(1e-9);
    let (p50, p90, p99, max) = (
        percentile(&steady, 50.0),
        percentile(&steady, 90.0),
        percentile(&steady, 99.0),
        steady[total - 1],
    );
    let (c_p50, c_p99) = (percentile(&contended, 50.0), percentile(&contended, 99.0));
    let fastpath_total = fastpath.len();
    let fastpath_qps = fastpath_total as f64 / fastpath_wall_s.max(1e-9);
    let (f_p50, f_p99) = (percentile(&fastpath, 50.0), percentile(&fastpath, 99.0));
    let fastpath_hits = counter(&metrics, "upa_fastpath_hits_total");
    let fastpath_fsyncs =
        counter(&metrics, "upa_ledger_fsyncs_total").saturating_sub(fsyncs_before_fastpath);
    let sched = &stats.sched;
    let coalesce_rate = sched.coalesce_rate();

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["steady releases".into(), total.to_string()]);
    t.row(vec!["steady throughput (qps)".into(), format!("{qps:.0}")]);
    t.row(vec!["steady p50 latency (µs)".into(), format!("{p50:.0}")]);
    t.row(vec!["steady p90 latency (µs)".into(), format!("{p90:.0}")]);
    t.row(vec!["steady p99 latency (µs)".into(), format!("{p99:.0}")]);
    t.row(vec!["steady max latency (µs)".into(), format!("{max:.0}")]);
    t.row(vec![
        "contended releases".into(),
        contended.len().to_string(),
    ]);
    t.row(vec![
        "contended throughput (qps)".into(),
        format!("{contended_qps:.0}"),
    ]);
    t.row(vec![
        "contended p50 latency (µs)".into(),
        format!("{c_p50:.0}"),
    ]);
    t.row(vec![
        "contended p99 latency (µs)".into(),
        format!("{c_p99:.0}"),
    ]);
    t.row(vec![
        "fast-path releases".into(),
        fastpath_total.to_string(),
    ]);
    t.row(vec![
        "fast-path throughput (qps)".into(),
        format!("{fastpath_qps:.0}"),
    ]);
    t.row(vec![
        "fast-path p50 latency (µs)".into(),
        format!("{f_p50:.0}"),
    ]);
    t.row(vec![
        "fast-path p99 latency (µs)".into(),
        format!("{f_p99:.0}"),
    ]);
    t.row(vec![
        "fast-path fsyncs".into(),
        format!(
            "{fastpath_fsyncs} ({:.1} spends/fsync)",
            fastpath_total as f64 / (fastpath_fsyncs.max(1)) as f64
        ),
    ]);
    t.row(vec!["coalesce rate".into(), format!("{coalesce_rate:.4}")]);
    t.row(vec!["engine prepares".into(), sched.prepares.to_string()]);
    t.row(vec![
        "busy rejections".into(),
        sched.busy_rejected.to_string(),
    ]);
    t.row(vec![
        "peak queue depth".into(),
        sched.peak_queued.to_string(),
    ]);
    t.row(vec!["peak batch".into(), sched.peak_batch.to_string()]);
    t.row(vec!["queue wait p50 (µs)".into(), queue_p50.to_string()]);
    t.row(vec!["queue wait p99 (µs)".into(), queue_p99.to_string()]);
    t.row(vec!["ledger fsync p50 (µs)".into(), fsync_p50.to_string()]);
    t.row(vec!["ledger fsync p99 (µs)".into(), fsync_p99.to_string()]);
    t.row(vec!["ledger batch p50".into(), batch_p50.to_string()]);
    t.row(vec!["ledger batch max".into(), batch_max.to_string()]);
    t.row(vec![
        "commit wait p50 (µs)".into(),
        commit_wait_p50.to_string(),
    ]);
    t.row(vec![
        "commit wait p99 (µs)".into(),
        commit_wait_p99.to_string(),
    ]);
    t.row(vec![
        "cold prepare p50, columnar (µs)".into(),
        format!("{cold_col_p50:.0}"),
    ]);
    t.row(vec![
        "cold prepare p99, columnar (µs)".into(),
        format!("{cold_col_p99:.0}"),
    ]);
    t.row(vec![
        "cold prepare p50, row (µs)".into(),
        format!("{cold_row_p50:.0}"),
    ]);
    t.row(vec![
        "cold prepare p99, row (µs)".into(),
        format!("{cold_row_p99:.0}"),
    ]);
    t.row(vec![
        "cold prepare speedup".into(),
        format!("{cold_speedup:.2}x"),
    ]);
    t.print();

    let payload = format!(
        "{{\n  \"records\": {records},\n  \"clients\": {clients},\n  \
         \"contended_clients\": {contended_clients},\n  \
         \"requests_per_client\": {requests},\n  \"threads\": {},\n  \
         \"total_releases\": {total},\n  \"wall_seconds\": {wall_s:.4},\n  \
         \"qps\": {qps:.1},\n  \"latency_us\": {{\"p50\": {p50:.1}, \"p90\": {p90:.1}, \
         \"p99\": {p99:.1}, \"max\": {max:.1}}},\n  \
         \"contended\": {{\"qps\": {contended_qps:.1}, \"p50_us\": {c_p50:.1}, \
         \"p99_us\": {c_p99:.1}}},\n  \
         \"fastpath\": {{\"releases\": {fastpath_total}, \"qps\": {fastpath_qps:.1}, \
         \"p50_us\": {f_p50:.1}, \"p99_us\": {f_p99:.1}, \"hits\": {fastpath_hits}, \
         \"fsyncs\": {fastpath_fsyncs}}},\n  \
         \"sched\": {{\"coalesce_rate\": {coalesce_rate:.4}, \"prepares\": {}, \
         \"coalesced\": {}, \"batches\": {}, \"peak_batch\": {}, \"peak_queued\": {}, \
         \"busy_rejected\": {}, \"shed_deadline\": {}}},\n  \
         \"server_side_us\": {{\"queue_wait\": {{\"p50\": {queue_p50}, \"p99\": {queue_p99}}}, \
         \"ledger_fsync\": {{\"p50\": {fsync_p50}, \"p99\": {fsync_p99}}}, \
         \"commit_wait\": {{\"p50\": {commit_wait_p50}, \"p99\": {commit_wait_p99}}}}},\n  \
         \"ledger_batch\": {{\"p50\": {batch_p50}, \"max\": {batch_max}}},\n  \
         \"cold_prepare_us\": {{\"rows\": {cold_rows}, \"iters\": {cold_iters}, \
         \"columnar\": {{\"p50\": {cold_col_p50:.1}, \"p99\": {cold_col_p99:.1}}}, \
         \"row\": {{\"p50\": {cold_row_p50:.1}, \"p99\": {cold_row_p99:.1}}}, \
         \"speedup\": {cold_speedup:.3}}}\n}}",
        cfg.threads,
        sched.prepares,
        sched.coalesced,
        sched.batches,
        sched.peak_batch,
        sched.peak_queued,
        sched.busy_rejected,
        sched.shed_deadline
    );
    match crate::report::write_bench_json("SERVE", &payload) {
        Ok(path) => println!("\nwrote serving metrics to {}", path.display()),
        Err(e) => eprintln!("\ncannot write BENCH_SERVE.json: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Figure 4(b): runtime vs sample size
// ---------------------------------------------------------------------------

/// Figure 4(b): UPA runtime as the sample size `n` grows (near-flat up
/// to 10^5 in the paper thanks to reuse of cached intermediate results).
pub fn fig4b(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup_with_scan(cfg, cfg.scan_cost_ns);
    println!("== Figure 4(b): UPA runtime vs sample size n ==");
    println!("(paper: runtime stays near-constant up to n=10^5 because the");
    println!(" union-preserving reduce reuses R(M(S')) and cached sample state)\n");

    let selected = ["TPCH1", "TPCH6", "TPCH4", "KMeans", "LinearRegression"];
    let sample_sizes = [100usize, 1_000, 10_000, 100_000];
    let mut t = Table::new(&{
        let mut h = vec!["sample size n"];
        h.extend(selected);
        h
    });
    for (si, &n) in sample_sizes.iter().enumerate() {
        let mut cells = vec![n.to_string()];
        for name in &selected {
            let q = queries
                .iter()
                .find(|q| q.name() == *name)
                .expect("query exists");
            let mut upa = upa_for(&ctx, n, cfg.seed + 2_500 + si as u64, true);
            let (_, upa_ms) = time_median(cfg.trials, || {
                q.run_upa(&mut upa, &data).expect("query runs")
            });
            cells.push(format!("{upa_ms:.1}ms"));
        }
        t.row(cells);
    }
    t.print();
    println!("\n(n larger than a table samples every record of that table)");
}
