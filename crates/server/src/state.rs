//! Shared serving state: datasets, engines, the prepared-query cache,
//! the budget ledger and admission control.
//!
//! One [`ServerState`] is shared (via `Arc`) by every connection worker.
//! Mutability is fine-grained so independent work proceeds concurrently:
//!
//! * each dataset owns its [`upa_core::Upa`] engine behind its own mutex
//!   (RNG, enforcer history and audits are per-dataset serial state);
//! * the prepared-query cache is an LRU behind its own short-hold mutex,
//!   so a release on one dataset never waits on a prepare for another;
//! * budget accounting is **sharded and lock-free**: each dataset's
//!   spent-ε lives in an [`AtomicBudget`] (CAS on the `f64` bit
//!   pattern), so concurrent releases on different — or the same —
//!   dataset reserve budget without any mutex;
//! * durability is the group-commit ledger's job
//!   ([`crate::ledger::GroupCommitLedger`]): a spend reserves
//!   atomically, submits its record, and blocks on the shared fsync. A
//!   failed fsync refunds the reservation, so an I/O failure never
//!   leaks accounted-but-lost budget.
//!
//! Admission control for the query path (bounded per-dataset queues,
//! request coalescing, deadlines) lives one layer up in
//! [`crate::sched::Scheduler`]; this module only provides the primitive
//! operations the scheduler composes: [`ServerState::prepare`] and
//! [`ServerState::release_prepared`]. The connection layer additionally
//! serves cache-hit releases directly ([`ServerState::cached_prepared`]
//! plus [`ServerState::release_prepared_traced`]) without queueing —
//! the zero-queue fast path.

use crate::agg::{build_agg_query, AggKind};
use crate::ledger::{spent_by_dataset, GroupCommitLedger, Ledger, LedgerObs, SpendRecord};
use crate::obs::{Obs, Trace};
use crate::proto::ErrorCode;
use dataflow::columnar::{ColumnarBuf, ColumnarDataset};
use dataflow::Context;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use upa_core::domain::{ColumnarEmpiricalSampler, EmpiricalSampler};
use upa_core::{PreparedQuery, QueryAudit, Upa, UpaConfig, UpaError};
use upa_store::{Catalog, IngestOptions, IngestReport, Resident, StoreError};

/// An in-memory dataset the server answers queries over: named numeric
/// columns plus the row count (so `count` works on column-less tables).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name, as addressed by the protocol's `dataset` field.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Numeric columns by name.
    pub columns: HashMap<String, Vec<f64>>,
}

impl DatasetSpec {
    /// A dataset from named numeric columns (all columns must share the
    /// row count).
    pub fn new(name: impl Into<String>, rows: usize, columns: HashMap<String, Vec<f64>>) -> Self {
        DatasetSpec {
            name: name.into(),
            rows,
            columns,
        }
    }

    /// A synthetic dataset of `rows` records with one column `v` holding
    /// `i % modulus` — enough surface for benchmarks and tests.
    pub fn synthetic(name: impl Into<String>, rows: usize, modulus: usize) -> Self {
        let m = modulus.max(1);
        let values: Vec<f64> = (0..rows).map(|i| (i % m) as f64).collect();
        DatasetSpec {
            name: name.into(),
            rows,
            columns: HashMap::from([("v".to_string(), values)]),
        }
    }
}

/// Deterministic fault injection for the serving path, extending the
/// engine's [`dataflow::FaultInjector`] idea to the release protocol.
/// The injected failure is a worker panic (the thread dies, the
/// connection drops without a reply) at a precise point relative to the
/// ledger append — either side of the crash-safety boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReleaseFault {
    /// Never fail.
    #[default]
    None,
    /// The `n`-th release attempt (0-based, across all connections) dies
    /// before its spend reaches the ledger: no spend, no result.
    BeforeLedger(usize),
    /// The `n`-th release attempt dies after its spend is fsync'd but
    /// before the result is delivered: a durable spend with no result —
    /// the fail-closed side the ledger's invariant permits.
    AfterLedger(usize),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Datasets to serve.
    pub datasets: Vec<DatasetSpec>,
    /// Total ε budget per dataset (`None` = unmetered; spends are still
    /// ledgered when a ledger path is set).
    pub budget: Option<f64>,
    /// Ledger path (`None` = no durability; spends live only in memory).
    pub ledger_path: Option<PathBuf>,
    /// Default per-release ε.
    pub epsilon: f64,
    /// UPA sample size `n`.
    pub sample_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Engine threads (0 = auto).
    pub threads: usize,
    /// Maximum concurrently served connections; excess connections are
    /// refused with a `busy` error (bounded accept backlog).
    pub max_connections: usize,
    /// Scheduler worker-pool size — the maximum concurrently *running*
    /// prepares/releases; excess requests queue per dataset.
    pub max_inflight_prepares: usize,
    /// Bound of each dataset's scheduler queue; a request arriving at a
    /// full queue is refused with `busy`.
    pub queue_capacity: usize,
    /// Group-commit window in microseconds: how long the ledger's
    /// committer thread lingers for straggling submitters before the
    /// shared fsync. A lone writer always commits immediately; `0`
    /// disables lingering entirely (batching then comes only from
    /// arrivals during the previous fsync).
    pub ledger_commit_us: u64,
    /// Prepared-query cache capacity; the least-recently-used entry is
    /// evicted on overflow. `0` means unbounded.
    pub cache_capacity: usize,
    /// Requests slower than this many milliseconds are logged at `warn`
    /// with their full trace (`None` disables slow-query logging).
    pub slow_query_ms: Option<u64>,
    /// How many finished request traces the `trace` op retains.
    pub trace_capacity: usize,
    /// Route the structured event log to stderr (the daemon turns this
    /// on; in-process embedders stay silent).
    pub log_stderr: bool,
    /// Serving-path fault injection (tests only).
    pub fault: ReleaseFault,
    /// Persistent dataset store directory (`None` = no store; only
    /// baked-in [`ServerConfig::datasets`] are served).
    pub store_path: Option<PathBuf>,
    /// Allow the `ingest`/`attach`/`detach` admin ops over the wire.
    pub allow_admin: bool,
    /// Store datasets to attach at startup (requires
    /// [`ServerConfig::store_path`]).
    pub attach: Vec<String>,
    /// Serve columnar-backed datasets (catalog attaches) through the
    /// zero-copy chunk kernels. On by default; benchmarks flip this off
    /// to measure the row path over identical data. Releases are
    /// bit-identical either way under the same seed.
    pub columnar: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            datasets: Vec::new(),
            budget: None,
            ledger_path: None,
            epsilon: 0.1,
            sample_size: 1000,
            seed: 0xDA7A,
            threads: 0,
            max_connections: 64,
            max_inflight_prepares: 4,
            queue_capacity: 64,
            ledger_commit_us: 200,
            cache_capacity: 256,
            slow_query_ms: None,
            trace_capacity: 256,
            log_stderr: false,
            fault: ReleaseFault::None,
            store_path: None,
            allow_admin: false,
            attach: Vec::new(),
            columnar: true,
        }
    }
}

/// Errors surfaced to protocol clients, each with a stable `code`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No dataset of that name is registered.
    UnknownDataset(String),
    /// The dataset has no such numeric column.
    UnknownColumn { dataset: String, column: String },
    /// The request was malformed.
    BadRequest(String),
    /// The server is at a capacity bound (connection cap, or the
    /// dataset's scheduler queue is full).
    Busy,
    /// The request's `deadline_ms` expired before it could be served;
    /// it was shed from the queue without charging any budget.
    DeadlineExceeded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The dataset's budget cannot cover the requested ε.
    BudgetExhausted { remaining: f64, requested: f64 },
    /// The ledger could not make the spend durable.
    Ledger(String),
    /// The pipeline failed.
    Pipeline(String),
    /// An admin op (`ingest`/`attach`/`detach`) arrived but the server
    /// was not started with `--allow-admin`.
    AdminDisabled,
    /// A dataset-store operation failed (no store configured, corrupt
    /// chunks, ingest I/O, …).
    Store(String),
}

impl ServeError {
    /// Stable machine-readable code, shared with the client through the
    /// closed [`ErrorCode`] enum.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::UnknownDataset(_) => ErrorCode::UnknownDataset,
            ServeError::UnknownColumn { .. } => ErrorCode::UnknownColumn,
            ServeError::BadRequest(_) => ErrorCode::BadRequest,
            ServeError::Busy => ErrorCode::Busy,
            ServeError::DeadlineExceeded => ErrorCode::Deadline,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::BudgetExhausted { .. } => ErrorCode::Budget,
            ServeError::Ledger(_) => ErrorCode::Ledger,
            ServeError::Pipeline(_) => ErrorCode::Pipeline,
            ServeError::AdminDisabled => ErrorCode::Admin,
            ServeError::Store(_) => ErrorCode::Store,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        match e {
            StoreError::NotFound(name) => ServeError::UnknownDataset(name),
            other => ServeError::Store(other.to_string()),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDataset(d) => write!(f, "unknown dataset '{d}'"),
            ServeError::UnknownColumn { dataset, column } => {
                write!(f, "dataset '{dataset}' has no numeric column '{column}'")
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Busy => write!(f, "server busy: at capacity (connection or queue limit)"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request could be served")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BudgetExhausted {
                remaining,
                requested,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            ServeError::Ledger(m) => write!(f, "ledger failure: {m}"),
            ServeError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            ServeError::AdminDisabled => {
                write!(f, "admin ops are disabled (start with --allow-admin)")
            }
            ServeError::Store(m) => write!(f, "store error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The serving aggregate's prepared state (phases 1–3 of Algorithm 1).
pub type PreparedAgg = PreparedQuery<f64, (f64, f64), f64>;

/// Cache key: `(dataset, aggregate, column)`.
type QueryKey = (String, AggKind, String);

/// One served column's storage. Baked-in [`DatasetSpec`]s carry flat
/// vectors; catalog attaches hand over the store's chunk buffers
/// untouched, so the columnar serving path scans the very bytes the
/// loader decoded — no re-materialised `Vec<f64>` anywhere between disk
/// and kernel.
#[derive(Debug, Clone)]
enum ColumnHandle {
    /// Flat values behind an `Arc` (in-memory [`DatasetSpec`]s).
    Row(Arc<Vec<f64>>),
    /// Shared store chunks in their on-disk layout (catalog attaches).
    Columnar(ColumnarBuf),
}

impl ColumnHandle {
    fn len(&self) -> usize {
        match self {
            ColumnHandle::Row(v) => v.len(),
            ColumnHandle::Columnar(buf) => buf.len(),
        }
    }

    /// Flattens to a plain vector — the row path's (copying) view.
    fn to_vec(&self) -> Vec<f64> {
        match self {
            ColumnHandle::Row(v) => v.as_ref().clone(),
            ColumnHandle::Columnar(buf) => buf.to_vec(),
        }
    }
}

struct DatasetState {
    name: String,
    rows: usize,
    /// Column storage handles: attaching from the catalog shares the
    /// catalog's chunk buffers instead of copying them, and a dataset
    /// detached mid-query stays alive until its last in-flight release
    /// drops the handle.
    columns: HashMap<String, ColumnHandle>,
    /// Whether the dataset is columnar-backed (a catalog attach), so
    /// column-less `count` queries know which execution path owns it.
    columnar: bool,
    resident_bytes: usize,
    upa: Mutex<Upa>,
}

impl DatasetState {
    fn from_spec(spec: &DatasetSpec, upa: Upa) -> DatasetState {
        let columns: HashMap<String, ColumnHandle> = spec
            .columns
            .iter()
            .map(|(name, values)| (name.clone(), ColumnHandle::Row(Arc::new(values.clone()))))
            .collect();
        let resident_bytes = columns.values().map(|v| v.len() * 8).sum();
        DatasetState {
            name: spec.name.clone(),
            rows: spec.rows,
            columns,
            columnar: false,
            resident_bytes,
            upa: Mutex::new(upa),
        }
    }

    fn from_resident(resident: &Resident, upa: Upa) -> DatasetState {
        DatasetState {
            name: resident.name.clone(),
            rows: resident.rows,
            columns: resident
                .columns
                .iter()
                .map(|(name, buf)| (name.clone(), ColumnHandle::Columnar(buf.clone())))
                .collect(),
            columnar: true,
            resident_bytes: resident.resident_bytes,
            upa: Mutex::new(upa),
        }
    }
}

/// One served dataset's shape, as reported by the `datasets` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Column names, sorted.
    pub columns: Vec<String>,
    /// Bytes of column values held in memory.
    pub resident_bytes: u64,
}

/// The result of a successful `attach`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachOutcome {
    /// Dataset name.
    pub dataset: String,
    /// Row count of the freshly loaded data.
    pub rows: u64,
    /// Bytes now resident for this dataset.
    pub resident_bytes: u64,
    /// Whether this replaced an existing residency (a reload).
    pub reloaded: bool,
}

/// One dataset's lock-free budget shard: `total` is immutable, `spent`
/// is the `f64` bit pattern in an atomic, advanced by CAS. Reservations
/// are the serving fast path's admission check — no mutex, no queue.
#[derive(Debug)]
pub struct AtomicBudget {
    total: f64,
    spent_bits: AtomicU64,
}

impl AtomicBudget {
    fn new(total: f64, spent: f64) -> AtomicBudget {
        AtomicBudget {
            total,
            spent_bits: AtomicU64::new(spent.to_bits()),
        }
    }

    /// The configured total ε.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ε charged so far.
    pub fn spent(&self) -> f64 {
        f64::from_bits(self.spent_bits.load(Ordering::Acquire))
    }

    /// ε still available (clamped at zero).
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent()).max(0.0)
    }

    /// Atomically reserves `epsilon`, returning the remaining budget
    /// after the charge; refuses (returning the untouched remaining)
    /// when the budget cannot cover it. The `1e-12` tolerance matches
    /// [`upa_core::budget::BudgetAccountant::try_spend`], so a budget
    /// sized as an exact multiple of ε fills to the last release.
    pub fn try_reserve(&self, epsilon: f64) -> Result<f64, f64> {
        loop {
            let cur_bits = self.spent_bits.load(Ordering::Acquire);
            let cur = f64::from_bits(cur_bits);
            let next = cur + epsilon;
            if next > self.total + 1e-12 {
                return Err((self.total - cur).max(0.0));
            }
            if self
                .spent_bits
                .compare_exchange(
                    cur_bits,
                    next.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return Ok((self.total - next).max(0.0));
            }
        }
    }

    /// Returns a reservation whose spend never became durable (ledger
    /// write/fsync failure). Clamped at zero so a refund can never
    /// manufacture budget.
    pub fn refund(&self, epsilon: f64) {
        loop {
            let cur_bits = self.spent_bits.load(Ordering::Acquire);
            let next = (f64::from_bits(cur_bits) - epsilon).max(0.0);
            if self
                .spent_bits
                .compare_exchange(
                    cur_bits,
                    next.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return;
            }
        }
    }
}

struct CacheEntry {
    prepared: Arc<PreparedAgg>,
    last_used: u64,
}

/// The LRU-bounded prepared-query cache. The mutex guards only map
/// lookups and recency stamps (nanoseconds of hold time); the heavy
/// engine work happens outside it.
struct PreparedCache {
    capacity: usize,
    clock: AtomicU64,
    entries: Mutex<HashMap<QueryKey, CacheEntry>>,
}

impl PreparedCache {
    fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            capacity,
            clock: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&self, key: &QueryKey) -> Option<Arc<PreparedAgg>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock().expect("cache poisoned");
        entries.get_mut(key).map(|e| {
            e.last_used = stamp;
            Arc::clone(&e.prepared)
        })
    }

    /// Inserts (or refreshes) `key`; returns `true` when a
    /// least-recently-used entry was evicted to make room.
    fn insert(&self, key: QueryKey, prepared: Arc<PreparedAgg>) -> bool {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock().expect("cache poisoned");
        let mut evicted = false;
        if self.capacity > 0 && !entries.contains_key(&key) && entries.len() >= self.capacity {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
                evicted = true;
            }
        }
        entries.insert(
            key,
            CacheEntry {
                prepared,
                last_used: stamp,
            },
        );
        evicted
    }

    /// Drops every cached prepare for `dataset` — attach (the data may
    /// have changed on disk) and detach (the data is gone) both
    /// invalidate its entries.
    fn purge_dataset(&self, dataset: &str) {
        self.entries
            .lock()
            .expect("cache poisoned")
            .retain(|key, _| key.0 != dataset);
    }
}

/// The outcome of a successful release.
#[derive(Debug, Clone)]
pub struct ReleaseOutcome {
    /// Query identity (`dataset/kind/column`).
    pub query_id: String,
    /// The noisy value delivered to the analyst.
    pub released: f64,
    /// The ε charged.
    pub epsilon: f64,
    /// Laplace noise scale (`sensitivity / ε`).
    pub noise_scale: f64,
    /// Effective sample size of the preparation.
    pub sample_size: usize,
    /// Budget remaining after the charge (`None` when unmetered).
    pub budget_remaining: Option<f64>,
    /// Whether the prepared state was already cached when this release
    /// started. [`ServerState::release_prepared`] callers own the
    /// prepare, so they stamp this themselves; the composed
    /// [`ServerState::release`] sets it from its own cache probe.
    pub cached: bool,
    /// Wall-clock microseconds of the cold prepare that backed this
    /// release (`None` on a cache hit).
    pub prepare_us: Option<u64>,
    /// The release's audit record, when the caller asked for it.
    pub audit: Option<QueryAudit>,
}

/// The shared state behind every connection worker.
pub struct ServerState {
    config: ServerConfig,
    ctx: Context,
    /// Served datasets. The `RwLock` is short-hold by construction:
    /// writers (attach/detach) only swap an `Arc` in or out — chunk
    /// loading happens before the lock — so in-flight releases on other
    /// datasets never stall behind an admin op.
    datasets: RwLock<HashMap<String, Arc<DatasetState>>>,
    prepared: PreparedCache,
    /// Per-dataset budget shards (empty when unmetered). Entries are
    /// *never removed*: a detach leaves its dataset's spent ε in place,
    /// so a detach/re-attach cycle cannot launder budget.
    budgets: RwLock<HashMap<String, Arc<AtomicBudget>>>,
    /// The persistent store's live catalog (present only when a store
    /// path is configured).
    catalog: Option<Catalog>,
    /// Spent ε per dataset as replayed from the ledger at startup —
    /// consulted when a dataset attaches after startup, so its shard
    /// starts from the durable record rather than zero.
    replayed_spent: HashMap<String, f64>,
    /// The group-commit ledger (present only when a ledger path is set);
    /// internally synchronized, shared by every connection thread.
    ledger: Option<GroupCommitLedger>,
    release_seq: AtomicUsize,
    shutting_down: AtomicBool,
    active_connections: AtomicUsize,
    obs: Arc<Obs>,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("datasets", &self.dataset_names().len())
            .field("epsilon", &self.config.epsilon)
            .finish()
    }
}

impl ServerState {
    /// Builds the state: spins up the engine, loads datasets, opens and
    /// replays the ledger, restores accountants.
    ///
    /// # Errors
    ///
    /// Ledger I/O or corruption errors.
    pub fn new(config: ServerConfig) -> std::io::Result<ServerState> {
        let ctx = if config.threads == 0 {
            Context::default()
        } else {
            Context::with_threads(config.threads)
        };
        let obs = Arc::new(Obs::new(
            config.slow_query_ms,
            config.trace_capacity,
            config.log_stderr,
        ));
        let (ledger, replayed) = match &config.ledger_path {
            Some(path) => {
                let (ledger, records) = Ledger::open(path)?;
                let group = GroupCommitLedger::spawn(
                    ledger,
                    Duration::from_micros(config.ledger_commit_us),
                    Some(LedgerObs {
                        fsyncs: Arc::clone(&obs.m.ledger_fsyncs),
                        batch_size: Arc::clone(&obs.m.ledger_batch_size),
                        commit_wait: Arc::clone(&obs.m.ledger_commit_wait),
                    }),
                );
                (Some(group), records)
            }
            None => (None, Vec::new()),
        };
        let spent = spent_by_dataset(&replayed);
        let mut datasets = HashMap::new();
        let mut budgets = HashMap::new();
        for (i, spec) in config.datasets.iter().enumerate() {
            let upa_config = UpaConfig {
                epsilon: config.epsilon,
                sample_size: config.sample_size,
                seed: config.seed.wrapping_add(i as u64),
                ..UpaConfig::default()
            };
            datasets.insert(
                spec.name.clone(),
                Arc::new(DatasetState::from_spec(
                    spec,
                    Upa::new(ctx.clone(), upa_config),
                )),
            );
            if let Some(total) = config.budget {
                let used = spent.get(&spec.name).copied().unwrap_or(0.0);
                budgets.insert(spec.name.clone(), Arc::new(AtomicBudget::new(total, used)));
            }
        }
        let catalog = match &config.store_path {
            Some(root) => Some(
                Catalog::open(root, config.threads.max(2))
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        let state = ServerState {
            ctx,
            datasets: RwLock::new(datasets),
            prepared: PreparedCache::new(config.cache_capacity),
            budgets: RwLock::new(budgets),
            catalog,
            replayed_spent: spent,
            ledger,
            release_seq: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            obs,
            config,
        };
        for name in state.config.attach.clone() {
            state
                .attach_dataset(&name)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        Ok(state)
    }

    /// The observability hub (metrics registry, trace ring, event log).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The engine context (shared by every dataset's `Upa`).
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .datasets
            .read()
            .expect("datasets poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Whether a dataset of that name is currently served.
    pub fn has_dataset(&self, name: &str) -> bool {
        self.datasets
            .read()
            .expect("datasets poisoned")
            .contains_key(name)
    }

    /// Every served dataset's shape, sorted by name.
    pub fn dataset_infos(&self) -> Vec<DatasetInfo> {
        let mut infos: Vec<DatasetInfo> = self
            .datasets
            .read()
            .expect("datasets poisoned")
            .values()
            .map(|ds| {
                let mut columns: Vec<String> = ds.columns.keys().cloned().collect();
                columns.sort_unstable();
                DatasetInfo {
                    name: ds.name.clone(),
                    rows: ds.rows as u64,
                    columns,
                    resident_bytes: ds.resident_bytes as u64,
                }
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// The live catalog, when a store is configured.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.catalog.as_ref()
    }

    /// Datasets published in the store but not currently served, sorted
    /// (empty without a store).
    pub fn available_datasets(&self) -> Vec<String> {
        let Some(catalog) = &self.catalog else {
            return Vec::new();
        };
        let served = self.datasets.read().expect("datasets poisoned");
        let mut names: Vec<String> = catalog
            .available()
            .unwrap_or_default()
            .into_iter()
            .filter(|n| !served.contains_key(n))
            .collect();
        drop(served);
        names.sort_unstable();
        names
    }

    // ---- store admin ops ------------------------------------------------

    fn require_catalog(&self) -> Result<&Catalog, ServeError> {
        self.catalog
            .as_ref()
            .ok_or_else(|| ServeError::Store("no store directory configured".into()))
    }

    /// Seeds a freshly attached dataset's engine deterministically from
    /// the configured seed and the dataset name (attach order must not
    /// change the noise stream).
    fn attach_seed(&self, name: &str) -> u64 {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        self.config.seed ^ hasher.finish()
    }

    /// Ensures a metered dataset has a budget shard, seeding its spent ε
    /// from the ledger replay. Existing shards — including those left by
    /// a detach — are kept untouched, so re-attaching never resets spend.
    fn ensure_budget(&self, name: &str) {
        if let Some(total) = self.config.budget {
            let mut budgets = self.budgets.write().expect("budgets poisoned");
            budgets.entry(name.to_string()).or_insert_with(|| {
                let used = self.replayed_spent.get(name).copied().unwrap_or(0.0);
                Arc::new(AtomicBudget::new(total, used))
            });
        }
    }

    /// Attaches (or reloads) a store dataset into the serving set. The
    /// chunk load runs before any lock is taken; the datasets write lock
    /// is held only for the map insert. The dataset's budget shard —
    /// with any spend from a previous residency or the ledger replay —
    /// survives the cycle.
    ///
    /// # Errors
    ///
    /// Unknown dataset, corrupt chunks, or no configured store.
    pub fn attach_dataset(&self, name: &str) -> Result<AttachOutcome, ServeError> {
        let catalog = self.require_catalog()?;
        let (resident, reloaded) = catalog.attach(name)?;
        let upa_config = UpaConfig {
            epsilon: self.config.epsilon,
            sample_size: self.config.sample_size,
            seed: self.attach_seed(name),
            ..UpaConfig::default()
        };
        let ds = Arc::new(DatasetState::from_resident(
            &resident,
            Upa::new(self.ctx.clone(), upa_config),
        ));
        self.datasets
            .write()
            .expect("datasets poisoned")
            .insert(name.to_string(), ds);
        // Any cached prepare was computed over the previous data.
        self.prepared.purge_dataset(name);
        self.ensure_budget(name);
        Ok(AttachOutcome {
            dataset: name.to_string(),
            rows: resident.rows as u64,
            resident_bytes: resident.resident_bytes as u64,
            reloaded,
        })
    }

    /// Removes a dataset from the serving set. In-flight releases finish
    /// on their `Arc`s; the budget shard stays, so spent ε survives a
    /// detach/re-attach cycle.
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn detach_dataset(&self, name: &str) -> Result<(), ServeError> {
        self.datasets
            .write()
            .expect("datasets poisoned")
            .remove(name)
            .ok_or_else(|| ServeError::UnknownDataset(name.to_string()))?;
        if let Some(catalog) = &self.catalog {
            let _ = catalog.detach(name);
        }
        self.prepared.purge_dataset(name);
        Ok(())
    }

    /// Ingests a server-local CSV file into the store (columns that
    /// parse fully as numbers; others are skipped). The dataset is
    /// published atomically but *not* attached — serving it is a
    /// separate, explicit `attach`.
    ///
    /// # Errors
    ///
    /// Missing store, unreadable file, CSV/ingest failures, or an
    /// existing dataset of the same name.
    pub fn ingest_csv_file(
        &self,
        path: &Path,
        dataset: Option<&str>,
    ) -> Result<IngestReport, ServeError> {
        let catalog = self.require_catalog()?;
        let name = match dataset {
            Some(name) => name.to_string(),
            None => path
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
                .ok_or_else(|| {
                    ServeError::BadRequest("cannot derive a dataset name from the path".into())
                })?,
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Store(format!("read {}: {e}", path.display())))?;
        Ok(catalog
            .store()
            .ingest_csv(&name, &text, &IngestOptions::default())?)
    }

    /// Number of cached prepared queries.
    pub fn prepared_len(&self) -> usize {
        self.prepared.len()
    }

    /// Drops every cached prepare for `dataset` without touching its
    /// residency — the cold-prepare benchmarks' reset button.
    pub fn invalidate_prepared(&self, dataset: &str) {
        self.prepared.purge_dataset(dataset);
    }

    // ---- shutdown & admission ------------------------------------------

    /// Flags the server as draining; new requests are refused.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Tries to admit a connection against the cap; the guard releases
    /// the slot on drop.
    pub fn admit_connection(self: &Arc<Self>) -> Result<ConnectionGuard, ServeError> {
        if self.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        let prev = self.active_connections.fetch_add(1, Ordering::SeqCst);
        if prev >= self.config.max_connections {
            self.active_connections.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Busy);
        }
        Ok(ConnectionGuard {
            state: Arc::clone(self),
        })
    }

    /// Currently admitted connections.
    pub fn active_connections(&self) -> usize {
        self.active_connections.load(Ordering::SeqCst)
    }

    // ---- query path -----------------------------------------------------

    /// Clones the dataset's `Arc` out under the read lock; callers keep
    /// working on it even if the dataset is detached meanwhile.
    fn dataset(&self, name: &str) -> Result<Arc<DatasetState>, ServeError> {
        self.datasets
            .read()
            .expect("datasets poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownDataset(name.to_string()))
    }

    fn column_values(
        &self,
        ds: &DatasetState,
        kind: AggKind,
        column: &str,
    ) -> Result<Vec<f64>, ServeError> {
        if kind == AggKind::Count && column.is_empty() {
            return Ok(vec![0.0; ds.rows]);
        }
        ds.columns
            .get(column)
            .map(ColumnHandle::to_vec)
            .ok_or_else(|| ServeError::UnknownColumn {
                dataset: ds.name.clone(),
                column: column.to_string(),
            })
    }

    /// The chunk buffer to scan when this query should take the
    /// columnar path: the dataset is catalog-backed, columnar serving
    /// is enabled, and the addressed column holds shared chunks.
    /// `Ok(None)` routes to the row path; column-less `count` over a
    /// columnar dataset synthesises a single zero chunk, mirroring the
    /// row path's `vec![0.0; rows]` (bit-identical — chunk layout never
    /// reaches the fold boundaries).
    fn columnar_column(
        &self,
        ds: &DatasetState,
        kind: AggKind,
        column: &str,
    ) -> Result<Option<ColumnarBuf>, ServeError> {
        if !self.config.columnar {
            return Ok(None);
        }
        if kind == AggKind::Count && column.is_empty() {
            return Ok(ds.columnar.then(|| ColumnarBuf::zeros(ds.rows)));
        }
        match ds.columns.get(column) {
            Some(ColumnHandle::Columnar(buf)) => Ok(Some(buf.clone())),
            Some(ColumnHandle::Row(_)) => Ok(None),
            None => Err(ServeError::UnknownColumn {
                dataset: ds.name.clone(),
                column: column.to_string(),
            }),
        }
    }

    /// Canonical query identity.
    pub fn query_id(dataset: &str, kind: AggKind, column: &str) -> String {
        format!("{dataset}/{}/{column}", kind.as_str())
    }

    /// The cached prepared state for `(dataset, kind, column)`, if any —
    /// the zero-queue fast path's dispatch check, and the scheduler's
    /// single-flight double-check. A hit refreshes the entry's LRU
    /// recency.
    pub fn cached_prepared(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
    ) -> Option<Arc<PreparedAgg>> {
        let key: QueryKey = (dataset.to_string(), kind, column.to_string());
        self.prepared.get(&key)
    }

    /// Phases 1–3: prepares (or fetches from the shared cache) the query
    /// state. Returns `(prepared, query_id, cache_hit)`. The cache is
    /// shared across connections, so repeated releases of the same query
    /// reuse the engine work regardless of which client asked first.
    ///
    /// Concurrent callers with the same key may both run the engine (the
    /// cache stays consistent — last insert wins); the scheduler's
    /// single-flight layer is what guarantees one prepare per key under
    /// concurrency.
    ///
    /// # Errors
    ///
    /// Unknown dataset/column, or a pipeline failure.
    pub fn prepare(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
    ) -> Result<(Arc<PreparedAgg>, String, bool), ServeError> {
        let query_id = Self::query_id(dataset, kind, column);
        let key: QueryKey = (dataset.to_string(), kind, column.to_string());
        if let Some(p) = self.prepared.get(&key) {
            return Ok((p, query_id, true));
        }
        let ds = self.dataset(dataset)?;
        let query = build_agg_query(kind);
        let prepared = if let Some(buf) = self.columnar_column(&ds, kind, column)? {
            // Zero-copy cold path: phases 1–3 run chunk-at-a-time over
            // the store's shared buffers; the domain sampler resamples
            // straight from the same chunks. Bit-identical to the row
            // path under the same seed.
            let data = ColumnarDataset::new(&self.ctx, buf.clone());
            let domain = ColumnarEmpiricalSampler::new(buf);
            let mut upa = ds.upa.lock().expect("engine poisoned");
            upa.prepare_columnar(&data, &query, &domain)
                .map_err(|e| ServeError::Pipeline(e.to_string()))?
        } else {
            let values = self.column_values(&ds, kind, column)?;
            let data = self.ctx.parallelize_default(values.clone());
            let domain = EmpiricalSampler::new(values);
            let mut upa = ds.upa.lock().expect("engine poisoned");
            upa.prepare(&data, &query, &domain)
                .map_err(|e| ServeError::Pipeline(e.to_string()))?
        };
        let prepared = Arc::new(prepared);
        if self.prepared.insert(key, Arc::clone(&prepared)) {
            self.obs.m.cache_evictions.inc();
        }
        Ok((prepared, query_id, false))
    }

    /// Charges `epsilon` against `dataset`'s budget and makes the spend
    /// durable. This is the crash-safety boundary: once this returns
    /// `Ok`, the spend survives any crash; the caller may then (and only
    /// then) compute and deliver the noisy output.
    ///
    /// Lock-free: the budget check-and-reserve is one CAS on the
    /// dataset's [`AtomicBudget`] shard; durability is a submission to
    /// the group-commit ledger, which blocks until the record — batched
    /// with every concurrent spend — survives one shared fsync. A
    /// refused reservation leaves no ledger trace; a failed fsync
    /// refunds the reservation, so an I/O failure never leaks
    /// accounted-but-lost budget.
    ///
    /// # Errors
    ///
    /// Budget exhaustion, or a ledger append/fsync failure (in which
    /// case nothing stays charged).
    pub fn spend(
        &self,
        dataset: &str,
        query_id: &str,
        epsilon: f64,
    ) -> Result<Option<f64>, ServeError> {
        // Clone the shard `Arc` out once; the budgets lock is never held
        // across the reserve, the ledger fsync, or the refund.
        let shard = self
            .budgets
            .read()
            .expect("budgets poisoned")
            .get(dataset)
            .cloned();
        let reserved = match &shard {
            Some(shard) => Some(shard.try_reserve(epsilon).map_err(|remaining| {
                ServeError::BudgetExhausted {
                    remaining,
                    requested: epsilon,
                }
            })?),
            None => None,
        };
        if let Some(ledger) = &self.ledger {
            let submitted = ledger.submit(&SpendRecord {
                dataset: dataset.to_string(),
                query_id: query_id.to_string(),
                epsilon,
            });
            if let Err(msg) = submitted {
                if let Some(shard) = &shard {
                    shard.refund(epsilon);
                }
                return Err(ServeError::Ledger(msg));
            }
        }
        Ok(reserved)
    }

    /// The full release path: prepare (or cache-hit), charge + fsync the
    /// spend, then draw the noisy output. Convenience composition of
    /// [`ServerState::prepare`] and [`ServerState::release_prepared`]
    /// for in-process embedding; the daemon routes through the scheduler
    /// instead so identical concurrent prepares coalesce.
    ///
    /// # Errors
    ///
    /// Any of [`ServerState::prepare`] / [`ServerState::spend`] errors,
    /// or a pipeline failure in the release phase.
    pub fn release(
        &self,
        dataset: &str,
        kind: AggKind,
        column: &str,
        epsilon: Option<f64>,
        want_audit: bool,
    ) -> Result<ReleaseOutcome, ServeError> {
        let epsilon = epsilon.unwrap_or(self.config.epsilon);
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(ServeError::BadRequest("epsilon must be positive".into()));
        }
        let prep_start = Instant::now();
        let (prepared, query_id, cached) = self.prepare(dataset, kind, column)?;
        let prepare_us = (!cached).then(|| prep_start.elapsed().as_micros() as u64);
        let mut out =
            self.release_prepared(dataset, &query_id, &prepared, Some(epsilon), want_audit)?;
        out.cached = cached;
        out.prepare_us = prepare_us;
        Ok(out)
    }

    /// Phase 4 against already-prepared state: charge + fsync the spend,
    /// then draw one fresh noisy output from `prepared`. Every caller
    /// sharing one `prepared` gets an independent Laplace draw, and the
    /// budget is charged once per call — per release, not per prepare.
    ///
    /// # Errors
    ///
    /// Bad ε, budget/ledger refusals, or a pipeline failure.
    pub fn release_prepared(
        &self,
        dataset: &str,
        query_id: &str,
        prepared: &Arc<PreparedAgg>,
        epsilon: Option<f64>,
        want_audit: bool,
    ) -> Result<ReleaseOutcome, ServeError> {
        self.release_prepared_traced(dataset, query_id, prepared, epsilon, want_audit, None)
    }

    /// [`ServerState::release_prepared`] with span recording: the
    /// ledger-fsync and noise-draw timings land in the metrics
    /// histograms always, and as spans on `trace` when one is threaded
    /// through — along with the engine's audit span tree, rebased under
    /// `engine/`.
    ///
    /// # Errors
    ///
    /// As [`ServerState::release_prepared`].
    pub fn release_prepared_traced(
        &self,
        dataset: &str,
        query_id: &str,
        prepared: &Arc<PreparedAgg>,
        epsilon: Option<f64>,
        want_audit: bool,
        trace: Option<&Trace>,
    ) -> Result<ReleaseOutcome, ServeError> {
        let epsilon = epsilon.unwrap_or(self.config.epsilon);
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(ServeError::BadRequest("epsilon must be positive".into()));
        }
        if let Some(t) = trace {
            t.set_query_id(query_id);
        }
        let seq = self.release_seq.fetch_add(1, Ordering::SeqCst);
        // Fault points sit outside every lock so an injected panic kills
        // only this worker, never poisons shared state.
        if self.config.fault == ReleaseFault::BeforeLedger(seq) {
            panic!("injected fault: release {seq} dies before the ledger append");
        }
        let spend_start = Instant::now();
        let budget_remaining = self.spend(dataset, query_id, epsilon)?;
        if self.config.ledger_path.is_some() {
            // The spend is dominated by the ledger append + fsync; only
            // record it when a ledger is actually on the path.
            self.obs
                .m
                .ledger_fsync
                .record_duration(spend_start.elapsed());
            if let Some(t) = trace {
                t.span_since("ledger_fsync", spend_start);
            }
        }
        if self.config.fault == ReleaseFault::AfterLedger(seq) {
            panic!("injected fault: release {seq} dies after the ledger fsync");
        }

        let ds = self.dataset(dataset)?;
        let (result, audit) = {
            let mut upa = ds.upa.lock().expect("engine poisoned");
            upa.set_epsilon(epsilon)
                .map_err(|e: UpaError| ServeError::BadRequest(e.to_string()))?;
            let noise_start = Instant::now();
            let result = upa
                .release(prepared)
                .map_err(|e| ServeError::Pipeline(e.to_string()))?;
            self.obs.m.noise_draw.record_duration(noise_start.elapsed());
            if let Some(t) = trace {
                t.span_since("noise_draw", noise_start);
                // Graft the engine's view of this release under the
                // server trace, whether or not the client asked for the
                // audit payload.
                if let Some(a) = upa.last_audit() {
                    t.graft_engine(a.spans_rebased("engine"));
                }
            }
            let audit = want_audit.then(|| {
                let mut audit = upa.last_audit().cloned().expect("release records an audit");
                // The server's accountant is authoritative (the engine's
                // own budget is unset), so stamp the remaining budget in.
                audit.budget_remaining = budget_remaining;
                audit
            });
            (result, audit)
        };
        Ok(ReleaseOutcome {
            query_id: query_id.to_string(),
            released: result.released,
            epsilon,
            noise_scale: result.max_sensitivity() / epsilon,
            sample_size: result.sample_size,
            budget_remaining,
            // Callers that ran their own (cold) prepare restamp these.
            cached: true,
            prepare_us: None,
            audit,
        })
    }

    /// The dataset's budget as `(total, spent, remaining)` (`None` when
    /// unmetered).
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn budget_of(&self, dataset: &str) -> Result<Option<(f64, f64, f64)>, ServeError> {
        self.dataset(dataset)?;
        Ok(self
            .budgets
            .read()
            .expect("budgets poisoned")
            .get(dataset)
            .map(|b| (b.total(), b.spent(), b.remaining())))
    }

    /// Every metered dataset's budget as `(name, total, spent,
    /// remaining)`, sorted by name — the `metrics` op's per-dataset
    /// ε-remaining gauges.
    pub fn budgets(&self) -> Vec<(String, f64, f64, f64)> {
        let mut out: Vec<_> = self
            .budgets
            .read()
            .expect("budgets poisoned")
            .iter()
            .map(|(name, b)| (name.clone(), b.total(), b.spent(), b.remaining()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The dataset's most recent `last` audits, oldest first.
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn audits_of(&self, dataset: &str, last: usize) -> Result<Vec<QueryAudit>, ServeError> {
        let ds = self.dataset(dataset)?;
        let upa = ds.upa.lock().expect("engine poisoned");
        let audits = upa.audits();
        let skip = audits.len().saturating_sub(last);
        Ok(audits.iter().skip(skip).cloned().collect())
    }

    /// JSON audits of the dataset's most recent `last` releases, oldest
    /// first.
    ///
    /// # Errors
    ///
    /// Unknown dataset.
    pub fn audits_json(&self, dataset: &str, last: usize) -> Result<Vec<String>, ServeError> {
        Ok(self
            .audits_of(dataset, last)?
            .iter()
            .map(QueryAudit::to_json)
            .collect())
    }
}

/// RAII connection slot; frees the admission counter on drop.
#[derive(Debug)]
pub struct ConnectionGuard {
    state: Arc<ServerState>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.state.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(budget: Option<f64>, ledger: Option<PathBuf>) -> Arc<ServerState> {
        Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![DatasetSpec::synthetic("data", 2_000, 9)],
                budget,
                ledger_path: ledger,
                epsilon: 0.4,
                sample_size: 40,
                threads: 2,
                ..ServerConfig::default()
            })
            .unwrap(),
        )
    }

    fn temp_ledger(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("upa_state_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn prepare_caches_across_callers() {
        let state = state_with(None, None);
        let (_, id1, hit1) = state.prepare("data", AggKind::Sum, "v").unwrap();
        let (_, id2, hit2) = state.prepare("data", AggKind::Sum, "v").unwrap();
        assert_eq!(id1, "data/sum/v");
        assert_eq!(id1, id2);
        assert!(!hit1);
        assert!(hit2, "second prepare must be a cache hit");
        assert_eq!(state.prepared_len(), 1);
        // A different aggregate is a different cache entry.
        let (_, _, hit3) = state.prepare("data", AggKind::Mean, "v").unwrap();
        assert!(!hit3);
        assert_eq!(state.prepared_len(), 2);
    }

    #[test]
    fn release_charges_budget_and_persists() {
        let path = temp_ledger("charge");
        let state = state_with(Some(1.0), Some(path.clone()));
        let out = state
            .release("data", AggKind::Count, "", None, true)
            .unwrap();
        assert_eq!(out.query_id, "data/count/");
        assert_eq!(out.epsilon, 0.4);
        assert!((out.budget_remaining.unwrap() - 0.6).abs() < 1e-9);
        let audit = out.audit.expect("audit requested");
        assert_eq!(audit.query, "count");
        assert_eq!(audit.budget_remaining, Some(out.budget_remaining.unwrap()));

        // Restart against the same ledger: the spend survives.
        drop(state);
        let state2 = state_with(Some(1.0), Some(path.clone()));
        let (total, spent, remaining) = state2.budget_of("data").unwrap().unwrap();
        assert_eq!(total, 1.0);
        assert!((spent - 0.4).abs() < 1e-9);
        assert!((remaining - 0.6).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn over_budget_release_is_refused_without_ledger_trace() {
        let path = temp_ledger("refuse");
        let state = state_with(Some(0.5), Some(path.clone()));
        assert!(state
            .release("data", AggKind::Sum, "v", None, false)
            .is_ok());
        let err = state
            .release("data", AggKind::Sum, "v", None, false)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Budget);
        // The refused spend left no ledger line.
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_dataset_and_column_are_clean_errors() {
        let state = state_with(None, None);
        assert_eq!(
            state
                .release("nope", AggKind::Count, "", None, false)
                .unwrap_err()
                .code(),
            ErrorCode::UnknownDataset
        );
        assert_eq!(
            state
                .release("data", AggKind::Sum, "wrong", None, false)
                .unwrap_err()
                .code(),
            ErrorCode::UnknownColumn
        );
        assert_eq!(
            state
                .release("data", AggKind::Sum, "v", Some(-1.0), false)
                .unwrap_err()
                .code(),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn count_without_column_uses_row_count() {
        let state = state_with(None, None);
        let out = state
            .release("data", AggKind::Count, "", None, true)
            .unwrap();
        assert_eq!(out.sample_size, 40);
        let audit = out.audit.unwrap();
        assert_eq!(audit.query, "count");
    }

    #[test]
    fn releases_reuse_prepared_state_with_fresh_noise() {
        let state = state_with(None, None);
        let before = state.ctx().metrics();
        let a = state
            .release("data", AggKind::Sum, "v", None, false)
            .unwrap();
        let after_first = state.ctx().metrics().since(&before);
        assert!(after_first.stages > 0, "first release runs the engine");
        let mid = state.ctx().metrics();
        let b = state
            .release("data", AggKind::Sum, "v", None, false)
            .unwrap();
        let delta = state.ctx().metrics().since(&mid);
        assert_eq!(delta.stages, 0, "cached release must run no engine stages");
        assert_ne!(a.released, b.released, "fresh noise per release");
    }

    #[test]
    fn per_release_epsilon_override() {
        let state = state_with(Some(1.0), None);
        let out = state
            .release("data", AggKind::Count, "", Some(0.25), false)
            .unwrap();
        assert_eq!(out.epsilon, 0.25);
        assert!((out.budget_remaining.unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn release_prepared_draws_fresh_noise_per_caller() {
        let state = state_with(Some(2.0), None);
        let (prepared, query_id, _) = state.prepare("data", AggKind::Sum, "v").unwrap();
        let a = state
            .release_prepared("data", &query_id, &prepared, None, false)
            .unwrap();
        let b = state
            .release_prepared("data", &query_id, &prepared, None, false)
            .unwrap();
        assert_ne!(a.released, b.released, "independent draws");
        // Budget charged once per release, never per prepare.
        let (_, spent, _) = state.budget_of("data").unwrap().unwrap();
        assert!((spent - 0.8).abs() < 1e-9);
        assert_eq!(
            state
                .release_prepared("data", &query_id, &prepared, Some(f64::NAN), false)
                .unwrap_err()
                .code(),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn connection_admission_caps_and_releases() {
        let state = state_with(None, None);
        // Default cap is 64; tighten via a bespoke config.
        let tight = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![],
                max_connections: 1,
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        let g1 = tight.admit_connection().unwrap();
        assert_eq!(
            tight.admit_connection().unwrap_err().code(),
            ErrorCode::Busy
        );
        drop(g1);
        let _g2 = tight.admit_connection().unwrap();
        tight.begin_shutdown();
        assert_eq!(
            tight.admit_connection().unwrap_err().code(),
            ErrorCode::ShuttingDown
        );
        drop(state);
    }

    #[test]
    fn atomic_budget_reserves_refunds_and_fills_exactly() {
        let b = AtomicBudget::new(1.0, 0.0);
        // Ten tenths fill the budget exactly despite float rounding.
        for _ in 0..10 {
            b.try_reserve(0.1).expect("within budget");
        }
        let refused = b.try_reserve(0.1).unwrap_err();
        assert!(refused < 1e-9, "remaining should be ~0, got {refused}");
        // A refund restores exactly one reservation's worth.
        b.refund(0.1);
        assert!(b.try_reserve(0.1).is_ok());
        // Refunds clamp at zero — they can never manufacture budget.
        let empty = AtomicBudget::new(0.5, 0.1);
        empty.refund(5.0);
        assert_eq!(empty.spent(), 0.0);
        assert_eq!(empty.remaining(), 0.5);
    }

    #[test]
    fn concurrent_reservations_never_oversell_the_budget() {
        let b = Arc::new(AtomicBudget::new(1.0, 0.0));
        let granted = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            let granted = Arc::clone(&granted);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    if b.try_reserve(0.1).is_ok() {
                        granted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(granted.load(Ordering::SeqCst), 10, "exactly 1.0/0.1 grants");
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    fn lru_cache_evicts_the_coldest_entry_at_capacity() {
        let state = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![DatasetSpec::synthetic("data", 2_000, 9)],
                epsilon: 0.4,
                sample_size: 40,
                threads: 2,
                cache_capacity: 2,
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        state.prepare("data", AggKind::Sum, "v").unwrap();
        state.prepare("data", AggKind::Mean, "v").unwrap();
        assert_eq!(state.prepared_len(), 2);
        // Touch `sum` so `mean` is the LRU victim when `count` arrives.
        assert!(state.cached_prepared("data", AggKind::Sum, "v").is_some());
        state.prepare("data", AggKind::Count, "").unwrap();
        assert_eq!(state.prepared_len(), 2, "capacity bound holds");
        assert!(state.cached_prepared("data", AggKind::Sum, "v").is_some());
        assert!(
            state.cached_prepared("data", AggKind::Mean, "v").is_none(),
            "the least-recently-used entry was evicted"
        );
        assert_eq!(state.obs().m.cache_evictions.get(), 1);
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("upa_state_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn store_state(dir: &Path, budget: Option<f64>, ledger: Option<PathBuf>) -> Arc<ServerState> {
        Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![],
                budget,
                ledger_path: ledger,
                epsilon: 0.25,
                sample_size: 40,
                threads: 2,
                store_path: Some(dir.to_path_buf()),
                allow_admin: true,
                ..ServerConfig::default()
            })
            .unwrap(),
        )
    }

    fn ingest_column(dir: &Path, name: &str, values: Vec<f64>) {
        let store = upa_store::Store::open(dir).unwrap();
        let columns = vec![("v".to_string(), values)];
        store
            .ingest(
                name,
                &columns,
                &IngestOptions {
                    overwrite: true,
                    ..IngestOptions::default()
                },
            )
            .unwrap();
    }

    #[test]
    fn attach_detach_cycle_preserves_spent_budget() {
        let dir = temp_store("cycle");
        ingest_column(&dir, "live", (0..100).map(|i| (i % 7) as f64).collect());
        let state = store_state(&dir, Some(1.0), None);
        assert_eq!(state.available_datasets(), vec!["live".to_string()]);
        assert!(!state.has_dataset("live"));

        let out = state.attach_dataset("live").unwrap();
        assert_eq!(out.rows, 100);
        assert!(!out.reloaded, "first attach is not a reload");
        assert!(state.has_dataset("live"));
        assert!(state.available_datasets().is_empty());

        state
            .release("live", AggKind::Sum, "v", None, false)
            .unwrap();
        let (_, spent, _) = state.budget_of("live").unwrap().unwrap();
        assert!((spent - 0.25).abs() < 1e-9);

        state.detach_dataset("live").unwrap();
        assert!(!state.has_dataset("live"));
        assert_eq!(
            state
                .release("live", AggKind::Sum, "v", None, false)
                .unwrap_err()
                .code(),
            ErrorCode::UnknownDataset
        );
        // The budget shard outlives the residency.
        let shards = state.budgets();
        assert_eq!(shards.len(), 1);
        assert!(
            (shards[0].2 - 0.25).abs() < 1e-9,
            "spent ε kept while detached"
        );

        state.attach_dataset("live").unwrap();
        let (_, spent_after, _) = state.budget_of("live").unwrap().unwrap();
        assert!(
            (spent_after - 0.25).abs() < 1e-9,
            "spent ε unchanged across detach/re-attach"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reattach_reloads_fresh_data_and_purges_prepared_cache() {
        let dir = temp_store("reload");
        ingest_column(&dir, "hot", vec![1.0; 50]);
        let state = store_state(&dir, None, None);
        state.attach_dataset("hot").unwrap();
        state.prepare("hot", AggKind::Sum, "v").unwrap();
        assert!(state.cached_prepared("hot", AggKind::Sum, "v").is_some());

        // Re-publish with different data, then hot-reload.
        ingest_column(&dir, "hot", vec![2.0; 80]);
        let out = state.attach_dataset("hot").unwrap();
        assert!(out.reloaded, "attach-when-attached is a reload");
        assert_eq!(out.rows, 80);
        assert!(
            state.cached_prepared("hot", AggKind::Sum, "v").is_none(),
            "stale prepared state must not survive a reload"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_errors_are_clean() {
        // No store configured: attach is a store error, not a panic.
        let state = state_with(None, None);
        assert_eq!(
            state.attach_dataset("anything").unwrap_err().code(),
            ErrorCode::Store
        );
        // Store configured but the dataset is not published.
        let dir = temp_store("missing");
        let state = store_state(&dir, None, None);
        assert_eq!(
            state.attach_dataset("ghost").unwrap_err().code(),
            ErrorCode::UnknownDataset
        );
        assert_eq!(
            state.detach_dataset("ghost").unwrap_err().code(),
            ErrorCode::UnknownDataset
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_replay_seeds_budgets_of_late_attached_datasets() {
        let dir = temp_store("replay");
        ingest_column(&dir, "late", (0..60).map(|i| i as f64).collect());
        let ledger_path = temp_ledger("late_attach");

        // First life: attach, spend, die.
        let state = store_state(&dir, Some(1.0), Some(ledger_path.clone()));
        state.attach_dataset("late").unwrap();
        state
            .release("late", AggKind::Count, "", None, false)
            .unwrap();
        drop(state);

        // Second life: the dataset is not attached at startup, but its
        // replayed spend must seed the shard on a later attach.
        let state2 = store_state(&dir, Some(1.0), Some(ledger_path.clone()));
        assert!(!state2.has_dataset("late"));
        state2.attach_dataset("late").unwrap();
        let (total, spent, remaining) = state2.budget_of("late").unwrap().unwrap();
        assert_eq!(total, 1.0);
        assert!(
            (spent - 0.25).abs() < 1e-9,
            "replayed spend survives restart"
        );
        assert!((remaining - 0.75).abs() < 1e-9);
        let _ = std::fs::remove_file(&ledger_path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_attach_list_attaches_at_startup() {
        let dir = temp_store("startup");
        ingest_column(&dir, "boot", vec![3.0; 30]);
        let state = Arc::new(
            ServerState::new(ServerConfig {
                datasets: vec![],
                epsilon: 0.25,
                sample_size: 20,
                threads: 2,
                store_path: Some(dir.clone()),
                attach: vec!["boot".to_string()],
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        assert!(state.has_dataset("boot"));
        assert_eq!(state.dataset_infos()[0].rows, 30);
        // A bad startup attach is a constructor error, not a panic.
        let bad = ServerState::new(ServerConfig {
            datasets: vec![],
            store_path: Some(dir.clone()),
            attach: vec!["nope".to_string()],
            ..ServerConfig::default()
        });
        assert!(bad.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_seed_is_order_independent() {
        let dir = temp_store("seeds");
        ingest_column(&dir, "a", (0..40).map(|i| (i % 5) as f64).collect());
        ingest_column(&dir, "b", (0..40).map(|i| (i % 3) as f64).collect());

        let state_ab = store_state(&dir, None, None);
        state_ab.attach_dataset("a").unwrap();
        state_ab.attach_dataset("b").unwrap();
        let ab = state_ab
            .release("a", AggKind::Sum, "v", None, false)
            .unwrap();

        let state_ba = store_state(&dir, None, None);
        state_ba.attach_dataset("b").unwrap();
        state_ba.attach_dataset("a").unwrap();
        let ba = state_ba
            .release("a", AggKind::Sum, "v", None, false)
            .unwrap();

        assert_eq!(
            ab.released, ba.released,
            "attach order must not change a dataset's noise stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_csv_file_publishes_without_attaching() {
        let dir = temp_store("ingest");
        let csv = std::env::temp_dir().join(format!("upa_state_ingest_{}.csv", std::process::id()));
        std::fs::write(&csv, "v,label\n1.5,x\n2.5,y\n3.5,z\n").unwrap();
        let state = store_state(&dir, None, None);
        let report = state.ingest_csv_file(&csv, None).unwrap();
        // Name derives from the file stem; only numeric columns survive.
        assert!(report.dataset.starts_with("upa_state_ingest_"));
        assert_eq!(report.rows, 3);
        assert_eq!(report.columns, vec!["v".to_string()]);
        assert!(
            !state.has_dataset(&report.dataset),
            "ingest must not auto-attach"
        );
        assert_eq!(state.available_datasets(), vec![report.dataset.clone()]);

        // Explicit names and missing files are clean errors.
        assert_eq!(
            state
                .ingest_csv_file(Path::new("/nonexistent/x.csv"), Some("x"))
                .unwrap_err()
                .code(),
            ErrorCode::Store
        );
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn columnar_release_is_bit_identical_to_row_path() {
        let dir = temp_store("columnar_bits");
        {
            let store = upa_store::Store::open(&dir).unwrap();
            let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 101) as f64 - 17.0).collect();
            let columns = vec![("v".to_string(), values)];
            // Small chunks so the kernels cross many chunk boundaries.
            store
                .ingest(
                    "cols",
                    &columns,
                    &IngestOptions {
                        chunk_rows: 300,
                        overwrite: true,
                    },
                )
                .unwrap();
        }
        let make = |columnar: bool| {
            Arc::new(
                ServerState::new(ServerConfig {
                    datasets: vec![],
                    epsilon: 0.25,
                    sample_size: 64,
                    threads: 2,
                    store_path: Some(dir.clone()),
                    columnar,
                    ..ServerConfig::default()
                })
                .unwrap(),
            )
        };
        let col = make(true);
        let row = make(false);
        col.attach_dataset("cols").unwrap();
        row.attach_dataset("cols").unwrap();
        for (kind, column) in [
            (AggKind::Sum, "v"),
            (AggKind::Mean, "v"),
            (AggKind::Count, ""),
        ] {
            let a = col.release("cols", kind, column, None, true).unwrap();
            let b = row.release("cols", kind, column, None, true).unwrap();
            assert_eq!(
                a.released.to_bits(),
                b.released.to_bits(),
                "{kind:?} release must not depend on the execution path"
            );
            assert!(!a.cached, "first release of a key is a cold prepare");
            assert!(a.prepare_us.is_some(), "cold releases report prepare time");
        }
        // The second release of a key is a cache hit with no prepare cost.
        let again = col.release("cols", AggKind::Sum, "v", None, false).unwrap();
        assert!(again.cached);
        assert_eq!(again.prepare_us, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_parity_columnar_release_is_bit_identical_to_row_path() {
        // Values with random low mantissa bits land in both halves (a
        // uniform draw's low bits are mostly zero), so the columnar
        // path folds half 1 through the fused kernel as well; integer
        // data has even parity and leaves that half empty.
        use upa_stats::rng::{Rng, StdRng};
        let dir = temp_store("columnar_parity");
        let mut rng = StdRng::seed_from_u64(0x9a21);
        let values: Vec<f64> = (0..20_000)
            .map(|_| {
                f64::from_bits(rng.gen_range(1.0..1e3f64).to_bits() ^ rng.gen_range(0..1u64 << 20))
            })
            .collect();
        let odd = values.iter().filter(|x| x.to_bits() % 2 == 1).count();
        assert!((5_000..15_000).contains(&odd), "{odd} odd of 20000");
        upa_store::Store::open(&dir)
            .unwrap()
            .ingest(
                "parity",
                &[("v".to_string(), values)],
                &IngestOptions {
                    chunk_rows: 300,
                    overwrite: true,
                },
            )
            .unwrap();
        let make = |columnar: bool| {
            let state = ServerState::new(ServerConfig {
                epsilon: 0.25,
                sample_size: 64,
                threads: 2,
                store_path: Some(dir.clone()),
                columnar,
                ..ServerConfig::default()
            })
            .unwrap();
            state.attach_dataset("parity").unwrap();
            state
        };
        let (col, row) = (make(true), make(false));
        for (kind, column) in [
            (AggKind::Sum, "v"),
            (AggKind::Mean, "v"),
            (AggKind::Count, ""),
        ] {
            let a = col.release("parity", kind, column, None, true).unwrap();
            let b = row.release("parity", kind, column, None, true).unwrap();
            assert_eq!(
                a.released.to_bits(),
                b.released.to_bits(),
                "{kind:?} release must not depend on the execution path"
            );
            assert!(!a.cached && !b.cached);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audits_json_returns_recent_releases() {
        let state = state_with(None, None);
        for _ in 0..3 {
            state
                .release("data", AggKind::Sum, "v", None, false)
                .unwrap();
        }
        let audits = state.audits_json("data", 2).unwrap();
        assert_eq!(audits.len(), 2);
        assert!(audits[0].contains("\"query\":\"sum\""));
        assert!(state.audits_json("missing", 1).is_err());
    }
}
