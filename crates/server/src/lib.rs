//! `upa-server` — a concurrent query-serving daemon for the UPA
//! pipeline with a crash-safe privacy-budget ledger.
//!
//! The library turns the single-process [`upa_core::Upa`] engine into a
//! long-running service, std-only (no async runtime, no serde — the
//! protocol is hand-rolled line-delimited JSON over `std::net` TCP):
//!
//! * [`server::Server`] — accept loop, thread-per-connection workers,
//!   graceful draining shutdown;
//! * [`sched::Scheduler`] — the scheduling layer between connections
//!   and the serving state: per-dataset bounded queues drained
//!   round-robin by a worker pool, single-flight request coalescing
//!   (concurrent identical queries share one prepare while each draws
//!   its own noisy release), and `deadline_ms` shedding;
//! * [`state::ServerState`] — the shared serving state: per-dataset
//!   engines, a cross-connection LRU prepared-query cache (repeat
//!   releases are zero-stage and skip the scheduler entirely — the
//!   zero-queue fast path), and lock-free sharded budget accounting
//!   ([`state::AtomicBudget`]);
//! * [`agg`] — the served count/sum/mean aggregates as Map/Reduce
//!   queries, and the parity-routed fused kernel their columnar scans
//!   fold through;
//! * [`ledger::Ledger`] — the append-only, checksummed,
//!   fsync-before-release spend log that makes budget accounting
//!   survive `SIGKILL`, fronted by the group-committing
//!   [`ledger::GroupCommitLedger`] so concurrent releases share one
//!   fsync;
//! * [`proto`] — the typed wire protocol: [`proto::Request`],
//!   [`proto::Response`], and the closed [`proto::ErrorCode`] set
//!   shared by both sides;
//! * [`obs`] — server-wide observability: the metrics registry
//!   (counters, gauges, log-linear latency histograms), per-request
//!   traces with engine-span grafting, and the structured JSON event
//!   log behind the `metrics`/`trace` wire ops;
//! * [`client::Client`] — the protocol client, with
//!   [`client::Client::builder`] for timeouts and jittered retry on
//!   `busy`;
//! * [`wire`] — the minimal JSON parser/printer behind both ends.
//!
//! The crate ships one binary, `upa-serverd`, used by the integration
//! tests (SIGKILL crash-recovery, saturation) and wrapped by
//! `upa-cli serve`.

pub mod agg;
pub mod client;
pub mod ledger;
pub mod obs;
pub mod proto;
pub mod sched;
pub mod server;
pub mod state;
pub mod wire;

pub use agg::AggKind;
pub use client::{BudgetReply, Client, ClientBuilder, ClientError, PrepareReply, ReleaseReply};
pub use ledger::{GroupCommitLedger, Ledger, LedgerObs, SpendRecord};
pub use obs::{HistogramSnapshot, Obs, RegistrySnapshot, Trace, TraceRecord, TraceStore};
pub use proto::{
    audit_from_json, DatasetsReply, ErrorCode, MetricsReply, PreparedInfo, Request, Response,
    StatsReply,
};
pub use sched::{JobOp, JobOutput, SchedStats, Scheduler, SchedulerHandle};
pub use server::{Server, ShutdownHandle};
pub use state::{
    AtomicBudget, AttachOutcome, DatasetInfo, DatasetSpec, ReleaseFault, ServeError, ServerConfig,
    ServerState,
};
