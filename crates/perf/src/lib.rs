//! mixtlb-perf — the perfgate benchmarking subsystem.
//!
//! Three pieces, one contract:
//!
//! * [`corpus`](self) — the pinned benchmark corpus: six fig. 9
//!   workloads frozen as compressed v2 traces under `crates/perf/corpus`,
//!   regenerable bit-identically from [`corpus_config`].
//! * [`harness`](self) — warmup + repeated timed replays of a trace
//!   through a design's [`mixtlb_sim::TranslationEngine`], reported as
//!   median/min ns per translation: the scalar per-event path, the
//!   batched [`translate_batch`] path over in-memory events, the
//!   work-stealing path on N cores, and the stream path, which decodes
//!   the on-disk corpus one block at a time on the caller's thread and
//!   translates each block before reading the next.
//! * [`report`](self) — `BENCH_<pr>.json` serialization plus the
//!   normalized regression [`gate`] CI runs against the previously
//!   committed report.
//!
//! The `perfgate` binary (`crates/perf/src/bin/perfgate.rs`) wires these
//! into `gen-corpus` / `measure` / `gate` / `self-test` subcommands; see
//! EXPERIMENTS.md for the runbook.
//!
//! [`translate_batch`]: mixtlb_sim::TranslationEngine::translate_batch

#![warn(missing_docs)]

mod corpus;
mod harness;
mod report;

pub use corpus::{
    config_fingerprint, corpus_catalog, corpus_config, corpus_path, default_corpus_dir,
    file_fingerprint, generate_events, load_events, prepare_scenario, write_corpus_file,
    CorpusWorkload,
};
pub use harness::{
    replay_batched, replay_scalar, replay_stream_batched, replay_ws, time_reps, Timing,
};
pub use report::{
    gate, gate_aggregate, path_at_cores, BenchRecord, BenchReport, CorpusFileInfo, GateOutcome,
    BASELINE_DESIGN, PATH_BATCHED, PATH_SCALAR, PATH_STREAM_BATCHED, PATH_WS_BATCHED,
};
