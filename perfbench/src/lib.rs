//! End-to-end and per-layer benchmark of the mapping pipeline: request
//! generation, the in-process and served request loops, output checks,
//! and the traced stage-by-stage replay. `src/main.rs` is the command;
//! `run.py` builds it and `mapd`, then runs it.
#![forbid(unsafe_code)]

pub mod daemon;
pub mod replay;
pub mod run;
pub mod span;
pub mod stats;
pub mod workload;
pub mod yardstick;
