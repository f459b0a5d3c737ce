//! # ckpt-bench — the experiment harness
//!
//! One function per reproduction target (see DESIGN.md §3): `T1`/`F1`
//! regenerate the paper's table and figure; `C1..C8` quantify the paper's
//! qualitative claims. Every function returns a formatted text block; the
//! `report` binary prints them, and the test/bench suites call the same
//! functions — the published numbers are the tested numbers.
//!
//! The public API is what the `report` binary and the golden tests call:
//! the experiments pinned by goldens (`c11`–`c16`), [`run_all`],
//! [`run_timings`], and the sweep, artifact and runbook modules.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod artifact;
mod experiments;
mod fmt;
pub mod registry;
pub mod runbook;
pub mod sweep;
pub mod swept;
pub mod timing;

pub use experiments::{c11_crash_matrix, c13_dedup, c15_livemig};
pub use swept::{c12_replication, c14_shard, c16_erasure};
pub use registry::run_all;
pub use timing::run_timings;
