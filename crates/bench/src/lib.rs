//! # ckpt-bench — the experiment harness
//!
//! One function per reproduction target (see DESIGN.md §3): `T1`/`F1`
//! regenerate the paper's table and figure; `C1..C8` quantify the paper's
//! qualitative claims. Every function returns a formatted text block; the
//! `report` binary prints them, and the test/bench suites call the same
//! functions — the published numbers are the tested numbers.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod experiments;
pub mod fmt;
pub mod registry;
pub mod runbook;
pub mod sweep;
pub mod swept;
pub mod timing;

pub use experiments::*;
pub use registry::run_all;
pub use timing::run_timings;
