//! # ckpt-survey — the twelve surveyed systems, executable
//!
//! This crate closes the loop on the reproduction: the paper's two
//! artifacts are **regenerated from the implementations**, not
//! transcribed.
//!
//! * [`systems`] — each surveyed system (VMADump … Checkpoint) as a
//!   configuration of the `ckpt-core` mechanism framework, buildable
//!   against a live kernel;
//! * [`table1`] — the feature matrix derived from mechanism metadata, with
//!   a diff test against the table as printed in the paper;
//! * [`figure1`] — the taxonomy tree, every leaf of which names the
//!   workspace module that implements it.

#![forbid(unsafe_code)]

pub mod figure1;
pub mod systems;
pub mod table1;

pub use figure1::{render as render_figure1, taxonomy, TaxonomyNode};
pub use systems::{StorageSupport, SurveyedSystem, SystemId, TableRow};
pub use table1::{generated as table1_generated, paper as table1_paper, render as render_table1};
