//! # ckpt-survey — the twelve surveyed systems, executable
//!
//! This crate closes the loop on the reproduction: the paper's two
//! artifacts are **regenerated from the implementations**, not
//! transcribed.
//!
//! * the systems — each surveyed system (VMADump … Checkpoint) as a
//!   configuration of the `ckpt-core` mechanism framework, buildable
//!   against a live kernel ([`SurveyedSystem`], [`SystemId`]);
//! * Table 1 — the feature matrix derived from mechanism metadata, with
//!   a diff test against the table as printed in the paper
//!   ([`table1_generated`], [`table1_paper`], [`render_table1`]);
//! * Figure 1 — the taxonomy tree, every leaf of which names the
//!   workspace module that implements it ([`taxonomy`],
//!   [`render_figure1`]).
//!
//! Those names are the public API.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod figure1;
mod systems;
mod table1;

pub use figure1::{render as render_figure1, taxonomy};
pub use systems::{SurveyedSystem, SystemId};
pub use table1::{generated as table1_generated, paper as table1_paper, render as render_table1};
