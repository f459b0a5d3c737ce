//! # ckpt-survey — the twelve surveyed systems, executable
//!
//! This crate closes the loop on the reproduction: the paper's two
//! artifacts are **regenerated from the implementations**, not
//! transcribed.
//!
//! * the systems — one table, [`SYSTEMS`], whose rows ([`System`]) give
//!   each surveyed system's (VMADump … Checkpoint) name, module, storage
//!   column and notes, and build it as a configuration of the `ckpt-core`
//!   mechanism framework against a live kernel;
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
pub use systems::{System, SYSTEMS};
pub use table1::{
    generated as table1_generated, paper as table1_paper, render as render_table1, table,
};
