//! Table 1 of the paper, regenerated from the implemented systems.
//!
//! [`generated`] derives every row from live mechanism metadata
//! ([`crate::systems`]); [`paper`] transcribes the table as printed in the
//! paper. The test suite asserts they are identical — i.e. the twelve
//! implementations really have the properties the survey reports.

use crate::systems::{SurveyedSystem, SystemId, TableRow};

/// Column headers, in the paper's order.
pub(crate) const HEADERS: [&str; 6] = [
    "Name",
    "Incremental checkpointing",
    "Transparency",
    "Stable storage",
    "Initiation",
    "kernel module",
];

/// The table as generated from the implementations.
pub fn generated() -> Vec<TableRow> {
    SystemId::ALL
        .iter()
        .map(|id| SurveyedSystem::get(*id).table_row())
        .collect()
}

/// The table as printed in the paper (ground truth for the diff test).
pub fn paper() -> Vec<TableRow> {
    let row = |name, incremental, transparency, stable_storage, initiation, kernel_module| {
        TableRow {
            name,
            incremental,
            transparency,
            stable_storage,
            initiation,
            kernel_module,
        }
    };
    vec![
        row("VMADump", "no", "no", "local,remote", "automatic", "no"),
        row("BPROC", "no", "no", "none", "automatic", "no"),
        row("EPCKPT", "no", "yes", "local,remote", "user", "no"),
        row("CRAK", "no", "yes", "local,remote", "user", "yes"),
        row("UCLik", "no", "yes", "local", "user", "yes"),
        row("CHPOX", "no", "yes", "local", "user", "yes"),
        row("ZAP", "no", "yes", "none", "user", "yes"),
        row("BLCR", "no", "no", "local,remote", "user", "yes"),
        row("LAM/MPI", "no", "no", "local,remote", "user", "yes"),
        row("PsncR/C", "no", "yes", "local", "user", "yes"),
        row("Software Suspend", "no", "yes", "local", "user", "no"),
        row("Checkpoint", "no", "no", "local", "automatic", "no"),
    ]
}

/// Render rows as a fixed-width ASCII table.
pub fn render(rows: &[TableRow]) -> String {
    let cols: Vec<Vec<String>> = {
        let mut c = vec![Vec::new(); 6];
        for (i, h) in HEADERS.iter().enumerate() {
            c[i].push(h.to_string());
        }
        for r in rows {
            c[0].push(r.name.to_string());
            c[1].push(r.incremental.to_string());
            c[2].push(r.transparency.to_string());
            c[3].push(r.stable_storage.to_string());
            c[4].push(r.initiation.to_string());
            c[5].push(r.kernel_module.to_string());
        }
        c
    };
    let widths: Vec<usize> = cols
        .iter()
        .map(|c| c.iter().map(|s| s.len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    for row_idx in 0..cols[0].len() {
        for (ci, c) in cols.iter().enumerate() {
            out.push_str(&format!("| {:<width$} ", c[row_idx], width = widths[ci]));
        }
        out.push_str("|\n");
        if row_idx == 0 {
            line(&mut out);
        }
    }
    line(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_table_matches_the_paper_exactly() {
        let gen = generated();
        let expect = paper();
        assert_eq!(gen.len(), expect.len());
        for (g, e) in gen.iter().zip(&expect) {
            assert_eq!(g, e, "row for {} diverges from the paper", e.name);
        }
    }

    #[test]
    fn render_contains_all_systems_and_headers() {
        let s = render(&generated());
        for h in HEADERS {
            assert!(s.contains(h));
        }
        for id in SystemId::ALL {
            assert!(s.contains(id.display_name()), "{id:?} missing");
        }
    }

    #[test]
    fn no_surveyed_system_implements_incremental_checkpointing() {
        // The paper's headline observation: "incremental checkpointing has
        // not yet been implemented in any of the packages."
        for row in generated() {
            assert_eq!(row.incremental, "no", "{}", row.name);
        }
    }

    #[test]
    fn most_systems_are_user_initiated_with_local_storage() {
        let rows = generated();
        let user = rows.iter().filter(|r| r.initiation == "user").count();
        assert!(user >= 9, "the paper: most provide user-initiation");
        let local_only = rows
            .iter()
            .filter(|r| r.stable_storage == "local")
            .count();
        assert!(local_only >= 5, "most store locally — the FT weakness");
    }
}
