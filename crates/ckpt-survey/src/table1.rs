//! Table 1 of the paper, regenerated from the implemented systems.
//!
//! [`generated`] derives every row from live mechanism metadata
//! ([`crate::systems`]); [`paper`] transcribes the table as printed in the
//! paper. The test suite asserts they are identical — i.e. the twelve
//! implementations really have the properties the survey reports.

use crate::systems::{TableRow, SYSTEMS};

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
    SYSTEMS.iter().map(|s| s.table_row()).collect()
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
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            [
                r.name,
                r.incremental,
                r.transparency,
                r.stable_storage,
                r.initiation,
                r.kernel_module,
            ]
            .map(String::from)
            .to_vec()
        })
        .collect();
    table(&HEADERS, &cells)
}

/// Format a text table: the header row, a rule, the data rows, each
/// column padded to its widest cell and framed by `+---+` rules.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut widths = vec![0; headers.len()];
    for row in std::iter::once(&header).chain(rows) {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+\n";
    let mut out = rule.clone();
    for (i, row) in std::iter::once(&header).chain(rows).enumerate() {
        for (w, cell) in widths.iter().zip(row) {
            out.push_str(&format!("| {cell:<w$} "));
        }
        out.push_str("|\n");
        if i == 0 {
            out.push_str(&rule);
        }
    }
    out + &rule
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
    fn table_pads_columns() {
        let t = table(&["a", "long-header"], &[vec!["xxxx".into(), "y".into()]]);
        assert!(t.contains("| xxxx | y           |"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn render_contains_all_systems_and_headers() {
        let s = render(&generated());
        for h in HEADERS {
            assert!(s.contains(h));
        }
        for sys in &SYSTEMS {
            assert!(s.contains(sys.name), "{} missing", sys.name);
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
