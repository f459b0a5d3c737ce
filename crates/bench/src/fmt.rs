//! Tiny text-table formatter for experiment output.

/// Format a table: header row + data rows, columns padded.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:<w$} ", h, w = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            out.push_str(&format!("| {:<w$} ", cell, w = widths[i]));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Human-readable nanoseconds.
pub(crate) fn ns(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.2} s", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.2} ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1} us", v as f64 / 1e3)
    } else {
        format!("{v} ns")
    }
}

/// Human-readable bytes.
pub(crate) fn bytes(v: u64) -> String {
    if v >= 1 << 20 {
        format!("{:.2} MiB", v as f64 / (1u64 << 20) as f64)
    } else if v >= 1 << 10 {
        format!("{:.1} KiB", v as f64 / 1024.0)
    } else {
        format!("{v} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_pads_columns() {
        let t = table(
            &["a", "long-header"],
            &[vec!["xxxx".into(), "y".into()]],
        );
        assert!(t.contains("| xxxx | y           |"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn humanized_units() {
        assert_eq!(ns(50), "50 ns");
        assert_eq!(ns(1_500), "1.5 us");
        assert_eq!(ns(2_500_000), "2.50 ms");
        assert_eq!(ns(3_000_000_000), "3.00 s");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2048), "2.0 KiB");
        assert_eq!(bytes(3 << 20), "3.00 MiB");
    }
}
