//! Human-readable units for experiment output (the tables are
//! [`ckpt_survey::table`]'s).

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
