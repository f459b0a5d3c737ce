//! What the run cost this host: CPU seconds and peak resident memory, read
//! from `/proc` (the sandbox is Linux; anywhere else both read as absent).

/// User + system CPU seconds of this process so far, all threads, ended
/// pool workers included. `/proc/self/stat` counts in clock ticks of
/// 1/100 s on every Linux this runs on.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of stat(5), so utime (14) and
    // stime (15) sit at offsets 11 and 12.
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_sane() {
        let mut x = 0u64;
        for i in 0..40_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let cpu = cpu_s().expect("linux /proc");
        assert!((0.0..3600.0).contains(&cpu));
        let rss = peak_rss_mib().expect("linux /proc");
        assert!(rss > 0.5 && rss < 65536.0);
    }
}
