//! What every workload shares: the run options, the closed measuring loop
//! over whole cycles, and the end-to-end summary (median over run
//! segments, with each segment spread printed as ungated noise).

use crate::host;
use crate::metrics::Report;
use crate::span::Recorder;
use crate::stats::{iqr_share, median, percentile, segments};
use std::path::PathBuf;
use std::time::Instant;

/// How one process runs one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measure whole cycles until this much timed work has been done.
    pub seconds: f64,
    /// Measure exactly this many cycles instead (repeat checks, smoke).
    pub cycles: Option<u64>,
    /// Width of the one `ckpt-par` pool every layer shares.
    pub workers: usize,
    /// Tiny guests and op lists; every verification still runs.
    pub smoke: bool,
    pub trace: bool,
    /// Where the traced run writes its spans when it ends.
    pub spans_out: Option<PathBuf>,
}

impl Opts {
    /// Pool width the benchmark pins: both cores of the sandbox, never
    /// more, so results do not depend on `CKPT_PAR_WORKERS` or core count.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }
}

/// Times set-up runs per process; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Segments a run is cut into for medians and noise.
const SEGMENTS: usize = 5;

pub const MIB: f64 = (1u64 << 20) as f64;

/// One pass over a workload's fixed op list.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    /// Host seconds inside timed spans (verification is outside them).
    pub timed_s: f64,
    /// CPU seconds of the whole cycle, filled in by [`run_cycles`].
    pub cpu_s: f64,
    /// Units of the workload's own work completed (rounds, rank-steps,
    /// cells).
    pub work: f64,
    /// Latency samples of the workload's main operation, in ms.
    pub op_ms: Vec<f64>,
    /// Checkpoint side, where the workload has one: host seconds inside
    /// checkpoint calls, guest bytes captured, simulated cost, call count.
    pub ckpt_s: f64,
    pub ckpt_bytes: u64,
    pub virt_ckpt_ns: u64,
    pub ckpts: u64,
    /// Restart side, likewise.
    pub restart_ms: Vec<f64>,
    pub restart_bytes: u64,
    pub virt_restart_ns: u64,
}

/// Build the world [`SETUP_REPEATS`] times, keep the last, and report the
/// median build time as `setup_s`.
pub fn timed_setup<W>(report: &mut Report, mut build: impl FnMut() -> W) -> W {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        let t = Instant::now();
        world = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&times));
    world.expect("SETUP_REPEATS is at least one")
}

/// The closed loop: one driver thread runs whole cycles back to back until
/// the timed work reaches `opts.seconds` (or `opts.cycles` cycles ran).
pub fn run_cycles(opts: &Opts, mut one_cycle: impl FnMut(u64) -> Cycle) -> Vec<Cycle> {
    let mut out = Vec::new();
    let mut timed = 0.0;
    loop {
        let cpu0 = host::cpu_s().unwrap_or(0.0);
        let mut c = one_cycle(out.len() as u64);
        c.cpu_s = host::cpu_s().unwrap_or(0.0) - cpu0;
        timed += c.timed_s;
        out.push(c);
        let done = match opts.cycles {
            Some(n) => out.len() as u64 >= n,
            None => timed >= opts.seconds,
        };
        if done {
            return out;
        }
    }
}

/// Write the traced run's spans to `opts.spans_out`, if asked to. Spans
/// leave memory only here, when the run has ended.
pub fn dump_spans(report: &mut Report, rec: &Recorder, opts: &Opts) {
    let Some(path) = &opts.spans_out else { return };
    let dumped = std::fs::File::create(path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        rec.dump(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = dumped {
        report.attempted += 1;
        report.fail(format!("span dump to {}: {e}", path.display()));
    }
}

/// Set `name` to the median of `per_segment` and print its spread.
fn set_with_noise(report: &mut Report, name: &str, per_segment: &[f64]) {
    report.set(name, median(per_segment));
    report.set(&format!("noise.{name}_iqr_share"), iqr_share(per_segment));
}

/// The end-to-end metrics of an untraced run, from its cycles: the
/// contract set for every workload, and the checkpoint/restart extras for
/// the workloads that have those operations.
pub fn summarize(report: &mut Report, cycles: &[Cycle]) {
    report.cycles = cycles.len() as u64;
    let (mut rate, mut p50, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ckpt_rate, mut restart_rate) = (Vec::new(), Vec::new());
    for seg in segments(cycles.len(), SEGMENTS) {
        let cs = &cycles[seg];
        let work: f64 = cs.iter().map(|c| c.work).sum();
        rate.push(work / cs.iter().map(|c| c.timed_s).sum::<f64>());
        // The 10 ms CPU tick can read 0 over a smoke-sized segment and
        // the contract wants no zeros: floor at 1 us per unit of work.
        cpu.push((cs.iter().map(|c| c.cpu_s).sum::<f64>() * 1e3 / work).max(1e-3));
        let ops: Vec<f64> = cs.iter().flat_map(|c| c.op_ms.iter().copied()).collect();
        p50.push(median(&ops));
        let ckpt_s: f64 = cs.iter().map(|c| c.ckpt_s).sum();
        if ckpt_s > 0.0 {
            ckpt_rate.push(cs.iter().map(|c| c.ckpt_bytes).sum::<u64>() as f64 / MIB / ckpt_s);
        }
        let restart_s: f64 = cs.iter().flat_map(|c| &c.restart_ms).sum::<f64>() / 1e3;
        if restart_s > 0.0 {
            restart_rate
                .push(cs.iter().map(|c| c.restart_bytes).sum::<u64>() as f64 / MIB / restart_s);
        }
    }
    set_with_noise(report, "work_per_s", &rate);
    set_with_noise(report, "op_ms_p50", &p50);
    set_with_noise(report, "cpu_ms_per_work", &cpu);
    report.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0));
    report.set(
        "ok_ops_share",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    let ops: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.op_ms.iter().copied())
        .collect();
    report.set("count.op_samples", ops.len() as f64);

    let ckpts: u64 = cycles.iter().map(|c| c.ckpts).sum();
    if ckpts > 0 {
        set_with_noise(report, "ckpt_mib_per_s", &ckpt_rate);
        // p90 only when at least ten samples lie beyond it.
        if let Some(p90) = percentile(&ops, 0.9) {
            report.set("ckpt_ms_p90", p90);
        }
        let virt: u64 = cycles.iter().map(|c| c.virt_ckpt_ns).sum();
        if virt > 0 {
            report.set("virt_ckpt_ms", virt as f64 / ckpts as f64 / 1e6);
        }
    }
    let restarts: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.restart_ms.iter().copied())
        .collect();
    if !restarts.is_empty() {
        set_with_noise(report, "restart_mib_per_s", &restart_rate);
        report.set("restart_ms_p50", median(&restarts));
        report.set("count.restart_samples", restarts.len() as f64);
        let virt: u64 = cycles.iter().map(|c| c.virt_restart_ns).sum();
        if virt > 0 {
            report.set("virt_restart_ms", virt as f64 / restarts.len() as f64 / 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_the_median_over_segments() {
        // Ten cycles, the last two slow: the median segment ignores them.
        let cycles: Vec<Cycle> = (0..10)
            .map(|i| Cycle {
                timed_s: if i < 8 { 1.0 } else { 2.0 },
                cpu_s: 0.5,
                work: 4.0,
                op_ms: vec![if i < 8 { 10.0 } else { 30.0 }; 4],
                ckpt_s: 0.5,
                ckpt_bytes: 4 << 20,
                virt_ckpt_ns: 8_000_000,
                ckpts: 4,
                ..Cycle::default()
            })
            .collect();
        let mut r = Report::new("w", 1, false, 2);
        r.attempted = 40;
        summarize(&mut r, &cycles);
        assert_eq!(r.cycles, 10);
        assert_eq!(r.get("work_per_s"), Some(4.0));
        assert_eq!(r.get("op_ms_p50"), Some(10.0));
        assert_eq!(r.get("cpu_ms_per_work"), Some(125.0));
        assert_eq!(r.get("ok_ops_share"), Some(1.0));
        assert!(r.get("noise.work_per_s_iqr_share").unwrap() > 0.0);
        assert_eq!(r.get("count.op_samples"), Some(40.0));
        assert_eq!(r.get("ckpt_mib_per_s"), Some(8.0));
        assert_eq!(r.get("virt_ckpt_ms"), Some(2.0));
        assert_eq!(r.get("ckpt_ms_p90"), None, "40 samples cannot carry a p90");
        assert_eq!(
            r.get("restart_ms_p50"),
            None,
            "no restarts, no restart metrics"
        );
    }

    #[test]
    fn loop_stops_on_time_or_on_a_fixed_cycle_count() {
        let base = Opts {
            seed: 1,
            seconds: 2.5,
            cycles: None,
            workers: 1,
            smoke: true,
            trace: false,
            spans_out: None,
        };
        let one = |_| Cycle {
            timed_s: 1.0,
            work: 1.0,
            ..Cycle::default()
        };
        assert_eq!(
            run_cycles(&base, one).len(),
            3,
            "whole cycles until 2.5 s are covered"
        );
        let fixed = Opts {
            cycles: Some(2),
            ..base
        };
        assert_eq!(run_cycles(&fixed, one).len(), 2);
    }
}
