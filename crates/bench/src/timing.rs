//! Wall-clock timing of the experiment suite (`report timings`).
//!
//! Virtual time is what the experiments are *about*; wall-clock is what
//! they *cost*. This module measures the latter per experiment, writes
//! `BENCH_report.json` (CI archives the file) and enforces the two
//! wall-clock ceilings itself, so a translation-cache regression shows up
//! as a red build naming the experiment, not a slowly rotting report.

use crate::artifact::{canonical_document, Json};
use crate::registry::{suite_ceiling_s, HEADLINE_CEILING, REGISTRY};
use std::time::Instant;

/// One experiment's measurement.
pub struct ExperimentTiming {
    pub name: &'static str,
    pub wall_s: f64,
    /// The registry's `baseline_s` for this experiment.
    pub baseline_s: f64,
    /// Bytes of report output produced (a cheap sanity signal that the
    /// experiment actually ran).
    pub output_bytes: usize,
}

/// Run every `timed` experiment of the registry, timing each. Output text
/// is discarded; only wall-clock and output size are kept.
pub fn measure_all() -> Vec<ExperimentTiming> {
    REGISTRY
        .iter()
        .filter(|e| e.timed)
        .map(|e| {
            let start = Instant::now();
            let out = (e.run)();
            ExperimentTiming {
                name: e.name,
                wall_s: start.elapsed().as_secs_f64(),
                baseline_s: e.baseline_s,
                output_bytes: out.len(),
            }
        })
        .collect()
}

fn total_wall_s(timings: &[ExperimentTiming]) -> f64 {
    timings.iter().map(|t| t.wall_s).sum()
}

/// Render timings as a canonical JSON document (see [`crate::artifact`]),
/// like every other artifact CI archives.
pub fn timings_json(timings: &[ExperimentTiming]) -> String {
    let experiments = timings
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::from(t.name)),
                ("output_bytes", Json::from(t.output_bytes)),
                ("wall_s", Json::from(t.wall_s)),
            ])
        })
        .collect();
    canonical_document(&Json::obj(vec![
        ("experiments", Json::Arr(experiments)),
        ("total_wall_s", Json::from(total_wall_s(timings))),
    ]))
}

/// Render timings as an aligned human-readable table: wall-clock,
/// baseline and delta per experiment, so drift is attributable to one
/// experiment on every run, not only on a failing one.
pub fn timings_table(timings: &[ExperimentTiming]) -> String {
    let mut s = String::from("experiment                 wall_s baseline   delta\n");
    let mut row = |name: &str, wall_s: f64, baseline_s: f64| {
        s.push_str(&format!(
            "{name:<26} {wall_s:>7.3} {baseline_s:>8.3} {:>+7.3}\n",
            wall_s - baseline_s
        ));
    };
    for t in timings {
        row(t.name, t.wall_s, t.baseline_s);
    }
    row(
        "total",
        total_wall_s(timings),
        timings.iter().map(|t| t.baseline_s).sum(),
    );
    s
}

/// The line naming the offender when a run on a `cores`-wide host exceeds
/// the headline experiment's ceiling or the suite's; `None` within both.
pub fn ceiling_exceeded(timings: &[ExperimentTiming], cores: usize) -> Option<String> {
    let (headline, ceiling_s) = HEADLINE_CEILING;
    if let Some(t) = timings.iter().find(|t| t.name == headline && t.wall_s >= ceiling_s) {
        return Some(format!(
            "{headline} took {:.3}s (ceiling {ceiling_s}s) — software-TLB regression?",
            t.wall_s
        ));
    }
    let (total, ceiling_s) = (total_wall_s(timings), suite_ceiling_s(cores));
    (total >= ceiling_s).then(|| {
        format!("experiment suite took {total:.3}s (ceiling {ceiling_s}s on {cores} cores)")
    })
}

/// `report timings`: measure, write `BENCH_report.json` into the current
/// directory, and return the table with, when a ceiling was exceeded, the
/// line naming the offender.
pub fn run_timings() -> std::io::Result<(String, Option<String>)> {
    let timings = measure_all();
    std::fs::write("BENCH_report.json", timings_json(&timings))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let table = format!(
        "{}ceilings: {} {}s, total {}s on {cores} cores",
        timings_table(&timings),
        HEADLINE_CEILING.0,
        HEADLINE_CEILING.1,
        suite_ceiling_s(cores)
    );
    Ok((table, ceiling_exceeded(&timings, cores)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(name: &'static str, wall_s: f64) -> ExperimentTiming {
        ExperimentTiming {
            name,
            wall_s,
            baseline_s: 1.0,
            output_bytes: 1,
        }
    }

    #[test]
    fn a_ceiling_failure_names_the_offender() {
        let ok = [timing("c7a_cluster_mechanistic", 1.5), timing("trace", 2.0)];
        assert_eq!(ceiling_exceeded(&ok, 4), None);
        // 4.6 s is inside the narrow-host ceiling and outside the wide one.
        let slow_suite = [timing("c7a_cluster_mechanistic", 1.5), timing("trace", 3.1)];
        assert_eq!(ceiling_exceeded(&slow_suite, 2), None);
        let line = ceiling_exceeded(&slow_suite, 4).expect("suite ceiling");
        assert!(line.contains("4.600s") && line.contains("4.5s on 4 cores"), "{line}");
        // The headline ceiling is reported first, by name.
        let slow_c7a = [timing("c7a_cluster_mechanistic", 20.0), timing("trace", 0.5)];
        let line = ceiling_exceeded(&slow_c7a, 2).expect("headline ceiling");
        assert!(line.starts_with("c7a_cluster_mechanistic took 20.000s"), "{line}");
    }
}
