//! In-memory spans recorded from outside the crates.
//!
//! Every call the traced run makes into a layer is wrapped in a span: name,
//! start, end, the span that caused it, and the round it belongs to. Spans
//! stay in memory and are written out only when the run ends. A layer's
//! *self time* is its span's duration minus what its direct children cover,
//! so a storage tier's cost is its span minus the tier below it.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// The benchmark round the span belongs to (shared by all spans of one
    /// checkpoint or restart).
    pub round: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    round: u32,
}

/// The span sink. Calls nest on one thread (the driver thread); the mutex
/// only makes the recorder shareable with the `Send` storage decorators.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                round: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a span body panicked while recording")
    }

    /// Spans opened from now on carry this round id.
    pub fn set_round(&self, round: u32) {
        self.lock().round = round;
    }

    /// Run `body` inside a span called `name`, nested under whatever span
    /// is open on entry.
    pub fn time<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        let idx = {
            let mut g = self.lock();
            let idx = g.spans.len() as u32;
            let parent = g.open.last().copied();
            let round = g.round;
            g.open.push(idx);
            g.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                round,
            });
            idx
        };
        // Clock reads sit inside the bookkeeping, so a span never counts
        // its own recording cost; its parent does, as self time.
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = body();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        let s = &mut g.spans[idx as usize];
        s.start_ns = start;
        s.end_ns = end;
        let closed = g.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans must close innermost first");
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of durations.
    pub total_s: f64,
    /// Sum of durations minus the part direct children cover.
    pub self_s: f64,
}

/// Self time per span: duration minus the summed duration of its direct
/// children (children of one parent never overlap: they ran one after
/// another on the driver thread).
///
/// Spans before index `skip` are left out of the sums (a run's warm-up
/// comes first) but still count as children of their parents.
pub fn totals(spans: &[Span], skip: usize) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(skip) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.dur_ns() as f64 / 1e9;
        t.self_s += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op(0..100) > tier_a(10..90) > tier_b(20..50), tier_b(60..80)
        let spans = vec![
            span("op", 0, 100, None),
            span("tier_a", 10, 90, Some(0)),
            span("tier_b", 20, 50, Some(1)),
            span("tier_b", 60, 80, Some(1)),
        ];
        let t = totals(&spans, 0);
        assert_eq!(
            t["op"].self_s, 20e-9,
            "op minus tier_a, not minus grandchildren"
        );
        assert_eq!(t["tier_a"].self_s, 30e-9);
        assert_eq!(t["tier_b"].self_s, 50e-9);
        assert_eq!(t["tier_b"].count, 2);
        let sum: f64 = t.values().map(|n| n.self_s).sum();
        assert!(
            (sum - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
    }

    #[test]
    fn recorder_nests_by_call_structure_and_tags_rounds() {
        let rec = Recorder::new();
        rec.set_round(7);
        let v = rec.time("outer", || {
            rec.time("inner", || 1) + rec.time("inner", || 2)
        });
        assert_eq!(v, 3);
        rec.set_round(8);
        rec.time("outer", || ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent, s[0].round), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("inner", Some(0)));
        assert_eq!((s[3].parent, s[3].round), (None, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let mut buf = Vec::new();
        rec.dump(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);
    }
}
