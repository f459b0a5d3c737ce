//! # faultpoint — deterministic crash/fault injection sites
//!
//! The paper's stable-storage argument (Section 4.3) is a claim about what
//! survives a fail-stop *mid-checkpoint*, yet nothing in a typical C/R
//! stack ever exercises that window. This module provides named, enumerable
//! injection sites threaded through the kernel, every mechanism family, the
//! storage backends, and the image chain loader, so a driver can run the
//! full cross product of (site × fault kind) and check that every cell ends
//! in either a bit-exact restart or a typed detection error.
//!
//! ## Zero cost when disabled
//!
//! Like [`crate::trace::TraceHandle`], the default handle on every kernel
//! is the no-op sink: each site costs one relaxed atomic load and charges
//! no virtual time, so compiling the sites in cannot perturb an experiment
//! (`report all` stays byte-identical).
//!
//! ## Site identity
//!
//! A site name is `<group>/<point>@<n>` where `<n>` is the 1-based visit
//! ordinal of `<group>/<point>` within one run — e.g. the *store* phase of
//! the second checkpoint of the `crak` mechanism is `mech/crak/store@2`.
//! Because the simulator is deterministic, a [`FaultHandle::recording`]
//! run enumerates exactly the sites an identically-configured
//! [`FaultHandle::armed`] run will visit, in the same order.
//!
//! ## Fault kinds
//!
//! * [`Fault::FailStop`] — the node dies at the site: the kernel's
//!   scheduler loop refuses to run ([`crate::types::SimError::InjectedFault`])
//!   until the handle's crash flag is cleared (modelling repair/replacement).
//! * [`Fault::TornWrite`] — only a prefix of the payload reaches the
//!   medium, then the node dies (storage sites only).
//! * [`Fault::Transient`] — the operation fails once with a typed error;
//!   the node stays up.
//!
//! ## Starting mid-run
//!
//! A caller that forks a run's world at some instant instead of replaying
//! it from the start needs the ordinals to survive the fork: a recording
//! handle's [`FaultHandle::visit_counts`] at that instant, given to an
//! armed handle's [`FaultHandle::start_from`], makes `X@n` name the n-th
//! visit of the whole run, not of the part after the fork.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// What an armed site injects when reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail-stop: the node dies at the site.
    FailStop,
    /// A torn write: only the first `keep_bytes` of the payload persist,
    /// then the node dies. Meaningful only at storage `store` sites.
    TornWrite { keep_bytes: u64 },
    /// A one-shot transient error; the node survives.
    Transient,
}

impl Fault {
    pub fn label(self) -> &'static str {
        match self {
            Fault::FailStop => "fail-stop",
            Fault::TornWrite { .. } => "torn-write",
            Fault::Transient => "transient",
        }
    }
}

/// One site visited during a recording run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRecord {
    /// Full site name, including the visit ordinal (`mech/crak/store@2`).
    pub name: String,
    /// Payload size at the site (store sites record the encoded image
    /// length, so a driver can choose torn-write offsets); 0 elsewhere.
    pub bytes: u64,
}

/// Per-site visit counts at one instant of a run: what an armed handle
/// starts from when the run is resumed from a fork taken at that instant
/// ([`FaultHandle::start_from`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisitCounts(BTreeMap<String, u64>);

const MODE_OFF: u8 = 0;
const MODE_RECORDING: u8 = 1;
const MODE_ARMED: u8 = 2;

#[derive(Default)]
struct Data {
    /// Visit counts per base site name (group/point), for ordinals.
    counts: BTreeMap<String, u64>,
    /// Sites visited, in order (recording mode).
    sites: Vec<SiteRecord>,
    /// The armed site's full name (armed mode).
    armed_site: String,
    armed_fault: Option<Fault>,
    /// The site at which the armed fault fired (one-shot).
    fired: Option<String>,
}

struct Inner {
    mode: AtomicU8,
    crashed: AtomicBool,
    data: Mutex<Data>,
}

/// A cloneable handle to a fault-injection plan. The default handle is the
/// no-op sink: every site bails on one relaxed atomic load. One handle is
/// shared between a kernel, its storage backends, and the restart path so
/// a single plan covers the whole lifecycle.
#[derive(Clone)]
pub struct FaultHandle(Arc<Inner>);

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHandle")
            .field("off", &self.is_off())
            .field("crashed", &self.node_crashed())
            .finish()
    }
}

impl Default for FaultHandle {
    fn default() -> Self {
        FaultHandle::disabled()
    }
}

impl FaultHandle {
    fn with_mode(mode: u8) -> Self {
        FaultHandle(Arc::new(Inner {
            mode: AtomicU8::new(mode),
            crashed: AtomicBool::new(false),
            data: Mutex::new(Data::default()),
        }))
    }

    /// The no-op sink (the default on every kernel): sites cost one relaxed
    /// atomic load and never fire.
    pub fn disabled() -> Self {
        FaultHandle::with_mode(MODE_OFF)
    }

    /// A recording handle: every site visited is appended to [`sites`]
    /// (with its payload size) and nothing ever fires.
    ///
    /// [`sites`]: FaultHandle::sites
    pub fn recording() -> Self {
        FaultHandle::with_mode(MODE_RECORDING)
    }

    /// A handle armed to inject `fault` the first time `site` (a full name
    /// from a recording run, ordinal included) is reached.
    pub fn armed(site: &str, fault: Fault) -> Self {
        let h = FaultHandle::with_mode(MODE_ARMED);
        {
            let mut d = h.0.data.lock().unwrap();
            d.armed_site = site.to_string();
            d.armed_fault = Some(fault);
        }
        h
    }

    /// Whether this is the no-op sink (one relaxed load — the entire cost
    /// of a site when injection is disabled).
    #[inline]
    pub fn is_off(&self) -> bool {
        self.0.mode.load(Ordering::Relaxed) == MODE_OFF
    }

    /// Whether an injected fail-stop has killed the owning node. Cleared by
    /// [`clear_crash`] when the driver models repair/replacement.
    ///
    /// [`clear_crash`]: FaultHandle::clear_crash
    #[inline]
    pub fn node_crashed(&self) -> bool {
        self.0.crashed.load(Ordering::Relaxed)
    }

    /// Mark the node dead (used by storage shims after persisting a torn
    /// prefix, where the fault semantics are "write cut short by the
    /// crash").
    pub fn set_crashed(&self) {
        self.0.crashed.store(true, Ordering::Relaxed);
    }

    /// Model repair: a replacement node may run again. The armed fault
    /// stays consumed ([`fired`] still reports where it hit).
    ///
    /// [`fired`]: FaultHandle::fired
    pub fn clear_crash(&self) {
        self.0.crashed.store(false, Ordering::Relaxed);
    }

    /// Visit a site. `base` is `<group>/<point>` (the ordinal is appended
    /// internally); `bytes` is the payload size for store sites. Returns
    /// the fault to inject, if this visit matches the armed site and the
    /// plan has not fired yet. For [`Fault::FailStop`] the crash flag is
    /// set as a side effect.
    pub fn check(&self, base: &str, bytes: u64) -> Option<Fault> {
        if self.is_off() {
            return None;
        }
        let mode = self.0.mode.load(Ordering::Relaxed);
        let mut d = self.0.data.lock().unwrap();
        let n = d.counts.entry(base.to_string()).or_insert(0);
        *n += 1;
        let full = format!("{base}@{n}");
        match mode {
            MODE_RECORDING => {
                d.sites.push(SiteRecord { name: full, bytes });
                None
            }
            MODE_ARMED => {
                if d.fired.is_none() && d.armed_site == full {
                    let fault = d.armed_fault.expect("armed handle has a fault");
                    d.fired = Some(full);
                    drop(d);
                    if fault == Fault::FailStop {
                        self.set_crashed();
                    }
                    Some(fault)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// How often each site has been visited so far.
    pub fn visit_counts(&self) -> VisitCounts {
        if self.is_off() {
            return VisitCounts::default();
        }
        VisitCounts(self.0.data.lock().unwrap().counts.clone())
    }

    /// Take up the run at the instant `counts` was snapshot, so the armed
    /// site's ordinal counts the visits before it too. Refused, with the
    /// handle left as it was, when the armed visit already happened before
    /// that instant (it could never fire from there), or when this handle
    /// has visited a site itself. A disabled handle has nothing to count,
    /// and an armed name without an ordinal never fires: both accept any
    /// instant.
    pub fn start_from(&self, counts: &VisitCounts) -> Result<(), String> {
        if self.is_off() {
            return Ok(());
        }
        let mut d = self.0.data.lock().unwrap();
        if !d.counts.is_empty() {
            return Err("the handle has already visited sites of its own".into());
        }
        let armed = d
            .armed_site
            .rsplit_once('@')
            .and_then(|(base, n)| Some((base, n.parse::<u64>().ok()?)));
        if let Some((base, n)) = armed {
            let before = counts.0.get(base).copied().unwrap_or(0);
            if before >= n {
                return Err(format!(
                    "{} lies before the snapshot: {base} was visited {before} times by then",
                    d.armed_site
                ));
            }
        }
        d.counts = counts.0.clone();
        Ok(())
    }

    /// The sites visited so far (recording mode), in order.
    pub fn sites(&self) -> Vec<SiteRecord> {
        if self.is_off() {
            return Vec::new();
        }
        self.0.data.lock().unwrap().sites.clone()
    }

    /// Where the armed fault fired, if it has.
    pub fn fired(&self) -> Option<String> {
        if self.is_off() {
            return None;
        }
        self.0.data.lock().unwrap().fired.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_and_fires_nothing() {
        let h = FaultHandle::disabled();
        assert!(h.is_off());
        assert_eq!(h.check("mech/x/freeze", 0), None);
        assert!(h.sites().is_empty());
        assert_eq!(h.fired(), None);
        assert!(!h.node_crashed());
    }

    #[test]
    fn recording_enumerates_sites_with_ordinals() {
        let h = FaultHandle::recording();
        h.check("mech/x/freeze", 0);
        h.check("mech/x/store", 100);
        h.check("mech/x/freeze", 0);
        let names: Vec<String> = h.sites().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["mech/x/freeze@1", "mech/x/store@1", "mech/x/freeze@2"]
        );
        assert_eq!(h.sites()[1].bytes, 100);
    }

    #[test]
    fn armed_handle_fires_once_at_the_named_visit() {
        let h = FaultHandle::armed("mech/x/freeze@2", Fault::Transient);
        assert_eq!(h.check("mech/x/freeze", 0), None, "first visit passes");
        assert_eq!(h.check("mech/x/freeze", 0), Some(Fault::Transient));
        assert_eq!(h.fired().as_deref(), Some("mech/x/freeze@2"));
        assert_eq!(h.check("mech/x/freeze", 0), None, "one-shot");
        assert!(!h.node_crashed(), "transient faults keep the node up");
    }

    /// Walk `visits` on `h`, returning what each visit injected.
    fn walk(h: &FaultHandle, visits: &[&str]) -> Vec<Option<Fault>> {
        visits.iter().map(|base| h.check(base, 8)).collect()
    }

    #[test]
    fn an_armed_handle_started_from_a_snapshot_fires_where_a_full_walk_does() {
        let prefix = ["mech/x/store", "mech/x/freeze", "mech/x/store"];
        let suffix = ["mech/x/freeze", "mech/x/store", "mech/x/store"];
        let recording = FaultHandle::recording();
        walk(&recording, &prefix);
        let counts = recording.visit_counts();
        walk(&recording, &suffix);
        // Every site the recording lists after the snapshot fires at the
        // same visit, under the same full name, both ways.
        for site in recording.sites().into_iter().skip(prefix.len()) {
            let walked = FaultHandle::armed(&site.name, Fault::Transient);
            walk(&walked, &prefix);
            let started = FaultHandle::armed(&site.name, Fault::Transient);
            started.start_from(&counts).unwrap();
            let (started_at, walked_at) = (walk(&started, &suffix), walk(&walked, &suffix));
            assert_eq!(started_at, walked_at, "{}", site.name);
            assert_eq!(started.fired(), walked.fired());
            assert_eq!(started.fired().as_deref(), Some(site.name.as_str()));
        }
    }

    #[test]
    fn a_site_the_snapshot_already_passed_is_refused_not_silently_dropped() {
        let recording = FaultHandle::recording();
        let visits = ["mech/x/store", "mech/x/store", "mech/x/freeze"];
        walk(&recording, &visits);
        let counts = recording.visit_counts();
        let h = FaultHandle::armed("mech/x/store@2", Fault::FailStop);
        let err = h.start_from(&counts).unwrap_err();
        let named = err.contains("mech/x/store@2") && err.contains("visited 2 times");
        assert!(named, "{err}");
        // Refused means untouched: the handle still walks from zero.
        let injected = walk(&h, &visits[..2]);
        assert_eq!(injected[1], Some(Fault::FailStop));
        // The next visit of the same site lies after the snapshot.
        let next = FaultHandle::armed("mech/x/store@3", Fault::FailStop);
        assert!(next.start_from(&counts).is_ok());
        // A handle that already counted for itself cannot start over.
        assert!(h.start_from(&counts).is_err());
        assert!(recording.start_from(&counts).is_err());
        // Off, or armed at a name no visit carries: any instant will do.
        assert!(FaultHandle::disabled().start_from(&counts).is_ok());
        let unnamed = FaultHandle::armed("never", Fault::FailStop);
        assert!(unnamed.start_from(&counts).is_ok());
    }

    #[test]
    fn fail_stop_sets_and_clears_the_crash_flag() {
        let h = FaultHandle::armed("mech/x/store@1", Fault::FailStop);
        assert_eq!(h.check("mech/x/store", 64), Some(Fault::FailStop));
        assert!(h.node_crashed());
        h.clear_crash();
        assert!(!h.node_crashed());
        assert_eq!(h.fired().as_deref(), Some("mech/x/store@1"), "stays consumed");
    }
}
