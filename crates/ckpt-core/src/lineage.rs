//! One checkpoint lineage, and the capture step every checkpointer runs on
//! it. Figure 1's mechanisms differ in initiation and context, not in how
//! an image is taken: the engine's round, hibernation's per-process loop,
//! a coordinated rank and every migration run [`Lineage::capture`] and
//! part only at where the bytes go (`commit_image`, a shard's
//! `store_batch`, a migration's wire). Fork-concurrent alone copies its
//! pages in bursts, then encodes them in place from the stopped child.

use crate::capture::{capture_state, guest_pages, CaptureOptions, PageSelection};
use crate::report::CkptOutcome;
use crate::tracker::{Tracker, TrackerKind};
use ckpt_image::ImageKind;
use ckpt_storage::ReplicaManifest;
use simos::mem::PAGE_SIZE;
use simos::trace::Phase;
use simos::types::{Pid, SimResult};
use simos::Kernel;

/// The images stored under one key `(job, id)` and what the next round
/// needs to know about them. `next` and `committed` are two fields because
/// a holder that burns the seq of a failed round (the coordinator,
/// fork-concurrent, hibernation) hands out seqs that never commit, and a
/// restart must read only what did. A cut — a coordinated round, a
/// hibernation — is a lineage too: its members' images are keyed under
/// their own ids at its seqs ([`Lineage::member`]).
#[derive(Debug, Clone)]
pub struct Lineage {
    job: String,
    /// The process (or rank) every image header records; `None` for a cut
    /// and for an engine before its first round.
    pub(crate) id: Option<u32>,
    /// The seq the next round takes.
    next: u64,
    /// The newest committed seq; 0 before the first commit.
    committed: u64,
    /// The newest committed full image's seq.
    last_full: u64,
    /// The seq and kind of the last image captured, until it commits.
    staged: Option<(u64, ImageKind)>,
    /// Force a full image every N seqs (0 = only the first is full).
    /// Ignored for non-incremental trackers.
    pub(crate) full_every: u64,
    tracker: Tracker,
    /// The current chain's replica manifests (see [`Lineage::manifests`]).
    pub(crate) manifests: Vec<ReplicaManifest>,
}

impl Lineage {
    pub fn new(job: &str, id: Option<u32>, tracker: TrackerKind) -> Self {
        Lineage {
            job: job.to_string(),
            id,
            next: 1,
            committed: 0,
            last_full: 0,
            staged: None,
            full_every: 0,
            tracker: Tracker::new(tracker),
            manifests: Vec::new(),
        }
    }

    /// `id`'s lineage as a member of this cut: its seqs, a fresh tracker.
    /// A cut stages and stores nothing of its own.
    pub fn member(&self, id: u32) -> Lineage {
        let tracker = Tracker::new(self.tracker.kind());
        Lineage {
            id: Some(id),
            tracker,
            ..self.clone()
        }
    }

    pub fn job(&self) -> &str {
        &self.job
    }

    /// The process (or rank) the images are keyed under.
    pub fn id(&self) -> Option<u32> {
        self.id
    }

    /// The current chain's replica manifests, one per committed segment
    /// on a replicated or erasure-coded store, in seq order.
    pub fn manifests(&self) -> &[ReplicaManifest] {
        &self.manifests
    }

    /// The seq the next round takes; the engine reuses it until it commits.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next
    }

    /// Take the next seq, burned whether or not its round commits.
    pub fn burn(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    /// The newest committed seq: what a restart may read up to.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The image at `seq` is durable (for a cut: every member's is).
    pub fn commit(&mut self, seq: u64) {
        self.committed = seq;
        self.next = self.next.max(seq + 1);
        if self.staged == Some((seq, ImageKind::Full)) {
            self.last_full = seq;
        }
    }

    /// Whether an image at `seq` may chain onto the committed one: the
    /// tracker makes incrementals and no burned seq lies between them.
    pub fn continues(&self, seq: u64) -> bool {
        let kind = self.tracker.kind();
        kind.supports_incremental() && self.committed > 0 && self.committed + 1 == seq
    }

    /// The one full-vs-incremental rule: the chain continues, the tracker
    /// has a dirty set since the last commit, and no periodic full is due.
    pub(crate) fn incremental(&self, seq: u64) -> bool {
        self.continues(seq)
            && self.tracker.is_armed()
            && !(self.full_every > 0 && seq - self.last_full >= self.full_every)
    }

    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    pub fn tracker_mut(&mut self) -> &mut Tracker {
        &mut self.tracker
    }

    /// The capture step on a quiescent `pid`: decide → walk → capture →
    /// encode the full image `opts` describes, narrowed to an incremental
    /// when the lineage's rule says so. Of its fault sites, in order `walk`
    /// (an incremental's only), `capture`, `compress`, `store`, it checks
    /// the ones `sites` names, as `mech/<opts.mechanism>/<site>`: the
    /// engine all four, hibernation `capture` and `store`, a coordinated
    /// rank none. With `phases_from` (the round's start) it records the
    /// Walk phase — for a full image too when the round `gathered` state
    /// first (the user-level library) — and the Capture phase. Returns the
    /// encoded image, for the caller to commit, and the round's outcome as
    /// far as the capture knows it (seq, kind, pages, memory and logical
    /// bytes).
    pub fn capture(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        opts: &CaptureOptions,
        sites: &[&str],
        phases_from: Option<u64>,
        gathered: bool,
    ) -> SimResult<(Vec<u8>, CkptOutcome)> {
        let (name, seq) = (opts.mechanism.as_str(), opts.seq);
        let mut opts = opts.clone();
        let site = |k: &mut Kernel, site| match sites.contains(&site) {
            true => k.faultpoint(name, site),
            false => Ok(()),
        };
        opts.id = self.id;
        let incremental = self.incremental(seq);
        let mut logical = None;
        if incremental {
            site(k, "walk")?;
            let collected = self.tracker.collect(k, pid)?;
            opts.kind = ImageKind::Incremental;
            opts.parent_seq = self.committed;
            opts.pages = PageSelection::Set(collected.pages);
            logical = Some(collected.logical_dirty_bytes);
        }
        if let Some(t0) = phases_from.filter(|_| gathered || incremental) {
            k.trace
                .phase(name, Phase::Walk, pid.0, seq, k.now(), k.now() - t0);
        }
        site(k, "capture")?;
        let cap0 = k.now();
        let (state, page_numbers) = capture_state(k, pid, &opts)?;
        if phases_from.is_some() {
            k.trace
                .phase(name, Phase::Capture, pid.0, seq, k.now(), k.now() - cap0);
        }
        site(k, "compress")?;
        site(k, "store")?;
        self.staged = Some((seq, opts.kind));
        let memory_bytes = page_numbers.len() as u64 * PAGE_SIZE;
        let outcome = CkptOutcome {
            seq,
            incremental,
            pages_saved: page_numbers.len() as u64,
            memory_bytes,
            logical_dirty_bytes: logical.unwrap_or(memory_bytes),
            ..CkptOutcome::default()
        };
        // No page record is built: the image is encoded from the pages
        // where they sit in the frozen guest, so a page's bytes are copied
        // once into the encoding, and once more by the store.
        let pages = guest_pages(k, pid, &page_numbers);
        let bytes = opts.with_pool(|pool| {
            ckpt_image::encode_borrowed_pages(&state, &pages, opts.compress, pool)
        });
        Ok((bytes, outcome))
    }
}
