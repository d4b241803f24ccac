//! Deterministic fault injection for the sweep service.
//!
//! A [`FaultPlan`] names, per fault **site**, the exact operation
//! indices that must fail: the 3rd store write, the 0th point
//! execution, the 5th record streamed onto a socket. Each site keeps
//! its own monotonic operation counter, so a plan is a *schedule*, not
//! a probability — the same plan against the same request sequence
//! injects the same faults, which is what lets the chaos suite pin
//! exact recovery behavior (a takeover happens exactly once, a retried
//! stream is byte-identical, …).
//!
//! Plans come from two constructors:
//!
//! * [`FaultPlan::new`] + [`FaultPlan::fail`] — targeted tests name
//!   individual indices;
//! * [`FaultPlan::parse`] — the `mot3d serve --fault
//!   point@0,store@3,drop@5` CLI spelling (CI chaos smoke).
//!
//! Production servers hold [`Faults::none`]: every injection check is a
//! single branch on an empty `Option`, touching no counters — the
//! harness costs nothing when off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where an injected fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A point execution on the worker pool (or a takeover re-run):
    /// `run_spec` is replaced by an injected simulator error.
    PointRun,
    /// A [`crate::store::ResultStore::put`]: half of the line is
    /// appended, then the write fails with an I/O error, and the put
    /// cuts the results file back to its length before the write.
    StoreWrite,
    /// A record line streamed to a client: the connection is dropped
    /// mid-stream instead of writing the line.
    StreamWrite,
}

/// All fault sites, in schedule/report order.
pub const FAULT_SITES: [FaultSite; 3] = [
    FaultSite::PointRun,
    FaultSite::StoreWrite,
    FaultSite::StreamWrite,
];

/// One site's schedule: sorted fault indices plus the live op counter.
#[derive(Debug, Default)]
struct SiteSchedule {
    /// Sorted, deduplicated operation indices that must fail.
    indices: Vec<u64>,
    /// Operations seen so far at this site (process-wide).
    next_op: AtomicU64,
}

impl SiteSchedule {
    fn should_fail(&self) -> bool {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        self.indices.binary_search(&op).is_ok()
    }
}

/// A deterministic schedule of injected faults — see the module docs.
#[derive(Debug, Default)]
pub struct FaultPlan {
    point_run: SiteSchedule,
    store_write: SiteSchedule,
    stream_write: SiteSchedule,
}

impl FaultPlan {
    /// An empty plan (no site ever fails until [`FaultPlan::fail`] adds
    /// indices).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn site(&self, site: FaultSite) -> &SiteSchedule {
        match site {
            FaultSite::PointRun => &self.point_run,
            FaultSite::StoreWrite => &self.store_write,
            FaultSite::StreamWrite => &self.stream_write,
        }
    }

    fn site_mut(&mut self, site: FaultSite) -> &mut SiteSchedule {
        match site {
            FaultSite::PointRun => &mut self.point_run,
            FaultSite::StoreWrite => &mut self.store_write,
            FaultSite::StreamWrite => &mut self.stream_write,
        }
    }

    /// Adds one failing operation index at `site` (builder style).
    #[must_use]
    pub fn fail(mut self, site: FaultSite, index: u64) -> Self {
        let s = self.site_mut(site);
        if let Err(pos) = s.indices.binary_search(&index) {
            s.indices.insert(pos, index);
        }
        self
    }

    /// Parses the CLI spelling: comma-separated `<site>@<index>` terms
    /// with sites `point`, `store`, and `drop`, e.g.
    /// `point@0,store@3,drop@5`.
    ///
    /// # Errors
    ///
    /// Describes the first malformed term.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for term in spec.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            let (site, index) = term
                .split_once('@')
                .ok_or_else(|| format!("fault term {term:?} is not <site>@<index>"))?;
            let site = match site {
                "point" => FaultSite::PointRun,
                "store" => FaultSite::StoreWrite,
                "drop" => FaultSite::StreamWrite,
                other => {
                    return Err(format!(
                        "unknown fault site {other:?} (expected point, store, or drop)"
                    ))
                }
            };
            let index: u64 = index
                .parse()
                .map_err(|_| format!("fault index {index:?} is not an unsigned integer"))?;
            plan = plan.fail(site, index);
        }
        Ok(plan)
    }

    /// The sorted, deduplicated fault indices scheduled at `site`.
    pub fn schedule(&self, site: FaultSite) -> &[u64] {
        &self.site(site).indices
    }

    /// Consumes one operation at `site` and reports whether it was
    /// scheduled to fail. Counters are process-wide and monotonic; an
    /// index fires at most once.
    pub fn should_fail(&self, site: FaultSite) -> bool {
        self.site(site).should_fail()
    }

    /// Whether any site has at least one scheduled fault.
    pub fn is_empty(&self) -> bool {
        FAULT_SITES.iter().all(|&s| self.site(s).indices.is_empty())
    }
}

/// A shareable, possibly-absent fault plan. [`Faults::none`] is the
/// production value: checks short-circuit on the `None` without
/// touching any counter.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl Faults {
    /// No injection anywhere (the default).
    pub fn none() -> Self {
        Faults(None)
    }

    /// Injection driven by `plan`.
    pub fn plan(plan: FaultPlan) -> Self {
        Faults(Some(Arc::new(plan)))
    }

    /// Consumes one operation at `site`; true when it must fail.
    pub fn should_fail(&self, site: FaultSite) -> bool {
        match &self.0 {
            None => false,
            Some(plan) => plan.should_fail(site),
        }
    }

    /// Whether a plan is attached (the server banner mentions it so a
    /// chaos run is never mistaken for a healthy one).
    pub fn is_active(&self) -> bool {
        self.0.as_ref().is_some_and(|p| !p.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_fire_exactly_once_in_op_order() {
        let faults = Faults::plan(
            FaultPlan::new()
                .fail(FaultSite::StoreWrite, 1)
                .fail(FaultSite::StoreWrite, 3),
        );
        let fired: Vec<bool> = (0..6)
            .map(|_| faults.should_fail(FaultSite::StoreWrite))
            .collect();
        assert_eq!(fired, [false, true, false, true, false, false]);
        // Other sites keep independent counters.
        assert!(!faults.should_fail(FaultSite::PointRun));
    }

    #[test]
    fn parse_round_trips_the_cli_spelling() {
        let plan = FaultPlan::parse("point@0, store@3,drop@5,store@1").unwrap();
        assert_eq!(plan.schedule(FaultSite::PointRun), [0]);
        assert_eq!(plan.schedule(FaultSite::StoreWrite), [1, 3]);
        assert_eq!(plan.schedule(FaultSite::StreamWrite), [5]);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        for bad in ["point", "disk@1", "point@x", "point@-1"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn none_is_inert() {
        let faults = Faults::none();
        assert!(!faults.is_active());
        assert!(!faults.should_fail(FaultSite::PointRun));
        assert!(!Faults::plan(FaultPlan::new()).is_active());
        assert!(Faults::plan(FaultPlan::new().fail(FaultSite::PointRun, 0)).is_active());
    }
}
