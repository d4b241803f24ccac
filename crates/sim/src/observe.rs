//! Zero-cost-when-off observation hooks for the cluster step path.
//!
//! An [`Observer`] is a generic parameter on the `_with` variants of the
//! [`Cluster`] run loop ([`Cluster::step_with`],
//! [`Cluster::run_to_completion_with`], …). The default
//! [`NullObserver`] is a zero-sized type whose `ENABLED` constant is
//! `false`: every `if O::ENABLED { … }` guard in the hot loop folds away
//! at monomorphisation, so the untraced build compiles to exactly the
//! machine code it had before the hook existed (pinned by the committed
//! BENCH checksums and `mot3d perf check`).
//!
//! The simulator is event-driven: state only changes inside
//! [`Cluster::step`], and the wake-hint protocol jumps `now` over cycles
//! that are provably no-ops. One [`Observer::sample`] call at the end of
//! every executed step therefore sees *every* state transition — there is
//! nothing to observe in the skipped cycles. Samples receive `&Cluster`
//! and read component state through the read-only probe surface
//! ([`Cluster::core_label`], [`Cluster::bank_busy`],
//! [`Cluster::interconnect_probe`], …), which allocates nothing.
//!
//! [`Cluster::step_with`]: crate::Cluster::step_with
//! [`Cluster::run_to_completion_with`]: crate::Cluster::run_to_completion_with
//! [`Cluster::step`]: crate::Cluster::step
//! [`Cluster::core_label`]: crate::Cluster::core_label
//! [`Cluster::bank_busy`]: crate::Cluster::bank_busy
//! [`Cluster::interconnect_probe`]: crate::Cluster::interconnect_probe

use crate::cluster::Cluster;

/// A hook on the cluster step path, sampled at every executed step.
///
/// Implementations with `ENABLED = false` must keep `sample` empty: the
/// run loop only *calls* it behind `if O::ENABLED` guards, so the
/// disabled case costs nothing at all.
pub trait Observer {
    /// Whether this observer receives samples. Guards in the step path
    /// test this associated constant, so a `false` observer
    /// monomorphizes to the unobserved loop.
    const ENABLED: bool;

    /// Called at the end of every executed [`Cluster::step`], before
    /// `now` advances, with the cluster in its post-step state. Runs
    /// inside the step, which allocates nothing once the cluster has run
    /// the point before (`tests/no_alloc.rs`): implementations must not
    /// allocate here either (stage into storage sized up front, and
    /// write it out from there when it fills).
    ///
    /// [`Cluster::step`]: crate::Cluster::step
    fn sample(&mut self, cluster: &Cluster);
}

/// The default no-op observer: zero-sized, disabled, and guaranteed to
/// monomorphize away.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn sample(&mut self, _cluster: &Cluster) {}
}

/// A read-only snapshot of the interconnect's occupancy, shaped by which
/// network the cluster runs.
#[derive(Debug, Clone, Copy)]
pub enum InterconnectProbe {
    /// The circuit-switched Mesh-of-Trees.
    Mot(MotProbe),
    /// One of the packet-switched baselines.
    Noc(NocProbe),
}

/// Occupancy snapshot of the MoT fabric.
#[derive(Debug, Clone, Copy)]
pub struct MotProbe {
    /// Bit `b` set while at least one request is queued at bank `b`'s
    /// arbitration tree.
    pub waiting_banks: u64,
    /// Bit `b` set while a request is still in transit down the tree
    /// toward bank `b`.
    pub transit_banks: u64,
    /// Requests in flight between cores and bank arbiters.
    pub transit_requests: usize,
    /// Responses in flight back to the cores.
    pub transit_responses: usize,
    /// Routing levels in the (possibly gated) tree; level `l` has
    /// `2^(l-1)` switches, each covering `banks >> (l-1)` consecutive
    /// banks (MSB-first splits).
    pub routing_levels: u32,
    /// Physical banks spanned by the tree.
    pub banks: usize,
}

impl MotProbe {
    /// Number of level-`level` switches (1-based from the root) whose
    /// bank subtree currently carries traffic (a busy or awaited bank).
    /// This is the per-level occupancy the MoT timeline tracks plot.
    pub fn level_occupancy(&self, level: u32) -> usize {
        if level == 0 || level > self.routing_levels || self.banks == 0 {
            return 0;
        }
        let active = self.waiting_banks | self.transit_banks;
        let span = self.banks >> (level - 1);
        if span == 0 {
            return 0;
        }
        let mut occupied = 0;
        let mut lo = 0;
        while lo < self.banks {
            let mask = if span >= 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << lo
            };
            if active & mask != 0 {
                occupied += 1;
            }
            lo += span;
        }
        occupied
    }
}

/// Occupancy snapshot of a packet-switched baseline.
#[derive(Debug, Clone, Copy)]
pub struct NocProbe {
    /// Directed router→router ports serialising a packet right now.
    pub busy_ports: usize,
    /// Vertical buses serialising a packet right now.
    pub busy_buses: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_occupancy_counts_subtrees_with_traffic() {
        let probe = MotProbe {
            waiting_banks: 1,       // bank 0
            transit_banks: 1 << 31, // bank 31
            transit_requests: 0,
            transit_responses: 0,
            routing_levels: 5,
            banks: 32,
        };
        // Root switch covers everything.
        assert_eq!(probe.level_occupancy(1), 1);
        // Level 2 splits by MSB: both halves carry traffic.
        assert_eq!(probe.level_occupancy(2), 2);
        // Leaf level: exactly the two banks.
        assert_eq!(probe.level_occupancy(5), 2);
        // Out-of-range levels are empty, not a panic.
        assert_eq!(probe.level_occupancy(0), 0);
        assert_eq!(probe.level_occupancy(6), 0);
    }

    #[test]
    fn idle_fabric_has_no_occupancy() {
        let probe = MotProbe {
            waiting_banks: 0,
            transit_banks: 0,
            transit_requests: 0,
            transit_responses: 0,
            routing_levels: 5,
            banks: 32,
        };
        for level in 1..=5 {
            assert_eq!(probe.level_occupancy(level), 0);
        }
    }
}
