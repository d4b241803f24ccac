//! The 3-D multi-core cluster (Fig. 1): in-order cores with private L1
//! data caches, the stacked multi-banked shared L2 reached over a
//! swappable [`Interconnect`], the round-robin Miss bus, and DRAM.
//!
//! ## Timing model
//!
//! Cycle-stepped at the 1 GHz cluster clock. Cores retire one instruction
//! per cycle and block on memory; an L1 miss becomes an interconnect
//! transaction whose round trip (inject → bank arbitration → bank access
//! → response) *is* the L2 access latency the paper measures (Fig. 6(a)).
//! L2 misses queue on the Miss bus and pay the Table I DRAM latency.
//!
//! ## Event-driven execution
//!
//! [`Cluster::step`] advances exactly one cycle; [`Cluster::run_to_completion`],
//! [`Cluster::run_until`], and [`Cluster::drain`] are event-driven: when no
//! core can issue at the current cycle they consult every component's wake
//! hint ([`Interconnect::next_activity`], [`MissBus::next_activity`],
//! [`Dram::next_activity`], the action heap, and the cores' compute
//! timers) and jump `now` straight to the earliest upcoming event. Skipped
//! cycles are provably no-ops, so the event-driven paths produce
//! bit-identical metrics to stepping every cycle — the equivalence
//! property tests in `tests/event_driven.rs` enforce this — while cutting
//! wall-clock time by an order of magnitude in the low-IPC regimes the
//! paper's gated power states create (every core stalled on a 200-cycle
//! DRAM miss).
//!
//! ## Functional model (atomic-at-home-node)
//!
//! Architectural state (line tokens, directory, golden memory) updates
//! atomically at well-defined points — stores and directory changes at
//! the bank when the request is serviced, L1-eviction writebacks at
//! eviction time — while the corresponding messages still travel the
//! interconnect for timing and energy. This keeps the MSI protocol free
//! of transient-state races without losing any of the latency/energy
//! effects the paper evaluates; the golden-memory oracle validates the
//! end-to-end result, including across runtime bank power-gating flushes.

use crate::config::{InterconnectChoice, SimConfig};
use crate::error::SimError;
use crate::metrics::{LatencyStats, Metrics};
use crate::observe::{CoreActivity, InterconnectProbe, MotProbe, NocProbe, NullObserver, Observer};
use mot3d_mem::addr::{AddressMap, LineAddr};
use mot3d_mem::bus::{MissBus, Transfer};
use mot3d_mem::cache::{CacheConfig, SetAssocCache, SlotHandle};
use mot3d_mem::coherence::Directory;
use mot3d_mem::dram::{Dram, DramKind, DramTiming};
use mot3d_mem::golden::GoldenMemory;
use mot3d_mot::latency::MotTimingParams;
use mot3d_mot::reconfig::MotConfiguration;
use mot3d_mot::topology::MotTopology;
use mot3d_mot::traits::{Interconnect, MemRequest, MemResponse, ReqKind};
use mot3d_mot::{MotNetwork, PowerState};
use mot3d_noc::NocNetwork;
use mot3d_phys::geometry::Floorplan;
use mot3d_phys::power::{CorePowerModel, DramEnergyModel, EnergyBreakdown};
use mot3d_phys::slab::GenSlab;
use mot3d_phys::sram::{SramBank, SramConfig};
use mot3d_phys::wheel::TimingWheel;
use mot3d_phys::Technology;
use mot3d_workloads::{CoreStream, Op, StreamOp};

/// Physical cores in the cluster (Table I).
pub const TOTAL_CORES: usize = 16;
/// Physical L2 banks (Table I).
pub const TOTAL_BANKS: usize = 32;
/// Sentinel tag for occupancy-only bus transfers (victim writebacks).
const WB_TAG: u64 = u64::MAX;

/// Per-L1-line coherence view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct L1Meta {
    /// Holds the line in Modified (exclusive) state.
    exclusive: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreStatus {
    Ready,
    Computing { until: u64 },
    WaitingMem,
    WaitingIFetch,
    AtBarrier { id: u32 },
    Finished,
}

#[derive(Debug)]
struct CoreState {
    /// Physical core id (grid position); ranks index into `cores`.
    physical: usize,
    stream: CoreStream,
    busy_cycles: u64,
    retired: u64,
    finished_at: Option<u64>,
}

impl CoreState {
    /// An active core at cycle zero.
    fn new(physical: usize, stream: CoreStream) -> Self {
        CoreState {
            physical,
            stream,
            busy_cycles: 0,
            retired: 0,
            finished_at: None,
        }
    }
}

#[derive(Debug)]
struct BankState {
    cache: SetAssocCache<Directory>,
    powered: bool,
    free_at: u64,
    reads: u64,
    writes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxKind {
    Load,
    Store,
    Upgrade,
    L1Writeback,
}

#[derive(Debug, Clone, Copy)]
struct Tx {
    core_idx: usize,
    line: LineAddr,
    kind: TxKind,
    issued_at: u64,
    value: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// L2 tag check done on a miss: start the Miss-bus transfer.
    BusEnqueue { bank: usize, tag: u64 },
    /// DRAM returned the line: fill the bank and respond.
    Refill { bank: usize, tag: u64 },
    /// Send a response into the interconnect.
    Respond {
        tag: u64,
        core: usize,
        bank: usize,
        write: bool,
    },
    /// Instruction refill arrived at the core.
    IFetchDone { core_idx: usize },
}

/// The interconnect under test, dispatched statically: the hot loop
/// calls `tick`/`pop_arrival`/`pop_delivery`/`next_activity` several
/// times per step, and a `Box<dyn Interconnect>` would make each a
/// virtual call the compiler cannot inline.
#[derive(Debug)]
enum ClusterNet {
    Mot(MotNetwork),
    Noc(NocNetwork),
}

impl ClusterNet {
    #[inline]
    fn get(&self) -> &dyn Interconnect {
        match self {
            ClusterNet::Mot(n) => n,
            ClusterNet::Noc(n) => n,
        }
    }
}

impl Interconnect for ClusterNet {
    #[inline]
    fn name(&self) -> &str {
        self.get().name()
    }

    #[inline]
    fn tick(&mut self, now: u64) {
        match self {
            ClusterNet::Mot(n) => n.tick(now),
            ClusterNet::Noc(n) => n.tick(now),
        }
    }

    #[inline]
    fn inject_request(&mut self, now: u64, request: MemRequest) {
        match self {
            ClusterNet::Mot(n) => n.inject_request(now, request),
            ClusterNet::Noc(n) => n.inject_request(now, request),
        }
    }

    #[inline]
    fn pop_arrival(&mut self) -> Option<mot3d_mot::traits::BankArrival> {
        match self {
            ClusterNet::Mot(n) => n.pop_arrival(),
            ClusterNet::Noc(n) => n.pop_arrival(),
        }
    }

    #[inline]
    fn inject_response(&mut self, now: u64, response: MemResponse) {
        match self {
            ClusterNet::Mot(n) => n.inject_response(now, response),
            ClusterNet::Noc(n) => n.inject_response(now, response),
        }
    }

    #[inline]
    fn pop_delivery(&mut self) -> Option<mot3d_mot::traits::CoreDelivery> {
        match self {
            ClusterNet::Mot(n) => n.pop_delivery(),
            ClusterNet::Noc(n) => n.pop_delivery(),
        }
    }

    #[inline]
    fn next_activity(&self, now: u64) -> Option<u64> {
        match self {
            ClusterNet::Mot(n) => n.next_activity(now),
            ClusterNet::Noc(n) => n.next_activity(now),
        }
    }

    #[inline]
    fn reset(&mut self) {
        match self {
            ClusterNet::Mot(n) => Interconnect::reset(n),
            ClusterNet::Noc(n) => Interconnect::reset(n),
        }
    }

    #[inline]
    fn oneway_latency_hint(&self) -> u64 {
        // Statically dispatched: read once per serviced bank access.
        match self {
            ClusterNet::Mot(n) => n.oneway_latency_hint(),
            ClusterNet::Noc(n) => n.oneway_latency_hint(),
        }
    }

    #[inline]
    fn dynamic_energy(&self) -> mot3d_phys::units::Joules {
        self.get().dynamic_energy()
    }

    #[inline]
    fn leakage_power(&self) -> mot3d_phys::units::Watts {
        self.get().leakage_power()
    }

    #[inline]
    fn stats(&self) -> mot3d_mot::traits::InterconnectStats {
        self.get().stats()
    }
}

/// Everything about a cluster that its [`SimConfig`] determines — and
/// nothing that it does not (cache arrays, queues, physical models).
///
/// [`Cluster::new`] and [`Cluster::retarget`] both take these parts from
/// [`Configured::derive`] and destructure them exhaustively, so a part
/// that starts to depend on the configuration cannot reach one of the
/// two and miss the other.
struct Configured {
    interconnect: ClusterNet,
    mot_cfg: Option<MotConfiguration>,
    /// Physical ids of the active cores, in rank order.
    active_cores: Vec<usize>,
    physical_to_idx: [usize; TOTAL_CORES],
    bank_powered: [bool; TOTAL_BANKS],
    dram_timing: DramTiming,
    dram_power: DramEnergyModel,
    bus_occupancy: u64,
    golden: Option<GoldenMemory>,
}

impl Configured {
    /// Checks `config` (against `streams` workload streams) and builds
    /// its parts. Touches no cluster, so a caller that gets an `Err`
    /// has changed nothing.
    fn derive(
        tech: &Technology,
        floorplan: &Floorplan,
        config: &SimConfig,
        streams: usize,
    ) -> Result<Self, SimError> {
        let state = config.power_state;
        state.check_fits(TOTAL_CORES, TOTAL_BANKS)?;
        if streams != state.active_cores() {
            return Err(SimError::StreamCountMismatch {
                streams,
                active_cores: state.active_cores(),
            });
        }

        let (interconnect, mot_cfg) = match config.interconnect {
            InterconnectChoice::Mot => {
                let net = MotNetwork::new(
                    tech,
                    floorplan,
                    MotTopology::date16(),
                    &MotTimingParams::default(),
                    state,
                )?;
                let cfg = net.configuration().clone();
                (ClusterNet::Mot(net), Some(cfg))
            }
            InterconnectChoice::Noc(kind) => {
                if state != PowerState::full() {
                    return Err(SimError::NocNeedsFullState(kind));
                }
                (
                    ClusterNet::Noc(NocNetwork::new(tech, floorplan, kind)),
                    None,
                )
            }
        };

        let active_cores: Vec<usize> = match &mot_cfg {
            Some(cfg) => cfg.active_cores(),
            None => (0..TOTAL_CORES).collect(),
        };
        debug_assert_eq!(active_cores.len(), streams);
        let mut physical_to_idx = [usize::MAX; TOTAL_CORES];
        for (idx, &physical) in active_cores.iter().enumerate() {
            physical_to_idx[physical] = idx;
        }

        let latency = config.dram.latency_cycles();
        Ok(Configured {
            interconnect,
            bank_powered: std::array::from_fn(|b| {
                mot_cfg.as_ref().is_none_or(|c| c.is_bank_active(b))
            }),
            mot_cfg,
            active_cores,
            physical_to_idx,
            dram_timing: if config.dram_open_page {
                DramTiming::open_page(latency)
            } else {
                DramTiming::fixed(latency)
            },
            dram_power: match config.dram {
                DramKind::OffChipDdr3 => DramEnergyModel::off_chip_ddr3(),
                DramKind::WideIo => DramEnergyModel::wide_io(),
                DramKind::Weis3d => DramEnergyModel::weis_3d(),
            },
            bus_occupancy: config.miss_bus_occupancy,
            golden: config.check_golden.then(GoldenMemory::new),
        })
    }
}

/// The simulated cluster.
pub struct Cluster {
    config: SimConfig,
    tech: Technology,
    floorplan: Floorplan,
    map: AddressMap,
    interconnect: ClusterNet,
    mot_cfg: Option<MotConfiguration>,
    cores: Vec<CoreState>,
    /// `l1s[i]` is the private L1 of active core `i` (`cores[i]`). All
    /// [`TOTAL_CORES`] arrays exist whatever the power state, so that
    /// [`Cluster::retarget`] to a wider one allocates nothing; those past
    /// `cores.len()` belong to gated cores and stay parked, clean.
    l1s: Vec<SetAssocCache<L1Meta>>,
    /// Core statuses, split out of `CoreState` structure-of-arrays
    /// style: the wake/barrier/issue loops consult every core's status
    /// each step, and inside `CoreState` (whose stream spans hundreds of
    /// bytes) each status would be its own cache line. Kept in sync
    /// with the masks below via [`Cluster::set_status`].
    statuses: Vec<CoreStatus>,
    /// Bit `i` set while core `i` is `Ready`.
    ready_mask: u32,
    /// Bit `i` set while core `i` is `Computing`; its deadline is in
    /// `until[i]`. The issue loop walks `ready_mask | computing_mask` in
    /// ascending bit order — the same visit order as scanning every core.
    computing_mask: u32,
    /// Bit `i` set while core `i` is `AtBarrier`.
    barrier_mask: u32,
    /// `Computing` deadlines, indexed by core (valid where
    /// `computing_mask` is set).
    until: Vec<u64>,
    /// Exact minimum of `until[i]` over computing cores (`u64::MAX` when
    /// none compute). `next_wake` runs every step and must not rescan the
    /// mask; `set_status` folds new deadlines in and rebuilds only when
    /// the current minimum's holder transitions.
    until_min: u64,
    banks: Vec<BankState>,
    /// `physical_to_idx[physical]` = index into `cores`, or `usize::MAX`
    /// when that physical core is gated (fixed at construction; coherence
    /// lookups would otherwise scan `cores` linearly per invalidation).
    physical_to_idx: [usize; TOTAL_CORES],
    bus: MissBus,
    dram: Dram,
    golden: Option<GoldenMemory>,
    /// In-flight transactions; the interconnect tag *is* the generational
    /// slab handle, so tag lookups are an index + generation check
    /// instead of a `HashMap` probe.
    txs: GenSlab<Tx>,
    store_tokens: u64,
    /// Pending actions, popped in exact `(time, seq)` order (the wheel
    /// owns the sequence numbering).
    events: TimingWheel<Action>,
    now: u64,
    paused: bool,
    /// Cores whose status is `Finished` (O(1) completion check).
    finished_cores: usize,
    /// Reused victim/holder scratch for coherence fan-outs.
    scratch_cores: Vec<usize>,
    /// `l2_model.access_cycles(&tech)`, cached off the bank-service path.
    l2_access_cycles: u64,
    // metric counters
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_accesses: u64,
    invalidations: u64,
    recalls: u64,
    l2_latency: LatencyStats,
    // physical models for energy finalisation
    l1_model: SramBank,
    l2_model: SramBank,
    core_power: CorePowerModel,
    dram_power: DramEnergyModel,
    l1_reads: u64,
    l1_writes: u64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .field("state", &self.config.power_state.to_string())
            .field("interconnect", &self.interconnect.name().to_string())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds the cluster for `config`, one workload stream per active
    /// core.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the interconnect rejects the power state (baseline
    /// NoCs only support `Full connection`) or stream count mismatches.
    pub fn new(config: SimConfig, streams: Vec<CoreStream>) -> Result<Self, SimError> {
        let tech = Technology::lp45();
        let floorplan = Floorplan::date16();
        let map = AddressMap::date16();
        let Configured {
            interconnect,
            mot_cfg,
            active_cores,
            physical_to_idx,
            bank_powered,
            dram_timing,
            dram_power,
            bus_occupancy,
            golden,
        } = Configured::derive(&tech, &floorplan, &config, streams.len())?;

        let cores: Vec<CoreState> = active_cores
            .into_iter()
            .zip(streams)
            .map(|(physical, stream)| CoreState::new(physical, stream))
            .collect();
        let l1s = (0..TOTAL_CORES)
            .map(|_| SetAssocCache::new(CacheConfig::l1_date16()))
            .collect::<Result<Vec<_>, _>>()?;
        let banks = bank_powered
            .into_iter()
            .map(|powered| {
                Ok(BankState {
                    cache: SetAssocCache::new(CacheConfig::l2_bank_date16())?,
                    powered,
                    free_at: 0,
                    reads: 0,
                    writes: 0,
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;

        let l2_model = SramBank::model(&tech, SramConfig::l2_bank_date16())?;

        let statuses = vec![CoreStatus::Ready; cores.len()];
        let all_cores_mask = u32::MAX >> (32 - cores.len() as u32);

        Ok(Cluster {
            config,
            floorplan,
            map,
            interconnect,
            mot_cfg,
            ready_mask: all_cores_mask,
            computing_mask: 0,
            barrier_mask: 0,
            until: vec![0; cores.len()],
            until_min: u64::MAX,
            cores,
            l1s,
            statuses,
            banks,
            physical_to_idx,
            bus: MissBus::new(TOTAL_BANKS + TOTAL_CORES, bus_occupancy),
            dram: Dram::new(dram_timing, map),
            golden,
            txs: GenSlab::new(),
            store_tokens: 0,
            events: TimingWheel::new(),
            now: 0,
            paused: false,
            finished_cores: 0,
            scratch_cores: Vec::new(),
            l2_access_cycles: l2_model.access_cycles(&tech),
            l1_hits: 0,
            l1_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
            dram_accesses: 0,
            invalidations: 0,
            recalls: 0,
            l2_latency: LatencyStats::default(),
            l1_model: SramBank::model(&tech, SramConfig::l1_date16())?,
            l2_model,
            core_power: CorePowerModel::cortex_a5_like(),
            dram_power,
            l1_reads: 0,
            l1_writes: 0,
            tech,
        })
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every core finished and all machinery drained (O(1): every
    /// term is a counter or an emptiness flag).
    pub fn is_done(&self) -> bool {
        self.finished_cores == self.cores.len()
            && self.txs.is_empty()
            && self.events.is_empty()
            && self.bus.is_idle()
    }

    /// Single point of truth for core-status transitions: updates the
    /// status array and every derived mask/counter together.
    #[inline]
    fn set_status(&mut self, idx: usize, status: CoreStatus) {
        let bit = 1u32 << idx;
        // Whether this transition can retire the cached `until_min`: the
        // core held it while computing, and is about to stop (or move it).
        let held_min = self.computing_mask & bit != 0 && self.until[idx] == self.until_min;
        self.ready_mask &= !bit;
        self.computing_mask &= !bit;
        self.barrier_mask &= !bit;
        match status {
            CoreStatus::Ready => self.ready_mask |= bit,
            CoreStatus::Computing { until } => {
                self.computing_mask |= bit;
                self.until[idx] = until;
                if until < self.until_min {
                    self.until_min = until;
                }
            }
            CoreStatus::AtBarrier { .. } => self.barrier_mask |= bit,
            // `Finished` is terminal, so the count can only grow (reset
            // rebuilds it from scratch).
            CoreStatus::Finished => self.finished_cores += 1,
            CoreStatus::WaitingMem | CoreStatus::WaitingIFetch => {}
        }
        self.statuses[idx] = status;
        if held_min {
            self.recompute_until_min();
        }
    }

    /// Rebuilds [`Cluster::until_min`] from the computing mask. Only runs
    /// when the minimum's holder leaves `Computing` — once per compute
    /// run, not per step.
    fn recompute_until_min(&mut self) {
        let mut min = u64::MAX;
        let mut computing = self.computing_mask;
        while computing != 0 {
            let idx = computing.trailing_zeros() as usize;
            computing &= computing - 1;
            min = min.min(self.until[idx]);
        }
        self.until_min = min;
    }

    /// The physical bank that currently serves a home bank index.
    fn serving_bank(&self, home: usize) -> usize {
        match &self.mot_cfg {
            Some(cfg) => cfg.remap_bank(home),
            None => home,
        }
    }

    fn l2_cycles(&self) -> u64 {
        self.l2_access_cycles
    }

    fn schedule(&mut self, at: u64, action: Action) {
        self.events.schedule(at, action);
    }

    fn fresh_token(&mut self, core_idx: usize) -> u64 {
        self.store_tokens += 1;
        ((core_idx as u64 + 1) << 48) | self.store_tokens
    }

    /// Starts a memory transaction for a core and blocks it.
    fn start_tx(&mut self, core_idx: usize, line: LineAddr, kind: TxKind) {
        let value = if matches!(kind, TxKind::Store | TxKind::Upgrade) {
            self.fresh_token(core_idx)
        } else {
            0
        };
        let tag = self.txs.insert(Tx {
            core_idx,
            line,
            kind,
            issued_at: self.now,
            value,
        });
        debug_assert_ne!(tag, WB_TAG);
        let physical = self.cores[core_idx].physical;
        self.interconnect.inject_request(
            self.now,
            MemRequest {
                core: physical,
                home_bank: self.map.home_bank(line),
                kind: ReqKind::ReadLine,
                tag,
            },
        );
        self.set_status(core_idx, CoreStatus::WaitingMem);
    }

    /// L1 dirty eviction: functional state syncs immediately; a ghost
    /// WriteLine message still travels for timing/energy.
    fn l1_writeback(&mut self, core_idx: usize, line: LineAddr, data: u64) {
        let bank = self.serving_bank(self.map.home_bank(line));
        let physical = self.cores[core_idx].physical;
        // Functional: L2 is kept current by the atomic-at-home-node rule,
        // so the data matches; just release the directory slot.
        if let Some(dir) = self.banks[bank].cache.payload_mut(line) {
            dir.drop_core(physical);
        }
        let _ = data;
        let tag = self.txs.insert(Tx {
            core_idx,
            line,
            kind: TxKind::L1Writeback,
            issued_at: self.now,
            value: 0,
        });
        debug_assert_ne!(tag, WB_TAG);
        self.interconnect.inject_request(
            self.now,
            MemRequest {
                core: physical,
                home_bank: self.map.home_bank(line),
                kind: ReqKind::WriteLine,
                tag,
            },
        );
    }

    /// Fills a line into a core's L1, handling the displaced victim.
    fn l1_fill(&mut self, core_idx: usize, line: LineAddr, value: u64, exclusive: bool) {
        let (slot, evicted) = self.l1s[core_idx].fill_slot(line, value, exclusive);
        self.l1s[core_idx].payload_at_mut(slot).exclusive = exclusive;
        match evicted {
            Some(ev) if ev.dirty => self.l1_writeback(core_idx, ev.addr, ev.data),
            Some(ev) => {
                // Clean evictions are silent; the directory may retain a
                // stale sharer, which later invalidations tolerate.
                let _ = ev;
            }
            None => {}
        }
    }

    /// Invalidate a line from a specific physical core's L1 (coherence).
    fn invalidate_l1(&mut self, physical: usize, line: LineAddr) {
        let idx = self.physical_to_idx[physical];
        if idx != usize::MAX {
            self.l1s[idx].invalidate(line);
        }
    }

    /// Services a request at its bank. Mutates architectural state now;
    /// schedules the response at the right time.
    // mot3d-lint: no-alloc
    fn service_bank(&mut self, bank_idx: usize, tag: u64, at_cycle: u64) {
        // mot3d-lint: allow(P1) -- a scheduled arrival's tx is removed only at delivery, later
        let tx = *self.txs.get(tag).expect("arrival has a transaction");
        assert!(
            self.banks[bank_idx].powered,
            "request arrived at gated bank {bank_idx}"
        );
        let access = self.l2_cycles();
        let start = at_cycle.max(self.banks[bank_idx].free_at);
        self.banks[bank_idx].free_at = start + access;
        let done = start + access;

        if tx.kind == TxKind::L1Writeback {
            // Ghost writeback: occupancy + stats only (state already
            // synced at eviction).
            self.banks[bank_idx].writes += 1;
            self.txs.remove(tag);
            return;
        }

        let physical = self.cores[tx.core_idx].physical;
        let is_store = matches!(tx.kind, TxKind::Store | TxKind::Upgrade);

        if let Some(slot) = self.banks[bank_idx].cache.find(tx.line) {
            // --- L2 hit ---------------------------------------------
            self.l2_hits += 1;
            let extra = self.access_resident_line(bank_idx, tag, slot);
            self.schedule(
                done + extra,
                Action::Respond {
                    tag,
                    core: physical,
                    bank: bank_idx,
                    write: is_store,
                },
            );
        } else {
            // --- L2 miss: tag check, then the Miss bus + DRAM ---------
            self.l2_misses += 1;
            self.schedule(
                done,
                Action::BusEnqueue {
                    bank: bank_idx,
                    tag,
                },
            );
        }
    }

    /// Performs the coherence actions and data movement for a transaction
    /// whose line is resident in `bank_idx` at `slot` (resolved once by
    /// the caller — every directory/data access below goes through the
    /// handle instead of re-probing the tags). Returns the extra
    /// response latency charged for recalls/invalidations. Shared by the
    /// L2-hit path and the post-refill path (a concurrent miss to the
    /// same line may find it already filled and owned — the
    /// blocking-cache equivalent of an MSHR merge).
    // mot3d-lint: no-alloc
    fn access_resident_line(&mut self, bank_idx: usize, tag: u64, slot: SlotHandle) -> u64 {
        // mot3d-lint: allow(P1) -- callers hold a live tag (removed only at delivery)
        let tx = *self.txs.get(tag).expect("transaction exists");
        let physical = self.cores[tx.core_idx].physical;
        let is_store = matches!(tx.kind, TxKind::Store | TxKind::Upgrade);
        let mut extra = 0u64;
        let oneway = self.interconnect.oneway_latency_hint();

        let dir_owner = self.banks[bank_idx].cache.payload_at(slot).owner();
        if let Some(owner) = dir_owner {
            if owner != physical {
                // Recall the modified copy (data already current in L2 by
                // the atomic rule; pay the protocol latency).
                self.recalls += 1;
                extra += 2 * oneway + 4;
                if is_store {
                    self.invalidate_l1(owner, tx.line);
                    self.invalidations += 1;
                } else if self.physical_to_idx[owner] != usize::MAX {
                    let l1 = &mut self.l1s[self.physical_to_idx[owner]];
                    if let Some(meta) = l1.payload_mut(tx.line) {
                        meta.exclusive = false;
                    }
                }
                self.banks[bank_idx]
                    .cache
                    .payload_at_mut(slot)
                    .owner_writeback(!is_store);
            }
        }

        if is_store {
            let mut victims = std::mem::take(&mut self.scratch_cores);
            victims.clear();
            self.banks[bank_idx]
                .cache
                .payload_at_mut(slot)
                .grant_exclusive_into(physical, &mut victims);
            if !victims.is_empty() {
                extra += 2 * oneway + 2;
                self.invalidations += victims.len() as u64;
                for &v in &victims {
                    self.invalidate_l1(v, tx.line);
                }
            }
            self.scratch_cores = victims;
            // Store becomes architecturally visible now.
            self.banks[bank_idx].cache.write_at(slot, tx.value);
            if let Some(golden) = &mut self.golden {
                golden.write(tx.line, tx.value);
            }
            self.banks[bank_idx].writes += 1;
        } else {
            self.banks[bank_idx]
                .cache
                .payload_at_mut(slot)
                .add_sharer(physical);
            let value = self.banks[bank_idx].cache.read_at(slot);
            // The load is architecturally ordered *here*; the golden
            // comparison must use this point, not the delivery time (a
            // store ordered in between is not a violation).
            if let Some(golden) = &self.golden {
                assert_eq!(
                    value,
                    golden.read(tx.line),
                    "load mismatch at {:?} cycle {} (ordering point)",
                    tx.line,
                    self.now
                );
            }
            // mot3d-lint: allow(P1) -- same live tag the function was entered with
            self.txs.get_mut(tag).expect("tx exists").value = value;
            self.banks[bank_idx].reads += 1;
        }
        extra
    }

    /// DRAM refill arrives at the bank: fill, handle the victim, respond.
    // mot3d-lint: no-alloc
    fn refill_bank(&mut self, bank_idx: usize, tag: u64) {
        // mot3d-lint: allow(P1) -- a scheduled refill's tx is removed only at delivery, later
        let tx = *self.txs.get(tag).expect("refill has a transaction");
        let physical = self.cores[tx.core_idx].physical;
        let is_store = matches!(tx.kind, TxKind::Store | TxKind::Upgrade);

        let slot = match self.banks[bank_idx].cache.find(tx.line) {
            // A concurrent miss filled the line meanwhile.
            Some(slot) => slot,
            None => {
                let dram_value = self.dram.read_line(tx.line);
                let (slot, evicted) = self.banks[bank_idx]
                    .cache
                    .fill_slot(tx.line, dram_value, false);
                if let Some(ev) = evicted {
                    // Maintain inclusion: kick the victim out of any L1
                    // holding it (`ev` is owned, so the sharer iterator can
                    // drive the invalidations directly — no temporary).
                    for h in ev.payload.sharers() {
                        self.invalidate_l1(h, ev.addr);
                        self.invalidations += 1;
                    }
                    if let Some(owner) = ev.payload.owner() {
                        self.invalidate_l1(owner, ev.addr);
                        self.invalidations += 1;
                    }
                    if ev.dirty {
                        self.dram.write_line(ev.addr, ev.data);
                        self.dram_accesses += 1;
                        // Victim writeback occupies the Miss bus (timing only).
                        self.bus.enqueue(Transfer {
                            requester: bank_idx,
                            tag: WB_TAG,
                        });
                    }
                }
                slot
            }
        };
        // Either way the line is resident now at `slot` and the normal
        // access path applies.
        let extra = self.access_resident_line(bank_idx, tag, slot);

        self.schedule(
            self.now + self.l2_cycles() + extra,
            Action::Respond {
                tag,
                core: physical,
                bank: bank_idx,
                write: is_store,
            },
        );
    }

    /// Whether the directory still registers this core for the line (a
    /// concurrent transaction may have invalidated it while the response
    /// was in flight; in that case the fill must be dropped — the
    /// operation itself was already ordered at the bank).
    fn still_registered(&self, physical: usize, line: LineAddr, as_owner: bool) -> bool {
        let bank = self.serving_bank(self.map.home_bank(line));
        match self.banks[bank].cache.payload(line) {
            Some(dir) if as_owner => dir.owner() == Some(physical),
            Some(dir) => dir.holds(physical),
            None => false,
        }
    }

    /// A response arrived back at its core: complete the instruction.
    // mot3d-lint: no-alloc
    fn complete_delivery(&mut self, tag: u64, at_cycle: u64) {
        // mot3d-lint: allow(P1) -- each tag is delivered exactly once; this is its removal point
        let tx = self.txs.remove(tag).expect("delivery has a transaction");
        self.l2_latency
            .record(at_cycle.saturating_sub(tx.issued_at));
        let physical = self.cores[tx.core_idx].physical;
        match tx.kind {
            TxKind::Load => {
                // (Golden-checked at the bank, the architectural ordering
                // point.) Drop the fill if an in-flight invalidation
                // already revoked our copy.
                if self.still_registered(physical, tx.line, false) {
                    self.l1_fill(tx.core_idx, tx.line, tx.value, false);
                }
            }
            TxKind::Store | TxKind::Upgrade => {
                // The store was performed at the bank; only cache the
                // line in M state if we still own it.
                if self.still_registered(physical, tx.line, true) {
                    if let Some(slot) = self.l1s[tx.core_idx].find(tx.line) {
                        self.l1s[tx.core_idx].write_at(slot, tx.value);
                        self.l1s[tx.core_idx].payload_at_mut(slot).exclusive = true;
                    } else {
                        // `l1_fill(…, exclusive = true)` marks M state.
                        self.l1_fill(tx.core_idx, tx.line, tx.value, true);
                    }
                } else {
                    // Ownership was revoked in flight (e.g. a reader
                    // downgraded us). An upgrade's surviving L1 copy is
                    // the *pre-store* image — newer data already lives in
                    // L2 — so it must not serve future hits.
                    self.l1s[tx.core_idx].invalidate(tx.line);
                }
            }
            TxKind::L1Writeback => unreachable!("writebacks have no responses"),
        }
        self.set_status(tx.core_idx, CoreStatus::Ready);
    }

    /// One core issue step.
    // mot3d-lint: no-alloc
    fn step_core(&mut self, idx: usize) {
        match self.statuses[idx] {
            CoreStatus::Computing { until } if self.now >= until => {
                self.set_status(idx, CoreStatus::Ready);
            }
            _ => {}
        }
        if self.statuses[idx] != CoreStatus::Ready || self.paused {
            return;
        }
        let Some(op) = self.cores[idx].stream.next() else {
            self.set_status(idx, CoreStatus::Finished);
            self.cores[idx].finished_at = Some(self.now);
            return;
        };
        match op {
            StreamOp::Op(Op::Compute(n)) => {
                let c = &mut self.cores[idx];
                c.busy_cycles += n as u64;
                c.retired += n as u64;
                self.set_status(
                    idx,
                    CoreStatus::Computing {
                        until: self.now + n as u64,
                    },
                );
            }
            StreamOp::Op(Op::Load(addr)) => {
                let line = self.map.line_of(addr);
                self.cores[idx].busy_cycles += 1;
                self.cores[idx].retired += 1;
                self.l1_reads += 1;
                if let Some(value) = self.l1s[idx].read(line) {
                    self.l1_hits += 1;
                    if let Some(golden) = &self.golden {
                        assert_eq!(
                            value,
                            golden.read(line),
                            "L1 load mismatch at {line:?} cycle {}",
                            self.now
                        );
                    }
                    self.set_status(
                        idx,
                        CoreStatus::Computing {
                            until: self.now + 1,
                        },
                    );
                } else {
                    self.l1_misses += 1;
                    self.start_tx(idx, line, TxKind::Load);
                }
            }
            StreamOp::Op(Op::Store(addr)) => {
                let line = self.map.line_of(addr);
                self.cores[idx].busy_cycles += 1;
                self.cores[idx].retired += 1;
                self.l1_writes += 1;
                match self.l1s[idx].find(line) {
                    Some(slot) if self.l1s[idx].payload_at(slot).exclusive => {
                        // M-state store: 1 cycle; keep L2 architecturally
                        // current (atomic-at-home-node bookkeeping, no
                        // traffic).
                        self.l1_hits += 1;
                        let token = self.fresh_token(idx);
                        self.l1s[idx].write_at(slot, token);
                        let bank = self.serving_bank(self.map.home_bank(line));
                        let bank_slot = self.banks[bank].cache.find(line);
                        debug_assert!(bank_slot.is_some(), "inclusion violated for {line:?}");
                        if let Some(bank_slot) = bank_slot {
                            self.banks[bank].cache.write_at(bank_slot, token);
                        }
                        if let Some(golden) = &mut self.golden {
                            golden.write(line, token);
                        }
                        self.set_status(
                            idx,
                            CoreStatus::Computing {
                                until: self.now + 1,
                            },
                        );
                    }
                    Some(_) => {
                        self.l1_misses += 1;
                        self.start_tx(idx, line, TxKind::Upgrade);
                    }
                    None => {
                        self.l1_misses += 1;
                        self.start_tx(idx, line, TxKind::Store);
                    }
                }
            }
            StreamOp::Op(Op::Barrier(id)) => {
                self.set_status(idx, CoreStatus::AtBarrier { id });
            }
            StreamOp::IFetchMiss(addr) => {
                let physical = self.cores[idx].physical;
                self.set_status(idx, CoreStatus::WaitingIFetch);
                self.bus.enqueue(Transfer {
                    requester: TOTAL_BANKS + physical,
                    tag: addr,
                });
            }
        }
    }

    /// Releases barriers when every unfinished core reached one. O(1)
    /// when the barrier is not ready: a core is at a barrier or finished
    /// iff it is in `barrier_mask` / the finished count, so the release
    /// condition is one popcount.
    fn check_barriers(&mut self) {
        if self.barrier_mask == 0 {
            return;
        }
        if self.barrier_mask.count_ones() as usize + self.finished_cores != self.cores.len() {
            return; // someone still working: barrier not ready
        }
        let mut waiting = self.barrier_mask;
        while waiting != 0 {
            let idx = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            self.set_status(idx, CoreStatus::Ready);
        }
    }

    /// Advances the cluster by one cycle.
    pub fn step(&mut self) {
        self.step_with(&mut NullObserver);
    }

    /// [`Cluster::step`] with an [`Observer`] sampled at the end of the
    /// step (before `now` advances). With [`NullObserver`] the guard
    /// folds away and this *is* `step` — same machine code, no branch.
    // mot3d-lint: no-alloc
    pub fn step_with<O: Observer>(&mut self, obs: &mut O) {
        let now = self.now;
        self.interconnect.tick(now);

        // Scheduled actions due this cycle.
        while let Some((_, action)) = self.events.pop_due(now) {
            match action {
                Action::BusEnqueue { bank, tag } => {
                    self.bus.enqueue(Transfer {
                        requester: bank,
                        tag,
                    });
                }
                Action::Refill { bank, tag } => self.refill_bank(bank, tag),
                Action::Respond {
                    tag,
                    core,
                    bank,
                    write,
                } => {
                    self.interconnect.inject_response(
                        now,
                        MemResponse {
                            core,
                            bank,
                            kind: if write {
                                ReqKind::WriteLine
                            } else {
                                ReqKind::ReadLine
                            },
                            tag,
                        },
                    );
                }
                Action::IFetchDone { core_idx } => {
                    if self.statuses[core_idx] == CoreStatus::WaitingIFetch {
                        self.set_status(core_idx, CoreStatus::Ready);
                    }
                }
            }
        }

        // Miss-bus grant completion (one per cycle).
        if let Some(t) = self.bus.tick(now) {
            if t.requester < TOTAL_BANKS {
                if t.tag == WB_TAG {
                    // Victim writeback reached DRAM; already applied.
                } else {
                    // mot3d-lint: allow(P1) -- a queued transfer's tx is removed only at delivery, later
                    let tx = self.txs.get(t.tag).expect("bus transfer has tx");
                    let done = self.dram.access(now, tx.line, false);
                    self.dram_accesses += 1;
                    self.schedule(
                        done,
                        Action::Refill {
                            bank: t.requester,
                            tag: t.tag,
                        },
                    );
                }
            } else {
                // Instruction refill: straight to DRAM and back (§II).
                let physical = t.requester - TOTAL_BANKS;
                let line = self.map.line_of(t.tag);
                let done = self.dram.access(now, line, false);
                self.dram_accesses += 1;
                let core_idx = self.physical_to_idx[physical];
                if core_idx != usize::MAX {
                    self.schedule(done, Action::IFetchDone { core_idx });
                }
            }
        }

        // Requests arriving at banks.
        while let Some(a) = self.interconnect.pop_arrival() {
            self.service_bank(a.bank, a.request.tag, a.at_cycle);
        }

        // Responses arriving at cores.
        while let Some(d) = self.interconnect.pop_delivery() {
            self.complete_delivery(d.response.tag, d.at_cycle);
        }

        self.check_barriers();

        // Only Ready cores can issue and only Computing cores can change
        // state in `step_core`; walking the mask in ascending bit order
        // visits them exactly as the full 0..cores scan would. Issuing
        // never changes another core's status, so the snapshot is exact.
        // A computing core whose deadline is still ahead provably no-ops
        // in `step_core`, so it is masked out instead of called.
        let mut actionable = self.ready_mask | self.computing_mask;
        while actionable != 0 {
            let idx = actionable.trailing_zeros() as usize;
            let bit = actionable & actionable.wrapping_neg();
            actionable &= actionable - 1;
            if self.computing_mask & bit != 0 && self.until[idx] > now {
                continue;
            }
            self.step_core(idx);
        }

        if O::ENABLED {
            obs.sample(self);
        }
        self.now += 1;
    }

    /// The earliest upcoming cycle at which stepping can change state, or
    /// `None` when every component is idle (quiescence or deadlock).
    ///
    /// Returns `self.now` (no skip possible) when a core is ready to
    /// issue, a pending barrier release is due, or any component reports
    /// immediate activity. Every cycle strictly between `self.now` and the
    /// returned value is a provable no-op: all cores are blocked past it,
    /// no scheduled action is due, the Miss bus neither completes nor
    /// grants, and the interconnect neither lands a transit nor arbitrates
    /// (its grant logic does not mutate round-robin state when no request
    /// is asserted, so skipping preserves grant order bit-for-bit).
    // mot3d-lint: no-alloc
    fn next_wake(&self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let merge = |w: &mut Option<u64>, t: u64| *w = Some(w.map_or(t, |x| x.min(t)));
        if !self.paused {
            // A paused cluster never issues, so core states cannot create
            // activity; unpaused, a Ready core issues this very cycle.
            if self.ready_mask != 0 {
                return Some(self.now);
            }
            // Everyone unfinished is at the barrier: the release fires on
            // the next step's barrier check. (No core is Ready here, so
            // barrier + finished covering all cores means none is
            // computing or waiting.)
            if self.barrier_mask != 0
                && self.barrier_mask.count_ones() as usize + self.finished_cores == self.cores.len()
            {
                return Some(self.now);
            }
            debug_assert!({
                let mut min = u64::MAX;
                let mut computing = self.computing_mask;
                while computing != 0 {
                    let idx = computing.trailing_zeros() as usize;
                    computing &= computing - 1;
                    min = min.min(self.until[idx]);
                }
                min == self.until_min
            });
            if self.until_min != u64::MAX {
                merge(&mut wake, self.until_min);
            }
        }
        if let Some(t) = self.events.next_time() {
            merge(&mut wake, t);
        }
        if let Some(t) = self.bus.next_activity(self.now) {
            merge(&mut wake, t);
        }
        if let Some(t) = self.interconnect.next_activity(self.now) {
            merge(&mut wake, t);
        }
        if let Some(t) = self.dram.next_activity(self.now) {
            merge(&mut wake, t);
        }
        wake.map(|w| w.max(self.now))
    }

    /// Event-driven advance: jumps `now` to the next wake-up (clamped to
    /// `limit`) and steps once. With no upcoming wake-up, jumps straight
    /// to `limit` so the caller's cycle-limit check fires — exactly where
    /// per-cycle stepping would have idled its way to.
    // mot3d-lint: no-alloc
    fn advance_with<O: Observer>(&mut self, limit: u64, obs: &mut O) {
        match self.next_wake() {
            Some(wake) => {
                if wake > self.now {
                    self.now = wake.min(limit);
                }
            }
            None => self.now = limit,
        }
        if self.now < limit {
            self.step_with(obs);
            if O::ENABLED {
                // Between steps: outside the no-alloc hot path, so a
                // buffered observer can drain its ring here.
                obs.maintain();
            }
        }
    }

    /// Runs to completion, event-driven: idle stretches where every core
    /// is blocked are skipped in one jump instead of ticked cycle by
    /// cycle. Produces bit-identical metrics to calling [`Cluster::step`]
    /// in a loop.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if `max_cycles` is exceeded (a deadlock or
    /// runaway configuration).
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        self.run_to_completion_with(&mut NullObserver)
    }

    /// [`Cluster::run_to_completion`] with an [`Observer`]: samples the
    /// pre-run state once, then after every executed step, and lets the
    /// observer [`Observer::maintain`] itself between steps. With
    /// [`NullObserver`] every hook folds away and this is exactly
    /// `run_to_completion`.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if `max_cycles` is exceeded (a deadlock or
    /// runaway configuration).
    pub fn run_to_completion_with<O: Observer>(&mut self, obs: &mut O) -> Result<(), SimError> {
        if O::ENABLED {
            // Baseline sample: the cycle-zero state every timeline opens
            // with (all cores Ready, everything idle).
            obs.sample(self);
            obs.maintain();
        }
        while !self.is_done() {
            if self.now >= self.config.max_cycles {
                return Err(SimError::CycleLimit(self.config.max_cycles));
            }
            self.advance_with(self.config.max_cycles, obs);
        }
        Ok(())
    }

    /// Advances (event-driven) until `cycle` is reached or the cluster
    /// finishes, whichever comes first. State afterwards is bit-identical
    /// to `while !is_done() && now() < cycle { step() }` — the idle cycles
    /// between the last event before `cycle` and `cycle` itself change
    /// nothing.
    pub fn run_until(&mut self, cycle: u64) {
        self.run_until_with(cycle, &mut NullObserver);
    }

    /// [`Cluster::run_until`] with an [`Observer`] (see
    /// [`Cluster::run_to_completion_with`] for the sampling contract).
    pub fn run_until_with<O: Observer>(&mut self, cycle: u64, obs: &mut O) {
        while !self.is_done() && self.now < cycle {
            match self.next_wake() {
                Some(wake) if wake < cycle => {
                    if wake > self.now {
                        self.now = wake;
                    }
                    self.step_with(obs);
                    if O::ENABLED {
                        obs.maintain();
                    }
                }
                _ => self.now = cycle,
            }
        }
    }

    /// Drains all in-flight work without issuing new instructions
    /// (pre-transition quiescence). Event-driven like
    /// [`Cluster::run_to_completion`].
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if draining does not converge.
    pub fn drain(&mut self) -> Result<(), SimError> {
        self.paused = true;
        let limit = self.now + 1_000_000;
        while !(self.txs.is_empty() && self.events.is_empty() && self.bus.is_idle()) {
            if self.now >= limit {
                self.paused = false;
                return Err(SimError::CycleLimit(limit));
            }
            self.advance_with(limit, &mut NullObserver);
        }
        self.paused = false;
        Ok(())
    }

    /// Brings this cluster to `config` at cycle zero with fresh workload
    /// streams: afterwards it is bit-identical to
    /// [`Cluster::new`]`(config, streams)`, whatever it was configured
    /// for and whatever it was doing — finished, aborted mid-run, or
    /// switched to another power state on the way.
    ///
    /// No [`SimConfig`] field changes the geometry of the caches, so the
    /// L1 and L2 arrays (megabytes), the timing wheel, the transaction
    /// slab and the DRAM's line map all stay. What the configuration
    /// does determine — the interconnect and its bank remap, the
    /// active-core list, DRAM timing and energy, Miss-bus occupancy, the
    /// golden memory — is built anew, in microseconds. The caches clear
    /// only the sets the previous run filled ([`SetAssocCache::clear`]),
    /// so a sweep of short points pays for what each point touched, not
    /// for what a cluster holds. This is what lets one cluster per
    /// thread serve a whole design-space grid (see
    /// [`crate::runner::ClusterPool`]).
    ///
    /// # Errors
    ///
    /// The same [`SimError`]s as [`Cluster::new`] — an unfitting power
    /// state, a stream count that does not match it, a baseline NoC
    /// outside `Full connection`. All of them are found before anything
    /// is changed: after an `Err` the cluster is as it was.
    pub fn retarget(
        &mut self,
        config: SimConfig,
        streams: Vec<CoreStream>,
    ) -> Result<(), SimError> {
        let Configured {
            interconnect,
            mot_cfg,
            active_cores,
            physical_to_idx,
            bank_powered,
            dram_timing,
            dram_power,
            bus_occupancy,
            golden,
        } = Configured::derive(&self.tech, &self.floorplan, &config, streams.len())?;
        // Every check has passed; nothing below fails. (A zero bus
        // occupancy panics here as it does in `new`: first, while the
        // cluster is still whole.)
        self.bus.reset(bus_occupancy);

        self.config = config;
        self.interconnect = interconnect;
        self.mot_cfg = mot_cfg;
        self.physical_to_idx = physical_to_idx;
        self.dram.reset(dram_timing);
        self.dram_power = dram_power;
        self.golden = golden;

        self.cores.clear();
        self.cores.extend(
            active_cores
                .into_iter()
                .zip(streams)
                .map(|(physical, stream)| CoreState::new(physical, stream)),
        );
        for l1 in &mut self.l1s {
            l1.clear();
        }
        let cores = self.cores.len();
        self.statuses.clear();
        self.statuses.resize(cores, CoreStatus::Ready);
        self.ready_mask = u32::MAX >> (32 - cores as u32);
        self.computing_mask = 0;
        self.barrier_mask = 0;
        self.until.clear();
        self.until.resize(cores, 0);
        self.until_min = u64::MAX;
        for (bank, powered) in self.banks.iter_mut().zip(bank_powered) {
            bank.cache.clear();
            bank.powered = powered;
            bank.free_at = 0;
            bank.reads = 0;
            bank.writes = 0;
        }
        self.txs.clear();
        self.store_tokens = 0;
        self.events.clear();
        self.now = 0;
        self.paused = false;
        self.finished_cores = 0;
        self.l1_hits = 0;
        self.l1_misses = 0;
        self.l2_hits = 0;
        self.l2_misses = 0;
        self.dram_accesses = 0;
        self.invalidations = 0;
        self.recalls = 0;
        self.l2_latency = LatencyStats::default();
        self.l1_reads = 0;
        self.l1_writes = 0;
        Ok(())
    }

    /// [`Cluster::retarget`] to the *current* configuration (the power
    /// state last switched to, if any): back to cycle zero with fresh
    /// workload streams.
    ///
    /// # Errors
    ///
    /// [`SimError::StreamCountMismatch`] if the stream count does not
    /// match the active core count.
    pub fn reset(&mut self, streams: Vec<CoreStream>) -> Result<(), SimError> {
        self.retarget(self.config, streams)
    }

    /// The current power state.
    pub fn power_state(&self) -> PowerState {
        self.config.power_state
    }

    /// Collects final metrics (consumes nothing; callable after
    /// [`Cluster::run_to_completion`]).
    pub fn metrics(&self, label: impl Into<String>) -> Metrics {
        let cycles = self.now;
        let exec_time = self.tech.period() * cycles as f64;
        let instructions: u64 = self.cores.iter().map(|c| c.retired).sum();

        let mut energy = EnergyBreakdown::default();
        for c in &self.cores {
            let busy = c.busy_cycles;
            let span = c.finished_at.unwrap_or(cycles).max(busy);
            let stall = span - busy;
            energy.cores += self.core_power.energy(busy, stall, exec_time, true);
        }
        // Private L1s: per-access dynamic + leakage while powered.
        energy.l1 += self.l1_model.read_energy() * self.l1_reads as f64
            + self.l1_model.write_energy() * self.l1_writes as f64
            + self.l1_model.leakage() * exec_time * self.cores.len() as f64;
        let powered_banks = self.banks.iter().filter(|b| b.powered).count() as f64;
        let l2_reads: u64 = self.banks.iter().map(|b| b.reads).sum();
        let l2_writes: u64 = self.banks.iter().map(|b| b.writes).sum();
        energy.l2 += self.l2_model.read_energy() * l2_reads as f64
            + self.l2_model.write_energy() * l2_writes as f64
            + self.l2_model.leakage() * exec_time * powered_banks;
        energy.interconnect +=
            self.interconnect.dynamic_energy() + self.interconnect.leakage_power() * exec_time;
        energy.dram += self.dram_power.energy(self.dram_accesses, exec_time);

        Metrics {
            label: label.into(),
            cycles,
            exec_time,
            instructions,
            l1_hits: self.l1_hits,
            l1_misses: self.l1_misses,
            l2_hits: self.l2_hits,
            l2_misses: self.l2_misses,
            dram_accesses: self.dram_accesses,
            l2_latency: self.l2_latency.clone(),
            invalidations: self.invalidations,
            recalls: self.recalls,
            interconnect: self.interconnect.stats(),
            energy,
        }
    }

    /// Runtime power-state transition (§III): drain, flush the lines that
    /// no longer belong (dirty ones to DRAM over the Miss bus), swap the
    /// interconnect configuration, resume. Core counts must match — core
    /// migration is an OS concern outside this model.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the new state changes the core count, the
    /// interconnect is not the reconfigurable MoT, or draining fails.
    pub fn switch_power_state(&mut self, new_state: PowerState) -> Result<(), SimError> {
        if self.mot_cfg.is_none() {
            return Err(SimError::NotReconfigurable);
        }
        if new_state.active_cores() != self.config.power_state.active_cores() {
            return Err(SimError::CoreCountChange {
                from: self.config.power_state.active_cores(),
                to: new_state.active_cores(),
            });
        }
        self.drain()?;

        let new_net = MotNetwork::new(
            &self.tech,
            &self.floorplan,
            MotTopology::date16(),
            &MotTimingParams::default(),
            new_state,
        )?;
        let new_cfg = new_net.configuration().clone();

        // Flush every line whose serving bank changes (covers both
        // gating — bank turns off — and un-gating — folded lines going
        // home). Dirty lines ride the Miss bus to DRAM.
        let mut flushed = 0u64;
        for bank_idx in 0..TOTAL_BANKS {
            let to_flush: Vec<LineAddr> = self.banks[bank_idx]
                .cache
                .resident_addrs()
                .filter(|line| new_cfg.remap_bank(self.map.home_bank(*line)) != bank_idx)
                .collect();
            for line in to_flush {
                let ev = self.banks[bank_idx]
                    .cache
                    .invalidate(line)
                    // mot3d-lint: allow(P1) -- `line` came from this cache's own resident_lines()
                    .expect("line is resident");
                for h in ev.payload.sharers() {
                    self.invalidate_l1(h, line);
                    self.invalidations += 1;
                }
                if let Some(owner) = ev.payload.owner() {
                    self.invalidate_l1(owner, line);
                    self.invalidations += 1;
                }
                if ev.dirty {
                    self.dram.write_line(ev.addr, ev.data);
                    self.dram_accesses += 1;
                    self.bus.enqueue(Transfer {
                        requester: bank_idx,
                        tag: WB_TAG,
                    });
                    flushed += 1;
                }
            }
        }
        let _ = flushed;
        // Let the flush traffic drain over the bus (paper: write back
        // before power-off).
        self.drain()?;

        for (b, bank) in self.banks.iter_mut().enumerate() {
            bank.powered = new_cfg.is_bank_active(b);
        }
        self.interconnect = ClusterNet::Mot(new_net);
        self.mot_cfg = Some(new_cfg);
        self.config.power_state = new_state;
        Ok(())
    }

    /// Read-only view of the golden memory (when `check_golden` is on).
    pub fn golden(&self) -> Option<&GoldenMemory> {
        self.golden.as_ref()
    }

    /// Verifies the entire cache hierarchy against the golden memory:
    /// every L2-resident line and every golden line must agree (L1s are
    /// kept coherent with L2 by construction). Panics on mismatch.
    pub fn verify_against_golden(&self) {
        let Some(golden) = &self.golden else {
            return;
        };
        for (line, want) in golden.iter() {
            let bank = self.serving_bank(self.map.home_bank(line));
            let got = match self.banks[bank].cache.peek(line) {
                Some((v, _)) => v,
                None => self.dram.read_line(line),
            };
            assert_eq!(got, want, "hierarchy lost a store at {line:?}");
        }
    }
}

/// Read-only observability probes: the surface [`Observer`]
/// implementations sample from. All of these are plain field reads or
/// O(components) scans — none allocates, so calling them from
/// [`Observer::sample`] respects the hot-path `no-alloc` invariant.
impl Cluster {
    /// Number of active (ungated) cores; observer core indices range
    /// over `0..active_core_count()`.
    pub fn active_core_count(&self) -> usize {
        self.cores.len()
    }

    /// Physical grid id of active core `idx` (gated power states leave
    /// holes in the physical numbering).
    pub fn core_physical_id(&self, idx: usize) -> usize {
        self.cores[idx].physical
    }

    /// What active core `idx` is doing this cycle.
    pub fn core_activity(&self, idx: usize) -> CoreActivity {
        match self.statuses[idx] {
            CoreStatus::Ready => CoreActivity::Ready,
            CoreStatus::Computing { .. } => CoreActivity::Computing,
            CoreStatus::WaitingMem => CoreActivity::WaitingMem,
            CoreStatus::WaitingIFetch => CoreActivity::WaitingIFetch,
            CoreStatus::AtBarrier { .. } => CoreActivity::AtBarrier,
            CoreStatus::Finished => CoreActivity::Finished,
        }
    }

    /// Physical L2 banks (including gated ones).
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Whether bank `bank` is powered in the current configuration.
    pub fn bank_powered(&self, bank: usize) -> bool {
        self.banks[bank].powered
    }

    /// Whether bank `bank` is mid-access this cycle (its SRAM array is
    /// occupied until a scheduled completion).
    pub fn bank_busy(&self, bank: usize) -> bool {
        self.banks[bank].free_at > self.now
    }

    /// Transfers queued on the Miss bus (excluding any granted one).
    pub fn bus_queue_depth(&self) -> usize {
        self.bus.queued()
    }

    /// The DRAM row left open by the last access (`None` before the
    /// first access or under closed-page timing assumptions).
    pub fn dram_open_row(&self) -> Option<u64> {
        self.dram.open_row()
    }

    /// Outstanding memory transactions (issued, not yet delivered).
    pub fn in_flight_transactions(&self) -> usize {
        self.txs.len()
    }

    /// Actions pending in the timing-wheel event queue.
    pub fn event_queue_depth(&self) -> usize {
        self.events.len()
    }

    /// Running `(hits, misses)` counters of the shared L2.
    pub fn l2_hit_counts(&self) -> (u64, u64) {
        (self.l2_hits, self.l2_misses)
    }

    /// Occupancy snapshot of whichever interconnect this cluster runs.
    pub fn interconnect_probe(&self) -> InterconnectProbe {
        match &self.interconnect {
            ClusterNet::Mot(n) => {
                let topo = n.configuration().topology();
                InterconnectProbe::Mot(MotProbe {
                    waiting_banks: n.waiting_banks(),
                    transit_banks: n.transit_banks(),
                    transit_requests: n.transit_request_depth(),
                    transit_responses: n.transit_response_depth(),
                    routing_levels: topo.routing_levels(),
                    banks: topo.banks(),
                })
            }
            ClusterNet::Noc(n) => InterconnectProbe::Noc(NocProbe {
                busy_ports: n.busy_ports(self.now),
                busy_buses: n.busy_buses(self.now),
                routers: n.router_count(),
            }),
        }
    }
}
