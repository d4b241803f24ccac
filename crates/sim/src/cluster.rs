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
//!
//! ## State by lifetime
//!
//! One physical cluster is re-configured between runs, so [`Cluster`]'s
//! fields are grouped by how long they live:
//!
//! | group | what | written by |
//! |-------|------|------------|
//! | fixed | technology, floorplan, address map, SRAM and core power models | [`Cluster::new`], once |
//! | storage | L1 and L2 arrays, Miss bus, DRAM, transaction slab, event wheel, golden memory, one interconnect per kind run | allocated by `new` (an interconnect, the first time its kind is run); cleared, O(touched), by [`Cluster::retarget`] |
//! | configured | `Configured`: bank remap, active cores, DRAM timing and energy | `Configured::derive`, whose value `new`, `retarget` and [`Cluster::switch_power_state`] store whole |
//! | run | `Run`: cores, statuses and masks, the clock, the metric counters | `Run::start`, whose value `new` and `retarget` store whole |
//!
//! `new` is *derive → allocate storage → `Run::start`*; `retarget` is
//! *derive → clear storage → `Run::start`*, where clearing an
//! interconnect re-points the one the cluster holds for that kind (the
//! MoT at the new power state) and resets it. The configured and run state
//! a re-targeted cluster holds is therefore the very value a new one
//! would hold, by construction: a field added to either group cannot
//! reach one path and miss the other. What construction cannot show —
//! that *clearing* storage leaves it as good as new — is what
//! `tests/retarget_equivalence.rs` checks (a dirty cluster against a
//! fresh one), and `tests/canary.rs` pins the absolute results of both.

use crate::config::{InterconnectChoice, SimConfig};
use crate::error::SimError;
use crate::metrics::{LatencyStats, Metrics};
use crate::observe::{InterconnectProbe, MotProbe, NocProbe, NullObserver, Observer};
use mot3d_mem::addr::{AddressMap, LineAddr};
use mot3d_mem::bus::{MissBus, Transfer};
use mot3d_mem::cache::{CacheConfig, EvictedLine, SetAssocCache, SlotHandle};
use mot3d_mem::coherence::Directory;
use mot3d_mem::dram::{Dram, DramKind, DramTiming};
use mot3d_mem::golden::GoldenMemory;
use mot3d_mot::latency::MotTimingParams;
use mot3d_mot::reconfig::MotConfiguration;
use mot3d_mot::topology::MotTopology;
use mot3d_mot::traits::{Interconnect, MemRequest, MemResponse, ReqKind};
use mot3d_mot::{MotError, MotNetwork, PowerState};
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
/// virtual call the compiler cannot inline. The seven methods below are
/// the ones the step loop calls; everything read once per run (name,
/// energy, leakage, statistics) goes through [`ClusterNet::get`].
#[derive(Debug)]
enum ClusterNet {
    Mot(MotNetwork),
    Noc(NocNetwork),
}

impl ClusterNet {
    /// A new network for `config`'s interconnect.
    fn build(
        tech: &Technology,
        floorplan: &Floorplan,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Ok(match config.interconnect {
            InterconnectChoice::Mot => ClusterNet::Mot(MotNetwork::new(
                tech,
                floorplan,
                MotTopology::date16(),
                &MotTimingParams::default(),
                config.power_state,
            )?),
            InterconnectChoice::Noc(kind) => {
                ClusterNet::Noc(NocNetwork::new(tech, floorplan, kind))
            }
        })
    }

    /// The interconnect this is.
    fn choice(&self) -> InterconnectChoice {
        match self {
            ClusterNet::Mot(_) => InterconnectChoice::Mot,
            ClusterNet::Noc(n) => InterconnectChoice::Noc(n.kind()),
        }
    }

    /// Moves a MoT to `state` in place ([`MotNetwork::reconfigure`]); a
    /// baseline has the one state.
    fn reconfigure(
        &mut self,
        tech: &Technology,
        floorplan: &Floorplan,
        state: PowerState,
    ) -> Result<(), SimError> {
        if let ClusterNet::Mot(n) = self {
            n.reconfigure(tech, floorplan, &MotTimingParams::default(), state)?;
        }
        Ok(())
    }

    fn reset(&mut self) {
        match self {
            ClusterNet::Mot(n) => n.reset(),
            ClusterNet::Noc(n) => n.reset(),
        }
    }

    #[inline]
    fn get(&self) -> &dyn Interconnect {
        match self {
            ClusterNet::Mot(n) => n,
            ClusterNet::Noc(n) => n,
        }
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

    /// Read once per serviced bank access.
    #[inline]
    fn oneway_latency_hint(&self) -> u64 {
        match self {
            ClusterNet::Mot(n) => n.oneway_latency_hint(),
            ClusterNet::Noc(n) => n.oneway_latency_hint(),
        }
    }
}

/// The *configured* state: everything about a cluster that its
/// [`SimConfig`] determines — and nothing that it does not (cache
/// arrays, queues, interconnects, physical models).
///
/// Built only by [`Configured::derive`] and stored whole as
/// `Cluster::cfg`: [`Cluster::new`], [`Cluster::retarget`] and
/// [`Cluster::switch_power_state`] all install the value `derive`
/// returns, so a part that starts to depend on the configuration cannot
/// reach one of them and miss another.
struct Configured {
    mot_cfg: Option<MotConfiguration>,
    /// Physical ids of the active cores, in rank order.
    active_cores: Vec<usize>,
    /// `physical_to_idx[physical]` = index into `Run::cores`, or
    /// `usize::MAX` when that physical core is gated (coherence lookups
    /// would otherwise scan the cores linearly per invalidation).
    physical_to_idx: [usize; TOTAL_CORES],
    bank_powered: [bool; TOTAL_BANKS],
    dram_timing: DramTiming,
    dram_power: DramEnergyModel,
    bus_occupancy: u64,
}

impl Configured {
    /// Checks `config` (against `streams` workload streams) and builds
    /// its parts. Touches no cluster, so a caller that gets an `Err`
    /// has changed nothing.
    fn derive(config: &SimConfig, streams: usize) -> Result<Self, SimError> {
        let state = config.power_state;
        state.check_fits(TOTAL_CORES, TOTAL_BANKS)?;
        if streams != state.active_cores() {
            return Err(SimError::StreamCountMismatch {
                streams,
                active_cores: state.active_cores(),
            });
        }

        let mot_cfg = match config.interconnect {
            InterconnectChoice::Mot => {
                Some(MotConfiguration::new(MotTopology::date16(), state).map_err(MotError::from)?)
            }
            InterconnectChoice::Noc(kind) if state != PowerState::full() => {
                return Err(SimError::NocNeedsFullState(kind));
            }
            InterconnectChoice::Noc(_) => None,
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
        })
    }

    /// The physical bank that serves a home bank index.
    fn serving_bank(&self, home: usize) -> usize {
        match &self.mot_cfg {
            Some(cfg) => cfg.remap_bank(home),
            None => home,
        }
    }
}

/// The metric counters of a run, all zero at cycle zero.
#[derive(Debug, Default)]
struct Counters {
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_accesses: u64,
    invalidations: u64,
    recalls: u64,
    l1_reads: u64,
    l1_writes: u64,
    l2_latency: LatencyStats,
}

/// The *run* state: what one workload run changes between cycle zero
/// and its last cycle, built only by [`Run::start`].
#[derive(Debug)]
struct Run {
    cores: Vec<CoreState>,
    /// Core statuses, split out of `CoreState` structure-of-arrays
    /// style: the wake/barrier/issue loops consult every core's status
    /// each step, and inside `CoreState` (whose stream spans hundreds of
    /// bytes) each status would be its own cache line. Kept in sync
    /// with the masks below via [`Run::set_status`].
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
    now: u64,
    paused: bool,
    /// Cores whose status is `Finished` (O(1) completion check).
    finished_cores: usize,
    store_tokens: u64,
    count: Counters,
}

impl Run {
    /// Cycle zero: one `Ready` core per stream, placed on the physical
    /// cores `active_cores` lists in rank order; nothing counted yet.
    fn start(active_cores: &[usize], streams: Vec<CoreStream>) -> Self {
        let cores: Vec<CoreState> = active_cores
            .iter()
            .zip(streams)
            .map(|(&physical, stream)| CoreState::new(physical, stream))
            .collect();
        Run {
            statuses: vec![CoreStatus::Ready; cores.len()],
            ready_mask: u32::MAX >> (32 - cores.len() as u32),
            computing_mask: 0,
            barrier_mask: 0,
            until: vec![0; cores.len()],
            until_min: u64::MAX,
            cores,
            now: 0,
            paused: false,
            finished_cores: 0,
            store_tokens: 0,
            count: Counters::default(),
        }
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

    /// Rebuilds [`Run::until_min`] from the computing mask. Only runs
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

    fn fresh_token(&mut self, core_idx: usize) -> u64 {
        self.store_tokens += 1;
        ((core_idx as u64 + 1) << 48) | self.store_tokens
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
}

/// The simulated cluster. Fields are grouped by how long they live (see
/// the module documentation, "State by lifetime").
pub struct Cluster {
    // --- fixed: written once, by `new` ---------------------------------
    tech: Technology,
    floorplan: Floorplan,
    map: AddressMap,
    l1_model: SramBank,
    l2_model: SramBank,
    core_power: CorePowerModel,
    /// `l2_model.access_cycles(&tech)`, cached off the bank-service path.
    l2_access_cycles: u64,
    // --- storage: allocated once, cleared O(touched) by `retarget` ------
    /// `l1s[i]` is the private L1 of active core `i` (`run.cores[i]`).
    /// All [`TOTAL_CORES`] arrays exist whatever the power state, so that
    /// [`Cluster::retarget`] to a wider one allocates nothing; those past
    /// `run.cores.len()` belong to gated cores and stay parked, clean.
    l1s: Vec<SetAssocCache<L1Meta>>,
    banks: Vec<BankState>,
    bus: MissBus,
    dram: Dram,
    /// In-flight transactions; the interconnect tag *is* the generational
    /// slab handle, so tag lookups are an index + generation check
    /// instead of a `HashMap` probe.
    txs: GenSlab<Tx>,
    /// Pending actions, popped in exact `(time, seq)` order (the wheel
    /// owns the sequence numbering).
    events: TimingWheel<Action>,
    /// Reused victim/holder scratch for coherence fan-outs.
    scratch_cores: Vec<usize>,
    /// The interconnect `config.interconnect` names.
    net: ClusterNet,
    /// Every other interconnect this cluster has run, one per kind, kept
    /// with its storage for the next `retarget` to that kind.
    parked: Vec<ClusterNet>,
    /// The oracle every store updates and every load is checked against
    /// while `config.check_golden` is set.
    golden: GoldenMemory,
    // --- configured: replaced whole by `retarget` -----------------------
    config: SimConfig,
    cfg: Configured,
    // --- run: replaced whole by `retarget` ------------------------------
    run: Run,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.run.now)
            .field("cores", &self.run.cores.len())
            .field("state", &self.config.power_state.to_string())
            .field("interconnect", &self.net.get().name())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds the cluster for `config`, one workload stream per active
    /// core: derives the configured state, allocates the storage (all
    /// [`TOTAL_CORES`] L1s and [`TOTAL_BANKS`] banks, whatever the power
    /// state) and starts the run with the same `Run::start`
    /// [`Cluster::retarget`] uses.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the interconnect rejects the power state (baseline
    /// NoCs only support `Full connection`) or stream count mismatches.
    pub fn new(config: SimConfig, streams: Vec<CoreStream>) -> Result<Self, SimError> {
        let tech = Technology::lp45();
        let floorplan = Floorplan::date16();
        let map = AddressMap::date16();
        let cfg = Configured::derive(&config, streams.len())?;
        let net = ClusterNet::build(&tech, &floorplan, &config)?;

        let l1s = (0..TOTAL_CORES)
            .map(|_| SetAssocCache::new(CacheConfig::l1_date16()))
            .collect::<Result<Vec<_>, _>>()?;
        let banks = (0..TOTAL_BANKS)
            .map(|_| {
                Ok(BankState {
                    cache: SetAssocCache::new(CacheConfig::l2_bank_date16())?,
                    free_at: 0,
                    reads: 0,
                    writes: 0,
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        let l2_model = SramBank::model(&tech, SramConfig::l2_bank_date16())?;

        Ok(Cluster {
            floorplan,
            map,
            l1_model: SramBank::model(&tech, SramConfig::l1_date16())?,
            l2_access_cycles: l2_model.access_cycles(&tech),
            l2_model,
            core_power: CorePowerModel::cortex_a5_like(),
            tech,
            l1s,
            banks,
            bus: MissBus::new(TOTAL_BANKS + TOTAL_CORES, cfg.bus_occupancy),
            dram: Dram::new(cfg.dram_timing, map),
            txs: GenSlab::new(),
            events: TimingWheel::new(),
            scratch_cores: Vec::new(),
            net,
            parked: Vec::new(),
            golden: GoldenMemory::new(),
            run: Run::start(&cfg.active_cores, streams),
            config,
            cfg,
        })
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.run.now
    }

    /// Whether every core finished and all machinery drained (O(1): every
    /// term is a counter or an emptiness flag).
    pub fn is_done(&self) -> bool {
        self.run.finished_cores == self.run.cores.len()
            && self.txs.is_empty()
            && self.events.is_empty()
            && self.bus.is_idle()
    }

    /// Opens a transaction and injects its request: a `WriteLine` for an
    /// L1 writeback, a `ReadLine` for everything else.
    fn send(&mut self, core_idx: usize, line: LineAddr, kind: TxKind, value: u64) {
        let tag = self.txs.insert(Tx {
            core_idx,
            line,
            kind,
            issued_at: self.run.now,
            value,
        });
        debug_assert_ne!(tag, WB_TAG);
        self.net.inject_request(
            self.run.now,
            MemRequest {
                core: self.run.cores[core_idx].physical,
                home_bank: self.map.home_bank(line),
                kind: if kind == TxKind::L1Writeback {
                    ReqKind::WriteLine
                } else {
                    ReqKind::ReadLine
                },
                tag,
            },
        );
    }

    /// An L1 hit: counted, and the core busy for its one cycle.
    #[inline]
    fn l1_hit(&mut self, core_idx: usize) {
        self.run.count.l1_hits += 1;
        let until = self.run.now + 1;
        self.run
            .set_status(core_idx, CoreStatus::Computing { until });
    }

    /// An L1 miss: counted, and a memory transaction that blocks the core.
    fn start_tx(&mut self, core_idx: usize, line: LineAddr, kind: TxKind) {
        self.run.count.l1_misses += 1;
        let value = if kind == TxKind::Load {
            0
        } else {
            self.run.fresh_token(core_idx)
        };
        self.send(core_idx, line, kind, value);
        self.run.set_status(core_idx, CoreStatus::WaitingMem);
    }

    /// L1 dirty eviction: functional state syncs immediately; a ghost
    /// WriteLine message still travels for timing/energy.
    fn l1_writeback(&mut self, core_idx: usize, line: LineAddr) {
        let bank = self.cfg.serving_bank(self.map.home_bank(line));
        // Functional: L2 is kept current by the atomic-at-home-node rule,
        // so the data matches; just release the directory slot.
        if let Some(dir) = self.banks[bank].cache.payload_mut(line) {
            dir.drop_core(self.run.cores[core_idx].physical);
        }
        self.send(core_idx, line, TxKind::L1Writeback, 0);
    }

    /// Fills a line into a core's L1, handling the displaced victim.
    fn l1_fill(&mut self, core_idx: usize, line: LineAddr, value: u64, exclusive: bool) {
        let (slot, evicted) = self.l1s[core_idx].fill_slot(line, value, exclusive);
        self.l1s[core_idx].payload_at_mut(slot).exclusive = exclusive;
        // Clean evictions are silent; the directory may retain a stale
        // sharer, which later invalidations tolerate.
        if let Some(ev) = evicted.filter(|ev| ev.dirty) {
            self.l1_writeback(core_idx, ev.addr);
        }
    }

    /// Invalidate a line from a specific physical core's L1 (coherence).
    fn invalidate_l1(&mut self, physical: usize, line: LineAddr) {
        let idx = self.cfg.physical_to_idx[physical];
        if idx != usize::MAX {
            self.l1s[idx].invalidate(line);
        }
    }

    /// Services a request at its bank. Mutates architectural state now;
    /// schedules the response at the right time.
    fn service_bank(&mut self, bank_idx: usize, tag: u64, at_cycle: u64) {
        #[expect(
            clippy::expect_used,
            reason = "a scheduled arrival's tx is removed only at delivery, later"
        )]
        let tx = *self.txs.get(tag).expect("arrival has a transaction");
        assert!(
            self.cfg.bank_powered[bank_idx],
            "request arrived at gated bank {bank_idx}"
        );
        let access = self.l2_access_cycles;
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

        if let Some(slot) = self.banks[bank_idx].cache.find(tx.line) {
            // --- L2 hit ---------------------------------------------
            self.run.count.l2_hits += 1;
            self.access_resident_line(bank_idx, tag, slot, done);
        } else {
            // --- L2 miss: tag check, then the Miss bus + DRAM ---------
            self.run.count.l2_misses += 1;
            self.events.schedule(
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
    /// handle instead of re-probing the tags), and schedules the response
    /// at `ready_at` plus the extra latency recalls and invalidations
    /// charge. Shared by the L2-hit path and the post-refill path (a
    /// concurrent miss to the same line may find it already filled and
    /// owned — the blocking-cache equivalent of an MSHR merge).
    fn access_resident_line(&mut self, bank_idx: usize, tag: u64, slot: SlotHandle, ready_at: u64) {
        #[expect(
            clippy::expect_used,
            reason = "callers hold a live tag (removed only at delivery)"
        )]
        let tx = *self.txs.get(tag).expect("transaction exists");
        let physical = self.run.cores[tx.core_idx].physical;
        let is_store = matches!(tx.kind, TxKind::Store | TxKind::Upgrade);
        let mut extra = 0u64;
        let oneway = self.net.oneway_latency_hint();

        let dir_owner = self.banks[bank_idx].cache.payload_at(slot).owner();
        if let Some(owner) = dir_owner {
            if owner != physical {
                // Recall the modified copy (data already current in L2 by
                // the atomic rule; pay the protocol latency).
                self.run.count.recalls += 1;
                extra += 2 * oneway + 4;
                if is_store {
                    self.invalidate_l1(owner, tx.line);
                    self.run.count.invalidations += 1;
                } else if self.cfg.physical_to_idx[owner] != usize::MAX {
                    let l1 = &mut self.l1s[self.cfg.physical_to_idx[owner]];
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
                self.run.count.invalidations += victims.len() as u64;
                for &v in &victims {
                    self.invalidate_l1(v, tx.line);
                }
            }
            self.scratch_cores = victims;
            // Store becomes architecturally visible now.
            self.banks[bank_idx].cache.write_at(slot, tx.value);
            if self.config.check_golden {
                self.golden.write(tx.line, tx.value);
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
            if self.config.check_golden {
                assert_eq!(
                    value,
                    self.golden.read(tx.line),
                    "load mismatch at {:?} cycle {} (ordering point)",
                    tx.line,
                    self.run.now
                );
            }
            #[expect(
                clippy::expect_used,
                reason = "same live tag the function was entered with"
            )]
            let live = self.txs.get_mut(tag).expect("tx exists");
            live.value = value;
            self.banks[bank_idx].reads += 1;
        }
        self.events.schedule(
            ready_at + extra,
            Action::Respond {
                tag,
                core: physical,
                bank: bank_idx,
                write: is_store,
            },
        );
    }

    /// A line leaves bank `bank_idx` (a refill victim, or a gating
    /// flush): every L1 copy is invalidated to keep inclusion, and a
    /// dirty line is written to DRAM, its write-back occupying the Miss
    /// bus (timing only).
    fn evict_l2_line(&mut self, bank_idx: usize, ev: EvictedLine<Directory>) {
        // `ev` is owned, so the sharer iterator can drive the
        // invalidations directly — no temporary.
        for h in ev.payload.sharers().chain(ev.payload.owner()) {
            self.invalidate_l1(h, ev.addr);
            self.run.count.invalidations += 1;
        }
        if ev.dirty {
            self.dram.write_line(ev.addr, ev.data);
            self.run.count.dram_accesses += 1;
            self.bus.enqueue(Transfer {
                requester: bank_idx,
                tag: WB_TAG,
            });
        }
    }

    /// DRAM refill arrives at the bank: fill, evict the victim, respond.
    fn refill_bank(&mut self, bank_idx: usize, tag: u64) {
        #[expect(
            clippy::expect_used,
            reason = "a scheduled refill's tx is removed only at delivery, later"
        )]
        let line = self.txs.get(tag).expect("refill has a transaction").line;
        let slot = match self.banks[bank_idx].cache.find(line) {
            // A concurrent miss filled the line meanwhile.
            Some(slot) => slot,
            None => {
                let dram_value = self.dram.read_line(line);
                let (slot, evicted) = self.banks[bank_idx]
                    .cache
                    .fill_slot(line, dram_value, false);
                if let Some(ev) = evicted {
                    self.evict_l2_line(bank_idx, ev);
                }
                slot
            }
        };
        // Either way the line is resident now at `slot` and the normal
        // access path applies.
        self.access_resident_line(bank_idx, tag, slot, self.run.now + self.l2_access_cycles);
    }

    /// A Miss-bus read reaches DRAM at `now`: counted; returns the cycle
    /// the line is back.
    fn dram_read(&mut self, now: u64, line: LineAddr) -> u64 {
        self.run.count.dram_accesses += 1;
        self.dram.access(now, line, false)
    }

    /// Whether the directory still registers this core for the line (a
    /// concurrent transaction may have invalidated it while the response
    /// was in flight; in that case the fill must be dropped — the
    /// operation itself was already ordered at the bank).
    fn still_registered(&self, physical: usize, line: LineAddr, as_owner: bool) -> bool {
        let bank = self.cfg.serving_bank(self.map.home_bank(line));
        match self.banks[bank].cache.payload(line) {
            Some(dir) if as_owner => dir.owner() == Some(physical),
            Some(dir) => dir.holds(physical),
            None => false,
        }
    }

    /// A response arrived back at its core: complete the instruction.
    fn complete_delivery(&mut self, tag: u64, at_cycle: u64) {
        #[expect(
            clippy::expect_used,
            reason = "each tag is delivered exactly once; this is its removal point"
        )]
        let tx = self.txs.remove(tag).expect("delivery has a transaction");
        self.run
            .count
            .l2_latency
            .record(at_cycle.saturating_sub(tx.issued_at));
        let physical = self.run.cores[tx.core_idx].physical;
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
                    // M state; a resident copy is overwritten in place.
                    self.l1_fill(tx.core_idx, tx.line, tx.value, true);
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
        self.run.set_status(tx.core_idx, CoreStatus::Ready);
    }

    /// One core issue step.
    fn step_core(&mut self, idx: usize) {
        match self.run.statuses[idx] {
            CoreStatus::Computing { until } if self.run.now >= until => {
                self.run.set_status(idx, CoreStatus::Ready);
            }
            _ => {}
        }
        if self.run.statuses[idx] != CoreStatus::Ready || self.run.paused {
            return;
        }
        let Some(op) = self.run.cores[idx].stream.next() else {
            self.run.set_status(idx, CoreStatus::Finished);
            self.run.cores[idx].finished_at = Some(self.run.now);
            return;
        };
        match op {
            StreamOp::Op(Op::Compute(n)) => {
                let c = &mut self.run.cores[idx];
                c.busy_cycles += n as u64;
                c.retired += n as u64;
                self.run.set_status(
                    idx,
                    CoreStatus::Computing {
                        until: self.run.now + n as u64,
                    },
                );
            }
            StreamOp::Op(Op::Load(addr)) => {
                let line = self.map.line_of(addr);
                self.run.cores[idx].busy_cycles += 1;
                self.run.cores[idx].retired += 1;
                self.run.count.l1_reads += 1;
                if let Some(value) = self.l1s[idx].read(line) {
                    if self.config.check_golden {
                        assert_eq!(
                            value,
                            self.golden.read(line),
                            "L1 load mismatch at {line:?} cycle {}",
                            self.run.now
                        );
                    }
                    self.l1_hit(idx);
                } else {
                    self.start_tx(idx, line, TxKind::Load);
                }
            }
            StreamOp::Op(Op::Store(addr)) => {
                let line = self.map.line_of(addr);
                self.run.cores[idx].busy_cycles += 1;
                self.run.cores[idx].retired += 1;
                self.run.count.l1_writes += 1;
                match self.l1s[idx].find(line) {
                    Some(slot) if self.l1s[idx].payload_at(slot).exclusive => {
                        // M-state store: 1 cycle; keep L2 architecturally
                        // current (atomic-at-home-node bookkeeping, no
                        // traffic).
                        let token = self.run.fresh_token(idx);
                        self.l1s[idx].write_at(slot, token);
                        let bank = self.cfg.serving_bank(self.map.home_bank(line));
                        let bank_slot = self.banks[bank].cache.find(line);
                        debug_assert!(bank_slot.is_some(), "inclusion violated for {line:?}");
                        if let Some(bank_slot) = bank_slot {
                            self.banks[bank].cache.write_at(bank_slot, token);
                        }
                        if self.config.check_golden {
                            self.golden.write(line, token);
                        }
                        self.l1_hit(idx);
                    }
                    Some(_) => self.start_tx(idx, line, TxKind::Upgrade),
                    None => self.start_tx(idx, line, TxKind::Store),
                }
            }
            StreamOp::Op(Op::Barrier(id)) => {
                self.run.set_status(idx, CoreStatus::AtBarrier { id });
            }
            StreamOp::IFetchMiss(addr) => {
                let physical = self.run.cores[idx].physical;
                self.run.set_status(idx, CoreStatus::WaitingIFetch);
                self.bus.enqueue(Transfer {
                    requester: TOTAL_BANKS + physical,
                    tag: addr,
                });
            }
        }
    }

    /// Advances the cluster by one cycle.
    pub fn step(&mut self) {
        self.step_with(&mut NullObserver);
    }

    /// [`Cluster::step`] with an [`Observer`] sampled at the end of the
    /// step (before `now` advances). With [`NullObserver`] the guard
    /// folds away and this *is* `step` — same machine code, no branch.
    pub fn step_with<O: Observer>(&mut self, obs: &mut O) {
        let now = self.run.now;
        self.net.tick(now);

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
                    self.net.inject_response(
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
                    if self.run.statuses[core_idx] == CoreStatus::WaitingIFetch {
                        self.run.set_status(core_idx, CoreStatus::Ready);
                    }
                }
            }
        }

        // Miss-bus grant completion (one per cycle).
        if let Some(t) = self.bus.tick(now) {
            if t.requester >= TOTAL_BANKS {
                // Instruction refill: straight to DRAM and back (§II).
                let done = self.dram_read(now, self.map.line_of(t.tag));
                let core_idx = self.cfg.physical_to_idx[t.requester - TOTAL_BANKS];
                if core_idx != usize::MAX {
                    self.events.schedule(done, Action::IFetchDone { core_idx });
                }
            } else if t.tag != WB_TAG {
                // (A victim writeback's `WB_TAG` transfer is timing only:
                // DRAM took its line when it was enqueued.)
                #[expect(
                    clippy::expect_used,
                    reason = "a queued transfer's tx is removed only at delivery, later"
                )]
                let line = self.txs.get(t.tag).expect("bus transfer has tx").line;
                let done = self.dram_read(now, line);
                let (bank, tag) = (t.requester, t.tag);
                self.events.schedule(done, Action::Refill { bank, tag });
            }
        }

        // Requests arriving at banks.
        while let Some(a) = self.net.pop_arrival() {
            self.service_bank(a.bank, a.request.tag, a.at_cycle);
        }

        // Responses arriving at cores.
        while let Some(d) = self.net.pop_delivery() {
            self.complete_delivery(d.response.tag, d.at_cycle);
        }

        self.run.check_barriers();

        // Only Ready cores can issue and only Computing cores can change
        // state in `step_core`; walking the mask in ascending bit order
        // visits them exactly as the full 0..cores scan would. Issuing
        // never changes another core's status, so the snapshot is exact.
        // A computing core whose deadline is still ahead provably no-ops
        // in `step_core`, so it is masked out instead of called.
        let mut actionable = self.run.ready_mask | self.run.computing_mask;
        while actionable != 0 {
            let idx = actionable.trailing_zeros() as usize;
            let bit = actionable & actionable.wrapping_neg();
            actionable &= actionable - 1;
            if self.run.computing_mask & bit != 0 && self.run.until[idx] > now {
                continue;
            }
            self.step_core(idx);
        }

        if O::ENABLED {
            obs.sample(self);
        }
        self.run.now += 1;
    }

    /// The earliest upcoming cycle at which stepping can change state, or
    /// `None` when every component is idle (quiescence or deadlock).
    ///
    /// Returns `self.run.now` (no skip possible) when a core is ready to
    /// issue, a pending barrier release is due, or any component reports
    /// immediate activity. Every cycle strictly between `self.run.now` and the
    /// returned value is a provable no-op: all cores are blocked past it,
    /// no scheduled action is due, the Miss bus neither completes nor
    /// grants, and the interconnect neither lands a transit nor arbitrates
    /// (its grant logic does not mutate round-robin state when no request
    /// is asserted, so skipping preserves grant order bit-for-bit).
    fn next_wake(&self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let merge = |w: &mut Option<u64>, t: u64| *w = Some(w.map_or(t, |x| x.min(t)));
        if !self.run.paused {
            // A paused cluster never issues, so core states cannot create
            // activity; unpaused, a Ready core issues this very cycle.
            if self.run.ready_mask != 0 {
                return Some(self.run.now);
            }
            // Everyone unfinished is at the barrier: the release fires on
            // the next step's barrier check. (No core is Ready here, so
            // barrier + finished covering all cores means none is
            // computing or waiting.)
            if self.run.barrier_mask != 0
                && self.run.barrier_mask.count_ones() as usize + self.run.finished_cores
                    == self.run.cores.len()
            {
                return Some(self.run.now);
            }
            debug_assert!({
                let mut min = u64::MAX;
                let mut computing = self.run.computing_mask;
                while computing != 0 {
                    let idx = computing.trailing_zeros() as usize;
                    computing &= computing - 1;
                    min = min.min(self.run.until[idx]);
                }
                min == self.run.until_min
            });
            if self.run.until_min != u64::MAX {
                merge(&mut wake, self.run.until_min);
            }
        }
        if let Some(t) = self.events.next_time() {
            merge(&mut wake, t);
        }
        if let Some(t) = self.bus.next_activity(self.run.now) {
            merge(&mut wake, t);
        }
        if let Some(t) = self.net.next_activity(self.run.now) {
            merge(&mut wake, t);
        }
        if let Some(t) = self.dram.next_activity(self.run.now) {
            merge(&mut wake, t);
        }
        wake.map(|w| w.max(self.run.now))
    }

    /// Event-driven advance: jumps `now` to the next wake-up (clamped to
    /// `limit`) and steps once. With no upcoming wake-up, jumps straight
    /// to `limit` so the caller's cycle-limit check fires — exactly where
    /// per-cycle stepping would have idled its way to.
    fn advance_with<O: Observer>(&mut self, limit: u64, obs: &mut O) {
        match self.next_wake() {
            Some(wake) => {
                if wake > self.run.now {
                    self.run.now = wake.min(limit);
                }
            }
            None => self.run.now = limit,
        }
        if self.run.now < limit {
            self.step_with(obs);
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
    /// pre-run state once, then after every executed step. With
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
        }
        while !self.is_done() {
            if self.run.now >= self.config.max_cycles {
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
        while !self.is_done() && self.run.now < cycle {
            self.advance_with(cycle, &mut NullObserver);
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
        self.run.paused = true;
        let limit = self.run.now + 1_000_000;
        while !(self.txs.is_empty() && self.events.is_empty() && self.bus.is_idle()) {
            if self.run.now >= limit {
                self.run.paused = false;
                return Err(SimError::CycleLimit(limit));
            }
            self.advance_with(limit, &mut NullObserver);
        }
        self.run.paused = false;
        Ok(())
    }

    /// Brings this cluster to `config` at cycle zero with fresh workload
    /// streams: afterwards it is bit-identical to
    /// [`Cluster::new`]`(config, streams)`, whatever it was configured
    /// for and whatever it was doing — finished, aborted mid-run, or
    /// switched to another power state on the way.
    ///
    /// The same three steps as `new`, with "allocate" replaced by
    /// "clear": derive the configured state, clear the storage, start
    /// the run. No [`SimConfig`] field changes the geometry of the
    /// caches, so the L1 and L2 arrays (megabytes), the timing wheel, the
    /// transaction slab, the DRAM's line map and the golden memory all
    /// stay, and the caches clear only the sets the previous run filled
    /// ([`SetAssocCache::clear`]): a sweep of short points pays for what
    /// each point touched, not for what a cluster holds. The cluster
    /// keeps one interconnect per kind it has run, so a sweep that
    /// alternates kinds builds each once: the one `config` names is
    /// re-pointed (the MoT at the new power state) and reset, and only a
    /// kind run for the first time is built. The configured and run
    /// states are small and are replaced whole, in microseconds, by the
    /// values `new` would have installed. This is what lets one cluster
    /// per thread serve a whole design-space grid (see
    /// [`crate::runner::ClusterPool`]) without allocating while it runs
    /// a point it has run before (pinned by `tests/no_alloc.rs`).
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
        let cfg = Configured::derive(&config, streams.len())?;
        self.select_net(&config)?;
        // Every check has passed; nothing below fails. (A zero bus
        // occupancy panics here as it does in `new`: first, while the
        // cluster is still whole.)
        self.bus.reset(cfg.bus_occupancy);
        self.dram.reset(cfg.dram_timing);
        for l1 in &mut self.l1s {
            l1.clear();
        }
        for bank in &mut self.banks {
            bank.cache.clear();
            bank.free_at = 0;
            bank.reads = 0;
            bank.writes = 0;
        }
        self.txs.clear();
        self.events.clear();
        self.net.reset();
        self.golden.clear();
        self.run = Run::start(&cfg.active_cores, streams);
        self.config = config;
        self.cfg = cfg;
        Ok(())
    }

    /// Makes the interconnect `config` names the active one, at its
    /// power state: the network this cluster holds for that kind, or a
    /// new one the first time the kind is run. The one fallible part —
    /// building a network, or re-deriving the MoT's state — comes first,
    /// so after an `Err` nothing has changed. Traffic state is left as it
    /// was: [`Cluster::retarget`] resets it.
    fn select_net(&mut self, config: &SimConfig) -> Result<(), SimError> {
        let want = config.interconnect;
        let at = self.parked.iter().position(|n| n.choice() == want);
        let held = if self.net.choice() == want {
            Some(&mut self.net)
        } else {
            at.map(|i| &mut self.parked[i])
        };
        match held {
            Some(net) => net.reconfigure(&self.tech, &self.floorplan, config.power_state)?,
            None => {
                let built = ClusterNet::build(&self.tech, &self.floorplan, config)?;
                self.parked.push(built);
            }
        }
        if self.net.choice() != want {
            let i = at.unwrap_or(self.parked.len() - 1);
            std::mem::swap(&mut self.net, &mut self.parked[i]);
        }
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
        let cycles = self.run.now;
        let count = &self.run.count;
        let net = self.net.get();
        let exec_time = self.tech.period() * cycles as f64;
        let instructions: u64 = self.run.cores.iter().map(|c| c.retired).sum();

        let mut energy = EnergyBreakdown::default();
        for c in &self.run.cores {
            let busy = c.busy_cycles;
            let span = c.finished_at.unwrap_or(cycles).max(busy);
            let stall = span - busy;
            energy.cores += self.core_power.energy(busy, stall, exec_time, true);
        }
        // Private L1s: per-access dynamic + leakage while powered.
        energy.l1 += self.l1_model.read_energy() * count.l1_reads as f64
            + self.l1_model.write_energy() * count.l1_writes as f64
            + self.l1_model.leakage() * exec_time * self.run.cores.len() as f64;
        let powered_banks = self.cfg.bank_powered.iter().filter(|&&p| p).count() as f64;
        let l2_reads: u64 = self.banks.iter().map(|b| b.reads).sum();
        let l2_writes: u64 = self.banks.iter().map(|b| b.writes).sum();
        energy.l2 += self.l2_model.read_energy() * l2_reads as f64
            + self.l2_model.write_energy() * l2_writes as f64
            + self.l2_model.leakage() * exec_time * powered_banks;
        energy.interconnect += net.dynamic_energy() + net.leakage_power() * exec_time;
        energy.dram += self.cfg.dram_power.energy(count.dram_accesses, exec_time);

        Metrics {
            label: label.into(),
            cycles,
            exec_time,
            instructions,
            l1_hits: count.l1_hits,
            l1_misses: count.l1_misses,
            l2_hits: count.l2_hits,
            l2_misses: count.l2_misses,
            dram_accesses: count.dram_accesses,
            l2_latency: count.l2_latency.clone(),
            invalidations: count.invalidations,
            recalls: count.recalls,
            interconnect: net.stats(),
            energy,
        }
    }

    /// Runtime power-state transition (§III): drain, flush the lines that
    /// no longer belong (dirty ones to DRAM over the Miss bus), move the
    /// interconnect to the new state in place, resume. Core counts must
    /// match — core migration is an OS concern outside this model. The
    /// run goes on: the golden memory, the interconnect's statistics,
    /// dynamic energy and arbitration positions all carry across.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the new state changes the core count, the
    /// interconnect is not the reconfigurable MoT, or draining fails.
    pub fn switch_power_state(&mut self, new_state: PowerState) -> Result<(), SimError> {
        if self.cfg.mot_cfg.is_none() {
            return Err(SimError::NotReconfigurable);
        }
        if new_state.active_cores() != self.config.power_state.active_cores() {
            return Err(SimError::CoreCountChange {
                from: self.config.power_state.active_cores(),
                to: new_state.active_cores(),
            });
        }
        self.drain()?;

        let config = SimConfig {
            power_state: new_state,
            ..self.config
        };
        let new_cfg = Configured::derive(&config, self.run.cores.len())?;
        self.net
            .reconfigure(&self.tech, &self.floorplan, new_state)?;

        // Flush every line whose serving bank changes (covers both
        // gating — bank turns off — and un-gating — folded lines going
        // home). Dirty lines ride the Miss bus to DRAM.
        for bank_idx in 0..TOTAL_BANKS {
            let to_flush: Vec<LineAddr> = self.banks[bank_idx]
                .cache
                .resident_addrs()
                .filter(|line| new_cfg.serving_bank(self.map.home_bank(*line)) != bank_idx)
                .collect();
            for line in to_flush {
                #[expect(
                    clippy::expect_used,
                    reason = "`line` came from this cache's own resident_lines()"
                )]
                let ev = self.banks[bank_idx]
                    .cache
                    .invalidate(line)
                    .expect("line is resident");
                self.evict_l2_line(bank_idx, ev);
            }
        }
        // Let the flush traffic drain over the bus (paper: write back
        // before power-off).
        self.drain()?;

        self.cfg = new_cfg;
        self.config = config;
        Ok(())
    }

    /// Read-only view of the golden memory (when `check_golden` is on).
    pub fn golden(&self) -> Option<&GoldenMemory> {
        self.config.check_golden.then_some(&self.golden)
    }

    /// Verifies the entire cache hierarchy against the golden memory:
    /// every L2-resident line and every golden line must agree (L1s are
    /// kept coherent with L2 by construction). Panics on mismatch.
    pub fn verify_against_golden(&self) {
        let Some(golden) = self.golden() else {
            return;
        };
        for (line, want) in golden.iter() {
            let bank = self.cfg.serving_bank(self.map.home_bank(line));
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
/// [`Observer::sample`] keeps a traced run allocation-free.
impl Cluster {
    /// Number of active (ungated) cores; observer core indices range
    /// over `0..active_core_count()`.
    pub fn active_core_count(&self) -> usize {
        self.run.cores.len()
    }

    /// Physical grid id of active core `idx` (gated power states leave
    /// holes in the physical numbering).
    pub fn core_physical_id(&self, idx: usize) -> usize {
        self.run.cores[idx].physical
    }

    /// What active core `idx` is doing this cycle, as a short stable
    /// label for trace tracks.
    pub fn core_label(&self, idx: usize) -> &'static str {
        match self.run.statuses[idx] {
            CoreStatus::Ready => "Ready",
            CoreStatus::Computing { .. } => "Computing",
            CoreStatus::WaitingMem => "Stalled (mem)",
            CoreStatus::WaitingIFetch => "Stalled (ifetch)",
            CoreStatus::AtBarrier { .. } => "Barrier",
            CoreStatus::Finished => "Finished",
        }
    }

    /// Physical L2 banks (including gated ones).
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Whether bank `bank` is powered in the current configuration.
    pub fn bank_powered(&self, bank: usize) -> bool {
        self.cfg.bank_powered[bank]
    }

    /// Whether bank `bank` is mid-access this cycle (its SRAM array is
    /// occupied until a scheduled completion).
    pub fn bank_busy(&self, bank: usize) -> bool {
        self.banks[bank].free_at > self.run.now
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
        (self.run.count.l2_hits, self.run.count.l2_misses)
    }

    /// Occupancy snapshot of whichever interconnect this cluster runs.
    pub fn interconnect_probe(&self) -> InterconnectProbe {
        match &self.net {
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
                busy_ports: n.busy_ports(self.run.now),
                busy_buses: n.busy_buses(self.run.now),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_noc::NocTopologyKind;
    use mot3d_workloads::{streams, SplashBenchmark};

    /// Both ways a line leaves an L2 bank, counted: refill victims (clean
    /// lines an L1 shares and dirty ones, before and after the switch)
    /// and the flush of the folded lines when PC16-MB8 un-gates to Full.
    /// The canary's runs are too short to evict, and run records carry
    /// no invalidation count, so this pins `evict_l2_line` alone.
    #[test]
    fn l2_evictions_and_the_gating_flush_keep_their_counts() {
        let mut spec = SplashBenchmark::Fft.spec().scaled(0.3);
        spec.working_set_bytes = 4 << 20; // 8 × the eight banks' capacity
        let config = SimConfig {
            check_golden: true,
            ..SimConfig::date16().with_power_state(PowerState::pc16_mb8())
        };
        let mut cluster = Cluster::new(config, streams(&spec, 16, 7)).unwrap();
        cluster.run_until(200_000);
        let before = cluster.metrics("before");
        cluster.switch_power_state(PowerState::full()).unwrap();
        let flushed = cluster.metrics("flushed");
        cluster.run_to_completion().unwrap();
        cluster.verify_against_golden();
        let after = cluster.metrics("after");
        let counts = |m: &Metrics| (m.invalidations, m.recalls, m.dram_accesses, m.l2_misses);
        assert_eq!(
            [counts(&before), counts(&flushed), counts(&after)],
            [
                (34, 20, 5_084, 5_062),
                (2_363, 20, 7_698, 5_062),
                (2_835, 112, 36_282, 33_520)
            ]
        );
        assert_eq!(after.cycles, 3_628_745);
    }

    #[test]
    fn a_run_starts_with_every_core_ready_at_cycle_zero() {
        for active in [vec![0, 5, 10, 15], (0..TOTAL_CORES).collect::<Vec<_>>()] {
            let n = active.len();
            let spec = SplashBenchmark::Fft.spec().scaled(0.002);
            let run = Run::start(&active, streams(&spec, n, 7));
            let physical: Vec<usize> = run.cores.iter().map(|c| c.physical).collect();
            assert_eq!(physical, active);
            assert_eq!(run.statuses, vec![CoreStatus::Ready; n]);
            assert_eq!(run.until.len(), n);
            assert_eq!(run.ready_mask.count_ones() as usize, n);
            assert_eq!(run.ready_mask.trailing_ones() as usize, n);
            assert_eq!((run.computing_mask, run.barrier_mask), (0, 0));
            assert_eq!(run.until_min, u64::MAX);
            assert_eq!((run.now, run.finished_cores, run.store_tokens), (0, 0, 0));
            assert!(!run.paused);
            assert_eq!(run.count.l1_reads + run.count.l2_hits, 0);
            assert_eq!(run.count.l2_latency, LatencyStats::default());
        }
    }

    /// Sends one request from core 3 to bank 9 and its response back,
    /// through the dispatch methods the step loop uses.
    fn round_trip(net: &mut ClusterNet) {
        let request = MemRequest {
            core: 3,
            home_bank: 9,
            kind: ReqKind::ReadLine,
            tag: 1,
        };
        net.inject_request(0, request);
        let mut now = 0;
        let arrival = loop {
            net.tick(now);
            if let Some(arrival) = net.pop_arrival() {
                break arrival;
            }
            now = net.next_activity(now + 1).expect("a request is in flight");
        };
        assert_eq!(arrival.request, request);
        let response = MemResponse {
            core: 3,
            bank: arrival.bank,
            kind: ReqKind::ReadLine,
            tag: 1,
        };
        net.inject_response(now, response);
        let delivery = loop {
            net.tick(now);
            if let Some(delivery) = net.pop_delivery() {
                break delivery;
            }
            now = net.next_activity(now + 1).expect("a response is in flight");
        };
        assert_eq!(delivery.response, response);
        assert!(net.oneway_latency_hint() > 0);
    }

    #[test]
    fn cold_reads_go_to_the_network_the_hot_dispatch_drives() {
        let choices = [
            InterconnectChoice::Mot,
            InterconnectChoice::Noc(NocTopologyKind::Mesh3d),
        ];
        for interconnect in choices {
            let config = SimConfig::date16().with_interconnect(interconnect);
            let (tech, floorplan) = (Technology::lp45(), Floorplan::date16());
            let mut net = ClusterNet::build(&tech, &floorplan, &config)
                .expect("a Full-connection configuration");
            assert_eq!(net.choice(), interconnect);
            round_trip(&mut net);

            // The same four reads on the concrete network, no `dyn`.
            let (name, stats, energy, leakage) = match &net {
                ClusterNet::Mot(n) => (n.name(), n.stats(), n.dynamic_energy(), n.leakage_power()),
                ClusterNet::Noc(n) => (n.name(), n.stats(), n.dynamic_energy(), n.leakage_power()),
            };
            let cold = net.get();
            assert_eq!(cold.name(), name);
            assert_eq!(cold.name(), interconnect.to_string());
            assert_eq!(cold.stats(), stats);
            assert_eq!((stats.requests, stats.responses), (1, 1));
            assert_eq!(cold.dynamic_energy(), energy);
            assert!(energy.value() > 0.0);
            assert_eq!(cold.leakage_power(), leakage);
        }
    }
}
