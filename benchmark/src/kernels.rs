//! Kernel metrics: ns per operation of single components, driven
//! through their public functions. Each is the median of fixed-count
//! batches, with the MAD beside it. They run first in a traced run and
//! double as CPU warm-up.

use crate::stats::{mad, median};
use mot3d_mem::addr::{AddressMap, LineAddr};
use mot3d_mem::bus::{MissBus, Transfer};
use mot3d_mem::cache::{CacheConfig, SetAssocCache};
use mot3d_mem::dram::{Dram, DramKind, DramTiming};
use mot3d_mot::traits::{Interconnect, MemRequest, MemResponse, ReqKind};
use mot3d_mot::{MotNetwork, PowerState};
use mot3d_noc::{NocNetwork, NocTopologyKind};
use mot3d_phys::wheel::TimingWheel;
use mot3d_serve::codec::{metrics_from_json, metrics_to_json};
use mot3d_sim::{run_spec, Cluster, SimConfig};
use mot3d_workloads::{streams, CoreStream, SplashBenchmark};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One kernel's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Per-layer metric name.
    pub name: &'static str,
    /// Median over the batches.
    pub value: f64,
    /// Median absolute deviation over the batches.
    pub mad: f64,
    /// Batches measured.
    pub batches: usize,
}

/// Batches per kernel (the issue asks for at least 30).
const BATCHES: usize = 31;
const SMOKE_BATCHES: usize = 3;

/// Runs `batch` (which performs `ops` operations) `batches` times after
/// one untimed warm-up; returns ns per operation of each.
fn ns_per_op(batches: usize, ops: u64, mut batch: impl FnMut()) -> Vec<f64> {
    batch();
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

fn kernel(name: &'static str, samples: &[f64]) -> Kernel {
    Kernel {
        name,
        value: median(samples),
        mad: mad(samples),
        batches: samples.len(),
    }
}

/// xorshift64, the generator the repository's wheel bench uses.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One saturation round trip: 16 requests in, 16 responses out.
fn round_trip(net: &mut impl Interconnect, base: u64) -> u64 {
    for core in 0..16 {
        net.inject_request(
            base,
            MemRequest {
                core,
                home_bank: (core * 2) % 32,
                kind: ReqKind::ReadLine,
                tag: base + core as u64,
            },
        );
    }
    let mut done = 0;
    let mut now = base;
    while done < 16 {
        net.tick(now);
        while let Some(a) = net.pop_arrival() {
            net.inject_response(
                now,
                MemResponse {
                    core: a.request.core,
                    bank: a.bank,
                    kind: a.request.kind,
                    tag: a.request.tag,
                },
            );
        }
        while net.pop_delivery().is_some() {
            done += 1;
        }
        now += 1;
    }
    now
}

fn round_trips(batches: usize, ops: u64, mut net: impl Interconnect) -> Vec<f64> {
    let mut base = 0u64;
    ns_per_op(batches, ops, || {
        for _ in 0..ops {
            base = round_trip(&mut net, base) + 1;
        }
        black_box(base);
    })
}

/// Runs every kernel. `scratch` receives (and loses again) the trace
/// files of the `trace.*` kernels.
pub fn run_all(seed: u64, smoke: bool, scratch: &Path) -> std::io::Result<Vec<Kernel>> {
    let batches = if smoke { SMOKE_BATCHES } else { BATCHES };
    // Operations per batch, sized for batches of about a millisecond.
    let ops = |full: u64| if smoke { full / 20 } else { full };
    let mut out = Vec::new();

    // Near-future churn at the simulator's typical queue depth: pop the
    // earliest event, schedule a replacement 1–16 cycles out.
    {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut rng = XorShift(seed | 1);
        for i in 0..64u64 {
            wheel.schedule(1 + i % 16, i);
        }
        let n = ops(40_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                let (t, item) = wheel.pop_due(u64::MAX).expect("the wheel never drains");
                wheel.schedule(t + 1 + (rng.next() >> 8) % 16, item);
            }
        });
        out.push(kernel("phys.wheel.churn_ns", &s));
    }

    {
        let mut l1: SetAssocCache<()> =
            SetAssocCache::new(CacheConfig::l1_date16()).expect("Table I L1 is valid");
        l1.fill(LineAddr(7), 1, false);
        let n = ops(200_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                black_box(l1.read(black_box(LineAddr(7))));
            }
        });
        out.push(kernel("mem.cache.l1_hit_ns", &s));

        let mut l2: SetAssocCache<()> =
            SetAssocCache::new(CacheConfig::l2_bank_date16()).expect("Table I L2 bank is valid");
        let mut line = 0u64;
        let n = ops(40_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                line += 32; // march through the sets: steady-state evictions
                black_box(l2.fill(LineAddr(line), line, line.is_multiple_of(3)));
            }
        });
        out.push(kernel("mem.cache.l2_fill_evict_ns", &s));
    }

    // One op = one line transfer: enqueue, then tick until it completes.
    {
        let mut bus = MissBus::new(33, SimConfig::date16().miss_bus_occupancy);
        let (mut now, mut tag) = (0u64, 0u64);
        let n = ops(20_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                tag += 1;
                bus.enqueue(Transfer {
                    requester: (tag % 33) as usize,
                    tag,
                });
                while bus.tick(now).is_none() {
                    now += 1;
                }
                now += 1;
            }
        });
        out.push(kernel("mem.bus.grant_ns", &s));
    }

    // Open-page timing over a random walk that mixes row hits and
    // conflicts.
    {
        let timing = DramTiming::open_page(DramKind::OffChipDdr3.latency_cycles());
        let mut dram = Dram::new(timing, AddressMap::date16());
        let mut rng = XorShift(seed.rotate_left(17) | 1);
        let (mut now, mut line) = (0u64, 0u64);
        let n = ops(100_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                let r = rng.next();
                line = if r.is_multiple_of(4) {
                    r >> 40
                } else {
                    line + 1
                };
                black_box(dram.access(now, LineAddr(line), r.is_multiple_of(5)));
                now += 5;
            }
        });
        out.push(kernel("mem.dram.access_ns", &s));
    }

    {
        let mot = || MotNetwork::date16(PowerState::full()).expect("Full state fits the cluster");
        let n = ops(400);
        out.push(kernel(
            "mot.network.round_trip16_ns",
            &round_trips(batches, n, mot()),
        ));
        let mut idle = mot();
        let mut now = 0u64;
        let n = ops(200_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                now += 1;
                idle.tick(black_box(now));
            }
        });
        out.push(kernel("mot.network.idle_tick_ns", &s));
    }

    for (name, kind) in [
        ("noc.network.round_trip16_ns.mesh", NocTopologyKind::Mesh3d),
        (
            "noc.network.round_trip16_ns.bus_mesh",
            NocTopologyKind::HybridBusMesh,
        ),
        (
            "noc.network.round_trip16_ns.bus_tree",
            NocTopologyKind::HybridBusTree,
        ),
    ] {
        let n = ops(200);
        out.push(kernel(
            name,
            &round_trips(batches, n, NocNetwork::date16(kind)),
        ));
    }

    let tiny = |bench: SplashBenchmark| bench.spec().scaled(0.004);
    let mut config = SimConfig::date16();
    config.seed = seed;

    // A stream long enough never to end inside the measurement.
    {
        let spec = SplashBenchmark::Fft.spec().scaled(100.0);
        let mut stream = CoreStream::new(&spec, 16, 0, seed);
        let n = ops(40_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                black_box(stream.next());
            }
        });
        out.push(kernel("workloads.generator.next_op_ns", &s));
    }

    // Per-cycle stepping against the event-driven engine.
    {
        let per_cycle = |cluster: &mut Cluster| {
            let mut steps = 0u64;
            while !cluster.is_done() {
                cluster.step();
                steps += 1;
            }
            steps
        };
        let spec = tiny(SplashBenchmark::Fft);
        let fresh = || streams(&spec, config.power_state.active_cores(), config.seed);
        let mut cluster = Cluster::new(config, fresh()).map_err(std::io::Error::other)?;
        let steps = per_cycle(&mut cluster);
        let s = ns_per_op(batches, steps, || {
            cluster.reset(fresh()).expect("reset of a built cluster");
            black_box(per_cycle(&mut cluster));
        });
        out.push(kernel("sim.step_ns", &s));

        let gated = config.with_power_state(PowerState::pc4_mb8());
        let spec = tiny(SplashBenchmark::Radix);
        let fresh = || streams(&spec, gated.power_state.active_cores(), gated.seed);
        let mut cluster = Cluster::new(gated, fresh()).map_err(std::io::Error::other)?;
        let stepped = ns_per_op(batches, 1, || {
            cluster.reset(fresh()).expect("reset of a built cluster");
            black_box(per_cycle(&mut cluster));
        });
        let skipped = ns_per_op(batches, 1, || {
            cluster.reset(fresh()).expect("reset of a built cluster");
            cluster.run_to_completion().expect("radix@tiny completes");
        });
        let ratios: Vec<f64> = stepped.iter().zip(&skipped).map(|(a, b)| a / b).collect();
        out.push(kernel("sim.event_skip_speedup", &ratios));
    }

    // Cost and size of the timeline tracer.
    {
        let pc16_mb8 = config.with_power_state(PowerState::pc16_mb8());
        let spec = tiny(SplashBenchmark::Fft);
        let path = scratch.join(format!("kernel-{}.trace.json", std::process::id()));
        let mut kcycles = 0.0;
        let traced = ns_per_op(batches, 1, || {
            let (m, _) = mot3d_trace::trace_spec(&spec, &pc16_mb8, &path).expect("fft@tiny traces");
            kcycles = m.cycles as f64 / 1e3;
        });
        let bytes = std::fs::metadata(&path)?.len() as f64;
        std::fs::remove_file(&path)?;
        let plain = ns_per_op(batches, 1, || {
            black_box(run_spec(&spec, &pc16_mb8).expect("fft@tiny runs"));
        });
        let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(a, b)| a / b).collect();
        out.push(kernel("trace.traced_run_ratio", &ratios));
        out.push(Kernel {
            name: "trace.bytes_per_kcycle",
            value: bytes / kcycles,
            mad: 0.0,
            batches: 1,
        });
    }

    {
        let metrics =
            run_spec(&tiny(SplashBenchmark::Fft), &config).map_err(std::io::Error::other)?;
        let n = ops(2_000);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                black_box(metrics_to_json(black_box(&metrics)));
            }
        });
        out.push(kernel("serve.codec.metrics_encode_ns", &s));
        let line = metrics_to_json(&metrics);
        let n = ops(400);
        let s = ns_per_op(batches, n, || {
            for _ in 0..n {
                black_box(metrics_from_json(black_box(&line)).expect("round trip"));
            }
        });
        out.push(kernel("serve.codec.metrics_decode_ns", &s));
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_number() {
        let scratch = std::env::temp_dir();
        let kernels = run_all(7, true, &scratch).unwrap();
        assert_eq!(kernels.len(), 17);
        for k in &kernels {
            assert!(k.value > 0.0 && k.value.is_finite(), "{k:?}");
        }
        let speedup = kernels
            .iter()
            .find(|k| k.name == "sim.event_skip_speedup")
            .unwrap();
        assert!(speedup.value > 1.0, "{speedup:?}");
    }
}
