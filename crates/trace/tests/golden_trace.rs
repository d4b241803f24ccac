//! Golden trace fixtures: a tiny fig7 point (the paper's power-state
//! sweep at 200 ns DRAM) must produce a structurally valid Chrome JSON
//! trace with the expected track taxonomy, in a stable event order —
//! pinned by an FNV-1a checksum of the file bytes. Two tiny fig6 points
//! pin the packet-switched branch the same way: the True 3-D Mesh and
//! the Hybrid Bus-Tree. An intentional format change updates the pins
//! here; an accidental nondeterminism trips them.

use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_sim::{InterconnectChoice, SimConfig};
use mot3d_trace::trace_spec;
use mot3d_workloads::SplashBenchmark;

/// Pinned checksum of the fig7 fixture's trace bytes (the assertion
/// message prints the new value to refresh after an intentional format
/// change).
const GOLDEN_FNV: u64 = 0x5b97_ac36_bc31_8a9f;
/// Pinned checksums of the two NoC fixtures' trace bytes.
const MESH_FNV: u64 = 0xe13d_f890_6acb_2349;
const BUS_TREE_FNV: u64 = 0x5544_2b22_0560_db37;

/// The fig7 fixture: MoT interconnect, gated power state, 200 ns DRAM
/// (the date16 default).
fn fig7_config() -> SimConfig {
    SimConfig::date16().with_power_state(PowerState::pc16_mb8())
}

/// A fig6 fixture: one packet-switched baseline at Full power.
fn noc_config(kind: NocTopologyKind) -> SimConfig {
    SimConfig::date16().with_interconnect(InterconnectChoice::Noc(kind))
}

/// The trace bytes of a tiny fft point on `config`.
fn fixture_trace(tag: &str, config: &SimConfig) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("mot3d-trace-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.trace.json");
    let spec = SplashBenchmark::Fft.spec().scaled(0.002);
    let (metrics, summary) = trace_spec(&spec, config, &path).unwrap();
    assert!(metrics.cycles > 0);
    assert!(summary.events > 0);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

#[test]
fn fig7_point_trace_is_structurally_valid_with_expected_tracks() {
    let bytes = fixture_trace("structure", &fig7_config());
    let text = std::str::from_utf8(&bytes).unwrap();

    // Valid document shape (the facade e2e suite runs a full JSON
    // parser over this; here we pin the structural invariants).
    assert!(text.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"));
    assert!(text.ends_with("\n]}\n"));
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());

    // Track taxonomy: every process group and representative tracks.
    for needle in [
        "\"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": \"cores\"}",
        "\"name\": \"l2-banks\"",
        "\"name\": \"interconnect\"",
        "\"name\": \"miss-bus\"",
        "\"name\": \"dram\"",
        "\"name\": \"counters\"",
        "\"name\": \"core 0\"",
        // PC16-MB8 central-folds the banks: 12..=19 stay powered, the
        // rest are labelled as gated.
        "\"name\": \"bank 12\"",
        "\"name\": \"bank 0 (gated)\"",
        "\"name\": \"mot level 1 active switches\"",
        "\"name\": \"transit requests\"",
        "\"name\": \"queued transfers\"",
        "\"name\": \"row buffer\"",
        "\"name\": \"L2 hit rate\"",
        "\"name\": \"in-flight transactions\"",
        "\"name\": \"event-wheel occupancy\"",
        "\"name\": \"Computing\"",
        "\"name\": \"Stalled (mem)\"",
        "\"name\": \"row open\"",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }

    // Events are time-ordered per the single writer: `ts` fields are
    // non-decreasing through the file body (stable event order).
    let mut last_ts = 0u64;
    for line in text.lines() {
        if let Some(pos) = line.find("\"ts\": ") {
            let rest = &line[pos + 6..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
            let ts: u64 = rest[..end].parse().unwrap();
            assert!(ts >= last_ts, "out-of-order ts {ts} after {last_ts}");
            last_ts = ts;
        }
    }
    assert!(last_ts > 0, "no timestamped events");
}

fn assert_checksum(bytes: &[u8], want: u64, pin: &str) {
    let got = fnv1a64_fold(FNV_OFFSET, bytes);
    assert_eq!(
        got, want,
        "trace bytes drifted: got 0x{got:016x}, want 0x{want:016x} \
         (refresh {pin} if the format change is intentional)"
    );
}

#[test]
fn fig7_point_trace_bytes_match_the_golden_checksum() {
    let bytes = fixture_trace("checksum", &fig7_config());
    assert_checksum(&bytes, GOLDEN_FNV, "GOLDEN_FNV");
}

#[test]
fn noc_point_traces_match_their_checksums_and_carry_the_noc_tracks() {
    for (kind, want, pin) in [
        (NocTopologyKind::Mesh3d, MESH_FNV, "MESH_FNV"),
        (NocTopologyKind::HybridBusTree, BUS_TREE_FNV, "BUS_TREE_FNV"),
    ] {
        let bytes = fixture_trace(pin, &noc_config(kind));
        let text = std::str::from_utf8(&bytes).unwrap();
        for needle in [
            "\"thread_name\", \"ph\": \"M\", \"pid\": 3, \"tid\": 1, \"args\": {\"name\": \"noc busy ports\"}",
            "\"name\": \"noc busy buses\"",
            // A packet-switched fabric has no MoT transit queues: the
            // counter shows a single zero and never moves.
            "{\"name\": \"transit requests\", \"ph\": \"C\", \"pid\": 3, \"tid\": 20, \"ts\": 0, \"args\": {\"value\": 0}}",
        ] {
            assert!(text.contains(needle), "{kind}: missing {needle}");
        }
        assert_eq!(
            text.matches("\"pid\": 3, \"tid\": 20, \"ts\"").count(),
            1,
            "{kind}"
        );
        assert!(!text.contains("mot level"), "{kind}");
        assert_checksum(&bytes, want, pin);
    }
}
