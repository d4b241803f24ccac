//! Hashes the sources a cached result depends on into
//! `MOT3D_SOURCE_HASH`, which `codec::Fingerprint::current()` spells
//! into every cache key: a rebuilt simulator whose model, workload,
//! plan expansion, metrics codec, record layout or store line format
//! changed by one byte opens its store with every old entry invisible.
//!
//! The hash is a 64-bit FNV-1a fold over the files sorted by
//! workspace-relative path, each as its path, a NUL and its bytes.

use std::fs;
use std::path::{Path, PathBuf};

/// Source trees every file of which feeds the hash: the model and the
/// workload generator.
const TREES: [&str; 6] = [
    "crates/phys/src",
    "crates/mot/src",
    "crates/noc/src",
    "crates/mem/src",
    "crates/workloads/src",
    "crates/sim/src",
];

/// Single files that feed it: the plan expansion, the axis tokens, the
/// key and metrics codec (`RECORD_SCHEMA`, the decoder of stored
/// lines), the record layout whose tail a stored line carries, and the
/// store's line format. A hit replays the stored tail's bytes, so a
/// layout or format edit must leave every old line unread.
const FILES: [&str; 5] = [
    "crates/bench/src/plan.rs",
    "crates/bench/src/axes.rs",
    "crates/bench/src/sink.rs",
    "crates/serve/src/codec.rs",
    "crates/serve/src/store.rs",
];

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths: Vec<PathBuf> = FILES.iter().map(|file| root.join(file)).collect();
    for tree in TREES {
        collect(&root.join(tree), &mut paths);
    }
    for path in TREES.iter().chain(&FILES) {
        println!("cargo:rerun-if-changed={}", root.join(path).display());
    }
    let mut files: Vec<(String, PathBuf)> = paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            (rel.to_string_lossy().replace('\\', "/"), path)
        })
        .collect();
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (rel, path) in files {
        let bytes = fs::read(&path).expect("a source file");
        for byte in rel.bytes().chain([0]).chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=MOT3D_SOURCE_HASH={hash:016x}");
}
