//! Flags are the `mot3d` CLI's only configuration channel: the
//! `MOT3D_SCALE` / `MOT3D_THREADS` / `MOT3D_BENCH_JSON` variables it
//! once fell back to are not read any more, so stray values left in a
//! shell or a CI runner must change nothing — not the output, not the
//! record file, not stderr, and no perf document may appear.

use std::path::Path;
use std::process::{Command, Output};

fn fig6(dir: &Path, json: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mot3d"));
    cmd.current_dir(dir)
        .args(["fig6", "--scale", "tiny", "--threads", "2", "--json", json]);
    for var in ["MOT3D_SCALE", "MOT3D_THREADS", "MOT3D_BENCH_JSON"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("spawn mot3d");
    assert!(
        out.status.success(),
        "mot3d fig6 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn retired_environment_variables_are_inert() {
    let dir = std::env::temp_dir().join(format!("mot3d-cli-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let perf = dir.join("perf.json");

    let clean = fig6(&dir, "clean.jsonl", &[]);
    let stray = fig6(
        &dir,
        "stray.jsonl",
        &[
            ("MOT3D_SCALE", "bogus"),
            ("MOT3D_THREADS", "0"),
            ("MOT3D_BENCH_JSON", perf.to_str().unwrap()),
        ],
    );

    assert_eq!(stray.stdout, clean.stdout, "rendered Fig. 6");
    assert_eq!(
        std::fs::read(dir.join("stray.jsonl")).unwrap(),
        std::fs::read(dir.join("clean.jsonl")).unwrap(),
        "--json record stream"
    );
    let stderr = String::from_utf8_lossy(&stray.stderr);
    assert!(
        !stderr.contains("deprecated") && !stderr.contains("MOT3D_"),
        "the variables must not even be noticed: {stderr}"
    );
    assert!(
        stderr.contains("at scale 0.004 on 2 threads"),
        "the flags decide: {stderr}"
    );
    assert!(!perf.exists(), "no --bench-json, no perf document");
    std::fs::remove_dir_all(&dir).unwrap();
}
