//! The benchmark is a package of its own (`benchmark/Cargo.toml`, an
//! empty `[workspace]`), so the workspace's build and tests never
//! compile it — and an engine change that breaks `benchmark/src/api.rs`,
//! or changes an answer the benchmark checks, would go unnoticed until
//! the benchmark is next run. This test runs the benchmark's own test
//! suite against the engine as it stands, with the `cargo` that built
//! the test (a superset of type-checking it). It writes only
//! `benchmark/target` and `benchmark/Cargo.lock`, both git-ignored.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_tests_pass_against_the_engine() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmark/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args(["test", "--offline", "--manifest-path"])
        .arg(&manifest)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo test` of {} failed:\n{}\n{}",
        manifest.display(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
