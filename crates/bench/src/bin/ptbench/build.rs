//! Records which compiler builds the benchmark, for the box fingerprint
//! `--compare` checks: the `rustc` on `PATH` when a record is written
//! need not be the one that compiled the binary.

use std::process::Command;

fn main() {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=PTBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
