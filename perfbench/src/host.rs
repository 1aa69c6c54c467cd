//! The run's environment: variable hygiene and what every report records
//! about the host and the build.

use crate::Result;
use std::path::Path;

/// Refuses to run when any `B2B_*` variable is set: those silently change
/// the shard count, the rule interpreter, the emit path and the wire
/// format of every engine, so a measurement taken under them would not be
/// the benchmark's.
pub fn check_env() -> Result<()> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("B2B_"))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run with {} set: B2B_* variables change the engine under test; unset them",
        set.join(", ")
    ))
}

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The build profile the benchmark was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` under `root` without running
/// git; `None` outside a git checkout.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Peak resident set of this process (`VmHWM`), KiB; `None` off Linux.
pub fn vm_hwm_kib() -> Option<u64> {
    b2b_bench::population::vm_hwm_kb()
}
