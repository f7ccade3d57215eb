//! Boot-footprint regression test: booting a machine must not commit host
//! memory in proportion to the simulated machine's installed memory.
//!
//! The 16 GiB Opteron 6128 preset has 4 Mi frames, so any eager per-frame
//! table on the boot path (one `u64` each is 32 MiB) commits tens of MiB
//! per boot. Eight live machines must together stay well under that.
//! Kept in its own test file so it runs in its own process and reads a
//! resident-set size no other test is growing at the same time.

#![cfg(target_os = "linux")]

use tint_hw::machine::MachineConfig;
use tintmalloc::prelude::*;

/// Resident set size of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("status has a VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS is a KiB count")
}

#[test]
fn eight_booted_machines_commit_under_64_mib() {
    let before = vm_rss_kib();
    let systems: Vec<System> = (0..8u64)
        .map(|seed| {
            let mut sys = System::boot(MachineConfig::opteron_6128());
            sys.boot_noise((seed.wrapping_mul(2654435761) % 2048) * 4);
            sys
        })
        .collect();
    let after = vm_rss_kib();
    let grown_mib = after.saturating_sub(before) / 1024;
    assert!(
        grown_mib < 64,
        "booting {} machines grew the resident set by {grown_mib} MiB",
        systems.len()
    );
}
