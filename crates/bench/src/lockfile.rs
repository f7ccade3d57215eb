//! Advisory exclusive-create lockfiles with stale-lock takeover.
//!
//! Two harness paths need cross-*process* mutual exclusion on a shared
//! file-system resource: journal generation GC ([`crate::journal::gc`])
//! must never run twice concurrently over the same store, and concurrent
//! `repro` processes finishing at the same time must not interleave their
//! read-merge-write of `BENCH_repro.json`. Both use the same primitive: a
//! lockfile whose contents are the holder's pid, published by hard-linking
//! an already-stamped temp file to the lock path (`link(2)` fails if the
//! path exists, so exactly one creator wins, and no reader ever sees the
//! lock without its pid).
//!
//! A crashed holder leaves the lockfile behind, so acquisition performs
//! *stale-lock takeover*: if the recorded pid no longer names a live
//! process (checked via `/proc/<pid>`; an unreadable or unparsable pid is
//! treated as stale too), the lock is deleted and acquisition retried.
//! A live holder makes [`Lockfile::acquire`] fail fast — callers choose
//! whether to error out (GC) or wait briefly ([`Lockfile::acquire_wait`],
//! the BENCH_repro.json merge).
//!
//! The lock is released on [`Drop`], so an early return cannot leak it;
//! only a SIGKILL can, and that is exactly the case takeover handles.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A held lockfile; dropping it releases the lock.
#[derive(Debug)]
pub struct Lockfile {
    path: PathBuf,
}

/// Is `pid` a live process? Linux: `/proc/<pid>` exists. On non-Linux
/// hosts the check degrades to "assume live" so a lock is never stolen
/// from a process we cannot observe.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

impl Lockfile {
    /// Try to acquire `path` once (plus at most one stale-lock takeover).
    /// Returns `Err` with a human-readable reason when a live process
    /// holds the lock or the filesystem refuses the create.
    pub fn acquire(path: &Path) -> Result<Self, String> {
        // The lock is published fully stamped: the pid goes into a private
        // temp file, which is then hard-linked to `path` (atomic, and fails
        // if `path` exists). Creating `path` empty and stamping it after
        // would let a racing acquirer read the empty lock as stale and
        // delete it while it is held.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut stamp = path.as_os_str().to_owned();
        stamp.push(format!(
            ".{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let stamp = PathBuf::from(stamp);
        std::fs::write(&stamp, format!("{}\n", std::process::id()))
            .map_err(|e| format!("cannot create {}: {e}", stamp.display()))?;
        let result = Self::publish(path, &stamp);
        let _ = std::fs::remove_file(&stamp);
        result
    }

    /// Link the stamped file `stamp` to `path`, with at most one
    /// stale-lock takeover.
    fn publish(path: &Path, stamp: &Path) -> Result<Self, String> {
        for _ in 0..2 {
            match std::fs::hard_link(stamp, path) {
                Ok(()) => {
                    return Ok(Self {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(format!(
                                "{} is held by live process {pid}",
                                path.display()
                            ));
                        }
                        // Dead holder or unreadable/garbled lock: stale.
                        // Remove and retry the exclusive create once (a
                        // racing taker may beat us to recreation, which
                        // the second loop iteration reports honestly).
                        _ => {
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                Err(e) => return Err(format!("cannot create {}: {e}", path.display())),
            }
        }
        Err(format!(
            "{} was recreated while taking over a stale lock",
            path.display()
        ))
    }

    /// [`Self::acquire`], retrying for up to `wait` while a live holder
    /// has the lock (10 ms poll). Returns the last error on timeout.
    pub fn acquire_wait(path: &Path, wait: Duration) -> Result<Self, String> {
        let deadline = Instant::now() + wait;
        loop {
            match Self::acquire(path) {
                Ok(l) => return Ok(l),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// The lockfile's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Lockfile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tint-lock-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn exclusive_while_held_released_on_drop() {
        let dir = scratch("excl");
        let path = dir.join("x.lock");
        let held = Lockfile::acquire(&path).expect("first acquire succeeds");
        // Our own pid is alive, so a second acquire must fail fast.
        let err = Lockfile::acquire(&path).expect_err("held lock must refuse");
        assert!(err.contains("held by live process"), "{err}");
        drop(held);
        assert!(!path.exists(), "drop releases the lock");
        let _again = Lockfile::acquire(&path).expect("reacquire after drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_are_taken_over() {
        let dir = scratch("stale");
        let path = dir.join("x.lock");
        // A dead pid: spawn a process and wait for it to exit.
        let dead_pid = std::process::Command::new("true")
            .spawn()
            .map(|mut c| {
                let pid = c.id();
                let _ = c.wait();
                pid
            })
            .expect("spawn true");
        std::fs::write(&path, format!("{dead_pid}\n")).unwrap();
        let _l = Lockfile::acquire(&path).expect("dead-pid lock is stale");
        drop(_l);
        // A garbled lock (unparsable pid) is also stale.
        std::fs::write(&path, "not-a-pid\n").unwrap();
        let _l = Lockfile::acquire(&path).expect("garbled lock is stale");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
