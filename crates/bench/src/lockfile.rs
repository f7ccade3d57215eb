//! Advisory exclusive file locks.
//!
//! Two harness paths need cross-*process* mutual exclusion on a shared
//! file-system resource: journal generation GC ([`crate::journal::gc`])
//! must never run twice concurrently over the same store, and concurrent
//! `repro` processes finishing at the same time must not interleave their
//! read-merge-write of `BENCH_repro.json`. Both use the same primitive: a
//! lock file, created if missing, held under an exclusive
//! [`std::fs::File::try_lock`] (`flock(2)` on Unix).
//!
//! The kernel owns the lock, not the file: it is released when the holder
//! drops its [`Lockfile`] or exits for any reason, SIGKILL included. A
//! leftover lock file therefore never blocks anyone, and there is no
//! stale-lock takeover to race. Each [`Lockfile::acquire`] opens the file
//! afresh, so two holders in one process exclude each other as two
//! processes do.
//!
//! The lock file is never unlinked on release: a waiter that opened the
//! old inode before the unlink could lock it while a newcomer locks a
//! freshly created one, and both would hold "the" lock. A live holder
//! makes [`Lockfile::acquire`] fail fast; callers choose whether to error
//! out (GC) or wait briefly ([`Lockfile::acquire_wait`], the
//! BENCH_repro.json merge).

use std::fs::{File, OpenOptions, TryLockError};
use std::path::Path;
use std::time::{Duration, Instant};

/// A held lock; dropping it releases the lock (the file stays).
#[derive(Debug)]
pub struct Lockfile {
    _file: File,
}

impl Lockfile {
    /// Try to acquire `path` once. Returns `Err` with a human-readable
    /// reason when another holder has the lock or the filesystem refuses
    /// the open.
    pub fn acquire(path: &Path) -> Result<Self, String> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        match file.try_lock() {
            Ok(()) => Ok(Self { _file: file }),
            Err(TryLockError::WouldBlock) => {
                Err(format!("{} is held by another holder", path.display()))
            }
            Err(TryLockError::Error(e)) => Err(format!("cannot lock {}: {e}", path.display())),
        }
    }

    /// [`Self::acquire`], retrying for up to `wait` while another holder
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tint-lock-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The pid of a process that has already exited.
    fn dead_pid() -> u32 {
        let mut c = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let pid = c.id();
        let _ = c.wait();
        pid
    }

    #[test]
    fn exclusive_while_held_released_on_drop() {
        let dir = scratch("excl");
        let path = dir.join("x.lock");
        let held = Lockfile::acquire(&path).expect("first acquire succeeds");
        let err = Lockfile::acquire(&path).expect_err("held lock must refuse");
        assert!(err.contains("held by another holder"), "{err}");
        drop(held);
        let _again = Lockfile::acquire(&path).expect("reacquire after drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lock file left by a dead holder is not a held lock: nothing needs
    /// taking over, the next acquire simply succeeds.
    #[test]
    fn stale_locks_are_taken_over() {
        let dir = scratch("leftover");
        let path = dir.join("x.lock");
        std::fs::write(&path, format!("{}\n", dead_pid())).unwrap();
        drop(Lockfile::acquire(&path).expect("a dead holder's file does not block"));
        std::fs::write(&path, "not-a-pid\n").unwrap();
        drop(Lockfile::acquire(&path).expect("a garbled file does not block"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_a_dead_holders_lock_never_yields_two_holders() {
        // Each round leaves a lock file naming a dead pid, then four
        // threads race for it. Every winner holds until all four have
        // tried, so two successes in one round are two simultaneous
        // holders.
        const THREADS: usize = 4;
        const ROUNDS: usize = 2_000;
        let dir = scratch("race");
        let path = dir.join("x.lock");
        let dead = dead_pid();
        let mut doubled = 0;
        for _ in 0..ROUNDS {
            std::fs::write(&path, format!("{dead}\n")).unwrap();
            let start = Barrier::new(THREADS);
            let tried = Barrier::new(THREADS);
            let holders = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        let lock = Lockfile::acquire(&path).ok();
                        if lock.is_some() {
                            holders.fetch_add(1, Ordering::SeqCst);
                        }
                        tried.wait();
                        drop(lock);
                    });
                }
            });
            if holders.load(Ordering::SeqCst) > 1 {
                doubled += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(doubled, 0, "{doubled} of {ROUNDS} rounds had two holders");
    }
}
