//! Group commit: one fsync covers many concurrent commits.
//!
//! Commit-sync durability pays ~one disk flush per batch, which caps a
//! multi-session engine at fsync rate regardless of how many worker
//! threads commit concurrently. The coordinator here keeps the durability
//! contract (an acknowledged batch is on disk) while sharing flushes:
//! every committer appends its record under the store lock, then joins a
//! *sync epoch*. The first committer to find no flush in progress elects
//! itself leader, re-takes the store lock, observes how many records have
//! been appended so far (`cover`), and issues a single fsync that makes
//! all of them durable at once; everyone whose epoch the flush covered is
//! released together. Committers that arrive while a flush is in flight
//! simply wait — by the time the current flush finishes and the next
//! leader reads its own `cover`, their records are included, so nobody
//! ever waits for more than two flushes.
//!
//! ## Ordering argument
//!
//! `appended` is only incremented while holding the store lock, *after*
//! the record's bytes are in the store (file or deferred write buffer).
//! The leader reads `cover = appended` while *itself* holding the store
//! lock, so every record counted by `cover` is fully appended before the
//! `Store::sync` that follows (which flushes the write buffer first).
//! `synced >= epoch` therefore really does mean "my record is durable".
//!
//! ## Failure
//!
//! If the flush fails, every committer covered by it gets an error and
//! the engine rolls those batches back without acking — the same
//! semantics as a failed inline fsync under commit-sync: the record may
//! physically exist in the log as an orphan, and per-session sequence
//! replay deduplicates it if the session retries.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::record::WalRecord;
use crate::store::Store;

#[derive(Default)]
struct GcState {
    /// Records appended so far (bumped under the store lock).
    appended: u64,
    /// Highest epoch made durable by a completed flush.
    synced: u64,
    /// Highest epoch covered by a *failed* flush; those commits error out.
    failed: u64,
    /// Message of the most recent flush failure.
    failed_msg: String,
    /// Whether a committer is currently driving a flush.
    leader: bool,
}

/// Shared-fsync commit coordinator wrapped around the engine's store.
pub struct GroupCommit {
    store: Arc<Mutex<Store>>,
    state: Mutex<GcState>,
    cv: Condvar,
    syncs: AtomicU64,
    commits: AtomicU64,
}

impl GroupCommit {
    /// Wraps `store` (which should be opened with
    /// [`SyncPolicy::Deferred`](crate::store::SyncPolicy::Deferred) so the
    /// coordinator owns all fsyncs).
    pub fn new(store: Arc<Mutex<Store>>) -> GroupCommit {
        GroupCommit {
            store,
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            syncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }
    }

    /// The wrapped store, for non-commit paths (checkpoints, shipping).
    pub fn store(&self) -> &Arc<Mutex<Store>> {
        &self.store
    }

    /// Appends `rec` and returns once a flush has made it durable (or
    /// failed). Returns the frame size in bytes, like [`Store::append`].
    pub fn append_durable(&self, rec: &WalRecord) -> io::Result<usize> {
        // Lock order is always store → state, so `appended` counts exactly
        // the records whose bytes are already in the store.
        let (frame_len, epoch) = {
            let mut store = self.store.lock().unwrap();
            let n = store.append(rec)?;
            let mut g = self.state.lock().unwrap();
            g.appended += 1;
            (n, g.appended)
        };
        self.commits.fetch_add(1, Ordering::Relaxed);

        let mut g = self.state.lock().unwrap();
        loop {
            if g.synced >= epoch {
                return Ok(frame_len);
            }
            if g.failed >= epoch {
                return Err(io::Error::other(format!(
                    "group commit flush failed: {}",
                    g.failed_msg
                )));
            }
            if !g.leader {
                g.leader = true;
                drop(g);
                let result = {
                    let mut store = self.store.lock().unwrap();
                    let cover = self.state.lock().unwrap().appended;
                    store.sync().map(|()| cover).map_err(|e| (cover, e))
                };
                g = self.state.lock().unwrap();
                g.leader = false;
                match result {
                    Ok(cover) => {
                        g.synced = g.synced.max(cover);
                        self.syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err((cover, err)) => {
                        g.failed = g.failed.max(cover);
                        g.failed_msg = err.to_string();
                    }
                }
                self.cv.notify_all();
            } else {
                g = self.cv.wait(g).unwrap();
            }
        }
    }

    /// Completed group flushes (each one covered ≥1 commit).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Commits acknowledged through the coordinator.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreOptions, SyncPolicy};
    use std::sync::mpsc;
    use std::thread;
    use stem_tempdir::TempDir;

    fn open_deferred(dir: &std::path::Path) -> Store {
        let (store, _) = Store::open(
            dir,
            StoreOptions {
                sync: SyncPolicy::Deferred,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store
    }

    fn rec(session: u64, seq: u64) -> WalRecord {
        WalRecord::Batch {
            session,
            seq,
            key: 0,
            commands: vec![crate::command::PersistCommand::SetValueChangeLimit {
                limit: seq as u32,
            }],
        }
    }

    #[test]
    fn concurrent_commits_share_fsyncs_and_all_persist() {
        let dir = TempDir::new("share");
        let gc = Arc::new(GroupCommit::new(Arc::new(Mutex::new(open_deferred(&dir)))));
        const THREADS: u64 = 8;
        const PER: u64 = 25;

        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let gc = Arc::clone(&gc);
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for s in 1..=PER {
                    gc.append_durable(&rec(t, s)).unwrap();
                }
                tx.send(t).unwrap();
            }));
        }
        drop(tx);
        assert_eq!(rx.iter().count() as u64, THREADS);
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(gc.commits(), THREADS * PER);
        // Every commit waited for a flush, but concurrent committers share
        // them: strictly fewer flushes than commits (with 8 threads the
        // coordinator typically needs far fewer; ≥1 is all that's certain
        // beyond the sharing bound).
        let syncs = gc.syncs();
        assert!(syncs >= 1, "at least one flush must have happened");
        assert!(
            syncs <= THREADS * PER,
            "flushes ({syncs}) cannot exceed commits"
        );

        // Everything acknowledged is on disk: drop and reopen.
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail.len() as u64, THREADS * PER);
        assert!(!recovered.truncated);
    }

    #[test]
    fn single_committer_still_durable_per_append() {
        let dir = TempDir::new("single");
        let gc = GroupCommit::new(Arc::new(Mutex::new(open_deferred(&dir))));
        for s in 1..=5 {
            gc.append_durable(&rec(0, s)).unwrap();
        }
        assert_eq!(gc.commits(), 5);
        assert_eq!(gc.syncs(), 5, "uncontended commits flush one-for-one");
        drop(gc);
        let (_store, recovered) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.tail.len(), 5);
    }
}
