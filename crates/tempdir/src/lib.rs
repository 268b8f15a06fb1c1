//! Test-only scratch directories: a [`TempDir`] is unique per call (even
//! across tests running in parallel in one process) and is removed, with
//! everything in it, when dropped.

#![warn(missing_docs)]

use std::ffi::OsStr;
use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An empty directory under the system temp dir, named
/// `stem-<tag>-<pid>-<n>` where `n` counts calls in this process.
/// Dereferences to its [`Path`]; removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory. `tag` only makes the name
    /// readable; uniqueness comes from the pid and the call counter.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("stem-{tag}-{}-{n}", std::process::id()));
        // A crashed run of an earlier process with the same pid may have
        // left the directory behind.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create a scratch directory under the temp dir");
        TempDir(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// Lets `&TempDir` convert into a `PathBuf` wherever an
/// `impl Into<PathBuf>` directory is taken.
impl AsRef<OsStr> for TempDir {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
