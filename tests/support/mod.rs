//! Test isolation shared by the integration suites, the crates' unit
//! tests and the `fig_store` bench binary (included there with
//! `#[path]`): every test or run gets a directory of its own, and every
//! fixture lands atomically.
//!
//! Tests of one binary run concurrently, and several binaries may run at
//! once, so a fixed `temp_dir().join("pmevo_…")` path is a race: one test
//! rewrites a fixture while another reads it half-written. A [`TempDir`]
//! is unique per process *and* per call (pid plus an atomic counter) and
//! is removed when dropped; [`TempDir::write`] writes a `.tmp` sibling and
//! renames it into place, so a reader never sees a truncated file.

#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `pmevo_<tag>_<pid>_<n>` under the system temp dir.
    pub fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("pmevo_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create test temp dir");
        TempDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `file` inside the directory (not created).
    pub fn join(&self, file: &str) -> PathBuf {
        self.path.join(file)
    }

    /// Writes `contents` to `file` atomically (`.tmp` sibling, then
    /// rename) and returns the file's path.
    pub fn write(&self, file: &str, contents: impl AsRef<[u8]>) -> PathBuf {
        let path = self.join(file);
        let tmp = self.join(&format!("{file}.tmp"));
        std::fs::write(&tmp, contents).expect("write test fixture");
        std::fs::rename(&tmp, &path).expect("move test fixture into place");
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
