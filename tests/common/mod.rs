//! Helpers shared by the integration tests that run the `psgc` binary.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A directory of one test's own under the system temp directory, removed
/// with everything in it when the test ends, whether it passes or fails.
/// The tests of one binary run on parallel threads of one process, so the
/// process id and a per-process counter name each directory: no test
/// removes a directory another is still using.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory named `<prefix>-<pid>-<n>`.
    pub fn new(prefix: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    /// The path of `name` inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Writes `contents` to `name` inside the directory and returns its
    /// path.
    pub fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, contents).expect("write scratch file");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a directory that cannot be removed must not turn a
        // passing test into a failing one.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
