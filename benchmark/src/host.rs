//! Where the numbers came from: host fingerprint, git sha, process
//! memory high-water mark, and the benchmark's own directories.

use pr_obs::json::JsonObj;
use std::path::{Path, PathBuf};

/// `benchmark/` of the checkout this binary was built in.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout root (parent of `benchmark/`).
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("benchmark/ sits inside the checkout")
}

/// `benchmark/out/` — results, traces and scratch files; git-ignored.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Writes `contents` to `benchmark/out/<name>` (creating the directory)
/// and says where it went; a failure is a note, not an error — the
/// numbers were already printed.
pub fn write_out(name: &str, contents: &str) {
    let path = out_dir().join(name);
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
    }
}

/// A scratch directory under `benchmark/out/tmp/`, removed on drop.
/// (The benchmark contract confines writes to the checkout, so this is
/// not `$TMPDIR`.)
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `benchmark/out/tmp/<label>-<pid>/`, wiping leftovers.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Short git sha of the checkout, `"unknown"` outside a git repository
/// (the benchmark driver's checkouts are plain directories).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Host fingerprint as a JSON object: CPU model, `nproc`, kernel, THP
/// mode, plus the git sha.
pub fn fingerprint_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = JsonObj::new();
    o.str("cpu", &cpu)
        .u64("nproc", nproc as u64)
        .str(
            "kernel",
            &read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        )
        .str(
            "thp",
            &read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled")
                .unwrap_or_else(|| "unknown".into()),
        )
        .str("git_sha", &git_sha());
    o.finish()
}
