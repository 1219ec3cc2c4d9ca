//! Process accounting read from `/proc/self`, and the host and commit
//! fingerprint printed with every result.

use std::path::Path;
use std::process::{Command, Stdio};

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds of the whole process: every thread, live or
/// joined. This is the sum `/proc/self/stat` reports in fields 14 and 15,
/// read from the kernel's process CPU clock at nanosecond resolution
/// instead of 10 ms ticks, which would quantise one campaign's CPU time
/// in steps of several percent.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Host and source fingerprint: numbers from different hosts, toolchains
/// or commits are not comparable, so every result carries these.
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// Hash of the program's sources, which identifies the code in any
    /// checkout, git or not.
    pub source_hash: u64,
    pub kernel: String,
}

impl Fingerprint {
    pub fn probe(nproc: usize) -> Fingerprint {
        Fingerprint {
            nproc,
            rustc: run_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: run_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
            source_hash: source_hash(Path::new(".")),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\":{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"source_hash\":\"{:016x}\",\"kernel\":\"{}\"}}}}",
            self.nproc,
            esc(&self.rustc),
            esc(&self.commit),
            self.source_hash,
            esc(&self.kernel)
        )
    }
}

/// First line of a command's standard output, when it runs and succeeds.
fn run_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

/// FNV-1a over the program's sources: the root manifest, the lock file,
/// and every file under `crates/`, in path order.
fn source_hash(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            feed(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
