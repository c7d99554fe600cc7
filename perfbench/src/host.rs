//! Host metadata recorded with every result, peak resident memory, and
//! the CPU-time clocks the end-to-end timings use.

use std::process::Command;

/// What the host looked like when a result was taken.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `nproc` output (CPUs this process may run on).
    pub nproc: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// `rustc -V` output.
    pub rustc: String,
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl HostInfo {
    /// Probes the host. Every probe falls back to `unknown`.
    #[must_use]
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Stop git at the current directory so a checkout nested inside
        // some other repository never reports that repository's commit.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.display().to_string()))
            .unwrap_or_default();
        Self {
            nproc: command_line("nproc", &[], &[]),
            available_parallelism: threads(),
            cpu_model,
            rustc: command_line("rustc", &["-V"], &[]),
            git_commit: command_line(
                "git",
                &["rev-parse", "HEAD"],
                &[("GIT_CEILING_DIRECTORIES", &ceiling)],
            ),
        }
    }

    /// One JSON object.
    #[must_use]
    pub fn to_json(&self, seed: u64) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"cpu_model\":{},\"rustc\":{},\
             \"git_commit\":{},\"seed\":{}}}",
            json_str(&self.nproc),
            self.available_parallelism,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_commit),
            seed
        )
    }
}

/// Worker threads the benchmark may use: the host's available
/// parallelism.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs a command to completion and returns its trimmed first line of
/// output, or `unknown` if it cannot be run or fails.
fn command_line(program: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process image so far, MB (10^6
/// bytes): `VmHWM` from `/proc/self/status`.
///
/// `getrusage`'s `ru_maxrss` is not used because it carries over the
/// resident size of the process that forked and exec'd this one (cargo,
/// a shell), which can exceed the benchmark's own.
///
/// # Errors
///
/// The status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), which is all `clock_gettime` writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks exist on every supported Linux");
    u64::try_from(ts.sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.nsec).unwrap_or(0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on (empty if the OS will not say).
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // which is all `sched_getaffinity` writes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; returns whether the OS agreed.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed, which is
    // all `sched_setaffinity` reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// CPU time consumed by the calling thread, ns.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by all threads of this process, ns.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        let mb = peak_rss_mb().expect("VmHWM readable");
        assert!(mb > 0.1 && mb < 100_000.0, "{mb} MB");
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
