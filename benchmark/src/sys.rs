//! What the operating system says about this process: CPU time, peak
//! resident memory, and the host the numbers were taken on.

use std::path::Path;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every architecture Linux supports.
const TICK_US: u64 = 10_000;

/// CPU time of one thread in µs, given its `/proc/<pid>/task/<tid>`
/// directory. The scheduler's own run-time counter (`schedstat`, ns
/// resolution) when the kernel has it; otherwise `utime + stime` from
/// `stat`, which is sampled at the timer tick and so misjudges threads
/// that run in bursts much shorter than a tick.
pub fn thread_cpu_us(task_dir: &str) -> u64 {
    let run_ns = std::fs::read_to_string(format!("{task_dir}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
    if let Some(ns) = run_ns {
        return ns / 1000;
    }
    let stat = std::fs::read_to_string(format!("{task_dir}/stat")).unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * TICK_US
}

/// CPU time of this process in µs: every thread, those that have
/// exited included (a load thread may leave before the coordinator reads
/// the window's last edge), at the scheduler's ns resolution.
pub fn process_cpu_us() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` — two 64-bit
    // fields on every 64-bit Linux target, the only hosts this benchmark
    // (which reads /proc throughout) runs on — and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000 + ts.nsec as u64 / 1000
}

/// Bind the calling thread to one CPU: `slot` modulo the CPUs there are.
/// Every load thread (and the server's poll loop) calls this with its
/// own slot. Left to the scheduler, a thread that sleeps between short
/// bursts — the think-time writer, the idle server — may be woken on
/// the CPU of the thread that never sleeps and stay there for minutes,
/// pre-empting it on every wake-up while the other CPU idles; the same
/// binary then reports 450 k instead of 740 k reads/s, and which of the
/// two it is changes every few minutes.
pub fn bind_to_cpu(slot: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = slot % nproc();
    let mut mask = [0u64; 16];
    mask[cpu / 64 % 16] = 1 << (cpu % 64);
    // SAFETY: `mask` is a valid CPU set of the size passed (1024 bits,
    // glibc's `cpu_set_t`), pid 0 means the calling thread, and the call
    // only reads the mask. Best effort: where it is refused (a cpuset
    // that excludes the CPU) the thread stays where the scheduler put it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = head.split_whitespace().nth(4) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (
                mount.len(),
                tail.split_whitespace().next().unwrap_or("unknown").into(),
            );
        }
    }
    best.1
}

/// One line naming the host, printed with every set of results so a
/// number is never read without it.
pub fn host_line(data_dir: &Path) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "host: nproc={} kernel={} data_fs={} rustc=\"{}\" (shared sandbox; not a scaling or device result)",
        nproc(),
        kernel.trim(),
        fs_type(data_dir),
        std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    )
}
