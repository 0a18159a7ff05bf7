//! Process cost read from `/proc`: CPU time, peak memory, threads and
//! voluntary context switches. Parsers take the file text so the tests
//! can feed them fixtures.

use std::path::Path;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, which
/// Linux fixes at 100 for every architecture it exports to userspace).
const TICKS_PER_SEC: f64 = 100.0;

/// `(utime, stime)` in seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command come state (3) … cutime; utime is field 14 and
    // stime field 15, i.e. the 12th and 13th after the `)`.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime as f64 / TICKS_PER_SEC, stime as f64 / TICKS_PER_SEC))
}

/// A `Key:   123 kB`-style number from the text of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// User and system CPU seconds this process (all threads, living and
/// joined) has used so far.
pub fn cpu_seconds() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or((0.0, 0.0))
}

fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB: since the process started, or
/// since the last `reset_peak_rss` that succeeded.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Start `VmHWM` over from the current resident set (`clear_refs` code 5,
/// Linux 4.0 on). Where the kernel refuses, the peak stays cumulative and
/// every sub-run reports the run's peak so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Threads alive right now.
pub fn threads() -> u64 {
    status_field("Threads")
}

/// A CPU list as `/proc` prints it (`0-1`, `0,2-3`), as CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(first), Ok(last)) = (first.parse::<usize>(), last.parse::<usize>()) {
            cpus.extend(first..=last);
        }
    }
    cpus
}

/// `Cpus_allowed_list` of the calling thread.
fn cpus_allowed_list() -> String {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default()
}

/// The CPUs this process was started on, read once before any `pin_to`
/// narrows them.
pub fn cpus_at_start() -> &'static [usize] {
    static AT_START: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    AT_START.get_or_init(|| parse_cpu_list(&cpus_allowed_list()))
}

extern "C" {
    // glibc's, which `std` links against.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to `cpus`.
pub fn pin_to(cpus: &[usize]) -> std::io::Result<()> {
    // 1024 bits: the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| std::io::Error::other(format!("cpu {cpu} is beyond the mask")))?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is an initialised array that outlives the call, its
    // length in bytes is the one passed, and the kernel only reads it;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// CPUs the machine has online.
pub fn cpus_online() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Filesystem type of the mount `path` (absolute, canonical) lies on, from
/// the text of `/proc/<pid>/mountinfo`: the longest mount point that
/// prefixes `path`, and the last such line where mounts are stacked.
pub fn parse_mount_fs(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mountinfo.lines() {
        let (before, after) = line.split_once(" - ")?;
        let mount_point = before.split(' ').nth(4)?;
        let fs = after.split(' ').next()?;
        let depth = Path::new(mount_point).components().count();
        if path.starts_with(mount_point) && best.is_none_or(|(d, _)| depth >= d) {
            best = Some((depth, fs));
        }
    }
    best.map(|(_, fs)| fs.to_string())
}

/// The two things outside the program that set the level of every timing
/// here (README, "Noise facts"): the CPUs the process may run on and the
/// filesystem under its temp root. A run pins itself to the one or two
/// CPUs its workload is defined on and `run.sh` makes the temp root a
/// tmpfs; where either cannot be had the run still works, but its numbers
/// belong to another regime and must not be compared.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Regime {
    /// `Cpus_allowed_list` of the thread that ran the workload.
    pub cpus_allowed: String,
    /// Filesystem type under the temp root.
    pub tmp_fs: String,
}

impl Regime {
    /// Read this process's regime; `tmp_dir` must exist.
    pub fn read(tmp_dir: &Path) -> Regime {
        let cpus_allowed = cpus_allowed_list();
        let tmp_fs = std::fs::canonicalize(tmp_dir)
            .ok()
            .zip(std::fs::read_to_string("/proc/self/mountinfo").ok())
            .and_then(|(dir, mounts)| parse_mount_fs(&mounts, &dir))
            .unwrap_or_else(|| "unknown".to_string());
        Regime {
            cpus_allowed,
            tmp_fs,
        }
    }
}

/// Voluntary context switches summed over the threads alive right now
/// (a thread that has exited takes its count with it).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| parse_status_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (conv) gpu (x) R 1 4242 4242 0 -1 4194304 913 0 0 0 \
                    1234 567 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((12.34, 5.67)));
        assert_eq!(parse_stat_cpu("no paren"), None);
        assert_eq!(parse_stat_cpu("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tbench\nVmHWM:\t   20480 kB\nThreads:\t7\n\
                      voluntary_ctxt_switches:\t99\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(7));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(99)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn pinning_narrows_the_allowed_list() {
        // On a thread of its own: the narrowing must not leak into the
        // other tests' threads.
        let first = cpus_at_start()[0];
        let seen = std::thread::spawn(move || {
            pin_to(&[first]).expect("pin");
            parse_cpu_list(&cpus_allowed_list())
        })
        .join()
        .expect("pinned thread");
        assert_eq!(seen, vec![first]);
        assert!(pin_to(&[4096]).is_err());
    }

    #[test]
    fn the_deepest_and_latest_mount_names_the_filesystem() {
        let mounts = "22 1 8:1 / / rw,relatime - ext4 /dev/vda rw\n\
                      30 22 0:25 / /dev/shm rw,nosuid - tmpfs shm rw\n\
                      41 22 0:40 / /co/benchmark/out/ram rw - ext4 /dev/vdb rw\n\
                      42 41 0:41 / /co/benchmark/out/ram rw,relatime - tmpfs tmpfs rw,size=1g\n";
        let fs = |p: &str| parse_mount_fs(mounts, Path::new(p));
        assert_eq!(fs("/co/benchmark/out/ram/tmp.7").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/co/benchmark/out").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/shmx").as_deref(), Some("ext4"));
        assert_eq!(parse_mount_fs("garbage", Path::new("/")), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
        let (u, s) = cpu_seconds();
        assert!(u >= 0.0 && s >= 0.0);
        let regime = Regime::read(Path::new("."));
        assert!(!regime.cpus_allowed.is_empty() && regime.tmp_fs != "unknown");
    }
}
