//! `/proc` readers: CPU steal, per-thread on-CPU time, peak RSS and the
//! host facts stamped into every results file. Parsers take the file
//! text so they can be tested on fixtures.

use crate::json::Json;
use std::fs;

/// Aggregate jiffies of the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

pub fn parse_stat_cpu(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    (fields.len() >= 8).then(|| CpuTimes {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

pub fn cpu_times() -> CpuTimes {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_stat_cpu(&t))
        .unwrap_or_default()
}

/// Share of the CPU time between two readings that was stolen.
pub fn steal_ratio(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// On-CPU nanoseconds: first field of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// utime + stime in clock ticks from a `stat` file. The command name
/// may hold spaces and parentheses, so fields count from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Nanoseconds per clock tick (`USER_HZ` is 100 on every Linux ABI).
const TICK_NS: u64 = 10_000_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    pub tid: u32,
    pub name: String,
    pub cpu_ns: u64,
}

/// On-CPU time of every thread of this process, by thread name.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let name = fs::read_to_string(path.join("comm"))
                .ok()?
                .trim()
                .to_string();
            let cpu_ns = fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|t| parse_schedstat(&t))
                .or_else(|| {
                    let ticks = parse_stat_ticks(&fs::read_to_string(path.join("stat")).ok()?)?;
                    Some(ticks * TICK_NS)
                })?;
            Some(ThreadCpu { tid, name, cpu_ns })
        })
        .collect()
}

/// On-CPU nanoseconds of the calling thread.
pub fn own_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or(0)
}

/// CPU spent between two [`thread_cpu`] readings by threads whose name
/// passes `keep` (threads missing from either reading are skipped).
pub fn cpu_between(before: &[ThreadCpu], after: &[ThreadCpu], keep: impl Fn(&str) -> bool) -> u64 {
    after
        .iter()
        .filter(|t| keep(&t.name))
        .filter_map(|a| {
            let b = before.iter().find(|b| b.tid == a.tid)?;
            Some(a.cpu_ns.saturating_sub(b.cpu_ns))
        })
        .sum()
}

/// Threads of the system under test: everything except the harness's
/// own (`spine-*` and the main thread, which carries the binary's
/// name). Defined by exclusion so that renaming threads inside the
/// system cannot silently zero the monitor's CPU.
pub fn is_system_thread(name: &str) -> bool {
    !name.starts_with("spine")
}

pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn read_trimmed(path: &str) -> Option<String> {
    Some(fs::read_to_string(path).ok()?.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host facts for the results file. Anything unreadable is `null`.
pub fn environment() -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo").ok().and_then(|t| {
        let line = t.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split(':').nth(1)?.trim().to_string())
    });
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("cores_visible", cores)
        .with("kernel", read_trimmed("/proc/sys/kernel/osrelease"))
        .with("cpu_model", cpu_model)
        .with(
            "governor",
            read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        )
        .with(
            "rmem_max",
            read_trimmed("/proc/sys/net/core/rmem_max").and_then(|s| s.parse::<u64>().ok()),
        )
        .with("rustc", command_line("rustc", &["-V"]))
        .with(
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  1185189 0 454293 2007896 9809 0 26507 51446 0 0\n\
                        cpu0 597975 0 207702 1017749 6659 0 9726 25830 0 0\n\
                        intr 123 4 5\n";

    #[test]
    fn stat_cpu_line_sums_eight_fields_and_picks_steal() {
        let t = parse_stat_cpu(STAT).unwrap();
        assert_eq!(t.steal, 51446);
        assert_eq!(t.total, 1185189 + 454293 + 2007896 + 9809 + 26507 + 51446);
        assert_eq!(parse_stat_cpu("cpu0 1 2 3\n"), None);
        assert_eq!(parse_stat_cpu("cpu  1 2 3 x 5 6 7 8\n"), None);
    }

    #[test]
    fn steal_ratio_is_a_share_of_elapsed_jiffies() {
        let a = CpuTimes {
            total: 1000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1400,
            steal: 22,
        };
        assert!((steal_ratio(a, b) - 0.03).abs() < 1e-12);
        assert_eq!(steal_ratio(a, a), 0.0);
    }

    #[test]
    fn schedstat_and_stat_fixtures() {
        assert_eq!(parse_schedstat("521137734 4956163 30\n"), Some(521137734));
        assert_eq!(parse_schedstat(""), None);
        // A thread name with spaces and a closing parenthesis.
        let stat = "17855 (twofd shard) 0) R 17851 17855 17851 0 -1 4194304 1648 5986 0 0 \
                    51 7 3 1 20 0 1 0 1868707 12824576 2165";
        assert_eq!(parse_stat_ticks(stat), Some(58));
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn cpu_between_filters_by_name_and_skips_threads_that_came_or_went() {
        let t = |tid, name: &str, cpu_ns| ThreadCpu {
            tid,
            name: name.into(),
            cpu_ns,
        };
        let before = [
            t(1, "spine", 100),
            t(2, "twofd-shard-0", 1_000),
            t(3, "twofd-fleet-ing", 50),
        ];
        let after = [
            t(1, "spine", 900),
            t(2, "twofd-shard-0", 4_000),
            t(3, "twofd-fleet-ing", 250),
            t(4, "twofd-shard-1", 7_777),
            t(5, "spine-gen", 5_000),
        ];
        assert_eq!(cpu_between(&before, &after, is_system_thread), 3_200);
        assert_eq!(
            cpu_between(&before, &after, |n| n.starts_with("twofd-shard")),
            3_000
        );
    }

    #[test]
    fn vm_hwm_fixture() {
        let status = "Name:\tspine\nVmPeak:\t  9000 kB\nVmHWM:\t    1824 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1824));
        assert_eq!(parse_vm_hwm_kb("Name:\tspine\n"), None);
    }

    #[test]
    fn live_proc_is_readable_here() {
        // The harness's own numbers come from these; fail loudly where
        // they would silently read zero.
        assert!(cpu_times().total > 0);
        assert!(thread_cpu()
            .iter()
            .any(|t| t.cpu_ns > 0 || !t.name.is_empty()));
        assert!(peak_rss_mb() > 0.0);
    }
}
