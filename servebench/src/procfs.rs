//! What the benchmark reads about the server from outside it: `/proc`
//! counters, CPU placement, and the machine fingerprint.

use std::io::{Error, ErrorKind, Result};

/// Server-side counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// utime + stime of the whole process, in microseconds.
    pub cpu_us: f64,
    /// Voluntary plus involuntary context switches over its live threads.
    pub ctx_switches: u64,
    /// TCP segments sent by this network namespace (both loopback ends).
    pub out_segs: u64,
}

impl Counters {
    /// Reads the counters of process `pid`.
    pub fn read(pid: u32) -> Result<Counters> {
        Ok(Counters {
            cpu_us: cpu_us(pid)?,
            ctx_switches: ctx_switches(pid)?,
            out_segs: out_segs()?,
        })
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            out_segs: self.out_segs.saturating_sub(earlier.out_segs),
        }
    }
}

fn malformed(what: &str) -> Error {
    Error::new(
        ErrorKind::InvalidData,
        format!("unexpected format of {what}"),
    )
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// CPU time of `pid` from fields 14 and 15 of `/proc/<pid>/stat`.
fn cpu_us(pid: u32) -> Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; the fields after it do not.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| malformed("stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| malformed("stat"))
    };
    // `rest` starts at field 3 (state), so utime is index 11.
    let ticks = tick(11)? + tick(12)?;
    // SAFETY: sysconf only reads a constant of the C library.
    let per_second = unsafe { sysconf(SC_CLK_TCK) };
    if per_second <= 0 {
        return Err(malformed("sysconf(_SC_CLK_TCK)"));
    }
    Ok(ticks as f64 * 1e6 / per_second as f64)
}

/// Sum of one `Key:` line of a `/proc` status file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn ctx_switches(pid: u32) -> Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task?.path().join("status")) else {
            continue;
        };
        total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    }
    Ok(total)
}

fn out_segs() -> Result<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp")?;
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return Err(malformed("/proc/net/snmp"));
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| malformed("/proc/net/snmp"))
}

/// Peak resident set of `pid` (`VmHWM`), in MiB.
pub fn rss_peak_mb(pid: u32) -> Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status_field(&status, "VmHWM:").ok_or_else(|| malformed("status"))?;
    Ok(kb as f64 / 1024.0)
}

/// Words of the CPU mask passed to the affinity calls (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

/// Pins the calling thread, and every thread or process it starts
/// afterwards, to `cpu`.
pub fn pin_current_thread(cpu: usize) -> Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(Error::new(ErrorKind::InvalidInput, "cpu out of range"));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(Error::last_os_error());
    }
    Ok(())
}

/// Where the server and the generator run.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU of every server thread.
    pub server: usize,
    /// CPU of every generator thread and of the in-process layers.
    pub generator: usize,
}

impl Placement {
    /// Server on the first allowed CPU, generator on the second; both on
    /// the only one when a single CPU is allowed.
    pub fn choose() -> Result<Placement> {
        let cpus = allowed_cpus()?;
        let server = *cpus.first().ok_or_else(|| Error::other("no CPU allowed"))?;
        let generator = cpus.get(1).copied().unwrap_or(server);
        Ok(Placement { server, generator })
    }
}

/// nproc, CPU model and kernel of this machine.
pub fn fingerprint() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|v| v.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    (nproc, model, kernel)
}
