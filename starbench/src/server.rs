//! The server under test: `dwc serve` run as shipped, plus what `/proc`
//! says about it.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `dwc serve` process. Dropping it kills the process and
/// waits for it, so no server outlives the benchmark.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Kept open so the server never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the server printed on its `listening on` line.
    pub addr: String,
    /// The server's process id.
    pub pid: u32,
}

/// The exact command line the benchmark runs: `--spec`, `--addr` and the
/// store directory, nothing else.
pub fn argv(dwc: &Path, spec: &str, dir: &Path) -> Vec<String> {
    vec![
        dwc.display().to_string(),
        "serve".into(),
        "--spec".into(),
        spec.into(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        dir.display().to_string(),
    ]
}

impl Server {
    /// Starts the server on `dir` with `DWC_THREADS` removed from its
    /// environment, and waits for its `listening on` line.
    pub fn spawn(dwc: &Path, spec: &str, dir: &Path, log: &Path) -> io::Result<Server> {
        let args = argv(dwc, spec, dir);
        let mut child = Command::new(&args[0])
            .args(&args[1..])
            .env_remove("DWC_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(fs::File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                let pid = child.id();
                Ok(Server {
                    child,
                    _stdout: stdout,
                    addr,
                    pid,
                })
            }
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                let log = fs::read_to_string(log).unwrap_or_default();
                Err(io::Error::other(format!(
                    "dwc serve did not start ({read:?}, stdout `{}`): {}",
                    line.trim(),
                    log.trim()
                )))
            }
        }
    }

    /// SIGKILLs the server and waits until it has exited.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped after `kill`; errors here mean exactly that.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU ticks (`utime + stime`, in `USER_HZ` = 1/100 s) from a
/// `/proc/.../stat` line.
fn stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime 14, stime 15.
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// One look at the server process.
#[derive(Clone, Debug, Default)]
pub struct ProcSample {
    /// Process CPU in ms, including threads that have exited.
    pub cpu_ms: f64,
    /// CPU in ms of each live thread, by thread id.
    pub threads: BTreeMap<u32, f64>,
    /// `rchar`/`wchar`-style counters from `/proc/<pid>/io`.
    pub wchar: u64,
    /// Write syscalls from `/proc/<pid>/io`.
    pub syscw: u64,
}

/// Reads `/proc/<pid>/{stat,task/*/stat,io}`.
pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let base = PathBuf::from(format!("/proc/{pid}"));
    let bad = |what: &str| io::Error::other(format!("cannot parse /proc/{pid}/{what}"));
    let cpu = stat_ticks(&fs::read_to_string(base.join("stat"))?).ok_or_else(|| bad("stat"))?;
    let mut threads = BTreeMap::new();
    for entry in fs::read_dir(base.join("task"))? {
        let entry = entry?;
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        // A thread may exit between listing and reading; skip it.
        if let Some(t) = fs::read_to_string(entry.path().join("stat"))
            .ok()
            .as_deref()
            .and_then(stat_ticks)
        {
            threads.insert(tid, t as f64 * 10.0);
        }
    }
    let io_text = fs::read_to_string(base.join("io"))?;
    let field = |name: &str| -> u64 {
        io_text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0)
    };
    Ok(ProcSample {
        cpu_ms: cpu as f64 * 10.0,
        threads,
        wchar: field("wchar:"),
        syscw: field("syscw:"),
    })
}

/// A `/proc/<pid>/status` field in kB (`VmHWM`, `VmRSS`) or count
/// (`Threads`).
pub fn status_field(pid: u32, name: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines().find_map(|l| {
        let v = l.strip_prefix(name)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// CPU share spent in threads that exited between two samples: process
/// CPU minus the CPU of threads alive at the end, over process CPU.
pub fn transient_share(before: &ProcSample, after: &ProcSample) -> Option<f64> {
    let total = after.cpu_ms - before.cpu_ms;
    if total <= 0.0 {
        return None;
    }
    let live: f64 = after
        .threads
        .iter()
        .map(|(tid, ms)| ms - before.threads.get(tid).copied().unwrap_or(0.0))
        .sum();
    Some(((total - live) / total).clamp(0.0, 1.0))
}

/// The machine's `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`.
pub fn host_cpu() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two [`host_cpu`]
/// readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copies the regular files under `from` into `to`, recursively.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_lines_with_spaces_in_the_name() {
        let line = "42 (dwc serve) S 1 42 42 0 -1 4194560 100 0 0 0 250 30 0 0 20 0 9 0";
        assert_eq!(stat_ticks(line), Some(280));
    }

    #[test]
    fn reads_this_process() {
        let s = sample(std::process::id()).expect("own /proc entry");
        assert!(!s.threads.is_empty());
        assert!(status_field(std::process::id(), "VmHWM").is_some());
    }
}
