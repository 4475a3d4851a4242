//! Where and how a result was measured, printed with every run.

use std::path::Path;
use std::process::Command;

/// ISA extensions worth recording next to a timing (the GEMM kernels and
/// the compiler's auto-vectoriser use them).
const ISA_FLAGS: [&str; 10] =
    ["sse4_2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512bw", "avx512vl", "avx512_vnni", "avx_vnni"];

pub struct Provenance {
    pub cpu: String,
    pub isa: Vec<String>,
    pub nproc: usize,
    pub platter_threads: String,
    pub workers: usize,
    pub rustc: String,
    pub seed: u64,
    pub commit: String,
}

impl Provenance {
    pub fn collect(seed: u64, workers: usize) -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let flags = field("flags").unwrap_or_default();
        let present: Vec<&str> = flags.split_whitespace().collect();
        Provenance {
            cpu: field("model name").unwrap_or_else(|| "unknown".into()),
            isa: ISA_FLAGS.iter().filter(|f| present.contains(f)).map(|f| f.to_string()).collect(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            platter_threads: std::env::var("PLATTER_THREADS").unwrap_or_else(|_| "unset".into()),
            workers,
            rustc: Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into()),
            seed,
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "cpu=\"{}\" isa={} nproc={} PLATTER_THREADS={} workers={} rustc=\"{}\" seed={} commit={}",
            self.cpu,
            self.isa.join(","),
            self.nproc,
            self.platter_threads,
            self.workers,
            self.rustc,
            self.seed,
            self.commit
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a repository.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

/// CPU time the hypervisor handed to other guests while this machine's
/// vCPUs were runnable (`steal` in `/proc/stat`), as a share of all CPU
/// time since [`Steal::start`]. A run with a high share was measured on a
/// contended host.
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    /// Sample the counters now.
    pub fn start() -> Option<Steal> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> =
            stat.lines().next()?.split_whitespace().skip(1).map_while(|v| v.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal
        Some(Steal { steal: *fields.get(7)?, total: fields.iter().take(8).sum() })
    }

    /// Share of CPU time stolen since this sample.
    pub fn share(&self) -> Option<f64> {
        let now = Steal::start()?;
        let total = now.total.checked_sub(self.total)?;
        (total > 0).then(|| now.steal.saturating_sub(self.steal) as f64 / total as f64)
    }
}
