//! The host stamp printed with every record, and process memory.

use mcl_core::{pool, KernelBackend};

/// What the numbers of one run depend on besides the code.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether the CPU offers AVX2 (the `avx2` kernel backend).
    pub avx2: bool,
    /// The backend the filters run under (`KernelBackend::detect`).
    pub backend: KernelBackend,
    /// Threads of the shared worker pool (`pool::shared().workers()`).
    pub pool_workers: usize,
}

impl HostStamp {
    /// Probes the running host.
    pub fn probe() -> Self {
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            avx2: KernelBackend::Avx2.is_available(),
            backend: KernelBackend::detect(),
            pool_workers: pool::shared().workers(),
        }
    }

    /// The stamp as JSON object members (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\":{},\"avx2\":{},\"backend\":\"{}\",\"pool_workers\":{}",
            self.nproc,
            self.avx2,
            self.backend.name(),
            self.pool_workers
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
