//! Machine fingerprint and the drift sentinel.

use std::process::Command;
use std::time::Duration;

use looplynx_tensor::simd;

use crate::json::Json;
use crate::probes::dot_peak_gmacs;
use crate::stats::spread;

/// First line of `program args…`'s standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The widest int8 dot path the kernels dispatch to on this CPU.
fn dispatched_isa() -> &'static str {
    if simd::vnni512_available() {
        return "avx512-vnni";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}

/// What the numbers were measured on.
pub fn fingerprint(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("nproc", Json::Int(nproc as i128)),
        ("cpu", Json::str(cpu)),
        ("isa", Json::str(dispatched_isa())),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Int(seed.into())),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mib`] covers only what ran in between. Returns `false`
/// where the kernel does not offer `/proc/self/clear_refs`; the peak is
/// then the process-wide one.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// in MiB (`VmHWM`); 0 where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The drift sentinel: one fixed-length `simd.dot_peak_gmacs` calibration
/// before and after every rep. A run whose calibrations moved more than
/// [`Sentinel::LIMIT`] apart is marked unsettled.
#[derive(Debug, Default)]
pub struct Sentinel {
    readings: Vec<f64>,
}

impl Sentinel {
    /// `(max − min) / median` of the calibrations above which the machine
    /// changed speed under the run.
    pub const LIMIT: f64 = 0.10;

    pub fn calibrate(&mut self, quick: bool) {
        let budget = Duration::from_millis(if quick { 40 } else { 200 });
        self.readings.push(dot_peak_gmacs(budget));
    }

    pub fn count(&self) -> usize {
        self.readings.len()
    }

    pub fn spread(&self) -> f64 {
        spread(&self.readings)
    }

    pub fn unsettled(&self) -> bool {
        self.spread() > Self::LIMIT
    }
}
