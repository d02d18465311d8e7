//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts: for seconds to
//! minutes at a time everything runs up to about 40% slower, user time
//! included, so the slowdown is not stolen time but slower cycles. Run
//! medians of a raw timing then spread by as much as the drift, however many
//! samples a run takes. The parent therefore times a fixed kernel between
//! every two samples, and scales each sample's times by how much slower than
//! [`REFERENCE_S`] the kernels on either side of it ran. The kernel is this
//! file's code alone (it calls nothing in the library), and it runs in a
//! fresh process of its own, like a sample, so neither a change to the
//! library nor the state the parent has built up can move it.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The kernel's time at the reference host speed: about its median on a
/// quiet 2-vCPU Intel Xeon (2.1 GHz) guest. Every time the benchmark reports
/// is in seconds at this speed.
pub const REFERENCE_S: f64 = 0.040;

/// Times one run of the kernel in this process, in seconds.
pub fn kernel() -> f64 {
    let t = Instant::now();
    std::hint::black_box(work());
    t.elapsed().as_secs_f64()
}

/// Times one run of the kernel in a fresh `exe --calibrate` process.
pub fn measure(exe: &Path) -> Result<f64, String> {
    let out = Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|e| format!("cannot start the calibration kernel: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .ok()
        .filter(|t: &f64| out.status.success() && *t > 0.0)
        .ok_or_else(|| format!("the calibration kernel failed ({}): {text:?}", out.status))
}

/// Hashing, dependent loads and cache misses over a few MiB, the mix the
/// machines spend their time on: fill a 200k-entry hash table and vector
/// from a linear congruential sequence, then chase 2M dependent indices
/// through both.
fn work() -> u64 {
    const ENTRIES: u64 = 200_000;
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut chain: Vec<u64> = Vec::with_capacity(ENTRIES as usize);
    let mut x: u64 = 1;
    for i in 0..ENTRIES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        table.insert(x >> 40, i);
        chain.push(x);
    }
    let (mut sum, mut j) = (0u64, 0usize);
    for _ in 0..2_000_000 {
        j = (chain[j] as usize ^ j) % chain.len();
        sum = sum.wrapping_add(table.get(&(chain[j] >> 40)).copied().unwrap_or(0));
    }
    sum
}

/// The factor that brings a sample's times to the reference speed, from the
/// kernel times just before and just after it.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scale_is_relative_to_the_reference() {
        assert_eq!(work(), work());
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
    }
}
