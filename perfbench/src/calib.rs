//! Host-speed calibration for the untraced run's timings.
//!
//! The reference host is a shared 2-vCPU VM whose speed drifts with its
//! neighbours' load: one and the same campaign (same seed, same work) took
//! 1.49–2.32 s over 30 back-to-back repeats, with no steal time and CPU time
//! equal to wall time, and whole minutes can run 30–50% slower than the
//! next. A fixed kernel run in short slices on the same thread, interleaved
//! with the campaign, slows down with it. Timings are therefore reported in
//! reference-host seconds: the measured time scaled by
//! [`REFERENCE_SLICE_S`] over the slice time seen during the measurement.
//!
//! A slice has two halves, because the slowdowns have two kinds of cause. A
//! memory half (random read-modify-writes over 8 MiB) feels contention on
//! the shared cache; a code half (formatting, an ordered map of strings, a
//! sort: allocation-heavy, branchy standard-library code like the fuzzer's)
//! feels contention for the core. Over 14–16 repeats of one campaign per
//! workload, the memory half alone brought the campaign's spread (CV) from
//! 5.6–10.2% down to 4.6–5.3%, the code half alone to 2.4–4.4%, both
//! together to 2.4–2.9% (correlation 0.85–0.98). The kernel shares no code
//! with the program under test, so a change to the program moves the
//! measured time and not the scale.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// 8 MiB of state for the memory half: twice the 4 MiB L2 and far inside
/// the 300 MiB shared L3, so it mixes L2 hits with L3 hits much like the
/// campaigns do. (A 64 MiB buffer, all L3 misses, overreacted: correlation
/// 0.63, spread up instead of down.) The buffer stays resident for the whole
/// run; [`KERNEL_MIB`] is taken off the peak RSS.
const WORDS: usize = 1 << 20;
/// Resident size of one kernel, in MiB.
pub const KERNEL_MIB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);
/// Random read-modify-writes in the memory half (about 0.7 ms).
const STEPS: usize = 50_000;
/// Map entries and sorted values in the code half (about 0.65 ms).
const ENTRIES: u64 = 1_500;
/// Wall time between slices inside a campaign (about 5% overhead, which is
/// excluded from the measured time).
pub const SLICE_EVERY: Duration = Duration::from_millis(25);
/// Typical slice time inside a campaign on the reference host. Timings are
/// scaled to this speed.
pub const REFERENCE_SLICE_S: f64 = 0.001_35;

/// The calibration kernel with its state and what its slices measured.
pub struct Kernel {
    buf: Vec<u64>,
    x: u64,
    busy: Duration,
    slices: u32,
    /// When the worker that ran the slices finished, if it has.
    pub finished: Option<Instant>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Build the kernel's state, touching every page so no slice pays for
    /// page faults.
    pub fn new() -> Kernel {
        Kernel {
            buf: (0..WORDS as u64).collect(),
            x: 1,
            busy: Duration::ZERO,
            slices: 0,
            finished: None,
        }
    }

    /// Run one fixed-work slice and return how long it took.
    pub fn slice(&mut self) -> Duration {
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let i = (self.next() >> 33) as usize % WORDS;
            sum = sum.wrapping_add(self.buf[i]);
            self.buf[i] = sum;
        }
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        let mut values = Vec::with_capacity(ENTRIES as usize);
        for i in 0..ENTRIES {
            let x = self.next();
            *map.entry(format!("k{:x}_{}", x >> 40, i % 7)).or_insert(0) += i;
            values.push(x >> 3);
        }
        values.sort_unstable();
        black_box(sum ^ map.values().sum::<u64>() ^ values[values.len() / 2]);
        let d = t0.elapsed();
        self.busy += d;
        self.slices += 1;
        d
    }

    fn next(&mut self) -> u64 {
        self.x =
            self.x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.x
    }

    /// Forget the slices measured so far.
    pub fn reset(&mut self) {
        self.busy = Duration::ZERO;
        self.slices = 0;
        self.finished = None;
    }

    /// Total time spent in slices since the last reset.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Slices run since the last reset.
    pub fn slices(&self) -> u32 {
        self.slices
    }

    /// Mean slice time since the last reset, in seconds.
    pub fn mean_slice_s(&self) -> f64 {
        self.busy.as_secs_f64() / f64::from(self.slices.max(1))
    }
}

/// Factor that turns a time measured while slices took `mean_slice_s` into
/// reference-host seconds.
pub fn scale(mean_slice_s: f64) -> f64 {
    REFERENCE_SLICE_S / mean_slice_s
}
