//! Host-speed calibration. The benchmark reports its timings at a reference
//! host speed: each raw wall time is scaled by how much slower or faster
//! than the reference a fixed calibration kernel ran right before, during
//! and right after it. On a shared host whose speed drifts by tens of
//! percent over seconds to minutes, this keeps two runs of the same code
//! comparable.
//!
//! The kernel is plain Rust in this file and calls nothing in the library
//! crates, so a change to the library cannot change it.

use std::hint::black_box;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// Seconds one calibration unit takes on the reference host: the median
/// unit time over six minutes on the 2-vCPU Intel Xeon VM the benchmark was
/// written on, so reference seconds read close to that machine's wall
/// seconds.
pub const REFERENCE_UNIT_S: f64 = 4.5e-4;

/// Units per probe; a probe reports their median.
const UNITS_PER_PROBE: usize = 7;

/// Side of the dense matrix the kernel factors (115 KB).
const DENSE_N: usize = 120;

/// Length of the arrays the kernel gathers from (4 MiB of `f64`).
const GATHER_LEN: usize = 1 << 19;

/// Indexed loads per unit.
const GATHERS: usize = 1 << 17;

/// The kernel's working set, allocated once per process.
pub struct Calibrator {
    dense: Vec<f64>,
    work: Vec<f64>,
    table: Vec<f64>,
    index: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let n = DENSE_N;
        // Diagonally dominant, so elimination without pivoting is stable.
        let dense = (0..n * n)
            .map(|k| {
                let (i, j) = (k / n, k % n);
                if i == j {
                    2.0 * n as f64
                } else {
                    ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5
                }
            })
            .collect();
        let table = (0..GATHER_LEN).map(|k| (k % 97) as f64 * 1e-2).collect();
        // A fixed pseudo-random permutation-like stream of indices.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let index = (0..GATHERS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % GATHER_LEN as u64) as u32
            })
            .collect();
        Calibrator {
            dense,
            work: vec![0.0; n * n],
            table,
            index,
        }
    }

    /// One unit of fixed work: an LU elimination of the dense matrix (a
    /// cache-resident floating-point loop, like the reducer's and the
    /// reduced models' dense kernels) and an indexed gather over 4 MiB (a
    /// cache-missing load stream, like sparse matrix-vector products).
    fn unit(&mut self) -> f64 {
        let n = DENSE_N;
        let a = &mut self.work;
        a.copy_from_slice(&self.dense);
        for k in 0..n {
            let pivot = a[k * n + k];
            for i in k + 1..n {
                let l = a[i * n + k] / pivot;
                a[i * n + k] = l;
                for j in k + 1..n {
                    a[i * n + j] -= l * a[k * n + j];
                }
            }
        }
        let mut acc = 0.0;
        for &i in black_box(&self.index).iter() {
            acc += self.table[i as usize];
        }
        black_box(a[n * n - 1] + acc)
    }

    /// Median seconds of one unit, measured now.
    pub fn probe(&mut self) -> f64 {
        let mut times = [0.0; UNITS_PER_PROBE];
        for t in &mut times {
            let start = Instant::now();
            black_box(self.unit());
            *t = start.elapsed().as_secs_f64();
        }
        times.sort_by(f64::total_cmp);
        times[UNITS_PER_PROBE / 2]
    }
}

/// A probe this recent still serves as the "before" probe of the next
/// timed interval.
const FRESH: Duration = Duration::from_millis(20);

/// How often a sampler thread probes while a timed interval runs. A probe
/// takes about 3 ms, so it takes about 1 % of one vCPU.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// One timed interval: its wall time and that time at the reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub raw_s: f64,
    pub reference_s: f64,
}

/// Times intervals between host-speed probes.
pub struct Clock {
    calibrator: Calibrator,
    /// The sampler thread's own working set.
    sampler: Calibrator,
    /// When the latest probe ended, and its unit time.
    last: Option<(Instant, f64)>,
    /// Every probe's unit time.
    pub probes: Samples,
    /// Wall time spent probing so far.
    pub probe_s: f64,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            calibrator: Calibrator::new(),
            sampler: Calibrator::new(),
            last: None,
            probes: Samples::default(),
            probe_s: 0.0,
        }
    }

    fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let unit = self.calibrator.probe();
        self.probe_s += start.elapsed().as_secs_f64();
        self.probes.push(unit);
        self.last = Some((Instant::now(), unit));
        unit
    }

    /// Runs `f` between two probes (the first reused when fresh) while a
    /// sampler thread probes every `SAMPLE_EVERY`. An interval of seconds
    /// spans several phases of the host's speed, which the probes at its
    /// ends alone would miss.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        let before = match self.last {
            Some((at, unit)) if at.elapsed() < FRESH => unit,
            _ => self.probe(),
        };
        let sampler = &mut self.sampler;
        let (done, wake) = mpsc::channel::<()>();
        let (value, raw_s, during) = std::thread::scope(|s| {
            let handle = s.spawn(move || {
                let mut units = Vec::new();
                while let Err(RecvTimeoutError::Timeout) = wake.recv_timeout(SAMPLE_EVERY) {
                    units.push(sampler.probe());
                }
                units
            });
            let start = Instant::now();
            let value = f();
            let raw_s = start.elapsed().as_secs_f64();
            // Dropping the sender wakes the sampler, which then returns.
            drop(done);
            let during = handle.join().expect("the sampler thread does not panic");
            (value, raw_s, during)
        });
        let after = self.probe();
        for &unit in &during {
            self.probes.push(unit);
        }
        let units: Vec<f64> = [before, after].into_iter().chain(during).collect();
        let lap = Lap {
            raw_s,
            reference_s: raw_s * to_reference(&units),
        };
        (value, lap)
    }
}

/// Scale factor from this host's speed, as probed around and during a
/// timed interval, to the reference speed: multiply the interval's wall
/// time by it.
pub fn to_reference(units: &[f64]) -> f64 {
    REFERENCE_UNIT_S * units.len() as f64 / units.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_positive_and_finite() {
        let mut c = Calibrator::new();
        let t = c.probe();
        assert!(t > 0.0 && t.is_finite());
        assert!(to_reference(&[t, t]).is_finite());
        assert!((to_reference(&[REFERENCE_UNIT_S; 3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_probes_a_long_interval() {
        let mut clock = Clock::new();
        let (_, lap) = clock.time(|| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(600) {
                std::hint::spin_loop();
            }
        });
        // Before, after, and at least one probe in flight.
        assert!(clock.probes.len() >= 3);
        assert!(lap.raw_s >= 0.6 && lap.reference_s > 0.0);
    }

    #[test]
    fn lap_scales_by_the_probes() {
        let mut clock = Clock::new();
        let (value, lap) = clock.time(|| 7);
        assert_eq!(value, 7);
        assert_eq!(clock.probes.len(), 2);
        let (_, again) = clock.time(|| ());
        // The first lap's "after" probe is the second's "before" while it
        // is fresh.
        assert!((3..=4).contains(&clock.probes.len()));
        assert!(lap.reference_s >= 0.0 && again.reference_s.is_finite());
    }
}
