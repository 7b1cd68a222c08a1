//! Seeded input generation. The benchmark derives every waveform parameter
//! from the `--seed` argument; the library only ever sees the resulting
//! waveforms.

use std::fmt;

use vamor_circuits::VaristorCircuit;
use vamor_sim::{ExpPulse, InputSignal, MultiChannel, SinePulse};

/// SplitMix64: a tiny, fully deterministic generator (the same seed yields
/// bit-identical streams on every platform).
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 random bits → [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// Which family of excitations a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFamily {
    /// RF receiver: a damped desired signal on input 0 plus an undamped
    /// interferer on input 1 (the Fig. 4 drive).
    TonePair,
    /// Varistor: a double-exponential surge (the Fig. 5 drive).
    Surge,
    /// Transmission line: a damped sine current (the Fig. 3 drive).
    DampedSine,
}

impl InputFamily {
    /// `(parameter, low, high)` of each uniformly drawn parameter.
    fn ranges(self) -> Vec<(&'static str, f64, f64)> {
        match self {
            // Signal 0.3 @ 0.06 Hz (decay 0.05), interferer 0.12 @ 0.11 Hz,
            // each within ±10 %; both tones stay inside
            // `fig4_adaptive_spec`'s 0.02–2.5 rad/s band. The ROM error grows
            // with the interferer frequency, so a wider range would make the
            // per-seed maximum swing more than the benchmark's bound on it.
            InputFamily::TonePair => vec![
                ("signal_amplitude", 0.27, 0.33),
                ("signal_frequency", 0.054, 0.066),
                ("signal_decay", 0.045, 0.055),
                ("interferer_amplitude", 0.108, 0.132),
                ("interferer_frequency", 0.099, 0.121),
            ],
            // Surges up to the paper's 9.8 kV peak; τ_rise 0.5 and τ_fall 6
            // within ±10 %.
            InputFamily::Surge => {
                let peak = VaristorCircuit::surge_amplitude();
                vec![
                    ("amplitude", 0.6 * peak, peak),
                    ("tau_rise", 0.45, 0.55),
                    ("tau_fall", 5.4, 6.6),
                ]
            }
            // Around the Fig. 3 drive: 0.5 @ 0.4 Hz, decay 0.08.
            InputFamily::DampedSine => vec![
                ("amplitude", 0.4, 0.6),
                ("frequency", 0.3, 0.5),
                ("decay", 0.06, 0.10),
            ],
        }
    }

    /// Draws `count` excitations from `seed`.
    pub fn generate(self, seed: u64, count: usize) -> Vec<InputParams> {
        let mut rng = SplitMix64::new(seed);
        let ranges = self.ranges();
        (0..count)
            .map(|_| InputParams {
                family: self,
                values: ranges
                    .iter()
                    .map(|&(_, lo, hi)| rng.uniform(lo, hi))
                    .collect(),
            })
            .collect()
    }
}

/// One generated excitation: its family and parameter values, in the order
/// of the family's ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct InputParams {
    pub family: InputFamily,
    pub values: Vec<f64>,
}

impl InputParams {
    /// The waveform handed to the simulator.
    pub fn signal(&self) -> Box<dyn InputSignal + Send + Sync> {
        let v = &self.values;
        match self.family {
            InputFamily::TonePair => Box::new(MultiChannel::new(vec![
                Box::new(SinePulse::damped(v[0], v[1], v[2])),
                Box::new(SinePulse::new(v[3], v[4])),
            ])),
            InputFamily::Surge => Box::new(ExpPulse::new(v[0], v[1], v[2])),
            InputFamily::DampedSine => Box::new(SinePulse::damped(v[0], v[1], v[2])),
        }
    }

    /// Every parameter as raw bits, for bit-identity checks.
    pub fn bits(&self) -> Vec<u64> {
        self.values.iter().map(|v| v.to_bits()).collect()
    }
}

impl fmt::Display for InputParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.family)?;
        for ((name, _, _), value) in self.family.ranges().iter().zip(&self.values) {
            write!(f, " {name}={value:e}")?;
        }
        Ok(())
    }
}
