//! `vamor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, last on standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Human-readable lines (inputs, sample counts, tail
//! percentiles, failures) come before it.

use std::process::ExitCode;
use std::time::Duration;

use vamor_benchmark::calib;
use vamor_benchmark::layers::{self, PER_LAYER};
use vamor_benchmark::report::{peak_rss_mb, result_line, END_TO_END};
use vamor_benchmark::run::{end_to_end, Run};
use vamor_benchmark::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vamor-benchmark --workload <fig4-receiver|fig5-surge-sweep|tline-2k> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} available_parallelism {threads}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, input) in args.workload.inputs(args.seed).iter().enumerate() {
        println!("# input {k}: {input}");
    }

    let (run, metrics) = if args.trace {
        let mut run = Run::new(args.workload, args.seed);
        let values = layers::traced(&mut run);
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied()))
            .collect();
        (run, metrics)
    } else {
        let run = end_to_end(args.workload, args.seed, Duration::from_secs(args.seconds));
        let t = &run.timings;
        for (name, samples) in [
            ("setup_s", &t.setup),
            ("reduce_s", &t.reduce),
            ("rom_sim_s", &t.rom_sim),
            ("full_sim_s", &t.full_sim),
            ("total_s", &t.total),
        ] {
            if !samples.is_empty() {
                println!("{name}: {}", samples.describe("s"));
            }
        }
        println!(
            "calibration unit: {}; reference {:e} s; timed wall {:.3} s = {:.3} reference s",
            run.clock.probes.describe("s"),
            calib::REFERENCE_UNIT_S,
            t.raw_s,
            t.reference_s
        );
        let value = |name: &str| -> Option<f64> {
            Some(match name {
                "setup_s" => t.setup.median(),
                "reduce_s" => t.reduce.median(),
                "rom_sim_s" => t.rom_sim.median(),
                "full_sim_s" => t.full_sim.median(),
                "rom_speedup" => t.full_sim.median() / t.rom_sim.median(),
                "max_rel_error" => run.max_rel_error,
                "rom_order" => run.rom.as_ref()?.order() as f64,
                "total_s" => t.total.median(),
                "peak_rss_mb" => peak_rss_mb()?,
                _ => return None,
            })
        };
        let metrics: Vec<_> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, value(name)))
            .collect();
        (run, metrics)
    };

    for (name, unit, value) in &metrics {
        match value {
            Some(v) => println!("{name}: {v:e} {unit}"),
            None => println!("{name}: not measured"),
        }
    }
    let tally = &run.tally;
    println!(
        "failed_frac: {:e} ratio ({} of {} operations failed)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for failure in &tally.failures {
        println!("# FAILED {failure}");
    }
    let correct = tally.failed == 0
        && metrics
            .iter()
            .all(|(_, _, v)| v.is_some_and(f64::is_finite));
    println!(
        "{}",
        result_line(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
