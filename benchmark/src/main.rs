//! The signoff benchmark.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one process
//! benchmark run    [--seed N] [--seconds S] [--runs R] [--out FILE]
//! benchmark trace  [--seed N] [--seconds S] [--out FILE]
//! benchmark repeat [--seed N] [--seconds S] [--runs R]
//! benchmark diff OLD.json NEW.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it sets one workload
//! up, runs its closed loop for `--seconds`, checks every report and
//! prints each metric by name and unit, then one JSON object as the last
//! line. The other forms spawn it, one fresh process per workload and
//! run, and collect the lines. See `README.md`.

mod inputs;
mod names;
mod replay;
mod spans;
mod stats;
mod suite;
mod workloads;

use dfm_bench::json::JsonValue;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("trace") => suite::trace(&args[1..]),
        Some("repeat") => suite::repeat(&args[1..]),
        Some("diff") => suite::diff(&args[1..]),
        Some(flag) if flag.starts_with("--") => one_run(&args),
        _ => Err("usage: benchmark (run|trace|repeat|diff) ... | --workload NAME --seed N --seconds S --trace 0|1".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, each flag at most once.
pub struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    pub fn parse(args: &'a [String]) -> Result<Flags<'a>, String> {
        let mut out = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    out.push((flag.as_str(), value.as_str()))
                }
                _ => {
                    return Err(format!(
                        "expected --flag value pairs, got '{}'",
                        pair.join(" ")
                    ))
                }
            }
        }
        Ok(Flags(out))
    }

    pub fn get<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.0.iter().position(|(f, _)| *f == flag) {
            None => Ok(default),
            Some(i) => {
                let (_, value) = self.0.remove(i);
                value
                    .parse()
                    .map_err(|_| format!("bad value '{value}' for {flag}"))
            }
        }
    }

    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some((flag, _)) => Err(format!("unknown or repeated flag {flag}")),
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One workload, one process: the contract of `BENCHMARK.json`.
fn one_run(args: &[String]) -> Result<bool, String> {
    let mut flags = Flags::parse(args)?;
    let workload: String = flags.get("--workload", String::new())?;
    let seed: u64 = flags.get("--seed", 11)?;
    let seconds: f64 = flags.get("--seconds", 10.0)?;
    let trace: u8 = flags.get("--trace", 0)?;
    flags.finish()?;
    if !(seconds > 0.0 && seconds <= 60.0) || trace > 1 {
        return Err("--seconds must be in (0, 60] and --trace 0 or 1".to_string());
    }

    // The traced run reports no set-up time, so it sets up once.
    let setups = if trace == 1 { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut env = None;
    for _ in 0..setups {
        drop(env.take());
        let t = Instant::now();
        env = Some(workloads::setup(&workload, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up ran");
    let mut phase = workloads::measure(&mut env, seconds);
    workloads::verify(&env, &mut phase);

    println!(
        "{workload}: seed {seed}, {} jobs ({} attempted, {} failed) in {:.2} s, nproc {}, pool threads {}, DFM_THREADS {}",
        phase.job_ms.len(),
        phase.attempted,
        phase.failed,
        phase.wall_s,
        workloads::nproc(),
        workloads::pool_threads(),
        std::env::var("DFM_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    for line in &phase.diagnostics {
        println!("  FAILED {line}");
    }
    let metrics: Vec<(&str, f64, &str)> = if trace == 0 {
        let value = |name: &str| match name {
            "job_ms_p50" => Ok(stats::median(&phase.job_ms)),
            "tiles_per_s" => Ok(phase.tiles as f64 / phase.wall_s),
            "setup_s" => Ok(stats::median(&setup_s)),
            "peak_rss_mb" => peak_rss_mb(),
            other => Err(format!("no measurement for end-to-end metric {other}")),
        };
        names::END_TO_END
            .iter()
            .map(|&(n, unit, _, _)| Ok((n, value(n)?, unit)))
            .collect::<Result<_, String>>()?
    } else {
        let traced = replay::trace(&env, &phase);
        let path = workloads::out_dir().join(format!("trace_{workload}.json"));
        std::fs::write(&path, spans::to_json(&traced.spans).render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            traced.spans.len(),
            path.display()
        );
        for (layer, ms) in &traced.layer_self_ms {
            println!("  self {layer:<12} {ms:>12.3} ms");
        }
        names::PER_LAYER
            .iter()
            .map(|&(n, unit, _)| {
                let value = traced
                    .metrics
                    .get(n)
                    .ok_or_else(|| format!("no measurement for per-layer metric {n}"))?;
                Ok((n, *value, unit))
            })
            .collect::<Result<_, String>>()?
    };
    drop(env);
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let correct = phase.failed == 0;
    let line = JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(phase.attempted as f64)),
        ("failed", JsonValue::Num(phase.failed as f64)),
        (
            "metrics",
            JsonValue::obj(metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    JsonValue::obj([
                        ("value", JsonValue::Num(value)),
                        ("unit", JsonValue::str(unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(correct)
}
