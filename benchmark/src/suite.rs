//! `run`, `trace`, `repeat` and `diff`: the whole set of workloads, one
//! fresh process per workload and run, collected into one JSON result.
//!
//! Result schema (`results/BENCH_<pr>.json`):
//!
//! ```text
//! {rev, seed, nproc, threads, dfm_threads, rustc, seconds, runs, note,
//!  workloads: {NAME: {attempted, failed, failed_share,
//!                     METRIC: {unit, median, q1, q3, values: [...]}}},
//!  layers:    {NAME: {METRIC: {unit, value}}}}
//! ```
//!
//! `run` fills `workloads`, `trace` fills `layers`; each keeps the other
//! section of an existing `--out` file.

use crate::names::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{self, WORKLOADS};
use crate::Flags;
use dfm_bench::json::JsonValue;
use dfm_signoff::codec::parse_json;
use std::path::{Path, PathBuf};
use std::process::Command;

const NOTE: &str = "measured on the host recorded in nproc; the >=4-core scaling claim stays open until a run from such a host is checked in";

struct Options {
    seed: u64,
    seconds: u64,
    runs: u64,
    out: PathBuf,
}

fn options(args: &[String], default_out: &str) -> Result<Options, String> {
    let mut flags = Flags::parse(args)?;
    let o = Options {
        seed: flags.get("--seed", 11)?,
        seconds: flags.get("--seconds", 10)?,
        runs: flags.get("--runs", 1)?,
        out: flags.get("--out", workloads::out_dir().join(default_out))?,
    };
    flags.finish()?;
    if o.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    Ok(o)
}

/// One `--workload` run in a fresh process; its stdout is echoed and the
/// last line parsed. A run that fails its output check still yields its
/// result line; one that prints none is an error.
fn spawn_one(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| {
        format!(
            "{workload} (seed {seed}) printed nothing, {}",
            output.status
        )
    })?;
    for line in lines {
        println!("{line}");
    }
    parse_json(last).map_err(|e| {
        format!(
            "{workload} (seed {seed}): last line is not a result ({e}), {}",
            output.status
        )
    })
}

fn host_fields(o: &Options) -> Vec<(&'static str, JsonValue)> {
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    vec![
        (
            "rev",
            JsonValue::str(tool("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", JsonValue::Num(o.seed as f64)),
        ("nproc", JsonValue::Num(workloads::nproc() as f64)),
        ("threads", JsonValue::Num(workloads::pool_threads() as f64)),
        (
            "dfm_threads",
            std::env::var("DFM_THREADS").map_or(JsonValue::Null, JsonValue::str),
        ),
        ("rustc", JsonValue::str(tool("rustc", &["--version"]))),
        ("seconds", JsonValue::Num(o.seconds as f64)),
        ("runs", JsonValue::Num(o.runs as f64)),
        ("note", JsonValue::str(NOTE)),
    ]
}

/// Writes the result file: fresh host fields, `section` replaced, the
/// other section kept from an existing file.
fn write_result(o: &Options, section: &str, value: JsonValue) -> Result<(), String> {
    let old = std::fs::read_to_string(&o.out)
        .ok()
        .and_then(|text| parse_json(&text).ok());
    let mut fields: Vec<(String, JsonValue)> = host_fields(o)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for name in ["workloads", "layers"] {
        let kept = old
            .as_ref()
            .and_then(|old| old.get(name))
            .cloned()
            .unwrap_or(JsonValue::Obj(Vec::new()));
        fields.push((
            name.to_string(),
            if name == section { value.clone() } else { kept },
        ));
    }
    if let Some(dir) = o.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&o.out, JsonValue::Obj(fields).render() + "\n")
        .map_err(|e| format!("write {}: {e}", o.out.display()))?;
    println!("wrote {}", o.out.display());
    Ok(())
}

fn num(v: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_f64()
}

/// The `workloads` section: every end-to-end metric of every workload,
/// over `runs` runs with seeds `seed, seed+1, ...`.
fn run_set(o: &Options) -> Result<(JsonValue, bool), String> {
    let mut all_ok = true;
    let mut section = Vec::new();
    for (workload, ..) in WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in 0..o.runs {
            let result = spawn_one(workload, o.seed + r, o.seconds, 0)?;
            attempted += num(&result, &["attempted"]).ok_or("result line lacks attempted")?;
            failed += num(&result, &["failed"]).ok_or("result line lacks failed")?;
            for (slot, (name, ..)) in values.iter_mut().zip(END_TO_END) {
                slot.push(
                    num(&result, &["metrics", name, "value"])
                        .ok_or_else(|| format!("{workload}: result line lacks {name}"))?,
                );
            }
        }
        all_ok &= failed == 0.0;
        let mut fields = vec![
            ("attempted".to_string(), JsonValue::Num(attempted)),
            ("failed".to_string(), JsonValue::Num(failed)),
            (
                "failed_share".to_string(),
                JsonValue::Num(failed / attempted),
            ),
        ];
        for (values, (name, unit, ..)) in values.iter().zip(END_TO_END) {
            let (q1, q3) = stats::quartiles(values).unwrap_or((values[0], values[0]));
            fields.push((
                name.to_string(),
                JsonValue::obj([
                    ("unit", JsonValue::str(unit)),
                    ("median", JsonValue::Num(stats::median(values))),
                    ("q1", JsonValue::Num(q1)),
                    ("q3", JsonValue::Num(q3)),
                    (
                        "values",
                        JsonValue::Arr(values.iter().map(|&v| JsonValue::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        section.push((workload.to_string(), JsonValue::Obj(fields)));
    }
    Ok((JsonValue::Obj(section), all_ok))
}

fn print_table(section: &JsonValue) {
    println!(
        "\n{:<14} {:<12} {:>12} {:>8}  unit",
        "workload", "metric", "median", "spread"
    );
    for (workload, ..) in WORKLOADS {
        for (name, unit, ..) in END_TO_END {
            let values = values_of(section, workload, name);
            println!(
                "{workload:<14} {name:<12} {:>12.3} {:>7.1}%  {unit}",
                stats::median(&values),
                stats::spread(&values) * 100.0
            );
        }
        let share = num(section, &[workload, "failed_share"]).unwrap_or(f64::NAN);
        println!(
            "{workload:<14} {:<12} {share:>12.3} {:>8}  ratio",
            "failed_share", ""
        );
    }
}

fn values_of(section: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    section
        .get(workload)
        .and_then(|w| w.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(JsonValue::as_arr)
        .map_or(Vec::new(), |a| {
            a.iter().filter_map(JsonValue::as_f64).collect()
        })
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let o = options(args, "run.json")?;
    let (section, ok) = run_set(&o)?;
    print_table(&section);
    write_result(&o, "workloads", section)?;
    Ok(ok)
}

pub fn trace(args: &[String]) -> Result<bool, String> {
    let o = options(args, "trace.json")?;
    let mut ok = true;
    let mut section = Vec::new();
    for (workload, ..) in WORKLOADS {
        let result = spawn_one(workload, o.seed, o.seconds, 1)?;
        ok &= result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        let metrics = result.get("metrics").ok_or("result line lacks metrics")?;
        for (name, ..) in PER_LAYER {
            if metrics.get(name).is_none() {
                return Err(format!("{workload}: traced result lacks {name}"));
            }
        }
        section.push((workload.to_string(), metrics.clone()));
    }
    write_result(&o, "layers", JsonValue::Obj(section))?;
    Ok(ok)
}

/// One row of a comparison.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A side's quartile spread is wider than the bound: the runs cannot
    /// resolve a change of that size.
    Unresolved,
}

/// Judges `new` against `old` for a metric where `better` is "lower" or
/// "higher": worse when the median moved the wrong way by more than
/// `bound` of the old median.
pub fn verdict(old: &[f64], new: &[f64], better: &str, bound: f64) -> Verdict {
    let (a, b) = (stats::median(old), stats::median(new));
    let worse_by = if better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if stats::spread(old) > bound || stats::spread(new) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (end-to-end metric, workload); true when no row is
/// `worse`.
fn compare(old: &JsonValue, new: &JsonValue) -> bool {
    let mut none_worse = true;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "old median", "new median", "new/old", "old iqr", "new iqr"
    );
    for (workload, ..) in WORKLOADS {
        for (name, _, better, bound) in END_TO_END {
            let (a, b) = (
                values_of(old, workload, name),
                values_of(new, workload, name),
            );
            if a.is_empty() || b.is_empty() {
                println!("{workload:<14} {name:<12} missing on one side");
                none_worse = false;
                continue;
            }
            let v = verdict(&a, &b, better, bound);
            none_worse &= v != Verdict::Worse;
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            println!(
                "{workload:<14} {name:<12} {ma:>12.3} {mb:>12.3} {:>16} {:>7.1}% {:>7.1}%  {}",
                format!("{:.3} of {ma:.3}", mb / ma),
                stats::spread(&a) * 100.0,
                stats::spread(&b) * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
        let share = |side: &JsonValue| num(side, &[workload, "failed_share"]).unwrap_or(1.0);
        let (fa, fb) = (share(old), share(new));
        let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        none_worse &= v == Verdict::Ok;
        println!(
            "{workload:<14} {:<12} {fa:>12.3} {fb:>12.3} {:>16} {:>8} {:>8}  {}",
            "failed_share",
            "any increase",
            "",
            "",
            format!("{v:?}").to_lowercase()
        );
    }
    none_worse
}

fn load_workloads(path: &Path) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_json(&text)?
        .get("workloads")
        .cloned()
        .ok_or_else(|| format!("{}: no workloads section", path.display()))
}

pub fn diff(args: &[String]) -> Result<bool, String> {
    let [old, new] = args else {
        return Err("usage: benchmark diff OLD.json NEW.json".to_string());
    };
    Ok(compare(
        &load_workloads(Path::new(old))?,
        &load_workloads(Path::new(new))?,
    ))
}

/// Runs the set twice and compares the second against the first.
pub fn repeat(args: &[String]) -> Result<bool, String> {
    let mut o = options(args, "repeat_a.json")?;
    let (first, ok_a) = run_set(&o)?;
    write_result(&o, "workloads", first.clone())?;
    o.out = o.out.with_file_name("repeat_b.json");
    let (second, ok_b) = run_set(&o)?;
    write_result(&o, "workloads", second.clone())?;
    println!();
    Ok(compare(&first, &second) && ok_a && ok_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = |m: f64| vec![m * 0.99, m, m, m * 1.01, m];
        assert_eq!(
            verdict(&tight(100.0), &tight(105.0), "lower", 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(111.0), "lower", 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(80.0), "lower", 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(89.0), "higher", 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(120.0), "higher", 0.10),
            Verdict::Ok
        );
        let wide = vec![80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            verdict(&wide, &tight(130.0), "lower", 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[100.0], &[105.0], "lower", 0.10),
            Verdict::Ok,
            "single runs have no spread"
        );
    }

    /// Reads the metric names out of a JSON list of `{name, ...}` objects.
    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_in_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("valid JSON");
        let own = |t: (&str, &str, &str)| (t.0.to_string(), t.1.to_string(), t.2.to_string());
        assert_eq!(
            listed(&doc, "end_to_end"),
            END_TO_END.map(|(n, u, b, _)| own((n, u, b)))
        );
        assert_eq!(listed(&doc, "per_layer"), PER_LAYER.map(own));
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(JsonValue::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|(.., b)| b));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, ..)| n.to_string()));
        assert_eq!(
            doc.get("paths").and_then(JsonValue::as_arr).unwrap(),
            &[JsonValue::str("benchmark")]
        );
    }

    #[test]
    fn checked_in_result_carries_every_metric_for_every_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_11.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("results/BENCH_11.json"))
            .expect("valid JSON");
        for key in [
            "rev",
            "seed",
            "nproc",
            "threads",
            "dfm_threads",
            "rustc",
            "workloads",
            "layers",
        ] {
            assert!(doc.get(key).is_some(), "result lacks {key}");
        }
        for (workload, ..) in WORKLOADS {
            for (name, ..) in END_TO_END {
                let values = values_of(doc.get("workloads").unwrap(), workload, name);
                assert!(
                    !values.is_empty() && values.iter().all(|v| *v > 0.0),
                    "{workload}.{name}: {values:?}"
                );
            }
            assert_eq!(
                num(&doc, &["workloads", workload, "failed_share"]),
                Some(0.0),
                "{workload} failed_share"
            );
            for (name, ..) in PER_LAYER {
                assert!(
                    num(&doc, &["layers", workload, name, "value"]).is_some(),
                    "{workload} lacks layer metric {name}"
                );
            }
        }
    }
}
