//! Printing one run, the all-workload run with repeats, and `compare`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::{Command, Stdio};

use mba_obs::json::{json_escape, parse_json, Json};

use crate::host::REFERENCE_US;
use crate::stats::{json_num, median, quartiles, spread};
use crate::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// The lines one run prints: a header, its digest, every metric with
/// its unit, any notes, then the result object as the last line.
pub fn render_run(workload: &str, seed: u64, trace: bool, o: &Outcome) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut s = format!(
        "workload {workload} seed {seed} trace {}\ndigest {}\n",
        u8::from(trace),
        o.digest
    );
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let v = o.metrics.get(name).copied().unwrap_or(0.0);
        s += &format!("metric {name} {v} {unit}\n");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    s += &format!(
        "host yardstick {} us (reference {REFERENCE_US} us)\n",
        o.yardstick_us
    );
    for note in &o.notes {
        s += &format!("note {note}\n");
    }
    s += &format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        o.failed == 0 && o.notes.is_empty(),
        o.attempted,
        o.failed,
        fields.join(", ")
    );
    s
}

/// One run as the all-workload mode records it.
struct Run {
    workload: String,
    trace: bool,
    digest: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Reads a run from the lines it printed.
    fn parse(workload: &str, trace: bool, stdout: &str) -> Result<Run, String> {
        let digest = stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .unwrap_or("none")
            .to_string();
        let last = stdout.lines().last().ok_or("the run printed nothing")?;
        let json = parse_json(last)?;
        let obj = json.as_obj().ok_or("the last line is not an object")?;
        let metrics = obj
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no metrics")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_obj()?.get("value")?.as_num()?)))
            .collect();
        Ok(Run {
            workload: workload.to_string(),
            trace,
            digest,
            correct: obj.get("correct") == Some(&Json::Bool(true)),
            attempted: obj.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            failed: obj.get("failed").and_then(Json::as_u64).unwrap_or(0),
            metrics,
        })
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, &v)| format!("\"{}\": {}", json_escape(k), json_num(v)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"digest\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            u8::from(self.trace),
            self.digest,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn from_json(j: &Json) -> Option<Run> {
        let o = j.as_obj()?;
        Some(Run {
            workload: o.get("workload")?.as_str()?.to_string(),
            trace: o.get("trace")?.as_u64()? == 1,
            digest: o.get("digest")?.as_str()?.to_string(),
            correct: o.get("correct") == Some(&Json::Bool(true)),
            attempted: o.get("attempted")?.as_u64()?,
            failed: o.get("failed")?.as_u64()?,
            metrics: o
                .get("metrics")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_num()?)))
                .collect(),
        })
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the runs were made.
fn meta(seed: u64, seconds: f64, repeat: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = [
        ("seed", seed.to_string()),
        ("seconds", json_num(seconds)),
        ("repeat", repeat.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", format!("\"{}\"", json_escape(&cpu))),
        (
            "rustc",
            format!(
                "\"{}\"",
                json_escape(&command_line("rustc", &["--version"]))
            ),
        ),
        (
            "commit",
            format!("\"{}\"", command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("sizes", format!("\"{}\"", crate::sizes())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs every workload untraced and traced, `repeat` times at `seed`,
/// each run in a child process so process-wide counters and peak
/// memory belong to that run alone. Returns whether every run was
/// correct and each workload's digests agree.
pub fn full_run(
    seed: u64,
    seconds: f64,
    repeat: usize,
    out: Option<&Path>,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for rep in 0..repeat {
        for workload in WORKLOADS {
            for trace in [false, true] {
                eprintln!(
                    "run {}/{repeat}: {workload} trace {}",
                    rep + 1,
                    u8::from(trace)
                );
                let child = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args([
                        "--seconds",
                        &seconds.to_string(),
                        "--trace",
                        if trace { "1" } else { "0" },
                    ])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                runs.push(
                    Run::parse(workload, trace, &stdout).map_err(|e| format!("{workload}: {e}"))?,
                );
            }
        }
    }
    let mut ok = runs.iter().all(|r| r.correct);
    println!("\n# {repeat} run(s) per workload at seed {seed}: median [q1, q3]");
    for workload in WORKLOADS {
        let mine: Vec<&Run> = runs.iter().filter(|r| r.workload == workload).collect();
        let digests: BTreeSet<&str> = mine.iter().map(|r| r.digest.as_str()).collect();
        if digests.len() > 1 {
            ok = false;
            println!("{workload}: OUTPUT DIGESTS DIFFER between runs: {digests:?}");
        }
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            for &(name, unit) in names {
                let values: Vec<f64> = mine
                    .iter()
                    .filter(|r| r.trace == trace)
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect();
                let (q1, q3) = quartiles(&values);
                println!("{workload} {name} {} [{q1}, {q3}] {unit}", median(&values));
            }
        }
    }
    if let Some(path) = out {
        let body: Vec<String> = runs
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        let doc = format!(
            "{{\n  \"meta\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
            meta(seed, seconds, repeat),
            body.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(ok)
}

fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(runs)) = doc.as_obj().and_then(|o| o.get("runs")) else {
        return Err(format!("{path}: no `runs` array"));
    };
    runs.iter()
        .map(|r| Run::from_json(r).ok_or_else(|| format!("{path}: malformed run")))
        .collect()
}

/// A metric's bound and direction from `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(metrics)) = doc.as_obj().and_then(|o| o.get("end_to_end")) else {
        return Err(format!("{path}: no `end_to_end` array"));
    };
    metrics
        .iter()
        .map(|m| {
            let o = m.as_obj()?;
            Some(Bound {
                name: o.get("name")?.as_str()?.to_string(),
                unit: o.get("unit")?.as_str()?.to_string(),
                lower_is_better: o.get("better")?.as_str()? == "lower",
                bound: o.get("bound")?.as_num()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

/// The verdict on one metric of one workload.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (b, n) = (median(base), median(new));
    let worse = sign * (n - b) / b.abs();
    let better_everywhere = new
        .iter()
        .all(|&x| base.iter().all(|&y| sign * (x - y) < 0.0));
    if spread(base).max(spread(new)) > bound {
        if better_everywhere {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "REGRESSED"
    } else if -worse > bound {
        "better"
    } else {
        "same"
    }
}

/// `compare BASE NEW [--bounds FILE]`: every end-to-end metric of every
/// workload, base against new, under the bounds in `BENCHMARK.json`.
/// Returns false when a metric regressed or an output digest changed.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let (files, bounds_path) = match args {
        [base, new] => ([base, new], "BENCHMARK.json"),
        [base, new, flag, path] if flag == "--bounds" => ([base, new], path.as_str()),
        _ => return Err("compare takes BASE.json NEW.json [--bounds BENCHMARK.json]".into()),
    };
    let bounds = load_bounds(bounds_path)?;
    let base = load_runs(files[0])?;
    let new = load_runs(files[1])?;
    let mut ok = true;
    println!("workload metric base new change bound spread verdict");
    for workload in WORKLOADS {
        let pick = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload && !r.trace)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        let digests = |runs: &[Run]| -> BTreeSet<String> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .map(|r| r.digest.clone())
                .collect()
        };
        if pick(&base, "setup_s").is_empty() || pick(&new, "setup_s").is_empty() {
            println!("{workload}: missing from one side");
            continue;
        }
        if digests(&base) != digests(&new) {
            ok = false;
            println!(
                "{workload}: OUTPUT DIGEST CHANGED {:?} -> {:?}",
                digests(&base),
                digests(&new)
            );
        }
        for b in &bounds {
            let (bv, nv) = (pick(&base, &b.name), pick(&new, &b.name));
            let v = verdict(&bv, &nv, b.lower_is_better, b.bound);
            ok &= v != "REGRESSED";
            let (bm, nm) = (median(&bv), median(&nv));
            println!(
                "{workload} {} {bm:.6} {nm:.6} {:+.2}% {:.1}% {:.1}% {v} ({})",
                b.name,
                100.0 * (nm - bm) / bm.abs(),
                100.0 * b.bound,
                100.0 * spread(&bv).max(spread(&nv)),
                b.unit
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(&base, &base, true, 0.05), "same");
        let slower = base.map(|x| x * 1.2);
        assert_eq!(verdict(&base, &slower, true, 0.05), "REGRESSED");
        assert_eq!(verdict(&base, &slower, false, 0.05), "better");
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &noisy, true, 0.05), "unresolved");
        let much_faster = [10.0, 12.0, 11.0, 9.0, 13.0];
        assert_eq!(verdict(&base, &much_faster, true, 0.05), "better");
    }

    #[test]
    fn run_lines_round_trip() {
        let mut metrics = crate::Metrics::new();
        metrics.insert("latency_p99_us", f64::INFINITY);
        metrics.insert("setup_s", 0.0125);
        let o = Outcome {
            attempted: 10,
            failed: 1,
            digest: "abc:10".into(),
            notes: vec![],
            yardstick_us: 400.0,
            metrics,
        };
        let text = render_run("paper-cold", 3, false, &o);
        let run = Run::parse("paper-cold", false, &text).unwrap();
        assert!(!run.correct);
        assert_eq!((run.attempted, run.failed), (10, 1));
        assert_eq!(run.digest, "abc:10");
        assert_eq!(run.metrics["setup_s"], 0.0125);
        assert_eq!(run.metrics["latency_p99_us"], f64::MAX);
        assert_eq!(run.metrics.len(), END_TO_END.len());
        let back = Run::from_json(&parse_json(&run.to_json()).unwrap()).unwrap();
        assert_eq!(back.metrics, run.metrics);
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.as_obj().unwrap().get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|i| {
                    let o = i.as_obj().unwrap();
                    let s = |k: &str| o.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
