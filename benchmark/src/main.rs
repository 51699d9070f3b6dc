//! The system benchmark: four workloads, end-to-end metrics measured
//! with tracing off, and a traced run that says where the time went.
//! See README.md beside this package.
//!
//! ```text
//! mvcc-benchmark --workload W --seed S --seconds T --trace 0|1   one run, one JSON line last
//! mvcc-benchmark [--seed S] [--seconds T] [--workload W] [--repeat N] [--smoke]
//!                                                                 full sets, each run a child process
//! mvcc-benchmark --manifest                                       print BENCHMARK.json
//! ```

mod adapters;
mod gen;
mod json;
mod report;
mod stats;
mod storage;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{Metric, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::net::Mode;
use workloads::{Cfg, FamilyOut, Figures};

#[derive(Clone, Copy, PartialEq)]
enum Family {
    Mem,
    Durable,
    Net(Mode),
}

impl Family {
    fn of(workload: &str) -> Option<Family> {
        Some(match workload {
            "mem-read-heavy" => Family::Mem,
            "durable-commit" => Family::Durable,
            "net-paced" => Family::Net(Mode::Paced),
            "net-saturated" => Family::Net(Mode::Saturated),
            _ => return None,
        })
    }

    fn run(self, cfg: &Cfg) -> FamilyOut {
        match self {
            Family::Mem => workloads::mem::run(cfg),
            Family::Durable => workloads::durable::run(cfg),
            Family::Net(mode) => workloads::net::run(cfg, mode),
        }
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

fn warm_secs(seconds: f64) -> f64 {
    (seconds / 4.0).min(3.0)
}

fn print_figures(label: &str, f: &Figures) {
    println!(
        "# {label}: {:.0} {:.0} | {:.3} {:.3} {:.3} | {:.3} {:.3} {:.3} | {:.3}",
        f.ops_per_s,
        f.writes_per_s,
        f.op_p50_us,
        f.op_p90_us,
        f.op_p99_us,
        f.write_p50_us,
        f.write_p90_us,
        f.write_p99_us,
        f.cpu_us_per_op
    );
}

/// End-to-end metrics: tracing off, the whole window measured.
fn untraced_run(family: Family, seed: u64, seconds: f64, data_dir: &Path) -> RunResult {
    let out = family.run(&Cfg {
        seed,
        setups: SETUPS,
        secs: [warm_secs(seconds), 0.0, seconds],
        traced: false,
        data_dir: data_dir.to_path_buf(),
    });
    // Everything the reported medians passed over, for whoever doubts
    // them: each slice, the window as one stretch, each set-up.
    println!("# columns: ops/s writes/s | op p50 p90 p99 us | write p50 p90 p99 us | cpu us/op");
    for (i, s) in out.slices.iter().enumerate() {
        print_figures(&format!("slice {i}"), s);
    }
    print_figures("median of slices (reported)", &out.median);
    print_figures("whole window", &out.whole);
    for (what, lat) in [("op", &out.window.op_lat), ("write", &out.window.write_lat)] {
        let top = stats::top_level(lat.len()).map_or("n/a".into(), |q| {
            let v = stats::percentile(lat, q) as f64 / 1e3;
            format!("{} = {v:.3} us", stats::level_name(q))
        });
        println!(
            "# {what} latency over the whole window: {} samples, highest supported tail {top}",
            lat.len()
        );
    }
    println!("# set-ups (s): {:?}", out.setups_s);
    println!("# peak RSS: {:.1} MB", out.peak_rss_mb);
    let values = [
        out.setup_s,
        out.median.ops_per_s,
        out.median.writes_per_s,
        out.median.op_p50_us,
        out.median.op_p90_us,
        out.median.write_p50_us,
        out.median.write_p90_us,
        out.median.cpu_us_per_op,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, Some(v)))
        .collect();
    finish(&out, metrics)
}

/// Per-layer metrics: the workload with spans on, then the floors of the
/// layers it runs on. What the workload does not exercise stays `None`.
fn traced_run(
    workload: &str,
    family: Family,
    seed: u64,
    seconds: f64,
    data_dir: &Path,
    out_dir: &Path,
) -> RunResult {
    let out = family.run(&Cfg {
        seed,
        setups: 1,
        secs: [warm_secs(seconds), seconds / 4.0, seconds / 2.0],
        traced: true,
        data_dir: data_dir.to_path_buf(),
    });
    let mut layers = out.layers.clone();

    // Where a sampled operation's time went, from the workload's spans.
    let by_name = trace::aggregate(&out.spans);
    let shares = trace::layer_shares(&by_name);
    for (layer, name) in [
        ("ftree", "share.ftree"),
        ("core", "share.core"),
        ("durable", "share.durable"),
        ("storage", "share.storage"),
        ("net", "share.net"),
        ("op", "trace.unattributed_share"),
    ] {
        layers.insert(name, shares.get(layer).copied().unwrap_or(0.0));
    }
    // vm and plm cannot be seen from outside a transaction: estimate
    // their shares from the floors and the counted calls.
    let op_ns = trace::op_total_ns(&by_name).max(1) as f64;
    let n_ops = by_name
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, s)| s.durs.len() as f64)
        .sum::<f64>();
    let n_writes = n_ops * out.window.writes as f64 / out.window.ops.max(1) as f64;
    let floor = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let vm_ns =
        n_ops * (floor("vm.acquire_ns") + floor("vm.release_ns")) + n_writes * floor("vm.set_ns");
    let plm_ns = n_writes * out.nodes_alloc_per_write * floor("plm.alloc_collect_pair_ns");
    layers.insert("share.vm_est", vm_ns / op_ns);
    layers.insert("share.plm_est", plm_ns / op_ns);
    layers.insert("trace.overhead_share", out.overhead_share);
    layers.insert(
        "failed_share",
        out.window.failed as f64 / out.window.ops.max(1) as f64,
    );
    layers.insert("peak_rss_mb", out.peak_rss_mb);
    layers.insert("op_p99_us", out.whole.op_p99_us);
    layers.insert("write_p99_us", out.whole.write_p99_us);

    let trace_path = out_dir.join(format!("trace-{workload}.json"));
    match trace::write_chrome(&trace_path, &out.spans) {
        Ok(()) => println!("# trace: {}", trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied()))
        .collect();
    finish(&out, metrics)
}

fn finish(out: &FamilyOut, metrics: Vec<(&'static str, Option<f64>)>) -> RunResult {
    for e in &out.check_errors {
        println!("# CHECK FAILED: {e}");
    }
    let failed = out.window.failed + out.check_errors.len() as u64;
    RunResult {
        correct: failed == 0,
        attempted: out.window.ops,
        failed,
        metrics,
    }
}

fn print_table(registry: &[Metric], result: &RunResult) {
    for (name, value) in &result.metrics {
        let unit = registry
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        match value {
            Some(value) => println!("{name:<32} {value:>16.4} {unit}"),
            None => println!("{name:<32} {:>16}", "n/a"),
        }
    }
}

/// One run in this process: the contract's command.
fn single(workload: &str, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> ExitCode {
    let Some(family) = Family::of(workload) else {
        eprintln!("unknown workload `{workload}`");
        return ExitCode::from(2);
    };
    let data_dir = out_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("cannot create {}: {e}", data_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# {workload} seed={seed} seconds={seconds} trace={}",
        traced as u8
    );
    println!("# {}", sys::host_line(&data_dir));
    let (registry, result) = if traced {
        (
            &PER_LAYER[..],
            traced_run(workload, family, seed, seconds, &data_dir, out_dir),
        )
    } else {
        (
            &END_TO_END[..],
            untraced_run(family, seed, seconds, &data_dir),
        )
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    print_table(registry, &result);
    println!("{}", result.to_json(registry));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one child (a fresh process, so CPU and peak RSS are its own),
/// pass its report through, and read back its result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<(bool, json::Json)> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n')?;
    println!("{report}");
    let parsed = json::parse(last).ok()?;
    Some((output.status.success(), parsed))
}

/// Full sets: every selected workload untraced then traced, `repeat`
/// times, with the run-to-run spread of every end-to-end metric set
/// against its bound when there is more than one set.
fn sets(only: Option<&str>, seed: u64, seconds: f64, repeat: usize, out_dir: &Path) -> ExitCode {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| only.is_none_or(|o| o == *n))
        .collect();
    if names.is_empty() {
        eprintln!("unknown workload `{}`", only.unwrap_or(""));
        return ExitCode::from(2);
    }
    let mut all_ok = true;
    // values[workload][metric] over the sets.
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    for set in 0..repeat {
        for &w in &names {
            for traced in [false, true] {
                println!(
                    "\n== set {} · {w} · {} ==",
                    set + 1,
                    if traced { "traced" } else { "untraced" }
                );
                let Some((ok, result)) = child(w, seed + set as u64, seconds, traced) else {
                    eprintln!("{w}: the run printed no result");
                    all_ok = false;
                    continue;
                };
                all_ok &= ok && result.get("correct") == Some(&json::Json::Bool(true));
                if traced {
                    continue;
                }
                for m in &END_TO_END {
                    let v = result.get("metrics").and_then(|ms| ms.get(m.name));
                    if let Some(v) = v.and_then(|v| v.get("value")).and_then(json::Json::as_f64) {
                        values
                            .entry(w)
                            .or_default()
                            .entry(m.name)
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    if repeat >= 2 {
        let summary = spread_report(&values, seed, seconds, repeat, out_dir);
        let path = out_dir.join("repeat.json");
        match std::fs::write(&path, summary) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!(
        "\n{}",
        if all_ok {
            "all checks passed"
        } else {
            "A CHECK FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print median, quartiles and relative spread per metric × workload,
/// flagging `unresolved` where the spread exceeds the bound; returns the
/// same as a JSON document.
fn spread_report(
    values: &BTreeMap<&str, BTreeMap<&str, Vec<f64>>>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    out_dir: &Path,
) -> String {
    println!(
        "\n== repeatability over {repeat} sets (seeds {seed}..{}) ==",
        seed + repeat as u64 - 1
    );
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let Some(v) = values.get(w.name).and_then(|ms| ms.get(m.name)) else {
                continue;
            };
            if v.len() < 2 {
                continue;
            }
            let [q1, _, q3] = stats::quartiles(v);
            let (median, spread) = (stats::median_f64(v), stats::relative_spread(v));
            let status = if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within-bound"
            } else {
                "unresolved"
            };
            println!(
                "{:<16} {:<16} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>7.1}% {:>5.0}%  {status}",
                w.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
            rows.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"median\": {median}, \"q1\": {q1}, \
                 \"q3\": {q3}, \"spread\": {spread:.4}, \"bound\": {}, \"status\": {}}}",
                json::quote(w.name),
                json::quote(m.name),
                json::quote(m.unit),
                m.bound,
                json::quote(status)
            ));
        }
    }
    format!(
        "{{\n  \"note\": \"2-core shared-sandbox figures; not a scaling or device result\",\n  \
         \"host\": {},\n  \"seed\": {seed},\n  \"sets\": {repeat},\n  \"seconds\": {seconds},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json::quote(&sys::host_line(out_dir)),
        rows.join(",\n")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: None,
        repeat: 1,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // One-second windows, every check on: for CI.
            "--smoke" => args.seconds = 1.0,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Pin the product's bulk-operation pool (bulk build, multi-insert) to
    // one worker, before any thread exists. Its work-stealing workers
    // would be threads beyond the load budget, and on two shared cores a
    // parallel preload takes anything from 0.06 to 0.28 s where the
    // sequential one repeats within a few per cent — and `setup_s` has
    // to repeat.
    std::env::set_var("MVCC_POOL_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: see benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let out_dir =
        PathBuf::from(std::env::var("BENCH_OUT").unwrap_or_else(|_| "benchmark/out".into()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    match (&args.workload, args.trace) {
        (Some(w), Some(traced)) => single(w, args.seed, args.seconds, traced, &out_dir),
        _ => sets(
            args.workload.as_deref(),
            args.seed,
            args.seconds,
            args.repeat,
            &out_dir,
        ),
    }
}
