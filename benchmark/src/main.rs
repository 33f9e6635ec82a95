//! `relc-benchmark`: see `benchmark/README.md`.
//!
//! ```text
//! relc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of stdout is the result as one JSON object
//! relc-benchmark [--seed <n>] [--seconds <s>] [--quick]
//!     the whole suite: every workload, untraced then traced, each in a
//!     process of its own; ends with a JSON summary
//! relc-benchmark --selfcheck [...]
//!     the untraced suite twice on the same seed; exits non-zero if any
//!     end-to-end metric differs by more than its bound
//! relc-benchmark --fsync-probe
//!     prints the device's append + fsync floor in microseconds
//! ```

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use relc_benchmark::probes;
use relc_benchmark::report::{json_number, Better, END_TO_END};
use relc_benchmark::runner::CLIENTS;
use relc_benchmark::session::{run_workload, Config};
use relc_benchmark::workloads::NAMES;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    selfcheck: bool,
    fsync_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        selfcheck: false,
        fsync_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("no workload {name}; there are {NAMES:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                });
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--fsync-probe" => args.fsync_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("relc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 1.0 } else { 20.0 }),
        quick: args.quick,
    };
    if args.fsync_probe {
        println!("wal.fsync_probe_us {}", probes::fsync_probe_us());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => one_run(name, cfg, args.trace.unwrap_or(false)),
        None if args.selfcheck => selfcheck(cfg),
        None => suite(cfg, args.trace),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One workload in this process.
fn one_run(name: &str, cfg: Config, traced: bool) -> bool {
    println!(
        "run {name} trace={} seed={} seconds={} quick={} clients={CLIENTS} nproc={} \
         clock_read_ns={:.1}",
        traced as u8,
        cfg.seed,
        cfg.seconds,
        cfg.quick,
        nproc(),
        probes::clock_read_ns()
    );
    let outcome = run_workload(name, cfg, traced).expect("workload name was checked");
    for line in outcome.lines() {
        println!("{line}");
    }
    for v in &outcome.violations {
        println!("violation {name} {v}");
    }
    println!(
        "result {name} trace={} correct={} attempted={} failed={}",
        traced as u8,
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    println!("{}", outcome.json());
    outcome.correct()
}

/// A metric as read back from a child's `metric` line.
struct Reported {
    value: f64,
    unit: String,
}

#[derive(Default)]
struct ChildRun {
    metrics: Vec<(String, Reported)>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a child process, so that process-wide figures
/// (peak RSS, the library's global version and reclamation counters) are
/// this workload's alone. Forwards the child's lines.
fn child_run(name: &str, cfg: Config, traced: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().expect("start a run of this executable");
    let mut run = ChildRun::default();
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read the run's output");
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        match words.as_slice() {
            ["metric", _, metric, value, unit, ..] => {
                let reported = Reported {
                    value: value.parse().unwrap_or(f64::NAN),
                    unit: unit.to_string(),
                };
                run.metrics.push((metric.to_string(), reported));
            }
            ["result", _, _, correct, attempted, failed] => {
                let field = |w: &str| w.split_once('=').map(|(_, v)| v.to_owned());
                run.correct = field(correct).as_deref() == Some("true");
                run.attempted = field(attempted).and_then(|v| v.parse().ok()).unwrap_or(0);
                run.failed = field(failed).and_then(|v| v.parse().ok()).unwrap_or(0);
            }
            _ => {}
        }
        // The child's JSON line is for the driver; the suite prints its own.
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let status = child.wait().expect("wait for the run");
    run.correct &= status.success();
    run
}

/// Every workload, untraced and traced (or only the one `--trace` names),
/// then the summary.
fn suite(cfg: Config, only: Option<bool>) -> bool {
    println!(
        "suite seed={} seconds={} quick={} clients={CLIENTS} nproc={}",
        cfg.seed,
        cfg.seconds,
        cfg.quick,
        nproc()
    );
    let mut all_correct = true;
    let mut json = format!(
        "{{\"benchmark\": \"relc-benchmark\", \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
         \"clients\": {CLIENTS}, \"nproc\": {}, \"workloads\": {{",
        cfg.seed,
        json_number(cfg.seconds),
        cfg.quick,
        nproc()
    );
    for (i, name) in NAMES.iter().enumerate() {
        json.push_str(&format!(
            "{}\n  \"{name}\": {{",
            if i > 0 { "," } else { "" }
        ));
        let mut sections = Vec::new();
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            if only.is_some_and(|t| t != traced) {
                continue;
            }
            let run = child_run(name, cfg, traced);
            all_correct &= run.correct;
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(metric, r)| {
                    format!(
                        "\"{metric}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        json_number(r.value),
                        r.unit
                    )
                })
                .collect();
            sections.push(format!(
                "\"{section}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"metrics\": {{{}}}}}",
                run.correct,
                run.attempted,
                run.failed,
                metrics.join(", ")
            ));
        }
        json.push_str(&sections.join(", "));
        json.push('}');
    }
    // This benchmark measures; it claims no gain.
    json.push_str("\n}, \"claim\": null}");
    println!("{json}");
    all_correct
}

/// The untraced suite twice on the same code and seed: do two sets of
/// runs agree within the benchmark's own bounds?
fn selfcheck(cfg: Config) -> bool {
    let mut passes: Vec<BTreeMap<(String, String), Reported>> = Vec::new();
    let mut all_correct = true;
    for pass in 1..=2 {
        println!("selfcheck pass {pass}");
        let mut seen = BTreeMap::new();
        for name in NAMES {
            let run = child_run(name, cfg, false);
            all_correct &= run.correct;
            for (metric, r) in run.metrics {
                seen.insert((name.to_string(), metric), r);
            }
        }
        passes.push(seen);
    }
    println!("selfcheck workload metric first second rel_diff bound verdict");
    let mut agree = true;
    for name in NAMES {
        for m in END_TO_END {
            let key = (name.to_string(), m.name.to_string());
            let (Some(a), Some(b)) = (passes[0].get(&key), passes[1].get(&key)) else {
                println!("selfcheck {name} {} missing", m.name);
                agree = false;
                continue;
            };
            // Positive when the second pass is the worse one.
            let worse = match m.better {
                Better::Lower => (b.value - a.value) / a.value,
                Better::Higher => (a.value - b.value) / a.value,
            };
            let same = worse.abs() <= m.bound;
            agree &= same;
            println!(
                "selfcheck {name} {} {} {} {worse:+.4} {} {}",
                m.name,
                a.value,
                b.value,
                m.bound,
                if same { "SAME" } else { "DIFFERS" }
            );
        }
    }
    agree && all_correct
}
