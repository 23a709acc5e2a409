//! `symbi-ledger` — the repo's one benchmark. See `README.md` beside this
//! crate for what each workload and metric means, and `BENCHMARK.json` at
//! the repo root for the contract the regression gate reads.
//!
//! Every workload runs in a child process of its own (a re-exec of this
//! binary), so peak RSS and warm state never bleed from one into the next.

mod batch;
mod counters;
mod deploy;
mod hepnos;
mod json;
mod kv;
mod metrics;
mod probes;
mod rpc;
mod run;
mod spans;
mod stats;

use metrics::{Def, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{unix_ns, Ctx, Report};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "\
symbi-ledger — five workloads, end-to-end metrics, a per-layer probe ladder

Defaults: --seed 42, --seconds {seconds} (the measured window; run_seconds in BENCHMARK.json).

USAGE:
  symbi-ledger run   [--workload W] [--seed N] [--seconds S]   end-to-end metrics, tracing off
  symbi-ledger trace [--workload W] [--seed N] [--seconds S]   per-layer metrics + trace files
  symbi-ledger smoke                                           every workload, 2-s windows
  symbi-ledger agree [--sets 2] [--seed N] [--seconds S]       do sets of 3 runs agree?
  symbi-ledger bench --workload W --seed N --seconds S --trace 0|1
                                                               one result object (regression gate)
WORKLOADS: kv_write_open kv_read_open kv_write_sat rpc_pipelined hepnos_traced
";

fn usage() -> String {
    USAGE.replace("{seconds}", &RUN_SECONDS.to_string())
}

/// Set-up rehearsals behind `setup_s`: the reported value is the median of
/// this many set-ups, each in a process of its own.
const SETUP_RUNS: usize = 3;
/// Environment variable carrying the parent's spawn time to a child.
const SPAWN_ENV: &str = "SYMBI_LEDGER_SPAWN_UNIX_NS";
/// Workloads that run pinned to one CPU: all but `kv_write_sat`, which
/// waits on the disk, not on a CPU.
const ONE_CPU: [&str; 4] = [
    "kv_write_open",
    "kv_read_open",
    "rpc_pipelined",
    "hepnos_traced",
];

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 2,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.5..=600.0).contains(s))
                    .ok_or("bad --seconds (0.5 to 600)")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--sets" => {
                out.sets = value()?
                    .parse()
                    .ok()
                    .filter(|n| (2..=16).contains(n))
                    .ok_or("bad --sets (2 to 16)")?;
            }
            "--setup-only" => out.setup_only = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(out)
}

/// `<target dir>/ledger`: everything a run writes lives under the build
/// directory the binary itself came from.
fn ledger_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .and_then(|profile| profile.parent())
        .expect("executable sits in <target>/<profile>/")
        .join("ledger")
}

// ---------------------------------------------------------------------
// child: one workload, in this process
// ---------------------------------------------------------------------

fn child(args: &Args) -> ExitCode {
    let epoch = Instant::now();
    let spawn_unix_ns = std::env::var(SPAWN_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(unix_ns);
    let Some(workload) = args.workload.clone() else {
        eprintln!("child needs --workload");
        return ExitCode::from(2);
    };
    let dir = ledger_dir().join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        setup_only: args.setup_only,
        spawn_unix_ns,
        dir: dir.clone(),
        spans: spans::SpanLog::new(epoch),
    };
    let mut report = Report::default();
    // The CPU-bound workloads run on one CPU (see `pin_to_one_cpu`).
    if ONE_CPU.contains(&workload.as_str()) && !run::pin_to_one_cpu() {
        eprintln!("symbi-ledger: could not pin to one CPU; latencies will be noisier");
    }
    match workload.as_str() {
        "kv_write_open" => kv::run_open(&ctx, &kv::KV_WRITE_OPEN, &mut report),
        "kv_read_open" => kv::run_open(&ctx, &kv::KV_READ_OPEN, &mut report),
        "kv_write_sat" => kv::run_sat(&ctx, &mut report),
        "rpc_pipelined" => rpc::run(&ctx, &mut report),
        "hepnos_traced" => hepnos::run(&ctx, &mut report),
        other => unreachable!("parse() admitted workload {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    if ctx.traced && !ctx.setup_only {
        report.set("ledger.spans_recorded", ctx.spans.len() as f64);
        let path = ledger_dir().join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, ctx.spans.to_chrome_json()) {
            report
                .errors
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    for (name, value, unit) in report.rows(&END_TO_END).chain(report.rows(&PER_LAYER)) {
        println!("M {name} {value} {unit}");
    }
    for e in &report.errors {
        println!("E {e}");
    }
    println!("H {:016x}", report.sequence_hash);
    let ok = args.setup_only || report.correct();
    println!("R {} {} {}", ok as u8, report.attempted, report.failed);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

// ---------------------------------------------------------------------
// parent side
// ---------------------------------------------------------------------

/// What a child printed.
#[derive(Default, Clone)]
struct Outcome {
    values: Vec<(String, f64)>,
    errors: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    sequence_hash: String,
}

impl Outcome {
    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn spawn_child(workload: &str, args: &Args, trace: bool, setup_only: bool) -> Outcome {
    let mut cmd = Command::new(std::env::current_exe().expect("path of this executable"));
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if setup_only {
        cmd.arg("--setup-only");
    }
    let output = cmd
        .env(SPAWN_ENV, unix_ns().to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn workload process");
    let mut out = Outcome::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut f = line.splitn(2, ' ');
        match (f.next(), f.next()) {
            (Some("M"), Some(rest)) => {
                let mut p = rest.split(' ');
                if let (Some(name), Some(Ok(v))) = (p.next(), p.next().map(str::parse::<f64>)) {
                    out.values.push((name.to_string(), v));
                }
            }
            (Some("E"), Some(rest)) => out.errors.push(rest.to_string()),
            (Some("H"), Some(rest)) => out.sequence_hash = rest.to_string(),
            (Some("R"), Some(rest)) => {
                let p: Vec<u64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
                if let [ok, attempted, failed] = p[..] {
                    out.correct = ok == 1 && output.status.success();
                    out.attempted = attempted;
                    out.failed = failed;
                }
            }
            _ => {}
        }
    }
    if !output.status.success() && out.errors.is_empty() {
        out.errors
            .push(format!("workload process ended with {}", output.status));
    }
    out
}

/// The plain measurement of one workload: `SETUP_RUNS - 1` set-up
/// rehearsals, then the full run; `setup_s` becomes the median set-up.
fn measure_plain(workload: &str, args: &Args) -> Outcome {
    let mut setups: Vec<f64> = (1..SETUP_RUNS)
        .map(|_| spawn_child(workload, args, false, true).get("setup_s"))
        .collect();
    let mut out = spawn_child(workload, args, false, false);
    setups.push(out.get("setup_s"));
    let setup = stats::median(&setups);
    for (name, v) in &mut out.values {
        if name == "setup_s" {
            *v = setup;
        }
    }
    out
}

fn result_json(out: &Outcome, defs: &[Def]) -> String {
    json::object([
        ("correct", out.correct.to_string()),
        ("attempted", out.attempted.max(1).to_string()),
        ("failed", out.failed.to_string()),
        (
            "metrics",
            json::object(defs.iter().map(|d| {
                (
                    d.name,
                    json::object([
                        ("value", json::number(out.get(d.name))),
                        ("unit", json::string(d.unit)),
                    ]),
                )
            })),
        ),
    ])
}

fn print_rows(workload: &str, out: &Outcome, defs: &[Def]) {
    for d in defs {
        println!("{workload} {} {} {}", d.name, out.get(d.name), d.unit);
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> String {
    json::object([
        (
            "cpus",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("os", json::string(std::env::consts::OS)),
    ])
}

/// `run` / `trace` / `smoke`: rows per (workload, metric), then one JSON
/// document with everything.
fn suite(args: &Args, traced: bool, defs: &[&[Def]]) -> ExitCode {
    let mut docs = Vec::new();
    let mut all_ok = true;
    for w in selected(args) {
        let out = if traced {
            spawn_child(w, args, true, false)
        } else {
            measure_plain(w, args)
        };
        for d in defs {
            print_rows(w, &out, d);
        }
        for e in &out.errors {
            eprintln!("{w}: check failed: {e}");
        }
        all_ok &= out.correct;
        let flat: Vec<&Def> = defs.iter().flat_map(|d| d.iter()).collect();
        docs.push((
            w,
            json::object(
                flat.iter()
                    .map(|d| (d.name, json::number(out.get(d.name))))
                    .chain([
                        ("correct", out.correct.to_string()),
                        ("attempted", out.attempted.to_string()),
                        ("failed", out.failed.to_string()),
                        ("op_sequence_hash", json::string(&out.sequence_hash)),
                    ]),
            ),
        ));
    }
    println!(
        "{}",
        json::object([
            ("commit", json::string(&commit())),
            ("host", host_json()),
            ("seed", args.seed.to_string()),
            ("seconds", json::number(args.seconds)),
            ("traced", traced.to_string()),
            ("workloads", json::object(docs)),
        ])
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("symbi-ledger: at least one output check failed");
        ExitCode::from(2)
    }
}

/// Runs behind each value `agree` compares: a set is this many passes of
/// the suite over consecutive seeds, and its value the median of them —
/// the regression gate's own rule (medians of sets of runs) at a size that
/// finishes in minutes. Single runs differ by more than sets do.
const AGREE_RUNS: u64 = 3;

/// `agree`: `sets` sets of runs; for every (end-to-end metric, workload)
/// pair the median of every later set must sit within the metric's bound
/// of the first set's, and no operation may fail.
fn agree(args: &Args) -> ExitCode {
    println!(
        "commit {} cpus {} seeds {}..{} seconds {} sets {} runs-per-set {AGREE_RUNS}",
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
        args.seed + AGREE_RUNS - 1,
        args.seconds,
        args.sets
    );
    let workloads = selected(args);
    // sets[set][workload] = that workload's runs in that set.
    let sets: Vec<Vec<Vec<Outcome>>> = (0..args.sets)
        .map(|_| {
            workloads
                .iter()
                .map(|w| {
                    (0..AGREE_RUNS)
                        .map(|k| {
                            let seeded = Args {
                                seed: args.seed + k,
                                ..args.clone()
                            };
                            measure_plain(w, &seeded)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let set_median = |runs: &[Outcome], name: &str| {
        stats::median(&runs.iter().map(|o| o.get(name)).collect::<Vec<_>>())
    };
    let mut misses = 0;
    for (i, w) in workloads.iter().enumerate() {
        for d in &END_TO_END {
            let a = set_median(&sets[0][i], d.name);
            for later in &sets[1..] {
                let b = set_median(&later[i], d.name);
                let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
                let ok = diff <= d.bound;
                misses += !ok as u32;
                println!(
                    "{w} {} {a} {b} {} diff {:.4} bound {} {}",
                    d.name,
                    d.unit,
                    diff,
                    d.bound,
                    if ok { "ok" } else { "MISS" }
                );
            }
        }
        for out in sets.iter().flat_map(|set| &set[i]) {
            if !out.correct || out.failed > 0 {
                misses += 1;
                println!("{w} FAILED: {} failed ops, {:?}", out.failed, out.errors);
            }
        }
    }
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("symbi-ledger agree: {misses} miss(es)");
        ExitCode::from(2)
    }
}

/// `bench`: what the regression gate runs — one workload, one JSON object
/// on the last line.
fn bench(args: &Args) -> ExitCode {
    let Some(workload) = args.workload.clone() else {
        eprintln!("bench needs --workload");
        return ExitCode::from(2);
    };
    let (out, defs): (Outcome, &[Def]) = if args.trace {
        (spawn_child(&workload, args, true, false), &PER_LAYER)
    } else {
        (measure_plain(&workload, args), &END_TO_END)
    };
    for e in &out.errors {
        eprintln!("{workload}: check failed: {e}");
    }
    println!("{}", result_json(&out, defs));
    if out.attempted == 0 {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("symbi-ledger: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "child" => child(&args),
        "bench" => bench(&args),
        "run" => suite(&args, false, &[&END_TO_END]),
        "trace" => suite(&args, true, &[&PER_LAYER]),
        "smoke" => suite(
            &Args {
                seconds: 2.0,
                ..args
            },
            true,
            &[&END_TO_END, &PER_LAYER],
        ),
        "agree" => agree(&args),
        "-h" | "--help" | "help" => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("symbi-ledger: unknown command '{other}'\n{}", usage());
            ExitCode::from(2)
        }
    }
}
