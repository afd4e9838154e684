//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mixed|batched|durable|sssp|all> --seed <n> --seconds <s> --trace <0|1> \
//!     [--corrupt]
//! cargo run ... -- --write-spec BENCHMARK.json
//! ```
//!
//! `BENCHMARK.json` lists `mixed`, `batched` and `durable`; `sssp` runs by
//! hand only (see `BY_HAND`).
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! is the separate traced run that yields the per-layer metrics and writes a
//! span file under `.perfbench/`. Every run checks the program's outputs and
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a failed check prints `"correct": false` and
//! exits 1. `--corrupt` feeds each checker a deliberately wrong expectation
//! (one phantom key in a queue's ledger, one distance off by one) to show
//! that the checks fail.

mod replay;
mod sssp;
mod stats;
mod svc;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use obs::json::J;

use workloads::Report;

/// Each workload and why it is in the benchmark.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "mixed",
        "sync calls on 64 queues held at 4096 keys: the uncontended fast path and single-op pool kernels",
    ),
    (
        "batched",
        "64-request enqueue windows on 8 hot 32k-key queues plus side melds: ingress, bulk builds, multi-extract, meld",
    ),
    (
        "durable",
        "the mixed stream on a durable service, then a restart: WAL appends, flushes, checkpoints and recovery",
    ),
];

/// A workload that runs by hand but is not in `BENCHMARK.json`: Dijkstra
/// with decrease-key on the lazy engine. Its speed follows the host's by up
/// to 2x over minutes (33k ops/s, then 17k twenty minutes later, while an
/// ALU loop held within 5%): in three of five sets of ten seeded runs its
/// throughput spread 23-28%, past any bound the benchmark allows. The traced
/// run of `mixed` runs the same queries for the `lazy.*` figures.
const BY_HAND: &str = "sssp";

struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`, with the
/// share of the parent's median by which each may worsen. The bounds allow
/// for the host: on the 2-vCPU VM this was tuned on, the run-to-run spread
/// (quartile distance over median, ten seeds) was 1-4% in quiet periods and
/// up to 25% while neighbours loaded the machine.
const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

/// The per-layer metrics every workload reports with `--trace 1` (zero
/// where the workload does not reach the layer), with the direction that
/// counts as better.
const PER_LAYER: [(&str, &str, &str); 40] = [
    ("service.requests", "count", "higher"),
    ("service.batches", "count", "higher"),
    ("service.mean_batch", "count", "higher"),
    ("service.coalesced_insert_share", "ratio", "higher"),
    ("service.keys_per_bulk_build", "keys", "higher"),
    ("service.multi_extracts", "count", "higher"),
    ("service.combine_busy_share", "ratio", "lower"),
    ("service.combine_ns_per_request", "ns", "lower"),
    ("service.melds_same_shard", "count", "higher"),
    ("service.melds_cross_shard", "count", "higher"),
    ("service.overhead_ns_per_op", "ns", "lower"),
    ("pool.insert_ns", "ns", "lower"),
    ("pool.extract_min_ns", "ns", "lower"),
    ("pool.min_ns", "ns", "lower"),
    ("pool.allocs_per_op", "count", "lower"),
    ("pool.bulk_build_ns_per_key", "ns", "lower"),
    ("pool.multi_extract_ns_per_key", "ns", "lower"),
    ("pool.meld_ns", "ns", "lower"),
    ("pool.copies", "count", "lower"),
    ("wal.appends", "count", "higher"),
    ("wal.checkpoints", "count", "lower"),
    ("wal.errors", "count", "lower"),
    ("wal.append_ns", "ns", "lower"),
    ("wal.flush_ns", "ns", "lower"),
    ("wal.checkpoint_ms", "ms", "lower"),
    ("wal.checkpoint_share", "ratio", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("wal.recover_ms", "ms", "lower"),
    ("lazy.insert_ns", "ns", "lower"),
    ("lazy.extract_min_ns", "ns", "lower"),
    ("lazy.decrease_key_ns", "ns", "lower"),
    ("lazy.cost_log_len_per_op", "count", "lower"),
    ("lazy.pram_time_per_op", "steps", "lower"),
    ("lazy.pram_work_per_op", "steps", "lower"),
    ("lazy.arrange_share", "ratio", "lower"),
    ("selftime.service_ns_per_op", "ns", "lower"),
    ("selftime.pool_ns_per_op", "ns", "lower"),
    ("selftime.wal_ns_per_op", "ns", "lower"),
    ("selftime.lazy_ns_per_op", "ns", "lower"),
    ("trace.overhead_ops_s", "1/s", "higher"),
];

/// Seconds one run measures by default: `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 35;

/// Fresh-process set-ups measured per run, besides the run's own: one
/// set-up's time varies by 30% and more with the host.
const SETUP_PROBES: usize = 8;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: bool,
    setup_probe: bool,
    write_spec: Option<String>,
    /// `MELDPQ_*` variables found in the environment and removed.
    pins: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        corrupt: false,
        setup_probe: false,
        write_spec: None,
        pins: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--corrupt" => a.corrupt = true,
            "--setup-probe" => a.setup_probe = true,
            "--write-spec" => a.write_spec = Some(value()?),
            f => return Err(format!("unknown argument {f}")),
        }
    }
    let known = a.workload == "all"
        || a.workload == BY_HAND
        || WORKLOADS.iter().any(|(w, _)| *w == a.workload);
    if a.write_spec.is_none() && !known {
        return Err(format!(
            "--workload must be one of mixed, batched, durable, sssp, all; got {:?}",
            a.workload
        ));
    }
    Ok(a)
}

/// Seed, machine, commit and the program's calibrated choices, for every
/// run's output.
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only this directory's own repository: a checkout without `.git` must
    // not report the commit of some enclosing one.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
        })
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let pins = if args.pins.is_empty() {
        "none".to_string()
    } else {
        format!("removed {}", args.pins.join(" "))
    };
    format!(
        "seed={} nproc={nproc} commit={commit} MELDPQ_pins={pins} {} {}",
        args.seed,
        meldpq::cutoff::describe(),
        meldpq::backend::describe()
    )
}

/// Set-up times of `SETUP_PROBES` fresh processes, one after another.
fn setup_probes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--setup-probe",
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .output()
                .map_err(|e| format!("set-up probe failed to start: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().strip_prefix("setup_s=").map(str::parse::<f64>) {
                Some(Ok(s)) if out.status.success() => Ok(s),
                _ => Err(format!(
                    "set-up probe failed: {}{}",
                    text.trim(),
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's spec"))
}

/// Print the human-readable report, then the result line; returns whether
/// the run was correct.
fn print_report(args: &Args, mut rep: Report) -> bool {
    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in &wanted {
        if !rep.metrics.iter().any(|m| m.0 == *name) {
            if args.trace {
                rep.metrics
                    .push((name, 0.0, "layer not reached by this workload".into()));
            } else if rep.errors.is_empty() {
                rep.errors.push(format!("metric {name} was not measured"));
            }
        }
    }
    let order = |name: &str| wanted.iter().position(|w| *w == name).unwrap_or(usize::MAX);
    rep.metrics.sort_by_key(|m| order(m.0));
    println!(
        "perfbench workload={} seconds={} trace={}",
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {}", provenance(args));
    for (name, value, samples) in &rep.metrics {
        println!(
            "  {name:<32} {value:>16.4} {:<6} ({samples})",
            unit_of(name)
        );
    }
    for n in &rep.notes {
        println!("  {n}");
    }
    if let Some(spans) = &rep.spans {
        let path =
            workloads::work_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(workloads::work_dir())
            .and_then(|()| std::fs::write(&path, spans.to_string()));
        match written {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => rep
                .errors
                .push(format!("span file {}: {e}", path.display())),
        }
    }
    for e in &rep.errors {
        println!("  CHECK FAILED: {e}");
    }
    let correct = rep.errors.is_empty();
    let metrics = rep
        .metrics
        .iter()
        .filter(|m| wanted.contains(&m.0))
        .map(|(name, value, _)| {
            (
                name.to_string(),
                J::obj([
                    ("value", J::Num(*value)),
                    ("unit", J::Str(unit_of(name).into())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(correct)),
            ("attempted", J::UInt(rep.attempted.max(1))),
            ("failed", J::UInt(rep.failed)),
            ("metrics", J::Obj(metrics)),
        ])
    );
    correct
}

/// `--workload all`: every workload in turn, each in its own process so each
/// reports its own set-up and peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (w, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ]);
        if args.corrupt {
            cmd.arg("--corrupt");
        }
        ok &= cmd.status().map(|s| s.success()).unwrap_or(false);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, from the tables above.
fn spec() -> String {
    let line = |j: J| format!("    {j}");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            line(J::obj([
                ("name", J::Str(n.to_string())),
                ("why", J::Str(why.to_string())),
            ]))
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            line(J::obj([
                ("name", J::Str(m.name.into())),
                ("unit", J::Str(m.unit.into())),
                ("better", J::Str(m.better.into())),
                ("bound", J::Num(m.bound)),
            ]))
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            line(J::obj([
                ("name", J::Str(n.to_string())),
                ("unit", J::Str(u.to_string())),
                ("better", J::Str(b.to_string())),
            ]))
        })
        .collect();
    let command = J::Arr(
        [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
        ]
        .iter()
        .map(|s| J::Str(s.to_string()))
        .collect(),
    );
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Measure what users get: the calibrated cutoffs and the selected
    // backend, not a pinned configuration. Done before any thread starts
    // and before the library reads its environment; set-up probes inherit
    // the cleaned environment.
    for (k, v) in std::env::vars().filter(|(k, _)| k.starts_with("MELDPQ_")) {
        std::env::remove_var(&k);
        args.pins.push(format!("{k}={v}"));
    }
    if let Some(path) = &args.write_spec {
        return match std::fs::write(path, spec()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.setup_probe {
        return match workloads::setup_only(&args.workload, args.seed) {
            Ok(s) => {
                println!("setup_s={s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let probes = if args.trace {
        Ok(Vec::new())
    } else {
        setup_probes(&args)
    };
    let rep = match probes {
        Ok(samples) if args.workload == "sssp" => workloads::run_sssp(&args, samples),
        Ok(samples) => workloads::run_service(&args.workload, &args, samples),
        Err(e) => Report {
            errors: vec![e],
            ..Report::default()
        },
    };
    if print_report(&args, rep) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
