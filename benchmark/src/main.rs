//! `duc-benchmark`: `run` measures, `child` is what `run` re-executes,
//! `describe` prints the metric catalogue.

use std::path::PathBuf;
use std::process::ExitCode;

use duc_benchmark::alloc::CountingAlloc;
use duc_benchmark::harness::{self, ChildJob, RunOptions};
use duc_benchmark::{metrics, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  duc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
  duc-benchmark describe [--layers]
workloads: market_access paged_access market_10k chain_ingest lifecycle_mix";

/// Flags shared by `run` and `child`.
#[derive(Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    unit: bool,
    unpaged: bool,
    layers: bool,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                flags.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                flags.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                flags.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => flags.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--unit" => flags.unit = true,
            "--unpaged" => flags.unpaged = true,
            "--layers" => flags.layers = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

fn run(flags: &Flags) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let opts = RunOptions {
        workload: flags.workload,
        seed: flags.seed.unwrap_or(1),
        seconds: flags.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: flags.trace,
    };
    let workloads: Vec<Workload> = opts
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    print!("{}", harness::provenance());
    println!(
        "seed: {}  seconds: {}  trace: {}  host time in reference seconds (see README)",
        opts.seed, opts.seconds, opts.trace
    );
    let mut last = None;
    for workload in &workloads {
        let report = harness::measure(&exe, *workload, &opts)?;
        print!("{}", harness::render(&report, opts.trace));
        last = Some(report);
    }
    if opts.trace {
        let path = harness::assemble_trace(&workloads).map_err(|e| format!("trace: {e}"))?;
        println!("spans written to {}", path.display());
    }
    // The driver's contract: with one workload, the last line of standard
    // output is the result object.
    if let (Some(_), Some(report)) = (opts.workload, last) {
        println!("{}", harness::result_json(&report, opts.trace));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "run" => run(&flags),
        "child" => {
            let job = match (flags.unit, flags.workload) {
                (true, _) => ChildJob::Unit,
                (false, Some(workload)) => ChildJob::Workload {
                    workload,
                    trace: flags.trace,
                    unpaged: flags.unpaged,
                    trace_out: flags.trace_out.clone(),
                },
                (false, None) => {
                    eprintln!("child needs --workload or --unit");
                    return ExitCode::from(2);
                }
            };
            harness::child(
                &job,
                flags.seed.unwrap_or(1),
                flags.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
            )
            .map_err(|e| e.to_string())
        }
        "describe" => {
            if flags.layers {
                print!("{}", metrics::layers_markdown());
            } else {
                print!("{}", metrics::benchmark_json());
            }
            Ok(())
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("duc-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
