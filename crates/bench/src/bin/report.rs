//! Prints the experiment tables, E1–E12 and E14–E19.
//!
//! ```sh
//! cargo run -p duc-bench --bin report --release -- all
//! cargo run -p duc-bench --bin report --release -- e1 e6 e7
//! cargo run -p duc-bench --bin report --release -- --max-owners 1000 e15 e16
//! cargo run -p duc-bench --bin report --release -- --json e7
//! ```
//!
//! `--max-owners N` caps the population sweeps of the probes E15/E16/E19
//! (default 10 000); E1–E12 and E14 take no cap. With `--json`, additionally
//! writes `BENCH_seed.json`: E1–E12 and E14, whatever the table selection (see
//! `duc_bench::json`). That file is committed and the `bench_seed` test
//! holds `report` to it, so a run that moves a cell on purpose re-records
//! it in its own commit, naming every cell that moved.

use duc_bench::experiments::{PINNED, PROBES};

const JSON_PATH: &str = "BENCH_seed.json";

/// The default owner cap of the population sweeps (E15/E16/E19): the
/// 10⁴ acceptance point.
const DEFAULT_MAX_OWNERS: usize = 10_000;

fn main() {
    let mut json = false;
    let mut max_owners = DEFAULT_MAX_OWNERS;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--max-owners" => {
                let value = args.next().unwrap_or_default();
                max_owners = value.parse().unwrap_or_else(|_| {
                    eprintln!("--max-owners needs an owner count, got {value:?}");
                    std::process::exit(2);
                });
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let every: Vec<&str> = PINNED
        .iter()
        .map(|e| e.0)
        .chain(PROBES.iter().map(|e| e.0))
        .collect();
    if let Some(name) = selected
        .iter()
        .find(|n| *n != "all" && !every.contains(&n.as_str()))
    {
        eprintln!("unknown experiment {name:?}; use e1..e19 or all");
        std::process::exit(2);
    }

    println!("# solid-usage-control experiment report");
    println!("(deterministic simulation; see EXPERIMENTS.md for interpretation)");
    // Which kernels produced the wall-clock columns; no other column can tell.
    println!("sha256 backend: {}", duc_crypto::sha256::backend());
    println!("chacha20 backend: {}", duc_crypto::chacha20::backend());
    for name in &selected {
        let names = if name == "all" {
            every.clone()
        } else {
            vec![name.as_str()]
        };
        for name in names {
            let tables = match PINNED.iter().find(|e| e.0 == name) {
                Some((_, run)) => run(),
                None => PROBES
                    .iter()
                    .find(|e| e.0 == name)
                    .map(|(_, run)| run(max_owners))
                    .expect("a listed name"),
            };
            for table in tables {
                print!("{table}");
            }
        }
    }
    if json {
        let document = duc_bench::json::pinned_document();
        std::fs::write(JSON_PATH, document).unwrap_or_else(|e| panic!("writing {JSON_PATH}: {e}"));
        eprintln!("wrote {JSON_PATH}");
    }
}
