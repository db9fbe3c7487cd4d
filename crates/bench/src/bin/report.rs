//! Regenerates the experiment tables of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p duc-bench --bin report --release -- all
//! cargo run -p duc-bench --bin report --release -- e1 e6 e7
//! cargo run -p duc-bench --bin report --release -- --json all
//! ```
//!
//! `--max-owners N` caps the population sweeps of E15/E16/E19 (default
//! 10 000). With `--json`, additionally writes `BENCH_seed.json`: one
//! record per experiment (always all of them, independent of the table
//! selection) with the median latency (first `ms` column), the median gas
//! (first `gas` column) and every row of each table — the seed of the
//! repository's performance trajectory. Each experiment runs at most once
//! per invocation; table output and JSON share the results.

use duc_bench::experiments;
use duc_bench::Table;

const JSON_PATH: &str = "BENCH_seed.json";

/// The default owner cap of the population sweeps (E15/E16/E19): the
/// 10⁴ acceptance point.
const DEFAULT_MAX_OWNERS: usize = 10_000;

/// One registry entry: experiment name plus its runner, which takes the
/// `--max-owners` cap (only the population experiments read it).
type Experiment = (&'static str, fn(usize) -> Vec<Table>);

/// The single registry every consumer (table output, JSON, the usage
/// message) derives from.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", |_| experiments::e1_pod_initiation()),
    ("e2", |_| experiments::e2_resource_initiation()),
    ("e3", |_| experiments::e3_indexing()),
    ("e4", |_| experiments::e4_access()),
    ("e5", |_| experiments::e5_propagation()),
    ("e6", |_| experiments::e6_monitoring()),
    ("e7", |_| experiments::e7_gas_table()),
    ("e8", |_| experiments::e8_robustness()),
    ("e9", |_| experiments::e9_privacy()),
    ("e10", |_| experiments::e10_baseline()),
    ("e11", |_| experiments::e11_enforcement()),
    ("e12", |_| experiments::e12_chain_scale()),
    ("e13", |_| experiments::e13_backends()),
    ("e14", |_| experiments::e14_deadline_enforcement()),
    ("e15", experiments::e15_population),
    ("e16", experiments::e16_storage),
    ("e17", |_| experiments::e17_parallel_exec()),
    ("e18", |_| experiments::e18_runtime()),
    ("e19", experiments::e19_paged_state),
];

/// Runs experiment `index` on first use, then serves the cached tables.
fn tables(cache: &mut [Option<Vec<Table>>], index: usize, max_owners: usize) -> &[Table] {
    cache[index].get_or_insert_with(|| EXPERIMENTS[index].1(max_owners))
}

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
    let indices: Vec<usize> = selected
        .iter()
        .flat_map(|name| {
            if name == "all" {
                return (0..EXPERIMENTS.len()).collect();
            }
            match EXPERIMENTS.iter().position(|(n, _)| n == name) {
                Some(index) => vec![index],
                None => {
                    eprintln!(
                        "unknown experiment {name:?}; use {}..{} or all",
                        EXPERIMENTS[0].0,
                        EXPERIMENTS[EXPERIMENTS.len() - 1].0
                    );
                    std::process::exit(2);
                }
            }
        })
        .collect();

    let mut cache: Vec<Option<Vec<Table>>> = (0..EXPERIMENTS.len()).map(|_| None).collect();
    println!("# solid-usage-control experiment report");
    println!("(deterministic simulation; see EXPERIMENTS.md for interpretation)");
    // Which kernels produced the wall-clock columns; no other column can tell.
    println!("sha256 backend: {}", duc_crypto::sha256::backend());
    println!("chacha20 backend: {}", duc_crypto::chacha20::backend());
    for index in indices {
        for table in tables(&mut cache, index, max_owners) {
            print!("{table}");
        }
    }
    if json {
        let document = json_document(&mut cache, max_owners);
        std::fs::write(JSON_PATH, document).unwrap_or_else(|e| panic!("writing {JSON_PATH}: {e}"));
        eprintln!("wrote {JSON_PATH}");
    }
}

fn json_document(cache: &mut [Option<Vec<Table>>], max_owners: usize) -> String {
    let mut out = String::from("{\n  \"schema\": \"duc-bench-v2\",\n  \"experiments\": {\n");
    for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
        let tables = tables(cache, i, max_owners);
        out.push_str(&format!("    {}: [\n", json_string(name)));
        for (j, table) in tables.iter().enumerate() {
            out.push_str("      {\n");
            out.push_str(&format!(
                "        \"table\": {},\n",
                json_string(table.title())
            ));
            out.push_str(&format!(
                "        \"median_latency_ms\": {},\n",
                json_number(median_of_column(table, "ms"))
            ));
            out.push_str(&format!(
                "        \"median_gas\": {},\n",
                json_number(median_of_column(table, "gas"))
            ));
            out.push_str(&json_rows(table));
            out.push_str(if j + 1 < tables.len() {
                "      },\n"
            } else {
                "      }\n"
            });
        }
        out.push_str(if i + 1 < EXPERIMENTS.len() {
            "    ],\n"
        } else {
            "    ]\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// Every row of `table` as one JSON object keyed by column header, cells
/// that read as numbers emitted as numbers — so BENCH_*.json tracks each
/// experiment's per-row records across PRs without knowing any table's
/// layout.
fn json_rows(table: &Table) -> String {
    let mut out = String::from("        \"rows\": [\n");
    for (i, row) in table.rows().iter().enumerate() {
        let cells: Vec<String> = table
            .columns()
            .iter()
            .zip(row)
            .map(|(column, cell)| {
                let value = match cell.trim().parse::<f64>() {
                    Ok(number) if number.is_finite() => json_number(Some(number)),
                    _ => json_string(cell),
                };
                format!("{}: {value}", json_string(column))
            })
            .collect();
        out.push_str(&format!(
            "          {{{}}}{}\n",
            cells.join(", "),
            if i + 1 < table.rows().len() { "," } else { "" },
        ));
    }
    out.push_str("        ]\n");
    out
}

/// Median of the first column whose header contains `needle`, ignoring
/// cells that do not parse as numbers. `None` when the table has no such
/// column or no numeric cells.
fn median_of_column(table: &Table, needle: &str) -> Option<f64> {
    let index = table
        .columns()
        .iter()
        .position(|c| c.to_lowercase().contains(needle))?;
    let mut values: Vec<f64> = table
        .rows()
        .iter()
        .filter_map(|row| row.get(index))
        .filter_map(|cell| cell.trim().parse().ok())
        .collect();
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite medians"));
    let mid = values.len() / 2;
    Some(if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    })
}

fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) => {
            // Four decimals is below measurement resolution; trimming the
            // tail keeps binary-float noise out of the committed file.
            let fixed = format!("{v:.4}");
            let trimmed = fixed.trim_end_matches('0').trim_end_matches('.');
            trimmed.to_string()
        }
        None => "null".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
