//! `BENCH_seed.json`, the one committed copy of E1–E12 and E14: the document
//! `report --json` writes and the `bench_seed` test compares byte for byte
//! with the committed file.

use crate::experiments::PINNED;
use crate::table::Table;

/// Runs E1–E12 and E14 and renders them as `BENCH_seed.json` (schema
/// `duc-bench-v2`): per experiment, one record per table with the median
/// latency (first `ms` column), the median gas (first `gas` column) and
/// every row.
pub fn pinned_document() -> String {
    let experiments: Vec<String> = PINNED
        .iter()
        .map(|(name, run)| {
            let tables: Vec<String> = run().iter().map(json_table).collect();
            format!(
                "    {}: [\n{}\n    ]",
                json_string(name),
                tables.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"duc-bench-v2\",\n  \"experiments\": {{\n{}\n  }}\n}}\n",
        experiments.join(",\n")
    )
}

/// One table's record. Every row is one JSON object keyed by column
/// header, cells that read as numbers emitted as numbers, so the file
/// tracks each experiment's rows without knowing any table's layout.
fn json_table(table: &Table) -> String {
    let rows: Vec<String> = table
        .rows()
        .iter()
        .map(|row| {
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
            format!("          {{{}}}", cells.join(", "))
        })
        .collect();
    format!(
        "      {{\n        \"table\": {},\n        \"median_latency_ms\": {},\n        \
         \"median_gas\": {},\n        \"rows\": [\n{}\n        ]\n      }}",
        json_string(table.title()),
        json_number(median_of_column(table, "ms")),
        json_number(median_of_column(table, "gas")),
        rows.join(",\n"),
    )
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
        .filter_map(|row| row[index].trim().parse().ok())
        .collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() {
        0 => None,
        n if n.is_multiple_of(2) => Some((values[mid - 1] + values[mid]) / 2.0),
        _ => Some(values[mid]),
    }
}

fn json_number(value: Option<f64>) -> String {
    // Four decimals is below measurement resolution; trimming the tail
    // keeps binary-float noise out of the committed file.
    value.map_or("null".to_string(), |v| {
        let fixed = format!("{v:.4}");
        fixed
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    })
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
