//! `BENCH_seed.json` is the one committed copy of the paper tables: this
//! test runs E1–E12 and E14 (every gate inside them included) and compares the
//! rendered document with the committed file byte for byte.

use std::path::Path;

#[test]
fn report_reproduces_the_committed_paper_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_seed.json");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let rendered = duc_bench::json::pinned_document();
    if rendered == committed {
        return;
    }

    let want: Vec<&str> = committed.lines().collect();
    let got: Vec<&str> = rendered.lines().collect();
    let mut diff = String::new();
    let mut moved: Vec<&str> = Vec::new();
    let (mut experiment, mut table, mut rows) = ("-", "-", 0);
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i).copied(), got.get(i).copied());
        // Where line i sits in the committed document: the experiment, the
        // table and, for a row line (`{"column": cell, ..}`), its number.
        let line = w.unwrap_or_default();
        let is_row = line.trim_start().starts_with("{\"");
        if let Some(name) = line
            .strip_prefix("    \"")
            .and_then(|l| l.strip_suffix("\": ["))
        {
            experiment = name;
        } else if let Some(title) = line.trim().strip_prefix("\"table\": ") {
            (table, rows) = (title.trim_end_matches(','), 0);
        } else if is_row {
            rows += 1;
        }
        if w == g {
            continue;
        }
        if !moved.contains(&experiment) {
            moved.push(experiment);
        }
        diff.push_str(&format!(
            "{experiment} table {table}, row {}:\n  committed: {}\n  report:    {}\n",
            if is_row {
                rows.to_string()
            } else {
                "-".to_string()
            },
            w.unwrap_or("(no line)").trim(),
            g.unwrap_or("(no line)").trim(),
        ));
    }
    panic!(
        "report no longer reproduces {}:\n{diff}\n\
         A change meant to move these cells re-records the file, in its own commit that \
         names every cell that moved, from the repository root with\n  \
         cargo run -p duc-bench --bin report --release -- --json {}",
        path.display(),
        moved.join(" "),
    );
}
