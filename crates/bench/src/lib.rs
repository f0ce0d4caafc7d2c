//! # ofar-bench
//!
//! The benchmark harness: one binary per figure of the paper
//! (`fig2b` … `fig9`), the §III theory printer (`theory`), the §VII
//! multi-ring reliability study (`rings`) and the tuning ablations
//! (`ablation_thresholds`, `ablation_pb`).
//!
//! Scale control (all binaries):
//!
//! * default — `h = 4` network, full curve shapes in minutes;
//! * `OFAR_FULL=1` — the paper's `h = 6`, 5,256-node network;
//! * `OFAR_QUICK=1` — `h = 2` smoke scale;
//! * `OFAR_H=<n>` — override `h` explicitly;
//! * `OFAR_CSV=<dir>` — additionally write each table as CSV.
//!
//! Host throughput is measured by the repository benchmark
//! (`perfbench/`), not here.

use ofar_core::{Scale, Table};
use std::io::Write;

/// Print the scale banner for a figure binary.
pub fn announce(figure: &str, scale: &Scale) {
    eprintln!(
        "[{figure}] h={} ({} nodes), warmup={} measure={} cycles, seed={}",
        scale.h,
        scale.cfg().params.nodes(),
        scale.steady.warmup,
        scale.steady.measure,
        scale.seed,
    );
}

/// Print a table; if `OFAR_CSV` is set, also write `<dir>/<slug>.csv`.
pub fn emit(table: &Table) {
    println!("{table}");
    if let Ok(dir) = std::env::var("OFAR_CSV") {
        let slug: String = table
            .title
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = std::path::Path::new(&dir).join(format!("{slug}.csv"));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|mut f| f.write_all(table.to_csv().as_bytes()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_prints_without_csv() {
        let t = Table::new("smoke", &["a"]);
        emit(&t); // must not panic without OFAR_CSV
    }
}
