//! Simulation scale settings shared by every figure reproduction.
//!
//! The paper's machines hold hundreds of GiB and its runs last hours; the
//! simulator reproduces the *dynamics* at a reduced scale. One Chameleon
//! "interval" stands in for the paper's one-minute interval, and working
//! sets are tens of thousands of pages instead of tens of millions. All
//! scale knobs live here so the mapping is explicit and consistent.

use tiered_sim::{MINUTE, SEC};

use crate::executor::CellCache;

/// Scale configuration for experiment runs, plus the cache of the cells
/// already run at this scale (every target of one `repro` run takes the
/// same `Scale`, so a cell two targets share runs once).
#[derive(Debug)]
pub struct Scale {
    /// Working-set size per workload, in pages.
    pub ws_pages: u64,
    /// Simulated duration of each evaluation run.
    pub duration_ns: u64,
    /// Chameleon interval (stands in for the paper's 1 minute).
    pub profile_interval_ns: u64,
    /// Simulated duration of characterization runs.
    pub profile_duration_ns: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for cell execution (1 = fully sequential).
    pub jobs: usize,
    /// Outcomes of the cells run so far (empty in a new `Scale`).
    pub cells: CellCache,
}

impl Scale {
    /// The standard scale used for `repro` runs: large enough for stable
    /// steady-state measurements.
    pub fn standard() -> Scale {
        Scale {
            ws_pages: 24_000,
            duration_ns: 4 * MINUTE,
            profile_interval_ns: 30 * SEC,
            profile_duration_ns: 5 * MINUTE,
            seed: 42,
            jobs: 1,
            cells: CellCache::default(),
        }
    }

    /// A reduced scale for smoke tests and `repro --quick`.
    pub fn quick() -> Scale {
        Scale {
            ws_pages: 6_000,
            duration_ns: 60 * SEC,
            profile_interval_ns: 10 * SEC,
            profile_duration_ns: 80 * SEC,
            seed: 42,
            jobs: 1,
            cells: CellCache::default(),
        }
    }
}

/// Formats a fraction as a percentage string, e.g. `"93.4%"`.
pub(crate) fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

static CSV_DIR: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();

/// Configures a directory that every subsequently printed table is also
/// exported to as CSV (used by `repro --csv <dir>`). Can only be set
/// once per process; later calls are ignored.
pub fn set_csv_dir(dir: impl Into<std::path::PathBuf>) {
    let dir = dir.into();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create csv dir {}: {e}", dir.display());
        return;
    }
    let _ = CSV_DIR.set(dir);
}

/// Writes a table as CSV into `dir/<slug>.csv` (the slug is derived from
/// the title). Errors are reported to stderr, not propagated — CSV export
/// is a convenience by-product of a figure run.
pub(crate) fn write_csv(dir: &std::path::Path, title: &str, header: &[&str], rows: &[Vec<String>]) {
    // Slug from the full title so distinct tables never collide.
    let mut slug: String = title
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    while slug.contains("__") {
        slug = slug.replace("__", "_");
    }
    let slug = slug.trim_matches('_').chars().take(64).collect::<String>();
    let path = dir.join(format!("{slug}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("csv export to {} failed: {e}", path.display());
    }
}

/// Prints a markdown-style table: a header row and aligned data rows.
pub(crate) fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    if let Some(dir) = CSV_DIR.get() {
        write_csv(dir, title, header, rows);
    }
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let s = Scale::standard();
        let q = Scale::quick();
        assert!(s.ws_pages > q.ws_pages);
        assert!(s.duration_ns > q.duration_ns);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.934), "93.4%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn csv_export_writes_escaped_rows() {
        let dir = std::env::temp_dir().join("tpp_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        write_csv(
            &dir,
            "Figure 99 — example table",
            &["a", "b"],
            &[vec!["1".into(), "x,y".into()]],
        );
        let text = std::fs::read_to_string(dir.join("figure_99_example_table.csv")).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("1,\"x,y\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
