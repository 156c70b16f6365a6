//! Simulation scale settings shared by every figure reproduction, and
//! the [`Table`] each reproduction renders.
//!
//! The paper's machines hold hundreds of GiB and its runs last hours; the
//! simulator reproduces the *dynamics* at a reduced scale. One Chameleon
//! "interval" stands in for the paper's one-minute interval, and working
//! sets are tens of thousands of pages instead of tens of millions. All
//! scale knobs live here so the mapping is explicit and consistent.

use std::path::Path;

use tiered_sim::{MINUTE, SEC};

/// Scale configuration for experiment runs.
#[derive(Clone, Copy, PartialEq, Debug)]
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
        }
    }
}

/// Formats a fraction as a percentage string, e.g. `"93.4%"`.
pub(crate) fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// One reproduced table: what a figure, sweep or capture step returns,
/// and what `repro` prints, exports as CSV and checks against its
/// snapshot.
#[derive(Debug, PartialEq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
    /// A line printed after the table but not part of its CSV.
    pub(crate) note: Option<String>,
}

impl Table {
    pub(crate) fn new(title: &str, header: &[&str], rows: Vec<Vec<String>>) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
            note: None,
        }
    }

    /// The CSV file name stem, derived from the full title so distinct
    /// tables never collide.
    pub(crate) fn slug(&self) -> String {
        let mut slug: String = self
            .title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        while slug.contains("__") {
            slug = slug.replace("__", "_");
        }
        slug.trim_matches('_').chars().take(64).collect()
    }

    /// The table as CSV: the header line, then one line per row.
    pub(crate) fn csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
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
        out
    }

    /// Writes the table as CSV into `dir/<slug>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let path = dir.join(format!("{}.csv", self.slug()));
        std::fs::write(&path, self.csv()).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("csv export to {} failed: {e}", path.display()),
            )
        })
    }

    /// Prints the table in markdown: a header row and aligned data rows,
    /// then the note, if any.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
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
        println!("{}", fmt_row(&self.header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", fmt_row(&sep));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        if let Some(note) = &self.note {
            println!("\nnote: {note}");
        }
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
        let table = Table::new(
            "Figure 99 — example table",
            &["a", "b"],
            vec![vec!["1".into(), "x,y".into()]],
        );
        table.write_csv(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("figure_99_example_table.csv")).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("1,\"x,y\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
