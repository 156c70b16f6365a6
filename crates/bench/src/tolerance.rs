//! Regression gate for `repro`: compares the tables a run just produced
//! against checked-in expected snapshots, within a numeric tolerance.
//!
//! The simulator is deterministic given a seed, so at the standard scale
//! every figure is reproducible bit-for-bit; the tolerance only absorbs
//! float-formatting differences across platforms. `repro` exits non-zero
//! when any pinned figure deviates.

use std::path::{Path, PathBuf};

use crate::scale::Table;

/// Relative tolerance for numeric cells (absolute for values near zero).
pub const REL_TOLERANCE: f64 = 0.02;

/// The checked-in snapshot directory (`crates/bench/expected`).
pub fn expected_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"))
}

/// Strips units/formatting from a cell and parses it as a number:
/// `"93.4%"` → `93.4`, `"1.07x"` → `1.07`, `"12,345"` → `12345.0`.
fn numeric(cell: &str) -> Option<f64> {
    let cleaned: String = cell
        .trim()
        .trim_end_matches(['%', 'x', 's'])
        .chars()
        .filter(|c| *c != ',')
        .collect();
    cleaned.parse::<f64>().ok()
}

fn cells_match(expected: &str, actual: &str) -> bool {
    if expected.trim() == actual.trim() {
        return true;
    }
    match (numeric(expected), numeric(actual)) {
        (Some(e), Some(a)) => {
            let scale = e.abs().max(1.0);
            (e - a).abs() <= REL_TOLERANCE * scale
        }
        _ => false,
    }
}

/// Splits one CSV line into cells (supports the quoting `write_csv`
/// emits: `"..."` with doubled inner quotes).
fn split_csv(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cell = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                cell.push('"');
                chars.next();
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(std::mem::take(&mut cell)),
            c => cell.push(c),
        }
    }
    cells.push(cell);
    cells
}

/// Compares one produced CSV against its expected snapshot. Returns every
/// deviation as a human-readable line.
pub(crate) fn compare_csv(name: &str, expected: &str, actual: &str) -> Vec<String> {
    let mut deviations = Vec::new();
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    if exp_lines.len() != act_lines.len() {
        deviations.push(format!(
            "{name}: {} rows, expected {}",
            act_lines.len(),
            exp_lines.len()
        ));
        return deviations;
    }
    for (row, (e_line, a_line)) in exp_lines.iter().zip(&act_lines).enumerate() {
        let e_cells = split_csv(e_line);
        let a_cells = split_csv(a_line);
        if e_cells.len() != a_cells.len() {
            deviations.push(format!("{name} row {row}: column count differs"));
            continue;
        }
        for (col, (e, a)) in e_cells.iter().zip(&a_cells).enumerate() {
            if !cells_match(e, a) {
                deviations.push(format!(
                    "{name} row {row} col {col}: got {a:?}, expected {e:?} (tolerance {:.0}%)",
                    REL_TOLERANCE * 100.0
                ));
            }
        }
    }
    deviations
}

/// Checks each of `tables` against its snapshot `expected/<slug>.csv`.
/// A table with no snapshot is skipped. Returns `(tables_checked,
/// deviations)`.
pub fn check_tables(tables: &[Table], expected: &Path) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut deviations = Vec::new();
    for table in tables {
        let name = format!("{}.csv", table.slug());
        let Ok(exp) = std::fs::read_to_string(expected.join(&name)) else {
            continue;
        };
        checked += 1;
        deviations.extend(compare_csv(&name, &exp, &table.csv()));
    }
    (checked, deviations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_csvs_pass() {
        let csv = "a,b\n1,93.4%\n";
        assert!(compare_csv("t.csv", csv, csv).is_empty());
    }

    #[test]
    fn small_numeric_drift_is_within_tolerance() {
        let exp = "a,b\nx,93.4%\n";
        let act = "a,b\nx,92.1%\n";
        assert!(compare_csv("t.csv", exp, act).is_empty());
        let far = "a,b\nx,80.0%\n";
        assert_eq!(compare_csv("t.csv", exp, far).len(), 1);
    }

    #[test]
    fn text_cells_must_match_exactly() {
        let exp = "a,b\ncache1,1\n";
        let act = "a,b\ncache2,1\n";
        assert_eq!(compare_csv("t.csv", exp, act).len(), 1);
    }

    #[test]
    fn row_count_mismatch_is_one_deviation() {
        let exp = "a\n1\n2\n";
        let act = "a\n1\n";
        assert_eq!(compare_csv("t.csv", exp, act).len(), 1);
    }

    #[test]
    fn quoted_cells_split_correctly() {
        assert_eq!(split_csv("1,\"x,y\",\"a\"\"b\""), vec!["1", "x,y", "a\"b"]);
    }

    #[test]
    fn relative_factors_parse() {
        assert_eq!(numeric("1.07x"), Some(1.07));
        assert_eq!(numeric("93.4%"), Some(93.4));
        assert_eq!(numeric("12,345"), Some(12345.0));
        assert_eq!(numeric("cache1"), None);
    }

    #[test]
    fn tables_are_checked_against_their_own_snapshots() {
        let dir = std::env::temp_dir().join("tpp_tolerance_tables");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("pinned.csv"), "a,b\nx,93.4%\n").unwrap();
        let table = |title: &str, cell: &str| {
            Table::new(title, &["a", "b"], vec![vec!["x".into(), cell.into()]])
        };
        assert_eq!(check_tables(&[table("Pinned", "93.0%")], &dir), (1, vec![]));
        let (checked, deviations) = check_tables(&[table("Pinned", "80.0%")], &dir);
        assert_eq!((checked, deviations.len()), (1, 1));
        assert_eq!(check_tables(&[table("Unpinned", "0%")], &dir), (0, vec![]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
