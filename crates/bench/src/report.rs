//! Output helpers: aligned text tables and CSV files.
//!
//! Each figure binary prints its series to stdout (for eyeballing the
//! shape against the paper) and writes a CSV under `target/figures/`, a
//! stable path for plotting and comparing runs.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Prints a labelled series as an aligned two-column block.
pub fn print_series(title: &str, header: (&str, &str), rows: &[(String, f64)]) {
    println!("\n== {title} ==");
    println!("{:>16}  {:>12}", header.0, header.1);
    for (label, value) in rows {
        println!("{label:>16}  {value:>12.6}");
    }
}

/// Writes rows as CSV under `target/figures/<name>.csv`, creating the
/// directory as needed. Returns the path written.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_csv_roundtrip() {
        let rows = vec![
            vec!["1".to_string(), "0.5".to_string()],
            vec!["2".to_string(), "0.25".to_string()],
        ];
        let path = write_csv("unit_test_artifact", &["x", "y"], &rows).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,y\n"));
        assert!(content.contains("2,0.25"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn print_series_does_not_panic() {
        print_series(
            "test",
            ("s", "P_s"),
            &[("1".to_string(), 0.5), ("2".to_string(), 0.25)],
        );
    }
}
