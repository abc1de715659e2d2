//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the dissertation's evaluation has a binary in
//! `src/bin/` that regenerates it, named after the figure or table; each
//! binary's module docs say what the paper reports and what to read off the
//! output. Binaries print a markdown summary to stdout and drop raw CSV
//! series / PPM images under `bench_results/`. Timing the system itself is
//! the ledger's job (`crates/photon-ledger`), not this crate's.

#![deny(missing_docs)]

use photon_core::img::Image;
use photon_core::SpeedTrace;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Output directory for CSV/PPM artifacts (created on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("bench_results");
    fs::create_dir_all(&dir).expect("create bench_results/");
    dir
}

/// Writes rows as CSV with a header line; returns the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    path
}

/// Saves a speed trace as CSV; returns the path.
pub fn write_trace(name: &str, trace: &SpeedTrace) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create trace csv");
    writeln!(f, "elapsed_s,rate_photons_per_s,photons").unwrap();
    write!(f, "{}", trace.to_csv()).unwrap();
    path
}

/// Saves a PPM image; returns the path.
pub fn write_ppm(name: &str, img: &Image) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create ppm");
    img.write_ppm(&mut f).expect("write ppm");
    path
}

/// Renders a markdown table.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints a section heading for the experiment logs.
pub fn heading(title: &str) {
    println!("\n## {title}\n");
}

/// Builds a `photon_core` camera from a scene's recommended view.
pub fn camera_for(
    view: photon_scenes::ViewSpec,
    width: usize,
    height: usize,
) -> photon_core::Camera {
    photon_core::Camera {
        eye: view.eye,
        target: view.target,
        up: view.up,
        vfov_deg: view.vfov_deg,
        width,
        height,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_table_shape() {
        let t = md_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.5), "1.50");
        assert_eq!(fmt(0.1234), "0.1234");
    }
}
