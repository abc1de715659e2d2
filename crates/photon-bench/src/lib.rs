//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the dissertation's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md's per-experiment index and
//! EXPERIMENTS.md for paper-vs-measured). Binaries print a markdown summary
//! to stdout and drop raw CSV series / PPM images under `bench_results/`.

#![deny(missing_docs)]

use photon_core::img::Image;
use photon_core::json::JsonObject;
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

/// Prints a section heading for the experiment logs (suppressed under
/// [`json_mode`], where stdout must be one JSON object).
pub fn heading(title: &str) {
    if !json_mode() {
        println!("\n## {title}\n");
    }
}

/// True when `--json` was passed: the binary emits a single JSON object
/// on stdout (machine-readable, for baselines like `BENCH_baseline.json`)
/// instead of markdown tables. Assertions still run either way.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// A `--json` bench report: the workspace's one JSON writer
/// ([`JsonObject`]) with the bench binary's name as its first field.
pub struct JsonReport(JsonObject);

impl JsonReport {
    /// A report named after the bench binary.
    pub fn new(bench: impl Into<String>) -> Self {
        let mut object = JsonObject::new();
        object.text("bench", &bench.into());
        JsonReport(object)
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.int(key, v);
        self
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.num(key, v);
        self
    }

    /// Adds a string field (escaped).
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.text(key, v);
        self
    }

    /// Adds a pre-rendered JSON value — nested objects and arrays are the
    /// caller's responsibility.
    pub fn raw(&mut self, key: &str, rendered_json: impl Into<String>) -> &mut Self {
        self.0.raw(key, &rendered_json.into());
        self
    }

    /// The report as one JSON object.
    pub fn render(&self) -> String {
        self.0.render()
    }

    /// Prints the report — the only stdout a `--json` run produces.
    pub fn print(&self) {
        println!("{}", self.render());
    }
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
    fn json_report_shape() {
        let mut r = JsonReport::new("demo");
        r.int("count", 3)
            .num("rate", 1.5)
            .num("bad", f64::NAN)
            .text("label", "a\"b")
            .raw("nested", "{\"x\":1}");
        let s = r.render();
        assert_eq!(
            s,
            "{\"bench\":\"demo\",\"count\":3,\"rate\":1.500000,\"bad\":null,\
             \"label\":\"a\\\"b\",\"nested\":{\"x\":1}}"
        );
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.5), "1.50");
        assert_eq!(fmt(0.1234), "0.1234");
    }
}
