//! Metrics exporters: Prometheus-style text exposition, a versioned JSON
//! dump, and a minimal TCP endpoint serving both.
//!
//! [`ObsExporter`] turns a live pool's state — the full
//! [`MetricsSnapshot`], the per-stage duration histograms, and the flight
//! recorder's recent tail — into the two formats an operator actually
//! consumes: `prometheus_text()` for scrapers and dashboards, `json()`
//! for post-mortems and scripts. [`ObsServer`] is the off-box probe: a
//! blocking TCP listener (std only, one thread) answering
//! `GET /metrics` with the text exposition and `GET /metrics.json` with
//! the JSON dump — the endpoint a shard router's health checks will point
//! at.
//!
//! Neither exporter holds any lock while formatting: everything reads
//! point-in-time snapshots, so a slow scraper can never stall the
//! dispatcher or the scheduler.

use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::net::{Listener, MAX_CONNECTIONS, REQUEST_TIMEOUT};
use crate::RenderService;
use photon_core::obs::{json_escape, HistogramSnapshot, ObsEvent};
use photon_core::ObsHub;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// How many flight-recorder events the JSON dump carries.
pub const JSON_EVENT_TAIL: usize = 256;

/// Schema version stamped into every JSON dump.
pub const JSON_VERSION: u64 = 1;

/// Renders a live service's observability state as Prometheus text or
/// versioned JSON. Cheap to clone; construct via
/// [`RenderService::exporter`] or [`ObsExporter::new`].
#[derive(Clone)]
pub struct ObsExporter {
    metrics: Arc<ServiceMetrics>,
    obs: Arc<ObsHub>,
}

impl ObsExporter {
    /// An exporter over a metrics sink and an observability hub (usually
    /// the store's — see `AnswerStore::obs`).
    pub fn new(metrics: Arc<ServiceMetrics>, obs: Arc<ObsHub>) -> Self {
        ObsExporter { metrics, obs }
    }

    /// The Prometheus-style text exposition: request/outcome counters,
    /// cache and stream counters, solve-tier gauges with per-tenant
    /// labels, and cumulative `le` buckets for the request-latency and
    /// per-stage histograms. Per-job series are deliberately absent —
    /// job ids are unbounded and would blow up scrape cardinality; the
    /// JSON dump carries them instead.
    pub fn prometheus_text(&self) -> String {
        let snap = self.metrics.snapshot();
        let stages = self.obs.stage_snapshot();
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };

        let _ = writeln!(
            out,
            "# HELP photon_requests_total Requests answered, by outcome."
        );
        let _ = writeln!(out, "# TYPE photon_requests_total counter");
        for (outcome, n) in [
            ("rendered", snap.rendered),
            ("cache_hit", snap.cache_hits),
            ("coalesced", snap.coalesced),
        ] {
            let _ = writeln!(out, "photon_requests_total{{outcome=\"{outcome}\"}} {n}");
        }
        counter(
            &mut out,
            "photon_dispatch_batches_total",
            "Dispatch batches drained.",
            snap.batches,
        );
        gauge(
            &mut out,
            "photon_qps",
            "Completed requests per second of uptime.",
            snap.qps,
        );
        gauge(
            &mut out,
            "photon_cache_entries",
            "Live view-cache entries.",
            snap.cache_entries as f64,
        );
        counter(
            &mut out,
            "photon_cache_purged_total",
            "Stale-epoch cache keys purged.",
            snap.cache_purged,
        );
        gauge(
            &mut out,
            "photon_stream_subscribers",
            "Live epoch subscriptions.",
            snap.stream.subscribers as f64,
        );
        counter(
            &mut out,
            "photon_stream_deltas_total",
            "Frame deltas pushed.",
            snap.stream.deltas,
        );
        counter(
            &mut out,
            "photon_stream_tiles_total",
            "Changed tiles shipped.",
            snap.stream.tiles,
        );
        counter(
            &mut out,
            "photon_stream_tile_bytes_total",
            "Pixel payload bytes shipped in deltas.",
            snap.stream.tile_bytes,
        );
        counter(
            &mut out,
            "photon_stream_bytes_saved_total",
            "Bytes saved vs a frame-per-epoch protocol.",
            snap.stream.bytes_saved(),
        );
        counter(
            &mut out,
            "photon_stream_deltas_squashed_total",
            "Deltas coalesced into a slow consumer's pending delta.",
            snap.stream.deltas_squashed,
        );
        counter(
            &mut out,
            "photon_stream_lag_events_total",
            "Times a subscriber entered the lagged (coalescing) state.",
            snap.stream.lag_events,
        );
        counter(
            &mut out,
            "photon_stream_wire_deltas_total",
            "PHOTSTRM1 delta frames written to sockets.",
            snap.stream.wire_deltas,
        );
        counter(
            &mut out,
            "photon_stream_wire_bytes_total",
            "PHOTSTRM1 bytes written to sockets (length prefixes included).",
            snap.stream.wire_bytes,
        );

        gauge(
            &mut out,
            "photon_solver_queue_depth",
            "Jobs waiting for a worker slice.",
            snap.solver.queue_depth as f64,
        );
        gauge(
            &mut out,
            "photon_solver_running",
            "Jobs holding a worker slice.",
            snap.solver.running as f64,
        );
        gauge(
            &mut out,
            "photon_solver_quota_blocked",
            "Jobs parked on exhausted tenant budgets.",
            snap.solver.quota_blocked as f64,
        );
        counter(
            &mut out,
            "photon_solver_done_total",
            "Jobs finished (converged or canceled).",
            snap.solver.done,
        );
        counter(
            &mut out,
            "photon_checkpoints_total",
            "Engine checkpoints frozen.",
            snap.solver.checkpoints_taken,
        );
        counter(
            &mut out,
            "photon_checkpoint_bytes_total",
            "Total PHOTCK1 bytes of frozen checkpoints.",
            snap.solver.checkpoint_bytes,
        );
        let solve_photons: u64 = snap.solver.jobs.iter().map(|j| j.emitted).sum();
        counter(
            &mut out,
            "photon_solve_photons_total",
            "Photons emitted across all solve jobs.",
            solve_photons,
        );
        gauge(
            &mut out,
            "photon_forest_node_bytes",
            "Hot packed-node arena bytes across all solve-job forests.",
            snap.solver.forest_node_bytes as f64,
        );
        gauge(
            &mut out,
            "photon_forest_leaf_bytes",
            "Cold leaf-statistics arena bytes across all solve-job forests.",
            snap.solver.forest_leaf_bytes as f64,
        );
        gauge(
            &mut out,
            "photon_forest_leaf_bins",
            "Leaf bins across all solve-job forests.",
            snap.solver.forest_leaf_bins as f64,
        );
        let _ = writeln!(
            out,
            "# HELP photon_tenant_slices_total Scheduler slices granted, per tenant."
        );
        let _ = writeln!(out, "# TYPE photon_tenant_slices_total counter");
        for t in &snap.solver.tenants {
            let _ = writeln!(
                out,
                "photon_tenant_slices_total{{tenant=\"{}\"}} {}",
                prom_escape(&t.tenant),
                t.slices
            );
        }
        let _ = writeln!(
            out,
            "# HELP photon_tenant_photons_total Photons emitted, per tenant."
        );
        let _ = writeln!(out, "# TYPE photon_tenant_photons_total counter");
        for t in &snap.solver.tenants {
            let _ = writeln!(
                out,
                "photon_tenant_photons_total{{tenant=\"{}\"}} {}",
                prom_escape(&t.tenant),
                t.photons_used
            );
        }

        histogram_text(
            &mut out,
            "photon_request_latency_us",
            "",
            &snap.latency_hist,
        );
        for (stage, hist) in stages.iter() {
            if hist.count() > 0 {
                histogram_text(
                    &mut out,
                    "photon_stage_duration_us",
                    &format!("stage=\"{}\"", stage.name()),
                    hist,
                );
            }
        }

        let recorder = self.obs.recorder();
        counter(
            &mut out,
            "photon_events_recorded_total",
            "Flight-recorder events recorded over the hub's lifetime.",
            recorder.recorded(),
        );
        counter(
            &mut out,
            "photon_events_dropped_total",
            "Flight-recorder events dropped to stay within capacity.",
            recorder.dropped(),
        );
        out
    }

    /// A versioned JSON dump: the full [`MetricsSnapshot`] (service,
    /// stream, and solve tiers with per-job detail), every non-empty stage
    /// histogram, and the newest [`JSON_EVENT_TAIL`] flight-recorder
    /// events.
    pub fn json(&self) -> String {
        let snap = self.metrics.snapshot();
        let stages = self.obs.stage_snapshot();
        let recorder = self.obs.recorder();
        let events = recorder.tail(JSON_EVENT_TAIL);
        let mut out = String::with_capacity(8192);
        out.push_str(&format!("{{\"version\":{JSON_VERSION},"));
        out.push_str(&format!(
            "\"service\":{{\"completed\":{},\"rendered\":{},\"cache_hits\":{},\"coalesced\":{},\"batches\":{},\"qps\":{:.3},\"cache_entries\":{},\"cache_purged\":{},\"seen_epoch_entries\":{}}},",
            snap.completed,
            snap.rendered,
            snap.cache_hits,
            snap.coalesced,
            snap.batches,
            snap.qps,
            snap.cache_entries,
            snap.cache_purged,
            snap.seen_epoch_entries,
        ));
        out.push_str(&format!(
            "\"latency\":{{\"count\":{},\"mean_ms\":{:.3},\"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3},\"histogram\":{}}},",
            snap.latency.count,
            snap.latency.mean_ms,
            snap.latency.p50_ms,
            snap.latency.p90_ms,
            snap.latency.p99_ms,
            snap.latency.max_ms,
            histogram_json(&snap.latency_hist),
        ));
        out.push_str(&format!(
            "\"stream\":{{\"subscribers\":{},\"deltas\":{},\"tiles\":{},\"tile_bytes\":{},\"full_frame_bytes\":{},\"bytes_saved\":{},\"deltas_squashed\":{},\"lag_events\":{},\"wire_deltas\":{},\"wire_bytes\":{}}},",
            snap.stream.subscribers,
            snap.stream.deltas,
            snap.stream.tiles,
            snap.stream.tile_bytes,
            snap.stream.full_frame_bytes,
            snap.stream.bytes_saved(),
            snap.stream.deltas_squashed,
            snap.stream.lag_events,
            snap.stream.wire_deltas,
            snap.stream.wire_bytes,
        ));
        out.push_str("\"stages\":{");
        let mut first = true;
        for (stage, hist) in stages.iter() {
            if hist.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", stage.name(), histogram_json(hist)));
        }
        out.push_str("},");
        out.push_str(&format!(
            "\"solver\":{{\"queue_depth\":{},\"running\":{},\"paused\":{},\"quota_blocked\":{},\"done\":{},\"checkpoints_taken\":{},\"checkpoint_bytes\":{},\"forest_node_bytes\":{},\"forest_leaf_bytes\":{},\"forest_leaf_bins\":{},\"jobs\":[",
            snap.solver.queue_depth,
            snap.solver.running,
            snap.solver.paused,
            snap.solver.quota_blocked,
            snap.solver.done,
            snap.solver.checkpoints_taken,
            snap.solver.checkpoint_bytes,
            snap.solver.forest_node_bytes,
            snap.solver.forest_leaf_bytes,
            snap.solver.forest_leaf_bins,
        ));
        for (i, j) in snap.solver.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"job\":{},\"tenant\":\"{}\",\"priority\":{},\"state\":\"{}\",\"emitted\":{},\"resumed_photons\":{},\"target_photons\":{},\"slices\":{},\"epochs\":{},\"photons_per_sec\":{:.1},\"epochs_per_sec\":{:.3},\"forest_node_bytes\":{},\"forest_leaf_bytes\":{},\"forest_leaf_bins\":{}}}",
                j.job,
                json_escape(&j.tenant),
                j.priority,
                j.state,
                j.emitted,
                j.resumed_photons,
                j.target_photons,
                j.slices,
                j.epochs,
                j.photons_per_sec,
                j.epochs_per_sec,
                j.forest_node_bytes,
                j.forest_leaf_bytes,
                j.forest_leaf_bins,
            ));
        }
        out.push_str("],\"tenants\":[");
        for (i, t) in snap.solver.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"slices\":{},\"photons_used\":{},\"budget_remaining\":{},\"quota_blocked_jobs\":{}}}",
                json_escape(&t.tenant),
                t.slices,
                t.photons_used,
                t.budget_remaining
                    .map_or("null".to_string(), |b| b.to_string()),
                t.quota_blocked_jobs,
            ));
        }
        out.push_str("]},");
        out.push_str(&format!(
            "\"recorder\":{{\"recorded\":{},\"dropped\":{},\"capacity\":{},\"events\":[",
            recorder.recorded(),
            recorder.dropped(),
            recorder.capacity(),
        ));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_json(e));
        }
        out.push_str("]}}");
        out
    }

    /// The full service snapshot the exporter formats from — for callers
    /// that want the typed data instead of a serialization.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

impl RenderService {
    /// An exporter over this service's metrics and its store's shared
    /// observability hub — the one-liner behind both
    /// [`ObsExporter::prometheus_text`] scrapes and [`ObsServer`]
    /// endpoints.
    pub fn exporter(&self) -> ObsExporter {
        ObsExporter::new(self.metrics_handle(), self.store().obs())
    }
}

/// Escapes a Prometheus label value.
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends one histogram in exposition format: cumulative `le` buckets
/// (empty buckets skipped), `+Inf`, `_sum`, `_count`. `labels` is either
/// empty or a ready `key="value"` fragment.
fn histogram_text(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# HELP {name} Microsecond histogram (log2 buckets).");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let sep = if labels.is_empty() { "" } else { "," };
    for (upper, cum) in h.cumulative() {
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cum}");
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

/// One histogram as JSON: count, sum, max, and `[upper, cumulative]`
/// bucket pairs.
fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .cumulative()
        .iter()
        .map(|(upper, cum)| format!("[{upper},{cum}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum,
        h.max,
        buckets.join(",")
    )
}

/// One flight-recorder event as JSON.
fn event_json(e: &ObsEvent) -> String {
    let mut out = format!(
        "{{\"seq\":{},\"ts_us\":{},\"tier\":\"{}\",\"kind\":\"{}\"",
        e.seq,
        e.ts_us,
        e.tier.name(),
        e.kind.name()
    );
    if let Some(scene) = e.ctx.scene {
        out.push_str(&format!(",\"scene\":{scene}"));
    }
    if let Some(job) = e.ctx.job {
        out.push_str(&format!(",\"job\":{job}"));
    }
    if let Some(tenant) = e.ctx.tenant.as_deref() {
        out.push_str(&format!(",\"tenant\":\"{}\"", json_escape(tenant)));
    }
    out.push_str(&format!(",\"payload\":{}}}", e.ctx.payload));
    out
}

/// A minimal blocking HTTP endpoint serving an [`ObsExporter`]:
/// `GET /metrics` answers the Prometheus text exposition,
/// `GET /metrics.json` the JSON dump, anything else 404. It is a probe,
/// not a web server: one request per connection, and a connection that
/// sends nothing for five seconds is closed. Dropping the server stops the
/// listener and joins its threads.
pub struct ObsServer {
    listener: Listener,
}

impl ObsServer {
    /// Binds `127.0.0.1:0` (an OS-assigned port — read it back from
    /// [`local_addr`](Self::local_addr)) and starts answering scrapes.
    pub fn serve(exporter: ObsExporter) -> std::io::Result<Self> {
        let listener = Listener::spawn(
            "photon-obs",
            REQUEST_TIMEOUT,
            MAX_CONNECTIONS,
            move |sock, _| {
                let _ = answer_scrape(sock, &exporter);
            },
        )?;
        Ok(ObsServer { listener })
    }

    /// The bound address, e.g. to format a scrape URL:
    /// `http://{local_addr}/metrics`.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }
}

/// Answers one scrape connection.
fn answer_scrape(mut stream: &TcpStream, exporter: &ObsExporter) -> std::io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients see a clean close.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            exporter.prometheus_text(),
        ),
        "/metrics.json" => ("200 OK", "application/json", exporter.json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::obs::{ObsCtx, ObsKind, Stage};
    use std::time::Duration as StdDuration;

    fn exporter_with_data() -> ObsExporter {
        let metrics = Arc::new(ServiceMetrics::new());
        let obs = Arc::new(ObsHub::default());
        metrics.record_request(
            StdDuration::from_millis(3),
            crate::metrics::RequestOutcome::Rendered,
        );
        metrics.record_delta(2, 1200, 4800);
        obs.stage(Stage::Render, 0.002);
        obs.emit(
            ObsKind::EpochPublished,
            ObsCtx {
                scene: Some(0),
                payload: 1,
                ..Default::default()
            },
        );
        ObsExporter::new(metrics, obs)
    }

    #[test]
    fn text_exposition_carries_the_series() {
        let text = exporter_with_data().prometheus_text();
        assert!(text.contains("photon_requests_total{outcome=\"rendered\"} 1"));
        assert!(text.contains("photon_stream_deltas_total 1"));
        assert!(text.contains("photon_request_latency_us_bucket"));
        assert!(text.contains("photon_stage_duration_us_bucket{stage=\"render\""));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("photon_events_recorded_total 1"));
        assert!(text.contains("photon_forest_node_bytes 0"));
        assert!(text.contains("photon_forest_leaf_bytes 0"));
        // Every non-comment line is `name{labels} value` shaped.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
            assert!(parts.next().is_some(), "no metric name in {line:?}");
        }
    }

    #[test]
    fn json_dump_is_versioned_and_carries_events() {
        let json = exporter_with_data().json();
        assert!(json.starts_with("{\"version\":1,"));
        assert!(json.contains("\"kind\":\"epoch-published\""));
        assert!(json.contains("\"stages\":{\"render\":"));
        assert!(json.contains("\"completed\":1"));
        assert!(json.contains("\"forest_node_bytes\":0"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency set.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced JSON structure");
    }

    #[test]
    fn obs_server_answers_both_routes_then_stops() {
        let server = ObsServer::serve(exporter_with_data()).expect("bind loopback");
        let addr = server.local_addr();
        let fetch = |path: &str| -> String {
            let mut conn = TcpStream::connect(addr).expect("connect");
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            use std::io::Read;
            conn.read_to_string(&mut body).expect("read response");
            body
        };
        let text = fetch("/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("photon_requests_total"));
        let json = fetch("/metrics.json");
        assert!(json.contains("\"version\":1"));
        assert!(fetch("/nope").starts_with("HTTP/1.1 404"));
        drop(server); // joins cleanly
    }
}
