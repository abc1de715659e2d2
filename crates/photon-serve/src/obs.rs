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

use crate::metrics::{
    LatencySummary, MetricsSnapshot, ServiceMetrics, SolveJobMetrics, SolverMetricsSnapshot,
    StreamMetricsSnapshot, TenantMetrics,
};
use crate::net::{Listener, MAX_CONNECTIONS, REQUEST_TIMEOUT};
use crate::RenderService;
use photon_core::json::{json_array, JsonObject};
use photon_core::obs::{FlightRecorder, HistogramSnapshot, ObsEvent, StageTimingsSnapshot};
use photon_core::ObsHub;
use std::fmt::{Display, Write as _};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use Value::{Float, Int, Null, Text};

/// How many flight-recorder events the JSON dump carries.
pub const JSON_EVENT_TAIL: usize = 256;

/// Schema version stamped into every JSON dump.
pub const JSON_VERSION: u64 = 1;

/// The most bytes of request head (request line + headers) a scrape may
/// send; past it the answer is `400`. A probe's `GET` is a few hundred.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// What a [`Series`] row reads off its source.
enum Value<'a> {
    Int(u64),
    Float(f64),
    /// Strings exist only in JSON; in the text they are labels.
    Text(&'a str),
    /// Not applicable (an unmetered tenant's budget): `null` in JSON, no
    /// sample in the text.
    Null,
}

/// The text-exposition half of a [`Series`]: metric family, `counter` or
/// `gauge`, help line, and a ready `key="value"` label fragment (empty
/// for none).
#[derive(Clone, Copy)]
struct Prom {
    family: &'static str,
    kind: &'static str,
    help: &'static str,
    label: &'static str,
}

/// One reported number, declared once: its key in the JSON dump, what the
/// text exposition calls it, and how to read it off a `T`. Both exporters
/// iterate these tables and name no field themselves, so a row cannot
/// reach one format and miss the other.
struct Series<T> {
    key: &'static str,
    read: for<'a> fn(&'a T) -> Value<'a>,
    prom: Option<Prom>,
}

const fn row<T>(
    key: &'static str,
    read: for<'a> fn(&'a T) -> Value<'a>,
    prom: Option<Prom>,
) -> Series<T> {
    Series { key, read, prom }
}

const fn prom(
    kind: &'static str,
    family: &'static str,
    help: &'static str,
    label: &'static str,
) -> Option<Prom> {
    Some(Prom {
        family,
        kind,
        help,
        label,
    })
}

const fn counter(name: &'static str, help: &'static str) -> Option<Prom> {
    prom("counter", name, help, "")
}

const fn gauge(name: &'static str, help: &'static str) -> Option<Prom> {
    prom("gauge", name, help, "")
}

/// One family split by an `outcome` label; its three rows sit together.
const fn requests(label: &'static str) -> Option<Prom> {
    prom(
        "counter",
        "photon_requests_total",
        "Requests answered, by outcome.",
        label,
    )
}

/// Marks a row the text exposition leaves out: strings, the latency
/// summary (the text carries the histogram it is read from), and every
/// per-job row — job ids are unbounded and would blow up scrape
/// cardinality.
const JSON_ONLY: Option<Prom> = None;

// The series tables, one per JSON object. Columns: JSON key, how the value
// is read, and the Prometheus family with its kind and help (or
// `JSON_ONLY`). One row per line, so rustfmt is kept off them.

#[rustfmt::skip]
const SERVICE: &[Series<MetricsSnapshot>] = &[
    row("completed",          |s| Int(s.completed),          counter("photon_requests_completed_total", "Requests answered (rendered, coalesced or cache hits).")),
    row("rendered",           |s| Int(s.rendered),           requests("outcome=\"rendered\"")),
    row("cache_hits",         |s| Int(s.cache_hits),         requests("outcome=\"cache_hit\"")),
    row("coalesced",          |s| Int(s.coalesced),          requests("outcome=\"coalesced\"")),
    row("batches",            |s| Int(s.batches),            counter("photon_dispatch_batches_total", "Dispatch batches drained.")),
    row("qps",                |s| Float(s.qps),              gauge("photon_qps", "Completed requests per second of uptime.")),
    row("cache_entries",      |s| Int(s.cache_entries),      gauge("photon_cache_entries", "Live view-cache entries.")),
    row("cache_purged",       |s| Int(s.cache_purged),       counter("photon_cache_purged_total", "Stale-epoch cache keys purged.")),
    row("seen_epoch_entries", |s| Int(s.seen_epoch_entries), gauge("photon_seen_epoch_entries", "Scenes the dispatcher tracks a freshest-seen epoch for.")),
];

#[rustfmt::skip]
const LATENCY: &[Series<LatencySummary>] = &[
    row("count",   |l| Int(l.count),     JSON_ONLY),
    row("mean_ms", |l| Float(l.mean_ms), JSON_ONLY),
    row("p50_ms",  |l| Float(l.p50_ms),  JSON_ONLY),
    row("p90_ms",  |l| Float(l.p90_ms),  JSON_ONLY),
    row("p99_ms",  |l| Float(l.p99_ms),  JSON_ONLY),
    row("max_ms",  |l| Float(l.max_ms),  JSON_ONLY),
];

#[rustfmt::skip]
const STREAM: &[Series<StreamMetricsSnapshot>] = &[
    row("subscribers",      |s| Int(s.subscribers),      gauge("photon_stream_subscribers", "Live epoch subscriptions.")),
    row("deltas",           |s| Int(s.deltas),           counter("photon_stream_deltas_total", "Frame deltas pushed.")),
    row("tiles",            |s| Int(s.tiles),            counter("photon_stream_tiles_total", "Changed tiles shipped.")),
    row("tile_bytes",       |s| Int(s.tile_bytes),       counter("photon_stream_tile_bytes_total", "Pixel payload bytes shipped in deltas.")),
    row("full_frame_bytes", |s| Int(s.full_frame_bytes), counter("photon_stream_full_frame_bytes_total", "Pixel payload bytes a frame-per-epoch protocol would have shipped.")),
    row("bytes_saved",      |s| Int(s.bytes_saved()),    counter("photon_stream_bytes_saved_total", "Bytes saved vs a frame-per-epoch protocol.")),
    row("deltas_squashed",  |s| Int(s.deltas_squashed),  counter("photon_stream_deltas_squashed_total", "Deltas coalesced into a slow consumer's pending delta.")),
    row("lag_events",       |s| Int(s.lag_events),       counter("photon_stream_lag_events_total", "Times a subscriber entered the lagged (coalescing) state.")),
    row("wire_deltas",      |s| Int(s.wire_deltas),      counter("photon_stream_wire_deltas_total", "PHOTSTRM1 delta frames written to sockets.")),
    row("wire_bytes",       |s| Int(s.wire_bytes),       counter("photon_stream_wire_bytes_total", "PHOTSTRM1 bytes written to sockets (length prefixes included).")),
];

#[rustfmt::skip]
const SOLVER: &[Series<SolverMetricsSnapshot>] = &[
    row("queue_depth",       |s| Int(s.queue_depth),       gauge("photon_solver_queue_depth", "Jobs waiting for a worker slice.")),
    row("running",           |s| Int(s.running),           gauge("photon_solver_running", "Jobs holding a worker slice.")),
    row("paused",            |s| Int(s.paused),            gauge("photon_solver_paused", "Jobs paused by their owner.")),
    row("quota_blocked",     |s| Int(s.quota_blocked),     gauge("photon_solver_quota_blocked", "Jobs parked on exhausted tenant budgets.")),
    row("done",              |s| Int(s.done),              counter("photon_solver_done_total", "Jobs finished (converged, canceled or failed).")),
    row("checkpoints_taken", |s| Int(s.checkpoints_taken), counter("photon_checkpoints_total", "Engine checkpoints frozen.")),
    row("checkpoint_bytes",  |s| Int(s.checkpoint_bytes),  counter("photon_checkpoint_bytes_total", "Total PHOTCK1 bytes of frozen checkpoints.")),
    row("solve_photons",     |s| Int(s.jobs.iter().map(|j| j.emitted).sum()), counter("photon_solve_photons_total", "Photons emitted across all solve jobs.")),
    row("forest_node_bytes", |s| Int(s.forest_node_bytes), gauge("photon_forest_node_bytes", "Hot packed-node arena bytes across all solve-job forests.")),
    row("forest_leaf_bytes", |s| Int(s.forest_leaf_bytes), gauge("photon_forest_leaf_bytes", "Cold leaf-statistics arena bytes across all solve-job forests.")),
    row("forest_leaf_bins",  |s| Int(s.forest_leaf_bins),  gauge("photon_forest_leaf_bins", "Leaf bins across all solve-job forests.")),
];

/// One object per job in the JSON dump's `solver.jobs`.
#[rustfmt::skip]
const JOB: &[Series<SolveJobMetrics>] = &[
    row("job",               |j| Int(j.job),                JSON_ONLY),
    row("tenant",            |j| Text(&j.tenant),           JSON_ONLY),
    row("priority",          |j| Int(j.priority as u64),    JSON_ONLY),
    row("state",             |j| Text(j.state),             JSON_ONLY),
    row("emitted",           |j| Int(j.emitted),            JSON_ONLY),
    row("resumed_photons",   |j| Int(j.resumed_photons),    JSON_ONLY),
    row("target_photons",    |j| Int(j.target_photons),     JSON_ONLY),
    row("slices",            |j| Int(j.slices),             JSON_ONLY),
    row("epochs",            |j| Int(j.epochs),             JSON_ONLY),
    row("photons_per_sec",   |j| Float(j.photons_per_sec),  JSON_ONLY),
    row("epochs_per_sec",    |j| Float(j.epochs_per_sec),   JSON_ONLY),
    row("forest_node_bytes", |j| Int(j.forest_node_bytes),  JSON_ONLY),
    row("forest_leaf_bytes", |j| Int(j.forest_leaf_bytes),  JSON_ONLY),
    row("forest_leaf_bins",  |j| Int(j.forest_leaf_bins),   JSON_ONLY),
];

/// One object per tenant in `solver.tenants`; in the text, one sample per
/// tenant under a `tenant` label.
#[rustfmt::skip]
const TENANT: &[Series<TenantMetrics>] = &[
    row("tenant",             |t| Text(&t.tenant),                      JSON_ONLY),
    row("slices",             |t| Int(t.slices),                        counter("photon_tenant_slices_total", "Scheduler slices granted, per tenant.")),
    row("photons_used",       |t| Int(t.photons_used),                  counter("photon_tenant_photons_total", "Photons emitted, per tenant.")),
    row("budget_remaining",   |t| t.budget_remaining.map_or(Null, Int), gauge("photon_tenant_budget_remaining", "Photon budget still grantable, per metered tenant.")),
    row("quota_blocked_jobs", |t| Int(t.quota_blocked_jobs),            gauge("photon_tenant_quota_blocked_jobs", "Jobs parked on the tenant's exhausted budget.")),
];

#[rustfmt::skip]
const RECORDER: &[Series<FlightRecorder>] = &[
    row("recorded", |r| Int(r.recorded()),        counter("photon_events_recorded_total", "Flight-recorder events recorded over the hub's lifetime.")),
    row("dropped",  |r| Int(r.dropped()),         counter("photon_events_dropped_total", "Flight-recorder events dropped to stay within capacity.")),
    row("capacity", |r| Int(r.capacity() as u64), gauge("photon_events_capacity", "Flight-recorder events retained at most.")),
];

/// Renders a live service's observability state as Prometheus text or
/// versioned JSON. Cheap to clone; construct via
/// [`RenderService::exporter`] or [`ObsExporter::new`].
#[derive(Clone)]
pub struct ObsExporter {
    metrics: Arc<ServiceMetrics>,
    obs: Arc<ObsHub>,
}

/// Everything one export formats, copied out before any formatting.
struct Scrape<'a> {
    snap: MetricsSnapshot,
    stages: StageTimingsSnapshot,
    recorder: &'a FlightRecorder,
}

impl ObsExporter {
    /// An exporter over a metrics sink and an observability hub (usually
    /// the store's — see `AnswerStore::obs`).
    pub fn new(metrics: Arc<ServiceMetrics>, obs: Arc<ObsHub>) -> Self {
        ObsExporter { metrics, obs }
    }

    fn scrape(&self) -> Scrape<'_> {
        Scrape {
            snap: self.metrics.snapshot(),
            stages: self.obs.stage_snapshot(),
            recorder: self.obs.recorder(),
        }
    }

    /// The Prometheus-style text exposition: every row of the series
    /// table not marked JSON-only — request/outcome, cache and stream
    /// counters, solve-tier gauges, per-tenant samples under a `tenant`
    /// label, recorder counters — plus cumulative `le` buckets for the
    /// request-latency and per-stage histograms. One `# HELP` / `# TYPE`
    /// pair per family, its samples contiguous.
    pub fn prometheus_text(&self) -> String {
        render_text(&self.scrape())
    }

    /// A versioned JSON dump: every row of the series table (service,
    /// latency, stream and solve tiers with per-job and per-tenant
    /// detail), every non-empty stage histogram, and the newest
    /// [`JSON_EVENT_TAIL`] flight-recorder events.
    pub fn json(&self) -> String {
        render_json(&self.scrape())
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

fn render_text(scrape: &Scrape) -> String {
    let snap = &scrape.snap;
    let label = |t: &TenantMetrics| format!("tenant=\"{}\"", prom_escape(&t.tenant));
    let tenants: Vec<_> = snap.solver.tenants.iter().map(|t| (t, label(t))).collect();
    let timed = scrape.stages.iter().filter(|(_, hist)| hist.count() > 0);
    let stages = timed.map(|(stage, hist)| (format!("stage=\"{}\"", stage.name()), hist));
    let mut out = String::with_capacity(4096);
    text_rows(&mut out, SERVICE, &[(snap, String::new())]);
    text_rows(&mut out, STREAM, &[(&snap.stream, String::new())]);
    text_rows(&mut out, SOLVER, &[(&snap.solver, String::new())]);
    text_rows(&mut out, TENANT, &tenants);
    histogram_text(
        &mut out,
        "photon_request_latency_us",
        "Request latency in microseconds (log2 buckets).",
        [(String::new(), &snap.latency_hist)],
    );
    histogram_text(
        &mut out,
        "photon_stage_duration_us",
        "Pipeline stage duration in microseconds, by stage (log2 buckets).",
        stages,
    );
    text_rows(&mut out, RECORDER, &[(scrape.recorder, String::new())]);
    out
}

fn render_json(scrape: &Scrape) -> String {
    let snap = &scrape.snap;
    let mut latency = json_rows(LATENCY, &snap.latency);
    latency.raw("histogram", &histogram_json(&snap.latency_hist));
    let mut stages = JsonObject::new();
    for (stage, hist) in scrape.stages.iter().filter(|(_, hist)| hist.count() > 0) {
        stages.raw(stage.name(), &histogram_json(hist));
    }
    let mut solver = json_rows(SOLVER, &snap.solver);
    let jobs = snap.solver.jobs.iter().map(|j| json_rows(JOB, j).render());
    let tenants = snap
        .solver
        .tenants
        .iter()
        .map(|t| json_rows(TENANT, t).render());
    solver
        .raw("jobs", &json_array(jobs))
        .raw("tenants", &json_array(tenants));
    let events = scrape.recorder.tail(JSON_EVENT_TAIL);
    let mut recorder = json_rows(RECORDER, scrape.recorder);
    recorder.raw("events", &json_array(events.iter().map(event_json)));
    let mut root = JsonObject::new();
    root.int("version", JSON_VERSION)
        .raw("service", &json_rows(SERVICE, snap).render())
        .raw("latency", &latency.render())
        .raw("stream", &json_rows(STREAM, &snap.stream).render())
        .raw("stages", &stages.render())
        .raw("solver", &solver.render())
        .raw("recorder", &recorder.render());
    root.render()
}

/// Appends the text-visible rows of one table: a family's header when it
/// opens, then one sample per source, each under the row's label or the
/// source's (`sources` pairs every `T` with its label fragment).
fn text_rows<T>(out: &mut String, rows: &[Series<T>], sources: &[(&T, String)]) {
    let mut open = "";
    for (row, prom) in rows.iter().filter_map(|row| Some((row, row.prom?))) {
        if prom.family != open {
            header(out, prom.family, prom.kind, prom.help);
            open = prom.family;
        }
        for (source, label) in sources {
            let labels = format!("{}{label}", prom.label);
            match (row.read)(source) {
                Int(v) => sample(out, prom.family, &labels, v),
                Float(v) => sample(out, prom.family, &labels, v),
                Text(_) | Null => {}
            }
        }
    }
}

/// One table's rows as the fields of a JSON object.
fn json_rows<T>(rows: &[Series<T>], source: &T) -> JsonObject {
    let mut object = JsonObject::new();
    for row in rows {
        match (row.read)(source) {
            Int(v) => object.int(row.key, v),
            Float(v) => object.num(row.key, v),
            Text(v) => object.text(row.key, v),
            Null => object.raw(row.key, "null"),
        };
    }
    object
}

/// Appends a family's `# HELP` / `# TYPE` pair. The exposition format
/// allows one per family, ahead of all of its samples.
fn header(out: &mut String, family: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} {kind}");
}

/// Appends one sample line; `labels` is empty or ready `key="value"`
/// fragments.
fn sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

/// Escapes a Prometheus label value.
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends one histogram family in exposition format: the header, then
/// per labelled histogram its cumulative `le` buckets (empty buckets
/// skipped), `+Inf`, `_sum` and `_count`.
fn histogram_text<'a>(
    out: &mut String,
    family: &str,
    help: &str,
    histograms: impl IntoIterator<Item = (String, &'a HistogramSnapshot)>,
) {
    header(out, family, "histogram", help);
    let bucket = format!("{family}_bucket");
    for (labels, h) in histograms {
        let sep = if labels.is_empty() { "" } else { "," };
        let finite = h.cumulative().into_iter();
        let buckets = finite.map(|(upper, cum)| (upper.to_string(), cum));
        for (upper, cum) in buckets.chain([("+Inf".to_string(), h.count())]) {
            sample(out, &bucket, &format!("{labels}{sep}le=\"{upper}\""), cum);
        }
        sample(out, &format!("{family}_sum"), &labels, h.sum);
        sample(out, &format!("{family}_count"), &labels, h.count());
    }
}

/// One histogram as JSON: count, sum, max, and `[upper, cumulative]`
/// bucket pairs.
fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets = h.cumulative().into_iter();
    let mut object = JsonObject::new();
    object
        .int("count", h.count())
        .int("sum", h.sum)
        .int("max", h.max)
        .raw(
            "buckets",
            &json_array(buckets.map(|(upper, cum)| format!("[{upper},{cum}]"))),
        );
    object.render()
}

/// One flight-recorder event as JSON.
fn event_json(e: &ObsEvent) -> String {
    let mut object = JsonObject::new();
    object
        .int("seq", e.seq)
        .int("ts_us", e.ts_us)
        .text("tier", e.tier.name())
        .text("kind", e.kind.name());
    if let Some(scene) = e.ctx.scene {
        object.int("scene", scene as u64);
    }
    if let Some(job) = e.ctx.job {
        object.int("job", job);
    }
    if let Some(tenant) = e.ctx.tenant.as_deref() {
        object.text("tenant", tenant);
    }
    object.int("payload", e.ctx.payload).render()
}

/// A minimal blocking HTTP endpoint serving an [`ObsExporter`]:
/// `GET /metrics` answers the Prometheus text exposition,
/// `GET /metrics.json` the JSON dump, anything else 404. It is a probe,
/// not a web server: one request per connection, a request head over
/// 8 KiB is a 400, and a connection that sends nothing for five seconds is
/// closed. Dropping the server stops the listener and joins its threads.
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
    // Read the request line and drain the headers, so well-behaved clients
    // see a clean close — all through one `take`, so no peer can grow
    // `head` past the cap however long it avoids sending `\n`.
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_HEAD));
    let mut head = String::new();
    let within_cap = loop {
        let line_start = head.len();
        if reader.read_line(&mut head)? == 0 {
            break reader.get_ref().limit() > 0;
        }
        if head[line_start..].trim().is_empty() {
            break true;
        }
    };
    let request_line = head.lines().next().unwrap_or("");
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        _ if !within_cap => (
            "400 Bad Request",
            "text/plain",
            "request head too large\n".to_string(),
        ),
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

    /// A hub with two non-empty stages and a snapshot in which every
    /// number is different, so a value found in an export can only have
    /// come from its own row. Two tenants, one metered.
    fn fixture() -> (ObsHub, MetricsSnapshot) {
        let hub = ObsHub::new(2);
        hub.stage(Stage::Render, 0.002);
        hub.stage(Stage::Diff, 0.0005);
        hub.stage(Stage::Diff, 0.004);
        for _ in 0..3 {
            hub.emit(ObsKind::EpochPublished, ObsCtx::default());
        }
        let latency = photon_core::Histogram::new();
        latency.record(700);
        latency.record(90_000);
        let latency_hist = latency.snapshot();
        let tenant = |tenant: &str, base: u64, budget_remaining| TenantMetrics {
            tenant: tenant.into(),
            slices: base + 1,
            photons_used: base + 2,
            budget_remaining,
            quota_blocked_jobs: base + 3,
        };
        let job = SolveJobMetrics {
            job: 401,
            tenant: "met\"ered".into(),
            priority: 402,
            state: "running",
            emitted: 403,
            resumed_photons: 404,
            target_photons: 405,
            slices: 406,
            epochs: 407,
            photons_per_sec: 408.5,
            epochs_per_sec: 409.25,
            forest_node_bytes: 410,
            forest_leaf_bytes: 411,
            forest_leaf_bins: 412,
        };
        let snap = MetricsSnapshot {
            completed: 101,
            rendered: 102,
            cache_hits: 103,
            coalesced: 104,
            batches: 105,
            qps: 106.125,
            cache_entries: 107,
            cache_purged: 108,
            seen_epoch_entries: 109,
            stream: StreamMetricsSnapshot {
                subscribers: 201,
                deltas: 202,
                tiles: 203,
                tile_bytes: 204,
                full_frame_bytes: 2050,
                deltas_squashed: 206,
                lag_events: 207,
                wire_deltas: 208,
                wire_bytes: 209,
            },
            latency: LatencySummary::from_histogram(&latency_hist),
            latency_hist,
            speed: Default::default(),
            solver: SolverMetricsSnapshot {
                queue_depth: 301,
                running: 302,
                paused: 303,
                quota_blocked: 304,
                done: 305,
                checkpoints_taken: 306,
                checkpoint_bytes: 307,
                forest_node_bytes: 308,
                forest_leaf_bytes: 309,
                forest_leaf_bins: 310,
                jobs: vec![job],
                tenants: vec![
                    tenant("free", 500, None),
                    tenant("met\"ered", 600, Some(604)),
                ],
            },
        };
        (hub, snap)
    }

    fn exports(hub: &ObsHub, snap: &MetricsSnapshot) -> (String, String) {
        let scrape = Scrape {
            snap: snap.clone(),
            stages: hub.stage_snapshot(),
            recorder: hub.recorder(),
        };
        (render_text(&scrape), render_json(&scrape))
    }

    /// The exposition format allows one `TYPE` per family and wants a
    /// family's samples in one group: every sample must belong to the
    /// family whose header was the last one written.
    #[test]
    fn one_header_per_family_and_its_samples_contiguous() {
        let (hub, snap) = fixture();
        let (text, _) = exports(&hub, &snap);
        for stage in ["render", "diff"] {
            assert!(text.contains(&format!(
                "photon_stage_duration_us_count{{stage=\"{stage}\"}}"
            )));
        }
        let mut seen = std::collections::HashSet::new();
        let mut open = "";
        for line in text.lines() {
            if let Some(header) = line.strip_prefix("# TYPE ") {
                let (family, kind) = header.split_once(' ').expect("family and kind");
                assert!(seen.insert(family), "second TYPE line for {family}");
                assert!(["counter", "gauge", "histogram"].contains(&kind));
                open = family;
            } else if let Some(header) = line.strip_prefix("# HELP ") {
                assert!(!seen.contains(header.split(' ').next().unwrap()));
            } else {
                let name = line.split(['{', ' ']).next().unwrap();
                let suffix = name.strip_prefix(open).unwrap_or_else(|| {
                    panic!("sample {line:?} splits the samples of family {open}")
                });
                assert!(
                    ["", "_bucket", "_sum", "_count"].contains(&suffix),
                    "{line:?}"
                );
            }
        }
    }

    /// Checks one table against both exports: every row is in the JSON,
    /// and every row not marked JSON-only is in the text with the same
    /// value (or with no sample, where the JSON says `null`).
    fn assert_rows_in_both<T>(rows: &[Series<T>], source: &T, label: &str, text: &str, json: &str) {
        for row in rows {
            let (in_json, in_text) = match (row.read)(source) {
                Int(v) => (v.to_string(), Some(v.to_string())),
                Float(v) => (format!("{v:.6}"), Some(v.to_string())),
                Text(v) => (format!("\"{}\"", photon_core::obs::json_escape(v)), None),
                Null => ("null".to_string(), None),
            };
            let field = format!("\"{}\":{in_json}", row.key);
            assert!(
                json.contains(&format!("{field},")) || json.contains(&format!("{field}}}")),
                "{field} missing from the JSON dump"
            );
            let Some(prom) = row.prom else { continue };
            assert!(text.contains(&format!("# TYPE {} {}\n", prom.family, prom.kind)));
            let mut series = format!("\n{}", prom.family);
            if !(prom.label.is_empty() && label.is_empty()) {
                series.push_str(&format!("{{{}{label}}}", prom.label));
            }
            match in_text {
                Some(v) => assert!(text.contains(&format!("{series} {v}\n")), "{series} {v}"),
                None => assert!(
                    !text.contains(&format!("{series} ")),
                    "{series} has a sample"
                ),
            }
        }
    }

    #[test]
    fn every_row_reaches_both_formats_with_one_value() {
        let (hub, snap) = fixture();
        let (text, json) = exports(&hub, &snap);
        assert_rows_in_both(SERVICE, &snap, "", &text, &json);
        assert_rows_in_both(LATENCY, &snap.latency, "", &text, &json);
        assert_rows_in_both(STREAM, &snap.stream, "", &text, &json);
        assert_rows_in_both(SOLVER, &snap.solver, "", &text, &json);
        assert_rows_in_both(JOB, &snap.solver.jobs[0], "", &text, &json);
        assert_rows_in_both(RECORDER, hub.recorder(), "", &text, &json);
        let [free, metered] = &snap.solver.tenants[..] else {
            panic!("two tenants");
        };
        assert_rows_in_both(TENANT, free, "tenant=\"free\"", &text, &json);
        assert_rows_in_both(TENANT, metered, "tenant=\"met\\\"ered\"", &text, &json);
        assert!(text.contains("photon_tenant_budget_remaining{tenant=\"met\\\"ered\"} 604\n"));
        assert!(!text.contains("photon_tenant_budget_remaining{tenant=\"free\"}"));
        assert!(json.contains(
            "\"tenant\":\"free\",\"slices\":501,\"photons_used\":502,\"budget_remaining\":null,"
        ));
        assert!(json.contains("\"solve_photons\":403,"));
        assert!(text.contains("converged, canceled or failed"));
    }

    /// A peer that never sends `\n` must not grow the request buffer: the
    /// head is read through a `take`, and the answer past it is a 400 —
    /// at once, not after the read timeout.
    #[test]
    fn oversized_request_head_is_refused_at_once() {
        use std::io::Read;
        let server = ObsServer::serve(exporter_with_data()).expect("bind loopback");
        let started = std::time::Instant::now();
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        // The server may answer and close before the last byte is written,
        // and its close with bytes unread is a reset: neither is the
        // failure under test.
        let _ = conn.write_all(&[b'A'; 16 * 1024]);
        let mut response = Vec::new();
        let _ = conn.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 400"), "got {response:?}");
        assert!(started.elapsed() < REQUEST_TIMEOUT / 2);
    }
}
