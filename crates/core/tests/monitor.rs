//! Live monitoring plane contracts.
//!
//! The monitoring plane (HTTP server, SSE broadcast, time-series recorder,
//! trace collector) must be a pure *read-side* observer: a campaign served
//! live is byte-identical to the same campaign unobserved, `/status`
//! answers agree with the final `CampaignStats`, and a campaign that dies
//! still flushes its sinks.

use lego::campaign::{run, run_campaign, run_engine, Budget, CampaignSpec, CampaignStats};
use lego::campaign::{FuzzEngine, ParallelOpts};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::http::MonitorConfig;
use lego::observe::{
    BroadcastSink, Event, EventSink, MetricsRegistry, MonitorServer, Telemetry, TimeSeriesRecorder,
    TraceCollector,
};
use lego_dbms::ExecReport;
use lego_sqlast::{Dialect, TestCase};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_monitor_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

fn serial_stats(seed: u64, budget: Budget, tel: &Telemetry) -> CampaignStats {
    let cfg = Config { rng_seed: seed, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
    run_engine(&CampaignSpec::new(Dialect::Postgres, budget), tel, &mut engine)
        .expect("campaign completes")
}

#[test]
fn status_and_metrics_agree_with_campaign_stats() {
    let budget = Budget::execs(200);
    let broadcast = Arc::new(BroadcastSink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let tel = Telemetry::builder()
        .metrics(metrics.clone())
        .live_sink(broadcast.clone())
        .seed(0x5eed)
        .build();
    let config = MonitorConfig {
        run_name: "monitor-test".into(),
        workers: 1,
        seed: 0x5eed,
        extra: vec![("dialect".into(), "postgres".into())],
    };
    let mut server =
        MonitorServer::bind("127.0.0.1:0", tel.clone(), Some(broadcast), config).unwrap();
    let addr = server.local_addr();

    assert!(get(addr, "/healthz").ends_with("ok\n"));

    let stats = serial_stats(0x5eed, budget, &tel);

    // The vendored serde has no JSON parser, so the consistency check pins
    // exact substrings of the handcrafted /status JSON.
    let status = get(addr, "/status");
    assert!(status.contains("\"run\":\"monitor-test\""), "{status}");
    assert!(status.contains(&format!("\"execs\":{}", stats.execs)), "{status}");
    assert!(status.contains(&format!("\"branches\":{}", stats.branches)), "{status}");
    assert!(status.contains(&format!("\"corpus\":{}", stats.corpus_size)), "{status}");
    assert!(status.contains(&format!("\"bugs\":{}", stats.bugs.len())), "{status}");
    assert!(status.contains(&format!("\"logic_bugs\":{}", stats.logic_bugs.len())), "{status}");
    assert!(status.contains("\"stage_profile\":{"), "{status}");
    assert!(status.contains("\"stage\":\"execution\""), "{status}");

    let prom = get(addr, "/metrics");
    assert!(prom.contains(&format!("lego_execs_total {}", stats.execs)), "{prom}");
    assert!(prom.contains("# TYPE lego_exec_latency_us histogram"), "{prom}");
    assert!(prom.contains("lego_exec_latency_us_count"), "{prom}");
    assert_eq!(
        metrics.histogram_stats("lego_exec_latency_us").map(|(_, n)| n),
        Some(stats.execs as u64),
        "one latency observation per exec"
    );

    server.shutdown();
}

#[test]
fn full_monitoring_plane_does_not_perturb_the_campaign() {
    let budget = Budget::execs(250);
    let dir = tmpdir("parity");

    // Bare run: no telemetry at all.
    let cfg = Config { rng_seed: 0xabcd, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
    let off = run_campaign(&mut engine, Dialect::Postgres, budget);

    // Fully instrumented run: server + SSE client + recorder + trace.
    let broadcast = Arc::new(BroadcastSink::new());
    let trace = Arc::new(TraceCollector::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let tel = Telemetry::builder()
        .metrics(metrics)
        .live_sink(broadcast.clone())
        .trace(trace.clone())
        .seed(0xabcd)
        .build();
    let mut server =
        MonitorServer::bind("127.0.0.1:0", tel.clone(), Some(broadcast), MonitorConfig::default())
            .unwrap();
    let mut recorder =
        TimeSeriesRecorder::start(&dir.join("plot_data.csv"), 25, tel.live_arc().unwrap()).unwrap();
    // Attach a live SSE client for the duration of the run.
    let addr = server.local_addr();
    let mut sse = TcpStream::connect(addr).unwrap();
    sse.write_all(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();

    let on = serial_stats(0xabcd, budget, &tel);
    recorder.finish();
    let trace_path = dir.join("trace.json");
    trace.write_chrome_trace(&trace_path).unwrap();
    server.shutdown();
    drop(sse);

    assert_eq!(
        off.deterministic_json(),
        on.deterministic_json(),
        "the monitoring plane perturbed the campaign"
    );
    assert!(trace.span_count() > 0, "trace recorded no spans");
    let trace_text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace_text.contains("\"traceEvents\":["), "{trace_text}");
    assert!(trace_text.contains("\"name\":\"execution\""), "{trace_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recorder wired to the *campaign's* live counters samples real progress.
#[test]
fn plot_data_tracks_campaign_progress() {
    let dir = tmpdir("plot");
    let tel = Telemetry::builder().seed(1).build();
    let csv = dir.join("plot_data.csv");
    let mut recorder = TimeSeriesRecorder::start(&csv, 20, tel.live_arc().unwrap()).unwrap();
    let stats = serial_stats(1, Budget::execs(300), &tel);
    recorder.finish();

    let text = std::fs::read_to_string(&csv).unwrap();
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert!(rows.len() >= 2, "want baseline + closing row: {text}");
    let parsed: Vec<Vec<f64>> =
        rows.iter().map(|r| r.split(',').map(|v| v.parse().unwrap()).collect()).collect();
    let last = parsed.last().unwrap();
    assert_eq!(last[1] as usize, stats.execs, "closing row execs: {text}");
    assert!(last[3] > 0.0, "closing row branches: {text}");
    // Time and branches are monotone across rows.
    for pair in parsed.windows(2) {
        assert!(pair[1][0] >= pair[0][0], "time not monotone");
        assert!(pair[1][3] >= pair[0][3], "branches not monotone");
    }
    let json = std::fs::read_to_string(dir.join("plot_data.json")).unwrap();
    assert!(json.starts_with("{\"columns\":[\"t_s\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sink that records how often it was flushed — the observable side
/// effect of `Telemetry::finish`.
#[derive(Default)]
struct FlushProbe {
    flushes: AtomicUsize,
}

impl EventSink for FlushProbe {
    fn emit(&self, _ev: &Event) {}
    fn flush(&self) {
        self.flushes.fetch_add(1, Ordering::SeqCst);
    }
}

/// An engine whose every case panics immediately: all workers die and the
/// resilient supervisor errors out — which must still flush telemetry.
struct InstantDeath;

impl FuzzEngine for InstantDeath {
    fn name(&self) -> &'static str {
        "INSTANT-DEATH"
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        panic!("injected instant worker death");
    }
    fn feedback(&mut self, _case: &Arc<TestCase>, _report: &ExecReport, _nc: bool) {}
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        Vec::new()
    }
}

#[test]
fn dead_campaign_still_flushes_telemetry() {
    let probe = Arc::new(FlushProbe::default());
    let tel = Telemetry::builder().sink(probe.clone()).heartbeat(2).build();
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers: 2 },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(5_000))
    };
    let result = run(&spec, &tel, |_w| Box::new(InstantDeath) as Box<dyn FuzzEngine + Send>);
    assert!(result.is_err(), "all workers dead must surface an error");
    assert!(
        probe.flushes.load(Ordering::SeqCst) > 0,
        "error exit skipped the final telemetry flush"
    );
}
