//! End-to-end acceptance for the time-series + SLO layer: a real
//! `HacServer` on loopback behind a `ChaosProxy`, a reindex daemon, a
//! 50 ms sampling interval, and the obs endpoints — then:
//!
//! 1. `hacsh top` renders live windowed data (rates, percentiles) while
//!    serve + daemon are running;
//! 2. `/timeseries` returns multiple windows each holding ≥2 real
//!    sampled points;
//! 3. once the objective reads `ok` on healthy traffic, injecting
//!    latency through the chaos proxy breaches a tight latency SLO, which
//!    surfaces in `/alerts`, `slo status`, and the
//!    `hac_slo_breaches_total` counter.
//!
//! Everything shares one process-global registry and time series, so
//! this lives in its own test binary and runs as a single scripted
//! scenario.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_core::{HacFs, ReindexDaemon};
use hac_net::{ChaosMode, ChaosProxy, ClientConfig, HacServer, NetRemote, ServerConfig};
use hac_obs::{SloSpec, SloState};
use hac_remote::RemoteHac;
use hac_shell::Shell;
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect obs server");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let code: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// A server-side HacFs exporting `/pub`.
fn export_fs() -> Arc<HacFs> {
    let fs = Arc::new(HacFs::new());
    fs.mkdir_p(&p("/pub")).unwrap();
    fs.save(&p("/pub/fp.txt"), b"fingerprint ridge minutiae analysis")
        .unwrap();
    fs.save(&p("/pub/survey.txt"), b"semantic file system survey")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    fs
}

/// The `net-latency` objective's current state.
fn net_latency() -> SloState {
    hac_obs::slo::engine()
        .status()
        .into_iter()
        .find(|s| s.spec.name == "net-latency")
        .expect("net-latency installed")
        .state
}

#[test]
fn top_timeseries_and_slo_breach_end_to_end() {
    // Real TCP export behind a fault injector.
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(RemoteHac::new(
            "colleague",
            export_fs(),
            p("/pub"),
        ))],
        ServerConfig::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::start(server.local_addr()).unwrap();
    let mut ccfg = ClientConfig::default();
    ccfg.retry.max_attempts = 2;
    ccfg.retry.base_delay = Duration::from_millis(2);
    ccfg.retry.request_timeout = Duration::from_secs(2);
    let client = Arc::new(NetRemote::connect(
        "colleague",
        &proxy.local_addr().to_string(),
        ccfg,
    ));

    // Local fs with a networked semantic mount plus a reindex daemon —
    // the "serve + daemon" operational posture from the issue.
    let fs = Arc::new(HacFs::new());
    fs.mkdir_p(&p("/docs")).unwrap();
    fs.save(&p("/docs/a.txt"), b"fingerprint patterns").unwrap();
    fs.mkdir_p(&p("/library")).unwrap();
    fs.smount(&p("/library"), client.clone() as _).unwrap();
    fs.smkdir(&p("/library/fp"), "fingerprint").unwrap();
    let daemon = ReindexDaemon::spawn(Arc::clone(&fs), Duration::from_millis(20));
    // After the daemon, which installs the configured (1 s) interval.
    hac_obs::timeseries::global().set_interval_ms(50);

    // A tight latency objective the chaos proxy can break on demand,
    // alongside the stock set (so `top` shows a realistic panel).
    let mut slos = SloSpec::default_set();
    slos.push(
        SloSpec::parse("net-latency: hac_net_request_duration_us p99 < 5ms over 2s").unwrap(),
    );
    hac_obs::slo::install(&slos);

    let routes = hac_obs::http::Routes {
        status: Arc::new(|| "{}".to_string()),
        fleet: None,
    };
    let obs = HacServer::serve_obs("127.0.0.1:0", routes, ServerConfig::default()).unwrap();
    let obs_addr = obs.local_addr().to_string();

    // Phase 1: healthy traffic through the passthrough proxy, with
    // samples between the rounds so every window holds real points.
    hac_obs::sample_now();
    for _ in 0..4 {
        for _ in 0..5 {
            client.ping().unwrap();
        }
        fs.ssync(&p("/")).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        hac_obs::sample_now();
    }

    // `/timeseries`: two different windows, each with ≥2 real points.
    for window in [10, 60] {
        let (code, body) = http_get(
            &obs_addr,
            &format!("/timeseries?metric=hac_net_requests_total&window={window}"),
        );
        assert_eq!(code, 200, "{body}");
        assert!(
            body.contains(&format!("\"window_secs\":{window}")),
            "{body}"
        );
        let points = body.matches("\"t_us\":").count();
        assert!(points >= 2, "window {window}: {points} points in {body}");
    }
    let (code, _) = http_get(&obs_addr, "/timeseries?metric=no_such_metric&window=10");
    assert_eq!(code, 404);

    // `hacsh top` renders live windowed data from the same registry.
    let mut sh = Shell::over(Arc::clone(&fs));
    let top = sh.exec("top").unwrap();
    assert!(top.contains("hac top — sampling @ 50ms"), "{top}");
    assert!(top.contains("server rps"), "{top}");
    assert!(top.contains("alerts"), "{top}");
    let slo_before = sh.exec("slo status").unwrap();
    assert!(slo_before.contains("net-latency"), "{slo_before}");

    // The breach counter moves only on a transition into breach, so
    // phase 2 has to start from `ok`. The daemon has fed `top`; stop it,
    // because its remote searches (and even idle-paced pings, on a small
    // shared host) can take several milliseconds at the client and hold
    // a 5 ms p99 above budget. With no requests in the 2 s fast window
    // the objective reads `ok`; the slow window keeps phase 1's healthy
    // traffic.
    let status = daemon.stop();
    assert!(status.ok_passes > 0, "{status:?}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while net_latency() != SloState::Ok {
        assert!(
            Instant::now() < deadline,
            "net-latency never settled to ok: {}",
            hac_obs::slo::engine().to_json()
        );
        std::thread::sleep(Duration::from_millis(50));
        hac_obs::sample_now();
    }

    // Phase 2: 50 ms of injected latency per request — an order of
    // magnitude over the 5 ms p99 objective. Drive slow requests until
    // the engine records the breach (fast and slow windows both blown).
    let breaches = hac_obs::counter("hac_slo_breaches_total", &[("slo", "net-latency")]);
    let base = breaches.get();
    proxy.set_mode(ChaosMode::Latency(Duration::from_millis(50)));
    let deadline = Instant::now() + Duration::from_secs(20);
    while breaches.get() == base {
        assert!(
            Instant::now() < deadline,
            "SLO never breached under injected latency"
        );
        client.ping().unwrap();
        hac_obs::sample_now();
    }

    // The breach is visible everywhere the issue promises.
    let (code, alerts) = http_get(&obs_addr, "/alerts");
    assert_eq!(code, 200);
    assert!(alerts.contains("net-latency"), "{alerts}");
    assert!(alerts.contains("breach"), "{alerts}");
    let slo_after = sh.exec("slo status").unwrap();
    assert!(slo_after.contains("net-latency"), "{slo_after}");
    assert!(
        slo_after.contains("breach") || slo_after.contains("warn"),
        "{slo_after}"
    );
    let top_after = sh.exec("top").unwrap();
    assert!(top_after.contains("alerts"), "{top_after}");

    proxy.set_mode(ChaosMode::Passthrough);
    obs.shutdown();
    proxy.stop();
    server.shutdown();
}
