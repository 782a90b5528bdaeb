//! Periodic reindexing daemon (§2.4).
//!
//! "At present, HAC invokes the CBA mechanism to reindex the file system
//! periodically (say, once a day or once an hour), determined by the user."
//! [`ReindexDaemon`] runs `ssync("/")` on a fixed interval in a background
//! thread until dropped or stopped. Intervals are wall-clock here (the only
//! place real time appears in the system); tests use
//! [`ReindexDaemon::tick_now`] for determinism.
//!
//! A failing pass must not kill the daemon — the next tick retries — but
//! it is not silent either: failed passes are counted in
//! `hac_reindex_passes_total{outcome="failed"}`, the failing pass number is
//! kept in the `hac_reindex_last_error_pass` gauge, and the error text is
//! retained in the [`DaemonStatus`] visible through
//! [`ReindexDaemon::status`] and returned by [`ReindexDaemon::stop`].
//!
//! Consecutive failures back off exponentially (with jitter, capped at
//! [`MAX_BACKOFF_FACTOR`]× the configured interval) instead of hammering a
//! broken index or unreachable mount at full cadence; the first success
//! snaps the cadence back. The live backoff is surfaced in
//! [`DaemonStatus::current_backoff`] and the `hac_reindex_backoff_ms`
//! gauge.

use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hac_obs::sync::lock;
use hac_vfs::VPath;

use crate::fs::HacFs;
use crate::state::SyncReport;

/// Ceiling of the failure backoff, as a multiple of the base interval.
pub const MAX_BACKOFF_FACTOR: u32 = 64;

/// Pass accounting for a (possibly still running) daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonStatus {
    /// Passes that completed successfully.
    pub ok_passes: u64,
    /// Passes that returned an error (retried on the next tick).
    pub failed_passes: u64,
    /// Error text of the most recent failed pass, if any.
    pub last_error: Option<String>,
    /// Failures since the last successful pass.
    pub consecutive_failures: u64,
    /// Delay before the next retry when backing off after failures;
    /// `None` while healthy (ticking at the base interval).
    pub current_backoff: Option<Duration>,
}

impl DaemonStatus {
    /// Total passes attempted.
    pub fn total_passes(&self) -> u64 {
        self.ok_passes + self.failed_passes
    }
}

/// Handle to a running periodic reindexer.
pub struct ReindexDaemon {
    stop: SyncSender<()>,
    handle: Option<JoinHandle<()>>,
    status: Arc<Mutex<DaemonStatus>>,
}

impl ReindexDaemon {
    /// Spawns a daemon that calls `fs.ssync("/")` every `interval`, then
    /// runs one bounded store-maintenance step (segment merge or
    /// checkpoint) when a durable store is attached.
    pub fn spawn(fs: Arc<HacFs>, interval: Duration) -> Self {
        Self::spawn_with(fs, interval, |fs| {
            fs.ssync(&VPath::root())?;
            fs.store_maintain()
        })
    }

    /// Spawns a daemon running an arbitrary tick function every `interval`
    /// (the seam tests use to observe how failing passes are handled).
    pub fn spawn_with<F>(fs: Arc<HacFs>, interval: Duration, tick: F) -> Self
    where
        F: Fn(&HacFs) -> crate::error::HacResult<()> + Send + 'static,
    {
        let (stop_tx, stop_rx) = sync_channel::<()>(1);
        let status = Arc::new(Mutex::new(DaemonStatus::default()));
        let thread_status = Arc::clone(&status);
        // The daemon is an operational anchor: it installs the configured
        // SLOs and the sampling interval, and its tick is one of the
        // clocks that pull the time series forward (below).
        let cfg = fs.config();
        if !cfg.slos.is_empty() {
            hac_obs::slo::install(&cfg.slos);
        }
        hac_obs::timeseries::global().set_interval_ms(cfg.sample_interval_ms);
        let handle = std::thread::spawn(move || {
            // Seeded off the interval only: determinism across runs matters
            // more than unpredictability, jitter just de-syncs daemons that
            // happen to fail together.
            let mut jitter_state: u64 = crate::remote::RetryPolicy::daemon(interval).seed_jitter();
            let mut wait = interval;
            loop {
                match stop_rx.recv_timeout(wait) {
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {
                        // Each pass is an operation root: the span mints a
                        // fresh trace id, and everything ssync touches
                        // (tokenize, resync, remote fetches) nests under it.
                        // Held across the bookkeeping below so the
                        // `reindex_pass_failed` event carries the trace too.
                        let _pass_span = hac_obs::span!("reindex_daemon_pass");
                        let result = tick(&fs);
                        // Samples when an interval has elapsed, so series
                        // stay alive at daemon cadence without a server.
                        hac_obs::sample_if_due();
                        let mut status = lock(&thread_status);
                        match result {
                            Ok(()) => {
                                status.ok_passes += 1;
                                status.consecutive_failures = 0;
                                status.current_backoff = None;
                                wait = interval;
                                hac_obs::counter("hac_reindex_passes_total", &[("outcome", "ok")])
                                    .inc();
                                hac_obs::gauge("hac_reindex_backoff_ms", &[]).set(0);
                            }
                            Err(e) => {
                                // Keep retrying on later ticks, but make the
                                // failure observable instead of swallowing it,
                                // and back off so a persistently broken pass
                                // (unreachable mount, corrupt index) is not
                                // hammered at full cadence.
                                status.failed_passes += 1;
                                status.consecutive_failures += 1;
                                status.last_error = Some(e.to_string());
                                wait = backoff_delay(
                                    interval,
                                    status.consecutive_failures,
                                    &mut jitter_state,
                                );
                                status.current_backoff = Some(wait);
                                hac_obs::counter(
                                    "hac_reindex_passes_total",
                                    &[("outcome", "failed")],
                                )
                                .inc();
                                hac_obs::gauge("hac_reindex_last_error_pass", &[])
                                    .set(status.total_passes() as i64);
                                hac_obs::gauge("hac_reindex_backoff_ms", &[])
                                    .set(wait.as_millis() as i64);
                                hac_obs::global().event(
                                    "reindex_pass_failed",
                                    vec![("error".to_string(), e.to_string())],
                                );
                            }
                        }
                    }
                }
            }
        });
        ReindexDaemon {
            stop: stop_tx,
            handle: Some(handle),
            status,
        }
    }

    /// Runs one reindex pass synchronously (deterministic alternative for
    /// tests and command-line `ssync`).
    pub fn tick_now(fs: &HacFs) -> crate::error::HacResult<SyncReport> {
        fs.ssync(&VPath::root())
    }

    /// Pass accounting so far, without stopping the daemon.
    pub fn status(&self) -> DaemonStatus {
        lock(&self.status).clone()
    }

    /// Stops the daemon and returns its final pass accounting.
    pub fn stop(mut self) -> DaemonStatus {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        lock(&self.status).clone()
    }
}

/// Delay before the next pass after `consecutive_failures` failures in a
/// row: `interval × 2^(failures-1)`, capped at [`MAX_BACKOFF_FACTOR`]×, plus
/// up to 25% jitter so co-failing daemons do not retry in lockstep. The
/// schedule is the shared [`RetryPolicy`](crate::remote::RetryPolicy) one —
/// network mounts back off with exactly the same shape.
fn backoff_delay(
    interval: Duration,
    consecutive_failures: u64,
    jitter_state: &mut u64,
) -> Duration {
    crate::remote::RetryPolicy::daemon(interval).delay(consecutive_failures, jitter_state)
}

impl Drop for ReindexDaemon {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_ticks_and_stops() {
        let fs = Arc::new(HacFs::new());
        let p = |s: &str| VPath::parse(s).unwrap();
        fs.mkdir(&p("/docs")).unwrap();
        fs.save(&p("/docs/a.txt"), b"zebra stripes").unwrap();
        let daemon = ReindexDaemon::spawn(Arc::clone(&fs), Duration::from_millis(10));
        // Wait until at least one pass indexed the file.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !fs.is_indexed(&p("/docs/a.txt")) {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never indexed the file"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = daemon.stop();
        assert!(status.ok_passes >= 1);
        assert_eq!(status.failed_passes, 0);
        assert_eq!(status.last_error, None);
    }

    #[test]
    fn tick_now_is_synchronous() {
        let fs = HacFs::new();
        let p = |s: &str| VPath::parse(s).unwrap();
        fs.save(&p("/x.txt"), b"quark flavour").unwrap();
        assert!(!fs.is_indexed(&p("/x.txt")));
        let report = ReindexDaemon::tick_now(&fs).unwrap();
        assert_eq!(report.added, 1);
        assert!(fs.is_indexed(&p("/x.txt")));
    }

    #[test]
    fn drop_stops_the_thread() {
        let fs = Arc::new(HacFs::new());
        let daemon = ReindexDaemon::spawn(Arc::clone(&fs), Duration::from_millis(5));
        drop(daemon); // must not hang
    }

    #[test]
    fn failing_pass_is_observed_and_daemon_survives() {
        let before = hac_obs::snapshot()
            .counter_value("hac_reindex_passes_total", &[("outcome", "failed")])
            .unwrap_or(0);
        let fs = Arc::new(HacFs::new());
        let daemon = ReindexDaemon::spawn_with(Arc::clone(&fs), Duration::from_millis(5), |_| {
            Err(crate::error::HacError::Remote(
                crate::remote::RemoteError::Unavailable("boom".to_string()),
            ))
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.status().failed_passes < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never reported failed passes"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = daemon.stop();
        assert!(
            status.failed_passes >= 2,
            "retry must continue after a failure"
        );
        assert_eq!(status.ok_passes, 0);
        assert!(status.consecutive_failures >= 2);
        let backoff = status.current_backoff.expect("failing daemon backs off");
        assert!(
            backoff >= Duration::from_millis(10),
            "≥2 consecutive failures must at least double the 5ms cadence, got {backoff:?}"
        );
        let err = status.last_error.expect("last error retained");
        assert!(err.contains("boom"), "unexpected error text: {err}");
        let after = hac_obs::snapshot()
            .counter_value("hac_reindex_passes_total", &[("outcome", "failed")])
            .unwrap_or(0);
        assert!(after >= before + 2);
        assert!(
            hac_obs::snapshot()
                .gauge_value("hac_reindex_last_error_pass", &[])
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_is_capped() {
        let interval = Duration::from_millis(10);
        let mut rng = 42u64;
        let mut prev = Duration::ZERO;
        for failures in 1..=7u64 {
            let d = backoff_delay(interval, failures, &mut rng);
            let base = interval * (1u32 << (failures - 1).min(31));
            assert!(d >= base, "failure #{failures}: {d:?} < base {base:?}");
            assert!(
                d <= base + base / 4,
                "failure #{failures}: jitter exceeds 25% ({d:?} vs {base:?})"
            );
            assert!(d > prev, "backoff must grow while under the cap");
            prev = d;
        }
        // Far beyond the cap, the delay stays at MAX_BACKOFF_FACTOR× (+jitter).
        let capped = backoff_delay(interval, 1_000, &mut rng);
        let ceiling = interval * MAX_BACKOFF_FACTOR;
        assert!(capped >= ceiling && capped <= ceiling + ceiling / 4);
    }

    #[test]
    fn backoff_resets_after_a_successful_pass() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let fs = Arc::new(HacFs::new());
        let calls = Arc::new(AtomicU64::new(0));
        let tick_calls = Arc::clone(&calls);
        // Fail twice, then succeed forever.
        let daemon =
            ReindexDaemon::spawn_with(Arc::clone(&fs), Duration::from_millis(2), move |_| {
                if tick_calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(crate::error::HacError::Remote(
                        crate::remote::RemoteError::Unavailable("transient".to_string()),
                    ))
                } else {
                    Ok(())
                }
            });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.status().ok_passes < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never recovered from transient failures"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let status = daemon.stop();
        assert_eq!(status.failed_passes, 2);
        assert!(status.ok_passes >= 1);
        assert_eq!(status.consecutive_failures, 0, "success resets the streak");
        assert_eq!(status.current_backoff, None, "success clears the backoff");
        // (The hac_reindex_backoff_ms gauge is global and other daemon tests
        // run concurrently, so its value is asserted via DaemonStatus only.)
    }
}
