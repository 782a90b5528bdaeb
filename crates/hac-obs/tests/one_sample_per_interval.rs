//! Concurrent pullers share one sample per interval: `sample_if_due`
//! re-checks whether the sample is due while it holds the sample gate, so
//! the pullers that waited there find it taken. Asserts on the global
//! `hac_ts_samples_total`, so it lives in its own test binary with no
//! other puller running.

use std::sync::{Arc, Barrier};
use std::time::Duration;

#[test]
fn eight_concurrent_pullers_take_one_sample() {
    let ts = hac_obs::timeseries::global();
    ts.set_interval_ms(500);
    hac_obs::sample_now();
    let samples = hac_obs::counter("hac_ts_samples_total", &[]);
    // One interval elapses: every puller below finds a sample due.
    std::thread::sleep(Duration::from_millis(550));
    let before = samples.get();

    let barrier = Arc::new(Barrier::new(8));
    let pullers: Vec<_> = (0..8)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                hac_obs::sample_if_due();
            })
        })
        .collect();
    for puller in pullers {
        puller.join().unwrap();
    }
    assert_eq!(samples.get(), before + 1, "one sample per interval");
}
