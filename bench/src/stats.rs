//! The one statistics module every lane uses: order statistics over the
//! samples of a run, quartiles and MAD over repeats of a run, the
//! interleaved-lane runner, and the fixed-arrival-rate (wrk2-style)
//! open-loop driver.

use std::time::{Duration, Instant};

/// Sorts samples ascending. Timings are never NaN, so the total order
/// is safe.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of ascending `sorted` samples (`pct` in 0..=100).
/// An empty slice yields 0: a lane that recorded nothing did no work.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Splits the samples of a lane, in the order they were taken, into at
/// most `k` consecutive windows of at least `min_chunk` samples and
/// applies `f` to each.
pub fn chunked(samples: &[f64], k: usize, min_chunk: usize, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let k = k.min(samples.len() / min_chunk.max(1)).max(1);
    let size = samples.len() / k;
    (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * size
            };
            f(&samples[i * size..end])
        })
        .collect()
}

/// Windows a lane is cut into.
pub const CHUNKS: usize = 8;

/// The quiet windows' value of a cost (latency): the first quartile over
/// the windows. Interference from the host only ever slows a window down,
/// so the faster windows are the ones that measured the program; the
/// quartile, not the minimum, so that one lucky window does not decide.
pub fn quiet_low(per_window: &[f64]) -> f64 {
    quartiles(per_window).map_or_else(|| median(per_window), |(q1, _, _)| q1)
}

/// The quiet windows' value of a rate: the third quartile over the windows.
pub fn quiet_high(per_window: &[f64]) -> f64 {
    quartiles(per_window).map_or_else(|| median(per_window), |(_, _, q3)| q3)
}

/// Median latency of a lane: the quiet windows' median.
pub fn p50_chunked(samples: &[f64]) -> f64 {
    quiet_low(&chunked(samples, CHUNKS, 50, median))
}

/// 99th percentile of a lane: the quietest window's p99, over windows of
/// a thousand samples (so that each has ten beyond it). The minimum, not
/// the quartile: one descheduled millisecond puts a hundredth of a
/// window's samples beyond any p99 the program has, and in a noisy minute
/// of a shared host that happens in most windows. The price is stated in
/// the README: a stall of the *program* that recurs less often than once
/// per window does not show here; it shows in `ops_per_s`.
pub fn p99_chunked(samples: &[f64]) -> f64 {
    chunked(samples, usize::MAX, 1000, |c| {
        percentile(&sorted(c.to_vec()), 99.0)
    })
    .into_iter()
    .fold(f64::INFINITY, f64::min)
}

/// Ops per second of busy time from per-op durations in µs: the quiet
/// windows' rate.
pub fn rate_chunked(durations_us: &[f64]) -> f64 {
    quiet_high(&chunked(durations_us, CHUNKS, 50, |c| {
        c.len() as f64 / (c.iter().sum::<f64>() / 1e6)
    }))
}

/// The tail percentiles a lane may report, lowest first.
pub const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support:
/// at least ten samples must lie beyond it. `None` below 40 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|p| supports(n, *p))
}

/// Whether `n` samples support reporting percentile `pct` (ten beyond it).
pub fn supports(n: usize, pct: f64) -> bool {
    // 100 - 99.9 is not exactly 0.1 in binary; allow for it.
    (n as f64) * (100.0 - pct) / 100.0 >= 10.0 - 1e-9
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive): the driver computes spreads with it, so `compare` does too.
/// Needs two values or more.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    median(&v.iter().map(|x| (x - m).abs()).collect::<Vec<_>>())
}

/// Summary of one metric over repeats of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Repeats {
    /// Number of repeats.
    pub n: usize,
    /// Median over repeats.
    pub median: f64,
    /// First quartile (the median itself when there is one repeat).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
}

impl Repeats {
    /// Summarises the repeats of one metric.
    pub fn of(v: &[f64]) -> Repeats {
        let m = median(v);
        let (q1, _, q3) = quartiles(v).unwrap_or((m, m, m));
        Repeats {
            n: v.len(),
            median: m,
            q1,
            q3,
            mad: mad(v),
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Times one call, in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Runs lanes interleaved: round `i` calls every lane once, in order,
/// so drift of the host's speed during a run lands on all lanes alike
/// and a *difference* between lanes compares like windows. Each lane
/// returns its own sample (it times what it wants to time). Runs at
/// least `min_rounds`, then until `deadline`.
pub fn interleave(
    lanes: &mut [&mut dyn FnMut(usize) -> f64],
    min_rounds: usize,
    deadline: Instant,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); lanes.len()];
    let mut round = 0;
    while round < min_rounds || Instant::now() < deadline {
        for (k, lane) in lanes.iter_mut().enumerate() {
            out[k].push(lane(round));
        }
        round += 1;
    }
    out
}

/// What one generator thread of an open-loop step observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Per-request latency in microseconds, timed **from the due time**
    /// (so a stall charges every request it delayed).
    pub latency_us: Vec<f64>,
    /// How late each request left the generator, in microseconds.
    pub lag_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests due inside the window that were never sent.
    pub backlog: u64,
    /// Requests whose reply was wrong or an error.
    pub failed: u64,
}

impl OpenLoop {
    /// Folds another generator thread's observations into this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
        self.sent += other.sent;
        self.backlog += other.backlog;
        self.failed += other.failed;
    }
}

/// A fixed arrival schedule: request `i` is due `i / rate` seconds after
/// `start`, whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate_per_s` arrivals per second from `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// How many requests are due by `t`.
    pub fn due_by(&self, t: Instant) -> u64 {
        if t < self.start {
            return 0;
        }
        ((t - self.start).as_secs_f64() / self.interval.as_secs_f64()).floor() as u64 + 1
    }
}

/// Drives `op` on `schedule` for `window` from one thread: each request
/// goes out at its due time or, if the thread is behind, at once; it is
/// never skipped and its latency runs from the due time. `op(i)` returns
/// whether the reply was right.
pub fn open_loop(
    schedule: Schedule,
    window: Duration,
    mut op: impl FnMut(u64) -> bool,
) -> OpenLoop {
    let end = schedule.start + window;
    let mut out = OpenLoop::default();
    let mut i = 0u64;
    loop {
        let due = schedule.due(i);
        if due >= end {
            break;
        }
        let mut now = Instant::now();
        if now >= end {
            break;
        }
        // Sleep to the due time. The timer wakes the thread some tens of
        // microseconds late, and that lag (reported as `lag_us`) is inside
        // every latency; spinning or yielding through the last stretch
        // would remove it, but on two cores it takes the core the
        // server's threads need, and measured two to three times noisier.
        while now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
        }
        out.lag_us.push((now - due).as_secs_f64() * 1e6);
        let ok = op(i);
        out.latency_us
            .push((Instant::now() - due).as_secs_f64() * 1e6);
        if !ok {
            out.failed += 1;
        }
        i += 1;
    }
    out.sent = i;
    out.backlog = schedule
        .due_by(end - Duration::from_nanos(1))
        .saturating_sub(i);
    out
}

/// A small seeded generator (splitmix64): the bench derives every op
/// sequence from `--seed` with it, so a sequence is a pure function of
/// the seed and independent of the vendored `rand` shim.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Picks an index by integer weights.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut x = self.below(total as usize) as u32;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}
