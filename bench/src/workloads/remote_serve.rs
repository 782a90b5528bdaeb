//! `remote_serve` — wire-bound serving.
//!
//! One `HacServer` exports a `WebSearchSim` (the paper's "web search
//! engine" mount; the backend answers in tens of microseconds, so
//! `hac-net` owns the latency). Two `NetRemote` clients, one connection
//! each, one per generator thread. Mix: 70 % point search (at most three
//! hits), 20 % needle search (about an eighth of the corpus; the reply is
//! codec-bound), 10 % `fetch`.
//!
//! * closed loop, 2 callers → `ops_per_s`;
//! * open loop at a fixed arrival rate, each generator thread on its own
//!   schedule, latency timed from the due time → `query_p50_us`,
//!   `query_p99_us`;
//! * the mount lane (see [`mount`](super::mount)) through one of the two
//!   connections → `smkdir_p50_us`, `fsop_p50_us`, `ssync_p50_ms`.
//!
//! The traced run adds the rate ladder, the span and registry readings of
//! `hac-net`, and the in-process floors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_core::{HacFs, RemoteQuerySystem};
use hac_corpus::DocCollectionSpec;
use hac_index::ContentExpr;
use hac_net::{HacServer, NetRemote, ServerConfig};
use hac_remote::{RemoteHac, WebSearchSim};

use crate::catalogue::{
    self, Catalogue, Class, BACKLOG_LIMIT, LADDER_RPS, LATENCY_LIMIT_US, OPEN_LOOP_RPS, PASSES,
    REMOTE_MIX, SLICE_OPS,
};
use crate::fixture::{
    backend, client, deadline, digest_docs, model_of, p, populate, remote_docs, setup_median, Doc,
    KeepAwake, Tally,
};
use crate::obs::{overhead_pct, Registry, Tracer};
use crate::report::Outcome;
use crate::stats::{
    interleave, median, open_loop, p50_chunked, p99_chunked, percentile, rate_chunked, sorted,
    supported_tail, supports, time_us, OpenLoop, Rng, Schedule,
};
use crate::workloads::mount::{self, MountSamples};
use crate::workloads::Args;

const NS: &str = "web";

struct Built {
    docs: Vec<Doc>,
    sim: Arc<WebSearchSim>,
    server: HacServer,
    clients: [Arc<NetRemote>; 2],
    importer: HacFs,
}

fn build(spec: &DocCollectionSpec, cat: &Catalogue, mount_docs: usize) -> Built {
    let docs = remote_docs(spec);
    let sim = backend(NS, &docs);
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::clone(&sim) as Arc<dyn RemoteQuerySystem>],
        ServerConfig::default(),
    )
    .expect("server");
    let clients = [client(NS, &server), client(NS, &server)];
    let importer = mount::build(Arc::clone(&clients[0]) as _, mount_docs, cat);
    Built {
        docs,
        sim,
        server,
        clients,
        importer,
    }
}

fn teardown(b: Built) {
    drop(b.importer);
    drop(b.clients);
    b.server.shutdown();
}

/// The seeded remote mix: what op `i` of stream `stream` is, and running it.
struct Mix<'a> {
    seed: u64,
    cat: &'a Catalogue,
    exprs: Vec<ContentExpr>,
    docs: &'a [Doc],
}

impl<'a> Mix<'a> {
    fn new(seed: u64, cat: &'a Catalogue, docs: &'a [Doc]) -> Mix<'a> {
        Mix {
            seed,
            cat,
            exprs: cat.queries.iter().map(|q| q.expr.content()).collect(),
            docs,
        }
    }

    /// Runs op `i` of `stream` on `remote`: whether it was a search (not a
    /// fetch), and whether the reply equals the oracle's (or the
    /// published bytes).
    fn run(&self, remote: &dyn RemoteQuerySystem, stream: u64, i: u64) -> (bool, bool) {
        let mut rng = Rng::new(self.seed ^ stream.rotate_left(32), i);
        let class = match rng.weighted(&REMOTE_MIX) {
            0 => Class::Point,
            1 => Class::Needle,
            _ => {
                let (id, _, content) = &self.docs[rng.below(self.docs.len())];
                let ok = remote.fetch(id).is_ok_and(|bytes| &bytes == content);
                return (false, ok);
            }
        };
        let members = self.cat.of(class);
        let qi = members[rng.below(members.len())];
        let ok = remote
            .search(&self.exprs[qi])
            .is_ok_and(|docs| digest_docs(&docs) == self.cat.queries[qi].expect);
        (true, ok)
    }
}

/// One open-loop step at `rps` over both generator threads: search
/// latencies (from due time) and the merged generator record.
fn open_step(mix: &Mix<'_>, clients: &[Arc<NetRemote>; 2], rps: f64, window: Duration) -> OpenLoop {
    let start = Instant::now() + Duration::from_millis(5);
    let mut merged = OpenLoop::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(t, c)| {
                s.spawn(move || {
                    let mut searches = Vec::new();
                    let schedule = Schedule::new(start, rps / clients.len() as f64);
                    let mut step = open_loop(schedule, window, |i| {
                        let (is_search, ok) = mix.run(c.as_ref(), t as u64 + 1, i);
                        searches.push(is_search);
                        ok
                    });
                    // `query_*` is the latency of `search`.
                    let mut keep = searches.iter();
                    step.latency_us.retain(|_| *keep.next().unwrap_or(&true));
                    step
                })
            })
            .collect();
        for h in handles {
            merged.absorb(h.join().expect("generator thread"));
        }
    });
    merged
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<(Outcome, Tally), String> {
    let spec = catalogue::spec(args.sizes.remote_docs, args.seed);
    let (mut model, _) = model_of(&spec);
    let cat = catalogue::remote(&mut model, 16, 4)?;
    let (b, setup_s) = setup_median(|| build(&spec, &cat, args.sizes.mount_docs), teardown);
    let mix = Mix::new(args.seed, &cat, &b.docs);

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    for (q, e) in cat.queries.iter().zip(&mix.exprs) {
        let ok = b.clients[0]
            .search(e)
            .is_ok_and(|docs| digest_docs(&docs) == q.expect);
        tally.check(ok, || {
            format!("remote query {} disagrees with the oracle", q.name)
        });
    }
    mount::check_standing(&b.importer, &cat, &mut tally);

    let awake = KeepAwake::start();
    if args.trace {
        traced(args, &b, &mix, &spec, &mut out, &mut tally);
    } else {
        out.set("setup_s", setup_s);
        untraced(args, &b, &mix, &mut out, &mut tally);
    }
    drop(awake);
    teardown(b);
    Ok((out, tally))
}

fn untraced(args: &Args, b: &Built, mix: &Mix<'_>, out: &mut Outcome, tally: &mut Tally) {
    let mut op_us = [Vec::new(), Vec::new()];
    let mut open = OpenLoop::default();
    let mut m = MountSamples::default();
    let mut tracer = Tracer::new();
    let rps = f64::from(OPEN_LOOP_RPS);
    let share = args.seconds / PASSES as f64;
    // The three lanes take turns (see `local_query`).
    for _ in 0..PASSES {
        // Closed loop, 2 callers.
        let until = deadline(share, 0.35);
        std::thread::scope(|s| {
            let handles: Vec<_> = b
                .clients
                .iter()
                .zip(&mut op_us)
                .enumerate()
                .map(|(t, (c, op_us))| {
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let (from, floor) = (op_us.len(), op_us.len() + 100);
                        while op_us.len() < floor || Instant::now() < until {
                            let i = op_us.len() as u64;
                            let ((_, ok), us) = time_us(|| mix.run(c.as_ref(), t as u64 + 11, i));
                            tally
                                .check(ok, || "closed-loop reply disagrees with the oracle".into());
                            op_us.push(us);
                        }
                        debug_assert!(op_us.len() > from);
                        tally
                    })
                })
                .collect();
            for h in handles {
                tally.absorb(h.join().expect("caller thread"));
            }
        });

        // Open loop at the fixed rate.
        let step = open_step(mix, &b.clients, rps, Duration::from_secs_f64(share * 0.35));
        tally.failed += step.failed;
        open.absorb(step);

        // Mount lane.
        mount::lane(
            &b.importer,
            mix.cat,
            2,
            deadline(share, 0.3),
            &mut tracer,
            tally,
            &mut m,
        );
    }
    // A caller's next request leaves when the last returned, so its rate
    // is ops over busy time; the callers' rates add.
    out.set("ops_per_s", op_us.iter().map(|t| rate_chunked(t)).sum());
    // A request or two due in the last round trip of a window is never
    // sent at any rate; a backlog beyond that means the rate was refused.
    let scheduled = open.sent + open.backlog;
    let refused = if open.backlog as f64 > BACKLOG_LIMIT * scheduled as f64 {
        open.backlog
    } else {
        0
    };
    tally.attempted += open.sent + refused;
    tally.failed += refused;
    out.set("query_p50_us", p50_chunked(&open.latency_us));
    out.set("query_p99_us", p99_chunked(&open.latency_us));
    out.set("smkdir_p50_us", median(&m.smkdir_us));
    out.set("fsop_p50_us", median(&m.fsop_us));
    out.set("ssync_p50_ms", median(&m.ssync_ms));
    out.note(format!(
        "samples: {} closed-loop ops, {} open-loop searches at {rps} rps (backlog {}), {} mount rounds",
        op_us.iter().map(Vec::len).sum::<usize>(),
        open.latency_us.len(),
        open.backlog,
        m.ssync_ms.len()
    ));
}

fn traced(
    args: &Args,
    b: &Built,
    mix: &Mix<'_>,
    spec: &DocCollectionSpec,
    out: &mut Outcome,
    tally: &mut Tally,
) {
    let reg0 = Registry::now();
    let one = b.clients[0].as_ref();

    // One closed-loop caller, the mix in slices run untraced and traced.
    let mut tracer = Tracer::new();
    let busy = tracer.replay_slices(SLICE_OPS, deadline(args.seconds, 0.2), |tracer, i| {
        let ((_, ok), us) = tracer.op("bench_remote_op", || mix.run(one, 21, i as u64));
        tally.check(ok, || "traced reply disagrees with the oracle".into());
        us
    });
    let reg1 = Registry::now();
    out.set("obs.tracing_overhead_pct.remote_serve", overhead_pct(busy));
    out.set("obs.spans_dropped", tracer.dropped() as f64);
    let hist = |name: &str| {
        reg1.histogram(name)
            .map(|h| h.since(reg0.histogram(name).as_ref()))
            .unwrap_or_default()
    };
    let delta = |a: &Registry, z: &Registry, name: &str| z.delta(a, name);
    out.set(
        "net.server_time_us_p50",
        hist("hac_net_server_time_us").percentile(50.0),
    );
    out.set(
        "net.client_wire_overhead_us_p50",
        hist("hac_net_wire_overhead_us").percentile(50.0),
    );
    let requests = delta(&reg0, &reg1, "hac_net_requests_total").max(1.0);
    out.set(
        "net.bytes_per_request",
        (delta(&reg0, &reg1, "hac_net_client_bytes_written_total")
            + delta(&reg0, &reg1, "hac_net_client_bytes_read_total"))
            / requests,
    );
    out.set(
        "net.frames_per_flush",
        hist("hac_net_server_frames_per_flush").mean(),
    );
    let (inline, offloaded) = (
        delta(&reg0, &reg1, "hac_net_server_inline_total"),
        delta(&reg0, &reg1, "hac_net_server_offloaded_total"),
    );
    out.set("net.inline_share", inline / (inline + offloaded).max(1.0));
    out.notes.extend(tracer.profile());

    // Interleaved lanes: the same point query through the wire and
    // in-process; the difference of the medians is what the wire adds.
    let qi = mix.cat.of(Class::Point)[0];
    let (expr, expect) = (&mix.exprs[qi], mix.cat.queries[qi].expect);
    let mut wire_tally = Tally::default();
    let timed = |remote: &dyn RemoteQuerySystem, tally: &mut Tally| {
        let (reply, us) = time_us(|| remote.search(expr));
        tally.note(reply.is_ok_and(|d| digest_docs(&d) == expect));
        us
    };
    let mut direct_tally = Tally::default();
    let lanes = interleave(
        &mut [&mut |_| timed(one, &mut wire_tally), &mut |_| {
            timed(b.sim.as_ref(), &mut direct_tally)
        }],
        200,
        deadline(args.seconds, 0.1),
    );
    tally.absorb(wire_tally);
    tally.absorb(direct_tally);
    let (wire, direct) = (median(&lanes[0]), median(&lanes[1]));
    out.set("net.wire_overhead_us", wire - direct);
    out.set("remote.websim_search_us", direct);

    // The ladder.
    let window = Duration::from_secs_f64(args.seconds * 0.5 / LADDER_RPS.len() as f64);
    let mut rate_ok = 0.0;
    let mut climbing = true;
    for rps in LADDER_RPS {
        let step = open_step(mix, &b.clients, f64::from(rps), window);
        tally.attempted += step.sent;
        tally.failed += step.failed;
        // The quietest thousand-sample window's p99, as everywhere: a
        // step lasts a second or two, and one descheduled stretch of the
        // host would otherwise fail it.
        let p99 = p99_chunked(&step.latency_us);
        let lat = sorted(step.latency_us.clone());
        let name = match rps {
            1000 => "net.p99_us.r1000",
            2000 => "net.p99_us.r2000",
            5000 => "net.p99_us.r5000",
            10000 => "net.p99_us.r10000",
            _ => "net.p99_us.r20000",
        };
        out.set(name, p99);
        let scheduled = (step.sent + step.backlog).max(1) as f64;
        let passes = p99 <= LATENCY_LIMIT_US
            && step.backlog as f64 / scheduled <= BACKLOG_LIMIT
            && step.failed == 0;
        // The highest rate that meets the limit with every lower rate
        // meeting it too.
        climbing &= passes;
        if climbing {
            rate_ok = f64::from(rps);
        }
        if rps == OPEN_LOOP_RPS {
            out.set(
                "net.generator_lag_us_p99",
                percentile(&sorted(step.lag_us.clone()), 99.0),
            );
        }
        out.note(format!(
            "ladder {rps:>6} rps: sent {:>6} backlog {:>6} p50 {:>9.1} us p99 {:>9.1} us{} {}",
            step.sent,
            step.backlog,
            percentile(&lat, 50.0),
            p99,
            if supports(lat.len(), 99.0) {
                String::new()
            } else {
                format!(" (samples support {:?} only)", supported_tail(lat.len()))
            },
            if passes { "ok" } else { "over the limit" }
        ));
    }
    out.set("rate_ok_rps", rate_ok);

    // What a real HAC export would add: `RemoteHac` over a `HacFs` of the
    // same corpus, in-process. Informational.
    let exported = Arc::new(HacFs::new());
    populate(exported.vfs(), spec);
    exported.ssync(&p("/")).expect("exported cold ssync");
    let hac = RemoteHac::new("hac", Arc::clone(&exported), p("/"));
    let hac_us: Vec<f64> = (0..50)
        .map(|_| {
            let (reply, us) = time_us(|| hac.search(expr));
            tally.check(reply.is_ok_and(|d| d.len() == expect.count), || {
                "RemoteHac disagrees with the oracle".into()
            });
            us
        })
        .collect();
    out.set("remote.hac_search_us", median(&hac_us));

    let reg2 = Registry::now();
    let errors: f64 = [
        "hac_net_errors_total",
        "hac_net_retries_total",
        "hac_net_server_reaped_total",
        "hac_net_server_rejected_total",
        "hac_net_server_errors_total",
    ]
    .iter()
    .map(|n| delta(&reg0, &reg2, n))
    .sum();
    out.set("net.errors", errors);
}
