//! `fed_scatter` — scatter/merge and replication.
//!
//! A corpus partitioned by `ShardMap` placement over four `HacServer`
//! shards (`WebSearchSim` partitions, so coordination in `hac-fed` owns
//! the latency, not backend search), one `FedRemote` coordinator, mounted
//! at `/lib` of a local `HacFs`. One closed-loop client runs
//! `FedRemote::search`, 80 % point and 20 % needle; every reply must equal
//! the oracle's set with `last_partial()` false. Then the mount lane.
//!
//! The traced run adds the span reading of the scatter, the lanes
//! against one unsharded server, the same mix at 1, 2 and 8 shards, and
//! replica catch-up rounds against a store-attached primary.

use std::sync::Arc;
use std::time::Instant;

use hac_core::{HacFs, RemoteQuerySystem};
use hac_corpus::DocCollectionSpec;
use hac_fed::{FedConfig, FedRemote, Replica, ShardMap};
use hac_index::ContentExpr;
use hac_net::{HacServer, NetRemote, ServerConfig};
use hac_remote::RemoteHac;
use hac_store::MemStore;

use crate::catalogue::{self, Catalogue, Class, FED_MIX, PASSES, SLICE_OPS};
use crate::fixture::{
    backend, client, deadline, digest_docs, model_of, p, remote_docs, setup_median, Doc, KeepAwake,
    Tally,
};
use crate::obs::{overhead_pct, Registry, Tracer};
use crate::report::Outcome;
use crate::stats::{interleave, median, p50_chunked, p99_chunked, rate_chunked, time_us, Rng};
use crate::workloads::mount::{self, MountSamples};
use crate::workloads::Args;

const NS: &str = "fed";
/// Shards of the gated lane.
const SHARDS: usize = 4;

/// A federation of `n` shards over `docs`: the coordinator and its servers.
struct Fed {
    remote: Arc<FedRemote>,
    servers: Vec<HacServer>,
}

impl Fed {
    fn serve(docs: &[Doc], n: usize) -> Fed {
        // Placement depends on the shard count only, so a map without
        // addresses partitions exactly like the final one.
        let placement = ShardMap::new(NS, &vec![String::new(); n]);
        let mut parts: Vec<Vec<Doc>> = vec![Vec::new(); n];
        for doc in docs {
            parts[placement.shard_of(&doc.0)].push(doc.clone());
        }
        let servers: Vec<HacServer> = parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                HacServer::serve(
                    "127.0.0.1:0",
                    vec![backend(&placement.shards[i].ns, part) as Arc<dyn RemoteQuerySystem>],
                    ServerConfig::default(),
                )
                .expect("shard server")
            })
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        Fed {
            remote: Arc::new(FedRemote::connect(
                ShardMap::new(NS, &addrs),
                FedConfig::default(),
            )),
            servers,
        }
    }

    fn shutdown(self) {
        drop(self.remote);
        for s in self.servers {
            s.shutdown();
        }
    }
}

struct Built {
    docs: Vec<Doc>,
    fed: Fed,
    importer: HacFs,
}

fn build(spec: &DocCollectionSpec, cat: &Catalogue, mount_docs: usize) -> Built {
    let docs = remote_docs(spec);
    let fed = Fed::serve(&docs, SHARDS);
    let importer = mount::build(Arc::clone(&fed.remote) as _, mount_docs, cat);
    Built {
        docs,
        fed,
        importer,
    }
}

fn teardown(b: Built) {
    drop(b.importer);
    b.fed.shutdown();
}

/// The seeded federated mix.
struct Mix<'a> {
    seed: u64,
    cat: &'a Catalogue,
    exprs: Vec<ContentExpr>,
}

impl Mix<'_> {
    /// Runs search `i` on `fed`: µs, and whether the union equals the
    /// oracle's set and was not flagged partial.
    fn run(&self, fed: &FedRemote, tracer: &mut Tracer, i: u64) -> (f64, bool) {
        let mut rng = Rng::new(self.seed, i);
        let class = [Class::Point, Class::Needle][rng.weighted(&FED_MIX)];
        let members = self.cat.of(class);
        let qi = members[rng.below(members.len())];
        let (reply, us) = tracer.op("bench_fed_search", || fed.search(&self.exprs[qi]));
        let ok = reply.is_ok_and(|docs| digest_docs(&docs) == self.cat.queries[qi].expect)
            && !fed.last_partial();
        (us, ok)
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<(Outcome, Tally), String> {
    let spec = catalogue::spec(args.sizes.fed_docs, args.seed);
    let (mut model, _) = model_of(&spec);
    let cat = catalogue::remote(&mut model, 16, 4)?;
    let (b, setup_s) = setup_median(|| build(&spec, &cat, args.sizes.mount_docs), teardown);
    let mix = Mix {
        seed: args.seed,
        cat: &cat,
        exprs: cat.queries.iter().map(|q| q.expr.content()).collect(),
    };

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let reg0 = Registry::now();
    mount::check_standing(&b.importer, &cat, &mut tally);
    let awake = KeepAwake::start();
    if args.trace {
        traced(args, &b, &mix, &mut out, &mut tally);
        out.set(
            "fed.partial_results",
            Registry::now().delta(&reg0, "hac_fed_partial_total"),
        );
    } else {
        out.set("setup_s", setup_s);
        untraced(args, &b, &mix, &mut out, &mut tally);
    }
    drop(awake);
    teardown(b);
    Ok((out, tally))
}

/// The mix closed-loop on `fed` until `until` (at least `min_ops` ops),
/// continuing the op sequence where `lat` left off: latencies, µs.
fn closed_loop(
    mix: &Mix<'_>,
    fed: &FedRemote,
    min_ops: usize,
    until: Instant,
    tally: &mut Tally,
    lat: &mut Vec<f64>,
) {
    let mut tracer = Tracer::new();
    let floor = lat.len() + min_ops;
    while lat.len() < floor || Instant::now() < until {
        let (us, ok) = mix.run(fed, &mut tracer, lat.len() as u64);
        tally.check(ok, || {
            "federated reply disagrees with the oracle or is partial".into()
        });
        lat.push(us);
    }
}

fn untraced(args: &Args, b: &Built, mix: &Mix<'_>, out: &mut Outcome, tally: &mut Tally) {
    let mut lat = Vec::new();
    let mut m = MountSamples::default();
    let mut tracer = Tracer::new();
    let share = args.seconds / PASSES as f64;
    // The two lanes take turns (see `local_query`).
    for _ in 0..PASSES {
        closed_loop(
            mix,
            &b.fed.remote,
            100,
            deadline(share, 0.6),
            tally,
            &mut lat,
        );
        mount::lane(
            &b.importer,
            mix.cat,
            2,
            deadline(share, 0.4),
            &mut tracer,
            tally,
            &mut m,
        );
    }
    out.set("ops_per_s", rate_chunked(&lat));
    out.set("query_p50_us", p50_chunked(&lat));
    out.set("query_p99_us", p99_chunked(&lat));
    out.set("smkdir_p50_us", median(&m.smkdir_us));
    out.set("fsop_p50_us", median(&m.fsop_us));
    out.set("ssync_p50_ms", median(&m.ssync_ms));
    out.note(format!(
        "samples: {} federated searches, {} mount rounds",
        lat.len(),
        m.ssync_ms.len()
    ));
}

fn traced(args: &Args, b: &Built, mix: &Mix<'_>, out: &mut Outcome, tally: &mut Tally) {
    let fed = b.fed.remote.as_ref();

    // The mix in slices, each run untraced and traced.
    let mut tracer = Tracer::new();
    let busy = tracer.replay_slices(SLICE_OPS, deadline(args.seconds, 0.3), |tracer, i| {
        let (us, ok) = mix.run(fed, tracer, i as u64);
        tally.check(ok, || "traced federated reply is wrong or partial".into());
        us
    });
    let (scatter_self, slowest_share) = tracer.scatter();
    out.set("fed.scatter_self_us", scatter_self);
    out.set("fed.slowest_shard_share", slowest_share);
    out.set("obs.tracing_overhead_pct.fed_scatter", overhead_pct(busy));
    out.set("obs.spans_dropped", tracer.dropped() as f64);
    out.notes.extend(tracer.profile());

    // The mount's smkdir, traced, for the link-materialisation share.
    let mut mount_tracer = Tracer::new();
    mount_tracer.slice(true);
    mount::lane(
        &b.importer,
        mix.cat,
        3,
        deadline(args.seconds, 0.1),
        &mut mount_tracer,
        tally,
        &mut MountSamples::default(),
    );
    mount_tracer.slice(false);
    out.set(
        "core.semdir_resync_self_us",
        mount_tracer.self_us_per_span("semdir_resync"),
    );
    // Over one cycle of the lane's needle queries: exact, so it repeats.
    let needles = mix.cat.of(Class::Needle);
    out.set(
        "core.links_per_smkdir",
        needles
            .iter()
            .map(|&qi| mix.cat.queries[qi].expect.count)
            .sum::<usize>() as f64
            / needles.len().max(1) as f64,
    );

    // Interleaved lanes: the coordinator and one unsharded server over
    // the same corpus, the same point query.
    let single_server = HacServer::serve(
        "127.0.0.1:0",
        vec![backend("single", &b.docs) as Arc<dyn RemoteQuerySystem>],
        ServerConfig::default(),
    )
    .expect("single server");
    let single: Arc<NetRemote> = client("single", &single_server);
    let qi = mix.cat.of(Class::Point)[0];
    let (expr, expect) = (&mix.exprs[qi], mix.cat.queries[qi].expect);
    let timed = |remote: &dyn RemoteQuerySystem, tally: &mut Tally| {
        let (reply, us) = time_us(|| remote.search(expr));
        tally.note(reply.is_ok_and(|d| digest_docs(&d) == expect));
        us
    };
    let (mut fed_tally, mut single_tally) = (Tally::default(), Tally::default());
    let lanes = interleave(
        &mut [&mut |_| timed(fed, &mut fed_tally), &mut |_| {
            timed(single.as_ref(), &mut single_tally)
        }],
        200,
        deadline(args.seconds, 0.1),
    );
    tally.absorb(fed_tally);
    tally.absorb(single_tally);
    let single_p50 = median(&lanes[1]);
    out.set("fed.scatter_overhead_us", median(&lanes[0]) - single_p50);
    // Through the wire, one server: the floor a federation starts from.
    out.set("remote.websim_search_us", single_p50);
    drop(single);
    single_server.shutdown();

    // The same mix at other shard counts.
    for (name, n) in [
        ("fed.query_p50_us.s1", 1),
        ("fed.query_p50_us.s2", 2),
        ("fed.query_p50_us.s8", 8),
    ] {
        let lane = Fed::serve(&b.docs, n);
        let mut lat = Vec::new();
        closed_loop(
            mix,
            &lane.remote,
            50,
            deadline(args.seconds, 0.06),
            tally,
            &mut lat,
        );
        out.set(name, median(&lat));
        lane.shutdown();
    }

    replica_rounds(args, out, tally);
}

/// Replica catch-up: a store-attached primary exported through
/// `RemoteHac`, a `Replica` following it over the wire. Each round writes
/// a batch on the primary, `ssync`s it (one sealed segment), then times
/// `Replica::sync_once`; the replica must then answer for the batch.
fn replica_rounds(args: &Args, out: &mut Outcome, tally: &mut Tally) {
    let root = p("/pub");
    let primary = Arc::new(HacFs::new());
    primary
        .attach_store(Arc::new(MemStore::new()))
        .expect("attach store");
    primary.mkdir_p(&root).expect("mkdir");
    let mut written = 0usize;
    let mut write_batch = |mark: &str, n: usize| {
        for _ in 0..n {
            primary
                .save(
                    &p(&format!("/pub/doc{written:06}.txt")),
                    format!("replicated document {written} {mark} shipping payload").as_bytes(),
                )
                .expect("primary save");
            written += 1;
        }
        primary.ssync(&p("/")).expect("primary ssync");
    };
    for _ in 0..args.sizes.replica_docs / args.sizes.replica_batch {
        write_batch("initial", args.sizes.replica_batch);
    }

    let exported = Arc::new(RemoteHac::new("primary", Arc::clone(&primary), root));
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![exported as Arc<dyn RemoteQuerySystem>],
        ServerConfig::default(),
    )
    .expect("primary server");
    let link = client("primary", &server);
    let replica = Replica::new(Arc::clone(&link) as Arc<dyn RemoteQuerySystem>);
    let cold = replica.sync_once();
    tally.check(cold.is_ok(), || "replica cold sync failed".into());

    let (mut ms, mut objects, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let until = deadline(args.seconds, 0.2);
    let mut round = 0;
    while round < 5 || Instant::now() < until {
        let mark = format!("batchmark{round}x");
        write_batch(&mark, args.sizes.replica_batch);
        let bytes_read = || {
            Registry::now()
                .counter_where("hac_net_client_bytes_read_total", Some(("ns", "primary")))
        };
        let read0 = bytes_read();
        let (report, us) = time_us(|| replica.sync_once());
        ms.push(us / 1e3);
        bytes.push((bytes_read() - read0) as f64);
        let caught_up = match report {
            Ok(r) => {
                objects.push((r.segments_applied + usize::from(r.base_reloaded)) as f64);
                replica
                    .search(&ContentExpr::term(&mark))
                    .is_ok_and(|docs| docs.len() == args.sizes.replica_batch)
            }
            Err(_) => false,
        };
        tally.check(caught_up, || {
            format!("replica does not answer for batch {round} after catch-up")
        });
        round += 1;
    }
    out.set("replica_catchup_ms", median(&ms));
    out.set("fed.replica_objects_per_catchup", median(&objects));
    out.set("fed.replica_bytes_per_catchup", median(&bytes));
    drop(replica);
    drop(link);
    server.shutdown();
}
