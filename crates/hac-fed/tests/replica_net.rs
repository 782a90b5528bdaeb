//! Replication over the real wire: a store-attached `HacFs` exported via
//! `RemoteHac` on a live `HacServer`, a [`Replica`] following it through
//! a `NetRemote` client — manifest and segment objects shipped over the
//! wire `Manifest`/`Object` ops. Covers the acceptance scenario:
//! a replica (re)started against a running primary converges via segment
//! shipping alone, serves reads during an outage, and resumes catch-up
//! when the primary returns.

use std::sync::Arc;
use std::time::Duration;

use hac_core::remote::RemoteQuerySystem;
use hac_core::HacFs;
use hac_fed::{FedError, Replica};
use hac_index::ContentExpr;
use hac_net::{ClientConfig, HacServer, NetRemote, ServerConfig};
use hac_remote::RemoteHac;
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

fn fast_client() -> ClientConfig {
    let mut config = ClientConfig::default();
    config.retry.max_attempts = 2;
    config.retry.base_delay = Duration::from_millis(2);
    config.retry.request_timeout = Duration::from_millis(800);
    config.connect_timeout = Duration::from_millis(500);
    config
}

/// A store-attached export: the durable trail the replica will follow.
fn primary_fs() -> Arc<HacFs> {
    let fs = Arc::new(HacFs::new());
    fs.attach_store(Arc::new(hac_store::MemStore::new()))
        .unwrap();
    fs.mkdir_p(&p("/pub")).unwrap();
    fs.save(&p("/pub/a.txt"), b"replicated alpha corpus")
        .unwrap();
    fs.save(&p("/pub/b.txt"), b"replicated beta corpus")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    fs
}

#[test]
fn replica_follows_a_live_export_over_tcp() {
    let fs = primary_fs();
    let backend = Arc::new(RemoteHac::new("primary", Arc::clone(&fs), p("/pub")));
    let server = HacServer::serve("127.0.0.1:0", vec![backend], ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let client = Arc::new(NetRemote::connect("primary", &addr, fast_client()));
    let replica = Replica::new(client as Arc<dyn RemoteQuerySystem>);

    // Initial convergence: the whole trail ships across the socket.
    let report = replica.sync_once().unwrap();
    assert!(report.segments_applied > 0);
    let hits = replica
        .search(&ContentExpr::Term("replicated".into()))
        .unwrap();
    let ids: Vec<&str> = hits.iter().map(|d| d.id.as_str()).collect();
    assert_eq!(ids, vec!["/pub/a.txt", "/pub/b.txt"]);

    // The primary keeps writing; only the delta ships.
    fs.save(&p("/pub/c.txt"), b"replicated gamma corpus")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    let delta = replica.sync_once().unwrap();
    assert!(delta.segments_applied >= 1);
    assert!(!delta.base_reloaded);
    assert_eq!(
        replica
            .search(&ContentExpr::Term("replicated".into()))
            .unwrap()
            .len(),
        3
    );

    // Outage: the primary dies. Sync fails as a transport error, but the
    // replica keeps serving what it has — reads never degrade with the
    // primary.
    let seq_before = replica.applied_seq();
    server.shutdown();
    match replica.sync_once() {
        Err(FedError::Remote(_)) => {}
        other => panic!("sync against a dead primary must fail remote, got {other:?}"),
    }
    assert_eq!(
        replica.applied_seq(),
        seq_before,
        "state untouched by outage"
    );
    assert_eq!(
        replica
            .search(&ContentExpr::Term("replicated".into()))
            .unwrap()
            .len(),
        3,
        "replica serves reads through the outage"
    );

    // Primary restarts on the same address (same durable store via the
    // same fs); a fresh replica process converges from the shipped trail
    // alone — no cold reindex, no state carried over.
    fs.save(&p("/pub/d.txt"), b"replicated delta corpus")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    let backend = Arc::new(RemoteHac::new("primary", Arc::clone(&fs), p("/pub")));
    let server = HacServer::serve(&addr, vec![backend], ServerConfig::default()).unwrap();

    let catchup = replica.sync_once().unwrap();
    assert!(
        catchup.segments_applied >= 1,
        "outage backlog ships on return"
    );
    assert_eq!(
        replica
            .search(&ContentExpr::Term("replicated".into()))
            .unwrap()
            .len(),
        4
    );

    let restarted = Replica::new(
        Arc::new(NetRemote::connect("primary", &addr, fast_client())) as Arc<dyn RemoteQuerySystem>,
    );
    restarted.sync_once().unwrap();
    assert_eq!(restarted.applied_seq(), replica.applied_seq());
    assert_eq!(restarted.doc_count(), replica.doc_count());

    server.shutdown();
}
