//! End-to-end `fed` command suite: one shell serves its corpus as a
//! sharded federation, a second shell mounts it with `mount … fed://` and
//! drives semantic directories over it — the full operator path from
//! `fed serve` to `ls` on a federated mount, plus `fed status` on both
//! sides and `fed stop` teardown.

use hac_shell::Shell;

/// Pulls the `mount with: mount <dir> fed://ADDR/NS` hint out of the
/// `fed serve` output.
fn mount_url(serve_output: &str) -> String {
    serve_output
        .lines()
        .find_map(|l| l.strip_prefix("mount with: mount <dir> "))
        .expect("fed serve must print a mount hint")
        .to_string()
}

#[test]
fn fed_serve_mount_query_status_stop_round_trip() {
    // Server side: a corpus, synced, sharded three ways.
    let mut server = Shell::new();
    server.exec("mkdir /docs").unwrap();
    server
        .exec("write /docs/a.txt fingerprint ridge patterns")
        .unwrap();
    server
        .exec("write /docs/b.txt fingerprint whorl atlas")
        .unwrap();
    server.exec("write /docs/c.txt grocery list").unwrap();
    server.exec("ssync").unwrap();
    let served = server.exec("fed serve 127.0.0.1:0 lib 3 /docs").unwrap();
    assert!(served.contains("serving lib across 3 shards"), "{served}");
    let url = mount_url(&served);

    // The serving side reports its shard listeners.
    let status = server.exec("fed status").unwrap();
    assert!(status.contains("serving 3 shards"), "{status}");

    // Client side: bootstrap the whole federation from the one address.
    let mut client = Shell::new();
    client.exec("mkdir /mnt").unwrap();
    let mounted = client.exec(&format!("mount /mnt {url}")).unwrap();
    assert!(
        mounted.contains("mounted federated lib") && mounted.contains("3 shards"),
        "{mounted}"
    );

    // A semantic directory over the federated mount unions all shards:
    // both fingerprint docs land regardless of shard placement.
    client.exec("smkdir /q fingerprint").unwrap();
    client.exec("ssync").unwrap();
    let ls = client.exec("ls /q").unwrap();
    assert!(ls.contains("a.txt"), "{ls}");
    assert!(ls.contains("b.txt"), "{ls}");
    assert!(!ls.contains("c.txt"), "{ls}");

    // The client sees the coordinator's view: per-shard health, complete
    // last result.
    let status = client.exec("fed status").unwrap();
    assert!(
        status.contains("federation lib (generation 2, last result complete)"),
        "{status}"
    );
    assert!(status.contains("lib.0 @ "), "{status}");
    assert!(status.contains("lib.2 @ "), "{status}");

    // Reading a hit routes the fetch to the owning shard.
    let body = client.exec("cat /q/a.txt").unwrap();
    assert!(body.contains("fingerprint ridge"), "{body}");

    // Teardown is symmetric with serve.
    let stopped = server.exec("fed stop").unwrap();
    assert!(stopped.contains("stopped 3 shard servers"), "{stopped}");
    assert_eq!(
        server.exec("fed status").unwrap(),
        "no federation running\n"
    );
}

#[test]
fn fed_usage_errors_are_caught_before_any_socket_work() {
    let mut sh = Shell::new();
    assert!(sh.exec("fed").is_err());
    assert!(sh.exec("fed serve 127.0.0.1:0 lib 0").is_err(), "0 shards");
    assert!(
        sh.exec("fed serve 127.0.0.1:0 lib 65").is_err(),
        "too many shards"
    );
    assert!(sh.exec("fed serve no-port lib 2").is_err(), "bad addr");
    assert!(
        sh.exec("mount /m fed://127.0.0.1:1").is_err(),
        "no namespace"
    );
    assert_eq!(sh.exec("fed stop").unwrap(), "no federation serving\n");
}

#[test]
fn fed_follow_attaches_a_replica_that_joins_failover_and_fleet_scrapes() {
    let mut server = Shell::new();
    server.exec("mkdir /docs").unwrap();
    server
        .exec("write /docs/a.txt fingerprint ridge patterns")
        .unwrap();
    server
        .exec("write /docs/b.txt fingerprint whorl atlas")
        .unwrap();
    server.exec("ssync").unwrap();
    let served = server.exec("fed serve 127.0.0.1:0 lib 2 /docs").unwrap();
    let url = mount_url(&served);

    // `fed follow` needs a mounted federation to attach to.
    let mut client = Shell::new();
    assert!(client.exec("fed follow 0").is_err(), "no mount yet");
    client.exec("mkdir /mnt").unwrap();
    client.exec(&format!("mount /mnt {url}")).unwrap();
    assert!(client.exec("fed follow 9").is_err(), "shard out of range");

    let followed = client.exec("fed follow 1").unwrap();
    assert!(
        followed.contains("following lib.1 @ ") && followed.contains("registered for failover"),
        "{followed}"
    );
    let status = client.exec("fed status").unwrap();
    assert!(status.contains("replicas 1"), "{status}");

    // The replica is a fleet peer in its own right, and it speaks the
    // obs ops — so a scatter-scrape over primaries AND the replica
    // still comes back complete (3 peers, none down, not partial).
    let stats = client.exec("fleet stats").unwrap();
    assert!(
        stats.contains("fleet scrape: 3 peers (3 up, 0 down), result complete"),
        "{stats}"
    );
    assert!(stats.contains("lib.1@replica0"), "{stats}");

    // Teardown joins the follower thread.
    let stopped = client.exec("fed stop").unwrap();
    assert!(stopped.contains("stopped 1 replica followers"), "{stopped}");
}
