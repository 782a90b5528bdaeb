//! Thread census of a serving node: how many threads the reindex daemon,
//! a `HacServer` exporting one namespace, and the obs endpoints each add
//! to this process, counted from `/proc/self/task`. The pins move only
//! with a change that adds or deletes a kind of thread. This file holds
//! exactly one test, so no other test's threads are counted.

use std::sync::Arc;
use std::time::Duration;

use hac::net::ServerConfig;
use hac::prelude::*;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

/// Live threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Names (`comm`) of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn a_serving_node_runs_one_loop_its_workers_and_the_daemon() {
    let fs = Arc::new(HacFs::new());
    fs.mkdir_p(&p("/pub")).unwrap();
    fs.save(&p("/pub/hac.txt"), b"semantic directories")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    // Let the reindex pass's scoped tokenize threads leave the task list.
    std::thread::sleep(Duration::from_millis(100));
    let at_rest = threads();

    // The daemon: its own tick thread, and no sampler beside it.
    let daemon = ReindexDaemon::spawn(Arc::clone(&fs), Duration::from_secs(3600));
    let with_daemon = threads();

    // One namespace on the default config: the event loop and 4 workers.
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(RemoteHac::new(
            "census",
            Arc::clone(&fs),
            p("/pub"),
        ))],
        ServerConfig::default(),
    )
    .unwrap();
    let with_server = threads();

    // The obs endpoints as `hacsh obs-serve` starts them: a second event
    // loop and 2 workers.
    let routes = hac_obs::http::Routes {
        status: Arc::new(|| "{}".to_string()),
        fleet: None,
    };
    let obs = HacServer::serve_obs(
        "127.0.0.1:0",
        routes,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let with_obs = threads();

    let deltas = (
        with_daemon - at_rest,
        with_server - with_daemon,
        with_obs - with_server,
    );
    assert_eq!(deltas, (1, 5, 3), "daemon / server / obs thread deltas");
    assert_eq!(with_obs - at_rest, 9);
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n == "hac-obs-sampler"),
        "no sampler thread: {names:?}"
    );

    obs.shutdown();
    server.shutdown();
    daemon.stop();
}
