//! Scale soak for the evented server: one event loop, a thousand live
//! sockets, every one of them answered. `#[ignore]`d by default (it
//! needs ~2k file descriptors and a few seconds); CI runs it in the
//! dedicated `net-soak` job, locally: `cargo test -p hac-net --release
//! -- --ignored`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_net::wire::{self, Request, RequestBody, ResponseBody, PROTOCOL_VERSION};
use hac_net::{HacServer, ServerConfig};

struct TinyBackend;

impl RemoteQuerySystem for TinyBackend {
    fn namespace(&self) -> NamespaceId {
        NamespaceId("soak".to_string())
    }

    fn search(&self, _query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        Ok(vec![RemoteDoc {
            id: "soak-doc".to_string(),
            title: "soak".to_string(),
        }])
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        Ok(id.as_bytes().to_vec())
    }
}

#[test]
#[ignore = "needs ~2k fds; run via the net-soak CI job or -- --ignored"]
fn soak_one_thousand_concurrent_connections_are_all_served() {
    // 1k client sockets + 1k accepted sockets live in this one process.
    let got = polling::ensure_nofile(4096).expect("raise RLIMIT_NOFILE");
    assert!(got >= 2200, "nofile limit too low for the soak: {got}");

    const CONNS: usize = 1000;
    let version = PROTOCOL_VERSION;
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(TinyBackend)],
        ServerConfig {
            max_connections: CONNS + 64,
            idle_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Phase 1: open every connection up front — the slab, the poller
    // registration, and the accept path all hold 1k entries at once.
    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let conn = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}"));
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.set_nodelay(true).unwrap();
        conns.push(conn);
    }

    // Phase 2: write every request before reading any response, so the
    // loop sees a thousand readable sockets in the same few cycles.
    for (i, conn) in conns.iter_mut().enumerate() {
        let ping = wire::encode_request(&Request::new(i as u64, RequestBody::Ping { version }));
        wire::write_frame(conn, &ping).unwrap_or_else(|e| panic!("write on conn #{i} failed: {e}"));
        conn.flush().unwrap();
    }

    // Phase 3: every socket gets its own answer, matched by id.
    for (i, conn) in conns.iter_mut().enumerate() {
        let payload = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN)
            .unwrap_or_else(|e| panic!("read on conn #{i} failed: {e}"));
        let resp = wire::decode_response(&payload).unwrap();
        assert_eq!(resp.id, i as u64, "conn #{i} got someone else's response");
        assert_eq!(resp.body, ResponseBody::Pong { version });
    }

    // Phase 4: a second round over the same (now long-lived) sockets —
    // nothing was reaped, nothing desynchronised.
    for (i, conn) in conns.iter_mut().enumerate() {
        let id = (CONNS + i) as u64;
        let req = wire::encode_request(&Request::new(
            id,
            RequestBody::Search {
                ns: "soak".to_string(),
                query: ContentExpr::Term("soak".to_string()),
            },
        ));
        wire::write_frame(conn, &req).unwrap();
        let payload = wire::read_frame(conn, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        let resp = wire::decode_response(&payload).unwrap();
        assert_eq!(resp.id, id);
        match resp.body {
            ResponseBody::Docs(docs) => assert_eq!(docs.len(), 1, "conn #{i}"),
            other => panic!("conn #{i}: unexpected response {other:?}"),
        }
    }

    drop(conns);
    server.shutdown();
}
