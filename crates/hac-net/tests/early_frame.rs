//! One request in flight per connection: a frame the peer sends early
//! waits in the server's decoder and is answered in order once the
//! response before it is queued — and the slow-loris clock does not run
//! on those held-back bytes. It asserts on the process-wide
//! `hac_net_server_reaped_total` counter, so it lives in its own test
//! binary.

use std::sync::Arc;
use std::time::Duration;

use hac_core::remote::{NamespaceId, RemoteDoc, RemoteError, RemoteQuerySystem};
use hac_index::ContentExpr;
use hac_net::wire::{self, Request, RequestBody, ResponseBody};
use hac_net::{HacServer, ServerConfig};

/// A backend whose every search takes 400 ms: well past the 150 ms read
/// deadline below, so a clock running on the waiting frame would fire.
struct Slow;

impl RemoteQuerySystem for Slow {
    fn namespace(&self) -> NamespaceId {
        NamespaceId("slow".to_string())
    }

    fn search(&self, _query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
        std::thread::sleep(Duration::from_millis(400));
        Ok(Vec::new())
    }

    fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
        Err(RemoteError::NotFound(id.to_string()))
    }
}

#[test]
fn an_early_second_frame_is_answered_in_order_and_never_reaped() {
    let server = HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(Slow)],
        ServerConfig {
            read_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let slow_reads = hac_obs::counter("hac_net_server_reaped_total", &[("reason", "slow_read")]);
    let reaped_before = slow_reads.get();

    // Two complete frames in one write: the second arrives while the
    // first is still on the CPU pool.
    let mut burst = Vec::new();
    for id in [1u64, 2] {
        let search = RequestBody::Search {
            ns: "slow".into(),
            query: ContentExpr::All,
        };
        wire::write_frame(&mut burst, &wire::encode_request(&Request::new(id, search))).unwrap();
    }
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    std::io::Write::write_all(&mut conn, &burst).unwrap();

    for want in [1u64, 2] {
        let payload = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN)
            .unwrap_or_else(|e| panic!("response {want} lost: {e}"));
        let resp = wire::decode_response(&payload).unwrap();
        assert_eq!(resp.id, want, "responses must come back in request order");
        assert_eq!(resp.body, ResponseBody::Docs(Vec::new()));
    }
    assert_eq!(
        slow_reads.get(),
        reaped_before,
        "a frame the server holds back must not count against the peer"
    );
    server.shutdown();
}
