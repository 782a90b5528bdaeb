//! The semantic mount over a real socket (§3): a `RemoteHac` served by
//! `HacServer`, mounted through `NetRemote`, so the tier-1 command
//! exercises the HACN wire — and the one compatibility check it keeps.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hac::net::wire::{self, Request, RequestBody, ResponseBody};
use hac::net::{ClientConfig, ServerConfig, WireError, PROTOCOL_VERSION};
use hac::prelude::*;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

fn serve_colleague() -> HacServer {
    let exported = Arc::new(HacFs::new());
    exported.mkdir_p(&p("/pub")).unwrap();
    for (name, body) in [
        ("hac.txt", &b"semantic directories and content queries"[..]),
        ("survey.txt", b"a survey of semantic file systems"),
        ("gossip.txt", b"hallway gossip"),
    ] {
        exported.save(&p(&format!("/pub/{name}")), body).unwrap();
    }
    exported.ssync(&p("/")).unwrap();
    HacServer::serve(
        "127.0.0.1:0",
        vec![Arc::new(RemoteHac::new("colleague", exported, p("/pub")))],
        ServerConfig::default(),
    )
    .unwrap()
}

#[test]
fn smkdir_over_a_tcp_mount_imports_the_remote_links() {
    let server = serve_colleague();
    let remote = Arc::new(NetRemote::connect(
        "colleague",
        &server.local_addr().to_string(),
        ClientConfig::default(),
    ));
    assert_eq!(remote.ping().unwrap(), PROTOCOL_VERSION);

    let fs = HacFs::new();
    fs.mkdir_p(&p("/library")).unwrap();
    fs.smount(&p("/library"), remote).unwrap();
    fs.smkdir(&p("/semantic"), "semantic").unwrap();

    let links = fs.readdir(&p("/semantic")).unwrap();
    assert_eq!(links.len(), 2, "two remote docs mention 'semantic'");
    for link in &links {
        let bytes = fs
            .fetch_link(&p(&format!("/semantic/{}", link.name)))
            .unwrap();
        assert!(
            String::from_utf8_lossy(&bytes).contains("semantic"),
            "{} must fetch the remote document's bytes",
            link.name
        );
    }
    server.shutdown();
}

#[test]
fn a_peer_at_another_version_is_refused_at_the_handshake() {
    let server = serve_colleague();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let version = PROTOCOL_VERSION + 1;
    let ping = wire::encode_request(&Request::new(1, RequestBody::Ping { version }));
    wire::write_frame(&mut conn, &ping).unwrap();
    let answer = wire::read_frame(&mut conn, wire::DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(
        wire::decode_response(&answer).unwrap().body,
        ResponseBody::Err(WireError::VersionMismatch {
            server: PROTOCOL_VERSION,
            client: version,
        })
    );
    server.shutdown();
}
