//! Byte-format pins for every format HAC persists or sends.
//!
//! Every pin was captured from its format's encoder and reviewed by hand,
//! and holds both ways. The formats built from `hac-codec`'s `Encode`
//! layer — VFS snapshots (HACV), index snapshots (HACI), segments (HACS),
//! path sidecars (HACP), per-directory metadata records and HACN requests
//! — are untagged, with varint integers and counts. The formats written
//! field by field — store manifests (HACM, versions 2 and 1), shard maps
//! (HACF), metric snapshots (HACR), span forests (HACT) and HACN responses
//! — keep their integers at natural width. The tagged layout the first
//! four enveloped formats used before is kept as `TAGGED_*` hex, which
//! must be refused by name. The same bytes then drive fail-closed tables
//! of hostile mutations over every format.

use std::sync::Arc;

use hac::core::state::DirRecordDisk;
use hac::core::store::{
    decode_doc_paths, decode_index_snapshot, decode_segment, encode_doc_paths,
    encode_index_snapshot, encode_segment, SnapshotDecode,
};
use hac::core::{HacFs, RemoteDoc, RemoteError};
use hac::corpus::docs::{generate_docs, DocCollectionSpec};
use hac::fed::{ShardEntry, ShardMap};
use hac::index::segment::{Segment, SegmentDoc};
use hac::index::{tokenize_text, ContentExpr, DocId, Granularity, Index, Token};
use hac::net::wire::{
    self, FrameDecoder, Request, RequestBody, Response, ResponseBody, TraceContext, WireError,
};
use hac::vfs::{persist, VPath, Vfs, VfsError};
use hac_obs::trace::{decode_spans, encode_spans};
use hac_obs::{Event, HistogramSample, MetricId, Sample, Snapshot, HISTOGRAM_BUCKETS};
use hac_store::{ContentHash, ContentStore, Manifest, MemStore, SegmentEntry};

const VFS_SNAPSHOT: &str = concat!(
    "4841435602040400000000000100010104646f63730101010004646f63730104",
    "00010205612e74787402046c696e6b0302020105612e74787402030100026869",
    "030301046c696e6b040400020204646f637305612e74787404",
);
const HACI_ONE_TERM: &str = concat!(
    "484143490201020105616c706861010103020102000146010101020201020146",
    "020240010205",
);
const HACI_MULTI_TERM: &str = concat!(
    "4841434902000305616c70686104626574610a66726f6d1f616c696365030102",
    "010601040201010002020300020001060002",
);
const HACS: &str = concat!(
    "48414353020309010102082f642f612e747874020005616c706861010466726f",
    "6d05616c6963650107",
);
const HACP: &str = "48414350020201082f642f612e74787402082f642f622e747874";
const DIR_RECORD: &str = concat!(
    "030115616c70686120414e442070617468282f646f6373290205612e74787400",
    "076c6f63616c3a350172010c72656d6f74653a7765623a7801076c6f63616c3a",
    "39",
);
const REQ_PING: &str = "01000500";
const REQ_CAPABILITIES: &str = "020100";
const REQ_SEARCH: &str = concat!(
    "03020377656205060005616c706861010466726f6d05616c6963650702020466",
    "61737404706174680806030566696e67720106040370726505090a00",
);
const REQ_SEARCH_TRACED: &str = concat!(
    "04020377656205060005616c706861010466726f6d05616c6963650702020466",
    "61737404706174680806030566696e67720106040370726505090a0188ef99ab",
    "c5e88c911107",
);
const REQ_FETCH: &str = "05030377656203642f3100";
const REQ_MANIFEST: &str = "06040377656200";
const REQ_OBJECT: &str = "070503776562046162313200";
const REQ_SHARD_MAP: &str = "08060377656200";
const REQ_TRACE_SPANS: &str = "090703776562ffffffffffffffffff010188ef99abc5e88c911107";
const REQ_METRICS: &str = "0a080377656200";

// The same fixtures in the tagged layout these formats had before: a
// type tag before every value and eight bytes per integer, under the VFS
// magic `HACVFS01` and version 1 of the HACI, HACS and HACP envelopes.
const TAGGED_VFS_SNAPSHOT: &str = concat!(
    "4841435646533031030200000000000000010400000000000000030200000000",
    "0000000404000000000000000100000000000000000307000000000000000100",
    "0000000000000001000000000000000002000000000000000001000000000000",
    "0000010100000000000000010000000000000000080100000000000000030100",
    "000000000000040100000000000000020400000000000000646f637301010000",
    "0000000000010100000000000000030700000000000000010100000000000000",
    "010000000000000000020400000000000000646f637301010000000000000001",
    "0400000000000000010000000000000000080100000000000000030100000000",
    "000000040200000000000000020500000000000000612e747874010200000000",
    "0000000204000000000000006c696e6b01030000000000000001020000000000",
    "0000030700000000000000010200000000000000010100000000000000020500",
    "000000000000612e747874010200000000000000010300000000000000010100",
    "0000000000000800000000000000000301000000000000000302000000000000",
    "0001680000000000000001690000000000000001030000000000000003070000",
    "0000000000010300000000000000010100000000000000020400000000000000",
    "6c696e6b01040000000000000001040000000000000001000000000000000008",
    "0200000000000000030100000000000000030100000000000000030200000000",
    "000000020400000000000000646f6373020500000000000000612e7478740104",
    "00000000000000",
);
const TAGGED_HACI: &str = concat!(
    "4841434901030800000000000000080100000000000000030100000000000000",
    "0102000000000000000302000000000000000401000000000000000205000000",
    "00000000616c7068610100000000000000000301000000000000000205000000",
    "00000000616c7068610301000000000000000301000000000000000301000000",
    "0000000001030000000000000004020000000000000001010000000000000003",
    "0300000000000000010200000000000000010000000000000000010100000000",
    "0000000146000000000000000303000000000000000101000000000000000101",
    "0000000000000001010000000000000003020000000000000003020000000000",
    "0000010100000000000000010200000000000000030100000000000000014600",
    "0000000000000301000000000000000302000000000000000102000000000000",
    "0001400000000000000003010000000000000003010000000000000001020000",
    "0000000000010500000000000000",
);
const TAGGED_HACS: &str = concat!(
    "4841435301030400000000000000010300000000000000010900000000000000",
    "0301000000000000000304000000000000000101000000000000000102000000",
    "000000000208000000000000002f642f612e7478740302000000000000000800",
    "00000000000000020500000000000000616c7068610801000000000000000302",
    "0000000000000002040000000000000066726f6d020500000000000000616c69",
    "6365030100000000000000010700000000000000",
);
const TAGGED_HACP: &str = concat!(
    "4841435001030200000000000000030200000000000000010100000000000000",
    "0208000000000000002f642f612e747874030200000000000000010200000000",
    "0000000208000000000000002f642f622e747874",
);

const HACM_V2: &str = concat!(
    "4841434d02070000000000000000401e18240a060001abababababababababab",
    "abababababababababababababababababababababab01efefefefefefefefef",
    "efefefefefefefefefefefefefefefefefefefefefefef02000000cdcdcdcdcd",
    "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd0300000000",
    "0000007800000000000000001000000000000078000000000000005e5e5e5e5e",
    "5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e0500000000",
    "000000040000000000000000020000000000007c00000000000000",
);
const HACM_V1: &str = concat!(
    "4841434d01070000000000000001abababababababababababababababababab",
    "abababababababababababababab01efefefefefefefefefefefefefefefefef",
    "efefefefefefefefefefefefefefef02000000cdcdcdcdcdcdcdcdcdcdcdcdcd",
    "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd03000000000000007800000000",
    "000000001000000000000078000000000000005e5e5e5e5e5e5e5e5e5e5e5e5e",
    "5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e05000000000000000400000000",
    "00000000020000000000007c00000000000000",
);
const HACF: &str = concat!(
    "48414346010300000000000000030000006c696202000000050000006c69622e",
    "300e0000003132372e302e302e313a37303031050000006c69622e310e000000",
    "3132372e302e302e313a37303032",
);
const HACR: &str = concat!(
    "4841435201010000000d0000006861635f6f70735f746f74616c010000000200",
    "00006f70060000007365617263682a0000000000000000000000000000000100",
    "00000d0000006861635f706f6f6c5f69646c6500000000fdffffffffffffffff",
    "ffffffffffffff010000000c0000006861635f71756572795f75730100000002",
    "0000006e73030000006c69620200000000000000820000000000000000000000",
    "0000000001000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000010000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000efbe0000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000010000000d0000006861635f6f70735f746f7461",
    "6c110000004f7065726174696f6e7320736572766564",
);
const HACT: &str = concat!(
    "4841435401020000000b0000006665645f736361747465720100000002000000",
    "6e73030000006c69626400000000000000011900000000000000012211000000",
    "00000001070000000000000000040000006e6f74650000000082000000000000",
    "000001221100000000000000010700000000000000",
);
const RESP_PONG: &str = "010000000000000000000500";
const RESP_CAPABILITIES: &str = concat!(
    "020000000000000001a10100000000000001050002000000030000006c696203",
    "000000776562",
);
const RESP_DOCS: &str = concat!(
    "0300000000000000000202000000060000002f612e7478740100000041060000",
    "002f622e74787400000000",
);
const RESP_BLOB: &str = "040000000000000001a101000000000000030300000000ff07";
const RESP_ERR_UNAVAILABLE: &str = "050000000000000000040004000000646f776e";
const RESP_ERR_TIMEOUT: &str = "060000000000000001a1010000000000000401";
const RESP_ERR_NOT_FOUND: &str = "07000000000000000004020100000078";
const RESP_ERR_UNSUPPORTED: &str = "080000000000000001a10100000000000004030100000071";
const RESP_ERR_UNKNOWN_NS: &str = "0900000000000000000404030000007a7a7a";
const RESP_ERR_BAD_REQUEST: &str = "0a0000000000000001a1010000000000000405040000006e6f7065";
const RESP_ERR_VERSION_MISMATCH: &str = "0b0000000000000000040605000900";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

fn vfs_fixture() -> Vfs {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/docs")).unwrap();
    fs.save(&p("/docs/a.txt"), b"hi").unwrap();
    fs.symlink(&p("/docs/link"), &p("/docs/a.txt")).unwrap();
    fs
}

fn one_term_index() -> Index {
    let mut index = Index::new(Granularity::Block { docs_per_block: 2 });
    index.add_doc(DocId(1), 1, &[Token::word("alpha")]);
    index.add_doc(DocId(2), 1, &[Token::word("alpha")]);
    index.add_doc(DocId(70), 1, &[Token::word("alpha")]);
    index.add_doc(DocId(1), 2, &[Token::word("alpha")]);
    index.remove_doc(DocId(2));
    index
}

fn multi_term_index() -> Index {
    let mut index = Index::new(Granularity::Exact);
    index.add_doc(DocId(1), 1, &[Token::word("alpha"), Token::word("beta")]);
    index.add_doc(
        DocId(2),
        3,
        &[Token::word("beta"), Token::field("from", "alice")],
    );
    index
}

fn segment_fixture() -> Segment {
    Segment {
        seq: 3,
        generation: 9,
        adds: vec![SegmentDoc {
            doc: 1,
            version: 2,
            path: "/d/a.txt".into(),
            tokens: vec![Token::word("alpha"), Token::field("from", "alice")],
        }],
        removes: vec![7],
    }
}

fn paths_fixture() -> Vec<(u64, String)> {
    vec![(1, "/d/a.txt".into()), (2, "/d/b.txt".into())]
}

fn dir_record_fixture() -> DirRecordDisk {
    DirRecordDisk {
        uid: 3,
        query: Some("alpha AND path(/docs)".into()),
        links: vec![
            ("a.txt".into(), 0, "local:5".into()),
            ("r".into(), 1, "remote:web:x".into()),
        ],
        prohibited: vec!["local:9".into()],
    }
}

/// Every `RequestBody` variant, and a query using every `ContentExpr`
/// variant, traced and untraced.
fn request_fixtures() -> Vec<(&'static str, Request)> {
    let query = ContentExpr::and(
        ContentExpr::or(
            ContentExpr::term("alpha"),
            ContentExpr::field("from", "alice"),
        ),
        ContentExpr::and_not(
            ContentExpr::Phrase(vec!["fast".into(), "path".into()]),
            ContentExpr::not(ContentExpr::or(
                ContentExpr::Approx("fingr".into(), 1),
                ContentExpr::or(
                    ContentExpr::Prefix("pre".into()),
                    ContentExpr::and(ContentExpr::All, ContentExpr::Nothing),
                ),
            )),
        ),
    );
    let trace = Some(TraceContext {
        trace_id: 0x1122_3344_5566_7788,
        span_id: 7,
    });
    let ns = || "web".to_string();
    vec![
        (REQ_PING, Request::new(1, RequestBody::Ping { version: 5 })),
        (REQ_CAPABILITIES, Request::new(2, RequestBody::Capabilities)),
        (
            REQ_SEARCH,
            Request::new(
                3,
                RequestBody::Search {
                    ns: ns(),
                    query: query.clone(),
                },
            ),
        ),
        (
            REQ_SEARCH_TRACED,
            Request {
                id: 4,
                body: RequestBody::Search { ns: ns(), query },
                trace,
            },
        ),
        (
            REQ_FETCH,
            Request::new(
                5,
                RequestBody::Fetch {
                    ns: ns(),
                    doc: "d/1".into(),
                },
            ),
        ),
        (
            REQ_MANIFEST,
            Request::new(6, RequestBody::Manifest { ns: ns() }),
        ),
        (
            REQ_OBJECT,
            Request::new(
                7,
                RequestBody::Object {
                    ns: ns(),
                    hash: "ab12".into(),
                },
            ),
        ),
        (
            REQ_SHARD_MAP,
            Request::new(8, RequestBody::ShardMap { ns: ns() }),
        ),
        (
            REQ_TRACE_SPANS,
            Request {
                id: 9,
                body: RequestBody::TraceSpans {
                    ns: ns(),
                    trace_id: u64::MAX,
                },
                trace,
            },
        ),
        (
            REQ_METRICS,
            Request::new(10, RequestBody::Metrics { ns: ns() }),
        ),
    ]
}

fn manifest_fixture() -> Manifest {
    Manifest {
        seq: 7,
        committed_at_micros: 1_700_000_000_000_000,
        base: Some(ContentHash([0xab; 32])),
        paths: Some(ContentHash([0xef; 32])),
        segments: vec![
            SegmentEntry {
                hash: ContentHash([0xcd; 32]),
                seq: 3,
                docs: 120,
                bytes: 4096,
                generation: 120,
            },
            SegmentEntry {
                hash: ContentHash([0x5e; 32]),
                seq: 5,
                docs: 4,
                bytes: 512,
                generation: 124,
            },
        ],
    }
}

fn shard_map_fixture() -> ShardMap {
    ShardMap {
        generation: 3,
        logical: "lib".into(),
        shards: vec![
            ShardEntry {
                ns: "lib.0".into(),
                addr: "127.0.0.1:7001".into(),
            },
            ShardEntry {
                ns: "lib.1".into(),
                addr: "127.0.0.1:7002".into(),
            },
        ],
    }
}

fn metric_id(name: &str, labels: &[(&str, &str)]) -> MetricId {
    MetricId {
        name: name.into(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// A counter, a gauge, a histogram with an exemplar, and help text.
fn metrics_fixture() -> Snapshot {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut exemplars = [0u64; HISTOGRAM_BUCKETS];
    buckets[1] = 1;
    buckets[7] = 1;
    exemplars[7] = 0xbeef;
    Snapshot {
        counters: vec![Sample {
            id: metric_id("hac_ops_total", &[("op", "search")]),
            value: 42,
        }],
        gauges: vec![Sample {
            id: metric_id("hac_pool_idle", &[]),
            value: -3,
        }],
        histograms: vec![HistogramSample {
            id: metric_id("hac_query_us", &[("ns", "lib")]),
            count: 2,
            sum: 130,
            buckets,
            exemplars,
        }],
        help: [("hac_ops_total".to_string(), "Operations served".to_string())]
            .into_iter()
            .collect(),
    }
}

fn spans_fixture() -> Vec<Event> {
    vec![
        Event {
            name: "fed_scatter".into(),
            fields: vec![("ns".into(), "lib".into())],
            at_micros: 100,
            duration_micros: Some(25),
            trace_id: Some(0x1122),
            span_id: Some(7),
            parent_span_id: None,
        },
        Event {
            name: "note".into(),
            fields: vec![],
            at_micros: 130,
            duration_micros: None,
            trace_id: Some(0x1122),
            span_id: None,
            parent_span_id: Some(7),
        },
    ]
}

/// Every `ResponseBody` and `WireError` shape, every other one timed.
fn response_fixtures() -> Vec<(&'static str, Response)> {
    let err = |e: WireError| ResponseBody::Err(e);
    let remote = |e: RemoteError| ResponseBody::Err(WireError::Remote(e));
    let bodies = [
        (RESP_PONG, ResponseBody::Pong { version: 5 }),
        (
            RESP_CAPABILITIES,
            ResponseBody::Capabilities {
                version: 5,
                namespaces: vec!["lib".into(), "web".into()],
            },
        ),
        (
            RESP_DOCS,
            ResponseBody::Docs(vec![
                RemoteDoc {
                    id: "/a.txt".into(),
                    title: "A".into(),
                },
                RemoteDoc {
                    id: "/b.txt".into(),
                    title: String::new(),
                },
            ]),
        ),
        (RESP_BLOB, ResponseBody::Blob(vec![0, 255, 7])),
        (
            RESP_ERR_UNAVAILABLE,
            remote(RemoteError::Unavailable("down".into())),
        ),
        (RESP_ERR_TIMEOUT, remote(RemoteError::Timeout)),
        (
            RESP_ERR_NOT_FOUND,
            remote(RemoteError::NotFound("x".into())),
        ),
        (
            RESP_ERR_UNSUPPORTED,
            remote(RemoteError::UnsupportedQuery("q".into())),
        ),
        (
            RESP_ERR_UNKNOWN_NS,
            err(WireError::UnknownNamespace("zzz".into())),
        ),
        (
            RESP_ERR_BAD_REQUEST,
            err(WireError::BadRequest("nope".into())),
        ),
        (
            RESP_ERR_VERSION_MISMATCH,
            err(WireError::VersionMismatch {
                server: 5,
                client: 9,
            }),
        ),
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, (hex, body))| {
            let resp = Response {
                id: i as u64 + 1,
                body,
                server_elapsed_us: (i % 2 == 1).then_some(417),
            };
            (hex, resp)
        })
        .collect()
}

fn decoded_index(bytes: &[u8]) -> Index {
    match decode_index_snapshot(bytes).expect("pinned snapshot decodes") {
        SnapshotDecode::Current(index) => *index,
        SnapshotDecode::VersionSkew(v) => panic!("pinned snapshot reports version {v}"),
    }
}

fn hits(index: &Index, expr: &ContentExpr) -> Vec<u64> {
    let provider = std::collections::HashMap::<DocId, Vec<Token>>::new();
    index
        .eval(expr, &index.all_docs(), &provider)
        .ids()
        .iter()
        .map(|d| d.0)
        .collect()
}

#[test]
fn vfs_snapshot_bytes_are_pinned() {
    let pinned = unhex(VFS_SNAPSHOT);
    assert_eq!(persist::snapshot(&vfs_fixture()).unwrap(), pinned);
    let restored = Vfs::new();
    persist::restore(&restored, &pinned).unwrap();
    assert_eq!(&restored.read_file(&p("/docs/link")).unwrap()[..], b"hi");
    assert_eq!(persist::snapshot(&restored).unwrap(), pinned);
}

#[test]
fn index_snapshot_bytes_are_pinned() {
    for (hex, index) in [
        (HACI_ONE_TERM, one_term_index()),
        (HACI_MULTI_TERM, multi_term_index()),
    ] {
        let pinned = unhex(hex);
        assert_eq!(encode_index_snapshot(&index), pinned);
        assert_eq!(encode_index_snapshot(&decoded_index(&pinned)), pinned);
    }
    let index = decoded_index(&unhex(HACI_MULTI_TERM));
    assert_eq!(index.granularity(), Granularity::Exact);
    assert_eq!((index.doc_count(), index.generation()), (2, 2));
    assert_eq!(index.indexed_version(DocId(2)), Some(3));
    assert_eq!(hits(&index, &ContentExpr::term("alpha")), vec![1]);
    assert_eq!(hits(&index, &ContentExpr::term("beta")), vec![1, 2]);
    assert_eq!(hits(&index, &ContentExpr::field("from", "alice")), vec![2]);
}

#[test]
fn index_snapshots_encode_the_same_every_time() {
    // Enough terms that two hash maps practically never agree on order.
    let build = || {
        let mut index = Index::new(Granularity::Exact);
        let tokens: Vec<Token> = (0..32).map(|i| Token::word(&format!("t{i}"))).collect();
        index.add_doc(DocId(1), 1, &tokens);
        index
    };
    assert_eq!(
        encode_index_snapshot(&build()),
        encode_index_snapshot(&build())
    );
}

#[test]
fn segment_and_path_sidecar_bytes_are_pinned() {
    let pinned = unhex(HACS);
    assert_eq!(encode_segment(&segment_fixture()), pinned);
    assert_eq!(decode_segment(&pinned).unwrap(), segment_fixture());

    let pinned = unhex(HACP);
    assert_eq!(encode_doc_paths(&paths_fixture()), pinned);
    assert_eq!(decode_doc_paths(&pinned).unwrap(), paths_fixture());
}

#[test]
fn dir_record_bytes_are_pinned() {
    let pinned = unhex(DIR_RECORD);
    assert_eq!(hac_codec::encode_value(&dir_record_fixture()), pinned);
    let back: DirRecordDisk = hac_codec::decode_value(&pinned).unwrap();
    let want = dir_record_fixture();
    assert_eq!(
        (back.uid, back.query, back.links, back.prohibited),
        (want.uid, want.query, want.links, want.prohibited)
    );
}

#[test]
fn request_bytes_are_pinned() {
    for (hex, req) in request_fixtures() {
        let pinned = unhex(hex);
        assert_eq!(wire::encode_request(&req), pinned, "{:?}", req.body);
        assert_eq!(wire::decode_request(&pinned).unwrap(), req);
    }
}

#[test]
fn manifest_bytes_are_pinned() {
    let pinned = unhex(HACM_V2);
    assert_eq!(manifest_fixture().encode(), pinned);
    assert_eq!(Manifest::decode(&pinned).unwrap(), manifest_fixture());
    // A v1 manifest has no commit stamp and still decodes, with a zero one.
    let v1 = Manifest {
        committed_at_micros: 0,
        ..manifest_fixture()
    };
    assert_eq!(Manifest::decode(&unhex(HACM_V1)).unwrap(), v1);
}

#[test]
fn shard_map_bytes_are_pinned() {
    let pinned = unhex(HACF);
    assert_eq!(shard_map_fixture().encode(), pinned);
    assert_eq!(ShardMap::decode(&pinned).unwrap(), shard_map_fixture());
}

#[test]
fn metric_snapshot_bytes_are_pinned() {
    let pinned = unhex(HACR);
    assert_eq!(metrics_fixture().encode(), pinned);
    let back = Snapshot::decode(&pinned).unwrap();
    assert_eq!(back.encode(), pinned);
    assert_eq!(back.gauge_value("hac_pool_idle", &[]), Some(-3));
    assert_eq!(back.histograms[0].exemplars[7], 0xbeef);
}

#[test]
fn span_forest_bytes_are_pinned() {
    let pinned = unhex(HACT);
    assert_eq!(encode_spans(&spans_fixture()), pinned);
    let back = decode_spans(&pinned).unwrap();
    assert_eq!(encode_spans(&back), pinned);
    assert_eq!(back[1].parent_span_id, Some(7));
}

#[test]
fn response_bytes_are_pinned() {
    // One buffer for every response, as a server connection reuses one.
    let mut buf = Vec::new();
    for (hex, resp) in response_fixtures() {
        let pinned = unhex(hex);
        wire::encode_response_into(&resp, &mut buf);
        assert_eq!(buf, pinned, "{:?}", resp.body);
        assert_eq!(wire::decode_response(&pinned).unwrap(), resp);
    }
}

#[test]
fn tagged_layouts_are_refused_by_name() {
    // The tagged layout's VFS magic `HACVFS01` opens as the envelope
    // `HACV` with version byte `F`.
    let err = persist::restore(&Vfs::new(), &unhex(TAGGED_VFS_SNAPSHOT)).unwrap_err();
    assert_eq!(err, VfsError::SnapshotVersion(b'F'));
    assert_eq!(err.to_string(), "unsupported snapshot version 70");
    // HACI v1 is a version skew, which the caller counts and rebuilds
    // from cold (`store_recovery.rs` follows it through `load_index`).
    assert!(matches!(
        decode_index_snapshot(&unhex(TAGGED_HACI)),
        Ok(SnapshotDecode::VersionSkew(1))
    ));
    let err = decode_segment(&unhex(TAGGED_HACS)).unwrap_err().to_string();
    assert!(err.contains("unsupported version 1"), "{err}");
    let err = decode_doc_paths(&unhex(TAGGED_HACP))
        .unwrap_err()
        .to_string();
    assert!(err.contains("unsupported version 1"), "{err}");
}

#[test]
fn a_store_holding_a_tagged_segment_or_sidecar_rebuilds_cold() {
    for tagged in [TAGGED_HACS, TAGGED_HACP] {
        let durable = Arc::new(MemStore::new());
        let fs = HacFs::new();
        fs.attach_store(Arc::clone(&durable) as Arc<dyn ContentStore>)
            .unwrap();
        fs.mkdir_p(&p("/d")).unwrap();
        fs.save(&p("/d/a.txt"), b"alpha").unwrap();
        fs.ssync(&p("/")).unwrap();

        // Commit a manifest naming the tagged bytes.
        let current = durable.get_ref("current").unwrap().unwrap();
        let mut manifest = Manifest::decode(&durable.get(current).unwrap()).unwrap();
        let object = durable.put(&unhex(tagged)).unwrap();
        if tagged == TAGGED_HACS {
            manifest.segments[0].hash = object;
        } else {
            manifest.paths = Some(object);
        }
        let current = durable.put(&manifest.encode()).unwrap();
        durable.set_ref("current", current).unwrap();

        let fresh = HacFs::new();
        persist::restore(fresh.vfs(), &persist::snapshot(fs.vfs()).unwrap()).unwrap();
        fresh.recover_metadata().unwrap();
        fresh.attach_store(durable).unwrap();
        assert!(!fresh.load_index().unwrap(), "no warm start");
        fresh.ssync(&p("/")).unwrap();
        assert_eq!(fresh.search(&p("/"), "alpha").unwrap(), vec![p("/d/a.txt")]);
    }
}

/// The size targets, on the corpus shape of the end-to-end benchmark's
/// `edit_sync` workload. The tagged layout spent 9.29 bytes per file byte
/// on the VFS snapshot, 443 072 bytes on the index snapshot and 1 476 237
/// on the segment.
#[test]
fn formats_stay_compact() {
    let spec = DocCollectionSpec {
        files: 600,
        mean_words: 80,
        vocab: 8_000,
        files_per_dir: 100,
        seed: 7,
    };
    let vfs = Vfs::new();
    let docs = generate_docs(&vfs, &p("/docs"), &spec).unwrap();
    let snapshot = persist::snapshot(&vfs).unwrap().len();
    let per_file_byte = snapshot as f64 / docs.bytes as f64;
    assert!(
        per_file_byte <= 1.10,
        "VFS snapshot: {per_file_byte:.3} bytes per file byte"
    );

    let mut index = Index::default();
    let mut adds = Vec::new();
    for (doc, path) in (0..).zip(&docs.files) {
        let tokens = tokenize_text(&vfs.read_file(path).unwrap());
        index.add_doc(DocId(doc), 1, &tokens);
        adds.push(SegmentDoc {
            doc,
            version: 1,
            path: path.to_string(),
            tokens,
        });
    }
    let segment = Segment {
        seq: 1,
        generation: index.generation(),
        adds,
        removes: Vec::new(),
    };
    // A third of the tagged layout's bytes, or less.
    let haci = encode_index_snapshot(&index).len();
    assert!(haci <= 443_072 / 3, "HACI: {haci} bytes");
    let hacs = encode_segment(&segment).len();
    assert!(hacs <= 1_476_237 / 3, "HACS: {hacs} bytes");
}

type Decoder = fn(&[u8]) -> Result<(), String>;

/// One pinned format, the layout of its fields, and how to read it.
struct Format<F> {
    name: &'static str,
    good: Vec<u8>,
    /// Bytes before `fields`: an envelope (magic + version), a frame
    /// magic, or none.
    header: usize,
    fields: F,
    /// Version bytes (at offset 4) the format must refuse; empty when it
    /// has none.
    bad_versions: &'static [u8],
    decodes: Decoder,
}

impl<F> Format<F> {
    /// Asserts `bytes` fail to decode, returning the error.
    fn refused(&self, what: String, bytes: &[u8]) -> String {
        match (self.decodes)(bytes) {
            Ok(()) => panic!("{}: {what} decoded", self.name),
            Err(e) => e,
        }
    }

    /// The rows every format shares: the pinned bytes decode, and every
    /// truncation, one appended byte, a bad magic and each unknown
    /// version (the errors naming what they refused) do not. Returns the
    /// appended byte's error.
    fn shared_rows(&self) -> String {
        let name = self.name;
        assert_eq!((self.decodes)(&self.good), Ok(()), "{name}: pinned bytes");
        for cut in 0..self.good.len() {
            self.refused(format!("truncation to {cut} bytes"), &self.good[..cut]);
        }
        let mut longer = self.good.clone();
        longer.push(0);
        let appended = self.refused("one appended byte".into(), &longer);
        if self.header > 0 {
            let mut bad = self.good.clone();
            bad[0] = b'X';
            let err = self.refused("a bad magic".into(), &bad);
            assert!(err.contains("magic"), "{name}: {err}");
        }
        for &v in self.bad_versions {
            let mut bad = self.good.clone();
            bad[4] = v;
            let err = self.refused(format!("version {v}"), &bad);
            assert!(err.contains(&format!("version {v}")), "{name}: {err}");
        }
        appended
    }
}

/// One value of the varint layout.
enum Value {
    /// A varint integer.
    Int,
    /// One raw byte.
    Byte,
    /// A varint length, then UTF-8.
    Str,
    /// A varint count, then that many raw bytes.
    Blob,
    /// A flag byte, then the values when it is 1.
    Maybe(&'static [Value]),
    /// A varint count, then that many records of the values.
    List(&'static [Value]),
    /// A varint count, then that many records of the values; the first
    /// value of each is its key, and keys ascend.
    Map(&'static [Value]),
    /// A varint index choosing the values that follow.
    Enum(&'static [&'static [Value]]),
    /// A `ContentExpr`.
    Expr,
}

use Value::{Blob, Byte, Enum, Expr, Int, List, Map, Maybe, Str};

const NODE_BODY: &[&[Value]] = &[&[Blob], &[Map(&[Str, Int])], &[List(&[Str])]];
const VFS_FIELDS: &[Value] = &[
    Int,
    Map(&[Int, Int, Int, Str, Int, Int, Int, Enum(NODE_BODY)]),
    Int,
];
const BITMAP: Value = List(&[Int]);
const HACI_FIELDS: &[Value] = &[
    Enum(&[&[], &[Int]]),
    List(&[Str]),
    List(&[BITMAP]),
    Map(&[Int, Int, Int, Int]),
    List(&[List(&[Int])]),
    BITMAP,
    BITMAP,
    Int,
];
const TOKEN: Value = Enum(&[&[Str], &[Str, Str]]);
const HACS_FIELDS: &[Value] = &[
    Int,
    Int,
    List(&[Int, Int, Str, List(&[TOKEN])]),
    List(&[Int]),
];
const HACP_FIELDS: &[Value] = &[List(&[Int, Str])];
const DIR_RECORD_FIELDS: &[Value] = &[Int, Maybe(&[Str]), List(&[Str, Byte, Str]), List(&[Str])];
const EXPR_ARMS: &[&[Value]] = &[
    &[Str],
    &[Str, Str],
    &[List(&[Str])],
    &[Str, Byte],
    &[Str],
    &[Expr, Expr],
    &[Expr, Expr],
    &[Expr, Expr],
    &[Expr],
    &[],
    &[],
];
const REQUEST_FIELDS: &[Value] = &[
    Int,
    Enum(&[
        &[Int],
        &[],
        &[Str, Expr],
        &[Str, Str],
        &[Str],
        &[Str, Str],
        &[Str],
        &[Str, Int],
        &[Str],
    ]),
    Maybe(&[Int, Int]),
];

/// Where varint-layout bytes keep their varints, flag bytes, strings,
/// variant indexes and map entries.
#[derive(Default)]
struct ValueLayout {
    /// Every varint, as (start, length).
    varints: Vec<(usize, usize)>,
    /// The varints that are counts or lengths.
    counts: Vec<(usize, usize)>,
    flags: Vec<usize>,
    /// The first byte of every non-empty string.
    strs: Vec<usize>,
    /// Every variant index, as (start, length).
    variants: Vec<(usize, usize)>,
    /// The first two entries of every map holding two or more.
    map_pairs: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)>,
}

fn varint_bytes(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    hac_codec::put_varint(&mut out, v);
    out
}

impl ValueLayout {
    /// Records the varint at `pos`, returning its value and where it ends.
    fn varint(&mut self, b: &[u8], pos: usize, count: bool) -> (u64, usize) {
        let v = hac_codec::Reader::new(&b[pos..]).varint().unwrap();
        let len = varint_bytes(v).len();
        self.varints.push((pos, len));
        if count {
            self.counts.push((pos, len));
        }
        (v, pos + len)
    }
}

/// Walks `values` starting at `pos`, returning where they end.
fn walk_values(b: &[u8], mut pos: usize, values: &[Value], layout: &mut ValueLayout) -> usize {
    for value in values {
        pos = match value {
            Int => layout.varint(b, pos, false).1,
            Byte => pos + 1,
            Str | Blob => {
                let (n, at) = layout.varint(b, pos, true);
                if matches!(value, Str) && n > 0 {
                    layout.strs.push(at);
                }
                at + n as usize
            }
            Maybe(inner) => {
                layout.flags.push(pos);
                match b[pos] {
                    0 => pos + 1,
                    1 => walk_values(b, pos + 1, inner, layout),
                    flag => panic!("flag {flag} at {pos}"),
                }
            }
            List(record) => {
                let (n, at) = layout.varint(b, pos, true);
                (0..n).fold(at, |at, _| walk_values(b, at, record, layout))
            }
            Map(record) => {
                let (n, mut at) = layout.varint(b, pos, true);
                let mut entries = Vec::new();
                for _ in 0..n {
                    let end = walk_values(b, at, record, layout);
                    entries.push(at..end);
                    at = end;
                }
                if let [first, second, ..] = &entries[..] {
                    layout.map_pairs.push((first.clone(), second.clone()));
                }
                at
            }
            Enum(arms) => {
                let (index, at) = layout.varint(b, pos, false);
                layout.variants.push((pos, at - pos));
                walk_values(b, at, arms[index as usize], layout)
            }
            Expr => walk_values(b, pos, &[Enum(EXPR_ARMS)], layout),
        };
    }
    pos
}

#[test]
fn hostile_bytes_fail_closed_in_every_format() {
    let envelope = |name, hex, fields, decodes| Format {
        name,
        good: unhex(hex),
        header: 5,
        fields,
        bad_versions: &[0, 1, 3, 99],
        decodes,
    };
    let unframed = |name, good, fields, decodes| Format {
        name,
        good,
        header: 0,
        fields,
        bad_versions: &[],
        decodes,
    };
    let decodes_index: Decoder = |b| match decode_index_snapshot(b) {
        Ok(SnapshotDecode::Current(_)) => Ok(()),
        Ok(SnapshotDecode::VersionSkew(v)) => Err(format!("version {v} skew")),
        Err(e) => Err(e.to_string()),
    };
    let mut formats = vec![
        envelope("HACV", VFS_SNAPSHOT, VFS_FIELDS, |b| {
            persist::restore(&Vfs::new(), b).map_err(|e| e.to_string())
        }),
        envelope("HACI one term", HACI_ONE_TERM, HACI_FIELDS, decodes_index),
        envelope(
            "HACI several terms",
            HACI_MULTI_TERM,
            HACI_FIELDS,
            decodes_index,
        ),
        envelope("HACS", HACS, HACS_FIELDS, |b| {
            decode_segment(b).map(drop).map_err(|e| e.to_string())
        }),
        envelope("HACP", HACP, HACP_FIELDS, |b| {
            decode_doc_paths(b).map(drop).map_err(|e| e.to_string())
        }),
        unframed("dir record", unhex(DIR_RECORD), DIR_RECORD_FIELDS, |b| {
            hac_codec::decode_value::<DirRecordDisk>(b)
                .map(drop)
                .map_err(|e| e.to_string())
        }),
    ];
    for (hex, _) in request_fixtures() {
        formats.push(unframed("request", unhex(hex), REQUEST_FIELDS, |b| {
            wire::decode_request(b).map(drop).map_err(|e| e.to_string())
        }));
    }

    let mut seen = ValueLayout::default();
    for f in formats {
        f.shared_rows();
        let mut layout = ValueLayout::default();
        let end = walk_values(&f.good, f.header, f.fields, &mut layout);
        assert_eq!(end, f.good.len(), "{}", f.name);
        let splice = |at: usize, len: usize, with: &[u8]| {
            [&f.good[..at], with, &f.good[at + len..]].concat()
        };
        for &(at, len) in &layout.varints {
            let mut past_64_bits = vec![0xff; 9];
            past_64_bits.push(0x02);
            let mut eleven_bytes = vec![0x80; 10];
            eleven_bytes.push(0x01);
            let mut non_minimal = f.good[at..at + len].to_vec();
            *non_minimal.last_mut().unwrap() |= 0x80;
            non_minimal.push(0);
            for (what, with) in [
                ("a varint past 64 bits", past_64_bits),
                ("an 11-byte varint", eleven_bytes),
                ("a non-minimal varint", non_minimal),
            ] {
                f.refused(format!("{what} at {at}"), &splice(at, len, &with));
            }
        }
        for &(at, len) in &layout.counts {
            let left = f.good.len() - at - len;
            let bad = splice(at, len, &varint_bytes(left as u64 + 1));
            f.refused(format!("a count past the input at {at}"), &bad);
        }
        for &at in &layout.flags {
            let mut bad = f.good.clone();
            bad[at] = 2;
            f.refused(format!("flag byte 2 at {at}"), &bad);
        }
        for &at in &layout.strs {
            let mut bad = f.good.clone();
            bad[at] = 0xff;
            f.refused(format!("bad UTF-8 at {at}"), &bad);
        }
        for &(at, len) in &layout.variants {
            // Unknown, and the original index again if a decoder narrowed
            // it to 32 bits.
            let index = hac_codec::Reader::new(&f.good[at..]).varint().unwrap();
            for unknown in [127, (1 << 32) | index] {
                let bad = splice(at, len, &varint_bytes(unknown));
                f.refused(format!("variant index {unknown} at {at}"), &bad);
            }
        }
        for (first, second) in &layout.map_pairs {
            let (a, b) = (&f.good[first.clone()], &f.good[second.clone()]);
            let rest = (&f.good[..first.start], &f.good[second.end..]);
            let repeated = [rest.0, a, a, rest.1].concat();
            f.refused(format!("a repeated map key at {}", second.start), &repeated);
            let descending = [rest.0, b, a, rest.1].concat();
            f.refused(
                format!("descending map keys at {}", first.start),
                &descending,
            );
        }
        seen.flags.extend(layout.flags);
        seen.strs.extend(layout.strs);
        seen.variants.extend(layout.variants);
        seen.map_pairs.extend(layout.map_pairs);
    }
    assert!(
        !seen.flags.is_empty()
            && !seen.strs.is_empty()
            && !seen.variants.is_empty()
            && !seen.map_pairs.is_empty()
    );

    // Too deep: a search whose query is `nots` NOTs over one term. Just
    // past ContentExpr::MAX_DEPTH is refused, and so is a 500 kB chain,
    // well inside the frame cap, that would otherwise exhaust the
    // decoding thread's stack. The bound itself still decodes.
    let term = hac_codec::encode_value(&ContentExpr::term("alpha"));
    let search = wire::encode_request(&Request::new(
        3,
        RequestBody::Search {
            ns: "web".into(),
            query: ContentExpr::term("alpha"),
        },
    ));
    let at = search.windows(term.len()).position(|w| w == term).unwrap();
    let not = varint_bytes(8);
    let nested = |nots: usize| [&search[..at], &not.repeat(nots), &search[at..]].concat();
    assert!(wire::decode_request(&nested(ContentExpr::MAX_DEPTH - 1)).is_ok());
    for nots in [ContentExpr::MAX_DEPTH, 500_000] {
        assert!(
            wire::decode_request(&nested(nots)).is_err(),
            "{nots} nested NOTs decoded"
        );
    }

    fixed_layout_formats_fail_closed();
}

/// One field of a fixed-layout format.
enum Shape {
    /// `n` bytes with no structure.
    Raw(usize),
    /// A u32 length, then that many bytes.
    Bytes,
    /// A flag byte, then the fields when it is 1.
    Opt(&'static [Shape]),
    /// A u32 count, then that many records of the fields.
    Seq(&'static [Shape]),
    /// A tag byte choosing the fields that follow.
    Tagged(&'static [(u8, &'static [Shape])]),
    /// A u32 length, then the fields, which must fill exactly that many
    /// bytes (an HACN frame).
    Framed(&'static [Shape]),
}

use Shape::{Bytes, Framed, Opt, Raw, Seq, Tagged};

const HACM_V2_FIELDS: &[Shape] = &[Raw(16), Opt(&[Raw(32)]), Opt(&[Raw(32)]), Seq(&[Raw(64)])];
const HACM_V1_FIELDS: &[Shape] = &[Raw(8), Opt(&[Raw(32)]), Opt(&[Raw(32)]), Seq(&[Raw(64)])];
const HACF_FIELDS: &[Shape] = &[Raw(8), Bytes, Seq(&[Bytes, Bytes])];
const HACR_SAMPLE: &[Shape] = &[Bytes, Seq(&[Bytes, Bytes]), Raw(16)];
const HACR_FIELDS: &[Shape] = &[
    Seq(HACR_SAMPLE),
    Seq(HACR_SAMPLE),
    Seq(&[
        Bytes,
        Seq(&[Bytes, Bytes]),
        Raw(16 + 16 * HISTOGRAM_BUCKETS),
    ]),
    Seq(&[Bytes, Bytes]),
];
const HACT_FIELDS: &[Shape] = &[Seq(&[
    Bytes,
    Seq(&[Bytes, Bytes]),
    Raw(8),
    Opt(&[Raw(8)]),
    Opt(&[Raw(8)]),
    Opt(&[Raw(8)]),
    Opt(&[Raw(8)]),
])];
const RESPONSE_FIELDS: &[Shape] = &[
    Raw(8),
    Opt(&[Raw(8)]),
    Tagged(&[
        (0, &[Raw(2)]),
        (1, &[Raw(2), Seq(&[Bytes])]),
        (2, &[Seq(&[Bytes, Bytes])]),
        (3, &[Bytes]),
        (
            4,
            &[Tagged(&[
                (0, &[Bytes]),
                (1, &[]),
                (2, &[Bytes]),
                (3, &[Bytes]),
                (4, &[Bytes]),
                (5, &[Bytes]),
                (6, &[Raw(4)]),
            ])],
        ),
    ]),
];
const FRAME_FIELDS: &[Shape] = &[Framed(RESPONSE_FIELDS)];

/// Where fixed-layout bytes keep their count and length prefixes, flag
/// bytes and tags.
#[derive(Default)]
struct FixedLayout {
    prefixes: Vec<usize>,
    flags: Vec<usize>,
    tags: Vec<usize>,
}

/// Walks `fields` starting at `pos`, returning where they end.
fn walk_fixed(b: &[u8], mut pos: usize, fields: &[Shape], layout: &mut FixedLayout) -> usize {
    let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    for field in fields {
        pos = match field {
            Raw(n) => pos + n,
            Bytes => {
                layout.prefixes.push(pos);
                pos + 4 + word(pos)
            }
            Opt(inner) => {
                layout.flags.push(pos);
                match b[pos] {
                    0 => pos + 1,
                    1 => walk_fixed(b, pos + 1, inner, layout),
                    flag => panic!("flag {flag} at {pos}"),
                }
            }
            Seq(record) => {
                layout.prefixes.push(pos);
                (0..word(pos)).fold(pos + 4, |at, _| walk_fixed(b, at, record, layout))
            }
            Tagged(arms) => {
                layout.tags.push(pos);
                let (_, inner) = arms
                    .iter()
                    .find(|(tag, _)| *tag == b[pos])
                    .unwrap_or_else(|| panic!("tag {} at {pos} is in no arm", b[pos]));
                walk_fixed(b, pos + 1, inner, layout)
            }
            Framed(inner) => {
                layout.prefixes.push(pos);
                let end = walk_fixed(b, pos + 4, inner, layout);
                assert_eq!(end, pos + 4 + word(pos), "frame length at {pos}");
                end
            }
        };
    }
    pos
}

/// Reads `b` as exactly one HACN frame holding a response, both ways a
/// peer reads frames, which must agree.
fn framed_response(b: &[u8]) -> Result<(), String> {
    let mut cursor = std::io::Cursor::new(b);
    let one_shot = match wire::read_frame(&mut cursor, wire::DEFAULT_MAX_FRAME_LEN) {
        Ok(p) if cursor.position() == b.len() as u64 => wire::decode_response(&p)
            .map(drop)
            .map_err(|e| e.to_string()),
        Ok(_) => Err("trailing bytes after the frame".to_string()),
        Err(e) => Err(e.to_string()),
    };
    let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
    decoder.push(b);
    let streamed = match decoder.next_frame() {
        Ok(Some(p)) => wire::decode_response(p).is_ok(),
        _ => false,
    };
    let streamed = streamed && decoder.pending_bytes() == 0;
    assert_eq!(
        one_shot.is_ok(),
        streamed,
        "read_frame and FrameDecoder disagree"
    );
    one_shot
}

/// The fixed-layout rows of [`hostile_bytes_fail_closed_in_every_format`]:
/// the shared rows, `u32::MAX` at every count and length prefix, and a bad
/// byte at every flag and every tag.
fn fixed_layout_formats_fail_closed() {
    let envelope = |name, hex, fields, bad_versions, decodes| Format {
        name,
        good: unhex(hex),
        header: 5,
        fields,
        bad_versions,
        decodes,
    };
    let mut formats = vec![
        envelope("HACM v2", HACM_V2, HACM_V2_FIELDS, &[0, 3, 99], |b| {
            Manifest::decode(b).map(drop).map_err(|e| e.to_string())
        }),
        envelope("HACM v1", HACM_V1, HACM_V1_FIELDS, &[0, 3, 99], |b| {
            Manifest::decode(b).map(drop).map_err(|e| e.to_string())
        }),
        envelope("HACF", HACF, HACF_FIELDS, &[0, 2, 99], |b| {
            ShardMap::decode(b).map(drop).map_err(|e| e.to_string())
        }),
        envelope("HACR", HACR, HACR_FIELDS, &[0, 2, 99], |b| {
            Snapshot::decode(b).map(drop)
        }),
        envelope("HACT", HACT, HACT_FIELDS, &[0, 2, 99], |b| {
            decode_spans(b).map(drop)
        }),
    ];
    for (hex, _) in response_fixtures() {
        formats.push(Format {
            name: "HACN response",
            good: unhex(hex),
            header: 0,
            fields: RESPONSE_FIELDS,
            bad_versions: &[],
            decodes: |b| {
                wire::decode_response(b)
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        });
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &unhex(hex)).unwrap();
        formats.push(Format {
            name: "HACN frame",
            good: frame,
            header: 4,
            fields: FRAME_FIELDS,
            bad_versions: &[],
            decodes: framed_response,
        });
    }

    let (mut flags_seen, mut tags_seen) = (0, 0);
    for f in formats {
        let name = f.name;
        let appended = f.shared_rows();
        assert!(
            f.header != 5 || appended.contains("trailing"),
            "{name}: {appended}"
        );
        let mut layout = FixedLayout::default();
        assert_eq!(
            walk_fixed(&f.good, f.header, f.fields, &mut layout),
            f.good.len(),
            "{name}"
        );
        flags_seen += layout.flags.len();
        tags_seen += layout.tags.len();

        for &at in &layout.prefixes {
            let mut bad = f.good.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            f.refused(format!("u32::MAX prefix at {at}"), &bad);
        }
        for &at in &layout.flags {
            let mut bad = f.good.clone();
            bad[at] = 2;
            f.refused(format!("flag byte 2 at {at}"), &bad);
        }
        for &at in &layout.tags {
            let mut bad = f.good.clone();
            bad[at] = 0xee;
            f.refused(format!("bad tag at {at}"), &bad);
        }
    }
    assert!(flags_seen > 0 && tags_seen > 0);
}
