//! Byte-format pins for every format HAC persists or sends.
//!
//! The tagged formats — VFS snapshots, index snapshots (HACI), segments
//! (HACS), path sidecars (HACP), per-directory metadata records and HACN
//! requests — were captured from the reflection-based codec that
//! `hac-codec` replaced. The fixed-layout formats — store manifests
//! (HACM, versions 2 and 1), shard maps (HACF), metric snapshots (HACR),
//! span forests (HACT) and HACN responses — were captured from the
//! hand-rolled readers and writers that `hac_codec::fixed` replaced.
//! `hac-codec` must reproduce every byte and read it back. The same bytes
//! then drive fail-closed tables of hostile mutations over every format.

use hac::core::state::DirRecordDisk;
use hac::core::store::{
    decode_doc_paths, decode_index_snapshot, decode_segment, encode_doc_paths,
    encode_index_snapshot, encode_segment, SnapshotDecode,
};
use hac::core::{RemoteDoc, RemoteError};
use hac::fed::{ShardEntry, ShardMap};
use hac::index::segment::{Segment, SegmentDoc};
use hac::index::{ContentExpr, DocId, Granularity, Index, Token};
use hac::net::wire::{
    self, FrameDecoder, Request, RequestBody, Response, ResponseBody, TraceContext, WireError,
};
use hac::vfs::{persist, VPath, Vfs};
use hac_codec::{T_MAP, T_NONE, T_SEQ, T_SOME, T_STR, T_U64, T_UNIT, T_VARIANT};
use hac_obs::trace::{decode_spans, encode_spans};
use hac_obs::{Event, HistogramSample, MetricId, Sample, Snapshot, HISTOGRAM_BUCKETS};
use hac_store::{ContentHash, Manifest, SegmentEntry};

const VFS_SNAPSHOT: &str = concat!(
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
const HACI_ONE_TERM: &str = concat!(
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
const HACI_MULTI_TERM: &str = concat!(
    "4841434901030800000000000000080000000000000000070302000000000000",
    "00040300000000000000020a0000000000000066726f6d1f616c696365010200",
    "000000000000020500000000000000616c706861010000000000000000020400",
    "0000000000006265746101010000000000000003030000000000000002050000",
    "0000000000616c70686102040000000000000062657461020a00000000000000",
    "66726f6d1f616c69636503030000000000000003010000000000000003010000",
    "0000000000010200000000000000030100000000000000030100000000000000",
    "0106000000000000000301000000000000000301000000000000000104000000",
    "0000000004020000000000000001010000000000000003030000000000000001",
    "0100000000000000010000000000000000010200000000000000010200000000",
    "0000000303000000000000000103000000000000000100000000000000000102",
    "0000000000000003000000000000000003010000000000000003010000000000",
    "0000010600000000000000030100000000000000030000000000000000010200",
    "000000000000",
);
const HACS: &str = concat!(
    "4841435301030400000000000000010300000000000000010900000000000000",
    "0301000000000000000304000000000000000101000000000000000102000000",
    "000000000208000000000000002f642f612e7478740302000000000000000800",
    "00000000000000020500000000000000616c7068610801000000000000000302",
    "0000000000000002040000000000000066726f6d020500000000000000616c69",
    "6365030100000000000000010700000000000000",
);
const HACP: &str = concat!(
    "4841435001030200000000000000030200000000000000010100000000000000",
    "0208000000000000002f642f612e747874030200000000000000010200000000",
    "0000000208000000000000002f642f622e747874",
);
const DIR_RECORD: &str = concat!(
    "03040000000000000001030000000000000006021500000000000000616c7068",
    "6120414e442070617468282f646f637329030200000000000000030300000000",
    "000000020500000000000000612e747874010000000000000000020700000000",
    "0000006c6f63616c3a3503030000000000000002010000000000000072010100",
    "000000000000020c0000000000000072656d6f74653a7765623a780301000000",
    "000000000207000000000000006c6f63616c3a39",
);
const REQ_PING: &str = concat!(
    "0303000000000000000101000000000000000800000000000000000301000000",
    "0000000001050000000000000005",
);
const REQ_CAPABILITIES: &str = "0303000000000000000102000000000000000801000000000000000705";
const REQ_SEARCH: &str = concat!(
    "0303000000000000000103000000000000000802000000000000000302000000",
    "0000000002030000000000000077656208050000000000000003020000000000",
    "0000080600000000000000030200000000000000080000000000000000020500",
    "000000000000616c706861080100000000000000030200000000000000020400",
    "00000000000066726f6d020500000000000000616c6963650807000000000000",
    "0003020000000000000008020000000000000003020000000000000002040000",
    "0000000000666173740204000000000000007061746808080000000000000008",
    "0600000000000000030200000000000000080300000000000000030200000000",
    "00000002050000000000000066696e6772010100000000000000080600000000",
    "0000000302000000000000000804000000000000000203000000000000007072",
    "6508050000000000000003020000000000000008090000000000000007080a00",
    "0000000000000705",
);
const REQ_SEARCH_TRACED: &str = concat!(
    "0303000000000000000104000000000000000802000000000000000302000000",
    "0000000002030000000000000077656208050000000000000003020000000000",
    "0000080600000000000000030200000000000000080000000000000000020500",
    "000000000000616c706861080100000000000000030200000000000000020400",
    "00000000000066726f6d020500000000000000616c6963650807000000000000",
    "0003020000000000000008020000000000000003020000000000000002040000",
    "0000000000666173740204000000000000007061746808080000000000000008",
    "0600000000000000030200000000000000080300000000000000030200000000",
    "00000002050000000000000066696e6772010100000000000000080600000000",
    "0000000302000000000000000804000000000000000203000000000000007072",
    "6508050000000000000003020000000000000008090000000000000007080a00",
    "0000000000000706030200000000000000018877665544332211010700000000",
    "000000",
);
const REQ_FETCH: &str = concat!(
    "0303000000000000000105000000000000000803000000000000000302000000",
    "00000000020300000000000000776562020300000000000000642f3105",
);
const REQ_MANIFEST: &str = concat!(
    "0303000000000000000106000000000000000804000000000000000301000000",
    "0000000002030000000000000077656205",
);
const REQ_OBJECT: &str = concat!(
    "0303000000000000000107000000000000000805000000000000000302000000",
    "000000000203000000000000007765620204000000000000006162313205",
);
const REQ_SHARD_MAP: &str = concat!(
    "0303000000000000000108000000000000000806000000000000000301000000",
    "0000000002030000000000000077656205",
);
const REQ_TRACE_SPANS: &str = concat!(
    "0303000000000000000109000000000000000807000000000000000302000000",
    "0000000002030000000000000077656201ffffffffffffffff06030200000000",
    "000000018877665544332211010700000000000000",
);
const REQ_METRICS: &str = concat!(
    "030300000000000000010a000000000000000808000000000000000301000000",
    "0000000002030000000000000077656205",
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
    // One term: the lexicon's hash map has one entry, so encode order is
    // fixed and the bytes pin both ways.
    let pinned = unhex(HACI_ONE_TERM);
    assert_eq!(encode_index_snapshot(&one_term_index()), pinned);
    assert_eq!(encode_index_snapshot(&decoded_index(&pinned)), pinned);

    // Several terms: map order varies run to run, so pin what the parent
    // bytes decode to.
    let pinned = unhex(HACI_MULTI_TERM);
    let index = decoded_index(&pinned);
    assert_eq!(index.granularity(), Granularity::Exact);
    assert_eq!((index.doc_count(), index.generation()), (2, 2));
    assert_eq!(index.indexed_version(DocId(2)), Some(3));
    assert_eq!(hits(&index, &ContentExpr::term("alpha")), vec![1]);
    assert_eq!(hits(&index, &ContentExpr::term("beta")), vec![1, 2]);
    assert_eq!(hits(&index, &ContentExpr::field("from", "alice")), vec![2]);
    let again = encode_index_snapshot(&index);
    assert_eq!(again.len(), pinned.len());
    assert_eq!(
        hits(&decoded_index(&again), &ContentExpr::term("beta")),
        vec![1, 2]
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

/// Where one encoded value keeps its tags, length prefixes and variant
/// indexes — found by walking the self-describing layout.
#[derive(Default)]
struct Layout {
    tags: Vec<usize>,
    lengths: Vec<usize>,
    variants: Vec<usize>,
}

/// Walks the value starting at `pos`, returning where it ends.
fn walk(b: &[u8], pos: usize, layout: &mut Layout) -> usize {
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    layout.tags.push(pos);
    match b[pos] {
        T_U64 => pos + 9,
        T_STR => {
            layout.lengths.push(pos + 1);
            pos + 9 + word(pos + 1)
        }
        T_SEQ | T_MAP => {
            layout.lengths.push(pos + 1);
            let items = word(pos + 1) * if b[pos] == T_MAP { 2 } else { 1 };
            (0..items).fold(pos + 9, |at, _| walk(b, at, layout))
        }
        T_NONE | T_UNIT => pos + 1,
        T_SOME => walk(b, pos + 1, layout),
        T_VARIANT => {
            layout.variants.push(pos + 1);
            walk(b, pos + 9, layout)
        }
        tag => panic!("tag {tag} at {pos} is not in any pinned format"),
    }
}

fn put_word(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn hostile_bytes_fail_closed_in_every_format() {
    type Decoder = fn(&[u8]) -> bool;
    let mut formats: Vec<(&str, Vec<u8>, usize, Decoder)> = vec![
        ("vfs snapshot", unhex(VFS_SNAPSHOT), 8, |b| {
            persist::restore(&Vfs::new(), b).is_ok()
        }),
        ("HACI one term", unhex(HACI_ONE_TERM), 5, |b| {
            decode_index_snapshot(b).is_ok()
        }),
        ("HACI several terms", unhex(HACI_MULTI_TERM), 5, |b| {
            decode_index_snapshot(b).is_ok()
        }),
        ("HACS", unhex(HACS), 5, |b| decode_segment(b).is_ok()),
        ("HACP", unhex(HACP), 5, |b| decode_doc_paths(b).is_ok()),
        ("dir record", unhex(DIR_RECORD), 0, |b| {
            hac_codec::decode_value::<DirRecordDisk>(b).is_ok()
        }),
    ];
    for (hex, _) in request_fixtures() {
        formats.push(("request", unhex(hex), 0, |b| {
            wire::decode_request(b).is_ok()
        }));
    }

    let mut variants_seen = 0;
    for (name, good, header, decodes) in formats {
        assert!(decodes(&good), "{name}: the pinned bytes decode");
        let mut layout = Layout::default();
        assert_eq!(walk(&good, header, &mut layout), good.len(), "{name}");
        variants_seen += layout.variants.len();

        let refused = |what: String, bytes: &[u8]| {
            assert!(!decodes(bytes), "{name}: {what} decoded");
        };
        for cut in 0..good.len() {
            refused(format!("truncation to {cut} bytes"), &good[..cut]);
        }
        let mut longer = good.clone();
        longer.push(0);
        refused("one appended byte".into(), &longer);
        for &at in &layout.lengths {
            let mut bad = good.clone();
            put_word(&mut bad, at, u64::MAX);
            refused(format!("length u64::MAX at {at}"), &bad);
        }
        for &at in &layout.tags {
            let mut bad = good.clone();
            bad[at] = 0xee;
            refused(format!("bad tag at {at}"), &bad);
        }
        for &at in &layout.variants {
            // Out of range, yet the original index again if a decoder
            // narrowed it to 32 bits.
            let mut bad = good.clone();
            let index = u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
            put_word(&mut bad, at, (1 << 32) | index);
            refused(format!("variant index out of range at {at}"), &bad);
        }
    }
    assert!(variants_seen > 0);

    // Too deep: a search whose query is `nots` NOTs over one term. Just
    // past ContentExpr::MAX_DEPTH is refused, and so is a 4.5 MB chain,
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
    let mut not = vec![T_VARIANT];
    not.extend_from_slice(&8u64.to_le_bytes());
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
/// every truncation, one appended byte, a bad magic, each unknown
/// version (the errors naming what they refused), `u32::MAX` at every
/// count and length prefix, a bad byte at
/// every flag and every tag.
fn fixed_layout_formats_fail_closed() {
    type Decoder = fn(&[u8]) -> Result<(), String>;
    struct Format {
        name: &'static str,
        good: Vec<u8>,
        /// Bytes before `fields`: an envelope (magic + version), a frame
        /// magic, or none.
        header: usize,
        fields: &'static [Shape],
        /// Version bytes (at offset 4) the format must refuse; empty when
        /// it has none.
        bad_versions: &'static [u8],
        decodes: Decoder,
    }
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
        assert_eq!(
            (f.decodes)(&f.good),
            Ok(()),
            "{name}: the pinned bytes decode"
        );
        let mut layout = FixedLayout::default();
        assert_eq!(
            walk_fixed(&f.good, f.header, f.fields, &mut layout),
            f.good.len(),
            "{name}"
        );
        flags_seen += layout.flags.len();
        tags_seen += layout.tags.len();

        let refused = |what: String, bytes: &[u8]| match (f.decodes)(bytes) {
            Ok(()) => panic!("{name}: {what} decoded"),
            Err(e) => e,
        };
        for cut in 0..f.good.len() {
            refused(format!("truncation to {cut} bytes"), &f.good[..cut]);
        }
        let mut longer = f.good.clone();
        longer.push(0);
        let err = refused("one appended byte".into(), &longer);
        assert!(f.header != 5 || err.contains("trailing"), "{name}: {err}");
        if f.header > 0 {
            let mut bad = f.good.clone();
            bad[0] = b'X';
            let err = refused("a bad magic".into(), &bad);
            assert!(err.contains("magic"), "{name}: {err}");
        }
        for &v in f.bad_versions {
            let mut bad = f.good.clone();
            bad[4] = v;
            let err = refused(format!("version {v}"), &bad);
            assert!(err.contains(&format!("version {v}")), "{name}: {err}");
        }
        for &at in &layout.prefixes {
            let mut bad = f.good.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            refused(format!("u32::MAX prefix at {at}"), &bad);
        }
        for &at in &layout.flags {
            let mut bad = f.good.clone();
            bad[at] = 2;
            refused(format!("flag byte 2 at {at}"), &bad);
        }
        for &at in &layout.tags {
            let mut bad = f.good.clone();
            bad[at] = 0xee;
            refused(format!("bad tag at {at}"), &bad);
        }
    }
    assert!(flags_seen > 0 && tags_seen > 0);
}
