//! Byte-format pins for every structured format HAC persists or sends:
//! VFS snapshots, index snapshots (HACI), segments (HACS), path sidecars
//! (HACP), per-directory metadata records and HACN requests. The hex below
//! was written by the reflection-based codec that `hac-codec` replaced;
//! `hac-codec` must reproduce it byte for byte and read it back. The same
//! bytes then drive one fail-closed table of hostile mutations over every
//! format.

use hac::core::state::DirRecordDisk;
use hac::core::store::{
    decode_doc_paths, decode_index_snapshot, decode_segment, encode_doc_paths,
    encode_index_snapshot, encode_segment, SnapshotDecode,
};
use hac::index::segment::{Segment, SegmentDoc};
use hac::index::{ContentExpr, DocId, Granularity, Index, Token};
use hac::net::wire::{self, Request, RequestBody, TraceContext};
use hac::vfs::{persist, VPath, Vfs};
use hac_codec::{T_MAP, T_NONE, T_SEQ, T_SOME, T_STR, T_U64, T_UNIT, T_VARIANT};

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
}
