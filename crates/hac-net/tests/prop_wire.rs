//! Property tests for the wire codec: any request/response — including
//! deeply nested `ContentExpr` trees and arbitrary byte payloads — must
//! survive an encode → frame → unframe → decode round trip bit-for-bit.

use proptest::prelude::*;

use hac_core::remote::{RemoteDoc, RemoteError};
use hac_index::ContentExpr;
use hac_net::wire::{
    self, Request, RequestBody, Response, ResponseBody, TraceContext, WireError, PROTOCOL_VERSION,
};

fn trace_strategy() -> impl Strategy<Value = Option<TraceContext>> {
    (any::<bool>(), any::<u64>(), any::<u64>())
        .prop_map(|(some, trace_id, span_id)| some.then_some(TraceContext { trace_id, span_id }))
}

fn expr_strategy() -> impl Strategy<Value = ContentExpr> {
    let leaf = prop_oneof![
        "[a-z]{0,8}".prop_map(ContentExpr::Term),
        ("[a-z]{1,6}", "[a-z0-9 ]{0,10}").prop_map(|(k, v)| ContentExpr::Field(k, v)),
        proptest::collection::vec("[a-z]{1,6}", 0..4).prop_map(ContentExpr::Phrase),
        ("[a-z]{1,8}", 0u8..3).prop_map(|(w, d)| ContentExpr::Approx(w, d)),
        "[a-z]{1,6}".prop_map(ContentExpr::Prefix),
        Just(ContentExpr::All),
        Just(ContentExpr::Nothing),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentExpr::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ContentExpr::and_not(a, b)),
            inner.prop_map(ContentExpr::not),
        ]
    })
}

fn request_strategy() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        any::<u16>().prop_map(|version| RequestBody::Ping { version }),
        Just(RequestBody::Capabilities),
        ("[a-z0-9/_.-]{0,12}", expr_strategy())
            .prop_map(|(ns, query)| RequestBody::Search { ns, query }),
        ("[a-z0-9/_.-]{0,12}", "[a-z0-9/_. -]{0,24}")
            .prop_map(|(ns, doc)| RequestBody::Fetch { ns, doc }),
        "[a-z0-9/_.-]{0,12}".prop_map(|ns| RequestBody::Manifest { ns }),
        ("[a-z0-9/_.-]{0,12}", "[a-f0-9]{0,64}")
            .prop_map(|(ns, hash)| RequestBody::Object { ns, hash }),
        "[a-z0-9/_.-]{0,12}".prop_map(|ns| RequestBody::ShardMap { ns }),
        ("[a-z0-9/_.-]{0,12}", any::<u64>())
            .prop_map(|(ns, trace_id)| RequestBody::TraceSpans { ns, trace_id }),
        "[a-z0-9/_.-]{0,12}".prop_map(|ns| RequestBody::Metrics { ns }),
    ]
}

fn remote_error_strategy() -> impl Strategy<Value = RemoteError> {
    prop_oneof![
        "[a-z0-9 ]{0,16}".prop_map(RemoteError::Unavailable),
        Just(RemoteError::Timeout),
        "[a-z0-9 ]{0,16}".prop_map(RemoteError::NotFound),
        "[a-z0-9 ]{0,16}".prop_map(RemoteError::UnsupportedQuery),
    ]
}

fn response_strategy() -> impl Strategy<Value = ResponseBody> {
    let docs = proptest::collection::vec(
        ("[a-z0-9 ]{0,16}", "[a-z0-9/_. -]{0,24}").prop_map(|(id, title)| RemoteDoc { id, title }),
        0..6,
    );
    let err = prop_oneof![
        remote_error_strategy().prop_map(WireError::Remote),
        "[a-z0-9/_.-]{0,12}".prop_map(WireError::UnknownNamespace),
        "[a-z0-9/_. -]{0,24}".prop_map(WireError::BadRequest),
        (any::<u16>(), any::<u16>())
            .prop_map(|(server, client)| WireError::VersionMismatch { server, client }),
    ];
    prop_oneof![
        any::<u16>().prop_map(|version| ResponseBody::Pong { version }),
        (any::<u16>(), proptest::collection::vec("[a-z]{0,10}", 0..5)).prop_map(
            |(version, namespaces)| ResponseBody::Capabilities {
                version,
                namespaces
            }
        ),
        docs.prop_map(ResponseBody::Docs),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(ResponseBody::Blob),
        err.prop_map(ResponseBody::Err),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_roundtrip_through_frames(
        id in any::<u64>(),
        body in request_strategy(),
        trace in trace_strategy(),
    ) {
        let req = Request { id, body, trace };
        let payload = wire::encode_request(&req);
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).unwrap();
        let unframed =
            wire::read_frame(&mut framed.as_slice(), wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(&unframed, &payload);
        let back = wire::decode_request(&unframed).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_roundtrip_through_frames(
        id in any::<u64>(),
        body in response_strategy(),
        timed in any::<bool>(),
        elapsed in any::<u64>(),
    ) {
        let resp = Response { id, body, server_elapsed_us: timed.then_some(elapsed) };
        let payload = wire::encode_response(&resp);
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).unwrap();
        let unframed =
            wire::read_frame(&mut framed.as_slice(), wire::DEFAULT_MAX_FRAME_LEN).unwrap();
        let back = wire::decode_response(&unframed).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking(
        body in request_strategy(),
        cut in any::<usize>(),
    ) {
        let req = Request::new(1, body);
        let payload = wire::encode_request(&req);
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).unwrap();
        let cut = cut % framed.len();
        let err = wire::read_frame(&mut framed[..cut].as_ref(), wire::DEFAULT_MAX_FRAME_LEN);
        prop_assert!(err.is_err(), "cut at {} of {} still decoded", cut, framed.len());
    }

    #[test]
    fn corrupted_payload_bytes_never_panic(
        body in request_strategy(),
        trace in trace_strategy(),
        flip_at in any::<usize>(),
        xor in 1u8..255,
    ) {
        let req = Request { id: 9, body, trace };
        let mut payload = wire::encode_request(&req);
        let at = flip_at % payload.len().max(1);
        if let Some(b) = payload.get_mut(at) {
            *b ^= xor;
        }
        // Either decodes to *something* or errors — must not panic.
        let _ = wire::decode_request(&payload);
    }

    /// The streaming decoder fed arbitrary chunkings of a frame stream
    /// must recover exactly the frames the one-shot reader sees — byte
    /// boundaries on the wire carry no meaning.
    #[test]
    fn streaming_decoder_matches_one_shot_reader(
        bodies in proptest::collection::vec(response_strategy(), 1..5),
        splits in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        // Build the wire stream and remember each payload.
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for (i, body) in bodies.into_iter().enumerate() {
            let payload = wire::encode_response(&Response::new(i as u64, body));
            wire::write_frame(&mut stream, &payload).unwrap();
            expected.push(payload);
        }
        // One-shot reference: read every frame from the full buffer.
        let mut cursor = stream.as_slice();
        let mut one_shot = Vec::new();
        while !cursor.is_empty() {
            one_shot.push(wire::read_frame(&mut cursor, wire::DEFAULT_MAX_FRAME_LEN).unwrap());
        }
        prop_assert_eq!(&one_shot, &expected);
        // Streaming: cut the same bytes at arbitrary points.
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (stream.len() + 1)).collect();
        cuts.push(0);
        cuts.push(stream.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut decoder = wire::FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
        let mut streamed = Vec::new();
        for window in cuts.windows(2) {
            decoder.push(&stream[window[0]..window[1]]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                streamed.push(frame.to_vec());
            }
        }
        prop_assert_eq!(streamed, one_shot);
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    /// Corrupting the magic poisons the streaming decoder with the same
    /// class of error the one-shot reader reports, however the bytes were
    /// chunked on their way in.
    #[test]
    fn streaming_decoder_errors_match_one_shot_errors(
        body in response_strategy(),
        flip in 0usize..4,
        xor in 1u8..255,
        split in any::<usize>(),
    ) {
        let payload = wire::encode_response(&Response::new(7, body));
        let mut stream = Vec::new();
        wire::write_frame(&mut stream, &payload).unwrap();
        stream[flip] ^= xor; // corrupt one magic byte
        let one_shot = wire::read_frame(&mut stream.as_slice(), wire::DEFAULT_MAX_FRAME_LEN)
            .expect_err("corrupted magic must not frame");
        let mut decoder = wire::FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
        let cut = split % (stream.len() + 1);
        decoder.push(&stream[..cut]);
        let mut streamed = decoder.next_frame().map(|f| f.is_some());
        if matches!(streamed, Ok(false)) {
            decoder.push(&stream[cut..]);
            streamed = decoder.next_frame().map(|f| f.is_some());
        }
        let streamed = streamed.expect_err("corrupted magic must poison the decoder");
        prop_assert_eq!(streamed.kind(), one_shot.kind());
        prop_assert!(decoder.is_poisoned());
    }

    /// A request is its fields in order and nothing else: the same id
    /// and body without the trace flag (tuples and structs encode alike)
    /// must be refused, never silently accepted.
    #[test]
    fn two_field_requests_are_refused(id in any::<u64>(), body in request_strategy()) {
        let old_shape = hac_codec::encode_value(&(id, body));
        prop_assert!(wire::decode_request(&old_shape).is_err());
    }

    /// Hostile response bytes fail closed: every truncation and any
    /// trailing byte is an error, and a flipped byte never panics.
    #[test]
    fn damaged_responses_error_instead_of_panicking(
        body in response_strategy(),
        timed in any::<bool>(),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        xor in 1u8..255,
    ) {
        let resp = Response { id: 3, body, server_elapsed_us: timed.then_some(17) };
        let good = wire::encode_response(&resp);
        prop_assert!(wire::decode_response(&good[..cut % good.len()]).is_err());
        let mut trailing = good.clone();
        trailing.push(xor);
        prop_assert!(wire::decode_response(&trailing).is_err());
        let mut flipped = good;
        let at = flip_at % flipped.len();
        flipped[at] ^= xor;
        let _ = wire::decode_response(&flipped);
    }
}

#[test]
fn version_constant_is_stable() {
    // Bumping the protocol version is a compatibility event — peers at
    // different versions refuse each other — so this test makes it a
    // conscious one.
    assert_eq!(PROTOCOL_VERSION, 6);
}
