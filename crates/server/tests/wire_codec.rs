//! Property tests for the binary wire codec and its equivalence with
//! the JSON protocol.
//!
//! Three families, per the v2 protocol contract:
//!
//! 1. **json ≡ binary** — every request/response round-trips through
//!    the binary codec into a value whose JSON rendering is
//!    byte-for-byte the one the JSON protocol would have produced, and
//!    the JSON halves (`from_json` / `to_json`) are inverses too.
//! 2. **Exact u64s** — generations and holds at and beyond the f64
//!    2^53 precision cliff survive both encodings digit-exact.
//! 3. **Total decoding** — every truncated or bit-flipped frame yields
//!    a typed [`WireError`], never a panic, and never a silently
//!    different value (mirrors `prop_parser.rs`'s fuzz shapes).

use blas_server::json::{self, Json};
use blas_server::wire::{
    decode_request_body, decode_response, encode_request, encode_response, split_stream_id,
};
use blas_server::{ErrorCode, NodesBlob, Request, Response};
use proptest::prelude::*;
use std::sync::Arc;

const ENGINES: &[&str] = &["auto", "rdbms", "twig", "twigstack"];

/// Text for xpaths, tags, db names, xml fragments: exercises JSON
/// escaping (quotes), multi-byte UTF-8 (`ä`, `☃`) and the empty string.
fn text() -> &'static str {
    "[a-z0-9/@'\"<>=ä☃. ]{0,20}"
}

/// u64s biased toward the interesting cliffs: varint group boundaries
/// and the f64 2^53 precision edge the JSON layer must not round.
fn big_u64() -> impl Strategy<Value = u64> {
    let edges = prop::sample::select(vec![
        0u64,
        1,
        127,
        128,
        16_383,
        16_384,
        (1u64 << 53) - 1,
        1u64 << 53,
        (1u64 << 53) + 1,
        u64::MAX - 1,
        u64::MAX,
    ]);
    (0u64..1 << 20, edges, prop::bool::ANY)
        .prop_map(|(small, edge, pick_edge)| if pick_edge { edge } else { small })
}

fn small_u32() -> impl Strategy<Value = u32> {
    let edges = prop::sample::select(vec![0u32, 1, 127, 128, u32::MAX - 1, u32::MAX]);
    (0u32..1 << 16, edges, prop::bool::ANY)
        .prop_map(|(small, edge, pick_edge)| if pick_edge { edge } else { small })
}

fn engine() -> impl Strategy<Value = &'static str> {
    prop::sample::select(ENGINES.to_vec())
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop::sample::select(vec![
        ErrorCode::Overloaded,
        ErrorCode::BadRequest,
        ErrorCode::Xpath,
        ErrorCode::Mutation,
        ErrorCode::Timeout,
        ErrorCode::FrameTooLarge,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::ResultTooLarge,
    ])
}

/// One random request drawn across every variant.
fn request_strategy() -> BoxedStrategy<Request> {
    (
        (0usize..7, text(), text(), engine()),
        (prop::bool::ANY, prop::bool::ANY, prop::option::of(big_u64())),
        (small_u32(), text()),
    )
        .prop_map(|((kind, db, xpath, engine), (labels, cache, hold_ms), (start, extra))| {
            match kind {
                0 => Request::Query {
                    db,
                    xpath,
                    engine: engine.to_string(),
                    labels,
                    cache,
                    hold_ms,
                },
                1 => Request::PlanInfo { db, xpath, engine: engine.to_string() },
                2 => Request::Stats { db },
                3 => Request::InsertSubtree { db, parent_start: start, xml: extra },
                4 => Request::Delete { db, start },
                5 => Request::Retag { db, start, tag: extra },
                _ => Request::ClearCache,
            }
        })
        .boxed()
}

fn nodes_strategy() -> impl Strategy<Value = Arc<NodesBlob>> {
    prop::collection::vec((small_u32(), small_u32(), 0u16..1024), 0..12)
        .prop_map(|triples| Arc::new(NodesBlob::from_triples(triples.into_iter())))
}

/// One random response drawn across every variant. A `Query` carrying
/// nodes keeps `count` consistent with the blob, as the server does.
fn response_strategy() -> BoxedStrategy<Response> {
    (
        (0usize..4, big_u64(), engine(), prop::bool::ANY),
        (nodes_strategy(), prop::bool::ANY, big_u64()),
        (error_code(), text()),
    )
        .prop_map(
            |((kind, big, engine, cached), (blob, with_nodes, visited), (code, msg))| match kind {
                0 => Response::Query {
                    generation: big,
                    engine: engine.to_string(),
                    cached,
                    count: if with_nodes { blob.len() as u64 } else { visited },
                    elements_visited: visited,
                    nodes: if with_nodes { Some(Arc::clone(&blob)) } else { None },
                },
                1 => Response::Generation { generation: big },
                2 => Response::Info(Json::Obj(vec![
                    ("entries".into(), Json::uint(big)),
                    ("label".into(), Json::str(msg.clone())),
                ])),
                _ => Response::Error { code, message: msg },
            },
        )
        .boxed()
}

proptest! {
    /// The two protocol halves agree on every request: the binary
    /// round trip reproduces the request, and its JSON rendering is
    /// byte-identical to what a JSON client would have sent. The JSON
    /// half is its own inverse (`from_json ∘ to_json = id`).
    #[test]
    fn request_json_and_binary_encodings_agree(
        req in request_strategy(),
        sid in big_u64(),
    ) {
        let id = Json::uint(7);
        let json_form = req.to_json(&id);

        // JSON half round-trips.
        let method = json_form.get("method").and_then(Json::as_str).unwrap().to_string();
        let params = json_form.get("params").cloned().unwrap();
        let via_json = Request::from_json(&method, &params)
            .unwrap_or_else(|(c, m)| panic!("from_json(to_json): {c:?}: {m}"));
        prop_assert_eq!(&via_json, &req);

        // Binary half round-trips and lands on the same JSON bytes.
        let mut payload = Vec::new();
        encode_request(sid, &req, &mut payload).unwrap();
        let (got_sid, body) = split_stream_id(&payload).unwrap();
        prop_assert_eq!(got_sid, sid);
        let via_bin = decode_request_body(body).unwrap();
        prop_assert_eq!(&via_bin, &req);
        prop_assert_eq!(via_bin.to_json(&id).to_string(), json_form.to_string());
    }

    /// Same equivalence on the response side: binary decode is exact
    /// (including `Arc<NodesBlob>` members, rebuilt in both encodings)
    /// and renders to the identical JSON response text.
    #[test]
    fn response_json_and_binary_encodings_agree(
        resp in response_strategy(),
        sid in big_u64(),
    ) {
        let id = Json::uint(3);
        let mut payload = Vec::new();
        encode_response(sid, &resp, &mut payload);
        let (got_sid, decoded) = decode_response(&payload).unwrap();
        prop_assert_eq!(got_sid, sid);
        prop_assert_eq!(&decoded, &resp);
        prop_assert_eq!(decoded.to_json(&id).to_string(), resp.to_json(&id).to_string());
    }

    /// Exact u64 generations survive the *JSON text* layer too: what
    /// the binary protocol carries fixed-width, the JSON protocol must
    /// carry digit-exact through serialize + parse.
    #[test]
    fn generations_survive_the_json_text_layer_exactly(generation in big_u64()) {
        let resp = Response::Generation { generation };
        let text = resp.to_json(&Json::uint(1)).to_string();
        let parsed = json::parse(&text).unwrap();
        let back = parsed.get("result").and_then(|r| r.get("generation")).and_then(Json::as_u64);
        prop_assert_eq!(back, Some(generation));
    }

    /// Every proper prefix of a valid request payload is a typed
    /// error — truncation can never produce a different valid request
    /// (strict end-of-body checking), and never panics.
    #[test]
    fn truncated_request_payloads_are_typed_errors(
        req in request_strategy(),
        sid in big_u64(),
    ) {
        let mut payload = Vec::new();
        encode_request(sid, &req, &mut payload).unwrap();
        for cut in 0..payload.len() {
            let decoded = split_stream_id(&payload[..cut])
                .and_then(|(_, body)| decode_request_body(body));
            prop_assert!(decoded.is_err(), "prefix of {} decoded at cut {cut}", payload.len());
        }
    }

    /// Same totality for responses.
    #[test]
    fn truncated_response_payloads_are_typed_errors(
        resp in response_strategy(),
        sid in big_u64(),
    ) {
        let mut payload = Vec::new();
        encode_response(sid, &resp, &mut payload);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_response(&payload[..cut]).is_err(),
                "prefix of {} decoded at cut {cut}",
                payload.len()
            );
        }
    }

    /// Bit-flip fuzz: mutate one bit anywhere in a valid payload and
    /// decode it as both a request and a response. Either may succeed
    /// (the flip can land in string content) but neither may panic,
    /// and a success must still satisfy the strict framing rules
    /// (re-encoding a surviving request reproduces its own bytes).
    #[test]
    fn mutated_frames_decode_totally(
        req in request_strategy(),
        resp in response_strategy(),
        at in 0usize..4096,
        bit in 0u32..8,
    ) {
        let mut req_payload = Vec::new();
        encode_request(9, &req, &mut req_payload).unwrap();
        let mut resp_payload = Vec::new();
        encode_response(9, &resp, &mut resp_payload);

        for payload in [&mut req_payload, &mut resp_payload] {
            let at = at % payload.len();
            payload[at] ^= 1 << bit;
            if let Ok((sid2, survivor)) =
                split_stream_id(payload).and_then(|(s, body)| decode_request_body(body).map(|r| (s, r)))
            {
                let mut re = Vec::new();
                if encode_request(sid2, &survivor, &mut re).is_ok() {
                    prop_assert_eq!(&re, &*payload, "surviving request must re-encode canonically");
                }
            }
            let _ = decode_response(payload);
        }
    }

    /// Arbitrary byte soup never panics either decoder.
    #[test]
    fn random_bytes_never_panic_the_decoders(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let _ = split_stream_id(&bytes).and_then(|(_, body)| decode_request_body(body));
        let _ = decode_response(&bytes);
    }
}

/// The error-code byte table is a bijection on known codes and
/// collapses unknown bytes to `Internal` instead of desyncing.
#[test]
fn error_code_bytes_round_trip() {
    let all = [
        ErrorCode::Overloaded,
        ErrorCode::BadRequest,
        ErrorCode::Xpath,
        ErrorCode::Mutation,
        ErrorCode::Timeout,
        ErrorCode::FrameTooLarge,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::ResultTooLarge,
    ];
    for code in all {
        assert_eq!(ErrorCode::from_u8(code.to_u8()), code);
    }
    assert_eq!(ErrorCode::from_u8(0), ErrorCode::Internal);
    assert_eq!(ErrorCode::from_u8(255), ErrorCode::Internal);
}
