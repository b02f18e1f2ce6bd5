//! End-to-end suite for binary wire protocol v2 and stream-id
//! multiplexing: eight logical clients share **one** TCP socket
//! ([`MuxClient`] clones over a [`MuxConn`]) and race queries against a
//! mutating server, every answer checked against the same sequential
//! oracle as `server_concurrency.rs` — for exactly the generation the
//! server stamped on it. Plus the v2-specific paths: out-of-order
//! stream completion, per-stream typed `overloaded`, multi-document
//! routing with per-document cache invalidation, protocol gating, the
//! json ≡ binary end-to-end agreement, and the client-side
//! write-timeout poisoning regression.

use blas::{BlasCollection, BlasDb, DLabel, EngineChoice};
use blas_server::{
    Client, ClientError, Json, MuxClient, Proto, ProtoAccept, Server, ServerConfig,
};
use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Logical clients multiplexed onto the single socket.
const CLIENTS: usize = 8;
/// Mutation steps; the suite spans generations `0..=STEPS`.
const STEPS: usize = 9;

const SRC: &str = concat!(
    "<db><e><p><n>cytochrome c</n></p><r><y>2001</y></r></e>",
    "<e><p><n>hemoglobin</n></p><r><y>1999</y></r></e></db>"
);
const QUERIES: &[&str] = &["//n", "//y", "/db/e", "//e[p]"];
const ENGINES: &[&str] = &["auto", "rdbms", "twig", "twigstack"];

/// A recorded mutation, replayable over the wire.
#[derive(Debug, Clone)]
enum Op {
    Insert { parent: u32, xml: String },
    Retag { start: u32, tag: String },
    Delete { start: u32 },
}

/// Replay the deterministic mutation script on the oracle, recording
/// the wire-replayable ops and every query's answer per generation
/// (identical to `server_concurrency.rs`, so both suites hold the
/// server to the same truth).
fn build_script(oracle: &BlasDb) -> (Vec<Op>, Vec<Vec<Vec<DLabel>>>) {
    let answers = |db: &BlasDb| -> Vec<Vec<DLabel>> {
        QUERIES
            .iter()
            .map(|q| db.query(q, EngineChoice::auto()).unwrap().nodes)
            .collect()
    };
    let mut ops = Vec::with_capacity(STEPS);
    let mut expected = vec![answers(oracle)];
    for step in 0..STEPS {
        let snap = oracle.snapshot();
        let op = match step % 3 {
            0 => Op::Insert { parent: 0, xml: "<e><p><n>new</n></p></e>".into() },
            1 => {
                let rec = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 4)
                    .max_by_key(|(_, r)| r.start)
                    .map(|(_, r)| r)
                    .unwrap();
                let to = if oracle.tags().name(rec.tag) == "n" { "y" } else { "n" };
                Op::Retag { start: rec.start, tag: to.into() }
            }
            _ => {
                let start = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 2)
                    .max_by_key(|(_, r)| r.start)
                    .map(|(_, r)| r.start)
                    .unwrap();
                Op::Delete { start }
            }
        };
        let generation = match &op {
            Op::Insert { parent, xml } => oracle.insert_subtree(*parent, xml).unwrap(),
            Op::Retag { start, tag } => oracle.retag(*start, tag).unwrap(),
            Op::Delete { start } => oracle.delete(*start).unwrap(),
        };
        assert_eq!(generation, (step + 1) as u64, "oracle script must be deterministic");
        ops.push(op);
        expected.push(answers(oracle));
    }
    (ops, expected)
}

fn as_triples(labels: &[DLabel]) -> Vec<(u32, u32, u16)> {
    labels.iter().map(|d| (d.start, d.end, d.level)).collect()
}

/// Tentpole acceptance: eight logical clients — one replaying the
/// mutation script, seven firing queries across all four engine
/// tokens — interleaved over **one** multiplexed binary socket, with
/// every reply matching the oracle for the generation the server
/// reported. The server must see exactly one connection.
#[test]
fn eight_multiplexed_clients_race_mutations_on_one_socket() {
    let oracle = BlasDb::load(SRC).unwrap();
    let (script, expected) = build_script(&oracle);

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { read_timeout: Some(Duration::from_secs(30)), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mux = MuxClient::connect(addr, Some(Duration::from_secs(30))).expect("mux connects");
    let done = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    let observed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    // Everyone completes a generation-0 round before the writer
    // starts, so generation 0 is deterministically covered.
    let start = Barrier::new(CLIENTS);

    std::thread::scope(|s| {
        for client_no in 0..CLIENTS - 1 {
            let reader = mux.clone();
            let (expected, done, checked, observed, start) =
                (&expected, &done, &checked, &observed, &start);
            s.spawn(move || {
                let mut round = 0usize;
                let check_round = |round: usize| {
                    for (qi, q) in QUERIES.iter().enumerate() {
                        let engine = ENGINES[(client_no + round + qi) % ENGINES.len()];
                        let reply = reader
                            .query(q, engine)
                            .unwrap_or_else(|e| panic!("{q} on {engine}: {e}"));
                        let generation = reply.generation as usize;
                        assert_eq!(
                            reply.nodes,
                            as_triples(&expected[generation][qi]),
                            "stream {client_no}: {q} on {engine} diverged from the \
                             oracle at generation {generation}"
                        );
                        assert_eq!(reply.count, expected[generation][qi].len());
                        observed.lock().unwrap().insert(reply.generation);
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                };
                check_round(round);
                start.wait();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    round += 1;
                    check_round(round);
                    if finished {
                        break;
                    }
                }
            });
        }

        // The writer stream: replays the script, and after each
        // publish verifies the new generation's answers itself.
        let writer = mux.clone();
        let (script, expected, done, observed, start) =
            (&script, &expected, &done, &observed, &start);
        s.spawn(move || {
            start.wait();
            for (step, op) in script.iter().enumerate() {
                let generation = match op {
                    Op::Insert { parent, xml } => writer.insert_subtree(*parent, xml),
                    Op::Retag { start, tag } => writer.retag(*start, tag),
                    Op::Delete { start } => writer.delete(*start),
                }
                .unwrap_or_else(|e| panic!("step {step} ({op:?}): {e}"));
                assert_eq!(generation, (step + 1) as u64, "wire replay must track the oracle");
                for (qi, q) in QUERIES.iter().enumerate() {
                    let reply = writer.query(q, "auto").unwrap();
                    assert_eq!(
                        reply.generation, generation,
                        "single writer: generation is stable between its steps"
                    );
                    assert_eq!(reply.nodes, as_triples(&expected[generation as usize][qi]));
                }
                observed.lock().unwrap().insert(generation);
            }
            // A structurally invalid mutation is the typed wire error
            // on *its own stream*, not a connection failure.
            let err = writer.delete(9_999).expect_err("deleting a missing node");
            assert!(
                matches!(&err, ClientError::Rpc { code, .. } if code == "mutation"),
                "expected a typed mutation rejection, got {err}"
            );
            done.store(true, Ordering::Release);
        });
    });

    let observed = observed.into_inner().unwrap();
    assert!(
        (0..=STEPS as u64).all(|g| observed.contains(&g)),
        "every generation 0..={STEPS} must have answered queries, saw {observed:?}"
    );
    assert!(checked.load(Ordering::Relaxed) >= (CLIENTS - 1) * 2 * QUERIES.len());
    assert_eq!(db.generation(), STEPS as u64);
    assert!(!mux.conn().is_dead(), "the shared connection must outlive the race");

    let stats = server.shutdown();
    assert_eq!(
        stats.connections_accepted, 1,
        "eight logical clients must multiplex over exactly one connection"
    );
    assert_eq!(stats.overloaded, 0, "nothing should be rejected under the default bound");
    assert!(stats.served as usize >= checked.load(Ordering::Relaxed));
}

/// Streams complete out of order: a held query on one stream must not
/// block a later, faster query on another stream of the same socket.
#[test]
fn streams_complete_out_of_order_on_one_socket() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    let held_done: Mutex<Option<Instant>> = Mutex::new(None);
    let quick_done = std::thread::scope(|s| {
        let held_done = &held_done;
        let slow = s.spawn(move || {
            let reply = held.query_hold("//n", "auto", 1_500).expect("held query answers");
            *held_done.lock().unwrap() = Some(Instant::now());
            reply
        });
        // Give the held stream time to be admitted first.
        std::thread::sleep(Duration::from_millis(150));
        let reply = mux.query("//y", "auto").expect("quick query answers");
        let quick_done = Instant::now();
        assert!(
            !slow.is_finished(),
            "the held stream must still be in flight when the quick stream answers"
        );
        assert_eq!(reply.count, 2);
        quick_done
    });
    let held_done = held_done.into_inner().unwrap().expect("held stream completed");
    assert!(
        quick_done < held_done,
        "the later stream must complete before the earlier held stream"
    );
    server.shutdown();
}

/// Admission control is per stream: with one in-flight slot held, a
/// second stream on the same socket is rejected with a typed
/// `overloaded` on *its* stream id — the connection survives, and
/// admission-exempt methods keep working throughout.
#[test]
fn saturated_slot_rejects_sibling_streams_with_typed_overloaded() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_inflight: 1, debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    std::thread::scope(|s| {
        let slow = s.spawn(move || held.query_hold("//n", "auto", 1_200));
        // Let the held stream win the slot first — binary admission is
        // immediate-reject, so an early probe could bounce *it* instead.
        std::thread::sleep(Duration::from_millis(150));
        let mut rejected = false;
        for _ in 0..50 {
            match mux.query_count("//y", "auto", false) {
                Err(e) if e.is_overloaded() => {
                    rejected = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => panic!("expected overloaded or success, got {e}"),
            }
        }
        assert!(rejected, "a saturated slot must reject sibling streams");
        // Exempt methods bypass admission even while saturated.
        let stats = mux.stats().expect("stats bypasses admission");
        assert_eq!(stats.get("db").and_then(Json::as_str), Some("default"));
        assert!(slow.join().unwrap().is_ok(), "the held stream still answers");
    });
    // The connection is intact: the slot is free again.
    assert!(mux.query_count("//y", "auto", false).is_ok());

    let stats = server.shutdown();
    assert!(stats.overloaded >= 1);
    assert_eq!(stats.connections_accepted, 1);
}

/// Requests carry a database name: one socket reaches every document
/// in the collection, the result cache is keyed per document, and a
/// mutation on one document never invalidates another's entries.
#[test]
fn multiplexed_requests_route_to_named_documents() {
    let mut coll = BlasCollection::new();
    coll.add_shared("alpha", Arc::new(BlasDb::load(SRC).unwrap()));
    coll.add_shared("beta", Arc::new(BlasDb::load("<db><x/><x/><x/></db>").unwrap()));
    let server =
        Server::bind_collection(coll, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    let alpha = mux.on_db("alpha");
    let beta = mux.on_db("beta");

    // Routing: the same xpath answers differently per document, and
    // the empty name selects the first member (alpha).
    assert_eq!(alpha.query("//n", "auto").unwrap().count, 2);
    assert_eq!(beta.query("//x", "auto").unwrap().count, 3);
    assert_eq!(beta.query("//n", "auto").unwrap().count, 0);
    assert_eq!(mux.query("//n", "auto").unwrap().count, 2);

    // Both documents have warm cache entries now.
    assert!(alpha.query("//n", "auto").unwrap().cached);
    assert!(beta.query("//x", "auto").unwrap().cached);

    // Mutating alpha invalidates alpha's entries only.
    let generation = alpha.insert_subtree(0, "<e><p><n>new</n></p></e>").unwrap();
    assert_eq!(generation, 1);
    let fresh = alpha.query("//n", "auto").unwrap();
    assert_eq!((fresh.generation, fresh.count, fresh.cached), (1, 3, false));
    let kept = beta.query("//x", "auto").unwrap();
    assert_eq!((kept.generation, kept.count, kept.cached), (0, 3, true));

    // Per-document stats see through the same socket.
    let stats = beta.stats().unwrap();
    assert_eq!(stats.get("db").and_then(Json::as_str), Some("beta"));
    assert_eq!(stats.get("documents").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("generation").and_then(Json::as_u64), Some(0));
    let invalidated = stats
        .get("result_cache")
        .and_then(|c| c.get("invalidated"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(invalidated >= 1, "alpha's publish must have dropped its stale entries");

    // An unknown name is a typed error on that stream, not a dead socket.
    let err = mux.on_db("gamma").query("//n", "auto").expect_err("unknown database");
    assert!(matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"));
    assert_eq!(alpha.query("//n", "auto").unwrap().count, 3);

    // A JSON client reaches the same documents on the same server.
    let mut json_client = Client::connect(server.local_addr(), None).unwrap();
    assert_eq!(json_client.query_on("beta", "//x", "auto").unwrap().count, 3);
    assert_eq!(json_client.query_on("alpha", "//n", "auto").unwrap().count, 3);
    server.shutdown();
}

/// The two encodings agree end to end: a JSON client and a binary
/// client against the same live server get member-for-member identical
/// replies for every query × engine, before and after a mutation.
#[test]
fn binary_and_json_clients_agree_end_to_end() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut json_client = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    let mut bin_client =
        Client::connect_with(addr, Some(Duration::from_secs(10)), Proto::Binary).unwrap();
    assert_eq!(bin_client.proto(), Proto::Binary);

    let agree = |json_client: &mut Client, bin_client: &mut Client| {
        for q in QUERIES {
            for engine in ENGINES {
                // Bypass the cache so `cached` can't differ by arrival order.
                let a = json_client.query_count(q, engine, false).unwrap();
                let b = bin_client.query_count(q, engine, false).unwrap();
                assert_eq!(a, b, "{q} on {engine} must agree across encodings");
                let a = json_client.query(q, engine).unwrap();
                let b = bin_client.query(q, engine).unwrap();
                assert_eq!(
                    (a.generation, a.count, &a.nodes),
                    (b.generation, b.count, &b.nodes),
                    "{q} on {engine}: labeled replies must agree across encodings"
                );
            }
        }
    };
    agree(&mut json_client, &mut bin_client);

    // A mutation through the binary client is visible to both.
    let generation = bin_client.insert_subtree(0, "<e><p><n>new</n></p></e>").unwrap();
    assert_eq!(generation, 1);
    assert_eq!(json_client.query("//n", "auto").unwrap().generation, 1);
    agree(&mut json_client, &mut bin_client);

    // Admin methods have full parity too.
    let a = json_client.stats().unwrap();
    let b = bin_client.stats().unwrap();
    assert_eq!(a.get("db"), b.get("db"));
    assert_eq!(a.get("documents"), b.get("documents"));
    assert_eq!(a.get("generation"), b.get("generation"));
    assert!(bin_client.clear_cache().unwrap() >= 1);
    server.shutdown();
}

/// `ServerConfig::proto` gates each encoding with a typed farewell:
/// a JSON client against a binary-only server gets `bad_request`, and
/// a binary hello against a JSON-only server fails its first call.
#[test]
fn proto_gates_reject_the_other_encoding() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { proto: ProtoAccept::Binary, ..Default::default() },
    )
    .unwrap();
    let mut json_client = Client::connect(server.local_addr(), Some(Duration::from_secs(5)))
        .expect("TCP connect succeeds; the gate answers the first frame");
    let err = json_client.query("//n", "auto").expect_err("JSON is gated off");
    assert!(
        matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"),
        "expected a typed bad_request farewell, got {err}"
    );
    server.shutdown();

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { proto: ProtoAccept::Json, ..Default::default() },
    )
    .unwrap();
    let mut bin_client =
        Client::connect_with(server.local_addr(), Some(Duration::from_secs(5)), Proto::Binary)
            .unwrap();
    assert!(bin_client.query("//n", "auto").is_err(), "binary is gated off");
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(5))).unwrap();
    assert!(mux.query("//n", "auto").is_err(), "mux (binary) is gated off");
    // JSON still works on the same server.
    let mut json_client =
        Client::connect(server.local_addr(), Some(Duration::from_secs(5))).unwrap();
    assert_eq!(json_client.query("//n", "auto").unwrap().count, 2);
    server.shutdown();
}

/// Regression for the write-timeout bugfix: a frame write that times
/// out midway may have left a partial frame on the socket, so the
/// client must poison the connection — the failed call surfaces the
/// transport error and every later call fails fast with `Poisoned`
/// instead of desyncing the stream.
#[test]
fn write_timeout_mid_frame_poisons_the_client() {
    // A peer that accepts and then never reads: the client's write
    // fills the socket buffers and must hit its write timeout.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        // Hold the socket open, unread, long past the client timeout.
        std::thread::sleep(Duration::from_secs(3));
        drop(sock);
    });

    let mut client = Client::connect(addr, Some(Duration::from_millis(300))).unwrap();
    assert!(!client.is_poisoned());
    // Far larger than any kernel send+receive buffer pair, well under
    // the 16 MiB frame bound: the write must block mid-frame.
    let huge = "x".repeat(8 << 20);
    let err = client.query(&huge, "auto").expect_err("the write must time out");
    assert!(matches!(err, ClientError::Io(_)), "expected a transport error, got {err}");
    assert!(client.is_poisoned(), "a mid-frame write failure must poison the connection");
    let err = client.query("//n", "auto").expect_err("poisoned connections fail fast");
    assert!(matches!(err, ClientError::Poisoned), "expected Poisoned, got {err}");
    hold.join().unwrap();
}

/// Graceful drain over the mux: a held stream in flight at shutdown
/// still gets its answer; afterwards the connection reports dead and
/// new calls fail fast.
#[test]
fn mux_connection_drains_on_shutdown() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let mux = MuxClient::connect(addr, Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    let reply = std::thread::scope(|s| {
        let pending = s.spawn(move || held.query_hold("//n", "auto", 600));
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown();
        pending.join().unwrap()
    });
    assert_eq!(reply.expect("in-flight stream answered during drain").count, 2);

    // The drained server is gone: the socket closes and later calls
    // fail fast instead of hanging.
    for _ in 0..100 {
        if mux.conn().is_dead() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(mux.conn().is_dead());
    assert!(mux.query("//n", "auto").is_err());
    assert!(
        Client::connect(addr, Some(Duration::from_millis(200)))
            .and_then(|mut c| c.query("//n", "auto"))
            .is_err(),
        "the listening socket must be gone after shutdown"
    );
}

/// A result larger than one frame (`MAX_FRAME_BYTES`) is a typed
/// `result_too_large` error on its own stream, decided before encoding:
/// sibling streams on the same socket get their answers, the
/// connection stays usable, nothing is cached and the request does not
/// count as served. The JSON encoding behaves the same. 1.8M nodes are
/// 18 MB in the binary encoding, past the 16 MiB frame limit.
#[test]
fn oversized_result_is_a_typed_error_that_spares_its_siblings() {
    const CHILDREN: usize = 1_800_000;
    let mut xml = String::with_capacity(4 * CHILDREN + 16);
    xml.push_str("<r>");
    for _ in 0..CHILDREN {
        xml.push_str("<a/>");
    }
    xml.push_str("</r>");
    let server = Server::bind(
        Arc::new(BlasDb::load(&xml).unwrap()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let timeout = Some(Duration::from_secs(120));
    let mux = MuxClient::connect(server.local_addr(), timeout).unwrap();

    let (big, sibling) = std::thread::scope(|s| {
        let big = s.spawn(|| mux.query("//a", "rdbms"));
        let sibling = s.spawn(|| mux.query("/r", "rdbms"));
        (big.join().unwrap(), sibling.join().unwrap())
    });
    match big {
        Err(ClientError::Rpc { code, .. }) => assert_eq!(code, "result_too_large"),
        other => panic!("expected result_too_large, got {other:?}"),
    }
    assert_eq!(sibling.unwrap().count, 1);
    assert!(!mux.conn().is_dead(), "the connection must survive");
    assert_eq!(mux.query("/r", "rdbms").unwrap().count, 1);
    let stats = server.stats();
    assert_eq!(stats.results_too_large, 1);
    assert_eq!(stats.served, 2, "the oversized query is not served");
    assert_eq!(stats.cache_entries, 1, "only `/r` is cached");

    // The count alone still fits; the nodes behind it are not cached.
    assert_eq!(mux.query_count("//a", "rdbms", true).unwrap().count, CHILDREN);
    assert_eq!(server.stats().cache_entries, 1);

    let mut json = Client::connect(server.local_addr(), timeout).unwrap();
    match json.query("//a", "rdbms") {
        Err(ClientError::Rpc { code, .. }) => assert_eq!(code, "result_too_large"),
        other => panic!("expected result_too_large, got {other:?}"),
    }
    assert_eq!(json.query("/r", "rdbms").unwrap().count, 1);
    let stats = server.shutdown();
    assert_eq!(stats.results_too_large, 2);
    assert_eq!(stats.cache_entries, 1);
}
