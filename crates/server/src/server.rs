//! The request loop: acceptor thread → pooled connection tasks →
//! per-request dispatch against a shared [`BlasCollection`].
//!
//! ## Protocol negotiation
//!
//! The first byte of a connection picks its encoding: [`wire::MAGIC`]
//! opens binary v2, anything else is the first length-prefix byte of a
//! JSON frame (see [`crate::wire`] for why the two can't collide).
//! Both encodings share the typed [`Request`]/[`Response`] model and
//! one [`dispatch`]; only the envelope differs.
//!
//! ## Request path
//!
//! One OS thread accepts. Each admitted connection becomes a **pool
//! task** ([`PoolHandle::spawn_task`]) on a dedicated connection pool
//! sized exactly [`ServerConfig::max_connections`] — a connection owns
//! its worker for its lifetime, so connection concurrency is bounded
//! by construction and an over-limit accept is *rejected with a typed
//! frame*, never queued.
//!
//! JSON connections handle requests synchronously in arrival order
//! (pipelining is allowed; responses come back in request order).
//! Binary connections are **multiplexed**: every frame carries a
//! stream id, admitted requests run on a shared execution pool while
//! the connection task keeps reading, and responses come back tagged
//! with their stream id in *completion* order — one socket interleaves
//! many logical in-flight requests.
//!
//! ## Admission control
//!
//! Query and mutation execution is bounded by an in-flight semaphore
//! of [`ServerConfig::max_inflight`] permits with **try-acquire**
//! semantics: when the bound is reached the request is answered
//! immediately with [`ErrorCode::Overloaded`] — the server never
//! builds an unbounded queue in front of the database. On a
//! multiplexed connection the permit is acquired *at frame-read time*,
//! before the request is handed to the execution pool, so the
//! rejection is per-stream and the pool's queue stays bounded by the
//! permit count. Cheap admin methods (`stats`, `plan_info`,
//! `clear_cache`) bypass admission.
//!
//! ## Result cache
//!
//! Responses to `query` are cached keyed by
//! `(document, xpath, engine, generation)`. The generation in the key
//! makes staleness impossible; invalidation is therefore purely an
//! occupancy concern: a per-document [`BlasDb::on_publish`] hook
//! prunes that document's superseded generations the moment a new one
//! is published — other documents' entries are untouched — and a
//! capacity bound evicts oldest-first beyond that. Entries hold the
//! node array pre-serialized in both encodings ([`NodesBlob`]), so a
//! hit replays bytes whichever protocol the connection speaks.
//!
//! ## Oversized results
//!
//! A reply is one frame of at most [`MAX_FRAME_BYTES`]. Before a
//! query's nodes are encoded, the server multiplies the result count
//! by the connection encoding's per-node width ([`wire::NODE_BYTES`]
//! binary, [`wire::JSON_NODE_MAX_BYTES`] JSON); a result that cannot
//! fit is answered with [`ErrorCode::ResultTooLarge`] on its own
//! stream. It is neither cached nor counted as served, and the
//! connection — with every sibling stream on it — stays open.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops accepting, then **drains**: every
//! connection task finishes the requests it is executing (multiplexed
//! streams each get their response), answers any just-arrived frame
//! with [`ErrorCode::ShuttingDown`], and exits; the acceptor joins
//! every task handle before shutdown returns.

use crate::json::{self, Json};
use crate::proto::{err_response, write_frame, ErrorCode, FrameReader, ReadEvent, MAX_FRAME_BYTES};
use crate::wire::{self, NodesBlob, Request, Response};
use blas::{BlasCollection, BlasDb, DocId, EngineChoice};
use blas_engine::{PoolHandle, TaskHandle};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Socket-level poll tick: connections block at most this long before
/// re-checking the stop flag and their idle budget. Bounds shutdown
/// latency without spinning.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Which wire encodings a server accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoAccept {
    /// Negotiate per connection (the default).
    #[default]
    Both,
    /// JSON-RPC only; a binary hello gets a typed rejection.
    Json,
    /// Binary v2 only; a JSON frame gets a typed rejection.
    Binary,
}

impl std::str::FromStr for ProtoAccept {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "both" => Ok(ProtoAccept::Both),
            "json" => Ok(ProtoAccept::Json),
            "binary" => Ok(ProtoAccept::Binary),
            other => Err(format!("unknown protocol {other:?} (both|json|binary)")),
        }
    }
}

/// Serving knobs. `Default` is sized for tests and small deployments;
/// the `blas-serve` bin exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queries/mutations executing at once before admission control
    /// answers [`ErrorCode::Overloaded`].
    pub max_inflight: usize,
    /// Concurrent connections; an over-limit accept is rejected with
    /// one [`ErrorCode::Overloaded`] frame and closed.
    pub max_connections: usize,
    /// Idle budget per connection: with no complete request this long
    /// (and, on a multiplexed connection, nothing in flight), the
    /// server sends [`ErrorCode::Timeout`] and closes. `None` waits
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for responses; a peer that stops reading
    /// past this gets disconnected. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Result-cache entry bound (0 disables the cache).
    pub result_cache_cap: usize,
    /// Honor the `hold_ms` test parameter on `query` requests
    /// (deterministic admission-control tests; keep off in
    /// production).
    pub debug_hold: bool,
    /// Which wire encodings to accept.
    pub proto: ProtoAccept,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            result_cache_cap: 4096,
            debug_hold: false,
            proto: ProtoAccept::Both,
        }
    }
}

/// Counting try-acquire semaphore: admission control never waits, so
/// there is no queue and no condvar — a failed acquire is the typed
/// `Overloaded` answer.
struct Semaphore {
    permits: AtomicUsize,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Self { permits: AtomicUsize::new(permits) }
    }

    fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut cur = self.permits.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return None;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(Permit(Arc::clone(self))),
                Err(seen) => cur = seen,
            }
        }
    }

    fn in_use(&self, total: usize) -> usize {
        total.saturating_sub(self.permits.load(Ordering::Acquire))
    }
}

/// RAII permit; releasing is the drop.
struct Permit(Arc<Semaphore>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// One cached query answer: counts plus the node array pre-serialized
/// in both encodings, so a hit replays bytes instead of re-walking
/// labels.
struct CachedResult {
    count: u64,
    elements_visited: u64,
    nodes: Arc<NodesBlob>,
}

/// Result-cache key: document × query string × engine token ×
/// generation.
type ResultKey = (u32, String, String, u64);

/// The result cache: same bounded-eviction policy as the plan cache
/// (superseded generations first, then oldest by insertion), plus
/// per-document publish-hook pruning.
struct ResultCache {
    map: Mutex<ResultMap>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

#[derive(Default)]
struct ResultMap {
    entries: HashMap<ResultKey, (Arc<CachedResult>, u64)>,
    clock: u64,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        Self {
            map: Mutex::new(ResultMap::default()),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ResultMap> {
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: &ResultKey) -> Option<Arc<CachedResult>> {
        let found = self.lock().entries.get(key).map(|(e, _)| Arc::clone(e));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: ResultKey, entry: Arc<CachedResult>, live_gen: u64) {
        if self.cap == 0 {
            return;
        }
        let doc = key.0;
        let mut map = self.lock();
        if map.entries.len() >= self.cap && !map.entries.contains_key(&key) {
            // Drop the inserting document's superseded generations
            // first (other documents' entries may still be live at
            // their own generations), then oldest across the board.
            map.entries.retain(|&(d, _, _, g), _| d != doc || g == live_gen);
            while map.entries.len() >= self.cap {
                let oldest = map
                    .entries
                    .iter()
                    .min_by_key(|(_, &(_, stamp))| stamp)
                    .map(|(k, _)| k.clone());
                match oldest {
                    Some(k) => {
                        map.entries.remove(&k);
                    }
                    None => break,
                }
            }
        }
        map.clock += 1;
        let stamp = map.clock;
        map.entries.insert(key, (entry, stamp));
    }

    /// The publish-hook side: a new generation of `doc` supersedes
    /// every entry keyed below it *for that document*.
    fn invalidate_superseded(&self, doc: u32, live_gen: u64) {
        let mut map = self.lock();
        let before = map.entries.len();
        map.entries.retain(|&(d, _, _, g), _| d != doc || g >= live_gen);
        let dropped = (before - map.entries.len()) as u64;
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
    }

    fn clear(&self) -> usize {
        let mut map = self.lock();
        let n = map.entries.len();
        map.entries.clear();
        n
    }

    fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

/// Observable serving counters ([`Server::stats`], and the `stats`
/// method on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests answered with a result (any method).
    pub served: u64,
    /// Requests rejected by query admission control.
    pub overloaded: u64,
    /// Queries answered `result_too_large`.
    pub results_too_large: u64,
    /// Connections accepted into the pool.
    pub connections_accepted: u64,
    /// Connections rejected at the limit.
    pub connections_rejected: u64,
    /// Connections closed for idle timeout.
    pub timeouts: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache entries dropped by publish invalidation.
    pub cache_invalidated: u64,
    /// Result-cache current occupancy.
    pub cache_entries: usize,
}

struct Inner {
    coll: BlasCollection,
    cfg: ServerConfig,
    stop: AtomicBool,
    inflight: Arc<Semaphore>,
    conn_slots: Arc<Semaphore>,
    /// Execution pool for multiplexed requests: admitted binary-stream
    /// requests run here so the connection task can keep reading.
    exec: PoolHandle,
    cache: ResultCache,
    served: AtomicU64,
    overloaded: AtomicU64,
    too_large: AtomicU64,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    timeouts: AtomicU64,
}

/// A running server; dropping it shuts down gracefully (prefer calling
/// [`Server::shutdown`] to observe the drain).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<Vec<TaskHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving a single document with `cfg`; the document answers to
    /// the name `"default"` and to requests that name no database.
    pub fn bind(
        db: Arc<BlasDb>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let mut coll = BlasCollection::new();
        coll.add_shared("default", db);
        Self::bind_collection(coll, addr, cfg)
    }

    /// Bind `addr` and front a whole collection: requests route by
    /// database name (`"db"` param / field), an empty or absent name
    /// selects the first member. The returned handle owns the acceptor
    /// thread and the connection pool.
    pub fn bind_collection(
        coll: BlasCollection,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        if coll.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one document",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            inflight: Arc::new(Semaphore::new(cfg.max_inflight)),
            conn_slots: Arc::new(Semaphore::new(cfg.max_connections)),
            // Multiplexed requests need workers of their own (their
            // connection task keeps reading); bounded by the admission
            // permits they hold, clamped to a sane thread count.
            exec: PoolHandle::new(cfg.max_inflight.clamp(1, 16)),
            cache: ResultCache::new(cfg.result_cache_cap),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            too_large: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            coll,
            cfg,
        });
        // Publish → result-cache invalidation, one hook per document
        // so each prunes its own keys. Weak: a database may outlive
        // the server, and the hook list lives as long as the database
        // (an Arc here would cycle db → hook → inner → db).
        for (id, _) in inner.coll.iter() {
            let weak: Weak<Inner> = Arc::downgrade(&inner);
            let doc = id.0;
            inner.coll.doc_shared(id).on_publish(move |generation| {
                if let Some(inner) = weak.upgrade() {
                    inner.cache.invalidate_superseded(doc, generation);
                }
            });
        }
        // One resident pool worker per admissible connection: a
        // connection task occupies its worker for the connection's
        // lifetime, so the pool size *is* the connection bound.
        let pool = PoolHandle::new(inner.cfg.max_connections.max(1));
        let acceptor_inner = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("blas-accept".into())
            .spawn(move || accept_loop(acceptor_inner, listener, pool))?;
        Ok(Server { inner, addr: local, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        let i = &self.inner;
        ServerStats {
            served: i.served.load(Ordering::Relaxed),
            overloaded: i.overloaded.load(Ordering::Relaxed),
            results_too_large: i.too_large.load(Ordering::Relaxed),
            connections_accepted: i.conns_accepted.load(Ordering::Relaxed),
            connections_rejected: i.conns_rejected.load(Ordering::Relaxed),
            timeouts: i.timeouts.load(Ordering::Relaxed),
            cache_hits: i.cache.hits.load(Ordering::Relaxed),
            cache_misses: i.cache.misses.load(Ordering::Relaxed),
            cache_invalidated: i.cache.invalidated.load(Ordering::Relaxed),
            cache_entries: i.cache.len(),
        }
    }

    /// Stop accepting, drain in-flight requests, join every connection
    /// task, and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Ok(handles) = acceptor.join() {
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(
    inner: Arc<Inner>,
    listener: TcpListener,
    pool: PoolHandle,
) -> Vec<TaskHandle<()>> {
    let mut handles: Vec<TaskHandle<()>> = Vec::new();
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.stop.load(Ordering::SeqCst) {
                break;
            }
            continue;
        };
        if inner.stop.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a late client) — drop it
        }
        // Completed connections release their pool worker; reap their
        // handles so the vector tracks live connections only.
        handles.retain(|h| !h.is_done());
        match inner.conn_slots.try_acquire() {
            Some(permit) => {
                inner.conns_accepted.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(&inner);
                handles.push(pool.spawn_task(move || {
                    serve_connection(conn_inner, stream);
                    drop(permit);
                }));
            }
            None => {
                inner.conns_rejected.fetch_add(1, Ordering::Relaxed);
                let resp = err_response(
                    &Json::Null,
                    ErrorCode::Overloaded,
                    "connection limit reached",
                );
                let mut s = stream;
                let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = write_frame(&mut s, resp.to_string().as_bytes());
            }
        }
    }
    handles
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Negotiate the connection's protocol from its first byte, then hand
/// off to the matching serve loop.
fn serve_connection(inner: Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(inner.cfg.write_timeout);
    let started = Instant::now();
    let mut first = [0u8; 1];
    let first_byte = loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match (&stream).read(&mut first) {
            Ok(0) => return,
            Ok(_) => break first[0],
            Err(e) if is_timeout(&e) => {
                if let Some(budget) = inner.cfg.read_timeout {
                    if started.elapsed() >= budget {
                        // Protocol unknown; the JSON-framed timeout is
                        // the compatible farewell.
                        inner.timeouts.fetch_add(1, Ordering::Relaxed);
                        let resp = err_response(
                            &Json::Null,
                            ErrorCode::Timeout,
                            "connection idle past the read timeout",
                        );
                        let _ = write_frame(&mut &stream, resp.to_string().as_bytes());
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    };
    if first_byte == wire::MAGIC {
        if inner.cfg.proto == ProtoAccept::Json {
            send_binary_error(
                &stream,
                0,
                ErrorCode::BadRequest,
                "binary protocol disabled on this server",
            );
            return;
        }
        // Version byte follows the magic.
        let version = loop {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            match (&stream).read(&mut first) {
                Ok(0) => return,
                Ok(_) => break first[0],
                Err(e) if is_timeout(&e) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        };
        if version != wire::VERSION {
            send_binary_error(
                &stream,
                0,
                ErrorCode::BadRequest,
                &format!("unsupported protocol version {version}"),
            );
            return;
        }
        serve_binary(inner, stream);
    } else {
        if inner.cfg.proto == ProtoAccept::Binary {
            let resp = err_response(
                &Json::Null,
                ErrorCode::BadRequest,
                "JSON protocol disabled on this server",
            );
            let _ = write_frame(&mut &stream, resp.to_string().as_bytes());
            return;
        }
        let mut reader = FrameReader::new();
        reader.prime(first_byte);
        serve_json(inner, stream, reader);
    }
}

fn serve_json(inner: Arc<Inner>, mut stream: TcpStream, mut reader: FrameReader) {
    let mut idle_since = Instant::now();
    loop {
        let stopping = inner.stop.load(Ordering::SeqCst);
        match reader.poll(&mut stream) {
            Ok(ReadEvent::Frame(bytes)) => {
                idle_since = Instant::now();
                let resp = if stopping {
                    let id = request_id(&bytes);
                    err_response(&id, ErrorCode::ShuttingDown, "server is draining")
                } else {
                    respond(&inner, &bytes)
                };
                let resp = fit_json_frame(resp.to_string());
                if write_frame(&mut stream, resp.as_bytes()).is_err() {
                    return;
                }
                if stopping {
                    return;
                }
            }
            Ok(ReadEvent::Idle) => {
                if stopping {
                    return;
                }
                if let Some(budget) = inner.cfg.read_timeout {
                    if idle_since.elapsed() >= budget {
                        inner.timeouts.fetch_add(1, Ordering::Relaxed);
                        let resp = err_response(
                            &Json::Null,
                            ErrorCode::Timeout,
                            "connection idle past the read timeout",
                        );
                        let _ = write_frame(&mut stream, resp.to_string().as_bytes());
                        return;
                    }
                }
            }
            Ok(ReadEvent::TooLarge(n)) => {
                let resp = err_response(
                    &Json::Null,
                    ErrorCode::FrameTooLarge,
                    &format!("frame of {n} bytes exceeds the limit"),
                );
                let _ = write_frame(&mut stream, resp.to_string().as_bytes());
                return;
            }
            Ok(ReadEvent::Eof) | Err(_) => return,
        }
    }
}

/// The shared write half of a multiplexed connection: response frames
/// from concurrent execution tasks interleave under one lock (a frame
/// is written atomically), and the first write failure marks the
/// connection dead so the read loop stops feeding it.
struct MuxWriter {
    stream: Arc<TcpStream>,
    lock: Mutex<()>,
    dead: AtomicBool,
}

impl MuxWriter {
    fn send(&self, stream_id: u64, resp: &Response) {
        let mut payload = Vec::new();
        wire::encode_response(stream_id, resp, &mut payload);
        if payload.len() > MAX_FRAME_BYTES {
            // The count check in `query` keeps node arrays in bounds;
            // this catches an envelope that still overflows (a huge
            // echoed string), so the stream gets a typed error instead
            // of the whole connection dying.
            let message = format!("reply of {} bytes exceeds the frame limit", payload.len());
            payload.clear();
            wire::encode_response(
                stream_id,
                &Response::Error { code: ErrorCode::ResultTooLarge, message },
                &mut payload,
            );
        }
        let _guard = self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        if write_frame(&mut &*self.stream, &payload).is_err() {
            self.dead.store(true, Ordering::Release);
        }
    }
}

fn send_binary_error(stream: &TcpStream, stream_id: u64, code: ErrorCode, message: &str) {
    let mut payload = Vec::new();
    wire::encode_response(
        stream_id,
        &Response::Error { code, message: message.into() },
        &mut payload,
    );
    let _ = write_frame(&mut &*stream, &payload);
}

/// The multiplexed binary serve loop. The connection task reads
/// frames; admission happens here, at read time — an admitted request
/// moves its permit onto the execution pool and the task keeps
/// reading, a rejected one is answered `overloaded` on its own stream.
fn serve_binary(inner: Arc<Inner>, stream: TcpStream) {
    let stream = Arc::new(stream);
    let writer = Arc::new(MuxWriter {
        stream: Arc::clone(&stream),
        lock: Mutex::new(()),
        dead: AtomicBool::new(false),
    });
    let mut reader = FrameReader::new();
    let mut tasks: Vec<TaskHandle<()>> = Vec::new();
    let mut idle_since = Instant::now();
    loop {
        if writer.dead.load(Ordering::Acquire) {
            break;
        }
        let stopping = inner.stop.load(Ordering::SeqCst);
        match reader.poll(&mut &*stream) {
            Ok(ReadEvent::Frame(payload)) => {
                idle_since = Instant::now();
                tasks.retain(|t| !t.is_done());
                let (sid, body) = match wire::split_stream_id(&payload) {
                    Ok(x) => x,
                    Err(e) => {
                        writer.send(
                            0,
                            &Response::Error {
                                code: ErrorCode::BadRequest,
                                message: format!("malformed frame: {e}"),
                            },
                        );
                        continue;
                    }
                };
                if stopping {
                    writer.send(
                        sid,
                        &Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "server is draining".into(),
                        },
                    );
                    break;
                }
                let req = match wire::decode_request_body(body) {
                    Ok(r) => r,
                    Err(e) => {
                        writer.send(
                            sid,
                            &Response::Error {
                                code: ErrorCode::BadRequest,
                                message: format!("malformed frame: {e}"),
                            },
                        );
                        continue;
                    }
                };
                if req.needs_admission() {
                    // Per-stream admission at read time: the permit —
                    // not the pool queue — bounds what piles up behind
                    // the executors.
                    match inner.inflight.try_acquire() {
                        Some(permit) => {
                            let task_inner = Arc::clone(&inner);
                            let task_writer = Arc::clone(&writer);
                            tasks.push(inner.exec.spawn_task(move || {
                                let resp = dispatch(
                                    &task_inner,
                                    &req,
                                    Some(permit),
                                    wire::NODE_BYTES,
                                );
                                task_writer.send(sid, &resp);
                            }));
                        }
                        None => {
                            inner.overloaded.fetch_add(1, Ordering::Relaxed);
                            let (code, message) = overloaded(&inner);
                            writer.send(sid, &Response::Error { code, message });
                        }
                    }
                } else {
                    let resp = dispatch(&inner, &req, None, wire::NODE_BYTES);
                    writer.send(sid, &resp);
                }
            }
            Ok(ReadEvent::Idle) => {
                tasks.retain(|t| !t.is_done());
                if stopping {
                    break;
                }
                if tasks.is_empty() {
                    if let Some(budget) = inner.cfg.read_timeout {
                        if idle_since.elapsed() >= budget {
                            inner.timeouts.fetch_add(1, Ordering::Relaxed);
                            writer.send(
                                0,
                                &Response::Error {
                                    code: ErrorCode::Timeout,
                                    message: "connection idle past the read timeout".into(),
                                },
                            );
                            break;
                        }
                    }
                } else {
                    // In-flight streams count as activity.
                    idle_since = Instant::now();
                }
            }
            Ok(ReadEvent::TooLarge(n)) => {
                writer.send(
                    0,
                    &Response::Error {
                        code: ErrorCode::FrameTooLarge,
                        message: format!("frame of {n} bytes exceeds the limit"),
                    },
                );
                break;
            }
            Ok(ReadEvent::Eof) | Err(_) => break,
        }
    }
    // Drain: every admitted stream gets its response before the
    // connection's pool worker is released.
    for t in tasks {
        let _ = t.join();
    }
}

/// The JSON twin of the oversized-envelope guard in [`MuxWriter::send`]:
/// a reply text too large for one frame becomes a typed error, so the
/// connection survives.
fn fit_json_frame(text: String) -> String {
    if text.len() <= MAX_FRAME_BYTES {
        return text;
    }
    let message = format!("reply of {} bytes exceeds the frame limit", text.len());
    err_response(&Json::Null, ErrorCode::ResultTooLarge, &message).to_string()
}

/// Best-effort id extraction for error responses to frames we will not
/// fully dispatch.
fn request_id(bytes: &[u8]) -> Json {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| json::parse(s).ok())
        .and_then(|req| req.get("id").cloned())
        .unwrap_or(Json::Null)
}

/// Parse and dispatch one JSON request frame into a response.
fn respond(inner: &Inner, bytes: &[u8]) -> Json {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return err_response(&Json::Null, ErrorCode::BadRequest, "frame is not UTF-8");
    };
    let req = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return err_response(
                &Json::Null,
                ErrorCode::BadRequest,
                &format!("malformed JSON: {e}"),
            )
        }
    };
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let Some(method) = req.get("method").and_then(Json::as_str) else {
        return err_response(&id, ErrorCode::BadRequest, "missing \"method\"");
    };
    let empty = Json::Obj(Vec::new());
    let params = req.get("params").unwrap_or(&empty);
    match Request::from_json(method, params) {
        Ok(request) => dispatch(inner, &request, None, wire::JSON_NODE_MAX_BYTES).to_json(&id),
        Err((code, msg)) => err_response(&id, code, &msg),
    }
}

type MethodResult = Result<Response, (ErrorCode, String)>;

/// Execute one typed request — both protocols land here. `permit` is
/// the admission permit when the caller already acquired it (the
/// multiplexed read loop); `None` makes admission this function's job.
/// `node_bytes` is the per-node width of the reply's encoding, which
/// bounds the result a query may return in one frame.
fn dispatch(inner: &Inner, req: &Request, permit: Option<Permit>, node_bytes: usize) -> Response {
    let resp = match dispatch_inner(inner, req, permit, node_bytes) {
        Ok(resp) => resp,
        Err((code, message)) => Response::Error { code, message },
    };
    match &resp {
        Response::Error { code, .. } => match code {
            ErrorCode::Overloaded => {
                inner.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::ResultTooLarge => {
                inner.too_large.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        },
        _ => {
            inner.served.fetch_add(1, Ordering::Relaxed);
        }
    }
    resp
}

fn dispatch_inner(
    inner: &Inner,
    req: &Request,
    permit: Option<Permit>,
    node_bytes: usize,
) -> MethodResult {
    let _permit = if req.needs_admission() && permit.is_none() {
        match inner.inflight.try_acquire() {
            Some(p) => Some(p),
            None => return Err(overloaded(inner)),
        }
    } else {
        permit
    };
    match req {
        Request::Query { db, xpath, engine, labels, cache, hold_ms } => {
            let reply = ReplyShape { labels: *labels, node_bytes };
            query(inner, db, xpath, engine, reply, *cache, *hold_ms)
        }
        Request::PlanInfo { db, xpath, engine } => plan_info(inner, db, xpath, engine),
        Request::Stats { db } => {
            let (doc, handle) = resolve(inner, db)?;
            Ok(Response::Info(stats_json(inner, doc, handle)))
        }
        Request::InsertSubtree { db, parent_start, xml } => {
            let (_, handle) = resolve(inner, db)?;
            let generation =
                handle.insert_subtree(*parent_start, xml).map_err(mutation_error)?;
            Ok(Response::Generation { generation })
        }
        Request::Delete { db, start } => {
            let (_, handle) = resolve(inner, db)?;
            let generation = handle.delete(*start).map_err(mutation_error)?;
            Ok(Response::Generation { generation })
        }
        Request::Retag { db, start, tag } => {
            let (_, handle) = resolve(inner, db)?;
            let generation = handle.retag(*start, tag).map_err(mutation_error)?;
            Ok(Response::Generation { generation })
        }
        Request::ClearCache => {
            let cleared = inner.cache.clear();
            Ok(Response::Info(Json::Obj(vec![(
                "cleared".into(),
                Json::uint(cleared as u64),
            )])))
        }
    }
}

/// Route a request's database name to a collection member. An empty
/// name selects the first member (the single-document default).
fn resolve<'a>(
    inner: &'a Inner,
    name: &str,
) -> Result<(u32, &'a Arc<BlasDb>), (ErrorCode, String)> {
    let id = if name.is_empty() {
        DocId(0)
    } else {
        inner.coll.find(name).ok_or_else(|| {
            (ErrorCode::BadRequest, format!("unknown database {name:?}"))
        })?
    };
    Ok((id.0, inner.coll.doc_shared(id)))
}

fn mutation_error(e: blas::BlasError) -> (ErrorCode, String) {
    match &e {
        blas::BlasError::Mutation(_) => (ErrorCode::Mutation, e.to_string()),
        _ => (ErrorCode::BadRequest, e.to_string()),
    }
}

fn overloaded(inner: &Inner) -> (ErrorCode, String) {
    (
        ErrorCode::Overloaded,
        format!(
            "{} requests in flight (the admission bound); retry with backoff",
            inner.cfg.max_inflight
        ),
    )
}

/// What a query reply carries: whether it includes the nodes, and the
/// encoded width of one node in the connection's encoding.
#[derive(Clone, Copy)]
struct ReplyShape {
    labels: bool,
    node_bytes: usize,
}

/// Frame bytes a query reply spends on everything but its node array
/// (ids, counts, engine token and the JSON punctuation around them).
const REPLY_ENVELOPE_BYTES: usize = 4096;

impl ReplyShape {
    /// `Err(result_too_large)` when a reply with `count` nodes cannot
    /// fit in one frame — decided from the count, before encoding.
    fn check(self, count: u64) -> Result<(), (ErrorCode, String)> {
        let budget = (MAX_FRAME_BYTES - REPLY_ENVELOPE_BYTES) / self.node_bytes;
        if !self.labels || count <= budget as u64 {
            return Ok(());
        }
        Err((
            ErrorCode::ResultTooLarge,
            format!(
                "{count} nodes exceed the {budget} one reply frame holds in this encoding; \
                 ask for the count only (labels: false) or narrow the query"
            ),
        ))
    }
}

fn query(
    inner: &Inner,
    db: &str,
    xpath: &str,
    engine_tok: &str,
    reply: ReplyShape,
    use_cache: bool,
    hold_ms: Option<u64>,
) -> MethodResult {
    let (doc, handle) = resolve(inner, db)?;
    let choice: EngineChoice = engine_tok
        .parse()
        .map_err(|e: blas::BlasError| (ErrorCode::BadRequest, e.to_string()))?;
    if inner.cfg.debug_hold {
        if let Some(ms) = hold_ms {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
    }

    let snap = handle.snapshot();
    let generation = snap.generation();
    let key: ResultKey = (doc, xpath.to_string(), engine_tok.to_string(), generation);
    let (entry, cached) = match use_cache {
        true => match inner.cache.get(&key) {
            Some(hit) => (hit, true),
            None => (execute(inner, &snap, xpath, choice, &key, true, reply)?, false),
        },
        false => (execute(inner, &snap, xpath, choice, &key, false, reply)?, false),
    };
    // A hit may have been cached by a connection whose encoding is
    // narrower than this one's.
    reply.check(entry.count)?;
    let want_labels = reply.labels;
    Ok(Response::Query {
        generation,
        engine: engine_tok.to_string(),
        cached,
        count: entry.count,
        elements_visited: entry.elements_visited,
        nodes: want_labels.then(|| Arc::clone(&entry.nodes)),
    })
}

fn execute(
    inner: &Inner,
    snap: &blas::DbSnapshot<'_>,
    xpath: &str,
    choice: EngineChoice,
    key: &ResultKey,
    store: bool,
    reply: ReplyShape,
) -> Result<Arc<CachedResult>, (ErrorCode, String)> {
    let result = snap.query(xpath, choice).map_err(|e| match &e {
        blas::BlasError::XPath(_) | blas::BlasError::Parse(_) => {
            (ErrorCode::Xpath, e.to_string())
        }
        _ => (ErrorCode::Internal, e.to_string()),
    })?;
    // Before encoding: a result no frame can carry is never rendered
    // or cached — an error when the nodes were asked for, a count-only
    // reply otherwise.
    let count = result.nodes.len() as u64;
    reply.check(count)?;
    let renderable = ReplyShape { labels: true, node_bytes: wire::NODE_BYTES }.check(count).is_ok();
    let nodes = match renderable {
        true => NodesBlob::from_triples(result.nodes.iter().map(|d| (d.start, d.end, d.level))),
        false => NodesBlob::from_bin(Vec::new()),
    };
    let entry = Arc::new(CachedResult {
        count,
        elements_visited: result.stats.elements_visited,
        nodes: Arc::new(nodes),
    });
    if store && renderable {
        inner.cache.insert(key.clone(), Arc::clone(&entry), snap.generation());
    }
    Ok(entry)
}

fn plan_info(inner: &Inner, db: &str, xpath: &str, engine_tok: &str) -> MethodResult {
    let (_, handle) = resolve(inner, db)?;
    let choice: EngineChoice = engine_tok
        .parse()
        .map_err(|e: blas::BlasError| (ErrorCode::BadRequest, e.to_string()))?;
    let info = handle.plan_info(xpath, choice).map_err(|e| match &e {
        blas::BlasError::XPath(_) | blas::BlasError::Parse(_) => {
            (ErrorCode::Xpath, e.to_string())
        }
        _ => (ErrorCode::Internal, e.to_string()),
    })?;
    Ok(Response::Info(Json::Obj(vec![
        ("engine".into(), Json::str(info.engine.to_string())),
        ("translator".into(), Json::str(format!("{:?}", info.translator))),
        ("shards".into(), Json::uint(info.shards as u64)),
        ("est_cost_ns".into(), Json::Num(info.est_cost_ns)),
        ("ops".into(), Json::uint(info.ops as u64)),
        ("cached".into(), Json::Bool(info.cached)),
    ])))
}

fn stats_json(inner: &Inner, doc: u32, db: &Arc<BlasDb>) -> Json {
    let delta = db.delta_stats();
    let plan = db.plan_cache_stats();
    Json::Obj(vec![
        ("db".into(), Json::str(inner.coll.name(DocId(doc)))),
        ("documents".into(), Json::uint(inner.coll.len() as u64)),
        ("generation".into(), Json::uint(db.generation())),
        ("served".into(), Json::uint(inner.served.load(Ordering::Relaxed))),
        (
            "overloaded".into(),
            Json::uint(inner.overloaded.load(Ordering::Relaxed)),
        ),
        (
            "result_too_large".into(),
            Json::uint(inner.too_large.load(Ordering::Relaxed)),
        ),
        (
            "inflight".into(),
            Json::uint(inner.inflight.in_use(inner.cfg.max_inflight) as u64),
        ),
        (
            "connections".into(),
            Json::Obj(vec![
                (
                    "accepted".into(),
                    Json::uint(inner.conns_accepted.load(Ordering::Relaxed)),
                ),
                (
                    "rejected".into(),
                    Json::uint(inner.conns_rejected.load(Ordering::Relaxed)),
                ),
                (
                    "active".into(),
                    Json::uint(inner.conn_slots.in_use(inner.cfg.max_connections) as u64),
                ),
            ]),
        ),
        (
            "result_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(inner.cache.hits.load(Ordering::Relaxed))),
                (
                    "misses".into(),
                    Json::uint(inner.cache.misses.load(Ordering::Relaxed)),
                ),
                (
                    "invalidated".into(),
                    Json::uint(inner.cache.invalidated.load(Ordering::Relaxed)),
                ),
                ("entries".into(), Json::uint(inner.cache.len() as u64)),
            ]),
        ),
        (
            "plan_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(plan.hits)),
                ("misses".into(), Json::uint(plan.misses)),
                ("entries".into(), Json::uint(plan.entries as u64)),
                ("evictions".into(), Json::uint(plan.evictions)),
            ]),
        ),
        (
            "delta".into(),
            Json::Obj(vec![
                ("inserted".into(), Json::uint(delta.inserted as u64)),
                ("deleted".into(), Json::uint(delta.deleted as u64)),
                ("retags".into(), Json::uint(delta.retags as u64)),
                ("compactions".into(), Json::uint(delta.compactions)),
            ]),
        ),
    ])
}
