//! The live observability plane: a second listener beside the editor
//! port that exposes what `ServerReport` only tells you post-mortem.
//!
//! ## Protocol
//!
//! The admin port speaks two dialects, sniffed from the first bytes of
//! each connection:
//!
//! - **Framed** (the editor's own length+checksum codec): each frame
//!   carries one whitespace-separated text command, each response is one
//!   frame. Commands: `snapshot` (full registry JSON), `delta CURSOR`
//!   (registry changes since a snapshot sequence — O(changed), not
//!   O(registry)), `prom` (Prometheus text), `health`, `ready`, and
//!   `rings OFFSET` (a chunk of the append-only ring-dump log starting
//!   at byte `OFFSET`). This is what `cvc-trace attach` and the E23
//!   scraper speak.
//! - **HTTP/1.0** (`GET` only, one request per connection): `/metrics`
//!   (Prometheus), `/metrics.json` (snapshot), `/healthz`, `/readyz` —
//!   enough for `curl` and a kubelet probe, no HTTP library.
//!
//! ## Isolation
//!
//! The admin tier never touches the hot path. The serving loop *pushes*
//! into [`AdminShared`] on its own publish cadence — a registry delta
//! under one mutex, fresh ring-dump lines under another — and the admin
//! thread serves scrapes from those copies. A slow or hostile scraper
//! can therefore stall only itself: the core's publish is a bounded
//! `lock / append / unlock`, and the mutexes are never held across I/O.
//!
//! Readiness is `serving loop (cvc-core) alive ∧ io_errors unchanged
//! since the previous probe` — the second clause turns the "silently
//! degraded" counter into a probe-visible signal.

use crate::conn::Conn;
use crate::frame::{write_frame, FrameReader};
use crate::poll::{Interest, PollEvent, Poller, Waker};
use crate::server::{lock, IoStats};
use cvc_reduce::registry::DeltaTracker;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Largest ring-dump chunk per `rings` response; leaves header room
/// under the codec's 1 MiB frame cap.
const RINGS_CHUNK: usize = 700 * 1024;

/// After the server stops, the admin thread keeps serving this long so
/// an attached tailer can pull the final, eof-marked ring chunk.
const ADMIN_DRAIN_MS: u64 = 600;

/// An HTTP request head larger than this is not a probe; drop it.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Default ring-dump log retention (bytes of dump text). Transform
/// events are O(|HB|) per integrated op while recording, so a burst can
/// produce tens of bytes per HB entry per op; the log only allocates
/// when `--trace` is on, so the cap buys slack for a lagging tailer
/// rather than resident memory for everyone.
pub(crate) const RING_LOG_CAP: usize = 32 << 20;

/// What the core publishes and the admin thread serves. Every field is
/// written by exactly one producer (serving loop or probe path) and read
/// under short, I/O-free critical sections.
pub(crate) struct AdminShared {
    /// Registry snapshots + retained deltas (core publishes, scrapers read).
    pub(crate) deltas: Mutex<DeltaTracker>,
    /// Append-only ring-dump text log (core appends, tailers read).
    pub(crate) rings: Mutex<RingLog>,
    /// Cleared by [`AliveGuard`] when the serving loop exits.
    pub(crate) core_alive: AtomicBool,
    /// `io_errors` as of the previous readiness probe.
    pub(crate) last_probe_io_errors: AtomicU64,
    pub(crate) started: Instant,
}

impl AdminShared {
    pub(crate) fn new(ring_cap: usize) -> AdminShared {
        AdminShared {
            deltas: Mutex::new(DeltaTracker::new()),
            rings: Mutex::new(RingLog::new(ring_cap)),
            core_alive: AtomicBool::new(true),
            last_probe_io_errors: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// Drop-guard held by the serving loop's thread: clears `core_alive` on
/// *any* exit path, including a panic unwinding the thread, so readiness
/// cannot keep reporting a dead loop as healthy.
pub(crate) struct AliveGuard {
    shared: Arc<AdminShared>,
}

impl AliveGuard {
    pub(crate) fn new(shared: Arc<AdminShared>) -> AliveGuard {
        AliveGuard { shared }
    }
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.shared.core_alive.store(false, Ordering::SeqCst);
    }
}

/// Ready iff the serving loop is alive and no serving thread died since
/// the previous probe. Each call consumes the `io_errors` delta: a burst of
/// abnormal exits flips exactly the next probe, after which a stable
/// (if smaller) server reads ready again.
pub(crate) fn readiness(shared: &AdminShared, stats: &IoStats) -> Result<(), &'static str> {
    let cur = stats.io_errors.load(Ordering::Relaxed);
    let prev = shared.last_probe_io_errors.swap(cur, Ordering::Relaxed);
    if !shared.core_alive.load(Ordering::SeqCst) {
        return Err("core thread dead");
    }
    if cur != prev {
        return Err("io errors advanced since last probe");
    }
    Ok(())
}

/// An append-only log of ring-dump text with bounded retention: offsets
/// are stable over the log's whole lifetime, but only the last `cap`
/// bytes (rounded to whole lines) stay readable. A reader that falls
/// behind the window learns so from the served start offset.
pub(crate) struct RingLog {
    buf: Vec<u8>,
    /// Log offset of `buf[0]`.
    base: u64,
    cap: usize,
    eof: bool,
}

impl RingLog {
    pub(crate) fn new(cap: usize) -> RingLog {
        RingLog {
            buf: Vec::new(),
            base: 0,
            cap: cap.max(4096),
            eof: false,
        }
    }

    /// Append dump text (whole `\n`-terminated lines), evicting the
    /// oldest whole lines once retention is exceeded.
    pub(crate) fn append(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        debug_assert!(text.ends_with('\n'));
        self.buf.extend_from_slice(text.as_bytes());
        if self.buf.len() > self.cap {
            let overflow = self.buf.len() - self.cap;
            // Evict at least `overflow` bytes, cutting on a line
            // boundary so readers never see a torn line.
            let from = overflow.saturating_sub(1);
            let cut = self.buf[from..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(self.buf.len(), |p| from + p + 1);
            self.buf.drain(..cut);
            self.base += cut as u64;
        }
    }

    /// No further appends will come (server shut down).
    pub(crate) fn mark_eof(&mut self) {
        self.eof = true;
    }

    /// Total bytes ever appended (the next write offset).
    #[cfg(test)]
    pub(crate) fn end(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Read up to `max` bytes starting at log offset `offset`, clamped
    /// forward to the retention window and cut back to a line boundary.
    /// Returns `(served_start, bytes, eof)`; `served_start > offset`
    /// means the reader fell behind and lines were evicted unseen. The
    /// eof flag is only raised once the reader has seen the final byte.
    pub(crate) fn read_from(&self, offset: u64, max: usize) -> (u64, Vec<u8>, bool) {
        let idx = (offset.saturating_sub(self.base) as usize).min(self.buf.len());
        let start = self.base + idx as u64;
        let avail = &self.buf[idx..];
        let take = if avail.len() <= max {
            avail.len()
        } else {
            avail[..max]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1)
        };
        let served_to_end = idx + take == self.buf.len();
        (start, avail[..take].to_vec(), self.eof && served_to_end)
    }
}

/// A running admin listener.
pub(crate) struct AdminHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) waker: Arc<Waker>,
    pub(crate) thread: thread::JoinHandle<()>,
}

/// Bind the admin listener and spawn its serving thread.
pub(crate) fn spawn_admin(
    addr: &str,
    shared: Arc<AdminShared>,
    stats: Arc<IoStats>,
) -> io::Result<AdminHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(Waker::new()?);
    let thread = {
        let stop = Arc::clone(&stop);
        let waker = Arc::clone(&waker);
        thread::Builder::new()
            .name("cvc-admin".to_string())
            .spawn(move || {
                if admin_loop(&listener, &shared, &stats, &stop, &waker).is_err() {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            })?
    };
    Ok(AdminHandle {
        addr: local,
        stop,
        waker,
        thread,
    })
}

/// Per-connection protocol state. A fresh connection sits in `Sniff`
/// until its first bytes disambiguate HTTP from the frame codec.
enum AdminConn {
    Sniff(TcpStream),
    Framed(Conn),
    Http(HttpExchange),
}

/// One-shot HTTP/1.0 exchange: read head, write response, close.
struct HttpExchange {
    stream: TcpStream,
    inb: Vec<u8>,
    out: Vec<u8>,
    sent: usize,
}

enum Sniffed {
    Http,
    Framed,
    Undecided,
}

/// Decide a connection's dialect from its first peeked bytes. Anything
/// that isn't an HTTP method prefix is the frame codec (a frame whose
/// length field happens to spell "GET " would exceed the frame cap and
/// die cleanly on that path anyway).
fn classify(probe: &[u8]) -> Sniffed {
    const METHODS: [&[u8; 4]; 4] = [b"GET ", b"HEAD", b"POST", b"PUT "];
    for m in METHODS {
        if probe.len() >= 4 {
            if &probe[..4] == m {
                return Sniffed::Http;
            }
        } else if m.starts_with(probe) {
            return Sniffed::Undecided;
        }
    }
    Sniffed::Framed
}

fn admin_loop(
    listener: &TcpListener,
    shared: &AdminShared,
    stats: &IoStats,
    stop: &AtomicBool,
    waker: &Waker,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.register(waker.fd(), 0, Interest::READ)?;
    poller.register(listener.as_raw_fd(), 1, Interest::READ)?;
    // Slab of connections; epoll token = slot + 2.
    let mut conns: Vec<Option<AdminConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if stop.load(Ordering::SeqCst) {
            // Linger briefly after shutdown so attached tailers can pull
            // the final, eof-marked ring chunk; leave as soon as every
            // peer has disconnected.
            let deadline = *drain_deadline
                .get_or_insert_with(|| Instant::now() + Duration::from_millis(ADMIN_DRAIN_MS));
            if Instant::now() >= deadline || conns.iter().all(Option::is_none) {
                return Ok(());
            }
        }
        events.clear();
        let timeout = if drain_deadline.is_some() { 50 } else { 250 };
        poller.wait(&mut events, timeout)?;
        for ev in &events {
            match ev.token {
                0 => waker.drain(),
                1 => accept_admin(listener, &poller, &mut conns, &mut free),
                t => {
                    let slot = (t - 2) as usize;
                    let Some(state) = conns.get_mut(slot).and_then(Option::take) else {
                        continue;
                    };
                    match drive_conn(state, &poller, t, ev, shared, stats) {
                        Some(next) => conns[slot] = Some(next),
                        None => free.push(slot),
                    }
                }
            }
        }
    }
}

fn accept_admin(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut Vec<Option<AdminConn>>,
    free: &mut Vec<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                let token = slot as u64 + 2;
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_ok()
                {
                    conns[slot] = Some(AdminConn::Sniff(stream));
                } else {
                    free.push(slot);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Advance one connection through one readiness event. Returns the next
/// state, or `None` when the connection is finished (the fd is
/// deregistered before the stream drops).
fn drive_conn(
    state: AdminConn,
    poller: &Poller,
    token: u64,
    ev: &PollEvent,
    shared: &AdminShared,
    stats: &IoStats,
) -> Option<AdminConn> {
    match state {
        AdminConn::Sniff(stream) => step_sniff(stream, poller, token, ev, shared, stats),
        AdminConn::Framed(conn) => step_framed(conn, poller, token, ev, shared, stats),
        AdminConn::Http(ex) => step_http(ex, poller, token, ev, shared, stats),
    }
}

fn step_sniff(
    stream: TcpStream,
    poller: &Poller,
    token: u64,
    ev: &PollEvent,
    shared: &AdminShared,
    stats: &IoStats,
) -> Option<AdminConn> {
    if !(ev.readable || ev.hangup) {
        return Some(AdminConn::Sniff(stream));
    }
    let fd = stream.as_raw_fd();
    let mut probe = [0u8; 8];
    let n = match stream.peek(&mut probe) {
        Ok(0) => {
            let _ = poller.deregister(fd);
            return None;
        }
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            if ev.hangup {
                let _ = poller.deregister(fd);
                return None;
            }
            return Some(AdminConn::Sniff(stream));
        }
        Err(_) => {
            let _ = poller.deregister(fd);
            return None;
        }
    };
    match classify(&probe[..n]) {
        Sniffed::Undecided => Some(AdminConn::Sniff(stream)),
        Sniffed::Http => {
            let ex = HttpExchange {
                stream,
                inb: Vec::new(),
                out: Vec::new(),
                sent: 0,
            };
            // The sniffed bytes were only peeked: fall straight into the
            // HTTP read path to consume them.
            step_http(ex, poller, token, ev, shared, stats)
        }
        Sniffed::Framed => match Conn::new(stream) {
            Ok(conn) => step_framed(conn, poller, token, ev, shared, stats),
            Err(_) => {
                // The stream (and fd) died inside Conn::new; the close
                // already dropped its epoll registration.
                let _ = poller.deregister(fd);
                None
            }
        },
    }
}

fn step_framed(
    mut conn: Conn,
    poller: &Poller,
    token: u64,
    ev: &PollEvent,
    shared: &AdminShared,
    stats: &IoStats,
) -> Option<AdminConn> {
    let mut dead = false;
    if ev.readable || ev.hangup {
        let mut payloads = Vec::new();
        let res = conn.on_readable(&mut payloads);
        for p in &payloads {
            let resp = handle_command(p, shared, stats);
            if conn.queue_frame(&[&resp]).is_err() {
                dead = true;
                break;
            }
        }
        if res.is_err() {
            dead = true;
        }
    }
    if !dead && (ev.writable || conn.wants_write()) {
        dead = conn.flush().is_err();
    }
    if !dead {
        let interest = if conn.wants_write() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        dead = poller.modify(conn.fd(), token, interest).is_err();
    }
    if dead {
        let _ = poller.deregister(conn.fd());
        return None;
    }
    Some(AdminConn::Framed(conn))
}

fn step_http(
    mut ex: HttpExchange,
    poller: &Poller,
    token: u64,
    ev: &PollEvent,
    shared: &AdminShared,
    stats: &IoStats,
) -> Option<AdminConn> {
    let fd = ex.stream.as_raw_fd();
    if ex.out.is_empty() && (ev.readable || ev.hangup) {
        let mut chunk = [0u8; 4096];
        loop {
            match ex.stream.read(&mut chunk) {
                Ok(0) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
                Ok(n) => {
                    ex.inb.extend_from_slice(&chunk[..n]);
                    if ex.inb.len() > MAX_HTTP_HEAD {
                        let _ = poller.deregister(fd);
                        return None;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
            }
        }
        if headers_complete(&ex.inb) {
            let line_end = ex
                .inb
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(ex.inb.len());
            let line = String::from_utf8_lossy(&ex.inb[..line_end]);
            ex.out = http_response(line.trim_end(), shared, stats);
            if poller.modify(fd, token, Interest::READ_WRITE).is_err() {
                let _ = poller.deregister(fd);
                return None;
            }
        }
    }
    if !ex.out.is_empty() {
        while ex.sent < ex.out.len() {
            match ex.stream.write(&ex.out[ex.sent..]) {
                Ok(0) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
                Ok(n) => ex.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
            }
        }
        if ex.sent == ex.out.len() {
            // HTTP/1.0, Connection: close — the exchange is done.
            let _ = poller.deregister(fd);
            return None;
        }
    }
    Some(AdminConn::Http(ex))
}

fn headers_complete(inb: &[u8]) -> bool {
    inb.windows(4).any(|w| w == b"\r\n\r\n") || inb.windows(2).any(|w| w == b"\n\n")
}

/// Dispatch one framed text command to its response payload.
fn handle_command(cmd: &[u8], shared: &AdminShared, stats: &IoStats) -> Vec<u8> {
    let text = String::from_utf8_lossy(cmd);
    let mut parts = text.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("snapshot"), None) => snapshot_json(shared).into_bytes(),
        (Some("delta"), Some(cursor)) => match cursor.parse::<u64>() {
            Ok(c) => lock(&shared.deltas).delta_since(c).to_json().into_bytes(),
            Err(_) => b"err bad cursor".to_vec(),
        },
        (Some("prom"), None) => prometheus_text(shared).into_bytes(),
        (Some("health"), None) => format!("ok uptime_us={}", shared.uptime_us()).into_bytes(),
        (Some("ready"), None) => match readiness(shared, stats) {
            Ok(()) => b"ready".to_vec(),
            Err(why) => format!("unready {why}").into_bytes(),
        },
        (Some("rings"), Some(off)) => match off.parse::<u64>() {
            Ok(o) => rings_chunk(shared, o),
            Err(_) => b"err bad offset".to_vec(),
        },
        _ => b"err unknown command".to_vec(),
    }
}

fn snapshot_json(shared: &AdminShared) -> String {
    let (seq, registry) = lock(&shared.deltas).snapshot();
    // Render outside the lock: to_json is O(registry).
    format!(
        "{{\"seq\":{seq},\"uptime_us\":{},\"registry\":{}}}",
        shared.uptime_us(),
        registry.to_json()
    )
}

fn prometheus_text(shared: &AdminShared) -> String {
    let (seq, registry) = lock(&shared.deltas).snapshot();
    let mut out = registry.to_prometheus();
    // The ready gauge reads the liveness flag only: a scrape must not
    // consume the readiness probe's io_errors delta.
    let alive = shared.core_alive.load(Ordering::SeqCst);
    out.push_str("# TYPE cvc_admin_snapshot_seq gauge\n");
    out.push_str(&format!("cvc_admin_snapshot_seq {seq}\n"));
    out.push_str("# TYPE cvc_admin_uptime_seconds gauge\n");
    out.push_str(&format!(
        "cvc_admin_uptime_seconds {:.6}\n",
        shared.uptime_us() as f64 / 1e6
    ));
    out.push_str("# TYPE cvc_admin_ready gauge\n");
    out.push_str(&format!("cvc_admin_ready {}\n", u8::from(alive)));
    out
}

fn rings_chunk(shared: &AdminShared, offset: u64) -> Vec<u8> {
    let (start, chunk, eof) = lock(&shared.rings).read_from(offset, RINGS_CHUNK);
    let next = start + chunk.len() as u64;
    let mut out = format!("RINGS {start} {next} {}\n", u8::from(eof)).into_bytes();
    out.extend_from_slice(&chunk);
    out
}

/// Parse a `rings` response: a `RINGS <start> <next> <eof>` header line
/// followed by raw ring-dump text. `start > requested offset` means the
/// server evicted lines the reader never saw.
pub fn parse_rings_response(payload: &[u8]) -> Option<(u64, u64, bool, &[u8])> {
    let nl = payload.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&payload[..nl]).ok()?;
    let mut it = header.split_whitespace();
    if it.next()? != "RINGS" {
        return None;
    }
    let start: u64 = it.next()?.parse().ok()?;
    let next: u64 = it.next()?.parse().ok()?;
    let eof = it.next()? == "1";
    Some((start, next, eof, &payload[nl + 1..]))
}

/// Blocking admin-port client: one framed text command out, one framed
/// response back. `cvc-trace attach` and the E23 scraper speak through
/// this; being a remote-facing tool surface it never panics.
pub struct AdminClient {
    stream: TcpStream,
    reader: FrameReader,
}

impl AdminClient {
    /// Connect with `timeout` applied to connect, reads, and writes.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<AdminClient> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(AdminClient {
                        stream,
                        reader: FrameReader::new(),
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Send one command and wait for its single response frame.
    pub fn request(&mut self, cmd: &str) -> io::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(cmd.len() + 16);
        write_frame(&mut buf, &[cmd.as_bytes()]);
        self.stream.write_all(&buf)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(payload) = self.reader.next_frame().map_err(io::Error::other)? {
                return Ok(payload);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "admin peer closed",
                ));
            }
            self.reader.extend(&chunk[..n]);
        }
    }

    /// Convenience: request + UTF-8 decode (lossy).
    pub fn request_text(&mut self, cmd: &str) -> io::Result<String> {
        Ok(String::from_utf8_lossy(&self.request(cmd)?).into_owned())
    }
}

fn http_response(line: &str, shared: &AdminShared, stats: &IoStats) -> Vec<u8> {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    if method != "GET" {
        return http_package(
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is served\n",
        );
    }
    match path {
        "/metrics" => http_package(
            200,
            "OK",
            "text/plain; version=0.0.4",
            &prometheus_text(shared),
        ),
        "/metrics.json" => http_package(200, "OK", "application/json", &snapshot_json(shared)),
        "/healthz" => http_package(200, "OK", "text/plain", "ok\n"),
        "/readyz" => match readiness(shared, stats) {
            Ok(()) => http_package(200, "OK", "text/plain", "ready\n"),
            Err(why) => http_package(
                503,
                "Service Unavailable",
                "text/plain",
                &format!("unready: {why}\n"),
            ),
        },
        _ => http_package(
            404,
            "Not Found",
            "text/plain",
            "try /metrics, /metrics.json, /healthz, /readyz\n",
        ),
    }
}

fn http_package(code: u16, reason: &str, ctype: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_log_serves_stable_offsets_and_evicts_whole_lines() {
        let mut log = RingLog::new(4096);
        log.append("alpha 1\n");
        log.append("beta 2\n");
        let (start, bytes, eof) = log.read_from(0, 1 << 20);
        assert_eq!(start, 0);
        assert_eq!(bytes, b"alpha 1\nbeta 2\n");
        assert!(!eof);
        // Resume from the returned cursor: only the new line arrives.
        let next = start + bytes.len() as u64;
        log.append("gamma 3\n");
        let (start2, bytes2, _) = log.read_from(next, 1 << 20);
        assert_eq!(start2, next);
        assert_eq!(bytes2, b"gamma 3\n");
    }

    #[test]
    fn ring_log_eviction_advances_base_past_whole_lines() {
        let mut log = RingLog::new(4096);
        // The cap floors at 4096; overflow it with 9-byte lines.
        let line = "12345678\n";
        for _ in 0..600 {
            log.append(line);
        }
        let (start, bytes, _) = log.read_from(0, 1 << 20);
        assert!(start > 0, "old lines must have been evicted");
        assert_eq!(
            start % line.len() as u64,
            0,
            "eviction cuts on line boundaries"
        );
        assert!(bytes.len() <= 4096);
        assert!(bytes.ends_with(b"\n"));
        assert_eq!(start + bytes.len() as u64, log.end());
    }

    #[test]
    fn ring_log_chunk_limit_cuts_on_a_line_boundary() {
        let mut log = RingLog::new(1 << 20);
        for i in 0..100 {
            log.append(&format!("line number {i}\n"));
        }
        let (_, bytes, eof) = log.read_from(0, 64);
        assert!(!bytes.is_empty() && bytes.len() <= 64);
        assert!(bytes.ends_with(b"\n"));
        assert!(!eof, "eof only once the final byte is served");
        log.mark_eof();
        let (_, all, eof2) = log.read_from(0, 1 << 20);
        assert!(eof2);
        assert_eq!(all.len() as u64, log.end());
    }

    #[test]
    fn classify_separates_http_from_frames() {
        assert!(matches!(classify(b"GET /met"), Sniffed::Http));
        assert!(matches!(classify(b"POST"), Sniffed::Http));
        assert!(matches!(classify(b"GE"), Sniffed::Undecided));
        assert!(matches!(classify(b"\x10\x00\x00\x00"), Sniffed::Framed));
        assert!(matches!(classify(b"GETX"), Sniffed::Framed));
    }

    #[test]
    fn rings_response_round_trips_through_the_parser() {
        let shared = AdminShared::new(4096);
        lock(&shared.rings).append("1 0 5 Generate 1 1 0 0 0 0 0 - - 0\n");
        let resp = rings_chunk(&shared, 0);
        let (start, next, eof, body) = match parse_rings_response(&resp) {
            Some(p) => p,
            None => panic!("header must parse"),
        };
        assert_eq!(start, 0);
        assert_eq!(next as usize, body.len());
        assert!(!eof);
        assert!(body.ends_with(b"\n"));
    }

    #[test]
    fn readiness_consumes_the_io_error_delta_and_tracks_liveness() {
        let shared = AdminShared::new(4096);
        let stats = IoStats::default();
        assert!(readiness(&shared, &stats).is_ok());
        stats.io_errors.fetch_add(1, Ordering::Relaxed);
        assert!(
            readiness(&shared, &stats).is_err(),
            "fresh io error flips one probe"
        );
        assert!(readiness(&shared, &stats).is_ok(), "the delta is consumed");
        shared.core_alive.store(false, Ordering::SeqCst);
        assert_eq!(readiness(&shared, &stats), Err("core thread dead"));
    }

    #[test]
    fn http_router_serves_probes_and_404s() {
        let shared = AdminShared::new(4096);
        let stats = IoStats::default();
        let ok = String::from_utf8_lossy(&http_response("GET /healthz HTTP/1.0", &shared, &stats))
            .into_owned();
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(ok.contains("Content-Length:"));
        let ready =
            String::from_utf8_lossy(&http_response("GET /readyz HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(ready.starts_with("HTTP/1.0 200"));
        shared.core_alive.store(false, Ordering::SeqCst);
        let unready =
            String::from_utf8_lossy(&http_response("GET /readyz HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(unready.starts_with("HTTP/1.0 503"));
        let missing =
            String::from_utf8_lossy(&http_response("GET /nope HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(missing.starts_with("HTTP/1.0 404"));
        let post =
            String::from_utf8_lossy(&http_response("POST /metrics HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(post.starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn prometheus_text_carries_the_admin_gauges() {
        let shared = AdminShared::new(4096);
        let text = prometheus_text(&shared);
        assert!(text.contains("cvc_admin_snapshot_seq 0"));
        assert!(text.contains("cvc_admin_ready 1"));
        assert!(text.contains("# TYPE cvc_admin_uptime_seconds gauge"));
    }

    fn admin_server() -> crate::server::ServerHandle {
        let cfg = crate::server::ServerConfig {
            n_clients: 2,
            admin_addr: Some("127.0.0.1:0".to_string()),
            trace_rings: true,
            ..crate::server::ServerConfig::default()
        };
        match crate::server::EditorServer::spawn(cfg) {
            Ok(h) => h,
            Err(e) => panic!("spawn: {e}"),
        }
    }

    #[test]
    fn live_server_answers_both_dialects() {
        let handle = admin_server();
        let addr = match handle.admin_addr() {
            Some(a) => a.to_string(),
            None => panic!("admin plane must bind"),
        };
        let mut c = match AdminClient::connect(&addr, Duration::from_secs(5)) {
            Ok(c) => c,
            Err(e) => panic!("connect: {e}"),
        };
        // Framed dialect: every command answers on the same connection.
        let health = c.request_text("health").unwrap_or_default();
        assert!(health.starts_with("ok uptime_us="), "{health}");
        assert_eq!(c.request_text("ready").unwrap_or_default(), "ready");
        let snap = c.request_text("snapshot").unwrap_or_default();
        assert!(snap.starts_with("{\"seq\":"), "{snap}");
        assert!(snap.contains("\"registry\":{"), "{snap}");
        let delta = c.request_text("delta 0").unwrap_or_default();
        assert!(delta.starts_with("{\"seq\":"), "{delta}");
        let prom = c.request_text("prom").unwrap_or_default();
        assert!(prom.contains("cvc_admin_ready 1"), "{prom}");
        let rings = c.request("rings 0").unwrap_or_default();
        assert!(parse_rings_response(&rings).is_some());
        let err = c.request_text("bogus").unwrap_or_default();
        assert!(err.starts_with("err "), "{err}");

        // HTTP dialect: a raw GET on the same port, sniffed per-connection.
        let mut s = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => panic!("http connect: {e}"),
        };
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = s.write_all(b"GET /healthz HTTP/1.0\r\n\r\n");
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "{resp}");
        assert!(resp.ends_with("ok\n"), "{resp}");

        let report = handle.shutdown();
        assert_eq!(report.io_errors, 0);
    }

    #[test]
    fn killing_the_core_flips_readiness() {
        let handle = admin_server();
        let addr = match handle.admin_addr() {
            Some(a) => a.to_string(),
            None => panic!("admin plane must bind"),
        };
        let mut c = match AdminClient::connect(&addr, Duration::from_secs(5)) {
            Ok(c) => c,
            Err(e) => panic!("connect: {e}"),
        };
        assert_eq!(c.request_text("ready").unwrap_or_default(), "ready");
        handle.halt_core();
        let mut flipped = false;
        for _ in 0..100 {
            let r = c.request_text("ready").unwrap_or_default();
            if r == "unready core thread dead" {
                flipped = true;
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(flipped, "readiness must flip once the core thread dies");
        drop(c);
        let _ = handle.shutdown();
    }
}
