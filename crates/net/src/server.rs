//! `cvc-serve`'s engine: the paper's notifier behind real TCP.
//!
//! ## Architecture
//!
//! ```text
//!   clients ══TCP══►  cvc-core: one epoll loop owning the listener,
//!                     every Conn, the Notifier and its WAL
//!
//!   per readable connection:  read → decode → validate + integrate
//!                             → WAL append → per-destination queues
//!                               (the origin's ServerAck first)
//!   per destination queue:    compound_max payloads → write now
//!   end of each epoll batch:  every other queue → one compound frame
//! ```
//!
//! The notifier is the star's one serialization point: it puts every op
//! into a single total order, so it lives on one thread by nature. The
//! sockets live on that same thread, so an op crosses no thread hand-off
//! between its read and the writes of its ack and broadcasts. Scale-out
//! past one notifier is sharding (the federation relay tier), not more
//! threads here.
//!
//! Writes never block the loop. A destination queue goes to its socket
//! as soon as it holds a full compound frame; everything else goes out
//! at the end of the `epoll_wait` batch, so fan-out still coalesces
//! across connections. Bytes the kernel does not take arm EPOLLOUT, and a
//! peer that lets its unsent bytes pass the connection's cap is shed
//! (slow-consumer eviction).
//!
//! TCP supplies the reliable-FIFO channel the paper assumes, so the sim's
//! go-back-N layer stays home; what crosses over is the framing
//! discipline (fnv1a32-checksummed frames, compound coalescing on the
//! write path) and the sim's integration order: validate, then append
//! to the WAL, then send. A rejected op never reaches the log.
//!
//! A connection binds to its site with a hello frame: a `ClientAck`
//! carrying the site id and the client's ack frontier (`received: 0` for
//! a fresh client; a reconnecting site resumes with its real count, which
//! is validated and applied like any other ack). Every later frame must
//! agree with that binding; disagreement, protocol violations, or
//! unparseable framing evict the connection (and quarantine the site for
//! protocol violations, mirroring the sim's hostile-site policy).
//!
//! Connections close synchronously on the loop, and a connection's
//! queued payloads live and die with its slab slot, so nothing addressed
//! to a closed connection can reach the stream that reuses its slot.

use crate::admin::{spawn_admin, AdminHandle, AdminShared, AliveGuard, RING_LOG_CAP};
use crate::conn::{Conn, ConnError};
use crate::frame::MAX_FRAME_BYTES;
use crate::poll::{Interest, PollEvent, Poller, Waker};
use cvc_core::site::{SiteId, NOTIFIER};
use cvc_reduce::msg::{compound_header, ClientAckMsg, ClientOpMsg, EditorMsg, Payload};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::recorder::NO_SITE;
use cvc_reduce::registry::MetricsRegistry;
use cvc_reduce::trace::dump_event_line;
use cvc_reduce::wal::{Wal, WalRecord};
use cvc_sim::wire::{WireDecode, WireEncode, WireError, WireSize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How a server instance is shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of client sites (the notifier's width); sites `1..=n`.
    pub n_clients: usize,
    /// WAL compaction cadence (records between checkpoint probes).
    pub wal_compact_every: u64,
    /// Acknowledge every integrated op to its origin (`ServerAck`) — what
    /// `cvc-load` measures RTT against.
    pub send_acks: bool,
    /// Record every accepted `ClientOpMsg` in arrival order, for the
    /// sim-twin differential oracle. Costs memory; off for soak runs.
    pub capture_integrations: bool,
    /// Most sub-messages one compound frame may carry on the write path.
    pub compound_max: usize,
    /// Where the admin plane listens (`None` disables it). Port 0 picks
    /// an ephemeral port, resolvable via [`ServerHandle::admin_addr`].
    pub admin_addr: Option<String>,
    /// Stream flight-recorder ring dumps on the admin port (`cvc-trace
    /// attach`). Requires `admin_addr`; costs one bounded text log.
    pub trace_rings: bool,
    /// Notifier flight-recorder ring capacity when `trace_rings` is on.
    pub trace_ring_capacity: usize,
    /// Ring-dump log retention in bytes (`cvc-serve --trace-log-mb`).
    /// Dump volume is O(ops × clients) deliver lines plus O(ops × |HB|)
    /// transform lines, so large sessions need more than the default
    /// for an attached tailer to see every line.
    pub ring_log_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            n_clients: 16,
            wal_compact_every: 4096,
            send_acks: true,
            capture_integrations: false,
            compound_max: 32,
            admin_addr: None,
            trace_rings: false,
            // Sized for one burst read at transform-heavy fan-out; the
            // mid-read drain every 32 messages empties it, so this bounds
            // the loss inside one drain window, not total load.
            trace_ring_capacity: 1 << 18,
            ring_log_cap: RING_LOG_CAP,
        }
    }
}

/// Counters shared with the admin plane.
#[derive(Debug, Default)]
pub(crate) struct IoStats {
    /// Abnormal serving-thread exits (the loop's or the admin plane's
    /// poller failing). Nonzero means the server is silently degraded.
    pub(crate) io_errors: AtomicU64,
}

/// Everything the server learned, returned at shutdown.
#[derive(Debug, Default)]
pub struct ServerReport {
    /// The notifier's final document.
    pub doc: String,
    /// FNV checksum of the final document.
    pub doc_checksum: u64,
    /// Client operations integrated.
    pub ops_integrated: u64,
    /// Protocol violations rejected (notifier counter).
    pub protocol_errors: u64,
    /// Connections whose byte stream failed framing or decode.
    pub frame_errors: u64,
    /// Serving threads whose poller failed. Nonzero distinguishes a
    /// wedged server from an idle one.
    pub io_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Frames read off sockets.
    pub frames_in: u64,
    /// Frames decoded into editor messages (a compound counts once).
    pub msgs_in: u64,
    /// Frames written to sockets.
    pub frames_out: u64,
    /// Editor messages those frames carried.
    pub msgs_out: u64,
    /// Frames that coalesced more than one message.
    pub compound_frames_out: u64,
    /// Mean messages per written frame, `None` when nothing was written
    /// (a zero-op run must report null, not NaN).
    pub msgs_per_frame: Option<f64>,
    /// Connections still open at shutdown.
    pub active_connections: u64,
    /// Connections shed for protocol violations or backpressure.
    pub evicted: u64,
    /// Peak payloads waiting in destination queues between flushes (one
    /// entry: the loop is the only writer).
    pub outbox_high_water: Vec<u64>,
    /// Broadcasts dropped because the destination had no live connection.
    pub dropped_broadcasts: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL write amplification (bytes appended / op payload bytes).
    pub wal_amplification: f64,
    /// Final WAL byte image (recover with `Wal::recover`).
    pub wal_bytes: Vec<u8>,
    /// Peak history-buffer length at the notifier.
    pub hb_high_water: u64,
    /// Accepted client ops in integration order (when capture was on).
    pub integration_log: Vec<ClientOpMsg>,
}

/// Most broadcasts parked for a not-yet-connected site before the rest
/// overflow (counted as drops). A late joiner past this window needs a
/// snapshot sync, not a replay.
const MAX_PARKED_PER_SITE: usize = 1 << 16;

/// Poller tokens: the stop waker, the listener, then slab slot `i` as
/// `FIRST_SLOT + i`.
const WAKER: u64 = 0;
const LISTENER: u64 = 1;
const FIRST_SLOT: u64 = 2;

/// Publish cadence for the admin plane (registry delta + ring lines):
/// the loop's `epoll_wait` timeout when an admin plane is configured.
const PUBLISH_INTERVAL: Duration = Duration::from_millis(100);

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned mutex means a peer thread died mid-update; the data is
    // plain queues, safe to keep draining during teardown.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running server instance.
pub struct EditorServer;

/// Handle to a spawned server: the bound address plus the shutdown path.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    core_thread: Option<thread::JoinHandle<ServerReport>>,
    admin: Option<AdminHandle>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin plane's bound address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.addr)
    }

    /// Test hook: stop the serving loop alone, leaving the admin plane
    /// up — the readiness probe must flip to unready. A full
    /// [`ServerHandle::shutdown`] still joins cleanly afterwards.
    pub fn halt_core(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Stop the loop and return the final report.
    pub fn shutdown(mut self) -> ServerReport {
        self.halt_core();
        let report = self.core_thread.take().map(|t| t.join());
        // Stop the admin plane only after the loop published its final
        // registry delta and eof-marked the ring log; the admin thread
        // lingers briefly so attached tailers can pull that last chunk.
        if let Some(a) = self.admin.take() {
            a.stop.store(true, Ordering::SeqCst);
            a.waker.wake();
            let _ = a.thread.join();
        }
        // The loop never panics by construction; an empty report here
        // means it was killed externally.
        match report {
            Some(Ok(r)) => r,
            _ => ServerReport::default(),
        }
    }
}

impl EditorServer {
    /// Bind, spawn the serving loop (and the admin plane), and return a
    /// handle.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.register(waker.fd(), WAKER, Interest::READ)?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(IoStats::default());

        // The admin plane binds before the loop spawns: a bad
        // --admin-addr fails the whole spawn instead of degrading silently.
        let admin_shared = cfg
            .admin_addr
            .as_ref()
            .map(|_| Arc::new(AdminShared::new(cfg.ring_log_cap)));
        let admin = match (&cfg.admin_addr, &admin_shared) {
            (Some(addr), Some(shared)) => {
                Some(spawn_admin(addr, Arc::clone(shared), Arc::clone(&stats))?)
            }
            _ => None,
        };

        let core_thread = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            thread::Builder::new()
                .name("cvc-core".to_string())
                .spawn(move || {
                    let _alive = admin_shared
                        .as_ref()
                        .map(|s| AliveGuard::new(Arc::clone(s)));
                    // The notifier and WAL are built here, on the thread
                    // that integrates: every allocation they make comes
                    // from this thread's arena.
                    Core::new(cfg, poller, listener, stats, admin_shared).run(&stop, &waker)
                })?
        };

        Ok(ServerHandle {
            addr,
            stop,
            waker,
            core_thread: Some(core_thread),
            admin,
        })
    }
}

/// Decode one reassembled payload into exactly one editor message.
fn decode_payload(p: &[u8]) -> Result<EditorMsg, WireError> {
    let mut slice = p;
    let m = EditorMsg::decode(&mut slice)?;
    if let Some(&junk) = slice.first() {
        // Trailing bytes after a complete message: the frame length lied
        // about the message — a desync or an attack.
        return Err(WireError::BadTag(junk));
    }
    Ok(m)
}

/// Payload wire size (both chunks), for the parked-bytes gauge.
fn payload_len(p: &Payload) -> u64 {
    let [head, body] = p.chunks();
    (head.len() + body.len()) as u64
}

/// Socket-side counters, owned by the loop.
#[derive(Debug, Default)]
struct NetCounters {
    accepted: u64,
    frames_in: u64,
    msgs_in: u64,
    frames_out: u64,
    msgs_out: u64,
    compound_frames_out: u64,
    frame_errors: u64,
    closed: u64,
    evicted: u64,
    /// Payloads waiting in destination queues right now / at peak.
    queued: u64,
    queued_high_water: u64,
    /// Peak unsent bytes left on any one connection after a write.
    pending_out_high_water: u64,
}

/// Frame `queue` onto `conn` in groups of at most `max` payloads whose
/// bytes fit one frame: a lone payload as a plain frame, a larger group
/// as one compound frame (one header and checksum over the group — the
/// §14 freight saving, applied at the socket boundary). The byte bound
/// matters for large inserts: a reader rejects any frame past
/// [`MAX_FRAME_BYTES`] as hostile.
fn frame_queue(
    conn: &mut Conn,
    queue: &[Payload],
    max: usize,
    net: &mut NetCounters,
) -> Result<(), ConnError> {
    // Room for the compound tag and its count varint.
    const HEADER_ROOM: u64 = 11;
    let mut rest = queue;
    while !rest.is_empty() {
        let mut take = 1;
        let mut bytes = HEADER_ROOM + payload_len(&rest[0]);
        while take < rest.len().min(max) {
            bytes += payload_len(&rest[take]);
            if bytes > MAX_FRAME_BYTES {
                break;
            }
            take += 1;
        }
        let (group, tail) = rest.split_at(take);
        rest = tail;
        net.frames_out += 1;
        net.msgs_out += group.len() as u64;
        if let [one] = group {
            let [head, body] = one.chunks();
            conn.queue_frame(&[head, body])?;
        } else {
            let header = compound_header(group.len());
            let mut chunks: Vec<&[u8]> = Vec::with_capacity(1 + group.len() * 2);
            chunks.push(&header);
            for p in group {
                chunks.extend(p.chunks());
            }
            net.compound_frames_out += 1;
            conn.queue_frame(&chunks)?;
        }
    }
    Ok(())
}

/// One accepted connection and what the loop knows about it.
struct Slot {
    conn: Conn,
    /// The site its hello bound it to.
    site: Option<SiteId>,
    /// Payloads not yet framed onto `conn`.
    queue: Vec<Payload>,
    /// Registered for writability (unsent bytes remain).
    write_armed: bool,
}

/// The serving loop's state: the editor brain (`Notifier` + WAL) and
/// every socket it talks through.
struct Core {
    cfg: ServerConfig,
    poller: Poller,
    listener: TcpListener,
    notifier: Notifier,
    wal: Wal,
    /// Connection slab; slot `i` is polled under token `FIRST_SLOT + i`.
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Client index → the slot its site is bound to.
    routes: Vec<Option<usize>>,
    /// Slots whose queue gained payloads since the last flush.
    dirty: Vec<usize>,
    /// Reusable read buffer for reassembled frame payloads.
    payloads: Vec<Vec<u8>>,
    /// Broadcasts for sites that have not bound (yet): the notifier
    /// integrates as soon as any client speaks, but a destination's
    /// connection may still be in the accept queue. Its stream must start
    /// at op 1 regardless, so payloads park here and flush, in order, the
    /// moment the hello lands.
    parked: Vec<VecDeque<Payload>>,
    /// Bytes currently parked for not-yet-connected sites.
    parked_bytes: u64,
    dropped_broadcasts: u64,
    integration_log: Vec<ClientOpMsg>,
    ops_integrated: u64,
    net: NetCounters,
    stats: Arc<IoStats>,
    /// The observability plane, when configured. The loop only ever
    /// *pushes* here on its publish cadence; scrapes read the copies.
    admin: Option<Arc<AdminShared>>,
    /// Microsecond clock for recorder timestamps (elapsed since spawn).
    now_us: u64,
    /// The live registry image `publish` diffs against the admin plane.
    live: MetricsRegistry,
    /// Next unread notifier flight-recorder sequence.
    recorder_cursor: u64,
    /// Editor messages handled since the last ring drain.
    since_drain: usize,
    /// Synthesized client-side dump lines (Generate/Send at integration,
    /// Execute from ack-frontier advancement) pending the next publish.
    synth: String,
    /// Per-client synthesized-event sequence numbers.
    synth_seq: Vec<u64>,
    /// Per-client acked stream position already emitted as synthetic
    /// Execute lines; the live frontier is the notifier's `acked_by`.
    ack_published: Vec<u64>,
}

impl Core {
    fn new(
        cfg: ServerConfig,
        poller: Poller,
        listener: TcpListener,
        stats: Arc<IoStats>,
        admin: Option<Arc<AdminShared>>,
    ) -> Core {
        let n = cfg.n_clients;
        let mut notifier = Notifier::new(n, "");
        notifier.set_send_acks(cfg.send_acks);
        if cfg.trace_rings && admin.is_some() {
            notifier.set_flight_recorder_capacity(cfg.trace_ring_capacity.max(1024));
            notifier.set_flight_recorder(true);
        }
        Core {
            wal: Wal::new(cfg.wal_compact_every.max(1)),
            cfg,
            poller,
            listener,
            notifier,
            slots: Vec::new(),
            free: Vec::new(),
            routes: vec![None; n],
            dirty: Vec::new(),
            payloads: Vec::new(),
            parked: vec![VecDeque::new(); n],
            parked_bytes: 0,
            dropped_broadcasts: 0,
            integration_log: Vec::new(),
            ops_integrated: 0,
            net: NetCounters::default(),
            stats,
            admin,
            now_us: 0,
            live: MetricsRegistry::new(),
            recorder_cursor: 0,
            since_drain: 0,
            synth: String::new(),
            synth_seq: vec![0; n],
            ack_published: vec![0; n],
        }
    }

    /// Serve until `stop`, then produce the report.
    fn run(mut self, stop: &AtomicBool, waker: &Waker) -> ServerReport {
        let started = Instant::now();
        let mut events: Vec<PollEvent> = Vec::new();
        let mut next_publish = started + PUBLISH_INTERVAL;
        while !stop.load(Ordering::SeqCst) {
            // With an admin plane the wait carries a deadline so the
            // publish cadence holds even while the editor port is idle.
            let timeout = match self.admin {
                Some(_) => next_publish
                    .saturating_duration_since(Instant::now())
                    .as_millis()
                    .min(i32::MAX as u128) as i32,
                None => -1,
            };
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            self.now_us = started.elapsed().as_micros() as u64;
            self.notifier.set_now(self.now_us);
            let mut accept = false;
            for ev in &events {
                match ev.token {
                    WAKER => waker.drain(),
                    // Accepting after the batch keeps every slot a stale
                    // event of this batch names free of a new occupant.
                    LISTENER => accept = true,
                    t => self.on_event((t - FIRST_SLOT) as usize, ev),
                }
            }
            self.flush_dirty();
            if accept {
                self.accept();
            }
            // Ring drain is per batch, not per cadence: a concurrency
            // burst can outrun the recorder ring inside one publish
            // interval, and lines lost to overwrite are lost for good.
            if self.tracing() {
                self.drain_rings(false);
            }
            if self.admin.is_some() && Instant::now() >= next_publish {
                self.publish(false);
                next_publish = Instant::now() + PUBLISH_INTERVAL;
            }
        }
        // The final publish eof-marks the ring log so an attached tailer
        // knows the stream is complete.
        self.now_us = started.elapsed().as_micros() as u64;
        self.publish(true);
        self.report()
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.net.accepted += 1;
                    let Ok(conn) = Conn::new(stream) else {
                        continue;
                    };
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    let token = FIRST_SLOT + slot as u64;
                    if self
                        .poller
                        .register(conn.fd(), token, Interest::READ)
                        .is_ok()
                    {
                        self.slots[slot] = Some(Slot {
                            conn,
                            site: None,
                            queue: Vec::new(),
                            write_armed: false,
                        });
                    } else {
                        self.free.push(slot);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (ECONNABORTED,
                // EMFILE pressure): skip; the poller will re-arm.
                Err(_) => break,
            }
        }
    }

    fn slot_mut(&mut self, slot: usize) -> Option<&mut Slot> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    fn on_event(&mut self, slot: usize, ev: &PollEvent) {
        if ev.readable || ev.hangup {
            self.on_readable(slot);
        }
        if ev.writable {
            let flushed = match self.slot_mut(slot) {
                Some(s) => s.conn.flush(),
                None => return,
            };
            if let Err(e) = flushed.and_then(|()| self.rearm(slot)) {
                self.shed(slot, &e);
            }
        }
        if ev.hangup && !ev.readable {
            self.close(slot);
        }
    }

    /// Read what the socket holds and handle every complete frame in
    /// stream order.
    fn on_readable(&mut self, slot: usize) {
        let mut payloads = std::mem::take(&mut self.payloads);
        payloads.clear();
        let res = match self.slot_mut(slot) {
            Some(s) => s.conn.on_readable(&mut payloads),
            None => return,
        };
        self.net.frames_in += payloads.len() as u64;
        for p in &payloads {
            match decode_payload(p) {
                Ok(msg) => {
                    self.net.msgs_in += 1;
                    self.on_msg(slot, msg);
                    // Mid-read ring drain: transform recording is O(|HB|)
                    // per op, and one read can carry thousands of ops, so
                    // every 32 messages bounds recorder-ring growth far
                    // below its capacity.
                    self.since_drain += 1;
                    if self.since_drain >= 32 && self.tracing() {
                        self.drain_rings(false);
                    }
                }
                Err(_) => {
                    self.net.frame_errors += 1;
                    self.close(slot);
                }
            }
            if self.slot_mut(slot).is_none() {
                break;
            }
        }
        self.payloads = payloads;
        if let Err(e) = res {
            if self.slot_mut(slot).is_some() {
                if matches!(e, ConnError::Frame(_)) {
                    self.net.frame_errors += 1;
                }
                self.close(slot);
            }
        }
    }

    /// Handle one decoded message from the connection in `slot`.
    fn on_msg(&mut self, slot: usize, msg: EditorMsg) {
        match msg {
            EditorMsg::ClientAck(a) => self.on_client_ack(slot, a),
            EditorMsg::ClientOp(op) => self.on_client_op(slot, op),
            EditorMsg::Compound(ms) => {
                for m in ms {
                    // Nesting is impossible (the codec rejects it), so
                    // this recursion is depth-1.
                    self.on_msg(slot, m);
                    if self.slot_mut(slot).is_none() {
                        return;
                    }
                }
            }
            // Downstream-only and federation frame types arriving on a
            // client edge are hostile input: evict the connection.
            EditorMsg::ServerOp(_)
            | EditorMsg::ServerAck(_)
            | EditorMsg::MeshOp(_)
            | EditorMsg::RelayOp(_)
            | EditorMsg::RelayAck(_) => self.evict(slot),
        }
    }

    fn on_client_ack(&mut self, slot: usize, a: ClientAckMsg) {
        let Some(bound) = self.slot_mut(slot).map(|s| s.site) else {
            return;
        };
        if let Some(site) = bound {
            if site != a.origin {
                self.notifier.quarantine(a.origin);
                self.evict(slot);
                return;
            }
            // Validate before persisting: recovery replays WAL acks
            // through this same fallible path, so a rejected ack must
            // never land in the log.
            if self.notifier.try_on_client_ack(a).is_err() {
                self.notifier.quarantine(site);
                self.evict(slot);
                return;
            }
            self.wal.append(&WalRecord::Ack(a));
            return;
        }
        // Hello: bind the connection to its site.
        let idx = a.origin.client_index();
        let valid = !a.origin.is_notifier()
            && idx < self.cfg.n_clients
            && self.routes.get(idx).is_some_and(Option::is_none);
        if !valid {
            self.evict(slot);
            return;
        }
        // The hello's `received` is the client's real ack frontier — 0
        // for a fresh client, its stream position on a reconnect. Apply
        // it like any other ack so the notifier's history-buffer GC sees
        // the frontier; an overrun claim is hostile and refuses the bind.
        if self.notifier.try_on_client_ack(a).is_err() {
            self.notifier.quarantine(a.origin);
            self.evict(slot);
            return;
        }
        self.wal.append(&WalRecord::Ack(a));
        if let Some(s) = self.slot_mut(slot) {
            s.site = Some(a.origin);
        }
        self.routes[idx] = Some(slot);
        // Flush everything integrated while this site was still
        // connecting — its stream must begin at op 1.
        while self.slot_mut(slot).is_some() {
            let Some(payload) = self.parked[idx].pop_front() else {
                break;
            };
            self.parked_bytes = self.parked_bytes.saturating_sub(payload_len(&payload));
            self.enqueue(slot, payload);
        }
    }

    fn on_client_op(&mut self, slot: usize, op: ClientOpMsg) {
        let Some(site) = self.slot_mut(slot).and_then(|s| s.site) else {
            // An op before the hello: the peer skipped the handshake.
            self.evict(slot);
            return;
        };
        if site != op.origin {
            self.notifier.quarantine(op.origin);
            self.evict(slot);
            return;
        }
        let seq = op.stamp.get(2);
        // Validate, then log, then send — the sim's order. A rejected op
        // never reaches the WAL, and the record is durable before any
        // broadcast leaves.
        let outcome = match self.notifier.try_on_client_op_outcome(op.clone()) {
            Ok(outcome) => outcome,
            Err(_) => {
                // The notifier already counted the violation; hostile
                // sites are quarantined and their connection evicted,
                // the sim's policy verbatim.
                self.notifier.quarantine(site);
                self.evict(slot);
                return;
            }
        };
        self.ops_integrated += 1;
        if self.cfg.capture_integrations {
            self.integration_log.push(op.clone());
        }
        self.wal.append(&WalRecord::Op(op));
        if self.tracing() {
            // The server sees no client rings, but integration proves the
            // op was generated and sent; synthesize those lines so
            // attached tailers get full lifecycles. Timestamps collapse to
            // arrival time.
            self.synth_line(site, "generate", site.0, seq);
            self.synth_line(site, "send", site.0, seq);
        }
        // The origin's ack goes first: it is what the author waits on.
        if let Some((dest, ack)) = outcome.ack {
            let msg = EditorMsg::ServerAck(ack);
            let mut bytes = Vec::with_capacity(msg.wire_bytes());
            msg.encode(&mut bytes);
            self.send_to_site(dest, Payload::from_vec(bytes));
        }
        let frame = outcome.frame();
        for &(dest, stamp) in &outcome.stamps {
            self.send_to_site(dest, frame.payload_for(stamp));
        }
        self.wal.maybe_compact(&self.notifier);
    }

    fn send_to_site(&mut self, site: SiteId, payload: Payload) {
        let idx = site.client_index();
        match self.routes.get(idx).copied().flatten() {
            Some(slot) => self.enqueue(slot, payload),
            None => {
                let parked = &mut self.parked[idx];
                if parked.len() < MAX_PARKED_PER_SITE {
                    self.parked_bytes += payload_len(&payload);
                    parked.push_back(payload);
                } else {
                    self.dropped_broadcasts += 1;
                }
            }
        }
    }

    /// Queue one payload for the connection in `slot`; a queue that holds
    /// a full compound frame goes to the socket at once.
    fn enqueue(&mut self, slot: usize, payload: Payload) {
        let max = self.cfg.compound_max.max(1);
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if s.queue.is_empty() {
            self.dirty.push(slot);
        }
        s.queue.push(payload);
        let full = s.queue.len() >= max;
        self.net.queued += 1;
        self.net.queued_high_water = self.net.queued_high_water.max(self.net.queued);
        if full {
            if let Err(e) = self.write_queue(slot) {
                self.shed(slot, &e);
            }
        }
    }

    /// Frame the slot's queue onto its connection and push what the
    /// kernel takes; leftovers arm writability.
    fn write_queue(&mut self, slot: usize) -> Result<(), ConnError> {
        let max = self.cfg.compound_max.max(1);
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        if s.queue.is_empty() {
            return Ok(());
        }
        let res = frame_queue(&mut s.conn, &s.queue, max, &mut self.net);
        self.net.queued -= s.queue.len() as u64;
        s.queue.clear();
        res?;
        s.conn.flush()?;
        self.net.pending_out_high_water = self
            .net
            .pending_out_high_water
            .max(s.conn.pending_out() as u64);
        self.rearm(slot)
    }

    /// Match the slot's poller interest to whether it has unsent bytes.
    fn rearm(&mut self, slot: usize) -> Result<(), ConnError> {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        let want = s.conn.wants_write();
        if want != s.write_armed {
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            self.poller
                .modify(s.conn.fd(), FIRST_SLOT + slot as u64, interest)
                .map_err(ConnError::Io)?;
            s.write_armed = want;
        }
        Ok(())
    }

    /// Write every queue that gained payloads during this batch.
    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for &slot in &dirty {
            if let Err(e) = self.write_queue(slot) {
                self.shed(slot, &e);
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// Close a connection whose write side failed; a peer that stopped
    /// draining counts as evicted.
    fn shed(&mut self, slot: usize, e: &ConnError) {
        if matches!(e, ConnError::Backpressure(_)) {
            self.net.evicted += 1;
        }
        self.close(slot);
    }

    /// Evict a connection (protocol violation): best-effort write of what
    /// is already queued for it, then close.
    fn evict(&mut self, slot: usize) {
        if self.slot_mut(slot).is_none() {
            return;
        }
        self.net.evicted += 1;
        let _ = self.write_queue(slot);
        self.close(slot);
    }

    fn close(&mut self, slot: usize) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(s.conn.fd());
        self.net.queued -= s.queue.len() as u64;
        if let Some(site) = s.site {
            self.routes[site.client_index()] = None;
        }
        self.free.push(slot);
        self.net.closed += 1;
    }

    fn active_connections(&self) -> u64 {
        self.slots.iter().filter(|s| s.is_some()).count() as u64
    }

    /// True when ring streaming is active (admin plane + trace flag).
    fn tracing(&self) -> bool {
        self.cfg.trace_rings && self.admin.is_some()
    }

    /// Append one synthesized client-side dump line (same 14-field
    /// format as [`dump_event_line`]; unused fields zeroed).
    fn synth_line(&mut self, site: SiteId, kind: &str, op_site: u32, op_seq: u64) {
        let idx = site.client_index();
        let seq = self.synth_seq[idx];
        self.synth_seq[idx] += 1;
        let _ = writeln!(
            self.synth,
            "{} {seq} {} {kind} {op_site} {op_seq} 0 0 0 0 0 - - 0",
            site.0, self.now_us
        );
    }

    /// The publish hook: push fresh ring-dump lines and a registry delta
    /// into the admin plane. Runs on the loop between batches —
    /// integration never pauses for a scraper, and each mutex is held
    /// only for a bounded append/diff, never across I/O.
    fn publish(&mut self, eof: bool) {
        let Some(admin) = self.admin.clone() else {
            return;
        };
        self.drain_rings(eof);
        self.refresh_registry();
        lock(&admin.deltas).publish(&self.live);
    }

    /// Drain fresh recorder events (plus synthesized client-side lines)
    /// into the admin ring log; `eof` marks the log complete.
    fn drain_rings(&mut self, eof: bool) {
        self.since_drain = 0;
        let Some(admin) = self.admin.clone() else {
            return;
        };
        if self.tracing() {
            // Ack-frontier advancement is the client-side execution
            // evidence: a client acks position `p` only after executing
            // ops `1..=p` of its stream — bare acks and the implicit
            // `T[1]` carried by its own ops both land in `acked_by`.
            // `op_site = NO_SITE` + the stream position is exactly the
            // tailer's broadcast join key.
            let frontier = self.notifier.acked_by().to_vec();
            for (idx, &acked) in frontier.iter().take(self.cfg.n_clients).enumerate() {
                while self.ack_published[idx] < acked {
                    self.ack_published[idx] += 1;
                    let pos = self.ack_published[idx];
                    self.synth_line(SiteId(idx as u32 + 1), "execute", NO_SITE, pos);
                }
            }
            let (events, lost) = self.notifier.recorder().events_since(self.recorder_cursor);
            let mut text = std::mem::take(&mut self.synth);
            if lost > 0 {
                // Ring overwrite outran the drain cadence: surface the
                // gap the way a wrapped ring dump would, so downstream
                // assembly marks affected traces truncated instead of
                // silently reporting them incomplete.
                let _ = writeln!(
                    text,
                    "0 0 {} ring-truncated {NO_SITE} 0 0 0 {lost} 0 0 ring-wrapped - 0",
                    self.now_us
                );
            }
            for ev in &events {
                dump_event_line(&mut text, NOTIFIER, ev);
            }
            self.recorder_cursor += lost + events.len() as u64;
            let mut rings = lock(&admin.rings);
            rings.append(&text);
            if eof {
                rings.mark_eof();
            }
        } else if eof {
            lock(&admin.rings).mark_eof();
        }
    }

    /// Refresh the live registry image from the notifier, the socket
    /// counters, the WAL, and the loop's own gauges.
    fn refresh_registry(&mut self) {
        let counters = self.notifier.metrics().counter_fields();
        let high_waters = self.notifier.metrics().high_water_fields();
        let active = self.active_connections();
        let live = &mut self.live;
        for (field, v) in counters {
            // Absolute set, not add: the source is already cumulative.
            live.set_counter(&format!("notifier.{field}"), v);
        }
        for (field, v) in high_waters {
            live.set_gauge(&format!("notifier.{field}"), v as f64);
        }
        let n = &self.net;
        live.set_counter("net.accepted", n.accepted);
        live.set_counter("net.frames_in", n.frames_in);
        live.set_counter("net.msgs_in", n.msgs_in);
        live.set_counter("net.frames_out", n.frames_out);
        live.set_counter("net.msgs_out", n.msgs_out);
        live.set_counter("net.compound_frames_out", n.compound_frames_out);
        live.set_counter("net.frame_errors", n.frame_errors);
        live.set_counter("net.closed", n.closed);
        live.set_counter("net.evicted", n.evicted);
        live.set_counter(
            "net.io_errors",
            self.stats.io_errors.load(Ordering::Relaxed),
        );
        live.set_gauge("net.active_connections", active as f64);
        live.set_gauge("net.outbox_high_water", n.queued_high_water as f64);
        live.set_gauge(
            "net.pending_out_high_water",
            n.pending_out_high_water as f64,
        );
        live.set_counter("core.ops_integrated", self.ops_integrated);
        live.set_counter("core.dropped_broadcasts", self.dropped_broadcasts);
        live.set_gauge("core.parked_bytes", self.parked_bytes as f64);
        live.set_counter("wal.appends", self.wal.appends());
        live.set_counter("wal.bytes_appended", self.wal.bytes_appended());
        live.set_counter("wal.compactions", self.wal.compactions());
        live.set_gauge("wal.live_bytes", self.wal.live_bytes() as f64);
        live.set_gauge("wal.amplification", self.wal.amplification());
        live.set_gauge("net.uptime_us", self.now_us as f64);
    }

    fn report(self) -> ServerReport {
        let active_connections = self.active_connections();
        let n = &self.net;
        let m = self.notifier.metrics();
        ServerReport {
            doc: self.notifier.doc(),
            doc_checksum: self.notifier.doc_checksum(),
            ops_integrated: self.ops_integrated,
            protocol_errors: m.protocol_errors,
            frame_errors: n.frame_errors,
            io_errors: self.stats.io_errors.load(Ordering::Relaxed),
            accepted: n.accepted,
            frames_in: n.frames_in,
            msgs_in: n.msgs_in,
            frames_out: n.frames_out,
            msgs_out: n.msgs_out,
            compound_frames_out: n.compound_frames_out,
            // Guarded ratio: a zero-op run has no frames, and NaN must
            // never reach a JSON report.
            msgs_per_frame: (n.frames_out > 0).then(|| n.msgs_out as f64 / n.frames_out as f64),
            active_connections,
            evicted: n.evicted,
            outbox_high_water: vec![n.queued_high_water],
            dropped_broadcasts: self.dropped_broadcasts,
            wal_appends: self.wal.appends(),
            wal_amplification: self.wal.amplification(),
            wal_bytes: self.wal.bytes().to_vec(),
            hb_high_water: m.hb_high_water,
            integration_log: self.integration_log,
        }
    }
}
