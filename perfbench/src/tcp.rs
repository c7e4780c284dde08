//! The two TCP workloads: an in-process `EditorServer` (default config,
//! two sites) driven over loopback by the benchmark's own one-thread load
//! generator built from `cvc_net::{Conn, Poller}` and `Client`.
//!
//! * `tcp2-paced` — open loop at [`PACED_RATE`] ops/s, op `k` authored by
//!   client `k mod 2`, each a 1-char insert. Latency runs from the op's due
//!   instant, and a `timerfd` wakes the generator at that instant.
//! * `tcp2-rounds` — closed loop in rounds: each client authors
//!   [`ROUND_W`] ops back to back before reading, so every op is concurrent
//!   with the peer's `ROUND_W` and the notifier transforms `ROUND_W / 2`
//!   times per op.
//!
//! A run is a sequence of fixed-size sessions (spawn, connect, hello, edit,
//! converge, shut down), so per-op costs and memory do not depend on how
//! many ops a run's seconds happen to fit.

use crate::clock::{now_ns, thread_cpu_ns, Timer};
use crate::procfs::{self, TaskSample};
use crate::trace::{aggregate, coverage, traces_by_op, OpId, Span, Tracer, NO_SPAN};
use crate::util::{median, ratio, Hist, Rng};
use crate::PassOut;
use cvc_core::site::SiteId;
use cvc_net::{
    replay_twin, Conn, EditorServer, Interest, PollEvent, Poller, ServerConfig, ServerHandle,
    ServerReport,
};
use cvc_reduce::client::Client;
use cvc_reduce::msg::{ClientAckMsg, EditorMsg};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::{Wal, WalRecord};
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};
use std::collections::VecDeque;
use std::net::TcpStream;

/// Offered load of `tcp2-paced`, ops/s over both clients.
pub const PACED_RATE: u64 = 500;
/// Ops per `tcp2-paced` session (1 s at the paced rate).
const PACED_SESSION_OPS: u64 = 500;
/// Ops each client authors per round of `tcp2-rounds`.
pub const ROUND_W: u64 = 64;
const ROUNDS_PER_SESSION: u64 = 40;
/// Extra spawn–connect–hello cycles per run, so `setup_s` is a median.
const SETUP_ONLY_REPS: usize = 25;
/// A session that has not converged by then has failed.
const SESSION_DEADLINE_NS: u64 = 60_000_000_000;
const TIMER_TOKEN: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Paced,
    Rounds,
}

struct Peer {
    site: SiteId,
    client: Client,
    conn: Conn,
    rw: bool,
    sent: u64,
    acked: u64,
    /// Due instants of this client's unacked ops.
    ack_due: VecDeque<u64>,
    /// Due instants of this client's ops the other client has not executed.
    vis_due: VecDeque<u64>,
    error: Option<String>,
}

/// Latency and pacing samples, nanoseconds.
#[derive(Default)]
struct Samples {
    ack: Hist,
    vis: Hist,
    late: Hist,
    /// Messages queued on a connection and leaf messages decoded.
    msgs_written: u64,
    msgs_decoded: u64,
}

struct Gen<'a> {
    poller: Poller,
    timer: Timer,
    peers: Vec<Peer>,
    tr: &'a mut Tracer,
    smp: &'a mut Samples,
    rng: Rng,
    events: Vec<PollEvent>,
    payloads: Vec<Vec<u8>>,
}

fn token(p: usize) -> u64 {
    p as u64 + 1
}

impl Gen<'_> {
    fn fail(&mut self, p: usize, why: String) {
        if self.peers[p].error.is_none() {
            self.peers[p].error = Some(why);
        }
    }

    /// Encode `msg` and queue it as one frame (flushed by [`Gen::flush`]).
    fn send(&mut self, p: usize, msg: &EditorMsg, op: Option<OpId>) {
        let s = self.tr.enter("msg.encode", op);
        let mut bytes = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut bytes);
        self.tr.exit(s);
        let s = self.tr.enter("conn.queue", op);
        let res = self.peers[p].conn.queue_frame(&[&bytes]);
        self.tr.exit(s);
        self.smp.msgs_written += 1;
        if let Err(e) = res {
            self.fail(p, format!("queue_frame: {e}"));
        }
    }

    fn flush(&mut self, p: usize) {
        let s = self.tr.enter("conn.flush", None);
        let res = self.peers[p].conn.flush();
        self.tr.exit(s);
        if let Err(e) = res {
            return self.fail(p, format!("flush: {e}"));
        }
        let want = self.peers[p].conn.wants_write();
        if want != self.peers[p].rw {
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            match self
                .poller
                .modify(self.peers[p].conn.fd(), token(p), interest)
            {
                Ok(()) => self.peers[p].rw = want,
                Err(e) => self.fail(p, format!("epoll modify: {e}")),
            }
        }
    }

    /// Author one op at client `p`: a 1-char insert, or (with
    /// `delete_share` in percent) a delete of 1–3 chars.
    fn issue(&mut self, p: usize, due: u64, delete_share: u64) {
        let id = OpId {
            site: self.peers[p].site.0,
            seq: self.peers[p].sent + 1,
        };
        let root = self.tr.enter("gen.issue", Some(id));
        let len = self.peers[p].client.doc_len() as u64;
        let count = 1 + self.rng.below(3);
        let delete = self.rng.below(100) < delete_share && len >= count;
        let pos = self.rng.below(len + 1 - if delete { count } else { 0 }) as usize;
        let ch = self.rng.letter();
        let g = self.tr.enter("client.generate", Some(id));
        let msg = if delete {
            self.peers[p].client.delete(pos, count as usize)
        } else {
            self.peers[p]
                .client
                .insert(pos, ch.encode_utf8(&mut [0; 4]))
        };
        self.tr.exit(g);
        self.send(p, &EditorMsg::ClientOp(msg), Some(id));
        let peer = &mut self.peers[p];
        peer.ack_due.push_back(due);
        peer.vis_due.push_back(due);
        peer.sent += 1;
        self.tr.exit(root);
    }

    fn handle(&mut self, p: usize, msg: EditorMsg, arrived: u64) {
        match msg {
            EditorMsg::ServerAck(a) => {
                while self.peers[p].acked < a.acked {
                    match self.peers[p].ack_due.pop_front() {
                        Some(due) => self.smp.ack.record(arrived.saturating_sub(due)),
                        None => return self.fail(p, format!("ack {} past ops sent", a.acked)),
                    }
                    self.peers[p].acked += 1;
                }
            }
            EditorMsg::ServerOp(m) => {
                // With two sites, a client's j-th server op is the other
                // client's j-th op.
                let other = 1 - p;
                let id = OpId {
                    site: self.peers[other].site.0,
                    seq: self.peers[p].client.state_vector().received() + 1,
                };
                let s = self.tr.enter("client.execute", Some(id));
                let res = self.peers[p].client.try_on_server_op(m);
                self.tr.exit(s);
                let done = now_ns();
                if let Err(e) = res {
                    return self.fail(p, format!("server op rejected: {e}"));
                }
                match self.peers[other].vis_due.pop_front() {
                    Some(due) => self.smp.vis.record(done.saturating_sub(due)),
                    None => return self.fail(p, "server op never authored".to_string()),
                }
                let s = self.tr.enter("client.take_ack", None);
                let ack = self.peers[p].client.take_pending_ack();
                self.tr.exit(s);
                if let Some(ack) = ack {
                    self.send(p, &EditorMsg::ClientAck(ack), None);
                }
            }
            EditorMsg::Compound(ms) => {
                for m in ms {
                    self.handle(p, m, arrived);
                }
            }
            other => self.fail(p, format!("unexpected downstream message {other:?}")),
        }
    }

    fn on_readable(&mut self, p: usize) {
        let root = self.tr.enter("gen.read", None);
        let s = self.tr.enter("conn.read", None);
        self.payloads.clear();
        let res = self.peers[p].conn.on_readable(&mut self.payloads);
        self.tr.exit(s);
        let arrived = now_ns();
        let payloads = std::mem::take(&mut self.payloads);
        for bytes in &payloads {
            let s = self.tr.enter("msg.decode", None);
            let mut slice: &[u8] = bytes;
            let msg = EditorMsg::decode(&mut slice);
            self.tr.exit(s);
            match msg {
                Ok(m) => {
                    self.smp.msgs_decoded += match &m {
                        EditorMsg::Compound(ms) => ms.len() as u64,
                        _ => 1,
                    };
                    self.handle(p, m, arrived);
                }
                Err(e) => self.fail(p, format!("decode: {e:?}")),
            }
        }
        self.payloads = payloads;
        if let Err(e) = res {
            self.fail(p, format!("read: {e}"));
        }
        if self.peers[p].error.is_none() {
            self.flush(p);
        }
        self.tr.exit(root);
    }

    fn wait(&mut self, timeout_ms: i32) {
        let s = self.tr.enter("poll.wait", None);
        self.events.clear();
        let res = self.poller.wait(&mut self.events, timeout_ms);
        self.tr.exit(s);
        if let Err(e) = res {
            return self.fail(0, format!("epoll_wait: {e}"));
        }
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            if ev.token == TIMER_TOKEN {
                self.timer.drain();
                continue;
            }
            let p = (ev.token - 1) as usize;
            if ev.readable || ev.hangup {
                self.on_readable(p);
            } else if ev.writable {
                self.flush(p);
            }
        }
        self.events = events;
    }

    fn failed(&self) -> bool {
        self.peers.iter().any(|p| p.error.is_some())
    }

    /// Both replicas hold every op sent so far, acked and executed.
    fn converged(&self) -> bool {
        let (a, b) = (&self.peers[0], &self.peers[1]);
        a.acked == a.sent
            && b.acked == b.sent
            && a.client.state_vector().received() == b.sent
            && b.client.state_vector().received() == a.sent
    }

    fn converge(&mut self, deadline: u64) {
        while !self.failed() && !self.converged() {
            if now_ns() > deadline {
                return self.fail(
                    0,
                    "session did not converge before its deadline".to_string(),
                );
            }
            self.wait(1000);
        }
    }
}

/// Spawn the server, connect both clients and send their hellos.
fn setup(traced: bool) -> std::io::Result<(ServerHandle, Vec<u32>, Vec<Peer>, u64)> {
    let t = now_ns();
    let before = procfs::task_ids();
    let handle = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        capture_integrations: traced,
        ..ServerConfig::default()
    })?;
    let tids: Vec<u32> = procfs::task_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    let mut peers = Vec::with_capacity(2);
    for c in 0..2 {
        let site = SiteId::from_client_index(c);
        let conn = TcpStream::connect(handle.addr())
            .and_then(Conn::new)
            .and_then(|mut conn| {
                let hello = EditorMsg::ClientAck(ClientAckMsg {
                    origin: site,
                    received: 0,
                });
                let mut bytes = Vec::with_capacity(hello.wire_bytes());
                hello.encode(&mut bytes);
                conn.queue_frame(&[&bytes])
                    .and_then(|()| conn.flush())
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                Ok(conn)
            });
        let conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                drop(peers);
                handle.shutdown();
                return Err(e);
            }
        };
        peers.push(Peer {
            site,
            client: Client::new(site, ""),
            conn,
            rw: false,
            sent: 0,
            acked: 0,
            ack_due: VecDeque::new(),
            vis_due: VecDeque::new(),
            error: None,
        });
    }
    Ok((handle, tids, peers, now_ns() - t))
}

/// What one session measured.
#[derive(Default)]
struct Session {
    ops: u64,
    wall_ns: u64,
    gen_cpu_ns: u64,
    core: TaskSample,
    workers: TaskSample,
    accept: TaskSample,
    checks: u64,
    transforms: u64,
    execs: u64,
    hb_len: u64,
    gen_covered_ns: f64,
    replay: Option<Replay>,
}

/// The traced session's offline replay of the server's integration log.
struct Replay {
    wall_ns: u64,
    covered_ns: f64,
    work_ns: u64,
    transforms: u64,
    scan: u64,
    compactions: u64,
}

/// Replay `report`'s integration log through a fresh `Notifier` + `Wal`
/// configured as the server's core thread configures them, with spans
/// around each call.
fn replay(report: &ServerReport, tr: &mut Tracer) -> Result<Replay, String> {
    let cfg = ServerConfig::default();
    let mut notifier = Notifier::new(2, "");
    notifier.set_send_acks(cfg.send_acks);
    let mut wal = Wal::new(cfg.wal_compact_every.max(1));
    let first = tr.spans().len();
    let from = now_ns();
    for op in &report.integration_log {
        let id = Some(OpId {
            site: op.origin.0,
            seq: op.stamp.get(2),
        });
        let root = tr.enter("replay.op", id);
        let s = tr.enter("wal.append", id);
        wal.append(&WalRecord::Op(op.clone()));
        tr.exit(s);
        let s = tr.enter("notifier.integrate", id);
        let out = notifier.try_on_client_op_outcome(op.clone());
        tr.exit(s);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                tr.exit(root);
                return Err(format!("replay rejected an op the server accepted: {e}"));
            }
        };
        let s = tr.enter("notifier.fanout", id);
        let frame = out.frame();
        for &(_, stamp) in &out.stamps {
            std::hint::black_box(frame.payload_for(stamp));
        }
        if let Some((_, ack)) = &out.ack {
            let msg = EditorMsg::ServerAck(*ack);
            let mut bytes = Vec::with_capacity(msg.wire_bytes());
            msg.encode(&mut bytes);
            std::hint::black_box(bytes);
        }
        // The outcome's teardown is fan-out work too.
        drop((frame, out));
        tr.exit(s);
        let s = tr.enter("wal.compact", id);
        wal.maybe_compact(&notifier);
        tr.exit(s);
        tr.exit(root);
    }
    let to = now_ns();
    let spans = &tr.spans()[first..];
    let work_ns = spans
        .iter()
        .filter(|s| s.parent != NO_SPAN)
        .map(|s| s.end - s.start)
        .sum();
    let m = notifier.metrics();
    Ok(Replay {
        wall_ns: to - from,
        covered_ns: coverage(spans, from, to, |_| true) * (to - from) as f64,
        work_ns,
        transforms: m.transforms,
        scan: m.scan_len_total,
        compactions: wal.compactions(),
    })
}

/// What the server's report said about one session.
struct Live {
    frames_in: u64,
    frames_out: u64,
    msgs_out: u64,
    outbox_hw: u64,
    wal_appends: u64,
    wal_amp: f64,
    wal_live: u64,
    hb_high_water: u64,
}

/// Run one session. Returns its measurements with the checks it failed,
/// or why it could not run at all.
fn session(
    mode: Mode,
    traced: bool,
    rng: Rng,
    tr: &mut Tracer,
    smp: &mut Samples,
    setups: &mut Vec<u64>,
) -> Result<(Session, Live, Vec<String>), String> {
    let poller = Poller::new().map_err(|e| e.to_string())?;
    let timer = Timer::new().map_err(|e| e.to_string())?;
    poller
        .register(timer.fd(), TIMER_TOKEN, Interest::READ)
        .map_err(|e| e.to_string())?;
    let (handle, tids, peers, setup_ns) = setup(traced).map_err(|e| format!("setup: {e}"))?;
    setups.push(setup_ns);
    let registered = peers
        .iter()
        .enumerate()
        .try_for_each(|(p, peer)| poller.register(peer.conn.fd(), token(p), Interest::READ));
    if let Err(e) = registered {
        drop(peers);
        handle.shutdown();
        return Err(format!("epoll register: {e}"));
    }
    let mut g = Gen {
        poller,
        timer,
        peers,
        tr: &mut *tr,
        smp: &mut *smp,
        rng,
        events: Vec::new(),
        payloads: Vec::new(),
    };

    let first_span = g.tr.spans().len();
    let tasks0 = procfs::sample_tasks(&tids);
    let cpu0 = thread_cpu_ns();
    let t0 = now_ns();
    let deadline = t0 + SESSION_DEADLINE_NS;
    match mode {
        Mode::Paced => {
            let period = 1_000_000_000 / PACED_RATE;
            let start = t0 + 1_000_000;
            let due = |k: u64| start + k * period;
            let mut k = 0;
            while !g.failed() && k < PACED_SESSION_OPS {
                while k < PACED_SESSION_OPS && due(k) <= now_ns() {
                    let p = (k % 2) as usize;
                    g.smp.late.record(now_ns() - due(k));
                    g.issue(p, due(k), 0);
                    g.flush(p);
                    k += 1;
                }
                if k < PACED_SESSION_OPS {
                    if let Err(e) = g.timer.arm_at(due(k)) {
                        g.fail(0, format!("timerfd: {e}"));
                    }
                    if now_ns() > deadline {
                        g.fail(0, "paced schedule overran its deadline".to_string());
                    }
                    g.wait(1000);
                }
            }
            g.converge(deadline);
        }
        Mode::Rounds => {
            for _ in 0..ROUNDS_PER_SESSION {
                for p in 0..2 {
                    for _ in 0..ROUND_W {
                        g.issue(p, now_ns(), 30);
                    }
                    g.flush(p);
                }
                g.converge(deadline);
                if g.failed() {
                    break;
                }
            }
        }
    }
    let t1 = now_ns();
    let cpu1 = thread_cpu_ns();
    let tasks1 = procfs::sample_tasks(&tids);

    let mut s = Session {
        ops: g.peers.iter().map(|p| p.sent).sum(),
        wall_ns: t1 - t0,
        gen_cpu_ns: cpu1 - cpu0,
        ..Session::default()
    };
    for (tid, end) in &tasks1 {
        let Some(start) = tasks0.get(tid) else {
            continue;
        };
        let d = end.since(start);
        match procfs::task_name(*tid).as_deref() {
            Some("cvc-core") => s.core.add(&d),
            Some("cvc-accept") => s.accept.add(&d),
            Some(n) if n.starts_with("cvc-worker") => s.workers.add(&d),
            _ => {}
        }
    }
    let mut errors: Vec<String> = Vec::new();
    if g.tr.on() {
        let spans = &g.tr.spans()[first_span..];
        s.gen_covered_ns = coverage(spans, t0, t1, |sp| sp.parent == NO_SPAN) * (t1 - t0) as f64;
        // Every op's trace joins its generation at the author to its
        // execution at the peer.
        let joined = traces_by_op(spans)
            .values()
            .filter(|ix| {
                let has = |name: &str| ix.iter().any(|&i| spans[i].name == name);
                has("client.generate") && has("client.execute")
            })
            .count() as u64;
        if joined != s.ops {
            errors.push(format!(
                "{joined} of {} op traces join generate to peer execute",
                s.ops
            ));
        }
    }
    let mut checksums = Vec::new();
    for p in &g.peers {
        let m = p.client.metrics();
        s.checks += m.concurrency_checks;
        s.transforms += m.transforms;
        s.execs += m.ops_executed_remote;
        s.hb_len += p.client.history().len() as u64;
        checksums.push(p.client.doc_checksum());
        if m.protocol_errors > 0 {
            errors.push(format!(
                "site {} counted {} protocol errors",
                p.site.0, m.protocol_errors
            ));
        }
        if let Some(e) = &p.error {
            errors.push(format!("site {}: {e}", p.site.0));
        }
    }
    let converged = g.converged();
    drop(g);
    let report = handle.shutdown();

    if !converged {
        errors.push("replicas did not converge".to_string());
    }
    if checksums.iter().any(|&c| c != report.doc_checksum) {
        errors.push("a replica's document differs from the server's".to_string());
    }
    if report.ops_integrated != s.ops {
        errors.push(format!(
            "server integrated {} of {} ops",
            report.ops_integrated, s.ops
        ));
    }
    let counters = [
        ("protocol_errors", report.protocol_errors),
        ("frame_errors", report.frame_errors),
        ("io_errors", report.io_errors),
        ("evicted", report.evicted),
        ("dropped_broadcasts", report.dropped_broadcasts),
    ];
    for (name, v) in counters {
        if v != 0 {
            errors.push(format!("server {name} = {v}"));
        }
    }
    if mode == Mode::Rounds {
        let per_exec = ratio(s.transforms as f64, s.execs as f64);
        if (per_exec - (ROUND_W / 2) as f64).abs() > 1.0 {
            errors.push(format!(
                "client transforms/exec {per_exec:.2}, expected ~{}",
                ROUND_W / 2
            ));
        }
    }
    if traced {
        match replay_twin(2, &report.integration_log) {
            Ok(t) if t.doc_checksum == report.doc_checksum && t.ops_replayed as u64 == s.ops => {}
            Ok(_) => errors.push("twin replay disagrees with the server".to_string()),
            Err(e) => errors.push(format!("twin replay refused the log: {e}")),
        }
        match replay(&report, tr) {
            Ok(r) => s.replay = Some(r),
            Err(e) => errors.push(e),
        }
    }
    let live = Live {
        frames_in: report.frames_in,
        frames_out: report.frames_out,
        msgs_out: report.msgs_out,
        outbox_hw: report.outbox_high_water.iter().copied().max().unwrap_or(0),
        wal_appends: report.wal_appends,
        wal_amp: report.wal_amplification,
        wal_live: report.wal_bytes.len() as u64,
        hb_high_water: report.hb_high_water,
    };
    Ok((s, live, errors))
}

/// Run sessions for `seconds` (paced: a fixed count of fixed-length
/// sessions) and compute the pass's metrics.
pub fn run(mode: Mode, seed: u64, seconds: u64, tr: &mut Tracer) -> PassOut {
    let traced = tr.on();
    let mut out = PassOut::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_ONLY_REPS {
        match setup(false) {
            Ok((handle, _, peers, ns)) => {
                setups.push(ns);
                drop(peers);
                let r = handle.shutdown();
                if r.protocol_errors + r.frame_errors + r.io_errors + r.evicted != 0 {
                    out.errors
                        .push("a setup-only server reported errors".to_string());
                }
            }
            Err(e) => out.errors.push(format!("setup: {e}")),
        }
    }
    let paced_sessions = (seconds * PACED_RATE / PACED_SESSION_OPS).max(1);
    let mut smp = Samples::default();
    let mut sessions: Vec<(Session, Live)> = Vec::new();
    let start = now_ns();
    for i in 0.. {
        match session(mode, traced, Rng::new(seed, i), tr, &mut smp, &mut setups) {
            Ok((s, live, errors)) => {
                out.attempted += s.ops;
                if !errors.is_empty() {
                    out.failed += s.ops;
                    out.errors.extend(errors);
                }
                sessions.push((s, live));
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(e);
            }
        }
        let done = match mode {
            Mode::Paced => i + 1 >= paced_sessions,
            Mode::Rounds => now_ns() - start >= seconds * 1_000_000_000,
        };
        if done || !out.errors.is_empty() {
            break;
        }
    }
    metrics(mode, &sessions, &smp, &setups, tr.spans(), &mut out);
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn metrics(
    mode: Mode,
    sessions: &[(Session, Live)],
    smp: &Samples,
    setups: &[u64],
    spans: &[Span],
    out: &mut PassOut,
) {
    let ops: u64 = sessions.iter().map(|(s, _)| s.ops).sum();
    let per_op = |v: f64| ratio(v, ops as f64);
    let setup_s: Vec<f64> = setups.iter().map(|&ns| ns as f64 / 1e9).collect();
    let rates: Vec<f64> = sessions
        .iter()
        .map(|(s, _)| ratio(s.ops as f64, s.wall_ns as f64 / 1e9))
        .collect();
    let server_cpu: Vec<f64> = sessions
        .iter()
        .map(|(s, _)| {
            let cpu = s.core.sched.cpu_ns + s.workers.sched.cpu_ns + s.accept.sched.cpu_ns;
            ratio(us(cpu), s.ops as f64)
        })
        .collect();

    let e = &mut out.e2e;
    e.set("setup_s", median(&setup_s), "s");
    e.set("ack_rtt_p50_us", smp.ack.quantile(0.50) / 1000.0, "us");
    e.set("ack_rtt_p90_us", smp.ack.quantile(0.90) / 1000.0, "us");
    e.set("visible_p50_us", smp.vis.quantile(0.50) / 1000.0, "us");
    e.set("visible_p90_us", smp.vis.quantile(0.90) / 1000.0, "us");
    e.set("ops_per_s", median(&rates), "ops/s");
    e.set("server_cpu_us_per_op", median(&server_cpu), "us");
    out.ack_p99_us = smp.ack.quantile(0.99) / 1000.0;
    out.vis_p99_us = smp.vis.quantile(0.99) / 1000.0;
    let gen_cpu: u64 = sessions.iter().map(|(s, _)| s.gen_cpu_ns).sum();
    out.gen_cpu_us_per_op = per_op(us(gen_cpu));

    let sum = |f: &dyn Fn(&Session) -> u64| sessions.iter().map(|(s, _)| f(s)).sum::<u64>();
    let lsum = |f: &dyn Fn(&Live) -> u64| sessions.iter().map(|(_, l)| f(l)).sum::<u64>();
    let agg = aggregate(spans);
    let total = |name: &str| agg.get(name).map_or(0, |a| a.total_ns);
    let count = |name: &str| agg.get(name).map_or(0, |a| a.count);
    let mean_us = |name: &str| ratio(us(total(name)), count(name) as f64);
    let replay_work = sessions
        .iter()
        .filter_map(|(s, _)| s.replay.as_ref())
        .map(|r| r.work_ns)
        .sum::<u64>();
    let replays: Vec<&Replay> = sessions
        .iter()
        .filter_map(|(s, _)| s.replay.as_ref())
        .collect();
    let n = sessions.len().max(1) as f64;

    let l = &mut out.layer;
    let core_cpu = per_op(us(sum(&|s| s.core.sched.cpu_ns)));
    l.set("server.core.cpu_us_per_op", core_cpu, "us");
    l.set(
        "server.core.wakeups_per_op",
        per_op(sum(&|s| s.core.ctx.voluntary) as f64),
        "count",
    );
    l.set(
        "server.core.runq_wait_us_per_op",
        per_op(us(sum(&|s| s.core.sched.wait_ns))),
        "us",
    );
    l.set(
        "server.core.handoff_us_per_op",
        core_cpu - per_op(us(replay_work)),
        "us",
    );
    l.set(
        "server.worker.cpu_us_per_op",
        per_op(us(sum(&|s| s.workers.sched.cpu_ns))),
        "us",
    );
    l.set(
        "server.worker.wakeups_per_op",
        per_op(sum(&|s| s.workers.ctx.voluntary) as f64),
        "count",
    );
    l.set(
        "server.worker.runq_wait_us_per_op",
        per_op(us(sum(&|s| s.workers.sched.wait_ns))),
        "us",
    );
    l.set(
        "server.frames_in_per_op",
        per_op(lsum(&|l| l.frames_in) as f64),
        "count",
    );
    l.set(
        "server.frames_out_per_op",
        per_op(lsum(&|l| l.frames_out) as f64),
        "count",
    );
    l.set(
        "server.msgs_per_frame_out",
        ratio(lsum(&|l| l.msgs_out) as f64, lsum(&|l| l.frames_out) as f64),
        "count",
    );
    l.set(
        "server.outbox_high_water",
        sessions.iter().map(|(_, l)| l.outbox_hw).max().unwrap_or(0) as f64,
        "count",
    );
    l.set(
        "conn.write_us_per_msg",
        ratio(
            us(total("conn.queue") + total("conn.flush")),
            smp.msgs_written as f64,
        ),
        "us",
    );
    l.set("conn.read_us_per_event", mean_us("conn.read"), "us");
    let gen_wall = sum(&|s| s.wall_ns);
    l.set(
        "poll.wait_share",
        ratio(total("poll.wait") as f64, gen_wall as f64),
        "ratio",
    );
    l.set("msg.encode_us_per_msg", mean_us("msg.encode"), "us");
    l.set(
        "msg.decode_us_per_msg",
        ratio(us(total("msg.decode")), smp.msgs_decoded as f64),
        "us",
    );
    l.set(
        "client.generate_us_per_op",
        mean_us("client.generate"),
        "us",
    );
    l.set(
        "client.execute_us_per_exec",
        mean_us("client.execute"),
        "us",
    );
    let execs = sum(&|s| s.execs) as f64;
    l.set(
        "client.checks_per_exec",
        ratio(sum(&|s| s.checks) as f64, execs),
        "count",
    );
    l.set(
        "client.transforms_per_exec",
        ratio(sum(&|s| s.transforms) as f64, execs),
        "count",
    );
    l.set(
        "client.hb_len_end",
        sum(&|s| s.hb_len) as f64 / (2.0 * n),
        "count",
    );
    l.set(
        "notifier.integrate_us_per_op",
        mean_us("notifier.integrate"),
        "us",
    );
    l.set(
        "notifier.fanout_us_per_op",
        mean_us("notifier.fanout"),
        "us",
    );
    let replay_ops = count("notifier.integrate") as f64;
    l.set(
        "notifier.transforms_per_op",
        ratio(
            replays.iter().map(|r| r.transforms).sum::<u64>() as f64,
            replay_ops,
        ),
        "count",
    );
    l.set(
        "notifier.scan_per_op",
        ratio(
            replays.iter().map(|r| r.scan).sum::<u64>() as f64,
            replay_ops,
        ),
        "count",
    );
    l.set(
        "notifier.hb_high_water",
        sessions
            .iter()
            .map(|(_, l)| l.hb_high_water)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    l.set(
        "wal.append_us_per_op",
        ratio(us(total("wal.append")), replay_ops),
        "us",
    );
    l.set(
        "wal.appends_per_op",
        per_op(lsum(&|l| l.wal_appends) as f64),
        "count",
    );
    l.set(
        "wal.amplification",
        sessions.iter().map(|(_, l)| l.wal_amp).sum::<f64>() / n,
        "ratio",
    );
    l.set(
        "wal.live_bytes_end",
        lsum(&|l| l.wal_live) as f64 / n,
        "bytes",
    );
    l.set(
        "wal.compactions",
        replays.iter().map(|r| r.compactions).sum::<u64>() as f64,
        "count",
    );
    l.set("load.cpu_us_per_op", out.gen_cpu_us_per_op, "us");
    let paced = mode == Mode::Paced;
    l.set(
        "load.late_p50_us",
        if paced {
            smp.late.quantile(0.50) / 1000.0
        } else {
            0.0
        },
        "us",
    );
    l.set(
        "load.late_p99_us",
        if paced {
            smp.late.quantile(0.99) / 1000.0
        } else {
            0.0
        },
        "us",
    );
    let covered: f64 = sessions.iter().map(|(s, _)| s.gen_covered_ns).sum();
    l.set(
        "trace.gen_coverage",
        ratio(covered, gen_wall as f64),
        "ratio",
    );
    let (rc, rw) = replays
        .iter()
        .fold((0.0, 0u64), |(c, w), r| (c + r.covered_ns, w + r.wall_ns));
    l.set("trace.replay_coverage", ratio(rc, rw as f64), "ratio");
}
