//! `star64-inproc`: the paper's star with 64 sites in one thread, no
//! sockets and no server threads — the benchmark is the transport.
//!
//! Each step, [`AUTHORS_PER_STEP`] consecutive sites each author a 1-char
//! insert before anything is delivered, so their ops are concurrent. Each
//! `ClientOp` is encoded, decoded, appended to a `Wal` and integrated by a
//! `Notifier` configured as the TCP server's core thread configures it;
//! every destination decodes and executes its `ServerOpFrame::payload_for`
//! payload, and the acks it owes go back through `try_on_client_ack` and
//! the WAL. That is 63 stamps, payloads and executions per op and about
//! eight ack records per op: the fan-out- and ack-heavy shape two
//! connections cannot reach. An I/O-tier change must leave it flat.

use crate::clock::{now_ns, thread_cpu_ns};
use crate::trace::{aggregate, coverage, OpId, Tracer, NO_SPAN};
use crate::util::{median, ratio, Hist, Rng};
use crate::PassOut;
use cvc_core::site::SiteId;
use cvc_net::ServerConfig;
use cvc_reduce::client::Client;
use cvc_reduce::msg::{EditorMsg, Payload};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::{Wal, WalRecord};
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};
use std::collections::VecDeque;

pub const SITES: usize = 64;
pub const AUTHORS_PER_STEP: usize = 8;
/// 2048 ops per session.
const STEPS_PER_SESSION: usize = 256;
/// Extra builds per run: one takes microseconds, so `setup_s` is the
/// median of many.
const SETUP_ONLY_REPS: usize = 201;

/// The op a message carries and the instant it was generated.
type Carried = Option<(OpId, u64)>;

/// A message in flight to a destination site.
struct Item {
    payload: Payload,
    op: Carried,
}

struct Star {
    notifier: Notifier,
    wal: Wal,
    clients: Vec<Client>,
}

fn build() -> Star {
    let cfg = ServerConfig::default();
    let mut notifier = Notifier::new(SITES, "");
    notifier.set_send_acks(cfg.send_acks);
    Star {
        notifier,
        wal: Wal::new(cfg.wal_compact_every.max(1)),
        clients: (0..SITES)
            .map(|i| Client::new(SiteId::from_client_index(i), ""))
            .collect(),
    }
}

fn encode(msg: &EditorMsg) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(msg.wire_bytes());
    msg.encode(&mut bytes);
    bytes
}

#[derive(Default)]
struct Session {
    ops: u64,
    acks: u64,
    wall_ns: u64,
    cpu_ns: u64,
    server_ns: u64,
    covered_ns: f64,
    checks: u64,
    transforms: u64,
    execs: u64,
    hb_len: u64,
    n_transforms: u64,
    n_scan: u64,
    n_hb_high_water: u64,
    wal_appends: u64,
    wal_amp: f64,
    wal_live: u64,
    wal_compactions: u64,
}

#[derive(Default)]
struct Samples {
    ack: Hist,
    vis: Hist,
    decodes: u64,
    encodes: u64,
}

struct Run<'a> {
    star: Star,
    tr: &'a mut Tracer,
    smp: &'a mut Samples,
    /// Client → notifier messages, with the op and due instant of client ops.
    inbox: VecDeque<(Vec<u8>, Carried)>,
    queues: Vec<VecDeque<Item>>,
    ack_due: Vec<VecDeque<u64>>,
    sent: Vec<u64>,
    acked: Vec<u64>,
    ops: u64,
    acks: u64,
    execs: u64,
    server_ns: u64,
    errors: Vec<String>,
}

impl Run<'_> {
    fn author(&mut self, c: usize, rng: &mut Rng) {
        let id = OpId {
            site: SiteId::from_client_index(c).0,
            seq: self.sent[c] + 1,
        };
        let due = now_ns();
        let root = self.tr.enter("star.author", Some(id));
        let pos = rng.below(self.star.clients[c].doc_len() as u64 + 1) as usize;
        let ch = rng.letter();
        let s = self.tr.enter("client.generate", Some(id));
        let msg = self.star.clients[c].insert(pos, ch.encode_utf8(&mut [0; 4]));
        self.tr.exit(s);
        let s = self.tr.enter("msg.encode", Some(id));
        let bytes = encode(&EditorMsg::ClientOp(msg));
        self.tr.exit(s);
        self.smp.encodes += 1;
        self.inbox.push_back((bytes, Some((id, due))));
        self.ack_due[c].push_back(due);
        self.sent[c] += 1;
        self.tr.exit(root);
    }

    /// The notifier side: drain every message the clients sent.
    fn serve(&mut self) {
        let t = now_ns();
        let root = self.tr.enter("star.serve", None);
        while let Some((bytes, op)) = self.inbox.pop_front() {
            let id = op.map(|(id, _)| id);
            let s = self.tr.enter("msg.decode", id);
            let msg = EditorMsg::decode(&mut bytes.as_slice());
            self.tr.exit(s);
            self.smp.decodes += 1;
            match msg {
                Ok(EditorMsg::ClientOp(m)) => self.integrate(m, op),
                Ok(EditorMsg::ClientAck(a)) => {
                    let s = self.tr.enter("notifier.ack", None);
                    let res = self.star.notifier.try_on_client_ack(a);
                    self.tr.exit(s);
                    if let Err(e) = res {
                        self.errors.push(format!("ack rejected: {e}"));
                        continue;
                    }
                    let s = self.tr.enter("wal.append", None);
                    self.star.wal.append(&WalRecord::Ack(a));
                    self.tr.exit(s);
                    self.acks += 1;
                }
                other => self.errors.push(format!("notifier got {other:?}")),
            }
        }
        self.tr.exit(root);
        self.server_ns += now_ns() - t;
    }

    fn integrate(&mut self, m: cvc_reduce::msg::ClientOpMsg, op: Carried) {
        let id = op.map(|(id, _)| id);
        // Durability before visibility, as the server's core thread does.
        let s = self.tr.enter("wal.append", id);
        self.star.wal.append(&WalRecord::Op(m.clone()));
        self.tr.exit(s);
        let s = self.tr.enter("notifier.integrate", id);
        let res = self.star.notifier.try_on_client_op_outcome(m);
        self.tr.exit(s);
        let out = match res {
            Ok(out) => out,
            Err(e) => return self.errors.push(format!("op rejected: {e}")),
        };
        self.ops += 1;
        let s = self.tr.enter("notifier.fanout", id);
        let frame = out.frame();
        for &(dest, stamp) in &out.stamps {
            self.queues[dest.client_index()].push_back(Item {
                payload: frame.payload_for(stamp),
                op,
            });
        }
        if let Some((dest, ack)) = out.ack {
            let bytes = encode(&EditorMsg::ServerAck(ack));
            self.queues[dest.client_index()].push_back(Item {
                payload: Payload::from_vec(bytes),
                op: None,
            });
        }
        self.tr.exit(s);
        let s = self.tr.enter("wal.compact", id);
        self.star.wal.maybe_compact(&self.star.notifier);
        self.tr.exit(s);
    }

    /// The client side: every destination drains what reached it.
    fn deliver(&mut self) {
        for d in 0..SITES {
            while let Some(item) = self.queues[d].pop_front() {
                let id = item.op.map(|(id, _)| id);
                let root = self.tr.enter("star.deliver", id);
                let bytes = item.payload.to_vec();
                let s = self.tr.enter("msg.decode", id);
                let msg = EditorMsg::decode(&mut bytes.as_slice());
                self.tr.exit(s);
                self.smp.decodes += 1;
                match msg {
                    Ok(EditorMsg::ServerOp(m)) => self.execute(d, m, item.op),
                    Ok(EditorMsg::ServerAck(a)) => {
                        let now = now_ns();
                        while self.acked[d] < a.acked {
                            match self.ack_due[d].pop_front() {
                                Some(due) => self.smp.ack.record(now - due),
                                None => self.errors.push(format!("site {d} acked past sent")),
                            }
                            self.acked[d] += 1;
                        }
                    }
                    other => self.errors.push(format!("client got {other:?}")),
                }
                self.tr.exit(root);
            }
        }
    }

    fn execute(&mut self, d: usize, m: cvc_reduce::msg::ServerOpMsg, op: Carried) {
        let s = self.tr.enter("client.execute", op.map(|(id, _)| id));
        let res = self.star.clients[d].try_on_server_op(m);
        self.tr.exit(s);
        let done = now_ns();
        if let Err(e) = res {
            return self
                .errors
                .push(format!("site {d} rejected a server op: {e}"));
        }
        self.execs += 1;
        if let Some((_, due)) = op {
            self.smp.vis.record(done - due);
        }
        let s = self.tr.enter("client.take_ack", None);
        let ack = self.star.clients[d].take_pending_ack();
        self.tr.exit(s);
        if let Some(ack) = ack {
            let s = self.tr.enter("msg.encode", None);
            let bytes = encode(&EditorMsg::ClientAck(ack));
            self.tr.exit(s);
            self.smp.encodes += 1;
            self.inbox.push_back((bytes, None));
        }
    }
}

fn session(
    seed: u64,
    i: u64,
    tr: &mut Tracer,
    smp: &mut Samples,
    setups: &mut Vec<u64>,
) -> (Session, Vec<String>) {
    let t = now_ns();
    let star = build();
    setups.push(now_ns() - t);
    let first_span = tr.spans().len();
    let mut rng = Rng::new(seed, i);
    let mut r = Run {
        star,
        tr: &mut *tr,
        smp: &mut *smp,
        inbox: VecDeque::new(),
        queues: (0..SITES).map(|_| VecDeque::new()).collect(),
        ack_due: vec![VecDeque::new(); SITES],
        sent: vec![0; SITES],
        acked: vec![0; SITES],
        ops: 0,
        acks: 0,
        execs: 0,
        server_ns: 0,
        errors: Vec::new(),
    };
    let cpu0 = thread_cpu_ns();
    let t0 = now_ns();
    for step in 0..STEPS_PER_SESSION {
        for a in 0..AUTHORS_PER_STEP {
            r.author((step * AUTHORS_PER_STEP + a) % SITES, &mut rng);
        }
        r.serve();
        r.deliver();
        r.serve();
        if !r.errors.is_empty() {
            break;
        }
    }
    let t1 = now_ns();
    let cpu1 = thread_cpu_ns();

    let mut errors = std::mem::take(&mut r.errors);
    let n = &r.star.notifier;
    let nm = n.metrics();
    let mut s = Session {
        ops: r.ops,
        acks: r.acks,
        wall_ns: t1 - t0,
        cpu_ns: cpu1 - cpu0,
        server_ns: r.server_ns,
        n_transforms: nm.transforms,
        n_scan: nm.scan_len_total,
        n_hb_high_water: nm.hb_high_water,
        wal_appends: r.star.wal.appends(),
        wal_amp: r.star.wal.amplification(),
        wal_live: r.star.wal.live_bytes() as u64,
        wal_compactions: r.star.wal.compactions(),
        ..Session::default()
    };
    if nm.protocol_errors != 0 {
        errors.push(format!(
            "notifier counted {} protocol errors",
            nm.protocol_errors
        ));
    }
    let authored: u64 = r.sent.iter().sum();
    if r.ops != authored {
        errors.push(format!("notifier integrated {} of {authored} ops", r.ops));
    }
    for (c, client) in r.star.clients.iter().enumerate() {
        let m = client.metrics();
        s.checks += m.concurrency_checks;
        s.transforms += m.transforms;
        s.execs += m.ops_executed_remote;
        s.hb_len += client.history().len() as u64;
        if client.doc_checksum() != n.doc_checksum() {
            errors.push(format!("site {c} diverged from the notifier"));
        }
        if client.state_vector().received() != authored - r.sent[c] || r.acked[c] != r.sent[c] {
            errors.push(format!("site {c} is missing ops or acks"));
        }
        if m.protocol_errors != 0 {
            errors.push(format!(
                "site {c} counted {} protocol errors",
                m.protocol_errors
            ));
        }
    }
    if r.execs != authored * (SITES as u64 - 1) {
        errors.push(format!(
            "{} executions for {authored} ops, expected 63 per op",
            r.execs
        ));
    }
    drop(r);
    if tr.on() {
        let spans = &tr.spans()[first_span..];
        s.covered_ns = coverage(spans, t0, t1, |sp| sp.parent == NO_SPAN) * (t1 - t0) as f64;
    }
    (s, errors)
}

pub fn run(seed: u64, seconds: u64, tr: &mut Tracer) -> PassOut {
    let mut out = PassOut::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_ONLY_REPS {
        let t = now_ns();
        let star = std::hint::black_box(build());
        setups.push(now_ns() - t);
        drop(star);
    }
    let mut smp = Samples::default();
    let mut sessions = Vec::new();
    let start = now_ns();
    for i in 0.. {
        let (s, errors) = session(seed, i, tr, &mut smp, &mut setups);
        out.attempted += s.ops.max(1);
        if !errors.is_empty() {
            out.failed += s.ops.max(1);
            out.errors.extend(errors);
        }
        sessions.push(s);
        if !out.errors.is_empty() || now_ns() - start >= seconds * 1_000_000_000 {
            break;
        }
    }

    let us = |ns: u64| ns as f64 / 1000.0;
    let ops: u64 = sessions.iter().map(|s| s.ops).sum();
    let per_op = |v: f64| ratio(v, ops as f64);
    let setup_s: Vec<f64> = setups.iter().map(|&ns| ns as f64 / 1e9).collect();
    let rates: Vec<f64> = sessions
        .iter()
        .map(|s| ratio(s.ops as f64, s.wall_ns as f64 / 1e9))
        .collect();
    let server: Vec<f64> = sessions
        .iter()
        .map(|s| ratio(us(s.server_ns), s.ops as f64))
        .collect();
    let e = &mut out.e2e;
    e.set("setup_s", median(&setup_s), "s");
    e.set("ack_rtt_p50_us", smp.ack.quantile(0.50) / 1000.0, "us");
    e.set("ack_rtt_p90_us", smp.ack.quantile(0.90) / 1000.0, "us");
    e.set("visible_p50_us", smp.vis.quantile(0.50) / 1000.0, "us");
    e.set("visible_p90_us", smp.vis.quantile(0.90) / 1000.0, "us");
    e.set("ops_per_s", median(&rates), "ops/s");
    e.set("server_cpu_us_per_op", median(&server), "us");
    out.ack_p99_us = smp.ack.quantile(0.99) / 1000.0;
    out.vis_p99_us = smp.vis.quantile(0.99) / 1000.0;
    out.gen_cpu_us_per_op = per_op(us(sessions.iter().map(|s| s.cpu_ns).sum()));

    let sum = |f: &dyn Fn(&Session) -> u64| sessions.iter().map(f).sum::<u64>();
    let n = sessions.len().max(1) as f64;
    let agg = aggregate(tr.spans());
    let total = |name: &str| agg.get(name).map_or(0, |a| a.total_ns);
    let count = |name: &str| agg.get(name).map_or(0, |a| a.count);
    let mean_us = |name: &str| ratio(us(total(name)), count(name) as f64);
    let execs = sum(&|s| s.execs) as f64;
    let l = &mut out.layer;
    l.set(
        "msg.encode_us_per_msg",
        ratio(us(total("msg.encode")), smp.encodes as f64),
        "us",
    );
    l.set(
        "msg.decode_us_per_msg",
        ratio(us(total("msg.decode")), smp.decodes as f64),
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
        sum(&|s| s.hb_len) as f64 / (SITES as f64 * n),
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
    l.set("notifier.ack_us_per_ack", mean_us("notifier.ack"), "us");
    l.set(
        "notifier.transforms_per_op",
        per_op(sum(&|s| s.n_transforms) as f64),
        "count",
    );
    l.set(
        "notifier.scan_per_op",
        per_op(sum(&|s| s.n_scan) as f64),
        "count",
    );
    l.set(
        "notifier.hb_high_water",
        sessions
            .iter()
            .map(|s| s.n_hb_high_water)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    l.set(
        "wal.append_us_per_op",
        per_op(us(total("wal.append"))),
        "us",
    );
    l.set(
        "wal.appends_per_op",
        per_op(sum(&|s| s.wal_appends) as f64),
        "count",
    );
    l.set(
        "wal.amplification",
        sessions.iter().map(|s| s.wal_amp).sum::<f64>() / n,
        "ratio",
    );
    l.set(
        "wal.live_bytes_end",
        sum(&|s| s.wal_live) as f64 / n,
        "bytes",
    );
    l.set(
        "wal.compactions",
        sum(&|s| s.wal_compactions) as f64,
        "count",
    );
    l.set("load.cpu_us_per_op", out.gen_cpu_us_per_op, "us");
    l.set("star.acks_per_op", per_op(sum(&|s| s.acks) as f64), "count");
    l.set("star.execs_per_op", per_op(execs), "count");
    let covered: f64 = sessions.iter().map(|s| s.covered_ns).sum();
    l.set(
        "trace.gen_coverage",
        ratio(covered, sum(&|s| s.wall_ns) as f64),
        "ratio",
    );
    out
}
