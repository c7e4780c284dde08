//! E7 companion bench: the per-operation hot paths.
//!
//! * concurrency checks: formula (5) (client), formula (7) (notifier),
//!   formula (3) (full vectors) as history buffers grow;
//! * operation integration end-to-end at the notifier and at a client,
//!   with varying numbers of concurrent pending operations (transform
//!   load);
//! * a client's steady state deep into a session — a long history buffer
//!   and a full undo stack — for both a remote execution and a local
//!   edit. These rows compare history- and undo-dependent bookkeeping
//!   across versions; they are not a gate.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use cvc_core::formulas::{formula3_full_vector, formula5_client, formula7_notifier};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::timestamp::OriginAtClient;
use cvc_core::vector::VectorClock;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::Client;
use cvc_reduce::msg::{ClientOpMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;

fn bench_formulas(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrency_check");
    let ta = CompressedStamp::new(10, 4);
    let tb = CompressedStamp::new(8, 6);
    g.bench_function("formula5_client", |b| {
        b.iter(|| std::hint::black_box(formula5_client(ta, tb, OriginAtClient::Local)))
    });
    for n in [4usize, 32, 256] {
        let vec = VectorClock::from_entries((0..n as u64).collect());
        g.bench_with_input(BenchmarkId::new("formula7_notifier", n), &vec, |b, vec| {
            b.iter(|| std::hint::black_box(formula7_notifier(ta, SiteId(2), vec, SiteId(1))))
        });
        let va = VectorClock::from_entries((1..=n as u64).collect());
        g.bench_with_input(BenchmarkId::new("formula3_full", n), &va, |b, va| {
            b.iter(|| std::hint::black_box(formula3_full_vector(va, SiteId(1), &vec, SiteId(2))))
        });
    }
    g.finish();
}

/// A notifier with `hb` executed ops and a client op concurrent with the
/// last `conc` of them.
fn notifier_with_history(n_clients: usize, hb: usize) -> Notifier {
    let mut notifier = Notifier::new(n_clients, &"x".repeat(64));
    for k in 0..hb {
        let origin = SiteId((k % (n_clients - 1) + 2) as u32); // sites 2..
        let doc_len = 64 + k;
        let op = SeqOp::from_pos(&PosOp::insert(doc_len / 2, "y"), doc_len);
        // Each op has seen everything the notifier sent so far (no
        // concurrency among history ops).
        let seen: u64 = notifier
            .history()
            .iter()
            .filter(|e| e.origin != origin)
            .count() as u64;
        let own: u64 = notifier
            .history()
            .iter()
            .filter(|e| e.origin == origin)
            .count() as u64;
        notifier.on_client_op(ClientOpMsg {
            origin,
            stamp: CompressedStamp::new(seen, own + 1),
            op,
            cursor: None,
        });
    }
    notifier
}

fn bench_notifier_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("notifier_on_client_op");
    for hb in [0usize, 16, 64, 256] {
        let base = notifier_with_history(8, hb);
        // The incoming op from site 1 saw none of the notifier's
        // broadcasts: concurrent with every buffered op.
        let op = SeqOp::from_pos(&PosOp::insert(3, "z"), 64);
        let msg = ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op,
            cursor: None,
        };
        g.bench_with_input(BenchmarkId::new("all_concurrent_hb", hb), &hb, |b, _| {
            b.iter_batched(
                || (base.clone(), msg.clone()),
                |(mut notifier, msg)| std::hint::black_box(notifier.on_client_op(msg)),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_client_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("client_on_server_op");
    for pending in [0usize, 4, 16, 64] {
        // Client typed `pending` chars the server hasn't seen.
        let mut client = Client::new(SiteId(1), &"x".repeat(64));
        for k in 0..pending {
            client.insert(32 + k, "p");
        }
        let msg = ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: SeqOp::from_pos(&PosOp::insert(5, "s"), 64),
            cursor: None,
        };
        g.bench_with_input(
            BenchmarkId::new("pending_local_ops", pending),
            &pending,
            |b, _| {
                b.iter_batched(
                    || (client.clone(), msg.clone()),
                    |(mut client, msg)| std::hint::black_box(client.on_server_op(msg)),
                    BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

/// A client `hb` entries into a session: its history alternates a local
/// insert and the server op acknowledging it, so nothing is in flight,
/// and its undo stack is full.
fn steady_client(hb: usize) -> Client {
    let mut client = Client::new(SiteId(1), &"x".repeat(64));
    for k in 0..hb {
        if k % 2 == 0 {
            client.insert(client.doc_len() / 2, "p");
        } else {
            client.on_server_op(acking_server_op(&client));
        }
    }
    client
}

/// The next server op for `client`, acknowledging all its local ops.
fn acking_server_op(client: &Client) -> ServerOpMsg {
    let sv = client.state_vector();
    ServerOpMsg {
        stamp: CompressedStamp::new(sv.received() + 1, sv.generated()),
        op: SeqOp::from_pos(&PosOp::insert(0, "s"), client.doc_len()),
        cursor: None,
    }
}

/// Steady state 4096 entries into a session with a full undo stack
/// (2048 local edits ≫ `MAX_UNDO_DEPTH`). Each sample executes one more op
/// on the same client, so the history grows by one entry per sample and no
/// clone or drop of the replica is timed.
fn bench_client_steady_state(c: &mut Criterion) {
    const HB: usize = 4096;
    let mut client = steady_client(HB);
    let mut g = c.benchmark_group("client_on_server_op");
    g.sample_size(100);
    g.bench_function(BenchmarkId::new("steady_hb_full_undo", HB), |b| {
        b.iter(|| {
            let msg = acking_server_op(&client);
            std::hint::black_box(client.on_server_op(msg))
        })
    });
    g.finish();

    let mut client = steady_client(HB);
    let mut g = c.benchmark_group("client_local_edit");
    g.sample_size(100);
    g.bench_function(BenchmarkId::new("steady_hb_full_undo", HB), |b| {
        b.iter(|| {
            let mid = client.doc_len() / 2;
            std::hint::black_box(client.insert(mid, "q"))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_formulas,
    bench_notifier_integration,
    bench_client_integration,
    bench_client_steady_state
);
criterion_main!(benches);
