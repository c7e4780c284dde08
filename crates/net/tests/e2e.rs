//! End-to-end checks for the TCP tier: torn-read reassembly equivalence,
//! a live server ↔ sim-twin differential, hostile-peer eviction, a WAL
//! that hostile ops cannot poison, slow-consumer shedding, reconnect
//! rebinding, and connection churn over recycled slab slots.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_net::frame::{write_frame, FrameReader};
use cvc_net::{replay_twin, run_load, AdminClient, EditorServer, LoadConfig, ServerConfig};
use cvc_reduce::client::Client;
use cvc_reduce::msg::{ClientAckMsg, EditorMsg};
use cvc_reduce::standby::Standby;
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A hand-driven framed client for tests that need exact control over
/// connect/disconnect timing (blocking I/O, 10 s read timeout).
struct TestPeer {
    stream: TcpStream,
    reader: FrameReader,
}

impl TestPeer {
    fn connect(addr: &str) -> TestPeer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        TestPeer {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, msg: &EditorMsg) {
        let mut body = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut body);
        let mut frame = Vec::new();
        write_frame(&mut frame, &[&body]);
        self.stream.write_all(&frame).expect("write frame");
    }

    /// Block until the next editor message arrives.
    fn recv(&mut self) -> EditorMsg {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(p) = self.reader.next_frame().expect("valid frame") {
                let mut slice: &[u8] = &p;
                return EditorMsg::decode(&mut slice).expect("decodable frame");
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed the connection unexpectedly");
            self.reader.extend(&chunk[..n]);
        }
    }
}

/// Reassemble `stream` delivered in the given chunk sizes.
fn reassemble(stream: &[u8], chunks: &[usize]) -> Vec<Vec<u8>> {
    let mut r = FrameReader::new();
    let mut got = Vec::new();
    let mut off = 0;
    for &c in chunks {
        let end = (off + c).min(stream.len());
        r.extend(&stream[off..end]);
        while let Some(p) = r.next_frame().expect("valid stream must parse") {
            got.push(p);
        }
        off = end;
        if off == stream.len() {
            break;
        }
    }
    r.extend(&stream[off..]);
    while let Some(p) = r.next_frame().expect("valid stream must parse") {
        got.push(p);
    }
    got
}

proptest! {
    /// Any fragmentation of a valid frame stream — byte-by-byte, random
    /// splits, or whole — yields the byte-identical payload sequence.
    #[test]
    fn torn_reads_reassemble_byte_identically(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..8,
        ),
        split_seed in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, &[p]);
        }

        let whole = reassemble(&stream, &[stream.len()]);
        prop_assert_eq!(&whole, &payloads);

        let byte_by_byte = reassemble(&stream, &vec![1; stream.len()]);
        prop_assert_eq!(&byte_by_byte, &payloads);

        let mut rng = SmallRng::seed_from_u64(split_seed);
        let mut random_chunks = Vec::new();
        let mut left = stream.len();
        while left > 0 {
            let c = rng.gen_range(1..=left.min(31));
            random_chunks.push(c);
            left -= c;
        }
        let random = reassemble(&stream, &random_chunks);
        prop_assert_eq!(&random, &payloads);
    }
}

/// The full differential: real sockets → server → broadcasts → replicas,
/// then the captured integration order replayed through fresh sim-grade
/// twins. Every document checksum in sight must agree.
#[test]
fn server_and_sim_twin_converge_byte_identically() {
    let n = 8;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        capture_integrations: true,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let load = run_load(&LoadConfig {
        addr,
        n_clients: n,
        total_ops: 512,
        rate: 0.0,
        threads: 2,
        seed: 7,
        timeout: Duration::from_secs(60),
    })
    .expect("load runs");

    assert_eq!(load.conn_errors, 0, "no connection may die");
    assert_eq!(load.protocol_errors, 0, "no replica may see a violation");
    assert_eq!(load.ops_sent, 512);
    assert_eq!(load.ops_acked, 512, "every op must be acked");
    assert!(load.converged, "all replicas must converge");
    assert_eq!(load.distinct_checksums, 1);
    assert_eq!(load.rtt.count, 512, "every op's RTT must be measured");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 512);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.frame_errors, 0);
    assert_eq!(report.io_errors, 0, "no I/O-tier thread may die");
    assert_eq!(
        report.doc_checksum, load.doc_checksum,
        "server and replicas must agree"
    );
    assert_eq!(report.doc, load.doc);
    assert_eq!(report.doc.chars().count(), 512);

    // The WAL must recover to the same document the live server reached.
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);

    // The sim twin certifies the integration order offline.
    let twin = replay_twin(n, &report.integration_log).expect("twin replay certifies");
    assert_eq!(twin.ops_replayed, 512);
    assert_eq!(
        twin.doc_checksum, report.doc_checksum,
        "sim twin and server must agree"
    );
    assert_eq!(twin.doc, report.doc);
}

/// A peer speaking garbage is evicted without taking the server down;
/// well-behaved clients converge around it.
#[test]
fn hostile_peer_is_evicted_not_fatal() {
    let n = 4;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    // A hostile length claim straight on the socket: 2^32 + 5, the exact
    // shape a 32-bit truncation bug would misread as tiny.
    let mut hostile = TcpStream::connect(&addr).expect("connect");
    let mut claim = Vec::new();
    cvc_sim::wire::put_varint(&mut claim, (1u64 << 32) + 5);
    hostile.write_all(&claim).expect("write");

    // And a peer whose frame wraps undecodable bytes.
    let mut garbled = TcpStream::connect(&addr).expect("connect");
    let mut frame = Vec::new();
    write_frame(&mut frame, &[&[0xEE, 0xFF, 0x00, 0x01]]);
    garbled.write_all(&frame).expect("write");

    let load = run_load(&LoadConfig {
        addr,
        n_clients: n,
        total_ops: 64,
        rate: 0.0,
        threads: 1,
        seed: 11,
        timeout: Duration::from_secs(30),
    })
    .expect("load runs");
    assert!(load.converged, "honest clients still converge");

    drop(hostile);
    drop(garbled);
    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 64);
    assert!(
        report.frame_errors >= 1,
        "the hostile stream must be counted"
    );
    assert_eq!(report.io_errors, 0, "hostile peers must not kill a worker");
    assert_eq!(report.doc_checksum, load.doc_checksum);
}

/// A reconnecting site rebinds with its *real* ack frontier in the hello,
/// and receives exactly the ops integrated while it was away — no replay
/// of what it already acknowledged, no loss of the parked tail.
#[test]
fn reconnect_rebinds_with_real_ack_frontier() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut replica2 = Client::new(site2, "");

    let mut peer1 = TestPeer::connect(&addr);
    peer1.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site1,
        received: 0,
    }));
    let mut peer2 = TestPeer::connect(&addr);
    peer2.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: 0,
    }));

    // Op 1 reaches site 2's first connection.
    peer1.send(&EditorMsg::ClientOp(editor1.insert(0, "a")));
    apply_server_ops(&mut peer2, &mut replica2, 1);
    assert_eq!(replica2.doc(), "a");

    // Site 2 drops. Wait for the server to process the disconnect (route
    // cleared) before site 1 keeps editing, so op 2 parks for the rebind.
    drop(peer2);
    std::thread::sleep(Duration::from_millis(300));
    peer1.send(&EditorMsg::ClientOp(editor1.insert(1, "b")));

    // Reconnect with the true frontier: one broadcast already received.
    let mut peer2 = TestPeer::connect(&addr);
    peer2.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: replica2.state_vector().received(),
    }));
    apply_server_ops(&mut peer2, &mut replica2, 1);
    assert_eq!(replica2.doc(), "ab", "exactly the parked tail arrives");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 2);
    assert_eq!(
        report.protocol_errors, 0,
        "the hello frontier must be valid"
    );
    assert_eq!(report.frame_errors, 0);
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.doc, replica2.doc());

    // The WAL carries the hello frontiers too: recovery must replay them
    // (and everything else) back to the live document.
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(2, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
}

/// A hostile op is rejected live and never reaches the WAL: the log the
/// server hands back recovers, and a standby built from it comes up
/// unpoisoned, both at the live document's checksum.
#[test]
fn hostile_op_never_poisons_the_wal() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut editor2 = Client::new(site2, "");

    let mut peer1 = TestPeer::connect(&addr);
    peer1.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site1,
        received: 0,
    }));
    let mut peer2 = TestPeer::connect(&addr);
    peer2.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: 0,
    }));

    peer1.send(&EditorMsg::ClientOp(editor1.insert(0, "a")));
    apply_server_ops(&mut peer2, &mut editor2, 1);

    // Site 1's next op, forged to claim 99 server ops it never received.
    let mut hostile = editor1.insert(1, "b");
    hostile.stamp = CompressedStamp::new(99, 2);
    peer1.send(&EditorMsg::ClientOp(hostile));
    // The server evicts site 1: its stream ends after op 1's ack.
    let mut sink = Vec::new();
    let _ = peer1.stream.read_to_end(&mut sink);

    // Site 2 keeps editing past the rejection and is acknowledged.
    peer2.send(&EditorMsg::ClientOp(editor2.insert(0, "c")));
    loop {
        if let EditorMsg::ServerAck(a) = peer2.recv() {
            if a.acked == 1 {
                break;
            }
        }
    }

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 2);
    assert_eq!(report.protocol_errors, 1, "the forged op is rejected");
    assert_eq!(report.evicted, 1, "its connection is shed");

    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(2, "").expect("WAL restores unpoisoned");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
    let standby = Standby::from_recovery(&recovery, 2, "");
    assert!(standby.poisoned().is_none(), "{:?}", standby.poisoned());
    assert_eq!(standby.notifier().doc_checksum(), report.doc_checksum);
}

/// A bound client that never reads is shed once its unsent bytes pass the
/// per-connection cap, and the single loop never blocks on its socket:
/// the other client's ops keep being acknowledged throughout, and its
/// replica ends at the server's document.
#[test]
fn slow_consumer_is_shed_while_others_are_served() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let admin_addr = server.admin_addr().expect("admin plane binds").to_string();
    let mut admin = AdminClient::connect(&admin_addr, Duration::from_secs(10)).expect("admin");

    // Site 1 binds, then never reads again.
    let mut slow = TestPeer::connect(&addr);
    slow.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: SiteId::from_client_index(0),
        received: 0,
    }));
    let site2 = SiteId::from_client_index(1);
    let mut editor = Client::new(site2, "");
    let mut fast = TestPeer::connect(&addr);
    fast.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: 0,
    }));

    // 16 KiB inserts in rounds of 64 (1 MiB of broadcast toward site 1
    // per round), each op acknowledged before the next is sent, until
    // the server reports the shed. The cap is 8 MiB plus whatever the
    // kernel buffers; 64 MiB without a shed fails the test.
    let text = "x".repeat(16 * 1024);
    let mut ops = 0u64;
    let mut shed = false;
    while !shed && ops < 64 * 64 {
        for _ in 0..64 {
            fast.send(&EditorMsg::ClientOp(editor.insert(editor.doc_len(), &text)));
            ops += 1;
            loop {
                match fast.recv() {
                    EditorMsg::ServerAck(a) if a.acked == ops => break,
                    EditorMsg::ServerAck(_) => {}
                    other => panic!("unexpected downstream message: {other:?}"),
                }
            }
        }
        let snap = admin.request_text("snapshot").expect("snapshot");
        shed = snap.contains("\"net.evicted\":1");
    }
    assert!(shed, "a reader that never drains must be shed");

    // The shed reader's stream ends after what the kernel had taken.
    let mut sink = Vec::new();
    slow.stream
        .read_to_end(&mut sink)
        .expect("the server closed the slow reader's stream");
    assert!((sink.len() as u64) < ops * text.len() as u64);

    drop(admin);
    let report = server.shutdown();
    assert_eq!(report.evicted, 1);
    assert_eq!(report.active_connections, 1);
    assert_eq!(report.ops_integrated, ops);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.doc_checksum, editor.doc_checksum());
}

/// Large concurrent inserts from many sites fan into one reader's queue
/// within a single loop pass. The compound frames that carry them must
/// stay within the frame cap the reader enforces, or the reader's own
/// reassembly would reject the stream as hostile.
#[test]
fn compound_frames_stay_within_the_frame_cap() {
    let writers = 16;
    let ops_each = 4;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: writers + 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let mut reader = TestPeer::connect(&addr);
    reader.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: SiteId::from_client_index(writers),
        received: 0,
    }));
    // Each writer authors 4 × 60 KiB inserts on its empty replica and
    // ships them in one write, so the bursts land together.
    let text = "y".repeat(60 * 1024);
    let mut bursts = Vec::new();
    for w in 0..writers {
        let site = SiteId::from_client_index(w);
        let mut peer = TestPeer::connect(&addr);
        peer.send(&EditorMsg::ClientAck(ClientAckMsg {
            origin: site,
            received: 0,
        }));
        let mut editor = Client::new(site, "");
        let mut burst = Vec::new();
        for _ in 0..ops_each {
            let msg = EditorMsg::ClientOp(editor.insert(editor.doc_len(), &text));
            let mut body = Vec::with_capacity(msg.wire_bytes());
            msg.encode(&mut body);
            write_frame(&mut burst, &[&body]);
        }
        bursts.push((peer, burst));
    }
    for (peer, burst) in &mut bursts {
        peer.stream.write_all(burst).expect("write burst");
    }

    // `recv` reassembles through a `FrameReader`, which rejects any frame
    // past MAX_FRAME_BYTES.
    let mut received = 0;
    while received < writers * ops_each {
        match reader.recv() {
            EditorMsg::ServerOp(_) => received += 1,
            EditorMsg::Compound(ms) => received += ms.len(),
            other => panic!("unexpected downstream message: {other:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.ops_integrated, (writers * ops_each) as u64);
    assert_eq!(report.evicted, 0);
}

/// Pump `peer` until `count` server ops have been applied to `replica`.
fn apply_server_ops(peer: &mut TestPeer, replica: &mut Client, count: usize) {
    let mut applied = 0;
    let mut queue = std::collections::VecDeque::new();
    while applied < count {
        let msg = queue.pop_front().unwrap_or_else(|| peer.recv());
        match msg {
            EditorMsg::ServerOp(m) => {
                replica.try_on_server_op(m).expect("server op applies");
                applied += 1;
            }
            EditorMsg::Compound(ms) => queue.extend(ms),
            EditorMsg::ServerAck(_) => {}
            other => panic!("unexpected downstream message: {other:?}"),
        }
    }
}

/// Heavy connect/disconnect churn forces the server to recycle slab
/// slots while honest traffic flows and evictions race disconnects.
/// Nothing queued for a closed connection may reach a slot's next
/// occupant: the honest session still converges and no
/// cross-connection leak corrupts a stream.
#[test]
fn connection_churn_never_leaks_across_slot_reuse() {
    let n = 4;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let churn_stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let addr = addr.clone();
        let stop = Arc::clone(&churn_stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut s) = TcpStream::connect(&addr) else {
                    continue;
                };
                match i % 3 {
                    // Connect-and-drop: pure slot churn.
                    0 => {}
                    // Out-of-range hello: the bind is refused and the
                    // connection evicted, racing this drop and the
                    // slot's reuse.
                    1 => {
                        let msg = EditorMsg::ClientAck(ClientAckMsg {
                            origin: SiteId::from_client_index(64),
                            received: 0,
                        });
                        let mut body = Vec::with_capacity(msg.wire_bytes());
                        msg.encode(&mut body);
                        let mut frame = Vec::new();
                        write_frame(&mut frame, &[&body]);
                        let _ = s.write_all(&frame);
                    }
                    // Unparseable garbage: a frame-error close.
                    _ => {
                        let _ = s.write_all(&[0xDE, 0xAD, 0xBE, 0xEF]);
                    }
                }
                drop(s);
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let load = run_load(&LoadConfig {
        addr,
        n_clients: n,
        total_ops: 64,
        rate: 0.0,
        threads: 1,
        seed: 23,
        timeout: Duration::from_secs(30),
    })
    .expect("load runs");
    churn_stop.store(true, Ordering::Relaxed);
    churner.join().expect("churner joins");

    assert_eq!(load.conn_errors, 0, "honest connections must survive churn");
    assert_eq!(load.protocol_errors, 0);
    assert!(load.converged, "honest clients converge through the churn");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 64);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.doc_checksum, load.doc_checksum);
}
