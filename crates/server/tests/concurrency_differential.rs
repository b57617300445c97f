//! Differential test: the concurrent server against its serial twin.
//!
//! The server and [`SerialTwin`] execute statements through the same two
//! functions, so any divergence observed here is a defect in the
//! concurrency machinery itself — snapshot capture, publication order,
//! the writer queue, or the wire protocol — which is exactly what this
//! suite puts under real thread interleavings:
//!
//! 1. a scripted seeded write stream replayed through one server client
//!    must ack **byte-identically** to the twin, including errors;
//! 2. many concurrent reader sessions over the then-quiescent server
//!    must answer every read byte-identically to the twin;
//! 3. readers racing the writer must only ever observe states the
//!    serial replay passes through (prefix states), with `:seq`
//!    monotonically non-decreasing per session;
//! 4. a churn of 1 024 short sessions — connect, four requests,
//!    disconnect — an eighth of them writers, must leave the server in
//!    the state the twin reaches by replaying the writes alone.

use std::sync::{Arc, Barrier};
use std::thread;

use balg_core::eval::Limits;
use balg_server::prelude::*;
use balg_sql::prelude::{database_from_rows, Catalog, SqlValue};

/// Deterministic statement stream: a fixed LCG, so every run and both
/// executions see the same statements in the same order.
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream { state: seed }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) % bound
    }

    /// One write statement. Deletes may target absent rows — the
    /// resulting `NegativeBase` error is part of the scripted behavior
    /// and must render identically on both sides.
    fn write_stmt(&mut self) -> String {
        let customer = format!("c{}", self.next(6));
        let qty = 1 + self.next(5);
        if self.next(4) == 0 {
            format!("DELETE FROM orders VALUES ('{customer}', {qty})")
        } else {
            format!("INSERT INTO orders VALUES ('{customer}', {qty})")
        }
    }
}

fn catalog() -> Catalog {
    Catalog::new().with_table("orders", &[("customer", false), ("qty", true)])
}

fn spawn_pair() -> (SqlServer, SerialTwin) {
    spawn_pair_over(Vec::new())
}

/// A server and its twin over the same initial `orders` rows.
fn spawn_pair_over(orders: Vec<Vec<SqlValue>>) -> (SqlServer, SerialTwin) {
    let catalog = catalog();
    let db = database_from_rows(&catalog, &[("orders", orders)]).unwrap();
    let server = SqlServer::spawn(
        "127.0.0.1:0",
        catalog.clone(),
        db.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let twin = SerialTwin::new(catalog, db, Limits::default());
    (server, twin)
}

/// The read suite both sides answer during the quiescent phases.
const READ_SUITE: &[&str] = &[
    "SELECT customer, qty FROM orders",
    "SELECT customer FROM orders WHERE qty >= 4",
    "SELECT DISTINCT customer FROM orders",
    "SELECT SUM(qty) FROM orders",
    ":rows big",
    ":rows per_customer",
    ":rows nope",
    ":seq",
    ":ping",
];

#[test]
fn concurrent_run_equals_serial_replay() {
    let (server, mut twin) = spawn_pair();
    let mut writer = Client::connect(server.addr()).unwrap();

    // ---- Phase 1: scripted writes, byte-identical acks ----------------
    let mut stream = Stream::new(0xBA6_A16EB);
    let mut script = vec![
        "CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4".to_owned(),
        "CREATE VIEW per_customer AS SELECT customer, SUM(qty) FROM orders GROUP BY customer"
            .to_owned(),
    ];
    script.extend((0..40).map(|_| stream.write_stmt()));
    script.push(":check".to_owned());
    script.push(":stats".to_owned());

    for line in &script {
        let served = writer.request(line).unwrap();
        let replayed = twin.execute(line);
        assert_eq!(served, replayed, "divergent reply to {line:?}");
    }

    // ---- Phase 2: concurrent readers over the quiescent server --------
    let expected: Vec<Reply> = READ_SUITE.iter().map(|line| twin.execute(line)).collect();
    let readers = 8;
    let rounds = 25;
    let barrier = Arc::new(Barrier::new(readers));
    let addr = server.addr();
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for _ in 0..rounds {
                    for (line, want) in READ_SUITE.iter().zip(&expected) {
                        let got = client.request(line).unwrap();
                        assert_eq!(&got, want, "divergent concurrent read of {line:?}");
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // verify_all agrees over the wire and in process.
    assert_eq!(writer.request(":check").unwrap(), twin.execute(":check"));
    server.shutdown();
}

#[test]
fn racing_readers_only_observe_serial_prefix_states() {
    let (server, mut twin) = spawn_pair();

    // Pre-register the view both sides will watch.
    let setup = "CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4";
    let mut writer = Client::connect(server.addr()).unwrap();
    assert_eq!(writer.request(setup).unwrap(), twin.execute(setup));

    // The serial replay enumerates every state the database passes
    // through; a reader may land between any two writes but never
    // anywhere else.
    let mut stream = Stream::new(0x5EED);
    let writes: Vec<String> = (0..60).map(|_| stream.write_stmt()).collect();
    let mut legal_states = vec![twin.execute(":rows big").text];
    for line in &writes {
        twin.execute(line);
        legal_states.push(twin.execute(":rows big").text);
    }

    let readers = 6;
    let start = Arc::new(Barrier::new(readers + 1));
    let addr = server.addr();
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let start = Arc::clone(&start);
            let legal = legal_states.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                start.wait();
                let mut last_seq = 0u64;
                let mut observed = 0usize;
                loop {
                    let seq: u64 = client.request(":seq").unwrap().text.parse().unwrap();
                    assert!(seq >= last_seq, "seq went backwards: {last_seq} -> {seq}");
                    last_seq = seq;
                    let rows = client.request(":rows big").unwrap();
                    assert!(
                        legal.contains(&rows.text),
                        "observed a state outside the serial replay:\n{}",
                        rows.text
                    );
                    observed += 1;
                    // 61 = the view registration before the race + 60 writes.
                    if seq >= 61 {
                        break;
                    }
                }
                observed
            })
        })
        .collect();

    start.wait();
    for line in &writes {
        // Acks may be errors (scripted deletes of absent rows) — the
        // stream carries on either way, exactly as the twin did.
        let _ = writer.request(line).unwrap();
    }

    let total_reads: usize = reader_handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_reads >= readers, "readers exited without reading");

    // After the race settles, the served state is the twin's final state.
    let final_rows = writer.request(":rows big").unwrap();
    assert_eq!(final_rows.text, *legal_states.last().unwrap());
    assert_eq!(writer.request(":check").unwrap(), twin.execute(":check"));
    server.shutdown();
}

#[test]
fn concurrent_writers_serialize_without_loss() {
    // Several sessions insert disjoint rows concurrently; the writer
    // serializes them in some order, but the final state must hold every
    // acked row — checked against a twin replaying the same multiset of
    // writes (insert-only, so order cannot matter).
    let (server, mut twin) = spawn_pair();
    let sessions = 6;
    let per_session = 10;
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(sessions));
    let handles: Vec<_> = (0..sessions)
        .map(|s| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for i in 0..per_session {
                    let line = format!("INSERT INTO orders VALUES ('w{s}', {})", 1 + i % 5);
                    assert!(client.request(&line).unwrap().ok);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    for s in 0..sessions {
        for i in 0..per_session {
            let line = format!("INSERT INTO orders VALUES ('w{s}', {})", 1 + i % 5);
            assert!(twin.execute(&line).ok);
        }
    }
    let mut client = Client::connect(addr).unwrap();
    for line in [
        "SELECT customer, qty FROM orders",
        "SELECT SUM(qty) FROM orders",
        ":seq",
    ] {
        assert_eq!(
            client.request(line).unwrap(),
            twin.execute(line),
            "divergent post-race read of {line:?}"
        );
    }
    server.shutdown();
}

/// Short sessions simulated by the churn test, multiplexed over
/// [`CLIENT_THREADS`] client threads.
const SESSIONS: usize = 1_024;
const CLIENT_THREADS: usize = 16;

/// The view every churn session reads.
const BIG_VIEW: &str = "CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4";

/// A server and its twin over the same 64 seeded `orders` rows.
fn spawn_seeded_pair() -> (SqlServer, SerialTwin) {
    spawn_pair_over(
        (0..64)
            .map(|i| {
                vec![
                    SqlValue::Str(format!("c{}", i % 8)),
                    SqlValue::Int(1 + i % 7),
                ]
            })
            .collect(),
    )
}

/// The four statements of one simulated session. Every 8th session is a
/// writer: it inserts a row only it names, reads the view that must now
/// hold it, and deletes it again (always legal — the database is in a
/// steady state); the rest read.
fn session_script(session: usize) -> Vec<String> {
    if session.is_multiple_of(8) {
        let customer = format!("w{session}");
        return vec![
            format!("INSERT INTO orders VALUES ('{customer}', 6)"),
            ":rows big".to_owned(),
            format!("DELETE FROM orders VALUES ('{customer}', 6)"),
            ":seq".to_owned(),
        ];
    }
    vec![
        ":rows big".to_owned(),
        "SELECT customer FROM orders WHERE qty >= 4".to_owned(),
        ":seq".to_owned(),
        "SELECT SUM(qty) FROM orders".to_owned(),
    ]
}

#[test]
fn session_churn_equals_serial_replay() {
    let (server, mut twin) = spawn_seeded_pair();
    let mut setup = Client::connect(server.addr()).unwrap();
    assert_eq!(setup.request(BIG_VIEW).unwrap(), twin.execute(BIG_VIEW));
    drop(setup);

    let addr = server.addr();
    let start = Arc::new(Barrier::new(CLIENT_THREADS));
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for session in (t..SESSIONS).step_by(CLIENT_THREADS) {
                    let mut client = Client::connect(addr).unwrap();
                    for line in session_script(session) {
                        let reply = client.request(&line).unwrap();
                        assert!(reply.ok, "session {session}, {line:?}: {}", reply.text);
                        // Read-your-writes: the ack of the INSERT came
                        // after the snapshot holding it was published.
                        if session.is_multiple_of(8) && line == ":rows big" {
                            assert!(
                                reply.text.contains(&format!("w{session}")),
                                "writer {session} does not see its own row:\n{}",
                                reply.text
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // The writers interleaved in some order; each touched only its own
    // row and took it out again, so any order ends where the twin does.
    for session in (0..SESSIONS).step_by(8) {
        for line in session_script(session) {
            if route(&line) == Route::Write {
                assert!(twin.execute(&line).ok);
            }
        }
    }
    let mut fresh = Client::connect(addr).unwrap();
    for line in [":seq", ":rows big", ":check", ":stats"] {
        assert_eq!(
            fresh.request(line).unwrap(),
            twin.execute(line),
            "divergent post-churn reply to {line:?}"
        );
    }
    server.shutdown();
}
