//! `serve_mixed`: one client connection over loopback to an in-memory
//! server, one write to seven reads. The statements are those of
//! `query_small` and `update_stream`, so what is new here is the server
//! layer: frame codec, session loop, writer queue, snapshot publication
//! and the thread hand-offs between them. No fsync, so a server change is
//! not drowned by the disk. One connection, because two closed loops on
//! two cores spread 16–40 % run to run against 8–15 % for one.

use std::io;
use std::net::TcpStream;
use std::time::Instant;

use balg_core::eval::Limits;
use balg_server::frame::{decode_reply, read_frame, write_frame, MAX_FRAME};
use balg_server::{
    execute_read, execute_write, route, snapshot_of, Client, Reply, Route, SerialTwin,
    ServerConfig, SqlServer,
};
use balg_sql::prelude::SqlRuntime;

use crate::gen::{customer_name, SqlData};
use crate::harness::{
    class_layers, end_to_end, phase, Config, Layers, Measured, TraceWindow, Volumes,
};
use crate::manifest::Class;
use crate::rng::Rng;
use crate::span::Tracer;
use crate::staged;
use crate::stats::{digest, ns_to_us, Sample, Samples};
use crate::update_stream::{Stream, VIEWS};

pub const NAME: &str = "serve_mixed";
/// `:seq` does no work in the engine: its latency is the round trip
/// through frame codec, session loop and the two thread hand-offs, which
/// is the layer this workload exists for. (A point select here is 90 %
/// evaluation.)
pub const GATED: Class = Class::Seq;
pub const CLASSES: [Class; 6] = [
    Class::InsertCommit,
    Class::DeleteCommit,
    Class::PointSelect,
    Class::ViewRows,
    Class::AggSum,
    Class::Seq,
];

/// One write, three point selects, two view reads, one aggregate, one
/// `:seq`; the write alternates insert and delete.
const CYCLE: [Class; 8] = [
    Class::InsertCommit,
    Class::PointSelect,
    Class::PointSelect,
    Class::ViewRows,
    Class::PointSelect,
    Class::AggSum,
    Class::ViewRows,
    Class::Seq,
];
/// The tables of `update_stream`. Smaller ones would make the server a
/// larger share of each request, but over 256 rows this loop asks the
/// host for 54 k thread wake-ups a second, the host hands out about 30 k
/// (see `host::Canary::settle`), and from the second back-to-back run on
/// every number doubles. Over 2 048 rows it asks for 12 k.
const ORDERS: usize = 2048;
const CUSTOMERS: usize = 256;
/// The schedule's period: the cycle twice, once with each kind of write.
const PERIOD: usize = 2 * CYCLE.len();
/// The warm-up makes a set-up ≥ 1 s on the reference host; a segment is
/// 250 periods, about 0.7 s.
const VOLUMES: Volumes = Volumes {
    warmup: 350 * PERIOD,
    segment: 250 * PERIOD,
    min_segments: 4,
    capacity: 2_000_000,
};
/// Ops of the traced window; the program's counters over it are exact.
const TRACED_OPS: usize = 16_000;

/// The seeded request script: op `i` is a pure function of the seed and
/// `i`, so the oracle regenerates the sequence instead of storing it.
#[derive(Clone)]
struct Script {
    stream: Stream,
    rng: Rng,
}

impl Script {
    fn new(seed: u64, data: &SqlData) -> Script {
        Script {
            stream: Stream::new(seed, data),
            rng: Rng::new(seed, 0x81),
        }
    }

    fn next(&mut self, op: usize) -> (Class, String) {
        match CYCLE[op % CYCLE.len()] {
            Class::InsertCommit => {
                let class = if (op / CYCLE.len()).is_multiple_of(2) {
                    Class::InsertCommit
                } else {
                    Class::DeleteCommit
                };
                (class, self.stream.statement(class).0)
            }
            Class::PointSelect => (
                Class::PointSelect,
                format!(
                    "SELECT customer, qty FROM orders WHERE id = {}",
                    self.stream.live_id()
                ),
            ),
            Class::ViewRows => (Class::ViewRows, ":rows v_sel".to_owned()),
            Class::AggSum => (
                Class::AggSum,
                format!(
                    "SELECT SUM(qty) FROM orders WHERE customer = '{}'",
                    customer_name(self.rng.below(CUSTOMERS as u64) as usize)
                ),
            ),
            other => (other, ":seq".to_owned()),
        }
    }
}

/// A running server, the one connection to it, and the script position.
struct Session {
    server: Option<SqlServer>,
    client: Option<Client>,
    script: Script,
    /// Digest of every reply received, views first, in order.
    digests: Vec<u64>,
}

impl Drop for Session {
    fn drop(&mut self) {
        // Close the connection before the server joins its threads.
        self.client = None;
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Session {
    /// Calls into the program before the measured phase: spawn, connect,
    /// register the views over the wire.
    fn open(data: &SqlData, script: &Script) -> Session {
        let config = ServerConfig {
            threads: Some(1),
            ..ServerConfig::default()
        };
        let server = SqlServer::spawn("127.0.0.1:0", SqlData::catalog(), data.database(), config)
            .expect("server binds");
        let client = Client::connect(server.addr()).expect("client connects");
        let mut session = Session {
            server: Some(server),
            client: Some(client),
            script: script.clone(),
            digests: Vec::with_capacity(VOLUMES.capacity),
        };
        for (name, create) in VIEWS {
            let reply = session.request(create).expect("view request");
            assert!(reply.ok, "{name}: {}", reply.text);
            session.digests.push(digest(reply.ok, &reply.text));
        }
        // Empty views would mean the seed tables were ignored.
        let rows = session.request(":rows v_sel").expect("view read");
        assert!(rows.ok && rows.text.lines().count() > 1, "v_sel is empty");
        session
    }

    fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.client.as_mut().expect("session is open").request(line)
    }

    /// Shut the session down and hand over its reply digests.
    fn into_digests(mut self) -> Vec<u64> {
        std::mem::take(&mut self.digests)
    }

    /// Swap the `Client` for a raw stream the traced client drives.
    fn raw_stream(&mut self) -> TcpStream {
        let addr = self.server.as_ref().expect("session is open").addr();
        self.client = None;
        let stream = TcpStream::connect(addr).expect("traced client connects");
        stream.set_nodelay(true).expect("nodelay");
        stream
    }

    /// One staged op on `stream`; `wire_bytes` grows by both frames.
    fn staged(
        &mut self,
        tracer: &mut Tracer,
        stream: &mut TcpStream,
        wire_bytes: &mut usize,
        op: usize,
    ) -> Sample {
        let (class, line) = self.script.next(op);
        let start = Instant::now();
        let reply = staged_request(tracer, op, stream, &line);
        let ns = start.elapsed().as_nanos() as u64;
        let ok = reply.as_ref().is_ok_and(|r| r.ok);
        // Two 4-byte length prefixes and the reply's tag byte.
        *wire_bytes += 9 + line.len() + reply.as_ref().map_or(0, |r| r.text.len());
        self.digests
            .push(reply.map_or(0, |r| digest(r.ok, &r.text)));
        Sample {
            class: class as u8,
            ns,
            ok,
        }
    }

    /// One top-level op: `Client::request`, statement text in → reply
    /// out. The reply's digest is kept for the oracle's replay.
    fn top_level(&mut self, op: usize) -> Sample {
        let (class, line) = self.script.next(op);
        let start = Instant::now();
        let reply = self.request(&line);
        let ns = start.elapsed().as_nanos() as u64;
        let ok = reply.as_ref().is_ok_and(|r| r.ok);
        self.digests
            .push(reply.map_or(0, |r| digest(r.ok, &r.text)));
        Sample {
            class: class as u8,
            ns,
            ok,
        }
    }
}

/// The oracle: replay the session's sequence — views, then ops
/// `0..ops` — through a `SerialTwin` and compare every reply digest.
/// Returns the mismatch count and the twin's own timed samples (the
/// in-process cost of the same statements).
fn replay(data: &SqlData, script: &Script, ops: usize, digests: &[u64]) -> (u64, Samples) {
    let mut twin = SerialTwin::new(SqlData::catalog(), data.database(), Limits::default());
    let mut script = script.clone();
    let mut mismatches = 0;
    let mut expected = digests.iter();
    let mut check = |reply: &Reply| {
        mismatches += u64::from(expected.next() != Some(&digest(reply.ok, &reply.text)));
    };
    for (_, create) in VIEWS {
        check(&twin.execute(create));
    }
    let mut samples = Samples::with_capacity(ops);
    samples.run_count(&mut 0, ops, &mut |op| {
        let (class, line) = script.next(op);
        let start = Instant::now();
        let reply = twin.execute(&line);
        let ns = start.elapsed().as_nanos() as u64;
        check(&reply);
        Sample {
            class: class as u8,
            ns,
            ok: true,
        }
    });
    (mismatches, samples)
}

fn inputs(seed: u64) -> (SqlData, Script) {
    let data = SqlData::new(&mut Rng::new(seed, 0x80), ORDERS, CUSTOMERS);
    let script = Script::new(seed, &data);
    (data, script)
}

pub fn run(cfg: &Config) -> Measured {
    let (data, script) = inputs(cfg.seed);
    end_to_end(
        cfg,
        &VOLUMES,
        || Session::open(&data, &script),
        Session::top_level,
        |session, ops| (replay(&data, &script, ops, &session.into_digests()).0, 0),
    )
}

/// The traced client: the same request as three stages on a raw stream.
fn staged_request(
    tracer: &mut Tracer,
    op: usize,
    stream: &mut TcpStream,
    line: &str,
) -> io::Result<Reply> {
    tracer.enter("op", op);
    let sent = tracer.span("server.frame.encode", op, || {
        write_frame(stream, line.as_bytes())
    });
    let waited = tracer.span("server.wire.wait", op, || stream.peek(&mut [0u8; 1]));
    let reply = tracer.span("server.frame.decode", op, || {
        let payload = read_frame(stream, MAX_FRAME)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        decode_reply(&payload)
    });
    tracer.exit();
    sent?;
    waited?;
    reply
}

/// The session's sequence — views, warm-up, the traced window — once
/// more in-process, the window as stages: the SQL and incremental layers'
/// share of each request, and what publishing a snapshot after every
/// write costs. Returns how many replies differ from the wire's.
fn staged_replay(
    tracer: &mut Tracer,
    data: &SqlData,
    script: &Script,
    warmup: usize,
    ops: usize,
    digests: &[u64],
) -> u64 {
    let mut rt = SqlRuntime::new(SqlData::catalog(), data.database());
    rt.set_parallel_threads(1);
    let mut script = script.clone();
    let mut mismatches = 0;
    let mut expected = digests.iter();
    let mut check = |reply: &Reply| {
        mismatches += u64::from(expected.next() != Some(&digest(reply.ok, &reply.text)));
    };
    let mut seq = 0u64;
    for (_, create) in VIEWS {
        seq += 1;
        check(&execute_write(&mut rt, create));
    }
    let mut snap = snapshot_of(&rt, seq);
    for op in 0..warmup + ops {
        let (_, line) = script.next(op);
        let staged = op >= warmup;
        let reply = match (route(&line), staged) {
            (Route::Read, false) => execute_read(&snap, &line),
            (Route::Read, true) => staged::read(tracer, op, &snap, &line),
            (Route::Write, false) => {
                seq += 1;
                let reply = execute_write(&mut rt, &line);
                snap = snapshot_of(&rt, seq);
                reply
            }
            (Route::Write, true) => {
                seq += 1;
                let reply = staged::write(tracer, op, &mut rt, &line);
                snap = tracer.span("server.exec.snapshot_of", op, || snapshot_of(&rt, seq));
                reply
            }
        };
        check(&reply);
    }
    mismatches
}

pub fn trace(cfg: &Config, layers: &mut Layers) -> Measured {
    let (data, script) = inputs(cfg.seed);
    let plain = phase(
        cfg,
        &VOLUMES,
        cfg.seconds / 2.0,
        &mut || Session::open(&data, &script),
        &mut Session::top_level,
    );
    let (untraced, mut warm) = (plain.samples, plain.warm);
    let warmup = cfg.ops(VOLUMES.warmup);
    let (wire_mismatches, in_process) = replay(
        &data,
        &script,
        warmup + untraced.attempted() as usize,
        &plain.session.into_digests(),
    );
    class_layers(&untraced, &CLASSES, layers);
    // Both sides as the quietest segment's median: the two phases run
    // minutes apart and the host moves more between them than the wire
    // costs.
    let quiet_p50 =
        |samples: &Samples| ns_to_us(samples.best_segment_p50(GATED as u8, VOLUMES.segment));
    layers.insert(
        "server.wire.overhead_us".into(),
        quiet_p50(&untraced) - quiet_p50(&in_process),
    );

    // The traced window: a fresh server, so it starts at a fixed op and
    // the script state is the same on every run at this seed.
    let ops = cfg.ops(TRACED_OPS);
    let mut window = TraceWindow::open(ops, 16);
    let mut session = Session::open(&data, &script);
    warm.run_count(&mut 0, warmup, &mut |op| session.top_level(op));
    let mut stream = session.raw_stream();
    let mut wire_bytes = 0usize;
    let traced = window.run(warmup, &mut |tracer, op| {
        session.staged(tracer, &mut stream, &mut wire_bytes, op)
    });
    drop(stream);
    // In-process again, after the window: the window's counters are the
    // server's alone.
    let staged_mismatches = staged_replay(
        &mut window.tracer,
        &data,
        &script,
        warmup,
        ops,
        &session.into_digests(),
    );
    window.close(cfg, NAME, VOLUMES.segment, &untraced, &traced, layers);
    layers.insert(
        "server.frame.bytes_per_op".into(),
        wire_bytes as f64 / ops as f64,
    );
    Measured {
        setup_s: plain.setup_s,
        peak_rss_mb: plain.peak_rss_mb,
        samples: untraced,
        segment_ops: VOLUMES.segment,
        other_failed: warm.failed + traced.failed + wire_mismatches + staged_mismatches,
        other_attempted: warm.attempted() + traced.attempted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_replay_flags_a_wrong_digest() {
        let (data, script) = inputs(4);
        let mut session = Session::open(&data, &script);
        let mut samples = Samples::with_capacity(0);
        samples.run_count(&mut 0, 64, &mut |op| session.top_level(op));
        assert_eq!(samples.failed, 0);
        let mut digests = std::mem::take(&mut session.digests);
        drop(session);
        assert_eq!(digests.len(), VIEWS.len() + 64);
        assert_eq!(replay(&data, &script, 64, &digests).0, 0);
        digests[VIEWS.len() + 10] ^= 1;
        assert_eq!(replay(&data, &script, 64, &digests).0, 1);
    }

    #[test]
    fn the_script_keeps_the_cycle_and_alternates_writes() {
        let (_, mut script) = inputs(4);
        let classes: Vec<Class> = (0..16).map(|op| script.next(op).0).collect();
        assert_eq!(classes[0], Class::InsertCommit);
        assert_eq!(classes[8], Class::DeleteCommit);
        assert_eq!(classes[1..8], CYCLE[1..]);
        assert_eq!(classes[9..], CYCLE[1..]);
    }
}
