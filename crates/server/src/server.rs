//! The concurrent server: snapshot-isolated readers, one serialized
//! writer.
//!
//! ```text
//!  session threads (one per TCP connection)
//!    read stmt  ──▶ pin Arc<Snapshot> ──▶ execute_read ──▶ reply
//!    write stmt ──▶ bounded job queue ──▶ writer thread
//!                                          │ drain batch
//!                                          │ execute_write × n
//!                                          │ publish Arc<Snapshot>   (1)
//!                                          └ ack each job            (2)
//! ```
//!
//! Readers never block on the writer and the writer never blocks on
//! readers: a read pins the current snapshot with one `Arc` clone and
//! evaluates entirely against immutable data. The writer applies each
//! statement through the incremental engine, then **publishes before
//! acknowledging** — so once a client sees its write acked, every
//! subsequent read on any connection observes it (read-your-writes,
//! monotonic for everyone). Between a write being applied and its ack,
//! other sessions may or may not see it yet; they can only move forward
//! in time (`:seq` is monotonic).
//!
//! Publishing (1) builds the new snapshot, swaps it in under the slot's
//! write lock, and drops the replaced one after releasing it. The new
//! snapshot shares its bags with the runtime; once the last reader of the
//! replaced one is done, its bags become the spares the next batch
//! patches in place (left-right, one bag at a time: see
//! `balg_core::bag::Bag::patch`). While readers release their
//! snapshots, a write copies no slice a snapshot shares.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use balg_core::eval::Limits;
use balg_core::schema::Database;
use balg_sql::prelude::{Catalog, SqlRuntime};

use crate::exec::{execute_read, execute_write, route, snapshot_of, Reply, Route, Snapshot};
use crate::frame::{encode_reply, poll_readable, read_frame, write_frame, MAX_FRAME};

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bound of the writer's job queue. A write arriving while the queue
    /// is full is **rejected immediately** with a structured `busy` reply
    /// carrying a retry hint — admission control instead of unbounded
    /// blocking — and counted in `:stats`.
    pub writer_queue: usize,
    /// Maximum write statements applied between two snapshot
    /// publications. Larger batches amortize snapshot construction;
    /// replies are withheld until the batch publishes either way.
    pub write_batch: usize,
    /// Maximum accepted frame payload in bytes.
    pub max_frame: u32,
    /// Evaluation budgets for queries and view maintenance.
    pub limits: Limits,
    /// Serve durably out of this directory: the latest snapshot is
    /// loaded, the WAL replayed, and every committed write fsynced (one
    /// group sync per drained writer batch) **before** it is acked.
    pub data_dir: Option<PathBuf>,
    /// Per-session read timeout: a session idle past this is closed
    /// cleanly (counted in `:stats`). `None` means sessions may idle
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Slow-query log threshold in milliseconds (the binary's
    /// `--slow-ms N`): any statement whose end-to-end service time
    /// (queue wait included) reaches it is logged to stderr and counted
    /// in `balg_server_slow_queries_total`. `None` disables the log.
    pub slow_ms: Option<u64>,
    /// Inert: never read, since every kernel is serial. Kept only because
    /// the frozen end-to-end benchmark (`benchmark/`) sets it; ROADMAP
    /// item 1(g) removes that use and then this field.
    pub threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            writer_queue: 256,
            write_batch: 64,
            max_frame: MAX_FRAME,
            limits: Limits::default(),
            data_dir: None,
            read_timeout: None,
            slow_ms: None,
            threads: None,
        }
    }
}

/// Lazily-resolved handles into the process-global metrics registry.
/// The absent-registry answer is deliberately not cached: a registry
/// installed mid-life starts receiving samples at the next request.
struct ServerObs {
    read_duration: balg_obs::Histogram,
    write_duration: balg_obs::Histogram,
    queue_depth: balg_obs::Gauge,
    busy_rejections: balg_obs::Counter,
    idle_closes: balg_obs::Counter,
    slow_queries: balg_obs::Counter,
}

static SERVER_OBS: std::sync::OnceLock<ServerObs> = std::sync::OnceLock::new();

fn server_obs() -> Option<&'static ServerObs> {
    if let Some(obs) = SERVER_OBS.get() {
        return Some(obs);
    }
    let registry = balg_obs::global()?;
    let _ = SERVER_OBS.set(ServerObs {
        read_duration: registry.histogram(
            "balg_server_read_duration_ns",
            "Read-statement service time (snapshot pin to reply), nanoseconds",
        ),
        write_duration: registry.histogram(
            "balg_server_write_duration_ns",
            "Write-statement service time (enqueue to ack, queue wait included), nanoseconds",
        ),
        queue_depth: registry.gauge(
            "balg_server_queue_depth",
            "Write jobs currently enqueued or being applied",
        ),
        busy_rejections: registry.counter(
            "balg_server_busy_rejections_total",
            "Writes rejected at admission because the writer queue was full",
        ),
        idle_closes: registry.counter(
            "balg_server_idle_closes_total",
            "Sessions closed for idling past the read timeout",
        ),
        slow_queries: registry.counter(
            "balg_server_slow_queries_total",
            "Statements that reached the slow-query threshold",
        ),
    });
    SERVER_OBS.get()
}

/// One queued write: the statement and where to send its reply.
struct WriteJob {
    line: String,
    reply: mpsc::Sender<Reply>,
}

/// State shared between the accept loop, session threads, and the writer.
struct Shared {
    snapshot: RwLock<Arc<Snapshot>>,
    /// `None` once shutdown begins — dropping the last sender ends the
    /// writer after it drains the queue.
    writer: Mutex<Option<SyncSender<WriteJob>>>,
    shutdown: AtomicBool,
    max_frame: u32,
    read_timeout: Option<Duration>,
    /// Slow-query log threshold in milliseconds (`None` disables it).
    slow_ms: Option<u64>,
    /// Writes rejected at admission because the writer queue was full.
    busy_rejections: AtomicU64,
    /// Sessions closed for idling past the read timeout.
    idle_closes: AtomicU64,
}

/// A running SQL server. Dropping it shuts it down.
pub struct SqlServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl SqlServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve a
    /// database under the given catalog. With a `data_dir`, `db` seeds the
    /// bases that hold no rows yet (all of them on a fresh directory, and
    /// durably: the seed is logged); a non-empty seed for a base the
    /// directory recovered rows for is an error — restart with an empty
    /// `db`.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        catalog: Catalog,
        db: Database,
        config: ServerConfig,
    ) -> io::Result<SqlServer> {
        let ServerConfig {
            writer_queue,
            write_batch,
            max_frame,
            limits,
            data_dir,
            read_timeout,
            slow_ms,
            threads: _,
        } = config;
        let rt = match &data_dir {
            None => SqlRuntime::with_limits(catalog, db, limits),
            Some(dir) => {
                let mut rt = SqlRuntime::open(&catalog, dir, limits)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                // Seed every base that holds no rows yet — on a fresh
                // directory that is all of them, `open` having only
                // declared the catalog's tables empty. Rows the directory
                // recovered are never silently kept over, or replaced by,
                // a seed for the same base: that is an error.
                for (name, bag) in db.iter().filter(|(_, bag)| !bag.is_empty()) {
                    let holds_rows = rt
                        .runtime()
                        .database()
                        .get(name)
                        .is_some_and(|existing| !existing.is_empty());
                    if holds_rows {
                        return Err(io::Error::other(format!(
                            "data directory {} already holds rows for {name}; \
                             refusing to seed over them",
                            dir.display()
                        )));
                    }
                    rt.backend_mut()
                        .load_base(name, bag.clone())
                        .map_err(|e| io::Error::other(e.to_string()))?;
                }
                // The writer thread group-commits: one fsync per drained
                // batch, before any of its acks.
                rt.backend_mut().set_sync_on_commit(false);
                rt
            }
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (sender, receiver) = mpsc::sync_channel(writer_queue.max(1));
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(snapshot_of(&rt, 0))),
            writer: Mutex::new(Some(sender)),
            shutdown: AtomicBool::new(false),
            max_frame,
            read_timeout,
            slow_ms,
            busy_rejections: AtomicU64::new(0),
            idle_closes: AtomicU64::new(0),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            let batch = write_batch.max(1);
            thread::spawn(move || writer_loop(rt, &receiver, &shared, batch))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(SqlServer {
            shared,
            addr,
            accept: Some(accept),
            writer: Some(writer),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The sequence number of the currently published snapshot.
    pub fn seq(&self) -> u64 {
        crate::lock::read(&self.shared.snapshot).seq
    }

    /// Stop accepting, drain queued writes, and join the service threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drop the writer sender: the writer drains what's queued and
        // exits once every transient session clone is gone too.
        *crate::lock::lock(&self.shared.writer) = None;
        // The accept loop blocks in accept(); a self-connection wakes it
        // so it can observe the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SqlServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Sessions are detached: they end when their client disconnects
        // (clean EOF) or on a protocol error.
        thread::spawn(move || {
            let _ = session_loop(stream, &shared);
        });
    }
}

/// How long a session polls for its client's next request before it
/// blocks: a client in a request/reply loop sends it within microseconds
/// of the reply, and one that does not is idle — the session then sleeps
/// as before, at the price of this much CPU per statement.
const NEXT_REQUEST_POLL: Duration = Duration::from_micros(50);

fn session_loop(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.read_timeout);
    loop {
        poll_readable(&stream, NEXT_REQUEST_POLL)?;
        let payload = match read_frame(&mut stream, shared.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            // A read timeout means the session idled past the configured
            // limit: close it cleanly (the client sees EOF) and count it.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                shared.idle_closes.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = server_obs() {
                    obs.idle_closes.inc();
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let line = String::from_utf8_lossy(&payload).into_owned();
        let reply = dispatch(&line, shared);
        write_frame(&mut stream, &encode_reply(&reply))?;
    }
}

/// Server-level counter lines appended to `:stats` replies. Only emitted
/// when an incident actually happened, so an idle server's `:stats` stays
/// byte-identical to its serial twin's.
fn server_stats_suffix(shared: &Shared) -> String {
    let busy = shared.busy_rejections.load(Ordering::Relaxed);
    let idle = shared.idle_closes.load(Ordering::Relaxed);
    let mut out = String::new();
    if busy > 0 {
        out.push_str(&format!("\nserver: {busy} writes rejected busy"));
    }
    if idle > 0 {
        out.push_str(&format!("\nserver: {idle} sessions closed idle"));
    }
    out
}

fn dispatch(line: &str, shared: &Shared) -> Reply {
    let kind = route(line);
    let obs = server_obs();
    // One clock read per request, and only when someone is listening —
    // the metrics-off path stays timing-free.
    let start = (obs.is_some() || shared.slow_ms.is_some()).then(std::time::Instant::now);
    let reply = dispatch_routed(line, kind, shared, obs);
    if let Some(start) = start {
        let elapsed = start.elapsed();
        if let Some(obs) = obs {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            match kind {
                Route::Read => obs.read_duration.record(ns),
                Route::Write => obs.write_duration.record(ns),
            }
        }
        if let Some(threshold) = shared.slow_ms {
            let ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
            if ms >= threshold {
                if let Some(obs) = obs {
                    obs.slow_queries.inc();
                }
                eprintln!("[balg-server] slow query ({ms} ms >= {threshold} ms): {line}");
            }
        }
    }
    reply
}

fn dispatch_routed(line: &str, kind: Route, shared: &Shared, obs: Option<&ServerObs>) -> Reply {
    match kind {
        Route::Read => {
            // Pin the published snapshot — one Arc clone, then the read
            // lock is released and evaluation runs unsynchronized.
            let snapshot = Arc::clone(&crate::lock::read(&shared.snapshot));
            execute_read(&snapshot, line)
        }
        Route::Write => {
            let sender = crate::lock::lock(&shared.writer).clone();
            let Some(sender) = sender else {
                return Reply::err("server is shutting down");
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = WriteJob {
                line: line.to_owned(),
                reply: reply_tx,
            };
            // Admission control: a full queue answers *now* with a busy
            // reply instead of blocking the session on the writer.
            match sender.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = obs {
                        obs.busy_rejections.inc();
                    }
                    return Reply::err("busy: writer queue is full, retry shortly");
                }
                Err(TrySendError::Disconnected(_)) => {
                    return Reply::err("server is shutting down");
                }
            }
            if let Some(obs) = obs {
                obs.queue_depth.inc();
            }
            let received = reply_rx.recv();
            if let Some(obs) = obs {
                obs.queue_depth.dec();
            }
            let mut reply = match received {
                Ok(reply) => reply,
                Err(_) => return Reply::err("writer terminated before replying"),
            };
            let is_stats = line
                .trim_start()
                .strip_prefix(':')
                .is_some_and(|rest| rest.split_whitespace().next() == Some("stats"));
            if reply.ok && is_stats {
                reply.text.push_str(&server_stats_suffix(shared));
            }
            reply
        }
    }
}

fn writer_loop(mut rt: SqlRuntime, receiver: &Receiver<WriteJob>, shared: &Shared, batch: usize) {
    let mut seq = 0u64;
    while let Ok(first) = receiver.recv() {
        let mut jobs = vec![first];
        while jobs.len() < batch {
            match receiver.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        let mut replies: Vec<(mpsc::Sender<Reply>, Reply)> = jobs
            .into_iter()
            .map(|job| {
                let reply = execute_write(&mut rt, &job.line);
                seq += 1;
                (job.reply, reply)
            })
            .collect();
        // Group commit: every statement above was logged unsynced; one
        // fsync makes the whole batch durable before any of it is acked
        // (no-op for an in-memory server). If the sync fails, nothing may
        // be acked as committed — every success in the batch becomes an
        // error, since its durability is unknown.
        if let Err(e) = rt.backend_mut().sync_wal() {
            for (_, reply) in &mut replies {
                if reply.ok {
                    *reply = Reply::err(format!("commit not durable: {e}"));
                }
            }
        }
        // Publish BEFORE acking (read-your-writes): a client that has
        // its ack in hand can only ever read this snapshot or a later
        // one. A send can fail only if the session already vanished. The
        // snapshot is built before the write lock and the replaced one
        // dropped after it, so a reader pinning meanwhile waits for
        // neither; dropping the last clone of the replaced snapshot is
        // what frees the bases' and views' spares for the next write.
        let fresh = Arc::new(snapshot_of(&rt, seq));
        let replaced = std::mem::replace(&mut *crate::lock::write(&shared.snapshot), fresh);
        drop(replaced);
        for (sender, reply) in replies {
            let _ = sender.send(reply);
        }
    }
}
