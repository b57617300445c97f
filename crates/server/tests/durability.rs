//! Server-level durability and robustness: restart recovery over real
//! TCP, writer-queue admission control, and idle-session timeouts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use balg_core::schema::Database;
use balg_server::prelude::*;
use balg_sql::prelude::{database_from_rows, Catalog, SqlValue};

/// Fresh per-test scratch directory (no tempdir crate in the tree).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("balg-server-{tag}-{}-{n}", std::process::id()));
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    dir
}

fn cleanup(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn durable_server_survives_restart() {
    let dir = scratch("restart");
    let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);

    {
        let config = ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = SqlServer::spawn(
            "127.0.0.1:0",
            catalog,
            database_from_rows(&Catalog::new(), &[]).unwrap(),
            config,
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let reply = client
            .request("INSERT INTO orders VALUES ('ann', 3), ('bob', 5)")
            .unwrap();
        assert!(reply.ok, "{}", reply.text);
        let reply = client
            .request("CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4")
            .unwrap();
        assert!(reply.ok, "{}", reply.text);

        // CHECKPOINT routes through the writer and compacts the log.
        let reply = client.request("CHECKPOINT").unwrap();
        assert!(reply.ok, "{}", reply.text);
        assert!(reply.text.contains("checkpoint complete"), "{}", reply.text);

        // A post-checkpoint write lands in the fresh WAL tail.
        let reply = client
            .request("INSERT INTO orders VALUES ('cleo', 9)")
            .unwrap();
        assert!(reply.ok, "{}", reply.text);

        let stats = client.request(":stats").unwrap();
        assert!(stats.ok);
        assert!(stats.text.contains("durable: lsn"), "{}", stats.text);
        server.shutdown();
    }

    // Reopen with an EMPTY catalog: schema, view, and data all come back
    // from the directory (metas + snapshot + WAL replay).
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", Catalog::new(), Database::new(), config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let rows = client.request("SELECT customer FROM orders").unwrap();
    assert!(rows.ok, "{}", rows.text);
    for name in ["ann", "bob", "cleo"] {
        assert!(rows.text.contains(name), "missing {name}: {}", rows.text);
    }
    let rows = client.request(":rows big").unwrap();
    assert!(rows.ok, "{}", rows.text);
    assert!(rows.text.contains("bob"), "{}", rows.text);
    assert!(rows.text.contains("cleo"), "{}", rows.text);
    assert!(!rows.text.contains("ann"), "{}", rows.text);
    assert_eq!(client.request(":check").unwrap(), Reply::ok("consistent"));
    let stats = client.request(":stats").unwrap();
    assert!(
        stats.text.contains("batches replayed at open"),
        "{}",
        stats.text
    );

    // The recovered instance keeps serving writes durably.
    let reply = client
        .request("INSERT INTO orders VALUES ('dave', 1)")
        .unwrap();
    assert!(reply.ok, "{}", reply.text);
    server.shutdown();
    cleanup(&dir);
}

#[test]
fn full_writer_queue_rejects_with_busy_instead_of_blocking() {
    // 800 seed rows make the view below a genuinely slow write: its `<`
    // is no equi-join, so 640 000 pairs are built and filtered, which
    // takes a few hundred milliseconds in a release build and longer in a
    // debug one — well past the sleeps below. `:seq` proves it: it counts
    // published writes, and must not move while the probe is answered.
    let catalog = Catalog::new().with_table("t", &[("v", true)]);
    let rows: Vec<Vec<SqlValue>> = (0..800i64).map(|v| vec![SqlValue::Int(v)]).collect();
    let db = database_from_rows(&catalog, &[("t", rows)]).unwrap();
    let config = ServerConfig {
        writer_queue: 1,
        write_batch: 1,
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", catalog, db, config).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let seq = |client: &mut Client| client.request(":seq").unwrap().text;
    let before = seq(&mut client);

    // Occupy the writer with the slow CREATE VIEW from a side thread.
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request("CREATE VIEW below AS SELECT a.v FROM t a, t b WHERE a.v < b.v")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    // Fill the single queue slot from another side thread…
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.request("INSERT INTO t VALUES (1000)").unwrap()
    });
    std::thread::sleep(Duration::from_millis(20));
    // …so this write finds the queue full and is rejected immediately,
    // well before the slow job completes: nothing is published before the
    // probe is sent, nor by the time its reply is in.
    assert_eq!(
        seq(&mut client),
        before,
        "the slow write ended before the probe"
    );
    let started = std::time::Instant::now();
    let reply = client.request("INSERT INTO t VALUES (2000)").unwrap();
    assert_eq!(
        seq(&mut client),
        before,
        "the slow write ended during the probe"
    );
    assert!(!reply.ok, "{}", reply.text);
    assert!(reply.text.contains("busy"), "{}", reply.text);
    assert!(reply.text.contains("retry"), "{}", reply.text);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "busy reply should not wait for the slow writer"
    );

    let slow = slow.join().unwrap();
    assert!(slow.ok, "{}", slow.text);
    let queued = queued.join().unwrap();
    assert!(queued.ok, "{}", queued.text);

    // The rejection is observable, and the accepted writes all landed.
    let stats = client.request(":stats").unwrap();
    assert!(
        stats.text.contains("1 writes rejected busy"),
        "{}",
        stats.text
    );
    assert_eq!(client.request(":check").unwrap(), Reply::ok("consistent"));
    let rows = client.request("SELECT v FROM t WHERE v >= 1000").unwrap();
    assert_eq!(rows.text.lines().last(), Some("(1 rows)"), "{}", rows.text);
    server.shutdown();
}

#[test]
fn idle_sessions_are_closed_after_the_read_timeout() {
    let catalog = Catalog::new().with_table("t", &[("v", true)]);
    let db = database_from_rows(&catalog, &[]).unwrap();
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", catalog, db, config).unwrap();

    let mut idle = Client::connect(server.addr()).unwrap();
    assert!(idle.request(":ping").unwrap().ok);
    std::thread::sleep(Duration::from_millis(400));
    // The server closed the session while we idled: the next request
    // fails instead of hanging.
    assert!(idle.request(":ping").is_err());

    // An active session keeps working, and the close is observable.
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert!(fresh.request(":ping").unwrap().ok);
    let stats = fresh.request(":stats").unwrap();
    assert!(
        stats.text.contains("1 sessions closed idle"),
        "{}",
        stats.text
    );
    server.shutdown();
}

#[test]
fn durable_server_seeds_declared_tables_and_keeps_the_seed_across_restart() {
    let dir = scratch("seed");
    let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
    let s = |x: &str| SqlValue::Str(x.into());
    let seed = || {
        let rows = vec![
            vec![s("ann"), SqlValue::Int(3)],
            vec![s("ann"), SqlValue::Int(3)], // a duplicate row counts
            vec![s("bob"), SqlValue::Int(5)],
        ];
        database_from_rows(&catalog, &[("orders", rows)]).unwrap()
    };
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let count = |server: &SqlServer| {
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.request("SELECT COUNT(*) FROM orders").unwrap();
        assert!(reply.ok, "{}", reply.text);
        reply.text
    };

    // Fresh directory: `open` declares `orders` empty, the seed still lands.
    let server = SqlServer::spawn("127.0.0.1:0", catalog.clone(), seed(), config()).unwrap();
    let seeded = count(&server);
    assert_eq!(seeded.split_whitespace().next(), Some("3"), "{seeded}");
    server.shutdown();

    // The seed was logged: a restart without one serves the same rows.
    let server =
        SqlServer::spawn("127.0.0.1:0", Catalog::new(), Database::new(), config()).unwrap();
    assert_eq!(count(&server), seeded);
    server.shutdown();

    // Seeding over recovered rows is refused, not skipped.
    let Err(refused) = SqlServer::spawn("127.0.0.1:0", catalog.clone(), seed(), config()) else {
        panic!("a seed over recovered rows must be an error")
    };
    assert!(refused.to_string().contains("orders"), "{refused}");
    cleanup(&dir);
}

/// A durable server group-commits: each drained batch of writes is logged
/// unsynced and reaches the disk through one `Runtime::sync_wal`. While it
/// serves, `wal.log` runs a zero tail past the log; a clean shutdown cuts
/// the file back to exactly its logged bytes, and the directory reopens to
/// the server's last state.
#[test]
fn a_clean_shutdown_cuts_the_wal_back_to_its_frames() {
    let dir = scratch("group-commit");
    let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let wal_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let server = SqlServer::spawn(
        "127.0.0.1:0",
        catalog,
        database_from_rows(&Catalog::new(), &[]).unwrap(),
        config(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..20 {
        let reply = client
            .request(&format!("INSERT INTO orders VALUES ('c{i}', {i})"))
            .unwrap();
        assert!(reply.ok, "{}", reply.text);
    }
    let reply = client
        .request("DELETE FROM orders VALUES ('c3', 3)")
        .unwrap();
    assert!(reply.ok, "{}", reply.text);
    let stats = client.request(":stats").unwrap().text;
    let logged: u64 = stats
        .split(", ")
        .find_map(|part| part.strip_suffix(" WAL bytes since checkpoint"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no WAL byte count in {stats}"));
    assert!(wal_len() > logged, "no zero tail while serving");
    let rows = client
        .request("SELECT customer, qty FROM orders")
        .unwrap()
        .text;
    server.shutdown();
    assert_eq!(wal_len(), logged);

    let server =
        SqlServer::spawn("127.0.0.1:0", Catalog::new(), Database::new(), config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reopened = client.request("SELECT customer, qty FROM orders").unwrap();
    assert!(reopened.ok, "{}", reopened.text);
    assert_eq!(reopened.text, rows);
    server.shutdown();
    cleanup(&dir);
}
