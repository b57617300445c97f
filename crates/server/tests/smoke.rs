//! End-to-end exercise of the served statement surface over real TCP.

use balg_core::eval::Limits;
use balg_server::prelude::*;
use balg_sql::prelude::{database_from_rows, Catalog, SqlValue};

fn spawn_default() -> SqlServer {
    let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
    let db = database_from_rows(&catalog, &[]).unwrap();
    SqlServer::spawn("127.0.0.1:0", catalog, db, ServerConfig::default()).unwrap()
}

#[test]
fn full_statement_surface_over_the_wire() {
    let server = spawn_default();
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(client.request(":ping").unwrap(), Reply::ok("pong"));
    assert_eq!(client.request(":seq").unwrap(), Reply::ok("0"));

    let reply = client
        .request("INSERT INTO orders VALUES ('ann', 3), ('bob', 5)")
        .unwrap();
    assert_eq!(reply, Reply::ok("orders: +2 -0"));
    // Read-your-writes: the ack implies the snapshot is already public.
    assert_eq!(client.request(":seq").unwrap(), Reply::ok("1"));

    let reply = client
        .request("CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4")
        .unwrap();
    assert!(reply.ok, "{}", reply.text);
    let rows = client.request(":rows big").unwrap();
    assert!(rows.ok);
    assert!(rows.text.contains("bob"), "{}", rows.text);
    assert!(!rows.text.contains("ann"), "{}", rows.text);

    // A second CREATE VIEW under the live name is refused, as the serial
    // twin refuses it, and the first view's rows stay.
    let again = "CREATE VIEW big AS SELECT customer FROM orders";
    let reply = client.request(again).unwrap();
    assert_eq!(reply, Reply::err("name big is already a table or view"));
    let catalog = Catalog::new().with_table("orders", &[("customer", false), ("qty", true)]);
    let mut twin = SerialTwin::new(
        catalog.clone(),
        database_from_rows(&catalog, &[]).unwrap(),
        Limits::default(),
    );
    assert!(
        twin.execute("CREATE VIEW big AS SELECT customer FROM orders WHERE qty >= 4")
            .ok
    );
    assert_eq!(twin.execute(again), reply);
    assert_eq!(client.request(":rows big").unwrap(), rows);

    // One-shot queries answer from the same snapshot state.
    let select = client
        .request("SELECT customer FROM orders WHERE qty >= 4")
        .unwrap();
    assert_eq!(select.text, rows.text);

    // Runtime table declaration, then use it in a join.
    let reply = client.request(":table vip customer").unwrap();
    assert_eq!(reply, Reply::ok("table vip (1 columns)"));
    client.request("INSERT INTO vip VALUES ('bob')").unwrap();
    let join = client
        .request("SELECT o.customer FROM orders o, vip v WHERE o.customer = v.customer")
        .unwrap();
    assert!(join.ok);
    assert!(join.text.contains("bob"), "{}", join.text);

    assert_eq!(client.request(":check").unwrap(), Reply::ok("consistent"));
    assert_eq!(
        client.request(":check big").unwrap(),
        Reply::ok("consistent")
    );
    let stats = client.request(":stats").unwrap();
    assert!(stats.ok);
    assert!(stats.text.contains("batches"), "{}", stats.text);

    // Errors come back as error replies, not closed connections.
    let reply = client.request("INSERT INTO missing VALUES (1)").unwrap();
    assert!(!reply.ok);
    let reply = client.request(":rows nope").unwrap();
    assert_eq!(reply, Reply::err("unknown view nope"));
    let reply = client.request(":frob").unwrap();
    assert!(!reply.ok);
    let reply = client.request("SELECT nope FROM orders").unwrap();
    assert!(!reply.ok);

    // The session survives all of the above.
    assert_eq!(client.request(":ping").unwrap(), Reply::ok("pong"));
    server.shutdown();
}

#[test]
fn writes_become_visible_to_other_sessions_once_acked() {
    let server = spawn_default();
    let mut writer = Client::connect(server.addr()).unwrap();
    let mut reader = Client::connect(server.addr()).unwrap();

    writer
        .request("INSERT INTO orders VALUES ('cleo', 9)")
        .unwrap();
    // The ack happened-before this read, and publication happens before
    // the ack — so this session must see the row.
    let rows = reader.request("SELECT customer FROM orders").unwrap();
    assert!(rows.text.contains("cleo"), "{}", rows.text);
    assert_eq!(reader.request(":seq").unwrap(), Reply::ok("1"));
    server.shutdown();
}

#[test]
fn dropped_views_report_their_cause_over_the_wire() {
    let catalog = Catalog::new()
        .with_table("left_t", &[("val", false)])
        .with_table("right_t", &[("val", false)]);
    let db = database_from_rows(
        &catalog,
        &[(
            "left_t",
            vec![
                vec![SqlValue::Str("a".into())],
                vec![SqlValue::Str("b".into())],
            ],
        )],
    )
    .unwrap();
    let config = ServerConfig {
        limits: Limits {
            max_bag_elements: 4,
            ..Limits::default()
        },
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", catalog, db, config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client
        .request("CREATE VIEW pairs AS SELECT l.val, r.val FROM left_t l, right_t r")
        .unwrap();
    // The cross join outgrows the element budget: maintenance and the
    // degraded re-derivation both fail, so the writer drops the view and
    // the INSERT acks with the failure.
    let reply = client
        .request("INSERT INTO right_t VALUES ('x'), ('y'), ('z')")
        .unwrap();
    assert!(!reply.ok);
    assert!(reply.text.contains("pairs"), "{}", reply.text);

    // The base update itself landed …
    let rows = client.request("SELECT val FROM right_t").unwrap();
    assert_eq!(rows.text.lines().last(), Some("(3 rows)"));
    // … and the dropped view answers with its cause, not a bare unknown.
    let reply = client.request(":rows pairs").unwrap();
    assert!(!reply.ok);
    assert!(
        reply.text.contains("dropped after failed re-derivation"),
        "{}",
        reply.text
    );
    let reply = client.request(":check").unwrap();
    assert!(!reply.ok);
    assert!(reply.text.contains("dropped"), "{}", reply.text);
    let stats = client.request(":stats").unwrap();
    assert!(stats.text.contains("dropped view pairs"), "{}", stats.text);
    server.shutdown();
}

/// A 140 KB line nests 20 000 operators: it used to overflow the session
/// thread's stack, which takes the whole process down. Now both parsers
/// stop at `MAX_EXPR_DEPTH` and the session carries on.
#[test]
fn hostile_nesting_depth_is_an_error_reply() {
    let server = spawn_default();
    let mut client = Client::connect(server.addr()).unwrap();
    let deep =
        |open: &str, leaf: &str| format!("{}{leaf}{}", open.repeat(20_000), ")".repeat(20_000));
    let select = "SELECT customer FROM orders";
    let chain = vec![select; 5_000].join(" UNION ALL ");
    for statement in [
        format!(":analyze {}", deep("dedup(", "orders")),
        format!(":profile {}", deep("dedup(", "orders")),
        format!("CREATE VIEW v AS BALG {}", deep("dedup(", "orders")),
        deep("(", select),
        chain,
    ] {
        let reply = client.request(&statement).unwrap();
        assert!(!reply.ok);
        assert!(reply.text.contains("nested deeper than"), "{}", reply.text);
    }
    assert_eq!(client.request(":ping").unwrap(), Reply::ok("pong"));
    assert!(client.request(select).unwrap().ok);
    server.shutdown();
}

#[test]
fn oversized_frames_close_the_connection() {
    let catalog = Catalog::new().with_table("t", &[("v", false)]);
    let db = database_from_rows(&catalog, &[]).unwrap();
    let config = ServerConfig {
        max_frame: 64,
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", catalog, db, config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.request(":ping").unwrap().ok);
    let huge = format!("SELECT v FROM t WHERE v = '{}'", "x".repeat(256));
    // The server treats the oversized frame as a protocol violation and
    // drops the session rather than resynchronizing mid-stream.
    assert!(client.request(&huge).is_err());
    // A fresh session still works.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.request(":ping").unwrap().ok);
    server.shutdown();
}
