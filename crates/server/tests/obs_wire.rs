//! Over-the-wire smoke for the observability surfaces: a live TCP
//! server answers `:profile` byte-identically to its serial twin, and
//! `:metrics` serves the process-global registry in Prometheus text
//! format with the server's own instruments and the statement cache's
//! counters present.
//!
//! Single test in this binary: it owns the process-global registry and
//! the deterministic-profile env var.

use balg_core::eval::Limits;
use balg_server::prelude::{Client, SerialTwin, ServerConfig, SqlServer};
use balg_sql::prelude::{database_from_rows, Catalog};

const INSERT: &str = "INSERT INTO g VALUES ('a', 'b'), ('b', 'c')";
const SELECT: &str = "SELECT dst FROM g WHERE src = 'a'";
const PROFILE: &str = ":profile project(select(x, eq(attr(x,2), attr(x,3)), product(g, g)), 1, 4)";

#[test]
fn profile_and_metrics_over_the_wire() {
    std::env::set_var(balg_obs::profile::PROFILE_TICKS_ENV, "1000");
    assert!(balg_obs::install_global(balg_obs::MetricsRegistry::new()));
    let catalog = Catalog::new().with_table("g", &[("src", false), ("dst", false)]);
    let db = database_from_rows(&catalog, &[]).unwrap();

    let server = SqlServer::spawn(
        "127.0.0.1:0",
        catalog.clone(),
        db.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.request(INSERT).unwrap().ok);
    let profile = client.request(PROFILE).unwrap();
    assert!(profile.ok, "{}", profile.text);
    assert!(profile.text.contains("base g"), "{}", profile.text);
    assert!(profile.text.contains("total: "), "{}", profile.text);

    // Byte-equal with the serial twin replaying the same statements.
    let mut twin = SerialTwin::new(catalog, db, Limits::default());
    assert!(twin.execute(INSERT).ok);
    assert_eq!(twin.execute(PROFILE).text, profile.text);

    // A read twice over the wire: a statement-cache miss, then a hit, both
    // byte-equal to the twin's reply.
    let expected = twin.execute(SELECT);
    assert!(expected.ok, "{}", expected.text);
    assert_eq!(client.request(SELECT).unwrap(), expected);
    assert_eq!(client.request(SELECT).unwrap(), expected);

    // `:metrics` renders the registry, including the server's own
    // instruments (registered at the first dispatch) and the evaluator's.
    let metrics = client.request(":metrics").unwrap();
    assert!(metrics.ok, "{}", metrics.text);
    assert!(
        metrics
            .text
            .contains("# TYPE balg_server_read_duration_ns histogram"),
        "{}",
        metrics.text
    );
    assert!(
        metrics
            .text
            .contains("# TYPE balg_server_write_duration_ns histogram"),
        "{}",
        metrics.text
    );
    assert!(metrics.text.contains("balg_eval_total"), "{}", metrics.text);
    assert!(
        metrics.text.contains("balg_server_queue_depth 0"),
        "{}",
        metrics.text
    );
    // Misses: both INSERTs, the twin's read and the server's first read.
    // The server's second read hit.
    for line in [
        "balg_sql_statement_cache_hits_total 1",
        "balg_sql_statement_cache_misses_total 4",
    ] {
        assert!(metrics.text.contains(line), "{line}: {}", metrics.text);
    }
    server.shutdown();
}
