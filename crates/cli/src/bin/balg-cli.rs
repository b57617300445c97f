//! The interactive BALG shell. Type `:help` for commands.
//!
//! - `--incremental` switches to the maintained-view REPL: `:view`
//!   registers standing queries, `:insert`/`:delete` stream updates
//!   through the ℤ-bag delta engine.
//! - `--data-dir DIR` makes the incremental REPL (or the served
//!   instance) **durable**: state is WAL-logged and snapshotted under
//!   DIR, and restarting with the same DIR resumes exactly where the
//!   last acked operation left off (`:checkpoint` / `CHECKPOINT`
//!   compacts the log).
//! - `--serve ADDR [--tables SPEC]` runs the concurrent SQL service
//!   (`balg-server`) on ADDR until killed. SPEC declares tables as
//!   `name=col[:int],col;name2=...`; `:table` can declare more at
//!   runtime. `--slow-ms N` logs any statement served in ≥ N ms to
//!   stderr.
//! - `--connect ADDR` is a line client for a served instance.
//!
//! An unknown flag, or a known one without its value, prints the usage
//! to stderr and exits non-zero before any mode starts. Every kernel is
//! serial: no mode splits one query over threads.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;

/// Every flag the binary knows, and whether it takes a value.
const FLAGS: [(&str, bool); 6] = [
    ("--incremental", false),
    ("--data-dir", true),
    ("--serve", true),
    ("--tables", true),
    ("--slow-ms", true),
    ("--connect", true),
];

const USAGE: &str = "usage: balg-cli [--incremental] [--data-dir DIR]
       balg-cli --serve ADDR [--tables name=col[:int],col;...] [--data-dir DIR] [--slow-ms N]
       balg-cli --connect ADDR";

/// The flags given, each with its value (`""` for `--incremental`); an
/// unknown flag, or a known one missing its value, is an error.
fn parse_flags(args: &[String]) -> Result<BTreeMap<&'static str, &str>, String> {
    let mut flags = BTreeMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(&(flag, takes_value)) = FLAGS.iter().find(|(flag, _)| flag == arg) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        let value = match takes_value.then(|| args.next()) {
            None => "",
            Some(Some(value)) if !value.starts_with("--") => value.as_str(),
            Some(_) => return Err(format!("{flag} wants a value")),
        };
        flags.insert(flag, value);
    }
    Ok(flags)
}

fn main() -> ExitCode {
    // One process-global registry for every mode: the REPLs' `:metrics`,
    // the served instance's over-the-wire `:metrics`, and the slow-query
    // counter all read from it.
    balg_obs::install_global(balg_obs::MetricsRegistry::new());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let data_dir = flags.get("--data-dir").copied();
    if let Some(addr) = flags.get("--serve") {
        let tables = flags.get("--tables").copied().unwrap_or("");
        let slow_ms = match flags.get("--slow-ms") {
            None => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(ms) => Some(ms),
                Err(_) => {
                    eprintln!("--slow-ms wants a millisecond count, got {raw:?}");
                    return ExitCode::FAILURE;
                }
            },
        };
        return serve(addr, tables, data_dir, slow_ms);
    }
    if let Some(addr) = flags.get("--connect") {
        return connect(addr);
    }
    repl(flags.contains_key("--incremental"), data_dir)
}

/// Parse `name=col[:int],col;name2=...` into a catalog.
fn parse_tables(spec: &str) -> Result<balg_sql::Catalog, String> {
    let mut catalog = balg_sql::Catalog::new();
    for table in spec.split(';').filter(|t| !t.trim().is_empty()) {
        let (name, columns) = table
            .split_once('=')
            .ok_or_else(|| format!("bad table spec {table:?} (want name=col,col)"))?;
        let columns: Vec<(&str, bool)> = columns
            .split(',')
            .filter(|c| !c.trim().is_empty())
            .map(|c| match c.trim().strip_suffix(":int") {
                Some(col) => (col, true),
                None => (c.trim(), false),
            })
            .collect();
        if columns.is_empty() {
            return Err(format!("table {name:?} declares no columns"));
        }
        catalog = catalog.with_table(name.trim(), &columns);
    }
    Ok(catalog)
}

fn serve(addr: &str, tables: &str, data_dir: Option<&str>, slow_ms: Option<u64>) -> ExitCode {
    let catalog = match parse_tables(tables) {
        Ok(catalog) => catalog,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let db = balg_core::schema::Database::new();
    let config = balg_server::ServerConfig {
        data_dir: data_dir.map(std::path::PathBuf::from),
        slow_ms,
        ..balg_server::ServerConfig::default()
    };
    let server = match balg_server::SqlServer::spawn(addr, catalog, db, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot serve on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("balg-server listening on {}", server.addr());
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

fn connect(addr: &str) -> ExitCode {
    let mut client = match balg_server::Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("connected to {addr} — SQL statements, :rows NAME, :check, :stats, :quit");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("balg@{addr}> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        match client.request(line) {
            Ok(reply) if reply.ok => println!("{}", reply.text),
            Ok(reply) => println!("error: {}", reply.text),
            Err(e) => {
                eprintln!("connection lost: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn repl(incremental: bool, data_dir: Option<&str>) -> ExitCode {
    let mut oneshot = balg_cli::Session::new();
    let mut maintained = match data_dir {
        Some(dir) if incremental => match balg_cli::IncrementalSession::open(dir) {
            Ok(session) => session,
            Err(message) => {
                eprintln!("cannot open data dir {dir}: {message}");
                return ExitCode::FAILURE;
            }
        },
        Some(_) => {
            eprintln!("--data-dir needs --incremental (or --serve)");
            return ExitCode::FAILURE;
        }
        None => balg_cli::IncrementalSession::new(),
    };
    if incremental {
        println!("balg — incremental view maintenance mode. :help for commands.");
    } else {
        println!("balg — Towards Tractable Algebras for Bags (PODS 1993). :help for commands.");
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("{}", if incremental { "balgΔ> " } else { "balg> " });
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let response = if incremental {
            maintained.process_line(line.trim())
        } else {
            oneshot.process_line(line.trim())
        };
        match response {
            balg_cli::Response::Quit => break,
            balg_cli::Response::Text(text) => {
                if !text.is_empty() {
                    println!("{text}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}
