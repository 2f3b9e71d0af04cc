//! The server process under test: a fresh durable file-backed store
//! behind the stock TCP service, every setting at its shipped default;
//! and the restart the benchmark times after it stops.

use crate::client::{wait_for_stdin_eof, IGNORED_ENV};
use crate::workload::MARKER;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use vamana_core::{Engine, EngineOptions};
use vamana_mass::{buffer::BufferPool, FsyncPolicy, MassStore};
use vamana_server::{Server, ServerConfig};

/// The shell's `.save` default: every commit is fsynced before it is
/// acknowledged.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;

/// Serves over a new durable store at `store` on an ephemeral loopback
/// port until stdin closes. Prints its effective configuration, then
/// `LISTENING <addr>`, on stdout.
pub fn serve(store: &Path) -> Result<(), String> {
    // The service reads these to switch modes behind the embedder's
    // back; the benchmark measures the defaults, so it refuses them.
    if let Some(var) = IGNORED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("refusing to serve with {var} set"));
    }
    let store = MassStore::create_durable(store, BufferPool::DEFAULT_CAPACITY, FSYNC)
        .map_err(|e| format!("create store {}: {e}", store.display()))?;
    let options = EngineOptions::default();
    let config = ServerConfig::default();
    let mut out = std::io::stdout().lock();
    let config_lines = [
        format!("CONFIG engine_options {options:?}"),
        format!("CONFIG server_config {config:?}"),
        format!("CONFIG fsync_policy {FSYNC:?}"),
        format!("CONFIG pool_pages {}", BufferPool::DEFAULT_CAPACITY),
    ];
    let server = Server::bind("127.0.0.1:0", Engine::with_options(store, options), config)
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("serve: {e}"))?;
    for line in config_lines {
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    writeln!(out, "LISTENING {}", handle.addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    wait_for_stdin_eof();
    handle.stop();
    Ok(())
}

/// Reopens the durable store at `store` as a restarted server would, in
/// a process of its own: `MassStore::open_durable` (recovery plus WAL
/// replay), timed, then a count of the benchmark's write markers.
/// Prints `REOPEN <seconds> <markers>` on stdout.
pub fn reopen(store: &Path) -> Result<(), String> {
    if let Some(var) = IGNORED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("refusing to reopen with {var} set"));
    }
    let began = Instant::now();
    let opened = MassStore::open_durable(store, BufferPool::DEFAULT_CAPACITY, FSYNC)
        .map_err(|e| format!("reopen {}: {e}", store.display()))?;
    let secs = began.elapsed().as_secs_f64();
    let markers = Engine::with_options(opened, EngineOptions::default())
        .query(&format!("//{MARKER}"))
        .map_err(|e| format!("marker count: {e}"))?
        .len();
    println!("REOPEN {secs} {markers}");
    Ok(())
}
