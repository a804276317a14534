//! The accept loop, the drain protocol, and the process-survival
//! guarantees.
//!
//! [`Server::run`] owns the listening socket and a scoped thread per
//! session. The robustness contract, in order of enforcement:
//!
//! 1. **Admission before cost.** A connection only gets a session thread
//!    if a slot is free; otherwise it is answered `Busy` and closed from
//!    the accept loop itself.
//! 2. **Isolation.** Each session runs under `catch_unwind`; a panic ends
//!    that session (counted in `panics_caught`), releases its slot via
//!    RAII, and the accept loop never notices.
//! 3. **Graceful drain.** A shutdown request (wire command or
//!    [`ServerHandle::shutdown`]) stops new accepts; in-flight sessions
//!    run to their next request boundary. If the drain deadline expires
//!    first, remaining connections are shut down at the socket level —
//!    their sessions observe an I/O error and exit through the normal
//!    path — so `run` always returns, reporting whether the drain was
//!    clean.

use crate::admission::Admission;
use crate::protocol::{write_frame, FrameKind};
use crate::stats::{Bump, ServiceStats};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of a `gompressod` instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections are shed.
    pub max_sessions: usize,
    /// Global pipeline memory budget shared by all running jobs.
    pub mem_budget: usize,
    /// Worker threads per job pipeline (0 = the rayon pool size).
    pub workers: usize,
    /// Deadline for any single read/write while a request is in flight.
    pub io_timeout: Duration,
    /// How long a session may sit idle between requests.
    pub idle_timeout: Duration,
    /// How long a drain waits for in-flight sessions before forcing them.
    pub drain_timeout: Duration,
    /// Backoff hint carried by `Busy` responses, milliseconds.
    pub busy_backoff_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            mem_budget: 64 << 20,
            workers: 1,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(10),
            busy_backoff_ms: 100,
        }
    }
}

/// How a drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every session finished inside the drain deadline.
    pub clean: bool,
    /// Sessions whose sockets had to be forced shut at the deadline.
    pub forced_sessions: usize,
}

/// State shared between the accept loop, the session threads, and any
/// [`ServerHandle`].
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) stats: ServiceStats,
    pub(crate) admission: Admission,
    pub(crate) shutdown: AtomicBool,
    /// Control clones of live connections, for deadline-forced drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Cloneable remote control for a running [`Server`] (tests, the signal
/// watcher, the bench harness).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listener. `addr` is anything `TcpListener::bind` accepts;
    /// use port 0 for an ephemeral port and read it back via
    /// [`Server::local_addr`].
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let admission = Admission::new(config.max_sessions, config.mem_budget);
        let shared = Arc::new(Shared {
            config,
            stats: ServiceStats::default(),
            admission,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote-control handle for this server.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle { shared: Arc::clone(&self.shared), addr: self.local_addr()? })
    }

    /// Runs the accept loop until a drain is initiated, then drains.
    /// Returns once every session has ended.
    pub fn run(self) -> io::Result<DrainReport> {
        // Non-blocking accepts so the loop observes the shutdown flag
        // promptly; accepted sockets are switched back to blocking mode.
        self.listener.set_nonblocking(true)?;
        let shared = &*self.shared;
        let mut report = DrainReport { clean: true, forced_sessions: 0 };
        std::thread::scope(|scope| {
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(false).is_err() {
                            shared.stats.io_errors.bump();
                            continue;
                        }
                        shared.stats.sessions_accepted.bump();
                        let Some(slot) = shared.admission.try_session() else {
                            shared.stats.sheds.bump();
                            shed_connection(shared, stream);
                            shared.stats.sessions_completed.bump();
                            continue;
                        };
                        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                        if let Ok(control) = stream.try_clone() {
                            lock(&shared.conns).insert(conn_id, control);
                        }
                        scope.spawn(move || {
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| crate::session::run(shared, stream)));
                            if outcome.is_err() {
                                shared.stats.panics_caught.bump();
                            }
                            lock(&shared.conns).remove(&conn_id);
                            shared.stats.sessions_completed.bump();
                            // The slot goes last: once the drain sees no
                            // active session, no finished one is still
                            // listed as a connection to force.
                            drop(slot);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // A failed accept (fd pressure, transient network
                        // error) must never kill the loop.
                        shared.stats.io_errors.bump();
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }

            // Drain: no new accepts (the loop above has exited); wait for
            // in-flight sessions, then force the stragglers.
            let deadline = Instant::now() + shared.config.drain_timeout;
            while shared.admission.active_sessions() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let stragglers = lock(&shared.conns);
            report.forced_sessions = stragglers.len();
            report.clean = stragglers.is_empty() && shared.admission.active_sessions() == 0;
            for conn in stragglers.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
            drop(stragglers);
            // The scope joins every session thread before returning: the
            // forced sockets error their sessions out promptly.
        });
        Ok(report)
    }
}

/// Tells a connection that no session slot is free, without spawning
/// anything: best-effort `Busy`, then close.
fn shed_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut stream = stream;
    let hint = shared.config.busy_backoff_ms.to_le_bytes();
    let _ = write_frame(&mut stream, FrameKind::Busy, &hint);
    let _ = stream.shutdown(Shutdown::Both);
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
