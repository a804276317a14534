//! The daemon path: an in-process `gompressod` with one pipeline worker
//! per job on loopback, and two client connections side by side in closed
//! loops: one sends `compress` of a 256 KiB payload of the workload's input
//! kind, the other `decompress` of that payload's archive.

use crate::report::{median, quantile, Report, FAST};
use crate::trace::Trace;
use crate::{Workload, KIB};
use gompresso_core::{
    CompressorConfig, DecompressorConfig, EncodingMode, StreamCompressor, StreamDecompressor,
};
use gompresso_service::{
    Admission, Client, ClientError, CompressParams, DrainReport, Server, ServerConfig, ServerHandle,
};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const PAYLOAD_LEN: usize = 256 * KIB;
/// Requested block size: four blocks per request.
const BLOCK_SIZE: usize = 64 * KIB;
const CLIENTS: usize = 2;
/// Connections opened to time `Client::connect`; with the two clients and
/// the final `stats` connection they stay within the default session cap.
const CONNECTS: u64 = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Request ids of the connect spans, apart from the clients' requests.
const CONNECT_REQUEST_BASE: u64 = 3 << 40;

fn server_config() -> ServerConfig {
    ServerConfig { workers: 1, io_timeout: IO_TIMEOUT, ..ServerConfig::default() }
}

/// The wire parameters for the workload's configuration at 64 KiB blocks,
/// and the library configuration the daemon maps them to: its `compress`
/// output must equal `StreamCompressor`'s byte for byte.
fn wire(workload: Workload) -> (CompressParams, CompressorConfig) {
    let config = CompressorConfig { block_size: BLOCK_SIZE, ..workload.config() };
    let mode = match config.mode {
        EncodingMode::Bit => 0,
        EncodingMode::Byte => 1,
    };
    let params = CompressParams { mode, de: config.dependency_elimination, block_size: BLOCK_SIZE as u32 };
    (params, config)
}

/// The library stream codecs as the daemon runs one job: one worker, the
/// daemon's per-job memory budget.
fn stream_codecs(config: &CompressorConfig) -> Result<(StreamCompressor, StreamDecompressor), String> {
    let server = server_config();
    let budget = Admission::new(server.max_sessions, server.mem_budget).per_job_budget();
    let compressor = StreamCompressor::new(config.clone()).map_err(|e| e.to_string())?;
    Ok((
        compressor.with_workers(server.workers).with_mem_budget(budget),
        StreamDecompressor::new(DecompressorConfig::default())
            .with_workers(server.workers)
            .with_mem_budget(budget),
    ))
}

pub struct Service {
    params: CompressParams,
    config: CompressorConfig,
    payload: Vec<u8>,
    /// The library `StreamCompressor` output for `payload`.
    archive: Vec<u8>,
    handle: ServerHandle,
    server: Option<JoinHandle<std::io::Result<DrainReport>>>,
    clients: Vec<Client>,
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr, Some(IO_TIMEOUT)).map_err(|e| e.to_string())
}

pub fn setup(workload: Workload, seed: u64) -> Result<Service, String> {
    let (params, config) = wire(workload);
    let payload = workload.generate(seed, PAYLOAD_LEN);
    let mut archive = Vec::new();
    stream_codecs(&config)?.0.compress(payload.as_slice(), &mut archive).map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0", server_config()).map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let run = std::thread::spawn(move || server.run());
    let mut service =
        Service { params, config, payload, archive, handle, server: Some(run), clients: Vec::new() };
    let addr = service.addr();
    for _ in 0..CLIENTS {
        service.clients.push(connect(&addr)?);
    }
    Ok(service)
}

impl Service {
    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    /// Closes the connections, drains the daemon and waits for it to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.clients.clear();
        self.handle.shutdown();
        let Some(server) = self.server.take() else { return Ok(()) };
        match server.join() {
            Ok(Ok(report)) if report.clean => Ok(()),
            Ok(Ok(report)) => Err(format!("daemon drain forced {} sessions", report.forced_sessions)),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("perfbench: {e}");
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Verb {
    Compress,
    Decompress,
}

/// How a pair of requests (one `compress`, one `decompress`) is run.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    /// Through the daemon, untraced: these give the request metrics.
    Daemon,
    /// Through the library stream codecs in the client thread, inside a
    /// `stream.*` span: the codec-only time of the same request.
    Library,
}

/// The traced run alternates the steps request by request, so both see the
/// same load and host conditions.
const TRACED_CYCLE: [Step; 2] = [Step::Daemon, Step::Library];

/// What the clients saw.
#[derive(Default)]
struct ClientLog {
    /// Seconds per completed untraced daemon request, from its first
    /// attempt to its reply, so a `Busy` reply and the backoff before the
    /// retry are included.
    compress: Vec<f64>,
    decompress: Vec<f64>,
    busy_retries: u64,
    report: Report,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.compress.extend(other.compress);
        self.decompress.extend(other.decompress);
        self.busy_retries += other.busy_retries;
        self.report.merge(&other.report);
    }
}

/// One daemon request, retried after each `Busy` reply.
fn request(
    client: &mut Client,
    verb: Verb,
    service: &Service,
    out: &mut Vec<u8>,
    log: &mut ClientLog,
) -> Result<(), ClientError> {
    loop {
        out.clear();
        let reply = match verb {
            Verb::Compress => client.compress(service.params, service.payload.as_slice(), &mut *out),
            Verb::Decompress => client.decompress(service.archive.as_slice(), &mut *out),
        };
        match reply {
            Err(ClientError::Busy { backoff_ms }) => {
                // A shed attempt is an attempted, failed operation.
                log.busy_retries += 1;
                log.report.op(false);
                std::thread::sleep(Duration::from_millis(u64::from(backoff_ms)));
            }
            other => return other.map(|_| ()),
        }
    }
}

/// One client's closed loop: at least `min_requests` requests, and more
/// until `deadline`. `next` numbers the client's requests across calls.
/// Without `trace` every request goes to the daemon untraced; with it,
/// requests alternate through [`TRACED_CYCLE`].
fn client_loop(
    service: &Service,
    client: &mut Client,
    id: u64,
    next: &mut u64,
    deadline: Instant,
    min_requests: u64,
    mut trace: Option<&mut Trace>,
) -> Result<ClientLog, String> {
    let codecs = trace.is_some().then(|| stream_codecs(&service.config)).transpose()?;
    let addr = service.addr();
    let mut log = ClientLog::default();
    let mut out = Vec::with_capacity(PAYLOAD_LEN);
    for done in 0u64.. {
        if done >= min_requests && Instant::now() >= deadline {
            break;
        }
        let n = *next;
        *next += 1;
        // One client writes and the other reads, so every request runs
        // beside one of the other verb. With both clients alternating, how
        // often two `compress` requests overlapped varied from run to run
        // and moved the p90s between latency modes.
        let verb = if id == 0 { Verb::Compress } else { Verb::Decompress };
        let step = if trace.is_some() { TRACED_CYCLE[(n % 2) as usize] } else { Step::Daemon };
        let (name, expected) = match (step, verb) {
            (Step::Library, Verb::Compress) => ("stream.compress", &service.archive),
            (Step::Library, Verb::Decompress) => ("stream.decompress", &service.payload),
            (Step::Daemon, Verb::Compress) => ("service.compress", &service.archive),
            (Step::Daemon, Verb::Decompress) => ("service.decompress", &service.payload),
        };
        let span = match (step, trace.as_deref_mut()) {
            (Step::Library, Some(t)) => Some(t.enter(name, (id << 32) | n)),
            _ => None,
        };
        let begin = Instant::now();
        let outcome = match (step, &codecs) {
            (Step::Library, Some((compressor, decompressor))) => match verb {
                Verb::Compress => compressor.compress(service.payload.as_slice(), &mut out).map(|_| ()),
                Verb::Decompress => decompressor.decompress(service.archive.as_slice(), &mut out).map(|_| ()),
            }
            .map_err(|e| e.to_string()),
            _ => request(client, verb, service, &mut out, &mut log).map_err(|e| e.to_string()),
        };
        let seconds = begin.elapsed().as_secs_f64();
        if let (Some(t), Some(span)) = (trace.as_deref_mut(), span) {
            t.exit(span);
        }
        if outcome.is_ok() && step == Step::Daemon {
            match verb {
                Verb::Compress => log.compress.push(seconds),
                Verb::Decompress => log.decompress.push(seconds),
            }
        }
        let failed = outcome.is_err() && step == Step::Daemon;
        log.report.check(name, outcome.map(|()| out == *expected));
        out.clear();
        if failed {
            // The connection may be unusable after a transport error.
            *client = connect(&addr)?;
        }
    }
    Ok(log)
}

/// The p90 of `seconds`, if there are any.
fn p90(seconds: &[f64]) -> Option<f64> {
    (!seconds.is_empty()).then(|| quantile(seconds, 0.9))
}

/// The daemon path of one run: every slice runs both clients' loops side
/// by side.
pub struct Phase<'a> {
    service: &'a mut Service,
    log: ClientLog,
    /// Wall time of the slices, each from the common start to the last
    /// reply.
    elapsed: f64,
    /// Each client's next request number.
    next: [u64; CLIENTS],
    /// The p90 latency of each verb in each slice.
    compress_p90s: Vec<f64>,
    decompress_p90s: Vec<f64>,
    trace: Option<Trace>,
}

impl<'a> Phase<'a> {
    /// Warms up with two untimed requests per client, so both sides'
    /// buffers have grown; `epoch` turns tracing on.
    pub fn new(
        service: &'a mut Service,
        epoch: Option<Instant>,
        report: &mut Report,
    ) -> Result<Self, String> {
        let mut phase = Phase {
            service,
            log: ClientLog::default(),
            elapsed: 0.0,
            next: [0; CLIENTS],
            compress_p90s: Vec::new(),
            decompress_p90s: Vec::new(),
            trace: None,
        };
        let (warm_up, _) = phase.measure(Duration::ZERO, 2, None)?;
        report.merge(&warm_up.report);
        phase.next = [0; CLIENTS];
        phase.trace = epoch.map(Trace::new);
        Ok(phase)
    }

    /// Runs every client's loop for `budget` (and at least `min_requests`
    /// each), with spans taken against `epoch`. Returns the merged log and
    /// the wall time from the common start to the last reply.
    fn measure(
        &mut self,
        budget: Duration,
        min_requests: u64,
        epoch: Option<Instant>,
    ) -> Result<(ClientLog, f64), String> {
        let start = Barrier::new(CLIENTS + 1);
        let mut clients = std::mem::take(&mut self.service.clients);
        let svc = &*self.service;
        let (logs, elapsed) = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(self.next.iter_mut())
                .enumerate()
                .map(|(id, (client, next))| {
                    let start = &start;
                    scope.spawn(move || {
                        let mut trace = epoch.map(Trace::new);
                        start.wait();
                        let deadline = Instant::now() + budget;
                        let log =
                            client_loop(svc, client, id as u64, next, deadline, min_requests, trace.as_mut());
                        log.map(|log| (log, trace))
                    })
                })
                .collect();
            start.wait();
            let begin = Instant::now();
            let logs: Vec<_> =
                workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect();
            (logs, begin.elapsed().as_secs_f64())
        });
        self.service.clients = clients;
        let mut merged = ClientLog::default();
        for logged in logs {
            let (log, client_trace) = logged?;
            merged.absorb(log);
            if let (Some(trace), Some(client_trace)) = (self.trace.as_mut(), client_trace) {
                trace.absorb(client_trace);
            }
        }
        Ok((merged, elapsed))
    }

    /// Runs both clients for about `budget`.
    pub fn slice(&mut self, budget: Duration, report: &mut Report) -> Result<(), String> {
        let epoch = self.trace.as_ref().map(Trace::epoch);
        let (log, elapsed) = self.measure(budget, 0, epoch)?;
        report.merge(&log.report);
        self.compress_p90s.extend(p90(&log.compress));
        self.decompress_p90s.extend(p90(&log.decompress));
        self.log.absorb(log);
        self.elapsed += elapsed;
        Ok(())
    }

    /// Reports the phase's metrics: the request latencies and rate, or
    /// with tracing timed connects, the request split, the request tails
    /// and the daemon's `stats` counters. Returns the spans.
    pub fn finish(self, report: &mut Report) -> Result<Option<Trace>, String> {
        let log = &self.log;
        if log.compress.len() < 10 || log.decompress.len() < 10 {
            return Err(format!("only {} + {} requests completed", log.compress.len(), log.decompress.len()));
        }
        eprintln!(
            "perfbench: {} compress and {} decompress requests, {} busy retries",
            log.compress.len(),
            log.decompress.len(),
            log.busy_retries
        );
        let Some(mut trace) = self.trace else {
            report.metric("compress_request_p10_ms", quantile(&log.compress, FAST) * 1e3, "ms");
            report.metric("decompress_request_p10_ms", quantile(&log.decompress, FAST) * 1e3, "ms");
            let requests = (log.compress.len() + log.decompress.len()) as f64;
            report.metric("requests_per_s", requests / self.elapsed, "1/s");
            return Ok(None);
        };
        let addr = self.service.addr();
        for n in 0..CONNECTS {
            // Each connection proves it was admitted with a `stats` round
            // trip, outside the span, and closes before the next opens.
            let client = trace.span("service.connect", CONNECT_REQUEST_BASE | n, || connect(&addr));
            report.check(
                "connect and stats",
                client.and_then(|mut c| c.stats().map(|_| true).map_err(|e| e.to_string())),
            );
        }
        let stats = connect(&addr)?.stats().map_err(|e| e.to_string())?;

        let p50 = |name: &str| {
            let ms = trace.per_root_ms(name, name);
            if ms.is_empty() {
                Err(format!("no {name} span"))
            } else {
                Ok(median(&ms))
            }
        };
        let (compress_p50, decompress_p50) = (median(&log.compress) * 1e3, median(&log.decompress) * 1e3);
        let (stream_compress, stream_decompress) = (p50("stream.compress")?, p50("stream.decompress")?);
        report.metric("stream.compress_ms", stream_compress, "ms");
        report.metric("stream.decompress_ms", stream_decompress, "ms");
        report.metric("service.connect_ms", p50("service.connect")?, "ms");
        report.metric("service.compress_overhead_ms", compress_p50 - stream_compress, "ms");
        report.metric("service.decompress_overhead_ms", decompress_p50 - stream_decompress, "ms");
        report.metric("service.compress_request_p90_ms", median(&self.compress_p90s) * 1e3, "ms");
        report.metric("service.decompress_request_p90_ms", median(&self.decompress_p90s) * 1e3, "ms");
        report.metric("service.busy_retries", log.busy_retries as f64, "count");
        report.metric("service.sheds", stats.sheds as f64, "count");
        report.metric("service.timeouts", stats.timeouts as f64, "count");
        report.metric("service.io_errors", stats.io_errors as f64, "count");
        report.metric("service.protocol_errors", stats.protocol_errors as f64, "count");
        report.metric("service.bytes_in", stats.bytes_in as f64, "bytes");
        report.metric("service.bytes_out", stats.bytes_out as f64, "bytes");
        Ok(Some(trace))
    }
}
