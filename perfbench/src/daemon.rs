//! A `mapd` daemon for the served measurements: spawned as its own process
//! from the built binary, or (for the benchmark's tests) served from a
//! thread of this process. Either way every request goes through a real
//! Unix socket and the `mapd` wire protocol.

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tie_fault::FaultHandle;
use tie_mapd::protocol::{
    read_frame, write_frame, CacheStatsWire, Request, Response, ShutdownMode,
};
use tie_mapd::{server, Service, ServiceOptions};

/// How to start the daemon.
#[derive(Clone, Debug)]
pub enum Launch {
    /// Spawn this `mapd` executable.
    Process(PathBuf),
    /// Serve from a thread of this process.
    Thread,
}

enum Handle {
    Process(Child),
    Thread(JoinHandle<std::io::Result<()>>),
}

/// A running daemon. [`Daemon::stop`] shuts it down and waits for it;
/// dropping it unstopped kills a spawned process and waits for it.
pub struct Daemon {
    socket: PathBuf,
    handle: Option<Handle>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("socket", &self.socket)
            .finish()
    }
}

/// How long a fresh daemon may take to answer its first `ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

impl Daemon {
    /// Starts a daemon on `socket` and waits until it answers a `ping`.
    ///
    /// # Errors
    /// Spawn failures, or no answer within the ready timeout.
    pub fn start(launch: &Launch, socket: &Path) -> Result<Daemon, String> {
        let handle = match launch {
            Launch::Process(bin) => Handle::Process(
                Command::new(bin)
                    .arg("--socket")
                    .arg(socket)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?,
            ),
            Launch::Thread => {
                let path = socket.to_path_buf();
                let service = Arc::new(Service::new(ServiceOptions::default()));
                Handle::Thread(std::thread::spawn(move || server::serve(&path, service)))
            }
        };
        let daemon = Daemon {
            socket: socket.to_path_buf(),
            handle: Some(handle),
        };
        let start = Instant::now();
        loop {
            if daemon.ping().is_ok() {
                return Ok(daemon);
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(format!("mapd did not answer on {}", socket.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Opens a client connection.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(&self) -> Result<Connection, String> {
        Connection::open(&self.socket)
    }

    /// Sends `ping` on a fresh connection and returns the cache counters.
    ///
    /// # Errors
    /// Socket failures or an unexpected answer.
    pub fn ping(&self) -> Result<CacheStatsWire, String> {
        match self.connect()?.exchange(&Request::Ping)?.0 {
            Response::Pong { cache, .. } => Ok(cache),
            other => Err(format!("unexpected ping answer {other:?}")),
        }
    }

    /// Peak resident set (`VmHWM`) of the process serving requests, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.handle {
            Some(Handle::Process(child)) => peak_rss_mb(&format!("/proc/{}/status", child.id())),
            _ => peak_rss_mb("/proc/self/status"),
        }
    }

    /// Drains the daemon and waits until it has exited.
    ///
    /// # Errors
    /// A refused shutdown or an unclean exit.
    pub fn stop(mut self) -> Result<(), String> {
        let answer = self
            .connect()?
            .exchange(&Request::Shutdown {
                mode: ShutdownMode::Drain,
            })?
            .0;
        if !matches!(answer, Response::ShuttingDown { .. }) {
            return Err(format!("unexpected shutdown answer {answer:?}"));
        }
        match self.handle.take() {
            Some(Handle::Process(mut child)) => {
                let status = child.wait().map_err(|e| e.to_string())?;
                if !status.success() {
                    return Err(format!("mapd exited with {status}"));
                }
            }
            Some(Handle::Thread(t)) => t
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?
                .map_err(|e| e.to_string())?,
            None => {}
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        match self.handle.take() {
            Some(Handle::Process(mut child)) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&self.socket);
            }
            // A thread cannot be killed: ask it to drain, then join it.
            Some(Handle::Thread(t)) => {
                if let Ok(mut c) = self.connect() {
                    let _ = c.exchange(&Request::Shutdown {
                        mode: ShutdownMode::Cancel,
                    });
                }
                let _ = t.join();
            }
            None => {}
        }
    }
}

/// Lowers this process's `VmHWM` to its current resident set, so that a
/// later [`peak_rss_mb`] covers only what runs after this call. Returns
/// the new `VmHWM`, in MiB.
///
/// # Errors
/// The kernel refused the reset, or `VmHWM` could not be read.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    peak_rss_mb("/proc/self/status").ok_or_else(|| "cannot read VmHWM".to_string())
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One request over a raw connection, split into the client's three
/// steps so each can carry its own span.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

/// Timestamps of one exchange: encoded, response read, response decoded.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeTimes {
    /// When sending started.
    pub start: Instant,
    /// After `Request::to_json`.
    pub encoded: Instant,
    /// After the response frame was read.
    pub received: Instant,
    /// After `Response::from_json`.
    pub decoded: Instant,
}

impl Connection {
    /// Connects to `socket`.
    ///
    /// # Errors
    /// Connection failures.
    pub fn open(socket: &Path) -> Result<Connection, String> {
        let stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `req` and decodes the answer, as `Client::request` does, and
    /// reports when each step ended.
    ///
    /// # Errors
    /// Socket or protocol failures.
    pub fn exchange(&mut self, req: &Request) -> Result<(Response, ExchangeTimes), String> {
        let faults = FaultHandle::off();
        let start = Instant::now();
        let payload = req.to_json();
        let encoded = Instant::now();
        write_frame(&mut self.writer, &payload, &faults).map_err(|e| e.to_string())?;
        let answer = read_frame(&mut self.reader, &faults)
            .map_err(|e| e.to_string())?
            .ok_or("connection closed before response")?;
        let received = Instant::now();
        let response = Response::from_json(&answer)?;
        let decoded = Instant::now();
        Ok((
            response,
            ExchangeTimes {
                start,
                encoded,
                received,
                decoded,
            },
        ))
    }
}
