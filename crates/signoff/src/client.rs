//! A blocking client for the signoff protocol — used by the
//! `dfm-signoff` CLI and the end-to-end tests.
//!
//! # Reconnect / resume
//!
//! The client remembers its address and configuration, so a dropped
//! connection is not fatal: any **retryable** request transparently
//! reconnects with deterministic backoff and is resent. Retryable
//! means the request is safe to repeat — reads (`status`, `events`,
//! `list`, …), the idempotency-keyed shard frames, and a `submit`
//! that carries an `--idem` key. A bare `submit`, `cancel`, `resume`,
//! and `shutdown` are **not** resent: repeating them after an
//! ambiguous drop could double their effect, so the caller decides.
//!
//! Event polling composes with this into gapless resume: the caller's
//! `since` cursor only advances when a frame parses, so a reconnect
//! resends the same cursor and the stream has no gaps and no
//! duplicates.

use crate::codec::{read_frame, MAX_LINE_BYTES};
use crate::proto::{ErrorObj, Request, Response};
use crate::service::{JobEvent, JobEventKind, JobStatus};
use crate::shard::{ShardGrant, TileOutcome};
use crate::spec::JobSpec;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Reconnect attempts a retryable request makes after a transport
/// failure before giving up.
const RECONNECT_ATTEMPTS: u64 = 3;

/// Deterministic virtual-clock backoff base before reconnect `n`:
/// `RECONNECT_BACKOFF_VMS << n` virtual milliseconds.
const RECONNECT_BACKOFF_VMS: u64 = 8;

/// Sleeps the real-time equivalent of `vms` virtual milliseconds
/// (1 ms per vms, capped so injected hints cannot stall a test).
fn real_sleep(vms: u64) {
    std::thread::sleep(Duration::from_millis(vms.min(100)));
}

/// Configures and connects a [`Client`]: the socket timeout.
///
/// ```no_run
/// # use dfm_signoff::Client;
/// # use std::time::Duration;
/// let client = Client::builder().timeout(Duration::from_secs(30)).connect("127.0.0.1:4517");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClientBuilder {
    timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Read **and** write timeout for the socket. Default: none
    /// (blocking forever), the pre-builder behaviour.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.timeout = Some(timeout);
        self
    }

    /// Connects to `addr` (e.g. `127.0.0.1:4517`).
    ///
    /// # Errors
    ///
    /// Socket diagnostics.
    pub fn connect(self, addr: &str) -> Result<Client, String> {
        let conn = Conn::open(addr, self.timeout)?;
        Ok(Client {
            addr: addr.to_string(),
            timeout: self.timeout,
            conn: Some(conn),
            reconnects: 0,
        })
    }
}

/// Why a request failed: the transport broke, or the server answered
/// with a structured error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Socket, framing, or protocol-shape diagnostics — the request
    /// may or may not have reached the server.
    Transport(String),
    /// The server processed the request and refused it.
    Server(ErrorObj),
}

/// The flattening every `Result<_, String>` method of [`Client`] gets
/// through `?`: the transport diagnostic, or the server's message.
impl From<RequestError> for String {
    fn from(e: RequestError) -> String {
        match e {
            RequestError::Transport(message) => message,
            RequestError::Server(error) => error.into(),
        }
    }
}

/// One live socket to the server.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str, timeout: Option<Duration>) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        if let Some(timeout) = timeout {
            stream
                .set_read_timeout(Some(timeout))
                .and_then(|()| stream.set_write_timeout(Some(timeout)))
                .map_err(|e| format!("set timeout: {e}"))?;
        }
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// One request/response exchange on this socket.
    fn exchange(&mut self, request: &Request) -> Result<Response, RequestError> {
        let mut line = request.to_json().render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| RequestError::Transport(format!("send: {e}")))?;
        self.writer
            .flush()
            .map_err(|e| RequestError::Transport(format!("flush: {e}")))?;
        let reply = read_frame(&mut self.reader, MAX_LINE_BYTES)
            .map_err(RequestError::Transport)?
            .ok_or_else(|| RequestError::Transport("server closed the connection".to_string()))?;
        match Response::parse(&reply).map_err(RequestError::Transport)? {
            Response::Error { error } => Err(RequestError::Server(error)),
            response => Ok(response),
        }
    }
}

/// A connection to a signoff server that survives drops (see the
/// module docs on reconnect/resume).
pub struct Client {
    addr: String,
    timeout: Option<Duration>,
    conn: Option<Conn>,
    reconnects: u64,
}

/// Whether repeating this request after an ambiguous drop is safe:
/// reads always, shard frames via their `(coord, origin, gen)` /
/// cursor idempotency, `submit` only under an idempotency key.
fn retryable(request: &Request) -> bool {
    match request {
        Request::Ping
        | Request::Status { .. }
        | Request::Events { .. }
        | Request::Results { .. }
        | Request::Score { .. }
        | Request::List
        | Request::ShardDispatch { .. }
        | Request::ShardAttach { .. }
        | Request::ShardPull { .. } => true,
        Request::Submit { idem, .. } => idem.is_some(),
        Request::Cancel { .. } | Request::Resume { .. } | Request::Shutdown { .. } => false,
    }
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4517`) with no timeout —
    /// shorthand for `Client::builder().connect(addr)`.
    ///
    /// # Errors
    ///
    /// Socket diagnostics.
    pub fn connect(addr: &str) -> Result<Client, String> {
        Client::builder().connect(addr)
    }

    /// Starts configuring a connection.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// How many times this client reconnected after a dropped
    /// connection (published as a bench gauge).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends one request and reads its response, keeping server-side
    /// failures machine-readable. Retryable requests (see the module
    /// docs) transparently reconnect and resend on transport failure,
    /// with deterministic backoff (`8 << n` virtual ms before attempt
    /// `n`, [`RECONNECT_ATTEMPTS`] attempts).
    ///
    /// # Errors
    ///
    /// [`RequestError::Transport`] for socket/framing/protocol
    /// diagnostics (after the reconnect budget, for retryable
    /// requests), [`RequestError::Server`] for a [`Response::Error`]
    /// answer — server refusals are never retried here.
    pub fn request(&mut self, request: &Request) -> Result<Response, RequestError> {
        let budget = if retryable(request) {
            RECONNECT_ATTEMPTS
        } else {
            0
        };
        let mut attempt = 0;
        loop {
            let result = match &mut self.conn {
                Some(conn) => conn.exchange(request),
                None => Err(RequestError::Transport(format!(
                    "not connected to {}",
                    self.addr
                ))),
            };
            match result {
                Err(RequestError::Transport(msg)) => {
                    // The socket is suspect: tear it down so the next
                    // attempt (or request) starts from a fresh connect.
                    self.conn = None;
                    if attempt >= budget {
                        return Err(RequestError::Transport(msg));
                    }
                    real_sleep(RECONNECT_BACKOFF_VMS << attempt);
                    attempt += 1;
                    // A failed connect is left for the next loop
                    // iteration to retry.
                    if let Ok(conn) = Conn::open(&self.addr, self.timeout) {
                        self.conn = Some(conn);
                        self.reconnects += 1;
                    }
                }
                other => return other,
            }
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(format!("unexpected reply to ping: {other:?}")),
        }
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`Client::submit_idem`]'s, flattened to the message.
    pub fn submit(&mut self, spec: JobSpec, gds: Vec<u8>) -> Result<u64, String> {
        Ok(self.submit_idem(spec, gds, None)?)
    }

    /// Submits a job, optionally under a client idempotency key: a
    /// resubmission of the same key (e.g. after an ambiguous connection
    /// drop) answers with the job id the key first minted instead of
    /// double-running. With a key the request is also
    /// transport-retryable, so the client resends it through reconnects
    /// on its own.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]: a refusal keeps its structured
    /// [`ErrorObj`] (code + optional `retry_after_vms`), so the caller
    /// can tell an admission refusal from a bad request and back off.
    pub fn submit_idem(
        &mut self,
        spec: JobSpec,
        gds: Vec<u8>,
        idem: Option<&str>,
    ) -> Result<u64, RequestError> {
        let idem = idem.map(str::to_string);
        match self.request(&Request::Submit { spec, gds, idem })? {
            Response::Submitted { job } => Ok(job),
            other => Err(RequestError::Transport(format!(
                "unexpected reply to submit: {other:?}"
            ))),
        }
    }

    /// Submits with bounded re-tries through admission backpressure,
    /// honouring the server's deterministic `retry_after_vms` hints: a
    /// rejection that carries a hint sleeps exactly that long before
    /// the resubmit; one without a hint (unknown tenant, draining) is
    /// final. At most `tries` submissions are made.
    ///
    /// # Errors
    ///
    /// The final structured rejection after `tries` attempts,
    /// hint-less rejections immediately, and transport diagnostics.
    pub fn submit_until_admitted(
        &mut self,
        spec: JobSpec,
        gds: Vec<u8>,
        idem: Option<&str>,
        tries: u64,
    ) -> Result<u64, RequestError> {
        let mut attempt = 0;
        loop {
            match self.submit_idem(spec.clone(), gds.clone(), idem) {
                Ok(job) => return Ok(job),
                Err(e @ RequestError::Transport(_)) => return Err(e),
                Err(RequestError::Server(err)) => {
                    attempt += 1;
                    match err.retry_after_vms {
                        Some(vms) if attempt < tries.max(1) => real_sleep(vms),
                        _ => return Err(RequestError::Server(err)),
                    }
                }
            }
        }
    }

    /// Fetches a job's status.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics and unknown ids.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, String> {
        match self.request(&Request::Status { job })? {
            Response::Status(status) => Ok(status),
            other => Err(format!("unexpected reply to status: {other:?}")),
        }
    }

    /// Fetches the event delta from `since` on, plus the next cursor;
    /// at the head of an unsettled job the server holds the answer
    /// until the next event or the settle (at most one second). The
    /// cursor only advances on a successfully parsed response, so
    /// following the stream through reconnects is gapless.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics and unknown ids.
    pub fn events(&mut self, job: u64, since: u64) -> Result<(Vec<JobEvent>, u64), String> {
        match self.request(&Request::Events { job, since })? {
            Response::Events { events, next_seq } => Ok((events, next_seq)),
            other => Err(format!("unexpected reply to events: {other:?}")),
        }
    }

    /// Fetches the merged report text (final, or the completed-prefix
    /// view with `partial`).
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics; without `partial`, also jobs
    /// that have not finished.
    pub fn results(&mut self, job: u64, partial: bool) -> Result<(JobStatus, String), String> {
        match self.request(&Request::Results { job, partial })? {
            Response::Results {
                status,
                report_text,
            } => Ok((status, report_text)),
            other => Err(format!("unexpected reply to results: {other:?}")),
        }
    }

    /// Fetches a job's manufacturability score: the status plus the
    /// score report's deterministic JSON line, byte-identical to the
    /// server-side rendering.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics, unknown ids, unsettled jobs,
    /// and jobs submitted without scoring.
    pub fn score(&mut self, job: u64) -> Result<(JobStatus, String), String> {
        match self.request(&Request::Score { job })? {
            Response::Score { status, score_json } => Ok((status, score_json)),
            other => Err(format!("unexpected reply to score: {other:?}")),
        }
    }

    /// Cancels a job.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics and invalid transitions.
    pub fn cancel(&mut self, job: u64) -> Result<JobStatus, String> {
        match self.request(&Request::Cancel { job })? {
            Response::Status(status) => Ok(status),
            other => Err(format!("unexpected reply to cancel: {other:?}")),
        }
    }

    /// Resumes a partial/cancelled job.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics and invalid transitions.
    pub fn resume(&mut self, job: u64) -> Result<JobStatus, String> {
        match self.request(&Request::Resume { job })? {
            Response::Status(status) => Ok(status),
            other => Err(format!("unexpected reply to resume: {other:?}")),
        }
    }

    /// Lists every job on the server.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics.
    pub fn list(&mut self) -> Result<Vec<JobStatus>, String> {
        match self.request(&Request::List)? {
            Response::List { jobs } => Ok(jobs),
            other => Err(format!("unexpected reply to list: {other:?}")),
        }
    }

    /// Asks the server to shut down. With `drain`, the server first
    /// stops admitting and finishes or checkpoints in-flight tiles, so
    /// the acknowledgement implies the durable state is complete.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics.
    pub fn shutdown_mode(&mut self, drain: bool) -> Result<(), String> {
        match self.request(&Request::Shutdown { drain })? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("unexpected reply to shutdown: {other:?}")),
        }
    }

    /// Asks the server to shut down immediately
    /// (`shutdown_mode(false)`).
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.shutdown_mode(false)
    }

    /// Dispatches tile range(s) of a job to a shard server under the
    /// coordinator's `(coord, origin, gen)` idempotency key, returning
    /// the shard's grant. `ranges = None` asks the shard to run its own
    /// `--shard-of` partition.
    ///
    /// Typed errors so the coordinator can tell a draining shard
    /// ([`crate::proto::ErrorCode::Draining`]: a planned handoff) from
    /// any other refusal.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shard_dispatch(
        &mut self,
        coord: u64,
        origin: u64,
        gen: u64,
        spec: JobSpec,
        gds: Vec<u8>,
        ranges: Option<Vec<(usize, usize)>>,
    ) -> Result<ShardGrant, RequestError> {
        let request = Request::ShardDispatch {
            coord,
            origin,
            gen,
            spec,
            gds,
            ranges,
        };
        match self.request(&request)? {
            Response::ShardDispatched { grant } => Ok(grant),
            other => Err(RequestError::Transport(format!(
                "unexpected reply to shard.dispatch: {other:?}"
            ))),
        }
    }

    /// Looks up the grant a prior dispatch of `(coord, origin, gen)`
    /// minted on this shard. Typed errors so a caller can distinguish
    /// `not_found` (fall back to a full dispatch) from transport
    /// trouble.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shard_attach(
        &mut self,
        coord: u64,
        origin: u64,
        gen: u64,
    ) -> Result<ShardGrant, RequestError> {
        match self.request(&Request::ShardAttach { coord, origin, gen })? {
            Response::ShardDispatched { grant } => Ok(grant),
            other => Err(RequestError::Transport(format!(
                "unexpected reply to shard.attach: {other:?}"
            ))),
        }
    }

    /// Pulls a shard job's outcome log from `since` on: the entries,
    /// the next cursor, whether the shard job has settled, and whether
    /// the shard's service is draining; waits at the head like
    /// [`Client::events`].
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics and unknown ids.
    pub fn shard_pull(
        &mut self,
        job: u64,
        since: u64,
    ) -> Result<(Vec<TileOutcome>, u64, bool, bool), String> {
        match self.request(&Request::ShardPull { job, since })? {
            Response::ShardOutcomes {
                outcomes,
                next,
                settled,
                draining,
            } => Ok((outcomes, next, settled, draining)),
            other => Err(format!("unexpected reply to shard.pull: {other:?}")),
        }
    }

    /// Waits until the job settles (Done, Partial-settled, Failed, or
    /// Cancelled): `status`, then the held `events` stream from its
    /// `next_seq`, and `status` again once a settled `State` arrives.
    ///
    /// # Errors
    ///
    /// Transport/protocol diagnostics and unknown ids.
    pub fn wait(&mut self, job: u64) -> Result<JobStatus, String> {
        let mut status = self.status(job)?;
        let mut cursor = status.next_seq;
        while !status.state.is_settled() {
            let (delta, next) = self.events(job, cursor)?;
            cursor = next;
            if delta
                .iter()
                .any(|e| matches!(e.kind, JobEventKind::State(s) if s.is_settled()))
            {
                status = self.status(job)?;
            }
        }
        Ok(status)
    }
}
