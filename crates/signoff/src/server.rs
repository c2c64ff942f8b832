//! The TCP front-end: one [`Server`] wraps a [`SignoffService`] and
//! speaks the line-delimited JSON protocol of [`crate::proto`] on a
//! loopback listener (`std::net` only — no async runtime, one thread
//! per connection, which is plenty for a signoff queue's fan-in).

use crate::codec::{read_frame, MAX_LINE_BYTES};
use crate::proto::{ErrorCode, ErrorObj, Request, Response};
use crate::service::SignoffService;
use dfm_fault::FaultPlane;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Fault site: a server response write. Keyed by connection id (accept
/// order); `attempt` is the frame index on that connection. A firing
/// `Drop` rule tears the frame mid-line and slams the socket shut —
/// the client sees a torn frame, the server keeps serving everyone
/// else.
pub const SITE_SERVER_WRITE: &str = "server.write";

/// A listening signoff server. Bind, then [`Server::serve`] until a
/// client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    service: Arc<SignoffService>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `127.0.0.1:port` (`port = 0` picks an ephemeral port;
    /// read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Socket diagnostics.
    pub fn bind(service: Arc<SignoffService>, port: u16) -> Result<Server, String> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
        Ok(Server {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen after
    /// a successful bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Accepts and serves connections until a `shutdown` frame
    /// arrives. Each connection gets its own thread; requests on one
    /// connection are handled in order.
    ///
    /// # Errors
    ///
    /// Accept-loop diagnostics.
    pub fn serve(&self) -> Result<(), String> {
        let addr = self.local_addr();
        for (conn_id, conn) in (0_u64..).zip(self.listener.incoming()) {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn.map_err(|e| format!("accept: {e}"))?;
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &service, &shutdown, addr, conn_id);
            });
        }
        Ok(())
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &SignoffService,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    conn_id: u64,
) -> std::io::Result<()> {
    let plane = service.fault_plane().cloned();
    let mut writer = stream.try_clone()?;
    let mut frame: u64 = 0;
    let mut write = |writer: &mut TcpStream, response: &Response| {
        let this_frame = frame;
        frame += 1;
        write_response(writer, plane.as_ref(), conn_id, this_frame, response)
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()), // clean disconnect
            Err(e) => {
                // Framing violation (oversized line, torn frame,
                // bad UTF-8): answer once, then drop the connection.
                let error = ErrorObj::coded(ErrorCode::BadRequest, e);
                write(&mut writer, &Response::Error { error })?;
                return Ok(());
            }
        };
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(error) => {
                // Malformed or wrong-version frame: refuse it and keep
                // serving the connection.
                write(&mut writer, &Response::Error { error })?;
                continue;
            }
        };
        let stop = matches!(request, Request::Shutdown { .. });
        let response = handle_request(service, request);
        if stop {
            // Latch shutdown before answering, so a dropped (injected
            // or real) response write cannot strand a stopping server.
            // For a drain, handle_request already parked every job and
            // waited the pool idle before we get here.
            shutdown.store(true, Ordering::SeqCst);
        }
        let wrote = write(&mut writer, &response);
        if stop {
            // Unblock the accept loop so serve() can return.
            let _ = TcpStream::connect(addr);
            return Ok(());
        }
        wrote?;
    }
}

/// One service call per command. Every failure arrives carrying the
/// code it was given where it happened; this function only frames it.
fn handle_request(service: &SignoffService, request: Request) -> Response {
    let result = match request {
        Request::Ping => Ok(Response::Pong),
        Request::Submit { spec, gds, idem } => service
            .submit_job(spec, gds, idem.as_deref())
            .map(|job| Response::Submitted { job }),
        Request::Status { job } => service.status(job).map(Response::Status),
        Request::Events { job, since } => service.events(job, since).map(|events| {
            let next_seq = events.last().map_or(since, |e| e.seq + 1);
            Response::Events { events, next_seq }
        }),
        Request::Results { job, partial } => {
            service
                .results_text(job, partial)
                .map(|(status, report_text)| Response::Results {
                    status,
                    report_text,
                })
        }
        Request::Score { job } => service
            .score_json(job)
            .map(|(status, score_json)| Response::Score { status, score_json }),
        Request::Cancel { job } => service.cancel(job).map(Response::Status),
        Request::Resume { job } => service.resume(job).map(Response::Status),
        Request::List => Ok(Response::List {
            jobs: service.list(),
        }),
        Request::Shutdown { drain } => {
            if drain {
                // Stop admitting, finish/checkpoint in-flight tiles,
                // run the pool idle — only then acknowledge, so the
                // client's ack means the durable state is complete.
                service.begin_drain();
            }
            Ok(Response::ShuttingDown)
        }
        Request::ShardDispatch {
            coord,
            origin,
            gen,
            spec,
            gds,
            ranges,
        } => service
            .shard_dispatch(coord, origin, gen, spec, gds, ranges)
            .map(|grant| Response::ShardDispatched { grant }),
        Request::ShardAttach { coord, origin, gen } => service
            .shard_attach(coord, origin, gen)
            .map(|grant| Response::ShardDispatched { grant }),
        Request::ShardPull { job, since } => {
            service
                .shard_outcomes(job, since)
                .map(
                    |(outcomes, next, settled, draining)| Response::ShardOutcomes {
                        outcomes,
                        next,
                        settled,
                        draining,
                    },
                )
        }
    };
    result.unwrap_or_else(|error| Response::Error { error })
}

fn write_response(
    writer: &mut TcpStream,
    plane: Option<&Arc<FaultPlane>>,
    conn: u64,
    frame: u64,
    response: &Response,
) -> std::io::Result<()> {
    let mut line = response.to_json().render();
    line.push('\n');
    if let Some(plane) = plane {
        if plane.should_drop(SITE_SERVER_WRITE, conn, frame) {
            // Tear the frame mid-line: ship half the bytes, then slam
            // the socket shut in both directions. The client observes
            // an interrupted frame; this connection is done.
            let half = &line.as_bytes()[..line.len() / 2];
            let _ = writer.write_all(half);
            let _ = writer.flush();
            let _ = writer.shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected socket drop",
            ));
        }
    }
    writer.write_all(line.as_bytes())?;
    writer.flush()
}
