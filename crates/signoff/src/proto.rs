//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every frame is one JSON value on one `\n`-terminated line, rendered
//! by the workspace's hand-rolled writer ([`dfm_bench::json`]) and
//! parsed by the total parser in [`crate::codec`]. Requests carry a
//! `cmd` discriminator; responses carry `ok` plus a payload (or an
//! `error` diagnostic). GDS bytes travel hex-encoded so frames stay
//! valid UTF-8 text.
//!
//! # Versioning
//!
//! Every frame carries `"v":2` and failures travel as a
//! machine-readable [`ErrorObj`] (`{code, message, retry_after_vms?}`).
//! There is one dialect: a request with no `"v"`, or any other
//! version, is refused with [`ErrorCode::UnsupportedVersion`] — in the
//! same v2 shape, on a connection that stays usable — never answered
//! in kind.
//!
//! Both directions are implemented symmetrically (`to_json` and
//! `parse`) so the test suite can round-trip every frame kind. Every
//! field is decoded through the one reader in [`crate::codec`], which
//! owns the rule for absent, `null`, mistyped and too-large values.

use crate::codec::{by_name, from_hex, name_of, parse_json, to_hex, Field, Fields, U64Str};
use crate::service::{JobEvent, JobEventKind, JobState, JobStatus};
use crate::shard::{ShardGrant, TileCacheMark, TileOutcome, TileOutcomeKind, TileRetry};
use crate::spec::{JobSpec, DEFAULT_TENANT};
use dfm_bench::json::JsonValue;

/// An integer on the render side (every wire integer is at most 2⁵³,
/// so the f64 carries it exactly).
macro_rules! num {
    ($n:expr) => {
        JsonValue::Num($n as f64)
    };
}

/// The protocol version this build speaks natively.
pub const PROTO_VERSION: u64 = 2;

/// What a failure *is*: the closed vocabulary of the `error.code`
/// field. A failure gets its code where it happens — admission, the
/// job lookup, the frame parser — and carries it unchanged to the
/// reply, the client and the CLI's exit code; nothing downstream
/// re-derives it from the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The tenant has no policy line and the plan has no wildcard.
    UnknownTenant,
    /// A per-tenant `max_jobs` / `max_tiles` quota would be exceeded.
    QuotaExceeded,
    /// The global `max_pending_tiles` ceiling would be exceeded.
    Busy,
    /// The service is draining (`shutdown --drain`) and admits no new
    /// work; retry against a fresh instance.
    Draining,
    /// No job (or shard dispatch key) with that id.
    NotFound,
    /// The frame, spec or GDS bytes are the client's mistake.
    BadRequest,
    /// The frame's `"v"` is absent or not [`PROTO_VERSION`].
    UnsupportedVersion,
    /// Every other failure.
    Error,
}

impl ErrorCode {
    /// Each code and its wire name, read in both directions.
    const NAMES: [(ErrorCode, &'static str); 8] = [
        (ErrorCode::UnknownTenant, "unknown_tenant"),
        (ErrorCode::QuotaExceeded, "quota_exceeded"),
        (ErrorCode::Busy, "busy"),
        (ErrorCode::Draining, "draining"),
        (ErrorCode::NotFound, "not_found"),
        (ErrorCode::BadRequest, "bad_request"),
        (ErrorCode::UnsupportedVersion, "unsupported_version"),
        (ErrorCode::Error, "error"),
    ];

    /// Stable snake_case name used on the wire.
    pub fn name(self) -> &'static str {
        name_of(&ErrorCode::NAMES, &self)
    }

    /// Reads [`ErrorCode::name`] back. A name this build does not know
    /// (a newer server's) is the catch-all [`ErrorCode::Error`]: the
    /// message still says what happened, and no caller acts on a code
    /// it cannot name.
    pub fn from_name(name: &str) -> ErrorCode {
        by_name(&ErrorCode::NAMES, name).unwrap_or(ErrorCode::Error)
    }

    /// Whether this refusal came from admission — the four codes
    /// `SignoffService`'s admission guard produces — so nothing was
    /// enqueued and resubmitting (after the hint, or elsewhere) is the
    /// remedy.
    pub fn is_admission_refusal(self) -> bool {
        use ErrorCode::{Busy, Draining, QuotaExceeded, UnknownTenant};
        matches!(self, UnknownTenant | QuotaExceeded | Busy | Draining)
    }
}

impl<'a> Field<'a> for ErrorCode {
    const TYPE: &'static str = "an error code";
    fn read(v: &'a JsonValue) -> Option<ErrorCode> {
        v.as_str().map(ErrorCode::from_name)
    }
}

/// A machine-readable failure: the shape of the `error` field, and the
/// one structured error of this crate — what the scheduler refuses
/// with, what every [`crate::SignoffService`] call the server makes
/// returns, what a client gets back.
///
/// `code` is the discriminator callers switch on (see [`ErrorCode`]);
/// `message` is the human diagnostic. Backpressure refusals also carry
/// `retry_after_vms`, a deterministic virtual-milliseconds hint for
/// when to retry the submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorObj {
    /// What the failure is.
    pub code: ErrorCode,
    /// Human-readable diagnostic.
    pub message: String,
    /// Retry hint in virtual milliseconds, on backpressure rejections.
    pub retry_after_vms: Option<u64>,
}

impl ErrorObj {
    /// An error with the given code and no retry hint.
    pub(crate) fn coded(code: ErrorCode, message: impl Into<String>) -> ErrorObj {
        ErrorObj { code, message: message.into(), retry_after_vms: None }
    }

    /// Renders the `error` payload (`retry_after_vms` is omitted when
    /// absent).
    pub fn to_json(&self) -> JsonValue {
        let head = [
            ("code", JsonValue::str(self.code.name())),
            ("message", JsonValue::str(&self.message)),
        ];
        let hint = self.retry_after_vms.map(|vms| ("retry_after_vms", num!(vms)));
        JsonValue::obj(head.into_iter().chain(hint))
    }

    /// Parses an `error` payload field-by-field.
    ///
    /// # Errors
    ///
    /// A diagnostic when the value is not a well-formed error object.
    pub fn from_json(v: &JsonValue) -> Result<ErrorObj, String> {
        let f = Fields::of(v, "error object")?;
        Ok(ErrorObj {
            code: f.req("code")?,
            message: f.req("message")?,
            retry_after_vms: f.opt("retry_after_vms")?,
        })
    }
}

/// A diagnostic nobody classified is the catch-all code, so `?` lifts
/// a plain `String` failure into the structured one.
impl From<String> for ErrorObj {
    fn from(message: String) -> ErrorObj {
        ErrorObj::coded(ErrorCode::Error, message)
    }
}

/// The flattening every `Result<_, String>` caller gets: the message,
/// no code prefix.
impl From<ErrorObj> for String {
    fn from(e: ErrorObj) -> String {
        e.message
    }
}

impl std::fmt::Display for ErrorObj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)?;
        if let Some(vms) = self.retry_after_vms {
            write!(f, " (retry after {vms} vms)")?;
        }
        Ok(())
    }
}

/// A client→server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job: a spec plus hex-encoded GDS bytes.
    Submit {
        /// The job spec.
        spec: JobSpec,
        /// Raw GDSII stream bytes.
        gds: Vec<u8>,
        /// Client idempotency key: a resubmission under the same key
        /// after an ambiguous connection drop answers with the job id
        /// the key first minted instead of double-running.
        idem: Option<String>,
    },
    /// Fetch a job's status.
    Status {
        /// Job id.
        job: u64,
    },
    /// Fetch a job's events from a sequence number on; at the head of
    /// an unsettled job the reply waits for the next one (≤ 1 s).
    Events {
        /// Job id.
        job: u64,
        /// First sequence number wanted.
        since: u64,
    },
    /// Fetch a job's merged report.
    Results {
        /// Job id.
        job: u64,
        /// Allow a prefix merge of an unfinished job.
        partial: bool,
    },
    /// Fetch a job's manufacturability score (JSON line).
    Score {
        /// Job id.
        job: u64,
    },
    /// Cancel a job (completed tiles are kept).
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Resume a partial/cancelled job.
    Resume {
        /// Job id.
        job: u64,
    },
    /// List all jobs.
    List,
    /// Stop the server. With `drain` the service first stops
    /// admitting, finishes or checkpoints in-flight tiles, and raises
    /// the draining flag on shard pulls before exiting.
    Shutdown {
        /// Graceful drain instead of an immediate stop.
        drain: bool,
    },
    /// Coordinator→shard: run tile range(s) of a job as a shard job
    /// keyed by the coordinator's `(coord, origin, gen)`.
    ShardDispatch {
        /// The coordinator's identity — distinguishes jobs from
        /// different coordinator instances that collide on `origin`.
        coord: u64,
        /// The coordinator's job id.
        origin: u64,
        /// The coordinator's dispatch generation (bumped on takeover).
        gen: u64,
        /// The job spec.
        spec: JobSpec,
        /// Raw GDSII stream bytes.
        gds: Vec<u8>,
        /// Half-open tile ranges to run; `None` uses the shard's own
        /// `--shard-of` partition.
        ranges: Option<Vec<(usize, usize)>>,
    },
    /// Coordinator→shard: look up the grant a prior dispatch of
    /// `(coord, origin, gen)` minted, without resubmitting the job.
    ShardAttach {
        /// The coordinator's identity.
        coord: u64,
        /// The coordinator's job id.
        origin: u64,
        /// The coordinator's dispatch generation.
        gen: u64,
    },
    /// Coordinator→shard: pull a shard job's outcome log from a cursor
    /// on; at the head the reply waits for the next outcome (≤ 1 s).
    ShardPull {
        /// The shard-local job id from the grant.
        job: u64,
        /// First outcome-log index wanted.
        since: u64,
    },
}

impl Request {
    /// Renders the request frame: `"v"`, `"cmd"`, then the body.
    pub fn to_json(&self) -> JsonValue {
        let job_only = |cmd, job: &u64| (cmd, vec![("job", num!(*job))]);
        let (cmd, body) = match self {
            Request::Ping => ("ping", vec![]),
            Request::Submit { spec, gds, idem } => {
                let mut body =
                    vec![("spec", spec.to_json()), ("gds_hex", JsonValue::str(to_hex(gds)))];
                body.extend(idem.iter().map(|key| ("idem", JsonValue::str(key))));
                ("submit", body)
            }
            Request::Status { job } => job_only("status", job),
            Request::Events { job, since } => {
                ("events", vec![("job", num!(*job)), ("since", num!(*since))])
            }
            Request::Results { job, partial } => {
                ("results", vec![("job", num!(*job)), ("partial", JsonValue::Bool(*partial))])
            }
            Request::Score { job } => job_only("score", job),
            Request::Cancel { job } => job_only("cancel", job),
            Request::Resume { job } => job_only("resume", job),
            Request::List => ("list", vec![]),
            Request::Shutdown { drain: false } => ("shutdown", vec![]),
            Request::Shutdown { drain: true } => {
                ("shutdown", vec![("drain", JsonValue::Bool(true))])
            }
            Request::ShardDispatch { coord, origin, gen, spec, gds, ranges } => {
                let mut body = vec![
                    ("coord", num!(*coord)),
                    ("origin", num!(*origin)),
                    ("gen", num!(*gen)),
                    ("spec", spec.to_json()),
                    ("gds_hex", JsonValue::str(to_hex(gds))),
                ];
                body.extend(ranges.iter().map(|r| ("ranges", ranges_to_json(r))));
                ("shard.dispatch", body)
            }
            Request::ShardAttach { coord, origin, gen } => (
                "shard.attach",
                vec![("coord", num!(*coord)), ("origin", num!(*origin)), ("gen", num!(*gen))],
            ),
            Request::ShardPull { job, since } => {
                ("shard.pull", vec![("job", num!(*job)), ("since", num!(*since))])
            }
        };
        let head = [("v", num!(PROTO_VERSION)), ("cmd", JsonValue::str(cmd))];
        JsonValue::obj(head.into_iter().chain(body))
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// The [`ErrorObj`] to answer with: [`ErrorCode::UnsupportedVersion`]
    /// for a JSON object whose `"v"` is absent or not
    /// [`PROTO_VERSION`], [`ErrorCode::BadRequest`] for malformed JSON,
    /// a frame that is not an object, an unknown `cmd`, or a missing
    /// or mistyped field. Never panics, whatever the bytes.
    pub fn parse(line: &str) -> Result<Request, ErrorObj> {
        let bad = |e| ErrorObj::coded(ErrorCode::BadRequest, e);
        let v = parse_json(line).map_err(bad)?;
        let f = Fields::of(&v, "request").map_err(bad)?;
        let got = match f.opt::<u64>("v") {
            Ok(Some(PROTO_VERSION)) => return Request::from_fields(&f).map_err(bad),
            Ok(Some(other)) => other.to_string(),
            Ok(None) => "none".to_string(),
            Err(mistyped) => format!("({mistyped})"),
        };
        let message = format!(
            "unsupported protocol version {got}: send \"v\":{PROTO_VERSION} on every frame"
        );
        Err(ErrorObj::coded(ErrorCode::UnsupportedVersion, message))
    }

    fn from_fields(f: &Fields) -> Result<Request, String> {
        Ok(match f.req("cmd")? {
            "ping" => Request::Ping,
            "submit" => Request::Submit {
                spec: JobSpec::from_json(f.req("spec")?)?,
                gds: from_hex(f.req("gds_hex")?)?,
                idem: f.opt("idem")?,
            },
            "status" => Request::Status { job: f.req("job")? },
            "events" => {
                Request::Events { job: f.req("job")?, since: f.opt("since")?.unwrap_or(0) }
            }
            "results" => Request::Results {
                job: f.req("job")?,
                partial: f.opt("partial")?.unwrap_or(false),
            },
            "score" => Request::Score { job: f.req("job")? },
            "cancel" => Request::Cancel { job: f.req("job")? },
            "resume" => Request::Resume { job: f.req("job")? },
            "list" => Request::List,
            "shutdown" => Request::Shutdown { drain: f.opt("drain")?.unwrap_or(false) },
            "shard.dispatch" => Request::ShardDispatch {
                coord: f.req("coord")?,
                origin: f.req("origin")?,
                gen: f.req("gen")?,
                spec: JobSpec::from_json(f.req("spec")?)?,
                gds: from_hex(f.req("gds_hex")?)?,
                ranges: f.opt("ranges")?,
            },
            "shard.attach" => Request::ShardAttach {
                coord: f.req("coord")?,
                origin: f.req("origin")?,
                gen: f.req("gen")?,
            },
            "shard.pull" => {
                Request::ShardPull { job: f.req("job")?, since: f.opt("since")?.unwrap_or(0) }
            }
            other => return Err(format!("unknown cmd '{other}'")),
        })
    }
}

/// A server→client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ping answer.
    Pong,
    /// Job accepted.
    Submitted {
        /// The new job's id.
        job: u64,
    },
    /// One job's status.
    Status(JobStatus),
    /// A job's event delta.
    Events {
        /// Events with `seq >= since`, in order.
        events: Vec<JobEvent>,
        /// The sequence number to poll from next.
        next_seq: u64,
    },
    /// A job's merged report.
    Results {
        /// Status at merge time.
        status: JobStatus,
        /// The canonical report text ([`crate::SignoffReport::render_text`]).
        report_text: String,
    },
    /// A job's manufacturability score.
    Score {
        /// Status at score time.
        status: JobStatus,
        /// The score report's deterministic JSON line
        /// ([`dfm_score::ScoreReport::render`]), shipped as an opaque
        /// string so byte-identity survives the wire untouched.
        score_json: String,
    },
    /// All jobs.
    List {
        /// Status per job, ordered by id.
        jobs: Vec<JobStatus>,
    },
    /// The server acknowledges shutdown.
    ShuttingDown,
    /// A shard acknowledges a dispatch or attach with its grant.
    ShardDispatched {
        /// The shard-local job id, acknowledged ranges, and whether an
        /// existing `(origin, gen)` job was re-attached.
        grant: ShardGrant,
    },
    /// A slice of a shard job's outcome log.
    ShardOutcomes {
        /// Outcome-log entries from the requested cursor on, in order.
        outcomes: Vec<TileOutcome>,
        /// The cursor to poll from next.
        next: u64,
        /// True once the shard job has settled (no more outcomes ever).
        settled: bool,
        /// True when the shard's service is draining — a settle under
        /// this flag is a planned handoff, not a loss. Absent on the
        /// wire means `false` (pre-drain servers).
        draining: bool,
    },
    /// The request failed.
    Error {
        /// The structured diagnostic.
        error: ErrorObj,
    },
}

impl Response {
    /// Renders the response frame: `"v"`, `"ok"`, then the payload (or
    /// the [`ErrorObj`]).
    pub fn to_json(&self) -> JsonValue {
        let body = match self {
            Response::Pong => vec![("pong", JsonValue::Bool(true))],
            Response::Submitted { job } => vec![("job", num!(*job))],
            Response::Status(status) => vec![("status", status_to_json(status))],
            Response::Events { events, next_seq } => vec![
                ("events", JsonValue::Arr(events.iter().map(event_to_json).collect())),
                ("next_seq", num!(*next_seq)),
            ],
            Response::Results { status, report_text } => vec![
                ("status", status_to_json(status)),
                ("report_text", JsonValue::str(report_text)),
            ],
            Response::Score { status, score_json } => vec![
                ("status", status_to_json(status)),
                ("score_json", JsonValue::str(score_json)),
            ],
            Response::List { jobs } => {
                vec![("jobs", JsonValue::Arr(jobs.iter().map(status_to_json).collect()))]
            }
            Response::ShuttingDown => vec![("shutting_down", JsonValue::Bool(true))],
            Response::ShardDispatched { grant } => vec![
                ("job", num!(grant.job)),
                ("total", num!(grant.total)),
                ("ranges", ranges_to_json(&grant.ranges)),
                ("attached", JsonValue::Bool(grant.attached)),
            ],
            Response::ShardOutcomes { outcomes, next, settled, draining } => vec![
                ("outcomes", JsonValue::Arr(outcomes.iter().map(outcome_to_json).collect())),
                ("next", num!(*next)),
                ("settled", JsonValue::Bool(*settled)),
                ("draining", JsonValue::Bool(*draining)),
            ],
            Response::Error { error } => vec![("error", error.to_json())],
        };
        let ok = !matches!(self, Response::Error { .. });
        let head = [("v", num!(PROTO_VERSION)), ("ok", JsonValue::Bool(ok))];
        JsonValue::obj(head.into_iter().chain(body))
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A diagnostic for malformed JSON or an unrecognisable frame.
    /// Never panics, whatever the bytes.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = parse_json(line)?;
        let f = Fields::of(&v, "response")?;
        if !f.req::<bool>("ok")? {
            return Ok(Response::Error { error: ErrorObj::from_json(f.req("error")?)? });
        }
        // A success frame is recognised by the first payload key it
        // carries. Shard frames are keyed on fields no other frame has
        // and go before "events"/"job", which they would also match.
        Ok(if f.opt::<bool>("pong")?.is_some() {
            Response::Pong
        } else if f.opt::<bool>("shutting_down")?.is_some() {
            Response::ShuttingDown
        } else if let Some(attached) = f.opt("attached")? {
            Response::ShardDispatched {
                grant: ShardGrant {
                    job: f.req("job")?,
                    total: f.req("total")?,
                    ranges: f.req("ranges")?,
                    attached,
                },
            }
        } else if let Some(outcomes) = f.opt("outcomes")? {
            Response::ShardOutcomes {
                outcomes: each(outcomes, outcome_from_json)?,
                next: f.opt("next")?.unwrap_or(0),
                settled: f.req("settled")?,
                // Absent means false: a pre-drain server never drains.
                draining: f.opt("draining")?.unwrap_or(false),
            }
        } else if let Some(events) = f.opt("events")? {
            Response::Events {
                events: each(events, event_from_json)?,
                next_seq: f.opt("next_seq")?.unwrap_or(0),
            }
        } else if let Some(report_text) = f.opt("report_text")? {
            Response::Results { status: status_from_json(f.req("status")?)?, report_text }
        } else if let Some(score_json) = f.opt("score_json")? {
            Response::Score { status: status_from_json(f.req("status")?)?, score_json }
        } else if let Some(status) = f.opt("status")? {
            Response::Status(status_from_json(status)?)
        } else if let Some(jobs) = f.opt("jobs")? {
            Response::List { jobs: each(jobs, status_from_json)? }
        } else if let Some(job) = f.opt("job")? {
            Response::Submitted { job }
        } else {
            return Err("unrecognised response frame".to_string());
        })
    }
}

/// Decodes an array of objects element by element.
fn each<T>(
    items: Vec<&JsonValue>,
    decode: fn(&JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items.into_iter().map(decode).collect()
}

fn ranges_to_json(ranges: &[(usize, usize)]) -> JsonValue {
    let pair = |&(lo, hi): &(usize, usize)| JsonValue::Arr(vec![num!(lo), num!(hi)]);
    JsonValue::Arr(ranges.iter().map(pair).collect())
}

/// [`TileCacheMark`] and its wire name, read in both directions.
const CACHE_MARKS: [(TileCacheMark, &str); 3] = [
    (TileCacheMark::Hit, "hit"),
    (TileCacheMark::Stored, "store"),
    (TileCacheMark::None, "none"),
];

impl<'a> Field<'a> for TileCacheMark {
    const TYPE: &'static str = "a cache mark (hit|store|none)";
    fn read(v: &'a JsonValue) -> Option<TileCacheMark> {
        by_name(&CACHE_MARKS, v.as_str()?)
    }
}

impl<'a> Field<'a> for JobState {
    const TYPE: &'static str = "a job state";
    fn read(v: &'a JsonValue) -> Option<JobState> {
        JobState::from_name(v.as_str()?)
    }
}

fn retry_to_json(r: &TileRetry) -> JsonValue {
    JsonValue::obj([
        ("attempt", num!(r.attempt)),
        ("backoff_vms", num!(r.backoff_vms)),
        ("reason", JsonValue::str(&r.reason)),
    ])
}

fn retry_from_json(v: &JsonValue) -> Result<TileRetry, String> {
    let f = Fields::of(v, "retry")?;
    Ok(TileRetry {
        attempt: f.req("attempt")?,
        backoff_vms: f.req("backoff_vms")?,
        reason: f.req("reason")?,
    })
}

fn outcome_to_json(o: &TileOutcome) -> JsonValue {
    let verdict = match &o.kind {
        TileOutcomeKind::Done { data, ckpt_degraded, cache } => (
            "done",
            JsonValue::obj([
                ("data", JsonValue::str(to_hex(data))),
                ("ckpt_degraded", JsonValue::Bool(*ckpt_degraded)),
                ("cache", JsonValue::str(name_of(&CACHE_MARKS, cache))),
            ]),
        ),
        TileOutcomeKind::Quarantined { attempts, reason } => (
            "quarantined",
            JsonValue::obj([("attempts", num!(*attempts)), ("reason", JsonValue::str(reason))]),
        ),
    };
    let retries = JsonValue::Arr(o.retries.iter().map(retry_to_json).collect());
    JsonValue::obj([("tile", num!(o.tile)), ("retries", retries), verdict])
}

fn outcome_from_json(v: &JsonValue) -> Result<TileOutcome, String> {
    let f = Fields::of(v, "outcome")?;
    let kind = if let Some(done) = f.opt("done")? {
        let done = Fields::of(done, "done outcome")?;
        TileOutcomeKind::Done {
            data: from_hex(done.req("data")?)?,
            ckpt_degraded: done.req("ckpt_degraded")?,
            cache: done.req("cache")?,
        }
    } else if let Some(q) = f.opt("quarantined")? {
        let q = Fields::of(q, "quarantined outcome")?;
        TileOutcomeKind::Quarantined { attempts: q.req("attempts")?, reason: q.req("reason")? }
    } else {
        return Err("outcome needs a \"done\" or \"quarantined\" verdict".to_string());
    };
    Ok(TileOutcome {
        tile: f.req("tile")?,
        retries: each(f.opt("retries")?.unwrap_or_default(), retry_from_json)?,
        kind,
    })
}

fn status_to_json(s: &JobStatus) -> JsonValue {
    JsonValue::obj([
        ("id", num!(s.id)),
        ("name", JsonValue::str(&s.name)),
        // Always present on the wire (our parser defaults them when
        // absent, so frames from pre-tenant servers still parse).
        ("tenant", JsonValue::str(&s.tenant)),
        ("priority", num!(s.priority)),
        ("state", JsonValue::str(s.state.name())),
        ("tiles_total", num!(s.tiles_total)),
        ("tiles_done", num!(s.tiles_done)),
        ("tiles_quarantined", num!(s.tiles_quarantined)),
        ("tiles_cached", num!(s.tiles_cached)),
        ("next_seq", num!(s.next_seq)),
        // The score travels as its IEEE-754 bit pattern in a string: a
        // JSON Num would round-trip through f64 text formatting, and
        // byte-exactness is the whole point.
        ("score_bits", s.score_bits.map_or(JsonValue::Null, JsonValue::u64_str)),
        ("score_pass", s.score_pass.map_or(JsonValue::Null, JsonValue::Bool)),
        ("error", s.error.as_ref().map_or(JsonValue::Null, JsonValue::str)),
    ])
}

fn status_from_json(v: &JsonValue) -> Result<JobStatus, String> {
    let f = Fields::of(v, "status")?;
    Ok(JobStatus {
        id: f.req("id")?,
        name: f.req("name")?,
        tenant: f.opt("tenant")?.unwrap_or_else(|| DEFAULT_TENANT.to_string()),
        priority: f.opt("priority")?.unwrap_or(0),
        state: f.req("state")?,
        tiles_total: f.req("tiles_total")?,
        tiles_done: f.req("tiles_done")?,
        tiles_quarantined: f.opt("tiles_quarantined")?.unwrap_or(0),
        tiles_cached: f.opt("tiles_cached")?.unwrap_or(0),
        next_seq: f.opt("next_seq")?.unwrap_or(0),
        score_bits: f.opt("score_bits")?.map(|U64Str(bits)| bits),
        score_pass: f.opt("score_pass")?,
        error: f.opt("error")?,
    })
}

/// Event `kind` wire names, each written once for both directions.
mod kind {
    pub(super) const STATE: &str = "state";
    pub(super) const TILE: &str = "tile";
    pub(super) const RETRY: &str = "retry";
    pub(super) const QUARANTINE: &str = "quarantine";
    pub(super) const CKPT: &str = "ckpt";
    pub(super) const CACHE_HIT: &str = "cache_hit";
    pub(super) const CACHE_STORE: &str = "cache_store";
    pub(super) const SCORE: &str = "score";
}

fn event_to_json(e: &JobEvent) -> JsonValue {
    let tile_only = |kind, tile: &usize| (kind, vec![("tile", num!(*tile))]);
    let (kind, body) = match &e.kind {
        JobEventKind::State(state) => (kind::STATE, vec![("state", JsonValue::str(state.name()))]),
        JobEventKind::TileDone { tile, completed, total } => (
            kind::TILE,
            vec![("tile", num!(*tile)), ("completed", num!(*completed)), ("total", num!(*total))],
        ),
        JobEventKind::TileRetry { tile, attempt, backoff_vms, reason } => (
            kind::RETRY,
            vec![
                ("tile", num!(*tile)),
                ("attempt", num!(*attempt)),
                ("backoff_vms", num!(*backoff_vms)),
                ("reason", JsonValue::str(reason)),
            ],
        ),
        JobEventKind::TileQuarantined { tile, attempts, reason } => (
            kind::QUARANTINE,
            vec![
                ("tile", num!(*tile)),
                ("attempts", num!(*attempts)),
                ("reason", JsonValue::str(reason)),
            ],
        ),
        JobEventKind::CkptDegraded { tile } => tile_only(kind::CKPT, tile),
        JobEventKind::TileCacheHit { tile } => tile_only(kind::CACHE_HIT, tile),
        JobEventKind::TileCacheStore { tile } => tile_only(kind::CACHE_STORE, tile),
        JobEventKind::Score { bits, pass } => (
            kind::SCORE,
            vec![("bits", JsonValue::u64_str(*bits)), ("pass", JsonValue::Bool(*pass))],
        ),
    };
    let head = [("seq", num!(e.seq)), ("kind", JsonValue::str(kind))];
    JsonValue::obj(head.into_iter().chain(body))
}

fn event_from_json(v: &JsonValue) -> Result<JobEvent, String> {
    let f = Fields::of(v, "event")?;
    let kind = match f.req("kind")? {
        kind::STATE => JobEventKind::State(f.req("state")?),
        kind::TILE => JobEventKind::TileDone {
            tile: f.req("tile")?,
            completed: f.req("completed")?,
            total: f.req("total")?,
        },
        kind::RETRY => JobEventKind::TileRetry {
            tile: f.req("tile")?,
            attempt: f.req("attempt")?,
            backoff_vms: f.req("backoff_vms")?,
            reason: f.req("reason")?,
        },
        kind::QUARANTINE => JobEventKind::TileQuarantined {
            tile: f.req("tile")?,
            attempts: f.req("attempts")?,
            reason: f.req("reason")?,
        },
        kind::CKPT => JobEventKind::CkptDegraded { tile: f.req("tile")? },
        kind::CACHE_HIT => JobEventKind::TileCacheHit { tile: f.req("tile")? },
        kind::CACHE_STORE => JobEventKind::TileCacheStore { tile: f.req("tile")? },
        kind::SCORE => {
            let U64Str(bits) = f.req("bits")?;
            JobEventKind::Score { bits, pass: f.req("pass")? }
        }
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(JobEvent { seq: f.req("seq")?, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_status() -> JobStatus {
        JobStatus {
            id: 7,
            name: "block-a".to_string(),
            tenant: "acme".to_string(),
            priority: 3,
            state: JobState::Running,
            tiles_total: 9,
            tiles_done: 4,
            tiles_quarantined: 0,
            tiles_cached: 2,
            next_seq: 6,
            score_bits: None,
            score_pass: None,
            error: None,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Submit { spec: JobSpec::default(), gds: vec![0, 1, 254, 255], idem: None },
            Request::Submit {
                spec: JobSpec::default(),
                gds: vec![0, 1],
                idem: Some("retry-42".to_string()),
            },
            Request::Status { job: 3 },
            Request::Events { job: 3, since: 17 },
            Request::Results { job: 3, partial: true },
            Request::Score { job: 3 },
            Request::Cancel { job: 3 },
            Request::Resume { job: 3 },
            Request::List,
            Request::Shutdown { drain: false },
            Request::Shutdown { drain: true },
            Request::ShardDispatch {
                coord: 17,
                origin: 5,
                gen: 1,
                spec: JobSpec::default(),
                gds: vec![7, 8, 9],
                ranges: Some(vec![(0, 3), (5, 9)]),
            },
            Request::ShardDispatch {
                coord: 17,
                origin: 5,
                gen: 0,
                spec: JobSpec::default(),
                gds: vec![],
                ranges: None,
            },
            Request::ShardAttach { coord: 17, origin: 5, gen: 2 },
            Request::ShardPull { job: 11, since: 4 },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in sample_requests() {
            let line = req.to_json().render();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            let back = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, req, "{line}");
        }
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Submitted { job: 12 },
            Response::Status(sample_status()),
            Response::Status(JobStatus {
                state: JobState::Failed,
                error: Some("tile 3 panicked".to_string()),
                ..sample_status()
            }),
            Response::Events {
                events: vec![
                    JobEvent { seq: 0, kind: JobEventKind::State(JobState::Queued) },
                    JobEvent {
                        seq: 1,
                        kind: JobEventKind::TileDone { tile: 0, completed: 1, total: 9 },
                    },
                    JobEvent {
                        seq: 2,
                        kind: JobEventKind::TileRetry {
                            tile: 3,
                            attempt: 0,
                            backoff_vms: 8,
                            reason: "tile 3 panicked: injected".to_string(),
                        },
                    },
                    JobEvent {
                        seq: 3,
                        kind: JobEventKind::TileQuarantined {
                            tile: 3,
                            attempts: 3,
                            reason: "tile 3 panicked: injected".to_string(),
                        },
                    },
                    JobEvent { seq: 4, kind: JobEventKind::CkptDegraded { tile: 5 } },
                    JobEvent { seq: 5, kind: JobEventKind::TileCacheHit { tile: 6 } },
                    JobEvent { seq: 6, kind: JobEventKind::TileCacheStore { tile: 7 } },
                    JobEvent {
                        seq: 7,
                        kind: JobEventKind::Score { bits: 0.85f64.to_bits(), pass: true },
                    },
                ],
                next_seq: 8,
            },
            Response::Results {
                status: sample_status(),
                report_text: "signoff report\nline \"two\"\n".to_string(),
            },
            Response::Score {
                status: JobStatus {
                    state: JobState::Done,
                    score_bits: Some(0.75f64.to_bits()),
                    score_pass: Some(true),
                    ..sample_status()
                },
                score_json: r#"{"score":0.75,"pass":true}"#.to_string(),
            },
            Response::List { jobs: vec![sample_status()] },
            Response::ShuttingDown,
            Response::ShardDispatched {
                grant: ShardGrant {
                    job: 3,
                    total: 9,
                    ranges: vec![(0, 4), (6, 9)],
                    attached: true,
                },
            },
            Response::ShardOutcomes {
                outcomes: vec![
                    TileOutcome {
                        tile: 0,
                        retries: vec![TileRetry {
                            attempt: 0,
                            backoff_vms: 8,
                            reason: "tile 0 panicked: injected".to_string(),
                        }],
                        kind: TileOutcomeKind::Done {
                            data: vec![0xDF, 0x4D, 0x53, 0x00],
                            ckpt_degraded: true,
                            cache: TileCacheMark::Stored,
                        },
                    },
                    TileOutcome {
                        tile: 1,
                        retries: vec![],
                        kind: TileOutcomeKind::Done {
                            data: vec![],
                            ckpt_degraded: false,
                            cache: TileCacheMark::Hit,
                        },
                    },
                    TileOutcome {
                        tile: 2,
                        retries: vec![],
                        kind: TileOutcomeKind::Quarantined {
                            attempts: 3,
                            reason: "tile 2 panicked: injected".to_string(),
                        },
                    },
                ],
                next: 3,
                settled: false,
                draining: false,
            },
            Response::ShardOutcomes {
                outcomes: vec![],
                next: 9,
                settled: true,
                draining: true,
            },
            Response::Error { error: ErrorObj::coded(ErrorCode::NotFound, "no such job: 4") },
            Response::Error {
                error: ErrorObj {
                    code: ErrorCode::QuotaExceeded,
                    message: "tenant 'acme' is at max_jobs=2".to_string(),
                    retry_after_vms: Some(96),
                },
            },
        ]
    }

    #[test]
    fn every_response_round_trips() {
        for resp in sample_responses() {
            let line = resp.to_json().render();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert!(line.contains("\"v\":2"), "v2 frames carry the version: {line}");
            let back = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, resp, "{line}");
        }
    }

    fn sample_lines() -> Vec<String> {
        let requests = sample_requests().into_iter().map(|r| r.to_json().render());
        requests.chain(sample_responses().into_iter().map(|r| r.to_json().render())).collect()
    }

    #[test]
    fn sample_frames_render_the_pinned_bytes() {
        // Taken at the commit before the one-reader refactor, then
        // moved once, by deleting the retired heartbeat frames' three
        // sample rows and nothing else: an encode-side edit that moves a
        // byte of any frame kind fails here, without waiting for the
        // golden report digests.
        let text = sample_lines().join("\n");
        assert_eq!(crate::codec::fnv1a_64(text.as_bytes()), 0x729e_3d57_30d4_261f, "{text}");
    }

    /// Keys (by path, `[]` for an array step) whose removal, `null`, or
    /// a value of the wrong type must fail the frame. Keys that pick
    /// the frame kind (`attached`, `report_text`, …), optional keys and
    /// keys whose requiredness depends on the frame are left out.
    const REQUIRED: &[&str] = &[
        "cmd", "job", "spec", "gds_hex", "coord", "origin", "gen",
        "ok", "error", "error.code", "error.message", "total", "settled",
        "status", "status.id", "status.name", "status.state", "status.tiles_total",
        "status.tiles_done", "jobs[].id", "jobs[].state",
        "events[].seq", "events[].kind", "events[].tile", "events[].state",
        "events[].completed", "events[].total", "events[].attempt", "events[].attempts",
        "events[].backoff_vms", "events[].reason", "events[].bits", "events[].pass",
        "outcomes[].tile", "outcomes[].done.data", "outcomes[].done.ckpt_degraded",
        "outcomes[].done.cache", "outcomes[].quarantined.attempts",
        "outcomes[].quarantined.reason", "outcomes[].retries[].attempt",
        "outcomes[].retries[].backoff_vms", "outcomes[].retries[].reason",
    ];

    /// Every single-key mutation of the object `v` and of the objects
    /// nested in it: `(key path, must fail if required, mutated root)`.
    fn mutants(
        v: &JsonValue,
        path: &str,
        root: &dyn Fn(JsonValue) -> JsonValue,
        out: &mut Vec<(String, bool, JsonValue)>,
    ) {
        let JsonValue::Obj(pairs) = v else { return };
        for (i, (key, child)) in pairs.iter().enumerate() {
            let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
            let with = |new: JsonValue| {
                let mut pairs = pairs.clone();
                pairs[i].1 = new;
                root(JsonValue::Obj(pairs))
            };
            let mut removed = pairs.clone();
            removed.remove(i);
            out.push((path.clone(), true, root(JsonValue::Obj(removed))));
            out.push((path.clone(), true, with(JsonValue::Null)));
            for wrong in [
                JsonValue::Bool(true),
                JsonValue::Num(7.0),
                JsonValue::Num(-1.0),
                JsonValue::Num(1.5),
                JsonValue::str("x"),
                JsonValue::Arr(vec![]),
                JsonValue::Obj(vec![]),
            ] {
                // Every required number is unsigned, so -1 and 1.5 are
                // of the wrong type for it; 7 and "x" may be valid.
                let mistyped = std::mem::discriminant(&wrong) != std::mem::discriminant(child)
                    || matches!(wrong, JsonValue::Num(n) if n < 0.0 || n.fract() != 0.0);
                out.push((path.clone(), mistyped, with(wrong)));
            }
            match child {
                JsonValue::Obj(_) => mutants(child, &path, &with, out),
                JsonValue::Arr(items) => {
                    for (j, item) in items.iter().enumerate() {
                        let at = |new: JsonValue| {
                            let mut items = items.clone();
                            items[j] = new;
                            with(JsonValue::Arr(items))
                        };
                        mutants(item, &format!("{path}[]"), &at, out);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn single_key_mutations_never_panic_and_required_keys_are_required() {
        let mut seen = std::collections::BTreeSet::new();
        for line in sample_lines() {
            let frame = parse_json(&line).expect("sample frames are JSON");
            let mut all = Vec::new();
            mutants(&frame, "", &|root| root, &mut all);
            for (path, must_fail, mutant) in all {
                let text = mutant.render();
                let reparsed = if line.contains("\"cmd\"") {
                    Request::parse(&text).map(|r| r.to_json()).map_err(|e| e.to_string())
                } else {
                    Response::parse(&text).map(|r| r.to_json())
                };
                match reparsed {
                    Ok(back) => {
                        assert!(parse_json(&back.render()).is_ok(), "{text}");
                        let required = must_fail && REQUIRED.contains(&path.as_str());
                        assert!(!required, "{path} is required, yet this parsed: {text}");
                    }
                    Err(diagnostic) => assert!(!diagnostic.is_empty(), "{text}"),
                }
                seen.insert(path);
            }
        }
        for path in REQUIRED {
            assert!(seen.contains(*path), "no sample frame carries {path}");
        }
    }

    #[test]
    fn coordinator_ids_up_to_2_pow_53_round_trip() {
        // The service masks coordinator ids to 53 bits, so every value
        // up to 2^53 - 1 must survive the wire; the bound is the
        // integers an f64 carries exactly, not a rounder number below it.
        let coord = (1u64 << 53) - 1;
        for req in [
            Request::ShardAttach { coord, origin: 5, gen: 2 },
            Request::ShardDispatch {
                coord,
                origin: 5,
                gen: 0,
                spec: JobSpec::default(),
                gds: vec![],
                ranges: None,
            },
        ] {
            let line = req.to_json().render();
            assert_eq!(Request::parse(&line), Ok(req), "{line}");
        }
        let beyond = format!(r#"{{"v":2,"cmd":"shard.attach","coord":{},"origin":5,"gen":2}}"#, 1u64 << 54);
        assert_eq!(Request::parse(&beyond).expect_err(&beyond).code, ErrorCode::BadRequest);
    }

    #[test]
    fn frames_that_are_not_v2_are_refused_as_unsupported_version() {
        // Bare (the retired v1 dialect), older, newer, and mistyped
        // versions all get the same typed refusal.
        for line in [
            r#"{"cmd":"ping"}"#,
            r#"{"v":1,"cmd":"ping"}"#,
            r#"{"v":3,"cmd":"ping"}"#,
            r#"{"v":"2","cmd":"ping"}"#,
            r#"{"v":2.5,"cmd":"ping"}"#,
            r#"{"cmd":"shard.attach","coord":9,"origin":1,"gen":0}"#,
        ] {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{line}: {err}");
            assert_eq!(err.retry_after_vms, None);
        }
        let err = Request::parse(r#"{"v":3,"cmd":"ping"}"#).expect_err("v3");
        assert!(err.message.contains("version 3") && err.message.contains("\"v\":2"), "{err}");
        // The version gate runs before the body is looked at; a v2
        // frame with a bad body is the client's fault instead.
        assert_eq!(Request::parse(r#"{"v":2,"cmd":"ping"}"#), Ok(Request::Ping));
        for line in ["{", r#"{"v":2,"cmd":"warp"}"#, r#"{"v":2,"cmd":"status"}"#] {
            assert_eq!(Request::parse(line).expect_err(line).code, ErrorCode::BadRequest, "{line}");
        }
        // The refusal itself is an ordinary v2 error frame.
        let frame = Response::Error { error: err.clone() }.to_json().render();
        assert!(frame.starts_with(r#"{"v":2,"ok":false,"error":{"code":"unsupported_version","#));
        assert_eq!(Response::parse(&frame), Ok(Response::Error { error: err }));
    }

    #[test]
    fn status_without_tenant_keys_defaults_them() {
        let line = r#"{"ok":true,"status":{"id":1,"name":"x","state":"done","tiles_total":1,"tiles_done":1}}"#;
        match Response::parse(line).expect("pre-tenant status") {
            Response::Status(s) => {
                assert_eq!(s.tenant, crate::spec::DEFAULT_TENANT);
                assert_eq!(s.priority, 0);
            }
            other => panic!("unexpected frame: {other:?}"),
        }
        // `null` reads as absent for every optional field, not only
        // for the ones that render as `null`.
        let nulls = r#"{"ok":true,"status":{"id":1,"name":"x","tenant":null,"priority":null,"state":"done","tiles_total":1,"tiles_done":1,"error":null}}"#;
        assert_eq!(Response::parse(nulls), Response::parse(line));
        let spec = r#"{"v":2,"cmd":"submit","spec":{"name":null,"score":null},"gds_hex":""}"#;
        assert_eq!(
            Request::parse(spec),
            Ok(Request::Submit { spec: JobSpec::default(), gds: vec![], idem: None })
        );
    }

    #[test]
    fn error_objects_round_trip_and_render_hints() {
        let e = ErrorObj {
            code: ErrorCode::QuotaExceeded,
            message: "tenant 'acme' is at max_tiles=64".to_string(),
            retry_after_vms: Some(512),
        };
        assert_eq!(ErrorObj::from_json(&e.to_json()), Ok(e.clone()));
        assert_eq!(
            e.to_string(),
            "quota_exceeded: tenant 'acme' is at max_tiles=64 (retry after 512 vms)"
        );
        let plain = ErrorObj::coded(ErrorCode::Error, "boom");
        assert_eq!(ErrorObj::from_json(&plain.to_json()), Ok(plain.clone()));
        assert_eq!(plain.to_string(), "error: boom");
        // Mistyped objects are diagnostics, not panics.
        assert!(ErrorObj::from_json(&parse_json(r#"{"code":7}"#).unwrap()).is_err());
        assert!(ErrorObj::from_json(&parse_json(r#"{"code":"x"}"#).unwrap()).is_err());
    }

    #[test]
    fn every_error_code_keeps_its_pinned_name_and_an_unknown_name_reads_as_error() {
        // Exhaustive on purpose: a new variant does not compile until
        // its wire name is pinned here.
        let pinned = |code| match code {
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Busy => "busy",
            ErrorCode::Draining => "draining",
            ErrorCode::NotFound => "not_found",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Error => "error",
        };
        for (code, name) in ErrorCode::NAMES {
            assert_eq!(name, pinned(code));
            assert_eq!(code.name(), name);
            assert_eq!(ErrorCode::from_name(name), code);
            let error = ErrorObj::coded(code, "m");
            let frame = Response::Error { error: error.clone() }.to_json().render();
            assert!(frame.contains(&format!(r#""code":"{name}","#)), "{frame}");
            assert_eq!(Response::parse(&frame), Ok(Response::Error { error }));
        }
        // A code minted by a newer server: the frame still parses, the
        // message and hint survive, and the code is the catch-all.
        let newer = r#"{"v":2,"ok":false,"error":{"code":"rate_limited","message":"slow down","retry_after_vms":40}}"#;
        let error = ErrorObj {
            code: ErrorCode::Error,
            message: "slow down".to_string(),
            retry_after_vms: Some(40),
        };
        assert_eq!(Response::parse(newer), Ok(Response::Error { error }));
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        for line in [
            "",
            "{",
            "null",
            "42",
            r#"{"v":2,"cmd":"warp"}"#,
            r#"{"v":2,"cmd":"status"}"#,
            r#"{"v":2,"cmd":"status","job":-1}"#,
            r#"{"v":2,"cmd":"status","job":1.5}"#,
            r#"{"v":2,"cmd":"submit","spec":{},"gds_hex":"zz"}"#,
            r#"{"ok":"yes"}"#,
            r#"{"ok":true}"#,
            r#"{"ok":true,"status":{"id":1}}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"meteor"}],"next_seq":1}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"retry","tile":1}],"next_seq":1}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"quarantine","tile":1,"attempts":3}],"next_seq":1}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"cache_hit"}],"next_seq":1}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"cache_store"}],"next_seq":1}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"score","pass":true}],"next_seq":1}"#,
            r#"{"ok":true,"events":[{"seq":0,"kind":"score","bits":7,"pass":true}],"next_seq":1}"#,
            r#"{"ok":true,"status":{"id":1,"name":"x","state":"done","tiles_total":1,"tiles_done":1,"score_bits":3.5}}"#,
            // Hostile ErrorObj payloads: every mistyped field is a
            // diagnostic, never a panic or a silent default.
            r#"{"ok":false}"#,
            r#"{"ok":false,"error":{}}"#,
            r#"{"ok":false,"error":{"code":"x"}}"#,
            r#"{"ok":false,"error":{"message":"y"}}"#,
            r#"{"ok":false,"error":{"code":7,"message":"y"}}"#,
            r#"{"ok":false,"error":{"code":"x","message":7}}"#,
            r#"{"ok":false,"error":{"code":"x","message":"y","retry_after_vms":-3}}"#,
            r#"{"ok":false,"error":{"code":"x","message":"y","retry_after_vms":1.5}}"#,
            r#"{"ok":false,"error":{"code":"x","message":"y","retry_after_vms":"soon"}}"#,
            r#"{"ok":false,"error":[1,2]}"#,
            r#"{"ok":false,"error":42}"#,
            // The retired v1 error shape: a bare string is not an ErrorObj.
            r#"{"ok":false,"error":"boom"}"#,
            // Hostile shard frames.
            r#"{"v":2,"cmd":"shard.dispatch"}"#,
            r#"{"v":2,"cmd":"shard.dispatch","coord":9,"origin":1,"gen":0}"#,
            r#"{"v":2,"cmd":"shard.dispatch","origin":1,"gen":0,"spec":{},"gds_hex":""}"#,
            r#"{"v":2,"cmd":"shard.dispatch","coord":9,"origin":-1,"gen":0,"spec":{},"gds_hex":""}"#,
            r#"{"v":2,"cmd":"shard.dispatch","coord":9,"origin":1,"gen":0,"spec":{},"gds_hex":"","ranges":[[1]]}"#,
            r#"{"v":2,"cmd":"shard.dispatch","coord":9,"origin":1,"gen":0,"spec":{},"gds_hex":"","ranges":[[1,2,3]]}"#,
            r#"{"v":2,"cmd":"shard.dispatch","coord":9,"origin":1,"gen":0,"spec":{},"gds_hex":"","ranges":[["a","b"]]}"#,
            r#"{"v":2,"cmd":"shard.dispatch","coord":9,"origin":1,"gen":0,"spec":{},"gds_hex":"","ranges":7}"#,
            r#"{"v":2,"cmd":"shard.attach","origin":1,"gen":0}"#,
            r#"{"v":2,"cmd":"shard.attach","coord":9,"origin":1}"#,
            r#"{"v":2,"cmd":"shard.attach","coord":9,"gen":0}"#,
            r#"{"v":2,"cmd":"shard.pull"}"#,
            r#"{"v":2,"cmd":"shard.pull","job":1,"since":-4}"#,
            // Hostile shard responses.
            r#"{"v":2,"ok":true,"attached":"yes","job":1,"total":2,"ranges":[]}"#,
            r#"{"v":2,"ok":true,"attached":true,"job":1,"total":2}"#,
            r#"{"v":2,"ok":true,"attached":true,"job":1,"ranges":[],"total":-2}"#,
            r#"{"v":2,"ok":true,"outcomes":7,"next":0,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[{"tile":0}],"next":1,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[{"tile":0,"done":{}}],"next":1,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[{"tile":0,"done":{"data":"zz","ckpt_degraded":false,"cache":"none"}}],"next":1,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[{"tile":0,"done":{"data":"","ckpt_degraded":false,"cache":"warm"}}],"next":1,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[{"tile":0,"retries":[{"attempt":0}],"quarantined":{"attempts":1,"reason":"r"}}],"next":1,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[{"tile":0,"quarantined":{"attempts":1}}],"next":1,"settled":false}"#,
            r#"{"v":2,"ok":true,"outcomes":[],"next":0}"#,
            // Malformed resume cursors (`from_seq`).
            r#"{"v":2,"cmd":"events","job":1,"since":-2}"#,
            r#"{"v":2,"cmd":"events","job":1,"since":1.5}"#,
            r#"{"v":2,"cmd":"events","job":1,"since":"last"}"#,
            r#"{"v":2,"cmd":"shard.pull","job":1,"since":[0]}"#,
            // Malformed idempotency keys.
            r#"{"v":2,"cmd":"submit","spec":{},"gds_hex":"","idem":7}"#,
            r#"{"v":2,"cmd":"submit","spec":{},"gds_hex":"","idem":["k"]}"#,
            // Mistyped optional fields are refused, never defaulted.
            r#"{"v":2,"cmd":"results","job":1,"partial":"yes"}"#,
            r#"{"v":2,"cmd":"results","job":1,"partial":1}"#,
            r#"{"v":2,"cmd":"submit","spec":{"drc":"no"},"gds_hex":""}"#,
            r#"{"v":2,"ok":true,"pong":"yes"}"#,
            r#"{"v":2,"ok":true,"events":[],"next_seq":"soon"}"#,
            // Integers beyond 2^53 are not exact on the wire.
            r#"{"v":2,"cmd":"status","job":18014398509481984}"#,
            // Truncated / mistyped drain frames.
            r#"{"v":2,"cmd":"shutdown","drain":"yes"}"#,
            r#"{"v":2,"cmd":"shutdown","drain":1}"#,
            r#"{"v":2,"ok":true,"outcomes":[],"next":0,"settled":false,"draining":"no"}"#,
            // Truncated heartbeat frames, both directions.
            r#"{"v":2,"cmd":"shard.heartbeat"}"#,
            r#"{"v":2,"cmd":"shard.heartbeat","job":-1}"#,
            r#"{"v":2,"ok":true,"alive":true}"#,
            r#"{"v":2,"ok":true,"alive":true,"settled":true}"#,
            r#"{"v":2,"ok":true,"alive":true,"settled":true,"draining":"soon"}"#,
        ] {
            // Request lines carry "v":2 so the version gate cannot mask
            // the field check under test; everything else must fail as
            // a response (and, having no "cmd", as a request too).
            if line.contains("\"cmd\"") {
                assert_eq!(Request::parse(line).expect_err(line).code, ErrorCode::BadRequest, "{line}");
            } else {
                assert!(Request::parse(line).is_err() && Response::parse(line).is_err(), "{line}");
            }
        }
    }

    #[test]
    fn a_duplicated_idem_key_in_one_frame_is_just_json() {
        // Duplicate idempotency keys are a service-level dedupe, but a
        // duplicate key in one frame is just JSON: the parser keeps
        // every pair in order and `JsonValue::get` reads the first.
        let dup = r#"{"v":2,"cmd":"submit","spec":{},"gds_hex":"","idem":"a","idem":"b"}"#;
        match Request::parse(dup) {
            Ok(Request::Submit { idem, .. }) => assert_eq!(idem.as_deref(), Some("a")),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn a_submit_carrying_4_mib_of_hex_parses_in_linear_time() {
        // A size fence on the reader: linear in the frame, this takes a
        // fraction of a second even in a debug build. The reader that
        // re-validated the rest of the input at every character took
        // minutes here (about 150 ms for a 100 KB frame, quadratic), so
        // this is not meant to be run against that code.
        let gds = vec![0xa5u8; 2 << 20];
        let line = Request::Submit { spec: JobSpec::default(), gds: gds.clone(), idem: None }
            .to_json()
            .render();
        assert!(line.len() > 4 << 20);
        let t = std::time::Instant::now();
        match Request::parse(&line) {
            // Not assert_eq!: a mismatch would print megabytes of bytes.
            Ok(Request::Submit { gds: back, .. }) => assert!(back == gds),
            other => panic!("unexpected parse: {:?}", other.err()),
        }
        assert!(t.elapsed().as_secs() < 30, "4 MiB frame took {:?}", t.elapsed());
    }

    #[test]
    fn absent_draining_defaults_false_for_pre_drain_servers() {
        let line = r#"{"v":2,"ok":true,"outcomes":[],"next":4,"settled":true}"#;
        assert_eq!(
            Response::parse(line),
            Ok(Response::ShardOutcomes {
                outcomes: vec![],
                next: 4,
                settled: true,
                draining: false
            })
        );
    }

    #[test]
    fn all_job_states_survive_the_wire() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Partial,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_name(state.name()), Some(state));
            let resp = Response::Status(JobStatus { state, ..sample_status() });
            assert_eq!(Response::parse(&resp.to_json().render()), Ok(resp));
        }
    }
}
