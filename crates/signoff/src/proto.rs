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
//! version, is refused with code `"unsupported_version"` — in the same
//! v2 shape, on a connection that stays usable — never answered in
//! kind.
//!
//! Both directions are implemented symmetrically (`to_json` and
//! `parse`) so the test suite can round-trip every frame kind.

use crate::codec::{from_hex, parse_json, to_hex};
use crate::sched::Rejection;
use crate::service::{JobEvent, JobEventKind, JobState, JobStatus};
use crate::shard::{ShardGrant, TileCacheMark, TileOutcome, TileOutcomeKind, TileRetry};
use crate::spec::{json_i64, JobSpec};
use dfm_bench::json::JsonValue;

/// The protocol version this build speaks natively.
pub const PROTO_VERSION: u64 = 2;

/// A machine-readable failure: the shape of the `error` field.
///
/// `code` is a stable, snake_case discriminator clients can switch on
/// (`"unknown_tenant"`, `"quota_exceeded"`, `"busy"`, `"not_found"`,
/// `"bad_request"`, `"unsupported_version"`, or the catch-all
/// `"error"`); `message` is the human diagnostic. Backpressure
/// rejections also carry `retry_after_vms`, a deterministic
/// virtual-milliseconds hint for when to retry the submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorObj {
    /// Stable machine-readable discriminator (snake_case).
    pub code: String,
    /// Human-readable diagnostic.
    pub message: String,
    /// Retry hint in virtual milliseconds, on backpressure rejections.
    pub retry_after_vms: Option<u64>,
}

impl ErrorObj {
    /// An error with the given code and no retry hint.
    pub(crate) fn coded(code: &str, message: impl Into<String>) -> ErrorObj {
        ErrorObj { code: code.to_string(), message: message.into(), retry_after_vms: None }
    }

    /// Renders the `error` payload (`retry_after_vms` is omitted when
    /// absent).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("code".to_string(), JsonValue::str(&self.code)),
            ("message".to_string(), JsonValue::str(&self.message)),
        ];
        if let Some(vms) = self.retry_after_vms {
            fields.push(("retry_after_vms".to_string(), JsonValue::Num(vms as f64)));
        }
        JsonValue::Obj(fields)
    }

    /// Parses an `error` payload field-by-field.
    ///
    /// # Errors
    ///
    /// A diagnostic when the value is not a well-formed error object.
    pub fn from_json(v: &JsonValue) -> Result<ErrorObj, String> {
        let code = v
            .get("code")
            .and_then(JsonValue::as_str)
            .ok_or("error object needs a string \"code\"")?
            .to_string();
        let message = v
            .get("message")
            .and_then(JsonValue::as_str)
            .ok_or("error object needs a string \"message\"")?
            .to_string();
        let retry_after_vms = match v.get("retry_after_vms") {
            None | Some(JsonValue::Null) => None,
            Some(n) => Some(field_u64(n, "retry_after_vms")?),
        };
        Ok(ErrorObj { code, message, retry_after_vms })
    }
}

impl From<Rejection> for ErrorObj {
    fn from(r: Rejection) -> ErrorObj {
        ErrorObj {
            code: r.code.name().to_string(),
            message: r.message,
            retry_after_vms: r.retry_after_vms,
        }
    }
}

impl std::fmt::Display for ErrorObj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
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
    /// Fetch a job's events from a sequence number on.
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
    /// Coordinator→shard: poll a shard job's outcome log from a
    /// cursor on.
    ShardPull {
        /// The shard-local job id from the grant.
        job: u64,
        /// First outcome-log index wanted.
        since: u64,
    },
    /// Coordinator→shard: lease-renewing liveness probe for a shard
    /// job.
    ShardHeartbeat {
        /// The shard-local job id from the grant.
        job: u64,
    },
}

impl Request {
    /// Renders the request frame: a leading `"v"` field, then the
    /// body.
    pub fn to_json(&self) -> JsonValue {
        let body = match self {
            Request::Ping => JsonValue::obj([("cmd", JsonValue::str("ping"))]),
            Request::Submit { spec, gds, idem } => {
                let mut fields = vec![
                    ("cmd".to_string(), JsonValue::str("submit")),
                    ("spec".to_string(), spec.to_json()),
                    ("gds_hex".to_string(), JsonValue::str(to_hex(gds))),
                ];
                if let Some(key) = idem {
                    fields.push(("idem".to_string(), JsonValue::str(key)));
                }
                JsonValue::Obj(fields)
            }
            Request::Status { job } => JsonValue::obj([
                ("cmd", JsonValue::str("status")),
                ("job", JsonValue::Num(*job as f64)),
            ]),
            Request::Events { job, since } => JsonValue::obj([
                ("cmd", JsonValue::str("events")),
                ("job", JsonValue::Num(*job as f64)),
                ("since", JsonValue::Num(*since as f64)),
            ]),
            Request::Results { job, partial } => JsonValue::obj([
                ("cmd", JsonValue::str("results")),
                ("job", JsonValue::Num(*job as f64)),
                ("partial", JsonValue::Bool(*partial)),
            ]),
            Request::Score { job } => JsonValue::obj([
                ("cmd", JsonValue::str("score")),
                ("job", JsonValue::Num(*job as f64)),
            ]),
            Request::Cancel { job } => JsonValue::obj([
                ("cmd", JsonValue::str("cancel")),
                ("job", JsonValue::Num(*job as f64)),
            ]),
            Request::Resume { job } => JsonValue::obj([
                ("cmd", JsonValue::str("resume")),
                ("job", JsonValue::Num(*job as f64)),
            ]),
            Request::List => JsonValue::obj([("cmd", JsonValue::str("list"))]),
            Request::Shutdown { drain } => {
                let mut fields = vec![("cmd".to_string(), JsonValue::str("shutdown"))];
                if *drain {
                    fields.push(("drain".to_string(), JsonValue::Bool(true)));
                }
                JsonValue::Obj(fields)
            }
            Request::ShardDispatch { coord, origin, gen, spec, gds, ranges } => {
                let mut fields = vec![
                    ("cmd".to_string(), JsonValue::str("shard.dispatch")),
                    ("coord".to_string(), JsonValue::Num(*coord as f64)),
                    ("origin".to_string(), JsonValue::Num(*origin as f64)),
                    ("gen".to_string(), JsonValue::Num(*gen as f64)),
                    ("spec".to_string(), spec.to_json()),
                    ("gds_hex".to_string(), JsonValue::str(to_hex(gds))),
                ];
                if let Some(ranges) = ranges {
                    fields.push(("ranges".to_string(), ranges_to_json(ranges)));
                }
                JsonValue::Obj(fields)
            }
            Request::ShardAttach { coord, origin, gen } => JsonValue::obj([
                ("cmd", JsonValue::str("shard.attach")),
                ("coord", JsonValue::Num(*coord as f64)),
                ("origin", JsonValue::Num(*origin as f64)),
                ("gen", JsonValue::Num(*gen as f64)),
            ]),
            Request::ShardPull { job, since } => JsonValue::obj([
                ("cmd", JsonValue::str("shard.pull")),
                ("job", JsonValue::Num(*job as f64)),
                ("since", JsonValue::Num(*since as f64)),
            ]),
            Request::ShardHeartbeat { job } => JsonValue::obj([
                ("cmd", JsonValue::str("shard.heartbeat")),
                ("job", JsonValue::Num(*job as f64)),
            ]),
        };
        let JsonValue::Obj(mut fields) = body else { return body };
        fields.insert(0, ("v".to_string(), JsonValue::Num(PROTO_VERSION as f64)));
        JsonValue::Obj(fields)
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// The [`ErrorObj`] to answer with: code `"unsupported_version"`
    /// for well-formed JSON whose `"v"` is absent or not
    /// [`PROTO_VERSION`], `"bad_request"` for malformed JSON, an
    /// unknown `cmd`, or a missing or mistyped field. Never panics,
    /// whatever the bytes.
    pub fn parse(line: &str) -> Result<Request, ErrorObj> {
        let v = parse_json(line).map_err(|e| ErrorObj::coded("bad_request", e))?;
        if v.get("v").and_then(|n| field_u64(n, "v").ok()) != Some(PROTO_VERSION) {
            let got = v.get("v").map_or("none".to_string(), JsonValue::render);
            let message = format!(
                "unsupported protocol version {got}: send \"v\":{PROTO_VERSION} on every frame"
            );
            return Err(ErrorObj::coded("unsupported_version", message));
        }
        Request::from_json(&v).map_err(|e| ErrorObj::coded("bad_request", e))
    }

    fn from_json(v: &JsonValue) -> Result<Request, String> {
        let cmd = v
            .get("cmd")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string \"cmd\" field")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let spec =
                    JobSpec::from_json(v.get("spec").ok_or("submit needs a \"spec\" object")?)?;
                let hex = v
                    .get("gds_hex")
                    .and_then(JsonValue::as_str)
                    .ok_or("submit needs a \"gds_hex\" string")?;
                let idem = match v.get("idem") {
                    None | Some(JsonValue::Null) => None,
                    Some(k) => Some(
                        k.as_str()
                            .ok_or("submit \"idem\" must be a string")?
                            .to_string(),
                    ),
                };
                Ok(Request::Submit { spec, gds: from_hex(hex)?, idem })
            }
            "status" => Ok(Request::Status { job: job_id(v)? }),
            "events" => Ok(Request::Events {
                job: job_id(v)?,
                since: v.get("since").map_or(Ok(0), |s| field_u64(s, "since"))?,
            }),
            "results" => Ok(Request::Results {
                job: job_id(v)?,
                partial: v.get("partial").and_then(JsonValue::as_bool).unwrap_or(false),
            }),
            "score" => Ok(Request::Score { job: job_id(v)? }),
            "cancel" => Ok(Request::Cancel { job: job_id(v)? }),
            "resume" => Ok(Request::Resume { job: job_id(v)? }),
            "list" => Ok(Request::List),
            "shutdown" => Ok(Request::Shutdown {
                drain: match v.get("drain") {
                    None | Some(JsonValue::Null) => false,
                    Some(d) => d.as_bool().ok_or("shutdown \"drain\" must be a boolean")?,
                },
            }),
            "shard.dispatch" => {
                let spec = JobSpec::from_json(
                    v.get("spec").ok_or("shard.dispatch needs a \"spec\" object")?,
                )?;
                let hex = v
                    .get("gds_hex")
                    .and_then(JsonValue::as_str)
                    .ok_or("shard.dispatch needs a \"gds_hex\" string")?;
                let ranges = match v.get("ranges") {
                    None | Some(JsonValue::Null) => None,
                    Some(r) => Some(ranges_from_json(r)?),
                };
                Ok(Request::ShardDispatch {
                    coord: field_u64(
                        v.get("coord").ok_or("shard.dispatch needs a \"coord\"")?,
                        "coord",
                    )?,
                    origin: field_u64(
                        v.get("origin").ok_or("shard.dispatch needs an \"origin\"")?,
                        "origin",
                    )?,
                    gen: field_u64(v.get("gen").ok_or("shard.dispatch needs a \"gen\"")?, "gen")?,
                    spec,
                    gds: from_hex(hex)?,
                    ranges,
                })
            }
            "shard.attach" => Ok(Request::ShardAttach {
                coord: field_u64(
                    v.get("coord").ok_or("shard.attach needs a \"coord\"")?,
                    "coord",
                )?,
                origin: field_u64(
                    v.get("origin").ok_or("shard.attach needs an \"origin\"")?,
                    "origin",
                )?,
                gen: field_u64(v.get("gen").ok_or("shard.attach needs a \"gen\"")?, "gen")?,
            }),
            "shard.pull" => Ok(Request::ShardPull {
                job: job_id(v)?,
                since: v.get("since").map_or(Ok(0), |s| field_u64(s, "since"))?,
            }),
            "shard.heartbeat" => Ok(Request::ShardHeartbeat { job: job_id(v)? }),
            other => Err(format!("unknown cmd '{other}'")),
        }
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
    /// A shard answers a heartbeat: the lease is renewed.
    ShardAlive {
        /// True once the shard job has settled.
        settled: bool,
        /// True when the shard's service is draining.
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
        let frame = |ok: bool, fields: Vec<(String, JsonValue)>| {
            let mut all = vec![
                ("v".to_string(), JsonValue::Num(PROTO_VERSION as f64)),
                ("ok".to_string(), JsonValue::Bool(ok)),
            ];
            all.extend(fields);
            JsonValue::Obj(all)
        };
        let ok = |fields| frame(true, fields);
        match self {
            Response::Pong => ok(vec![("pong".to_string(), JsonValue::Bool(true))]),
            Response::Submitted { job } => {
                ok(vec![("job".to_string(), JsonValue::Num(*job as f64))])
            }
            Response::Status(status) => ok(vec![("status".to_string(), status_to_json(status))]),
            Response::Events { events, next_seq } => ok(vec![
                (
                    "events".to_string(),
                    JsonValue::Arr(events.iter().map(event_to_json).collect()),
                ),
                ("next_seq".to_string(), JsonValue::Num(*next_seq as f64)),
            ]),
            Response::Results { status, report_text } => ok(vec![
                ("status".to_string(), status_to_json(status)),
                ("report_text".to_string(), JsonValue::str(report_text)),
            ]),
            Response::Score { status, score_json } => ok(vec![
                ("status".to_string(), status_to_json(status)),
                ("score_json".to_string(), JsonValue::str(score_json)),
            ]),
            Response::List { jobs } => ok(vec![(
                "jobs".to_string(),
                JsonValue::Arr(jobs.iter().map(status_to_json).collect()),
            )]),
            Response::ShuttingDown => {
                ok(vec![("shutting_down".to_string(), JsonValue::Bool(true))])
            }
            Response::ShardDispatched { grant } => ok(vec![
                ("job".to_string(), JsonValue::Num(grant.job as f64)),
                ("total".to_string(), JsonValue::Num(grant.total as f64)),
                ("ranges".to_string(), ranges_to_json(&grant.ranges)),
                ("attached".to_string(), JsonValue::Bool(grant.attached)),
            ]),
            Response::ShardOutcomes { outcomes, next, settled, draining } => ok(vec![
                (
                    "outcomes".to_string(),
                    JsonValue::Arr(outcomes.iter().map(outcome_to_json).collect()),
                ),
                ("next".to_string(), JsonValue::Num(*next as f64)),
                ("settled".to_string(), JsonValue::Bool(*settled)),
                ("draining".to_string(), JsonValue::Bool(*draining)),
            ]),
            Response::ShardAlive { settled, draining } => ok(vec![
                ("alive".to_string(), JsonValue::Bool(true)),
                ("settled".to_string(), JsonValue::Bool(*settled)),
                ("draining".to_string(), JsonValue::Bool(*draining)),
            ]),
            Response::Error { error } => frame(false, vec![("error".to_string(), error.to_json())]),
        }
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A diagnostic for malformed JSON or an unrecognisable frame.
    /// Never panics, whatever the bytes.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = parse_json(line)?;
        let ok = v
            .get("ok")
            .and_then(JsonValue::as_bool)
            .ok_or("response needs a boolean \"ok\" field")?;
        if !ok {
            let error = v.get("error").ok_or("error response needs an \"error\" field")?;
            return Ok(Response::Error { error: ErrorObj::from_json(error)? });
        }
        if v.get("pong").is_some() {
            return Ok(Response::Pong);
        }
        if v.get("shutting_down").is_some() {
            return Ok(Response::ShuttingDown);
        }
        // Shard frames are keyed on fields no legacy frame carries —
        // checked before "events"/"job", which they would also match.
        if v.get("alive").is_some() {
            return Ok(Response::ShardAlive {
                settled: v
                    .get("settled")
                    .and_then(JsonValue::as_bool)
                    .ok_or("heartbeat ack needs a boolean \"settled\"")?,
                draining: v
                    .get("draining")
                    .and_then(JsonValue::as_bool)
                    .ok_or("heartbeat ack needs a boolean \"draining\"")?,
            });
        }
        if v.get("attached").is_some() {
            let ranges =
                ranges_from_json(v.get("ranges").ok_or("shard grant needs \"ranges\"")?)?;
            return Ok(Response::ShardDispatched {
                grant: ShardGrant {
                    job: field_u64(v.get("job").ok_or("shard grant needs \"job\"")?, "job")?,
                    total: field_u64(v.get("total").ok_or("shard grant needs \"total\"")?, "total")?
                        as usize,
                    ranges,
                    attached: v
                        .get("attached")
                        .and_then(JsonValue::as_bool)
                        .ok_or("\"attached\" must be a boolean")?,
                },
            });
        }
        if let Some(outcomes) = v.get("outcomes") {
            let arr = outcomes.as_arr().ok_or("\"outcomes\" must be an array")?;
            let outcomes = arr.iter().map(outcome_from_json).collect::<Result<_, _>>()?;
            return Ok(Response::ShardOutcomes {
                outcomes,
                next: v.get("next").map_or(Ok(0), |n| field_u64(n, "next"))?,
                settled: v
                    .get("settled")
                    .and_then(JsonValue::as_bool)
                    .ok_or("shard outcomes need a boolean \"settled\"")?,
                // Absent means false: a pre-drain server never drains.
                draining: match v.get("draining") {
                    None | Some(JsonValue::Null) => false,
                    Some(d) => d
                        .as_bool()
                        .ok_or("shard outcomes \"draining\" must be a boolean")?,
                },
            });
        }
        if let Some(events) = v.get("events") {
            let arr = events.as_arr().ok_or("\"events\" must be an array")?;
            let events = arr.iter().map(event_from_json).collect::<Result<_, _>>()?;
            let next_seq = v
                .get("next_seq")
                .map_or(Ok(0), |s| field_u64(s, "next_seq"))?;
            return Ok(Response::Events { events, next_seq });
        }
        if let Some(report_text) = v.get("report_text") {
            let report_text =
                report_text.as_str().ok_or("\"report_text\" must be a string")?.to_string();
            let status =
                status_from_json(v.get("status").ok_or("results response needs \"status\"")?)?;
            return Ok(Response::Results { status, report_text });
        }
        if let Some(score_json) = v.get("score_json") {
            let score_json =
                score_json.as_str().ok_or("\"score_json\" must be a string")?.to_string();
            let status =
                status_from_json(v.get("status").ok_or("score response needs \"status\"")?)?;
            return Ok(Response::Score { status, score_json });
        }
        if let Some(status) = v.get("status") {
            return Ok(Response::Status(status_from_json(status)?));
        }
        if let Some(jobs) = v.get("jobs") {
            let arr = jobs.as_arr().ok_or("\"jobs\" must be an array")?;
            let jobs = arr.iter().map(status_from_json).collect::<Result<_, _>>()?;
            return Ok(Response::List { jobs });
        }
        if let Some(job) = v.get("job") {
            return Ok(Response::Submitted { job: field_u64(job, "job")? });
        }
        Err("unrecognised response frame".to_string())
    }
}

fn job_id(v: &JsonValue) -> Result<u64, String> {
    field_u64(v.get("job").ok_or("request needs a \"job\" id")?, "job")
}

fn ranges_to_json(ranges: &[(usize, usize)]) -> JsonValue {
    JsonValue::Arr(
        ranges
            .iter()
            .map(|&(lo, hi)| {
                JsonValue::Arr(vec![JsonValue::Num(lo as f64), JsonValue::Num(hi as f64)])
            })
            .collect(),
    )
}

fn ranges_from_json(v: &JsonValue) -> Result<Vec<(usize, usize)>, String> {
    let arr = v.as_arr().ok_or("\"ranges\" must be an array")?;
    arr.iter()
        .map(|r| {
            let pair = r.as_arr().ok_or("each range must be a [lo, hi] pair")?;
            if pair.len() != 2 {
                return Err("each range must be a [lo, hi] pair".to_string());
            }
            Ok((
                field_u64(&pair[0], "range lo")? as usize,
                field_u64(&pair[1], "range hi")? as usize,
            ))
        })
        .collect()
}

fn outcome_to_json(o: &TileOutcome) -> JsonValue {
    let retries = JsonValue::Arr(
        o.retries
            .iter()
            .map(|r| {
                JsonValue::obj([
                    ("attempt", JsonValue::Num(r.attempt as f64)),
                    ("backoff_vms", JsonValue::Num(r.backoff_vms as f64)),
                    ("reason", JsonValue::str(&r.reason)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("tile".to_string(), JsonValue::Num(o.tile as f64)),
        ("retries".to_string(), retries),
    ];
    match &o.kind {
        TileOutcomeKind::Done { data, ckpt_degraded, cache } => fields.push((
            "done".to_string(),
            JsonValue::obj([
                ("data", JsonValue::str(to_hex(data))),
                ("ckpt_degraded", JsonValue::Bool(*ckpt_degraded)),
                (
                    "cache",
                    JsonValue::str(match cache {
                        TileCacheMark::Hit => "hit",
                        TileCacheMark::Stored => "store",
                        TileCacheMark::None => "none",
                    }),
                ),
            ]),
        )),
        TileOutcomeKind::Quarantined { attempts, reason } => fields.push((
            "quarantined".to_string(),
            JsonValue::obj([
                ("attempts", JsonValue::Num(*attempts as f64)),
                ("reason", JsonValue::str(reason)),
            ]),
        )),
    }
    JsonValue::Obj(fields)
}

fn outcome_from_json(v: &JsonValue) -> Result<TileOutcome, String> {
    let tile = field_u64(v.get("tile").ok_or("outcome needs a \"tile\"")?, "tile")? as usize;
    let retries = match v.get("retries") {
        None => Vec::new(),
        Some(r) => r
            .as_arr()
            .ok_or("outcome \"retries\" must be an array")?
            .iter()
            .map(|r| {
                Ok(TileRetry {
                    attempt: field_u64(
                        r.get("attempt").ok_or("retry needs an \"attempt\"")?,
                        "attempt",
                    )?,
                    backoff_vms: field_u64(
                        r.get("backoff_vms").ok_or("retry needs \"backoff_vms\"")?,
                        "backoff_vms",
                    )?,
                    reason: r
                        .get("reason")
                        .and_then(JsonValue::as_str)
                        .ok_or("retry needs a \"reason\" string")?
                        .to_string(),
                })
            })
            .collect::<Result<_, String>>()?,
    };
    let kind = if let Some(done) = v.get("done") {
        let hex = done
            .get("data")
            .and_then(JsonValue::as_str)
            .ok_or("done outcome needs a \"data\" hex string")?;
        TileOutcomeKind::Done {
            data: from_hex(hex)?,
            ckpt_degraded: done
                .get("ckpt_degraded")
                .and_then(JsonValue::as_bool)
                .ok_or("done outcome needs a boolean \"ckpt_degraded\"")?,
            cache: match done
                .get("cache")
                .and_then(JsonValue::as_str)
                .ok_or("done outcome needs a \"cache\" mark")?
            {
                "hit" => TileCacheMark::Hit,
                "store" => TileCacheMark::Stored,
                "none" => TileCacheMark::None,
                other => return Err(format!("unknown cache mark '{other}'")),
            },
        }
    } else if let Some(q) = v.get("quarantined") {
        TileOutcomeKind::Quarantined {
            attempts: field_u64(
                q.get("attempts").ok_or("quarantined outcome needs \"attempts\"")?,
                "attempts",
            )?,
            reason: q
                .get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("quarantined outcome needs a \"reason\" string")?
                .to_string(),
        }
    } else {
        return Err("outcome needs a \"done\" or \"quarantined\" verdict".to_string());
    };
    Ok(TileOutcome { tile, retries, kind })
}

fn field_u64(v: &JsonValue, what: &str) -> Result<u64, String> {
    let n = json_i64(v, what)?;
    u64::try_from(n).map_err(|_| format!("{what} must be non-negative"))
}

fn status_to_json(s: &JobStatus) -> JsonValue {
    JsonValue::obj([
        ("id", JsonValue::Num(s.id as f64)),
        ("name", JsonValue::str(&s.name)),
        // Always present on the wire (our parser defaults them when
        // absent, so frames from pre-tenant servers still parse).
        ("tenant", JsonValue::str(&s.tenant)),
        ("priority", JsonValue::Num(s.priority as f64)),
        ("state", JsonValue::str(s.state.name())),
        ("tiles_total", JsonValue::Num(s.tiles_total as f64)),
        ("tiles_done", JsonValue::Num(s.tiles_done as f64)),
        ("tiles_quarantined", JsonValue::Num(s.tiles_quarantined as f64)),
        ("tiles_cached", JsonValue::Num(s.tiles_cached as f64)),
        ("next_seq", JsonValue::Num(s.next_seq as f64)),
        (
            // The score travels as its IEEE-754 bit pattern in a
            // string: a JSON Num would round-trip through f64 text
            // formatting, and byte-exactness is the whole point.
            "score_bits",
            match s.score_bits {
                Some(bits) => JsonValue::u64_str(bits),
                None => JsonValue::Null,
            },
        ),
        (
            "score_pass",
            match s.score_pass {
                Some(p) => JsonValue::Bool(p),
                None => JsonValue::Null,
            },
        ),
        (
            "error",
            match &s.error {
                Some(e) => JsonValue::str(e),
                None => JsonValue::Null,
            },
        ),
    ])
}

fn status_from_json(v: &JsonValue) -> Result<JobStatus, String> {
    let state_name = v
        .get("state")
        .and_then(JsonValue::as_str)
        .ok_or("status needs a \"state\" string")?;
    let state =
        JobState::from_name(state_name).ok_or_else(|| format!("unknown state '{state_name}'"))?;
    let error = match v.get("error") {
        None | Some(JsonValue::Null) => None,
        Some(e) => Some(e.as_str().ok_or("status \"error\" must be a string")?.to_string()),
    };
    Ok(JobStatus {
        id: field_u64(v.get("id").ok_or("status needs an \"id\"")?, "id")?,
        name: v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("status needs a \"name\" string")?
            .to_string(),
        tenant: match v.get("tenant") {
            None => crate::spec::DEFAULT_TENANT.to_string(),
            Some(t) => t.as_str().ok_or("status \"tenant\" must be a string")?.to_string(),
        },
        priority: match v.get("priority") {
            None => 0,
            Some(p) => u8::try_from(field_u64(p, "priority")?)
                .map_err(|_| "status \"priority\" out of range".to_string())?,
        },
        state,
        tiles_total: field_u64(v.get("tiles_total").ok_or("status needs \"tiles_total\"")?, "tiles_total")?
            as usize,
        tiles_done: field_u64(v.get("tiles_done").ok_or("status needs \"tiles_done\"")?, "tiles_done")?
            as usize,
        tiles_quarantined: v
            .get("tiles_quarantined")
            .map_or(Ok(0), |s| field_u64(s, "tiles_quarantined"))? as usize,
        tiles_cached: v
            .get("tiles_cached")
            .map_or(Ok(0), |s| field_u64(s, "tiles_cached"))? as usize,
        next_seq: v.get("next_seq").map_or(Ok(0), |s| field_u64(s, "next_seq"))?,
        score_bits: match v.get("score_bits") {
            None | Some(JsonValue::Null) => None,
            Some(b) => Some(u64_from_str(b, "score_bits")?),
        },
        score_pass: match v.get("score_pass") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(p.as_bool().ok_or("status \"score_pass\" must be a boolean")?),
        },
        error,
    })
}

/// Parses an exact u64 shipped as a decimal string
/// ([`JsonValue::u64_str`] — score bits exceed f64's exact-integer
/// range).
fn u64_from_str(v: &JsonValue, what: &str) -> Result<u64, String> {
    v.as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("{what} must be a u64 decimal string"))
}

fn event_to_json(e: &JobEvent) -> JsonValue {
    match &e.kind {
        JobEventKind::State(state) => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("state")),
            ("state", JsonValue::str(state.name())),
        ]),
        JobEventKind::TileDone { tile, completed, total } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("tile")),
            ("tile", JsonValue::Num(*tile as f64)),
            ("completed", JsonValue::Num(*completed as f64)),
            ("total", JsonValue::Num(*total as f64)),
        ]),
        JobEventKind::TileRetry { tile, attempt, backoff_vms, reason } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("retry")),
            ("tile", JsonValue::Num(*tile as f64)),
            ("attempt", JsonValue::Num(*attempt as f64)),
            ("backoff_vms", JsonValue::Num(*backoff_vms as f64)),
            ("reason", JsonValue::str(reason)),
        ]),
        JobEventKind::TileQuarantined { tile, attempts, reason } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("quarantine")),
            ("tile", JsonValue::Num(*tile as f64)),
            ("attempts", JsonValue::Num(*attempts as f64)),
            ("reason", JsonValue::str(reason)),
        ]),
        JobEventKind::CkptDegraded { tile } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("ckpt")),
            ("tile", JsonValue::Num(*tile as f64)),
        ]),
        JobEventKind::TileCacheHit { tile } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("cache_hit")),
            ("tile", JsonValue::Num(*tile as f64)),
        ]),
        JobEventKind::TileCacheStore { tile } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("cache_store")),
            ("tile", JsonValue::Num(*tile as f64)),
        ]),
        JobEventKind::Score { bits, pass } => JsonValue::obj([
            ("seq", JsonValue::Num(e.seq as f64)),
            ("kind", JsonValue::str("score")),
            ("bits", JsonValue::u64_str(*bits)),
            ("pass", JsonValue::Bool(*pass)),
        ]),
    }
}

fn event_from_json(v: &JsonValue) -> Result<JobEvent, String> {
    let seq = field_u64(v.get("seq").ok_or("event needs a \"seq\"")?, "seq")?;
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("event needs a \"kind\" string")?;
    let kind = match kind {
        "state" => {
            let name = v
                .get("state")
                .and_then(JsonValue::as_str)
                .ok_or("state event needs a \"state\"")?;
            JobEventKind::State(
                JobState::from_name(name).ok_or_else(|| format!("unknown state '{name}'"))?,
            )
        }
        "tile" => JobEventKind::TileDone {
            tile: field_u64(v.get("tile").ok_or("tile event needs \"tile\"")?, "tile")? as usize,
            completed: field_u64(
                v.get("completed").ok_or("tile event needs \"completed\"")?,
                "completed",
            )? as usize,
            total: field_u64(v.get("total").ok_or("tile event needs \"total\"")?, "total")?
                as usize,
        },
        "retry" => JobEventKind::TileRetry {
            tile: field_u64(v.get("tile").ok_or("retry event needs \"tile\"")?, "tile")? as usize,
            attempt: field_u64(v.get("attempt").ok_or("retry event needs \"attempt\"")?, "attempt")?,
            backoff_vms: field_u64(
                v.get("backoff_vms").ok_or("retry event needs \"backoff_vms\"")?,
                "backoff_vms",
            )?,
            reason: v
                .get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("retry event needs a \"reason\" string")?
                .to_string(),
        },
        "quarantine" => JobEventKind::TileQuarantined {
            tile: field_u64(v.get("tile").ok_or("quarantine event needs \"tile\"")?, "tile")?
                as usize,
            attempts: field_u64(
                v.get("attempts").ok_or("quarantine event needs \"attempts\"")?,
                "attempts",
            )?,
            reason: v
                .get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("quarantine event needs a \"reason\" string")?
                .to_string(),
        },
        "ckpt" => JobEventKind::CkptDegraded {
            tile: field_u64(v.get("tile").ok_or("ckpt event needs \"tile\"")?, "tile")? as usize,
        },
        "cache_hit" => JobEventKind::TileCacheHit {
            tile: field_u64(v.get("tile").ok_or("cache_hit event needs \"tile\"")?, "tile")?
                as usize,
        },
        "cache_store" => JobEventKind::TileCacheStore {
            tile: field_u64(v.get("tile").ok_or("cache_store event needs \"tile\"")?, "tile")?
                as usize,
        },
        "score" => JobEventKind::Score {
            bits: u64_from_str(v.get("bits").ok_or("score event needs \"bits\"")?, "bits")?,
            pass: v
                .get("pass")
                .and_then(JsonValue::as_bool)
                .ok_or("score event needs a boolean \"pass\"")?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(JobEvent { seq, kind })
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

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
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
            Request::ShardHeartbeat { job: 11 },
        ];
        for req in requests {
            let line = req.to_json().render();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            let back = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, req, "{line}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
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
            Response::ShardAlive { settled: false, draining: false },
            Response::ShardAlive { settled: true, draining: true },
            Response::Error { error: ErrorObj::coded("not_found", "no such job: 4") },
            Response::Error {
                error: ErrorObj {
                    code: "quota_exceeded".to_string(),
                    message: "tenant 'acme' is at max_jobs=2".to_string(),
                    retry_after_vms: Some(96),
                },
            },
        ];
        for resp in responses {
            let line = resp.to_json().render();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert!(line.contains("\"v\":2"), "v2 frames carry the version: {line}");
            let back = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, resp, "{line}");
        }
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
            assert_eq!(err.code, "unsupported_version", "{line}: {err}");
            assert_eq!(err.retry_after_vms, None);
        }
        let err = Request::parse(r#"{"v":3,"cmd":"ping"}"#).expect_err("v3");
        assert!(err.message.contains("version 3") && err.message.contains("\"v\":2"), "{err}");
        // The version gate runs before the body is looked at; a v2
        // frame with a bad body is the client's fault instead.
        assert_eq!(Request::parse(r#"{"v":2,"cmd":"ping"}"#), Ok(Request::Ping));
        for line in ["{", r#"{"v":2,"cmd":"warp"}"#, r#"{"v":2,"cmd":"status"}"#] {
            assert_eq!(Request::parse(line).expect_err(line).code, "bad_request", "{line}");
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
    }

    #[test]
    fn error_objects_round_trip_and_render_hints() {
        let e = ErrorObj {
            code: "quota_exceeded".to_string(),
            message: "tenant 'acme' is at max_tiles=64".to_string(),
            retry_after_vms: Some(512),
        };
        assert_eq!(ErrorObj::from_json(&e.to_json()), Ok(e.clone()));
        assert_eq!(
            e.to_string(),
            "quota_exceeded: tenant 'acme' is at max_tiles=64 (retry after 512 vms)"
        );
        let plain = ErrorObj::coded("error", "boom");
        assert_eq!(ErrorObj::from_json(&plain.to_json()), Ok(plain.clone()));
        assert_eq!(plain.to_string(), "error: boom");
        // Mistyped objects are diagnostics, not panics.
        assert!(ErrorObj::from_json(&parse_json(r#"{"code":7}"#).unwrap()).is_err());
        assert!(ErrorObj::from_json(&parse_json(r#"{"code":"x"}"#).unwrap()).is_err());
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
                assert_eq!(Request::parse(line).expect_err(line).code, "bad_request", "{line}");
            } else {
                assert!(Request::parse(line).is_err() && Response::parse(line).is_err(), "{line}");
            }
        }
    }

    #[test]
    fn a_duplicated_idem_key_in_one_frame_is_just_json() {
        // Duplicate idempotency keys are a service-level dedupe, but a
        // duplicate key in one frame is just JSON: last value wins in
        // the parser, and an unknown key shape is an error above.
        let dup = r#"{"v":2,"cmd":"submit","spec":{},"gds_hex":"","idem":"a","idem":"b"}"#;
        match Request::parse(dup) {
            Ok(Request::Submit { idem, .. }) => {
                assert!(idem.is_some(), "a duplicated key still yields a key")
            }
            Ok(other) => panic!("unexpected frame: {other:?}"),
            Err(_) => {} // a parser that refuses duplicates is also fine
        }
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
