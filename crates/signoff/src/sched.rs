//! Multi-tenant fair-share tile scheduler with admission control.
//!
//! Tile tasks no longer flow straight from `submit()` into the worker
//! pool. Each admitted job's cache-miss tiles enter a per-tenant,
//! per-priority lane; a grant loop drains the lanes in weighted-fair
//! order and feeds the pool through a bounded in-flight window. The
//! window is the plan's `global max_inflight`, or else the pool's
//! worker count, so a grant is a worker slot: misses wait in their
//! lanes, not in the pool's FIFO, and weights and priorities decide
//! every grant. The scheduler is a pure state machine — no clocks, no
//! threads — so the grant sequence is a function of the submission
//! order and the window alone; under an explicit `max_inflight` that
//! keeps it byte-identical across worker counts.
//!
//! ## Ordering
//!
//! Every tile admitted to lane `(tenant, priority)` takes the next
//! virtual number `vnum` from that lane's counter; its virtual time is
//! the rational `vnum / weight`. Grants are issued in ascending
//! `GrantKey` order: priority first (higher wins), then virtual time
//! (compared by u128 cross-multiplication, no floats), then tenant
//! name, job id, and tile index as total-order tie-breaks. A tenant
//! with weight 2 therefore receives two grants for every one a
//! weight-1 tenant receives — the deficit a light tenant accumulates
//! per round is exactly the classic weighted-deficit round-robin
//! schedule, computed eagerly at admission instead of per round.
//!
//! An idle lane must not bank credit while others work, so the
//! scheduler tracks a per-priority virtual floor — the largest virtual
//! time ever granted in that class — and a lane (re)filling from empty
//! starts at `max(counter + 1, ceil(floor * weight))`. Lanes with
//! backlog are unaffected (their counters already sit at or above the
//! floor); a newly arriving tenant simply joins the present instead of
//! replaying the past.
//!
//! ## Admission
//!
//! [`SchedConfig`] is parsed from the same line-oriented text format as
//! fault plans and score specs:
//!
//! ```text
//! tenant acme weight 2 max_jobs 4 max_tiles 2000
//! tenant free weight 1
//! tenant * weight 1                # policy for unlisted tenants
//! global max_inflight 8 max_pending_tiles 10000
//! ```
//!
//! A submission is rejected with a structured [`ErrorObj`] — code,
//! message, deterministic retry-after hint in virtual milliseconds —
//! when the tenant is unknown (no wildcard policy), a per-tenant
//! `max_jobs`/`max_tiles` quota would be exceeded, or the global
//! pending-tile ceiling is hit (`busy`). Nothing about an admitted job
//! is recorded on the rejection path.

use crate::proto::{ErrorCode, ErrorObj};
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic retry-after hint: virtual milliseconds charged per
/// tile still queued ahead of the rejected submission.
pub const RETRY_HINT_VMS_PER_TILE: u64 = 8;

/// Per-tenant scheduling policy from a `tenant` config line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Tenant name, or `*` for the wildcard policy.
    pub name: String,
    /// Fair-share weight (grants per round relative to weight-1).
    pub weight: u64,
    /// Cap on concurrently active (unsettled) jobs.
    pub max_jobs: Option<u64>,
    /// Cap on admitted-but-ungranted tiles across the tenant's jobs.
    pub max_tiles: Option<u64>,
}

impl TenantPolicy {
    fn unit(name: &str) -> Self {
        TenantPolicy {
            name: name.to_string(),
            weight: 1,
            max_jobs: None,
            max_tiles: None,
        }
    }
}

/// Scheduler + admission configuration.
///
/// The parsed form of a tenant plan file, exactly as written. `Default`
/// is the closed config (no tenants, no wildcard: every submission is
/// rejected); [`SchedConfig::open`] is the permissive config used when
/// a server runs without a tenant plan — any tenant name is admitted at
/// weight 1 with no quotas, and the grant window is the pool's worker
/// count, so `--priority` still orders every grant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedConfig {
    /// Explicitly configured tenants, in plan-file order.
    pub tenants: Vec<TenantPolicy>,
    /// Policy applied to tenant names without an explicit line
    /// (`tenant * ...`). `None` rejects unlisted tenants.
    pub wildcard: Option<TenantPolicy>,
    /// Global grant window: granted-but-unresolved tile ceiling.
    /// `None` (no `global max_inflight` line) sizes the window to the
    /// worker pool the scheduler feeds ([`Scheduler::with_workers`]).
    pub max_inflight: Option<u64>,
    /// Global ceiling on admitted-but-ungranted tiles — tiles waiting
    /// in lanes; beyond it submissions are rejected `busy`. `None` is
    /// unbounded.
    pub max_pending_tiles: Option<u64>,
}

impl SchedConfig {
    /// Permissive config: every tenant admitted, weight 1, no quotas,
    /// no explicit window (a service's window is its worker count).
    pub fn open() -> Self {
        SchedConfig {
            tenants: Vec::new(),
            wildcard: Some(TenantPolicy::unit("*")),
            max_inflight: None,
            max_pending_tiles: None,
        }
    }

    /// Parse the line-oriented tenant plan format. Blank lines and
    /// `#` comments are skipped; errors carry the 1-based line number
    /// and the offending text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = SchedConfig::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let line = line.split('#').next().unwrap().trim();
            let mut words = line.split_whitespace();
            let err = |what: &str| format!("line {}: {}: '{}'", idx + 1, what, raw.trim());
            match words.next() {
                Some("tenant") => {
                    let name = words.next().ok_or_else(|| err("missing tenant name"))?;
                    if name.is_empty() || (name != "*" && !name.chars().all(is_tenant_char)) {
                        return Err(err("tenant name must be [A-Za-z0-9_.-]+ or '*'"));
                    }
                    let mut policy = TenantPolicy::unit(name);
                    let mut saw_weight = false;
                    while let Some(key) = words.next() {
                        let value = words.next().ok_or_else(|| err("missing value"))?;
                        let n: u64 = value
                            .parse()
                            .map_err(|_| err("value must be a non-negative integer"))?;
                        match key {
                            "weight" => {
                                if n == 0 {
                                    return Err(err("weight must be >= 1"));
                                }
                                policy.weight = n;
                                saw_weight = true;
                            }
                            "max_jobs" => policy.max_jobs = Some(n),
                            "max_tiles" => policy.max_tiles = Some(n),
                            _ => return Err(err("unknown tenant key")),
                        }
                    }
                    if !saw_weight {
                        return Err(err("tenant line requires 'weight N'"));
                    }
                    if name == "*" {
                        if cfg.wildcard.is_some() {
                            return Err(err("duplicate wildcard tenant"));
                        }
                        cfg.wildcard = Some(policy);
                    } else {
                        if cfg.tenants.iter().any(|t| t.name == name) {
                            return Err(err("duplicate tenant"));
                        }
                        cfg.tenants.push(policy);
                    }
                }
                Some("global") => {
                    while let Some(key) = words.next() {
                        let value = words.next().ok_or_else(|| err("missing value"))?;
                        let n: u64 = value
                            .parse()
                            .map_err(|_| err("value must be a non-negative integer"))?;
                        match key {
                            "max_inflight" => {
                                if n == 0 {
                                    return Err(err("max_inflight must be >= 1"));
                                }
                                cfg.max_inflight = Some(n);
                            }
                            "max_pending_tiles" => cfg.max_pending_tiles = Some(n),
                            _ => return Err(err("unknown global key")),
                        }
                    }
                }
                _ => return Err(err("expected 'tenant' or 'global'")),
            }
        }
        Ok(cfg)
    }

    /// Render back to the text format (`parse(render(c)) == c`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut tenant_line = |p: &TenantPolicy| {
            out.push_str(&format!("tenant {} weight {}", p.name, p.weight));
            if let Some(n) = p.max_jobs {
                out.push_str(&format!(" max_jobs {n}"));
            }
            if let Some(n) = p.max_tiles {
                out.push_str(&format!(" max_tiles {n}"));
            }
            out.push('\n');
        };
        for p in &self.tenants {
            tenant_line(p);
        }
        if let Some(p) = &self.wildcard {
            tenant_line(p);
        }
        if self.max_inflight.is_some() || self.max_pending_tiles.is_some() {
            out.push_str("global");
            if let Some(n) = self.max_inflight {
                out.push_str(&format!(" max_inflight {n}"));
            }
            if let Some(n) = self.max_pending_tiles {
                out.push_str(&format!(" max_pending_tiles {n}"));
            }
            out.push('\n');
        }
        out
    }

    fn policy_for(&self, name: &str) -> Option<TenantPolicy> {
        if let Some(p) = self.tenants.iter().find(|t| t.name == name) {
            return Some(p.clone());
        }
        self.wildcard.as_ref().map(|w| TenantPolicy {
            name: name.to_string(),
            ..w.clone()
        })
    }
}

/// A tenant name usable in plan files and wire frames.
pub fn is_tenant_name(name: &str) -> bool {
    !name.is_empty() && name.len() <= 64 && name.chars().all(is_tenant_char)
}

fn is_tenant_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// One entry of the grant log: the `seq`-th pool grant overall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// Global grant sequence number, dense from 0.
    pub seq: u64,
    /// Tenant the grant was charged to.
    pub tenant: String,
    /// Job id.
    pub job: u64,
    /// Tile index within the job.
    pub tile: usize,
    /// Job priority at admission.
    pub priority: u8,
}

/// Render a grant log as one line per grant — the byte format the
/// determinism suites diff across thread counts.
pub fn render_grant_log(log: &[Grant]) -> String {
    let mut out = String::new();
    for g in log {
        out.push_str(&format!(
            "grant {} tenant {} job {} tile {} prio {}\n",
            g.seq, g.tenant, g.job, g.tile, g.priority
        ));
    }
    out
}

/// A grant handed back to the caller for pool submission, carrying the
/// caller's per-job dispatch payload.
#[derive(Debug)]
pub struct GrantOut<H> {
    /// Grant sequence number (matches the grant-log entry).
    pub seq: u64,
    /// Job id.
    pub job: u64,
    /// Tile index within the job.
    pub tile: usize,
    /// The job's dispatch payload, cloned per grant.
    pub handle: H,
}

/// Grant-order key. Total order: priority (desc), virtual time
/// `vnum/weight` (asc, cross-multiplied), tenant name, job, tile.
#[derive(Debug, Clone)]
struct GrantKey {
    priority: u8,
    vnum: u64,
    weight: u64,
    tenant: String,
    job: u64,
    tile: usize,
}

impl Ord for GrantKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .priority
            .cmp(&self.priority)
            .then_with(|| {
                let a = self.vnum as u128 * other.weight as u128;
                let b = other.vnum as u128 * self.weight as u128;
                a.cmp(&b)
            })
            .then_with(|| self.tenant.cmp(&other.tenant))
            .then_with(|| self.job.cmp(&other.job))
            .then_with(|| self.tile.cmp(&other.tile))
    }
}

impl PartialOrd for GrantKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GrantKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for GrantKey {}

struct TenantState {
    policy: TenantPolicy,
    /// Per-priority lane counters: last virtual number handed out.
    lanes: BTreeMap<u8, u64>,
    active_jobs: u64,
    /// Admitted, not yet granted (queued + not-yet-enqueued budget).
    queued_tiles: u64,
}

struct JobSched<H> {
    tenant: String,
    priority: u8,
    handle: Option<H>,
    /// Admitted tiles not yet enqueued or credited (cache hits resolve
    /// out of this budget without ever entering a lane).
    unassigned: u64,
    /// Enqueued, awaiting grant: tile -> its lane key.
    pending: BTreeMap<usize, GrantKey>,
    /// Granted, awaiting resolution (done or quarantined).
    granted: BTreeSet<usize>,
}

/// The fair-share grant state machine. Generic over the per-job
/// dispatch payload `H` so it unit-tests without a live service.
pub struct Scheduler<H> {
    cfg: SchedConfig,
    tenants: BTreeMap<String, TenantState>,
    jobs: BTreeMap<u64, JobSched<H>>,
    /// Grant order: key -> job id (tile lives in the key).
    ready: BTreeMap<GrantKey, u64>,
    /// Per-priority virtual floor as a rational (vnum, weight) of the
    /// largest virtual time ever granted in that class.
    floor: BTreeMap<u8, (u64, u64)>,
    /// Window when the plan sets no `max_inflight`: the pool width.
    workers: u64,
    inflight: u64,
    pending_total: u64,
    next_seq: u64,
    log: Vec<Grant>,
}

impl<H: Clone> Scheduler<H> {
    /// Fresh scheduler feeding a pool of `workers` threads, with empty
    /// lanes and an empty grant log. The in-flight window is the plan's
    /// `max_inflight`, or else `workers`: a grant is a worker slot.
    pub fn with_workers(cfg: SchedConfig, workers: u64) -> Self {
        Scheduler {
            cfg,
            tenants: BTreeMap::new(),
            jobs: BTreeMap::new(),
            ready: BTreeMap::new(),
            floor: BTreeMap::new(),
            workers: workers.max(1),
            inflight: 0,
            pending_total: 0,
            next_seq: 0,
            log: Vec::new(),
        }
    }

    /// A scheduler that feeds no pool: the window is the plan's
    /// `max_inflight`, and without one every enqueued tile is granted
    /// at once. For driving the state machine directly.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler::with_workers(cfg, u64::MAX)
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Admission control. Reserves quota for `tiles` tile tasks under
    /// `(tenant, priority)` or rejects with a structured reason; on
    /// success the job must later [`Scheduler::enqueue`] its cache-miss
    /// tiles and resolve the rest, or be dropped via
    /// [`Scheduler::remove_job`].
    pub fn admit(
        &mut self,
        job: u64,
        tenant: &str,
        priority: u8,
        tiles: u64,
    ) -> Result<(), ErrorObj> {
        if self.jobs.contains_key(&job) {
            return Err(ErrorObj {
                code: ErrorCode::Busy,
                message: format!("job {job} is already scheduled"),
                retry_after_vms: Some(RETRY_HINT_VMS_PER_TILE),
            });
        }
        let policy = match self.tenants.get(tenant) {
            Some(state) => state.policy.clone(),
            None => self.cfg.policy_for(tenant).ok_or_else(|| {
                let message = format!("tenant '{tenant}' is not in the tenant plan");
                ErrorObj::coded(ErrorCode::UnknownTenant, message)
            })?,
        };
        let (active_jobs, queued) = self
            .tenants
            .get(tenant)
            .map(|t| (t.active_jobs, t.queued_tiles))
            .unwrap_or((0, 0));
        if let Some(cap) = policy.max_jobs {
            if active_jobs >= cap {
                return Err(ErrorObj {
                    code: ErrorCode::QuotaExceeded,
                    message: format!(
                        "tenant '{tenant}' has {active_jobs} active jobs (max_jobs {cap})"
                    ),
                    retry_after_vms: Some(retry_hint(queued + self.inflight)),
                });
            }
        }
        if let Some(cap) = policy.max_tiles {
            if queued + tiles > cap {
                return Err(ErrorObj {
                    code: ErrorCode::QuotaExceeded,
                    message: format!(
                        "tenant '{tenant}' has {queued} queued tiles; {tiles} more would exceed max_tiles {cap}"
                    ),
                    retry_after_vms: Some(retry_hint(queued)),
                });
            }
        }
        if let Some(cap) = self.cfg.max_pending_tiles {
            if self.pending_total + tiles > cap {
                return Err(ErrorObj {
                    code: ErrorCode::Busy,
                    message: format!(
                        "{} tiles already pending; {tiles} more would exceed max_pending_tiles {cap}",
                        self.pending_total
                    ),
                    retry_after_vms: Some(retry_hint(self.pending_total)),
                });
            }
        }
        let state = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                policy,
                lanes: BTreeMap::new(),
                active_jobs: 0,
                queued_tiles: 0,
            });
        state.active_jobs += 1;
        state.queued_tiles += tiles;
        self.pending_total += tiles;
        self.jobs.insert(
            job,
            JobSched {
                tenant: tenant.to_string(),
                priority,
                handle: None,
                unassigned: tiles,
                pending: BTreeMap::new(),
                granted: BTreeSet::new(),
            },
        );
        Ok(())
    }

    /// Enqueue an admitted job's cache-miss tiles into its lane and
    /// pump the grant window. Returns the grants to submit, in grant
    /// order.
    pub fn enqueue(
        &mut self,
        job: u64,
        handle: H,
        tiles: impl IntoIterator<Item = usize>,
    ) -> Vec<GrantOut<H>> {
        let Some(js) = self.jobs.get_mut(&job) else {
            return Vec::new();
        };
        js.handle = Some(handle);
        let (tenant, priority) = (js.tenant.clone(), js.priority);
        let weight = self.tenants[&tenant].policy.weight;
        let floor = self.floor.get(&priority).copied();
        for tile in tiles {
            let js = self.jobs.get_mut(&job).unwrap();
            if js.unassigned == 0 || js.pending.contains_key(&tile) || js.granted.contains(&tile) {
                continue;
            }
            js.unassigned -= 1;
            let counter = self
                .tenants
                .get_mut(&tenant)
                .unwrap()
                .lanes
                .entry(priority)
                .or_insert(0);
            let mut vnum = *counter + 1;
            if let Some((fnum, fden)) = floor {
                // A lane (re)filling behind the class floor joins the
                // present: vnum/weight >= floor.
                let catch_up = (fnum as u128 * weight as u128).div_ceil(fden as u128);
                vnum = vnum.max(catch_up.min(u64::MAX as u128) as u64);
            }
            *counter = vnum;
            let key = GrantKey {
                priority,
                vnum,
                weight,
                tenant: tenant.clone(),
                job,
                tile,
            };
            js.pending.insert(tile, key.clone());
            self.ready.insert(key, job);
        }
        self.pump()
    }

    /// A tile of `job` reached a terminal state (committed done,
    /// quarantined, or served from cache). Releases its grant slot or
    /// quota budget and pumps the window.
    pub fn resolved(&mut self, job: u64, tile: usize) -> Vec<GrantOut<H>> {
        if let Some(js) = self.jobs.get_mut(&job) {
            if js.granted.remove(&tile) {
                self.inflight -= 1;
            } else if let Some(key) = js.pending.remove(&tile) {
                let tenant = js.tenant.clone();
                self.ready.remove(&key);
                self.release_queued(&tenant, 1);
            } else if js.unassigned > 0 {
                // Cache hit: resolved straight out of the admission
                // budget without ever entering a lane.
                js.unassigned -= 1;
                let tenant = js.tenant.clone();
                self.release_queued(&tenant, 1);
            }
        }
        self.pump()
    }

    /// Drop a job entirely (settled, cancelled, or aborted submit):
    /// ungranted tiles leave their lanes, open grant slots are
    /// released, the tenant's active-job count drops. Pumps.
    pub fn remove_job(&mut self, job: u64) -> Vec<GrantOut<H>> {
        if let Some(js) = self.jobs.remove(&job) {
            for key in js.pending.values() {
                self.ready.remove(key);
            }
            let released = js.pending.len() as u64 + js.unassigned;
            self.release_queued(&js.tenant, released);
            self.inflight -= js.granted.len() as u64;
            if let Some(t) = self.tenants.get_mut(&js.tenant) {
                t.active_jobs = t.active_jobs.saturating_sub(1);
            }
        }
        self.pump()
    }

    fn release_queued(&mut self, tenant: &str, n: u64) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.queued_tiles = t.queued_tiles.saturating_sub(n);
        }
        self.pending_total = self.pending_total.saturating_sub(n);
    }

    fn window_open(&self) -> bool {
        self.inflight < self.cfg.max_inflight.unwrap_or(self.workers)
    }

    fn pump(&mut self) -> Vec<GrantOut<H>> {
        let mut out = Vec::new();
        while self.window_open() {
            let Some((key, job)) = self.ready.pop_first() else {
                break;
            };
            let js = self.jobs.get_mut(&job).unwrap();
            js.pending.remove(&key.tile);
            js.granted.insert(key.tile);
            let handle = js.handle.clone().expect("enqueued job has a handle");
            let tenant = key.tenant.clone();
            self.release_queued(&tenant, 1);
            self.inflight += 1;
            let entry = self.floor.entry(key.priority).or_insert((0, 1));
            if key.vnum as u128 * entry.1 as u128 > entry.0 as u128 * key.weight as u128 {
                *entry = (key.vnum, key.weight);
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.log.push(Grant {
                seq,
                tenant,
                job,
                tile: key.tile,
                priority: key.priority,
            });
            out.push(GrantOut {
                seq,
                job,
                tile: key.tile,
                handle,
            });
        }
        out
    }

    /// Full grant log since construction, in grant order.
    pub fn grant_log(&self) -> &[Grant] {
        &self.log
    }

    /// Granted-but-unresolved tile count (the open window).
    pub fn inflight(&self) -> u64 {
        self.inflight
    }

    /// Admitted-but-ungranted tile count across all tenants.
    pub fn pending_tiles(&self) -> u64 {
        self.pending_total
    }

    /// Active job count for a tenant (0 if never seen).
    pub fn active_jobs(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.active_jobs)
    }
}

fn retry_hint(tiles_ahead: u64) -> u64 {
    RETRY_HINT_VMS_PER_TILE * tiles_ahead.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(text: &str) -> Scheduler<&'static str> {
        Scheduler::new(SchedConfig::parse(text).unwrap())
    }

    fn grant_tenants(
        grants: &[GrantOut<&'static str>],
        s: &Scheduler<&'static str>,
    ) -> Vec<String> {
        let log = s.grant_log();
        grants
            .iter()
            .map(|g| log[g.seq as usize].tenant.clone())
            .collect()
    }

    #[test]
    fn config_parse_render_round_trip() {
        let text = "tenant acme weight 2 max_jobs 4 max_tiles 2000\n\
                    tenant free weight 1\n\
                    tenant * weight 1 max_jobs 1\n\
                    global max_inflight 8 max_pending_tiles 10000\n";
        let cfg = SchedConfig::parse(text).unwrap();
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].weight, 2);
        assert_eq!(cfg.tenants[0].max_jobs, Some(4));
        assert_eq!(cfg.wildcard.as_ref().unwrap().max_jobs, Some(1));
        assert_eq!(cfg.max_inflight, Some(8));
        assert_eq!(cfg.render(), text);
        assert_eq!(SchedConfig::parse(&cfg.render()).unwrap(), cfg);
    }

    #[test]
    fn config_parse_comments_and_errors() {
        let cfg = SchedConfig::parse("# plan\n\n tenant a weight 3 # heavy\n").unwrap();
        assert_eq!(cfg.tenants[0].weight, 3);
        for (bad, what) in [
            ("tenant a weight 0", "weight must be >= 1"),
            ("tenant a", "requires 'weight N'"),
            ("tenant a weight x", "non-negative integer"),
            ("tenant a weight 1\ntenant a weight 2", "duplicate tenant"),
            ("tenant b@d weight 1", "tenant name"),
            ("tenant a weight 1 max_cows 4", "unknown tenant key"),
            ("global max_inflight 0", "max_inflight must be >= 1"),
            ("widget a weight 1", "expected 'tenant' or 'global'"),
        ] {
            let err = SchedConfig::parse(bad).unwrap_err();
            assert!(err.contains(what), "{bad:?} -> {err}");
            assert!(err.starts_with("line "), "{err}");
        }
    }

    #[test]
    fn unknown_tenant_rejected_without_wildcard() {
        let mut s = sched("tenant a weight 1\n");
        let r = s.admit(1, "ghost", 0, 4).unwrap_err();
        assert_eq!(r.code, ErrorCode::UnknownTenant);
        assert_eq!(r.retry_after_vms, None);
        s.admit(2, "a", 0, 4).unwrap();
        let mut open = sched("tenant a weight 1\ntenant * weight 1\n");
        open.admit(1, "ghost", 0, 4).unwrap();
    }

    #[test]
    fn job_and_tile_quotas() {
        let mut s = sched("tenant a weight 1 max_jobs 1 max_tiles 10\n");
        s.admit(1, "a", 0, 6).unwrap();
        let r = s.admit(2, "a", 0, 1).unwrap_err();
        assert_eq!(r.code, ErrorCode::QuotaExceeded);
        assert!(r.retry_after_vms.unwrap() >= RETRY_HINT_VMS_PER_TILE);
        s.remove_job(1);
        s.admit(2, "a", 0, 6).unwrap();
        // max_tiles counts queued tiles across the tenant's jobs.
        let mut s = sched("tenant a weight 1 max_tiles 10\n");
        s.admit(1, "a", 0, 6).unwrap();
        let r = s.admit(2, "a", 0, 6).unwrap_err();
        assert_eq!(r.code, ErrorCode::QuotaExceeded);
        s.admit(2, "a", 0, 4).unwrap();
    }

    #[test]
    fn global_ceiling_rejects_busy() {
        let mut s = sched("tenant * weight 1\nglobal max_pending_tiles 8\n");
        s.admit(1, "a", 0, 5).unwrap();
        let r = s.admit(2, "b", 0, 5).unwrap_err();
        assert_eq!(r.code, ErrorCode::Busy);
        assert_eq!(r.retry_after_vms, Some(5 * RETRY_HINT_VMS_PER_TILE));
        // Granting tiles frees pending budget (they move to inflight).
        let g = s.enqueue(1, "h1", 0..5);
        assert_eq!(g.len(), 5);
        s.admit(2, "b", 0, 5).unwrap();
    }

    #[test]
    fn weighted_interleave_two_to_one() {
        let mut s = sched("tenant a weight 2\ntenant b weight 1\nglobal max_inflight 1\n");
        s.admit(1, "a", 0, 6).unwrap();
        s.admit(2, "b", 0, 3).unwrap();
        let mut grants = s.enqueue(1, "ja", 0..6);
        grants.extend(s.enqueue(2, "jb", 0..3));
        // Drain: resolve each grant in issue order, collecting the rest.
        let mut i = 0;
        while i < grants.len() {
            let (job, tile) = (grants[i].job, grants[i].tile);
            grants.extend(s.resolved(job, tile));
            i += 1;
        }
        let order = grant_tenants(&grants, &s);
        assert_eq!(order, ["a", "a", "b", "a", "a", "b", "a", "a", "b"]);
        assert_eq!(s.inflight(), 0);
        assert_eq!(s.pending_tiles(), 0);
    }

    #[test]
    fn higher_priority_preempts_queue_order() {
        let mut s = sched("tenant * weight 1\nglobal max_inflight 1\n");
        s.admit(1, "low", 0, 2).unwrap();
        s.admit(2, "high", 3, 2).unwrap();
        let mut grants = s.enqueue(1, "jl", 0..2);
        grants.extend(s.enqueue(2, "jh", 0..2));
        let mut i = 0;
        while i < grants.len() {
            let (job, tile) = (grants[i].job, grants[i].tile);
            grants.extend(s.resolved(job, tile));
            i += 1;
        }
        // First grant went to `low` before `high` arrived; after that
        // the priority-3 lane drains completely first.
        let jobs: Vec<u64> = grants.iter().map(|g| g.job).collect();
        assert_eq!(jobs, [1, 2, 2, 1]);
    }

    #[test]
    fn idle_lane_does_not_bank_credit() {
        let mut s = sched("tenant a weight 1\ntenant b weight 1\n");
        // Tenant a alone processes 10 tiles.
        s.admit(1, "a", 0, 10).unwrap();
        let grants = s.enqueue(1, "ja", 0..10);
        for g in &grants {
            s.resolved(g.job, g.tile);
        }
        s.remove_job(1);
        // Now b arrives with a backlog and a submits more: without the
        // virtual floor b would own the next 10 grants outright.
        let mut s2_window = s; // continue with same scheduler, bounded drain below
        s2_window.cfg.max_inflight = Some(1);
        s2_window.admit(2, "b", 0, 4).unwrap();
        s2_window.admit(3, "a", 0, 4).unwrap();
        let mut grants = s2_window.enqueue(2, "jb", 0..4);
        grants.extend(s2_window.enqueue(3, "ja2", 0..4));
        let mut i = 0;
        while i < grants.len() {
            let (job, tile) = (grants[i].job, grants[i].tile);
            grants.extend(s2_window.resolved(job, tile));
            i += 1;
        }
        let order = grant_tenants(&grants, &s2_window);
        // b's first tile is granted while it is the only ready lane;
        // after a re-enqueues, fair alternation from the join point —
        // not b-monopoly replaying a's solo history.
        assert_eq!(order, ["b", "a", "b", "a", "b", "a", "b", "a"]);
    }

    #[test]
    fn cache_hits_release_quota_without_grants() {
        let mut s = sched("tenant a weight 1 max_tiles 4\n");
        s.admit(1, "a", 0, 4).unwrap();
        // All four tiles were cache hits: resolve out of the budget.
        for tile in 0..4 {
            assert!(s.resolved(1, tile).is_empty());
        }
        assert_eq!(s.pending_tiles(), 0);
        assert!(s.grant_log().is_empty());
        // Quota is free again even though the job is still active.
        let r = s.admit(2, "a", 0, 5).unwrap_err();
        assert_eq!(r.code, ErrorCode::QuotaExceeded);
        s.admit(2, "a", 0, 4).unwrap();
    }

    #[test]
    fn remove_job_releases_window_and_lanes() {
        let mut s = sched("tenant * weight 1\nglobal max_inflight 2\n");
        s.admit(1, "a", 0, 4).unwrap();
        s.admit(2, "b", 0, 1).unwrap();
        let grants = s.enqueue(1, "ja", 0..4);
        assert_eq!(grants.len(), 2);
        assert!(s.enqueue(2, "jb", 0..1).is_empty()); // window full
                                                      // Cancelling job 1 frees both slots and its queued tiles;
                                                      // job 2's tile is granted by the same call.
        let freed = s.remove_job(1);
        assert_eq!(freed.len(), 1);
        assert_eq!(freed[0].job, 2);
        assert_eq!(freed[0].handle, "jb");
        assert_eq!(s.active_jobs("a"), 0);
        assert_eq!(s.pending_tiles(), 0);
    }

    #[test]
    fn grant_log_renders_deterministically() {
        let mut s = sched("tenant a weight 1\n");
        s.admit(7, "a", 2, 2).unwrap();
        let grants = s.enqueue(7, "h", [3, 9]);
        assert_eq!(grants.len(), 2);
        assert_eq!(
            render_grant_log(s.grant_log()),
            "grant 0 tenant a job 7 tile 3 prio 2\n\
             grant 1 tenant a job 7 tile 9 prio 2\n"
        );
    }

    /// Admits and enqueues every job, then resolves in-flight tiles
    /// until none are left — the lowest grant first, or a random one
    /// drawn from `order` — and renders the grant log. The window comes
    /// from the plan (`global max_inflight`) or from the pool width.
    fn drain_grants(
        jobs: &[(usize, u8, usize)],
        weights: &[u64],
        window: u64,
        via_plan: bool,
        order: Option<u64>,
    ) -> String {
        let mut plan: String = weights
            .iter()
            .enumerate()
            .map(|(t, w)| format!("tenant t{t} weight {w}\n"))
            .collect();
        if via_plan {
            plan.push_str(&format!("global max_inflight {window}\n"));
        }
        let cfg = SchedConfig::parse(&plan).unwrap();
        let mut s = if via_plan {
            Scheduler::new(cfg)
        } else {
            Scheduler::with_workers(cfg, window)
        };
        let mut inflight = Vec::new();
        for (job, &(tenant, priority, tiles)) in jobs.iter().enumerate() {
            s.admit(job as u64, &format!("t{tenant}"), priority, tiles as u64)
                .unwrap();
            inflight.extend(s.enqueue(job as u64, (), 0..tiles));
        }
        let mut rng = order.map(dfm_rand::Rng::seed_from_u64);
        while !inflight.is_empty() {
            let pick = rng.as_mut().map_or(0, |r| r.range(0..inflight.len()));
            let g = inflight.remove(pick);
            assert!(s.inflight() <= window, "window {window} overrun");
            inflight.extend(s.resolved(g.job, g.tile));
        }
        assert_eq!(s.pending_tiles(), 0);
        render_grant_log(s.grant_log())
    }

    #[test]
    fn grant_log_depends_on_admission_order_and_window_not_on_resolution_order() {
        use dfm_check::{bools, check, prop_assert_eq, vec, Config};
        // Jobs as (tenant, priority, tiles); one weight per tenant.
        let gen = (
            vec((0usize..3, 0u8..3, 1usize..12), 1..6),
            vec(1u64..4, 3..4),
            1u64..9,
            bools(),
            0u64..u64::MAX,
        );
        check(
            "sched_resolution_order",
            &Config::with_cases(128),
            &gen,
            |(jobs, weights, window, via_plan, seed)| {
                let in_seq = drain_grants(jobs, weights, *window, *via_plan, None);
                let tiles: usize = jobs.iter().map(|j| j.2).sum();
                prop_assert_eq!(in_seq.lines().count(), tiles);
                prop_assert_eq!(
                    drain_grants(jobs, weights, *window, *via_plan, Some(*seed)),
                    in_seq
                );
                Ok(())
            },
        );
    }

    #[test]
    fn plan_window_wins_over_the_pool_width() {
        let cfg = SchedConfig::parse("tenant * weight 1\nglobal max_inflight 3\n").unwrap();
        let mut s: Scheduler<()> = Scheduler::with_workers(cfg.clone(), 8);
        s.admit(1, "a", 0, 10).unwrap();
        assert_eq!(s.enqueue(1, (), 0..10).len(), 3);
        assert_eq!(s.config(), &cfg, "the config is the plan as written");
        let mut s: Scheduler<()> = Scheduler::with_workers(SchedConfig::open(), 2);
        s.admit(1, "a", 0, 10).unwrap();
        assert_eq!(
            s.enqueue(1, (), 0..10).len(),
            2,
            "no plan window: the pool width"
        );
        assert_eq!(s.pending_tiles(), 8, "the rest wait in the lane");
        assert_eq!(s.config().max_inflight, None);
    }

    #[test]
    fn tenant_name_validation() {
        assert!(is_tenant_name("acme-01.eu"));
        assert!(!is_tenant_name(""));
        assert!(!is_tenant_name("has space"));
        assert!(!is_tenant_name(&"x".repeat(65)));
    }
}
