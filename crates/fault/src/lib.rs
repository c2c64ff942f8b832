//! # dfm-fault — deterministic fault injection
//!
//! Robustness code paths (retry, quarantine, checkpoint fallback,
//! connection teardown) are exactly the paths ordinary tests never
//! exercise. This crate makes failure a first-class, *deterministic*
//! input: a [`FaultPlan`] names injection **sites** (free-form strings
//! like `signoff.tile.compute`) and attaches triggers to them, and a
//! [`FaultPlane`] answers, at each site visit, whether a fault fires
//! and which [`FaultAction`] it is.
//!
//! ## Determinism contract
//!
//! A decision is a **pure function** of
//! `(plan seed, rule, site, key, attempt)`:
//!
//! * `key` scopes the site to a work unit (a tile index, a connection
//!   id) and `attempt` counts the caller's retries of that unit, so
//!   the decision never depends on global call order;
//! * probability triggers hash the whole tuple through
//!   [`dfm_rand`]'s SplitMix64 derivation — no shared counters, no
//!   stream state, no locks on the decision path.
//!
//! Two schedulers visiting the same `(site, key, attempt)` tuples get
//! the same faults, whatever their thread count or interleaving —
//! which is what lets the signoff service promise identical event
//! streams, quarantine sets, and report bytes at 1, 2, or 8 workers
//! under a fixed plan.
//!
//! With no plan (or an empty one) every probe is a cheap no-op; the
//! hooks threaded through `dfm-par` and `dfm-signoff` default to
//! exactly that.
//!
//! ```
//! use dfm_fault::{FaultAction, FaultPlan, FaultPlane};
//!
//! let plan = FaultPlan::parse(
//!     "seed 7\n\
//!      rule signoff.tile.compute panic key=3 attempt<2\n\
//!      rule signoff.ckpt.write error p=0.5\n",
//! )
//! .unwrap();
//! let plane = FaultPlane::new(plan);
//! // Tile 3's first two attempts panic; every other tile is clean.
//! assert!(matches!(
//!     plane.decide("signoff.tile.compute", 3, 0, |_| true),
//!     Some(FaultAction::Panic)
//! ));
//! assert!(plane.decide("signoff.tile.compute", 4, 0, |_| true).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfm_rand::{Rng, Seed};
use std::collections::HashMap;
use std::sync::Mutex;

/// What an injected fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// The site panics (the caller's containment path must survive it).
    Panic,
    /// The site reports an I/O-style error.
    Error,
    /// The site is delayed by this many **virtual** milliseconds.
    /// Virtual time is bookkeeping, not wall time: supervisors compare
    /// it against virtual watchdog budgets, so timeout behaviour is
    /// reproducible and tests never sleep.
    Delay {
        /// Injected virtual delay, ms.
        vms: u64,
    },
    /// The site drops its connection mid-frame.
    Drop,
    /// The process "dies" at this durable-state transition: effects
    /// already on disk stay, everything after the site is skipped, and
    /// the enclosing operation reports failure. Only meaningful at
    /// sites listed in [`crash::SITES`]; the `dfm-sim` harness arms
    /// one of these per registered site and then restarts the stack
    /// over the surviving durable state.
    Crash,
    /// The site behaves as if the disk were full (ENOSPC): the write
    /// is refused *without* retry, and the caller must degrade (skip
    /// the cache store, mark the checkpoint degraded) rather than fail
    /// the job.
    ErrNoSpace,
}

impl FaultAction {
    /// Stable lower-case tag
    /// (`panic`/`error`/`delay`/`drop`/`crash`/`err_nospace`).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Error => "error",
            FaultAction::Delay { .. } => "delay",
            FaultAction::Drop => "drop",
            FaultAction::Crash => "crash",
            FaultAction::ErrNoSpace => "err_nospace",
        }
    }
}

/// Which attempts of a `(site, key)` pair a rule covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AttemptFilter {
    /// Every attempt.
    #[default]
    Any,
    /// Attempts `0..n` (the first `n` tries).
    Below(u64),
    /// Exactly attempt `n`.
    Exactly(u64),
}

impl AttemptFilter {
    fn matches(self, attempt: u64) -> bool {
        match self {
            AttemptFilter::Any => true,
            AttemptFilter::Below(n) => attempt < n,
            AttemptFilter::Exactly(n) => attempt == n,
        }
    }
}

/// One trigger: *at this site, for these keys/attempts, with this
/// probability, inject this action.*
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Exact site name the rule arms.
    pub site: String,
    /// Restrict to one key (`None` = every key).
    pub key: Option<u64>,
    /// Restrict to an attempt window.
    pub attempt: AttemptFilter,
    /// Firing probability in `[0, 1]`; `1.0` fires on every match.
    /// Decided by hashing `(seed, rule, site, key, attempt)` — never
    /// by a stateful stream.
    pub prob: f64,
    /// The injected action.
    pub action: FaultAction,
}

impl FaultRule {
    /// An always-firing rule for `site` with `action`.
    pub fn new(site: impl Into<String>, action: FaultAction) -> FaultRule {
        FaultRule { site: site.into(), key: None, attempt: AttemptFilter::Any, prob: 1.0, action }
    }

    /// Restricts the rule to one key.
    #[must_use]
    pub fn key(mut self, key: u64) -> FaultRule {
        self.key = Some(key);
        self
    }

    /// Restricts the rule to attempts `0..n`.
    #[must_use]
    pub fn first_attempts(mut self, n: u64) -> FaultRule {
        self.attempt = AttemptFilter::Below(n);
        self
    }

    /// Restricts the rule to exactly attempt `n`.
    #[must_use]
    pub fn attempt_exactly(mut self, n: u64) -> FaultRule {
        self.attempt = AttemptFilter::Exactly(n);
        self
    }

    /// Sets the firing probability.
    #[must_use]
    pub fn prob(mut self, p: f64) -> FaultRule {
        self.prob = p;
        self
    }
}

/// A named, seeded set of [`FaultRule`]s — the whole injection
/// configuration of one run, round-trippable through a line-based text
/// format ([`FaultPlan::parse`] / [`FaultPlan::render`]) so CI scripts
/// and the CLI can carry plans in files.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic triggers.
    pub seed: u64,
    /// Rules, tried in order; the first matching rule that fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: no rule ever fires.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a seed and no rules yet.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Adds a rule.
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// True when no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The pure decision: does a fault fire at `(site, key, attempt)`,
    /// considering only rules whose action satisfies `accepts`? Equal
    /// inputs give equal answers on every thread, in every process.
    pub fn decide(
        &self,
        site: &str,
        key: u64,
        attempt: u64,
        accepts: impl Fn(&FaultAction) -> bool,
    ) -> Option<FaultAction> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.site != site
                || !accepts(&rule.action)
                || rule.key.is_some_and(|k| k != key)
                || !rule.attempt.matches(attempt)
            {
                continue;
            }
            if rule.prob >= 1.0 || decision_unit(self.seed, idx as u64, site, key, attempt) < rule.prob
            {
                return Some(rule.action);
            }
        }
        None
    }

    /// Parses the text form. Lines: `seed N`, `rule SITE ACTION
    /// [key=K] [attempt<N|attempt=N] [p=F]` where `ACTION` is `panic`,
    /// `error`, `drop`, `crash`, `err_nospace`, or `delay=VMS`. Blank
    /// lines and `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// A diagnostic naming the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let bad = |what: &str| format!("fault plan line {}: {what}: '{raw}'", n + 1);
            match tokens.next() {
                Some("seed") => {
                    let v = tokens.next().ok_or_else(|| bad("seed needs a value"))?;
                    plan.seed = v.parse().map_err(|_| bad("bad seed"))?;
                    if tokens.next().is_some() {
                        return Err(bad("trailing tokens after seed"));
                    }
                }
                Some("rule") => {
                    let site = tokens.next().ok_or_else(|| bad("rule needs a site"))?;
                    let action = tokens.next().ok_or_else(|| bad("rule needs an action"))?;
                    let action = match action.split_once('=') {
                        None => match action {
                            "panic" => FaultAction::Panic,
                            "error" => FaultAction::Error,
                            "drop" => FaultAction::Drop,
                            "crash" => FaultAction::Crash,
                            "err_nospace" => FaultAction::ErrNoSpace,
                            _ => return Err(bad("unknown action")),
                        },
                        Some(("delay", vms)) => FaultAction::Delay {
                            vms: vms.parse().map_err(|_| bad("bad delay value"))?,
                        },
                        Some(_) => return Err(bad("unknown action")),
                    };
                    let mut rule = FaultRule::new(site, action);
                    for tok in tokens {
                        if let Some(v) = tok.strip_prefix("key=") {
                            rule.key = Some(v.parse().map_err(|_| bad("bad key"))?);
                        } else if let Some(v) = tok.strip_prefix("attempt<") {
                            rule.attempt =
                                AttemptFilter::Below(v.parse().map_err(|_| bad("bad attempt"))?);
                        } else if let Some(v) = tok.strip_prefix("attempt=") {
                            rule.attempt =
                                AttemptFilter::Exactly(v.parse().map_err(|_| bad("bad attempt"))?);
                        } else if let Some(v) = tok.strip_prefix("p=") {
                            let p: f64 = v.parse().map_err(|_| bad("bad probability"))?;
                            if !(0.0..=1.0).contains(&p) {
                                return Err(bad("probability outside [0,1]"));
                            }
                            rule.prob = p;
                        } else {
                            return Err(bad("unknown rule token"));
                        }
                    }
                    plan.rules.push(rule);
                }
                _ => return Err(bad("expected 'seed' or 'rule'")),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back to the [`FaultPlan::parse`] text form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.seed);
        for r in &self.rules {
            let _ = write!(out, "rule {} ", r.site);
            match r.action {
                FaultAction::Delay { vms } => {
                    let _ = write!(out, "delay={vms}");
                }
                a => {
                    let _ = write!(out, "{}", a.tag());
                }
            }
            if let Some(k) = r.key {
                let _ = write!(out, " key={k}");
            }
            match r.attempt {
                AttemptFilter::Any => {}
                AttemptFilter::Below(n) => {
                    let _ = write!(out, " attempt<{n}");
                }
                AttemptFilter::Exactly(n) => {
                    let _ = write!(out, " attempt={n}");
                }
            }
            if r.prob < 1.0 {
                let _ = write!(out, " p={}", r.prob);
            }
            out.push('\n');
        }
        out
    }
}

/// Uniform in `[0, 1)` from the decision tuple — the probabilistic
/// trigger's only source of randomness.
fn decision_unit(seed: u64, rule_idx: u64, site: &str, key: u64, attempt: u64) -> f64 {
    let site_hash = fnv1a_64(site.as_bytes());
    let derived = Seed(seed).derive(rule_idx).derive(site_hash).derive(key).derive(attempt);
    Rng::from_seed(derived).f64()
}

/// FNV-1a 64 (local copy; this crate stays leaf-level on purpose).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One injected fault, as recorded in the [`FaultPlane`] log.
#[derive(Clone, Debug, PartialEq)]
pub struct InjectedFault {
    /// Site name.
    pub site: String,
    /// Work-unit key.
    pub key: u64,
    /// Caller attempt number.
    pub attempt: u64,
    /// The action that fired.
    pub action: FaultAction,
}

/// The shared runtime face of a [`FaultPlan`]: thread-safe decision
/// probes, per-`(site, key)` occurrence counters for sites whose
/// callers do not track attempts themselves, and a log of everything
/// injected (for tests; decisions never read it).
#[derive(Debug, Default)]
pub struct FaultPlane {
    plan: FaultPlan,
    occurrences: Mutex<HashMap<(String, u64), u64>>,
    log: Mutex<Vec<InjectedFault>>,
}

impl FaultPlane {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> FaultPlane {
        FaultPlane { plan, ..FaultPlane::default() }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when no rule can ever fire (every probe is a no-op).
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Decides and logs. See [`FaultPlan::decide`].
    pub fn decide(
        &self,
        site: &str,
        key: u64,
        attempt: u64,
        accepts: impl Fn(&FaultAction) -> bool,
    ) -> Option<FaultAction> {
        if self.plan.is_empty() {
            return None;
        }
        let action = self.plan.decide(site, key, attempt, accepts)?;
        self.log.lock().expect("fault log lock").push(InjectedFault {
            site: site.to_string(),
            key,
            attempt,
            action,
        });
        Some(action)
    }

    /// Panics with a deterministic message when a `panic` rule fires
    /// here. Call inside the containment (`catch_unwind`) boundary the
    /// site claims to have.
    pub fn maybe_panic(&self, site: &str, key: u64, attempt: u64) {
        if self.decide(site, key, attempt, |a| matches!(a, FaultAction::Panic)).is_some() {
            panic!("injected panic at {site} (key {key}, attempt {attempt})");
        }
    }

    /// Returns a deterministic `Err` when an `error` rule fires here.
    ///
    /// # Errors
    ///
    /// The injected I/O-style diagnostic.
    pub fn maybe_error(&self, site: &str, key: u64, attempt: u64) -> Result<(), String> {
        match self.decide(site, key, attempt, |a| matches!(a, FaultAction::Error)) {
            Some(_) => Err(format!("injected I/O error at {site} (key {key}, attempt {attempt})")),
            None => Ok(()),
        }
    }

    /// The injected virtual delay at this site visit, if a `delay`
    /// rule fires.
    pub fn delay_vms(&self, site: &str, key: u64, attempt: u64) -> Option<u64> {
        match self.decide(site, key, attempt, |a| matches!(a, FaultAction::Delay { .. }))? {
            FaultAction::Delay { vms } => Some(vms),
            _ => None,
        }
    }

    /// True when a `drop` rule fires at this site visit.
    pub fn should_drop(&self, site: &str, key: u64, attempt: u64) -> bool {
        self.decide(site, key, attempt, |a| matches!(a, FaultAction::Drop)).is_some()
    }

    /// True when a `crash` rule fires at this site visit: the caller
    /// must abandon the enclosing operation exactly as if the process
    /// had died at this durable instant — keep every effect already
    /// made durable, skip everything after the probe, and report the
    /// operation as failed.
    pub fn crash_point(&self, site: &str, key: u64, attempt: u64) -> bool {
        self.decide(site, key, attempt, |a| matches!(a, FaultAction::Crash)).is_some()
    }

    /// True when an `err_nospace` rule fires at this site visit: the
    /// caller must treat the write as refused by a full disk — degrade
    /// immediately (no retries) without failing the job or touching
    /// existing entries.
    pub fn maybe_nospace(&self, site: &str, key: u64, attempt: u64) -> bool {
        self.decide(site, key, attempt, |a| matches!(a, FaultAction::ErrNoSpace)).is_some()
    }

    /// Returns this visit's 0-based occurrence number for `(site,
    /// key)` and advances the counter — the `attempt` substitute for
    /// sites without caller-side attempt tracking (e.g. "nth frame on
    /// this connection"). Stateful, so only deterministic when the
    /// caller visits a given `(site, key)` from one thread.
    pub fn next_occurrence(&self, site: &str, key: u64) -> u64 {
        let mut map = self.occurrences.lock().expect("fault counter lock");
        let n = map.entry((site.to_string(), key)).or_insert(0);
        let now = *n;
        *n += 1;
        now
    }

    /// Everything injected so far (test observability; order follows
    /// execution and is **not** part of the determinism contract —
    /// compare as a set).
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.log.lock().expect("fault log lock").clone()
    }
}

pub mod crash {
    //! # Registered crash sites
    //!
    //! Every durable-state transition in the stack is a **crash
    //! site**: a named point where the process may die leaving a
    //! characteristic partial state on disk. This registry is the
    //! authoritative catalog — the `dfm-sim` harness enumerates it,
    //! arms the listed action at each site in turn, restarts the stack
    //! over the surviving durable state, and asserts the recovery
    //! invariant (byte-identical reports and the pinned golden
    //! digest). DESIGN.md renders the same table for humans.
    //!
    //! Adding a durable transition to the system means adding its site
    //! here; the sim has a test pinning one scenario per entry, so a
    //! forgotten entry fails CI.

    /// One registered crash site: where the process can die, what is
    /// durable at that instant, and what recovery must guarantee.
    #[derive(Clone, Copy, Debug)]
    pub struct CrashSite {
        /// Site key, as used in [`crate::FaultRule::site`].
        pub site: &'static str,
        /// Plan action the sim arms at this site (`crash`, `panic`,
        /// `error`, `drop`, or `err_nospace` — whichever models death
        /// at this transition).
        pub action: &'static str,
        /// Durable state at the instant of death.
        pub durable: &'static str,
        /// What recovery must guarantee.
        pub invariant: &'static str,
    }

    /// The full crash-site catalog.
    pub const SITES: &[CrashSite] = &[
        CrashSite {
            site: "signoff.ckpt.submit.spec",
            action: "crash",
            durable: "job dir + spec.json written; layout.gds absent",
            invariant: "unloadable submission is skipped on restart; resubmission reuses the dir",
        },
        CrashSite {
            site: "signoff.ckpt.submit.gds",
            action: "crash",
            durable: "full submission on disk; ack never reached the client",
            invariant: "restart loads the job Partial; resume completes it byte-identically",
        },
        CrashSite {
            site: "signoff.ckpt.tile.tmp",
            action: "crash",
            durable: "orphan tile-N.tmp; no tile-N.bin",
            invariant: "tmp swept on open; tile recomputed; bytes identical",
        },
        CrashSite {
            site: "signoff.ckpt.tile.rename",
            action: "crash",
            durable: "tile-N.bin durable though the writer reported failure",
            invariant: "restart loads the tile; recompute skipped; bytes identical (idempotent replay)",
        },
        CrashSite {
            site: "signoff.cache.store.tmp",
            action: "crash",
            durable: "orphan entry tmp in the cache dir; no entry",
            invariant: "tmp swept at cache open; later lookup misses and recomputes",
        },
        CrashSite {
            site: "signoff.cache.store.rename",
            action: "crash",
            durable: "cache entry durable though the store reported failure",
            invariant: "later lookup hits; bytes identical by content address",
        },
        CrashSite {
            site: "signoff.ckpt.read",
            action: "error",
            durable: "checkpoint present but unreadable at resume",
            invariant: "tile skipped at load and recomputed; bytes identical",
        },
        CrashSite {
            site: "signoff.tile.compute",
            action: "panic",
            durable: "no tile checkpoint; attempt died mid-compute",
            invariant: "retry/quarantine settles deterministically; resume recomputes",
        },
        CrashSite {
            site: "signoff.cache.write",
            action: "err_nospace",
            durable: "cache store refused (disk full); existing entries untouched",
            invariant: "store skipped without retry; job still settles Done with correct bytes",
        },
        CrashSite {
            site: "signoff.ckpt.write",
            action: "err_nospace",
            durable: "tile checkpoint refused (disk full); result kept in memory",
            invariant: "CkptDegraded, job not failed; resume recomputes the unpersisted tile",
        },
        CrashSite {
            site: "coord.dispatch",
            action: "error",
            durable: "shard roster durable; dispatch RPC died",
            invariant: "shard marked lost; tiles re-dispatched to a survivor; bytes identical",
        },
        CrashSite {
            site: "coord.pull",
            action: "drop",
            durable: "committed outcome prefix durable; pull stream died mid-job",
            invariant: "survivor takeover recomputes only uncommitted tiles; bytes identical",
        },
        CrashSite {
            site: "coord.ingest",
            action: "crash",
            durable: "coordinator died between pulling an outcome and committing it",
            invariant: "outcome dropped, commit prefix unharmed; redispatch recomputes; bytes identical",
        },
    ];

    /// Looks a site up by key.
    pub fn lookup(site: &str) -> Option<&'static CrashSite> {
        SITES.iter().find(|s| s.site == site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any(_: &FaultAction) -> bool {
        true
    }

    #[test]
    fn crash_registry_is_populated_and_unique() {
        assert!(crash::SITES.len() >= 12, "crash registry must list every durable transition");
        let mut keys: Vec<&str> = crash::SITES.iter().map(|s| s.site).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), crash::SITES.len(), "duplicate crash-site keys");
        for s in crash::SITES {
            assert!(
                ["crash", "panic", "error", "drop", "err_nospace"].contains(&s.action),
                "site {} arms unknown action {}",
                s.site,
                s.action
            );
            // Every listed action must round-trip through the plan text
            // form so ci scripts can arm it verbatim.
            let plan = FaultPlan::parse(&format!("rule {} {}", s.site, s.action)).expect(s.site);
            assert_eq!(plan.rules.len(), 1);
        }
        assert!(crash::lookup("signoff.ckpt.tile.tmp").is_some());
        assert!(crash::lookup("no.such.site").is_none());
    }

    #[test]
    fn crash_and_nospace_probes_fire_only_their_action() {
        let plan = FaultPlan::seeded(11)
            .with_rule(FaultRule::new("c", FaultAction::Crash))
            .with_rule(FaultRule::new("n", FaultAction::ErrNoSpace));
        let plane = FaultPlane::new(plan);
        assert!(plane.crash_point("c", 0, 0));
        assert!(!plane.crash_point("n", 0, 0));
        assert!(plane.maybe_nospace("n", 0, 0));
        assert!(!plane.maybe_nospace("c", 0, 0));
        // Crash/nospace rules never leak into the classic probes.
        assert!(plane.maybe_error("c", 0, 0).is_ok());
        assert!(plane.maybe_error("n", 0, 0).is_ok());
        assert!(!plane.should_drop("c", 0, 0));
        plane.maybe_panic("c", 0, 0);
    }

    #[test]
    fn new_actions_round_trip_text_form() {
        let plan = FaultPlan::seeded(8)
            .with_rule(FaultRule::new("signoff.ckpt.tile.tmp", FaultAction::Crash).key(1).first_attempts(1))
            .with_rule(FaultRule::new("signoff.cache.write", FaultAction::ErrNoSpace));
        let text = plan.render();
        assert!(text.contains("crash"), "{text}");
        assert!(text.contains("err_nospace"), "{text}");
        assert_eq!(FaultPlan::parse(&text).expect("round trip"), plan);
    }

    #[test]
    fn decisions_are_pure_functions_of_the_tuple() {
        let plan = FaultPlan::seeded(42)
            .with_rule(FaultRule::new("a.site", FaultAction::Panic).prob(0.5))
            .with_rule(FaultRule::new("b.site", FaultAction::Error).prob(0.3));
        // Same tuple, any probing order, any repetition: same answer.
        let probe = |site: &str, key: u64, attempt: u64| plan.decide(site, key, attempt, any);
        let mut first = Vec::new();
        for key in 0..50 {
            for attempt in 0..4 {
                first.push((probe("a.site", key, attempt), probe("b.site", key, attempt)));
            }
        }
        // Re-probe in reverse order; answers must be position-wise equal.
        let mut again = Vec::new();
        for key in (0..50).rev() {
            for attempt in (0..4).rev() {
                again.push((probe("a.site", key, attempt), probe("b.site", key, attempt)));
            }
        }
        again.reverse();
        assert_eq!(again, first);
        // Different seeds disagree somewhere (sanity that prob < 1 is
        // actually probabilistic).
        let other = FaultPlan { seed: 43, ..plan.clone() };
        let differs = (0..200).any(|k| plan.decide("a.site", k, 0, any) != other.decide("a.site", k, 0, any));
        assert!(differs, "seed must matter");
    }

    #[test]
    fn filters_scope_rules() {
        let plan = FaultPlan::seeded(1)
            .with_rule(FaultRule::new("s", FaultAction::Panic).key(3).first_attempts(2));
        assert!(plan.decide("s", 3, 0, any).is_some());
        assert!(plan.decide("s", 3, 1, any).is_some());
        assert!(plan.decide("s", 3, 2, any).is_none(), "attempt filter");
        assert!(plan.decide("s", 4, 0, any).is_none(), "key filter");
        assert!(plan.decide("t", 3, 0, any).is_none(), "site filter");
        let exact = FaultPlan::seeded(1)
            .with_rule(FaultRule::new("s", FaultAction::Error).attempt_exactly(1));
        assert!(exact.decide("s", 0, 0, any).is_none());
        assert!(exact.decide("s", 0, 1, any).is_some());
    }

    #[test]
    fn action_predicate_selects_among_rules() {
        let plan = FaultPlan::seeded(9)
            .with_rule(FaultRule::new("s", FaultAction::Delay { vms: 7 }))
            .with_rule(FaultRule::new("s", FaultAction::Panic));
        let plane = FaultPlane::new(plan);
        assert_eq!(plane.delay_vms("s", 0, 0), Some(7));
        let panicked = std::panic::catch_unwind(|| plane.maybe_panic("s", 0, 0));
        assert!(panicked.is_err(), "panic rule must still be reachable past the delay rule");
    }

    #[test]
    fn probability_fires_a_sane_fraction() {
        let plan =
            FaultPlan::seeded(5).with_rule(FaultRule::new("p", FaultAction::Error).prob(0.25));
        let fired = (0..2000).filter(|&k| plan.decide("p", k, 0, any).is_some()).count();
        assert!((300..700).contains(&fired), "p=0.25 fired {fired}/2000");
    }

    #[test]
    fn text_form_round_trips() {
        let plan = FaultPlan::seeded(77)
            .with_rule(FaultRule::new("signoff.tile.compute", FaultAction::Panic).key(3).first_attempts(2))
            .with_rule(FaultRule::new("signoff.ckpt.write", FaultAction::Error).attempt_exactly(0).prob(0.5))
            .with_rule(FaultRule::new("signoff.tile.delay", FaultAction::Delay { vms: 120 }))
            .with_rule(FaultRule::new("server.write", FaultAction::Drop));
        let text = plan.render();
        let back = FaultPlan::parse(&text).expect("parse rendered plan");
        assert_eq!(back, plan, "{text}");
        // Comments and blank lines are tolerated.
        let with_noise = format!("# plan\n\n{text}\n# end\n");
        assert_eq!(FaultPlan::parse(&with_noise).expect("noise"), plan);
    }

    #[test]
    fn malformed_plans_are_diagnosed() {
        for bad in [
            "seed",
            "seed x",
            "seed 1 2",
            "rule",
            "rule s",
            "rule s warp",
            "rule s delay=x",
            "rule s panic key=x",
            "rule s panic attempt<x",
            "rule s panic p=2",
            "rule s panic wat=1",
            "noise",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains("fault plan line 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn empty_plane_is_a_no_op() {
        let plane = FaultPlane::new(FaultPlan::empty());
        assert!(plane.is_empty());
        plane.maybe_panic("anything", 0, 0);
        assert!(plane.maybe_error("anything", 0, 0).is_ok());
        assert_eq!(plane.delay_vms("anything", 0, 0), None);
        assert!(!plane.should_drop("anything", 0, 0));
        assert!(plane.injected().is_empty());
    }

    #[test]
    fn plane_logs_and_counts() {
        let plan = FaultPlan::seeded(3).with_rule(FaultRule::new("s", FaultAction::Error));
        let plane = FaultPlane::new(plan);
        assert!(plane.maybe_error("s", 9, 0).is_err());
        assert_eq!(
            plane.injected(),
            vec![InjectedFault { site: "s".into(), key: 9, attempt: 0, action: FaultAction::Error }]
        );
        assert_eq!(plane.next_occurrence("s", 1), 0);
        assert_eq!(plane.next_occurrence("s", 1), 1);
        assert_eq!(plane.next_occurrence("s", 2), 0);
    }

    #[test]
    fn injected_error_messages_are_deterministic() {
        let plan = FaultPlan::seeded(3).with_rule(FaultRule::new("s", FaultAction::Error));
        let plane = FaultPlane::new(plan);
        let a = plane.maybe_error("s", 4, 1).expect_err("fires");
        let b = plane.maybe_error("s", 4, 1).expect_err("fires");
        assert_eq!(a, b);
        assert_eq!(a, "injected I/O error at s (key 4, attempt 1)");
    }
}
