//! # dfm-check — a minimal, hermetic property-testing harness
//!
//! Replaces `proptest` for this workspace with zero registry
//! dependencies. The pieces:
//!
//! * [`Gen`] — a generator trait (`generate` + optional `shrink`),
//!   implemented for integer/float ranges, booleans, tuples of
//!   generators, [`vec()`] collections and [`lowercase_string`]s, with a
//!   [`Gen::prop_map`] combinator for building domain values;
//! * [`check`] — the runner: a fixed iteration budget of seeded cases,
//!   automatic failure shrinking for scalars and vectors, and a
//!   panic message that names the reproducing seed;
//! * seed-corpus files ([`Config::corpus`]) — known-bad seeds are
//!   replayed *before* any random cases and newly found failures are
//!   appended, so regressions stay pinned across runs (the in-repo
//!   replacement for `.proptest-regressions` files).
//!
//! Determinism policy: every case derives from the run seed, the
//! property name and the case index via [`dfm_rand::Seed::derive`] —
//! two `cargo test` runs execute bit-identical cases.
//!
//! ```
//! use dfm_check::{check, prop_assert, Config, Gen};
//!
//! check("add_commutes", &Config::with_cases(64), &(0i64..100, 0i64..100), |v| {
//!     let (a, b) = v;
//!     prop_assert!(a + b == b + a, "{a} {b}");
//!     Ok(())
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfm_rand::{Rng, Seed};
use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Sentinel error string meaning "discard this case" (see
/// [`prop_assume!`]). Not counted as a failure.
pub const DISCARD: &str = "__dfm_check_discard__";

/// A property's verdict on one generated case: `Ok(())` passes,
/// `Err(message)` fails (or discards, when the message is [`DISCARD`]).
pub type PropResult = Result<(), String>;

/// A value generator with optional shrinking.
///
/// Shrinking contract: every candidate returned by `shrink` must be
/// *simpler* than the input and still satisfy the generator's own
/// invariants (range bounds, minimum lengths), so the shrink loop
/// terminates and never reports an impossible counterexample.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Generates one value from the given RNG.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Simpler candidate values for a failing case (may be empty).
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f` to build domain objects
    /// (named `prop_map` so it cannot collide with `Iterator::map` on
    /// ranges, mirroring the proptest convention).
    ///
    /// Mapped generators do not shrink (there is no inverse to map a
    /// shrunk output back through); keep inputs raw where shrinking
    /// matters.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

macro_rules! impl_int_gen {
    ($($t:ty),*) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                let lo = self.start;
                let v = *v;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    if v - 1 != lo && v - 1 != mid {
                        out.push(v - 1);
                    }
                }
                out
            }
        }
    )*};
}

impl_int_gen!(i64, u64, i32, u32, u16, u8, usize);

impl Gen for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.range(self.clone())
    }

    fn shrink(&self, v: &f64) -> Vec<f64> {
        let lo = self.start;
        let mut out = Vec::new();
        if *v > lo {
            out.push(lo);
            let mid = lo + (*v - lo) / 2.0;
            if mid > lo && mid < *v {
                out.push(mid);
            }
        }
        out
    }
}

/// Uniform boolean generator (shrinks `true` to `false`).
#[derive(Clone, Copy, Debug)]
pub struct BoolGen;

/// Creates a uniform boolean generator.
pub fn bools() -> BoolGen {
    BoolGen
}

impl Gen for BoolGen {
    type Value = bool;

    fn generate(&self, rng: &mut Rng) -> bool {
        rng.bool()
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

macro_rules! impl_tuple_gen {
    ($(($($G:ident $idx:tt),+))*) => {$(
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for s in self.$idx.shrink(&v.$idx) {
                        let mut c = v.clone();
                        c.$idx = s;
                        out.push(c);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_gen! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Generator of `Vec<T>` with length drawn from `len` (half-open).
///
/// Shrinks by removing elements (never below the minimum length) and
/// by shrinking individual elements through the element generator.
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    elem: G,
    len: Range<usize>,
}

/// Creates a vector generator: `len` elements from `elem`.
pub fn vec<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen { elem, len }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let n = rng.range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let min = self.len.start;
        let mut out = Vec::new();
        // Aggressive first: drop to the minimum length, then halve.
        if v.len() > min {
            out.push(v[..min].to_vec());
            let half = min.max(v.len() / 2);
            if half < v.len() && half > min {
                out.push(v[..half].to_vec());
            }
            // Remove single elements.
            for i in 0..v.len() {
                if v.len() > min {
                    let mut c = v.clone();
                    c.remove(i);
                    out.push(c);
                }
            }
        }
        // Shrink individual elements in place.
        for i in 0..v.len() {
            for s in self.elem.shrink(&v[i]) {
                let mut c = v.clone();
                c[i] = s;
                out.push(c);
            }
        }
        out
    }
}

/// Generator of lowercase ASCII strings with length drawn from `len`.
#[derive(Clone, Debug)]
pub struct LowercaseStringGen {
    len: Range<usize>,
}

/// Creates a `[a-z]{len}` string generator (the label/name alphabet
/// used by the GDSII suites).
pub fn lowercase_string(len: Range<usize>) -> LowercaseStringGen {
    assert!(len.start < len.end, "empty length range");
    LowercaseStringGen { len }
}

impl Gen for LowercaseStringGen {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.range(self.len.clone());
        (0..n)
            .map(|_| (b'a' + rng.range(0u8..26)) as char)
            .collect()
    }

    fn shrink(&self, v: &String) -> Vec<String> {
        let mut out = Vec::new();
        if v.len() > self.len.start {
            out.push(v[..v.len() - 1].to_string());
        }
        if let Some(pos) = v.find(|c| c != 'a') {
            let mut c: Vec<char> = v.chars().collect();
            c[pos] = 'a';
            out.push(c.into_iter().collect());
        }
        out
    }
}

/// A mapped generator (see [`Gen::prop_map`]).
#[derive(Clone, Debug)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Gen for Map<G, F>
where
    G: Gen,
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of random cases to run (the iteration budget).
    pub cases: u32,
    /// Run seed; every case seed derives from this, the property name
    /// and the case index.
    pub seed: u64,
    /// Total shrink-candidate evaluations allowed per failure.
    pub max_shrink_steps: u32,
    /// Discard budget as a multiple of `cases`; exceeding it fails the
    /// property (the generator and `prop_assume!` filters disagree).
    pub max_discard_ratio: u32,
    /// Optional seed-corpus file: replayed before random cases, and
    /// appended to (best-effort) when a new failure is found.
    pub corpus: Option<PathBuf>,
}

/// The default run seed. Fixed — never derived from time or entropy —
/// so `cargo test` is bit-identical run to run.
pub const DEFAULT_SEED: u64 = 0xDF4D_C11E_C0FF_EE01;

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: 256,
            seed: DEFAULT_SEED,
            max_shrink_steps: 4096,
            max_discard_ratio: 16,
            corpus: None,
        }
    }
}

impl Config {
    /// Default configuration with the given case budget.
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// Attaches a seed-corpus file.
    pub fn corpus(mut self, path: impl Into<PathBuf>) -> Config {
        self.corpus = Some(path.into());
        self
    }
}

/// Everything known about one property failure (after shrinking).
#[derive(Clone, Debug)]
pub struct FailureInfo<V> {
    /// The case seed that reproduces the failure: generating from this
    /// seed with the same generator yields `original`.
    pub seed: u64,
    /// Random-case index, or `None` when replayed from the corpus.
    pub case: Option<u32>,
    /// The originally generated failing value.
    pub original: V,
    /// The smallest failing value the shrinker found.
    pub shrunk: V,
    /// Shrink candidates evaluated.
    pub shrink_steps: u32,
    /// The failure message from the property on the shrunk value.
    pub message: String,
}

/// FNV-1a 64-bit hash — used to mix property names into case seeds;
/// also handy for content digests in golden-file tests.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn case_seed(run_seed: u64, name: &str, index: u64) -> u64 {
    Seed(run_seed ^ fnv1a_64(name.as_bytes())).derive(index).0
}

/// Runs the property and panics with a reproducible report on failure.
///
/// Order of execution: corpus seeds (if configured) first, then
/// `cfg.cases` random cases. On failure the counterexample is shrunk
/// and — when a corpus file is configured and the failure came from a
/// random case — its seed is appended to the corpus.
pub fn check<G: Gen>(name: &str, cfg: &Config, gen: &G, prop: impl Fn(&G::Value) -> PropResult) {
    if let Some(failure) = check_outcome(name, cfg, gen, &prop) {
        if failure.case.is_some() {
            if let Some(path) = &cfg.corpus {
                record_corpus_entry(path, name, failure.seed, &failure.shrunk);
            }
        }
        let origin = match failure.case {
            Some(i) => format!("random case {i}"),
            None => "corpus replay".to_string(),
        };
        panic!(
            "property '{name}' failed ({origin})\n  \
             reproduce: seed 0x{seed:016x}\n  \
             original: {original:?}\n  \
             shrunk ({steps} steps): {shrunk:?}\n  \
             error: {message}",
            seed = failure.seed,
            original = failure.original,
            steps = failure.shrink_steps,
            shrunk = failure.shrunk,
            message = failure.message,
        );
    }
}

/// Non-panicking core of [`check`]: returns the first (shrunk) failure
/// or `None` when all cases pass.
pub fn check_outcome<G: Gen>(
    name: &str,
    cfg: &Config,
    gen: &G,
    prop: &impl Fn(&G::Value) -> PropResult,
) -> Option<FailureInfo<G::Value>> {
    // 1. Replay the persisted corpus before anything random.
    if let Some(path) = &cfg.corpus {
        for (tag, seed) in read_corpus(path) {
            if let Some(t) = &tag {
                if t != name {
                    continue;
                }
            }
            let value = gen.generate(&mut Rng::seed_from_u64(seed));
            match prop(&value) {
                Err(e) if e != DISCARD => {
                    return Some(shrink_failure(gen, prop, cfg, seed, None, value, e));
                }
                _ => {}
            }
        }
    }

    // 2. Random cases, each derived from (run seed, name, index).
    let mut discards = 0u64;
    let max_discards = cfg.cases as u64 * cfg.max_discard_ratio as u64;
    let mut index = 0u64;
    let mut done = 0u32;
    while done < cfg.cases {
        let seed = case_seed(cfg.seed, name, index);
        index += 1;
        let value = gen.generate(&mut Rng::seed_from_u64(seed));
        match prop(&value) {
            Ok(()) => done += 1,
            Err(e) if e == DISCARD => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "property '{name}' discarded {discards} cases (budget {max_discards}); \
                     generator and prop_assume! filters are incompatible"
                );
            }
            Err(e) => {
                return Some(shrink_failure(gen, prop, cfg, seed, Some(done), value, e));
            }
        }
    }
    None
}

fn shrink_failure<G: Gen>(
    gen: &G,
    prop: &impl Fn(&G::Value) -> PropResult,
    cfg: &Config,
    seed: u64,
    case: Option<u32>,
    original: G::Value,
    message: String,
) -> FailureInfo<G::Value> {
    let mut shrunk = original.clone();
    let mut message = message;
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in gen.shrink(&shrunk) {
            steps += 1;
            match prop(&candidate) {
                Err(e) if e != DISCARD => {
                    shrunk = candidate;
                    message = e;
                    continue 'outer;
                }
                _ => {}
            }
            if steps >= cfg.max_shrink_steps {
                break;
            }
        }
        break; // no candidate failed: local minimum
    }
    FailureInfo {
        seed,
        case,
        original,
        shrunk,
        shrink_steps: steps,
        message,
    }
}

/// Parses a corpus file into `(optional property tag, seed)` entries.
///
/// Format, one entry per line:
/// `<property-name> 0x<hex-seed>  # optional comment`
/// A `*` property name (or a bare seed) applies to every property in
/// the file. Blank lines and `#` comments are ignored.
pub fn read_corpus(path: &Path) -> Vec<(Option<String>, u64)> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let first = tokens.next().unwrap_or("");
        let (tag, seed_tok) = match tokens.next() {
            Some(second) => (
                if first == "*" {
                    None
                } else {
                    Some(first.to_string())
                },
                second,
            ),
            None => (None, first),
        };
        let digits = seed_tok.trim_start_matches("0x");
        if let Ok(seed) = u64::from_str_radix(digits, 16) {
            out.push((tag, seed));
        }
    }
    out
}

fn record_corpus_entry<V: Debug>(path: &Path, name: &str, seed: u64, shrunk: &V) {
    // Best-effort: persisting a regression seed must never mask the
    // real failure, so IO errors are swallowed.
    let existing = read_corpus(path);
    if existing.iter().any(|(_, s)| *s == seed) {
        return;
    }
    let mut note = format!("{shrunk:?}");
    note.truncate(100);
    let note = note.replace('\n', " ");
    let line = format!("{name} 0x{seed:016x} # auto-recorded; shrinks to {note}\n");
    let _ = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
}

/// Asserts a condition inside a property, failing the case (with
/// shrinking) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {} at {}:{}",
                stringify!($cond), format!($($fmt)+), file!(), line!()
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) at {}:{}",
                stringify!($a), stringify!($b), left, right, file!(), line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) — {} at {}:{}",
                stringify!($a), stringify!($b), left, right,
                format!($($fmt)+), file!(), line!()
            ));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err(format!(
                "assertion failed: {} != {} (both {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                left,
                file!(),
                line!()
            ));
        }
    }};
}

/// Discards the current case when the precondition does not hold
/// (bounded by [`Config::max_discard_ratio`]).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::DISCARD.to_string());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(cases: u32) -> Config {
        Config::with_cases(cases)
    }

    #[test]
    fn passing_property_returns_none() {
        let out = check_outcome("pass", &quiet(128), &(0i64..100, 0i64..100), &|v| {
            let (a, b) = v;
            prop_assert_eq!(a + b, b + a);
            Ok(())
        });
        assert!(out.is_none());
    }

    #[test]
    fn int_failure_shrinks_to_boundary() {
        // Fails for v >= 50; the minimal counterexample is exactly 50.
        let out = check_outcome("int_shrink", &quiet(256), &(0i64..1000), &|v| {
            prop_assert!(*v < 50, "v={v}");
            Ok(())
        })
        .expect("must fail");
        assert_eq!(out.shrunk, 50, "shrinker should land on the boundary");
        assert!(out.original >= 50);
        // The recorded seed reproduces the original value.
        let regen = (0i64..1000).generate(&mut Rng::seed_from_u64(out.seed));
        assert_eq!(regen, out.original);
    }

    #[test]
    fn vec_failure_shrinks_to_single_offender() {
        // Fails when any element exceeds 100.
        let gen = vec(0i64..1000, 0..20);
        let out = check_outcome("vec_shrink", &quiet(256), &gen, &|v| {
            prop_assert!(v.iter().all(|&x| x <= 100), "{v:?}");
            Ok(())
        })
        .expect("must fail");
        assert_eq!(
            out.shrunk.len(),
            1,
            "one offending element: {:?}",
            out.shrunk
        );
        assert_eq!(out.shrunk[0], 101, "minimal offender: {:?}", out.shrunk);
    }

    #[test]
    fn vec_respects_min_len_during_shrink() {
        let gen = vec(0i64..10, 3..8);
        let out = check_outcome("vec_min_len", &quiet(64), &gen, &|_| {
            Err("always".to_string())
        })
        .expect("must fail");
        assert!(out.shrunk.len() >= 3);
    }

    #[test]
    fn tuple_components_shrink_independently() {
        let out = check_outcome("tuple_shrink", &quiet(256), &(0i64..100, 0i64..100), &|v| {
            let (a, b) = v;
            prop_assert!(a + b < 60, "{a}+{b}");
            Ok(())
        })
        .expect("must fail");
        let (a, b) = out.shrunk;
        assert_eq!(a + b, 60, "minimal failing sum: {a}+{b}");
    }

    #[test]
    fn discards_are_bounded_and_skipped() {
        let out = check_outcome("assume", &quiet(64), &(0i64..100), &|v| {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
            Ok(())
        });
        assert!(out.is_none());
    }

    #[test]
    fn failures_are_deterministic() {
        let run = || {
            check_outcome("det", &quiet(128).seed(99), &(0i64..10_000), &|v| {
                prop_assert!(*v < 9_000);
                Ok(())
            })
            .expect("fails")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.original, b.original);
        assert_eq!(a.shrunk, b.shrunk);
    }

    #[test]
    fn corpus_roundtrip_and_replay() {
        let path = std::env::temp_dir().join(format!(
            "dfm-check-corpus-{}-{}.seeds",
            std::process::id(),
            fnv1a_64(b"corpus_roundtrip")
        ));
        let _ = fs::remove_file(&path);

        // First run: find a failure and record it.
        let cfg = quiet(256).corpus(&path);
        let prop = |v: &i64| -> PropResult {
            prop_assert!(*v < 500, "v={v}");
            Ok(())
        };
        let first = check_outcome("corpus_prop", &cfg, &(0i64..1000), &prop).expect("fails");
        record_corpus_entry(&path, "corpus_prop", first.seed, &first.shrunk);

        let entries = read_corpus(&path);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0.as_deref(), Some("corpus_prop"));
        assert_eq!(entries[0].1, first.seed);

        // Second run: the corpus seed replays before random cases.
        let second = check_outcome("corpus_prop", &cfg, &(0i64..1000), &prop).expect("fails");
        assert_eq!(second.case, None, "failure must come from corpus replay");
        assert_eq!(second.seed, first.seed);

        // Recording the same seed twice is a no-op.
        record_corpus_entry(&path, "corpus_prop", first.seed, &first.shrunk);
        assert_eq!(read_corpus(&path).len(), 1);

        // Tagged entries are ignored by other properties.
        let other = check_outcome("other_prop", &cfg, &(0i64..400), &prop);
        assert!(other.is_none());

        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corpus_parser_accepts_comments_and_bare_seeds() {
        let path =
            std::env::temp_dir().join(format!("dfm-check-parse-{}.seeds", std::process::id()));
        fs::write(
            &path,
            "# header comment\n\n\
             my_prop 0x00000000000000ff # tagged\n\
             * 0x10\n\
             1f\n",
        )
        .expect("write");
        let entries = read_corpus(&path);
        assert_eq!(
            entries,
            [
                (Some("my_prop".to_string()), 0xff),
                (None, 0x10),
                (None, 0x1f),
            ]
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mapped_generators_generate_but_do_not_shrink() {
        #[derive(Clone, Debug, PartialEq)]
        struct Wrapper(i64);
        let gen = (10i64..20).prop_map(Wrapper);
        let mut rng = Rng::seed_from_u64(1);
        let v = gen.generate(&mut rng);
        assert!((10..20).contains(&v.0));
        assert!(gen.shrink(&v).is_empty());
    }

    #[test]
    fn string_generator_respects_alphabet_and_length() {
        let gen = lowercase_string(1..9);
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..200 {
            let s = gen.generate(&mut rng);
            assert!((1..9).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
        let shrunk = gen.shrink(&"zz".to_string());
        assert!(shrunk.contains(&"z".to_string()));
        assert!(shrunk.contains(&"az".to_string()));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
