//! Resilient reduction sessions: one shared solver-cache context for every
//! reduction/estimation request over the same stamped system.
//!
//! A [`ReductionSession`] owns, per sparsity-stamp fingerprint:
//!
//! * the shared `s = 0` chain artifacts ([`SharedAssocArtifacts`] — `LU(G₁)`,
//!   its Schur form, which the `H₃` tensor chains run in, and the `G₁ ⊕ G₁`
//!   Lyapunov operator of the `H₂` chains and the `H₃` top blocks), and
//! * the band-estimator shift cache (so every band frequency is factored
//!   exactly once per session, not once per estimator build).
//!
//! Before the session, the adaptive driver and the band estimator each
//! refactored `σ = 0` and the band shifts privately per probe; routing both
//! through one stamp entry removes that duplicate work entirely (see the
//! factored-once regression tests).
//!
//! Three resilience layers wrap the sharing:
//!
//! 1. **Memory budgeting** — every cached artifact is byte-accounted in the
//!    session's [`MemoryBudget`]; stamp entries are LRU-evicted across caches
//!    under the single budget (the transient integrator's frozen factors
//!    share the same ledger via [`ReductionSession::budget`]), and a charge
//!    that cannot fit surfaces as typed
//!    [`SessionError::BudgetExhausted`] backpressure carrying the eviction
//!    ledger — never unbounded growth, never an abort.
//! 2. **Request isolation** — each request runs under its own
//!    [`RunControl::child`] scope (cancelling a request never cancels its
//!    siblings) with panic containment: a panicking reduction is caught and
//!    reported as [`SessionError::RequestPanicked`], and the shared state a
//!    panicked request may have observed is digest-validated before any
//!    other request reuses it. A request that hits a corrupted entry
//!    quarantines exactly that entry and retries once against a fresh
//!    factorization ([`SessionError::CacheCorrupt`] only when the rebuild is
//!    corrupted too) — bad state never propagates across requests.
//! 3. **Checkpoint/resume** — adaptive runs under a [`CheckpointPlan`] write
//!    a versioned, checksummed [`AdaptiveCheckpoint`] after the initial
//!    reduction and after every accepted greedy move; a killed run resumed
//!    from its checkpoint replays the accepted moves deterministically and
//!    converges to the same configuration as an uninterrupted run. Torn or
//!    truncated checkpoint files fail the checksum and surface as typed
//!    [`CheckpointError::Corrupt`] — never a panic, never a silent restart.
//!
//! # Checkpoint format (v1)
//!
//! Line-oriented text, one `key value` pair per line, terminated by an
//! FNV-1a checksum over every preceding byte:
//!
//! ```text
//! vamor-adaptive-checkpoint v1
//! fingerprint <16-hex stamp fingerprint>
//! spec <16-hex adaptive-spec digest>
//! evaluations <decimal probe count>
//! residual <16-hex f64 bits of the best residual>
//! moves <name:16-hex-gain-bits,...  or "-" when no move is accepted yet>
//! checksum <16-hex FNV-1a of all preceding bytes>
//! ```
//!
//! The version token is part of the checksummed payload: a future `v2`
//! loader can dispatch on it, and a `v1` loader rejects unknown versions
//! with [`CheckpointError::Version`]. Gains are stored as exact `f64` bit
//! patterns so a replayed trace is bit-identical to the checkpointed one.
//!
//! # Lock discipline
//!
//! The stamp registry mutex is a leaf lock acquired only through
//! [`ReductionSession::lock_registry`], never held across a reduction
//! callback or a budget call (enforced by `cargo xtask analyze`).

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vamor_linalg::{BudgetError, EvictionRecord, MemoryBudget, RunControl, SolverBackend, Vector};
use vamor_system::Qldae;

#[cfg(feature = "fault-injection")]
use vamor_linalg::fault::{maybe, FaultKind, FaultSite};

use crate::adaptive::{
    AdaptiveHooks, AdaptiveMove, AdaptiveOutcome, AdaptiveReducer, AdaptiveTrace, BandSampler,
    SamplerCache, SharedAdaptiveContext,
};
use crate::assoc::SharedAssocArtifacts;
use crate::error::MorError;
use crate::reduce::{AssocReducer, ReducedQldae};

/// Budget owner tag of the per-stamp shared artifacts (chain factorizations
/// plus the band-estimator shift cache, priced together).
pub const STAMP_BUDGET_OWNER: &str = "stamp";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv1a_u64(value: u64, hash: u64) -> u64 {
    fnv1a(&value.to_le_bytes(), hash)
}

/// Typed session failure. Everything a request can hit — backpressure,
/// contained panics, unrecoverable corruption, checkpoint trouble, or a
/// plain reduction error — arrives as one of these; a session request never
/// panics the caller and never aborts its sibling requests.
#[derive(Debug)]
pub enum SessionError {
    /// The memory-budget governor refused a charge: the pinned working set
    /// plus the request exceeds the configured budget even after evicting
    /// every unpinned entry. Carries the recent eviction ledger so the
    /// caller can see what was sacrificed before the budget ran dry.
    BudgetExhausted {
        /// Bytes the failed charge requested.
        requested: usize,
        /// The configured budget.
        capacity: usize,
        /// Bytes still accounted (all pinned) when the charge failed.
        pinned: usize,
        /// Recent evictions, oldest first.
        ledger: Vec<EvictionRecord>,
    },
    /// The request panicked; the panic was contained to its child scope and
    /// the payload message preserved. Shared state the request may have
    /// touched is digest-validated before reuse.
    RequestPanicked(String),
    /// A shared stamp entry failed digest validation twice in a row (the
    /// cached entry *and* its fresh rebuild) — the request was not served,
    /// and the corrupted entries were quarantined.
    CacheCorrupt {
        /// Stamp fingerprint of the quarantined entry.
        fingerprint: u64,
    },
    /// Checkpoint save/load failed (torn file, version or system mismatch).
    Checkpoint(CheckpointError),
    /// The wrapped reduction failed with an ordinary typed error.
    Mor(MorError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BudgetExhausted {
                requested,
                capacity,
                pinned,
                ledger,
            } => write!(
                f,
                "session budget exhausted: requested {requested} B against {capacity} B \
                 with {pinned} B pinned ({} recorded evictions)",
                ledger.len()
            ),
            SessionError::RequestPanicked(msg) => {
                write!(f, "session request panicked (contained): {msg}")
            }
            SessionError::CacheCorrupt { fingerprint } => write!(
                f,
                "shared cache entry {fingerprint:016x} failed digest validation twice; \
                 entry quarantined"
            ),
            SessionError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SessionError::Mor(e) => write!(f, "reduction error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Mor(e) => Some(e),
            SessionError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MorError> for SessionError {
    fn from(e: MorError) -> Self {
        SessionError::Mor(e)
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

impl From<BudgetError> for SessionError {
    fn from(e: BudgetError) -> Self {
        let BudgetError::Exhausted {
            requested,
            capacity,
            pinned,
            ledger,
        } = e;
        SessionError::BudgetExhausted {
            requested,
            capacity,
            pinned,
            ledger,
        }
    }
}

/// Typed checkpoint failure (see the module docs for the file format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io(String),
    /// The file failed its checksum or did not parse — a torn or truncated
    /// write, detected instead of trusted.
    Corrupt(String),
    /// The file carries a format version this loader does not speak.
    Version(String),
    /// The checkpoint belongs to a different system or adaptive spec.
    Mismatch(String),
    /// The move list names a move this build does not know.
    UnknownMove(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O failure: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            CheckpointError::Version(msg) => write!(f, "checkpoint version unsupported: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::UnknownMove(msg) => write!(f, "checkpoint names unknown move: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Where an adaptive run checkpoints, and whether it resumes from an
/// existing checkpoint first.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Checkpoint file path (written after every accepted move).
    pub path: PathBuf,
    /// Load `path` before running and replay its accepted moves. A missing,
    /// torn, or mismatched file is a typed error — never a silent restart.
    pub resume: bool,
}

impl CheckpointPlan {
    /// Checkpoint to `path`, starting fresh.
    pub fn write_to(path: impl Into<PathBuf>) -> Self {
        CheckpointPlan {
            path: path.into(),
            resume: false,
        }
    }

    /// Resume from `path` (which must exist and validate), then keep
    /// checkpointing to it.
    pub fn resume_from(path: impl Into<PathBuf>) -> Self {
        CheckpointPlan {
            path: path.into(),
            resume: true,
        }
    }
}

/// A versioned, checksummed snapshot of an adaptive run: the accepted move
/// list (with the exact gain bits that earned each acceptance), the probe
/// count, and the best residual so far, bound to the system fingerprint and
/// spec digest it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCheckpoint {
    /// Stamp fingerprint of the system the run reduces.
    pub fingerprint: u64,
    /// Digest of the [`crate::AdaptiveSpec`] driving the run.
    pub spec_digest: u64,
    /// Probe evaluations spent so far.
    pub evaluations: usize,
    /// Best (final) band residual so far.
    pub best_residual: f64,
    /// Accepted moves with their gain-per-column, in acceptance order.
    pub moves: Vec<(AdaptiveMove, f64)>,
}

impl AdaptiveCheckpoint {
    const MAGIC: &'static str = "vamor-adaptive-checkpoint v1";

    /// Snapshot a trace (the head `Initial` step is implicit, not stored).
    pub fn from_trace(fingerprint: u64, spec_digest: u64, trace: &AdaptiveTrace) -> Self {
        AdaptiveCheckpoint {
            fingerprint,
            spec_digest,
            evaluations: trace.evaluations,
            best_residual: trace.final_residual(),
            moves: trace
                .steps
                .iter()
                .skip(1)
                .map(|s| (s.mv, s.gain_per_column))
                .collect(),
        }
    }

    fn serialize(&self) -> String {
        let moves = if self.moves.is_empty() {
            "-".to_string()
        } else {
            self.moves
                .iter()
                .map(|(mv, gain)| format!("{}:{:016x}", mv.name(), gain.to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        };
        let body = format!(
            "{}\nfingerprint {:016x}\nspec {:016x}\nevaluations {}\nresidual {:016x}\nmoves {}\n",
            Self::MAGIC,
            self.fingerprint,
            self.spec_digest,
            self.evaluations,
            self.best_residual.to_bits(),
            moves,
        );
        let checksum = fnv1a(body.as_bytes(), FNV_OFFSET);
        format!("{body}checksum {checksum:016x}\n")
    }

    /// Writes the checkpoint atomically enough for crash detection: the
    /// trailing checksum covers every preceding byte, so a torn write is
    /// *detected* at load instead of trusted.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        #[allow(unused_mut)]
        let mut payload = self.serialize();
        // Fault seam: `CheckpointTorn` truncates the payload mid-file, the
        // crash the checksum exists to catch.
        #[cfg(feature = "fault-injection")]
        if maybe(FaultSite::Checkpoint) == Some(FaultKind::CheckpointTorn) {
            payload.truncate(payload.len() / 2);
        }
        std::fs::write(path, payload).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Loads and validates a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read,
    /// [`CheckpointError::Version`] for an unknown format version,
    /// [`CheckpointError::Corrupt`] when the checksum or structure fails
    /// (torn/truncated writes land here), and
    /// [`CheckpointError::UnknownMove`] for an unparseable move list.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let Some((body, trailer)) = text.rsplit_once("checksum ") else {
            return Err(CheckpointError::Corrupt(
                "missing checksum trailer".to_string(),
            ));
        };
        let stated = u64::from_str_radix(trailer.trim(), 16)
            .map_err(|_| CheckpointError::Corrupt("unparseable checksum".to_string()))?;
        let actual = fnv1a(body.as_bytes(), FNV_OFFSET);
        if stated != actual {
            return Err(CheckpointError::Corrupt(format!(
                "checksum mismatch (stated {stated:016x}, computed {actual:016x}) — torn write"
            )));
        }
        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        if magic != Self::MAGIC {
            return Err(CheckpointError::Version(format!(
                "expected `{}`, found `{magic}`",
                Self::MAGIC
            )));
        }
        let mut field = |name: &str| -> Result<String, CheckpointError> {
            let line = lines
                .next()
                .ok_or_else(|| CheckpointError::Corrupt(format!("missing `{name}` line")))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| CheckpointError::Corrupt(format!("malformed `{name}` line")))
        };
        let fingerprint = u64::from_str_radix(&field("fingerprint")?, 16)
            .map_err(|_| CheckpointError::Corrupt("bad fingerprint".to_string()))?;
        let spec_digest = u64::from_str_radix(&field("spec")?, 16)
            .map_err(|_| CheckpointError::Corrupt("bad spec digest".to_string()))?;
        let evaluations = field("evaluations")?
            .parse::<usize>()
            .map_err(|_| CheckpointError::Corrupt("bad evaluation count".to_string()))?;
        let best_residual = f64::from_bits(
            u64::from_str_radix(&field("residual")?, 16)
                .map_err(|_| CheckpointError::Corrupt("bad residual bits".to_string()))?,
        );
        let moves_field = field("moves")?;
        let mut moves = Vec::new();
        if moves_field != "-" {
            for token in moves_field.split(',') {
                let Some((name, gain_hex)) = token.split_once(':') else {
                    return Err(CheckpointError::Corrupt(format!(
                        "malformed move token `{token}`"
                    )));
                };
                let mv = AdaptiveMove::from_name(name)
                    .ok_or_else(|| CheckpointError::UnknownMove(name.to_string()))?;
                let gain = f64::from_bits(
                    u64::from_str_radix(gain_hex, 16)
                        .map_err(|_| CheckpointError::Corrupt("bad gain bits".to_string()))?,
                );
                moves.push((mv, gain));
            }
        }
        Ok(AdaptiveCheckpoint {
            fingerprint,
            spec_digest,
            evaluations,
            best_residual,
            moves,
        })
    }
}

/// Counters a session accumulates across requests (snapshot — the live
/// values advance concurrently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served (including failed ones).
    pub requests: usize,
    /// Requests that reused an existing stamp entry.
    pub stamp_hits: usize,
    /// Stamp entries factored from scratch.
    pub stamp_builds: usize,
    /// Entries quarantined after failing digest validation.
    pub quarantined: usize,
    /// Panics contained to their request scope.
    pub panics_contained: usize,
}

/// Workspace-metrics twins of the session's atomic counters, resolved once
/// at construction so request paths never touch the registry mutex.
#[derive(Clone)]
struct SessionCounters {
    requests: vamor_obs::CounterHandle,
    stamp_hits: vamor_obs::CounterHandle,
    stamp_builds: vamor_obs::CounterHandle,
    quarantined: vamor_obs::CounterHandle,
    panics_contained: vamor_obs::CounterHandle,
}

impl SessionCounters {
    fn new() -> Self {
        SessionCounters {
            requests: vamor_obs::counter("session.requests"),
            stamp_hits: vamor_obs::counter("session.stamp_hits"),
            stamp_builds: vamor_obs::counter("session.stamp_builds"),
            quarantined: vamor_obs::counter("session.quarantined"),
            panics_contained: vamor_obs::counter("session.panics_contained"),
        }
    }
}

impl fmt::Debug for SessionCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCounters").finish_non_exhaustive()
    }
}

#[derive(Debug, Clone)]
struct StampEntry {
    artifacts: SharedAssocArtifacts,
    sampler: Arc<SamplerCache>,
    /// Probe digest of the artifacts at build time; re-derived and compared
    /// on every fetch so a corrupted entry is caught before any request
    /// consumes it.
    digest: u64,
}

impl StampEntry {
    fn bytes(&self) -> usize {
        self.artifacts.approx_bytes() + self.sampler.approx_bytes()
    }
}

/// The shared solver-cache context (see the module docs).
///
/// ```
/// use vamor_circuits::TransmissionLine;
/// use vamor_core::{AssocReducer, MomentSpec, ReductionSession, RunControl};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let line = TransmissionLine::current_driven(12)?;
/// let session = ReductionSession::unbounded();
/// let reducer = AssocReducer::new(MomentSpec::new(3, 1, 1));
/// let control = RunControl::new();
/// let a = session.reduce(line.qldae(), &reducer, &control)?;
/// let b = session.reduce(line.qldae(), &reducer, &control)?;
/// assert_eq!(a.order(), b.order());
/// // Both requests shared one G1 factorization:
/// assert_eq!(session.stats().stamp_builds, 1);
/// assert_eq!(session.stats().stamp_hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReductionSession {
    budget: Arc<MemoryBudget>,
    backend: SolverBackend,
    registry: Mutex<HashMap<u64, StampEntry>>,
    requests: AtomicUsize,
    stamp_hits: AtomicUsize,
    stamp_builds: AtomicUsize,
    quarantined: AtomicUsize,
    panics_contained: AtomicUsize,
    metrics: SessionCounters,
}

impl ReductionSession {
    /// A session whose caches share `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(Arc::new(MemoryBudget::new(capacity)))
    }

    /// A session with accounting but no eviction or backpressure.
    pub fn unbounded() -> Self {
        Self::with_budget(Arc::new(MemoryBudget::unbounded()))
    }

    /// A session over an existing (possibly shared) budget ledger — e.g. one
    /// also governing the transient integrator's frozen factors.
    pub fn with_budget(budget: Arc<MemoryBudget>) -> Self {
        ReductionSession {
            budget,
            backend: SolverBackend::Auto,
            registry: Mutex::new(HashMap::new()),
            requests: AtomicUsize::new(0),
            stamp_hits: AtomicUsize::new(0),
            stamp_builds: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            panics_contained: AtomicUsize::new(0),
            metrics: SessionCounters::new(),
        }
    }

    /// Overrides the linear-solver backend the shared artifacts are factored
    /// with (requests must use reducers configured for the same backend).
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The session's budget ledger. Hand it to
    /// [`simulate_budgeted`](https://docs.rs) (`vamor_sim`) so transient
    /// integrator factors compete under the same byte budget as the
    /// reduction caches.
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Snapshot of the session counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            requests: self.requests.load(Ordering::Relaxed),
            stamp_hits: self.stamp_hits.load(Ordering::Relaxed),
            stamp_builds: self.stamp_builds.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
        }
    }

    /// Stamp fingerprint of a system: FNV-1a over the CSR sparsity patterns
    /// and exact value bits of every matrix that feeds the shared artifacts.
    pub fn fingerprint(qldae: &Qldae) -> u64 {
        let mut h = FNV_OFFSET;
        for csr in std::iter::once(qldae.g1_csr())
            .chain(std::iter::once(qldae.g2()))
            .chain(qldae.d1().iter())
        {
            h = fnv1a_u64(csr.rows() as u64, h);
            h = fnv1a_u64(csr.cols() as u64, h);
            for (r, c, v) in csr.iter() {
                h = fnv1a_u64(r as u64, h);
                h = fnv1a_u64(c as u64, h);
                h = fnv1a_u64(v.to_bits(), h);
            }
        }
        h
    }

    /// Digest of an [`crate::AdaptiveSpec`] (checkpoints are bound to it).
    pub fn spec_digest(reducer: &AdaptiveReducer) -> u64 {
        let spec = reducer.spec();
        let mut h = FNV_OFFSET;
        h = fnv1a_u64(spec.band.omega_min.to_bits(), h);
        h = fnv1a_u64(spec.band.omega_max.to_bits(), h);
        h = fnv1a_u64(spec.tol.to_bits(), h);
        h = fnv1a_u64(spec.max_order as u64, h);
        h = fnv1a_u64(spec.max_iterations as u64, h);
        h = fnv1a_u64(spec.min_gain.to_bits(), h);
        h
    }

    /// The only acquisition point of the registry mutex (leaf lock; poison
    /// recovered — entries are validated by digest, not by lock state, so a
    /// panicked request cannot leave an undetectably bad entry behind).
    fn lock_registry(&self) -> MutexGuard<'_, HashMap<u64, StampEntry>> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One reduction under the session: shared `s = 0` artifacts, isolated
    /// child scope, panic containment, corruption quarantine, budget
    /// accounting.
    ///
    /// # Errors
    ///
    /// Every failure mode is a typed [`SessionError`]; see the enum docs.
    pub fn reduce(
        &self,
        qldae: &Qldae,
        reducer: &AssocReducer,
        control: &RunControl,
    ) -> Result<ReducedQldae, SessionError> {
        self.isolated(control, |child| {
            let fp = Self::fingerprint(qldae);
            let entry = self.acquire(fp, qldae)?;
            let _pin = self.budget.pin(STAMP_BUDGET_OWNER, fp);
            let rom = reducer.reduce_with_shared(qldae, &entry.artifacts, Some(child))?;
            self.reprice(fp, &entry);
            Ok(rom)
        })
    }

    /// One adaptive run under the session: the band estimator solves through
    /// the stamp's shared shift cache (zero full-model factorizations after
    /// the first request), every probe reduces against the shared `s = 0`
    /// artifacts, and an optional [`CheckpointPlan`] makes the run
    /// killable/resumable.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReductionSession::reduce`]; with `plan.resume`
    /// set, a missing/torn/mismatched checkpoint is a typed
    /// [`SessionError::Checkpoint`] — never a silent restart.
    pub fn reduce_adaptive(
        &self,
        qldae: &Qldae,
        reducer: &AdaptiveReducer,
        control: &RunControl,
        plan: Option<&CheckpointPlan>,
    ) -> Result<AdaptiveOutcome<ReducedQldae>, SessionError> {
        self.isolated(control, |child| {
            let fp = Self::fingerprint(qldae);
            let spec_digest = Self::spec_digest(reducer);
            let (replay, resume_evaluations) = match plan {
                Some(p) if p.resume => {
                    let ck = AdaptiveCheckpoint::load(&p.path)?;
                    if ck.fingerprint != fp {
                        return Err(CheckpointError::Mismatch(format!(
                            "checkpoint is for system {:016x}, not {fp:016x}",
                            ck.fingerprint
                        ))
                        .into());
                    }
                    if ck.spec_digest != spec_digest {
                        return Err(CheckpointError::Mismatch(format!(
                            "checkpoint is for spec {:016x}, not {spec_digest:016x}",
                            ck.spec_digest
                        ))
                        .into());
                    }
                    (ck.moves, ck.evaluations)
                }
                _ => (Vec::new(), 0),
            };
            let entry = self.acquire(fp, qldae)?;
            let _pin = self.budget.pin(STAMP_BUDGET_OWNER, fp);
            let shared = SharedAdaptiveContext {
                sampler_cache: &entry.sampler,
                artifacts: &entry.artifacts,
            };
            // `on_accept` is infallible by signature; the first write
            // failure is parked here and surfaced after the run (the ROM is
            // still returned to a caller that inspects the error's source).
            let write_error: std::cell::RefCell<Option<CheckpointError>> =
                std::cell::RefCell::new(None);
            let writer = |trace: &AdaptiveTrace| {
                if let Some(p) = plan {
                    let ck = AdaptiveCheckpoint::from_trace(fp, spec_digest, trace);
                    if let Err(e) = ck.save(&p.path) {
                        write_error.borrow_mut().get_or_insert(e);
                    }
                }
            };
            let hooks = AdaptiveHooks {
                replay: &replay,
                resume_evaluations,
                on_accept: plan.map(|_| &writer as &dyn Fn(&AdaptiveTrace)),
            };
            let out = reducer.reduce_session(qldae, Some(child), &shared, Some(&hooks))?;
            if let Some(e) = write_error.into_inner() {
                return Err(e.into());
            }
            self.reprice(fp, &entry);
            Ok(out)
        })
    }

    /// Runs `f` in its own [`RunControl::child`] scope with panic
    /// containment: a panic cancels only the child scope and returns
    /// [`SessionError::RequestPanicked`].
    fn isolated<T>(
        &self,
        control: &RunControl,
        f: impl FnOnce(&RunControl) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        let seq = self.requests.fetch_add(1, Ordering::Relaxed) as u64 + 1;
        self.metrics.requests.inc();
        // Every progress event a request emits carries the session-unique
        // request number, so multiplexed callbacks can demux by origin.
        let child = control.child().with_request_id(seq);
        match catch_unwind(AssertUnwindSafe(|| f(&child))) {
            Ok(result) => result,
            Err(payload) => {
                child.cancel();
                self.panics_contained.fetch_add(1, Ordering::Relaxed);
                self.metrics.panics_contained.inc();
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(SessionError::RequestPanicked(msg))
            }
        }
    }

    /// Fetches (or builds) the validated stamp entry for `fp`. A cached
    /// entry that fails digest validation is quarantined — removed from the
    /// registry and the ledger — and the fetch retries exactly once against
    /// a fresh factorization; a second failure is typed.
    fn acquire(&self, fp: u64, qldae: &Qldae) -> Result<StampEntry, SessionError> {
        for _attempt in 0..2 {
            let cached = self.lock_registry().get(&fp).cloned();
            let (entry, fresh_build) = match cached {
                Some(entry) => (entry, false),
                None => (self.build_entry(fp, qldae)?, true),
            };
            // Corruption seam + validation: re-derive the probe digest from
            // the artifacts and compare against the stored one (which the
            // `CacheCorrupt` fault flips). A mismatch on either side means
            // this entry must not serve any request.
            let stored = Self::observed_digest(entry.digest);
            let derived = Self::probe_digest(&entry.artifacts)?;
            if stored == derived {
                if fresh_build {
                    self.stamp_builds.fetch_add(1, Ordering::Relaxed);
                    self.metrics.stamp_builds.inc();
                } else {
                    self.stamp_hits.fetch_add(1, Ordering::Relaxed);
                    self.metrics.stamp_hits.inc();
                }
                self.budget.touch(STAMP_BUDGET_OWNER, fp);
                return Ok(entry);
            }
            self.quarantine(fp);
        }
        Err(SessionError::CacheCorrupt { fingerprint: fp })
    }

    /// Factors a fresh stamp entry, charges the budget (dropping any
    /// LRU-evicted sibling stamps), and publishes it in the registry.
    fn build_entry(&self, fp: u64, qldae: &Qldae) -> Result<StampEntry, SessionError> {
        let _span = vamor_obs::span!("stamp_build");
        let artifacts = SharedAssocArtifacts::build(qldae, self.backend)?;
        let n = artifacts.n();
        let sampler = Arc::new(BandSampler::cache_for(qldae.g1_csr(), self.backend, n));
        let digest = Self::probe_digest(&artifacts)?;
        let entry = StampEntry {
            artifacts,
            sampler,
            digest,
        };
        let evicted = self.budget.charge(STAMP_BUDGET_OWNER, fp, entry.bytes())?;
        self.apply_evictions(&evicted);
        self.lock_registry().insert(fp, entry.clone());
        Ok(entry)
    }

    /// Re-prices a stamp entry after a request (its band-estimator shift
    /// cache grew). A refused re-price demotes the entry to uncached — the request
    /// already completed, so the budget wins and the cache loses.
    fn reprice(&self, fp: u64, entry: &StampEntry) {
        match self.budget.charge(STAMP_BUDGET_OWNER, fp, entry.bytes()) {
            Ok(evicted) => self.apply_evictions(&evicted),
            Err(_) => self.quarantine(fp),
        }
    }

    /// Drops the registry entries behind budget-evicted ledger records.
    fn apply_evictions(&self, evicted: &[EvictionRecord]) {
        for rec in evicted {
            if rec.owner == STAMP_BUDGET_OWNER {
                self.lock_registry().remove(&rec.key);
            }
        }
    }

    /// Removes `fp` from both the registry and the ledger (corruption
    /// quarantine or budget demotion). In-flight requests holding clones of
    /// the entry are unaffected — the artifacts are `Arc`-backed.
    fn quarantine(&self, fp: u64) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.metrics.quarantined.inc();
        vamor_obs::event!(vamor_obs::Event::CacheQuarantine {
            context: "session",
            entries: 1,
        });
        self.lock_registry().remove(&fp);
        self.budget.release(STAMP_BUDGET_OWNER, fp);
    }

    /// The digest a fetch observes — the `CacheCorrupt` fault flips it, the
    /// bit-rot/poisoned-entry case the quarantine path exists for.
    fn observed_digest(digest: u64) -> u64 {
        #[cfg(feature = "fault-injection")]
        if maybe(FaultSite::SessionCache) == Some(FaultKind::CacheCorrupt) {
            return digest ^ 0xdead_beef_dead_beef;
        }
        digest
    }

    /// Content digest of the shared artifacts: the exact bits of
    /// `G₁⁻¹ e₁`, which any corruption of the factorization perturbs.
    fn probe_digest(artifacts: &SharedAssocArtifacts) -> Result<u64, SessionError> {
        let n = artifacts.n();
        let mut e1 = Vector::zeros(n);
        e1[0] = 1.0;
        let x = artifacts
            .g1_factor()
            .solve(&e1)
            .map_err(|e| SessionError::Mor(MorError::Linalg(e)))?;
        let mut h = FNV_OFFSET;
        for i in 0..n {
            h = fnv1a_u64(x[i].to_bits(), h);
        }
        Ok(h)
    }
}
