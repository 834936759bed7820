//! The supernodal multifrontal factorization driver.
//!
//! Performs the postorder traversal of the supernodal elimination tree,
//! assembling each frontal matrix (extend-add), executing its factor-update
//! under the policy chosen by the active [`PolicySelector`], and harvesting
//! the factor panels and per-call timing records.
//!
//! The numeric phase runs out of preallocated storage: one contiguous
//! factor slab laid out by `SymbolicFactor::panel_ptr`, plus (under the
//! default [`FrontStorage::Arena`]) a postorder LIFO working-storage stack
//! sized by `SymbolicFactor::update_stack_peak` — two allocations for the
//! whole factorization, no matter how many supernodes run.

use crate::arena::FrontArena;
use crate::features::LinearPolicyModel;
use crate::frontal::{
    assemble_front_into, charge_assemble, charge_panel_extract, charge_update_extract,
    copy_update_packed, extract_panel_into, ChildUpdate, Front,
};
use crate::fu::{execute_fu, FuContext, FuError, DEFAULT_PANEL_WIDTH};
use crate::pinned_pool::PinnedPool;
use crate::policy::{BaselineThresholds, PolicyKind};
use crate::stats::{FactorStats, FuRecord};
use crate::tile::TilingOptions;
use mf_dense::{FuFlops, Scalar};
use mf_gpusim::{Machine, TierParams};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{AnalyzeError, Permutation, SymCsc};

/// How the policy for each factor-update call is chosen.
#[derive(Debug, Clone)]
pub enum PolicySelector {
    /// Always the same policy (the paper's per-policy columns in Table VII).
    Fixed(PolicyKind),
    /// Op-count thresholds (the baseline hybrid `P_BH`, §V-B1).
    Baseline(BaselineThresholds),
    /// The trained linear classifier (the model hybrid `P_MH`, §VI).
    Model(LinearPolicyModel),
    /// A per-supernode oracle (the ideal hybrid `P_IH` — built from
    /// retrospective per-policy timings).
    Oracle(Vec<PolicyKind>),
}

impl PolicySelector {
    /// Choose a policy for supernode `sn` with front dims `(m, k)`.
    pub fn choose(&self, sn: usize, m: usize, k: usize) -> PolicyKind {
        match self {
            PolicySelector::Fixed(p) => *p,
            PolicySelector::Baseline(b) => b.choose(FuFlops::new(m, k).total()),
            PolicySelector::Model(model) => model.predict(m, k),
            PolicySelector::Oracle(table) => table[sn],
        }
    }
}

/// How front working storage is provided during the numeric phase. Both
/// modes produce **bitwise identical** factors, stats records, and
/// simulated clocks — every numeric operation and every simulated-time
/// charge lives in the shared per-supernode body; only where the bytes sit
/// differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontStorage {
    /// Preallocated storage: the serial driver runs fronts on a postorder
    /// LIFO [`FrontArena`]; the parallel driver gives each worker a
    /// max-front buffer and hands updates across workers in pooled buffers.
    /// Steady state performs O(1) heap allocations per factorization.
    #[default]
    Arena,
    /// The reference per-front allocation path: a fresh zeroed front and a
    /// fresh update buffer per supernode (panels still land in the
    /// contiguous slab). Kept as the bitwise cross-check for the
    /// determinism suite and the baseline for the allocation benchmarks.
    Heap,
}

/// Options controlling a numeric factorization run.
#[derive(Debug, Clone)]
pub struct FactorOptions {
    /// Policy selection scheme.
    pub selector: PolicySelector,
    /// P4 panel width `w` (Figure 9).
    pub panel_width: usize,
    /// Use the copy-optimized P4 transfer plan (§VI-C).
    pub copy_optimized: bool,
    /// Collect per-call [`FuRecord`]s (adds no simulated time).
    pub record_stats: bool,
    /// Use the growth-only pinned-buffer reuse policy (§V-A2); disable for
    /// the allocation-cost ablation.
    pub pinned_reuse: bool,
    /// Front working-storage backend (see [`FrontStorage`]).
    pub front_storage: FrontStorage,
    /// Pipelined GPU dispatch on a one-device GPU machine (DESIGN.md §4.9):
    /// the event-chained driver of [`crate::multigpu`] with look-ahead
    /// uploads, event-gated child updates and batched runs of small P4
    /// fronts. A timing-only rehearsal keeps it only where it beats the
    /// drain schedule. Factors stay bitwise identical to the drain driver;
    /// per-call [`FuRecord`]s are not collected (`record_stats` is ignored)
    /// and front storage is per-front heap buffers (`front_storage` is
    /// ignored). CPU-only machines always drain.
    pub pipeline: bool,
    /// Intra-front tiling (see [`TilingOptions`]); **off by default** —
    /// enable with [`TilingOptions::tiled`]. When enabled, CPU (P1) fronts
    /// at or above the threshold run the canonical tiled loop nest in every
    /// driver, and the parallel driver additionally schedules their tile
    /// tasks across workers.
    pub tiling: TilingOptions,
    /// Simulated devices per run. More than one on a GPU machine (in core)
    /// runs the event-chained driver of [`crate::multigpu`] over a device
    /// set of this size, whatever `pipeline` says; `record_stats` and
    /// `front_storage` are then ignored as under `pipeline`.
    pub devices: usize,
    /// Out-of-core residency budget in bytes for the factor slab plus the
    /// front arena (see `mf-core::ooc`, DESIGN.md §4.14). `None` runs
    /// fully in core. With a budget set, the drivers replay the
    /// deterministic spill schedule of [`crate::ooc::plan_ooc`]: transfers
    /// are charged on the executing clock, `FactorStats::ooc` reports the
    /// traffic, and event-chained (pipelined or multi-device) dispatch
    /// falls back to the drain schedule (whose front lifetimes the
    /// residency plan models exactly).
    /// Budgets below [`crate::ooc::min_feasible_budget`] fail with
    /// [`FactorError::BudgetTooSmall`].
    pub memory_budget: Option<usize>,
    /// Storage precision of spilled blocks (see
    /// [`crate::ooc::PrecisionLadder`]); only meaningful with a budget.
    /// Off by default — budgeted runs are then bitwise identical to
    /// in-core runs.
    pub ladder: crate::ooc::PrecisionLadder,
    /// Spill-tier capacities and bandwidths (see [`TierParams`]).
    pub tiers: TierParams,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P1),
            panel_width: DEFAULT_PANEL_WIDTH,
            copy_optimized: false,
            record_stats: false,
            pinned_reuse: true,
            front_storage: FrontStorage::default(),
            pipeline: false,
            tiling: TilingOptions::default(),
            devices: 1,
            memory_budget: None,
            ladder: crate::ooc::PrecisionLadder::default(),
            tiers: TierParams::default(),
        }
    }
}

impl FactorOptions {
    /// Options for a memory-budgeted (out-of-core) run: residency of the
    /// factor slab + front arena capped at `bytes`, everything else
    /// default. The quickstart constructor of DESIGN.md §4.14.
    pub fn memory_budget(bytes: usize) -> Self {
        FactorOptions { memory_budget: Some(bytes), ..Default::default() }
    }
}

/// Numeric factorization failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorError {
    /// Non-positive pivot at this column of the *permuted* matrix.
    NotPositiveDefinite {
        /// Global (permuted) column index.
        column: usize,
    },
    /// A parallel worker died (panicked) before handing off the update
    /// matrix this supernode depends on. The factorization cannot continue,
    /// but the failure is reported structurally instead of poisoning the
    /// whole process.
    WorkerLost {
        /// Supernode whose child hand-off was missing.
        supernode: usize,
    },
    /// The symbolic analysis rejected the matrix before any numbers moved.
    Analyze(AnalyzeError),
    /// The out-of-core memory budget is below the minimum feasible
    /// working set ([`crate::ooc::min_feasible_budget`]): some supernode's
    /// pinned set — child updates + front + panel — cannot fit even with
    /// everything else spilled.
    BudgetTooSmall {
        /// The requested budget in bytes.
        budget: usize,
        /// The smallest feasible budget in bytes.
        required: usize,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { column } => {
                write!(
                    f,
                    "matrix is not positive definite (pivot failure at permuted column {column})"
                )
            }
            FactorError::WorkerLost { supernode } => {
                write!(
                    f,
                    "parallel worker lost before supernode {supernode} received its child updates"
                )
            }
            FactorError::Analyze(e) => write!(f, "analysis failed: {e}"),
            FactorError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget of {budget} bytes is below the minimum feasible \
                 out-of-core working set of {required} bytes"
            ),
        }
    }
}

impl std::error::Error for FactorError {}

impl From<AnalyzeError> for FactorError {
    fn from(e: AnalyzeError) -> Self {
        FactorError::Analyze(e)
    }
}

impl From<crate::ooc::OocError> for FactorError {
    fn from(e: crate::ooc::OocError) -> Self {
        match e {
            crate::ooc::OocError::BudgetTooSmall { budget, required } => {
                FactorError::BudgetTooSmall { budget, required }
            }
        }
    }
}

/// The Cholesky factor in supernodal panel form: `P·A·Pᵀ = L·Lᵀ`.
///
/// All panels live in **one contiguous slab** — panel `sn` is the
/// `slab[panel_ptr[sn]..panel_ptr[sn + 1]]` region (`front_size × k`
/// column-major with leading dimension `front_size`; rows follow
/// `symbolic.supernodes[sn].rows`), in ascending supernode order. The solve
/// sweeps read panels as slices of this slab; no per-supernode `Vec`s.
#[derive(Debug, Clone)]
pub struct CholeskyFactor<T> {
    /// Symbolic structure shared with the analysis.
    pub symbolic: SymbolicFactor,
    /// The fill-reducing permutation used (`perm[new] = old`).
    pub perm: Permutation,
    /// Contiguous factor storage holding every supernode's panel.
    pub slab: Vec<T>,
    /// Panel offsets into `slab` (length `num_supernodes + 1`; equals
    /// `symbolic.panel_ptr()`).
    pub panel_ptr: Vec<usize>,
}

impl<T: Scalar> CholeskyFactor<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.symbolic.n
    }

    /// The `front_size × k` factor panel of supernode `sn`, as a slice of
    /// the contiguous slab.
    pub fn panel(&self, sn: usize) -> &[T] {
        &self.slab[self.panel_ptr[sn]..self.panel_ptr[sn + 1]]
    }

    /// Entry `L[i, j]` of the factor (permuted indices; zero if outside the
    /// structure). Test/inspection helper — solves use the panels directly.
    pub fn l_entry(&self, i: usize, j: usize) -> T {
        if i < j {
            return T::ZERO;
        }
        let sn = self.symbolic.col_to_sn[j];
        let info = &self.symbolic.supernodes[sn];
        let s = info.front_size();
        let lc = j - info.col_start;
        let lr = if i < info.col_end {
            i - info.col_start
        } else {
            match info.rows[info.k()..].binary_search(&i) {
                Ok(pos) => info.k() + pos,
                Err(_) => return T::ZERO,
            }
        };
        self.panel(sn)[lr + lc * s]
    }
}

/// Bookkeeping one supernode's task produces (the panel goes straight into
/// the factor slab; the update stays in the caller's front storage).
pub(crate) struct SnOutcome {
    /// Per-call timing record, when `opts.record_stats` is set.
    pub record: Option<FuRecord>,
    /// Whether a device OOM forced a P1 fallback.
    pub oom_fallback: bool,
}

/// One supernode's complete task body: assemble the front from `A` and the
/// borrowed child update views (extend-added in the order given — the
/// serial postorder child rank) into caller-supplied `front_data`, execute
/// the factor-update under the selected policy, and copy the factored panel
/// into `panel_out` (the supernode's slab region).
///
/// The packed `m × m` update stays in `front_data`; the *caller* moves it
/// (arena compaction, pooled hand-off buffer, or a fresh heap buffer in the
/// reference path) while the simulated cost of that move is charged *here*
/// via [`charge_update_extract`] — so every storage mode and both drivers
/// advance the simulated clock identically.
///
/// This is shared verbatim by the serial postorder driver and the
/// work-stealing parallel driver
/// ([`crate::parallel::factor_permuted_parallel`]), which is what makes the
/// parallel factor bitwise identical to the serial one: both run exactly
/// this code per supernode, on child updates in exactly this order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_supernode<'c, T: Scalar + 'c>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    sn: usize,
    children: impl Iterator<Item = ChildUpdate<'c, T>>,
    front_data: &mut [T],
    panel_out: &mut [T],
    rel_scratch: &mut Vec<usize>,
    machine: &mut Machine,
    pool: &mut PinnedPool,
    opts: &FactorOptions,
    kernel_threads: Option<usize>,
) -> Result<SnOutcome, FactorError> {
    let info = &symbolic.supernodes[sn];
    let (m, k) = (info.m(), info.k());

    let mut front =
        assemble_front_into(a, info, children, front_data, rel_scratch, &mut machine.host);
    let t_assemble_records = if opts.record_stats { machine.take_records() } else { Vec::new() };

    let policy = opts.selector.choose(sn, m, k);
    let t0 = machine.host.now();
    let mut ctx = FuContext { kernel_threads, ..fu_ctx(machine, pool, opts, false) };
    let outcome = execute_fu(&mut front, policy, &mut ctx)
        .map_err(|e| fu_err_to_factor(info.col_start, e))?;
    let t1 = machine.host.now();

    let record = if opts.record_stats {
        let mut rec = FuRecord {
            sn,
            m,
            k,
            policy: outcome.executed,
            total: t1 - t0,
            t_potrf: 0.0,
            t_trsm: 0.0,
            t_syrk: 0.0,
            t_copy: 0.0,
            t_assemble: 0.0,
        };
        rec.absorb(&t_assemble_records);
        rec.absorb(&machine.take_records());
        Some(rec)
    } else {
        None
    };

    extract_panel_into(&front, panel_out, &mut machine.host);
    charge_update_extract::<T>(m, &mut machine.host);
    Ok(SnOutcome { record, oom_fallback: outcome.oom_fallback })
}

/// Factor an already-permuted matrix on the given machine.
///
/// `a` must be the permuted matrix `P·A·Pᵀ` whose structure `symbolic`
/// describes. Use [`crate::solver::SpdSolver`] for the one-call user API.
pub fn factor_permuted<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    // A memory budget forces the drain schedule: the event-chained driver
    // overlaps front lifetimes in ways the LIFO residency plan does not
    // model, and drain keeps budgeted numerics identical at every driver
    // and worker count.
    let event_chained = opts.pipeline || opts.devices > 1;
    if event_chained && opts.memory_budget.is_none() && machine.gpu.is_some() {
        // One device passes the cost-model gate first; a device set always
        // runs event-chained.
        if opts.devices > 1 || pipelining_wins(a, symbolic, opts, machine) {
            let machines = std::slice::from_mut(machine);
            return crate::multigpu::factor_permuted_multigpu(a, symbolic, perm, machines, opts);
        }
    }
    // Pin the deterministic out-of-core schedule before any numbers move;
    // infeasible budgets fail typed here.
    let ooc_plan = match opts.memory_budget {
        Some(budget) => {
            Some(crate::ooc::plan_ooc(symbolic, T::BYTES, budget, opts.ladder, &opts.tiers)?)
        }
        None => None,
    };
    let nsn = symbolic.num_supernodes();
    let mut pool =
        if opts.pinned_reuse { PinnedPool::new(2) } else { PinnedPool::without_reuse(2) };
    let panel_ptr = symbolic.panel_ptr();
    let mut slab = vec![T::ZERO; symbolic.factor_slab_len()];
    let mut stats = FactorStats::default();
    let mut rel: Vec<usize> = Vec::new();
    machine.set_recording(opts.record_stats);
    let wall0 = std::time::Instant::now();

    match opts.front_storage {
        FrontStorage::Arena => {
            // Whole-run working storage: the factor slab plus one arena
            // sized by the symbolic stack-peak bound — the numeric phase's
            // only front-storage allocations.
            stats.front_alloc_events = 2;
            let mut arena = FrontArena::<T>::with_len(symbolic.update_stack_peak());
            // Where each retired supernode's packed update sits in the arena.
            let mut upd_off = vec![0usize; nsn];
            for (r, &sn) in symbolic.postorder.iter().enumerate() {
                if let Some(plan) = &ooc_plan {
                    replay_step_io(plan, r, machine, opts);
                }
                let info = &symbolic.supernodes[sn];
                let (s, k) = (info.front_size(), info.k());
                let front_off = arena.top();
                let (below, front_data) = arena.split_for_front(s * s);
                let kids = &symbolic.children[sn];
                let children = kids.iter().map(|&c| {
                    let ci = &symbolic.supernodes[c];
                    let cm = ci.m();
                    ChildUpdate {
                        rows: ci.update_rows(),
                        data: &below[upd_off[c]..upd_off[c] + cm * cm],
                    }
                });
                let out = process_supernode(
                    a,
                    symbolic,
                    sn,
                    children,
                    front_data,
                    &mut slab[panel_ptr[sn]..panel_ptr[sn + 1]],
                    &mut rel,
                    machine,
                    &mut pool,
                    opts,
                    None,
                )?;
                if out.oom_fallback {
                    stats.oom_fallbacks += 1;
                }
                if let Some(rec) = out.record {
                    stats.records.push(rec);
                }
                // Retire the front: in postorder the consumed child updates
                // are the top contiguous stack region (the first child
                // deepest), so packing this supernode's update down to the
                // first child's offset frees front and children in one move.
                let dest = kids.first().map_or(front_off, |&c| upd_off[c]);
                arena.pop_and_compact(front_off, s, k, dest);
                upd_off[sn] = dest;
                if let Some(plan) = &ooc_plan {
                    // Blocks the plan ever stores encoded are degraded
                    // once, at production, to their tier read-back values —
                    // numerics then cannot depend on when transfers happen.
                    if s > k && plan.degrade_update[sn] {
                        opts.ladder.degrade_slice(arena.update_at_mut(dest, s - k));
                    }
                    if plan.degrade_panel[sn] {
                        opts.ladder.degrade_slice(&mut slab[panel_ptr[sn]..panel_ptr[sn + 1]]);
                    }
                    arena.note_resident_bytes(plan.arena_step_resident[r]);
                }
            }
            stats.peak_front_bytes = arena.high_water() * T::BYTES;
            if let Some(plan) = &ooc_plan {
                // The arena's tier-resident high water must mirror the
                // plan; the logical high water above stays the symbolic
                // bound regardless of the budget.
                debug_assert_eq!(
                    arena.resident_high_water_bytes(),
                    plan.stats.arena_resident_peak_bytes
                );
            }
        }
        FrontStorage::Heap => {
            // Reference path: per-front allocations, as the pre-arena code
            // did. Identical numeric body and identical charges — only the
            // storage differs.
            stats.front_alloc_events = 1; // the slab
            let mut updates: Vec<Option<Vec<T>>> = (0..nsn).map(|_| None).collect();
            let mut live = 0usize;
            let mut peak = 0usize;
            for (r, &sn) in symbolic.postorder.iter().enumerate() {
                if let Some(plan) = &ooc_plan {
                    replay_step_io(plan, r, machine, opts);
                }
                let info = &symbolic.supernodes[sn];
                let (s, k, m) = (info.front_size(), info.k(), info.m());
                let child_bufs: Vec<(usize, Vec<T>)> = symbolic.children[sn]
                    .iter()
                    .map(|&c| (c, updates[c].take().expect("child update must exist in postorder")))
                    .collect();
                stats.front_alloc_events += 1;
                let mut front_data = vec![T::ZERO; s * s];
                peak = peak.max(live + s * s);
                let children = child_bufs.iter().map(|(c, d)| ChildUpdate {
                    rows: symbolic.supernodes[*c].update_rows(),
                    data: &d[..],
                });
                let out = process_supernode(
                    a,
                    symbolic,
                    sn,
                    children,
                    &mut front_data,
                    &mut slab[panel_ptr[sn]..panel_ptr[sn + 1]],
                    &mut rel,
                    machine,
                    &mut pool,
                    opts,
                    None,
                )?;
                if out.oom_fallback {
                    stats.oom_fallbacks += 1;
                }
                if let Some(rec) = out.record {
                    stats.records.push(rec);
                }
                for (_, d) in child_bufs {
                    live -= d.len();
                }
                if m > 0 {
                    stats.front_alloc_events += 1;
                    let mut u = vec![T::ZERO; m * m];
                    copy_update_packed(&front_data, s, k, &mut u);
                    if let Some(plan) = &ooc_plan {
                        if plan.degrade_update[sn] {
                            opts.ladder.degrade_slice(&mut u);
                        }
                    }
                    live += m * m;
                    updates[sn] = Some(u);
                }
                if let Some(plan) = &ooc_plan {
                    if plan.degrade_panel[sn] {
                        opts.ladder.degrade_slice(&mut slab[panel_ptr[sn]..panel_ptr[sn + 1]]);
                    }
                }
            }
            stats.peak_front_bytes = peak * T::BYTES;
        }
    }

    if let Some(plan) = ooc_plan {
        stats.ooc = Some(plan.stats);
    }
    stats.total_time = machine.elapsed();
    stats.gpu = machine.gpu.as_ref().map(|g| g.utilization(stats.total_time));
    stats.wall_time = wall0.elapsed().as_secs_f64();
    machine.set_recording(false);
    Ok((CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab, panel_ptr }, stats))
}

/// Replay one supernode's planned spill transfers on the executing clock,
/// then drop any profile records the charges produced so they do not leak
/// into the next front's assembly bucket (`FuRecord::absorb` books
/// `HostMemop` under `t_assemble`).
pub(crate) fn replay_step_io(
    plan: &crate::ooc::OocPlan,
    rank: usize,
    machine: &mut Machine,
    opts: &FactorOptions,
) {
    for op in &plan.step_io[rank] {
        let bw = if op.write { opts.tiers.write_bw(op.tier) } else { opts.tiers.read_bw(op.tier) };
        machine.host.charge_memop(op.bytes, bw);
    }
    if opts.record_stats && !plan.step_io[rank].is_empty() {
        let _ = machine.take_records();
    }
}

// ----- event-chained support ----------------------------------------------

/// Build an F-U context from the run options (serial: no kernel-thread cap).
/// `timing_only` runs the full F-U schedule with every numeric touch
/// suppressed — the rehearsals behind the pipelining cost model.
pub(crate) fn fu_ctx<'a>(
    machine: &'a mut Machine,
    pool: &'a mut PinnedPool,
    opts: &FactorOptions,
    timing_only: bool,
) -> FuContext<'a> {
    FuContext {
        machine,
        pool,
        panel_width: opts.panel_width,
        copy_optimized: opts.copy_optimized,
        timing_only,
        kernel_threads: None,
        tiling: opts.tiling,
    }
}

/// Lift a front-local pivot failure to the permuted global column.
pub(crate) fn fu_err_to_factor(col_start: usize, e: FuError) -> FactorError {
    match e {
        FuError::NotPositiveDefinite { local_column } => {
            FactorError::NotPositiveDefinite { column: col_start + local_column }
        }
    }
}

/// The cost-model gate of single-device pipelining: rehearse the
/// event-chained and the drain schedule timing-only, each on a *virtual
/// twin* of `machine` (same CPU and GPU configuration, fresh clocks, device
/// memory and staging pool in virtual mode), and pipeline only when that
/// is strictly faster. Every simulated duration depends only on shapes and
/// configuration — never on numeric data — so each rehearsed makespan
/// equals the real driver's exactly, OOM fallbacks and pinned-pool waits
/// included. Both drivers produce bitwise-identical factors, so this is
/// purely a makespan decision: front mixes that lose more to pinned-pool
/// growth and look-ahead chaining than overlap buys back (narrow-treed
/// P2-heavy suites) drain and report speedup 1.0 instead of a regression.
fn pipelining_wins<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    opts: &FactorOptions,
    machine: &Machine,
) -> bool {
    let gpu_cfg = machine.gpu.as_ref().expect("pipelining requires a GPU").config();
    let twin = || Machine::with_gpu(machine.host.config().clone(), gpu_cfg.clone());
    let t_pipe = crate::multigpu::rehearse_makespan(a, symbolic, &mut twin(), opts);

    // The drain driver's per-front charge sequence, data-free: assembly,
    // the full F-U schedule (drained per front), panel and update
    // extraction. Arena/heap front storage charge identically, so the
    // rehearsal needs neither.
    let mut drain = twin();
    if let Some(g) = drain.gpu.as_mut() {
        g.set_virtual(true);
    }
    let mut pool =
        if opts.pinned_reuse { PinnedPool::new(2) } else { PinnedPool::without_reuse(2) };
    pool.set_virtual(true);
    let mut empty: [T; 0] = [];
    for &sn in &symbolic.postorder {
        let info = &symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let a_nnz = (info.col_start..info.col_end).map(|c| a.col_rows(c).len()).sum();
        let child_ms = symbolic.children[sn].iter().map(|&c| symbolic.supernodes[c].m());
        charge_assemble::<T>(a_nnz, s, k, child_ms, &mut drain.host);
        let mut front = Front { s, k, data: &mut empty };
        let policy = opts.selector.choose(sn, m, k);
        execute_fu(&mut front, policy, &mut fu_ctx(&mut drain, &mut pool, opts, true))
            .expect("timing-only rehearsal sees no data, so no pivot can fail");
        charge_panel_extract::<T>(s, k, &mut drain.host);
        charge_update_extract::<T>(m, &mut drain.host);
    }
    t_pipe < drain.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_matgen::{laplacian_2d, laplacian_3d, Stencil};
    use mf_sparse::symbolic::analyze;
    use mf_sparse::{AmalgamationOptions, OrderingKind};

    fn factor_grid(
        selector: PolicySelector,
        nx: usize,
        ny: usize,
    ) -> (CholeskyFactor<f64>, FactorStats, SymCsc<f64>) {
        let a = laplacian_2d(nx, ny, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
        let (f, s) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        (f, s, a)
    }

    /// ‖P·A·Pᵀ − L·Lᵀ‖∞ over the structure of A (cheap reconstruction check).
    fn reconstruction_error(f: &CholeskyFactor<f64>, a: &SymCsc<f64>) -> f64 {
        let pa = f.perm.permute_sym(a);
        let n = pa.order();
        let mut max = 0.0f64;
        for j in 0..n {
            for (&i, &v) in pa.col_rows(j).iter().zip(pa.col_vals(j)) {
                // (L·Lᵀ)[i,j] = Σ_l L[i,l]·L[j,l], l ≤ min(i,j) = j.
                let mut dot = 0.0;
                for l in 0..=j {
                    let lj = f.l_entry(j, l);
                    if lj != 0.0 {
                        dot += f.l_entry(i, l) * lj;
                    }
                }
                max = max.max((dot - v).abs());
            }
        }
        max
    }

    #[test]
    fn p1_factorization_reconstructs_matrix() {
        let (f, stats, a) = factor_grid(PolicySelector::Fixed(PolicyKind::P1), 12, 12);
        assert!(stats.total_time > 0.0);
        assert_eq!(stats.oom_fallbacks, 0);
        let err = reconstruction_error(&f, &a);
        assert!(err < 1e-9, "reconstruction error {err}");
    }

    #[test]
    fn gpu_policies_reconstruct_at_f32_accuracy() {
        for p in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
            let (f, _, a) = factor_grid(PolicySelector::Fixed(p), 10, 10);
            let err = reconstruction_error(&f, &a);
            assert!(err < 1e-2, "{p} reconstruction error {err}");
            assert!(err > 0.0);
        }
    }

    #[test]
    fn stats_cover_every_supernode() {
        let (f, stats, _) = factor_grid(PolicySelector::Fixed(PolicyKind::P1), 14, 9);
        assert_eq!(stats.records.len(), f.symbolic.num_supernodes());
        assert!(stats.records.iter().all(|r| r.total > 0.0));
        // P1 runs must have zero copy time.
        assert!(stats.records.iter().all(|r| r.t_copy == 0.0));
    }

    #[test]
    fn baseline_hybrid_uses_multiple_policies_on_3d() {
        let a = laplacian_3d(9, 9, 9, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Baseline(BaselineThresholds::default()),
            record_stats: true,
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        let counts = stats.policy_counts();
        assert!(counts[0] > 0, "small fronts should use P1: {counts:?}");
    }

    #[test]
    fn oracle_selector_uses_table() {
        let a = laplacian_2d(8, 8, Stencil::Faces);
        let analysis = analyze(&a, OrderingKind::NestedDissection, None).unwrap();
        let nsn = analysis.symbolic.num_supernodes();
        let table = vec![PolicyKind::P2; nsn];
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Oracle(table),
            record_stats: true,
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        assert!(stats.records.iter().all(|r| r.policy == PolicyKind::P2));
    }

    #[test]
    fn indefinite_matrix_reports_global_column() {
        use mf_sparse::Triplet;
        let mut t = Triplet::new(6);
        for i in 0..6 {
            t.push(i, i, if i == 3 { -5.0 } else { 4.0 });
            if i + 1 < 6 {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let analysis = analyze(&a, OrderingKind::Natural, None).unwrap();
        let mut machine = Machine::paper_node();
        let err = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &FactorOptions::default(),
        )
        .unwrap_err();
        match err {
            FactorError::NotPositiveDefinite { column } => {
                // Natural ordering ⇒ permuted column == original column 3
                // (the first non-positive pivot may surface at 3 exactly).
                assert_eq!(column, 3);
            }
            FactorError::WorkerLost { .. } => panic!("serial factorization cannot lose a worker"),
            FactorError::Analyze(_) => panic!("analysis already succeeded before the factor"),
            FactorError::BudgetTooSmall { .. } => panic!("no memory budget was requested"),
        }
    }

    #[test]
    fn l_entry_outside_structure_is_zero() {
        let (f, _, _) = factor_grid(PolicySelector::Fixed(PolicyKind::P1), 6, 6);
        assert_eq!(f.l_entry(0, 5), 0.0, "upper triangle");
        // Diagonal is positive everywhere.
        for j in 0..f.order() {
            assert!(f.l_entry(j, j) > 0.0);
        }
    }

    #[test]
    fn pipelined_driver_matches_drain_bitwise_and_runs_faster() {
        let a = laplacian_3d(7, 6, 6, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let run = |pipeline: bool, selector: PolicySelector| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions { selector, pipeline, ..Default::default() };
            factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                &opts,
            )
            .unwrap()
        };
        // `strict`: whether the selector sends enough fronts to the GPU on
        // this grid for overlap to show (Baseline picks P1 for every front
        // here, so both drivers run the same inline path).
        for (selector, strict) in [
            (PolicySelector::Fixed(PolicyKind::P4), true),
            (PolicySelector::Baseline(BaselineThresholds::default()), false),
        ] {
            let (fd, sd) = run(false, selector.clone());
            let (fp, sp) = run(true, selector);
            let bd: Vec<u64> = fd.slab.iter().map(|x| x.to_bits()).collect();
            let bp: Vec<u64> = fp.slab.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bd, bp, "pipelined factor must match the drain driver bitwise");
            assert!(
                sp.total_time <= sd.total_time,
                "pipelined {:.6e} must not lose to drain {:.6e}",
                sp.total_time,
                sd.total_time
            );
            if strict {
                assert!(
                    sp.total_time < sd.total_time,
                    "pipelined {:.6e} must beat drain {:.6e}",
                    sp.total_time,
                    sd.total_time
                );
                let util = sp.gpu.expect("GPU machine must report utilization");
                assert!(util.busy_fraction() > 0.0 && util.busy_fraction() <= 1.0);
            }
            assert!(sd.gpu.is_some(), "drain driver reports utilization too");
        }
    }

    #[test]
    fn pipelined_cost_model_never_loses_and_falls_back_exactly() {
        // elasticity_3d(4,4,3) under fixed P2 in f32 is a pipeline loser
        // (pinned-pool growth under look-ahead outweighs what overlap buys
        // back on its narrow tree): the rehearsal gate must detect it and
        // reproduce the drain timeline *exactly* — same bits, same
        // simulated makespan to the last ulp. Under P4 the pipeline wins on
        // the same matrix and must stay strictly ahead.
        let a = mf_matgen::elasticity_3d(4, 4, 3);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |pipeline: bool, policy: PolicyKind| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(policy),
                pipeline,
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts).unwrap()
        };
        for (policy, wins) in [(PolicyKind::P2, false), (PolicyKind::P4, true)] {
            let (fd, sd) = run(false, policy);
            let (fp, sp) = run(true, policy);
            let bd: Vec<u32> = fd.slab.iter().map(|x| x.to_bits()).collect();
            let bp: Vec<u32> = fp.slab.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bd, bp, "{policy}: cost-model route must not change the bits");
            if wins {
                assert!(
                    sp.total_time < sd.total_time,
                    "{policy}: predicted winner must stay strictly ahead ({:.6e} vs {:.6e})",
                    sp.total_time,
                    sd.total_time
                );
            } else {
                assert_eq!(
                    sp.total_time.to_bits(),
                    sd.total_time.to_bits(),
                    "{policy}: predicted loser must fall back to the exact drain schedule \
                     ({:.6e} vs {:.6e})",
                    sp.total_time,
                    sd.total_time
                );
            }
        }
    }

    #[test]
    fn pipelined_oom_fallbacks_match_drain_driver() {
        // A device too small for the big fronts: the pipelined driver must
        // make the same P1-fallback decisions (after draining) and still
        // produce identical bits.
        let a = laplacian_3d(6, 6, 5, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let run = |pipeline: bool| {
            let mut cfg = mf_gpusim::tesla_t10();
            cfg.mem_bytes = 2_000; // 500 f32 elements — only small fronts fit
            let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg);
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline,
                ..Default::default()
            };
            factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                &opts,
            )
            .unwrap()
        };
        let (fd, sd) = run(false);
        let (fp, sp) = run(true);
        assert!(sd.oom_fallbacks > 0, "test needs OOM pressure to be meaningful");
        assert_eq!(sp.oom_fallbacks, sd.oom_fallbacks);
        assert!(fd.slab.iter().zip(&fp.slab).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn pipelined_indefinite_matrix_reports_same_column() {
        use mf_sparse::Triplet;
        let mut t = Triplet::new(8);
        for i in 0..8 {
            t.push(i, i, if i == 5 { -3.0 } else { 4.0 });
            if i + 1 < 8 {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let analysis = analyze(&a, OrderingKind::Natural, None).unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P4),
            pipeline: true,
            ..Default::default()
        };
        let err = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap_err();
        assert_eq!(err, FactorError::NotPositiveDefinite { column: 5 });
    }

    #[test]
    fn arena_and_heap_storage_agree_bit_for_bit() {
        let a = laplacian_3d(6, 5, 7, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let run = |storage: FrontStorage| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                record_stats: true,
                front_storage: storage,
                ..Default::default()
            };
            factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                &opts,
            )
            .unwrap()
        };
        let (fa, sa) = run(FrontStorage::Arena);
        let (fh, sh) = run(FrontStorage::Heap);
        assert_eq!(fa.panel_ptr, fh.panel_ptr);
        let ba: Vec<u64> = fa.slab.iter().map(|x| x.to_bits()).collect();
        let bh: Vec<u64> = fh.slab.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ba, bh, "arena factor must match the per-front heap path bitwise");
        // Simulated clocks charge identically in both modes.
        assert_eq!(sa.total_time.to_bits(), sh.total_time.to_bits());
        assert_eq!(sa.records.len(), sh.records.len());
        // Arena mode: factor slab + arena. Heap mode: one allocation per
        // front plus one per non-root update on top of the slab.
        assert_eq!(sa.front_alloc_events, 2);
        assert!(sh.front_alloc_events > sa.front_alloc_events);
        // The arena high-water mark respects the symbolic bound.
        let bound = analysis.symbolic.update_stack_peak() * 8;
        assert!(sa.peak_front_bytes <= bound, "{} > {bound}", sa.peak_front_bytes);
        assert!(sa.peak_front_bytes > 0);
    }
}
