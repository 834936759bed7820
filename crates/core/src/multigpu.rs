//! The event-chained GPU driver (DESIGN.md §4.9): the one executor behind
//! pipelined single-device runs, multi-device runs and pipelined parallel
//! runs. One device is simply a [`DeviceSet`] of one.
//!
//! # Mapping
//!
//! [`proportional_map`] splits the elimination forest Geist–Ng style on the
//! symbolic per-subtree work estimates: starting from the roots, the
//! heaviest chunk is repeatedly replaced by its children until every chunk
//! is at or below `total / ndev` (and there are at least `ndev` chunks),
//! then chunks are LPT-assigned to the least-loaded device. Split nodes —
//! the *separator frontier* — ride with their heaviest child's device, so
//! the top of the tree stays where most of its operands already live. On
//! one device the map is the identity and the issue order is the postorder.
//!
//! # Execution
//!
//! Every front runs the three-phase machinery of [`crate::fu`] (dispatch,
//! event-gated downloads, finish), driven in an interleaved issue order
//! (round-robin over per-device postorder queues) so that a front uploads
//! to one device while another device's kernels run. A lane's staged front
//! flushes only after the lane's next front has dispatched, so its upload
//! overtakes the previous downloads on the copy engine. A parent waits on
//! the completion events of its own children only, finishing them oldest
//! first, and each worker keeps a bounded window of fronts in flight. Runs
//! of small consecutive P4 fronts on one device share one batched dispatch.
//!
//! Above the frontier, a front whose children were factored on *other*
//! devices consumes their packed `m × m` contribution blocks via
//! [`DeviceSet::p2p`] peer copies — event-chained, on the dedicated peer
//! engine — instead of the d2h → host-assemble → h2d staging round-trip;
//! the producing front's update download (and its host-side apply charge)
//! is skipped entirely ([`enqueue_downloads_keep_update`]).
//!
//! The driver also runs *timing-only*: every simulated charge, no numeric
//! data. That rehearsal is the cost-model gate of single-device pipelining
//! in [`crate::factor::factor_permuted`].
//!
//! # Determinism
//!
//! Host f32/f64 numerics are untouched: every front assembles from `A` plus
//! its children's packed updates in fixed postorder child rank, and runs the
//! exact per-front kernel sequence of the serial drain driver, so factor
//! slabs are **bitwise identical** to the serial and parallel drivers at
//! every `(workers × devices)` combination. The peer-copy path changes only
//! *simulated time*: the simulator's transfers are eager memcpys, so reading
//! the still-device-resident update block yields the same bytes the
//! download path would have produced (pinned by
//! `fu::tests::keep_update_path_is_bitwise_identical_to_download_path`).
//! Device-OOM retry first drains the device to the serial driver's
//! empty-device state, so P1-fallback decisions — the one place scheduling
//! could touch numerics — match the drain driver exactly.

use crate::factor::{fu_ctx, fu_err_to_factor, CholeskyFactor, FactorError, FactorOptions};
use crate::frontal::{
    assemble_front_into, charge_assemble, charge_panel_extract, charge_update_extract,
    copy_update_packed, extract_panel_copy, ChildUpdate, Front,
};
use crate::fu::{
    dispatch_fu, enqueue_batch_downloads, enqueue_downloads, enqueue_downloads_keep_update,
    execute_fu, finish_fu, try_dispatch_gpu, try_dispatch_gpu_batch, BatchError, FuBatchPending,
    FuContext, FuPending, RemoteUpdate, S_COMPUTE, S_COPY,
};
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use crate::stats::FactorStats;
use mf_dense::Scalar;
use mf_gpusim::{CopyMode, DevMat, DeviceSet, Gpu, GpuUtilization, Machine};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{Permutation, SymCsc};

/// Stream id for incoming peer copies on each device (S_COMPUTE and S_COPY
/// keep the single-device meanings).
const S_PEER: usize = 2;

/// Most fronts a worker keeps in flight on a one-device run before the
/// oldest is finished (each holds its pinned staging generations leased).
const WINDOW_ONE_DEVICE: usize = 3;

/// The in-flight window on a device set (never below the worker's lane
/// count, so every device can hold work). The two windows are tuned per
/// case: neither value is best for both (DESIGN.md §4.9).
const WINDOW_DEVICE_SET: usize = 8;

/// Largest front order eligible for batched dispatch.
const BATCH_MAX_FRONT: usize = 128;

/// Most members of one batched dispatch.
const BATCH_MAX_FRONTS: usize = 8;

/// The proportional (Geist–Ng) device mapping of one elimination forest.
#[derive(Debug, Clone)]
pub struct DeviceMap {
    /// Owning device of each supernode.
    pub device_of: Vec<usize>,
    /// Global issue order: a topological order of the forest that
    /// round-robins over the per-device postorder queues, so consecutive
    /// fronts land on different devices whenever their dependencies allow.
    pub issue_order: Vec<usize>,
    /// Mapped work (symbolic flop estimate) per device.
    pub load: Vec<f64>,
}

/// Split the elimination forest into per-device regions proportional to the
/// symbolic work estimates (see the module docs). Deterministic: ties break
/// on the lower supernode / device index.
pub fn proportional_map(symbolic: &SymbolicFactor, ndev: usize) -> DeviceMap {
    assert!(ndev >= 1, "need at least one device");
    let nsn = symbolic.num_supernodes();
    let mut own = vec![0.0f64; nsn];
    let mut work = vec![0.0f64; nsn];
    for &sn in &symbolic.postorder {
        own[sn] = symbolic.supernodes[sn].flops().total().max(1.0);
        work[sn] = own[sn] + symbolic.children[sn].iter().map(|&c| work[c]).sum::<f64>();
    }
    let roots: Vec<usize> =
        (0..nsn).filter(|&sn| symbolic.supernodes[sn].parent == usize::MAX).collect();
    let total: f64 = roots.iter().map(|&r| work[r]).sum();
    let target = total / ndev as f64;

    // Chunking: replace the heaviest splittable chunk by its children until
    // every chunk fits the proportional target (and there are enough
    // chunks to cover the devices). Split nodes form the frontier.
    let mut chunks = roots;
    let mut frontier = vec![false; nsn];
    if ndev > 1 {
        loop {
            let cand = chunks
                .iter()
                .copied()
                .filter(|&c| !symbolic.children[c].is_empty())
                .max_by(|&x, &y| work[x].total_cmp(&work[y]).then(y.cmp(&x)));
            let Some(c) = cand else { break };
            if work[c] <= target && chunks.len() >= ndev {
                break;
            }
            chunks.retain(|&x| x != c);
            frontier[c] = true;
            chunks.extend(symbolic.children[c].iter().copied());
        }
    }

    // LPT assignment: heaviest chunk first onto the least-loaded device.
    chunks.sort_by(|&x, &y| work[y].total_cmp(&work[x]).then(x.cmp(&y)));
    let mut device_of = vec![0usize; nsn];
    let mut load = vec![0.0f64; ndev];
    for &c in &chunks {
        let d = (0..ndev).min_by(|&x, &y| load[x].total_cmp(&load[y]).then(x.cmp(&y))).unwrap();
        let mut stack = vec![c];
        while let Some(sn) = stack.pop() {
            device_of[sn] = d;
            stack.extend(symbolic.children[sn].iter().copied());
        }
        load[d] += work[c];
    }
    // Frontier nodes ride with their heaviest child (processed in postorder
    // so a frontier child's own device is final before its frontier parent).
    for &sn in &symbolic.postorder {
        if !frontier[sn] {
            continue;
        }
        let d = symbolic.children[sn]
            .iter()
            .copied()
            .max_by(|&x, &y| work[x].total_cmp(&work[y]).then(y.cmp(&x)))
            .map_or(0, |c| device_of[c]);
        device_of[sn] = d;
        load[d] += own[sn];
    }

    // Interleaved issue order: per-device postorder queues, issuing at most
    // one ready head per device per round. The globally postorder-minimal
    // unissued supernode always sits at its queue head with every child
    // issued, so each round issues at least one front — no deadlock.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); ndev];
    for &sn in &symbolic.postorder {
        queues[device_of[sn]].push(sn);
    }
    let mut heads = vec![0usize; ndev];
    let mut issued = vec![false; nsn];
    let mut issue_order = Vec::with_capacity(nsn);
    while issue_order.len() < nsn {
        let mut any = false;
        for d in 0..ndev {
            if heads[d] < queues[d].len() {
                let sn = queues[d][heads[d]];
                if symbolic.children[sn].iter().all(|&c| issued[c]) {
                    issued[sn] = true;
                    issue_order.push(sn);
                    heads[d] += 1;
                    any = true;
                }
            }
        }
        debug_assert!(any, "issue order stalled — forest is not topologically consistent");
        if !any {
            // Unreachable for well-formed forests; keep release builds safe.
            for &sn in &symbolic.postorder {
                if !issued[sn] {
                    issued[sn] = true;
                    issue_order.push(sn);
                }
            }
        }
    }
    DeviceMap { device_of, issue_order, load }
}

/// How a lane's staged fronts were dispatched.
enum Dispatched {
    Single(FuPending),
    Batch(FuBatchPending),
}

/// Fronts dispatched on one lane whose downloads are not enqueued yet: one
/// front, or the members of one batched dispatch.
struct Staged<T> {
    sns: Vec<usize>,
    bufs: Vec<Vec<T>>,
    kind: Dispatched,
}

/// Flushed fronts: downloads (or the peer export) enqueued, panels and
/// updates extracted eagerly, extraction charges deferred to finish.
struct Inflight {
    sns: Vec<usize>,
    lane: usize,
    /// Update block exported device-side: its extract charge is skipped —
    /// the bytes never cross to the host.
    exported: bool,
    pending: FuPending,
}

/// One driving worker: a host timeline, the lanes (devices) it owns, and
/// its staging state. The worker's [`Machine`] holds no device between fu
/// calls — lanes are taken out of `set` for exactly the duration of each
/// single-device fu call and restored immediately after.
struct WorkerState<'m, T> {
    machine: &'m mut Machine,
    set: DeviceSet,
    /// Global device ids of this worker's lanes (`devs[lane]`), ascending.
    devs: Vec<usize>,
    pool: PinnedPool,
    staged: Vec<Option<Staged<T>>>,
    inflight: Vec<Inflight>,
}

/// Whole-run state of the event-chained driver.
struct MgRun<'a, 'm, T> {
    a: &'a SymCsc<T>,
    symbolic: &'a SymbolicFactor,
    opts: &'a FactorOptions,
    map: DeviceMap,
    /// Driving worker of each global device.
    worker_of: Vec<usize>,
    /// Lane index of each global device within its worker's set.
    lane_of: Vec<usize>,
    ws: Vec<WorkerState<'m, T>>,
    panel_ptr: Vec<usize>,
    slab: Vec<T>,
    /// Packed host-side `m × m` updates awaiting their parent's extend-add
    /// (always produced — the authoritative numerics).
    updates: Vec<Option<Vec<T>>>,
    /// Device-resident update blocks awaiting a peer-copy extend-add.
    exports: Vec<Option<RemoteUpdate>>,
    rel: Vec<usize>,
    stats: FactorStats,
    live: usize,
    peak: usize,
    /// Per-worker in-flight window ([`WINDOW_ONE_DEVICE`] or
    /// [`WINDOW_DEVICE_SET`]).
    window: usize,
    /// Timing-only mode: charge every simulated cost the real run would
    /// charge, touch no numeric data. Simulated durations depend only on
    /// shapes and machine configuration, so the rehearsed makespan is exact.
    timing: bool,
}

/// `Front` views of a run of staged buffers.
fn fronts_of<'b, T>(
    symbolic: &SymbolicFactor,
    sns: &[usize],
    bufs: &'b mut [Vec<T>],
) -> Vec<Front<'b, T>> {
    sns.iter()
        .zip(bufs)
        .map(|(&sn, buf)| {
            let info = &symbolic.supernodes[sn];
            Front { s: info.front_size(), k: info.k(), data: &mut buf[..] }
        })
        .collect()
}

impl<T: Scalar> MgRun<'_, '_, T> {
    /// Run `f` with lane `lane`'s device installed as worker `w`'s machine
    /// GPU — the single-device F-U interface — then put the device back.
    fn on_lane<R>(&mut self, w: usize, lane: usize, f: impl FnOnce(&mut FuContext<'_>) -> R) -> R {
        let ws = &mut self.ws[w];
        debug_assert!(ws.machine.gpu.is_none(), "device take/put must nest");
        ws.machine.gpu = Some(ws.set.take(lane));
        let r = f(&mut fu_ctx(ws.machine, &mut ws.pool, self.opts, self.timing));
        let g = ws.machine.gpu.take().expect("device must be present to restore");
        ws.set.restore(lane, g);
        r
    }

    fn run(&mut self) -> Result<(), FactorError> {
        let order = std::mem::take(&mut self.map.issue_order);
        let mut i = 0;
        while i < order.len() {
            let len = self.batch_run_len(&order[i..]);
            if len > 1 {
                self.step_batch(&order[i..i + len])?;
            } else {
                self.step(order[i])?;
            }
            i += len;
        }
        for w in 0..self.ws.len() {
            for lane in 0..self.ws[w].staged.len() {
                self.flush_lane(w, lane);
            }
            while !self.ws[w].inflight.is_empty() {
                let e = self.ws[w].inflight.remove(0);
                self.finish_entry(w, e);
            }
        }
        debug_assert!(
            self.exports.iter().all(Option::is_none),
            "every exported update must be consumed by its parent"
        );
        Ok(())
    }

    /// Length of the batchable run at the head of `order`: consecutive
    /// P4-selected fronts of order at most [`BATCH_MAX_FRONT`] on one
    /// device, none exporting its update, with no producer/consumer pair
    /// inside the run (a member's children must have flushed before it
    /// assembles). Returns 1 when the head front dispatches alone.
    fn batch_run_len(&self, order: &[usize]) -> usize {
        // Batches run the naive whole-front P4 plan; under the
        // copy-optimized plan members dispatch singly so the transfer byte
        // counts (and the bits) match the drain driver.
        if self.opts.copy_optimized {
            return 1;
        }
        let symbolic = self.symbolic;
        let dev = self.map.device_of[order[0]];
        let mut len = 0;
        while len < BATCH_MAX_FRONTS.min(order.len()) {
            let sn = order[len];
            let info = &symbolic.supernodes[sn];
            if info.front_size() > BATCH_MAX_FRONT
                || self.map.device_of[sn] != dev
                || self.exports_update(sn)
                || self.opts.selector.choose(sn, info.m(), info.k()) != PolicyKind::P4
                || symbolic.children[sn].iter().any(|c| order[..len].contains(c))
            {
                break;
            }
            len += 1;
        }
        len.max(1)
    }

    /// Whether `sn`'s update block stays device-resident for a peer-copy
    /// extend-add: its parent lives on another device of the same worker
    /// and will itself run on the GPU.
    fn exports_update(&self, sn: usize) -> bool {
        let info = &self.symbolic.supernodes[sn];
        let parent = info.parent;
        if info.m() == 0 || parent == usize::MAX {
            return false;
        }
        let (dev, pdev) = (self.map.device_of[sn], self.map.device_of[parent]);
        let pi = &self.symbolic.supernodes[parent];
        pdev != dev
            && self.worker_of[pdev] == self.worker_of[dev]
            && self.opts.selector.choose(parent, pi.m(), pi.k()) != PolicyKind::P1
    }

    fn step(&mut self, sn: usize) -> Result<(), FactorError> {
        let symbolic = self.symbolic;
        let info = &symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let dev = self.map.device_of[sn];
        let (w, lane) = (self.worker_of[dev], self.lane_of[dev]);
        self.ready_children(sn, w);
        let mut buf = self.assemble(sn, w);
        let policy = self.opts.selector.choose(sn, m, k);
        self.consume_child_exports(sn, w, lane, policy);
        let mut front = Front { s, k, data: &mut buf };
        let dispatched = self.on_lane(w, lane, |ctx| try_dispatch_gpu(&mut front, policy, ctx));
        let pending = match dispatched.map_err(|e| fu_err_to_factor(info.col_start, e))? {
            Some(p) => p,
            None => {
                // Device OOM: retry on this device's empty state; a second
                // OOM falls back to P1 exactly as the drain driver does.
                self.make_room(w, lane, dev);
                let out = self.on_lane(w, lane, |ctx| dispatch_fu(&mut front, policy, ctx));
                out.map_err(|e| fu_err_to_factor(info.col_start, e))?
            }
        };
        if pending.oom_fallback() {
            self.stats.oom_fallbacks += 1;
        }
        if pending.is_done() {
            // CPU-resident result (P1, or an m = 0 pivot): nothing in flight.
            self.extract_inline(sn, &mut buf, w);
            self.live -= s * s;
            return Ok(());
        }
        let staged = Staged { sns: vec![sn], bufs: vec![buf], kind: Dispatched::Single(pending) };
        self.stage(w, lane, staged);
        Ok(())
    }

    /// One batched dispatch of a run from [`Self::batch_run_len`].
    fn step_batch(&mut self, sns: &[usize]) -> Result<(), FactorError> {
        let symbolic = self.symbolic;
        let dev = self.map.device_of[sns[0]];
        let (w, lane) = (self.worker_of[dev], self.lane_of[dev]);
        let mut bufs = Vec::with_capacity(sns.len());
        for &sn in sns {
            self.ready_children(sn, w);
            bufs.push(self.assemble(sn, w));
            self.consume_child_exports(sn, w, lane, PolicyKind::P4);
        }
        let batch_err =
            |e: BatchError| fu_err_to_factor(symbolic.supernodes[sns[e.member]].col_start, e.error);
        let mut batch = self
            .on_lane(w, lane, |ctx| {
                try_dispatch_gpu_batch(&mut fronts_of(symbolic, sns, &mut bufs), ctx)
            })
            .map_err(batch_err)?;
        if batch.is_none() {
            // Combined allocation OOM: retry once on the empty device.
            self.make_room(w, lane, dev);
            batch = self
                .on_lane(w, lane, |ctx| {
                    try_dispatch_gpu_batch(&mut fronts_of(symbolic, sns, &mut bufs), ctx)
                })
                .map_err(batch_err)?;
        }
        if let Some(b) = batch {
            let staged = Staged { sns: sns.to_vec(), bufs, kind: Dispatched::Batch(b) };
            self.stage(w, lane, staged);
            return Ok(());
        }
        // The run does not fit even on an empty device: run the members one
        // by one, drained, so every decision matches the drain driver's.
        for (&sn, mut buf) in sns.iter().zip(bufs) {
            let info = &symbolic.supernodes[sn];
            let mut front = Front { s: info.front_size(), k: info.k(), data: &mut buf };
            let out = self.on_lane(w, lane, |ctx| execute_fu(&mut front, PolicyKind::P4, ctx));
            if out.map_err(|e| fu_err_to_factor(info.col_start, e))?.oom_fallback {
                self.stats.oom_fallbacks += 1;
            }
            self.extract_inline(sn, &mut buf, w);
            self.live -= info.front_size() * info.front_size();
        }
        Ok(())
    }

    /// Stage freshly dispatched fronts on a lane. Dispatch-before-flush:
    /// their uploads are queued, so flushing the lane's previous fronts
    /// cannot delay them on the copy engine. Then enforce the window.
    fn stage(&mut self, w: usize, lane: usize, staged: Staged<T>) {
        self.flush_lane(w, lane);
        self.ws[w].staged[lane] = Some(staged);
        let window = self.window.max(self.ws[w].staged.len());
        while self.ws[w].inflight.len() > window {
            let e = self.ws[w].inflight.remove(0);
            self.finish_entry(w, e);
        }
    }

    /// Make `sn`'s child updates consumable. Children staged anywhere flush
    /// (producing their update data and, cross-device, their exports). Then
    /// worker `w`'s in-flight entries holding a non-exported child finish,
    /// oldest first — a host *event wait*, not a device drain. An exported
    /// child costs nothing here — its ordering flows through the peer-copy
    /// event on the consumer device, which is exactly the cross-device
    /// look-ahead. Children of another worker carry no timing edge (the
    /// parallel driver's convention for cross-worker hand-off).
    fn ready_children(&mut self, sn: usize, w: usize) {
        let kids = &self.symbolic.children[sn];
        for &c in kids {
            let cdev = self.map.device_of[c];
            let (cw, clane) = (self.worker_of[cdev], self.lane_of[cdev]);
            if self.ws[cw].staged[clane].as_ref().is_some_and(|st| st.sns.contains(&c)) {
                self.flush_lane(cw, clane);
            }
        }
        let mut j = 0;
        while j < self.ws[w].inflight.len() {
            let e = &self.ws[w].inflight[j];
            if e.sns.iter().any(|x| kids.contains(x) && self.exports[*x].is_none()) {
                let e = self.ws[w].inflight.remove(j);
                self.finish_entry(w, e);
            } else {
                j += 1;
            }
        }
    }

    /// Assemble `sn`'s front on worker `w`'s host, consuming its children's
    /// packed updates in postorder child rank — the numerics are byte-for-
    /// byte the serial driver's regardless of where the children ran.
    fn assemble(&mut self, sn: usize, w: usize) -> Vec<T> {
        let (a, symbolic) = (self.a, self.symbolic);
        let info = &symbolic.supernodes[sn];
        let s = info.front_size();
        let kids = &symbolic.children[sn];
        let child_bufs: Vec<Vec<T>> = kids
            .iter()
            .map(|&c| self.updates[c].take().expect("child update must exist at issue"))
            .collect();
        self.stats.front_alloc_events += 1;
        self.live += s * s;
        self.peak = self.peak.max(self.live);
        for &c in kids {
            self.live -= symbolic.supernodes[c].m().pow(2);
        }
        let host = &mut self.ws[w].machine.host;
        if self.timing {
            let a_nnz = (info.col_start..info.col_end).map(|c| a.col_rows(c).len()).sum();
            let child_ms = kids.iter().map(|&c| symbolic.supernodes[c].m());
            charge_assemble::<T>(a_nnz, s, info.k(), child_ms, host);
            return Vec::new();
        }
        let mut front_data = vec![T::ZERO; s * s];
        let children = kids.iter().zip(&child_bufs).map(|(&c, d)| ChildUpdate {
            rows: symbolic.supernodes[c].update_rows(),
            data: &d[..],
        });
        assemble_front_into(a, info, children, &mut front_data, &mut self.rel, host);
        front_data
    }

    /// Keep `sn`'s packed `m × m` update for its parent's extend-add (an
    /// empty placeholder in timing-only mode).
    fn keep_update(&mut self, sn: usize, front_data: &[T]) {
        let info = &self.symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        if m == 0 {
            return;
        }
        self.stats.front_alloc_events += 1;
        self.live += m * m;
        let mut u = Vec::new();
        if !self.timing {
            u = vec![T::ZERO; m * m];
            copy_update_packed(front_data, s, k, &mut u);
        }
        self.updates[sn] = Some(u);
    }

    /// Peer-copy every exported child update onto `sn`'s device: an `m × m`
    /// landing buffer, a [`DeviceSet::p2p`] gated on the producer's ready
    /// event, and a compute-stream wait so `sn`'s kernels observe the
    /// scattered update. Falls back to host staging when the parent runs on
    /// the CPU or the landing allocation does not fit. Data-wise this is a
    /// no-op — the host already holds the authoritative update — so only
    /// the simulated timeline moves.
    fn consume_child_exports(&mut self, sn: usize, w: usize, lane: usize, policy: PolicyKind) {
        let symbolic = self.symbolic;
        for &c in &symbolic.children[sn] {
            let Some(ru) = self.exports[c].take() else { continue };
            let cdev = self.map.device_of[c];
            let clane = self.lane_of[cdev];
            debug_assert_eq!(self.worker_of[cdev], w, "exports never cross workers");
            if policy == PolicyKind::P1 || clane == lane {
                self.evict_one(w, clane, ru);
                continue;
            }
            let ws = &mut self.ws[w];
            match ws.set.device_mut(lane).alloc(ru.m * ru.m) {
                Ok(dst) => {
                    let dst_stream = ws.set.device_mut(lane).stream(S_PEER);
                    let ev = ws.set.p2p(
                        clane,
                        ru.view,
                        lane,
                        dst_stream,
                        DevMat::whole(dst, ru.m),
                        ru.m,
                        ru.m,
                        ru.ready,
                        &mut ws.machine.host,
                    );
                    let cs = ws.set.device_mut(lane).stream(S_COMPUTE);
                    ws.set.device_mut(lane).wait_event(cs, ev);
                    // The copy's timing is scheduled; the allocator is
                    // timeless, so free both endpoints now — `sn`'s own
                    // dispatch must see the same free memory the serial
                    // drain driver would.
                    let _ = ws.set.device_mut(lane).free(dst);
                    let _ = ws.set.device_mut(clane).free(ru.buf);
                }
                Err(_) => self.evict_one(w, clane, ru),
            }
        }
    }

    /// Phase 2 for a lane's staged fronts. A single front whose update is
    /// exported ([`Self::exports_update`]) keeps that block device-resident
    /// as a [`RemoteUpdate`] and skips its d2h; otherwise the normal
    /// event-gated downloads enqueue. Either way panels and the
    /// (host-authoritative) packed updates are extracted eagerly, with the
    /// host charges deferred to finish.
    fn flush_lane(&mut self, w: usize, lane: usize) {
        let Some(Staged { sns, mut bufs, kind }) = self.ws[w].staged[lane].take() else {
            return;
        };
        let symbolic = self.symbolic;
        let export = self.exports_update(sns[0]);
        let (pending, remote) = self.on_lane(w, lane, |ctx| {
            let mut fronts = fronts_of(symbolic, &sns, &mut bufs);
            match kind {
                Dispatched::Batch(b) => (enqueue_batch_downloads(&mut fronts, b, ctx), None),
                Dispatched::Single(mut p) if export => {
                    let remote = enqueue_downloads_keep_update(&mut fronts[0], &mut p, ctx);
                    (p, remote)
                }
                Dispatched::Single(mut p) => {
                    enqueue_downloads(&mut fronts[0], &mut p, ctx);
                    (p, None)
                }
            }
        });
        for (&sn, buf) in sns.iter().zip(&mut bufs) {
            let info = &symbolic.supernodes[sn];
            let (s, k) = (info.front_size(), info.k());
            if !self.timing {
                let (p0, p1) = (self.panel_ptr[sn], self.panel_ptr[sn + 1]);
                extract_panel_copy(&Front { s, k, data: &mut buf[..] }, &mut self.slab[p0..p1]);
            }
            self.keep_update(sn, buf);
            self.live -= s * s;
        }
        let exported = remote.is_some();
        if let Some(ru) = remote {
            self.exports[sns[0]] = Some(ru);
        }
        self.ws[w].inflight.push(Inflight { sns, lane, exported, pending });
    }

    /// Drain-path extraction for fronts with no device work outstanding.
    fn extract_inline(&mut self, sn: usize, data: &mut [T], w: usize) {
        let info = &self.symbolic.supernodes[sn];
        let (s, k) = (info.front_size(), info.k());
        if !self.timing {
            let (p0, p1) = (self.panel_ptr[sn], self.panel_ptr[sn + 1]);
            extract_panel_copy(&Front { s, k, data: &mut *data }, &mut self.slab[p0..p1]);
        }
        let host = &mut self.ws[w].machine.host;
        charge_panel_extract::<T>(s, k, host);
        charge_update_extract::<T>(info.m(), host);
        self.keep_update(sn, data);
    }

    /// Phase 3 for one in-flight entry: host event wait, device buffers
    /// free, deferred extraction charges. An exported entry skips the
    /// update-extract charge — its block never crossed to the host.
    fn finish_entry(&mut self, w: usize, e: Inflight) {
        let Inflight { sns, lane, exported, mut pending } = e;
        self.on_lane(w, lane, |ctx| finish_fu(&mut pending, ctx));
        let host = &mut self.ws[w].machine.host;
        for sn in sns {
            let info = &self.symbolic.supernodes[sn];
            charge_panel_extract::<T>(info.front_size(), info.k(), host);
            if !exported {
                charge_update_extract::<T>(info.m(), host);
            }
        }
    }

    /// Reach the drain driver's empty-device state on global device `dev`
    /// (lane `lane` of worker `w`) ahead of an OOM retry: its staged and
    /// in-flight fronts finish (FIFO) and its stranded exports are evicted
    /// to the host, so P1-fallback decisions match the serial driver.
    fn make_room(&mut self, w: usize, lane: usize, dev: usize) {
        self.flush_lane(w, lane);
        let mut j = 0;
        while j < self.ws[w].inflight.len() {
            if self.ws[w].inflight[j].lane == lane {
                let e = self.ws[w].inflight.remove(j);
                self.finish_entry(w, e);
            } else {
                j += 1;
            }
        }
        for c in 0..self.exports.len() {
            if self.map.device_of[c] == dev {
                if let Some(ru) = self.exports[c].take() {
                    self.evict_one(w, lane, ru);
                }
            }
        }
    }

    /// Host-staging fallback for one exported update: an event-gated d2h
    /// into a pooled pinned slot (bytes already live on the host — only the
    /// transfer's simulated time matters) plus the update-extract charge
    /// its producer skipped, then the device buffer frees.
    fn evict_one(&mut self, w: usize, src_lane: usize, ru: RemoteUpdate) {
        self.on_lane(w, src_lane, |ctx| {
            let slot = ctx.pool.lease(ru.m * ru.m, &mut ctx.machine.host);
            let (host, gpu) = ctx.machine.host_and_gpu().expect("lane device present");
            let copy = gpu.stream(S_COPY);
            gpu.wait_event(copy, ru.ready);
            let dst = ctx.pool.slot_mut(slot);
            gpu.d2h(copy, ru.view, ru.m, ru.m, dst, ru.m, true, CopyMode::Async, host);
            let ev = gpu.record_event(copy);
            ctx.pool.retire(slot, ev.0, host);
            let _ = gpu.free(ru.buf);
            charge_update_extract::<T>(ru.m, host);
        });
    }
}

/// The event-chained driver entry, reached from
/// [`crate::factor::factor_permuted`] (one machine) and
/// [`crate::parallel::factor_permuted_parallel`] (several) for every
/// in-core pipelined or multi-device run on a GPU machine.
///
/// The `opts.devices` devices are dealt round-robin over the GPU-bearing
/// machines (device `d` → worker `d mod workers`); each worker's own device
/// is its first lane and the rest are identically-configured fresh devices.
/// Worker host timelines are independent — cross-worker child hand-offs
/// carry no timing edge, exactly the work-stealing parallel driver's
/// convention — so a sequential cooperative schedule reproduces the same
/// per-worker clocks a threaded interleaving would, and the reported
/// `total_time` is the max over workers after all devices drain. Factor
/// slabs are bitwise identical to the serial driver at every
/// `(workers × devices)` combination (see the module docs).
pub fn factor_permuted_multigpu<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machines: &mut [Machine],
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let (slab, panel_ptr, stats) = drive(a, symbolic, machines, opts, false)?;
    Ok((CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab, panel_ptr }, stats))
}

/// Timing-only run of the driver on `machine` (pass a fresh twin: its
/// device is switched to virtual mode). Returns the exact simulated
/// makespan the real run would report; no numeric buffer is allocated.
pub(crate) fn rehearse_makespan<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> f64 {
    let run = drive(a, symbolic, std::slice::from_mut(machine), opts, true);
    run.expect("timing-only rehearsal sees no data, so no pivot can fail").2.total_time
}

fn drive<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    machines: &mut [Machine],
    opts: &FactorOptions,
    timing: bool,
) -> Result<(Vec<T>, Vec<usize>, FactorStats), FactorError> {
    let ndev = opts.devices.max(1);
    let nsn = symbolic.num_supernodes();
    let wall0 = std::time::Instant::now();
    let mut drivers: Vec<&mut Machine> = machines.iter_mut().filter(|m| m.gpu.is_some()).collect();
    assert!(!drivers.is_empty(), "the event-chained driver needs a GPU machine");
    drivers.truncate(ndev);
    let nw = drivers.len();

    let mut worker_of = vec![0usize; ndev];
    let mut lane_of = vec![0usize; ndev];
    let mut devs_per_worker: Vec<Vec<usize>> = vec![Vec::new(); nw];
    for d in 0..ndev {
        let w = d % nw;
        worker_of[d] = w;
        lane_of[d] = devs_per_worker[w].len();
        devs_per_worker[w].push(d);
    }

    let mut ws: Vec<WorkerState<'_, T>> = Vec::with_capacity(nw);
    for (machine, devs) in drivers.into_iter().zip(devs_per_worker) {
        let own = machine.gpu.take().expect("driver machines carry a device");
        let cfg = own.config().clone();
        let mut gpus = vec![own];
        gpus.extend((1..devs.len()).map(|_| Gpu::new(cfg.clone())));
        if timing {
            gpus.iter_mut().for_each(|g| g.set_virtual(true));
        }
        let mut pool =
            if opts.pinned_reuse { PinnedPool::new(2) } else { PinnedPool::without_reuse(2) };
        pool.set_virtual(timing);
        ws.push(WorkerState {
            machine,
            set: DeviceSet::from_gpus(gpus),
            staged: devs.iter().map(|_| None).collect(),
            devs,
            pool,
            inflight: Vec::new(),
        });
    }

    let mut run = MgRun {
        a,
        symbolic,
        opts,
        map: proportional_map(symbolic, ndev),
        worker_of,
        lane_of,
        ws,
        panel_ptr: symbolic.panel_ptr(),
        slab: if timing { Vec::new() } else { vec![T::ZERO; symbolic.factor_slab_len()] },
        updates: (0..nsn).map(|_| None).collect(),
        exports: (0..nsn).map(|_| None).collect(),
        rel: Vec::new(),
        stats: FactorStats { front_alloc_events: 1, ..Default::default() },
        live: 0,
        peak: 0,
        window: if ndev == 1 { WINDOW_ONE_DEVICE } else { WINDOW_DEVICE_SET },
        timing,
    };
    let result = run.run();

    // Stats and device restoration happen whether or not the run errored,
    // so callers always get their machines back intact.
    let mut total = 0.0f64;
    for ws in run.ws.iter_mut() {
        ws.set.sync_all(&mut ws.machine.host);
        total = total.max(ws.machine.host.now());
    }
    let mut per_dev = vec![GpuUtilization::default(); ndev];
    let mut agg = GpuUtilization::default();
    let mut peer = 0usize;
    for wsi in run.ws.iter() {
        for (lane, &d) in wsi.devs.iter().enumerate() {
            let u = wsi.set.device(lane).utilization(total);
            agg.merge(&u);
            per_dev[d] = u;
        }
        peer += wsi.set.peer_bytes();
    }
    let MgRun { slab, panel_ptr, mut stats, ws: workers, peak, .. } = run;
    stats.peak_front_bytes = peak * T::BYTES;
    stats.total_time = total;
    stats.gpu = Some(agg);
    stats.gpu_devices = per_dev;
    stats.peer_bytes = peer;
    stats.wall_time = wall0.elapsed().as_secs_f64();
    for mut w in workers {
        debug_assert!(w.machine.gpu.is_none());
        w.machine.gpu = Some(w.set.take(0));
    }
    result?;
    Ok((slab, panel_ptr, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{factor_permuted, FactorOptions, PolicySelector};
    use crate::parallel::{factor_permuted_parallel, ParallelOptions};
    use crate::policy::BaselineThresholds;
    use mf_matgen::{laplacian_3d, Stencil};
    use mf_sparse::symbolic::{analyze, Analysis};
    use mf_sparse::{AmalgamationOptions, OrderingKind, Triplet};

    fn grid_analysis(nx: usize, ny: usize, nz: usize) -> Analysis {
        let a = laplacian_3d(nx, ny, nz, Stencil::Faces);
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap()
    }

    fn bits(slab: &[f32]) -> Vec<u32> {
        slab.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn proportional_map_covers_and_respects_topology() {
        let analysis = grid_analysis(6, 6, 6);
        let symbolic = &analysis.symbolic;
        let nsn = symbolic.num_supernodes();
        let total_work: f64 =
            (0..nsn).map(|sn| symbolic.supernodes[sn].flops().total().max(1.0)).sum();
        for ndev in [1usize, 2, 3, 4, 8] {
            let map = proportional_map(symbolic, ndev);
            assert_eq!(map.device_of.len(), nsn);
            assert!(map.device_of.iter().all(|&d| d < ndev));
            assert_eq!(map.load.len(), ndev);
            // The issue order is a topological permutation of the forest.
            assert_eq!(map.issue_order.len(), nsn);
            let mut seen = vec![false; nsn];
            for &sn in &map.issue_order {
                assert!(!seen[sn], "duplicate issue of {sn}");
                for &c in &symbolic.children[sn] {
                    assert!(seen[c], "child {c} must issue before parent {sn}");
                }
                seen[sn] = true;
            }
            // Load accounting covers the whole forest.
            let mapped: f64 = map.load.iter().sum();
            assert!((mapped - total_work).abs() < 1e-6 * total_work.max(1.0));
            if ndev == 1 {
                assert_eq!(map.issue_order, symbolic.postorder, "1 device ⇒ pure postorder");
            } else {
                // Every device gets real work on this forest.
                assert!(map.load.iter().all(|&l| l > 0.0), "empty device: {:?}", map.load);
            }
        }
    }

    #[test]
    fn multigpu_matches_serial_drain_bitwise_with_peer_traffic() {
        let analysis = grid_analysis(7, 6, 6);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |devices: usize, pipeline: bool| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline,
                devices,
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                .inspect(|_| {
                    assert!(machine.gpu.is_some(), "machine must get its device back");
                })
                .unwrap()
        };
        let (fd, _) = run(1, false);
        for ndev in [2usize, 4] {
            let (fm, sm) = run(ndev, true);
            assert_eq!(
                bits(&fd.slab),
                bits(&fm.slab),
                "{ndev}-device factor must match the drain driver bitwise"
            );
            assert_eq!(sm.gpu_devices.len(), ndev);
            assert!(sm.peer_bytes > 0, "cross-device fronts must move peer traffic");
            let busy = sm.gpu_devices.iter().filter(|u| u.busy_fraction() > 0.0).count();
            assert!(busy >= 2, "at least two devices must do work, got {busy}");
        }
    }

    #[test]
    fn device_count_alone_selects_the_event_chained_driver() {
        // `devices > 1` without `pipeline` runs the device set, not a
        // single-device drain — at both entries, with drain-identical bits.
        let analysis = grid_analysis(7, 6, 6);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let drain =
            FactorOptions { selector: PolicySelector::Fixed(PolicyKind::P4), ..Default::default() };
        let set = FactorOptions { devices: 4, pipeline: false, ..drain.clone() };
        let (an, sym, perm) = (&a32, &analysis.symbolic, &analysis.perm);
        let (fd, sd) = factor_permuted(an, sym, perm, &mut Machine::paper_node(), &drain).unwrap();
        assert!(sd.gpu_devices.is_empty(), "the drain driver reports no device set");
        let (fs, ss) = factor_permuted(an, sym, perm, &mut Machine::paper_node(), &set).unwrap();
        assert_eq!(ss.gpu_devices.len(), 4);
        assert_eq!(bits(&fd.slab), bits(&fs.slab));
        let mut machines = vec![Machine::paper_node(), Machine::paper_node()];
        let par = ParallelOptions::default();
        let (fp, sp) = factor_permuted_parallel(an, sym, perm, &mut machines, &set, &par).unwrap();
        assert_eq!(sp.gpu_devices.len(), 4);
        assert_eq!(bits(&fd.slab), bits(&fp.slab));
    }

    #[test]
    fn multigpu_beats_single_device_pipelined_on_gpu_heavy_grids() {
        let analysis = grid_analysis(9, 9, 8);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |ndev: usize| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                copy_optimized: true,
                pipeline: true,
                devices: ndev,
                ..Default::default()
            };
            let (_, stats) =
                factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                    .unwrap();
            stats.total_time
        };
        let t1 = run(1);
        let t2 = run(2);
        assert!(t2 < t1, "2 devices ({t2:.6e}) must beat 1 ({t1:.6e})");
    }

    #[test]
    fn multigpu_parallel_entry_matches_serial_bitwise() {
        let analysis = grid_analysis(6, 6, 6);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let serial = {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                .unwrap()
                .0
        };
        for (workers, ndev) in [(2usize, 2usize), (2, 4), (3, 2)] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
            let opts = FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                pipeline: true,
                devices: ndev,
                ..Default::default()
            };
            let (fm, sm) = factor_permuted_parallel(
                &a32,
                &analysis.symbolic,
                &analysis.perm,
                &mut machines,
                &opts,
                &ParallelOptions::default(),
            )
            .unwrap();
            assert_eq!(
                bits(&serial.slab),
                bits(&fm.slab),
                "{workers} workers × {ndev} devices must match serial bitwise"
            );
            assert_eq!(sm.gpu_devices.len(), ndev);
            assert!(machines.iter().all(|m| m.gpu.is_some()));
        }
    }

    #[test]
    fn multigpu_oom_fallbacks_match_drain_driver() {
        let analysis = grid_analysis(6, 6, 5);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |devices: usize, pipeline: bool| {
            let mut cfg = mf_gpusim::tesla_t10();
            cfg.mem_bytes = 2_000; // 500 f32 elements — only small fronts fit
            let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg);
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline,
                devices,
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts).unwrap()
        };
        let (fd, sd) = run(1, false);
        assert!(sd.oom_fallbacks > 0, "test needs OOM pressure to be meaningful");
        for ndev in [2usize, 4] {
            let (fm, sm) = run(ndev, true);
            assert_eq!(sm.oom_fallbacks, sd.oom_fallbacks, "{ndev}-device OOM decisions");
            assert_eq!(bits(&fd.slab), bits(&fm.slab), "{ndev}-device OOM bits");
        }
    }

    #[test]
    fn multigpu_indefinite_matrix_reports_same_column() {
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
            devices: 2,
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
        assert!(machine.gpu.is_some(), "error path must restore the device");
    }
}
