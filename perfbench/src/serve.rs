//! The serving workload: one `mf_server::Server`, two tenants.
//!
//! Tenant A holds a session on the workload's first matrix and receives
//! open-loop single-RHS solves at a fixed rate. Tenant B holds a session on
//! the second matrix and, at a fixed interval, takes a time step: a
//! same-pattern refactor with the other of two seeded value sets, then a
//! 4-RHS solve queued behind it. One generator thread issues both
//! schedules; the benchmark thread collects the answers and checks each one
//! bitwise against a standalone `SpdSolver` answer computed in setup.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mf_core::SpdSolver;
use mf_gpusim::Machine;
use mf_server::{RefactorTicket, ServeError, Server, ServerConfig, SessionId, SolveTicket};
use mf_sparse::SymCsc;

use crate::trace::Tracer;
use crate::util::{median, rescaled, same_bits, tail, Report, Rng};
use crate::{solver_options, Inputs};

/// Tenant A's offered load, between per-request (~10 req/s) and batched
/// (~100 req/s) capacity on sgi_1M.
const A_RATE_HZ: f64 = 30.0;
/// Tenant B takes a time step this often, starting `B_FIRST_S` into the
/// window.
const B_INTERVAL_S: f64 = 7.0;
const B_FIRST_S: f64 = 1.0;
/// Right-hand sides per tenant-B step.
const B_NRHS: usize = 4;
/// Distinct tenant-A right-hand sides (requests cycle through them).
const A_POOL: usize = 32;
/// Latency limit behind `goodput_rps` (stated in BENCHMARK.json).
const LATENCY_LIMIT_MS: f64 = 2000.0;
/// Batching window (RHS columns per sweep).
pub const WINDOW: usize = 32;

/// A live server with both sessions and every reference answer.
pub struct Setup {
    server: Server,
    a_name: String,
    b_name: String,
    a_sess: SessionId,
    b_sess: SessionId,
    a_rhs: Vec<Vec<f64>>,
    a_ref: Vec<Vec<f64>>,
    /// Tenant B's two value sets, right-hand-side blocks and answers.
    b_vals: [SymCsc<f64>; 2],
    b_rhs: [Vec<f64>; 2],
    b_ref: [Vec<f64>; 2],
    /// Tenant A's submit (an analysis-cache miss), seconds.
    pub submit_miss_s: f64,
}

/// Build tenant inputs and references, start the server, submit both
/// sessions and warm them up with one verified solve each.
pub fn setup(inputs: &Inputs, seed: u64, rep: &mut Report, tr: &mut Tracer) -> Setup {
    let opts = solver_options();
    let (a_name, a) = &inputs.mats[0];
    let (b_name, b) = &inputs.mats[1];
    let mut rng = Rng::new(seed, 0x5e7e);
    let a_rhs: Vec<Vec<f64>> = (0..A_POOL).map(|_| rng.vector(a.order())).collect();
    let b_vals = [rescaled(b, &mut rng), rescaled(b, &mut rng)];
    let b_rhs = [rng.vector(b.order() * B_NRHS), rng.vector(b.order() * B_NRHS)];

    let span = tr.open("server", "references", a_name);
    let a_ref = {
        let s =
            SpdSolver::new(a, &mut Machine::paper_node(), &opts).expect("tenant A matrix is SPD");
        let flat: Vec<f64> = a_rhs.concat();
        let x = s.solve_many(&flat, A_POOL).expect("valid reference block");
        x.chunks(a.order()).map(<[f64]>::to_vec).collect::<Vec<_>>()
    };
    let b_ref = {
        let mut s = SpdSolver::new(&b_vals[0], &mut Machine::paper_node(), &opts)
            .expect("tenant B value set 0 is SPD");
        let x0 = s.solve_many(&b_rhs[0], B_NRHS).expect("valid reference block");
        s.refactor(&b_vals[1], &mut Machine::paper_node()).expect("tenant B value set 1 is SPD");
        let x1 = s.solve_many(&b_rhs[1], B_NRHS).expect("valid reference block");
        [x0, x1]
    };
    tr.close(span);

    let server = Server::start(ServerConfig {
        solver: opts,
        workers: 2,
        max_batch_rhs: WINDOW,
        // Accounting only: both scale-1.0 sessions must fit one tenant each.
        tenant_memory_bytes: 64 << 30,
        ..Default::default()
    });

    let t = Instant::now();
    let span = tr.open("server", "submit_miss", a_name);
    let a_sess = server.submit("tenant-a", a).expect("tenant A submit admitted");
    let submit_miss_s = t.elapsed().as_secs_f64();
    tr.close(span);
    let x = server.solve(a_sess, a_rhs[0].clone());
    rep.check(x.as_ref().is_ok_and(|x| same_bits(x, &a_ref[0])), || {
        format!("{a_name}: warm-up answer differs from the standalone solver ({:?})", x.err())
    });

    let span = tr.open("server", "submit_miss", b_name);
    let b_sess = server.submit("tenant-b", &b_vals[0]).expect("tenant B submit admitted");
    tr.close(span);
    let x = server.solve_many(b_sess, b_rhs[0].clone(), B_NRHS);
    rep.check(x.as_ref().is_ok_and(|x| same_bits(x, &b_ref[0])), || {
        format!("{b_name}: warm-up answer differs from the standalone solver ({:?})", x.err())
    });

    Setup {
        server,
        a_name: a_name.clone(),
        b_name: b_name.clone(),
        a_sess,
        b_sess,
        a_rhs,
        a_ref,
        b_vals,
        b_rhs,
        b_ref,
        submit_miss_s,
    }
}

/// One issued operation, handed from the generator to the collector.
enum Sent {
    A {
        idx: usize,
        due: Instant,
        sent: Instant,
        issued: Instant,
        ticket: Result<SolveTicket, ServeError>,
    },
    B {
        step: usize,
        due: Instant,
        sent: Instant,
        issued: Instant,
        refactor: Result<RefactorTicket, ServeError>,
        solve: Result<SolveTicket, ServeError>,
    },
}

/// What the load window measured.
pub struct LoadOutcome {
    pub a_latency_ms: Vec<f64>,
    pub b_step_ms: Vec<f64>,
    pub gen_lag_ms: Vec<f64>,
    pub good: usize,
    /// From the first due time to tenant A's last answer (seconds).
    pub span_s: f64,
    pub sweeps: u64,
    pub solved_rhs: u64,
}

/// Drive the open-loop schedule for `seconds` and collect every answer.
pub fn load(st: &Setup, seconds: f64, rep: &mut Report, tr: &mut Tracer) -> LoadOutcome {
    let mut events: Vec<(f64, bool)> = (0..)
        .map(|i| i as f64 / A_RATE_HZ)
        .take_while(|&t| t < seconds)
        .map(|t| (t, true))
        .collect();
    events.extend(
        (0..)
            .map(|j| B_FIRST_S + j as f64 * B_INTERVAL_S)
            .take_while(|&t| t < seconds)
            .map(|t| (t, false)),
    );
    events.sort_by(|x, y| x.0.total_cmp(&y.0));

    let before = st.server.stats();
    let load_span = tr.open("server", "load", &st.a_name);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let mut out = LoadOutcome {
        a_latency_ms: Vec::new(),
        b_step_ms: Vec::new(),
        gen_lag_ms: Vec::new(),
        good: 0,
        span_s: 0.0,
        sweeps: 0,
        solved_rhs: 0,
    };
    let mut last_done = start;
    let mut request_spans: Vec<(bool, Instant, Instant)> = Vec::new();
    std::thread::scope(|scope| {
        let server = &st.server;
        scope.spawn(move || {
            let (mut a_i, mut b_j) = (0usize, 0usize);
            for (t, is_a) in events {
                let due = start + Duration::from_secs_f64(t);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let msg = if is_a {
                    let idx = a_i % A_POOL;
                    a_i += 1;
                    let ticket = server.solve_many_async(st.a_sess, st.a_rhs[idx].clone(), 1);
                    Sent::A { idx, due, sent, issued: Instant::now(), ticket }
                } else {
                    b_j += 1;
                    let p = b_j % 2;
                    let refactor = server.resubmit_async(st.b_sess, st.b_vals[p].clone());
                    let solve = server.solve_many_async(st.b_sess, st.b_rhs[p].clone(), B_NRHS);
                    Sent::B { step: b_j, due, sent, issued: Instant::now(), refactor, solve }
                };
                if tx.send(msg).is_err() {
                    return;
                }
            }
        });

        for msg in rx {
            match msg {
                Sent::A { idx, due, sent, issued, ticket } => {
                    out.gen_lag_ms.push((sent - due).as_secs_f64() * 1e3);
                    // The worker stamps completion relative to the ticket's
                    // creation, which `issued` follows within microseconds.
                    match ticket.map(SolveTicket::wait_with_latency) {
                        Ok((Ok(x), lat)) => {
                            let done = issued + lat;
                            let ms = (done - due).as_secs_f64() * 1e3;
                            let ok = same_bits(&x, &st.a_ref[idx]);
                            rep.check(ok, || {
                                format!(
                                    "{}: request answer differs from the standalone solver",
                                    st.a_name
                                )
                            });
                            out.a_latency_ms.push(ms);
                            if ok && ms <= LATENCY_LIMIT_MS {
                                out.good += 1;
                            }
                            last_done = last_done.max(done);
                            request_spans.push((true, due, done));
                        }
                        Ok((Err(e), _)) | Err(e) => {
                            rep.check(false, || format!("{}: request failed: {e}", st.a_name))
                        }
                    }
                }
                Sent::B { step, due, sent, issued, refactor, solve } => {
                    out.gen_lag_ms.push((sent - due).as_secs_f64() * 1e3);
                    let p = step % 2;
                    let refactored = match refactor {
                        Ok(t) => t.wait().map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    rep.check(refactored.is_ok(), || {
                        format!(
                            "{}: step {step} refactor failed: {:?}",
                            st.b_name,
                            refactored.err()
                        )
                    });
                    match solve.map(SolveTicket::wait_with_latency) {
                        Ok((Ok(x), lat)) => {
                            let done = issued + lat;
                            let ok = same_bits(&x, &st.b_ref[p]);
                            rep.check(ok, || {
                                format!(
                                    "{}: step {step} answer differs from the standalone solver",
                                    st.b_name
                                )
                            });
                            out.b_step_ms.push((done - due).as_secs_f64() * 1e3);
                            request_spans.push((false, due, done));
                        }
                        Ok((Err(e), _)) | Err(e) => rep.check(false, || {
                            format!("{}: step {step} solve failed: {e}", st.b_name)
                        }),
                    }
                }
            }
        }
    });
    out.span_s = (last_done - start).as_secs_f64();
    let after = st.server.stats();
    out.sweeps = after.batches - before.batches;
    out.solved_rhs = after.solved_rhs - before.solved_rhs;
    tr.close(load_span);
    for (is_a, due, done) in request_spans {
        let (name, matrix, tid) =
            if is_a { ("request", &st.a_name, 2) } else { ("step", &st.b_name, 3) };
        tr.record("server", name, matrix, due, done, Some(load_span), tid);
    }
    out
}

/// The serving end-to-end metrics.
pub fn report(out: &LoadOutcome, rep: &mut Report) {
    println!(
        "tenant A: {} requests, {} within {LATENCY_LIMIT_MS} ms; tenant B: {} steps; sweeps {}",
        out.a_latency_ms.len(),
        out.good,
        out.b_step_ms.len(),
        out.sweeps
    );
    // Tenant B's step is this workload's time to solution: new values in,
    // verified answers out.
    let steps = &out.b_step_ms;
    rep.metric("time_to_solution_s", "s", median(steps) / 1e3, steps.len());
    rep.metric("req_latency_p50_ms", "ms", median(&out.a_latency_ms), out.a_latency_ms.len());
    rep.metric("req_latency_p99_ms", "ms", tail(&out.a_latency_ms), out.a_latency_ms.len());
    rep.metric("goodput_rps", "req/s", out.good as f64 / out.span_s, out.good);
    rep.metric("step_latency_p50_ms", "ms", median(steps), steps.len());
}

/// What the traced run learns about the server beyond the load window.
pub struct ServerProbe {
    pub submit_hit_s: f64,
    pub refactor_ms: f64,
    pub hit_ratio: f64,
    pub rejected: u64,
}

/// After the load: a same-pattern submit (an analysis-cache hit) and two
/// blocking refactors on an idle server, then a verified solve.
pub fn probe(st: &Setup, inputs: &Inputs, tr: &mut Tracer, rep: &mut Report) -> ServerProbe {
    let (a_name, a) = &inputs.mats[0];
    let (sess, submit_hit_s) =
        tr.time("server", "submit_hit", a_name, || st.server.submit("tenant-probe", a));
    match sess {
        Ok(s) => {
            st.server.close(s);
        }
        Err(e) => rep.check(false, || format!("{a_name}: cache-hit submit failed: {e}")),
    }
    let mut refactor_ms = Vec::new();
    for p in [1, 0] {
        let (r, t) = tr.time("server", "refactor", &st.b_name, || {
            st.server.resubmit(st.b_sess, st.b_vals[p].clone())
        });
        rep.check(r.is_ok(), || format!("{}: blocking refactor failed: {:?}", st.b_name, r.err()));
        refactor_ms.push(t * 1e3);
    }
    let x = st.server.solve_many(st.b_sess, st.b_rhs[0].clone(), B_NRHS);
    rep.check(x.as_ref().is_ok_and(|x| same_bits(x, &st.b_ref[0])), || {
        format!("{}: answer after refactor differs from the standalone solver", st.b_name)
    });
    let s = st.server.stats();
    ServerProbe {
        submit_hit_s,
        refactor_ms: median(&refactor_ms),
        hit_ratio: s.analysis_hits as f64 / (s.analysis_hits + s.analysis_misses).max(1) as f64,
        rejected: s.rejected_overloaded + s.rejected_invalid + s.rejected_budget,
    }
}
