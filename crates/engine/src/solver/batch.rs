//! Batched Krylov solvers: one dispatch pipeline, per-system convergence.
//!
//! [`BatchCg`] and [`BatchBiCgStab`] run the same recurrences as their
//! single-system counterparts ([`Cg`](super::cg::Cg),
//! [`BiCgStab`](super::bicgstab::BiCgStab)) across every system of a
//! [`BatchCsr`] simultaneously: each kernel in an iteration is one batched
//! call — and therefore one pool drain — instead of `num_systems` separate
//! launches. Per-system state (baseline, residual norm, [`StopReason`])
//! lives in plain host vectors; once a system converges or breaks down it
//! is masked out of every subsequent kernel, so the batch finishes when its
//! slowest system does without spending flops on finished ones.
//!
//! Stopping uses the same [`Criteria`] contract as the single solvers,
//! evaluated per system — including the zero-baseline and
//! non-finite-baseline rules, which matter here because one hostile system
//! must not stall or poison its batchmates. Preconditioning is identity
//! only for now (batched preconditioners need batched formats of their
//! own).
//!
//! Completion emits a single [`Event::BatchSolveCompleted`] carrying the
//! converged/breakdown counts; per-system outcomes are returned in the
//! [`BatchSolveRecord`].

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::log::{Event, Logger, LoggerRegistry, OpTimer};
use crate::matrix::batch::{BatchCsr, BatchDense};
use crate::stop::{Criteria, StopReason};
use std::marker::PhantomData;
use std::sync::Arc;

/// Final state of one system inside a batched solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchSystemOutcome {
    /// Fully completed iterations for this system (same convention as
    /// [`SolveRecord::iterations`](crate::log::SolveRecord::iterations)).
    pub iterations: usize,
    /// Initial residual norm.
    pub initial_residual: f64,
    /// Residual norm when the system stopped.
    pub final_residual: f64,
    /// Why this system stopped.
    pub stop_reason: StopReason,
}

impl BatchSystemOutcome {
    /// True if the stop reason indicates convergence.
    pub fn converged(&self) -> bool {
        self.stop_reason.is_converged()
    }
}

/// Per-system outcomes of one batched solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchSolveRecord {
    /// One outcome per system, in batch order.
    pub outcomes: Vec<BatchSystemOutcome>,
}

impl BatchSolveRecord {
    /// Systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.outcomes.len()
    }

    /// Systems that stopped with a converged reason.
    pub fn converged_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.converged()).count()
    }

    /// Systems that stopped with [`StopReason::Breakdown`].
    pub(crate) fn breakdown_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.stop_reason == StopReason::Breakdown)
            .count()
    }

    /// Iterations of the slowest system (what the batch actually ran).
    pub fn max_iterations(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| o.iterations)
            .max()
            .unwrap_or(0)
    }

    /// True when every system converged.
    pub fn all_converged(&self) -> bool {
        self.converged_count() == self.outcomes.len()
    }
}

/// The batched-solver shell: everything the batched methods share (the batch
/// operator, the criteria, the two logger registries — solver-attached and
/// executor-attached — and everything around the iterations), around the
/// `BatchMethod` `M` that tells them apart. Use it through its aliases
/// ([`BatchCg`], [`BatchBiCgStab`]).
pub struct Batched<V: Value, I: Index, M> {
    op: Arc<BatchCsr<V, I>>,
    criteria: Criteria,
    events: LoggerRegistry,
    exec_events: LoggerRegistry,
    method: PhantomData<fn() -> M>,
}

/// Crate-private: `pub` only because the public aliases' impls mention them.
mod sealed {
    use super::*;

    /// Per-system solve state shared by the batched solvers.
    pub struct SystemStates {
        pub(super) baseline: Vec<f64>,
        pub(super) final_res: Vec<f64>,
        pub(super) reason: Vec<Option<StopReason>>,
        pub(super) iters: Vec<usize>,
        pub(super) active: Vec<bool>,
    }

    impl SystemStates {
        pub(super) fn new(baseline: Vec<f64>) -> Self {
            let n = baseline.len();
            SystemStates {
                final_res: baseline.clone(),
                baseline,
                reason: vec![None; n],
                iters: vec![0; n],
                active: vec![true; n],
            }
        }

        pub(super) fn any_active(&self) -> bool {
            self.active.iter().any(|&a| a)
        }

        /// Retires system `s` with its final state; it is masked out of every
        /// subsequent kernel.
        pub(super) fn finish(&mut self, s: usize, iterations: usize, res: f64, reason: StopReason) {
            self.reason[s] = Some(reason);
            self.iters[s] = iterations;
            self.final_res[s] = res;
            self.active[s] = false;
        }

        /// Retires every active system for which `broken(s)` holds as a
        /// breakdown inside iteration `iter`. Same convention as the single
        /// solvers: the broken iteration is not counted and `x` keeps its last
        /// finite state.
        pub(super) fn break_down(&mut self, iter: usize, broken: impl Fn(usize) -> bool) {
            for s in 0..self.active.len() {
                if self.active[s] && broken(s) {
                    self.finish(s, iter - 1, self.final_res[s], StopReason::Breakdown);
                }
            }
        }

        /// Records `res` as the active systems' residual norms after iteration
        /// `iter` and retires those the criteria stop.
        pub(super) fn check(&mut self, criteria: &Criteria, iter: usize, res: &[f64]) {
            for (s, &res_s) in res.iter().enumerate() {
                if !self.active[s] {
                    continue;
                }
                self.final_res[s] = res_s;
                if let Some(reason) = criteria.check(iter, res_s, self.baseline[s]) {
                    self.finish(s, iter, res_s, reason);
                }
            }
        }

        /// `out[s] = value(s)` for the active systems; the others keep theirs,
        /// which no masked kernel reads.
        pub(super) fn set(&self, out: &mut [f64], value: impl Fn(usize) -> f64) {
            for (s, slot) in out.iter_mut().enumerate() {
                if self.active[s] {
                    *slot = value(s);
                }
            }
        }

        pub(super) fn into_record(self) -> BatchSolveRecord {
            let outcomes = self
                .reason
                .iter()
                .enumerate()
                .map(|(s, reason)| BatchSystemOutcome {
                    iterations: self.iters[s],
                    initial_residual: self.baseline[s],
                    final_residual: self.final_res[s],
                    // Every exit path finishes each system; MaxIterations is the
                    // defensive default should one slip through.
                    stop_reason: reason.unwrap_or(StopReason::MaxIterations),
                })
                .collect();
            BatchSolveRecord { outcomes }
        }
    }

    /// The part of a batched method that is its own: its name and its
    /// iterations.
    pub trait BatchMethod: Sized + 'static {
        /// Name in events and spans (e.g. `"solver::BatchCg"`).
        const NAME: &'static str;

        /// The iterations, entered with `r = b - A x`, `scratch` a batch of
        /// the same shape to overwrite, and the systems that the initial
        /// check stopped already retired.
        fn iterate<V: Value, I: Index>(
            solver: &Batched<V, I, Self>,
            x: &mut BatchDense<V>,
            r: BatchDense<V>,
            scratch: BatchDense<V>,
            st: &mut SystemStates,
        ) -> Result<()>;
    }
}
use sealed::{BatchMethod, SystemStates};

impl<V: Value, I: Index, M: BatchMethod> Batched<V, I, M> {
    /// Creates the solver over the given batch operator.
    pub fn new(op: Arc<BatchCsr<V, I>>) -> Result<Self> {
        if !op.size().is_square() {
            return Err(GkoError::BadInput(format!(
                "batched iterative solvers need square systems, got {}",
                op.size()
            )));
        }
        let exec_events = op.executor().loggers().clone();
        Ok(Batched {
            op,
            criteria: Criteria::default(),
            events: LoggerRegistry::new(),
            exec_events,
            method: PhantomData,
        })
    }

    /// Sets the stopping criteria (applied per system).
    pub fn with_criteria(mut self, criteria: Criteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Attaches a logger observing this solver's events.
    pub fn add_logger(&self, logger: Arc<dyn Logger>) {
        self.events.add(logger);
    }

    /// A zeroed batch of one vector per system.
    fn vectors(&self) -> BatchDense<V> {
        let dim = Dim2::new(self.op.size().rows, 1);
        BatchDense::zeros(self.op.executor(), self.op.num_systems(), dim)
    }

    /// Solves `A[s] x[s] = b[s]` for every system; `x` holds the initial
    /// guesses on entry and the solutions on exit. Non-convergence is
    /// reported per system in the returned record, not as an error.
    ///
    /// Around the method's iterations: batch sizes (shapes are checked by
    /// the kernels), the `solver::*` frame, `r = b - A x`, its norms as the
    /// baselines, the initial `check(0, baseline, baseline)` that retires
    /// systems already converged (zero right-hand side) or poisoned
    /// (non-finite baseline), then the record and its event.
    pub fn apply_batch(
        &self,
        b: &BatchDense<V>,
        x: &mut BatchDense<V>,
    ) -> Result<BatchSolveRecord> {
        let s_count = self.op.num_systems();
        if b.num_systems() != s_count || x.num_systems() != s_count {
            return Err(GkoError::BadInput(format!(
                "batched solve: operator has {s_count} systems, b {} and x {}",
                b.num_systems(),
                x.num_systems()
            )));
        }
        let _solve_timer = OpTimer::new(self.op.executor(), M::NAME);

        let mut r = self.vectors();
        r.copy_from(b)?;
        let mut ax = self.vectors();
        self.op.apply_batch(x, &mut ax, None)?;
        r.axpy(&vec![-1.0; s_count], &ax, None)?;

        let mut baseline = vec![0.0; s_count];
        r.norms2(None, &mut baseline)?;
        let mut st = SystemStates::new(baseline);
        for s in 0..s_count {
            if let Some(reason) = self.criteria.check(0, st.baseline[s], st.baseline[s]) {
                st.finish(s, 0, st.baseline[s], reason);
            }
        }
        M::iterate(self, x, r, ax, &mut st)?;

        let record = st.into_record();
        if self.events.is_active() || self.exec_events.is_active() {
            let event = Event::BatchSolveCompleted {
                solver: M::NAME,
                systems: record.num_systems(),
                converged: record.converged_count(),
                breakdowns: record.breakdown_count(),
                iterations: record.max_iterations(),
            };
            self.events.log(&event);
            self.exec_events.log(&event);
        }
        Ok(record)
    }
}

/// Batched Conjugate Gradient for batches of SPD systems.
pub type BatchCg<V, I = i32> = Batched<V, I, BatchCgMethod>;

/// Batched CG's iterations (the method slot of [`BatchCg`]).
pub struct BatchCgMethod;

impl BatchMethod for BatchCgMethod {
    const NAME: &'static str = "solver::BatchCg";

    fn iterate<V: Value, I: Index>(
        solver: &Batched<V, I, Self>,
        x: &mut BatchDense<V>,
        mut r: BatchDense<V>,
        mut q: BatchDense<V>,
        st: &mut SystemStates,
    ) -> Result<()> {
        let op = &solver.op;
        let s_count = op.num_systems();
        let mut p = solver.vectors();
        p.copy_from(&r)?;
        let mut rho = vec![0.0; s_count];
        r.dots(&r, Some(&st.active), &mut rho)?;

        let mut pq = vec![0.0; s_count];
        let mut res = vec![0.0; s_count];
        let mut coeff = vec![0.0; s_count];
        let mut rho_new = vec![0.0; s_count];
        let mut iter = 0usize;
        while st.any_active() {
            iter += 1;
            op.apply_batch(&p, &mut q, Some(&st.active))?;
            p.dots(&q, Some(&st.active), &mut pq)?;
            st.break_down(iter, |s| {
                pq[s] == 0.0 || !pq[s].is_finite() || rho[s] == 0.0 || !rho[s].is_finite()
            });
            st.set(&mut coeff, |s| rho[s] / pq[s]);
            x.axpy(&coeff, &p, Some(&st.active))?;
            for c in coeff.iter_mut() {
                *c = -*c;
            }
            r.axpy(&coeff, &q, Some(&st.active))?;
            r.norms2(Some(&st.active), &mut res)?;
            st.check(&solver.criteria, iter, &res);
            if !st.any_active() {
                break;
            }
            r.dots(&r, Some(&st.active), &mut rho_new)?;
            st.set(&mut coeff, |s| rho_new[s] / rho[s]);
            st.set(&mut rho, |s| rho_new[s]);
            // p = r + beta * p
            p.scale_add(&r, &coeff, Some(&st.active))?;
        }
        Ok(())
    }
}

/// Batched BiCGStab for batches of general (unsymmetric) systems.
pub type BatchBiCgStab<V, I = i32> = Batched<V, I, BatchBiCgStabMethod>;

/// Batched BiCGStab's iterations (the method slot of [`BatchBiCgStab`]).
pub struct BatchBiCgStabMethod;

impl BatchMethod for BatchBiCgStabMethod {
    const NAME: &'static str = "solver::BatchBicgstab";

    fn iterate<V: Value, I: Index>(
        solver: &Batched<V, I, Self>,
        x: &mut BatchDense<V>,
        mut r: BatchDense<V>,
        mut v: BatchDense<V>,
        st: &mut SystemStates,
    ) -> Result<()> {
        let op = &solver.op;
        let s_count = op.num_systems();
        let r_tilde = r.clone();
        let mut p = solver.vectors();
        let mut s_vec = solver.vectors();
        let mut t = solver.vectors();

        let mut rho_old = vec![1.0f64; s_count];
        let mut alpha = vec![1.0f64; s_count];
        let mut omega = vec![1.0f64; s_count];
        let mut rho = vec![0.0; s_count];
        let mut denom = vec![0.0; s_count];
        let mut coeff = vec![0.0; s_count];
        let mut norms = vec![0.0; s_count];
        let mut tt = vec![0.0; s_count];
        let mut ts = vec![0.0; s_count];
        let mut half = vec![false; s_count];
        let mut half_reason: Vec<Option<StopReason>> = vec![None; s_count];
        let mut iter = 0usize;
        while st.any_active() {
            iter += 1;
            r_tilde.dots(&r, Some(&st.active), &mut rho)?;
            st.break_down(iter, |s| {
                rho[s] == 0.0 || omega[s] == 0.0 || !rho[s].is_finite()
            });
            if !st.any_active() {
                break;
            }
            if iter == 1 {
                p.copy_from(&r)?;
            } else {
                // p = r + beta * (p - omega * v)
                st.set(&mut coeff, |s| -omega[s]);
                p.axpy(&coeff, &v, Some(&st.active))?;
                st.set(&mut coeff, |s| {
                    (rho[s] / rho_old[s]) * (alpha[s] / omega[s])
                });
                p.scale_add(&r, &coeff, Some(&st.active))?;
            }
            op.apply_batch(&p, &mut v, Some(&st.active))?;
            r_tilde.dots(&v, Some(&st.active), &mut denom)?;
            st.break_down(iter, |s| denom[s] == 0.0 || !denom[s].is_finite());
            st.set(&mut alpha, |s| rho[s] / denom[s]);
            // s = r - alpha * v
            s_vec.copy_from(&r)?;
            st.set(&mut coeff, |s| -alpha[s]);
            s_vec.axpy(&coeff, &v, Some(&st.active))?;
            s_vec.norms2(Some(&st.active), &mut norms)?;

            // Half-step check: early convergence (or Breakdown on a
            // non-finite norm) accepts the half-step update x += alpha p,
            // exactly as in the single-system solver.
            for s in 0..s_count {
                half_reason[s] = st.active[s]
                    .then(|| solver.criteria.check(iter, norms[s], st.baseline[s]))
                    .flatten()
                    .filter(|&reason| reason != StopReason::MaxIterations);
                half[s] = half_reason[s].is_some();
            }
            if half.contains(&true) {
                x.axpy(&alpha, &p, Some(&half))?;
                for s in 0..s_count {
                    if let Some(reason) = half_reason[s] {
                        st.finish(s, iter, norms[s], reason);
                    }
                }
            }
            if !st.any_active() {
                break;
            }

            op.apply_batch(&s_vec, &mut t, Some(&st.active))?;
            t.dots(&t, Some(&st.active), &mut tt)?;
            st.break_down(iter, |s| tt[s] == 0.0 || !tt[s].is_finite());
            t.dots(&s_vec, Some(&st.active), &mut ts)?;
            st.set(&mut omega, |s| ts[s] / tt[s]);
            // x += alpha * p + omega * s
            x.axpy(&alpha, &p, Some(&st.active))?;
            x.axpy(&omega, &s_vec, Some(&st.active))?;
            // r = s - omega * t (inactive systems' r is never read again,
            // so the unmasked copy is harmless)
            r.copy_from(&s_vec)?;
            st.set(&mut coeff, |s| -omega[s]);
            r.axpy(&coeff, &t, Some(&st.active))?;
            r.norms2(Some(&st.active), &mut norms)?;
            st.check(&solver.criteria, iter, &norms);
            st.set(&mut rho_old, |s| rho[s]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linop::LinOp;
    use crate::matrix::csr::Csr;
    use crate::matrix::dense::Dense;
    use crate::solver::{BiCgStab, Cg};
    use crate::Executor;

    /// SPD tridiagonal with a per-system diagonal shift.
    fn spd(exec: &Executor, n: usize, shift: f64) -> Csr<f64, i32> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0 + shift));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    /// Unsymmetric tridiagonal-ish with a per-system diagonal shift.
    fn unsym(exec: &Executor, n: usize, shift: f64) -> Csr<f64, i32> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 5.0 + shift));
            if i > 0 {
                t.push((i, i - 1, -2.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    type SharedBatch = (Arc<BatchCsr<f64, i32>>, Vec<Csr<f64, i32>>);

    fn shared_batch(
        exec: &Executor,
        n: usize,
        s: usize,
        make: impl Fn(&Executor, usize, f64) -> Csr<f64, i32>,
    ) -> SharedBatch {
        let singles: Vec<Csr<f64, i32>> = (0..s).map(|k| make(exec, n, k as f64 * 0.5)).collect();
        let vals: Vec<Vec<f64>> = singles.iter().map(|m| m.values().to_vec()).collect();
        let batch = Arc::new(BatchCsr::from_shared(&singles[0], &vals).unwrap());
        (batch, singles)
    }

    fn rhs(exec: &Executor, n: usize, s: usize) -> BatchDense<f64> {
        let mut b = BatchDense::zeros(exec, s, Dim2::new(n, 1));
        for k in 0..s {
            for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                *v = 1.0 + (i % 3) as f64 + k as f64 * 0.1;
            }
        }
        b
    }

    #[test]
    fn batch_cg_matches_single_cg_per_system() {
        let exec = Executor::reference();
        let (n, s) = (24, 5);
        let (batch, singles) = shared_batch(&exec, n, s, spd);
        let criteria = Criteria::iterations_and_reduction(200, 1e-10);
        let b = rhs(&exec, n, s);
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let record = BatchCg::new(batch)
            .unwrap()
            .with_criteria(criteria)
            .apply_batch(&b, &mut x)
            .unwrap();
        assert!(record.all_converged(), "{record:?}");

        for (k, single) in singles.iter().enumerate() {
            let solver = Cg::new(Arc::new(single.clone()))
                .unwrap()
                .with_criteria(criteria);
            let bd = Dense::from_vec(&exec, Dim2::new(n, 1), b.system(k).to_vec()).unwrap();
            let mut xd = Dense::zeros(&exec, Dim2::new(n, 1));
            solver.apply(&bd, &mut xd).unwrap();
            let rec = solver.logger().snapshot();
            assert_eq!(
                record.outcomes[k].iterations, rec.iterations,
                "system {k} must take the same iterations as single CG"
            );
            for (i, (&got, &want)) in x.system(k).iter().zip(xd.to_host_vec().iter()).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "system {k} row {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn batch_bicgstab_matches_single_bicgstab_per_system() {
        let exec = Executor::reference();
        let (n, s) = (20, 4);
        let (batch, singles) = shared_batch(&exec, n, s, unsym);
        let criteria = Criteria::iterations_and_reduction(300, 1e-10);
        let b = rhs(&exec, n, s);
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let record = BatchBiCgStab::new(batch)
            .unwrap()
            .with_criteria(criteria)
            .apply_batch(&b, &mut x)
            .unwrap();
        assert!(record.all_converged(), "{record:?}");

        for (k, single) in singles.iter().enumerate() {
            let solver = BiCgStab::new(Arc::new(single.clone()))
                .unwrap()
                .with_criteria(criteria);
            let bd = Dense::from_vec(&exec, Dim2::new(n, 1), b.system(k).to_vec()).unwrap();
            let mut xd = Dense::zeros(&exec, Dim2::new(n, 1));
            solver.apply(&bd, &mut xd).unwrap();
            let rec = solver.logger().snapshot();
            assert_eq!(record.outcomes[k].iterations, rec.iterations, "system {k}");
            for (&got, &want) in x.system(k).iter().zip(xd.to_host_vec().iter()) {
                assert!((got - want).abs() < 1e-8, "system {k}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn zero_rhs_system_converges_at_iteration_zero_inside_batch() {
        let exec = Executor::reference();
        let (n, s) = (16, 3);
        let (batch, _) = shared_batch(&exec, n, s, spd);
        let mut b = rhs(&exec, n, s);
        for v in b.system_mut(1) {
            *v = 0.0;
        }
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let record = BatchCg::new(batch)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(100, 1e-8))
            .apply_batch(&b, &mut x)
            .unwrap();
        assert_eq!(record.outcomes[1].iterations, 0);
        assert_eq!(
            record.outcomes[1].stop_reason,
            StopReason::ResidualReduction
        );
        assert!(x.system(1).iter().all(|&v| v == 0.0));
        // The zero system must not have stalled its batchmates.
        assert!(record.outcomes[0].converged());
        assert!(record.outcomes[2].converged());
        assert!(record.outcomes[0].iterations > 0);
    }

    #[test]
    fn poisoned_system_breaks_down_alone() {
        let exec = Executor::reference();
        let (n, s) = (16, 3);
        let (batch, _) = shared_batch(&exec, n, s, spd);
        let mut b = rhs(&exec, n, s);
        b.system_mut(2)[4] = f64::NAN;
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let record = BatchCg::new(batch)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(100, 1e-8))
            .apply_batch(&b, &mut x)
            .unwrap();
        assert_eq!(record.outcomes[2].stop_reason, StopReason::Breakdown);
        assert_eq!(record.outcomes[2].iterations, 0);
        assert!(record.outcomes[0].converged(), "{record:?}");
        assert!(record.outcomes[1].converged(), "{record:?}");
        assert_eq!(record.breakdown_count(), 1);
        // The poisoned system's solution slot was never touched past the
        // initial state.
        assert!(x.system(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_limit_is_respected_per_system() {
        let exec = Executor::reference();
        let (n, s) = (32, 3);
        let (batch, _) = shared_batch(&exec, n, s, spd);
        let b = rhs(&exec, n, s);
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let record = BatchCg::new(batch)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(2, 1e-14))
            .apply_batch(&b, &mut x)
            .unwrap();
        for o in &record.outcomes {
            assert_eq!(o.stop_reason, StopReason::MaxIterations);
            assert_eq!(o.iterations, 2);
        }
        assert_eq!(record.max_iterations(), 2);
        assert!(!record.all_converged());
    }

    #[test]
    fn batch_event_is_emitted_with_outcome_counts() {
        use std::sync::Mutex;
        struct Capture(Mutex<Vec<String>>);
        impl Logger for Capture {
            fn on_event(&self, event: &Event) {
                if let Event::BatchSolveCompleted { .. } = event {
                    self.0.lock().unwrap().push(event.to_string());
                }
            }
        }
        let exec = Executor::reference();
        let (n, s) = (12, 3);
        let (batch, _) = shared_batch(&exec, n, s, spd);
        let solver = BatchCg::new(batch)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(200, 1e-10));
        let capture = Arc::new(Capture(Mutex::new(vec![])));
        solver.add_logger(capture.clone());
        let b = rhs(&exec, n, s);
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        solver.apply_batch(&b, &mut x).unwrap();
        let events = capture.0.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].contains("3 systems (3 converged, 0 breakdowns)"),
            "{}",
            events[0]
        );
    }

    #[test]
    fn non_square_batch_is_rejected() {
        let exec = Executor::reference();
        let rect = Csr::<f64, i32>::from_triplets(
            &exec,
            Dim2::new(3, 4),
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
        )
        .unwrap();
        let batch = Arc::new(BatchCsr::replicated(&rect, 4).unwrap());
        assert!(BatchCg::new(batch.clone()).is_err());
        assert!(BatchBiCgStab::new(batch).is_err());
    }
}
