"""Truncated Mercer reconstruction and the three-way error decomposition.

A rank-L spectrum on a finite element space defines the kernel
K(x, x') = sum_{l<=L} lambda_l (Phi_l . theta(x)) (Phi_l . theta(x')).
The distance of an estimated reconstruction to the analytic covariance
splits into truncation (e1), spatial discretization (e2) and sampling (e3)
parts, all measured in L2 of the product domain and computed exactly from
closed forms that the field owns (fields.KlOracle); none is evaluated here.
error_decomposition(exact, spectrum, L) splits an estimated spectrum's
error against the ExactSide of its mesh, which keeps e1 and e2 per L.

A StudyConfig becomes pipeline calls here only: ExactSide is the
sample-free half of a replication on one mesh and replicate the rest.
reconstruct runs one replication; expected_error_study runs them over a
(L, h, M) grid, mesh by mesh, into one CellResult per cell.  Replication r
on mesh i draws the largest M once, with the seed derived from
SeedSequence(seed, spawn_key=(i, r)), and every (L, M) cell on the mesh
reads its first M samples.  Cells on one mesh are paired (common random
numbers), cells on different meshes independent, and no number depends on
execution order or worker scheduling.
"""

import collections
import functools
import math

import numpy as np

from . import estimators, fem, fields, planner, spectral
from .errors import ConfigError, NumericError

_NEAR_DEGENERATE_REL = 1e-8
# ExactSide holds an axis operator as the matrix it applies below this many
# nodes per axis, and as its O(n) action from there on.  Best of five on one
# CPU of a Xeon VM (OpenBLAS, one thread), one application of S-tilde_exact
# to a vector, matrix against action: 1.9 against 18 us at 1D n=32, 10 against
# 19 us at n=256 and 61 against 22 us at n=512; in 2D 9.8 against 66 us at
# n=32 and 378 against 411 us at n=128.  Below the switch the matrix takes
# under 128 KB.
_AXIS_MATRIX_MAX_NODES = 128


class ErrorReport:
    """Three-way L2(DxD) error split of a truncated reconstruction.

    e1: analytic truncation tail; e2: spatial discretization; e3: sampling.
    triangle_slack = total - (e1 + e2 + e3) must stay below roundoff
    tolerance.  near_degenerate_split flags rank windows whose per-mode
    attribution is unreliable because neighboring eigenvalues nearly
    coincide; the total remains valid.
    """

    def __init__(self, e1, e2, e3, total, near_degenerate_split):
        if not min(e1, e2, e3, total) >= 0.0:
            raise ValueError("error components must be >= 0")
        self.e1 = e1
        self.e2 = e2
        self.e3 = e3
        self.total = total
        self.triangle_slack = total - (e1 + e2 + e3)
        if self.triangle_slack > 1e-8:
            raise NumericError(
                "triangle inequality violated: total %.6e > e1+e2+e3 %.6e"
                % (total, e1 + e2 + e3))
        self.near_degenerate_split = near_degenerate_split


def error_decomposition(exact, est_spec, L):
    """Split the reconstruction error of an estimated rank-L kernel, exactly.

    exact is the ExactSide of the mesh that est_spec lives on.  With
    analytic eigenvalues lambda_l of its field (a fields.KlOracle), exact
    discrete (mu_m, Phi_m) and estimated (mu^_m, Phi^_m), l, m <= L, and
    Phi~ = (L^G)^T Phi (where a P1 kernel's L2 norm is a Frobenius norm):

      e1^2    = sum_{l>L} lambda_l^2                        (ExactSide.e1)
      e2^2    = ||k_L - sum mu Phi (x) Phi||^2              (ExactSide.e2)
      e3^2    = ||sum mu Phi~ Phi~^T - sum mu^ Phi^~ Phi^~^T||_F^2
              = ||diag(mu) - C E C^T||_F^2 + 2 tr(C E H E C^T) + tr(E H E H)
      total^2 = ||k||^2 - 2 sum mu^_m Phi^_m^T B Phi^_m + ||mu^||^2

    with k_L the rank-L truncated KL kernel, ||k||^2 = field.sum_sq_total()
    and B the kernel load form (field.kernel_forms), never formed.  e3 splits
    Phi^~ = Phi~ C + P with Phi~^T P = 0 (block Gram-Schmidt, run twice),
    E = diag(mu^) and H = P^T P: its three terms are the Frobenius norms of
    the blocks of the difference on span(Phi~) and its complement, each a
    sum of squares from L x L matrices, so e3 takes no Q_h x Q_h product
    and, apart from diag(mu) - C E C^T, no difference of large terms.  It
    is exactly 0.0 when est_spec is the exact spectrum itself.  Every term
    is a sum of dyads lambda phi (x) phi, so eigenvector signs drop out.  e1
    and e2 depend on the mesh and L alone, and the exact side keeps them
    per L; its e2 checks 1 <= L <= Q_h before any spectrum is read.
    """
    if est_spec.dof_count != exact.space.dof_count:
        raise ValueError("spectra live on different spaces: %d vs %d dofs"
                         % (exact.space.dof_count, est_spec.dof_count))
    e2, e1 = exact.e2(L), exact.e1(L)  # e2 checks L first
    field, lam = exact.field, exact.spectrum.eigenvalues
    mu, mu_est = lam[:L], est_spec.eigenvalues[:L]
    if est_spec is exact.spectrum:
        e3 = 0.0
    else:
        V = exact.spectrum.tilde_vectors[:, :L]
        W = est_spec.tilde_vectors[:, :L]
        C = V.T @ W
        P = W - V @ C
        C2 = V.T @ P
        P -= V @ C2
        C += C2
        CE, H = C * mu_est, P.T @ P
        # the last term is a sum of squares too (||P E P^T||_F^2), so below
        # 0 only by roundoff of an estimate equal to the exact spectrum
        e3 = math.sqrt(max(np.sum((np.diag(mu) - CE @ C.T) ** 2)
                           + 2.0 * np.sum((CE @ H) * CE)
                           + np.sum(np.outer(mu_est, mu_est) * H ** 2), 0.0))
    forms = field.kernel_forms(exact.space, est_spec.gen_vectors[:, :L])
    total = float(np.sqrt(field.sum_sq_total() - 2.0 * forms @ mu_est
                          + mu_est @ mu_est))  # rank L: total >= e1 > 0

    upper = min(L + 1, lam.size)
    min_gap = float(np.min(lam[:upper - 1] - lam[1:upper])) if upper > 1 else np.inf
    near_degenerate = bool(min_gap < _NEAR_DEGENERATE_REL * lam[0])
    return ErrorReport(e1, e2, e3, total, near_degenerate)


# ---------------------------------------------------------------------------
# one replication


class ExactSide:
    """The sample-free half of a replication on the n-element mesh, with the
    k leading exact discrete pairs.

    field is the Brownian field of dimension d (a fields.KlOracle), which
    owns every closed form read here.  mass, covariance (the exact nodal
    covariance), sigma and s_exact are built on first use.  The nodal
    covariance is the d-th Kronecker power of Sigma1, the covariance on one
    axis, held as its action (field.axis_covariance_action) and applied
    along every axis (spectral.KroneckerOperator).  So s_exact is the d-th
    power of S-tilde1 = L1^T Sigma1 L1, held as its action on the bands of
    L1, and spectrum the d-th Kronecker power of the axis pairs
    (field.exact_axis_pairs, spectral.kronecker_power): no eigensolve is
    run.  On a short axis both actions are replaced by their axis matrices
    (_axis_operator).  spectrum keeps every eigenvalue and the k leading
    vectors.  The only Q_h x Q_h array formed here is sigma, which only the
    Exact estimate reads; in 1D with k <= n, everything else takes O(n)
    memory from _AXIS_MATRIX_MAX_NODES nodes on.  e1 and e2 are kept per L,
    and lambda1_dev per mesh.
    """

    def __init__(self, d, n, k):
        self.field = fields.KlOracle(d)
        self.space = fem.build_space(d, n)
        if not 1 <= k <= self.space.dof_count:
            raise ValueError("k must lie in [1, %d], got %r"
                             % (self.space.dof_count, k))
        self.k = k
        self._e1 = {}
        self._e2 = {}

    @functools.cached_property
    def mass(self):
        return fem.assemble_mass(self.space)

    def _axis_operator(self, action):
        """An axis action as spectral.KroneckerOperator holds it: the action
        itself, or, on an axis of fewer than _AXIS_MATRIX_MAX_NODES nodes,
        the product with the matrix it applies, formed once and symmetrized.
        There one small product is faster than the action's numpy calls,
        and operator_norm densifies the operator on every call below its
        Lanczos switch."""
        m = self.space.mesh.elements_per_axis + 1
        if m >= _AXIS_MATRIX_MAX_NODES:
            return action
        A = action(np.eye(m)[None])[0]
        return functools.partial(np.matmul, 0.5 * (A + A.T))

    @functools.cached_property
    def covariance(self):
        return spectral.KroneckerOperator(
            self._axis_operator(self.field.axis_covariance_action), self.space)

    @functools.cached_property
    def sigma(self):
        # The Kronecker power of min(x_i, x_j) on the mesh nodes, bit for
        # bit, which the Exact estimate writes.  The covariance's action
        # computes min(i, j) / n, which differs from these np.linspace
        # nodes by an ulp at most n that are not powers of two, so it does
        # not form sigma.
        axis = self.field.axis_covariance(self.space.mesh.axis_nodes)
        return self.space.along_axes(functools.partial(np.matmul, axis),
                                     np.eye(self.space.dof_count))

    @functools.cached_property
    def s_exact(self):
        return spectral.KroneckerOperator(self._axis_operator(
            self.mass.axis_congruence(self.field.axis_covariance_action)),
            self.space)

    @functools.cached_property
    def spectrum(self):
        return spectral.kronecker_power(
            *self.field.exact_axis_pairs(self.mass.axis, self.k), self.mass,
            self.k)

    @functools.cached_property
    def lambda1_dev(self):
        return self.field.lambda1_dev(self.space.mesh.elements_per_axis)

    def e1(self, L):
        """Truncation error sqrt(field.tail_sq(L))."""
        if L not in self._e1:
            self._e1[L] = float(np.sqrt(self.field.tail_sq(L)))
        return self._e1[L]

    def e2(self, L):
        """Discretization error sqrt(field.e2_sq(n, L)), for 1 <= L <= k."""
        if not 1 <= L <= self.k:
            raise ValueError("truncation rank L=%r must lie in [1, %d] (the "
                             "exact vectors kept)" % (L, self.k))
        if L not in self._e2:
            self._e2[L] = float(np.sqrt(max(self.field.e2_sq(
                self.space.mesh.elements_per_axis, L), 0.0)))
        return self._e2[L]


def draw(config, exact, M, seed):
    """M samples of the field on the exact side's mesh, as configured."""
    return fields.draw_batch(exact.field, exact.space, M, mode=config.mode,
                             seed=seed, kl_trunc=config.kl_trunc)


def _estimate_batch(config, batch):
    """The configured sample estimate (MLE or Tapered) of a batch."""
    alpha = config.alpha if config.estimator == "Tapered" else None
    return estimators.estimate_covariance(batch, alpha=alpha)


def estimate(config, exact, M, seed):
    """(batch, estimate) as configured; Exact draws nothing (batch None)."""
    if config.estimator == "Exact":
        return None, estimators.TaperedCovariance(
            exact.sigma, tau=0, alpha=None, estimator_kind="Exact", M=0)
    batch = draw(config, exact, M, seed)
    return batch, _estimate_batch(config, batch)


def _diagnose(config, exact, s_est, cov_est, spec, k):
    cal = config.calibration
    return spectral.diagnostics(exact.spectrum, spec, exact.s_exact, s_est,
                                exact.covariance, cov_est, exact.field, k,
                                C1=cal["C1"], C=cal["C"], s=config.s)


def _estimated(config, exact, cov, k):
    """The spectrum of a covariance estimate, with every eigenvalue and the
    k leading eigenvectors, and its diagnostics at rank k.  It takes the
    estimate, not the batch, so that a batch no caller keeps is freed
    before the transform."""
    s_est = spectral.transform(cov, exact.mass)
    spec = spectral.eigensolve(s_est, exact.mass, k=k)
    return spec, _diagnose(config, exact, s_est, cov, spec, k)


Replication = collections.namedtuple(
    "Replication", "estimator tau M spectrum diagnostics errors")


def replicate(config, exact, M, L, seed):
    """Estimate from M samples drawn with seed, eigensolve, compare with the
    exact side and split the error at rank L.  The estimate's eigensolve
    finds every eigenvalue (the diagnostics read them all) and only the L
    leading eigenvectors (the error split reads no others).  The Exact
    estimator is the exact side itself: its covariance, s_exact and
    spectrum serve as the estimate, and nothing is drawn or formed.

    Returns a Replication with the estimate's kind, tau and M; neither the
    batch nor the covariance is kept, and the batch is freed once it is
    estimated.
    """
    if config.estimator == "Exact":
        kind, tau, m_est = "Exact", 0, 0
        spec = exact.spectrum
        diag = _diagnose(config, exact, exact.s_exact, exact.covariance,
                         spec, L)
    else:
        cov = _estimate_batch(config, draw(config, exact, M, seed))
        spec, diag = _estimated(config, exact, cov, L)
        kind, tau, m_est = cov.estimator_kind, cov.tau, cov.M
    return Replication(kind, tau, m_est, spec, diag,
                       error_decomposition(exact, spec, L))


def success_bound(config, exact, tau, M, L):
    """planner.p0_bound for a replication's tau (at least 2) and M.  It
    depends on no sample, so a study cell evaluates it once."""
    return planner.p0_bound(exact.field, config.calibration,
                            exact.space.dof_count, max(tau, 2), M, L)


# ---------------------------------------------------------------------------
# grid study


class CellResult(collections.namedtuple(
        "CellResult", "index L n M ok error mean_total mean_e1 mean_e2 "
        "mean_e3 stderr n_rep gap_fail_fraction p0 tau lambda1_dev",
        defaults=(None, np.nan, np.nan, np.nan, np.nan, np.nan, 0, np.nan,
                  np.nan, 0, np.nan))):
    """Aggregated replication results of one (L, h, M) study cell."""

    __slots__ = ()

    @property
    def h(self):
        return 1.0 / self.n

    def to_dict(self):
        return self._asdict()

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def rep_seed(base_seed, mesh_index, rep):
    """Derived integer seed of replication rep on mesh mesh_index, the
    position of its n in config.ns; every cell on the mesh reads it."""
    ss = np.random.SeedSequence(int(base_seed),
                                spawn_key=(int(mesh_index), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def study_cells(config):
    """The (L, n, M) grid of a study config in deterministic order."""
    cells = []
    idx = 0
    for L in config.Ls:
        for n in config.ns:
            for M in config.Ms:
                cells.append((idx, L, n, M))
                idx += 1
    return cells


class _Tally:
    """The replications that one task ran of one study cell, in rep order:
    the total and e3 errors and whether the gap condition held, or the
    message of the first failure; and the cell's sample-free values e1,
    e2, lambda1_dev, tau and p0."""

    def __init__(self):
        self.totals, self.e3s, self.gap_ok = [], [], []
        self.error = None
        self.e1 = self.e2 = self.lambda1_dev = self.tau = self.p0 = None


def _failure(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def run_mesh(config, mesh_index, cells, reps):
    """Replications reps (a range) of study cells on mesh config.ns[mesh_index].

    cells are (index, L, n, M) tuples of study_cells(config) on that mesh;
    the result is one _Tally per cell, in their order.  The mesh's ExactSide
    is built once.  Replication r draws the largest M of the cells still
    running, once, with the seed rep_seed(config.seed, mesh_index, r), and
    each M estimates from a view of the first M of those samples: by the
    sampling contract, the batch that seed draws for M.  Each M runs one
    transform, eigensolve and diagnostics at rank k = max(config.Ls) (of
    the grid, not of the cells asked for, so a resumed study computes the
    same bits; the config admits no L above the smallest mesh's Q_h); each
    L splits the error of that spectrum and reads the first L gap
    conditions.  One replication's batch and spectra are held at a time.

    A cell stops at its first failure.  A failed estimate, eigensolve or
    diagnostics (which read the exact side's covariance, s_exact and
    spectrum) fails the cells of its M, and a failed error split (which
    reads its e1 and e2) fails its own cell alone.
    """
    k = max(config.Ls)
    exact = ExactSide(config.d, config.ns[mesh_index], k)
    tallies = [_Tally() for _ in cells]
    for rep in reps:
        by_M = {}
        for tally, (_, L, _, M) in zip(tallies, cells):
            if tally.error is None:
                by_M.setdefault(M, []).append((L, tally))
        if not by_M:
            break
        _replicate_mesh(config, exact, by_M, k,
                        rep_seed(config.seed, mesh_index, rep))
    return tallies


def _replicate_mesh(config, exact, by_M, k, seed):
    """One replication of the running cells of a mesh, as (L, tally) pairs
    per M."""
    batch = draw(config, exact, max(by_M), seed)
    for M, group in by_M.items():
        _replicate_prefix(config, exact, batch.prefix(M), group, k)


def _replicate_prefix(config, exact, batch, group, k):
    """One replication of the cells (L, tally) of one M from its batch."""
    try:
        cov = _estimate_batch(config, batch)
        spec, diag = _estimated(config, exact, cov, k)
    except (ValueError, NumericError) as exc:
        for _, tally in group:
            tally.error = _failure(exc)
        return
    for L, tally in group:
        try:
            errors = error_decomposition(exact, spec, L)
            if tally.p0 is None:
                # the sample-free values, and tau and the estimate's M, which
                # do not depend on the samples
                tally.e1, tally.e2 = errors.e1, errors.e2
                tally.lambda1_dev = exact.lambda1_dev
                tally.tau = cov.tau
                tally.p0 = success_bound(config, exact, cov.tau, cov.M, L)
            tally.totals.append(errors.total)
            tally.e3s.append(errors.e3)
            tally.gap_ok.append(bool(np.all(diag.gap_condition_per_ell[:L])))
        except (ValueError, NumericError) as exc:
            tally.error = _failure(exc)


def _cell_result(cell, tallies, n_rep):
    """A study cell from its tallies in rep order: failed with the error of
    its lowest failing replication, if any."""
    index, L, n, M = cell
    for tally in tallies:
        if tally.error is not None:
            return CellResult(index, L, n, M, ok=False, error=tally.error)
    totals = [v for t in tallies for v in t.totals]
    e3s = [v for t in tallies for v in t.e3s]
    gap_fail = sum(not ok for t in tallies for ok in t.gap_ok)
    first = tallies[0]
    stderr = float(np.std(totals, ddof=1) / np.sqrt(len(totals))) \
        if len(totals) > 1 else 0.0
    return CellResult(index, L, n, M, ok=True,
                      mean_total=float(np.mean(totals)),
                      mean_e1=first.e1, mean_e2=first.e2,
                      mean_e3=float(np.mean(e3s)), stderr=stderr,
                      n_rep=n_rep, gap_fail_fraction=gap_fail / n_rep,
                      p0=first.p0, tau=first.tau,
                      lambda1_dev=first.lambda1_dev)


def expected_error_study(config, workers=1, cell_loader=None, cell_saver=None):
    """Run the full study grid, isolating failures to their cells.

    The config has checked the grid (every L at most the smallest mesh's
    Q_h), so every cell can run; a numeric failure of a mesh's exact side
    or of an estimate fails the cells that read it (see run_mesh).
    cell_loader(index) may return a previously completed CellResult to skip
    recomputation (resume); cell_saver(result) persists each finished cell,
    and is called mesh by mesh as soon as a mesh's last task returns, so a
    study interrupted on one mesh has saved the meshes before it.
    The cells still to compute run mesh by mesh (run_mesh), so that the
    cells of one mesh share each replication's samples: they are paired
    (common random numbers), while cells on different meshes are
    independent.  With workers > 1 a pool of at most one process per task
    runs each mesh as up to `workers` tasks of replication ranges, and each
    cell is aggregated here in rep order.  Seeds depend only on (config.seed,
    mesh index, rep), so neither the worker count nor a resume moves a number.
    Studies need a sampled estimator (MLE or Tapered).
    """
    if config.estimator == "Exact":
        raise ConfigError("estimator.kind: studies need MLE or Tapered, "
                          "not Exact")
    if config.n_rep < 2:
        raise ValueError("study needs n_rep >= 2, got %d" % (config.n_rep,))
    if workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (workers,))
    results = {}
    by_mesh = {}
    for cell in study_cells(config):
        prior = cell_loader(cell[0]) if cell_loader is not None else None
        if prior is not None and prior.ok:
            results[cell[0]] = prior
        else:
            by_mesh.setdefault(config.ns.index(cell[2]), []).append(cell)
    parts = min(workers, config.n_rep)
    bounds = [config.n_rep * j // parts for j in range(parts + 1)]
    tasks = [(config, i, cells, range(lo, hi))
             for i, cells in sorted(by_mesh.items())
             for lo, hi in zip(bounds, bounds[1:])]
    tallies = {}

    def save_meshes(runs):
        # a mesh is `parts` contiguous tasks: once its last one returns, its
        # cells are aggregated in rep order and saved
        for j, ((_, _, cells, _), run) in enumerate(zip(tasks, runs), 1):
            for cell, tally in zip(cells, run):
                tallies.setdefault(cell, []).append(tally)
            if j % parts == 0:
                for cell in cells:
                    res = _cell_result(cell, tallies.pop(cell), config.n_rep)
                    results[res.index] = res
                    if cell_saver is not None:
                        cell_saver(res)

    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the pool forks all its workers on the first task
        with ProcessPoolExecutor(min(workers, len(tasks))) as pool:
            save_meshes(pool.map(run_mesh, *zip(*tasks)))
    else:
        save_meshes(run_mesh(*task) for task in tasks)
    return [results[i] for i in sorted(results)]


def _loglog_slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if np.count_nonzero(keep) < 2:
        return float("nan"), int(np.count_nonzero(keep))
    slope = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]
    return float(slope), int(np.count_nonzero(keep))


# (quantity, grid axis, held parameters, value) of each study_rates row
_RATES = (("e1_vs_L", "L", ("n", "M"), "mean_e1"),
          ("lambda1_dev_vs_h", "h", ("L", "M"), "lambda1_dev"),
          ("e3_vs_M", "M", ("L", "n"), "mean_e3"))


def study_rates(results):
    """Regression slopes summarizing a study: e1 vs L, lambda_1 error vs h, e3 vs M.

    Each slope fits the values along its grid axis in the largest group of
    ok cells that hold the other two parameters fixed, the first such group
    in result order on a tie; rows are (quantity, slope, n_points).
    """
    ok = [r for r in results if r.ok]
    rows = []
    for quantity, axis, held, value in _RATES:
        groups = {}
        for r in ok:
            key = tuple(getattr(r, a) for a in held)
            groups.setdefault(key, {})[getattr(r, axis)] = getattr(r, value)
        pts = max(groups.values(), key=len, default={})
        xs = sorted(pts)
        rows.append((quantity,) + _loglog_slope(xs, [pts[x] for x in xs]))
    return rows
