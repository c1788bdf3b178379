"""Acceptance gate: ten end-to-end properties the library must satisfy.

Every test is numbered and self-contained; together they cover the closed
forms of the Brownian spectrum, Galerkin eigenvalue convergence, the
minimax rate of the tapered estimator, Weyl stability, the quarter-gap
theorem, the truncation and spectral-functional asymptotics, the planner
formulas, the Monte Carlo error decomposition, and byte-level artifact
reproducibility.  The stated tolerances are part of the contract; timed
checks assert their own wall-clock budgets.
"""

import hashlib
import math
import os
import shutil
import time
import types

import numpy as np

import reference
import support
from covrecon import cli, estimators, fields, mercer, planner, spectral


def test_criterion_01():
    """Brownian eigenvalue oracle reproduces the closed forms exactly."""
    oracle = fields.KlOracle(1)
    lam1, lam2 = oracle.eigenvalues(2)
    assert abs(lam1 - 4.0 / math.pi ** 2) <= 1e-12
    assert abs(lam2 - 4.0 / (9.0 * math.pi ** 2)) <= 1e-12
    assert abs(lam1 / (lam1 - lam2) - 9.0 / 8.0) <= 1e-12, \
        "lambda_1 over the first spectral gap must equal 9/8"


def test_criterion_02():
    """Galerkin eigenvalues converge monotonically with order >= 1.5 in h."""
    start = time.perf_counter()
    oracle = fields.KlOracle(1)
    exact = oracle.eigenvalues(5)
    ns = [8, 16, 32, 64, 128]
    devs = []
    for n in ns:
        *_, spec = support.brownian_setup(1, n)
        devs.append(np.abs(spec.eigenvalues[:5] - exact))
    devs = np.array(devs)
    assert np.all(np.diff(devs, axis=0) < 0.0), \
        "every mode's eigenvalue error must shrink at each refinement"
    hs = 1.0 / np.array(ns, dtype=float)
    for l in range(5):
        order = reference.loglog_slope(hs, devs[:, l])
        assert order >= 1.5, \
            "mode %d converges with empirical order %.3f < 1.5" % (l + 1,
                                                                   order)
    assert devs[-1, 0] <= 1e-4, \
        "lambda_1 on the n=128 mesh must sit within 1e-4 of 4/pi^2"
    assert time.perf_counter() - start <= 10.0


def _decay_sigma(Q):
    """A covariance with off-diagonal tails (1+|j-k|)^-2 (decay alpha=1)."""
    idx = np.arange(Q)
    return (1.0 + np.abs(idx[:, None] - idx[None, :])) ** -2.0


def _gaussian_batch(rng, M, chol):
    coeffs = rng.standard_normal((M, chol.shape[0])) @ chol.T
    return types.SimpleNamespace(coeffs=coeffs, sample_count=M)


def test_criterion_03():
    """The tapered estimator attains the M^{-2/3} rate; the MLE pays Q."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    Q = 256
    sigma = _decay_sigma(Q)
    chol = np.linalg.cholesky(sigma)
    Ms = [250, 500, 1000, 2000, 4000]
    mean_sq = []
    for M in Ms:
        errs = []
        for rep in range(20):
            cov = estimators.band_taper(_gaussian_batch(rng, M, chol), 1.0)
            errs.append(spectral.operator_norm(cov.matrix - sigma) ** 2)
        mean_sq.append(float(np.mean(errs)))
    m_slope = reference.loglog_slope(np.array(Ms, float), np.array(mean_sq))
    assert abs(m_slope - (-2.0 / 3.0)) <= 0.15, \
        "tapered squared-error slope in M is %.3f, want -2/3 +- 0.15" \
        % (m_slope,)
    M = 2000
    qs = [64, 128, 256]
    mle_sq = []
    for q in qs:
        sub = _decay_sigma(q)
        sub_chol = np.linalg.cholesky(sub)
        errs = []
        for rep in range(20):
            cov = estimators.mle_covariance(_gaussian_batch(rng, M, sub_chol))
            errs.append(spectral.operator_norm(cov.matrix - sub) ** 2)
        mle_sq.append(float(np.mean(errs)))
    q_slope = reference.loglog_slope(np.array(qs, float), np.array(mle_sq))
    assert abs(q_slope - 1.0) <= 0.2, \
        "untapered squared-error slope in Q_h is %.3f, want 1 +- 0.2" \
        % (q_slope,)
    assert time.perf_counter() - start <= 120.0


def test_criterion_04():
    """Weyl's inequality holds across >= 10^4 random eigenvalue comparisons."""
    rng = np.random.default_rng(103)
    Q = 40
    mass = reference.IdentityMass(Q)
    comparisons = 0
    worst = -np.inf
    for pair in range(300):
        A = reference.random_symmetric(rng, Q)
        E = reference.random_symmetric(rng, Q,
                                       scale=10.0 ** rng.uniform(-6.0, 1.0))
        sa = spectral.eigensolve(A, mass, Q)
        sb = spectral.eigensolve(A + E, mass, Q)
        dev = np.abs(sa.eigenvalues - sb.eigenvalues)
        worst = max(worst, float(np.max(dev) - np.linalg.norm(E, 2)))
        comparisons += Q
    assert comparisons >= 10 ** 4
    assert worst <= 1e-10, \
        "an eigenvalue moved %g beyond the perturbation operator norm" \
        % (worst,)


def test_criterion_05():
    """Whenever the gap condition passes, the mixed gap keeps a quarter
    of the continuous gap -- zero violations over 20 seeded runs, and the
    condition itself holds at mode 1 every time (the check is not vacuous)."""
    field, space, mass, _, s_exact, spec = support.brownian_setup(1, 32)
    exact = support.exact_side(1, 32)
    passing_modes = 0
    for seed in range(20):
        batch = fields.draw_batch(field, space, 10_000, seed=seed)
        cov = estimators.mle_covariance(batch)
        s_est = spectral.transform(cov, mass)
        est = spectral.eigensolve(s_est, mass, 3)
        diag = spectral.diagnostics(spec, est, s_exact, s_est,
                                    exact.covariance, cov.matrix, field, 3,
                                    C1=1.3e-3)
        assert diag.theorem_consistent, \
            "seed %d: quarter-gap failed under a passing condition" % (seed,)
        assert diag.gap_condition_per_ell[0], \
            "seed %d: the mode-1 gap condition must hold" % (seed,)
        passing_modes += int(np.sum(diag.gap_condition_per_ell))
    assert passing_modes >= 20


def test_criterion_06():
    """The truncation error falls like L^{-3/2} on the Brownian tail."""
    oracle = fields.KlOracle(1)
    Ls = np.arange(2, 33)
    e1 = np.array([math.sqrt(oracle.tail_sq(int(L))) for L in Ls])
    slope = reference.loglog_slope(Ls.astype(float), e1)
    assert abs(slope - (-1.5)) <= 0.05, \
        "truncation slope is %.4f, want -1.5 +- 0.05" % (slope,)


def test_criterion_07():
    """G^2 grows like L^3 and H falls like L^-6; G^2(1) = 81/64 exactly."""
    p = planner.brownian_profile()
    Ls = np.arange(8, 129)
    g_sq = np.array([planner.g_of_l(p, int(L)) ** 2 for L in Ls])
    h_vals = np.array([planner.h_of_l(p, int(L)) for L in Ls])
    g_slope = reference.loglog_slope(Ls.astype(float), g_sq)
    h_slope = reference.loglog_slope(Ls.astype(float), h_vals)
    assert abs(g_slope - 3.0) <= 0.2, "G^2 slope %.3f" % (g_slope,)
    assert abs(h_slope - (-6.0)) <= 0.3, "H slope %.3f" % (h_slope,)
    assert abs(planner.g_of_l(p, 1) ** 2 - 81.0 / 64.0) <= 1e-12


def test_criterion_08():
    """Planner formulas: the truncation-rank table and the argmin property
    of every integer sample-count threshold."""
    for eps, want in ((0.5, 2), (0.1, 5), (0.01, 22)):
        assert planner.truncation_rank(eps, 1, 0.5) == want, \
            "L(%g) must be %d" % (eps, want)
    p = planner.brownian_profile()
    alpha = 1.0
    for L, eps in ((2, 0.5), (5, 0.1), (2, 0.25), (5, 0.3)):
        rhoH = p.calibration["rho1"] * planner.h_of_l(p, L)
        const = 0.5 * math.log(L) - math.log(eps)
        m_bar = planner._threshold_bar(L, eps, alpha, rhoH)
        bar = lambda M: const + math.log(M) / 3.0 - M * rhoH <= 0.0
        assert bar(m_bar), "M_bar must satisfy its inequality"
        assert m_bar == 1 or not bar(m_bar - 1), \
            "M_bar - 1 must violate it (L=%d, eps=%g)" % (L, eps)
        m_prime = planner._threshold_prime(L, eps, alpha, rhoH)
        prime = lambda M: const - M * rhoH + M ** (1.0 / 3.0) <= 0.0
        assert prime(m_prime)
        assert m_prime == 1 or not prime(m_prime - 1)
        b = 3.0 * rhoH
        closed = -reference.lambert_wm1(-b * (eps / math.sqrt(L)) ** 3) / b
        assert abs(m_bar - math.ceil(closed)) <= 1, \
            "the product-log closed form must agree within one integer"
    assert planner._threshold_hat(alpha) == 1


def test_criterion_09():
    """At fixed (L=3, n=32) the mean sampling error falls strictly in M,
    and every replication satisfies the triangle decomposition."""
    start = time.perf_counter()
    cfg = support.make_config(ns=[32], Ms=[500, 2000, 8000], Ls=[3],
                              n_rep=20, seed=0)
    rows = mercer.expected_error_study(cfg)
    assert all(r.ok for r in rows), \
        "failed cells: %r" % ([r.error for r in rows if not r.ok],)
    e3 = [r.mean_e3 for r in rows]
    assert e3[0] > e3[1] > e3[2], \
        "mean_e3 must fall strictly across M=500,2000,8000: %r" % (e3,)
    for r in rows:
        assert r.mean_total <= r.mean_e1 + r.mean_e2 + r.mean_e3 + 1e-8, \
            "averaged triangle inequality violated at M=%d" % (r.M,)
    assert time.perf_counter() - start <= 300.0


def test_criterion_10(tmp_path):
    """Re-running any command with the same config and seed reproduces
    every primary artifact byte for byte (sidecars carry the clock)."""
    out = str(tmp_path / "run")
    text = (
        "field:\n  kind: brownian\n  d: 1\n"
        "sampling:\n  mode: nodal\n"
        "estimator:\n  kind: MLE\n"
        "study:\n  ns: [4]\n  Ms: [10, 20]\n  Ls: [2]\n  n_rep: 2\n"
        "quadrature:\n  q: 2\nseed: 1\noutput: %s\n" % (out,))
    path = support.write_yaml(tmp_path / "cfg.yaml", text)

    def digests():
        return {os.path.relpath(p, out):
                hashlib.sha256(support.read_file_bytes(p)).hexdigest()
                for p in support.primary_artifacts(out)}

    assert cli.main(["reconstruct", "--config", path]) == 0
    assert cli.main(["study", "--config", path]) == 0
    first = digests()
    assert len(first) >= 8, "expected a full artifact tree, got %r" % (first,)
    shutil.rmtree(out)
    assert cli.main(["reconstruct", "--config", path]) == 0
    assert cli.main(["study", "--config", path, "--workers", "2"]) == 0
    assert digests() == first, \
        "same-seed reruns (and a worker pool) must be byte-identical"
