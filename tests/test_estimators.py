"""Sample means, MLE and tapered covariances, decay class, rate helpers."""

import math
import tracemalloc

import numpy as np
import pytest

import reference
import support
from covrecon import bands, estimators, fem, fields, mercer, spectral


def _batch_from(space, coeffs, seed=0):
    return fields.SampleBatch(space, np.array(coeffs, dtype=float),
                              fields.MODE_NODAL, None, seed,
                              "BrownianMotion1D")


# ---------------------------------------------------------------------------
# mean and MLE
# ---------------------------------------------------------------------------

def test_sample_mean_basics():
    space = fem.build_space(1, 2)
    v = np.array([0.0, 1.0, -2.0])
    single = _batch_from(space, [v])
    assert np.array_equal(estimators.sample_mean(single), v)
    pair = _batch_from(space, [v, -v])
    assert np.array_equal(estimators.sample_mean(pair), np.zeros(3))


def test_sample_mean_concentrates():
    space = fem.build_space(1, 4)
    field = fields.KlOracle(1)
    M = 100_000
    batch = fields.draw_batch(field, space, M, seed=41)
    mean = estimators.sample_mean(batch)
    x = space.mesh.nodes[:, 0]
    assert mean[0] == 0.0
    assert np.all(np.abs(mean[1:]) <= 3.0 * np.sqrt(x[1:] / M)), \
        "sample mean exceeds 3 sigma of a centered Gaussian"


def test_mle_divisor_and_degenerate_batches():
    space = fem.build_space(1, 2)
    v = np.array([0.0, 1.0, 2.0])
    same = _batch_from(space, [v, v, v])
    cov = estimators.mle_covariance(same)
    assert np.array_equal(cov.matrix, np.zeros((3, 3))), \
        "identical samples must give the zero covariance"
    assert cov.estimator_kind == "MLE" and cov.tau == 0 and cov.M == 3
    flip = _batch_from(space, [v, -v])
    cov2 = estimators.mle_covariance(flip)
    # mean is zero, divisor M=2: (v v^T + v v^T) / 2 = v v^T exactly
    assert np.array_equal(cov2.matrix, np.outer(v, v))
    with pytest.raises(ValueError):
        estimators.mle_covariance(_batch_from(space, [v]))


def test_mle_operator_error_rate_in_m():
    # fixed Q: mean opnorm error of the MLE decays like M^{-1/2}
    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    sigma = mercer.ExactSide(1, 8, 1).sigma
    Ms = [500, 2000, 8000]
    means = []
    for i, M in enumerate(Ms):
        errs = [spectral.operator_norm(
            estimators.mle_covariance(
                fields.draw_batch(field, space, M, seed=100 + 10 * i + r)
            ).matrix - sigma) for r in range(10)]
        means.append(np.mean(errs))
    slope = reference.loglog_slope(Ms, means)
    assert abs(slope + 0.5) <= 0.15, \
        "MLE operator-error slope %.3f is not ~ -1/2" % slope


# ---------------------------------------------------------------------------
# taper weights and bandwidth selection
# ---------------------------------------------------------------------------

def test_tapering_weights_three_branches():
    assert estimators.tapering_weights(4, 0, 2) == 1.0
    assert estimators.tapering_weights(4, 0, 3) == 0.5
    assert estimators.tapering_weights(4, 0, 4) == 0.0
    assert estimators.tapering_weights(4, 7, 7) == 1.0
    for tau in (2, 6, 10):
        for dist in range(13):
            got = estimators.tapering_weights(tau, 0, dist)
            assert got == reference.taper_weight_brute(tau, dist), \
                "weight mismatch at tau=%d, offset %d" % (tau, dist)


def test_tapering_weights_vectorized_and_validated():
    idx = np.arange(9)
    W = estimators.tapering_weights(6, idx[:, None], idx[None, :])
    assert W.shape == (9, 9) and np.array_equal(W, W.T)
    assert np.all(np.diag(W) == 1.0)
    for bad in (0, -2, 3, 7):
        with pytest.raises(ValueError):
            estimators.tapering_weights(bad, 0, 1)


def test_taper_bandwidth_selection():
    space = fem.build_space(1, 100)
    field = fields.KlOracle(1)
    for M, tau in ((1000, 10), (100, 6), (200, 6), (2000, 14)):
        batch = fields.draw_batch(field, space, M, seed=M)
        cov = estimators.estimate_covariance(batch, alpha=1.0)
        assert cov.tau == tau, \
            "M=%d must select tau=%d, got %d" % (M, tau, cov.tau)
        assert cov.estimator_kind == "Tapered" and cov.alpha == 1.0
        assert reference.bandwidth(cov.matrix) <= tau - 1, \
            "entries at offsets >= tau must be exactly zero"
        assert np.array_equal(cov.matrix, cov.matrix.T)


def test_taper_small_matrix_returned_unchanged():
    field = fields.KlOracle(1)
    # Q=3 < 100^{1/3}=4.6: an undersized 1D batch gets its MLE
    batch = fields.draw_batch(field, fem.build_space(1, 2), 100, seed=1)
    out = estimators.estimate_covariance(batch, alpha=1.0)
    assert out.estimator_kind == "MLE" and out.matrix is out.operator
    assert np.array_equal(out.matrix,
                          estimators.mle_covariance(batch).matrix)
    # a 2D MLE with a huge sample count: Q=9 < M^{1/(2a+1)} leaves it
    # untouched
    batch = fields.draw_batch(fields.KlOracle(2), fem.build_space(2, 2), 8,
                              seed=1)
    mle = estimators.mle_covariance(batch)
    big = estimators.TaperedCovariance(mle.matrix.copy(), tau=0, alpha=None,
                                       estimator_kind="MLE", M=10 ** 6)
    out = estimators.taper(big, alpha=1.0, dim=2)
    assert out is big, "undersized matrices must pass through untapered"
    assert out.estimator_kind == "MLE"


def test_taper_clamps_to_matrix_size():
    # Q=9, M=614: raw bandwidth 614^{1/3}=8.50 rounds up to 10 > Q, so the
    # even clamp must fall back to 8
    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    batch = fields.draw_batch(field, space, 614, seed=2)
    cov = estimators.estimate_covariance(batch, alpha=1.0)
    assert cov.tau == 8, "expected clamped tau=8, got %d" % cov.tau


def test_taper_never_increases_magnitudes():
    space = fem.build_space(2, 8)
    batch = fields.draw_batch(fields.KlOracle(2), space, 200, seed=8)
    mle = estimators.mle_covariance(batch)
    tap = estimators.taper(mle, alpha=1.0, dim=2)
    assert tap.tau == 6
    assert np.all(np.abs(tap.matrix) <= np.abs(mle.matrix) + 1e-300), \
        "taper weights lie in [0, 1], entries cannot grow"
    with pytest.raises(ValueError):
        estimators.taper(mle, alpha=0.0, dim=2)
    with pytest.raises(ValueError):
        estimators.taper(mle, alpha=1.0, dim=1)
    batch = fields.draw_batch(fields.KlOracle(1), fem.build_space(1, 20),
                              200, seed=8)
    with pytest.raises(ValueError):
        estimators.estimate_covariance(batch, alpha=0.0)


def test_estimate_covariance_dispatch():
    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    batch = fields.draw_batch(field, space, 50, seed=3)
    assert estimators.estimate_covariance(batch).estimator_kind == "MLE"
    assert estimators.estimate_covariance(batch, alpha=1.0).estimator_kind \
        == "Tapered"


# ---------------------------------------------------------------------------
# theoretical rate and decay class
# ---------------------------------------------------------------------------

def test_a_study_tapers_as_a_standalone_taper(monkeypatch):
    # every replication of a study cell is the standalone taper of the MLE
    # of its draw, bit for bit, and the space it tapers on keeps no taper
    # state
    got = []
    estimate = estimators.estimate_covariance

    def recording(batch, alpha=None):
        cov = estimate(batch, alpha=alpha)
        got.append((batch.space, cov))
        return cov

    monkeypatch.setattr(estimators, "estimate_covariance", recording)
    cfg = support.make_config(estimator="Tapered", ns=[16], Ms=[200],
                              Ls=[2], n_rep=3)
    cell, = mercer.expected_error_study(cfg)
    assert cell.ok and cell.tau == 6, cell.error
    assert len(got) == cfg.n_rep
    exact = mercer.ExactSide(1, 16, 2)
    fresh = set(vars(fem.build_space(1, 16)))
    for rep, (space, cov) in enumerate(got):
        batch = mercer.draw(cfg, exact, 200, mercer.rep_seed(0, 0, rep))
        alone = estimate(batch, 1.0)
        assert isinstance(cov.operator, bands.SymmetricBand)
        assert np.array_equal(cov.operator.upper, alone.operator.upper)
        assert np.array_equal(cov.matrix, alone.matrix)
        assert set(vars(space)) == fresh, "the space must hold no taper state"


def test_rho_tilde_branches():
    # Q_h = 129 >= 1e6^{1/3}: tapered rate with the log term
    big = estimators.rho_tilde(1.0 / 128, 10 ** 6, 1.0, 1)
    want = 10.0 ** (-6 * 2 / 3.0) + math.log(128.0) / 10 ** 6
    assert abs(big - want) <= 1e-12 * want
    # Q_h = 65 < 100: the dof count caps the error at h^{-d}/M
    small = estimators.rho_tilde(1.0 / 64, 10 ** 6, 1.0, 1)
    assert abs(small - 64.0 / 10 ** 6) <= 1e-18
    with pytest.raises(ValueError):
        estimators.rho_tilde(-0.1, 10, 1.0, 1)
    with pytest.raises(ValueError):
        estimators.rho_tilde(0.1, 10, 1.0, 0)


def test_rho_tilde_decreases_in_m():
    vals = [estimators.rho_tilde(1.0 / 32, M, 1.0, 1)
            for M in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_decay_check_identity_and_tridiagonal():
    check = estimators.decay_class_check(np.eye(6), 1.0, 1.0, 2.0, 1)
    assert check.C1_est == 0.0 and check.lambda_max == 1.0 and check.passes
    tri = np.eye(6) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    check = estimators.decay_class_check(tri, 1.0, 3.0, 4.0, 1)
    assert check.C1_est == 0.0, \
        "offsets beyond 1 are empty, so every c >= 1 tail vanishes"
    assert check.passes


def test_decay_check_matches_brute_reference():
    rng = np.random.default_rng(19)
    idx = np.arange(12)
    A = (1.0 + np.abs(idx[:, None] - idx[None, :])) ** -2.0
    A = A + 0.01 * reference.random_symmetric(rng, 12)
    A = 0.5 * (A + A.T)
    alpha = 1.0
    check = estimators.decay_class_check(A, alpha, 1.0, 2.0, 1)
    brute = max(reference.banded_tail_brute(A, c) * c ** alpha
                for c in range(1, 12))
    assert abs(check.C1_est - brute) <= 1e-12, \
        "bincount tails disagree with the masked-sum reference"
    assert check.passes == (check.C1_est <= 1.0 and check.lambda_max <= 2.0)


def test_decay_check_2d_uses_chebyshev_offsets():
    rng = np.random.default_rng(31)
    m = 5
    ix, iy = np.divmod(np.arange(m * m), m)
    cheb = np.maximum(np.abs(ix[:, None] - ix[None, :]),
                      np.abs(iy[:, None] - iy[None, :]))
    A = (1.0 + cheb) ** -2.0 + 0.01 * reference.random_symmetric(rng, m * m)
    A = 0.5 * (A + A.T)
    check = estimators.decay_class_check(A, 1.0, 1.0, 2.0, 2)
    brute = max(reference.chebyshev_tail_brute(A, c, m) * c
                for c in range(1, m))
    assert abs(check.C1_est - brute) <= 1e-12, \
        "2D tails must bucket entries by lattice offset"
    with pytest.raises(ValueError):
        estimators.decay_class_check(np.eye(8), 1.0, 1.0, 2.0, 2)


def test_taper_2d_is_the_product_of_axis_tapers():
    m = 5
    ones = estimators.TaperedCovariance(np.ones((m * m, m * m)), tau=0,
                                        alpha=None, estimator_kind="MLE",
                                        M=27)
    tap = estimators.taper(ones, alpha=1.0, dim=2)
    assert tap.tau == 4
    want = np.array([[reference.taper_weight_brute(4, j // m - k // m)
                      * reference.taper_weight_brute(4, j % m - k % m)
                      for k in range(m * m)] for j in range(m * m)])
    assert np.array_equal(tap.matrix, want), \
        "a node pair must get the product of its two axis weights"


def test_taper_2d_builds_no_weight_matrix():
    # the 2D taper multiplies along each lattice axis, in place after the
    # first: its result is the one Q x Q array it allocates
    Q = 33 ** 2
    ones = estimators.TaperedCovariance(np.ones((Q, Q)), tau=0, alpha=None,
                                        estimator_kind="MLE", M=2000)
    tracemalloc.start()
    try:
        tap = estimators.taper(ones, alpha=1.0, dim=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tap.tau == 14
    assert peak <= 1.25 * Q * Q * 8, \
        "taper allocated %.1f Q^2 doubles" % (peak / (Q * Q * 8.0),)


def test_tapered_2d_total_falls_with_m():
    # with a lexicographic taper, x-neighbours (offset n+1) were cut while
    # the last node of a column kept the first of the next, and the mean
    # total stalled near 0.15 (0.155 / 0.151 / 0.144) however large M grew
    means = []
    for M in (500, 2000, 8000):
        cfg = support.make_config(d=2, estimator="Tapered", alpha=1.0,
                                  ns=[16], Ms=[M], Ls=[3], n_rep=4)
        exact = mercer.ExactSide(2, 16, 3)
        means.append(np.mean([
            mercer.replicate(cfg, exact, M, 3, mercer.rep_seed(0, 0, r))
            .errors.total for r in range(cfg.n_rep)]))
    assert means[0] > means[1] > means[2] and means[2] < 0.3 * means[0], \
        "2D tapered mean totals must converge in M, got %r" % (means,)


def test_decay_check_pass_fail_logic():
    A = np.eye(4) * 5.0
    assert not estimators.decay_class_check(A, 1.0, 1.0, 2.0, 1).passes, \
        "top eigenvalue 5 must fail a C2=2 bound"
    assert estimators.decay_class_check(A, 1.0, 1.0, 10.0, 1).passes
    with pytest.raises(ValueError):
        estimators.decay_class_check(np.arange(9.0).reshape(3, 3), 1.0, 1, 2, 1)
    with pytest.raises(ValueError):
        estimators.decay_class_check(np.zeros((3, 2)), 1.0, 1, 2, 1)


def test_decay_constant_grows_with_dof_count():
    # the Brownian covariance does not decay off the diagonal: tail sums
    # scale like 1/h and the optimal cutoff like Q, so the fitted constant
    # grows ~quadratically in Q -- the field is *not* in a fixed decay class
    ests = []
    for n in (16, 32):
        sigma = mercer.ExactSide(1, n, 1).sigma
        ests.append(estimators.decay_class_check(sigma, 1.0, 1.0, 2.0, 1).C1_est)
    ratio = ests[1] / ests[0]
    assert 3.4 <= ratio <= 4.8, \
        "doubling Q should ~quadruple C1_est, got ratio %.2f" % ratio
    assert ests[0] > 1.0, "Brownian C1_est must already exceed 1 at n=16"


# ---------------------------------------------------------------------------
# subgaussian diagnostic and matrix helpers
# ---------------------------------------------------------------------------

def test_subgaussian_diagnostic_scaling():
    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    batch = fields.draw_batch(field, space, 5000, seed=21)
    diag = estimators.subgaussian_diagnostic(batch)
    assert np.isfinite(diag.c_inf_hat) and diag.c_inf_hat > 0.0
    assert diag.rho_inv_nodal == 4.0 * diag.c_inf_hat ** 2
    double = fields.SampleBatch(space, 2.0 * batch.coeffs, batch.mode,
                                None, 21, batch.field_kind)
    diag2 = estimators.subgaussian_diagnostic(double)
    assert abs(diag2.c_inf_hat - 2.0 * diag.c_inf_hat) \
        <= 1e-12 * diag2.c_inf_hat, \
        "the sup-moment estimate must scale linearly with the field"
    assert abs(diag2.rho_inv_nodal - 4.0 * diag.rho_inv_nodal) \
        <= 1e-12 * diag2.rho_inv_nodal


def test_operator_norm_and_bandwidth():
    assert spectral.operator_norm(np.diag([3.0, -4.0, 1.0])) == 4.0
    assert reference.bandwidth(np.eye(5)) == 0
    tri = np.eye(5) + np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
    assert reference.bandwidth(tri) == 1
    assert reference.bandwidth(np.zeros((4, 4))) == 0
    assert reference.bandwidth(tri, tol=1.5) == 0


def test_tapered_covariance_validation():
    with pytest.raises(ValueError):
        estimators.TaperedCovariance(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                     tau=2, alpha=1.0,
                                     estimator_kind="Tapered", M=5)
