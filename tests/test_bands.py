"""The 1D tapered estimate as a band: its products, its congruence with the
mass factor and the estimate itself, against dense oracles."""

import math
import tracemalloc
import types

import numpy as np
import pytest

import reference
from covrecon import bands, estimators, fem, fields, spectral

# elements n of the 1D meshes covered; n = 1 (Q = 2) is below the smallest
# fem.Mesh, so its factor comes from the stencil alone
NS = (1, 2, 3, 16, 255, 256)


def _taus(Q):
    """Even widths from 2 up to the clamp Q - Q % 2, where the band of tau
    diagonals is the whole matrix (Q even) or all but its corners (Q odd):
    every one up to 16, then every 32nd and the last two."""
    clamp = Q - Q % 2
    taus = set(range(2, min(clamp, 16) + 1, 2))
    taus.update(range(32, clamp, 32))
    taus.update(t for t in (clamp - 2, clamp) if t >= 2)
    return sorted(taus)


def _random_band(rng, Q, w):
    """A SymmetricBand of half-width w with standard normal entries, and its
    dense form built entry by entry."""
    upper = rng.standard_normal((w + 1, Q))
    A = np.zeros((Q, Q))
    for o in range(w + 1):
        for i in range(Q - o):
            A[i, i + o] = A[i + o, i] = upper[o, i]
    return bands.SymmetricBand(upper), A


def _alpha_for(tau, M):
    """An alpha whose bandwidth M^{1/(2 alpha + 1)} is tau - 1/2, so that
    taper_bandwidth(M, alpha) = tau for an even tau."""
    return 0.5 * (math.log(M) / math.log(tau - 0.5) - 1.0)


def _brownian_batch(rng, M, Q):
    """M random walks on Q nodes, as the batch band_taper reads."""
    coeffs = np.cumsum(rng.standard_normal((M, Q)), axis=1)
    return types.SimpleNamespace(coeffs=coeffs, sample_count=M)


@pytest.mark.parametrize("n", NS)
def test_band_matvec_matches_the_dense_product(n):
    rng = np.random.default_rng(n)
    Q = n + 1
    for tau in _taus(Q):
        band, A = _random_band(rng, Q, tau - 1)
        assert np.array_equal(band.dense(), A)
        x = rng.standard_normal(Q)
        X = rng.standard_normal((Q, 5))
        scale = np.max(np.abs(A)) * Q
        for v in (x, X):
            got = band @ v
            assert got.shape == v.shape
            assert np.max(np.abs(got - A @ v)) <= 1e-14 * scale
        # the product with I adds each entry to zeros: the dense form, bit
        # for bit
        assert np.array_equal(band @ np.eye(Q), A)
    with pytest.raises(ValueError):
        band @ np.ones(Q + 1)


@pytest.mark.parametrize("n", NS)
def test_band_congruence_matches_a_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    Q = n + 1
    L = reference.dense_axis_chol(n)
    factors = [(np.diag(L), np.diag(L, -1))]
    if n >= 2:
        mass = fem.assemble_mass(fem.build_space(1, n))
        factors.append(mass.chol_bands)
    for tau in _taus(Q):
        band, A = _random_band(rng, Q, tau - 1)
        want = L.T @ A @ L
        for d, e in factors:
            got = band.congruence(d, e)
            assert got.half_width == min(tau, Q - 1)
            dense = got.dense()
            assert np.array_equal(dense, dense.T)
            assert reference.bandwidth(dense) <= tau
            assert np.max(np.abs(dense - want)) \
                <= 1e-14 * np.max(np.abs(want)), (n, tau)
    with pytest.raises(ValueError):
        band.congruence(np.ones(Q + 1), np.ones(Q))


@pytest.mark.parametrize("n", NS)
def test_band_estimate_matches_the_dense_taper_oracle(n):
    rng = np.random.default_rng(200 + n)
    Q, M = n + 1, 300
    batch = _brownian_batch(rng, M, Q)
    for tau in _taus(Q):
        cov = estimators.band_taper(batch, _alpha_for(tau, M))
        assert cov.estimator_kind == "Tapered" and cov.tau == tau
        assert cov.operator.half_width == tau - 1
        want = reference.dense_taper_1d(batch.coeffs, tau)
        assert reference.bandwidth(cov.matrix) <= tau - 1
        assert np.max(np.abs(cov.matrix - want)) \
            <= 1e-14 * np.max(np.abs(want)), (n, tau)
        x = rng.standard_normal(Q)
        assert np.array_equal(cov @ x, cov.operator @ x)
    # Q < M^{1/(2 alpha + 1)}: the undersized matrix gets the MLE unchanged
    small = estimators.band_taper(batch, 0.5 * (math.log(M)
                                                / math.log(Q + 0.5) - 1.0))
    assert small.estimator_kind == "MLE"
    assert small.matrix is small.operator
    assert np.array_equal(small.matrix,
                          estimators.mle_covariance(batch).matrix)


@pytest.mark.parametrize("n", (16, 256))
def test_transform_of_a_band_estimate_is_its_band_congruence(n):
    space = fem.build_space(1, n)
    mass = fem.assemble_mass(space)
    batch = fields.draw_batch(fields.KlOracle(1), space, 200,
                              mode=fields.MODE_PROJECTION, seed=n,
                              kl_trunc=400)
    cov = estimators.estimate_covariance(batch, alpha=1.0)
    assert isinstance(cov.operator, bands.SymmetricBand) and cov.tau == 6
    stiffness = spectral.transform(cov, mass)
    assert isinstance(stiffness, bands.SymmetricBand)
    assert np.array_equal(stiffness.dense(), cov.operator.congruence(
        *mass.chol_bands).dense())
    want = reference.dense_transform(cov.matrix, mass)
    assert np.max(np.abs(stiffness.dense() - want)) \
        <= 1e-14 * np.max(np.abs(want))
    X = np.random.default_rng(n).standard_normal((n + 1, 3))
    assert np.max(np.abs(stiffness @ X - want @ X)) \
        <= 1e-13 * np.max(np.abs(want @ X))
    # a band needs the bidiagonal factor of a 1D mass
    square = estimators.TaperedCovariance(
        bands.SymmetricBand(np.ones((2, 25))), tau=2, alpha=1.0,
        estimator_kind="Tapered", M=10)
    with pytest.raises(ValueError, match="1D mass"):
        spectral.transform(square, fem.assemble_mass(fem.build_space(2, 4)))


def _batch_4096():
    """200 nodal draws on the 1D mesh of 4096 elements."""
    return fields.draw_batch(fields.KlOracle(1), fem.build_space(1, 4096),
                             200, seed=3)


def test_band_estimate_forms_no_q_by_q_array():
    # a dense 1D estimate at n=4096 takes 134 MB; the band of its tau=6
    # diagonals is formed from the 6.6 MB of centred samples
    n = 4096
    batch = _batch_4096()
    tracemalloc.start()
    try:
        cov = estimators.estimate_covariance(batch, alpha=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.tau == 6 and cov.operator.shape == (n + 1, n + 1)
    assert isinstance(cov.operator, bands.SymmetricBand)
    assert peak <= 32e6, "the estimate peaked at %.1f MB" % (peak / 1e6,)


def test_transform_of_a_band_estimate_forms_no_q_by_q_array():
    # the stiffness of the n=4096 band estimate is the band of its tau + 1
    # diagonals, 0.2 MB; its dense form would take 134 MB
    batch = _batch_4096()
    cov = estimators.estimate_covariance(batch, alpha=1.0)
    mass = fem.assemble_mass(batch.space)
    mass.chol_bands  # an input, built first
    tracemalloc.start()
    try:
        stiffness = spectral.transform(cov, mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(stiffness, bands.SymmetricBand)
    assert stiffness.half_width == cov.tau
    assert peak < 16e6, "the transform peaked at %.1f MB" % (peak / 1e6,)
