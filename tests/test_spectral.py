"""Transformed stiffness, eigensolver, sign alignment and stability diagnostics."""

import functools
import os
import re

import numpy as np
import pytest
import scipy.linalg as sla

import reference
import support
from covrecon import bands, fem, fields, mercer, spectral
from covrecon.errors import NumericError


# ---------------------------------------------------------------------------
# the congruence transform
# ---------------------------------------------------------------------------

def test_transform_identity_covariance():
    mass = fem.assemble_mass(fem.build_space(1, 6))
    stiffness = spectral.transform(np.eye(7), mass)
    # L^T I L = L^T L shares its spectrum with G = L L^T
    got = np.sort(np.linalg.eigvalsh(stiffness))
    want = np.sort(np.linalg.eigvalsh(reference.dense_mass(mass)))
    assert np.max(np.abs(got - want)) <= 1e-12, \
        "transform of the identity must be cospectral with the mass matrix"


def test_transform_zero_and_mismatch():
    mass = fem.assemble_mass(fem.build_space(1, 4))
    assert np.array_equal(spectral.transform(np.zeros((5, 5)), mass),
                          np.zeros((5, 5)))
    with pytest.raises(ValueError):
        spectral.transform(np.zeros((4, 4)), mass)


def test_transform_small_grid_triple_product():
    space = fem.build_space(1, 2)
    mass = fem.assemble_mass(space)
    sigma = mercer.ExactSide(1, 2, 1).sigma
    stiffness = spectral.transform(sigma, mass)
    L = reference.dense_chol(mass)
    direct = L.T @ sigma @ L
    assert np.max(np.abs(stiffness - direct)) <= 1e-12, \
        "n=2 transform must match the dense triple product"
    assert np.array_equal(stiffness, stiffness.T)
    assert not stiffness.flags.writeable


def test_transform_accepts_covariance_objects():
    from covrecon import estimators

    space = fem.build_space(1, 4)
    mass = fem.assemble_mass(space)
    sigma = mercer.ExactSide(1, 4, 1).sigma
    cov = estimators.TaperedCovariance(sigma, tau=0, alpha=None,
                                       estimator_kind="Exact", M=0)
    a = spectral.transform(cov, mass)
    b = spectral.transform(sigma, mass)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eigensolve_diagonal_matrix():
    mass = reference.IdentityMass(3)
    spec = spectral.eigensolve(np.diag([3.0, 1.0, 2.0]), mass, 3)
    assert np.array_equal(spec.eigenvalues, [3.0, 2.0, 1.0])
    # canonical sign: the largest-magnitude component is positive
    assert np.array_equal(np.abs(spec.tilde_vectors),
                          np.eye(3)[:, [0, 2, 1]])
    assert np.all(spec.tilde_vectors[spec.tilde_vectors != 0.0] > 0)
    assert np.array_equal(spec.tilde_vectors, spec.gen_vectors), \
        "identity mass must leave the generalized vectors untouched"


def test_eigensolve_random_matrix_invariants():
    rng = np.random.default_rng(37)
    space = fem.build_space(1, 11)
    mass = fem.assemble_mass(space)
    for trial in range(50):
        sigma = reference.random_symmetric(rng, 12)
        S = spectral.transform(sigma, mass)
        spec = spectral.eigensolve(S, mass, 12)
        lam, vt, vg = spec.eigenvalues, spec.tilde_vectors, spec.gen_vectors
        assert np.all(np.diff(lam) <= 0.0), "eigenvalues must descend"
        scale = max(1.0, np.abs(lam).max())
        assert np.max(np.abs(S @ vt - vt * lam)) <= 1e-10 * scale, \
            "trial %d: eigen residual too large" % trial
        assert np.max(np.abs(vt.T @ vt - np.eye(12))) <= 1e-10
        G = reference.dense_mass(mass)
        assert np.max(np.abs(vg.T @ G @ vg - np.eye(12))) <= 1e-10, \
            "generalized vectors must be G-orthonormal"
        lead = np.argmax(np.abs(vt), axis=0)
        assert np.all(vt[lead, np.arange(12)] > 0.0), \
            "canonical sign must make the leading component positive"


def test_eigensolve_matches_generalized_reference():
    _, space, mass, sigma, _, spec = support.brownian_setup(1, 16)
    ref_vals, ref_vecs = reference.generalized_eigh(
        sigma, reference.dense_mass(mass))
    assert np.max(np.abs(spec.eigenvalues - ref_vals)) \
        <= 1e-10 * max(1.0, ref_vals[0]), \
        "Cholesky route and scipy generalized route disagree on eigenvalues"
    # vectors agree up to sign; scipy already returns G-orthonormal columns
    assert np.max(np.abs(np.abs(spec.gen_vectors) - np.abs(ref_vecs))) <= 1e-8


def test_eigensolve_brownian_bracket():
    *_, spec = support.brownian_setup(1, 64)
    assert 0.4040 <= spec.eigenvalues[0] <= 0.4053, \
        "discrete lambda_1 at n=64 must fall just below 4/pi^2 ~ 0.40528"


def test_eigensolve_generalized_equation_residual():
    # the transformed route must solve S Phi = lambda G Phi with S = G Sigma G
    _, space, mass, sigma, _, spec = support.brownian_setup(1, 16)
    G = reference.dense_mass(mass)
    S = G @ sigma @ G
    for ell in range(5):
        lam = spec.eigenvalues[ell]
        phi = spec.gen_vectors[:, ell]
        resid = np.linalg.norm(S @ phi - lam * G @ phi)
        rel = resid / (np.linalg.norm(S, 2) * np.linalg.norm(phi))
        assert rel <= 1e-8, "mode %d residual %.2e too large" % (ell + 1, rel)


def _tie_clusters(vals, count):
    """[start, end) index ranges of exactly equal eigenvalues covering the
    first count indices."""
    clusters, start = [], 0
    while start < count:
        end = start + 1
        while end < vals.size and vals[end] == vals[start]:
            end += 1
        clusters.append((start, end))
        start = end
    return clusters


@pytest.mark.parametrize("n, modes", [(8, 20), (16, 40)])
def test_kronecker_exact_side_matches_dense_oracle(n, modes):
    # the 2D exact side is built from the axis problem alone; the dense
    # factor, triple product and eigh of tests/reference.py are the oracle
    _, _, mass, sigma, s_exact, spec = support.brownian_setup(2, n)
    assert np.max(np.abs(s_exact @ np.eye(mass.dof_count)
                         - reference.dense_stiffness(mass))) <= 1e-17
    vals, vecs = reference.dense_eigh(sigma, mass)
    assert np.max(np.abs(spec.eigenvalues - vals)) <= 1e-15
    vt, vg = spec.tilde_vectors, spec.gen_vectors
    for start, end in _tie_clusters(spec.eigenvalues, modes):
        P = vt[:, start:end] @ vt[:, start:end].T
        P_dense = vecs[:, start:end] @ vecs[:, start:end].T
        assert np.max(np.abs(P - P_dense)) <= 1e-12, \
            "modes %d..%d span another eigenspace" % (start + 1, end)
    lead = np.argmax(np.abs(vt), axis=0)
    assert np.all(vt[lead, np.arange(vt.shape[1])] > 0.0), \
        "products of canonical axis vectors must be canonical"
    G = reference.dense_mass(mass)
    assert np.max(np.abs(vg.T @ G @ vg - np.eye(vg.shape[1]))) \
        <= 1e-12, "generalized vectors must be G-orthonormal"


def test_kronecker_ties_use_the_product_basis():
    # mu1 mu2 = mu2 mu1 exactly: modes 2 and 3 are v1 (x) v2 then v2 (x) v1
    exact = support.exact_side(2, 6)
    spec = exact.spectrum
    axis = support.exact_side(1, 6).spectrum
    v1, v2 = axis.tilde_vectors[:, 0], axis.tilde_vectors[:, 1]
    assert np.array_equal(spec.eigenvalues[:2],
                          axis.eigenvalues[0] * axis.eigenvalues[:2])
    assert spec.eigenvalues[1] == spec.eigenvalues[2]
    assert np.array_equal(spec.tilde_vectors[:, 1], np.kron(v1, v2))
    assert np.array_equal(spec.tilde_vectors[:, 2], np.kron(v2, v1))
    S = exact.s_exact @ np.eye(exact.space.dof_count)
    assert np.array_equal(S, S.T)


def test_kronecker_columns_are_the_kron_of_the_columns():
    # one, two and three factors of unequal lengths, bit for bit
    rng = np.random.default_rng(3)
    factors = [rng.standard_normal((m, 4)) for m in (3, 5, 2)]
    for d in (1, 2, 3):
        got = spectral.kronecker_columns(factors[:d])
        want = np.column_stack([
            functools.reduce(np.kron, [F[:, i] for F in factors[:d]])
            for i in range(4)])
        assert np.array_equal(got, want), "%d factors" % d


def test_canonical_signs_ignore_roundoff_between_tied_components():
    # components within 1e-12 of the largest magnitude tie: the first leads,
    # whichever of them roundoff made the largest
    for top in ([-1.0, 1.0 + 2e-16], [-1.0 - 2e-16, 1.0], [-1.0, 1.0]):
        vecs = np.array([[0.3]] + [[t] for t in top])
        assert spectral.canonical_signs(vecs).tolist() == [-1.0]
    assert spectral.canonical_signs(np.array([[0.3], [-1.0], [1.001]])) \
        .tolist() == [1.0]
    assert spectral.canonical_signs(np.zeros((3, 1))).tolist() == [1.0]


def test_exact_signs_agree_between_the_band_and_the_dense_factor():
    # the peaks of a sine mode tie exactly, so the tilde vectors L1^T Phi
    # from the band factor and from numpy's dense factor, which differ by
    # roundoff, must get the same signs (the largest-component rule flipped
    # mode 6 at n=33, among others)
    for n in range(8, 80):
        exact = mercer.ExactSide(1, n, n + 1)
        gen = exact.spectrum.gen_vectors
        band = exact.mass.lt(gen)
        dense = reference.dense_chol(exact.mass).T @ gen
        assert np.array_equal(spectral.canonical_signs(band),
                              spectral.canonical_signs(dense)), \
            "n=%d: a sign depends on the factor's roundoff" % n


def test_closed_form_exact_pairs_match_the_dense_route():
    # the exact side's closed-form sine pairs against the dense route it
    # replaced (tests/reference.py): the axis eigh and its Kronecker
    # products.  Each vector of a nonzero eigenvalue matches up to sign,
    # within the dense axis solve's roundoff (n eps mu_1 / gap per axis
    # vector, summed over the axes of a product); the node-0 zero modes,
    # which the dense route leaves at +-roundoff in any order, span its null
    # space
    eps = np.finfo(float).eps
    for d, n in ((1, 4), (1, 17), (1, 64), (2, 4), (2, 16)):
        exact = support.exact_side(d, n)
        spec = exact.spectrum
        Q = spec.dof_count
        vals, tilde, gen = reference.dense_exact_pairs(exact.mass)
        assert spec.tilde_vectors.shape == spec.gen_vectors.shape == (Q, Q)
        assert np.max(np.abs(spec.eigenvalues - vals)) <= Q * eps * vals[0], \
            "%dD n=%d: eigenvalues off the dense route" % (d, n)
        zero = spec.eigenvalues == 0.0
        assert np.count_nonzero(zero) == (2 * n + 1 if d == 2 else 1), \
            "%dD n=%d: the node-0 modes must be exact zeros" % (d, n)
        assert np.all(spec.eigenvalues[~zero] > 0.0)

        mu = support.exact_side(1, n).spectrum.eigenvalues
        gaps = np.array([np.min(np.abs(np.delete(mu, i) - mu[i]))
                         for i in range(n + 1)])
        order = np.argsort(-functools.reduce(np.multiply.outer, [mu] * d)
                           .ravel(), kind="stable")
        tol = sum((n + 1) * eps * mu[0] / gaps[i]
                  for i in np.unravel_index(order, (n + 1,) * d))
        vt, vg = spec.tilde_vectors, spec.gen_vectors
        signs = np.sign(np.sum(vt * tilde, axis=0))
        scale = 1.0 / np.sqrt(exact.mass.lambda_min)  # ||L^-T||
        for got, want, bound in ((vt, tilde, tol), (vg, gen, scale * tol)):
            err = np.max(np.abs(got - want * signs), axis=0)
            assert np.all(err[~zero] <= bound[~zero]), \
                "%dD n=%d: a vector is off the dense route" % (d, n)
        P = vt[:, zero] @ vt[:, zero].T
        P_dense = tilde[:, zero] @ tilde[:, zero].T
        assert np.max(np.abs(P - P_dense)) <= 1e-12, \
            "%dD n=%d: the zero modes span another space" % (d, n)

        G = reference.dense_mass(exact.mass)
        assert np.max(np.abs(vg.T @ G @ vg - np.eye(Q))) <= 1e-12, \
            "%dD n=%d: generalized vectors must be G-orthonormal" % (d, n)
        lead = np.argmax(np.abs(vt), axis=0)
        assert np.all(vt[lead, np.arange(Q)] > 0.0), "canonical signs"
        assert spec.mass is exact.mass and spec.source == spectral.SOURCE_EXACT


def test_eigensolve_permutation_invariant_eigenvalues():
    rng = np.random.default_rng(43)
    mass = reference.IdentityMass(10)
    A = reference.random_symmetric(rng, 10)
    P = np.eye(10)[rng.permutation(10)]
    a = spectral.eigensolve(A, mass, 10).eigenvalues
    b = spectral.eigensolve(P @ A @ P.T, mass, 10).eigenvalues
    assert np.max(np.abs(a - b)) <= 1e-12, \
        "a symmetric permutation must not move the spectrum"


def test_eigensolve_failure_dumps_matrix(monkeypatch):
    mass = reference.IdentityMass(3)
    matrix = np.diag([1.0, 2.0, 3.0])

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic non-convergence")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NumericError, match="saved to") as err:
        spectral.eigensolve(matrix, mass, 3)
    path = re.search(r"saved to (\S+):", str(err.value)).group(1)
    try:
        assert np.array_equal(np.load(path), matrix), \
            "the dump must contain the offending matrix"
    finally:
        os.remove(path)


def _estimated_stiffness(d, n, alpha, M, seed=0):
    """S-tilde of a sampled estimate and its mass: projection draws when
    alpha is given (the tapered 1D fine-mesh case, a band), nodal draws
    otherwise."""
    from covrecon import estimators

    field, space, mass, *_ = support.brownian_setup(d, n)
    if alpha is None:
        batch = fields.draw_batch(field, space, M, seed=seed)
    else:
        batch = fields.draw_batch(field, space, M, mode=fields.MODE_PROJECTION,
                                  seed=seed, kl_trunc=400)
    cov = estimators.estimate_covariance(batch, alpha=alpha)
    return spectral.transform(cov, mass), mass


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("d, n, alpha, M", [(1, 256, 1.0, 200),
                                            (2, 16, None, 2000)])
def test_eigensolve_k_matches_the_dense_oracle(d, n, alpha, M, k):
    # above the Lanczos switch: eigvalsh for all Q eigenvalues, Lanczos for
    # the k leading vectors; np.linalg.eigh of the same matrix is the oracle
    stiffness, mass = _estimated_stiffness(d, n, alpha, M)
    Q = stiffness.shape[0]
    assert Q >= spectral._EIGENSOLVE_K_MIN_DOF
    spec = spectral.eigensolve(stiffness, mass, k=k)
    vals, vecs = np.linalg.eigh(bands.dense_form(stiffness))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    assert spec.eigenvalues.shape == (Q,)
    assert spec.tilde_vectors.shape == spec.gen_vectors.shape == (Q, k)
    assert np.max(np.abs(spec.eigenvalues - vals)) <= 1e-14 * vals[0]
    vt = spec.tilde_vectors
    P = (vt * spec.eigenvalues[:k]) @ vt.T
    P_dense = (vecs[:, :k] * vals[:k]) @ vecs[:, :k].T
    assert np.linalg.norm(P - P_dense) <= 1e-12 * np.linalg.norm(P_dense), \
        "the rank-%d projector moved" % k
    lead = np.argmax(np.abs(vt), axis=0)
    assert np.all(vt[lead, np.arange(k)] > 0.0), "canonical signs"
    vg = spec.gen_vectors
    G = reference.dense_mass(mass)
    assert np.max(np.abs(vg.T @ G @ vg - np.eye(k))) <= 1e-12, \
        "generalized vectors must be G-orthonormal"


def test_eigensolve_k_below_switch_is_the_dense_solve_sliced():
    # Q=33 and Q=193: below the k route's switch, though Q=193 is above
    # operator_norm's
    for d, n, alpha, M in ((1, 32, None, 500), (1, 192, 1.0, 200)):
        stiffness, mass = _estimated_stiffness(d, n, alpha, M)
        Q = stiffness.shape[0]
        assert Q < spectral._EIGENSOLVE_K_MIN_DOF
        full = spectral.eigensolve(stiffness, mass, Q)
        for k in (1, 3):
            spec = spectral.eigensolve(stiffness, mass, k=k)
            assert np.array_equal(spec.eigenvalues, full.eigenvalues)
            assert np.array_equal(spec.tilde_vectors,
                                  full.tilde_vectors[:, :k])
            assert np.array_equal(spec.gen_vectors, full.gen_vectors[:, :k])
        for k in (0, Q + 1):
            with pytest.raises(ValueError):
                spectral.eigensolve(stiffness, mass, k=k)


def test_eigensolve_k_raises_on_a_missed_tie():
    # one start vector spans one direction of a repeated eigenvalue: on this
    # rank-3 matrix the Krylov space is exhausted after three steps, and the
    # second Ritz value converges to 0.5 before roundoff brings in the second
    # copy of 1.  The k route must raise, though a dense solve finds both
    q = spectral._EIGENSOLVE_K_MIN_DOF + 2
    U = np.linalg.qr(np.random.default_rng(5).standard_normal((q, 3)))[0]
    A = (U * [1.0, 1.0, 0.5]) @ U.T
    A = 0.5 * (A + A.T)
    with pytest.raises(NumericError, match="missed") as err:
        spectral.eigensolve(A, reference.IdentityMass(q), k=2)
    path = re.search(r"saved to (\S+):", str(err.value)).group(1)
    try:
        assert np.array_equal(np.load(path), A)
    finally:
        os.remove(path)
    vals = np.linalg.eigvalsh(A)[::-1]
    assert np.max(np.abs(vals[:3] - [1.0, 1.0, 0.5])) <= 1e-14


# ---------------------------------------------------------------------------
# sign alignment
# ---------------------------------------------------------------------------

def test_align_signs_recovers_flips():
    rng = np.random.default_rng(51)
    mass = reference.IdentityMass(8)
    A = reference.random_symmetric(rng, 8)
    spec = spectral.eigensolve(A, mass, 8)
    flips = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    flipped = spectral.DiscreteSpectrum(
        spec.eigenvalues.copy(), spec.tilde_vectors * flips,
        spec.gen_vectors * flips, spectral.SOURCE_ESTIMATED, mass)
    fixed = spectral.align_signs(spec, flipped)
    assert np.array_equal(fixed.tilde_vectors, spec.tilde_vectors), \
        "alignment must undo pure sign flips exactly"
    assert np.array_equal(fixed.gen_vectors, spec.gen_vectors)
    # a target with the k leading vectors pairs with the first k columns
    leading = spectral.DiscreteSpectrum(
        spec.eigenvalues.copy(), flipped.tilde_vectors[:, :3],
        flipped.gen_vectors[:, :3], spectral.SOURCE_ESTIMATED, mass)
    fixed = spectral.align_signs(spec, leading)
    assert np.array_equal(fixed.tilde_vectors, spec.tilde_vectors[:, :3])
    assert np.array_equal(fixed.gen_vectors, spec.gen_vectors[:, :3])


def test_align_signs_minimizes_distance_per_mode():
    rng = np.random.default_rng(53)
    mass = fem.assemble_mass(fem.build_space(1, 9))
    base = reference.random_symmetric(rng, 10)
    ref = spectral.eigensolve(spectral.transform(base, mass), mass, 10)
    pert = spectral.eigensolve(spectral.transform(
        base + 0.05 * reference.random_symmetric(rng, 10), mass), mass, 10)
    aligned = spectral.align_signs(ref, pert)
    for ell in range(10):
        a = ref.tilde_vectors[:, ell]
        b = aligned.tilde_vectors[:, ell]
        assert np.linalg.norm(a - b) <= np.linalg.norm(a + b) + 1e-12, \
            "mode %d: aligned sign is not the closer of the two" % ell


def test_align_signs_zero_dot_and_mismatch():
    mass = reference.IdentityMass(2)
    spec = spectral.eigensolve(np.diag([2.0, 1.0]), mass, 2)
    # orthogonal columns: dot products are exactly zero, nothing may change
    other = spectral.DiscreteSpectrum(
        spec.eigenvalues.copy(),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        spectral.SOURCE_ESTIMATED, mass)
    out = spectral.align_signs(spec, other)
    assert np.array_equal(out.tilde_vectors, other.tilde_vectors)
    big = spectral.eigensolve(np.eye(3), reference.IdentityMass(3), 3)
    with pytest.raises(ValueError):
        spectral.align_signs(spec, big)


# ---------------------------------------------------------------------------
# sandwich and Weyl stability
# ---------------------------------------------------------------------------

def test_opnorm_sandwich_bounds():
    mass = fem.assemble_mass(fem.build_space(1, 16))
    lo, hi = spectral.opnorm_sandwich(mass, 2.0)
    assert lo == 2.0 * mass.lambda_min and hi == 2.0 * mass.lambda_max
    assert spectral.opnorm_sandwich(mass, 0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        spectral.opnorm_sandwich(mass, -1.0)


def test_transformed_norm_inside_sandwich():
    rng = np.random.default_rng(59)
    mass = fem.assemble_mass(fem.build_space(1, 16))
    L = reference.dense_chol(mass)
    for _ in range(100):
        E = reference.random_symmetric(rng, 17)
        ts_norm = np.linalg.norm(L.T @ E @ L, 2)
        v = np.linalg.norm(E, 2)
        lo, hi = spectral.opnorm_sandwich(mass, v)
        assert lo - 1e-12 <= ts_norm <= hi + 1e-12, \
            "transformed norm escapes the mass-spectrum sandwich"


def test_weyl_bound_random_pairs():
    rng = np.random.default_rng(61)
    mass = reference.IdentityMass(15)
    for _ in range(20):
        A = reference.random_symmetric(rng, 15)
        E = reference.random_symmetric(rng, 15, scale=rng.random())
        sa = spectral.eigensolve(A, mass, 15)
        sb = spectral.eigensolve(A + E, mass, 15)
        bound = np.linalg.norm(E, 2)
        dev = np.abs(sa.eigenvalues - sb.eigenvalues)
        assert np.max(dev) <= bound + 1e-10, \
            "an eigenvalue moved more than the perturbation norm"


# ---------------------------------------------------------------------------
# operator norm: dense below the Lanczos switch, Lanczos from it on
# ---------------------------------------------------------------------------

def _dense_norm(A):
    vals = sla.eigvalsh(0.5 * (A + A.T))
    return max(abs(vals[0]), abs(vals[-1]))


def _norm_cases(q):
    rng = np.random.default_rng(q)
    u = rng.standard_normal(q)
    tie = np.diag(np.concatenate(([1.0, -1.0], np.linspace(0.5, 0.0, q - 2))))
    # a decaying symmetric matrix with the rows and columns of pinned nodes
    # zeroed, as the 2D lattice has on its axes
    U = np.linalg.qr(rng.standard_normal((q, q)))[0]
    pinned = (U * (rng.choice([-1.0, 1.0], q) / np.arange(1, q + 1) ** 2)) \
        @ U.T
    pinned[::7] = 0.0
    pinned[:, ::7] = 0.0
    # the isolated +1 converges first; the larger -1 - 1e-6 sits at the edge
    # of a cluster and converges later, so stopping on the first converged
    # extreme would return 1.0
    hidden = (U * np.concatenate(([1.0, -1.0 - 1e-6],
                                  np.linspace(-1.0, -0.9, q // 2),
                                  np.zeros(q - 2 - q // 2)))) @ U.T
    # operator_norm takes a symmetric matrix; a caller symmetrizes first
    B = rng.standard_normal((q, q))
    return {"rank one": np.outer(u, u), "tie": tie,
            "symmetric part": 0.5 * (B + B.T), "pinned": pinned,
            "hidden near-tie": hidden}


@pytest.mark.parametrize("offset", [-1, 0, 172])
def test_operator_norm_matches_dense_both_sides_of_switch(offset):
    q = spectral._LANCZOS_MIN_DOF + offset
    assert spectral.operator_norm(np.zeros((q, q))) == 0.0, \
        "the zero matrix must give exactly 0.0 (Exact estimator weyl_bound)"
    for name, A in _norm_cases(q).items():
        got = spectral.operator_norm(A)
        want = _dense_norm(A)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-13 * want, \
            "%s at Q=%d: %r against dense %r" % (name, q, got, want)


def test_operator_norm_lanczos_non_decaying_goe():
    # a GOE matrix has no decay and near-equal extremes at both ends
    rng = np.random.default_rng(7)
    G = rng.standard_normal((1089, 1089))
    G = (G + G.T) / np.sqrt(2.0)
    want = _dense_norm(G)
    assert abs(spectral.operator_norm(G) - want) <= 1e-13 * want


def test_operator_norm_lanczos_never_falls_back_to_dense(monkeypatch):
    q = spectral._LANCZOS_MIN_DOF + 2
    A = reference.random_symmetric(np.random.default_rng(3), q)
    want = _dense_norm(A)
    # the Lanczos k x k tridiagonal goes through the same numpy eigensolver,
    # so reject only a call on a matrix with Q rows
    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            def no_dense(M, *args, _solver=getattr(np.linalg, name), **kw):
                if np.shape(M)[0] == q:
                    raise AssertionError("dense eigensolve above the Lanczos "
                                         "switch")
                return _solver(M, *args, **kw)
            patch.setattr(np.linalg, name, no_dense)
        assert abs(spectral.operator_norm(A) - want) <= 1e-13 * want
    # a tolerance no Ritz value can meet exhausts the Q steps and raises
    monkeypatch.setattr(spectral, "_LANCZOS_RTOL", -1.0)
    with pytest.raises(NumericError, match="did not converge"):
        spectral.operator_norm(A)


# ---------------------------------------------------------------------------
# joint diagnostics
# ---------------------------------------------------------------------------

def _mle_case(d, n, M=200, seed=3):
    """The exact side (every exact vector kept), an MLE estimate from M
    nodal draws, its transform and its spectrum with the 3 leading
    vectors."""
    from covrecon import estimators

    exact = support.exact_side(d, n)
    batch = fields.draw_batch(exact.field, exact.space, M, seed=seed)
    cov = estimators.estimate_covariance(batch)
    s_est = spectral.transform(cov, exact.mass)
    return exact, cov, s_est, spectral.eigensolve(s_est, exact.mass, 3)


def test_diagnostics_identical_spectra():
    exact = support.exact_side(1, 32)
    spec, s_exact, cov = exact.spectrum, exact.s_exact, exact.covariance
    diag = spectral.diagnostics(spec, spec, s_exact, s_exact, cov, cov,
                                exact.field, 3)
    assert diag.weyl_bound == 0.0
    assert np.max(diag.eigenvalue_dev) == 0.0
    assert diag.cov_diff_norm == 0.0
    assert diag.theorem_consistent
    # mixed gaps of a spectrum against itself reduce to its own gaps
    lam = spec.eigenvalues
    want = [min(lam[0] - lam[1], np.inf), min(lam[0] - lam[1], lam[1] - lam[2]),
            min(lam[1] - lam[2], lam[2] - lam[3])]
    assert np.allclose(diag.discrete_gaps, want, rtol=1e-12)


def test_diagnostics_rank_one_perturbation():
    # with the identity mass each stiffness is its own covariance
    eps = 1e-3
    mass = reference.IdentityMass(6)
    base = np.diag([0.9, 0.7, 0.5, 0.3, 0.2, 0.1])
    bumped = base.copy()
    bumped[0, 0] += eps
    spec_a = spectral.eigensolve(base, mass, 6)
    spec_b = spectral.eigensolve(bumped, mass, 6)
    oracle = fields.KlOracle(1)
    diag = spectral.diagnostics(spec_a, spec_b, base, bumped, base, bumped,
                                oracle, 2)
    assert abs(diag.weyl_bound - eps) <= 1e-12, \
        "a rank-one epsilon bump has operator norm epsilon"
    assert abs(diag.cov_diff_norm - eps) <= 1e-12
    assert abs(diag.eigenvalue_dev[0] - eps) <= 1e-12
    assert np.max(diag.eigenvalue_dev[1:]) <= 1e-12
    assert np.all(diag.davis_kahan_bounds >= 0.0)


def test_diagnostics_gap_condition_and_quarter_gap():
    # estimated covariance from finite samples: the gap condition with an
    # honestly calibrated C1 holds at mode 1 and the mixed gap keeps a
    # quarter of the continuous gap whenever it does (3-seed smoke here;
    # the 20-seed version lives in the acceptance suite)
    from covrecon import estimators

    exact = support.exact_side(1, 32)
    field, space, spec = exact.field, exact.space, exact.spectrum
    for seed in (0, 1, 2):
        batch = fields.draw_batch(field, space, 10_000, seed=seed)
        cov = estimators.mle_covariance(batch)
        s_est = spectral.transform(cov, exact.mass)
        est = spectral.eigensolve(s_est, exact.mass, 3)
        diag = spectral.diagnostics(spec, est, exact.s_exact, s_est,
                                    exact.covariance, cov.matrix, field, 3,
                                    C1=1.3e-3)
        assert diag.theorem_consistent, \
            "quarter-gap failed under a passing gap condition (seed %d)" % seed
        assert diag.gap_condition_per_ell[0], \
            "the honest-C1 gap condition must be satisfiable at mode 1"
        assert np.all(np.isfinite(diag.davis_kahan_bounds)), \
            "positive mixed gaps must give finite subspace bounds"
        assert diag.sandwich_interval[0] <= diag.weyl_bound \
            <= diag.sandwich_interval[1] + 1e-12
        margins = reference.gap_condition_margins(
            3, space.mesh.h, 0.5, 1.3e-3, diag.weyl_bound)
        assert np.array_equal(margins >= 0, diag.gap_condition_per_ell), \
            "the closed-form reference and diagnostics must judge the gap " \
            "condition alike"


def test_diagnostics_above_lanczos_switch():
    # 1D n=256 projection draws with the tapered estimator, M < Q: both
    # norms go through Lanczos and must agree with the dense oracle
    from covrecon import estimators

    exact = support.exact_side(1, 256)
    field, space, spec = exact.field, exact.space, exact.spectrum
    assert space.dof_count >= spectral._LANCZOS_MIN_DOF
    batch = fields.draw_batch(field, space, 200, mode=fields.MODE_PROJECTION,
                              seed=0, kl_trunc=400)
    cov = estimators.estimate_covariance(batch, alpha=1.0)
    assert cov.estimator_kind == "Tapered"
    s_est = spectral.transform(cov, exact.mass)
    assert isinstance(s_est, bands.SymmetricBand)
    est = spectral.eigensolve(s_est, exact.mass, 5)
    diag = spectral.diagnostics(spec, est, exact.s_exact, s_est,
                                exact.covariance, cov.matrix, field, 5)
    want = _dense_norm(reference.dense_stiffness(exact.mass) - s_est.dense())
    assert abs(diag.weyl_bound - want) <= 1e-13 * want
    want = _dense_norm(exact.sigma - cov.matrix)
    assert abs(diag.cov_diff_norm - want) <= 1e-13 * want
    lo, hi = diag.sandwich_interval
    assert lo <= diag.weyl_bound <= hi
    assert np.max(diag.eigenvalue_dev) <= diag.weyl_bound
    assert spectral.diagnostics(spec, spec, exact.s_exact, exact.s_exact,
                                exact.covariance, exact.covariance, field,
                                5).weyl_bound == 0.0


@pytest.mark.parametrize("d, n", [(1, 32), (1, 256), (2, 32)])
def test_cov_diff_norm_matches_the_formed_recovered_difference(d, n):
    # diagnostics takes the norm of Sigma_exact - Sigma_est from its action
    # on vectors (Q_h = 33 below the Lanczos switch, 257 and 1089 above);
    # the oracle forms the difference of the two dense covariances
    exact, cov, s_est, est = _mle_case(d, n)
    diag = spectral.diagnostics(exact.spectrum, est, exact.s_exact, s_est,
                                exact.covariance, cov.matrix, exact.field, 3)
    want = _dense_norm(exact.sigma - cov.matrix)
    assert abs(diag.cov_diff_norm - want) <= 1e-13 * want, \
        "Q=%d: %r against the formed difference %r" % (
            exact.space.dof_count, diag.cov_diff_norm, want)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 32)])
def test_diagnostics_run_no_mass_solve(d, n, monkeypatch):
    # both norms come from operators already at hand: the two stiffnesses
    # and the two covariances
    exact, cov, s_est, est = _mle_case(d, n)
    exact.spectrum, exact.s_exact, exact.covariance  # inputs, built first

    def no_solve(*args, **kwargs):
        raise AssertionError("the diagnostics ran a mass solve")

    for name in ("solve_lt", "solve"):
        monkeypatch.setattr(fem.MassMatrix, name, no_solve)
    monkeypatch.setattr(fem.MassMatrix, "_axis_inverses", property(no_solve))
    diag = spectral.diagnostics(exact.spectrum, est, exact.s_exact, s_est,
                                exact.covariance, cov.matrix, exact.field, 3)
    assert diag.cov_diff_norm > 0.0
    lo, hi = diag.sandwich_interval
    assert lo <= diag.weyl_bound <= hi


@pytest.mark.parametrize("d, n", [(1, 32), (2, 8), (1, 256)])
def test_sandwich_catches_a_stiffness_without_the_mass_factor(d, n):
    # the estimate passed untransformed as its own stiffness: Weyl's
    # inequality holds for any two symmetric matrices, but the distance of
    # that matrix to S-tilde_exact is far outside the mass-spectrum interval
    # of the covariance difference
    exact, cov, _, _ = _mle_case(d, n)
    s_est = cov.matrix
    est = spectral.eigensolve(s_est, exact.mass, 3)
    with pytest.raises(NumericError, match="escapes the sandwich"):
        spectral.diagnostics(exact.spectrum, est, exact.s_exact, s_est,
                             exact.covariance, cov.matrix, exact.field, 3)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 8)])
def test_diagnostics_densifies_the_difference_bit_for_bit(d, n, monkeypatch):
    # below the Lanczos switch the Weyl bound is the dense eigvalsh of the
    # applied difference, which is the difference of the two dense
    # stiffnesses bit for bit, and S-tilde_exact - S-tilde_est within
    # roundoff of the oracle's dense transform (tests/reference.py)
    exact, cov, s_est, est = _mle_case(d, n)
    Q = exact.space.dof_count
    assert Q < spectral._LANCZOS_MIN_DOF
    seen, eigvalsh = [], np.linalg.eigvalsh

    def recording_eigvalsh(A):
        seen.append(np.array(A))
        return eigvalsh(A)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    spectral.diagnostics(exact.spectrum, est, exact.s_exact, s_est,
                         exact.covariance, cov.matrix, exact.field, 3)
    assert np.array_equal(seen[0], exact.s_exact @ np.eye(Q) - s_est)
    want = reference.dense_stiffness(exact.mass)
    assert np.max(np.abs(seen[0] - (want - s_est))) \
        <= 16 * np.finfo(float).eps * np.max(np.abs(want))


class _RankOneUpdate:
    """The operator v -> A v + c z (z . v), applied, never formed."""

    def __init__(self, A, c, z):
        self.shape = A.shape
        self._A, self._c, self._z = A, c, z

    def __matmul__(self, X):
        return self._A @ X + self._c * np.multiply.outer(self._z, self._z @ X)


def test_diagnostics_2d_n64_forms_no_q_by_q_difference():
    # at Q_h = 4225 one Q_h x Q_h float64 array is 143 MB: the diagnostics
    # apply S-tilde_exact and the exact covariance per axis and the
    # differences to vectors, so they allocate less than one such array
    # beyond their inputs
    import tracemalloc

    exact = mercer.ExactSide(2, 64, 3)
    Q = exact.space.dof_count
    # S-tilde_exact formed densely and exactly symmetric by the oracle
    dense = reference.dense_stiffness(exact.mass)
    dense[0, 0] += 0.01  # a rank-one estimate error of norm 0.01
    assert np.array_equal(dense, dense.T)
    s_est = dense
    # its covariance: the error 0.01 e_0 e_0^T transformed back, z z^T with
    # z = 0.1 L^{-T} e_0
    z = 0.1 * exact.mass.solve_lt(np.eye(Q)[:, 0])
    cov_est = _RankOneUpdate(exact.covariance, 1.0, z)
    spec = exact.spectrum
    exact.field.gaps(3), exact.field.eigenvalues(4)  # inputs, built first
    tracemalloc.start()
    try:
        diag = spectral.diagnostics(spec, spec, exact.s_exact, s_est,
                                    exact.covariance, cov_est, exact.field, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Q * Q * 8, "peak %.1f MB" % (peak / 1e6)
    assert abs(diag.weyl_bound - 0.01) <= 1e-13
    assert abs(diag.cov_diff_norm - z @ z) <= 1e-13 * (z @ z)


def test_diagnostics_validates_rank():
    exact = support.exact_side(1, 8)
    spec, s_exact, cov = exact.spectrum, exact.s_exact, exact.covariance
    for L in (0, 10):
        with pytest.raises(ValueError):
            spectral.diagnostics(spec, spec, s_exact, s_exact, cov, cov,
                                 exact.field, L)
