"""The Brownian field object (kernel and KL oracle), batch sampling and
the sup-moment diagnostic of a batch."""

import math

import numpy as np
import pytest

import reference
import support
from covrecon import estimators, fem, fields, mercer


# ---------------------------------------------------------------------------
# analytic fields
# ---------------------------------------------------------------------------

def test_field_kinds_and_regularity():
    f1 = fields.KlOracle(1)
    assert f1.kind == "BrownianMotion1D" and f1.dim == 1
    f2 = fields.KlOracle(2)
    assert f2.kind == "BrownianSheet2D" and f2.dim == 2
    with pytest.raises(ValueError):
        fields.KlOracle(3)
    # the field carries no smoothness: the pipeline reads it from the config
    assert support.make_config(d=2, delta=1e-2).s == 0.5 - 1e-2, \
        "default regularity must be 0.5 - delta"


def test_field_covariance_symmetry_and_psd():
    rng = np.random.default_rng(3)
    for d in (1, 2):
        field = fields.KlOracle(d)
        for trial in range(3):
            pts = rng.random((20, d))
            C = field.covariance(pts, pts)
            assert support.max_offdiag_asym(C) <= 1e-15
            assert reference.psd_check(field, pts), \
                "covariance must be positive semidefinite on any point set"


def test_field_covariance_values():
    field = fields.KlOracle(1)
    X = np.array([[0.2], [0.7]])
    C = field.covariance(X, X)
    assert np.allclose(C, [[0.2, 0.2], [0.2, 0.7]], atol=1e-15)
    field2 = fields.KlOracle(2)
    X2 = np.array([[0.5, 0.25], [1.0, 1.0]])
    C2 = field2.covariance(X2, X2)
    assert abs(C2[0, 0] - 0.125) <= 1e-15, "sheet variance is the product x1*x2"
    assert abs(C2[0, 1] - 0.125) <= 1e-15


# ---------------------------------------------------------------------------
# KL oracle, 1d
# ---------------------------------------------------------------------------

def test_oracle_1d_eigenvalues():
    o = fields.KlOracle(1)
    lams = o.eigenvalues(50)
    assert abs(lams[0] - 4.0 / np.pi ** 2) <= 1e-12 * lams[0]
    assert abs(lams[1] - 4.0 / (9.0 * np.pi ** 2)) <= 1e-15
    assert np.all(lams[:-1] > lams[1:]), "eigenvalues must decrease strictly"
    assert o.eigenvalues(0).shape == (0,)


def test_oracle_1d_gap_identities():
    o = fields.KlOracle(1)
    gaps = o.gaps(20)
    ratio = o.eigenvalues(1)[0] / gaps[0]
    assert abs(ratio - 9.0 / 8.0) <= 1e-14, \
        "lambda_1 / gap_1 must equal 9/8 (the pi^2 factors cancel)"
    for ell in range(1, 21):
        assert abs(gaps[ell - 1] - reference.brownian_gap(ell)) <= 1e-16, \
            "gap at index %d disagrees with the min-formula reference" % ell


def test_oracle_1d_eigenfunctions_orthonormal():
    o = fields.KlOracle(1)
    x, w = np.polynomial.legendre.leggauss(256)
    pts = (x[:, None] + 1.0) / 2.0
    w = w / 2.0
    P = np.column_stack([o.eigenfunction(l, pts) for l in range(1, 11)])
    gram = P.T @ (w[:, None] * P)
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-8, \
        "first 10 eigenfunctions must be L2-orthonormal"


def test_oracle_1d_eigenfunction_values():
    o = fields.KlOracle(1)
    pts = np.array([[0.5]])
    # sqrt(2) sin((l - 1/2) pi x)
    assert abs(o.eigenfunction(1, pts)[0]
               - np.sqrt(2.0) * np.sin(0.25 * np.pi)) <= 1e-15
    assert abs(o.eigenfunction(2, pts)[0]
               - np.sqrt(2.0) * np.sin(0.75 * np.pi)) <= 1e-15


def test_oracle_validation():
    o = fields.KlOracle(1)
    with pytest.raises(ValueError):
        o.eigenvalues(-1)
    with pytest.raises(ValueError):
        o.gaps(0)
    with pytest.raises(ValueError):
        o.eigenfunction(0, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        o.eigenfunction(1, np.zeros(3))  # not (npts, d)
    with pytest.raises(ValueError):
        fields.KlOracle(3)


@pytest.mark.parametrize("d, grid", [(1, 5000), (2, 1100)])
def test_oracle_rank_table_matches_brute_grid_sort(d, grid):
    # the table starts with 64 (1D) or 204 (2D) ranks, so rank 5000 takes
    # several extensions; eigenvalues and gaps stay bit for bit the scalar
    # one-axis formulas, rank by rank
    count = 5000
    o = fields.KlOracle(d)
    lams, gaps = o.eigenvalues(count), o.gaps(count)
    brute = reference.kl_ranks(d, count, grid)
    assert np.array_equal(o._pairs[:count], brute)
    lam1 = fields._lam1
    scale = lam1(1) ** (d - 1)
    for ell, (*axes, m) in enumerate(brute, 1):
        assert lams[ell - 1] == math.prod(lam1(l) for l in axes), ell
        below, lam, above = (lam1((p + 1) / 2) * scale
                             for p in (m - 2, m, m + 2))
        assert gaps[ell - 1] == min(np.inf if m == 1 else below - lam,
                                    lam - above), ell


# ---------------------------------------------------------------------------
# KL oracle, 2d
# ---------------------------------------------------------------------------

def test_oracle_2d_eigenvalues_match_brute_enumeration():
    o = fields.KlOracle(2)
    brute = reference.sheet_eigenvalues(30)
    got = o.eigenvalues(30)
    assert np.max(np.abs(got - brute)) <= 1e-14 * brute[0], \
        "2d ranking must match the brute-force sorted enumeration"
    assert abs(got[0] - (4.0 / np.pi ** 2) ** 2) <= 1e-15
    # multiplicity two whenever the index pair is asymmetric
    assert got[1] == got[2], "modes (1,2) and (2,1) must tie exactly"


def test_oracle_2d_gaps_skip_equal_values():
    o = fields.KlOracle(2)
    for ell, g in enumerate(o.gaps(15), 1):
        assert g > 0.0, "gap must be to the nearest *distinct* value"
        assert abs(g - reference.sheet_gap(ell)) <= 1e-16, \
            "2d gap at rank %d disagrees with the brute reference" % ell


def test_oracle_2d_eigenfunctions_orthonormal():
    o = fields.KlOracle(2)
    x, w = np.polynomial.legendre.leggauss(64)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    wts = np.outer(w, w).ravel()
    P = np.column_stack([o.eigenfunction(l, pts) for l in range(1, 7)])
    gram = P.T @ (wts[:, None] * P)
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-8


def test_oracle_tail_sums():
    o1 = fields.KlOracle(1)
    assert abs(o1.sum_sq_total() - 1.0 / 6.0) <= 1e-16
    assert abs(o1.tail_sq(0) - 1.0 / 6.0) <= 1e-12, \
        "capped series plus remainder must recover the Parseval total"
    assert abs(o1.tail_sq(1) - reference.e1_parseval(1) ** 2) <= 1e-16
    assert abs(np.sqrt(o1.tail_sq(1)) - reference.e1_closed_rank1()) \
        <= 1e-12 * reference.e1_closed_rank1()
    o2 = fields.KlOracle(2)
    assert o2.sum_sq_total() == 1.0 / 36.0
    assert abs(o2.tail_sq(0) - 1.0 / 36.0) <= 1e-16
    tails = [o2.tail_sq(L) for L in range(0, 12)]
    assert all(a > b >= 0.0 for a, b in zip(tails, tails[1:]))
    with pytest.raises(ValueError):
        o1.tail_sq(-1)


@pytest.mark.parametrize("L", [0, 1, 3, 100, 10 ** 6])
def test_tail_sq_1d_matches_hurwitz_zeta(L):
    import mpmath

    want = reference.tail_sq_mpmath(L)
    got = fields.KlOracle(1).tail_sq(L)
    assert isinstance(got, float)
    with mpmath.workdps(40):
        rel = float(abs(mpmath.mpf(got) - want) / want)
    assert rel <= 1e-15, "tail_sq(%d) is %.2e relative off zeta(4, L+1/2)" \
        % (L, rel)


@pytest.mark.parametrize("L", [1, 3, 10, 40, 400])
def test_tail_sq_2d_matches_the_40_digit_tail(L):
    import mpmath

    want = reference.tail_sq_2d_mpmath(L)
    got = fields.KlOracle(2).tail_sq(L)
    assert isinstance(got, float)
    with mpmath.workdps(40):
        rel = float(abs(mpmath.mpf(got) - want) / want)
    assert rel <= 1e-15, "2D tail_sq(%d) is %.2e relative off 40 digits" \
        % (L, rel)


# ---------------------------------------------------------------------------
# sampling: stream contract
# ---------------------------------------------------------------------------

def _axis_cholesky(space):
    """Cholesky factor of the min kernel on the interior axis nodes."""
    pos = space.mesh.axis_nodes[1:]
    return np.linalg.cholesky(np.minimum.outer(pos, pos))


def _sheet_lattice(z, h):
    """sqrt(h)^2 times the cumulative sums of an (n, n) increment block
    along x, then along y: the documented 2D nodal construction on the
    interior nodes."""
    return np.cumsum(np.cumsum(z, axis=0), axis=1) * np.sqrt(h) ** 2


def test_standard_normals_match_jumped_definition():
    # the implementation resets one Philox counter per block of samples and
    # draws whole blocks into the result; it must agree with the fresh
    # jumped-generator definition row for row: for a count that is not a
    # multiple of B, for a request that starts and stops inside a block, and
    # once the block index carries into the counter's high word (m >= 2^64 B)
    B = reference.SAMPLE_BLOCK
    assert fields._SAMPLE_BLOCK == B, "the block size is part of the contract"
    assert fields._SAMPLE_CHUNK % B == 0, "chunks must hold whole blocks"
    for seed in (0, 42):
        for start, count in ((0, 6), (B - 3, 2 * B + 5),
                             (2 ** 64 * B - 2, 4)):
            rows = fields._standard_normals(seed, start, count, (16,))
            assert rows.shape == (count, 16)
            for i in range(count):
                assert np.array_equal(
                    rows[i], reference.block_normals(seed, start + i, 16)), \
                    "stream %d deviates from the block definition" \
                    % (start + i)
    square = fields._standard_normals(3, 4, 2, (3, 3))
    assert np.array_equal(square[1], reference.block_normals(3, 5, (3, 3)))


def test_standard_normals_golden_values():
    # literal values of the contract (seed 0, shape (4,); samples 0, B - 1
    # and B for the block size B = 64): a change to numpy's Philox or
    # ziggurat, or to the contract, must fail here even when the sampler and
    # the reference move together
    rows = fields._standard_normals(0, 0, 65, (4,))
    golden = {0: [-0.2059740286292238, -0.12884495093462758,
                  -0.28978987549091256],
              63: [-1.730737354734555, 0.820758592950756,
                   -0.5244185928009969],
              64: [0.4156171112795787, 2.415201797456255,
                   -0.1334783958166111]}
    for m, want in golden.items():
        assert np.array_equal(rows[m, :3], want), \
            "sample %d moved: %r" % (m, rows[m, :3].tolist())


def test_nodal_draw_matches_manual_construction():
    space = fem.build_space(1, 2)
    field = fields.KlOracle(1)
    batch = fields.draw_batch(field, space, 3, seed=7)
    h = space.mesh.h
    for m in range(3):
        z = reference.block_normals(7, m, 2)
        row = np.concatenate([[0.0], np.sqrt(h) * np.cumsum(z)])
        assert np.array_equal(batch.coeffs[m], row), \
            "1d nodal sample must be the scaled cumulative sum of increments"


def test_nodal_draw_2d_matches_manual_construction():
    # row m is the lattice of cumulative sums of its increments along both
    # axes, pinned to zero on both axes; Lx z_m Lx^T of the per-axis Cholesky
    # factor Lx = sqrt(h) tril(1) is the same lattice up to roundoff
    for n in (2, 5):
        space = fem.build_space(2, n)
        batch = fields.draw_batch(fields.KlOracle(2), space, 4, seed=11)
        Lx = _axis_cholesky(space)
        for m in range(4):
            z = reference.block_normals(11, m, (n, n))
            lattice = batch.coeffs[m].reshape(n + 1, n + 1)
            assert np.all(lattice[0] == 0.0) and np.all(lattice[:, 0] == 0.0)
            assert np.array_equal(lattice[1:, 1:],
                                  _sheet_lattice(z, space.mesh.h)), \
                "2d nodal sample %d must be the double cumulative sum bit " \
                "for bit" % m
            chol = Lx @ z @ Lx.T
            assert np.max(np.abs(lattice[1:, 1:] - chol)) \
                <= 1e-13 * np.max(np.abs(chol))


def test_nodal_draw_2d_golden_values():
    # literal lattice rows at x = 1 (seed 0, n = 4; samples 0, B - 1 and B):
    # a change to the 2D construction must fail here even when the test
    # oracle moves with it
    batch = fields.draw_batch(fields.KlOracle(2), fem.build_space(2, 4), 65,
                              seed=0)
    golden = {0: [0.1653637567649885, 0.7652523582794684,
                  0.5863301737548208, 0.3678920899125844],
              63: [-0.20480995693722076, 0.12258325335524184,
                   0.06678642486859765, 0.35698651621604066],
              64: [-0.09457638057119308, 0.6011261869429848,
                   0.9053790127684442, 0.866857849671196]}
    for m, want in golden.items():
        lattice = batch.coeffs[m].reshape(5, 5)
        assert np.array_equal(lattice[4], [0.0] + want), \
            "sample %d moved: %r" % (m, lattice[4].tolist())


def test_draw_chunk_invariance():
    # a block never depends on M, so a prefix of a big batch equals a small
    # one, also when the small M is not a multiple of the block size
    space = fem.build_space(1, 4)
    field = fields.KlOracle(1)
    small = fields.draw_batch(field, space, 10, seed=3)
    big = fields.draw_batch(field, space, 5000, seed=3)
    head = big.prefix(10)
    assert np.array_equal(small.coeffs, head.coeffs), \
        "sample values must not depend on the batch size"
    assert np.shares_memory(head.coeffs, big.coeffs), "a prefix is a view"
    assert not head.coeffs.flags.writeable and head.seed == 3
    for M in (0, 5001):
        with pytest.raises(ValueError):
            big.prefix(M)
    # in 2D, past the chunk boundary of the sampler
    space2 = fem.build_space(2, 3)
    field2 = fields.KlOracle(2)
    M = fields._SAMPLE_CHUNK + 4
    small = fields.draw_batch(field2, space2, 10, seed=3)
    big = fields.draw_batch(field2, space2, M, seed=3)
    assert np.array_equal(small.coeffs, big.coeffs[:10])
    tail = fields._standard_normals(3, M - 2, 2, (3, 3))
    lattice = big.coeffs[-2:].reshape(2, 4, 4)
    Lx = _axis_cholesky(space2)
    for z, got in zip(tail, lattice):
        assert np.array_equal(got[1:, 1:], _sheet_lattice(z, space2.mesh.h)), \
            "samples of the second chunk must keep their own streams"
        chol = Lx @ z @ Lx.T
        assert np.max(np.abs(got[1:, 1:] - chol)) \
            <= 1e-13 * np.max(np.abs(chol))


def test_draw_seed_determinism():
    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    a = fields.draw_batch(field, space, 20, seed=5)
    b = fields.draw_batch(field, space, 20, seed=5)
    c = fields.draw_batch(field, space, 20, seed=6)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert not a.coeffs.flags.writeable, "batch coefficients must be frozen"


def test_draw_validation():
    space = fem.build_space(1, 4)
    field = fields.KlOracle(1)
    with pytest.raises(ValueError):
        fields.draw_batch(field, space, 0)
    with pytest.raises(ValueError):
        fields.draw_batch(field, space, 5, mode="Bogus")
    with pytest.raises(ValueError):
        fields.draw_batch(field, space, 5, mode=fields.MODE_PROJECTION)
    with pytest.raises(ValueError):
        fields.draw_batch(fields.KlOracle(2), space, 5)


# ---------------------------------------------------------------------------
# sampling: distribution checks
# ---------------------------------------------------------------------------

def test_nodal_covariance_small_grid():
    # spec'd pointwise check: cov of the nodes x=0.5 and x=1.0
    space = fem.build_space(1, 2)
    field = fields.KlOracle(1)
    M = 100_000
    batch = fields.draw_batch(field, space, M, seed=17)
    c = batch.coeffs
    cov = float(np.mean(c[:, 1] * c[:, 2])
                - np.mean(c[:, 1]) * np.mean(c[:, 2]))
    stderr = np.sqrt((0.5 * 1.0 + 0.5 ** 2) / M)
    assert abs(cov - 0.5) <= 3.0 * stderr, \
        "empirical cov(K(0.5), K(1.0)) = %.5f is off by more than 3 sigma" % cov
    assert np.all(c[:, 0] == 0.0), "the field is pinned to zero at x=0"


def test_nodal_batch_covariance_entrywise_1d():
    from covrecon import estimators

    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    M = 100_000
    batch = fields.draw_batch(field, space, M, seed=29)
    sigma = mercer.ExactSide(1, 8, 1).sigma
    est = estimators.mle_covariance(batch).matrix
    se = reference.gaussian_cov_stderr(sigma, M)
    inner = np.ix_(range(1, 9), range(1, 9))  # node 0 is deterministic
    frac = np.mean(np.abs(est - sigma)[inner] <= 5.0 * se[inner])
    assert frac >= 0.99, \
        "only %.1f%% of covariance entries are within 5 standard errors" \
        % (100 * frac)


def test_nodal_batch_covariance_entrywise_2d():
    from covrecon import estimators

    space = fem.build_space(2, 4)
    field = fields.KlOracle(2)
    M = 20_000
    batch = fields.draw_batch(field, space, M, seed=31)
    sigma = mercer.ExactSide(2, 4, 1).sigma
    # boundary nodes (either coordinate 0) must vanish identically
    zero_cols = np.where(np.diag(sigma) == 0.0)[0]
    assert np.all(batch.coeffs[:, zero_cols] == 0.0)
    est = estimators.mle_covariance(batch).matrix
    se = reference.gaussian_cov_stderr(sigma, M)
    live = np.where(np.diag(sigma) > 0.0)[0]
    sub = np.ix_(live, live)
    frac = np.mean(np.abs(est - sigma)[sub] <= 5.0 * se[sub])
    assert frac >= 0.99


def test_exact_side_sigma_is_the_nodal_covariance():
    # the Kronecker power of the axis covariance is the kernel at node pairs
    for d, n in ((1, 2), (1, 7), (2, 2), (2, 5)):
        exact = mercer.ExactSide(d, n, 1)
        nodes = exact.space.mesh.nodes
        assert np.array_equal(exact.sigma,
                              exact.field.covariance(nodes, nodes)), \
            "%dD n=%d: sigma is not R at the node pairs" % (d, n)
    assert np.array_equal(mercer.ExactSide(1, 2, 1).sigma,
                          [[0.0, 0.0, 0.0],
                           [0.0, 0.5, 0.5],
                           [0.0, 0.5, 1.0]])
    exact7 = mercer.ExactSide(1, 7, 1)
    assert np.array_equal(np.diag(exact7.sigma), exact7.space.mesh.nodes[:, 0]), \
        "Brownian variance at a node equals its coordinate"


def test_kl_partial_sum_parseval_check():
    # truncated Mercer series of the analytic kernel on a 9 x 9 grid
    o = fields.KlOracle(1)
    x = np.linspace(0.0, 1.0, 9)[:, None]
    K = 500
    lams = o.eigenvalues(K)
    P = np.column_stack([o.eigenfunction(l, x) for l in range(1, K + 1)])
    partial = (P * lams) @ P.T
    exact = np.minimum(x, x.T)
    assert np.max(np.abs(partial - exact)) < 1e-3, \
        "rank-500 KL partial sum must be uniformly 1e-3 close to min(x, y)"


def test_projection_mode_variance_cross_check():
    # both sampling modes must reproduce the nodal variances x_j; the spread
    # is measured relative to the largest variance on the mesh
    space = fem.build_space(1, 16)
    field = fields.KlOracle(1)
    M = 200_000
    nodes = space.mesh.nodes[:, 0]
    proj = fields.draw_batch(field, space, M, mode=fields.MODE_PROJECTION,
                             seed=5, kl_trunc=200)
    assert proj.kl_trunc == 200 and proj.mode == fields.MODE_PROJECTION
    var_p = np.var(proj.coeffs, axis=0)
    dev_p = np.max(np.abs(var_p - nodes)) / np.max(nodes)
    assert dev_p <= 0.02, \
        "projection-mode variances deviate by %.2f%% of the peak" % (100 * dev_p)
    nod = fields.draw_batch(field, space, M, seed=5)
    dev_n = np.max(np.abs(np.var(nod.coeffs, axis=0) - nodes)) / np.max(nodes)
    assert dev_n <= 0.02


def test_projection_mode_seed_and_shape(monkeypatch):
    # a row depends on (seed, m) alone: not on how many samples are drawn
    # beside it, nor on where the 4096-sample chunks fall
    for d, n in ((1, 8), (2, 4)):
        space = fem.build_space(d, n)
        field = fields.KlOracle(d)

        def draw(M):
            return fields.draw_batch(field, space, M,
                                     mode=fields.MODE_PROJECTION, seed=9,
                                     kl_trunc=40).coeffs

        a = draw(12)
        assert np.array_equal(a, draw(12))
        assert a.shape == (12, space.dof_count)
        big = draw(4100)
        for M in (4, 12, 200):
            assert np.array_equal(draw(M), big[:M]), \
                "projection rows must not depend on the batch size (%dD, " \
                "M=%d)" % (d, M)
        monkeypatch.setattr(fields, "_SAMPLE_CHUNK", 1000)
        assert np.array_equal(draw(4100), big), \
            "projection rows must not depend on the chunking (%dD)" % (d,)
        monkeypatch.undo()


def test_projection_map_is_kept_on_the_space():
    # the sample-free map P is built by the first draw on a space; a second
    # draw reuses it and matches a draw on a fresh space bit for bit
    for d, n in ((1, 16), (2, 4)):
        field = fields.KlOracle(d)
        space = fem.build_space(d, n)

        def draw(sp, seed):
            return fields.draw_batch(field, sp, 70, mode=fields.MODE_PROJECTION,
                                     seed=seed, kl_trunc=30).coeffs

        draw(space, 1)
        kept = dict(space.kl_projections)
        assert list(kept) == [30]
        again = draw(space, 5)
        assert space.kl_projections[30] is kept[30]
        assert np.array_equal(again, draw(fem.build_space(d, n), 5)), \
            "%dD: a draw on a space with a kept map must match a fresh " \
            "space" % (d,)


def test_projection_mode_is_the_exact_l2_projection():
    # independent projection: the KL series from the eigenfunction oracle and
    # the documented normals, integrated against the hats by a 6-point Gauss
    # rule on a 16x refined mesh (on each cell the sines turn by under 0.5
    # rad) and solved with the quadrature mass.  The two agree to 1.4e-15
    # of the largest coefficient; the bound is 1e-13.
    seed = 4
    for d, n, K, M in ((1, 8, 40, 5), (2, 4, 30, 3)):
        field = fields.KlOracle(d)
        space = fem.build_space(d, n)
        batch = fields.draw_batch(field, space, M, mode=fields.MODE_PROJECTION,
                                  seed=seed, kl_trunc=K)
        pts, wts = reference.gauss_points(d, n * 16, 6)
        T = reference.hat_values(d, n, pts)
        phi = np.sqrt(field.eigenvalues(K)) * np.column_stack(
            [field.eigenfunction(l, pts) for l in range(1, K + 1)])
        psi = np.array([reference.block_normals(seed, m, K)
                        for m in range(M)])
        load = (psi @ phi.T * wts) @ T
        want = np.linalg.solve(reference.mass_quadrature(d, n), load.T).T
        err = np.max(np.abs(batch.coeffs - want)) / np.max(np.abs(want))
        assert err <= 1e-13, "%dD projection off by %.2e" % (d, err)


# ---------------------------------------------------------------------------
# sup-moment diagnostic
# ---------------------------------------------------------------------------

def test_moment_diagnostics_basics():
    space = fem.build_space(1, 4)
    zero = fields.SampleBatch(space, np.zeros((3, 5)), fields.MODE_NODAL,
                              None, 0, "BrownianMotion1D")
    d = estimators.subgaussian_diagnostic(zero)
    assert d.c_inf_hat == 0.0 and d.rho_inv_nodal == 0.0
    one = fields.SampleBatch(space, np.zeros((1, 5)), fields.MODE_NODAL,
                             None, 0, "BrownianMotion1D")
    with pytest.raises(ValueError):
        estimators.subgaussian_diagnostic(one)


def test_moment_diagnostics_scaling_and_centering():
    space = fem.build_space(1, 8)
    field = fields.KlOracle(1)
    batch = fields.draw_batch(field, space, 10_000, seed=13)
    d = estimators.subgaussian_diagnostic(batch)
    assert np.isfinite(d.c_inf_hat) and d.c_inf_hat > 0.0
    # centering |E field| <= c_inf, with Monte Carlo slack 3 c_inf / sqrt(M)
    mean_max_abs = np.max(np.abs(np.mean(batch.coeffs, axis=0)))
    assert mean_max_abs <= 3.0 * d.c_inf_hat / np.sqrt(batch.sample_count), \
        "a centered field must pass the mean bound"
    double = fields.SampleBatch(space, 2.0 * batch.coeffs, batch.mode,
                                None, 13, batch.field_kind)
    d2 = estimators.subgaussian_diagnostic(double)
    assert abs(d2.c_inf_hat - 2.0 * d.c_inf_hat) <= 1e-12 * d2.c_inf_hat, \
        "sup-moment estimate must scale linearly with the field"
