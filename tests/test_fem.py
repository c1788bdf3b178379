"""Meshes, P1 spaces, mass matrices, projections and kernel norms."""

import numpy as np
import pytest
import scipy.linalg as sla

import reference
from covrecon import fem
from covrecon.errors import NumericError


# ---------------------------------------------------------------------------
# meshes and spaces
# ---------------------------------------------------------------------------

def test_mesh_1d_basic():
    mesh = fem.Mesh(1, 2)
    assert mesh.h == 0.5 and mesh.node_count == 3, "n=2 grid must have 3 nodes"
    assert np.array_equal(mesh.axis_nodes, [0.0, 0.5, 1.0])
    assert np.array_equal(mesh.nodes, [[0.0], [0.5], [1.0]]), \
        "1d nodes must be an (n+1, 1) point block"
    mesh = fem.Mesh(1, 4)
    assert mesh.node_count == 5 and mesh.h == 0.25


def test_mesh_width_is_exact_reciprocal():
    for n in (2, 3, 7, 64, 100):
        assert fem.Mesh(1, n).h == 1.0 / n, \
            "mesh width must be the float reciprocal of n=%d" % n


def test_mesh_2d_lexicographic_nodes():
    mesh = fem.Mesh(2, 2)
    assert mesh.node_count == 9
    # flat index j = ix * (n+1) + iy: x varies slowest
    expected = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
    assert np.array_equal(mesh.nodes, np.array(expected)), \
        "2d nodes must enumerate lexicographically with x slowest"


def test_mesh_validation():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            fem.Mesh(1, bad)
    with pytest.raises(ValueError):
        fem.Mesh(3, 4)


def test_space_dof_count():
    assert fem.build_space(1, 6).dof_count == 7
    assert fem.build_space(2, 6).dof_count == 49


# ---------------------------------------------------------------------------
# basis evaluation (the tent-formula hats every oracle integrates against)
# ---------------------------------------------------------------------------

def test_basis_partition_of_unity():
    rng = np.random.default_rng(11)
    for d, n in ((1, 5), (2, 3)):
        pts = rng.random((40, d))
        T = reference.hat_values(d, n, pts)
        assert T.shape == (40, (n + 1) ** d)
        assert np.max(np.abs(T.sum(axis=1) - 1.0)) <= 1e-12, \
            "hat functions must sum to one everywhere in the domain"
        assert np.min(T) >= 0.0


def test_basis_interpolates_nodal_values():
    for d, n in ((1, 8), (2, 3)):
        T = reference.hat_values(d, n, fem.build_space(d, n).mesh.nodes)
        assert np.array_equal(T, np.eye((n + 1) ** d)), \
            "basis at the mesh nodes must be the identity (%dD)" % (d,)


def test_basis_matches_reference_hats():
    # a hat expansion is the piecewise linear interpolant of its coefficients
    x = np.linspace(0.0, 1.0, 97)
    nodes = np.linspace(0.0, 1.0, 14)
    f = np.random.default_rng(5).standard_normal(14)
    got = reference.hat_values(1, 13, x[:, None]) @ f
    assert np.max(np.abs(got - np.interp(x, nodes, f))) <= 1e-14


def test_quadrature_points_weights():
    for d, n, q in ((1, 5, 3), (2, 3, 2)):
        pts, wts = reference.gauss_points(d, n, q)
        assert pts.shape == ((n * q) ** d, d)
        assert abs(wts.sum() - 1.0) <= 1e-13, "weights must integrate 1 exactly"
        assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_quadrature_integrates_polynomials_exactly():
    pts, wts = reference.gauss_points(1, 4, 3)
    # q=3 Gauss is exact through degree 5
    for k in range(6):
        assert abs(wts @ pts[:, 0] ** k - 1.0 / (k + 1)) <= 1e-14, \
            "degree-%d monomial must integrate exactly" % k


# ---------------------------------------------------------------------------
# mass matrices
# ---------------------------------------------------------------------------

def test_mass_stencil_n2_exact():
    mass = fem.assemble_mass(fem.build_space(1, 2))
    expected = np.array([[1 / 6, 1 / 12, 0.0],
                         [1 / 12, 1 / 3, 1 / 12],
                         [0.0, 1 / 12, 1 / 6]])
    assert np.array_equal(reference.dense_mass(mass), expected), \
        "n=2 mass matrix must match the exact h/6 stencil bit for bit"


def test_mass_bands_match_the_stencil_oracle():
    # the library's bands of G1, the stencil action and the oracle's dense
    # G1 agree bit for bit
    for n in (2, 3, 7, 64, 255, 512):
        G1 = reference.dense_mass(fem.assemble_mass(fem.build_space(1, n)))
        a, b = fem._mass_bands(n)
        assert np.array_equal(a, np.diag(G1)) \
            and np.array_equal(b, np.diag(G1, -1)), "n=%d: bands" % n
        assert np.array_equal(fem._axis_mass_action(np.eye(n + 1)[None])[0],
                              G1), \
            "n=%d: stencil action" % n


def test_mass_row_sums_and_total():
    mass = fem.assemble_mass(fem.build_space(1, 6))
    h = 1.0 / 6
    G1 = reference.dense_mass(mass)
    sums = G1.sum(axis=1)
    assert np.allclose(sums[1:-1], h, rtol=1e-14, atol=0.0)
    assert np.allclose(sums[[0, -1]], h / 2, rtol=1e-14, atol=0.0)
    assert abs(G1.sum() - 1.0) <= 1e-12
    mass2 = fem.assemble_mass(fem.build_space(2, 4))
    assert abs(reference.dense_mass(mass2).sum() - 1.0) <= 1e-12, \
        "2d mass entries must sum to the domain volume 1"


def test_mass_2d_is_kron_and_matches_quadrature():
    mass = fem.assemble_mass(fem.build_space(2, 3))
    one = fem.assemble_mass(fem.build_space(1, 3))
    assert all(np.array_equal(x, y)
               for x, y in zip(mass.axis.chol_bands, one.chol_bands))
    ref = reference.mass_quadrature(2, 3, q=4)
    assert np.max(np.abs(reference.dense_mass(mass) - ref)) <= 1e-15, \
        "stencil mass must agree with quadrature-assembled reference"


def test_mass_1d_matches_quadrature_reference():
    for n in (2, 5, 9):
        mass = fem.assemble_mass(fem.build_space(1, n))
        ref = reference.mass_quadrature_1d(n, q=4)
        assert np.max(np.abs(reference.dense_mass(mass) - ref)) <= 1e-15
        a, b = fem._mass_bands(n)
        assert np.max(np.abs(a - np.diag(ref))) <= 1e-15
        assert np.max(np.abs(b - np.diag(ref, -1))) <= 1e-15


def test_mass_symmetry_cholesky_and_extremes():
    for d, n in ((1, 9), (2, 4)):
        mass = fem.assemble_mass(fem.build_space(d, n))
        G = reference.dense_mass(mass)
        assert np.array_equal(G, G.T), "mass matrix must be exactly symmetric"
        # the bands of L1 must reproduce the diagonal and subdiagonal of G1
        diag, sub = mass.chol_bands
        G1 = reference.dense_mass(mass.axis)
        resid = max(
            np.max(np.abs(diag ** 2 + np.append(0.0, sub ** 2) - np.diag(G1))),
            np.max(np.abs(sub * diag[:-1] - np.diag(G1, -1))))
        assert resid <= 1e-12 * mass.axis.lambda_max, \
            "Cholesky roundtrip must reproduce the mass matrix"
        assert 0.0 < mass.lambda_min <= mass.lambda_max
        vals = np.linalg.eigvalsh(G)
        assert abs(vals[0] - mass.lambda_min) <= 1e-12 * mass.lambda_max
        assert abs(vals[-1] - mass.lambda_max) <= 1e-12 * mass.lambda_max


def test_mass_actions_match_the_dense_factor():
    # 2D factors only the axis mass; the bands of L1 and every action of
    # L = L1 kron L1, which run along the lattice axes in 1D as in 2D, must
    # agree with numpy's dense Cholesky factor of the dense mass
    rng = np.random.default_rng(29)
    for d, n in ((1, 2), (1, 7), (1, 8), (1, 32), (1, 255), (1, 512),
                 (2, 5), (2, 8), (2, 16)):
        mass = fem.assemble_mass(fem.build_space(d, n))
        diag, sub = mass.chol_bands
        assert diag.shape == (n + 1,) and sub.shape == (n,)
        L1 = reference.dense_chol(mass.axis)
        for got, want in ((diag, np.diag(L1)), (sub, np.diag(L1, -1))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15, \
                "d=%d n=%d: the bands disagree with the dense factor" % (d, n)
        L = reference.dense_chol(mass)
        X = rng.standard_normal((mass.dof_count, 6))
        x = rng.standard_normal(mass.dof_count)
        A = reference.random_symmetric(rng, mass.dof_count)
        cases = [("congruence", mass.congruence(A), L.T @ A @ L)]
        # every action takes a block or a single vector (Lanczos matvecs)
        for B in (X, x):
            cases += [
                ("lt", mass.lt(B), L.T @ B),
                ("solve_lt", mass.solve_lt(B),
                 sla.solve_triangular(L.T, B, lower=False)),
                ("solve", mass.solve(B), sla.cho_solve((L, True), B))]
        for name, got, want in cases:
            assert got.shape == want.shape, \
                "d=%d n=%d: %s changes the shape" % (d, n, name)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), \
                "d=%d n=%d: %s disagrees with the dense factor" % (d, n, name)


def test_mass_builds_without_dense_factorizations(monkeypatch):
    # the factor comes from its bands, the extremes from closed forms and
    # the inverses from substitutions
    def refuse(*args, **kwargs):
        raise AssertionError("a dense factorization was called")

    for name in ("cholesky", "inv", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for d in (1, 2):
        mass = fem.MassMatrix(fem.build_space(d, 16))
        x = np.ones(mass.dof_count)
        assert np.allclose(reference.dense_mass(mass) @ mass.solve(x),
                           x, rtol=1e-13, atol=0.0)
        assert np.allclose(mass.lt(mass.solve_lt(x)), x, rtol=1e-13, atol=0.0)


def test_closed_form_extremes_match_the_dense_eigenvalues():
    # lambda_min and lambda_max of G1 from the closed forms (bisected roots
    # of the end conditions) against numpy's eigvalsh of the oracle's G1
    for n in range(2, 601):
        mass = fem.assemble_mass(fem.build_space(1, n))
        vals = np.linalg.eigvalsh(reference.dense_mass(mass))
        for got, want in ((mass.lambda_min, vals[0]),
                          (mass.lambda_max, vals[-1])):
            assert abs(got - want) <= 2e-14 * want, \
                "n=%d: %r against eigvalsh %r" % (n, got, want)


def test_sturm_count_brackets_every_eigenvalue():
    # the count below x is the number of eigenvalues below x, at shifts
    # between and just around the eigenvalues of the oracle's G1
    for n in (2, 5, 16, 33):
        G1 = reference.dense_mass(fem.assemble_mass(fem.build_space(1, n)))
        vals = np.linalg.eigvalsh(G1)
        a, b2 = np.diag(G1).tolist(), (np.diag(G1, -1) ** 2).tolist()
        mids = np.concatenate(([0.5 * vals[0]], 0.5 * (vals[1:] + vals[:-1]),
                               [2.0 * vals[-1]]))
        assert [fem._sturm_count(a, b2, x) for x in mids] \
            == list(range(n + 2)), "n=%d" % n


def test_congruence_allocates_one_array():
    # L^T A L runs on the bands in place on one copy of A; a second
    # Q x Q array (a dense product, or an unblocked shifted term) fails
    import tracemalloc

    mass = fem.assemble_mass(fem.build_space(1, 1024))
    A = reference.random_symmetric(np.random.default_rng(3), 1025)
    tracemalloc.start()
    try:
        mass.congruence(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * A.nbytes, "peak %.1f MB" % (peak / 1e6)


def test_mass_2d_shares_the_axis_factor():
    mass = fem.assemble_mass(fem.build_space(2, 6))
    axis = fem.assemble_mass(fem.build_space(1, 6))
    assert mass.axis.dof_count == 7 \
        and mass.chol_bands is mass.axis.chol_bands
    assert all(np.array_equal(a, b)
               for a, b in zip(mass.chol_bands, axis.chol_bands))
    assert mass.lambda_max == axis.lambda_max ** 2
    assert not hasattr(mass, "matrix"), \
        "the dense 2D Gram matrix is never formed"


def test_mass_quadratic_form_sandwich():
    rng = np.random.default_rng(23)
    for d, n in ((1, 9), (2, 4)):
        mass = fem.assemble_mass(fem.build_space(d, n))
        for _ in range(100):
            y = rng.standard_normal(mass.dof_count)
            quad = y @ reference.dense_mass(mass) @ y
            nrm = y @ y
            assert mass.lambda_min * nrm - 1e-12 <= quad <= \
                mass.lambda_max * nrm + 1e-12, \
                "y^T G y must lie in the eigenvalue sandwich"


# ---------------------------------------------------------------------------
# kernel L2 norms (the quadrature oracle of reference.py)
# ---------------------------------------------------------------------------

def test_kernel_norm_constant_kernel():
    space = fem.build_space(1, 6)
    val = reference.kernel_l2_norm(
        space, lambda X, Y: np.ones((len(X), len(Y))), q=2)
    assert abs(val - 1.0) <= 1e-14, "norm of the constant-1 kernel is 1"


def test_kernel_norm_separable_hat_product():
    # k(x, y) = theta_0(x) theta_0(y) has norm (integral of theta_0^2) = h/3;
    # the squared integrand is degree 2 per variable, exact at q=2
    space = fem.build_space(1, 4)

    def k(X, Y):
        a = reference.hat_values(1, 4, X)[:, [0]]
        b = reference.hat_values(1, 4, Y)[:, [0]]
        return a @ b.T

    val = reference.kernel_l2_norm(space, k, q=2)
    assert abs(val - 1.0 / 12.0) <= 1e-14


def test_kernel_norm_min_kernel_matches_oracle():
    space = fem.build_space(1, 256)
    val = reference.kernel_l2_norm(space, lambda X, Y: np.minimum(X, Y.T),
                                   q=2)
    oracle = reference.min_kernel_norm_trapezoid()
    assert abs(oracle - 6.0 ** -0.5) <= 1e-7, "trapezoid oracle sanity"
    assert abs(val - oracle) <= 1e-6, \
        "min-kernel norm must match the independent oracle to 1e-6"


def test_kernel_norm_monotone_under_q_refinement():
    space = fem.build_space(1, 16)
    exact = 6.0 ** -0.5
    errs = [abs(reference.kernel_l2_norm(
        space, lambda X, Y: np.minimum(X, Y.T), q=q) - exact)
        for q in (2, 3, 4, 6)]
    assert all(a > b for a, b in zip(errs, errs[1:])), \
        "quadrature error must decrease as q grows: %r" % (errs,)


def test_kernel_norm_2d_min_product():
    space = fem.build_space(2, 8)

    def k(X, Y):
        return (np.minimum.outer(X[:, 0], Y[:, 0])
                * np.minimum.outer(X[:, 1], Y[:, 1]))

    val = reference.kernel_l2_norm(space, k, q=3)
    assert abs(val - 1.0 / 6.0) <= 2e-3, \
        "2d min-product kernel norm must approach 1/6"


def test_kernel_norm_rejects_low_order():
    space = fem.build_space(1, 4)
    with pytest.raises(ValueError):
        reference.kernel_l2_norm(
            space, lambda X, Y: np.ones((len(X), len(Y))), q=1)
