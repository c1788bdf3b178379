"""Independent reference implementations used to cross-check covrecon.

Everything in this module is computed by a different route than the package
uses: quadrature-assembled mass matrices instead of closed-form stencils,
scipy's generalized eigensolver instead of the Cholesky-transformed one,
brute-force masked sums instead of bincount tricks, mpmath instead of
log-space float arithmetic, and closed-form series for the Brownian
spectrum.  Tests compare package output against these oracles.
"""

import numpy as np
import scipy.linalg as sla
import scipy.special


# ---------------------------------------------------------------------------
# Brownian-motion spectrum (closed forms)
# ---------------------------------------------------------------------------

def brownian_lambda(ell):
    """Eigenvalue lambda_ell = pi^-2 (ell - 1/2)^-2 of the 1d min kernel."""
    ell = np.asarray(ell, dtype=float)
    return np.pi ** -2.0 * (ell - 0.5) ** -2.0


def brownian_gap(ell):
    """Spectral gap min(lambda_{ell-1} - lambda_ell, lambda_ell - lambda_{ell+1});
    the left term is +inf at ell = 1."""
    lam = brownian_lambda(ell)
    right = lam - brownian_lambda(ell + 1)
    if ell == 1:
        return right
    left = brownian_lambda(ell - 1) - lam
    return min(left, right)


def brownian_min_gap(L):
    """min_{ell <= L} of the per-index gaps."""
    return min(brownian_gap(ell) for ell in range(1, L + 1))


def gap_condition_margins(L, h, s, C1, stiffness_diff_norm):
    """Spectral-gap condition margins of the 1d Brownian spectrum, one per
    ell = 1..L: gap_ell - (4 C1 h^{2s} / lambda_{ell+1} + 4 ||S-tilde diff||),
    from the closed-form gaps and eigenvalues."""
    return np.array([
        brownian_gap(ell) - (4.0 * C1 * h ** (2.0 * s)
                             / brownian_lambda(ell + 1)
                             + 4.0 * stiffness_diff_norm)
        for ell in range(1, L + 1)])


def kl_ranks(dim, count, grid):
    """Rows (l_1, ..., l_dim, m) of the first `count` KL ranks of the
    dim-fold product min kernel, m = prod_k (2 l_k - 1), by brute
    enumeration of the grid^dim index box and a sort by m, ties broken by the
    axis indices in order."""
    axes = [g.ravel() for g in np.meshgrid(
        *[np.arange(1, grid + 1)] * dim, indexing="ij")]
    prod = np.prod([2 * g - 1 for g in axes], axis=0)
    order = np.lexsort(axes[::-1] + [prod])
    rows = np.column_stack(axes + [prod])[order][:count]
    # guard: every index tuple outside the box has a product >= 2 grid + 1,
    # so the head is exact while its products stay below that
    assert rows[-1, -1] < 2 * grid + 1, "grid too small"
    return rows


def sheet_eigenvalues(count, grid=200):
    """First `count` eigenvalues of the 2d product (Brownian sheet) kernel,
    by brute enumeration of index pairs and a descending sort."""
    l1, l2 = kl_ranks(2, count, grid)[:, :2].T
    return np.pi ** -4.0 * ((l1 - 0.5) * (l2 - 0.5)) ** -2.0


def sheet_gap(ell, grid=200):
    """2d gap to the nearest *distinct* eigenvalue above/below rank ell."""
    vals = sheet_eigenvalues(max(4 * ell, 64), grid=grid)
    distinct = np.unique(vals)[::-1]
    v = vals[ell - 1]
    pos = np.searchsorted(-distinct, -v)
    below = distinct[pos + 1] if pos + 1 < distinct.size else -np.inf
    above = distinct[pos - 1] if pos > 0 else np.inf
    return min(above - v, v - below)


def e1_parseval(L, d=1):
    """Truncation error sqrt(sum_{ell > L} lambda_ell^2) in L2(DxD) from
    Parseval: total sum_ell lambda_ell^2 = ||min||^2 = 6^-d."""
    total = 6.0 ** -d
    if d == 1:
        head = np.sum(brownian_lambda(np.arange(1, L + 1)) ** 2)
    else:
        head = np.sum(sheet_eigenvalues(L) ** 2)
    return np.sqrt(max(total - head, 0.0))


def e1_closed_rank1():
    """Closed form for the 1d truncation error at L = 1:
    sqrt(1/6 - (4/pi^2)^2) = (4/pi^2) sqrt(pi^4/96 - 1)."""
    return (4.0 / np.pi ** 2) * np.sqrt(np.pi ** 4 / 96.0 - 1.0)


def g_squared_closed(L):
    """Planner amplification G^2(L) = (1/64) * sum_{ell<=L} (2 ell + 1)^4 / ell^2
    (1d Brownian: (lambda_ell / delta-to-next)^2 summed)."""
    ell = np.arange(1, L + 1, dtype=float)
    return np.sum((2 * ell + 1) ** 4 / ell ** 2) / 64.0


def h_closed(L):
    """Planner gap budget H(L) = (min_{ell<=L} gap)^2 / 2304."""
    return brownian_min_gap(L) ** 2 / 2304.0


# ---------------------------------------------------------------------------
# FEM oracles
# ---------------------------------------------------------------------------

def hat_values_1d(n, x):
    """P1 hat functions on the uniform n-element grid, evaluated at x.
    Returns (len(x), n+1).  Written from the tent formula directly."""
    x = np.asarray(x, dtype=float)
    h = 1.0 / n
    nodes = np.linspace(0.0, 1.0, n + 1)
    return np.clip(1.0 - np.abs(x[:, None] - nodes[None, :]) / h, 0.0, 1.0)


def gauss_points_1d(n, q):
    """Composite Gauss-Legendre rule with q points per element of the
    n-element grid on [0, 1]."""
    ref, wref = np.polynomial.legendre.leggauss(q)
    h = 1.0 / n
    left = np.arange(n) * h
    pts = (left[:, None] + (ref[None, :] + 1.0) * (h / 2.0)).ravel()
    wts = np.tile(wref * h / 2.0, n)
    return pts, wts


def hat_values(dim, n, points):
    """Tensor P1 hats of the n-element lattice at points (npts, dim), in the
    lexicographic node order; returns (npts, (n+1)**dim)."""
    T = np.ones((len(points), 1))
    for axis in range(dim):
        hats = hat_values_1d(n, points[:, axis])
        T = (T[:, :, None] * hats[:, None, :]).reshape(len(points), -1)
    return T


def rank_l_kernel(spec, L):
    """The rank-L Mercer kernel of a discrete spectrum as a function of two
    point blocks: K(X, Y) = sum_{l<=L} mu_l (Phi_l . theta(X)) (Phi_l .
    theta(Y)), with the hats from the tent formula."""
    mesh = spec.mass.space.mesh
    mu, V = spec.eigenvalues[:L], spec.gen_vectors[:, :L]

    def values(P):
        return hat_values(mesh.dim, mesh.elements_per_axis,
                          np.asarray(P, dtype=float)) @ V

    def k(X, Y):
        return (values(X) * mu) @ values(Y).T

    return k


def mass_quadrature_1d(n, q=4):
    """Mass matrix assembled by numerical quadrature of hat products."""
    pts, wts = gauss_points_1d(n, q)
    T = hat_values_1d(n, pts)
    return T.T @ (wts[:, None] * T)


def mass_quadrature(dim, n, q=4):
    """d-dimensional mass matrix as a Kronecker power of the quadrature 1d one."""
    g1 = mass_quadrature_1d(n, q)
    return g1 if dim == 1 else np.kron(g1, g1)


def min_kernel_load(n):
    """B1_ij = double integral of min(x, y) theta_i(x) theta_j(y) on [0,1]^2,
    formed densely.

    min(x, y) equals its bilinear nodal interpolant except on the n diagonal
    cells, where it exceeds it by h (min(s, t) - s t) in local coordinates.
    So B1 = G Sigma G (G the mass matrix, Sigma_ij = min(x_i, x_j)) plus
    h^3 / 360 [[8, 7], [7, 8]] assembled over the cells, which is
    h^2 G / 15 plus h^3 / 120 on the first off-diagonals.
    """
    x = np.linspace(0.0, 1.0, n + 1)
    G = mass_quadrature_1d(n)
    off = np.eye(n + 1, k=1) + np.eye(n + 1, k=-1)
    return (G @ np.minimum.outer(x, x) @ G + G / (15.0 * n * n)
            + off / (120.0 * n ** 3))


def generalized_eigh(sigma, mass):
    """Reference route for the discrete eigenproblem: solve
    (G sigma G) v = lambda G v with scipy's generalized solver, descending."""
    s = mass @ sigma @ mass
    vals, vecs = sla.eigh((s + s.T) / 2.0, (mass + mass.T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def gauss_points(dim, n, q):
    """Tensor composite Gauss rule on the unit cube: (points (P, dim), weights)."""
    pts, wts = gauss_points_1d(n, q)
    if dim == 1:
        return pts[:, None], wts
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()]), np.outer(wts, wts).ravel()


def kernel_l2_norm(space, k, q):
    """L2(D x D) norm of a kernel callable k(X, Y) -> (a, b) by composite
    tensor Gauss quadrature on the elements of `space`'s mesh.

    With q points per element per axis the rule is exact only when the
    squared kernel is a polynomial of degree <= 2q - 1 per variable on every
    product of two elements, e.g. a kernel spanned by P1 hats of that mesh
    (q >= 2).  Smooth non-polynomial kernels (truncated sine series) and
    kernels with a kink inside an element product (min(x, y) on the
    diagonal) are only approximated: refine the mesh to converge.
    """
    if q < 2:
        raise ValueError("kernel quadrature needs q >= 2, got %r" % (q,))
    pts, wts = gauss_points(space.mesh.dim, space.mesh.elements_per_axis, q)
    acc = 0.0
    step = max(1, 4_000_000 // len(pts))  # about 32 MB per kernel block
    for start in range(0, len(pts), step):
        sl = slice(start, start + step)
        block = np.asarray(k(pts[sl], pts), dtype=float)
        acc += wts[sl] @ (block ** 2) @ wts
    return float(np.sqrt(max(acc, 0.0)))


def min_kernel_norm_trapezoid(npts=4001):
    """||min(x,y)||_{L2([0,1]^2)} by a fine tensor trapezoid rule."""
    x = np.linspace(0.0, 1.0, npts)
    w = np.full(npts, 1.0 / (npts - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    k2 = np.minimum.outer(x, x) ** 2
    return np.sqrt(w @ k2 @ w)


# ---------------------------------------------------------------------------
# Field oracles
# ---------------------------------------------------------------------------

def psd_check(field, points, jitter=1e-10):
    """Whether the covariance on a finite point set is positive semidefinite
    up to a diagonal shift of jitter times its largest variance, judged by
    its smallest eigenvalue."""
    C = np.asarray(field.covariance(points, points), dtype=float)
    C = 0.5 * (C + C.T)
    return bool(np.linalg.eigvalsh(C)[0] > -jitter * np.max(np.diag(C)))


# ---------------------------------------------------------------------------
# Estimator oracles
# ---------------------------------------------------------------------------

def taper_weight_brute(tau, dist):
    """Flat-top taper weight by explicit three-branch logic."""
    dist = abs(int(dist))
    if dist <= tau / 2:
        return 1.0
    if dist < tau:
        return 2.0 * (1.0 - dist / tau)
    return 0.0


def bandwidth(A, tol=0.0):
    """Largest index offset with an entry of magnitude > tol (0 for diagonal)."""
    A = np.asarray(A)
    nz = np.abs(A) > tol
    offs = np.abs(np.arange(A.shape[0])[:, None] - np.arange(A.shape[1])[None, :])
    return int(np.max(offs[nz])) if np.any(nz) else 0


def dense_taper_1d(coeffs, tau):
    """The 1D tapered estimate of an (M, Q) sample array at width tau as one
    dense matrix, independently of the library's band: the MLE
    Xc^T Xc / M of the centred samples, each entry times the weight
    taper_weight_brute(tau, i - j) of its offset."""
    X = np.asarray(coeffs, dtype=float)
    M, Q = X.shape
    Xc = X - X.mean(axis=0)
    by_offset = np.array([taper_weight_brute(tau, k) for k in range(Q)])
    idx = np.arange(Q)
    return (Xc.T @ Xc) / M * by_offset[np.abs(idx[:, None] - idx[None, :])]


def banded_tail_brute(matrix, c):
    """max_j sum_{j': |j'-j| > c} |A[j, j']| by explicit masking."""
    a = np.abs(np.asarray(matrix, dtype=float))
    q = a.shape[0]
    idx = np.arange(q)
    best = 0.0
    for j in range(q):
        mask = np.abs(idx - j) > c
        best = max(best, float(a[j, mask].sum()))
    return best


def chebyshev_tail_brute(matrix, c, m):
    """max_j sum over j' with Chebyshev lattice offset > c of |A[j, j']|,
    nodes j = ix * m + iy of an m x m lattice, by explicit loops."""
    a = np.abs(np.asarray(matrix, dtype=float))
    best = 0.0
    for j in range(m * m):
        total = 0.0
        for k in range(m * m):
            if max(abs(j // m - k // m), abs(j % m - k % m)) > c:
                total += a[j, k]
        best = max(best, total)
    return best


def gaussian_cov_stderr(sigma, m):
    """Entrywise standard error of the divisor-m Gaussian covariance
    estimator: sqrt((sigma_jj sigma_kk + sigma_jk^2) / m)."""
    d = np.diag(sigma)
    return np.sqrt((np.outer(d, d) + sigma ** 2) / m)


# ---------------------------------------------------------------------------
# Planner oracles
# ---------------------------------------------------------------------------

def p0_mpmath(q_h, tau, m, rho1, gap_min, lambda_max, dps=60):
    """High-precision success-probability bound
    1 - 2 Q_h 5^tau exp(-M rho1 (gap_min / (48 lambda_max))^2), clamped to [0,1]."""
    import mpmath

    with mpmath.workdps(dps):
        arg = mpmath.mpf(m) * mpmath.mpf(rho1) * (
            mpmath.mpf(gap_min) / (48 * mpmath.mpf(lambda_max))) ** 2
        val = 1 - 2 * mpmath.mpf(q_h) * mpmath.mpf(5) ** tau * mpmath.exp(-arg)
        return float(max(0, min(1, val)))


def tail_sq_mpmath(L, dps=40):
    """1D sum of squared eigenvalues beyond L, zeta(4, L + 1/2) / pi^4, as a
    dps-digit mpmath number."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.zeta(4, mpmath.mpf(L) + mpmath.mpf(1) / 2) / mpmath.pi ** 4


def tail_sq_2d_mpmath(L, dps=40):
    """2D sum of squared eigenvalues beyond rank L, as a dps-digit mpmath
    number: the total 1/36 minus the head of ranks 1..L (kl_ranks), each
    squared eigenvalue pi^-8 ((l_1 - 1/2) (l_2 - 1/2))^-4 summed in
    mpmath, so the cancellation costs no digit that matters."""
    import mpmath

    rows = kl_ranks(2, L, L + 1).tolist()
    with mpmath.workdps(dps):
        half = mpmath.mpf(1) / 2
        head = mpmath.fsum(((a - half) * (b - half)) ** -4
                           for a, b, _ in rows) / mpmath.pi ** 8
        return mpmath.mpf(1) / 36 - head


def lambda1_dev_mpmath(d, n, dps=40):
    """lambda_1 - mu_1 of the Brownian field of dimension d on the n-element
    mesh, as a dps-digit mpmath number: lambda_1 = (4 / pi^2)^d and mu_1 the
    d-th power of the axis h^2 (2 + cos t) / (12 sin^2(t / 2)), t = pi h / 2."""
    import mpmath

    with mpmath.workdps(dps):
        h = mpmath.mpf(1) / n
        t = mpmath.pi * h / 2
        mu = h ** 2 * (2 + mpmath.cos(t)) / (12 * mpmath.sin(t / 2) ** 2)
        return (4 / mpmath.pi ** 2) ** d - mu ** d


def lambert_wm1(z):
    """scipy's W_{-1} branch (independent of the package's bisection)."""
    return float(scipy.special.lambertw(z, -1).real)


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# Sampling contract
# ---------------------------------------------------------------------------

# samples per substream block of the (seed, m) sampling contract
SAMPLE_BLOCK = 64


def block_normals(seed, m, shape):
    """The normative normals of sample m: row m % B of block m // B, where
    block b is Philox(SeedSequence(seed)).jumped(b) drawing (B, *shape)
    normals from a fresh generator (no counter resets)."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    g = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed)).jumped(m // SAMPLE_BLOCK))
    return g.standard_normal((SAMPLE_BLOCK,) + shape)[m % SAMPLE_BLOCK]


# ---------------------------------------------------------------------------
# Test scaffolding helpers
# ---------------------------------------------------------------------------

class IdentityMass:
    """Stand-in mass object (G = I) so eigensolver behavior can be tested on
    arbitrary symmetric matrices without a mesh.  The fake space carries a
    mesh width so diagnostics that read mass.space.mesh.h keep working.
    Every action of the identity factor returns a copy of its argument."""

    def __init__(self, q, h=0.5):
        import types

        self.matrix = np.eye(q)
        self.lambda_min = 1.0
        self.lambda_max = 1.0
        self.space = types.SimpleNamespace(
            mesh=types.SimpleNamespace(h=h, dim=1), dof_count=q)
        self.dof_count = q
        self.dim = 1

    def congruence(self, X):
        return np.array(X, dtype=float)

    solve_lt = solve = congruence


def dense_axis_mass(n):
    """The 1D P1 mass G1 on the uniform n-element mesh (n >= 1) as one dense
    matrix, built from the stencil h/6 [1, 4, 1] with h/3 at the two ends,
    independently of the library."""
    h = 1.0 / n
    G1 = np.diag(np.full(n + 1, 2.0 * h / 3.0))
    G1[0, 0] = G1[n, n] = h / 3.0
    off = np.full(n, h / 6.0)
    return G1 + np.diag(off, 1) + np.diag(off, -1)


def dense_mass(mass):
    """The mass matrix G of a fem.MassMatrix as one dense matrix
    (dense_axis_mass on its mesh): G1 in 1D, the Kronecker square
    G1 kron G1 in 2D."""
    G1 = dense_axis_mass(mass.space.mesh.elements_per_axis)
    return G1 if mass.dim == 1 else np.kron(G1, G1)


def dense_axis_chol(n):
    """The Cholesky factor L1 of the 1D P1 mass on n elements, from numpy's
    dense Cholesky of dense_axis_mass(n), independently of fem.MassMatrix."""
    return np.linalg.cholesky(dense_axis_mass(n))


def dense_chol(mass):
    """The mass Cholesky factor as one dense matrix, from numpy's dense
    Cholesky of the dense mass (L1 in 1D, in 2D the factor of G1 kron G1),
    independent of the band factor of fem.MassMatrix."""
    return np.linalg.cholesky(dense_mass(mass))


def dense_transform(sigma, mass):
    """The symmetrized dense triple product L^T Sigma L with the dense factor."""
    L = dense_chol(mass)
    raw = L.T @ np.asarray(sigma, dtype=float) @ L
    return 0.5 * (raw + raw.T)


def dense_axis_covariance(n):
    """The Brownian covariance min(x_i, x_j) of the n+1 nodes i / n of one
    axis of the uniform n-element mesh."""
    x = np.arange(n + 1) / n
    return np.minimum.outer(x, x)


def _dense_axis_stiffness(n):
    """L1 (dense_axis_chol) and the symmetrized dense triple product
    S-tilde1 = L1^T Sigma1 L1 of the Brownian field on one axis of the
    n-element mesh."""
    L1 = dense_axis_chol(n)
    raw = L1.T @ dense_axis_covariance(n) @ L1
    return L1, 0.5 * (raw + raw.T)


def dense_stiffness(mass):
    """S-tilde_exact of the Brownian field on the mesh of a fem.MassMatrix
    as one dense matrix, independently of the library: the axis S-tilde1
    (_dense_axis_stiffness), and in 2D its Kronecker square, formed with
    np.kron."""
    s1 = _dense_axis_stiffness(mass.space.mesh.elements_per_axis)[1]
    return s1 if mass.dim == 1 else np.kron(s1, s1)


def dense_eigh(sigma, mass):
    """Descending dense eigenpairs of the transformed stiffness."""
    vals, vecs = np.linalg.eigh(dense_transform(sigma, mass))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def random_symmetric(rng, q, scale=1.0):
    a = rng.standard_normal((q, q))
    return scale * (a + a.T) / 2.0


def frobenius_rank_l_diff(exact_spec, est_spec, l):
    """||sum_{ell<=L} lam Phi~ Phi~^T - sum_{ell<=L} lam^M Phi~^M Phi~^{M,T}||_F
    computed densely, from the two Q_h x Q_h rank-L matrices; equals the
    transformed-coordinate L2 distance of the two rank-L reconstructions
    (the e3 of mercer.error_decomposition)."""
    def build(spec):
        lam = spec.eigenvalues[:l]
        vt = spec.tilde_vectors[:, :l]
        return (vt * lam) @ vt.T

    return float(np.linalg.norm(build(exact_spec) - build(est_spec)))


# ---------------------------------------------------------------------------
# the exact discrete side of Brownian motion
# ---------------------------------------------------------------------------

def dense_exact_pairs(mass):
    """The exact discrete spectrum by the dense route: the axis S-tilde1 =
    L1^T Sigma1 L1 as one dense triple product, numpy's eigh with the
    canonical signs (largest component positive), generalized vectors
    L1^{-T} v, and the Kronecker products of the axis pairs in stable
    descending order.  Returns (eigenvalues, tilde vectors, generalized
    vectors), every one of the Q_h pairs."""
    L1, s1 = _dense_axis_stiffness(mass.space.mesh.elements_per_axis)
    vals, vecs = np.linalg.eigh(s1)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.sign(vecs[lead, np.arange(vecs.shape[1])])
    gen = sla.solve_triangular(L1.T, vecs, lower=False)
    d = mass.dim
    prod = vals if d == 1 else np.multiply.outer(vals, vals).ravel()
    order = np.argsort(-prod, kind="stable")
    if d == 1:
        return prod[order], vecs[:, order], gen[:, order]
    return (prod[order], np.kron(vecs, vecs)[:, order],
            np.kron(gen, gen)[:, order])


def e2_mpmath(d, n, Ls, dps=40):
    """e2 of the rank-L exact discrete Brownian kernel on the n-element
    mesh, for each L in Ls, as a dps-digit mpmath number, from its definition

      e2^2 = sum_l lambda_l^2 + sum_m mu_m^2
             - 2 sum_{l, m} lambda_l mu_m (s_l . Phi_m)^2

    over the analytic ranks l <= L (kl_ranks) and the discrete ranks m <= L
    (products of the axis mu in stable descending order, by brute sort).  s_l are the
    exact sine moments of the eigenfunctions against the hats and Phi_m the
    closed-form G-orthonormal vectors, both node by node; in 2D each dot
    product is the product of two axis dot products."""
    import mpmath

    with mpmath.workdps(dps):
        h = mpmath.mpf(1) / n
        half = mpmath.mpf(1) / 2
        theta = lambda a: (a - half) * mpmath.pi / n

        def mu(b):  # 0-based axis index; b = n is the node-0 mode
            if b == n:
                return mpmath.mpf(0)
            t = theta(b + 1)
            return h ** 2 * (2 + mpmath.cos(t)) / (12 * mpmath.sin(t / 2) ** 2)

        sines = {}

        def sine(t):  # sin(j t), j = 0..n
            if t not in sines:
                sines[t] = [mpmath.sin(j * t) for j in range(n + 1)]
            return sines[t]

        moments, dots = {}, {}

        def dot(a, b):  # s_a . Phi_b, a 1-based analytic, b 0-based discrete
            if b == n:  # the node-0 mode has mu = 0: its term vanishes
                return mpmath.mpf(0)
            if a not in moments:
                # interior hats, and half at node n; Phi_b vanishes at node 0
                w = (a - half) * mpmath.pi
                scale = mpmath.sqrt(2) * 4 * mpmath.sin(w * h / 2) ** 2 \
                    / (w * w * h)
                moments[a] = [scale * v for v in sine(theta(a))]
                moments[a][n] /= 2
            if (a, b) not in dots:
                tb = theta(b + 1)
                dots[(a, b)] = mpmath.fdot(moments[a], sine(tb)) \
                    / mpmath.sqrt((2 + mpmath.cos(tb)) / 6)
            return dots[(a, b)]

        # the axis mu descend, so rank m <= L has no axis index above m - 1:
        # the box of indices below max(Ls) holds every rank read, and its
        # lexicographic order is the flat order of the whole lattice
        box = min(max(Ls), n + 1)
        axis_mu = [mu(b) for b in range(box)]
        tuples = [()]
        for _ in range(d):
            tuples = [t + (b,) for t in tuples for b in range(box)]
        prods = [mpmath.fprod(axis_mu[b] for b in t) for t in tuples]
        # stable descending: ties keep the lexicographic (flat) order
        order = sorted(range(len(tuples)), key=lambda f: -prods[f])
        out = []
        for L in Ls:
            ana = [tuple(int(a) for a in row)
                   for row in kl_ranks(d, L, L)[:, :d]]
            lam = [mpmath.fprod(1 / ((a - half) * mpmath.pi) ** 2 for a in t)
                   for t in ana]
            disc = order[:L]
            cross = mpmath.fsum(
                lam[i] * prods[f] * mpmath.fprod(
                    dot(a, b) for a, b in zip(t, tuples[f])) ** 2
                for i, t in enumerate(ana) for f in disc)
            e2_sq = (mpmath.fsum(v ** 2 for v in lam)
                     + mpmath.fsum(prods[f] ** 2 for f in disc) - 2 * cross)
            out.append(mpmath.sqrt(e2_sq))
        return out


def e2_sq_from_moments(exact, L):
    """e2^2 by the moment formula ||lambda||^2 + ||mu||^2 - 2 lambda^T
    (S Phi)^2 mu in floats, with S = field.moments and Phi the exact side's
    first L generalized vectors, and the scale ||lambda||^2 + ||mu||^2 of
    its roundoff."""
    lams = exact.field.eigenvalues(L)
    mu = exact.spectrum.eigenvalues[:L]
    cross = exact.field.moments(exact.space, L) @ exact.spectrum.gen_vectors[:, :L]
    scale = lams @ lams + mu @ mu
    return scale - 2.0 * lams @ cross ** 2 @ mu, scale
