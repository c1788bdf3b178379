"""Gaussian random fields with known covariance, and batch sampling.

Centered Brownian motion on (0,1) and the Brownian sheet on (0,1)^2, its
tensor square.  One KlOracle per dimension is the whole field: its
min-kernel covariance, its exact Karhunen-Loeve eigenpairs and gaps, and
closed forms of the kernel against the P1 basis, each written once as a
product over the axis indices of a rank (in the rank order of one table
for every dimension) or as an axis action, which the space applies along
every lattice axis (fem.FeSpace.along_axes).  Only the squared-eigenvalue
tail is per dimension: the 2D one sums 1D tails over the head.  The
oracle also holds the closed forms of the exact discrete side (axis pairs,
lambda_1 - mu_1, e2), which mercer.ExactSide only assembles.  Batch
sampling draws finite element coefficient vectors of the field: its nodal
values, or the exact L2 projection of its truncated KL series, which the
closed-form sine moments give without quadrature.

Sampling reproducibility contract: sample m of a batch with seed s is row
m % B of block m // B, and block b is drawn from the substream
``Generator(Philox(SeedSequence(s)).jumped(b)).standard_normal((B, *shape))``
with the fixed block size B = 64.  A block never depends on the batch size,
and each sample is its own product downstream, so batches are bitwise
independent of batch size, chunking or scheduling, and a batch of M samples
is a prefix of every larger one.
jumped(b) only adds b * 2^128 to the 256-bit Philox counter, so the sampler
keeps one Philox per chunk of samples and resets its counter before each
block instead of building a generator per block (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).
"""

import math

import numpy as np

from . import fem, spectral

MODE_NODAL = "NodalInterpolation"
MODE_PROJECTION = "L2ProjectionOfTruncatedKL"

# samples per Philox substream: one standard_normal call draws a whole block
_SAMPLE_BLOCK = 64
# samples per sampler call; whole blocks, so that no block is drawn twice
_SAMPLE_CHUNK = 64 * _SAMPLE_BLOCK
# explicit terms of the Euler-Maclaurin sum for zeta(4, a) in _tail1_sq
_ZETA_HEAD = 24
_KINDS = {1: "BrownianMotion1D", 2: "BrownianSheet2D"}


def _lam1(ell):
    """1D eigenvalue pi^-2 (ell - 1/2)^-2."""
    return (np.pi ** -2) * (np.asarray(ell, dtype=float) - 0.5) ** -2


def _phi1(ell, x):
    """1D eigenfunction sqrt(2) sin((ell - 1/2) pi x)."""
    return np.sqrt(2.0) * np.sin((ell - 0.5) * np.pi * np.asarray(x, dtype=float))


class KlOracle:
    """Brownian motion (dim=1) or the Brownian sheet (dim=2) on the unit cube:
    its min-kernel covariance and exact KL eigenpairs.

    kind is "BrownianMotion1D" or "BrownianSheet2D"; covariance(X, Y) is
    the kernel R on two point blocks.  eigenvalues(L) and gaps(L) give ranks
    1..L in descending order, with multiplicity and a deterministic tie-break
    so eigenfunction(l, points) stays orthonormal.  The gap of rank l is the
    distance from eigenvalue l to the nearest *distinct* eigenvalue, which in
    1D (all values simple) coincides with min{lambda_{l-1} - lambda_l,
    lambda_l - lambda_{l+1}}, lambda_0 = inf.  Each is a product over the
    axis indices of its rank (_extend_pairs).
    """

    def __init__(self, dim):
        if dim not in _KINDS:
            raise ValueError("dim must be 1 or 2, got %r" % (dim,))
        self.dim = dim
        self.kind = _KINDS[dim]
        self._extend_pairs(127)

    def covariance(self, X, Y):
        """R(X, Y) = prod_k min(x_k, y_k) on blocks (a, dim), (b, dim) -> (a, b)."""
        X = np.asarray(X)
        Y = np.asarray(Y)
        return np.prod(np.minimum(X[:, None, :], Y[None, :, :]), axis=2)

    def axis_covariance(self, x):
        """min(x_i, x_j) on one axis: the nodal covariance of a lattice is its
        dim-th Kronecker power."""
        return np.minimum.outer(x, x)

    # -- enumeration ----------------------------------------------------
    def _extend_pairs(self, P):
        """Table the axis-index tuples of odd product prod_k (2 l_k - 1) <= P
        (P odd) with their product, by descending eigenvalue: by product, then
        axis indices in order; every tuple left out has a larger product.
        _axis_lam[j] = _lam1(j) by scalar calls: array power rounds apart."""
        axes, prod = np.ones((1, 0), dtype=int), np.ones(1, dtype=int)
        for _ in range(self.dim):
            # a partial tuple of product p takes l = 1..(P // p + 1) // 2
            counts = (P // prod + 1) // 2
            row = np.repeat(np.arange(len(prod)), counts)
            ell = np.concatenate([np.arange(1, c + 1) for c in counts])
            axes = np.column_stack([axes[row], ell])
            prod = prod[row] * (2 * ell - 1)
        order = np.lexsort(np.vstack([axes.T[::-1], prod]))
        self._pairs = np.column_stack([axes, prod])[order]
        self._axis_lam = np.array([_lam1(j) for j in range((P + 3) // 2 + 1)])

    def _ranks(self, L):
        """Rows of ranks 1..L; P, the last row's product, grows to 2P + 1."""
        if L < 0:
            raise ValueError("L must be >= 0, got %r" % (L,))
        while L > len(self._pairs):
            self._extend_pairs(2 * int(self._pairs[-1, -1]) + 1)
        return self._pairs[:L]

    # -- public oracle surface ------------------------------------------
    def eigenvalues(self, L):
        """Eigenvalues of ranks 1..L, descending, shape (L,)."""
        axes = self.axis_indices(L)  # may extend _axis_lam
        return np.prod(self._axis_lam[axes], axis=1)

    def axis_indices(self, L):
        """Axis indices (l_1, ..., l_dim) of ranks 1..L, shape (L, dim):
        eigenvalue l is the product of the axis eigenvalues _lam1(l_k)."""
        return self._ranks(L)[:, :-1]

    def eigenfunction(self, ell, points):
        """Values of eigenfunction ell at points of shape (npts, dim)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError("points must have shape (npts, %d)" % (self.dim,))
        if ell < 1:
            raise ValueError("eigenfunction index must be >= 1, got %r" % ell)
        return math.prod(_phi1(l, points[:, k])
                         for k, l in enumerate(self._ranks(ell)[-1, :-1]))

    def gaps(self, L):
        """Distances from eigenvalues 1..L to their nearest distinct ones."""
        if L < 1:
            raise ValueError("L must be >= 1, got %r" % (L,))
        m = self._ranks(L)[:, -1]
        # the distinct eigenvalues are those of the odd products m, each
        # attained by (m, 1, ...), so the distinct neighbors sit at m -/+ 2
        j = (m + 1) // 2
        scale = _lam1(1) ** (self.dim - 1)
        below, lam, above = (self._axis_lam[j + k] * scale for k in (-1, 0, 1))
        return np.minimum(np.where(m == 1, np.inf, below - lam), lam - above)

    # -- closed forms of the kernel against the P1 basis -------------------
    def sum_sq_total(self):
        """Sum of all squared eigenvalues: the squared L2(DxD) kernel norm."""
        return 6.0 ** -self.dim

    def tail_sq(self, L):
        """Sum of squared eigenvalues beyond rank L, as a sum of positive
        terms: nothing cancels, unlike a total minus the head.

        1D: the axis tail t(L) (_tail1_sq).  2D: the head of ranks 1..L is
        downward closed, so it holds (a, b) exactly for b <= c_a, with
        c_a > 0 for a <= A and 0 beyond, and the tail is
        sum_{a<=A} lambda_a^2 t(c_a) + t(A) / 6 (the axis total is 1/6).
        """
        if L < 0:
            raise ValueError("L must be >= 0, got %r" % (L,))
        if self.dim == 1:
            return _tail1_sq(L)
        c = np.bincount(self.axis_indices(L)[:, 0])[1:].tolist()
        return math.fsum([lam * lam * _tail1_sq(c_a) for lam, c_a in zip(
            self._axis_lam[1:].tolist(), c)] + [_tail1_sq(len(c)) / 6.0])

    def moments(self, space, L):
        """Rows s_l = (integral of phi_l theta_j)_j, l <= L, shape (L, Q_h):
        Kronecker products of the 1D moments over the axis indices."""
        n = space.mesh.elements_per_axis
        return spectral.kronecker_columns(
            [_sine_moments(n, axis).T for axis in self.axis_indices(L).T]).T

    def kernel_forms(self, space, vectors):
        """v^T B v per column v of vectors, B_ij = <R, theta_i (x) theta_j>.

        B is the d-th Kronecker power of the axis load B1, so its action is
        that of B1 (_apply_axis_load) along every lattice axis, in O(n) per
        line, and neither B nor B1 is formed.
        """
        return np.sum(vectors * space.along_axes(_apply_axis_load, vectors),
                      axis=0)

    # -- closed forms of the exact discrete side: the P1 pencil (Sigma1, G1)
    def axis_covariance_action(self, Y):
        """Sigma1 Y along axis 1 of a (p, n+1, r) array (an axis action)."""
        return _apply_axis_covariance(Y)

    def exact_axis_pairs(self, axis_mass, k):
        """The exact discrete pairs on the axis of axis_mass (a 1D MassMatrix),
        descending: every eigenvalue and the min(k, n + 1) leading vectors.

        Node 0 carries no variance.  On nodes 1..n the vectors
        v_a = sin(j theta_a), theta_a = (a - 1/2) pi / n, satisfy
        G1 v_a = g_a W v_a and Sigma1^{-1} v_a = sigma_a W v_a with
        W = diag(1, ..., 1, 1/2), g_a = h (2 + cos theta_a) / 3 and
        sigma_a = (2 - 2 cos theta_a) / h (a sine transform; Strang, "The
        discrete cosine transform", SIAM Review 1999), so they are the
        generalized eigenvectors, with mu_a = g_a / sigma_a.  Phi_a =
        v_a / N_a, N_a^2 = (2 + cos theta_a) / 6, is G-orthonormal.  The
        last pair is the node-0 mode of eigenvalue exactly 0, whose tilde
        vector is L1^{-1} e_0 normalized: Phi = z / sqrt(z_0) with
        z = G1^{-1} e_0, since ||L1^{-1} e_0||^2 = (G1^{-1})_00.
        """
        n = axis_mass.space.mesh.elements_per_axis
        odd = 2 * np.arange(1, min(k, n) + 1) - 1
        # j theta_a = (2a - 1) j pi / (2n), reduced exactly modulo 2 pi
        arg = np.outer(np.arange(n + 1), odd) % (4 * n)
        gen = np.sin(arg * (np.pi / (2 * n))) \
            / np.sqrt((2.0 + np.cos(odd * (np.pi / (2 * n)))) / 6.0)
        if k > n:
            z = axis_mass.solve(np.eye(n + 1)[:, 0])
            gen = np.column_stack([gen, z / np.sqrt(z[0])])
        return _axis_mu(n), gen

    def lambda1_dev(self, n):
        """lambda_1 - mu_1 > 0 on the n-element mesh: both are dim-th powers
        of the axis values at theta = pi h / 2, and the difference telescopes
        from the axis lambda - mu without cancellation."""
        theta = np.full(self.dim, 0.5 * np.pi / n)
        mu, lam_mu = _sine_terms(theta, 1.0 / n)[:2]
        return float(_telescoped(self._axis_lam[[1] * self.dim], mu, lam_mu))

    def e2_sq(self, n, L):
        """e2^2, the squared discretization error of the rank-L exact discrete
        kernel on the n-element mesh, for 1 <= L <= (n + 1)^dim.

        With analytic pairs (lambda_l, phi_l) and exact discrete (mu_m,
        Phi_m) of ranks l, m <= L, and moments s_l (moments),
        e2^2 = ||lambda||^2 + ||mu||^2 - 2 sum lambda_l mu_m (s_l . Phi_m)^2.
        s_l . Phi_m vanishes except where m is the index tuple of l, or the
        tuple it aliases to (_sine_terms), where it is the product of the
        axis c.  So e2^2 sums, over the union of the two rank sets,
        (lambda - mu)^2 + 2 lambda mu (1 - C^2) for a tuple in both, lambda^2
        or mu^2 for a tuple in one, and -2 lambda mu C^2 for an aliased pair:
        without cancellation while L <= n.
        """
        lam = self.eigenvalues(L)  # may extend _axis_lam
        ana = self.axis_indices(L)
        _, lam_mu, c2, one_c2 = _sine_terms((ana - 0.5) * (np.pi / n), 1.0 / n)
        # sin(j theta_a) = +-sin(j theta_b) at every node j, for b the alias
        # of a in 1..n (theta_a = +-theta_b modulo 2 pi)
        r = (ana - 1) % (2 * n) + 1
        alias = np.where(r <= n, r, 2 * n + 1 - r)
        mu_ax = _sine_terms((alias - 0.5) * (np.pi / n), 1.0 / n)[0]
        mu = np.prod(mu_ax, axis=1)
        vals, order = spectral.kronecker_order(_axis_mu(n), self.dim)
        disc = order[:L]
        flat = np.ravel_multi_index(tuple(alias.T - 1), (n + 1,) * self.dim)
        own = np.all(ana <= n, axis=1)
        hit = np.isin(flat, disc)
        both, cross = own & hit, ~own & hit
        diff = _telescoped(self._axis_lam[ana[both]], mu_ax[both],
                           lam_mu[both])
        one_minus = _telescoped(np.ones_like(c2[both]), c2[both], one_c2[both])
        terms = (lam[~both] ** 2,
                 vals[:L][~np.isin(disc, flat[both])] ** 2,
                 diff ** 2 + 2.0 * lam[both] * mu[both] * one_minus,
                 -2.0 * lam[cross] * mu[cross] * np.prod(c2[cross], axis=1))
        return math.fsum(np.concatenate(terms))


def _tail1_sq(L):
    """The 1D tail pi^-4 sum_{k>=0} (L + 1/2 + k)^-4 = zeta(4, L + 1/2) /
    pi^4 by Euler-Maclaurin (DLMF 25.11, 2.10): the first _ZETA_HEAD terms,
    then at x = L + 1/2 + _ZETA_HEAD the integral x^-3/3, the half term
    x^-4/2 and the Bernoulli terms B_2..B_8 (coefficients B_2j (4)_(2j-1) /
    (2j)! = 1/3, -1/6, 2/9, -1/2); the next, 5/3 x^-13, is below 1e-18 of
    the sum.  Every term is positive or small, so nothing cancels."""
    a = L + 0.5
    x = a + _ZETA_HEAD
    terms = [(a + k) ** -4.0 for k in range(_ZETA_HEAD)]
    terms += [x ** -3 / 3.0, x ** -4 / 2.0, x ** -5 / 3.0,
              -x ** -7 / 6.0, 2.0 * x ** -9 / 9.0, -x ** -11 / 2.0]
    return math.fsum(terms) * np.pi ** -4


def _sine_moments(n, ells):
    """Moments of phi_l = sqrt(2) sin(w x), w = (l - 1/2) pi, against the hats.

    Interior hats get phi_l(x_j) 4 sin^2(w h / 2) / (w^2 h): the second
    difference of -phi_l / w^2 without its cancellation.  phi_l is even about
    1, so the half hat there gets half; at 0, sqrt(2) (w h - sin w h) / (w^2 h).
    """
    h = 1.0 / n
    w = (np.asarray(ells, dtype=float)[:, None] - 0.5) * np.pi
    x = np.arange(n + 1) * h
    s = np.sqrt(2.0) * np.sin(w * x) * (4.0 * np.sin(0.5 * w * h) ** 2
                                        / (w * w * h))
    s[:, -1] *= 0.5
    s[:, 0] = np.sqrt(2.0) * (w[:, 0] * h - np.sin(w[:, 0] * h)) \
        / (w[:, 0] ** 2 * h)
    return s


# Taylor coefficients, in t = theta^2 and highest power first, of the two
# numerators that cancel in _sine_terms:
#   12 sin^2(theta/2) - theta^2 (2 + cos theta)
#     = sum_{k>=2} (-1)^(k+1) (6 - 2k (2k-1)) t^k / (2k)!   (theta^4/4 - ...)
#   theta^4 (2 + cos theta) - 48 sin^4(theta/2)
#     = sum_{k>=4} (-1)^k ((2k)!/(2k-4)! - 6 4^k + 24) t^k / (2k)!
#                                                          (theta^8/240 - ...)
# Cut at k = 20, they are within 1.5e-15 and 2.5e-16 relative of 50-digit
# values for theta up to pi; the direct forms lose up to 1.6e-14 and 2.2e-12
# there (both near theta = 0.5).  (A quotient of Python ints rounds once.)
_SERIES_A = [(-1) ** (k + 1) * (6 - 2 * k * (2 * k - 1)) / math.factorial(2 * k)
             for k in range(20, 1, -1)]
_SERIES_B = [(-1) ** k * (math.perm(2 * k, 4) - 6 * 4 ** k + 24)
             / math.factorial(2 * k) for k in range(20, 3, -1)]


def _sine_terms(theta, h):
    """Closed forms of the discrete Brownian pencil on one axis at
    theta = (a - 1/2) pi h, a >= 1, beside lambda_a = _lam1(a) = h^2 / theta^2:
    the exact discrete mu_a = h^2 (2 + cos theta) / (12 sin^2(theta / 2))
    (a <= n), lambda_a - mu_a, and c_a^2 = 48 sin^4(theta / 2) / (theta^4
    (2 + cos theta)) with 1 - c_a^2.  c_a is the moment s_a . Phi_b of the
    analytic eigenfunction against the exact discrete vector it aliases to
    (b = a when a <= n).  The two differences come from the series above,
    without cancellation for theta <= pi (a <= n), the only theta at which
    they are read."""
    t = theta * theta
    s2 = np.sin(0.5 * theta) ** 2
    g = 2.0 + np.cos(theta)
    hh = h * h
    return (hh * g / (12.0 * s2),
            hh * (t * t * np.polyval(_SERIES_A, t)) / (12.0 * t * s2),
            48.0 * s2 * s2 / (t * t * g),
            t ** 4 * np.polyval(_SERIES_B, t) / (t * t * g))


def _telescoped(a, b, diff):
    """prod_k a_k - prod_k b_k over the last axis, from diff = a - b per
    factor: sum_k (prod_{j<k} b_j) diff_k (prod_{j>k} a_j), which has no
    cancellation when diff has none and a, b > 0."""
    return sum(np.prod(b[..., :k], axis=-1) * diff[..., k]
               * np.prod(a[..., k + 1:], axis=-1) for k in range(a.shape[-1]))


def _axis_mu(n):
    """mu_1 > ... > mu_n on one axis and the node-0 mode's 0; no mass."""
    theta = (np.arange(1, n + 1) - 0.5) * (np.pi / n)
    return np.append(_sine_terms(theta, 1.0 / n)[0], 0.0)


def _apply_axis_covariance(Y):
    """Sigma1 Y along axis 1 of a (p, n+1, r) array Y (an axis action), for
    Sigma1_ij = min(x_i, x_j).  Sigma1 acts as two cumulative sums:
    min(x_i, x_j) = h #{1 <= k <= min(i, j)}, so Sigma1 z is h times the
    prefix sums of the suffix sums z_k + ... + z_n, k >= 1, and 0 at node 0.
    O(n) per line."""
    suffix = np.cumsum(Y[:, :0:-1], axis=1)
    sums = np.zeros_like(Y)
    np.cumsum(suffix[:, ::-1], axis=1, out=sums[:, 1:])
    sums /= Y.shape[1] - 1
    return sums


def _apply_axis_load(Y):
    """B1 Y along axis 1 of a (p, n+1, r) array Y (an axis action), for the
    axis load matrix B1_ij = double integral of min(x, y) theta_i(x)
    theta_j(y) on [0,1]^2.

    min(x, y) equals its bilinear nodal interpolant except on the n diagonal
    cells, where it exceeds it by h (min(s, t) - s t) in local coordinates.
    So B1 = G Sigma1 G (G the mass matrix, Sigma1_ij = min(x_i, x_j), applied
    by _apply_axis_covariance) plus h^3 / 360 [[8, 7], [7, 8]] assembled
    over the cells, which is h^2 G / 15 plus h^3 / 120 on the first
    off-diagonals.
    """
    n = Y.shape[1] - 1
    GY = fem._axis_mass_action(Y)
    BY = fem._axis_mass_action(_apply_axis_covariance(GY)) \
        + GY / (15.0 * n * n)
    off = Y / (120.0 * n ** 3)
    BY[:, 1:] += off[:, :-1]
    BY[:, :-1] += off[:, 1:]
    return BY


class SampleBatch:
    """M discretized field realizations as rows of coefficient vectors."""

    def __init__(self, space, coeffs, mode, kl_trunc, seed, field_kind):
        if coeffs.ndim != 2 or coeffs.shape[0] < 1:
            raise ValueError("batch must be a 2D array with at least one "
                             "sample, got shape %r" % (coeffs.shape,))
        if coeffs.shape[1] != space.dof_count:
            raise ValueError("coefficient width %d does not match dof count %d"
                             % (coeffs.shape[1], space.dof_count))
        coeffs.setflags(write=False)
        self.space = space
        self.coeffs = coeffs
        self.mode = mode
        self.kl_trunc = kl_trunc
        self.seed = int(seed)
        self.field_kind = field_kind

    @property
    def sample_count(self):
        return self.coeffs.shape[0]

    def prefix(self, M):
        """The first M samples, a view: by the sampling contract, the batch
        of M samples that this seed draws."""
        if not 1 <= M <= self.sample_count:
            raise ValueError("prefix of %r samples from a batch of %d"
                             % (M, self.sample_count))
        return SampleBatch(self.space, self.coeffs[:M], self.mode,
                           self.kl_trunc, self.seed, self.field_kind)


def _standard_normals(seed, start, count, shape):
    """Standard normals of samples start..start+count-1, shape (count, *shape).

    Row m is row m % B of block m // B (B = _SAMPLE_BLOCK), and block b is
    Generator(Philox(SeedSequence(seed)).jumped(b)).standard_normal((B,
    *shape)), bit for bit.  jumped(b) adds b * 2^128 to the counter of the
    batch root, whose counter starts at zero, so one root Philox serves every
    block: before each block its counter is set to (0, 0, low 64 bits of b,
    high 64 bits of b) and its output buffer is emptied.  Every block the
    request touches is drawn whole, straight into one buffer, and the request
    is a slice of it.
    """
    shape = tuple(shape)
    B = _SAMPLE_BLOCK
    bitgen = np.random.Philox(np.random.SeedSequence(int(seed)))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["buffer_pos"] = 4  # empty buffer: the next draw runs the counter
    state["has_uint32"] = 0
    counter = state["state"]["counter"]
    b0, b1 = start // B, (start + count + B - 1) // B
    out = np.empty(((b1 - b0) * B,) + shape)
    for b in range(b0, b1):
        counter[2] = b & 0xFFFFFFFFFFFFFFFF
        counter[3] = b >> 64
        bitgen.state = state
        lo = (b - b0) * B
        gen.standard_normal((B,) + shape, out=out[lo:lo + B])
    lo = start - b0 * B
    return out[lo:lo + count]


def draw_batch(field, space, M, mode=MODE_NODAL, seed=0, kl_trunc=None):
    """Draw M discretized realizations of the field on the given space.

    mode "NodalInterpolation": exact joint-Gaussian nodal values (scaled
    cumulative sums of independent increments along every axis).
    mode "L2ProjectionOfTruncatedKL": truncated KL series with kl_trunc
    standard normal coefficients, then L2-projected onto the space.
    """
    M = int(M)
    if M < 1:
        raise ValueError("sample count M must be >= 1, got %r" % (M,))
    if field.dim != space.mesh.dim:
        raise ValueError("field dimension %d does not match mesh dimension %d"
                         % (field.dim, space.mesh.dim))
    if mode == MODE_NODAL:
        coeffs = _draw_nodal(space, M, seed)
        kl_trunc = None
    elif mode == MODE_PROJECTION:
        if kl_trunc is None or int(kl_trunc) < 1:
            raise ValueError("projection mode needs kl_trunc >= 1, got %r"
                             % (kl_trunc,))
        kl_trunc = int(kl_trunc)
        coeffs = _draw_projected(field, space, M, seed, kl_trunc)
    else:
        raise ValueError("unknown sampling mode %r" % (mode,))
    return SampleBatch(space, coeffs, mode, kl_trunc, seed, field.kind)


def _draw_nodal(space, M, seed):
    """Nodal coefficients (M, Q_h) of Brownian motion or the Brownian sheet.

    The field has independent N(0, h^d) increments on the n^d lattice cells,
    so the lattice of sample m is sqrt(h)^d times the cumulative sums of its
    n^d standard normals along axis 1, then along each further axis, and 0 on
    the nodes with a zero coordinate.  In 2D this is Lx Z_m Lx^T with
    Lx = sqrt(h) tril(1), the lower triangular factor of the axis kernel
    h min(i, j) = Lx Lx^T.
    """
    mesh = space.mesh
    n, d = mesh.elements_per_axis, mesh.dim
    coeffs = np.empty((M, space.dof_count))
    for start in range(0, M, _SAMPLE_CHUNK):
        count = min(_SAMPLE_CHUNK, M - start)
        lattice = coeffs[start:start + count].reshape((count,) + (n + 1,) * d)
        for axis in range(1, d + 1):
            lattice[(slice(None),) * axis + (0,)] = 0.0
        inner = lattice[(slice(None),) + (slice(1, None),) * d]
        Z = _standard_normals(seed, start, count, (n,) * d)
        np.cumsum(Z, axis=1, out=inner)
        for axis in range(2, d + 1):
            np.cumsum(inner, axis=axis, out=inner)
        inner *= np.sqrt(mesh.h) ** d
    return coeffs


def _draw_projected(field, space, M, seed, kl_trunc):
    """Coefficients (M, Q_h) of the L2 projections of truncated KL draws.

    The projection of sum_l sqrt(lambda_l) psi_l phi_l solves G c = b with
    b_j = sum_l sqrt(lambda_l) psi_l (integral of phi_l theta_j), so a sample
    is c = psi P with the sample-free P = diag(sqrt(lambda)) S G^{-1}, S the
    closed-form moments.  P is built on the first draw and kept on the space.
    Each sample is its own (1, K) x (K, Q_h) product, which rounds the same
    whatever the number of samples beside it.  Do not merge them into one
    (64, K) x (K, Q_h) block product: it is about 4 times faster, but its
    rows came out different at 1 and 2 OpenBLAS threads at Q_h in {257,
    513, 1089}, where the per-sample product came out identical, so the
    (seed, m) sampling contract would depend on the thread count.
    """
    P = space.kl_projections.get(kl_trunc)
    if P is None:
        scale = np.sqrt(field.eigenvalues(kl_trunc))
        S = field.moments(space, kl_trunc)
        P = scale[:, None] * fem.assemble_mass(space).solve(S.T).T
        P.setflags(write=False)
        space.kl_projections[kl_trunc] = P
    coeffs = np.empty((M, space.dof_count))
    for start in range(0, M, _SAMPLE_CHUNK):
        count = min(_SAMPLE_CHUNK, M - start)
        Psi = _standard_normals(seed, start, count, (1, kl_trunc))
        coeffs[start:start + count] = (Psi @ P)[:, 0]
    return coeffs
