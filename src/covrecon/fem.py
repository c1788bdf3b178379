"""P1 finite element spaces on the unit interval/square.

Uniform lattice meshes of (0,1)^d for d in {1,2}, nodal hat-function bases,
and exact mass matrices with the actions of their Cholesky factors.  An
axis action returns A Y, a new array, along axis 1 of a (p, n+1, r) array
Y; FeSpace.along_axes, applying it along every lattice axis, applies the
d-th Kronecker power of A.  A MassMatrix of any d factors the bands of the
axis mass and takes its extremes in closed form; nothing here differs by
dimension.  No (n+1) x (n+1) array is formed but the inverses, on the
first solve.
Nothing here integrates by quadrature: sampling and the error split use
closed forms of the kernel against the basis (see `fields.KlOracle`).

Conventions
-----------
Node coordinates are an array of shape (Q_h, d), ordered lexicographically
by coordinate tuple, so in 2D the flat index of lattice site (ix, iy) is
ix*(n+1) + iy.  The nodes of an axis are j/n, j = 0..n, correctly rounded.
"""

import functools
import math

import numpy as np

from .errors import NumericError

class Mesh:
    """Uniform lattice on the closed unit cube.

    Attributes
    ----------
    dim : 1 or 2
    elements_per_axis : number of elements n along each axis
    h : mesh width 1/n
    axis_nodes : the n+1 grid points j/n of one axis, correctly rounded
    nodes : (Q_h, dim) array of node coordinates, lexicographic order
    node_count : Q_h = (n+1)**dim
    """

    def __init__(self, dim, elements_per_axis):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2, got %r" % (dim,))
        n = int(elements_per_axis)
        if n != elements_per_axis or n < 2:
            raise ValueError(
                "elements_per_axis must be an integer >= 2, got %r" % (elements_per_axis,))
        self.dim = dim
        self.elements_per_axis = n
        self.h = 1.0 / n
        axis = np.arange(n + 1) / n
        grids = np.meshgrid(*(axis,) * dim, indexing="ij")
        self.axis_nodes = axis
        self.nodes = np.column_stack([g.ravel() for g in grids])
        self.node_count = (n + 1) ** dim

    def __repr__(self):
        return "Mesh(dim=%d, n=%d, Q_h=%d)" % (self.dim, self.elements_per_axis, self.node_count)


class FeSpace:
    """Continuous piecewise-(multi)linear nodal space on a Mesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.dof_count = mesh.node_count
        self.mass = None  # the MassMatrix, once assemble_mass has built it
        # KL projection maps by kl_trunc, once a projection draw has built
        # them (fields._draw_projected)
        self.kl_projections = {}

    def __repr__(self):
        return "FeSpace(%r)" % (self.mesh,)

    def along_axes(self, action, X):
        """(A kron ... kron A) X, one A per lattice axis, for an axis action
        of A and a (Q_h, k) block or (Q_h,) vector X: the action runs on
        lattice index j of every (batched) line, for j = 0, ..., dim - 1.
        For the action of a matrix, each entry of (A kron ... kron A) I is
        the one product of axis entries that the Kronecker product forms,
        bit for bit."""
        m = self.mesh.elements_per_axis + 1
        Y = X
        for j in range(self.mesh.dim):
            Y = action(Y.reshape(m ** j, m, -1))
        return Y.reshape(X.shape)


def build_space(dim, n):
    """Convenience constructor: FeSpace on a fresh uniform mesh."""
    return FeSpace(Mesh(dim, n))


def _mass_bands(n):
    """The diagonal a (n+1 entries) and subdiagonal b (n entries) of the 1D
    P1 mass G1 on the uniform n-element mesh, from the stencil h/6 [1, 4, 1]
    with h/3 on the two end nodes: h/3 at the ends, 2h/3 inside, h/6 off
    the diagonal."""
    h = 1.0 / n
    a = np.full(n + 1, 2.0 * h / 3.0)
    a[[0, -1]] = h / 3.0
    return a, np.full(n, h / 6.0)


def _axis_mass_action(Y):
    """G1 Y along axis 1 of a (p, n+1, r) array Y (an axis action), on the
    bands of G1.  O(n) per line; G1 is not formed."""
    a, b = _mass_bands(Y.shape[1] - 1)
    GY = Y * a[:, None]
    GY[:, 1:] += Y[:, :-1] * b[:, None]
    GY[:, :-1] += Y[:, 1:] * b[:, None]
    return GY


def _bisect(f, lo, hi):
    """The root of an increasing f with f(lo) < 0 <= f(hi), bisected until
    lo and hi are adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _mass_extremes(n):
    """lambda_min and lambda_max of G1 = (h/6) T on the n-element mesh, in
    closed form.

    T = tridiag(1, [2, 4, ..., 4, 2], 1) is the Toeplitz stencil [1, 4, 1]
    with modified ends: extending the stencil past node 0 asks x_{-1} =
    -2 x_0, and likewise past node n (Strang, "The discrete cosine
    transform", SIAM Review 1999).  With c = n/2, the mode symmetric about
    the centre x_j = cos((j - c) theta) has eigenvalue 4 + 2 cos theta, and
    its end condition is cos((c+1) theta) + 2 cos(c theta) = 0.  The
    Perron vector is this mode at the smallest root theta, which lies in
    (0, pi / (2c)), where the left side decreases.  Below the band [2, 6]
    the modes x_j = (-1)^j cosh((j - c) phi) and (-1)^j sinh((j - c) phi)
    have eigenvalue 4 - 2 cosh phi and the end conditions
    cosh phi + tanh(c phi) sinh phi = 2 and cosh phi + coth(c phi) sinh phi
    = 2, whose left sides increase with phi; since tanh < coth, the larger
    root phi, the lowest eigenvalue, solves the tanh form, in (ln 2,
    acosh 2).  Both forms stay finite where cosh((c+1) phi) overflows.
    Each root is bisected to the last bit, O(1) work per evaluation.
    """
    c = 0.5 * n
    theta = _bisect(lambda t: -math.cos((c + 1.0) * t) - 2.0 * math.cos(c * t),
                    0.0, 0.5 * math.pi / c)
    phi = _bisect(lambda p: math.cosh(p) + math.tanh(c * p) * math.sinh(p) - 2.0,
                  math.log(2.0), math.acosh(2.0))
    h = 1.0 / n
    return h * (4.0 - 2.0 * math.cosh(phi)) / 6.0, \
        h * (4.0 + 2.0 * math.cos(theta)) / 6.0


# a zero pivot of _sturm_count becomes this negative one
_TINY = np.finfo(float).tiny
# relative offset of the four Sturm shifts around the closed-form extremes
_EXTREME_RTOL = 1e-12


def _sturm_count(a, b2, x):
    """The number of eigenvalues below x of the symmetric tridiagonal
    matrix with diagonal a and squared subdiagonal b2 (lists of floats): the
    negative pivots of the LDL^T factorization of it minus x I (Golub & Van
    Loan, Matrix Computations, 8.4).  O(n)."""
    count, q = 0, 1.0
    for ai, bi2 in zip(a, [0.0] + b2):
        q = ai - x - bi2 / q
        if q == 0.0:
            q = -_TINY
        count += q < 0.0
    return count


# entries of the largest temporary of the band action _bidiagonal_lt
_BLOCK_ELEMENTS = 1 << 16


def _bidiagonal_lt(d, e, V):
    """V <- L1^T V in place along axis 1 of a (p, m, r) array V, for the
    lower bidiagonal L1 with diagonal d and subdiagonal e: row i becomes
    d_i V_i + e_{i+1} V_{i+1}.  The shifted term is formed a block of about
    _BLOCK_ELEMENTS entries at a time, before the block is scaled; rows go
    in increasing order, so each block reads the first row of the next one
    unchanged."""
    p, m, r = V.shape
    lines = max(1, _BLOCK_ELEMENTS // (m * r))
    rows = max(1, _BLOCK_ELEMENTS // (lines * r))
    for p0 in range(0, p, lines):
        W = V[p0:p0 + lines]
        for i0 in range(0, m, rows):
            i1 = min(i0 + rows, m)
            shifted = W[:, i0 + 1:i1 + 1] * e[i0:i1, None]
            W[:, i0:i1] *= d[i0:i1, None]
            W[:, i0:i0 + shifted.shape[1]] += shifted


class MassMatrix:
    """Gram matrix G of the nodal basis, held through the two bands of its
    axis Cholesky factor.

    G is the d-th Kronecker power of the tridiagonal axis mass G1 = L1 L1^T,
    and L1 is lower bidiagonal (Golub & Van Loan, Matrix Computations, 4.3):
    with a and b the diagonal and subdiagonal of G1, taken from the stencil
    (_mass_bands), its diagonal is d_0 = sqrt(a_0), d_i = sqrt(a_i - e_i^2)
    and its subdiagonal e_i = b_i / d_{i-1}.  Every pivot a_i - e_i^2 must
    be positive and the round trip on the bands within 1e-12 of the axis
    lambda_max.  The extremes of G1 are closed forms (_mass_extremes),
    certified against the bands by four Sturm counts; G1 itself is never
    formed.  Those of G are their d-th powers, and its Cholesky factor is
    L = L1 kron ... kron L1: each action of L reshapes a block of columns
    to the (n+1, ..., n+1) lattice and applies the axis operation along
    every axis in turn (Van Loan, "The ubiquitous Kronecker product", 2000).
    L^T runs on the bands, d_i x_i + e_{i+1} x_{i+1}.  The solves are
    products with the explicit axis inverses L1^{-T} and G1^{-1}: a band
    recurrence per vector is slower than such a product.  Every action
    takes a (Q_h, k) block or a single (Q_h,) vector.

    Attributes
    ----------
    chol_bands : (d, e), the diagonal (n+1 entries) and subdiagonal (n
        entries, e[i] = e_{i+1}) of the axis factor L1 (read-only)
    lambda_min, lambda_max : extreme eigenvalues of G
    """

    def __init__(self, space):
        mesh = space.mesh
        self.space = space
        self.dim = mesh.dim
        n = mesh.elements_per_axis
        a, b = _mass_bands(n)
        a_list, b_list = a.tolist(), b.tolist()
        d, e = [], []
        for i, (ai, bi) in enumerate(zip(a_list, [0.0] + b_list)):
            if i:
                e.append(bi / d[-1])
                ai -= e[-1] * e[-1]
            if not ai > 0.0:
                raise NumericError("mass matrix not positive definite: pivot "
                                   "%d is %r" % (i, ai))
            d.append(math.sqrt(ai))
        d, e = np.array(d), np.array(e)
        lo, hi = _mass_extremes(n)
        resid = max(np.max(np.abs(d * d + np.append(0.0, e * e) - a)),
                    np.max(np.abs(e * d[:-1] - b)))
        if not resid <= 1e-12 * hi:
            raise NumericError("Cholesky round trip residual %.3e exceeds "
                               "tolerance" % (resid,))
        # the closed forms are those of the stencil: certify them against
        # the bands, with no eigenvalue below lo (1 - r) or above hi (1 + r),
        # one below lo (1 + r) and one above hi (1 - r)
        b2 = [bi * bi for bi in b_list]
        counts = [_sturm_count(a_list, b2, lam * (1.0 + s * _EXTREME_RTOL))
                  for lam in (lo, hi) for s in (-1.0, 1.0)]
        if not (counts[0] == 0 and counts[1] >= 1 and counts[2] <= n
                and counts[3] == n + 1):
            raise NumericError(
                "mass extremes [%r, %r] fail their Sturm certificate: %r "
                "eigenvalues below the four shifts" % (lo, hi, counts))
        for arr in (d, e):
            arr.setflags(write=False)
        self.chol_bands = (d, e)
        self.lambda_min, self.lambda_max = lo ** self.dim, hi ** self.dim

    @property
    def dof_count(self):
        return self.space.dof_count

    @functools.cached_property
    def _axis_inverses(self):
        """L1^{-T} and G1^{-1} = L1^{-T} L1^{-1} as (n+1) x (n+1) matrices:
        L1^{-1} by forward substitution on the bands, G1^{-1} by back
        substitution on it, a row at a time.  G1 has condition number below
        4, so both are accurate."""
        d, e = self.chol_bands
        m = d.size
        inv = np.zeros((m, m))
        inv[0, 0] = 1.0 / d[0]
        for i in range(1, m):
            inv[i, :i] = inv[i - 1, :i] * -e[i - 1]
            inv[i, :i] /= d[i]
            inv[i, i] = 1.0 / d[i]
        gram = np.zeros((m, m))
        gram[-1] = inv[-1] / d[-1]
        for i in range(m - 2, -1, -1):
            gram[i] = inv[i] - e[i] * gram[i + 1]
            gram[i] /= d[i]
        return inv.T, gram

    def axis_congruence(self, action):
        """The axis action Y -> L1^T A L1 Y of the axis action of A, on the
        bands in O(n) per line.  Along every axis (FeSpace.along_axes) it
        applies L^T (A kron ... kron A) L, since L = L1 kron ... kron L1."""
        d, e = self.chol_bands

        def apply(Y):
            LY = Y * d[:, None]
            LY[:, 1:] += Y[:, :-1] * e[:, None]
            Z = action(LY)
            _bidiagonal_lt(d, e, Z)
            return Z

        return apply

    def _lt_in_place(self, Y, lines=1):
        """Y <- L^T along the lattice index that follows the first `lines`
        entries of the flat index of a C-contiguous Y, in place."""
        d, e = self.chol_bands
        m = d.size
        for j in range(self.dim):
            _bidiagonal_lt(d, e, Y.reshape(lines * m ** j, m, -1))

    def lt(self, B):
        """L^T B for a (Q_h, k) block or a (Q_h,) vector B."""
        Y = np.array(B, dtype=float, order="C")
        self._lt_in_place(Y)
        return Y

    def congruence(self, A):
        """L^T A L for a (Q_h, Q_h) matrix A: L^T along the rows of a copy of
        A, then along its columns, in place, since (L^T A) L applies L^T to
        each row of L^T A.  One Q_h x Q_h array is allocated."""
        Y = self.lt(A)
        self._lt_in_place(Y, Y.shape[0])
        return Y

    def solve_lt(self, B):
        """L^{-T} B for a (Q_h, k) block or a (Q_h,) vector B."""
        return self.space.along_axes(
            functools.partial(np.matmul, self._axis_inverses[0]), B)

    def solve(self, B):
        """G^{-1} B = L^{-T} L^{-1} B for a (Q_h, k) block or a (Q_h,)
        vector B."""
        return self.space.along_axes(
            functools.partial(np.matmul, self._axis_inverses[1]), B)


def assemble_mass(space):
    """Exact P1 mass matrix of the space (the d-th Kronecker power of 1D).

    Built on the first call and kept on the space; later calls return it.
    """
    if space.mass is None:
        space.mass = MassMatrix(space)
    return space.mass

