"""P1 finite element spaces on the unit interval/square.

Uniform lattice meshes of (0,1)^d for d in {1,2}, nodal hat-function bases,
and exact mass matrices with the actions of their Cholesky factors: for
d = 1 and d = 2 alike, 1D axis operations (the two bands of the factor, or
its explicit inverses for the solves) applied along every lattice axis.
Only the MassMatrix constructor (1D factorizes the axis mass, d > 1 holds
the 1D MassMatrix of one axis) differs by dimension.  Nothing here
integrates by quadrature: sampling and the error split use closed forms of
the kernel against the basis (see `fields.KlOracle`).

Conventions
-----------
Node coordinates are an array of shape (Q_h, d), ordered lexicographically
by coordinate tuple, so in 2D the flat index of lattice site (ix, iy) is
ix*(n+1) + iy.
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
    axis_nodes : the n+1 grid points of one axis
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
        axis = np.linspace(0.0, 1.0, n + 1)
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


def build_space(dim, n):
    """Convenience constructor: FeSpace on a fresh uniform mesh."""
    return FeSpace(Mesh(dim, n))


def _axis_mass_action(Y):
    """G1 Y along the last axis of Y, whose length n+1 is that of an axis of
    the uniform n-element mesh: the P1 mass stencil h/6 [1, 4, 1], with h/3
    on the two end nodes.  O(n) per line; G1 is not formed."""
    h = 1.0 / (Y.shape[-1] - 1)
    GY = (2.0 * h / 3.0) * Y
    GY[..., 0] *= 0.5
    GY[..., -1] *= 0.5
    GY[..., 1:] += (h / 6.0) * Y[..., :-1]
    GY[..., :-1] += (h / 6.0) * Y[..., 1:]
    return GY


def _mass_1d(n):
    """Exact 1D P1 mass matrix on the uniform n-element mesh."""
    return _axis_mass_action(np.eye(n + 1))


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

    In 1D G is the tridiagonal axis mass G1 = L1 L1^T, and L1 is lower
    bidiagonal (Golub & Van Loan, Matrix Computations, 4.3): with a and b the
    diagonal and subdiagonal of G1, its diagonal is d_0 = sqrt(a_0),
    d_i = sqrt(a_i - e_i^2) and its subdiagonal e_i = b_i / d_{i-1}.  In 2D
    G = G1 kron G1, so its Cholesky factor is L = L1 kron L1 and only the
    bands of L1 are ever formed: each action of L reshapes a block of
    columns to the (n+1, ..., n+1) lattice and applies the 1D operation
    along every axis in turn (Van Loan, "The ubiquitous Kronecker product",
    2000).  L^T runs on the bands, d_i x_i + e_{i+1} x_{i+1}.  The solves,
    in 1D too, are products with the explicit axis inverses L1^{-T} and
    G1^{-1}: a band recurrence per vector is slower than such a product.
    Every action takes a (Q_h, k) block or a single (Q_h,) vector.

    Attributes
    ----------
    axis : the MassMatrix of one lattice axis (the object itself in 1D)
    chol_bands : (d, e), the diagonal (n+1 entries) and subdiagonal (n
        entries, e[i] = e_{i+1}) of the axis factor L1 (read-only)
    matrix : the dense axis mass G1 (read-only; 1D only, the 2D G is never
        formed)
    lambda_min, lambda_max : extreme eigenvalues of G
    """

    def __init__(self, space):
        mesh = space.mesh
        self.space = space
        self.dim = mesh.dim
        if mesh.dim > 1:
            # the spectrum of a Kronecker power is the set of its products
            self.axis = MassMatrix(FeSpace(Mesh(1, mesh.elements_per_axis)))
            self.chol_bands = self.axis.chol_bands
            self.lambda_min = self.axis.lambda_min ** mesh.dim
            self.lambda_max = self.axis.lambda_max ** mesh.dim
            return
        G = _mass_1d(mesh.elements_per_axis)
        ev = np.linalg.eigvalsh(G)
        self.lambda_min = float(ev[0])
        self.lambda_max = float(ev[-1])
        if not (np.array_equal(G, G.T) and self.lambda_min > 0.0):
            raise NumericError("mass matrix not symmetric positive definite")
        if np.any(np.triu(G, 2)):
            raise NumericError("mass matrix not tridiagonal")
        # the pivots a_i - e_i^2 are at least lambda_min > 0
        a, b = np.diagonal(G), np.diagonal(G, -1)
        d, e = [math.sqrt(a[0])], []
        for ai, bi in zip(a[1:].tolist(), b.tolist()):
            e.append(bi / d[-1])
            d.append(math.sqrt(ai - e[-1] * e[-1]))
        d, e = np.array(d), np.array(e)
        resid = max(np.max(np.abs(d * d + np.append(0.0, e * e) - a)),
                    np.max(np.abs(e * d[:-1] - b)))
        if not resid <= 1e-12 * self.lambda_max:
            raise NumericError("Cholesky round trip residual %.3e exceeds "
                               "tolerance" % (resid,))
        for arr in (G, d, e):
            arr.setflags(write=False)
        self.axis = self
        self.matrix = G
        self.chol_bands = (d, e)

    @property
    def dof_count(self):
        return self.space.dof_count

    @functools.cached_property
    def _axis_inverses(self):
        """L1^{-T} and G1^{-1} = L1^{-T} L1^{-1} as (n+1) x (n+1) matrices:
        L1^{-1} by forward substitution on the bands, G1^{-1} by back
        substitution on it, a row at a time.  G1 has condition number below
        4, so both are accurate."""
        d, e = self.axis.chol_bands
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

    def along_axes(self, A, X):
        """(A kron ... kron A) X, one A per lattice axis, for an axis matrix
        A and a (Q_h, k) block or (Q_h,) vector X: A acts on lattice index
        j of every (batched) line, for j = 0, ..., dim - 1.  Each entry of
        (A kron ... kron A) I is the one product of axis entries that the
        Kronecker product forms, bit for bit."""
        m = A.shape[0]
        Y = X
        for j in range(self.dim):
            Y = A @ Y.reshape(m ** j, m, -1)
        return Y.reshape(X.shape)

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
        return self.along_axes(self._axis_inverses[0], B)

    def solve(self, B):
        """G^{-1} B = L^{-T} L^{-1} B for a (Q_h, k) block or a (Q_h,)
        vector B."""
        return self.along_axes(self._axis_inverses[1], B)


def assemble_mass(space):
    """Exact P1 mass matrix of the space (2D is the Kronecker square of 1D).

    Built on the first call and kept on the space; later calls return it.
    """
    if space.mass is None:
        space.mass = MassMatrix(space)
    return space.mass

