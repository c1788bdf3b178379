"""P1 finite element spaces on the unit interval/square.

Uniform lattice meshes of (0,1)^d for d in {1,2}, nodal hat-function bases,
and exact mass matrices with the actions of their Cholesky factors: for
d = 1 and d = 2 alike, 1D axis matrices (the factor, or its explicit
inverses for the solves) applied along every lattice axis.  Only the
MassMatrix constructor (1D factorizes the axis mass, d > 1 holds the 1D
MassMatrix of one axis) differs by dimension.  Nothing here
integrates by quadrature: sampling and the error split use closed forms of
the kernel against the basis (see `fields.KlOracle`).

Conventions
-----------
Node coordinates are an array of shape (Q_h, d), ordered lexicographically
by coordinate tuple, so in 2D the flat index of lattice site (ix, iy) is
ix*(n+1) + iy.
"""

import functools

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
        # taper weight matrices by bandwidth tau, once a tapered estimate has
        # built them (estimators.taper)
        self.taper_weights = {}

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


class MassMatrix:
    """Gram matrix G of the nodal basis, held through its axis Cholesky factor.

    In 1D G is the axis mass G1 = L1 L1^T.  In 2D G = G1 kron G1, so its
    Cholesky factor is L = L1 kron L1 and only the (n+1) x (n+1) factor L1 is
    ever formed: each action of L reshapes a block of columns to the
    (n+1, ..., n+1) lattice and applies the 1D operation, as an
    (n+1) x (n+1) matrix, along every axis in turn (Van Loan, "The
    ubiquitous Kronecker product", 2000).  The solves, in 1D too, are products with the explicit axis
    inverses L1^{-1}, L1^{-T} and G1^{-1}: a triangular solve with n+1 rows
    and many right-hand sides is several times slower than such a product.
    Every action takes a (Q_h, k) block or a single (Q_h,) vector.

    Attributes
    ----------
    axis : the MassMatrix of one lattice axis (the object itself in 1D)
    chol : lower-triangular axis factor L1 with G1 = L1 L1^T (read-only)
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
            self.chol = self.axis.chol
            self.lambda_min = self.axis.lambda_min ** mesh.dim
            self.lambda_max = self.axis.lambda_max ** mesh.dim
            return
        G = _mass_1d(mesh.elements_per_axis)
        ev = np.linalg.eigvalsh(G)
        self.lambda_min = float(ev[0])
        self.lambda_max = float(ev[-1])
        if not (np.array_equal(G, G.T) and self.lambda_min > 0.0):
            raise NumericError("mass matrix not symmetric positive definite")
        try:
            chol = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - G is SPD by construction
            raise NumericError("mass matrix Cholesky failed: %s" % (exc,))
        resid = np.max(np.abs(chol @ chol.T - G))
        if not resid <= 1e-12 * self.lambda_max:
            raise NumericError("Cholesky round trip residual %.3e exceeds "
                               "tolerance" % (resid,))
        G.setflags(write=False)
        chol.setflags(write=False)
        self.axis = self
        self.matrix = G
        self.chol = chol

    @property
    def dof_count(self):
        return self.space.dof_count

    @functools.cached_property
    def _axis_inverses(self):
        """L1^{-1}, L1^{-T} and G1^{-1} = L1^{-T} L1^{-1} as (n+1) x (n+1)
        matrices, from the inverse of the bidiagonal factor.  G1 has
        condition number below 4, so all three are accurate."""
        inv = np.linalg.inv(self.axis.chol)
        return inv, inv.T, inv.T @ inv

    def along_axes(self, A, X):
        """(A kron ... kron A) X, one A per lattice axis, for an axis matrix
        A and a (Q_h, k) block or (Q_h,) vector X: A acts on lattice index
        j of every (batched) line, for j = 0, ..., dim - 1.  Each entry of
        (A kron ... kron A) I is the one product of axis entries that
        np.kron forms, bit for bit."""
        m = A.shape[0]
        Y = X
        for j in range(self.dim):
            Y = A @ Y.reshape(m ** j, m, -1)
        return Y.reshape(X.shape)

    def lt(self, B):
        """L^T B for a (Q_h, k) block or a (Q_h,) vector B."""
        return self.along_axes(self.chol.T, B)

    def congruence(self, A):
        """L^T A L for a (Q_h, Q_h) matrix A."""
        return self.lt(self.lt(A).T).T

    def solve_l(self, B):
        """L^{-1} B for a (Q_h, k) block or a (Q_h,) vector B."""
        return self.along_axes(self._axis_inverses[0], B)

    def solve_lt(self, B):
        """L^{-T} B for a (Q_h, k) block or a (Q_h,) vector B."""
        return self.along_axes(self._axis_inverses[1], B)

    def solve(self, B):
        """G^{-1} B = L^{-T} L^{-1} B for a (Q_h, k) block or a (Q_h,)
        vector B."""
        return self.along_axes(self._axis_inverses[2], B)


def assemble_mass(space):
    """Exact P1 mass matrix of the space (2D is the Kronecker square of 1D).

    Built on the first call and kept on the space; later calls return it.
    """
    if space.mass is None:
        space.mass = MassMatrix(space)
    return space.mass

