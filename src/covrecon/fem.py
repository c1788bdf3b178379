"""P1 finite element spaces on the unit interval/square.

Uniform lattice meshes of (0,1)^d for d in {1,2}, nodal hat-function bases,
exact mass matrices with their Cholesky factors, and composite Gauss
rules.  Kernel norms are not computed here: the error split in `mercer`
uses closed forms instead of quadrature.

Conventions
-----------
Point blocks are arrays of shape (npts, d).

Nodes are ordered lexicographically by coordinate tuple, so in 2D the flat
index of lattice site (ix, iy) is ix*(n+1) + iy.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
import scipy.linalg as sla

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
        if dim == 1:
            nodes = axis[:, None]
        else:
            X, Y = np.meshgrid(axis, axis, indexing="ij")
            nodes = np.column_stack([X.ravel(), Y.ravel()])
        self.axis_nodes = axis
        self.nodes = nodes
        self.node_count = (n + 1) ** dim

    def __repr__(self):
        return "Mesh(dim=%d, n=%d, Q_h=%d)" % (self.dim, self.elements_per_axis, self.node_count)


def build_mesh(dim, n):
    """Uniform mesh of (0,1)^dim with n elements per axis (n >= 2)."""
    return Mesh(dim, n)


class FeSpace:
    """Continuous piecewise-(multi)linear nodal space on a Mesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.basis_kind = "Nodal"
        self.polynomial_degree = 1
        self.dof_count = mesh.node_count
        self.mass = None  # the MassMatrix, once assemble_mass has built it

    def __repr__(self):
        return "FeSpace(%r)" % (self.mesh,)


def build_space(dim, n):
    """Convenience constructor: FeSpace on a fresh uniform mesh."""
    return FeSpace(build_mesh(dim, n))


def _hat_values_1d(axis_nodes, h, pts):
    """Values of all 1D hat functions at pts; shape (len(pts), n+1)."""
    return np.clip(1.0 - np.abs(pts[:, None] - axis_nodes[None, :]) / h, 0.0, None)


def basis_matrix(space, points):
    """Evaluate every nodal basis function at the given points.

    Parameters
    ----------
    points : (npts, dim) array of locations inside [0,1]^dim.

    Returns
    -------
    (npts, Q_h) array T with T[p, j] = theta_j(points[p]).
    """
    mesh = space.mesh
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != mesh.dim:
        raise ValueError("points must have shape (npts, %d), got %r"
                         % (mesh.dim, points.shape))
    if np.any(points < -1e-12) or np.any(points > 1.0 + 1e-12):
        raise ValueError("points outside the closed unit cube")
    if mesh.dim == 1:
        return _hat_values_1d(mesh.axis_nodes, mesh.h, points[:, 0])
    tx = _hat_values_1d(mesh.axis_nodes, mesh.h, points[:, 0])
    ty = _hat_values_1d(mesh.axis_nodes, mesh.h, points[:, 1])
    npts = points.shape[0]
    return (tx[:, :, None] * ty[:, None, :]).reshape(npts, space.dof_count)


def _axis_quadrature(n, q):
    """Composite Gauss rule on [0,1]: q points per element, n elements."""
    if q < 1:
        raise ValueError("quadrature order must be >= 1, got %r" % (q,))
    gp, gw = leggauss(q)
    h = 1.0 / n
    left = np.arange(n) * h
    pts = (left[:, None] + (gp[None, :] + 1.0) * (h / 2.0)).ravel()
    wts = np.tile(gw * (h / 2.0), n)
    return pts, wts


def quadrature_points(space, q):
    """Tensor composite Gauss rule on the unit cube.

    Returns (points, weights) with points of shape (P, dim) in lexicographic
    order and weights of shape (P,); sum(weights) == 1 up to roundoff.
    """
    mesh = space.mesh
    ax_p, ax_w = _axis_quadrature(mesh.elements_per_axis, q)
    if mesh.dim == 1:
        return ax_p[:, None], ax_w
    X, Y = np.meshgrid(ax_p, ax_p, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    wts = np.outer(ax_w, ax_w).ravel()
    return pts, wts


def _mass_1d(n):
    """Exact 1D P1 mass matrix on the uniform n-element mesh."""
    h = 1.0 / n
    main = np.full(n + 1, 2.0 * h / 3.0)
    main[0] = main[-1] = h / 3.0
    off = np.full(n, h / 6.0)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


class MassMatrix:
    """Gram matrix of the nodal basis with factorization and extreme eigenvalues.

    Attributes
    ----------
    matrix : dense symmetric (Q_h, Q_h) Gram matrix G (read-only)
    chol : lower-triangular L with G = L L^T (read-only)
    lambda_min, lambda_max : extreme eigenvalues of G
    """

    def __init__(self, space):
        mesh = space.mesh
        g1 = _mass_1d(mesh.elements_per_axis)
        ev1 = sla.eigvalsh(g1)
        if mesh.dim == 1:
            G = g1
            self.lambda_min = float(ev1[0])
            self.lambda_max = float(ev1[-1])
        else:
            G = np.kron(g1, g1)
            # spectrum of a Kronecker square is the set of pairwise products
            self.lambda_min = float(ev1[0] ** 2)
            self.lambda_max = float(ev1[-1] ** 2)
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
        self.space = space
        self.matrix = G
        self.chol = chol

    @property
    def dof_count(self):
        return self.space.dof_count


def assemble_mass(space):
    """Exact P1 mass matrix of the space (2D is the Kronecker square of 1D).

    Built on the first call and kept on the space; later calls return it.
    """
    if space.mass is None:
        space.mass = MassMatrix(space)
    return space.mass

