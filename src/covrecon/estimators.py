"""Covariance estimation from sample batches: MLE, tapering, decay checks.

The tapering estimator multiplies the MLE sample covariance entrywise by
trapezoidal weights that vanish beyond a bandwidth tau chosen from the
sample count and the off-diagonal decay exponent alpha.  In 1D the estimate
is the band of its tau kept diagonals, formed from the samples
(band_taper); on a 2D lattice the weight of a node pair is the product of
its two axis weights (taper).  The rate function rho_tilde gives the
theoretical squared-error level of that choice.
"""

import collections
import functools
import math

import numpy as np

from .bands import SymmetricBand, dense_form


def _symmetric(matrix):
    """matrix as a float array, which must be square and exactly
    symmetric."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or not np.array_equal(matrix, matrix.T):
        raise ValueError("covariance matrix must be square and exactly "
                         "symmetric, got shape %r" % (matrix.shape,))
    return matrix


class TaperedCovariance:
    """A symmetric covariance estimate with its estimator metadata.

    operator is the estimate: one exactly symmetric array, or, for a 1D
    Tapered estimate, a bands.SymmetricBand.  shape and @ apply it, as
    spectral.transform and spectral.diagnostics take it; matrix is its
    dense form, which for a band is formed on first read (only
    covariance.txt and the decay check read it).  estimator_kind is "MLE"
    (tau = 0, alpha = None), "Tapered" (even bandwidth tau >= 2) or, as
    mercer.estimate serves the exact nodal covariance, "Exact" (tau = 0,
    alpha = None, M = 0); M is the sample count the estimate came from.
    """

    def __init__(self, operator, tau, alpha, estimator_kind, M):
        if not isinstance(operator, SymmetricBand):
            operator = _symmetric(operator)
        self.operator = operator
        self.shape = operator.shape
        self.tau = int(tau)
        self.alpha = alpha
        self.estimator_kind = estimator_kind
        self.M = int(M)

    @functools.cached_property
    def matrix(self):
        return dense_form(self.operator)

    @property
    def dof_count(self):
        return self.shape[0]

    def __matmul__(self, X):
        return self.operator @ X


def sample_mean(batch):
    """Arithmetic mean of the sample rows."""
    if batch.sample_count < 1:
        raise ValueError("sample mean needs at least 1 sample")
    return np.mean(batch.coeffs, axis=0)


def _centred(batch):
    """The samples minus their mean, with the sample count M >= 2."""
    M = batch.sample_count
    if M < 2:
        raise ValueError("MLE covariance needs at least 2 samples, got %d" % (M,))
    return batch.coeffs - sample_mean(batch), M


def mle_covariance(batch):
    """Centered second-moment matrix with divisor M (the Gaussian MLE)."""
    Xc, M = _centred(batch)
    # numpy computes Xc^T Xc as a symmetric rank-k update: exactly symmetric;
    # it is divided in place, so no second Q x Q array is held
    gram = Xc.T @ Xc
    gram /= M
    return TaperedCovariance(gram, tau=0, alpha=None, estimator_kind="MLE",
                             M=M)


def tapering_weights(tau, j, jprime):
    """Trapezoidal taper weight for index offset |j - jprime| at width tau.

    1 on offsets up to tau/2, linear decay 2(1 - offset/tau) up to tau,
    0 beyond.  tau must be a positive even integer.
    """
    tau = int(tau)
    if tau < 2 or tau % 2 != 0:
        raise ValueError("tau must be a positive even integer, got %r" % (tau,))
    dist = np.abs(np.asarray(j) - np.asarray(jprime)).astype(float)
    w = np.clip(2.0 * (1.0 - dist / tau), 0.0, 1.0)
    return w if w.ndim else float(w)


def _lattice_side(Q, dim):
    """Nodes m per axis of a lexicographic m^dim lattice with Q nodes."""
    m = int(round(Q ** (1.0 / dim)))
    if m ** dim != Q:
        raise ValueError("%d dofs do not form a %dD lattice" % (Q, dim))
    return m


def _lattice_offsets(Q, dim):
    """Chebyshev offsets max_k |i_k - i'_k| between the Q lattice nodes."""
    coords = np.unravel_index(np.arange(Q), (_lattice_side(Q, dim),) * dim)
    return functools.reduce(np.maximum, [np.abs(i[:, None] - i[None, :])
                                         for i in coords])


def taper_bandwidth(M, alpha):
    """The rate-optimal taper width for M samples: the smallest even integer
    >= M^{1/(2 alpha + 1)}, and at least 2."""
    return max(2 * math.ceil(M ** (1.0 / (2.0 * alpha + 1.0)) / 2.0), 2)


def _clamped_bandwidth(Q, M, alpha):
    """taper_bandwidth(M, alpha) clamped to the largest even integer <= Q,
    or None if Q < M^{1/(2 alpha + 1)}: the matrix is then so small that
    the plain MLE already attains the rate, and is not tapered."""
    if not alpha > 0:
        raise ValueError("alpha must be positive, got %r" % (alpha,))
    if Q < M ** (1.0 / (2.0 * alpha + 1.0)):
        return None
    return min(taper_bandwidth(M, alpha), Q - Q % 2)


def band_taper(batch, alpha):
    """The tapered estimate of a batch of 1D samples at the rate-optimal
    bandwidth for alpha, as the band of its tau kept diagonals.

    tau is that of _clamped_bandwidth; an undersized matrix gets the MLE.
    Diagonal o < tau is w(o) sum_m Xc[m, i] Xc[m, i + o] / M, with Xc the
    centred samples and w the taper weight (tapering_weights): each entry
    of the MLE the taper keeps, times its weight.  It takes O(M Q tau) work
    and no Q x Q array.
    """
    Q = batch.coeffs.shape[1]
    tau = _clamped_bandwidth(Q, batch.sample_count, alpha)
    if tau is None:
        return mle_covariance(batch)
    Xc, M = _centred(batch)
    weights = tapering_weights(tau, 0, np.arange(tau))
    upper = np.zeros((tau, Q))
    for o, w in enumerate(weights):
        upper[o, :Q - o] = np.einsum("mi,mi->i", Xc[:, :Q - o], Xc[:, o:]) \
            / M * w
    return TaperedCovariance(SymmetricBand(upper), tau=tau, alpha=alpha,
                             estimator_kind="Tapered", M=M)


def taper(cov, alpha, dim):
    """Taper a dense MLE covariance on a dim-dimensional lattice, dim >= 2,
    at the rate-optimal bandwidth for alpha (a 1D estimate is tapered from
    its samples: band_taper).

    tau is that of _clamped_bandwidth, and an undersized cov is returned
    unchanged.  The Q dofs are the lexicographic nodes of the lattice,
    tapered per axis: the weight of a node pair is the product of the
    weights of its axis offsets.  The covariance, seen as its (m,) * 2 dim
    lattice array, is multiplied by the m x m axis weight
    W1[i, j] = w(|i - j|) along each axis pair (k, dim + k), in place after
    the first, so no Q x Q weight is built.
    """
    if dim < 2:
        raise ValueError("a 1D estimate is tapered from its samples "
                         "(band_taper), got dim %r" % (dim,))
    Q = cov.dof_count
    tau = _clamped_bandwidth(Q, cov.M, alpha)
    if tau is None:
        return cov
    m = _lattice_side(Q, dim)
    i = np.arange(m)
    W1 = tapering_weights(tau, i[:, None], i)

    def along(k):  # W1 on lattice axes k (row) and dim + k (column)
        return W1.reshape([m if a % dim == k else 1 for a in range(2 * dim)])

    out = cov.matrix.reshape((m,) * (2 * dim)) * along(0)
    for k in range(1, dim):
        out *= along(k)
    return TaperedCovariance(out.reshape(Q, Q), tau=tau, alpha=alpha,
                             estimator_kind="Tapered", M=cov.M)


def estimate_covariance(batch, alpha=None):
    """MLE covariance of a batch, tapered at the optimal bandwidth if alpha
    given: in 1D as a band (band_taper), on a lattice by taper."""
    if alpha is None:
        return mle_covariance(batch)
    dim = batch.space.mesh.dim
    if dim == 1:
        return band_taper(batch, alpha)
    return taper(mle_covariance(batch), alpha, dim)


def rho_tilde(h, M, alpha, d):
    """Theoretical squared-error rate of the tapered estimator.

    Returns M^{-2a/(2a+1)} + d log(1/h)/M when the dof count
    Q_h = (1/h + 1)^d reaches the optimal bandwidth M^{1/(2a+1)}, and the
    untapered level h^{-d}/M otherwise.
    """
    if not (h > 0 and M > 0 and alpha > 0 and d > 0):
        raise ValueError("rho_tilde arguments must all be positive")
    Q_h = (1.0 / h + 1.0) ** d
    if Q_h >= M ** (1.0 / (2.0 * alpha + 1.0)):
        return M ** (-2.0 * alpha / (2.0 * alpha + 1.0)) + d * math.log(1.0 / h) / M
    return h ** (-d) / M


# measured off-diagonal decay of a covariance matrix against a class bound:
# the decay_check block of estimate_report.json
DecayClassCheck = collections.namedtuple(
    "DecayClassCheck", "alpha C1_est lambda_max passes")


def decay_class_check(matrix, alpha, C1, C2, dim):
    """Fit the smallest decay constant of a matrix and test class membership.

    For every cutoff c the worst-row off-diagonal tail sum
    max_j sum_{off(j,j')>c} |A_{j,j'}| is computed, with off the Chebyshev
    offset of the dim-dimensional lattice (|j - j'| in 1D); C1_est is the
    largest tail(c) * c^alpha, so membership in the decay class with
    constants (C1, C2) holds iff C1_est <= C1 and the top eigenvalue is <= C2.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("decay check needs a square matrix, got %r" % (A.shape,))
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(np.max(np.abs(A)), 1.0)):
        raise ValueError("decay check needs a symmetric matrix")
    Q = A.shape[0]
    off = _lattice_offsets(Q, dim)
    span = int(off.max()) + 1
    # per row: bucket |entries| by offset, then suffix-sum over offsets
    rows = np.arange(Q)[:, None] * span
    by_dist = np.bincount((rows + off).ravel(), weights=np.abs(A).ravel(),
                          minlength=Q * span).reshape(Q, span)
    suffix = np.cumsum(by_dist[:, ::-1], axis=1)[:, ::-1]
    # tail(c) needs offsets strictly beyond c: shift the suffix by one
    tail = np.zeros(span)
    tail[:-1] = np.max(suffix[:, 1:], axis=0)
    cs = np.arange(1, span, dtype=float)
    C1_est = float(np.max(tail[1:] * cs ** alpha)) if span > 1 else 0.0
    lambda_max = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    return DecayClassCheck(alpha, C1_est, lambda_max,
                           bool(C1_est <= C1 and lambda_max <= C2))


# nodal proxy for the inverse concentration constant of a batch: the
# subgaussian block of estimate_report.json
SubgaussianDiagnostic = collections.namedtuple(
    "SubgaussianDiagnostic", "c_inf_hat rho_inv_nodal")


def subgaussian_diagnostic(batch):
    """Estimate c_inf = sqrt(E max_j K_j^2) from the per-sample sup norms of
    a batch, and rho_inv_nodal = 4 c_inf^2."""
    if batch.sample_count < 2:
        raise ValueError("moment diagnostics need at least 2 samples, got %d"
                         % (batch.sample_count,))
    per_sample_max = np.max(np.abs(batch.coeffs), axis=1)
    c_inf_hat = float(np.sqrt(np.mean(per_sample_max ** 2)))
    return SubgaussianDiagnostic(c_inf_hat, 4.0 * c_inf_hat ** 2)
