"""Cholesky-transformed symmetric eigenproblem and spectral diagnostics.

The generalized problem S Phi = lambda G Phi with S = G Sigma G is solved
through the congruent symmetric matrix S-tilde = (L^G)^T Sigma L^G, where
G = L^G (L^G)^T is the mass Cholesky factorization.  Eigenvectors transform
back via Phi = (L^G)^{-T} Phi-tilde, which makes the finite element
functions phi_l = Phi_l . theta exactly L2-orthonormal.  Every action of
L^G goes through the mass object, which in 2D applies the axis factor along
both lattice axes.  The exact side's operators apply an axis action along
every lattice axis (KroneckerOperator), and its spectrum is the Kronecker
power (kronecker_power) of the closed-form axis pairs of fields.KlOracle.

Diagnostics compare an exact-discrete spectrum against an estimated one:
Weyl eigenvalue stability, mixed spectral gaps, the spectral-gap condition,
Davis-Kahan subspace ratios, and the mass-spectrum sandwich that relates
the transformed perturbation norm to that of the covariance difference.
"""

import functools
import os
import tempfile

import numpy as np

from .bands import SymmetricBand, dense_form
from .errors import NumericError

SOURCE_EXACT = "ExactDiscrete"
SOURCE_ESTIMATED = "Estimated"

# operator_norm: dense below this many rows, Lanczos from it on.  Medians
# on one CPU of a Xeon VM (OpenBLAS, one thread), for the 1D Weyl differences
# at M=2000 (10-14 Lanczos steps): dense eigvalsh takes 0.08 ms against
# 0.6 ms at Q=33, breaks even near Q=97-129 (0.4-0.7 ms), and takes 3-3.8 ms
# against 0.7-1.1 ms at Q=257.
_LANCZOS_MIN_DOF = 128
# eigensolve: the dense eigh below this many rows, eigvalsh plus
# Lanczos from it on.  Same machine, k=5 of a 1D tapered projection estimate
# at M=200 (its band operator, 36-68 steps), medians of three estimates,
# dense against the k route: 1.4 against 1.8-2.0 ms at Q=129, 3.0 against
# 3.3-3.6 ms at Q=193, even at Q=241 (4.8-5.2 against 4.7-5.3 ms), 5.7-6.1
# against 5.4-5.8 ms at Q=257, 10 against 8 ms at Q=321 and 32-34 against
# 21 ms at Q=513.  A 1D MLE at M=200 takes 5.1 against 3.1 ms at Q=257; k=3
# of a 2D MLE estimate at M=2000 (16 steps) takes 0.17 s against 0.29 s at
# Q=1089.
_EIGENSOLVE_K_MIN_DOF = 257
_LANCZOS_RTOL = 1e-14
# Lanczos vectors allocated before the basis first doubles
_LANCZOS_BASIS = 16
# eigensolve: steps between solves of the tridiagonal.  At Q=513
# (k=5) its Lanczos took 30 ms solving every step and 15 ms every fourth.
_LANCZOS_CHECK_EVERY = 4


class KroneckerOperator:
    """The d-th Kronecker power A kron ... kron A of an axis operator A on
    the d-dimensional lattice of space.  Only the axis action of A is held
    (as fem.FeSpace.along_axes takes it); @ applies it along every lattice
    axis, so no Q_h x Q_h array, and for an O(n) action no (n+1) x (n+1)
    one, is formed.  For d = 1 it is A itself.  The exact side holds its
    nodal covariance (A = Sigma1, two cumulative sums) and, since
    L^G = L1 kron ... kron L1, its transform (A = S-tilde1 = L1^T Sigma1 L1,
    mass.axis_congruence on the bands) this way, and on a short axis the
    product with the matrix of either action (mercer.ExactSide).
    """

    def __init__(self, axis_action, space):
        self.axis_action = axis_action
        self.shape = (space.dof_count,) * 2
        self.space = space

    def __matmul__(self, X):
        return self.space.along_axes(self.axis_action, X)


def transform(cov, mass):
    """The stiffness (L^G)^T Sigma L^G of a covariance Sigma, given as an
    array or as an estimate (estimators.TaperedCovariance) whose operator
    is read.  A band Sigma (bands.SymmetricBand, a 1D tapered estimate)
    gives the band of it on the bands of the 1D factor
    (SymmetricBand.congruence), exactly symmetric as it is formed; any
    other Sigma gives the symmetrized dense triple product as one read-only
    array.  No dense form of a band is formed."""
    sigma = getattr(cov, "operator", cov)
    if not isinstance(sigma, SymmetricBand):
        sigma = np.asarray(sigma, dtype=float)
    Q = mass.dof_count
    if sigma.shape != (Q, Q):
        raise ValueError("covariance shape %r does not match dof count %d"
                         % (sigma.shape, Q))
    if isinstance(sigma, SymmetricBand):
        if mass.dim != 1:
            raise ValueError("a band covariance needs a 1D mass, got %dD"
                             % (mass.dim,))
        return sigma.congruence(*mass.chol_bands)
    raw = mass.congruence(sigma)
    stiffness = 0.5 * (raw + raw.T)
    stiffness.setflags(write=False)
    return stiffness


class DiscreteSpectrum:
    """Descending eigenpairs of a transformed stiffness matrix.

    tilde_vectors holds the l2-orthonormal eigenvectors of S-tilde as
    columns; gen_vectors holds the back-transformed generalized vectors
    Phi = (L^G)^{-T} Phi-tilde, whose functions are L2-orthonormal.
    """

    def __init__(self, eigenvalues, tilde_vectors, gen_vectors, source, mass):
        for arr in (eigenvalues, tilde_vectors, gen_vectors):
            arr.setflags(write=False)
        self.eigenvalues = eigenvalues
        self.tilde_vectors = tilde_vectors
        self.gen_vectors = gen_vectors
        self.source = source
        self.mass = mass

    @property
    def dof_count(self):
        return self.eigenvalues.shape[0]


def _dumped_error(matrix, reason, detail):
    """A NumericError naming reason and detail, with matrix saved to disk."""
    fd, path = tempfile.mkstemp(prefix="stiffness-dump-", suffix=".npy")
    os.close(fd)
    np.save(path, matrix)
    return NumericError("%s; offending matrix saved to %s: %s"
                        % (reason, path, detail))


def _dense(solver, matrix):
    """solver(matrix), a dense numpy eigensolver; a failure to converge
    raises NumericError with the matrix dumped."""
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise _dumped_error(matrix, "symmetric eigensolver failed to "
                            "converge", exc)


def eigensolve(stiffness, mass, k):
    """Symmetric eigendecomposition of S-tilde, descending, canonical signs.

    stiffness is S-tilde as transform returns it, an array or a
    bands.SymmetricBand, and mass the mass it was transformed with.  Its
    dense form (bands.dense_form; for a band, formed here and freed on
    return), which the dense solvers read, must be exactly symmetric, or
    ValueError is raised.
    All Q eigenvalues are found, but only the leading k eigenvectors: below
    _EIGENSOLVE_K_MIN_DOF rows as the columns of one dense eigh, from there
    on with the eigenvalues from eigvalsh and the vectors from the Lanczos
    iteration of operator_norm on stiffness itself, whose @ applies a band
    as its band.  It stops once each of the k leading Ritz pairs has a
    residual beta_j |s_ji| <= _LANCZOS_RTOL |theta_1|, solving its
    tridiagonal every _LANCZOS_CHECK_EVERY steps.  Each of the k Ritz values
    must then lie within its residual, plus the Q eps |theta_1| roundoff of
    eigvalsh, of the eigvalsh eigenvalue of its rank: one start vector can
    miss a copy of a repeated eigenvalue, and that raises NumericError with
    the matrix dumped, as a failed dense solve does.

    The sign of each tilde eigenvector is fixed by canonical_signs; the
    generalized vectors inherit the same flips.  The spectrum is tagged
    SOURCE_ESTIMATED, since every stiffness solved here is an estimate's.
    """
    matrix = dense_form(stiffness)
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("transformed stiffness must be exactly symmetric")
    Q = matrix.shape[0]
    if not 1 <= k <= Q:
        raise ValueError("k must lie in [1, %d], got %r" % (Q, k))
    if Q < _EIGENSOLVE_K_MIN_DOF:
        vals, vecs = _dense(np.linalg.eigh, matrix)
        order = np.argsort(-vals, kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
    else:
        vals = _dense(np.linalg.eigvalsh, matrix)[::-1]
        theta, resid, vecs = _leading_pairs(
            stiffness if isinstance(stiffness, SymmetricBand) else matrix, k)
        # an eigenvalue lies within resid of each Ritz value, and eigvalsh
        # rounds by up to about Q eps |lambda_1|
        tol = resid + Q * np.finfo(float).eps * abs(theta[0])
        if not np.all(np.abs(theta - vals[:k]) <= tol):
            raise _dumped_error(
                matrix, "Lanczos missed a leading eigenvalue",
                "Ritz values %r against eigenvalues %r" % (theta, vals[:k]))
    vecs = vecs * canonical_signs(vecs)
    # below the switch the dense solve is back-transformed whole and sliced
    # afterwards: slicing first keeps the bits for k >= 2, but a one-column
    # product rounds differently
    gen = mass.solve_lt(vecs)
    vecs, gen = vecs[:, :k], gen[:, :k]
    return DiscreteSpectrum(vals, vecs, gen, SOURCE_ESTIMATED, mass)


# canonical_signs: a component leads when its magnitude is within this
# relative distance of the largest
_SIGN_TIE_RTOL = 1e-12


def canonical_signs(vecs):
    """Signs (+-1 per column) that make each column's lead component
    positive: the first index whose magnitude is at least (1 -
    _SIGN_TIE_RTOL) times the largest.  Two components that tie in exact
    arithmetic, as the peaks of a sine mode can, thus pick the same lead
    whichever roundoff separates them."""
    mags = np.abs(vecs)
    lead = np.argmax(mags >= (1.0 - _SIGN_TIE_RTOL) * mags.max(axis=0),
                     axis=0)
    return np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def kronecker_order(mu, d):
    """The eigenvalues of the d-th Kronecker power of a matrix with the
    eigenvalues mu, in stable descending order, and the flat lattice index
    of the axis index tuple of each: the products mu_i mu_j (likewise for
    every d), with a tie putting (i, j) before (j, i) (i < j)."""
    vals = functools.reduce(np.multiply.outer, [mu] * d).ravel()
    order = np.argsort(-vals, kind="stable")
    return vals[order], order


def kronecker_columns(factors):
    """The column-wise Kronecker (Khatri-Rao) product of (m_j, k) arrays:
    the (m_1 ... m_d, k) array whose column i is the Kronecker product of
    the factors' columns i, each entry the one product np.kron forms."""
    P = factors[0]
    for F in factors[1:]:
        P = (P[:, None, :] * F[None, :, :]).reshape(-1, P.shape[1])
    return P


def kronecker_power(mu, gen, mass, k):
    """The exact spectrum on the lattice of mass, SOURCE_EXACT: the d-th
    Kronecker power of the exact pairs of one axis, every axis eigenvalue mu
    (nonnegative, descending) and at least min(k, n + 1) leading generalized
    axis vectors gen, with tilde vectors L1^T gen (mass.axis.lt), each in
    eigensolve's canonical signs.  Every eigenvalue (kronecker_order) and
    the k leading vectors are formed, and no Q_h x Q_h eigensolve or vector
    array.

    Eigenvalue mu_i mu_j has the tilde vector v_i kron v_j and, since
    L^G = L1 kron L1, the generalized vector Phi_i kron Phi_j (likewise for
    every d), and rank r has no axis index above r.  A product of
    canonically signed vectors is canonically signed, with the product of
    their leads as its lead, when the factors' leads fall short of their
    largest magnitudes by relative amounts summing to at most
    _SIGN_TIE_RTOL, as exact ties and roundoff do: no earlier index of the
    product comes as close to its largest.  For d = 1 it is the axis
    spectrum with its k leading vectors, bit for bit.
    """
    tilde = mass.axis.lt(gen)
    signs = canonical_signs(tilde)
    vals, order = kronecker_order(mu, mass.dim)
    index = np.unravel_index(order[:k], (mu.size,) * mass.dim)
    return DiscreteSpectrum(
        vals, kronecker_columns([tilde[:, i] * signs[i] for i in index]),
        kronecker_columns([gen[:, i] * signs[i] for i in index]),
        SOURCE_EXACT, mass)


def align_signs(reference, target):
    """Flip target eigenvectors so each pairs nonnegatively with the reference.

    The k target columns pair with the first k reference columns; the
    target may hold fewer vectors than the reference (eigensolve's k).
    Columns with an exactly zero dot product are left unchanged.  Returns a
    new spectrum; eigenvalues are shared.
    """
    if reference.dof_count != target.dof_count:
        raise ValueError("spectra have mismatched dimensions %d and %d"
                         % (reference.dof_count, target.dof_count))
    k = target.tilde_vectors.shape[1]
    dots = np.sum(reference.tilde_vectors[:, :k] * target.tilde_vectors,
                  axis=0)
    signs = np.where(dots < 0, -1.0, 1.0)
    return DiscreteSpectrum(target.eigenvalues.copy(),
                            target.tilde_vectors * signs,
                            target.gen_vectors * signs,
                            target.source, target.mass)


def opnorm_sandwich(mass, cov_diff_norm):
    """Bounds on the transformed-perturbation norm from the mass spectrum.

    ||S-tilde difference|| lies in [lambda_min(G) v, lambda_max(G) v] where
    v is the operator norm of the covariance difference itself.
    """
    if cov_diff_norm < 0:
        raise ValueError("cov_diff_norm must be >= 0, got %r" % (cov_diff_norm,))
    return (mass.lambda_min * cov_diff_norm, mass.lambda_max * cov_diff_norm)


def _lanczos(S, converged, check_every=1):
    """Lanczos with full reorthogonalization (Golub & Van Loan, Matrix
    Computations, 10.1) on a symmetric S, started from a fixed vector.

    S is a matrix or any object with a shape (Q, Q) and an @ that applies
    it to a (Q,) vector and to a (Q, k) block.  After every check_every-th
    step j, after step Q and once the Krylov space is exhausted, the j x j
    tridiagonal is solved for its ascending Ritz values theta and vectors
    s, and converged(theta, s, beta) is asked whether to stop; beta is the
    norm of the next residual, so beta |s[-1, i]| is the residual of Ritz
    pair i.  Returns theta, s, beta and the j Lanczos vectors (rows) of the
    first accepted step, or raises NumericError.  The basis doubles as the
    steps need it, so j steps hold at most 2j vectors.
    """
    Q = S.shape[0]
    basis = np.empty((min(_LANCZOS_BASIS, Q), Q))
    v = np.random.default_rng(0).standard_normal(Q)
    v /= np.linalg.norm(v)
    alpha, beta = [], []
    for j in range(1, Q + 1):
        if j > len(basis):
            grown = np.empty((min(2 * len(basis), Q), Q))
            grown[:len(basis)] = basis
            basis = grown
        basis[j - 1] = v
        w = S @ v
        alpha.append(v @ w)
        # Gram-Schmidt against the whole basis, twice: once leaves roundoff
        # of the size of the removed components
        V = basis[:j]
        w -= V.T @ (V @ w)
        w -= V.T @ (V @ w)
        b = np.linalg.norm(w)
        if j % check_every == 0 or j == Q or b == 0.0:
            theta, s = np.linalg.eigh(
                np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if converged(theta, s, b):
                return theta, s, b, V
            if b == 0.0:
                break
        beta.append(b)
        v = w / b
    raise NumericError("Lanczos iteration did not converge in %d steps" % j)


def _leading_pairs(S, k):
    """The k largest Ritz values of S, descending, their residuals and their
    Ritz vectors (Q x k), from _lanczos stopped once each residual is at
    most _LANCZOS_RTOL |theta_1|."""
    def converged(theta, s, b):
        return (theta.size >= k and np.all(
            b * np.abs(s[-1, -k:]) <= _LANCZOS_RTOL * abs(theta[-1])))

    theta, s, b, V = _lanczos(S, converged, _LANCZOS_CHECK_EVERY)
    s = s[:, ::-1][:, :k]
    return theta[::-1][:k], b * np.abs(s[-1]), V.T @ s


def operator_norm(S):
    """Spectral norm of a symmetric operator S via its extreme eigenvalues.

    S is a symmetric matrix, or any object with a shape (Q, Q) and an @
    that applies it to a (Q,) vector and to a (Q, k) block.  S is not
    symmetrized here: callers pass an exactly symmetric matrix, or an
    operator that is symmetric up to roundoff.  Below _LANCZOS_MIN_DOF rows a
    dense eigensolve of S @ I gives them.  From there on _lanczos, checked
    every step, stops once every extreme Ritz value theta_j plus its
    residual estimate beta |s_kj| is at most (1 + _LANCZOS_RTOL) max|theta|.
    For the Ritz value of largest magnitude that is beta |s_kj| <=
    _LANCZOS_RTOL |theta|; at the other end it keeps an unconverged value
    from hiding a larger eigenvalue.  The zero operator gives exactly 0.0,
    and no convergence within Q steps raises NumericError.
    """
    Q = S.shape[0]
    if Q < _LANCZOS_MIN_DOF:
        vals = np.linalg.eigvalsh(S @ np.eye(Q))
        return float(max(abs(vals[0]), abs(vals[-1])))

    def converged(theta, s, b):
        top = max(abs(theta[0]), abs(theta[-1]))
        bound = np.abs(theta[[0, -1]]) + b * np.abs(s[-1, [0, -1]])
        return np.max(bound) <= (1.0 + _LANCZOS_RTOL) * top

    theta = _lanczos(S, converged)[0]
    return float(max(abs(theta[0]), abs(theta[-1])))


class _Difference:
    """The operator v -> A v - B v of two symmetric operators of one shape,
    as operator_norm takes it: applied, never formed."""

    def __init__(self, A, B):
        self.shape = A.shape
        self._A, self._B = A, B

    def __matmul__(self, X):
        return self._A @ X - self._B @ X


def _mixed_gaps(exact_vals, est_vals, L):
    """Mixed gaps min{est_{l-1} - exact_l, exact_l - est_{l+1}} in magnitude.

    The estimated sequence is padded with +inf below index 1 and -inf above
    index Q, so boundary gaps stay well defined.
    """
    est_pad = np.concatenate(([np.inf], est_vals, [-np.inf]))
    return np.minimum(np.abs(est_pad[:L] - exact_vals[:L]),
                      np.abs(exact_vals[:L] - est_pad[2:L + 2]))


def gap_condition_margins(gaps, oracle, h, s, C1, stiffness_diff_norm):
    """Margins gap_l - (4 C1 h^{2s} / lambda_{l+1} + 4 ||S-tilde diff||).

    One per l = 1..len(gaps), with the continuous gaps and eigenvalues; the
    spectral-gap condition holds at l where the margin is >= 0.
    """
    lam_next = oracle.eigenvalues(len(gaps) + 1)[1:]
    return gaps - (4.0 * C1 * h ** (2.0 * s) / lam_next
                   + 4.0 * stiffness_diff_norm)


class SpectralDiagnostics:
    """Joint stability report for an exact and an estimated discrete spectrum."""

    def __init__(self, weyl_bound, eigenvalue_dev, discrete_gaps,
                 continuous_gaps, gap_condition_per_ell, quarter_gap_per_ell,
                 davis_kahan_bounds, sandwich_interval, cov_diff_norm):
        self.weyl_bound = weyl_bound
        self.eigenvalue_dev = eigenvalue_dev
        self.discrete_gaps = discrete_gaps
        self.continuous_gaps = continuous_gaps
        self.gap_condition_per_ell = gap_condition_per_ell
        self.gap_condition_ok = bool(np.all(gap_condition_per_ell))
        self.quarter_gap_per_ell = quarter_gap_per_ell
        self.davis_kahan_bounds = davis_kahan_bounds
        self.sandwich_interval = sandwich_interval
        self.cov_diff_norm = cov_diff_norm
        # the spectral-gap theorem: whenever the condition holds at l, the
        # mixed gap retains at least a quarter of the continuous gap
        self.theorem_consistent = bool(np.all(
            ~gap_condition_per_ell | quarter_gap_per_ell))


def diagnostics(exact, estimated, s_exact, s_est, cov_exact, cov_est, oracle,
                L, C1=1.0, C=1.0, s=0.5):
    """Compare an estimated spectrum against the exact discrete one.

    Computes the exact operator norm of S-tilde_exact - S-tilde_est (the
    Weyl bound), per-index eigenvalue deviations, mixed and continuous
    spectral gaps for l <= L, the gap condition (gap_condition_margins with
    the calibration constants C1 and s), Davis-Kahan ratios
    C ||S-tilde diff|| / mixed gap, the norm of the covariance difference
    Sigma_exact - Sigma_est, and the mass-spectrum sandwich
    (opnorm_sandwich) on it, which must contain the Weyl bound.  Failed gap
    checks are reported, never raised.

    s_exact and s_est are the transforms of the covariances cov_exact and
    cov_est.  All four are operators with a shape and an @ (a matrix, an
    estimators.TaperedCovariance, a bands.SymmetricBand or a
    KroneckerOperator; the 1D tapered ones apply their bands).  Each
    difference is applied as v -> A v - B v and never formed: below
    _LANCZOS_MIN_DOF rows its dense form is the difference of the two
    matrices, bit for bit, and from there on the norms take only
    Q_h-vector work beyond the operators.
    No mass solve runs, and an operator against itself gives 0.
    """
    Q = exact.dof_count
    if not 1 <= L <= Q:
        raise ValueError("L must lie in [1, %d], got %r" % (Q, L))
    mass = exact.mass
    weyl_bound = operator_norm(_Difference(s_exact, s_est))
    eigenvalue_dev = np.abs(exact.eigenvalues - estimated.eigenvalues)
    if not np.max(eigenvalue_dev) <= weyl_bound + 1e-10:
        raise NumericError("eigenvalue deviation %.3e exceeds the Weyl bound "
                           "%.3e" % (np.max(eigenvalue_dev), weyl_bound))

    discrete_gaps = _mixed_gaps(exact.eigenvalues, estimated.eigenvalues, L)
    continuous_gaps = oracle.gaps(L)
    gap_condition = gap_condition_margins(continuous_gaps, oracle,
                                          mass.space.mesh.h, s, C1,
                                          weyl_bound) >= 0
    quarter_gap = discrete_gaps >= 0.25 * continuous_gaps
    davis_kahan = np.full(L, np.inf)
    pos = discrete_gaps > 0
    davis_kahan[pos] = C * weyl_bound / discrete_gaps[pos]

    # the norm comes from the covariances, not from the transformed
    # difference, so the sandwich can catch an s_est that is not the
    # transform of cov_est
    cov_diff_norm = operator_norm(_Difference(cov_exact, cov_est))
    lo, hi = opnorm_sandwich(mass, cov_diff_norm)
    slack = 1e-10 * max(1.0, hi)
    if not lo - slack <= weyl_bound <= hi + slack:
        raise NumericError("transformed norm %.6e escapes the sandwich "
                           "[%.6e, %.6e]" % (weyl_bound, lo, hi))

    return SpectralDiagnostics(weyl_bound, eigenvalue_dev, discrete_gaps,
                               continuous_gaps, gap_condition, quarter_gap,
                               davis_kahan, (lo, hi), cov_diff_norm)
