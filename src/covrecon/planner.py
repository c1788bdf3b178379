"""A-priori parameter planning for covariance reconstruction.

Given a spectral profile (eigenvalue oracle with its dimension d,
smoothness s, decay exponent alpha, growth exponent gamma, calibration
constants) and a target accuracy epsilon, the planner couples the
truncation rank L, the sample count M and the mesh width h so the three
error contributions all sit below epsilon.  Three regimes are
distinguished by which term of the estimator rate dominates; a regime's
number is its position in CASES plus one:

  1 SmallQh              - dof count below the tapering bandwidth; plain MLE.
  2 LargeQhLogDominated  - tapering active, log(1/h)/M term balanced.
  3 LargeQhRateDominated - tapering active, M^{-2a/(2a+1)} term dominates.

Sample-count thresholds (M_bar, M_tilde, M_hat, M_prime) are defined as
the smallest integer M satisfying a closed inequality.  M_hat is 1 for
every alpha; the others are found by probing the unimodal log-space
predicate at its peak, exponential stepping, then bisection.  For M_tilde
the product-logarithm closed form is evaluated with an independent
bisection as a cross-check.
"""

import math
import operator

import numpy as np

from .errors import (ConfigError, DegenerateSpectrumError,
                     InfeasiblePlanError, NumericError)
from .estimators import taper_bandwidth
from .fields import KlOracle

DEFAULT_CALIBRATION = dict(C1=1.0, C2=1.0, C=1.0, h0=0.5, rho1=1.0,
                           lambda_max_mass=1.0, beta=0.1)

CASE_SMALL = "SmallQh"
CASE_LOG = "LargeQhLogDominated"
CASE_RATE = "LargeQhRateDominated"
# a case's number is its position here plus one
CASES = (CASE_SMALL, CASE_LOG, CASE_RATE)

_SEARCH_LIMIT = 10 ** 18


def resolve_calibration(calibration=None):
    """DEFAULT_CALIBRATION updated with the given constants.

    Raises ConfigError naming calibration.<key> for an unknown constant or
    one that is not a finite number > 0 (YAML true and .inf included).
    """
    cal = dict(DEFAULT_CALIBRATION)
    if calibration:
        cal.update(calibration)
    for key, val in cal.items():
        if key not in DEFAULT_CALIBRATION:
            raise ConfigError("calibration.%s: unknown constant" % (key,))
        if (isinstance(val, bool) or not isinstance(val, (int, float))
                or not 0 < val < math.inf):
            raise ConfigError("calibration.%s: must be a finite number > 0, "
                              "got %r" % (key, val))
    return cal


class SpectralProfile:
    """Everything the planner needs to know about the target field."""

    def __init__(self, oracle, s, alpha, gamma, calibration=None):
        if gamma < 0.5:
            raise ValueError("gamma must be >= 1/2, got %r" % (gamma,))
        cal = resolve_calibration(calibration)
        self.oracle = oracle
        self.s = float(s)
        self.d = int(oracle.dim)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.calibration = cal


def brownian_profile(d=1, s=0.5, alpha=1.0, gamma=1.5, calibration=None):
    """Profile of the Brownian field: eigenvalue ratios grow like L^{3/2}."""
    return SpectralProfile(KlOracle(d), s, alpha, gamma, calibration)


def _gaps(oracle, L):
    gaps = oracle.gaps(L)
    if np.any(gaps <= 0):
        raise DegenerateSpectrumError(
            "zero spectral gap at index %d; eigenvalue ratios are undefined"
            % (int(np.argmin(gaps)) + 1,))
    return gaps


def g_of_l(profile, L):
    """Root sum of squared eigenvalue-to-gap ratios over the first L modes."""
    lams = profile.oracle.eigenvalues(L)
    return float(np.sqrt(np.sum((lams / _gaps(profile.oracle, L)) ** 2)))


def h_of_l(profile, L):
    """Squared worst gap over the first L modes, scaled by 48^-2."""
    return float(np.min(_gaps(profile.oracle, L)) ** 2 / 2304.0)


def p0_bound(oracle, calibration, Q_h, tau, M, L):
    """Lower bound on the probability that all L spectral gaps survive.

    1 - 2 Q_h 5^tau exp(-M rho1 (min gap / (48 lambda_max(G)))^2), with the
    gaps of the oracle and rho1, lambda_max(G) = lambda_max_mass from the
    calibration, clamped to [0, 1] and evaluated in log space so large tau
    cannot overflow.
    """
    if Q_h < 1 or L < 1 or M < 0:
        raise ValueError("p0_bound needs Q_h >= 1, L >= 1, M >= 0")
    tau = int(tau)
    if tau < 2 or tau % 2 != 0:
        raise ValueError("tau must be a positive even integer, got %r" % (tau,))
    min_gap = float(np.min(_gaps(oracle, L)))
    arg = (min_gap / (48.0 * calibration["lambda_max_mass"])) ** 2
    log_fail = (math.log(2.0 * Q_h) + tau * math.log(5.0)
                - M * calibration["rho1"] * arg)
    if log_fail >= 0.0:
        return 0.0
    return float(-math.expm1(log_fail))


# ---------------------------------------------------------------------------
# integer thresholds


def _iceil(x):
    """Ceiling with a relative tolerance so near-integers do not round up."""
    if not math.isfinite(x):
        raise InfeasiblePlanError("planned quantity overflowed to %r" % (x,))
    return max(int(math.ceil(x * (1.0 - 1e-12))), 1)


def int_threshold(pred, peak):
    """Smallest integer M >= 1 satisfying a peak-unimodal predicate.

    pred must be false on an initial segment, with its log-space defect
    increasing up to ~peak and decreasing after, so the satisfying set is
    {1} or a final segment.  Verified on exit: pred(M) holds and pred(M-1)
    fails (unless M == 1).
    """
    if pred(1):
        return 1
    lo = max(int(math.floor(peak)), 1)
    if pred(lo):
        # peak estimate overshot the true crossing; bracket from below
        hi = lo
        lo = 1
    else:
        hi = max(lo + 1, 2)
        while not pred(hi):
            lo = hi
            hi *= 2
            if hi > _SEARCH_LIMIT:
                raise InfeasiblePlanError(
                    "threshold search exceeded %d samples; the accuracy "
                    "target is unattainable for this profile"
                    % (_SEARCH_LIMIT,))
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    if not pred(hi) or pred(hi - 1):
        raise NumericError("threshold postcondition failed at M=%d" % (hi,))
    return hi


def lambert_wm1(z):
    """Lower real branch of w e^w = z for z in [-1/e, 0), by bisection.

    Solves the increasing log form f(w) = w + ln(-w) - ln(-z) on w <= -1.
    """
    if not -1.0 / math.e - 1e-15 <= z < 0.0:
        raise ValueError("lambert_wm1 needs z in [-1/e, 0), got %r" % (z,))
    target = math.log(-z)

    def f(w):
        return w + math.log(-w) - target

    hi = -1.0
    lo = -2.0
    while f(lo) > 0.0:
        lo *= 2.0
        if lo < -1e308:
            raise ValueError("lambert_wm1 bracketing failed for z=%r" % (z,))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _threshold_bar(L, eps, alpha, rhoH):
    """Smallest M with (1/2)ln L - ln eps + ln M/(2a+1) - M rho1 H <= 0."""
    const = 0.5 * math.log(L) - math.log(eps)
    inv = 1.0 / (2.0 * alpha + 1.0)

    def pred(M):
        return const + inv * math.log(M) - M * rhoH <= 0.0

    peak = inv / rhoH
    return int_threshold(pred, peak)


def _threshold_hat(alpha):
    """Smallest M with ln M/(2a+1) - M^{1/(2a+1)} <= 0, which is 1: at M = 1
    the inequality reads 0 - 1 <= 0 for every alpha."""
    return 1


def _threshold_prime(L, eps, alpha, rhoH):
    """Smallest M with (1/2)ln L - ln eps - M rho1 H + M^{1/(2a+1)} <= 0."""
    const = 0.5 * math.log(L) - math.log(eps)
    p = 1.0 / (2.0 * alpha + 1.0)

    def pred(M):
        return const - M * rhoH + M ** p <= 0.0

    peak = (p / rhoH) ** (1.0 / (1.0 - p))
    return int_threshold(pred, peak)


def _tilde_crosscheck(L, eps, alpha, rhoH):
    """M_tilde via the product-logarithm closed form, or 1 if no crossing.

    Uses a plain ceiling: the tolerance ceiling would shift thresholds of
    order 1e12+ by many integers, while the closed form is only compared
    against the integer search within +-1 anyway.
    """
    b = (2.0 * alpha + 1.0) * rhoH
    z = -b * (eps / math.sqrt(L)) ** (2.0 * alpha + 1.0)
    if z < -1.0 / math.e:
        return 1
    value = -lambert_wm1(z) / b
    if not math.isfinite(value):
        raise InfeasiblePlanError("product-log threshold overflowed")
    return max(int(math.ceil(value)), 1)


class PlanResult:
    """One regime's coupled parameter choice for a target accuracy."""

    def __init__(self, epsilon, case_tag, L_eps, M_eps, h_eps, h_interval,
                 thresholds, feasible, reason, binding, p0_planned, notes,
                 candidates=None):
        self.epsilon = epsilon
        self.case_tag = case_tag
        self.L_eps = L_eps
        self.M_eps = M_eps
        self.h_eps = h_eps
        self.h_interval = h_interval
        self.thresholds = thresholds
        self.feasible = feasible
        self.reason = reason
        self.binding = binding
        self.p0_planned = p0_planned
        self.notes = notes
        self.candidates = candidates or []
        if not (L_eps >= 1 and M_eps >= 1):
            raise NumericError("planned L=%r and M=%r must be >= 1"
                               % (L_eps, M_eps))
        if feasible and not 0.0 < h_eps <= self.h_interval[1] + 1e-300:
            raise NumericError("planned h=%r escapes its admissible interval "
                               "%r" % (h_eps, self.h_interval))


def truncation_rank(epsilon, d, s):
    """L_eps = ceil(eps^{-2d/(4s+d)}) with near-integer tolerance."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1), got %r" % (epsilon,))
    rank = _iceil(epsilon ** (-2.0 * d / (4.0 * s + d)))
    if rank > 10 ** 8:
        raise InfeasiblePlanError(
            "accuracy target %g needs truncation rank %d, beyond any "
            "practical spectral computation" % (epsilon, rank))
    return rank


_value = operator.itemgetter(1)


def _plan_case(profile, epsilon, L, case_tag):
    d, s, alpha, gamma = profile.d, profile.s, profile.alpha, profile.gamma
    cal = profile.calibration
    h0, beta = cal["h0"], cal["beta"]
    H = h_of_l(profile, L)
    rhoH = cal["rho1"] * H
    # the two mesh bounds derived from the spectrum at rank L
    lam_L, lam_next = profile.oracle.eigenvalues(L + 1)[-2:].tolist()
    spec_a = H ** (1.0 / (4.0 * s)) * lam_next ** (1.0 / (2.0 * s))
    spec_b = lam_L ** (1.0 / s)
    d21 = d * (2.0 * alpha + 1.0)
    notes = ["p0 uses lambda_max(G)=%g from calibration; raw P1 mass "
             "matrices scale like h^d and are normalized by their top "
             "eigenvalue for planning" % (cal["lambda_max_mass"],)]

    # (name, value) of each sample-count term; M is the largest
    if case_tag == CASE_LOG:
        thresholds = {
            "M_tilde": _threshold_bar(L, epsilon, alpha, rhoH),
            "M_tilde_productlog": _tilde_crosscheck(L, epsilon, alpha, rhoH)}
        if abs(thresholds["M_tilde"] - thresholds["M_tilde_productlog"]) > 1:
            raise NumericError(
                "integer search M_tilde=%d and product-log threshold %d "
                "disagree" % (thresholds["M_tilde"],
                              thresholds["M_tilde_productlog"]))
        expo = (2.0 * (2.0 * s + d) * beta + 2.0 * s * d * gamma) / (s * d)
        m_terms = [("M_tilde", thresholds["M_tilde"]),
                   ("beta_rate", _iceil(L ** expo * epsilon ** -2.0))]
    else:
        if case_tag == CASE_SMALL:
            thresholds = {"M_bar": _threshold_bar(L, epsilon, alpha, rhoH)}
        else:
            thresholds = {"M_hat": _threshold_hat(alpha),
                          "M_prime": _threshold_prime(L, epsilon, alpha, rhoH)}
        m_terms = list(thresholds.items()) + [
            ("rate", _iceil(epsilon ** (-(2.0 * alpha + 1.0) / alpha)
                            * L ** (gamma * (2.0 * alpha + 1.0) / alpha))),
            ("spectral", _iceil(min(spec_a, spec_b) ** (-d21)))]
    m_name, M = max(m_terms, key=_value)

    if case_tag == CASE_SMALL:
        h_name, h = min([("M^{-1/(d(2a+1))}", M ** (-1.0 / d21)), ("h0", h0)],
                        key=_value)
        interval = (h, h)
        feasible, reason = True, "point mesh width"
        binding = {"M": m_name, "h": h_name}
    else:
        lower_terms = [("log-balance",
                        math.exp((0.5 * math.log(L) - math.log(epsilon)
                                  - M * rhoH) / d))]
        if case_tag == CASE_RATE:
            lower_terms.append(("rate-domination",
                                math.exp(-(M ** (1.0 / (2.0 * alpha + 1.0))) / d)))
        lo_name, lower = max(lower_terms, key=_value)
        up_name, upper = min([("H^{1/4s} lam_{L+1}^{1/2s}", spec_a),
                              ("lam_L^{1/s}", spec_b),
                              ("M^{-1/(d(2a+1))}", M ** (-1.0 / d21)),
                              ("h0", h0)], key=_value)
        interval = (lower, upper)
        feasible = lower <= upper
        h = upper if feasible else float("nan")
        reason = "admissible mesh interval nonempty" if feasible else (
            "infeasible: h lower bound %.6e (%s) exceeds upper bound %.6e (%s)"
            % (lower, lo_name, upper, up_name))
        binding = {"M": m_name, "h_lower": lo_name, "h_upper": up_name}

    if feasible:
        tau = taper_bandwidth(M, alpha)
        Q_h = int(round(1.0 / h) + 1) ** d
        p0 = p0_bound(profile.oracle, cal, Q_h, tau, M, L)
    else:
        p0 = float("nan")
    return PlanResult(epsilon, case_tag, L, M, h, interval, thresholds,
                      feasible, reason, binding, p0, notes)


# tie-break order among feasible cases of equal sample count
_PREFERENCE = [CASE_LOG, CASE_RATE, CASE_SMALL]


def plan(profile, epsilon, regime=None):
    """Couple (L, M, h) for a target accuracy, optionally forcing a regime.

    Without an override the planner evaluates all three cases and returns
    the feasible one with the smallest sample count, preferring the
    log-dominated large-Q_h case on ties.  A case whose sample-count
    search overflows is reported as an infeasible candidate; only when
    every case is infeasible does the planner raise.  regime is a case
    number, its position in CASES plus one.
    """
    L = truncation_rank(epsilon, profile.d, profile.s)
    cases = []
    for tag in CASES:
        try:
            cases.append(_plan_case(profile, epsilon, L, tag))
        except InfeasiblePlanError as exc:
            # a search past the limit rules out this case only, so it must
            # not abort the others; the placeholder M_eps=1 keeps the result
            # well formed and the reason carries the overflow message
            nan = float("nan")
            cases.append(PlanResult(epsilon, tag, L, 1, nan, (nan, nan), {},
                                    False, "infeasible: %s" % (exc,), {}, nan,
                                    []))
    if regime is not None:
        numbered = dict(enumerate(cases, 1))
        if regime not in numbered:
            raise ValueError("regime override must be 1, 2 or 3, got %r"
                             % (regime,))
        chosen = numbered[regime]
    else:
        feasible = [c for c in cases if c.feasible]
        if not feasible:
            raise InfeasiblePlanError(
                "no regime is feasible at epsilon=%g -- %s" % (epsilon,
                "; ".join("%s: %s" % (c.case_tag, c.reason) for c in cases)))
        chosen = min(feasible,
                     key=lambda c: (c.M_eps, _PREFERENCE.index(c.case_tag)))
    chosen.candidates = [(c.case_tag, c.M_eps, c.feasible) for c in cases]
    return chosen


class VerifyReport:
    """Measured accuracy of a study cell against its planning target."""

    def __init__(self, epsilon, ratio, row, m_matched, notes):
        self.epsilon = epsilon
        self.ratio = ratio
        self.row = row
        self.m_matched = m_matched
        self.notes = notes


def verify_plan(plan_result, study_rows):
    """Compare planned accuracy against measured study means.

    Picks the study cell with the planned L and mesh (nearest M if the
    planned count was not run) and reports mean_total / epsilon.  The
    calibration factor is reported, never asserted: the underlying
    constants are not quantified.
    """
    n_planned = int(round(1.0 / plan_result.h_eps))
    rows = [r for r in study_rows
            if r.ok and r.L == plan_result.L_eps and r.n == n_planned]
    if not rows:
        raise ValueError(
            "no study cell matches planned L=%d, n=%d"
            % (plan_result.L_eps, n_planned))
    row = min(rows, key=lambda r: abs(r.M - plan_result.M_eps))
    m_matched = row.M == plan_result.M_eps
    notes = [] if m_matched else [
        "planned M=%d not present; nearest run M=%d used"
        % (plan_result.M_eps, row.M)]
    return VerifyReport(plan_result.epsilon, row.mean_total / plan_result.epsilon,
                        row, m_matched, notes)
