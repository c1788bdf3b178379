"""Gap budgets, sample-size thresholds, and the (L, M, h) coupling planner."""

import math

import numpy as np
import pytest

import reference
import support
from covrecon import config as config_mod
from covrecon import cli, fields, mercer, planner, spectral
from covrecon.errors import (ConfigError, DegenerateSpectrumError,
                             InfeasiblePlanError)


class _FlatOracle:
    """Degenerate stub: repeated eigenvalues, zero gaps."""

    dim = 1

    def eigenvalues(self, L):
        return np.ones(L)

    def gaps(self, L):
        return np.zeros(L)


# ---------------------------------------------------------------------------
# profiles and budget functions
# ---------------------------------------------------------------------------

def test_profile_validation():
    p = planner.brownian_profile()
    assert p.d == 1 and p.s == 0.5 and p.alpha == 1.0 and p.gamma == 1.5
    assert p.calibration == planner.DEFAULT_CALIBRATION
    with pytest.raises(ValueError):
        planner.brownian_profile(gamma=0.4)
    with pytest.raises(ValueError):
        planner.brownian_profile(calibration={"rho1": -1.0})


def test_one_calibration_policy():
    # the planner profile and the config merge and check the constants
    # the same way, and name the offending key the same way
    for bad, needle in (({"C9": 1.0}, "calibration.C9"),
                        ({"rho1": 0.0}, "calibration.rho1"),
                        ({"beta": "x"}, "calibration.beta"),
                        # YAML true and .inf
                        ({"C1": True}, "calibration.C1"),
                        ({"rho1": math.inf}, "calibration.rho1"),
                        ({"C": math.nan}, "calibration.C")):
        for build in (lambda: planner.brownian_profile(calibration=bad),
                      lambda: support.make_config(calibration=bad),
                      lambda: config_mod.from_dict({"calibration": bad})):
            with pytest.raises(ConfigError, match=needle):
                build()
    merged = planner.resolve_calibration({"C1": 2.0})
    assert merged == dict(planner.DEFAULT_CALIBRATION, C1=2.0)
    assert support.make_config(calibration={"C1": 2.0}).calibration == merged


def test_g_of_l_closed_forms():
    p = planner.brownian_profile()
    for L, want_sq in ((1, 81.0 / 64.0), (2, 949.0 / 256.0)):
        got = planner.g_of_l(p, L) ** 2
        assert abs(got - want_sq) <= 1e-12 * want_sq, \
            "G^2(%d) must equal %r" % (L, want_sq)
        assert abs(got - reference.g_squared_closed(L)) <= 1e-12 * want_sq
    with pytest.raises(ValueError):
        planner.g_of_l(p, 0)


def test_g_of_l_growth_rate():
    p = planner.brownian_profile()
    Ls = [8, 16, 32, 64, 128]
    vals = [planner.g_of_l(p, L) ** 2 for L in Ls]
    slope = reference.loglog_slope(Ls, vals)
    assert abs(slope - 3.0) <= 0.2, \
        "G^2 growth exponent %.3f should approach 3" % slope


def test_h_of_l_closed_form_and_decay():
    p = planner.brownian_profile()
    want = (32.0 / (9.0 * np.pi ** 2)) ** 2 / 2304.0
    assert abs(planner.h_of_l(p, 1) - want) <= 1e-12 * want
    assert abs(planner.h_of_l(p, 1) - reference.h_closed(1)) <= 1e-18
    vals = [planner.h_of_l(p, L) for L in range(1, 41)]
    assert all(a >= b for a, b in zip(vals, vals[1:])), \
        "the worst-gap budget can only shrink as L grows"
    Ls = [8, 16, 32, 64, 128]
    slope = reference.loglog_slope(Ls, [planner.h_of_l(p, L) for L in Ls])
    assert abs(slope + 6.0) <= 0.3, \
        "H decay exponent %.3f should approach -6" % slope


def test_degenerate_spectrum_raises():
    prof = planner.SpectralProfile(_FlatOracle(), 0.5, 1.0, 1.5)
    with pytest.raises(DegenerateSpectrumError):
        planner.g_of_l(prof, 2)
    with pytest.raises(DegenerateSpectrumError):
        planner.h_of_l(prof, 2)


# ---------------------------------------------------------------------------
# success probability
# ---------------------------------------------------------------------------

def _p0(Q_h, tau, M, L):
    """p0_bound of the 1D Brownian oracle at the default calibration."""
    return planner.p0_bound(fields.KlOracle(1), planner.DEFAULT_CALIBRATION,
                            Q_h, tau, M, L)


def test_p0_bound_matches_high_precision_oracle():
    oracle = fields.KlOracle(1)
    gap = min(oracle.gaps(2))
    got = _p0(65, 6, 60_000_000, 2)
    want = reference.p0_mpmath(65, 6, 60_000_000, 1.0, gap, 1.0)
    assert want > 0.99, "the example must sit in the informative range"
    assert abs(got - want) <= 1e-12 * want, \
        "log-space evaluation drifts from the mpmath oracle"
    # below the crossover the bound clamps to zero on both routes
    assert _p0(65, 6, 40_000_000, 2) == 0.0
    assert reference.p0_mpmath(65, 6, 40_000_000, 1.0, gap, 1.0) == 0.0


def test_p0_bound_limits_and_monotonicity():
    assert _p0(65, 6, 0, 2) == 0.0
    assert _p0(65, 6, 10 ** 12, 2) == 1.0
    ms = [5 * 10 ** 7, 8 * 10 ** 7, 2 * 10 ** 8]
    vals = [_p0(65, 6, M, 2) for M in ms]
    assert vals[0] < vals[1] < vals[2] <= 1.0
    assert _p0(65, 8, 10 ** 8, 2) < _p0(65, 6, 10 ** 8, 2), \
        "wider tapers can only lower the success bound"
    assert _p0(1000, 6, 10 ** 8, 2) < _p0(65, 6, 10 ** 8, 2)
    with pytest.raises(ValueError):
        _p0(65, 5, 100, 2)  # odd tau
    with pytest.raises(ValueError):
        _p0(0, 6, 100, 2)


# ---------------------------------------------------------------------------
# gap condition checks
# ---------------------------------------------------------------------------

def _margins(L, h, stiffness_diff_norm, C1=1.0, s=0.5):
    """spectral.gap_condition_margins on the 1D Brownian gaps."""
    oracle = fields.KlOracle(1)
    gaps = oracle.gaps(L)
    return spectral.gap_condition_margins(gaps, oracle, h, s, C1,
                                          stiffness_diff_norm)


def test_check_gap_condition_clean_inputs():
    margins = _margins(3, 1e-6, 0.0)
    assert margins.shape == (3,)
    assert np.all(margins > 0.0)
    want = reference.gap_condition_margins(3, 1e-6, 0.5, 1.0, 0.0)
    assert np.max(np.abs(margins - want)) <= 1e-12 * np.max(np.abs(want)), \
        "margins must match the closed-form reference"


def test_check_gap_condition_large_perturbation_fails():
    assert np.all(_margins(3, 1e-6, 1e3) < 0.0)


def test_check_gap_condition_honest_calibration_mode_one():
    # with the empirically calibrated C1 the condition is satisfiable at
    # mode 1 on a practical mesh, while mode 3 still fails: the blanket
    # all-mode claim is not attainable and the test encodes the honest split
    margins = _margins(3, 1.0 / 32, 0.0, C1=1.3e-3)
    assert margins[0] > 0.0, \
        "mode 1 must clear the gap condition with honest constants"
    assert margins[2] < 0.0, \
        "mode 3 cannot clear it: the gap shrinks faster than the rhs"


# ---------------------------------------------------------------------------
# integer thresholds
# ---------------------------------------------------------------------------

def test_int_threshold_bracketing_paths():
    assert planner.int_threshold(lambda M: M >= 1, 5.0) == 1
    assert planner.int_threshold(lambda M: M >= 17, 10.0) == 17, \
        "doubling + bisection must find the exact crossing"
    assert planner.int_threshold(lambda M: M >= 3, 50.0) == 3, \
        "an overshooting peak estimate must re-bracket from below"
    with pytest.raises(InfeasiblePlanError):
        planner.int_threshold(lambda M: False, 2.0)


def test_lambert_branch_matches_scipy():
    for z in (-1e-8, -1e-3, -0.05, -0.2, -0.36):
        got = planner.lambert_wm1(z)
        want = reference.lambert_wm1(z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), \
            "W_-1(%g): bisection %.12g vs scipy %.12g" % (z, got, want)
        assert abs(got * math.exp(got) - z) <= 1e-12 * abs(z), \
            "the defining equation w e^w = z must hold"
    # scipy's lower branch loses accuracy right at the branch point (it
    # returns -1.00000000000815 for the z below), so compare against the
    # square-root expansion w = -1 - sqrt(2(1 + e z)) + O(1 + e z) instead
    z = -1.0 / math.e + 1e-12
    got = planner.lambert_wm1(z)
    series = -1.0 - math.sqrt(2.0 * (1.0 + math.e * z))
    assert got < -1.0, "the lower branch stays below -1"
    assert abs(got - series) <= 1e-9, \
        "near-branch W_-1: bisection %.16g vs expansion %.16g" % (got, series)
    assert abs(got * math.exp(got) - z) <= 1e-12 * abs(z)
    with pytest.raises(ValueError):
        planner.lambert_wm1(0.0)
    with pytest.raises(ValueError):
        planner.lambert_wm1(-1.0)


def test_sample_thresholds_are_exact_crossings():
    alpha = 1.0
    rho1 = 1.0
    p = planner.brownian_profile()
    profiles = [(2, 0.5), (5, 0.1), (22, 0.01), (2, 0.25)]
    for L, eps in profiles:
        rhoH = rho1 * planner.h_of_l(p, L)
        m_bar = planner._threshold_bar(L, eps, alpha, rhoH)
        # independent re-statement of the defining inequality
        indicator = lambda M: (0.5 * math.log(L) - math.log(eps)
                               + math.log(M) / 3.0 - M * rhoH) <= 0.0
        assert indicator(m_bar), "threshold must satisfy its inequality"
        assert m_bar == 1 or not indicator(m_bar - 1), \
            "threshold - 1 must violate the inequality (L=%d, eps=%g)" % (L, eps)
        # closed-form cross-check through scipy's product logarithm; allow
        # one integer of slack for the float evaluation of the closed form
        b = 3.0 * rhoH
        z = -b * (eps / math.sqrt(L)) ** 3
        assert z >= -1.0 / math.e, "these profiles must admit a real branch"
        closed = -reference.lambert_wm1(z) / b
        assert abs(m_bar - math.ceil(closed)) <= 1, \
            "integer search %d and ceil(product log) %d disagree at " \
            "(L=%d, eps=%g)" % (m_bar, math.ceil(closed), L, eps)
        if (L, eps) == (22, 0.01):
            # the prime inequality only crosses near 1e19 samples here,
            # beyond the search budget: honestly infeasible
            with pytest.raises(InfeasiblePlanError):
                planner._threshold_prime(L, eps, alpha, rhoH)
            continue
        m_prime = planner._threshold_prime(L, eps, alpha, rhoH)
        ind_prime = lambda M: (0.5 * math.log(L) - math.log(eps)
                               - M * rhoH + M ** (1.0 / 3.0)) <= 0.0
        assert ind_prime(m_prime)
        assert m_prime == 1 or not ind_prime(m_prime - 1)
    assert planner._threshold_hat(alpha) == 1, \
        "ln M / 3 never exceeds M^{1/3}, so the hat threshold is trivially 1"


# ---------------------------------------------------------------------------
# truncation rank
# ---------------------------------------------------------------------------

def test_truncation_rank_table():
    for eps, want in ((0.5, 2), (0.1, 5), (0.01, 22)):
        got = planner.truncation_rank(eps, 1, 0.5)
        assert got == want, "L(%g) must be %d, got %d" % (eps, want, got)
    # 0.125^{-2/3} = 4 + float dust: the tolerance ceiling must not round up
    assert planner.truncation_rank(0.125, 1, 0.5) == 4
    with pytest.raises(ValueError):
        planner.truncation_rank(0.0, 1, 0.5)
    with pytest.raises(ValueError):
        planner.truncation_rank(1.0, 1, 0.5)
    with pytest.raises(InfeasiblePlanError):
        planner.truncation_rank(1e-30, 1, 0.5)


# ---------------------------------------------------------------------------
# the planner proper
# ---------------------------------------------------------------------------

def test_plan_default_selection():
    p = planner.brownian_profile()
    result = planner.plan(p, 0.5)
    assert result.L_eps == 2 and result.feasible
    assert result.case_tag == planner.CASE_RATE, \
        "rate-dominated large-Q_h must win the default tie-break"
    assert [c[0] for c in result.candidates] == \
        [planner.CASE_SMALL, planner.CASE_LOG, planner.CASE_RATE]
    assert result.binding["M"] == "spectral", \
        "the mesh-resolvability term must bind the sample count"
    assert set(result.thresholds) == {"M_hat", "M_prime"}
    assert result.thresholds["M_hat"] == 1
    assert result.h_eps == result.h_interval[1], \
        "the planner picks the largest admissible mesh width"
    assert 0.0 <= result.p0_planned <= 1.0


def test_plan_regime_overrides():
    # each forced case reports its own thresholds, binding terms and number
    regimes = {1: ({"M_bar"}, {"M_bar", "rate", "spectral"}, {"M", "h"}),
               2: ({"M_tilde", "M_tilde_productlog"}, {"M_tilde", "beta_rate"},
                   {"M", "h_lower", "h_upper"}),
               3: ({"M_hat", "M_prime"}, {"M_hat", "M_prime", "rate",
                                          "spectral"},
                   {"M", "h_lower", "h_upper"})}
    for regime, (thresholds, m_terms, binding) in regimes.items():
        for d in (1, 2):
            p = planner.brownian_profile(d=d)
            for eps in (0.4, 0.1):
                result = planner.plan(p, eps, regime=regime)
                where = (regime, d, eps)
                assert result.case_tag == planner.CASES[regime - 1], where
                assert set(result.thresholds) == thresholds, where
                assert result.binding["M"] in m_terms, where
                assert set(result.binding) == binding, where
                assert cli._plan_payload(result)["case_number"] == regime
    p = planner.brownian_profile()
    small = planner.plan(p, 0.1, regime=1)
    assert small.case_tag == planner.CASE_SMALL and small.feasible
    assert small.h_interval[0] == small.h_interval[1] == small.h_eps, \
        "the small-Q_h case prescribes a point mesh width"
    log = planner.plan(p, 0.1, regime=2)
    assert log.case_tag == planner.CASE_LOG and not log.feasible
    assert math.isnan(log.h_eps)
    assert "infeasible" in log.reason and "exceeds" in log.reason, \
        "the reason must name both colliding bounds"
    assert abs(log.thresholds["M_tilde"]
               - log.thresholds["M_tilde_productlog"]) <= 1
    with pytest.raises(ValueError):
        planner.plan(p, 0.1, regime=5)


def test_plan_log_case_feasible_with_generous_concentration():
    # a large concentration constant shrinks the required sample count and
    # the log-balance lower bound, opening the admissible mesh interval
    p = planner.brownian_profile(calibration={"rho1": 1e6})
    result = planner.plan(p, 0.5, regime=2)
    assert result.feasible, "case 2 must be feasible under rho1 = 1e6"
    assert result.M_eps == 56 and result.binding["M"] == "beta_rate"
    lower, upper = result.h_interval
    assert lower <= result.M_eps ** (-1.0 / 3.0) + 1e-15, \
        "past the threshold the log-balance bound undercuts M^{-1/(d(2a+1))}"
    assert 0.0 < lower <= upper
    assert 9e-6 <= upper <= 1.1e-5, \
        "the spectral term should cap the mesh width near 9.7e-6"


def test_plan_monotone_in_accuracy():
    p = planner.brownian_profile()
    for regime in (1, 3):
        Ms = [planner.plan(p, eps, regime=regime).M_eps
              for eps in (0.4, 0.2, 0.1)]
        assert Ms[0] <= Ms[1] <= Ms[2], \
            "tightening the target cannot reduce samples (regime %d)" % regime
    Ls = [planner.plan(p, eps, regime=1).L_eps for eps in (0.4, 0.2, 0.1)]
    assert Ls == [2, 3, 5]


def test_plan_case1_couples_h_to_m():
    p = planner.brownian_profile()
    result = planner.plan(p, 0.3, regime=1)
    want_h = min(result.M_eps ** (-1.0 / 3.0), 0.5)
    assert abs(result.h_eps - want_h) <= 1e-15, \
        "case 1 must pin h at min(M^{-1/(d(2a+1))}, h0)"


def test_plan_survives_one_case_overflowing():
    # at eps=0.01 the rate-dominated prime threshold only crosses near 1e19
    # samples; that candidate must come back infeasible instead of aborting
    # the whole plan, leaving the small-Q_h case as the winner
    p = planner.brownian_profile()
    result = planner.plan(p, 0.01)
    assert result.feasible and result.case_tag == planner.CASE_SMALL
    feasibility = {tag: ok for tag, _, ok in result.candidates}
    assert not feasibility[planner.CASE_LOG], \
        "the log-dominated mesh interval is empty at this target"
    assert not feasibility[planner.CASE_RATE], \
        "the rate-dominated threshold search must overflow here"
    forced = planner.plan(p, 0.01, regime=3)
    assert not forced.feasible and "exceeded" in forced.reason
    assert forced.M_eps == 1 and math.isnan(forced.h_eps), \
        "an overflowed case carries placeholder parameters"


def test_plan_raises_when_every_case_is_infeasible():
    starved = planner.brownian_profile(calibration=dict(rho1=1e-30))
    with pytest.raises(InfeasiblePlanError, match="no regime is feasible"):
        planner.plan(starved, 0.5)


def test_plan_2d_fine_accuracy_reads_rank_5624():
    # eps=1e-3 at s=0.3 in 2D asks for L=5624, far past the first 2D rank
    # table (204 ranks); every case's sample-count search overflows
    profile = planner.brownian_profile(d=2, s=0.3)
    assert planner.truncation_rank(1e-3, 2, 0.3) == 5624
    overflow = ("infeasible: threshold search exceeded %d samples; the "
                "accuracy target is unattainable for this profile"
                % (10 ** 18,))
    with pytest.raises(InfeasiblePlanError) as info:
        planner.plan(profile, 1e-3)
    assert str(info.value) == (
        "no regime is feasible at epsilon=0.001 -- "
        + "; ".join("%s: %s" % (tag, overflow) for tag in planner.CASES))


# ---------------------------------------------------------------------------
# verify_plan
# ---------------------------------------------------------------------------

def _fake_plan(eps, L, n, M):
    return planner.PlanResult(eps, planner.CASE_RATE, L, M, 1.0 / n,
                              (0.0, 1.0 / n), {}, True,
                              "capped for measurement", {}, 1.0, [])


def _fake_row(L, n, M, mean_total):
    return mercer.CellResult(0, L, n, M, ok=True, mean_total=mean_total,
                             mean_e1=0.0, mean_e2=0.0, mean_e3=0.0,
                             stderr=0.0, n_rep=2)


def test_verify_plan_matching():
    rows = [_fake_row(5, 32, 4000, 0.02), _fake_row(5, 32, 1000, 0.05),
            _fake_row(3, 32, 4000, 0.01)]
    report = planner.verify_plan(_fake_plan(0.1, 5, 32, 4000), rows)
    assert math.isclose(report.ratio, 0.2, rel_tol=1e-12)
    assert report.m_matched and report.notes == []
    nearest = planner.verify_plan(_fake_plan(0.1, 5, 32, 3000), rows)
    assert nearest.row.M == 4000 and not nearest.m_matched
    assert "nearest" in nearest.notes[0]
    with pytest.raises(ValueError):
        planner.verify_plan(_fake_plan(0.1, 7, 32, 4000), rows)


def test_verify_plan_ratio_band_across_targets():
    # run the planned (L, h) at a capped sample count and check that the
    # measured accuracy stays within a constant factor of the target across
    # epsilon; the constant itself is calibration and is only reported.
    # MLE is the right instrument here: at this capped M the taper bound
    # zeroes half the (non-decaying) covariance band, producing a large
    # epsilon-independent bias that swamps the band being measured.
    ratios = []
    for eps in (0.4, 0.2, 0.1):
        L = planner.truncation_rank(eps, 1, 0.5)
        M = 4000  # the uncapped plans are astronomically large
        cfg = support.make_config(ns=[32], Ms=[M], Ls=[L], n_rep=10,
                                  estimator="MLE", seed=23)
        rows = mercer.expected_error_study(cfg)
        report = planner.verify_plan(_fake_plan(eps, L, 32, M), rows)
        assert report.m_matched
        ratios.append(report.ratio)
    spread = max(ratios) / min(ratios)
    assert spread <= 3.0, \
        "accuracy-to-target ratios %r spread by %.2fx (limit 3x)" % (
            ratios, spread)
