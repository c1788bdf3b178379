"""Truncated Mercer kernels, the error decomposition, and grid studies."""

import os
import subprocess
import sys

import numpy as np
import pytest

import reference
import support
from covrecon import estimators, fem, fields, mercer, planner, spectral


# ---------------------------------------------------------------------------
# rank-L kernels of a discrete spectrum
# ---------------------------------------------------------------------------

def test_full_rank_kernel_reproduces_nodal_covariance():
    _, space, _, sigma, _, spec = support.brownian_setup(1, 8)
    K = reference.rank_l_kernel(spec, 9)(space.mesh.nodes, space.mesh.nodes)
    assert np.max(np.abs(K - sigma)) <= 1e-12, \
        "a full-rank reconstruction must interpolate the exact covariance"


def _kernel_at(kernel, x, y):
    """Kernel value at two 1D points, as the kernel on one-point blocks."""
    return kernel([[x]], [[y]])[0, 0]


def test_kernel_eval_vanishes_on_pinned_boundary():
    *_, spec = support.brownian_setup(1, 16)
    kernel = reference.rank_l_kernel(spec, 3)
    for x in (0.3, 0.85, 1.0):
        assert abs(_kernel_at(kernel, 0.0, x)) <= 1e-12, \
            "the Brownian kernel vanishes on the pinned boundary"


def test_kernel_eval_is_bilinear_between_nodes():
    _, space, _, sigma, _, spec = support.brownian_setup(1, 4)
    kernel = reference.rank_l_kernel(spec, 5)  # full rank: nodal = sigma
    mid = lambda j: 0.5 * (space.mesh.axis_nodes[j] + space.mesh.axis_nodes[j + 1])
    got = _kernel_at(kernel, mid(1), mid(2))
    want = 0.25 * (sigma[1, 2] + sigma[1, 3] + sigma[2, 2] + sigma[2, 3])
    assert abs(got - want) <= 1e-12, \
        "P1 kernels interpolate bilinearly between mesh nodes"


def test_kernel_rank_window_is_one_dyad():
    *_, spec = support.brownian_setup(1, 16)
    rng = np.random.default_rng(67)
    X = rng.random((7, 1))
    Y = rng.random((5, 1))
    diff = (reference.rank_l_kernel(spec, 3)(X, Y)
            - reference.rank_l_kernel(spec, 2)(X, Y))
    lam3 = spec.eigenvalues[2]
    phi3 = reference.hat_values(1, 16, X) @ spec.gen_vectors[:, 2]
    psi3 = reference.hat_values(1, 16, Y) @ spec.gen_vectors[:, 2]
    assert np.max(np.abs(diff - lam3 * np.outer(phi3, psi3))) <= 1e-13, \
        "consecutive truncations must differ by exactly one eigen-dyad"


# ---------------------------------------------------------------------------
# error decomposition
# ---------------------------------------------------------------------------

def test_decomposition_exact_estimate_has_zero_sampling_error():
    exact = support.exact_side(1, 16)
    report = mercer.error_decomposition(exact, exact.spectrum, 3)
    assert report.e3 == 0.0, \
        "identical spectra must produce exactly zero sampling error"
    assert report.e1 > 0.0 and report.e2 > 0.0
    assert report.total <= report.e1 + report.e2 + 1e-8
    assert report.triangle_slack <= 1e-8
    assert not report.near_degenerate_split


def test_decomposition_e1_matches_closed_form():
    exact = support.exact_side(1, 16)
    report = mercer.error_decomposition(exact, exact.spectrum, 1)
    want = reference.e1_closed_rank1()
    assert abs(report.e1 - want) <= 1e-12 * want, \
        "rank-1 truncation error must equal (4/pi^2) sqrt(pi^4/96 - 1)"


def test_decomposition_e1_rate_in_l():
    exact = support.exact_side(1, 64)
    Ls = [2, 4, 8, 16, 32]
    e1s = [mercer.error_decomposition(exact, exact.spectrum, L).e1
           for L in Ls]
    slope = reference.loglog_slope(Ls, e1s)
    assert abs(slope + 1.5) <= 0.05, \
        "tail slope %.3f deviates from the -3/2 law" % slope


def test_decomposition_with_sampled_estimate():
    field, space, mass, _, s_exact, spec = support.brownian_setup(1, 16)
    batch = fields.draw_batch(field, space, 2000, seed=0)
    cov = estimators.estimate_covariance(batch, alpha=1.0)
    s_est = spectral.transform(cov, mass)
    est = spectral.eigensolve(s_est, mass, 3)
    report = mercer.error_decomposition(support.exact_side(1, 16), est, 3)
    assert report.e3 > 0.0 and report.total > 0.0
    assert report.total <= report.e1 + report.e2 + report.e3 + 1e-8
    # e3 is the Frobenius distance of the transformed rank-L
    # reconstructions, which the reference forms densely and without any
    # sign alignment: eigen-dyads do not depend on eigenvector signs
    frob = reference.frobenius_rank_l_diff(spec, est, 3)
    assert abs(report.e3 - frob) <= 1e-12 * frob, \
        "closed-form e3 %.6e vs spectral-identity e3 %.6e" % (report.e3, frob)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16)])
def test_e3_from_l_by_l_blocks_matches_the_dense_difference(d, n):
    # e3 from the block Gram-Schmidt split of Phi^~ against Phi~ against the
    # Frobenius norm of the two formed Q_h x Q_h rank-L matrices
    # (tests/reference.py); a copy of the exact spectrum is not the exact
    # spectrum itself, and its e3 is roundoff
    exact = support.exact_side(d, n)
    copy = spectral.align_signs(exact.spectrum, exact.spectrum)
    assert mercer.error_decomposition(exact, copy, 5).e3 <= 1e-15
    batch = fields.draw_batch(exact.field, exact.space, 2000, seed=1)
    s_est = spectral.transform(estimators.mle_covariance(batch), exact.mass)
    est = spectral.eigensolve(s_est, exact.mass, k=5)
    for L in (1, 3, 5):
        got = mercer.error_decomposition(exact, est, L).e3
        want = reference.frobenius_rank_l_diff(exact.spectrum, est, L)
        assert abs(got - want) <= 1e-13 * want, \
            "%dD n=%d L=%d: e3 %.17e vs dense %.17e" % (d, n, L, got, want)


@pytest.mark.parametrize("d, n", [(1, 2), (1, 32), (1, 512), (2, 3),
                                  (2, 10), (2, 16)])
def test_lambda1_dev_matches_the_40_digit_value(d, n):
    # lambda_1 - mu_1 telescoped from the axis difference, without the
    # cancellation of |mu_1 - lambda_1| (7e-13, 2e-10, 8e-14 and 6e-14
    # relative off at n = 32, 512, 10 and 16); at 2D n=10 h^2 / theta^2 and
    # the field's axis eigenvalue differ by an ulp, and only the latter is
    # read; at n = 2 and 3 (theta >= 0.5) a direct lambda - mu put it
    # 1.4e-15 and 1.2e-15 off
    got = mercer.ExactSide(d, n, 1).lambda1_dev
    want = reference.lambda1_dev_mpmath(d, n)
    assert abs(got - want) <= 1e-15 * want, \
        "%dD n=%d: lambda1_dev %.17e vs 40 digits %s" % (d, n, got, want)


def test_decomposition_validation():
    exact = support.exact_side(1, 8)
    *_, other = support.brownian_setup(1, 4)
    with pytest.raises(ValueError, match="different spaces"):
        mercer.error_decomposition(exact, other, 2)
    # the split's rank check is the one of ExactSide.e2
    for L in (0, 10):
        with pytest.raises(ValueError, match="truncation rank"):
            mercer.error_decomposition(exact, exact.spectrum, L)
        with pytest.raises(ValueError, match="truncation rank"):
            exact.e2(L)


@pytest.mark.parametrize("d, n", [(1, 8), (1, 32), (1, 512), (1, 4096),
                                  (2, 8), (2, 10), (2, 16), (2, 64)])
def test_e2_matches_the_40_digit_definition(d, n):
    # the closed form, with its Taylor numerators up to theta = pi, against
    # the definition summed over sine moments and vectors at 40 digits; at
    # n=8 a direct 1 - c^2 from theta = 0.5 on put L=3 1.3e-13 (1D) and
    # 1.4e-13 (2D) off
    exact = mercer.ExactSide(d, n, 5)
    Ls = (1, 3, 5)
    for L, want in zip(Ls, reference.e2_mpmath(d, n, Ls)):
        got = exact.e2(L)
        assert abs(got - want) <= 1e-13 * want, \
            "%dD n=%d L=%d: e2 %.17e vs 40 digits %s" % (d, n, L, got, want)
        if (d, n, L) == (1, 512, 5):
            assert abs(want - 8.4105813668e-07) <= 5e-18


@pytest.mark.parametrize("d, n", [(1, 6), (2, 4)])
def test_e2_up_to_full_rank_matches_the_moment_formula(d, n):
    # every L up to Q_h, where analytic axis indices above n alias to lower
    # discrete ones (in 2D at n=4 past 2n, more than once), against the
    # moment formula within its roundoff
    exact = support.exact_side(d, n)
    for L in range(1, exact.space.dof_count + 1):
        want, scale = reference.e2_sq_from_moments(exact, L)
        got = exact.e2(L) ** 2
        assert abs(got - want) <= 16 * np.finfo(float).eps * scale, \
            "%dD n=%d L=%d: e2^2 %.17e vs %.17e" % (d, n, L, got, want)


def test_exact_side_refuses_a_split_above_k():
    exact = mercer.ExactSide(1, 16, 3)
    assert exact.spectrum.tilde_vectors.shape == (17, 3)
    assert exact.spectrum.eigenvalues.shape == (17,)
    mercer.error_decomposition(exact, exact.spectrum, 3)
    with pytest.raises(ValueError, match="truncation rank"):
        mercer.error_decomposition(exact, exact.spectrum, 4)
    with pytest.raises(ValueError, match="truncation rank"):
        exact.e2(4)
    for k in (0, 18):
        with pytest.raises(ValueError, match="k must lie"):
            mercer.ExactSide(1, 16, k)


def test_exact_side_2d_builds_one_mesh(monkeypatch):
    # the mass of a 2D exact side factors its axis on the side's own mesh,
    # the node-0 mode included (k > n), with no second Mesh for the axis
    built = []
    init = fem.Mesh.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fem.Mesh, "__init__", counting)
    exact = mercer.ExactSide(2, 6, 40)
    exact.mass, exact.spectrum
    assert built == [(2, 6)], "meshes built: %r" % (built,)


def test_exact_side_2d_n128_forms_no_q_by_q_array(monkeypatch):
    # one Q_h x Q_h float64 array is 2.2 GB at n=128 (Q_h = 16641), and the
    # exact side runs no eigensolve, in 1D or 2D; s_exact holds and applies
    # its axis matrix only
    import tracemalloc

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("the exact side must not eigensolve")

    monkeypatch.setattr(spectral, "eigensolve", no_eigensolve)
    one = mercer.ExactSide(1, 512, 5)
    assert one.spectrum.tilde_vectors.shape == (513, 5) and one.e2(5) > 0.0
    tracemalloc.start()
    try:
        exact = mercer.ExactSide(2, 128, 8)
        e1, e2 = exact.e1(8), exact.e2(8)
        spec = exact.spectrum
        applied = exact.s_exact @ spec.tilde_vectors[:, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)
    assert spec.eigenvalues.shape == (129 ** 2,)
    assert spec.tilde_vectors.shape == spec.gen_vectors.shape == (129 ** 2, 8)
    assert 0.0 < e2 < e1
    # the leading tilde vector is an eigenvector of S-tilde_exact
    assert np.max(np.abs(applied - spec.eigenvalues[0]
                         * spec.tilde_vectors[:, 0])) <= 1e-15


def test_exact_side_1d_n4096_allocates_no_axis_square():
    # one (n+1) x (n+1) float64 array is 134 MB at n=4096: the mass (bands
    # and closed-form extremes), the closed-form spectrum, e2, lambda1_dev
    # and the actions of s_exact and the covariance all take O(n) memory
    import tracemalloc

    v = np.random.default_rng(7).standard_normal(4097)
    tracemalloc.start()
    try:
        exact = mercer.ExactSide(1, 4096, 5)
        mass, spec = exact.mass, exact.spectrum
        e2, dev = exact.e2(5), exact.lambda1_dev
        sv, cv = exact.s_exact @ v, exact.covariance @ v
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, "peak %.1f MB" % (peak / 1e6)
    assert 0.0 < mass.lambda_min < mass.lambda_max and 0.0 < dev and 0.0 < e2
    assert sv.shape == cv.shape == (4097,)
    # the leading tilde vector is an eigenvector of S-tilde_exact
    t = spec.tilde_vectors[:, 0]
    assert np.max(np.abs(exact.s_exact @ t - spec.eigenvalues[0] * t)) \
        <= 1e-15
    # Sigma1 v against min(x_i, x_j) on a few nodes
    x = exact.space.mesh.axis_nodes
    for i in (0, 1, 2048, 4096):
        assert abs(cv[i] - np.minimum(x[i], x) @ v) <= 1e-12 * np.abs(v).sum()


def test_reconstruct_and_study_keep_k_exact_vectors(tmp_path, monkeypatch):
    # k is L for reconstruct and max(Ls) for a study, on every mesh
    from covrecon import cli

    made = []
    init = mercer.ExactSide.__init__

    def recording_init(self, d, n, k):
        init(self, d, n, k)
        made.append(self)

    monkeypatch.setattr(mercer.ExactSide, "__init__", recording_init)
    path = support.write_yaml(tmp_path / "cfg.yaml", support.basic_yaml(
        str(tmp_path / "out"), n=8, M=40, L=3))
    assert cli.main(["reconstruct", "--config", path]) == 0
    cfg = support.make_config(ns=[6, 8], Ms=[20, 40], Ls=[1, 4], n_rep=2)
    assert all(c.ok for c in mercer.expected_error_study(cfg))
    assert [(e.space.mesh.elements_per_axis, e.k) for e in made] == \
        [(8, 3), (6, 4), (8, 4)]
    for exact in made:
        spec = vars(exact)["spectrum"]  # built by the run
        assert spec.tilde_vectors.shape[1] == spec.gen_vectors.shape[1] \
            == exact.k


def test_decomposition_flags_near_degenerate_2d():
    # the 2d sheet has exact multiplicity-two eigenvalues, and the Kronecker
    # discretization preserves the tie: splitting rank L=2 between them is
    # flagged as unreliable while the totals stay valid
    exact = support.exact_side(2, 4)
    spec = exact.spectrum
    gap12 = spec.eigenvalues[1] - spec.eigenvalues[2]
    assert gap12 <= 1e-8 * spec.eigenvalues[0], \
        "modes 2 and 3 of the discrete sheet should tie to machine precision"
    report = mercer.error_decomposition(exact, spec, 2)
    assert report.near_degenerate_split, \
        "a machine-ties eigenvalue window must raise the degeneracy flag"
    assert report.e3 == 0.0
    assert report.total <= report.e1 + report.e2 + 1e-8


def _sampled_spectrum(d, n, M, seed):
    field, space, mass, *_ = support.brownian_setup(d, n)
    cov = estimators.estimate_covariance(
        fields.draw_batch(field, space, M, seed=seed))
    return spectral.eigensolve(spectral.transform(cov, mass), mass,
                               space.dof_count)


def _truncated_kl(oracle, L):
    lams = oracle.eigenvalues(L)

    def k(X, Y):
        PX = np.column_stack([oracle.eigenfunction(l, X)
                              for l in range(1, L + 1)])
        PY = np.column_stack([oracle.eigenfunction(l, Y)
                              for l in range(1, L + 1)])
        return (PX * lams) @ PY.T

    return k


@pytest.mark.parametrize("d, n, L, refine, q", [
    (1, 8, 3, 64, 6), (1, 32, 3, 16, 4), (2, 4, 2, 2, 4)])
def test_decomposition_matches_refined_quadrature(d, n, L, refine, q):
    # e2 and total against the quadrature oracle on a refined sub-mesh, where
    # every P1 kernel of the coarse mesh is polynomial per element.  The min
    # kernel's kink on the diagonal leaves an O(refine^-2) quadrature error
    # in the total, so the 2D oracle is Richardson-extrapolated from two
    # refinements; 1D is fine enough as it stands.
    field, space, *_, spec = support.brownian_setup(d, n)
    est = _sampled_spectrum(d, n, 400, seed=1)
    report = mercer.error_decomposition(support.exact_side(d, n), est, L)
    k_h = reference.rank_l_kernel(spec, L)
    k_est = reference.rank_l_kernel(est, L)
    k_trunc = _truncated_kl(field, L)
    fine = fem.build_space(d, n * refine)
    e2 = reference.kernel_l2_norm(
        fine, lambda X, Y: k_trunc(X, Y) - k_h(X, Y), q)
    assert abs(report.e2 - e2) <= 1e-6 * e2, \
        "closed-form e2 %.10e vs refined quadrature %.10e" % (report.e2, e2)

    def k_total(X, Y):
        return field.covariance(X, Y) - k_est(X, Y)

    total_sq = reference.kernel_l2_norm(fine, k_total, q) ** 2
    if d == 2:
        finer = fem.build_space(d, 2 * n * refine)
        total_sq = (4.0 * reference.kernel_l2_norm(finer, k_total, q) ** 2
                    - total_sq) / 3.0
    total = np.sqrt(total_sq)
    assert abs(report.total - total) <= 1e-4 * total, \
        "closed-form total %.10e vs refined quadrature %.10e" % (
            report.total, total)


@pytest.mark.parametrize("n", [2, 8, 32])
def test_min_kernel_load_matches_mercer_series(n):
    # B1 = sum_k lambda_k s_k s_k^T; terms decay like k^-6, so the tail
    # beyond K = 2e4 is far below the tolerance
    space = fem.build_space(1, n)
    oracle = fields.KlOracle(1)
    S = oracle.moments(space, 20_000)
    lam = reference.brownian_lambda(np.arange(1, 20_001))
    series = (S.T * lam) @ S
    assert np.max(np.abs(reference.min_kernel_load(n) - series)) <= 1e-14


@pytest.mark.parametrize("d, n", [(1, 2), (1, 8), (1, 32), (1, 512),
                                  (2, 4), (2, 16)])
def test_kernel_forms_match_the_dense_load(d, n):
    # the load form applies B1 along every lattice axis through the mass
    # stencil and two cumulative sums; the oracle forms B1 (and in 2D its
    # Kronecker square) densely.  Up to rank 5, the rank of the fine
    # projection study, the two agree to 2.1e-15.  Higher modes oscillate
    # and their forms cancel in the dense product: at n=8 mode 8 of the
    # oracle is 1.9e-14 off an extended-precision one, the load form 2.3e-16
    field, space, *_, spec = support.brownian_setup(d, n)
    V = spec.gen_vectors[:, :min(5, space.dof_count)]
    B1 = reference.min_kernel_load(n)
    B = B1 if d == 1 else np.kron(B1, B1)
    want = np.sum(V * (B @ V), axis=0)
    got = field.kernel_forms(space, V)
    assert np.max(np.abs(got - want) / want) <= 1e-14, \
        "%dD n=%d: load forms off the dense load matrix" % (d, n)


def test_moments_match_quadrature():
    n, L = 8, 12
    for d in (1, 2):
        oracle = fields.KlOracle(d)
        space = fem.build_space(d, n)
        pts, wts = reference.gauss_points(d, n * 16, 6)
        T = reference.hat_values(d, n, pts)
        phi = np.column_stack([oracle.eigenfunction(l, pts)
                               for l in range(1, L + 1)])
        want = (phi * wts[:, None]).T @ T
        assert np.max(np.abs(oracle.moments(space, L) - want)) <= 1e-14


def test_invariants_raise_under_python_O():
    # the constructors' invariants must not be asserts, which -O strips
    code = (
        "import numpy as np\n"
        "from covrecon import estimators, fem, fields, mercer, planner, "
        "spectral\n"
        "from covrecon.errors import NumericError\n"
        "try:\n"
        "    estimators.TaperedCovariance(np.array([[1.0, 2.0], [0.0, 1.0]]),"
        " 0, None, 'MLE', 2)\n"
        "except ValueError:\n"
        "    print('asymmetric rejected')\n"
        "try:\n"
        "    mercer.ErrorReport(0.1, 0.1, 0.1, 5.0, False)\n"
        "except NumericError:\n"
        "    print('triangle rejected')\n"
        "space = fem.build_space(1, 4)\n"
        "for shape in ((3, 4), (0, 5)):\n"
        "    try:\n"
        "        fields.SampleBatch(space, np.zeros(shape), fields.MODE_NODAL,"
        " None, 0, 'BrownianMotion1D')\n"
        "    except ValueError:\n"
        "        print('batch %dx%d rejected' % shape)\n"
        "try:\n"
        "    spectral.eigensolve(np.array([[1.0, 2.0], [0.0, 1.0]]), None, 1)\n"
        "except ValueError:\n"
        "    print('asymmetric stiffness rejected')\n"
        # bands with a negative pivot, with an infinite entry (the round
        # trip reads nan), or not those of the stencil (its closed-form
        # extremes fail their Sturm certificate), and the true bands with a
        # wrong extreme, which only the certificate catches
        "a, b = fem._mass_bands(4)\n"
        "lo, hi = fem._mass_extremes(4)\n"
        "for bands, extremes, check in (\n"
        "        ((-a, b), (lo, hi), 'positive definite'),\n"
        "        ((np.append(np.inf, a[1:]), b), (lo, hi), 'round trip'),\n"
        "        ((2.0 * a, b), (lo, hi), 'Sturm certificate'),\n"
        "        ((a, b), (lo, hi * (1.0 + 1e-9)), 'Sturm certificate')):\n"
        "    fem._mass_bands = lambda n: bands\n"
        "    fem._mass_extremes = lambda n: extremes\n"
        "    try:\n"
        "        fem.MassMatrix(fem.build_space(1, 4))\n"
        "    except NumericError as exc:\n"
        "        print('mass rejected: ' + (check if check in str(exc)"
        " else str(exc)))\n"
        "class Mass:\n"  # G = 2 I, so S-tilde = 2 Sigma
        "    solve_lt = staticmethod(np.array)\n"
        "    space = space\n"
        "    lambda_min = lambda_max = 2.0\n"
        "cov_a, cov_b = (np.diag([v, 0.25, 0.1]) for v in (0.5, 0.55))\n"
        "a, b = (2.0 * c for c in (cov_a, cov_b))\n"
        "spec_a, spec_b = (spectral.eigensolve(s, Mass, 3) for s in (a, b))\n"
        "oracle = fields.KlOracle(1)\n"
        # spec_b against s_est = a breaks Weyl; s_est = b with cov_est =
        # cov_a breaks the sandwich (a Weyl bound of 0.1 against [0, 0])
        "for s_b, what in ((a, 'Weyl'), (b, 'sandwich')):\n"
        "    try:\n"
        "        spectral.diagnostics(spec_a, spec_b, a, s_b, cov_a, cov_a,"
        " oracle, 2)\n"
        "    except NumericError:\n"
        "        print(what + ' violation rejected')\n"
        "seen = set()\n"
        "def once(M):\n"  # true from M = 2 on, but only when first asked
        "    fresh = M not in seen\n"
        "    seen.add(M)\n"
        "    return M >= 2 and fresh\n"
        "try:\n"
        "    planner.int_threshold(once, 1.0)\n"
        "except NumericError:\n"
        "    print('threshold postcondition rejected')\n"
        "nan = float('nan')\n"
        "for L, M, h in ((0, 5, 0.1), (2, 5, 0.5)):\n"
        "    try:\n"
        "        planner.PlanResult(0.4, planner.CASE_LOG, L, M, h,"
        " (0.01, 0.2), {}, True, '', {}, nan, [])\n"
        "    except NumericError:\n"
        "        print('plan L=%d h=%g rejected' % (L, h))\n"
        "planner._tilde_crosscheck = lambda *args: 10 ** 9\n"
        "try:\n"
        "    planner.plan(planner.brownian_profile(), 0.4)\n"
        "except NumericError:\n"
        "    print('product-log disagreement rejected')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(mercer.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:15] == ["asymmetric rejected",
                                     "triangle rejected",
                                     "batch 3x4 rejected",
                                     "batch 0x5 rejected",
                                     "asymmetric stiffness rejected",
                                     "mass rejected: positive definite",
                                     "mass rejected: round trip",
                                     "mass rejected: Sturm certificate",
                                     "mass rejected: Sturm certificate",
                                     "Weyl violation rejected",
                                     "sandwich violation rejected",
                                     "threshold postcondition rejected",
                                     "plan L=0 h=0.1 rejected",
                                     "plan L=2 h=0.5 rejected",
                                     "product-log disagreement rejected"], out


# ---------------------------------------------------------------------------
# grid study
# ---------------------------------------------------------------------------

def test_rep_seed_deterministic_and_distinct():
    assert mercer.rep_seed(0, 1, 2) == mercer.rep_seed(0, 1, 2)
    seeds = {mercer.rep_seed(0, i, r) for i in range(4) for r in range(4)}
    assert len(seeds) == 16, "mesh/rep seeds must not collide"


def test_study_cells_enumeration():
    cfg = support.make_config(ns=[4, 8], Ms=[10, 20], Ls=[2])
    cells = mercer.study_cells(cfg)
    assert cells[0] == (0, 2, 4, 10)
    assert cells[-1] == (3, 2, 8, 20)
    assert len(cells) == 4


def test_study_cell_fails_at_its_lowest_failing_replication(monkeypatch):
    # replications 1 and 3 fail; two workers run reps 0-1 and 2-3 apart,
    # and the cell reports rep 1's error either way
    from covrecon.errors import NumericError

    cfg = support.make_config(ns=[6], Ms=[20], Ls=[1], n_rep=4, seed=7)
    failing = {mercer.rep_seed(cfg.seed, 0, r): r for r in (1, 3)}
    rep = {}
    draw, split = mercer.draw, mercer.error_decomposition

    def noting_draw(config, exact, M, seed):
        rep["failing"] = failing.get(seed)
        return draw(config, exact, M, seed)

    def failing_split(*args):
        if rep["failing"] is not None:
            raise NumericError("rep %d" % rep["failing"])
        return split(*args)

    monkeypatch.setattr(mercer, "draw", noting_draw)
    monkeypatch.setattr(mercer, "error_decomposition", failing_split)
    for workers in (1, 2):
        cell, = mercer.expected_error_study(cfg, workers=workers)
        assert not cell.ok and cell.error == "NumericError: rep 1", \
            (workers, cell.error)


def test_exact_replication_reuses_the_exact_side():
    # the Exact estimate is the exact side's own transform and spectrum: no
    # nodal covariance is formed and the sampling error is exactly 0
    cfg = support.make_config(d=2, estimator="Exact", ns=[6], Ls=[3])
    exact = mercer.ExactSide(2, 6, 3)
    rep = mercer.replicate(cfg, exact, 50, 3, 0)
    assert rep.spectrum is exact.spectrum
    assert (rep.estimator, rep.tau, rep.M) == ("Exact", 0, 0)
    assert rep.errors.e3 == 0.0 and rep.diagnostics.weyl_bound == 0.0
    assert "sigma" not in vars(exact), \
        "an Exact replication must not build the dense nodal covariance"
    with pytest.raises(ValueError, match="MLE or Tapered"):
        mercer.expected_error_study(cfg)


def test_replicate_frees_the_batch_before_the_transform(monkeypatch):
    # replicate estimates the batch and keeps only the covariance, so the
    # batch is freed (by reference counting, no collection) before the
    # congruence transform and the diagnostics run
    import weakref

    exact = mercer.ExactSide(2, 6, 3)
    exact.s_exact  # the exact side's own (axis) transform
    refs, alive = [], []
    draw, transform = mercer.draw, spectral.transform

    def watching_draw(*args):
        batch = draw(*args)
        refs.append(weakref.ref(batch))
        refs.append(weakref.ref(batch.coeffs))
        return batch

    def watching_transform(*args):
        alive.append([ref() is not None for ref in refs])
        return transform(*args)

    monkeypatch.setattr(mercer, "draw", watching_draw)
    monkeypatch.setattr(spectral, "transform", watching_transform)
    cfg = support.make_config(d=2, ns=[6], Ms=[50], Ls=[3])
    rep = mercer.replicate(cfg, exact, 50, 3, 0)
    assert rep.errors.e3 > 0.0
    assert alive == [[False, False]], alive


def test_run_mesh_builds_one_field_object(monkeypatch):
    # a mesh's exact side and its field serve sampling, the error split and
    # p0 of every cell and replication on it; no layer builds a KL oracle of
    # its own
    calls = []
    init = fields.KlOracle.__init__

    def counting_init(self, dim):
        calls.append(dim)
        init(self, dim)

    monkeypatch.setattr(fields.KlOracle, "__init__", counting_init)
    cfg = support.make_config(d=2, mode="projection", kl_trunc=12,
                              ns=[4, 6], Ms=[20, 30], Ls=[1, 2], n_rep=3)
    cells = mercer.expected_error_study(cfg)
    assert all(c.ok for c in cells), [c.error for c in cells]
    assert calls == [2, 2], "one KlOracle per mesh, got %d" % (len(calls),)


def test_run_mesh_computes_e1_and_p0_once(monkeypatch):
    # e1 depends on L only and p0 on (Q_h, tau, M, L): one e1 per (mesh, L)
    # and one p0 per cell
    calls = {"tail_sq": 0, "p0_bound": 0}
    tail_sq, p0_bound = fields.KlOracle.tail_sq, planner.p0_bound

    def counting_tail_sq(self, L):
        calls["tail_sq"] += 1
        return tail_sq(self, L)

    def counting_p0_bound(*args):
        calls["p0_bound"] += 1
        return p0_bound(*args)

    monkeypatch.setattr(fields.KlOracle, "tail_sq", counting_tail_sq)
    monkeypatch.setattr(planner, "p0_bound", counting_p0_bound)
    cfg = support.make_config(ns=[6, 8], Ms=[20, 40], Ls=[1, 2], n_rep=4)
    cells = mercer.expected_error_study(cfg)
    assert all(c.ok for c in cells), [c.error for c in cells]
    assert calls == {"tail_sq": 4, "p0_bound": 8}, calls
    for cell in cells:
        assert cell.mean_e1 == float(np.sqrt(fields.KlOracle(1).tail_sq(
            cell.L)))


def test_run_mesh_computes_e2_once(monkeypatch):
    # e2 depends on the mesh and L only: it is summed once per (mesh, L)
    calls = []
    e2_sq = fields.KlOracle.e2_sq

    def counting_e2_sq(self, n, L):
        calls.append((n, L))
        return e2_sq(self, n, L)

    monkeypatch.setattr(fields.KlOracle, "e2_sq", counting_e2_sq)
    cfg = support.make_config(ns=[6, 8], Ms=[20, 40], Ls=[1, 2], n_rep=4)
    cells = mercer.expected_error_study(cfg)
    assert all(c.ok for c in cells), [c.error for c in cells]
    assert calls == [(6, 1), (6, 2), (8, 1), (8, 2)], calls
    for cell in cells:
        assert cell.mean_e2 == mercer.ExactSide(1, cell.n, 2).e2(cell.L)


def test_run_mesh_holds_one_replication_at_a_time(monkeypatch):
    # a replication's batch is released before the next one is drawn, and
    # each estimated spectrum before the next is solved, so a mesh's peak
    # memory is that of one replication at its largest M
    import gc
    import weakref

    held = {"batch": [], "spectrum": []}
    refs = {"batch": [], "spectrum": []}

    def released(kind):
        gc.collect()
        held[kind].append(any(ref() is not None for ref in refs[kind]))

    draw, eigensolve = mercer.draw, spectral.eigensolve

    def watching_draw(*args):
        released("batch")
        batch = draw(*args)
        refs["batch"].append(weakref.ref(batch.coeffs))  # prefixes view it
        return batch

    def watching_eigensolve(stiffness, mass, k):
        released("spectrum")
        spec = eigensolve(stiffness, mass, k)
        refs["spectrum"].append(weakref.ref(spec))
        return spec

    monkeypatch.setattr(mercer, "draw", watching_draw)
    monkeypatch.setattr(spectral, "eigensolve", watching_eigensolve)
    cfg = support.make_config(ns=[6], Ms=[20, 40], Ls=[1, 2], n_rep=3)
    cells = mercer.expected_error_study(cfg)
    assert all(c.ok for c in cells), [c.error for c in cells]
    assert held == {"batch": [False] * 3, "spectrum": [False] * 6}, held


def test_study_draws_once_per_mesh_and_rep(monkeypatch):
    # every cell on a mesh reads a prefix of one draw per replication, of
    # the largest M still to compute
    calls = []
    draw_batch = fields.draw_batch

    def counting_draw_batch(field, space, M, **kwargs):
        calls.append((space.mesh.elements_per_axis, M))
        return draw_batch(field, space, M, **kwargs)

    monkeypatch.setattr(fields, "draw_batch", counting_draw_batch)
    cfg = support.make_config(ns=[4, 6], Ms=[20, 40, 30], Ls=[1, 2],
                              n_rep=3)
    store = {}
    first = mercer.expected_error_study(
        cfg, cell_saver=lambda r: store.__setitem__(r.index, r))
    assert calls == [(4, 40)] * 3 + [(6, 40)] * 3, calls
    # resumed with the M=40 cells done, a mesh draws 30 samples per rep
    for cell in first:
        if cell.M != 40:
            del store[cell.index]
    calls.clear()
    again = mercer.expected_error_study(cfg, cell_loader=store.get)
    assert calls == [(4, 30)] * 3 + [(6, 30)] * 3, calls
    assert [r.to_dict() for r in again] == [r.to_dict() for r in first]


def test_projection_cell_builds_sample_free_work_once(monkeypatch):
    # one projection map per mesh (one solve with the mass), and a load form
    # that never holds a Q_h x Q_h array: its peak allocation stays below the
    # size of one
    import tracemalloc

    solves, peaks = [], []
    solve, kernel_forms = fem.MassMatrix.solve, fields.KlOracle.kernel_forms

    def counting_solve(self, B):
        solves.append(self.space.mesh.elements_per_axis)
        return solve(self, B)

    def measured_kernel_forms(self, space, vectors):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = kernel_forms(self, space, vectors)
        peaks.append((tracemalloc.get_traced_memory()[1] - base,
                      space.dof_count))
        return out

    monkeypatch.setattr(fem.MassMatrix, "solve", counting_solve)
    monkeypatch.setattr(fields.KlOracle, "kernel_forms", measured_kernel_forms)
    cfg = support.make_config(mode="projection", kl_trunc=60,
                              estimator="Tapered", ns=[64, 128], Ms=[20],
                              Ls=[3], n_rep=3)
    tracemalloc.start()
    try:
        cells = mercer.expected_error_study(cfg)
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in cells), [c.error for c in cells]
    assert sorted(solves) == [64, 128], solves
    assert len(peaks) == 6
    for peak, q in peaks:
        assert peak < q * q * 8, \
            "the load form allocated %d bytes at Q_h=%d" % (peak, q)


def test_cell_result_roundtrip():
    cfg = support.make_config(ns=[4], Ms=[20], Ls=[2])
    cell = mercer.expected_error_study(cfg)[0]
    back = mercer.CellResult.from_dict(cell.to_dict())
    assert back.to_dict() == cell.to_dict()
    assert back.h == 0.25


def test_study_deterministic_and_workers_invariant():
    # two meshes of three replications: two workers split each mesh 1 + 2
    cfg = support.make_config(ns=[4, 8], Ms=[40, 80], Ls=[1, 2], n_rep=3,
                              seed=11)
    a = mercer.expected_error_study(cfg)
    b = mercer.expected_error_study(cfg)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b], \
        "same config and seed must reproduce the study bit for bit"
    c = mercer.expected_error_study(cfg, workers=2)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in c], \
        "the worker count must never change the numbers"


def test_study_resume_skips_completed_cells():
    cfg = support.make_config(ns=[8, 256], Ms=[30, 60], Ls=[1, 2], n_rep=2,
                              seed=13)
    store = {}
    first = mercer.expected_error_study(cfg, cell_saver=lambda r:
                                        store.__setitem__(r.index, r))
    assert sorted(store) == list(range(8))
    calls = []

    def loader(idx):
        calls.append(idx)
        return store.get(idx)

    second = mercer.expected_error_study(cfg, cell_loader=loader)
    assert calls == list(range(8))
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    # a missing cell is recomputed and refilled, bit for bit: left alone on
    # its mesh, the L=1 cell at Q_h=257 (the Lanczos route) still takes
    # the estimate's vectors at the grid's largest rank
    del store[2]
    third = mercer.expected_error_study(
        cfg, cell_loader=store.get,
        cell_saver=lambda r: store.__setitem__(r.index, r))
    assert [r.to_dict() for r in first] == [r.to_dict() for r in third]
    assert sorted(store) == list(range(8))


def test_interrupted_study_keeps_its_finished_meshes(monkeypatch):
    # cells are saved mesh by mesh, so a study stopped on its second mesh
    # has saved the first mesh's cells for a resume
    run_mesh = mercer.run_mesh

    def interrupted(config, mesh_index, cells, reps):
        if mesh_index == 1:
            raise KeyboardInterrupt
        return run_mesh(config, mesh_index, cells, reps)

    monkeypatch.setattr(mercer, "run_mesh", interrupted)
    cfg = support.make_config(ns=[4, 6], Ms=[20], Ls=[1, 2], n_rep=2)
    saved = []
    with pytest.raises(KeyboardInterrupt):
        mercer.expected_error_study(cfg, cell_saver=saved.append)
    assert [(r.index, r.n, r.ok) for r in saved] == [(0, 4, True),
                                                     (2, 4, True)], \
        [r.to_dict() for r in saved]


def test_failed_estimate_fails_only_the_cells_of_its_M(monkeypatch):
    # coverage: the estimate of M=20 fails on every mesh and replication;
    # both L of M=20 fail with its message, and the M=40 cells that share
    # the draw are those of an unfailed run
    from covrecon.errors import NumericError

    cfg = support.make_config(ns=[4, 6], Ms=[20, 40], Ls=[1, 2], n_rep=3,
                              seed=5)
    unfailed = mercer.expected_error_study(cfg)
    mle = estimators.mle_covariance

    def failing_mle(batch):
        if batch.sample_count == 20:
            raise NumericError("estimate of M=20")
        return mle(batch)

    monkeypatch.setattr(estimators, "mle_covariance", failing_mle)
    cells = mercer.expected_error_study(cfg)
    assert len(cells) == len(unfailed) == 8
    for cell, want in zip(cells, unfailed):
        if cell.M == 20:
            assert not cell.ok
            assert cell.error == "NumericError: estimate of M=20"
        else:
            assert cell.to_dict() == want.to_dict()


def test_failed_exact_side_fails_only_its_mesh(monkeypatch):
    # coverage: a numeric failure of the exact side's e2 on n=6 fails each
    # of that mesh's cells at its first split, and the n=4 cells are those
    # of an unfailed run
    from covrecon.errors import NumericError

    cfg = support.make_config(ns=[4, 6], Ms=[20, 40], Ls=[1, 2], n_rep=2,
                              seed=9)
    unfailed = mercer.expected_error_study(cfg)
    e2 = mercer.ExactSide.e2

    def failing_e2(self, L):
        if self.space.mesh.elements_per_axis == 6:
            raise NumericError("exact side of n=6")
        return e2(self, L)

    monkeypatch.setattr(mercer.ExactSide, "e2", failing_e2)
    cells = mercer.expected_error_study(cfg)
    assert len(cells) == len(unfailed) == 8
    for cell, want in zip(cells, unfailed):
        if cell.n == 6:
            assert not cell.ok and cell.error == "NumericError: exact side of n=6"
        else:
            assert cell.to_dict() == want.to_dict()


def test_study_pool_has_one_process_per_task_at_most(monkeypatch):
    # a pool forks all its workers on the first task, so one mesh of two
    # replications (two tasks) must not get a pool of eight
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = support.make_config(n_rep=2)
    serial = [r.to_dict() for r in mercer.expected_error_study(cfg)]
    pooled = mercer.expected_error_study(cfg, workers=8)
    assert sizes == [2]
    assert [r.to_dict() for r in pooled] == serial
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            mercer.expected_error_study(cfg, workers=workers)
    assert sizes == [2]


def test_study_requires_replications():
    cfg = support.make_config(n_rep=1)
    with pytest.raises(ValueError):
        mercer.expected_error_study(cfg)


def test_study_totals_dominate_truncation():
    cfg = support.make_config(ns=[8, 16], Ms=[60], Ls=[2, 4], n_rep=2, seed=17)
    rows = mercer.expected_error_study(cfg)
    assert all(r.ok for r in rows)
    for r in rows:
        assert r.mean_total >= r.mean_e1 - 1e-6, \
            "the total error cannot undercut the truncation floor"
        assert 0.0 <= r.gap_fail_fraction <= 1.0
        assert 0.0 <= r.p0 <= 1.0
        assert r.stderr >= 0.0


def test_study_rates_shape():
    cfg = support.make_config(ns=[8], Ms=[50], Ls=[2, 4, 8], n_rep=2, seed=19)
    rows = mercer.expected_error_study(cfg)
    rates = mercer.study_rates(rows)
    names = [r[0] for r in rates]
    assert names == ["e1_vs_L", "lambda1_dev_vs_h", "e3_vs_M"]
    e1_slope = rates[0][1]
    assert rates[0][2] == 3 and abs(e1_slope + 1.5) <= 0.1, \
        "study e1 slope %.3f should follow the tail law" % e1_slope
    # single-point axes cannot regress and must say so
    assert rates[1][2] < 2 and np.isnan(rates[1][1])
    assert rates[2][2] < 2 and np.isnan(rates[2][1])
    # every row fits the largest group of cells that hold its other two
    # parameters, the first in result order on a tie.  A full L x n x M
    # grid but for the failed cell (L=4, n=4, M=10), where every group has
    # its own slope, so the group a row fits shows in its value.  Result
    # order meets the smaller e1 group (n=4, M=10) first, then three of
    # 3 points that tie; the other two rows tie in groups of 2 points
    def e1(L, n, M):
        return L ** -(1 + n / 10 + M / 100)

    def dev(h, L, M):
        return h ** (2 + L / 10 + M / 100)

    def e3(M, L, n):
        return M ** -(0.5 + L / 10 + n / 100)

    grid = [(L, n, M) for L in (1, 2, 4) for n in (4, 8) for M in (10, 20)]
    cells = [mercer.CellResult(i, L, n, M, ok=(L, n, M) != (4, 4, 10),
                               mean_e1=e1(L, n, M),
                               lambda1_dev=dev(1 / n, L, M),
                               mean_e3=e3(M, L, n))
             for i, (L, n, M) in enumerate(grid)]
    Ls, hs, Ms = np.array([1, 2, 4]), 1 / np.array([8, 4]), np.array([10, 20])
    expected = [("e1_vs_L", reference.loglog_slope(Ls, e1(Ls, 4, 20)), 3),
                ("lambda1_dev_vs_h",
                 reference.loglog_slope(hs, dev(hs, 1, 10)), 2),
                ("e3_vs_M", reference.loglog_slope(Ms, e3(Ms, 1, 4)), 2)]
    for (name, slope, npts), (want, want_slope, want_npts) in zip(
            mercer.study_rates(cells), expected):
        assert (name, npts) == (want, want_npts)
        assert slope == pytest.approx(want_slope, rel=1e-12), \
            "%s must fit the first of the largest groups: %r vs %r" % (
                name, slope, want_slope)
