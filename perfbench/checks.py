"""Output checks of one covrecon run, against closed forms of Brownian fields.

Each operation (a study cell, or one reconstruct command) passes or fails
on its own.  The checks read the primary artifacts as numbers; none
compares artifact bytes, so a declared change of the sampling contract fails
no check.  Standard library only.
"""

import csv
import json
import math
import os

TRIANGLE_SLACK = 1e-8
E1_RTOL = 1e-9


def _mu(i):
    """1D Brownian eigenvalue (i - 1/2)^-2 pi^-2."""
    return 1.0 / (math.pi * (i - 0.5)) ** 2


def _hurwitz_zeta4(a, terms=1000):
    """zeta(4, a) = sum_k (a + k)^-4, closed by Euler-Maclaurin."""
    head = math.fsum((a + k) ** -4 for k in range(terms))
    x = a + terms
    return head + x ** -3 / 3.0 + x ** -4 / 2.0 + x ** -5 / 3.0 - x ** -7 / 6.0


def expected_e1(d, L):
    """Truncation error sqrt(sum_{l > L} lambda_l^2) in closed form."""
    if d == 1:
        return math.sqrt(_hurwitz_zeta4(L + 0.5) / math.pi ** 4)
    products = sorted((_mu(i) * _mu(j) for i in range(1, L + 1)
                       for j in range(1, L + 1)), reverse=True)
    head = math.fsum(v * v for v in products[:L])
    return math.sqrt(1.0 / 36.0 - head)


def expected_lambda1(d):
    """Leading eigenvalue 4/pi^2 of Brownian motion; squared for the sheet."""
    return _mu(1) ** d


def lambda1_ok(d, h, deviation):
    """P1 Galerkin error of lambda_1 is about 0.2 d lambda_1 h^2; allow h^2."""
    return deviation <= expected_lambda1(d) * h * h


def _close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


def _read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_reconstruct(out_dir, d, L, n):
    """Failure reasons of one reconstruct command (empty when it passed)."""
    with open(os.path.join(out_dir, "report.json")) as fh:
        err = json.load(fh)["errors"]
    bad = []
    if err["total"] > err["e1"] + err["e2"] + err["e3"] + TRIANGLE_SLACK:
        bad.append("triangle: total %r > e1+e2+e3" % (err["total"],))
    if not _close(err["e1"], expected_e1(d, L), E1_RTOL):
        bad.append("e1 %r != closed form %r" % (err["e1"], expected_e1(d, L)))
    lam1 = float(_read_rows(os.path.join(out_dir,
                                         "spectrum_exact.csv"))[0]["lambda"])
    if not lambda1_ok(d, 1.0 / n, abs(lam1 - expected_lambda1(d))):
        bad.append("exact lambda_1 %r too far from %r"
                   % (lam1, expected_lambda1(d)))
    return bad


def check_study(out_dir, d, expect_tau=None, e3_falls_with_m=False):
    """Failure reasons per study cell, keyed by cell index."""
    diag = _read_rows(os.path.join(out_dir, "study_diagnostics.csv"))
    summary = {(r["L"], r["h"], r["M"]): r for r in
               _read_rows(os.path.join(out_dir, "study_summary.csv"))}
    bad = {}
    for r in diag:
        reasons = bad.setdefault(int(r["index"]), [])
        if r["ok"] != "true":
            reasons.append("cell not ok: %s" % (r["error"],))
            continue
        L, h = int(r["L"]), float(r["h"])
        e1, e2 = float(r["mean_e1"]), float(r["mean_e2"])
        row = summary[(r["L"], r["h"], r["M"])]
        if float(row["mean_total"]) > (e1 + e2 + float(row["mean_e3"])
                                       + TRIANGLE_SLACK):
            reasons.append("triangle: mean_total %s > e1+e2+e3"
                           % (row["mean_total"],))
        if not _close(e1, expected_e1(d, L), E1_RTOL):
            reasons.append("e1 %r != closed form %r" % (e1, expected_e1(d, L)))
        if not lambda1_ok(d, h, float(r["lambda1_dev"])):
            reasons.append("lambda1_dev %s above h^2 bound"
                           % (r["lambda1_dev"],))
        if expect_tau is not None and int(r["tau"]) != expect_tau:
            reasons.append("tau %s != %d" % (r["tau"], expect_tau))
    if e3_falls_with_m:
        by_axis = {}
        for r in diag:
            key = (r["L"], r["h"], r["M"])
            if key in summary:
                by_axis.setdefault(key[:2], []).append(
                    (int(r["M"]), float(summary[key]["mean_e3"]),
                     int(r["index"])))
        for cells in by_axis.values():
            cells.sort()
            e3 = [c[1] for c in cells]
            if any(a <= b for a, b in zip(e3, e3[1:])):
                for _, _, index in cells:
                    bad[index].append("mean_e3 not strictly falling in M: %r"
                                      % (e3,))
    return bad
