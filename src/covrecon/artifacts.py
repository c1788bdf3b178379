"""Deterministic artifact serialization.

Primary artifacts (CSV tables, covariance text, JSON reports) are
byte-reproducible: floats are written as %.17g (CSV/text) or shortest
round-trip repr (JSON), JSON keys are sorted, and no timestamps appear.
Every primary artifact embeds the resolved config and the library version,
either as leading '# ' comment lines (CSV/text) or top-level JSON keys.
Timestamps live only in *.meta.json sidecars, which are exempt from
byte-identity.

File formats:
  covariance text: comment lines, then a header line "Q_h kind tau alpha"
    (alpha written as '-' when absent), then Q_h whitespace-separated rows.
  spectrum CSV: columns l, lambda, v_1..v_Q (generalized coefficient
    vectors, one eigenpair per row).
  study summary CSV: columns L, h, M, mean_total, mean_e3, stderr, n_rep.
  study diagnostics CSV: per-cell columns index, L, h, M, ok, error,
    mean_e1, mean_e2, gap_fail_fraction, p0, tau, lambda1_dev.
  Both are mercer.CellResult attributes, read by column name; an absent
    error is an empty cell.
  study rates CSV: columns quantity, slope, n_points.
  study cell JSON (cells/cell_NNNNN.json): the CellResult fields under
    "cell", NaN written as null and read back as NaN.
"""

import datetime
import json
import math
import os

import numpy as np

from ._version import __version__
from .errors import ConfigError
from .estimators import TaperedCovariance
from .mercer import CellResult


def fmt(x):
    """Canonical text form of a scalar: %.17g floats, plain ints/strings."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _jsonify(obj):
    """Recursively convert to plain JSON types; non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def canonical_json(obj):
    return json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":"))


def _comment_lines(config):
    return ["# covrecon %s" % (__version__,),
            "# config %s" % (canonical_json(config.to_dict()),)]


def _write_text(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# BLAS thread settings: dense eigensolves round differently with the thread
# count, so primary artifacts are byte-identical only at a fixed setting
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def write_sidecar(path, config, **extra):
    """Timestamped companion metadata; the only artifact kind with a clock.

    Also records the BLAS thread variables of the environment (null when
    unset) as blas_threads.
    """
    payload = dict(version=__version__, config=config.to_dict(),
                   created=datetime.datetime.now(datetime.timezone.utc)
                   .isoformat(),
                   blas_threads={k: os.environ.get(k)
                                 for k in _BLAS_THREAD_VARS}, **extra)
    _write_text(path, json.dumps(_jsonify(payload), sort_keys=True, indent=2)
                + "\n")


def write_json(path, payload, config):
    """Primary JSON artifact with embedded version and resolved config."""
    doc = dict(payload, version=__version__, config=config.to_dict())
    _write_text(path, json.dumps(_jsonify(doc), sort_keys=True, indent=2)
                + "\n")


def read_json(path):
    with open(path, "r") as fh:
        return json.load(fh)


def write_csv(path, columns, rows, config):
    """Primary CSV artifact: comment header, column line, formatted rows.
    A None value is an empty cell."""
    lines = _comment_lines(config)
    lines.append(",".join(columns))
    for row in rows:
        cells = ["" if c is None else fmt(c).replace(",", ";") for c in row]
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Parse a primary CSV artifact into (columns, rows of strings)."""
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ConfigError("CSV file %s has no header line" % (path,))
    columns = body[0].split(",")
    return columns, [ln.split(",") for ln in body[1:]]


def write_batch_csv(path, batch, config):
    """One sample per row, %.17g coefficients, comma separated."""
    lines = _comment_lines(config)
    for row in batch.coeffs:
        lines.append(",".join(fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_batch_csv(path):
    with open(path, "r") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()
                if ln.strip() and not ln.startswith("#")]
    return np.array([[float(c) for c in row] for row in rows])


def write_covariance(path, cov, config):
    """Covariance text format with the "Q_h kind tau alpha" header line."""
    lines = _comment_lines(config)
    alpha_s = "-" if cov.alpha is None else fmt(float(cov.alpha))
    lines.append("%d %s %d %s"
                 % (cov.dof_count, cov.estimator_kind, cov.tau, alpha_s))
    for row in cov.matrix:
        lines.append(" ".join(fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_covariance(path):
    """Round-trip the covariance text format (sample count is not stored)."""
    with open(path, "r") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln.strip() and not ln.startswith("#")]
    head = lines[0].split()
    if len(head) != 4:
        raise ConfigError("covariance file %s: header must be "
                          "'Q_h kind tau alpha'" % (path,))
    Q, kind, tau = int(head[0]), head[1], int(head[2])
    alpha = None if head[3] == "-" else float(head[3])
    if len(lines) - 1 != Q:
        raise ConfigError("covariance file %s: expected %d rows, found %d"
                          % (path, Q, len(lines) - 1))
    matrix = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    return TaperedCovariance(matrix, tau=tau, alpha=alpha,
                             estimator_kind=kind, M=0)


def write_spectrum_csv(path, spectrum, L, config):
    """Top-L eigenpairs: index, eigenvalue, generalized vector components."""
    Q = spectrum.dof_count
    columns = ["l", "lambda"] + ["v_%d" % (j + 1,) for j in range(Q)]
    rows = []
    for ell in range(1, L + 1):
        rows.append([ell, spectrum.eigenvalues[ell - 1]]
                    + list(spectrum.gen_vectors[:, ell - 1]))
    write_csv(path, columns, rows, config)


_SUMMARY_COLUMNS = ["L", "h", "M", "mean_total", "mean_e3", "stderr", "n_rep"]
_DIAG_COLUMNS = ["index", "L", "h", "M", "ok", "error", "mean_e1", "mean_e2",
                 "gap_fail_fraction", "p0", "tau", "lambda1_dev"]


def write_study_csvs(out_dir, results, rates, config):
    """Summary, per-cell diagnostics and regression-slope tables of a study."""
    summary = os.path.join(out_dir, "study_summary.csv")
    write_csv(summary, _SUMMARY_COLUMNS,
              [[getattr(r, c) for c in _SUMMARY_COLUMNS]
               for r in results if r.ok], config)
    diag = os.path.join(out_dir, "study_diagnostics.csv")
    write_csv(diag, _DIAG_COLUMNS,
              [[getattr(r, c) for c in _DIAG_COLUMNS] for r in results],
              config)
    rates_path = os.path.join(out_dir, "study_rates.csv")
    write_csv(rates_path, ["quantity", "slope", "n_points"], rates, config)
    return summary, diag, rates_path


def cell_path(cell_dir, index):
    return os.path.join(cell_dir, "cell_%05d.json" % (index,))


def save_cell(cell_dir, result, config):
    write_json(cell_path(cell_dir, result.index), dict(cell=result.to_dict()),
               config)


def _config_key(cfg):
    """Canonical JSON of a resolved config mapping, without its out_dir."""
    cfg = dict(cfg or {})
    cfg.pop("out_dir", None)
    return canonical_json(cfg)


def load_cell(cell_dir, index, config, rejected):
    """Reload a persisted study cell, or None when absent or unusable.

    A cell file is unusable when it is corrupt, was written by another
    covrecon version, or embeds a config that differs from config in anything
    but out_dir.  rejected collects a one-line note naming each unusable file
    and why.
    """
    path = cell_path(cell_dir, index)
    if not os.path.exists(path):
        return None
    try:
        doc = read_json(path)
        # JSON writes NaN as null; only a cell's error is None when absent
        cell = CellResult.from_dict(
            {k: float("nan") if v is None and k != "error" else v
             for k, v in doc["cell"].items()})
        written = _config_key(doc.get("config"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        reason = "corrupt (%s: %s)" % (type(exc).__name__, exc)
    else:
        if doc.get("version") != __version__:
            reason = "written by covrecon %s, not %s" % (doc.get("version"),
                                                         __version__)
        elif written != _config_key(config.to_dict()):
            reason = "written for a different config"
        else:
            return cell
    rejected.append("ignoring cell %s: %s" % (path, reason))
    return None
