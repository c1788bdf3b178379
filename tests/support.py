"""Shared helpers for the test suite (package-facing; see reference.py for
the independent oracles)."""

import functools
import os

import numpy as np

from covrecon import config as config_mod
from covrecon import fem, fields, mercer


@functools.lru_cache(maxsize=None)
def exact_side(d, n):
    """The pipeline's exact side of the Brownian field on the n-element mesh,
    keeping all Q_h exact vectors.  Cached: brownian_setup returns its parts,
    and e2 is kept on it."""
    return mercer.ExactSide(d, n, (n + 1) ** d)


@functools.lru_cache(maxsize=None)
def nodal_covariance(d, n):
    """R(x_i, x_j) at the node pairs of the n-element mesh, from the kernel
    itself (KlOracle.covariance), not from the exact side's operator.
    Cached and read-only."""
    field = fields.KlOracle(d)
    nodes = fem.build_space(d, n).mesh.nodes
    sigma = field.covariance(nodes, nodes)
    sigma.setflags(write=False)
    return sigma


def brownian_setup(d, n):
    """Field (its KL oracle), space, mass, exact covariance/stiffness/spectrum
    for the Brownian field on the n-element mesh: the pipeline's exact side,
    with the nodal covariance formed from the kernel (nodal_covariance).
    Cached: everything returned is deterministic and treated as read-only
    by the tests."""
    ex = exact_side(d, n)
    return (ex.field, ex.space, ex.mass, nodal_covariance(d, n), ex.s_exact,
            ex.spectrum)


def make_config(**overrides):
    """A small, valid StudyConfig with keyword overrides."""
    base = dict(d=1, mode="nodal", estimator="MLE", alpha=1.0,
                ns=[8], Ms=[50], Ls=[2], n_rep=2, seed=0, out_dir="out")
    base.update(overrides)
    return config_mod.StudyConfig(**base)


def write_yaml(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def basic_yaml(out_dir, n=4, M=10, L=2, seed=0, estimator="MLE", extra="",
               d=1):
    """Minimal config document used by the CLI tests."""
    return (
        "field:\n  kind: brownian\n  d: %d\n"
        "sampling:\n  mode: nodal\n"
        "estimator:\n  kind: %s\n  alpha: 1.0\n"
        "study:\n  ns: [%d]\n  Ms: [%d]\n  Ls: [%d]\n  n_rep: 2\n"
        "quadrature:\n  q: 2\n"
        "seed: %d\noutput: %s\n%s"
        % (d, estimator, n, M, L, seed, out_dir, extra)
    )


def read_file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def primary_artifacts(out_dir):
    """All artifact files under out_dir except timestamped .meta.json sidecars."""
    found = []
    for root, _, names in os.walk(out_dir):
        for name in sorted(names):
            if name.endswith(".meta.json"):
                continue
            found.append(os.path.join(root, name))
    return sorted(found)


def max_offdiag_asym(a):
    return float(np.max(np.abs(a - a.T)))
