"""A fixed reference job that measures how fast the CPU is right now.

On a shared host the speed of a vCPU changes by up to 2x in phases of
seconds to minutes (other tenants on the sibling hyperthreads), and a
38-second run can fall wholly into a slow or a fast phase.  The benchmark
therefore runs this short job on the CPU its commands are pinned to: before
and after each command, and every second while the command is paused with
SIGSTOP.  It scales the command's times by REFERENCE_S / (mean of those
reference times), which gives the command's time at a fixed reference
speed.  A change to covrecon moves the command and not this job, so it still
shows in full.

The job mixes the kinds of work covrecon does: one numpy Generator per
sample with a short draw and a cumulative sum (the 1D nodal draw), a
three-operand einsum (the 2D draw), the squared min-kernel on a 1024-point
grid against quadrature weights (the quadrature error terms, bound by
memory traffic and fresh pages), a dense symmetric eigensolve (the spectral
layer) and a plain interpreter loop.  Its inputs are fixed, so it
does the same work in every run.  Only numpy is used, with the BLAS threads
that the calling process allows (the benchmark sets one).
"""

import time

# Reference time of `measure()` that the scaled metrics are expressed in;
# about its median on a 2-core Intel Xeon VM with one BLAS thread.
REFERENCE_S = 0.11

_inputs = None


def _make_inputs():
    import numpy as np
    rng = np.random.default_rng(20211206)
    A = rng.standard_normal((400, 400))
    S = A @ A.T + 400.0 * np.eye(400)
    L = np.linalg.cholesky(S)[:31, :31]
    Z = rng.standard_normal((20, 31, 31))
    x = np.linspace(0.0, 1.0, 1024)
    return np, S, L, Z, x


def measure():
    """Wall time of one pass of the reference job, in seconds."""
    global _inputs
    if _inputs is None:
        _inputs = _make_inputs()
    np, S, L, Z, x = _inputs
    start = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, i])))
        acc += np.cumsum(g.standard_normal(32))[-1]
    acc += np.einsum("ij,mjk,lk->mil", L, Z, L).sum()
    for _ in range(3):
        acc += x @ np.minimum.outer(x, x) ** 2 @ x
    acc += np.linalg.eigh(S)[0][0]
    s = 0
    for i in range(250000):
        s += i * i
    elapsed = time.perf_counter() - start
    if not (acc == acc and s > 0):
        raise RuntimeError("reference job produced a non-finite result")
    return elapsed
