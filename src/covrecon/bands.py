"""Symmetric band matrices: the 1D tapered estimate and its transform.

A taper zeroes every entry beyond index offset tau (Cai, Zhang & Zhou,
Ann. Statist. 38, 2010), so a 1D tapered estimate is a band of tau
diagonals, and its congruence with the bidiagonal mass factor L1 a band of
tau + 1.  SymmetricBand holds such a matrix as its upper diagonals, applies
it in O(Q w) per vector and forms its dense form only on request
(dense_form).
"""

import numpy as np


class SymmetricBand:
    """A symmetric Q x Q matrix A with A[i, j] = 0 for |i - j| > w, held as
    its w + 1 upper diagonals: upper[o, i] = A[i, i + o] for i < Q - o, and
    0 beyond.  Each entry is held once, so A is exactly symmetric by
    construction.

    @ applies A to a (Q,) vector or a (Q, k) block, row i as the sum over
    the 2w + 1 offsets c - w of A[i, i + c - w] X[i + c - w], with the
    entries outside the matrix 0; the product with I is the dense form,
    bit for bit.  dense() forms A.

    Attributes
    ----------
    upper : (w + 1, Q) read-only array of the upper diagonals
    half_width : w
    shape : (Q, Q)
    """

    def __init__(self, upper):
        upper = np.array(upper, dtype=float)
        if upper.ndim != 2 or not 1 <= upper.shape[0] <= upper.shape[1]:
            raise ValueError("a band needs 1 to Q diagonals of Q entries, "
                             "got shape %r" % (upper.shape,))
        w1, Q = upper.shape
        full = np.zeros((2 * w1 - 1, Q))
        full[w1 - 1:] = upper
        for o in range(1, w1):
            upper[o, Q - o:] = 0.0
            # row i of the lower diagonal o holds A[i, i - o] = A[i - o, i]
            full[w1 - 1 - o, o:] = upper[o, :Q - o]
        for arr in (upper, full):
            arr.setflags(write=False)
        self.upper = upper
        self.half_width = w1 - 1
        self.shape = (Q, Q)
        # _full[c, i] = A[i, i + c - w]
        self._full = full

    def __matmul__(self, X):
        X = np.asarray(X, dtype=float)
        w, Q = self.half_width, self.shape[0]
        if X.shape[:1] != (Q,):
            raise ValueError("band of %d rows applied to shape %r"
                             % (Q, X.shape))
        padded = np.zeros((Q + 2 * w,) + X.shape[1:])
        padded[w:w + Q] = X
        # windows[c, i] = padded[i + c] = X[i + c - w]: a read-only view
        windows = np.ndarray((2 * w + 1,) + X.shape, buffer=padded,
                             strides=padded.strides[:1] + padded.strides)
        return np.einsum("ci,ci...->i...", self._full, windows)

    def dense(self):
        """A as one Q x Q array: each diagonal written to its two strided
        views of the flat array."""
        Q = self.shape[0]
        A = np.zeros((Q, Q))
        flat = A.reshape(-1)
        for o, diag in enumerate(self.upper):
            flat[o::Q + 1][:Q - o] = diag[:Q - o]
            flat[o * Q::Q + 1][:Q - o] = diag[:Q - o]
        return A

    def congruence(self, d, e):
        """L1^T A L1 for the lower bidiagonal L1 with diagonal d (Q entries)
        and subdiagonal e (Q - 1 entries, e[i] = L1[i + 1, i]), as a band of
        half-width min(w + 1, Q - 1), in O(Q w).

        Entry (i, j), j = i + o, is that of (L1^T A) L1:
        d_j (d_i A_ij + e_i A_i+1,j) + e_j (d_i A_i,j+1 + e_i A_i+1,j+1),
        with e_{Q-1} = 0 and the entries outside A 0.  Each is computed
        once, for o >= 0, so the result is exactly symmetric.
        """
        d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
        w, Q = self.half_width, self.shape[0]
        if d.shape != (Q,) or e.shape != (Q - 1,):
            raise ValueError("factor bands of shapes %r and %r do not fit "
                             "a band of %d rows" % (d.shape, e.shape, Q))
        rows = min(w + 2, Q)
        # P[c + 1, i] = A[i, i + c - w] for c = -1 .. 2w + 2, 0 outside A
        P = np.zeros((2 * w + 4, Q + 1))
        P[1:2 * w + 2, :Q] = self._full
        # the diagonals o = 0 .. rows - 1 of A[i, j], A[i, j + 1],
        # A[i + 1, j] and A[i + 1, j + 1]
        a, a_right = P[w + 1:w + 1 + rows, :Q], P[w + 2:w + 2 + rows, :Q]
        a_down, a_diag = P[w:w + rows, 1:], P[w + 1:w + 1 + rows, 1:]
        # (d, e) at i, and at j = i + o (0 past the end)
        d_pad = np.concatenate((d, np.zeros(rows)))
        e_pad = np.concatenate((e, np.zeros(rows + 1)))
        at_j = np.arange(rows)[:, None] + np.arange(Q)
        dj, ej = d_pad[at_j], e_pad[at_j]
        di, ei = d, e_pad[:Q]
        return SymmetricBand(dj * (di * a + ei * a_down)
                             + ej * (di * a_right + ei * a_diag))


def dense_form(operator):
    """An operator as one float array: a SymmetricBand's dense(), anything
    else np.asarray(operator, dtype=float), which copies no float array."""
    if isinstance(operator, SymmetricBand):
        return operator.dense()
    return np.asarray(operator, dtype=float)
