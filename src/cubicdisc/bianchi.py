"""The first Bianchi identity as a linear system, and its solution line.

Write the exterior derivative of a family member as d = A + X: A is the flat
member `coframe_family(0).d` (the sp(1) (+) sp(1) brackets and the connection
terms d[k, m, n], k and n horizontal, m < 6), X the curvature, the blocks
d[m, a, b] with m < 6 and a, b horizontal.  The first Bianchi identity is the
horizontal part of d^2 = 0 (Kobayashi and Nomizu, Foundations of Differential
Geometry I, 1963, ch. III 5; Bryant et al., Exterior Differential Systems,
1991, ch. I).  There A.A and X.X vanish, so on the rows k = th1..th4 it is
linear in X, one `models.leibniz_sum`:

    R[k, (n<a<b)] = cyclic sum over (n, a, b) of sum_{m<6} A[k, m, n] X[m, a, b].

For a real X the thb rows are the conjugates of these.  Each real unknown is a
block of X as `coframe_family` writes it: complex antisymmetric on th ^ th
with its conjugate on thb ^ thb (C^s on dpsi^s, F^s on dphi^s), or
anti-Hermitian on th ^ thb (D^s, G^s).  Stage one, {C^s, F1, G2, G3}, has
only the zero solution; stage two, {D^s, F2, F3, G1}, a line.  The solved X,
normalized to h = 1, is compared block by block with `coframe_family(1)`,
where the closed form of the line is written.
"""

from functools import lru_cache

import numpy as np

from .scalars import EXACT
from .tensors import zeros, asarray, matmul, conj_arr
from .linalg import SparseEliminator
from .models import TH0, coframe_family, leibniz_sum

# The unknown blocks (name, m, kind) of X in column order: kind TH is th ^ th,
# MIX is th ^ thb.  Horizontal index 0..3 is th, 4..7 is thb.
TH, MIX = "th^th", "th^thb"
STAGE_ONE = (("C1", 0, TH), ("C2", 1, TH), ("C3", 2, TH),
             ("F1", 3, TH), ("G2", 4, MIX), ("G3", 5, MIX))
STAGE_TWO = (("D1", 0, MIX), ("D2", 1, MIX), ("D3", 2, MIX),
             ("G1", 3, MIX), ("F2", 4, TH), ("F3", 5, TH))


def _entry_pair(a, b, x, y, bk):
    """The 4x4 matrix with x at [a, b] and y at [b, a]."""
    M = zeros((4, 4), bk)
    M[a, b], M[b, a] = x, y
    return M


def antisym_basis(bk):
    """Real basis (12 matrices) of complex antisymmetric 4x4 matrices."""
    return [_entry_pair(a, b, x, -x, bk) for a in range(4) for b in range(a + 1, 4)
            for x in (bk.one, bk.i)]


def antiherm_basis(bk):
    """Real basis (16 matrices) of anti-Hermitian 4x4 matrices: i on one
    diagonal entry, then a real antisymmetric or an imaginary symmetric pair."""
    return ([_entry_pair(a, a, bk.i, bk.i, bk) for a in range(4)]
            + [_entry_pair(a, b, x, y, bk) for a in range(4) for b in range(a + 1, 4)
               for x, y in ((bk.one, -bk.one), (bk.i, bk.i))])


def _columns(blocks, bk):
    """One X per real unknown of `blocks`, stacked on a last axis (6 x 8 x 8 x
    unknowns), each antisymmetric in its horizontal pair."""
    cols = []
    for _, m, kind in blocks:
        for M in antisym_basis(bk) if kind == TH else antiherm_basis(bk):
            X = zeros((6, 8, 8), bk)
            if kind == TH:
                X[m, :4, :4], X[m, 4:, 4:] = M, conj_arr(M, bk)
            else:
                X[m, :4, 4:], X[m, 4:, :4] = M, -M.T
            cols.append(X)
    return np.stack(cols, axis=-1)


@lru_cache(maxsize=None)
def _connection(bk):
    """The flat member's connection A[k, m, n]: k = th1..th4, m < 6, n horizontal."""
    return coframe_family(bk.zero, bk).d[TH0:TH0 + 4, :6, TH0:]


def first_bianchi_residual(X, bk):
    """The horizontal part R[k, t, ...] of d^2 for d = A + X, on the rows
    k = th1..th4 and the horizontal triples t in itertools order: X[m, a, b,
    ...] is read on a < b, and any trailing axes are carried along.

    >>> from cubicdisc.tensors import all_zero
    >>> X = coframe_family(EXACT.one).d[:6, TH0:, TH0:].copy()
    >>> all_zero(first_bianchi_residual(X, EXACT), EXACT)
    True
    >>> X[4, 0, 2] = X[4, 0, 2] + EXACT.one     # F2[1,3] = 1 -> 2
    >>> all_zero(first_bianchi_residual(X, EXACT), EXACT)
    False
    """
    return leibniz_sum(_connection(bk), X)


def _nullspace(blocks, bk):
    """Real nullspace over the unknowns of `blocks`, a row per real and per
    imaginary part of a residual entry.  The residual is taken per block and
    read per row, so that its float intermediates stay small."""
    R = np.concatenate([first_bianchi_residual(_columns([b], bk), bk) for b in blocks], -1)
    rows = []
    for entries in R.reshape(-1, R.shape[-1]):
        entries = entries.tolist()
        for part in (bk.re, bk.im):
            row = {c: p for c, v in enumerate(entries) if v and (p := part(v))}
            if row:
                rows.append(row)
    return SparseEliminator(rows, R.shape[-1], bk).nullspace()


def stage_one_nullspace(bk=EXACT):
    """Solutions over {C^s, F1, G2, G3}; expected empty."""
    return _nullspace(STAGE_ONE, bk)


def stage_two_nullspace(bk=EXACT):
    """Solutions over {D^s, F2, F3, G1}; expected 1-dimensional."""
    return _nullspace(STAGE_TWO, bk)


class FirstBianchiSolution:
    """The solved constraint system.  X is the curvature of the stage-two
    line, normalized so that F2[1,3] = 1 (h = 1); None unless the line is
    one-dimensional."""

    def __init__(self, bk=EXACT):
        self.bk = bk
        self.stage_one = stage_one_nullspace(bk)
        self.stage_two = stage_two_nullspace(bk)
        self.X = None
        if len(self.stage_two) == 1:
            vec = self.stage_two[0]
            cols = _columns(STAGE_TWO, bk)
            X = matmul(cols.reshape(-1, len(vec)), asarray([vec], bk).T).reshape(cols.shape[:3])
            scale = X[4, 0, 2]      # F2[1,3] = d[4, TH0, TH0 + 2]
            if not scale:
                raise ValueError("cannot normalize: F2[1,3] vanishes on the solution line")
            self.X = X * (bk.one / scale)

    def structure_residuals(self):
        """X - coframe_family(1).d[:6, TH0:, TH0:], read on each named
        stage-two block: zero iff the solved line is the family's.

        >>> res = FirstBianchiSolution().structure_residuals()
        >>> sorted(res), all(not v for r in res.values() for v in r.flat)
        (['D1', 'D2', 'D3', 'F2', 'F3', 'G1'], True)
        """
        diff = self.X - coframe_family(self.bk.one, self.bk).d[:6, TH0:, TH0:]
        return {name: diff[m, :4, :4] if kind == TH else diff[m, :4, 4:]
                for name, m, kind in STAGE_TWO}
