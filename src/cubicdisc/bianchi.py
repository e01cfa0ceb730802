"""The linear constraint system forcing the one-parameter coframe family.

Closure of the coframe differentials is equivalent to four families of
equations (split by barred-index type) in the unknown curvature coefficient
matrices: C^s, F^s antisymmetric and D^s, G^s anti-Hermitian, s = 1..3.
The system splits into two independent stages; the first admits only the
zero solution, the second a single line, parameterized by h, with

    F2 = h P,  F3 = -i h P,  D^s = -(2h/3) Upsilon_s P,  G1 = i h Id.
"""

import numpy as np

from .scalars import EXACT
from .tensors import zeros, asarray, conj_arr, pmat, eye
from .irrep import upsilons
from .linalg import SparseEliminator


def _threeterm(U, M):
    """T[a,b,c,d] = U[a,b]M[c,d] + U[a,c]M[d,b] + U[a,d]M[b,c]."""
    t = np.multiply.outer(U, M)
    return t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))


def cf_type_1(C, F1, bk):
    """Residual of the all-unbarred equation family."""
    P = pmat(bk)
    out = zeros((4, 4, 4, 4), bk)
    for s in range(3):
        out = out + _threeterm(upsilons(bk)[s], C[s])
    return out - _threeterm(P, F1) * (bk.i * bk.rational(1, 2))


def cf_type_3(C, F1, G2, G3, bk):
    """Residual of the two-bars equation family."""
    P = pmat(bk)
    I = eye(4, bk)
    half = bk.rational(1, 2)
    out = zeros((4, 4, 4, 4), bk)
    for s in range(3):
        out = out + np.multiply.outer(upsilons(bk)[s], conj_arr(C[s], bk))
    out = out - np.multiply.outer(P, conj_arr(F1, bk)) * (bk.i * half)
    G23 = G2 + G3 * bk.i
    t = np.multiply.outer(I, G23)
    out = out - np.transpose(t, (0, 2, 3, 1)) * half   # delta[a,d] G23[b,c]
    out = out + np.transpose(t, (0, 2, 1, 3)) * half   # delta[a,c] G23[b,d]
    return out


def cf_type_2(D, F2, F3, G1, bk):
    """Residual of the one-bar equation family."""
    P = pmat(bk)
    I = eye(4, bk)
    half = bk.rational(1, 2)
    out = zeros((4, 4, 4, 4), bk)
    for s in range(3):
        t = np.multiply.outer(upsilons(bk)[s], D[s])
        out = out + t - np.transpose(t, (0, 2, 1, 3))
    F23 = F2 + F3 * bk.i
    tf = np.multiply.outer(I, F23)
    out = out - np.transpose(tf, (0, 2, 3, 1)) * half
    tg = np.multiply.outer(P, G1)
    out = out - (tg - np.transpose(tg, (0, 2, 1, 3))) * (bk.i * half)
    return out


def cf_type_4(F2, F3, bk):
    """Residual of the three-bars equation family."""
    I = eye(4, bk)
    F23c = conj_arr(F2, bk) + conj_arr(F3, bk) * bk.i
    return _threeterm(I, F23c)


# -- unknown parameterization ----------------------------------------------


def antisym_basis(bk):
    """Real basis (12 matrices) of complex antisymmetric 4x4 matrices."""
    out = []
    for a in range(4):
        for b in range(a + 1, 4):
            M = zeros((4, 4), bk)
            M[a, b] = bk.one
            M[b, a] = -bk.one
            out.append(M)
            N = zeros((4, 4), bk)
            N[a, b] = bk.i
            N[b, a] = -bk.i
            out.append(N)
    return out


def antiherm_basis(bk):
    """Real basis (16 matrices) of anti-Hermitian 4x4 matrices."""
    out = []
    for a in range(4):
        M = zeros((4, 4), bk)
        M[a, a] = bk.i
        out.append(M)
    for a in range(4):
        for b in range(a + 1, 4):
            M = zeros((4, 4), bk)
            M[a, b] = bk.one
            M[b, a] = -bk.one
            out.append(M)
            N = zeros((4, 4), bk)
            N[a, b] = bk.i
            N[b, a] = bk.i
            out.append(N)
    return out


def _zero4(bk):
    return zeros((4, 4), bk)


def _nullspace_of_columns(column_tensors, bk):
    """Real nullspace of the linear system whose k-th column is the list of
    residual tensors produced by unit value of unknown k."""
    rows = []
    for t in range(len(column_tensors[0])):
        M = np.stack([asarray(col[t], bk).ravel() for col in column_tensors], 1)
        for m in M:
            entries = m.tolist()    # one row at a time keeps the peak small
            for part in (bk.re, bk.im):
                row = {k: p for k, v in enumerate(entries) if v and (p := part(v))}
                if row:
                    rows.append(row)
    return SparseEliminator(rows, len(column_tensors), bk).nullspace()


def stage_one_nullspace(bk=EXACT):
    """Solutions of the {all-unbarred, two-bars} equations; expected empty."""
    asym = antisym_basis(bk)
    aherm = antiherm_basis(bk)
    Z = _zero4(bk)
    cols = []
    for s in range(3):
        for M in asym:
            C = [Z, Z, Z]
            C[s] = M
            cols.append([cf_type_1(C, Z, bk), cf_type_3(C, Z, Z, Z, bk)])
    for M in asym:     # F1
        cols.append([cf_type_1([Z, Z, Z], M, bk),
                     cf_type_3([Z, Z, Z], M, Z, Z, bk)])
    for M in aherm:    # G2
        cols.append([zeros((4, 4, 4, 4), bk),
                     cf_type_3([Z, Z, Z], Z, M, Z, bk)])
    for M in aherm:    # G3
        cols.append([zeros((4, 4, 4, 4), bk),
                     cf_type_3([Z, Z, Z], Z, Z, M, bk)])
    return _nullspace_of_columns(cols, bk)


# The stage-two unknowns in column order; F2 and F3 are antisymmetric, the
# others anti-Hermitian.
STAGE_TWO = ("D1", "D2", "D3", "F2", "F3", "G1")


def _stage_two_columns(bk):
    """(unknown, real basis matrix) for each stage-two column, in order."""
    asym = antisym_basis(bk)
    aherm = antiherm_basis(bk)
    return [(name, M) for name in STAGE_TWO
            for M in (asym if name in ("F2", "F3") else aherm)]


def stage_two_nullspace(bk=EXACT):
    """Solutions of the {one-bar, three-bars} equations; expected 1-dimensional."""
    cols = []
    for name, M in _stage_two_columns(bk):
        x = dict.fromkeys(STAGE_TWO, _zero4(bk))
        x[name] = M
        cols.append([cf_type_2([x["D1"], x["D2"], x["D3"]], x["F2"], x["F3"],
                               x["G1"], bk),
                     cf_type_4(x["F2"], x["F3"], bk)])
    return _nullspace_of_columns(cols, bk)


class FirstBianchiSolution:
    """The solved constraint system, normalized so that F2[1,3] = 1 (h = 1)."""

    def __init__(self, bk=EXACT):
        self.bk = bk
        self.stage_one = stage_one_nullspace(bk)
        self.stage_two = stage_two_nullspace(bk)
        self.D = self.F2 = self.F3 = self.G1 = None
        if len(self.stage_two) == 1:
            self._extract(self.stage_two[0])

    def _extract(self, vec):
        bk = self.bk
        x = dict.fromkeys(STAGE_TWO, _zero4(bk))
        for (name, B), c in zip(_stage_two_columns(bk), vec):
            x[name] = x[name] + B * c
        scale = x["F2"][0, 2]
        if not scale:
            raise ValueError("cannot normalize: F2[1,3] vanishes on the solution line")
        inv = bk.one / scale
        self.D = [x["D%d" % s] * inv for s in (1, 2, 3)]
        self.F2 = x["F2"] * inv
        self.F3 = x["F3"] * inv
        self.G1 = x["G1"] * inv

    def structure_residuals(self):
        """Residual arrays of the normalized solution against the closed form
        F2 = P, F3 = -iP, D^s = -(2/3) Upsilon_s P, G1 = i Id."""
        bk = self.bk
        P = pmat(bk)
        out = {}
        out["F2"] = self.F2 - P
        out["F3"] = self.F3 + P * bk.i
        out["G1"] = self.G1 - eye(4, bk) * bk.i
        for s in range(3):
            expect = (upsilons(bk)[s] @ P) * bk.rational(-2, 3)
            out["D%d" % (s + 1)] = self.D[s] - expect
        return out
