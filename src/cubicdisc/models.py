"""Left-invariant coframe models carrying the cubic discriminant curvature.

A CoframeSystem stores the exterior derivatives of a 14-dimensional coframe
(psi1..psi3, phi1..phi3, th1..th4, th1b..th4b) as 2-forms with constant
coefficients.  A one-parameter family, indexed by a real scalar h, has closed
members exactly as dictated by the differential constraints; h = -3/2 and
h = 3/2 give the compact and split models, h = 0 the flat one.

The module also computes the induced Lie bracket and Jacobi residuals, the
curvature operator restricted to the 8-dimensional horizontal space, Ricci
and scalar curvature, and the comparison with the invariant quartic.
"""

import itertools
from functools import lru_cache

import numpy as np

from .scalars import EXACT
from .tensors import zeros, pmat, g8mat, jmats, omega_forms, q_tensor, frozen, FLIP
from .irrep import rep_w, upsilons, script_e_frames, s_hat
from .hk import kappa

N_FORMS = 14
LABELS = ["psi1", "psi2", "psi3", "phi1", "phi2", "phi3",
          "th1", "th2", "th3", "th4", "th1b", "th2b", "th3b", "th4b"]
PSI = (0, 1, 2)
PHI = (3, 4, 5)
TH0 = 6    # th_alpha = TH0 + alpha, thbar_alpha = TH0 + 4 + alpha
# Row of each index triple i < j < l in CoframeSystem.jacobi_residual.
TRIPLES = {t: n for n, t in enumerate(itertools.combinations(range(N_FORMS), 3))}


def _accumulate(form, key, value, bk):
    """form[key] += value, dropping the key when the sum is zero."""
    cur = form.get(key, bk.zero) + value
    if cur:
        form[key] = cur
    else:
        form.pop(key, None)


def _form_add(form, key, value, bk):
    """Add value * e^i ^ e^j to a 2-form keyed by sorted pairs; zeros drop out."""
    i, j = key
    if i == j:
        return
    if i > j:
        i, j = j, i
        value = -value
    _accumulate(form, (i, j), value, bk)


def wedge_with_one_form(form2, j, bk):
    """The 3-form (2-form) ^ e^j, keyed by sorted index triples."""
    out = {}
    for (p, q), v in form2.items():
        idx = (p, q, j)
        if len(set(idx)) < 3:
            continue
        order = sorted(range(3), key=lambda t: idx[t])
        sgn = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if order[a] > order[b]:
                    sgn = -sgn
        key = tuple(sorted(idx))
        w = v if sgn > 0 else -v
        _accumulate(out, key, w, bk)
    return out


class CoframeSystem:
    """Constant-coefficient exterior derivative on a fixed 14-coframe."""

    def __init__(self, d, bk=EXACT, h=None):
        self.bk = bk
        self.d = {k: dict(v) for k, v in d.items()}
        for k in range(N_FORMS):
            self.d.setdefault(k, {})
        self.h = h
        self._jacobi = None

    def d_two_form(self, form2):
        """d applied to a 2-form with constant coefficients, by Leibniz."""
        bk = self.bk
        out = {}
        for (i, j), v in form2.items():
            for (p, q), w in self.d[i].items():
                t = wedge_with_one_form({(p, q): v * w}, j, bk)
                for key, val in t.items():
                    _accumulate(out, key, val, bk)
            for (p, q), w in self.d[j].items():
                t = wedge_with_one_form({(p, q): -(v * w)}, i, bk)
                for key, val in t.items():
                    _accumulate(out, key, val, bk)
        return out

    def closure_residual(self):
        """The largest |d(d e^k)| entry."""
        bk = self.bk
        return max((abs(bk.to_complex(v))
                    for v in self.jacobi_residual().ravel().tolist() if v),
                   default=0.0)

    def is_closed(self):
        """d^2 = 0 (the Jacobi identity): the one rule of the closure_* and
        jacobi_* checks.  Each entry of d(d e^k) is a sum of products of two
        coefficients, so it is judged zero at the scale max(1, c)^2, c the
        largest |coefficient|."""
        bk = self.bk
        scale = max((abs(bk.to_complex(v)) for f in self.d.values()
                     for v in f.values()), default=1.0)
        return all(bk.is_zero(v, max(1.0, scale) ** 2)
                   for v in self.jacobi_residual().ravel().tolist() if v)

    def structure_constants(self):
        """c[k, i, j] with [v_i, v_j] = sum_k c[k,i,j] v_k; c^k_ij = -(de^k)_ij."""
        bk = self.bk
        c = zeros((N_FORMS, N_FORMS, N_FORMS), bk)
        for k in range(N_FORMS):
            for (i, j), v in self.d[k].items():
                c[k, i, j] = -v
                c[k, j, i] = v
        return c

    def jacobi_residual(self):
        """The 364 x 14 array of d(d e^k): row t holds the coefficients on the
        t-th triple i < j < l of itertools.combinations, column k those of
        d(d e^k).  For constant coefficients d^2 = 0 is the Jacobi identity,
        and entry [t, k] is the k-th component of the Jacobi sum
        [[v_i, v_j], v_l] + cyclic.  Computed on the first call (d must not
        change after it) and returned read-only."""
        if self._jacobi is None:
            R = zeros((len(TRIPLES), N_FORMS), self.bk)
            for k in range(N_FORMS):
                for key, v in self.d_two_form(self.d[k]).items():
                    R[TRIPLES[key], k] = v
            R.flags.writeable = False
            self._jacobi = R
        return self._jacobi


def coframe_family(h, bk=EXACT):
    """The one-parameter family of coframe systems; h must be a real scalar
    of the backend (for example bk.rational(-3, 2))."""
    # Entries are read one at a time, so read them as Python scalars.
    P = pmat(bk).tolist()
    E = [Es.tolist() for Es in rep_w(bk)]
    U = upsilons(bk)
    i = bk.i
    half = bk.rational(1, 2)
    d = {k: {} for k in range(N_FORMS)}

    # sp(1) (+) sp(1) part.
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for (s, j, k) in cyc:
        _form_add(d[s], (j, k), -bk.one, bk)            # dpsi^s = -psi^j ^ psi^k + ...
        _form_add(d[3 + s], (3 + j, 3 + k), -bk.one, bk)  # dphi^s = -phi^j ^ phi^k + ...

    # Horizontal curvature terms, scaled by h.
    hc = bk.conj(h)
    for s in range(3):
        D = ((U[s] @ pmat(bk)) * (bk.rational(-2, 3) * h)).tolist()
        for a in range(4):
            for b in range(4):
                _form_add(d[s], (TH0 + a, TH0 + 4 + b), D[a][b], bk)
    for a in range(4):
        _form_add(d[3], (TH0 + a, TH0 + 4 + a), i * h, bk)
    for a in range(4):
        for b in range(a + 1, 4):
            _form_add(d[4], (TH0 + a, TH0 + b), h * P[a][b], bk)
            _form_add(d[4], (TH0 + 4 + a, TH0 + 4 + b), hc * P[a][b], bk)
            _form_add(d[5], (TH0 + a, TH0 + b), -(i * h) * P[a][b], bk)
            _form_add(d[5], (TH0 + 4 + a, TH0 + 4 + b),
                      bk.conj(-(i * h)) * P[a][b], bk)

    # Horizontal coframe: connection terms, the same for every h.
    for a in range(4):
        for b in range(4):
            for s in range(3):
                _form_add(d[TH0 + a], (s, TH0 + b), -E[s][a][b], bk)
                _form_add(d[TH0 + 4 + a], (s, TH0 + 4 + b),
                          -bk.conj(E[s][a][b]), bk)
            _form_add(d[TH0 + a], (4, TH0 + 4 + b), half * P[a][b], bk)
            _form_add(d[TH0 + a], (5, TH0 + 4 + b), (i * half) * P[a][b], bk)
            _form_add(d[TH0 + 4 + a], (4, TH0 + b), half * P[a][b], bk)
            _form_add(d[TH0 + 4 + a], (5, TH0 + b), -(i * half) * P[a][b], bk)
        _form_add(d[TH0 + a], (3, TH0 + a), -(i * half), bk)
        _form_add(d[TH0 + 4 + a], (3, TH0 + 4 + a), i * half, bk)

    return CoframeSystem(d, bk, h=h)


def compact_model(bk=EXACT):
    return coframe_family(bk.rational(-3, 2), bk)


def split_model(bk=EXACT):
    return coframe_family(bk.rational(3, 2), bk)


# -- curvature -------------------------------------------------------------


def _horizontal_two_form(cs, k):
    """The 8x8 antisymmetric value matrix of (de^k) on the horizontal vectors."""
    bk = cs.bk
    M = zeros((8, 8), bk)
    for (i, j), v in cs.d[k].items():
        if i >= TH0 and j >= TH0:
            M[i - TH0, j - TH0] = v
            M[j - TH0, i - TH0] = -v
    return M


def curvature_tensor(cs):
    """R(x,y,z,w) on the horizontal space, fully lowered with g.

    The curvature operator is R(x,y) = sum_s dpsi^s(x,y) E_s
    + sum_s dphi^s(x,y) J_s / 2, with E_s the frame endomorphisms.
    """
    bk = cs.bk
    g = g8mat(bk)
    frames = script_e_frames(bk)
    J = jmats(bk)
    half = bk.rational(1, 2)
    R = zeros((8, 8, 8, 8), bk)
    for s in range(3):
        om_psi = _horizontal_two_form(cs, s)
        om_phi = _horizontal_two_form(cs, 3 + s)
        low_e = frames[s].T @ g
        low_j = (J[s] * half).T @ g
        R = R + np.multiply.outer(om_psi, low_e)
        R = R + np.multiply.outer(om_phi, low_j)
    return R


@lru_cache(maxsize=None)
def r0_tensor(bk=EXACT):
    """The normalized constant-curvature-type tensor R0:

    4 R0(x,y,z,w) = Q(x,y,z,w) - 2 sum_s om_s(x,y) om_s(z,w),

    with Q = g(x,w)g(y,z) - g(x,z)g(y,w)
             + sum_s (om_s(x,z) om_s(w,y) + om_s(x,w) om_s(y,z)).
    """
    out = q_tensor(bk)
    for om in omega_forms(bk):
        out = out - np.multiply.outer(om, om) * bk.rational(2)
    return frozen([out * bk.rational(1, 4)])[0]


def model_curvature_residual(cs):
    """R - (-h) * R0 - (-2h/3) * kappa(S_hat): zero for every closed member."""
    bk = cs.bk
    h = cs.h
    R = curvature_tensor(cs)
    K = kappa(s_hat(bk)).full8()
    return R + r0_tensor(bk) * h - K * (bk.rational(2, 3) * h)


def ricci(R, bk):
    """Ric(y, z) = sum_a R(h_a, y, z, h^a), using the null-basis flip."""
    M = zeros((8, 8), bk)
    for a in range(8):
        M = M + R[a, :, :, FLIP[a]]
    return M


def scalar_curvature(R, bk):
    ric = ricci(R, bk)
    s = bk.zero
    for b in range(8):
        s = s + ric[b, FLIP[b]]
    return s


def einstein_residual(R, bk):
    """Ric - (Scal/8) g, with the scalar curvature computed by tracing."""
    ric = ricci(R, bk)
    scal = scalar_curvature(R, bk)
    return ric - g8mat(bk) * (scal * bk.rational(1, 8))


def c_parameter(cs):
    """The constant C with (dphi^1)_{alpha alphabar} = -2iC."""
    bk = cs.bk
    v = cs.d[3].get((TH0, TH0 + 4), bk.zero)
    return v * (bk.i * bk.rational(1, 2))


def scalar_curvature_report(cs):
    """The traced scalar curvature together with two closed-form candidates.

    The R0 route -h Scal(R0) agrees with the trace.  The formula 128C/3 in
    the normalization constant C gives 2/3 of the trace (32 against 48 on
    the compact model); it is reported as a known deviation, not checked."""
    bk = cs.bk
    R = curvature_tensor(cs)
    C = c_parameter(cs)
    r0scal = scalar_curvature(r0_tensor(bk), bk)
    return {
        "trace": scalar_curvature(R, bk),
        "from_c_formula": C * bk.rational(128, 3),
        "from_r0_route": -(cs.h * r0scal),
    }


def traceless_part_residual(cs):
    """Ricci trace of R' = R + h R0 (the quartic part of the curvature)."""
    bk = cs.bk
    R = curvature_tensor(cs) + r0_tensor(bk) * cs.h
    return ricci(R, bk)
