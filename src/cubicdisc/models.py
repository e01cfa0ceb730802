"""Left-invariant coframe models carrying the cubic discriminant curvature.

A CoframeSystem stores the exterior derivatives of a 14-dimensional coframe
(psi1..psi3, phi1..phi3, th1..th4, th1b..th4b) as one 14 x 14 x 14 array of
constant coefficients, whose negative is the Lie bracket.  A one-parameter
family, indexed by a real scalar h, has closed members exactly as dictated
by the differential constraints; h = -3/2 and h = 3/2 give the compact and
split models, h = 0 the flat one.

The module also computes the Jacobi residuals (d^2 = 0), the curvature on
the 8-dimensional horizontal space, Ricci and scalar curvature, and the
comparison with the invariant quartic.  Everything is read from d: the
curvature is -ad([X, Y]_h), the product of d's curvature blocks d[k < 6]
with its connection terms d[th, k < 6, th], and the structure equations are
written once, in `coframe_family`.
"""

import itertools
from functools import lru_cache

import numpy as np

from .scalars import EXACT
from .tensors import (zeros, asarray, matmul, tensordot, conj_arr, eye, pmat, g8mat,
                      omega_forms, q_tensor, frozen, FLIP)
from .irrep import rep_w, upsilons, s_hat
from .hk import kappa

N_FORMS = 14
LABELS = ["psi1", "psi2", "psi3", "phi1", "phi2", "phi3",
          "th1", "th2", "th3", "th4", "th1b", "th2b", "th3b", "th4b"]
TH0 = 6    # th_alpha = TH0 + alpha, thbar_alpha = TH0 + 4 + alpha
PAIRS = list(itertools.combinations(range(N_FORMS), 2))


def _wedge_index(n):
    """For 1-forms e^0..e^(n-1): the pairs a < b and the triples i < j < l in
    itertools order, and place[a, b], the place of (a, b) among the pairs."""
    a, b = np.array(list(itertools.combinations(range(n), 2))).T
    place = np.zeros((n, n), dtype=int)
    place[a, b] = range(len(a))
    return a, b, place, *np.array(list(itertools.combinations(range(n), 3))).T


def leibniz_sum(C, F):
    """The 3-forms sum_{m,n} C[k, m, n] F[m] ^ e^n, a row per k, on the triples
    i < j < l of N 1-forms: C is K x M x N and F[m, a, b, ...] holds M 2-forms,
    read on the pairs a < b, with any trailing axes carried along.  With the
    one product A[(k, n), (a, b)] = sum_m C[k, m, n] F[m, a, b], row k on
    (i, j, l) is A[(k,l),(i,j)] + A[(k,i),(j,l)] - A[(k,j),(i,l)]."""
    (K, M, N), rest = C.shape, F.shape[3:]
    a, b, place, i, j, l = _wedge_index(N)
    A = matmul(np.transpose(C, (0, 2, 1)).reshape(K * N, M), F[:, a, b].reshape(M, -1))
    A = A.reshape(K, N, len(a), *rest)
    return A[:, l, place[i, j]] + A[:, i, place[j, l]] - A[:, j, place[i, l]]


def _largest(A, bk):
    """The largest |entry| of A, 0.0 if every entry is zero."""
    return max((abs(bk.to_complex(v)) for v in A.ravel().tolist() if v), default=0.0)


class CoframeSystem:
    """Constant-coefficient exterior derivative on a fixed 14-coframe, held
    as one read-only array d[k, i, j] = (de^k)_ij, antisymmetric in (i, j):
    de^k = sum_{i<j} d[k, i, j] e^i ^ e^j.  Its negative is the array of
    structure constants, [v_i, v_j] = -sum_k d[k, i, j] v_k.

    `terms[k, i, j]` is the coefficient of e^i ^ e^j in de^k for every i, j,
    so a term and its reversal enter with opposite signs: d = terms - terms^T,
    written where either is nonzero.  The difference is added to the
    backend's zero, which on float clears the negative zero parts that a
    product such as i * h leaves (else C would print as 0.75-0j)."""

    def __init__(self, terms, bk=EXACT, h=None):
        self.bk = bk
        terms = asarray(terms, bk)
        k, i, j = np.nonzero(terms)
        k, i, j = np.concatenate([k, k]), np.concatenate([i, j]), np.concatenate([j, i])
        self.d = zeros(terms.shape, bk)
        self.d[k, i, j] = bk.zero + (terms[k, i, j] - terms[k, j, i])
        self.d.flags.writeable = False
        self.h = h
        self._jacobi = None
        self._curvature = None

    def closure_residual(self):
        """The largest |d(d e^k)| entry."""
        return _largest(self.jacobi_residual(), self.bk)

    def is_closed(self):
        """d^2 = 0 (the Jacobi identity): the one rule of the closure_* and
        jacobi_* checks.  Each entry of d(d e^k) is a sum of products of two
        coefficients, so it is judged zero at the scale max(1, c)^2, c the
        largest |coefficient|."""
        bk = self.bk
        scale = max(1.0, _largest(self.d, bk)) ** 2
        return all(bk.is_zero(v, scale)
                   for v in self.jacobi_residual().ravel().tolist() if v)

    def jacobi_residual(self):
        """The 364 x 14 array of d(d e^k): row t holds the coefficients on the
        t-th triple i < j < l of itertools.combinations, column k those of
        d(d e^k).  For constant coefficients d^2 = 0 is the Jacobi identity,
        and entry [t, k] is the k-th component of the Jacobi sum
        [[v_i, v_j], v_l] + cyclic.  By Leibniz, d(d e^k) = sum_{m,n}
        d[k, m, n] de^m ^ e^n, which is `leibniz_sum(d, d)`.  Computed on
        the first call and returned read-only."""
        if self._jacobi is None:
            self._jacobi = frozen([leibniz_sum(self.d, self.d).T])[0]
        return self._jacobi


def coframe_family(h, bk=EXACT):
    """The one-parameter family of coframe systems; h must be a real scalar
    of the backend (for example bk.rational(-3, 2)).  Each block below is
    one term of the structure equations, the coefficients of e^i ^ e^j of
    CoframeSystem; a block of pi on th ^ th or thb ^ thb names each pair
    twice, in both orders, so it carries half the coefficient.

    >>> cs = coframe_family(EXACT.rational(-3, 2))
    >>> bool(cs.d[0, 1, 2] == -1), bool(cs.d[0, 2, 1] == 1)   # dpsi^1 = -psi^2 ^ psi^3 + ...
    (True, True)
    """
    P = pmat(bk)
    i = bk.i
    half = bk.rational(1, 2)
    th, thb = slice(TH0, TH0 + 4), slice(TH0 + 4, N_FORMS)
    I4 = eye(4, bk)
    W = zeros((N_FORMS,) * 3, bk)

    # sp(1) (+) sp(1) part: dpsi^s = -psi^j ^ psi^k + ..., dphi^s likewise.
    for s, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        W[s, j, k] = W[3 + s, 3 + j, 3 + k] = -bk.one

    # Horizontal curvature terms, scaled by h.
    for s, U in enumerate(upsilons(bk)):
        W[s, th, thb] = (U @ P) * (bk.rational(-2, 3) * h)
    W[3, th, thb] = I4 * (i * h)
    W[4, th, th] = P * (h * half)
    W[4, thb, thb] = P * (bk.conj(h) * half)
    W[5, th, th] = P * (-(i * h) * half)
    W[5, thb, thb] = P * (bk.conj(-(i * h)) * half)

    # Horizontal coframe: connection terms, the same for every h.
    for s, E in enumerate(rep_w(bk)):
        W[th, s, th] = -E
        W[thb, s, thb] = -conj_arr(E, bk)
    W[th, 3, th] = I4 * -(i * half)
    W[thb, 3, thb] = I4 * (i * half)
    W[th, 4, thb] = W[thb, 4, th] = P * half
    W[th, 5, thb] = P * (i * half)
    W[thb, 5, th] = P * -(i * half)

    return CoframeSystem(W, bk, h=h)


def compact_model(bk=EXACT):
    return coframe_family(bk.rational(-3, 2), bk)


def split_model(bk=EXACT):
    return coframe_family(bk.rational(3, 2), bk)


# -- curvature -------------------------------------------------------------


def curvature_tensor(cs):
    """R(x,y,z,w) on the horizontal space, fully lowered with g, read from
    the brackets.  On a symmetric pair the curvature operator is
    R(x, y) = -ad([x, y]_h) on the horizontal space (Kobayashi and Nomizu,
    Foundations of Differential Geometry I, 1963, ch. XI; Helgason 1978,
    ch. IV 4).  Here [x, y]_h = -sum_{k<6} d[k, x, y] v_k and
    (ad v_k)^c_z = -d[TH0 + c, k, TH0 + z], so R is two contractions of d:

        R[x, y, z, w] = -sum_{k<6, c} d[k, x, y] d[TH0 + c, k, TH0 + z] g[c, w].

    The product is subtracted from the backend's zero, which on float keeps
    negative zeros out.  Computed once per coframe (its d is read-only) and
    held on it read-only.

    >>> bool((curvature_tensor(coframe_family(EXACT.zero)) == 0).all())
    True
    >>> curvature_tensor(compact_model())[0, 4, 0, 4]     # R(th1, th1b, th1, th1b)
    ExactScalar(3)
    """
    if cs._curvature is None:
        d = cs.d
        low = tensordot(d[TH0:, :6, TH0:], g8mat(cs.bk), ([0], [0]))    # [k, z, w]
        R = cs.bk.zero - tensordot(d[:6, TH0:, TH0:], low, ([0], [0]))
        cs._curvature = frozen([R])[0]
    return cs._curvature


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
    return cs.d[3, TH0, TH0 + 4] * (bk.i * bk.rational(1, 2))


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
