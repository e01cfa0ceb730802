"""Recognition and geometry of the cubic discriminant orbit.

Two equivalent predicates decide whether a hyper-Kahler curvature type tensor
K lies on the orbit of the reference quartic: an operator-level one built
from T_K (characteristic identity plus a bracket compatibility condition),
and a coordinate-level one phrased directly on the quartic S = kappa_inv(K).
The module also computes stabilizer and orbit dimensions, Cayley-type group
elements for moving along the orbit, and reconstruction of K from a frame
triple of endomorphisms.
"""

from functools import lru_cache
import itertools
import random

import numpy as np

from .scalars import EXACT
from .tensors import (zeros, conj_arr, pmat, eye, g8mat, jmats, frob, tol_scale,
                      all_zero, slot_contract, p_contract, split, tensordot, sym4,
                      jmap4, q_tensor, pp_tensor, frozen, sym_index)
from . import sp2
from . import linalg
from . import irrep
# t_k_apply is re-exported for callers that reach it as orbit.t_k_apply.
from .hk import (HKTensor, SymQuartic, kappa, kappa_inv, t_k, t_k_apply,  # noqa: F401
                 action_rows)


class CdReport:
    """Outcome of a cubic discriminant test: overall verdict plus residual norms."""

    def __init__(self, verdict, residuals):
        self.verdict = verdict
        self.residuals = dict(residuals)

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return "CdReport(verdict=%r, residuals=%r)" % (self.verdict, self.residuals)


def is_cd_theorem(K):
    """Operator-level test: (2T - 7)(2T + 3) = 0 and the bracket condition

    [T A, T B] - T[T A, B] = (3/2)(T[A, B] - [A, T B])  for all A, B in sp(2).
    """
    bk = K.bk
    T = split(t_k(K), bk)
    I = eye(T.shape[0], bk)
    two = bk.rational(2)
    char = tensordot(T * two - I * bk.rational(7), T * two + I * bk.rational(3), 1)
    res = bracket_residual(T, bk)
    scale = tol_scale(T, bk) ** 2
    return CdReport(all_zero(char, bk, scale=scale) and all_zero(res, bk, scale=scale),
                    {"characteristic": frob(char, bk),
                     "bracket_condition": frob(res, bk)})


def bracket_residual(T, bk):
    """The bracket condition at [k, i, j], A = D_i, B = D_j, as one commutator:
    [(T + 3/2) A, T B] - T[(T + 3/2) A, B] = W T - (T W)^t, W[k, n, i] =
    [(T + 3/2) D_i, D_n]_k, one contraction of the structure constants c."""
    c = sp2.structure_constants(bk)
    W = tensordot(c, T + eye(T.shape[0], bk) * bk.rational(3, 2), axes=([1], [0]))
    TW = tensordot(T, W, axes=([1], [0]))
    return tensordot(W, T, axes=([1], [0])) - np.transpose(TW, (0, 2, 1))


@lru_cache(maxsize=None)
def _compact_terms(bk):
    """The S-free parts of the quartic conditions on sorted indices: the
    (21/8) P P term at [(a,b), (c,d)]; E with (3/4) S.P = S[a,b,c,x] E[x,d,(m,n)];
    and for k = 0..3 the row of X[(a,b,c), d] at each (a,b,c,d), d from slot k."""
    pairs = sym_index(2)[0]
    dP = np.multiply.outer(eye(4, bk), pmat(bk))        # delta[x,m] P[n,d]
    two = np.transpose(dP, (0, 3, 1, 2)) + np.transpose(dP, (0, 3, 2, 1))
    rows = sym_index(3)[1][..., None] * 4 + np.arange(4)
    return (split(pp_tensor(bk).reshape(16, 16)[np.ix_(pairs, pairs)] * bk.rational(21, 8), bk),
            split(two.reshape(4, 4, 16)[:, :, pairs] * bk.rational(3, 4), bk),
            frozen([np.stack([np.moveaxis(rows, 3, k).reshape(-1)[sym_index(4)[0]]
                              for k in range(4)])])[0])


def cd_condition_one_residual(S, bk):
    """sum_{tau nu} U[tau,nu,a,b] S[tau,nu,c,d] - 2 S_{abcd}
       - (21/8)(P[a,c]P[b,d] + P[a,d]P[b,c]),
    where U[t,n,a,b] = P[s,t] P[m,n] S[s,m,a,b]; computed on sorted pairs."""
    pairs, place = sym_index(2)
    Sp = np.take(np.reshape(S, (4, 4, 16)), pairs, axis=2)
    U = p_contract(p_contract(Sp, 0, bk), 1, bk)
    rhs = np.take(np.reshape(Sp, (16, 10)), pairs, axis=0) * bk.rational(2)
    R = tensordot(U, Sp, axes=([0, 1], [0, 1])) - rhs - _compact_terms(bk)[0]
    return np.take(R, np.add.outer(place * 10, place))


def cd_condition_two_residual(S, bk):
    """Sym_{abcd}( pi^{st} S_{sabc} S_{tdmn} + (3/4) S_{abcm} pi_{nd}
                  + (3/4) S_{abcn} pi_{md} ),
    computed on sorted indices: the summand X is symmetric in (a,b,c) and in
    (m,n), and Sym of it is the average over which index is in the slot of d."""
    Sp = np.take(np.reshape(S, (4, 4, 16)), sym_index(2)[0], axis=2)
    S3 = np.take(np.reshape(S, (64, 4)), sym_index(3)[0], axis=0)
    _, E, rows = _compact_terms(bk)
    X = np.reshape(tensordot(S3, E - p_contract(Sp, 0, bk), 1), (80, 10))
    a, b, c, d = (np.take(X, r, axis=0) for r in rows)
    outer = np.add.outer(sym_index(4)[1] * 10, sym_index(2)[1])
    return np.take((a + b + c + d) * bk.rational(1, 4), outer)


def is_cd_coordinates(K):
    """Coordinate-level test on the quartic S = kappa_inv(K)."""
    bk, arr = K.bk, kappa_inv(K).split
    scale = tol_scale(arr, bk) ** 2
    r1 = cd_condition_one_residual(arr, bk)
    r2 = cd_condition_two_residual(arr, bk)
    ok = all_zero(r1, bk, scale=scale) and all_zero(r2, bk, scale=scale)
    return CdReport(ok, {"contraction": frob(r1, bk), "symmetrized": frob(r2, bk)})


# -- stabilizer and orbit dimension ---------------------------------------


def stabilizer(S):
    """Stabilizer of a SymQuartic inside the real form of sp(2).

    Returns (dimension, basis) where the basis elements are symmetric-model
    matrices spanning the annihilator of the action.
    """
    bk = S.bk
    # Stabilizer coefficients are the nullspace of the action matrix, whose
    # columns are the ten generators' rows.
    null = linalg.nullspace(list(zip(*action_rows(S.S, bk))), bk)
    stab = []
    for v in null:
        X = zeros((4, 4), bk)
        for c, B in zip(v, sp2.real_basis(bk)):
            X = X + B * bk.re(c)
        stab.append(X)
    return len(null), stab


def span_rank(elements, bk):
    """Rank over the reals of a list of sp(2) elements (dollar coordinates)."""
    rows = [linalg.real_flat(sp2.dollar_coords(X, bk), bk) for X in elements]
    return linalg.rank(rows, bk)


def orbit_dimension(K):
    """Dimension of the sp(2) (+) sp(1) orbit through K, as the rank of the
    sp(2) action on the quartic kappa_inv(K).

    The three sp(1) generators J_s are left out because they annihilate
    every K of HK curvature type (kappa_inv validates that K is one), so
    they add nothing to the rank.  The sp(2) part may be taken on the
    quartic because kappa intertwines the sp(2) actions on quartics and on
    curvature tensors.
    """
    S = kappa_inv(K)
    return linalg.rank(action_rows(S.S, S.bk), S.bk)


# -- moving along the orbit ----------------------------------------------


def cayley_sp2(X, bk=EXACT):
    """Cayley transform of an sp(2) element: M = (I - PX)(I + PX)^{-1}.

    The result is a group element of Sp(2) acting on W; raises ValueError
    when I + PX is singular.
    """
    sp2.check_sp2(X, bk)
    A = pmat(bk) @ X
    I = eye(4, bk)
    M = (I - A) @ linalg.inverse(I + A, bk)
    return M


def check_group_element(M, bk):
    """M preserves pi (M^T P M = P) and the quaternionic structure
    (conj(M) = -P M P)."""
    P = pmat(bk)
    s = tol_scale(M, bk) ** 2
    sympl = all_zero(M.T @ P @ M - P, bk, scale=s)
    quat = all_zero(conj_arr(M, bk) + P @ M @ P, bk, scale=s)
    return sympl and quat


def transport_quartic(S, M):
    """Pullback of a SymQuartic along a group element M (right action)."""
    out = S.split
    for axis in range(4):
        out = slot_contract(out, axis, M)
    return SymQuartic(out, S.bk)


def transport_hk(K, M):
    """Transport of a hyper-Kahler curvature type tensor along M in Sp(2)."""
    return kappa(transport_quartic(kappa_inv(K), M))


# -- reconstruction from frames -------------------------------------------


def _check_frames(frames, bk, scale):
    g = g8mat(bk)
    J = jmats(bk)
    for E in frames:
        low = E.T @ g
        if not all_zero(low + low.T, bk, scale=scale):
            raise ValueError("frame endomorphism is not skew with respect to g")
        for Js in J:
            if not all_zero(E @ Js - Js @ E, bk, scale=scale):
                raise ValueError("frame endomorphism does not commute with the "
                                 "hypercomplex structure")


def k_from_frames(frames, bk=EXACT):
    """Build the curvature type tensor determined by a frame triple.

    K(x,y,z,w) = sum_s eps_s(x,y) eps_s(z,w)
                 + (3/8)(g(x,w)g(y,z) - g(x,z)g(y,w))
                 + (3/8) sum_s (omega_s(x,z) omega_s(w,y) + omega_s(x,w) omega_s(y,z))

    with eps_s(x,y) = g(E_s x, y).  Returns (verdict, K): the verdict is the
    sp(1) closure of the triple together with the frame normalization test
    sum_s eps_s ^ eps_s = -(3/4) Omega, and K is None when it fails.
    The g and omega terms are (3/8) Q, with Q = tensors.q_tensor.
    """
    scale = max(max(tol_scale(E, bk) for E in frames) ** 2, 1.0)
    _check_frames(frames, bk, scale)
    if not irrep.closes_as_sp1(frames, bk, scale):
        return False, None
    if not all_zero(irrep.eps_wedge_residual(frames, bk), bk, scale=scale):
        return False, None

    f = q_tensor(bk) * bk.rational(3, 8)
    for E in frames:
        e = irrep.lowered_2form(E, bk)
        f = f + np.multiply.outer(e, e)
    Kmix = f[np.ix_(range(4), range(4, 8), range(4), range(4, 8))]
    K = HKTensor(Kmix, bk)
    K.validate()
    return True, K


# -- random elements -------------------------------------------------------


def random_quartic(seed, bk=EXACT):
    """A random symmetric j-real quartic (seeded), averaged from integer
    components in [-3, 3]."""
    rng = random.Random(seed)
    S = zeros((4, 4, 4, 4), bk)
    for idx in itertools.product(range(4), repeat=4):
        S[idx] = bk.scalar(*(rng.randint(-3, 3) for _ in range(4)))
    S = sym4(S, bk)
    S = (S + jmap4(S, bk)) * bk.rational(1, 2)
    return SymQuartic(S, bk)


def random_sp2(seed, bk=EXACT):
    """A random element of the real form of sp(2), with integer coordinates
    in [-3, 3] on the real basis."""
    rng = random.Random(seed)
    X = zeros((4, 4), bk)
    for B in sp2.real_basis(bk):
        X = X + B * bk.rational(rng.randint(-3, 3))
    return X
