"""The Lie algebra sp(2) in its two models, bracket, inner product, and dagger.

Elements are stored in the symmetric model: a 4x4 symmetric matrix X with
(jX) = X (the reality condition).  The endomorphism model is A = P X acting
on W, where P is the matrix of pi.  The canonical ordered basis is the ten
elementary symmetric matrices (alpha <= beta), called the sharp basis; its
dual with respect to the invariant inner product is built from the dollar
matrices, which are the pi-lowered sharps.
"""

from functools import lru_cache

import numpy as np

from .scalars import EXACT
from .tensors import (zeros, asarray, split, conj_arr, pmat, tol_scale, all_zero, jmap4,
                      frozen, tensordot, PROWS, psigns)
from . import linalg

PAIRS = [(a, b) for a in range(4) for b in range(a, 4)]  # 10 index pairs


def is_sp2_element(X, bk):
    scale = tol_scale(X, bk)
    sym_ok = all_zero(X - X.T, bk, scale=scale)
    real_ok = all_zero(X - jmap4(X, bk), bk, scale=scale)
    return sym_ok, real_ok


def check_sp2(X, bk):
    sym_ok, real_ok = is_sp2_element(X, bk)
    if not sym_ok:
        raise ValueError("sp(2) element must be symmetric: X != X^T")
    if not real_ok:
        raise ValueError("sp(2) element must satisfy the reality condition jX = X")


def to_endo(X, bk):
    """The endomorphism A of W with A^alpha_beta = pi^{alpha sigma} X_{sigma beta}."""
    return pmat(bk) @ X


def from_endo(A, bk):
    """Inverse of to_endo: X = -P A.  It validates nothing; check_sp2 does."""
    return -(pmat(bk) @ A)


def bracket(X, Y, bk=EXACT):
    """[X, Y]_{alpha beta} = pi^{sigma tau}(X_{alpha sigma}Y_{tau beta} + X_{beta sigma}Y_{tau alpha})."""
    M = X @ pmat(bk) @ Y
    return M + M.T


def inner(X, Y, bk=EXACT):
    """<X, Y> = pi^{alpha gamma} pi^{beta delta} X_{alpha beta} Y_{gamma delta}."""
    P = pmat(bk)
    return ((P.T @ X @ P) * Y).sum()


def endo_on_v(X, bk=EXACT):
    """The 8x8 matrix of an sp(2) element acting on V^C = W (+) Wbar."""
    A = to_endo(X, bk)
    M = zeros((8, 8), bk)
    M[:4, :4], M[4:, 4:] = A, conj_arr(A, bk)
    return M


@lru_cache(maxsize=None)
def sharp_basis(bk=EXACT):
    """The ten elementary symmetric matrices, ordered by PAIRS."""
    out = []
    for (a, b) in PAIRS:
        M = zeros((4, 4), bk)
        M[a, b] = M[b, a] = bk.one if a == b else bk.rational(1, 2)
        out.append(M)
    return frozen(out)


def dollar_matrix(a, b, bk=EXACT):
    """$_{ab}: the pi-lowered sharp, ($_{ab})_{mu nu} = (P[a,mu]P[b,nu] + P[a,nu]P[b,mu])/2."""
    P = pmat(bk)
    M = np.multiply.outer(P[a], P[b])
    M = (M + M.T) * bk.rational(1, 2)
    return M


@lru_cache(maxsize=None)
def dollar_basis(bk=EXACT):
    """The ten dollar matrices, stacked along the first axis in PAIRS order."""
    return frozen([np.stack([dollar_matrix(a, b, bk) for (a, b) in PAIRS])])[0]


@lru_cache(maxsize=None)
def sharp_dual_basis(bk=EXACT):
    """Duals of the sharp basis w.r.t. the inner product: $_{aa}, or 2 $_{ab} off the diagonal."""
    return frozen([dollar_matrix(a, b, bk) * bk.rational(1 if a == b else 2)
                   for (a, b) in PAIRS])


@lru_cache(maxsize=None)
def _coord_weights(bk):
    """(P^T X P)[a, b] = s_a s_b X[PROWS[a], PROWS[b]], s = psigns(bk): the
    sign of each dollar coordinate, doubled off the diagonal."""
    s = psigns(bk)
    return frozen([asarray([s[a] * s[b] * bk.rational(1 if a == b else 2)
                            for a, b in PAIRS], bk)])[0]


def dollar_coords(X, bk=EXACT):
    """Coordinates of X in the dollar basis, along a new first axis of
    length 10 (X may carry further axes after its two matrix slots): the
    entries (P^T X P)[a, b] over PAIRS, doubled off the diagonal."""
    rows, cols = ([PROWS[ab[k]] for ab in PAIRS] for k in (0, 1))
    return X[rows, cols] * _coord_weights(bk).reshape((10,) + (1,) * (X.ndim - 2))


def from_dollar_coords(v, bk=EXACT):
    """Inverse of dollar_coords: sum_k v[k] $_k.  Further axes of v follow
    the two matrix slots in the result."""
    return tensordot(dollar_basis(bk), v, ([0], [0]))


def endo_matrix(fun, bk=EXACT):
    """The 10x10 matrix, in the dollar basis, of a linear map on sp(2)(x)C."""
    return dollar_coords(np.stack([fun(D) for D in dollar_basis(bk)], axis=-1), bk)


@lru_cache(maxsize=None)
def structure_constants(bk=EXACT):
    """c[k, i, j] with [D_i, D_j] = sum_k c[k, i, j] D_k in the dollar basis,
    held split (tensors.split), so no contraction with it splits it again."""
    return split(np.stack([endo_matrix(lambda X, A=A: bracket(A, X, bk), bk)
                           for A in dollar_basis(bk)], axis=1), bk)


def ad(X, bk=EXACT):
    """The 10x10 matrix of [X, .] in the dollar basis: sum_i c[k, i, j] x_i,
    x = dollar_coords(X).  Further axes of X follow k, j in the result."""
    return asarray(tensordot(structure_constants(bk), dollar_coords(X, bk),
                             ([1], [0])), bk)


@lru_cache(maxsize=None)
def _dagger_kernel(bk):
    """Delta[k, a, b, j] = sum_s ad(E*_s)[k, a] ad(E_s)[b, j] over the
    sharp/dual pairs, so that dagger(L) = Delta contracted with L on (a, b)."""
    ad_dual, ad_sharp = (ad(np.stack(E, axis=-1), bk)
                         for E in (sharp_dual_basis(bk), sharp_basis(bk)))
    return split(tensordot(ad_dual, ad_sharp, ([2], [2])), bk)


def dagger(L, bk=EXACT):
    """(dagger L) X = sum_s [E*_s, L([E_s, X])] over the sharp/dual pairs,
    for a 10x10 matrix L in the dollar basis; the result is one too, the
    matrix sum_s ad(E*_s) L ad(E_s).

    >>> from cubicdisc.tensors import eye
    >>> bool((dagger(eye(10, EXACT)) == eye(10, EXACT) * EXACT.rational(-6)).all())
    True
    """
    return asarray(tensordot(_dagger_kernel(bk), L, ([1, 2], [0, 1])), bk)


@lru_cache(maxsize=None)
def real_basis(bk=EXACT):
    """Ten j-real symmetric matrices spanning the real form of sp(2)."""
    cands = []
    i = bk.i
    for B in sharp_basis(bk):
        jB = jmap4(B, bk)
        cands.append(B + jB)
        cands.append((B - jB) * i)
    # Select an independent subset over the reals: 16 entries, re and im.
    rows = [dict(enumerate(linalg.real_flat(C, bk))) for C in cands]
    elim = linalg.SparseEliminator(rows, 32, bk)
    chosen = [C for C, new in zip(cands, elim.independent) if new]
    if len(chosen) != 10:
        raise RuntimeError("failed to build a 10-dimensional real form basis")
    return frozen(chosen)


def endo_is_real(M, bk=EXACT):
    """Check that a 10x10 endomorphism maps the real form into itself."""
    for B in real_basis(bk):
        Y = from_dollar_coords(M @ dollar_coords(B, bk), bk)
        if not all_zero(Y - jmap4(Y, bk), bk, scale=tol_scale(Y, bk) + 1.0):
            return False
    return True
