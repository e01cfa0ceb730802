"""Hyper-Kahler curvature type tensors: the maps kappa and kappa_inv, the
operator T_K, reconstruction of K from an endomorphism with dagger L = 2L,
the tangent-space operator H, and the two double-contraction identities.

A SymQuartic is a totally symmetric j-real rank-4 array S_{alpha beta gamma
delta}.  An HKTensor stores only the mixed components K_{alpha betabar gamma
deltabar}; the full tensor on the 8-dimensional space is reconstructed from
the pair antisymmetries and reality.
"""

from functools import cached_property

import numpy as np

from .scalars import EXACT
from .tensors import (zeros, asarray, split, frob, tol_scale, all_zero, slot_contract,
                      p_contract, tensordot, jmap4, is_totally_symmetric, FLIP, g8mat,
                      jmats, omega_forms, q_tensor, frozen, eye)
from . import sp2
from . import linalg


class SymQuartic:
    """Totally symmetric, j-real rank-4 tensor S_{alpha beta gamma delta},
    held in split form; the component array S is joined on the first read."""

    def __init__(self, S, bk=EXACT):
        self.bk = bk
        self.split = split(S, bk)
        self.validate()

    @cached_property
    def S(self):
        return frozen([asarray(self.split, self.bk)])[0]

    def validate(self):
        S, bk = self.split, self.bk
        if not is_totally_symmetric(S, bk):
            raise ValueError("quartic is not totally symmetric")
        if not all_zero(S - jmap4(S, bk), bk, scale=tol_scale(S, bk)):
            raise ValueError("quartic violates the j-reality condition")

    def __eq__(self, other):
        return all_zero(self.split - other.split, self.bk,
                        scale=sum(tol_scale(x.split, x.bk) for x in (self, other)))


def _kappa_core(S, bk):
    """T[a,b,c,d] = sum_{s,t} S[a,s,c,t] P[s,b] P[t,d]; self-inverse coordinate form."""
    return p_contract(p_contract(S, 1, bk), 3, bk)


def kappa(S):
    """The isomorphism from symmetric quartics to HK curvature type tensors."""
    return HKTensor(_kappa_core(S.split, S.bk), S.bk)


def kappa_inv(K):
    """Inverse of kappa; output is validated totally symmetric and j-real."""
    return SymQuartic(_kappa_core(K.split, K.bk), K.bk)


class HKTensor:
    """Hyper-Kahler curvature type tensor: mixed components, split as in SymQuartic."""

    def __init__(self, Kmix, bk=EXACT):
        self.bk = bk
        self.split = split(Kmix, bk)
        self._full8 = None

    @cached_property
    def Kmix(self):
        return frozen([asarray(self.split, self.bk)])[0]

    def quartic(self):
        return kappa_inv(self)

    def validate(self):
        """K is of HK curvature type iff kappa_inv(K) is symmetric and j-real."""
        self.quartic()

    __eq__ = SymQuartic.__eq__

    def full8(self):
        """Dense components on V^C: indices 0..3 unbarred (u), 4..7 barred (b).
        The half written from Kmix is kept: f[u,b,u,b] = K, its pair
        antisymmetries give the [b,u,u,b], [u,b,b,u] and [b,u,b,u] blocks,
        and the other 12 blocks are zero.  The conjugate half (conj K on the
        flipped blocks) names the same entries and is not written."""
        if self._full8 is not None:
            return self._full8
        K = self.Kmix
        u, b = slice(0, 4), slice(4, 8)
        f = zeros((8, 8, 8, 8), self.bk)
        f[u, b, u, b] = K
        f[b, u, u, b] = -np.transpose(K, (1, 0, 2, 3))
        f[u, b, b, u] = -np.transpose(K, (0, 1, 3, 2))
        f[b, u, b, u] = np.transpose(K, (1, 0, 3, 2))
        f.flags.writeable = False
        self._full8 = f
        return f

    # -- structural checks on the full tensor -----------------------------

    def bianchi_residual(self):
        f = self.full8()
        return f + np.transpose(f, (1, 2, 0, 3)) + np.transpose(f, (2, 0, 1, 3))

    def j_invariance_residual(self, s):
        """K(x, y, J_s z, J_s w) - K(x, y, z, w)."""
        J = jmats(self.bk)[s]
        f = self.full8()
        out = slot_contract(f, 2, J)
        out = slot_contract(out, 3, J)
        return out - f

    def pair_symmetry_residual(self):
        f = self.full8()
        return f - np.transpose(f, (2, 3, 0, 1))


def t_k_apply(K, X):
    """T_K in the symmetric model: X'_{ab} = K_{a sbar b tbar} X^{sbar tbar}."""
    return asarray(tensordot(K.split, X, axes=([1, 3], [0, 1])), K.bk)


def t_k(K):
    """The 10x10 matrix of T_K in the dollar basis of sp(2)."""
    bk = K.bk
    return sp2.endo_matrix(lambda X: t_k_apply(K, X), bk)


def t_k_matrix_from_quartic(S, bk):
    """Alternative coordinate form: the value matrix of T_K($_{ab}) is S[a,b,:,:]."""
    return sp2.dollar_coords(np.stack([S[a, b] for a, b in sp2.PAIRS], axis=-1), bk)


def t_k_from_orthonormal_sum(K, X):
    """T_K via the orthonormal-basis definition, for cross-checking.

    g(T_K(A)x, y) = (1/2) sum_a K(x, y, h_a, A h_a), implemented as a
    g-contraction (no literal real basis is chosen).  Returns the lowered
    matrix g(T_K(A) x, y) on V^C.
    """
    bk = K.bk
    A8 = sp2.endo_on_v(X, bk)
    f = K.full8()
    # sum_a sum_c f[x, y, a, c] * A8[c, flip(a)]
    Af = A8[:, FLIP]                    # Af[c, a] = A8[c, flip(a)]
    M = tensordot(f, Af, axes=([2, 3], [1, 0]))
    return M * bk.rational(1, 2)


def eigen_multiplicity(T, lam, bk):
    """Multiplicity of the eigenvalue lam of a 10x10 matrix, via nullspace rank."""
    M = T - eye(T.shape[0], bk) * lam
    return T.shape[0] - linalg.rank([linalg.real_flat(row, bk) for row in M], bk)


def dagger_residual(L, bk):
    """Residual of the characterization dagger(L) = 2 L."""
    return sp2.dagger(L, bk) - L * bk.rational(2)


def hk_from_endo(L, bk=EXACT):
    """Reconstruct K with T_K = L from an endomorphism satisfying dagger L = 2L."""
    res = dagger_residual(L, bk)
    if not all_zero(res, bk, scale=tol_scale(L, bk) + 1.0):
        raise ValueError(
            "dagger L != 2L (residual norm %.3e); no HK tensor corresponds to L"
            % frob(res, bk))
    if not sp2.endo_is_real(L, bk):
        raise ValueError("endomorphism does not preserve the real form of sp(2)")
    X = sp2.from_dollar_coords(L, bk)        # X[:, :, k] = L($_k)
    S = zeros((4, 4, 4, 4), bk)
    for k, (a, b) in enumerate(sp2.PAIRS):
        S[:, :, a, b] = S[:, :, b, a] = X[:, :, k]
    quart = SymQuartic(S, bk)  # validates symmetry and j-reality
    K = kappa(quart)
    return K


# -- tangent space of the orbit ------------------------------------------


def lie_derivative_full8(f, U8, bk):
    """(L_U K)(x,y,z,w) = K(Ux,y,z,w) + K(x,Uy,z,w) + K(x,y,Uz,w) + K(x,y,z,Uw)."""
    out = zeros(f.shape, bk)
    for axis in range(4):
        out = out + slot_contract(f, axis, U8)
    return out


def quartic_action(S, X, bk):
    """Lie derivative of a lower-index quartic along the sp(2) element X."""
    return lie_derivative_full8(S, sp2.to_endo(X, bk), bk)


def action_rows(S, bk):
    """One real row per real-form generator X: the flattened action X.S,
    its 256 complex components split into 512 real ones."""
    return [linalg.real_flat(quartic_action(S, X, bk), bk) for X in sp2.real_basis(bk)]


def solve_generator(K, L, bk):
    """Find U in sp(2) with L = (Lie derivative of K along U); error if none.

    Solved on the quartics, since kappa intertwines the sp(2) actions:
    U.kappa_inv(K) = kappa_inv(L), 256 complex equations.  kappa_inv(L) is
    not validated, so an L of another type is rejected as not tangent."""
    cols = action_rows(asarray(_kappa_core(K.split, bk), bk), bk)
    try:
        coeffs = linalg.solve(list(zip(*cols)),
                              linalg.real_flat(_kappa_core(L.split, bk), bk), bk)
    except ValueError:
        raise ValueError("L is not tangent to the orbit at K (no generator U exists)")
    U = zeros((4, 4), bk)
    for c, X in zip(coeffs, sp2.real_basis(bk)):
        U = U + X * c
    return U


def tangent_H(K, L):
    """The sp(2)-valued operator H attached to a tangent vector L at K.

    H = (1/5)((7/2) U - T_K(U)) where U, solved for, generates L.  K must
    lie on the orbit (is_cd_theorem), else ValueError.
    """
    bk = K.bk
    from .orbit import is_cd_theorem
    if not is_cd_theorem(K).verdict:
        raise ValueError("K is not a cubic discriminant; tangent_H undefined")
    U = solve_generator(K, L, bk)
    TU = t_k_apply(K, U)
    H = (U * bk.rational(7, 2) - TU) * bk.rational(1, 5)
    return H


def tangent_H_from_contraction(K, L, bk):
    """g(Hx, y) via the 1/120 double-contraction formula, as an 8x8 matrix."""
    f = K.full8()
    Lf = L.full8()
    fl = FLIP
    Kf = f[np.ix_(range(8), fl, fl, fl)]
    M = tensordot(Lf, Kf, axes=([1, 2, 3], [1, 2, 3]))
    return (M - M.T) * bk.rational(1, 120)


# -- double contraction identities ---------------------------------------


def contr_kxk_1_residual(K):
    """sum_{ab} K(x,y,h_a,h_b) K(z,w,h_a,h_b) - 4K(x,y,z,w) + (21/8) Q(x,y,z,w),
    with Q the tensor of R0 type (tensors.q_tensor)."""
    bk = K.bk
    f = K.full8()
    ff = f[:, :, FLIP][:, :, :, FLIP]
    lhs = tensordot(f, ff, axes=([2, 3], [2, 3]))  # [x,y,z,w]
    return lhs - f * bk.rational(4) + q_tensor(bk) * bk.rational(21, 8)


def contr_kxk_2_residual(K):
    """sum_{ab} K(x,h_a,h_b,y) K(z,h_a,h_b,w)
       - 2K(x,z,y,w) - (21/8) g(x,z)g(y,w) - (21/16) g(x,w)g(y,z)
       + (21/16) sum_s g(I_s x, w) g(I_s y, z)."""
    bk = K.bk
    f = K.full8()
    g = g8mat(bk)
    ff = f[:, FLIP][:, :, FLIP]
    lhs = tensordot(f, ff, axes=([1, 2], [1, 2]))  # [x,y,z,w]
    fK = np.transpose(f, (0, 2, 1, 3))  # K(x,z,y,w) at [x,y,z,w]
    rhs = fK * bk.rational(2)
    gterm = np.multiply.outer(g, g)
    rhs = rhs + np.transpose(gterm, (0, 2, 1, 3)) * bk.rational(21, 8)
    rhs = rhs + np.transpose(gterm, (0, 2, 3, 1)) * bk.rational(21, 16)
    for G in omega_forms(bk):
        t = np.multiply.outer(G, G)  # G[x,w] G[y,z]
        rhs = rhs - np.transpose(t, (0, 2, 3, 1)) * bk.rational(21, 16)
    return lhs - rhs
