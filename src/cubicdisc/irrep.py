"""The irreducible sp(1) action on W = S^3(Delta) and everything built on it:
the representation matrices E_s, the symmetric Upsilon matrices, the quartic
S_hat, the classical cubic discriminant, the projection onto the sp(1)
span inside sp(2), the frame endomorphisms, and Casimir-based decomposition
of so(4) modules.
"""

import itertools
from functools import lru_cache

import numpy as np

from .scalars import EXACT
from .tensors import (zeros, asarray, conj_arr, pmat, eye, g8mat, jmats, tol_scale, pp_tensor,
                      all_zero, tensordot, matmul, jmap4, frozen, omega_forms, alt_index, FLIP)
from . import sp2
from . import linalg
from .linalg import sparse_rows, row_product, row_sum
from .hk import SymQuartic, quartic_action


@lru_cache(maxsize=None)
def rep_delta(bk=EXACT):
    """The standard sp(1) generators on Delta = C^2: [E1,E2] = E3 and cyclic."""
    h = bk.rational(1, 2)
    i = bk.i
    E1 = asarray([[-i * h, bk.zero], [bk.zero, i * h]], bk)
    E2 = asarray([[bk.zero, -h], [h, bk.zero]], bk)
    E3 = asarray([[bk.zero, i * h], [i * h, bk.zero]], bk)
    return frozen((E1, E2, E3))


def sym_cube_rep(M, bk=EXACT):
    """Induced Lie-algebra action of a 2x2 matrix on S^3(Delta).

    Computed functorially: the derivation action on cubic monomials in
    (d1, d2), converted to the orthonormal basis
    e1 = d1^3, e2 = sym(d1 d1 d2)/sqrt3, e3 = d2^3, e4 = -sym(d1 d2 d2)/sqrt3.
    """
    # Derivation on monomials m_k = d1^(3-k) d2^k:
    # X m_k = (3-k)(M00 m_k + M10 m_{k+1}) + k(M01 m_{k-1} + M11 m_k)
    A = zeros((4, 4), bk)
    for k in range(4):
        A[k, k] = A[k, k] + M[0, 0] * bk.rational(3 - k) + M[1, 1] * bk.rational(k)
        if k + 1 <= 3:
            A[k + 1, k] = A[k + 1, k] + M[1, 0] * bk.rational(3 - k)
        if k - 1 >= 0:
            A[k - 1, k] = A[k - 1, k] + M[0, 1] * bk.rational(k)
    # Basis change: columns of B are the hat-basis vectors in monomial coords.
    r3 = bk.sqrt3
    B = zeros((4, 4), bk)
    B[0, 0] = bk.one          # e1 = m0
    B[1, 1] = r3              # e2 = sym(d1 d1 d2)/sqrt3 = 3 m1 / sqrt3
    B[3, 2] = bk.one          # e3 = m3
    B[2, 3] = -r3             # e4 = -sym(d1 d2 d2)/sqrt3 = -3 m2 / sqrt3
    Binv = linalg.inverse(B, bk)
    return Binv @ A @ B


@lru_cache(maxsize=None)
def rep_w(bk=EXACT):
    """The three 4x4 generators E_s of the irreducible action on W."""
    return frozen([sym_cube_rep(M, bk) for M in rep_delta(bk)])


@lru_cache(maxsize=None)
def upsilons(bk=EXACT):
    """The symmetric matrices Upsilon_s with pi^{alpha sigma}(Upsilon_s)_{sigma beta} = (E_s)^alpha_beta."""
    return frozen([-(pmat(bk) @ Es) for Es in rep_w(bk)])   # P (-P) = Id


@lru_cache(maxsize=None)
def s_hat(bk=EXACT):
    """The invariant quartic: S_{abcd} = sum_s U_s[a,b] U_s[c,d] - (3/4)(P[a,c]P[b,d] + P[a,d]P[b,c])."""
    S = zeros((4, 4, 4, 4), bk)
    for U in upsilons(bk):
        S = S + np.multiply.outer(U, U)
    return SymQuartic(S - pp_tensor(bk) * bk.rational(3, 4), bk)


def classical_discriminant(a, b, c, d, bk=EXACT):
    """Dis(a,b,c,d) = 18abcd - 27 a^2 d^2 - 4 a c^3 - 4 b^3 d + b^2 c^2."""
    n = bk.rational
    return (n(18) * a * b * c * d - n(27) * a * a * d * d
            - n(4) * a * c * c * c - n(4) * b * b * b * d + b * b * c * c)


def substitution_residual(bk=EXACT):
    """The coefficient differences, monomial by monomial, between 3 * the
    S_hat-form under x1 = a, x2 = b/sqrt3, x3 = d, x4 = -c/sqrt3 and the
    classical discriminant: zero iff the polynomial identity holds."""
    S = s_hat(bk).S
    third = bk.rational(1, 3)
    scale_of = {
        0: ("a", bk.one),
        1: ("b", bk.sqrt3 * third),      # 1/sqrt3
        2: ("d", bk.one),
        3: ("c", -(bk.sqrt3 * third)),
    }
    lhs = {}
    for idx in itertools.product(range(4), repeat=4):
        v = S[idx]
        if not v:
            continue
        coef = v * bk.rational(3)
        key = [0, 0, 0, 0]  # exponents of a, b, c, d
        for i in idx:
            var, sc = scale_of[i]
            coef = coef * sc
            key["abcd".index(var)] += 1
        key = tuple(key)
        lhs[key] = lhs.get(key, bk.zero) + coef
    rhs = {
        (1, 1, 1, 1): bk.rational(18),
        (2, 0, 0, 2): bk.rational(-27),
        (1, 0, 3, 0): bk.rational(-4),
        (0, 3, 0, 1): bk.rational(-4),
        (0, 2, 2, 0): bk.one,
    }
    return asarray([lhs.get(k, bk.zero) - rhs.get(k, bk.zero)
                    for k in sorted(set(lhs) | set(rhs))], bk)


def upsilon_lemma_residuals(bk=EXACT):
    """Residual arrays of the seven structural identities of the Upsilon
    triple, as {identity: [arrays]}; each identity holds iff all its
    arrays vanish.

    1. each Upsilon_s is symmetric and j-real;
    2. <Upsilon_s, Upsilon_t> = 5 delta_st;
    3. the bracket closes: [Upsilon_i, Upsilon_j] = Upsilon_k (cyclic);
    4. the quartic is invariant under each Upsilon_s;
    5. sum_s Upsilon_s (x) Upsilon_s = S_hat + (3/4)(pi pi + pi pi);
    6. contracting S_hat twice with pi against Upsilon_s gives (7/2) Upsilon_s;
    7. sum_s Upsilon_s pi Upsilon_s = (15/4) pi.
    """
    P = pmat(bk)
    U = upsilons(bk)
    S = s_hat(bk).S
    out = {}

    out["symmetric_and_real"] = [r for Us in U
                                 for r in (Us - Us.T, Us - jmap4(Us, bk))]

    pairing = []
    for s in range(3):
        for t in range(3):
            v = sp2.inner(U[s], U[t], bk)
            if s == t:
                v = v - bk.rational(5)
            pairing.append(asarray([v], bk))
    out["pairing"] = pairing

    out["bracket"] = [sp2.bracket(U[i], U[j], bk) - U[k]
                      for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]

    out["invariance"] = [quartic_action(S, Us, bk) for Us in U]

    total = zeros((4, 4, 4, 4), bk)
    for Us in U:
        total = total + np.multiply.outer(Us, Us)
    out["sum_of_squares"] = [total - (S + pp_tensor(bk) * bk.rational(3, 4))]

    out["eigen_contraction"] = [
        tensordot(S, P.T @ Us @ P, axes=([2, 3], [0, 1])) - Us * bk.rational(7, 2)
        for Us in U]

    M = zeros((4, 4), bk)
    for Us in U:
        M = M + Us @ P @ Us
    out["pi_recovery"] = [M - P * bk.rational(15, 4)]
    return out


# -- projections inside sp(2) --------------------------------------------


def orth_projection(span, bk):
    """10x10 matrix (dollar basis) of the orthogonal projection onto a span
    of sp(2) elements, with respect to the invariant inner product:
    C (BC)^-1 B, where the columns of C are the dollar coordinates of the
    span and B[m, j] = <span_m, $_j>, so that BC is the Gram matrix."""
    C = sp2.dollar_coords(np.stack(span, axis=-1), bk)
    B = asarray([[sp2.inner(X, D, bk) for D in sp2.dollar_basis(bk)]
                 for X in span], bk)
    return matmul(matmul(C, linalg.inverse(matmul(B, C), bk)), B)


def proj_sp1ir(bk=EXACT):
    """P_hat = (1/5) sum_s Upsilon_s <Upsilon_s, .>, the projection onto the
    irreducible sp(1) inside sp(2)."""
    return orth_projection(list(upsilons(bk)), bk)


def reducible_rep(bk=EXACT):
    """The printed reducible (non-trivial on both factors) sp(1) action on W."""
    h = bk.rational(1, 2)
    i = bk.i
    z = bk.zero
    R1 = asarray([[z, z, h, z], [z, z, z, h], [-h, z, z, z], [z, -h, z, z]], bk)
    R2 = asarray([[z, z, i * h, z], [z, z, z, i * h], [i * h, z, z, z],
                  [z, i * h, z, z]], bk)
    R3 = asarray([[i * h, z, z, z], [z, i * h, z, z], [z, z, -i * h, z],
                  [z, z, z, -i * h]], bk)
    return (R1, R2, R3)


def trivial_factor_rep(bk=EXACT):
    """sp(1) acting by the standard representation on span(e1, e3), trivially
    on span(e2, e4)."""
    out = []
    for M in rep_delta(bk):
        R = zeros((4, 4), bk)
        for a, ia in enumerate((0, 2)):
            for b, ib in enumerate((0, 2)):
                R[ia, ib] = M[a, b]
        out.append(R)
    return tuple(out)


def projection_from_rep(rep, bk):
    """Orthogonal projection of sp(2) onto the span of a 3-generator subalgebra
    given by endomorphisms of W."""
    span = [sp2.from_endo(R, bk) for R in rep]
    return orth_projection(span, bk)


# -- frame endomorphisms --------------------------------------------------


@lru_cache(maxsize=None)
def script_e_frames(bk=EXACT):
    """The three 8x8 endomorphisms: E_s on W, its conjugate on Wbar."""
    out = []
    for Es in rep_w(bk):
        M = zeros((8, 8), bk)
        M[:4, :4] = Es
        M[4:, 4:] = conj_arr(Es, bk)
        out.append(M)
    return frozen(out)


def endo_inner(A, B, bk):
    """<A, B> = (1/2) A^a_b B^c_d g_{ac} g^{bd} on endomorphisms of V."""
    g = g8mat(bk)
    return ((A * (g @ B @ g)).sum()) * bk.rational(1, 2)


def lowered_2form(A, bk):
    """eps(x, y) = g(A x, y) as an 8x8 matrix: A^T g, a reindex, as g flips W and Wbar."""
    return A.T[:, FLIP]


def wedge2(a, b):
    """The wedge of two 2-forms (antisymmetric 8x8 arrays) on its 70 sorted
    4-tuples i < j < k < l (`tensors.alt_index(8, 4)`): the six (2, 2)
    shuffles a_ij b_kl - a_ik b_jl + a_il b_jk + a_jk b_il - a_jl b_ik + a_kl b_ij."""
    i, j, k, l = alt_index(8, 4)[0]
    return (a[i, j] * b[k, l] - a[i, k] * b[j, l] + a[i, l] * b[j, k]
            + a[j, k] * b[i, l] - a[j, l] * b[i, k] + a[k, l] * b[i, j])


def eps_wedge_residual(frames, bk):
    """sum_s eps_s ^ eps_s + (3/4) Omega, Omega = sum_s omega_s ^ omega_s, summed
    on 70 components v and read out once in full: [v, -v, 0] at alt_index(8, 4).

    >>> bool((eps_wedge_residual(script_e_frames(EXACT), EXACT) == 0).all())
    True
    >>> eps_wedge_residual([], EXACT)[0, 4, 1, 5] * EXACT.rational(4, 3)   # an entry of Omega
    ExactScalar(-2)
    """
    v = (sum(wedge2(e, e) for e in (lowered_2form(E, bk) for E in frames))
         + sum(wedge2(om, om) for om in omega_forms(bk)) * bk.rational(3, 4))
    return np.take(np.concatenate([v, -v, asarray([bk.zero], bk)]), alt_index(8, 4)[1])


# -- Casimir decomposition ------------------------------------------------


def _zero(rows, bk, scale=1.0):
    """all_zero on dict rows: their stored entries have the matrix's norm."""
    return all_zero([x for row in rows for x in row.values()], bk, scale)


def closes_as_sp1(gens, bk, scale):
    """[G_1, G_2] = G_3 and cyclic, for square matrices or their dict rows."""
    G = [sparse_rows(M) if isinstance(M, np.ndarray) else M for M in gens]
    return all(_zero(row_sum([row_product(G[i], G[j])],
                             [row_product(G[j], G[i]), G[k]]), bk, scale)
               for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))


class So4Module:
    """Carrier with commuting sp(1) x sp(1) actions given by two generator
    triples, each read once into dict rows {column: value} (`linalg`)."""

    def __init__(self, e_gens, h_gens, bk=EXACT):
        self.e_gens = tuple(e_gens)
        self.h_gens = tuple(h_gens)
        self.bk = bk
        self.dim = e_gens[0].shape[0]
        self.e_rows = [sparse_rows(E) for E in self.e_gens]
        self.h_rows = [sparse_rows(H) for H in self.h_gens]

    def check_closure(self):
        bk = self.bk
        scale = max(tol_scale(self.e_gens[0], bk), 1.0)
        if not closes_as_sp1(self.e_rows, bk, scale):
            raise ValueError("first factor generators do not close as sp(1)")
        hscale = max(tol_scale(self.h_gens[0], bk), 1.0)
        # A zero second factor (module_sp2) closes trivially; all_zero is the
        # backend's zero test, so an exact factor that underflows is checked.
        if not all(_zero(H, bk) for H in self.h_rows):
            if not closes_as_sp1(self.h_rows, bk, hscale):
                raise ValueError("second factor generators do not close as sp(1)")
        for E in self.e_rows:
            for H in self.h_rows:
                if not _zero(row_sum([row_product(E, H)], [row_product(H, E)]),
                             bk, scale + hscale):
                    raise ValueError("the two sp(1) factors do not commute")

    def casimirs(self):
        """CE = sum_s E_s^2 and CH = sum_s H_s^2, in dict rows."""
        return [row_sum([row_product(G, G) for G in gens])
                for gens in (self.e_rows, self.h_rows)]


def casimir_eigenvalue(k, bk):
    """Casimir value on S^k of the defining sp(1) normalization: -k(k+2)/4.

    Calibrated on the known carrier V = S^3 E (x) H, where
    sum_s script_E_s^2 = -(15/4) Id and sum_s (J_s/2)^2 = -(3/4) Id.
    """
    return bk.rational(-k * (k + 2), 4)


def casimir_decompose(module, kmax, lmax):
    """Multiplicity table {(k, l): multiplicity} of S^k E (x) S^l H summands.
    The stacked 2n x n system is ranked only where CE and CH both have the
    eigenvalue; each shifted Casimir is ranked once on its own."""
    module.check_closure()
    bk = module.bk
    n = module.dim

    def shifted(C, m):
        c = -casimir_eigenvalue(m, bk)      # C - eigenvalue * Id
        return [{**row, i: row[i] + c if i in row else c} for i, row in enumerate(C)]

    CE, CH = module.casimirs()
    se = {k: shifted(CE, k) for k in range(kmax + 1)}
    sh = {l: shifted(CH, l) for l in range(lmax + 1)}
    ks = [k for k in se if linalg.rank(se[k], bk) < n]
    ls = [l for l in sh if linalg.rank(sh[l], bk) < n]
    table = {}
    covered = 0
    for k in ks:
        for l in ls:
            d = n - linalg.rank(se[k] + sh[l], bk)
            if d:
                mult, rem = divmod(d, (k + 1) * (l + 1))
                if rem:
                    raise ValueError("eigenspace dimension %d is not a multiple "
                                     "of (k+1)(l+1) for (k,l)=(%d,%d)" % (d, k, l))
                table[(k, l)] = mult
                covered += d
    if covered != n:
        raise ValueError("Casimir decomposition covers %d of %d dimensions"
                         % (covered, n))
    return table


def module_v(bk=EXACT):
    """V^C with the irreducible so(4) action: S^3 E (x) H."""
    return So4Module(script_e_frames(bk), [Js * bk.rational(1, 2) for Js in jmats(bk)], bk)


@lru_cache(maxsize=None)
def ad_upsilon_matrices(bk=EXACT):
    """ad(Upsilon_s) acting on sp(2) in the dollar basis (10x10)."""
    return frozen([sp2.ad(U, bk) for U in upsilons(bk)])


def module_sp2(bk=EXACT):
    """sp(2) as a module over sp(1)_ir (x) trivial."""
    return So4Module(ad_upsilon_matrices(bk), [zeros((10, 10), bk)] * 3, bk)


def upsilon_perp_basis(bk=EXACT):
    """Basis (dollar coordinates) of the orthogonal complement of the
    Upsilon span inside sp(2) (x) C; 7-dimensional."""
    return linalg.nullspace([[sp2.inner(U, D, bk) for D in sp2.dollar_basis(bk)]
                             for U in upsilons(bk)], bk)


def module_56(bk=EXACT):
    """V^C tensor (sp(1)_ir-complement in S^2 W*): the 56-dimensional torsion carrier."""
    # The columns of B (10 x 7) span the complement.
    B = asarray(upsilon_perp_basis(bk), bk).T
    # Restrict ad(Upsilon_s) to the complement: solve B * M_s = ad_s * B,
    # for the three s at once.
    M = linalg.solve(B, np.hstack([matmul(A, B) for A in ad_upsilon_matrices(bk)]), bk)
    restricted = [M[:, 7 * s:7 * s + 7] for s in range(3)]
    Ev = script_e_frames(bk)
    J = jmats(bk)
    I8 = eye(8, bk)
    I7 = eye(7, bk)
    e_gens = [np.kron(Ev[s], I7) + np.kron(I8, restricted[s]) for s in range(3)]
    h_gens = [np.kron(J[s] * bk.rational(1, 2), I7) for s in range(3)]
    return So4Module(e_gens, h_gens, bk)
