"""Component arrays on V^C = W (+) Wbar, dim W = 4, and the structure
tensors of the adapted basis: pi, g, J_s, omega_s, pi pi and Q.

Index bookkeeping follows a fixed Sp(2)-adapted basis: e_{a+2} = j(e_a),
pi = e^1^e^3 + e^2^e^4, and g is the identity in mixed components.  Indices
run 1..4 in the documentation and 0..3 internally; arrays on W carry no
record of which slots are barred or raised, the caller keeps track.  The
full 8-dimensional tensors are reconstructed on demand (indices 0..3
unbarred, 4..7 barred).

Every array is built here, by `zeros` or `asarray`, in the backend's dtype:
object arrays of ExactScalar on exact, complex128 on float.  On complex128
the conjugate, the norms and `tensordot` are numpy's own.  On exact, `split`
gives a `scalars.ExactArray`: the contractions, `sym4`, `jmap4` and
`conj_arr` keep it, `frob` and `all_zero` read it, and `asarray` joins it
back into objects for callers that index, `@` or store.  `matmul`, the
dense matrix product, multiplies only nonzero pairs on exact; the Casimir
path multiplies dict rows instead (`linalg.row_product`).
"""

from functools import lru_cache

import numpy as np

from .scalars import EXACT, ExactArray


def zeros(shape, bk):
    return np.full(shape, bk.zero, dtype=bk.dtype)


def asarray(x, bk):
    """x (an array or nested lists of backend scalars) as an array of the
    backend's dtype; an array that already has it is returned as is.  This
    is the one join of an ExactArray back into ExactScalar objects."""
    return np.asarray(x, dtype=bk.dtype)


def split(A, bk):
    """A in the backend's split form, read-only: an ExactArray on exact, a
    complex128 copy on float."""
    return frozen([ExactArray.of(A) if bk.dtype is object else asarray(A, bk).copy()])[0]


def conj_arr(A, bk):
    return np.conj(A if isinstance(A, ExactArray) else asarray(A, bk))


def frob(A, bk):
    """Frobenius norm of an array of backend scalars, as a float; on exact,
    that of its split form (ExactArray.frob)."""
    A = A if isinstance(A, ExactArray) else asarray(A, bk)
    if A.dtype != object:
        return float(np.linalg.norm(A))
    return ExactArray.of(A).frob()


def tol_scale(A, bk):
    """frob(A) as the scale of a zero test, or 0.0 where tol = 0 (exact)."""
    return frob(A, bk) if bk.tol else 0.0


def all_zero(A, bk, scale=1.0):
    """Whether the array A is zero under the backend's policy (bk.all_zero)."""
    return bk.all_zero(A if isinstance(A, ExactArray) else asarray(A, bk), scale)


def tensordot(A, B, axes=2):
    """numpy.tensordot on either backend.  On exact, ExactArray.tensordot of
    the split operands: an ExactArray if either operand is one, else joined.

    >>> from cubicdisc.scalars import EXACT as bk
    >>> A = asarray([[bk.i, bk.one], [bk.zero, bk.sqrt3]], bk)
    >>> [[x.ints() for x in row] for row in tensordot(A, A, 1)]
    [[(-1, 0, 0, 0, 1), (0, 1, 1, 0, 1)], [(0, 0, 0, 0, 1), (3, 0, 0, 0, 1)]]
    """
    if A.dtype != object:
        return np.tensordot(A, B, axes)
    out = ExactArray.of(A).tensordot(B, axes)
    return out if ExactArray in (type(A), type(B)) else asarray(out, EXACT)


def matmul(A, B):
    """A @ B for two matrices.  On exact, row by row over the nonzeros only
    (Gustavson 1978): each row of B is read once as its (column, value)
    pairs, and A[i, k] * B[k, j] is formed only for nonzero A[i, k] and
    B[k, j].  Entries come out in normal form, every zero the shared zero.

    >>> from cubicdisc.scalars import EXACT as bk
    >>> A = asarray([[bk.i, bk.sqrt3], [bk.zero, bk.i]], bk)
    >>> C = matmul(A, A)
    >>> [[x.ints() for x in row] for row in C]
    [[(-1, 0, 0, 0, 1), (0, 0, 0, 2, 1)], [(0, 0, 0, 0, 1), (-1, 0, 0, 0, 1)]]
    >>> C[1, 0] is bk.zero
    True
    """
    if A.dtype != object:
        return A @ B
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in B.tolist()]
    out = zeros((A.shape[0], B.shape[1]), EXACT)
    for i, row in enumerate(A.tolist()):
        acc = [EXACT.zero] * B.shape[1]
        for a, nonzeros in zip(row, rows):
            if a:
                for j, b in nonzeros:
                    acc[j] = acc[j] + a * b
        out[i] = acc
    return out


def slot_contract(T, axis, M):
    """Contract axis `axis` of T with the first axis of matrix M.

    result[..., i, ...] = sum_j M[j, i] * T[..., j, ...], axis kept in place.
    """
    out = tensordot(T, M, axes=([axis], [0]))
    return np.moveaxis(out, -1, axis)


PROWS = [2, 3, 0, 1]     # column i of pmat has its one nonzero entry in row PROWS[i]


@lru_cache(maxsize=None)
def psigns(bk=EXACT):
    """Those entries P[PROWS[i], i] of pmat: (-1, -1, 1, 1)."""
    return frozen([asarray([-bk.one, -bk.one, bk.one, bk.one], bk)])[0]


def p_contract(T, axis, bk):
    """slot_contract(T, axis, pmat(bk)) with no sums: the slot reindexed by
    PROWS and multiplied by psigns."""
    shape = [4 if k == axis else 1 for k in range(T.ndim)]
    return np.take(T, PROWS, axis=axis) * psigns(bk).reshape(shape)


FLIP = [4, 5, 6, 7, 0, 1, 2, 3]


def frozen(arrays):
    """The arrays (or ExactArray planes) as a tuple, each marked read-only:
    what a cached function returns, so no caller changes a later one's."""
    for A in arrays:
        for u in (A.planes if isinstance(A, ExactArray) else (A,)):
            u.flags.writeable = False
    return tuple(arrays)


@lru_cache(maxsize=None)
def sym_index(rank):
    """For an array symmetric in `rank` slots of length 4: the flat places of
    its sorted index tuples, and at each index tuple the place of its sorted one.

    >>> first, place = sym_index(2)
    >>> first.tolist(), int(place[2, 1]), int(place[1, 2])
    ([0, 1, 2, 3, 5, 6, 7, 10, 11, 15], 5, 5)
    """
    flat = np.ravel_multi_index(np.sort(np.indices((4,) * rank), 0), (4,) * rank)
    first = np.flatnonzero(flat == np.arange(flat.size).reshape(flat.shape))
    return frozen((first, np.searchsorted(first, flat)))


@lru_cache(maxsize=None)
def pmat(bk=EXACT):
    """The matrix of pi_{alpha beta} in the adapted basis (0-based)."""
    P = zeros((4, 4), bk)
    P[PROWS, range(4)] = psigns(bk)
    P.flags.writeable = False
    return P


@lru_cache(maxsize=None)
def eye(n, bk=EXACT):
    M = zeros((n, n), bk)
    for k in range(n):
        M[k, k] = bk.one
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def g8mat(bk=EXACT):
    """The metric on V in the null basis (e_alpha, e_alphabar): g8 = [[0,I],[I,0]]."""
    G = zeros((8, 8), bk)
    for a in range(8):
        G[a, FLIP[a]] = bk.one
    G.flags.writeable = False
    return G


@lru_cache(maxsize=None)
def jmats(bk=EXACT):
    """The three complex structures J1, J2, J3 as 8x8 matrices on V^C."""
    P = pmat(bk)
    i = bk.i
    J1 = zeros((8, 8), bk)
    for a in range(4):
        J1[a, a] = i
        J1[a + 4, a + 4] = -i
    J2 = zeros((8, 8), bk)
    for a in range(4):
        for b in range(4):
            J2[a + 4, b] = -P[a, b]
            J2[a, b + 4] = -P[a, b]
    return frozen((J1, J2, J1 @ J2))


@lru_cache(maxsize=None)
def omega_forms(bk=EXACT):
    """The Kahler forms omega_s(x, y) = g(J_s x, y) as 8x8 matrices."""
    return frozen([J.T @ g8mat(bk) for J in jmats(bk)])


@lru_cache(maxsize=None)
def pp_tensor(bk=EXACT):
    """P[a,c] P[b,d] + P[a,d] P[b,c] at [a,b,c,d]: the pi pi term of the
    invariant quartic and of the quartic conditions."""
    PP = np.multiply.outer(pmat(bk), pmat(bk))    # P[a,c] P[b,d] at [a,c,b,d]
    out = np.transpose(PP, (0, 2, 1, 3)) + np.transpose(PP, (0, 2, 3, 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def q_tensor(bk=EXACT):
    """The tensor of R0 type, Q = 4 R0 + 2 sum_s omega_s (x) omega_s:

    Q(x,y,z,w) = g(x,w)g(y,z) - g(x,z)g(y,w)
                 + sum_s (omega_s(x,z) omega_s(w,y) + omega_s(x,w) omega_s(y,z)).
    """
    g = g8mat(bk)
    gg = np.multiply.outer(g, g)                  # g[x,w] g[y,z] at [x,w,y,z]
    Q = np.transpose(gg, (0, 2, 3, 1)) - np.transpose(gg, (0, 2, 1, 3))
    for om in omega_forms(bk):
        t = np.multiply.outer(om, om)
        Q = Q + np.transpose(t, (0, 3, 1, 2)) + np.transpose(t, (0, 2, 3, 1))
    Q.flags.writeable = False
    return Q


def sym4(S, bk):
    """Average an array of rank >= 4 over the 24 permutations of its first
    four slots; a rank-4 array comes out totally symmetric.

    The sum over S_4 is built one slot at a time: the identity and the
    transpositions (j k), j < k, are coset representatives of S_{k-1} in
    S_k, so sum_{S_k} = (1 + sum_{j<k} (j k)) sum_{S_{k-1}}.  That is 6
    array additions instead of 23, and the same sum.  On exact they run on
    the split form, joined back if S was an object array."""
    def coset_sum(total):
        for k in range(1, 4):
            part = total
            for j in range(k):
                perm = list(range(S.ndim))
                perm[j], perm[k] = k, j
                part = part + np.transpose(total, perm)
            total = part
        return total

    out = coset_sum(ExactArray.of(S) if S.dtype == object else S) * bk.rational(1, 24)
    return out if isinstance(S, ExactArray) else asarray(out, bk)


def jmap4(S, bk):
    """The j-map on a lower-index array of any rank: conjugate the
    components and contract every slot with P.  Applied twice it gives
    (-1)^rank times the input, since P P = -1."""
    out = conj_arr(S, bk)
    for axis in range(S.ndim):
        out = p_contract(out, axis, bk)
    return out


def is_totally_symmetric(S, bk):
    scale = tol_scale(S, bk)
    return all(all_zero(S - np.transpose(S, perm), bk, scale=scale)
               for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)))
