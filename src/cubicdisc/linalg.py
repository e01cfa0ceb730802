"""Gaussian elimination over a scalar backend.

One engine, `SparseEliminator`, does every elimination: `rank`, `nullspace`,
`solve`, `inverse` and `rref` hand it their rows and read off the result.
Rows are dicts {column: scalar}; right-hand sides sit in the columns at or
past `ncols`, which never become pivots.  The pivot of a row is its entry
of largest `bk.pivot_weight`, the first one on a tie; on exact every nonzero
weight is 1, so no entry is converted to a float.

One zero rule holds throughout: an entry is zero iff its pivot_weight is at
most `bk.pivot_tol * max(1, w)`, where w is the largest pivot_weight among
all the system's rows, taken before any row is reduced, so no result depends
on the order of the rows.  On exact pivot_tol is 0, so only an identically
zero entry is zero.  Dict rows also hold sparse matrices: `sparse_rows`
reads one in, and `row_product` and `row_sum` multiply and add them.
"""

import numpy as np

from .tensors import zeros, asarray


def real_flat(A, bk):
    """The entries of A as one flat list, each split into its real and
    imaginary part, so that ranks are taken over the reals."""
    out = []
    for x in asarray(A, bk).ravel().tolist():
        out.append(bk.re(x))
        out.append(bk.im(x))
    return out


def sparse_rows(M):
    """The rows of matrix M as dicts {column: value} of their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in M.tolist()]


def row_product(A, B):
    """A @ B on dict rows, over stored entries only (Gustavson 1978); an
    entry that cancels to zero is dropped.

    >>> from cubicdisc.scalars import EXACT as bk
    >>> row_product([{0: bk.i, 1: bk.one}, {}], [{0: bk.i}, {0: bk.one}])  # i*i + 1*1 = 0
    [{}, {}]
    """
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = acc[j] + a * b if j in acc else a * b
        out.append({j: x for j, x in acc.items() if x})
    return out


def row_sum(plus, minus=()):
    """sum(plus) - sum(minus) for dict-row matrices with one number of
    rows; an entry that cancels to zero is dropped."""
    out = [{} for _ in plus[0]]
    for M, sub in [(M, False) for M in plus] + [(M, True) for M in minus]:
        for acc, row in zip(out, M):
            for j, x in row.items():
                if j in acc:
                    acc[j] = acc[j] - x if sub else acc[j] + x
                else:
                    acc[j] = -x if sub else x
    return [{j: x for j, x in acc.items() if x} for acc in out]


class SparseEliminator:
    """Row reduction of the dict rows {column: scalar} of one system.

    The zero rule takes w from all of `rows`, then `add_row` reduces them in
    turn; `independent[k]` says whether row k gave a new pivot.
    `_back_reduce` then leaves each pivot row with 1 at its pivot and
    nothing in any other pivot column.
    """

    def __init__(self, rows, ncols, bk):
        self.ncols = ncols
        self.bk = bk
        self.pivot_rows = {}
        w = max((bk.pivot_weight(x) for row in rows for x in row.values()),
                default=0.0)
        self._tiny = bk.pivot_tol * max(1.0, w)
        self.independent = [self.add_row(row) for row in rows]

    def _subtract(self, row, c):
        """Eliminate column c of row with the pivot row of c."""
        weight, tiny, zero = self.bk.pivot_weight, self._tiny, self.bk.zero
        f = row.pop(c)
        for cc, v in self.pivot_rows[c].items():
            if cc != c:
                w = row.get(cc, zero) - f * v
                if weight(w) > tiny:
                    row[cc] = w
                else:
                    row.pop(cc, None)

    def _reduce(self, row, keep=None):
        """Eliminate from row every pivot column but `keep`."""
        while True:
            hit = next((c for c in row if c != keep and c in self.pivot_rows), None)
            if hit is None:
                return
            self._subtract(row, hit)

    def add_row(self, row):
        """Reduce row by the pivot rows found so far, under the zero rule
        fixed at construction; True iff it yields a new pivot.

        Raises ValueError when it reduces to right-hand-side entries only,
        that is, when the system has no solution.
        """
        weight = self.bk.pivot_weight
        row = {c: x for c, x in row.items() if weight(x) > self._tiny}
        self._reduce(row)
        cands = [c for c in row if c < self.ncols]
        if not cands:
            if row:
                raise ValueError("inconsistent linear system")
            return False
        piv = max(cands, key=lambda c: weight(row[c]))
        pv = row[piv]
        self.pivot_rows[piv] = {c: x / pv for c, x in row.items()}
        return True

    def _back_reduce(self):
        for p in sorted(self.pivot_rows):
            self._reduce(self.pivot_rows[p], keep=p)

    def nullspace(self):
        """Basis of the right nullspace, one vector (list) per free column."""
        self._back_reduce()
        basis = []
        for f in range(self.ncols):
            if f in self.pivot_rows:
                continue
            v = [self.bk.zero] * self.ncols
            v[f] = self.bk.one
            for p, row in self.pivot_rows.items():
                coef = row.get(f)
                if coef is not None:
                    v[p] = -coef
            basis.append(v)
        return basis

    def rank(self):
        return len(self.pivot_rows)


def _eliminate_dense(M, bk, ncols=None):
    """Eliminate the dense rows of M; columns at or past ncols are
    right-hand sides (default: none)."""
    if ncols is None:
        ncols = len(M[0]) if len(M) else 0
    return SparseEliminator([{c: x for c, x in enumerate(row) if x} for row in M],
                            ncols, bk)


def rref(M, bk):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    elim = _eliminate_dense(M, bk)
    elim._back_reduce()
    pivots = sorted(elim.pivot_rows)
    rows = [[elim.pivot_rows[p].get(c, bk.zero) for c in range(elim.ncols)]
            for p in pivots]
    return rows, pivots


def rank(M, bk):
    """The rank of M, given as dense rows or as dict rows {column: scalar}."""
    if len(M) and isinstance(M[0], dict):
        return SparseEliminator(M, float("inf"), bk).rank()    # no right-hand sides
    return _eliminate_dense(M, bk).rank()


def nullspace(M, bk):
    """Basis of the right nullspace, as a list of column vectors (lists)."""
    return _eliminate_dense(M, bk).nullspace()


def solve(A, b, bk):
    """One solution of A x = b, free variables set to zero; raises
    ValueError when the system is inconsistent.

    b is a vector, or a matrix whose columns are right-hand sides; x is a
    list, or a matrix with one column per right-hand side.
    """
    b = asarray(b, bk)
    B = b.reshape(len(b), -1)
    n = len(A[0])
    rows = np.hstack([asarray(A, bk), B]).tolist()
    elim = _eliminate_dense(rows, bk, ncols=n)
    elim._back_reduce()
    X = zeros((n, B.shape[1]), bk)
    for p, row in elim.pivot_rows.items():
        for j in range(B.shape[1]):
            X[p, j] = row.get(n + j, bk.zero)
    return list(X[:, 0]) if b.ndim == 1 else X


def inverse(A, bk):
    n = len(A)
    eye = [[bk.one if i == j else bk.zero for j in range(n)] for i in range(n)]
    try:
        return solve(A, eye, bk)
    except ValueError:
        raise ValueError("singular matrix") from None
