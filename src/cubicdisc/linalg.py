"""Gaussian elimination over a scalar backend.

Works on matrices whose entries come from either backend (ExactScalar or
complex).  All routines are fraction-free in spirit but simply rely on exact
field division when the backend is exact.  Pivots are ranked by the
backend's pivot_weight: on exact the first nonzero entry is taken, with no
float conversion; on float the largest |x| above pivot_tol (relative to the
largest entry in rref) is taken.
"""

import numpy as np


def _as_rows(M):
    return [list(row) for row in M]


def real_flat(A, bk):
    """The entries of A as one flat list, each split into its real and
    imaginary part, so that ranks are taken over the reals."""
    out = []
    for x in np.asarray(A, dtype=object).flat:
        out.append(bk.re(x))
        out.append(bk.im(x))
    return out


def _pivot_threshold(bk, rows):
    if not bk.pivot_tol:
        return 0.0
    m = max((bk.pivot_weight(x) for row in rows for x in row), default=0.0)
    return max(m, 1.0) * bk.pivot_tol


def rref(M, bk, tol=None):
    """Reduced row echelon form.  Returns (rows, pivot_column_list)."""
    rows = _as_rows(M)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    if tol is None:
        tol = _pivot_threshold(bk, rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        best, bestv = None, tol
        for k in range(r, len(rows)):
            v = bk.pivot_weight(rows[k][c])
            if v > bestv:
                best, bestv = k, v
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(M, bk, tol=None):
    _, pivots = rref(M, bk, tol=tol)
    return len(pivots)


def nullspace(M, bk, tol=None):
    """Basis of the right nullspace, as a list of column vectors (lists)."""
    rows = _as_rows(M)
    if not rows:
        return []
    ncols = len(rows[0])
    R, pivots = rref(rows, bk, tol=tol)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [bk.zero] * ncols
        v[f] = bk.one
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    return basis


def solve(A, b, bk, tol=None):
    """Solve A x = b exactly; raises ValueError when inconsistent.

    Returns one particular solution (free variables set to zero).
    """
    rows = _as_rows(A)
    ncols = len(rows[0]) if rows else 0
    aug = [row + [bb] for row, bb in zip(rows, b)]
    if tol is None:
        tol = _pivot_threshold(bk, rows) if rows else 0.0
    R, pivots = rref(aug, bk, tol=tol)
    for r, row in enumerate(R):
        if r < len(pivots) and pivots[r] == ncols:
            raise ValueError("inconsistent linear system")
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    x = [bk.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = R[r][ncols]
    return x


def inverse(A, bk):
    rows = _as_rows(A)
    n = len(rows)
    aug = [rows[i] + [bk.one if i == j else bk.zero for j in range(n)] for i in range(n)]
    R, pivots = rref(aug, bk)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = R[i][n + j]
    return out


class SparseEliminator:
    """Incremental row reduction for sparse systems.

    Rows are dicts {column: scalar}.  Used for the large first-Bianchi
    systems, where each equation touches only a handful of unknowns.
    """

    def __init__(self, ncols, bk, tol=None):
        self.ncols = ncols
        self.bk = bk
        self.pivot_rows = {}
        self.tol = bk.pivot_tol if tol is None else tol

    def _clean(self, row):
        return {c: v for c, v in row.items() if self.bk.pivot_weight(v) > self.tol}

    def add_row(self, row):
        row = self._clean(dict(row))
        while row:
            hit = None
            for c in row:
                if c in self.pivot_rows:
                    hit = c
                    break
            if hit is None:
                break
            f = row.pop(hit)
            for c, v in self.pivot_rows[hit].items():
                if c == hit:
                    continue
                w = row.get(c, self.bk.zero) - f * v
                if self.bk.pivot_weight(w) > self.tol:
                    row[c] = w
                else:
                    row.pop(c, None)
        if not row:
            return
        piv = max(row, key=lambda c: self.bk.pivot_weight(row[c]))
        pv = row[piv]
        row = {c: v / pv for c, v in row.items()}
        self.pivot_rows[piv] = row

    def _back_reduce(self):
        cols = sorted(self.pivot_rows)
        for p in cols:
            row = self.pivot_rows[p]
            changed = True
            while changed:
                changed = False
                for c in list(row):
                    if c != p and c in self.pivot_rows and c in row:
                        f = row.pop(c)
                        for cc, vv in self.pivot_rows[c].items():
                            if cc == c:
                                continue
                            w = row.get(cc, self.bk.zero) - f * vv
                            if self.bk.pivot_weight(w) > self.tol:
                                row[cc] = w
                            else:
                                row.pop(cc, None)
                        changed = True
            self.pivot_rows[p] = row

    def nullspace(self):
        self._back_reduce()
        free = [c for c in range(self.ncols) if c not in self.pivot_rows]
        basis = []
        for f in free:
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
