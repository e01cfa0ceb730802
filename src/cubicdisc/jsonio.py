"""JSON serialization for scalars, quartics, curvature tensors, and coframes.

Exact scalars are stored as their four rational coordinates in the number
field (strings like "3/4"); float-backend scalars as {"re": ..., "im": ...}.
Quartics store the 35 independent components keyed by nondecreasing 1-based
index words; curvature tensors store their nonzero mixed components keyed by
four-letter index words; coframes store the coefficient list of each
differential.  Loaders raise ValueError, naming the offending component, on
any payload that does not follow this schema.
"""

import cmath
import itertools
import json

from .scalars import EXACT, ExactScalar
from .tensors import zeros, alt_index
from .hk import SymQuartic, HKTensor
from .models import CoframeSystem, LABELS, N_FORMS


def scalar_to_json(x, bk):
    if isinstance(x, ExactScalar):
        return {"a": str(x.a), "b": str(x.b), "c": str(x.c), "d": str(x.d)}
    z = bk.to_complex(x)
    return {"re": z.real, "im": z.imag}


def scalar_from_json(d, bk, where="value"):
    """A backend scalar from rationals {a, b, c, d} or finite numbers
    {re, im}; `where` names the value in the ValueError for anything else."""
    keys = set(d) if isinstance(d, dict) else None
    z = None
    try:
        if keys == set("abcd") and all(type(d[k]) in (str, int) for k in keys):
            return bk.scalar(*(d[k] for k in "abcd"))
        if keys == {"re", "im"} and all(type(d[k]) in (int, float) for k in keys):
            z = complex(d["re"], d["im"])
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    if z is None or not cmath.isfinite(z):
        raise ValueError("%s is not a scalar: expected rationals {a, b, c, d} "
                         "or finite numbers {re, im}" % (where,))
    return bk.from_complex(z)


def _object(data, key, what):
    value = data.get(key)
    if not isinstance(value, dict):
        raise ValueError("\"%s\" must be an object mapping %s" % (key, what))
    return value.items()


def quartic_to_json(q):
    """The 35 independent components, keyed like "1124", sorted."""
    bk = q.bk
    out = {}
    for a in range(4):
        for b in range(a, 4):
            for c in range(b, 4):
                for d in range(c, 4):
                    key = "%d%d%d%d" % (a + 1, b + 1, c + 1, d + 1)
                    out[key] = scalar_to_json(q.S[a, b, c, d], bk)
    return {"kind": "quartic", "components": dict(sorted(out.items()))}


def _index(key):
    """The 0-based index tuple of a component key: exactly four digits 1-4."""
    if not (isinstance(key, str) and len(key) == 4
            and all(ch in "1234" for ch in key)):
        raise ValueError("component key %r is not four digits 1-4" % (key,))
    return tuple(int(ch) - 1 for ch in key)


def quartic_from_json(data, bk=EXACT):
    S = zeros((4, 4, 4, 4), bk)
    seen = {}
    for key, val in _object(data, "components", "keys to scalars"):
        idx = _index(key)
        v = scalar_from_json(val, bk, "component %r" % (key,))
        first = seen.setdefault(tuple(sorted(idx)), (key, v))
        if first[1] != v:
            raise ValueError("quartic keys %r and %r are permutations of each "
                             "other but have different values" % (first[0], key))
        for perm in set(itertools.permutations(idx)):
            S[perm] = v
    return SymQuartic(S, bk)


def hk_to_json(K):
    bk = K.bk
    comps = {}
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    v = K.Kmix[a, b, c, d]
                    if v:
                        key = "%d%d%d%d" % (a + 1, b + 1, c + 1, d + 1)
                        comps[key] = scalar_to_json(v, bk)
    return {"kind": "hk_tensor", "components": dict(sorted(comps.items()))}


def hk_from_json(data, bk=EXACT):
    Kmix = zeros((4, 4, 4, 4), bk)
    for key, val in _object(data, "components", "keys to scalars"):
        Kmix[_index(key)] = scalar_from_json(val, bk, "component %r" % (key,))
    K = HKTensor(Kmix, bk)
    K.validate()
    return K


def coframe_to_json(cs):
    """One row [label, label, scalar] per nonzero d[k, i, j], i < j, in order."""
    bk = cs.bk
    d = cs.d.tolist()
    rows = {LABELS[k]: [[LABELS[i], LABELS[j], scalar_to_json(d[k][i][j], bk)]
                        for i, j in zip(*alt_index(N_FORMS, 2)[0]) if d[k][i][j]]
            for k in range(N_FORMS)}
    out = {"kind": "coframe", "labels": list(LABELS), "d": rows}
    out["h"] = None if cs.h is None else scalar_to_json(cs.h, bk)
    return out


def coframe_from_json(data, bk=EXACT):
    """The labels must be models.LABELS, and d map labels to lists of rows
    [label, label, scalar] of two distinct labels.  Each row is one term of
    CoframeSystem: a row (j, i) reads as (i, j) negated, and rows on one
    pair add up."""
    if data.get("labels") != LABELS:
        raise ValueError("\"labels\" must be %r" % (LABELS,))
    index = {name: k for k, name in enumerate(LABELS)}
    terms = zeros((N_FORMS,) * 3, bk)
    for name, rows in _object(data, "d", "labels to lists of rows"):
        if name not in index or not isinstance(rows, list):
            raise ValueError("d[%r] is not a list of rows of a known form" % (name,))
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3 and row[0] != row[1]
                    and all(isinstance(x, str) and x in index for x in row[:2])):
                raise ValueError("d[%r] row %r is not [label, label, scalar] "
                                 "with two distinct labels" % (name, row))
            at = (index[name], index[row[0]], index[row[1]])
            terms[at] = terms[at] + scalar_from_json(
                row[2], bk, "d[%r] entry (%r, %r)" % (name, row[0], row[1]))
    h = None if data.get("h") is None else scalar_from_json(data["h"], bk, "h")
    return CoframeSystem(terms, bk, h=h)


_DUMPERS = {SymQuartic: quartic_to_json, HKTensor: hk_to_json,
            CoframeSystem: coframe_to_json}
_LOADERS = {"quartic": quartic_from_json, "hk_tensor": hk_from_json,
            "coframe": coframe_from_json}


def dumps(obj):
    for cls, fn in _DUMPERS.items():
        if isinstance(obj, cls):
            return json.dumps(fn(obj), indent=2, sort_keys=True)
    raise TypeError("cannot serialize %r" % (type(obj),))


def loads(text, bk=EXACT):
    data = json.loads(text)
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _LOADERS:
        raise ValueError("unknown payload kind %r" % (kind,))
    return _LOADERS[kind](data, bk)
