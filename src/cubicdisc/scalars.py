"""Exact arithmetic in the field Q(i, sqrt(3)), plus a floating-point shadow backend.

Every constant appearing in the library (i, sqrt(3), 3/4, 21/8, ...) lives in
the number field Q(i, sqrt(3)).  We represent an element as four integers
over one common denominator,

    (a + b*i + c*sqrt(3) + d*i*sqrt(3)) / q,

always in lowest terms: q > 0 and gcd(a, b, c, d, q) == 1, so equal values
have equal representations.  A product is 16 integer multiplies and one
5-way gcd; a sum over equal denominators is 4 integer adds and one gcd.
Every zero is the one shared zero object.  Inversion multiplies by the
Galois conjugates and divides by the resulting rational norm, so no general
number-field machinery is needed.  An ExactArray holds a whole array the
same way, four integer arrays over one common denominator, so that sums,
contractions and other bilinear maps run on integers (`ExactArray._times`), with
one gcd per product array, and are joined back into scalars only on request.

The float backend is a cross-check shadow of the exact computations: its
scalars are Python complex numbers and its arrays numpy complex128 arrays.
Each backend names its array dtype (`dtype`): object for exact, complex128
for float.
"""

from fractions import Fraction
import math
import operator

import numpy as np

_SQRT3 = math.sqrt(3.0)
_gcd = math.gcd


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("rational coefficient expected, got %r" % (x,))


class ExactScalar:
    """An element (a + b*i + c*sqrt(3) + d*i*sqrt(3)) / q of Q(i, sqrt(3)).

    The constructor takes the four rational coefficients (int, Fraction or
    str); `.a` to `.d` give them back as Fractions.

    >>> x = ExactScalar(1, 0, 0, 1)   # 1 + i*sqrt(3)
    >>> y = ExactScalar(1, 0, 0, -1)  # 1 - i*sqrt(3)
    >>> x * y
    ExactScalar(4)
    >>> ExactScalar("1/2", 0, "3/4").ints()
    (2, 0, 3, 0, 4)
    """

    # _v is the normal form (a, b, c, d, q) of the module docstring.
    __slots__ = ("_v",)

    def __new__(cls, a=0, b=0, c=0, d=0):
        fs = tuple(_frac(x) for x in (a, b, c, d))
        q = math.lcm(*(f.denominator for f in fs))
        return _make(*(f.numerator * (q // f.denominator) for f in fs), q)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- conversions ------------------------------------------------------

    def ints(self):
        """The normal form (a, b, c, d, q): the value is (a + b*i + c*sqrt(3)
        + d*i*sqrt(3)) / q with q > 0 and gcd(a, b, c, d, q) == 1."""
        return self._v

    @property
    def a(self):
        return Fraction(self._v[0], self._v[4])

    @property
    def b(self):
        return Fraction(self._v[1], self._v[4])

    @property
    def c(self):
        return Fraction(self._v[2], self._v[4])

    @property
    def d(self):
        return Fraction(self._v[3], self._v[4])

    def coeffs(self):
        a, b, c, d, q = self._v
        return (Fraction(a, q), Fraction(b, q), Fraction(c, q), Fraction(d, q))

    def to_complex(self):
        # Each int / int is correctly rounded, as float(Fraction) is.
        a, b, c, d, q = self._v
        return complex(a / q + c / q * _SQRT3, b / q + d / q * _SQRT3)

    def real_part(self):
        """The real part a + c*sqrt(3), as an ExactScalar."""
        a, _, c, _, q = self._v
        return _make(a, 0, c, 0, q)

    def imag_part(self):
        """The imaginary part b + d*sqrt(3), as a real ExactScalar."""
        _, b, _, d, q = self._v
        return _make(b, 0, d, 0, q)

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        other = other if other.__class__ is ExactScalar else _coerce(other)
        if other is None:
            return NotImplemented
        if self is _ZERO:
            return other
        if other is _ZERO:
            return self
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if q1 == q2:
            return _make(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _make(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                     c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if other.__class__ is ExactScalar else _coerce(other)
        if other is None:
            return NotImplemented
        if other is _ZERO:
            return self
        if self is _ZERO:
            return -other
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if q1 == q2:
            return _make(a1 - a2, b1 - b2, c1 - c2, d1 - d2, q1)
        return _make(a1 * q2 - a2 * q1, b1 * q2 - b2 * q1,
                     c1 * q2 - c2 * q1, d1 * q2 - d2 * q1, q1 * q2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        a, b, c, d, q = self._v
        return _make(-a, -b, -c, -d, q)

    def __pos__(self):
        return self

    def __mul__(self, other):
        other = other if other.__class__ is ExactScalar else _coerce(other)
        if other is None:
            return NotImplemented
        if self is _ZERO or other is _ZERO:
            return _ZERO
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        return _make(
            a1 * a2 - b1 * b2 + 3 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            q1 * q2,
        )

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: fixes a, c and negates b, d."""
        a, b, c, d, q = self._v
        return _make(a, -b, c, -d, q)

    conjugate = conj                # what np.conj calls on object arrays

    def inv(self):
        if self is _ZERO:
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt(3))")
        # Write the numerator as A + B*sqrt(3) with A = a + b*i, B = c + d*i.
        # Then 1/(A + B sqrt3) = (A - B sqrt3) * conj(g) / |g|^2 with
        # g = A^2 - 3 B^2 = re + im*i, and |g|^2 is the rational field norm.
        a, b, c, d, q = self._v
        re = a * a - b * b - 3 * (c * c - d * d)
        im = 2 * (a * b - 3 * c * d)
        return _make(q * (a * re + b * im), q * (b * re - a * im),
                     -q * (c * re + d * im), q * (c * im - d * re),
                     re * re + im * im)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        # Rational values hash like the equal int or Fraction.
        a, b, c, d, q = self._v
        if not (b or c or d):
            return hash(Fraction(a, q))
        return hash(self._v)

    def __bool__(self):
        return self is not _ZERO

    def __reduce__(self):
        # Copies and unpickled values go through _make, so a zero is _ZERO.
        return (_make, self._v)

    def __repr__(self):
        a, b, c, d = self.coeffs()
        parts = []
        for coef, unit in zip((a, b, c, d), ("", "i", "r3", "ir3")):
            if coef:
                parts.append(repr(coef) if not unit else "%r*%s" % (coef, unit))
        if not parts:
            return "ExactScalar(0)"
        if len(parts) == 1 and not any((b, c, d)):
            return "ExactScalar(%s)" % (a,)
        return "ExactScalar<%s>" % " + ".join(parts)


_new = object.__new__
_set_v = ExactScalar._v.__set__


def _make(a, b, c, d, q):
    """The ExactScalar (a + b*i + c*sqrt(3) + d*i*sqrt(3)) / q, for q > 0,
    brought to normal form; every zero is _ZERO."""
    if not (a or b or c or d):
        return _ZERO
    g = _gcd(a, b, c, d, q)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        q //= g
    s = _new(ExactScalar)
    _set_v(s, (a, b, c, d, q))
    return s


def _coerce(x):
    if x.__class__ is ExactScalar:
        return x
    if isinstance(x, int):
        return _make(x, 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, 0, 0, x.denominator)
    return None


_ZERO = _new(ExactScalar)
_set_v(_ZERO, (0, 0, 0, 0, 1))


_parts = np.frompyfunc(ExactScalar.ints, 1, 5)
_join = np.frompyfunc(_make, 5, 1)


def _ints(x):
    # Ops on 0-d object arrays give bare ints; keep them out of int64.
    return np.asarray(x, dtype=ExactArray.dtype)


def _wrap(a, b, c, d, q):
    x = _new(ExactArray)
    x._v = (_ints(a), _ints(b), _ints(c), _ints(d), q)
    return x


def _reduced(a, b, c, d, q):
    """_wrap(a, b, c, d, q) divided by the gcd of q and every numerator."""
    g = _gcd(q, *_ints(a).flat, *_ints(b).flat, *_ints(c).flat, *_ints(d).flat)
    v = (a, b, c, d) if g == 1 else (a // g, b // g, c // g, d // g)
    return _wrap(*v, q // g)


class ExactArray(np.lib.mixins.NDArrayOperatorsMixin):
    """An array (a + b*i + c*sqrt(3) + d*i*sqrt(3)) / q over Q(i, sqrt(3)):
    four integer object arrays over one q > 0, each product divided by one
    gcd.  `+`, `-`, `*` (by a scalar or element-wise), `tensordot`, `np.conj`,
    `np.multiply.outer`, `np.transpose`, `np.moveaxis`, `np.reshape` and
    `np.take` return an ExactArray; `np.asarray` joins it back into
    ExactScalar objects, each in normal form and every zero the shared zero.

    >>> X = ExactArray.of([[ExactScalar(1, 1), ExactScalar("1/2")],
    ...                    [ExactScalar(0), ExactScalar(0, 0, 1)]])
    >>> Y = np.conj(X) * 2 - X.tensordot(X, 1)
    >>> [[y.ints() for y in row] for row in np.asarray(Y)]
    [[(2, -4, 0, 0, 1), (1, -1, -1, 0, 2)], [(0, 0, 0, 0, 1), (-3, 0, 2, 0, 1)]]
    >>> Y.any(), (Y - Y).any()
    (True, False)
    >>> Z = ExactArray.of([[ExactScalar(2 ** 45 + j - k, k, 0, 1) for k in range(3)]
    ...                    for j in range(3)])     # 46 bits: 2 limbs of 23 bits
    >>> P = np.asarray(Z.tensordot(Z, 1))
    >>> bool((P == np.tensordot(np.asarray(Z), np.asarray(Z), 1)).all()), P[0, 0].a
    (True, Fraction(3713820117856140824697372658, 1))
    """

    __slots__ = ("_v",)
    dtype = np.dtype(object)        # the dtype of its join
    shape = property(lambda self: self._v[0].shape)
    ndim = property(lambda self: self._v[0].ndim)
    planes = property(lambda self: self._v[:4])   # the numerators a, b, c, d

    @staticmethod
    def of(x):
        """x (an ExactArray, array, list or scalar) in split form, no gcd."""
        if x.__class__ is ExactArray:
            return x
        s = _coerce(x)
        A = _ints(x if s is None else s)
        a, b, c, d, r = _parts(A.reshape(-1))
        q = math.lcm(*r)
        m = q // r
        return _wrap(*((u * m).reshape(A.shape) for u in (a, b, c, d)), q)

    def __array__(self, dtype=None, copy=None):
        return _ints(_join(*self._v))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _UFUNCS.get((ufunc, method))
        if op is None or kwargs:
            return NotImplemented
        return op(*map(ExactArray.of, inputs))

    def __array_function__(self, func, types, args, kwargs):
        if (func not in (np.transpose, np.moveaxis, np.reshape, np.take)
                or args[0] is not self):
            return NotImplemented
        *v, q = self._v
        return _wrap(*(func(x, *args[1:], **kwargs) for x in v), q)

    def _plus(self, other, op):
        (*x, q1), (*y, q2) = self._v, other._v
        if q1 != q2:
            q = math.lcm(q1, q2)
            x, y, q1 = [u * (q // q1) for u in x], [u * (q // q2) for u in y], q
        return _wrap(*map(op, x, y), q1)

    def _times(self, other, mul, axes=None):
        """mul(self, other) for a Z-bilinear mul.  If mul is np.tensordot over the
        lists `axes`, summing n terms, and its products outnumber the n (sx + sy)
        numerators it reads, it is one float64 np.matmul over L-bit limbs, kx
        per numerator of self and ky of other (`_limb_product`), the smaller as
        its regular representation, whose rows have absolute sum 8.  A limb is at
        most 2^L, so a sum over the at most min(kx, ky) limb pairs of one shift
        is below 2^(2L + bitlen(8 n min(kx, ky))) <= 2^53 for the widest L that
        keeps this: every partial sum is an exact float64.  Other products run
        `karatsuba` on Python ints: 4 calls if a factor is rational, else 9."""
        x, y = self._v, other._v
        n = axes and math.prod(self.shape[k] for k in axes[0])
        if n and x[0].size * y[0].size > n * (x[0].size + y[0].size):
            out = _limb_product(x, y, axes, n)
        elif not any(u.any() for u in y[1:4]):
            out = [mul(u, y[0]) for u in x[:4]]
        elif not any(u.any() for u in x[1:4]):
            out = [mul(x[0], u) for u in y[:4]]
        else:
            out = karatsuba(x, y, lambda u, v: mul(_ints(u), _ints(v)))
        return _reduced(*out[:4], x[4] * y[4])

    def tensordot(self, other, axes):
        other = ExactArray.of(other)
        if isinstance(axes, int):
            axes = (range(self.ndim - axes, self.ndim), range(axes))
        axes = [[k % u.ndim for k in np.atleast_1d(ax)] for ax, u in zip(axes, (self, other))]
        return self._times(other, lambda x, y: np.tensordot(x, y, axes), axes)

    def any(self):
        """Whether some entry is nonzero: the exact zero test."""
        return any(x.any() for x in self._v[:4])

    def frob(self):
        """The Frobenius norm as sum(abs(z) ** 2) over each entry rounded as
        ExactScalar.to_complex; ** 2 is libm's pow, not numpy's x * x."""
        if not self.any():
            return 0.0
        a, b, c, d, q = self._v
        re, im = (np.ravel(u / q + v / q * _SQRT3).astype(float) for u, v in ((a, c), (b, d)))
        return math.sqrt(sum(map(pow, np.hypot(re, im).tolist(), [2] * re.size)))


_UFUNCS = {
    (np.add, "__call__"): lambda x, y: x._plus(y, operator.add),
    (np.subtract, "__call__"): lambda x, y: x._plus(y, operator.sub),
    (np.multiply, "__call__"): lambda x, y: x._times(y, np.multiply),
    (np.multiply, "outer"): lambda x, y: x._times(y, np.multiply.outer),
    (np.negative, "__call__"): lambda x: _wrap(*(-u for u in x._v[:4]), x._v[4]),
    (np.conjugate, "__call__"): lambda x: _wrap(x._v[0], -x._v[1], x._v[2],
                                                -x._v[3], x._v[4]),
}


# Basis e = (1, i, sqrt3, i sqrt3): e_p e_q = _COEF[p ^ q, q] e_(p ^ q), so plane
# r of x y is sum_q _COEF[r, q] x[_PLANE[r, q]] y[q], the regular representation of x.
_PLANE = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])   # r ^ q
_COEF = np.array([[1, -1, 3, -3], [1, 1, 3, 3], [1, -1, 1, -1], [1, 1, 1, 1.0]])


def _limb_product(x, y, axes, n):
    """The numerator planes of np.tensordot(X, Y, axes) (ExactArray._times):
    one np.matmul with a gemm per limb pair, each small enough for OpenBLAS to
    keep on the calling thread; sums per shift carried on int64, joined as ints."""
    if x[0].size > y[0].size:       # the smaller one enters as its regular representation
        out = _limb_product(y, x, axes[::-1], n)
        k = 1 + y[0].ndim - len(axes[1])
        return np.transpose(out, [0, *range(k, out.ndim), *range(1, k)])
    x, y = np.stack(x[:4]), np.stack(y[:4])
    bx, by = (int(max(v.max(initial=0), -v.min(initial=0))).bit_length() for v in (x, y))
    for L in range(24, 0, -1):
        kx, ky = max(1, -(-bx // L)), max(1, -(-by // L))
        if 2 * L + (8 * n * min(kx, ky)).bit_length() <= 53:
            break
    X = _limbs(x, L, kx, bx)[:, _PLANE] * _COEF.reshape((4, 4) + (1,) * (x.ndim - 1))
    X = np.moveaxis(X, [2, *(k + 3 for k in axes[0])], range(-1 - len(axes[0]), 0))
    Y = np.moveaxis(_limbs(y, L, ky, by), [k + 2 for k in axes[1]], range(2, 2 + len(axes[1])))
    Z = np.matmul(X.reshape(kx, 1, -1, 4 * n), Y.reshape(1, ky, 4 * n, -1))
    g = np.zeros((kx + ky - 1,) + Z.shape[2:])
    for i in range(kx):
        g[i:i + ky] += Z[i]
    g = g.astype(np.int64)
    for s in range(len(g) - 1):
        g[s + 1] += g[s] >> L
        g[s] &= (1 << L) - 1
    out, top = g[-1].astype(object), len(g) - 1
    for u in reversed(range(0, top, 62 // L)):
        w = sum(g[s] << L * (s - u) for s in range(u, top))
        out <<= L * (top - u)
        out += w.astype(object)
        top = u
    return out.reshape(X.shape[1:-1 - len(axes[0])] + Y.shape[2 + len(axes[1]):])


def _limbs(v, L, k, b):
    """The k float64 limbs of v, |v| < 2^b: v = sum_j limb_j 2^(L j), each in [0, 2^L)
    but the top, |top| <= 2^L; cut by shifts from int64 words (one if b <= 62)."""
    t, words = k if b <= 62 else 62 // L, []
    for _ in range((k - 1) // t):
        words.append((v & ((1 << L * t) - 1)).astype(np.int64))
        v = v >> L * t
    words.append(v.astype(np.int64))
    out = np.stack([words[j // t] >> L * (j % t) for j in range(k)])
    out[:-1] &= (1 << L) - 1
    return out.astype(float)


def karatsuba(x, y, mul):
    """The split form of mul(X, Y), for X and Y in split form and mul a map
    of integer arrays that is bilinear over Z, such as a contraction.
    With X = A + B*sqrt(3), A = a + b*i and B = c + d*i, the product needs
    A1 A2, B1 B2 and (A1 + B1)(A2 + B2), and each of these Gaussian products
    three integer ones (Karatsuba and Ofman, 1963): 9 calls of mul, where
    the multiplication table of the field takes 16."""
    def gauss(u, v):
        re, im = mul(u[0], v[0]), mul(u[1], v[1])
        return re - im, mul(u[0] + u[1], v[0] + v[1]) - re - im

    a1, b1, c1, d1, q1 = x
    a2, b2, c2, d2, q2 = y
    p = gauss((a1, b1), (a2, b2))
    r = gauss((c1, d1), (c2, d2))
    s = gauss((a1 + c1, b1 + d1), (a2 + c2, b2 + d2))
    return (p[0] + 3 * r[0], p[1] + 3 * r[1],
            s[0] - p[0] - r[0], s[1] - p[1] - r[1], q1 * q2)


class ExactBackend:
    """Constructs and inspects ExactScalar values, held in object arrays.
    Every zero test is exact: a value or array is zero only if it is
    identically zero."""

    tol = 0.0
    pivot_tol = 0.0
    dtype = object

    def __init__(self):
        self.zero = ExactScalar(0)
        self.one = ExactScalar(1)
        self.i = ExactScalar(0, 1)
        self.sqrt3 = ExactScalar(0, 0, 1)
        self.i_sqrt3 = ExactScalar(0, 0, 0, 1)

    def scalar(self, a=0, b=0, c=0, d=0):
        return ExactScalar(a, b, c, d)

    def rational(self, p, q=1):
        return ExactScalar(Fraction(p, q))

    def conj(self, x):
        return x.conj()

    def from_complex(self, z):
        raise ValueError("cannot load float scalars into the exact backend")

    def is_zero(self, x, scale=1.0):
        return not x

    def all_zero(self, A, scale=1.0):
        return not (A.any() if A.__class__ is ExactArray else any(A.flat))

    def pivot_weight(self, x):
        """How elimination ranks x as a pivot: 1 if x is nonzero, else 0.
        Every nonzero pivot is exact, so the first one found is taken."""
        return 1 if x else 0

    def to_complex(self, x):
        return x.to_complex()

    def re(self, x):
        return x.real_part()

    def im(self, x):
        return x.imag_part()

    def __repr__(self):
        return "ExactBackend()"


class FloatBackend:
    """Shadow backend over double-precision complex numbers, held in
    complex128 arrays.  A value or array is zero if its absolute value or
    Frobenius norm is at most tol * max(1, scale); elimination treats an
    entry as zero if its absolute value is at most pivot_tol * max(1, the
    largest absolute value in the system)."""

    pivot_tol = 1e-7
    dtype = np.complex128

    def __init__(self, tol=1e-9):
        if not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
            raise ValueError("tol must be a finite number greater than 0, got %r"
                             % (tol,))
        self.tol = tol
        self.zero = complex(0.0)
        self.one = complex(1.0)
        self.i = complex(0.0, 1.0)
        self.sqrt3 = complex(_SQRT3, 0.0)
        self.i_sqrt3 = complex(0.0, _SQRT3)

    def scalar(self, a=0, b=0, c=0, d=0):
        fa, fb, fc, fd = (float(_frac(x)) for x in (a, b, c, d))
        return complex(fa + fc * _SQRT3, fb + fd * _SQRT3)

    def rational(self, p, q=1):
        return complex(p / q)

    def conj(self, x):
        return x.conjugate()

    def from_complex(self, z):
        return complex(z)

    def is_zero(self, x, scale=1.0):
        return abs(x) <= self.tol * max(1.0, scale)

    def all_zero(self, A, scale=1.0):
        return bool(np.linalg.norm(A) <= self.tol * max(1.0, scale))

    def pivot_weight(self, x):
        """How elimination ranks x as a pivot: |x|, so the largest entry
        above the threshold is taken."""
        return abs(x)

    def to_complex(self, x):
        return complex(x)

    def re(self, x):
        return complex(x.real, 0.0)

    def im(self, x):
        return complex(x.imag, 0.0)

    # Backends with one tol are interchangeable, so caches keyed on a
    # backend share one entry per tolerance.
    def __eq__(self, other):
        return isinstance(other, FloatBackend) and other.tol == self.tol

    def __hash__(self):
        return hash((FloatBackend, self.tol))

    def __repr__(self):
        return "FloatBackend(tol=%g)" % self.tol


EXACT = ExactBackend()
FLOAT = FloatBackend()


def get_backend(name, tol=None):
    if name == "exact":
        return EXACT
    if name == "float":
        return FloatBackend(tol if tol is not None else 1e-9)
    raise ValueError("unknown backend %r" % (name,))
