"""Exact arithmetic in the field Q(i, sqrt(3)), plus a floating-point shadow backend.

Every constant appearing in the library (i, sqrt(3), 3/4, 21/8, ...) lives in
the number field Q(i, sqrt(3)).  We represent an element as

    a + b*i + c*sqrt(3) + d*i*sqrt(3)

with rational coefficients a, b, c, d.  Inversion multiplies by the product of
the three nontrivial Galois conjugates and divides by the resulting rational
norm, so no general number-field machinery is needed.

The float backend maps everything to Python complex numbers; it is used as a
cross-check shadow of the exact computations.
"""

from fractions import Fraction
import math

_SQRT3 = math.sqrt(3.0)


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("rational coefficient expected, got %r" % (x,))


class ExactScalar:
    """An element a + b*i + c*sqrt(3) + d*i*sqrt(3) of Q(i, sqrt(3)).

    >>> x = ExactScalar(1, 0, 0, 1)   # 1 + i*sqrt(3)
    >>> y = ExactScalar(1, 0, 0, -1)  # 1 - i*sqrt(3)
    >>> x * y
    ExactScalar(4)
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- conversions ------------------------------------------------------

    def coeffs(self):
        return (self.a, self.b, self.c, self.d)

    def to_complex(self):
        return complex(float(self.a) + float(self.c) * _SQRT3,
                       float(self.b) + float(self.d) * _SQRT3)

    def real_part(self):
        """The real part a + c*sqrt(3), as an ExactScalar."""
        return ExactScalar(self.a, 0, self.c, 0)

    def imag_part(self):
        """The imaginary part b + d*sqrt(3), as a real ExactScalar."""
        return ExactScalar(self.b, 0, self.d, 0)

    def is_rational(self):
        return self.b == 0 and self.c == 0 and self.d == 0

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __pos__(self):
        return self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return _ZERO
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return ExactScalar(
            a1 * a2 - b1 * b2 + 3 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: fixes a, c and negates b, d."""
        return ExactScalar(self.a, -self.b, self.c, -self.d)

    def galois(self, flip_i=False, flip_r=False):
        """Apply the Galois automorphism sending i -> -i and/or sqrt(3) -> -sqrt(3)."""
        si = -1 if flip_i else 1
        sr = -1 if flip_r else 1
        return ExactScalar(self.a, si * self.b, sr * self.c, si * sr * self.d)

    def inv(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt(3))")
        p = self.galois(True, False) * self.galois(False, True) * self.galois(True, True)
        n = self * p
        # The product of all four Galois conjugates is the rational field norm.
        assert n.is_rational() and n.a != 0
        return ExactScalar(p.a / n.a, p.b / n.a, p.c / n.a, p.d / n.a)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs() == o.coeffs()

    def __hash__(self):
        return hash(self.coeffs())

    def __bool__(self):
        return bool(self.a or self.b or self.c or self.d)

    def __repr__(self):
        parts = []
        for coef, unit in zip(self.coeffs(), ("", "i", "r3", "ir3")):
            if coef:
                parts.append(repr(coef) if not unit else "%r*%s" % (coef, unit))
        if not parts:
            return "ExactScalar(0)"
        if len(parts) == 1 and not any((self.b, self.c, self.d)):
            return "ExactScalar(%s)" % (self.a,)
        return "ExactScalar<%s>" % " + ".join(parts)


_ZERO = ExactScalar(0)


def frobenius(values):
    """sqrt(sum |z|^2) over complex numbers, as a float."""
    return math.sqrt(sum(abs(z) ** 2 for z in values))


class ExactBackend:
    """Constructs and inspects ExactScalar values.  Every zero test is
    exact: a value or array is zero only if it is identically zero."""

    tol = 0.0
    pivot_tol = 0.0

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

    def all_zero(self, values, scale=1.0):
        return not any(values)

    def to_complex(self, x):
        return x.to_complex()

    def re(self, x):
        return x.real_part()

    def im(self, x):
        return x.imag_part()

    def __repr__(self):
        return "ExactBackend()"


class FloatBackend:
    """Shadow backend over double-precision complex numbers.  A value or
    array is zero if its absolute value or Frobenius norm is at most
    tol * max(1, scale); elimination treats entries at most pivot_tol
    (relative to the largest entry in rref) as zero."""

    pivot_tol = 1e-7

    def __init__(self, tol=1e-9):
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

    def all_zero(self, values, scale=1.0):
        return frobenius(values) <= self.tol * max(1.0, scale)

    def to_complex(self, x):
        return complex(x)

    def re(self, x):
        return complex(x.real, 0.0)

    def im(self, x):
        return complex(x.imag, 0.0)

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
