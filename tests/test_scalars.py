"""Field arithmetic in the exact backend, plus backend API behavior."""

import copy
from fractions import Fraction
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicdisc.scalars import (ExactScalar, EXACT, FLOAT, FloatBackend,
                               get_backend)
from cubicdisc.tensors import all_zero

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)
# 52-bit numerators and denominators, the size Cayley transport produces.
wide_rationals = st.builds(Fraction, st.integers(-2 ** 52, 2 ** 52),
                           st.integers(1, 2 ** 52))
wide_scalars = st.builds(ExactScalar, wide_rationals, wide_rationals,
                         wide_rationals, wide_rationals)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_field_inverse(x):
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inv()
    else:
        assert x * x.inv() == ExactScalar(1)


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_conjugation(x):
    assert x.conj().conj() == x
    n = x * x.conj()
    # x conj(x) is real: no i or i*sqrt3 component.
    assert n.b == 0 and n.d == 0


def test_generator_values():
    i = EXACT.i
    r3 = EXACT.sqrt3
    assert i * i == ExactScalar(-1)
    assert r3 * r3 == ExactScalar(3)
    assert EXACT.i_sqrt3 == i * r3


def test_string_coefficients():
    x = EXACT.scalar("3/4", 0, "-1/2", 0)
    assert x.a == Fraction(3, 4) and x.c == Fraction(-1, 2)


def test_real_imag_parts():
    x = EXACT.scalar(1, 2, 3, 4)
    assert EXACT.re(x) == ExactScalar(1, 0, 3, 0)
    assert EXACT.im(x) == ExactScalar(2, 0, 4, 0)


def test_immutability():
    x = ExactScalar(1)
    with pytest.raises(AttributeError):
        x.a = Fraction(2)


def test_float_backend_matches_exact():
    x = EXACT.scalar(1, "1/2", "-2/3", 5)
    y = FLOAT.scalar(1, "1/2", "-2/3", 5)
    assert abs(x.to_complex() - y) < 1e-12
    assert abs(EXACT.to_complex(x * x) - y * y) < 1e-9


def test_get_backend():
    assert get_backend("exact") is EXACT
    bk = get_backend("float", tol=1e-6)
    assert isinstance(bk, FloatBackend) and bk.tol == 1e-6
    with pytest.raises(ValueError):
        get_backend("symbolic")
    # Callers ask the backend for its policy, never for its identity.
    assert not hasattr(EXACT, "name") and not hasattr(bk, "name")


def test_float_is_zero_uses_tolerance():
    bk = FloatBackend(tol=1e-9)
    assert bk.is_zero(1e-12)
    assert not bk.is_zero(1e-6)


def test_exact_zero_test_ignores_scale_and_float_underflow():
    # 10^-400 underflows to 0.0 as a float; the exact policy must not see it.
    x = ExactScalar(Fraction(1, 10 ** 400))
    assert EXACT.to_complex(x) == 0
    assert not EXACT.is_zero(x, scale=1e300)
    assert not all_zero(np.array([EXACT.zero, x], dtype=object), EXACT, scale=1e300)
    assert all_zero(np.array([EXACT.zero, x - x], dtype=object), EXACT)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, x):
    a, b, c, d = (sympy.Rational(f.numerator, f.denominator) for f in x.coeffs())
    r3 = sympy.sqrt(3)
    return a + b * sympy.I + c * r3 + d * sympy.I * r3


@given(wide_scalars, wide_scalars)
@settings(max_examples=40, deadline=None)
def test_arithmetic_matches_sympy(sympy, x, y):
    xs, ys = _to_sympy(sympy, x), _to_sympy(sympy, y)

    def same(exact, expected):
        return sympy.expand(_to_sympy(sympy, exact) - expected) == 0

    assert same(x + y, xs + ys)
    assert same(x - y, xs - ys)
    assert same(x * y, xs * ys)
    assert same(x.conj(), sympy.conjugate(xs))
    if x:
        assert sympy.expand(_to_sympy(sympy, x.inv()) * xs) == 1
        assert same(y / x * x, ys)


@given(wide_scalars, wide_scalars)
@settings(max_examples=60, deadline=None)
def test_normal_form(x, y):
    for z in (x, y, x + y, x - y, x * y, x.conj(), x.real_part(), y.imag_part()):
        a, b, c, d, q = z.ints()
        assert q > 0 and math.gcd(a, b, c, d, q) == 1
    if x:
        z = x * y * x.inv()
        assert z == y and hash(z) == hash(y)


def test_normal_form_examples():
    half = ExactScalar(Fraction(2, 4))
    assert half == ExactScalar(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(half) == hash(ExactScalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert half.ints() == (1, 0, 0, 0, 2)
    assert ExactScalar("-1/2", "1/3", 0, "5/6").ints() == (-3, 2, 0, 5, 6)
    assert ExactScalar(3) == 3 and hash(ExactScalar(3)) == hash(3)
    # Every zero is the one shared object, also after a copy.
    x = ExactScalar(1, 2, 3, 4)
    assert (x - x) is ExactScalar(0) is EXACT.zero is x * 0
    assert copy.deepcopy(EXACT.zero) is EXACT.zero
    assert pickle.loads(pickle.dumps(x)) == x


def test_coefficients_are_fractions():
    x = ExactScalar("3/4", -2, 0, "1/6")
    assert all(type(f) is Fraction for f in (x.a, x.b, x.c, x.d) + x.coeffs())
    assert x.coeffs() == (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(1, 6))
