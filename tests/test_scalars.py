"""Field arithmetic in the exact backend, plus backend API behavior."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicdisc.scalars import (ExactScalar, EXACT, FLOAT, FloatBackend,
                               get_backend)
from cubicdisc.tensors import all_zero

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)


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
