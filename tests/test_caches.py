"""Cached results: every array a cached function returns is read-only, and
one float backend per tolerance keeps each cache at one entry per backend."""

import importlib
import pkgutil

import numpy as np
import pytest

import cubicdisc
from cubicdisc.scalars import EXACT, FLOAT, ExactArray, FloatBackend, get_backend
from cubicdisc.suites import run_suite

# The arguments of a cached function, where they are not its backend alone.
ARGS = {"eye": lambda bk: (4, bk), "sym_index": lambda bk: (3,)}


def cached_functions():
    """Every lru_cache'd function defined in a cubicdisc module, by name."""
    out = {}
    for info in pkgutil.iter_modules(cubicdisc.__path__):
        mod = importlib.import_module("cubicdisc." + info.name)
        for name, fn in vars(mod).items():
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                out[info.name + "." + name] = fn
    return out


def _arrays(value):
    """The arrays in a cached result: itself, a tuple of them, the four
    integer planes of an ExactArray, or the component array of a SymQuartic."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, ExactArray):
        return list(value.planes)
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return _arrays(value.S)


def test_cached_functions_are_found():
    assert {"tensors.pmat", "tensors.q_tensor", "irrep.rep_w", "irrep.upsilons",
            "sp2.real_basis", "sp2._dagger_kernel", "orbit._compact_terms",
            "tensors.sym_index"} <= set(cached_functions())


def test_split_kernels_are_held_split():
    # The dagger kernel, the structure constants of sp(2) and the constant
    # terms of the quartic conditions are cached in split form, so no call
    # splits them again.
    for name in ("sp2._dagger_kernel", "sp2.structure_constants"):
        assert isinstance(cached_functions()[name](EXACT), ExactArray), name
    for A in cached_functions()["orbit._compact_terms"](EXACT)[:2]:
        assert isinstance(A, ExactArray)


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_cached_arrays_are_read_only(bk):
    for name, fn in cached_functions().items():
        arrays = _arrays(fn(*ARGS.get(name.split(".")[1], lambda bk: (bk,))(bk)))
        assert arrays, name
        for A in arrays:
            assert not A.flags.writeable, name


def test_one_float_backend_per_tolerance():
    assert get_backend("float", 1e-9) == FLOAT
    assert hash(get_backend("float", 1e-9)) == hash(FLOAT)
    assert get_backend("float", 1e-6) != FLOAT
    assert FloatBackend(1e-9) != EXACT


def test_second_float_run_adds_no_cache_entries():
    caches = cached_functions()
    run_suite("all", "float")
    before = {name: fn.cache_info().currsize for name, fn in caches.items()}
    run_suite("all", "float")
    assert {name: fn.cache_info().currsize for name, fn in caches.items()} == before
