"""JSON round trips for quartics, curvature tensors, and coframes."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubicdisc.scalars import EXACT, FLOAT
from cubicdisc.tensors import zeros
from cubicdisc import jsonio, irrep, hk, models, orbit

bk = EXACT


def test_scalar_roundtrip_exact():
    x = bk.scalar("3/4", -2, 0, "1/6")
    d = jsonio.scalar_to_json(x, bk)
    assert d == {"a": "3/4", "b": "-2", "c": "0", "d": "1/6"}
    assert jsonio.scalar_from_json(d, bk) == x


def test_scalar_float_form():
    d = jsonio.scalar_to_json(complex(1.5, -2.0), FLOAT)
    assert d == {"re": 1.5, "im": -2.0}
    assert jsonio.scalar_from_json(d, FLOAT) == complex(1.5, -2.0)
    with pytest.raises(ValueError):
        jsonio.scalar_from_json(d, bk)


def test_quartic_roundtrip():
    q = irrep.s_hat(bk)
    text = jsonio.dumps(q)
    data = json.loads(text)
    assert data["kind"] == "quartic"
    assert len(data["components"]) == 35
    back = jsonio.loads(text, bk)
    assert back == q


def test_quartic_roundtrip_random():
    q = orbit.random_quartic(42, bk)
    assert jsonio.loads(jsonio.dumps(q), bk) == q


def test_hk_roundtrip():
    K = hk.kappa(irrep.s_hat(bk))
    text = jsonio.dumps(K)
    back = jsonio.loads(text, bk)
    assert back == K


def test_exact_payload_loads_into_float_backend():
    q = irrep.s_hat(bk)
    qf = jsonio.loads(jsonio.dumps(q), FLOAT)
    v = qf.S[0, 1, 2, 3]
    assert abs(v - (-0.75)) < 1e-12


def test_coframe_roundtrip():
    cs = models.compact_model(bk)
    text = jsonio.dumps(cs)
    back = jsonio.loads(text, bk)
    assert back.h == cs.h
    assert np.array_equal(back.d.astype(bool), cs.d.astype(bool))
    assert (back.d == cs.d).all()
    assert back.is_closed()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        jsonio.loads(json.dumps({"kind": "mystery"}), bk)


def test_dumps_deterministic():
    q = irrep.s_hat(bk)
    assert jsonio.dumps(q) == jsonio.dumps(q)


ONE = {"a": "1", "b": "0", "c": "0", "d": "0"}


@pytest.mark.parametrize("kind", ["quartic", "hk_tensor"])
@pytest.mark.parametrize("key", ["15", "1111 ", "11111", "0123", "12a4", ""])
def test_malformed_key_names_the_key(kind, key):
    payload = json.dumps({"kind": kind, "components": {key: ONE}})
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        jsonio.loads(payload, bk)


def test_conflicting_permuted_quartic_keys_rejected():
    data = json.loads(jsonio.dumps(irrep.s_hat(bk)))
    data["components"]["2111"] = ONE       # a permutation of "1112" = 0
    with pytest.raises(ValueError, match="'1112' and '2111'"):
        jsonio.loads(json.dumps(data), bk)
    data["components"]["2111"] = data["components"]["1112"]
    assert jsonio.loads(json.dumps(data), bk) == irrep.s_hat(bk)


def test_hk_payload_must_be_of_hk_type():
    payload = json.dumps({"kind": "hk_tensor", "components": {"1111": ONE}})
    with pytest.raises(ValueError):
        jsonio.loads(payload, bk)


json_atoms = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(), st.text(alphabet="0123/-.ae ", max_size=5))
scalar_values = st.one_of(
    st.just(ONE), json_atoms, st.lists(json_atoms, max_size=2),
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "re", "im"]),
                    json_atoms, max_size=6))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["quartic", "hk_tensor"]),
       keys=st.lists(st.text(alphabet="012345a ", max_size=6), max_size=4),
       values=st.lists(scalar_values, max_size=4),
       as_list=st.booleans(), backend=st.sampled_from([EXACT, FLOAT]))
@example(kind="quartic", keys=["1111"], values=[{"a": "1"}], as_list=False,
         backend=EXACT)
@example(kind="hk_tensor", keys=["1111"], values=[ONE], as_list=True,
         backend=EXACT)
@example(kind="quartic", keys=["1111"], values=[1], as_list=False,
         backend=FLOAT)
def test_loaders_raise_only_value_error_on_random_keys(kind, keys, values,
                                                       as_list, backend):
    comps = {k: v for k, v in zip(keys, values + [ONE] * len(keys))}
    payload = json.dumps({"kind": kind,
                          "components": list(comps.items()) if as_list else comps})
    try:
        jsonio.loads(payload, backend)
    except ValueError as exc:
        if "not a scalar" in str(exc):
            assert any("component %r" % (k,) in str(exc) for k in comps)


def _coframe(**fields):
    data = {"kind": "coframe", "labels": list(models.LABELS), "d": {}}
    data.update(fields)
    return json.dumps(data)


@pytest.mark.parametrize("payload, names", [
    (_coframe(labels=None), "labels"),
    (_coframe(labels=list(models.LABELS[:-1]) + ["th5b"]), "labels"),
    (_coframe(d=[]), '"d"'),
    (_coframe(d={"th5": []}), "'th5'"),
    (_coframe(d={"psi1": {}}), "'psi1'"),
    (_coframe(d={"psi1": ["th1", "th2", ONE]}), "'psi1'.*'th1'"),
    (_coframe(d={"psi1": [["th1", "th2"]]}), r"'psi1'.*\['th1', 'th2'\]"),
    (_coframe(d={"psi1": [["th1", "th9", ONE]]}), "'psi1'.*'th9'"),
    (_coframe(d={"psi1": [[["th1"], "th2", ONE]]}), r"'psi1'.*\['th1'\]"),
    (_coframe(d={"phi1": [["th1", "th1", ONE]]}), "'phi1'.*'th1', 'th1'"),
    (_coframe(d={"psi1": [["th1", "th2", 1]]}), "'psi1'.*'th1', 'th2'"),
], ids=["no_labels", "unknown_label", "d_list", "unknown_form", "rows_object",
        "rows_flat", "short_row", "row_unknown_label", "row_label_list",
        "repeated_label", "bad_scalar"])
def test_malformed_coframe_names_the_component(payload, names):
    with pytest.raises(ValueError, match=names):
        jsonio.loads(payload, bk)


def test_reversed_coframe_row_loads_as_sorted_row_negated():
    two = {"a": "2", "b": "0", "c": "0", "d": "0"}
    cs = jsonio.loads(_coframe(d={"psi1": [["th2", "th1", two]]}), bk)
    expect = zeros((models.N_FORMS, models.N_FORMS), bk)
    expect[models.TH0, models.TH0 + 1] = bk.rational(-2)
    expect[models.TH0 + 1, models.TH0] = bk.rational(2)
    assert (cs.d[0] == expect).all()
    assert not cs.d[1:].astype(bool).any()
    assert (jsonio.loads(jsonio.dumps(cs), bk).d[0] == cs.d[0]).all()


def test_rows_on_one_pair_add_up():
    two = {"a": "2", "b": "0", "c": "0", "d": "0"}
    cs = jsonio.loads(_coframe(d={"psi1": [["th1", "th2", two], ["th2", "th1", ONE],
                                           ["th1", "th2", ONE]]}), bk)
    assert cs.d[0, models.TH0, models.TH0 + 1] == bk.rational(2)
    assert cs.d[0, models.TH0 + 1, models.TH0] == bk.rational(-2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), backend=st.sampled_from([EXACT, FLOAT]))
@example(seed=0, backend=EXACT)
@example(seed=0, backend=FLOAT)
def test_cayley_transported_points_roundtrip(seed, backend):
    # K on the orbit of kappa(S_hat), with the wide coefficients a Cayley
    # transport gives, and its quartic: equal after a round trip, exactly on
    # exact and within tol on float (the backend's == in both cases).
    M = orbit.cayley_sp2(orbit.random_sp2(seed, backend), backend)
    K = orbit.transport_hk(hk.kappa(irrep.s_hat(backend)), M)
    for obj in (K, K.quartic()):
        back = jsonio.loads(jsonio.dumps(obj), backend)
        assert type(back) is type(obj)
        assert back == obj
