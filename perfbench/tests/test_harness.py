"""The tracer's wrappers, and BENCHMARK.json against the benchmark's code."""

import json
from pathlib import Path

import cubicdisc.hk
import cubicdisc.orbit
from cubicdisc import irrep
from cubicdisc.scalars import FLOAT

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracer.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "op_p50_s", "ops_per_s", "peak_rss_mib"]


def test_spans_nest_and_wrappers_come_off():
    original = cubicdisc.hk.t_k_apply
    t = tracer.Tracer()
    t.install()
    try:
        assert cubicdisc.orbit.t_k_apply is cubicdisc.hk.t_k_apply
        assert cubicdisc.orbit.t_k_apply is not original
        cubicdisc.hk.t_k(cubicdisc.hk.kappa(irrep.s_hat(FLOAT)))
    finally:
        t.uninstall()
    assert cubicdisc.hk.t_k_apply is original
    assert cubicdisc.orbit.t_k_apply is original
    names = [s[0] for s in t.spans]
    assert names.count("hk.t_k_apply") == 10
    top = names.index("hk.t_k")
    assert all(s[3] >= top for s in t.spans[top + 1:])
    metrics = tracer.layer_metrics([t.dump()], 1, {})
    assert metrics["hk.t_k_apply.calls"] == 10
    assert metrics["hk.t_k_apply.distinct_ratio"] == 1.0
