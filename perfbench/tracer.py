"""Span tracing around the public functions of the cubicdisc modules.

Wrappers are installed only for a traced run.  Each wrapped call records a
span [name, start, end, parent, op] in memory: `parent` is the index of the
enclosing span (-1 at the root) and `op` the index of the benchmark
operation that caused it.  Spans are written out when the run ends.

`ExactScalar.__mul__` gets a counter instead of a span (a span per scalar
product would cost more than the product), together with the largest
numerator or denominator bit length among the products.
"""

import functools
import json
import sys
import time

# Every function whose self time or call count is a per-layer metric.
# Self time is span time minus the time covered by child spans, so a
# function that is not listed here counts towards its caller.
TARGETS = (
    "tensors.frob", "tensors.all_zero", "tensors.slot_contract",
    "tensors.conj_arr", "tensors.sym4", "tensors.jmap4",
    "hk.t_k_apply", "hk.t_k", "hk.HKTensor.full8", "hk.kappa",
    "hk.lie_derivative_full8", "hk.eigen_multiplicity",
    "hk.contr_kxk_1_residual", "hk.contr_kxk_2_residual",
    "sp2.bracket", "sp2.endo_matrix", "sp2.dagger", "sp2.dollar_coords",
    "linalg.rref", "linalg.rank", "linalg.nullspace", "linalg.inverse",
    "linalg.solve", "linalg.SparseEliminator.add_row",
    "linalg.SparseEliminator.nullspace",
    "orbit.is_cd_theorem", "orbit.is_cd_coordinates", "orbit.orbit_dimension",
    "orbit.stabilizer", "orbit.cayley_sp2", "orbit.transport_hk",
    "orbit.k_from_frames",
    "irrep.casimir_decompose", "irrep.upsilon_lemma_residuals",
    "models.coframe_family", "models.CoframeSystem.jacobi_residual",
    "models.CoframeSystem.is_closed", "models.curvature_tensor",
    "bianchi.stage_one_nullspace", "bianchi.stage_two_nullspace",
    "suites.run_preliminaries", "suites.run_irrep", "suites.run_orbit",
    "suites.run_models", "suites.run_bianchi",
    "cli.main",
)

# A summary of the result is kept for these spans: the verdict, so that
# accepting and rejecting calls can be timed apart, and the number of
# nonzero eigenspaces that a Casimir decomposition found.
SUMMARIES = {
    "orbit.is_cd_theorem": lambda r: bool(r.verdict),
    "orbit.is_cd_coordinates": lambda r: bool(r.verdict),
    "irrep.casimir_decompose": len,
}


def _bits(r):
    return max(r.a.numerator.bit_length(), r.a.denominator.bit_length(),
               r.b.numerator.bit_length(), r.b.denominator.bit_length(),
               r.c.numerator.bit_length(), r.c.denominator.bit_length(),
               r.d.numerator.bit_length(), r.d.denominator.bit_length())


class Tracer:
    """Records spans and counters; `install` patches the cubicdisc modules."""

    def __init__(self):
        self.spans = []
        self.results = {}        # span index -> summary of the result
        self.stack = []
        self.op = -1
        self.mul_calls = 0
        self.max_bits = 0
        self.t_k_apply_keys = set()
        self._k_refs = {}        # keeps the K of each key alive, so ids stay unique
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, results = self.spans, self.stack, self.results
        clock = time.perf_counter
        summary = SUMMARIES.get(name)
        record_input = name == "hk.t_k_apply"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_input:
                self._note_t_k_apply(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if summary is not None:
                results[idx] = summary(result)
            return result
        return wrapper

    def _note_t_k_apply(self, K, X):
        self._k_refs[id(K)] = K
        self.t_k_apply_keys.add((self.op, id(K), tuple(X.ravel().tolist())))

    def install(self):
        """Wrap every target and every name that was bound to it by import."""
        import cubicdisc.cli  # noqa: F401  (imports every traced module)
        from cubicdisc.scalars import ExactScalar
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "cubicdisc"
                                      or n.startswith("cubicdisc."))]
        for target in TARGETS:
            modname, *path = target.split(".")
            owner = sys.modules["cubicdisc." + modname]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            orig = getattr(owner, path[-1])
            wrapped = self._wrap(target, orig)
            self._set(owner, path[-1], wrapped)
            if not isinstance(owner, type):
                self._rebind(mods, orig, wrapped)

        orig_mul = ExactScalar.__mul__

        def mul(a, b):
            r = orig_mul(a, b)
            self.mul_calls += 1
            if r.__class__ is ExactScalar:
                bits = _bits(r)
                if bits > self.max_bits:
                    self.max_bits = bits
            return r
        self._set(ExactScalar, "__mul__", mul)
        self._set(ExactScalar, "__rmul__", mul)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, mods, orig, wrapped):
        # `from .x import f` binds f in the importing module, and dispatch
        # tables such as `suites._RUNNERS` hold further references; both must
        # call the wrapper.
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapped)
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if v is orig:
                            self._undo.append((val, k, orig))
                            val[k] = wrapped

    def uninstall(self):
        while self._undo:
            table, key, value = self._undo.pop()
            if isinstance(table, dict):
                table[key] = value
            else:
                setattr(table, key, value)

    # -- output -----------------------------------------------------------

    def dump(self):
        return {"spans": self.spans,
                "results": {str(k): v for k, v in self.results.items()},
                "mul_calls": self.mul_calls, "max_bits": self.max_bits,
                "t_k_apply_distinct": len(self.t_k_apply_keys)}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


# -- per-layer metrics --------------------------------------------------------

SPLIT = ("orbit.is_cd_theorem", "orbit.is_cd_coordinates")
COUNTED = ("tensors.frob", "hk.t_k_apply", "sp2.bracket", "linalg.rref")
RATES = ("scalars.mul_per_s.small", "scalars.mul_per_s.wide",
         "scalars.add_per_s.wide", "scalars.inv_per_s.wide")


def _per_layer():
    """(name, unit, better) of every per-layer metric, grouped by module."""
    out = [("scalars.mul.calls", "count", "lower"),
           ("scalars.max_coeff_bits", "bit", "lower")]
    out += [(name, "1/s", "higher") for name in RATES]
    for target in TARGETS:
        if target == "cli.main":
            out.append(("cli.report.s", "s", "lower"))
        elif target in SPLIT:
            out += [(target + ".accept_s", "s", "lower"),
                    (target + ".reject_s", "s", "lower")]
        else:
            out.append((target + ".s", "s", "lower"))
        if target in COUNTED:
            out.append((target + ".calls", "count", "lower"))
        if target == "hk.t_k_apply":
            out.append(("hk.t_k_apply.distinct_ratio", "ratio", "higher"))
        if target == "irrep.casimir_decompose":
            out += [("irrep.casimir_decompose.rank_calls", "count", "lower"),
                    ("irrep.casimir_decompose.useful_ratio", "ratio", "higher")]
    return out


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(dumps, n_ops, rates):
    """Per-layer metrics from the trace dumps of `n_ops` operations.

    `.s` is self time per operation, `.calls` calls per operation; the
    accept_s/reject_s split is self time per accepting/rejecting call.
    """
    self_time, calls = {}, {}
    split = {}                      # (name, verdict) -> [time, count]
    rank_calls = eigenspaces = 0
    mul_calls = max_bits = distinct = 0
    for d in dumps:
        spans, results = d["spans"], d["results"]
        child = [0.0] * len(spans)
        in_casimir = [False] * len(spans)
        for idx, (name, t0, t1, parent, _op) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_casimir[idx] = (in_casimir[parent] or
                                   spans[parent][0] == "irrep.casimir_decompose")
        for idx, (name, t0, t1, parent, _op) in enumerate(spans):
            own = t1 - t0 - child[idx]
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name in SPLIT:
                acc = split.setdefault((name, results[str(idx)]), [0.0, 0])
                acc[0] += own
                acc[1] += 1
            elif name == "irrep.casimir_decompose":
                eigenspaces += results[str(idx)]
            elif name == "linalg.rank" and in_casimir[idx]:
                rank_calls += 1
        mul_calls += d["mul_calls"]
        max_bits = max(max_bits, d["max_bits"])
        distinct += d["t_k_apply_distinct"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = dict(rates)
    values["scalars.mul.calls"] = mul_calls / n_ops
    values["scalars.max_coeff_bits"] = max_bits
    for name, _unit, _better in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "s" and base in self_time:
            values[name] = self_time[base] / n_ops
        elif kind == "calls" and base in calls:
            values[name] = calls[base] / n_ops
        elif kind in ("accept_s", "reject_s"):
            t, n = split.get((base, kind == "accept_s"), (0.0, 0))
            values[name] = ratio(t, n)
    values["cli.report.s"] = self_time.get("cli.main", 0.0) / n_ops
    values["hk.t_k_apply.distinct_ratio"] = ratio(distinct,
                                                  calls.get("hk.t_k_apply", 0))
    values["irrep.casimir_decompose.rank_calls"] = rank_calls / n_ops
    values["irrep.casimir_decompose.useful_ratio"] = ratio(eigenspaces, rank_calls)
    return {name: values.get(name, 0) for name, _unit, _better in PER_LAYER}
