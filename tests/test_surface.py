"""Every library function has a caller in src/ or a stated reason to exist.

The functions and public methods of `src/cubicdisc` are listed with `ast`.
A function counts as called when its name is used in some module of src/
(bare, after a `from` import, or as `module.name`) outside its own body; a
method counts as called when some attribute access outside a module name
reads it.  Anything else must be in ALLOWED with a one-line reason, so that
code only the tests use cannot come back unlabeled.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cubicdisc"

ALLOWED = {
    # entry points
    "jsonio.dumps": "entry point: JSON serialization of quartics, tensors, coframes",
    "jsonio.loads": "entry point: JSON deserialization, the inverse of dumps",
    "hk.tangent_H": "entry point: the tangent-space operator H of the paper",
    "irrep.module_sp2": "entry point: the sp(2) carrier of the torsion benchmark",
    # reference routes that tests compare the working route against
    "hk.HKTensor.bianchi_residual": "reference route: first Bianchi identity",
    "hk.HKTensor.j_invariance_residual": "reference route: J_s-invariance",
    "hk.HKTensor.pair_symmetry_residual": "reference route: pair symmetry",
    "hk.t_k_matrix_from_quartic": "reference route: T_K read off the quartic",
    "hk.t_k_from_orthonormal_sum": "reference route: T_K by its defining sum",
    "hk.hk_from_endo": "reference route: K back from T_K",
    "hk.tangent_H_from_contraction": "reference route: H by double contraction",
    "irrep.module_56": "reference route: the 56-dimensional torsion carrier",
    # tracer targets of perfbench/tracer.py
    "linalg.rref": "tracer target",
}


def _surface():
    """(qualified name, module, def node) of every function and public method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.append((mod + "." + node.name, mod, node))
            elif isinstance(node, ast.ClassDef):
                out.extend((mod + "." + node.name + "." + sub.name, mod, sub)
                           for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not sub.name.startswith("_"))
    return out


def _uses():
    """(kind, name, file module, line) of every name use in src/."""
    mods = {p.stem for p in SRC.glob("*.py")}
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.append(("function", node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in mods
                out.append(("function" if on_module else "method", node.attr,
                            path.stem, node.lineno))
    return out


def _uncalled():
    uses = _uses()
    out = set()
    for qual, mod, node in _surface():
        kind = "method" if qual.count(".") == 2 else "function"
        name = qual.rsplit(".", 1)[1]
        if not any(k == kind and n == name
                   and not (m == mod and node.lineno <= line <= node.end_lineno)
                   for k, n, m, line in uses):
            out.add(qual)
    return out


def test_every_function_has_a_caller_or_a_reason():
    unlabeled = _uncalled() - set(ALLOWED)
    assert not unlabeled, "no caller in src/ and no reason in ALLOWED: %s" % (
        sorted(unlabeled),)


def test_allowlist_names_only_uncalled_functions():
    stale = set(ALLOWED) - _uncalled()
    assert not stale, "called in src/ or gone, drop from ALLOWED: %s" % (
        sorted(stale),)
