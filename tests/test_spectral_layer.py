"""The package has one spectral layer: only `torus` imports numpy.fft,
no module imports scipy, every field is real, so real transforms and the half spectrum serve
throughout and no full complex spectrum is formed (the only complex
transforms are the leading-axis stages of a real transform, in three
named `torus` kernels), the real transforms are called in four named
`torus` functions only, so no private transform helper exists beside the
forward `_fft_of` and the inverse `_irfftn`, and no other module keeps
its own relative divergence or antidivergence.  The derivative symbol
2 pi i k is built by `torus._ik` only, beside the de-aliased product's
normalised copy, and the derivative frequencies `k1_diff` are read inside
`TorusGrid` only.  No module but `torus` reads the grid's frequencies, and
no grid caches a full-spectrum array.  Likewise an iterate
triple is built in two places only: the seed and the step, and the Sobolev
norms are put together in `torus` only: no call selects a norm by a
`flavor` keyword, and only `torus` calls `hypot`.  And every name a module
exports in `__all__` is used by the package or the benchmark, not by tests
alone.  The solver starts no threaded BLAS: `solve` and its GMRES call no
BLAS inner product or norm and no matrix product, and importing the
package and its CLI loads no scipy module at all."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np

import mikado_forge
from mikado_forge.convexint import StepParams, assemble_step, equation_residual
from mikado_forge.mikado import build_family
from mikado_forge.seeds import shifted_cosine_seed
from mikado_forge.torus import TorusGrid

PACKAGE_DIR = Path(mikado_forge.__file__).parent
PERFBENCH_DIR = PACKAGE_DIR.parents[1] / "perfbench"
SHADOWED = ("relative_divergence", "grad_of_invlap")
COMPLEX_TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "_fftn", "_ifftn")
REAL_TRANSFORMS = ("rfft", "rfftn", "irfft", "irfftn", "_rfftn")


def _modules():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert any(p.name == "torus.py" for p in paths)
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def _imports(tree, module: str) -> bool:
    """Whether tree imports module or one of its submodules, or reads it as
    an attribute of its imported parent (`np.fft`)."""
    parent, _, leaf = module.rpartition(".")

    def within(name: str) -> bool:
        return name == module or name.startswith(module + ".")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(within(a.name) for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if within(node.module):
                return True
            if parent and node.module == parent and any(a.name == leaf for a in node.names):
                return True
        elif (parent == "numpy" and isinstance(node, ast.Attribute) and node.attr == leaf
              and getattr(node.value, "id", None) in ("np", "numpy")):
            return True
    return False


def test_only_torus_imports_numpy_fft():
    modules = _modules()
    assert [name for name, tree in modules if _imports(tree, "numpy.fft")] == ["torus.py"]
    assert [name for name, tree in modules if _imports(tree, "scipy")] == []


def test_an_fft_or_scipy_import_elsewhere_is_caught():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    sources["convexint.py"] = "import scipy.fft as sfft\n" + sources["convexint.py"]
    sources["driftdiff.py"] += "\n\ndef _probe(x):\n    return np.fft.rfftn(x)\n"
    sources["mikado.py"] = "from numpy import fft\n" + sources["mikado.py"]
    sources["seeds.py"] = "from scipy import special\n" + sources["seeds.py"]
    patched = [(name, ast.parse(src)) for name, src in sources.items()]
    assert [name for name, tree in patched if _imports(tree, "numpy.fft")] == [
        "driftdiff.py", "mikado.py", "torus.py"]
    assert [name for name, tree in patched if _imports(tree, "scipy")] == [
        "convexint.py", "seeds.py"]


def test_no_shadow_copies_of_torus_operators():
    shadows = [
        (name, node.name)
        for name, tree in _modules() if name != "torus.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(s in node.name for s in SHADOWED)
    ]
    assert shadows == []


# the leading-axis stages of the two-pass half-spectrum transforms, inverse
# and forward, and of the pruned de-aliased product: (module, top-level
# function, callee)
COMPLEX_STAGES = {
    ("torus.py", "_irfftn", "ifft"),
    ("torus.py", "_fft_of", "fft"),
    ("torus.py", "_dealiased_product_divergence", "ifft"),
    ("torus.py", "_dealiased_product_divergence", "fft"),
}


# the real transforms: the last-axis stages of the forward and inverse
# kernels and of the pruned product, and the 1-d derivative of the
# slab-wise norm
REAL_STAGES = {
    ("torus.py", "_fft_of", "rfft"),
    ("torus.py", "_irfftn", "irfft"),
    ("torus.py", "_dealiased_product_divergence", "rfft"),
    ("torus.py", "_dealiased_product_divergence", "irfft"),
    ("torus.py", "axis_derivative_norm", "rfft"),
    ("torus.py", "axis_derivative_norm", "irfft"),
}


def _transform_calls(modules, callees=COMPLEX_TRANSFORMS) -> set:
    """(module, enclosing top-level definition or None, callee) of every
    call of one of callees."""
    return {
        (name, getattr(top, "name", None), callee)
        for name, tree in modules
        for top in tree.body
        for call in ast.walk(top)
        if isinstance(call, ast.Call)
        and (callee := getattr(call.func, "attr", getattr(call.func, "id", None)))
        in callees
    }


def test_no_complex_transforms():
    assert _transform_calls(_modules()) == COMPLEX_STAGES
    torus = dict(_modules())["torus.py"]
    defined = {node.name for node in ast.walk(torus) if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint(COMPLEX_TRANSFORMS)


def test_real_transforms_are_called_by_the_pinned_functions_only():
    assert _transform_calls(_modules(), REAL_TRANSFORMS) == REAL_STAGES
    torus = dict(_modules())["torus.py"]
    defined = {node.name for node in ast.walk(torus) if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint(REAL_TRANSFORMS)


def test_a_complex_transform_elsewhere_is_caught():
    # a complex transform in any other module, or in any other torus
    # function, is not one of the pinned stages
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    injections = [
        ("convexint.py", "\n\ndef _probe(x):\n    return np.fft.fftn(x)\n",
         ("convexint.py", "_probe", "fftn")),
        ("torus.py", "\n\ndef _probe(x):\n    return nfft.ifft(x, axis=0)\n",
         ("torus.py", "_probe", "ifft")),
    ]
    for module, text, expected in injections:
        patched = [(name, ast.parse(src + text if name == module else src))
                   for name, src in sources.items()]
        assert _transform_calls(patched) - COMPLEX_STAGES == {expected}


def test_a_private_real_transform_is_caught():
    # a re-added raw forward helper, and a module calling it
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    sources["torus.py"] += ("\n\ndef _rfftn(a):\n"
                            "    return nfft.rfftn(a)\n")
    sources["driftdiff.py"] += "\n\ndef _probe(u):\n    return _rfftn(u)\n"
    patched = [(name, ast.parse(src)) for name, src in sources.items()]
    assert _transform_calls(patched, REAL_TRANSFORMS) - REAL_STAGES == {
        ("torus.py", "_rfftn", "rfftn"), ("driftdiff.py", "_probe", "_rfftn")}


# the builders of the derivative symbol from the derivative frequencies:
# `_ik`, and the de-aliased product's `coef`, which also carries the
# product's forward normalisation 1/M: (module, top-level definition)
DERIVATIVE_SYMBOLS = {
    ("torus.py", "_ik"),
    ("torus.py", "_dealiased_product_divergence"),
}


def _derivative_frequency_reads(modules) -> set:
    """(module, enclosing top-level definition) of every axis_k call with
    a constant true diff, and of every read of k1_diff outside the
    `TorusGrid` class that defines it."""
    def diff_true(call) -> bool:
        flags = [k.value for k in call.keywords if k.arg == "diff"] + call.args[1:2]
        return any(isinstance(f, ast.Constant) and f.value for f in flags)

    return {
        (name, top.name)
        for name, tree in modules
        for top in tree.body
        if not (isinstance(top, ast.ClassDef) and top.name == "TorusGrid")
        for node in ast.walk(top)
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "axis_k"
            and diff_true(node))
        or (isinstance(node, ast.Attribute) and node.attr == "k1_diff")
    }


def test_the_derivative_symbol_is_built_in_one_place():
    assert _derivative_frequency_reads(_modules()) == DERIVATIVE_SYMBOLS


def test_a_private_derivative_symbol_is_caught():
    # a re-added solver symbol -2 pi i k, and a torus helper building the
    # symbol from k1_diff
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    bvals = "    bvals = [c.values for c in b.components]\n"
    assert sources["driftdiff.py"].count(bvals) == 1
    sources["driftdiff.py"] = sources["driftdiff.py"].replace(
        bvals, "    minus_d = [-2j * np.pi * grid.axis_k(ax, diff=True)"
               " for ax in range(grid.dim)]\n" + bvals)
    sources["torus.py"] += ("\n\ndef _probe(grid, axis):\n"
                            "    return (2j * np.pi) * grid.k1_diff[: grid.n // 2 + 1]\n")
    patched = [(name, ast.parse(src)) for name, src in sources.items()]
    assert _derivative_frequency_reads(patched) - DERIVATIVE_SYMBOLS == {
        ("driftdiff.py", "_split_system"), ("torus.py", "_probe")}


# the grid's frequency arrays and the methods that build symbols from them
GRID_FREQUENCIES = ("axis_k", "k_squared_rows", "k_squared_diff", "k1", "k1_diff")


def _frequency_reads(modules) -> set:
    """(module, enclosing top-level definition) of every attribute read of
    the grid's frequencies in a module other than `torus`."""
    return {
        (name, getattr(top, "name", None))
        for name, tree in modules if name != "torus.py"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in GRID_FREQUENCIES
    }


def test_the_grid_frequencies_are_read_in_torus_only():
    assert _frequency_reads(_modules()) == set()


def test_a_private_laplacian_symbol_is_caught():
    # a re-added solver symbol 4 pi^2 |k|^2
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    bvals = "    bvals = [c.values for c in b.components]\n"
    assert sources["driftdiff.py"].count(bvals) == 1
    sources["driftdiff.py"] = sources["driftdiff.py"].replace(
        bvals, "    lap = 4.0 * np.pi ** 2 * grid.k_squared_rows(slice(None), diff=True)\n"
               + bvals)
    patched = [(name, ast.parse(src)) for name, src in sources.items()]
    assert _frequency_reads(patched) == {("driftdiff.py", "_split_system")}


def test_a_step_and_its_residual_cache_no_spectrum_on_the_grid():
    # every array a grid caches is one of its 1-d frequency or coordinate
    # arrays, of at most n elements
    g = TorusGrid(3, 32)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=2.0)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=64.0)
    params = StepParams(delta=t0.f_l1 / 16, lam=1, mu=7.0, mode="W1R", r=1.1)
    t1, _ = assemble_step(t0, params, fam)
    equation_residual(t1)
    for grid in (g, t1.grid, fam.grid):
        cached = [a for a in vars(grid).values() if isinstance(a, np.ndarray)]
        assert cached and all(a.size <= grid.n for a in cached)


def test_iterate_triples_are_built_by_the_seed_and_the_step_only():
    builders = [
        (name, func.name)
        for name, tree in _modules()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "IterateTriple"
    ]
    assert sorted(builders) == [("convexint.py", "assemble_step"), ("seeds.py", "seed_triple")]


def test_sobolev_norms_are_put_together_in_torus_only():
    calls = [(name, node) for name, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    flavored = [(name, node.lineno) for name, node in calls
                if any(k.arg == "flavor" for k in node.keywords)]
    assert flavored == []
    hypot = sorted({name for name, node in calls
                    if getattr(node.func, "attr", getattr(node.func, "id", None)) == "hypot"})
    assert hypot == ["torus.py"]


def _unreferenced_exports(modules, others) -> set:
    """(module, name) of every `__all__` entry that no Name or Attribute
    node refers to, in modules and others, outside the name's own
    definition; imports and `__all__` entries are no such nodes."""
    exports = {
        (name, elt.value)
        for name, tree in modules
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }

    def refs(node, skip: str | None):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name == skip):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from refs(child, skip)

    trees = modules + others
    return {
        (module, name) for module, name in exports
        if not any(ref == name for tree_name, tree in trees
                   for ref in refs(tree, name if tree_name == module else None))
    }


def _perfbench_modules():
    paths = sorted(PERFBENCH_DIR.rglob("*.py"))
    assert any(p.name == "workloads.py" for p in paths)
    return [(str(p.relative_to(PERFBENCH_DIR)), ast.parse(p.read_text(encoding="utf-8")))
            for p in paths]


def test_every_export_is_used_outside_the_tests():
    assert _unreferenced_exports(_modules(), _perfbench_modules()) == set()


def test_an_export_only_tests_use_is_caught():
    # a re-added alias that no module calls, and a recursive operator whose
    # only caller is itself
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    sources["torus.py"] = sources["torus.py"].replace(
        '__all__ = [', '__all__ = [\n    "make_grid",\n    "laplacian",') + (
        "\n\ndef make_grid(d, n):\n    return TorusGrid(dim=int(d), n=int(n))\n"
        "\n\ndef laplacian(f):\n    if isinstance(f, VectorField):\n"
        "        return [laplacian(c) for c in f.components]\n    return f\n")
    patched = [(name, ast.parse(src)) for name, src in sources.items()]
    assert _unreferenced_exports(patched, _perfbench_modules()) == {
        ("torus.py", "make_grid"), ("torus.py", "laplacian")}


# the numpy calls that run on the threaded BLAS pool for field-sized
# vectors, and the functions that must not make them
BLAS_CALLS = {("np", "dot"), ("np", "vdot"), ("np", "inner"), ("linalg", "norm")}
SOLVER_FUNCTIONS = ("solve", "_gmres")


def _blas_calls(modules) -> set:
    """(module, top-level function, call) of every BLAS inner product,
    norm or matrix product (`@`) in the solver functions."""
    found = set()
    for name, tree in modules:
        for top in tree.body:
            if not (isinstance(top, ast.FunctionDef) and top.name in SOLVER_FUNCTIONS):
                continue
            for node in ast.walk(top):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.add((name, top.name, "@"))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = node.func.value
                    owner = getattr(owner, "id", getattr(owner, "attr", None))
                    if (owner, node.func.attr) in BLAS_CALLS:
                        found.add((name, top.name, node.func.attr))
    return found


def test_the_solver_makes_no_blas_call():
    modules = _modules()
    defined = {(name, top.name) for name, tree in modules for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name in SOLVER_FUNCTIONS}
    assert defined == {("driftdiff.py", "solve"), ("driftdiff.py", "_gmres")}
    assert _blas_calls(modules) == set()


def test_a_blas_call_in_the_solver_is_caught():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    line = "    apply_a, p_rhs, apply_b, p_values = _split_system(b, grid)\n"
    assert sources["driftdiff.py"].count(line) == 1
    sources["driftdiff.py"] = sources["driftdiff.py"].replace(
        line, line + "    fl2 = np.linalg.norm(f.values) + np.dot(f.values.ravel(), f.values.ravel())"
                     " + f.values.ravel() @ f.values.ravel()\n")
    dot = "w -= hij * basis[i]"
    assert sources["driftdiff.py"].count(dot) == 1
    sources["driftdiff.py"] = sources["driftdiff.py"].replace(
        dot, "w -= np.vdot(basis[i], w) * np.inner(basis[i], w) * basis[i]")
    patched = [(name, ast.parse(src)) for name, src in sources.items()]
    assert _blas_calls(patched) == {
        ("driftdiff.py", "solve", "norm"), ("driftdiff.py", "solve", "dot"),
        ("driftdiff.py", "solve", "@"), ("driftdiff.py", "_gmres", "vdot"),
        ("driftdiff.py", "_gmres", "inner")}


def test_importing_the_package_loads_no_sparse_module():
    # nor, with the CLI, any scipy module: every transform is numpy's
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mikado_forge; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse'))); "
            "import mikado_forge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(PACKAGE_DIR.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "[]"]
