"""The package has one spectral layer: only `torus` imports scipy.fft,
no module calls a complex transform (every field is real, so real
transforms and the half spectrum serve throughout), and no other module
keeps its own relative divergence or antidivergence.  Likewise an iterate
triple is built in two places only: the seed and the step, and the Sobolev
norms are put together in `torus` only: no call selects a norm by a
`flavor` keyword, and only `torus` calls `hypot`."""

import ast
from pathlib import Path

import mikado_forge

PACKAGE_DIR = Path(mikado_forge.__file__).parent
SHADOWED = ("relative_divergence", "grad_of_invlap")
COMPLEX_TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "_fftn", "_ifftn")


def _modules():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert any(p.name == "torus.py" for p in paths)
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def _imports_scipy_fft(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "scipy.fft" or a.name.startswith("scipy.fft.")
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.fft" or node.module.startswith("scipy.fft."):
                return True
            if node.module == "scipy" and any(a.name == "fft" for a in node.names):
                return True
    return False


def test_only_torus_imports_scipy_fft():
    importers = [name for name, tree in _modules() if _imports_scipy_fft(tree)]
    assert importers == ["torus.py"]


def test_no_shadow_copies_of_torus_operators():
    shadows = [
        (name, node.name)
        for name, tree in _modules() if name != "torus.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(s in node.name for s in SHADOWED)
    ]
    assert shadows == []


def test_no_complex_transforms():
    calls = [
        (name, node.lineno)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in COMPLEX_TRANSFORMS
    ]
    assert calls == []
    torus = dict(_modules())["torus.py"]
    defined = {node.name for node in ast.walk(torus) if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint(COMPLEX_TRANSFORMS)


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
