"""The package's public surface is ``rpolar.__all__`` and nothing else."""

import re
import sys
import tokenize
import types
from pathlib import Path

import rpolar as rp
from rpolar.critical import DiagParams

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

REMOVED = (
    "frob_inner",
    "is_rotation",
    "eigsplit_symmetric",
    "project_rotation",
    "stationarity_defect",
    "is_symmetric_square",
    "as_diag",
    "DiagParams",
    "NonIsolatedWarning",
)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rpolar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rp.__all__)
    assert len(set(rp.__all__)) == len(rp.__all__)


def test_no_module_in_all():
    assert not [name for name in rp.__all__ if isinstance(getattr(rp, name), types.ModuleType)]


def readme_names() -> set[str]:
    """The names the README's python block uses as ``rp.<name>``."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return set(re.findall(r"\brp\.([A-Za-z_]\w*)", block))


def identifiers(path: Path) -> set[str]:
    """The identifiers in a Python file's code, not its comments or strings."""
    with path.open("rb") as source:
        return {t.string for t in tokenize.tokenize(source.readline) if t.type == tokenize.NAME}


def test_readme_quickstart_names_are_public():
    names = readme_names()
    assert names
    assert names <= set(rp.__all__)


def test_every_public_function_has_a_caller_or_a_readme_example():
    # callers: the package's modules other than __init__, and perfbench
    # outside its tests; a function's own module does not count
    callers = [p for p in (ROOT / "src" / "rpolar").glob("*.py") if p.stem != "__init__"]
    callers += [p for p in (ROOT / "perfbench").glob("*.py") if not p.stem.startswith("test_")]
    used = {path.resolve(): identifiers(path) for path in callers}
    documented = readme_names()
    orphans = []
    for name in rp.__all__:
        obj = getattr(rp, name)
        if isinstance(obj, type) or name in documented:
            continue
        own = Path(sys.modules[obj.__module__].__file__).resolve()
        if not any(name in names for path, names in used.items() if path != own):
            orphans.append(name)
    assert orphans == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(rp, name)
        assert not hasattr(rp.linalg, name)
        assert not hasattr(rp.blockdiag, name)
    assert not hasattr(rp.critical, "stationarity_defect")
    assert not hasattr(rp.errors, "NonIsolatedWarning")
    assert not hasattr(DiagParams, "matrix")
    assert not hasattr(DiagParams, "perm_matrix")
    assert not hasattr(rp.oracle, "_project_batch")
