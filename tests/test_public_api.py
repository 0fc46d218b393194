"""The package's public surface is ``rpolar.__all__`` and nothing else."""

import re
import types
from pathlib import Path

import rpolar as rp

README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED = ("frob_inner", "is_rotation", "eigsplit_symmetric", "project_rotation")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rpolar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rp.__all__)
    assert len(set(rp.__all__)) == len(rp.__all__)


def test_no_module_in_all():
    assert not [name for name in rp.__all__ if isinstance(getattr(rp, name), types.ModuleType)]


def test_readme_quickstart_names_are_public():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = set(re.findall(r"\brp\.([A-Za-z_]\w*)", block))
    assert names
    assert names <= set(rp.__all__)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(rp, name)
        assert not hasattr(rp.linalg, name)
        assert not hasattr(rp.blockdiag, name)
    assert not hasattr(rp.DiagParams, "matrix")
    assert not hasattr(rp.DiagParams, "perm_matrix")
    assert not hasattr(rp.oracle, "_project_batch")
