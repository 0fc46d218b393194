"""The README's library quickstart runs and states true values."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_with_stated_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    ms = namespace["ms"]
    assert ms.k == 1
    assert ms.reduced_energy == 45 / 16
    assert ms.cos_alphas == (1 / 3,)
    assert len(ms.rotations) == 2
    assert namespace["trace"].values == [17.78125, 10.78125, 10.78125, 2.8125, 2.8125]
    full = namespace["rp"].rpolar_full(namespace["f"])
    assert full.reduced_energy == pytest.approx(0.75, abs=1e-12)
