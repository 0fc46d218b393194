"""The README's library quickstart runs and states true values."""

import re
from pathlib import Path

import numpy as np
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
    assert [(b.size, b.mu) for b in namespace["turn"].blocks] == [(2, -1.0)]
    rp, f, d, r = namespace["rp"], namespace["f"], namespace["d"], namespace["r"]
    full = rp.rpolar_full(f)
    assert full.reduced_energy == pytest.approx(0.75, abs=1e-12)
    assert rp.optimal_k(d) == ms.k
    assert rp.energy_weighted(full.rotations[0], f, mu=1.0, mu_c=0.0) == pytest.approx(
        0.75, abs=1e-12
    )
    run = namespace["run"]
    assert run.converged
    assert run.value == pytest.approx(45 / 16, abs=1e-12)
    grad = namespace["grad"]
    assert grad.shape == (5, 5)
    assert np.array_equal(grad, -grad.T)
    assert rp.frob_norm(grad) <= 1e-14
    assert rp.is_critical(r, d)
    r9 = namespace["r9"]
    assert rp.frob_norm(r9.T @ r9 - np.eye(5)) <= 1e-14
    assert rp.frob_norm(r9 - r) <= 1e-8
