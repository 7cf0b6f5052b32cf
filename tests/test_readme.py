"""The Python examples of README.md run as written."""

import re
from pathlib import Path

import pytest

from spinv.models import NigParams, simulate_nig

_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _README.read_text(), flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block-{i}" for i in range(len(_BLOCKS))])
def test_readme_example_runs(code, capsys):
    # the estimation example reads log_returns, which the README leaves to the
    # reader: 300 returns of the criterion-9 NIG stand in for them
    returns = simulate_nig(NigParams(chi=3e-4, psi=1000.0, mu=-3e-4, gamma=2.0), 300, seed=1)
    exec(compile(code, str(_README), "exec"), {"log_returns": returns})
    assert capsys.readouterr().out
