"""Every demo runs to the end as a script.

The demos call the public API the way a user would, so an API change that
breaks one shows here. They run in-process (a subprocess each would cost
mostly imports) with the working directory set to a temporary one, since
some write ``demo_out/``.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
