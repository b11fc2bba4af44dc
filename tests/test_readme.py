"""The README's python blocks run as written, so a change that removes or
renames a public name they use fails here instead of leaving the docs
broken; and its table of scenario kinds names each runner's parameters."""
from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from quasidiff.scenarios import _RUNNERS

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {})


def documented_params() -> dict:
    """The rows of the "Kind | Params" table, keyed by (kind, mode), mode
    None for a kind with one runner: each parameter named in a row, in
    backticks, mapped to whether its first mention is followed by a
    parenthesised default."""
    table = TEXT.split("| Kind | Params (default) |", 1)[1]
    rows = {}
    for line in table.split("\n")[2:]:
        if not line.startswith("|"):
            break
        kind_cell, params_cell = line.strip("|").split(" | ", 1)
        kind = re.match(r"\s*`(\w+)`", kind_cell).group(1)
        mode = re.search(r'`mode` "(\w+)"', kind_cell)
        params = {}
        for found in re.finditer(r"`(\w+)`( \()?", params_cell):
            params.setdefault(found.group(1), found.group(2) is not None)
        rows[kind, mode and mode.group(1)] = params
    return rows


def runner_params() -> dict:
    """Each runner's keyword parameters, keyed as ``documented_params``
    keys the table, mapped to whether the parameter has a default."""
    runners = {}
    for kind, runner in _RUNNERS.items():
        if not isinstance(runner, dict):
            runner = {None: runner}
        for mode, fn in runner.items():
            runners[kind, mode] = {
                p.name: p.default is not p.empty
                for p in inspect.signature(fn).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
    return runners


def test_kind_table_matches_the_runners():
    assert documented_params() == runner_params()
