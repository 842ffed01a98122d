"""README's "Library use" examples, run as written."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks of README's "Library use" section, in order."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def run_block(index: int, capsys) -> list[str]:
    blocks = library_blocks()
    assert len(blocks) == 2
    exec(compile(blocks[index], f"README.md Library use block {index}", "exec"), {})
    return capsys.readouterr().out.splitlines()


def test_attribution_example(capsys):
    (line,) = run_block(0, capsys)
    label, value = line.rsplit(":", 1)
    assert label == "mass on true effect drivers" and 0.0 <= float(value) <= 1.0


@pytest.mark.slow
def test_two_pass_cell_example(capsys):
    lines = run_block(1, capsys)
    assert len(lines) == 3 * 5  # three methods, five default learners
    for line in lines:
        method, learner, attr_pred, pehe = line.split()
        assert math.isfinite(float(attr_pred)) and math.isfinite(float(pehe))
