"""The README's Library example runs as written."""

import pathlib

import pytest

from conftest import run_python

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The README's one ```python block, under its Library heading."""
    text = README.read_text()
    section = text[text.index("## Library") :]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_readme_library_example_runs(flags):
    # under -O the example's asserts are stripped, and every call still runs
    proc = run_python(*flags, "-c", library_example(), timeout=60)
    assert proc.returncode == 0, proc.stderr
