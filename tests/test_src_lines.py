"""The code-line count that CHANGES.md reports for src/ (tests/src_lines.py)."""

from src_lines import PACKAGE, code_lines, main

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment


def f(x):
    """A function docstring."""
    # a comment line
    return math.fsum([x,
                      1.0])
'''


def test_only_code_lines_count():
    # the import, the def, and the return split over two lines
    assert code_lines(SAMPLE) == 4


def test_the_total_sums_the_modules(capsys):
    assert main() == 0
    *modules, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert [name for _, name in modules] == sorted(p.name for p in PACKAGE.glob("*.py"))
    assert total == [str(sum(int(count) for count, _ in modules)), "total"]
