"""`tools/linecov.py`'s statement table on a small source string."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)

SOURCE = '''\
"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    total = 0

    def g():
        nonlocal total
        total += 1
    global Y
    try:
        g()
    except ValueError:
        pass
    else:
        x = (1,
             2)
    finally:
        pass
    return total


@decorator
class C:
    """Class docstring."""
    y = 1
'''


def test_statements_of_a_small_source():
    found = {first: (span.start, span.stop) for first, span in linecov.statements(SOURCE)}
    # absent: the docstrings (lines 1, 6, 27), nonlocal (10), global (12) and
    # the try/else/finally headers (13, 17, 20)
    assert found == {
        2: (2, 3),  # import os
        5: (5, 6),  # def f: its header
        7: (7, 8),
        9: (9, 10),  # def g
        11: (11, 12),
        14: (14, 15),
        15: (15, 16),  # except ValueError: its header
        16: (16, 17),
        18: (18, 20),  # a simple statement over two lines: either line counts
        21: (21, 22),
        22: (22, 23),
        26: (25, 27),  # class C: its decorator and header
        28: (28, 29),
    }
    assert len(linecov.statements(SOURCE)) == len(found)
