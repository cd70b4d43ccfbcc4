"""The README's library example runs as written, and its module table names only public functions, so the
documented API cannot drift from the code."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 3


def test_every_call_in_the_module_table_is_a_public_name_of_its_row():
    # A row names its modules in its first cell and documents calls as `name(arguments)` in its second.
    rows = re.findall(r"^\| (`wetplan\..*?) \| (.*) \|$", README.read_text(), re.M)
    assert len(rows) == 8
    calls, missing = 0, []
    for names, contents in rows:
        modules = [importlib.import_module(name) for name in re.findall(r"`(wetplan\.\w+)`", names)]
        for call in re.findall(r"`(\w+)\(", contents):
            calls += 1
            if not any(call in module.__all__ for module in modules):
                missing.append((names, call))
    assert calls >= 6
    assert missing == []
