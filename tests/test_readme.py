"""README's "Library use" example runs as written, so the documented
API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library use", "exec"), {})
    table = capsys.readouterr().out
    for where in ("login/user", "authentication/server", "authentication/user"):
        assert "'%s'" % where in table
