"""The README's *Library example* runs as written, so it cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md: Library example", "exec"), namespace)
    for out in (namespace["cont"], namespace["binary"]):
        assert 1 <= len(out.users) <= 6 and out.feasible and out.se_exact > 0.0
    assert capsys.readouterr().out.count("\n") == 1
