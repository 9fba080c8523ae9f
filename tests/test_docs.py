import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_tour_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quick tour", "exec"), {})
    assert capsys.readouterr().out.strip()
