import json
import re
from pathlib import Path

from dyncapmoe import harness as hn

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_tour_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quick tour", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_model_config_json_is_what_to_json_dict_writes():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Model config JSON", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cfg = hn.ToyModelConfig.from_json_dict(example)
    written = cfg.to_json_dict()
    assert list(written) == list(example)
    assert json.loads(json.dumps(written)) == example
    assert hn.ToyModelConfig.from_json_dict(written) == cfg
