"""The README's examples run as written: its Python example, its spectrum
job and its reproduction recipes."""

import json
import re
from pathlib import Path

import pytest

from thermoformal import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# (config text, file stem, command) of each ``echo '{...}' > x.json`` recipe
RECIPES = re.findall(r"echo '(.*?)' > (\w+)\.json\nthermoformal ([\w-]+) --config \2\.json",
                     README, re.S)


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_python_example(capsys):
    [code] = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_spectrum_job():
    [block] = _blocks("json")
    code, summary = cli.run(json.loads(block))
    assert code == cli.EXIT_OK and summary["command"] == "spectrum"


def test_three_recipes():
    assert [command for _, _, command in RECIPES] == ["certify", "free-energy", "response"]


@pytest.mark.parametrize("text, stem, command", RECIPES, ids=[r[1] for r in RECIPES])
def test_recipe(tmp_path, text, stem, command):
    path = tmp_path / f"{stem}.json"
    path.write_text(text)
    out = tmp_path / "out" / stem
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "summary.json").read_text())["exit_code"] == cli.EXIT_OK
