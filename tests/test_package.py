"""Package-level checks: every exported name resolves, and the README
examples run as written.

The README blocks are read from the file itself, so a command line or a
printed value that drifts from the code fails here.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from arakelov import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# the modules that declare __all__
EXPORTING = ["arakelov", "arakelov.ideals", "arakelov.existence",
             "arakelov.lattice", "arakelov.cli"]


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"),
                      flags=re.S)


@pytest.mark.parametrize("module", EXPORTING)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_readme_cli_lines_exit_as_documented(tmp_path, monkeypatch, capsys):
    lines = [line.split("#", 1)[0].strip()
             for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("arakelov ")]
    monkeypatch.chdir(tmp_path)
    codes = []
    for line in lines:
        argv = shlex.split(line)[1:]
        codes.append(cli.main(argv))
        capsys.readouterr()
    # the catalog line exits 4: the level-7 row publishes minimum 2, the
    # exact minimum is 4
    assert codes == [0, 0, 0, 4], list(zip(lines, codes))


def test_readme_quick_start_prints_documented_values(capsys):
    (block,) = _blocks("python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "10 161051\n(6, 110)\n"
    documented = re.search(r"# I = (.+?), alpha", block).group(1)
    assert namespace["witness"].ideal.to_string() == documented.replace(" ", "")
