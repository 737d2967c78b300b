"""Package-level checks: every exported name resolves, and the README
examples run as written.

The README blocks are read from the file itself, so a command line or a
printed value that drifts from the code fails here.
"""

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import arakelov
from arakelov import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(arakelov.__file__).resolve().parent.parent

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


# the arakelov modules a fresh interpreter has loaded, as Python source
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'arakelov')"
LAYERS = ["arakelov.existence", "arakelov.fields", "arakelov.ideals",
          "arakelov.lattice", "arakelov.linalg"]


def _fresh(code):
    """The JSON that code prints in a new interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_layer():
    """import arakelov compiles __init__ alone; a layer loads with the
    first name read from it."""
    before, after = _fresh(f"""
import json, sys
import arakelov
before = {LOADED}
arakelov.make_field
print(json.dumps([before, {LOADED}]))
""")
    assert before == ["arakelov"]
    assert "arakelov.fields" in after and "arakelov.lattice" not in after


def test_help_loads_neither_json_nor_fractions():
    """A cold --help imports no module that only the commands use: json
    and fractions are not among the modules it adds to those loaded at
    interpreter start."""
    added = _fresh("""
import contextlib, io, sys
start = set(sys.modules)
from arakelov import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
added = sorted(set(sys.modules) - start)
import json
print(json.dumps(added))
""")
    assert "arakelov.cli" in added
    assert not {"json", "fractions"} & set(added)


def test_star_import_binds_every_exported_name():
    """dir() lists every __all__ name before any layer loads; the star
    import binds each to the object its layer defines, and a name outside
    __all__ (the deleted lattice.dual) raises AttributeError."""
    got = _fresh(f"""
import importlib, json, sys
import arakelov
unlisted = sorted(set(arakelov.__all__) - set(dir(arakelov)))
loaded = {LOADED}
namespace = {{}}
exec("from arakelov import *", namespace)
layers = [importlib.import_module(name) for name in {LAYERS!r}]
wrong = sorted(name for name in arakelov.__all__
               if not any(namespace.get(name) is getattr(layer, name, None)
                          for layer in layers))
print(json.dumps({{"unlisted": unlisted, "loaded": loaded, "wrong": wrong,
                  "bound": len(set(arakelov.__all__) & set(namespace)),
                  "dual": hasattr(arakelov, "dual")}}))
""")
    assert got == {"unlisted": [], "loaded": ["arakelov"], "wrong": [],
                   "bound": len(arakelov.__all__),
                   "dual": False}
