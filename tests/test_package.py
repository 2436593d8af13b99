"""The package's import surface: the README's library example runs as
written, and ``import catent`` loads no engine module."""

import os
import re
import subprocess
import sys
from pathlib import Path

import catent

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(catent.__file__).resolve().parents[1]


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "GY violated\n"


def test_import_catent_loads_no_engine_module():
    check = (
        "import sys, catent\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith('catent.') or m == 'mpmath')\n"
        "assert not loaded, loaded\n"
        "print(catent.__version__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{catent.__version__}\n"
