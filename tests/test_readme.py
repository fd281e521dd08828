"""The README's command block and its import block run as written."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import hypergraphlets

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(hypergraphlets.__file__).resolve().parent.parent


def readme_block(heading, fence=""):
    """The first code block under `heading` whose fence names `fence`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n%s\n" % heading, 1)[1]
    pattern = r"^```%s\n(.*?)^```$" % re.escape(fence)
    return re.search(pattern, section, re.S | re.M).group(1)


def readme_commands():
    """The lines of the first code block under "## Command line"."""
    block = readme_block("## Command line")
    return [line for line in block.splitlines() if line.strip()]


def test_readme_imports_run():
    # "Everything is importable": every name the Library block lists exists.
    block = readme_block("## Library", "python")
    assert "import" in block
    exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_run(tmp_path):
    # Run in order in one directory, since `sample` reads the table that
    # `build` writes.  `ksh` and `ov` exit 1 on a NO verdict, as documented.
    shutil.copytree(ROOT / "examples" / "data", tmp_path / "examples" / "data")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    commands = readme_commands()
    assert commands
    for line in commands:
        prog, command, *args = shlex.split(line)
        assert prog == "hypergraphlets", line
        proc = subprocess.run(
            [sys.executable, "-m", "hypergraphlets.cli", command, *args],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        expect = 0
        if command in ("ksh", "ov"):
            expect = 0 if json.loads(proc.stdout)["answer"] else 1
        assert proc.returncode == expect, "%s\n%s" % (line, proc.stderr)
