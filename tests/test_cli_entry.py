"""The real entry point, `python -m credalfans.cli`, and what it loads.

Each case runs a fresh interpreter, as the shell does, with src/ on the
path. Importing the command line loads no engine and no dataclass
machinery; a command loads the model's module and the engine it runs. The
entry point prints what main prints in-process, byte for byte, apart from
the `time_ms_*` lines, which vary from run to run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from credalfans.cli import main

ROOT = Path(__file__).resolve().parent.parent
# COLUMNS pins argparse's help layout, which otherwise follows the terminal.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    str(ROOT / "src"), os.environ.get("PYTHONPATH")))), COLUMNS="80")
ENGINE_MODULES = ("credalfans.pri", "credalfans.chains2mono", "credalfans.fanwalk")


def _python(*args):
    """The finished process, its streams as bytes, untranslated."""
    return subprocess.run([sys.executable, *args], env=ENV, cwd=ROOT, capture_output=True,
                          timeout=60)


def _loaded_after(code):
    """The module names in sys.modules after running code in a fresh process."""
    proc = _python("-c", code + "\nimport sys\nprint('\\n'.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.decode().split())


def test_importing_the_cli_loads_no_engine_and_no_dataclasses():
    loaded = _loaded_after("import credalfans.cli")
    assert "credalfans.cli" in loaded
    assert not loaded & {"dataclasses", *ENGINE_MODULES}


def test_check_and_natex_on_an_interval_model_load_no_walk_and_no_dataclasses():
    loaded = _loaded_after(
        "from credalfans.cli import main\n"
        "main(['check', '--model', 'models/pri_n3.json'])\n"
        "main(['natex', '--model', 'models/pri_n3.json', '--gamble', 'models/gamble_n3.json'])")
    assert "credalfans.pri" in loaded
    assert not loaded & {"dataclasses", "credalfans.fanwalk", "credalfans.chains2mono"}


def _drop_timings(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"time_ms_"))


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "10"],
    ["check", "--model", "models/pri_n3.json"],
    ["vertices", "--model", "models/lowprob_n3_supermodular.json"],
    ["--help"],
], ids=lambda argv: argv[0])
def test_module_entry_point_prints_what_main_prints(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help exits from argparse
        code = exc.code
    out = capsys.readouterr().out
    proc = _python("-m", "credalfans.cli", *argv)
    assert (proc.returncode, _drop_timings(proc.stdout)) == (code, _drop_timings(out.encode()))
    assert out
