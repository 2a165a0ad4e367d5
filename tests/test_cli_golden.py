"""Pinned bytes of the graph JSON and the fan report.

The digests were taken from the output of the commands below before fan
graphs were keyed by universe indices; the `time_ms_*` lines are dropped
because they vary from run to run. Model paths are given relative to the
repository root, as the report echoes them.
"""

import hashlib
from pathlib import Path

import pytest

from credalfans.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    ("graph", "pri_n3.json", "pri", "c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d"),
    ("fan", "pri_n3.json", "pri", "f05f2dd730265f1c09052d842a79864502596070cb10926d5a02bf90570f98a3"),
    ("graph", "pri_n10_uniform_max.json", "pri",
     "a81c0286f25c4528fcf82c06dfe198f2974690e3cbc83a8bd44370c923546813"),
    ("fan", "pri_n10_uniform_max.json", "pri",
     "e59215d2f42182927b5be3e5c68ece6086b96b69c4ad4d44bd014d4e0c1a4e6e"),
    ("graph", "pri_n3.json", "walk", "c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d"),
    ("fan", "pri_n3.json", "walk", "2b6e9e9a557f01b28b61787d6e01cc223c8779fc4e8321d022415d1e1a735b9e"),
    ("graph", "lowprob_n3_supermodular.json", "chains",
     "e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0"),
    ("fan", "lowprob_n3_supermodular.json", "chains",
     "0b60c5b6b26cfb8df68c2efe78b0aaf78dc9751ebf600e41b37c5d45b2dc122a"),
]


@pytest.mark.parametrize("command,name,engine,digest", GOLDEN)
def test_stdout_bytes_pinned(capsys, monkeypatch, command, name, engine, digest):
    monkeypatch.chdir(ROOT)
    code = main([command, "--model", f"models/{name}", "--engine", engine])
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("time_ms_"))
    assert code == 0
    assert hashlib.sha256(kept.encode()).hexdigest() == digest
