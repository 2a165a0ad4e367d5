"""Smoke test of the benchmark harness on tiny instances of each workload.

    python -m pytest perfbench/test_harness.py -q
"""

import dataclasses
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import inputs  # noqa: E402
import kernels  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# the cheap operations of each workload
TINY = {
    "structured_enum": {"pri_reproducer_n5", "lowprob_n6", "pri_n7"},
    "generic_enum": {"lowprob_n3", "envelope_n3", "pri_n4"},
    "natex_queries": {"natex_n4", "natex_n5", "natex_pri_n10", "choquet_n8", "lp_min"},
    "cli_models": {"check_pri", "bounds_n10", "natex_bad_gamble", "verify_small", "natex_chains_refused"},
}


def _tiny(monkeypatch, name, corrupt=None):
    cls = workloads.WORKLOADS[name]
    full_ops = cls.ops

    def ops(self, units, first):
        out, seen = [], set()
        for op in full_ops(self, units, first):
            if op.kind in TINY[name] and op.kind not in seen:
                seen.add(op.kind)
                if corrupt and op.kind == corrupt[0]:
                    op.run = (lambda run_, f: lambda tracer: f(run_(tracer)))(op.run, corrupt[1])
                out.append(op)
        return out

    monkeypatch.setattr(cls, "ops", ops)


def _main(capsys, *args):
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        printed[key] = rest
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics_print_with_units(monkeypatch, capsys, name):
    _tiny(monkeypatch, name)
    printed, result = _main(capsys, "--workload", name, "--seed", "1", "--seconds", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(TINY[name]) - 1
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert printed[metric["name"]].endswith(" " + metric["unit"])
    assert printed["fail_ratio"] == "0 ratio"
    if name != "natex_queries":
        assert printed["vertices_per_s"].endswith(" 1/s")
    assert printed["backend"] and printed["python"]


def test_per_layer_metrics_print_with_units(monkeypatch, capsys):
    _tiny(monkeypatch, "structured_enum")
    monkeypatch.setattr(kernels, "CASES", tuple(c for c in kernels.CASES if c is not kernels.pri_enumerate_n10))
    printed, result = _main(capsys, "--workload", "structured_enum", "--seed", "1", "--seconds", "0",
                            "--trace", "1")
    names = {m["name"] for m in BENCH["per_layer"]} - {"kernel.pri_enumerate_n10_ms"}
    assert set(result["metrics"]) == names
    for metric in BENCH["per_layer"]:
        if metric["name"] in names:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert printed[metric["name"]].endswith(" " + metric["unit"])
    assert result["metrics"]["pri.pri_neighbors.calls"]["value"] > 0
    assert result["metrics"]["chains2mono.chain_vertex.calls"]["value"] > 0
    # the degenerate reproducer shows as a defective fan
    assert result["metrics"]["fanwalk.verify_graph.not_ok_ratio"]["value"] > 0


def test_tail_has_ten_samples_beyond_it_and_is_never_below_the_median():
    for n in (1, 2, 15, 16, 21, 22, 58):
        times = list(range(n))
        value, _ = run.tail(times)
        assert value >= statistics.median(times)
        if n >= 2 * run.TAIL_BEYOND + 2:
            assert sum(t > value for t in times) == run.TAIL_BEYOND


def test_irredundant_envelope_has_the_same_credal_set():
    rng = random.Random(3)
    for n in (3, 3, 4):
        lp = inputs.envelope_prevision(rng, n, 3, 2 * n)
        reduced = inputs.irredundant(lp)
        assert len(reduced.assessments) <= len(lp.assessments)
        assert inputs.model_vertices(reduced) == inputs.model_vertices(lp)


def _drop_vertex(result):
    """Drop one vertex from the points, the graph and the exported document
    alike, so that the engine's outputs still agree with each other."""
    points, graph, report, doc = result
    gone = graph.nodes[0].vertex
    kept = [i for i, node in enumerate(graph.nodes) if node.vertex != gone]
    keys = {graph.nodes[i].gens for i in kept}
    graph = dataclasses.replace(graph, nodes=tuple(graph.nodes[i] for i in kept),
                                edges=frozenset(e for e in graph.edges if e <= keys))
    doc = {**doc, "nodes": [doc["nodes"][i] for i in kept],
           "edges": [e for e in doc["edges"] if set(e) <= set(kept)]}
    return type(points)(p for p in points if p != gone), graph, report, doc


def test_dropped_vertex_is_caught_only_by_the_independent_vertex_set():
    m = inputs.pri_model(random.Random(1), 7)
    points, graph, _, doc = _drop_vertex(workloads._pri_enum(m))
    assert graph.vertices == frozenset(points)
    assert (len(doc["nodes"]), len(doc["edges"])) == (len(graph.nodes), len(graph.edges))
    assert frozenset(points) < inputs.interval_vertices(m)


@pytest.mark.parametrize("name,corrupt", [
    ("structured_enum", ("pri_n7", _drop_vertex)),
    ("natex_queries", ("natex_pri_n10", lambda value: value + 1)),
    ("natex_queries", ("natex_n5", lambda value: value - 1)),
])
def test_corrupted_output_counts_as_failure(monkeypatch, capsys, name, corrupt):
    _tiny(monkeypatch, name, corrupt)
    printed, result = _main(capsys, "--workload", name, "--seed", "1", "--seconds", "0")
    assert result["failed"] == 1 and not result["correct"]
    assert float(printed["fail_ratio"].split()[0]) == pytest.approx(1 / result["attempted"])


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "structured_enum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
