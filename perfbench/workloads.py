"""The four workloads.

A workload is built once per run from the seed (``WORKLOADS[name](seed,
workdir)``). ``unit(r)`` returns a list of ``Op`` drawn fresh from (seed, r)
whose composition is the same for every r; ``ops(units, unit(0))`` is the
whole run: ``units`` units plus any operation that runs once per run.

The mix rule: each kind a workload lists in README.md (a model family at one
size, a fixed model file, or a command on one model) gets the same number of
operations in a unit. Nothing is weighted by its cost; the only operations
outside the units are two fixed inputs of ``structured_enum`` that run once
per run (see ``StructuredEnum.ops``).

Each ``Op`` has ``run(tracer)``, the timed call into the program, and
``check(result)``, an untimed check through a path that does not use the
engine under test (the exact vertex sets come from ``inputs.model_vertices``,
computed from the model's own numbers). ``check`` returns ``(ok, vertices)``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from credalfans import chains2mono, credal, fanwalk, polytope, pri

import inputs

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("structured_enum", "generic_enum", "natex_queries", "cli_models")
N_CHECK_GAMBLES = 3


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


class CacheStats:
    """Hits and misses of credal's process-global lru caches, counted only
    around the timed calls (``start``/``stop``), across the clears that stop
    one operation from reusing another's vertex sets."""

    def __init__(self):
        # held here because the tracer may rebind the module names
        self.caches = {"build_credal_hrep": credal.build_credal_hrep,
                       "credal_vertices": credal._credal_vertices}
        self.totals = {name: [0, 0] for name in self.caches}
        self._start = {}

    def clear(self):
        for cache in self.caches.values():
            cache.cache_clear()

    def start(self):
        self._start = {name: cache.cache_info() for name, cache in self.caches.items()}

    def stop(self):
        for name, cache in self.caches.items():
            info, before = cache.cache_info(), self._start[name]
            self.totals[name][0] += info.hits - before.hits
            self.totals[name][1] += info.misses - before.misses

    def hit_ratio(self, name):
        """Hits over lookups, or None when the timed calls made none."""
        hits, misses = self.totals[name]
        return hits / (hits + misses) if hits + misses else None


class Workload:
    """Defaults: operations run in this process and leave no state that must
    be undone between two timings of an operation. Each workload sets
    ``NOMINAL_UNIT_S``, the wall time of one unit (building, timing and
    checking it) on the baseline machine, from which a run's number of units
    follows."""

    in_process = True
    caches = None

    def reset(self):
        pass

    def ops(self, units, first):
        """The run's operations: ``first`` (= ``unit(0)``) and units 1.."""
        return first + [op for r in range(1, units) for op in self.unit(r)]


def _min_over(points, g):
    return min(inputs.dot(g, p) for p in points)


# ------------------------------------------------------------ structured


def _pri_enum(m):
    points, graph = pri.enumerate_extreme_pri(m)
    report = fanwalk.verify_graph(graph)
    _, universe = pri.pri_hrep(m)
    doc = fanwalk.graph_to_json(graph, universe)
    return points, graph, report, doc


def _check_pri_enum(m, gambles):
    def check(result):
        points, graph, _report, doc = result
        points = frozenset(points)
        ok = (points == inputs.interval_vertices(m)
              and graph.vertices == points
              and len(doc["nodes"]) == len(graph.nodes)
              and len(doc["edges"]) == len(graph.edges)
              and all(_min_over(points, g) == pri.natural_extension_pri(m, g) for g in gambles))
        return ok, len(points)
    return check


def _pri_op(kind, m, rng):
    gambles = [inputs.gamble(rng, m.n) for _ in range(N_CHECK_GAMBLES)]
    return Op(kind, lambda tracer: _pri_enum(m), _check_pri_enum(m, gambles))


def _lowprob_enum(lowprob):
    return chains2mono.is_two_monotone(lowprob).ok, chains2mono.enumerate_extreme_2mono(lowprob)


def _check_lowprob_enum(lowprob, gambles):
    def check(result):
        two_monotone, points = result
        scaled = inputs.lowprob_points_checked(lowprob, points)
        ok = (two_monotone and scaled is not None
              and all(inputs.min_over_int_points(*scaled, g) == chains2mono.choquet(lowprob, g)
                      for g in gambles))
        return ok, len(points)
    return check


class StructuredEnum(Workload):
    """Interval models through the exchange walk, graph check and export, and
    2-monotone lower probabilities through the chain fan."""

    NOMINAL_UNIT_S = 2.6
    PRI_SIZES = (7, 8, 9, 10)
    LOWPROB_SIZES = (6, 7)
    FILE = "pri_n10_uniform_min"
    DENSE_FILE = "pri_n10_uniform_max"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.file = inputs.read_model(ROOT / "models" / f"{self.FILE}.json")[1]

    def unit(self, r):
        rng = random.Random(f"structured_enum:{self.seed}:{r}")
        ops = [_pri_op(f"file_{self.FILE}", self.file, rng)]
        ops += [_pri_op(f"pri_n{n}", inputs.pri_model(rng, n), rng) for n in self.PRI_SIZES]
        for n in self.LOWPROB_SIZES:
            lowprob = inputs.supermodular_lowprob(rng, n)
            gambles = [inputs.gamble(rng, n) for _ in range(N_CHECK_GAMBLES)]
            ops.append(Op(f"lowprob_n{n}", lambda tracer, L=lowprob: _lowprob_enum(L),
                          _check_lowprob_enum(lowprob, gambles)))
        return ops

    def ops(self, units, first):
        """Once per run, not per unit: the degenerate reproducer, and the
        1260-vertex n = 10 file, which takes as long as a whole unit."""
        rng = random.Random(f"structured_enum:{self.seed}:once")
        dense = inputs.read_model(ROOT / "models" / f"{self.DENSE_FILE}.json")[1]
        return super().ops(units, first) + [_pri_op("pri_reproducer_n5", inputs.reproducer_pri(), rng),
                                            _pri_op(f"file_{self.DENSE_FILE}", dense, rng)]


# --------------------------------------------------------------- generic


def _generic_op(kind, model, build):
    """``build()`` gives (h, universe, prevision) inside the timed call; the
    walk's vertex set is checked against the model's exact vertex set."""
    def run(tracer):
        h, universe, prevision = build()
        coherent = credal.is_coherent(prevision).coherent
        graph = fanwalk.walk(h, universe)
        return coherent, graph, fanwalk.verify_graph(graph)

    def check(result):
        coherent, graph, _ = result
        return coherent and graph.vertices == inputs.model_vertices(model), len(graph.vertices)

    return Op(kind, run, check)


class GenericEnum(Workload):
    """Coherent models inside the oracle guards through the generic walk.
    The lower envelopes are assessed by their facets only
    (``inputs.irredundant``): the walk misses vertices when an envelope
    keeps its redundant gambles, which ``redundant_envelope_misses``
    measures apart from the timed operations."""

    NOMINAL_UNIT_S = 3.6
    KINDS = ("lowprob_n3", "lowprob_n4", "envelope_n3", "envelope_n4", "pri_n4", "pri_n5", "pri_n6")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.caches = CacheStats()

    def reset(self):
        self.caches.clear()

    def unit(self, r):
        rng = random.Random(f"generic_enum:{self.seed}:{r}")
        ops = []
        for kind in self.KINDS:
            family, n = kind.rsplit("_n", 1)
            n = int(n)
            if family == "pri":
                m = inputs.pri_model(rng, n)
                ops.append(_generic_op(kind, m, lambda m=m: (*pri.pri_hrep(m), pri.as_lower_prevision(m))))
                continue
            if family == "lowprob":
                model = inputs.supermodular_lowprob(rng, n)
                lp = chains2mono.as_lower_prevision(model)
            else:
                model = lp = inputs.irredundant(inputs.envelope_prevision(rng, n, 3, 2 * n))
            ops.append(_generic_op(kind, model, lambda lp=lp: (*credal.build_credal_hrep(lp), lp)))
        return ops


def redundant_envelope_misses(count=40, n=3) -> float:
    """The share of ``count`` fixed lower envelopes, assessed with their
    redundant gambles, on which the generic walk returns a vertex set other
    than the exact one (see README.md, Known defects)."""
    rng = random.Random(f"redundant_envelopes:{n}")
    missed = 0
    for _ in range(count):
        lp = inputs.envelope_prevision(rng, n, 3, 2 * n)
        graph = fanwalk.walk(*credal.build_credal_hrep(lp))
        missed += graph.vertices != inputs.model_vertices(lp)
    return missed / count


# ----------------------------------------------------------------- natex


class NatexQueries(Workload):
    """The read path. The two lower previsions of a unit are built, and
    credal's caches warmed, when the unit is made, then queried with fresh
    gambles; every unit has fresh models, so no unit reuses the vertex sets
    cached for another. The other three functions keep no cache, and each
    of their queries gets a fresh model. Every value is checked against a
    second route."""

    NOMINAL_UNIT_S = 4.3
    QUERIES = 20  # per kind and unit

    def __init__(self, seed, workdir):
        self.caches = CacheStats()
        self.seed = seed

    def unit(self, r):
        rng = random.Random(f"natex_queries:{self.seed}:{r}")
        env4 = inputs.envelope_prevision(rng, 4, 3, 8)
        env5 = inputs.envelope_prevision(rng, 5, 3, 6)
        vertices = {lp: inputs.model_vertices(lp) for lp in (env4, env5)}
        for lp in (env4, env5):  # the read path starts warm
            credal.natural_extension(lp, (0,) * lp.space.n)

        ops = []
        for _ in range(self.QUERIES):
            for kind, lp in (("natex_n4", env4), ("natex_n5", env5)):
                g = inputs.gamble(rng, lp.space.n)
                ops.append(Op(kind, lambda tracer, lp=lp, g=g: credal.natural_extension(lp, g),
                              lambda v, g=g, pts=vertices[lp]: (v == _min_over(pts, g), 0)))
            pri10 = inputs.pri_model(rng, 10)
            g = inputs.gamble(rng, 10)
            ops.append(Op("natex_pri_n10", lambda tracer, m=pri10, g=g: pri.natural_extension_pri(m, g),
                          lambda v, m=pri10, g=g: (v == _min_over(inputs.interval_vertices(m), g), 0)))
            masses = inputs.belief_masses(rng, 8, 6)
            belief8 = inputs.belief_lowprob(8, masses)
            g = inputs.gamble(rng, 8)
            ops.append(Op("choquet_n8", lambda tracer, L=belief8, g=g: chains2mono.choquet(L, g),
                          lambda v, ms=masses, g=g: (v == inputs.belief_expectation(8, ms, g), 0)))
            ops.append(self._lp_min_op(rng))
        return ops

    @staticmethod
    def _lp_min_op(rng):
        """The oracle LP on the H-representation of a fresh belief function
        on four outcomes, checked against its Moebius formula."""
        masses = inputs.belief_masses(rng, 4, 3)
        lowprob = inputs.belief_lowprob(4, masses)
        h = credal.build_credal_hrep(chains2mono.as_lower_prevision(lowprob))[0]
        g = inputs.gamble(rng, 4)

        def check(res):
            point = res.argmin.point
            return (inputs.lowprob_points_checked(lowprob, [point]) is not None
                    and inputs.dot(point, g) == res.value
                    and res.value == inputs.belief_expectation(4, masses, g)), 0

        return Op("lp_min", lambda tracer: polytope.lp_min(h, g), check)


# ------------------------------------------------------------------- cli


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _report(text) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key and " " not in key:
            out[key] = value
    return out


def _csv_points(text):
    rows = list(csv.reader(io.StringIO(text)))
    return frozenset(tuple(Fraction(c) for c in row) for row in rows[1:])


# Models in models/ and whether each passes the property its commands need
# (coherence; 2-monotonicity for lower probabilities under `check`), as
# documented by the test suite.
MODEL_FILES = {
    "pri_n3.json": True,
    "pri_n3_unreachable.json": False,
    "pri_n10_uniform_max.json": True,
    "pri_n10_uniform_min.json": True,
    "lowprob_n3_supermodular.json": True,
    "lowprob_n3_nonsupermodular.json": False,
    "prevision_n3_general.json": True,
    "vacuous_n3.json": True,
}


class CliModels(Workload):
    """`python -m credalfans.cli` once per command, one process at a time."""

    in_process = False
    NOMINAL_UNIT_S = 16.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.samples = []  # (wall seconds, reported compute seconds) of untraced commands
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        listed = sorted(p.name for p in (ROOT / "models").glob("*.json") if p.name != "gamble_n3.json")
        if listed != sorted(MODEL_FILES):
            raise RuntimeError(f"models/ holds {listed}; the benchmark knows {sorted(MODEL_FILES)}")
        self.models = {name: inputs.read_model(ROOT / "models" / name) for name in MODEL_FILES}
        self.g3 = tuple(Fraction(v) for v in
                        json.loads((ROOT / "models" / "gamble_n3.json").read_text()).values())
        self.vertices = {name: inputs.model_vertices(model) for name, (_, model) in self.models.items()}
        self.bad_gamble = self.workdir / "bad_gamble.json"
        inputs.write_json(self.bad_gamble, {"x1": "0.5", "x2": "1", "x3": "1"})

    def _cmd(self, kind, args, check):
        def run(tracer):
            cmd = [sys.executable, "-m", "credalfans.cli", *args]
            trace_out = None
            if tracer is not None:
                trace_out = self.workdir / "cli_trace.json"
                cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace_out), *args]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=150)
            wall = time.perf_counter() - t0
            if tracer is None:
                compute = int(_report(proc.stdout + "\n" + proc.stderr).get("time_ms_compute", 0)) / 1000
                self.samples.append((wall, compute))
            else:
                tracer.merge(json.loads(trace_out.read_text()))
            return CliResult(proc.returncode, proc.stdout, proc.stderr)
        return Op(kind, run, check)

    def _model_ops(self, path, tag, good, verts, gamble, gamble_path, heavy):
        """vertices / fan / graph / natex on one model file, with checks; fan
        and graph only for a good model that is not ``heavy``."""

        def vertices_check(res):
            if res.code != (0 if good else 1):
                return False, 0
            if not good:
                return True, 0
            points = _csv_points(res.stdout)
            return points == verts, len(points)

        def fan_check(res):
            rep = _report(res.stdout)
            structure_ok = rep.get("structure_ok") == "true"
            ok = (res.code == (0 if structure_ok else 1)
                  and structure_ok == (rep.get("connected") == "true" and rep.get("regular") == "true")
                  and int(rep.get("n_vertices", -1)) == len(verts))
            return ok, int(rep.get("n_vertices", 0))

        def graph_check(res):
            if res.code != 0:
                return False, 0
            doc = json.loads(res.stdout)
            ids = {node["id"] for node in doc["nodes"]}
            points = frozenset(tuple(Fraction(c) for c in node["vertex"]) for node in doc["nodes"])
            ok = all(a in ids and b in ids and a != b for a, b in doc["edges"]) and points == verts
            return ok, len(points)

        def natex_check(res):
            if res.code != (0 if good else 1):
                return False, 0
            return (not good or Fraction(_report(res.stdout)["value"]) == _min_over(verts, gamble)), 0

        ops = [self._cmd(f"vertices_{tag}", ["vertices", "--model", path], vertices_check)]
        if good and not heavy:
            ops.append(self._cmd(f"fan_{tag}", ["fan", "--model", path], fan_check))
            ops.append(self._cmd(f"graph_{tag}", ["graph", "--model", path], graph_check))
        ops.append(self._cmd(f"natex_{tag}", ["natex", "--model", path, "--gamble", gamble_path], natex_check))
        return ops

    def _code_op(self, kind, args, expected, extra=lambda res: True):
        return self._cmd(kind, args, lambda res: (res.code == expected and extra(res), 0))

    def unit(self, r):
        rng = random.Random(f"cli_models:{self.seed}:{r}")
        models = ROOT / "models"
        g3 = str(models / "gamble_n3.json")
        ops = []
        for name, good in MODEL_FILES.items():
            tag, model = self.models[name]
            path = str(models / name)
            ops.append(self._code_op(f"check_{tag}", ["check", "--model", path], 0 if good else 1))
            if model.space.n == 3:
                ops += self._model_ops(path, tag, good, self.vertices[name], self.g3, g3, heavy=False)
            else:
                g = inputs.gamble(rng, model.space.n)
                gpath = self.workdir / f"gamble_{r}_{name}"
                inputs.write_json(gpath, inputs.gamble_document(model.space.names, g))
                ops += self._model_ops(path, tag, good, self.vertices[name], g, str(gpath),
                                       heavy=name == "pri_n10_uniform_max.json")
        # seeded interval models written for this unit
        for n in (8, 9, 10):
            m = inputs.pri_model(rng, n)
            name = f"seeded_{r}_pri_n{n}.json"
            path = self.workdir / name
            inputs.write_json(path, inputs.pri_document(m))
            g = inputs.gamble(rng, n)
            gpath = self.workdir / f"gamble_{name}"
            inputs.write_json(gpath, inputs.gamble_document(m.space.names, g))
            ops += self._model_ops(str(path), "pri", True, inputs.interval_vertices(m), g, str(gpath),
                                   heavy=False)
        # the documented exit-1 / exit-2 cases
        pri3, pri10 = str(models / "pri_n3.json"), str(models / "pri_n10_uniform_min.json")
        lowbad, unreachable = str(models / "lowprob_n3_nonsupermodular.json"), str(models / "pri_n3_unreachable.json")
        unreachable_value = _min_over(self.vertices["pri_n3_unreachable.json"], self.g3)

        def bounds_ok(res):
            rep = _report(res.stdout)
            return (int(rep["min_cones"]), int(rep["max_cones"])) == (90, 1260)

        ops += [
            self._code_op("verify_guard", ["vertices", "--verify", "--model", pri10], 2),
            self._code_op("verify_small", ["vertices", "--verify", "--model", pri3], 0,
                          lambda res: _csv_points(res.stdout) == self.vertices["pri_n3.json"]),
            self._code_op("fan_oracle_refused", ["fan", "--engine", "oracle", "--model", pri3], 2),
            self._code_op("graph_oracle_refused", ["graph", "--engine", "oracle", "--model", pri3], 2),
            self._code_op("natex_chains_refused", ["natex", "--engine", "chains", "--model", lowbad, "--gamble", g3], 1),
            self._code_op("natex_oracle_incoherent", ["natex", "--engine", "oracle", "--model", unreachable,
                                                      "--gamble", g3], 0,
                          lambda res: Fraction(_report(res.stdout)["value"]) == unreachable_value),
            self._code_op("natex_bad_gamble", ["natex", "--model", pri3, "--gamble", str(self.bad_gamble)], 2),
            self._code_op("bounds_n10", ["bounds", "--n", "10"], 0, bounds_ok),
            self._code_op("bounds_n2", ["bounds", "--n", "2"], 2),
            self._code_op("bounds_not_interval", ["bounds", "--model", str(models / "lowprob_n3_supermodular.json")], 2),
            self._code_op("bounds_model", ["bounds", "--model", str(models / "pri_n10_uniform_max.json")], 0, bounds_ok),
            self._code_op("missing_model", ["check", "--model", str(self.workdir / "missing.json")], 2),
        ]
        return ops

    def compute_share(self) -> float:
        wall = sum(w for w, _ in self.samples)
        return sum(c for _, c in self.samples) / wall if wall else 0.0

    def overhead_ms_p50(self) -> float:
        return 1000 * statistics.median(w - c for w, c in self.samples) if self.samples else 0.0


WORKLOADS = {
    "structured_enum": StructuredEnum,
    "generic_enum": GenericEnum,
    "natex_queries": NatexQueries,
    "cli_models": CliModels,
}
