"""credalfans benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of the
checkout the script sits in, never from an installed copy.

Workloads (see ``workloads.py``): ``structured_enum``, ``generic_enum``,
``natex_queries``, ``cli_models``. A run builds the workload from the seed
and times a fixed number of units of operations, ``S`` over the workload's
nominal unit time (about ``S`` seconds on the baseline machine). Each
operation's call into the program is timed, and reported at the reference
speed (see ``Speed``); its output is then checked, untimed, through a path
independent of the engine that produced it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
units, every operation twice, untraced and then with every public function
of the package wrapped (``tracer.py``), and prints the per-layer metrics,
the ratio of traced to untraced time, and the four fixed kernel cases of
``kernels.py``; the span aggregates go to
``.perfbench_run/trace-<workload>-<seed>.json``.

Human-readable ``name: value unit`` lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the end-to-end metrics of the JSON line (BENCHMARK.json declares them)
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _import_package():
    """Import credalfans from this checkout's src/, or explain and exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import credalfans
    except ImportError as exc:
        sys.exit(f"error: cannot import credalfans from {ROOT / 'src'}: {exc}")
    where = Path(credalfans.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        sys.exit(f"error: credalfans was imported from {where}, not from {ROOT / 'src'}")
    return credalfans


def _import_package_fresh():
    """A fresh interpreter importing the whole package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import credalfans.cli"], env=env, cwd=ROOT, check=True)


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, i.e. the (TAIL_BEYOND + 1)-th largest sample, but never below
    the median (runs of fewer than 2 * TAIL_BEYOND + 1 samples)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def _reference():
    """A fixed piece of exact rational arithmetic in plain Python, the same
    kind of work as the package's kernels, and none of the package's code."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return total


def _reference_seconds():
    t0 = time.perf_counter()
    _reference()
    return time.perf_counter() - t0


class Speed:
    """The machine's speed during the run, sampled by timing ``_reference``.

    On the baseline machine the speed of a fixed computation moves between
    levels about 1.7x apart, for stretches of under a second to minutes,
    outside the benchmark's control. Every timing is therefore reported at
    the reference speed: multiplied by ``REFERENCE_S`` over the median
    reference time sampled around it (``scaled``). ``REFERENCE_S`` is the
    reference computation's time at the baseline machine's fast level, so
    there a scaled time is the measured time. A change to the package moves
    scaled times as it moves measured ones; a change of machine load does
    not. The measured times are printed as well (``*_measured``).
    """

    REFERENCE_S = 0.001
    EVERY_S = 0.1     # at most this long between two samples
    WINDOW_S = 0.15   # samples this close to a timing are used for it

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self, force=False):
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < self.EVERY_S:
            return
        best = min(_reference_seconds() for _ in range(2))
        self.at.append(time.perf_counter())
        self.took.append(best)

    def scaled(self, start, end):
        """The timing [start, end] at the reference speed."""
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return (end - start) * self.REFERENCE_S / statistics.median(near)


def _pin_to_one_cpu():
    """Keep this process, and the commands it starts, on one CPU (the one
    that runs the reference computation fastest now), so that the speed
    samples and the timed work see the same CPU."""
    def reference_on(cpu):
        os.sched_setaffinity(0, {cpu})
        return min(_reference_seconds() for _ in range(10))

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0), key=reference_on)})


class Runner:
    """Times and checks the operations of one run.

    Every operation is timed once at the reference speed (see ``Speed``) and
    its result checked. A traced run times each operation untraced and then
    traced, and checks the traced result.

    Every operation gives one time, also when it raises (the time until the
    exception) or fails its check, so the number of samples is fixed by the
    workload and the seconds.
    """

    def __init__(self, workload, trace: bool, speed: Speed):
        self.wl = workload
        self.speed = speed
        self.tracer = None
        if trace:
            from tracer import Tracer
            self.tracer = Tracer()
        self.times = []           # seconds per op at the reference speed (traced runs: the traced call)
        self.measured = []        # the same, as measured
        self.untraced = []        # traced runs: the untraced call, at the reference speed
        self.vertices = 0
        self.failed = 0
        self.shown = 0

    @property
    def attempted(self):
        return len(self.times)

    def _report(self, op, what):
        if self.shown < 5:
            self.shown += 1
            print(f"FAILED {op.kind}: {what}", file=sys.stderr)

    def _timed(self, op, tracer):
        """(result, (start, end), traceback or None) of one call into the
        program."""
        install = tracer is not None and self.wl.in_process
        self.wl.reset()
        if install:
            tracer.install()
        if self.wl.caches is not None:
            self.wl.caches.start()
        self.speed.sample()
        t0 = time.perf_counter()
        try:
            return op.run(tracer), (t0, time.perf_counter()), None
        except Exception:
            return None, (t0, time.perf_counter()), traceback.format_exc()
        finally:
            self.speed.sample()
            if self.wl.caches is not None:
                self.wl.caches.stop()
            if install:
                tracer.uninstall()

    def _checked(self, op, result, error):
        """Whether the op succeeded; counts its vertices."""
        if error is not None:
            self._report(op, error)
            return False
        try:
            ok, vertices = op.check(result)
        except Exception:
            self._report(op, "the check raised\n" + traceback.format_exc())
            return False
        if not ok:
            self._report(op, "output failed the independent check")
            return False
        self.vertices += vertices
        return True

    def measure(self, ops):
        spans = []  # (start, end) per op and timing
        ok = []
        for op in ops:
            timings, good = [], True
            if self.tracer is not None:
                _, span, error = self._timed(op, None)
                timings.append(span)
                if error is not None:
                    self._report(op, error)
                    good = False
            result, span, error = self._timed(op, self.tracer)
            timings.append(span)
            ok.append(self._checked(op, result, error) and good)
            spans.append(timings)
            del result
        self.speed.sample(force=True)
        self.times = [self.speed.scaled(*t[-1]) for t in spans]
        self.measured = [end - start for start, end in (t[-1] for t in spans)]
        if self.tracer is not None:
            self.untraced = [self.speed.scaled(*t[0]) for t in spans]
        self.failed = ok.count(False)


def per_layer(tracer, wl, untraced, traced, notes):
    t = tracer
    from workloads import CliModels, GenericEnum, redundant_envelope_misses

    def hit_ratio(cache):
        """From the lookups made inside timed calls; 0 with a note when the
        workload keeps no cache statistics or its timed calls made none."""
        value = wl.caches.hit_ratio(cache) if wl.caches is not None else None
        if value is None:
            notes.append(f"credal.{cache}.hit_ratio not measurable: the timed calls make no lookups in this process")
            return 0.0
        return value

    cli = wl if isinstance(wl, CliModels) else None
    if isinstance(wl, GenericEnum):
        redundant_misses = redundant_envelope_misses()
    else:
        redundant_misses = 0.0
        notes.append("fanwalk.walk.redundant_miss_ratio is measured on generic_enum only")
    nc = "fanwalk.neighbor_candidates"
    metrics = [
        ("exactla.self_s", "s", t.module_self_s("exactla")),
        ("exactla.solve_nonneg.calls", "count", t.calls("exactla.solve_nonneg")),
        ("exactla.solve_nonneg.feasible_ratio", "ratio", t.ratio("feasible", "exactla.solve_nonneg")),
        ("exactla.solve_unique.calls", "count", t.calls("exactla.solve_unique")),
        ("exactla.nullspace.calls", "count", t.calls("exactla.nullspace")),
        ("polytope.vertices_bruteforce.calls", "count", t.calls("polytope.vertices_bruteforce")),
        ("polytope.vertices_bruteforce.self_s", "s", t.self_s("polytope.vertices_bruteforce")),
        ("polytope.lp_min.calls", "count", t.calls("polytope.lp_min")),
        ("cones.self_s", "s", t.module_self_s("cones")),
        ("cones.mesc_failure.calls", "count", t.calls("cones.mesc_failure")),
        ("cones.is_mesc.true_ratio", "ratio", t.ratio("true", "cones.is_mesc")),
        ("cones.are_adjacent.calls", "count", t.calls("cones.are_adjacent")),
        ("cones.are_adjacent.true_ratio", "ratio", t.ratio("true", "cones.are_adjacent")),
        ("fanwalk.walk.self_s", "s", t.self_s("fanwalk.walk")),
        ("fanwalk.neighbor_candidates.calls", "count", t.calls(nc)),
        ("fanwalk.neighbor_candidates.hit_ratio", "ratio", t.ratio("hit", nc)),
        ("fanwalk.candidates_per_wall", "ratio",
         t.child_calls(nc, "cones.are_adjacent") / t.calls(nc) if t.calls(nc) else 0.0),
        ("fanwalk.extreme_point_of.calls", "count", t.calls("fanwalk.extreme_point_of")),
        ("fanwalk.walk.redundant_miss_ratio", "ratio", redundant_misses),
        ("fanwalk.verify_graph.self_s", "s", t.self_s("fanwalk.verify_graph")),
        ("fanwalk.verify_graph.not_ok_ratio", "ratio", t.ratio("not_ok", "fanwalk.verify_graph")),
        ("fanwalk.graph_to_json.self_s", "s", t.self_s("fanwalk.graph_to_json")),
        ("credal.self_s", "s", t.module_self_s("credal")),
        ("credal.is_coherent.calls", "count", t.calls("credal.is_coherent")),
        ("credal.natural_extension.calls", "count", t.calls("credal.natural_extension")),
        ("credal.build_credal_hrep.hit_ratio", "ratio", hit_ratio("build_credal_hrep")),
        ("credal.credal_vertices.hit_ratio", "ratio", hit_ratio("credal_vertices")),
        ("chains2mono.self_s", "s", t.module_self_s("chains2mono")),
        ("chains2mono.chain_vertex.calls", "count", t.calls("chains2mono.chain_vertex")),
        ("chains2mono.is_two_monotone.self_s", "s", t.self_s("chains2mono.is_two_monotone")),
        ("chains2mono.choquet.calls", "count", t.calls("chains2mono.choquet")),
        ("pri.self_s", "s", t.module_self_s("pri")),
        ("pri.enumerate_extreme_pri.self_s", "s", t.self_s("pri.enumerate_extreme_pri")),
        ("pri.pri_neighbors.calls", "count", t.calls("pri.pri_neighbors")),
        ("pri.vertex_for_cone.calls", "count", t.calls("pri.vertex_for_cone")),
        ("pri.new_cone_ratio", "ratio",
         t.counters.get("pri.enumerate_extreme_pri.new_cones", 0) / t.counters["pri.pri_neighbors.emitted"]
         if t.counters.get("pri.pri_neighbors.emitted") else 0.0),
        ("pri.natural_extension_pri.calls", "count", t.calls("pri.natural_extension_pri")),
        ("cli.compute_share", "ratio", cli.compute_share() if cli else 0.0),
        ("cli.overhead_ms_p50", "ms", cli.overhead_ms_p50() if cli else 0.0),
        ("trace_overhead_ratio", "ratio", sum(traced) / sum(untraced) if untraced else 0.0),
    ]
    import kernels

    for case in kernels.CASES:
        metrics.append((f"kernel.{case.__name__}_ms", "ms", 1000 * case()))
    return metrics


def main(argv=None):
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads
    from credalfans import BACKEND, credal

    out_dir = ROOT / ".perfbench_run"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    _pin_to_one_cpu()
    speed = Speed()
    try:
        setups = []  # (start, end) per set-up
        for _ in range(SETUP_REPEATS):
            credal.build_credal_hrep.cache_clear()
            credal._credal_vertices.cache_clear()
            speed.sample(force=True)
            t0 = time.perf_counter()
            _import_package_fresh()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            first_unit = wl.unit(0)
            setups.append((t0, time.perf_counter()))
            speed.sample(force=True)

        # the number of units is fixed by --seconds, not by the clock, so
        # that every run of a workload times the same mix of operations; a
        # traced run times each operation twice, so it takes half the units
        units = max(1, round(args.seconds / wl.NOMINAL_UNIT_S / (1 + args.trace)))
        ops = wl.ops(units, first_unit)
        random.Random(f"order:{args.workload}:{args.seed}").shuffle(ops)
        notes = []
        runner = Runner(wl, bool(args.trace), speed)
        runner.measure(ops)

        rss_who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "backend": BACKEND, "nproc": os.cpu_count(),
            "units": units, "ops": runner.attempted,
            "reference_speed": round(Speed.REFERENCE_S / statistics.median(speed.took), 4),
        }
        if args.trace:
            metrics = per_layer(runner.tracer, wl, runner.untraced, runner.times, notes)
            runner.tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json", info)
        else:
            info["samples"] = len(runner.times)
            info["tail_percentile"] = round(tail(runner.times)[1], 2)
            metrics = []
            for suffix, times, setup in (("", runner.times, [speed.scaled(*span) for span in setups]),
                                         ("_measured", runner.measured, [b - a for a, b in setups])):
                metrics += [
                    ("setup_s" + suffix, "s", statistics.median(setup)),
                    ("ops_per_s" + suffix, "1/s", len(times) / sum(times)),
                    ("op_p50_ms" + suffix, "ms", 1000 * statistics.median(times)),
                    ("op_tail_ms" + suffix, "ms", 1000 * tail(times)[0]),
                ]
            metrics.append(("peak_rss_mb", "MB", resource.getrusage(rss_who).ru_maxrss / 1024))
            by_kind = {}
            for op, t in zip(ops, runner.times):
                by_kind.setdefault(op.kind, []).append(t)
            metrics += [(f"kind.{kind}.p50_ms", "ms", 1000 * statistics.median(ts))
                        for kind, ts in sorted(by_kind.items())]
            if args.workload != "natex_queries":
                metrics.append(("vertices_per_s", "1/s", runner.vertices / sum(runner.times)))
            metrics.append(("fail_ratio", "ratio", runner.failed / runner.attempted))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in info.items():
        print(f"{key}: {value}")
    for note in notes:
        print(f"note: {note}")
    for name, unit, value in metrics:
        print(f"{name}: {value:.6g} {unit}")
    # the measured-speed copies, vertices_per_s (no value on the query
    # workload) and fail_ratio (= failed / attempted) are printed above only
    declared = {name: {"value": value, "unit": unit} for name, unit, value in metrics
                if args.trace or name in END_TO_END}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": declared}))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
