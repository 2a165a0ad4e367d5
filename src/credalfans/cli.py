"""Command line front end.

Subcommands:

    check     parse a model and report its coherence diagnostics
    vertices  enumerate extreme points, CSV with exact rational cells
    fan       walk or construct the cone adjacency structure and report it
    graph     emit the adjacency graph as JSON
    natex     evaluate the lower expectation of a gamble file
    bounds    print the sharp cone-count bounds for interval models

Models are JSON documents with a mandatory "type" of "lower_prevision",
"lower_probability", or "pri". Engines: "auto" picks the structured engine
the model supports, "walk" runs the generic adjacency walk, "chains" the
chain fan of a 2-monotone lower probability, "pri" the interval exchange
rules, "oracle" the brute-force vertex enumerator. Exit status: 0 success,
1 a property of the model failed (incoherent, not 2-monotone, verification
mismatch, an irregular or disconnected fan), 2 unusable input (schema errors,
unwritable output paths, wrong engine for the model type, oracle guards
exceeded, a chain fan on more than CHAIN_FAN_MAX_N = 8 outcomes, a result
past Python's int-to-str digit limit). --verify runs the oracle first, so
its guard refusal comes before the engine runs.

All values are exact rationals; --decimal (vertices, natex) adds 12-digit
approximations for reading convenience, explicitly marked non-authoritative.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from fractions import Fraction

from .exactla import DigitLimitError, _min_dot, _scaled, format_rat

__all__ = ["main"]

# Largest outcome count the chain fan is built for: n! nodes; fan at n = 8
# takes about 2 s and 90 MB peak RSS.
CHAIN_FAN_MAX_N = 8


class InputError(Exception):
    """Exit-2 class: the request cannot be run as posed."""


class PropertyError(Exception):
    """Exit-1 class: the model fails the property the command relies on."""


def _read_json(path, what):
    """(raw bytes, parsed document) of a JSON input file. Every way the file
    can be unusable is an InputError naming the file's role (what): it
    cannot be read, its bytes are no JSON text in any encoding JSON allows,
    it is no valid JSON, or it nests deeper than the parser recurses."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None
    try:
        return raw, json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{what} file is nested too deeply to parse") from None


def _load_model(args):
    """(tag, model, report): the parsed model and the command's run report,
    opened on the model's path and the sha256 of its bytes."""
    import hashlib  # loads OpenSSL: a start-up cost only model commands pay
    raw, obj = _read_json(args.model, "model")
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("model document must be an object with a 'type' field")
    report = Report(args.command)
    report.add("model", args.model)
    report.add("sha256", hashlib.sha256(raw).hexdigest())
    tag = obj["type"]
    from . import credal
    try:
        if tag == "lower_prevision":
            return tag, credal.lower_prevision_from_json(obj), report
        if tag == "lower_probability":
            from . import chains2mono
            return tag, chains2mono.lower_probability_from_json(obj), report
        if tag == "pri":
            from . import pri
            return tag, pri.pri_from_json(obj), report
    except credal.SchemaError as exc:
        raise InputError(str(exc)) from None
    raise InputError(f"unknown model type {tag!r}")


def _write_file(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}") from None


def _as_prevision(tag, model):
    """The model as a lower prevision, for the generic engines."""
    if tag == "lower_probability":
        from . import chains2mono
        return chains2mono.as_lower_prevision(model)
    if tag == "pri":
        from . import pri
        return pri.as_lower_prevision(model)
    return model


def _hrep(tag, model):
    """(polytope, universe) of the credal set for the generic engines."""
    if tag == "pri":
        from .pri import pri_hrep
        return pri_hrep(model)
    from .credal import build_credal_hrep
    return build_credal_hrep(_as_prevision(tag, model))


def _violation(model, rep):
    """(event a, event b, "lhs < rhs") of a failed 2-monotonicity report,
    each event as its outcome names joined by |."""
    a, b = ("|".join(model.space.names[i] for i in sorted(e)) for e in rep.violator)
    return a, b, f"{format_rat(rep.lhs)} < {format_rat(rep.rhs)}"


def _chain_model(tag, model):
    """The 2-monotone lower probability the chains engine works on."""
    if tag == "pri":
        from . import pri
        if not pri.is_coherent_pri(model).proper:
            raise PropertyError("improper interval model: no distribution fits the bounds")
        model = pri.induced_2mono(model)
    from .chains2mono import is_two_monotone
    rep = is_two_monotone(model)
    if not rep.ok:
        a, b, gap = _violation(model, rep)
        raise PropertyError(f"not 2-monotone: events {a} and {b} give {gap}")
    return model


# Graph functions, given the command, return (graph or None, universe, distinct
# vertices); natex functions the exact lower expectation of a gamble's value vector.

def _pri_graph(tag, model, command):
    from . import pri
    points, graph = pri.enumerate_extreme_pri(model)
    return graph, pri.pri_hrep(model)[1], points


def _chains_graph(tag, model, command):
    n = model.space.n
    if n > CHAIN_FAN_MAX_N:
        raise InputError(
            f"chain fan refused: {n} outcomes > {CHAIN_FAN_MAX_N} ({n}! chains); "
            "use --engine pri for interval models")
    model = _chain_model(tag, model)
    from . import chains2mono
    if command == "vertices":  # the enumeration, without the n! fan nodes
        return None, None, chains2mono.enumerate_extreme_2mono(model)
    graph = chains2mono.chain_graph(model)
    return graph, chains2mono.event_universe(n), graph.vertices


def _walk_graph(tag, model, command):
    h, universe = _hrep(tag, model)
    # Incoherent input is refused up front, though the walk learns slack rows
    # and gives the oracle's vertex set on models/' incoherent files: golden
    # cells and perfbench's cli_models pin this exit 1 (ROADMAP items 13, 21).
    if tag == "pri":
        from .pri import is_coherent_pri
        if not is_coherent_pri(model).coherent:
            raise PropertyError(
                "incoherent interval model: the adjacency walk needs reachable "
                "bounds (run check for the repaired bounds)")
    else:
        from .credal import is_coherent
        rep = is_coherent(_as_prevision(tag, model))
        if not rep.coherent:
            raise PropertyError(
                "empty credal set" if rep.empty
                else "incoherent model: some assessed bound is not attained; "
                     "the adjacency walk needs a coherent model (try --engine oracle "
                     "for the raw vertex set)")
    from .fanwalk import walk
    graph = walk(h, universe)
    return graph, universe, graph.vertices


def _oracle_graph(tag, model, command):
    """The brute-force vertex set, subject to the oracle guards."""
    from .polytope import vertices_bruteforce
    h, _ = _hrep(tag, model)
    return None, None, frozenset(v.point for v in vertices_bruteforce(h))


def _oracle_natex(tag, model, gamble, points=None):
    # Raw polytope minimum over the oracle's vertex set (points, when taken
    # already): valid on incoherent input too, where the natural extension
    # (an envelope notion) refuses to answer.
    from .polytope import EmptyPolytopeError
    if points is None:
        points = _oracle_graph(tag, model, "natex")[2]
    if not points:
        raise EmptyPolytopeError("no vertices: empty or degenerate feasible set")
    return _min_dot(map(_scaled, points), gamble)


def _pri_natex(tag, model, gamble):
    from .pri import natural_extension_pri
    return natural_extension_pri(model, gamble)


def _chains_natex(tag, model, gamble):
    from .chains2mono import choquet
    return choquet(_chain_model(tag, model), gamble)


def _walk_natex(tag, model, gamble):
    from .credal import natural_extension
    return natural_extension(_as_prevision(tag, model), gamble)


_ANY = ("lower_prevision", "lower_probability", "pri")

# engine -> (model types it takes, graph function, natex function), each
# function called through _run_engine: the structured engines, then the
# generic ones, which take any type. --engine accepts the engines that take
# the model's type, and auto picks the first of them.
ENGINES = {
    "pri": (("pri",), _pri_graph, _pri_natex),
    "chains": (("lower_probability", "pri"), _chains_graph, _chains_natex),
    "walk": (_ANY, _walk_graph, _walk_natex),
    "oracle": (_ANY, _oracle_graph, _oracle_natex),
}


def _run_engine(engine, step, tag, *args):
    """Run step(tag, *args), mapping the engines' exceptions to exit classes.
    credal and polytope define them, so both load before the step runs. Only
    the walk and the oracle reach a guard; its refusal gets a hint naming
    the structured engines this model type takes."""
    from . import credal, polytope
    try:
        return step(tag, *args)
    except credal.IncoherenceError as exc:
        raise PropertyError(str(exc)) from None
    except polytope.EmptyPolytopeError as exc:
        raise PropertyError(f"empty credal set: {exc}") from None
    except polytope.OracleGuardError as exc:
        options = " or ".join(f"--engine {e}" for e, (types, *_) in ENGINES.items()
                              if tag in types and types != _ANY)
        if not options:
            hint = f"no structured engine applies to a {tag} model; reduce the instance size"
        elif engine == "walk":
            hint = f"use {options} for structured models of this size"
        else:
            hint = "the oracle is restricted to small instances; use a structured engine"
        raise InputError(f"{exc} ({hint})") from None


def _start(args):
    """Load the model, pick the engine and open the run report."""
    tag, model, report = _load_model(args)
    allowed = [e for e, (types, *_) in ENGINES.items() if tag in types]
    engine = args.engine
    if engine == "auto":
        engine = allowed[0]
        if engine == "chains":  # a lower probability: chains only if 2-monotone
            from .chains2mono import is_two_monotone
            engine = "chains" if is_two_monotone(model).ok else "walk"
    elif engine not in allowed:
        raise InputError(f"engine {engine!r} does not apply to a {tag} model "
                         f"(choose from {sorted(allowed)})")
    if engine == "oracle" and args.command in ("fan", "graph"):
        raise InputError("the oracle engine enumerates vertices only; pick walk, chains, or pri")
    report.add("engine", engine)
    return tag, model, engine, report


def _compute_graph(args):
    """(model, graph, universe, distinct vertices, report, verify lines) under
    the picked engine. --verify takes the oracle's vertex set first, so that
    its guard refusal comes before the engine runs, and the engine's must
    match it; the verify lines, for the command to add, say so."""
    tag, model, engine, report = _start(args)
    verified = []
    if args.verify:
        t0 = time.perf_counter()
        oracle = _run_engine("oracle", _oracle_graph, tag, model, args.command)[2]
        verified = [("time_ms_verify", round(1000 * (time.perf_counter() - t0))),
                    ("verified", "true")]
    t0 = time.perf_counter()
    graph, universe, points = _run_engine(engine, ENGINES[engine][1], tag, model, args.command)
    report.add("time_ms_compute", round(1000 * (time.perf_counter() - t0)))
    if verified and oracle != (got := frozenset(points)):
        missing, extra = len(oracle - got), len(got - oracle)
        raise PropertyError(
            f"verification mismatch: {missing} oracle vertices missing, {extra} spurious")
    return model, graph, universe, points, report, verified


class Report:
    """Ordered key: value lines, kept machine-greppable."""

    def __init__(self, command):
        self.lines = [("command", command)]

    def add(self, key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.lines.append((key, value))

    def write(self, stream):
        stream.write("".join(f"{key}: {value}\n" for key, value in self.lines))


def _decimal(x) -> str:
    """x rounded half-even to 12 significant digits from its exact value,
    laid out as float's '.12g' lays it out; exact, so a magnitude past
    float's range keeps its digits and exponent."""
    mag = abs(x)
    exp = len(str(mag.numerator)) - len(str(mag.denominator))
    if mag < Fraction(10) ** exp:
        exp -= 1  # now 10**exp <= mag < 10**(exp + 1)
    digits = round(mag / Fraction(10) ** (exp - 11))
    if digits == 10 ** 12:
        digits, exp = digits // 10, exp + 1
    text = str(digits)
    if -4 <= exp < 12:  # positional, where '.12g' picks it
        text = "0" * -exp + text
        point, suffix = max(exp, 0) + 1, ""
    else:
        point, suffix = 1, f"e{exp:+03d}"
    frac = text[point:].rstrip("0")
    return ("-" if x < 0 else "") + text[:point] + ("." + frac if frac else "") + suffix


def _vertices_csv(points, names, decimal):
    """CSV text of the sorted vertices: exact cells, then under decimal
    their approximations."""
    import csv
    header = list(names)
    if decimal:
        header += [f"{name}_dec" for name in names]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for p in sorted(points):
        cells = [format_rat(x) for x in p]
        if decimal:
            cells += [_decimal(x) for x in p]
        writer.writerow(cells)
    return text.getvalue()


def _cmd_check(args):
    tag, model, report = _load_model(args)
    report.add("type", tag)
    if tag == "pri":
        from .pri import is_coherent_pri
        rep = is_coherent_pri(model)
        report.add("proper", rep.proper)
        report.add("coherent", rep.coherent)
        if rep.proper and not rep.coherent:
            fixed = rep.repaired
            report.add("repaired_lower", " ".join(format_rat(x) for x in fixed.lower))
            report.add("repaired_upper", " ".join(format_rat(x) for x in fixed.upper))
        ok = rep.coherent
    elif tag == "lower_probability":
        from .chains2mono import is_two_monotone
        rep = is_two_monotone(model)
        report.add("two_monotone", rep.ok)
        if not rep.ok:
            for key, value in zip(("violator_a", "violator_b", "violation"), _violation(model, rep)):
                report.add(key, value)
        ok = rep.ok
    else:
        from .credal import is_coherent
        rep = _run_engine("walk", lambda tag, model: is_coherent(model), tag, model)
        report.add("empty", rep.empty)
        report.add("coherent", rep.coherent)
        for chk in rep.failures():
            attained = "unattained (empty)" if chk.attained is None else format_rat(chk.attained)
            report.add("slack_assessment",
                       f"lower {format_rat(chk.lower)} vs exact {attained}")
        ok = rep.coherent
    return (0 if ok else 1), report, None, None


def _cmd_vertices(args):
    model, graph, _, points, report, verified = _compute_graph(args)
    report.add("n_vertices", len(points))
    report.lines += verified
    data = _vertices_csv(points, model.space.names, args.decimal)
    if args.decimal:
        report.add("decimal", "12-digit approximations, non-authoritative")
    return 0, report, data, args.out


def _cmd_fan(args):
    model, graph, _, points, report, verified = _compute_graph(args)
    from .fanwalk import graph_to_dot, verify_graph
    fan_rep = verify_graph(graph)
    report.add("n_nodes", fan_rep.n_nodes)
    report.add("n_edges", fan_rep.n_edges)
    report.add("n_vertices", len(points))
    report.add("degree_histogram",
               " ".join(f"{deg}:{count}" for deg, count in fan_rep.degree_histogram))
    report.add("connected", fan_rep.connected)
    report.add("regular", fan_rep.regular)
    report.add("structure_ok", fan_rep.ok)
    report.lines += verified
    if args.dot:
        report.add("dot", args.dot)
    return (0 if fan_rep.ok else 1), report, graph_to_dot(graph) if args.dot else None, args.dot


def _cmd_graph(args):
    model, graph, universe, points, report, verified = _compute_graph(args)
    report.add("n_nodes", len(graph.nodes))
    report.add("n_edges", len(graph.pairs))
    report.lines += verified
    from .fanwalk import graph_to_json
    data = json.dumps(graph_to_json(graph, universe), indent=2) + "\n"
    if args.out:
        report.add("out", args.out)
    return 0, report, data, args.out


def _cmd_natex(args):
    tag, model, engine, report = _start(args)
    _, gobj = _read_json(args.gamble, "gamble")
    from .credal import SchemaError, parse_gamble
    try:
        gamble = parse_gamble(gobj, model.space, "gamble").values
    except SchemaError as exc:
        raise InputError(str(exc)) from None
    if args.verify:  # the oracle's vertex set first, as in _compute_graph
        points = _run_engine("oracle", _oracle_graph, tag, model, args.command)[2]
    t0 = time.perf_counter()
    value = _run_engine(engine, ENGINES[engine][2], tag, model, gamble)
    report.add("time_ms_compute", round(1000 * (time.perf_counter() - t0)))
    if args.verify:
        oracle = _run_engine("oracle", _oracle_natex, tag, model, gamble, points)
        if oracle != value:
            raise PropertyError(
                f"verification mismatch: engine {format_rat(value)} vs oracle {format_rat(oracle)}")
        report.add("verified", True)
    report.add("value", format_rat(value))
    if args.decimal:
        report.add("value_dec", _decimal(value))
        report.add("decimal", "12-digit approximation, non-authoritative")
    return 0, report, None, None


def _cmd_bounds(args):
    if (args.n is None) == (args.model is None):
        raise InputError("give exactly one of --n or --model")
    if args.model is not None:
        tag, model, report = _load_model(args)
        if tag != "pri":
            raise InputError("cone-count bounds apply to interval models")
        n = model.space.n
    else:
        n, report = args.n, Report(args.command)
    from .pri import count_bounds
    try:
        low, high = count_bounds(n)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report.add("n", n)
    report.add("min_cones", low)
    report.add("max_cones", high)
    return 0, report, None, None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="credal",
        description="exact normal-fan computations for credal sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, decimal=False):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--engine", default="auto",
                       choices=("auto", "walk", "chains", "pri", "oracle"))
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the brute-force oracle")
        if decimal:
            p.add_argument("--decimal", action="store_true",
                           help="add non-authoritative decimal approximations")

    p = sub.add_parser("check", help="coherence diagnostics")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("vertices", help="extreme points as CSV")
    common(p, decimal=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("fan", help="cone adjacency structure report")
    common(p)
    p.add_argument("--dot", help="write the graph in DOT format here")
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("graph", help="adjacency graph as JSON")
    common(p)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("natex", help="lower expectation of a gamble")
    common(p, decimal=True)
    p.add_argument("--gamble", required=True, help="gamble JSON file")
    p.set_defaults(func=_cmd_natex)

    p = sub.add_parser("bounds", help="sharp cone-count bounds")
    p.add_argument("--n", type=int)
    p.add_argument("--model")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    """Run one command. Each _cmd_* builds its whole result and returns (exit
    code, report, data text or None, output path or None); only main writes,
    so a refused command leaves no partial output. The data goes to its path
    or stdout, the report to whichever of stdout and stderr the data leaves free."""
    args = _build_parser().parse_args(argv)
    try:
        code, report, data, path = args.func(args)
        stream = sys.stdout
        if path:
            _write_file(path, data)
        elif data is not None:
            sys.stdout.write(data)
            stream = sys.stderr
        report.write(stream)
        return code
    except (PropertyError, InputError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PropertyError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
