"""End-to-end tests of the command line front end.

Everything goes through main(argv) so exit codes and stream discipline are
exercised exactly as a shell user would see them: data on stdout, report on
stderr when data owns stdout, report on stdout otherwise.
"""

import ast
import csv
import hashlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from credalfans import chains2mono, cli, credal, fanwalk, pri
from credalfans.cli import main
from credalfans.cones import support_universe

from conftest import open_first_wall

MODELS = Path(__file__).resolve().parent.parent / "models"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def report_get(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in report:\n{text}")


def model(name):
    return str(MODELS / name)


class TestCheck:
    def test_coherent_pri(self, capsys):
        code, out, _ = run(capsys, "check", "--model", model("pri_n3.json"))
        assert code == 0
        assert report_get(out, "coherent") == "true"
        assert report_get(out, "type") == "pri"

    def test_sha256_matches_file_bytes(self, capsys):
        path = model("pri_n3.json")
        _, out, _ = run(capsys, "check", "--model", path)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert report_get(out, "sha256") == digest

    def test_unreachable_pri_reports_repair(self, capsys):
        code, out, _ = run(capsys, "check", "--model", model("pri_n3_unreachable.json"))
        assert code == 1
        assert report_get(out, "proper") == "true"
        assert report_get(out, "coherent") == "false"
        assert report_get(out, "repaired_lower") == "1/2 0 0"
        assert report_get(out, "repaired_upper") == "1/2 1/2 1/2"

    def test_nonsupermodular_names_violator(self, capsys):
        code, out, _ = run(capsys, "check", "--model", model("lowprob_n3_nonsupermodular.json"))
        assert code == 1
        assert report_get(out, "two_monotone") == "false"
        assert report_get(out, "violator_a") == "x1|x2"
        assert report_get(out, "violator_b") == "x2|x3"
        assert report_get(out, "violation") == "1 < 3/2"

    def test_supermodular_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--model", model("lowprob_n3_supermodular.json"))
        assert code == 0
        assert report_get(out, "two_monotone") == "true"

    def test_vacuous_prevision(self, capsys):
        code, out, _ = run(capsys, "check", "--model", model("vacuous_n3.json"))
        assert code == 0
        assert report_get(out, "coherent") == "true"

    def test_general_prevision(self, capsys):
        code, out, _ = run(capsys, "check", "--model", model("prevision_n3_general.json"))
        assert code == 0
        assert report_get(out, "coherent") == "true"

    @pytest.mark.parametrize("assessments, lines", [
        ([{"event": ["a"], "lower": "1/2"}, {"event": ["a", "b"], "lower": "1/4"}],
         ["empty: false", "coherent: false", "slack_assessment: lower 1/4 vs exact 1/2"]),
        ([{"event": ["a"], "lower": "3/4", "upper": "1/4"}],
         ["empty: true", "coherent: false",
          "slack_assessment: lower 3/4 vs exact unattained (empty)",
          "slack_assessment: lower -1/4 vs exact unattained (empty)"]),
    ], ids=["incoherent", "empty"])
    def test_failed_prevision_names_each_slack_assessment(self, capsys, tmp_path,
                                                          assessments, lines):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "lower_prevision", "outcomes": ["a", "b", "c"],
                                    "assessments": assessments}))
        code, out, err = run(capsys, "check", "--model", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines()[4:] == lines

    def test_vacuous_prevision_past_the_guards(self, capsys, tmp_path):
        # no assessment: coherent with no walk and no guard, at n = 7
        path = tmp_path / "vacuous_n7.json"
        path.write_text(json.dumps({"type": "lower_prevision", "assessments": [],
                                    "outcomes": [f"x{i}" for i in range(7)]}))
        code, out, _ = run(capsys, "check", "--model", str(path))
        assert code == 0
        assert report_get(out, "coherent") == "true"


class TestVertices:
    # permutations of the interval model's vertex coordinates, lex order
    GOLDEN = [
        ["1/6", "1/3", "1/2"],
        ["1/6", "1/2", "1/3"],
        ["1/3", "1/6", "1/2"],
        ["1/3", "1/2", "1/6"],
        ["1/2", "1/6", "1/3"],
        ["1/2", "1/3", "1/6"],
    ]

    def test_csv_to_stdout(self, capsys):
        code, out, err = run(capsys, "vertices", "--model", model("pri_n3.json"))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x1", "x2", "x3"]
        assert rows[1:] == self.GOLDEN
        assert report_get(err, "engine") == "pri"
        assert report_get(err, "n_vertices") == "6"

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "v.csv"
        code, out, _ = run(capsys, "vertices", "--model", model("pri_n3.json"),
                           "--out", str(target))
        assert code == 0
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[1:] == self.GOLDEN
        # report moves to stdout once the data has its own file
        assert report_get(out, "n_vertices") == "6"

    def test_refusal_past_the_digit_limit_leaves_no_output(self, capsys, tmp_path):
        # vertex (1/A, 1/B, 1 - 1/A - 1/B) with 2200-digit A and B: its last
        # cell's denominator has about 4400 digits, past the 4300 that
        # Python converts to text; the CSV header must not be written either
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "type": "lower_prevision", "outcomes": ["x1", "x2", "x3"],
            "assessments": [{"event": ["x1"], "lower": f"1/{10 ** 2199 + 7}"},
                            {"event": ["x2"], "lower": f"1/{10 ** 2199 + 9}"}]}))
        target = tmp_path / "v.csv"
        for out in ([], ["--out", str(target)]):
            code, stdout, err = run(capsys, "vertices", "--model", str(mpath), *out)
            assert (code, stdout) == (2, "")
            assert err == ("error: result too large to print: more than 4300 digits "
                           "in its numerator or denominator\n")
        assert not target.exists()

    def test_decimal_columns_marked(self, capsys):
        code, out, err = run(capsys, "vertices", "--model", model("pri_n3.json"),
                             "--decimal")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x1", "x2", "x3", "x1_dec", "x2_dec", "x3_dec"]
        assert rows[1][3:] == ["0.166666666667", "0.333333333333", "0.5"]
        assert "non-authoritative" in err

    def test_verify_small(self, capsys):
        code, _, err = run(capsys, "vertices", "--model", model("pri_n3.json"),
                           "--verify")
        assert code == 0
        assert report_get(err, "verified") == "true"

    def test_verify_guard_at_n10(self, capsys):
        code, _, err = run(capsys, "vertices", "--model",
                           model("pri_n10_uniform_max.json"), "--verify")
        assert code == 2
        assert "structured engine" in err

    def test_verify_guard_refuses_before_the_engine(self, capsys, monkeypatch, tmp_path):
        def engine(*args):
            raise AssertionError("the engine ran before the oracle guard")

        monkeypatch.setattr(pri, "enumerate_extreme_pri", engine)
        monkeypatch.setattr(pri, "natural_extension_pri", engine)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({f"x{k}": str(k) for k in range(1, 11)}))
        refusal = ("error: brute force refused: dimension 10 > 6; use a structured engine "
                   "or raise max_dim explicitly (the oracle is restricted to small "
                   "instances; use a structured engine)\n")
        for argv in (["vertices"], ["fan"], ["graph"], ["natex", "--gamble", str(gpath)]):
            code, out, err = run(capsys, *argv, "--verify",
                                 "--model", model("pri_n10_uniform_max.json"))
            assert (code, out, err) == (2, "", refusal), argv

    def test_oracle_engine_handles_incoherent(self, capsys):
        code, out, _ = run(capsys, "vertices", "--model",
                           model("lowprob_n3_nonsupermodular.json"),
                           "--engine", "oracle")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1:] == [
            ["0", "3/4", "1/4"],
            ["0", "1", "0"],
            ["1/4", "1/2", "1/4"],
            ["1/4", "3/4", "0"],
        ]

    def test_supermodular_auto_picks_chains(self, capsys):
        code, _, err = run(capsys, "vertices", "--model",
                           model("lowprob_n3_supermodular.json"), "--verify")
        assert code == 0
        assert report_get(err, "engine") == "chains"
        assert report_get(err, "n_vertices") == "6"
        assert report_get(err, "verified") == "true"


    @pytest.mark.parametrize("command", ["graph", "fan"])
    def test_chain_fan_builds_its_universe_once(self, capsys, monkeypatch, command):
        # chain_graph's node index and the export read one event universe
        calls = []

        def spy(rows):
            calls.append(rows)
            return support_universe(rows)

        monkeypatch.setattr(chains2mono, "support_universe", spy)
        chains2mono.event_universe.cache_clear()
        code, out, err = run(capsys, command, "--model", model("lowprob_n3_supermodular.json"))
        chains2mono.event_universe.cache_clear()
        assert code == 0 and report_get(out + err, "engine") == "chains"
        assert len(calls) == 1

    @pytest.mark.parametrize("name, engine", [("lowprob_n3_supermodular.json", "auto"),
                                              ("pri_n3.json", "chains")])
    def test_chains_vertices_build_no_fan(self, capsys, monkeypatch, name, engine):
        # vertices takes the chain enumeration's points: chain_graph never
        # runs and fanwalk is never imported; the CSV is the oracle's
        code, expected, _ = run(capsys, "vertices", "--model", model(name), "--engine", "oracle")
        assert code == 0

        def no_fan(lowprob):
            raise AssertionError("vertices built the chain fan")

        monkeypatch.setattr(chains2mono, "chain_graph", no_fan)
        monkeypatch.setitem(sys.modules, "credalfans.fanwalk", None)
        code, out, err = run(capsys, "vertices", "--model", model(name), "--engine", engine)
        assert (code, out) == (0, expected)
        assert report_get(err, "engine") == "chains"

class TestFan:
    def test_hexagon_report(self, capsys):
        code, out, _ = run(capsys, "fan", "--model", model("pri_n3.json"))
        assert code == 0
        assert report_get(out, "n_nodes") == "6"
        assert report_get(out, "n_edges") == "6"
        assert report_get(out, "degree_histogram") == "2:6"
        assert report_get(out, "structure_ok") == "true"

    def test_n10_min_counts(self, capsys):
        code, out, _ = run(capsys, "fan", "--model", model("pri_n10_uniform_min.json"))
        assert code == 0
        assert report_get(out, "n_nodes") == "90"
        assert report_get(out, "n_edges") == "405"
        assert report_get(out, "degree_histogram") == "9:90"
        assert report_get(out, "connected") == "true"

    def test_walk_refuses_incoherent(self, capsys):
        code, _, err = run(capsys, "fan", "--model",
                           model("lowprob_n3_nonsupermodular.json"))
        assert code == 1
        assert "coherent" in err

    def test_walk_refuses_unreachable_pri(self, capsys):
        code, _, err = run(capsys, "fan", "--model",
                           model("pri_n3_unreachable.json"), "--engine", "walk")
        assert code == 1
        assert "reachable" in err

    def test_oracle_engine_rejected(self, capsys):
        code, _, err = run(capsys, "fan", "--model", model("pri_n3.json"),
                           "--engine", "oracle")
        assert code == 2
        assert "vertices only" in err

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "fan.dot"
        code, _, _ = run(capsys, "fan", "--model", model("pri_n3.json"),
                         "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("graph fan {")
        assert text.count(" -- ") == 6

    def test_walk_engine_agrees_on_prevision(self, capsys):
        code, out, _ = run(capsys, "fan", "--model",
                           model("prevision_n3_general.json"), "--verify")
        assert code == 0
        assert report_get(out, "engine") == "walk"
        assert report_get(out, "structure_ok") == "true"
        assert report_get(out, "verified") == "true"

    def test_chains_engine_on_pri(self, capsys):
        # at n = 3 the chain fan and the interval-exchange fan coincide
        code, out, _ = run(capsys, "fan", "--model", model("pri_n3.json"),
                           "--engine", "chains")
        assert code == 0
        assert report_get(out, "n_nodes") == "6"
        assert report_get(out, "structure_ok") == "true"


def _prevision_file(tmp_path, names, rows):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "type": "lower_prevision", "outcomes": names,
        "assessments": [{"gamble": dict(zip(names, map(str, g))), "lower": low}
                        for g, low in rows]}))
    return str(path)


# redundant_envelope_a of test_walk_pinned.py, on which the walk once left two
# walls open; the first assessment set on which it once found no seed cone;
# and two assessments that once left a wall open on a segment
REDUNDANT_MODELS = {
    "redundant_envelope_a": (["x0", "x1", "x2"], [
        ((0, -4, -2), "-10/7"), ((-4, -3, 6), "-9/4"), ((5, 6, 5), "61/12"),
        ((7, -1, 5), "5"), ((-1, 6, -1), "-5/12"), ((3, -2, 3), "16/7")]),
    "no_seed_n2": (["x1", "x2"], [
        ((6, 3), "15/4"), ((-4, -1), "-37/10"), ((7, -1), "1"), ((0, 3), "3/10")]),
    "open_wall_n2": (["x1", "x2"], [((2, 0), "1"), ((2, -2), "0")]),
}


class TestIncompleteFan:
    @pytest.mark.parametrize("name", sorted(REDUNDANT_MODELS))
    def test_redundant_assessments_walk_to_the_oracle_vertices(self, capsys, tmp_path, name):
        path = _prevision_file(tmp_path, *REDUNDANT_MODELS[name])
        code, oracle, _ = run(capsys, "vertices", "--model", path, "--engine", "oracle")
        assert code == 0
        code, out, _ = run(capsys, "vertices", "--model", path)
        assert (code, out) == (0, oracle)
        code, out, _ = run(capsys, "fan", "--model", path)
        assert code == 0 and report_get(out, "structure_ok") == "true"

    def test_vertices_and_graph_refuse_incomplete_walls(self, capsys, tmp_path, monkeypatch):
        # a nonempty record leaves no wall open (fanwalk.walk): a walk made to
        # find no neighbour across a wall is a broken invariant, raised past
        # the exit codes by every command that walks
        path = _prevision_file(tmp_path, *REDUNDANT_MODELS["redundant_envelope_a"])
        gamble = tmp_path / "g.json"
        gamble.write_text(json.dumps({"x0": "1", "x1": "0", "x2": "0"}))
        wall = open_first_wall(monkeypatch)
        commands = [["check"], ["vertices"], ["fan"], ["graph"], ["natex", "--gamble", str(gamble)]]
        for argv in commands:
            with pytest.raises(AssertionError) as exc:
                main([*argv, "--model", path])
            (key, g), = wall
            assert str(exc.value) == (f"the wall of node {key} without generator {g} "
                                      "has no neighbour")
            assert capsys.readouterr() == ("", ""), argv


class TestGraph:
    def test_json_shape(self, capsys):
        code, out, err = run(capsys, "graph", "--model", model("pri_n3.json"))
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"universe", "nodes", "edges"}
        assert len(doc["nodes"]) == 6
        assert len(doc["edges"]) == 6
        for node in doc["nodes"]:
            assert set(node) == {"id", "vertex", "generators"}
            for gid in node["generators"]:
                assert 0 <= gid < len(doc["universe"])
        assert report_get(err, "n_nodes") == "6"

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run(capsys, "graph", "--model",
                           model("lowprob_n3_supermodular.json"),
                           "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert len(doc["nodes"]) == 6
        assert report_get(out, "out") == str(target)

    def test_oracle_engine_rejected(self, capsys):
        code, _, _ = run(capsys, "graph", "--model", model("pri_n3.json"),
                         "--engine", "oracle")
        assert code == 2

    def test_verify_cross_checks_the_oracle(self, capsys):
        code, out, err = run(capsys, "graph", "--model", model("pri_n3.json"), "--verify")
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 6
        assert report_get(err, "verified") == "true"


class TestNatex:
    def test_pri_closed_form(self, capsys):
        code, out, _ = run(capsys, "natex", "--model", model("pri_n3.json"),
                           "--gamble", model("gamble_n3.json"))
        assert code == 0
        assert report_get(out, "engine") == "pri"
        assert report_get(out, "value") == "5/3"

    def test_all_engines_agree_on_pri(self, capsys):
        for engine in ("pri", "walk", "chains", "oracle"):
            code, out, _ = run(capsys, "natex", "--model", model("pri_n3.json"),
                               "--engine", engine,
                               "--gamble", model("gamble_n3.json"))
            assert code == 0
            assert report_get(out, "value") == "5/3"

    def test_choquet_on_supermodular(self, capsys):
        # 1 + (3-2) L(x1) + (2-1) L(x1,x2) = 1 + 1/10 + 1/2
        code, out, _ = run(capsys, "natex", "--model",
                           model("lowprob_n3_supermodular.json"),
                           "--gamble", model("gamble_n3.json"), "--verify")
        assert code == 0
        assert report_get(out, "engine") == "chains"
        assert report_get(out, "value") == "8/5"
        assert report_get(out, "verified") == "true"

    @pytest.mark.parametrize("source", ["prevision_n3_general.json", "redundant_envelope_a"])
    def test_walk_verify_runs_the_walk_against_the_oracle(self, capsys, tmp_path, monkeypatch,
                                                          source):
        if source in REDUNDANT_MODELS:
            names, rows = REDUNDANT_MODELS[source]
            path = _prevision_file(tmp_path, names, rows)
        else:
            path, names = model(source), ["x1", "x2", "x3"]
        gamble = tmp_path / "g.json"
        gamble.write_text(json.dumps(dict(zip(names, ["3", "-1", "1/2"]))))
        calls, real = [], fanwalk.walk
        monkeypatch.setattr(fanwalk, "walk", lambda *args: calls.append(args) or real(*args))
        credal._credal_vertices.cache_clear()
        code, oracle, _ = run(capsys, "natex", "--model", path, "--gamble", str(gamble),
                              "--engine", "oracle")
        assert (code, calls) == (0, [])
        code, out, _ = run(capsys, "natex", "--model", path, "--gamble", str(gamble),
                           "--engine", "walk", "--verify")
        assert (code, len(calls)) == (0, 1)
        assert report_get(out, "verified") == "true"
        assert report_get(out, "value") == report_get(oracle, "value")

    def test_decimal_value(self, capsys):
        code, out, _ = run(capsys, "natex", "--model", model("pri_n3.json"),
                           "--gamble", model("gamble_n3.json"), "--decimal")
        assert code == 0
        assert report_get(out, "value_dec") == "1.66666666667"

    def test_decimal_value_past_float_range(self, capsys, tmp_path):
        # 401-digit payoffs: the value is 5/3 * 10**400, beyond any float
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"x1": "3" + "0" * 400, "x2": "2" + "0" * 400,
                                     "x3": "1" + "0" * 400}))
        code, out, _ = run(capsys, "natex", "--model", model("pri_n3.json"),
                           "--gamble", str(gpath), "--decimal")
        assert code == 0
        assert report_get(out, "value") == "5" + "0" * 400 + "/3"
        assert report_get(out, "value_dec") == "1.66666666667e+400"

    @pytest.mark.parametrize("x, text", [
        (Fraction(24999999999999, 25000000000000), "1"),
        (Fraction(4999999999998, 5), "1e+12"),
        (Fraction(-24999999999999, 250000000000000000), "-0.0001"),
    ])
    def test_decimal_rounding_carries_into_the_exponent(self, x, text):
        # the 12 digits round up to 10**12, one digit more: the exponent carries
        assert cli._decimal(x) == text == format(float(x), ".12g")

    def test_value_past_the_digit_limit_is_exit_2(self, capsys, tmp_path):
        # bounds 1/10**2000 and (10**2000 - 2)/10**2000 with 2500-digit
        # payoffs: the value's numerator has about 4500 digits, past the
        # 4300 that Python converts to text
        big = 10 ** 2000
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "type": "pri", "outcomes": ["a", "b", "c"],
            "lower": {x: f"1/{big}" for x in "abc"},
            "upper": {x: f"{big - 2}/{big}" for x in "abc"}}))
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"a": str(3 ** 5240), "b": str(3 ** 5240 + 1),
                                     "c": str(7 ** 2958)}))
        code, out, err = run(capsys, "natex", "--model", str(mpath), "--gamble", str(gpath))
        assert (code, out) == (2, "")
        assert err == ("error: result too large to print: more than 4300 digits "
                       "in its numerator or denominator\n")

    def test_chains_rejects_nonsupermodular(self, capsys):
        code, _, err = run(capsys, "natex", "--model",
                           model("lowprob_n3_nonsupermodular.json"),
                           "--engine", "chains",
                           "--gamble", model("gamble_n3.json"))
        assert code == 1
        assert "not 2-monotone: events x1|x2 and x2|x3" in err

    def test_oracle_vs_walk_on_incoherent(self, capsys, tmp_path):
        # the raw polytope minimum exists even where the envelope notion
        # refuses: L(x2) = 0 is slack (true minimum 1/2)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"x1": "1", "x2": "2", "x3": "1"}))
        code, out, _ = run(capsys, "natex", "--model",
                           model("lowprob_n3_nonsupermodular.json"),
                           "--engine", "oracle", "--gamble", str(gpath))
        assert code == 0
        assert report_get(out, "value") == "3/2"
        code, _, err = run(capsys, "natex", "--model",
                           model("lowprob_n3_nonsupermodular.json"),
                           "--engine", "walk", "--gamble", str(gpath))
        assert code == 1
        assert "coherent" in err

    def test_chains_gates_coherent_intervals_like_every_input(
            self, capsys, monkeypatch, tmp_path):
        # the induced event envelope of a coherent interval model is
        # 2-monotone, and the local test says so at O(n^2 2^n) cost
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({f"x{i}": str(i % 4) for i in range(1, 11)}))
        argv = ["natex", "--model", model("pri_n10_uniform_max.json"), "--gamble", str(gpath)]
        code, out, _ = run(capsys, *argv, "--engine", "pri")
        assert code == 0
        reports = []
        scan = chains2mono.is_two_monotone
        monkeypatch.setattr(chains2mono, "is_two_monotone",
                            lambda lowprob: reports.append(scan(lowprob)) or reports[-1])
        code, chains_out, _ = run(capsys, *argv, "--engine", "chains")
        assert code == 0
        assert report_get(chains_out, "value") == report_get(out, "value")
        assert [rep.ok for rep in reports] == [True]

    def test_chains_still_scans_unreachable_intervals(self, capsys, monkeypatch):
        calls = []
        scan = chains2mono.is_two_monotone
        monkeypatch.setattr(chains2mono, "is_two_monotone",
                            lambda lowprob: calls.append(lowprob) or scan(lowprob))
        code, _, _ = run(capsys, "natex", "--model", model("pri_n3_unreachable.json"),
                         "--engine", "chains", "--gamble", model("gamble_n3.json"))
        assert code == 0
        assert calls

    def test_bad_gamble_schema(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"x1": "1", "x2": "2"}))
        code, _, err = run(capsys, "natex", "--model", model("pri_n3.json"),
                           "--gamble", str(gpath))
        assert code == 2
        assert "missing outcomes" in err

    def test_missing_gamble_file(self, capsys):
        code, _, err = run(capsys, "natex", "--model", model("pri_n3.json"),
                           "--gamble", "/does/not/exist.json")
        assert code == 2
        assert "cannot read gamble file" in err


class TestBounds:
    def test_by_n(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "10")
        assert code == 0
        assert report_get(out, "min_cones") == "90"
        assert report_get(out, "max_cones") == "1260"

    def test_by_model(self, capsys):
        code, out, _ = run(capsys, "bounds", "--model", model("pri_n3.json"))
        assert code == 0
        assert report_get(out, "n") == "3"
        assert report_get(out, "min_cones") == "6"
        assert report_get(out, "max_cones") == "6"

    def test_small_n_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    def test_needs_exactly_one_source(self, capsys):
        assert run(capsys, "bounds")[0] == 2
        assert run(capsys, "bounds", "--n", "4",
                   "--model", model("pri_n3.json"))[0] == 2

    def test_rejects_non_interval_model(self, capsys):
        code, _, err = run(capsys, "bounds", "--model",
                           model("lowprob_n3_supermodular.json"))
        assert code == 2
        assert "interval models" in err

    def test_large_n_rejected(self, capsys):
        # the upper bound at 20000 outcomes has more digits than Python
        # prints from an int by default
        code, out, err = run(capsys, "bounds", "--n", "20000")
        assert code == 2
        assert out == ""
        assert err == f"error: cone counts are answered for n <= {pri.COUNT_BOUNDS_MAX_N}\n"


class TestInputErrors:
    def test_decimal_only_on_vertices_and_natex(self, capsys):
        # fan and graph print no numbers to approximate, so argparse refuses
        for command in ("fan", "graph"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", model("pri_n3.json"), "--decimal"])
            assert exc.value.code == 2
            assert "--decimal" in capsys.readouterr().err

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "check", "--model", "/does/not/exist.json")
        assert code == 2
        assert "cannot read model file" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_type(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "mystery"}))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "unknown model type" in err

    def test_missing_type(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"outcomes": ["a"]}))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "'type'" in err

    def test_schema_error_path(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "type": "pri", "outcomes": ["a", "b"],
            "lower": {"a": "0.5", "b": "0"},
            "upper": {"a": "1", "b": "1"},
        }))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "$.lower.a" in err

    def test_wrong_engine_for_model(self, capsys):
        code, _, err = run(capsys, "fan", "--model",
                           model("lowprob_n3_supermodular.json"),
                           "--engine", "pri")
        assert code == 2
        assert "does not apply" in err

    def test_pri_engine_requires_pri_model(self, capsys):
        code, _, err = run(capsys, "natex", "--model",
                           model("prevision_n3_general.json"),
                           "--engine", "pri",
                           "--gamble", model("gamble_n3.json"))
        assert code == 2
        assert "does not apply" in err


SEVEN = list("abcdefg")


def prevision7(tmp_path):
    """A seven-outcome lower prevision, past the oracle's guards at dim 7:
    building its credal set runs no LP, and the walk's seed LP, which keeps
    those guards, refuses it as the oracle does."""
    path = tmp_path / "m7.json"
    path.write_text(json.dumps({
        "type": "lower_prevision", "outcomes": SEVEN,
        "assessments": [{"gamble": {x: "2" if x == "a" else "1" for x in SEVEN},
                         "lower": "1"}],
    }))
    return path


class TestRefusals:
    def test_guard_refusal_is_exit_2(self, capsys, tmp_path):
        path = prevision7(tmp_path)
        runs = [["vertices", "--engine", engine] for engine in ("auto", "walk", "oracle")]
        runs += [[command, "--engine", engine] for command in ("fan", "graph")
                 for engine in ("auto", "walk")]
        runs.append(["vertices", "--verify"])
        for argv in runs:
            code, _, err = run(capsys, *argv, "--model", str(path))
            assert code == 2, argv
            assert "brute force refused" in err, argv

    def test_guard_hint_names_only_engines_the_model_type_accepts(self, capsys, tmp_path):
        # _pick_engine accepts walk and oracle for a lower_prevision, and
        # chains besides for a lower_probability
        events = ["|".join(s) for r in range(1, 7) for s in itertools.combinations(SEVEN, r)]
        lowprob = tmp_path / "lowprob7.json"
        lowprob.write_text(json.dumps({
            "type": "lower_probability", "outcomes": SEVEN,
            "values": {e: "0" for e in events},
        }))
        rejected = {prevision7(tmp_path): ("--engine pri", "--engine chains"),
                    lowprob: ("--engine pri",)}
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({x: "1" if x == "a" else "0" for x in SEVEN}))
        runs = [["vertices", "--engine", "walk"], ["vertices", "--engine", "oracle"],
                ["vertices", "--engine", "walk", "--verify"],
                ["fan", "--engine", "walk"], ["graph", "--engine", "walk"],
                ["natex", "--engine", "walk", "--gamble", str(gpath)],
                ["natex", "--engine", "oracle", "--gamble", str(gpath)]]
        for path, engines in rejected.items():
            for argv in runs:
                code, _, err = run(capsys, *argv, "--model", str(path))
                assert code == 2, (path.name, argv)
                assert "brute force refused" in err, (path.name, argv)
                for engine in engines:
                    assert engine not in err, (path.name, argv)
        code, _, err = run(capsys, "vertices", "--engine", "walk", "--model", str(lowprob))
        assert "--engine chains" in err

    def test_chain_fan_refused_above_eight_outcomes(self, capsys, monkeypatch):
        def per_event_work(*args):
            raise AssertionError("per-event work before the size check")

        monkeypatch.setattr(pri, "induced_2mono", per_event_work)
        monkeypatch.setattr(chains2mono, "is_two_monotone", per_event_work)
        for command in ("vertices", "fan", "graph"):
            code, _, err = run(capsys, command, "--model", model("pri_n10_uniform_max.json"),
                               "--engine", "chains")
            assert code == 2
            assert "chain fan refused" in err and "--engine pri" in err

    def test_verify_mismatch_is_exit_1(self, capsys, monkeypatch):
        # an engine made to give one wrong vertex and a value off by one
        def wrong_graph(tag, model, command):
            graph, universe, points = cli._pri_graph(tag, model, command)
            return graph, universe, ((1, 0, 0),) + tuple(points[1:])

        def wrong_value(*args):
            return cli._pri_natex(*args) + 1

        monkeypatch.setitem(cli.ENGINES, "pri", (wrong_graph, wrong_value))
        code, out, err = run(capsys, "vertices", "--model", model("pri_n3.json"), "--verify")
        assert (code, out) == (1, "")
        assert err == "error: verification mismatch: 1 oracle vertices missing, 1 spurious\n"
        code, out, err = run(capsys, "natex", "--model", model("pri_n3.json"),
                             "--gamble", model("gamble_n3.json"), "--verify")
        assert (code, out) == (1, "")
        assert err == "error: verification mismatch: engine 8/3 vs oracle 5/3\n"

    def test_chain_fan_refuses_an_improper_interval_model(self, capsys, tmp_path):
        path = tmp_path / "improper.json"
        path.write_text(json.dumps({"type": "pri", "outcomes": ["a", "b", "c"],
                                    "lower": {"a": "1/2", "b": "1/2", "c": "1/2"},
                                    "upper": {"a": "1", "b": "1", "c": "1"}}))
        code, out, err = run(capsys, "vertices", "--model", str(path), "--engine", "chains")
        assert (code, out) == (1, "")
        assert err == "error: improper interval model: no distribution fits the bounds\n"

    # the JSON parser raises RecursionError on the first and
    # UnicodeDecodeError (a UTF-16 mark, then an odd byte count) on the
    # second; both are unusable input, not a failed property
    MALFORMED = {"deep": "[" * 200000 + "]" * 200000, "undecodable": b"\xff\xfe\x7b"}

    def _malformed(self, tmp_path):
        for name, content in self.MALFORMED.items():
            path = tmp_path / f"{name}.json"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
            yield name, str(path)

    def test_malformed_model_file_is_exit_2(self, capsys, tmp_path):
        for name, path in self._malformed(tmp_path):
            code, out, err = run(capsys, "check", "--model", path)
            assert (code, out) == (2, ""), name
            assert err.startswith("error: model file is "), name

    def test_malformed_gamble_file_is_exit_2(self, capsys, tmp_path):
        for name, path in self._malformed(tmp_path):
            code, out, err = run(capsys, "natex", "--model", model("pri_n3.json"), "--gamble", path)
            assert (code, out) == (2, ""), name
            assert err.startswith("error: gamble file is "), name

    def test_unwritable_output_path_is_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "no_such_dir"
        runs = [["vertices", "--out", str(missing / "v.csv")],
                ["graph", "--out", str(missing / "g.json")],
                ["fan", "--dot", str(missing / "f.dot")]]
        for command, flag, path in runs:
            code, _, err = run(capsys, command, "--model", model("pri_n3.json"), flag, path)
            assert code == 2, command
            assert err.startswith("error: cannot write output file:"), command
            assert path in err, command
        assert not missing.exists()


ONE_OUTCOME = {
    "pri": {"type": "pri", "outcomes": ["a"], "lower": {"a": "1"}, "upper": {"a": "1"}},
    "lower_probability": {"type": "lower_probability", "outcomes": ["a"], "values": {}},
    "lower_prevision": {"type": "lower_prevision", "outcomes": ["a"], "assessments": []},
}


class TestOneOutcome:
    def test_every_model_type_has_the_single_vertex(self, capsys, tmp_path):
        for tag, doc in ONE_OUTCOME.items():
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "vertices", "--model", str(path))
            assert code == 0, tag
            assert list(csv.reader(io.StringIO(out))) == [["a"], ["1"]], tag
            code, out, _ = run(capsys, "fan", "--model", str(path))
            assert code == 0, tag
            assert report_get(out, "n_nodes") == report_get(out, "n_vertices") == "1", tag
            code, out, _ = run(capsys, "graph", "--model", str(path))
            assert code == 0, tag
            assert [nd["vertex"] for nd in json.loads(out)["nodes"]] == [["1"]], tag

    # one outcome's credal set is the point 1 when u = 1, else empty; only
    # l = u = 1 is coherent, so only there do pri and walk give a value
    @pytest.mark.parametrize("low, up, oracle_rows, values", [
        ("1", "1", [["1"]], {"pri": "5/3", "walk": "5/3", "oracle": "5/3"}),
        ("0", "1", [["1"]], {"pri": None, "walk": None, "oracle": "5/3"}),
        ("0", "1/2", [], {"pri": None, "walk": None, "oracle": None}),
    ], ids=["l1-u1", "l0-u1", "l0-u1_2"])
    def test_interval_bounds(self, capsys, tmp_path, low, up, oracle_rows, values):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"type": "pri", "outcomes": ["a"], "lower": {"a": low}, "upper": {"a": up}}))
        gamble = tmp_path / "g.json"
        gamble.write_text(json.dumps({"a": "5/3"}))
        code, out, _ = run(capsys, "vertices", "--model", str(path), "--engine", "oracle")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [["a"], *oracle_rows]
        for engine, value in values.items():
            code, out, err = run(capsys, "natex", "--model", str(path), "--gamble", str(gamble),
                                 "--engine", engine)
            if value is None:
                assert (code, out) == (1, ""), engine
                assert err.startswith("error: "), engine
            else:
                assert code == 0 and report_get(out, "value") == value, engine
        if not oracle_rows:
            assert err == "error: empty credal set: no vertices: empty or degenerate feasible set\n"


def test_only_main_writes():
    # every command returns its result; main alone writes it, to a file or
    # a standard stream, and the report's own write is called only there
    streams, writes = set(), set()
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                    or isinstance(node, ast.Name)
                    and node.id in ("print", "_write_file", "stdout", "stderr")):
                streams.add(getattr(top, "name", None))
            elif isinstance(node, ast.Attribute) and node.attr == "write":
                writes.add(getattr(top, "name", None))
    assert streams == {"main"}
    assert writes == {"main", "_write_file", "Report"}
