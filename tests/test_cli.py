"""CLI tests: JSON envelopes, exit statuses, fixtures, budgets."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import presmat
from presmat import cli, presentation
from presmat.cli import (
    BUDGET_ENV,
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNKNOWN,
    PAPER_EXAMPLES,
    main,
)

with resources.files("presmat").joinpath("fixtures/report-schema.json") \
        .open("r", encoding="utf-8") as _fh:
    REPORT_SCHEMA = json.load(_fh)


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SQUARE4 = {
    "ring": {"vars": ["x", "y", "z", "t"]},
    "matrix": [["y", "-x", "0", "0"],
               ["0", "z", "-y", "0"],
               ["0", "0", "t", "-z"],
               ["-t", "0", "0", "x"]],
}


def test_gamma_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", SQUARE4)
    code, report = invoke(capsys, "gamma", path)
    assert code == EXIT_OK
    assert report["result"]["gamma"] == ["z*t", "x*t", "x*y", "y*z"]
    assert report["input_digest"].startswith("sha256:")


def test_check_command_both_orientations(tmp_path, capsys):
    path = write(tmp_path, "m.json", SQUARE4)
    code, report = invoke(capsys, "check", path)
    assert code == EXIT_OK
    assert report["verdict"] == "presentation"
    assert report["result"]["is_minimal"] is True

    code, report = invoke(capsys, "check", "--transpose", path)
    assert code == EXIT_NEGATIVE
    assert report["verdict"] == "not_presentation"
    assert report["result"]["failure_reason"] == "height_of_row_ideal_below_3"
    assert report["witness"] == {"failure_reason": "height_of_row_ideal_below_3"}


def test_resolve_matrix_and_ideal(tmp_path, capsys):
    path = write(tmp_path, "m.json", SQUARE4)
    code, report = invoke(capsys, "resolve", path)
    assert code == EXIT_OK
    assert report["result"]["betti"] == {"a": [2, 2, 2, 2],
                                         "b": [3, 3, 3, 3], "s": 4}
    ideal_doc = {"ring": {"vars": ["x", "y", "z"]}, "ideal": ["x", "y", "z"]}
    path = write(tmp_path, "i.json", ideal_doc)
    code, report = invoke(capsys, "resolve", path)
    assert code == EXIT_OK
    assert report["result"]["betti"] == {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3}


def test_zeta_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", SQUARE4)
    code, report = invoke(capsys, "zeta", path)
    assert code == EXIT_OK
    assert report["result"]["zeta"] == 0
    assert report["result"]["rho"] == ["x", "y", "z", "t"]


def test_decompose_command(tmp_path, capsys):
    doc = {"ring": {"vars": ["x", "y", "z", "u", "v", "w"]},
           "matrix": [["u", "0", "0"], ["0", "v", "0"], ["0", "0", "w"],
                      ["x", "y", "z"]]}
    path = write(tmp_path, "b.json", doc)
    code, report = invoke(capsys, "decompose", path)
    assert code == EXIT_OK
    assert report["verdict"] == "decomposed"
    assert report["result"]["intersection_verified"] is True
    assert sorted(report["result"]["ideal"]) == ["x*v*w", "y*u*w", "z*u*v"]


def test_decompose_non_regular_exits_negative(tmp_path, capsys):
    # the full minor lies inside the last-row ideal, so the splitting
    # hypothesis fails and the verdict is decided-negative
    doc = {"ring": {"vars": ["x", "y", "z"]},
           "matrix": [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"],
                      ["x", "y", "z"]]}
    path = write(tmp_path, "b.json", doc)
    code, report = invoke(capsys, "decompose", path)
    assert code == EXIT_NEGATIVE
    assert report["verdict"] == "not_regular"


def test_classify_sequence_document(tmp_path, capsys):
    doc = {"sequence": {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3}}
    path = write(tmp_path, "s.json", doc)
    code, report = invoke(capsys, "betti-classify", path)
    assert code == EXIT_OK
    assert report["verdict"] == "Essential"
    assert report["witness"]["rule"] == "n3"


def test_classify_homogeneous_flag_statuses(capsys):
    code, report = invoke(capsys, "betti-classify", "--homogeneous", "4", "3", "5")
    assert code == EXIT_NEGATIVE
    assert report["verdict"] == "NotEssential"

    code, report = invoke(capsys, "betti-classify", "--homogeneous", "5", "3", "4")
    assert code == EXIT_OK
    assert report["verdict"] == "Essential"

    code, report = invoke(capsys, "betti-classify", "--homogeneous", "4", "5", "8")
    assert code == EXIT_UNKNOWN
    assert report["witness"]["known_exception"]


def test_reduce_command(tmp_path, capsys):
    doc = {"sequence": {"a": [2, 2, 2, 3], "b": [4, 3, 3, 3], "s": 4}}
    path = write(tmp_path, "s.json", doc)
    code, report = invoke(capsys, "betti-reduce", path)
    assert code == EXIT_OK
    assert report["verdict"] == "Essential"
    assert report["result"]["residue"] == {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3}
    assert report["result"]["total_reduced"] == 1


def test_lift_command(tmp_path, capsys):
    doc = {"sequence": {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3},
           "exponents": [1, 1, 1]}
    path = write(tmp_path, "s.json", doc)
    code, report = invoke(capsys, "betti-lift", path)
    assert code == EXIT_OK
    assert report["result"]["lifted"] == {"a": [3, 3, 3], "b": [5, 5, 5], "s": 6}


def test_construct_homogeneous(tmp_path, capsys):
    path = write(tmp_path, "c.json",
                 {"construct": "homogeneous", "n": 5, "a": 3, "b": 4})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_OK
    assert report["result"]["plan"] == [["base", 1]]
    assert len(report["result"]["matrix"]) == 5

    path = write(tmp_path, "c2.json",
                 {"construct": "homogeneous", "n": 4, "a": 5, "b": 8})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_UNKNOWN
    assert report["result"]["matrix"] is None


def test_construct_product(tmp_path, capsys):
    path = write(tmp_path, "c.json", {
        "construct": "product",
        "ring": {"vars": ["x", "y", "z", "u", "v", "w"]},
        "regular_triple": ["x", "y", "z"],
        "cofactors": ["u", "v", "w"]})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_OK
    assert sorted(report["result"]["ideal"]) == ["x*v*w", "y*u*w", "z*u*v"]
    assert report["result"]["predicted"] == {"a": [3, 3, 3],
                                             "b": [5, 5, 5], "s": 6}


def test_construct_lift_and_star(tmp_path, capsys):
    path = write(tmp_path, "c.json", {
        "construct": "lift",
        "ring": {"vars": ["x", "y", "z"]},
        "matrix": [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
        "exponents": [1, 1, 1],
        "fresh_vars": ["u1", "u2", "u3"]})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_OK
    assert sorted(report["result"]["gamma"]) == \
        ["x*u2*u3", "y*u1*u3", "z*u1*u2"]

    path = write(tmp_path, "c2.json",
                 {"construct": "star", "size": 5, "left_t": 1, "right_t": 2})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_OK
    assert len(report["result"]["diag"]) == 5


def test_construct_block_extension(tmp_path, capsys):
    path = write(tmp_path, "c.json", {
        "construct": "block-extension",
        "ring": {"vars": ["x", "y", "z"]},
        "matrix": [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
        "inner": {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3},
        "outer": {"a": [2, 2, 2, 3], "b": [4, 3, 3, 3], "s": 4},
        "t": 4})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_OK
    assert report["result"]["matrix"][3] == ["z4", "0", "0", "0"]


def test_construct_hilbert_burch(tmp_path, capsys):
    # the gcds that normalize gamma here include non-monomial forms in six
    # variables
    path = write(tmp_path, "c.json", {
        "construct": "hilbert-burch",
        "ring": {"vars": ["x", "y", "z", "u", "v", "w"]},
        "matrix": [["u", "v", "0", "w"], ["0", "w", "u", "v"], ["v", "0", "w", "u"],
                   ["w", "u", "v", "x"], ["x", "y", "z", "0"]]})
    code, report = invoke(capsys, "construct", path)
    assert code == EXIT_OK
    assert report["verdict"] == "constructed"
    assert len(report["result"]["ideal"]) == 4
    assert report["result"]["zeta"] == 1


@pytest.mark.parametrize("entries, zeta", [
    ([["u", "v", "0", "w"], ["0", "w", "u", "v"], ["v", "0", "w", "u"],
      ["w", "u", "v", "x"], ["x", "y", "z", "0"]], 1),
    ([["u", "0", "0"], ["0", "v", "0"], ["0", "0", "w"], ["x", "y", "z"]], 0),
])
def test_construct_hilbert_burch_computes_zeta_once(tmp_path, capsys, monkeypatch,
                                                    entries, zeta):
    # hilbert_burch_ideal asserts the zero count of its matrix's zeta, and
    # the command reports the zeta of the same matrix
    runs = []
    report_of = presentation._zeta_report
    monkeypatch.setattr(presentation, "_zeta_report",
                        lambda M, budget: runs.append(M) or report_of(M, budget))
    path = write(tmp_path, "c.json", {
        "construct": "hilbert-burch",
        "ring": {"vars": ["x", "y", "z", "u", "v", "w"]}, "matrix": entries})
    code, report = invoke(capsys, "construct", path)
    assert (code, report["result"]["zeta"]) == (EXIT_OK, zeta)
    assert len(runs) == 1


def test_verify_square4_reads_gamma_from_its_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gamma", None)  # the standalone route must not run
    code, report = invoke(capsys, "verify-paper-example", "square-4")
    assert code == EXIT_OK
    assert report["result"]["gamma"] == ["z*t", "x*t", "x*y", "y*z"]


def test_verify_fast_examples(capsys):
    # the cyclic fixtures are ideal-resolution scenarios
    for name in ("square-4", "cyclic-cubics", "cyclic-quartics", "gaeta-remark",
                 "closing-remark"):
        code, report = invoke(capsys, "verify-paper-example", name)
        assert code == EXIT_OK, name
        assert report["verdict"] == "confirmed"
        assert all(report["result"]["checks"].values())


def test_verify_digests_the_fixture_document_that_ran(tmp_path, capsys):
    # two fixtures of the same name but different content must not share a
    # digest; each digest is that of the document's bytes
    packaged = resources.files("presmat").joinpath("fixtures/square-4.json")
    code, report = invoke(capsys, "verify-paper-example", "square-4")
    assert code == EXIT_OK
    assert report["input_digest"] == \
        "sha256:" + hashlib.sha256(packaged.read_bytes()).hexdigest()
    doc = json.loads(packaged.read_text(encoding="utf-8"))
    wrong = dict(doc, expect=dict(doc["expect"], check=False))
    digests = {}
    for label, fixture, verdict in (("same", doc, "confirmed"),
                                    ("wrong", wrong, "contradicted")):
        folder = tmp_path / label
        folder.mkdir()
        path = write(folder, "square-4.json", fixture)
        code, report = invoke(capsys, "verify-paper-example", "square-4",
                              "--fixtures-dir", str(folder))
        assert report["verdict"] == verdict
        with open(path, "rb") as fh:
            expected = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        assert report["input_digest"] == expected
        digests[label] = expected
    assert digests["same"] != digests["wrong"]


def test_verify_closing_remark_reports_stretch(capsys):
    code, report = invoke(capsys, "verify-paper-example", "closing-remark")
    assert code == EXIT_OK
    assert report["result"]["height"] == 2
    # the stretch resolution takes a fraction of a second against its budget
    stretch = report["result"]["stretch"]
    assert stretch["outcome"] == "completed"
    assert stretch["betti"] == {"a": [5, 5, 5, 5], "b": [8, 8, 8, 8], "s": 12}
    assert "resolution_seconds" in report["timings"]


def test_input_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, report = invoke(capsys, "gamma", str(bad))
    assert code == EXIT_ERROR
    assert "invalid JSON" in report["result"]["error"]

    code, report = invoke(capsys, "gamma", str(tmp_path / "missing.json"))
    assert code == EXIT_ERROR

    path = write(tmp_path, "m.json", {"ring": {"vars": ["x"]},
                                      "matrix": [["x", "x"]]})
    code, report = invoke(capsys, "gamma", path)
    assert code == EXIT_ERROR  # rank precondition fails

    path = write(tmp_path, "p.json", {"ring": {"vars": ["x"]},
                                      "matrix": [["x", "$"], ["x", "x"]]})
    code, report = invoke(capsys, "gamma", path)
    assert code == EXIT_ERROR
    assert "matrix[0][1]" in report["result"]["error"]

    for k in ("1", 1.5):
        path = write(tmp_path, "o.json",
                     {"ring": {"vars": ["x", "y"], "order": ["elim", k]},
                      "matrix": [["x", "y"], ["x", "y"]]})
        code, report = invoke(capsys, "gamma", path)
        assert code == EXIT_ERROR
        assert "block size must be an integer" in report["result"]["error"]

    # integer fields take JSON integers only: int() would truncate 5.9 to 5,
    # read true as 1 and parse "5"
    koszul = {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3}
    for command, doc, field in (
            ("construct", {"construct": "homogeneous", "n": 5.9, "a": 3, "b": 4},
             '"n"'),
            ("construct", {"construct": "star", "size": "5", "left_t": 1.9,
                           "right_t": True}, '"size"'),
            ("betti-classify", {"sequence": dict(koszul, a=[1.5, 1, 1])},
             '"sequence.a[0]"'),
            ("betti-lift", {"sequence": koszul, "exponents": [0.7, True, "2"]},
             '"exponents[0]"')):
        code, report = invoke(capsys, command, write(tmp_path, "i.json", doc))
        assert code == EXIT_ERROR
        assert report["result"]["error"].startswith(field + " must be an integer")

    # a sequence file and --homogeneous are two inputs; neither may be ignored
    path = write(tmp_path, "s.json", {"sequence": koszul})
    code, report = invoke(capsys, "betti-classify", path, "--homogeneous", "5", "3", "4")
    assert code == EXIT_ERROR
    assert report["verdict"] == "error"
    assert "one input" in report["result"]["error"]
    # and with neither there is nothing to classify
    code, report = invoke(capsys, "betti-classify")
    assert code == EXIT_ERROR
    assert "one input" in report["result"]["error"]


def test_construct_kind_must_be_a_name(tmp_path, capsys):
    # a list is no key of the table of kinds; looking it up raised TypeError
    path = write(tmp_path, "c.json",
                 {"construct": ["homogeneous"], "n": 5, "a": 3, "b": 4})
    code, report = invoke(capsys, "construct", path)
    assert (code, report["verdict"]) == (EXIT_ERROR, "error")
    assert report["result"]["error"].startswith('"construct" must be one of')


def fixtures_dir(tmp_path, name, **fields):
    """A fixtures directory holding the packaged fixture of the named example
    with fields set, or removed where the value is None."""
    doc = json.loads(resources.files("presmat").joinpath("fixtures/%s.json" % name)
                     .read_text(encoding="utf-8"))
    for key, value in fields.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    folder = tmp_path / "fixtures"
    folder.mkdir()
    write(folder, name + ".json", doc)
    return str(folder)


def test_fixture_scenario_must_be_a_name(tmp_path, capsys):
    folder = fixtures_dir(tmp_path, "square-4", scenario=["matrix-check"])
    code, report = invoke(capsys, "verify-paper-example", "square-4",
                          "--fixtures-dir", folder)
    assert (code, report["verdict"]) == (EXIT_ERROR, "error")
    assert "no runnable scenario" in report["result"]["error"]


@pytest.mark.parametrize("expect", [None, ["confirmed"], {}],
                         ids=["missing", "list", "no-keys"])
@pytest.mark.parametrize("name", PAPER_EXAMPLES)
def test_fixture_expect_must_be_an_object_with_its_keys(tmp_path, capsys, name,
                                                        expect):
    folder = fixtures_dir(tmp_path, name, expect=expect)
    code, report = invoke(capsys, "verify-paper-example", name,
                          "--fixtures-dir", folder)
    assert (code, report["verdict"]) == (EXIT_ERROR, "error")
    assert report["result"]["error"].startswith('fixture needs "expect"')


# a non-graded 3x3 presentation matrix whose row ideal is the unit ideal,
# although no entry of its row annihilator is a unit
NON_GRADED = {
    "ring": {"vars": ["x", "y", "z"]},
    "matrix": [["0", "-3", "1/2*z - 1"],
               ["3*y", "0", "-2*y - 3"],
               ["-9*y*z", "-9/2", "6*y*z + 39/4*z - 3/2"]],
}


@pytest.mark.parametrize("command, doc, message", [
    ("resolve", {"ring": {"vars": ["x", "y", "z"]}, "ideal": ["x^2 + y"]},
     "homogeneous"),
    ("resolve", {"ring": {"vars": ["x", "y", "z"]}, "ideal": ["1", "x"]},
     "unit ideal"),
    ("resolve", NON_GRADED, "grading"),
    ("zeta", NON_GRADED, "minimal"),
])
def test_library_value_errors_exit_one(tmp_path, capsys, command, doc, message):
    path = write(tmp_path, "d.json", doc)
    code, report = invoke(capsys, command, path)
    assert code == EXIT_ERROR
    assert report["verdict"] == "error"
    assert message in report["result"]["error"]


def _reject_constant(name):
    raise ValueError("not JSON (RFC 8259): %s" % name)


def test_reports_are_strict_json(tmp_path, capsys):
    # the row ideal of NON_GRADED has infinite height
    path = write(tmp_path, "m.json", NON_GRADED)
    code = main(["check", path])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code == EXIT_OK
    assert report["result"]["height_of_row_ideal"] == "inf"
    assert main(["--format", "text", "check", path]) == EXIT_OK
    assert 'height_of_row_ideal: "inf"' in capsys.readouterr().out


def test_budget_environment_override(tmp_path, capsys, monkeypatch):
    doc = {"ring": {"vars": ["x", "y", "z", "t", "u", "v"]},
           "ideal": ["x*y*z", "y*z*t", "z*t*u", "t*u*v", "u*v*x", "v*x*y"]}
    path = write(tmp_path, "i.json", doc)
    monkeypatch.setenv(BUDGET_ENV, "0.00001")
    code, report = invoke(capsys, "resolve", path)
    assert code == EXIT_ERROR
    assert report["result"]["budget_exceeded"] is True
    monkeypatch.setenv(BUDGET_ENV, "not-a-number")
    code, report = invoke(capsys, "resolve", path)
    assert code == EXIT_ERROR
    # nan and inf would switch the time cap off
    for raw in ("nan", "inf"):
        monkeypatch.setenv(BUDGET_ENV, raw)
        code, report = invoke(capsys, "resolve", path)
        assert code == EXIT_ERROR, raw
        assert "finite" in report["result"]["error"]
    monkeypatch.delenv(BUDGET_ENV)
    code, report = invoke(capsys, "--budget-seconds", "nan", "resolve", path)
    assert code == EXIT_ERROR
    assert "finite" in report["result"]["error"]


def test_gamma_command_stops_at_its_budget(tmp_path, capsys):
    from test_presentation import CHECK_INTERVAL, substituted_sweep_matrix
    S = substituted_sweep_matrix((7, 8, 10))
    path = write(tmp_path, "s.json", {
        "ring": {"vars": list(S.ring.variables)},
        "matrix": [[str(p) for p in row] for row in S.entries]})
    started = time.monotonic()
    code, report = invoke(capsys, "--budget-seconds", "0.1", "gamma", path)
    assert code == EXIT_ERROR
    assert report["result"] == {"error": "syzygies: time budget exceeded",
                                "budget_exceeded": True}
    assert time.monotonic() - started < 0.1 + CHECK_INTERVAL


def test_usage_errors_remap_to_one(capsys):
    assert main(["bogus-command"]) == EXIT_ERROR
    assert main(["verify-paper-example", "no-such-example"]) == EXIT_ERROR
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_commands_share_one_parser(tmp_path, capsys):
    # main builds its parser once per process; flags and arguments of one
    # call must not leak into the next
    from presmat import cli
    assert cli._build_parser() is cli._build_parser()
    path = write(tmp_path, "m.json", SQUARE4)
    code, report = invoke(capsys, "check", "--transpose", path)
    assert code == EXIT_NEGATIVE
    assert report["verdict"] == "not_presentation"

    assert main(["check", "--no-such-flag", path]) == EXIT_ERROR
    assert "usage:" in capsys.readouterr().err

    code, report = invoke(capsys, "check", path)
    assert code == EXIT_OK
    assert report["verdict"] == "presentation"

    code, report = invoke(capsys, "betti-classify", "--homogeneous", "4", "3", "5")
    assert code == EXIT_NEGATIVE
    assert report["verdict"] == "NotEssential"

    code, report = invoke(capsys, "--budget-seconds", "30", "gamma", path)
    assert code == EXIT_OK
    assert report["result"]["gamma"] == ["z*t", "x*t", "x*y", "y*z"]

    ideal_path = write(tmp_path, "i.json", {"ring": {"vars": ["x", "y", "z"]},
                                            "ideal": ["x", "y", "z"]})
    code, report = invoke(capsys, "resolve", ideal_path)
    assert code == EXIT_OK
    assert report["command"] == "resolve"
    assert report["result"]["betti"] == {"a": [1, 1, 1], "b": [2, 2, 2], "s": 3}


def test_reports_are_deterministic(tmp_path, capsys):
    doc = {"sequence": {"a": [3, 3, 3, 3], "b": [5, 5, 5, 5], "s": 8}}
    path = write(tmp_path, "s.json", doc)
    _, first = invoke(capsys, "betti-classify", path)
    _, second = invoke(capsys, "betti-classify", path)
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_text_format(tmp_path, capsys):
    code = main(["--format", "text", "betti-classify",
                 "--homogeneous", "4", "3", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_NEGATIVE
    assert out.startswith("command: betti-classify")
    assert "verdict: NotEssential" in out


def _child_env():
    # the child process imports the same presmat as this one
    src = str(Path(presmat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_check_reads_a_pipe(tmp_path, capsys):
    # a pipe can be read only once, so digest and run must share one read
    path = write(tmp_path, "m.json", SQUARE4)
    code, expected = invoke(capsys, "check", path)
    with open(path, "rb") as fh:
        payload = fh.read()
    proc = subprocess.run(
        [sys.executable, "-m", "presmat.cli", "check", "/dev/stdin"],
        input=payload, capture_output=True, timeout=120, env=_child_env())
    report = json.loads(proc.stdout)
    assert proc.returncode == code == EXIT_OK
    assert report["input_digest"] == expected["input_digest"]
    assert report["verdict"] == expected["verdict"] == "presentation"
    assert report["result"] == expected["result"]


def test_each_command_reads_its_input_once(tmp_path, capsys, monkeypatch):
    from presmat import cli
    reads = []
    read = cli._read
    monkeypatch.setattr(cli, "_read", lambda path: reads.append(path) or read(path))
    # packaged fixtures are read through their resource path
    resource = type(resources.files("presmat").joinpath("fixtures"))
    read_bytes = resource.read_bytes
    monkeypatch.setattr(resource, "read_bytes",
                        lambda self: reads.append(self.name) or read_bytes(self))

    path = write(tmp_path, "m.json", SQUARE4)
    for argv in (["gamma", path], ["check", "--transpose", path],
                 ["resolve", path], ["zeta", path]):
        reads.clear()
        invoke(capsys, *argv)
        assert reads == [path], argv

    reads.clear()
    code, report = invoke(capsys, "verify-paper-example", "square-4")
    assert code == EXIT_OK
    assert reads == ["square-4.json"]

    folder = tmp_path / "fixtures"
    folder.mkdir()
    fixture = resources.files("presmat").joinpath("fixtures/square-4.json")
    (folder / "square-4.json").write_bytes(fixture.read_bytes())
    reads.clear()
    code, report = invoke(capsys, "verify-paper-example", "square-4",
                          "--fixtures-dir", str(folder))
    assert code == EXIT_OK
    assert reads == [str(folder / "square-4.json")]

    reads.clear()
    code, report = invoke(capsys, "betti-classify", "--homogeneous", "5", "3", "4")
    assert code == EXIT_OK
    assert reads == []
    assert report["input_digest"] == \
        "sha256:" + hashlib.sha256(b"homogeneous:5:3:4").hexdigest()


class _ClosedPipe(io.StringIO):
    """Standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_keeps_the_report_exit_code(tmp_path, monkeypatch, fmt):
    path = write(tmp_path, "m.json", SQUARE4)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["--format", fmt, "check", path]) == EXIT_OK
    assert main(["--format", fmt, "check", "--transpose", path]) == EXIT_NEGATIVE


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_ends_without_a_traceback(tmp_path, unbuffered):
    # `presmat check doc.json | head -1`: the reader leaves before the report
    # is written. Unbuffered, the write fails; buffered, the flush at
    # interpreter exit would
    path = write(tmp_path, "m.json", SQUARE4)
    env = dict(_child_env(), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "presmat.cli", "check", "--transpose", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # does nothing once the child has exited
    assert proc.returncode == EXIT_NEGATIVE
    assert err == b""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "presmat.cli", "betti-classify",
         "--homogeneous", "5", "3", "4"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == EXIT_OK
    report = json.loads(proc.stdout)
    assert report["verdict"] == "Essential"
