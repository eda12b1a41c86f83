"""End-to-end CLI behavior: exit codes, JSON round-trips, tamper detection."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import stanley_lab
from stanley_lab import (
    ModulePresentation,
    MonomialIdeal,
    StanleyDecomposition,
    cli,
    homology_profile,
    verify,
)
from stanley_lab.bounds import KINDS
from stanley_lab.sdepth import DEFAULT_BUDGET

CLI = [sys.executable, "-m", "stanley_lab"]
# The CLI process imports the same package as this one, installed or not.
SRC = os.path.dirname(os.path.dirname(stanley_lab.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)}


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=ENV, **kw
    )


def test_analyze_path3():
    out = run("analyze", "path:3")
    assert out.returncode == 0
    assert "p = 1" in out.stdout
    assert "l(I) = 2" in out.stdout
    assert "tree = yes" in out.stdout


def test_analyze_json_embeds_invocation():
    out = run("--json", "analyze", "path:3")
    payload = json.loads(out.stdout)
    assert payload["tool"] == "stanley-lab"
    assert payload["version"]
    assert payload["result"]["bipartite_components"] == 1
    assert payload["result"]["analytic_spread"] == 2


def test_construct_verify_roundtrip(tmp_path):
    cert = tmp_path / "cert.json"
    out = run(
        "construct", "--graph", "path:3", "--k", "2", "--kind", "power",
        "--out", str(cert),
    )
    assert out.returncode == 0, out.stderr
    check = run("verify", str(cert))
    assert check.returncode == 0
    assert "valid" in check.stdout
    assert "sdepth 2" in check.stdout or "sdepth 3" in check.stdout


def test_verify_detects_tampering(tmp_path):
    cert = tmp_path / "cert.json"
    run(
        "construct", "--graph", "path:3", "--k", "2", "--kind", "power",
        "--out", str(cert),
    )
    obj = json.loads(cert.read_text())
    obj["spaces"] = obj["spaces"][1:]  # drop one space: its corner goes uncovered
    cert.write_text(json.dumps(obj))
    out = run("verify", str(cert))
    assert out.returncode == 1
    assert "INVALID" in out.stdout
    assert "uncovered" in out.stdout


def test_verify_huge_box_exits_on_budget(tmp_path):
    cert = tmp_path / "cert.json"
    module = {"n": 3, "lower_gens": [[1000, 1000, 1000]], "upper_gens": [[0, 0, 0]]}
    cert.write_text(json.dumps({"module": module, "spaces": [{"u": [0, 0, 0], "Z": [1, 2]}]}))
    out = run("verify", str(cert), timeout=30)  # a 10^9-point box would hang far longer
    assert out.returncode == 3
    assert "budget exceeded" in out.stderr


def test_construct_emits_reparseable_json(tmp_path):
    cert = tmp_path / "cert.json"
    run(
        "construct", "--graph", "cycle:3+path:2", "--k", "1", "--kind", "s-mod-power",
        "--out", str(cert),
    )
    first = cert.read_text()
    obj = json.loads(first)
    assert json.dumps(obj, indent=2, sort_keys=True) == first


def test_sdepth_from_module_file(tmp_path):
    mod = tmp_path / "mod.json"
    mod.write_text(
        json.dumps({"n": 2, "lower_gens": [[1, 1]], "upper_gens": [[0, 0]]})
    )
    out = run("sdepth", "--module", str(mod))
    assert out.returncode == 0
    assert "sdepth = 1 (exact)" in out.stdout


def test_sdepth_writes_certificate(tmp_path):
    cert = tmp_path / "out.json"
    out = run(
        "sdepth", "--graph", "path:3", "--k", "1", "--kind", "power",
        "--cert", str(cert),
    )
    assert out.returncode == 0
    check = run("verify", str(cert))
    assert check.returncode == 0


def test_sdepth_target_with_cert_is_an_input_error(tmp_path):
    cert = tmp_path / "out.json"
    out = run(
        "sdepth", "--graph", "path:3", "--k", "2", "--kind", "power",
        "--target", "2", "--cert", str(cert),
    )
    assert out.returncode == 2
    assert "not allowed with argument" in out.stderr
    assert not cert.exists()


def test_sdepth_budget_exhaustion_exit_code():
    out = run(
        "sdepth", "--graph", "cycle:4", "--k", "2", "--kind", "s-mod-power",
        "--target", "1", "--budget", "1",
    )
    assert out.returncode == 3


@pytest.mark.parametrize("args, line, result, code", [
    (["cycle:4", "--k", "2", "--kind", "power"],
     "sdepth = 2 (exact), the Hilbert-depth cap 2 is reached",
     {"sdepth": 2, "exact": True, "upper": 2}, 0),
    (["star:3", "--k", "1", "--kind", "s-mod-power"],
     "sdepth = 1 (exact), target 2 is proven impossible",
     {"sdepth": 1, "exact": True, "upper": 2}, 0),
    (["cycle:4", "--k", "2", "--kind", "s-mod-power", "--budget", "3"],
     "sdepth = 0 (lower-bound only), the Hilbert-depth cap is 1",
     {"sdepth": 0, "exact": False, "upper": 1}, 3),
])
def test_sdepth_names_the_proof_of_exactness(capsys, args, line, result, code):
    assert cli.main(["sdepth", "--graph", *args]) == code
    assert capsys.readouterr().out == line + "\n"
    assert cli.main(["--json", "sdepth", "--graph", *args]) == code
    assert json.loads(capsys.readouterr().out)["result"] == result


def test_sdepth_rechecks_the_witness_of_a_cap_it_reaches(monkeypatch, capsys):
    """A cap reached below the largest rank is claimed only after
    ``verify_upper`` accepts its witness; a rejected one is an internal error."""
    checked = []
    monkeypatch.setattr(cli, "verify_upper", lambda module, witness: checked.append(witness))
    assert cli.main(["sdepth", "--graph", "cycle:4", "--k", "2", "--kind", "power"]) == cli.EXIT_INTERNAL
    assert checked == [(3, 5, -3)]
    assert "upper witness (3, 5, -3) fails its re-check" in capsys.readouterr().err


def test_depth_module_and_formula(tmp_path):
    mod = tmp_path / "mod.json"
    mod.write_text(
        json.dumps({"n": 2, "lower_gens": [[1, 1]], "upper_gens": [[0, 0]]})
    )
    out = run("depth", "--module", str(mod), "--trung", "path:2", "1")
    assert out.returncode == 0
    assert "depth = 1" in out.stdout
    assert "limit-depth formula: 1" in out.stdout


def test_depth_debug_table(tmp_path):
    mod = tmp_path / "mod.json"
    mod.write_text(
        json.dumps({"n": 2, "lower_gens": [[1, 1]], "upper_gens": [[0, 0]]})
    )
    out = run("--json", "depth", "--module", str(mod), "--debug")
    payload = json.loads(out.stdout)
    assert payload["result"]["degree_table"] == [
        {"degree": [0, 0], "ranks": [1, 0, 0]},
        {"degree": [1, 1], "ranks": [0, 1, 0]},
    ]


def test_depth_debug_without_module_is_an_input_error():
    out = run("depth", "--trung", "cycle:3", "2", "--debug")
    assert out.returncode == 2
    assert out.stdout == ""
    (line,) = out.stderr.splitlines()
    assert "--module" in line


def test_depth_debug_reads_profile(tmp_path):
    mod = tmp_path / "mod.json"
    module = ModulePresentation.quotient_ring(MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)]))
    mod.write_text(json.dumps(module.to_json()))
    out = run("--json", "depth", "--module", str(mod), "--debug")
    assert out.returncode == 0, out.stderr
    table = json.loads(out.stdout)["result"]["degree_table"]
    degrees = homology_profile(module).degrees
    assert {tuple(row["degree"]): tuple(row["ranks"]) for row in table} == degrees
    assert len(table) == len(degrees)


def test_certify():
    out = run("certify", "--graph", "cycle:3", "--k", "2", "--kind", "s-mod-power")
    assert out.returncode == 0
    assert "verdict holds" in out.stdout


def test_certify_s_mod_power_gives_one_report():
    out = run("--json", "certify", "--graph", "cycle:4", "--k", "2", "--kind", "s-mod-power")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert "seed" not in payload
    [report] = payload["result"]["reports"]
    assert report["claim"] == "stanley-inequality"
    assert report["verdict"] == "holds"


def test_seed_option_is_rejected():
    out = run("--seed", "1", "analyze", "path:3")
    assert out.returncode == 2
    assert "stanley-lab: error" in out.stderr
    assert "--seed" not in run("--help").stdout


def test_sweep_small():
    out = run("sweep", "--nmax", "3", "--kmax", "1")
    assert out.returncode == 0, out.stderr
    assert "all claims hold" in out.stdout


# SHA-256 of the output below, measured before the sweeps ran once per
# isomorphism class: row order, key order and every value are pinned.
SWEEP_N4_SHA256 = "19e93414e3cf66e793607cfd15525b8b79673d409b874697612b72637130b121"


def test_sweep_full_json_is_pinned():
    out = subprocess.run(
        CLI + ["--json", "sweep", "--nmax", "4", "--kmax", "2", "--full"],
        capture_output=True, env=ENV,
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == SWEEP_N4_SHA256


def test_sweep_rejects_nmax_7():
    out = run("sweep", "--nmax", "7", "--kmax", "1")
    assert out.returncode == 2
    assert "nmax" in out.stderr


# The summary of a budget-0 sweep: every failing row carries "exact": false.
BUDGET_0_SUMMARY = {
    "layer-lower-bound": {"failures": 22, "instances": 27},
    "limit-depth": {"failures": 0, "instances": 21},
    "power-lower-bound": {"failures": 3, "instances": 16},
    "quotient-lower-bound": {"failures": 15, "instances": 22},
    "stanley-inequality-power": {"failures": 0, "instances": 16},
    "stanley-inequality-quotient": {"failures": 0, "instances": 21},
}


def test_sweep_with_only_undecided_failures_exits_budget():
    out = run("sweep", "--nmax", "3", "--kmax", "2", "--budget", "0")
    assert out.returncode == 3, out.stderr
    assert "40 FAILURES, all undecided" in out.stdout
    out = run("--json", "sweep", "--nmax", "3", "--kmax", "2", "--budget", "0")
    assert out.returncode == 3, out.stderr
    assert json.loads(out.stdout)["result"] == {"summary": BUDGET_0_SUMMARY}


@pytest.mark.parametrize(
    "rows, code",
    [
        ([{"ok": False, "exact": True}, {"ok": False, "exact": False}], 1),
        ([{"ok": False, "verdict": "fails"}], 1),
        ([{"ok": False, "exact": False}, {"ok": False, "verdict": "inconclusive-budget"}], 3),
        ([{"ok": True, "exact": True}], 0),
    ],
)
def test_sweep_exit_code_by_failing_rows(monkeypatch, rows, code):
    monkeypatch.setattr(cli, "run_sweep", lambda *args: {"claim": rows})
    assert cli.main(["sweep", "--nmax", "3", "--kmax", "1", "--budget", "10"]) == code


def test_question_single_graph():
    out = run("question", "--graphs", "path:4", "--k", "1")
    assert out.returncode == 0
    assert "evidence-for" in out.stdout


def test_input_error_exit_code():
    out = run("analyze", "not-a-real-preset:9x")
    assert out.returncode == 2
    assert "input error" in out.stderr
    out = run("certify", "--graph", "path:3", "--k", "0", "--kind", "power")
    assert out.returncode == 2


@pytest.mark.parametrize("argv", [
    ["sdepth", "--graph", "path:3", "--k", "2", "--budget", "-5"],
    ["construct", "--graph", "path:3", "--k", "1", "--kind", "power", "--budget", "-1"],
    ["sweep", "--nmax", "3", "--kmax", "-1"],
])
def test_negative_budget_and_kmax_are_input_errors(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2
    assert "must be nonnegative, got -" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["-3", "0"])
def test_sweep_jobs_below_one_is_an_input_error(jobs, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["sweep", "--nmax", "2", "--kmax", "1", "--jobs", jobs])
    assert exited.value.code == 2
    assert f"must be at least 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [12, 20])
def test_depth_of_a_long_monomial_quotient_exits_on_budget(tmp_path, n):
    """S/(x_1...x_n) has the full Koszul complex on n variables as one family:
    the scan guard exits 3 with one line before the class split starts."""
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"n": n, "lower_gens": [[1] * n], "upper_gens": [[0] * n]}))
    out = run("depth", "--module", str(path), timeout=30)  # unguarded, n = 12 ran over 60 s
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith(f"budget exceeded: Koszul scan over {n} variables")
    assert out.stderr.count("\n") == 1

def _certificate(n, lower=(), upper=()):
    module = {"n": n, "lower_gens": list(lower), "upper_gens": list(upper)}
    return json.dumps({"module": module, "spaces": []})


BIG = 10**1499  # 1,500 digits: past the 4,300-digit limit once a box multiplies it out


@pytest.mark.parametrize(
    "command, text, code",
    [
        pytest.param("verify", _certificate("abc"), 2, id="module-n-abc"),
        pytest.param("verify", _certificate(2, upper=[[1, "a"]]), 2, id="exponent-a"),
        pytest.param("analyze", json.dumps({"n": "x", "edges": [[1, 2]]}), 2, id="graph-n-x"),
        pytest.param(
            "verify", '{"module": {"n": 1e400, "lower_gens": [], "upper_gens": []}, "spaces": []}',
            2, id="module-n-infinite",
        ),
        pytest.param(
            "verify", '{"module": {"n": ' + "9" * 5000 + "}}", 2, id="number-too-long-for-int"
        ),
        pytest.param(
            "analyze", json.dumps({"n": 2_000_000, "edges": [[1, 2]]}), 2, id="graph-n-2000000"
        ),
        pytest.param("verify", _certificate(2_000_000), 2, id="module-n-2000000"),
        pytest.param("verify", _certificate(200_000), 2, id="module-n-200000"),
        pytest.param("verify", _certificate(25), 2, id="module-n-25"),  # one over the cap of 24
        pytest.param(
            "verify", _certificate(3, lower=[[BIG, BIG, BIG]], upper=[[0, 0, 0]]),
            3, id="box-of-1500-digit-exponents",
        ),
    ],
)
def test_malformed_and_oversized_inputs_exit_cleanly(tmp_path, command, text, code):
    """Malformed numbers and more than 24 variables are input errors; a box
    over the point cap is a budget error.  Each fails fast, without a traceback."""
    path = tmp_path / "input.json"
    path.write_text(text)
    out = run(command, str(path), timeout=30)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("input error" if code == 2 else "budget exceeded")


def _spaces_certificate(n, spaces):
    module = {"n": n, "lower_gens": [], "upper_gens": [[0] * n]}
    return json.dumps({"module": module, "spaces": spaces})


@pytest.mark.parametrize(
    "args, text",
    [
        pytest.param(["analyze"], json.dumps({"n": 3.9, "edges": [[1, 2]]}), id="graph-n-float"),
        pytest.param(["analyze"], json.dumps({"n": True, "edges": []}), id="graph-n-bool"),
        pytest.param(["analyze"], json.dumps({"n": "3", "edges": [[1, 2]]}), id="graph-n-str"),
        pytest.param(
            ["analyze"], json.dumps({"n": 3, "edges": [[1, 2.0]]}), id="graph-edge-float"
        ),
        pytest.param(
            ["sdepth", "--module"],
            json.dumps({"n": 2, "lower_gens": [], "upper_gens": [[1, 2.5]]}),
            id="module-exponent-float",
        ),
        pytest.param(
            ["verify"], _spaces_certificate(2, [{"u": [1.7, 0], "Z": [1, 2]}]), id="shift-float"
        ),
        pytest.param(
            ["verify"], _spaces_certificate(2, [{"u": [0, 0], "Z": [1.0, 2]}]), id="z-float"
        ),
        pytest.param(
            ["verify"],
            _spaces_certificate(
                3, [{"u": [0, 0, 0], "Z": []}] * 20_000 + [{"u": [0, 0, "q"], "Z": []}]
            ),
            id="20001-spaces-last-shift-str",
        ),
        pytest.param(["analyze"], '{"n": 3, "edges": [[1, 2]', id="graph-truncated-json"),
        pytest.param(["analyze"], None, id="graph-path-is-a-directory"),
        pytest.param(["depth", "--trung", "path:3", "x"], "", id="trung-power-not-a-number"),
    ],
)
def test_bad_input_exits_2_with_a_short_message(tmp_path, args, text):
    """JSON numbers must be integers, and every unreadable input is an input
    error with a short message and no traceback.  The input file, or a
    directory when text is None, is the last argument unless the arguments
    already name their input."""
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    argv = args if text == "" else args + [str(path)]
    out = subprocess.run(CLI + argv, capture_output=True, env=ENV, timeout=60)
    assert out.returncode == 2, out.stderr
    assert b"Traceback" not in out.stderr
    assert out.stderr.startswith(b"input error")
    assert len(out.stderr) < 1000


@pytest.mark.parametrize(
    "args, text, field",
    [
        pytest.param(
            ["verify"],
            _spaces_certificate(3, [{"u": [0, 0, 0], "Z": []}] * 20_000 + [{"Z": []}]),
            "space 20000 JSON: missing field 'u'",
            id="20001-spaces-last-without-u",
        ),
        pytest.param(
            ["verify"],
            json.dumps({"module": {"n": 1, "lower_gens": [], "upper_gens": [[0]]}}),
            "certificate JSON: missing field 'spaces'",
            id="certificate-without-spaces",
        ),
        pytest.param(
            ["verify"],
            json.dumps({"module": {"n": 1, "lower_gens": []}, "spaces": []}),
            "module JSON: missing field 'upper_gens'",
            id="certificate-module-without-upper-gens",
        ),
        pytest.param(
            ["sdepth", "--module"],
            json.dumps({"n": 1, "lower_gens": []}),
            "module JSON: missing field 'upper_gens'",
            id="module-without-upper-gens",
        ),
    ],
)
def test_malformed_json_names_the_missing_field(tmp_path, args, text, field):
    path = tmp_path / "input.json"
    path.write_text(text)
    out = subprocess.run(CLI + args + [str(path)], capture_output=True, env=ENV, timeout=60)
    assert out.returncode == 2, out.stderr
    assert field.encode() in out.stderr
    assert len(out.stderr) < 1000


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(
            ["construct", "--graph", "path:3", "--k", "1", "--kind", "power", "--out"],
            id="construct-out",
        ),
        pytest.param(["sdepth", "--graph", "path:3", "--k", "1", "--cert"], id="sdepth-cert"),
    ],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_file_exits_2(tmp_path, args, target):
    path = tmp_path / "nope" / "x.json" if target == "missing-directory" else tmp_path
    out = run(*args, str(path))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith(f"input error: cannot write JSON to {path}")


def test_construct_kind_choices_are_the_module_kinds():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    construct = commands.choices["construct"]
    (kind,) = (a for a in construct._actions if a.dest == "kind")
    assert tuple(kind.choices) == KINDS


def test_budget_defaults_to_the_built_in_budget():
    args = cli.build_parser().parse_args(["sdepth", "--graph", "path:3", "--k", "1"])
    assert args.budget == DEFAULT_BUDGET


def test_graph_file_input(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}))
    out = run("analyze", str(gpath))
    assert out.returncode == 0
    assert "p = 1" in out.stdout


def test_power_zero_is_worded_alike_by_depth_and_certify(capsys):
    assert cli.main(["depth", "--trung", "path:3", "0"]) == cli.EXIT_INPUT
    from_depth = capsys.readouterr().err
    assert cli.main(["certify", "--graph", "path:3", "--k", "0", "--kind", "s-mod-power"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == from_depth == "input error: S/I^k needs k >= 1\n"


def test_out_of_memory_exits_on_budget_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_analyze", exhausted)
    assert cli.main(["analyze", "path:3"]) == cli.EXIT_BUDGET == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory") and err.count("\n") == 1


def test_unexpected_exception_exits_internal_with_the_invocation(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    assert cli.main(["analyze", "path:3"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error in: stanley-lab analyze path:3\nTraceback")
    assert err.endswith("RuntimeError: a bug\n")


@pytest.mark.parametrize("args,module", [
    (["--graph", "path:3", "--k", "60", "--kind", "s-mod-power"], None),
    (["--module"], {"n": 3, "lower_gens": [[60, 0, 0], [0, 60, 0], [0, 0, 60]],
                    "upper_gens": [[0, 0, 0]]}),
    (["--module"], {"n": 5, "lower_gens": [[20 * (i == j) for j in range(5)] for i in range(5)],
                    "upper_gens": [[0] * 5]}),
])
def test_oversized_poset_exits_on_budget_within_a_second(tmp_path, capsys, args, module):
    if module is not None:
        path = tmp_path / "module.json"
        path.write_text(json.dumps(module))
        args = args + [str(path)]
    start = time.perf_counter()
    code = cli.main(["sdepth", *args])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_BUDGET == 3
    assert err.startswith("budget exceeded: poset of") and err.count("\n") == 1
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_construct_reports_the_sdepth_its_construction_verified(monkeypatch, capsys):
    """construct does not verify again: its construction request verified the
    certificate, and an empty one (a zero layer) is valid trivially."""
    def again(dec):
        raise AssertionError("construct verified its certificate again")

    monkeypatch.setattr(cli, "verify", again)
    cases = [("path:3", 2, "power"), ("cycle:3+path:2", 2, "power"), ("cycle:4", 2, "s-mod-power"),
             ("path:2+path:2", 1, "layer"), ("path:1+path:1", 1, "layer")]
    for graph, k, kind in cases:
        argv = ["--json", "construct", "--graph", graph, "--k", str(k), "--kind", kind]
        assert cli.main(argv) == cli.EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        report = verify(StanleyDecomposition.from_json(result["certificate"]))
        assert report.valid and result["sdepth"] == report.sdepth
    assert result["sdepth"] is None and result["spaces"] == 0  # the zero layer


@pytest.mark.parametrize("command", ["sdepth", "depth"])
def test_zero_module_over_the_box_cap_exits_on_budget(tmp_path, capsys, command):
    """The oracles tell a zero module from its basis, so its box is built first."""
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"n": 1, "lower_gens": [[40000000]], "upper_gens": [[40000000]]}))
    assert cli.main([command, "--module", str(path)]) == cli.EXIT_BUDGET == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded") and err.count("\n") == 1
