"""End-to-end CLI behavior: exit codes, JSON round-trips, tamper detection."""

import json
import os
import subprocess
import sys

import stanley_lab

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


def test_sdepth_budget_exhaustion_exit_code():
    out = run(
        "sdepth", "--graph", "cycle:4", "--k", "2", "--kind", "s-mod-power",
        "--target", "1", "--budget", "1",
    )
    assert out.returncode == 3


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
    assert payload["result"]["degree_table"]


def test_certify():
    out = run("certify", "--graph", "cycle:3", "--k", "2", "--kind", "s-mod-power")
    assert out.returncode == 0
    assert "verdict holds" in out.stdout


def test_sweep_small():
    out = run("sweep", "--nmax", "3", "--kmax", "1")
    assert out.returncode == 0, out.stderr
    assert "all claims hold" in out.stdout


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


def test_graph_file_input(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}))
    out = run("analyze", str(gpath))
    assert out.returncode == 0
    assert "p = 1" in out.stdout
