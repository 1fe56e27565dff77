import json
import re

import pytest

from hereditary import cli, jsonio
from hereditary.instances import metric


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_instance_emits_consumable_property(tmp_path, capsys):
    path = str(tmp_path / "m3.json")
    code, _ = run(capsys, "instance", "metric", "--r", "3", "-o", path)
    assert code == 0
    data = jsonio.load_path(path)
    H = jsonio.property_from_json(data)
    assert H.signature == metric.signature(3)
    code, out = run(capsys, "extremal", "--property", path, "--n", "3")
    assert code == 0
    assert json.loads(out)["report"]["ex"] == 12


def test_exit_code_invalid_input(capsys, tmp_path):
    code, _ = run(capsys, "extremal", "--n", "3")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _ = run(capsys, "extremal", "--property", str(bad), "--n", "3")
    assert code == 2
    code, _ = run(capsys, "nonsense")
    assert code == 2
    missing = str(tmp_path / "missing.json")
    for argv in (["extremal", "--property", missing, "--n", "3"],
                 ["hrandom", "--template", missing],
                 ["types", "--instance", "colored", "--spec", missing],
                 ["extremal", "--property", str(tmp_path), "--n", "3"]):
        assert cli.main(argv) == 2
        assert "invalid input" in capsys.readouterr().err


def test_unwritable_output_is_invalid_input(capsys, tmp_path):
    missing_dir = tmp_path / "nonexistent-dir"
    for argv in (["types", "--instance", "triples",
                  "-o", str(missing_dir / "x.json")],
                 ["density", "--instance", "triples", "--nmax", "3",
                  "--csv", str(missing_dir / "x.csv")]):
        assert cli.main(argv) == 2
        assert "invalid input" in capsys.readouterr().err
    assert not missing_dir.exists()


def test_config_has_no_unused_options(capsys, monkeypatch):
    monkeypatch.setenv("HEREDITARY_LAB_WORKERS", "two")
    code, out = run(capsys, "types", "--instance", "triples")
    assert code == 0
    assert not {"workers", "seed"} & set(json.loads(out)["config"])
    code, _ = run(capsys, "types", "--instance", "triples", "--workers", "2")
    assert code == 2


def test_exit_code_budget(capsys):
    code, out = run(capsys, "extremal", "--instance", "metric", "--r", "3",
                    "--n", "4", "--budget", "5")
    assert code == 3
    assert "budget" in json.loads(out)["report"]["error"]


def test_verify_pass_and_fail(capsys):
    code, out = run(capsys, "verify", "--instance", "digraph", "--k", "2",
                    "--nmax", "3")
    assert code == 0
    assert json.loads(out)["report"]["all_match"]


def test_types_listing(capsys):
    code, out = run(capsys, "types", "--instance", "triples")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["count"] == 2


def test_enumerate_count(capsys):
    code, out = run(capsys, "enumerate", "--instance", "metric", "--r", "3",
                    "--n", "3", "--count-only")
    assert code == 0
    assert json.loads(out)["report"]["count"] == 24


def test_distance_self_is_zero(tmp_path, capsys):
    M = metric.metric_space(3, 3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    path = str(tmp_path / "a.json")
    with open(path, "w") as fh:
        fh.write(jsonio.dumps(jsonio.structure_to_json(M)))
    code, out = run(capsys, "distance", path, path, "--ac", "--check-bound")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["dist"]["exact"] == "0/1"
    assert body["d"]["exact"] == "0/1"
    assert body["bound_holds"]


def test_density_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "d.csv")
    code, out = run(capsys, "density", "--instance", "triples",
                    "--nmax", "4", "--csv", csv_path)
    assert code == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "n,ex,b_n"
    assert len(lines) == 3


def test_subcount_and_hrandom(tmp_path, capsys):
    T = metric.all_low_template(3, 3)
    path = str(tmp_path / "t.json")
    with open(path, "w") as fh:
        fh.write(jsonio.dumps(jsonio.template_to_json(T)))
    code, out = run(capsys, "subcount", "--template", path)
    assert code == 0
    assert json.loads(out)["report"]["sub"] == 8
    code, out = run(capsys, "hrandom", "--template", path)
    assert code == 0
    assert json.loads(out)["report"]["h_random"]


def test_containers_report(capsys):
    code, out = run(capsys, "containers", "--instance", "digraph",
                    "--instance-k", "2", "--n", "4", "--k", "3",
                    "--tau", "1/4", "--epsilon", "0.1")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["v"] == 24 and body["alpha"] == 43
    assert body["threshold_met"] is False


def test_probe_stability(capsys):
    code, out = run(capsys, "probe-stability", "--instance", "metric",
                    "--r", "4", "--n", "4", "--epsilon", "5/100")
    assert code == 0
    assert json.loads(out)["report"]["worst_gap"]["exact"] == "0/1"


def test_report_determinism(capsys):
    _, out1 = run(capsys, "extremal", "--instance", "triples", "--n", "4")
    _, out2 = run(capsys, "extremal", "--instance", "triples", "--n", "4")
    strip = lambda s: re.sub(r'"timing_seconds": [0-9.]+', '"timing_seconds": 0', s)
    assert strip(out1) == strip(out2)
