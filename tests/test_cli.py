import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hereditary import cli, containers, extremal, jsonio
from hereditary.instances import digraphs, metric, mixed


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
    # --budget only where a budget is read
    code, _ = run(capsys, "types", "--instance", "triples", "--budget", "1")
    assert code == 2
    code, _ = run(capsys, "containers", "--instance", "digraph",
                  "--instance-k", "2", "--n", "4", "--k", "3", "--budget", "1")
    assert code == 2
    missing = str(tmp_path / "missing.json")
    for argv in (["extremal", "--property", missing, "--n", "3"],
                 ["hrandom", "--template", missing],
                 ["types", "--instance", "colored", "--spec", missing],
                 ["extremal", "--property", str(tmp_path), "--n", "3"],
                 ["containers", "--instance", "digraph", "--n", "5", "--k", "3",
                  "--tau", "1/4"]):
        assert cli.main(argv) == 2
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["probe-stability", "--instance", "metric", "--r", "3", "--n", "3",
     "--epsilon", "abc"],
    ["probe-stability", "--instance", "metric", "--r", "3", "--n", "3",
     "--epsilon", "1/0"],
    ["containers", "--instance", "digraph", "--instance-k", "2", "--n", "4",
     "--k", "3", "--tau", "abc"],
    ["containers", "--instance", "digraph", "--instance-k", "2", "--n", "4",
     "--k", "3", "--tau", "auto", "--gamma", "0"],
    ["containers", "--instance", "digraph", "--instance-k", "2", "--n", "4",
     "--k", "3", "--tau", "auto", "--gamma", "-1"],
], ids=["epsilon-abc", "epsilon-1/0", "tau-abc", "gamma-0", "gamma--1"])
def test_bad_fraction_is_invalid_input(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "invalid input" in captured.err
    assert "Traceback" not in captured.err


def test_tau_auto_out_of_range_is_invalid_input(capsys):
    # n^(-1/m) / gamma is 10 at n = 4 with the default gamma 0.05
    code = cli.main(["containers", "--instance", "digraph", "--instance-k",
                     "2", "--n", "4", "--k", "3", "--tau", "auto"])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "tau = 10" in err


def test_tau_auto_reports_the_suggested_tau(capsys):
    code, out = run(capsys, "containers", "--instance", "digraph",
                    "--instance-k", "2", "--n", "5", "--k", "3", "--tau",
                    "auto", "--gamma", "1")
    assert code == 0
    tau = json.loads(out)["report"]["tau"]["float"]
    assert tau == pytest.approx(5 ** -0.5, abs=1e-6)


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


def test_exit_code_budget_on_a_large_universe(capsys):
    code, out = run(capsys, "types", "--instance", "metric", "--r", "12")
    assert code == 3
    assert json.loads(out)["report"]["error"] == "budget exhausted"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_capped(*argv):
    """The CLI in a fresh interpreter under a 60 s timeout and a 1.5 GB
    address-space cap, so that a path which builds too much fails here
    instead of filling the machine's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC,
                                                      env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    return subprocess.run([sys.executable, "-m", "hereditary.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=cap)


def assert_budget_exit(proc):
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["report"]["error"] == "budget exhausted"


def test_exit_code_budget_on_many_points():
    # the member walk's plan lists the point subsets of the sizes that
    # carry facts or entries, not all 2^40 of them, so the budget is read
    assert_budget_exit(run_capped("enumerate", "--instance", "digraph",
                                  "--k", "2", "--n", "40", "--count-only",
                                  "--budget", "1000"))


def test_exit_code_budget_on_a_huge_arity(tmp_path):
    # one 9-ary relation has 9^9 atoms on 9 points: counted, not built
    signature = [{"name": "R", "arity": 9}]
    sig_path, prop_path = tmp_path / "sig.json", tmp_path / "prop.json"
    sig_path.write_text(json.dumps(signature))
    prop_path.write_text(json.dumps({"signature": signature,
                                     "forbidden": []}))
    assert_budget_exit(run_capped("types", "--signature", str(sig_path)))
    assert_budget_exit(run_capped("types", "--property", str(prop_path)))


def test_exit_code_budget_on_a_wide_checked_step(tmp_path, capsys):
    # one 4-ary relation and the non-induced entry R(1,2,3,4): the step of
    # {1,2,3,4} has 2^24 choices, more than the budget, so it is refused
    # before they are checked
    signature = [{"name": "R", "arity": 4}]
    path = write(tmp_path, "r4.json", {
        "signature": signature, "mode": "non-induced",
        "forbidden": [{"signature": signature, "n": 4,
                       "relations": {"R": [[1, 2, 3, 4]]}}]})
    start = time.time()
    code, out = run(capsys, "enumerate", "--property", path, "--n", "4",
                    "--budget", "1000")
    assert time.time() - start < 1
    assert code == 3
    assert json.loads(out)["report"]["error"] == "budget exhausted"


def test_budget_stop_prints_the_partial_report(capsys):
    code, out = run(capsys, "extremal", "--instance", "metric", "--r", "3",
                    "--n", "4", "--budget", "5")
    assert code == 3
    partial = json.loads(out)["report"]["partial"]
    assert partial["exact"] is False and partial["n"] == 4
    code, out = run(capsys, "density", "--instance", "metric", "--r", "3",
                    "--nmax", "4", "--budget", "5")
    assert code == 3
    rows = json.loads(out)["report"]["partial"]["sequence"]
    assert [row["n"] for row in rows] == [2, 3, 4]
    assert rows[-1]["exact"] is False


@pytest.mark.parametrize("argv, flag", [
    (["extremal", "--instance", "digraph", "--k", "2", "--r", "5", "--n", "4"],
     "--r"),
    (["extremal", "--instance", "metric", "--r", "3", "--k", "7", "--n", "3"],
     "--k"),
    (["types", "--instance", "triples", "--spec", "x"], "--spec"),
    (["types", "--signature", "x", "--instance", "triples"], "--signature"),
    (["types", "--signature", "x", "--property", "y"], "--signature"),
    (["types", "--signature", "x", "--r", "3"], "--r"),
    (["extremal", "--property", "x", "--instance", "triples", "--n", "3"],
     "--property"),
    (["extremal", "--property", "x", "--r", "3", "--n", "3"], "--r"),
    (["containers", "--instance", "metric", "--r", "3", "--instance-k", "2",
      "--n", "4", "--k", "3"], "--instance-k"),
    (["instance", "triples", "--k", "2"], "--k"),
], ids=["r-digraph", "k-metric", "spec-triples", "signature-instance",
        "signature-property", "r-signature", "property-instance",
        "r-property", "instance-k-metric", "instance-k-triples"])
def test_unread_instance_flags_are_invalid_input(capsys, argv, flag):
    # a flag the chosen input never reads is refused before any work
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid input" in err and flag in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--instance", "metric", "--r", "3", "--n", "3",
     "--count-only", "--budget", "0"],
    ["enumerate", "--instance", "metric", "--r", "3", "--n", "3",
     "--count-only", "--budget", "-1"],
    ["extremal", "--instance", "metric", "--r", "3", "--n", "3",
     "--budget", "0"],
    ["verify", "--instance", "metric", "--r", "3", "--nmax", "1"],
    ["containers", "--instance", "digraph", "--instance-k", "2", "--n", "3",
     "--k", "2"],
    ["probe-stability", "--instance", "triples", "--n", "5", "--epsilon", "2",
     "--budget", "5"],
    ["probe-stability", "--instance", "digraph", "--k", "2", "--n", "5",
     "--epsilon", "3/2"],
    ["containers", "--instance", "digraph", "--instance-k", "2", "--n", "4",
     "--k", "3", "--tau", "1/4", "--gamma", "7"],
], ids=["budget-0", "budget--1", "extremal-budget-0", "verify-nothing",
        "containers-k-r", "epsilon-2", "epsilon-3/2", "gamma-without-auto"])
def test_invalid_input_does_no_work(capsys, argv):
    # a budget below 1, a verify run with no closed form in range, a
    # containers block size not above r and an epsilon outside [0, 1],
    # which is rejected before the extremal search runs
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid input" in err and "Traceback" not in err


EDGE = {"signature": [{"name": "E", "arity": 2}], "n": 2,
        "relations": {"E": [[1, 2]]}}
SPEC = {"k": 2, "colors": [1, 2],
        "forbidden": [{"m": 3, "coloring": {"[1,2]": 1, "[1,3]": 1,
                                            "[2,3]": 1}}]}


def with_tuple(t):
    return dict(EDGE, relations={"E": [t]})


def template_with(mutate):
    data = jsonio.template_to_json(metric.all_low_template(3, 3))
    mutate(data["choices"])
    return data


def float_key(choices):
    key = sorted(choices)[0]
    parts = json.loads(key)
    choices[json.dumps([parts[0] + 0.5] + parts[1:])] = choices.pop(key)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


PAIRS = [{"name": "R1", "arity": 2}, {"name": "R2", "arity": 2}]


@pytest.mark.parametrize("allowed, why", [
    ([{"R1": [[1, 2], [2, 1]]}, {"R2": [[1, 1]]}], "repeats an element"),
    ([{"R1": [[1, 2, 3]]}], "arity 3, not 2"),
    ([{"R9": [[1, 2]]}], "unknown relation"),
], ids=["repeated-element", "wrong-arity", "unknown-relation"])
def test_malformed_universe_is_invalid_input(tmp_path, capsys, allowed, why):
    path = write(tmp_path, "universe.json", {
        "signature": PAIRS,
        "forbidden": [{"signature": PAIRS, "allowed": allowed}]})
    assert cli.main(["types", "--property", path]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and why in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, data", [
    ("distance", with_tuple(["a", 2])),
    ("distance", with_tuple(5)),
    ("distance", with_tuple([1.7, 2])),
    ("distance", with_tuple([True, 2])),
    ("hrandom", template_with(lambda c: c.update({sorted(c)[0]: [3]}))),
    ("hrandom", template_with(lambda c: c.update({sorted(c)[0]: ["tx"]}))),
    ("hrandom", template_with(float_key)),
    ("types", {key: value for key, value in SPEC.items() if key != "k"}),
    ("types", dict(SPEC, forbidden=[{"m": 3, "coloring": {"[1,x]": 1}}])),
    ("types", dict(SPEC, forbidden=[{"m": 3, "coloring": {"[1,true]": 1}}])),
    ("types", [SPEC]),
], ids=["tuple-str", "tuple-int", "tuple-float", "tuple-bool",
        "type-id-int", "type-id-tx", "subset-key-float", "spec-no-k",
        "spec-key-x", "spec-key-bool", "spec-list"])
def test_malformed_json_is_invalid_input(tmp_path, capsys, command, data):
    path = write(tmp_path, "in.json", data)
    argv = {"distance": ["distance", path, write(tmp_path, "b.json", EDGE)],
            "hrandom": ["hrandom", "--template", path],
            "types": ["types", "--instance", "colored", "--spec", path]}
    assert cli.main(argv[command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid input" in err and "Traceback" not in err


def test_colored_spec_builds_the_instance(tmp_path, capsys):
    path = write(tmp_path, "spec.json", SPEC)
    code, out = run(capsys, "types", "--instance", "colored", "--spec", path)
    assert code == 0
    assert json.loads(out)["report"]["count"] == 2


def test_containers_k_names_k_and_r(capsys):
    assert cli.main(["containers", "--instance", "metric", "--r", "3",
                     "--n", "4", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "--k" in err and "r = 2" in err


def test_verify_needs_a_family_with_a_closed_form(tmp_path, capsys):
    path = str(tmp_path / "m3.json")
    assert cli.main(["instance", "metric", "--r", "3", "-o", path]) == 0
    assert cli.main(["verify", "--property", path, "--nmax", "3"]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_verify_pass_and_fail(capsys):
    code, out = run(capsys, "verify", "--instance", "digraph", "--k", "2",
                    "--nmax", "3")
    assert code == 0
    assert json.loads(out)["report"]["all_match"]


def test_verify_metric_starts_at_three_points(capsys):
    # on two points ex(2) = r, outside the closed form: verify skips n = 2
    code, out = run(capsys, "verify", "--instance", "metric", "--r", "4",
                    "--nmax", "4")
    assert code == 0
    assert sorted(json.loads(out)["report"]["ex_table"]) == ["3", "4"]


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


def test_hrandom_names_an_unrealized_type(tmp_path, capsys):
    # t0, the pair type with no distance, is no metric space's
    def add_t0(choices):
        choices["[1,2]"].append("t0")
    path = write(tmp_path, "t.json", template_with(add_t0))
    code, out = run(capsys, "hrandom", "--template", path)
    assert code == 0
    assert json.loads(out)["report"] == {
        "flaw_free": False, "h_random": False,
        "diagnostic": ["type outside realized space", "(1, 2)", "t0"]}


def test_subcount_and_hrandom_on_a_template_with_an_error(tmp_path, capsys):
    path = write(tmp_path, "t.json",
                 jsonio.template_to_json(mixed.error_template()))
    code, out = run(capsys, "subcount", "--template", path)
    assert code == 0
    assert json.loads(out)["report"] == {
        "sub": 0, "choice_count": 1, "error_free": False}
    code, out = run(capsys, "hrandom", "--template", path)
    assert code == 0
    assert json.loads(out)["report"] == {
        "flaw_free": True, "error_free": False, "h_random": False}


def test_containers_report(capsys):
    code, out = run(capsys, "containers", "--instance", "digraph",
                    "--instance-k", "2", "--n", "4", "--k", "3",
                    "--tau", "1/4", "--epsilon", "0.1")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["v"] == 24 and body["alpha"] == 43
    assert body["threshold_met"] is False


def test_containers_epsilon_is_exact(capsys):
    Hg = containers.build_hypergraph(digraphs.digraph_instance(2), 3, 4)
    want = containers.codegree_function(Hg, Fraction(1, 4),
                                        epsilon=Fraction(1, 10)).threshold
    for epsilon in ("0.1", "1/10"):
        code, out = run(capsys, "containers", "--instance", "digraph",
                        "--instance-k", "2", "--n", "4", "--k", "3",
                        "--tau", "1/4", "--epsilon", epsilon)
        assert code == 0
        threshold = json.loads(out)["report"]["threshold"]["exact"]
        assert Fraction(threshold) == want


EMPTY_AT_3 = {"signature": [{"name": "E", "arity": 2}], "mode": "non-induced",
              "forbidden": [{"signature": [{"name": "E", "arity": 2}], "n": 1,
                             "relations": {"E": [[1, 1]]}},
                            {"signature": [{"name": "E", "arity": 2}], "n": 3,
                             "relations": {"E": []}}]}


@pytest.mark.parametrize("argv", [
    ["density", "--nmax", "3"],
    ["probe-stability", "--n", "3", "--epsilon", "1/2"],
], ids=["density", "probe-stability"])
def test_empty_members_exit_zero(tmp_path, capsys, argv):
    # the loop-free digraphs on at most 2 points: H_3 is empty, ex(3) = 0
    path = write(tmp_path, "h.json", EMPTY_AT_3)
    code = cli.main(argv + ["--property", path])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    body = json.loads(out)["report"]
    if argv[0] == "density":
        assert body["sequence"][-1]["ex"] == 0
        assert body["sequence"][-1]["b_n"] == 0.0
    else:
        assert body["near_extremal_count"] == 0
        assert body["worst_gap"]["exact"] == "0/1"


def test_probe_stability(capsys):
    code, out = run(capsys, "probe-stability", "--instance", "metric",
                    "--r", "4", "--n", "4", "--epsilon", "5/100")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["worst_gap"]["exact"] == "0/1"
    assert body["truncated"] is False


def test_probe_stability_reports_its_search_stats(capsys):
    code, out = run(capsys, "probe-stability", "--instance", "metric",
                    "--r", "3", "--n", "5", "--epsilon", "1/10")
    assert code == 0
    probe = extremal.stability_probe(metric.metric_instance(3), 5,
                                     Fraction(1, 10))
    assert json.loads(out)["report"]["stats"] == probe.stats
    assert probe.stats["nodes"] > 0


def test_probe_stability_says_when_truncated(capsys, monkeypatch):
    # metric r=3, n=5, epsilon=1/10 has 590 near-extremal templates
    monkeypatch.setattr(extremal, "DEFAULT_CAP", 3)
    code, out = run(capsys, "probe-stability", "--instance", "metric",
                    "--r", "3", "--n", "5", "--epsilon", "1/10")
    assert code == 0
    body = json.loads(out)["report"]
    assert (body["near_extremal_count"], body["truncated"]) == (3, True)


def test_report_determinism(capsys):
    _, out1 = run(capsys, "extremal", "--instance", "triples", "--n", "4")
    _, out2 = run(capsys, "extremal", "--instance", "triples", "--n", "4")
    strip = lambda s: re.sub(r'"timing_seconds": [0-9.]+', '"timing_seconds": 0', s)
    assert strip(out1) == strip(out2)
