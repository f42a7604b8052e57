"""Command line behavior: exit codes, determinism, seed resolution."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import sparsepack
import sparsepack.cli as cli
from sparsepack.core import load_instance, save_instance
from sparsepack.harness import CHUNK_TRIALS, gen_gap_instance
from sparsepack.hypermatch import load_hypergraph
from sparsepack.sksp import load_sksp
from sparsepack.ufptree import load_tree


@pytest.fixture
def gap_path(tmp_path):
    path = tmp_path / "gap2.json"
    save_instance(gen_gap_instance(2), path)
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_produces_loadable_instances(tmp_path, capsys):
    cases = [
        (["gen", "gap", "--k", "3"], load_instance),
        (["gen", "kcs", "--n", "6", "--m", "4", "--k", "2"], load_instance),
        (["gen", "hyper", "--vertices", "6", "--edges", "5", "--k", "2"],
         load_hypergraph),
        (["gen", "sksp", "--n", "4", "--m", "3", "--k", "2"], load_sksp),
        (["gen", "tree", "--vertices", "6", "--demands", "4"], load_tree),
    ]
    for argv, loader in cases:
        out = tmp_path / (argv[1] + ".json")
        rc, _, _ = run(capsys, *argv, "--seed", "3", "-o", str(out))
        assert rc == 0
        loader(out)


def test_gen_matches_library_generator(tmp_path, capsys):
    out = tmp_path / "gap.json"
    rc, _, _ = run(capsys, "gen", "gap", "--k", "2", "-o", str(out))
    assert rc == 0
    assert load_instance(out) == gen_gap_instance(2)


def test_solve_lp_reports_objective(gap_path, capsys):
    rc, out, _ = run(capsys, "solve-lp", gap_path)
    assert rc == 0
    payload = json.loads(out)
    inst = gen_gap_instance(2)
    eps = inst.columns[0][1][1]
    assert payload["objective"] == pytest.approx(3.0 / (1.0 + eps), abs=1e-7)
    assert len(payload["x"]) == 3


def test_round_stdout_is_reproducible(gap_path, capsys):
    argv = ("round", "kcspip", "--instance", gap_path,
            "--trials", "512", "--seed", "5")
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "algorithm=kcspip" in out1
    assert "violations=0" in out1


def test_round_json_is_job_count_invariant(gap_path, tmp_path, capsys):
    reports = []
    for jobs in ("1", "2"):
        sink = tmp_path / f"report{jobs}.json"
        rc, _, _ = run(capsys, "round", "kcspip", "--instance", gap_path,
                       "--trials", "6144", "--seed", "5",
                       "--jobs", jobs, "--json", str(sink))
        assert rc == 0
        reports.append(sink.read_bytes())
    assert reports[0] == reports[1]


# (gen family flags, item count, extra round flags) per scheme
ROUND_CASES = {
    "kcspip": (["kcs", "--n", "8", "--m", "4", "--k", "2"], 8, []),
    "bkns": (["kcs", "--n", "8", "--m", "4", "--k", "2"], 8, []),
    "sksp": (["sksp", "--n", "4", "--m", "3", "--k", "2"], 4,
             ["--sim-budget", "2000"]),
    "hm": (["hyper", "--vertices", "6", "--edges", "5", "--k", "2"], 5, []),
    "ufp": (["tree", "--vertices", "8", "--demands", "5"], 5,
            ["--alpha", "0.1", "--sim-budget", "2000"]),
}


@pytest.mark.parametrize("alg", sorted(ROUND_CASES))
def test_round_every_scheme(alg, tmp_path, capsys):
    family, n, extra = ROUND_CASES[alg]
    inst = tmp_path / "inst.json"
    assert run(capsys, "gen", *family, "--seed", "3", "-o", str(inst))[0] == 0
    argv = ("round", alg, "--instance", str(inst), "--seed", "5", *extra)
    # two chunks, so --jobs 2 really splits the trials
    trials = str(CHUNK_TRIALS + 904)
    reports = []
    for jobs in ("1", "2"):
        sink = tmp_path / f"report{jobs}.json"
        rc, out, _ = run(capsys, *argv, "--trials", trials, "--jobs", jobs,
                         "--json", str(sink))
        assert rc == 0
        assert f"algorithm={alg}" in out
        reports.append(sink.read_bytes())
    assert reports[0] == reports[1]
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps([0.5] * (n + 1)))
    rc, _, err = run(capsys, *argv, "--trials", "8", "--x", str(xfile))
    assert rc == 1
    assert f"array of {n} numbers" in err


@pytest.mark.parametrize("alg", ["bkns", "hm", "kcspip", "sksp", "ufp"])
def test_round_rejects_nan_in_x(alg, tmp_path, capsys):
    # NaN compares False both ways, so a range test written as
    # "x < 0 or x > 1" let it through to the trials.
    family, n, extra = ROUND_CASES[alg]
    inst = tmp_path / "inst.json"
    assert run(capsys, "gen", *family, "--seed", "3", "-o", str(inst))[0] == 0
    xfile = tmp_path / "x.json"
    xfile.write_text("[NaN" + ", 0.25" * (n - 1) + "]")
    rc, out, err = run(capsys, "round", alg, "--instance", str(inst),
                       "--seed", "5", "--trials", "8", "--x", str(xfile),
                       *extra)
    assert rc == 1
    assert "outside [0,1]" in err
    assert out == ""


def test_solve_lp_rejects_infinite_capacity(tmp_path, capsys):
    path = tmp_path / "inf.json"
    inst = gen_gap_instance(2)
    save_instance(dataclasses.replace(
        inst, capacities=(float("inf"),) + inst.capacities[1:]), path)
    rc, out, err = run(capsys, "solve-lp", str(path))
    assert rc == 1
    assert "not finite" in err
    assert out == ""


def test_round_writes_csv(gap_path, tmp_path, capsys):
    sink = tmp_path / "table.csv"
    rc, _, _ = run(capsys, "round", "bkns", "--instance", gap_path,
                   "--trials", "256", "--csv", str(sink))
    assert rc == 0
    lines = sink.read_text().strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 4


def test_seed_resolution_order(gap_path, tmp_path, capsys, monkeypatch):
    sink = tmp_path / "r.json"
    monkeypatch.setenv("SPARSEPACK_SEED", "42")
    run(capsys, "round", "kcspip", "--instance", gap_path,
        "--trials", "64", "--json", str(sink))
    assert json.loads(sink.read_text())["seed"] == 42
    run(capsys, "round", "kcspip", "--instance", gap_path,
        "--trials", "64", "--seed", "7", "--json", str(sink))
    assert json.loads(sink.read_text())["seed"] == 7
    monkeypatch.delenv("SPARSEPACK_SEED")
    run(capsys, "round", "kcspip", "--instance", gap_path,
        "--trials", "64", "--json", str(sink))
    assert json.loads(sink.read_text())["seed"] == 0


def test_malformed_seed_env_is_an_input_error(gap_path, capsys, monkeypatch):
    monkeypatch.setenv("SPARSEPACK_SEED", "not-a-number")
    rc, _, err = run(capsys, "round", "kcspip", "--instance", gap_path,
                     "--trials", "64")
    assert rc == 1
    assert "SPARSEPACK_SEED" in err


def test_missing_file_maps_to_exit_1(capsys):
    rc, _, err = run(capsys, "round", "kcspip", "--instance", "/no/such.json",
                     "--trials", "64")
    assert rc == 1
    assert "error" in err


def test_bad_parameter_maps_to_exit_1(gap_path, capsys):
    rc, _, err = run(capsys, "round", "kcspip", "--instance", gap_path,
                     "--trials", "64", "--alpha", "-2.0")
    assert rc == 1
    assert "alpha" in err


def test_malformed_instance_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3,')
    rc, _, err = run(capsys, "round", "kcspip", "--instance", str(bad),
                     "--trials", "8")
    assert rc == 1
    assert "not valid JSON" in err


def test_wrong_family_file_is_an_input_error(gap_path, capsys):
    rc, _, err = run(capsys, "round", "ufp", "--instance", gap_path,
                     "--trials", "8")
    assert rc == 1
    assert err.startswith("error:")


def test_usage_error_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "round" in err  # full help, not just the usage line


def test_internal_violation_maps_to_exit_2(gap_path, capsys, monkeypatch):
    real = cli.empirical_ratio

    def tampered(spec, x=None):
        return dataclasses.replace(real(spec, x=x), feasibility_violations=3)

    monkeypatch.setattr(cli, "empirical_ratio", tampered)
    rc, _, err = run(capsys, "round", "kcspip", "--instance", gap_path,
                     "--trials", "64")
    assert rc == 2
    assert "internal error" in err


def test_oracle_opt(gap_path, capsys):
    rc, out, _ = run(capsys, "oracle", "opt", gap_path)
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == 1.0
    assert len(payload["items"]) == 1


def test_oracle_inclusion_with_explicit_x(gap_path, tmp_path, capsys):
    xfile = tmp_path / "x.json"
    xfile.write_text("[1.0, 0.0, 0.0]")
    rc, out, _ = run(capsys, "oracle", "inclusion", gap_path,
                     "--x", str(xfile), "--pairwise")
    assert rc == 0
    payload = json.loads(out)
    assert payload["params"]["palette"] == 5
    # a lone sampled item always survives to the uniform color draw
    p = payload["params"]["alpha"] / 2.0 / 5.0
    assert payload["marginals"][0] == pytest.approx(p)
    assert payload["marginals"][1] == 0.0
    assert payload["pairwise"][0][1] == 0.0


def test_oracle_inclusion_rejects_bad_x(gap_path, tmp_path, capsys):
    xfile = tmp_path / "x.json"
    xfile.write_text("[1.0]")
    rc, _, err = run(capsys, "oracle", "inclusion", gap_path, "--x", str(xfile))
    assert rc == 1
    assert "array of 3" in err


def test_schedule_command(capsys):
    rc, out, _ = run(capsys, "schedule", "-T", "2", "--k", "8")
    assert rc == 0
    payload = json.loads(out)
    assert payload["alphas"] == [1.0, 0.5]
    assert payload["betas"] == [0.5, 0.0625]
    assert payload["gamma"] == pytest.approx(0.5625)


def test_schedule_without_k_uses_limit_rates(capsys):
    rc, out, _ = run(capsys, "schedule", "-T", "3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(89.0 / 128.0)


def test_optimize_ufp_command(capsys):
    rc, out, _ = run(capsys, "optimize-ufp", "--grid", "1e-5")
    assert rc == 0
    payload = json.loads(out)
    assert payload["balance"] == pytest.approx(0.1227, abs=1e-3)
    rc, _, err = run(capsys, "optimize-ufp", "--grid", "0.5")
    assert rc == 1
    assert "grid_resolution" in err


def test_python_dash_m_runs_the_cli():
    # The package must run as `python -m sparsepack` from a source tree,
    # where no `sparsepack` script is installed.
    src = os.path.dirname(os.path.dirname(sparsepack.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "sparsepack", "schedule", "-T", "3", "--k", "20"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["alphas"][0] == 1.0
