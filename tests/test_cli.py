"""End-to-end tests of the command-line interface via subprocess."""

import hashlib
import json
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "cubefix"]


def run_cli(*args, expect=0):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, (proc.returncode, proc.stderr[-800:])
    return proc


def test_solve_stdout_json():
    proc = run_cli("solve", "--family", "affine", "--k", "2",
                   "--eps", "0.25", "--gamma", "0.5", "--seed", "3")
    obj = json.loads(proc.stdout)
    assert obj["command"] == "solve"
    assert obj["result"]["outcome"] == "fixed-point-found"
    assert obj["result"]["queries"] <= obj["result"]["query_bound"]
    assert obj["eps"] == 0.25 and obj["gamma"] == 0.5
    # wall time goes to stderr, never stdout
    assert "wall" in proc.stderr
    assert "wall" not in proc.stdout


def test_solve_out_file_and_round_log(tmp_path):
    out = tmp_path / "result.json"
    run_cli("solve", "--family", "affine", "--k", "2", "--eps", "0.25",
            "--gamma", "0.5", "--seed", "3", "--out", str(out))
    text = out.read_text()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["instance"]["family"] == "affine"
    rounds = tmp_path / "result.rounds.jsonl"
    lines = [json.loads(line) for line in rounds.read_text().splitlines()]
    assert len(lines) == obj["result"]["queries"]
    assert set(lines[0]) == {"t", "a_t", "s", "residual", "cand_size",
                             "queries_so_far"}


def test_solve_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "--family", "affine", "--k", "2", "--eps", "0.25",
            "--gamma", "0.5", "--seed", "9"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_solve_instance_file_round_trip(tmp_path):
    spec_file = tmp_path / "inst.json"
    spec_file.write_text(json.dumps({
        "family": "constant", "k": 2, "gamma": 0.5, "epsilon": 0.5,
        "seed": 1, "params": {"c": [0.25, 0.75]},
    }))
    proc = run_cli("solve", "--instance-file", str(spec_file))
    obj = json.loads(proc.stdout)
    assert obj["instance"]["params"]["c"] == [0.25, 0.75]
    assert obj["result"]["outcome"] == "fixed-point-found"


def test_solve_instance_file_refuses_a_conflicting_k_or_family(tmp_path):
    spec_file = tmp_path / "inst.json"
    spec_file.write_text(json.dumps({
        "family": "affine", "k": 2, "gamma": 0.5, "epsilon": 0.5, "seed": 1,
        "params": {"M": [[0.3, 0.1], [0.2, -0.4]], "c": [0.3, 0.4]},
    }))
    for flags in (["--k", "3"], ["--family", "constant"],
                  ["--k", "3", "--family", "constant", "--seed", "9"]):
        proc = run_cli("solve", "--instance-file", str(spec_file), *flags, expect=1)
        assert "instance file has" in proc.stderr and not proc.stdout
    # flags that agree with the file are fine, and --eps still overrides it
    proc = run_cli("solve", "--instance-file", str(spec_file), "--k", "2",
                   "--family", "affine", "--eps", "0.25")
    obj = json.loads(proc.stdout)
    assert obj["instance"]["k"] == 2 and obj["eps"] == 0.25


def test_solve_echoes_the_seed_of_the_instance_it_solves(tmp_path):
    spec_file = tmp_path / "inst.json"
    spec_file.write_text(json.dumps({
        "family": "constant", "k": 2, "gamma": 0.5, "epsilon": 0.5,
        "seed": 1, "params": {"c": [0.25, 0.75]},
    }))
    for flags in ([], ["--seed", "1"]):
        obj = json.loads(run_cli("solve", "--instance-file", str(spec_file), *flags).stdout)
        assert obj["seed"] == obj["instance"]["seed"] == 1
    proc = run_cli("solve", "--instance-file", str(spec_file), "--seed", "9", expect=1)
    assert "instance file has seed 1, not --seed 9" in proc.stderr and not proc.stdout
    for flags, seed in (([], 0), (["--seed", "9"], 9)):
        obj = json.loads(run_cli("solve", "--family", "constant", *flags).stdout)
        assert obj["seed"] == obj["instance"]["seed"] == seed


def test_solve_rejects_unknown_family():
    proc = run_cli("solve", "--family", "parity-game", expect=1)
    assert proc.stderr.strip()


def test_solve_rejects_bad_eps():
    run_cli("solve", "--family", "affine", "--eps", "1.5", expect=1)
    run_cli("solve", "--family", "affine", "--eps", "0", expect=1)


def test_usage_error_on_missing_subcommand():
    run_cli(expect=1)


def test_total_subcommand_fixed_point():
    proc = run_cli("total", "--family", "affine", "--k", "2",
                   "--eps", "0.25", "--gamma", "0.5", "--seed", "3")
    obj = json.loads(proc.stdout)
    assert obj["total"] is True
    assert obj["result"]["kind"] == "fixed-point"
    assert obj["result"]["certificate"] is None


def test_total_flag_equivalent_to_subcommand():
    a = run_cli("total", "--family", "affine", "--seed", "5").stdout
    b = run_cli("solve", "--total", "--family", "affine", "--seed", "5").stdout
    assert json.loads(a)["result"] == json.loads(b)["result"]


def test_total_identity_finds_fixed_point_immediately():
    # The identity's first query is an exact fixed point, so the scan never
    # sees two distinct queries.
    proc = run_cli("total", "--family", "identity", "--k", "2",
                   "--eps", "0.25", "--gamma", "0.25")
    obj = json.loads(proc.stdout)
    assert obj["result"]["kind"] == "fixed-point"
    assert obj["result"]["queries"] == 1


def test_solve_baseline_included():
    proc = run_cli("solve", "--family", "affine", "--k", "1", "--eps", "0.25",
                   "--gamma", "0.5", "--baseline")
    obj = json.loads(proc.stdout)
    assert obj["baseline"]["outcome"] == "fixed-point-found"
    assert obj["baseline"]["queries"] >= 1


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    run_cli("bench", "--k", "1,2", "--eps", "0.5,0.25", "--family",
            "affine,constant", "--trials", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,k,eps,gamma,n,queries,rounds,residual,outcome"
    rows = [line.split(",") for line in lines[1:]]
    data = [r for r in rows if not r[0].startswith("summary")]
    summaries = [r for r in rows if r[0].startswith("summary")]
    # 2 families x 2 k x 2 eps x 2 seeds data rows, one summary per (k, eps)
    assert len(data) == 16
    assert len(summaries) == 4
    for r in data:
        assert r[8] == "fixed-point-found"
        bound = next(s for s in summaries if s[1] == r[1] and s[2] == r[2])[6]
        assert int(r[5]) <= int(bound)
    for s in summaries:
        assert s[8] == "within-bound"
        # max-queries column never exceeds the bound column
        assert int(s[5]) <= int(s[6])


def test_bench_with_baseline_column(tmp_path):
    out = tmp_path / "bench.csv"
    run_cli("bench", "--k", "1", "--eps", "0.5", "--family", "affine",
            "--trials", "2", "--baseline", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,k,eps,gamma,n,queries,rounds,residual,outcome,picard"
    data = [line.split(",") for line in lines[1:] if line.split(",")[0] != "summary"]
    for r in data:
        assert int(r[9]) >= 1


def test_bench_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--k", "1", "--eps", "0.5,0.25", "--family", "affine",
            "--trials", "3"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bench_diamond_skipped_off_k2(tmp_path):
    out = tmp_path / "bench.csv"
    run_cli("bench", "--k", "1,2", "--eps", "0.5", "--family", "diamond",
            "--gamma", "0", "--trials", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    data = [line for line in lines[1:] if not line.startswith("summary")]
    assert all(line.split(",")[1] == "2" for line in data)


def test_verify_lemmas_pass_lines_and_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify-lemmas", "--trials", "20", "--seed", "1",
                   "--out", str(out))
    lines = [line for line in proc.stdout.splitlines() if line]
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines)
    report = json.loads(out.read_text())
    assert len(report["suites"]) == 8
    assert all(s["passed"] for s in report["suites"])


def test_verify_lemmas_mutation_fails_with_exit_2():
    proc = run_cli("verify-lemmas", "--trials", "20", "--seed", "0",
                   "--mutate", "eliminate-off-by-one", expect=2)
    assert any(line.startswith("FAIL") for line in proc.stdout.splitlines())


def test_verify_lemmas_unknown_mutation_usage_error():
    run_cli("verify-lemmas", "--mutate", "bogus", expect=1)


def test_adversary_demo_report(tmp_path):
    out = tmp_path / "adv.json"
    run_cli("adversary-demo", "--n-strips", "4", "--trials", "300",
            "--out", str(out))
    report = json.loads(out.read_text())
    assert report["N"] == 4
    assert len(report["strips"]) == 4
    assert report["separation_ok"] is True
    assert all(s["separation"] > 0.5 and s["separated"] for s in report["strips"])
    assert report["diagonal_pairs"]["passed"] is True
    assert report["out_of_strip"]["mismatches"] == 0
    assert report["out_of_strip"]["checked"] > 0


def test_adversary_demo_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("adversary-demo", "--n-strips", "4", "--trials", "200", "--out", str(a))
    run_cli("adversary-demo", "--n-strips", "4", "--trials", "200", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_adversary_demo_rejects_bad_delta():
    run_cli("adversary-demo", "--n-strips", "4", "--delta", "0.3", expect=1)


GOLDEN_SHA256 = {
    ("solve", "--family", "affine", "--k", "2", "--eps", "0.25",
     "--gamma", "0.5", "--seed", "3"):
        "6cf7e8684a0607187d7ffaffcc8835940be0d4df8f8cfc1e18bd7937bdf1cb47",
    ("solve", "--family", "diamond", "--k", "2", "--eps", "0.3",
     "--gamma", "0", "--seed", "0"):
        "070161ab0d350c8474d13d2894bddcf96330a6941610abd291344a24675bfa38",
    ("total", "--family", "affine", "--k", "2", "--eps", "0.25",
     "--gamma", "0.5", "--seed", "3"):
        "4cf8d2525a41973b7a4774d5bfdf94cfd1be321028b05f00b09bd449a525072d",
    ("total", "--family", "diamond", "--k", "2", "--eps", "0.3",
     "--gamma", "0", "--seed", "0"):
        "5557df59f678afc0fa7e093227a8327dcac3c8c94fb67477941c1ee4c26cf45b",
    ("bench", "--k", "1,2", "--trials", "3", "--baseline"):
        "8749d1ba0a77ccf3a5f7078f53526ee703aeebc7f0c1d6be9bacbbe09792c015",
    ("verify-lemmas", "--trials", "20"):
        "d589f3e1cf1583a7e12f12054ee1a0362ff3a698d7d68c804239fead89b105b0",
    ("adversary-demo", "--trials", "200", "--seed", "0"):
        "d9e7dd5e4d5072fe9207ca303e959c912521f419bdd31792b75d22630a5924c8",
}


def test_outputs_match_golden_bytes(tmp_path):
    # Pins the exact bytes of each result file, so a refactor that claims to
    # preserve behaviour (the routed and unrouted solve paths, total search,
    # bench rows, property-suite reports, the strip-family demo) is checked
    # rather than assumed.
    # The routed diamond runs on n = 712, not a power of two, so its grid
    # answers change if the two scalings are folded into one factor.
    # Runs in-process to stay fast.
    from cubefix import cli

    for i, (args, digest) in enumerate(GOLDEN_SHA256.items()):
        out = tmp_path / f"out{i}"
        assert cli.main(list(args) + ["--out", str(out)]) == 0, args
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
