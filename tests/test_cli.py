"""Tests for the command-line driver: flags, exit codes, report shape."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gtkit.cli as cli

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCount:
    def test_initial_condition(self, capsys):
        code, out = run_cli(
            capsys, "count", "--r", "0", "--n", "3", "--c", "2", "--ks", "0,1,2"
        )
        assert code == 0
        report = json.loads(out)
        values = {r["provenance"]: r["value"] for r in report["results"]}
        assert values["bruteforce"] == "1"
        assert values["recursion"] == "1"

    def test_both_engines_agree(self, capsys):
        code, out = run_cli(
            capsys, "count", "--r", "1", "--n", "2", "--c", "2", "--ks", "1",
            "--engine", "both",
        )
        assert code == 0
        report = json.loads(out)
        assert {r["value"] for r in report["results"]} == {"4"}
        assert report["verdicts"] == [
            {"identity": "engine agreement", "parameters": "F(1,2,2;1)",
             "pass": True}
        ]

    def test_q_rendering(self, capsys):
        code, out = run_cli(
            capsys, "count", "--r", "1", "--n", "2", "--c", "1", "--ks", "1",
            "--q", "--engine", "brute",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"][0]["value"] == "q + q^2"

    def test_engine_mismatch_exit_code(self, capsys, monkeypatch):
        from fractions import Fraction

        monkeypatch.setattr(cli.counting, "f_recursive",
                            lambda key, memo=None: Fraction(999))
        code, out = run_cli(
            capsys, "count", "--r", "1", "--n", "2", "--c", "2", "--ks", "1",
            "--engine", "both",
        )
        assert code == cli.EXIT_ENGINE_MISMATCH
        report = json.loads(out)
        assert report["verdicts"][0]["pass"] is False

    def test_dump_patterns(self, capsys):
        code, out = run_cli(
            capsys, "count", "--r", "1", "--n", "2", "--c", "2", "--ks", "1",
            "--engine", "brute", "--dump-patterns",
        )
        assert code == 0
        report = json.loads(out)
        dumps = [r for r in report["results"] if r["provenance"] == "enumeration"]
        assert len(dumps) == 4
        first = json.loads(dumps[0]["value"])
        assert first["kind"] == "gen_pattern"
        assert first["r"] == 1 and first["n"] == 2 and first["c"] == 2

    def test_bad_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--r", "x", "--n", "2", "--c", "2"])
        assert exc.value.code == 2

    def test_inconsistent_key_exit_two(self, capsys):
        code, _ = run_cli(
            capsys, "count", "--r", "1", "--n", "3", "--c", "2", "--ks", "1"
        )
        assert code == 2

    def test_closed_stdout_exits_quietly(self):
        # the report (about 82 KB) overflows the pipe's 64 KiB buffer, so the
        # write meets the closed read end, as under `| head`
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gtkit.cli", "count", "--r", "3", "--n", "5",
             "--c", "3", "--ks", "1,2", "--engine", "brute", "--dump-patterns"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        assert b"Traceback" not in err
        assert err == b""

    def test_deep_q_count_engines_agree(self):
        # end to end: brute force enumerates 13,325,312 patterns, the
        # recursion packs its 813 states, and the report compares the two
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "gtkit.cli", "count", "--r", "6", "--n", "7",
             "--c", "5", "--ks", "2", "--q", "--engine", "both"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdicts"] == [
            {"identity": "engine agreement", "parameters": "F_q(6,7,5;2)",
             "pass": True}
        ]
        values = {r["provenance"]: r["value"] for r in report["results"]}
        assert values["bruteforce"] == values["recursion"]


class TestTable:
    def test_csv_rows(self, capsys):
        code, out = run_cli(
            capsys, "table", "--n", "2", "--c", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,c,k,brute,formula,match"
        assert lines[1:] == [
            "2,2,0,3,3,true",
            "2,2,1,4,4,true",
            "2,2,2,3,3,true",
        ]

    def test_n1_rows_all_one(self, capsys):
        code, out = run_cli(
            capsys, "table", "--n", "1", "--c", "3", "--format", "csv"
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert fields[3] == fields[4] == "1"

    def test_negative_k_row_shows_zero(self, capsys):
        code, out = run_cli(
            capsys, "table", "--n", "2", "--c", "2",
            "--kmin", "-1", "--kmax", "-1", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "2,2,-1,0,0,true"

    def test_json_report(self, capsys):
        code, out = run_cli(capsys, "table", "--n", "2", "--c", "1")
        assert code == 0
        report = json.loads(out)
        assert all(v["pass"] for v in report["verdicts"])

    @pytest.mark.parametrize("argv", [
        ("--n", "3:1", "--c", "1"),
        ("--n", "2", "--c", "2:0"),
        ("--n", "2", "--c", "2", "--kmin", "2", "--kmax", "1"),
    ])
    def test_empty_table_exit_two(self, capsys, argv):
        code = cli.main(["table", *argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "no table rows" in captured.err

    def test_range_spec(self, capsys):
        code, out = run_cli(
            capsys, "table", "--n", "1:2", "--c", "0:1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 1 + 2 + 1 + 2  # (n,c) in {1,2} x {0,1}, k in 0..c


class TestVerify:
    def test_hyper_suite_passes_with_note(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "hyper")
        assert code == 0
        report = json.loads(out)
        assert all(v["pass"] for v in report["verdicts"])
        notes = [r for r in report["results"]
                 if r["label"] == "displayed-final-expression discrepancy"]
        assert len(notes) == 1
        assert "6" in notes[0]["value"] and "10" in notes[0]["value"]

    def test_qpoch_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "qpoch")
        assert code == 0

    def test_determinism(self, capsys):
        code1, out1 = run_cli(capsys, "verify", "--suite", "lemma2", "--seed", "42")
        code2, out2 = run_cli(capsys, "verify", "--suite", "lemma2", "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.identities, "verify_qpoch_sum",
                            lambda n, y: False)
        code, out = run_cli(capsys, "verify", "--suite", "qpoch")
        assert code == cli.EXIT_VERIFICATION_FAILED
        report = json.loads(out)
        failing = [v for v in report["verdicts"] if not v["pass"]]
        assert failing and "counterexample" in failing[0]

    def test_override(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "qvand", "--override", "qvand_max_m=2"
        )
        assert code == 0
        report = json.loads(out)
        assert "m <= 2" in report["verdicts"][0]["parameters"]

    def test_bad_override_exit_two(self, capsys):
        for override, message in [
            ("nonsense=1", "unknown override"),
            ("seed=7", "--seed"),  # the report records --seed only
        ]:
            code = cli.main(["verify", "--suite", "qvand", "--override", override])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize("override", [
        "fund_sample_bound=-1",
        "fund_functions=-2",
        "lemma2_d=-1",
        "lemma2_xy=-3",
        "hyper_max_c=-1",
        "qpoch_ylo=6",
        "qpoch_yhi=-4",
        "tableaux_lo=4",
        "decomp_khi=-3",
    ])
    def test_bad_override_value_exit_two(self, capsys, override):
        suite = override.split("_")[0]
        code = cli.main(["verify", "--suite", suite, "--override", override])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_negative_lower_ends_allowed(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "qpoch",
                            "--override", "qpoch_ylo=-4")
        assert code == 0
        assert "y in [-4,5]" in json.loads(out)["verdicts"][0]["parameters"]

    def test_ranges_render_their_own_sign(self):
        cfg = replace(cli.SweepConfig(), lemma2_d=-1, lemma2_xy=0)
        with pytest.raises(cli.EmptySweep, match=r"d in \[1,-1\], x,y in \[0,0\]"):
            cli._suite_lemma2(cli.RunReport("lemma2", {}), cfg)

    def test_tableaux_parameters_do_not_follow_max_k(self):
        # these checks sweep 3-vectors whatever tableaux_max_k is
        names = ("translation invariance", "alternating in the arguments",
                 "sign-reversing involution sum")
        params = []
        for max_k in (1, 3):
            report = cli.RunReport("tableaux", {})
            cli._suite_tableaux(report, replace(cli.SweepConfig(), tableaux_max_k=max_k))
            params.append({v["identity"]: v["parameters"]
                           for v in report.verdicts if v["identity"] in names})
        assert params[0] == params[1]
        assert set(params[0]) == set(names)
        assert all("^3" in p and "k <=" not in p for p in params[0].values())

    @pytest.mark.parametrize("suite", ["ssyt", "tableaux"])
    def test_tableau_memo_is_scoped_per_call(self, monkeypatch, capsys, suite):
        # each run counts every shape once, and a second run counts them again
        counted = []
        brute = cli.tableaux.ssyt_bruteforce

        def counting_brute(shape, k):
            counted.append((tuple(shape), k))
            return brute(shape, k)

        monkeypatch.setattr(cli.tableaux, "ssyt_bruteforce", counting_brute)
        runs = []
        for _ in range(2):
            counted.clear()
            assert cli.main(["verify", "--suite", suite]) == 0
            capsys.readouterr()
            runs.append(list(counted))
        assert runs[0] == runs[1]
        assert runs[0] and len(set(runs[0])) == len(runs[0])

    @pytest.mark.parametrize("suite", ["decomp", "extra"])
    def test_recursion_memo_is_scoped_per_call(self, monkeypatch, capsys, suite):
        # each check keeps the recursion's states for one suite call, so it
        # computes a state once per run, and a second run computes them again
        computed = []
        real = cli.counting._recurse

        def counted(memo, total, box, r, n, c, ks):
            if r and (r, n, c, ks) not in memo:
                computed.append((box is cli.counting.chained_count, r, n, c, ks))
            return real(memo, total, box, r, n, c, ks)

        monkeypatch.setattr(cli.counting, "_recurse", counted)
        runs = []
        for _ in range(2):
            computed.clear()
            assert cli.main(["verify", "--suite", suite]) == 0
            capsys.readouterr()
            runs.append(sorted(computed))
            assert len(set(computed)) == len(computed)
        assert runs[0] == runs[1]
        assert runs[0]

    def test_a_wrong_count_fails_the_zeros_suite(self, monkeypatch, capsys):
        # one count too high at k = 2n lifts the interpolant above its degree
        # bound: a failing verdict, not an exception
        real = cli.identities.f_bruteforce

        def planted(key):
            return real(key) + 1 if key.ks == (2 * key.n,) else real(key)

        monkeypatch.setattr(cli.identities, "f_bruteforce", planted)
        code, out = run_cli(capsys, "verify", "--suite", "zeros")
        assert code == cli.EXIT_VERIFICATION_FAILED
        (verdict,) = json.loads(out)["verdicts"]
        assert not verdict["pass"] and verdict["counterexample"] == "(2, 0)"
        assert not cli.identities.verify_zeros(2, 0)

    def test_a_zero_triangle_count_fails_the_asm_suite(self, monkeypatch, capsys):
        real = cli.asm_mod.count_monotone_triangles

        def planted(n, k):
            return 0 if (n, k) == (3, 2) else real(n, k)

        monkeypatch.setattr(cli.asm_mod, "count_monotone_triangles", planted)
        code, out = run_cli(capsys, "verify", "--suite", "asm")
        assert code == cli.EXIT_VERIFICATION_FAILED
        report = json.loads(out)
        ratio = [v for v in report["verdicts"]
                 if v["identity"] == "pattern-to-triangle ratio independence"]
        assert [v["pass"] for v in ratio] == [True, False, True, True]
        assert ratio[1]["counterexample"] == "(3,)"
        labels = [r["label"] for r in report["results"]]
        assert "common ratio at n=3" not in labels and "common ratio at n=4" in labels

    def test_unknown_suite_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite,override", [
        ("zeros", "zeros_max_n=-5"),
        ("zeros", "zeros_max_c=-1"),
        ("fund", "fund_functions=0"),
        ("asm", "asm_ratio_max_n=1"),
        ("asm", "asm_ratio_max_n=0"),
    ])
    def test_empty_sweep_exit_two(self, capsys, suite, override):
        code = cli.main(["verify", "--suite", suite, "--override", override])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "no instances" in captured.err

    def test_all_suites_match_golden_report(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "all", "--seed", "42")
        assert code == 0
        assert out == (ROOT / "tests" / "data" / "verify_all_seed42.json").read_text()

    def test_benchmark_runs_every_suite(self, monkeypatch):
        path = ROOT / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
        assert set(module.SUITES) == set(cli.SUITES)


class TestCheck:
    def test_one_verdict_per_identity(self):
        report = cli.RunReport("t", {})
        cli._check(report, "x in 1..4", [(x,) for x in range(1, 5)], {
            "below three": lambda x: x < 3,
            "positive": lambda x: x > 0,
        })
        assert report.verdicts == [
            {"identity": "below three", "parameters": "x in 1..4",
             "pass": False, "counterexample": "(3,)"},
            {"identity": "positive", "parameters": "x in 1..4", "pass": True},
        ]

    def test_empty_generator_raises(self):
        report = cli.RunReport("t", {})
        with pytest.raises(cli.EmptySweep, match="no instances for none"):
            cli._check(report, "none", (x for x in ()), {"any": lambda x: True})
        assert report.verdicts == []

    def test_fund_counterexample_replays(self, monkeypatch):
        def fake(m, i, g, sample):
            return g(*sample[:m]) < 4

        monkeypatch.setattr(cli.identities, "verify_lemma_fund", fake)
        report = cli.RunReport("fund", {})
        cli._suite_fund(report, replace(cli.SweepConfig(), fund_functions=12))
        plain, q = report.verdicts
        assert not plain["pass"] and q["pass"] and "counterexample" not in q
        m, i, seed, sample = ast.literal_eval(plain["counterexample"])
        assert 1 <= i <= m and len(sample) == m + 1
        g = next(cli.identities.random_int_functions(1, m, seed))
        assert not fake(m, i, g, sample)
