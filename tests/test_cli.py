"""Tests for the command-line driver: flags, exit codes, report shape."""

import ast
import importlib.util
import itertools
import json
import os
import shlex
import subprocess
import sys
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

    def test_json_q_rows_name_the_shifted_q_count(self, capsys):
        # a q row's value is q^k F_q, count --q's F_q times q^k; plain rows
        # keep the plain count's name
        code, out = run_cli(capsys, "table", "--n", "2", "--c", "1", "--kmin", "-1", "--q")
        assert code == 0
        results = json.loads(out)["results"]
        labels = [r["label"] for r in results if r["provenance"] == "bruteforce"]
        assert labels == ["q^-1*F_q(1,2,1;-1)", "q^0*F_q(1,2,1;0)", "q^1*F_q(1,2,1;1)"]
        for k in (-1, 0, 1):
            code, out = run_cli(capsys, "count", "--r", "1", "--n", "2", "--c", "1",
                                f"--ks={k}", "--engine", "brute", "--q")
            (counted,) = json.loads(out)["results"]
            assert counted["label"] == f"F_q(1,2,1;{k})"
            row = next(r for r in results if r["label"] == f"q^{k}*F_q(1,2,1;{k})"
                       and r["provenance"] == "bruteforce")
            value = cli.counting.fq_bruteforce(cli.TopRowKey(1, 2, 1, (k,)))
            assert counted["value"] == str(value) and row["value"] == str(value.shift(k))
        code, out = run_cli(capsys, "table", "--n", "2", "--c", "1")
        assert [r["label"] for r in json.loads(out)["results"]] == [
            "F(1,2,1;0)", "F(1,2,1;0)", "F(1,2,1;1)", "F(1,2,1;1)"]

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

    @pytest.mark.parametrize("argv,golden", [
        (("--n", "1:4", "--c", "0:4", "--kmin", "-4", "--kmax", "9"),
         "table_n1-4_c0-4_k-4-9.csv"),
        (("--n", "1:4", "--c", "0:3", "--kmin", "-3", "--kmax", "6", "--q"),
         "table_q_n1-4_c0-3_k-3-6.csv"),
    ])
    def test_csv_matches_golden_table(self, capsys, argv, golden):
        code, out = run_cli(capsys, "table", *argv, "--format", "csv")
        assert code == 0
        assert out == (ROOT / "tests" / "data" / golden).read_text()

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

    def test_extra_checks_both_weights_on_one_grid(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "extra")
        assert code == 0
        plain, q = json.loads(out)["verdicts"]
        assert (plain["identity"], q["identity"]) == (
            "boundary recursion (plain)", "boundary recursion (q)")
        assert plain["parameters"] == q["parameters"] == "2 <= n <= 4, c <= 4"

    def test_one_asm_bound_for_counts_and_ratios(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "asm",
                            "--override", "asm_max_n=4")
        assert code == 0
        params = {}
        for v in json.loads(out)["verdicts"]:
            params.setdefault(v["identity"], []).append(v["parameters"])
        assert params == {
            "refined count formula": ["n <= 4, 1 <= k <= n"],
            "total counts": ["n <= 4"],
            "pattern-to-triangle ratio independence": ["n=2", "n=3", "n=4"],
        }

    def test_ssyt_rows_follow_max_k(self, monkeypatch):
        # a shape with more than k rows has no tableau, so ssyt_max_k bounds
        # the rows of every shape the suite checks
        checked = []
        product = cli.closedforms.ssyt_product

        def recording_product(shape, k):
            checked.append((shape, k))
            return product(shape, k)

        monkeypatch.setattr(cli.closedforms, "ssyt_product", recording_product)
        report = cli.RunReport("ssyt", {})
        cli._suite_ssyt(report, cli.SweepConfig()._replace(ssyt_max_k=3))
        assert all(v["pass"] for v in report.verdicts)
        assert {v["identity"]: v["parameters"] for v in report.verdicts} == {
            "tableau count product formula": "shapes with <= 3 parts <= 4, k <= 3",
            "tableau count via alternating extension": "shapes with exactly k parts <= 4, k <= 3"}
        expected = {
            (shape, k)
            for k in range(1, 4)
            for rows in range(k + 1)
            for shape in itertools.product(range(1, 5), repeat=rows)
            if list(shape) == sorted(shape, reverse=True)
        }
        assert len(checked) == len(set(checked))
        assert set(checked) == expected
        assert max(len(shape) for shape, _ in checked) == 3

    def test_alternating_extension_reads_another_count(self, monkeypatch):
        # f_ext counts the shape less its full columns, which is the shape
        # itself when it has fewer than k rows: the check runs only on the
        # 69 of 125 instances with exactly k rows, where f_ext's lam_k > -k
        calls = []
        f_ext = cli.tableaux.f_ext

        def recording(lam, memo=None):
            calls.append(lam)
            return f_ext(lam, memo)

        monkeypatch.setattr(cli.tableaux, "f_ext", recording)
        report = cli.RunReport("ssyt", {})
        cli._suite_ssyt(report, cli.SweepConfig())
        assert report.all_passed
        assert len(calls) == 69
        assert all(lam[-1] > -len(lam) for lam in calls)

    def test_bad_override_exit_two(self, capsys):
        for override, message in [
            ("nonsense=1", "unknown override"),
            ("seed=7", "unknown override"),  # no suite reads a seed
            ("lemma2_d=x", "'lemma2_d=x': the value must be an integer"),
            ("lemma2_d=", "'lemma2_d=': the value must be an integer"),
            # bounds that another field already sets
            ("extra_q_max_c=3", "unknown override"),
            ("ssyt_max_rows=4", "unknown override"),
            ("asm_count_max_n=4", "unknown override"),
            ("asm_ratio_max_n=5", "unknown override"),
            # the single sums are decided at their nodes, with no c or y bound
            ("hyper_max_c=6", "unknown override"),
            ("qvand_max_c=5", "unknown override"),
            ("qpoch_ylo=-3", "unknown override"),
            ("qpoch_yhi=5", "unknown override"),
        ]:
            code = cli.main(["verify", "--suite", "qvand", "--override", override])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert message in captured.err
            assert "invalid literal" not in captured.err

    @pytest.mark.parametrize("override", [
        "lemma2_d=-1",
        "lemma2_xy=-3",
        "hyper_max_m=-1",
        "qpoch_max_n=-1",
        "tableaux_hi=-3",
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

    @pytest.mark.parametrize("overrides", [("qvand_max_m=2", "qvand_max_m=4"),
                                           ("qvand_max_m=4", "qvand_max_m=2"),
                                           ("qvand_max_m=3", "qvand_max_m=3")])
    def test_a_field_given_twice_exit_two(self, capsys, overrides):
        # the report records the overrides sorted, so it could not say which
        # of two values ran
        argv = ["verify", "--suite", "qvand"]
        for override in overrides:
            argv += ["--override", override]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "qvand_max_m is given twice" in captured.err

    def test_negative_lower_ends_allowed(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "tableaux",
                            "--override", "tableaux_lo=-3")
        assert code == 0
        assert "vectors in [-3,3]^k" in json.loads(out)["verdicts"][0]["parameters"]

    def test_ranges_render_their_own_sign(self):
        cfg = cli.SweepConfig()._replace(lemma2_d=-1, lemma2_xy=0)
        with pytest.raises(cli.EmptySweep, match=r"d in \[1,-1\], x,y in \[0,0\]"):
            cli._suite_lemma2(cli.RunReport("lemma2", {}), cfg)

    def test_tableaux_parameters_do_not_follow_max_k(self):
        # these checks sweep 3-vectors whatever tableaux_max_k is
        names = ("translation invariance", "alternating in the arguments",
                 "sign-reversing involution sum")
        params = []
        for max_k in (1, 3):
            report = cli.RunReport("tableaux", {})
            cli._suite_tableaux(report, cli.SweepConfig()._replace(tableaux_max_k=max_k))
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
        # computes a state once per run, and a second run computes them again.
        # The checks read only the level tables, so every table the engine
        # finds or builds is tagged with its weight and level, and records
        # each state stored in it, the states below a read included
        computed = []
        real = cli.counting.level

        class Table(cli.counting._Level):
            def __setitem__(self, ks, value):
                computed.append((*self.level, ks))
                super().__setitem__(ks, value)

        def tagged(memo, r, n, c, bits=None):
            table = real(memo, r, n, c, bits)
            table.level = (bits is None, r, n, c)
            return table

        monkeypatch.setattr(cli.counting, "_Level", Table)
        monkeypatch.setattr(cli.counting, "level", tagged)
        monkeypatch.setattr(cli.identities, "level", tagged)
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
        # one count too high at k = c+n+1, the last node the check reads,
        # lifts the counts above their degree bound: a failing verdict, not
        # an exception
        real = cli.identities.pattern_counts

        def planted(key, memo=None):
            value, patterns = real(key, memo)
            return value + (key.ks == (key.c + key.n + 1,)), patterns

        monkeypatch.setattr(cli.identities, "pattern_counts", planted)
        code, out = run_cli(capsys, "verify", "--suite", "zeros")
        assert code == cli.EXIT_VERIFICATION_FAILED
        (verdict,) = json.loads(out)["verdicts"]
        assert not verdict["pass"] and verdict["counterexample"] == "(2, 0)"
        assert not cli.identities.verify_zeros(2, 0)

    def test_a_zero_triangle_count_fails_the_asm_suite(self, monkeypatch, capsys):
        real = cli.asm_mod.count_monotone_triangles

        def planted(n, k, memo=None):
            return 0 if (n, k) == (3, 2) else real(n, k, memo)

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
        ("ssyt", "ssyt_max_part=0"),  # no shape has exactly k >= 1 rows
        ("asm", "asm_max_n=1"),
        ("asm", "asm_max_n=0"),
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

    def test_no_suite_reads_the_seed(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["parameters"].pop("seed") == 7
        golden = json.loads((ROOT / "tests" / "data" / "verify_all_seed42.json").read_text())
        assert golden["parameters"].pop("seed") == 42
        assert report == golden

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
             "pass": False, "counterexample": "(3,)", "instances": 4},
            {"identity": "positive", "parameters": "x in 1..4", "pass": True, "instances": 4},
        ]

    @pytest.mark.parametrize("suite,sizes", [
        # (r, n) in DECOMP_RN, ks in [-2,4]^(n-r), every i: 49 + 2*343 + 49
        ("decomp", [784, 784]),
        # r in LEMMA2_RS, d in [-2,2], x, y in [-3,3]: 2 * 5 * 49
        ("lemma2", [490, 490]),
        # 2 <= n <= 4, c <= 4
        ("zeros", [15]),
        # one generic point per m <= 3, every i: 1 + 2 + 3
        ("fund", [6]),
        # the nodes c = 0..2m-1 per m <= 4: 2 + 4 + 6 + 8
        ("hyper", [20]),
        # the nodes c = 0..2m-1 per m <= 3: 2 + 4 + 6
        ("qvand", [12]),
        # the nodes y = -1..n per n <= 3: 2 + 3 + 4 + 5
        ("qpoch", [14]),
    ])
    def test_instances_are_the_sweep_sizes(self, suite, sizes, capsys):
        assert cli.main(["verify", "--suite", suite]) == cli.EXIT_OK
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert [v["instances"] for v in verdicts] == sizes

    def test_empty_generator_raises(self):
        report = cli.RunReport("t", {})
        with pytest.raises(cli.EmptySweep, match="no instances for none"):
            cli._check(report, "none", (x for x in ()), {"any": lambda x: True})
        assert report.verdicts == []

    def test_fund_counterexample_replays(self, monkeypatch):
        def fake(m, i, sample):
            return max(sample) < 8  # passes at m = 1 only

        monkeypatch.setattr(cli.identities, "verify_lemma_fund_all", fake)
        report = cli.RunReport("fund", {})
        cli._suite_fund(report, cli.SweepConfig())
        (verdict,) = report.verdicts
        assert not verdict["pass"]
        m, i, sample = ast.literal_eval(verdict["counterexample"])
        assert 1 <= i <= m and len(sample) == m + 1
        assert not fake(m, i, sample)
        monkeypatch.undo()  # the real check replays it, and it holds
        assert cli.identities.verify_lemma_fund_all(m, i, sample)

    def test_hyper_counterexample_replays(self, monkeypatch):
        # a slip in the right side from m = 3 on fails a later instance
        middle = cli.identities.hyper_middle_expression
        monkeypatch.setattr(cli.identities, "hyper_middle_expression",
                            lambda m, c: middle(m, c) + (m >= 3))
        report = cli.RunReport("hyper", {})
        cli._suite_hyper(report, cli.SweepConfig())
        (verdict,) = report.verdicts
        assert not verdict["pass"]
        m, c = ast.literal_eval(verdict["counterexample"])
        assert (m, c) == (3, 0) and c in cli.identities.vandermonde_nodes(m)
        assert not cli.identities.verify_hyper(m, c)
        monkeypatch.undo()
        assert cli.identities.verify_hyper(m, c)


def test_readme_cli_examples_exit_zero(capsys):
    # every command in README's CLI block runs as written
    block = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("gtkit ")]
    assert lines
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK, line
        capsys.readouterr()
