"""Tests for the q-mode of the table subcommand."""

import json

import pytest

import gtkit.cli as cli
from gtkit import closedforms
from gtkit.exact import NonExactDivision, QFraction


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_q_table_admissible_range(capsys):
    code, out = run_cli(
        capsys, "table", "--n", "2", "--c", "1", "--q", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "2,1,0,1 + q,1 + q,true"
    assert lines[2] == "2,1,1,q^2 + q^3,q^2 + q^3,true"


def test_q_table_outside_admissible_range(capsys):
    # at the predicted zeros both sides vanish; beyond them the signed counts
    # still satisfy the cross-multiplied identity
    code, out = run_cli(
        capsys, "table", "--n", "2", "--c", "1", "--q",
        "--kmin", "-1", "--kmax", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines[0].startswith("2,1,-1,0,0,")
    assert all(line.endswith(",true") for line in lines)


def test_q_table_json(capsys):
    code, out = run_cli(capsys, "table", "--n", "3", "--c", "2", "--q")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["q"] is True
    assert all(v["pass"] for v in report["verdicts"])


@pytest.fixture
def row_211_not_polynomial(monkeypatch):
    # no row of the usual tables leaves a remainder, so one is made to
    real = closedforms.theorem_main_q

    def raising(n, c, k):
        if (n, c, k) == (2, 1, 1):
            raise NonExactDivision("planted remainder")
        return real(n, c, k)

    monkeypatch.setattr(cli.closedforms, "theorem_main_q", raising)


def test_q_table_reports_the_fraction_without_a_quotient(capsys, row_211_not_polynomial):
    code, out = run_cli(capsys, "table", "--n", "2", "--c", "1", "--q", "--format", "csv")
    assert code == cli.EXIT_OK
    frac = closedforms.theorem_main_q_fraction(2, 1, 1)
    assert out.strip().splitlines()[2] == f"2,1,1,q^2 + q^3,({frac.num}) / ({frac.den}),true"


def test_q_table_fails_a_wrong_fraction(capsys, monkeypatch, row_211_not_polynomial):
    real = closedforms.theorem_main_q_fraction

    def wrong(n, c, k):
        frac = real(n, c, k)
        return QFraction(frac.num.shift(1), frac.den)

    monkeypatch.setattr(cli.closedforms, "theorem_main_q_fraction", wrong)
    code, out = run_cli(capsys, "table", "--n", "2", "--c", "1", "--q", "--format", "csv")
    assert code == cli.EXIT_ENGINE_MISMATCH == 3
    assert out.strip().splitlines()[1:] == [
        "2,1,0,1 + q,1 + q,true", f"2,1,1,q^2 + q^3,{wrong(2, 1, 1)},false"]
