"""Command-line driver.

Subcommands: ``count`` evaluates a single signed count by either or both
engines, ``table`` tabulates the one-variable counts against the closed form,
and ``verify`` runs the identity-verification suites.  All output is exact
(rationals as p/q, Laurent polynomials as sorted coefficient*q^exponent sums)
and deterministic: identical flags give byte-identical reports.

Exit codes: 0 success, 1 stdout closed before the report was written (as by
``| head``), 2 usage error (including a table with no rows), 3 engine
mismatch, 4 verification failure.  Every verify suite runs at the fixed
sizes of this module's constants.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import asm as asm_mod
from . import closedforms, counting, identities, tableaux
from .counting import TopRowKey
from .exact import NonExactDivision

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_ENGINE_MISMATCH = 3
EXIT_VERIFICATION_FAILED = 4


def fmt_value(value) -> str:
    """Render a value exactly: booleans as true/false, anything else by its
    ``str`` (integers plainly, rationals as p/q, Laurent polynomials as
    sorted term sums)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class RunReport:
    """Machine-readable outcome of one CLI invocation."""

    def __init__(self, command: str, parameters: dict):
        self.command, self.parameters = command, parameters
        self.results, self.verdicts = [], []

    def __repr__(self) -> str:
        return f"RunReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def add_result(self, label: str, value, provenance: str) -> None:
        self.results.append({"label": label, "provenance": provenance, "value": fmt_value(value)})

    def add_verdict(self, identity: str, parameters: str, passed: bool,
                    counterexample: str | None = None, **fields) -> None:
        verdict = {"identity": identity, "parameters": parameters, "pass": passed, **fields}
        if counterexample is not None:
            verdict["counterexample"] = counterexample
        self.verdicts.append(verdict)

    @property
    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Sweep sizes for the verify suites
# ---------------------------------------------------------------------------


#: The r of the double-sum sweep and the (r, n) of the swap-operator sweep.
LEMMA2_RS = (2, 3)
DECOMP_RN = ((1, 3), (1, 4), (2, 4))
#: The other suites' sizes, one line per suite.
HYPER_MAX_M = 4
QVAND_MAX_M = 3
QPOCH_MAX_N = 3
ZEROS_MAX_N = 4
ZEROS_MAX_C = 4
EXTRA_MAX_N = 4
SSYT_MAX_PART = 4
SSYT_MAX_K = 4
TABLEAUX_MAX_K = 3
ASM_MAX_N = 5


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


class EmptySweep(ValueError):
    """A sweep's bounds leave it no instance to check."""


def _check(report: RunReport, parameters: str, instances, checks: dict,
           decides: str = "the instances only") -> None:
    """Run every ``{identity: check}`` on each instance in one pass over
    ``instances`` (a list or a generator of argument tuples) and add one
    verdict per identity, in the order of ``checks``, with the number of
    instances the sweep held and what passing decides: a node function's
    claim, next to it in identities or tableaux, or the instances only.  The first
    instance an identity fails on is its counterexample; later ones skip that
    check.  EmptySweep if there is no instance."""
    failures = {}
    count = 0
    for count, inst in enumerate(instances, 1):
        for identity, check in checks.items():
            if identity not in failures and not check(*inst):
                failures[identity] = str(inst)
    if not count:
        raise EmptySweep(f"{', '.join(checks)}: no instances for {parameters}")
    for identity in checks:
        report.add_verdict(identity, parameters, identity not in failures,
                           counterexample=failures.get(identity), instances=count,
                           decides=decides)


def _suite_fund(report: RunReport) -> None:
    instances = [(m, i, identities.fund_generic_point(m))
                 for m in range(1, 4) for i in range(1, m + 1)]
    _check(report, "the point (0,4,...,4m), m <= 3, all i", instances,
           {"operator commutation, every function at every point (plain and q)":
            identities.verify_lemma_fund_all}, decides=identities.FUND_DECIDES.format(3))


def _suite_lemma2(report: RunReport) -> None:
    instances = [(r, *node) for r in LEMMA2_RS for node in identities.lemma2_nodes(r)]
    params = (f"r in {LEMMA2_RS}, the nodes y-x = 0..2r at (d,x) = (1,1), "
              "by the span argument of lemma2_nodes")
    # one table of summands and right sides per check
    _check(report, params, instances, {
        "double-sum evaluation (plain)": functools.partial(identities.verify_lemma_2, memo={}),
        "double-sum evaluation (q)": functools.partial(identities.verify_lemma_2q, memo={}),
    }, decides=identities.LEMMA2_DECIDES.format(LEMMA2_RS))


def _suite_decomp(report: RunReport) -> None:
    instances = [(r, n, v[0], i, v[1:]) for r, n in DECOMP_RN
                 for v in identities.simplex_nodes(1 + n - r, identities.degree_bound(r, n))
                 for i in range(1, n - r)]
    params = f"(r,n) in {DECOMP_RN}, (c,ks) on the simplex of degree D_r(n), all i"
    # plain, then q: alternating the recursions per instance ran 4-10% slower
    _check(report, f"{params}, by the degree lemma", instances,
           {"swap-operator factorization (plain)":
            functools.partial(identities.verify_decomp, memo={})},
           decides=identities.SIMPLEX_DECIDES.format(DECOMP_RN))
    _check(report, f"{params}, checked at the nodes", instances,
           {"swap-operator factorization (q)":
            functools.partial(identities.verify_decomp_q, memo={})})


def _suite_hyper(report: RunReport) -> None:
    grid = ((m, c) for m in range(1, HYPER_MAX_M + 1)
            for c in identities.vandermonde_nodes(m))
    _check(report, f"m <= {HYPER_MAX_M}, the nodes c = 0..2m-1", grid,
           {"hypergeometric sum (binomial form)": identities.verify_hyper},
           decides=identities.VANDERMONDE_DECIDES.format(HYPER_MAX_M))
    middle = identities.hyper_middle_expression(2, 2)
    final = identities.hyper_final_expression(2, 2)
    report.add_result(
        "displayed-final-expression discrepancy",
        f"at m=2 c=2 the displayed final expression gives {fmt_value(final)}, "
        f"the verified binomial form gives {fmt_value(middle)}",
        "hyper",
    )


def _suite_qvand(report: RunReport) -> None:
    grid = ((m, c) for m in range(1, QVAND_MAX_M + 1)
            for c in identities.vandermonde_nodes(m))
    _check(report, f"m <= {QVAND_MAX_M}, the nodes c = 0..2m-1", grid,
           {"q-Vandermonde sum": identities.verify_qvand},
           decides=identities.VANDERMONDE_DECIDES.format(QVAND_MAX_M))


def _suite_qpoch(report: RunReport) -> None:
    grid = ((n, y) for n in range(QPOCH_MAX_N + 1) for y in identities.qpoch_nodes(n))
    _check(report, f"n <= {QPOCH_MAX_N}, the nodes y = -1..n", grid,
           {"q-Pochhammer telescoping sum": identities.verify_qpoch_sum},
           decides=identities.QPOCH_DECIDES.format(QPOCH_MAX_N))


def _suite_zeros(report: RunReport) -> None:
    grid = ((n, c) for n in range(2, ZEROS_MAX_N + 1) for c in range(ZEROS_MAX_C + 1))
    params = f"2 <= n <= {ZEROS_MAX_N}, c <= {ZEROS_MAX_C}"
    _check(report, params, grid,
           {"zero structure and degree bound": identities.verify_zeros})


def _suite_extra(report: RunReport) -> None:
    grid = ((n, c) for n in range(2, EXTRA_MAX_N + 1) for c in identities.extra_nodes(n))
    params = f"2 <= n <= {EXTRA_MAX_N}, the nodes c = 0..(n-1)(n+2)/2, by the degree lemma"
    _check(report, params, grid, {
        "boundary recursion (plain)": functools.partial(identities.verify_extra, memo={}),
        "boundary recursion (q)": functools.partial(identities.verify_extra_q, memo={}),
    }, decides=identities.EXTRA_DECIDES.format(EXTRA_MAX_N))


def _partitions_in_box(max_rows: int, max_part: int):
    parts = range(max_part, 0, -1)
    return sorted(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(parts, rows) for rows in range(max_rows + 1)))


def _suite_ssyt(report: RunReport) -> None:
    # a shape with more than k rows has no tableau, so k bounds the rows too
    shapes = _partitions_in_box(SSYT_MAX_K, SSYT_MAX_PART)
    instances = [(shape, k) for shape in shapes for k in range(1, SSYT_MAX_K + 1)
                 if len(shape) <= k]
    bounds = f"parts <= {SSYT_MAX_PART}, k <= {SSYT_MAX_K}"
    memo = {}  # tableau counts and extension values
    _check(report, f"shapes with <= {SSYT_MAX_K} {bounds}", instances,
           {"tableau count product formula":
            functools.partial(tableaux.verify_ssyt_product, memo=memo)})
    _check(report, f"shapes with exactly k {bounds}",
           [(shape, k) for shape, k in instances if len(shape) == k],
           {"tableau count via alternating extension":
            functools.partial(tableaux.verify_ssyt_extension, memo=memo)})


def _suite_tableaux(report: RunReport) -> None:
    nodes = [node for k in range(1, TABLEAUX_MAX_K + 1) for node in tableaux.part_nodes(k)]
    three = tableaux.part_nodes(3)
    memo = {}  # tableau counts and extension values
    rec_memo = {}  # recursion values
    _check(report, f"every ordering of part_nodes(k), k <= {TABLEAUX_MAX_K}",
           [(lam,) for node in nodes for lam in itertools.permutations(node)],
           {"extension recursion agreement": functools.partial(
               tableaux.verify_recursion_agreement, memo=memo, rec_memo=rec_memo)})
    shifts = (-3, 2, 3)
    _check(report, f"every ordering of part_nodes(3), shifts {shifts}",
           [(lam, s) for node in three for lam in itertools.permutations(node) for s in shifts],
           {"translation invariance": functools.partial(tableaux.verify_translation, memo=memo)})
    _check(report, "part_nodes(3)", [(lam,) for lam in three], {
        "alternating in the arguments": functools.partial(tableaux.verify_alternating, memo=memo),
        "sign-reversing involution sum":
            functools.partial(tableaux.verify_sign_involution, memo=memo)})
    _check(report, f"part_nodes(k), k <= {TABLEAUX_MAX_K}, by induction on k",
           [(lam,) for lam in nodes],
           {"difference-product formula":
            functools.partial(tableaux.verify_part_formula, memo=rec_memo)},
           decides=tableaux.PART_DECIDES.format(TABLEAUX_MAX_K))


def _suite_asm(report: RunReport) -> None:
    instances = ((n, k) for n in range(1, ASM_MAX_N + 1) for k in range(1, n + 1))
    params = f"n <= {ASM_MAX_N}, 1 <= k <= n"
    memo = {}  # triangle counts and row tables, shared by all three checks

    def count_matches(n, k):
        return asm_mod.count_monotone_triangles(n, k, memo) == closedforms.refined_asm(n, k)

    _check(report, params, instances, {"refined count formula": count_matches})

    def total_matches(n):
        total = sum(asm_mod.count_monotone_triangles(n, k, memo) for k in range(1, n + 1))
        return total == closedforms.asm_product(n)

    _check(report, f"n <= {ASM_MAX_N}", ((n,) for n in range(1, ASM_MAX_N + 1)),
           {"total counts": total_matches})

    for n in range(2, ASM_MAX_N + 1):
        # one verdict per n, each on the ratio the result line reports
        ok, ratio = asm_mod.verify_ratio_independence(n, memo)
        _check(report, f"n={n}", [(n,)],
               {"pattern-to-triangle ratio independence": lambda n: ok})
        if ratio is not None:
            report.add_result(f"common ratio at n={n}", ratio, "ratio independence")


#: The verify suites by name: ``--suite all`` runs them in sorted order.
SUITES = {
    "fund": _suite_fund,
    "lemma2": _suite_lemma2,
    "decomp": _suite_decomp,
    "hyper": _suite_hyper,
    "qvand": _suite_qvand,
    "qpoch": _suite_qpoch,
    "zeros": _suite_zeros,
    "extra": _suite_extra,
    "ssyt": _suite_ssyt,
    "tableaux": _suite_tableaux,
    "asm": _suite_asm,
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_ks(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part) for part in raw.split(","))


def _parse_range(raw: str) -> range:
    if ":" in raw:
        lo, _, hi = raw.partition(":")
        return range(int(lo), int(hi) + 1)
    v = int(raw)
    return range(v, v + 1)


def cmd_count(args) -> int:
    try:
        ks = _parse_ks(args.ks)
        key = TopRowKey(args.r, args.n, args.c, ks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = RunReport("count", {"r": args.r, "n": args.n, "c": args.c, "ks": list(ks),
                                 "engine": args.engine, "q": args.q})
    label = f"F{'_q' if args.q else ''}({args.r},{args.n},{args.c};{','.join(map(str, ks))})"
    values = {}
    if args.engine in ("brute", "both"):
        values["bruteforce"] = (counting.fq_bruteforce if args.q else counting.f_bruteforce)(key)
    if args.engine in ("rec", "both"):
        values["recursion"] = (counting.fq_recursive if args.q else counting.f_recursive)(key)
    for provenance in sorted(values):
        report.add_result(label, values[provenance], provenance)
    mismatch = False
    if args.engine == "both":
        agree = values["bruteforce"] == values["recursion"]
        report.add_verdict("engine agreement", label, agree)
        mismatch = not agree
    if args.dump_patterns:
        for idx, p in enumerate(counting.enumerate_patterns(key)):
            report.add_result(f"pattern {idx}", json.dumps(p.to_json_obj(), sort_keys=True),
                              "enumeration")
    print(report.to_json())
    return EXIT_ENGINE_MISMATCH if mismatch else EXIT_OK


def _table_row(n: int, c: int, k: int, q: bool, memo: dict) -> tuple:
    # the q closed form is the plain generating function, carrying q^k
    # relative to the normalized engine count; a row whose quotient leaves a
    # remainder reports the fraction form, compared by cross-multiplication
    key = TopRowKey(n - 1, n, c, (k,))
    if q:
        brute = counting.fq_bruteforce(key, memo).shift(k)
        try:
            formula = closedforms.theorem_main_q(n, c, k)
        except NonExactDivision:
            formula = closedforms.theorem_main_q_fraction(n, c, k)
    else:
        brute, formula = counting.f_bruteforce(key, memo), closedforms.theorem_special(n, c, k)
    return n, c, k, brute, formula, formula == brute


def cmd_table(args) -> int:
    try:
        n_range = _parse_range(args.n)
        c_range = _parse_range(args.c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in n_range:
        for c in c_range:
            if n < 1 or c < 0:
                print(f"error: need n >= 1 and c >= 0, got n={n}, c={c}",
                      file=sys.stderr)
                return EXIT_USAGE
            kmin = args.kmin if args.kmin is not None else 0
            kmax = args.kmax if args.kmax is not None else c
            memo = {}  # row tables, shared by the k of this (n, c)
            rows += [_table_row(n, c, k, args.q, memo) for k in range(kmin, kmax + 1)]
    if not rows:
        print(f"error: no table rows for n={args.n}, c={args.c}, "
              f"kmin={args.kmin}, kmax={args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    mismatch = any(not row[5] for row in rows)
    if args.format == "csv":
        lines = ["n,c,k,brute,formula,match"]
        for n, c, k, brute, formula, match in rows:
            lines.append(f"{n},{c},{k},{fmt_value(brute)},{fmt_value(formula)},{fmt_value(match)}")
        print("\n".join(lines))
    else:
        report = RunReport("table", {"n": args.n, "c": args.c, "kmin": args.kmin,
                                     "kmax": args.kmax, "format": args.format, "q": args.q})
        for n, c, k, brute, formula, match in rows:
            label = f"{f'q^{k}*F_q' if args.q else 'F'}({n - 1},{n},{c};{k})"
            report.add_result(label, brute, "bruteforce")
            report.add_result(label, formula, "closed form")
            report.add_verdict("brute equals closed form",
                               f"n={n} c={c} k={k}", match)
        print(report.to_json())
    return EXIT_ENGINE_MISMATCH if mismatch else EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    report = RunReport("verify", {"suite": args.suite, "seed": args.seed})
    for name in names:
        results, verdicts = len(report.results), len(report.verdicts)
        SUITES[name](report)
        for entry in report.results[results:] + report.verdicts[verdicts:]:
            entry["suite"] = name
    print(report.to_json())
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtkit",
        description="Exact enumeration and verification of generalized "
        "Gelfand-Tsetlin pattern counts and their q-analogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="evaluate one signed count")
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--c", type=int, required=True)
    p_count.add_argument("--ks", default="",
                         help="comma-separated top-row entries (may be empty); "
                         "write --ks=-1,2 when the list starts with a minus")
    p_count.add_argument("--engine", choices=("brute", "rec", "both"),
                         default="both")
    p_count.add_argument("--q", action="store_true",
                         help="evaluate the q-weighted count")
    p_count.add_argument("--dump-patterns", action="store_true",
                         help="include every enumerated pattern as JSON")
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("table", help="tabulate counts against the closed form")
    p_table.add_argument("--n", required=True, help="value or range lo:hi")
    p_table.add_argument("--c", required=True, help="value or range lo:hi")
    p_table.add_argument("--kmin", type=int, default=None)
    p_table.add_argument("--kmax", type=int, default=None)
    p_table.add_argument("--q", action="store_true",
                         help="tabulate the norm generating functions instead")
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    p_verify.add_argument("--seed", type=int, default=42,
                          help="recorded in the report; no suite reads it")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early; the flush at exit would raise again, so
        # point stdout at devnull and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
