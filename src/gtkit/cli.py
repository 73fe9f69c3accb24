"""Command-line driver.

Subcommands: ``count`` evaluates a single signed count by either or both
engines, ``table`` tabulates the one-variable counts against the closed form,
and ``verify`` runs the identity-verification suites.  All output is exact
(rationals as p/q, Laurent polynomials as sorted coefficient*q^exponent sums)
and deterministic: identical flags give byte-identical reports.

Exit codes: 0 success, 1 stdout closed before the report was written (as by
``| head``), 2 usage error (including a sweep or table with no instances),
3 engine mismatch, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections import namedtuple

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
                    counterexample: str | None = None, **sizes) -> None:
        verdict = {"identity": identity, "parameters": parameters, "pass": passed, **sizes}
        if counterexample is not None:
            verdict["counterexample"] = counterexample
        self.verdicts.append(verdict)

    @property
    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Sweep configuration for the verify suites
# ---------------------------------------------------------------------------


#: The r of the double-sum sweep and the (r, n) of the swap-operator sweep.
LEMMA2_RS = (2, 3)
DECOMP_RN = ((1, 3), (1, 4), (2, 4))


class SweepConfig(namedtuple("SweepConfig", (
        "lemma2_d lemma2_xy "
        "decomp_c decomp_klo decomp_khi "
        "hyper_max_m "
        "qvand_max_m "
        "qpoch_max_n "
        "zeros_max_n zeros_max_c "
        "extra_max_n extra_max_c "
        "ssyt_max_part ssyt_max_k "
        "tableaux_max_k tableaux_lo tableaux_hi "
        "asm_max_n"), defaults=(
        2, 3,
        2, -2, 4,
        4,
        3,
        3,
        4, 4,
        4, 4,
        4, 4,
        3, -2, 3,
        5))):
    """Default sweep bounds, one line per suite, the defaults in the order of
    the fields; --override sets any of them."""

    __slots__ = ()


#: (lo, hi) field pairs that bound one range of a sweep.
_RANGE_FIELDS = (("decomp_klo", "decomp_khi"), ("tableaux_lo", "tableaux_hi"))


def _is_size(name: str) -> bool:
    # sizes, bounds and counts of a sweep; the *_lo fields may be negative
    return "_max_" in name or name in ("lemma2_d", "lemma2_xy")


def _apply_overrides(overrides: list[str]) -> SweepConfig:
    """The default sweep with FIELD=VALUE overrides applied; ValueError on a
    bad field or value, or on a field given twice, which the report's sorted
    list could not order."""
    updates = {}
    for item in overrides:
        name, _, raw = item.partition("=")
        if name not in SweepConfig._fields:
            raise ValueError(f"unknown override {item!r}; fields: {sorted(SweepConfig._fields)}")
        if name in updates:
            raise ValueError(f"override {item!r}: {name} is given twice")
        try:
            updates[name] = int(raw)
        except ValueError:
            raise ValueError(f"override {item!r}: the value must be an integer") from None
        if updates[name] < 0 and _is_size(name):
            raise ValueError(f"override {item!r} is negative: a size, bound or "
                             "count below 0 leaves no instances to check")
    cfg = SweepConfig()._replace(**updates)
    for lo, hi in _RANGE_FIELDS:
        if getattr(cfg, lo) > getattr(cfg, hi):
            raise ValueError(f"overrides give {lo}={getattr(cfg, lo)} > "
                             f"{hi}={getattr(cfg, hi)}: a reversed range "
                             "leaves no instances to check")
    return cfg


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


class EmptySweep(ValueError):
    """A sweep's bounds leave it no instance to check."""


def _check(report: RunReport, parameters: str, instances, checks: dict) -> None:
    """Run every ``{identity: check}`` on each instance in one pass over
    ``instances`` (a list or a generator of argument tuples) and add one
    verdict per identity, in the order of ``checks``, with the number of
    instances the sweep held.  The first instance an identity fails on is its
    counterexample; later ones skip that check.  EmptySweep if there is no
    instance."""
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
                           counterexample=failures.get(identity), instances=count)


def _suite_fund(report: RunReport, cfg: SweepConfig) -> None:
    # the generic point decides the lemma at every integer point
    instances = [(m, i, identities.fund_generic_point(m))
                 for m in range(1, 4) for i in range(1, m + 1)]
    _check(report, "the point (0,4,...,4m), m <= 3, all i", instances,
           {"operator commutation, every function at every point (plain and q)":
            identities.verify_lemma_fund_all})


def _suite_lemma2(report: RunReport, cfg: SweepConfig) -> None:
    d, xy = cfg.lemma2_d, cfg.lemma2_xy
    grid = ((r, dd, x, y) for r in LEMMA2_RS for dd in range(-d, d + 1)
            for x in range(-xy, xy + 1) for y in range(-xy, xy + 1))
    params = f"r in {LEMMA2_RS}, d in [{-d},{d}], x,y in [{-xy},{xy}]"
    # one table of summands and right sides per check
    _check(report, params, grid, {
        "double-sum evaluation (plain)": functools.partial(identities.verify_lemma_2, memo={}),
        "double-sum evaluation (q)": functools.partial(identities.verify_lemma_2q, memo={}),
    })


def _suite_decomp(report: RunReport, cfg: SweepConfig) -> None:
    lo, hi, c = cfg.decomp_klo, cfg.decomp_khi, cfg.decomp_c
    instances = [(r, n, c, i, ks) for r, n in DECOMP_RN
                 for ks in itertools.product(range(lo, hi + 1), repeat=n - r)
                 for i in range(1, n - r)]
    params = f"(r,n) in {DECOMP_RN}, c={c}, ks in [{lo},{hi}]^(n-r), all i"
    # plain, then q: alternating the recursions per instance ran 4-10% slower
    _check(report, params, instances, {"swap-operator factorization (plain)":
           functools.partial(identities.verify_decomp, memo={})})
    _check(report, params, instances, {"swap-operator factorization (q)":
           functools.partial(identities.verify_decomp_q, memo={})})


def _suite_hyper(report: RunReport, cfg: SweepConfig) -> None:
    # the nodes decide the identity at every c >= 0
    grid = ((m, c) for m in range(1, cfg.hyper_max_m + 1)
            for c in identities.vandermonde_nodes(m))
    _check(report, f"m <= {cfg.hyper_max_m}, the nodes c = 0..2m-1", grid,
           {"hypergeometric sum (binomial form)": identities.verify_hyper})
    middle = identities.hyper_middle_expression(2, 2)
    final = identities.hyper_final_expression(2, 2)
    report.add_result(
        "displayed-final-expression discrepancy",
        f"at m=2 c=2 the displayed final expression gives {fmt_value(final)}, "
        f"the verified binomial form gives {fmt_value(middle)}",
        "hyper",
    )


def _suite_qvand(report: RunReport, cfg: SweepConfig) -> None:
    # the nodes decide the identity at every c >= 0
    grid = ((m, c) for m in range(1, cfg.qvand_max_m + 1)
            for c in identities.vandermonde_nodes(m))
    _check(report, f"m <= {cfg.qvand_max_m}, the nodes c = 0..2m-1", grid,
           {"q-Vandermonde sum": identities.verify_qvand})


def _suite_qpoch(report: RunReport, cfg: SweepConfig) -> None:
    # the nodes decide the identity at every integer y
    grid = ((n, y) for n in range(cfg.qpoch_max_n + 1) for y in identities.qpoch_nodes(n))
    _check(report, f"n <= {cfg.qpoch_max_n}, the nodes y = -1..n", grid,
           {"q-Pochhammer telescoping sum": identities.verify_qpoch_sum})


def _suite_zeros(report: RunReport, cfg: SweepConfig) -> None:
    grid = ((n, c) for n in range(2, cfg.zeros_max_n + 1) for c in range(cfg.zeros_max_c + 1))
    params = f"2 <= n <= {cfg.zeros_max_n}, c <= {cfg.zeros_max_c}"
    _check(report, params, grid,
           {"zero structure and degree bound": identities.verify_zeros})


def _suite_extra(report: RunReport, cfg: SweepConfig) -> None:
    grid = ((n, c) for n in range(2, cfg.extra_max_n + 1) for c in range(cfg.extra_max_c + 1))
    params = f"2 <= n <= {cfg.extra_max_n}, c <= {cfg.extra_max_c}"
    _check(report, params, grid, {
        "boundary recursion (plain)": functools.partial(identities.verify_extra, memo={}),
        "boundary recursion (q)": functools.partial(identities.verify_extra_q, memo={}),
    })


def _partitions_in_box(max_rows: int, max_part: int):
    parts = range(max_part, 0, -1)
    return sorted(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(parts, rows) for rows in range(max_rows + 1)))


def _suite_ssyt(report: RunReport, cfg: SweepConfig) -> None:
    # a shape with more than k rows has no tableau, so k bounds the rows too
    shapes = _partitions_in_box(cfg.ssyt_max_k, cfg.ssyt_max_part)
    instances = [(shape, k) for shape in shapes for k in range(1, cfg.ssyt_max_k + 1)
                 if len(shape) <= k]
    bounds = f"parts <= {cfg.ssyt_max_part}, k <= {cfg.ssyt_max_k}"

    memo = {}  # tableau counts

    def product_matches(shape, k):
        return closedforms.ssyt_product(shape, k) == tableaux.ssyt_count(shape, k, memo)

    def shifted_matches(shape, k):
        # f_ext counts the shape less its full columns: with fewer than k
        # rows that is the shape itself, and the check would read one count
        lam = tuple(shape[t] - t - 1 for t in range(k))
        return tableaux.f_ext(lam, memo) == tableaux.ssyt_count(shape, k, memo)

    _check(report, f"shapes with <= {cfg.ssyt_max_k} {bounds}", instances,
           {"tableau count product formula": product_matches})
    _check(report, f"shapes with exactly k {bounds}",
           [(shape, k) for shape, k in instances if len(shape) == k],
           {"tableau count via alternating extension": shifted_matches})


def _suite_tableaux(report: RunReport, cfg: SweepConfig) -> None:
    lo, hi = cfg.tableaux_lo, cfg.tableaux_hi
    span = range(lo, hi + 1)
    vectors = [(v,) for k in range(1, cfg.tableaux_max_k + 1)
               for v in itertools.product(span, repeat=k)]
    params = f"vectors in [{lo},{hi}]^k, k <= {cfg.tableaux_max_k}"
    memo = {}  # tableau counts and extension values
    rec_memo = {}  # recursion values
    f_ext = functools.partial(tableaux.f_ext, memo=memo)

    def engines_agree(lam):
        return f_ext(lam) == tableaux.f_ext_recursive(lam, rec_memo)

    _check(report, params, vectors,
           {"extension recursion agreement": engines_agree})

    def translation_invariant(lam, shift):
        return f_ext(lam) == f_ext(tuple(x + shift for x in lam))

    shifts = (-3, 2, 3)
    trans = ((v, s) for v in itertools.product(span, repeat=3) for s in shifts)
    _check(report, f"vectors in [{lo},{hi}]^3, shifts {shifts}", trans,
           {"translation invariance": translation_invariant})

    def antisymmetric(lam):
        base = f_ext(lam)
        for perm in itertools.permutations(range(3)):
            inv = sum(a > b for a, b in itertools.combinations(perm, 2))
            if f_ext(tuple(lam[p] for p in perm)) != (-1) ** inv * base:
                return False
        return True

    _check(report, f"vectors in [{lo},{hi}]^3, all permutations",
           ((v,) for v in itertools.product(span, repeat=3)),
           {"alternating in the arguments": antisymmetric})

    decreasing = ((v,) for v in itertools.product(span, repeat=3) if v[0] >= v[1] >= v[2])
    _check(report, f"weakly decreasing vectors in [{lo},{hi}]^3", decreasing,
           {"sign-reversing involution sum":
            lambda lam: tableaux.verify_sign_involution(lam, memo)})

    _check(report, params, vectors,
           {"difference-product formula":
            lambda lam: tableaux.verify_part_formula(lam, memo)})


def _suite_asm(report: RunReport, cfg: SweepConfig) -> None:
    max_n = cfg.asm_max_n
    instances = ((n, k) for n in range(1, max_n + 1) for k in range(1, n + 1))
    params = f"n <= {max_n}, 1 <= k <= n"
    memo = {}  # triangle counts and row tables, shared by all three checks

    def count_matches(n, k):
        return asm_mod.count_monotone_triangles(n, k, memo) == closedforms.refined_asm(n, k)

    _check(report, params, instances, {"refined count formula": count_matches})

    def total_matches(n):
        total = sum(asm_mod.count_monotone_triangles(n, k, memo) for k in range(1, n + 1))
        return total == closedforms.asm_product(n)

    _check(report, f"n <= {max_n}", ((n,) for n in range(1, max_n + 1)),
           {"total counts": total_matches})

    ratio_ns = range(2, max_n + 1)
    if not ratio_ns:
        raise EmptySweep("pattern-to-triangle ratio independence: no instances "
                         f"for 2 <= n <= {max_n}")
    for n in ratio_ns:
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
    try:
        cfg = _apply_overrides(args.override or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    report = RunReport("verify", {"suite": args.suite, "seed": args.seed,
                                  "overrides": sorted(args.override or [])})
    for name in names:
        results, verdicts = len(report.results), len(report.verdicts)
        try:
            SUITES[name](report, cfg)
        except EmptySweep as exc:
            print(f"error: suite {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
    p_verify.add_argument("--override", action="append", metavar="FIELD=VALUE",
                          help="override a sweep bound (repeatable)")
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
