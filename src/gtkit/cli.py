"""Command-line driver.

Subcommands: ``count`` evaluates a single signed count by either or both
engines, ``table`` tabulates the one-variable counts against the closed form,
and ``verify`` runs the identity-verification suites.  All output is exact
(rationals as p/q, Laurent polynomials as sorted coefficient*q^exponent sums)
and deterministic: identical flags and seed give byte-identical reports.

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
import random
import sys
from dataclasses import asdict, dataclass, field, fields, replace

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


@dataclass
class RunReport:
    """Machine-readable outcome of one CLI invocation."""

    command: str
    parameters: dict
    results: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    def add_result(self, label: str, value, provenance: str) -> None:
        self.results.append(
            {"label": label, "provenance": provenance, "value": fmt_value(value)}
        )

    def add_verdict(self, identity: str, parameters: str, passed: bool,
                    counterexample: str | None = None) -> None:
        verdict = {"identity": identity, "parameters": parameters, "pass": passed}
        if counterexample is not None:
            verdict["counterexample"] = counterexample
        self.verdicts.append(verdict)

    @property
    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Sweep configuration for the verify suites
# ---------------------------------------------------------------------------


#: The r of the double-sum sweep and the (r, n) of the swap-operator sweep.
LEMMA2_RS = (2, 3)
DECOMP_RN = ((1, 3), (1, 4), (2, 4))


@dataclass(frozen=True)
class SweepConfig:
    """Default sweep bounds; --seed sets the seed and --override any other
    field."""

    seed: int = 42
    fund_functions: int = 200
    fund_sample_bound: int = 3
    lemma2_d: int = 2
    lemma2_xy: int = 3
    decomp_c: int = 2
    decomp_klo: int = -2
    decomp_khi: int = 4
    hyper_max_m: int = 4
    hyper_max_c: int = 6
    qvand_max_m: int = 3
    qvand_max_c: int = 5
    qpoch_max_n: int = 3
    qpoch_ylo: int = -3
    qpoch_yhi: int = 5
    zeros_max_n: int = 4
    zeros_max_c: int = 4
    extra_max_n: int = 4
    extra_max_c: int = 4
    extra_q_max_c: int = 3
    ssyt_max_part: int = 4
    ssyt_max_rows: int = 4
    ssyt_max_k: int = 4
    tableaux_max_k: int = 3
    tableaux_lo: int = -2
    tableaux_hi: int = 3
    asm_count_max_n: int = 4
    asm_ratio_max_n: int = 5


#: (lo, hi) field pairs that bound one range of a sweep.
_RANGE_FIELDS = (("decomp_klo", "decomp_khi"), ("qpoch_ylo", "qpoch_yhi"),
                 ("tableaux_lo", "tableaux_hi"))


def _is_size(name: str) -> bool:
    # sizes, bounds and counts of a sweep; the *_lo fields may be negative
    return ("_max_" in name or name.endswith("_bound")
            or name in ("fund_functions", "lemma2_d", "lemma2_xy"))


def _apply_overrides(cfg: SweepConfig, overrides: list[str]) -> SweepConfig:
    """Apply FIELD=VALUE overrides; ValueError on a bad field or value."""
    valid = {f.name for f in fields(SweepConfig)} - {"seed"}
    updates = {}
    for item in overrides:
        name, _, raw = item.partition("=")
        if name == "seed":
            raise ValueError(f"override {item!r}: set the seed with --seed, "
                             "so that the report records it")
        if name not in valid or not raw:
            raise ValueError(f"unknown override {item!r}; fields: {sorted(valid)}")
        updates[name] = int(raw)
        if updates[name] < 0 and _is_size(name):
            raise ValueError(f"override {item!r} is negative: a size, bound or "
                             "count below 0 leaves no instances to check")
    cfg = replace(cfg, **updates)
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
    verdict per identity, in the order of ``checks``.  The first instance an
    identity fails on is its counterexample; later ones skip that check.
    EmptySweep if there is no instance."""
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
                           counterexample=failures.get(identity))


def _suite_fund(report: RunReport, cfg: SweepConfig) -> None:
    rng = random.Random(cfg.seed)
    b = cfg.fund_sample_bound
    g = None  # the current instance's function

    def instances():
        # the seed names the function and fixes its values, so
        # random_int_functions(1, m, seed) replays a counterexample
        nonlocal g
        for idx in range(cfg.fund_functions):
            m = idx % 3 + 1
            seed = rng.randrange(2**32)
            g = next(identities.random_int_functions(1, m, seed))
            sample = tuple(rng.randint(-b, b) for _ in range(m + 1))
            for i in range(1, m + 1):
                yield m, i, seed, sample

    params = f"{cfg.fund_functions} random functions, m <= 3, samples in [{-b},{b}]"
    _check(report, params, instances(), {
        "operator commutation (plain)":
            lambda m, i, seed, sample: identities.verify_lemma_fund(m, i, g, sample),
        "operator commutation (q)":
            lambda m, i, seed, sample: identities.verify_lemma_fund_q(m, i, g, sample),
    })


def _suite_lemma2(report: RunReport, cfg: SweepConfig) -> None:
    d, xy = cfg.lemma2_d, cfg.lemma2_xy
    grid = (
        (r, dd, x, y)
        for r in LEMMA2_RS
        for dd in range(-d, d + 1)
        for x in range(-xy, xy + 1)
        for y in range(-xy, xy + 1)
    )
    params = f"r in {LEMMA2_RS}, d in [{-d},{d}], x,y in [{-xy},{xy}]"
    # one summand table per check
    _check(report, params, grid, {
        "double-sum evaluation (plain)": functools.partial(identities.verify_lemma_2, memo={}),
        "double-sum evaluation (q)": functools.partial(identities.verify_lemma_2q, memo={}),
    })


def _suite_decomp(report: RunReport, cfg: SweepConfig) -> None:
    lo, hi, c = cfg.decomp_klo, cfg.decomp_khi, cfg.decomp_c
    instances = [
        (r, n, c, i, ks)
        for r, n in DECOMP_RN
        for ks in itertools.product(range(lo, hi + 1), repeat=n - r)
        for i in range(1, n - r)
    ]
    params = (
        f"(r,n) in {DECOMP_RN}, c={c}, ks in [{lo},{hi}]^(n-r), all i"
    )
    # plain, then q: alternating the recursions per instance ran 4-10% slower
    _check(report, params, instances, {"swap-operator factorization (plain)":
           functools.partial(identities.verify_decomp, memo={})})
    _check(report, params, instances, {"swap-operator factorization (q)":
           functools.partial(identities.verify_decomp_q, memo={})})


def _suite_hyper(report: RunReport, cfg: SweepConfig) -> None:
    grid = (
        (m, c)
        for m in range(1, cfg.hyper_max_m + 1)
        for c in range(cfg.hyper_max_c + 1)
    )
    params = f"m <= {cfg.hyper_max_m}, c <= {cfg.hyper_max_c}"
    _check(report, params, grid,
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
    grid = (
        (m, c)
        for m in range(1, cfg.qvand_max_m + 1)
        for c in range(cfg.qvand_max_c + 1)
    )
    params = f"m <= {cfg.qvand_max_m}, c <= {cfg.qvand_max_c}"
    _check(report, params, grid, {"q-Vandermonde sum": identities.verify_qvand})


def _suite_qpoch(report: RunReport, cfg: SweepConfig) -> None:
    grid = (
        (n, y)
        for n in range(cfg.qpoch_max_n + 1)
        for y in range(cfg.qpoch_ylo, cfg.qpoch_yhi + 1)
    )
    params = (
        f"n <= {cfg.qpoch_max_n}, y in [{cfg.qpoch_ylo},{cfg.qpoch_yhi}]"
    )
    _check(report, params, grid,
           {"q-Pochhammer telescoping sum": identities.verify_qpoch_sum})


def _suite_zeros(report: RunReport, cfg: SweepConfig) -> None:
    grid = (
        (n, c)
        for n in range(2, cfg.zeros_max_n + 1)
        for c in range(cfg.zeros_max_c + 1)
    )
    params = f"2 <= n <= {cfg.zeros_max_n}, c <= {cfg.zeros_max_c}"
    _check(report, params, grid,
           {"zero structure and degree bound": identities.verify_zeros})


def _suite_extra(report: RunReport, cfg: SweepConfig) -> None:
    grid = (
        (n, c)
        for n in range(2, cfg.extra_max_n + 1)
        for c in range(cfg.extra_max_c + 1)
    )
    params = f"2 <= n <= {cfg.extra_max_n}, c <= {cfg.extra_max_c}"
    _check(report, params, grid,
           {"boundary recursion (plain)": functools.partial(identities.verify_extra, memo={})})
    grid_q = (
        (n, c)
        for n in range(2, cfg.extra_max_n + 1)
        for c in range(cfg.extra_q_max_c + 1)
    )
    params_q = f"2 <= n <= {cfg.extra_max_n}, c <= {cfg.extra_q_max_c}"
    _check(report, params_q, grid_q,
           {"boundary recursion (q)": functools.partial(identities.verify_extra_q, memo={})})


def _partitions_in_box(max_rows: int, max_part: int):
    out = []
    for rows in range(max_rows + 1):
        for parts in itertools.combinations_with_replacement(
            range(max_part, 0, -1), rows
        ):
            out.append(parts)
    return sorted(set(out))


def _suite_ssyt(report: RunReport, cfg: SweepConfig) -> None:
    shapes = _partitions_in_box(cfg.ssyt_max_rows, cfg.ssyt_max_part)
    instances = (
        (shape, k)
        for shape in shapes
        for k in range(1, cfg.ssyt_max_k + 1)
        if len(shape) <= k
    )
    params = (
        f"shapes with <= {cfg.ssyt_max_rows} parts <= {cfg.ssyt_max_part}, "
        f"k <= {cfg.ssyt_max_k}"
    )

    memo = {}  # tableau counts

    def product_matches(shape, k):
        return closedforms.ssyt_product(shape, k) == tableaux.ssyt_count(shape, k, memo)

    def shifted_matches(shape, k):
        padded = shape + (0,) * (k - len(shape))
        lam = tuple(padded[t] - t - 1 for t in range(k))
        return tableaux.f_ext(lam, memo) == tableaux.ssyt_count(shape, k, memo)

    _check(report, params, instances, {
        "tableau count product formula": product_matches,
        "tableau count via alternating extension": shifted_matches,
    })


def _suite_tableaux(report: RunReport, cfg: SweepConfig) -> None:
    lo, hi = cfg.tableaux_lo, cfg.tableaux_hi
    span = range(lo, hi + 1)
    vectors = [
        (v,)
        for k in range(1, cfg.tableaux_max_k + 1)
        for v in itertools.product(span, repeat=k)
    ]
    params = f"vectors in [{lo},{hi}]^k, k <= {cfg.tableaux_max_k}"
    memo = {}  # tableau counts
    rec_memo = {}  # recursion values

    def f_ext(lam):
        return tableaux.f_ext(lam, memo)

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
            inv = sum(
                1
                for a in range(3)
                for b in range(a + 1, 3)
                if perm[a] > perm[b]
            )
            sign = -1 if inv & 1 else 1
            if f_ext(tuple(lam[p] for p in perm)) != sign * base:
                return False
        return True

    _check(report, f"vectors in [{lo},{hi}]^3, all permutations",
           ((v,) for v in itertools.product(span, repeat=3)),
           {"alternating in the arguments": antisymmetric})

    decreasing = (
        (v,)
        for v in itertools.product(span, repeat=3)
        if v[0] >= v[1] >= v[2]
    )
    _check(report, f"weakly decreasing vectors in [{lo},{hi}]^3", decreasing,
           {"sign-reversing involution sum":
            lambda lam: tableaux.verify_sign_involution(lam, memo)})

    _check(report, params, vectors,
           {"difference-product formula":
            lambda lam: tableaux.verify_part_formula(lam, memo)})


def _suite_asm(report: RunReport, cfg: SweepConfig) -> None:
    instances = (
        (n, k)
        for n in range(1, cfg.asm_count_max_n + 1)
        for k in range(1, n + 1)
    )
    params = f"n <= {cfg.asm_count_max_n}, 1 <= k <= n"
    memo = {}  # triangle counts, shared by all three checks

    def count_matches(n, k):
        return asm_mod.triangle_count(n, k, memo) == closedforms.refined_asm(n, k)

    _check(report, params, instances, {"refined count formula": count_matches})

    def total_matches(n):
        total = sum(asm_mod.triangle_count(n, k, memo) for k in range(1, n + 1))
        return total == closedforms.asm_product(n)

    _check(report, f"n <= {cfg.asm_count_max_n}",
           ((n,) for n in range(1, cfg.asm_count_max_n + 1)),
           {"total counts": total_matches})

    ratio_ns = range(2, cfg.asm_ratio_max_n + 1)
    if not ratio_ns:
        raise EmptySweep("pattern-to-triangle ratio independence: no instances "
                         f"for 2 <= n <= {cfg.asm_ratio_max_n}")
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
    report = RunReport(
        "count",
        {
            "r": args.r,
            "n": args.n,
            "c": args.c,
            "ks": list(ks),
            "engine": args.engine,
            "q": args.q,
        },
    )
    label = (
        f"F_q({args.r},{args.n},{args.c};{','.join(map(str, ks))})"
        if args.q
        else f"F({args.r},{args.n},{args.c};{','.join(map(str, ks))})"
    )
    values = {}
    if args.engine in ("brute", "both"):
        values["bruteforce"] = (
            counting.fq_bruteforce(key) if args.q else counting.f_bruteforce(key)
        )
    if args.engine in ("rec", "both"):
        values["recursion"] = (
            counting.fq_recursive(key) if args.q else counting.f_recursive(key)
        )
    for provenance in sorted(values):
        report.add_result(label, values[provenance], provenance)
    mismatch = False
    if args.engine == "both":
        agree = values["bruteforce"] == values["recursion"]
        report.add_verdict("engine agreement", label, agree)
        mismatch = not agree
    if args.dump_patterns:
        for idx, p in enumerate(counting.enumerate_patterns(key)):
            report.add_result(
                f"pattern {idx}",
                json.dumps(p.to_json_obj(), sort_keys=True),
                "enumeration",
            )
    print(report.to_json())
    return EXIT_ENGINE_MISMATCH if mismatch else EXIT_OK


def _table_row_q(n: int, c: int, k: int):
    # the closed form is the plain generating function, carrying q^k relative
    # to the normalized engine count; outside 0 <= k <= c the quotient may
    # not reduce, in which case the fraction form is reported instead
    brute = counting.fq_bruteforce(TopRowKey(n - 1, n, c, (k,))).shift(k)
    frac = closedforms.theorem_main_q_fraction(n, c, k)
    try:
        formula = str(closedforms.theorem_main_q(n, c, k))
    except NonExactDivision:
        formula = str(frac)
    return brute, formula, frac == brute


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
            for k in range(kmin, kmax + 1):
                if args.q:
                    brute, formula, match = _table_row_q(n, c, k)
                    rows.append((n, c, k, brute, formula, match))
                else:
                    brute = counting.f_bruteforce(TopRowKey(n - 1, n, c, (k,)))
                    formula = closedforms.theorem_special(n, c, k)
                    rows.append((n, c, k, brute, formula, brute == formula))
    if not rows:
        print(f"error: no table rows for n={args.n}, c={args.c}, "
              f"kmin={args.kmin}, kmax={args.kmax}", file=sys.stderr)
        return EXIT_USAGE
    mismatch = any(not row[5] for row in rows)
    if args.format == "csv":
        lines = ["n,c,k,brute,formula,match"]
        for n, c, k, brute, formula, match in rows:
            lines.append(
                f"{n},{c},{k},{fmt_value(brute)},{fmt_value(formula)},"
                f"{fmt_value(match)}"
            )
        print("\n".join(lines))
    else:
        report = RunReport(
            "table",
            {"n": args.n, "c": args.c, "kmin": args.kmin,
             "kmax": args.kmax, "format": args.format, "q": args.q},
        )
        for n, c, k, brute, formula, match in rows:
            label = f"F({n - 1},{n},{c};{k})"
            report.add_result(label, brute, "bruteforce")
            report.add_result(label, formula, "closed form")
            report.add_verdict("brute equals closed form",
                               f"n={n} c={c} k={k}", match)
        print(report.to_json())
    return EXIT_ENGINE_MISMATCH if mismatch else EXIT_OK


def cmd_verify(args) -> int:
    cfg = SweepConfig(seed=args.seed)
    try:
        cfg = _apply_overrides(cfg, args.override or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    report = RunReport(
        "verify",
        {"suite": args.suite, "seed": args.seed,
         "overrides": sorted(args.override or [])},
    )
    for name in names:
        sub = RunReport(name, {})
        try:
            SUITES[name](sub, cfg)
        except EmptySweep as exc:
            print(f"error: suite {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for entry in sub.results:
            report.results.append(dict(entry, suite=name))
        for verdict in sub.verdicts:
            report.verdicts.append(dict(verdict, suite=name))
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

    p_table = sub.add_parser(
        "table", help="tabulate counts against the closed form"
    )
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
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument(
        "--override", action="append", metavar="FIELD=VALUE",
        help="override a sweep bound (repeatable)",
    )
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
