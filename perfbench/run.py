#!/usr/bin/env python3
"""Layered benchmark for gtkit.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

One run is one fresh, single-threaded process that drives gtkit's public API
as a closed loop with one caller: each call starts when the previous one has
returned.  A run repeats *passes* over its workload's items until --seconds
is spent (at least three passes).  The seed only permutes the item order (and,
for verify-all, is passed on as --seed), so every seed does the same work.

Every result is checked outside the timed region: the first time an item is
seen its output is checked against an independent route (brute force against
recursion, closed form against recursion, quotient times divisor against the
numerator, a clean verify report); later passes must reproduce the checked
output exactly.  A failed or raising check counts against ``failed`` and the
run exits with status 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are the
end-to-end ones (wall_norm_s, setup_s, peak_rss_mb).  With --trace 1 every item
runs both untraced and traced, back to back, and the run reports the
per-layer metrics; the traced calls wrap a span around every call the
benchmark makes into a gtkit module.  The line before it is a ``detail``
object with the environment, sample counts and the reference points; the
same detail, plus the spans of a traced run, is written to perfbench/out/.

Times are reported at the host's *nominal speed*.  A shared host changes
speed by 20-50% over seconds to minutes, for all code alike.  So a fixed
pure-Python reference loop that calls no gtkit code is timed between the
items of every pass, and every time measured in that pass is scaled by
REF_LOOP_S / (the loop's median time in that pass): the time gtkit would
take on a host where the loop takes REF_LOOP_S.  The times as measured are
in the detail line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3
SETUP_REPEATS = 15

#: The verify suites, in the order of ``gtkit verify --suite all``, grouped
#: by the module that does their work.
SUITE_LAYERS = {
    "identities": ("fund", "lemma2", "decomp", "hyper", "qvand", "qpoch",
                   "zeros", "extra"),
    "tableaux": ("ssyt", "tableaux"),
    "asm": ("asm",),
}
SUITES = tuple(s for group in SUITE_LAYERS.values() for s in group)

#: Per-layer metrics reported by a traced run, with their units.
LAYER_UNITS = {
    "patterns.enumerated": "count",
    "patterns.per_s": "1/s",
    "counting.bruteforce_s": "s",
    "counting.f_recursive_s": "s",
    "counting.fq_recursive_s": "s",
    "counting.us_per_state": "us",
    "counting.memo_states": "count",
    "counting.memo_hit_ratio": "ratio",
    "closedforms.fraction_s": "s",
    "exact.div_s": "s",
    "closedforms.bender_knuth_gf_s": "s",
    "exact.div_ops": "count",
    "exact.poly_terms_max": "count",
    **{f"cli.suite.{name}_s": "s" for name in SUITES},
    **{f"{layer}.s": "s" for layer in SUITE_LAYERS},
    "cli.verdicts": "count",
    "trace.overhead_s": "s",
}

#: Span name -> per-layer metric holding that span's self time.
SPAN_METRICS = {
    "counting.bruteforce_count": "counting.bruteforce_s",
    "counting.f_recursive": "counting.f_recursive_s",
    "counting.fq_recursive": "counting.fq_recursive_s",
    "closedforms.theorem_main_q_fraction": "closedforms.fraction_s",
    "exact.qfrac_exact_div": "exact.div_s",
    "closedforms.bender_knuth_gf": "closedforms.bender_knuth_gf_s",
    **{f"cli.suite.{name}": f"cli.suite.{name}_s" for name in SUITES},
}

#: ROADMAP reference points: the brute-force share of the oracle sweep, and
#: the seconds one theorem_main_q(12,6,2) call takes.
REF_BRUTE_SHARE = 0.89
REF_TMQ_12_6_2 = (1.35, 1.5)


#: What the reference loop takes at the host's nominal speed: ``wall_norm_s``
#: is a pass's wall time on a host where reference_loop() takes this long.
REF_LOOP_S = 0.002
#: Seconds of work between two runs of the reference loop within a pass.
PROBE_EVERY_S = 0.1


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes now.  It does the
    operations gtkit's hot paths are made of (dict updates, Fraction sums,
    big-int products) but calls no gtkit code, so a change to gtkit leaves
    it alone while a slower host slows it as much as gtkit."""
    start = time.perf_counter()
    acc = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0) + i * 3
    frac = Fraction(0)
    for i in range(1, 150):
        frac += Fraction(1, i)
    big = 3 ** 20000
    for _ in range(5):
        big = big * 7 % 10 ** 9000
    return time.perf_counter() - start


class BenchError(RuntimeError):
    """The benchmark cannot run here: gtkit's sources are missing."""


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, item]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, first: int) -> dict[str, float]:
        """Summed self time (duration minus child spans) per span name, over
        the spans recorded since index ``first``."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(float)
        for idx in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            totals[name] += (end - start) - children[idx]
        return totals


class NoTracer:
    """Tracing off: every span is the same no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str, item: str | None = None):
        return self._null


NO_TRACER = NoTracer()


class CountingMemo(dict):
    """Recursion memo that counts lookups and hits (traced runs only)."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = dict.get(self, key, default)
        if value is not None:
            self.hits += 1
        return value


class PassState:
    """What one pass shares between its items: the memos it handed out."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.memos: list[dict] = []

    def new_memo(self) -> dict:
        memo = CountingMemo() if self.traced else {}
        self.memos.append(memo)
        return memo


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _key_label(key) -> str:
    return f"{key.r},{key.n},{key.c};{','.join(map(str, key.ks))}"


def _terms(poly) -> int:
    return len(poly.terms())


class Workload:
    """One set of inputs.  ``items`` builds (label, item) pairs in a fixed
    order; ``call`` makes one item's calls into gtkit inside the timed region;
    ``check`` verifies an output outside it; ``counts`` and ``probe`` give the
    exact per-layer counts of a traced run."""

    name = ""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def items(self, g, seed: int) -> list:
        raise NotImplementedError

    def start_pass(self, state: PassState) -> None:
        """Create what the items of one pass share."""

    def call(self, g, item, state: PassState, tracer):
        raise NotImplementedError

    def check(self, g, item, output, plant: bool) -> bool:
        raise NotImplementedError

    def counts(self, g, outputs) -> dict:
        """Exact counts over one traced pass's (item, output) pairs."""
        return {}

    def probe(self, g, items) -> dict:
        """Exact counts that need extra work, made once after the passes."""
        return {}


class OracleSweep(Workload):
    """The criterion-1 cross-engine sweep cut to c <= 2: every key with
    r <= 3, n <= 5, 0 <= n-r <= 2 and ks in [-2, c+2]^(n-r), counted by brute
    force and by both recursions, one memo per engine shared across a pass."""

    name = "oracle-sweep"

    def items(self, g, seed: int) -> list:
        max_c, max_n = (1, 4) if self.smoke else (2, 5)
        keys = []
        for c in range(max_c + 1):
            for n in range(1, max_n + 1):
                for r in range(max(0, n - 2), min(n, 3) + 1):
                    for ks in itertools.product(range(-2, c + 3), repeat=n - r):
                        keys.append(g.counting.TopRowKey(r, n, c, ks))
        return [(_key_label(k), k) for k in keys]

    def start_pass(self, state: PassState) -> None:
        state.plain_memo = state.new_memo()
        state.q_memo = state.new_memo()

    def call(self, g, key, state: PassState, tracer):
        counting = g.counting
        with tracer.span("counting.bruteforce_count"):
            brute = counting.bruteforce_count(key)
        with tracer.span("counting.f_recursive"):
            plain = counting.f_recursive(key, state.plain_memo)
        with tracer.span("counting.fq_recursive"):
            qpoly = counting.fq_recursive(key, state.q_memo)
        return brute, plain, qpoly

    def check(self, g, key, output, plant: bool) -> bool:
        brute, plain, qpoly = output
        expected = plain + 1 if plant else plain
        return (brute.plain == expected and brute.q_weighted == qpoly
                and brute.consistent() and qpoly.at_one() == plain)

    def counts(self, g, outputs) -> dict:
        return {"exact.poly_terms_max": max(_terms(o[2]) for _, o in outputs)}

    def probe(self, g, items) -> dict:
        """Patterns brute force visits for the sweep's keys."""
        total = 0
        for _, key in items:
            total += sum(1 for _ in g.counting.enumerate_patterns(key))
        return {"patterns.enumerated": total}


class DeepRecursion(Workload):
    """f_recursive and fq_recursive on mid-sized keys (200 to 800 states),
    each call alone with a fresh memo: no enumeration, a cold and deep memo.
    One item is one engine on one key."""

    name = "deep-recursion"

    def items(self, g, seed: int) -> list:
        raw = ([(4, 5, 3, (1,)), (3, 5, 2, (0, 2))] if self.smoke else
               [(6, 7, 5, (2,)), (7, 8, 4, (1,)), (6, 8, 4, (1, 3)),
                (6, 9, 4, (0, 2, 4)), (6, 7, 4, (1,)), (5, 8, 4, (0, 2, 4))])
        keys = [g.counting.TopRowKey(*k) for k in raw]
        return [(f"{engine} {_key_label(k)}", (engine, k))
                for k in keys for engine in ("f", "fq")]

    def call(self, g, item, state: PassState, tracer):
        engine, key = item
        if engine == "f":
            with tracer.span("counting.f_recursive"):
                return g.counting.f_recursive(key, state.new_memo())
        with tracer.span("counting.fq_recursive"):
            return g.counting.fq_recursive(key, state.new_memo())

    def check(self, g, item, output, plant: bool) -> bool:
        """The other engine agrees at q = 1, and F(n-1,n,c;k) is the closed
        form theorem_special."""
        engine, key = item
        if engine == "f":
            plain, other = output, g.counting.fq_recursive(key, {}).at_one()
        else:
            plain, other = output.at_one(), g.counting.f_recursive(key, {})
        expected = other + 1 if plant else other
        if plain != expected:
            return False
        if key.r == key.n - 1:
            return plain == g.closedforms.theorem_special(key.n, key.c, key.ks[0])
        return True

    def counts(self, g, outputs) -> dict:
        return {"exact.poly_terms_max": max(_terms(out) for (engine, _), out in outputs
                                            if engine == "fq")}


class ClosedFormQ(Workload):
    """q-closed forms: theorem_main_q(n,6,k) for n = 7..9 and
    bender_knuth_gf(n,6) for n = 6..8.  A traced run also times the ROADMAP
    reference point theorem_main_q(12,6,2) once, outside the passes."""

    name = "closed-form-q"
    reference = ("theorem_main_q", 12, 6, 2)

    def items(self, g, seed: int) -> list:
        raw = ([("theorem_main_q", 5, 3, 1), ("bender_knuth_gf", 4, 3)] if self.smoke
               else [("theorem_main_q", 7, 6, 3), ("theorem_main_q", 8, 6, 2),
                     ("theorem_main_q", 8, 6, 4), ("theorem_main_q", 9, 6, 3),
                     ("bender_knuth_gf", 6, 6), ("bender_knuth_gf", 7, 6),
                     ("bender_knuth_gf", 8, 6)])
        return [(f"{r[0]}({','.join(map(str, r[1:]))})", r) for r in raw]

    def call(self, g, item, state: PassState, tracer):
        form, *args = item
        if form == "bender_knuth_gf":
            with tracer.span("closedforms.bender_knuth_gf"):
                return g.closedforms.bender_knuth_gf(*args), None
        if not state.traced:
            return g.closedforms.theorem_main_q(*args), None
        # the traced run splits theorem_main_q into its two public halves
        with tracer.span("closedforms.theorem_main_q_fraction"):
            frac = g.closedforms.theorem_main_q_fraction(*args)
        with tracer.span("exact.qfrac_exact_div"):
            return g.exact.qfrac_exact_div(frac), frac

    @staticmethod
    def _fraction(g, item, frac):
        """The quotient the closed form reduces, rebuilt from public parts."""
        form, *args = item
        if frac is not None:
            return frac
        if form == "theorem_main_q":
            return g.closedforms.theorem_main_q_fraction(*args)
        n, c = args
        num = den = g.exact.LaurentPolyQ.constant(1)
        for i in range(1, n + 1):
            num = num * g.exact.q_poch(c + i, i)
            den = den * g.exact.q_poch(i, i)
        return g.exact.QFraction(num, den)

    def check(self, g, item, output, plant: bool) -> bool:
        result, frac = output
        form, *args = item
        frac = self._fraction(g, item, frac)
        if form == "bender_knuth_gf":
            expected = g.closedforms.bender_knuth_count(*args)
        else:
            expected = g.closedforms.theorem_special(*args)
        if plant:
            expected += 1
        return frac.num == result * frac.den and result.at_one() == expected

    def counts(self, g, outputs) -> dict:
        div_ops = 0
        for item, (result, frac) in outputs:
            div_ops += _terms(result) * _terms(self._fraction(g, item, frac).den)
        return {"exact.div_ops": div_ops,
                "exact.poly_terms_max": max(_terms(o[0]) for _, o in outputs)}


class VerifyAll(Workload):
    """``gtkit verify --suite S --seed N`` in-process for every suite of
    ``--suite all``, N the run's seed.  One item is one suite, run as cold
    as a fresh process; a pass covers what ``--suite all`` does."""

    name = "verify-all"
    smoke_suites = ("qpoch", "hyper")

    def items(self, g, seed: int) -> list:
        suites = self.smoke_suites if self.smoke else SUITES
        return [(f"{suite} seed {seed}", (suite, seed)) for suite in suites]

    @staticmethod
    def _run(g, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = g.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        return rc, buf.getvalue()

    def call(self, g, item, state: PassState, tracer):
        suite, seed = item
        # every verify call starts as cold as a fresh `gtkit verify` process
        g.counting.clear_memos()
        getattr(g.tableaux, "_FEXT_MEMO", {}).clear()
        with tracer.span(f"cli.suite.{suite}"):
            return self._run(g, ["verify", "--suite", suite, "--seed", str(seed)])

    def check(self, g, item, output, plant: bool) -> bool:
        rc, text = output
        expected_rc = g.cli.EXIT_OK + 1 if plant else g.cli.EXIT_OK
        verdicts = json.loads(text)["verdicts"] if rc == expected_rc else []
        return bool(verdicts) and all(v["pass"] for v in verdicts)

    def counts(self, g, outputs) -> dict:
        return {"cli.verdicts": sum(len(json.loads(text)["verdicts"])
                                    for _, (_, text) in outputs)}


WORKLOADS = {w.name: w for w in (OracleSweep, DeepRecursion, ClosedFormQ, VerifyAll)}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_gtkit():
    """Import gtkit from this checkout's src/, dropping any earlier import so
    each set-up pays the module import again."""
    if not (SRC / "gtkit" / "__init__.py").is_file():
        raise BenchError(f"gtkit sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gtkit" or m.startswith("gtkit.")]:
        del sys.modules[name]
    gtkit = importlib.import_module("gtkit")
    if Path(gtkit.__file__).resolve().parent != (SRC / "gtkit").resolve():
        raise BenchError(f"imported gtkit from {gtkit.__file__}, not from {SRC}")
    names = ("counting", "closedforms", "exact", "tableaux", "cli")
    return argparse.Namespace(
        **{n: importlib.import_module(f"gtkit.{n}") for n in names})


def setup(workload, seed: int):
    """Import plus input generation; returns (seconds, modules, items)."""
    start = time.perf_counter()
    g = import_gtkit()
    items = workload.items(g, seed)
    random.Random(seed).shuffle(items)
    return time.perf_counter() - start, g, items


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Run:
    """One run of one workload: its passes, checks and measurements."""

    def __init__(self, workload, g, items, plant: bool = False):
        self.workload = workload
        self.g = g
        self.items = items
        self.plant = plant
        self.verified: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls = {False: [], True: []}
        self.item_seconds = {False: defaultdict(list), True: defaultdict(list)}
        self.layer_passes: list[dict] = []
        self.counts: dict = {}
        self.counts_repeat = True
        self.tracer = Tracer()
        self.probe_seconds: list[float] = []  # per pass: the reference loop's median

    def run_pass(self, lanes: tuple[bool, ...]) -> None:
        """One pass over the items in each lane (False: untraced, True:
        traced).  With both lanes every item runs in both, back to back and
        in alternating order, so the two see the same machine state and the
        same share of warm caches; their difference is the tracing overhead.
        Each lane has its own memos."""
        wl, g = self.workload, self.g
        gc.collect()  # start every pass with the same collector state
        states = {traced: PassState(traced) for traced in lanes}
        for state in states.values():
            wl.start_pass(state)
        tracers = {False: NO_TRACER, True: self.tracer}
        first_span = len(self.tracer.spans)
        outputs = {traced: [] for traced in lanes}
        clock = time.perf_counter
        probes = [reference_loop()]
        last_probe = clock()
        for idx, (label, item) in enumerate(self.items):
            if clock() - last_probe >= PROBE_EVERY_S:  # untimed: between items
                probes.append(reference_loop())
                last_probe = clock()
            for traced in (lanes if idx % 2 == 0 else lanes[::-1]):
                tracer = tracers[traced]
                start = clock()
                try:
                    with tracer.span("item", label):
                        out = wl.call(g, item, states[traced], tracer)
                except Exception as exc:  # a raising call is a failed item
                    out = exc
                    self.failures.append(f"{label}: {exc!r}")
                outputs[traced].append((label, item, out, clock() - start))
        # -- untimed from here on: checks and counts
        probes.append(reference_loop())
        self.probe_seconds.append(statistics.median(probes))
        for traced in lanes:
            self.walls[traced].append(sum(o[3] for o in outputs[traced]))
            for label, item, out, seconds in outputs[traced]:
                self.item_seconds[traced][label].append(seconds)
                self.attempted += 1
                if not self._check(label, item, out, traced):
                    self.failed += 1
                    self.failures.append(f"{label} ({'traced' if traced else 'untraced'})")
        if True in lanes and self.failed == 0:
            self._record_layers(states[True], outputs[True], first_span)

    def nominal_scale(self, pass_index: int) -> float:
        """Factor that takes a time measured in that pass to the host's
        nominal speed, where reference_loop() takes REF_LOOP_S."""
        return REF_LOOP_S / self.probe_seconds[pass_index]

    def pass_seconds(self, traced: bool, nominal: bool = True) -> float:
        """Pass time, estimated item by item: the sum over items of the
        median of each item's times across the passes, each time first
        scaled to nominal speed by its pass's reference loop (unless
        ``nominal`` is false).  The host's speed drifts by 20-50% over
        seconds to minutes; the reference loop drifts with it, so the
        scaled time moves only when gtkit's own cost does."""
        total = 0.0
        for times in self.item_seconds[traced].values():
            total += statistics.median(
                t * (self.nominal_scale(j) if nominal else 1.0)
                for j, t in enumerate(times))
        return total

    def _check(self, label, item, out, traced) -> bool:
        if isinstance(out, Exception):
            return False
        key = (label, traced)
        if key in self.verified:  # a later pass must reproduce the checked output
            return out == self.verified[key]
        plant, self.plant = self.plant, False  # plant into the first check only
        try:
            ok = self.workload.check(self.g, item, out, plant)
        except Exception as exc:  # a raising check is a failed check
            self.failures.append(f"{label}: check raised {exc!r}")
            ok = False
        if ok:
            self.verified[key] = out
        return ok

    def _record_layers(self, state, outputs, first_span) -> None:
        scale = self.nominal_scale(len(self.probe_seconds) - 1)
        self.layer_passes.append({span: seconds * scale for span, seconds
                                  in self.tracer.self_times(first_span).items()})
        counts = {}
        if state.memos:
            counts["counting.memo_states"] = sum(len(m) for m in state.memos)
            counts["counting.memo_lookups"] = sum(m.lookups for m in state.memos)
            counts["counting.memo_hits"] = sum(m.hits for m in state.memos)
        counts.update(self.workload.counts(self.g, [(o[1], o[2]) for o in outputs]))
        if self.counts and counts != self.counts:
            self.counts_repeat = False
        self.counts = counts


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Passes until another one would overrun ``seconds``: at least
    MIN_PASSES untraced ones, or at least one traced and untraced pair."""
    lanes, min_passes = ((False, True), 1) if trace else ((False,), MIN_PASSES)
    deadline = time.perf_counter() + seconds
    while True:
        run.run_pass(lanes)
        walls = run.walls[False]
        per_pass = sum(statistics.median(run.walls[t]) for t in lanes)
        if len(walls) >= min_passes and time.perf_counter() + per_pass > deadline:
            return


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(run: Run, setup_seconds: list[tuple[float, float]]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_norm_s": {"value": run.pass_seconds(False), "unit": "s"},
        "setup_s": {"value": statistics.median(s for s, _ in setup_seconds), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def layer_metrics(run: Run, probe: dict) -> dict:
    values = {name: 0 for name in LAYER_UNITS}
    for span, metric in SPAN_METRICS.items():
        values[metric] = statistics.median(p.get(span, 0.0) for p in run.layer_passes)
    for layer, suites in SUITE_LAYERS.items():
        values[f"{layer}.s"] = sum(values[f"cli.suite.{s}_s"] for s in suites)
    counts = dict(run.counts, **probe)
    for name in LAYER_UNITS:
        if name in counts:
            values[name] = counts[name]
    brute = values["counting.bruteforce_s"]
    if brute and values["patterns.enumerated"]:
        values["patterns.per_s"] = values["patterns.enumerated"] / brute
    rec = values["counting.f_recursive_s"] + values["counting.fq_recursive_s"]
    if values["counting.memo_states"]:
        values["counting.us_per_state"] = rec / values["counting.memo_states"] * 1e6
    if counts.get("counting.memo_lookups"):
        values["counting.memo_hit_ratio"] = (
            counts["counting.memo_hits"] / counts["counting.memo_lookups"])
    values["trace.overhead_s"] = run.pass_seconds(True) - run.pass_seconds(False)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def reference_points(run: Run, trace: bool) -> dict:
    """Whether the ROADMAP item-1 reference points reproduce within noise
    (+-25% on the time, +-0.05 on the share)."""
    ref = {}
    wl = run.workload
    if trace and isinstance(wl, ClosedFormQ) and not wl.smoke and run.failed == 0:
        # once, after the passes: too long an item to time steadily in them
        form, *args = wl.reference
        before = reference_loop()
        start = time.perf_counter()
        getattr(run.g.closedforms, form)(*args)
        measured = time.perf_counter() - start
        nominal = measured * REF_LOOP_S / ((before + reference_loop()) / 2)
        lo, hi = REF_TMQ_12_6_2
        ref["theorem_main_q(12,6,2)_s"] = {
            "measured": measured, "nominal": nominal, "roadmap": [lo, hi],
            "reproduces": 0.75 * lo <= measured <= 1.25 * hi,
            "reproduces_at_nominal_speed": 0.75 * lo <= nominal <= 1.25 * hi}
    if trace and isinstance(run.workload, OracleSweep) and run.layer_passes:
        def self_s(span):
            return statistics.median(p[span] for p in run.layer_passes)

        brute = self_s("counting.bruteforce_count")
        total = brute + self_s("counting.f_recursive") + self_s("counting.fq_recursive")
        ref["oracle_sweep_brute_share"] = {
            "measured": brute / total, "roadmap": REF_BRUTE_SHARE,
            "reproduces": abs(brute / total - REF_BRUTE_SHARE) <= 0.05}
    return ref


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def bench(workload_name: str, seed: int, seconds: float, trace: bool,
          plant: bool = False, smoke: bool = False) -> tuple[dict, dict]:
    """One run; returns (result line, detail)."""
    os.environ.pop("GTKIT_THREADS", None)
    workload = WORKLOADS[workload_name](smoke)
    env_start = environment()
    setup_seconds = []  # (at nominal speed, as timed)
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        spent, g, items = setup(workload, seed)
        probe = (before + reference_loop()) / 2
        setup_seconds.append((spent * REF_LOOP_S / probe, spent))
    run = Run(workload, g, items, plant=plant)
    measure(run, seconds, trace)
    probe = workload.probe(g, items) if trace and run.failed == 0 else {}
    metrics = (layer_metrics(run, probe) if trace and run.failed == 0
               else end_to_end_metrics(run, setup_seconds))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    detail = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "planted_failure": plant,
        "environment": dict(env_start, loadavg_end=list(os.getloadavg())),
        "items_per_pass": len(items),
        "untraced_pass_s": run.walls[False],
        "untraced_pass_estimate_s": {"nominal": run.pass_seconds(False),
                                     "as_timed": run.pass_seconds(False, nominal=False)},
        "reference_loop_s": run.probe_seconds,
        "traced_pass_s": run.walls[True],
        "setup_s": {"nominal": [s for s, _ in setup_seconds],
                    "as_timed": [s for _, s in setup_seconds]},
        "failed_frac": {"failed": run.failed, "attempted": run.attempted,
                        "value": run.failed / run.attempted},
        "failures": run.failures[:20],
        "counts": dict(run.counts, **probe),
        "counts_repeat_across_passes": run.counts_repeat,
        "reference": reference_points(run, trace),
    }
    if trace:
        detail["spans"] = run.tracer.spans
    return result, detail


def write_out(result: dict, detail: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    name = f"{detail['workload']}-seed{detail['seed']}-trace{int(detail['trace'])}.json"
    path = OUT / name
    path.write_text(json.dumps({"result": result, "detail": detail}) + "\n")
    return path


def self_test() -> int:
    """Smoke size of every workload, traced and untraced, must pass and
    report exactly the metrics BENCHMARK.json lists; the same run with one
    wrong expected value planted must count exactly one failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {kind: {m["name"]: m["unit"] for m in spec[kind]}
              for kind in ("end_to_end", "per_layer")}
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = bench(name, seed=1, seconds=0, trace=trace, smoke=True)
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            clean = (result["correct"] and result["failed"] == 0
                     and reported == listed["per_layer" if trace else "end_to_end"])
            planted, _ = bench(name, seed=1, seconds=0, trace=trace, smoke=True,
                               plant=True)
            caught = not planted["correct"] and planted["failed"] == 1
            print(f"self-test {name} trace={int(trace)}: "
                  f"clean={'ok' if clean else 'FAIL'} "
                  f"planted={'caught' if caught else 'MISSED'}")
            ok = ok and clean and caught
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-failure", action="store_true",
                        help="feed one check a wrong expected value")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result, detail = bench(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.plant_failure)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = {k: v for k, v in detail.items() if k != "spans"}
    try:
        summary["written_to"] = str(write_out(result, detail).relative_to(ROOT))
    except OSError as exc:  # a read-only checkout still gets its result line
        print(f"warning: could not write the detail: {exc}", file=sys.stderr)
    print(json.dumps({"detail": summary}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
