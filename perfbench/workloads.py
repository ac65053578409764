"""Units of work, one timed pass, and the correctness gate.

A unit is what a user waits for: one renormalize-and-render, one CLI call,
or one oracle check.  Untraced, a unit makes the calls a user would make.
Traced, every public call it makes into the package gets a span, and
``renormalize`` is split into the three public calls it makes internally
(``expand_r1``, ``ev0_piplus_direct``, ``RenormalizedValue.from_exact``);
validation and the Gram matrix are timed by one extra call each.

``forestren`` is imported on first use, so that a run of the ``cli``
workload never imports it before its timed child processes do.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple, Optional

import inputs
from measure import SpeedSampler
from spans import Tracer

GOLDENS = Path(__file__).with_name("goldens.json")
QUAD_TOL = 1e-6
CLI_TIMEOUT_S = 120


def _fr():
    import forestren

    return forestren


class Pass(NamedTuple):
    """One pass over an input list.

    ``results`` holds (item, seconds, output) per input, seconds in
    reference seconds (see measure.py); ``factors`` maps each input id to
    the factor that converted its wall time.
    """

    wall: float  # reference seconds: the sum of the units' times
    raw_wall: float  # wall-clock seconds, speed sampling included
    results: list
    factors: dict


class Runner:
    """Runs units one at a time (closed loop) in this process or, for the
    CLI, in one child interpreter at a time."""

    def __init__(self, src: Path, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.tracer: Optional[Tracer] = None
        self.counts: Counter = Counter()
        self.missing_counters: set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def write_files(self, items: list) -> None:
        for item in items:
            for name, text in item.get("files", {}).items():
                self.workdir.mkdir(parents=True, exist_ok=True)
                (self.workdir / name).write_text(text, encoding="utf-8")

    def _span(self, name: str, iid: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name, iid)

    def timed_pass(self, items: list) -> Pass:
        """Run every input once, closed loop, while sampling the machine's
        speed.  A unit that raises yields ("error", message) as its output."""
        bounds, outs = [], []
        t0 = time.perf_counter()
        with SpeedSampler() as sampler:
            for item in items:
                start = time.perf_counter()
                try:
                    with self._span(f"unit.{item['kind']}", item["id"]):
                        out = self.run(item)
                except Exception as exc:  # a failing input is counted; the run goes on
                    out = ("error", f"{type(exc).__name__}: {exc}")
                bounds.append((start, time.perf_counter()))
                outs.append(out)
        raw_wall = time.perf_counter() - t0
        timed = [sampler.unit(s, e) for s, e in bounds]
        results = [(it, t * f, o) for it, (t, f), o in zip(items, timed, outs)]
        return Pass(sum(t for _, t, _ in results), raw_wall, results,
                    {it["id"]: f for it, (_, f) in zip(items, timed)})

    def run(self, item: dict):
        return getattr(self, "_" + item["kind"])(item, item["id"])

    # -- shared steps -----------------------------------------------------

    def _parse(self, text: str, iid: str):
        with self._span("forest.parse_forest", iid):
            return _fr().parse_forest(text)

    def _renormalize(self, forest, Q, iid: str):
        fr = _fr()
        if self.tracer is None:
            return fr.renormalize(forest, Q)
        with self._span("pairing.check_properly_decorated", iid):
            fr.check_properly_decorated(forest, Q)
        with self._span("pairing.gram", iid):
            fr.gram(forest, Q)
        frac, ctx = self._expand(forest, Q, iid)
        with self._span("projector.ev0_piplus_direct", iid):
            exact = fr.ev0_piplus_direct(frac, ctx)
        self._count(frac, ctx)
        with self._span("renorm.from_exact", iid):
            return fr.RenormalizedValue.from_exact(exact)

    def _expand(self, forest, Q, iid: str):
        with self._span("renorm.expand_r1", iid):
            return _fr().expand_r1(forest, Q)

    def _render(self, value, iid: str) -> tuple[str, str]:
        with self._span("renorm.render", iid):
            return str(value.exact), value.numeric_str()

    def _count(self, frac, ctx) -> None:
        """Work counters of one finished projection (traced runs only)."""
        if self.tracer is None:
            return
        n = len(frac.poles)
        terms = frac.numerator.terms
        self.counts["series.numerator_terms"] += len(terms)
        self.counts["series.useful_terms"] += sum(1 for e in terms if sum(e) == n)
        # Private caches: read while they exist, reported as null once renamed.
        for key, attr in (("projector.states", "_monomial_memo"),
                          ("pairing.gram_solves", "_coeff_cache")):
            cache = getattr(ctx, attr, None)
            if cache is None:
                self.missing_counters.add(key)
            else:
                self.counts[key] += len(cache)

    # -- units ------------------------------------------------------------

    def _renorm(self, item: dict, iid: str):
        forest, Q = self._parse(item["text"], iid)
        return self._render(self._renormalize(forest, Q, iid), iid)

    def _quad(self, item: dict, iid: str):
        fr = _fr()
        forest, _ = self._parse(item["text"], iid)
        point = fr.NumericAssignment(dict(enumerate(item["point"])))
        with self._span("oracle.quad_tree", iid):
            got = fr.quad_tree(forest, point, item["x"])
        with self._span("oracle.closed_form_value", iid):
            want = fr.closed_form_value(forest, point, item["x"])
        return got, want

    def _subset(self, item: dict, iid: str):
        forest, Q = self._parse(item["text"], iid)
        with self._span("oracle.renorm_subset_oracle", iid):
            ref = _fr().renorm_subset_oracle(forest, Q)
        return str(ref), str(self._renormalize(forest, Q, iid).exact)

    def _telescoping(self, item: dict, iid: str):
        fr = _fr()
        forest, Q = self._parse(item["text"], iid)
        frac, ctx = self._expand(forest, Q, iid)
        with self._span("projector.ev0_piplus", iid):
            ref = fr.ev0_piplus(frac, fr.ProjectionContext(ctx.gram))
        with self._span("projector.ev0_piplus_direct", iid):
            fast = fr.ev0_piplus_direct(frac, ctx)
        self._count(frac, ctx)
        return str(ref), str(fast)

    def _cli(self, item: dict, iid: str):
        with self._span("cli.call", iid):
            proc = subprocess.run(
                [sys.executable, "-m", "forestren.cli", *item["argv"]],
                cwd=self.workdir, env=self.env, capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def _replay(self, replay: dict, iid: str) -> None:
        """The layers one CLI call runs inside its child, called in-process
        so that a traced run can time them."""
        fr = _fr()
        item = replay["call"]
        cmd, names = item["argv"][0], item["argv"][1:]
        parsed = [self._parse(item["files"][name], iid) for name in names]
        if cmd == "renorm":
            for forest, Q in parsed:
                self._render(self._renormalize(forest, Q, iid), iid)
        elif cmd == "regularize":
            for forest, Q in parsed:
                with self._span("renorm.regularize", iid):
                    reg = fr.regularize(forest, Q)
                with self._span("renorm.render", iid):
                    str(reg.exponent), [str(f) for f in reg.factors]
        elif cmd == "germ":
            for forest, Q in parsed:
                frac, ctx = self._expand(forest, Q, iid)
                with self._span("projector.piplus_expand", iid):
                    germ = fr.piplus_expand(frac, ctx)
                self._count(frac, ctx)
                with self._span("renorm.render", iid):
                    str(germ)
        elif cmd == "check-similar":
            (f1, Q1), (f2, Q2) = parsed
            with self._span("renorm.is_similar", iid):
                similar = fr.is_similar(f1, Q1, f2, Q2)
            if similar:
                for forest, Q in parsed:
                    self._render(self._renormalize(forest, Q, iid), iid)


def interpreter_start(env: dict, code: str, repeats: int = 3) -> float:
    """Median wall time of ``python -c code`` in a fresh child."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def cli_key(item: dict) -> str:
    return json.dumps({"argv": item["argv"], "files": item["files"]},
                      sort_keys=True)


def _pi_power_ok(exact: str, degree: int) -> bool:
    """A tree value is 0 or a single rational multiple of pi^degree."""
    return exact == "0" or re.fullmatch(
        rf"-?(\d+\*)?pi\^{degree}(/\d+)?", exact) is not None


class Gate:
    """Decides whether one unit's output is correct.

    For every seed: odd degree gives 0, a forest's value is the product of
    its trees' values (computed here, outside any timed section), quadrature
    matches the closed form to ``QUAD_TOL``, each reference matches the fast
    path, and a CLI call exits 0 with nothing on stderr and the stdout of the
    same command run in-process.  Inputs that have a stored golden (all of
    them for the default seed) must also match it.
    """

    def __init__(self, goldens: dict, require_golden: bool, workdir: Path) -> None:
        self.values = goldens["values"]
        self.numeric = goldens["numeric"]
        self.cli = goldens["cli"]
        self.require_golden = require_golden
        self.workdir = workdir
        self._memo: dict = {}

    def check(self, item: dict, out) -> Optional[str]:
        if isinstance(out, tuple) and out and out[0] == "error":
            return out[1]
        return getattr(self, "_" + item["kind"])(item, out)

    def _golden(self, item: dict, exact: str) -> Optional[str]:
        want = self.values.get(item["text"])
        if want is None:
            return "no golden for an input of the default seed" if self.require_golden else None
        return None if exact == want else f"value {exact} differs from golden {want}"

    def _renorm(self, item: dict, out) -> Optional[str]:
        exact, numeric = out
        deg = item["degree"]
        if deg % 2 and exact != "0":
            return f"odd degree {deg} gave {exact}"
        parts = item.get("parts", [])
        if len(parts) == 1 and not _pi_power_ok(exact, deg):
            return f"tree value {exact} is not a multiple of pi^{deg}"
        if len(parts) > 1:
            product = self._product(parts)
            if exact != product:
                return f"forest value {exact} differs from the product {product}"
        want = self.numeric.get(item["text"])
        if want is not None and numeric != want:
            return f"numeric {numeric} differs from golden {want}"
        return self._golden(item, exact)

    def _product(self, parts: list) -> str:
        fr = _fr()
        total = fr.PiPoly.const(1)
        for shape, weights in parts:
            text = inputs.render([shape], weights)
            if text not in self._memo:
                self._memo[text] = fr.renormalize(*fr.parse_forest(text)).exact
            total = total * self._memo[text]
        return str(total)

    def _quad(self, item: dict, out) -> Optional[str]:
        got, want = out
        err = abs(got - want) / abs(want)
        return None if err <= QUAD_TOL else f"quadrature relative error {err:.3e}"

    def _subset(self, item: dict, out) -> Optional[str]:
        ref, fast = out
        if ref != fast:
            return f"reference {ref} differs from fast path {fast}"
        return self._golden(item, fast)

    _telescoping = _subset

    def _cli(self, item: dict, out) -> Optional[str]:
        rc, stdout, stderr = out
        if rc != 0 or stderr:
            return f"exit {rc}, stderr {stderr.strip()!r}"
        key = cli_key(item)
        want = self.cli.get(key)
        if want is None:
            if self.require_golden:
                return "no golden for an input of the default seed"
            want = self._memo.get(key)
            if want is None:
                want = self._memo[key] = self.inprocess_cli(item)
        return None if stdout == want else f"stdout {stdout!r} differs from {want!r}"

    def inprocess_cli(self, item: dict) -> str:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            from forestren import cli

            rc = cli.run(list(item["argv"]), out, err)
        finally:
            os.chdir(cwd)
        if rc != 0:
            raise RuntimeError(f"in-process CLI exited {rc}: {err.getvalue()}")
        return out.getvalue()
