"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from measure import reach, tail  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

DIGEST = ("import hashlib, json, sys; sys.path.insert(0, {here!r}); import inputs; "
          "print(hashlib.sha256(json.dumps([inputs.generate(w, 7) for w in "
          "inputs.WORKLOADS], default=str).encode()).hexdigest())")


def digest(seed):
    blob = json.dumps([inputs.generate(w, seed) for w in inputs.WORKLOADS],
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestInputs:
    def test_same_seed_gives_identical_bytes(self):
        assert digest(7) == digest(7)

    def test_identical_across_processes_and_hash_seeds(self):
        code = DIGEST.format(here=str(HERE))
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == digest(7)

    def test_other_seed_gives_other_inputs(self):
        assert digest(7) != digest(8)

    def test_trees_are_even_and_pairwise_dissimilar(self):
        items = inputs.generate("trees", 3)
        assert all(it["degree"] % 2 == 0 for it in items)
        assert inputs.similar_share([p for it in items for p in it["parts"]]) == 0

    def test_forest_mix(self):
        items = inputs.generate("forests", 3)
        kinds = [it["family"] for it in items]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "even": 7, "odd-tree": 7, "odd-total": 9}
        for it in items:
            sizes = [inputs.size(s) for s, _ in it["parts"]]
            assert 2 <= len(sizes) <= 5 and 8 <= it["degree"] <= 11
            assert (it["family"] == "odd-total") == (it["degree"] % 2 == 1)
            assert (it["family"] == "odd-tree") == (
                it["degree"] % 2 == 0 and any(k % 2 for k in sizes))
        share = inputs.similar_share([p for it in items for p in it["parts"]])
        assert 0.5 < share < 1

    def test_similarity_key_ignores_scale_only(self):
        shape = ((), ((),))
        assert inputs.similarity_key(shape, [1, 2, 3, 4]) == \
            inputs.similarity_key(shape, [2, 4, 6, 8])
        assert inputs.similarity_key(shape, [1, 2, 3, 4]) != \
            inputs.similarity_key(shape, [1, 2, 3, 5])

    def test_shape_catalog_sizes(self):
        # Rooted unlabeled trees: OEIS A000081.
        assert [len(inputs.tree_shapes(n)) for n in range(1, 9)] == \
            [1, 1, 2, 4, 9, 20, 48, 115]


class TestReach:
    # t(d) = 0.01 * 10^((d - 6) / 2): 0.01 s, 0.1 s and 1 s at d = 6, 8, 10.
    DEGS = [6, 8, 10]
    SECS = [0.01, 0.1, 1.0]

    def test_interpolates_log_linearly(self):
        assert reach(self.DEGS, self.SECS, 0.05) == pytest.approx(6 + 2 * math.log10(5))
        assert reach(self.DEGS, self.SECS, 1.0) == pytest.approx(10)

    def test_extrapolates_past_the_last_degree(self):
        assert reach(self.DEGS, self.SECS, 10) == pytest.approx(12)

    def test_extrapolates_below_the_first_degree(self):
        assert reach(self.DEGS, self.SECS, 0.001) == pytest.approx(4)

    def test_takes_the_last_crossing(self):
        # Noise at small degrees: 6 is already above 0.5 s, 8 below.
        assert reach([6, 8, 10], [0.6, 0.4, 4.0], 1.0) == pytest.approx(
            8 + 2 * math.log(2.5) / math.log(10))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            reach([6], [1.0], 1.0)


class TestTail:
    def test_ten_samples_beyond(self):
        value, pct, beyond = tail(list(range(1, 50)))
        assert (value, pct, beyond) == (39, 79, 10)

    def test_too_few_samples_gives_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


class TestSpans:
    def test_self_time_subtracts_covered_children(self):
        spans = [
            Span("root", 0.0, 10.0, None, "a"),
            Span("x", 1.0, 4.0, 0, "a"),
            Span("y", 3.0, 6.0, 0, "a"),  # overlaps x: the union is 5 s
            Span("z", 2.0, 3.0, 1, "a"),  # grandchild, counts against x only
            Span("x", 7.0, 8.0, 0, "a"),
        ]
        selfs = self_times(spans)
        assert selfs["root"] == pytest.approx(10 - 5 - 1)
        assert selfs["x"] == pytest.approx((3 - 1) + 1)
        assert selfs["y"] == pytest.approx(3)
        assert selfs["z"] == pytest.approx(1)

    def test_tracer_records_parents(self):
        tr = Tracer()
        with tr.span("outer", "i"):
            with tr.span("inner", "i"):
                pass
        outer, inner = tr.spans
        assert outer.parent is None and inner.parent == 0
        assert outer.start <= inner.start <= inner.end <= outer.end


class TestGate:
    GOLDENS = {"seed": 0, "values": {"(1 (1))": "pi^2/4"},
               "numeric": {"(1 (1))": "2.4674011002723397"}, "cli": {}}

    def gate(self, tmp_path, require=False):
        return workloads.Gate(self.GOLDENS, require, tmp_path)

    def renorm(self, text, trees, weights):
        parts, k = [], 0
        for t in trees:
            parts.append((t, weights[k:k + inputs.size(t)]))
            k += inputs.size(t)
        return {"kind": "renorm", "text": text, "degree": len(weights),
                "parts": parts}

    def test_accepts_the_golden(self, tmp_path):
        item = self.renorm("(1 (1))", [((),)], [1, 1])
        assert self.gate(tmp_path).check(item, ("pi^2/4", "2.4674011002723397")) is None

    def test_flags_a_wrong_value(self, tmp_path):
        item = self.renorm("(1 (1))", [((),)], [1, 1])
        assert self.gate(tmp_path).check(item, ("pi^2/3", "2.4674011002723397"))
        assert self.gate(tmp_path).check(item, ("pi^2/4", "2.4674011002723398"))

    def test_flags_an_error(self, tmp_path):
        item = self.renorm("(1 (1))", [((),)], [1, 1])
        assert self.gate(tmp_path).check(item, ("error", "RecursionError"))

    def test_flags_nonzero_odd_degree(self, tmp_path):
        item = self.renorm("(1 (1)) (1)", [((),), ()], [1, 1, 1])
        assert self.gate(tmp_path).check(item, ("pi^2/4", "2.46")) is not None
        assert self.gate(tmp_path).check(item, ("0", "0.0")) is None

    def test_flags_a_forest_that_is_not_the_product(self, tmp_path):
        item = self.renorm("(1 (1)) (2 (3))", [((),), ((),)], [1, 1, 2, 3])
        good = self.gate(tmp_path)._product(item["parts"])
        assert self.gate(tmp_path).check(item, (good, "x")) is None
        assert self.gate(tmp_path).check(item, ("pi^4/16", "x")) is not None

    def test_missing_golden_fails_only_for_the_default_seed(self, tmp_path):
        item = self.renorm("(2 (1))", [((),)], [2, 1])
        out = ("5*pi^2/18", "1.37")
        assert self.gate(tmp_path).check(item, out) is None
        assert self.gate(tmp_path, require=True).check(item, out) is not None

    def test_quadrature_tolerance(self, tmp_path):
        item = {"kind": "quad"}
        assert self.gate(tmp_path).check(item, (1.0 + 1e-9, 1.0)) is None
        assert self.gate(tmp_path).check(item, (1.0 + 1e-5, 1.0)) is not None

    def test_reference_mismatch(self, tmp_path):
        item = {"kind": "subset", "text": "(2 (1))"}
        assert self.gate(tmp_path).check(item, ("pi^2/4", "pi^2/3")) is not None

    def test_cli_bytes(self, tmp_path):
        (tmp_path / "a.forest").write_text("(1 (1))")
        item = {"kind": "cli", "argv": ["renorm", "a.forest"],
                "files": {"a.forest": "(1 (1))"}}
        gate = self.gate(tmp_path)
        assert gate.check(item, (0, "pi^2/4\n2.4674011002723397\n", "")) is None
        assert gate.check(item, (0, "pi^2/4\n2.467401100272340\n", "")) is not None
        assert gate.check(item, (1, "", "error: x\n")) is not None


def test_stored_goldens_cover_the_default_seed():
    goldens = workloads.load_goldens()
    for w in inputs.WORKLOADS:
        for it in inputs.generate(w, goldens["seed"]) + inputs.probe_inputs():
            if it["kind"] == "cli":
                assert workloads.cli_key(it) in goldens["cli"]
            elif it["kind"] != "quad":
                assert it["text"] in goldens["values"]
