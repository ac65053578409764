"""What the package and each CLI command load, and the lazy public names."""

import importlib
import json
import subprocess
import sys

import pytest

import forestren

# The public names, grouped under the submodule that defines them.
EXPORTED = {
    "errors": [
        "ConvergenceFailure", "DomainError", "ForestrenError",
        "IndexOutOfRange", "InvalidArgument", "LocalityViolation", "NonPositiveWeight",
        "NotDivisible", "NotProperlyDecorated", "NumeratorTooLarge",
        "ParseError", "SingularGram", "TruncationBelowDegree",
        "VariableMismatch",
    ],
    "forest": [
        "DecoratedForest", "DecoratedTree", "EMPTY_FOREST", "canonical",
        "check_properly_decorated", "concat", "degree", "forest_shapes",
        "from_shape", "graft", "gram", "gram_from_inner", "parse_forest",
        "serialize", "subtree_sums", "tree_shapes",
    ],
    "pairing": [
        "InnerProduct", "LinearForm", "basis", "form", "inner",
        "is_independent",
    ],
    "projector": [
        "GermFraction", "ProjectionContext", "TruncSeries", "ev0_piplus",
        "ev0_piplus_direct", "h_series", "piplus_expand", "project_coeffs",
    ],
    "renorm": [
        "RegularizedIntegral", "RenormalizedValue", "expand_r1", "is_similar",
        "r1", "regularize", "renormalize",
    ],
    "series": ["PiPoly"],
    "oracle": [
        "NumericAssignment", "admissible_assignment",
        "closed_form_value", "quad_single", "quad_tree",
        "renorm_subset_oracle",
    ],
    "universal": [
        "BetaPhiTarget", "OperatedLocalityTarget", "SymbolicIntegralTarget",
        "branched", "fold", "symbolic_integral_target",
    ],
}
HEAVY = ("mpmath", "numpy", "forestren.oracle", "forestren.universal")
# What the fast path compiles or builds for nothing: the telescoping
# reference, and dataclasses with the inspect module it imports.
REFERENCE = ("dataclasses", "inspect", "forestren.projector")

# Runs one CLI call in a fresh interpreter and prints its exit code and
# which of the modules named on the command line it loaded.
CHILD = """
import io, json, sys
from forestren.cli import run
watched, argv = json.loads(sys.argv[1])
rc = run(argv, io.StringIO(), io.StringIO())
print(json.dumps([rc, sorted(m for m in watched if m in sys.modules)]))
"""


def loaded_by(argv, cwd, watched=HEAVY):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([watched, argv])],
        cwd=cwd, capture_output=True, text=True, check=True,
    )
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    return set(loaded)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "a.forest").write_text("(1 (2) (1 (1)))", encoding="utf-8")
    (tmp_path / "b.forest").write_text("(3 (6) (3 (3)))", encoding="utf-8")
    (tmp_path / "l2.forest").write_text("(1 (1))", encoding="utf-8")
    return tmp_path


class TestCommandLoads:
    @pytest.mark.parametrize(
        "argv",
        [
            ["regularize", "a.forest"],
            ["germ", "l2.forest"],
            ["check-similar", "a.forest", "b.forest"],
            ["renorm", "a.forest", "--format", "exact"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[2:]),
    )
    def test_exact_commands_load_nothing_heavy(self, files, argv):
        assert loaded_by(argv, files) == set()

    def test_float_rendering_loads_nothing_heavy(self, files):
        # the float rendering is rounded in ints, so not even mpmath loads
        for fmt in ("both", "float"):
            argv = ["renorm", "a.forest", "--format", fmt]
            assert loaded_by(argv, files) == set()

    def test_quad_check_loads_numpy_and_oracle(self, files):
        loaded = loaded_by(["quad-check", "l2.forest"], files)
        assert {"numpy", "forestren.oracle"} <= loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["renorm", "a.forest", "--format", "exact"],
            ["renorm", "a.forest", "--format", "float"],
            ["renorm", "a.forest", "--format", "both"],
            ["regularize", "a.forest"],
            ["check-similar", "a.forest", "b.forest"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[2:]),
    )
    def test_fast_path_commands_load_no_reference(self, files, argv):
        assert loaded_by(argv, files, REFERENCE) == set()

    def test_germ_loads_the_reference_only(self, files):
        loaded = loaded_by(["germ", "l2.forest"], files, REFERENCE)
        assert loaded == {"forestren.projector"}

    def test_quad_check_loads_no_dataclasses(self, files):
        # numpy imports inspect itself, so only dataclasses is watched here
        loaded = loaded_by(["quad-check", "l2.forest"], files, REFERENCE[:1])
        assert loaded == set()


class TestLazyNamespace:
    def test_import_loads_no_submodule(self):
        code = (
            "import sys, forestren; "
            "print(sorted(m for m in sys.modules if m.startswith('forestren')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert proc.stdout == "['forestren']\n"

    @pytest.mark.parametrize("module", sorted(EXPORTED))
    def test_names_resolve_to_submodule_objects(self, module):
        source = importlib.import_module(f"forestren.{module}")
        assert getattr(forestren, module) is source
        for name in EXPORTED[module]:
            assert getattr(forestren, name) is getattr(source, name)
            # resolved once, then a plain module attribute
            assert vars(forestren)[name] is getattr(source, name)

    def test_star_import_and_dir(self):
        names = {n for names in EXPORTED.values() for n in names} | set(EXPORTED)
        namespace = {}
        exec("from forestren import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == names
        assert set(forestren.__all__) == names
        assert names <= set(dir(forestren))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'renormalise'"):
            forestren.renormalise
