"""End-to-end tests of the batch command-line surface."""

import io
import subprocess
import sys
import time

import pytest

import forestren.cli
import forestren.errors as errors
from forestren import parse_forest, renormalize
from forestren.cli import run

# A 10-corolla with weights 1 + 1/p: two copies multiply to a value whose
# numerator and denominator run past the 4,300 digits str() takes.
BIG_COROLLA = (
    "(3/2 (4/3) (6/5) (8/7) (12/11) (14/13) (18/17) (20/19) (24/23) (30/29))"
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = run(argv, out, err)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def put(workdir, name, text):
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def read_digits(text):
    """An int from its decimal digits, read in pieces that int() takes."""
    value = 0
    for k in range(0, len(text), 1000):
        piece = text[k : k + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def is_big_corolla_square(line):
    """Whether ``line`` renders the value of two BIG_COROLLA copies."""
    want = renormalize(*parse_forest(BIG_COROLLA)).exact.coeffs[5] ** 2
    num, _, den = line.partition("*pi^20/")
    return len(den) > 4300 and (read_digits(num), read_digits(den)) == (
        want.numerator, want.denominator
    )


class TestRenorm:
    def test_ladder_both_formats(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        assert invoke(["renorm", f]) == (0, "pi^2/4\n2.4674011002723397\n", "")

    def test_single_vertex(self, workdir):
        f = put(workdir, "v.forest", "(1)")
        assert invoke(["renorm", f]) == (0, "0\n0.0\n", "")

    def test_format_selection(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        assert invoke(["renorm", f, "--format", "exact"])[1] == "pi^2/4\n"
        assert invoke(["renorm", f, "--format", "float"])[1] == (
            "2.4674011002723397\n"
        )

    def test_multiple_files_are_prefixed(self, workdir):
        a = put(workdir, "a.forest", "(1 (1))")
        b = put(workdir, "b.forest", "(1)")
        rc, out, err = invoke(["renorm", a, b, "--format", "exact"])
        assert rc == 0
        assert out == "a.forest: pi^2/4\nb.forest: 0\n"

    def test_trunc_stability(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        base = invoke(["renorm", f])
        assert invoke(["renorm", f, "--trunc", "6"]) == base
        assert invoke(["renorm", f, "--trunc", "8"]) == base

    @pytest.mark.parametrize("fmt", ["exact", "both", "float"])
    def test_value_past_the_digit_limit(self, workdir, fmt):
        import mpmath  # the reference rendering; the CLI loads no mpmath

        text = f"{BIG_COROLLA} {BIG_COROLLA}"
        f = put(workdir, "big.forest", text)
        rc, out, err = invoke(["renorm", f, "--format", fmt])
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        if fmt != "float":
            assert is_big_corolla_square(lines.pop(0))
        value = renormalize(*parse_forest(text)).exact
        rendered = mpmath.nstr(value.evalf(30), 17)
        assert rendered == "525716230333.69533"
        assert lines == ([] if fmt == "exact" else [rendered])

    def test_reruns_byte_identical(self, workdir):
        f = put(workdir, "l2.forest", "(2 (1 (3)) (1))")
        first = invoke(["renorm", f])
        for _ in range(3):
            assert invoke(["renorm", f]) == first


class TestRegularize:
    def test_ladder_symbol(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        rc, out, err = invoke(["regularize", f])
        assert (rc, err) == (0, "")
        assert out == "exponent: e0 + e1\nfactors: [e0 + e1, e1]\n"


# germ at the default truncation, degree + 2, at degrees 3 to 5: the series
# of the telescoping recursion (odd trees have no constant term)
GERM_GOLDENS = {
    "(1 (2) (3))": (
        "(-3581*pi^4/77760)*z2 + (-1213*pi^4/34560)*z1"
        " + 13009*pi^4/103680*z0"
    ),
    "(1 (2 (3) (4)))": (
        "2239*pi^4/17010 + 10302449*pi^6/267907500*z3^2"
        " + 7382759*pi^6/150028200*z2*z3"
        " + 128003527*pi^6/3150592200*z2^2"
        " + (-160415161*pi^6/3214890000)*z1*z3"
        " + (-137614363*pi^6/2700507600)*z1*z2"
        " + 463030583*pi^6/7233502500*z1^2"
        " + (-77652299*pi^6/1500282000)*z0*z3"
        " + (-548383873*pi^6/10501974000)*z0*z2"
        " + (-880981*pi^6/375070500)*z0*z1"
        " + 423607861*pi^6/6563733750*z0^2"
    ),
    "(1 (2)) (3) (4 (5))": "35*pi^6/2916*z2",
    "(2 (1 (1 (1 (1)))))": (
        "(-746897*pi^6/27216000)*z4 + 60787*pi^6/14515200*z3"
        " + 107779*pi^6/4665600*z2 + 814633*pi^6/21772800*z1"
        " + 35497303*pi^6/653184000*z0"
    ),
}


class TestGerm:
    def test_truncated_projection_golden(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        rc, out, err = invoke(["germ", f, "--trunc", "4"])
        assert (rc, err) == (0, "")
        assert out == (
            "pi^2/4 + 7*pi^4/144*z1^2 + (-13*pi^4/288)*z0*z1"
            " + 35*pi^4/576*z0^2\n"
        )

    @pytest.mark.parametrize("text", sorted(GERM_GOLDENS))
    def test_goldens_of_degree_3_to_5(self, workdir, text):
        f = put(workdir, "g.forest", text)
        assert invoke(["germ", f]) == (0, GERM_GOLDENS[text] + "\n", "")

    def test_constant_term_matches_renorm(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        germ_out = invoke(["germ", f])[1]
        renorm_exact = invoke(["renorm", f, "--format", "exact"])[1].strip()
        assert germ_out.startswith(renorm_exact)

    @pytest.mark.parametrize("depth", [6, 14])
    def test_degree_limit_exit_1(self, workdir, depth):
        f = put(workdir, "ladder.forest", "(1 " * depth + ")" * depth)
        start = time.perf_counter()
        assert invoke(["germ", f]) == (
            1,
            "",
            f"error: germ is limited to forests of degree 5, not {depth}\n",
        )
        assert time.perf_counter() - start < 1.0

    def test_truncation_limit_exit_1(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        assert invoke(["germ", f, "--trunc", "5"]) == (
            1,
            "",
            "error: germ is limited to truncation 4 at degree 2, not 5\n",
        )


class TestCheckSimilar:
    def test_similar_pair_reports_value(self, workdir):
        a = put(workdir, "a.forest", "(1 (2))")
        b = put(workdir, "b.forest", "(3 (6))")
        assert invoke(["check-similar", a, b]) == (
            0,
            "SIMILAR\nvalues agree: 5*pi^2/18\n",
            "",
        )

    def test_value_past_the_digit_limit(self, workdir):
        f = put(workdir, "big.forest", f"{BIG_COROLLA} {BIG_COROLLA}")
        rc, out, err = invoke(["check-similar", f, f])
        assert (rc, err) == (0, "")
        similar, agree = out.splitlines()
        assert similar == "SIMILAR"
        assert agree.startswith("values agree: ")
        assert is_big_corolla_square(agree[len("values agree: "):])

    def test_dissimilar_pair(self, workdir):
        a = put(workdir, "a.forest", "(1 (1))")
        b = put(workdir, "b.forest", "(1 (2))")
        assert invoke(["check-similar", a, b]) == (0, "NOT-SIMILAR\n", "")


class TestQuadCheck:
    def test_reports_error_bound(self, workdir):
        f = put(workdir, "v.forest", "(1)")
        rc, out, err = invoke(["quad-check", f])
        assert (rc, err) == (0, "")
        assert out.startswith("max relative error: ")

    def test_deterministic_given_seed(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        runs = {invoke(["quad-check", f, "--seed", "7"]) for _ in range(2)}
        assert len(runs) == 1

    def test_overflow_exit_3(self, workdir):
        f = put(workdir, "l900.forest", "(1 " * 900 + ")" * 900)
        assert invoke(["quad-check", f]) == (
            3,
            "",
            "error: value overflows float64\n",
        )

    def test_deep_ladder_refused_exit_3(self, workdir):
        f = put(workdir, "l50.forest", "(1 " * 50 + ")" * 50)
        start = time.perf_counter()
        rc, out, err = invoke(["quad-check", f])
        assert time.perf_counter() - start < 10.0
        assert (rc, out) == (3, "")
        assert err.startswith("error: nested quadrature did not stabilize")
        assert err.count("\n") == 1

    def test_four_vertex_tree_converges(self, workdir):
        # converges at refinement 6, three kernel contractions per level
        f = put(workdir, "t4.forest", "(1 (2) (3 (1)))")
        rc, out, err = invoke(["quad-check", f, "--seed", "0"])
        assert (rc, err) == (0, "")
        assert out.startswith("max relative error: ")

    def test_unreachable_tolerance_fails_with_code_3(self, workdir):
        f = put(workdir, "v.forest", "(1)")
        rc, out, err = invoke(["quad-check", f, "--quad-tol", "1e-18"])
        assert rc == 3
        assert "exceeds tolerance" in err
        assert err.startswith("error: quadrature error ")


class TestErrorPaths:
    def test_parse_error_exit_1(self, workdir):
        f = put(workdir, "bad.forest", "(1")
        rc, out, err = invoke(["renorm", f])
        assert (rc, out) == (1, "")
        assert err == "error: unexpected end of input\n"

    def test_weight_past_the_digit_limit_exit_1(self, workdir):
        # the interpreter's limit on digits still guards parsing
        f = put(workdir, "huge.forest", "(" + "7" * 5000 + ")")
        rc, out, err = invoke(["renorm", f])
        assert (rc, out) == (1, "")
        assert err.startswith("error: invalid rational '777")
        assert err.count("\n") == 1
        assert len(err) < 100  # an excerpt, not the 5,000-digit token

    @pytest.mark.parametrize(
        "text",
        [
            "(1e99999999 (1))",
            "(1 (1e-99999999))",
            "Q=1e99999999\n([1])",
            "Q=1e-99999999\n([1])",
            "Q=1,0;0,1\n([1e99999999,0])",
            "Q=1,0;0,1\n([0,1e-99999999])",
        ],
    )
    def test_huge_exponent_exit_1_at_once(self, workdir, text):
        # Fraction alone would build 10**99999999, for minutes
        f = put(workdir, "exp.forest", text)
        start = time.perf_counter()
        rc, out, err = invoke(["renorm", f])
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err.startswith("error: invalid rational '1e")
        assert err.count("\n") == 1

    def test_nonpositive_weight_exit_1(self, workdir):
        f = put(workdir, "bad.forest", "(0)")
        assert invoke(["renorm", f])[0] == 1

    def test_locality_violation_exit_2(self, workdir):
        f = put(workdir, "bad.forest", "Q=1,1/2;1/2,1\n([1,0]) ([0,1])")
        rc, out, err = invoke(["renorm", f])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")

    def test_singular_matrix_rejected_at_parse(self, workdir):
        f = put(workdir, "bad.forest", "Q=1,1;1,1\n([1,0]) ([0,1])")
        rc, _, err = invoke(["renorm", f])
        assert rc == 1
        assert "positive definite" in err

    def test_explicit_flag_enforced(self, workdir):
        f = put(workdir, "c.forest", "(1 (1))")
        rc, _, err = invoke(["renorm", f, "--explicit"])
        assert rc == 1
        assert "--explicit requires a leading Q= line" in err

    def test_explicit_mode_accepts_explicit_file(self, workdir):
        f = put(workdir, "e.forest", "Q=1,0;0,1\n([1,0] ([0,1]))")
        rc, out, _ = invoke(["renorm", f, "--explicit", "--format", "exact"])
        assert (rc, out) == (0, "pi^2/4\n")

    @pytest.mark.parametrize("command", ["renorm", "germ", "check-similar"])
    def test_truncation_below_degree_exit_1(self, workdir, command):
        f = put(workdir, "l2.forest", "(1 (1))")
        paths = [f, f] if command == "check-similar" else [f]
        assert invoke([command, *paths, "--trunc", "1"]) == (
            1,
            "",
            "error: truncation 1 is below the forest degree 2\n",
        )

    @pytest.mark.parametrize(
        "command, option",
        [
            ("renorm", "--seed"),
            ("regularize", "--seed"),
            ("regularize", "--format"),
            ("regularize", "--trunc"),
            ("germ", "--seed"),
            ("germ", "--format"),
            ("check-similar", "--seed"),
            ("check-similar", "--format"),
            ("quad-check", "--format"),
            ("quad-check", "--trunc"),
        ],
    )
    def test_option_the_command_does_not_read_exit_2(
        self, workdir, command, option
    ):
        f = put(workdir, "l2.forest", "(1 (1))")
        paths = [f, f] if command == "check-similar" else [f]
        value = "exact" if option == "--format" else "0"
        rc, out, err = invoke([command, *paths, option, value])
        assert (rc, out) == (2, "")
        assert err.startswith("usage: forestren ")
        assert err.splitlines()[-1] == (
            f"forestren: error: unrecognized arguments: {option} {value}"
        )

    @pytest.mark.parametrize("command", ["renorm", "regularize"])
    def test_deep_nesting_exit_1(self, workdir, command):
        f = put(workdir, "deep.forest", "(1 " * 5000 + ")" * 5000)
        assert invoke([command, f]) == (
            1,
            "",
            "error: forest nesting is too deep\n",
        )

    def test_numerator_too_large_exit_1(self, workdir):
        f = put(workdir, "l20.forest", "(1 " * 20 + ")" * 20)
        assert invoke(["renorm", f]) == (
            1,
            "",
            "error: a tree of degree 20 needs more than 100000 numerator terms\n",
        )

    def test_16_ladder_refused_before_projection(self, workdir):
        # a 16-tree's slice has 490,314 terms: projecting it would need
        # about 1 GB of region states
        f = put(workdir, "l16.forest", "(1 " * 16 + ")" * 16)
        start = time.perf_counter()
        result = invoke(["renorm", f])
        elapsed = time.perf_counter() - start
        assert result == (
            1,
            "",
            "error: a tree of degree 16 needs more than 100000 numerator terms\n",
        )
        assert elapsed < 5.0, f"refusal took {elapsed:.1f}s"

    def test_deep_similar_pair_exit_1(self, workdir):
        # parses, and the canonical encodings compare without recursion
        f1 = put(workdir, "a.forest", "(1 " * 600 + ")" * 600)
        f2 = put(workdir, "b.forest", "(2 " * 600 + ")" * 600)
        rc, out, err = invoke(["check-similar", f1, f2])
        assert (rc, out) == (1, "")
        assert err == (
            "error: a tree of degree 600 needs more than 100000 numerator terms\n"
        )

    @pytest.mark.parametrize(
        "error",
        [*errors.ForestrenError.__subclasses__(), forestren.cli._CheckFailure],
        ids=lambda error: error.__name__,
    )
    def test_every_library_error_is_one_line(self, workdir, monkeypatch, error):
        codes = {
            "NotProperlyDecorated": 2,
            "LocalityViolation": 2,
            "SingularGram": 2,
            "ConvergenceFailure": 3,
            "DomainError": 3,
            "_CheckFailure": 3,
        }

        def fail(*args):
            raise error("the message")

        monkeypatch.setattr(forestren.cli, "renormalize", fail)
        f = put(workdir, "l2.forest", "(1 (1))")
        assert invoke(["renorm", f]) == (
            codes.get(error.__name__, 1),
            "",
            "error: the message\n",
        )

    def test_missing_file_exit_1(self, workdir):
        rc, _, err = invoke(["renorm", "nope.forest"])
        assert rc == 1
        assert err.startswith("error: ")


class TestEntryPoint:
    def test_installed_script(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")
        proc = subprocess.run(
            [sys.executable, "-c", "from forestren.cli import main; main()",
             "renorm", str(workdir / f), "--format", "exact"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "pi^2/4\n"

    def test_installed_script_usage_and_help(self, workdir):
        f = put(workdir, "l2.forest", "(1 (1))")

        def script(*argv):
            return subprocess.run(
                [sys.executable, "-c", "from forestren.cli import main; main()",
                 *argv],
                capture_output=True,
                text=True,
            )

        proc = script("renorm", str(workdir / f), "--seed", "0")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == [
            "usage: forestren [-h] {renorm,regularize,germ,check-similar,"
            "quad-check} ...",
            "forestren: error: unrecognized arguments: --seed 0",
        ]
        proc = script("--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: forestren ")
