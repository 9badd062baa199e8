import io
import json
import subprocess
import sys

import jsonschema
import pytest

from projdyn.cli import build_parser, run, schema_text
from projdyn.coeff import QQ
from projdyn.mpoly import Ring, format_polynomial, parse_polynomial

SQUARING3 = "[x0^2, x1^2, x2^2]"
SQUARING2 = "[x0^2, x1^2]"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def validator():
    return jsonschema.Draft202012Validator(json.loads(schema_text()))


class TestDocumentedInvocations:
    def test_improper_search_witness(self):
        code, out, _ = invoke("improper-search", "--field", "QQ",
                              "--map", "[x0, x1/2, -x2/3]",
                              "--form", "x0+x1+x2", "--bound", "3")
        assert code == 0
        assert out == "(0,1,3)\n"

    def test_pushforward_line_chart(self):
        code, out, _ = invoke("pushforward", "--field", "QQ",
                              "--map", "[x0^2+7*x1^2, x1^2, x2^2]",
                              "--form", "x0-3*x1")
        assert code == 0
        assert out == "x0-16*x1\n"

    def test_period_poly_listing(self):
        code, out, _ = invoke("period-poly", "--d", "2", "--s", "4")
        assert code == 0
        assert out == "[0, 1, 0, 0, 3, 0, 0, 1]\n"


class TestTextOutput:
    def test_iterate_prints_coordinate_forms(self):
        code, out, _ = invoke("iterate", "--map", SQUARING2, "--n", "3")
        assert code == 0
        assert out.splitlines() == ["x0^8", "x1^8"]

    def test_orbit_lists_points_then_summary(self):
        code, out, _ = invoke("orbit", "--map", "[x1^2-x0^2, x0^2]",
                              "--field", "Fp:5", "--point", "0,1")
        assert code == 0
        assert out.splitlines() == ["(0:1)", "(1:0)", "(4:1)", "tail=0 period=3"]

    def test_jacobian_form(self):
        code, out, _ = invoke("jacobian", "--map", SQUARING3)
        assert code == 0
        assert out == "x0*x1*x2\n"

    def test_resultant_of_coordinate_powers(self):
        code, out, _ = invoke("resultant", "--form", "x0^3", "--form", "x1^2",
                              "--form", "x2^2")
        assert code == 0
        assert out == "1\n"

    def test_resultant_with_a_zero_form_is_zero(self):
        code, out, err = invoke("resultant", "--form=0", "--form=x^2+y^2", "--form=z")
        assert (code, out, err) == (0, "0\n", "")

    def test_resultant_with_a_singular_reduced_minor_is_zero(self):
        # x3 twice: the forms share a line of zeros, and M' is singular under
        # every change of coordinates
        code, out, err = invoke("resultant", "--form", "x3", "--form", "x3",
                                "--form=-x0*x3", "--form=-x3")
        assert (code, out, err) == (0, "0\n", "")

    def test_certificate_vanishes_at_symmetric_line(self):
        code, out, _ = invoke("improper-cert", "--map", SQUARING3,
                              "--form", "x0+x1+x2", "--indices", "0,1,2")
        assert code == 0
        assert out == "0\n"

    def test_sympow_of_squaring(self):
        code, out, _ = invoke("sympow", "--map", SQUARING2, "--n", "2")
        assert code == 0
        assert out.splitlines() == ["x0^2", "2*x0*x2-x1^2", "x2^2"]

    def test_dims_lines(self):
        code, out, _ = invoke("dims", "--n", "2", "--m", "1", "--d", "2",
                              "--indices", "0,1,2")
        assert code == 0
        assert out.splitlines() == ["dim_forms = 2", "dim_end = 17",
                                    "cert_degree = 56"]

    def test_polynomial_lines_round_trip(self):
        # canonical text parses back to the identical canonical text
        cases = [
            ("iterate", "--map", SQUARING2, "--n", "2"),
            ("jacobian", "--map", SQUARING3),
            ("pushforward", "--map", SQUARING3, "--form", "x0+2*x1+3*x2"),
            ("sympow", "--map", SQUARING2, "--n", "2"),
            ("improper-cert", "--map", SQUARING3, "--form", "x0+x1+x2",
             "--indices", "0,1,2"),
            ("resultant", "--form", "x0^2+x1^2", "--form", "x0*x1"),
        ]
        ring = Ring(8, QQ)
        for argv in cases:
            code, out, _ = invoke(*argv)
            assert code == 0
            for line in out.splitlines():
                assert format_polynomial(parse_polynomial(line, ring)) == line


class TestExitCodes:
    def test_negative_search_is_exit_one(self):
        code, out, _ = invoke("improper-search", "--map", SQUARING3,
                              "--form", "x0+2*x1+3*x2", "--bound", "2")
        assert code == 1
        assert out == "absent\n"

    def test_wandering_critical_points_exit_one(self):
        code, out, _ = invoke("ys-test", "--map", "[x0^2-2*x1^2, x0^2]",
                              "--s", "6")
        assert code == 1
        assert out == "absent\n"

    def test_divergent_orbit_exit_one(self):
        code, out, _ = invoke("orbit", "--map", SQUARING2, "--point", "2,1",
                              "--bound", "4")
        assert code == 1
        assert out.splitlines()[-1] == "no repetition within 4 steps"

    def test_pcf_parameter_found_and_absent(self):
        assert invoke("find-pcf", "--d", "2", "--s", "3")[:2] == (0, "-1\n")
        assert invoke("find-pcf", "--d", "2", "--s", "5")[0] == 1

    def test_usage_errors_exit_two(self):
        bad = [
            ("pushforward", "--map", SQUARING2),
            ("orbit", "--map", SQUARING2, "--point", "0,0"),
            ("orbit", "--map", SQUARING2, "--point", "1,2,3"),
            ("iterate", "--map", "[x0^2, x1]"),
            ("resultant", "--form", "x0^2"),
            # a zero form does not excuse an inhomogeneous one
            ("resultant", "--form=0", "--form=x+y^2", "--form=y"),
            ("resultant", "--form=x", "--form=x+y^2"),
            ("find-pcf", "--d", "2", "--s", "4"),
            ("period-poly", "--d", "2", "--s", "3", "--field", "Fp:4"),
            ("dims", "--n", "2"),
            ("no-such-command",),
            # decimal digits outside ASCII: a coefficient, a variable index
            ("iterate", "--map", "[\u0663*x0^2, x1^2]"),
            ("iterate", "--map", "[x0^2, x1^2, x\u0662^2]"),
        ]
        for argv in bad:
            code, _, err = invoke(*argv)
            assert code == 2, argv
            assert err.startswith("error:")

    def test_degeneracy_exits_three(self):
        code, _, err = invoke("orbit", "--map", "[x0*x1, x1^2]",
                              "--point", "1,0")
        assert code == 3
        assert "degeneracy" in err
        code, _, err = invoke("jacobian", "--map", "[x0^2, x0^2]")
        assert code == 3
        assert "degeneracy" in err
        # V(x0) holds two base points of the map: the elimination vanishes
        code, _, err = invoke("pushforward", "--map", "[x0*x1, x0*x2, x1*x2]",
                              "--form", "x0")
        assert code == 3
        assert "[pushforward-degenerate]" in err


JSON_CASES = [
    ("iterate", "--map", SQUARING2, "--n", "2"),
    ("orbit", "--map", SQUARING2, "--point", "1,1"),
    ("jacobian", "--map", SQUARING3),
    ("resultant", "--form", "x0^2", "--form", "x1^3"),
    ("pushforward", "--map", SQUARING3, "--form", "x0+x1+x2"),
    ("improper-cert", "--map", SQUARING3, "--form", "x0+x1+x2",
     "--indices", "0,1,2"),
    ("improper-search", "--map", "[x0, x1/2, -x2/3]",
     "--form", "x0+x1+x2", "--bound", "3"),
    ("ys-test", "--map", "[x0^2-x1^2, x1^2]", "--s", "2"),
    ("sympow", "--map", SQUARING2, "--n", "2"),
    ("period-poly", "--d", "3", "--s", "3"),
    ("find-pcf", "--d", "2", "--s", "5", "--field", "Fp:17"),
    ("dims", "--n", "2", "--m", "1", "--d", "2", "--indices", "0,1,2"),
]


@pytest.fixture(scope="module")
def json_runs():
    """(argv, exit code, parsed envelope) for one --json call per subcommand."""
    runs = []
    for argv in JSON_CASES:
        code, out, _ = invoke(*argv, "--json")
        runs.append((argv, code, json.loads(out)))
    return runs


class TestJsonOutput:
    def test_every_subcommand_validates(self, json_runs):
        check = validator()
        seen = set()
        for argv, code, payload in json_runs:
            assert code in (0, 1), argv
            check.validate(payload)
            assert payload["ok"] is (code == 0)
            seen.add(payload["command"])
        assert len(seen) == 12

    def test_envelope_keys_are_the_schema_properties(self, json_runs):
        properties = set(json.loads(schema_text())["properties"])
        for argv, _, payload in json_runs:
            assert set(payload) == properties, argv

    def test_negative_result_payload(self):
        code, out, _ = invoke("find-pcf", "--d", "2", "--s", "5", "--json")
        assert code == 1
        payload = json.loads(out)
        validator().validate(payload)
        assert payload["ok"] is False
        assert payload["result"] == {"found": False, "parameter": None}

    def test_identical_invocations_identical_bytes(self):
        argv = ("improper-cert", "--map", SQUARING3, "--form",
                "x3*x0+x4*x1+x5*x2", "--indices", "0,1,2", "--strategy",
                "modular", "--seed", "11", "--json")
        assert invoke(*argv) == invoke(*argv)

    def test_dims_checks_indices_as_improper_cert_does(self):
        dims = ("dims", "--n", "1", "--m", "1", "--d", "2", "--json")
        for indices in ("-1,0", "1,0", "0,0", "0", "0,1,2"):
            code, out, err = invoke(*dims, f"--indices={indices}")
            assert code == 2 and out == "", indices
            assert "indices must be strictly increasing" in err
        code, out, _ = invoke(*dims, "--indices=0,1")
        assert code == 0
        payload = json.loads(out)
        validator().validate(payload)
        assert payload["result"]["cert_degree"] == 3

    def test_threads_flag_is_rejected(self):
        code, out, err = invoke("dims", "--n", "1", "--d", "2", "--threads", "2")
        assert code == 2 and out == ""
        assert "--threads" in err

    def test_ys_test_output_does_not_depend_on_seed(self):
        argv = ("ys-test", "--map", "[x0^2-x1^2, x1^2]", "--s", "3")
        assert invoke(*argv, "--seed", "0") == invoke(*argv, "--seed", "5")

    def test_parser_is_built_once_and_parses_afresh(self):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["resultant", "--form", "x0^2",
                                           "--form", "x1^3", "--json"])
        second = build_parser().parse_args(["resultant", "--form", "x1"])
        assert first.form == ["x0^2", "x1^3"] and first.json
        assert second.form == ["x1"] and not second.json
        argv = ("resultant", "--form", "x0^2", "--form", "x1^3")
        assert invoke(*argv) == invoke(*argv)
        assert invoke("ys-test", "--map", SQUARING2)[0] == 2  # no --s
        assert invoke("ys-test", "--map", SQUARING2, "--s", "1")[0] == 0

    def test_ys_test_cubic_at_period_12(self):
        argv = ("ys-test", "--map",
                "[8*x0^3-9*x0*x1^2+8*x1^3, x0^3-8*x0^2*x1-5*x0*x1^2+x1^3]",
                "--s", "12")
        for field in ("QQ", "Fp:101"):
            assert invoke(*argv, "--field", field) == (1, "absent\n", "")


class TestStrategies:
    def test_ratio_and_modular_agree(self):
        argv = ("pushforward", "--map", SQUARING3, "--form", "x3*x0+x4*x1+x5*x2")
        ratio = invoke(*argv, "--strategy", "ratio")
        modular = invoke(*argv, "--strategy", "modular")
        assert ratio[0] == modular[0] == 0
        assert ratio[1] == modular[1]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "projdyn.cli", "period-poly", "--d", "2",
             "--s", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "[1, 0, 0, 1]\n"
