import json
import pathlib
import shlex

import pytest

from newtonpoly.cli import main
from newtonpoly.errors import Unrenderable
from newtonpoly.polygon import (
    EMPTY, INF, ElementaryPolygon, NewtonPolygon, make_elementary, polygon_sum,
)
from newtonpoly.render import render_ascii, render_svg


class TestAsciiRender:
    def test_staircase_golden(self):
        expected = (
            "exp y\n"
            "  1 | *  .  .\n"
            "  0 | .  .  *\n"
            "    +----------\n"
            "      0  1  2\n"
            "      (exp x)\n"
            "vertices: (0,1) (2,0)\n"
        )
        assert render_ascii(make_elementary(2, 1)) == expected

    def test_empty_polygon(self):
        out = render_ascii(EMPTY)
        assert "vertices: (none)" in out

    def test_vertical_ray(self):
        out = render_ascii(make_elementary(2, INF))
        assert "vertical ray at x = 2" in out

    def test_ray_above_the_first_vertex_and_floor_right_of_the_last(self):
        # the x-offset is a wall
        p = NewtonPolygon(2, 0, (ElementaryPolygon(3, 1), ElementaryPolygon(INF, 2)))
        rows = render_ascii(p).splitlines()
        assert rows[:5] == [
            "exp y",
            "  4 | .  .  ^  .  .  .  .",
            "  3 | .  .  *  .  .  .  .",
            "  2 | .  .  .  .  .  *  -",
            "  1 | .  .  .  .  .  .  .",
        ]

    def test_deterministic(self):
        p = polygon_sum(make_elementary(1, 2), make_elementary(3, 1))
        assert render_ascii(p) == render_ascii(p)

    def test_unrenderable(self):
        p = polygon_sum(make_elementary(1, INF), make_elementary(INF, 1))
        with pytest.raises(Unrenderable):
            render_ascii(p)


class TestSvgRender:
    def test_structure(self):
        out = render_svg([make_elementary(2, 1)])
        assert out.startswith('<?xml version="1.0"')
        assert "<svg" in out and out.rstrip().endswith("</svg>")
        assert "exp y" in out and "exp x" in out
        assert "(0,1)" in out and "(2,0)" in out

    def test_overlay_with_shading(self):
        special = polygon_sum(make_elementary(8, 2), make_elementary(48, 6))
        generic = make_elementary(56, 7)
        out = render_svg([special, generic], shade_between=True)
        assert "fill-opacity" in out
        assert out == render_svg([special, generic], shade_between=True)


GOLDEN = pathlib.Path(__file__).parent / "golden" / "render"


# one polygon for each placement of the wall, the floor and the vertex chain
@pytest.mark.parametrize("name, polygon", [
    ("offset_wall_chain", {"x_offset": 2, "edges": [{"l": 2, "h": 1}, {"l": 1, "h": 2}]}),
    ("offset_floor_only", {"x_offset": 3, "edges": [{"l": "inf", "h": 2}]}),
    ("y_offset_only", {"y_offset": 2, "edges": [{"l": 2, "h": 1}]}),
    ("ray_plus_offsets",
     {"x_offset": 1, "y_offset": 1, "edges": [{"l": 2, "h": "inf"}, {"l": 3, "h": 1}]}),
    ("floor_plus_y_offset", {"y_offset": 1, "edges": [{"l": 1, "h": 2}, {"l": "inf", "h": 3}]}),
])
@pytest.mark.parametrize("fmt, suffix", [("ascii", "txt"), ("svg", "svg")])
def test_render_golden(capsys, name, polygon, fmt, suffix):
    assert main(["polygon", "render", json.dumps(polygon), "--format", fmt]) == 0
    assert capsys.readouterr() == ((GOLDEN / f"{name}.{suffix}").read_text(), "")


POLYHEDRON = '{"dim": 2, "generators": [[0, 1], [2, 0]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OPERAND_COUNT_CASES = [
    (["polygon", "dominates", "{2/1}"], "polygon dominates takes 2 operand(s), got 1"),
    (["series", "resultant", "y^2-x^3"], "series resultant takes 2 operand(s), got 1"),
    (["series", "intersect", "y"], "series intersect takes 2 operand(s), got 1"),
    (["curve", "milnor"], "curve milnor takes 1 operand(s), got 0"),
    (["curve", "merle"], "curve merle takes 1 operand(s), got 0"),
    (["polyhedron", "covolume", POLYHEDRON, POLYHEDRON],
     "polyhedron covolume takes 1 operand(s), got 2"),
    (["polyhedron", "multiplicity", POLYHEDRON, POLYHEDRON],
     "polyhedron multiplicity takes 1 operand(s), got 2"),
    (["polygon", "decompose", "{2/1}", "{3/1}"], "polygon decompose takes 1 operand(s), got 2"),
    (["polygon", "dominates", "{2/1}", "{3/1}", "{1/1}"],
     "polygon dominates takes 2 operand(s), got 3"),
    (["curve", "dual-degree"], "curve dual-degree takes 1 to 2 operand(s), got 0"),
    (["curve", "bs-example", "5", "--beta", "4"],
     "curve bs-example takes 1 operand(s) counting --beta, got 2"),
    (["polyhedron", "mixed", POLYHEDRON, POLYHEDRON],
     "polyhedron mixed requires --alpha, e.g. --alpha 1,1"),
]


class TestCli:
    def test_polygon_sum_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "polygon", "sum",
            '{"edges":[{"l":2,"h":1}]}',
            '{"edges":[{"l":3,"h":2}]}',
            "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "x_offset": 0,
            "y_offset": 0,
            "edges": [{"l": 3, "h": 2}, {"l": 2, "h": 1}],
        }

    def test_polygon_round_trip_via_cli(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "sum", "{2/1}", "{1/2}")
        assert code == 0 and out.strip() == "{1/2}+{2/1}"

    def test_curve_merle_report(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "merle", "<4,6,13>", "--report", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["mu_n"] == 16
        assert payload["pairs"] == [[5, 1], [11, 2]]

    def test_report_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        code, out, _ = run_cli(capsys, "curve", "merle", "<2,3>", "--report", "--json")
        assert code == 0
        base = pathlib.Path(__file__).parent.parent / "docs"
        schema = json.loads((base / "report.schema.json").read_text())
        schema["properties"]["polygon"] = json.loads((base / "polygon.schema.json").read_text())
        jsonschema.validate(json.loads(out), schema)

    def test_curve_invert(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "invert", "{5/1}+{11/2}")
        assert code == 0 and out.strip() == "<4,6,13>"

    def test_series_polygon(self, capsys):
        code, out, _ = run_cli(capsys, "series", "polygon", "y^2 - x^3")
        assert code == 0 and out.strip() == "{3/2}"

    def test_series_polygon_of_a_high_power(self, capsys):
        code, out, _ = run_cli(capsys, "series", "polygon", "x^9999999")
        assert code == 0 and out.strip() == '{"x_offset":9999999,"y_offset":0,"edges":[]}'

    def test_puiseux_expand(self, capsys):
        code, out, _ = run_cli(capsys, "puiseux", "expand", "y^2 - x^3", "--precision", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("x = t^2; y = t^3")

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NEWTONPOLY_PRECISION", "5")
        code, out, _ = run_cli(capsys, "puiseux", "expand", "y^2 - x^3")
        assert code == 0 and "O(t^" in out

    @pytest.mark.parametrize("text, error", [
        ("x^2 + x^3", "ConstantInY:"), ("0", "EmptySupport:"),
    ])
    def test_puiseux_expand_without_y_exit_1(self, capsys, text, error):
        # the input parses; a polynomial of y-degree 0 has no branches
        code, out, err = run_cli(capsys, "puiseux", "expand", text)
        assert (code, out) == (1, "") and err.startswith(error)

    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_non_positive_precision_exit_2(self, capsys, monkeypatch, precision):
        code, out, err = run_cli(capsys, "puiseux", "expand", "y^2 - x^3", "--precision", precision)
        assert code == 2 and out == "" and "parse error" in err
        monkeypatch.setenv("NEWTONPOLY_PRECISION", precision)
        code, out, err = run_cli(capsys, "puiseux", "expand", "y^2 - x^3")
        assert code == 2 and out == "" and "parse error" in err

    @pytest.mark.parametrize("clause, message", [
        # O(u^1) hides the constant term; O(u^5) is truncated all the same
        ("u^2 + 1 + O(u^1)", "defining polynomial of u must be exact, without O(...)"),
        ("u^2 + 1 + O(u^5)", "defining polynomial of u must be exact, without O(...)"),
        ("0", "defining polynomial of u is zero"),
        ("u^2 - u^2", "defining polynomial of u is zero"),
    ])
    def test_bad_adjoin_clause_exit_2(self, capsys, clause, message):
        code, out, err = run_cli(capsys, "puiseux", "expand", f"adjoin u: {clause}; y^2 - u*x^3")
        assert (code, out) == (2, "") and err.startswith("parse error") and message in err

    @pytest.mark.parametrize("text", [
        "[1,2]", '"x"', '{"dim": 2}', '{"dim": "2", "generators": [[1, 0], [0, 1]]}',
        '{"dim": 2, "generators": [[1, 0], [0, 1.5]]}', '{"dim": 2, "generators": {"a": 1}}',
    ])
    def test_malformed_polyhedron_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "polyhedron", "covolume", text)
        assert code == 2 and out == "" and err.startswith("parse error")

    @pytest.mark.parametrize("text", [
        '{"x_offset": 1.7, "edges": [{"l": 2, "h": 1}]}',
        '{"x_offset": true, "edges": [{"l": 2, "h": 1}]}',
        '{"y_offset": "3", "edges": [{"l": 2, "h": 1}]}',
    ])
    def test_malformed_polygon_offset_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "polygon", "sum", text, "{}")
        assert code == 2 and out == "" and err.startswith("parse error")

    @pytest.mark.parametrize("text", [
        '{"edges":5}', '{"edges":[[2,1]]}', '{"edges":null}', '{"edges":{"l":2}}',
        '{"edges":[{"l":2}]}',
    ])
    def test_malformed_polygon_edges_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "polygon", "product", text, "{1/1}")
        assert code == 2 and out == "" and err.startswith("parse error") and '"edges"' in err

    def test_unknown_polyhedron_key_exit_2(self, capsys):
        text = '{"dim":2,"generators":[[2,0],[0,2]],"extra":1}'
        code, out, err = run_cli(capsys, "polyhedron", "covolume", text)
        assert (code, out) == (2, "") and err == "parse error: unknown key 'extra' in a polyhedron\n"

    @pytest.mark.parametrize("first, second, message", [
        ('{"edges":[{"l":1,"h":1}],"bogus":1}', "{1/1}", "unknown key 'bogus' in a polygon"),
        ('{"edges":[{"l":1,"h":1}]}', '{"x_offset":1}', "missing key 'edges' in a polygon"),
        ('{"edges":[{"l":1,"h":1,"w":3}]}', "{1/1}", "unknown key 'w' in an item of \"edges\""),
    ])
    def test_polygon_keys_outside_the_schema_exit_2(self, capsys, first, second, message):
        code, out, err = run_cli(capsys, "polygon", "sum", first, second)
        assert (code, out) == (2, "") and err == f"parse error: {message}\n"

    @pytest.mark.parametrize("text", ["{1_0/2}", "{\u0663/1}"])
    def test_non_ascii_compact_extent_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "polygon", "sum", text, "{}")
        assert code == 2 and out == "" and err.startswith("parse error")

    @pytest.mark.parametrize("op", ["invert", "invariants"])
    @pytest.mark.parametrize("text", ["{inf/1}", "{1/inf}"])
    def test_infinite_jacobian_pair_exit_2(self, capsys, op, text):
        code, out, err = run_cli(capsys, "curve", op, text)
        assert (code, out, err) == (2, "", "parse error: inf is not an integer\n")

    def test_merle_of_a_smooth_branch_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "curve", "merle", "<1>")
        assert (code, out) == (1, "") and err.startswith("NotSingular:")

    @pytest.mark.parametrize("text", ["<4,6,1_3>", "<>", "<2,,3>", "<\u0662,3>", "<2,+3>",
                                      "<2,-3>"])
    def test_semigroup_entries_are_ascii_digits_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "curve", "merle", text)
        assert (code, out) == (2, "")
        assert err == f"parse error: semigroup entries must be ASCII digits, got {text!r}\n"

    def test_semigroup_entries_may_be_spaced(self, capsys):
        code, out, err = run_cli(capsys, "curve", "merle", "< 4, 6 ,13 >")
        assert (code, out, err) == (0, "{5/1}+{11/2}\n", "")

    @pytest.mark.parametrize("singularities, chunk", [("1,1;2", "2"), ("1,x", "1,x"),
                                                      ("2,1;1,2,3", "1,2,3")])
    def test_dual_degree_bad_singularity_exit_2(self, capsys, singularities, chunk):
        code, out, err = run_cli(capsys, "curve", "dual-degree", "3",
                                 "--singularities", singularities)
        assert (code, out) == (2, "")
        assert err == f"parse error: singularity {chunk!r} is not of the form mu_n,mu_n1\n"

    @pytest.mark.parametrize("argv, value", [
        (["curve", "dual-degree", "\u0663"], "\u0663"),
        (["curve", "dual-degree", "3", "2_0"], "2_0"),
        (["curve", "dual-degree", "3", "--singularities", "\u0662,1"], "\u0662,1"),
        (["curve", "dual-degree", "3", "--dimension", "\u0662"], "\u0662"),
        (["curve", "dual-degree", "--degree", "\u0663"], "\u0663"),
        (["curve", "bs-example", "\u0664"], "\u0664"),
        (["curve", "bs-example", "--beta", "\u0664"], "\u0664"),
        (["curve", "jacobian", "y^2 - x^3", "--seed", "\u0667"], "\u0667"),
        (["verify", "dual-degree", "--seed", "\u0667"], "\u0667"),
        (["polyhedron", "mixed", POLYHEDRON, POLYHEDRON, "--alpha", "\u0661,1"], "\u0661"),
        (["puiseux", "expand", "y^2 - x^3", "--precision", "\u0664"], "\u0664"),
    ], ids=["dual-degree-operand", "underscore", "singularities", "dimension", "degree",
            "bs-example-operand", "beta", "curve-seed", "verify-seed", "alpha", "precision"])
    def test_integers_are_ascii_digits_exit_2(self, capsys, argv, value):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's type check
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and repr(value) in err

    def test_precision_env_is_ascii_digits_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("NEWTONPOLY_PRECISION", "\u0664")
        code, out, err = run_cli(capsys, "puiseux", "expand", "y^2 - x^3")
        assert (code, out) == (2, "")
        assert err == "parse error: '\u0664' is not an integer in ASCII digits\n"

    @pytest.mark.parametrize("argv, first_line", [
        (["curve", "dual-degree", " 3 ", "2", "--singularities", "2, 1"], "3"),
        (["curve", "dual-degree", "-3"], None),
        (["curve", "bs-example", "--beta", "+4"], "special fibre: {8/2}+{48/6}"),
        (["puiseux", "expand", "y^2 - x^3", "--precision", "6"], "x = t^2; y = t^3"),
    ])
    def test_signed_and_spaced_ascii_integers_are_read(self, capsys, argv, first_line):
        code, out, err = run_cli(capsys, *argv)
        if first_line is None:  # read, then out of range
            assert (code, out) == (1, "") and err.startswith("ParameterOutOfRange")
        else:
            assert code == 0 and out.splitlines()[0].startswith(first_line)

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "polygon", "decompose", "{1/inf}")
        assert code == 1
        assert "NotFiniteVolume" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "series", "polygon", "y +* x")
        assert code == 2
        assert "parse error" in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["polygon", "frobnicate", "{1/1}"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", OPERAND_COUNT_CASES, ids=[
        f"{argv[0]}-{argv[1]}-{len(argv) - 2}args" for argv, _ in OPERAND_COUNT_CASES])
    def test_operand_count_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv, first_line", [
        (["curve", "merle", "<4,6,13>", "--report"], "polygon          {5/1}+{11/2}"),
        (["curve", "merle", "--report", "<4,6,13>"], "polygon          {5/1}+{11/2}"),
        (["curve", "dual-degree", "3", "--singularities", "2,1", "2"], "3"),
        (["curve", "dual-degree", "--singularities", "2,1", "3", "2"], "3"),
    ], ids=["merle-operand-first", "merle-option-first", "dual-degree-split",
            "dual-degree-option-first"])
    def test_curve_operands_either_side_of_options(self, capsys, argv, first_line):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.splitlines()[0] == first_line

    @pytest.mark.parametrize("argv", [
        ["curve", "merle", "--report", "<4,6,13>", "--bogus"],
        ["polygon", "sum", "{1/1}", "--json", "{2/1}"],
    ])
    def test_unrecognized_arguments_still_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_dual_degree(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "dual-degree", "3", "2",
                               "--singularities", "2,1")
        assert code == 0 and out.strip() == "3"

    def test_dual_degree_out_of_range_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "curve", "dual-degree", "1", "2")
        assert code == 1
        assert "ParameterOutOfRange" in err

    def test_adjoin_clause_with_y_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "series", "polygon", "adjoin u: u^2 - _unused_y; y - x")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("text", ["1/0", "x/(2 - 2)"])
    def test_division_by_zero_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "series", "polygon", text)
        assert (code, out, err) == (2, "", "parse error: division by zero\n")

    def test_intersect_with_a_second_operand_not_unitary(self, capsys):
        # only the first operand of the resultant needs a unit leading coefficient
        code, out, err = run_cli(capsys, "series", "intersect", "y^2 - x^3", "x*y + x^2")
        assert (code, out, err) == (0, "4\n", "")
        code, out, err = run_cli(capsys, "series", "resultant", "y^2 - x^3", "x*y + x^2")
        assert (code, out, err) == (0, "x^4 - x^5\n", "")

    def test_intersect_away_from_the_origin_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "series", "intersect", "y^2 - y + x", "y^2 - y - x")
        assert code == 1
        assert "NotLocal" in err

    def test_milnor_counts_only_the_origin(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "milnor",
                               "(y - x)*(y - 2/3*x)*(y - 1/2*x^2)", "--seed", "596")
        assert code == 0 and out == "4\n"

    def test_milnor_of_a_germ_without_a_critical_point(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "milnor", "(y^2 - 1/2*x + 2)*(y^2 - 1/2*x + 10)")
        assert code == 0 and out == "0\n"

    def test_jacobian_with_a_critical_point_off_the_origin(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "jacobian",
                               "y^4 - 1/2*x^3*y^2 - 2*x^5*y + 1/16*x^6 - x^7", "--seed", "827")
        assert code == 0 and out == "{5/1}+{11/2}\n"

    def test_jacobian_of_a_germ_not_singular_at_the_origin_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "curve", "jacobian",
                                 "(y^2 - 1/2*x + 2)*(y^2 - 1/2*x + 10)")
        assert code == 1 and out == ""
        assert "NotSingular" in err

    def test_jacobian_of_a_germ_not_unitary_in_y(self, capsys):
        # x*y has no y^2 term; the polygon is computed in a unitary shear
        code, out, err = run_cli(capsys, "curve", "jacobian", "x*y")
        assert (code, out, err) == (0, "{1/1}\n", "")

    def test_zero_polynomial_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "curve", "milnor", "0")
        assert (code, out) == (1, "") and err.startswith("NotIsolated")
        code, out, err = run_cli(capsys, "curve", "jacobian", "0")
        assert (code, out) == (1, "") and err.startswith("NotUnitary")

    @pytest.mark.parametrize("argv", [
        ["series", "polygon", "0"],
        ["series", "resultant", "0", "y"],
        ["series", "shifted-resultant", "0", "y"],
        ["series", "intersect", "0", "y"],
    ])
    def test_zero_polynomial_series_exit_1(self, capsys, argv):
        # "0" parses; a zero polynomial has no support, a domain error
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("EmptySupport:")

    @pytest.mark.parametrize("text", [
        "(y^2 - x^3)*(y - x)", "(x + 3*y)*(y + x^2)*(y + 2*x)", "y^3 - x^5",
    ])
    def test_jacobian_ignores_the_seed(self, capsys, text):
        outputs = {run_cli(capsys, "curve", "jacobian", text, "--seed", s)
                   for s in ("3", "7", "31", "189", "827")}
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0

    def test_bs_example(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "bs-example", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dominates"] is True

    def test_verify_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "dual-degree", "--seed", "7")
        assert code == 0
        assert out.count("[PASS]") == 3

    def test_render_svg_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "polygon", "render", "{2/1}", "--format", "svg")
        code2, out2, _ = run_cli(capsys, "polygon", "render", "{2/1}", "--format", "svg")
        assert code1 == code2 == 0 and out1 == out2


def _readme_examples():
    """The ``newtonpoly polygon`` and ``polyhedron`` lines of the README's
    "Command line" block, split as a shell would, without output redirection."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line)
        if argv[:1] == ["newtonpoly"] and argv[1:2] in (["polygon"], ["polyhedron"]):
            if ">" in argv:
                argv = argv[:argv.index(">")]
            examples.append(argv[1:])
    return examples


def test_readme_has_examples():
    # an empty parameter list below would skip silently
    assert len(_readme_examples()) >= 7


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_example(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.strip()
