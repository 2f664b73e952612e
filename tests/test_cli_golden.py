"""Byte-exact command line outputs.

Each case runs ``newtonpoly`` in process and compares its standard output,
byte for byte, with ``tests/golden/cli/<name>.txt``: Puiseux expansions over
Q, over Q(sqrt 3), over Q(cbrt 2) and over a two-step tower whose generator
sum is not primitive (the Trager example), and ``curve jacobian --report
--json`` on twenty fixed curves of the jacobian corpus (branches, products
of branches of one slope and a genus-2 branch).

To write the files from the code on the import path, run
``python tests/test_cli_golden.py``; a changed golden must be explained in
the change that regenerates it.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from newtonpoly.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli"

EXPANSIONS = {
    "puiseux_qq": "y^3 - x^7 + x^4*y - 2*x^5*y^2",
    "puiseux_qq_json": "y^2 - x^3 - x^4",
    "puiseux_sqrt3": "adjoin u: u^2 - 3; y^2 - u*x^3 + x^5*y",
    "puiseux_cbrt2": "adjoin c: c^3 - 2; y^3 - c*x^4 - x^5 + x^3*y",
    "puiseux_trager": "adjoin a: a^2 - 2; adjoin b: b^2 + 2*a*b + a^2 - 3; y^2 - 5*x^2",
}

# jacobian-corpus curves of the first three rounds at seed 1, one copy each
JACOBIAN_CURVES = [
    "y^2 - 2*x^3",
    "(y - 1*x)*(y - 5*x)*(y - 7*x)",
    "y^3 + 3/5*x^5",
    "(y + 1*x^3)*(y + 1/2*x^3)",
    "y^3 + 2*x^5 + 1*x^3*y^2",
    "(y + 5*x^2)*(y + 1*x^2)*(y + 3/5*x^2)",
    "y^4 - 1/2*x^3*y^2 + 18*x^5*y + 1/16*x^6 - 81*x^7",
    "y^2 + 7*x^3",
    "(y - 1/2*x)*(y - 1*x)*(y - 2*x)",
    "(y + 7*x^3)*(y - 5*x^3)",
    "y^3 - 1*x^4 + 3/5*x^2*y^2",
    "(y + 2*x^2)*(y - 2/3*x^2)*(y - 3*x^2)",
    "y^4 - 1/2*x^3*y^2 - 2*x^5*y + 1/16*x^6 - x^7",
    "y^2 + 3/5*x^5",
    "(y - 1*x)*(y - 3*x)*(y - 5*x)",
    "y^3 - 2/3*x^5",
    "(y + 1/2*x^3)*(y - 1*x^3)",
    "y^3 - 5*x^5 + 1*x^3*y^2",
    "(y + 5*x^2)*(y + 2/3*x^2)*(y - 3/5*x^2)",
    "y^4 - 18*x^3*y^2 - 12*x^5*y + 81*x^6 - x^7",
]

CASES = {
    **{name: ["puiseux", "expand", text] + (["--json"] if name.endswith("_json") else [])
       for name, text in EXPANSIONS.items()},
    **{f"jacobian_{i:02d}": ["curve", "jacobian", text, "--report", "--json"]
       for i, text in enumerate(JACOBIAN_CURVES)},
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


def write_goldens():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        code, out = _run(argv)
        if code:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(out)


if __name__ == "__main__":
    write_goldens()
