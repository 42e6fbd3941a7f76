"""The command line's contract, on hypothesis examples run in-process
through cli.main: every run either exits 0 with finite numbers and no
warning, or exits 2 (error) or 3 (numeric error) with one line on
stderr that says so.  The values are drawn from a set that holds the
edges of the float range, its non-finite values and ordinary ones."""

import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from spherecone import cli

VALUES = ["0", "1", "-1", "1e-308", "5e-324", "1e308", "inf", "nan", "0.5",
          "1.5", "3", "100"]
value = st.sampled_from(VALUES)
kernel = st.tuples(value, value, value)
# small runs, the same examples every time
contract = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)

THREE_POINTS = "x1,x2,x3\n1,0,0\n0,1,0\n0,0,1\n"
points = st.one_of(
    st.just(THREE_POINTS),
    st.builds(lambda header, rows: header + "\n" + "".join(
        ",".join(row) + "\n" for row in rows),
        st.sampled_from(["x1,x2,x3", "radius,y1,y2,y3"]),
        st.lists(st.lists(value, min_size=2, max_size=4), min_size=1,
                 max_size=3)))


def run(argv, csv_text=None):
    """cli.main(argv) with any warning raised as an error, also in the
    pool's workers, and {points} in argv replaced by a file holding
    csv_text: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.csv")
        if csv_text is not None:
            with open(path, "w") as fh:
                fh.write(csv_text)
        argv = [path if a == "{points}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def numbers(text):
    """The numbers of a JSON object, a bare number or CSV rows; the
    cells that are not numbers (headers, names) are left out."""
    try:
        data = json.loads(text)
    except ValueError:
        cells = [c for line in text.splitlines() for c in line.split(",")]
    else:
        cells = list(data.values()) if isinstance(data, dict) else [data]
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            pass
    return out


def check(argv, csv_text=None):
    code, out, err = run(argv, csv_text)
    if code == 0:
        notes = err.splitlines()
        assert all(line.startswith("# ") for line in notes), err
        found = numbers(out) + [float(line.split()[-1]) for line in notes]
        assert found and all(math.isfinite(v) for v in found), (argv, out,
                                                                 err)
    else:
        assert code in (2, 3), (argv, code)
        lines = err.splitlines()
        prefix = "error: " if code == 2 else "numeric error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err)
        assert out == "", (argv, out)


def kernel_args(k):
    return ["--mu", k[0], "--A", k[1], "--B", k[2]]


@contract
@given(kernel, points)
@example(("1e308", "1.5", "130"), THREE_POINTS)
@example(("1e-308", "2", "3"), THREE_POINTS)
@example(("1.5", "1.5", "3"), "x1,x2,x3\n1,0\n")
@example(("1.5", "1.5", "3"), "radius,y1,y2,y3\n1,1,0\n")
@example(("1.5", "1.5", "3"), "radius,y1,y2,y3\n1,1e308,1.5,1e-308\n")
@example(("1e308", "3", "1e308"), THREE_POINTS)
def test_wce(k, csv_text):
    check(["wce", "--input", "{points}", *kernel_args(k)], csv_text)


@contract
@given(kernel, st.sampled_from(["-1", "0", "1", "2", "3"]),
       st.sampled_from(["-1", "0", "1", "8"]), st.booleans())
@example(("1e308", "1.5", "130"), "2", "8", False)
@example(("1e-308", "2", "3"), "2", "8", True)
def test_rms_wce(k, d, n, with_input):
    argv = ["rms-wce", *kernel_args(k), "--d", d, "--N", n]
    check(argv + ["--input", "{points}"] if with_input else argv,
          THREE_POINTS)


@settings(contract, max_examples=80)
@given(value, value, st.sampled_from(["-1", "0", "1", "3", "16"]))
@example("1e308", "3", "3")
@example("5e-324", "3", "16")
def test_lambda(mu, c, K):
    check(["lambda", "--mu", mu, "--c", c, "--K", K])


@settings(contract, max_examples=30)
@given(kernel, st.sampled_from(["4", "4,9", "1,4"]),
       st.sampled_from(["0", "2"]))
@example(("1e308", "1.5", "130"), "4,9", "0")
@example(("1e-308", "2", "3"), "4,9", "2")
@example(("1e308", "100", "130"), "4", "2")
@example(("1", "1.5", "1e308"), "1,4", "2")
@example(("1e-308", "5e-324", "1e-308"), "1,4", "2")
def test_strata(k, m_list, draws):
    check(["strata", *kernel_args(k), "--M-list", m_list, "--draws", draws,
           "--seed", "3"])


def spec_args(kind, s0, strike, T, sigma, r, barrier):
    argv = ["--kind", kind, "--S0", s0, "--K", strike, "--T", T,
            "--sigma", sigma, "--r", r, "--steps", "3"]
    return argv + ["--barrier", barrier] if kind == "barrier" else argv


spec = st.tuples(st.sampled_from(["asian", "barrier", "digital"]), value,
                 value, value, value, value, value)


@contract
@given(spec, st.sampled_from(["mc", "sobol", "sphere"]),
       st.sampled_from(["standard", "pca"]))
@example(("asian", "100", "100", "1e308", "0.2", "0.05", "0"), "sobol",
         "standard")
@example(("digital", "1e308", "100", "1", "0", "100", "0"), "sobol",
         "standard")
def test_price(spec_values, gen, construction):
    check(["price", *spec_args(*spec_values), "--N", "4", "--reps", "2",
           "--gen", gen, "--construction", construction])


@settings(contract, max_examples=20)
@given(spec)
@example(("asian", "100", "100", "1e308", "0.2", "0.05", "0"))
def test_table(spec_values):
    check(["table", *spec_args(*spec_values), "--n-list", "128"])
