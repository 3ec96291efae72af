"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from polyextremal import cli, extremal, polytope
from polyextremal import (DomainError, Degenerate, Empty, GuardExceeded, NoCover,
                          NotFullDimensional, ParseError, PolytopeError, RedundantHalfspace,
                          SupportSet, Unbounded, ZeroNormal, enumerate_supports, from_json)
from polyextremal.extremal import (eval_extremal, eval_extremal_many, eval_interval,
                                   eval_simplex_many)

from conftest import fixture_path, load_fixture, quad_reference


def run_cli(capsys, *argv):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_quad_report(capsys):
    code, out, err = run_cli(capsys, "validate", fixture_path("quad"))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "dim: 2"
    assert lines[1] == "facets: 4"
    assert lines[2] == "vertices: 4"
    radius_line = next(l for l in lines if l.startswith("chebyshev_radius:"))
    assert float(radius_line.split(":")[1]) > 0.4


@pytest.mark.parametrize(
    "name,expected",
    [("quad", 0), ("square", 0), ("triangle", 0), ("cube", 0), ("prism", 0),
     ("quad_vertices", 0), ("quadrant", 3), ("point", 4), ("redundant", 5),
     ("empty", 6)],
)
def test_validate_exit_codes(capsys, name, expected):
    code, _, err = run_cli(capsys, "validate", fixture_path(name))
    assert code == expected
    if expected:
        assert err.startswith("error:")


def test_validate_huge_normal(capsys, tmp_path):
    """A normal whose squared length overflows still gives the triangle."""
    doc = json.loads(Path(fixture_path("triangle")).read_text(encoding="utf-8"))
    doc["halfspaces"][0]["normal"] = [1e200, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "validate", fixture_path("triangle"))[1]


@pytest.mark.parametrize("normal,code", [([1e-16, 0.0], 0), ([1e-170, 0.0], 0), ([0.0, 0.0], 2)])
def test_validate_tiny_normal(capsys, tmp_path, normal, code):
    """A tiny normal, whose squared length may underflow, still gives the
    triangle; only the zero vector is refused, with exit 2."""
    doc = json.loads(Path(fixture_path("triangle")).read_text(encoding="utf-8"))
    doc["halfspaces"][0]["normal"] = normal
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, out, err = run_cli(capsys, "validate", str(path))
    assert got == code
    if code:
        assert err.startswith("error:") and "zero vector" in err
    else:
        assert err == ""
        assert out == run_cli(capsys, "validate", fixture_path("triangle"))[1]


def test_validate_malformed_json(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"dim": 2', encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "JSON" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_validate_schema_error(capsys, tmp_path):
    doc = tmp_path / "both.json"
    doc.write_text(
        json.dumps({"dim": 2, "halfspaces": [], "vertices": []}), encoding="utf-8"
    )
    code, _, err = run_cli(capsys, "validate", str(doc))
    assert code == 2


@pytest.mark.parametrize("text,message", [
    ('[{"dim": 2}]', "top-level JSON value must be an object"),
    ('{"dim": 2, "vertices": []}', "'vertices' must be a nonempty list"),
    ('{"dim": 2, "vertices": [[0, 0], [1, "a"], [0, 1]]}', "vertices must be lists of numbers"),
    ('{"dim": 2, "vertices": [[0, 0], [1e999, 0], [0, 1]]}',
     "vertices must be finite pairs [x, y]"),
    ('{"dim": 2, "halfspaces": []}', "'halfspaces' must be a nonempty list"),
    ('{"dim": 2, "halfspaces": [{"normal": [1, "x"], "offset": 0}]}',
     "halfspace entries must be numeric"),
], ids=["list", "no-vertices", "text-vertex", "infinite-vertex", "no-halfspaces",
        "text-normal"])
def test_validate_off_schema_document(capsys, tmp_path, text, message):
    """Each documented schema error exits 2 with its one ``error:`` line."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "validate", str(path)) == (2, "", f"error: {message}\n")


def test_supports_quad_records(capsys):
    code, out, _ = run_cli(capsys, "supports", fixture_path("quad"))
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    assert [r["kind"] for r in records] == ["simplex", "simplex"]
    assert [r["facets"] for r in records] == [[0, 1, 2], [0, 1, 3]]


def test_supports_square_records(capsys):
    code, out, _ = run_cli(capsys, "supports", fixture_path("square"))
    assert code == 0
    records = json.loads(out)
    assert [r["kind"] for r in records] == ["strip", "strip"]
    assert all(r["cross_dim"] == 1 for r in records)


def test_supports_triangle_single_record(capsys):
    code, out, _ = run_cli(capsys, "supports", fixture_path("triangle"))
    assert code == 0
    assert len(json.loads(out)) == 1


def test_supports_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "supports", fixture_path("prism"))
    _, second, _ = run_cli(capsys, "supports", fixture_path("prism"))
    assert first == second


def _entrywise_records(support_set):
    """``support_records`` with one ``float`` per apex and basis entry."""
    records = []
    for support in support_set:
        strip = support.kind == "strip"
        cross = support.cross_simplex if strip else support
        basis = support.basis if strip else np.eye(support.dim)
        records.append({"kind": support.kind, "facets": list(support.facet_indices),
                        "cross_dim": cross.dim,
                        "apexes": [[float(c) for c in apex] for apex in cross.apexes],
                        "basis": [[float(c) for c in row] for row in basis]})
    return records


def test_supports_stdout_matches_entrywise_records(capsys, tmp_path, monkeypatch):
    """``polyextremal supports`` prints the bytes of records built one float
    at a time, on the fixtures and the benchmark's members."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    inputs = __import__("inputs")
    paths = [fixture_path(name) for name in ("cube", "prism", "quad", "quad_vertices",
                                             "square", "triangle")]
    for workload in inputs.WORKLOADS:
        for seed in (1, 2, 3):
            for member in inputs.make_inputs(workload, seed).members:
                path = tmp_path / f"{workload}-{seed}-{member.name}.json"
                path.write_text(json.dumps(member.document()), encoding="utf-8")
                paths.append(str(path))
    for path in paths:
        code, out, _ = run_cli(capsys, "supports", path)
        support_set = enumerate_supports(from_json(json.loads(Path(path).read_text())))
        assert code == 0
        assert out == json.dumps(_entrywise_records(support_set), indent=2) + "\n"


def test_eval_single_point(capsys):
    code, out, _ = run_cli(capsys, "eval", fixture_path("quad"), "--point", "2,0,2,0")
    assert code == 0
    value, argmax = out.split()
    expected = math.log((13.0 + 4.0 * math.sqrt(10.0)) / 3.0)
    assert float(value) == pytest.approx(expected, abs=1e-12)
    assert argmax in {"0", "1"}


def test_eval_interior_point_is_zero(capsys):
    code, out, _ = run_cli(
        capsys, "eval", fixture_path("quad"), "--point", "0.375,0,0.375,0"
    )
    assert code == 0
    assert out.split()[0] == "0.0"


def test_eval_imaginary_point_closed_form(capsys):
    code, out, _ = run_cli(capsys, "eval", fixture_path("quad"), "--point", "0,1,0,0")
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(quad_reference(1j, 0.0), abs=1e-12)


def test_eval_multiple_points_and_diagnostics(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        fixture_path("quad"),
        "--point", "2,0,0,0",
        "--point", "0,0,2,0",
        "--diagnostics",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        fields = line.split()
        assert len(fields) == 4
        value, argmax, per0, per1 = fields
        assert float(value) == max(float(per0), float(per1))
        assert float(value) == float([per0, per1][int(argmax)])


def test_eval_points_file(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text(
        "# leading comment\n2,0,2,0\n\n0.375,0,0.375,0\n", encoding="utf-8"
    )
    code, out, _ = run_cli(
        capsys, "eval", fixture_path("quad"), "--points-file", str(points)
    )
    assert code == 0
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("name", ["quad", "prism"])
def test_eval_points_file_matches_batch_bitwise(capsys, tmp_path, name):
    """Every line parses back to eval_extremal_many's value and argmax, and
    every diagnostic column to eval_simplex_many of its support."""
    polytope = load_fixture(name)
    supports = enumerate_supports(polytope)
    rng = np.random.default_rng(7)
    points = (rng.uniform(-2.0, 3.0, (40, polytope.dim))
              + 1j * rng.choice([0.0, 1e-7, 0.5], (40, polytope.dim)))
    points[:5] = polytope.interior
    lines = [",".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in z) for z in points]
    points_file = tmp_path / "points.txt"
    points_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", fixture_path(name),
                             "--points-file", str(points_file), "--diagnostics")
    assert code == 0, err
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == len(points)
    assert all(len(row) == 2 + len(supports) for row in rows)
    values, argmax = eval_extremal_many(supports, points)
    assert np.array_equal([float(row[0]) for row in rows], values)
    assert np.array_equal([int(row[1]) for row in rows], argmax)
    for k, support in enumerate(supports):
        column = [float(row[2 + k]) for row in rows]
        assert np.array_equal(column, eval_simplex_many(support, points))


# stdout of ``eval --diagnostics`` from the per-support evaluation loop the
# stacked kernel replaced: the quad has two simplices, the prism two strips.
DIAGNOSTICS_STDOUT = {
    "quad": (["0.25,0,0.25,0", "2,0.5,-1,0.25", "-3,-2,4,1", "1e6,0,0,-1e6"],
             "0.0 0 0.0 0.0\n"
             "1.8604101601362946 1 1.8025147677974664 1.8604101601362946\n"
             "2.784232166273792 1 2.6835365837661884 2.784232166273792\n"
             "15.378873356749393 0 15.378873356749393 15.3788730918381\n"),
    "prism": (["0.1,0,0.1,0,0,0", "2,0.5,-1,0.25,3,-1", "-3,-2,4,1,0.5,0.5",
               "1e6,0,0,-1e6,1,0"],
              "0.0 0 0.0 0.0\n"
              "2.021845204270677 0 2.021845204270677 1.8241987021938828\n"
              "2.856461126637771 0 2.856461126637771 0.530637530952518\n"
              "15.736604708716962 0 15.736604708716962 0.0\n"),
}


@pytest.mark.parametrize("name", DIAGNOSTICS_STDOUT)
def test_eval_diagnostics_stdout_is_unchanged(capsys, name):
    points, expected = DIAGNOSTICS_STDOUT[name]
    code, out, err = run_cli(capsys, "eval", fixture_path(name), "--diagnostics",
                             *[f"--point={point}" for point in points])
    assert code == 0, err
    assert out == expected


def test_diagnostics_run_the_kernel_once_per_chunk(capsys, monkeypatch):
    """``eval --diagnostics`` and ``eval_extremal(diagnostics=True)`` read the
    value and argmax off every support's sums: one kernel pass per chunk,
    half the passes of evaluating the points twice."""
    calls = []
    original = extremal._sums
    monkeypatch.setattr(extremal, "_sums", lambda *args: calls.append(args) or original(*args))
    support_set = enumerate_supports(load_fixture("quad"))
    eval_extremal(support_set, np.array([2.0 + 0j, 2.0 + 0j]), diagnostics=True)
    assert len(calls) == 1
    calls.clear()
    # two points a pass: the quad has 4 facets and 2 supports
    monkeypatch.setattr(extremal, "_CHUNK", 2 * (8 * 5 + 32 * 4 + 16 * 2))
    assert extremal._chunk_points(4, 2) == 2
    points = DIAGNOSTICS_STDOUT["quad"][0] + ["1,0,1,0"]
    code, out, err = run_cli(capsys, "eval", fixture_path("quad"), "--diagnostics",
                             *[f"--point={point}" for point in points])
    assert code == 0, err
    assert out.startswith(DIAGNOSTICS_STDOUT["quad"][1])
    assert len(calls) == 3


def test_eval_diagnostics_keep_the_value_and_argmax_of_a_screened_stack(
        capsys, tmp_path, monkeypatch):
    """On tangent d=3 n=14, whose 190 supports make a wide stack, a plain
    ``eval`` of 1,200 points, six passes, takes the screened route and
    ``--diagnostics`` the exact one; each line's first two fields agree."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    inputs = __import__("inputs")
    member = inputs.make_inputs("setup-tangent", 3).members[0]
    assert member.name == "tangent-d3-n14"
    path, points_file = tmp_path / "tangent.json", tmp_path / "points.txt"
    path.write_text(json.dumps(member.document()), encoding="utf-8")
    points_file.write_text("\n".join(inputs.format_point(z) for z in member.batch_points) + "\n",
                           encoding="utf-8")
    table = enumerate_supports(from_json(member.document())).stack_table
    assert extremal._screens(table, len(member.batch_points))
    code, plain, _ = run_cli(capsys, "eval", str(path), "--points-file", str(points_file))
    assert code == 0
    code, diagnosed, _ = run_cli(capsys, "eval", str(path), "--points-file", str(points_file),
                                 "--diagnostics")
    assert code == 0
    assert plain.splitlines() == [" ".join(line.split()[:2]) for line in diagnosed.splitlines()]


def test_eval_diagnostics_keep_the_value_and_argmax_of_a_pruned_set(capsys, tmp_path):
    """On the 24-gon, which is maximized over its 12 slabs, ``--diagnostics``
    appends all 452 support values and leaves each line's first two fields
    the bytes of a plain ``eval``."""
    half = [[math.cos(a), math.sin(a)] for a in np.arange(12) * (math.pi / 12)]
    document = {"dim": 2, "halfspaces": [{"normal": n, "offset": 1.0} for n in half]
                + [{"normal": [-x for x in n], "offset": 1.0} for n in half]}
    path = tmp_path / "ngon.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    points = ["0,0,0.5,0", "2,0.5,-1,0.25", "-3,-2,4,1", "1.1,0,0.2,0", "0,1,0,0"]
    args = ["eval", str(path), *[f"--point={point}" for point in points]]
    code, plain, err = run_cli(capsys, *args)
    assert code == 0, err
    code, full, err = run_cli(capsys, *args, "--diagnostics")
    assert code == 0, err
    rows = [line.split(" ") for line in full.splitlines()]
    assert all(len(row) == 2 + 452 for row in rows)
    assert "".join(" ".join(row[:2]) + "\n" for row in rows) == plain
    assert plain.splitlines()[0] == "0.0 0"


@pytest.mark.parametrize("name", ["quad", "quad_vertices", "square", "triangle", "cube", "prism"])
def test_eval_diagnostics_and_plain_eval_agree(capsys, tmp_path, name):
    """On every fixture, each ``eval --diagnostics`` line begins with the value
    and argmax bytes of plain ``eval``: both read them off the same sums.
    The points include ties on the quad's lines x = y and x + y = 1."""
    polytope = load_fixture(name)
    rng = np.random.default_rng(71)
    points = (rng.uniform(-3.0, 3.0, (60, polytope.dim))
              + 1j * rng.choice([0.0, 1e-9, 0.5], (60, polytope.dim)))
    axis = np.linspace(-1.0, 4.0, 21)
    if name == "quad":
        points = np.vstack([points, np.stack([axis, axis], axis=1),
                            np.stack([axis, 1.0 - axis], axis=1)])
    lines = [",".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in z) for z in points]
    points_file = tmp_path / "points.txt"
    points_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["eval", fixture_path(name), "--points-file", str(points_file)]
    code, plain, err = run_cli(capsys, *args)
    assert code == 0, err
    code, full, err = run_cli(capsys, *args, "--diagnostics")
    assert code == 0, err
    assert [line.split(" ")[:2] for line in full.splitlines()] == [
        line.split(" ") for line in plain.splitlines()]
    if name == "quad":
        assert all(line.split(" ")[1] == "0" for line in plain.splitlines()[60:])


def test_eval_rejects_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "eval", fixture_path("quad"), "--point", "1,2,3")
    assert code == 2
    assert "expected" in err or "point" in err


def test_eval_requires_some_point(capsys):
    code, _, err = run_cli(capsys, "eval", fixture_path("quad"))
    assert code == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--point", "a,b,c,d", "point 'a,b,c,d': could not convert string to float: 'a'"),
    ("--points-file", "missing.txt", "cannot read {path}: "),
])
def test_eval_rejects_unreadable_points(capsys, tmp_path, flag, value, message):
    """A point that is not numbers, or a points file that cannot be read,
    exits 2 with one ``error:`` line, which names the file."""
    if flag == "--points-file":
        value = str(tmp_path / value)
    code, out, err = run_cli(capsys, "eval", fixture_path("quad"), flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message.format(path=value)}") and err.count("\n") == 1


@pytest.mark.parametrize("point", ["nan,0,0,0", "0,0,inf,0", "0,-inf,0,0"])
def test_eval_rejects_non_finite_point(capsys, tmp_path, point):
    code, out, err = run_cli(capsys, "eval", fixture_path("quad"), "--point", point)
    assert code == 2
    assert out == ""
    assert "not finite" in err
    points = tmp_path / "points.txt"
    points.write_text(f"0.25,0,0.25,0\n{point}\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "eval", fixture_path("quad"), "--points-file", str(points))
    assert code == 2
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("shift", [1e5, 1e6])
def test_eval_translated_square(capsys, tmp_path, shift):
    """The unit square moved by a large shift evaluates like the unmoved one
    at the same relative points, exactly 0 at interior ones."""
    def square_file(offset):
        path = tmp_path / f"square_{offset!r}.json"
        halfspaces = [{"normal": [1.0, 0.0], "offset": -offset},
                      {"normal": [-1.0, 0.0], "offset": offset + 1.0},
                      {"normal": [0.0, 1.0], "offset": -offset},
                      {"normal": [0.0, -1.0], "offset": offset + 1.0}]
        path.write_text(json.dumps({"dim": 2, "halfspaces": halfspaces}),
                        encoding="utf-8")
        return str(path)

    relative = [(0.25, 0.0, 0.75, 0.0), (0.5, 0.0, 0.5, 0.0),
                (0.25, 0.5, 1.5, -0.25), (-0.75, 0.0, 0.5, 0.0), (2.0, 1.0, 0.125, 0.0)]

    def values(offset):
        argv = ["eval", square_file(offset)]
        for re1, im1, re2, im2 in relative:
            argv.append(f"--point={re1 + offset!r},{im1!r},{re2 + offset!r},{im2!r}")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return [float(line.split()[0]) for line in out.splitlines()]

    expected = values(0.0)
    got = values(shift)
    assert got[:2] == [0.0, 0.0]
    assert all(v > 0.0 for v in got[2:])
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12


def test_grid_small_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "re1,re2", "--bounds", "0,1,0,1",
        "--resolution", "2", "--out", str(out_path), "--reproducible",
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "u,v,value,argmax"
    assert len(lines) == 5
    parsed = [line.split(",") for line in lines[1:]]
    assert [(p[0], p[1]) for p in parsed] == [
        ("0.0", "0.0"), ("1.0", "0.0"), ("0.0", "1.0"), ("1.0", "1.0")
    ]


def test_grid_row_count_matches_resolution(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "re1,re2", "--bounds=-1,4,-1,4",
        "--resolution", "11", "--out", str(out_path), "--reproducible",
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 11 * 11


def test_grid_values_inside_polytope_are_zero(capsys, tmp_path):
    quad = load_fixture("quad")
    out_path = tmp_path / "grid.csv"
    run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "re1,re2", "--bounds=-0.5,1.5,-0.5,1.5",
        "--resolution", "9", "--out", str(out_path), "--reproducible",
    )
    from polyextremal.polytope import contains

    for line in out_path.read_text(encoding="utf-8").splitlines()[1:]:
        u, v, value, _ = line.split(",")
        point = np.array([float(u), float(v)])
        if contains(quad, point):
            assert float(value) <= 1e-9
        else:
            assert float(value) > 1e-9


def test_grid_csv_reference_values(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "re1,im1", "--bounds=-2,2,-1,1",
        "--resolution", "7", "--out", str(out_path),
        "--fixed", "re2=0.25,im2=-0.5", "--reproducible",
    )
    for line in out_path.read_text(encoding="utf-8").splitlines()[1:]:
        u, v, value, _ = line.split(",")
        z1 = complex(float(u), float(v))
        z2 = complex(0.25, -0.5)
        assert float(value) == pytest.approx(quad_reference(z1, z2), abs=1e-12)


def test_grid_square_matches_interval_oracle(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    run_cli(
        capsys, "grid", fixture_path("square"),
        "--plane", "re1,im1", "--bounds=-2,2,-2,2",
        "--resolution", "9", "--out", str(out_path),
        "--fixed", "re2=0.3,im2=0", "--reproducible",
    )
    for line in out_path.read_text(encoding="utf-8").splitlines()[1:]:
        u, v, value, _ = line.split(",")
        expected = max(
            eval_interval(-1.0, 1.0, complex(float(u), float(v))),
            eval_interval(-1.0, 1.0, 0.3 + 0j),
        )
        assert float(value) == pytest.approx(expected, abs=1e-12)


def test_grid_json_format(capsys, tmp_path):
    out_path = tmp_path / "grid.json"
    code, _, _ = run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "im1,im2", "--bounds=-1,1,-1,1",
        "--resolution", "2", "--out", str(out_path),
        "--format", "json", "--fixed", "re1=0.5,re2=-0.25", "--reproducible",
    )
    assert code == 0
    body = json.loads(out_path.read_text(encoding="utf-8"))
    assert body["plane"] == ["im1", "im2"]
    assert body["resolution"] == 2
    assert body["fixed"] == {"re1": 0.5, "re2": -0.25}
    assert len(body["rows"]) == 4
    assert "generated" not in body


def test_grid_failed_replace_leaves_no_file(capsys, tmp_path, monkeypatch):
    """The grid is written to a ``.grid-*`` temporary file and moved into
    place; when the move fails, the command exits 1 and leaves neither."""
    def fail(*_):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run_cli(
        capsys, "grid", fixture_path("quad"), "--plane", "re1,re2", "--bounds", "0,1,0,1",
        "--resolution", "2", "--out", str(tmp_path / "grid.csv"),
    )
    assert (code, out, err) == (1, "", "error: rename failed\n")
    assert list(tmp_path.iterdir()) == []


def test_grid_timestamp_header_unless_reproducible(capsys, tmp_path):
    stamped = tmp_path / "a.csv"
    run_cli(
        capsys, "grid", fixture_path("triangle"),
        "--plane", "re1,re2", "--bounds", "0,1,0,1",
        "--resolution", "2", "--out", str(stamped),
    )
    lines = stamped.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == "u,v,value,argmax"
    stamped = tmp_path / "a.json"
    run_cli(
        capsys, "grid", fixture_path("triangle"),
        "--plane", "re1,re2", "--bounds", "0,1,0,1",
        "--resolution", "2", "--out", str(stamped), "--format", "json",
    )
    generated = json.loads(stamped.read_text(encoding="utf-8"))["generated"]
    assert datetime.fromisoformat(generated).utcoffset() == timedelta(0)


def test_grid_parallel_runs_are_byte_identical(capsys, tmp_path, monkeypatch):
    """Any --jobs gives the bytes of --jobs 1: 3 does not divide the rows,
    and 5 asks for more workers than a resolution-2 grid has points.  The
    square's and the cube's stacks have mirrored rows, which reach the
    workers in their table.  The pool is forced on for these narrow stacks."""
    monkeypatch.setattr(cli, "_pool_pays", lambda *args: True)
    for name in ("quad", "square", "cube"):
        for resolution, jobs_values in (("15", ("1", "2", "3")), ("2", ("1", "5"))):
            outputs = []
            for jobs in jobs_values:
                out_path = tmp_path / f"{name}-res{resolution}-jobs{jobs}.csv"
                code, _, _ = run_cli(
                    capsys, "grid", fixture_path(name),
                    "--plane", "re1,re2", "--bounds=-1,4,-1,4",
                    "--resolution", resolution, "--out", str(out_path),
                    "--jobs", jobs, "--reproducible",
                )
                assert code == 0
                outputs.append(out_path.read_bytes())
            assert all(output == outputs[0] for output in outputs)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    function and arguments of every task, and maps in process."""

    created: list = []
    tasks: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, function, *iterables):
        tasks = [(function, *arguments) for arguments in zip(*iterables)]
        self.tasks.extend(tasks)
        return [function(*arguments) for _, *arguments in tasks]


def _leaves(value):
    """The objects inside tuples and lists, recursively."""
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_grid_workers_get_the_stack_table_alone(capsys, tmp_path, monkeypatch):
    """A worker is sent the evaluation stack's arrays and counts, never the
    support set or its polytope, which pickle to a hundred times the bytes."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "tasks", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_pool_pays", lambda *args: True)
    for name in ("quad", "cube"):
        code, _, _ = run_cli(
            capsys, "grid", fixture_path(name), "--plane", "re1,re2", "--bounds=-1,4,-1,4",
            "--resolution", "5", "--out", str(tmp_path / f"{name}.csv"), "--jobs", "2",
        )
        assert code == 0
    assert len(_SerialPool.tasks) == 4
    leaves = _leaves(_SerialPool.tasks)
    assert not any(isinstance(leaf, (SupportSet, polytope.PolytopeH, polytope.Halfspace))
                   for leaf in leaves)
    assert all(isinstance(leaf, (np.ndarray, int)) or leaf is extremal._eval_stack
               for leaf in leaves)


@pytest.mark.parametrize("cpus,expected", [(3, 3), (None, None), (64, 25)])
def test_grid_workers_are_bounded(capsys, tmp_path, monkeypatch, cpus, expected):
    """--jobs 100000 starts at most min(points, os.cpu_count()) workers, and
    none at all when only one is worth it; the bytes stay those of --jobs 1.
    The pool is forced on for the prism's narrow stack."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(cli, "_pool_pays", lambda *args: True)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    outputs = []
    for jobs in ("1", "100000"):
        out_path = tmp_path / f"jobs{jobs}.csv"
        code, _, _ = run_cli(
            capsys, "grid", fixture_path("prism"),
            "--plane", "re1,im3", "--bounds=-2,2,-2,2", "--fixed", "re2=0.1",
            "--resolution", "5", "--out", str(out_path),
            "--jobs", jobs, "--reproducible",
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert _SerialPool.created == ([] if expected is None else [expected])


def test_grid_starts_the_pool_only_for_enough_sums(capsys, tmp_path, monkeypatch):
    """--jobs 2 maps no task for the 24-gon's 12 slabs on a 41x41 grid,
    20,172 sums, and two workers' tasks for the 21,901 supports of 46
    tangent facets in R^3 there, 36.8 million; the bytes are those of
    --jobs 1 both times.  ``_pool_pays`` holds only for a wide stack the
    kernel does not screen, over 16 million sums: never for the 24-gon's
    narrow stack or the screened 190 supports of tangent d=3 n=14."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(_SerialPool, "tasks", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    inputs = __import__("inputs")
    normals = {"ngon": inputs.ngon_normals(24),
               "wide": inputs.tangent_normals(3, 46, np.random.default_rng(3))}
    stacks = {}
    for name, rows in normals.items():
        path = tmp_path / f"{name}.json"
        document = {"dim": rows.shape[1], "halfspaces": [
            {"normal": row.tolist(), "offset": 1.0} for row in rows]}
        path.write_text(json.dumps(document))
        supports = enumerate_supports(from_json(document))
        stacks[name] = supports.stack_table, len(supports.stack)
        outputs = []
        for jobs in ("1", "2"):
            out_path = tmp_path / f"{name}-{jobs}.csv"
            code, _, _ = run_cli(
                capsys, "grid", str(path), "--plane", "re1,im2", "--bounds=-2,2,-2,2",
                "--resolution", "41", "--out", str(out_path), "--jobs", jobs, "--reproducible")
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert _SerialPool.created == ([] if name == "ngon" else [2])
        assert len(_SerialPool.tasks) == (0 if name == "ngon" else 2)
    screened = enumerate_supports(from_json(
        inputs.make_inputs("setup-tangent", 3).members[0].document()))
    stacks["screened"] = screened.stack_table, len(screened.stack)
    assert stacks["screened"][1] == 189 and extremal._screens(stacks["screened"][0], 10 ** 6)
    assert cli._pool_pays(*stacks["wide"], 731)
    assert not cli._pool_pays(*stacks["wide"], 730)
    assert not cli._pool_pays(*stacks["ngon"], 10 ** 9)
    assert not cli._pool_pays(*stacks["screened"], 10 ** 7)


def test_cli_import_leaves_the_process_pool_out():
    """A fresh ``import polyextremal.cli`` loads neither ``multiprocessing`` nor
    ``concurrent.futures.process``: only ``grid`` with more than one worker
    imports the pool, and every other command starts without it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, polyextremal.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--plane", "re1", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1,re3", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1,re1", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds", "0,1,0,1", "--resolution", "1"],
        ["--plane", "re1,re2", "--bounds", "1,0,0,1", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds", "0,1,0", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds", "0,1,0,1", "--resolution", "3",
         "--jobs", "0"],
        ["--plane", "re1,im1", "--bounds", "0,1,0,1", "--resolution", "3",
         "--fixed", "im1=2"],
        ["--plane", "re1,im1", "--bounds", "0,1,0,1", "--resolution", "3",
         "--fixed", "bogus=2"],
        ["--plane", "re1,im1", "--bounds", "0,1,0,1", "--resolution", "3",
         "--fixed", "re2=nan"],
        ["--plane", "re1,re2", "--bounds", "0,inf,0,1", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds=-1e308,1e308,0,1", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds", "0,1,0,1", "--resolution", "3", "--fixed", "im1"],
        ["--plane", "rex,re2", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds=-1,4,x,4", "--resolution", "3"],
        # coordinates are compared by the coordinate they name, not the spelling
        ["--plane", "re1,re01", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1,re2", "--bounds", "0,1,0,1", "--resolution", "3", "--fixed", "re01=9"],
        ["--plane", "re1,im1", "--bounds", "0,1,0,1", "--resolution", "3",
         "--fixed", "re2=1,re2=5"],
        # a name is re or im and ASCII digits, nothing else int() would read
        ["--plane", "re+1,re2", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re١,re2", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re 1,re2", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1_0,re2", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re,re2", "--bounds", "0,1,0,1", "--resolution", "3"],
        ["--plane", "re1,im1", "--bounds", "0,1,0,1", "--resolution", "3",
         "--fixed", "im+2=1"],
    ],
)
def test_grid_flag_validation(capsys, tmp_path, extra):
    out_path = tmp_path / "never.csv"
    code, out, err = run_cli(
        capsys, "grid", fixture_path("quad"), *extra, "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_grid_unspecified_coordinates_default_to_zero(capsys, tmp_path):
    """Coordinates neither swept nor fixed sit at 0, matching a real slice."""
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "re1,im1", "--bounds", "0,1,0,1",
        "--resolution", "3", "--out", str(out_path), "--reproducible",
    )
    assert code == 0
    for line in out_path.read_text(encoding="utf-8").splitlines()[1:]:
        u, v, value, _ = line.split(",")
        z1 = complex(float(u), float(v))
        assert float(value) == pytest.approx(quad_reference(z1, 0.0), abs=1e-12)


def test_grid_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "grid.csv"
    code, _, err = run_cli(
        capsys, "grid", fixture_path("quad"),
        "--plane", "re1,re2", "--bounds", "0,1,0,1",
        "--resolution", "2", "--out", str(target), "--reproducible",
    )
    assert code == 1
    assert not target.exists()


def test_extremal_tol_env_changes_validation(capsys, monkeypatch, tmp_path):
    thin = tmp_path / "thin.json"
    thin.write_text(json.dumps({
        "dim": 2,
        "halfspaces": [
            {"normal": [1.0, 0.0], "offset": 0.0},
            {"normal": [-1.0, 0.0], "offset": 1e-6},
            {"normal": [0.0, 1.0], "offset": 0.0},
            {"normal": [0.0, -1.0], "offset": 1.0},
        ],
    }), encoding="utf-8")
    code, _, _ = run_cli(capsys, "validate", str(thin))
    assert code == 0
    monkeypatch.setenv("EXTREMAL_TOL", "1e-3")
    code, _, _ = run_cli(capsys, "validate", str(thin))
    assert code == 4


def test_extremal_tol_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("EXTREMAL_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "validate", fixture_path("quad"))
    assert code == 2
    assert "EXTREMAL_TOL" in err


@pytest.mark.parametrize("failure,code", [
    (ParseError("bad document"), 2),
    (ZeroNormal("zero normal"), 2),
    (GuardExceeded("too many subsets"), 2),
    (Unbounded("unbounded"), 3),
    (NotFullDimensional("flat"), 4),
    (RedundantHalfspace(3), 5),
    (Empty("empty"), 6),
    (Degenerate("collinear"), 1),
    (PolytopeError("other"), 1),
    (NoCover(2), 1),
    (DomainError("below 1"), 1),
    (OSError("disk full"), 1),
    (MemoryError("Unable to allocate 74.5 GiB for an array"), 1),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_exit_code_table(capsys, monkeypatch, failure, code):
    """Each library failure reaches the user as one ``error:`` line on stderr
    and its documented exit code."""
    def fail(_):
        raise failure
    monkeypatch.setattr(cli, "enumerate_supports", fail)
    assert run_cli(capsys, "supports", fixture_path("quad")) == (code, "", f"error: {failure}\n")


def test_unlisted_exception_is_not_swallowed(capsys, monkeypatch):
    """An exception outside the table is a bug: it propagates with its traceback."""
    def fail(*_):
        raise RuntimeError("bug")
    monkeypatch.setattr(cli, "from_json", fail)
    with pytest.raises(RuntimeError):
        cli.main(["validate", fixture_path("quad")])


def test_subset_guard(capsys, monkeypatch):
    """Past SUBSET_GUARD facet subsets, validation refuses with GuardExceeded: exit 2."""
    monkeypatch.setattr(polytope, "SUBSET_GUARD", 9)  # the quad visits 6 + 4 subsets
    with pytest.raises(GuardExceeded):
        load_fixture("quad")
    code, out, err = run_cli(capsys, "supports", fixture_path("quad"))
    assert (code, out) == (2, "")
    assert err == "error: 10 facet subsets exceed the guard 9\n"


def test_supports_of_a_25_gon_in_vertex_form(capsys, tmp_path):
    """A regular 25-gon given by its vertices, more than 24 facets in the
    plane, sets up: every facet is in some support."""
    angles = 2.0 * np.pi * np.arange(25) / 25
    path = tmp_path / "ngon25.json"
    path.write_text(json.dumps({"dim": 2, "vertices": np.column_stack(
        [np.cos(angles), np.sin(angles)]).tolist()}), encoding="utf-8")
    code, out, err = run_cli(capsys, "supports", str(path))
    assert (code, err) == (0, "")
    records = json.loads(out)
    assert {facet for record in records for facet in record["facets"]} == set(range(25))
    assert {record["kind"] for record in records} == {"simplex"}


def test_eval_translated_quad_domain_error_exits_1(tmp_path):
    """Far from the origin roundoff can push a barycentric sum below the
    domain band: the quad moved by (1e7, 1e7) does so at an interior point.
    The command ends with exit 1 and an ``error:`` line, not a traceback."""
    shift = np.array([1e7, 1e7])
    halfspaces = [{"normal": h.normal.tolist(), "offset": h.offset - float(h.normal @ shift)}
                  for h in load_fixture("quad").halfspaces]
    path = tmp_path / "far_quad.json"
    path.write_text(json.dumps({"dim": 2, "halfspaces": halfspaces}), encoding="utf-8")
    x = repr(1e7 + 0.41886116991581035)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("EXTREMAL_TOL", None)
    done = subprocess.run(
        [sys.executable, "-m", "polyextremal", "eval", str(path), f"--point={x},0,{x},0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "below 1" in done.stderr
    assert "Traceback" not in done.stderr
