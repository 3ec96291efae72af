"""Command-line front end: validate, supports, eval, grid.

The grid subcommand sweeps a 2-D real slice of C^d.  Real coordinates are
named re1, im1, ..., reD, imD; two of them vary over the grid (--plane) and
the rest sit at fixed values (--fixed, default 0).  Output is a CSV with
header ``u,v,value,argmax`` (or the JSON equivalent), written atomically:
rows appear row-major with u varying fastest, floats serialized with repr
(shortest round-trip), and a run with --reproducible omits the timestamp
comment so identical inputs give byte-identical files.

Every evaluation is one ``eval_extremal_many`` call over all of a command's
points.  ``grid --jobs K`` splits the points into one contiguous chunk per
worker, with at most min(K, points, os.cpu_count()) workers; the kernel is
elementwise per point, so the bytes are the same at any --jobs level.

Exit codes: 0 success, 2 unreadable/ill-formed input (usage errors and
NaN or infinite coordinates included), 3 unbounded, 4 not full-dimensional,
5 redundant halfspace, 6 empty, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from .extremal import eval_extremal_many, eval_simplex_many
# Unused here, but kept: the benchmark's tracer wraps ``cli.eval_extremal`` by name.
from .extremal import eval_extremal  # noqa: F401
from .linalg import Tolerances, DEFAULT_TOL
from .polytope import (
    Empty,
    GuardExceeded,
    NotFullDimensional,
    ParseError,
    PolytopeH,
    PolytopeError,
    RedundantHalfspace,
    Unbounded,
    ZeroNormal,
    from_json,
)
from .supports import NoCover, SupportSet, enumerate_supports, support_records

EXIT_PARSE = 2
EXIT_UNBOUNDED = 3
EXIT_NOT_FULL_DIM = 4
EXIT_REDUNDANT = 5
EXIT_EMPTY = 6


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _coordinate_index(name: str, dim: int) -> tuple[int, bool]:
    """Map a coordinate name to (component index, is_imaginary)."""
    if name.startswith("re"):
        imaginary = False
    elif name.startswith("im"):
        imaginary = True
    else:
        raise CliFailure(EXIT_PARSE, f"unknown coordinate {name!r}")
    try:
        index = int(name[2:]) - 1
    except ValueError:
        raise CliFailure(EXIT_PARSE, f"unknown coordinate {name!r}") from None
    if not 0 <= index < dim:
        raise CliFailure(EXIT_PARSE, f"coordinate {name!r} out of range for dim {dim}")
    return index, imaginary


def _load_polytope(path: str, tol: Tolerances) -> PolytopeH:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliFailure(EXIT_PARSE, f"malformed JSON in {path}: {exc}") from exc
    try:
        return from_json(document, tol)
    except Unbounded as exc:
        raise CliFailure(EXIT_UNBOUNDED, f"{path}: {exc}") from exc
    except NotFullDimensional as exc:
        raise CliFailure(EXIT_NOT_FULL_DIM, f"{path}: {exc}") from exc
    except RedundantHalfspace as exc:
        raise CliFailure(EXIT_REDUNDANT, f"{path}: {exc}") from exc
    except Empty as exc:
        raise CliFailure(EXIT_EMPTY, f"{path}: {exc}") from exc
    except (ParseError, ZeroNormal, GuardExceeded) as exc:
        raise CliFailure(EXIT_PARSE, f"{path}: {exc}") from exc
    except PolytopeError as exc:
        raise CliFailure(1, f"{path}: {exc}") from exc


def _supports_for(polytope: PolytopeH) -> SupportSet:
    try:
        return enumerate_supports(polytope)
    except GuardExceeded as exc:
        raise CliFailure(EXIT_PARSE, str(exc)) from exc
    except NoCover as exc:
        raise CliFailure(1, str(exc)) from exc


def _format_point(values: np.ndarray) -> str:
    return "(" + ", ".join(repr(float(v)) for v in values) + ")"


def cmd_validate(args, tol: Tolerances) -> int:
    polytope = _load_polytope(args.file, tol)
    print(f"dim: {polytope.dim}")
    print(f"facets: {len(polytope.halfspaces)}")
    print(f"vertices: {polytope.vertices.shape[0]}")
    for vertex in polytope.vertices:
        print(f"  {_format_point(vertex)}")
    print(f"interior: {_format_point(polytope.interior)}")
    print(f"chebyshev_radius: {polytope.radius!r}")
    return 0


def cmd_supports(args, tol: Tolerances) -> int:
    polytope = _load_polytope(args.file, tol)
    records = support_records(_supports_for(polytope))
    print(json.dumps(records, indent=2))
    return 0


def _parse_real(text: str, what: str) -> float:
    """A finite float, or a usage failure naming ``what``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise CliFailure(EXIT_PARSE, f"{what}: {exc}") from exc
    if not math.isfinite(value):
        raise CliFailure(EXIT_PARSE, f"{what}: {text.strip()!r} is not finite")
    return value


def _parse_point(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2 * dim:
        raise CliFailure(
            EXIT_PARSE,
            f"point {text!r}: expected {2 * dim} reals (re, im per coordinate), got {len(parts)}")
    reals = [_parse_real(p, f"point {text!r}") for p in parts]
    return np.array([complex(reals[2 * i], reals[2 * i + 1]) for i in range(dim)])


def cmd_eval(args, tol: Tolerances) -> int:
    polytope = _load_polytope(args.file, tol)
    texts = list(args.point or [])
    if args.points_file:
        try:
            with open(args.points_file, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        texts.append(line)
        except OSError as exc:
            raise CliFailure(EXIT_PARSE, f"cannot read {args.points_file}: {exc}") from exc
    if not texts:
        raise CliFailure(EXIT_PARSE, "no points given: use --point or --points-file")
    points = np.array([_parse_point(text, polytope.dim) for text in texts])
    supports = _supports_for(polytope)
    values, argmax = eval_extremal_many(supports, points)
    lines = [f"{value!r} {index}" for value, index in zip(values.tolist(), argmax.tolist())]
    if args.diagnostics:
        columns = [eval_simplex_many(support, points).tolist() for support in supports]
        lines = [line + " " + " ".join(repr(column[j]) for column in columns)
                 for j, line in enumerate(lines)]
    print("\n".join(lines))
    return 0


def _eval_chunks(supports: SupportSet, points: np.ndarray, jobs: int):
    """``eval_extremal_many`` over the points, one contiguous chunk per
    worker process when more than one is worth starting."""
    workers = min(jobs, points.shape[0], os.cpu_count() or 1)
    if workers <= 1:
        return eval_extremal_many(supports, points)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(eval_extremal_many, [supports] * workers,
                              np.array_split(points, workers)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def cmd_grid(args, tol: Tolerances) -> int:
    polytope = _load_polytope(args.file, tol)
    dim = polytope.dim
    plane = [p.strip() for p in args.plane.split(",")]
    if len(plane) != 2 or plane[0] == plane[1]:
        raise CliFailure(EXIT_PARSE, "--plane needs two distinct coordinate names")
    fixed: dict[str, float] = {}
    fixed_re, fixed_im = np.zeros(dim), np.zeros(dim)
    if args.fixed:
        for item in args.fixed.split(","):
            if not item.strip():
                continue
            name, _, value = item.partition("=")
            name = name.strip()
            if not _:
                raise CliFailure(EXIT_PARSE, f"--fixed entry {item!r} is not name=value")
            if name in plane:
                raise CliFailure(EXIT_PARSE, f"--fixed coordinate {name!r} is a plane axis")
            index, imaginary = _coordinate_index(name, dim)
            fixed[name] = _parse_real(value, f"--fixed entry {item!r}")
            (fixed_im if imaginary else fixed_re)[index] = fixed[name]
    bounds = tuple(_parse_real(b, "--bounds") for b in args.bounds.split(","))
    if len(bounds) != 4:
        raise CliFailure(EXIT_PARSE, "--bounds needs four numbers: umin,umax,vmin,vmax")
    if not (bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise CliFailure(EXIT_PARSE, "--bounds minima must be below maxima")
    if not (math.isfinite(bounds[1] - bounds[0]) and math.isfinite(bounds[3] - bounds[2])):
        raise CliFailure(EXIT_PARSE, "--bounds spans must be finite")
    if args.resolution < 2:
        raise CliFailure(EXIT_PARSE, "--resolution must be at least 2")
    if args.jobs < 1:
        raise CliFailure(EXIT_PARSE, "--jobs must be at least 1")
    axes = [_coordinate_index(name, dim) for name in plane]
    supports = _supports_for(polytope)

    # All resolution^2 points, row-major with u varying fastest.
    n = args.resolution
    us = np.tile(np.linspace(bounds[0], bounds[1], n), n)
    vs = np.repeat(np.linspace(bounds[2], bounds[3], n), n)
    re, im = np.tile(fixed_re, (n * n, 1)), np.tile(fixed_im, (n * n, 1))
    for (index, imaginary), axis in zip(axes, (us, vs)):
        (im if imaginary else re)[:, index] = axis
    values, argmax = _eval_chunks(supports, re + 1j * im, args.jobs)
    rows = zip(us.tolist(), vs.tolist(), values.tolist(), argmax.tolist())

    if args.format == "csv":
        lines = []
        if not args.reproducible:
            lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
        lines.append("u,v,value,argmax")
        lines.extend(f"{u!r},{v!r},{value!r},{index}" for u, v, value, index in rows)
        text = "\n".join(lines) + "\n"
    else:
        body = {
            "plane": plane,
            "bounds": list(bounds),
            "resolution": n,
            "fixed": {k: fixed[k] for k in sorted(fixed)},
            "rows": [list(row) for row in rows],
        }
        if not args.reproducible:
            body["generated"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(body, indent=2) + "\n"

    directory = os.path.dirname(os.path.abspath(args.out)) or "."
    try:
        fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".grid-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(temp_path, args.out)
        except BaseException:
            os.unlink(temp_path)
            raise
    except OSError as exc:
        raise CliFailure(1, f"cannot write {args.out}: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyextremal",
        description="Extremal function of a convex polytope via its supporting "
                    "simplices and strips.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a polytope file and report its shape")
    p_validate.add_argument("file")

    p_supports = sub.add_parser("supports", help="list certified supports as JSON")
    p_supports.add_argument("file")

    p_eval = sub.add_parser("eval", help="evaluate at complex points")
    p_eval.add_argument("file")
    p_eval.add_argument("--point", action="append",
                        help="2d reals re1,im1,...,reD,imD; repeatable")
    p_eval.add_argument("--points-file", help="file with one point per line")
    p_eval.add_argument("--diagnostics", action="store_true",
                        help="append per-support values to each line")

    p_grid = sub.add_parser("grid", help="sweep a 2-D slice and write CSV or JSON")
    p_grid.add_argument("file")
    p_grid.add_argument("--plane", required=True,
                        help="two free coordinates, e.g. re1,re2")
    p_grid.add_argument("--fixed", default="",
                        help="values for the remaining coordinates, e.g. im1=0.5,im2=-1")
    p_grid.add_argument("--bounds", required=True, help="umin,umax,vmin,vmax")
    p_grid.add_argument("--resolution", type=int, required=True,
                        help="samples per axis (>= 2)")
    p_grid.add_argument("--out", required=True, help="output path")
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.add_argument("--jobs", type=int, default=1)
    p_grid.add_argument("--reproducible", action="store_true",
                        help="omit the timestamp header for byte-stable output")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "supports": cmd_supports,
    "eval": cmd_eval,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get("EXTREMAL_TOL")
    if env is None:
        tol = DEFAULT_TOL
    else:
        try:
            tol = Tolerances.uniform(float(env))
        except ValueError:
            print(f"EXTREMAL_TOL={env!r} is not a usable tolerance", file=sys.stderr)
            return EXIT_PARSE
    try:
        return _COMMANDS[args.command](args, tol)
    except CliFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
