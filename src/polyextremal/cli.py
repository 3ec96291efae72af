"""Command-line front end: validate, supports, eval, grid.

The grid subcommand sweeps a 2-D real slice of C^d.  Real coordinates are
re1, im1, ..., reD, imD, in ASCII digits; two vary over the grid (--plane),
the rest sit at fixed values (--fixed, default 0); names are compared by
the coordinate they name, so re01 is re1.  Output is a CSV with header
``u,v,value,argmax`` (or the JSON equivalent), written atomically: rows
appear row-major with u varying fastest, floats serialized with repr
(shortest round-trip), and a run with --reproducible omits the timestamp
comment so identical inputs give byte-identical files.

Every evaluation is one ``eval_extremal_many`` call over all of a command's
points, in this process, so the first two fields of an ``eval --diagnostics``
line are the plain bytes; its per-support columns are one
``eval_supports_many`` call.  ``grid --jobs K`` is accepted for any K >= 1
and changes nothing: a wide stack's grid is screened in passes of 64 points
or more, which left no input where a process pool paid.

Exit codes come from one table, ``EXIT_CODES``, applied by ``main``, the only
place that catches: 0 success, 2 ill-formed input (an unreadable file, bad
JSON, a bad flag or point, NaN or infinite coordinates, a zero normal, an
input beyond the size guards), 3 unbounded, 4 not full-dimensional, 5
redundant halfspace, 6 empty, 1 any other library failure (an uncovered
facet, a barycentric sum below the domain band), an OS error (an unwritable
grid file) or a MemoryError.  Every failure prints ``error: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from .extremal import DomainError, eval_extremal_many, eval_supports_many
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
from .supports import NoCover, enumerate_supports, support_records

# Exit code of each failure a command may raise; the first row the exception
# is an instance of decides.  Anything else is a bug and keeps its traceback.
EXIT_CODES = {
    ParseError: 2, ZeroNormal: 2, GuardExceeded: 2,
    Unbounded: 3, NotFullDimensional: 4, RedundantHalfspace: 5, Empty: 6,
    PolytopeError: 1, NoCover: 1, DomainError: 1, OSError: 1, MemoryError: 1,
}


def _coordinate_index(name: str, dim: int) -> tuple[int, bool]:
    """Map a coordinate name, ``re`` or ``im`` and ASCII digits, to
    (component index, is_imaginary)."""
    digits = name[2:]
    if name[:2] not in ("re", "im") or not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"unknown coordinate {name!r}")
    index, imaginary = int(digits) - 1, name.startswith("im")
    if not 0 <= index < dim:
        raise ParseError(f"coordinate {name!r} out of range for dim {dim}")
    return index, imaginary


def _load_polytope(path: str, tol: Tolerances) -> PolytopeH:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or levels
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    return from_json(document, tol)


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
    records = support_records(enumerate_supports(polytope))
    print(json.dumps(records, indent=2))
    return 0


def _parse_real(text: str, what: str) -> float:
    """A finite float, or a usage failure naming ``what``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{what}: {text.strip()!r} is not finite")
    return value


def _parse_point(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2 * dim:
        raise ParseError(f"point {text!r}: expected {2 * dim} reals "
                         f"(re, im per coordinate), got {len(parts)}")
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.points_file}: {exc}") from exc
    if not texts:
        raise ParseError("no points given: use --point or --points-file")
    points = np.array([_parse_point(text, polytope.dim) for text in texts])
    supports = enumerate_supports(polytope)
    values, argmax = eval_extremal_many(supports, points)
    rows = eval_supports_many(supports, points).tolist() if args.diagnostics else [[]] * len(points)
    print("\n".join(" ".join(map(repr, [value, index, *row])) for value, index, row
                    in zip(values.tolist(), argmax.tolist(), rows)))
    return 0


def cmd_grid(args, tol: Tolerances) -> int:
    polytope = _load_polytope(args.file, tol)
    dim = polytope.dim
    plane = [p.strip() for p in args.plane.split(",")]
    axes = [_coordinate_index(name, dim) for name in plane]
    if len(axes) != 2 or axes[0] == axes[1]:
        raise ParseError("--plane needs two distinct coordinates")
    fixed: dict[str, float] = {}
    taken = dict.fromkeys(axes, "a plane axis")  # what each coordinate already is
    fixed_re, fixed_im = np.zeros(dim), np.zeros(dim)
    if args.fixed:
        for item in args.fixed.split(","):
            if not item.strip():
                continue
            name, _, value = item.partition("=")
            name = name.strip()
            if not _:
                raise ParseError(f"--fixed entry {item!r} is not name=value")
            index, imaginary = key = _coordinate_index(name, dim)
            if key in taken:
                raise ParseError(f"--fixed coordinate {name!r} is {taken[key]}")
            taken[key] = "fixed twice"
            fixed[name] = _parse_real(value, f"--fixed entry {item!r}")
            (fixed_im if imaginary else fixed_re)[index] = fixed[name]
    bounds = tuple(_parse_real(b, "--bounds") for b in args.bounds.split(","))
    if len(bounds) != 4:
        raise ParseError("--bounds needs four numbers: umin,umax,vmin,vmax")
    if not (bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise ParseError("--bounds minima must be below maxima")
    if not (math.isfinite(bounds[1] - bounds[0]) and math.isfinite(bounds[3] - bounds[2])):
        raise ParseError("--bounds spans must be finite")
    if args.resolution < 2:
        raise ParseError("--resolution must be at least 2")
    if args.jobs < 1:
        raise ParseError("--jobs must be at least 1")
    supports = enumerate_supports(polytope)

    # All resolution^2 points, row-major with u varying fastest.
    n = args.resolution
    us = np.tile(np.linspace(bounds[0], bounds[1], n), n)
    vs = np.repeat(np.linspace(bounds[2], bounds[3], n), n)
    re, im = np.tile(fixed_re, (n * n, 1)), np.tile(fixed_im, (n * n, 1))
    for (index, imaginary), axis in zip(axes, (us, vs)):
        (im if imaginary else re)[:, index] = axis
    values, argmax = eval_extremal_many(supports, re + 1j * im)
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
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".grid-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(temp_path, args.out)
    except BaseException:
        os.unlink(temp_path)
        raise
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
    p_grid.add_argument("--jobs", type=int, default=1,
                        help="accepted (>= 1); evaluation runs in one process")
    p_grid.add_argument("--reproducible", action="store_true",
                        help="omit the timestamp header for byte-stable output")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "supports": cmd_supports,
    "eval": cmd_eval,
    "grid": cmd_grid,
}


def _tolerances() -> Tolerances:
    """DEFAULT_TOL, or one uniform tolerance from EXTREMAL_TOL when it is set."""
    env = os.environ.get("EXTREMAL_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        return Tolerances.uniform(float(env))
    except ValueError:
        raise ParseError(f"EXTREMAL_TOL={env!r} is not a usable tolerance") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _tolerances())
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
