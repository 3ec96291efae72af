"""Seeded inputs of the polyextremal benchmark.

Every polytope and point set the benchmark feeds to the program comes from
here, built with numpy alone from the workload name and the seed.  The
program never sees the seed, only the halfspaces, points and files.

Facet normals are "random unit normals, offset 1": every halfspace
n.x + 1 >= 0 is tangent to the unit ball, so each one is a facet.  The
normals are a fixed well-spread configuration (minimum-energy points on the
sphere, computed from a constant start) turned by a seeded random rotation
and moved by seeded noise of size ``JITTER``.  Independent uniform normals
would make the support count, and with it every timing, vary by 25-50 %
from seed to seed (and leave some polytopes unbounded); the spread base
keeps that variation near 2 % at d = 3 and 10 % at d = 5, while every seed
still gives a different, generic polytope with no strips.

Regenerate every input of a workload into a directory with

    python3 perfbench/inputs.py --workload setup-tangent --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("setup-tangent", "grid-ngon", "eval-cli")
JITTER = 0.05
# What each evaluated point is, so that checks know what to expect of V.
KIND_COMPLEX, KIND_INSIDE, KIND_OUTSIDE, KIND_NEAR, KIND_FAR = range(5)
_BASE_SEED = 20190821  # start of the energy minimisation; not a workload seed


@dataclass
class Member:
    """One polytope of a workload and the points evaluated on it."""

    name: str
    normals: np.ndarray          # (n, d) unit rows
    offsets: np.ndarray          # (n,)
    symmetric: bool              # facets come in exact antipodal pairs
    batch_points: np.ndarray     # (m, d) complex, for eval_extremal_many
    batch_kinds: np.ndarray      # (m,) one of the KIND_* codes per point
    sample_index: np.ndarray     # rows of batch_points timed one by one

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def sample_points(self) -> np.ndarray:
        return self.batch_points[self.sample_index]

    def halfspaces(self) -> list[tuple[list[float], float]]:
        return [(list(map(float, n)), float(b)) for n, b in zip(self.normals, self.offsets)]

    def document(self) -> dict:
        """The polytope in the CLI's JSON schema."""
        return {"dim": self.dim,
                "halfspaces": [{"normal": n, "offset": b} for n, b in self.halfspaces()]}


@dataclass
class GridCommand:
    """A ``polyextremal grid`` sweep over a slice of one member."""

    member: int
    plane: tuple[str, str]
    bounds: tuple[float, float, float, float]
    resolution: int
    fixed: dict[str, float]


@dataclass
class Inputs:
    workload: str
    seed: int
    members: list[Member]
    cli_member: int
    cli_kind: str                     # "supports", "grid" or "eval"
    grid: GridCommand | None = None   # the grid of cli_kind "grid"
    jobs2_grid: GridCommand | None = None


# --- directions ---------------------------------------------------------------

def spread_directions(n: int, d: int, antipodal: bool = False) -> np.ndarray:
    """n well-spread unit vectors in R^d; with ``antipodal`` the set {+-u}
    is spread instead.  Deterministic: the start does not depend on any
    workload seed."""
    rng = np.random.default_rng(_BASE_SEED + 97 * n + d + (1000 if antipodal else 0))
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    for _ in range(400):
        others = np.vstack([x, -x]) if antipodal else x
        diff = x[:, None, :] - others[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        dist2[np.arange(n), np.arange(n)] = np.inf
        force = np.einsum("ij,ijk->ik", dist2 ** -((d + 1) / 2.0), diff)
        force -= np.einsum("ik,ik->i", force, x)[:, None] * x
        scale = np.max(np.linalg.norm(force, axis=1))
        x += 0.05 / n * force / scale
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def tangent_normals(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    x = spread_directions(n, d) @ random_rotation(d, rng).T
    x += JITTER * rng.standard_normal(x.shape)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def symmetric_normals(d: int, pairs: int, rng: np.random.Generator) -> np.ndarray:
    x = spread_directions(pairs, d, antipodal=True) @ random_rotation(d, rng).T
    x += JITTER * rng.standard_normal(x.shape)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.vstack([x, -x])


def ngon_normals(n: int) -> np.ndarray:
    """Regular n-gon (n even) with exactly antiparallel opposite normals."""
    half = np.arange(n // 2) * (2.0 * np.pi / n)
    x = np.stack([np.cos(half), np.sin(half)], axis=1)
    return np.vstack([x, -x])


# --- vertices and points ------------------------------------------------------

def vertices_of(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of {x : n.x + b >= 0} by solving every d-subset in numpy."""
    n, d = normals.shape
    subsets = np.array(list(itertools.combinations(range(n), d)))
    a = normals[subsets]
    keep = np.abs(np.linalg.det(a)) > 1e-9
    points = np.linalg.solve(a[keep], -offsets[subsets[keep]][..., None])[..., 0]
    slack = points @ normals.T + offsets
    points = points[slack.min(axis=1) >= -1e-9]
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > 1e-7 for q in kept):
            kept.append(p)
    return np.array(kept)


def inside_points(vertices: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Convex combinations of a few vertices each: real points of K."""
    out = np.empty((count, vertices.shape[1]))
    for i in range(count):
        chosen = rng.choice(len(vertices), size=min(len(vertices), 2 + i % 4), replace=False)
        out[i] = rng.dirichlet(np.ones(len(chosen))) @ vertices[chosen]
    return out


def outside_points(radius: float, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Real points beyond the circumradius, hence outside K."""
    u = rng.standard_normal((count, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * radius * rng.uniform(1.05, 3.0, size=(count, 1))


def complex_points(d: int, count: int, rng: np.random.Generator,
                   re_scale: float = 1.5, im_scale: float = 0.6) -> np.ndarray:
    return (re_scale * rng.standard_normal((count, d))
            + 1j * im_scale * rng.standard_normal((count, d)))


def _shuffled(parts: list[tuple[np.ndarray, int]], rng: np.random.Generator):
    points = np.vstack([p.astype(complex) for p, _ in parts])
    kinds = np.concatenate([np.full(len(p), kind) for p, kind in parts])
    order = rng.permutation(len(points))
    return points[order], kinds[order]


def mixed_points(normals: np.ndarray, offsets: np.ndarray, count: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Half complex points, a quarter real inside K, a quarter real outside;
    returns the points and their kinds."""
    d = normals.shape[1]
    vertices = vertices_of(normals, offsets)
    radius = float(np.max(np.linalg.norm(vertices, axis=1)))
    quarter = count // 4
    return _shuffled([(complex_points(d, count - 2 * quarter, rng), KIND_COMPLEX),
                      (inside_points(vertices, quarter, rng), KIND_INSIDE),
                      (outside_points(radius, d, quarter, rng), KIND_OUTSIDE)], rng)


def eval_cli_points(normals: np.ndarray, offsets: np.ndarray, count: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Real inside, real outside, near-boundary complex, and far points
    with |z| from 1e2 to 1e6, in equal shares."""
    d = normals.shape[1]
    vertices = vertices_of(normals, offsets)
    radius = float(np.max(np.linalg.norm(vertices, axis=1)))
    share = count // 4
    near = np.empty((share, d), dtype=complex)
    for i in range(share):
        facet = i % len(offsets)
        on_facet = vertices[np.abs(vertices @ normals[facet] + offsets[facet]) <= 1e-9]
        base = rng.dirichlet(np.ones(len(on_facet))) @ on_facet
        near[i] = base + 1j * 10.0 ** rng.uniform(-9, -5) * rng.standard_normal(d)
    far = complex_points(d, count - 3 * share, rng, 1.0, 1.0)
    far *= 10.0 ** rng.uniform(2, 6, size=(len(far), 1)) / np.linalg.norm(far, axis=1, keepdims=True)
    return _shuffled([(inside_points(vertices, share, rng), KIND_INSIDE),
                      (outside_points(radius, d, share, rng), KIND_OUTSIDE),
                      (near, KIND_NEAR), (far, KIND_FAR)], rng)


def slice_points(grid: GridCommand, dim: int) -> np.ndarray:
    """The points a ``polyextremal grid`` run evaluates, in its row order
    (u fastest), built from the same linspace values the CLI uses."""
    us = np.linspace(grid.bounds[0], grid.bounds[1], grid.resolution)
    vs = np.linspace(grid.bounds[2], grid.bounds[3], grid.resolution)
    re = np.zeros((len(vs), len(us), dim))
    im = np.zeros((len(vs), len(us), dim))
    for name, value in grid.fixed.items():
        (im if name.startswith("im") else re)[:, :, int(name[2:]) - 1] = value
    for name, values, axis in ((grid.plane[0], us, (None, slice(None))),
                               (grid.plane[1], vs, (slice(None), None))):
        (im if name.startswith("im") else re)[:, :, int(name[2:]) - 1] = values[axis]
    return (re + 1j * im).reshape(-1, dim)


def _seeded_grid(rng: np.random.Generator, member: int, dim: int,
                 resolution: int) -> GridCommand:
    """A complex slice re1 x im(last) through K, other coordinates fixed."""
    u_lo, v_lo = rng.uniform(-2.2, -1.6, size=2)
    u_hi, v_hi = rng.uniform(1.6, 2.2, size=2)
    plane = ("re1", f"im{dim}")
    fixed = {}
    for name in [f"{p}{i + 1}" for i in range(dim) for p in ("re", "im")]:
        if name not in plane:
            fixed[name] = float(rng.uniform(-0.6, 0.6))
    return GridCommand(member=member, plane=plane,
                       bounds=(float(u_lo), float(u_hi), float(v_lo), float(v_hi)),
                       resolution=resolution, fixed=fixed)


# --- workloads ----------------------------------------------------------------

def _tangent_member(name: str, d: int, n: int, rng: np.random.Generator,
                    batch: int, sample: int) -> Member:
    normals = tangent_normals(d, n, rng)
    offsets = np.ones(n)
    points, kinds = mixed_points(normals, offsets, batch, rng)
    return Member(name, normals, offsets, False, points, kinds, np.arange(sample))


def _symmetric_member(name: str, normals: np.ndarray, grid: GridCommand,
                      rng: np.random.Generator) -> Member:
    """A symmetric polytope evaluated on a complex slice plus mixed points."""
    offsets = np.ones(len(normals))
    extra, extra_kinds = mixed_points(normals, offsets, 200, rng)
    sliced = slice_points(grid, normals.shape[1])
    points = np.vstack([sliced, extra])
    kinds = np.concatenate([np.full(len(sliced), KIND_COMPLEX), extra_kinds])
    return Member(name, normals, offsets, True, points, kinds, np.empty(0, dtype=int))


def make_inputs(workload: str, seed: int) -> Inputs:
    """All inputs of one workload; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "setup-tangent":
        # Certification and validation dominate: C(n, d+1) subsets each.
        members = [_tangent_member("tangent-d3-n14", 3, 14, rng, 1200, 40),
                   _tangent_member("tangent-d4-n13", 4, 13, rng, 1200, 40),
                   _tangent_member("tangent-d5-n12", 5, 12, rng, 1200, 40)]
        return Inputs(workload, seed, members, cli_member=1, cli_kind="supports",
                      jobs2_grid=_seeded_grid(rng, 1, 4, 21))
    if workload == "grid-ngon":
        # The batch kernel, strip projection and CSV output dominate.
        ngon = _symmetric_member("ngon-24", ngon_normals(24),
                                 _seeded_grid(rng, 0, 2, 64), rng)
        ngon.sample_index = rng.choice(len(ngon.batch_points), 100, replace=False)
        sym = _symmetric_member("symmetric-d3-p7", symmetric_normals(3, 7, rng),
                                _seeded_grid(rng, 1, 3, 40), rng)
        grid = _seeded_grid(rng, 0, 2, 41)
        return Inputs(workload, seed, [ngon, sym], cli_member=0, cli_kind="grid",
                      grid=grid, jobs2_grid=grid)
    # eval-cli: the per-point scalar path and line formatting dominate.
    normals = tangent_normals(3, 12, rng)
    offsets = np.ones(12)
    points, kinds = eval_cli_points(normals, offsets, 200, rng)
    member = Member("tangent-d3-n12", normals, offsets, False, points, kinds,
                    np.arange(len(points)))
    return Inputs(workload, seed, [member], cli_member=0, cli_kind="eval",
                  jobs2_grid=_seeded_grid(rng, 0, 3, 21))


# --- files for the CLI --------------------------------------------------------

def format_point(z: np.ndarray) -> str:
    return ",".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in z)


def grid_args(grid: GridCommand) -> list[str]:
    args = ["--plane", ",".join(grid.plane),
            "--bounds=" + ",".join(repr(b) for b in grid.bounds),
            "--resolution", str(grid.resolution)]
    if grid.fixed:
        args.append("--fixed=" + ",".join(f"{k}={v!r}" for k, v in grid.fixed.items()))
    return args


def write_files(inputs: Inputs, directory: str) -> dict[str, str]:
    """Write every member's polytope JSON and the CLI points file."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for member in inputs.members:
        path = os.path.join(directory, f"{member.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(member.document(), handle)
        paths[member.name] = path
    cli_member = inputs.members[inputs.cli_member]
    if inputs.cli_kind == "eval":
        path = os.path.join(directory, "points.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for z in cli_member.sample_points:
                handle.write(format_point(z) + "\n")
        paths["points"] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args()
    inputs = make_inputs(args.workload, args.seed)
    paths = write_files(inputs, args.out)
    for member in inputs.members:
        np.save(os.path.join(args.out, f"{member.name}.batch.npy"), member.batch_points)
        np.save(os.path.join(args.out, f"{member.name}.sample.npy"), member.sample_points)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
