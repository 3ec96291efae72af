"""The simplex method against a reference that works on lists of indices.

``_run_simplex`` picks the entering column as the first True of
``reduced > _LP_EPS``, fills one ratio buffer per program and takes the
leaving row as the argmin of the basis masked to the tied rows; ``_pivot``
eliminates with one masked subtract.  The reference below lists the
improving columns and the tied rows with ``np.flatnonzero``, builds each
ratio vector with ``np.full`` and checks it with ``np.isfinite``.  Both must
make the same pivots, in the same order, to the same bits, on every program
``validate`` solves and on programs built to sit on each decision's edge.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from polyextremal import linalg
from polyextremal.polytope import PolytopeError, from_json, validate

from conftest import FIXTURES, tilted_prism

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _pivot_reference(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    tableau[rows] -= factors[rows, None] * tableau[row]
    basis[row] = col


def _run_reference(tableau, basis, cost, pivot):
    while True:
        reduced = cost - cost[basis] @ tableau[:, :-1]
        improving = np.flatnonzero(reduced > linalg._LP_EPS)
        if improving.size == 0:
            return
        entering = int(improving[0])
        column = tableau[:, entering]
        ratios = np.divide(tableau[:, -1], column, out=np.full(len(column), np.inf),
                           where=column > linalg._LP_EPS)
        best = float(ratios.min())
        if not np.isfinite(best):
            raise linalg._UnboundedLP("improving direction with no blocking constraint")
        ties = np.flatnonzero(ratios <= best + linalg._LP_EPS)
        pivot(tableau, basis, int(ties[np.argmin(basis[ties])]), entering)


def _trajectory(run, pivot, program):
    """Run ``run`` on a copy of ``program`` (tableau, basis, cost), recording
    the pivot, basis and tableau bytes after every pivot; then the outcome,
    the final tableau and basis, and the solution they give."""
    tableau, basis, cost = (a.copy() for a in program)
    steps = []

    def recorded(tableau, basis, row, col):
        pivot(tableau, basis, row, col)
        steps.append((row, col, basis.tobytes(), tableau.tobytes()))

    try:
        run(tableau, basis, cost, recorded)
        outcome = "optimal"
    except linalg._UnboundedLP as exc:
        outcome = f"unbounded: {exc}"
    solution = np.zeros(len(cost))
    solution[basis] = tableau[:, -1]
    return steps, outcome, tableau.tobytes(), basis.tobytes(), solution.tobytes()


def _run_library(tableau, basis, cost, pivot):
    """``linalg._run_simplex`` with its pivots made through ``pivot``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_pivot", pivot)
        linalg._run_simplex(tableau, basis, cost)


def _assert_same(program):
    expected = _trajectory(_run_reference, _pivot_reference, program)
    assert _trajectory(_run_library, linalg._pivot, program) == expected
    return expected


def _validated_programs(monkeypatch):
    """Every (tableau, basis, cost) that ``_run_simplex`` receives while
    validating the fixtures, the benchmark members at seeds 1-10, the tilted
    prisms and a tangent 24-facet polytope in R^5."""
    programs, solve = [], linalg._run_simplex

    def capture(tableau, basis, cost):
        programs.append((tableau.copy(), basis.copy(), cost.copy()))
        solve(tableau, basis, cost)

    monkeypatch.setattr(linalg, "_run_simplex", capture)
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            from_json(json.loads(path.read_text(encoding="utf-8")))
        except PolytopeError:
            pass  # the rejected fixtures: their programs before the refusal count too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    for workload in inputs.WORKLOADS:
        for seed in range(1, 11):
            for member in inputs.make_inputs(workload, seed).members:
                validate(member.halfspaces(), member.dim)
    for seed in range(12):
        tilted_prism(seed)
    normals = inputs.tangent_normals(5, 24, np.random.default_rng(3))
    validate([(list(n), 1.0) for n in normals], 5)
    monkeypatch.undo()
    return programs


def test_validate_programs_pivot_as_the_reference(monkeypatch):
    """The programs of set-up's Chebyshev balls and recession cones take the
    reference's pivots, bases and tableaus, bit for bit."""
    programs = _validated_programs(monkeypatch)
    pivots = 0
    for program in programs:
        steps, outcome, *_ = _assert_same(program)
        assert outcome == "optimal"
        pivots += len(steps)
    assert len(programs) > 150 and pivots > 1000


def _edge_program(rng):
    """A program on the slack basis whose ratios tie exactly (small integer
    data, zeros on the right-hand side) or within _LP_EPS, whose costs and
    column entries lie within a few ulps of _LP_EPS, and some of whose
    columns bound nothing."""
    m, k = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    a = rng.integers(-2, 4, (m, k)).astype(float)
    b = rng.integers(0, 3, m).astype(float)
    b[rng.random(m) < 0.2] += rng.integers(-3, 4) * linalg._LP_EPS / 2
    b = np.maximum(b, 0.0)
    ulps = rng.integers(-3, 4, (m, k)) * np.spacing(linalg._LP_EPS)
    a = np.where(rng.random((m, k)) < 0.15, linalg._LP_EPS + ulps, a)
    cost = rng.integers(-1, 3, k).astype(float)
    edge = rng.random(k) < 0.4
    cost[edge] = linalg._LP_EPS + rng.integers(-3, 4, k)[edge] * np.spacing(linalg._LP_EPS)
    if rng.random() < 0.3:
        j = rng.integers(k)
        a[:, j] = -np.abs(a[:, j])  # a column that bounds nothing
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    return tableau, np.arange(k, k + m), np.concatenate([cost, np.zeros(m)])


@pytest.mark.parametrize("seed", range(4))
def test_edge_programs_pivot_as_the_reference(seed):
    """Ties, costs at _LP_EPS to a few ulps and unbounded programs: the same
    pivots to the same bits, and _UnboundedLP in the same cases."""
    rng = np.random.default_rng([seed, 9])
    outcomes, ties, edges = [], 0, 0
    for _ in range(250):
        program = _edge_program(rng)
        tableau, _, cost = program
        edges += np.any(np.abs(cost - linalg._LP_EPS) <= 3 * np.spacing(linalg._LP_EPS))
        rhs, first = tableau[:, -1], np.flatnonzero(cost > linalg._LP_EPS)
        if first.size:
            column = tableau[:, first[0]]
            ratios = np.divide(rhs, column, out=np.full(len(rhs), np.inf),
                               where=column > linalg._LP_EPS)
            ties += np.count_nonzero(ratios <= ratios.min() + linalg._LP_EPS) > 1
        outcomes.append(_assert_same(program)[1])
    assert outcomes.count("optimal") > 50 and len(outcomes) - outcomes.count("optimal") > 10
    assert ties > 20 and edges > 100
