"""Exact simplex solver versus a brute-force vertex-enumeration oracle.

The oracle enumerates every n-subset of constraint hyperplanes (equalities,
inequalities, and the nonnegativity facets), solves the square system, keeps
the feasible solutions, and maximizes the objective over them.  For bounded
feasible regions in the nonnegative orthant this visits every vertex, so it
is a complete, independent check of the simplex answer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from polygonspace import chambers, exactlp

from conftest import full_tableau_maximize

F = Fraction

Row = "tuple[list[Fraction], Fraction]"


def solve_square(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Gaussian elimination; None if the system is singular."""
    n = len(rows)
    mat = [list(map(F, row)) + [F(val)] for row, val in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col]), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [v / inv for v in mat[col]]
        for i in range(n):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return [mat[i][n] for i in range(n)]


def oracle_max(
    objective: list[Fraction],
    eq_rows: list[tuple[list[Fraction], Fraction]],
    ge_rows: list[tuple[list[Fraction], Fraction]],
) -> Fraction | None:
    nvars = len(objective)
    cons: list[tuple[list[Fraction], Fraction, str]] = []
    for coeffs, rhs in eq_rows:
        cons.append(([F(c) for c in coeffs], F(rhs), "eq"))
    for coeffs, rhs in ge_rows:
        cons.append(([F(c) for c in coeffs], F(rhs), "ge"))
    for i in range(nvars):
        unit = [F(0)] * nvars
        unit[i] = F(1)
        cons.append((unit, F(0), "ge"))

    def feasible(x: list[Fraction]) -> bool:
        for coeffs, rhs, kind in cons:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if kind == "eq" and lhs != rhs:
                return False
            if kind == "ge" and lhs < rhs:
                return False
        return True

    best: Fraction | None = None
    for combo in combinations(range(len(cons)), nvars):
        x = solve_square(
            [cons[i][0] for i in combo], [cons[i][1] for i in combo]
        )
        if x is None or not feasible(x):
            continue
        value = sum(c * v for c, v in zip(objective, x))
        if best is None or value > best:
            best = value
    return best


def assert_feasible_exactly(
    x: tuple[Fraction, ...],
    eq_rows: list[tuple[list[Fraction], Fraction]],
    ge_rows: list[tuple[list[Fraction], Fraction]],
) -> None:
    assert all(v >= 0 for v in x)
    for coeffs, rhs in eq_rows:
        assert sum(c * v for c, v in zip(coeffs, x)) == rhs
    for coeffs, rhs in ge_rows:
        assert sum(c * v for c, v in zip(coeffs, x)) >= rhs


def test_known_small_instances() -> None:
    # max x1 + x2 with x1 <= 2, x2 <= 3
    solved = exactlp.maximize(
        [F(1), F(1)], [], [([F(-1), F(0)], F(-2)), ([F(0), F(-1)], F(-3))]
    )
    assert solved is not None
    value, x, _ = solved
    assert value == 5 and x == (F(2), F(3))

    # equality only: max x2 with x1 + x2 = 1
    solved = exactlp.maximize([F(0), F(1)], [([F(1), F(1)], F(1))], [])
    assert solved is not None
    assert solved[0] == 1 and solved[1] == (F(0), F(1))

    # infeasible: x1 >= 2 and x1 <= 1
    assert (
        exactlp.maximize([F(1)], [], [([F(1)], F(2)), ([F(-1)], F(-1))]) is None
    )

    # infeasible equalities
    assert (
        exactlp.maximize(
            [F(1), F(0)],
            [([F(1), F(1)], F(1)), ([F(1), F(1)], F(2))],
            [],
        )
        is None
    )

    # unbounded
    with pytest.raises(ValueError):
        exactlp.maximize([F(1), F(0)], [], [([F(1), F(-1)], F(0))])


def test_degenerate_zero_rhs_rows() -> None:
    # several tight-at-origin rows force degenerate pivots
    solved = exactlp.maximize(
        [F(1), F(1), F(0)],
        [],
        [
            ([F(1), F(-1), F(0)], F(0)),
            ([F(-1), F(1), F(0)], F(0)),
            ([F(0), F(1), F(-1)], F(0)),
            ([F(-1), F(0), F(0)], F(-4)),
            ([F(0), F(0), F(-1)], F(-4)),
        ],
    )
    assert solved is not None
    value, x, _ = solved
    assert value == 8 and x[0] == x[1] == 4


def test_beale_cycling_instance() -> None:
    # the classical example that cycles under most-negative pivoting without
    # an anti-cycling rule; optimum 1/20 at (1/25, 0, 1, 0)
    objective = [F(3, 4), F(-150), F(1, 50), F(-6)]
    ge_rows = [
        ([F(-1, 4), F(60), F(1, 25), F(-9)], F(0)),
        ([F(-1, 2), F(90), F(1, 50), F(-3)], F(0)),
        ([F(0), F(0), F(-1), F(0)], F(-1)),
    ]
    solved = exactlp.maximize(objective, [], ge_rows)
    assert solved is not None
    value, x, _ = solved
    assert value == F(1, 20)
    assert x == (F(1, 25), F(0), F(1), F(0))


def test_random_instances_match_vertex_oracle() -> None:
    rng = random.Random(2024)
    feasible_count = 0
    for _ in range(200):
        nvars = rng.randint(2, 4)
        objective = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nvars)]
        ge_rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
            ge_rows.append((coeffs, F(rng.randint(-6, 2))))
        eq_rows = []
        if rng.random() < 0.4:
            coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
            anchor = [F(rng.randint(0, 3)) for _ in range(nvars)]
            eq_rows.append(
                (coeffs, sum(c * v for c, v in zip(coeffs, anchor)))
            )
        bound = F(rng.randint(4, 9))
        for i in range(nvars):
            unit = [F(0)] * nvars
            unit[i] = F(-1)
            ge_rows.append((unit, -bound))  # keeps the region bounded

        solved = exactlp.maximize(objective, eq_rows, ge_rows)
        expected = oracle_max(objective, eq_rows, ge_rows)
        if solved is None:
            assert expected is None
            continue
        feasible_count += 1
        value, x, _ = solved
        assert value == expected
        assert value == sum(c * v for c, v in zip(objective, x))
        assert_feasible_exactly(x, eq_rows, ge_rows)
    assert feasible_count >= 100  # the generator must exercise the solver


def test_split_equality_consistency() -> None:
    # an equality behaves exactly like the pair of opposite inequalities
    rng = random.Random(77)
    for _ in range(40):
        nvars = rng.randint(2, 3)
        objective = [F(rng.randint(-4, 4)) for _ in range(nvars)]
        coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
        anchor = [F(rng.randint(0, 2)) for _ in range(nvars)]
        rhs = sum(c * v for c, v in zip(coeffs, anchor))
        box = [([F(0)] * i + [F(-1)] + [F(0)] * (nvars - i - 1), F(-5)) for i in range(nvars)]
        as_eq = exactlp.maximize(objective, [(coeffs, rhs)], box)
        as_pair = exactlp.maximize(
            objective,
            [],
            box + [(coeffs, rhs), ([-c for c in coeffs], -rhs)],
        )
        if as_eq is None:
            assert as_pair is None
        else:
            assert as_pair is not None
            assert as_eq[0] == as_pair[0]


# -- the condensed tableau against the full one (tests/conftest.py): the same
# pivots must give the same vertex, the same None and the same ValueError.


def outcome(solve, args: tuple) -> object:
    try:
        return solve(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def assert_same_as_full_tableau(instances: list[tuple]) -> None:
    for args in instances:
        solved = outcome(exactlp.maximize, args)
        assert (solved and solved[:2]) == outcome(full_tableau_maximize, args), args


def test_condensed_tableau_matches_full_tableau_on_the_walks(monkeypatch, graph5, graph6) -> None:
    # the facet LPs of the walks' edges, solved directly: a walk solves one
    # per relabeling class, too few to test the solver on
    seen: list[tuple] = []
    solve = exactlp.maximize
    monkeypatch.setattr(exactlp, "maximize", lambda *args: seen.append(args) or solve(*args))
    for graph, stride in ((graph5, 1), (graph6, 20)):
        for a, _, wall in graph.edges[::stride]:
            pair = (wall.index_set.mask, wall.index_set.complement.mask)
            chambers._max_margin_point(graph.n, graph.nodes[a].signature.shorts, [(m, F(1, 2)) for m in pair], skip=pair)
    monkeypatch.undo()
    distinct = list({repr(args): args for args in seen}.values())
    assert len(distinct) >= 100
    assert_same_as_full_tableau(distinct)


def test_maximize_reports_a_unique_optimum() -> None:
    box = [([F(-1), F(-1)], F(-1))]  # x + y <= 1
    assert exactlp.maximize([F(1), F(2)], [], box) == (2, (0, 1), True)
    # every point of the edge x + y = 1 is optimal
    solved = exactlp.maximize([F(1), F(1)], [], box)
    assert solved is not None and solved[0] == 1 and solved[2] is False


def test_condensed_tableau_matches_full_tableau_on_the_oracle_instances(monkeypatch) -> None:
    # the instances of test_random_instances_match_vertex_oracle, solved with
    # the full tableau standing in for the slow vertex oracle
    seen: list[tuple] = []
    solve = exactlp.maximize
    monkeypatch.setattr(exactlp, "maximize", lambda *args: seen.append(args) or solve(*args))
    monkeypatch.setitem(globals(), "oracle_max", lambda *args: (full_tableau_maximize(*args) or (None,))[0])
    test_random_instances_match_vertex_oracle()
    monkeypatch.undo()
    assert len(seen) == 200
    assert_same_as_full_tableau(seen)


def test_condensed_tableau_matches_full_tableau_on_hard_instances() -> None:
    degenerate = (
        [F(1), F(1), F(0)],
        [],
        [([F(1), F(-1), F(0)], F(0)), ([F(-1), F(1), F(0)], F(0)), ([F(0), F(1), F(-1)], F(0)),
         ([F(-1), F(0), F(0)], F(-4)), ([F(0), F(0), F(-1)], F(-4))],
    )
    beale = (  # cycles under Dantzig's rule alone, so it reaches Bland's
        [F(3, 4), F(-150), F(1, 50), F(-6)],
        [],
        [([F(-1, 4), F(60), F(1, 25), F(-9)], F(0)), ([F(-1, 2), F(90), F(1, 50), F(-3)], F(0)),
         ([F(0), F(0), F(-1), F(0)], F(-1))],
    )
    unbounded = ([F(1), F(0)], [], [([F(1), F(-1)], F(0))])
    too_wide = ([F(1)], [([F(1), F(1)], F(1))], [])
    redundant = ([F(1), F(2)], [([F(1), F(1)], F(1)), ([F(2), F(2)], F(2))], [])
    instances = [degenerate, beale, unbounded, too_wide, redundant]
    # unboxed and boxed, with equalities of any right side: phase-one
    # leftovers driven out on negative pivots, redundant rows, unbounded
    # objectives and infeasible systems
    rng = random.Random(5)
    for _ in range(600):
        nvars = rng.randint(1, 5)
        objective = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nvars)]
        ge_rows = [([F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(nvars)], F(rng.randint(-6, 2)))
                   for _ in range(rng.randint(0, 5))]
        eq_rows = [([F(rng.randint(-3, 3)) for _ in range(nvars)], F(rng.randint(-3, 3)))
                   for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.7:
            ge_rows += [([F(-(i == j)) for j in range(nvars)], F(-rng.randint(1, 9))) for i in range(nvars)]
        instances.append((objective, eq_rows, ge_rows))
    outcomes = [outcome(exactlp.maximize, args) for args in instances]
    assert [o[:2] for o in outcomes[:4]] == [(8, (4, 4, 0)), (F(1, 20), (F(1, 25), 0, 1, 0)),
                            (ValueError, "objective is unbounded"),
                            (ValueError, "constraint width does not match the objective")]
    assert {type(o) for o in outcomes} == {tuple, type(None)}
    assert sum(o is None for o in outcomes) >= 100 and sum(o[0] is ValueError for o in outcomes if o) >= 50
    assert_same_as_full_tableau(instances)
