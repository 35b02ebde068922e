"""Polynomial and exact linear algebra core, checked against independent
evaluation oracles and a plain Gaussian-elimination rank oracle."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from polygonspace.ratpoly import (
    MultiIndex,
    MultiPoly,
    format_rational,
    matrix_rank,
    monomial_exponents,
    parse_rational,
    rank_and_kernel,
)

from conftest import eliminate_variable

F = Fraction


def random_poly(rng: random.Random, nvars: int, max_deg: int, terms: int) -> MultiPoly:
    entries = {}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        entries[tuple(exps)] = F(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(nvars, entries)


def random_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    return tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(nvars))


# -- rationals ----------------------------------------------------------------


def test_parse_rational_forms() -> None:
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" -2 ") == F(-2)
    assert parse_rational("0.25") == F(1, 4)
    with pytest.raises(ValueError):
        parse_rational("seven")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_rational_lowest_terms() -> None:
    assert format_rational(F(6, 8)) == "3/4"
    assert format_rational(F(-2, 4)) == "-1/2"
    assert format_rational(5) == "5/1"
    assert parse_rational(format_rational(F(22, 7))) == F(22, 7)


# -- multi-indices ------------------------------------------------------------


def test_multiindex_total_and_validation() -> None:
    alpha = MultiIndex((2, 0, 1))
    assert alpha.total == 3
    assert len(alpha) == 3
    assert list(alpha) == [2, 0, 1]
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


# -- polynomial construction and canonical form --------------------------------


def test_constructor_merges_and_drops_zeros() -> None:
    p = MultiPoly(2, [((1, 0), F(2)), ((1, 0), F(-2)), ((0, 1), F(3))])
    assert p == MultiPoly(2, {(0, 1): F(3)})
    assert MultiPoly(2, {(1, 1): F(0)}).is_zero


def test_graded_lex_canonical_order() -> None:
    p = MultiPoly(2, {(0, 1): F(1), (2, 0): F(1), (1, 1): F(1), (1, 0): F(1)})
    exps = [e for e, _ in p.terms()]
    assert exps == [(2, 0), (1, 1), (1, 0), (0, 1)]
    # equality is representational: same terms, same object data
    q = MultiPoly(2, list(reversed(p.terms())))
    assert p == q and p.terms() == q.terms() and hash(p) == hash(q)


def test_constructors_and_queries() -> None:
    x0 = MultiPoly.variable(3, 0)
    assert x0.degree() == 1 and x0.coefficient((1, 0, 0)) == 1
    form = MultiPoly.linear_form([1, -2, 3])
    assert form.coefficient((0, 1, 0)) == -2
    c = MultiPoly.constant(2, F(7, 2))
    assert c.coefficient((0, 0)) == F(7, 2) and c.degree() == 0
    assert MultiPoly.zero(4).is_zero
    assert not MultiPoly.zero(4)
    assert form.is_homogeneous()
    assert not (form + 1).is_homogeneous()


def test_arithmetic_matches_pointwise_oracle() -> None:
    rng = random.Random(101)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        p = random_poly(rng, nvars, 3, 4)
        q = random_poly(rng, nvars, 3, 4)
        x = random_point(rng, nvars)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (-p).evaluate(x) == -p.evaluate(x)
        k = rng.randint(0, 3)
        assert (p**k).evaluate(x) == p.evaluate(x) ** k
        s = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert (p * s).evaluate(x) == p.evaluate(x) * s
        assert (p + s).evaluate(x) == p.evaluate(x) + s
        assert (s - p).evaluate(x) == s - p.evaluate(x)


def test_evaluate_examples() -> None:
    p = MultiPoly(2, {(1, 1): F(1)})
    assert p.evaluate((F(1, 2), F(1, 3))) == F(1, 6)
    q = MultiPoly(3, {(2, 0, 0): F(5), (0, 0, 0): F(-3, 7)})
    assert q.evaluate((0, 0, 0)) == F(-3, 7)
    with pytest.raises(ValueError):
        p.evaluate((1,))


# -- differentiation -----------------------------------------------------------


def test_differentiate_examples() -> None:
    p = MultiPoly(2, {(2, 0): F(1)})
    assert p.differentiate((2, 0)) == MultiPoly.constant(2, 2)
    form2 = MultiPoly.linear_form([1, 1, -1]) ** 2
    assert form2.differentiate((0, 0, 2)) == MultiPoly.constant(3, 2)
    assert form2.differentiate((4, 0, 0)).is_zero
    with pytest.raises(ValueError):
        form2.differentiate((1, 0))


def test_differentiate_composes() -> None:
    rng = random.Random(202)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars, 4, 5)
        alpha = tuple(rng.randint(0, 2) for _ in range(nvars))
        beta = tuple(rng.randint(0, 2) for _ in range(nvars))
        combined = tuple(a + b for a, b in zip(alpha, beta))
        assert p.differentiate(alpha).differentiate(beta) == p.differentiate(combined)


def test_derivative_by_finite_difference_extrapolation() -> None:
    # For p of degree <= 2 in each variable the forward difference quotient
    # g(h) = (p(x+h e_i) - p(x))/h is affine in h, so 2 g(h) - g(2h) is the
    # exact derivative at x.
    rng = random.Random(303)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars, 2, 4)
        x = random_point(rng, nvars)
        i = rng.randrange(nvars)
        h = F(1, 7)

        def quotient(step: Fraction) -> Fraction:
            shifted = list(x)
            shifted[i] += step
            return (p.evaluate(shifted) - p.evaluate(x)) / step

        e_i = tuple(1 if j == i else 0 for j in range(nvars))
        assert 2 * quotient(h) - quotient(2 * h) == p.differentiate(e_i).evaluate(x)


def test_apply_operator_matches_iterated_differentiate() -> None:
    rng = random.Random(404)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        target = random_poly(rng, nvars, 4, 5)
        q = random_poly(rng, nvars, 2, 3)
        r = random_poly(rng, nvars, 2, 3)
        via_product = (q * r).apply_operator(target)
        via_steps = q.apply_operator(r.apply_operator(target))
        assert via_product == via_steps
    x1 = MultiPoly.variable(2, 1)
    p = MultiPoly(2, {(1, 2): F(3)})
    assert x1.apply_operator(p) == p.differentiate((0, 1))


# -- substitution and relabeling ------------------------------------------------


def test_eliminate_variable_agrees_with_evaluation() -> None:
    rng = random.Random(505)
    for _ in range(30):
        nvars = rng.randint(2, 4)
        p = random_poly(rng, nvars, 3, 4)
        j = rng.randrange(nvars)
        repl = random_poly(rng, nvars - 1, 2, 3)
        reduced = eliminate_variable(p, j, repl)
        assert reduced.nvars == nvars - 1
        y = random_point(rng, nvars - 1)
        full = list(y)
        full.insert(j, repl.evaluate(y))
        assert reduced.evaluate(y) == p.evaluate(full)


def test_permute_relabels_variables() -> None:
    rng = random.Random(606)
    for _ in range(30):
        nvars = rng.randint(2, 4)
        p = random_poly(rng, nvars, 3, 4)
        perm = list(range(nvars))
        rng.shuffle(perm)
        x = random_point(rng, nvars)
        image = p.permute(perm)
        # variable i of p becomes variable perm[i]: evaluating the image at x
        # reads x[perm[i]] where p read position i
        pulled = tuple(x[perm[i]] for i in range(nvars))
        assert image.evaluate(x) == p.evaluate(pulled)


# -- serialization ---------------------------------------------------------------


def test_records_round_trip_and_format() -> None:
    p = MultiPoly(3, {(2, 0, 0): F(1, 2), (0, 1, 1): F(-1)})
    recs = p.to_records()
    assert recs == [
        {"coeff": "1/2", "exps": [2, 0, 0]},
        {"coeff": "-1/1", "exps": [0, 1, 1]},
    ]
    assert MultiPoly.from_records(3, recs) == p
    assert p.format(["r1", "r2", "r3"]) == "1/2*r1^2 - r2*r3"
    assert MultiPoly.zero(2).format() == "0"
    for bad in (
        [1],
        [{"coef": "1", "exps": [1, 0, 0]}],
        [{"coeff": "1", "exps": [1, 0, 0], "extra": 0}],
        [{"coeff": None, "exps": [1, 0, 0]}],
        [{"coeff": 0.5, "exps": [1, 0, 0]}],
        [{"coeff": "1", "exps": [1, 0]}],
        [{"coeff": "1", "exps": [1, -1, 0]}],
        [{"coeff": "1", "exps": [1, 0, "2"]}],
        [{"coeff": "1", "exps": 3}],
    ):
        with pytest.raises(ValueError):
            MultiPoly.from_records(3, bad)


def test_record_errors_show_values_as_json() -> None:
    # records are read from JSON, so a bad value is shown as JSON (null,
    # true), and a value JSON cannot hold by its repr
    for bad, shown in (
        ([None], "got null"),
        ([{"coeff": None, "exps": [1, 0, 0]}], "got null"),
        ([{"coeff": "1", "exps": [1, True, 0]}], "got [1, true, 0]"),
        ([{"coeff": Fraction(1, 2), "exps": [1, 0, 0], "extra": 0}], "got {'coeff': Fraction(1, 2)"),
    ):
        with pytest.raises(ValueError, match=re.escape(shown)):
            MultiPoly.from_records(3, bad)


# -- monomial bases ----------------------------------------------------------------


def test_monomial_exponents_complete_and_ordered() -> None:
    for nvars, degree in [(1, 3), (3, 2), (4, 3), (2, 0)]:
        exps = monomial_exponents(nvars, degree)
        assert all(sum(e) == degree for e in exps)
        assert len(set(exps)) == len(exps)
        from math import comb

        assert len(exps) == comb(nvars + degree - 1, degree)
        keys = [tuple(-v for v in e) for e in exps]
        assert keys == sorted(keys)
    assert monomial_exponents(0, 0) == [()]
    assert monomial_exponents(0, 2) == []


# -- exact rank and kernel ------------------------------------------------------


def gauss_rank(rows: list[list[Fraction]]) -> int:
    """Plain rational Gaussian elimination, the independent rank oracle."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_rank_examples() -> None:
    assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([]) == 0
    assert matrix_rank([], ncols=5) == 0
    rank, kernel = rank_and_kernel([], ncols=3)
    assert rank == 0 and len(kernel) == 3
    with pytest.raises(ValueError):
        rank_and_kernel([])
    with pytest.raises(ValueError):
        matrix_rank([[1, 2], [1, 2, 3]])


def test_rank_against_gauss_oracle_and_transpose() -> None:
    rng = random.Random(707)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if rng.random() < 0.5 and nrows > 1:
            # force rank deficiency with a dependent row
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            rows[a] = [2 * v for v in rows[b]]
        r = matrix_rank(rows, ncols=ncols)
        assert r == gauss_rank(rows)
        transpose = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
        assert r == matrix_rank(transpose, ncols=nrows)


def test_kernel_vectors_annihilate_and_span() -> None:
    rng = random.Random(808)
    for _ in range(40):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rank, kernel = rank_and_kernel(rows, ncols=ncols)
        assert len(kernel) == ncols - rank
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # kernel vectors are linearly independent
        if kernel:
            assert gauss_rank([list(v) for v in kernel]) == len(kernel)


def test_rank_and_kernel_deterministic() -> None:
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    first = rank_and_kernel(rows)
    second = rank_and_kernel([list(r) for r in rows])
    assert first == second
    rank, kernel = first
    assert rank == 2 and len(kernel) == 1
