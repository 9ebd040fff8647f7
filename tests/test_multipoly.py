import random

import pytest

from eigenpoints.multipoly import Polynomial
from eigenpoints.rationals import format_rational, parse_rational, rational

from conftest import random_form


def test_parse_format_rational():
    assert parse_rational("3/4") == rational(3, 4)
    assert parse_rational("-7") == rational(-7)
    assert format_rational(rational(6, 4)) == "3/2"
    assert format_rational(rational(-2, 1)) == "-2"
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_evaluate_examples():
    p = Polynomial.from_text("1 * x0^2 + 1 * x1^2", 4)
    assert p.evaluate([rational(1), rational(1), rational(0), rational(0)]) == 2
    fermat = Polynomial.from_text("1 * x0^3 + 1 * x1^3 + 1 * x2^3 + 1 * x3^3", 4)
    assert fermat.evaluate([rational(1)] * 4) == 4
    x0, x1 = Polynomial.variable(0, 4), Polynomial.variable(1, 4)
    zero = x0 * x1 - x1 * x0
    assert zero.is_zero()
    with pytest.raises(ValueError):
        p.evaluate([rational(1)] * 3)


def test_partial_derivative_examples():
    fermat = Polynomial.from_text("1 * x0^3 + 1 * x1^3 + 1 * x2^3 + 1 * x3^3", 4)
    assert fermat.partial_derivative(0) == Polynomial.from_text("3 * x0^2", 4)
    sq = Polynomial.from_text("1 * x0^2", 2)
    assert sq.partial_derivative(1).is_zero()
    with pytest.raises(IndexError):
        sq.partial_derivative(5)


def test_euler_identity_random_cubics():
    # sum x_i d_i f = d f, checked symbolically on ten random quaternary cubics
    for seed in range(10):
        f = random_form(4, 3, seed=100 + seed)
        if f.is_zero():
            continue
        total = Polynomial.zero(4)
        for i in range(4):
            total = total + Polynomial.variable(i, 4) * f.partial_derivative(i)
        assert total == f * rational(3)


def test_ring_axioms_random():
    rng = random.Random(0)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            terms[mono] = rational(rng.randint(-5, 5))
        return Polynomial(3, terms)

    for _ in range(200):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p + (q + r) == (p + q) + r


def test_homogeneous_product_degree_additive():
    for seed in range(20):
        p = random_form(3, 2, seed)
        q = random_form(3, 3, seed + 1000)
        if p.is_zero() or q.is_zero():
            continue
        prod = p * q
        assert prod.is_homogeneous()
        assert prod.degree() == 5


def test_pow_matches_repeated_mul():
    p = Polynomial.from_text("1 * x0 + 2 * x1", 2)
    assert p**3 == p * p * p
    assert (p**0) == Polynomial.constant(2, rational(1))


def test_evaluate_composes_polynomials():
    # p(x, y) -> p(x + 2y, y), constant term included, moves roots as expected
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    p = Polynomial.from_text("1 * x0^2 + -1 * x0 + 3", 2)  # x^2 - x + 3
    sheared = p.evaluate([x + y * rational(2), y])
    assert sheared == (x + y * 2) * (x + y * 2) - (x + y * 2) + 3
    # the composition agrees with evaluating p at the image point
    for a, b in [(rational(-1), rational(1)), (rational(2, 3), rational(-5))]:
        assert sheared.evaluate([a, b]) == p.evaluate([a + 2 * b, b])


def test_dehomogenize_and_restrict():
    f = Polynomial.from_text("1 * x0^2 x1 + 2 * x1^3", 3)
    chart = f.dehomogenize(0)
    assert chart == Polynomial.from_text("1 * x0 + 2 * x0^3", 2)
    wall = f.restrict_zero(0)
    assert wall == Polynomial.from_text("2 * x0^3", 2)


def test_text_round_trip():
    f = Polynomial.from_text("-1/2 * x0^2 x1 + 3 * x2 + -4", 3)
    again = Polynomial.from_text(f.to_text(), 3)
    assert f == again
    assert Polynomial.from_text("0", 2).is_zero() is False or True  # "0" parses as constant 0
    z = Polynomial.from_text("0", 2)
    assert z.is_zero()


def test_json_round_trip():
    f = Polynomial.from_text("2/3 * x0 x1^2 + -5 * x2^3", 3)
    assert Polynomial.from_json(f.to_json()) == f
    data = f.to_json()
    assert data["nvars"] == 3
    assert all(isinstance(t["coef"], str) for t in data["terms"])
