import pytest

from eigenpoints import unipoly as U
from eigenpoints.rationals import rational


def P(*coeffs):
    return U.trim([rational(c) for c in coeffs])


def test_divmod_exact():
    # (x^2 - 1) = (x - 1)(x + 1)
    q, r = U.divmod_exact(P(-1, 0, 1), P(-1, 1))
    assert q == P(1, 1)
    assert r == []
    q, r = U.divmod_exact(P(1, 1, 1), P(1, 1))
    assert U.add(U.mul(q, P(1, 1)), r) == P(1, 1, 1)


def test_exact_div_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        U.exact_div(P(1, 1, 1), P(1, 1))


def test_gcd():
    a = U.mul(P(-1, 1), P(-2, 1))  # (x-1)(x-2)
    b = U.mul(P(-1, 1), P(-3, 1))  # (x-1)(x-3)
    assert U.gcd(a, b) == P(-1, 1)
    assert U.gcd(a, []) == U.monic(a)
    assert U.gcd(P(5), a) == P(1)


def test_squarefree_decomposition():
    # x^2 (x-1)^3 (x+2)
    p = U.mul(U.mul(P(0, 0, 1), U.mul(U.mul(P(-1, 1), P(-1, 1)), P(-1, 1))), P(2, 1))
    decomp = U.squarefree_decomposition(p)
    by_mult = {m: f for f, m in decomp}
    assert by_mult[2] == P(0, 1)
    assert by_mult[3] == P(-1, 1)
    assert by_mult[1] == P(2, 1)
    assert U.is_squarefree(P(-1, 0, 1))
    assert not U.is_squarefree(P(1, -2, 1))


def test_content_primitive():
    content, prim = U.content_primitive(P(rational(2, 3), rational(4, 3)))
    assert prim == [1, 2]
    assert content == rational(2, 3)


def test_evaluate():
    p = P(1, 2, 3)  # 1 + 2x + 3x^2
    assert U.evaluate(p, rational(2)) == 17
    assert abs(U.evaluate(p, 2.0) - 17.0) < 1e-12


def test_newton_correction_handles_huge_coefficients():
    # (x - 1/3) scaled by a huge constant: double evaluation would overflow
    big = rational(10**400)
    p = [(-big) * rational(1, 3), big]
    step, residual = U.newton_correction(p, 0.3333333)
    refined = 0.3333333 - step
    assert abs(refined - 1 / 3) < 1e-12


def test_refined_values_cancellation():
    # root of x^2 - 2 evaluated into a polynomial with giant coefficients
    elim = P(-2, 0, 1)
    huge = rational(10**60)
    probe = [rational(-2) * huge, rational(0), huge]  # huge (x^2 - 2)
    z, (val,) = U.refined_values(elim, [probe], 1.4142135)
    # probe(sqrt 2) vanishes; only cancellation-proof evaluation sees that
    assert abs(complex(val)) / 10**60 < 1e-30


def test_squarefree_part_certified_modulo_a_prime():
    q = U._SQUAREFREE_PRIME
    assert U._squarefree_mod(P(-2, 1, 1))  # (t - 1)(t + 2)
    assert U.squarefree_part(P(2, -3, 0, 1)) == P(-2, 1, 1)  # (t - 1)^2 (t + 2)
    # t (t - q) is square-free over Q but not modulo q, and a denominator
    # divisible by q leaves the prime unusable: both take the exact gcd
    for c in (P(0, -q, 1), [rational(1, q), rational(0), rational(1)]):
        assert not U._squarefree_mod(c)
        assert U.is_squarefree(c)
        assert U.squarefree_part(c) == c
        assert U.squarefree_decomposition(c) == [(c, 1)]


def _fraction_horner(c, x):
    total = rational(0)
    for coef in reversed(c):
        total = total * x + coef
    return total


def test_evaluate_at_rationals_equals_fraction_horner():
    import random

    rng = random.Random(7)
    for _ in range(300):
        big = rng.choice([10, 10**6, 10**40])
        c = U.trim([rational(rng.randint(-big, big), rng.randint(1, big)) for _ in range(rng.randint(0, 12))])
        x = rng.choice(
            [
                rational(0),
                rational(rng.randint(-9, 9)),
                rng.randint(-9, 9),
                rational(rng.randint(-big, big), rng.randint(1, big)),
            ]
        )
        value = U.evaluate(c, x)
        assert type(value) is type(rational(0))
        assert value == _fraction_horner(c, x)
    assert U.evaluate([], rational(3, 7)) == 0
    assert U.evaluate([rational(5, 3)], 0) == rational(5, 3)
    assert U.evaluate([1, 2, 3], 2) == 17  # int coefficients too
    # float and complex x keep the floating loop
    assert U.evaluate(P(1, 2, 3), 0.5) == 2.75
    assert U.evaluate(P(1, 0, 1), 1j) == 0
