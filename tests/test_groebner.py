from itertools import chain
from math import gcd, lcm

import pytest

from eigenpoints import groebner as GB
from eigenpoints import modular
from eigenpoints import unipoly
from eigenpoints.multipoly import Polynomial
from eigenpoints.rationals import rational
from eigenpoints.roots import univariate_roots
from eigenpoints.solver import chart_system, eigenpoints, solve_zero_dimensional
from eigenpoints.tensors import fermat_tensor

from conftest import random_tensor


def _grid_system_sheared():
    # {x^2 - x, y^2 - y} with y replaced by y - 2x so y separates solutions
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p1 = x * x - x
    yy = y - x * rational(2)
    p2 = yy * yy - yy
    return [p1, p2]


def test_buchberger_grid():
    gb = GB.buchberger(_grid_system_sheared(), 2)
    qb = GB.quotient_basis(gb, 2)
    assert len(qb) == 4


def _reduces_to_zero(p, gb):
    packing = GB.K.Packing(p.nvars)
    prepared = [GB._prepared(g) for g in gb]
    r, _ = GB.K.reduce_full(GB.poly_to_intdict(p, packing), prepared, packing.guard)
    return not r


def test_buchberger_reduction_property():
    # every original generator reduces to zero against the basis
    polys = _grid_system_sheared()
    gb = GB.buchberger(polys, 2)
    for p in polys:
        assert _reduces_to_zero(p, gb)


def test_fglm_shape_position():
    gb = GB.buchberger(_grid_system_sheared(), 2)
    lex = GB.fglm(gb, 2)
    assert lex.dimension == 4
    assert lex.in_shape_position()
    roots = [r for r, _ in univariate_roots(lex.eliminant)]
    assert sorted(str(r) for r in roots) == ["0", "1", "2", "3"]
    # the rational univariate representation x = g(z) / p_sq'(z) recovers the grid
    pts = set()
    for r in roots:
        xv = unipoly.evaluate(lex.numerators[0], r) / unipoly.evaluate(lex.denominator, r)
        pts.add((str(xv), str(r - 2 * xv)))
    assert pts == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}


def test_positive_dimensional_detected():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    with pytest.raises(GB.PositiveDimensionalError):
        gb = GB.buchberger([x * y], 2)
        GB.quotient_basis(gb, 2)


def test_inconsistent_system_empty_quotient():
    x = Polynomial.variable(0, 2)
    one = Polynomial.constant(2, rational(1))
    gb = GB.buchberger([x, x - one], 2)
    lex = GB.fglm(gb, 2)
    assert lex.dimension == 0


def _unit_cube():
    return [v * v - v for v in (Polynomial.variable(i, 3) for i in range(3))]


def test_three_variable_fermat_chart():
    # {x_k^2 - x_k} read in u = z + 2x + 4y: binary weights separate the
    # unit grid, so u takes 8 distinct values
    gb = GB.buchberger(_unit_cube(), 3)
    assert not GB.fglm(gb, 3).in_shape_position()
    lex = GB.fglm(gb, 3, [2, 4])
    assert lex.dimension == 8
    assert lex.in_shape_position()
    roots = univariate_roots(lex.eliminant)
    assert len(roots) == 8
    assert all(m == 1 for _, m in roots)


def test_groebner_property_spolys_reduce_to_zero():
    # the defining certificate: every S-polynomial of the reduced basis has
    # normal form zero; checked on seeded random dense systems
    import random
    from itertools import combinations

    rng = random.Random(12)
    for trial in range(4):
        polys = []
        for _ in range(3):
            terms = {}
            for _ in range(8):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                c = rng.randint(-6, 6)
                if c:
                    terms[mono] = rational(c)
            if terms:
                polys.append(Polynomial(3, terms))
        if len(polys) < 2:
            continue
        try:
            gb = GB.buchberger(polys, 3)
        except GB.EliminationError:
            continue
        packing = GB.K.Packing(3)
        prepared = [GB._prepared(g) for g in gb]
        for a, b in combinations(range(len(gb)), 2):
            lcm = packing.lcm(prepared[a][0], prepared[b][0])
            s = GB.K.spoly(prepared[a], prepared[b], lcm)
            if not s:
                continue
            r, _ = GB.K.reduce_full(s, prepared, packing.guard)
            assert not r, f"trial {trial}: S-poly ({a},{b}) has nonzero normal form"
        # reduced basis: leading monomials pairwise non-divisible
        leads = [p[0] for p in prepared]
        for i, li in enumerate(leads):
            for j, lj in enumerate(leads):
                if i != j:
                    assert not packing.divides(li, lj)


def test_fglm_dimension_matches_sympy_oracle():
    # independent cross-check of the quotient dimension on a random system
    import random

    rng = random.Random(3)
    vars3 = [Polynomial.variable(i, 3) for i in range(3)]
    polys = []
    for _ in range(3):
        p = Polynomial.zero(3)
        for v in vars3:
            p = p + v * v * rational(rng.randint(1, 5)) + v * rational(rng.randint(-3, 3))
        p = p + Polynomial.constant(3, rational(rng.randint(-2, 2)))
        polys.append(p)
    gb = GB.buchberger(polys, 3)
    qb = GB.quotient_basis(gb, 3)
    try:
        import sympy

        xs = sympy.symbols("x y z")
        sympy_polys = []
        for p in polys:
            e = 0
            for mono, c in p.terms.items():
                term = sympy.Rational(int(c.numerator), int(c.denominator))
                for xv, ev in zip(xs, mono):
                    term *= xv**ev
                e += term
            sympy_polys.append(e)
        basis = sympy.groebner(sympy_polys, *xs, order="grevlex")
        leads = [sympy.Poly(b, *xs).LM(order="grevlex") for b in basis.polys]
        lead_exps = [tuple(m.exponents) for m in leads]
        count = 0
        import itertools

        for mono in itertools.product(range(9), repeat=3):
            if sum(mono) > 24:
                continue
            if not any(all(a >= b for a, b in zip(mono, le)) for le in lead_exps):
                count += 1
        assert count == len(qb)
    except ImportError:
        pytest.skip("sympy not available")


def _chart_basis(d, seed):
    return GB.buchberger(chart_system(random_tensor(3, d, seed), 0), 3)


def _fermat_chart(d):
    return chart_system(fermat_tensor(3, d).to_partial(), 0)


def _solver_shear(d):
    # the shear that separates the points of the Fermat (3,d) chart x_0 = 1
    shear = eigenpoints(fermat_tensor(3, d), seed=0).seed_info["shears"]["x0=1"]
    assert any(shear)
    return shear


def _sheared(polys, shear):
    # the system in the coordinates (x, u): z -> u - sum shear[i] x_i
    k = polys[0].nvars
    xs = [Polynomial.variable(i, k) for i in range(k)]
    u = xs[-1] - sum((x * rational(c) for x, c in zip(xs, shear)), Polynomial.zero(k))
    return [p.evaluate(xs[:-1] + [u]) for p in polys]


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: (_chart_basis(3, 17), 3, None), id="3"),
        pytest.param(lambda: (_chart_basis(4, 17), 3, None), id="4"),
        pytest.param(lambda: (GB.buchberger(_grid_system_sheared(), 2), 2, None), id="grid"),
        pytest.param(
            lambda: (GB.buchberger(_fermat_chart(4), 3), 3, _solver_shear(4)),
            id="Fermat (3,4) sheared",
        ),
    ],
)
def test_fglm_rur_relations_lie_in_ideal(case):
    # p(u) and every (p/p_sq)(u) (p_sq'(u) x_i - g_i(u)) reduce to zero against
    # the grevlex basis, u = z + sum c_i x_i, a check that does not go through
    # fglm's own
    gb, k, shear = case()
    lex = GB.fglm(gb, k, shear)
    assert lex.in_shape_position()
    assert lex.dimension == len(lex.eliminant) - 1 == len(GB.quotient_basis(gb, k))
    assert set(lex.numerators) == set(range(k - 1))
    xs = [Polynomial.variable(i, k) for i in range(k)]
    u = xs[-1] + sum((x * rational(c) for x, c in zip(xs, shear or ())), Polynomial.zero(k))
    in_u = lambda c: unipoly.to_multipoly(c, k, k - 1).evaluate(xs[:-1] + [u])  # noqa: E731
    cofactor = unipoly.exact_div(lex.eliminant, lex.squarefree)
    relations = [in_u(lex.eliminant)] + [
        in_u(unipoly.mul(cofactor, lex.denominator)) * xs[i]
        - in_u(unipoly.mul(cofactor, lex.numerators[i]))
        for i in range(k - 1)
    ]
    for p in relations:
        assert _reduces_to_zero(p, gb)
    # a numerator off by one in its constant term is not in the ideal
    wrong = in_u(lex.denominator) * xs[0] - in_u(unipoly.add(lex.numerators[0], [rational(1)]))
    assert not _reduces_to_zero(wrong, gb)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: (_fermat_chart(3), _solver_shear(3)), id="Fermat (3,3)"),
        pytest.param(lambda: (_fermat_chart(4), _solver_shear(4)), id="Fermat (3,4)"),
        pytest.param(lambda: (_unit_cube(), [2, 4]), id="unit cube"),
    ],
)
def test_fglm_shear_equals_the_sheared_system(case):
    # the representation in u read off the basis of F is the one in the last
    # variable of the basis of F in the coordinates (x, u)
    polys, shear = case()
    lex = GB.fglm(GB.buchberger(polys, 3), 3, shear)
    ref = GB.fglm(GB.buchberger(_sheared(polys, shear), 3), 3)
    assert lex.in_shape_position() and ref.in_shape_position()
    assert lex.eliminant == ref.eliminant
    assert lex.squarefree == ref.squarefree
    assert lex.numerators == ref.numerators


def _fermat_chart_basis():
    # unsheared, the Fermat (3,4) chart has points sharing their last coordinate
    return GB.buchberger(chart_system(fermat_tensor(3, 4).to_partial(), 0), 3)


def test_fglm_fermat_chart_not_in_shape_position():
    gb = _fermat_chart_basis()
    lex = GB.fglm(gb, 3)
    assert not lex.in_shape_position()
    assert lex.numerators == {} and lex.squarefree is None
    assert lex.eliminant == []
    assert 0 < lex.krylov_rank < lex.dimension == len(GB.quotient_basis(gb, 3))
    # proved over Q: the Krylov vectors 1, z, ..., z^(D-1) are dependent
    assert _krylov_determinant(gb) == 0


def test_fglm_stops_after_two_images_of_low_rank(monkeypatch):
    image, calls = GB._image, []

    def counted(*args):
        calls.append(args[-1])
        return image(*args)

    monkeypatch.setattr(GB, "_image", counted)
    lex = GB.fglm(_fermat_chart_basis(), 3)
    assert len(calls) == 2
    assert not lex.in_shape_position()


def _smallest_prime_factor(n, skip=1):
    """The least prime that divides n and not skip."""
    f = 2
    while n % f or skip % f == 0 or any(f % k == 0 for k in range(2, f)):
        f += 1
    return f


def _krylov_determinant(gb):
    # det [1, z, ..., z^(D-1)] of the quotient, by exact Gaussian elimination
    monos = GB.quotient_basis(gb, 3)
    mz = [[rational(0)] * len(monos) for _ in monos]
    for j, (den, entries) in enumerate(GB.multiplication_matrices(gb, monos, 3)[2]):
        for r, a in entries:
            mz[j][r] = rational(a, den)
    v = [rational(int(m == (0, 0, 0))) for m in monos]
    rows = []
    for _ in monos:
        rows.append(v)
        v = [sum(mz[j][r] * v[j] for j in range(len(v))) for r in range(len(v))]
    det = rational(1)
    for c in range(len(rows)):
        k = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if k is None:
            return rational(0)
        rows[c], rows[k] = rows[k], rows[c]
        det *= rows[c][c] if k == c else -rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


@pytest.mark.parametrize("fault", ["denominator", "rank"])
def test_fglm_drops_unlucky_primes(monkeypatch, fault):
    gb = _chart_basis(3, 17)
    reference = GB.fglm(gb, 3)
    monos = GB.quotient_basis(gb, 3)
    dim = len(monos)
    mats = GB.multiplication_matrices(gb, monos, 3)
    start = monos.index((0, 0, 0))
    mz = GB._IntColumns(mats[2], dim)
    coords = GB._IntColumns([mats[i][start] for i in range(2)], dim)
    denominators = mz.den * coords.den
    if fault == "denominator":
        bad = _smallest_prime_factor(denominators)
        assert GB._image(mz, coords, start, bad) is None
    else:
        bad = _smallest_prime_factor(_krylov_determinant(gb).numerator, denominators)
        assert len(GB._image(mz, coords, start, bad)[0]) - 1 < dim
    primes = modular._primes
    tried = []

    def bad_first(bits):
        for q in chain([bad], primes(bits)):
            tried.append(q)
            yield q

    monkeypatch.setattr(modular, "_primes", bad_first)
    lex = GB.fglm(gb, 3)
    assert tried[0] == bad
    assert lex.eliminant == reference.eliminant
    assert lex.squarefree == reference.squarefree
    assert lex.numerators == reference.numerators


def test_non_reduced_point_through_squarefree_part():
    # x^2 = y = z = 0: one point of length 2, so the eliminant is not square-free
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    result = solve_zero_dimensional([x * x, y, z])
    assert result.solutions == [((rational(0),) * 3, 2)]
    assert any("not squarefree" in note for note in result.notes)


def _primitive(p, xs):
    # a sympy polynomial over Q as the content-free integer dict with positive lead
    import sympy

    poly = sympy.Poly(p, *xs)
    _, prim = poly.clear_denoms()
    prim = prim.primitive()[1]
    if prim.LC(order="grevlex") < 0:
        prim = -prim
    return {m: int(c) for m, c in prim.terms()}


@pytest.mark.parametrize(
    "tensor",
    [
        lambda: random_tensor(2, 5, 17),
        lambda: random_tensor(3, 3, 17),
        lambda: fermat_tensor(3, 4).to_partial(),
    ],
    ids=["(2,5) seed 17", "(3,3) seed 17", "Fermat (3,4)"],
)
def test_buchberger_matches_sympy_grevlex(tensor):
    sympy = pytest.importorskip("sympy")
    t = tensor()
    polys = chart_system(t, 0)
    nvars = t.n
    xs = sympy.symbols(f"x0:{nvars}")
    expected = []
    for p in polys:
        e = 0
        for mono, c in p.terms.items():
            e += sympy.Rational(int(c.numerator), int(c.denominator)) * sympy.Mul(
                *(x**k for x, k in zip(xs, mono))
            )
        expected.append(e)
    reference = sympy.groebner(expected, *xs, order="grevlex")
    ours = [GB.intdict_to_poly(g, nvars) for g in GB.buchberger(polys, nvars)]
    assert sorted(sorted((m, int(c)) for m, c in p.terms.items()) for p in ours) == sorted(
        sorted(_primitive(b, xs).items()) for b in reference.exprs
    )


def test_degree_guard_raises():
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    one = Polynomial.constant(2, rational(1))
    bound = GB.K.DEGREE_BOUND
    with pytest.raises(GB.EliminationError, match="generator"):
        GB.buchberger([x ** bound - one, y - one], 2)
    # each generator is below the bound, but the lcm of their leads reaches it
    half = bound // 2
    with pytest.raises(GB.EliminationError, match="S-pair"):
        GB.buchberger([x**half * y - one, x * y**half - one], 2)


def test_multiplication_columns_over_their_least_denominator():
    # each column's denominator is the lcm of its entries' reduced
    # denominators, so it shares no factor with all of its numerators
    gb = _chart_basis(3, 17)
    monos = GB.quotient_basis(gb, 3)
    mats = GB.multiplication_matrices(gb, monos, 3)
    reduced = 0
    for cols in mats:
        for den, entries in cols:
            assert den >= 1
            assert gcd(den, *(a for _, a in entries)) == 1
            reduced += den > 1
    assert reduced  # the chart has columns that the reduction divides
    mz = GB._IntColumns(mats[2], len(monos))
    assert mz.den == lcm(*(den for den, _ in mats[2]))


def _scalar_rur_numerator(h, dsq, sq, q):
    # h dsq mod the monic sq, modulo q, one product and one division at a time
    prod = [0] * (len(h) + len(dsq) - 1)
    for i, x in enumerate(h):
        for j, y in enumerate(dsq):
            prod[i + j] += x * y
    n = len(sq) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % q
        for j in range(n):
            prod[k - n + j] -= c * sq[j]
    return [x % q for x in prod[:n]] + [0] * (n - len(prod))


@pytest.mark.parametrize("dim", [15, 40, 57])
def test_rur_numerators_equal_the_scalar_products(dim):
    import random

    rng = random.Random(dim)
    q = next(modular._primes(modular._prime_bits(dim)))
    assert dim * q * q < 2**62 < dim * (2 * q) ** 2
    for n in (dim, dim - 3, 1):
        sq = [rng.randrange(q) for _ in range(n)] + [1]
        # entries near q, and a derivative whose top coefficient vanishes modulo q
        dsq = [rng.randrange(q - 100, q) for _ in range(n)]
        shape = [[rng.randrange(q) for _ in range(dim)] for _ in range(2)]
        shape.append([q - 1] * dim)
        for d in (dsq, dsq[:-1]):
            rows = GB._rur_numerator(shape, d, sq, q)
            assert rows.tolist() == [_scalar_rur_numerator(h, d, sq, q) for h in shape]
