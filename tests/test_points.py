import pytest

from eigenpoints.points import PointSet, ProjectivePoint, point_from_json
from eigenpoints.rationals import rational


def test_exact_normalization():
    p = ProjectivePoint([rational(0), rational(2), rational(4)])
    assert p.coords == (rational(0), rational(1), rational(2))
    assert p.exact


def test_float_normalization_max_modulus():
    p = ProjectivePoint([1.0 + 0j, 3.0 + 4j, 1.0 + 0j])
    mags = [abs(z) for z in p.coords]
    assert max(mags) == pytest.approx(1.0)
    assert p.coords[1] == pytest.approx(1.0 + 0j)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        ProjectivePoint([rational(0), rational(0)])


def test_same_point_projective():
    a = ProjectivePoint([rational(1), rational(2)])
    b = ProjectivePoint([rational(2), rational(4)])
    assert a.same_point(b)
    c = ProjectivePoint([2.0, 4.0])
    assert a.same_point(c)


def test_point_set_dedup_and_sort():
    ps = PointSet(1)
    assert ps.add(ProjectivePoint([rational(1), rational(2)]))
    assert not ps.add(ProjectivePoint([rational(-1), rational(-2)]))
    assert ps.add(ProjectivePoint([rational(1), rational(1)]))
    assert len(ps) == 2


def test_subset_and_equality():
    a = PointSet(1, [ProjectivePoint([rational(1), rational(k)]) for k in range(3)])
    b = PointSet(1, [ProjectivePoint([rational(1), rational(k)]) for k in range(4)])
    assert a.is_subset_of(b)
    assert not b.is_subset_of(a)
    assert not a.same_set(b)


def test_json_round_trip_exact_and_float():
    ps = PointSet(2)
    ps.add(ProjectivePoint([rational(1), rational(1, 2), rational(0)]))
    ps.add(ProjectivePoint([1.0, 0.5 + 0.1j, 0.0]))
    data = ps.to_json()
    back = PointSet.from_json(data)
    assert back.same_set(ps)
    exact_coords = [e["coords"] for e in data["points"] if isinstance(e["coords"][0], str)]
    assert exact_coords and exact_coords[0][1] == "1/2"


def test_point_from_json_forms():
    p = point_from_json(["1", "1/3", "0"])
    assert p.exact
    q = point_from_json([[1.0, 0.0], [0.5, -0.25], [0.0, 0.0]])
    assert not q.exact


def test_point_from_json_integers_are_exact():
    p = point_from_json([1, 0, 2, 3])
    assert p.exact
    assert p.coords == (rational(1), rational(0), rational(2), rational(3))
    # an integer beyond the double range parses exactly too
    big = point_from_json([10**400, 1, "1/2"])
    assert big.exact and big.coords[1] == rational(1, 10**400)
    # floats stay floating, and booleans are no coordinates
    assert not point_from_json([1.0, 0, 2]).exact
    with pytest.raises(ValueError):
        point_from_json([True, 0, 1])


def test_point_from_json_rejects_doubles_that_are_not_finite():
    for part in (10**400, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            point_from_json([[part, 0.0], 1, 1])
        with pytest.raises(ValueError):
            point_from_json([[1.0, part], 1, 1])
    with pytest.raises(ValueError):
        point_from_json([float("inf"), 1.0, 0.0])
    # large finite doubles are accepted
    assert not point_from_json([[1e308, -1e308], 1.0, 0.0]).exact


def test_is_real():
    assert ProjectivePoint([rational(1), rational(2)]).is_real()
    assert ProjectivePoint([1.0, 2.0 + 1e-12j]).is_real()
    assert not ProjectivePoint([1.0, 2.0 + 0.5j]).is_real()


def test_point_set_keeps_the_order_of_a_stable_sort():
    import random

    rng = random.Random(3)
    points = []
    for _ in range(60):
        x = rational(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.3:
            # a distinct exact point with the same rounded key
            x += rational(1, 10**12)
        points.append(ProjectivePoint([rational(1), x, rational(rng.randint(0, 2))]))
        if rng.random() < 0.2:
            points.append(ProjectivePoint([1.0, complex(x) + 1e-12, rng.randint(0, 2) + 0j]))
    ps, kept = PointSet(2), []
    for p in points:
        if ps.add(p):
            kept.append(p)
            assert ps.points == sorted(kept, key=lambda q: q.sort_key())
    assert len({p.sort_key() for p in kept}) < len(kept)
