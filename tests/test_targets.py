from fractions import Fraction

import pytest

from refmon.presentation import parse_presentation
from refmon.targets import (
    INF,
    FreeAbelian,
    FreeAbelianWithInfinity,
    NonnegIntegers,
    NonnegIntegersWithInfinity,
    NonnegPlaneWithInfinity,
    NonnegRationals,
    PairMonoid,
    build_certificate,
    vec,
    vec_add,
    vec_scale,
)

ABSORB = parse_presentation("monoid A\ngenerators e f\nrelation e + f = f\n")


def test_vec_canonical():
    assert vec(a=1, b=0) == (("a", 1),)
    assert vec_add(vec(a=1), vec(a=-1, b=2)) == (("b", 2),)
    assert vec_scale(0, vec(a=5)) == ()
    assert vec_scale(3, vec(a=2)) == (("a", 6),)


def test_rationals_and_integers():
    q = NonnegRationals()
    assert q.scale(3, Fraction(1, 2)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        q.validate(Fraction(-1))
    z = NonnegIntegers()
    with pytest.raises(ValueError):
        z.validate(-2)


def test_infinity_absorbs():
    t = NonnegIntegersWithInfinity()
    assert t.add(3, INF) is INF
    assert t.scale(0, INF) == 0
    assert t.scale(2, INF) is INF
    t.validate(INF)


def test_free_abelian_groups_allow_negatives():
    g = FreeAbelian()
    g.validate(vec(a=-3))
    assert g.add(vec(a=1), vec(a=-1)) == ()
    gi = FreeAbelianWithInfinity()
    assert gi.add(vec(a=1), INF) is INF
    assert gi.scale(0, INF) == ()


def test_pair_monoid_cone():
    t = PairMonoid()
    t.validate((5, 0))
    t.validate((-3, 1))
    with pytest.raises(ValueError):
        t.validate((-1, 0))
    with pytest.raises(ValueError):
        t.validate((0, -1))
    assert t.add((-3, 1), (4, 0)) == (1, 1)


def test_plane_with_infinity():
    t = NonnegPlaneWithInfinity()
    assert t.add((1, 2), (3, 4)) == (4, 6)
    assert t.add((1, 2), INF) is INF
    with pytest.raises(ValueError):
        t.validate((-1, 0))


def test_build_certificate_validates_relations():
    # e -> 1 breaks e + f = f unless f absorbs
    with pytest.raises(ValueError, match="relation violated"):
        build_certificate(ABSORB, NonnegIntegers(), {"e": 1, "f": 0}, "bad")
    ok = build_certificate(ABSORB, NonnegIntegersWithInfinity(), {"e": 1, "f": INF}, "ok")
    assert ok.apply(ABSORB.word("2*e + f")) is INF
    assert ok.apply(ABSORB.word("3*e")) == 3


def test_build_certificate_missing_images():
    with pytest.raises(ValueError, match="missing images"):
        build_certificate(ABSORB, NonnegIntegers(), {"e": 0}, "partial")


def test_apply_on_zero_word():
    hom = build_certificate(ABSORB, NonnegIntegersWithInfinity(), {"e": 0, "f": INF}, "h")
    assert hom.apply(ABSORB.word("0")) == 0


@pytest.mark.parametrize(
    "images, message",
    [
        ({0: 1, -1: INF}, "bad generator key -1"),
        ({0: 0, 2: 0}, "bad generator key 2"),
        ({0: 0, True: 0}, "bad generator key True"),
        ({"e": 1, 0: 2, "f": 0}, "generator 'e' given twice, as 'e' and 0"),
        ({"e": 0, "g": 0}, "unknown generator 'g'"),
    ],
)
def test_build_certificate_rejects_bad_keys(images, message):
    with pytest.raises(ValueError, match=message):
        build_certificate(ABSORB, NonnegIntegersWithInfinity(), images, "keys")


def test_build_certificate_keys_by_name_or_index():
    by_index = build_certificate(ABSORB, NonnegIntegersWithInfinity(), {0: 1, 1: INF}, "h")
    assert by_index.images == (1, INF)
    assert build_certificate(ABSORB, NonnegIntegersWithInfinity(), {"f": INF, 0: 1}, "h").images == (1, INF)
