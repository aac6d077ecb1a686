import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_cd_mul, run_python
from nilrad import division as dv
from nilrad.division import Tag


def elements(tag):
    return st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=tag.dim, max_size=tag.dim,
    ).map(lambda cs: dv.element(tag, cs))


def test_quaternion_defining_relation():
    assert dv.mul(dv.unit(Tag.H, 1), dv.unit(Tag.H, 2)) == dv.unit(Tag.H, 3)


def test_imaginary_units_square_to_minus_one():
    for tag in (Tag.C, Tag.H, Tag.O):
        for k in range(1, tag.dim):
            assert dv.mul(dv.unit(tag, k), dv.unit(tag, k)) == -dv.unit(tag, 0)


def test_doubling_unit_products():
    e = lambda k: dv.unit(Tag.O, k)
    assert dv.mul(e(1), e(4)) == e(5)
    assert dv.mul(e(2), e(4)) == e(6)
    assert dv.mul(e(3), e(4)) == e(7)


def test_octonions_not_associative_with_sign_flip():
    e = lambda k: dv.unit(Tag.O, k)
    left = dv.mul(dv.mul(e(1), e(2)), e(4))
    right = dv.mul(e(1), dv.mul(e(2), e(4)))
    assert left == -right
    assert left == e(7)


def test_some_basis_triple_fails_associativity():
    e = lambda k: dv.unit(Tag.O, k)
    bad = [(i, j, k) for i, j, k in itertools.product(range(8), repeat=3)
           if dv.mul(dv.mul(e(i), e(j)), e(k)) != dv.mul(e(i), dv.mul(e(j), e(k)))]
    assert bad


def test_basis_alternativity_exhaustive():
    e = lambda k: dv.unit(Tag.O, k)
    for i in range(8):
        for j in range(8):
            x, y = e(i), e(j)
            assert dv.mul(x, dv.mul(x, y)) == dv.mul(dv.mul(x, x), y)
            assert dv.mul(dv.mul(y, x), x) == dv.mul(y, dv.mul(x, x))


def test_conjugation_of_unit_product():
    e = lambda k: dv.unit(Tag.O, k)
    prod = dv.mul(e(1), e(2))
    assert dv.conj(prod) == -prod
    assert dv.conj(prod) == dv.mul(e(2), e(1))


def test_conj_re_im_basics():
    a = dv.element(Tag.C, ["2", "-3"])
    assert dv.conj(a) == dv.element(Tag.C, ["2", "3"])
    assert dv.re(dv.unit(Tag.H, 1)) == 0
    assert dv.conj(dv.unit(Tag.H, 1)) == -dv.unit(Tag.H, 1)


def test_mixed_tags_rejected():
    with pytest.raises(ValueError):
        dv.mul(dv.unit(Tag.C, 0), dv.unit(Tag.H, 0))


@settings(max_examples=40, deadline=None)
@given(elements(Tag.O), elements(Tag.O))
def test_octonion_alternativity(x, y):
    assert dv.mul(x, dv.mul(x, y)) == dv.mul(dv.mul(x, x), y)
    assert dv.mul(dv.mul(y, x), x) == dv.mul(y, dv.mul(x, x))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([Tag.R, Tag.C, Tag.H, Tag.O]), st.data())
def test_norm_is_multiplicative(tag, data):
    x = data.draw(elements(tag))
    y = data.draw(elements(tag))
    assert dv.norm_sq(dv.mul(x, y)) == dv.norm_sq(x) * dv.norm_sq(y)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([Tag.R, Tag.C, Tag.H]), st.data())
def test_associativity_below_octonions(tag, data):
    x, y, z = (data.draw(elements(tag)) for _ in range(3))
    assert dv.mul(dv.mul(x, y), z) == dv.mul(x, dv.mul(y, z))


@settings(max_examples=30, deadline=None)
@given(elements(Tag.O), elements(Tag.O))
def test_conj_antihomomorphism(x, y):
    assert dv.conj(dv.mul(x, y)) == dv.mul(dv.conj(y), dv.conj(x))


@settings(max_examples=30, deadline=None)
@given(elements(Tag.H))
def test_conj_involution_and_parts(x):
    assert dv.conj(dv.conj(x)) == x
    two_re = dv.element(Tag.H, [2 * dv.re(x), 0, 0, 0])
    assert x + dv.conj(x) == two_re
    assert dv.re(x - dv.conj(x)) == 0


def test_unit_tables_match_the_fraction_build():
    # the tables double on units; the general product on Fraction units gives the same
    for dim in (1, 2, 4, 8):
        table = dv._build_table(dim)
        ref = []
        for i in range(dim):
            ei = [Fraction(int(t == i)) for t in range(dim)]
            row = []
            for j in range(dim):
                prod = reference_cd_mul(ei, [Fraction(int(t == j)) for t in range(dim)])
                (k, x), = [(t, v) for t, v in enumerate(prod) if v]
                row.append((int(x), k))
            ref.append(tuple(row))
        assert table == tuple(ref)
        assert all(type(sign) is int for row in table for sign, _ in row)


def test_unit_tables_are_built_on_first_use():
    out = run_python("""
        import nilrad.cli
        from nilrad import division as dv
        before = dv._build_table.cache_info().currsize
        dv.mul(dv.unit(dv.Tag.H, 1), dv.unit(dv.Tag.H, 2))
        print(before, dv._build_table.cache_info().currsize)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "1"]
