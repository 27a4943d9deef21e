from hypothesis import given, strategies as st

from affine_crystals.cartan import (
    cl_root,
    decompose,
    pairing,
    root,
    rotate,
    simple_root,
    weight,
)
import pytest


def test_pairing_reads_coefficients():
    w = weight((2, 1, 0))
    assert pairing(0, w) == 2
    assert pairing(2, w) == 0
    assert pairing(1, weight((1, -2, 1))) == -2


def test_cl_root_cartan_columns():
    assert cl_root(simple_root(2, 1)) == weight((-1, 2, -1))
    assert cl_root(root((1, 1, 1))) == weight((0, 0, 0))
    assert cl_root(root((3, 3, 2))) == weight((1, 1, -2))


def test_decompose():
    assert decompose(weight((2, 1, 0))) == (0, 0, 1)
    assert decompose(weight((1,) + (0,) * 3)) == (0,)
    assert decompose(weight((0, 1, 2))) == (1, 2, 2)
    with pytest.raises(ValueError):
        decompose(weight((1, -1, 0)))


def test_rotate():
    lam = weight((2, 1, 0))
    assert rotate(lam, -1) == weight((0, 2, 1))  # 2L1 + L2
    assert rotate(lam, 1) == weight((1, 0, 2))   # L0 + 2L2
    assert rotate(weight((3, 0)), 1) == weight((0, 3))


@st.composite
def weights(draw, max_n=4, max_coeff=5):
    n = draw(st.integers(1, max_n))
    coeffs = draw(st.lists(st.integers(-max_coeff, max_coeff), min_size=n + 1, max_size=n + 1))
    return weight(coeffs)


@given(weights())
def test_rotate_roundtrip_and_level(w):
    assert rotate(rotate(w, 1), -1) == w
    assert rotate(w, 1).level == w.level


@st.composite
def roots(draw, max_n=4, max_coeff=6):
    n = draw(st.integers(1, max_n))
    ks = draw(st.lists(st.integers(0, max_coeff), min_size=n + 1, max_size=n + 1))
    return root(ks)


@given(roots(), st.data())
def test_cl_additive_with_delta_kernel(rv, data):
    other = root(data.draw(
        st.lists(st.integers(0, 6), min_size=rv.n + 1, max_size=rv.n + 1)
    ))
    assert cl_root(rv + other) == cl_root(rv) + cl_root(other)
    shifted = root(tuple(k + 2 for k in rv.k))
    assert cl_root(shifted) == cl_root(rv)
    # and the kernel is nothing else: nonconstant vectors have nonzero cl
    if len(set(rv.k)) > 1:
        assert cl_root(rv) != weight((0,) * (rv.n + 1))


@given(roots(), st.data())
def test_height_additivity(rv, data):
    sub = root(tuple(data.draw(st.integers(0, k)) for k in rv.k))
    assert sub <= rv
    assert (rv - sub).height == rv.height - sub.height


def test_root_subtraction_guard():
    with pytest.raises(ValueError):
        root((1, 0)) - root((0, 1))


@pytest.mark.parametrize("make, coeffs", [(weight, [1.5, 0.9]), (weight, "21"), (root, [0.5, 1]),
                                          (root, [1, 2.0])])
def test_non_integer_coefficients_are_rejected(make, coeffs):
    # a coefficient goes through operator.index: no float or digit string is rounded
    with pytest.raises(ValueError, match="^coefficients must be integers: "):
        make(coeffs)
    assert weight([True, 2]).a == (1, 2) and root(range(3)).k == (0, 1, 2)
