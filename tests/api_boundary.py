"""API-boundary pass over the path layer: every input returns or raises ValueError.

Run as a script, under ``python -O`` so that no ``assert`` guards anything:
``PYTHONPATH=src python -O tests/api_boundary.py``.  It covers ``weight``, the
three perfect-crystal element constructors, ``Path``, ``ground_path``,
``from_word``, ``lowering_steps``, ``word_alpha`` and ``parse_word`` on inputs of
the right container types with any entries (ints, floats, bools, None, text),
and weights of any rank and sign.  A ValueError must be one line, and a value
returned must be usable: elements hold int entries, paths render and weigh.
Any other exception ends the run with its traceback and a non-zero exit.
"""

from hypothesis import given, settings, strategies as st

from affine_crystals.cartan import Weight, weight
from affine_crystals.paths import (Path, from_word, ground_path, lowering_steps, parse_word,
                                   word_alpha)
from affine_crystals.perfect import AdjElem, B1Elem, BnElem, all_adj, all_b1, all_bn

RUN = settings(max_examples=300, derandomize=True, deadline=None, database=None)

junk = st.one_of(st.integers(-2, 3), st.floats(-1, 3, allow_nan=False), st.booleans(),
                 st.none(), st.text("12^ ", max_size=2))
entries = st.one_of(st.lists(junk, max_size=4), st.lists(st.integers(0, 2), max_size=4), junk)
lams = st.one_of(st.builds(Weight, st.tuples(*[st.integers(-1, 2)] * 3)),
                 st.builds(Weight, st.lists(st.integers(0, 2), max_size=4).map(tuple)),
                 st.builds(Weight, st.lists(junk, max_size=3).map(tuple)),
                 st.tuples(st.integers(0, 2), st.integers(0, 2)), st.none())
kinds = st.sampled_from(["B1", "Bn", "Ad", "b1", "", "B2"])
letters = st.one_of(st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
                    st.tuples(junk, junk), st.lists(st.integers(0, 2), max_size=3), junk)
words = st.lists(letters, max_size=5)
POOL = [b for n in (1, 2) for lvl in (1, 2)
        for b in (*all_b1(n, lvl)[:4], *all_bn(n, lvl)[:4], *all_adj(n, lvl)[:4])]
devs = st.lists(st.one_of(st.sampled_from(POOL), junk), max_size=4)


def _fail(what, value):
    raise AssertionError(f"{what}: {value!r}")


def _returns_or_value_error(call, *args):
    """call(*args), or None when it raises a one-line ValueError."""
    try:
        return call(*args)
    except ValueError as err:
        if len(str(err).splitlines()) != 1:
            _fail("ValueError of more than one line", str(err))
        return None


def _usable_elem(b):
    if b is not None and not all(type(x) is int for v in b._value()
                                 for x in (v if isinstance(v, tuple) else (v,))):
        _fail("element with a non-int entry", b)
    if b is not None:
        b.render(), b.to_json()


def _usable_path(p):
    if p is not None:
        str(p), p.wt(), [(b.render(), b.to_json()) for b in p.devs]


@RUN
@given(entries)
def check_weight(coeffs):
    w = _returns_or_value_error(weight, coeffs)
    if w is not None and not all(type(x) is int for x in w.a):
        _fail("weight with a non-int coefficient", w)


@RUN
@given(entries, entries, junk)
def check_elements(v, w, cap):
    for cls in (B1Elem, BnElem):
        _usable_elem(_returns_or_value_error(cls, v))
    _usable_elem(_returns_or_value_error(AdjElem, v, w, cap))


@RUN
@given(lams, kinds, devs)
def check_path(lam, kind, devs):
    _usable_path(_returns_or_value_error(Path, lam, kind, devs))
    _usable_path(_returns_or_value_error(ground_path, lam, kind))


@RUN
@given(lams, kinds, words)
def check_lowering(lam, kind, word):
    _usable_path(_returns_or_value_error(from_word, lam, kind, word))
    res = _returns_or_value_error(lowering_steps, lam, kind, word)
    if res is not None:
        _usable_path(res[0])


@RUN
@given(st.integers(-1, 3), words)
def check_word_alpha(n, word):
    counts = _returns_or_value_error(word_alpha, n, word)
    if counts is not None and (len(counts) != n + 1 or min(counts, default=0) < 0):
        _fail("word_alpha counts", counts)


@RUN
@given(st.text("0123^ \t٣x", max_size=12))
def check_parse_word(text):
    word = _returns_or_value_error(parse_word, text)
    if word is not None:
        _returns_or_value_error(word_alpha, 3, word)


if __name__ == "__main__":
    if __debug__:
        raise SystemExit("run under python -O")
    for check in (check_weight, check_elements, check_path, check_lowering, check_word_alpha,
                  check_parse_word):
        check()
        print("ok", check.__name__)
