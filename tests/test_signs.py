"""Sign vectors, the refinement order, and the pairing maximum."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1geo.signs import (SignVector, consistent, dual_pairing_max, leq,
                         poset_cover_edges, sign_of)


def test_sign_vector_basics():
    s = SignVector.from_string("+0-")
    assert s.entries == (1, 0, -1)
    assert s.to_string() == "+0-"
    assert str(s) == "+0-"
    assert len(s) == 3
    assert s[0] == 1 and s[2] == -1
    assert list(s) == [1, 0, -1]
    assert s.support == (0, 2)
    assert s.cosupport == (1,)
    assert (-s).entries == (-1, 0, 1)
    assert not s.is_zero()
    assert SignVector.zero(4).is_zero()
    assert np.array_equal(s.as_array(), np.array([1.0, 0.0, -1.0]))


def test_sign_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignVector((2, 0))
    with pytest.raises(ValueError):
        SignVector.from_string("+x")


def test_leq_and_consistent():
    z = SignVector.zero(3)
    s = SignVector.from_string("+0-")
    t = SignVector.from_string("++-")
    assert leq(z, s) and leq(z, t)
    assert leq(s, t) and not leq(t, s)
    assert leq(s, s)
    assert not leq(SignVector.from_string("-0-"), t)
    assert consistent(s, t)
    assert not consistent(SignVector.from_string("-0-"), t)
    with pytest.raises(ValueError):
        leq(z, SignVector.zero(4))


def test_sign_of_thresholds():
    v = np.array([1e-12, -0.5, 2.0, -1e-12])
    assert sign_of(v).entries == (0, -1, 1, 0)
    assert sign_of(v, sign_tol=1.0).entries == (0, 0, 1, 0)


def test_dual_pairing_max_small():
    pm = dual_pairing_max(np.array([0.5, 0.0, -2.0]))
    assert pm.value == pytest.approx(2.5)
    assert pm.minimal_sign == SignVector.from_string("+0-")


# magnitudes bounded away from the sign threshold keep the oracle exact
_entry = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entry, min_size=1, max_size=6))
def test_pairing_bound_over_all_signs(vals):
    """<s, theta> <= l1(theta) for every sign vector, equality iff s refines
    the minimal attainer on the support of theta."""
    theta = np.array(vals)
    pm = dual_pairing_max(theta)
    assert pm.value == pytest.approx(float(np.abs(theta).sum()))
    for entries in itertools.product((-1, 0, 1), repeat=len(vals)):
        s = SignVector(entries)
        pairing = float(s.as_array() @ theta)
        assert pairing <= pm.value + 1e-9
        attains = abs(pairing - pm.value) <= 1e-9 * (1.0 + pm.value)
        assert attains == leq(pm.minimal_sign, s)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=5),
       st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=5))
def test_leq_is_a_partial_order(a, b):
    s, t = SignVector(tuple(a)), SignVector(tuple(b))
    if len(s) != len(t):
        return
    assert leq(s, s)
    if leq(s, t) and leq(t, s):
        assert s == t
    if leq(s, t):
        assert consistent(s, t)


def test_poset_cover_edges_diamond():
    signs = [SignVector.from_string(w) for w in ("00", "+0", "0-", "+-")]
    poset = poset_cover_edges(signs)
    assert poset.elements == tuple(sorted(signs, key=lambda s: s.entries))
    edges = {(a.to_string(), b.to_string()) for a, b in poset.cover_edges}
    assert edges == {("00", "+0"), ("00", "0-"), ("+0", "+-"), ("0-", "+-")}
    assert poset.minimal_elements() == (SignVector.from_string("00"),)
    assert poset.maximal_elements() == (SignVector.from_string("+-"),)
    assert SignVector.from_string("+0") in poset
    assert SignVector.from_string("-0") not in poset


def test_poset_cover_edges_skips_transitive_pairs():
    # chain 00 < +0 < ++ must not contain the transitive edge 00 -> ++
    signs = [SignVector.from_string(w) for w in ("00", "+0", "++")]
    poset = poset_cover_edges(signs)
    edges = {(a.to_string(), b.to_string()) for a, b in poset.cover_edges}
    assert edges == {("00", "+0"), ("+0", "++")}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from((-1, 0, 1)), min_size=4,
                         max_size=4), max_size=30))
def test_poset_cover_edges_match_leq(rows):
    signs = {SignVector(tuple(r)) for r in rows}
    less = {(s, t) for s in signs for t in signs if s != t and leq(s, t)}
    covers = {(s, t) for s, t in less
              if not any((s, u) in less and (u, t) in less for u in signs)}
    assert set(poset_cover_edges(signs).cover_edges) == covers


def test_poset_cover_edges_empty_and_mixed_length():
    assert poset_cover_edges([]).elements == ()
    with pytest.raises(ValueError):
        poset_cover_edges([SignVector.zero(2), SignVector.zero(3)])
