import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_o_words_of_weight, all_cfl_factorizations,
                     derivation_leaves, falls, is_standard_sequence,
                     landmarks, merge_at_rise, o_is_lyndon_rotation,
                     o_is_lyndon_suffix, o_word_key, split_at_landmark,
                     standard_sequences, swap_at_fall, swap_at_rise)
from qstuffle.lyndon import (cfl_factorization, converse_tree, is_lyndon,
                             legal_rises, lyndon_of_weight, lyndon_up_to,
                             rises, standard_factorization)
from qstuffle.words import (all_words_up_to, decode_word, word_key,
                            word_less, words_of_weight)


def test_is_lyndon_examples():
    assert is_lyndon((2, 1))
    assert not is_lyndon((1, 2))
    assert is_lyndon((1,))
    assert not is_lyndon(())
    assert not is_lyndon((1, 1))


def test_lyndon_characterizations_agree():
    for w in all_words_up_to(7):
        assert is_lyndon(w) == o_is_lyndon_suffix(w) == o_is_lyndon_rotation(w)


def test_lyndon_of_weight():
    assert lyndon_of_weight(3) == ((3,), (2, 1))
    assert lyndon_of_weight(1) == ((1,),)
    assert lyndon_of_weight(4) == ((4,), (3, 1), (2, 1, 1))
    for n in range(1, 8):
        assert set(lyndon_of_weight(n)) == \
            {w for w in words_of_weight(n) if is_lyndon(w)}


def test_lyndon_listing_caches_no_rejected_word():
    """The listing decodes uncached, and Duval keys only the factors it
    compares, all Lyndon words of a smaller weight."""
    for cached in (decode_word, word_key):
        cached.cache_clear()
    lyndon_of_weight(12)
    smaller = sum(o_is_lyndon_suffix(w) for n in range(1, 12)
                  for w in _o_words_of_weight(n))
    assert decode_word.cache_info().currsize == 0
    assert word_key.cache_info().currsize <= smaller


def test_cfl_examples():
    assert cfl_factorization((1, 2, 1)) == ((1,), (2, 1))
    assert cfl_factorization((2, 1)) == ((2, 1),)
    assert cfl_factorization((1, 1)) == ((1,), (1,))
    with pytest.raises(ValueError):
        cfl_factorization(())


def test_cfl_properties_and_uniqueness():
    for n in range(1, 7):
        for w in words_of_weight(n):
            factors = cfl_factorization(w)
            assert sum(factors, ()) == w
            assert all(is_lyndon(f) for f in factors)
            assert all(not word_less(factors[i], factors[i + 1])
                       for i in range(len(factors) - 1))
            assert all_cfl_factorizations(w) == [factors]


@settings(deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12).map(tuple))
def test_duval_factors_of_random_words(w):
    factors = cfl_factorization(w)
    assert all(o_is_lyndon_suffix(f) for f in factors)
    assert all(o_word_key(factors[i + 1]) <= o_word_key(factors[i])
               for i in range(len(factors) - 1))
    assert sum(factors, ()) == w
    assert all_cfl_factorizations(w)[0] == factors


def test_standard_factorization_examples():
    assert standard_factorization((2, 1)) == ((2,), (1,))
    assert standard_factorization((3, 1, 2)) == ((3, 1), (2,))
    assert standard_factorization((2, 1, 1)) == ((2, 1), (1,))
    with pytest.raises(ValueError):
        standard_factorization((1,))
    with pytest.raises(ValueError):
        standard_factorization((1, 2))


@pytest.mark.parametrize("name, factorize", [
    ("word_leq", lambda: cfl_factorization((1, 2))),
    ("word_less", lambda: standard_factorization((2, 1)))],
    ids=["cfl", "standard"])
def test_failed_self_check_raises(monkeypatch, name, factorize):
    """Each factorization checks its result with the word order; a failed
    check is a RuntimeError, which `python -O` keeps."""
    from qstuffle import lyndon
    monkeypatch.setattr(lyndon, name, lambda u, v: False)
    with pytest.raises(RuntimeError):
        factorize()


def test_standard_factorization_properties():
    for n in range(2, 8):
        for l in lyndon_of_weight(n):
            if len(l) < 2:
                continue
            s, r = standard_factorization(l)
            assert is_lyndon(s) and is_lyndon(r)
            assert s + r == l
            assert word_less(l, r)
            assert word_less(s, l)
            # agreement with the longest-Lyndon-proper-suffix convention
            longest = max((l[i:] for i in range(1, len(l))
                           if is_lyndon(l[i:])), key=len)
            assert r == longest


def test_standard_sequence_predicate():
    assert is_standard_sequence(((4,), (2,), (1,)))
    assert is_standard_sequence(((3, 1), (2,)))   # right factor (1,) >= (2,)
    assert not is_standard_sequence(((3, 2), (1,)))  # right factor (2,) < (1,)
    assert not is_standard_sequence(((2, 1), (1, 1)))  # (1,1) not Lyndon
    assert not is_standard_sequence(())


def test_rises_and_legal_rises():
    s = ((4,), (2,), (1,))
    assert rises(s) == [0, 1]
    assert legal_rises(s) == [1]
    assert legal_rises(((2,), (1,))) == [0]
    assert legal_rises(((2, 1), (3,), (4,))) == []  # decreasing: no rises
    assert legal_rises(((3,), (1,), (2,))) == [0]


def test_merge_and_swap():
    assert merge_at_rise(((2,), (1,)), 0) == ((2, 1),)
    assert merge_at_rise(((4,), (2,), (1,)), 1) == ((4,), (2, 1))
    assert merge_at_rise(((3,), (1,), (2,)), 0) == ((3, 1), (2,))
    assert swap_at_rise(((2,), (1,)), 0) == ((1,), (2,))
    assert swap_at_rise(((4,), (2,), (1,)), 1) == ((4,), (1,), (2,))
    with pytest.raises(ValueError):
        merge_at_rise(((4,), (2,), (1,)), 0)  # rise but not legal
    with pytest.raises(ValueError):
        swap_at_rise(((2,), (1,)), 1)


def test_falls_landmarks_and_inverses():
    assert falls(((2,), (1,))) == []          # y_2 < y_1: no fall
    assert falls(((1,), (2,))) == [0]
    assert falls(((3,), (1,), (2, 1))) == [1]
    assert landmarks(((2, 1),)) == [0]
    assert landmarks(((3,), (2, 1), (1,))) == [1]
    assert landmarks(((2, 1), (3, 1))) == [0]
    assert split_at_landmark(((2, 1),), 0) == ((2,), (1,))
    assert swap_at_fall(((1,), (2,)), 0) == ((2,), (1,))
    with pytest.raises(ValueError):
        swap_at_fall(((2,), (1,)), 0)
    with pytest.raises(ValueError):
        split_at_landmark(((2,), (1,)), 0)


def _leaf_seqs(leaves):
    return sorted(leaves.elements(), key=lambda s: tuple(map(word_key, s)))


def test_derivation_tree_examples():
    leaves = derivation_leaves(((2,), (1,)))
    assert _leaf_seqs(leaves) == [((2, 1),), ((1,), (2,))]

    seq = ((2, 1), (3,))
    assert derivation_leaves(seq) == Counter({seq: 1})  # decreasing sequence

    leaves = derivation_leaves(((4,), (2,), (1,)))
    expected = sorted([
        ((4, 2, 1),),
        ((2, 1), (4,)),
        ((4, 1, 2),),
        ((2,), (4, 1)),
        ((1,), (4, 2)),
        ((1,), (2,), (4,)),
    ], key=lambda s: tuple(map(word_key, s)))
    assert _leaf_seqs(leaves) == expected


def test_derivation_tree_terminates_and_leaves_decrease():
    for seq in standard_sequences(5, 3):
        for policy in (min, max):
            for leaf in derivation_leaves(seq, policy):
                assert legal_rises(leaf) == []
                assert all(not word_less(leaf[i], leaf[i + 1])
                           for i in range(len(leaf) - 1))


def test_converse_tree_examples():
    assert converse_tree(((2, 1),)) == {((2, 1),): 1, ((2,), (1,)): 1}
    assert merge_at_rise(((2,), (1,)), 0) == ((2, 1),)  # a lambda step

    assert converse_tree(((1,),)) == {((1,),): 1}

    assert converse_tree(((3, 1, 2),)) == {
        ((3, 1, 2),): 1, ((3, 1), (2,)): 1, ((3,), (1,), (2,)): 1,
        ((3,), (2,), (1,)): 1}
    assert merge_at_rise(((3, 1), (2,)), 0) == ((3, 1, 2),)
    assert merge_at_rise(((3,), (1,), (2,)), 0) == ((3, 1), (2,))


def test_converse_tree_inverts_smallest_rise_steps():
    """(3),(2),(2,1) steps to (3),(2,1),(2) by a swap at its smallest legal
    rise, 1, although entry 2 is not a letter; the map of 3,2,1,2 holds
    it."""
    paths = converse_tree(((3, 2, 1, 2),))
    assert ((3,), (2,), (2, 1)) in paths
    assert ((3,), (2, 1), (2,)) in paths


def test_converse_tree_children_derive_their_parent():
    """Every sequence t of the map of (l) other than (l) steps, at
    min(legal_rises(t)), to a sequence of the map, and its path count is
    the sum of the counts of its two one-step results."""
    for l in lyndon_up_to(7):
        paths = converse_tree((l,))
        assert paths[(l,)] == 1
        for t, count in paths.items():
            if t == (l,):
                continue
            i = min(legal_rises(t))
            steps = (merge_at_rise(t, i), swap_at_rise(t, i))
            assert count == sum(paths.get(s, 0) for s in steps) >= 1


def test_converse_tree_matches_derivation_leaves():
    """Two routes to the same counts: the inverse steps from (l) and the
    forward moves from t reach each other along the same paths."""
    seqs = standard_sequences(7, 7)
    maps = {l: converse_tree((l,)) for l in lyndon_up_to(7)}
    for paths in maps.values():
        assert set(paths) <= set(seqs)
    for t in seqs:
        leaves = derivation_leaves(t)
        for l, paths in maps.items():
            assert paths.get(t, 0) == leaves[(l,)]


def test_converse_tree_totals():
    """Path counts and distinct sequences over the Lyndon words of weight
    <= 9 and <= 11, as the trees that listed every path gave them."""
    for n, total, keys in ((9, 842, 715), (11, 7114, 4673)):
        maps = [converse_tree((l,)) for l in lyndon_up_to(n)]
        assert sum(sum(m.values()) for m in maps) == total
        assert sum(len(m) for m in maps) == keys
