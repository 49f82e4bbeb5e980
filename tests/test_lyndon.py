import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (all_cfl_factorizations, falls, is_standard_sequence,
                     landmarks, largest_rise_policy, o_is_lyndon_rotation,
                     o_is_lyndon_suffix, o_word_key, split_at_landmark,
                     swap_at_fall)
from qstuffle.lyndon import (cfl_factorization, cfl_grouped, converse_tree,
                             derivation_tree, is_lyndon, legal_rises,
                             lyndon_of_weight, lyndon_up_to, merge_at_rise,
                             rises, standard_factorization, swap_at_rise)
from qstuffle.words import all_words_up_to, word_key, word_less, words_of_weight


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


def test_cfl_examples():
    assert cfl_factorization((1, 2, 1)) == ((1,), (2, 1))
    assert cfl_factorization((2, 1)) == ((2, 1),)
    assert cfl_factorization((1, 1)) == ((1,), (1,))
    assert cfl_grouped((1, 1, 2)) == [((1,), 2), ((2,), 1)]
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


def _leaf_seqs(tree):
    return sorted((leaf.seq for leaf in tree.leaves()),
                  key=lambda s: tuple(map(word_key, s)))


def test_derivation_tree_examples():
    tree = derivation_tree(((2,), (1,)))
    assert _leaf_seqs(tree) == [((2, 1),), ((1,), (2,))]

    tree = derivation_tree(((2, 1), (3,)))
    assert tree.is_leaf()  # decreasing sequence

    tree = derivation_tree(((4,), (2,), (1,)))
    expected = sorted([
        ((4, 2, 1),),
        ((2, 1), (4,)),
        ((4, 1, 2),),
        ((2,), (4, 1)),
        ((1,), (4, 2)),
        ((1,), (2,), (4,)),
    ], key=lambda s: tuple(map(word_key, s)))
    assert _leaf_seqs(tree) == expected


def _standard_sequences(total_weight, max_len):
    singles = lyndon_up_to(total_weight)
    seqs = []
    pool = [()]
    for _ in range(max_len):
        pool = [s + (l,) for s in pool for l in singles
                if sum(map(sum, s)) + sum(l) <= total_weight]
        seqs.extend(pool)
    return [s for s in seqs if is_standard_sequence(s)]


def test_derivation_tree_terminates_and_leaves_decrease():
    for seq in _standard_sequences(5, 3):
        for policy in (None, largest_rise_policy):
            tree = derivation_tree(seq) if policy is None \
                else derivation_tree(seq, policy)
            for leaf in tree.leaves():
                assert legal_rises(leaf.seq) == []
                assert all(not word_less(leaf.seq[i], leaf.seq[i + 1])
                           for i in range(len(leaf.seq) - 1))


def test_converse_tree_examples():
    tree = converse_tree(((2, 1),))
    assert [ch.seq for ch in tree.children] == [((2,), (1,))]
    assert tree.children[0].op == "lambda"

    assert converse_tree(((1,),)).is_leaf()

    tree = converse_tree(((3, 1, 2),))
    assert [ch.seq for ch in tree.children] == [((3, 1), (2,))]
    grandchildren = [g.seq for g in tree.children[0].children]
    assert grandchildren == [((3,), (1,), (2,))]


def test_tree_json_export():
    data = derivation_tree(((2,), (1,))).to_json()
    assert data["label"] == "2;1"
    assert data["op"] is None
    ops = {child["op"] for child in data["children"]}
    assert ops == {"lambda", "rho"}


def test_converse_tree_inverts_smallest_rise_steps():
    """(3),(2),(2,1) steps to (3),(2,1),(2) by a swap at its smallest legal
    rise, 1, although entry 2 is not a letter; the tree of 3,2,1,2 holds
    it."""
    seqs = [node.seq for node in converse_tree(((3, 2, 1, 2),)).nodes()]
    assert ((3,), (2,), (2, 1)) in seqs
    assert ((3,), (2, 1), (2,)) in seqs


def test_converse_tree_children_derive_their_parent():
    """Every child t of a node s derives s in one step at min(legal
    rises(t)), the index the child records; every node derives to (l)."""
    for l in lyndon_up_to(7):
        for node in converse_tree((l,)).nodes():
            for child in node.children:
                t, i = child.seq, child.index
                assert min(legal_rises(t)) == i
                move = merge_at_rise if child.op == "lambda" else swap_at_rise
                assert move(t, i) == node.seq
