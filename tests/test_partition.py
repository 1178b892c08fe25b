import math

import numpy as np
import pytest

from selcorr.partition import cls_similarity, split_tokens


def test_softmax_two_key_oracle():
    # logits 0 and ln 3 at d=1 give exactly (1/4, 3/4)
    scores = cls_similarity(np.array([1.0]), np.array([[0.0], [math.log(3.0)]]))
    assert scores == pytest.approx([0.25, 0.75], abs=1e-15)


def test_scores_normalized_and_positive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 16))
        n = int(rng.integers(2, 50))
        scores = cls_similarity(rng.standard_normal(d), rng.standard_normal((n, d)))
        assert abs(scores.sum() - 1.0) <= 1e-9
        assert scores.min() > 0.0


def test_sqrt_d_scaling():
    # doubling every coordinate at d=4 doubles the logit difference after 1/sqrt(d)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    keys = np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0]])
    scores = cls_similarity(q, keys)
    expect = 1.0 / (1.0 + math.exp(2.0 / 2.0))
    assert scores[0] == pytest.approx(expect, abs=1e-15)


def test_similarity_shape_errors():
    with pytest.raises(ValueError):
        cls_similarity(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        cls_similarity(np.zeros(3), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        cls_similarity(np.array([np.inf]), np.zeros((2, 1)))


def _uniform(n):
    return np.full(n, 1.0 / n)


def test_split_counts():
    part = split_tokens(_uniform(144), 0.25)
    assert part.attentive.size == 36
    assert part.inattentive.size == 108
    assert np.array_equal(np.union1d(part.attentive, part.inattentive), np.arange(144))
    # eta = 0.1: 14.4 rounds down
    assert split_tokens(_uniform(144), 0.1).attentive.size == 14


def test_round_half_up():
    # 10 * 0.25 = 2.5 -> 3, not banker's 2
    assert split_tokens(_uniform(10), 0.25).attentive.size == 3


def test_split_clamps():
    assert split_tokens(_uniform(4), 0.01).attentive.size == 1
    assert split_tokens(_uniform(4), 0.999).attentive.size == 3


def test_tie_break_prefers_lower_index():
    part = split_tokens(_uniform(8), 0.5)
    assert np.array_equal(part.attentive, [0, 1, 2, 3])


def test_partition_is_disjoint_and_sorted():
    rng = np.random.default_rng(3)
    raw = rng.random(30)
    scores = raw / raw.sum()
    part = split_tokens(scores, 0.3)
    merged = np.concatenate([part.attentive, part.inattentive])
    assert np.array_equal(np.sort(merged), np.arange(30))
    assert np.array_equal(part.attentive, np.sort(part.attentive))
    assert np.array_equal(part.inattentive, np.sort(part.inattentive))
    # every attentive score >= every inattentive score
    assert scores[part.attentive].min() >= scores[part.inattentive].max()


def test_split_input_validation():
    with pytest.raises(ValueError):
        split_tokens(_uniform(1), 0.5)
    with pytest.raises(ValueError):
        split_tokens(_uniform(4), 0.0)
    with pytest.raises(ValueError):
        split_tokens(_uniform(4), 1.0)
    with pytest.raises(ValueError):
        split_tokens(np.array([0.5, 0.6]), 0.5)  # does not sum to 1
    with pytest.raises(ValueError):
        split_tokens(np.array([1.0, 0.0]), 0.5)  # zero score
