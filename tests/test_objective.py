import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import piiprep

from piiprep.errors import LabelError
from piiprep.objective import (
    LossWeights,
    PROB_FLOOR,
    combined_loss,
    token_weight,
    weighted_cross_entropy,
)


class TestTokenWeight:
    def test_outside_down_weighted(self):
        assert token_weight("O") == 0.1

    def test_entity_labels_full_weight(self):
        assert token_weight("B-NAME") == 1.0
        assert token_weight("I-NAME") == 1.0

    def test_custom_weights(self):
        w = LossWeights(outside=0.5, entity=2.0)
        assert token_weight("O", w) == 0.5
        assert token_weight("B-NAME", w) == 2.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(outside=-0.1)


class TestWeightedCrossEntropy:
    VOCAB = ["O", "B-NAME", "I-NAME"]

    def test_perfect_prediction_is_near_zero(self):
        dists = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        loss = weighted_cross_entropy(dists, ["O", "B-NAME"], self.VOCAB)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_mixed_case(self):
        dists = [[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]]
        loss = weighted_cross_entropy(dists, ["O", "B-NAME"], self.VOCAB)
        expected = (0.1 * -math.log(0.5) + 1.0 * -math.log(0.8)) / 2
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_uniform_distribution_closed_form(self):
        k = len(self.VOCAB)
        dists = [[1 / k] * k]
        assert weighted_cross_entropy(dists, ["O"], self.VOCAB) == pytest.approx(
            0.1 * math.log(k)
        )
        assert weighted_cross_entropy(dists, ["B-NAME"], self.VOCAB) == pytest.approx(
            math.log(k)
        )

    def test_mean_is_over_tokens_not_sum(self):
        k = len(self.VOCAB)
        dists = [[1 / k] * k] * 4
        gold = ["B-NAME"] * 4
        single = weighted_cross_entropy(dists[:1], gold[:1], self.VOCAB)
        assert weighted_cross_entropy(dists, gold, self.VOCAB) == pytest.approx(single)

    def test_zero_probability_clamped_to_floor(self):
        dists = [[1.0, 0.0, 0.0]]
        loss = weighted_cross_entropy(dists, ["B-NAME"], self.VOCAB)
        assert loss == pytest.approx(-math.log(PROB_FLOOR))

    def test_empty_sequence_scores_zero(self):
        assert weighted_cross_entropy([], [], self.VOCAB) == 0.0

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 2"):
            weighted_cross_entropy([[1.0, 0.0, 0.0]], ["O", "O"], self.VOCAB)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            weighted_cross_entropy([[0.5, 0.5]], ["O"], self.VOCAB)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            weighted_cross_entropy([[1.5, -0.5, 0.0]], ["O"], self.VOCAB)

    def test_rows_must_sum_to_one(self):
        for row in ([0.5, 0.2, 0.2], [math.nan, 0.5, 0.5]):
            with pytest.raises(ValueError, match="sums to"):
                weighted_cross_entropy([row], ["O"], self.VOCAB)

    def test_near_one_sums_tolerated(self):
        row = [1 / 3 + 1e-8, 1 / 3, 1 / 3 - 1e-8]
        weighted_cross_entropy([row], ["O"], self.VOCAB)  # no raise

    def test_gold_label_outside_vocabulary_rejected(self):
        with pytest.raises(LabelError, match="not in vocabulary"):
            weighted_cross_entropy([[1.0, 0.0, 0.0]], ["B-URL"], self.VOCAB)

    def test_accepts_numpy_input(self):
        dists = np.full((3, 3), 1 / 3)
        loss = weighted_cross_entropy(dists, ["O", "O", "O"], self.VOCAB)
        assert loss == pytest.approx(0.1 * math.log(3))


class TestCombinedLoss:
    def test_reference_point(self):
        assert combined_loss(1.0, 1.0, 0.3) == 1.3

    def test_zero_coarse_weight_ignores_coarse(self):
        assert combined_loss(0.7, 123.0, 0.0) == 0.7

    def test_default_coarse_weight(self):
        assert combined_loss(2.0, 1.0) == pytest.approx(2.3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(-1.0, 0.0)
        with pytest.raises(ValueError):
            combined_loss(0.0, -1.0)
        with pytest.raises(ValueError):
            combined_loss(1.0, 1.0, -0.3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(float("nan"), 0.0)


def test_package_runs_without_numpy():
    # A fresh interpreter, so no test module has imported numpy before.
    code = "import sys, piiprep.cli, piiprep.objective; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(piiprep.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
