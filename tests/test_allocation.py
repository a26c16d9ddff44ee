import random
from fractions import Fraction

import pytest

from piiprep.allocation import allocate_fractions, apportion, largest_remainder_allocate
from piiprep.errors import AllocationError


def reference_apportion(quotas: list[Fraction], target: int) -> list[int]:
    """Reference: floors, then +1 to the k largest remainders.

    Ranks by floor - quota (the negated remainder) with its own integer
    floors, so agreement is a real check.
    """
    floors = [q.numerator // q.denominator for q in quotas]
    k = target - sum(floors)
    ranked = sorted(range(len(quotas)), key=lambda i: (floors[i] - quotas[i], i))
    bonus = set(ranked[:k])
    return [f + (1 if i in bonus else 0) for i, f in enumerate(floors)]


class TestApportion:
    def test_plain_rounding(self):
        quotas = [Fraction(49, 10), Fraction(14, 10), Fraction(7, 10)]
        assert apportion(quotas, 7) == [5, 1, 1]

    def test_sum_must_match_target(self):
        with pytest.raises(AllocationError, match="sum to"):
            apportion([Fraction(1), Fraction(1)], 3)

    def test_negative_quota_rejected(self):
        with pytest.raises(AllocationError, match="negative"):
            apportion([Fraction(-1), Fraction(3)], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(AllocationError, match="equal length"):
            apportion([Fraction(1)], 1, tie_weights=[1, 2])

    def test_tie_breaks_by_weight_then_index(self):
        # two equal remainders of 1/2; the heavier bucket gets the unit
        quotas = [Fraction(1, 2), Fraction(1, 2)]
        assert apportion(quotas, 1, tie_weights=[1, 5]) == [0, 1]
        assert apportion(quotas, 1, tie_weights=[5, 1]) == [1, 0]
        assert apportion(quotas, 1) == [1, 0]  # equal weight: lower index

    def test_agrees_with_reference_on_random_instances(self):
        rng = random.Random(8123)
        for _ in range(1000):
            n = rng.randint(1, 8)
            weights = [rng.randint(0, 50) for _ in range(n)]
            total = sum(weights)
            if total == 0:
                continue
            target = rng.randint(0, total)
            quotas = [Fraction(target * w, total) for w in weights]
            got = apportion(quotas, target)
            assert got == reference_apportion(quotas, target)
            assert sum(got) == target
            for g, q in zip(got, quotas):
                assert abs(Fraction(g) - q) < 1


class TestLargestRemainderAllocate:
    def test_worked_example(self):
        assert largest_remainder_allocate({"a": 7, "b": 2, "c": 1}, 7) == {
            "a": 5, "b": 1, "c": 1,
        }

    def test_result_keeps_input_key_order(self):
        out = largest_remainder_allocate({"z": 5, "a": 5}, 4)
        assert list(out) == ["z", "a"]

    def test_name_order_does_not_change_amounts(self):
        a = largest_remainder_allocate({"x": 9, "y": 5, "z": 3}, 11)
        b = largest_remainder_allocate({"z": 3, "x": 9, "y": 5}, 11)
        assert a == {k: b[k] for k in a}

    def test_allocation_never_exceeds_count(self):
        rng = random.Random(5)
        for _ in range(500):
            counts = {f"s{i}": rng.randint(0, 30) for i in range(rng.randint(1, 6))}
            total = sum(counts.values())
            target = rng.randint(0, total)
            out = largest_remainder_allocate(counts, target)
            assert sum(out.values()) == target
            for name, v in out.items():
                assert 0 <= v <= counts[name]

    def test_full_target_returns_counts(self):
        counts = {"a": 4, "b": 0, "c": 9}
        assert largest_remainder_allocate(counts, 13) == counts

    def test_zero_target(self):
        assert largest_remainder_allocate({"a": 3}, 0) == {"a": 0}

    def test_target_above_total_rejected(self):
        with pytest.raises(AllocationError, match="exceeds"):
            largest_remainder_allocate({"a": 2}, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(AllocationError, match="negative"):
            largest_remainder_allocate({"a": -1}, 0)

    def test_empty_sources_with_positive_target_rejected(self):
        # surfaces as target-exceeds-total since the total of nothing is 0
        with pytest.raises(AllocationError):
            largest_remainder_allocate({}, 1)
        assert largest_remainder_allocate({}, 0) == {}

    def test_remainder_tie_prefers_larger_source(self):
        # quotas 2.5 / 2.5: the bigger source wins the odd unit
        out = largest_remainder_allocate({"big": 30, "small": 30}, 5)
        assert out["big"] + out["small"] == 5
        # equal counts: lexicographic name order decides
        assert out == {"big": 3, "small": 2}


class TestAllocateFractions:
    def test_even_split_with_tenths(self):
        out = allocate_fractions(10, {"train": 0.8, "val": 0.1, "test": 0.1})
        assert out == {"train": 8, "val": 1, "test": 1}

    def test_remainder_tie_goes_to_earlier_part(self):
        out = allocate_fractions(10, {"train": 0.5, "val": 0.25, "test": 0.25})
        assert out == {"train": 5, "val": 3, "test": 2}

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(AllocationError, match="sum to"):
            allocate_fractions(10, {"a": 0.5, "b": 0.4})

    def test_float_representation_is_not_a_problem(self):
        # 0.1 is not exact in binary; the string-derived rationals are
        out = allocate_fractions(1000, {"a": 0.7, "b": 0.1, "c": 0.1, "d": 0.1})
        assert out == {"a": 700, "b": 100, "c": 100, "d": 100}

    def test_zero_items(self):
        assert allocate_fractions(0, {"a": 0.5, "b": 0.5}) == {"a": 0, "b": 0}

    def test_negative_fraction_rejected(self):
        with pytest.raises(AllocationError, match="negative"):
            allocate_fractions(5, {"a": -0.5, "b": 1.5})

    def test_every_item_lands_somewhere(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(0, 500)
            cuts = sorted(rng.sample(range(1, 100), 2))
            fr = {
                "p": Fraction(cuts[0], 100),
                "q": Fraction(cuts[1] - cuts[0], 100),
                "r": Fraction(100 - cuts[1], 100),
            }
            out = allocate_fractions(n, {k: str(float(v)) for k, v in fr.items()})
            assert sum(out.values()) == n
            for k in fr:
                assert abs(out[k] - n * fr[k]) < 1
