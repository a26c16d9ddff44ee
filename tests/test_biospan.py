import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piiprep
from conftest import (
    KERNELS,
    bio_spans_oracle,
    needs_c_build,
    orphan_oracle,
    random_bio_labels,
)
from piiprep import _purespans
from piiprep.biospan import check_labels
from piiprep.errors import LabelError

label_alphabet = st.sampled_from(
    ["O", "B-NAME", "I-NAME", "B-AMOUNT", "I-AMOUNT", "B-URL", "I-URL"]
)
label_lists = st.lists(label_alphabet, max_size=60)


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestExtractSpanTuples:
    def test_simple_run(self, kernel):
        assert kernel.extract_span_tuples(["B-NAME", "I-NAME", "O"]) == [(0, 2, "NAME")]

    def test_adjacent_b_spans_stay_separate(self, kernel):
        labels = ["B-NAME", "B-NAME", "B-NAME"]
        assert kernel.extract_span_tuples(labels) == [
            (0, 1, "NAME"), (1, 2, "NAME"), (2, 3, "NAME"),
        ]

    def test_type_change_inside_run_splits(self, kernel):
        # I- of a different type right after B- opens a second span
        labels = ["B-NAME", "I-AMOUNT", "I-AMOUNT"]
        assert kernel.extract_span_tuples(labels) == [(0, 1, "NAME"), (1, 3, "AMOUNT")]

    def test_orphan_continuation_opens_span(self, kernel):
        assert kernel.extract_span_tuples(["I-NAME", "I-NAME"]) == [(0, 2, "NAME")]
        assert kernel.extract_span_tuples(["O", "I-URL", "O"]) == [(1, 2, "URL")]

    def test_span_open_at_sequence_end(self, kernel):
        assert kernel.extract_span_tuples(["O", "B-URL"]) == [(1, 2, "URL")]

    def test_b_after_i_same_type_starts_fresh(self, kernel):
        labels = ["B-NAME", "I-NAME", "B-NAME"]
        assert kernel.extract_span_tuples(labels) == [(0, 2, "NAME"), (2, 3, "NAME")]

    def test_empty_sequence(self, kernel):
        assert kernel.extract_span_tuples([]) == []

    def test_all_outside(self, kernel):
        assert kernel.extract_span_tuples(["O"] * 5) == []

    @pytest.mark.parametrize("bad", ["B", "I", "B-", "X-NAME", "", "b-NAME"])
    def test_malformed_label_raises_with_position(self, kernel, bad):
        with pytest.raises(LabelError, match="position 1"):
            kernel.extract_span_tuples(["O", bad])

    @pytest.mark.parametrize("bad", ["b-NAME", "B_NAME", "X-NAME", "B-"])
    def test_malformed_label_raises_at_every_occurrence(self, kernel, bad):
        # The well-formed labels of the same type are seen (and, in the pure
        # kernel, cached) first; each occurrence of the bad one still raises
        # with its own position, in this sequence and in the next.
        assert kernel.extract_span_tuples(["B-NAME", "I-NAME"]) == [(0, 2, "NAME")]
        for labels, position in (
            (["B-NAME", bad], 1),
            (["B-NAME", "I-NAME", "O", bad], 3),
            ([bad, "B-NAME"], 0),
        ):
            for fn in (kernel.extract_span_tuples, kernel.count_orphan_continuations):
                for _ in range(2):
                    with pytest.raises(
                        LabelError,
                        match=rf"^malformed BIO label at position {position}: {bad!r}$",
                    ):
                        fn(labels)

    @settings(max_examples=300)
    @given(labels=label_lists)
    def test_agrees_with_oracle(self, kernel, labels):
        assert kernel.extract_span_tuples(labels) == bio_spans_oracle(labels)

    @settings(max_examples=200)
    @given(labels=label_lists)
    def test_spans_are_sorted_disjoint_and_in_bounds(self, kernel, labels):
        spans = kernel.extract_span_tuples(labels)
        prev_end = 0
        for start, end, typ in spans:
            assert 0 <= start < end <= len(labels)
            assert start >= prev_end
            prev_end = end
            assert typ

    def test_randomised_agreement_bulk(self, kernel):
        rng = random.Random(20260823)
        types = ["NAME", "IBAN", "CITY", "URL", "DATE", "SSN"]
        for _ in range(2000):
            labels = random_bio_labels(rng, types, rng.randint(0, 40))
            assert kernel.extract_span_tuples(labels) == bio_spans_oracle(labels)


@pytest.mark.parametrize("kernel", KERNELS, indirect=True)
class TestOrphanCount:
    def test_worked_example(self, kernel):
        corpus = [["I-A", "O", "I-A"], ["B-A", "I-B"]]
        total = sum(kernel.count_orphan_continuations(seq) for seq in corpus)
        assert total == 3

    def test_clean_sequences_have_none(self, kernel):
        assert kernel.count_orphan_continuations(["B-A", "I-A", "O", "B-B"]) == 0

    def test_i_after_different_type_counts(self, kernel):
        assert kernel.count_orphan_continuations(["B-A", "I-B", "I-B"]) == 1

    @settings(max_examples=300)
    @given(labels=label_lists)
    def test_agrees_with_oracle(self, kernel, labels):
        assert kernel.count_orphan_continuations(labels) == orphan_oracle(labels)


class TestLabelCache:
    """The pure kernel's label cache; see _purespans."""

    def test_malformed_labels_are_never_cached(self):
        for bad in ("X-NAME", "b-NAME", "B"):
            with pytest.raises(LabelError):
                _purespans.extract_span_tuples(["B-NAME", bad])
            assert bad not in _purespans._LABELS

    def test_cache_stays_bounded_and_results_stay_right(self):
        limit = _purespans._CACHE_MAX
        labels = [f"{'BI'[i % 2]}-T{i // 2}" for i in range(limit + 1000)]
        for chunk in (labels[:limit // 2], labels, labels[limit:], labels[: limit + 7]):
            assert _purespans.extract_span_tuples(chunk) == bio_spans_oracle(chunk)
            assert len(_purespans._LABELS) <= limit
            assert _purespans.count_orphan_continuations(chunk) == orphan_oracle(chunk)
            assert len(_purespans._LABELS) <= limit

    @pytest.mark.parametrize("bad", [5, None, 1.5, ["B-NAME"], {"B": "NAME"}])
    def test_non_string_label_raises_label_error(self, bad):
        for fn in (
            _purespans.extract_span_tuples,
            _purespans.count_orphan_continuations,
            check_labels,
        ):
            message = f"^label 2 is not a string: {re.escape(repr(bad))}$"
            with pytest.raises(LabelError, match=message):
                fn(["B-NAME", "O", bad, "B-NAME"])

    def test_check_labels_names_the_first_bad_entry(self):
        check_labels(["O", "B-NAME", "I-NAME", "I-CREDIT_CARD_NUMBER"])
        with pytest.raises(LabelError, match=r"^malformed BIO label at position 1: 'Z-A'$"):
            check_labels(["O", "Z-A", 5])

    @pytest.mark.parametrize(
        "bad", ["", "B", "I", "B-", "I-", "X-NAME", "b-NAME", "BNAME", "O-NAME", " B-NAME"]
    )
    def test_check_labels_rejects_malformed(self, bad):
        message = f"^malformed BIO label at position 1: {re.escape(repr(bad))}$"
        with pytest.raises(LabelError, match=message):
            check_labels(["B-NAME", bad, 5])


@needs_c_build
def test_both_kernels_ship(speedups_build, request):
    # The build must produce the compiled module, and it must load.
    assert any(speedups_build.glob("piiprep/_speedups*.so")), (
        "compiled span kernel missing from the build"
    )
    speedups = request.getfixturevalue("speedups")
    for name in ("extract_span_tuples", "count_orphan_continuations"):
        assert callable(getattr(speedups, name))


@needs_c_build
def test_pure_python_override(speedups_build):
    # The child imports the sources under test with the session-built
    # extension beside them: biospan must pick the compiled kernel.
    code = (
        "import sys, piiprep; piiprep.__path__.insert(0, sys.argv[1]); "
        "from piiprep.biospan import active_kernel; print(active_kernel())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(speedups_build / "piiprep")],
        env={**os.environ, "PYTHONPATH": str(Path(piiprep.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "cython"
