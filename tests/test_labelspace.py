import pytest

from piiprep.biospan import check_labels, extract_span_tuples
from piiprep.errors import TaxonomyError
from piiprep.fixtures import canonical_space, taxonomy_path
from piiprep.labelspace import CANONICAL_GROUPS, LabelSpace, load_taxonomy


class TestParseBioLabel:
    """How a label is read: O carries no type, B-<type> and I-<type> carry theirs."""

    def test_outside(self):
        check_labels(["O"])
        assert extract_span_tuples(["O"]) == []
        assert LabelSpace(("NAME",), {"NAME": "PERSON_GROUP"}).unknown_type(["O"]) is None

    def test_begin_and_inside(self):
        labels = ["B-NAME", "I-CREDIT_CARD_NUMBER"]
        check_labels(labels)
        assert extract_span_tuples(labels) == [(0, 1, "NAME"), (1, 2, "CREDIT_CARD_NUMBER")]
        space = LabelSpace(("NAME",), {"NAME": "PERSON_GROUP"})
        assert space.unknown_type(labels) == "CREDIT_CARD_NUMBER"


def write_taxonomy(tmp_path, text):
    p = tmp_path / "tax.tsv"
    p.write_text(text, encoding="utf-8")
    return p


class TestBuildLabelSpace:
    """A label space built from a taxonomy file, or directly from its parts."""

    def test_small_space_shapes(self):
        space = LabelSpace(("NAME", "EMAIL"), {"NAME": "PERSON_GROUP", "EMAIL": "CONTACT"})
        assert list(space.fine_labels) == ["O", "B-NAME", "I-NAME", "B-EMAIL", "I-EMAIL"]
        assert space.groups == ("PERSON_GROUP", "CONTACT")
        assert list(space.coarse_labels) == [
            "O", "B-PERSON_GROUP", "I-PERSON_GROUP", "B-CONTACT", "I-CONTACT",
        ]

    def test_outside_sits_at_index_zero(self):
        space = canonical_space()
        assert space.fine_labels[0] == "O"
        assert space.coarse_labels[0] == "O"

    def test_groups_follow_canonical_order_not_insertion(self, tmp_path):
        space = load_taxonomy(write_taxonomy(tmp_path, "EMAIL\tCONTACT\nNAME\tPERSON_GROUP\n"))
        # PERSON_GROUP precedes CONTACT canonically, whatever the input order
        assert space.groups == ("PERSON_GROUP", "CONTACT")

    def test_duplicate_type_rejected(self, tmp_path):
        p = write_taxonomy(tmp_path, "NAME\tPERSON_GROUP\nname\tCONTACT\n")
        with pytest.raises(TaxonomyError, match="^tax.tsv:2: duplicate entity type NAME$"):
            load_taxonomy(p)

    def test_unknown_group_rejected(self, tmp_path):
        p = write_taxonomy(tmp_path, "# groups\nNAME\tNOT_A_GROUP\n")
        with pytest.raises(
            TaxonomyError, match="^tax.tsv:2: unknown coarse group 'NOT_A_GROUP' for type NAME$"
        ):
            load_taxonomy(p)

    # A lowercase name is no longer among these: the file's names are uppercased.
    @pytest.mark.parametrize("bad", ["1NAME", "NA ME", "", "NAME-X", "_NAME"])
    def test_bad_type_names_rejected(self, tmp_path, bad):
        p = write_taxonomy(tmp_path, f"EMAIL\tCONTACT\n{bad}\tMISC\n")
        # An empty name leaves a line without a tab, once it is stripped.
        reason = "expected TYPE<TAB>GROUP" if not bad else "invalid entity type name"
        with pytest.raises(TaxonomyError, match=f"^tax.tsv:2: {reason}"):
            load_taxonomy(p)

    def test_membership_and_coarse_lookup(self):
        space = canonical_space()
        assert "IBAN" in space
        assert "NOT_A_TYPE" not in space
        assert space.coarse_map["IBAN"] == "FINANCIAL_ID"

    @pytest.mark.parametrize("labels, unknown", [
        ([], None),
        (["O", "B-NAME", "I-NAME"], None),
        (["B-NAME", "B-WIDGET", "I-GADGET"], "WIDGET"),
        (["O", "I-GADGET", "B-WIDGET"], "GADGET"),
    ])
    def test_unknown_type_is_the_first_label_outside(self, labels, unknown):
        assert canonical_space().unknown_type(labels) == unknown


class TestCanonicalSpace:
    def test_sizes(self):
        space = canonical_space()
        assert len(space.types) == 82
        assert len(space.fine_labels) == 165
        assert len(space.groups) == 10
        assert len(space.coarse_labels) == 21

    def test_every_group_inhabited(self):
        space = canonical_space()
        assert set(space.coarse_map.values()) == set(CANONICAL_GROUPS)

    def test_fine_labels_pair_up_in_type_order(self):
        space = canonical_space()
        rest = space.fine_labels[1:]
        for i, typ in enumerate(space.types):
            assert rest[2 * i] == "B-" + typ
            assert rest[2 * i + 1] == "I-" + typ


class TestLoadTaxonomy:
    def test_reads_packaged_file(self):
        space = load_taxonomy(taxonomy_path())
        assert len(space.types) == 82

    def test_none_reads_packaged_file(self):
        assert load_taxonomy(None) == load_taxonomy(taxonomy_path())

    def test_normalises_case_and_skips_comments(self, tmp_path):
        p = write_taxonomy(tmp_path, "# comment\nname\tPERSON_GROUP\nemail\tcontact\n")
        space = load_taxonomy(p)
        assert space.types == ("NAME", "EMAIL")
        assert space.coarse_map["EMAIL"] == "CONTACT"

    def test_rejects_malformed_line(self, tmp_path):
        p = write_taxonomy(tmp_path, "NAME PERSON_GROUP\n")  # space, not tab
        with pytest.raises(TaxonomyError, match="^tax.tsv:1: expected TYPE<TAB>GROUP"):
            load_taxonomy(p)

    def test_rejects_empty_file(self, tmp_path):
        p = write_taxonomy(tmp_path, "# nothing\n")
        with pytest.raises(TaxonomyError):
            load_taxonomy(p)
