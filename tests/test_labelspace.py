import pytest

from piiprep.errors import LabelError, TaxonomyError
from piiprep.fixtures import canonical_space, taxonomy_path
from piiprep.labelspace import (
    CANONICAL_GROUPS,
    BioLabel,
    build_label_space,
    load_taxonomy,
    parse_bio_label,
)


class TestParseBioLabel:
    def test_outside(self):
        assert parse_bio_label("O") == BioLabel("O", None)

    def test_begin_and_inside(self):
        assert parse_bio_label("B-NAME") == BioLabel("B", "NAME")
        assert parse_bio_label("I-CREDIT_CARD_NUMBER") == BioLabel("I", "CREDIT_CARD_NUMBER")

    @pytest.mark.parametrize(
        "bad", ["", "B", "I", "B-", "I-", "X-NAME", "b-NAME", "BNAME", "O-NAME", " B-NAME"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(LabelError):
            parse_bio_label(bad)


class TestBuildLabelSpace:
    def test_small_space_shapes(self):
        space = build_label_space(
            ["NAME", "EMAIL"], {"NAME": "PERSON_GROUP", "EMAIL": "CONTACT"}
        )
        assert list(space.fine_labels) == ["O", "B-NAME", "I-NAME", "B-EMAIL", "I-EMAIL"]
        assert space.groups == ("PERSON_GROUP", "CONTACT")
        assert list(space.coarse_labels) == [
            "O", "B-PERSON_GROUP", "I-PERSON_GROUP", "B-CONTACT", "I-CONTACT",
        ]

    def test_outside_sits_at_index_zero(self):
        space = canonical_space()
        assert space.fine_labels[0] == "O"
        assert space.coarse_labels[0] == "O"

    def test_groups_follow_canonical_order_not_insertion(self):
        space = build_label_space(
            ["EMAIL", "NAME"], {"EMAIL": "CONTACT", "NAME": "PERSON_GROUP"}
        )
        # PERSON_GROUP precedes CONTACT canonically, whatever the input order
        assert space.groups == ("PERSON_GROUP", "CONTACT")

    def test_duplicate_type_rejected(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            build_label_space(["NAME", "NAME"], {"NAME": "PERSON_GROUP"})

    def test_unmapped_type_rejected(self):
        with pytest.raises(TaxonomyError):
            build_label_space(["NAME", "EMAIL"], {"NAME": "PERSON_GROUP"})

    def test_unknown_group_rejected(self):
        with pytest.raises(TaxonomyError):
            build_label_space(["NAME"], {"NAME": "NOT_A_GROUP"})

    def test_extraneous_mapping_rejected(self):
        with pytest.raises(TaxonomyError):
            build_label_space(["NAME"], {"NAME": "PERSON_GROUP", "GHOST": "CONTACT"})

    @pytest.mark.parametrize("bad", ["name", "1NAME", "NA ME", "", "NAME-X"])
    def test_bad_type_names_rejected(self, bad):
        with pytest.raises(TaxonomyError):
            build_label_space([bad], {bad: "MISC"})

    def test_membership_and_coarse_lookup(self):
        space = canonical_space()
        assert "IBAN" in space
        assert "NOT_A_TYPE" not in space
        assert space.coarse_of("IBAN") == "FINANCIAL_ID"
        with pytest.raises(LabelError):
            space.coarse_of("NOT_A_TYPE")


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

    def test_normalises_case_and_skips_comments(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("# comment\nname\tPERSON_GROUP\nemail\tcontact\n", encoding="utf-8")
        space = load_taxonomy(p)
        assert space.types == ("NAME", "EMAIL")
        assert space.coarse_of("EMAIL") == "CONTACT"

    def test_rejects_malformed_line(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("NAME PERSON_GROUP\n", encoding="utf-8")  # space, not tab
        with pytest.raises(TaxonomyError):
            load_taxonomy(p)

    def test_rejects_empty_file(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(TaxonomyError):
            load_taxonomy(p)
