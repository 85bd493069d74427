import csv
import os

import pytest

from indicsum.corpus import (
    ArticleRecord,
    DatasetSplit,
    corpus_stats,
    load_csv,
    save_csv,
)
from indicsum.errors import (
    DuplicateId,
    EmptyArticle,
    EmptySplit,
    MissingColumn,
    MissingGoldSummary,
)
from indicsum.rouge import rouge_tokens

ROWS = [
    ["a1", "http://x/1", "Head one", "First art. Second part.", "First art."],
    ["a2", "http://x/2", "Head two", "Only sentence here.", "Only sentence here."],
    ["a3", "", "", "Alpha. Beta. Gamma.", "Beta."],
]


class TestLoadCsv:
    def test_well_formed(self, write_csv):
        split = load_csv(write_csv(ROWS), "train", "english")
        assert len(split) == 3
        assert [r.id for r in split] == ["a1", "a2", "a3"]
        assert split.records[0].summary == "First art."
        assert split.records[0].link == "http://x/1"
        assert split.records[0].heading == "Head one"

    def test_row_order_preserved(self, write_csv):
        rows = [[f"id{i}", "", "", f"Sentence {i}.", f"Sentence {i}."]
                for i in reversed(range(20))]
        split = load_csv(write_csv(rows), "train", "english")
        assert [r.id for r in split] == [f"id{i}" for i in reversed(range(20))]

    def test_missing_summary_column_for_train(self, write_csv):
        path = write_csv(
            [["a1", "", "", "Some text."]],
            header=("id", "Link", "Heading", "Article"),
        )
        with pytest.raises(MissingColumn):
            load_csv(path, "train", "english")

    def test_validation_without_summary_column(self, write_csv):
        path = write_csv(
            [["a1", "", "", "Some text."]],
            header=("id", "Link", "Heading", "Article"),
        )
        split = load_csv(path, "validation", "english")
        assert split.records[0].summary is None

    def test_validation_keeps_summary_when_present(self, write_csv):
        split = load_csv(write_csv(ROWS), "validation", "english")
        assert split.records[1].summary == "Only sentence here."

    def test_missing_article_column(self, write_csv):
        path = write_csv([["a1", "s"]], header=("id", "Summary"))
        with pytest.raises(MissingColumn):
            load_csv(path, "train", "english")

    def test_duplicate_id(self, write_csv):
        rows = ROWS + [["a1", "", "", "Again.", "Again."]]
        with pytest.raises(DuplicateId):
            load_csv(write_csv(rows), "train", "english")

    def test_errors_name_the_line_a_record_starts_on(self, tmp_path):
        path = tmp_path / "ml.csv"
        path.write_text('id,Article,Summary\n'
                        'e1,"First line.\nSecond line.\nThird line.",\n'
                        'e2,Other.,\n'
                        'e1,Again.,\n', encoding="utf-8")
        with pytest.raises(DuplicateId, match=r"ml\.csv:6: duplicate id 'e1'"):
            load_csv(path, "validation", "english")

    def test_blank_article(self, write_csv):
        rows = [["a1", "", "", "   ", "s"]]
        with pytest.raises(EmptyArticle):
            load_csv(write_csv(rows), "train", "english")

    def test_blank_train_summary(self, write_csv):
        rows = [["a1", "", "", "Text here.", "   "]]
        with pytest.raises(MissingGoldSummary):
            load_csv(write_csv(rows), "train", "english")

    def test_quoted_fields_with_commas_and_newlines(self, write_csv):
        article = 'He said, "stay home".\nSecond line, with comma.'
        split = load_csv(
            write_csv([["a1", "", "", article, "He said, stay home."]]),
            "train",
            "english",
        )
        assert split.records[0].article == article

    def test_bad_kind_and_language(self, write_csv):
        path = write_csv(ROWS)
        with pytest.raises(ValueError):
            load_csv(path, "dev", "english")
        with pytest.raises(ValueError):
            load_csv(path, "train", "french")

    def test_round_trip_50_rows(self, fixture_50, tmp_path):
        first = load_csv(fixture_50, "train", "english")
        assert len(first) == 50
        out = tmp_path / "round.csv"
        save_csv(first, out)
        second = load_csv(out, "train", "english")
        assert [(r.id, r.article, r.summary) for r in first] == [
            (r.id, r.article, r.summary) for r in second
        ]

    def test_eval_round_trip_drops_summary(self, write_csv, tmp_path):
        split = load_csv(write_csv(ROWS), "test", "english")
        out = tmp_path / "eval.csv"
        save_csv(split, out)
        with open(out, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header == ["id", "Link", "Heading", "Article"]


def clean(text):
    """Text as every matching rule sees it: rouge_tokens, space-joined."""
    return " ".join(rouge_tokens(text))


class TestCleanText:
    def test_lowercase_and_punctuation(self):
        assert clean("The CAT sat!!") == "the cat sat"

    def test_empty(self):
        assert clean("") == ""

    def test_unicode_composition_applied(self):
        # U+0958 (qa) and U+0915 U+093C (ka + nukta) share one NFC form,
        # so cleaned text must compare equal whichever way it arrived.
        assert clean("\u0958") == clean("\u0915\u093c")

    def test_indic_marks_survive_default_cleaning(self):
        text = "વરસાદ બાદ શહેરમાં પાણી ભરાયાં."
        assert clean(text) == "વરસાદ બાદ શહેરમાં પાણી ભરાયાં"
        assert clean("पहला वाक्य।") == "पहला वाक्य"


class TestCorpusStats:
    def test_single_record(self):
        split = DatasetSplit(
            kind="train",
            language="english",
            records=(
                ArticleRecord(id="a", article="One. Two. Three.", summary="One."),
            ),
        )
        stats = corpus_stats(split)
        assert stats.records == 1
        assert stats.mean_sentences_per_article == 3.0

    def test_mean_over_two_records(self, write_csv):
        rows = [
            ["a1", "", "", "One. Two.", "One."],
            ["a2", "", "", "A. B. C. D.", "A."],
        ]
        stats = corpus_stats(load_csv(write_csv(rows), "train", "english"))
        assert stats.mean_sentences_per_article == 3.0

    def test_empty_split(self):
        with pytest.raises(EmptySplit):
            corpus_stats(DatasetSplit(kind="train", language="english", records=()))


@pytest.mark.skipif(
    "ILSUM_DATA_DIR" not in os.environ,
    reason="set ILSUM_DATA_DIR to run dataset-scale checks",
)
class TestIlsumData:
    def test_english_train_size_and_shape(self):
        root = os.environ["ILSUM_DATA_DIR"]
        split = load_csv(os.path.join(root, "english_train.csv"),
                         "train", "english")
        assert len(split) == 12565
        stats = corpus_stats(split)
        assert 8 <= stats.mean_sentences_per_article <= 12
