import random
from pathlib import Path

import pytest

from indicsum.augment import (
    add_noise,
    augment_split,
    drop_tokens,
    right_shift,
)
from indicsum.corpus import ArticleRecord, DatasetSplit
from indicsum.errors import EmptyArticle
from indicsum.segment import split_sentences

GOLDEN = Path(__file__).resolve().parent / "data" / "noise_rate01_seed42.txt"


def record(article, summary="A gold summary.", rec_id="r1"):
    return ArticleRecord(id=rec_id, article=article, summary=summary)


class TestRightShift:
    def test_three_sentences(self):
        rec = record("First one. Second one. Third one.")
        out = right_shift(rec)
        assert out.article == "Third one. First one. Second one."
        assert out.id == "r1-rs"
        assert out.summary == rec.summary

    def test_two_sentences(self):
        out = right_shift(record("Alpha beta. Gamma delta."))
        assert out.article == "Gamma delta. Alpha beta."

    def test_single_sentence_body_unchanged(self):
        rec = record("Just the one sentence.")
        out = right_shift(rec)
        assert out.article == rec.article
        assert out.id == "r1-rs"

    def test_hindi_danda(self):
        rec = record("पहला वाक्य। दूसरा वाक्य। तीसरा वाक्य।")
        out = right_shift(rec, "hindi")
        assert out.article == "तीसरा वाक्य। पहला वाक्य। दूसरा वाक्य।"

    def test_multiset_preserved_and_cycle_restores(self):
        rng = random.Random(314)
        words = "storm rain market city road river night coast".split()
        for _ in range(200):
            count = rng.randint(1, 6)
            sentences = [
                " ".join(rng.choice(words) for _ in range(rng.randint(2, 5)))
                + "."
                for _ in range(count)
            ]
            original = " ".join(sentences)
            rec = record(original)
            shifted = right_shift(rec)
            assert sorted(split_sentences(shifted.article, "english")) == sorted(
                sentences
            )
            body = rec
            for _ in range(count):
                body = right_shift(body)
            assert body.article == original


class TestAddNoise:
    def test_rate_zero_identity(self):
        rec = record("Exact  spacing\tsurvives rate zero. Yes.")
        for seed in (0, 1, 42, 999):
            out = add_noise(rec, 0.0, seed)
            assert out.article == rec.article
            assert out.id == "r1-noise"
            assert out.summary == rec.summary

    def test_rate_one_drops_everything(self):
        out = add_noise(record("all of this goes away"), 1.0, 7)
        assert out.article == ""

    def test_golden_fixture(self):
        text, expected = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert drop_tokens(text, 0.1, 42) == expected

    def test_golden_matches_documented_generator(self):
        # independent re-derivation: one random() draw per token,
        # drop when the draw is below the rate
        text, expected = GOLDEN.read_text(encoding="utf-8").splitlines()
        rng = random.Random(42)
        kept = [tok for tok in text.split() if not rng.random() < 0.1]
        assert " ".join(kept) == expected

    def test_bit_stable_across_runs(self):
        rec = record(" ".join(f"word{i}" for i in range(60)))
        first = add_noise(rec, 0.3, 13).article
        second = add_noise(rec, 0.3, 13).article
        assert first == second

    def test_output_tokens_are_subsequence(self):
        rng = random.Random(2718)
        for _ in range(200):
            tokens = [f"w{rng.randint(0, 30)}" for _ in range(rng.randint(0, 40))]
            rec = record(" ".join(tokens) or "x")
            rate = rng.random()
            out_tokens = add_noise(rec, rate, rng.randint(0, 10**6)).article.split()
            it = iter(rec.article.split())
            assert all(tok in it for tok in out_tokens)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            drop_tokens("a b", 1.5, 1)
        with pytest.raises(ValueError):
            drop_tokens("a b", -0.1, 1)


class TestAugmentSplit:
    @staticmethod
    def split_of(n):
        records = tuple(
            ArticleRecord(
                id=f"r{i}",
                article=f"First {i} alpha. Second {i} beta. Third {i} gamma.",
                summary=f"First {i} alpha.",
            )
            for i in range(n)
        )
        return DatasetSplit(kind="train", language="english", records=records)

    def test_append_keeps_originals(self):
        out = augment_split(self.split_of(3), shift=True, noise_rate=0.2)
        assert len(out) == 9
        assert [r.id for r in out][:3] == ["r0", "r1", "r2"]
        assert any(r.id.endswith("-rs") for r in out)
        assert any(r.id.endswith("-noise") for r in out)

    def test_replace_drops_originals(self):
        out = augment_split(self.split_of(3), shift=True, append=False)
        assert len(out) == 3
        assert all(r.id.endswith("-rs") for r in out)

    def test_noise_seed_varies_per_record(self):
        # Twelve words: with six, rate 0.5 dropped every word of one
        # record, and a blank noise copy is an error.
        split = DatasetSplit(
            kind="train",
            language="english",
            records=tuple(
                ArticleRecord(id=f"r{i}",
                              article="one two three four five six seven eight"
                                      " nine ten eleven twelve",
                              summary="s")
                for i in range(8)
            ),
        )
        out = augment_split(split, noise_rate=0.5, seed=3, append=False)
        assert len({r.article for r in out}) > 1

    def test_deterministic(self):
        a = augment_split(self.split_of(4), shift=True, noise_rate=0.3, seed=13)
        b = augment_split(self.split_of(4), shift=True, noise_rate=0.3, seed=13)
        assert [(r.id, r.article) for r in a] == [(r.id, r.article) for r in b]

    def test_copies_follow_originals_record_by_record(self):
        split = self.split_of(2)
        out = augment_split(split, shift=True, noise_rate=0.3, seed=13)
        expected = [*split.records,
                    right_shift(split.records[0]), add_noise(split.records[0], 0.3, 13),
                    right_shift(split.records[1]), add_noise(split.records[1], 0.3, 14)]
        assert list(out.records) == expected
        assert list(out.records) == expected  # a second pass makes them again
        assert len(out) == len(out.records) == 6

    @pytest.mark.parametrize("shift,noise_rate,append,length", [
        (False, None, True, 3), (False, None, False, 0), (True, None, True, 6),
        (False, 0.1, False, 3), (True, 0.1, False, 6), (True, 0.1, True, 9),
    ])
    def test_length_is_counted(self, shift, noise_rate, append, length):
        out = augment_split(self.split_of(3), shift=shift, noise_rate=noise_rate,
                            append=append)
        assert len(out) == len(list(out)) == length

    @pytest.mark.parametrize("language,kwargs,message", [
        ("english", {"noise_rate": 1.5}, r"rate must be within \[0, 1\], got 1.5"),
        ("english", {"noise_rate": -0.1}, r"rate must be within"),
        ("xx", {"shift": True}, r"unknown language: 'xx'"),
    ])
    def test_bad_arguments_raise_at_the_call(self, language, kwargs, message):
        class Unread:
            """Records that fail the test if anything reads them."""

            def __len__(self):
                return 1

            def __iter__(self):
                raise AssertionError("records were read")

        with pytest.raises(ValueError, match=message):
            augment_split(DatasetSplit("train", language, Unread()), **kwargs)

    def test_blank_noise_copy_is_an_error(self):
        split = DatasetSplit("train", "english", (
            record("Two words.", rec_id="a0"), record("S one.", rec_id="a1")))
        out = augment_split(split, noise_rate=1.0)
        assert len(out) == 4
        records = iter(out.records)
        assert [next(records).id for _ in range(2)] == ["a0", "a1"]
        with pytest.raises(EmptyArticle, match=r"^noise copy 'a0-noise' has a blank"
                                               r" article at noise rate 1.0$"):
            next(records)
