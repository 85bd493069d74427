import random

import pytest

from indicsum.errors import EmptyInput
from indicsum.extractive import ScoredSentence, select_summary

LONG = [
    "The reservoir level rose sharply after the rain.",       # 0
    "Officials opened two gates of the dam on Monday.",       # 1
    "Downstream villages were told to stay alert overnight.", # 2
]


def scored(scores, sentences=None):
    if sentences is None:
        sentences = [f"sentence number {i} with enough characters here." for i in
                     range(len(scores))]
    return [
        ScoredSentence(sentence=s, score=v, position=i)
        for i, (s, v) in enumerate(zip(sentences, scores))
    ]


class TestScoredSentence:
    def test_out_of_range_score(self):
        with pytest.raises(ValueError):
            ScoredSentence(sentence="a.", score=1.5, position=0)


class TestSelectSummary:
    def test_top_two_in_document_order(self):
        out = select_summary(scored([0.9, 0.1, 0.8], LONG))
        assert out == LONG[0] + " " + LONG[2]

    def test_short_sentence_filtered(self):
        sentences = [LONG[0], LONG[1], "Too short, this."]
        out = select_summary(scored([0.9, 0.1, 0.8], sentences))
        assert out == LONG[0] + " " + LONG[1]

    def test_all_short_falls_back_to_best(self):
        sentences = ["Tiny a.", "Tiny b.", "Tiny c."]
        out = select_summary(scored([0.2, 0.9, 0.5], sentences))
        assert out == "Tiny b."

    def test_fewer_eligible_than_k(self):
        sentences = [LONG[0], "tiny.", "wee."]
        out = select_summary(scored([0.1, 0.9, 0.8], sentences))
        assert out == LONG[0]

    def test_score_ties_break_to_earlier_position(self):
        out = select_summary(scored([0.5, 0.5, 0.5], LONG), k=2)
        assert out == LONG[0] + " " + LONG[1]

    def test_k_and_min_chars_zero_give_whole_article(self):
        out = select_summary(scored([0.3, 0.9, 0.1], LONG), k=3, min_chars=0)
        assert out == " ".join(LONG)

    def test_empty_scored(self):
        with pytest.raises(EmptyInput):
            select_summary([])

    def test_bad_k(self):
        with pytest.raises(ValueError):
            select_summary(scored([0.5]), k=0)


class TestSelectionProperties:
    def _random_case(self, rng):
        count = rng.randint(1, 12)
        sentences = []
        for i in range(count):
            words = rng.randint(1, 8)
            sentences.append(
                " ".join(f"w{i}x{j}" for j in range(words)) + "."
            )
        scores = [round(rng.random(), 6) for _ in range(count)]
        return scored(scores, sentences), rng.randint(1, 4), rng.choice([0, 10, 25])

    def test_subset_document_order_and_monotone_invariance(self):
        rng = random.Random(4096)
        for _ in range(300):
            items, k, min_chars = self._random_case(rng)
            out = select_summary(items, k=k, min_chars=min_chars)
            # subset-ness: output is sentences of the input joined in order
            rebuilt = [s.sentence for s in items if s.sentence in out]
            assert out == " ".join(rebuilt)
            positions = [i for i, s in enumerate(items) if s.sentence in out]
            assert positions == sorted(positions)
            # argmax-set invariance under a strictly monotone transform
            squashed = [
                ScoredSentence(sentence=s.sentence, score=s.score ** 3,
                               position=s.position)
                for s in items
            ]
            assert select_summary(squashed, k=k, min_chars=min_chars) == out
            shifted = [
                ScoredSentence(sentence=s.sentence, score=0.2 + s.score / 2,
                               position=s.position)
                for s in items
            ]
            assert select_summary(shifted, k=k, min_chars=min_chars) == out
