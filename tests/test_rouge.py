import random
from collections import Counter

import pytest

from indicsum.crosslingual import SentenceMapping, back_map
from indicsum.errors import EmptyCorpus, InvalidN, NoAlignment
from indicsum.rouge import (
    corpus_rouge,
    ngrams,
    rouge_n,
    rouge_scores,
    rouge_tokens,
    score_counts,
)


def oracle_stats(cand, ref, n):
    """Brute-force clipped n-gram counting, written independently."""

    def windows(tokens):
        table = {}
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i:i + n])
            table[gram] = table.get(gram, 0) + 1
        return table

    cand_table, ref_table = windows(cand), windows(ref)
    overlap = sum(
        min(count, ref_table.get(gram, 0)) for gram, count in cand_table.items()
    )
    return (
        overlap,
        max(len(cand) - n + 1, 0),
        max(len(ref) - n + 1, 0),
    )


def oracle_f1(cand, ref, n):
    overlap, cand_total, ref_total = oracle_stats(cand, ref, n)
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


class TestTokenization:
    def test_lowercase_and_punctuation(self):
        assert rouge_tokens("The CAT, sat!") == ["the", "cat", "sat"]

    def test_hyphen_splits(self):
        assert rouge_tokens("well-known fact") == ["well", "known", "fact"]

    def test_hindi_danda_removed(self):
        assert rouge_tokens("पहला वाक्य।") == ["पहला", "वाक्य"]

    def test_indic_marks_kept(self):
        assert rouge_tokens("વરસાદ ભરાયાં.") == ["વરસાદ", "ભરાયાં"]

    def test_nfc_equivalence(self):
        assert rouge_tokens("क़") == rouge_tokens("क़")
        assert rouge_tokens("Cafe\u0301") == ["caf\u00e9"]  # composed, not NFD

    def test_idempotent(self):
        rng = random.Random(23)
        pool = ("The quick! brown, fox; jumps-over the lazy dog 42 વાક્ય पहला।"
                " \u0915\u093c \u0958").split()
        for _ in range(200):
            text = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
            tokens = rouge_tokens(text)
            assert rouge_tokens(" ".join(tokens)) == tokens


class TestNgrams:
    def test_unigrams(self):
        assert ngrams(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}

    def test_bigrams(self):
        assert ngrams(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}

    def test_too_short(self):
        assert ngrams(["a", "b"], 4) == {}

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            ngrams(["a"], 0)


class TestRougeN:
    def test_hand_computed_unigram(self):
        score = rouge_n("the cat sat", "the cat slept", 1)
        assert score.precision == pytest.approx(2 / 3, abs=1e-12)
        assert score.recall == pytest.approx(2 / 3, abs=1e-12)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_hand_computed_bigram(self):
        score = rouge_n("the cat sat", "the cat slept", 2)
        assert score.f1 == pytest.approx(0.5, abs=1e-12)

    def test_identical_strings(self):
        text = "monsoon rains reached the coast early"
        for n in (1, 2, 4):
            score = rouge_n(text, text, n)
            assert score.precision == score.recall == score.f1 == 1.0

    def test_disjoint_strings(self):
        for n in (1, 2, 4):
            score = rouge_n("alpha beta gamma delta", "uno dos tres cuatro", n)
            assert score.f1 == 0.0

    def test_empty_candidate(self):
        score = rouge_n("", "some reference text", 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_invalid_n(self):
        with pytest.raises(InvalidN):
            rouge_n("a", "a", 0)

    def test_clipping(self):
        # candidate repeats "a" three times, reference has it once
        score = rouge_n("a a a", "a b", 1)
        assert score.precision == pytest.approx(1 / 3, abs=1e-12)
        assert score.recall == pytest.approx(1 / 2, abs=1e-12)


class TestOracleEquivalence:
    ALPHABET = [chr(ord("a") + i) for i in range(8)]

    def _random_tokens(self, rng):
        return [rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 40))]

    def test_rouge_n_matches_oracle_f1(self):
        rng = random.Random(99)
        for _ in range(300):
            cand, ref = self._random_tokens(rng), self._random_tokens(rng)
            for n in (1, 2, 4):
                got = rouge_n(" ".join(cand), " ".join(ref), n).f1
                assert abs(got - oracle_f1(cand, ref, n)) <= 1e-12

    def test_rouge_scores_matches_oracle(self):
        # every order from one call, on small and on wide vocabularies
        rng = random.Random(7)
        vocab = [f"tok{i}" for i in range(70000)]
        orders = (1, 2, 3, 4, 5)
        for trial in range(300):
            if trial % 10:
                cand, ref = self._random_tokens(rng), self._random_tokens(rng)
            else:
                cand = [rng.choice(vocab) for _ in range(200)]
                ref = cand[50:] + [rng.choice(vocab) for _ in range(80)]
            scores = rouge_scores(" ".join(cand), " ".join(ref), orders)
            assert sorted(scores) == list(orders)
            for n in orders:
                overlap, cand_total, ref_total = oracle_stats(cand, ref, n)
                assert scores[n].n == n
                assert scores[n].precision == (
                    overlap / cand_total if cand_total else 0.0)
                assert scores[n].recall == (
                    overlap / ref_total if ref_total else 0.0)
                assert abs(scores[n].f1 - oracle_f1(cand, ref, n)) <= 1e-12


class TestProperties:
    def test_symmetry_swap(self):
        rng = random.Random(55)
        for _ in range(200):
            a = " ".join(rng.choice("abcd") for _ in range(rng.randint(0, 15)))
            b = " ".join(rng.choice("abcd") for _ in range(rng.randint(0, 15)))
            for n in (1, 2):
                assert rouge_n(a, b, n).precision == rouge_n(b, a, n).recall

    def test_self_f1_is_one(self):
        rng = random.Random(66)
        for _ in range(100):
            tokens = [rng.choice("wxyz") for _ in range(rng.randint(4, 20))]
            text = " ".join(tokens)
            for n in (1, 2, 4):
                assert rouge_n(text, text, n).f1 == 1.0

    def test_overlap_monotone_in_candidate_extension(self):
        rng = random.Random(77)
        for _ in range(200):
            cand = [rng.choice("abc") for _ in range(rng.randint(1, 12))]
            ref = [rng.choice("abc") for _ in range(rng.randint(1, 12))]
            extended = cand + [rng.choice(ref)]
            # With the reference fixed, recall is the overlap over a constant.
            before = rouge_scores(" ".join(cand), " ".join(ref), (1, 2))
            after = rouge_scores(" ".join(extended), " ".join(ref), (1, 2))
            for n in (1, 2):
                assert after[n].recall >= before[n].recall


class TestScoreCounts:
    """``score_counts`` reads its numbers off the clipped overlap
    ``sum((cand & ref).values())`` and the two totals."""

    @staticmethod
    def _random_counter(rng, keys):
        return Counter({k: rng.randint(1, 4)
                        for k in rng.sample(keys, rng.randint(0, len(keys)))})

    def test_overlap_is_counter_intersection(self):
        rng = random.Random(601)
        tokens = [f"w{i}" for i in range(12)]
        grams = [tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
                 for _ in range(40)]
        seen = Counter()
        for keys in (tokens, sorted(set(grams))):
            for _ in range(500):
                cand = self._random_counter(rng, keys)
                ref = self._random_counter(rng, keys)
                if rng.random() < 0.2:  # keys counted on one side only
                    ref = Counter({("only", k): v for k, v in ref.items()})
                seen["cand wider" if len(cand) > len(ref) else
                     "ref wider" if len(ref) > len(cand) else "same"] += 1
                overlap = sum((cand & ref).values())
                cand_total, ref_total = cand.total(), ref.total()
                p = overlap / cand_total if cand_total else 0.0
                r = overlap / ref_total if ref_total else 0.0
                got = score_counts(cand, ref, 2)
                assert got.n == 2
                assert got.precision == p
                assert got.recall == r
                assert got.f1 == (2 * p * r / (p + r) if p + r else 0.0)
        assert min(seen["cand wider"], seen["ref wider"]) > 300


class TestCorpusRouge:
    def test_average_of_perfect_and_zero(self):
        pairs = [("same text here", "same text here"),
                 ("aaa bbb", "ccc ddd")]
        scores = corpus_rouge(pairs, ns=(1,))
        assert scores[1].f1 == pytest.approx(0.5, abs=1e-12)

    def test_single_pair_equals_rouge_n(self):
        pair = ("the cat sat", "the cat slept")
        scores = corpus_rouge([pair])
        for n in (1, 2, 4):
            assert scores[n] == rouge_n(*pair, n)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_rouge([])

    def test_macro_average_componentwise(self):
        rng = random.Random(88)
        pairs = []
        for _ in range(20):
            pairs.append(
                (
                    " ".join(rng.choice("abcde") for _ in range(rng.randint(1, 10))),
                    " ".join(rng.choice("abcde") for _ in range(rng.randint(1, 10))),
                )
            )
        scores = corpus_rouge(pairs, ns=(1, 2))
        for n in (1, 2):
            singles = [rouge_n(c, r, n) for c, r in pairs]
            assert scores[n].precision == pytest.approx(
                sum(s.precision for s in singles) / len(singles), abs=1e-12
            )
            assert scores[n].recall == pytest.approx(
                sum(s.recall for s in singles) / len(singles), abs=1e-12
            )
            assert scores[n].f1 == pytest.approx(
                sum(s.f1 for s in singles) / len(singles), abs=1e-12
            )


# Small per-script vocabularies, so that ties and partial overlaps are
# common.  Words carry case, commas, hyphens, matras, a nukta in both
# its composed and decomposed forms, and native digits.
SCRIPT_WORDS = {
    "english": "Rain rain city the The council well-known river, 42".split(),
    "hindi": ["बारिश", "शहर", "नदी,", "\u0958िला", "\u0915\u093cिला", "पहला",
              "वाक्य", "परिषद"],
    "gujarati": "વરસાદ શહેર નદી, પાણી ભરાયાં બાદ ૪૨".split(),
}


def random_words(rng, words, least=0):
    return " ".join(rng.choice(words) for _ in range(rng.randint(least, 6)))


class TestSharedMatchingRule:
    """Back-mapping reads its numbers off the same rule as ``rouge_n``,
    which the oracle checks."""

    def test_back_map_fuzzy_choice_is_first_f1_argmax(self):
        rng = random.Random(502)
        for words in SCRIPT_WORDS.values():
            for _ in range(200):
                translations = [random_words(rng, words, 1) + "."
                                for _ in range(rng.randint(1, 6))]
                mapping = SentenceMapping(entries=tuple(
                    (i, f"source {i}.", t) for i, t in enumerate(translations)
                ))
                # "!" keeps the sentence off the exact-match path
                sentence = random_words(rng, words, 1) + "!"
                threshold = rng.choice((0.0, 0.4, 0.6, 1.0))
                f1 = [rouge_n(sentence, t, 1).f1 for t in translations]
                # Under the threshold, the first entry the sentence begins.
                tokens = rouge_tokens(sentence)
                begun = [i for i, t in enumerate(translations)
                         if tokens and rouge_tokens(t)[:len(tokens)] == tokens]
                if max(f1) < threshold and not begun:
                    with pytest.raises(NoAlignment) as info:
                        back_map(sentence, mapping, threshold)
                    assert info.value.best_score == max(f1)
                else:
                    want = f1.index(max(f1)) if max(f1) >= threshold else begun[0]
                    assert back_map(sentence, mapping, threshold) == f"source {want}."
