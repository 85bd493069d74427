"""Extractive summarization by sentence scoring and selection.

This module is model-free: a scorer is any callable mapping a list of
sentence strings to an equal-length list of scores in [0, 1].  The
trained sentence classifier plugs in through
backends.scorer_from_handle; a deterministic heading-overlap scorer is
provided for tests and offline runs.
"""

from collections import Counter
from dataclasses import dataclass

from .errors import BackendUnavailable, EmptyInput
from .rouge import rouge_tokens, score_counts

__all__ = [
    "ScoredSentence",
    "heading_overlap_scorer",
    "score_sentences",
    "select_summary",
]


@dataclass(frozen=True)
class ScoredSentence:
    sentence: str
    score: float
    position: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be within [0, 1], got {self.score!r}")
        if self.position < 0:
            raise ValueError("position must be nonnegative")


def heading_overlap_scorer(heading: str):
    """Scorer that rates a sentence by unigram overlap with ``heading``.

    The score is the clipped fraction of the sentence's tokens that
    also appear in the heading: the unigram precision of
    ``rouge.score_counts`` with the heading as reference, so it always
    lies in [0, 1] and is 0 for a sentence without tokens.
    Deterministic, no model involved.
    """
    head_counts = Counter(rouge_tokens(heading))

    def scorer(sentences):
        return [score_counts(Counter(rouge_tokens(s)), head_counts).precision
                for s in sentences]

    return scorer


def score_sentences(scorer, sentences) -> list[ScoredSentence]:
    """Score every sentence, preserving order.

    ``sentences`` is any iterable of strings, such as the
    ``segment.split_sentences`` tuple.  A scorer that returns the
    wrong number of scores violates the adapter contract and raises
    BackendUnavailable.
    """
    texts = list(sentences)
    if not texts:
        raise EmptyInput("no sentences to score")
    scores = list(scorer(texts))
    if len(scores) != len(texts):
        raise BackendUnavailable(
            f"scorer returned {len(scores)} scores for {len(texts)} sentences"
        )
    return [
        ScoredSentence(sentence=s, score=float(v), position=p)
        for p, (s, v) in enumerate(zip(texts, scores))
    ]


def select_summary(scored, k: int = 2, min_chars: int = 25) -> str:
    """Pick the summary sentences per the selection rules.

    Sentences longer than ``min_chars`` raw characters are ranked by
    score (ties to the earlier position) and the top ``k`` are emitted
    in document order, space-joined.  With fewer than ``k`` eligible
    sentences all eligible ones are used; with none, the single
    highest-scoring sentence wins regardless of length.
    """
    scored = list(scored)
    if not scored:
        raise EmptyInput("no scored sentences to select from")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    eligible = [s for s in scored if len(s.sentence) > min_chars]
    if eligible:
        ranked = sorted(eligible, key=lambda s: (-s.score, s.position))
        picked = ranked[:k]
    else:
        picked = [min(scored, key=lambda s: (-s.score, s.position))]
    picked.sort(key=lambda s: s.position)
    return " ".join(s.sentence for s in picked)
