"""Extractive summary selection over already-scored sentences.

Scoring sentences is a model's job and happens inside an adapter's
``generate`` op; this module holds only the model-free selection rules
that turn ``ScoredSentence`` values into a summary.
"""

from dataclasses import dataclass

from .errors import EmptyInput

__all__ = [
    "ScoredSentence",
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
