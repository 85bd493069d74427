"""Dataset augmentation: right-shift reordering, token-dropout noise,
extractive sentence labels and class balancing.

All operations are pure functions of (input, seed) and therefore safe
to run concurrently.  Augmented records keep the corpus CSV schema and
get a suffixed id so originals and copies can coexist in one split.
"""

import random
from collections import Counter
from dataclasses import dataclass, replace

from . import segment
from .corpus import ArticleRecord, DatasetSplit
from .errors import DegenerateClassDistribution, MissingGoldSummary
from .rouge import rouge_tokens, score_counts

__all__ = [
    "LabeledSentence",
    "add_noise",
    "augment_split",
    "balance_labels",
    "drop_tokens",
    "label_sentences",
    "right_shift",
]


@dataclass(frozen=True)
class LabeledSentence:
    """One article sentence with its extractive 0/1 target."""

    sentence: str
    label: int
    record_id: str
    position: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if self.position < 0:
            raise ValueError("position must be nonnegative")


def right_shift(record: ArticleRecord, language: str = "english") -> ArticleRecord:
    """Move the last sentence of the article body to the front.

    Sentences [s1, ..., sn] become [sn, s1, ..., s(n-1)]; a one-sentence
    body is returned unchanged.  The summary is untouched and the id is
    suffixed "-rs".  ``language`` selects the sentence delimiters (the
    danda matters for Hindi).
    """
    sentences = list(segment.split_sentences(record.article, language))
    if len(sentences) >= 2:
        body = " ".join([sentences[-1]] + sentences[:-1])
    else:
        body = record.article
    return replace(record, id=record.id + "-rs", article=body)


def drop_tokens(text: str, rate: float, seed: int) -> str:
    """Independently drop each whitespace token with probability ``rate``.

    The generator is ``random.Random(seed)`` with exactly one
    ``random()`` draw per token, in order; a token is dropped when the
    draw is < ``rate``.  Kept tokens are joined with single spaces;
    when no token is dropped the input comes back byte for byte, so
    rate 0 is an exact identity.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be within [0, 1], got {rate!r}")
    tokens = text.split()
    rng = random.Random(seed)
    kept = [tok for tok in tokens if not rng.random() < rate]
    if len(kept) == len(tokens):
        return text
    return " ".join(kept)


def add_noise(record: ArticleRecord, rate: float, seed: int) -> ArticleRecord:
    """Corrupt the article body by seeded token dropout.

    The summary is unchanged and the id is suffixed "-noise".  Output
    is bit-identical across runs for a fixed (record, rate, seed).
    """
    return replace(
        record,
        id=record.id + "-noise",
        article=drop_tokens(record.article, rate, seed),
    )


def label_sentences(
    record: ArticleRecord, language: str = "english"
) -> list[LabeledSentence]:
    """Assign each article sentence a 0/1 extractive label.

    A sentence is positive when its metric tokens (``rouge_tokens``:
    lowercased, punctuation stripped) equal those of a gold-summary
    sentence.  When no sentence matches exactly, the single sentence
    with the highest unigram recall (``rouge.score_counts``) against
    the whole gold summary is positive, ties going to the earliest
    position.  At least one label is always 1.
    """
    if record.summary is None or not record.summary.strip():
        raise MissingGoldSummary(f"record {record.id!r} has no gold summary")
    sentences = list(segment.split_sentences(record.article, language))
    tokens = [tuple(rouge_tokens(s)) for s in sentences]
    gold_sentences = {
        tuple(rouge_tokens(s))
        for s in segment.split_sentences(record.summary, language)
    }
    labels = [1 if t and t in gold_sentences else 0 for t in tokens]
    if not any(labels):
        gold_counts = Counter(rouge_tokens(record.summary))
        best_pos, best_recall = 0, -1.0
        for pos, t in enumerate(tokens):
            recall = score_counts(Counter(t), gold_counts).recall
            if recall > best_recall:
                best_pos, best_recall = pos, recall
        labels[best_pos] = 1

    return [
        LabeledSentence(sentence=s, label=l, record_id=record.id, position=p)
        for p, (s, l) in enumerate(zip(sentences, labels))
    ]


def balance_labels(
    labeled: list[LabeledSentence], seed: int
) -> list[LabeledSentence]:
    """Upsample the minority class until both classes are equal in size.

    Duplicates are drawn with replacement by a seeded generator and
    appended after the originals, which are all retained.  Raises
    DegenerateClassDistribution when either class is empty.
    """
    positives = [s for s in labeled if s.label == 1]
    negatives = [s for s in labeled if s.label == 0]
    if not positives or not negatives:
        raise DegenerateClassDistribution(
            f"need both classes, got {len(positives)} positive /"
            f" {len(negatives)} negative"
        )
    minority = positives if len(positives) < len(negatives) else negatives
    deficit = abs(len(positives) - len(negatives))
    rng = random.Random(seed)
    extra = [rng.choice(minority) for _ in range(deficit)]
    return list(labeled) + extra


def augment_split(
    split: DatasetSplit,
    *,
    shift: bool = False,
    noise_rate: float | None = None,
    seed: int = 13,
    append: bool = True,
) -> DatasetSplit:
    """Apply right-shift and/or noise to every record of ``split``.

    With ``append`` (the default) augmented copies follow the originals
    in the output; otherwise they replace them.  The noise seed is
    derived per record from ``seed`` and the record's position so that
    different records receive different dropout patterns while the
    whole split stays reproducible.
    """
    augmented = []
    for pos, rec in enumerate(split.records):
        if shift:
            augmented.append(right_shift(rec, split.language))
        if noise_rate is not None:
            augmented.append(add_noise(rec, noise_rate, seed + pos))
    records = (list(split.records) + augmented) if append else augmented
    return DatasetSplit(
        kind=split.kind, language=split.language, records=tuple(records)
    )
