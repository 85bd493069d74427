"""Dataset augmentation: right-shift reordering and token-dropout noise.

All operations are pure functions of (input, seed) and therefore safe
to run concurrently.  Augmented records keep the corpus CSV schema and
get a suffixed id so originals and copies can coexist in one split.
"""

import random
from dataclasses import replace

from . import segment
from .backends import DEFAULT_SEED
from .corpus import ArticleRecord, DatasetSplit

__all__ = [
    "add_noise",
    "augment_split",
    "drop_tokens",
    "right_shift",
]


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


def augment_split(
    split: DatasetSplit,
    *,
    shift: bool = False,
    noise_rate: float | None = None,
    seed: int = DEFAULT_SEED,
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
