"""Dataset augmentation: right-shift reordering and token-dropout noise.

All operations are pure functions of (input, seed) and therefore safe
to run concurrently.  Augmented records keep the corpus CSV schema and
get a suffixed id so originals and copies can coexist in one split.
An augmented split makes its copies as they are read, so a train
request or an ``augment --out`` file never holds them all at once; a
noise copy whose article comes out blank is an error, not a record.
"""

import random
from dataclasses import replace

from . import segment
from .backends import DEFAULT_SEED
from .corpus import ArticleRecord, DatasetSplit
from .errors import EmptyArticle

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


def _check_rate(rate: float) -> None:
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be within [0, 1], got {rate!r}")


def drop_tokens(text: str, rate: float, seed: int) -> str:
    """Independently drop each whitespace token with probability ``rate``.

    The generator is ``random.Random(seed)`` with exactly one
    ``random()`` draw per token, in order; a token is dropped when the
    draw is < ``rate``.  Kept tokens are joined with single spaces;
    when no token is dropped the input comes back byte for byte, so
    rate 0 is an exact identity.
    """
    _check_rate(rate)
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


class _Records:
    """A split's records, made anew by ``make()`` on each pass; ``len()``
    is known without making them."""

    __slots__ = ("_length", "_make")

    def __init__(self, length: int, make):
        self._length = length
        self._make = make

    def __len__(self):
        return self._length

    def __iter__(self):
        return self._make()


def augment_split(
    split: DatasetSplit,
    *,
    shift: bool = False,
    noise_rate: float | None = None,
    seed: int = DEFAULT_SEED,
    append: bool = True,
) -> DatasetSplit:
    """Apply right-shift and/or noise to every record of ``split``.

    With ``append`` (the default) the originals come first; otherwise
    only the copies are kept.  Then, for each record in order, come its
    right-shift copy and its noise copy.  The noise seed is derived per
    record from ``seed`` and the record's position so that different
    records receive different dropout patterns while the whole split
    stays reproducible.

    The copies are made as the returned split's records are read, and
    made again on each pass, so at most one is alive at a time; its
    ``len()`` comes from the counts.  A bad noise rate or, with
    ``shift``, an unknown language raises ValueError from this call.
    Reading a noise copy whose article comes out blank raises
    EmptyArticle naming the copy.
    """
    if noise_rate is not None:
        _check_rate(noise_rate)
    if shift and split.language not in segment.LANGUAGES:
        raise ValueError(f"unknown language: {split.language!r}")
    originals = split.records

    def records():
        if append:
            yield from originals
        for pos, rec in enumerate(originals):
            if shift:
                yield right_shift(rec, split.language)
            if noise_rate is not None:
                copy = add_noise(rec, noise_rate, seed + pos)
                if not copy.article.strip():
                    raise EmptyArticle(f"noise copy {copy.id!r} has a blank"
                                       f" article at noise rate {noise_rate}")
                yield copy

    length = len(originals) * (append + shift + (noise_rate is not None))
    return DatasetSplit(kind=split.kind, language=split.language,
                        records=_Records(length, records))
