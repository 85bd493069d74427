"""ROUGE-N scoring: clipped n-gram overlap with corpus-level macro averages.

Scores are precision, recall and F1 over clipped n-gram match counts.
The clipped overlap loops over the keys both sides share, and only those.
Tokenization for the metric is fixed: canonical Unicode composition,
lowercasing (a no-op for Indic scripts), punctuation replaced by
spaces, whitespace split.  No stemming, no stopword removal.

This module is the package's one text-matching rule: back-mapping
uses ``rouge_tokens`` and the same clipped-overlap kernel (``_counts``,
``_overlap``, ``_prf``) too.
"""

import unicodedata
from collections import Counter, _count_elements
from dataclasses import dataclass

from . import segment
from .errors import EmptyCorpus, InvalidN

DEFAULT_ORDERS = (1, 2, 4)

# There is a single pure-Python scorer; e2ebench/run.py still records this name.
KERNEL_BACKEND = "python"

__all__ = [
    "DEFAULT_ORDERS",
    "KERNEL_BACKEND",
    "RougeScore",
    "corpus_rouge",
    "mean_scores",
    "ngrams",
    "rouge_n",
    "rouge_scores",
    "rouge_tokens",
    "score_counts",
]


@dataclass(frozen=True)
class RougeScore:
    n: int
    precision: float
    recall: float
    f1: float


def rouge_tokens(text: str) -> list[str]:
    """Tokenize ``text`` for metric computation."""
    text = unicodedata.normalize("NFC", text).lower()
    return segment.strip_punctuation(text).split()


def ngrams(tokens, n: int) -> Counter:
    """All contiguous n-token windows of ``tokens`` with multiplicity."""
    if n < 1:
        raise InvalidN(f"n-gram order must be >= 1, got {n}")
    tokens = list(tokens)
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _counts(tokens, n: int) -> dict:
    """Plain-dict tally of the n-grams of ``tokens`` (``n`` >= 1).

    Unigram keys are the tokens themselves; longer keys are ``zip``
    windows.  ``_count_elements`` is the C tally ``Counter.update``
    calls, without its Python frames and type check.
    """
    counts = {}
    _count_elements(counts, tokens if n == 1
                    else zip(*(tokens[i:] for i in range(n))))
    return counts


def _overlap(cand, ref) -> int:
    """Clipped match count of two tallies of the same kind of key."""
    # The overlap loops over the shared keys only: the keys-view
    # intersection runs in C over the smaller view, so a key that one
    # side lacks costs no Python-level step and no result mapping is built.
    overlap = 0
    for key in cand.keys() & ref.keys():
        a, b = cand[key], ref[key]
        overlap += a if a < b else b
    return overlap


def _prf(overlap: int, cand_total: int, ref_total: int):
    """Precision, recall and F1 of ``overlap`` matches out of the two totals."""
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def score_counts(cand: Counter, ref: Counter, n: int = 1) -> RougeScore:
    """Precision, recall and F1 of the clipped overlap of two counts.

    ``cand`` and ``ref`` count the same kind of key: ``ngrams`` windows,
    or plain tokens (``Counter(rouge_tokens(text))``) for unigrams.
    ``n`` only labels the result.  The overlap and the scores come from
    the kernel ``rouge_scores`` and back-mapping use.
    """
    return RougeScore(n, *_prf(_overlap(cand, ref), cand.total(), ref.total()))


def rouge_scores(candidate: str, reference: str,
                 ns=DEFAULT_ORDERS) -> dict[int, RougeScore]:
    """ROUGE-N of ``candidate`` against ``reference`` for every order in
    ``ns``, tokenizing each text once."""
    cand, ref = rouge_tokens(candidate), rouge_tokens(reference)
    scores = {}
    for n in ns:
        if n < 1:
            raise InvalidN(f"n-gram order must be >= 1, got {n}")
        scores[n] = RougeScore(n, *_prf(
            _overlap(_counts(cand, n), _counts(ref, n)),
            max(len(cand) - n + 1, 0), max(len(ref) - n + 1, 0)))
    return scores


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """ROUGE-N of ``candidate`` against ``reference``."""
    return rouge_scores(candidate, reference, (n,))[n]


def mean_scores(per_pair) -> dict[int, RougeScore]:
    """Macro average, per order, of ``rouge_scores`` results that share
    their orders.

    Precision, recall and F1 are each averaged arithmetically across
    pairs (per-pair F1 first, then the mean — not F1 of the mean).  Each
    is summed left to right in plain floats, not by ``sum()``, which is
    compensated from Python 3.12 on, so every version gives the same
    bytes.
    """
    per_pair = list(per_pair)
    if not per_pair:
        raise EmptyCorpus("corpus scoring needs at least one pair")
    count = len(per_pair)
    out = {}
    for n in per_pair[0]:
        precision = recall = f1 = 0.0
        for pair in per_pair:
            score = pair[n]
            precision += score.precision
            recall += score.recall
            f1 += score.f1
        out[n] = RougeScore(n=n, precision=precision / count,
                            recall=recall / count, f1=f1 / count)
    return out


def corpus_rouge(pairs, ns=DEFAULT_ORDERS) -> dict[int, RougeScore]:
    """Macro-averaged ROUGE-N over ``(candidate, reference)`` pairs."""
    return mean_scores(rouge_scores(c, r, ns) for c, r in pairs)
