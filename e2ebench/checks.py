"""Output checks for the end-to-end benchmark, independent of indicsum.

Every check returns a list of human-readable problems; an empty list
means the run's output is correct.  None of them imports the package,
so a defect in its scoring or segmentation cannot hide itself here.
"""

import csv
import hashlib
import json
import unicodedata

ORDERS = (1, 2, 4)
TOLERANCE = 1e-12

_WORD_CHAR = {}


def tokens(text):
    """Metric tokens: NFC, lowercase, every character outside the Unicode
    letter, mark and number categories replaced by a space, whitespace split."""
    text = unicodedata.normalize("NFC", text).lower()
    chars = []
    for ch in text:
        keep = _WORD_CHAR.get(ch)
        if keep is None:
            keep = _WORD_CHAR[ch] = unicodedata.category(ch)[0] in "LMN"
        chars.append(ch if keep else " ")
    return "".join(chars).split()


def _clipped_overlap(cand, ref):
    """Matches between two sorted gram lists, each gram used at most once."""
    i = j = matched = 0
    while i < len(cand) and j < len(ref):
        if cand[i] == ref[j]:
            matched += 1
            i += 1
            j += 1
        elif cand[i] < ref[j]:
            i += 1
        else:
            j += 1
    return matched


def rouge(cand_tokens, ref_tokens, n):
    """(precision, recall, f1) of clipped n-gram overlap, by sort and merge."""
    cand = sorted(tuple(cand_tokens[i:i + n]) for i in range(len(cand_tokens) - n + 1))
    ref = sorted(tuple(ref_tokens[i:i + n]) for i in range(len(ref_tokens) - n + 1))
    overlap = _clipped_overlap(cand, ref)
    precision = overlap / len(cand) if cand else 0.0
    recall = overlap / len(ref) if ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def read_csv(path):
    """``{id: (Article, Summary)}`` of one input split."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["id"]: (row["Article"], row["Summary"]) for row in csv.DictReader(fh)}


def check_scores(run, split):
    """Per-record ROUGE-1/2/4 and the corpus aggregate against the reference."""
    problems = []
    if [row["id"] for row in run.records] != list(split):
        return [f"run scored {len(run.records)} records in another order"
                f" than the {len(split)} input records"]
    sums = {n: [0.0, 0.0, 0.0] for n in ORDERS}
    for row in run.records:
        cand = tokens(row["summary"])
        ref = tokens(split[row["id"]][1])
        for n in ORDERS:
            want = rouge(cand, ref, n)
            got = row["scores"][str(n)]
            for k, key in enumerate(("precision", "recall", "f1")):
                sums[n][k] += want[k]
                if abs(got[key] - want[k]) > TOLERANCE:
                    problems.append(f"{row['id']}: ROUGE-{n} {key} is {got[key]},"
                                    f" reference gives {want[k]}")
    count = len(run.records)
    for n in ORDERS:
        for k, key in enumerate(("precision", "recall", "f1")):
            want = sums[n][k] / count
            got = run.aggregate[str(n)][key]
            if abs(got - want) > 1e-9:
                problems.append(f"aggregate ROUGE-{n} {key} is {got}, mean of"
                                f" reference scores is {want}")
    return problems


def check_extractive(run, sentences):
    """Every summary is article sentences, in article order, space-joined."""
    problems = []
    for row in run.records:
        rest = row["summary"]
        for sentence in sentences[row["id"]]:
            if rest == sentence:
                rest = ""
                break
            if rest.startswith(sentence + " "):
                rest = rest[len(sentence) + 1:]
        if rest or not row["summary"]:
            problems.append(f"{row['id']}: summary is not built from source"
                            f" sentences: {row['summary'][:80]!r}")
    return problems


def check_echo(run, split, train_records):
    """The adapter saw the augmented train set and echoed every article."""
    problems = []
    want_ckpt = f"echo-{2 * train_records}"
    if run.backend.get("checkpoint") != want_ckpt:
        problems.append(f"checkpoint is {run.backend.get('checkpoint')!r},"
                        f" want {want_ckpt!r} (noise augmentation doubles the train set)")
    budget = run.backend["generation"]["max_tokens"]
    for row in run.records:
        want = " ".join(split[row["id"]][0].split()[:budget])
        if row["summary"] != want:
            problems.append(f"{row['id']}: summary is not the echoed article lead")
    return problems


def digest(run):
    """Hash of the deterministic part of a run: records and aggregate."""
    payload = json.dumps({"records": list(run.records), "aggregate": run.aggregate},
                         sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
