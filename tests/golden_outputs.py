"""Golden outputs: the same run bytes on every supported Python.

Runs a small fixed corpus, built here, through ``run_experiment``: the
direct pipeline in English, Hindi and Gujarati, translate-map on
Gujarati with a ``table:`` translator, twice in one output directory,
the second run reading the cache the first wrote, and the
``hindi-indicbart`` preset, which trains on the Hindi corpus with noise
copies and generates one request ahead, through ``adapter_stub.py``.
The sha256 of each run's records, aggregate, summaries CSV, translation
cache and adapter requests must equal the constants below, the same for
both translate-map runs.  Nothing hashed holds a path: ``config_hash``,
and so the summaries file name, includes the output directory.

Run from the repository root, with no test runner:

    PYTHONPATH=src python -W error tests/golden_outputs.py

It exits 0 when every digest matches, else 1 after printing one line
per mismatch.  ``tests/test_golden.py`` runs it the same way.
"""

import csv
import glob
import hashlib
import json
import os
import shlex
import sys
import tempfile

from indicsum.experiments import ExperimentConfig, run_experiment

# Vocabularies of different sizes, so that words repeat differently in
# each language and each gives its own scores.
WORDS = {
    "english": ("rain city council market school river road farmer price"
                " budget train harvest coast storm bridge village water"
                " power team court").split(),
    "hindi": ("बारिश शहर परिषद बाज़ार स्कूल नदी सड़क किसान कीमत बजट"
              " रेल फसल तट तूफ़ान पुल गाँव पानी").split(),
    "gujarati": ("વરસાદ શહેર પરિષદ બજાર શાળા નદી રસ્તો ખેડૂત ભાવ બજેટ"
                 " ટ્રેન પાક કિનારો તોફાન પુલ ગામ પાણી વીજળી ટીમ").split(),
}
END = {"english": ".", "hindi": "।", "gujarati": "."}
STUB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "adapter_stub.py")
RECORDS = 40
MAX_TOKENS = 12

GOLDEN = {
    "direct-english": {
        "records":
            "df36f6259e8300f5c57f7e5fe4df5c5a65757513d0b9d5c47a61e97e4d5093b2",
        "aggregate":
            "212fadd0b55bae732926992653376cd107aa42a31d600cbdf8cef947a289ae0d",
        "summaries":
            "03f1ea9d331a14053409fbae7286bb72cc2b4f1d3ea4cc72423eaa965be6f5d7",
    },
    "direct-hindi": {
        "records":
            "e90874cdc71366409b2d4bf80c53370d9ce3599012c7840825bfd51b2cf01268",
        "aggregate":
            "26929ec2064d30167477385097dbbe62d9fdb4bfadf16aa9ba65570aa6c58268",
        "summaries":
            "1b35b67e0348fe8ea78e4320b653ac9348bb52f6027b02e5f9e814602a93d8a4",
    },
    "direct-gujarati": {
        "records":
            "299d9ad4b15be84eaa432b6ea06c4dd7224a004f6f298814ae917be40b999aad",
        "aggregate":
            "b1f12edeee23f24933487ff4e2e38fd5673764b1750368774afd7116cf4e4f62",
        "summaries":
            "801744075631d33f83e573ec371661ea7bf76c7020716c07864355f846070817",
    },
    "translate-map-gujarati": {
        "records":
            "afa12d425e6fbca4c548bfe9e6468e44caf09b6208cbc0737d3557c5d00716aa",
        "aggregate":
            "eb5a990bbbbdceb97679d0e43998086f8f617d8e55058d6974965610bf95cd34",
        "summaries":
            "15a01940b3d43d0fcb49ecaa5fb8326a32fcdca0cd47d09260b1aa51a0ca0148",
        "cache":
            "a800195d915b6192a52bbe80d26995605abc69405e2f8b271d711203a3dd5293",
    },
    "hindi-indicbart": {
        "records":
            "f0aa94bbc9090181fa45d65bb4e7a5747257fedf606bc2266a323b8d10f20f8b",
        "aggregate":
            "cfe01616f5ba36f8a1629a081e1e547db8f08874a669e8187f232f7ef15f4583",
        "summaries":
            "5e73ee72d1d78e41a9dee8bd81c890f83541d2e2993e942d543c3c7e81f84803",
        "requests":
            "d98dc14dc46d67f32af55ee4338568a8381e129a12aa51ed511855d30d6e93bb",
    },
}
# Read back, the cache gives the same outputs, and nothing is appended.
GOLDEN["translate-map-gujarati-warm"] = GOLDEN["translate-map-gujarati"]


def words(language, i, j):
    """The words of sentence ``j`` of record ``i``; sentence 1 of every
    fifth record repeats record 0's, so translations repeat too."""
    if j == 1 and i % 5 == 0:
        i = 0
    vocab = WORDS[language]
    count = 4 + (i * j + j) % 5
    return [vocab[(i * 31 + j * 17 + t * 7 + t * t) % len(vocab)]
            for t in range(count)]


def sentence(language, i, j):
    return " ".join(words(language, i, j)) + END[language]


def row(language, i):
    """(id, Link, Heading, Article, Summary) of record ``i``."""
    count = 3 + i % 4
    article = " ".join(sentence(language, i, j) for j in range(count))
    # The reference shares a varying share of the article's n-grams.
    picked = words(language, i, i % count)
    vocab = WORDS[language]
    summary = (" ".join(picked[:-1] + [vocab[i * 13 % len(vocab)]]
                        + words(language, i, 0)[1:3]) + END[language])
    return (f"{language[:2]}{i}", "", f"h{i}", article, summary)


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "Link", "Heading", "Article", "Summary"))
        writer.writerows(rows)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(run, out_dir) -> dict:
    """The digests of one run's outputs and adapter requests, none of
    which holds a path."""
    (summaries,) = glob.glob(os.path.join(out_dir, "summaries-*.csv"))
    got = {
        key: sha256(json.dumps(value, ensure_ascii=False, sort_keys=True)
                    .encode("utf-8"))
        for key, value in (("records", run.records),
                           ("aggregate", run.aggregate))
    }
    with open(summaries, "rb") as fh:
        got["summaries"] = sha256(fh.read())
    for key, name in (("cache", "translation-cache.jsonl"),
                      ("requests", "requests.jsonl")):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                got[key] = sha256(fh.read())
    return got


def run_all(root) -> dict:
    """Every golden run in directory ``root``: name -> digests."""
    calls = {}
    for language in WORDS:
        path = os.path.join(root, f"{language}.csv")
        write_csv(path, (row(language, i) for i in range(RECORDS)))
        calls[f"direct-{language}"] = dict(language=language, eval_path=path)
    # Each Gujarati sentence translates to the English one of the same
    # record and position, a word longer when odd, so the lead baseline
    # picks other sentences in English than in Gujarati.
    table = os.path.join(root, "gu-en.tsv")
    with open(table, "w", encoding="utf-8") as fh:
        for i in range(RECORDS):
            for j in range(3 + i % 4):
                fh.write(f"{sentence('gujarati', i, j)}\t"
                         f"{'news ' * (j % 2)}{sentence('english', i, j)}\n")
    calls["translate-map-gujarati"] = dict(
        language="gujarati", eval_path=os.path.join(root, "gujarati.csv"),
        pipeline="translate-map", translator=f"table:{table}")
    # The warm run repeats translate-map in the same directory, over the
    # cache the first run wrote.
    calls["translate-map-gujarati-warm"] = calls["translate-map-gujarati"]
    # The stub logs each request it reads into the run's directory.
    requests = os.path.join(root, "hindi-indicbart", "requests.jsonl")
    calls["hindi-indicbart"] = dict(
        language="hindi", eval_path=os.path.join(root, "hindi.csv"),
        train_path=os.path.join(root, "hindi.csv"), preset="hindi-indicbart",
        adapter=shlex.join([sys.executable, STUB, "--request-log", requests]))
    out = {}
    for name, kwargs in calls.items():
        out_dir = os.path.join(root, name.removesuffix("-warm"))
        run = run_experiment(ExperimentConfig(
            output_dir=out_dir, max_tokens=MAX_TOKENS, **kwargs))
        out[name] = digests(run, out_dir)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        got = run_all(root)
    mismatches = [
        f"{name} {key}: got {got[name].get(key)}, want {want}"
        for name, wanted in GOLDEN.items()
        for key, want in wanted.items()
        if got[name].get(key) != want
    ]
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
