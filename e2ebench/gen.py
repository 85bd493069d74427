"""Seeded synthetic ILSUM inputs for the end-to-end benchmark.

Writes, for one workload and seed, the files the program reads (CSV
splits, the gu->en translation table and the warm translation cache)
plus two files only the benchmark reads: ``manifest.json`` with the
input properties and ``sentences.json`` with each translate-map
article's sentence list, used by the extractiveness check.

The same (workload, seed) always yields byte-identical files.  Run it
as its own process so that input generation never counts towards the
measured process's peak memory:

    python3 e2ebench/gen.py --workload direct --seed 1 --out DIR
"""

import argparse
import csv
import json
import os
import random
import unicodedata

WORKLOADS = ("direct", "translate-map-cold", "translate-map-warm", "adapter-train")

VOCAB_SIZE = 5000
SENTENCE_WORDS = (6, 18)

# Sizes per split; see BENCHMARK.json for why each workload exists.
DIRECT_RECORDS = 250
DIRECT_SENTENCES = (10, 40)
TRANSLATE_RECORDS = 500
TRANSLATE_SENTENCES = (10, 40)
TRANSLATE_REPEAT_SHARE = 0.3
# Share of a reference sentence's words swapped for random ones.
REFERENCE_SWAP_SHARE = 0.3
# With 6-18 words per sentence, a budget of 15 words makes the lead
# summary truncate its first sentence for about 3 articles in 13, which
# sends those summaries down back_map's fuzzy branch.
TRANSLATE_MAX_TOKENS = 15
ADAPTER_RECORDS = 400
ADAPTER_SENTENCES = (80, 160)

COLUMNS = ("id", "Link", "Heading", "Article", "Summary")


def _latin_syllables():
    return {1: list("aeiou"), 2: [c + v for c in "bcdfghjklmnprstvwyz" for v in "aeiou"]}


def _indic_syllables(consonant_range, matras, virama):
    consonants = [
        chr(cp) for cp in range(*consonant_range)
        if unicodedata.category(chr(cp)) == "Lo"
        and unicodedata.decomposition(chr(cp)) == ""
    ]
    return {
        1: consonants,
        2: [c + m for c in consonants for m in matras],
        3: [a + virama + b for a in consonants[:12] for b in consonants[-12:]],
    }


SCRIPTS = {
    "english": (_latin_syllables, ".?!", (0.92, 0.05, 0.03)),
    "hindi": (
        lambda: _indic_syllables(
            (0x0915, 0x093A),
            ["\u093e", "\u093f", "\u0940", "\u0941", "\u0942",
             "\u0947", "\u0948", "\u094b", "\u094c", "\u0902"],
            "\u094d",
        ),
        "\u0964?!",
        (0.88, 0.08, 0.04),
    ),
    "gujarati": (
        lambda: _indic_syllables(
            (0x0A95, 0x0ABA),
            ["\u0abe", "\u0abf", "\u0ac0", "\u0ac1", "\u0ac2",
             "\u0ac7", "\u0ac8", "\u0acb", "\u0acc", "\u0a82"],
            "\u0acd",
        ),
        ".?!",
        (0.92, 0.05, 0.03),
    ),
}


def word_length(rank):
    """Code points of the vocabulary word of frequency ``rank``.

    Fixed per rank, so the seed changes the words but not the size of
    the text: frequent words are short, rare ones long.
    """
    return 2 + min(6, rank.bit_length() // 2)


def spread_counts(lo, hi, n, rng):
    """``n`` counts spread evenly over ``lo..hi``, in seeded order."""
    counts = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(counts)
    return counts


class Writer:
    """Sentence and article generator for one script."""

    def __init__(self, language, seed, rng):
        syllables_fn, terminators, weights = SCRIPTS[language]
        self.rng = rng
        self.terminators = terminators
        self.term_weights = weights
        syllables = syllables_fn()
        vocab_rng = random.Random(f"{seed}:{language}:vocab")
        words = {}
        while len(words) < VOCAB_SIZE:
            left = word_length(len(words))
            pieces = []
            while left:
                size = vocab_rng.choice([n for n in syllables if n <= left])
                pieces.append(vocab_rng.choice(syllables[size]))
                left -= size
            words.setdefault("".join(pieces), None)
        self.vocab = list(words)
        # Zipf-like frequencies, so common words and n-grams recur.
        total = 0.0
        self.cum = []
        for rank in range(VOCAB_SIZE):
            total += 1.0 / (rank + 1)
            self.cum.append(total)

    def words(self, k):
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=k)

    def sentence(self):
        """(words, terminator) for one new sentence."""
        words = self.words(self.rng.randint(*SENTENCE_WORDS))
        if self.rng.random() < 0.15:
            pos = self.rng.randrange(len(words) - 1)
            words[pos] += ","
        term = self.rng.choices(self.terminators, weights=self.term_weights)[0]
        return words, term

    def perturb(self, words, term):
        """A reference sentence: ``words`` with a share swapped out."""
        out = [w if self.rng.random() >= REFERENCE_SWAP_SHARE else self.words(1)[0]
               for w in words]
        return " ".join(out) + term


def _render(words, term):
    return " ".join(words) + term


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)


def _row(prefix, i, writer, article, summary):
    heading = " ".join(writer.words(5))
    return (f"{prefix}-{i:05d}", f"https://news.example/{prefix}/{i}",
            heading, article, summary)


def _props(path, records, sentences, distinct):
    return {
        "records": records,
        "sentences": sentences,
        "distinct_sentence_share": distinct / sentences,
        "input_bytes": os.path.getsize(path),
    }


def direct_split(language, seed, out, records, sentence_range, ref_sentences):
    """An eval (or train) split of independent articles."""
    rng = random.Random(f"{seed}:{os.path.basename(out)}")
    writer = Writer(language, seed, rng)
    rows = []
    total = 0
    distinct = set()
    for i, count in enumerate(spread_counts(*sentence_range, records, rng)):
        sents = [writer.sentence() for _ in range(count)]
        rendered = [_render(w, t) for w, t in sents]
        total += len(rendered)
        distinct.update(rendered)
        picks = sorted(rng.sample(range(len(sents)), ref_sentences))
        summary = " ".join(writer.perturb(*sents[p]) for p in picks)
        rows.append(_row(language[:2], i, writer, " ".join(rendered), summary))
    _write_csv(out, rows)
    return _props(out, records, total, len(distinct))


def translate_split(seed, out_dir, records):
    """A Gujarati split with repeated sentences, its gu->en table and the
    warm cache that holds every translation."""
    rng = random.Random(f"{seed}:translate")
    gu = Writer("gujarati", seed, rng)
    en = Writer("english", seed, rng)
    gloss = dict(zip(gu.vocab, en.vocab))
    table = {}      # gujarati sentence -> english sentence
    pool = []       # distinct sentences, for cross-article repeats
    rows = []
    sentences = {}
    total = 0
    fuzzy = 0
    summary_sentences = 0
    for i, count in enumerate(spread_counts(*TRANSLATE_SENTENCES, records, rng)):
        chosen = []
        seen = set()
        while len(chosen) < count:
            if pool and rng.random() < TRANSLATE_REPEAT_SHARE:
                src = rng.choice(pool)
                if src in seen:
                    continue
            else:
                words, term = gu.sentence()
                src = _render(words, term)
                table[src] = _render(
                    [gloss[w.rstrip(",")] + ("," if w.endswith(",") else "")
                     for w in words],
                    term,
                )
                pool.append(src)
            seen.add(src)
            chosen.append(src)
        total += len(chosen)
        rec_id = f"gu-{i:05d}"
        sentences[rec_id] = chosen
        # The lead baseline runs on the English side; its word budget
        # decides which summaries truncate and take the fuzzy branch.
        lengths = [len(s.split()) for s in chosen]
        if lengths[0] > TRANSLATE_MAX_TOKENS:
            fuzzy += 1
            summary_sentences += 1
        else:
            used = 0
            for n in lengths:
                if used + n > TRANSLATE_MAX_TOKENS:
                    break
                used += n
                summary_sentences += 1
        picks = sorted(rng.sample(range(len(chosen)), min(3, len(chosen))))
        summary = " ".join(
            gu.perturb(chosen[p][:-1].split(), chosen[p][-1]) for p in picks
        )
        rows.append(_row("gu", i, gu, " ".join(chosen), summary))

    csv_path = os.path.join(out_dir, "gujarati.csv")
    _write_csv(csv_path, rows)
    tsv_path = os.path.join(out_dir, "gu-en.tsv")
    with open(tsv_path, "w", encoding="utf-8") as fh:
        for src, dst in table.items():
            fh.write(f"{src}\t{dst}\n")
    cache_path = os.path.join(out_dir, "warm-cache.jsonl")
    with open(cache_path, "w", encoding="utf-8") as fh:
        for src, dst in table.items():
            fh.write(json.dumps({"src": src, "src_lang": "gujarati",
                                 "tgt_lang": "english", "dst": dst},
                                ensure_ascii=False) + "\n")
    with open(os.path.join(out_dir, "sentences.json"), "w", encoding="utf-8") as fh:
        json.dump(sentences, fh, ensure_ascii=False)
    props = _props(csv_path, records, total, len(table))
    props["expected_fuzzy_share"] = fuzzy / summary_sentences
    props["expected_fuzzy_records"] = fuzzy
    props["table_bytes"] = os.path.getsize(tsv_path)
    props["warm_cache_bytes"] = os.path.getsize(cache_path)
    return props


def generate(workload, seed, out_dir):
    """Write the inputs of ``workload`` into ``out_dir``; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "splits": {}}
    splits = manifest["splits"]
    if workload == "direct":
        for language in ("english", "hindi", "gujarati"):
            splits[language] = direct_split(
                language, seed, os.path.join(out_dir, f"{language}.csv"),
                DIRECT_RECORDS, DIRECT_SENTENCES, 3,
            )
    elif workload in ("translate-map-cold", "translate-map-warm"):
        splits["gujarati"] = translate_split(seed, out_dir, TRANSLATE_RECORDS)
        manifest["max_tokens"] = TRANSLATE_MAX_TOKENS
    elif workload == "adapter-train":
        for kind in ("train", "eval"):
            splits[kind] = direct_split(
                "hindi", seed, os.path.join(out_dir, f"hindi_{kind}.csv"),
                ADAPTER_RECORDS, ADAPTER_SENTENCES, 1,
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["input_bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in os.listdir(out_dir) if name != "sentences.json"
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
