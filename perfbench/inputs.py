"""Seeded synthetic inputs for the benchmark.

Documents are built here, not with the package's own generator, so their
size is exact: a document has exactly the requested number of tokens, in
sentences whose lengths scatter around a target. Mentions are flat
phrases: proper names, definite and indefinite noun phrases and pronouns,
so every anaphor class of the error analyzer occurs. Entities mentioned
more than once form the gold clusters; the rest are singleton mentions.

The score corpus pairs each key document with a response that carries
planted link errors whose per-kind counts are known by construction.
"""

import zlib

import numpy as np

from corefmtl.corpus import ENTITY_TYPES, Document, Mention

FILLER = [f"{a}{b}" for a in ("ka", "lo", "mi", "nu", "pe", "ro", "su", "ti",
                               "va", "ze", "bo", "de")
          for b in ("ran", "lis", "mot", "pek", "sul", "tav", "wen", "dor",
                    "gim", "fos")]
NOUNS = [f"{a}{b}" for a in ("bar", "cor", "dun", "fel", "gar", "hol", "jes",
                             "kel", "mar", "nor")
         for b in ("ton", "vel", "ash", "ick", "ump")]
NAMES = [n.capitalize() for n in NOUNS]
PRONOUNS = {"person": ("he", "she", "they", "him", "her"),
            "organization": ("it", "they"), "place": ("it", "there"),
            "animal": ("it", "he", "she")}
FIRST_SECOND = ("i", "you", "we", "me")
SPEAKERS = ("ann", "ben", "cleo", "-")
GENRES = ("nw", "bc", "wb")
SINGLETON_STATUSES = ("new", "accessible:inferrable", "accessible:commonground",
                      "accessible:aggregate")


def named_stream(seed: int, name: str) -> np.random.Generator:
    """A random stream fixed by (seed, name), the same in every process."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def sentence_lengths(rng: np.random.Generator, num_tokens: int,
                     target: int) -> list[int]:
    """Lengths uniform in [target/2, 3*target/2] summing to num_tokens."""
    lengths, left = [], num_tokens
    lo, hi = max(3, target // 2), max(4, (3 * target) // 2)
    while left > 0:
        n = min(int(rng.integers(lo, hi + 1)), left)
        if 0 < left - n < lo:
            n = left
        lengths.append(n)
        left -= n
    return lengths


def make_document(seed: int, doc_key: str, num_tokens: int,
                  sentence_target: int = 20) -> Document:
    """One annotated document of exactly num_tokens tokens."""
    rng = named_stream(seed, doc_key)
    genre = GENRES[int(rng.integers(len(GENRES)))]
    n_entities = max(2, num_tokens // 25)
    entities = []
    for e in range(n_entities):
        etype = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
        entities.append({
            "type": etype,
            "name": NAMES[int(rng.integers(len(NAMES)))] if rng.random() < 0.6 else None,
            "noun": NOUNS[int(rng.integers(len(NOUNS)))],
            "pronouns": PRONOUNS.get(etype, ("it",)),
        })

    sentences, speakers = [], []
    occurrences: list[tuple[int, int, int | None, str]] = []  # start, end, entity, status
    seen: dict[int, int] = {}     # entity -> sentence of its last mention
    offset = 0
    for si, length in enumerate(sentence_lengths(rng, num_tokens, sentence_target)):
        tokens = [FILLER[int(rng.integers(len(FILLER)))] for _ in range(length)]
        # mention phrases go into disjoint slots of up to two tokens
        slots = rng.permutation(length // 3)[:max(1, length // 8)] * 3 + 1
        for pos in sorted(int(p) for p in slots):
            if rng.random() < 0.2:
                if rng.random() < 0.2:
                    phrase = [FIRST_SECOND[int(rng.integers(len(FIRST_SECOND)))]]
                else:
                    phrase = [("a" if rng.random() < 0.5 else "the"),
                              NOUNS[int(rng.integers(len(NOUNS)))] + "s"]
                ent, status = None, SINGLETON_STATUSES[int(rng.integers(4))]
            else:
                ent = int(rng.integers(n_entities))
                e = entities[ent]
                if ent not in seen:
                    phrase = [e["name"]] if e["name"] else ["the", e["noun"]]
                    status = "new"
                else:
                    roll = rng.random()
                    if roll < 0.4:
                        phrase = [e["pronouns"][int(rng.integers(len(e["pronouns"])))]]
                    elif roll < 0.7 and e["name"]:
                        phrase = [e["name"]]
                    else:
                        phrase = ["the", e["noun"]]
                    status = "given:active" if si - seen[ent] <= 1 else "given:inactive"
                seen[ent] = si
            tokens[pos:pos + len(phrase)] = phrase
            occurrences.append((offset + pos, offset + pos + len(phrase) - 1, ent, status))
        spk = SPEAKERS[int(rng.integers(len(SPEAKERS)))]
        sentences.append(tokens)
        speakers.append([spk] * length)
        offset += length

    by_entity: dict[int, list[tuple[int, int]]] = {}
    for s, e, ent, _ in occurrences:
        if ent is not None:
            by_entity.setdefault(ent, []).append((s, e))
    clusters = sorted((sorted(spans) for spans in by_entity.values() if len(spans) >= 2),
                      key=lambda c: c[0])
    cluster_of = {span: ci for ci, c in enumerate(clusters) for span in c}
    mentions = sorted(
        (Mention(s, e, entities[ent]["type"] if ent is not None else
                 ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))],
                 status, cluster_of.get((s, e)))
         for s, e, ent, status in occurrences),
        key=lambda m: m.span)
    doc = Document(doc_key=doc_key, genre=genre, sentences=sentences,
                   speakers=speakers, gold_clusters=clusters, gold_mentions=mentions)
    doc.validate()
    return doc


def make_corpus(seed: int, prefix: str, count: int, num_tokens: int,
                sentence_target: int = 20) -> list[Document]:
    return [make_document(seed, f"{prefix}/{prefix}_{i:04d}", num_tokens, sentence_target)
            for i in range(count)]


def empty_document(doc_key: str) -> Document:
    return Document(doc_key=doc_key, genre="nw", sentences=[], speakers=[])


# -- planted response errors ----------------------------------------------------


def plant_errors(key: Document, rng: np.random.Generator) -> tuple[Document, dict]:
    """A response equal to key except for planted link errors.

    Each planted error touches its own gold cluster(s), so the per-kind
    counts the error analyzer must report are known by construction:
      * drop: the last member m of a cluster of >= 3 leaves the response
        entirely -> one missing_link on m;
      * move: the last member m of a cluster of >= 3 joins another cluster
        whose members all precede m -> one missing_link and one wrong_link
        on m;
      * spurious: a non-mention token after every member of a cluster is
        appended to it -> one spurious_link on that token.
    """
    clusters = [list(c) for c in key.gold_clusters]
    mention_spans = {m.span for m in key.gold_mentions}
    order = list(rng.permutation(len(clusters)))
    used: set[int] = set()
    counts = {"missing_link": 0, "wrong_link": 0, "spurious_link": 0}
    removed: set = set()
    added: list[tuple[int, int]] = []

    def take(pred):
        for ci in order:
            if ci not in used and pred(ci):
                used.add(ci)
                return ci
        return None

    covered = {t for s, e in mention_spans for t in range(s, e + 1)}
    for _ in range(max(1, len(clusters) // 6)):
        a = take(lambda ci: len(clusters[ci]) >= 3)
        if a is not None:
            m = clusters[a].pop()
            removed.add(m)
            counts["missing_link"] += 1
        a = take(lambda ci: len(clusters[ci]) >= 3)
        if a is not None:
            m = clusters[a][-1]
            b = take(lambda ci: clusters[ci][-1] < m)
            if b is None:
                used.discard(a)
            else:
                clusters[a].pop()
                clusters[b].append(m)
                counts["missing_link"] += 1
                counts["wrong_link"] += 1
        c = take(lambda ci: any(t not in covered for t in
                                range(clusters[ci][-1][1] + 1, key.num_tokens)))
        if c is not None:
            last = clusters[c][-1][1]
            t = next(t for t in range(last + 1, key.num_tokens) if t not in covered)
            clusters[c].append((t, t))
            covered.add(t)
            added.append((t, t))
            counts["spurious_link"] += 1

    clusters = sorted((sorted(c) for c in clusters), key=lambda c: c[0])
    cluster_of = {span: ci for ci, c in enumerate(clusters) for span in c}
    spans = (mention_spans - removed) | set(added)
    mentions = [Mention(s, e, cluster_id=cluster_of.get((s, e))) for s, e in sorted(spans)]
    response = Document(doc_key=key.doc_key, genre=key.genre,
                        sentences=[list(s) for s in key.sentences],
                        speakers=[list(s) for s in key.speakers],
                        gold_clusters=clusters, gold_mentions=mentions)
    response.validate()
    return response, counts
