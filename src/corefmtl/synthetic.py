"""Small synthetic corpora with full mention annotation.

Documents are template sentences over closed word pools. Coreference
chains repeat an entity by proper name or by its definite nominal;
singleton mentions draw from a disjoint vocabulary so their shape is
learnable; distractor noun phrases share the surface shape of mentions
without being mentions. Every mention carries an entity type and an
information status. Generation is deterministic in the seed.
"""

import numpy as np

from .autodiff import named_rng
from .corpus import Document, build_mentions

# (proper names, common nouns) per entity type; names may be empty
TYPE_LEXICON = {
    "person": (["Alice", "Bob", "Carol", "David", "Emma", "Frank"],
               ["teacher", "doctor", "farmer", "singer"]),
    "place": (["Athens", "Boston", "Cairo", "Denver"],
              ["city", "village", "harbor", "valley"]),
    "organization": (["Acme", "Globex", "Initech", "Vandelay"],
                     ["company", "council", "committee"]),
    "animal": (["Rex", "Bella", "Milo", "Luna"],
               ["dog", "cat", "horse", "sparrow"]),
    "object": ([], ["table", "hammer", "bottle", "wagon", "lantern"]),
    "event": ([], ["meeting", "storm", "wedding", "festival"]),
    "abstract": ([], ["idea", "plan", "theory", "promise"]),
    "plant": ([], ["oak", "fern", "rose", "cactus"]),
    "substance": ([], ["water", "iron", "sand", "honey"]),
    "time": ([], ["morning", "evening", "winter", "spring"]),
}

# singleton-only vocabulary: these are always mentions, never coreferent
SINGLETON_LEXICON = [
    ("ledger", "object"), ("basket", "object"), ("ribbon", "object"),
    ("anthem", "abstract"), ("rumor", "abstract"), ("sermon", "event"),
    ("parade", "event"), ("willow", "plant"), ("gravel", "substance"),
    ("sunset", "time"), ("shepherd", "person"), ("falcon", "animal"),
    ("chapel", "place"), ("guild", "organization"),
]

# distractor noun phrases: mention-shaped but never mentions
DISTRACTOR_NOUNS = ["hallway", "doorway", "staircase", "window", "fence",
                    "shadow", "corner", "bench"]
DISTRACTOR_NAMES = ["Ridgeway", "Thornfield", "Ashgrove"]

VERBS = ["saw", "met", "visited", "praised", "watched", "described",
         "mentioned", "ignored"]
ADVERBS = ["quietly", "often", "nearby", "yesterday", "twice"]

CHAIN_TYPES = ["person", "place", "organization", "animal"]
SPEAKER_POOL = ["ann", "ben", "cleo"]


def _status_for_chain_mention(order: int, gap: int) -> str:
    if order == 0:
        return "new"
    return "given:active" if gap <= 1 else "given:inactive"


def _singleton_status(rng: np.random.Generator) -> str:
    roll = rng.random()
    if roll < 0.7:
        return "new"
    if roll < 0.8:
        return "accessible:inferrable"
    if roll < 0.9:
        return "accessible:commonground"
    return "accessible:aggregate"


class _Slot:
    """One scheduled mention occurrence."""

    def __init__(self, tokens, entity_type, status, chain_id):
        self.tokens = tokens
        self.entity_type = entity_type
        self.status = status
        self.chain_id = chain_id  # None for singletons


def _plan_document(rng: np.random.Generator, singleton_fraction: float):
    """Schedule chain and singleton mentions, preserving chain order."""
    n_chains = int(rng.integers(2, 4))
    types = list(rng.choice(CHAIN_TYPES, size=n_chains, replace=False))
    used_names, used_nouns = set(), set()
    chains = []
    for ci, etype in enumerate(types):
        names, nouns = TYPE_LEXICON[etype]
        name_pool = [n for n in names if n not in used_names]
        noun_pool = [n for n in nouns if n not in used_nouns]
        name = name_pool[int(rng.integers(len(name_pool)))] if name_pool else None
        noun = noun_pool[int(rng.integers(len(noun_pool)))]
        used_names.add(name)
        used_nouns.add(noun)
        length = int(rng.integers(2, 5))
        mentions = []
        for order in range(length):
            if name is not None and (order == 0 or rng.random() < 0.5):
                tokens = [name]
            else:
                tokens = ["the", noun]
            mentions.append((tokens, etype, order))
        chains.append((ci, mentions))

    n_chain_mentions = sum(len(m) for _, m in chains)
    n_singletons = int(round(n_chain_mentions * singleton_fraction
                             / (1.0 - singleton_fraction)))
    single_idx = rng.choice(len(SINGLETON_LEXICON),
                            size=min(n_singletons, len(SINGLETON_LEXICON)),
                            replace=False)
    singles = []
    for si in single_idx:
        noun, etype = SINGLETON_LEXICON[int(si)]
        det = "the" if rng.random() < 0.6 else "a"
        singles.append(_Slot([det, noun], etype, _singleton_status(rng), None))

    queues = [[_Slot(tokens, etype, None, ci) for tokens, etype, _ in mentions]
              for ci, mentions in chains]
    queues.append(singles)
    schedule = []
    while any(queues):
        live = [q for q in queues if q]
        q = live[int(rng.integers(len(live)))]
        schedule.append(q.pop(0))
    return schedule


def _distractor(rng: np.random.Generator) -> list[str]:
    if rng.random() < 0.2:
        return [DISTRACTOR_NAMES[int(rng.integers(len(DISTRACTOR_NAMES)))]]
    det = "the" if rng.random() < 0.7 else "a"
    return [det, DISTRACTOR_NOUNS[int(rng.integers(len(DISTRACTOR_NOUNS)))]]


def generate_document(doc_index: int, seed: int,
                      singleton_fraction: float = 0.4,
                      genre_pool: tuple = ("nw", "bc")) -> Document:
    rng = named_rng(seed, "synthetic", doc_index)
    genre = genre_pool[doc_index % len(genre_pool)]
    schedule = _plan_document(rng, singleton_fraction)

    sentences: list[list[str]] = []
    speakers: list[list[str]] = []
    spans_of_slot: list[tuple[int, int, _Slot]] = []
    chain_last_sentence: dict[int, int] = {}
    chain_order: dict[int, int] = {}
    offset = 0
    pos = 0
    while pos < len(schedule):
        take = min(len(schedule) - pos, 1 + int(rng.random() < 0.5))
        slots = schedule[pos:pos + take]
        pos += take
        tokens: list[str] = []
        marks = []

        def emit(phrase):
            start = offset + len(tokens)
            tokens.extend(phrase)
            return (start, offset + len(tokens) - 1)

        verb = VERBS[int(rng.integers(len(VERBS)))]
        if len(slots) == 2:
            marks.append((emit(slots[0].tokens), slots[0]))
            tokens.append(verb)
            marks.append((emit(slots[1].tokens), slots[1]))
        else:
            if rng.random() < 0.5:
                marks.append((emit(slots[0].tokens), slots[0]))
                tokens.append(verb)
                emit(_distractor(rng))
            else:
                emit(_distractor(rng))
                tokens.append(verb)
                marks.append((emit(slots[0].tokens), slots[0]))
        if rng.random() < 0.3:
            tokens.append(ADVERBS[int(rng.integers(len(ADVERBS)))])
        tokens.append(".")

        sent_index = len(sentences)
        for (s, e), slot in marks:
            if slot.chain_id is not None:
                order = chain_order.get(slot.chain_id, 0)
                gap = sent_index - chain_last_sentence.get(slot.chain_id, sent_index)
                slot.status = _status_for_chain_mention(order, gap)
                chain_order[slot.chain_id] = order + 1
                chain_last_sentence[slot.chain_id] = sent_index
            spans_of_slot.append((s, e, slot))
        speaker = SPEAKER_POOL[int(rng.integers(len(SPEAKER_POOL)))]
        speakers.append([speaker] * len(tokens))
        sentences.append(tokens)
        offset += len(tokens)

    chain_spans: dict[int, list[tuple[int, int]]] = {}
    for s, e, slot in spans_of_slot:
        if slot.chain_id is not None:
            chain_spans.setdefault(slot.chain_id, []).append((s, e))
    clusters = sorted((sorted(spans) for spans in chain_spans.values()),
                      key=lambda c: c[0])
    labels = {(s, e): (slot.entity_type, slot.status) for s, e, slot in spans_of_slot}

    doc = Document(
        doc_key=f"{genre}/synth_{doc_index:04d}",
        genre=genre,
        sentences=sentences,
        speakers=speakers,
        gold_clusters=clusters,
        gold_mentions=build_mentions(clusters, labels),
    )
    doc.validate()
    return doc


def generate_corpus(num_docs: int, seed: int, singleton_fraction: float = 0.4,
                    genre_pool: tuple = ("nw", "bc"),
                    start_index: int = 0) -> list[Document]:
    return [generate_document(start_index + i, seed, singleton_fraction, genre_pool)
            for i in range(num_docs)]
