"""Documents, mentions, predictions, and the file formats that carry them.

Three interchange formats:
  * CoNLL-2012 shared-task files (coreference in the last column),
  * a tab-separated sidecar adding entity types, information status, and
    singleton mentions that the CoNLL coreference column cannot express,
  * JSON lines holding one document per line.

Token positions are document-level indices over the flattened sentence
sequence; spans are inclusive (start, end) pairs and never cross a
sentence boundary.
"""

import io
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path

ENTITY_TYPES = (
    "abstract",
    "animal",
    "event",
    "object",
    "organization",
    "person",
    "place",
    "plant",
    "substance",
    "time",
)

INFO_STATUSES = (
    "new",
    "given:active",
    "given:inactive",
    "accessible:inferrable",
    "accessible:commonground",
    "accessible:aggregate",
)

UNKNOWN = "unknown"


class CorpusError(ValueError):
    """Malformed document data or annotation files."""


def _check_entity_type(value: str, where: str) -> str:
    if value != UNKNOWN and value not in ENTITY_TYPES:
        raise CorpusError(f"{where}: unknown entity type {value!r}")
    return value


def _check_info_status(value: str, where: str) -> str:
    if value != UNKNOWN and value not in INFO_STATUSES:
        raise CorpusError(f"{where}: unknown information status {value!r}")
    return value


@dataclass(frozen=True)
class Mention:
    """One annotated span. cluster_id indexes the document's cluster list;
    None marks a singleton (not part of any coreference cluster)."""

    start: int
    end: int
    entity_type: str = UNKNOWN
    info_status: str = UNKNOWN
    cluster_id: int | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass
class Document:
    doc_key: str
    genre: str
    sentences: list[list[str]]
    speakers: list[list[str]]
    gold_clusters: list[list[tuple[int, int]]] = field(default_factory=list)
    gold_mentions: list[Mention] = field(default_factory=list)
    # original CoNLL identity, kept so writing is lossless
    conll_key: str | None = None
    part: int | None = None

    # -- token geometry ----------------------------------------------------

    def flat_tokens(self) -> list[str]:
        return [tok for sent in self.sentences for tok in sent]

    def flat_speakers(self) -> list[str]:
        return [spk for sent in self.speakers for spk in sent]

    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def sentence_starts(self) -> list[int]:
        starts, pos = [], 0
        for sent in self.sentences:
            starts.append(pos)
            pos += len(sent)
        return starts

    def sentence_index(self, token: int, starts: list[int] | None = None) -> int:
        """Index of the sentence holding token. Callers that look up many
        tokens pass starts, from sentence_starts(), to compute it once."""
        if starts is None:
            starts = self.sentence_starts()
        total = starts[-1] + len(self.sentences[-1]) if starts else 0
        if not 0 <= token < total:
            raise CorpusError(f"{self.doc_key}: token index {token} out of range")
        # empty sentences share their start with the next one; the last
        # sentence starting at or before token is the non-empty one holding it
        return bisect_right(starts, token) - 1

    def span_sentence(self, start: int, end: int,
                      starts: list[int] | None = None) -> int:
        """Sentence index containing the span; error if it crosses sentences."""
        if start > end:
            raise CorpusError(f"{self.doc_key}: span ({start}, {end}) has start > end")
        if starts is None:
            starts = self.sentence_starts()
        si, se = self.sentence_index(start, starts), self.sentence_index(end, starts)
        if si != se:
            raise CorpusError(
                f"{self.doc_key}: span ({start}, {end}) crosses sentences {si} and {se}"
            )
        return si

    def span_text(self, start: int, end: int) -> str:
        return " ".join(self.flat_tokens()[start:end + 1])

    def mention_map(self) -> dict[tuple[int, int], Mention]:
        return {m.span: m for m in self.gold_mentions}

    # -- invariants ----------------------------------------------------------

    def validate(self):
        """Raise CorpusError unless the document is internally consistent.

        Parsing does not call this: the coreference column can legally encode
        oddities (one span in two clusters) that a well-formed document must
        not contain. Writers and encoders call it.
        """
        key = self.doc_key
        if len(self.sentences) != len(self.speakers):
            raise CorpusError(f"{key}: {len(self.sentences)} sentences but "
                              f"{len(self.speakers)} speaker rows")
        for i, (sent, spk) in enumerate(zip(self.sentences, self.speakers)):
            if len(sent) != len(spk):
                raise CorpusError(f"{key}: sentence {i} has {len(sent)} tokens but "
                                  f"{len(spk)} speakers")
        starts = self.sentence_starts()
        seen_spans: dict[tuple[int, int], int] = {}
        for ci, cluster in enumerate(self.gold_clusters):
            if not cluster:
                raise CorpusError(f"{key}: cluster {ci} is empty")
            if len(set(cluster)) != len(cluster):
                raise CorpusError(f"{key}: cluster {ci} repeats a span")
            for span in cluster:
                self.span_sentence(*span, starts)
                if span in seen_spans:
                    raise CorpusError(f"{key}: span {span} appears in clusters "
                                      f"{seen_spans[span]} and {ci}")
                seen_spans[span] = ci
        mention_spans = set()
        for m in self.gold_mentions:
            self.span_sentence(m.start, m.end, starts)
            if m.span in mention_spans:
                raise CorpusError(f"{key}: duplicate gold mention for span {m.span}")
            mention_spans.add(m.span)
            _check_entity_type(m.entity_type, key)
            _check_info_status(m.info_status, key)
            expected = seen_spans.get(m.span)
            if m.cluster_id != expected:
                raise CorpusError(f"{key}: mention {m.span} has cluster_id "
                                  f"{m.cluster_id}, clusters say {expected}")
        for span, ci in seen_spans.items():
            if span not in mention_spans:
                raise CorpusError(f"{key}: cluster {ci} span {span} has no gold mention")


def sort_clusters(clusters) -> list[list[tuple[int, int]]]:
    """Spans sorted within each cluster, clusters ordered by first span."""
    out = [sorted(set(map(tuple, c))) for c in clusters]
    out.sort(key=lambda c: c[0])
    return out


def _mentions_from_clusters(clusters) -> list[Mention]:
    # a span listed in two clusters keeps its first cluster's id here;
    # validate() is what rejects such documents
    mentions: dict[tuple[int, int], Mention] = {}
    for ci, cluster in enumerate(clusters):
        for s, e in cluster:
            mentions.setdefault((s, e), Mention(s, e, cluster_id=ci))
    return sorted(mentions.values(), key=lambda m: m.span)


# -- CoNLL parsing ----------------------------------------------------------

_BEGIN_RE = re.compile(r"#begin document \((?P<key>[^()]*)\)(?:; part (?P<part>\d+))?\s*$")


def _read_source(source) -> tuple[str, str]:
    """Return (text, name) from raw text, a path, or a file object."""
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    try:
        if isinstance(source, Path):
            return source.read_text(encoding="utf-8"), str(source)
        if isinstance(source, str):
            if "\n" in source or source.lstrip().startswith("#begin"):
                return source, "<string>"
            return Path(source).read_text(encoding="utf-8"), source
    except OSError as exc:
        raise CorpusError(f"cannot read {source}: {exc}") from None
    raise TypeError(f"cannot read from {type(source).__name__}")


def parse_conll(source, default_genre: str | None = None) -> list[Document]:
    """Parse CoNLL-2012 coreference files into documents.

    source may be a path, raw text, or an open file. Each (key, part)
    section becomes one Document keyed "<key>_<part>" (just "<key>" when
    the part number is absent). Genre defaults to the first /-separated
    segment of the key.
    """
    text, name = _read_source(source)
    docs: list[Document] = []
    lines = text.splitlines()

    in_doc = False
    key = part = None
    sentences: list[list[str]] = []
    speakers: list[list[str]] = []
    cur_tokens: list[str] = []
    cur_speakers: list[str] = []
    open_spans: dict[int, list[int]] = {}
    spans_by_id: dict[int, list[tuple[int, int]]] = {}
    offset = 0

    def where(lineno):
        return f"{name}:{lineno}"

    def flush_sentence(lineno):
        nonlocal offset
        if not cur_tokens:
            return
        pending = [cid for cid, stack in open_spans.items() if stack]
        if pending:
            raise CorpusError(f"{where(lineno)}: cluster(s) {sorted(pending)} left open "
                              f"at sentence end in document ({key})")
        sentences.append(list(cur_tokens))
        speakers.append(list(cur_speakers))
        offset += len(cur_tokens)
        cur_tokens.clear()
        cur_speakers.clear()

    def finish_document(lineno):
        nonlocal in_doc
        flush_sentence(lineno)
        if not sentences:
            raise CorpusError(f"{where(lineno)}: document ({key}) has no tokens")
        doc_key = key if part is None else f"{key}_{part}"
        if default_genre is not None:
            genre = default_genre
        else:
            genre = key.split("/")[0] if "/" in key else ""
        clusters = sort_clusters([spans for spans in spans_by_id.values() if spans])
        docs.append(Document(
            doc_key=doc_key,
            genre=genre,
            sentences=sentences[:],
            speakers=speakers[:],
            gold_clusters=clusters,
            gold_mentions=_mentions_from_clusters(clusters),
            conll_key=key,
            part=part,
        ))
        in_doc = False

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if stripped.startswith("#begin document"):
            if in_doc:
                raise CorpusError(f"{where(lineno)}: #begin inside document ({key})")
            m = _BEGIN_RE.match(stripped)
            if not m:
                raise CorpusError(f"{where(lineno)}: malformed #begin line: {stripped!r}")
            key = m.group("key")
            part = int(m.group("part")) if m.group("part") is not None else None
            in_doc = True
            sentences, speakers = [], []
            cur_tokens, cur_speakers = [], []
            open_spans, spans_by_id = {}, {}
            offset = 0
            continue
        if stripped == "#end document":
            if not in_doc:
                raise CorpusError(f"{where(lineno)}: #end without #begin")
            finish_document(lineno)
            continue
        if not in_doc:
            if stripped:
                raise CorpusError(f"{where(lineno)}: content outside any document: "
                                  f"{stripped!r}")
            continue
        if not stripped:
            flush_sentence(lineno)
            continue
        if stripped.startswith("#"):
            continue

        cols = line.split()
        if len(cols) < 5:
            raise CorpusError(f"{where(lineno)}: expected at least 5 columns, "
                              f"got {len(cols)} in document ({key})")
        token = cols[3]
        speaker = cols[9] if len(cols) >= 11 else "-"
        coref = cols[-1]
        tok_idx = offset + len(cur_tokens)
        cur_tokens.append(token)
        cur_speakers.append(speaker)

        if coref != "-":
            for item in coref.split("|"):
                m = re.fullmatch(r"(\()?(\d+)(\))?", item)
                if not m or (m.group(1) is None and m.group(3) is None):
                    raise CorpusError(
                        f"{where(lineno)}: bad coreference item {item!r} "
                        f"in document ({key}), sentence {len(sentences)}, "
                        f"token {len(cur_tokens) - 1}")
                opens, cid, closes = m.group(1), int(m.group(2)), m.group(3)
                if opens and closes:
                    spans_by_id.setdefault(cid, []).append((tok_idx, tok_idx))
                elif opens:
                    open_spans.setdefault(cid, []).append(tok_idx)
                else:
                    stack = open_spans.get(cid)
                    if not stack:
                        raise CorpusError(
                            f"{where(lineno)}: close of cluster {cid} without an "
                            f"open in document ({key}), sentence {len(sentences)}, "
                            f"token {len(cur_tokens) - 1}")
                    start = stack.pop()
                    spans_by_id.setdefault(cid, []).append((start, tok_idx))

    if in_doc:
        raise CorpusError(f"{name}: document ({key}) missing #end document")
    return docs


# -- CoNLL writing ----------------------------------------------------------

def _check_encodable(doc_key: str, cid: int, cluster: list[tuple[int, int]]):
    # within one cluster id the brackets parse LIFO, so two spans may nest,
    # touch, or stand apart, but never interleave
    spans = sorted(cluster)
    for i, (a, b) in enumerate(spans):
        for c, d in spans[i + 1:]:
            if c > b:
                break
            if a < c < b < d:
                raise CorpusError(
                    f"{doc_key}: cluster {cid} spans ({a}, {b}) and ({c}, {d}) "
                    f"overlap without nesting; the coreference column cannot "
                    f"encode them")


def _coref_cells(doc: Document, clusters: list[list[tuple[int, int]]]) -> list[str]:
    opens: dict[int, list[tuple[int, int]]] = {}
    closes: dict[int, list[int]] = {}
    units: dict[int, list[int]] = {}
    for cid, cluster in enumerate(clusters):
        _check_encodable(doc.doc_key, cid, cluster)
        for s, e in cluster:
            if s == e:
                units.setdefault(s, []).append(cid)
            else:
                opens.setdefault(s, []).append((e, cid))
                closes.setdefault(e, []).append(cid)
    cells = []
    for t in range(doc.num_tokens):
        items = []
        # closes go first: when one cluster's span ends where its next span
        # starts, the close must pop the earlier open before the new push
        for cid in sorted(closes.get(t, ())):
            items.append(f"{cid})")
        for cid in sorted(units.get(t, ())):
            items.append(f"({cid})")
        # wider spans open first so the column nests like the annotation
        for _, cid in sorted(opens.get(t, ()), key=lambda x: (-x[0], x[1])):
            items.append(f"({cid}")
        cells.append("|".join(items) if items else "-")
    return cells


def write_conll(docs: list[Document], include_singletons: bool = False) -> str:
    """Render documents back to CoNLL-2012 text.

    With include_singletons, gold mentions outside every cluster are written
    as fresh single-member clusters (useful for scorer interchange; parsing
    such a file yields them back as size-1 clusters).
    """
    out = io.StringIO()
    for doc in docs:
        doc.validate()
        clusters = [list(c) for c in doc.gold_clusters]
        if include_singletons:
            clustered = {span for c in clusters for span in c}
            for m in doc.gold_mentions:
                if m.span not in clustered:
                    clusters.append([m.span])
        key = doc.conll_key if doc.conll_key is not None else doc.doc_key
        if doc.part is None:
            out.write(f"#begin document ({key})\n")
        else:
            out.write(f"#begin document ({key}); part {doc.part:03d}\n")
        cells = _coref_cells(doc, clusters)
        part_col = str(doc.part or 0)
        t = 0
        for sent, spks in zip(doc.sentences, doc.speakers):
            for i, (token, spk) in enumerate(zip(sent, spks)):
                cols = [key, part_col, str(i), token,
                        "-", "-", "-", "-", "-", spk, "*", cells[t]]
                out.write("   ".join(cols) + "\n")
                t += 1
            out.write("\n")
        out.write("#end document\n")
    return out.getvalue()


# -- sidecar ------------------------------------------------------------------

@dataclass(frozen=True)
class SidecarRow:
    doc_key: str
    start: int
    end: int
    entity_type: str = UNKNOWN
    info_status: str = UNKNOWN
    cluster_label: str | None = None


def read_sidecar(source) -> list[SidecarRow]:
    """Read the tab-separated mention annotation format.

    Columns: doc_key, start, end, entity_type, info_status, cluster_id.
    "_" means absent. Lines starting with # are comments.
    """
    text, name = _read_source(source)
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            raise CorpusError(f"{name}:{lineno}: expected 6 tab-separated columns, "
                              f"got {len(cols)}")
        doc_key, start, end, etype, istatus, label = cols
        try:
            s, e = int(start), int(end)
        except ValueError:
            raise CorpusError(f"{name}:{lineno}: non-integer span bounds "
                              f"{start!r}, {end!r}") from None
        etype = UNKNOWN if etype == "_" else etype
        istatus = UNKNOWN if istatus == "_" else istatus
        _check_entity_type(etype, f"{name}:{lineno}")
        _check_info_status(istatus, f"{name}:{lineno}")
        rows.append(SidecarRow(doc_key, s, e, etype, istatus,
                               None if label == "_" else label))
    return rows


def write_sidecar(docs: list[Document]) -> str:
    lines = []
    for doc in docs:
        span_cluster = {span: ci for ci, c in enumerate(doc.gold_clusters) for span in c}
        for m in sorted(doc.gold_mentions, key=lambda m: m.span):
            ci = span_cluster.get(m.span)
            lines.append("\t".join([
                doc.doc_key, str(m.start), str(m.end),
                "_" if m.entity_type == UNKNOWN else m.entity_type,
                "_" if m.info_status == UNKNOWN else m.info_status,
                "_" if ci is None else str(ci),
            ]))
    return "\n".join(lines) + ("\n" if lines else "")


def _merge_field(old: str, new: str, kind: str, span, doc_key: str) -> str:
    if new == UNKNOWN:
        return old
    if old != UNKNOWN and old != new:
        raise CorpusError(f"{doc_key}: conflicting {kind} for span {span}: "
                          f"{old!r} vs {new!r}")
    return new


def merge_sidecar(doc: Document, rows: list[SidecarRow]) -> Document:
    """Overlay sidecar annotations onto a document; returns a new Document.

    Rows for other doc_keys are ignored. Spans already present get their
    unknown fields filled (conflicting known values raise). New spans are
    added as singleton gold mentions; the sidecar cannot create or extend
    coreference clusters. Merging the same rows twice is a no-op.
    """
    rows = [r for r in rows if r.doc_key == doc.doc_key]
    mentions = {m.span: m for m in doc.gold_mentions}
    span_cluster = {span: ci for ci, c in enumerate(doc.gold_clusters) for span in c}
    label_cluster: dict[str, int | None] = {}
    starts = doc.sentence_starts()

    for r in rows:
        span = (r.start, r.end)
        doc.span_sentence(r.start, r.end, starts)
        ci = span_cluster.get(span)
        if r.cluster_label is not None:
            prev = label_cluster.get(r.cluster_label, "unset")
            if prev == "unset":
                label_cluster[r.cluster_label] = ci
            elif prev != ci:
                raise CorpusError(
                    f"{doc.doc_key}: sidecar cluster id {r.cluster_label!r} maps to "
                    f"both cluster {prev} and cluster {ci}")
        if span in mentions:
            old = mentions[span]
            mentions[span] = replace(
                old,
                entity_type=_merge_field(old.entity_type, r.entity_type,
                                         "entity type", span, doc.doc_key),
                info_status=_merge_field(old.info_status, r.info_status,
                                         "information status", span, doc.doc_key),
            )
        else:
            mentions[span] = Mention(r.start, r.end, r.entity_type, r.info_status,
                                     cluster_id=None)

    # a label attached to several new spans would be a cluster the base
    # annotation does not have; refuse rather than invent links
    new_span_labels: dict[str, list] = {}
    for r in rows:
        span = (r.start, r.end)
        if span_cluster.get(span) is None and r.cluster_label is not None:
            new_span_labels.setdefault(r.cluster_label, []).append(span)
    for label, spans in new_span_labels.items():
        if len(set(spans)) > 1:
            raise CorpusError(
                f"{doc.doc_key}: sidecar cluster id {label!r} groups spans "
                f"{sorted(set(spans))} that are not clustered in the base annotation")

    merged = replace(doc, gold_mentions=sorted(mentions.values(), key=lambda m: m.span),
                     sentences=[list(s) for s in doc.sentences],
                     speakers=[list(s) for s in doc.speakers],
                     gold_clusters=[list(c) for c in doc.gold_clusters])
    return merged


def apply_sidecar(docs: list[Document], rows: list[SidecarRow]) -> list[Document]:
    """merge_sidecar over a corpus; rows naming unknown documents are errors."""
    by_doc: dict[str, list[SidecarRow]] = {}
    for r in rows:
        by_doc.setdefault(r.doc_key, []).append(r)
    orphans = sorted(set(by_doc) - {d.doc_key for d in docs})
    if orphans:
        raise CorpusError("sidecar references unknown document(s): " + ", ".join(orphans))
    return [merge_sidecar(d, by_doc.get(d.doc_key, [])) for d in docs]


# -- JSON lines ----------------------------------------------------------------

def document_to_dict(doc: Document) -> dict:
    d = {
        "doc_key": doc.doc_key,
        "genre": doc.genre,
        "sentences": [list(s) for s in doc.sentences],
        "speakers": [list(s) for s in doc.speakers],
        "clusters": [[list(span) for span in c] for c in doc.gold_clusters],
        "mentions": [[m.start, m.end, m.entity_type, m.info_status]
                     for m in doc.gold_mentions],
    }
    if doc.conll_key is not None:
        d["conll_key"] = doc.conll_key
    if doc.part is not None:
        d["part"] = doc.part
    return d


def document_from_dict(d: dict) -> Document:
    clusters = sort_clusters(d.get("clusters", []))
    span_cluster = {span: ci for ci, c in enumerate(clusters) for span in c}
    mentions = []
    seen = set()
    for entry in d.get("mentions", []):
        s, e, etype, istatus = entry
        span = (int(s), int(e))
        if span in seen:
            raise CorpusError(f"{d.get('doc_key')}: duplicate mention {span}")
        seen.add(span)
        mentions.append(Mention(span[0], span[1],
                                _check_entity_type(etype, str(d.get("doc_key"))),
                                _check_info_status(istatus, str(d.get("doc_key"))),
                                cluster_id=span_cluster.get(span)))
    for span, ci in span_cluster.items():
        if span not in seen:
            mentions.append(Mention(span[0], span[1], cluster_id=ci))
    mentions.sort(key=lambda m: m.span)
    return Document(
        doc_key=d["doc_key"],
        genre=d.get("genre", ""),
        sentences=[list(s) for s in d["sentences"]],
        speakers=[list(s) for s in d["speakers"]],
        gold_clusters=clusters,
        gold_mentions=mentions,
        conll_key=d.get("conll_key"),
        part=d.get("part"),
    )


def write_jsonl(docs: list[Document]) -> str:
    return "".join(json.dumps(document_to_dict(d), ensure_ascii=False) + "\n"
                   for d in docs)


def read_jsonl(source) -> list[Document]:
    text, name = _read_source(source)
    docs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{name}:{lineno}: bad JSON: {exc}") from None
        docs.append(document_from_dict(d))
    return docs


def load_documents(path) -> list[Document]:
    """Load .jsonl or CoNLL documents based on the file suffix."""
    p = Path(path)
    if p.suffix == ".jsonl":
        return read_jsonl(p)
    return parse_conll(p)


# -- predictions ------------------------------------------------------------------


@dataclass
class PredictionResult:
    """A system's clusters and singleton mentions for one document, with the
    entity type and information status predicted for each mention."""

    doc_key: str
    clusters: list[list[tuple[int, int]]]
    singletons: list[tuple[int, int]] = field(default_factory=list)
    mention_types: dict[tuple[int, int], str] = field(default_factory=dict)
    mention_statuses: dict[tuple[int, int], str] = field(default_factory=dict)

    def mention_spans(self) -> list[tuple[int, int]]:
        spans = [span for c in self.clusters for span in c]
        spans.extend(self.singletons)
        return sorted(set(spans))


def prediction_to_document(pred: PredictionResult, doc: Document) -> Document:
    """Wrap a prediction in the document it was made on, so it can be
    written with the corpus writers. Predicted clusters become the
    document's clusters; singletons become unclustered mentions."""
    span_cluster = {span: ci for ci, c in enumerate(pred.clusters) for span in c}
    mentions = []
    for span in pred.mention_spans():
        mentions.append(Mention(
            span[0], span[1],
            entity_type=pred.mention_types.get(span, UNKNOWN),
            info_status=pred.mention_statuses.get(span, UNKNOWN),
            cluster_id=span_cluster.get(span),
        ))
    return Document(
        doc_key=doc.doc_key,
        genre=doc.genre,
        sentences=[list(s) for s in doc.sentences],
        speakers=[list(s) for s in doc.speakers],
        gold_clusters=[list(c) for c in pred.clusters],
        gold_mentions=mentions,
        conll_key=doc.conll_key,
        part=doc.part,
    )


def prediction_from_document(doc: Document) -> PredictionResult:
    """Read a document's annotation (gold, or a predictions file) as a
    prediction: its clusters, and its unclustered mentions as singletons."""
    clustered = {span for c in doc.gold_clusters for span in c}
    return PredictionResult(
        doc_key=doc.doc_key,
        clusters=[list(c) for c in doc.gold_clusters],
        singletons=sorted(m.span for m in doc.gold_mentions
                          if m.span not in clustered),
        mention_types={m.span: m.entity_type for m in doc.gold_mentions},
        mention_statuses={m.span: m.info_status for m in doc.gold_mentions},
    )
