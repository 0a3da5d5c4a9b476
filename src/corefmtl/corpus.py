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
from numbers import Integral
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


def _check_labels(entity_type: str, info_status: str, where: str) -> tuple[str, str]:
    """(entity_type, info_status), or CorpusError naming the label that is
    not one of the known values or unknown."""
    if entity_type != UNKNOWN and entity_type not in ENTITY_TYPES:
        raise CorpusError(f"{where}: unknown entity type {entity_type!r}")
    if info_status != UNKNOWN and info_status not in INFO_STATUSES:
        raise CorpusError(f"{where}: unknown information status {info_status!r}")
    return entity_type, info_status


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
            _check_labels(m.entity_type, m.info_status, key)
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


def cluster_index(clusters) -> dict[tuple[int, int], int]:
    """Cluster id of each clustered span. A span listed in two clusters
    keeps its first cluster's id; validate() is what rejects such
    documents."""
    index: dict[tuple[int, int], int] = {}
    for ci, cluster in enumerate(clusters):
        for span in cluster:
            index.setdefault(tuple(span), ci)
    return index


def build_mentions(clusters, labels=None) -> list[Mention]:
    """Mentions sorted by span: every clustered span and every span in
    labels, a mapping span -> (entity type, information status); spans
    without labels get unknown ones."""
    index = cluster_index(clusters)
    labels = labels or {}
    return [Mention(*span, *labels.get(span, (UNKNOWN, UNKNOWN)),
                    cluster_id=index.get(span))
            for span in sorted(index.keys() | labels.keys())]


# -- CoNLL parsing ----------------------------------------------------------

_BEGIN_RE = re.compile(r"#begin document \((?P<key>[^()]*)\)(?:; part (?P<part>\d+))?\s*$")
# one item of the coreference column: "(3", "3)" or "(3)"
_COREF_ITEM_RE = re.compile(r"(\()?(\d+)(\))?")


def _read_source(source) -> tuple[str, str]:
    """Return (text, name) from raw text, a path, or a file object. A path
    whose file cannot be read or is not UTF-8 raises CorpusError naming it."""
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    try:
        if isinstance(source, Path):
            return source.read_text(encoding="utf-8"), str(source)
        if isinstance(source, str):
            if "\n" in source or source.lstrip().startswith("#begin"):
                return source, "<string>"
            return Path(source).read_text(encoding="utf-8"), source
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read {source}: {exc}") from None
    raise TypeError(f"cannot read from {type(source).__name__}")


def parse_conll(source) -> list[Document]:
    """Parse CoNLL-2012 coreference files into documents.

    source may be a path, raw text, or an open file. Each (key, part)
    section becomes one Document keyed "<key>_<part>" (just "<key>" when
    the part number is absent). Genre is the first /-separated segment of
    the key, or "" when the key has no "/".
    """
    text, name = _read_source(source)
    docs: list[Document] = []
    key = None  # the open document's key; None between documents

    def close_sentence(lineno):
        if not tokens:
            return
        pending = sorted(cid for cid, stack in open_spans.items() if stack)
        if pending:
            raise CorpusError(f"{name}:{lineno}: cluster(s) {pending} left open "
                              f"at sentence end in document ({key})")
        sentences.append(tokens[:])
        speakers.append(token_speakers[:])
        tokens.clear()
        token_speakers.clear()

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#begin document"):
            if key is not None:
                raise CorpusError(f"{name}:{lineno}: #begin inside document ({key})")
            m = _BEGIN_RE.match(stripped)
            if not m:
                raise CorpusError(f"{name}:{lineno}: malformed #begin line: "
                                  f"{stripped!r}")
            key = m["key"]
            part = None if m["part"] is None else int(m["part"])
            sentences, speakers, tokens, token_speakers = [], [], [], []
            # cluster id -> starts of its open spans; -> its closed spans
            open_spans: dict[int, list[int]] = {}
            spans_by_id: dict[int, list[tuple[int, int]]] = {}
            num_tokens = 0
        elif stripped == "#end document":
            if key is None:
                raise CorpusError(f"{name}:{lineno}: #end without #begin")
            close_sentence(lineno)
            if not sentences:
                raise CorpusError(f"{name}:{lineno}: document ({key}) has no tokens")
            clusters = sort_clusters(spans_by_id.values())
            docs.append(Document(
                doc_key=key if part is None else f"{key}_{part}",
                genre=key.split("/")[0] if "/" in key else "",
                sentences=sentences, speakers=speakers,
                gold_clusters=clusters, gold_mentions=build_mentions(clusters),
                conll_key=key, part=part))
            key = None
        elif key is None:
            if stripped:
                raise CorpusError(f"{name}:{lineno}: content outside any document: "
                                  f"{stripped!r}")
        elif not stripped:
            close_sentence(lineno)
        elif not stripped.startswith("#"):
            cols = line.split()
            if len(cols) < 5:
                raise CorpusError(f"{name}:{lineno}: expected at least 5 columns, "
                                  f"got {len(cols)} in document ({key})")
            tokens.append(cols[3])
            token_speakers.append(cols[9] if len(cols) >= 11 else "-")
            if cols[-1] != "-":
                for item in cols[-1].split("|"):
                    m = _COREF_ITEM_RE.fullmatch(item)
                    if not m or not (m[1] or m[3]):
                        raise CorpusError(
                            f"{name}:{lineno}: bad coreference item {item!r} "
                            f"in document ({key}), sentence {len(sentences)}, "
                            f"token {len(tokens) - 1}")
                    cid = int(m[2])
                    if m[1] and m[3]:
                        spans_by_id.setdefault(cid, []).append((num_tokens, num_tokens))
                    elif m[1]:
                        open_spans.setdefault(cid, []).append(num_tokens)
                    elif open_spans.get(cid):
                        spans_by_id.setdefault(cid, []).append(
                            (open_spans[cid].pop(), num_tokens))
                    else:
                        raise CorpusError(
                            f"{name}:{lineno}: close of cluster {cid} without an "
                            f"open in document ({key}), sentence {len(sentences)}, "
                            f"token {len(tokens) - 1}")
            num_tokens += 1

    if key is not None:
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
        labels = _check_labels(UNKNOWN if etype == "_" else etype,
                               UNKNOWN if istatus == "_" else istatus,
                               f"{name}:{lineno}")
        rows.append(SidecarRow(doc_key, s, e, *labels,
                               None if label == "_" else label))
    return rows


def write_sidecar(docs: list[Document]) -> str:
    lines = []
    for doc in docs:
        # a valid document's cluster_id fields agree with its clusters
        doc.validate()
        for m in sorted(doc.gold_mentions, key=lambda m: m.span):
            lines.append("\t".join([
                doc.doc_key, str(m.start), str(m.end),
                "_" if m.entity_type == UNKNOWN else m.entity_type,
                "_" if m.info_status == UNKNOWN else m.info_status,
                "_" if m.cluster_id is None else str(m.cluster_id),
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
    labels = {m.span: (m.entity_type, m.info_status) for m in doc.gold_mentions}
    span_cluster = cluster_index(doc.gold_clusters)
    label_cluster: dict[str, int | None] = {}
    # a label attached to several new spans would be a cluster the base
    # annotation does not have; refused below rather than inventing links
    new_spans: dict[str, set[tuple[int, int]]] = {}
    starts = doc.sentence_starts()
    for r in rows:
        if r.doc_key != doc.doc_key:
            continue
        span = (r.start, r.end)
        doc.span_sentence(r.start, r.end, starts)
        ci = span_cluster.get(span)
        if r.cluster_label is not None:
            prev = label_cluster.setdefault(r.cluster_label, ci)
            if prev != ci:
                raise CorpusError(
                    f"{doc.doc_key}: sidecar cluster id {r.cluster_label!r} maps to "
                    f"both cluster {prev} and cluster {ci}")
            if ci is None:
                new_spans.setdefault(r.cluster_label, set()).add(span)
        etype, istatus = labels.get(span, (UNKNOWN, UNKNOWN))
        labels[span] = (
            _merge_field(etype, r.entity_type, "entity type", span, doc.doc_key),
            _merge_field(istatus, r.info_status, "information status", span,
                         doc.doc_key))
    for label, spans in new_spans.items():
        if len(spans) > 1:
            raise CorpusError(
                f"{doc.doc_key}: sidecar cluster id {label!r} groups spans "
                f"{sorted(spans)} that are not clustered in the base annotation")
    return _annotated(doc, doc.gold_clusters, labels)


def _annotated(doc: Document, clusters, labels) -> Document:
    """A copy of doc whose clusters are clusters and whose mentions are
    build_mentions(clusters, labels)."""
    return replace(doc, sentences=[list(s) for s in doc.sentences],
                   speakers=[list(s) for s in doc.speakers],
                   gold_clusters=[list(c) for c in clusters],
                   gold_mentions=build_mentions(clusters, labels))


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


def _check_span(bounds, where: str) -> tuple[int, int]:
    """bounds as a (start, end) tuple of ints; a float, string or bool
    bound raises CorpusError."""
    span = tuple(bounds)
    if len(span) != 2 or not all(isinstance(b, Integral) and not isinstance(b, bool)
                                 for b in span):
        raise CorpusError(f"{where}: span {list(span)!r} does not have two integer bounds")
    return (int(span[0]), int(span[1]))


def _check_rows(d: dict, name: str, where: str) -> list[list[str]]:
    """d[name] as a list of lists of strings, or CorpusError."""
    rows = d[name]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(isinstance(s, str) for s in row)
            for row in rows)):
        raise CorpusError(f"{where}: {name} must be a list of lists of strings")
    return [list(row) for row in rows]


def document_from_dict(d: dict) -> Document:
    key = d["doc_key"]
    if not isinstance(key, str):
        raise CorpusError(f"doc_key must be a string, got {key!r}")
    genre, conll_key, part = d.get("genre", ""), d.get("conll_key"), d.get("part")
    if not isinstance(genre, str):
        raise CorpusError(f"{key}: genre must be a string, got {genre!r}")
    if conll_key is not None and not isinstance(conll_key, str):
        raise CorpusError(f"{key}: conll_key must be a string, got {conll_key!r}")
    if part is not None and (not isinstance(part, int) or isinstance(part, bool)):
        raise CorpusError(f"{key}: part must be an integer, got {part!r}")
    sentences = _check_rows(d, "sentences", key)
    speakers = _check_rows(d, "speakers", key)
    clusters = sort_clusters(d.get("clusters", []))
    for cluster in clusters:
        for span in cluster:
            _check_span(span, key)
    labels = {}
    for s, e, etype, istatus in d.get("mentions", []):
        span = _check_span((s, e), key)
        if span in labels:
            raise CorpusError(f"{key}: duplicate mention {span}")
        labels[span] = _check_labels(etype, istatus, key)
    return Document(
        doc_key=key,
        genre=genre,
        sentences=sentences,
        speakers=speakers,
        gold_clusters=clusters,
        gold_mentions=build_mentions(clusters, labels),
        conll_key=conll_key,
        part=part,
    )


def write_jsonl(docs: list[Document]) -> str:
    for doc in docs:
        doc.validate()
    return "".join(json.dumps(document_to_dict(d), ensure_ascii=False) + "\n"
                   for d in docs)


def read_jsonl(source) -> list[Document]:
    """Read one document per line. A line that does not hold a valid
    document raises CorpusError naming its file and line."""
    text, name = _read_source(source)
    docs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            # a \ud800 escape decodes to a lone surrogate, which no UTF-8
            # writer can write back
            json.dumps(d, ensure_ascii=False).encode("utf-8")
            if not isinstance(d, dict):
                raise CorpusError(f"expected a JSON object, got {type(d).__name__}")
            doc = document_from_dict(d)
            doc.validate()
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deeply to decode
            raise CorpusError(f"{name}:{lineno}: bad JSON: {exc}") from None
        except KeyError as exc:
            raise CorpusError(f"{name}:{lineno}: missing field {exc}") from None
        except UnicodeEncodeError:
            raise CorpusError(f"{name}:{lineno}: bad JSON: a \\u escape gives a "
                              "lone surrogate, which is not text") from None
        except (TypeError, ValueError) as exc:
            # a malformed field, or a document that validate() rejects
            raise CorpusError(f"{name}:{lineno}: {exc}") from None
        docs.append(doc)
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
    labels = {span: (pred.mention_types.get(span, UNKNOWN),
                     pred.mention_statuses.get(span, UNKNOWN))
              for span in pred.mention_spans()}
    return _annotated(doc, pred.clusters, labels)


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
