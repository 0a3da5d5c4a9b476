"""Document model, CoNLL parsing and writing, sidecar merge, JSON lines."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefmtl.corpus import (
    CorpusError,
    Document,
    Mention,
    UNKNOWN,
    apply_sidecar,
    document_from_dict,
    document_to_dict,
    load_documents,
    merge_sidecar,
    parse_conll,
    read_jsonl,
    read_sidecar,
    sort_clusters,
    write_conll,
    write_jsonl,
    write_sidecar,
)
from helpers import make_document, spans_to_clusters

BASIC = """\
#begin document (nw/wsj_0001); part 000
nw/wsj_0001   0   0   John     -   -   -   -   -   speaker1   *   (0)
nw/wsj_0001   0   1   met      -   -   -   -   -   speaker1   *   -
nw/wsj_0001   0   2   Mary     -   -   -   -   -   speaker1   *   (1)
nw/wsj_0001   0   3   .        -   -   -   -   -   speaker1   *   -

nw/wsj_0001   0   0   He       -   -   -   -   -   speaker2   *   (0)
nw/wsj_0001   0   1   smiled   -   -   -   -   -   speaker2   *   -
nw/wsj_0001   0   2   at       -   -   -   -   -   speaker2   *   -
nw/wsj_0001   0   3   her      -   -   -   -   -   speaker2   *   (1)
nw/wsj_0001   0   4   .        -   -   -   -   -   speaker2   *   -
#end document
"""


class TestParseConll:
    def test_basic_document(self):
        (doc,) = parse_conll(BASIC)
        assert doc.doc_key == "nw/wsj_0001_0"
        assert doc.conll_key == "nw/wsj_0001"
        assert doc.part == 0
        assert doc.genre == "nw"
        assert doc.sentences == [["John", "met", "Mary", "."],
                                 ["He", "smiled", "at", "her", "."]]
        assert doc.speakers[0] == ["speaker1"] * 4
        assert doc.speakers[1] == ["speaker2"] * 5
        assert sort_clusters(doc.gold_clusters) == [
            [(0, 0), (4, 4)], [(2, 2), (7, 7)]]
        assert [m.span for m in doc.gold_mentions] == [
            (0, 0), (2, 2), (4, 4), (7, 7)]
        assert all(m.entity_type == UNKNOWN for m in doc.gold_mentions)

    def test_no_part_number(self):
        text = ("#begin document (solo)\n"
                "solo 0 0 word (3)\n"
                "#end document\n")
        (doc,) = parse_conll(text)
        assert doc.doc_key == "solo"
        assert doc.part is None
        assert doc.genre == ""
        assert doc.gold_clusters == [[(0, 0)]]

    def test_five_column_rows_default_speaker(self):
        text = ("#begin document (k)\n"
                "k 0 0 hello -\n"
                "k 0 1 world (0)\n"
                "#end document\n")
        (doc,) = parse_conll(text)
        assert doc.flat_speakers() == ["-", "-"]
        assert doc.sentences == [["hello", "world"]]

    def test_nested_and_stacked_spans(self):
        rows = ["(0", "(1", "1)", "0)", "-", "(2", "(2", "2)", "2)"]
        text = "#begin document (k)\n" + "\n".join(
            f"k 0 {i} w{i} x x x x x spk * {c}" for i, c in enumerate(rows)
        ) + "\n#end document\n"
        (doc,) = parse_conll(text)
        # stacked opens of one id close innermost-first
        assert sort_clusters(doc.gold_clusters) == [
            [(0, 3)], [(1, 2)], [(5, 8), (6, 7)]]

    def test_multiple_items_one_token(self):
        text = ("#begin document (k)\n"
                "k 0 0 a (0|(1\n"
                "k 0 1 b 0)|1)\n"
                "#end document\n")
        (doc,) = parse_conll(text)
        assert doc.gold_clusters == [[(0, 1)], [(0, 1)]]
        # legal to parse, but not a consistent document
        with pytest.raises(CorpusError, match="appears in clusters"):
            doc.validate()

    def test_unit_span_in_two_clusters_parses_then_fails_validation(self):
        text = ("#begin document (k)\n"
                "k 0 0 a (0)|(1)\n"
                "k 0 1 b (0)\n"
                "#end document\n")
        (doc,) = parse_conll(text)
        assert doc.gold_clusters == [[(0, 0), (1, 1)], [(0, 0)]]
        assert len(doc.gold_mentions) == 2  # the shared span appears once
        with pytest.raises(CorpusError, match="appears in clusters"):
            doc.validate()
        for writer in (write_conll, write_sidecar, write_jsonl):
            with pytest.raises(CorpusError, match="appears in clusters"):
                writer([doc])

    def test_multiple_documents(self):
        text = BASIC + "#begin document (bc/show); part 001\nbc/show 1 0 hi (0)\n#end document\n"
        docs = parse_conll(text)
        assert [d.doc_key for d in docs] == ["nw/wsj_0001_0", "bc/show_1"]
        assert docs[1].genre == "bc"

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "sample.conll"
        p.write_text(BASIC, encoding="utf-8")
        assert parse_conll(p)[0].doc_key == "nw/wsj_0001_0"
        assert parse_conll(str(p))[0].doc_key == "nw/wsj_0001_0"

    def test_comment_lines_skipped(self):
        text = ("#begin document (k)\n"
                "# a stray comment\n"
                "k 0 0 w -\n"
                "#end document\n")
        (doc,) = parse_conll(text)
        assert doc.flat_tokens() == ["w"]


class TestParseErrors:
    def err(self, text, match):
        with pytest.raises(CorpusError, match=match):
            parse_conll(text)

    def test_open_span_at_sentence_end(self):
        self.err("#begin document (k)\nk 0 0 w (0\n\nk 0 0 v 0)\n#end document\n",
                 r"left open")

    def test_open_span_at_document_end(self):
        self.err("#begin document (k)\nk 0 0 w (0\n#end document\n", r"left open")

    def test_close_without_open(self):
        self.err("#begin document (k)\nk 0 0 w 0)\n#end document\n",
                 r"close of cluster 0 without an open")

    def test_missing_end(self):
        self.err("#begin document (k)\nk 0 0 w -\n", r"missing #end")

    def test_begin_inside_document(self):
        self.err("#begin document (k)\n#begin document (j)\n#end document\n",
                 r"#begin inside")

    def test_end_without_begin(self):
        self.err("#end document\n", r"#end without #begin")

    def test_content_outside_document(self):
        self.err("k 0 0 w -\n", r"outside any document")

    def test_too_few_columns(self):
        self.err("#begin document (k)\nk 0 w -\n#end document\n",
                 r"at least 5 columns")

    def test_malformed_begin(self):
        self.err("#begin document missing-parens\n#end document\n",
                 r"malformed #begin")

    def test_bad_coref_item(self):
        self.err("#begin document (k)\nk 0 0 w x7\n#end document\n",
                 r"bad coreference item")
        self.err("#begin document (k)\nk 0 0 w 5\n#end document\n",
                 r"bad coreference item")

    def test_empty_document(self):
        self.err("#begin document (k)\n#end document\n", r"has no tokens")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(CorpusError, match=r":2:"):
            parse_conll("#begin document (k)\nk 0 0 w 0)\n#end document\n")


def conll_round_trip(doc, include_singletons=False):
    text = write_conll([doc], include_singletons=include_singletons)
    (back,) = parse_conll(text)
    return text, back


class TestWriteConll:
    def test_round_trip_preserves_structure(self):
        (doc,) = parse_conll(BASIC)
        text, back = conll_round_trip(doc)
        assert back.sentences == doc.sentences
        assert back.speakers == doc.speakers
        assert back.doc_key == doc.doc_key
        assert back.part == 0
        assert sort_clusters(back.gold_clusters) == sort_clusters(doc.gold_clusters)

    def test_write_is_idempotent(self):
        (doc,) = parse_conll(BASIC)
        text, back = conll_round_trip(doc)
        assert write_conll([back]) == text

    def test_singletons_written_on_request(self):
        doc = make_document(
            [["The", "school", "opened", "."]],
            clusters=spans_to_clusters([(0, 1), (2, 2)]),
            mentions=[Mention(0, 1, cluster_id=0), Mention(2, 2, cluster_id=0),
                      Mention(3, 3)],
        )
        plain, back_plain = conll_round_trip(doc)
        assert all(len(c) == 2 for c in back_plain.gold_clusters)
        with_singles, back = conll_round_trip(doc, include_singletons=True)
        assert sorted(map(len, back.gold_clusters)) == [1, 2]
        assert (3, 3) in [m.span for m in back.gold_mentions]

    def test_invalid_document_refused(self):
        doc = make_document([["a"]], clusters=spans_to_clusters([(0, 0), (0, 0)]))
        with pytest.raises(CorpusError):
            write_conll([doc])

    def test_touching_spans_in_one_cluster_round_trip(self):
        doc = make_document([["a", "b", "c"]],
                            clusters=spans_to_clusters([(0, 1), (1, 2)]))
        _, back = conll_round_trip(doc)
        assert sort_clusters(back.gold_clusters) == doc.gold_clusters

    def test_interleaved_spans_in_one_cluster_refused(self):
        """LIFO brackets cannot carry same-cluster spans that cross."""
        doc = make_document([["a", "b", "c", "d"]],
                            clusters=spans_to_clusters([(0, 2), (1, 3)]))
        with pytest.raises(CorpusError, match="overlap without nesting"):
            write_conll([doc])
        # the same geometry is fine across two clusters
        ok = make_document([["a", "b", "c", "d"]],
                           clusters=spans_to_clusters([(0, 2)], [(1, 3)]))
        _, back = conll_round_trip(ok)
        assert sort_clusters(back.gold_clusters) == ok.gold_clusters

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_documents_round_trip(self, data):
        lens = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        sentences = [[f"w{i}x{j}" for j in range(n)] for i, n in enumerate(lens)]
        starts = np.cumsum([0] + lens[:-1])
        spans = set()
        for si, n in enumerate(lens):
            for _ in range(data.draw(st.integers(0, 2))):
                s = data.draw(st.integers(0, n - 1))
                e = data.draw(st.integers(s, n - 1))
                spans.add((int(starts[si]) + s, int(starts[si]) + e))
        spans = sorted(spans)
        clusters = {}
        for sp in spans:
            clusters.setdefault(data.draw(st.integers(0, 2)), []).append(sp)

        def interleaved(cluster):
            ordered = sorted(cluster)
            return any(a < c < b < d
                       for i, (a, b) in enumerate(ordered)
                       for c, d in ordered[i + 1:])

        assume(not any(interleaved(c) for c in clusters.values()))
        doc = make_document(sentences, clusters=list(clusters.values()))
        _, back = conll_round_trip(doc)
        assert back.sentences == doc.sentences
        assert sort_clusters(back.gold_clusters) == doc.gold_clusters
        assert [m.span for m in back.gold_mentions] == [m.span for m in doc.gold_mentions]


SIDECAR = """\
# span annotations
t/d\t0\t1\tperson\tnew\t0
t/d\t3\t3\tplace\tgiven:active\t_
t/d\t5\t5\t_\t_\t0
"""


def sidecar_base_doc():
    return make_document(
        [["The", "teacher", "visited", "Rome", "with", "her", "."]],
        clusters=spans_to_clusters([(0, 1), (5, 5)]),
        doc_key="t/d",
    )


class TestSidecar:
    def test_read_rows(self):
        rows = read_sidecar(SIDECAR)
        assert len(rows) == 3
        assert rows[0].entity_type == "person"
        assert rows[0].cluster_label == "0"
        assert rows[1].cluster_label is None
        assert rows[2].entity_type == UNKNOWN

    def test_read_rejects_bad_column_count(self):
        with pytest.raises(CorpusError, match="6 tab-separated"):
            read_sidecar("t/d\t0\t1\tperson\tnew\n")

    def test_read_rejects_unknown_labels(self):
        with pytest.raises(CorpusError, match="entity type"):
            read_sidecar("t/d\t0\t1\tvehicle\tnew\t_\n")
        with pytest.raises(CorpusError, match="information status"):
            read_sidecar("t/d\t0\t1\tperson\tbrand_new\t_\n")
        with pytest.raises(CorpusError, match="non-integer"):
            read_sidecar("t/d\tzero\t1\tperson\tnew\t_\n")

    def test_merge_fills_fields_and_adds_singletons(self):
        doc = sidecar_base_doc()
        merged = merge_sidecar(doc, read_sidecar(SIDECAR))
        by_span = merged.mention_map()
        assert by_span[(0, 1)].entity_type == "person"
        assert by_span[(0, 1)].info_status == "new"
        assert by_span[(0, 1)].cluster_id == 0
        # new span arrives as a singleton mention outside every cluster
        assert by_span[(3, 3)].cluster_id is None
        assert by_span[(3, 3)].entity_type == "place"
        assert merged.gold_clusters == doc.gold_clusters
        merged.validate()

    def test_merge_is_idempotent(self):
        doc = sidecar_base_doc()
        rows = read_sidecar(SIDECAR)
        once = merge_sidecar(doc, rows)
        twice = merge_sidecar(once, rows)
        assert once == twice

    def test_merge_leaves_input_untouched(self):
        doc = sidecar_base_doc()
        before = [m for m in doc.gold_mentions]
        merge_sidecar(doc, read_sidecar(SIDECAR))
        assert doc.gold_mentions == before

    def test_conflicting_value_raises(self):
        doc = sidecar_base_doc()
        rows = read_sidecar("t/d\t0\t1\tperson\tnew\t_\n")
        merged = merge_sidecar(doc, rows)
        with pytest.raises(CorpusError, match="conflicting entity type"):
            merge_sidecar(merged, read_sidecar("t/d\t0\t1\tanimal\tnew\t_\n"))

    def test_label_cannot_bridge_clusters(self):
        doc = sidecar_base_doc()
        bad = "t/d\t0\t1\t_\t_\t7\nt/d\t3\t3\t_\t_\t7\n"
        with pytest.raises(CorpusError, match="cluster id '7'"):
            merge_sidecar(doc, read_sidecar(bad))

    def test_label_cannot_group_new_spans(self):
        doc = sidecar_base_doc()
        bad = "t/d\t2\t2\t_\t_\t9\nt/d\t3\t3\t_\t_\t9\n"
        with pytest.raises(CorpusError, match="not clustered"):
            merge_sidecar(doc, read_sidecar(bad))

    def test_rows_for_other_documents_ignored(self):
        doc = sidecar_base_doc()
        merged = merge_sidecar(doc, read_sidecar("x/y\t0\t0\tperson\tnew\t_\n"))
        assert merged == doc

    def test_out_of_range_span_rejected(self):
        doc = sidecar_base_doc()
        with pytest.raises(CorpusError, match="out of range"):
            merge_sidecar(doc, read_sidecar("t/d\t0\t99\tperson\tnew\t_\n"))

    def test_apply_sidecar_rejects_orphans(self):
        with pytest.raises(CorpusError, match="unknown document.*x/y"):
            apply_sidecar([sidecar_base_doc()], read_sidecar("x/y\t0\t0\t_\t_\t_\n"))

    def test_apply_sidecar_splits_interleaved_rows_by_document(self):
        first = sidecar_base_doc()
        second = make_document([["Ann", "saw", "Bo", "."]], doc_key="t/e")
        rows = read_sidecar("t/e\t2\t2\tperson\tnew\t_\n"
                            "t/d\t3\t3\tplace\tnew\t_\n"
                            "t/e\t0\t0\tperson\tnew\t_\n")
        merged = apply_sidecar([first, second], rows)
        assert merged == [merge_sidecar(first, rows), merge_sidecar(second, rows)]
        assert [m.span for m in merged[1].gold_mentions] == [(0, 0), (2, 2)]

    def test_write_read_round_trip(self):
        doc = sidecar_base_doc()
        merged = merge_sidecar(doc, read_sidecar(SIDECAR))
        text = write_sidecar([merged])
        again = apply_sidecar([sidecar_base_doc()], read_sidecar(text))[0]
        assert again == merged


class TestJsonl:
    def doc(self):
        doc = sidecar_base_doc()
        return merge_sidecar(doc, read_sidecar(SIDECAR))

    def test_round_trip(self):
        doc = self.doc()
        docs = read_jsonl(write_jsonl([doc]))
        assert docs == [doc]

    def test_dict_round_trip_keeps_conll_identity(self):
        (doc,) = parse_conll(BASIC)
        back = document_from_dict(document_to_dict(doc))
        assert back == doc
        assert back.conll_key == "nw/wsj_0001"
        assert back.part == 0

    def test_dict_round_trip_keeps_first_cluster_of_shared_span(self):
        (doc,) = parse_conll("#begin document (k)\n"
                             "k 0 0 a (0)|(1)\n"
                             "k 0 1 b (0)\n"
                             "#end document\n")
        assert doc.mention_map()[(0, 0)].cluster_id == 0
        assert document_from_dict(document_to_dict(doc)) == doc
        with pytest.raises(CorpusError, match=":1: k: span .* appears in clusters"):
            read_jsonl(json.dumps(document_to_dict(doc)) + "\n")

    def test_duplicate_mention_rejected(self):
        d = document_to_dict(self.doc())
        d["mentions"].append(d["mentions"][0])
        with pytest.raises(CorpusError, match="duplicate mention"):
            document_from_dict(d)

    def test_bad_json_reports_line(self):
        with pytest.raises(CorpusError, match=":2: bad JSON"):
            read_jsonl(write_jsonl([self.doc()]) + "{oops\n")

    def test_deeply_nested_json_reports_line(self):
        # nested too deeply for the JSON decoder's recursion limit
        with pytest.raises(CorpusError, match=":2: bad JSON: maximum recursion depth"):
            read_jsonl(write_jsonl([self.doc()]) + "[" * 100_000 + "\n")

    def test_load_documents_dispatches_on_suffix(self, tmp_path):
        doc = self.doc()
        jpath = tmp_path / "docs.jsonl"
        jpath.write_text(write_jsonl([doc]), encoding="utf-8")
        cpath = tmp_path / "docs.conll"
        cpath.write_text(BASIC, encoding="utf-8")
        assert load_documents(jpath) == [doc]
        assert load_documents(cpath)[0].doc_key == "nw/wsj_0001_0"


class TestDocumentGeometry:
    def test_indices_and_text(self):
        doc = make_document([["a", "b"], ["c", "d", "e"]])
        assert doc.num_tokens == 5
        assert doc.sentence_starts() == [0, 2]
        assert doc.sentence_index(1) == 0
        assert doc.sentence_index(2) == 1
        assert doc.span_sentence(2, 4) == 1

    def test_crossing_span_rejected(self):
        doc = make_document([["a", "b"], ["c"]])
        with pytest.raises(CorpusError, match="crosses sentences"):
            doc.span_sentence(1, 2)
        with pytest.raises(CorpusError, match="start > end"):
            doc.span_sentence(1, 0)
        with pytest.raises(CorpusError, match="out of range"):
            doc.sentence_index(3)

    def test_empty_sentences(self):
        # empty sentences hold no token: lookups skip them wherever they sit
        doc = make_document([[], ["a", "b"], [], [], ["c"], []],
                            clusters=[[(0, 1), (2, 2)]],
                            doc_key="t/e")
        assert [doc.sentence_index(t) for t in range(3)] == [1, 1, 4]
        assert doc.span_sentence(0, 1) == 1
        assert doc.span_sentence(2, 2) == 4
        doc.validate()
        with pytest.raises(CorpusError, match="crosses sentences 1 and 4"):
            doc.span_sentence(1, 2)
        with pytest.raises(CorpusError, match="out of range"):
            doc.sentence_index(3)
        merged = merge_sidecar(doc, read_sidecar("t/e\t2\t2\tperson\tnew\t_\n"))
        assert merged.mention_map()[(2, 2)].entity_type == "person"
        with pytest.raises(CorpusError, match=r"span \(1, 2\) crosses"):
            merge_sidecar(doc, read_sidecar("t/e\t1\t2\tperson\tnew\t_\n"))
        empty = make_document([[], []])
        with pytest.raises(CorpusError, match="out of range"):
            empty.sentence_index(0)


class TestValidate:
    def test_speaker_shape_mismatch(self):
        doc = make_document([["a", "b"]])
        doc.speakers = [["only_one"]]
        with pytest.raises(CorpusError, match="speakers"):
            doc.validate()

    def test_cluster_id_mismatch(self):
        doc = make_document([["a", "b"]], clusters=spans_to_clusters([(0, 0), (1, 1)]))
        doc.gold_mentions = [Mention(0, 0, cluster_id=None), Mention(1, 1, cluster_id=0)]
        with pytest.raises(CorpusError, match="cluster_id"):
            doc.validate()

    def test_cluster_span_needs_mention(self):
        doc = make_document([["a", "b"]], clusters=spans_to_clusters([(0, 0), (1, 1)]))
        doc.gold_mentions = doc.gold_mentions[:1]
        with pytest.raises(CorpusError, match="no gold mention"):
            doc.validate()

    def test_unknown_entity_type_rejected(self):
        doc = make_document([["a"]], mentions=[Mention(0, 0, entity_type="robot")])
        with pytest.raises(CorpusError, match="entity type"):
            doc.validate()

    def test_valid_document_passes(self):
        doc = make_document([["a", "b"]], clusters=spans_to_clusters([(0, 0), (1, 1)]))
        doc.validate()


class TestSortClusters:
    def test_orders_spans_and_clusters(self):
        out = sort_clusters([[(5, 6), (1, 2)], [(0, 0)]])
        assert out == [[(0, 0)], [(1, 2), (5, 6)]]
