"""Run configuration parsing and the command line surface."""

import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from corefmtl.cli import main
from corefmtl.config import _SCHEMA, ConfigError, load_config, render_config
from corefmtl.corpus import (Document, parse_conll, read_jsonl, write_conll, write_jsonl,
                             write_sidecar)
from corefmtl.mtl import PRESET_WEIGHTS, TaskWeights
from corefmtl.synthetic import generate_corpus
from corefmtl.training import Checkpoint, TrainConfig


class TestLoadConfig:
    def test_defaults_mirror_train_config(self):
        assert load_config() == TrainConfig()

    def test_preset_sets_weights_only(self):
        cfg = load_config(preset="sg_ent")
        assert cfg.task_weights == PRESET_WEIGHTS["sg_ent"]
        assert cfg.steps == TrainConfig().steps

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(preset="sg_ent_everything")

    def test_file_values_apply(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nsteps = 9\n[model]\nhidden = 12\n")
        cfg = load_config(path)
        assert cfg.steps == 9
        assert cfg.hidden == 12

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[weights]\ncoref = 0.9\n")
        cfg = load_config(path, preset="sg")
        assert cfg.task_weights.coref == 0.9
        assert cfg.task_weights.singleton == 0.5

    def test_explicit_overrides_win(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nsteps = 9\n")
        cfg = load_config(path, overrides={"training.steps": "4",
                                           "model.hidden": 16})
        assert cfg.steps == 4
        assert cfg.hidden == 16

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[modle]\nhidden = 12\n")
        with pytest.raises(ConfigError, match=r"unknown section \[modle\]"):
            load_config(path)

    @pytest.mark.parametrize("text", ["[decode]\nthreshold = 0.3\n",
                                      "[metrics]\nkeep_singletons = true\n"])
    def test_decode_and_metrics_sections_are_gone(self, tmp_path, text):
        # threshold, keep-singletons and mention-mode are command-line flags
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\nhiden = 12\n")
        with pytest.raises(ConfigError, match="unknown key 'hiden'"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nsteps = soon\n")
        with pytest.raises(ConfigError, match="bad value for training.steps"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[training]\nsteps = 1\nsteps = 2\n")
        with pytest.raises(ConfigError, match="already exists"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_override_without_dot(self):
        with pytest.raises(ConfigError, match="section.key"):
            load_config(overrides={"steps": "3"})

    @pytest.mark.parametrize("dotted,value,message", [
        ("training.select", "worst", "select"),
        ("model.activation", "relu", "unknown key 'activation'"),
        ("model.dropout", "1.0", "dropout"),
        ("model.max_span_width", "0", "max_span_width must be >= 1"),
        ("model.prune_ratio", "nan", "prune_ratio must be finite and > 0"),
        ("model.top_antecedents", "-1", "top_antecedents must be >= 1"),
        ("weights.coref", "0", "coreference weight"),
        ("weights.coref", "inf", "task weight coref must be finite"),
        ("weights.singleton", "nan", "task weight singleton must be finite"),
        ("training.steps", "0", "steps must be > 0"),
        ("training.task_learning_rate", "-1", "learning rates"),
        ("training.task_learning_rate", "nan", "learning rates must be finite"),
        ("training.encoder_learning_rate", "inf", "learning rates must be finite"),
        ("training.clip_norm", "-1", "clip_norm must be finite and > 0"),
        ("training.clip_norm", "nan", "clip_norm must be finite and > 0"),
        ("training.weight_decay", "-1", "weight_decay must be finite and >= 0"),
        ("training.eval_every", "-1", "eval_every must be >= 0"),
        ("model.hidden", "-1", "hidden must be >= 1"),
        ("model.hidden", "0", "hidden must be >= 1"),
        ("model.feature_dim", "-2", "feature_dim must be >= 0"),
        ("model.ffnn_depth", "-1", "ffnn_depth must be >= 0"),
        ("encoder.kind", "toy", "unknown key 'kind'"),
        ("encoder.model_name", "bert-base", "unknown key 'model_name'"),
        ("encoder.segment_length", "384", "unknown key 'segment_length'"),
        ("encoder.dim", 8.0, "dim must be an integer, got 8.0"),
        ("model.hidden", 8.5, "hidden must be an integer, got 8.5"),
        ("training.steps", True, "steps must be an integer, got True"),
    ])
    def test_validation(self, dotted, value, message):
        with pytest.raises(ConfigError, match=message):
            load_config(overrides={dotted: value})

    @pytest.mark.parametrize("key,value", [("window", "1"), ("vocab_size", "512")])
    def test_toy_encoder_keys_rejected_with_features(self, tmp_path, key, value):
        """A features encoder reads no vocabulary and no window, so setting
        either next to features is an error that names the key, from a
        file or from an override; with the toy encoder both are fine."""
        path = tmp_path / "cfg.ini"
        path.write_text(f"[encoder]\nfeatures = f.npz\n{key} = {value}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=f"encoder.{key} is read only by "
                                              "the toy encoder"):
            load_config(path)
        with pytest.raises(ConfigError, match=f"encoder.{key}"):
            load_config(overrides={"encoder.features": "f.npz",
                                   f"encoder.{key}": value})
        path.write_text(f"[encoder]\n{key} = {value}\n", encoding="utf-8")
        assert load_config(path, overrides={"encoder.features": ""}) \
            == load_config()


class TestRenderConfig:
    def test_rendered_text_parses_back_equal(self, tmp_path):
        cfg = load_config(preset="sg_ent_infs",
                          overrides={"model.hidden": "12",
                                     "encoder.features": "features.npz",
                                     "training.select": "final"})
        path = tmp_path / "snap.ini"
        path.write_text(render_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    def test_features_config_leaves_out_the_toy_encoder_keys(self):
        toy = render_config(load_config())
        assert "vocab_size = 512\n" in toy and "window = 1\n" in toy
        text = render_config(load_config(overrides={"encoder.features": "f.npz"}))
        assert "vocab_size" not in text and "window" not in text
        assert "[encoder]\ndim = 64\nfeatures = f.npz\n" in text

    def test_from_train_config(self, tmp_path):
        train = TrainConfig(hidden=12, steps=7,
                            task_weights=TaskWeights(0.5, 0.5, 0.0, 0.0))
        path = tmp_path / "snap.ini"
        path.write_text(render_config(train), encoding="utf-8")
        assert load_config(path) == train

    def test_readme_lists_the_schema(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        block = re.search(r"## Configuration.*?```ini\n(.*?)```", readme,
                          re.S).group(1)
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=(";",))
        parser.optionxform = str
        parser.read_string(block)
        documented = {section: list(parser[section]) for section in parser.sections()}
        assert documented == {section: list(keys)
                              for section, keys in _SCHEMA.items()}
        assert load_config(overrides={f"{section}.{key}": value
                                      for section in parser.sections()
                                      for key, value in parser[section].items()}) \
            == load_config()


TINY_INI = """\
[encoder]
dim = 8
vocab_size = 64

[model]
hidden = 8
ffnn_depth = 1
feature_dim = 4
max_span_width = 4
top_antecedents = 10

[training]
steps = 4
eval_every = 2
seed = 3
"""


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"

ZERO_TOKEN_DOCS = [
    Document(doc_key="test/no_sentences", genre="nw", sentences=[], speakers=[]),
    Document(doc_key="test/empty_sentences", genre="nw", sentences=[[], []],
             speakers=[[], []]),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    docs = generate_corpus(3, seed=9)
    (root / "train.jsonl").write_text(write_jsonl(docs), encoding="utf-8")
    (root / "dev.jsonl").write_text(write_jsonl(docs[:1]), encoding="utf-8")
    (root / "tiny.ini").write_text(TINY_INI, encoding="utf-8")
    code = main(["train", str(root / "train.jsonl"),
                 "--config", str(root / "tiny.ini"),
                 "--dev", str(root / "dev.jsonl"),
                 "--out", str(root / "run")])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def preds_path(workdir):
    out = workdir / "preds.jsonl"
    code = main(["predict", str(workdir / "train.jsonl"),
                 "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestTrainCommand:
    def test_writes_artifacts(self, workdir):
        run = workdir / "run"
        assert (run / "metrics.jsonl").exists()
        assert (run / "checkpoint.npz").exists()
        assert (run / "config.ini").exists()

    def test_metrics_log_structure(self, workdir):
        lines = (workdir / "run" / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        steps = [r["step"] for r in records if "loss" in r]
        assert steps == [1, 2, 3, 4]
        assert all("loss_coref" in r for r in records if "loss" in r)
        assert [r["step"] for r in records if "dev_avg_f1" in r] == [2, 4]

    def test_baseline_log_has_only_coref_loss(self, workdir):
        lines = (workdir / "run" / "metrics.jsonl").read_text().splitlines()
        for rec in map(json.loads, lines):
            loss_keys = {k for k in rec if k.startswith("loss_")}
            if loss_keys:
                assert loss_keys == {"loss_coref"}

    def test_mtl_log_has_three_loss_columns(self, workdir):
        code = main(["train", str(workdir / "train.jsonl"),
                     "--config", str(workdir / "tiny.ini"),
                     "--preset", "sg_ent",
                     "--out", str(workdir / "run_sg_ent")])
        assert code == 0
        lines = (workdir / "run_sg_ent" / "metrics.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert {k for k in first if k.startswith("loss_")} == {
            "loss_coref", "loss_singleton", "loss_entity_type"}

    def test_config_snapshot_parses(self, workdir):
        cfg = load_config(workdir / "run" / "config.ini")
        assert cfg.steps == 4
        assert cfg.encoder.dim == 8

    def test_rerun_is_byte_identical(self, workdir):
        code = main(["train", str(workdir / "train.jsonl"),
                     "--config", str(workdir / "tiny.ini"),
                     "--dev", str(workdir / "dev.jsonl"),
                     "--out", str(workdir / "run_again")])
        assert code == 0
        first = (workdir / "run" / "metrics.jsonl").read_bytes()
        again = (workdir / "run_again" / "metrics.jsonl").read_bytes()
        assert first == again

    def test_seed_flag_changes_the_log(self, workdir):
        code = main(["train", str(workdir / "train.jsonl"),
                     "--config", str(workdir / "tiny.ini"), "--seed", "4",
                     "--out", str(workdir / "run_seed4")])
        assert code == 0
        assert (workdir / "run_seed4" / "metrics.jsonl").read_bytes() \
            != (workdir / "run" / "metrics.jsonl").read_bytes()


class TestPredictCommand:
    def test_jsonl_and_conll_outputs(self, workdir, preds_path):
        conll_path = workdir / "preds.conll"
        code = main(["predict", str(workdir / "train.jsonl"),
                     "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                     "--out", str(workdir / "preds2.jsonl"),
                     "--conll", str(conll_path)])
        assert code == 0
        gold_keys = [d.doc_key for d in read_jsonl(workdir / "train.jsonl")]
        assert [d.doc_key for d in read_jsonl(preds_path)] == gold_keys
        assert [d.doc_key for d in parse_conll(conll_path)] == gold_keys

    def test_baseline_checkpoint_emits_no_singletons(self, workdir, preds_path):
        for doc in read_jsonl(preds_path):
            assert all(m.cluster_id is not None for m in doc.gold_mentions)

    def test_threshold_and_no_singletons_flags(self, workdir):
        code = main(["train", str(workdir / "train.jsonl"),
                     "--config", str(workdir / "tiny.ini"), "--preset", "sg",
                     "--out", str(workdir / "run_sg")])
        assert code == 0
        # force every pair score negative so each span prefers the dummy;
        # the untouched singleton head then sits near probability 0.5
        ckpt = Checkpoint.load(workdir / "run_sg" / "checkpoint.npz")
        ckpt.params["score/pair/out_w"][:] = 0.0
        ckpt.params["score/pair/out_b"][:] = -5.0
        ckpt.params["score/beta"][:] = 0.0
        muted = workdir / "muted.npz"
        ckpt.save(muted)
        low = workdir / "sg_low.jsonl"
        high = workdir / "sg_high.jsonl"
        none = workdir / "sg_none.jsonl"
        for threshold, out in (("0.4", low), ("0.6", high)):
            assert main(["predict", str(workdir / "train.jsonl"),
                         "--checkpoint", str(muted), "--threshold", threshold,
                         "--out", str(out)]) == 0
        assert main(["predict", str(workdir / "train.jsonl"),
                     "--checkpoint", str(muted), "--no-singletons",
                     "--out", str(none)]) == 0
        loose = [m for d in read_jsonl(low)
                 for m in d.gold_mentions if m.cluster_id is None]
        assert loose  # below the head's probability: every span is emitted
        for path in (high, none):
            for doc in read_jsonl(path):
                assert doc.gold_mentions == [] and doc.gold_clusters == []

    def test_empty_input_gives_empty_output(self, workdir):
        empty = workdir / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = workdir / "empty_preds.jsonl"
        assert main(["predict", str(empty),
                     "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                     "--out", str(out)]) == 0
        assert read_jsonl(out) == []

    def test_zero_token_documents_predict_empty(self, workdir):
        corpus = workdir / "zero_tokens.jsonl"
        corpus.write_text(write_jsonl(ZERO_TOKEN_DOCS), encoding="utf-8")
        out = workdir / "zero_token_preds.jsonl"
        assert main(["predict", str(corpus),
                     "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                     "--out", str(out)]) == 0
        preds = read_jsonl(out)
        assert [d.doc_key for d in preds] == [d.doc_key for d in ZERO_TOKEN_DOCS]
        assert all(d.gold_clusters == [] and d.gold_mentions == [] for d in preds)


class TestScoreCommand:
    def test_prints_report(self, workdir, preds_path, capsys):
        code = main(["score", str(workdir / "train.jsonl"), str(preds_path)])
        assert code == 0
        out = capsys.readouterr().out
        for row in ("markable detection", "MUC", "B-cubed", "CEAF-phi4", "avg F1"):
            assert row in out

    def test_json_report(self, workdir, preds_path, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["score", str(workdir / "train.jsonl"), str(preds_path),
                     "--keep-singletons", "--mention-mode", "coreferent",
                     "--json", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["keep_singletons"] is True
        assert payload["mention_mode"] == "coreferent"
        assert {"muc", "b_cubed", "ceaf_phi4", "avg_f1"} <= set(payload)

    def test_document_mismatch_is_a_data_error(self, workdir, preds_path, capsys):
        code = main(["score", str(workdir / "dev.jsonl"), str(preds_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyzeErrorsCommand:
    def test_self_contrast_is_all_zero(self, workdir, preds_path, capsys):
        code = main(["analyze-errors", str(workdir / "train.jsonl"),
                     str(preds_path), str(preds_path)])
        assert code == 0
        table = capsys.readouterr().out
        assert "anaphor class" in table
        assert "1 (" not in table

    def test_labels_and_json(self, workdir, preds_path, tmp_path, capsys):
        out_path = tmp_path / "contrast.json"
        code = main(["analyze-errors", str(workdir / "train.jsonl"),
                     str(preds_path), str(preds_path),
                     "--label-a", "base", "--label-b", "mtl",
                     "--json", str(out_path)])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "only base" in header and "only mtl" in header
        payload = json.loads(out_path.read_text())
        assert payload == {"only_a": [], "only_b": []}


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_train_help_lists_every_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"task weight preset \(([^)]*)\)", text).group(1)
        assert listed.split(", ") == list(PRESET_WEIGHTS)

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, workdir, capsys):
        assert main(["train", str(workdir / "train.jsonl")]) == 1

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = main(["score", str(tmp_path / "a.conll"),
                     str(tmp_path / "b.conll")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        code = main(["predict", str(workdir / "train.jsonl"),
                     "--checkpoint", str(tmp_path / "absent.npz"),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("name,write", [
        ("foreign.npz", lambda fh: np.savez(fh, x=np.zeros(3))),
        ("text.npz", lambda fh: fh.write(b"not a zip archive\n" * 8)),
        ("truncated.npz", None),
    ])
    def test_bad_checkpoint_is_data_error(self, workdir, tmp_path, capsys,
                                          name, write):
        path = tmp_path / name
        with open(path, "wb") as fh:
            if write is None:
                ckpt = (workdir / "run" / "checkpoint.npz").read_bytes()
                fh.write(ckpt[:len(ckpt) // 2])
            else:
                write(fh)
        code = main(["predict", str(workdir / "train.jsonl"),
                     "--checkpoint", str(path),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert "not a training checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        ("empty_meta", "checkpoint meta lacks config, genres, vocab, include_aux"),
        ("no_config", "checkpoint meta lacks config"),
        ("no_genres", "checkpoint meta lacks genres"),
        ("no_vocab", "checkpoint meta lacks vocab"),
        ("no_include_aux", "checkpoint meta lacks include_aux"),
        ("bad_config", "checkpoint config is not valid"),
        ("tanh_config", "activation 'tanh' is no longer supported"),
        ("pretrained_config", "encoder kind 'pretrained' is retired"),
        ("clip_config", "clip_norm must be finite and > 0"),
        ("missing_param", "checkpoint is missing parameter"),
        ("wrong_shape", "shape mismatch"),
        ("nan_param", "checkpoint parameter score/pair/w0 holds non-finite values"),
        ("meta_not_json", "not a training checkpoint (meta is not a JSON object)"),
        ("meta_not_object", "not a training checkpoint (meta is not a JSON object)"),
        ("genres_not_list", "checkpoint meta genres is not a list of strings"),
        ("vocab_not_list", "checkpoint meta vocab is not a list of strings"),
        ("vocab_not_strings", "checkpoint meta vocab is not a list of strings"),
        ("include_aux_not_bool", "checkpoint meta include_aux is not true or false"),
        ("step_count_not_scalar", "not a training checkpoint (step_count is not an integer)"),
        ("no_step", "checkpoint meta step None is not a count"),
        ("best_avg_f1_string", "checkpoint meta best_avg_f1 'x' is not an F1 in [0, 1]"),
        ("step_count_not_step", "checkpoint step_count 7 is not its meta step"),
    ], ids=["empty_meta", "no_config", "no_genres", "no_vocab", "no_include_aux",
            "bad_config", "tanh_config", "pretrained_config", "clip_config",
            "missing_param",
            "wrong_shape", "nan_param", "meta_not_json", "meta_not_object",
            "genres_not_list", "vocab_not_list", "vocab_not_strings",
            "include_aux_not_bool", "step_count_not_scalar", "no_step",
            "best_avg_f1_string", "step_count_not_step"])
    def test_damaged_checkpoint_is_data_error(self, workdir, tmp_path, capsys,
                                              damage, message):
        path = tmp_path / "damaged.npz"
        meta_text = {"empty_meta": "{}", "meta_not_json": "{config",
                     "meta_not_object": "0.0"}
        if damage in meta_text:
            with open(path, "wb") as fh:
                np.savez(fh, meta=np.array(meta_text[damage]))
        else:
            ckpt = Checkpoint.load(workdir / "run" / "checkpoint.npz")
            params = ckpt.predict_params()
            name = "score/pair/w0"
            if damage.startswith("no_"):
                del ckpt.meta[damage[3:]]
            elif damage in ("genres_not_list", "vocab_not_list"):
                ckpt.meta[damage.partition("_")[0]] = 5
            elif damage == "vocab_not_strings":
                ckpt.meta["vocab"] = [[1]]
            elif damage == "include_aux_not_bool":
                ckpt.meta["include_aux"] = "yes"
            elif damage == "step_count_not_scalar":
                ckpt.opt["step_count"] = [1, 2]
            elif damage == "best_avg_f1_string":
                ckpt.meta["best_avg_f1"] = "x"
            elif damage == "step_count_not_step":
                ckpt.opt["step_count"] = 7
            elif damage == "bad_config":
                ckpt.meta["config"] = {"hidden": 8}
            elif damage == "tanh_config":
                ckpt.meta["config"]["activation"] = "tanh"
            elif damage == "pretrained_config":
                ckpt.meta["config"]["encoder"]["kind"] = "pretrained"
            elif damage == "clip_config":
                ckpt.meta["config"]["clip_norm"] = -1.0
            elif damage == "missing_param":
                del params[name]
            elif damage == "nan_param":
                params[name] = np.where(params[name] > 0, np.nan, params[name])
            else:
                params[name] = np.zeros(params[name].shape[:1] + (1,))
            ckpt.save(path)
        code = main(["predict", str(workdir / "train.jsonl"),
                     "--checkpoint", str(path),
                     "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("gold,system,message", [
        ("train.jsonl", "dev.jsonl", "missing predictions for"),
        ("dev.jsonl", "repeated.jsonl", "duplicate document key"),
        ("dev.jsonl", "train.jsonl", "predictions for unknown documents"),
    ], ids=["missing", "repeated", "unknown"])
    def test_analyze_errors_document_mismatch_is_data_error(
            self, workdir, tmp_path, capsys, gold, system, message):
        repeated = read_jsonl(workdir / "dev.jsonl") * 2
        (tmp_path / "repeated.jsonl").write_text(write_jsonl(repeated),
                                                 encoding="utf-8")
        folder = tmp_path if system == "repeated.jsonl" else workdir
        code = main(["analyze-errors", str(workdir / gold), str(workdir / gold),
                     str(folder / system)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("command,damage,message", [
        ("score", "missing_speakers", "missing field 'speakers'"),
        ("score", "three_item_mention", "expected 4, got 3"),
        ("score", "json_list", "expected a JSON object, got list"),
        ("score", "string_span_bound", "not supported between"),
        ("score", "float_cluster_bounds", "does not have two integer bounds"),
        ("predict", "bool_cluster_bound", "does not have two integer bounds"),
        ("score", "float_mention_bound", "does not have two integer bounds"),
        ("score", "string_mention_bound", "does not have two integer bounds"),
        ("predict", "short_speaker_row", "speakers"),
        ("analyze-errors", "span_past_end", "out of range"),
        ("predict", "int_token", "sentences must be a list of lists of strings"),
        ("predict", "null_speaker", "speakers must be a list of lists of strings"),
        ("predict", "int_doc_key", "doc_key must be a string, got 3"),
        ("predict", "string_part", "part must be an integer, got '1'"),
        ("score", "int_genre", "genre must be a string, got 3"),
        ("score", "string_sentence", "sentences must be a list of lists of strings"),
        ("predict", "lone_surrogate_token", "a \\u escape gives a lone surrogate"),
        ("score", "non_utf8_conll_token", NOT_UTF8),
        ("score", "non_utf8_jsonl_string", NOT_UTF8),
        ("score", "non_utf8_sidecar", NOT_UTF8),
        ("train", "non_utf8_config", NOT_UTF8),
    ], ids=["missing_speakers", "three_item_mention", "json_list",
            "string_span_bound", "float_cluster_bounds", "bool_cluster_bound",
            "float_mention_bound", "string_mention_bound", "short_speaker_row",
            "span_past_end", "int_token", "null_speaker", "int_doc_key",
            "string_part", "int_genre", "string_sentence", "lone_surrogate_token",
            "non_utf8_conll_token", "non_utf8_jsonl_string", "non_utf8_sidecar",
            "non_utf8_config"])
    def test_malformed_jsonl_is_data_error(self, workdir, tmp_path, capsys,
                                           command, damage, message):
        """A JSONL field that breaks the document format is an error at its
        line. So is, naming its file, a 0xff byte: in a CoNLL token or a
        JSONL string of the response, in a sidecar's doc_key, or in a
        config value."""
        dev = workdir / "dev.jsonl"
        d = json.loads(dev.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.jsonl"
        if damage.startswith("non_utf8_"):
            docs = read_jsonl(dev)
            bad, data, old, new = {
                "non_utf8_conll_token": (tmp_path / "bad.conll", write_conll(docs),
                                         "   -   -", "\xff   -   -"),
                "non_utf8_jsonl_string": (bad, write_jsonl(docs),
                                          '"sentences": [["', '"sentences": [["\xff'),
                "non_utf8_sidecar": (tmp_path / "bad.tsv", write_sidecar(docs),
                                     "\t", "\xff\t"),
                "non_utf8_config": (tmp_path / "bad.ini", TINY_INI,
                                    "hidden = 8", "hidden = 8\xff"),
            }[damage]
            assert old in data
            bad.write_bytes(data.encode().replace(old.encode(),
                                                  new.encode("latin-1"), 1))
        elif damage == "missing_speakers":
            del d["speakers"]
        elif damage == "three_item_mention":
            d["mentions"][0].pop()
        elif damage == "json_list":
            d = [d]
        elif damage == "string_span_bound":
            d["clusters"][0][0][0] = str(d["clusters"][0][0][0])
        elif damage == "float_cluster_bounds":
            d["clusters"][0] = [[s + 0.5, e + 0.5] for s, e in d["clusters"][0]]
        elif damage == "bool_cluster_bound":
            d["clusters"][0][0][0] = bool(d["clusters"][0][0][0])
        elif damage == "float_mention_bound":
            d["mentions"][0][1] = d["mentions"][0][1] + 0.9
        elif damage == "string_mention_bound":
            d["mentions"][0][0] = str(d["mentions"][0][0])
        elif damage == "short_speaker_row":
            d["speakers"] = [row[:len(row) // 2] for row in d["speakers"]]
        elif damage == "int_token":
            d["sentences"][0][0] = 7
        elif damage == "null_speaker":
            d["speakers"][0][0] = None
        elif damage == "int_doc_key":
            d["doc_key"] = 3
        elif damage == "string_part":
            d["part"] = "1"
        elif damage == "int_genre":
            d["genre"] = 3
        elif damage == "string_sentence":
            # as many characters as the sentence has tokens
            d["sentences"][0] = "".join(tok[0] for tok in d["sentences"][0])
        elif damage == "lone_surrogate_token":
            # json.dumps writes it as the escape \ud800
            d["sentences"][0][0] = "\ud800"
        elif damage == "span_past_end":
            end = sum(len(s) for s in d["sentences"])
            d["clusters"][0].append([end, end])
        if not damage.startswith("non_utf8_"):
            bad.write_text(json.dumps(d) + "\n", encoding="utf-8")
        if damage == "non_utf8_sidecar":
            argv = ["score", str(dev), str(dev), "--sidecar", str(bad)]
        elif command == "train":
            argv = ["train", str(dev), "--config", str(bad),
                    "--out", str(tmp_path / "out")]
        elif command == "score":
            argv = ["score", str(dev), str(bad)]
        elif command == "predict":
            argv = ["predict", str(bad),
                    "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                    "--out", str(tmp_path / "p.jsonl")]
        else:
            argv = ["analyze-errors", str(dev), str(dev), str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        where = f"{bad}: " if damage.startswith("non_utf8_") else f"{bad}:1: "
        assert where in err and message in err

    def test_bad_config_is_data_error(self, workdir, tmp_path, capsys):
        code = main(["train", str(workdir / "train.jsonl"),
                     "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("line", ["kind = pretrained", "model_name = bert-base",
                                      "segment_length = 384"])
    def test_retired_encoder_key_is_data_error(self, workdir, tmp_path, capsys,
                                               line):
        ini = tmp_path / "old.ini"
        ini.write_text(TINY_INI.replace("[encoder]\n", f"[encoder]\n{line}\n"),
                       encoding="utf-8")
        code = main(["train", str(workdir / "train.jsonl"), "--config", str(ini),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"unknown key {line.split()[0]!r} in section [encoder]" \
            in capsys.readouterr().err

    def test_toy_encoder_key_with_features_is_data_error(self, workdir, tmp_path,
                                                         capsys):
        ini = tmp_path / "features.ini"
        ini.write_text(TINY_INI.replace("[encoder]\n",
                                        "[encoder]\nfeatures = f.npz\n"),
                       encoding="utf-8")
        code = main(["train", str(workdir / "train.jsonl"), "--config", str(ini),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "encoder.vocab_size is read only by the toy encoder" \
            in capsys.readouterr().err

    def test_unknown_preset_is_data_error(self, workdir, tmp_path, capsys):
        code = main(["train", str(workdir / "train.jsonl"),
                     "--preset", "everything",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_zero_token_training_document_is_data_error(self, workdir, tmp_path,
                                                        capsys):
        corpus = tmp_path / "with_empty.jsonl"
        docs = read_jsonl(workdir / "train.jsonl") + ZERO_TOKEN_DOCS[:1]
        corpus.write_text(write_jsonl(docs), encoding="utf-8")
        code = main(["train", str(corpus), "--config", str(workdir / "tiny.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "test/no_sentences: training document has no tokens" \
            in capsys.readouterr().err

    def test_empty_training_corpus_is_data_error(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("", encoding="utf-8")
        code = main(["train", str(empty), "--config", str(workdir / "tiny.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: no training documents" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "NaN"])
    def test_nan_threshold_is_usage_error(self, workdir, tmp_path, capsys,
                                          threshold):
        code = main(["predict", str(workdir / "train.jsonl"),
                     "--checkpoint", str(workdir / "run" / "checkpoint.npz"),
                     "--threshold", threshold, "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        assert f"threshold {threshold!r} is not a number" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, workdir, tmp_path, capsys):
        ini = tmp_path / "explode.ini"
        ini.write_text(TINY_INI + "task_learning_rate = 1e200\n"
                                  "encoder_learning_rate = 1e200\n")
        code = main(["train", str(workdir / "train.jsonl"),
                     "--config", str(ini), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err
