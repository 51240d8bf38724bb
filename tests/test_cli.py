from dataclasses import asdict, fields
import math
from pathlib import Path
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_edge_files
from dgnnrec import cli, training
from dgnnrec.model import EdgeType
from dgnnrec.synthetic import make_planted_dataset
from dgnnrec.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER, TrainingConfig,
                              load_checkpoint, save_checkpoint)


@pytest.fixture
def dataset_dir(tmp_path):
    ds = make_planted_dataset(num_users=30, num_items=160, num_relations=4,
                              interactions_per_user=8, seed=9)
    d = tmp_path / "data"
    d.mkdir()
    for name, pairs in (("interactions.tsv", ds.interactions),
                        ("social.tsv", ds.social),
                        ("relations.tsv", ds.item_relations)):
        (d / name).write_text(
            "\n".join(f"{a}\t{b}" for a, b in pairs) + "\n", encoding="utf-8")
    return d


def _base_args(dataset_dir, out, extra=()):
    return ["--interactions", str(dataset_dir / "interactions.tsv"),
            "--social", str(dataset_dir / "social.tsv"),
            "--item-relations", str(dataset_dir / "relations.tsv"),
            "--out", str(out), "--seed", "3",
            "--dim", "4", "--layers", "1", "--memory-units", "2",
            "--batch", "64", "--epochs", "2", *extra]


def test_build_reports_and_writes_manifest(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["build", *_base_args(dataset_dir, out)]) == 0
    text = capsys.readouterr().out
    assert "users: 30" in text
    assert "density" in text
    assert (out / "split.txt").exists()


def test_build_density_formula(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["build", *_base_args(dataset_dir, out)])
    text = capsys.readouterr().out
    count = int(text.split("interactions: ")[1].split(" ")[0])
    shown = float(text.split("(density ")[1].split("%")[0])
    assert shown == pytest.approx(100.0 * count / (30 * 160), abs=5e-5)


def test_build_rerun_identical_manifest(dataset_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["build", *_base_args(dataset_dir, out_a)])
    cli.main(["build", *_base_args(dataset_dir, out_b)])
    assert (out_a / "split.txt").read_bytes() == (out_b / "split.txt").read_bytes()


def test_build_then_train_on_the_same_flags(dataset_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["build", *_base_args(dataset_dir, out)]) == 0
    assert cli.main(["train", *_base_args(dataset_dir, out)]) == 0


@pytest.mark.parametrize("flag", ["--users", "--items", "--rel-nodes"])
def test_build_takes_no_node_count_override(dataset_dir, tmp_path, flag):
    # build --items 400 wrote a split that every later command refused.
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", *_base_args(dataset_dir, tmp_path / "run"), flag, "400"])
    assert exc.value.code == cli.EXIT_USAGE


def test_edge_file_byte_that_is_not_utf8_exit_code(dataset_dir, tmp_path, capsys):
    edges = dataset_dir / "interactions.tsv"
    lines = edges.read_bytes().count(b"\n")
    edges.write_bytes(edges.read_bytes() + b"5\t\xff7\n")
    assert cli.main(["build", *_base_args(dataset_dir, tmp_path / "run")]) == cli.EXIT_DATA
    assert f"line {lines + 1}: byte 0xff in interaction file" in capsys.readouterr().err


@pytest.mark.parametrize("line", [2, 4], ids=["seed_line", "first_row"])
def test_split_byte_that_is_not_utf8_exit_code(dataset_dir, tmp_path, capsys, line):
    out = tmp_path / "run"
    assert cli.main(["build", *_base_args(dataset_dir, out)]) == 0
    manifest = out / "split.txt"
    lines = manifest.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    manifest.write_bytes(b"\n".join(lines))
    assert cli.main(["train", *_base_args(dataset_dir, out)]) == cli.EXIT_DATA
    assert f"split.txt: line {line}: " in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def test_build_empty_interactions_fails(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    code = cli.main(["build", "--interactions", str(empty),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert "no interactions" in capsys.readouterr().err


def test_build_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0,3\n", encoding="utf-8")
    assert cli.main(["build", "--interactions", str(bad),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_DATA


def test_build_id_beyond_int64_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\n1\t99999999999999999999\n", encoding="utf-8")
    assert cli.main(["build", "--interactions", str(bad),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_DATA
    assert ("line 2: expected 'src<TAB>dst' in interaction file, two non-negative ids of 1 to 18 "
            "ASCII digits joined by one tab, got '1\\t99999999999999999999'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("in_relations, line, named", [
    (False, "100000000000\t3", "100000000001 users"),
    (False, "999999999999999999\t3", "1000000000000000000 users"),
    (True, "999999999999999999\t0", "1000000000000000000 items"),
], ids=["1e11_user", "int64_user", "int64_item"])
def test_build_ids_that_imply_an_impossible_graph_exit_code(tmp_path, capsys, in_relations,
                                                            line, named):
    ui, ir = tmp_path / "ui.tsv", tmp_path / "ir.tsv"
    ui.write_text("0\t0\n0\t1\n1\t1\n1\t2\n", encoding="utf-8")
    ir.write_text("0\t0\n", encoding="utf-8")
    with open(ir if in_relations else ui, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    out = tmp_path / "o"
    assert cli.main(["build", "--interactions", str(ui), "--item-relations", str(ir),
                     "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {named}: node counts must be non-negative and below 2**31\n")
    assert not out.exists()


def test_build_on_messy_edge_files_writes_the_same_split(tmp_path):
    ds = make_planted_dataset(seed=0)
    manifests = []
    for name, rng in (("clean", None), ("messy", np.random.default_rng(7))):
        files = write_edge_files(tmp_path / name, ds, rng)
        out = tmp_path / name / "run"
        assert cli.main(["build", "--interactions", str(files["interaction"]),
                         "--social", str(files["social"]),
                         "--item-relations", str(files["item_relation"]),
                         "--out", str(out)]) == 0
        manifests.append((out / "split.txt").read_bytes())
    assert manifests[0] == manifests[1]


def test_train_eval_cycle(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out)]) == 0
    assert (out / "model.ckpt").exists()
    log = (out / "train_log.tsv").read_text().splitlines()
    assert log[0].startswith("epoch\t")
    assert len(log) == 3  # header + 2 epochs
    assert cli.main(["eval", *_base_args(dataset_dir, out)]) == 0
    assert (out / "metrics.tsv").exists()
    assert (out / "report.txt").exists()
    assert "tested users" in capsys.readouterr().out


def test_train_periodic_eval_columns(dataset_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out),
                     "--eval-every", "2"]) == 0
    rows = (out / "train_log.tsv").read_text().splitlines()
    epoch1, epoch2 = rows[1].split("\t"), rows[2].split("\t")
    assert epoch1[3] == "" and epoch2[3] != ""  # hr10 only on eval epochs
    assert 0.0 <= float(epoch2[3]) <= 1.0


def test_train_zero_epochs_writes_initial_checkpoint(dataset_dir, tmp_path):
    out = tmp_path / "run"
    args = _base_args(dataset_dir, out)
    args[args.index("--epochs") + 1] = "0"
    assert cli.main(["train", *args]) == 0
    assert (out / "model.ckpt").exists()
    log = (out / "train_log.tsv").read_text().splitlines()
    assert len(log) == 1  # header only


def test_train_determinism_same_seed(dataset_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["train", *_base_args(dataset_dir, out_a)])
    cli.main(["train", *_base_args(dataset_dir, out_b)])
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    # loss columns identical; wall-clock column may differ
    losses = [[ln.split("\t")[1] for ln in (p / "train_log.tsv").read_text().splitlines()[1:]]
              for p in (out_a, out_b)]
    assert losses[0] == losses[1]


def test_eval_checkpoint_dimension_mismatch(dataset_dir, tmp_path):
    out = tmp_path / "run"
    cli.main(["train", *_base_args(dataset_dir, out)])
    other = make_planted_dataset(num_users=12, num_items=140, num_relations=3,
                                 interactions_per_user=6, seed=1)
    d2 = tmp_path / "data2"
    d2.mkdir()
    for name, pairs in (("interactions.tsv", other.interactions),
                        ("social.tsv", other.social),
                        ("relations.tsv", other.item_relations)):
        (d2 / name).write_text("\n".join(f"{a}\t{b}" for a, b in pairs) + "\n")
    for command in ("eval", "export-attn"):
        code = cli.main([command, *_base_args(d2, tmp_path / "run2"),
                         "--checkpoint", str(out / "model.ckpt")])
        assert code == cli.EXIT_IO, command


@pytest.mark.parametrize("command, output", [("eval", "metrics.tsv"),
                                             ("export-attn", "attention.tsv")])
@pytest.mark.parametrize("trained, read, have, want", [
    ((), ("--dim", "3"), (4, 1, 2), (3, 1, 2)),
    ((), ("--layers", "2"), (4, 1, 2), (4, 2, 2)),
    ((), ("--memory-units", "3"), (4, 1, 2), (4, 1, 3)),
    (("--variant=-M",), (), (4, 1, 1), (4, 1, 2)),  # -M trains one unit
], ids=["dim", "layers", "memory-units", "-M-read-as-full"])
def test_checkpoint_shape_other_than_the_config_exit_code(dataset_dir, tmp_path, capsys,
                                                          command, output, trained, read,
                                                          have, want):
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out, trained)]) == 0
    capsys.readouterr()
    assert cli.main([command, *_base_args(dataset_dir, out, read)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"checkpoint has (dim, layers, memory_units) = {have}" in err
    assert f"gives {want}" in err
    assert not (out / output).exists()
    # the settings it was trained with read it
    assert cli.main([command, *_base_args(dataset_dir, out, trained)]) == 0
    assert (out / output).exists()


def test_eval_non_finite_checkpoint_exit_code(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", *_base_args(dataset_dir, out)])
    ckpt = load_checkpoint(out / "model.ckpt")
    ckpt.params.embeddings[:] = np.nan
    save_checkpoint(out / "model.ckpt", ckpt.params, ckpt.num_users, ckpt.num_items,
                    ckpt.num_relations)
    assert cli.main(["eval", *_base_args(dataset_dir, out)]) == cli.EXIT_EVAL
    assert "non-finite score" in capsys.readouterr().err
    assert not (out / "metrics.tsv").exists()


def test_eval_checkpoint_header_beyond_file_size_exit_code(dataset_dir, tmp_path, capsys):
    # I = 2^32 - 1, d = 2^16 in a 124-byte file: refused before anything is allocated.
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 2**32 - 1, 0, 0, 2**16,
                                 1, 1, 0, 0, float("nan"), 1e-6) + bytes(64))
    code = cli.main(["eval", *_base_args(dataset_dir, tmp_path / "run"),
                     "--checkpoint", str(bad)])
    assert code == cli.EXIT_IO
    assert "the header needs" in capsys.readouterr().err


def test_split_of_another_seed_is_not_reused(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    args = _base_args(dataset_dir, out)
    seed_at = args.index("--seed") + 1
    args[seed_at] = "7"
    assert cli.main(["build", *args]) == 0
    args[seed_at] = "5"
    assert cli.main(["train", *args]) == cli.EXIT_DATA
    assert "seed 7" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def test_eval_malformed_split_row_exit_code(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", *_base_args(dataset_dir, out)])
    manifest = out / "split.txt"
    lines = manifest.read_text().splitlines()
    lines[3] = "0\t1"  # first test row, no negatives
    manifest.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", *_base_args(dataset_dir, out)]) == cli.EXIT_DATA
    assert "split.txt: line 4:" in capsys.readouterr().err


def test_eval_split_id_beyond_int64_exit_code(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", *_base_args(dataset_dir, out)])
    manifest = out / "split.txt"
    lines = manifest.read_text().splitlines()
    user, _, negatives = lines[3].split("\t")
    lines[3] = f"{user}\t99999999999999999999\t{negatives}"  # first test row
    user, item, negatives = lines[4].split("\t")
    lines[4] = f"{user}\t0_{item}\t{negatives}"  # only int reads it: the row loop runs
    manifest.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", *_base_args(dataset_dir, out)]) == cli.EXIT_DATA
    assert "split.txt: line 4:" in capsys.readouterr().err


def test_ablate_single_variant(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["ablate", *_base_args(dataset_dir, out),
                     "--variant=-ST"]) == 0
    assert (out / "metrics_ST.tsv").exists()
    assert "-ST" in capsys.readouterr().out


ALL_TAGS = {"full", "M", "tau", "LN", "T", "S", "ST"}


@pytest.mark.parametrize("file_variant, flags, tags", [
    ("-M", [], {"M"}),
    ("-M", ["--variant=all"], ALL_TAGS),
    ("-M", ["--variant=-tau"], {"tau"}),
    (None, [], ALL_TAGS),
], ids=["file", "flag-all", "flag-over-file", "unset"])
def test_ablate_runs_the_variant_set_in_the_config_file(dataset_dir, tmp_path, capsys,
                                                        file_variant, flags, tags):
    """A variant set in the file or by a flag is the one run; unset, every variant runs."""
    out = tmp_path / "run"
    lines = [f"interactions = {dataset_dir / 'interactions.tsv'}",
             f"social = {dataset_dir / 'social.tsv'}",
             f"item_relations = {dataset_dir / 'relations.tsv'}",
             f"out = {out}", "seed = 3", "dim = 4", "layers = 1", "memory_units = 2",
             "batch_size = 64", "epochs = 1"]
    if file_variant is not None:
        lines.append(f"variant = {file_variant}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["ablate", "--config", str(path), *flags]) == 0
    assert {p.stem[len("metrics_"):] for p in out.glob("metrics_*.tsv")} == tags
    assert len(capsys.readouterr().out.splitlines()) == len(tags)


def test_plain_ablate_runs_every_variant(dataset_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["ablate", *_base_args(dataset_dir, out, ["--epochs", "1"])]) == 0
    assert {p.stem[len("metrics_"):] for p in out.glob("metrics_*.tsv")} == ALL_TAGS


@pytest.mark.parametrize("cutoffs", ["", ",", "0,-5", "5,0", "10,5,10", "5,x"])
@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_bad_cutoffs_are_a_usage_error(dataset_dir, tmp_path, capsys, command, cutoffs):
    out = tmp_path / "run"
    if command == "eval":
        assert cli.main(["train", *_base_args(dataset_dir, out, ["--epochs", "0"])]) == 0
    argv = [command, *_base_args(dataset_dir, out, ["--variant=-ST"]), f"--cutoffs={cutoffs}"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"cutoffs {cutoffs!r}" in capsys.readouterr().err
    assert not list(out.glob("metrics*.tsv"))


@pytest.mark.parametrize("command, flags", [
    ("train", ["--epochs=-1"]), ("train", ["--dim=0"]), ("ablate", ["--lr=-1"]),
    ("ablate", ["--cutoffs=0,-5"]), ("train", ["--variant=bogus"]),
    ("eval", ["--variant=bogus"]), ("export-attn", ["--variant=bogus"]),
    ("ablate", ["--variant=bogus"]), ("train", ["--variant=all"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_bad_setting_exits_before_anything_is_written(dataset_dir, tmp_path, capsys,
                                                      command, flags):
    out = tmp_path / "run"
    assert cli.main([command, *_base_args(dataset_dir, out, flags)]) == cli.EXIT_USAGE
    assert "error: " in capsys.readouterr().err
    assert not (out / "split.txt").exists()


@pytest.mark.parametrize("flag", ["--lr=nan", "--lr=inf", "--lambda=nan", "--lambda=inf"])
def test_non_finite_lr_or_reg_is_a_usage_error(dataset_dir, tmp_path, capsys, flag):
    # train --lr nan exited 0 with a checkpoint whose every parameter was NaN.
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out, [flag])]) == cli.EXIT_USAGE
    assert "lr and reg must be finite and >= 0" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("given_by", ["flag", "config"])
@pytest.mark.parametrize("name", ["seed", "eval_every"])
def test_a_negative_seed_or_eval_every_is_a_usage_error(dataset_dir, tmp_path, capsys, name,
                                                        given_by):
    # train --eval-every=-1 evaluated on every epoch and exited 0; train --seed=-1 exited 2
    # with numpy's "expected non-negative integer" after reading the edge files.
    out = tmp_path / "run"
    argv = ["train", *_base_args(dataset_dir, out)]
    if given_by == "flag":
        argv.append(f"--{name.replace('_', '-')}=-1")
    else:
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        (tmp_path / "run.cfg").write_text(f"{name} = -1\n", encoding="utf-8")
        argv.append(f"--config={tmp_path / 'run.cfg'}")
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"error: {name} must be >= 0, not -1" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_non_finite_parameters_before_writing(dataset_dir, tmp_path, capsys,
                                                            monkeypatch):
    real = cli.train_model

    def one_nan(*args, **kwargs):
        params, adam, losses = real(*args, **kwargs)
        params.vector[7] = np.nan
        return params, adam, losses

    monkeypatch.setattr(cli, "train_model", one_nan)
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out)]) == cli.EXIT_NUMERIC
    assert "1 trained parameters are not finite" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("cutoffs", ["101", "10,500"])
def test_a_cutoff_above_the_negatives_is_a_usage_error(dataset_dir, tmp_path, capsys, cutoffs):
    # HR@101 ranks one held-out item among 101 candidates: 1 by construction.
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out, ["--epochs", "0"])]) == 0
    argv = ["eval", *_base_args(dataset_dir, out), f"--cutoffs={cutoffs}"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"cutoffs {cutoffs!r}: a cutoff above 100" in capsys.readouterr().err
    assert not (out / "metrics.tsv").exists()
    assert cli.main(["eval", *_base_args(dataset_dir, out), "--cutoffs=10,100"]) == 0
    assert "\t100\tall\t" in (out / "metrics.tsv").read_text()


def test_a_config_key_set_twice_is_a_usage_error(dataset_dir, tmp_path, capsys):
    # dim = 4 then dim = 8 trained at d = 8 without a word.
    out = tmp_path / "run"
    path = tmp_path / "run.cfg"
    path.write_text(f"interactions = {dataset_dir / 'interactions.tsv'}\n"
                    "dim = 4\n# a comment\nepochs = 1\ndim = 8\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == cli.EXIT_USAGE
    assert f"{path}:5: config key 'dim' is set again (line 2 set it first)" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_eval_split_listing_a_user_twice_exit_code(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out, ["--epochs", "0"])]) == 0
    manifest = out / "split.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[3]]) + "\n")
    assert cli.main(["eval", *_base_args(dataset_dir, out)]) == cli.EXIT_DATA
    assert f"split.txt: line {len(lines) + 1}: holds " in capsys.readouterr().err
    assert not (out / "metrics.tsv").exists()


def test_export_attn(dataset_dir, tmp_path):
    out = tmp_path / "run"
    cli.main(["train", *_base_args(dataset_dir, out)])
    assert cli.main(["export-attn", *_base_args(dataset_dir, out)]) == 0
    lines = (out / "attention.tsv").read_text().splitlines()
    assert len(lines) == 30 * 2


def _set_ln_eps(path, value):
    data = bytearray(path.read_bytes())
    _HEADER.pack_into(data, 0, *_HEADER.unpack_from(data, 0)[:-1], value)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("ln_eps", [float("inf"), float("nan"), 0.0, -1.0])
def test_checkpoint_ln_eps_no_forward_can_use_exit_code(dataset_dir, tmp_path, capsys, ln_eps):
    # With only the header's ln_eps patched, inf gave eval metrics and NaN an export of nan rows.
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out)]) == 0
    _set_ln_eps(out / "model.ckpt", ln_eps)
    for command, written in (("eval", "metrics.tsv"), ("export-attn", "attention.tsv")):
        assert cli.main([command, *_base_args(dataset_dir, out)]) == cli.EXIT_IO, command
        assert f"ln_eps={ln_eps!r}, not a finite value > 0" in capsys.readouterr().err
        assert not (out / written).exists()


def test_export_attn_non_finite_attention_exit_code(dataset_dir, tmp_path, capsys):
    # A NaN in one ui key made export-attn write a row of nan for every user and exit 0.
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out)]) == 0
    ckpt = load_checkpoint(out / "model.ckpt")
    ckpt.params.banks[EdgeType.UI].keys[0, 0] = np.nan
    save_checkpoint(out / "model.ckpt", ckpt.params, ckpt.num_users, ckpt.num_items,
                    ckpt.num_relations)
    assert cli.main(["export-attn", *_base_args(dataset_dir, out)]) == cli.EXIT_EVAL
    assert "non-finite attention for user 0" in capsys.readouterr().err
    assert not (out / "attention.tsv").exists()


def test_train_then_eval_under_each_variant_matches_ablate(dataset_dir, tmp_path):
    for variant in ("full", "-M", "-tau", "-LN", "-T", "-S", "-ST"):
        out = tmp_path / variant
        args = [*_base_args(dataset_dir, out), f"--variant={variant}"]
        for command in ("train", "eval", "ablate"):
            assert cli.main([command, *args]) == 0, (command, variant)
        assert (out / "metrics.tsv").read_bytes() == (
            out / f"metrics_{variant.lstrip('-')}.tsv").read_bytes(), variant
        if variant == "-M":
            assert cli.main(["export-attn", *args]) == 0
            rows = (out / "attention.tsv").read_text().splitlines()
            assert len(rows) == 30 * 2
            assert all(len(row.split("\t")[2].split(",")) == 1 for row in rows)


def test_config_file_overridden_by_flags(dataset_dir, tmp_path):
    cfg = cli.RunConfig(interactions=str(dataset_dir / "interactions.tsv"),
                        social=str(dataset_dir / "social.tsv"),
                        item_relations=str(dataset_dir / "relations.tsv"),
                        out=str(tmp_path / "cfg_out"), dim=4, layers=1,
                        memory_units=2, batch_size=64, epochs=1, seed=3)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(cli.RunConfig)),
                    encoding="utf-8")
    out2 = tmp_path / "flag_out"
    assert cli.main(["train", "--config", str(path), "--out", str(out2)]) == 0
    assert (out2 / "model.ckpt").exists()

    # Every flag lands in its own field, over the config file's value.
    parser = cli.build_parser()
    assert cli._resolve_config(parser.parse_args(["train", "--config", str(path)])) == cfg
    flags = {"--interactions": ("interactions", "i.tsv"), "--social": ("social", "s.tsv"),
             "--item-relations": ("item_relations", "r.tsv"), "--out": ("out", "o"),
             "--dim": ("dim", 5), "--layers": ("layers", 3), "--memory-units": ("memory_units", 6),
             "--lr": ("lr", 0.5), "--batch": ("batch_size", 7), "--lambda": ("reg", 0.25),
             "--epochs": ("epochs", 11), "--seed": ("seed", 9), "--cutoffs": ("cutoffs", "1,2"),
             "--variant": ("variant", "-M"), "--eval-every": ("eval_every", 4)}
    assert {name for name, _ in flags.values()} == {f.name for f in fields(cli.RunConfig)}
    argv = ["train", "--config", str(path),
            *(f"{flag}={value}" for flag, (_, value) in flags.items())]
    resolved = cli._resolve_config(parser.parse_args(argv))
    assert resolved == cli.RunConfig(**dict(flags.values()))
    assert {f.name: getattr(resolved, f.name) for f in fields(TrainingConfig)} == asdict(
        TrainingConfig(dim=5, layers=3, memory_units=6, lr=0.5, batch_size=7, reg=0.25,
                       epochs=11, seed=9))


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    for line in ("bogus_key = 1", "threads = 2"):  # threads: a removed key
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            cli._config_values(path)


def test_grad_check_command(capsys):
    assert cli.main(["grad-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS, max rel err" in out
    coords = int(re.search(r"^\d+ instances, (\d+) coordinates checked$", out, re.M).group(1))
    evals = re.search(r"^(\d+) objective evaluations in \d+\.\d\d s$", out, re.M)
    assert evals is not None and int(evals.group(1)) == 2 * coords


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0", "-1e-4"])
def test_grad_check_refuses_a_tolerance_no_error_can_fail(tol, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(training, "_random_instance", lambda *args: drawn.append(args))
    assert cli.main(["grad-check", f"--tol={tol}"]) == cli.EXIT_USAGE
    assert drawn == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number > 0" in captured.err
    with pytest.raises(ValueError, match="expected a finite number > 0"):
        training.check_model_gradients(tol=float(tol))
    assert drawn == []


def test_bench_command_emits_table(capsys):
    assert cli.main(["bench", "--base-edges", "4000", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "ratio" in out
    assert "edges x2" in out and "units" in out


# ---------------------------------------------------------------------------
# property test over the run settings


# Each setting's edge values: at and around its bound, non-finite, malformed.
_EDGE_FLOAT = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, 1e300])
               | st.floats())
_EDGE = {
    "dim": st.sampled_from([-1, 0, 1]), "layers": st.sampled_from([-1, 0, 1]),
    "memory_units": st.sampled_from([-1, 0, 1]), "batch_size": st.sampled_from([-1, 0, 1, 2]),
    "epochs": st.sampled_from([-1, 0]), "seed": st.sampled_from([-1, 0, 2 ** 64]),
    "eval_every": st.sampled_from([-1, 0, 1]), "lr": _EDGE_FLOAT, "reg": _EDGE_FLOAT,
    "cutoffs": (st.lists(st.sampled_from(["1", "99", "100", "101", "500"]), min_size=1,
                         max_size=3, unique=True)
                | st.lists(st.sampled_from(["-1", "0", "1", "x", " "]), max_size=3)).map(",".join),
    "variant": st.sampled_from(["full", "-M", "-ST", "all", "none"]),
}
# Typical values; d, L and the epochs stay tiny, and one batch covers the tiny set.
_TYPICAL = {
    "dim": st.sampled_from([2, 4]), "layers": st.sampled_from([1, 2]),
    "memory_units": st.sampled_from([1, 2]), "batch_size": st.sampled_from([64, 2048]),
    "epochs": st.just(1), "seed": st.sampled_from([0, 3]), "eval_every": st.just(0),
    "lr": st.floats(0.0, 1.0), "reg": st.floats(0.0, 1.0),
    "cutoffs": st.sampled_from(["5,10,20", "100"]), "variant": st.sampled_from(["full", "-M"]),
}
_DEFAULTS = {"dim": 2, "layers": 1, "memory_units": 2, "batch_size": 2048, "epochs": 1}
_CLI_EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC, cli.EXIT_IO,
                   cli.EXIT_EVAL}


def _flag(name):
    """The flag of a RunConfig field (``_add_common``)."""
    return {"batch_size": "--batch", "reg": "--lambda"}.get(name, "--" + name.replace("_", "-"))


def _flags(**settings):
    """(flags, no config lines) for ``settings`` over ``_DEFAULTS``: an explicit example."""
    return {_flag(name): value for name, value in {**_DEFAULTS, **settings}.items()}, []


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    ds = make_planted_dataset(num_users=30, num_items=160, num_relations=4,
                              interactions_per_user=8, seed=9)
    return write_edge_files(tmp_path_factory.mktemp("data"), ds)


@st.composite
def _run_settings(draw):
    """(flags, config-file lines): one or two settings at an edge value and a few typical
    ones over ``_DEFAULTS``, each given by a flag or in the file; the file may repeat a key."""
    names = sorted(_EDGE)
    edge = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    typical = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    values = {**_DEFAULTS, **{name: draw(_TYPICAL[name]) for name in typical},
              **{name: draw(_EDGE[name]) for name in edge}}
    flags, lines = {}, []
    for name, value in values.items():
        # --eval-every is a train flag only, so it goes in the file
        if name == "eval_every" or draw(st.booleans()):
            lines.append(f"{name} = {value}")
        else:
            flags[_flag(name)] = value
    if lines and draw(st.booleans()):
        name = draw(st.sampled_from(lines)).split(" = ")[0]
        lines.append(f"{name} = {draw(_EDGE[name] | _TYPICAL[name])}")
    return flags, lines


def _exit_code(argv) -> int:
    """``cli.main``'s exit code; argparse's usage errors exit through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _numbers_in(path):
    """Every number a written file holds: the parameters of a checkpoint, each token of text."""
    if path.suffix == ".ckpt":
        return load_checkpoint(path).params.vector.tolist()
    out = []
    for token in re.split(r"[\s:=,()]+", path.read_text(encoding="utf-8")):
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


@settings(max_examples=60, deadline=None)
@given(_run_settings())
# each refusal that a run once passed through to a quietly wrong output
@example(_flags(lr=math.nan))
@example(_flags(lr=math.inf))
@example(_flags(reg=math.nan))
@example(_flags(cutoffs="100,101"))
@example((_flags()[0], ["dim = 4", "dim = 2"]))
def test_any_run_settings_exit_documented_and_write_finite_numbers(tiny_data, drawn):
    """train, eval and export-attn under drawn settings: a documented exit code, never a
    traceback; what a run that exits 0 writes is finite, and no cutoff is above 100."""
    flags, lines = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        argv = [f"--interactions={tiny_data['interaction']}", f"--social={tiny_data['social']}",
                f"--item-relations={tiny_data['item_relation']}", f"--out={out}"]
        argv += [f"{flag}={value}" for flag, value in flags.items()]
        if lines:
            (Path(tmp) / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv.append(f"--config={Path(tmp) / 'run.cfg'}")
        for command in ("train", "eval", "export-attn"):
            code = _exit_code([command, *argv])
            assert code in _CLI_EXIT_CODES, (command, code)
            if code != cli.EXIT_OK:
                break
            for path in out.iterdir():
                assert np.isfinite(_numbers_in(path)).all(), path.name
            if command == "eval":
                cutoffs = [int(line.split("\t")[1]) for line in
                           (out / "metrics.tsv").read_text(encoding="utf-8").splitlines()]
                assert 1 <= min(cutoffs) and max(cutoffs) <= 100
