from dataclasses import asdict, fields
import re

import numpy as np
import pytest

from dgnnrec import cli, training
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
    assert "line 2: id beyond int64" in capsys.readouterr().err


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


def test_eval_split_listing_a_user_twice_exit_code(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", *_base_args(dataset_dir, out, ["--epochs", "0"])]) == 0
    manifest = out / "split.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[3]]) + "\n")
    assert cli.main(["eval", *_base_args(dataset_dir, out)]) == cli.EXIT_DATA
    assert f"listed twice, on lines 4 and {len(lines) + 1}" in capsys.readouterr().err
    assert not (out / "metrics.tsv").exists()


def test_export_attn(dataset_dir, tmp_path):
    out = tmp_path / "run"
    cli.main(["train", *_base_args(dataset_dir, out)])
    assert cli.main(["export-attn", *_base_args(dataset_dir, out)]) == 0
    lines = (out / "attention.tsv").read_text().splitlines()
    assert len(lines) == 30 * 2


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


def test_config_file_round_trip(tmp_path):
    cfg = cli.RunConfig(interactions="x.tsv", dim=8, lr=0.05, epochs=7,
                        cutoffs="5,10", variant="-M", seed=42)
    path = tmp_path / "run.cfg"
    cli.save_config(cfg, path)
    assert cli.load_config(path) == cfg


def test_config_file_overridden_by_flags(dataset_dir, tmp_path):
    cfg = cli.RunConfig(interactions=str(dataset_dir / "interactions.tsv"),
                        social=str(dataset_dir / "social.tsv"),
                        item_relations=str(dataset_dir / "relations.tsv"),
                        out=str(tmp_path / "cfg_out"), dim=4, layers=1,
                        memory_units=2, batch_size=64, epochs=1, seed=3)
    path = tmp_path / "run.cfg"
    cli.save_config(cfg, path)
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
            cli.load_config(path)


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
