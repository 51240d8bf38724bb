"""Command-line entry point: build / train / eval / ablate / export-attn /
grad-check / bench.

Runs are reproducible: a config file (plain ``key = value`` lines) plus a
root seed fully determine every output except wall-clock fields, bitwise
for a fixed BLAS build and BLAS thread count. CLI flags override
config-file values. Every command that reads data draws the split from
it and the seed; a split manifest already in the output directory must
hold exactly that split's bytes, except for ``build``, which rewrites it.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import diffengine as de
from .evaluation import (DEFAULT_CUTOFFS, AblationVariant, EvaluationError, evaluate,
                         export_memory_attention, report_lines, report_table,
                         run_ablation)
from .hetgraph import (NUM_EVAL_NEGATIVES, EdgeFileError, GraphBuildError, SamplingError,
                       SplitError, build_graph, check_split_manifest, load_edge_file,
                       save_split_manifest, split_leave_one_out)
from .model import forward
from .training import (CheckpointError, TrainingConfig, check_model_gradients,
                       load_checkpoint, save_checkpoint, train_model)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5
EXIT_EVAL = 6


@dataclass(frozen=True)
class RunConfig(TrainingConfig):
    """A run's settings: the training config plus the data, output and evaluation ones.

    Every value is checked on construction, so a bad setting is a ValueError
    before anything is read or written. ``variant`` may be ``all`` here;
    only ``ablate`` accepts it (see ``_resolve_config``).
    """

    interactions: str = ""
    social: str = ""
    item_relations: str = ""
    out: str = "runs/out"
    cutoffs: str = ",".join(map(str, DEFAULT_CUTOFFS))
    variant: str = "full"
    eval_every: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, not {self.eval_every!r}")
        self.cutoff_list()
        if self.variant != "all":
            AblationVariant.parse(self.variant)

    def cutoff_list(self) -> tuple[int, ...]:
        """The comma-separated ``cutoffs``; ValueError unless they are distinct positive ints
        of at most NUM_EVAL_NEGATIVES (a held-out item ranks among that many + 1)."""
        out = tuple(int(x) if x.strip().isdigit() else 0
                    for x in self.cutoffs.split(",") if x.strip())
        if not out or min(out) < 1 or len(set(out)) < len(out):
            raise ValueError(f"cutoffs {self.cutoffs!r}: expected distinct positive integers")
        if max(out) > NUM_EVAL_NEGATIVES:
            raise ValueError(f"cutoffs {self.cutoffs!r}: a cutoff above {NUM_EVAL_NEGATIVES}, "
                             f"the number of sampled negatives, counts every test user a hit")
        return out


def _config_values(path) -> dict:
    """The settings a config file gives, each cast to its field's type; the rest are absent."""
    values, set_on = {}, {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is set again "
                             f"(line {set_on[key]} set it first)")
        values[key], set_on[key] = value, lineno
    defaults = RunConfig()
    names = {f.name for f in fields(RunConfig)}
    for key, value in values.items():
        if key not in names:
            raise ValueError(f"{path}: unknown config key {key!r}")
        values[key] = type(getattr(defaults, key))(value)
    return values


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_config(args) -> RunConfig:
    """The config file's values (or the defaults), overridden by every flag given.

    Each flag's argparse ``dest`` is the name of its RunConfig field. A
    variant set neither in the file nor by ``--variant`` is ``all`` for
    ``ablate`` and ``full`` for the other commands. Raises ValueError on a
    bad setting, and on variant ``all`` outside ``ablate``.
    """
    values = _config_values(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    if args.command == "ablate":
        values.setdefault("variant", "all")
    cfg = RunConfig(**values)
    if cfg.variant == "all" and args.command != "ablate":
        raise ValueError(f"variant 'all' is for ablate only, not {args.command}")
    return cfg


def _prepare(args):
    """(run config, its output directory, created, the data's graph, its split under the seed).

    Every data command's one path from flags to data. ``build`` rewrites
    ``split.txt``; the others write it when absent and otherwise require the
    file to hold exactly the split's bytes (SplitError).
    """
    cfg = _resolve_config(args)
    if not cfg.interactions:
        raise GraphBuildError("no interactions file configured")
    no_edges = np.empty((0, 2), dtype=np.int64)
    ui = load_edge_file(cfg.interactions, "interaction")
    uu = load_edge_file(cfg.social, "social") if cfg.social else no_edges
    ir = load_edge_file(cfg.item_relations, "item_relation") if cfg.item_relations else no_edges
    if not ui.size:
        raise GraphBuildError("no interactions")
    graph = build_graph(ui, uu, ir, 1 + int(max(ui[:, 0].max(), uu.max(initial=-1))),
                        1 + int(max(ui[:, 1].max(), ir[:, 0].max(initial=-1))),
                        1 + int(ir[:, 1].max(initial=-1)))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    split = split_leave_one_out(graph, cfg.seed)
    path = out / "split.txt"
    if args.command != "build" and path.exists():
        check_split_manifest(split, path)
    else:
        save_split_manifest(split, path)
    return cfg, out, graph, split


def _variant_run(args):
    """``_prepare``'s (config, output directory, split) with the split on the graph of
    variant ``cfg.variant``, then that variant's model switches and training config."""
    cfg, out, _, split = _prepare(args)
    split, model_variant, tc = AblationVariant.parse(cfg.variant).apply(split, cfg)
    return cfg, out, split, model_variant, tc


def _forward_checkpoint(args):
    """(config, output directory, split on the variant's graph, model variant,
    parameters, layer state) of the checkpoint trained on this data, run forward.

    CheckpointError, before the forward, when the checkpoint's node counts
    differ from the data's or its (dim, layers, memory_units) from the
    variant's config, which is how ``-M`` (one unit) is told apart.
    """
    cfg, out, split, model_variant, tc = _variant_run(args)
    graph = split.train_graph
    ckpt = load_checkpoint(args.checkpoint or out / "model.ckpt")
    if (ckpt.num_users, ckpt.num_items, ckpt.num_relations) != (
            graph.num_users, graph.num_items, graph.num_relations):
        raise CheckpointError("checkpoint dimensions do not match the data")
    params = ckpt.params
    want = (tc.dim, tc.layers, tc.memory_units)
    have = (params.dim, params.num_layers, params.num_units)
    if want != have:
        raise CheckpointError(f"checkpoint has (dim, layers, memory_units) = {have}, but "
                              f"the config under variant {cfg.variant!r} gives {want}")
    return cfg, out, split, model_variant, params, forward(graph, params, model_variant)


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    _, out, graph, split = _prepare(args)

    y_density = graph.num_interactions / (graph.num_users * graph.num_items)
    s_density = (graph.uu.num_edges / (graph.num_users ** 2)) if graph.num_users else 0.0
    print(f"users: {graph.num_users}")
    print(f"items: {graph.num_items}")
    print(f"relation nodes: {graph.num_relations}")
    print(f"interactions: {graph.num_interactions} (density {100 * y_density:.4f}%)")
    print(f"social ties (directed): {graph.uu.num_edges} (density {100 * s_density:.4f}%)")
    print(f"item-relation links: {graph.ir.num_edges}")
    print(f"test users: {split.test_users.size} (skipped single-interaction: {split.num_skipped})")
    print(f"wrote {out / 'split.txt'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, out, split, model_variant, tc = _variant_run(args)
    graph = split.train_graph

    log_path = out / "train_log.tsv"
    log_rows = ["epoch\tloss\tseconds\thr10\tndcg10"]

    def on_epoch(epoch, params, mean_loss, seconds):
        hr10 = ndcg10 = ""
        if cfg.eval_every and (epoch % cfg.eval_every == 0 or epoch == tc.epochs):
            state = forward(graph, params, model_variant)
            rep = evaluate(state.hstar, split, graph, (10,), model_variant)
            hr10, ndcg10 = f"{rep.hr[10]:.6f}", f"{rep.ndcg[10]:.6f}"
        log_rows.append(f"{epoch}\t{mean_loss:.10f}\t{seconds:.3f}\t{hr10}\t{ndcg10}")
        print(f"epoch {epoch:>4d}  loss {mean_loss:.6f}  {seconds:.2f}s"
              + (f"  hr@10 {hr10} ndcg@10 {ndcg10}" if hr10 else ""))

    params, _, losses = train_model(graph, tc, model_variant, on_epoch=on_epoch)
    if not np.isfinite(params.vector).all():
        raise de.NonFiniteError(f"{np.count_nonzero(~np.isfinite(params.vector))} trained "
                                f"parameters are not finite; no checkpoint written")
    last_loss = losses[-1] if losses else float("nan")
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt_path, params, graph.num_users, graph.num_items,
                    graph.num_relations, epoch=tc.epochs, loss=last_loss)
    log_path.write_text("\n".join(log_rows) + "\n", encoding="utf-8")
    print(f"wrote {ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, out, split, model_variant, _, state = _forward_checkpoint(args)
    report = evaluate(state.hstar, split, split.train_graph, cfg.cutoff_list(), model_variant)
    (out / "metrics.tsv").write_text(report_lines(report), encoding="utf-8")
    (out / "report.txt").write_text(report_table(report), encoding="utf-8")
    print(report_table(report), end="")
    print(f"wrote {out / 'metrics.tsv'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg, out, _, split = _prepare(args)
    wanted = (list(AblationVariant) if cfg.variant == "all"
              else [AblationVariant.parse(cfg.variant)])
    cutoffs = cfg.cutoff_list()
    n = cutoffs[min(1, len(cutoffs) - 1)]
    for variant in wanted:
        report = run_ablation(variant, split, cfg, cutoffs)
        tag = variant.value.lstrip("-")
        (out / f"metrics_{tag}.tsv").write_text(report_lines(report), encoding="utf-8")
        print(f"{variant.value:<5s} HR@{n} {report.hr[n]:.4f}  NDCG@{n} {report.ndcg[n]:.4f}")
    return EXIT_OK


def cmd_export_attn(args) -> int:
    _, out, split, model_variant, params, state = _forward_checkpoint(args)
    path = out / "attention.tsv"
    export_memory_attention(state, split.train_graph, params.banks, path, model_variant)
    print(f"wrote {path} ({2 * split.train_graph.num_users} rows)")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    started = time.perf_counter()
    result = check_model_gradients(seed=args.seed, tol=args.tol)
    seconds = time.perf_counter() - started
    for name, err in sorted(result.worst_by_group().items()):
        print(f"{name:<28s} max rel err {err:.3e}")
    coords = sum(c.report.num_coords for c in result.cases)
    print(f"{len(result.cases)} instances, {coords} coordinates checked")
    # Central differences evaluate the objective twice per coordinate. Wall
    # clock stays on its own line, apart from the deterministic ones.
    print(f"{2 * coords} objective evaluations in {seconds:.2f} s")
    if result.passed:
        print(f"PASS, max rel err {result.max_rel_err:.3e} < {result.tol:g}")
        return EXIT_OK
    print(f"FAIL, max rel err {result.max_rel_err:.3e} >= {result.tol:g}")
    return EXIT_NUMERIC


def cmd_bench(args) -> int:
    rows = bench_mod.scaling_table(base_edges=args.base_edges, reps=args.reps, seed=args.seed)
    print(bench_mod.format_bench_table(rows), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    """``--config`` and a flag per RunConfig field but ``eval_every``, typed as its default.

    A flag is its field's name with ``-`` for ``_``, except ``--batch`` and ``--lambda``.
    """
    p.add_argument("--config", help="key = value config file")
    defaults = RunConfig()
    for f in fields(RunConfig):
        if f.name != "eval_every":
            flag = {"batch_size": "batch", "reg": "lambda"}.get(f.name, f.name).replace("_", "-")
            p.add_argument(f"--{flag}", dest=f.name, type=type(getattr(defaults, f.name)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dgnnrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest edge files, report stats, write the split")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train and write a checkpoint")
    _add_common(p)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train + evaluate one or all ablation variants")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-attn", help="write per-user memory attention vectors")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_export_attn)

    p = sub.add_parser("grad-check", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("bench", help="layer-step CPU-time scaling table vs |E| and M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-edges", dest="base_edges", type=int, default=30000)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(func=cmd_bench)
    return parser


_ERROR_CODES = (
    ((EdgeFileError, GraphBuildError, SplitError, SamplingError), EXIT_DATA),
    ((de.NonFiniteError, de.ShapeError), EXIT_NUMERIC),
    ((CheckpointError, OSError), EXIT_IO),
    ((EvaluationError,), EXIT_EVAL),
    ((ValueError, MemoryError), EXIT_USAGE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map failure classes to distinct exit codes
        for types, code in _ERROR_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
