"""dgnnrec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload planted-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory, never from an installed copy. The workload's
inputs are generated from ``--seed`` and written as edge files; set-up
(edge files to ready-to-run) is repeated and its median reported. The
workload then repeats its iteration for ``--seconds`` seconds, and at
least twice so that the bitwise-determinism check has a pair. Times are
reported in nominal seconds (see reference.py). With ``--trace 1`` half
of that time runs untraced and half with every public entry point
wrapped in a span, and the per-layer self times are printed instead of
the end-to-end figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every check passed, 1 when a check failed, and 2 when the
package or the arguments are unusable (no result is printed then).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 100, 2.0

# .calls is reported for these layers; busy_s for every traced one.
CALL_COUNTED = ("hetgraph.sample_bpr_batch", "model.layer_step", "model.params_roundtrip",
                "diffengine.adam_step", "training.bpr_batch_loss")
GRAPH_COUNTS = ("hetgraph.edges.ui", "hetgraph.edges.uu", "hetgraph.edges.ir",
                "model.in_degree.uu", "model.in_degree.ui", "model.in_degree.iu",
                "model.in_degree.ir", "model.in_degree.ri", "model.messages_per_layer",
                "model.params", "training.steps_per_epoch")


class UnusableCheckout(RuntimeError):
    pass


def import_package():
    """Put the checkout's src first on the path and check dgnnrec comes from it."""
    pkg = SRC / "dgnnrec"
    if not (pkg / "__init__.py").is_file():
        raise UnusableCheckout(f"no dgnnrec package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dgnnrec
    if Path(dgnnrec.__file__).resolve().parent != pkg.resolve():
        raise UnusableCheckout(f"dgnnrec imported from {dgnnrec.__file__}, not {pkg}")
    return dgnnrec


# ---------------------------------------------------------------------------
# provenance


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "dgnnrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_revision": _git_revision(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measuring


def repeat(workload, ready, seconds: float, min_iterations: int, reference, tracer=None):
    """Iterate until ``seconds`` have passed and ``min_iterations`` are done.

    Returns the iterations and the reference timings taken meanwhile.
    """
    from workloads import Iteration
    done = []
    ready.clock = reference.clock
    with reference.sampling(tracer) as refs:
        started = time.perf_counter()
        while len(done) < min_iterations or time.perf_counter() - started < seconds:
            try:
                if tracer is None:
                    done.append(workload.iterate(ready))
                else:
                    with tracer.span("bench.iteration"):
                        done.append(workload.iterate(ready))
            except Exception as exc:  # a failing library call ends the run as a failure
                traceback.print_exc(file=sys.stderr)
                done.append(Iteration([], [("iteration", f"{type(exc).__name__}: {exc}")],
                                      "", {}))
                break
    return done, refs


def layer_metrics(tracer, iterations: int, test_users: int, num_candidates: int) -> dict:
    """Self seconds and calls per layer for one set-up plus one iteration."""
    import numpy as np
    from tracer import ENTRY_POINTS
    name_id, _, start, end = tracer.arrays()
    self_s = tracer.self_times()
    root_name = name_id[tracer.roots()]
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_setup = root_name == ids.get("bench.setup", -1)
    in_iter = root_name == ids.get("bench.iteration", -1)
    weight = np.where(in_setup, 1.0, np.where(in_iter, 1.0 / max(iterations, 1), 0.0))
    busy = np.bincount(name_id, weights=self_s * weight, minlength=len(tracer.names))
    calls = np.bincount(name_id, weights=weight, minlength=len(tracer.names))
    out = {}
    for span in dict.fromkeys(name for _, _, name in ENTRY_POINTS):
        i = ids.get(span)
        out[f"{span}.busy_s"] = ("s", float(busy[i]) if i is not None else 0.0)
        if span in CALL_COUNTED:
            out[f"{span}.calls"] = ("count", float(calls[i]) if i is not None else 0.0)
    # Share of the iterations' time, reference sampling left out, that
    # falls in the self time of some package entry point.
    bench = np.array([n.startswith("bench.") for n in tracer.names])[name_id]
    sampling = name_id == ids.get("bench.reference", -1)
    measured = float((end - start)[name_id == ids.get("bench.iteration", -1)].sum()
                     - (end - start)[sampling & in_iter].sum())
    library = in_iter & ~bench
    out["trace.coverage"] = ("ratio", float(self_s[library].sum()) / measured
                             if measured > 0 else 0.0)
    out["trace.spans_per_iteration"] = ("count", float(library.sum()) / max(iterations, 1))

    def per_iter(span):
        i = ids.get(span)
        return float(calls[i]) if i is not None else 0.0
    # bpr_batch_grad evaluates the objective too, alongside computing the gradient.
    out["training.objective_evals"] = ("count", per_iter("training.bpr_batch_loss")
                                       + per_iter("training.bpr_batch_grad"))
    out["evaluation.candidates_scored"] = (
        "count", per_iter("evaluation.evaluate") * test_users * num_candidates)
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  workdir: Path, scale=None):
    """One benchmark run; returns (result object, run record)."""
    import workloads as wl
    from reference import Reference, in_nominal_seconds
    from tracer import Tracer, install
    scale = scale or wl.FULL
    workload = wl.WORKLOADS[name]
    inputs = wl.generate(name, seed, workdir, scale)
    reference = Reference()

    setup_s = []
    with reference.sampling() as setup_refs:
        while len(setup_s) < MIN_SETUPS or (sum(setup_s) < SETUP_SECONDS
                                            and len(setup_s) < MAX_SETUPS):
            t0 = reference.clock()
            ready = wl.setup(name, seed, inputs, workdir, scale)
            setup_s.append(reference.clock() - t0)

    untraced, refs = repeat(workload, ready, seconds / 2 if trace else seconds,
                            1 if trace else 2, reference)
    traced, traced_refs, absent, tracer = [], [], [], None
    if trace and all(not p for it in untraced for _, p in it.ops):
        tracer = Tracer()
        restore, absent = install(tracer)
        try:
            with tracer.span("bench.setup"):
                ready = wl.setup(name, seed, inputs, workdir, scale)
            traced, traced_refs = repeat(workload, ready, seconds / 2, 1, reference, tracer)
        finally:
            restore()

    ops = [op for it in untraced + traced for op in it.ops]
    digests = [it.digest for it in untraced + traced if it.digest]
    for i, digest in enumerate(digests[1:], start=2):
        if digest != digests[0]:
            ops.append(("determinism", f"iteration {i} digest {digest[:16]} differs from "
                                       f"iteration 1 digest {digests[0][:16]}"))
    failures = [f"{kind}: {problem}" for kind, problem in ops if problem]
    attempted = max(len(ops), 1)

    op_s = [s for it in untraced for s in it.op_seconds]
    op_nominal = in_nominal_seconds(op_s, refs) if op_s else 0.0
    counts = wl.graph_counts(ready)
    quality = next((it.quality for it in reversed(untraced + traced) if it.quality), {})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    if not trace:
        metrics = {
            "setup_s": ("s", in_nominal_seconds(setup_s, setup_refs)),
            "op_s": ("s", op_nominal),
            "peak_rss_mb": ("MB", peak_rss_mb),
        }
    elif tracer is not None:
        metrics = layer_metrics(tracer, len(traced), counts.get("evaluation.test_users", 0),
                                wl.NUM_CANDIDATES)
        for key in GRAPH_COUNTS:
            metrics[key] = ("count", float(counts.get(key, 0)))
        op_traced = [s for it in traced for s in it.op_seconds]
        metrics["trace.overhead_ratio"] = (
            "ratio", in_nominal_seconds(op_traced, traced_refs) / op_nominal
            if op_traced and op_nominal else 0.0)

    record = {
        "workload": name,
        "why": workload.why,
        "op": workload.op,
        "provenance": provenance(seed),
        "graph": counts,
        "setup_s": setup_s,
        "setup_reference_s": setup_refs,
        "op_s": op_s,
        "op_nominal_s": op_nominal,
        "reference_s": refs,
        "op_s_traced": [s for it in traced for s in it.op_seconds],
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "quality": quality,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "fail_rate": len(failures) / attempted,
        "failures": failures,
        "absent_entry_points": absent,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (u, v) in metrics.items()},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"record-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_tsv(workdir / "spans.tsv")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: each layer's busy time is then
    # its wall time, and runs do not depend on the machine's core count.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_package()
    except (UnusableCheckout, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}"
    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    print(f"# {record['workload']}: {record['why']}")
    op_s = record["op_s"]
    print(f"# op = {record['op']}; {len(op_s)} samples, median "
          f"{statistics.median(op_s) if op_s else float('nan'):.4f} s; "
          f"quality {json.dumps(record['quality'])}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
