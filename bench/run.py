"""Run one workload of the sharptail benchmark and print its metrics.

    python3 bench/run.py --workload cf-diagnostic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One process runs whole rounds of the workload's CLI operations
(``sharptail.cli.run`` with the arguments a shell user would type), one
after another, until ``--seconds`` have passed and at least two rounds are
done.  The records are then checked against ``reference.py`` outside the
timed region, and the last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of the time to import ``sharptail.cli`` with its schemas
loaded), ``round_s`` (median wall time of one round) and ``peak_rss_mb``.
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics of ``tracing.py``; spans go to ``bench/out/``.
A readable summary goes to stderr.
"""

from __future__ import annotations

import os

# one BLAS thread for the MC matvec: steadier figures on a shared machine,
# and no faster with two (see README); set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
# interpreters spawned before and after the timed loop, so set-up is sampled
# at both ends of the run
SETUP_SPAWNS = (5, 4)
SETUP_TIMEOUT_S = 60
MIN_ROUNDS = 2
_READY = "import sharptail.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def measure_setup(count: int) -> list[float]:
    """Seconds from spawning an interpreter to sharptail.cli imported, ``count`` times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _READY], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"importing sharptail.cli failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_op(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI invocation in this process: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an unmapped error is a failed operation, not a crash
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_rounds(cli, workload: str, seed: int, seconds: float, tracer, config_dir: Path):
    """Whole rounds until ``seconds`` have passed.

    With a tracer, rounds come in pairs on one environment seed, one traced
    and one not, in the order TU, UT, TU, ... so that a drift in machine
    speed over the run does not fall on one side only.
    """
    seeds = wl.env_seeds(seed)
    rounds, ops = [], []
    start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = tracer is not None and (k % 2 == 0) == ((k // 2) % 2 == 0)
        env_seed = seeds[(k // 2 if tracer is not None else k) % wl.ENV_SEEDS]
        planned = [(op, wl.write_config(op, config_dir, len(ops) + i))
                   for i, op in enumerate(wl.round_ops(workload, env_seed))]
        if traced:
            tracer.install()
        ids = []
        t0 = time.perf_counter()
        for op, path in planned:
            ids.append(len(ops))
            if tracer is not None:
                tracer.op = ids[-1]
            code, out, err, elapsed = run_op(cli, op.argv(path))
            ops.append({"kind": op.kind, "config": op.config, "argv": op.argv(path),
                        "code": code, "stdout": out, "stderr": err, "seconds": elapsed})
        rounds.append({"env_seed": env_seed, "traced": traced, "ops": ids,
                       "seconds": time.perf_counter() - t0})
        if traced:
            tracer.uninstall()
        k += 1
    return rounds, ops


def check_ops(ops: list[dict]) -> tuple[int, bool]:
    """Check every record against the reference; returns (failed, correct).

    ``correct`` is false when a record fails a check or the self-test fails.
    """
    import reference

    failed = 0
    correct = True
    tested = set()
    seen: dict[str, str] = {}
    for i, op in enumerate(ops):
        kind = op["kind"]
        if op["code"] != 0:
            failed += 1
            log(f"op {i} {kind}: exit {op['code']}: {op['stderr'].strip()[-400:]}")
            continue
        key = json.dumps(op["config"], sort_keys=True)
        if seen.setdefault(key, op["stdout"]) != op["stdout"]:
            failed += 1
            correct = False
            log(f"op {i} {kind}: record differs from an earlier run of the same config")
            continue
        record = json.loads(op["stdout"])
        ref = reference.reference(kind, op["config"], record)
        checks = reference.compare(kind, op["config"], record, ref)
        op["checks"] = checks
        bad = [c for c in checks if not c[1]]
        if bad:
            failed += 1
            correct = False
            for name, _, detail in bad:
                log(f"op {i} {kind}: check {name} failed: {detail}")
        if kind not in tested:
            tested.add(kind)
            problems = reference.self_test(kind, op["config"], record, ref)
            for p in problems:
                log(f"self-test: {p}")
            correct = correct and not problems
    return failed, correct


def summarize(workload: str, rounds: list[dict], ops: list[dict]) -> None:
    """The per-operation figures a user of each subcommand sees, on stderr."""
    untraced = {i for r in rounds if not r["traced"] for i in r["ops"]}
    by_kind: dict[str, list[float]] = {}
    for i in sorted(untraced):
        by_kind.setdefault(ops[i]["kind"], []).append(ops[i]["seconds"])
    for kind, times in by_kind.items():
        med = statistics.median(times)
        log(f"{workload}: {kind} median {med:.4f} s over {len(times)} operations")
        if kind == "approx":
            log(f"  approx_s {med:.4f} s")
        elif kind == "fclt":
            log(f"  fclt_replicas_per_s {wl.FCLT_REPLICAS / med:.2f} replicas/s")
        elif kind == "sample":
            log(f"  tilted_draws_per_s {wl.TILTED_N * wl.TILTED_DRAWS / med:.4g} draws/s")
        else:
            log(f"  {kind}_s {med:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sharptail" / "cli.py").is_file():
        log(f"error: no sharptail sources under {SRC}; run from a source checkout")
        return 2

    setup_times = measure_setup(SETUP_SPAWNS[0])
    sys.path.insert(0, str(SRC))
    import sharptail
    from sharptail import cli

    if not Path(sharptail.__file__).resolve().is_relative_to(SRC):
        log(f"error: imported sharptail from {sharptail.__file__}, not {SRC}")
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    OUT.mkdir(parents=True, exist_ok=True)
    config_dir = Path(tempfile.mkdtemp(prefix="configs-", dir=OUT))
    try:
        rounds, ops = run_rounds(cli, args.workload, args.seed, args.seconds, tracer, config_dir)
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += measure_setup(SETUP_SPAWNS[1])

    t_check = time.perf_counter()
    failed, correct = check_ops(ops)
    log(f"checks took {time.perf_counter() - t_check:.1f} s")
    summarize(args.workload, rounds, ops)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": statistics.median(r["seconds"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        per_round = [tracing.round_layers(tracer.spans, set(r["ops"])) for r in traced]
        for r in traced:
            r["self_s"] = tracing.self_times(tracer.spans, set(r["ops"]))
        values = tracing.layer_metrics(per_round)
        values["trace.overhead_s"] = (
            statistics.median(r["seconds"] for r in traced)
            - statistics.median(r["seconds"] for r in rounds if not r["traced"]))
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in values.items()}
        with open(OUT / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "t0_ns", "t1_ns", "parent", "op", "counts"],
                       "spans": tracer.spans}, fh)

    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "ops": [{k: v for k, v in op.items() if k != "stderr"} for op in ops],
                   "result": result}, fh, indent=1)
    log(f"{args.workload}: {len(rounds)} rounds, {len(ops)} operations, {failed} failed, "
        f"correct {correct}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
