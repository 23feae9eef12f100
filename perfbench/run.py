"""assoc2 benchmark: H2 assembly, H2 elimination and CLI queries.

    python3 perfbench/run.py --workload h2-plain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Set-up imports assoc2, builds the seeded inputs and dumps them to JSON files
under perfbench/out/; it runs three times in fresh processes, each of which
times itself.  The timed part is a closed loop from this one process: each
op is one ``assoc2.cli.main([... "--format", "json"])`` call on those files,
with stdout captured and parsed, which is the path of a user's command minus
interpreter start-up.  Every output is checked (see inputs.py); an op whose
output fails its check counts as failed.  A run repeats whole rounds of its
workload's fixed op list while the next round is predicted to end within
``--seconds`` of the run's start, set-up included (at least one round).
Each op's latency goes to stderr.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics instead (spans are written to perfbench/out/).  See
README.md for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # timed set-ups per run; setup_s is their median


def setup_dir(args) -> Path:
    return OUT / f"work-{args.workload}-{args.seed}-setup"


def load_oracle():
    return json.loads((HERE / "oracle.json").read_text(encoding="utf-8"))


def load_program():
    """Import the program from the checkout's src/ and the benchmark's inputs."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import assoc2.cli  # noqa: F401
    import inputs  # noqa: F401


def invoke(argv):
    """One CLI call with stdout/stderr captured: (exit code, stdout)."""
    from assoc2 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _bytes_out(args, result):
    return {"bytes": len(result[1].encode("utf-8"))}


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.principal = []  # latencies of principal ops, untraced rounds only

    def round(self, traced=False) -> float:
        """Run the op list once; returns the summed op latency."""
        wall = 0.0
        for k, op in enumerate(self.ops):
            gc.collect()
            error = None
            t0 = time.perf_counter()
            try:
                if traced:
                    self.tracer.op = k
                    self.tracer.active = True
                    try:
                        code, text = self.tracer.call("cli.main", invoke, op.argv, post=_bytes_out)
                    finally:
                        self.tracer.active = False
                else:
                    code, text = invoke(op.argv)
            except Exception:  # the op crashed: count it, keep the run going
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            dt = time.perf_counter() - t0
            wall += dt
            if error is None:
                error = self.check(op, code, text)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                print(f"FAILED {op.kind} [{op.label}]: {error}", file=sys.stderr)
            if op.principal and not traced:
                self.principal.append(dt)
            print(f"  {dt:8.3f} s  {op.kind:22s} {op.label}", file=sys.stderr)
        print(f"round{' (traced)' if traced else ''}: {wall:.3f} s", file=sys.stderr)
        return wall

    @staticmethod
    def check(op, code, text):
        from inputs import CheckFailed

        try:
            doc = json.loads(text) if text.strip() else {}
            op.check(code, doc)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def setup_only(args) -> float:
    """Import assoc2, build the seeded inputs and dump them: the set-up a user
    pays before the first op.  Returns its wall time, interpreter start-up and
    the benchmark's own argument parsing left out."""
    oracle = load_oracle()
    t0 = time.perf_counter()
    load_program()
    import inputs

    inputs.build(args.workload, args.seed, setup_dir(args), oracle)
    return time.perf_counter() - t0


def timed_setups(args) -> list:
    """Set-up times reported by SETUPS fresh processes (``--setup-only``)."""
    workdir = setup_dir(args)
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
            times.append(float(done.stdout.split()[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return times


def run_rounds(deadline, one_round):
    """Repeat one_round() while the next one is predicted to end by the
    deadline (a perf_counter value); at least once."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        took = time.perf_counter() - t0
        if time.perf_counter() + took > deadline:
            return results


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def bench(args, oracle, deadline) -> int:
    import inputs

    setup_times = [] if args.trace else timed_setups(args)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}"
    ops = inputs.build(args.workload, args.seed, workdir, oracle)
    n_principal = sum(op.principal for op in ops)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per round, "
          f"{n_principal} of them principal ({inputs.PRINCIPAL[args.workload]})")
    try:
        if args.trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            runner = Runner(ops, tracer)
            plain, traced, layers, spans = [], [], [], []

            def pair():
                plain.append(runner.round())
                tracer.spans = []
                with tracer.installed():
                    traced.append(runner.round(traced=True))
                layers.append(layer_metrics(tracer.spans))
                spans.append(tracer.spans)

            run_rounds(deadline, pair)
            write_trace(args, spans)
            units = per_layer_units()
            metrics = {k: (per_round([m[k] for m in layers]), units[k]) for k in layers[0]}
            metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
            print(f"{len(plain)} untraced + {len(traced)} traced rounds; per-layer values are per round "
                  f"(median over traced rounds)")
        else:
            runner = Runner(ops)
            walls = run_rounds(deadline, runner.round)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "op_p50_s": (statistics.median(runner.principal), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print("round walls (s): " + " ".join(f"{w:.4f}" for w in walls))
            print(f"{len(walls)} rounds; wall_s is the median round; op_p50_s is the median of "
                  f"{len(runner.principal)} principal-op samples; setup_s is the median of "
                  f"{SETUPS} set-ups in fresh processes ("
                  + " ".join(f"{t:.4f}" for t in setup_times) + " s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {runner.attempted} ops, failed {runner.failed}")
    line = result_line(runner.failed == 0, runner.attempted, runner.failed, metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def per_round(values):
    """Median over traced rounds; counts stay whole numbers (they repeat exactly)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def write_trace(args, rounds):
    """Spans as JSON lines: round, op, name, start, end, parent, attributes."""
    from tracing import ATTRS, END, NAME, OP, PARENT, START, _duration

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for r, spans in enumerate(rounds):
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                fh.write(json.dumps({
                    "round": r, "op": s[OP], "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": round(s[START] - t0, 7), "end": round(s[END] - t0, 7),
                    "dur": round(_duration(s), 7), "attrs": s[ATTRS],
                }) + "\n")


def smoke(oracle) -> int:
    """Every op kind once on 1/1 fixtures with all checks, traced once, plus
    a self-test that tampered reports are counted as failed ops."""
    import inputs
    from tracing import REQUIRED_CALLS, REQUIRED_SPANS, NAME, Tracer

    workdir = OUT / "work-smoke"
    try:
        ops = inputs.build("smoke", 0, workdir, oracle)
        tracer = Tracer()
        runner = Runner(ops, tracer)
        runner.round()
        with tracer.installed():
            runner.round(traced=True)
        kinds = sorted({op.kind for op in ops})
        # a wrapper that never fires would leave its per-layer metrics at 0
        missing = sorted((REQUIRED_CALLS - tracer.called) | (REQUIRED_SPANS - {s[NAME] for s in tracer.spans}))
        print(f"smoke: {runner.attempted} ops over {len(kinds)} kinds ({', '.join(kinds)}), "
              f"{runner.failed} failed; traced functions or spans that never ran: {missing or 'none'}")
        caught = tamper_selftest(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = runner.failed == 0 and not missing and caught
    print("smoke passed" if ok else "SMOKE FAILED")
    return 0 if ok else 1


def tamper_selftest(ops) -> bool:
    """Reports with a wrong dim_h2, a wrong reduce verdict and a wrong equiv
    verdict must each be counted as a failed op by the check a run uses."""
    h2 = next(op for op in ops if op.kind == "cohomology")
    reduce_yes = next(op for op in ops if op.kind == "cocycle reduce" and op.label.endswith("yes"))
    equiv_no = next(op for op in ops if op.kind == "ext equiv" and op.label.endswith("no"))

    def wrong_h2(code, doc):
        doc["numbers"]["dim_h2"] += 1
        return code, doc

    def wrong_verdict(code, doc):
        return 1, {"format_version": "1", "verdict": "not_coboundary", "violations": []}

    def wrong_equiv(code, doc):
        doc["verdict"] = "pass"
        return 0, doc

    caught = 0
    cases = [(h2, wrong_h2), (reduce_yes, wrong_verdict), (equiv_no, wrong_equiv)]
    for op, tamper in cases:
        code, text = invoke(op.argv)
        if Runner.check(op, code, text) is not None:
            print(f"untampered {op.kind} [{op.label}] already fails its check")
            return False
        code, doc = tamper(code, json.loads(text))
        error = Runner.check(op, code, json.dumps(doc))
        caught += error is not None
        print(f"tampered {op.kind} [{op.label}] ({tamper.__name__}): "
              f"{'counted as failed: ' + error if error else 'NOT CAUGHT'}")
    return caught == len(cases)


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="assoc2 benchmark")
    parser.add_argument("--workload", choices=("h2-plain", "h2-transported", "queries"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every op kind once on 1/1 fixtures, plus the tamper self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.setup_only:
            print(setup_only(args))
            return 0
        oracle = load_oracle()
        load_program()
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program or the stored oracle: {exc}", file=sys.stderr)
        return 2
    return smoke(oracle) if args.smoke else bench(args, oracle, start + args.seconds)


if __name__ == "__main__":
    sys.exit(main())
