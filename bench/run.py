"""chaink0 benchmark: one client, closed loop, standard library only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn.  Run it from anywhere inside a checkout; it imports chaink0 from the
checkout's src/ and writes its documents under .bench_work/, which it
removes again.

--trace 0 times the workload untraced for S seconds and reports the
end-to-end metrics.  --trace 1 runs a fixed prefix of the same operations
three times (untraced, under span wrappers, under counting wrappers) and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.

End-to-end metrics: setup_s (median time to generate and write the
documents plus one warm-up operation), ops_per_s, op_p50_ms, op_p90_ms,
ok_ratio (1 - fail_ratio: operations whose exit status or independently
checked output was right, over those attempted) and peak_rss_mb.  The
human-readable lines add fail_ratio, the sample counts and max_coeff_bits,
the largest matrix entry or torsion coefficient in the reports; the last
is deterministic for a seed and is reported per layer as
reports.max_coeff_bits.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# setup_s is the median of at least SETUP_MIN set-ups, repeated until they
# took SETUP_SECONDS, so that a set-up of a few milliseconds is timed often.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 2.0
IMPORT_REPEATS = 5       # cli.import_s is the median of this many imports
WINDOW_OPS = 50          # longest window of operations for ops_per_s
# Operations in the traced prefix: enough to reach every layer the
# workload exercises, few enough that the counting pass stays short.
TRACE_OPS = {"corpus_obstruction": 40, "dense_homology": 20,
             "laurent_windows": 20, "cli_fixtures": 21}

# Per-layer metric -> the workloads on which it must not be zero.  A zero
# there means a wrapper missed the binding site the workload goes through.
EXPECT_NONZERO = {
    "rings.elem_ops": ["corpus_obstruction", "laurent_windows"],
    "rings.ring_eq_calls": ["corpus_obstruction", "laurent_windows"],
    "matrices.matmul_calls": ["corpus_obstruction"],
    "matrices.matmul_products": ["corpus_obstruction"],
    "matrices.flatten_calls": ["corpus_obstruction", "dense_homology"],
    "matrices.self_s": ["corpus_obstruction"],
    "intlinalg.snf_calls": ["dense_homology", "laurent_windows",
                            "corpus_obstruction"],
    "intlinalg.snf_cells": ["dense_homology", "laurent_windows"],
    "intlinalg.snf_max_bits": ["dense_homology", "laurent_windows"],
    "intlinalg.self_s": ["dense_homology", "laurent_windows"],
    "complexes.validate_calls": ["corpus_obstruction", "dense_homology"],
    "complexes.verify_chain_map_calls": ["corpus_obstruction"],
    "complexes.homology_calls": ["dense_homology", "laurent_windows"],
    "complexes.self_s": ["corpus_obstruction", "dense_homology"],
    "instant.build_instant_calls": ["corpus_obstruction"],
    "instant.witness_s": ["corpus_obstruction"],
    "instant.F_rank_max": ["corpus_obstruction"],
    "instant.self_s": ["corpus_obstruction"],
    "projective.verify_stable_freeness_calls": ["corpus_obstruction"],
    "projective.oracle_calls": ["cli_fixtures"],
    "projective.self_s": ["corpus_obstruction"],
    "constructions.calls": ["laurent_windows"],
    "constructions.self_s": ["laurent_windows"],
    "documents.parse_calls": ["cli_fixtures", "corpus_obstruction"],
    "documents.parse_s": ["cli_fixtures", "corpus_obstruction"],
    "documents.report_bytes": ["cli_fixtures", "corpus_obstruction"],
    "documents.self_s": ["corpus_obstruction"],
    "cli.import_s": ["cli_fixtures"],
    "cli.self_s": ["cli_fixtures", "corpus_obstruction"],
    "trace.overhead_ratio": ["corpus_obstruction", "dense_homology",
                             "laurent_windows", "cli_fixtures"],
    "reports.max_coeff_bits": ["corpus_obstruction", "dense_homology",
                               "laurent_windows", "cli_fixtures"],
}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}
UNITS = {"_s": "s", "_bits": "bits", "_bytes": "bytes", "_ratio": "ratio",
         "_lines": "lines"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# --- running one operation -------------------------------------------------------

class Runner:
    """Runs operations in process through cli.main, or as CLI subprocesses."""

    def __init__(self, subprocess_mode: bool, work: Path):
        self.subprocess_mode = subprocess_mode
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, op, trace_mode: str | None = None):
        """(exit code, stdout, stderr, trace summary or None)."""
        if self.subprocess_mode:
            return self._run_child(op, trace_mode)
        if trace_mode is None:
            return (*self._run_inline(op), None)
        from tracing import Recorder
        rec = Recorder(trace_mode)
        with rec:
            code, out, err = self._run_inline(op)
        return code, out, err, rec.summary()

    @staticmethod
    def _run_inline(op):
        import chaink0.cli as cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as ex:       # argparse rejects the arguments
                code = ex.code if isinstance(ex.code, int) else 1
            except Exception:              # a traceback: counted as a failure
                traceback.print_exc(file=err)
                code = None
        return code, out.getvalue(), err.getvalue()

    def _run_child(self, op, trace_mode):
        if trace_mode is None:
            cmd = [sys.executable, "-m", "chaink0.cli", *op.argv]
        else:
            summary_file = self.work / "child-trace.json"
            cmd = [sys.executable, str(BENCH / "child.py"), trace_mode,
                   str(summary_file), *op.argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        summary = None
        if trace_mode is not None:
            summary = json.loads(summary_file.read_text())
            summary_file.unlink()
        return proc.returncode, proc.stdout, proc.stderr, summary


def judge(op, code, out, err) -> str | None:
    """None when the operation's result is right, else the reason."""
    if code != op.expect:
        tail = err.strip().splitlines()[-1:] or [""]
        return f"exit {code}, expected {op.expect}: {tail[0]}"
    if op.expect == 1 and (out or not err.startswith("error:")):
        return "exit 1 without a lone error: line"
    if op.check is not None:
        return op.check(out)
    return None


class Judge:
    """Checks every result; repeats of an operation must match its first
    output byte for byte."""

    def __init__(self):
        self.first: dict = {}
        self.failures: list = []

    def __call__(self, op, code, out, err) -> bool:
        seen = self.first.get(op.key)
        if seen is None:
            reason = judge(op, code, out, err)
            self.first[op.key] = (code, out, reason)
        elif seen[:2] != (code, out):
            reason = "output differs from this operation's first run"
        else:
            reason = seen[2]
        if reason is not None:
            self.failures.append(f"{op.key}: {reason}")
        return reason is None


# --- report coefficients ---------------------------------------------------------

def _literal_bits(lit) -> int:
    """Bit-length of one ring-element literal's largest coefficient."""
    if isinstance(lit, str):
        return abs(int(lit)).bit_length()
    if isinstance(lit, int):
        return abs(lit).bit_length()
    if isinstance(lit, list):
        if lit and all(isinstance(t, list) and len(t) == 2 for t in lit):
            return max(_literal_bits(t[0]) for t in lit)   # [[coeff, index]]
        return max((_literal_bits(t) for t in lit), default=0)
    return 0


def coeff_bits(node) -> int:
    """Largest bit-length of a matrix entry or torsion coefficient in a
    report; provenance (the input digest) is skipped."""
    if isinstance(node, dict):
        if {"rows", "cols", "entries"} <= set(node):
            return max((_literal_bits(e) for e in node["entries"]), default=0)
        best = 0
        for k, v in node.items():
            if k == "torsion":
                best = max([best] + [abs(t).bit_length() for t in v])
            elif k != "provenance":
                best = max(best, coeff_bits(v))
        return best
    if isinstance(node, list):
        return max((coeff_bits(v) for v in node), default=0)
    return 0


def report_bits(text: str) -> int:
    try:
        return coeff_bits(json.loads(text))
    except json.JSONDecodeError:      # --format text reports
        return 0


# --- one workload ----------------------------------------------------------------

def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(name: str, seed: int, work: Path, runner: Runner):
    """Set up repeatedly; (last setup, median seconds, problems)."""
    from workloads import SETUPS, write_docs
    times, docs, problems = [], None, []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS
                                     and len(times) < SETUP_MAX):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        setup = SETUPS[name](work, seed)
        write_docs(work, setup.docs)
        runner.run(setup.warmup)
        times.append(time.perf_counter() - t0)
        if docs is not None and docs != setup.docs:
            problems.append("generator gave different bytes for the same seed")
        docs = setup.docs
    problems += [f"domination fails verify_domination: {g}"
                 for g in setup.gate_failures]
    return setup, statistics.median(times), len(times), problems


def measure(name, seed, seconds, work, runner):
    from workloads import pass_order
    setup, setup_s, setups, problems = set_up(name, seed, work, runner)
    order = pass_order(setup.ops, seed)
    check = Judge()
    times, passed = [], []
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        op = order[i % len(order)]
        i += 1
        t0 = time.perf_counter()
        code, out, err, _ = runner.run(op)
        times.append(time.perf_counter() - t0)
        passed.append(check(op, code, out, err))
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    ok, attempted = sum(passed), len(passed)
    # Timings come from whole windows of consecutive operations: a whole
    # pass for the workloads with a short pass, else a slice that still
    # holds every stratum in proportion.  A trailing part-window is left
    # out, as it would tilt the mix.  Throughput is the median over the
    # windows: the machine's speed drifts by tens of percent within a run,
    # and the median window is steadier than one mean over the run.
    width = min(len(order), WINDOW_OPS)
    used = max(attempted // width, 1) * width
    rates = [sum(passed[j:j + width]) / sum(times[j:j + width])
             for j in range(0, used, width)]
    times = times[:used]
    n = len(times)
    p90 = quantile(times, 90)
    beyond = sum(t > p90 for t in times)
    who = resource.RUSAGE_CHILDREN if runner.subprocess_mode else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_p90_ms": 1000.0 * p90,
        "ok_ratio": ok / attempted,
        "peak_rss_mb": peak_mb,
    }
    bits = max(report_bits(out) for _, out, _ in check.first.values())
    notes = [
        f"setup_s      {setup_s:.4f} s   (median of {setups} set-ups)",
        f"ops_per_s    {metrics['ops_per_s']:.3f} 1/s (median of {len(rates)} windows of "
        f"{width} ops; {attempted} ops in {elapsed:.2f} s)",
        f"op_p50_ms    {metrics['op_p50_ms']:.3f} ms  (n={n})",
        f"op_p90_ms    {metrics['op_p90_ms']:.3f} ms  (n={n}, {beyond} beyond"
        + ("" if beyond >= 10 else "; fewer than 10 beyond, not valid") + ")",
        f"fail_ratio   {(attempted - ok) / attempted:.4f}      ({attempted - ok} of "
        f"{attempted}); ok_ratio {ok / attempted:.4f}",
        f"peak_rss_mb  {peak_mb:.2f} MB",
        f"max_coeff_bits {bits} bits (distinct reports: {len(check.first)})",
    ]
    failures = problems + check.failures
    return metrics, attempted, attempted - ok, failures, notes


def trace_run(name, seed, work, runner):
    from tracing import merge_summaries
    from workloads import pass_order
    setup, _, _, problems = set_up(name, seed, work, runner)
    ops = pass_order(setup.ops, seed)[:TRACE_OPS[name]]
    check = Judge()
    failed = set()
    untraced_s = traced_s = 0.0
    spans, counts = [], []
    for i, op in enumerate(ops):
        # Alternate which run goes first, so neither gets the warm caches.
        for mode in ((None, "spans") if i % 2 else ("spans", None)):
            t0 = time.perf_counter()
            result = runner.run(op, mode)
            dt = time.perf_counter() - t0
            if mode is None:
                code, out, err, _ = result
                untraced_s += dt
            else:
                t_code, t_out, _, summary = result
                traced_s += dt
                spans.append(summary)
        if not check(op, code, out, err) or (t_code, t_out) != (code, out):
            failed.add(op.key)
    for op in ops:
        c_code, c_out, c_err, summary = runner.run(op, "counts")
        counts.append(summary)
        if not check(op, c_code, c_out, c_err):
            failed.add(op.key)
    s, c = merge_summaries(spans), merge_summaries(counts)
    calls = c["calls"]

    def calls_of(*keys):
        return sum(calls.get(k, 0) for k in keys)

    ring_ops = [k for k in calls if k.startswith("rings.RingElement.")]
    ring_eq = [k for k in calls if k.startswith("rings.") and k.endswith(".__eq__")
               and not k.startswith("rings.RingElement.")]
    metrics = {
        "rings.elem_ops": calls_of(*ring_ops),
        "rings.ring_eq_calls": calls_of(*ring_eq),
        "matrices.matmul_calls": calls_of("matrices.Mat.__matmul__"),
        "matrices.matmul_products": c["sizes"].get("matmul_products", 0),
        "matrices.flatten_calls": calls_of("matrices.Mat.flatten"),
        "matrices.self_s": s["self_s"].get("matrices", 0.0),
        "intlinalg.snf_calls": calls_of("intlinalg.smith_normal_form"),
        "intlinalg.snf_cells": c["sizes"].get("snf_cells", 0),
        "intlinalg.snf_max_bits": c["sizes"].get("snf_max_bits", 0),
        "intlinalg.self_s": s["self_s"].get("intlinalg", 0.0),
        "complexes.validate_calls": calls_of("complexes.validate_complex"),
        "complexes.verify_chain_map_calls": calls_of("complexes.verify_chain_map"),
        "complexes.homology_calls": calls_of("complexes.homology"),
        "complexes.self_s": s["self_s"].get("complexes", 0.0),
        "instant.build_instant_calls": calls_of("instant.build_instant"),
        "instant.witness_s": s["inclusive_s"].get("instant.stable_freeness_witness", 0.0),
        "instant.F_rank_max": c["sizes"].get("F_rank_max", 0),
        "instant.self_s": s["self_s"].get("instant", 0.0),
        "projective.verify_stable_freeness_calls":
            calls_of("projective.verify_stable_freeness"),
        "projective.oracle_calls": calls_of("projective.quadratic_class_oracle"),
        "projective.self_s": s["self_s"].get("projective", 0.0),
        "constructions.calls": sum(n for k, n in calls.items()
                                   if k.startswith("constructions.")),
        "constructions.self_s": s["self_s"].get("constructions", 0.0),
        "documents.parse_calls": calls_of("documents.parse_workspace"),
        "documents.parse_s": s["inclusive_s"].get("documents.parse_workspace", 0.0),
        "documents.report_bytes": c["sizes"].get("report_bytes", 0),
        "documents.self_s": s["self_s"].get("documents", 0.0),
        "cli.import_s": import_seconds(),
        "cli.self_s": s["self_s"].get("cli", 0.0),
        "trace.overhead_ratio": untraced_s / traced_s,
        "trace.untraced_s": untraced_s,
        "trace.ops": len(ops),
        "reports.max_coeff_bits": max(report_bits(out)
                                      for _, out, _ in check.first.values()),
        "src_lines": src_lines(),
    }
    missing = [m for m, where in EXPECT_NONZERO.items()
               if name in where and not metrics[m]]
    problems += [f"{m} is 0 on {name}" for m in missing]
    notes = [f"{k:42s} {v:.6g} {unit_of(k)}" for k, v in metrics.items()]
    failures = problems + check.failures + [
        f"{k}: traced output differs from untraced" for k in sorted(failed)
        if not any(f.startswith(k + ":") for f in check.failures)]
    return metrics, len(ops), len(failed), failures, notes


def import_seconds() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import chaink0.cli; "
            "print(repr(time.perf_counter() - t))")
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        runs.append(float(proc.stdout))
    return statistics.median(runs)


def src_lines() -> int:
    return sum(1 for f in sorted((SRC / "chaink0").glob("*.py"))
               for line in f.read_text(encoding="utf-8").splitlines()
               if line.strip())


# --- entry point -------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: int, trace: int) -> int:
    from workloads import SUBPROCESS_WORKLOADS
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    runner = Runner(name in SUBPROCESS_WORKLOADS, work)
    try:
        if trace:
            metrics, attempted, failed, failures, notes = trace_run(
                name, seed, work, runner)
        else:
            metrics, attempted, failed, failures, notes = measure(
                name, seed, seconds, work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"{name} seed={seed} trace={trace}")
    for line in notes:
        print("  " + line)
    for line in failures[:20]:
        print("  FAIL " + line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    from workloads import SETUPS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*SETUPS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "chaink0" / "cli.py").is_file() or not (ROOT / "tests" / "fixtures").is_dir():
        sys.stderr.write(f"error: no chaink0 source tree at {ROOT}\n")
        return 2
    if args.workload == "all":
        status = 0
        for name in SETUPS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    sys.path.insert(0, str(SRC))
    import chaink0.cli
    if Path(chaink0.cli.__file__).resolve().parent != SRC / "chaink0":
        sys.stderr.write(f"error: imported chaink0 from {chaink0.cli.__file__}\n")
        return 2
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
