"""Benchmark of the contactps command line, run in-process.

    python3 bench/run.py --workload falsify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from src/.  One
client, one process, one thread, closed loop: each op starts when the
previous one has finished.  A run is a fixed number of whole rounds of the
workload (workloads.py): --seconds divided by the workload's nominal round
cost ROUND_CPU_S, at least one.  So every run of a workload does the same
work and attempts the same number of ops, whatever the seed and however
busy the host.  Every output is checked outside the timed region: semantic
expectations from the corpus, witness orders re-derived by a sympy oracle
(oracle.py), verify-report results, and a determinism check that runs one
seeded op of each command kind twice.

Times are CPU time of the main thread at a reference host speed (speed.py):
the program runs in-process on that thread and waits for nothing, and a
kernel sampled every 50 ms of CPU time scales out how fast the shared host
runs at that moment.  Raw CPU and wall-clock figures go to standard error.

--trace 0 measures the end-to-end metrics.  Set-up is the CPU time from the
start of the interpreter to the end of set-up, at reference speed, taken in
this process and in SETUP_PROBES child processes; the median is reported.
--trace 1 wraps the program's layers (spans.py), runs the same loop, re-runs
its first ops untraced to measure the tracing overhead, runs the algebra
microbenchmarks (micro.py) and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A failed op is an exception, exit code 2, a wrong claim, a witness order the
oracle does not reproduce, a verify-report mismatch or a determinism
mismatch.  correct is false when an op fails that is not a known defect
listed in the corpus.  A human-readable summary goes to standard error.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import Sampler, clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("falsify", "report_all", "certify")
SETUP_PROBES = 2
# Nominal CPU seconds of one round at reference speed (speed.py); they set
# the number of rounds in a run and are never read back from the clock.
ROUND_CPU_S = {"falsify": 19.0, "report_all": 15.5, "certify": 0.95}
OVERHEAD_LEAD_S = 2.0  # traced time re-run untraced for trace.overhead_frac
P90_MIN_OPS = 100

# Per-layer metrics: (name, unit, spans it sums or how it is derived,
# the end-to-end metric it should move).  Counts and self times are per op.
LAYER_METRICS = [
    ("trace.overhead_frac", "ratio", "traced / untraced time of the first ops - 1",
     "none (cost of the traced run itself)"),
    ("algebra.gr_mul_ns", "ns", "micro", "falsify candidates_per_s, ops_per_s; report_all ops_per_s (less)"),
    ("algebra.gr_add_ns", "ns", "micro", "falsify candidates_per_s, ops_per_s; report_all ops_per_s (less)"),
    ("algebra.poly_mul_us", "us", "micro", "falsify candidates_per_s, ops_per_s; report_all ops_per_s (less)"),
    ("algebra.substitute_us", "us", "micro", "falsify candidates_per_s, ops_per_s; report_all ops_per_s (less)"),
    ("algebra.gr_div_ns", "ns", "micro", "certify op_p50_ms unchanged"),
    ("curve.pullback.calls", "1/op", ("curve.pullback",), "falsify candidates_per_s, ops_per_s"),
    ("curve.pullback.self_s", "s/op", ("curve.pullback",), "falsify candidates_per_s, ops_per_s"),
    ("expr.format.self_s", "s/op", ("expr.format_polynomial", "expr.format_curve"),
     "certify op_p50_ms unchanged"),
    ("expr.parse.self_s", "s/op", ("expr.parse_problem", "expr.parse_curve"), "certify op_p50_ms"),
    ("search.generated", "1/op", "candidates enumerated inside sing_type_search",
     "falsify candidates_per_s"),
    ("search.tested_ratio", "ratio", "candidates_tested / search.generated",
     "falsify candidates_per_s"),
    ("search.enumerate.self_s", "s/op", ("search.enumerate",), "falsify candidates_per_s"),
    ("typecalc.sing_type_search.calls", "1/op", ("typecalc.sing_type_search",),
     "report_all ops_per_s; falsify unchanged"),
    ("germ.germ_ps_check.calls", "1/op", ("germ.germ_ps_check",),
     "report_all ops_per_s; falsify unchanged"),
    ("germ.ps_search.calls", "1/op", ("germ.ps_search",), "report_all ops_per_s; falsify unchanged"),
    ("report.stage_calls_per_op", "1/op", "stage calls made by contactps.report",
     "report_all ops_per_s; falsify unchanged"),
    ("germ.gram_certificate.calls", "1/op", ("germ.gram_certificate",), "certify op_p90_ms"),
    ("germ.gram_certificate.self_s", "s/op", ("germ.gram_certificate",), "certify op_p90_ms"),
    ("germ.gram_dim_max", "count", "largest Gram matrix", "certify op_p90_ms"),
    ("germ.solve_graph.self_s", "s/op", ("germ.solve_graph",), "certify op_p90_ms"),
    ("germ.restrict.self_s", "s/op", ("germ.restrict",), "certify op_p90_ms"),
    ("curve.ps_test_single.calls", "1/op", ("curve.ps_test_single",), "certify op_p90_ms"),
    ("curve.ps_test_single.self_s", "s/op", ("curve.ps_test_single",), "certify op_p90_ms"),
    ("typecalc.reg_type.self_s", "s/op", ("typecalc.reg_type",), "certify op_p90_ms, failed_frac"),
    ("typecalc.gaussian_common_roots.calls", "1/op", ("typecalc.gaussian_common_roots",),
     "certify op_p90_ms, failed_frac"),
    ("typecalc.gaussian_common_roots.self_s", "s/op", ("typecalc.gaussian_common_roots",),
     "certify op_p90_ms, failed_frac"),
    ("fdb.laplacian_power_forms.calls", "1/op", ("fdb.laplacian_power_forms",), "certify op_p50_ms"),
    ("fdb.laplacian_power_forms.self_s", "s/op", ("fdb.laplacian_power_forms",), "certify op_p50_ms"),
    ("report.machine_json.self_s", "s/op", ("report.machine_json",), "certify op_p50_ms"),
    ("report.verify_report.self_s", "s/op", ("report.verify_report",), "certify op_p50_ms"),
    ("cli.main.self_s", "s/op", ("cli.main",), "certify op_p50_ms"),
]


SAMPLER = Sampler()


class BenchError(RuntimeError):
    """The benchmark itself cannot run."""


class Bench:
    """Runs ops through the contactps CLI entry point with click's runner."""

    def __init__(self, workload: str):
        from click.testing import CliRunner

        from contactps.cli import main

        import workloads

        self.W = workloads
        self.workload = workload
        self.main = main
        self.runner = CliRunner()
        self.corpus = workloads.load_corpus()
        self.tracer = None

    def invoke(self, argv, stdin=None, verify=False):
        if self.tracer is not None:
            self.tracer.primary = not verify
            with self.tracer.span("cli.main"):
                r = self.runner.invoke(self.main, list(argv), input=stdin)
            self.tracer.primary = True
        else:
            r = self.runner.invoke(self.main, list(argv), input=stdin)
        error = None
        if r.exception is not None and not isinstance(r.exception, SystemExit):
            error = "".join(traceback.format_exception(r.exception)).strip().splitlines()[-1]
        return self.W.CommandResult(tuple(argv), r.exit_code, r.stdout, r.stderr, error, verify)

    def run_op(self, op):
        res = self.W.OpResult(op, 0.0)
        t0 = clock()
        for argv in op.commands:
            out = self.invoke(argv)
            res.commands.append(out)
            if op.verify:
                res.commands.append(self.invoke(("verify-report", "-"), out.stdout, verify=True))
        res.span = (t0, clock())
        res.seconds = res.span[1] - t0
        return res

    def run_loop(self, rng, seconds):
        """The run's rounds; (results, wall seconds they took)."""
        rounds = max(1, round(seconds / ROUND_CPU_S[self.workload]))
        results = []
        start = time.perf_counter()
        for _ in range(rounds):
            for op in self.W.make_round(self.workload, rng):
                results.append(self.run_op(op))
        wall = time.perf_counter() - start
        normalise(results)
        return results, wall


def normalise(results):
    """Set each op's seconds to its CPU time at reference speed."""
    for res in results:
        res.seconds = SAMPLER.normalised(*res.span)


def setup(workload: str) -> Bench:
    """Imports, corpus, and one warm-up op of each command kind."""
    bench = Bench(workload)
    for op in bench.W.warmup_ops(workload):
        bench.run_op(op)
    return bench


def setup_probe(workload: str) -> float:
    """Set-up time of a fresh process running this script with --setup-only."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Checks


class Checker:
    """Checks op results; caches verdicts of repeated outputs and oracle
    answers, since rounds repeat the same commands."""

    def __init__(self, bench: Bench):
        from oracle import Germ

        self.W = bench.W
        self.germs = {name: Germ(text) for name, text in bench.corpus.items()}
        self._command_cache: dict = {}
        self._oracle_cache: dict = {}

    def _witness(self, entry, curve, jet, claimed, what, lower_bound):
        key = (entry, curve, jet, str(claimed), lower_bound)
        if key not in self._oracle_cache:
            try:
                errs = self.W.check_witness(self.germs[entry], curve, jet, claimed, what,
                                            lower_bound)
            except Exception as exc:  # the oracle could not evaluate it
                errs = [f"{what} {curve}: oracle error {exc!r}"]
            self._oracle_cache[key] = errs
        return self._oracle_cache[key]

    def _command(self, op, c) -> tuple[list[str], list[str], int]:
        """(wrong claims, other errors, search candidates tested) of one
        command's report."""
        machine = self.W.parse_machine(c)
        if machine is None:
            return [], [f"{c.argv[0]}: no machine section in the output"], 0
        try:
            claim_errs, witnesses = self.W.check_claims(
                c.argv[0], machine["claims"], self.W.CORPUS.get(op.entry), op)
            tested = self.W.candidates_tested(machine)
        except (KeyError, TypeError, ValueError) as exc:
            return [], [f"{c.argv[0]}: malformed claims ({exc!r})"], 0
        oracle_errs = []
        for witness in witnesses:
            oracle_errs += self._witness(op.entry, *witness)
        return claim_errs, oracle_errs, tested

    def check(self, res) -> tuple[list[str], list[str], int]:
        """(wrong claims, other errors, search candidates tested) of one op.
        Other errors are exceptions, bad exit codes, verify-report mismatches
        and witness orders the oracle does not reproduce."""
        claim_errs, other, tested = [], [], 0
        for c in res.commands:
            name = c.argv[0]
            if c.error is not None:
                other.append(f"{name}: exception: {c.error}")
            elif c.exit_code not in (0, 1) or (c.verify and c.exit_code != 0):
                other.append(f"{name}: exit code {c.exit_code}: {c.stderr.strip()[:200]}")
            elif not c.verify:
                key = (c.argv, c.machine_text)
                if key not in self._command_cache:
                    self._command_cache[key] = self._command(res.op, c)
                wrong, errs, n = self._command_cache[key]
                claim_errs += wrong
                other += errs
                tested += n
        return claim_errs, other, tested


def determinism(bench: Bench, seed: int) -> list[tuple]:
    """Run one seeded op of each command kind twice; returns (first result,
    whether the second repeated it byte for byte) per op."""
    out = []
    for op in bench.W.determinism_ops(bench.workload, random.Random(f"{seed}-determinism")):
        first, second = bench.run_op(op), bench.run_op(op)
        out.append((first, bench.W.machine_sections(first) == bench.W.machine_sections(second)))
    return out


def tally(checker: Checker, results, det):
    """Check the timed ops and the determinism ops.

    Returns (attempted, failed, correct, failures, candidates tested by the
    timed ops).  correct is False when an op fails other than by the wrong
    claim of a known defect listed in the corpus.
    """
    failed = tested = 0
    correct = True
    failures = []
    ops = [(res, [], True) for res in results]
    ops += [(first, [] if same else ["determinism: two equal runs differ"], False)
            for first, same in det]
    for res, other, timed in ops:
        wrong, errs, n = checker.check(res)
        other = other + errs
        if timed:
            tested += n
        if wrong or other:
            failed += 1
            failures.append((res.op, wrong + other))
            correct = correct and not other and res.op.known_defect is not None
    return len(ops), failed, correct, failures, tested


# ---------------------------------------------------------------------------
# Runs


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_failures(failures):
    seen = set()
    for op, errs in failures:
        key = (op.kind, op.entry, tuple(errs))
        if key in seen:
            continue
        seen.add(key)
        tag = f" [known defect: {op.known_defect}]" if op.known_defect else ""
        print(f"FAILED {op.kind} {op.entry or ''}{tag}", file=sys.stderr)
        for e in errs[:5]:
            print(f"    {e}", file=sys.stderr)


def end_to_end(bench: Bench, args, setup_s: float) -> dict:
    results, wall = bench.run_loop(random.Random(args.seed), args.seconds)
    SAMPLER.stop()
    raw_cpu = sum(r.span[1] - r.span[0] for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # After the loop, so that the first timed op follows the warm-up.
    setups = [setup_s] + [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
    det = determinism(bench, args.seed)
    attempted, failed, correct, failures, tested = tally(Checker(bench), results, det)
    cpu = sum(r.seconds for r in results)
    lat_ms = sorted(r.seconds * 1000.0 for r in results)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(len(results) / cpu, "1/s"),
        "op_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    # Defined on some workloads only, so printed on standard error.
    extra = {"failed_frac": _metric(failed / attempted, "ratio")}
    if len(lat_ms) >= P90_MIN_OPS:
        extra["op_p90_ms"] = _metric(statistics.quantiles(lat_ms, n=10)[-1], "ms")
    if tested:
        extra["candidates_per_s"] = _metric(tested / cpu, "1/s")
    extra["raw_cpu_ops_per_s"] = _metric(len(results) / raw_cpu, "1/s")
    extra["wall_ops_per_s"] = _metric(len(results) / wall, "1/s")
    _report_failures(failures)
    print(f"workload {args.workload}: {len(results)} ops in {cpu:.2f} s at reference speed, "
          f"{raw_cpu:.2f} s CPU, {wall:.2f} s wall; set-up samples "
          f"{[round(s, 3) for s in setups]}; host speed {SAMPLER.summary()}", file=sys.stderr)
    for name, m in list(metrics.items()) + list(extra.items()):
        print(f"  {name:18s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if "op_p90_ms" in extra:
        print(f"  (op_p90_ms from {len(lat_ms)} ops)", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(bench: Bench, args) -> dict:
    import micro
    from spans import Tracer

    tracer = Tracer()
    bench.tracer = tracer
    tracer.install()
    try:
        results, _wall = bench.run_loop(random.Random(args.seed), args.seconds)
    finally:
        tracer.restore()
        bench.tracer = None
    lead, traced_s = [], 0.0
    for res in results:
        lead.append(res.op)
        traced_s += res.seconds
        if traced_s >= OVERHEAD_LEAD_S:
            break
    rerun = [bench.run_op(op) for op in lead]
    normalise(rerun)
    SAMPLER.stop()
    untraced_s = sum(res.seconds for res in rerun)
    det = determinism(bench, args.seed)
    attempted, failed, correct, failures, _tested = tally(Checker(bench), results, det)
    _report_failures(failures)

    n = len(results)
    self_s, calls, stage_calls = tracer.summary()
    values = {
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "search.generated": tracer.generated_in_sing / n,
        "search.tested_ratio": (tracer.candidates_tested / tracer.generated_in_sing
                                if tracer.generated_in_sing else 0.0),
        "report.stage_calls_per_op": stage_calls / n,
        "germ.gram_dim_max": max(tracer.gram_dims, default=0),
    }
    corpus = bench.corpus
    values.update(micro.run(corpus[bench.W.FALSIFY_GERMS[0]],
                            [corpus[name] for name in bench.W.CORPUS]))
    metrics = {}
    print(f"workload {args.workload} (traced): {n} ops", file=sys.stderr)
    for name, unit, spans, moves in LAYER_METRICS:
        if name not in values:
            total = self_s if name.endswith(".self_s") else calls
            values[name] = sum(total.get(s, 0) for s in spans) / n
        metrics[name] = _metric(values[name], unit)
        print(f"  {name:40s} {values[name]:12.6g} {unit:6s} -> {moves}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up of this process, print it and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    SAMPLER.start()
    try:
        try:
            bench = setup(args.workload)
        except ImportError as exc:
            print(f"error: cannot import the program under {ROOT}/src: {exc}", file=sys.stderr)
            return 2
        setup_s = SAMPLER.normalised(0.0, clock())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = traced(bench, args) if args.trace else end_to_end(bench, args, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        SAMPLER.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
