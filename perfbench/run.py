"""Seeded benchmark of the sixpoints library and CLI.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  One
client in one process and thread issues ops in a closed loop (each op starts
after the previous one finished) for ``--seconds`` seconds, checks every
answer, and prints one JSON object as its last stdout line.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (see README.md).
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_PROBES = 7  # fresh interpreters per run, spread evenly over it
REF_LOOP = 3_000  # iterations of the speed reference, about 1 ms
REF_NOMINAL_NS = 1_000_000
REF_GAP_S = 0.05  # least time between two speed samples
BUILD_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# child interpreters and machine speed


def _child(script: str, args: list[str], env=None) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def reference_ns() -> int:
    """Time a fixed pure-Python loop that shares no code with sixpoints but,
    like it, builds tuples and reads and writes a dict."""
    t0 = time.perf_counter_ns()
    d = {}
    for i in range(REF_LOOP):
        d[(i, i + 1, i & 7)] = i
        d.get((i - 1, i, (i - 1) & 7))
    return time.perf_counter_ns() - t0


class Speed:
    """How fast the machine runs, sampled between timed items.

    On the shared 2-core VM this benchmark was written on, the speed of the
    whole machine drifts by up to 1.5x within seconds and between minutes,
    whatever runs.  The reference loop slows down with it: over 40 s in which
    a batch of h0 and classify calls varied by 24%, its time divided by the
    loop's varied by under 1% from one 4 s window to the next.  So each timed
    item is scaled by REF_NOMINAL_NS over the mean of the two reference samples
    around it: timings read as on a machine where the loop takes 1 ms.  The
    unscaled figures are reported in the context line.
    """

    def __init__(self):
        self.samples: list[int] = []
        self.last = time.perf_counter()

    def sample(self) -> int:
        """Take a sample; returns the number taken so far, a mark for the
        item timed next (its neighbours are samples mark-1 and mark)."""
        self.samples.append(reference_ns())
        self.last = time.perf_counter()
        return len(self.samples)

    def poll(self) -> None:
        if time.perf_counter() - self.last >= REF_GAP_S:
            self.sample()

    def scaled(self, values, marks: list[int]) -> list[float]:
        s = self.samples
        return [v * 2 * REF_NOMINAL_NS / (s[k - 1] + s[k]) for v, k in zip(values, marks)]


class SetupProbes:
    """Set-up timings from fresh interpreters, started between ops at even
    intervals over the run, each between two speed samples."""

    def __init__(self, workload: str, seconds: float, speed: Speed):
        self.workload = workload
        _child("probe.py", [workload])  # writes the bytecode caches; not counted
        self.speed = speed
        self.results: list[dict] = []
        self.marks: list[int] = []
        self.interval = seconds / SETUP_PROBES
        self.next_at = time.perf_counter()

    def _probe(self) -> None:
        self.marks.append(self.speed.sample())
        self.results.append(_child("probe.py", [self.workload]))
        self.speed.sample()

    def poll(self) -> None:
        if len(self.results) < SETUP_PROBES and time.perf_counter() >= self.next_at:
            self._probe()
            self.next_at += self.interval

    def summary(self, scaled: bool = True) -> dict:
        """Median of each timing over the probes, scaled by machine speed."""
        while len(self.results) < SETUP_PROBES:
            self._probe()
        out = {}
        for key in self.results[0]:
            values = [r[key] for r in self.results]
            if scaled:
                values = self.speed.scaled(values, self.marks)
            out[key] = statistics.median(values)
        return out


# ---------------------------------------------------------------------------
# statistics


def _rank(n: int, pct: float) -> int:
    return max(1, math.ceil(n * pct / 100))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    return sorted(values)[_rank(len(values), pct) - 1]


def layer_tail_pct(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    return next((p for p in (99.9, 99.0, 90.0, 75.0) if n - _rank(n, p) >= 10), 50.0)


# ---------------------------------------------------------------------------
# the op loop


class Loop:
    """Issues a workload's ops in order and checks each answer.

    Ops before ``warmup`` fill caches and stay out of the timings; outputs of
    ops before ``window`` go into the digest and their work into the counts.
    """

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.stream = wl.ops(seed)
        self.index = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def next_op(self):
        op = next(self.stream)
        self.index += 1
        return op

    def run(self, op):
        """Time one op; returns (nanoseconds, output or None if it raised)."""
        t0 = time.perf_counter_ns()
        try:
            out = self.wl.run(op)
        except Exception as exc:  # any raise is a failed op, not a crash of the benchmark
            self.record_failure(op, f"{type(exc).__name__}: {exc}")
            return time.perf_counter_ns() - t0, None
        return time.perf_counter_ns() - t0, out

    def check(self, op, out, in_window: bool) -> bool:
        if out is None:
            return False
        try:
            text = self.wl.check(op, out)
        except Exception as exc:  # WrongAnswer, or a payload too broken to parse
            self.record_failure(op, f"{type(exc).__name__}: {exc}")
            return False
        if in_window:
            self.digest.update(text.encode())
        return True

    def record_failure(self, op, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op}: {msg}")


def untraced(wl, seed: int, seconds: float, probes: SetupProbes):
    """Returns the loop, each timed op's duration, and the speed mark taken
    before it."""
    loop = Loop(wl, seed)
    speed = probes.speed
    for _ in range(wl.warmup):
        op = loop.next_op()
        loop.check(op, loop.run(op)[1], loop.index <= wl.window)
    durations, marks = array("q"), array("q")  # compact, so memory does not grow with ops
    speed.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or loop.index < wl.window:
        op = loop.next_op()
        marks.append(len(speed.samples))
        ns, out = loop.run(op)
        durations.append(ns)
        loop.check(op, out, loop.index <= wl.window)
        speed.poll()
        probes.poll()
    speed.sample()
    return loop, durations, marks


def traced(wl, seed: int, seconds: float, min_ops: int, probes: SetupProbes | None = None):
    """Each op gets a span; after it, outside that span, the op's inputs are
    replayed through the layers beneath it, one child span per call."""
    import workloads
    tr = workloads.Tracer()
    loop = Loop(wl, seed)
    speed = probes.speed if probes else Speed()
    counts: dict[str, int] = {}
    op_spans: list[tuple[int, object, int]] = []  # (span, op, speed mark)
    speed.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or loop.index < min_ops:
        op = loop.next_op()
        in_window = loop.index <= wl.window
        mark = len(speed.samples)
        t0 = time.perf_counter_ns()
        ns, out = loop.run(op)
        sid = tr.add("op." + op.kind, -1, t0, t0 + ns)
        op_spans.append((sid, op, mark))
        if loop.check(op, out, in_window):
            try:
                wl.replay(op, out, tr, sid, counts if in_window else None)
            except Exception as exc:  # the program failed on the op's own inputs
                loop.record_failure(op, f"replay: {type(exc).__name__}: {exc}")
        speed.poll()
        if probes:
            probes.poll()
    speed.sample()
    return loop, tr, counts, op_spans


def tracing_overhead(wl, seed: int, tr, op_spans, speed: Speed) -> float:
    """Percent by which an op's span in the traced run exceeds the same op
    run again untraced: the median over the window's ops past warm-up, both
    timings scaled by machine speed."""
    sample = op_spans[wl.warmup: wl.warmup + wl.window]
    again = Loop(wl, seed)
    marks, untraced_ns = [], []
    speed.sample()
    for _, op, _ in sample:
        marks.append(len(speed.samples))
        untraced_ns.append(again.run(op)[0])
        speed.poll()
    speed.sample()
    traced_ns = speed.scaled([tr.end[sid] - tr.start[sid] for sid, _, _ in sample],
                             [mark for _, _, mark in sample])
    ratios = [a / b for a, b in zip(traced_ns, speed.scaled(untraced_ns, marks))]
    return (statistics.median(ratios) - 1) * 100


def layer_metrics(wl, tr, op_spans) -> dict[str, float]:
    """Per-layer numbers from the spans of ops past warm-up: the median (and
    tail) per-call self time of each replayed function, and per CLI op its
    time left after the replayed library calls the CLI makes itself."""
    import workloads
    skip = {sid for sid, _, _ in op_spans[: wl.warmup]}
    per_call: dict[str, list[int]] = {}
    inter_ns = inter_calls = 0
    cli_lib: dict[int, int] = {}
    cli_ids = {tr.names.index(n) for n in workloads.CLI_CALLS if n in tr.names}
    for parent, nid, t0, t1, n in zip(tr.parent, tr.name, tr.start, tr.end, tr.n):
        if parent < 0 or parent in skip:
            continue
        name = tr.names[nid]
        if name == "lattice.intersect":
            inter_ns += t1 - t0
            inter_calls += n
        else:
            per_call.setdefault(name, []).append(t1 - t0)
        if nid in cli_ids:
            cli_lib[parent] = cli_lib.get(parent, 0) + t1 - t0
    cli_self = [
        tr.end[sid] - tr.start[sid] - cli_lib.get(sid, 0)
        for sid, op, _ in op_spans[wl.warmup:] if op.kind == "cli"
    ]

    def med(name, scale):
        v = per_call.get(name)
        return statistics.median(v) / scale if v else 0.0

    def tail(name, scale):
        v = per_call.get(name)
        return percentile(v, layer_tail_pct(len(v))) / scale if v else 0.0

    sample = sum(per_call.get("verify.sample_nef", []))
    mu = sum(per_call.get("verify.check_mu_bounds", []))
    return {
        "typeenum.classify_us": med("typeenum.classify", 1e3),
        "notation.parse_negset_us": med("notation.parse_negset", 1e3),
        "cli.main_self_us": statistics.median(cli_self) / 1e3 if cli_self else 0.0,
        "lattice.intersect_ns": inter_ns / inter_calls if inter_calls else 0.0,
        "curves.full_neg_us": med("curves.full_neg", 1e3),
        "curves.reduce_to_nef_us": med("curves.reduce_to_nef", 1e3),
        "curves.reduce_to_nef_tail_us": tail("curves.reduce_to_nef", 1e3),
        "curves.h0_us": med("curves.h0", 1e3),
        "curves.is_nef_us": med("curves.is_nef", 1e3),
        "fatpoints.proximity_reduce_us": med("fatpoints.proximity_reduce", 1e3),
        "fatpoints.hilbert_function_ms": med("fatpoints.hilbert_function", 1e6),
        "fatpoints.minimal_resolution_ms": med("fatpoints.minimal_resolution", 1e6),
        "verify.sample_nef_ms": med("verify.sample_nef", 1e6),
        "verify.sample_nef_tail_ms": tail("verify.sample_nef", 1e6),
        "verify.sample_share": sample / (sample + mu) if sample + mu else 0.0,
        "verify.check_mu_bounds_us": med("verify.check_mu_bounds", 1e3),
    }


COUNT_METRICS = ("curves.reduce_calls", "curves.reduce_steps", "typeenum.classify_calls",
                 "verify.mu_checks", "verify.sampled_classes", "verify.sample_requested")


def count_metrics(counts: dict[str, int]) -> dict[str, float]:
    out = {k: counts.get(k, 0) for k in COUNT_METRICS}
    calls, req = out["curves.reduce_calls"], out["verify.sample_requested"]
    out["curves.steps_per_reduce"] = out["curves.reduce_steps"] / calls if calls else 0.0
    out["verify.sample_yield"] = out["verify.sampled_classes"] / req if req else 0.0
    return out


def write_spans(tr, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("span\tparent\tname\tstart_ns\tend_ns\tcalls\n")
        for i, row in enumerate(zip(tr.parent, tr.name, tr.start, tr.end, tr.n)):
            parent, nid, t0, t1, n = row
            f.write(f"{i}\t{parent}\t{tr.names[nid]}\t{t0}\t{t1}\t{n}\n")


# ---------------------------------------------------------------------------
# provenance


def provenance() -> dict:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": rev, "src_sha256": h.hexdigest()}


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--recount", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sixpoints" / "__init__.py").is_file():
        return _fail(f"no sixpoints package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    import sixpoints
    if Path(sixpoints.__file__).resolve().parent != SRC / "sixpoints":
        return _fail(f"imported sixpoints from {sixpoints.__file__}, not from {SRC}")

    workloads.warm_caches()
    wl = workloads.WORKLOADS[args.workload](workloads.Catalog())

    if args.recount:
        loop, _, counts, _ = traced(wl, args.seed, 0.0, wl.window)
        print(json.dumps({"counts": counts, "digest": loop.digest.hexdigest(),
                          "failed": loop.failed}))
        return 0

    with open(os.devnull, "w") as sink:  # the CLI reports rejected queries on stderr
        saved, sys.stderr = sys.stderr, sink
        try:
            probes = SetupProbes(args.workload, args.seconds, Speed())
            if args.trace:
                build_ms = []
                for _ in range(BUILD_REPEATS):
                    t0 = time.perf_counter()
                    workloads.build_types(workloads.table_rows())
                    build_ms.append((time.perf_counter() - t0) * 1e3)
                loop, tr, counts, op_spans = traced(wl, args.seed, args.seconds,
                                                    wl.warmup + wl.window, probes)
                overhead = tracing_overhead(wl, args.seed, tr, op_spans, probes.speed)
            else:
                loop, durations, marks = untraced(wl, args.seed, args.seconds, probes)
            setup = probes.summary()
        finally:
            sys.stderr = saved

    digest = loop.digest.hexdigest()
    checks = {}
    if args.seed == DEFAULT_SEED:
        want = json.loads((HERE / "digests.json").read_text()).get(args.workload)
        checks["digest_matches"] = digest == want
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "ops": loop.index, "digest": digest,
               "failed_ratio": loop.failed / loop.index, **provenance()}

    if args.trace:
        env = dict(os.environ, PYTHONHASHSEED=str(args.seed + 1))
        again = _child("run.py", ["--recount", "--workload", args.workload,
                                  "--seed", str(args.seed)], env)
        checks["counts_repeat"] = again["counts"] == counts
        checks["digest_repeats"] = again["digest"] == digest
        metrics = {
            "typeenum.build_types_ms": statistics.median(build_ms),
            "setup.import_ms": setup["import_ms"],
            "setup.enumerate_ms": setup["enumerate_ms"],
            **layer_metrics(wl, tr, op_spans),
            **count_metrics(counts),
            "trace.overhead_pct": overhead,
        }
        context["spans"] = len(tr)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        write_spans(tr, out)
        context["span_file"] = str(out.relative_to(ROOT))
    else:
        speed = probes.speed
        n = len(durations)
        context["timed_ops"] = n
        context["tail_pct"] = wl.tail_pct
        context["tail_samples_beyond"] = n - _rank(n, wl.tail_pct)
        context["reference_us"] = statistics.median(speed.samples) / 1e3
        context["unscaled"] = {"setup_s": probes.summary(scaled=False)["setup_s"],
                               **op_metrics(durations, wl.tail_pct)}
        metrics = {
            "setup_s": setup["setup_s"],
            **op_metrics(speed.scaled(durations, marks), wl.tail_pct),
            "peak_rss_mb": peak_rss_mb(),
        }
    context["checks"] = checks
    context["errors"] = loop.errors
    print(json.dumps({"context": context}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(unit_of) != set(metrics):
        return _fail(f"metrics {sorted(set(metrics) ^ set(unit_of))} differ from BENCHMARK.json")
    correct = loop.failed == 0 and all(checks.values())
    print(json.dumps({
        "correct": correct, "attempted": loop.index, "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


def op_metrics(durations, tail: float) -> dict[str, float]:
    return {
        "ops_per_s": len(durations) / (sum(durations) / 1e9),
        "op_p50_ms": statistics.median(durations) / 1e6,
        "op_tail_ms": percentile(durations, tail) / 1e6,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
