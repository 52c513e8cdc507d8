"""The ndslab benchmark.

    python3 perfbench/run.py --workload {corpus,check-sweep,orbit-scan}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the benchmark imports ndslab from
./src and nothing else, and exits non-zero without a result when ./src is
missing.  It generates the workload's inputs from the seed (gen.py), then
measures in fresh interpreters (child.py), one after another, each one
process with one thread:

- set-up: SETUP_PROBES interpreters import ndslab and read the inputs,
  half before the measured run and half after it, so that a short slow
  spell of the machine does not move them all; setup_s is the median of
  their set-up times and the measured run's;
- the measured run: a closed loop over the requests, its outputs checked by
  the correctness gate (gate.py) after the timed region;
- with --trace 1, one more interpreter runs the workload traced (tracer.py)
  for the per-layer metrics; trace.overhead_s is its wall time minus the
  untraced run's.

The host's speed drifts too much for raw times to compare across runs, so
every end-to-end time (set-up, each request, and wall_s, their sum) is
scaled to a fixed reference speed by sampling a reference workload through
the timed region (speed.py); the raw times are printed alongside.
verdict_p50_ms and verdict_p90_ms are Harrell-Davis quantiles of the
scaled request times.

--seconds sets the amount of work, not a deadline: check-sweep and
orbit-scan carry a number of requests proportional to it (gen.py).  corpus
is one fixed request.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
(trace 0) or every per_layer one (trace 1).  The lines before it list the
run environment, failures by family, the known-failure probes and, for a
traced corpus run, one row per expectation.  The measured run's raw result
(and the trace of a traced run) are kept in perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("corpus", "check-sweep", "orbit-scan")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    # cli reports this setting without the engine using it: keep it unset
    env.pop("NDSLAB_ALPHA_BITS", None)
    # set-up is measured with compiled bytecode present, as on an install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: argparse.Namespace, inputs: Path, name: str, *flags: str) -> dict:
    """Run child.py in a fresh interpreter; its result dict."""
    result = inputs / f"{name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"),
           "--workload", args.workload, "--inputs", str(inputs), "--result", str(result),
           "--seed", str(args.seed), *flags]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark child exited with {proc.returncode}")
    return json.loads(result.read_text())


def _quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over their
    ranks, so that one request crossing a gap in the distribution moves it
    by a little, not by the width of the gap."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 20  # midpoint rule over each rank's interval [i/n, (i+1)/n]
    weights = [sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def end_to_end(run: dict, setups: list) -> dict:
    lat_ms = [s * 1000 for s in run["latencies_s"]]
    return {
        "wall_s": run["wall_s"],
        "verdict_p50_ms": _quantile(lat_ms, 0.5),
        "verdict_p90_ms": _quantile(lat_ms, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "decided_share": run["decided"] / run["verdicts"] if run["verdicts"] else 0.0,
    }


def per_layer(names: list, traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer values from the traced run; `<module>.<function>.<stat>`
    reads the stat of that wrapped function (0 when it was never called)."""
    trace = traced["trace"]
    extra = {
        "cli.report_bytes": traced["report_bytes"],
        "trace.overhead_s": traced["raw_wall_s"] - untraced_wall_s,
    }
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        fn, _, stat = name.rpartition(".")
        st = trace.get(fn, {})
        if stat == "true_share":
            answered = st.get("calls", 0) - st.get("raised", 0)
            out[name] = st.get("true", 0) / answered if answered else 0.0
        else:
            out[name] = st.get(stat, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ndslab" / "__init__.py").is_file():
        print(f"no ndslab sources under {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = HERE / ".out"
    outdir.mkdir(exist_ok=True)
    try:
        manifest = gen.generate(args.workload, args.seed, args.seconds, work)
        _child(args, work, "warm", "--setup-only")  # compiles bytecode
        setups = [_child(args, work, f"setup-{i}", "--setup-only")["setup_s"]
                  for i in range(SETUP_PROBES // 2)]
        run = _child(args, work, "run")
        setups += [_child(args, work, f"setup-{i}", "--setup-only")["setup_s"]
                   for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        (outdir / f"run-{args.workload}-{args.seed}.json").write_text(json.dumps(run))
        metrics = end_to_end(run, setups + [run["setup_s"]])
        if args.trace:
            traced = _child(args, work, "traced", "--trace")
            metrics = per_layer([m["name"] for m in spec["per_layer"]], traced, run["raw_wall_s"])
            (outdir / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(traced, indent=1, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# env " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "ndslab": run["ndslab_version"], "commit": _git_commit(),
        "NDSLAB_ALPHA_BITS": "unset", "PYTHONHASHSEED": "0",
        "requests": len(manifest["requests"]),
        "shares_work_share": manifest.get("shares_work_share"),
        "repeated_system_share": manifest.get("repeated_system_share"),
        "user_scale_share": manifest.get("user_scale_share"),
        "cache_reset": run.get("cache_reset"),
    }, sort_keys=True))
    for f in run["failures"]:
        print(f"# failed [{f['family']}] request {f['request']}: {f['reason']}")
    for p in run.get("probes", []):
        print(f"# known-failure probe [{p['family']}] {p['system']} "
              f"{' '.join(p['properties'])}: {p['outcome']}")
    if args.trace:
        expectations = [s for name, s in traced["spans"] if name == "corpus.expectation"]
        for row, sec in zip(traced.get("corpus_rows", []), expectations):
            print(f"# expectation {sec:9.4f} s  {row['scenario']}: {row['description']}")
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(f"# raw wall_s = {run['raw_wall_s']} s, raw setup_s = {run['raw_setup_s']} s; "
          f"{run['speed_samples']} speed samples, median {run['median_sample_s']} s "
          f"(reference {speed.REF_S} s)")
    print(f"# error_rate = {run['failed']}/{run['attempted']}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
