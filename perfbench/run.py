"""Benchmark entry point: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload small-train --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. Each workload run happens in a
fresh child process (``workload.py``) with BLAS threads capped at the
number of usable cores. With ``--trace 0`` the last line holds the
end-to-end metrics. With ``--trace 1`` the same workload runs twice, once
untraced and once traced, one process after the other; the last line then
holds the per-layer metrics of the traced run plus ``trace.overhead``, and
the run counts as correct only if both runs produced bit-identical losses,
penalties and Thomson energies.

The line before the last carries the details: every timing's median, tail
percentile and sample count, the failed share and the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hypersep"
OUT = HERE / "out"

# Every run must finish within 180 s; leave room to report.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "step_s": "s",
    "eval_rtf": "audio_s/s",
    "peak_rss_mb": "MB",
    "penalty_s.full_euclidean_s0": "s",
    "penalty_s.half_euclidean_s0": "s",
    "penalty_s.half_angular_s0": "s",
    "thomson_s": "s",
}

PER_LAYER_UNITS = {
    "calls": "count",
    "sdr.segments": "count",
    "energy.clamped_pairs": "count",
    "thomson.accepted_per_eval": "ratio",
    "trace.overhead": "ratio",
    "net.conv_gflops_fwd": "GFLOP/s",
    "net.conv_gflops_bwd": "GFLOP/s",
    "call_us": "us",
}


def per_layer_unit(name: str) -> str:
    for key, unit in PER_LAYER_UNITS.items():
        if name == key or name.endswith("." + key):
            return unit
    return "MB" if "peak_alloc_mb" in name else "s"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(cores: int) -> dict[str, str]:
    """Environment for a workload process: package on the path, BLAS
    threads no more than the usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(wanted, cores)))
    return env


def run_child(args, traced: bool, env, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0", "--pair", str(args.trace), "--out", str(OUT),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the workload run")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_facts() -> dict:
    """Line count and content hash of src/, and the git commit if there is one."""
    files = sorted(p for p in (ROOT / "src").rglob("*.py") if "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "git_commit": commit}


def environment(args, cores: int, env, child: dict) -> dict:
    """Recorded next to the numbers; numpy and BLAS as the workload process saw them."""
    return {
        **child,
        "python": platform.python_version(),
        "nproc": cores,
        "blas_thread_limit": int(env["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        **source_facts(),
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="hypersep benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=("small-train", "paper-train-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no hypersep sources at {PACKAGE}; run from a source checkout\n")
        return 2

    cores = usable_cores()
    env = child_env(cores)
    OUT.mkdir(exist_ok=True)
    deadline = started + DEADLINE_S
    try:
        base = run_child(args, False, env, deadline)
        traced = run_child(args, True, env, deadline) if args.trace else None
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    runs = [base] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    complete = all(r["completed"] for r in runs)
    if traced is not None:
        # The traced run must compute exactly what the untraced one did.
        attempted += 1
        if traced["results"] != base["results"]:
            failed += 1
            errors.append("traced results differ from untraced results")
    if not complete:
        sys.stderr.write("workload did not complete: " + "; ".join(errors) + "\n")
        return 1

    if traced is None:
        metrics = {n: {"value": base["values"][n], "unit": u} for n, u in END_TO_END.items()}
    else:
        values = dict(traced["per_layer"])
        values["trace.overhead"] = traced["values"]["step_s"] / base["values"]["step_s"] - 1.0
        metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in values.items()}

    details = {
        "details": {
            "failed_share": failed / attempted,
            "errors": errors,
            "timings": {("traced." if r is traced else "") + k: v
                        for r in runs for k, v in r["summaries"].items()},
            "untraced_values": base["values"],
            "spans_file": traced["spans_file"] if traced else None,
            "environment": environment(args, cores, env, base["environment"]),
        }
    }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
