"""thetainv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload e8-pair-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --selftest                   # tiny sizes, seconds

Run it from the repository root.  Every set-up sample and every measured run
is a fresh process (``harness.py``) working in its own directory under
``.perfbench_tmp/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it show the same metrics by name and unit, and the run record.
End-to-end times are scaled to a reference host speed by a probe that each
measured process times next to its work (``calib.py``).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import tracing_report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170        # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The harness itself failed; no result may be printed."""


def _child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env.pop("THETAINV_CACHE_DIR", None)
    env["XDG_CACHE_HOME"] = os.path.join(workdir, "xdg")
    env["PYTHONHASHSEED"] = "0"
    # one client on one core: numpy's BLAS must not spread over the machine
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Session:
    """Starts harness processes for one benchmark invocation."""

    def __init__(self, args, workloads: int):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S * workloads
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass                   # another run still uses it

    def child(self, workload: str, mode: str, *, size: str = "full",
              passes: int | None = None, break_refs: str | None = None) -> dict:
        workdir = tempfile.mkdtemp(dir=self.tmp)
        cmd = [sys.executable, HARNESS, "--workload", workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--mode", mode, "--size", size, "--workdir", workdir]
        if passes is not None:
            cmd += ["--passes", str(passes)]
        if break_refs:
            cmd += ["--break-refs", break_refs]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                                  env=_child_env(workdir), stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode}: no result within "
                             f"{RUN_LIMIT_S} s") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} {mode}: harness exited with "
                             f"{proc.returncode}")
        return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(seconds: float, probe_s: float) -> float:
    """A measured time scaled to the reference host speed (see calib.py)."""
    return seconds * calib.REFERENCE_S / probe_s


def measure(session: Session, workload: str, size: str = "full") -> dict:
    """Untraced run: set-up samples plus one measured closed-loop run.
    Every time is scaled to the reference host speed by the typical probe
    time around it, and then summarised by medians."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res = session.child(workload, "setup", size=size)
        setups.append(_scaled(res["setup_s"], res["setup_probe_s"]))
    run = session.child(workload, "run", size=size)
    bursts = run["bursts"]
    setups.append(_scaled(run["setup_s"], calib.typical(bursts[0])))
    # each request scaled by the probes just before, during and just after it
    times, pass_walls = [], [0.0] * len(run["pass_walls"])
    for _label, npass, dt, i, ticks in run["events"]:
        t = _scaled(dt, calib.typical(bursts[i] + ticks + bursts[i + 1]))
        times.append(t)
        pass_walls[npass] += t
    passes = len(pass_walls)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(pass_walls), "s"),
        "latency_p50_s": _metric(statistics.median(times), "s"),
        "peak_rss_mb": _metric(run["first_pass_rss_mb"], "MB"),
    }
    probes = [p for b in bursts for p in b] + [p for e in run["events"]
                                               for p in e[4]]
    speed = calib.REFERENCE_S / calib.typical(probes)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {passes} passes of "
                  f"{len(times) // passes} requests (unscaled "
                  f"{statistics.median(run['pass_walls']):.4g} s)",
        "latency_p50_s": f"n={len(times)} requests ({passes} passes)",
        "peak_rss_mb": "peak RSS after the first pass",
    }
    return {"metrics": metrics, "notes": notes, "attempted": run["attempted"],
            "failed": run["failed"], "failures": run["failures"],
            "speed": speed}


def trace(session: Session, workload: str, size: str = "full") -> dict:
    """Traced run: one untraced pass and one traced pass, each in its own
    process, so the gap between them is the tracing and CLI overhead."""
    plain = session.child(workload, "run", size=size, passes=1)
    traced = session.child(workload, "trace", size=size)
    layer = tracing_report.metrics(traced["spans"], plain["pass_walls"][0])
    metrics = {name: _metric(layer[name], unit)
               for name, unit in tracing_report.LAYER_METRICS}
    failures = plain["failures"] + traced["failures"]
    return {"metrics": metrics, "notes": {},
            "breakdown": tracing_report.breakdown(traced["spans"],
                                                  traced["labels"]),
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "failures": failures}


def run_record(args) -> dict:
    import numpy
    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "machine": platform.machine(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_result(workload: str, res: dict) -> None:
    print(f"== {workload}")
    for name, m in res["metrics"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'failed_ratio':34s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed} of {attempted} requests")
    if "speed" in res:
        print(f"  {'host speed':34s} {res['speed']:>16.6g} {'x':6s} "
              f"reference / typical probe time; the times above are scaled")
    for line in res.get("breakdown", ()):
        print("  " + line)
    for problem in res["failures"]:
        print(f"  FAILED {problem}")


def selftest(session: Session) -> bool:
    """Every workload at tiny size: untraced, traced, and with broken
    references (the gate must then fail every compute request).  The shell
    sizes are broken separately where a reference lists them."""
    ok = True
    for w in WORKLOADS:
        for label, res in (("run", measure(session, w, "tiny")),
                           ("trace", trace(session, w, "tiny"))):
            good = res["failed"] == 0 and res["attempted"] > 0
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {w} {label}: "
                  f"{res['attempted']} requests, {res['failed']} failed")
        breaks = {"verify": (), "rank16-cold": ("coeffs", "shells")}
        for kind in breaks.get(w, ("coeffs",)):
            for mode in ("run", "trace"):
                bad = session.child(w, mode, size="tiny", passes=1,
                                    break_refs=kind)
                good = bad["attempted"] > 0 and bad["failed"] == bad["attempted"]
                ok &= good
                print(f"{'ok  ' if good else 'FAIL'} {w} {mode} gate: "
                      f"{bad['failed']} of {bad['attempted']} requests rejected "
                      f"against altered {kind}")
    ticker = calib.Ticker()
    with ticker.active():
        end = time.perf_counter() + 10 * calib.TICK_S
        while time.perf_counter() < end:
            pass
    good = len(ticker.samples) >= 5 and ticker.spent > 0
    ok &= good
    print(f"{'ok  ' if good else 'FAIL'} the probe ticker took "
          f"{len(ticker.samples)} probes in {10 * calib.TICK_S:g} s of work")
    want = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    good = want == set(tracing_report.LAYER_METRICS)
    want = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    good &= want == set(END_TO_END)
    ok &= good
    print(f"{'ok  ' if good else 'FAIL'} BENCHMARK.json lists the reported metrics")
    return ok


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="thetainv benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "thetainv", "__init__.py")):
        print("error: src/thetainv not found; run from a thetainv checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.selftest or args.workload == "all" \
        else (args.workload,)
    if args.selftest:
        args.seconds = 1
    # a terminated run must not leave its harness process behind:
    # subprocess.run kills and waits for the child when this raises
    signal.signal(signal.SIGTERM, _terminated)
    session = Session(args, len(workloads))
    try:
        if args.selftest:
            return 0 if selftest(session) else 1
        results = {}
        for w in workloads:
            results[w] = (trace if args.trace else measure)(session, w)
            _print_result(w, results[w])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        session.close()
    print("record " + json.dumps(run_record(args), sort_keys=True))
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
