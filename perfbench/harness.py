"""One benchmark process: set up a workload, then run it untraced (through
``thetainv.cli.main``) or traced (through the public calls the CLI makes).

``run.py`` starts this script in a fresh process for every set-up sample and
every measured run, so imports, ``lru_cache`` contents and peak RSS belong to
that process alone.  It prints one JSON object as its last line.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S
        --mode setup|run|trace --workdir DIR --t0 MONOTONIC [--size tiny]
        [--passes K] [--break-refs coeffs|shells]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from thetainv import cli  # noqa: E402
from thetainv.catalog import get_lattice  # noqa: E402

import calib  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _call_cli(argv: list[str]) -> tuple[int | None, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a raising request is counted as failed
        traceback.print_exc()
        rc = None
    dt = time.perf_counter() - t
    if rc:
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue(), dt


def _gate_cli(req, rc, text: str, refs: dict) -> str | None:
    if rc != 0:
        return f"{req.label()}: exit code {rc}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"{req.label()}: unreadable output ({exc})"
    if req.base == "verify":
        return None if doc.get("passed") is True else f"{req.label()}: report failed"
    return gate.check(refs, req.ref_key(), gate.from_cli_doc(doc))


BURST_EVERY_S = 0.5
SETTLE_PROBES = 30     # probes that scale a set-up time


class Runner:
    """Sends one workload's requests in a closed loop from one client."""

    def __init__(self, args, inputs, refs):
        self.inputs = inputs
        self.refs = refs
        self.reqs = wl.requests(args.workload, args.size)
        self.order_rng = random.Random(f"order-{args.seed}")
        self.verify_seeds = wl.verify_seeds(args.seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.sent = 0

    def passes(self):
        """Yield the shuffled request list once per pass."""
        while True:
            batch = list(self.reqs)
            self.order_rng.shuffle(batch)
            yield batch

    def _cache_dir(self) -> str | None:
        """Untimed: a cold workload starts each request on its own empty
        cache directory, kept until the saved shells are checked."""
        self.sent += 1
        if not self.inputs.cold:
            return self.inputs.cache_dir
        path = os.path.join(self.inputs.cache_dir, f"r{self.sent:03d}")
        os.makedirs(path)
        return path

    def _argv(self, req, cache_dir) -> list[str]:
        if req.base == "verify":
            return ["verify", "--order-budget", str(req.budget),
                    "--seed", str(next(self.verify_seeds))]
        return wl.compute_argv(req, self.inputs.files[req], cache_dir)

    def _lists_shells(self, req) -> bool:
        return "shell_sizes" in self.refs.get(req.ref_key(), {})

    def _check_saved(self, req, cache_dir) -> str | None:
        """Untimed: the shells a cold request wrote, when its reference
        lists them."""
        if not self._lists_shells(req):
            return None
        lattice = get_lattice(self.inputs.files[req])
        problem = gate.check_shells(self.refs, req.ref_key(), lattice,
                                    req.order, cache_dir)
        shutil.rmtree(cache_dir)
        return problem

    def _record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)
            print(f"FAILED {problem}", file=sys.stderr)

    def untraced(self, seconds: float, max_passes: int | None) -> dict:
        """Closed-loop passes, with host-speed probes (see calib.py): a
        long burst before the first request (it also scales the set-up), a
        short one after any request that ends at least ``BURST_EVERY_S``
        after the last burst and after every pass, so that each request
        lies between ``bursts[i]`` and ``bursts[i + 1]``; and ticks inside
        each request, whose time is taken out of it."""
        walls, events, saved = [], [], []
        ticker = calib.Ticker()
        bursts = [calib.burst(SETTLE_PROBES)]
        last_burst = start = time.perf_counter()
        for batch in self.passes():
            wall = 0.0
            for i, req in enumerate(batch):
                cache_dir = self._cache_dir()
                with ticker.active():
                    rc, text, dt = _call_cli(self._argv(req, cache_dir))
                dt -= ticker.spent
                wall += dt
                events.append((req.label(), len(walls), dt, len(bursts) - 1,
                               ticker.samples))
                problem = _gate_cli(req, rc, text, self.refs)
                if self.inputs.cold:
                    saved.append((req, cache_dir, problem))
                else:
                    self._record(problem)
                if (i == len(batch) - 1
                        or time.perf_counter() - last_burst >= BURST_EVERY_S):
                    bursts.append(calib.burst())
                    last_burst = time.perf_counter()
            walls.append(wall)
            if len(walls) == 1:
                rss = tracing.peak_rss_mb()    # the fixed list, once
            # closed loop: start another pass only if it fits in the run
            elapsed = time.perf_counter() - start
            if max_passes is not None and len(walls) >= max_passes:
                break
            if elapsed + statistics.median(walls) > seconds:
                break
        # after the timed passes and the RSS reading: loading a saved table
        # costs time and memory that are not the request's
        for req, cache_dir, problem in saved:
            shells = self._check_saved(req, cache_dir)
            self._record(problem or shells)
        return {"pass_walls": walls, "events": events, "bursts": bursts,
                "first_pass_rss_mb": rss}

    def traced(self, tracer: tracing.Tracer) -> dict:
        labels = {}
        for i, req in enumerate(next(self.passes())):
            rid = f"r{i:02d}"
            labels[rid] = req.label()
            cache_dir = self._cache_dir()
            try:
                if req.base == "verify":
                    results = tracing.traced_verify(tracer, rid, req.budget,
                                                    next(self.verify_seeds))
                    bad = [r.name for r in results if not r.passed]
                    problem = f"{req.label()}: {bad} failed" if bad else None
                else:
                    series, meta, table = tracing.traced_compute(
                        tracer, rid, req, self.inputs.files[req], cache_dir)
                    problem = gate.check(self.refs, req.ref_key(),
                                         gate.from_series(series, meta))
                    if self.inputs.cold and self._lists_shells(req):
                        # the enumerated count, then the saved shells
                        problem = (problem
                                   or gate.check_sizes(self.refs, req.ref_key(), table)
                                   or self._check_saved(req, cache_dir))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                traceback.print_exc()
                problem = f"{req.label()}: {type(exc).__name__}: {exc}"
            self._record(problem)
        return {"spans": tracer.spans, "labels": labels}


def _prefill(tracer: tracing.Tracer, inputs) -> None:
    """Set-up: enumerate and save every table the warm cache must hold."""
    for lat, bound in inputs.prefill:
        table = tracing.enumerate_table(tracer, "setup", lat, bound)
        tracing.save_table(tracer, "setup", table, inputs.cache_dir)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--size", default="full", choices=wl.SIZES)
    p.add_argument("--passes", type=int, default=None)
    p.add_argument("--break-refs", choices=("coeffs", "shells"), default=None,
                   help="self-test: alter every reference's coefficients, or "
                        "its shell sizes, so the gate must fail")
    args = p.parse_args(argv)

    refs = gate.load_refs()
    for ref in refs.values():
        if args.break_refs == "coeffs":
            ref["coeffs"] = ref["coeffs"][:-1] + ["-1/7"]
        elif args.break_refs == "shells" and "shell_sizes" in ref:
            ref["shell_sizes"] = ref["shell_sizes"][:-1] + [1]
    inputs = wl.make_inputs(args.workload, args.size, args.seed, args.workdir)
    tracer = tracing.Tracer()
    _prefill(tracer, inputs)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        result["setup_probe_s"] = calib.typical(calib.burst(SETTLE_PROBES))
    if args.mode != "setup":
        runner = Runner(args, inputs, refs)
        if args.mode == "trace":
            result.update(runner.traced(tracer))
        else:
            result.update(runner.untraced(args.seconds, args.passes))
        result.update(attempted=runner.attempted, failed=len(runner.failures),
                      failures=runner.failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
