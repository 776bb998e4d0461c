"""Benchmark of the momentschur package: one workload per run.

    python3 bench/run.py --workload hamburger --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --selftest

Run from the root of a source checkout; the package is imported from
``src/``.  A run builds the workload's inputs from ``--seed``, then runs
whole rounds of its ops (one op = one public call on one input) until
``--seconds`` have passed, checking every output against the benchmark's
own numpy computations.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced second half of the run.
The last line of stdout is the result object; the line before it holds
the details (fault counts, rounds, first check failures).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLOCK = 20  # op time between yardstick readings, in the yardstick's reference times
SETUP_REPEATS = 9  # one before the timed loop, the others spread over it
COLD_LAUNCHES = 3
# single-threaded BLAS: the machine has two cores and other tenants
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the yardstick of each workload whose work is not mostly small-matrix moment work
YARDSTICKS = {"schur-dense": "dense"}


def import_package():
    """Import numpy, then a fresh copy of the package from src/.

    Returns (module, numpy import seconds, package import seconds).  Any
    copy imported before is dropped from ``sys.modules`` first, so that each
    call runs the package's module code again and the import can be timed
    as often as set-up is.  Set-up time counts only the package's own import:
    numpy's is the same for every revision of the package, and as a one-shot
    load of a large library it varied by a quarter from run to run on the
    development machine.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    numpy_s = time.perf_counter() - t0
    for name in package_modules():
        del sys.modules[name]
    t1 = time.perf_counter()
    import momentschur
    import momentschur.cli  # noqa: F401
    package_s = time.perf_counter() - t1
    if not os.path.abspath(momentschur.__file__).startswith(SRC + os.sep):
        raise ImportError(f"momentschur came from {momentschur.__file__}, not from {SRC}")
    return momentschur, numpy_s, package_s


def package_modules():
    return {n: m for n, m in sys.modules.items() if n == "momentschur" or n.startswith("momentschur.")}


def execute(op):
    try:
        return op.call()
    except Exception as exc:  # the op's check judges what the program raised
        return exc


class Tally:
    """Outcomes and timings of the rounds of one phase.

    Op times are kept scaled to the yardstick's reference speed (see
    ``yardstick.py``): the loop's total wall and CPU time over all ops, and
    for each input the wall time of each of its correct repeats, in ms.
    """

    def __init__(self, ops):
        self.ops = ops
        # 8 bytes a repeat: the benchmark's own memory barely grows with the
        # number of rounds, which varies with the machine's speed
        self.wall = [array("d") for _ in ops]
        self.loop_wall_ns = 0.0
        self.loop_cpu_ns = 0.0
        self.correct = 0
        self.readings = array("d")
        self.rounds = []
        self.faults = Counter()
        self.mended = Counter()
        self.bad = []
        self.attempted = 0
        self.failed = 0

    def settle(self, pending, before, stick):
        """Scale the times of the ops run since reading ``before``; returns the new reading."""
        after = stick.read()
        self.readings.append(after[0] / 1e6)
        f_wall, f_cpu = stick.scale(before, after)
        for i, wall, cpu, ok in pending:
            self.loop_wall_ns += wall * f_wall
            self.loop_cpu_ns += cpu * f_cpu
            if ok:
                self.wall[i].append(wall * f_wall / 1e6)
        pending.clear()
        return after

    def judge(self, i, out):
        """True when op i's output is correct; records the failure otherwise.

        A fault-slice op that fails with its own fault counts as failed; one
        that answers correctly counts as correct and under ``mended``, since
        its output passed every check.  Any other failure is a check failure.
        """
        from ops import CheckFailed
        op = self.ops[i]
        self.attempted += 1
        try:
            fault = op.judge(out)
        except CheckFailed as exc:
            self.failed += 1
            self.bad.append(f"op {i} ({op.name}): {exc}")
            return False
        if fault is None:
            if op.fault_slice is not None:
                self.mended[op.fault_slice] += 1
            return True
        self.failed += 1
        self.faults[fault] += 1
        return False


def run_rounds(tally, seconds, stick, tracer=None, counter=None, between=None, times=0):
    """Whole rounds of every op until ``seconds`` have passed.

    The yardstick is read whenever BLOCK of its own reference times of op
    time have passed, and at the end of each round; the ops between two
    readings are scaled by them.  ``between()`` is called ``times`` times,
    between rounds, at even steps of the time; the calls a long round skips
    are made at the end.
    """
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    block_ns = BLOCK * stick.reference_ns
    start = time.perf_counter()
    deadline = start + seconds
    marks = [start + seconds * k / (times + 1) for k in range(1, times + 1)]
    op_id = 0
    first_round = True
    pending = []
    reading = stick.read()
    while True:
        gc.collect()
        wall = correct = since = 0
        for i, op in enumerate(tally.ops):
            if tracer is not None:
                tracer.op = op_id
                tracer.record = first_round
                tracer.active = counter.active = True
            t0 = clock()
            c0 = cpu_clock()
            out = execute(op)
            c1 = cpu_clock()
            t1 = clock()
            if tracer is not None:
                tracer.active = counter.active = False
            op_id += 1
            wall += t1 - t0
            since += t1 - t0
            ok = tally.judge(i, out)
            correct += ok
            pending.append((i, t1 - t0, c1 - c0, ok))
            if since >= block_ns:
                reading = tally.settle(pending, reading, stick)
                since = 0
        reading = tally.settle(pending, reading, stick)
        tally.correct += correct
        tally.rounds.append((wall, correct))
        first_round = False
        now = time.perf_counter()
        if now >= deadline:
            for _ in marks:
                between()
            return
        if marks and now >= marks[0]:
            marks.pop(0)
            between()
            reading = stick.read()


def latencies(tally):
    """Each correctly answered input's median scaled wall time, in ms.

    The median of an input's repeats: the fastest repeat was the estimate
    that moved most from run to run, since now and then a spell of the
    machine runs a few repeats of many inputs well ahead of the rest.
    """
    return [statistics.median(w) for w in tally.wall if w]


def per_op_ms(tally):
    return tally.loop_wall_ns / 1e6 / tally.correct


def round_rates(tally):
    """Correct ops per second of unscaled op wall time, for each whole round."""
    return [c / (w / 1e9) for w, c in tally.rounds if w]


def end_to_end(tally, setup_s, lapack):
    import numpy as np
    wall = latencies(tally)
    p50, p95 = np.percentile(wall, [50, 95])
    calls, mflop = lapack
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (tally.correct / (tally.loop_wall_ns / 1e9), "ops/s"),
        "latency_p50_ms": (float(p50), "ms"),
        "latency_p95_ms": (float(p95), "ms"),
        "cpu_ms_per_op": (tally.loop_cpu_ns / 1e6 / tally.correct, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "lapack_calls_per_op": (calls, "calls"),
        "kernel_mflop_per_op": (mflop, "Mflop"),
    }, len(wall)


def count_lapack(ops):
    """One untimed pass with the LAPACK counter: (calls, Mflop) per correct op."""
    from tracing import LapackCounter
    counter = LapackCounter()
    counter.install()
    tally = Tally(ops)
    correct = 0
    try:
        for i, op in enumerate(ops):
            counter.active = True
            out = execute(op)
            counter.active = False
            correct += tally.judge(i, out)
    finally:
        counter.uninstall()
    return sum(counter.calls.values()) / correct, counter.flops / 1e6 / correct


def cold_launches(workdir):
    """Cold `python -m momentschur classify` processes: (process ms, numpy import ms)."""
    path = os.path.join(workdir, "cold.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"q": 1, "blocks": [[[1]], [[0]], [[1]]]}, fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    process_ms, import_ms = [], []
    for _ in range(COLD_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "momentschur", "classify", path],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        process_ms.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            raise RuntimeError(f"cold CLI launch exited {proc.returncode}: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                import_ms.append(int(parts[1]) / 1e3)
    return statistics.median(process_ms), statistics.median(import_ms)


def per_layer(tracer, counter, tally, overhead_ms, cold):
    calls, self_ns = tracer.call_counts(), tracer.layer_self_ns()
    n = tally.correct
    theta_calls = calls["hamburger.theta"]
    theta_distinct = len(tracer.thetas)

    def per(x):
        return x / n

    metrics = {
        "linalg.eigh_calls": per(counter.calls["eigh"]),
        "linalg.eigvalsh_calls": per(counter.calls["eigvalsh"]),
        "linalg.svd_calls": per(counter.calls["svd"]),
        "linalg.computed_mflop": per(counter.flops / 1e6),
        "linalg.pinv_calls": per(calls["linalg.pinv"]),
        "linalg.psd_clip_calls": per(calls["linalg.psd_clip"]),
        "linalg.psd_verdict_calls": per(calls["linalg.psd_verdict"]),
        "linalg.psd_sqrt_calls": per(calls["linalg.psd_sqrt"]),
        "linalg.is_hermitian_calls": per(calls["linalg.is_hermitian"]),
        "schur.complement_calls": per(calls["schur.schur_complement"]),
        "schur.via_basis_calls": per(calls["schur.schur_complement_via_basis"]),
        "hamburger.theta_calls": per(theta_calls),
        "hamburger.theta_distinct": per(theta_distinct),
        "hamburger.theta_useful_ratio": theta_distinct / theta_calls if theta_calls else 1.0,
        "hamburger.block_hankel_calls": per(calls["hamburger.block_hankel"]),
        "hamburger.block_hankel_computed_mb": per(tracer.counts["block_hankel_bytes"] / 1e6),
        "hamburger.l_matrix_calls": per(calls["hamburger.l_matrix"]),
        "hamburger.r_upper_calls": per(calls["hamburger.r_upper"]),
        "hamburger.is_hnnde_calls": per(calls["hamburger.is_hnnde"]),
        "stieltjes.alpha_shift_calls": per(calls["stieltjes.alpha_shift"]),
        "stieltjes.kappa_calls": per(calls["stieltjes.kappa"]),
        "stieltjes.u_lower_calls": per(calls["stieltjes.u_lower"]),
        "stieltjes.is_knnde_calls": per(calls["stieltjes.is_knnde"]),
        "jsonio.bytes_in": per(tracer.counts["jsonio_bytes_in"]),
        "jsonio.bytes_out": per(tracer.counts["jsonio_bytes_out"]),
        "cli.moment_calls": per(tracer.counts["cli_moment_calls"]),
        "cli.process_ms": cold[0],
        "cli.import_ms": cold[1],
        "trace.overhead_ms_per_op": overhead_ms,
    }
    for layer in ("linalg", "schur", "hamburger", "stieltjes", "jsonio", "cli"):
        metrics[f"{layer}.self_ms"] = per(self_ns[layer] / 1e6)
    units = {"_calls": "calls", "_distinct": "calls", "_ratio": "ratio", "_mflop": "Mflop",
             "_mb": "MB", "bytes_in": "B", "bytes_out": "B", "_ms": "ms", "_ms_per_op": "ms"}
    out = {}
    for name, value in metrics.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        out[name] = (value, unit)
    return out


def set_up(build, seed, workdir, stick):
    """One set-up: a fresh import of the package, the inputs, and a warm-up.

    Returns (ops, package import seconds, seconds in all, seconds writing
    input files); the first two are scaled by yardstick readings taken just
    before and just after, and the time writing input files is left out of
    the total (see ``cliops.Files``).
    """
    from cliops import Files
    before = stick.read()
    M, _, import_s = import_package()
    disk_s = Files.disk_s
    t0 = time.perf_counter()
    ops = build(M, seed, workdir)
    seen = set()
    for op in ops:  # warm-up: one call of each kind of op
        if op.name not in seen:
            seen.add(op.name)
            execute(op)
    t1 = time.perf_counter()
    disk_s = Files.disk_s - disk_s
    f_wall, _ = stick.scale(before, stick.read())
    return ops, import_s * f_wall, (import_s + t1 - t0 - disk_s) * f_wall, disk_s


def measure(args, numpy_s, first_import_s, workdir):
    from workloads import WORKLOADS
    from yardstick import Yardstick
    build = WORKLOADS[args.workload]
    stick = Yardstick(YARDSTICKS.get(args.workload, "moment"))
    stick.read()  # warm-up of the yardstick's own numpy calls
    ops, import_s, total, disk_s = set_up(build, args.seed, workdir, stick)
    imports, setups, disk = [import_s], [total], [disk_s]

    def another_set_up():
        """Time one more set-up, then put back the package copy the ops use.

        Its input files go to a new directory, so that it creates them as
        the first set-up did rather than rewriting them.
        """
        kept = package_modules()
        fresh = os.path.join(workdir, f"set-up-{len(setups)}")
        _, import_s, total, disk_s = set_up(build, args.seed, fresh, stick)
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        imports.append(import_s)
        setups.append(total)
        disk.append(disk_s)

    tally = Tally(ops)
    detail = {"workload": args.workload, "seed": args.seed, "ops_per_round": len(ops),
              "numpy_import_s": numpy_s, "first_package_import_s": first_import_s}
    if not args.trace:
        run_rounds(tally, args.seconds, stick, between=another_set_up, times=SETUP_REPEATS - 1)
        setup_s = statistics.median(setups)
        metrics, inputs = end_to_end(tally, setup_s, count_lapack(ops))
        detail.update(correct_inputs=inputs, package_import_s=statistics.median(imports),
                      setups_s=setups, input_files_s=statistics.median(disk))
        tallies = [tally]
    else:
        from tracing import LapackCounter, Tracer
        run_rounds(tally, args.seconds / 2, stick)
        tracer, counter = Tracer(), LapackCounter()
        counter.install()
        tracer.install()
        traced = Tally(ops)
        try:
            run_rounds(traced, args.seconds / 2, stick, tracer, counter)
        finally:
            tracer.uninstall()
            counter.uninstall()
        overhead = per_op_ms(traced) - per_op_ms(tally)
        metrics = per_layer(tracer, counter, traced, overhead, cold_launches(workdir))
        trace_path = os.path.join(OUT, f"trace-{args.workload}.csv")
        tracer.write(trace_path)
        detail.update(spans=len(tracer.spans), trace_file=os.path.relpath(trace_path, ROOT),
                      untraced_ms_per_op=per_op_ms(tally), traced_ms_per_op=per_op_ms(traced))
        tallies = [tally, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    bad = [b for t in tallies for b in t.bad]
    detail.update(
        rounds=sum(len(t.rounds) for t in tallies),
        unscaled_round_median_ops_s=statistics.median(round_rates(tally)),
        yardstick_median_ms=statistics.median(tally.readings),
        yardstick_readings=len(tally.readings),
        faults=dict(sum((t.faults for t in tallies), Counter())),
        mended=dict(sum((t.mended for t in tallies), Counter())),
        check_failures=len(bad),
        first_check_failures=bad[:5],
    )
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def selftest(M, workdir):
    """Every workload on a few inputs; corrupted outputs must be rejected."""
    import dataclasses

    import numpy as np

    from ops import CheckFailed
    from tracing import LapackCounter, Tracer
    from workloads import WORKLOADS

    def corrupt(out):
        if isinstance(out, bool):
            return not out, "flipped verdict"
        if isinstance(out, float):
            return out + 1e-3 * (1.0 + abs(out)), "perturbed value"
        if isinstance(out, np.ndarray):
            return out + 1e-3 * max(1.0, np.linalg.norm(out)) * np.eye(len(out)), "perturbed S"
        if hasattr(out, "complement"):
            return dataclasses.replace(out, S=corrupt(out.S)[0]), "perturbed S"
        if hasattr(out, "is_hnnde"):
            return dataclasses.replace(out, is_hnnde=not out.is_hnnde), "flipped verdict"
        if hasattr(out, "is_knnde"):
            return dataclasses.replace(out, is_knnde=not out.is_knnde), "flipped verdict"
        if isinstance(out, tuple) and len(out) == 3:
            return (out[0], out[1], not out[2]), "flipped verdict"
        if isinstance(out, tuple) and len(out) == 2:
            return (out[0] + 1, out[1]), "wrong exit code"
        return None, None

    problems = []
    rejected = Counter()
    for name, build in WORKLOADS.items():
        ops = build(M, 12345, workdir)
        per_name = Counter()
        sample = []
        for op in ops:
            if per_name[op.name] < 3 or op.fault_slice:
                per_name[op.name] += 1
                sample.append(op)
        tracer, counter = Tracer(), LapackCounter()
        tracer.record = True
        counter.install()
        tracer.install()
        outs = []
        try:
            for op in sample:
                tracer.active = counter.active = True
                outs.append(execute(op))
                tracer.active = counter.active = False
        finally:
            tracer.uninstall()
            counter.uninstall()
        if not tracer.spans or not counter.calls:
            problems.append(f"{name}: tracing recorded nothing")
        for op, out in zip(sample, outs):
            try:
                fault = op.judge(out)
            except CheckFailed as exc:
                problems.append(f"{name}: {op.name} failed its check: {exc}")
                continue
            if fault != op.fault_slice:
                problems.append(f"{name}: {op.name} answered correctly, slice says {op.fault_slice}")
            if fault is not None:
                continue
            bad, kind = corrupt(out)
            if bad is None:
                continue
            try:
                op.judge(bad)
            except CheckFailed:
                rejected[kind] += 1
            else:
                problems.append(f"{name}: {op.name} accepted a {kind}")
        print(f"selftest {name}: {len(sample)} ops checked", flush=True)
    for kind in ("perturbed S", "flipped verdict", "wrong exit code"):
        if not rejected[kind]:
            problems.append(f"no {kind} was tried")
    print(json.dumps({"selftest_rejected": dict(rejected), "problems": problems}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("hamburger", "stieltjes", "schur-dense", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        M, numpy_s, first_import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.selftest:
            return selftest(M, workdir)
        detail, result = measure(args, numpy_s, first_import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
