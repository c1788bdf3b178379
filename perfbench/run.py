"""End-to-end benchmark of the covrecon command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (covrecon is imported from `src`).
Each workload is a fixed config run through `covrecon.cli` as a closed loop:
one client, one fresh process per command, the next command started only
after the previous one exited, for about --seconds seconds.  The seed goes
to the program only through `--seed`, and every command of a run uses it,
so every command of a run does the same work.  BLAS is pinned to one
thread: with default threading, idle OpenBLAS threads spin on the second
core of a 2-core machine and the same work costs up to twice the CPU time.
The benchmark and its commands are pinned to one CPU.

Untraced runs (--trace 0) run the reference job of reference.py before and
after every process they spawn and, with the process stopped, every
GAUGE_INTERVAL_S while it runs.  They scale the process's wall time, paused
time taken out, to the reference speed (x REFERENCE_S / mean reference
time), so that a run falling into a slow phase of a shared host reads the
same as one in a fast phase.  They report the end-to-end metrics:
  run_s        median scaled wall time of a command, from config loaded to
               exit
  setup_s      median scaled time from process start to covrecon imported
               and the config parsed (every command, plus one set-up-only
               probe after each command)
  peak_rss_mb  median peak resident memory of a command
  failed_frac  failed / attempted operations, printed and carried by the
               `attempted` and `failed` fields of the result line
Traced runs (--trace 1) alternate untraced and traced commands and report
the per-layer metrics of spans.py plus the tracing overhead, all unscaled.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload in turn.
Files are written only under perfbench/out/.  See perfbench/README.md for why
each workload exists and which metric each layer should move.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

BASELINE_SEED = 0
HELD_OUT_SEED = 2718

COMMAND_TIMEOUT_S = 150.0
GAUGE_INTERVAL_S = 1.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _config(d, mode, estimator, ns, Ms, Ls, n_rep, kl_trunc=None):
    sampling = {"mode": mode}
    if kl_trunc is not None:
        sampling["kl_trunc"] = kl_trunc
    return {"field": {"kind": "brownian", "d": d}, "sampling": sampling,
            "estimator": estimator,
            "study": {"ns": ns, "Ms": Ms, "Ls": Ls, "n_rep": n_rep},
            "quadrature": {"q": 2}}


class Workload:
    def __init__(self, name, command, config, extra_args=(), expect_tau=None,
                 e3_falls_with_m=False):
        self.name = name
        self.command = command
        self.config = config
        self.extra_args = list(extra_args)
        self.expect_tau = expect_tau
        self.e3_falls_with_m = e3_falls_with_m
        study = config["study"]
        self.d = config["field"]["d"]
        self.operations = (1 if command == "reconstruct" else
                           len(study["ns"]) * len(study["Ms"])
                           * len(study["Ls"]))

    def check(self, out_dir):
        """Failure reasons per operation index."""
        if self.command == "reconstruct":
            study = self.config["study"]
            return {0: checks.check_reconstruct(out_dir, self.d,
                                                study["Ls"][0],
                                                study["ns"][0])}
        return checks.check_study(out_dir, self.d, self.expect_tau,
                                  self.e3_falls_with_m)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("study-1d", "study",
             _config(1, "nodal", {"kind": "MLE"}, [32], [500, 2000, 8000],
                     [3], 20),
             extra_args=["--workers", "1"], e3_falls_with_m=True),
    Workload("reconstruct-2d", "reconstruct",
             _config(2, "nodal", {"kind": "MLE"}, [32], [2000], [3], 2)),
    Workload("study-fine-projection", "study",
             _config(1, "projection", {"kind": "Tapered", "alpha": 1.0},
                     [256, 512], [200], [5], 4, kl_trunc=400),
             expect_tau=6),
)}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Spawns the commands of one workload run and checks their outputs."""

    def __init__(self, workload, seed, deadline, gauge):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.gauge = gauge
        self.references = []
        if gauge:
            reference.measure()  # the first pass also imports numpy
            self.last_reference = reference.measure()
        self.work = os.path.join(OUT, workload.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))
        self.config_path = os.path.join(self.work, "config.yaml")
        with open(self.config_path, "w") as fh:
            json.dump(workload.config, fh)  # JSON is YAML
        self.out_dir = os.path.join(self.work, "out")
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")
        for var in BLAS_THREAD_VARS:
            self.env[var] = "1"

    def spawn(self, mode):
        """One closed-loop command; returns its timings and exit code.

        With the gauge on, the command is paused every GAUGE_INTERVAL_S while
        the reference job runs, the job runs once more after the command
        exits, and the command's times are scaled to the reference speed.
        """
        record_path = os.path.join(self.work, "record.json")
        if os.path.exists(record_path):
            os.remove(record_path)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [sys.executable, os.path.join(HERE, "shim.py"), mode,
                record_path, "--", self.workload.command,
                "--config", os.path.relpath(self.config_path, ROOT),
                "--seed", str(self.seed),
                "--out", os.path.relpath(self.out_dir, ROOT)]
        argv += self.workload.extra_args
        timeout = max(1.0, min(COMMAND_TIMEOUT_S,
                               self.deadline - time.monotonic()))
        with open(os.path.join(self.work, mode + ".log"), "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                end, status, usage, pauses, refs = self._wait(
                    proc, start + timeout)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        record = {}
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
        paused = sum(b - a for a, b in pauses)
        result = {"mode": mode, "exit_code": proc.returncode,
                  "wall_s": end - start - paused, "pauses": len(pauses),
                  "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
        if "setup_end" in record:
            setup_end = record["setup_end"]
            before = sum(b - a for a, b in pauses if a < setup_end)
            result["setup_s"] = setup_end - start - before
            result["run_s"] = end - setup_end - (paused - before)
        if self.gauge:
            refs = [self.last_reference] + refs + [reference.measure()]
            self.last_reference = refs[-1]
            self.references.extend(refs[1:])
            factor = reference.REFERENCE_S / statistics.mean(refs)
            result["speed_factor"] = factor
            for key in ("run_s", "setup_s"):
                if key in result:
                    result["wall_" + key] = result[key]
                    result[key] *= factor
        for key in ("env", "spans"):
            if key in record:
                result[key] = record[key]
        return result

    def _wait(self, proc, deadline):
        """Reap proc, pausing it for the reference job while the gauge is on.

        Returns the exit time, wait status, rusage, the (stop, continue)
        times of each pause and the reference times measured in them.  The
        child is pinned to this process's CPU, so it does not run while the
        reference job does; a pause that begins just after the child exited
        is harmless, because paused time is subtracted from its wall time.
        """
        pauses, refs = [], []
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    break
                wait = min(left, GAUGE_INTERVAL_S) if self.gauge else left
                if poller.poll(wait * 1000):
                    break
                if self.gauge:
                    signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
                    stopped = time.monotonic()
                    try:
                        refs.append(reference.measure())
                    finally:
                        signal.pidfd_send_signal(pidfd, signal.SIGCONT)
                    pauses.append((stopped, time.monotonic()))
            end = time.monotonic()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            os.close(pidfd)
        return end, status, usage, pauses, refs

    def command(self, mode):
        """Run the workload's command once and check what it wrote."""
        res = self.spawn(mode)
        ops = self.workload.operations
        if res["exit_code"] != 0 or "run_s" not in res:
            reasons = {i: ["exit code %s" % (res["exit_code"],)]
                       for i in range(ops)}
        else:
            try:
                reasons = self.workload.check(self.out_dir)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                reasons = {i: ["unreadable output: %r" % (exc,)]
                           for i in range(ops)}
        res["attempted"] = ops
        res["failures"] = {i: r for i, r in reasons.items() if r}
        res["failed"] = min(ops, len(res["failures"]))
        res["bytes_written"] = _primary_bytes(self.out_dir)
        return res


def _primary_bytes(out_dir):
    """Bytes of primary artifacts (timestamped *.meta.json excluded)."""
    total = 0
    for base, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files
                     if not f.endswith(".meta.json"))
    return total


def _median(values, what):
    if not values:
        sys.exit("no command of the run finished, so it has no %s" % (what,))
    return statistics.median(values)


def measure(workload, seed, seconds, trace, cpus):
    """One benchmark run of one workload; returns the result record."""
    began = time.monotonic()
    runner = Runner(workload, seed, deadline=began + 170.0, gauge=not trace)
    # the first process compiles bytecode; it is timed by nobody
    warm = runner.spawn("setup")
    if warm["exit_code"] != 0 or "env" not in warm:
        sys.exit("set-up failed (exit %s); see %s" % (
            warm["exit_code"], os.path.join(runner.work, "setup.log")))
    # the command sees only the pinned CPU; stamp the machine's count
    env = dict(warm["env"], nproc=len(cpus), pinned_cpu=cpus[-1], seed=seed,
               baseline_seed=BASELINE_SEED, held_out_seed=HELD_OUT_SEED)

    commands, setups = [], []
    start = time.monotonic()
    while True:
        mode = "trace" if trace and len(commands) % 2 else "run"
        cycle = time.monotonic()
        res = runner.command(mode)
        commands.append(res)
        if "setup_s" in res:
            setups.append(res["setup_s"])
        if not trace:
            probe = runner.spawn("setup")
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
        now = time.monotonic()
        enough = len(commands) >= (2 if trace else 1)
        # start another cycle only if it should end by seconds + cycle / 2
        if enough and now - start + (now - cycle) / 2 > seconds:
            break
        if now > runner.deadline - 2 * (now - cycle):
            break

    attempted = sum(c["attempted"] for c in commands)
    failed = sum(c["failed"] for c in commands)
    # a command that did not exit cleanly counts in `failed` only; one that
    # finished but wrote a wrong result did its work, so it is timed too
    finished = [c for c in commands if c["exit_code"] == 0 and "run_s" in c]
    plain = [c for c in finished if c["mode"] == "run"]
    unscaled = {}
    if trace:
        traced = [c for c in finished if c["mode"] == "trace"]
        values = {"trace.run_s": _median([c["run_s"] for c in traced],
                                         "traced run_s"),
                  "trace.untraced_run_s": _median([c["run_s"] for c in plain],
                                                  "run_s")}
        layer = [dict(spans.summarize(c["spans"]),
                      **{"artifacts.bytes_written": c["bytes_written"]})
                 for c in traced]
        for name in layer[0]:
            values[name] = statistics.median(m[name] for m in layer)
        values["trace.overhead_s"] = (values["trace.run_s"]
                                      - values["trace.untraced_run_s"])
        units = spans.LAYER_METRICS
    else:
        values = {"run_s": _median([c["run_s"] for c in plain], "run_s"),
                  "setup_s": _median(setups, "setup_s"),
                  "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain],
                                         "peak_rss_mb")}
        units = END_TO_END
        unscaled = {"wall_run_s": _median([c["wall_run_s"] for c in plain],
                                          "run_s"),
                    "reference_s": statistics.median(runner.references)}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for c in commands:
        c.pop("spans", None)
        c.pop("env", None)
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "env": env, "unscaled": unscaled,
            "elapsed_s": time.monotonic() - began,
            "setup_samples": setups, "reference_samples": runner.references,
            "commands": commands,
            "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(res):
    """Human-readable summary lines (everything but the result line)."""
    env = res["env"]
    lines = [
        "workload %s  seed %d  %s s  trace %s  (%.1f s elapsed)"
        % (res["workload"], res["seed"], res["seconds"],
           "on" if res["trace"] else "off", res["elapsed_s"]),
        "env: python %s, numpy %s, scipy %s, blas %s %s with %s thread(s), "
        "nproc %s (pinned to cpu %s); seed %d (baseline %d, held-out %d)"
        % (env["python"], env["numpy"], env["scipy"], env["blas"],
           env["blas_version"], env["blas_threads"], env["nproc"],
           env["pinned_cpu"], env["seed"], env["baseline_seed"],
           env["held_out_seed"])]
    plain = sum(1 for c in res["commands"]
                if c["mode"] == "run" and c["exit_code"] == 0 and "run_s" in c)
    counts = {"run_s": plain, "setup_s": len(res["setup_samples"]),
              "peak_rss_mb": plain}
    for name, m in sorted(res["metrics"].items()):
        note = ""
        if name in counts:
            note = "median of %d" % (counts[name],)
        elif name in spans.COMPUTED:
            note = "computed"
        lines.append("  %-44s %16.6g %-6s %s" % (name, m["value"], m["unit"],
                                                 note))
    for name, value in sorted(res["unscaled"].items()):
        lines.append("  %-44s %16.6g %-6s median, unscaled"
                     % (name, value, "s"))
    lines.append("  %-44s %16.6g %-6s %d of %d operations failed"
                 % ("failed_frac", res["failed"] / max(res["attempted"], 1),
                    "1", res["failed"], res["attempted"]))
    for c in res["commands"]:
        for index, reasons in sorted(c["failures"].items()):
            lines.append("  FAILED operation %d: %s" % (index,
                                                        "; ".join(reasons)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "covrecon", "cli.py")):
        sys.exit("no covrecon source tree at %s" % (os.path.join(ROOT, "src"),))

    # turn SIGTERM into SystemExit, so that the running command is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the reference job (numpy, imported here) and every command run on one
    # CPU with one BLAS thread, so the reference sees the commands' CPU
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(WORKLOADS[name], args.seed, args.seconds,
                      bool(args.trace), cpus)
        results.append(res)
        print("\n".join(report(res)), flush=True)
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                            % (name, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
