"""pwesim benchmark: closed-loop timing of one workload, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --verify-golden

One client runs the workload's pwesim call again and again, each call in a
fresh interpreter and each after the previous one ended, until --seconds
have passed (at least MIN_REPS calls). Every call's output is checked. The
last stdout line is one JSON object {correct, attempted, failed, metrics}:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of one extra traced call. The lines before it record the environment and
each call. Exit code 1 means an output check failed; 2 means the checkout
holds no pwesim source. bench/README.md says why each workload exists.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = BENCH / "worker.py"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))

MIN_REPS = 3
SETUP_REPS = 5
RUN_LIMIT_S = 170        # a run ends, failing, rather than outlive this
STARTED = time.perf_counter()
SELF_TIME_TOL = 0.02     # layer self times must sum to the traced wall_s within 2%

# Cell sets and n_trials are fixed: the path cache warms as trials
# accumulate, so a workload's layer mix changes with its length.
WORKLOADS = {
    "sweep_fine": dict(kind="sweep", d_r=[0.15, 0.2], m=[8, 10], trials=8, threads=1,
                       golden="sweep_fine"),
    "sweep_coarse": dict(kind="sweep", d_r=[0.45, 0.5, 0.55], m=[4], trials=300, threads=1,
                         golden="sweep_coarse"),
    "sweep_t2": dict(kind="sweep", d_r=[0.15, 0.2], m=[8, 10], trials=8, threads=2,
                     golden="sweep_fine"),
    "fit_csv": dict(kind="fit", rows=1_000_000, bins=10, shape=2.0, scale=8.0),
}
N_BINS = 10
TINY_SWEEP = dict(kind="sweep", d_r=[0.5], m=[2], trials=5, threads=1, golden=None)
TINY_FIT = dict(kind="fit", rows=2000, bins=10, shape=2.0, scale=8.0)


def emit(obj):
    print(json.dumps(obj), flush=True)


def environment():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "src_lines": src_lines}


def worker(args, timeout=None):
    """Run bench/worker.py in a fresh interpreter; its JSON line, or an error."""
    if timeout is None:
        timeout = max(1.0, STARTED + RUN_LIMIT_S - time.perf_counter())
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"worker exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


# -- one workload --------------------------------------------------------------

class Workload:
    """Inputs made from the seed, the pwesim call and its output check."""

    def __init__(self, spec, seed, work):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.reference = None     # output of the first call that passed its check
        self.reference_failures = 0
        if self.spec["kind"] == "sweep":
            self.input = work / "sweep.cfg"
            self.input.write_text(
                f"d_r_values = {self.spec['d_r']}\n"
                f"m_sides = {self.spec['m']}\n"
                f"n_trials = {self.spec['trials']}\n"
                f"n_bins = {N_BINS}\n"
                f"seed = {seed}\n", encoding="utf-8")
            self.ops = self.spec["trials"] * len(self.spec["d_r"]) * sum(m * m for m in self.spec["m"])
        else:
            rng = np.random.default_rng(seed)
            self.samples = rng.gamma(self.spec["shape"], self.spec["scale"], self.spec["rows"])
            self.input = work / "phi.csv"
            self.input.write_text("phi_deg\n" + "\n".join(map(repr, self.samples.tolist())) + "\n",
                                  encoding="utf-8")
            self.ops = self.spec["rows"]

    @property
    def threads(self):
        return self.spec.get("threads", 1)

    def argv(self, out):
        if self.spec["kind"] == "sweep":
            return ["sweep", "--config", str(self.input), "--out", str(out),
                    "--threads", str(self.threads)]
        return ["fit", "--data", str(self.input), "--out", str(out),
                "--bins", str(self.spec["bins"])]

    def setup_args(self):
        return ["setup", "--config", str(self.input)] if self.spec["kind"] == "sweep" else ["setup"]

    def check(self, out):
        """(problems, routing failures) for one call's output."""
        from checks import check_fit, check_sweep, digests, sha256

        sweep = self.spec["kind"] == "sweep"
        try:
            got = digests(out) if sweep else {"fit.json": sha256(out)}
        except OSError as exc:
            return [f"missing output: {exc}"], 0
        if self.reference is not None:
            same = got == self.reference
            return ([] if same else ["output differs from the first call of this run"],
                    self.reference_failures)
        if sweep:
            problems, failures = check_sweep(out, self.spec["d_r"], self.spec["m"],
                                             self.spec["trials"], N_BINS)
            pinned = GOLDEN.get(self.spec["golden"])
            if self.seed == GOLDEN["default_seed"] and got != pinned:
                problems.append(f"digests {got} differ from the pinned {pinned}")
        else:
            problems, failures = check_fit(out, self.samples), 0
        if not problems:
            self.reference, self.reference_failures = got, failures
        return problems, failures



def output_bytes(out):
    if out.is_dir():
        return sum(p.stat().st_size for p in out.iterdir())
    return out.stat().st_size


def call_once(wl, i, spans=None):
    """One checked call; a record of its timing, operations and failures."""
    out = wl.work / (f"out{i}" if wl.spec["kind"] == "sweep" else f"out{i}.json")
    args = ["call"] + (["--spans", str(spans)] if spans else []) + ["--", *wl.argv(out)]
    res = worker(args)
    rec = {"ops": wl.ops, "failures": 0, "problems": []}
    if "error" in res or res["rc"] != 0:
        rec["problems"].append(res.get("error") or f"pwesim exited {res['rc']}")
    else:
        rec["problems"], rec["failures"] = wl.check(out)
        rec.update(wall_s=res["wall_s"], rss_mb=res["maxrss_kb"] / 1024.0,
                   bytes_written=output_bytes(out))
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()
    return rec


def tally(recs):
    """(attempted, failed): a call that failed its check fails all its operations."""
    attempted = sum(r["ops"] for r in recs)
    failed = sum(r["ops"] if r["problems"] else r["failures"] for r in recs)
    return attempted, failed


def measure(name, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = Workload(WORKLOADS[name], seed, work)
        setups = []
        for _ in range(0 if trace else SETUP_REPS):
            res = worker(wl.setup_args())
            if "error" in res:
                print(f"error: set-up failed: {res['error']}", file=sys.stderr)
                return 1
            setups.append(res["setup_s"])
        recs = []
        t0 = time.perf_counter()
        # start another call only if it should end within --seconds
        while time.perf_counter() < STARTED + RUN_LIMIT_S and (
                len(recs) < MIN_REPS
                or (time.perf_counter() - t0) * (1 + 1 / len(recs)) <= seconds):
            recs.append(call_once(wl, len(recs)))
        walls = [r["wall_s"] for r in recs if "wall_s" in r]
        metrics = {}
        if walls and not trace:
            wall = statistics.median(walls)
            metrics = {
                "wall_s": (wall, "s"),
                "items_per_s": ((wl.ops - wl.reference_failures) / wall, "1/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(r["rss_mb"] for r in recs if "rss_mb" in r),
                                "MB"),
            }
        elif walls:
            metrics = traced_call(wl, recs, statistics.median(walls))
        attempted, failed = tally(recs)
        problems = [p for r in recs for p in r["problems"]]
        emit({"workload": name, "seed": seed, "calls": len(recs), "wall_s_each": walls,
              "setup_s_each": setups, "fail_frac": failed / attempted,
              "digests": wl.reference,
              "problems": problems[:20]})
        if not trace:
            metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
        emit({"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
        return 1 if problems else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_call(wl, recs, untraced_wall):
    """Per-layer metrics from one extra, traced call (appended to recs)."""
    import tracer

    spans = wl.work / "spans.json"
    rec = call_once(wl, len(recs), spans=spans)
    recs.append(rec)
    if "wall_s" not in rec:
        return {}
    data = json.loads(spans.read_text(encoding="utf-8"))
    layer = tracer.summarize(data["spans"], data["counts"], wl.threads)
    layer["cli.bytes_read"] = (wl.input.stat().st_size, "B")
    layer["cli.bytes_written"] = (rec["bytes_written"], "B")
    layer["trace.overhead_frac"] = (rec["wall_s"] / untraced_wall - 1.0, "ratio")
    self_sum = sum(layer[m + ".self_s"][0] for m in tracer.LAYERS)
    emit({"traced_wall_s": rec["wall_s"], "layer_self_sum_s": self_sum,
          "layer_share": {m: round(layer[m + ".self_s"][0] / self_sum, 4)
                          for m in tracer.LAYERS}})
    return layer


# -- one-shot modes ------------------------------------------------------------

def self_test():
    """Tiny-config checks of the harness itself; returns the exit code."""
    import tracer

    ok = True

    def report(what, passed, detail=""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what} {detail}".rstrip(), flush=True)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name, spec, target, corrupt_at in (
                ("tiny_sweep", TINY_SWEEP, "deviations.csv", b"\n0.5,2,0,0,"),
                ("tiny_fit", TINY_FIT, "", b'"k_hat": ')):
            wl = Workload(spec, 7, work)
            out = work / ("keep" if wl.spec["kind"] == "sweep" else "keep.json")
            res = worker(["call", "--", *wl.argv(out)])
            problems, _ = wl.check(out)
            if res.get("rc") != 0 or problems:
                report(f"{name}: clean output passes", False, f"{res} {problems}")
                return 1
            report(f"{name}: clean output passes", True)
            # flip the first digit after the marker: one byte of one value
            path = out / target if target else out
            raw = bytearray(path.read_bytes())
            at = raw.index(corrupt_at) + len(corrupt_at)
            while not chr(raw[at]).isdigit():
                at += 1
            raw[at] = ord("1") if raw[at] != ord("1") else ord("2")
            path.write_bytes(bytes(raw))
            wl.reference = None
            problems, failures = wl.check(out)
            attempted, failed = tally([{"ops": wl.ops, "failures": failures,
                                        "problems": problems}])
            report(f"{name}: one corrupted byte fails the check", bool(problems),
                   "; ".join(problems[:2]))
            report(f"{name}: the corrupted call counts all {attempted} operations as failed",
                   failed == attempted)

        wl = Workload(TINY_SWEEP, 7, work)
        spans = work / "spans.json"
        res = worker(["call", "--spans", str(spans), "--", *wl.argv(work / "traced")])
        if res.get("rc") != 0:
            report("traced tiny sweep runs", False, str(res))
            return 1
        data = json.loads(spans.read_text(encoding="utf-8"))
        layer = tracer.summarize(data["spans"], data["counts"], 1)
        self_sum = sum(layer[m + ".self_s"][0] for m in tracer.LAYERS)
        gap = abs(self_sum - res["wall_s"]) / res["wall_s"]
        report(f"layer self times add up to the traced wall_s within {SELF_TIME_TOL:.0%}",
               gap <= SELF_TIME_TOL,
               f"(sum {self_sum:.4f} s, wall {res['wall_s']:.4f} s, gap {gap:.2%})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


def verify_golden():
    """Default `pwesim sweep --seed 0` against the ROADMAP's golden digests."""
    from checks import digests

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        res = worker(["call", "--", "sweep", "--out", str(work / "out"), "--seed", "0"],
                     timeout=900)
        if "error" in res or res["rc"] != 0:
            print(f"FAIL default sweep did not run: {res}")
            return 1
        got = digests(work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = got == GOLDEN["default_sweep"]
    emit({"wall_s": res["wall_s"], "digests": got})
    print(f"{'PASS' if ok else 'FAIL'} default sweep digests "
          f"{'match' if ok else 'differ from'} the golden digests")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN["default_seed"])
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--verify-golden", action="store_true")
    args = ap.parse_args()
    if not (SRC / "pwesim" / "__init__.py").is_file():
        print(f"error: no pwesim source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the build: byte-compile once so no timed or set-up process pays for it
    compileall.compile_dir(SRC, quiet=1)
    emit({"env": environment()})
    if args.self_test:
        return self_test()
    if args.verify_golden:
        return verify_golden()
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
