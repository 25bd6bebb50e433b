"""The tiernet benchmark: the `tiernet` CLI timed end to end.

    python3 bench/run.py --workload edge-sensed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each round runs one workload's `tiernet`
invocations (bench/workloads.py) in a fresh interpreter (bench/worker.py)
with PYTHONPATH=src and TIERNET_THREADS=min(2, usable CPUs), then checks the
outputs (bench/checks.py). Rounds repeat until --seconds have passed. Without
--workload every workload runs in turn.

--trace 0 reports the end-to-end metrics: setup_s (median over set-up-only
processes and rounds), run_s and peak_rss_mb (medians over rounds).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (bench/tracing.py) plus trace.overhead_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Outputs of the last round are left in
bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(HERE, "configs")

SETUP_PROBES = 8
TIME_LIMIT_S = 170.0  # a run must end within 180 s

def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Rounds of one workload at one seed, and what they measured."""

    def __init__(self, workload: str, seed: int, env: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.env = env
        self.out_dir = os.path.join(HERE, "out", workload)
        os.makedirs(self.out_dir, exist_ok=True)
        self.invocations = workloads.invocations(workload, seed)
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.rss_mb: list[float] = []
        self.traced_run_s: list[float] = []
        self.layers: list[dict] = []
        self.skipped: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # operations whose output failed a check
        self.problems: list[str] = []

    def _spawn(self, *extra: str, deadline: float) -> dict:
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--out-dir", self.out_dir, *extra]
        t0_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"bench: {self.workload} worker passed the time limit")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: {self.workload} worker exited {proc.returncode}")
        report = json.loads(lines[-1])
        self.setup_s.append((report["ready_ns"] - t0_ns) / 1e9)
        return report

    def probe_setup(self, deadline: float) -> None:
        self._spawn("--setup-only", deadline=deadline)

    def round(self, traced: bool, deadline: float) -> None:
        for inv in self.invocations:
            path = os.path.join(self.out_dir, inv.out)
            if os.path.exists(path):
                os.remove(path)
        report = self._spawn("--trace", str(int(traced)), deadline=deadline)
        if traced:
            self.traced_run_s.append(report["run_s"])
            self.layers.append(report["layers"])
            self.skipped.update(report["skipped"])
        else:
            self.run_s.append(report["run_s"])
            self.rss_mb.append(report["peak_rss_mb"])
        for inv, code in zip(self.invocations, report["exit_codes"]):
            self._evaluate(inv, code)

    def _evaluate(self, inv, code: int) -> None:
        expected = inv.expected_ops()
        self.attempted += expected
        path = os.path.join(self.out_dir, inv.out)
        per_op = []
        if os.path.exists(path):
            try:
                per_op = evaluate(inv, path)
            except (KeyError, ValueError, TypeError) as exc:  # columns or fields missing
                per_op = [[f"unreadable output: {exc!r}"]] * expected
        elif code == 0:
            self.problems.append(f"{inv.out}: no output written")
        if code != 0:
            # every operation of a failed command fails; a report it still
            # wrote (validate's, say) is checked all the same
            self.failed += expected
            self.problems.append(f"{inv.out}: tiernet {inv.command} exited {code}")
        else:
            missing = expected - len(per_op)
            self.failed += missing + sum(1 for p in per_op if p)
            if missing:
                self.problems.append(f"{inv.out}: {missing} of {expected} rows or checks missing")
        self.wrong += sum(1 for p in per_op
                          if any(not msg.startswith(checks.KNOWN_FAULT) for msg in p))
        for i, problems in enumerate(per_op):
            self.problems += [f"{inv.out} #{i}: {msg}" for msg in problems]

    def result(self, trace: bool) -> dict:
        if trace:
            metrics = {name: (statistics.median(r[name] for r in self.layers), _unit(name))
                       for name in self.layers[0]}
            metrics["trace.overhead_s"] = (
                statistics.median(self.traced_run_s) - statistics.median(self.run_s), "s")
        else:
            metrics = {
                "setup_s": (statistics.median(self.setup_s), "s"),
                "run_s": (statistics.median(self.run_s), "s"),
                "peak_rss_mb": (statistics.median(self.rss_mb), "MB"),
            }
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith((".s", "_s")) else "count"


# ---------------------------------------------------------------------------
# output evaluation: one list of problems per operation found


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, text in row.items():
            try:
                row[key] = float(text)
            except (TypeError, ValueError):
                pass
    return rows


def _config(inv) -> dict:
    if inv.config is None:
        return {}
    with open(os.path.join(CONFIGS, inv.config), encoding="utf-8") as fh:
        return json.load(fh)


def evaluate(inv, path: str) -> list[list[str]]:
    if inv.command == "validate":
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        found = {c["name"]: c for c in report.get("checks", [])}
        return [checks.check_validate_entry(name, found[name]["value"], found[name]["passed"])
                for name in workloads.VALIDATE_CHECKS if name in found]
    rows = _read_csv(path)[: inv.expected_ops()]
    cfg = _config(inv)
    p = checks.SystemParams.from_dict(cfg.get("system", {}))
    scenario = cfg.get("scenario", {})
    if inv.command == "simulate":
        return _evaluate_simulate(inv, rows, p, scenario)
    lam = scenario["n_f_target"] / (math.pi * p.r_c**2)
    d_norm = scenario["d_norm"]
    if inv.command == "analytic":
        return _evaluate_analytic(inv, rows, p, d_norm, lam)
    return _evaluate_sensing(inv, rows, p, d_norm, lam, scenario["blend_weight"])


def _evaluate_simulate(inv, rows, p, scenario) -> list[list[str]]:
    d_values = inv.sweep.values() if inv.sweep else [inv.d_norm]
    fixed = scenario.get("power_policy") == "Fixed"
    out = []
    for row, d in zip(rows, d_values):
        problems = checks.check_simulate_row(row, d, inv.seed, inv.drops, inv.fades)
        problems += checks.check_percentiles_ordered(row)
        problems += checks.check_outage_matches_cdf(row, p.gamma_target)
        if fixed:
            problems += checks.check_baseline_p10(row)
        else:
            problems += checks.check_paper_p10(row, d)
        out.append(problems)
    return out


def _evaluate_analytic(inv, rows, p, d_norm, lam) -> list[list[str]]:
    out = []
    for row, value in zip(rows, inv.sweep.values()):
        p2, dn, _ = checks.sweep_params(inv.sweep.variable, value, p, d_norm)
        out.append(checks.check_sweep_row(row, value, dn) + checks.check_analytic_row(row, p2, lam))
    if inv.sweep.variable == "D":
        for i, extra in enumerate(checks.check_cellular_density_scaling(rows, p)):
            out[i] += extra
        for i, extra in enumerate(checks.check_constant([r["d_c_m"] for r in rows], "d_c_m")):
            out[i] += extra
    return out


def _evaluate_sensing(inv, rows, p, d_norm, lam, weight) -> list[list[str]]:
    out = []
    for row, value in zip(rows, inv.sweep.values()):
        p2, dn, m_tw = checks.sweep_params(inv.sweep.variable, value, p, d_norm)
        th = row["threshold"]
        problems = checks.check_sweep_row(row, value, dn, m_tw)
        problems += checks.check_threshold(m_tw, th)
        problems += checks.check_p_false(m_tw, th, row["p_false"])
        problems += checks.check_min_sensing_radius(row["d_sense_m"], dn, p2)
        problems += checks.check_p_detect_at(row["p_detect_at_d_sense"], row["d_sense_m"],
                                             m_tw, th, p2)
        problems += checks.check_power_window(
            row["pc_over_pf_lb_db"], row["pc_over_pf_ub_db"], row["blend_db"], weight,
            checks.power_window_oracle(dn, lam, p2))
        range_problems = checks.check_max_range(row["max_range_m"], m_tw, th, p2)
        # cmd_sensing caches max_sensing_range by m_tw alone, so a sweep that
        # changes the pilot budget repeats the range of the first row at m_tw
        first = range_problems and next(r for r in rows if r["m_tw"] == row["m_tw"])
        if range_problems and row is not first and row["max_range_m"] == first["max_range_m"]:
            range_problems = [checks.KNOWN_FAULT + msg for msg in range_problems]
        out.append(problems + range_problems)
    if inv.sweep.variable == "D":
        widths = [r["pc_over_pf_ub_db"] - r["pc_over_pf_lb_db"] for r in rows]
        for i, extra in enumerate(checks.check_window_width_constant(widths)):
            out[i] += extra
    if inv.sweep.variable == "Mtw":
        ranges = [r["max_range_m"] for r in rows]
        for i, extra in enumerate(checks.check_increasing(ranges, "max_range_m")):
            out[i] += extra
    return out


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    start = _now()
    deadline = start + TIME_LIMIT_S
    run = Run(workload, seed, env)
    # set-up probes at both ends of the run sample the machine twice
    for _ in range(SETUP_PROBES // 2):
        run.probe_setup(deadline)
    # a traced run alternates untraced and traced rounds
    kinds = (False, True) if trace else (False,)
    rounds = 0
    while True:
        t0 = _now()
        for traced in kinds:
            run.round(traced, deadline)
        rounds += len(kinds)
        took = _now() - t0
        # start another step only if it should end within --seconds
        if _now() + took - start > seconds or _now() + 2 * took > deadline:
            break
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        run.probe_setup(deadline)
    if run.skipped:
        print(f"bench: trace wrappers skipped: {sorted(run.skipped)}", file=sys.stderr)
    for msg in run.problems[:50]:
        print(f"bench: {workload}: {msg}", file=sys.stderr)
    result = run.result(trace)
    if trace:
        with open(os.path.join(run.out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"rounds": run.layers, "skipped": sorted(run.skipped)}, fh, indent=1)
    print(f"{workload}: seed {seed}, {rounds} rounds, {run.attempted} operations "
          f"attempted, {run.failed} failed, outputs correct: {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    threads = min(2, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=SRC, TIERNET_THREADS=str(threads))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        print(json.dumps(result))


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "tiernet", "cli.py")):
        sys.exit(f"bench: no tiernet sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import checks
    import workloads

    main()
