#!/usr/bin/env python3
"""A/B protocol for perf claims: two revisions, alternating benchmark pairs.

Usage, from anywhere inside the repository:

    python3 scripts/ab.py <parent-rev> <change-rev> [--workloads W ...]
        [--pairs N] [--seed K] [--workdir DIR] [--json OUT]
    python3 scripts/ab.py --self-test

Each revision is exported with `git archive` into the same checkout path
(`<workdir>/checkout`) and built there into its own target directory
(`<workdir>/target-parent`, `<workdir>/target-change`). Building both from
one path matters: source paths end up in the binary, and the build path
alone moves perfbench's code layout. The benchmark itself is the
revision's own `perfbench/run.py`, run unchanged from that checkout, so
this script defines nothing about what is measured. Every run lasts
`BENCHMARK.json`'s `run_seconds`, the benchmark's own run length.

Runs alternate in pairs: pair 0 runs parent then change, pair 1 change
then parent, and so on, so a slow drift of host speed biases neither
side. Before and after every run the script hashes the perfbench binary
and checks it is the one built for that run's revision.

For each workload and each end-to-end metric in `BENCHMARK.json` it
prints both medians and quartiles, the pairs the change won, the relative
change of the medians and a verdict:

* REGRESSION: the change's median is worse than the parent's by more
  than the metric's `bound`;
* UNRESOLVED: the metric's spread (the wider side's interquartile range
  over its median) is at or above its bound, so the runs cannot tell a
  move within the bound from noise, and not every change run reads
  better than every parent run;
* GAIN: at least 10 pairs ran, the change won at least 9 in 10 of them
  and its median is better than the parent's by more than the parent's
  interquartile range;
* ok: none of these.

A run that prints `correct: false` or a failed operation makes the whole
comparison fail. Exit status: 0 when no run failed and no metric
regressed, 1 otherwise; an unresolved metric is listed but does not fail
the comparison.

With the same revision on both sides (A/A) the table is the noise floor:
`spread` is the larger side's interquartile range over its median, and a
metric whose spread or A/A median change reaches its bound is flagged as
too noisy to gate at that pair count. `--json OUT` writes every run's
values and the summary.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROLES = ("parent", "change")
# A claimed gain must win at least this share of pairs...
GAIN_WIN_SHARE = 0.9
# ...out of at least this many.
GAIN_MIN_PAIRS = 10


def quantile(values, q):
    """Linear-interpolation quantile of `values` (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values):
    """Median and quartiles of one side's runs."""
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    }


def improvement(parent, change, better):
    """How much better `change` is than `parent`, relative to `parent`.

    Positive means better in the metric's own direction, negative worse.
    """
    if parent == 0:
        return 0.0 if change == 0 else (math.inf if better == "lower" else -math.inf)
    rel = change / parent - 1.0
    return -rel if better == "lower" else rel


def compare(parent_runs, change_runs, better, bound):
    """Compares one metric over paired runs (`parent_runs[i]` was paired
    with `change_runs[i]`). Returns the summary row as a dict."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same, non-zero number of runs on both sides")
    parent = summarize(parent_runs)
    change = summarize(change_runs)
    pairs = len(parent_runs)
    wins = sum(improvement(p, c, better) > 0 for p, c in zip(parent_runs, change_runs))
    gain = improvement(parent["median"], change["median"], better)
    parent_iqr = parent["q3"] - parent["q1"]
    median_delta = abs(change["median"] - parent["median"])
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] if side["median"] else 0.0
        for side in (parent, change)
    )
    # Every change run better than every parent run: worst change vs best parent.
    worst_change = max(change_runs) if better == "lower" else min(change_runs)
    best_parent = min(parent_runs) if better == "lower" else max(parent_runs)
    separated = improvement(best_parent, worst_change, better) > 0
    if -gain > bound:
        verdict = "REGRESSION"
    elif spread >= bound and not separated:
        verdict = "UNRESOLVED"
    elif (
        gain > 0
        and pairs >= GAIN_MIN_PAIRS
        and wins >= math.ceil(GAIN_WIN_SHARE * pairs)
        and median_delta > parent_iqr
    ):
        verdict = "GAIN"
    else:
        verdict = "ok"
    return {
        "parent": parent,
        "change": change,
        "pairs": pairs,
        "wins": wins,
        "rel_change": change["median"] / parent["median"] - 1.0 if parent["median"] else 0.0,
        "improvement": gain,
        "parent_iqr": parent_iqr,
        "spread": spread,
        "separated": separated,
        "bound": bound,
        "better": better,
        "noisy": spread >= bound or abs(gain) >= bound,
        "verdict": verdict,
    }


def pair_order(pair):
    """The roles of one pair in run order: alternate which side goes first."""
    return ROLES if pair % 2 == 0 else ROLES[::-1]


def fmt(value):
    if value == 0 or 0.01 <= abs(value) < 1e5:
        return f"{value:.3f}"
    return f"{value:.3e}"


def table(workload, rows, aa):
    """The printed report for one workload."""

    def side(stats):
        return f"{fmt(stats['median'])} [{fmt(stats['q1'])}, {fmt(stats['q3'])}]"

    lines = [
        f"== {workload}",
        f"{'metric':<18} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
        f"{'wins':>6} {'rel':>7} {'spread':>7} {'bound':>6}  verdict",
    ]
    for name, row in rows.items():
        verdict = ("NOISY" if row["noisy"] else "ok") if aa else row["verdict"]
        lines.append(
            f"{name:<18} {side(row['parent']):<36} {side(row['change']):<36} "
            f"{row['wins']:>3}/{row['pairs']:<2} {row['rel_change'] * 100:>+6.1f}% "
            f"{row['spread'] * 100:>6.1f}% {row['bound']:>6.2f}  {verdict}"
        )
    return "\n".join(lines)


def git(*args):
    return subprocess.run(["git", "-C", REPO, *args], check=True, text=True, capture_output=True).stdout


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class Bench:
    """The two revisions' checkout and builds under `workdir`."""

    def __init__(self, revs, workdir):
        self.revs = revs
        self.workdir = workdir
        self.checkout = os.path.join(workdir, "checkout")
        self.targets = {role: os.path.join(workdir, f"target-{role}") for role in ROLES}
        self.hashes = {}
        self.checked_out = None

    def export(self, role):
        """Replaces the checkout with `role`'s revision (same path for both)."""
        rev = self.revs[role]
        if self.checked_out == rev:
            return
        shutil.rmtree(self.checkout, ignore_errors=True)
        os.makedirs(self.checkout)
        archive = subprocess.Popen(["git", "-C", REPO, "archive", rev], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", self.checkout], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {rev} failed")
        self.checked_out = rev

    def binary(self, role):
        return os.path.join(self.targets[role], "release", "perfbench")

    def build(self, role):
        self.export(role)
        manifest = os.path.join(self.checkout, "perfbench", "Cargo.toml")
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env={**os.environ, "CARGO_TARGET_DIR": self.targets[role]},
            check=True,
        )
        self.hashes[role] = sha256(self.binary(role))
        print(f"ab: {role} {self.revs[role][:12]} perfbench sha256 {self.hashes[role][:16]}", file=sys.stderr)

    def check_binary(self, role, when):
        got = sha256(self.binary(role))
        if got != self.hashes[role]:
            sys.exit(f"ab: {role} perfbench binary changed {when} a run ({got[:16]} != {self.hashes[role][:16]})")

    def run(self, role, workload, seed, seconds):
        """One `perfbench/run.py` run of `role`'s build; returns its JSON."""
        self.export(role)
        self.check_binary(role, "before")
        env = {k: v for k, v in os.environ.items() if not k.startswith("SECDDR_")}
        env["CARGO_TARGET_DIR"] = self.targets[role]
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=self.checkout,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.check_binary(role, "after")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.exit(f"ab: {role} {workload} run exited with code {proc.returncode}")
        return json.loads(lines[-1])


def measure(args):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        declared = json.load(f)
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    revs = {role: git("rev-parse", "--verify", f"{rev}^{{commit}}").strip() for role, rev in zip(ROLES, (args.parent, args.change))}
    aa = revs["parent"] == revs["change"]
    bench = Bench(revs, os.path.abspath(args.workdir))
    for role in ROLES:
        bench.build(role)

    report = {
        "revs": revs,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "pairs": args.pairs,
        "seconds": declared["run_seconds"],
        "seed": args.seed,
        "order": "alternating: even pairs run parent first, odd pairs change first",
        "workloads": {},
    }
    failed = False
    for workload in workloads:
        runs = {role: [] for role in ROLES}
        for pair in range(args.pairs):
            for role in pair_order(pair):
                result = bench.run(role, workload, args.seed, declared["run_seconds"])
                ok = result["correct"] is True and result["failed"] == 0
                failed |= not ok
                runs[role].append(result)
                print(
                    f"ab: {workload} pair {pair + 1}/{args.pairs} {role}: correct {result['correct']}, "
                    f"failed {result['failed']}/{result['attempted']}",
                    file=sys.stderr,
                )
        rows = {}
        for name, metric in metrics.items():
            values = {role: [r["metrics"][name]["value"] for r in runs[role]] for role in ROLES}
            rows[name] = compare(values["parent"], values["change"], metric["better"], metric["bound"])
        report["workloads"][workload] = {
            "runs": {role: [{k: r[k] for k in ("correct", "attempted", "failed")} | {"metrics": {n: r["metrics"][n]["value"] for n in metrics}} for r in runs[role]] for role in ROLES},
            "metrics": rows,
        }
        print(table(workload, rows, aa), flush=True)

    def verdicts(verdict):
        return [f"{w}.{n}" for w, entry in report["workloads"].items() for n, row in entry["metrics"].items() if row["verdict"] == verdict]

    regressed = verdicts("REGRESSION")
    if not aa:
        print(f"ab: unresolved (spread at or above the bound): {', '.join(verdicts('UNRESOLVED')) or 'none'}")
    if aa:
        report["noisy"] = [f"{w}.{n}" for w, entry in report["workloads"].items() for n, row in entry["metrics"].items() if row["noisy"]]
        print(f"ab: A/A noise floor; spread or median change at or above the bound: {', '.join(report['noisy']) or 'none'}")
    if args.json:
        with open(args.json, "w") as f:
            f.write(json.dumps(report, indent=2) + "\n")
    if failed:
        print("ab: a run reported correct: false or failed operations", file=sys.stderr)
    if regressed and not aa:
        print(f"ab: regressions beyond their bound: {', '.join(regressed)}", file=sys.stderr)
    return 1 if failed or (regressed and not aa) else 0


def self_test():
    checks = 0

    def check(cond, what):
        nonlocal checks
        if not cond:
            sys.exit(f"ab self-test failed: {what}")
        checks += 1

    # Quantiles: linear interpolation between order statistics.
    check(quantile([3, 1, 2], 0.5) == 2, "odd median")
    check(quantile([1, 2, 3, 4], 0.5) == 2.5, "even median")
    check(quantile([1, 2, 3, 4, 5], 0.25) == 2 and quantile([1, 2, 3, 4, 5], 0.75) == 4, "quartiles")
    check(quantile([10, 20], 0.25) == 12.5, "interpolated quartile")
    check(quantile([7], 0.75) == 7, "one value")

    # Direction: lower-is-better and higher-is-better.
    check(improvement(10, 8, "lower") > 0 and improvement(10, 12, "lower") < 0, "lower is better")
    check(improvement(10, 12, "higher") > 0 and improvement(10, 8, "higher") < 0, "higher is better")

    # A clear latency gain: wins 10/10, median down 40%, far beyond the IQR.
    parent = [36.0, 37.0, 35.0, 38.0, 36.5, 37.5, 35.5, 36.8, 37.2, 36.2]
    change = [p * 0.6 for p in parent]
    row = compare(parent, change, "lower", 0.24)
    check(row["wins"] == 10 and row["verdict"] == "GAIN", f"clear gain: {row}")
    check(abs(row["rel_change"] + 0.4) < 1e-9, "relative change of the medians")

    # The same move over fewer than 10 pairs is not a gain: 9 pairs, or 1.
    row = compare(parent[:9], change[:9], "lower", 0.24)
    check(row["wins"] == 9 and row["verdict"] == "ok", f"9 pairs: {row}")
    row = compare(parent[:1], change[:1], "lower", 0.24)
    check(row["wins"] == 1 and row["verdict"] == "ok", f"1 pair: {row}")

    # 8 of 10 wins is not a gain, even with a large median move.
    mixed = change[:8] + [p * 1.1 for p in parent[8:]]
    row = compare(parent, mixed, "lower", 0.24)
    check(row["wins"] == 8 and row["verdict"] == "ok", f"8/10 wins: {row}")

    # 10/10 wins but a median move inside the parent's IQR is not a gain.
    wide = [90.0 + 2 * i for i in range(10)]
    row = compare(wide, [w - 1 for w in wide], "lower", 0.24)
    check(row["wins"] == 10 and row["spread"] < 0.24 and row["verdict"] == "ok", f"move within the IQR: {row}")

    # Worse beyond the bound is a regression, within it is not.
    row = compare([1.0] * 4, [1.3] * 4, "lower", 0.25)
    check(row["verdict"] == "REGRESSION", f"+30% on a 0.25 bound: {row}")
    row = compare([1.0] * 4, [1.2] * 4, "lower", 0.25)
    check(row["verdict"] == "ok", f"+20% on a 0.25 bound: {row}")
    row = compare([6.0] * 4, [4.0] * 4, "higher", 0.24)
    check(row["verdict"] == "REGRESSION", f"throughput -33%: {row}")
    row = compare([6.0] * 10, [7.0] * 10, "higher", 0.24)
    check(row["verdict"] == "GAIN", f"throughput +17%, no spread: {row}")

    # Spread at or above the bound: a move within the bound is unresolved,
    # in either direction, unless every change run beats every parent run.
    wild = [0.20, 0.25, 0.30, 0.35, 0.40]
    row = compare(wild, [w * 1.1 for w in wild[::-1]], "lower", 0.25)
    check(row["spread"] >= 0.25 and row["verdict"] == "UNRESOLVED", f"noisy +10%: {row}")
    row = compare(wild, [w * 0.9 for w in wild[::-1]], "lower", 0.25)
    check(not row["separated"] and row["verdict"] == "UNRESOLVED", f"noisy -10%: {row}")
    row = compare(wild, [w - 0.25 for w in wild], "lower", 0.25)
    check(row["separated"] and row["verdict"] == "ok", f"noisy but separated: {row}")
    row = compare([5.0, 6.0, 7.0, 8.0], [9.0, 11.0, 13.0, 15.0], "higher", 0.24)
    check(row["separated"] and row["verdict"] == "ok", f"noisy, separated, higher is better: {row}")
    # A median worse by more than the bound stays a regression however noisy.
    row = compare(wild, [w * 1.5 for w in wild], "lower", 0.25)
    check(row["verdict"] == "REGRESSION", f"noisy +50%: {row}")

    # A/A spread: IQR over the median, flagged at the bound.
    noisy = [0.20, 0.25, 0.30, 0.35, 0.40]
    row = compare(noisy, noisy[::-1], "lower", 0.25)
    check(abs(row["spread"] - 0.1 / 0.3) < 1e-9 and row["noisy"], f"noisy A/A: {row}")
    calm = [100.0, 101.0, 99.0, 100.5, 99.5]
    row = compare(calm, calm[::-1], "lower", 0.25)
    check(not row["noisy"] and row["verdict"] == "ok", f"calm A/A: {row}")

    # Pair order alternates which side runs first.
    check(pair_order(0) == ("parent", "change") and pair_order(1) == ("change", "parent"), "pair order")

    # The table prints one line per metric plus the header lines.
    text = table("w", {"m": compare(parent, change, "lower", 0.24)}, aa=False)
    check(len(text.splitlines()) == 3 and text.rstrip().endswith("GAIN"), "table layout")

    print(f"ab self-test: {checks} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="parent revision (any git rev)")
    parser.add_argument("change", nargs="?", help="change revision (any git rev)")
    parser.add_argument("--workloads", nargs="+", help="workloads to run (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed (default 1)")
    parser.add_argument(
        "--workdir",
        default=os.path.join(REPO, "target", "ab"),
        help="checkout and build directory (default target/ab in the repository)",
    )
    parser.add_argument("--json", help="write every run and the summary to this file")
    parser.add_argument("--self-test", action="store_true", help="check the statistics on canned inputs")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("need a parent and a change revision")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
