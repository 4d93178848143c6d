"""A/A: the whole benchmark twice on one tree, set against its own bounds.

    python3 esrbench/aa.py --out esrbench/AA.md

Each set runs every workload once per seed, untraced.  For every gated
metric × workload the report gives both sets' medians, their relative
difference (positive = the second set is worse) and each set's spread —
the distance between the first and third quartile as a share of the
median.  Exits non-zero if a difference or a spread exceeds the metric's
bound, if any run was not correct, or if the outcome counts of the two
deterministic workloads differ between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import common

DETERMINISTIC = ("engine-replay", "des-figures")


def run_set(spec: dict, seeds: list[int], seconds: float, label: str):
    values: dict[tuple[str, str], list[float]] = {}
    counts: dict[tuple[str, int], object] = {}
    incorrect = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        for seed in seeds:
            result, info = common.invoke(name, seed, seconds, trace=False)
            shown = " ".join(
                f"{metric}={value['value']:.5g}"
                for metric, value in result["metrics"].items()
            )
            print(f"set {label}: {name} seed {seed}: {shown}", file=sys.stderr)
            if not result["correct"] or result["failed"]:
                incorrect += 1
            for metric, value in result["metrics"].items():
                values.setdefault((name, metric), []).append(value["value"])
            if name in DETERMINISTIC:
                counts[(name, seed)] = info.get("outcome_counts")
    return values, counts, incorrect


def spread(samples: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per set")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)

    spec = common.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    first, first_counts, bad_a = run_set(spec, seeds, seconds, "A")
    second, second_counts, bad_b = run_set(spec, seeds, seconds, "B")

    lines = [
        "# esrbench A/A",
        "",
        f"Two sets of {len(seeds)} runs per workload (seeds {seeds[0]}..{seeds[-1]}, "
        f"{seconds:g} s each) of the same tree.",
        "",
        f"Host: `{json.dumps(common.provenance())}`",
        "",
        "| workload | metric | median A | median B | B worse by | spread A | "
        "spread B | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    failures = bad_a + bad_b
    for entry in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (entry["name"], metric["name"])
            a, b = statistics.median(first[key]), statistics.median(second[key])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spreads = spread(first[key]), spread(second[key])
            # The spread of set-up time is reported but not held to its
            # bound: it is a handful of process spawns, and only its
            # median is compared.
            ok = worse <= metric["bound"] and (
                metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
            )
            failures += not ok
            lines.append(
                f"| {key[0]} | {key[1]} | {a:.6g} | {b:.6g} | {worse:+.2%} | "
                f"{spreads[0]:.2%} | {spreads[1]:.2%} | {metric['bound']:.0%} | "
                f"{'yes' if ok else 'NO'} |"
            )
    identical = first_counts == second_counts and None not in first_counts.values()
    failures += not identical
    lines += [
        "",
        f"Runs that were not correct: {bad_a} in set A, {bad_b} in set B.",
        "",
        "Outcome counts of engine-replay and des-figures, every seed, "
        f"set A against set B: {'identical' if identical else 'DIFFERENT'}.",
        "",
        f"Verdict: {'pass' if not failures else f'FAIL ({failures})'}.",
    ]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
