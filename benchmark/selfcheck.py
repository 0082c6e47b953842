"""Summarises the result lines selfcheck.sh collected (see there).

Two rules decide PASS or FAIL, both per metric x workload pair:

- the issue's: the medians of set A and set B, runs of the same binary, may
  not differ by more than the metric's bound in the metric's worse direction;
- the benchmark driver's: the quartile spread of a set, as a share of its
  median, may not exceed the bound either (setup_s excepted). A spread over a
  third of the bound is printed as a warning: the gate would fire on noise
  too often.
"""
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(bench_path, raw_dir):
    bench = json.load(open(bench_path))
    failures, warnings = [], []
    print("| workload | metric | unit | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | A->B worse by |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in (w["name"] for w in bench["workloads"]):
        runs = {s: load(f"{raw_dir}/{s}-{w}.jsonl") for s in "AB"}
        for s, rs in runs.items():
            bad = [r for r in rs if not r["correct"] or r["failed"]]
            if bad:
                failures.append(f"{w} set {s}: {len(bad)} incorrect run(s)")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], {}
            for s in "AB":
                values = [r["metrics"][name]["value"] for r in runs[s]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians[s] = q2
                cells += [f"{q2:.6g} [{q1:.6g}, {q3:.6g}]", f"{spread:.1%}"]
                if name != "setup_s" and spread > bound:
                    failures.append(f"{w} {name} set {s}: spread {spread:.1%} > bound {bound:.0%}")
                elif name != "setup_s" and spread > bound / 3:
                    warnings.append(f"{w} {name} set {s}: spread {spread:.1%} > a third of bound {bound:.0%}")
            gap = (medians["B"] - medians["A"]) / medians["A"]
            if m["better"] == "higher":
                gap = -gap
            if gap > bound:
                failures.append(f"{w} {name}: B worse than A by {gap:.1%} > bound {bound:.0%}")
            print(f"| {w} | {name} | {m['unit']} | {bound:.0%} | {cells[0]} | {cells[1]} | {cells[2]} | {cells[3]} | {gap:+.1%} |")
    print()
    if warnings:
        print("Warnings:")
        for line in warnings:
            print("- " + line)
        print()
    if failures:
        print("FAIL:")
        for line in failures:
            print("- " + line)
        sys.exit(1)
    print("PASS: every A-vs-B gap and every spread is inside its bound; every run correct with failed == 0.")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
