#!/usr/bin/env python3
"""Smoke test of the benchmark itself, seconds long.

    python3 perfbench/smoke_test.py

Runs every workload shape on tiny corpus-size graphs (--tiny), traced
and untraced, through run.py, and asserts that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, and the run is correct;
  * every metric BENCHMARK.json names (end_to_end untraced, per_layer
    traced) is emitted with its unit;
  * the traced run's attribution holds (no attribution violations);
  * the correctness gate trips, with a nonzero exit, on a deliberately
    wrong reference (--break-reference).
Exits nonzero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, "%s: no output" % " ".join(cmd)
    return proc.returncode, json.loads(lines[-1])


def check_metrics(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, "%s: metric %s missing" % (label, m["name"])
        assert got[m["name"]]["unit"] == m["unit"], \
            "%s: %s has unit %s, want %s" % (label, m["name"],
                                              got[m["name"]]["unit"], m["unit"])
    extra = set(got) - {m["name"] for m in wanted}
    assert not extra, "%s: unlisted metrics %s" % (label, sorted(extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # isp_durable_storm is not in BENCHMARK.json (see README.md) but stays
    # runnable, so it is smoke-tested too.
    for name in [w["name"] for w in spec["workloads"]] + ["isp_durable_storm"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (name, trace)
            code, result = run(name, trace)
            assert code == 0, "%s: exit %d" % (label, code)
            assert result["correct"] and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            check_metrics(result, wanted, label)
            if trace == 1:
                v = result["metrics"]["service.attribution_violations"]["value"]
                assert v == 0, "%s: %s attribution violations" % (label, v)
            print("ok   %s (%d checks)" % (label, result["attempted"]))

    code, result = run(spec["workloads"][0]["name"], 0, "--break-reference")
    assert code != 0, "wrong reference: exit code 0"
    assert not result["correct"] and result["failed"] > 0, \
        "wrong reference: gate did not trip"
    print("ok   correctness gate trips on a wrong reference (%d of %d checks)"
          % (result["failed"], result["attempted"]))


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit("FAIL %s" % e)
