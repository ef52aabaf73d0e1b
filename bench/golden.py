"""Golden answers: the committed exact invariants of every benchmark case.

``golden.json`` holds one answer per case, keyed ``workload -> case`` (smoke
variants as ``case@smoke``), plus a list of values checked by hand.  The
hand-checked values are compared on their own as well, so re-recording the
file from a broken program cannot silently change them.

Re-record after a deliberate change of a case (never to make a failing
program pass):

    python3 bench/golden.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def case_key(case, smoke):
    return case + "@smoke" if smoke else case


def load(path=GOLDEN):
    with open(path) as fh:
        return json.load(fh)


def check(golden, workload, case, smoke, answer):
    """None if ``answer`` matches the golden file, else the reason it fails."""
    answer = json.loads(json.dumps(answer))
    expected = golden["answers"].get(workload, {}).get(case_key(case, smoke))
    if expected is None:
        return "no golden answer for %s/%s" % (workload, case_key(case, smoke))
    if answer != expected:
        return "answer differs from the golden file"
    for hand in golden["hand_checked"]:
        if hand["workload"] != workload or hand["case"] != case:
            continue
        value = answer
        for step in hand["path"]:
            value = value.get(step) if isinstance(value, dict) else None
        if value != hand["value"]:
            return "hand-checked value %s is %r, not %r" % (hand["note"], value, hand["value"])
    return None


def record(path=GOLDEN):
    """Run every case once, smoke and full, and store the answers."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from cases import WORKLOADS

    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump({"answers": {}, "hand_checked": []}, fh)
    golden = load(path)
    answers = {}
    for workload in WORKLOADS:
        answers[workload] = {}
        for smoke in (True, False):
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "0"]
            if smoke:
                cmd.append("--smoke")
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            for case in json.loads(out.splitlines()[-1])["cases"]:
                if case["answer"] is None:
                    raise SystemExit("%s/%s raised: %s" % (workload, case["name"], case["error"]))
                answers[workload][case_key(case["name"], smoke)] = case["answer"]
    golden["answers"] = answers
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
