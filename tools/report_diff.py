"""Report values of a fixed list of CLI commands, compared between a revision and the working tree.

    python3 tools/report_diff.py --parent REV

The parent side is revision REV, extracted with ``bench_pairs.extract`` into
a temporary directory; the change side is the working tree.  Each command
runs in its own subprocess in each tree (``python -m schwarzball.cli`` with
that tree's ``src`` first on PYTHONPATH).  ``timing`` is dropped from both
reports, and every check whose ``value`` differs is printed with both
values; a different exit code, check name, tolerance, ``passed`` flag or
other report field is printed too.  A CSV output is compared as text, and
each line that differs is printed with both versions.  The exit code is 1
if anything differs, 0 if not.

The commands (48): ``verify`` of every suite at n = 2, 3 and seeds 0-2;
``analyze`` with every op, once with ``--r-max 0.6`` and once at the point
``--zeta 0.2-0.1j,0.15j,-0.1``, on the seeded n = 3 cubic
``random_normalized_polymap(3, default_rng(0))``, whose map file the working
tree writes once for both sides; ``search --family cubic --alpha 0.5 --seed
0``; and, from the benchmark's ``cli`` session, the Moebius search ``search
--family moebius --n 2 --alpha 0 --budget 24 --seed 1`` and ``bounds --n
2:10 --alpha 0:4 --step 0.1``, in CSV and in JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, PairsError, extract  # noqa: E402

SUITES = ("moebius", "chainrule", "invariance", "pde", "lemma31", "variation", "family")
OPS = "schwarzian,norm,order,koebe,extremal"
RUN_TIMEOUT_S = 600


def commands(map_file: str) -> list[list[str]]:
    """The fixed command list, as argument lists of ``schwarzball.cli``."""
    out = [["verify", suite, "--n", str(n), "--seed", str(seed)]
           for suite in SUITES for n in (2, 3) for seed in (0, 1, 2)]
    out.append(["analyze", map_file, "--ops", OPS, "--r-max", "0.6"])
    out.append(["analyze", map_file, "--ops", OPS, "--zeta", "0.2-0.1j,0.15j,-0.1"])
    out.append(["search", "--family", "cubic", "--alpha", "0.5", "--seed", "0"])
    out.append(["search", "--family", "moebius", "--n", "2", "--alpha", "0", "--budget", "24",
                "--seed", "1"])
    out += [["bounds", "--n", "2:10", "--alpha", "0:4", "--step", "0.1", "--format", fmt]
            for fmt in ("csv", "json")]
    return out


def _text(x) -> str:
    """Canonical JSON of a value, so NaN equals NaN and 1 differs from 1.0 as in the report."""
    return json.dumps(x, sort_keys=True)


def differences(parent: dict, change: dict) -> list[str]:
    """One line per difference between two reports, ``timing`` aside: each check whose
    value (or name, tolerance or ``passed`` flag) differs with both values, then every
    other report field that differs."""
    parent, change = dict(parent), dict(change)
    parent.pop("timing", None)
    change.pop("timing", None)
    lines = []
    a_results, b_results = parent.pop("results", []), change.pop("results", [])
    if len(a_results) != len(b_results):
        lines.append(f"results: {len(a_results)} checks -> {len(b_results)}")
    for a, b in zip(a_results, b_results):
        name = a.get("name") if a.get("name") == b.get("name") else f"{a.get('name')}|{b.get('name')}"
        for field in sorted(set(a) | set(b)):
            if _text(a.get(field)) != _text(b.get(field)):
                lines.append(f"{name} {field}: {_text(a.get(field))} -> {_text(b.get(field))}")
    for field in sorted(set(parent) | set(change)):
        if _text(parent.get(field)) != _text(change.get(field)):
            lines.append(f"report {field}: {_text(parent.get(field))} -> {_text(change.get(field))}")
    return lines


def text_differences(parent: str, change: str) -> list[str]:
    """One line per line of two texts that differs, with both versions, then a different
    line count."""
    a, b = parent.splitlines(), change.splitlines()
    lines = [f"line {i + 1}: {x!r} -> {y!r}" for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(a) != len(b):
        lines.append(f"lines: {len(a)} -> {len(b)}")
    return lines


def run(root: str, args: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one command in the tree ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "schwarzball.cli", *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def report(text: str) -> dict:
    """The JSON report a command printed ({} without one)."""
    return json.loads(text) if text.strip() else {}


def write_map_file(path: str) -> None:
    """The seeded n = 3 cubic of ``analyze``, built by the working tree's package."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from schwarzball.cli import map_to_payload
    from schwarzball.maps import random_normalized_polymap

    with open(path, "w") as fh:
        json.dump(map_to_payload(random_normalized_polymap(3, np.random.default_rng(0))), fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    args = ap.parse_args(argv)
    differing = 0
    try:
        with tempfile.TemporaryDirectory(prefix="report-diff-") as scratch:
            parent_root = os.path.join(scratch, "parent")
            os.mkdir(parent_root)
            commit = extract(args.parent, parent_root)
            map_file = os.path.join(scratch, "cubic_n3.json")
            write_map_file(map_file)
            cmds = commands(map_file)
            for cmd in cmds:
                (a_code, a_out), (b_code, b_out) = (run(root, cmd) for root in (parent_root, ROOT))
                lines = (text_differences(a_out, b_out) if "csv" in cmd
                         else differences(report(a_out), report(b_out)))
                if a_code != b_code:
                    lines.insert(0, f"exit code: {a_code} -> {b_code}")
                if lines:
                    differing += 1
                    label = " ".join(os.path.basename(x) if x == map_file else x for x in cmd)
                    print(label)
                    print("\n".join("  " + line for line in lines))
    except (PairsError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(cmds)} commands against {commit}: {differing} differ apart from timing")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
