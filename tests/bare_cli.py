"""Smoke test of the `qmtop` command line with nothing but the standard
library.  Run it from the root of a checkout, under any Python it should
support, with:

    PYTHONPATH=src python tests/bare_cli.py

CI runs it in a venv made without pip, which holds no third-party package,
under 3.11 and under the oldest supported Python, 3.10.  Each call runs
`python -m qmtop` as a child process and must give its expected exit code
and output; the first that does not stops the script with exit 1.  Pytest
does not collect this file.

What the calls cover:

- The positives check and the statistical verdict build records with
  defaults, `DensityValue`'s classmethod constructors and `Fraction`s.
- The r4/t2 discrepancy witness is one of the few that need two indices.
  Two predicates that read one relation answer "none" without a scan, and
  an unknown predicate is an input error with no report.
- The literal separation conditions of the paper's statements (3)-(5)
  fail on spaces that are T0, T1 and T2.
- The topology stream runs the generator kernel that carries up-sets; its
  documents are counted, not printed.
- The 12-point discrete space (4,096 opens, written in descending order)
  goes through every stage of a topology document: parse and closure
  check, the canonical family (checked against d_U(x, y) = 1 iff x is in
  U and y is not), roundtrip, separation and topological convergence.
- A family of opens that is not closed is refused by every parse, since a
  `Topology` is always a topology: `check --kind topology` reports its
  violations, and any other kind is an input error that stops at the
  first violation, so `canonical` refuses every subset of 16 points but
  {0} at once.
- A net left-converges where its tail lies inside the column of the meet.
- A sequence whose rule moduli have lcm 9,240 runs the tail-type masks
  (shifts and byte buffers, whose `int` byte methods take no default byte
  order on 3.10): no square is 2 mod 3, so its first rule never fires, but
  every odd power of two is, so with powers of two it is not Cauchy.
- Two residue sets whose lcm is 999,000 get their statistical density
  from one mask over the tail types.
- A net order that is not transitive, and a family whose second index
  breaks the triangle inequality, are reported with their first and with
  every witness; `canonical` refuses a valid qmetric document.
"""

import json
import os
import subprocess
import sys
import tempfile


def call(*argv) -> subprocess.CompletedProcess:
    """One `python -m qmtop` child, its exit code and output echoed."""
    proc = subprocess.run([sys.executable, "-m", "qmtop", *argv],
                          capture_output=True, text=True)
    print(*argv, "->", proc.returncode, proc.stdout.strip(), proc.stderr.strip())
    return proc


def run(code: int, *argv) -> str:
    """The stdout of a call that must exit with `code`."""
    proc = call(*argv)
    if proc.returncode != code:
        sys.exit(f"expected exit {code}")
    return proc.stdout


def main(tmp: str) -> None:
    def doc(name, obj):
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    print(sys.version)
    out = json.loads(run(1, "discrepancy", "--left", "literal_r5", "--right", "direct-t2",
                         "--n", "3", "--indices", "1"))
    if out["verdict"] != "witness" or \
            out["witness"]["matrices"] != [[[0, 1, 0], [1, 0, 0], [1, 1, 0]]]:
        sys.exit("expected the r5/t2 witness")
    out = json.loads(run(1, "discrepancy", "--left", "literal_r4", "--right", "t2",
                         "--n", "4", "--indices", "3"))
    if out["witness"]["matrices"] != [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]:
        sys.exit("expected the two-index r4/t2 witness")
    out = json.loads(run(0, "discrepancy", "--left", "t1_amended", "--right", "t1",
                         "--n", "4", "--indices", "3"))
    if out["verdict"] != "none":
        sys.exit("expected verdict none")
    out = json.loads(run(0, "discrepancy", "--left", "literal_r5", "--right", "literal_r4",
                         "--n", "4", "--indices", "3"))
    if out["verdict"] != "none":
        sys.exit("expected verdict none for two predicates that read one relation")
    if run(2, "discrepancy", "--left", "t3", "--right", "t1", "--n", "3") != "":
        sys.exit("expected no report for an unknown predicate")

    sier = doc("sier.json", {"kind": "topology", "n": 2, "opens": [[], [1], [0, 1]]})
    two = doc("two.json", {"kind": "qmetric", "n": 2, "indices": ["i0", "i1"],
                           "matrices": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]})
    for path, method in ((sier, "literal_r3"), (two, "literal_r4"), (two, "literal_r5")):
        detail = json.loads(run(1, "separation", path, "--method", method))["detail"]
        if (detail["condition"], detail["direct"]) != (False, True):
            sys.exit(f"expected {method} to fail on a space that has its axiom")

    if run(0, "enumerate", "--n", "5", "--kind", "topologies", "--count-only") != "6942\n":
        sys.exit("expected 6942")
    proc = subprocess.run([sys.executable, "-m", "qmtop", "enumerate", "--n", "5",
                           "--kind", "topologies"], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    print("enumerate --n 5 --kind topologies ->", proc.returncode, len(lines), "lines",
          proc.stderr.strip())
    if proc.returncode != 0 or len(lines) != 6942 or lines != sorted(set(lines)):
        sys.exit("expected 6942 distinct topology documents in canonical order")

    labels = [json.dumps([p for p in range(12) if u >> p & 1], separators=(",", ":"))
              for u in range(4096)]
    disc = doc("disc12.json", {"kind": "topology", "n": 12,
                               "opens": [json.loads(s) for s in reversed(labels)]})
    for argv in (["check", disc, "--kind", "topology"], ["roundtrip", disc]):
        if json.loads(run(0, *argv))["verdict"] != "pass":
            sys.exit("expected the discrete space to pass")
    out = json.loads(run(0, "separation", disc, "--method", "direct"))
    if [out["detail"][axiom] for axiom in ("t0", "t1", "t2")] != [True] * 3:
        sys.exit("expected the discrete space to be T0, T1 and T2")
    seq12 = doc("seq12.json", {"kind": "sequence", "n": 12, "default": 11,
                               "rules": [{"set": {"type": "finite", "members": [1, 4]},
                                          "point": 3}]})
    run(0, "converge", seq12, disc, "--point", "11", "--mode", "topological")
    run(1, "converge", seq12, disc, "--point", "3", "--mode", "topological")

    open2 = doc("open2.json", {"kind": "topology", "n": 2, "opens": [[], [0], [1]]})
    if json.loads(run(1, "check", open2, "--kind", "topology"))["reason"] != "no-full-set":
        sys.exit("expected the non-closed family to fail with no-full-set")
    if run(2, "check", open2, "--kind", "qmetric") != "":
        sys.exit("expected no report on a non-closed family read as a qmetric")
    open16 = doc("open16.json", {"kind": "topology", "n": 16, "opens": [
        [p for p in range(16) if u >> p & 1] for u in range(1 << 16) if u != 1]})
    proc = call("canonical", open16)
    if (proc.returncode, proc.stdout, proc.stderr) != \
            (2, "", "error: not a topology: intersection-escape: {0,1}, {0,2}\n"):
        sys.exit("expected the non-closed 16-point family to be an input error")

    proc = subprocess.run([sys.executable, "-m", "qmtop", "canonical", disc],
                          capture_output=True, text=True)
    family = json.loads(proc.stdout)
    print("canonical", disc, "->", proc.returncode, len(family["indices"]), "indices",
          proc.stderr.strip())
    d_U = {label: [[int(x in U and y not in U) for y in range(12)] for x in range(12)]
           for label, U in zip(labels, map(json.loads, labels))}
    if proc.returncode != 0 or family["indices"] != sorted(labels) or \
            family["matrices"] != [d_U[label] for label in sorted(labels)]:
        sys.exit("expected the family d_U of every open, in label order")

    sg = doc("sg.json", {"kind": "semigroup", "elements": ["0", "1"],
                         "add": [[0, 1], [1, 1]], "zero": 0, "infinity": 1,
                         "positives": [0, 1]})
    if json.loads(run(0, "check", sg, "--kind", "positives"))["verdict"] != "pass":
        sys.exit("expected the positives to pass")
    seq = doc("seq.json", {"kind": "sequence", "n": 2, "default": 1,
                           "rules": [{"set": {"type": "squares"}, "point": 0}]})
    out = json.loads(run(0, "converge", seq, sier, "--point", "1", "--mode", "statistical"))
    if [i["density"]["kind"] for i in out["detail"]["per_index"]] != \
            ["exact", "zero_by_bound", "exact"]:
        sys.exit("expected exact, zero_by_bound and exact densities")

    net = doc("net.json", {"kind": "net", "n": 2, "elements": ["a", "b"],
                           "order": [[1, 1], [0, 1]], "assignment": [0, 1]})
    run(0, "converge", net, sier, "--point", "1", "--mode", "left")
    run(1, "converge", net, sier, "--point", "0", "--mode", "left")
    bad_net = doc("bad_net.json", {"kind": "net", "n": 2, "elements": ["a", "b", "c"],
                                   "order": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
                                   "assignment": [0, 1, 1]})
    proc = call("converge", bad_net, sier, "--point", "1", "--mode", "left")
    if (proc.returncode, proc.stdout, proc.stderr) != \
            (2, "", "error: net order not transitive at (0,1,2)\n"):
        sys.exit("expected the non-transitive net order to be an input error")
    tri = doc("tri.json", {"kind": "qmetric", "n": 3, "indices": ["i0", "i1"],
                           "matrices": [[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                        [[0, 0, 1], [1, 0, 0], [1, 1, 0]]]})
    if json.loads(run(1, "check", tri, "--kind", "qmetric"))["reason"] != \
            "triangle at index 'i1', points (0, 1, 2)":
        sys.exit("expected the triangle at index i1")
    disc3 = doc("disc3.json", {"kind": "qmetric", "n": 3, "indices": ["i0"],
                               "matrices": [[[0, 1, 1], [1, 0, 1], [1, 1, 0]]]})
    if run(2, "canonical", disc3) != "":
        sys.exit("expected no report on a qmetric document read as a topology")

    def seq9240(sparse):
        two_mod_three = {"type": "residues", "mod": 3, "residues": [2]}
        meet = {"type": "complement", "of": {"type": "union", "of": [
            {"type": "complement", "of": two_mod_three},
            {"type": "complement", "of": {"type": sparse}}]}}
        rules = [{"set": meet, "point": 0}] + [
            {"set": {"type": "residues", "mod": mod, "residues": [1]}, "point": 1}
            for mod in (8, 5, 7, 11)]
        return doc(sparse + ".json", {"kind": "sequence", "n": 2, "default": 1,
                                      "rules": rules})

    run(0, "converge", seq9240("squares"), sier, "--point", "1", "--mode", "cauchy")
    run(1, "converge", seq9240("powers_of_two"), sier, "--point", "1", "--mode", "cauchy")
    near_cap = doc("near_cap.json", {"kind": "sequence", "n": 2, "default": 0, "rules": [
        {"set": {"type": "residues", "mod": 1000, "residues": list(range(1, 1000))},
         "point": 1},
        {"set": {"type": "residues", "mod": 999, "residues": list(range(1, 999))},
         "point": 1}]})
    disc2 = doc("disc2.json", {"kind": "topology", "n": 2, "opens": [[], [0], [1], [0, 1]]})
    out = json.loads(run(1, "converge", near_cap, disc2, "--point", "0",
                         "--mode", "statistical"))
    if {"kind": "exact", "numerator": 998999, "denominator": 999000} not in \
            [i["density"] for i in out["detail"]["per_index"]]:
        sys.exit("expected density 998999/999000")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
