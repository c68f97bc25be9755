import random
import sys
from itertools import product

from qmtop import _kernels
from qmtop.cli import main
from qmtop.core import PointSpace, Topology

from helpers import triangles


def _brute_preorder_rows(n):
    """Reference: filter every relation matrix by hand."""
    out = []
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in product((0, 1), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)}
        rel.update(p for p, b in zip(pairs, bits) if b)
        if all((x, z) in rel for (x, y) in rel for (y2, z) in rel if y2 == y):
            out.append(tuple(sum(1 << y for y in range(n) if (x, y) in rel)
                             for x in range(n)))
    return sorted(out)


def _brute_family_masks(n):
    subsets = 1 << n
    out = []
    for fam in range(1 << subsets):
        members = [a for a in range(subsets) if fam >> a & 1]
        if 0 not in members or subsets - 1 not in members:
            continue
        ok = all(fam >> (a | b) & 1 and fam >> (a & b) & 1
                 for a in members for b in members)
        if ok:
            out.append(fam)
    return out


def test_preorder_kernel_against_brute_force():
    for n in (1, 2, 3, 4):
        assert sorted(_kernels.preorder_rows(n)) == _brute_preorder_rows(n)


def test_known_counts():
    counts = []
    for n in (1, 2, 3, 4, 5):
        rows = _kernels.preorder_rows(n)
        assert len(set(rows)) == len(rows)
        counts.append(len(rows))
    assert counts == [1, 4, 29, 355, 6942]
    # Counted from each parent's (D, U) pairs, without building a child.
    assert [_kernels.count_preorders(n) for n in (1, 2, 3, 4, 5)] == counts
    assert [len(_kernels.closed_family_masks(n)) for n in (1, 2, 3, 4)] == [1, 4, 29, 355]


def test_every_kernel_preorder_passes_validation():
    """The enumeration streams trust these rows without building a
    `Topology`: each is in range, reflexive and transitive."""
    for n in (1, 2, 3, 4, 5):
        space = PointSpace(n)
        for rows in _kernels.preorder_rows(n):
            assert Topology(space, rows).rows == rows


def test_upsets_against_brute_force():
    for n in (1, 2, 3, 4):
        for rows in _brute_preorder_rows(n):
            expected = [u for u in range(1 << n)
                        if all(not u >> x & 1 or rows[x] & ~u == 0 for x in range(n))]
            # Ascending, so documents list them unsorted.
            assert _kernels.upsets(rows) == expected


def test_family_kernel_against_brute_force():
    for n in (1, 2, 3):
        assert _kernels.closed_family_masks(n) == _brute_family_masks(n)


def test_transpose_and_pack_read_every_relation_bit():
    """On every relation of three points (reflexive or not), row y of the
    transpose holds x iff row x holds y, and bit x*n + y of the packed
    relation is set iff row x holds y."""
    n = 3
    for rows in product(range(1 << n), repeat=n):
        columns = _kernels.transpose(rows)
        packed = _kernels.pack(rows)
        for x in range(n):
            for y in range(n):
                assert (columns[y] >> x & 1) == (rows[x] >> y & 1)
                assert (packed >> x * n + y & 1) == (rows[x] >> y & 1)
        assert packed >> n * n == 0


def test_triangles_against_the_loop():
    """The transitivity witnesses of the kernel, which first tests each
    distinct row, are the loop's: on every relation of at most three points
    (reflexive or not), on every preorder of four and five points, where
    there are none, and on seeded random relations of up to 16 points, with
    their transitive closures."""
    for n in (1, 2, 3):
        for rows in product(range(1 << n), repeat=n):
            assert list(_kernels.triangles(rows)) == triangles(rows)
    for n in (4, 5):
        for rows in _kernels.preorder_rows(n):
            assert list(_kernels.triangles(rows)) == triangles(rows) == []
    rng = random.Random(0)
    for n in (6, 12, 16):
        for _ in range(50):
            rows = [rng.getrandbits(n) & rng.getrandbits(n) | 1 << x for x in range(n)]
            assert list(_kernels.triangles(rows)) == triangles(rows)
            for y in range(n):  # close transitively through each y in turn
                rows = [row | rows[y] if row >> y & 1 else row for row in rows]
            assert list(_kernels.triangles(rows)) == triangles(rows) == []


def test_carried_upsets_match_the_walk():
    """The up-sets each preorder carries out of the one-point extension are
    its walked up-sets, ascending, and the rows are `preorder_rows`'s."""
    for n in (1, 2, 3, 4, 5):
        pairs = list(_kernels.preorder_upsets(n))
        assert [rows for rows, _ in pairs] == _kernels.preorder_rows(n)
        for rows, ups in pairs:
            assert ups == tuple(sorted(_kernels.upsets(rows)))


def test_enumeration_walks_no_enumerated_space(monkeypatch, capsys):
    """The topology stream walks the up-sets of no enumerated space, and
    `roundtrip --n` walks them once per space, to list the opens that index
    its canonical family; `qmetric.to_topology` walks none."""
    real, walked = _kernels.upsets, []
    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "qmtop"]:
        if getattr(module, "upsets", None) is real:
            monkeypatch.setattr(module, "upsets", lambda rows: walked.append(rows) or real(rows))
    assert main(["enumerate", "--n", "4", "--kind", "topologies"]) == 0
    assert capsys.readouterr().out.count("\n") == 355 and walked == []
    assert main(["roundtrip", "--n", "3"]) == 0
    capsys.readouterr()
    assert sorted(walked) == sorted(_kernels.preorder_rows(3))
