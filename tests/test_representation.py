import json
import pathlib
import random
from itertools import product

import pytest

from qmtop import qmetric, representation
from qmtop.cli import main
from qmtop.core import PointSpace, QuasiFamily, members, parse_document, serialize
from qmtop.qmetric import PREDICATES, check_quasifamily, pack, separation_pair, to_topology
from qmtop.representation import (
    _family_candidates,
    canonical_family,
    discrepancy_pairs,
    find_discrepancy,
    roundtrip,
)
from qmtop.topology import enumerate_topologies

from helpers import (
    d_U,
    from_opens,
    index_rows,
    object_find_discrepancy,
    object_roundtrip,
    object_route_canonical,
    opens_of,
    p_U,
    sierpinski,
    zero_rows,
)


def test_canonical_family_examples():
    cf = canonical_family(sierpinski())
    assert type(cf) is QuasiFamily
    assert cf.indices == ("[]", "[1]", "[0,1]")
    # The zero row of x is the open when x is in it, the whole space otherwise.
    assert cf.rows == ((0b11, 0b11), (0b11, 0b10), (0b11, 0b11))
    assert index_rows(cf, "[1]") == (0b11, 0b10)

    indiscrete = from_opens(PointSpace(3), [0, 0b111])
    assert canonical_family(indiscrete).rows == ((0b111,) * 3,) * 2

    discrete = from_opens(PointSpace(2), range(4))
    dcf = canonical_family(discrete)
    assert len(dcf.indices) == 4
    assert index_rows(dcf, "[0]") == (0b01, 0b11)


def test_canonical_families_are_quasimetric():
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            assert check_quasifamily(canonical_family(t)) == []


def test_d_U_examples():
    t = sierpinski()
    u = t.space.subset([1])
    assert d_U(t, u, 1, 0) == 1
    assert d_U(t, u, 0, 0) == 0 and d_U(t, u, 0, 1) == 0  # x outside U
    assert d_U(t, u, 1, 1) == 0
    with pytest.raises(ValueError):
        d_U(t, t.space.subset([0]), 0, 1)  # {0} is not open here


def test_d_U_zero_set_recovers_open():
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            for u in opens_of(t):
                for x in members(u):
                    zero_set = sum(1 << y for y in range(n) if d_U(t, u, x, y) == 0)
                    assert zero_set == u


def test_p_U_equals_d_U():
    t = sierpinski()
    u = t.space.subset([1])
    assert p_U(t, u, 1, 0) == 1
    full = t.space.subset([0, 1])
    assert all(p_U(t, full, x, y) == 0 for x in range(2) for y in range(2))
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            for u in opens_of(t):
                for x in range(n):
                    for y in range(n):
                        assert p_U(t, u, x, y) == d_U(t, u, x, y)


def test_roundtrip_examples():
    assert roundtrip(sierpinski()).equal
    assert roundtrip(from_opens(PointSpace(3), [0, 0b111])).equal
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            assert roundtrip(t).equal


def _seeded_topology_documents():
    """Topology documents on 7 to 12 points: a few chains under a common top,
    or no order at all, with the points relabelled at random and the opens,
    found by testing every subset for up-closure, written shuffled."""
    rng = random.Random(2017)
    for k, n in enumerate((7, 8, 9, 10, 11, 12, 12)):
        rows = [1 << x for x in range(n)]
        if k < 6:
            links = rng.randrange(1, n)
            for x in range(links):  # x below x + 1, and everything below the top
                rows[x] |= 1 << x + 1
            rows = [r | 1 << n - 1 for r in rows]
            for y in range(n):  # transitive closure through each y in turn
                rows = [r | rows[y] if r >> y & 1 else r for r in rows]
        perm = rng.sample(range(n), n)
        relabelled = [0] * n
        for x, r in enumerate(rows):
            relabelled[perm[x]] = sum(1 << perm[y] for y in members(r))
        opens = [s for s in range(1 << n)
                 if all(relabelled[x] & ~s == 0 for x in members(s))]
        rng.shuffle(opens)
        yield json.dumps({"kind": "topology", "n": n, "opens": [members(u) for u in opens]})


def _drop_from_family(monkeypatch, u):
    """Break `roundtrip`'s canonical family: the index of the open u gets the
    zero rows of the empty set, which constrain nothing, as if u were not
    there."""
    real = representation._canonical_rows
    monkeypatch.setattr(representation, "_canonical_rows",
                        lambda space, opens: real(space, [0 if w == u else w for w in opens]))


def test_canonical_and_roundtrip_match_the_object_routes(tmp_path, capsys, monkeypatch):
    """`canonical_family` with `serialize`, and `roundtrip`, give what the
    object routes give: the same document bytes and the same report, on
    every topology with n <= 4, with each open in turn dropped from the
    family `roundtrip` builds, and on seeded larger documents through the
    CLI."""
    failures = 0
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(n):
            assert serialize(canonical_family(t)) == object_route_canonical(t)
            assert roundtrip(t) == object_roundtrip(t)
            opens = opens_of(t)
            for u in opens:
                with monkeypatch.context() as patch:
                    _drop_from_family(patch, u)
                    report = roundtrip(t)
                assert report == object_roundtrip(t, [w for w in opens if w != u])
                failures += not report.equal
    assert failures > 0
    for k, doc in enumerate(_seeded_topology_documents()):
        t = parse_document(doc)
        expected = object_route_canonical(t)
        assert serialize(canonical_family(t)) == expected
        assert roundtrip(t) == object_roundtrip(t)
        path = tmp_path / f"doc{k}.json"
        path.write_text(doc)
        assert main(["canonical", str(path)]) == 0
        assert capsys.readouterr().out == expected + "\n"


def test_roundtrip_file_reports_the_missing_opens(monkeypatch, tmp_path, capsys):
    """With the open {1} of the Sierpinski space dropped from its family, the
    family generates the indiscrete space: `roundtrip FILE` lists {1} as
    missing and exits 1."""
    path = tmp_path / "sier.json"
    path.write_text(serialize(sierpinski()))
    _drop_from_family(monkeypatch, 0b10)
    assert main(["roundtrip", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "op": "roundtrip", "verdict": "fail", "detail": {"missing": [[1]], "extra": []}}


def test_pruning_trivial_indices_preserves_topology():
    for t in enumerate_topologies(3):
        cf = canonical_family(t)
        keep = [k for k, u in enumerate(opens_of(t))
                if u not in (0, t.space.full_mask)]
        if not keep:
            continue
        pruned = QuasiFamily(cf.space, tuple(cf.indices[k] for k in keep),
                             tuple(cf.rows[k] for k in keep))
        assert to_topology(pruned) == t


def test_find_discrepancy_documented_witness():
    w = find_discrepancy("literal_r5", "t2", 3, 1)
    assert w is not None
    assert w.rows == (zero_rows([[0, 1, 0], [1, 0, 0], [1, 1, 0]]),)
    pairs = discrepancy_pairs(w, "literal_r5", "t2")
    assert {tuple(p["pair"]) for p in pairs} == {(0, 1), (1, 0)}


def test_find_discrepancy_exhausts_for_true_characterizations():
    assert find_discrepancy("t0_unordered", "t0", 3, 2) is None
    assert find_discrepancy("t1_amended", "t1", 3, 2) is None
    assert find_discrepancy("literal_r3", "t1_amended", 3, 2) is None


def test_find_discrepancy_literal_r3_vs_t0():
    w = find_discrepancy("literal_r3", "t0", 2, 1)
    assert w is not None
    assert w.rows == (zero_rows([[0, 0], [1, 0]]),)
    assert to_topology(w) == sierpinski()


def test_find_discrepancy_argument_validation():
    with pytest.raises(ValueError):
        find_discrepancy("literal_r9", "t2", 3, 1)
    with pytest.raises(ValueError):
        find_discrepancy("literal_r5", "t9", 3, 1)
    for n, max_indices in ((0, 1), (17, 1), (3, 0)):
        with pytest.raises(ValueError):
            find_discrepancy("literal_r5", "t2", n, max_indices)


@pytest.mark.parametrize("n, max_indices", [(3, 2), (2, 3)])
def test_packed_search_matches_object_search(n, max_indices):
    names = list(PREDICATES)
    for a in names:
        for b in names:
            fast = find_discrepancy(a, b, n, max_indices)
            slow = object_find_discrepancy(a, b, n, max_indices)
            assert (fast and serialize(fast)) == (slow and serialize(slow)), (a, b)


def test_first_witnesses_at_four_points_and_three_indices():
    """Every ordered predicate pair at the search's largest size, which the
    object oracle cannot reach, against pinned serialized witnesses."""
    path = pathlib.Path(__file__).parent / "data" / "discrepancy_witnesses_n4_i3.json"
    pinned = json.loads(path.read_text())
    names = list(PREDICATES)
    found = {a: {b: (lambda w: w and serialize(w))(find_discrepancy(a, b, 4, 3))
                 for b in names} for a in names}
    assert found == pinned


def test_predicates_reading_one_relation_need_no_scan(monkeypatch):
    """The 18 `none` pairs of the pinned four-point, three-index table are
    exactly the pairs of predicates that read one relation; the search
    answers None for them without a candidate scan, after its range checks,
    at any point count and index count."""
    path = pathlib.Path(__file__).parent / "data" / "discrepancy_witnesses_n4_i3.json"
    pinned = json.loads(path.read_text())
    none = {(a, b) for a in pinned for b in pinned[a] if pinned[a][b] is None}
    assert len(none) == 18
    assert none == {(a, b) for a in PREDICATES for b in PREDICATES
                    if PREDICATES[a][0] == PREDICATES[b][0]}
    monkeypatch.setattr(representation, "_family_candidates",
                        lambda *args: pytest.fail("the candidate scan ran"))
    for a, b in none:
        for n, max_indices in ((4, 3), (5, 3), (4, 4), (16, 10**9)):
            assert find_discrepancy(a, b, n, max_indices) is None
        for n, max_indices in ((0, 1), (17, 1), (4, 0)):
            with pytest.raises(ValueError):
                find_discrepancy(a, b, n, max_indices)


def _states_by_index_count(n, max_indices):
    """Number of (meet, sym) states of the families with exactly k indices,
    k = 1..max_indices, by closing the preorders' packed pairs under AND/OR."""
    generators = {(pack(meet), sym) for meet, sym in
                  (separation_pair(n, rows) for rows in _family_candidates(n, 1))}
    level, counts = {((1 << n * n) - 1, 0)}, []
    for _ in range(max_indices):
        level = {(m & gm, s | gs) for m, s in level for gm, gs in generators}
        counts.append(len(level))
    return counts


def test_reachable_states_saturate():
    assert _states_by_index_count(2, 3) == [4, 5, 5]
    assert _states_by_index_count(3, 3) == [29, 63, 63]
    assert _states_by_index_count(4, 4) == [355, 2053, 2113, 2113]


def test_packed_search_builds_topology_only_for_the_witness(monkeypatch):
    calls = []
    real = qmetric.to_topology
    monkeypatch.setattr(qmetric, "to_topology", lambda q: calls.append(q) or real(q))
    assert find_discrepancy("t1_amended", "t1", 3, 2) is None
    assert len(calls) <= 1
    assert find_discrepancy("literal_r5", "t2", 3, 1) is not None
    assert len(calls) == 1


def test_predicates_reading_different_relations_disagree_on_three_points():
    """The facts that bound the scan, over all 64 ordered predicate pairs: a
    pair that reads one relation gets None (before any scan, as
    `test_predicates_reading_one_relation_need_no_scan` checks), and every
    other pair has a one-index witness on at most 3 points and a witness on
    2 points with at most 3 indices.  So the scan stops within 3 points, and
    at 2 points once it may use 3 indices, whatever its bounds."""
    pairs = [(a, b) for a in PREDICATES for b in PREDICATES]
    assert len(pairs) == 64
    different = [(a, b) for a, b in pairs if PREDICATES[a][0] != PREDICATES[b][0]]
    assert len(different) == 46
    for a, b in pairs:
        for n, max_indices in ((3, 1), (2, 3)):
            w = find_discrepancy(a, b, n, max_indices)
            if (a, b) in different:
                assert w is not None and discrepancy_pairs(w, a, b), (a, b, n)
            else:
                assert w is None, (a, b, n)


def test_candidate_scan_visits_at_most_fifteen_families(monkeypatch):
    """Over every point count the search accepts and index counts up to
    10^9, the scan stops within 14 candidates, and finds the witness of
    the same call clamped to 4 points and 3 indices."""
    visits = []

    def counted(points, max_indices):
        for rows in _family_candidates(points, max_indices):
            visits[-1] += 1
            yield rows

    clamped = {}
    for a in PREDICATES:
        for b in PREDICATES:
            for n in range(1, 5):
                for max_indices in range(1, 4):
                    w = find_discrepancy(a, b, n, max_indices)
                    clamped[a, b, n, max_indices] = w and serialize(w)
    monkeypatch.setattr(representation, "_family_candidates", counted)
    calls = 0
    for (a, b, n, max_indices) in product(PREDICATES, PREDICATES, range(1, 17),
                                          (1, 2, 3, 4, 10, 10**9)):
        visits.append(0)
        w = find_discrepancy(a, b, n, max_indices)
        assert (w and serialize(w)) == clamped[a, b, min(n, 4), min(max_indices, 3)]
        calls += 1
    assert calls == 6144
    assert 0 < max(visits) <= 14
