"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is exact (no tolerances): probabilities are only ever
compared and copied, so all equality checks are bit-exact.
"""

from itertools import product

from ptop import (
    Cover,
    PointMap,
    WeightTable,
    complete,
    compose,
    connectivity_threshold,
    continuity_witness,
    decompose,
    from_topology,
    full_mask,
    inclusion_map,
    is_pcontinuous,
    is_qconnected,
    level_cut,
    min_subcover,
    parse_pspace,
    random_pspace,
    reconstruct,
    serialize_pspace,
    subspace,
    topology_defect,
    verify_exhaustive,
    verify_pairwise,
)
from ptop.cli import main
from oracles import (
    all_topologies,
    brute_min_cover_indices,
    classically_continuous,
    is_classical_topology,
    loop_pullback,
    random_weight_table,
    rng_for,
)

HALF_PALETTE = (0.0, 0.5, 1.0)
RICH_PALETTE = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)


def report(name: str, failures: int, total: int) -> None:
    status = "PASS" if failures == 0 else "FAIL"
    print(f"[{status}] {name}: {total - failures}/{total} checks ok")
    assert failures == 0, f"{name}: {failures} of {total} checks failed"


def seeded_pairs(count: int, max_n: int, tag: int):
    rng = rng_for(tag)
    for index in range(count):
        n = index % (max_n + 1)
        k = 1 + index % 4
        p = random_pspace(n, k, rng.next64())
        y = rng.below(1 << n)
        yield p, y


def test_criterion_01_axiom_oracle_agreement():
    failures = total = 0

    def check(w):
        nonlocal failures, total
        total += 1
        if (not verify_pairwise(w)) != (not verify_exhaustive(w)):
            failures += 1

    for n in (2, 3):  # every table over {0, 1/2, 1}: 81 at n=2, 6561 at n=3
        for values in product(HALF_PALETTE, repeat=1 << n):
            check(WeightTable(n, values))
    rng = rng_for(1)
    for index in range(500):
        check(random_weight_table(3 + index % 2, rng, RICH_PALETTE))
    report("criterion 1: pairwise/exhaustive axiom oracle agreement", failures, total)


def test_criterion_02_subspaces_are_spaces():
    failures = total = 0
    for p, y in seeded_pairs(1000, 8, 2):
        total += 1
        sub = subspace(p, y)
        ident = subspace(p, full_mask(p.n))
        if verify_pairwise(sub) or ident.table != p.table or ident.n != p.n:
            failures += 1
    report("criterion 2: subspace traces verify; full trace is identity", failures, total)


def test_criterion_03_inclusions_are_continuous():
    failures = total = 0
    for p, y in seeded_pairs(1000, 8, 2):  # same pairs as criterion 2
        total += 1
        if continuity_witness(inclusion_map(y, p.n), subspace(p, y), p) is not None:
            failures += 1
    report("criterion 3: subspace inclusions are continuous", failures, total)


def test_criterion_04_composition_is_continuous():
    failures = total = 0
    rng = rng_for(4)
    while total < 1000:
        nx, ny, nz = rng.below(6), 1 + rng.below(5), 1 + rng.below(5)
        r = random_pspace(nz, 1 + rng.below(3), rng.next64())
        g = PointMap(ny, nz, tuple(rng.below(nz) for _ in range(ny)))
        q = complete(loop_pullback(g, r))
        f = PointMap(nx, ny, tuple(rng.below(ny) for _ in range(nx)))
        p = complete(loop_pullback(f, q))
        assert is_pcontinuous(f, p, q) and is_pcontinuous(g, q, r)  # both legs hold
        total += 1
        if not is_pcontinuous(compose(f, g), p, r):
            failures += 1
    report("criterion 4: compositions of continuous maps are continuous", failures, total)


def _all_maps(n: int, m: int):
    if n == 0:
        yield PointMap(0, m, ())
        return
    if m == 0:
        return
    for image in product(range(m), repeat=n):
        yield PointMap(n, m, image)


def test_criterion_05_classical_embedding_equivalence():
    topologies = {n: all_topologies(n) for n in range(4)}
    counts = {n: len(topologies[n]) for n in topologies}
    assert counts == {0: 1, 1: 1, 2: 4, 3: 29}  # enumeration sanity, incl. 29 on 3 points
    spaces = {
        (n, topo): from_topology(n, topo)
        for n in topologies
        for topo in topologies[n]
    }
    failures = total = 0
    for n in range(4):
        for m in range(4):
            for f in _all_maps(n, m):
                for dom in topologies[n]:
                    for cod in topologies[m]:
                        total += 1
                        lhs = is_pcontinuous(f, spaces[(n, dom)], spaces[(m, cod)])
                        rhs = classically_continuous(f.image, dom, cod)
                        if lhs != rhs:
                            failures += 1
    report("criterion 5: 0/1 embedding matches classical continuity", failures, total)


def test_criterion_06_level_cuts_and_roundtrip():
    failures = total = 0
    for index in range(1000):
        n = index % 9
        p = random_pspace(n, 1 + index % 4, rng_for(6, index).next64())
        total += 1
        ok = reconstruct(decompose(p)).table == p.table
        for q in sorted(set(p.table)):
            cut = level_cut(p, q)
            if n <= 4:
                ok = ok and is_classical_topology(n, cut)
            else:
                ok = ok and topology_defect(n, cut) is None
        if not ok:
            failures += 1
    report("criterion 6: level cuts are topologies; decompose/reconstruct round-trips",
           failures, total)


def test_criterion_07_completion():
    failures = total = 0
    rng = rng_for(7)
    for index in range(500):
        w = random_weight_table(index % 7, rng, RICH_PALETTE)
        total += 1
        c = complete(w)
        ok = (
            not verify_pairwise(c)
            and all(cv >= wv for cv, wv in zip(c.table, w.table))
            and complete(c).table == c.table
        )
        if not ok:
            failures += 1
    tables = [WeightTable(2, values) for values in product(HALF_PALETTE, repeat=4)]
    valid = [w for w in tables if not verify_pairwise(w)]
    for w in tables:
        total += 1
        c = complete(w)
        strictly_between = any(
            all(qv >= wv for qv, wv in zip(q.table, w.table))
            and all(qv <= cv for qv, cv in zip(q.table, c.table))
            and q.table != c.table
            for q in valid
        )
        if strictly_between:
            failures += 1
    report("criterion 7: completion is sound, inflationary, idempotent, minimal",
           failures, total)


def test_criterion_08_connectivity_threshold_contract():
    failures = total = 0
    for index in range(1000):
        n = index % 11
        p = random_pspace(n, 1 + index % 4, rng_for(8, index).next64())
        m = connectivity_threshold(p)
        values = sorted(set(p.table))
        grid = set(values) | {0.0, 1.0}
        grid.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
        verdicts = [(q, is_qconnected(p, q)) for q in sorted(grid)]
        total += 1
        ok = all(connected == (q > m) for q, connected in verdicts)
        seen_connected = False
        for _, connected in verdicts:  # monotone: once connected, stays connected
            if seen_connected and not connected:
                ok = False
            seen_connected = seen_connected or connected
        if not ok:
            failures += 1
    report("criterion 8: connectedness agrees with the threshold across the value grid",
           failures, total)


def test_criterion_09_min_subcover_optimality():
    failures = total = 0
    rng = rng_for(9)
    for _ in range(300):
        n = 1 + rng.below(10)
        members = []
        seen = set()
        for _ in range(rng.below(12)):
            m = rng.below(1 << n)
            if m not in seen:
                seen.add(m)
                members.append(m)
        missing = full_mask(n)
        for m in members:
            missing &= ~m
        if missing:
            members.append(missing)  # disjoint from the rest, keeps count <= 12
        cover = Cover(n, tuple(members))
        want = brute_min_cover_indices(members, n)
        total += 1
        if min_subcover(cover).members != tuple(members[i] for i in want):
            failures += 1
    report("criterion 9: minimal subcovers match brute-force optimum and tie-break",
           failures, total)


def test_criterion_10_codec_and_generator_determinism(tmp_path, capsys):
    failures = total = 0
    docs_first = []
    for index in range(1000):
        n = index % 9
        k = 1 + index % 4
        seed = rng_for(10, index).next64()
        p = random_pspace(n, k, seed)
        doc = serialize_pspace(p)
        docs_first.append((n, k, seed, doc))
        again = parse_pspace(doc)
        total += 1
        if again.n != p.n or again.table != p.table or serialize_pspace(again) != doc:
            failures += 1
    for n, k, seed, doc in docs_first:  # second run, byte-for-byte
        total += 1
        if serialize_pspace(random_pspace(n, k, seed)) != doc:
            failures += 1

    golden = {
        "ptop 1\nn 3\n1 0.8\n2 0.7\n3 0.2\n": (1, "union 1 2 required 0.7 actual 0.2\n"),
        "ptop 1\nn 2\n1 0.5\n2 0.3\n": (0, "ok\n"),
    }
    for text, (want_code, want_out) in golden.items():
        path = tmp_path / "doc.ptop"
        path.write_text(text, encoding="utf-8")
        for _ in range(2):  # stable across runs
            code = main(["validate", str(path)])
            out = capsys.readouterr().out
            total += 1
            if (code, out) != (want_code, want_out):
                failures += 1
    report("criterion 10: codec round-trip, generator and validate are deterministic",
           failures, total)
