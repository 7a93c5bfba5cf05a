"""The four benchmark workloads: seeded inputs, the fixed op cycle, and checks.

A workload's ``setup(seed, work, tiny)`` builds every input from the seed
with the public generator (``SplitMix64``, ``build``, ``random_pspace``),
writes the files the CLI reads into ``work``, and returns a
:class:`Workload`: the op cycle that the run repeats, plus the input
properties a later change might depend on.

CLI ops carry the exit code, stdout and output file the command must
produce.  Those answers are computed here with the library, from the
spaces the inputs were generated from, and formatted by this module's own
copy of the documented CLI output format, so the CLI is checked against
the library and not against itself.  Library ops carry a property check
that the run applies to the first result of each op; later results of
the same op must have the same digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import ptop
from ptop import (
    Cover,
    LevelChain,
    PointMap,
    SplitMix64,
    WeightTable,
    build,
    complete,
    connectivity_threshold,
    continuity_witness,
    decompose,
    disconnection_witness,
    format_probability,
    identity_map,
    inclusion_map,
    min_subcover,
    qcover_witness,
    random_pspace,
    serialize_pmap,
    serialize_pspace,
    subspace,
    topology_defect,
    verify_exhaustive,
    verify_pairwise,
)

LEVELS = 6  # level count asked of random_pspace everywhere


@dataclass
class CliOp:
    """One ``ptop`` invocation and the answer it must give."""

    label: str
    n: int
    argv: list[str]
    code: int
    stdout: str
    out: str | None = None  # path the command writes, if any
    out_text: str | None = None


@dataclass
class Ref:
    """An op argument taken from the result of an earlier op in the cycle."""

    label: str


@dataclass
class LibOp:
    """One library call; ``func`` names it as ``<module>.<function>``."""

    label: str
    n: int
    func: str
    args: tuple
    check: Callable[[tuple, Any], bool]
    record: tuple[str, Callable[[Any], int]] | None = None  # property kept from the result


@dataclass
class Workload:
    kind: str  # "cli" or "lib"
    ops: list
    props: dict = field(default_factory=dict)
    probe: str = "kernel"  # the speed probe its times are scaled by: "kernel" or "child"


# --- seeded inputs --------------------------------------------------------


def sparse_table(n: int, rng: SplitMix64) -> WeightTable:
    """A table listing 2n..4n random proper subsets (at most all) with random values."""
    count = min(2 * n + rng.below(2 * n + 1), (1 << n) - 2)
    masks: set[int] = set()
    while len(masks) < count:
        m = rng.below(1 << n)
        if 0 < m < (1 << n) - 1:
            masks.add(m)
    return build(n, [(m, rng.unit()) for m in sorted(masks)])


def dense_table(n: int, rng: SplitMix64) -> WeightTable:
    """A table listing every subset, boundary ones included, at random values."""
    return build(n, [(m, rng.unit()) for m in range(1 << n)])


def random_mask(n: int, points: int, rng: SplitMix64) -> int:
    mask = 0
    while mask.bit_count() < points:
        mask |= 1 << rng.below(n)
    return mask


def small_cover(n: int, rng: SplitMix64, lo: int, hi: int, avoid: int = -1) -> tuple[int, ...]:
    """lo..hi members of 1-4 points; covers every point but ``avoid``."""
    members: list[int] = []
    for _ in range(lo + rng.below(hi - lo + 1)):
        m = random_mask(n, min(n, 1 + rng.below(4)), rng) & ~(1 << avoid if avoid >= 0 else 0)
        if m and m not in members:
            members.append(m)
    covered = 0
    for m in members:
        covered |= m
    for x in range(n):
        if x != avoid and not covered >> x & 1 and (1 << x) not in members:
            members.append(1 << x)
    return tuple(members)


def random_map(dom: int, cod: int, rng: SplitMix64) -> PointMap:
    return PointMap(dom, cod, tuple(rng.below(cod) for _ in range(dom)))


def listed(w: WeightTable) -> int:
    """Entries a serialized table lists (the non-default ones)."""
    last = len(w.table) - 1
    return sum(v != (1.0 if m in (0, last) else 0.0) for m, v in enumerate(w.table))


# --- expected CLI output, formatted as documented in ``ptop.cli`` ---------

fp = format_probability


def text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def pair_lines(reports) -> list[str]:
    out = []
    for r in reports:
        head = f"{r.kind} {r.witness_a}" + ("" if r.witness_b is None else f" {r.witness_b}")
        out.append(f"{head} required {fp(r.required)} actual {fp(r.actual)}")
    return out


def family_lines(violations) -> list[str]:
    out = []
    for v in violations:
        if v.kind == "range":
            out.append(f"range {v.members[0]} required {fp(v.required)} actual {fp(v.actual)}")
        else:
            members = ",".join(map(str, v.members)) or "-"
            out.append(f"{v.kind} family {members} required {fp(v.required)} actual {fp(v.actual)}")
    return out


def validate_answer(reports, lines) -> tuple[int, str]:
    return (1, text(lines)) if reports else (0, "ok\n")


def split_answer(split) -> tuple[int, str]:
    return (0, "connected\n") if split is None else (1, f"disconnected {split[0]} {split[1]}\n")


def cover_answer(p: WeightTable, members: tuple[int, ...], q: float, minimal: bool) -> tuple[int, str]:
    cover = Cover(p.n, members)
    defect = qcover_witness(p, cover, q)
    if defect is None:
        lines = ["ok"]
    elif defect.kind == "uncovered-point":
        lines = [f"not-covering {defect.point}"]
    else:
        lines = [f"low-probability {defect.mask}"]
    if minimal and (defect is None or defect.kind != "uncovered-point"):
        lines.append("minimal " + ",".join(map(str, min_subcover(cover).members)))
    return (0 if defect is None else 1), text(lines)


class Files:
    """Writes input documents into the work directory, one name each."""

    def __init__(self, work: Path):
        self.work = work

    def put(self, name: str, content: str) -> str:
        path = self.work / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.work / name)


def cli_mix(n: int, rng: SplitMix64, files: Files, props: dict) -> list[CliOp]:
    """Every subcommand at ground size n, with every exit path.

    Exit 1 comes from an invalid table, a non-continuous map (almost
    always: a random map), a non-cover and a disconnected space; exit 2
    from a parse error and a cap error.
    """
    tag = f"n{n}"
    seed_a, seed_b = rng.next64(), rng.next64()
    a = random_pspace(n, LEVELS, seed_a)
    b = random_pspace(n, LEVELS, seed_b)
    w = sparse_table(n, rng)
    w4 = sparse_table(4, rng)
    f = random_map(n, n, rng)
    pa, pb = files.put(f"a{tag}.ptop", serialize_pspace(a)), files.put(f"b{tag}.ptop", serialize_pspace(b))
    pw, pw4 = files.put(f"w{tag}.ptop", serialize_pspace(w)), files.put(f"w4{tag}.ptop", serialize_pspace(w4))
    pf = files.put(f"f{tag}.pmap", serialize_pmap(f))
    bad = files.put(f"bad{tag}.ptop", f"ptop 1\nn {n}\n1 0.5\n{rng.below(1 << n)} 0.25 0.5\n")
    out = files.out(f"out{tag}.ptop")

    reports = verify_pairwise(w)
    family = verify_exhaustive(w4)
    completed = complete(w)
    y = random_mask(n, (n + 1) // 2, rng)
    witness = continuity_witness(f, a, b)
    chain = decompose(a)
    threshold = connectivity_threshold(a)
    split = disconnection_witness(a, threshold)
    gap = rng.below(n)
    non_cover = small_cover(n, rng, n // 2, n, avoid=gap)
    cover = small_cover(n, rng, n // 2, n)
    q_cover = min(a.table[m] for m in cover)

    props.setdefault("listed_entries", []).extend([listed(a), listed(b), listed(w), listed(w4)])
    props.setdefault("distinct_levels", []).extend([len(set(a.table)), len(set(b.table))])
    props.setdefault("violations", []).extend([len(reports), len(family)])
    props.setdefault("cover_members", []).extend([len(non_cover), len(cover)])

    level_lines = [
        f"{fp(q)} {len(t)} {' '.join(map(str, sorted(t)))}".rstrip()
        for q, t in zip(chain.levels, chain.topologies)
    ]
    return [
        CliOp(f"validate {tag}", n, ["validate", pw], *validate_answer(reports, pair_lines(reports))),
        CliOp("validate-exhaustive n4", 4, ["validate", pw4, "--exhaustive"],
              *validate_answer(family, family_lines(family))),
        CliOp(f"cap-error {tag}", n, ["validate", pw, "--exhaustive"], 2, ""),
        CliOp(f"parse-error {tag}", n, ["levels", bad], 2, ""),
        CliOp(f"complete {tag}", n, ["complete", pw, "-o", out], 0, "", out, serialize_pspace(completed)),
        CliOp(f"subspace {tag}", n, ["subspace", pa, "--subset", bin(y), "-o", out], 0, "", out,
              serialize_pspace(subspace(a, y))),
        CliOp(f"continuity {tag}", n, ["continuity", "--map", pf, "--dom", pa, "--cod", pb],
              *((0, "continuous\n") if witness is None else (1, f"witness {witness}\n"))),
        CliOp(f"levels {tag}", n, ["levels", pa], 0, text(level_lines)),
        CliOp(f"connectivity {tag}", n, ["connectivity", pa], 0, f"threshold {fp(threshold)}\n"),
        CliOp(f"disconnected {tag}", n, ["connectivity", pa, "--q", fp(threshold)], *split_answer(split)),
        CliOp(f"non-cover {tag}", n, ["cover", pa, "--q", "0", "--members", ",".join(map(str, non_cover))],
              *cover_answer(a, non_cover, 0.0, False)),
        CliOp(f"cover {tag}", n, ["cover", pa, "--q", fp(q_cover), "--members", ",".join(map(str, cover)),
                                  "--minimal"], *cover_answer(a, cover, q_cover, True)),
        CliOp(f"generate {tag}", n, ["generate", "--n", str(n), "--levels", str(LEVELS),
                                     "--seed", str(seed_a), "-o", out], 0, "", out, serialize_pspace(a)),
    ]


def large_loads(n: int, rng: SplitMix64, files: Files, props: dict) -> list[CliOp]:
    """Three load-dominated calls on one generated space at ground size n."""
    tag = f"n{n}"
    a = random_pspace(n, LEVELS, rng.next64())
    pa = files.put(f"a{tag}.ptop", serialize_pspace(a))
    q = rng.unit()
    cover = small_cover(n, rng, n // 2, n)
    props.setdefault("listed_entries", []).append(listed(a))
    props.setdefault("distinct_levels", []).append(len(set(a.table)))
    props.setdefault("cover_members", []).append(len(cover))
    return [
        CliOp(f"validate {tag}", n, ["validate", pa], 0, "ok\n"),
        CliOp(f"connectivity-q {tag}", n, ["connectivity", pa, "--q", fp(q)],
              *split_answer(disconnection_witness(a, q))),
        CliOp(f"cover {tag}", n, ["cover", pa, "--q", "0.5", "--members", ",".join(map(str, cover))],
              *cover_answer(a, cover, 0.5, False)),
    ]


def setup_cli_startup(seed: int, work: Path, tiny: bool) -> Workload:
    props: dict = {}
    ops = cli_mix(5 if tiny else 8, SplitMix64(seed), Files(work), props)
    return Workload("cli", ops, props, probe="child")


def setup_cli_load(seed: int, work: Path, tiny: bool) -> Workload:
    rng, files, props = SplitMix64(seed), Files(work), {}
    mix = cli_mix(6 if tiny else 12, rng, files, props)
    loads = large_loads(7 if tiny else 13, rng, files, props)
    return Workload("cli", interleave([mix, loads]), props)


# --- library checks -------------------------------------------------------


def is_valid(p: WeightTable) -> bool:
    return not verify_pairwise(p)


REPORT_RANK = {"range": 0, "boundary": 1, "union": 2, "intersection": 3}


def reports_genuine(w: WeightTable, reports) -> bool:
    """Every report is a real violation, and the reports are in the documented order."""
    t = w.table
    last = (-1, -1, -1)
    for r in reports:
        key = (REPORT_RANK.get(r.kind, -1), r.witness_a, -1 if r.witness_b is None else r.witness_b)
        if not key > last:
            return False
        last = key
        if r.kind in ("union", "intersection"):
            a, b = r.witness_a, r.witness_b
            target = a | b if r.kind == "union" else a & b
            if not (a <= b and r.required == min(t[a], t[b]) and r.actual == t[target] < r.required):
                return False
        elif not (r.kind == "boundary" and r.witness_a in (0, len(t) - 1) and r.actual == t[r.witness_a] < 1.0):
            return False
    return True


def violation_counts(w: WeightTable) -> dict[str, int]:
    """Violations per kind, counted over the whole pair grid apart from the library.

    Tables built with ``build`` hold no out-of-range value, so there are
    no range violations.  The grid is symmetric and its diagonal never
    violates, so each pair a <= b is counted twice.
    """
    t = np.asarray(w.table)
    masks = np.arange(t.size)
    rows = max(1, (1 << 21) // t.size)
    twice = {"union": 0, "intersection": 0}
    for start in range(0, t.size, rows):
        a = masks[start:start + rows, None]
        required = np.minimum(t[start:start + rows, None], t)
        twice["union"] += int(np.count_nonzero(t[a | masks] < required))
        twice["intersection"] += int(np.count_nonzero(t[a & masks] < required))
    boundary = sum(not t[m] >= 1.0 for m in (0, t.size - 1))
    return {"boundary": boundary, **{kind: count // 2 for kind, count in twice.items()}}


def check_verify(args, reports) -> bool:
    (w,) = args
    found = {kind: sum(r.kind == kind for r in reports) for kind in REPORT_RANK}
    expected = {"range": 0, **violation_counts(w)}
    return found == expected and reports_genuine(w, reports)


def check_exhaustive(args, violations) -> bool:
    (w,) = args
    return bool(violations) == bool(verify_pairwise(w)) and all(
        v.actual < v.required for v in violations
    )


def least_completion(w: WeightTable) -> list[float]:
    """The least valid space dominating ``w``, computed cut by cut.

    Its cut at level q (the masks valued at least q) is the lattice of sets
    generated by the masks w values at least q, with the empty and the
    full set.  A mask m lies in that lattice exactly when, for every point
    x of m, the intersection of the generators that hold x lies inside m.
    Each mask takes the highest level whose cut holds it.
    """
    t = np.asarray(w.table)
    size = t.size
    masks = np.arange(size)
    out = np.zeros(size)
    unset = np.ones(size, dtype=bool)
    for q in sorted(set(w.table) | {1.0}, reverse=True):
        generators = np.concatenate([masks[t >= q], [0, size - 1]])
        inside = np.ones(size, dtype=bool)
        for x in range(w.n):
            least = np.bitwise_and.reduce(generators[(generators >> x) & 1 == 1])
            inside &= ((masks >> x) & 1 == 0) | ((least & ~masks) == 0)
        out[inside & unset] = q
        unset &= ~inside
    return out.tolist()


def check_complete(args, p) -> bool:
    (w,) = args
    return list(p.table) == least_completion(w)


def cut_of(p: WeightTable, q: float) -> frozenset[int]:
    return frozenset(int(m) for m in np.nonzero(np.asarray(p.table) >= q)[0])


def check_decompose(p: WeightTable):
    def check(args, chain: LevelChain) -> bool:
        values = sorted(set(p.table) - {0.0})
        return list(chain.levels) == values and all(
            t == cut_of(p, q) for q, t in zip(chain.levels, chain.topologies)
        )
    return check


def check_reconstruct(p: WeightTable):
    return lambda args, result: result.n == p.n and result.table == p.table


def check_level_cut(args, cut) -> bool:
    p, q = args
    return cut == cut_of(p, q) and topology_defect(p.n, cut) is None


def trace_table(p: WeightTable, y: int) -> list[float]:
    """The subspace table on y by brute force over every ambient subset."""
    best: dict[int, float] = {}
    for m, v in enumerate(p.table):
        best[m & y] = max(best.get(m & y, 0.0), v)
    points = [x for x in range(p.n) if y >> x & 1]
    out = [0.0] * (1 << len(points))
    for a, v in best.items():
        out[sum(1 << k for k, x in enumerate(points) if a >> x & 1)] = v
    return out


def check_subspace(args, s) -> bool:
    p, y = args
    return list(s.table) == trace_table(p, y)


def continuity_answer(f: PointMap, p: WeightTable, q: WeightTable) -> int | None:
    for a in range(1 << q.n):
        pre = sum(1 << x for x, y in enumerate(f.image) if a >> y & 1)
        if p.table[pre] < q.table[a]:
            return a
    return None


def check_continuity(args, witness) -> bool:
    return witness == continuity_answer(*args)


def check_disconnection(args, split) -> bool:
    p, q = args
    full = (1 << p.n) - 1
    found = next((a for a in range(1, full, 2) if min(p.table[a], p.table[full ^ a]) >= q), None)
    return split == (None if found is None else (found, full ^ found))


def check_threshold(args, m) -> bool:
    (p,) = args
    full = (1 << p.n) - 1
    return m == max(min(p.table[a], p.table[full ^ a]) for a in range(1, full, 2))


def check_qcover(args, defect) -> bool:
    p, cover, q = args
    union = 0
    for m in cover.members:
        union |= m
    if union != (1 << p.n) - 1:
        return defect is not None and defect.kind == "uncovered-point"
    low = sorted(m for m in cover.members if p.table[m] < q)
    return (defect is None) if not low else (defect.kind, defect.mask) == ("low-probability", low[0])


def greedy_cover_size(cover: Cover) -> int:
    full, covered, size = (1 << cover.n) - 1, 0, 0
    while covered != full:
        covered |= max(cover.members, key=lambda m: (m & ~covered).bit_count())
        size += 1
    return size


def check_min_subcover(args, sub) -> bool:
    (cover,) = args
    union = 0
    for m in sub.members:
        union |= m
    return (
        union == (1 << cover.n) - 1
        and set(sub.members) <= set(cover.members)
        and len(sub.members) <= greedy_cover_size(cover)
    )


def check_random_pspace(args, p) -> bool:
    n, k, _ = args
    return p.n == n and len(set(p.table)) <= k + 1 and is_valid(p)


# --- library workloads ----------------------------------------------------


def interleave(groups: list[list]) -> list:
    """The items of all groups, each group spread evenly over the cycle.

    Ops of one kind then meet the machine's load at every point of a run
    instead of in one stretch of it, so a percentile that falls among
    them does not hang on a few seconds' load.
    """
    keyed = [((j + 0.5) / len(g), i, item) for i, g in enumerate(groups) for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def distinct_levels(p: WeightTable) -> int:
    return len(set(p.table))


def setup_lib_complete(seed: int, work: Path, tiny: bool) -> Workload:
    """Invalid tables: sparse at n = 10-13, dense at n = 10, small ones for the family scan.

    Per cycle: the family scan on ten sparse n = 4 tables; verify and
    complete on 36 sparse tables at n = 10, twelve at 11, two at 12 and
    two dense ones at 10; verify alone on one sparse table at 13.  The
    counts place each percentile inside a group of like ops rather than
    on the edge between two groups: p90 falls among the twelve
    completions at 11 (seven slower ops lie above them) and p50 among
    the completions at 10.  The many tables per size average out how
    much each one's content costs (the completion's number of passes,
    the number of reports), so runs at different seeds compare, and the
    sizes are interleaved (:func:`interleave`).  Completion at 13 is left out for the same reason: one table's pass
    count moves the whole run.
    """
    rng = SplitMix64(seed)
    small, mid, large, top = (5, 6, 7, 8) if tiny else (10, 11, 12, 13)
    ops: list = []
    props: dict = {"listed_entries": []}
    for i in range(10):
        w = sparse_table(4, rng)
        ops.append(LibOp(f"exhaustive {i} n4", 4, "core.verify_exhaustive", (w,), check_exhaustive,
                         ("family_violations", len)))
        props["listed_entries"].append(listed(w))
    sizes = [small] * 36 + [mid] * 12 + [large] * 2
    sparse = [(f"sparse {i} n{n}", sparse_table(n, rng)) for i, n in enumerate(sizes)]
    dense = [(f"dense {i} n{small}", dense_table(small, rng)) for i in range(2)]
    groups = [[t for t in sparse if t[1].n == n] for n in (small, mid, large)] + [dense]
    for label, w in interleave(groups):
        ops.append(LibOp(f"verify {label}", w.n, "core.verify_pairwise", (w,), check_verify,
                         ("violations", len)))
        ops.append(LibOp(f"complete {label}", w.n, "core.complete", (w,), check_complete,
                         ("distinct_levels", distinct_levels)))
        props["listed_entries"].append(listed(w))
    w = sparse_table(top, rng)
    ops.append(LibOp(f"verify sparse n{top}", top, "core.verify_pairwise", (w,), check_verify,
                     ("violations", len)))
    props["listed_entries"].append(listed(w))
    return Workload("lib", ops, props)


def structure_ops(p: WeightTable, rng: SplitMix64, tag: str) -> list[LibOp]:
    n = p.n
    chain = decompose(p)
    q_mid = chain.levels[len(chain.levels) // 2]
    y = random_mask(n, (n + 1) // 2, rng)
    full = (1 << n) - 1
    threshold = max(min(p.table[a], p.table[full ^ a]) for a in range(1, full, 2))
    above = min((v for v in p.table if v > threshold), default=1.0)
    cover = Cover(n, small_cover(n, rng, n // 2, n))
    return [
        LibOp(f"decompose {tag}", n, "levels.decompose", (p,), check_decompose(p)),
        LibOp(f"level_cut {tag}", n, "levels.level_cut", (p, q_mid), check_level_cut),
        LibOp(f"reconstruct {tag}", n, "levels.reconstruct", (Ref(f"decompose {tag}"),), check_reconstruct(p)),
        LibOp(f"subspace {tag}", n, "maps.subspace", (p, y), check_subspace),
        LibOp(f"continuity-identity {tag}", n, "maps.continuity_witness", (identity_map(n), p, p),
              check_continuity),
        LibOp(f"continuity-inclusion {tag}", n, "maps.continuity_witness",
              (inclusion_map(y, n), Ref(f"subspace {tag}"), p), check_continuity),
        LibOp(f"continuity-random {tag}", n, "maps.continuity_witness", (random_map(n, n, rng), p, p),
              check_continuity),
        LibOp(f"disconnected {tag}", n, "covers.disconnection_witness", (p, threshold), check_disconnection),
        LibOp(f"connected {tag}", n, "covers.disconnection_witness", (p, above), check_disconnection),
        LibOp(f"threshold {tag}", n, "covers.connectivity_threshold", (p,), check_threshold),
        LibOp(f"qcover {tag}", n, "covers.qcover_witness", (p, cover, q_mid), check_qcover),
        LibOp(f"subspace-full {tag}", n, "maps.subspace", (p, full), check_subspace),
    ]


def setup_lib_structure(seed: int, work: Path, tiny: bool) -> Workload:
    """Many-level spaces (completions of sparse tables) and the calls on them.

    Per cycle: the structure calls on four spaces at n = 10, eight at 11
    and one at 12; two minimum subcovers of 33-40 small members on a
    20-point ground set; one generated space at each of 10, 11 and 12.
    The counts place p90 inside the eight full-mask subspaces at 11
    (the slow calls at 12 and the eight reconstructions at 11 lie above
    it), not on the edge between two kinds of call.  The many spaces per
    size average out how much each one's level chain costs, and the
    spaces' calls are interleaved by size (:func:`interleave`).  n = 13
    is left out: one completion there costs 2 s of set-up, and a single
    space's chain moves the whole run.
    """
    rng = SplitMix64(seed)
    small, mid, large = (5, 6, 7) if tiny else (10, 11, 12)
    props: dict = {"listed_entries": [], "distinct_levels": [], "cover_members": []}
    spaces: dict[int, list[list[LibOp]]] = {small: [], mid: [], large: []}
    for i, n in enumerate([small] * 4 + [mid] * 8 + [large]):
        w = sparse_table(n, rng)
        p = complete(w)
        spaces[n].append(structure_ops(p, rng, f"{i} n{n}"))
        props["listed_entries"].append(listed(w))
        props["distinct_levels"].append(distinct_levels(p))
    ground = 10 if tiny else 20
    subcovers = []
    for i in range(2):
        cover = Cover(ground, small_cover(ground, rng, 33, 40))
        subcovers.append([LibOp(f"min_subcover {i} n{ground}", ground, "covers.min_subcover", (cover,),
                                check_min_subcover)])
        props["cover_members"].append(len(cover.members))
    generated = [
        [LibOp(f"random_pspace n{n}", n, "generate.random_pspace", (n, LEVELS, rng.next64()),
               check_random_pspace, ("generated_levels", distinct_levels))]
        for n in (small, mid, large)
    ]
    blocks = interleave([*spaces.values(), subcovers, generated])
    return Workload("lib", [op for block in blocks for op in block], props)


SETUPS = {
    "cli-startup": setup_cli_startup,
    "cli-load-n12": setup_cli_load,
    "lib-complete": setup_lib_complete,
    "lib-structure": setup_lib_structure,
}


def library_function(func: str):
    """The library function an op names, looked up where it is defined."""
    module, name = func.split(".")
    return getattr(getattr(ptop, module), name)
