"""Brute-force oracles: small, slow, and independent of the library's scan paths.

Every oracle here recomputes its answer from the definitions with plain
loops (no numpy, no shared helpers from the package beyond data types),
so agreement with the library is meaningful.  The one hypothesis
strategy here, :func:`many_level_spaces`, builds its spaces with these
oracles as well.
"""

from itertools import combinations

from hypothesis import strategies as st

from ptop import SplitMix64, WeightTable


def rng_for(*parts: int) -> SplitMix64:
    """Deterministic per-case generator derived from test identifiers."""
    rng = SplitMix64(0xA5A5_0000)
    for part in parts:
        rng.state = (rng.state * 0x100000001B3 + part + 1) & ((1 << 64) - 1)
    return rng


def random_weight_table(n: int, rng: SplitMix64, palette) -> WeightTable:
    """Arbitrary (usually invalid) table with entries drawn from a palette."""
    values = [palette[rng.below(len(palette))] for _ in range(1 << n)]
    return WeightTable(n, tuple(values))


def brute_pairwise(table, n):
    """All pair-scan violations as (kind, a, b, required, actual) tuples,
    in the documented report order, computed with plain loops.  A pair with
    a NaN part is never reported: its required minimum is NaN."""
    size = 1 << n
    out = []
    for mask in range(size):
        v = table[mask]
        if not 0.0 <= v <= 1.0:
            if v < 0.0:
                out.append(("range", mask, None, 0.0, v))
            elif v > 1.0:
                out.append(("range", mask, None, v, 1.0))
            else:
                out.append(("range", mask, None, 1.0, v))
    for mask in sorted({0, size - 1}):
        if not table[mask] >= 1.0:
            out.append(("boundary", mask, None, 1.0, table[mask]))
    for kind in ("union", "intersection"):
        for a in range(size):
            for b in range(a, size):
                if table[a] != table[a] or table[b] != table[b]:
                    continue
                req = min(table[a], table[b])
                target = a | b if kind == "union" else a & b
                if table[target] < req:
                    out.append((kind, a, b, req, table[target]))
    return out


def brute_complete(table, n):
    """Least valid table above ``table``: boundary raised to 1, then the pair
    rules t[A|B], t[A&B] >= min(t[A], t[B]) applied until nothing moves."""
    size = 1 << n
    t = list(table)
    t[0] = t[size - 1] = 1.0
    changed = True
    while changed:
        changed = False
        for a in range(size):
            for b in range(size):
                req = min(t[a], t[b])
                for target in (a | b, a & b):
                    if t[target] < req:
                        t[target] = req
                        changed = True
    return t


def brute_separation(table, n):
    """The separation matrix by plain loops: entry [x][y] is the max of the
    table over the subsets holding x but not y; None on the diagonal, where
    there is no such subset."""
    sep = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y:
                sep[x][y] = max(
                    table[mask] for mask in range(1 << n) if mask >> x & 1 and not mask >> y & 1
                )
    return sep


def brute_recon(sep, n):
    """The table S -> min of sep[x][y] over x in S, y not in S (1 when there
    is no such pair, i.e. on the empty and full sets)."""
    out = []
    for mask in range(1 << n):
        low = 1.0
        for x in range(n):
            for y in range(n):
                if mask >> x & 1 and not mask >> y & 1:
                    low = min(low, sep[x][y])
        out.append(low)
    return out


PALETTE_LEVELS = tuple(k / 10 for k in range(11))


@st.composite
def many_level_spaces(draw, max_n=5):
    """A valid space with many distinct values, as brute_recon of a random
    separation matrix drawn from an 11-level palette."""
    n = draw(st.integers(0, max_n))
    level = st.sampled_from(PALETTE_LEVELS)
    sep = [[draw(level) for _ in range(n)] for _ in range(n)]
    return WeightTable(n, tuple(brute_recon(sep, n)))


def brute_families(table, n):
    """All family-scan violations as (kind, members, required, actual),
    by direct enumeration of every family of subsets."""
    size = 1 << n
    out = []
    for mask in range(size):
        v = table[mask]
        if not 0.0 <= v <= 1.0:
            if v < 0.0:
                out.append(("range", (mask,), 0.0, v))
            elif v > 1.0:
                out.append(("range", (mask,), v, 1.0))
            else:
                out.append(("range", (mask,), 1.0, v))
    families = []
    for fam in range(1 << size):
        members = tuple(m for m in range(size) if fam >> m & 1)
        union = 0
        inter = size - 1
        low = 1.0
        for m in members:
            union |= m
            inter &= m
            low = min(low, table[m])
        families.append((members, union, inter, low))
    for kind in ("union", "intersection"):
        for members, union, inter, low in families:
            target = union if kind == "union" else inter
            if table[target] < low:
                out.append((kind, members, low, table[target]))
    return out


def is_classical_topology(n: int, members) -> bool:
    s = set(members)
    if 0 not in s or (1 << n) - 1 not in s:
        return False
    return all((a | b) in s and (a & b) in s for a in s for b in s)


def brute_topology_defect(n: int, members):
    """The defect of a family by plain loops: a missing empty or full set,
    else the first pair (a, b) of sorted members, in lexicographic order,
    whose union escapes the family, else likewise for intersections, else
    None."""
    s = set(members)
    if 0 not in s:
        return ("missing-empty",)
    if (1 << n) - 1 not in s:
        return ("missing-full",)
    ordered = sorted(s)
    for kind in ("union", "intersection"):
        for a in ordered:
            for b in ordered:
                if (a | b if kind == "union" else a & b) not in s:
                    return (kind, a, b)
    return None


def brute_closure(n: int, seeds):
    """Smallest family holding the empty set, the full set and ``seeds`` that
    is closed under pairwise union and intersection, by plain fixpoint."""
    family = {0, (1 << n) - 1, *seeds}
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        changed = True
    return family


def all_topologies(n: int):
    """Every classical topology on n labeled points, by raw enumeration."""
    size = 1 << n
    found = []
    for fam in range(1 << size):
        members = frozenset(m for m in range(size) if fam >> m & 1)
        if is_classical_topology(n, members):
            found.append(members)
    return found


def brute_subspace_prob(table, n, y, a):
    """Maximum of the table over all ambient subsets cutting down to ``a``."""
    return max(table[b] for b in range(1 << n) if b & y == a)


def classically_continuous(image, opens_dom, opens_cod) -> bool:
    for a in opens_cod:
        pre = 0
        for x, fx in enumerate(image):
            if a >> fx & 1:
                pre |= 1 << x
        if pre not in opens_dom:
            return False
    return True


def brute_continuity_witness(image, dom_table, cod_table, cod_n):
    """The smallest codomain mask valued above its preimage, or None; each
    preimage is built bit by bit from the point images."""
    for a in range(1 << cod_n):
        pre = 0
        for x, fx in enumerate(image):
            if a >> fx & 1:
                pre |= 1 << x
        if dom_table[pre] < cod_table[a]:
            return a
    return None


def brute_min_cover_indices(members, n):
    """Smallest covering index tuple, lexicographically first among ties."""
    full = (1 << n) - 1
    for size in range(len(members) + 1):
        for picks in combinations(range(len(members)), size):
            union = 0
            for i in picks:
                union |= members[i]
            if union == full:
                return picks
    return None


def brute_disconnected(table, n, q) -> bool:
    full = (1 << n) - 1
    return any(
        table[a] >= q and table[full ^ a] >= q
        for a in range(1, full)
        if a != 0 and (full ^ a) != 0
    )


def brute_threshold(table, n):
    full = (1 << n) - 1
    best = None
    for a in range(1, full):
        m = min(table[a], table[full ^ a])
        if best is None or m > best:
            best = m
    return best
