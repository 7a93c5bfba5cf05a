import hashlib
import math

import pytest

from ptop import (
    CapExceeded,
    MaskOutOfRange,
    PtopError,
    SplitMix64,
    complete,
    decompose,
    parse_pspace,
    reconstruct,
    random_pspace,
    serialize_pspace,
    topology_closure,
    verify_exhaustive,
    verify_pairwise,
)
from ptop.cli import main
import ptop.core
from oracles import brute_closure, is_classical_topology, rng_for


def test_splitmix64_known_answer():
    # Reference stream for seed 0 from the original splitmix64.c.
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_derived_draws():
    rng = SplitMix64(42)
    u = rng.unit()
    assert 0.0 <= u < 1.0
    assert SplitMix64(42).unit() == u
    assert SplitMix64(7).below(10) == SplitMix64(7).next64() % 10


def test_a_scaled_unit_draw_stays_below_its_level():
    # random_pspace scales its base draw by the least level with no guard:
    # the largest unit() is below 1, and under round-to-nearest its product
    # with any level in [2**-53, 1] (every one a normal float) stays below
    # that level.  Rounding is monotone in u, so the largest u covers them all.
    top = ((2**64 - 1) >> 11) * 2**-53
    assert top < 1.0
    powers = [2.0**-e for e in range(54)]
    levels = powers + [math.nextafter(q, 0.0) for q in powers] + [math.nextafter(q, 1.0) for q in powers]
    rng = rng_for(3101)
    levels += [(1 + rng.below(2**53)) * 2**-53 for _ in range(100_000)]
    levels = [q for q in levels if 2**-53 <= q <= 1.0]
    assert len(levels) > 100_000
    assert all(top * q < q for q in levels)


def test_topology_closure():
    assert topology_closure(2, []) == {0b00, 0b11}
    closed = topology_closure(3, [0b011, 0b110])
    assert closed == {0b000, 0b011, 0b110, 0b111, 0b010}
    assert is_classical_topology(3, closed)


def test_topology_closure_matches_brute_fixpoint():
    rng = rng_for(707)
    for n in range(9):
        for _ in range(60 if n < 6 else 15 if n < 8 else 8):
            seeds = [rng.below(1 << n) for _ in range(rng.below(n + 3))]
            assert topology_closure(n, seeds) == brute_closure(n, seeds)
    # Seed lists holding the empty set, the full set or repeated masks.
    for n in range(9):
        seeds = [rng.below(1 << n) for _ in range(1 + rng.below(n + 2))]
        for extra in ([0], [(1 << n) - 1], seeds[:2], [0, (1 << n) - 1, 0]):
            assert topology_closure(n, seeds + extra) == brute_closure(n, seeds + extra)


@pytest.mark.parametrize("seed", [4, 5, -1, -4])
def test_topology_closure_rejects_out_of_range_seeds(seed):
    with pytest.raises(MaskOutOfRange) as err:
        topology_closure(2, [0b01, seed])
    assert isinstance(err.value, PtopError)


def test_random_pspace_examples():
    out = random_pspace(4, 3, 42)
    assert verify_pairwise(out) == []
    assert random_pspace(0, 1, 999).table == (1.0,)
    assert random_pspace(4, 3, 42).table == out.table  # determinism


def test_random_pspace_level_cuts_are_topologies():
    # Each cut is the intersection of the closures of random subbases.
    rng = SplitMix64(13)
    for _ in range(50):
        chain = decompose(random_pspace(4, 1 + rng.below(4), rng.next64()))
        assert all(is_classical_topology(4, cut) for cut in chain.topologies)


def test_random_pspace_argument_checks():
    # Generation has no cap of its own: only the ground-size cap bounds it.
    with pytest.raises(CapExceeded):
        random_pspace(21, 1, 0)
    with pytest.raises(ValueError):
        random_pspace(3, 0, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_pspace_at_n16_is_valid_and_round_trips(seed):
    # Validity is decided at any n, so verify_pairwise answers at n = 16 too;
    # complete(p) == p says the same through the completion.
    p = random_pspace(16, 6, seed)
    assert verify_pairwise(p) == []
    assert complete(p).table == p.table
    assert reconstruct(decompose(p)) == p


def test_cli_generate_at_n16_parses_back(tmp_path, capsys):
    out = tmp_path / "g16.ptop"
    assert main(["generate", "--n", "16", "--levels", "6", "--seed", "5", "-o", str(out)]) == 0
    assert parse_pspace(out.read_text(encoding="utf-8")).table == random_pspace(16, 6, 5).table
    # Loading validates, which decides validity at any n, so other subcommands
    # accept the file too.
    assert main(["validate", str(out)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["levels", str(out)]) == 0


def test_generator_soundness_many_seeds():
    # Invariant batch: every seeded output verifies; family scan when it fits.
    for seed in range(1000):
        n = seed % 9
        k = 1 + seed % 4
        p = random_pspace(n, k, seed)
        assert not verify_pairwise(p)
        if n <= 4:
            assert not verify_exhaustive(p)


def test_generator_document_determinism():
    docs1 = [serialize_pspace(random_pspace(3 + s % 4, 1 + s % 3, s)) for s in range(50)]
    docs2 = [serialize_pspace(random_pspace(3 + s % 4, 1 + s % 3, s)) for s in range(50)]
    assert docs1 == docs2


# SHA-256 of the concatenated documents below, taken from the frontier-closure
# generator; pins the SplitMix64 draw order and the output bytes.
GENERATOR_GRID_SHA256 = "39c389e57b862cb0fbaf060453007d476693bc0295a6ce6cf55e63ca8d49adcf"


def test_generator_output_bytes_are_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        n = seed % 13
        k = 1 + seed % 7
        digest.update(serialize_pspace(random_pspace(n, k, seed)).encode())
    assert digest.hexdigest() == GENERATOR_GRID_SHA256


# SHA-256 over random_pspace tables and their decompose levels, cuts and
# bases and reconstruct tables, n <= 12 and k in {1, 2, 6, 9}, taken from the
# generator that built frozensets and the decomposition that cut the table
# one level at a time; pins both bit for bit, signed zeros included.
CHAIN_GRID_SHA256 = "c202a0f03accb0011f46641173b69ae7d6b1bd05a9595ad2f77e465b3902fea7"


@pytest.mark.parametrize("fold_cells", [ptop.core._BLOCK_CELLS, 1 << 6], ids=["default", "64"])
def test_generated_chains_are_pinned(monkeypatch, fold_cells):
    # At 64 cells per block, chains from n = 6 up close one row at a time,
    # and longer chains below that in several blocks.
    monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", fold_cells)
    digest = hashlib.sha256()
    for n in range(13):
        for k in (1, 2, 6, 9):
            for seed in (0, 1, 2, 17, 2**40 + 3, 2**64 - 1):
                p = random_pspace(n, k, seed)
                chain = decompose(p)
                back = reconstruct(chain)
                digest.update(repr((p.table, chain.levels, [sorted(t) for t in chain.topologies],
                                    chain.base, back.table)).encode())
    assert digest.hexdigest() == CHAIN_GRID_SHA256
