import hashlib

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
    random_topology,
    serialize_pspace,
    topology_closure,
    verify_exhaustive,
    verify_pairwise,
)
from ptop.cli import main
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


def test_topology_closure():
    assert topology_closure(2, []) == {0b00, 0b11}
    closed = topology_closure(3, [0b011, 0b110])
    assert closed == {0b000, 0b011, 0b110, 0b111, 0b010}
    assert is_classical_topology(3, closed)


def test_topology_closure_matches_brute_fixpoint():
    rng = rng_for(707)
    for n in range(7):
        for _ in range(60 if n < 6 else 15):
            seeds = [rng.below(1 << n) for _ in range(rng.below(n + 3))]
            assert topology_closure(n, seeds) == brute_closure(n, seeds)


@pytest.mark.parametrize("seed", [4, 5, -1, -4])
def test_topology_closure_rejects_out_of_range_seeds(seed):
    with pytest.raises(MaskOutOfRange) as err:
        topology_closure(2, [0b01, seed])
    assert isinstance(err.value, PtopError)


def test_random_topology_is_topology():
    rng = SplitMix64(13)
    for _ in range(50):
        assert is_classical_topology(4, random_topology(4, rng))


def test_random_pspace_examples():
    out = random_pspace(4, 3, 42)
    assert verify_pairwise(out) == []
    assert random_pspace(0, 1, 999).table == (1.0,)
    assert random_pspace(4, 3, 42).table == out.table  # determinism


def test_random_pspace_argument_checks(monkeypatch):
    # Generation has no cap of its own: only the ground-size cap bounds it.
    with pytest.raises(CapExceeded):
        random_pspace(21, 1, 0)
    monkeypatch.setenv("PTOP_MAX_N", "5")
    with pytest.raises(CapExceeded):
        random_pspace(6, 1, 0)
    assert random_pspace(5, 1, 0).n == 5
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
