import hashlib
from itertools import combinations

import pytest

import ptop.core
from ptop import WeightTable, build, complete, format_probability, random_pspace, serialize_pspace, verify_pairwise
from ptop.cli import _pair_line, main

from oracles import rng_for

P1_DOC = "ptop 1\nn 2\n1 0.5\n2 0.3\n"
BAD_DOC = "ptop 1\nn 3\n1 0.8\n2 0.7\n3 0.2\n"
ID_PMAP = "pmap 1\ndom 2\ncod 2\n0 0\n1 1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("p1", P1_DOC), ("bad", BAD_DOC)):
        path = tmp_path / f"{name}.ptop"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    pmap = tmp_path / "id.pmap"
    pmap.write_text(ID_PMAP, encoding="utf-8")
    paths["id"] = str(pmap)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["p1"])
    assert (code, out) == (0, "ok\n")


def test_validate_reports_golden(files, capsys):
    code, out, _ = run(capsys, "validate", files["bad"])
    assert code == 1
    assert out == "union 1 2 required 0.7 actual 0.2\n"
    again_code, again_out, _ = run(capsys, "validate", files["bad"])
    assert (again_code, again_out) == (code, out)


def identity_tables():
    """Seeded invalid tables, each with a short label."""
    rng = rng_for(2601)
    for n, count in ((8, 40), (12, 300)):
        entries = {rng.below(1 << n): rng.unit() for _ in range(count)}
        yield f"sparse n={n}", build(n, entries.items())
    yield "dense n=10", build(10, [(m, rng.unit()) for m in range(1, 1023)])
    low = complete(build(9, [(rng.below(1 << 9), rng.unit() / 2) for _ in range(30)]))
    yield "boundary only", WeightTable(9, (0.5, *low.table[1:]))


def test_validate_streams_what_verify_pairwise_lists(files, capsys):
    # The streamed listing is the library's listing, line for line: same
    # order, same texts, with each distinct value formatted once.
    for label, w in identity_tables():
        path = files["dir"] / "w.ptop"
        path.write_text(serialize_pspace(w), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        reports = verify_pairwise(w)
        expected = "\n".join(_pair_line(r) for r in reports) + "\n"
        assert reports and (code, err) == (1, ""), label
        assert hashlib.sha256(out.encode()).hexdigest() == hashlib.sha256(expected.encode()).hexdigest(), label
        if label == "boundary only":
            assert {r.kind for r in reports} == {"boundary"}


def above_the_cap(n, dense):
    """An invalid table with more than 2^13 candidate masks: masks 5 and 6 at
    0.9999 and their union 7 at 0, in a random space (dense) or among the
    2^13 masks holding point 13 and no point above it, at 0.5 (sparse)."""
    if dense:
        table = list(random_pspace(n, 8, 3).table)
    else:
        table = [0.0] * (1 << n)
        table[1 << 13 : 1 << 14] = [0.5] * (1 << 13)
        table[0] = table[-1] = 1.0
    table[5] = table[6] = 0.9999
    table[7] = 0.0
    return WeightTable(n, tuple(table))


def assert_one_real_violation(w, out):
    kind, a, b, _, required, _, actual = out.split()
    a, b = int(a), int(b)
    target = a | b if kind == "union" else a & b
    low = min(w.table[a], w.table[b])
    assert w.table[target] < low
    assert (required, actual) == (format_probability(low), format_probability(w.table[target]))


@pytest.mark.parametrize("n", [14, 20])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_validate_gives_a_verdict_above_the_listing_cap(files, capsys, n, dense):
    w = above_the_cap(n, dense)
    path = files["dir"] / "w.ptop"
    path.write_text(serialize_pspace(w), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    least = min(w.table)
    cand = sum(v > least for v in w.table)
    assert code == 1 and out.count("\n") == 1
    assert_one_real_violation(w, out)
    assert err == (
        f"note: listing the violations of {cand} candidate masks is capped at 2^13; one violation is shown\n"
    )
    if n == 14:  # the family scan stays refused above n = 4
        assert run(capsys, "validate", str(path), "--exhaustive") == (
            2, "", "error: family scan capped at n = 4, got 14\n"
        )
        if dense:
            assert out == "union 5 6 required 0.9999 actual 0\n"


def test_a_capped_listing_never_prints_half_way(files, capsys, monkeypatch):
    # Both boundary lines come before any pair in a listing; above the cap
    # only the first one is printed, and no pair block is ever started.
    def refuse(*args):
        raise AssertionError("a capped listing started its pair blocks")

    monkeypatch.setattr(ptop.core, "_pair_reports", refuse)
    table = list(above_the_cap(14, dense=False).table)
    table[0] = table[-1] = 0.5
    path = files["dir"] / "w.ptop"
    path.write_text(serialize_pspace(WeightTable(14, tuple(table))), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "boundary 0 required 1 actual 0.5\n")
    assert err.startswith("note: listing the violations of ")


@pytest.fixture
def counted(monkeypatch):
    """Counts of the calls to core's validity decision and to its cut defect."""
    calls = {"_separation": 0, "_mask_defect": 0}
    for name in calls:
        def count(*args, name=name, inner=getattr(ptop.core, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(ptop.core, name, count)
    return calls


CAPPED_NOTE = "note: listing the violations of 16383 candidate masks is capped at 2^13; one violation is shown\n"


@pytest.mark.parametrize(
    "make, code, lines, digest, err, defects",
    [
        (lambda: random_pspace(14, 8, 3), 0, 1, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22", "", 0),
        # at n = 10 the spike of above_the_cap is under the listing cap
        (lambda: above_the_cap(10, dense=True), 1, 1179, "bdc89861fc10d5c9d3f32179f041530726311494080aac077eb2837f2f220cec", "", 0),
        (lambda: above_the_cap(14, dense=True), 1, 1, "d6fcc69abbbe76adb5aed6d91a8435d6e7e0c3e857e7e33a55495dc775cdc180", CAPPED_NOTE, 1),
    ],
    ids=["valid", "listed", "capped"],
)
def test_validate_decides_validity_once(files, capsys, counted, make, code, lines, digest, err, defects):
    # One O(n 2^n) decision per run: the listing and, above the cap, the one
    # violation shown both come from it.  Only that violation needs a cut's
    # defect, so a listed table never names one.
    path = files["dir"] / "w.ptop"
    path.write_text(serialize_pspace(make()), encoding="utf-8")
    counted.update(_separation=0, _mask_defect=0)
    got, out, got_err = run(capsys, "validate", str(path))
    assert (got, out.count("\n"), got_err) == (code, lines, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert counted == {"_separation": 1, "_mask_defect": defects}


def test_verify_pairwise_names_no_cut_defect(counted):
    listed = above_the_cap(10, dense=True)
    counted.update(_separation=0, _mask_defect=0)
    assert len(verify_pairwise(listed)) == 1179
    assert counted == {"_separation": 1, "_mask_defect": 0}


def test_validate_exhaustive_golden(files, capsys):
    code, out, _ = run(capsys, "validate", files["bad"], "--exhaustive")
    assert code == 1
    assert out == (
        "union family 1,2 required 0.7 actual 0.2\n"
        "union family 0,1,2 required 0.7 actual 0.2\n"
    )


def test_validate_exhaustive_refuses_a_value_out_of_range(files, capsys):
    # The reader refuses values outside [0, 1], so the family scan never
    # sees a range violation.
    path = files["dir"] / "high.ptop"
    path.write_text("ptop 1\nn 2\n1 1.5\n", encoding="utf-8")
    assert run(capsys, "validate", str(path), "--exhaustive") == (
        2, "", "error: value 1.5 for mask 1 not in [0, 1]\n"
    )


def test_validate_missing_file(files, capsys):
    code, _, err = run(capsys, "validate", str(files["dir"] / "nope.ptop"))
    assert code == 2 and "error:" in err


def test_validate_bad_document(files, capsys):
    path = files["dir"] / "junk.ptop"
    path.write_text("not a document\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "error:" in err


def test_validate_size_that_int_refuses_is_a_parse_error(files, capsys):
    # '²' passes str.isdigit, but int() refuses it.
    path = files["dir"] / "superscript.ptop"
    path.write_text("ptop 1\nn ²\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", "error: line 2: expected 'n <ground size>'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "{bytes}"),
        ("complete", "{bytes}", "-o", "{dir}/out.ptop"),
        ("continuity", "--map", "{bytes}", "--dom", "{p1}", "--cod", "{p1}"),
    ],
)
def test_a_file_that_is_not_utf8_is_an_input_error(files, capsys, argv):
    path = files["dir"] / "latin1.ptop"
    path.write_bytes(b"ptop 1\nn 1\n# caf\xe9 \xff\n")
    code, out, err = run(capsys, *(a.format(bytes=path, dir=files["dir"], p1=files["p1"]) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9") and err.count("\n") == 1
    assert not (files["dir"] / "out.ptop").exists()


def test_complete_writes_fixed_document(files, capsys):
    out_path = files["dir"] / "fixed.ptop"
    code, _, _ = run(capsys, "complete", files["bad"], "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == "ptop 1\nn 3\n1 0.8\n2 0.7\n3 0.7\n"


def test_subspace_command(files, capsys):
    out_path = files["dir"] / "sub.ptop"
    code, _, _ = run(capsys, "subspace", files["p1"], "--subset", "0b01", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == "ptop 1\nn 1\n"


def test_subspace_rejects_invalid_space(files, capsys):
    out_path = files["dir"] / "sub.ptop"
    code, _, err = run(capsys, "subspace", files["bad"], "--subset", "1", "-o", str(out_path))
    assert code == 2 and "error:" in err


def test_continuity_command(files, capsys):
    code, out, _ = run(
        capsys, "continuity", "--map", files["id"], "--dom", files["p1"], "--cod", files["p1"]
    )
    assert (code, out) == (0, "continuous\n")


def test_continuity_witness(files, capsys):
    indiscrete = files["dir"] / "ind.ptop"
    indiscrete.write_text("ptop 1\nn 2\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "continuity", "--map", files["id"], "--dom", str(indiscrete), "--cod", files["p1"]
    )
    assert (code, out) == (1, "witness 1\n")


def test_levels_command(files, capsys):
    code, out, _ = run(capsys, "levels", files["p1"])
    assert code == 0
    assert out == "0.3 4 0 1 2 3\n0.5 3 0 1 3\n1 2 0 3\n"


def test_connectivity_threshold(files, capsys):
    code, out, _ = run(capsys, "connectivity", files["p1"])
    assert (code, out) == (0, "threshold 0.3\n")


def test_connectivity_always_connected(files, capsys):
    single = files["dir"] / "one.ptop"
    single.write_text("ptop 1\nn 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "connectivity", str(single))
    assert (code, out) == (0, "always-connected\n")


def test_connectivity_at_q(files, capsys):
    code, out, _ = run(capsys, "connectivity", files["p1"], "--q", "0.3")
    assert (code, out) == (1, "disconnected 1 2\n")
    code, out, _ = run(capsys, "connectivity", files["p1"], "--q", "0.31")
    assert (code, out) == (0, "connected\n")
    code, _, err = run(capsys, "connectivity", files["p1"], "--q", "1.5")
    assert (code, err) == (2, "error: threshold 1.5 not in [0, 1]\n")
    # --q reads probabilities as PTOP files do, so float()'s digit separators are refused.
    code, out, err = run(capsys, "connectivity", files["p1"], "--q", "0.2_5")
    assert (code, out, err) == (2, "", "error: bad threshold '0.2_5'\n")


def test_cover_command(files, capsys):
    code, out, _ = run(capsys, "cover", files["p1"], "--q", "0.3", "--members", "1,2")
    assert (code, out) == (0, "ok\n")
    code, out, _ = run(capsys, "cover", files["p1"], "--q", "0.4", "--members", "1,2")
    assert (code, out) == (1, "low-probability 2\n")
    code, out, _ = run(capsys, "cover", files["p1"], "--q", "0", "--members", "1")
    assert (code, out) == (1, "not-covering 1\n")
    code, out, _ = run(
        capsys, "cover", files["p1"], "--q", "0.3", "--members", "1,2,3", "--minimal"
    )
    assert (code, out) == (0, "ok\nminimal 3\n")


def test_cover_minimal_on_a_long_member_list(files, capsys):
    # 1,502 members on 20 points whose minimum subcover has 2 members.
    path = files["dir"] / "indiscrete20.ptop"
    path.write_text(serialize_pspace(build(20, [])), encoding="utf-8")
    fours = [sum(1 << x for x in c) for c in combinations(range(19), 4)][:1500]
    members = ",".join(map(str, [(1 << 19) - 1, *fours, 1 << 19]))
    code, out, _ = run(capsys, "cover", str(path), "--q", "0", "--members", members, "--minimal")
    assert (code, out) == (0, "ok\nminimal 524287,524288\n")


def test_generate_command_deterministic(files, capsys):
    out1 = files["dir"] / "g1.ptop"
    out2 = files["dir"] / "g2.ptop"
    for path in (out1, out2):
        code, _, _ = run(
            capsys, "generate", "--n", "4", "--levels", "3", "--seed", "42", "-o", str(path)
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    code, out, _ = run(capsys, "validate", str(out1))
    assert (code, out) == (0, "ok\n")


def test_generate_rejects_bad_seed(files, capsys):
    code, _, err = run(
        capsys, "generate", "--n", "2", "--levels", "1", "--seed", str(1 << 64),
        "-o", str(files["dir"] / "g.ptop"),
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    ("n", "levels", "message"),
    [
        ("4", "0", "level count must be at least 1, got 0"),
        ("21", "1", "ground size 21 exceeds cap 20"),  # N_MAX, the one ground-size cap
    ],
)
def test_generate_refusals_exit_2_and_write_nothing(files, capsys, n, levels, message):
    path = files["dir"] / "g.ptop"
    code, out, err = run(
        capsys, "generate", "--n", n, "--levels", levels, "--seed", "1", "-o", str(path)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("subspace", "{p1}", "--subset", "ten", "-o", "{dir}/s.ptop"),
        ("cover", "{p1}", "--q", "0.5", "--members", "1,ten"),
    ],
)
def test_bad_mask_literals_exit_2(files, capsys, argv):
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out, err) == (2, "", "error: bad mask literal 'ten'\n")


def test_environment_does_not_set_the_cap(files, capsys, monkeypatch):
    # The ground-size cap is the constant N_MAX: the library reads no
    # environment variable, so a PTOP_MAX_N in the caller's shell changes nothing.
    for value in ("1", "99", "junk"):
        monkeypatch.setenv("PTOP_MAX_N", value)
        assert run(capsys, "validate", files["p1"]) == (0, "ok\n", "")
