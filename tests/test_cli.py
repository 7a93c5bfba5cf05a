from itertools import combinations

import pytest

from ptop import build, serialize_pspace
from ptop.cli import main

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


def test_validate_exhaustive_golden(files, capsys):
    code, out, _ = run(capsys, "validate", files["bad"], "--exhaustive")
    assert code == 1
    assert out == (
        "union family 1,2 required 0.7 actual 0.2\n"
        "union family 0,1,2 required 0.7 actual 0.2\n"
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


def test_generate_rejects_zero_levels(files, capsys):
    path = files["dir"] / "g.ptop"
    code, out, err = run(
        capsys, "generate", "--n", "4", "--levels", "0", "--seed", "1", "-o", str(path)
    )
    assert (code, out, err) == (2, "", "error: level count must be at least 1, got 0\n")
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


def test_env_cap_override(files, capsys, monkeypatch):
    monkeypatch.setenv("PTOP_MAX_N", "1")
    code, _, err = run(capsys, "validate", files["p1"])
    assert code == 2 and "exceeds cap" in err
    monkeypatch.setenv("PTOP_MAX_N", "99")  # only lowers, never raises
    code, _, _ = run(capsys, "validate", files["p1"])
    assert code == 0
    monkeypatch.setenv("PTOP_MAX_N", "junk")
    code, _, err = run(capsys, "validate", files["p1"])
    assert code == 2
