"""Command-line front end.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a checked property fails (a witness goes to stdout), 2 on input
errors.  All output is UTF-8 on stdout, suitable for golden-file tests.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .core import (
    FamilyViolation,
    ViolationReport,
    _scan,
    as_pspace,
    complete,
    verify_exhaustive,
    verify_pairwise,  # noqa: F401
)
from .covers import Cover, connectivity_threshold, disconnection_witness, min_subcover, qcover_witness
from .errors import CapExceeded, InvalidArgument, ProbabilityOutOfRange, PtopError
from .fileio import (
    _formatted,
    _parse_probability_token,
    format_probability,
    parse_mask_token,
    parse_pmap,
    parse_pspace,
    serialize_pspace,
)
from .generate import random_pspace
from .levels import decompose
from .maps import continuity_witness, subspace
from .masks import _name, check_probability


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_space(path: str):
    return as_pspace(parse_pspace(_read(path)))


def _values(v: ViolationReport | FamilyViolation) -> str:
    return f"required {format_probability(v.required)} actual {format_probability(v.actual)}"


def _pair_line(r: ViolationReport) -> str:
    head = f"{r.kind} {r.witness_a}"
    if r.witness_b is not None:
        head += f" {r.witness_b}"
    return f"{head} {_values(r)}"


def _family_line(v: FamilyViolation) -> str:
    members = ",".join(str(m) for m in v.members) or "-"
    return f"{v.kind} family {members} {_values(v)}"


def _parse_threshold(text: str) -> float:
    try:
        q = _parse_probability_token(text)
    except InvalidArgument:
        raise ProbabilityOutOfRange(f"bad threshold {_name(text)}") from None
    check_probability(q, "threshold")
    return q


def cmd_validate(args) -> int:
    """Print the violations of :func:`_scan`, or "ok": pair lines stream per block, one format per distinct value.

    Above the listing cap the violation carried by :class:`CapExceeded` is printed, with a note on stderr.
    """
    w = parse_pspace(_read(args.file))
    if args.exhaustive:
        lines = [_family_line(v) for v in verify_exhaustive(w)]
        print("\n".join(lines) if lines else "ok")
        return 1 if lines else 0
    try:
        units, cand, blocks = _scan(w)
    except CapExceeded as exc:
        print(f"note: {exc}; one violation is shown", file=sys.stderr)
        print(_pair_line(exc.violation))
        return 1
    sys.stdout.write("".join(_pair_line(r) + "\n" for r in units))
    texts = None
    for kind, a, b, low, target in blocks:
        if a.size:
            texts = texts or _formatted(w._array())
            rows = zip(cand[a].tolist(), cand[b].tolist(), cand[low].tolist(), target.tolist())
            sys.stdout.write("".join(f"{kind} {x} {y} required {texts[r]} actual {texts[v]}\n" for x, y, r, v in rows))
    if units or texts:
        return 1
    print("ok")
    return 0


def cmd_complete(args) -> int:
    _write(args.output, serialize_pspace(complete(parse_pspace(_read(args.file)))))
    return 0


def cmd_subspace(args) -> int:
    p = _load_space(args.file)
    _write(args.output, serialize_pspace(subspace(p, parse_mask_token(args.subset))))
    return 0


def cmd_continuity(args) -> int:
    f = parse_pmap(_read(args.map))
    dom = _load_space(args.dom)
    cod = _load_space(args.cod)
    witness = continuity_witness(f, dom, cod)
    if witness is None:
        print("continuous")
        return 0
    print(f"witness {witness}")
    return 1


def cmd_levels(args) -> int:
    chain = decompose(_load_space(args.file))
    for q, topo in zip(chain.levels, chain.topologies):
        masks = " ".join(str(m) for m in sorted(topo))
        print(f"{format_probability(q)} {len(topo)} {masks}".rstrip())
    return 0


def cmd_connectivity(args) -> int:
    p = _load_space(args.file)
    if args.q is None:
        m = connectivity_threshold(p)
        print("always-connected" if math.isinf(m) else f"threshold {format_probability(m)}")
        return 0
    witness = disconnection_witness(p, _parse_threshold(args.q))
    if witness is None:
        print("connected")
        return 0
    print(f"disconnected {witness[0]} {witness[1]}")
    return 1


def cmd_cover(args) -> int:
    p = _load_space(args.file)
    q = _parse_threshold(args.q)
    tokens = [t for t in args.members.split(",") if t]
    cover = Cover(p.n, tuple(parse_mask_token(t) for t in tokens))
    defect = qcover_witness(p, cover, q)
    if defect is None:
        print("ok")
    elif defect.kind == "uncovered-point":
        print(f"not-covering {defect.point}")
    else:
        print(f"low-probability {defect.mask}")
    if args.minimal and (defect is None or defect.kind != "uncovered-point"):
        sub = min_subcover(cover)
        print("minimal " + ",".join(str(m) for m in sub.members))
    return 0 if defect is None else 1


def cmd_generate(args) -> int:
    if not 0 <= args.seed < 1 << 64:
        raise PtopError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
    _write(args.output, serialize_pspace(random_pspace(args.n, args.levels, args.seed)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptop",
        description="Inspect, verify and transform probability-of-openness topologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check the openness axioms")
    s.add_argument("file")
    s.add_argument("--exhaustive", action="store_true", help="scan whole families (n <= 4)")
    s.set_defaults(handler=cmd_validate)

    s = sub.add_parser("complete", help="least valid space above the input table")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(handler=cmd_complete)

    s = sub.add_parser("subspace", help="trace space on a subset of points")
    s.add_argument("file")
    s.add_argument("--subset", required=True, help="subset mask (decimal, 0b or 0x)")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(handler=cmd_subspace)

    s = sub.add_parser("continuity", help="check a point map between two spaces")
    s.add_argument("--map", required=True)
    s.add_argument("--dom", required=True)
    s.add_argument("--cod", required=True)
    s.set_defaults(handler=cmd_continuity)

    s = sub.add_parser("levels", help="print the level-cut chain")
    s.add_argument("file")
    s.set_defaults(handler=cmd_levels)

    s = sub.add_parser("connectivity", help="connectivity threshold or check at --q")
    s.add_argument("file")
    s.add_argument("--q")
    s.set_defaults(handler=cmd_connectivity)

    s = sub.add_parser("cover", help="check a q-cover, optionally minimize it")
    s.add_argument("file")
    s.add_argument("--q", required=True)
    s.add_argument("--members", required=True, help="comma-separated subset masks")
    s.add_argument("--minimal", action="store_true")
    s.set_defaults(handler=cmd_cover)

    s = sub.add_parser("generate", help="seeded random valid space")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--levels", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(handler=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PtopError, OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2

