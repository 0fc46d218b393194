"""Command-line front-end.

Subcommands: rpolar, critical, blockdiag, verify, flow, scheme.  Results
go to stdout (JSON, JSON lines or CSV), diagnostics to stderr.  Identical
inputs and seeds produce byte-identical output.

Exit codes: 0 success, 1 verification failure or other invalid argument,
2 parse failure, 3 degenerate, reflective or non-finite input or a printed
value that overflows, 4 dimension
over the enumeration guard (``--max-n``) or the multistart guard of
``verify`` (n <= 16), or minimizers, flow states or multistart work arrays
over ``MAX_OUTPUT_ENTRIES`` entries, 5 not a symmetric square, 6
infeasible label.
Every error prints one ``error:`` line to stderr and leaves stdout empty.
Diagonal values go to ``rpolar_diag`` whatever their signs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .blockdiag import block_diagonalize
from .critical import (
    DEFAULT_MAX_N,
    PartitionLabel,
    SubsetLabel,
    as_diag,
    critical_value,
    enumerate_critical,  # not called here; perfbench traces it as cli.enumerate_critical
    realize,
    _critical_table,
    _CriticalTable,
)
from .errors import (
    Degenerate,
    InfeasibleLabel,
    NonInvertibleOrReflective,
    NotSymmetricSquare,
    RpolarError,
    TooLarge,
)
from .linalg import MAX_OUTPUT_ENTRIES, exp_skew, frob_norm_sq, random_rotation, skew
from .oracle import biot_flow, brute_force_min, integrate_flow
from .relaxed import MinimizerSet, rpolar_diag, rpolar_full, scheme_minimize

SCHEMA = "rpolar/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_TOO_LARGE = 4
EXIT_NOT_SYMSQ = 5
EXIT_INFEASIBLE = 6


class ParseFailure(Exception):
    pass


def parse_diag_list(text: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseFailure(f"cannot parse diagonal values {text!r}: {exc}") from None
    if not values:
        raise ParseFailure("empty diagonal value list")
    return np.array(values)


def parse_matrix_file(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [
                [float(tok) for tok in line.replace(",", " ").split()]
                for line in fh
                if line.strip()
            ]
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ParseFailure(f"cannot parse {path}: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ParseFailure(f"{path}: rows must be non-empty and of equal length")
    return np.array(rows)


_LABEL_RE = re.compile(r"\{(\d+(?:\s*,\s*\d+)?)\}([+-])")


def parse_label(text: str) -> PartitionLabel:
    """Parse labels such as '{1}+,{2,5}-,{3}-,{4}-' (1-based indices)."""
    stripped = re.sub(r"\s+", "", text)
    matched = "".join(m.group(0) for m in _LABEL_RE.finditer(stripped))
    if matched.replace(",", "") != stripped.replace(",", ""):
        raise ParseFailure(f"cannot parse label {text!r}")
    subs = []
    for m in _LABEL_RE.finditer(stripped):
        idx = tuple(int(tok) for tok in m.group(1).split(","))
        subs.append(SubsetLabel(indices=idx, det_sign=1 if m.group(2) == "+" else -1))
    if not subs:
        raise ParseFailure(f"cannot parse label {text!r}")
    return PartitionLabel(subsets=tuple(subs))


def _subset_text(indices, det_sign: int) -> str:
    return "{%s}%s" % (",".join(str(i) for i in indices), "+" if det_sign == 1 else "-")


def format_label(label: PartitionLabel) -> str:
    return ",".join(_subset_text(s.indices, s.det_sign) for s in label.subsets)


def _rotation_rows(r: np.ndarray) -> list[float]:
    return r.ravel().tolist()


def _write_minimizers(ms: MinimizerSet, n: int) -> None:
    """Write the minimizer set as one JSON line, one rotation at a time.

    The bytes are those of ``json.dumps`` of the whole payload, but the
    2^k rotations are never held in memory at once.
    """
    head = {
        "schema": SCHEMA,
        "kind": "minimizer_set",
        "n": n,
        "k": ms.k,
        "reduced_energy": ms.reduced_energy,
        "cos_alphas": list(ms.cos_alphas),
        "label": ms.label.to_dict(),
    }
    out = sys.stdout
    out.write(json.dumps(head)[:-1] + ', "rotations": [')
    for i, r in enumerate(ms.rotations):
        out.write((", " if i else "") + json.dumps(_rotation_rows(r)))
    out.write('], "flags": ' + json.dumps(list(ms.flags)) + "}\n")


def _float_text(x: float) -> str:
    """``json.dumps(x)``: json writes finite floats with ``float.__repr__``."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _listing_order(table: _CriticalTable) -> np.ndarray:
    """Row order of the listing: value, then label string.

    No subset text is a prefix of another, and two labels that agree on
    their first subsets cover the same indices, so label strings compare
    as their sequences of subset texts.  That needs one text per subset
    code, not one string per label.
    """
    texts = [_subset_text(*sub) for sub in table.subsets] + [""]  # "" pads
    rank = np.argsort(np.argsort(texts)).astype(table.codes.dtype)
    columns = [rank[column] for column in table.codes.T[::-1]]
    return np.lexsort(columns + [table.values])


def _write_critical_points(table: _CriticalTable) -> None:
    """Write every critical point as one JSON line, in listing order.

    Rows follow ``_listing_order``, and the points of a row go in angle
    order (first pair slowest, +1 first).  The bytes are those of
    ``json.dumps`` of each point's payload, but each subset's JSON and
    rotation entries are formatted once per angle sign.  Points are
    written as they are made, never held.
    """
    n = table.params.n
    # per subset code and angle sign: its label JSON and its written entries
    options = {}
    used = np.bincount(table.codes.ravel(), minlength=len(table.subsets) + 1)
    for code in np.flatnonzero(used[: len(table.subsets)]).tolist():
        indices, det = table.subsets[code]
        block = [(a - 1) * n + b - 1 for a in indices for b in indices]
        rotations = table.subset_rotations(code).reshape(-1, n * n)[:, block]
        options[code] = [
            (
                json.dumps(SubsetLabel(indices, det, angle).to_dict()),
                list(zip(block, map(_float_text, r.tolist()))),
            )
            for angle, r in zip((1, -1), rotations)
        ]
    values = table.values.tolist()
    sizes = table.sizes.tolist()
    head = json.dumps({"schema": SCHEMA, "kind": "critical_point"})[:-1] + ', "label": {"subsets": ['
    out = sys.stdout
    for k in _listing_order(table).tolist():
        middle = ']}, "value": ' + _float_text(values[k]) + ', "rotation": ['
        entries = [_float_text(0.0)] * (n * n)  # the writer's zeros outside the blocks
        row = table.codes[k, : sizes[k]].tolist()
        for choice in itertools.product(*(options[c] for c in row)):
            for _, written in choice:
                for i, text in written:
                    entries[i] = text
            subsets = ", ".join([subset for subset, _ in choice])
            out.write(head + subsets + middle + ", ".join(entries) + "]}\n")


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _require_finite(values, message: str) -> None:
    """Raise ``Degenerate`` before any output when a value to print is not
    finite: JSON has no Infinity or NaN."""
    if not np.all(np.isfinite(values)):
        raise Degenerate(message)


# -- subcommands --------------------------------------------------------------


def cmd_rpolar(args) -> int:
    if args.mode == "diag":
        values = parse_diag_list(args.input)
        ms = rpolar_diag(values)
        n = values.size
    else:
        f = parse_matrix_file(args.input)
        ms = rpolar_full(f)
        n = f.shape[0]
    _require_finite(ms.reduced_energy, "reduced energy overflows")
    if 2**ms.k * n * n > MAX_OUTPUT_ENTRIES:
        raise TooLarge(f"2**{ms.k} minimizers of {n}x{n} exceed {MAX_OUTPUT_ENTRIES} entries")
    if args.format == "text":
        print(f"k = {ms.k}")
        print(f"reduced_energy = {ms.reduced_energy!r}")
        print(f"cos_alphas = {list(ms.cos_alphas)!r}")
        print(f"label = {format_label(ms.label)}")
        print(f"minimizers = {2**ms.k}")
        for r in ms.rotations:
            print(np.array2string(r, precision=12, suppress_small=False))
    else:
        _write_minimizers(ms, n)
    return EXIT_OK


def cmd_critical(args) -> int:
    values = parse_diag_list(args.input)
    params = as_diag(values)
    if args.label is not None:
        label = parse_label(args.label)
        value = critical_value(label, params)
        _require_finite(value, "critical value overflows")
        payload = {
            "schema": SCHEMA,
            "kind": "critical_value",
            "label": label.to_dict(),
            "value": value,
        }
        try:
            points = realize(label, params)
            payload["realizable"] = True
            payload["rotations"] = [_rotation_rows(p.rotation) for p in points]
        except InfeasibleLabel as exc:
            payload["realizable"] = False
            payload["reason"] = str(exc)
        _emit(payload)
        return EXIT_OK
    table = _critical_table(params, max_n=args.max_n)
    _require_finite(table.values, "critical values overflow")
    _write_critical_points(table)
    return EXIT_OK


def cmd_blockdiag(args) -> int:
    x = parse_matrix_file(args.input)
    dec = block_diagonalize(x)
    split = [frob_norm_sq(b.entries) for b in dec.blocks]
    # Summed term by term in this order, so the value does not depend on
    # the Python version's float summation.
    total = 0.0
    for part in split:
        total += part
    # the parts are non-negative, so a finite total means finite parts
    _require_finite(total, "Frobenius split overflows: ||X||_F^2 is not finite")
    payload = {
        "schema": SCHEMA,
        "kind": "block_decomposition",
        "n": dec.source_dim,
        "basis": _rotation_rows(dec.basis),
        "blocks": [
            {
                "size": b.size,
                "entries": _rotation_rows(b.entries),
                "mu": b.mu,
                "norm_sq": part,
            }
            for b, part in zip(dec.blocks, split)
        ],
        "frobenius_split": split,
        "total_norm_sq": total,
        "reconstruction_residual": dec.reconstruction_residual(x),
    }
    _emit(payload)
    return EXIT_OK


def _verify_case(values: np.ndarray, args) -> dict:
    ms = rpolar_diag(values)
    _require_finite(ms.reduced_energy, "reduced energy overflows")
    report = brute_force_min(values, n_starts=args.starts, seed=args.seed)
    diff = abs(ms.reduced_energy - report.best_value)
    _require_finite(diff, "oracle value is not finite")
    return {
        "d": [float(v) for v in values],
        "closed_form": ms.reduced_energy,
        "oracle": report.best_value,
        "diff": diff,
        "pass": bool(diff <= args.tol),
    }


def _random_strict_diag(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        d = np.sort(rng.uniform(0.2, 3.5, size=n))[::-1]
        if np.all(np.diff(d) < 0):
            return d


def cmd_verify(args) -> int:
    cases = []
    if args.batch < 0 or args.n < 1 or not math.isfinite(args.tol):
        raise ParseFailure(
            f"need --batch >= 0, --n >= 1 and a finite --tol, "
            f"got {args.batch}, {args.n} and {args.tol}"
        )
    if args.batch:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.batch):
            cases.append(_random_strict_diag(args.n, rng))
    elif args.input is not None:
        cases.append(parse_diag_list(args.input))
    else:
        raise ParseFailure("verify needs diagonal values or --batch N")
    results = [_verify_case(v, args) for v in cases]
    all_pass = all(r["pass"] for r in results)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "kind": "verify_report",
                "tolerance": args.tol,
                "cases": results,
                "all_pass": all_pass,
            }
        )
    else:
        for i, r in enumerate(results):
            print(
                f"case {i}: closed={r['closed_form']!r} oracle={r['oracle']!r} "
                f"diff={r['diff']:.3e} {'PASS' if r['pass'] else 'FAIL'}"
            )
        n_pass = sum(r["pass"] for r in results)
        print(f"{'PASS' if all_pass else 'FAIL'} {n_pass}/{len(results)}")
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_flow(args) -> int:
    values = parse_diag_list(args.input)
    n = values.size
    if args.perturb is not None:
        rng = np.random.default_rng(args.seed)
        a = skew(rng.standard_normal((n, n)))
        r0 = exp_skew(a, scale=args.perturb)
    else:
        r0 = random_rotation(n, args.seed)
    flow = biot_flow if args.biot else integrate_flow
    traj = flow(r0, values, step=args.step, t_end=args.t_end, gtol=args.gtol)
    writer = sys.stdout
    header = ["t", "energy"] + [f"r{i+1}{j+1}" for i in range(n) for j in range(n)]
    writer.write(",".join(header) + "\n")
    for t, e, r in zip(traj.times, traj.energies, traj.states):
        row = [repr(float(t)), repr(float(e))] + [repr(float(x)) for x in r.reshape(-1)]
        writer.write(",".join(row) + "\n")
    return EXIT_OK


def cmd_scheme(args) -> int:
    values = parse_diag_list(args.input)
    start = parse_label(args.label)
    trace = scheme_minimize(start, values)
    final = rpolar_diag(values)
    _require_finite(trace.values + [final.reduced_energy], "label values overflow")
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "kind": "scheme_trace",
                "steps": [
                    {
                        "step": s.name,
                        "label_before": s.label_before.to_dict(),
                        "label_after": s.label_after.to_dict(),
                        "value_before": s.value_before,
                        "value_after": s.value_after,
                    }
                    for s in trace.steps
                ],
                "final_value": trace.final_value,
                "reduced_energy": final.reduced_energy,
            }
        )
    else:
        print(f"start: {format_label(trace.steps[0].label_before)}  "
              f"value = {trace.steps[0].value_before!r}")
        for s in trace.steps:
            note = "" if s.changed else "  (no-op)"
            print(
                f"{s.name: <12} -> {format_label(s.label_after)}  "
                f"value = {s.value_after!r}{note}"
            )
        print(f"reduced energy: {final.reduced_energy!r}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpolar",
        description="Energy-minimizing rotations for the Cosserat "
        "shear-stretch energy ||sym(RD - I)||^2 on SO(n).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rpolar", help="closed-form global minimizers")
    p.add_argument("mode", choices=["diag", "full"])
    p.add_argument("input", help="comma list of diagonal values or a matrix file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_rpolar)

    p = sub.add_parser("critical", help="enumerate critical points")
    p.add_argument("input", help="comma list of diagonal values")
    p.add_argument("--label", help="evaluate one label, e.g. '{1}+,{2,5}-,{3}-,{4}-'")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("blockdiag", help="block-diagonalize a symmetric-square matrix")
    p.add_argument("input", help="matrix file")
    p.set_defaults(func=cmd_blockdiag)

    p = sub.add_parser("verify", help="closed form vs multistart descent")
    p.add_argument("input", nargs="?", help="comma list of diagonal values")
    p.add_argument("--batch", type=int, default=0, help="number of random cases")
    p.add_argument("--n", type=int, default=3, help="dimension for --batch")
    p.add_argument("--starts", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", help="integrate a gradient flow, CSV output")
    p.add_argument("input", help="comma list of diagonal values")
    p.add_argument("--biot", action="store_true", help="flow for ||RD - I||^2 / 2")
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    p.add_argument("--gtol", type=float, default=None, help="early stop on gradient norm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=float, default=None,
                   help="start at exp(eps * skew) near the identity")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("scheme", help="energy-decreasing label transformation")
    p.add_argument("input", help="comma list of diagonal values")
    p.add_argument("--label", required=True, help="start label")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_scheme)

    return parser


# First matching entry wins, so subclasses come before RpolarError.
_EXIT_CODES = (
    (ParseFailure, EXIT_PARSE),
    ((NonInvertibleOrReflective, Degenerate), EXIT_DEGENERATE),
    (TooLarge, EXIT_TOO_LARGE),
    (NotSymmetricSquare, EXIT_NOT_SYMSQ),
    (InfeasibleLabel, EXIT_INFEASIBLE),
    (RpolarError, EXIT_FAIL),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseFailure, RpolarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))

if __name__ == "__main__":
    sys.exit(main())
