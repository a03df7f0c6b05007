"""Command-line front end: JSON in, JSON or CSV out, deterministic seeding.

Exit codes: 0 success, 2 validation error (bad files, bad schemas, bad
values), 3 solver non-convergence, 4 enumeration budget exceeded; exit 1 (a
traceback) means a bug.  Every input file goes through one loader per kind,
which `schema-check` runs too.  Identical inputs, flags, and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import chancode, gaussian, measures, optimize, srccode, typicality
from .core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    marginals,
)
from .errors import BudgetExceeded, LengthMismatch, NonConvergence, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# input loading and schema checking
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the decoder recurses once per nesting level
        raise ValidationError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise _at("", ValidationError(f"{path}: top level must be a JSON object"))
    return obj


def _at(pointer: str, e: ValidationError) -> ValidationError:
    e.pointer = pointer
    return e


def _need(obj: dict, key: str, path: str, build):
    """build(obj[key]); a ValidationError it raises gets the JSON pointer /key."""
    if key not in obj:
        raise _at(f"/{key}", ValidationError(f"{path}: missing required key /{key}"))
    try:
        return build(obj[key])
    except ValidationError as e:
        raise _at(f"/{key}", e)


def load_distribution(path: str) -> Distribution:
    return _need(_load_json(path), "probs", path, Distribution)


def load_partition(path: str | None, alphabet_size: int | None = None) -> SynonymousPartition:
    """The partition in `path`; no path means the identity partition of `alphabet_size` symbols.

    Without a distribution to match (`alphabet_size` None), one syntactic symbol per block member.
    """
    if path is None:
        return SynonymousPartition.identity(alphabet_size)
    return _need(_load_json(path), "blocks", path, lambda v: SynonymousPartition(v, alphabet_size))


def _load_joint_partition(args, j: JointDistribution) -> JointSynonymousPartition:
    """The --u-partition/--v-partition pair on the axes of `j`."""
    nu, nv = j.shape
    return JointSynonymousPartition(load_partition(args.u_partition, nu), load_partition(args.v_partition, nv))


def load_joint(path: str) -> JointDistribution:
    return _need(_load_json(path), "matrix", path, JointDistribution)


def load_channel(path: str) -> ChannelModel:
    return _need(_load_json(path), "transition", path, ChannelModel)


def load_codebook(path: str) -> chancode.GroupedCodebook:
    """Codewords, then groups, then a declared length "n" if the file has one."""
    obj = _load_json(path)
    codewords = _need(obj, "codewords", path, chancode.codeword_matrix)
    cb = _need(obj, "groups", path, lambda v: chancode.GroupedCodebook(codewords, v))
    n = obj.get("n", cb.n)
    if isinstance(n, bool) or n != cb.n:
        raise _at("/n", LengthMismatch(f"declared length {n} but codewords have length {cb.n}"))
    return cb


LOADERS = {
    "distribution": load_distribution,
    "partition": load_partition,
    "joint": load_joint,
    "channel": load_channel,
    "codebook": load_codebook,
}


def schema_check(path: str, kind: str) -> list[dict]:
    """Run the kind's loader; report the first violation it finds, with its JSON pointer.

    A file that cannot be read or parsed has no pointer, so its error is raised.
    """
    try:
        LOADERS[kind](path)
    except ValidationError as e:
        if e.pointer is None:
            raise
        return [{"pointer": e.pointer, "message": str(e)}]
    return []


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(text: str, output: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    """Compact sorted JSON; a NaN or infinity raises ValueError, since RFC 8259 has no such number."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_measures(args) -> dict:
    out: dict = {}
    if args.dist:
        d = load_distribution(args.dist)
        out["H"] = measures.entropy(d)
        if args.partition:
            f = load_partition(args.partition, d.alphabet_size)
            out["Hs"] = measures.semantic_entropy(d, f)
    if args.joint:
        j = load_joint(args.joint)
        fj = _load_joint_partition(args, j)
        fu, fv = fj.u_partition, fj.v_partition
        pu, pv = marginals(j)
        out.update(
            {
                "H_u": measures.entropy(pu),
                "H_v": measures.entropy(pv),
                "H_joint": measures.joint_entropy(j),
                "H_u_given_v": measures.conditional_entropy(j, "u_given_v"),
                "H_v_given_u": measures.conditional_entropy(j, "v_given_u"),
                "I": measures.mutual_information(j),
                "Hs_u": measures.semantic_entropy(pu, fu),
                "Hs_v": measures.semantic_entropy(pv, fv),
                "Hs_joint": measures.semantic_joint_entropy(j, fj),
                "Hs_u_given_v": measures.semantic_conditional_entropy(j, fu, "u_given_v"),
                "Hs_v_given_u": measures.semantic_conditional_entropy(j, fv, "v_given_u"),
                "I_up": measures.up_smi(j, fj),
                "I_down": measures.down_smi(j, fj),
                "I_down_clamped": measures.down_smi(j, fj, clamp=True),
                "I_full": measures.full_smi(j, fj),
            }
        )
    if not out:
        raise ValidationError("measures needs --dist and/or --joint")
    return out


def _cmd_capacity(args) -> dict:
    ch = load_channel(args.channel)
    res = optimize.semantic_capacity(ch, tol=args.tol, identity_only=args.identity_only)
    return res.to_json()


def _cmd_rate_distortion(args) -> dict:
    src = load_distribution(args.dist)
    ds = _need(_load_json(args.distortion), "values", args.distortion, optimize.SemanticDistortionMatrix)
    res = optimize.semantic_rate_distortion(
        src,
        ds,
        args.d_target,
        partition_budget=args.budget,
        tol=args.tol,
        reconstruction_size=args.reconstruction_size,
    )
    return res.to_json()


def _cmd_huffman(args) -> dict:
    d = load_distribution(args.dist)
    f = load_partition(args.partition, d.alphabet_size)
    code = srccode.build_semantic_huffman(d, f, arity=args.arity)
    lower, upper = srccode.optimal_length_bounds(d, f, arity=args.arity)
    top = max(code.lengths)  # sum F^(L-l) in integers, divide by F^L once: a complete code prints 1.0
    return {
        "codewords": list(code.codewords),
        "arity": code.arity,
        "lengths": code.lengths,
        "avg_length": srccode.average_length(code, d, f),
        "kraft_sum": sum(args.arity ** (top - l) for l in code.lengths) / args.arity**top,
        "length_bounds": [lower, upper],
    }


def _load_code(path: str) -> srccode.SemanticPrefixCode:
    obj = {"arity": 2, **_load_json(path)}  # the file may leave out a binary arity
    arity = _need(obj, "arity", path, srccode.code_arity)
    return _need(obj, "codewords", path, lambda v: srccode.SemanticPrefixCode(v, arity))


def _read_symbols(path: str) -> list[int]:
    """The whitespace-separated integers of a symbols file, in order.

    int() runs once per distinct token, not once per symbol: a table from
    each distinct token to its value maps the file.  Any token int() takes
    (007, +1, a non-ASCII digit) reads as int() reads it.
    """
    tokens = _read_text(path).split()
    try:
        value_of = {t: int(t) for t in set(tokens)}
    except ValueError as e:
        raise ValidationError(f"{path}: symbols must be whitespace-separated integers") from e
    return list(map(value_of.__getitem__, tokens))


def _cmd_encode(args) -> str:
    code = _load_code(args.code)
    return srccode.encode_sequence(_read_symbols(args.input), code, load_partition(args.partition))


def _cmd_decode(args) -> str:
    code = _load_code(args.code)
    f = load_partition(args.partition)
    stream = _read_text(args.input).strip()
    symbols = srccode.decode_sequence(stream, code, f, policy=args.policy, seed=args.seed)
    names = [str(u) for u in range(f.alphabet_size)]  # decoded symbols are indices in [0, N)
    return " ".join(map(names.__getitem__, symbols))


def _cmd_chancode(args) -> dict:
    cb = load_codebook(args.codebook)
    d_min, spectrum = chancode.min_group_hamming_distance(cb)
    out = {
        "n": cb.n,
        "num_codewords": cb.num_codewords,
        "num_groups": cb.num_groups,
        "group_rate": cb.group_rate,
        "synonymous_rate": cb.synonymous_rate,
        "d_gh_min": d_min,
        "group_spectrum": [
            {"distances": list(k), "count": v} for k, v in sorted(spectrum.items())
        ],
        "classic_spectrum": [
            {"distance": k, "count": v}
            for k, v in chancode.classic_distance_spectrum(cb).items()
        ],
    }
    if args.es_n0 is not None:
        out["mlg_bound"] = chancode.gep_union_bound(cb, args.es_n0, "MLG")
        out["ml_bound"] = chancode.gep_union_bound(cb, args.es_n0, "ML")
    return out


def _cmd_simulate(args) -> tuple[list[str], list[list[float]]]:
    cb = load_codebook(args.codebook)
    header = ["es_n0_db", "group_err", "cw_err", "mlg_bound", "ml_bound"]
    lins = [gaussian.db_to_linear(db) for db in args.es_n0_db]
    # an empty --es-n0-db list prints the header alone, as it always has
    results = chancode.simulate_awgn_sweep(cb, lins, args.trials, args.seed) if lins else []
    rows = [
        [
            db,
            res.group_error_rate,
            res.codeword_error_rate,
            chancode.gep_union_bound(cb, lin, "MLG"),
            chancode.gep_union_bound(cb, lin, "ML"),
        ]
        for db, lin, res in zip(args.es_n0_db, lins, results)
    ]
    return header, rows


def _cmd_typicality(args):
    if args.joint:
        j = load_joint(args.joint)
        rep = typicality.estimate_joint_typicality(
            j,
            _load_joint_partition(args, j),
            n=args.n,
            eps=args.eps,
            trials=args.trials,
            seed=args.seed,
            mode=args.mc_mode,
        )
        return rep.to_json()
    if not args.dist:
        raise ValidationError("typicality needs --dist (exact enumeration) or --joint (Monte Carlo)")
    d = load_distribution(args.dist)
    f = load_partition(args.partition, d.alphabet_size)
    ns = args.sweep if args.sweep else [args.n]
    reports = [typicality.enumerate_typical_sets(d, f, n, args.eps) for n in ns]
    if args.sweep:
        header = ["n", "prob_typical", "set_size", "lower_bound", "upper_bound", "bound_satisfied"]
        rows = [
            [r.n, r.prob_typical, r.set_size, r.lower_bound, r.upper_bound, int(r.bound_satisfied)]
            for r in reports
        ]
        return header, rows
    return reports[0].to_json()


def _cmd_gaussian(args):
    if args.curve:
        params = {"s_values": args.s_values, "p": args.p}
        start, stop, num = args.grid
        grid = np.linspace(start, stop, int(num)).tolist()
        return gaussian.emit_curves(args.curve, params, grid)
    if args.op == "capacity":
        c_s, lower = gaussian.gaussian_semantic_capacity(args.p, args.noise, args.s)
        return {"c_s": c_s, "lower": lower}
    if args.op == "bandlimited":
        c_s, lower = gaussian.bandlimited_semantic_capacity(args.p, args.noise, args.bandwidth, args.s)
        return {"c_s": c_s, "lower": lower}
    if args.op == "entropy":
        return {"Hs": gaussian.gaussian_semantic_entropy(args.noise, args.s)}
    if args.op == "min-energy":
        return {"energy": gaussian.min_energy_per_sebit(args.mu, args.s)}
    if args.op == "rd":
        return {"r_s": gaussian.gaussian_semantic_rd(args.p, args.d_target, args.s)}
    raise ValidationError("gaussian needs --curve or --op")


def _cmd_schema_check(args) -> dict:
    violations = schema_check(args.file, args.kind)
    return {"file": args.file, "kind": args.kind, "violations": violations}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """float(text), refused (exit 2) when it is NaN or infinite, which no flag takes."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sebits", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    common.add_argument(
        "--error-json", action="store_true", help="emit machine-readable errors on stderr"
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("measures", help="entropies and mutual-information companions")
    sp.add_argument("--dist")
    sp.add_argument("--partition")
    sp.add_argument("--joint")
    sp.add_argument("--u-partition")
    sp.add_argument("--v-partition")
    sp.set_defaults(fn=_cmd_measures)

    sp = add_parser("capacity", help="semantic channel capacity")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--tol", type=_finite_float, default=1e-8)
    sp.add_argument("--identity-only", action="store_true")
    sp.set_defaults(fn=_cmd_capacity)

    sp = add_parser("rate-distortion", help="semantic rate-distortion")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--distortion", required=True, help='JSON {"values": [[...]]}')
    sp.add_argument("--d-target", type=_finite_float, required=True)
    sp.add_argument("--budget", type=int, default=10_000)
    sp.add_argument("--tol", type=_finite_float, default=1e-7)
    sp.add_argument("--reconstruction-size", type=int, default=None)
    sp.set_defaults(fn=_cmd_rate_distortion)

    sp = add_parser("huffman", help="semantic Huffman codebook")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--partition")
    sp.add_argument("--arity", type=int, default=2)
    sp.set_defaults(fn=_cmd_huffman)

    sp = add_parser("encode", help="encode whitespace-separated symbol indices")
    sp.add_argument("--code", required=True, help="codebook JSON from `huffman`")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--input", required=True)
    sp.set_defaults(fn=_cmd_encode)

    sp = add_parser("decode", help="decode a digit stream to representatives")
    sp.add_argument("--code", required=True)
    sp.add_argument("--partition", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--policy", choices=["lowest", "random"], default="lowest")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=_cmd_decode)

    sp = add_parser("chancode", help="grouped-codebook distances and bounds")
    sp.add_argument("--codebook", required=True)
    sp.add_argument("--es-n0", type=_finite_float, default=None)
    sp.set_defaults(fn=_cmd_chancode)

    sp = add_parser("simulate", help="AWGN Monte Carlo sweep (CSV)")
    sp.add_argument("--codebook", required=True)
    sp.add_argument("--es-n0-db", type=_float_list, required=True)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_simulate)

    sp = add_parser("typicality", help="typical-set enumeration and Monte Carlo probes")
    sp.add_argument("--dist", help="exact enumeration of a single source")
    sp.add_argument("--partition")
    sp.add_argument("--joint", help="Monte Carlo joint probes instead of enumeration")
    sp.add_argument("--u-partition")
    sp.add_argument("--v-partition")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--eps", type=_finite_float, default=0.1)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mc-mode", choices=["correlated", "independent"], default="correlated")
    sp.add_argument("--sweep", type=_int_list, default=None, help="comma-separated n values (CSV out)")
    sp.set_defaults(fn=_cmd_typicality)

    sp = add_parser("gaussian", help="closed-form calculators and figure CSVs")
    sp.add_argument("--curve", choices=list(gaussian.CURVE_KINDS), default=None)
    sp.add_argument("--op", choices=["capacity", "bandlimited", "entropy", "min-energy", "rd"], default=None)
    sp.add_argument("--s-values", type=_float_list, default=[2.0])
    sp.add_argument("--grid", type=_float_list, default=[-2.0, 20.0, 45.0], help="start,stop,points")
    sp.add_argument("--p", type=_finite_float, default=1.0)
    sp.add_argument("--noise", type=_finite_float, default=1.0)
    sp.add_argument("--bandwidth", type=_finite_float, default=1.0)
    sp.add_argument("--s", type=_finite_float, default=1.0)
    sp.add_argument("--mu", type=_finite_float, default=1.0)
    sp.add_argument("--d-target", type=_finite_float, default=0.25)
    sp.set_defaults(fn=_cmd_gaussian)

    sp = add_parser("schema-check", help="validate a JSON input file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--kind", choices=list(LOADERS), required=True)
    sp.set_defaults(fn=_cmd_schema_check)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except BudgetExceeded as e:
        _report_error(args, e, EXIT_BUDGET)
        return EXIT_BUDGET
    except NonConvergence as e:
        _report_error(args, e, EXIT_NONCONVERGENCE)
        return EXIT_NONCONVERGENCE
    except ValueError as e:  # ValidationError is one
        _report_error(args, e, EXIT_VALIDATION)
        return EXIT_VALIDATION

    if isinstance(result, tuple):  # (header, rows) -> CSV
        _emit(_csv_text(result[0], result[1]), args.output)
    elif isinstance(result, str):
        _emit(result, args.output)
    else:
        _emit(_json_dumps(result), args.output)
    if args.command == "schema-check" and result["violations"]:
        return EXIT_VALIDATION
    return EXIT_OK


def _report_error(args, exc: Exception, code: int):
    if getattr(args, "error_json", False):
        report = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if getattr(exc, "pointer", None) is not None:
            report["pointer"] = exc.pointer
        sys.stderr.write(_json_dumps(report) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
