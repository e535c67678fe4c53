"""Batch command-line front end.

Reads workspace documents, runs one verification or construction command,
and emits a deterministic report.  Exit status: 0 for clean results, 2 for
verification violations (the report is still emitted), 1 for malformed or
unreadable input, an unwritable --output, unresolved references, or
unsupported-ring operations.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from typing import Callable, NamedTuple

from .complexes import ChainMap, ProjComplex, ProjModule, homology, validate_complex, verify_chain_map
from .constructions import (algebraic_mapping_torus, laurent_resolution,
                            realize, swindle_prefix)
from .corpus import generate_corpus
from .documents import (DocumentError, Workspace, _components_literal, canonical_json,
                        complex_literal, matrix_literal, module_literal, parse_workspace,
                        text_view, witness_literal)
from .instant import (Domination, TrimPreconditionError, build_instant,
                      finiteness_obstruction, free_replacement, trim_below,
                      verify_domination)
from .matrices import ShapeError
from .projective import quadratic_class_oracle, rank
from .rings import QuadraticRing, RingMismatch, UnsupportedRing
from .verdicts import Report, VerificationFailed


def _load(args) -> tuple[Workspace, str]:
    """The document, built for --name and any --witness, and its SHA-256."""
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise DocumentError(f"cannot read input: {ex}") from ex
    names = [args.name] + ([args.witness] if hasattr(args, "witness") else [])
    return parse_workspace(text, names), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(args, payload: dict) -> None:
    out = (canonical_json if args.format == "structured" else text_view)(payload)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as ex:
            raise DocumentError(f"cannot write output: {ex}") from ex
    else:
        sys.stdout.write(out)


def _obstruction_payload(dom: Domination, bound: int | None) -> tuple[dict, bool]:
    """(payload, ok); a domination failing verification is reported under
    "verify"."""
    try:
        ob = finiteness_obstruction(dom)
    except VerificationFailed as ex:
        return {"verify": ex.report.as_dict()}, False
    sigma_trivial = not ob.sigma.plus and not ob.sigma.minus
    payload: dict = {
        "chi": ob.chi,
        "sigma": {
            "plus": [module_literal(m) for m in ob.sigma.plus],
            "minus": [module_literal(m) for m in ob.sigma.minus],
            "trivial": sigma_trivial,
        },
        "witnessed_zero": ob.sigma_is_witnessed_zero,
    }
    if ob.sigma_zero_witness is not None:
        payload["witness"] = witness_literal(ob.sigma_zero_witness)
    if isinstance(dom.A.ring, QuadraticRing):
        probe = [m for m in ob.sigma.plus + ob.sigma.minus
                 if not m.is_free and rank(m) == 1]
        if probe:
            v = quadratic_class_oracle(probe[0], bound)
            payload["oracle"] = {
                "status": v.status, "norm": v.norm, "bound": v.bound,
                "minkowski": v.minkowski,
                "generator": (probe[0].ring.literal(v.generator)
                              if v.generator is not None else None),
            }
    return payload, True


def _rejected(code: str, **fields) -> tuple[dict, bool]:
    rep = Report()
    rep.add(code, **fields)
    return {"report": rep.as_dict()}, False


# Caps on the flags whose work grows with their value, so that no flag asks
# for unbounded work; the README gives the time each takes at its cap.
# laurent-resolve also caps its module's flattened ambient rank times --window.
MAX_WINDOW, MAX_DEGREE, MAX_COUNT, MAX_FLAT_WINDOW = 256, 256, 1000, 512


def _in_range(args, dest: str, low: int, high: int) -> int:
    """The value of --dest, rejected as malformed input outside [low, high]."""
    value = getattr(args, dest)
    if value < low:
        raise DocumentError(f"--{dest} must be at least {low}, got {value}")
    if value > high:
        raise DocumentError(f"--{dest} must be at most {high}, got {value}")
    return value


# Handlers: (args, workspace, named object) -> (payload, ok).

def _verify(args, ws, obj):
    if isinstance(obj, ProjComplex):
        rep = validate_complex(obj)
    elif isinstance(obj, ChainMap):
        rep = verify_chain_map(obj)
    elif isinstance(obj, Domination):
        rep = verify_domination(obj)
    else:
        rep = obj.validate()
    return {"report": rep.as_dict()}, rep.ok


def _homology(args, ws, x):
    return {"homology": homology(x).as_dict()}, True


def _instant(args, ws, dom):
    inst = build_instant(dom)
    return {"F_rank": inst.F_rank,
            "P": matrix_literal(inst.P),
            "boundaries": [matrix_literal(b) for b in inst.reduction.boundaries],
            "reduction": complex_literal(inst.reduction, dom.A.ring)}, True


def _obstruction(args, ws, dom):
    return _obstruction_payload(dom, args.class_bound)


def _trim(args, ws, x):
    try:
        res = trim_below(x, args.below)
    except TrimPreconditionError as ex:
        return _rejected("trim.homology_nonvanishing", degree=ex.degree)
    return {"complex": complex_literal(res.complex, ws.ring),
            "splittings": _components_literal(res.splittings)}, True


def _free_replace(args, ws, x):
    if args.witness not in ws.witnesses:
        raise DocumentError(f"unresolved witness reference: {args.witness!r}")
    try:
        out, fwd, bwd = free_replacement(x, ws.witnesses[args.witness])
    except VerificationFailed:  # _run reports its violations
        raise
    except ValueError as ex:  # more than one non-free module
        return _rejected("free_replace.rejected", detail=str(ex))
    return {"complex": complex_literal(out, ws.ring),
            "forward": _components_literal(fwd.components),
            "backward": _components_literal(bwd.components)}, True


def _laurent_resolve(args, ws, p):
    window = _in_range(args, "window", 1, MAX_WINDOW)
    if (size := p.ambient_rank * (p.ring.flat_rank or 1) * window) > MAX_FLAT_WINDOW:
        raise DocumentError(f"flat rank times --window must be at most {MAX_FLAT_WINDOW}, got {size}")
    cx, chk = laurent_resolution(p, window)
    return {"complex": complex_literal(cx, ws.ring),
            "window_check": chk.as_dict()}, chk.ok


def _swindle(args, ws, p):
    cx = swindle_prefix(p, _in_range(args, "window", 1, MAX_WINDOW))
    return {"complex": complex_literal(cx, ws.ring),
            "homology": homology(cx).as_dict()}, True


def _torus(args, ws, f):
    return {"complex": complex_literal(algebraic_mapping_torus(f), ws.ring)}, True


def _realize(args, ws, p):
    a, dom = realize(p, _in_range(args, "degree", 0, MAX_DEGREE))
    payload, ok = _obstruction_payload(dom, args.class_bound)
    payload["complex"] = complex_literal(a, ws.ring)
    return payload, ok


def _corpus(args, ws, obj):
    count = _in_range(args, "count", 1, MAX_COUNT)
    return generate_corpus(args.seed, count, args.ring), True


class Command(NamedTuple):
    help: str
    accepts: tuple | None   # types the named object may have; None: no document
    noun: str               # completes "'name' is not ..."
    handler: Callable
    flags: tuple = ()       # (flag, add_argument keywords) beyond the common ones


_CLASS_BOUND = ("--class-bound", {"type": int, "default": None,
                                   "help": "norm bound for the quadratic class oracle"})

COMMANDS = {
    "verify": Command("check a complex, map, or domination",
                      (ProjComplex, ChainMap, Domination, ProjModule),
                      "verifiable on its own", _verify),
    "homology": Command("lattice homology of a complex", (ProjComplex,),
                        "a complex", _homology),
    "instant": Command("assemble the instant-obstruction data", (Domination,),
                       "a domination", _instant),
    "obstruction": Command("(chi, sigma) of a domination", (Domination,),
                           "a domination", _obstruction, (_CLASS_BOUND,)),
    "trim": Command("peel acyclic bottom degrees", (ProjComplex,), "a complex",
                    _trim, (("--below", {"type": int, "required": True,
                                         "help": "trim degrees <= this value"}),)),
    "free-replace": Command("replace a stably free module", (ProjComplex,),
                            "a complex", _free_replace,
                            (("--witness", {"required": True, "help": "witness name"}),)),
    "laurent-resolve": Command("(1-t)+1 resolution of a module", (ProjModule,),
                               "a module", _laurent_resolve,
                               (("--window", {"type": int, "default": 8}),)),
    "swindle": Command("finite swindle prefix of a module", (ProjModule,),
                       "a module", _swindle,
                       (("--window", {"type": int, "default": 8,
                                      "help": "prefix length"}),)),
    "torus": Command("algebraic mapping torus of an endomorphism", (ChainMap,),
                     "a chain map", _torus),
    "realize": Command("dominated complex with a prescribed class", (ProjModule,),
                       "a module", _realize,
                       (("--degree", {"type": int, "default": 0}), _CLASS_BOUND)),
    "corpus": Command("generate a seeded domination corpus", None, "", _corpus,
                      (("--seed", {"type": int, "default": 0}),
                       ("--count", {"type": int, "default": 10}),
                       ("--ring", {"choices": ("integers", "c2"),
                                   "default": "integers"}))),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by every main call."""
    p = argparse.ArgumentParser(
        prog="chaink0",
        description="chain-level finiteness-obstruction engine")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        if cmd.accepts is not None:
            sp.add_argument("--input", required=True, help="workspace document path")
            sp.add_argument("--name", required=True, help="object name")
        written = "report" if cmd.accepts is not None else "document"
        sp.add_argument("--output", help=f"write the {written} here instead of stdout")
        sp.add_argument("--format", choices=("text", "structured"),
                        default="structured")
        for flag, kwargs in cmd.flags:
            sp.add_argument(flag, **kwargs)
    return p


def _run(args) -> int:
    cmd = COMMANDS[args.command]
    if cmd.accepts is None:
        payload, ok = cmd.handler(args, None, None)
    else:
        ws, digest = _load(args)
        obj = ws.find(args.name)
        if not isinstance(obj, cmd.accepts):
            raise DocumentError(f"{args.name!r} is not {cmd.noun}")
        try:
            payload, ok = cmd.handler(args, ws, obj)
        except VerificationFailed as ex:
            payload, ok = {"report": ex.report.as_dict()}, False
        payload.update({"command": args.command,
                        "provenance": {"input_digest": digest, "name": args.name}})
    _emit(args, payload)
    return 0 if ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (DocumentError, UnsupportedRing, RingMismatch, ShapeError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
