"""Command-line front end.

Verbs: build (construct an instance), compute (solve a quantity on it),
verify (re-check a previously emitted document), golden (run the pinned
closed-form suite), export (serialize an instance as JSON or DIMACS).

Output is a single line of canonical JSON carrying both the fully resolved
configuration and the result, so any document can be re-checked later
without the original command line. --pretty renders the same document as
an indented view. Exit codes: 0 success, 1 verification failure, 2 bad
parameters or size caps.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from functools import partial
from itertools import combinations
from typing import NamedTuple

from .errors import InvalidParameterError, KneserTuranError, SizeCapError, VerificationError
from .exactsolve import (
    DEFAULT_SOLVER_CAP,
    UNBOUNDED,
    chromatic_number,
    covering_number,
    independence_number,
    validate_hypergraph_coloring,
)
from .harness import run_golden_suite
from .hyperstruct import (Hypergraph, LinearOrdering, _ints, _require, canonical_dumps,
                          from_dimacs, mask_of, to_dimacs)
from .kneser import (
    _FAMILY_FLAGS,
    _NAMED_KINDS,
    DEFAULT_GRAPH_CAP,
    DEFAULT_POWER_CAP,
    _family_params,
    _rebuild_instance,
    _rep_of,
    _Resolved,
    _target_of,
)
from .patterns import PatternFamily
from .turanalt import (
    DEFAULT_ALT_CAP,
    DEFAULT_ORDERING_CAP,
    DEFAULT_TURAN_CAP,
    AltermaticCertificate,
    TuranReport,
    alt_sigma_level,
    altermatic_certificate,
    ex_alt_min,
    ex_alt_sigma,
    interval_ordering,
    salt_sigma,
    turan_number,
    verify_certificate,
    verify_turan_report,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneserturan",
        description="Kneser powers of hypergraph representations: construction, "
        "exact invariants, alternating Turan numbers, certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def instance_args(sp):
        sp.add_argument("--family", metavar="KIND", help="named instance: " + ", ".join(sorted(_NAMED_KINDS)))
        sp.add_argument("--host", metavar="KIND", help="named host graph: " + ", ".join(sorted(_FAMILY_FLAGS)))
        sp.add_argument("--input", metavar="FILE", help="host or representation from a JSON/DIMACS file")
        sp.add_argument("--pattern", metavar="KIND", help="pattern to look for inside the host")
        sp.add_argument("--double", action="store_true", help="double every host edge before anything else")
        for flag in ("n", "k", "m", "d", "s", "len", "r"):
            sp.add_argument(f"--{flag}", type=int)
        for flag in ("pattern-n", "pattern-len", "pattern-m", "pattern-s"):
            sp.add_argument(f"--{flag}", type=int)
        sp.add_argument("--cap", type=int, help="override the operation's size cap")
        sp.add_argument("--i-know-this-is-huge", action="store_true",
                        help="required to raise a cap above its default")
        sp.add_argument("--pretty", action="store_true", help="indented view instead of one-line JSON")

    def ordering_args(sp):
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--ordering", metavar="FILE", help="JSON list giving an explicit ordering")
        group.add_argument("--interval", action="store_true",
                           help="order host edges so parallel classes are contiguous")
        group.add_argument("--identity", action="store_true", help="use the identity ordering")
        sp.add_argument("--singles-last", action="store_true",
                        help="with --interval, move multiplicity-1 classes to the end")

    sp = sub.add_parser("build", help="construct an instance and print it")
    instance_args(sp)

    sp = sub.add_parser("compute", help="compute one quantity on an instance")
    sp.add_argument("quantity", choices=tuple(_QUANTITIES))
    instance_args(sp)
    ordering_args(sp)
    sp.add_argument("--i", type=int, default=1, help="admissibility level for alt-sigma/certificate")
    sp.add_argument("--strong", action="store_true", help="strong (salt) certificate variant")
    sp.add_argument("--mode", choices=("auto", "exact", "heuristic"), default="auto")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=64)

    sp = sub.add_parser("verify", help="re-check a document produced by this tool")
    sp.add_argument("document", metavar="FILE")
    sp.add_argument("--pretty", action="store_true")

    sp = sub.add_parser("golden", help="recompute the pinned closed-form suite")
    sp.add_argument("--only", metavar="NAMES", help="comma-separated case names")
    sp.add_argument("--pretty", action="store_true")

    sp = sub.add_parser("export", help="serialize an instance (no config wrapper)")
    instance_args(sp)
    sp.add_argument("--format", choices=("json", "dimacs"), default="json")
    return parser


# --- instance resolution ---

def _load_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return Hypergraph.from_json_dict(json.loads(text))
    return from_dimacs(text)


def _instance_config(args) -> dict:
    """The config echo of the instance flags; _rebuild_instance builds it."""
    given = [x for x in (args.family, args.host, args.input) if x]
    if args.family and (args.host or args.input):
        raise InvalidParameterError("--family excludes --host/--input")
    if not given:
        raise InvalidParameterError("no instance given: use --family, --host, or --input")

    if args.family:
        kind = args.family.replace("_", "-")
        if kind not in _NAMED_KINDS:
            raise InvalidParameterError(f"unknown family {args.family!r}; choose from "
                                        + ", ".join(sorted(_NAMED_KINDS)))
        flags, _ = _NAMED_KINDS[kind]
        params = {}
        for flag in flags:
            value = getattr(args, flag)
            if value is None:
                want = " ".join(f"--{f}" for f in flags)
                raise InvalidParameterError(f"family {kind} needs {want}")
            params[flag] = value
        if kind != "permutation" and args.r not in (None, 2):
            raise InvalidParameterError("named families are order-2 instances; --r does not apply")
        if args.double or args.pattern:
            raise InvalidParameterError("named families have no host; --double and --pattern "
                                        "need --host or --input")
        return {"scheme": "named", "kind": kind, "params": params}

    if args.host and args.input:
        raise InvalidParameterError("--host and --input are mutually exclusive")
    if args.host:
        host_kind = args.host.replace("_", "-")
        host_cfg = {"kind": host_kind,
                    "params": _family_params(host_kind, lambda f: getattr(args, f))}
    else:
        host_cfg = {"doc": _load_hypergraph(args.input).to_json_dict()}
    host_cfg["double"] = bool(args.double)

    if args.pattern:
        def pattern_getter(flag):
            value = getattr(args, f"pattern_{flag}")
            if value is None and args.host:
                # fall back to the bare flag when the host kind does not use it
                host_flags = {f for f, _ in _FAMILY_FLAGS.get(host_cfg["kind"], ())}
                if flag not in host_flags:
                    value = getattr(args, flag)
            elif value is None and not args.host:
                value = getattr(args, flag)
            return value

        pattern_kind = args.pattern.replace("_", "-")
        pattern = {"kind": pattern_kind,
                   "params": _family_params(pattern_kind, pattern_getter, prefix="pattern-")}
        return {"scheme": "pattern", "host": host_cfg, "pattern": pattern,
                "r": 2 if args.r is None else args.r}
    return {"scheme": "raw", "host": host_cfg, "r": args.r}


def _cap_for(default: int, args) -> int | None:
    """Resolve --cap against the operation's default, enforcing the escape flag."""
    if args.cap is None:
        return None
    if args.cap > default and not args.i_know_this_is_huge:
        raise SizeCapError(
            f"--cap {args.cap} is above the default {default}; "
            "pass --i-know-this-is-huge to confirm"
        )
    return args.cap


def _build_cap(resolved: _Resolved) -> int:
    return DEFAULT_GRAPH_CAP if (resolved.r or 2) == 2 else DEFAULT_POWER_CAP


def _refuse_raw_cap(verb: str, resolved: _Resolved, cap) -> None:
    # build and export cap the Kneser power; a raw instance without --r has none
    if resolved.r is None and cap is not None:
        raise InvalidParameterError(f"{verb} does not read --cap on a raw instance without "
                                    "--r; it caps the Kneser power that --r asks for")


def _host_and_family(resolved: _Resolved) -> tuple[Hypergraph, PatternFamily]:
    if resolved.family is None:
        raise InvalidParameterError("this quantity needs a host and a pattern, "
                                    "not a bare representation")
    return resolved.host, resolved.family


def _resolve_ordering(args, resolved: _Resolved, fallback: str) -> dict:
    """Options echo of the ordering flags; ``fallback`` is the kind used without one.

    An ordering permutes the host edges, which are the representation's vertices.
    """
    if args.ordering:
        with open(args.ordering) as fh:
            sequence = _ints(json.load(fh), f"the ordering file {args.ordering}")
        sigma = LinearOrdering(tuple(sequence))
        return {"kind": "explicit", "sequence": list(sigma.sequence)}
    if args.interval:
        if resolved.family is None:
            raise InvalidParameterError(
                "--interval orders host edges, so it needs --host/--pattern "
                "(or --family), not a bare representation")
        sigma = interval_ordering(resolved.host, singles_last=args.singles_last)
        return {"kind": "interval", "sequence": list(sigma.sequence)}
    if args.identity or fallback == "identity":
        n = resolved.host.n_vertices if resolved.family is None else resolved.host.n_edges
        return {"kind": "identity", "sequence": list(range(n))}
    return {"kind": fallback}


# --- quantities ---

def _cap_kwargs(options: dict) -> dict:
    return {} if options["cap"] is None else {"cap": options["cap"]}


def _sigma(options: dict) -> LinearOrdering:
    _require(options["ordering"], ("sequence",), "the ordering echo")
    sequence = _ints(options["ordering"]["sequence"], "malformed document: the ordering sequence")
    return LinearOrdering(tuple(sequence))


def _compute_chi(target: Hypergraph, options: dict) -> dict:
    report = chromatic_number(target, **_cap_kwargs(options)).to_json_dict()
    return {"chi": report["value"], "assignment": report["assignment"],
            "witness": report["witness"]}


def _compute_vertex_set(quantity: str, solve, target: Hypergraph, options: dict) -> dict:
    value, witness = solve(target, **_cap_kwargs(options))
    return {quantity: value, "witness_vertices": sorted(witness)}


def _compute_ex(operand, options: dict) -> dict:
    host, family = operand
    report = turan_number(host, family, mode=options["mode"], seed=options["seed"],
                          restarts=options["restarts"], **_cap_kwargs(options))
    return {"ex": report.value, "report": report.to_json_dict()}


def _compute_alternating(quantity: str, operand, options: dict) -> dict:
    host, family = operand
    strong = quantity == "ex-salt"
    if options["ordering"]["kind"] != "minimized":
        report = ex_alt_sigma(host, family, _sigma(options), strong=strong,
                              **_cap_kwargs(options))
    else:
        report = ex_alt_min(host, family, strong=strong, mode=options["mode"],
                            seed=options["seed"], restarts=options["restarts"],
                            **_cap_kwargs(options))
    return {quantity: report.value, "report": report.to_json_dict()}


def _compute_alt_sigma(rep: Hypergraph, options: dict) -> dict:
    value = alt_sigma_level(rep, _sigma(options), i=options["i"], **_cap_kwargs(options))
    return {"alt": value, "i": options["i"]}


def _verify_alt_sigma(quantity: str, rep: Hypergraph, options: dict, result: dict) -> dict:
    _require(result, ("i",), "result", int)
    if result["i"] != options["i"]:
        raise VerificationError(f"result i is {result['i']}, the options echo says {options['i']}")
    return _verify_recompute(quantity, rep, options, result)


def _compute_salt_sigma(rep: Hypergraph, options: dict) -> dict:
    return {"salt": salt_sigma(rep, _sigma(options), **_cap_kwargs(options))}


def _compute_certificate(rep: Hypergraph, options: dict) -> dict:
    cert = altermatic_certificate(rep, _sigma(options), i=options["i"],
                                  strong=options["strong"], **_cap_kwargs(options))
    return {"value": cert.value, "certificate": cert.to_json_dict()}


def _verify_recompute(quantity: str, operand, options: dict, result: dict) -> dict:
    """Recompute the headline under the default caps and compare."""
    entry = _QUANTITIES[quantity]
    headline = entry.result_keys[0]
    recomputed = entry.compute(operand, {**options, "cap": None})[headline]
    claimed = result[headline]
    if recomputed != claimed:
        raise VerificationError(f"{quantity} recomputes to {recomputed}, document says {claimed}")
    return {"recomputed": True}


def _verify_vertex_set(quantity: str, target: Hypergraph, options: dict, result: dict) -> dict:
    """A witness that is not a list of ints is malformed. Otherwise recompute
    the headline, then check the witness: distinct vertices of the target,
    as many as the headline says, that contain no hyperedge (alpha) or meet
    every hyperedge (beta)."""
    witness = _ints(result["witness_vertices"], "malformed document: the witness vertices")
    checks = _verify_recompute(quantity, target, options, result)
    if len(set(witness)) != len(witness) or \
            any(not 0 <= v < target.n_vertices for v in witness):
        raise VerificationError("witness vertices repeat or are out of range")
    if len(witness) != result[quantity]:
        raise VerificationError(f"witness has {len(witness)} vertices, {quantity} is "
                                f"{result[quantity]}")
    mask = mask_of(witness)
    if quantity == "alpha" and any(em & ~mask == 0 for em in target.edge_masks):
        raise VerificationError("witness vertices contain a hyperedge")
    if quantity == "beta" and any(em & mask == 0 for em in target.edge_masks):
        raise VerificationError("witness vertices miss a hyperedge")
    return checks


def _verify_chi(quantity: str, target: Hypergraph, options: dict, result: dict) -> dict:
    checks = {}
    assignment = result.get("assignment")
    claimed = result["chi"]
    if assignment is not None:
        _ints(assignment, "malformed document: the assignment")
        if not validate_hypergraph_coloring(target, assignment):
            raise VerificationError("claimed coloring is not proper")
        if claimed != UNBOUNDED and len(set(assignment)) > claimed:
            raise VerificationError("coloring uses more colors than claimed")
        checks["coloring_proper"] = True
    checks.update(_verify_recompute(quantity, target, options, result))
    if assignment is None and claimed != UNBOUNDED:
        raise VerificationError(f"chi {claimed} comes without a coloring")
    _check_chi_witness(target, claimed, result["witness"])
    return checks


_CHI_WITNESS_KINDS = ("clique", "edgeless", "empty", "exhausted", "has-edges", "singleton-edge")


def _check_chi_witness(target: Hypergraph, claimed, witness) -> None:
    """The lower-bound witness of a chi document must back the claimed value.

    "empty" backs chi 0 on no vertex, "edgeless" chi 1 on some vertex and no
    edge, "has-edges" chi 2 on some edge, and "singleton-edge" chi
    "unbounded" on a one-vertex edge, the only kind that backs "unbounded".
    A clique backs its size; "exhausted" backs one more than the colors it
    says were refuted.
    """
    _require(witness, ("kind",), "the witness", str)
    kind = witness["kind"]
    if kind not in _CHI_WITNESS_KINDS:
        raise InvalidParameterError(f"malformed document: unknown witness kind {kind!r}")
    if (claimed == UNBOUNDED) != (kind == "singleton-edge"):
        raise VerificationError(f"a {kind} witness cannot back chi {claimed}")
    edges = target.edges
    fits = {
        "empty": claimed == 0 and target.n_vertices == 0,
        "edgeless": claimed == 1 and target.n_vertices > 0 and not edges,
        "has-edges": claimed == 2 and bool(edges),
        "singleton-edge": any(len(e) == 1 for e in edges),
    }
    if not fits.get(kind, True):
        raise VerificationError(f"the {kind} witness does not fit chi {claimed} "
                                f"on {target.n_vertices} vertices and {len(edges)} edges")
    if kind == "clique":
        _require(witness, ("members",), "the witness")
        members = _ints(witness["members"], "malformed document: the clique members")
        if len(members) != claimed:
            raise VerificationError(f"clique witness has {len(members)} members, chi is {claimed}")
        if len(set(members)) != len(members) or \
                any(not 0 <= v < target.n_vertices for v in members):
            raise VerificationError("clique witness members repeat or are out of range")
        # on a hypergraph target no two members count as adjacent
        adj = target.adjacency_masks() if target.is_graph else [0] * target.n_vertices
        if any(not adj[u] >> v & 1 for u, v in combinations(members, 2)):
            raise VerificationError("clique witness members are not pairwise adjacent")
    elif kind == "exhausted":
        _require(witness, ("refuted_colors",), "the witness", int)
        if witness["refuted_colors"] != claimed - 1:
            raise VerificationError("the refuted color count is not chi - 1")


def _verify_turan(quantity: str, operand, options: dict, result: dict) -> dict:
    host, family = operand
    report = TuranReport.from_json_dict(result["report"])
    if (report.quantity, report.value) != (quantity, result[quantity]):
        raise VerificationError("report quantity or value differs from the headline")
    checks = verify_turan_report(host, family, report)
    if quantity != "ex" and "sequence" in options["ordering"] and \
            report.witness_coloring.ordering != _sigma(options):
        raise VerificationError("the witness ordering differs from the options echo")
    if quantity != "ex" and options["ordering"]["kind"] == "minimized" and \
            report.mode == "exact":
        # a witness ordering bounds the minimum from above only: rescan where cheap
        if host.n_edges > DEFAULT_ORDERING_CAP:
            return {**checks, "value_rechecked": False}
        checks.update(_verify_recompute(quantity, operand, {**options, "mode": "exact"}, result))
    return checks


def _verify_certificate(quantity: str, rep: Hypergraph, options: dict, result: dict) -> dict:
    cert = AltermaticCertificate.from_json_dict(result["certificate"])
    if (cert.i, cert.strong, cert.ordering) != (options["i"], options["strong"], _sigma(options)):
        raise VerificationError("certificate level, form or ordering differs from the options echo")
    if cert.representation.canonical_json() != rep.canonical_json():
        raise VerificationError("certificate representation differs from the configured instance")
    if cert.value != result["value"]:
        raise VerificationError("certificate value differs from the headline value")
    return verify_certificate(cert)


class _Quantity(NamedTuple):
    """How the command line computes and verifies one quantity.

    ``operand`` builds what the quantity acts on from a resolved instance.
    ``ordering`` is the ordering kind echoed when no ordering flag is given,
    or None for quantities that read no ordering. ``compute`` reads only the
    operand and the options echo, so verify can rerun it from a document.
    ``result_keys`` are the result fields verify reads, the headline first.
    ``reads`` names which of the options in _QUANTITY_OPTIONS the quantity
    reads, besides the ordering flags, which every quantity with an ordering
    kind reads; compute refuses any other one set away from its default, and
    _check_options narrows both by the ordering given.
    """

    result_keys: tuple[str, ...]
    operand: Callable[[_Resolved], object]
    default_cap: Callable[[argparse.Namespace], int]
    compute: Callable[[object, dict], dict]
    verify: Callable[[str, object, dict, dict], dict]
    ordering: str | None = None
    reads: tuple[str, ...] = ()

    def reads_option(self, option: str) -> bool:
        return option in self.reads or (option in _ORDERING_FLAGS and self.ordering is not None)


def _fixed_ordering(options: dict) -> bool:
    """Whether parsed arguments or an options echo fix the ordering (with
    --ordering, --interval or --identity), so that ex-alt and ex-salt run
    ex_alt_sigma rather than the ordering scan."""
    ordering = options.get("ordering")
    if isinstance(ordering, dict):  # the echo folds the ordering flags into one record
        return ordering.get("kind") != "minimized"
    return bool(ordering or options.get("interval") or options.get("identity"))


def _alternating_cap(args) -> int:
    # ex_alt_sigma's default cap is the Turan cap; without a fixed ordering,
    # --cap is checked against the ordering scan's default
    return DEFAULT_TURAN_CAP if _fixed_ordering(vars(args)) else DEFAULT_ORDERING_CAP


_SEARCH_OPTIONS = ("mode", "seed", "restarts")

_QUANTITIES = {
    "chi": _Quantity(("chi", "witness"), _target_of, lambda args: DEFAULT_SOLVER_CAP,
                     _compute_chi, _verify_chi, reads=("r",)),
    "alpha": _Quantity(("alpha", "witness_vertices"), _target_of,
                       lambda args: DEFAULT_SOLVER_CAP,
                       partial(_compute_vertex_set, "alpha", independence_number),
                       _verify_vertex_set, reads=("r",)),
    "beta": _Quantity(("beta", "witness_vertices"), _target_of,
                      lambda args: DEFAULT_SOLVER_CAP,
                      partial(_compute_vertex_set, "beta", covering_number), _verify_vertex_set,
                      reads=("r",)),
    "ex": _Quantity(("ex", "report"), _host_and_family, lambda args: DEFAULT_TURAN_CAP,
                    _compute_ex, _verify_turan, reads=_SEARCH_OPTIONS),
    "ex-alt": _Quantity(("ex-alt", "report"), _host_and_family, _alternating_cap,
                        partial(_compute_alternating, "ex-alt"), _verify_turan, "minimized",
                        _SEARCH_OPTIONS),
    "ex-salt": _Quantity(("ex-salt", "report"), _host_and_family, _alternating_cap,
                         partial(_compute_alternating, "ex-salt"), _verify_turan, "minimized",
                         _SEARCH_OPTIONS),
    "alt-sigma": _Quantity(("alt", "i"), _rep_of, lambda args: DEFAULT_ALT_CAP,
                           _compute_alt_sigma, _verify_alt_sigma, "identity", ("i",)),
    "salt-sigma": _Quantity(("salt",), _rep_of, lambda args: DEFAULT_ALT_CAP,
                            _compute_salt_sigma, _verify_recompute, "identity"),
    "certificate": _Quantity(("value", "certificate"), _rep_of, lambda args: DEFAULT_ALT_CAP,
                             _compute_certificate, _verify_certificate, "identity",
                             ("i", "strong")),
}


# --- verbs ---

_OPTION_KEYS = ("r", "i", "strong", "mode", "seed", "restarts", "cap", "ordering")

# the options only some quantities read: (name, default, what to use instead).
# The options echo folds the ordering flags into "ordering", so verify finds
# only that one of them; compute finds all four among the parsed arguments.
_QUANTITY_OPTIONS = (
    ("r", None, ""),
    ("i", 1, ""),
    ("strong", False, "; the strong alternations are ex-salt and salt-sigma"),
    ("mode", "auto", ""),
    ("seed", 0, ""),
    ("restarts", 64, ""),
    ("ordering", None, ""),
    ("interval", False, ""),
    ("identity", False, ""),
    ("singles_last", False, ""),
)
_ORDERING_FLAGS = ("ordering", "interval", "identity", "singles_last")


def _check_options(name: str, options: dict, instance) -> None:
    """Refuse any option of _QUANTITY_OPTIONS away from its default that ``name`` does not read.

    The r of a named instance is a parameter of its family (permutation), or
    2, the only order the other families take, so it is not checked here.
    A quantity with an ordering kind reads the search options only when it
    scans the orderings, not at a fixed ordering, and --singles-last only
    with --interval.
    """
    named = isinstance(instance, dict) and instance.get("scheme") == "named"
    quantity = _QUANTITIES[name]
    for option, default, hint in _QUANTITY_OPTIONS:
        if (option == "r" and named) or options.get(option, default) == default:
            continue
        flag = option.replace("_", "-")
        if not quantity.reads_option(option):
            users = ", ".join(n for n, q in _QUANTITIES.items() if q.reads_option(option))
            raise InvalidParameterError(
                f"{name} does not read --{flag}, which applies to {users}{hint}")
        if option in _SEARCH_OPTIONS and quantity.ordering and _fixed_ordering(options):
            raise InvalidParameterError(
                f"{name} does not read --{flag} at a fixed ordering; it applies to the "
                "ordering scan, which runs when no ordering flag is given")
        if option == "singles_last" and not options.get("interval"):
            raise InvalidParameterError(
                f"{name} does not read --singles-last without --interval, whose layout it changes")


def _options_echo(args, cap, ordering_echo) -> dict:
    echo = {key: getattr(args, key, None) for key in _OPTION_KEYS}
    echo.update(strong=bool(echo["strong"]), cap=cap, ordering=ordering_echo)
    return echo


def _run_build(args) -> tuple[dict, int]:
    resolved = _rebuild_instance(_instance_config(args))
    _refuse_raw_cap(args.verb, resolved, args.cap)
    cap = _cap_for(_build_cap(resolved), args)
    target = _target_of(resolved, cap)
    config = {"verb": "build", "instance": resolved.config,
              "options": _options_echo(args, cap, None)}
    result = {
        "hypergraph": target.to_json_dict(),
        "n_vertices": target.n_vertices,
        "n_edges": target.n_edges,
    }
    return {"config": config, "result": result}, 0


def _run_compute(args) -> tuple[dict, int]:
    quantity = _QUANTITIES[args.quantity]
    instance = _instance_config(args)
    _check_options(args.quantity, vars(args), instance)
    resolved = _rebuild_instance(instance)
    cap = _cap_for(quantity.default_cap(args), args)
    operand = quantity.operand(resolved)
    ordering = _resolve_ordering(args, resolved, quantity.ordering) if quantity.ordering else None
    options = _options_echo(args, cap, ordering)
    config = {"verb": "compute", "quantity": args.quantity, "instance": resolved.config,
              "options": options}
    return {"config": config, "result": quantity.compute(operand, options)}, 0


def _run_export(args) -> tuple[str, int]:
    resolved = _rebuild_instance(_instance_config(args))
    _refuse_raw_cap(args.verb, resolved, args.cap)
    cap = _cap_for(_build_cap(resolved), args)
    target = _target_of(resolved, cap)
    if args.format == "dimacs":
        # an order-3 or higher power stays a hypergraph even when it has no edges
        if resolved.r not in (None, 2) or not target.is_graph:
            raise InvalidParameterError("DIMACS export needs a 2-uniform result")
        return to_dimacs(target), 0
    return target.canonical_json() + "\n", 0


def _run_golden(args) -> tuple[dict, int]:
    selection = args.only.split(",") if args.only else None
    report = run_golden_suite(selection)
    config = {"verb": "golden", "selection": selection}
    return {"config": config, "result": report}, 0 if report["ok"] else 1


def _run_verify(args) -> tuple[dict, int]:
    with open(args.document) as fh:
        doc = json.load(fh)
    return _verify_document(doc)


def _verify_document(doc) -> tuple[dict, int]:
    _require(doc, (), "the document")
    if "alt_value" in doc:
        checks = verify_certificate(AltermaticCertificate.from_json_dict(doc))
        return {"verified": True, "kind": "certificate", "checks": checks}, 0
    if "config" in doc and "result" in doc:
        return _verify_run_document(doc)
    if "edges" in doc and "n" in doc:
        h = Hypergraph.from_json_dict(doc)
        again = json.loads(h.canonical_json())
        if again != doc:
            raise VerificationError("hypergraph document is not in canonical form")
        return {"verified": True, "kind": "hypergraph", "checks": {"canonical": True}}, 0
    raise InvalidParameterError("unrecognized document; expected a run output, "
                                "a certificate, or a hypergraph")


def _verify_run_document(doc: dict) -> tuple[dict, int]:
    config, result = doc["config"], doc["result"]
    _require(config, ("verb", "instance"), "config")
    verb = config["verb"]
    if verb == "build":
        _require(result, ("hypergraph",), "result")
        _require(result, ("n_vertices", "n_edges"), "result", int)
        resolved = _rebuild_instance(config["instance"])
        _require(config, ("options",), "config")
        _require(config["options"], (), "options")
        _refuse_raw_cap("build", resolved, config["options"].get("cap"))
        target = _target_of(resolved)
        if (target.to_json_dict(), target.n_vertices, target.n_edges) != \
                (result["hypergraph"], result["n_vertices"], result["n_edges"]):
            raise VerificationError("rebuilt hypergraph differs from the document")
        return {"verified": True, "kind": "build", "checks": {"rebuilt": True}}, 0
    if verb != "compute":
        raise InvalidParameterError(f"cannot verify documents from verb {verb!r}; "
                                    "re-run golden reports with the golden verb")

    _require(config, ("options",), "config")
    _require(config, ("quantity",), "config", str)
    name = config["quantity"]
    if name not in _QUANTITIES:
        raise InvalidParameterError(f"cannot verify quantity {name!r}")
    quantity = _QUANTITIES[name]
    _require(config["options"], _OPTION_KEYS, "options")
    _require(config["options"], ("i", "seed", "restarts"), "options", int)
    _check_options(name, config["options"], config["instance"])
    if quantity.ordering:
        _require(config["options"]["ordering"], ("kind",), "the ordering echo")
    _require(result, quantity.result_keys, "result")
    if name != "chi" or result["chi"] != UNBOUNDED:
        _require(result, quantity.result_keys[:1], "result", int)
    operand = quantity.operand(_rebuild_instance(config["instance"]))
    checks = quantity.verify(name, operand, config["options"], result)
    return {"verified": True, "kind": name, "checks": checks}, 0


_VERBS = {"build": _run_build, "compute": _run_compute, "verify": _run_verify,
          "golden": _run_golden, "export": _run_export}


# --- rendering and entry point ---

def _pretty_lines(doc, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, dict) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
    else:
        lines.append(f"{pad}{json.dumps(doc, sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = _VERBS[args.verb](args)
    except VerificationError as exc:
        print(canonical_dumps({"verified": False, "reason": str(exc)}))
        return 1
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 2
    except InvalidParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except KneserTuranError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read file: {exc}", file=sys.stderr)
        return 2

    if isinstance(out, str):
        sys.stdout.write(out)
    elif getattr(args, "pretty", False):
        print("\n".join(_pretty_lines(out)))
    else:
        print(canonical_dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
