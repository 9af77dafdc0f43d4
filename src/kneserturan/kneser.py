"""General Kneser hypergraphs and the classic named instances.

The r-th Kneser power of a representation hypergraph H has one vertex per
hyperedge of H and one r-uniform hyperedge per r-set of pairwise disjoint
hyperedges of H. With r=2 this is the disjointness graph. Stock families
(Kneser, stable/Schrijver, circular complete, low-intersection, partial
permutation graphs) are each a host and a pattern, built through the
occurrence machinery like any other instance.

The instance echo that every CLI document and every golden case carries
(scheme named, pattern or raw) is resolved here too, by _rebuild_instance;
_target_of builds the hypergraph a verb acts on from it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameterError, SizeCapError
from .hyperstruct import Hypergraph, Record, _require, build_named_family, doubled
from .patterns import PatternFamily, family_of, pattern_hypergraph

DEFAULT_GRAPH_CAP = 4096
DEFAULT_POWER_CAP = 512


class KneserInstance(Record):
    _fields = ("representation", "r", "result")

    def __init__(self, representation: Hypergraph, r: int, result: Hypergraph):
        self.__dict__.update(representation=representation, r=r, result=result)


def kneser_power(rep: Hypergraph, r: int = 2, cap: int | None = None) -> KneserInstance:
    """Disjointness structure of the representation's hyperedges.

    Vertices of the result are rep edge ids; hyperedges are the r-sets of
    pairwise disjoint rep edges, emitted in lexicographic id order. Isolated
    rep vertices never matter here, and rep edges that meet everything
    simply end up isolated in the result.
    """
    if r < 2:
        raise InvalidParameterError("kneser_power needs r >= 2")
    if cap is None:
        cap = DEFAULT_GRAPH_CAP if r == 2 else DEFAULT_POWER_CAP
    m = rep.n_edges
    if m > cap:
        raise SizeCapError(f"representation has {m} edges, above the cap {cap}")
    masks = rep.edge_masks
    edges: list[frozenset[int]] = []
    if r == 2:
        for i in range(m):
            for j in range(i + 1, m):
                if masks[i] & masks[j] == 0:
                    edges.append(frozenset({i, j}))
    else:
        chosen: list[int] = []

        def rec(start: int, union: int):
            if len(chosen) == r:
                edges.append(frozenset(chosen))
                return
            for j in range(start, m):
                if masks[j] & union == 0:
                    chosen.append(j)
                    rec(j + 1, union | masks[j])
                    chosen.pop()

        rec(0, 0)
    return KneserInstance(rep, r, Hypergraph(m, tuple(edges)))


def kneser_of_family(host: Hypergraph, family: PatternFamily, r: int = 2,
                     cap: int | None = None) -> KneserInstance:
    """Kneser power of the occurrence hypergraph of (host, family)."""
    return kneser_power(pattern_hypergraph(host, family), r, cap)


# --- named instances ---

class NamedKneser(Record):
    """A member of a named family: its host, its pattern and their Kneser graph."""

    _fields = ("kind", "params", "host", "family", "instance")

    def __init__(self, kind: str, params: tuple[tuple[str, int], ...], host: Hypergraph,
                 family: PatternFamily, instance: KneserInstance):
        self.__dict__.update(kind=kind, params=params, host=host, family=family,
                             instance=instance)

    @property
    def graph(self) -> Hypergraph:
        return self.instance.result


def build_named_kneser(kind: str, **params) -> NamedKneser:
    """kind: kneser(n,k), schrijver(n,k), circular(n,d),
    generalized-kneser(n,k,s), permutation(m,n,r); "_" may stand for "-"."""
    try:
        _, builder = _NAMED_KINDS[kind.replace("_", "-")]
    except KeyError:
        raise InvalidParameterError(f"unknown named Kneser kind {kind!r}") from None
    host, family = builder(**params)
    return NamedKneser(kind.replace("_", "-"), tuple(sorted(params.items())), host, family,
                       kneser_of_family(host, family))


def _kneser(n: int, k: int):
    _ensure(n >= 2 * k and k >= 1, "kneser needs n >= 2k >= 2")
    return build_named_family("matching", n=n), family_of(build_named_family("matching", n=k))


def _schrijver(n: int, k: int):
    _ensure(n >= 2 * k and k >= 1, "schrijver needs n >= 2k >= 2")
    return build_named_family("cycle", n=n), family_of(build_named_family("matching", n=k))


def _circular(n: int, d: int):
    _ensure(d >= 1 and n >= 2 * d, "circular needs n >= 2d >= 2")
    return build_named_family("cycle", n=n), family_of(build_named_family("path", length=d))


def _generalized_kneser(n: int, k: int, s: int):
    _ensure(0 <= s < k <= n, "generalized_kneser needs n >= k > s >= 0")
    return (build_named_family("complete_uniform", n=n, s=s + 1),
            family_of(build_named_family("complete_uniform", n=k, s=s + 1)))


def _permutation(m: int, n: int, r: int):
    _ensure(1 <= r <= min(m, n), "permutation needs 1 <= r <= min(m, n)")
    return (build_named_family("complete_bipartite", m=m, n=n),
            family_of(build_named_family("matching", n=r)))


def _ensure(condition: bool, message: str):
    if not condition:
        raise InvalidParameterError(message)


# The named families, keyed by their CLI spelling: the CLI flags, in the order
# of the builder's arguments, and the builder, which checks its arguments and
# returns (host, pattern).
_NAMED_KINDS = {
    "kneser": (("n", "k"), _kneser),
    "schrijver": (("n", "k"), _schrijver),
    "circular": (("n", "d"), _circular),
    "generalized-kneser": (("n", "k", "s"), _generalized_kneser),
    "permutation": (("m", "n", "r"), _permutation),
}


# --- instance echoes ---

# cli flag name -> keyword of build_named_family, per host/pattern kind
_FAMILY_FLAGS = {
    "complete": (("n", "n"),),
    "cycle": (("n", "n"),),
    "path": (("len", "length"),),
    "matching": (("n", "n"),),
    "complete-bipartite": (("m", "m"), ("n", "n")),
    "complete-uniform": (("n", "n"), ("s", "s")),
}

class _Resolved(NamedTuple):
    """An instance rebuilt from its config echo.

    ``host`` is the host of a named or pattern instance, or the raw
    hypergraph; ``family`` is None only for the raw scheme.
    """

    config: dict
    host: Hypergraph
    family: PatternFamily | None = None
    r: int | None = None


def _family_params(kind: str, getter, prefix: str = "") -> dict:
    if kind not in _FAMILY_FLAGS:
        raise InvalidParameterError(f"unknown graph kind {kind!r}; choose from "
                                    + ", ".join(sorted(_FAMILY_FLAGS)))
    params = {}
    for flag, _ in _FAMILY_FLAGS[kind]:
        value = getter(flag)
        if value is None:
            want = " and ".join(f"--{prefix}{f}" for f, _ in _FAMILY_FLAGS[kind])
            raise InvalidParameterError(f"{kind} needs {want}")
        params[flag] = value
    return params


def _family_of_echo(cfg: dict, what: str) -> Hypergraph:
    _require(cfg, ("kind", "params"), what)
    _require(cfg, ("kind",), what, str)
    _require(cfg["params"], (), f"the params of {what}")
    params = _family_params(cfg["kind"], cfg["params"].get)
    _require(params, tuple(params), f"the params of {what}", int)
    return build_named_family(cfg["kind"], **{
        kw: params[flag] for flag, kw in _FAMILY_FLAGS[cfg["kind"]]
    })


def _rebuild_instance(config: dict) -> _Resolved:
    """Inverse of the config echo: reconstruct exactly what a run resolved."""
    _require(config, ("scheme",), "the instance")
    scheme = config["scheme"]
    if scheme == "named":
        _require(config, ("kind", "params"), "the named instance")
        _require(config, ("kind",), "the named instance", str)
        kind = config["kind"]
        if kind not in _NAMED_KINDS:
            raise InvalidParameterError(f"malformed document: unknown family {kind!r}")
        flags, builder = _NAMED_KINDS[kind]
        _require(config["params"], flags, "the named instance params", int)
        host, family = builder(**{f: config["params"][f] for f in flags})
        return _Resolved(config, host, family, r=2)
    if scheme not in ("pattern", "raw"):
        raise InvalidParameterError(f"malformed document: unknown instance scheme {scheme!r}")
    _require(config, ("host", "pattern") if scheme == "pattern" else ("host",), "the instance")
    host_cfg = config["host"]
    _require(host_cfg, (), "the host")
    if "doc" in host_cfg:
        host = Hypergraph.from_json_dict(host_cfg["doc"])
    else:
        host = _family_of_echo(host_cfg, "the host")
    if "double" in host_cfg:
        _require(host_cfg, ("double",), "the host", bool)
    if host_cfg.get("double"):
        host = doubled(host)
    r = config.get("r", 2 if scheme == "pattern" else None)
    if r is not None or scheme == "pattern":  # only a raw instance may have no power
        if type(r) is not int:
            raise InvalidParameterError("malformed document: in the instance, r is not of type int")
        _ensure(r >= 2, f"a Kneser power needs r >= 2, not {r}")
    if scheme == "pattern":
        family = family_of(_family_of_echo(config["pattern"], "the pattern"))
        return _Resolved(config, host, family, r=r)
    return _Resolved(config, host, r=r)


def _target_of(resolved: _Resolved, cap: int | None = None) -> Hypergraph:
    """The object a chi/alpha/beta/build/export verb acts on."""
    if resolved.family is not None:
        return kneser_of_family(resolved.host, resolved.family, r=resolved.r, cap=cap).result
    if resolved.r is not None:
        return kneser_power(resolved.host, r=resolved.r, cap=cap).result
    return resolved.host


def _rep_of(resolved: _Resolved) -> Hypergraph:
    """The representation whose sign-vector quantities are being asked for."""
    if resolved.family is not None:
        return pattern_hypergraph(resolved.host, resolved.family)
    return resolved.host
