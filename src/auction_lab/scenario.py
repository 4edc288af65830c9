"""Scenario file schema (version 1) and its validating parser.

A scenario is a JSON document naming a market (components + weights), a
mechanism, optional extra bidders and estimator settings:

    {
      "version": 1,
      "id": "my-scenario",
      "market": {
        "components": [{"family": "uniform", "a": 0, "b": 1},
                       {"family": "exponential", "rate": 1.0}],
        "weights": [[0.5, 0.5], [0.5, 0.5]]
      },
      "mechanism": {"kind": "second_price", "reserve": 0.5},
      "extras": [{"component": 0}, {"value": 1.0}],
      "estimator": {"seed": 7, "n_samples": 100000, "n_streams": 8}
    }

An i.i.d. market may give a single weights row: {"components": [...],
"iid": true, "weights": [0.5, 0.5], "n": 4}.  The seed is mandatory (no
wall-clock seeding); callers may inject a fallback seed taken from a CLI
flag or the AUCTION_LAB_SEED environment variable.  Estimator keys left
out take EstimatorConfig's defaults.

`parse_scenario` reads every field once, through the readers below, and
builds the mechanism spec against the parsed market.  Numbers must be
finite, and counts, indices and seeds JSON integers (booleans are
neither); a malformed field raises SchemaError naming its path, such as
``mechanism.prices[1]``.

Version bumps are breaking: any version other than 1 is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    EqualRevenue,
    Exponential,
    PointMass,
    PowerLaw,
    TruncatedNormal,
    TwoPoint,
    Uniform,
)
from .errors import SchemaError
from .mechanisms import (
    MechanismSpec,
    MyersonIroned,
    MyersonRegular,
    PostedSequence,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceBidderReserves,
    SecondPriceSubsetReserve,
)
from .mixtures import DEFAULT_IRONING_GRID, MarketModel, build_market, iron
from .revenue import ComponentExtra, DeterministicExtra, EstimatorConfig

__all__ = ["ScenarioConfig", "parse_scenario", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

# family name -> (class, its positional parameters' field names)
_FAMILIES = {
    "uniform": (Uniform, ("a", "b")),
    "exponential": (Exponential, ("rate",)),
    "power_law": (PowerLaw, ("alpha",)),
    "equal_revenue": (EqualRevenue, ()),
    "truncated_normal": (TruncatedNormal, ("mu", "sigma")),
    "point_mass": (PointMass, ("value",)),
    "two_point": (TwoPoint, ("lo", "hi", "p_hi")),
}


# Each reader takes (obj, key, path): obj is a JSON object and key a field
# name, or obj is a list and key an index; path locates obj in the document.


def _at(path, key):
    if isinstance(key, int):
        return f"{path}[{key}]"
    return key if path == "$" else f"{path}.{key}"


def _need(obj, key, path, kind=None):
    if isinstance(key, str) and (not isinstance(obj, dict) or key not in obj):
        raise SchemaError(_at(path, key), "required field missing")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(_at(path, key), f"expected {kind.__name__}")
    return val


def _number(obj, key, path):
    val = _need(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise SchemaError(_at(path, key), "expected a finite number")
    return float(val)


def _integer(obj, key, path, minimum=None):
    val = _need(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(_at(path, key), "expected an integer")
    if minimum is not None and val < minimum:
        raise SchemaError(_at(path, key), f"expected an integer >= {minimum}")
    return val


def _list(obj, key, path, read):
    """obj[key] as a tuple, each item read by `read(items, index, path)`."""
    items = _need(obj, key, path, list)
    where = _at(path, key)
    return tuple(read(items, i, where) for i in range(len(items)))


def _parse_distribution(obj, key, path):
    spec = _need(obj, key, path, dict)
    path = _at(path, key)
    family = _need(spec, "family", path)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise SchemaError(
            f"{path}.family",
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}",
        )
    family_cls, fields = _FAMILIES[family]
    args = [_number(spec, f, path) for f in fields]
    try:
        return family_cls(*args)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _number_row(obj, key, path):
    return _list(obj, key, path, _number)


def _parse_market(section) -> MarketModel:
    components = _list(section, "components", "market", _parse_distribution)
    if not components:
        raise SchemaError("market.components", "at least one component required")
    if "iid" in section and _need(section, "iid", "market", bool):
        n = _integer(section, "n", "market", minimum=1)
        rows = [_number_row(section, "weights", "market")] * n
    else:
        rows = _list(section, "weights", "market", _number_row)
    if not rows:
        raise SchemaError("market.weights", "expected a list of rows")
    for i, row in enumerate(rows):
        where = f"market.weights[{i}]"
        if len(row) != len(components):
            raise SchemaError(where, f"rows must have {len(components)} entries")
        if min(row) < 0.0:
            raise SchemaError(where, "negative entry")
        if abs(sum(row) - 1.0) > 1e-12:
            raise SchemaError(where, f"row sum {sum(row)!r} != 1")
    return build_market(components, rows)


def _parse_extras(doc, k):
    def extra(raw, j, path):
        spec = _need(raw, j, path, dict)
        path = _at(path, j)
        if "component" in spec:
            idx = _integer(spec, "component", path, minimum=0)
            if idx >= k:
                raise SchemaError(f"{path}.component", f"index {idx} >= k={k}")
            return ComponentExtra(idx)
        if "value" in spec:
            return DeterministicExtra(_number(spec, "value", path))
        raise SchemaError(path, "needs 'component' or 'value'")

    return _list(doc, "extras", "$", extra) if "extras" in doc else ()


def _parse_mechanism(raw, market: MarketModel, extras):
    """(spec, extras) of mechanism section `raw` against the parsed market: a
    sample reserve is a subset reserve over one extra per listed component,
    placed after the scenario's own extras."""
    path = "mechanism"
    kind = _need(raw, "kind", path)
    if kind == "second_price":
        if "reserve" in raw and "bidder_reserves" in raw:
            raise SchemaError(path, "set at most one reserve mode")
        if "reserve" in raw:
            return SecondPriceAnonymousReserve(_number(raw, "reserve", path)), extras
        if "bidder_reserves" in raw:
            reserves = _number_row(raw, "bidder_reserves", path)
            total_columns = market.n + len(extras)
            if len(reserves) != total_columns:
                raise SchemaError(
                    "mechanism.bidder_reserves",
                    f"need one reserve per column ({total_columns})",
                )
            return SecondPriceBidderReserves(reserves), extras
        return SecondPrice(), extras
    if kind == "myerson_regular":
        dists = []
        for i in range(market.n):
            hot = np.flatnonzero(market.weights[i] > 0.0)
            if len(hot) != 1:
                raise SchemaError(
                    path, f"myerson_regular needs degenerate weight rows; row {i} mixes"
                )
            dists.append(market.components[int(hot[0])])
        for spec in extras:
            if not isinstance(spec, ComponentExtra):
                raise SchemaError("extras", "myerson_regular extras must be component draws")
            dists.append(market.components[spec.index])
        return MyersonRegular(tuple(dists)), extras
    if kind == "myerson_ironed":
        if extras:
            raise SchemaError("extras", "myerson_ironed does not take extras")
        grid = DEFAULT_IRONING_GRID
        if "grid_size" in raw:
            grid = _integer(raw, "grid_size", path)
        return MyersonIroned(tuple(iron(market, i, grid) for i in range(market.n))), extras
    if kind == "posted_sequence":
        prices = _number_row(raw, "prices", path)
        return PostedSequence(prices, _list(raw, "order", path, _integer)), extras
    if kind == "second_price_subset_reserve":
        return SecondPriceSubsetReserve(_list(raw, "subset", path, _integer)), extras
    if kind == "second_price_sample_reserve":
        draws = tuple(ComponentExtra(t) for t in _list(raw, "components", path, _integer))
        first = market.n + len(extras)
        return SecondPriceSubsetReserve(tuple(range(first, first + len(draws)))), extras + draws
    raise SchemaError("mechanism.kind", f"unknown kind {kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: market, built mechanism spec, extras and estimator.

    `kind` is the scenario's mechanism kind, the label of its report row;
    `extras` include a sample reserve's draws, last.
    """

    scenario_id: str
    market: MarketModel
    kind: str
    mechanism: MechanismSpec
    extras: tuple
    estimator: EstimatorConfig


def parse_scenario(text: str, default_seed: int | None = None) -> ScenarioConfig:
    """Parse and validate scenario text; diagnostics name the field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    version = _integer(doc, "version", "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("version", f"unsupported version {version!r}; expected 1")

    market = _parse_market(_need(doc, "market", "$", dict))
    extras = _parse_extras(doc, market.k)
    mech_raw = _need(doc, "mechanism", "$", dict)
    try:
        mechanism, extras = _parse_mechanism(mech_raw, market, extras)
    except ValueError as exc:  # a spec constructor refused the parsed values
        raise SchemaError("mechanism", str(exc)) from exc

    est_raw = _need(doc, "estimator", "$", dict) if "estimator" in doc else {}
    seed = default_seed
    if "seed" in est_raw:
        seed = _integer(est_raw, "seed", "estimator", minimum=0)
    if seed is None:
        raise SchemaError("estimator.seed", "required (no wall-clock seeding)")
    counts = {
        key: _integer(est_raw, key, "estimator", minimum=1)
        for key in ("n_samples", "n_streams")
        if key in est_raw
    }
    return ScenarioConfig(
        scenario_id=_need(doc, "id", "$", str) if "id" in doc else "scenario",
        market=market,
        kind=mech_raw["kind"],
        mechanism=mechanism,
        extras=extras,
        estimator=EstimatorConfig(seed=seed, **counts),
    )
