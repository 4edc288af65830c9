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
flag or the AUCTION_LAB_SEED environment variable.

Version bumps are breaking: any version other than 1 is rejected.
"""

from __future__ import annotations

import json
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
    MyersonIroned,
    MyersonRegular,
    PostedSequence,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceBidderReserves,
    SecondPriceSampleReserve,
    SecondPriceSubsetReserve,
)
from .mixtures import DEFAULT_IRONING_GRID, MarketModel, build_market, iron
from .revenue import ComponentExtra, DeterministicExtra, EstimatorConfig

__all__ = ["ScenarioConfig", "parse_scenario", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_FAMILY_FIELDS = {
    "uniform": ("a", "b"),
    "exponential": ("rate",),
    "power_law": ("alpha",),
    "equal_revenue": (),
    "truncated_normal": ("mu", "sigma"),
    "point_mass": ("value",),
    "two_point": ("lo", "hi", "p_hi"),
}

_MECHANISM_KINDS = (
    "second_price",
    "myerson_regular",
    "myerson_ironed",
    "posted_sequence",
    "second_price_subset_reserve",
    "second_price_sample_reserve",
)


def _need(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{path}.{key}", "required field missing")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _number(obj, key, path):
    val = _need(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{path}.{key}", "expected a number")
    return float(val)


def _parse_distribution(spec, path):
    family = _need(spec, "family", path)
    if family not in _FAMILY_FIELDS:
        raise SchemaError(
            f"{path}.family",
            f"unknown family {family!r}; known: {sorted(_FAMILY_FIELDS)}",
        )
    args = {f: _number(spec, f, path) for f in _FAMILY_FIELDS[family]}
    try:
        if family == "uniform":
            return Uniform(args["a"], args["b"])
        if family == "exponential":
            return Exponential(args["rate"])
        if family == "power_law":
            return PowerLaw(args["alpha"])
        if family == "equal_revenue":
            return EqualRevenue()
        if family == "truncated_normal":
            return TruncatedNormal(args["mu"], args["sigma"])
        if family == "point_mass":
            return PointMass(args["value"])
        return TwoPoint(args["lo"], args["hi"], args["p_hi"])
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_market(section) -> MarketModel:
    comps_raw = _need(section, "components", "market", list)
    if not comps_raw:
        raise SchemaError("market.components", "at least one component required")
    components = [
        _parse_distribution(c, f"market.components[{t}]")
        for t, c in enumerate(comps_raw)
    ]
    weights_raw = _need(section, "weights", "market", list)
    if section.get("iid"):
        n = _need(section, "n", "market")
        if not isinstance(n, int) or n < 1:
            raise SchemaError("market.n", "expected a positive integer")
        rows = [weights_raw] * n
    else:
        rows = weights_raw
    if not rows or not all(isinstance(r, list) for r in rows):
        raise SchemaError("market.weights", "expected a list of rows")
    w = np.asarray(rows, dtype=float)
    if w.ndim != 2 or w.shape[1] != len(components):
        raise SchemaError("market.weights", f"rows must have {len(components)} entries")
    if np.any(w < 0.0):
        i = int(np.argwhere((w < 0.0).any(axis=1))[0][0])
        raise SchemaError(f"market.weights[{i}]", "negative entry")
    sums = w.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-12
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SchemaError(f"market.weights[{i}]", f"row sum {sums[i]!r} != 1")
    return build_market(components, rows)


def _parse_extras(raw):
    extras = []
    for j, spec in enumerate(raw):
        path = f"extras[{j}]"
        if not isinstance(spec, dict):
            raise SchemaError(path, "expected an object")
        if "component" in spec:
            idx = spec["component"]
            if not isinstance(idx, int) or idx < 0:
                raise SchemaError(f"{path}.component", "expected a component index")
            extras.append(ComponentExtra(idx))
        elif "value" in spec:
            extras.append(DeterministicExtra(_number(spec, "value", path)))
        else:
            raise SchemaError(path, "needs 'component' or 'value'")
    return tuple(extras)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: market, mechanism recipe, extras and estimator."""

    scenario_id: str
    market: MarketModel
    mechanism_raw: dict
    extras: tuple
    estimator: EstimatorConfig

    def mechanism(self):
        """Build the mechanism spec against this scenario's market."""
        raw = self.mechanism_raw
        kind = raw["kind"]
        total_columns = self.market.n + len(self.extras)
        if kind == "second_price":
            if "reserve" in raw and "bidder_reserves" in raw:
                raise SchemaError("mechanism", "set at most one reserve mode")
            if "reserve" in raw:
                return SecondPriceAnonymousReserve(float(raw["reserve"]))
            if "bidder_reserves" in raw:
                reserves = tuple(float(r) for r in raw["bidder_reserves"])
                if len(reserves) != total_columns:
                    raise SchemaError(
                        "mechanism.bidder_reserves",
                        f"need one reserve per column ({total_columns})",
                    )
                return SecondPriceBidderReserves(reserves)
            return SecondPrice()
        if kind == "myerson_regular":
            dists = []
            for i in range(self.market.n):
                row = self.market.weights[i]
                hot = np.flatnonzero(row > 0.0)
                if len(hot) != 1:
                    raise SchemaError(
                        "mechanism",
                        f"myerson_regular needs degenerate weight rows; row {i} mixes",
                    )
                dists.append(self.market.components[int(hot[0])])
            for spec in self.extras:
                if not isinstance(spec, ComponentExtra):
                    raise SchemaError(
                        "extras", "myerson_regular extras must be component draws"
                    )
                dists.append(self.market.components[spec.index])
            return MyersonRegular(tuple(dists))
        if kind == "myerson_ironed":
            grid = raw.get("grid_size", DEFAULT_IRONING_GRID)
            curves = [iron(self.market, i, grid) for i in range(self.market.n)]
            if self.extras:
                raise SchemaError("extras", "myerson_ironed does not take extras")
            return MyersonIroned(tuple(curves))
        if kind == "posted_sequence":
            prices = tuple(float(p) for p in _need(raw, "prices", "mechanism", list))
            order = tuple(int(i) for i in _need(raw, "order", "mechanism", list))
            return PostedSequence(prices, order)
        if kind == "second_price_subset_reserve":
            subset = tuple(int(i) for i in _need(raw, "subset", "mechanism", list))
            return SecondPriceSubsetReserve(subset)
        if kind == "second_price_sample_reserve":
            comps = tuple(
                int(t) for t in _need(raw, "components", "mechanism", list)
            )
            return SecondPriceSampleReserve(comps)
        raise SchemaError("mechanism.kind", f"unknown kind {kind!r}")


def parse_scenario(text: str, default_seed: int | None = None) -> ScenarioConfig:
    """Parse and validate scenario text; diagnostics name the field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    version = _need(doc, "version", "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("version", f"unsupported version {version!r}; expected 1")

    market = _parse_market(_need(doc, "market", "$", dict))

    mech_raw = _need(doc, "mechanism", "$", dict)
    kind = _need(mech_raw, "kind", "mechanism")
    if kind not in _MECHANISM_KINDS:
        raise SchemaError("mechanism.kind", f"unknown kind {kind!r}")

    extras = _parse_extras(doc.get("extras", []))
    for j, spec in enumerate(extras):
        if isinstance(spec, ComponentExtra) and spec.index >= market.k:
            raise SchemaError(f"extras[{j}].component", f"index {spec.index} >= k={market.k}")

    est_raw = doc.get("estimator", {})
    if not isinstance(est_raw, dict):
        raise SchemaError("estimator", "expected an object")
    seed = est_raw.get("seed", default_seed)
    if seed is None:
        raise SchemaError("estimator.seed", "required (no wall-clock seeding)")
    if not isinstance(seed, int):
        raise SchemaError("estimator.seed", "expected an integer")
    try:
        estimator = EstimatorConfig(
            seed=seed,
            n_samples=int(est_raw.get("n_samples", 100_000)),
            n_streams=int(est_raw.get("n_streams", 8)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError("estimator", str(exc)) from exc

    config = ScenarioConfig(
        scenario_id=str(doc.get("id", "scenario")),
        market=market,
        mechanism_raw=mech_raw,
        extras=extras,
        estimator=estimator,
    )
    config.mechanism()  # surface mechanism-level schema problems at parse time
    return config
