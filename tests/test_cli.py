"""Scenario parsing, report emission, CLI subcommands and exit codes."""

import json

import pytest

from auction_lab import (
    ExperimentReport,
    ReportRow,
    emit_report,
    evaluate_plan,
    parse_report_jsonl,
    parse_scenario,
    plan_hr_dominant,
    plan_no_reserve,
    plan_nontargeted,
    plan_nontargeted_hr,
    plan_random_subset,
    plan_sample_reserve,
    plan_targeted,
    run_experiment,
    select_anonymous_reserve,
)
from auction_lab.cli import main
from auction_lab.errors import SchemaError, UnknownExperiment
from auction_lab.reports import CSV_COLUMNS

MINIMAL = {
    "version": 1,
    "market": {
        "components": [{"family": "uniform", "a": 0, "b": 1}],
        "weights": [[1.0], [1.0]],
    },
    "mechanism": {"kind": "second_price"},
    "estimator": {"seed": 7, "n_samples": 5000},
}


def scenario_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    for key, value in overrides.items():
        doc[key] = value
    return json.dumps(doc)


# one scenario per mechanism kind on MINIMAL's two uniform bidders
MECHANISMS = [
    pytest.param({"kind": "second_price"}, id="second_price"),
    pytest.param({"kind": "second_price", "reserve": 0.5}, id="second_price-reserve"),
    pytest.param(
        {"kind": "second_price", "bidder_reserves": [0.2, 0.4]}, id="second_price-bidder_reserves"
    ),
    pytest.param({"kind": "myerson_regular"}, id="myerson_regular"),
    pytest.param({"kind": "myerson_ironed", "grid_size": 1025}, id="myerson_ironed"),
    pytest.param(
        {"kind": "posted_sequence", "prices": [0.6, 0.4], "order": [1, 0]}, id="posted_sequence"
    ),
    pytest.param(
        {"kind": "second_price_subset_reserve", "subset": [0]}, id="second_price_subset_reserve"
    ),
    pytest.param(
        {"kind": "second_price_sample_reserve", "components": [0]},
        id="second_price_sample_reserve",
    ),
]

# the recipes `plan` runs, in its record order
PLAN_BUILDERS = (
    plan_targeted,
    plan_hr_dominant,
    plan_nontargeted,
    plan_nontargeted_hr,
    select_anonymous_reserve,
    plan_sample_reserve,
    plan_random_subset,
    plan_no_reserve,
)

IID_TRUE_N = {
    "components": [{"family": "uniform", "a": 0, "b": 1}],
    "iid": True,
    "weights": [1.0],
    "n": True,
}

# scenarios whose mechanism spec is refused when the file is parsed, with the
# error line each prints
REFUSED_MECHANISMS = [
    pytest.param(
        {"mechanism": {"kind": "posted_sequence", "prices": [5, 1], "order": [0, 0]}},
        "SchemaError: mechanism: posted order must not repeat a bidder",
        id="posted-repeated-bidder",
    ),
    pytest.param(
        {"mechanism": {"kind": "posted_sequence", "prices": [-2], "order": [0]}},
        "NegativeReserve: posted prices must be non-negative",
        id="posted-negative-price",
    ),
    pytest.param(
        {
            "mechanism": {"kind": "myerson_regular"},
            "market": {
                "components": [
                    {"family": "uniform", "a": 0, "b": 1},
                    {"family": "exponential", "rate": 1.0},
                ],
                "weights": [[0.5, 0.5], [1.0, 0.0]],
            },
        },
        "SchemaError: mechanism: myerson_regular needs degenerate weight rows; row 0 mixes",
        id="myerson-mixed-row",
    ),
    pytest.param(
        {"mechanism": {"kind": "myerson_regular"}, "extras": [{"value": 1.0}]},
        "SchemaError: extras: myerson_regular extras must be component draws",
        id="myerson-fixed-extra",
    ),
]

# (top-level key, its malformed value, the path the SchemaError names)
MALFORMED = [
    ("mechanism", {"kind": "second_price", "reserve": "abc"}, "mechanism.reserve"),
    ("mechanism", {"kind": "second_price", "reserve": None}, "mechanism.reserve"),
    ("mechanism", {"kind": "second_price", "reserve": float("nan")}, "mechanism.reserve"),
    ("mechanism", {"kind": "second_price", "bidder_reserves": 5}, "mechanism.bidder_reserves"),
    (
        "mechanism",
        {"kind": "posted_sequence", "prices": [0.5, "x"], "order": [0, 1]},
        "mechanism.prices[1]",
    ),
    (
        "mechanism",
        {"kind": "posted_sequence", "prices": [0.5], "order": [0.9]},
        "mechanism.order[0]",
    ),
    ("mechanism", {"kind": "posted_sequence", "prices": [0.5, 0.4], "order": [0]}, "mechanism"),
    ("mechanism", {"kind": "myerson_ironed", "grid_size": "big"}, "mechanism.grid_size"),
    ("mechanism", {"kind": "myerson_ironed", "grid_size": 100}, "mechanism"),
    ("mechanism", {"kind": "second_price_subset_reserve", "subset": [0.7]}, "mechanism.subset[0]"),
    (
        "mechanism",
        {"kind": "second_price_sample_reserve", "components": [True]},
        "mechanism.components[0]",
    ),
    ("estimator", {"seed": 7, "n_samples": 1.7}, "estimator.n_samples"),
    ("estimator", {"seed": 7, "n_samples": "5"}, "estimator.n_samples"),
    ("estimator", {"seed": 7, "n_streams": 0}, "estimator.n_streams"),
    ("estimator", {"seed": True}, "estimator.seed"),
    ("estimator", {"seed": -1}, "estimator.seed"),
    ("market", IID_TRUE_N, "market.n"),
    (
        "market",
        {"components": [{"family": "uniform", "a": 0, "b": 1}], "weights": [[1.0], [1.0, 0.0]]},
        "market.weights[1]",
    ),
    (
        "market",
        {"components": [{"family": "uniform", "a": 0, "b": 1}], "weights": [["1"]]},
        "market.weights[0][0]",
    ),
    (
        "market",
        {"components": [{"family": "uniform", "a": 0, "b": 1}], "weights": [[float("nan")]]},
        "market.weights[0][0]",
    ),
]


class TestParseScenario:
    def test_minimal_valid(self):
        # keys the schema no longer reads ("outputs", "quadrature_tol",
        # "profile_cap") are ignored
        legacy = scenario_text(
            estimator={"seed": 7, "n_samples": 5000, "quadrature_tol": 1e-6, "profile_cap": 10**6},
            outputs={"csv": "out.csv", "format_version": 1},
        )
        for text in (scenario_text(), legacy):
            config = parse_scenario(text)
            assert config.market.n == 2 and config.market.k == 1
            assert config.estimator.seed == 7

    def test_row_sum_diagnostic_names_the_row(self):
        bad = scenario_text(
            market={
                "components": [{"family": "uniform", "a": 0, "b": 1}],
                "weights": [[1.1], [1.0]],
            }
        )
        with pytest.raises(SchemaError) as err:
            parse_scenario(bad)
        assert err.value.path == "market.weights[0]"
        assert "sum" in err.value.reason

    def test_unknown_family(self):
        bad = scenario_text(
            market={"components": [{"family": "cauchy"}], "weights": [[1.0]]}
        )
        with pytest.raises(SchemaError) as err:
            parse_scenario(bad)
        assert err.value.path == "market.components[0].family"

    def test_seed_mandatory(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario(scenario_text(estimator={"n_samples": 100}))
        assert err.value.path == "estimator.seed"

    def test_fallback_seed_accepted(self):
        config = parse_scenario(
            scenario_text(estimator={"n_samples": 100}), default_seed=55
        )
        assert config.estimator.seed == 55

    def test_version_is_pinned(self):
        with pytest.raises(SchemaError):
            parse_scenario(scenario_text(version=2))

    def test_iid_shorthand(self):
        config = parse_scenario(
            scenario_text(
                market={
                    "components": [
                        {"family": "uniform", "a": 0, "b": 1},
                        {"family": "exponential", "rate": 1.0},
                    ],
                    "iid": True,
                    "weights": [0.4, 0.6],
                    "n": 3,
                }
            )
        )
        assert config.market.n == 3 and config.market.iid

    def test_bad_family_parameters(self):
        bad = scenario_text(
            market={
                "components": [{"family": "uniform", "a": 2, "b": 1}],
                "weights": [[1.0]],
            }
        )
        with pytest.raises(SchemaError):
            parse_scenario(bad)

    def test_extras_validated(self):
        bad = scenario_text(extras=[{"component": 5}])
        with pytest.raises(SchemaError) as err:
            parse_scenario(bad)
        assert "extras[0]" in err.value.path

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_scenario("not json {")

    def test_unknown_mechanism_kind(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario(scenario_text(mechanism={"kind": "first_price"}))
        assert err.value.path == "mechanism.kind"


class TestEmitReport:
    def sample_report(self):
        rows = (
            ReportRow("second_price", 0.5, 0.01, 1000, "mc"),
            ReportRow("ratio:a_over_b", 1.2, 0.02, 0, "ratio", "ratio <= 2", "pass"),
        )
        return ExperimentReport(scenario_id="s", rows=rows, seed=1)

    def test_empty_report_header_only(self):
        report = ExperimentReport(scenario_id="s", rows=(), seed=1)
        data = emit_report(report, "csv").decode()
        assert data == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_columns_exact(self):
        data = emit_report(self.sample_report(), "csv").decode()
        header, row1, row2 = data.strip().split("\n")
        assert header == "scenario_id,mechanism,mean,std_err,n_samples,method,bound_tested,verdict"
        assert row1 == "s,second_price,0.5,0.01,1000,mc,,"
        assert row2.endswith("ratio <= 2,pass")

    def test_jsonl_round_trip(self):
        report = self.sample_report()
        data = emit_report(report, "json-lines")
        parsed = parse_report_jsonl(data)
        assert parsed.rows == report.rows
        assert emit_report(parsed, "json-lines") == data

    def test_text_table(self):
        data = emit_report(self.sample_report(), "text-table").decode()
        assert data.splitlines()[0].startswith("scenario_id")

    def test_appendix_report_row_count(self):
        report = run_experiment("appendix-lb", seed=1)
        methods = [r.method for r in report.rows]
        assert sum(m in ("mc", "exact", "quadrature") for m in methods) == 3
        assert methods.count("ratio") == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.sample_report(), "xml")

    def test_every_format_pinned(self):
        # an empty estimate row and a ratio row carrying its bound and verdict
        rows = (
            ReportRow("anon_reserve", None, None, 0, "exact"),
            ReportRow("benchmark_over_mechanism", 1.25, 0.0375, 0, "ratio", "ratio <= 2", "pass"),
        )
        report = ExperimentReport(scenario_id="pin", rows=rows, seed=3)
        assert emit_report(report, "csv") == (
            b"scenario_id,mechanism,mean,std_err,n_samples,method,bound_tested,verdict\n"
            b"pin,anon_reserve,,,0,exact,,\n"
            b"pin,benchmark_over_mechanism,1.25,0.0375,0,ratio,ratio <= 2,pass\n"
        )
        assert emit_report(report, "json-lines") == (
            b'{"scenario_id": "pin", "mechanism": "anon_reserve", "mean": null, '
            b'"std_err": null, "n_samples": 0, "method": "exact", "bound_tested": "", '
            b'"verdict": ""}\n'
            b'{"scenario_id": "pin", "mechanism": "benchmark_over_mechanism", "mean": 1.25, '
            b'"std_err": 0.0375, "n_samples": 0, "method": "ratio", '
            b'"bound_tested": "ratio <= 2", "verdict": "pass"}\n'
        )
        assert emit_report(report, "text-table") == (
            b"scenario_id  mechanism                 mean  std_err  n_samples  method"
            b"  bound_tested  verdict\n"
            b"pin          anon_reserve                             0          exact\n"
            b"pin          benchmark_over_mechanism  1.25  0.0375   0          ratio"
            b"   ratio <= 2    pass\n"
        )


class TestCliCommands:
    def write_scenario(self, tmp_path, text=None):
        path = tmp_path / "scenario.json"
        path.write_text(text or scenario_text())
        return str(path)

    def test_simulate_exit_zero(self, tmp_path, capsys):
        code = main(["simulate", self.write_scenario(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario_id,mechanism")
        assert "second_price" in out

    def test_simulate_writes_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["simulate", self.write_scenario(tmp_path), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("scenario_id")

    def test_schema_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["simulate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", REFUSED_MECHANISMS)
    @pytest.mark.parametrize("command", ["simulate", "ratio"])
    def test_refused_mechanism_exit_one(self, tmp_path, capsys, command, overrides, message):
        assert main([command, self.write_scenario(tmp_path, scenario_text(**overrides))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_reproduce_pass_exit_zero(self, capsys):
        assert main(["reproduce", "tvsnt"]) == 0

    def test_reproduce_unknown_exit_one(self, capsys):
        assert main(["reproduce", "nope"]) == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        text = scenario_text(estimator={"n_samples": 2000})
        path = tmp_path / "noseed.json"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 1  # no seed anywhere
        monkeypatch.setenv("AUCTION_LAB_SEED", "99")
        assert main(["simulate", str(path)]) == 0

    @pytest.mark.parametrize("raw", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
    def test_env_seed_non_ascii_digit_is_schema_error(self, tmp_path, monkeypatch, capsys, raw):
        path = tmp_path / "noseed.json"
        path.write_text(scenario_text(estimator={"n_samples": 2000}))
        monkeypatch.setenv("AUCTION_LAB_SEED", raw)
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SchemaError: AUCTION_LAB_SEED: expected an integer >= 0\n"

    def test_seed_flag_beats_scenario(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        main(["simulate", path, "--seed", "1", "--format", "json-lines"])
        first = capsys.readouterr().out
        main(["simulate", path, "--seed", "2", "--format", "json-lines"])
        second = capsys.readouterr().out
        assert first != second

    def test_check_hr(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"]["components"] = [
            {"family": "uniform", "a": 0, "b": 2},
            {"family": "uniform", "a": 0, "b": 1},
        ]
        doc["market"]["weights"] = [[0.5, 0.5], [0.5, 0.5]]
        path = tmp_path / "hr.json"
        path.write_text(json.dumps(doc))
        assert main(["check-hr", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["dominant_component"] == 0
        assert record["dominates"][0][1] is True

    def test_check_hr_needs_no_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AUCTION_LAB_SEED", raising=False)
        path = self.write_scenario(tmp_path, scenario_text(estimator={}))
        assert main(["simulate", path]) == 1
        assert "estimator.seed: required" in capsys.readouterr().err
        assert main(["check-hr", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["dominant_component"] == 0

    def test_plan_emits_records(self, tmp_path, capsys):
        assert main(["plan", self.write_scenario(tmp_path), "--samples", "4000"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        strategies = {r.get("strategy") for r in lines}
        assert "targeted_per_component" in strategies

    def test_plan_evidence_is_evaluate_plan(self, tmp_path, capsys):
        assert main(["plan", self.write_scenario(tmp_path), "--samples", "4000"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        config = parse_scenario(scenario_text(estimator={"seed": 7, "n_samples": 4000}))
        # every recipe applies to MINIMAL's two uniform bidders
        plans = [builder(config.market) for builder in PLAN_BUILDERS]
        assert [r["strategy"] for r in records] == [p.strategy for p in plans]
        for record, plan in zip(records, plans):
            evidence = evaluate_plan(config.market, plan, config.estimator)
            assert record["evidence_mean"] == evidence.mean
            assert record["evidence_std_err"] == evidence.std_err
            assert record["evidence_n_samples"] == evidence.n_samples

    def test_plan_unattained_reserve_leaves_stderr_empty(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"] = {
            "components": [{"family": "point_mass", "value": 1.0}, {"family": "equal_revenue"}],
            "weights": [[0.5, 0.5], [0.5, 0.5]],
        }
        path = tmp_path / "appendix.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--samples", "4000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        records = [json.loads(l) for l in captured.out.splitlines()]
        (record,) = [r for r in records if r["strategy"] == "anonymous_reserve"]
        attained = {a["name"]: a for a in record["assumptions"]}["all_candidates_attained"]
        assert attained == {
            "name": "all_candidates_attained",
            "verified": False,
            "detail": "1/2 candidates; component 1 (EqualRevenue) unattained",
        }

    @pytest.mark.parametrize(
        "mechanism, message",
        [
            ({"kind": "second_price_subset_reserve", "subset": [-1]}, "subset index -1"),
            ({"kind": "second_price_subset_reserve", "subset": [5]}, "subset index 5"),
        ],
    )
    def test_mechanism_index_out_of_range_exit_one(self, tmp_path, capsys, mechanism, message):
        doc = json.loads(scenario_text(mechanism=mechanism))
        doc["market"]["weights"] = [[1.0]] * 3
        path = tmp_path / "indices.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: IndexOutOfRange: {message}" in captured.err

    @pytest.mark.parametrize(
        "components, message",
        [([5], "index 5 >= k=2"), ([0, -1], "expected an integer >= 0")],
        ids=["5", "-1"],
    )
    @pytest.mark.parametrize("command", ["simulate", "plan", "check-hr", "ratio"])
    def test_sample_reserve_component_checked_at_parse(
        self, tmp_path, capsys, command, components, message
    ):
        doc = json.loads(scenario_text())
        doc["market"]["components"].append({"family": "exponential", "rate": 1.0})
        doc["market"]["weights"] = [[0.5, 0.5], [0.5, 0.5]]
        doc["mechanism"] = {"kind": "second_price_sample_reserve", "components": components}
        assert main([command, self.write_scenario(tmp_path, json.dumps(doc))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        where = f"mechanism.components[{len(components) - 1}]"
        assert captured.err == f"error: SchemaError: {where}: {message}\n"

    @pytest.mark.parametrize("key, value, path", MALFORMED, ids=[m[2] for m in MALFORMED])
    def test_malformed_field_exit_one(self, tmp_path, capsys, key, value, path):
        text = scenario_text(**{key: value})
        assert main(["simulate", self.write_scenario(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: SchemaError: {path}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--samples", "0"],
            ["simulate", "--samples", "-3"],
            ["simulate", "--streams", "0"],
            ["simulate", "--seed", "-1"],
            ["reproduce", "--streams", "0"],
            ["reproduce", "--samples", "0"],
        ],
        ids=" ".join,
    )
    def test_count_flags_below_one_exit_one(self, tmp_path, capsys, argv):
        target = "tvsnt" if argv[0] == "reproduce" else self.write_scenario(tmp_path)
        assert main([argv[0], target, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: SchemaError: {argv[1]}: expected an integer >= ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--samples", "abc"],
            ["simulate", "--bogus"],
            # each subcommand takes only the flags it reads
            ["simulate", "--horizon", "3"],
            ["plan", "--horizon", "3"],
            ["check-hr", "--horizon", "3"],
            ["ratio", "--horizon", "3"],
            ["plan", "--format", "text-table"],
            ["check-hr", "--format", "csv"],
            # check-hr draws nothing: it takes no seed and no counts
            ["check-hr", "--seed", "1"],
            ["check-hr", "--samples", "5"],
            ["check-hr", "--streams", "3"],
        ],
        ids=" ".join,
    )
    def test_usage_error_exit_one(self, tmp_path, capsys, argv):
        assert main([argv[0], self.write_scenario(tmp_path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SchemaError: auction-lab")
        assert captured.err.count("\n") == 1

    def test_irregular_component_warns_in_one_line(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"] = {
            "components": [
                {"family": "uniform", "a": 0, "b": 1},
                {"family": "power_law", "alpha": 0.4},
            ],
            "weights": [[0.5, 0.5], [0.5, 0.5]],
        }
        assert main(["plan", self.write_scenario(tmp_path, json.dumps(doc)), "--samples", "4000"]) == 0
        assert capsys.readouterr().err == (
            "warning: IrregularComponentWarning: component 1 (PowerLaw(0.4)) "
            "fails the regularity grid check\n"
        )

    def test_sample_reserve_report_pinned(self, tmp_path, capsys):
        # the reserve's two draws follow a component extra and a value extra;
        # these bytes were produced when the mechanism drew its reserve from
        # the stream, and its component extras draw the same uniforms
        doc = {
            "version": 1,
            "id": "sr",
            "market": {
                "components": [
                    {"family": "uniform", "a": 0, "b": 2},
                    {"family": "exponential", "rate": 1.0},
                ],
                "weights": [[0.5, 0.5], [0.3, 0.7], [0.8, 0.2]],
            },
            "mechanism": {"kind": "second_price_sample_reserve", "components": [1, 0]},
            "extras": [{"component": 1}, {"value": 0.7}],
            "estimator": {"seed": 7, "n_samples": 40000, "n_streams": 3},
        }
        assert main(["simulate", self.write_scenario(tmp_path, json.dumps(doc))]) == 0
        assert capsys.readouterr().out == (
            "scenario_id,mechanism,mean,std_err,n_samples,method,bound_tested,verdict\n"
            "sr,second_price_sample_reserve,0.9642403149421536,0.003940202089014806,40000,mc,,\n"
        )

    @pytest.mark.parametrize("horizon", ["-1", "0", "nan", "inf"])
    def test_horizon_not_finite_positive_exit_one(self, capsys, horizon):
        assert main(["reproduce", "appendix-lb", f"--horizon={horizon}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SchemaError: --horizon: ")

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("command", ["simulate", "ratio"])
    def test_every_mechanism_kind(self, tmp_path, capsys, command, mechanism):
        path = self.write_scenario(tmp_path, scenario_text(mechanism=mechanism))
        assert main([command, path, "--samples", "2000", "--format", "json-lines"]) == 0
        labels = [json.loads(l)["mechanism"] for l in capsys.readouterr().out.splitlines()]
        kind = mechanism["kind"]
        if command == "simulate":
            assert labels == [kind]
        else:
            assert labels == ["benchmark", kind, "benchmark_over_mechanism"]

    @pytest.mark.parametrize("command", ["simulate", "ratio"])
    def test_each_bidder_ironed_once(self, tmp_path, capsys, monkeypatch, command):
        import auction_lab.mixtures as mixtures

        ironed = []
        real = mixtures.iron_distribution

        def spy(dist, grid_size):
            ironed.append(dist)
            return real(dist, grid_size)

        monkeypatch.setattr(mixtures, "iron_distribution", spy)
        doc = json.loads(scenario_text(mechanism={"kind": "myerson_ironed", "grid_size": 1025}))
        doc["market"]["weights"] = [[1.0]] * 3
        path = self.write_scenario(tmp_path, json.dumps(doc))
        assert main([command, path, "--samples", "2000"]) == 0
        assert len(ironed) == 3

    @pytest.mark.parametrize("command", ["simulate", "plan", "check-hr"])
    def test_unwritable_out_exit_one(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.txt"
        counts = [] if command == "check-hr" else ["--samples", "2000"]
        argv = [command, self.write_scenario(tmp_path), *counts, "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: IOFailure: cannot write {out}")

    def test_ratio_truncated_normal_exit_zero(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"]["components"] = [
            {"family": "truncated_normal", "mu": -0.5, "sigma": 1.0},
            {"family": "exponential", "rate": 1.0},
        ]
        doc["market"]["weights"] = [[0.5, 0.5], [0.5, 0.5]]
        assert main(["ratio", self.write_scenario(tmp_path, json.dumps(doc))]) == 0
        assert "benchmark_over_mechanism" in capsys.readouterr().out

    def test_ratio_subcommand(self, tmp_path, capsys):
        assert main(["ratio", self.write_scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "benchmark_over_mechanism" in out

    def test_ratio_atomic_component_exit_one(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"]["components"] = [
            {"family": "point_mass", "value": 1.0},
            {"family": "uniform", "a": 0, "b": 1},
        ]
        doc["market"]["weights"] = [[0.5, 0.5], [0.5, 0.5]]
        path = tmp_path / "atomic.json"
        path.write_text(json.dumps(doc))
        assert main(["ratio", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: IrregularComponent: component 0")

    def test_simulate_myerson_atomic_component_exit_one(self, tmp_path, capsys):
        doc = json.loads(scenario_text(mechanism={"kind": "myerson_regular"}))
        doc["market"]["components"] = [
            {"family": "point_mass", "value": 1.0},
            {"family": "uniform", "a": 0, "b": 1},
        ]
        doc["market"]["weights"] = [[1.0, 0.0], [0.0, 1.0]]
        path = tmp_path / "myerson_atomic.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: IrregularComponent: ")

    def test_plan_sample_based_skipped_one_by_one(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"] = {
            "components": [
                {"family": "uniform", "a": 0, "b": 2},
                {"family": "exponential", "rate": 1.0},
            ],
            "iid": True,
            "weights": [0.5, 0.5],
            "n": 3,
        }
        path = tmp_path / "iid3.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--samples", "4000"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        by_strategy = {r["strategy"]: r for r in records}
        assert "sample_based" not in by_strategy
        for strategy in ("sample_reserve", "random_subset_reserve"):
            assert by_strategy[strategy]["evidence_n_samples"] == 4000
        (skipped,) = [r for r in records if "skipped" in r and r["strategy"] == "no_reserve"]
        assert skipped["skipped"].startswith("GroupTooSmall: no-reserve guarantee needs t >= 2")

    def test_plan_runs_the_hr_nontargeted_recipe(self, tmp_path, capsys):
        # i.i.d. six bidders, U(0, 2) hazard-rate dominant with p1 = 1/2
        doc = json.loads(scenario_text())
        doc["market"] = {
            "components": [{"family": "uniform", "a": 0, "b": 2}, {"family": "uniform", "a": 0, "b": 1}],
            "iid": True,
            "weights": [0.5, 0.5],
            "n": 6,
        }
        path = tmp_path / "iid6.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--samples", "4000"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(records) == 8
        (record,) = [r for r in records if r["strategy"] == "nontargeted_hr_count"]
        assert (record["count"], record["reserve_component"]) == (2, 0)
        assert record["evidence_n_samples"] == 4000

    def test_plan_non_iid_skips_nontargeted(self, tmp_path, capsys):
        doc = json.loads(scenario_text())
        doc["market"]["components"] = [
            {"family": "uniform", "a": 0, "b": 2},
            {"family": "exponential", "rate": 1.0},
        ]
        doc["market"]["weights"] = [[0.5, 0.5], [0.3, 0.7], [0.8, 0.2]]
        path = tmp_path / "noniid.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "--samples", "4000"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        (skipped,) = [r for r in records if r["strategy"] == "nontargeted_count"]
        assert skipped["skipped"].startswith("InvalidDelta: ")
        assert "targeted_per_component" in {r["strategy"] for r in records}


class TestReproducibility:
    def test_reproduce_byte_identical(self):
        for name in ("appendix-lb", "hr09-lb", "tvsnt"):
            a = emit_report(run_experiment(name, seed=4), "csv")
            b = emit_report(run_experiment(name, seed=4), "csv")
            assert a == b, name

    def test_sweep_byte_identical_and_seed_sensitive(self):
        a = emit_report(run_experiment("thm1-sweep", seed=4, n_samples=4000), "csv")
        b = emit_report(run_experiment("thm1-sweep", seed=4, n_samples=4000), "csv")
        c = emit_report(run_experiment("thm1-sweep", seed=5, n_samples=4000), "csv")
        assert a == b
        assert a != c

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            run_experiment("definitely-not-an-experiment")
