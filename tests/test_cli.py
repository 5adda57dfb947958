"""Config parsing and the command-line front end."""

import json
import math
import os
import re

import pytest

from robust_rates import option_pricing
from robust_rates.cli import main
from robust_rates.config import load_config, price_configured
from robust_rates.curve import DiscountCurve
from robust_rates.errors import ConfigError, DomainError, UnsupportedMethodError
from robust_rates.vol_structure import HoLeeFactor, VolStructure


BOOK = {
    "curve": {"knots": [[0.0, 0.02], [30.0, 0.02]], "interpolation": "linear"},
    "vol_structure": {"factors": [{"kind": "ho-lee", "c": 0.01}]},
    "band": {"sigma_lower": [0.5], "sigma_upper": [1.5]},
    "contracts": [
        {"name": "frn", "kind": "floating-rate-note", "schedule": [1.0, 1.5, 2.0]},
        {"name": "cap", "kind": "cap", "schedule": [1.0, 1.5, 2.0], "strike_rate": 0.04},
        {"name": "swaption", "kind": "swaption-payer", "schedule": [1.0, 1.5, 2.0],
         "strike_rate": 0.04, "method": "quadrature-1f"},
    ],
}


STREAM = {
    "name": "st", "kind": "stream", "schedule": [1.0, 1.5, 2.0],
    "legs": [{"type": "capped-call-spread", "strike": math.nan, "cap": 0.02},
             {"type": "caplet", "strike_rate": 0.04}],
}


# A stream, the one kind that takes a grid: appended to BOOK as contracts[3]
# where a test sets a grid.  A Monte Carlo swaption, the one contract that
# takes an mc, is BOOK's contracts[2] with method "monte-carlo".
GRID_STREAM = {
    "name": "grid-stream", "kind": "stream", "schedule": [1.0, 1.5, 2.0],
    "legs": [{"type": "constant", "amount": 0.01}, {"type": "caplet", "strike_rate": 0.04}],
}


def write_config(tmp_path, payload, name="book.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        setup = load_config(write_config(tmp_path, BOOK))
        assert setup.curve.horizon == 30.0
        assert setup.vol.dim == 1
        assert len(setup.contracts) == 3

    def test_csv_curve_reference(self, tmp_path):
        (tmp_path / "c.csv").write_text("0,0.02\n30,0.02\n")
        cfg = dict(BOOK, curve={"csv": "c.csv"})
        setup = load_config(write_config(tmp_path, cfg))
        assert setup.curve.bond_price(1.0) == pytest.approx(math.exp(-0.02))

    def test_missing_field_named(self, tmp_path):
        cfg = {k: v for k, v in BOOK.items() if k != "band"}
        with pytest.raises(ConfigError, match="band"):
            load_config(write_config(tmp_path, cfg))

    def test_unsorted_schedule_cites_invariant(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][0]["schedule"] = [2.0, 1.0]
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(write_config(tmp_path, cfg))

    def test_band_dimension_mismatch(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["band"] = {"sigma_lower": [0.5, 0.5], "sigma_upper": [1.5, 1.5]}
        with pytest.raises(ConfigError, match="dimension"):
            load_config(write_config(tmp_path, cfg))

    def test_stream_leg_count_checked(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"].append({
            "name": "st", "kind": "stream", "schedule": [1.0, 1.5, 2.0],
            "legs": [{"type": "caplet", "strike_rate": 0.04}],
        })
        with pytest.raises(ConfigError, match="legs"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_contract_kind(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][0] = {"name": "x", "kind": "quanto", "schedule": [1.0, 2.0]}
        with pytest.raises(ConfigError, match="quanto"):
            load_config(write_config(tmp_path, cfg))

    def test_hull_white_and_tabulated_factors(self, tmp_path):
        (tmp_path / "beta.csv").write_text("0,0,0.01\n0,30,0.01\n15,0,0.01\n15,30,0.01\n")
        cfg = json.loads(json.dumps(BOOK))
        cfg["vol_structure"] = {"factors": [
            {"kind": "hull-white", "c": 0.01, "kappa": 0.2},
            {"kind": "tabulated", "csv": "beta.csv"},
        ]}
        cfg["band"] = {"sigma_lower": [0.5, 0.5], "sigma_upper": [1.5, 1.5]}
        cfg["contracts"] = [c for c in cfg["contracts"] if c["kind"] != "swaption-payer"]
        setup = load_config(write_config(tmp_path, cfg))
        assert setup.vol.dim == 2
        cap = price_configured(setup, setup.contracts[1])
        assert cap.upper > cap.lower > 0.0

    def test_unknown_factor_kind(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["vol_structure"] = {"factors": [{"kind": "sabr", "c": 0.01}]}
        with pytest.raises(ConfigError, match="sabr"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("notional", [0, -0.0, math.nan, math.inf, -math.inf])
    def test_zero_or_nonfinite_notional_rejected(self, tmp_path, notional):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][1]["notional"] = notional
        with pytest.raises(ConfigError, match=r"contracts\[1\]\.notional"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("schedule", ["abc", 5, [1.0, "x"], [[1.0], [2.0]]])
    def test_malformed_schedule_names_contract(self, tmp_path, schedule):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][1]["schedule"] = schedule
        with pytest.raises(ConfigError, match=r"contracts\[1\]\.schedule.*'cap'"):
            load_config(write_config(tmp_path, cfg))

    def test_band_independence_of_linear_contracts(self, tmp_path):
        setup = load_config(write_config(tmp_path, BOOK))
        frn = setup.contracts[0]
        from robust_rates.uncertainty import UncertaintyBand

        wide = price_configured(setup, frn, band=UncertaintyBand((0.5,), (1.5,)))
        unit = price_configured(setup, frn, band=UncertaintyBand((1.0,), (1.0,)))
        assert wide.upper == unit.upper  # bit identical: band never read


class TestPriceCommand:
    def test_table_output_and_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOK)
        assert main(["price", cfg]) == 0
        out = capsys.readouterr().out
        assert "frn" in out and "cap" in out
        assert f"{math.exp(-0.02):.12g}" in out  # FRN single price

    def test_json_round_trips_exactly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOK)
        assert main(["--format", "json", "price", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        setup = load_config(cfg)
        for i, row in enumerate(payload["contracts"]):
            direct = price_configured(setup, setup.contracts[i], default_seed=0, index=i)
            assert row["lower"] == direct.lower / setup.contracts[i].contract.notional
            assert row["upper"] == direct.upper / setup.contracts[i].contract.notional

    def test_csv_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOK)
        assert main(["--format", "csv", "price", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,kind,notional,lower,upper,symmetric")
        assert len(lines) == 1 + len(BOOK["contracts"])

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][0]["schedule"] = [2.0, 1.0]
        assert main(["price", write_config(tmp_path, cfg)]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("notional", 0), ("schedule", "abc")])
    def test_bad_contract_field_exit_2(self, tmp_path, capsys, field, value):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][0][field] = value
        assert main(["price", write_config(tmp_path, cfg)]) == 2
        assert f"contracts[0].{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, field", [
        (lambda c: c["contracts"][0].update(kind="payer-swap", fixed_rate=math.inf),
         "contracts[0].fixed_rate"),
        (lambda c: c["contracts"][0].update(kind="payer-swap", fixed_rate=math.nan),
         "contracts[0].fixed_rate"),
        (lambda c: c["contracts"][1].update(strike_rate=math.inf), "contracts[1].strike_rate"),
        (lambda c: c["vol_structure"]["factors"][0].update(c=math.inf),
         "vol_structure.factors[0].c"),
        (lambda c: c["vol_structure"].update(factors=[{"kind": "hull-white", "c": 0.01,
                                                       "kappa": math.nan}]),
         "vol_structure.factors[0].kappa"),
        (lambda c: c["band"].update(sigma_upper=[math.inf]), "band.sigma_upper"),
        (lambda c: c["band"].update(sigma_lower=[math.nan]), "band.sigma_lower"),
        (lambda c: c["contracts"].append(STREAM), None),
        (lambda c: c["contracts"][1].update(schedule=[1.0, math.nan, 2.0]),
         "contracts[1].schedule: contract 'cap': dates must be"),
        (lambda c: c["curve"].update(horizon=math.nan), "curve.horizon"),
    ])
    def test_nonfinite_number_exit_2(self, tmp_path, capsys, mutate, field):
        cfg = json.loads(json.dumps(BOOK))
        mutate(cfg)
        assert main(["price", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert (field or "contracts[3].legs[0].strike") in err
        assert "finite" in err

    @pytest.mark.parametrize("leg, field", [
        ({"type": "capped-call-spread", "strike": math.nan, "cap": 0.02}, "strike"),
        ({"type": "capped-call-spread", "strike": 0.01, "cap": math.inf}, "cap"),
        ({"type": "constant", "amount": math.inf}, "amount"),
        ({"type": "floating", "slope": 1.0, "intercept": -math.inf}, "intercept"),
        ({"type": "caplet", "strike_rate": math.nan}, "strike_rate"),
    ])
    def test_nonfinite_leg_parameter_exit_2(self, tmp_path, capsys, leg, field):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"] = [dict(STREAM, legs=[leg, {"type": "constant", "amount": 0.01}])]
        assert main(["price", write_config(tmp_path, cfg)]) == 2
        assert f"contracts[0].legs[0].{field}" in capsys.readouterr().err

    def test_overflowing_strike_is_named(self, tmp_path, capsys):
        # 1 + 2.0 * 1e308 overflows: a cap's strike is a pricing error (exit 3),
        # a stream leg's a config error at load (exit 2); both name the rate.
        message = ("transformed strike: 1 + accrual * strike rate is not finite for accrual 2.0, "
                   "strike rate 1e+308")
        cfg = dict(BOOK, contracts=[{"name": "cap", "kind": "cap", "schedule": [1.0, 3.0],
                                     "strike_rate": 1e308}])
        assert main(["price", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert f"contract 'cap': {message}" in err and "Traceback" not in err
        cfg["contracts"] = [dict(STREAM, schedule=[1.0, 3.0],
                                 legs=[{"type": "caplet", "strike_rate": 1e308}])]
        with pytest.raises(ConfigError, match=re.escape(f"contracts[0].legs[0]: {message}")):
            load_config(write_config(tmp_path, cfg))
        assert main(["price", write_config(tmp_path, cfg)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, field", [
        ("mc", {"paths": 1}, "contracts[2].mc: need at least 2 paths"),
        ("mc", {"paths": "many"}, "contracts[2].mc.paths: expected an integer"),
        ("grid", {"nx": 2}, "contracts[3].grid: nx must be at least 3"),
        ("grid", {"nt": 0}, "contracts[3].grid: nt must be at least 1"),
        ("grid", {"nx": math.nan}, "contracts[3].grid.nx: expected an integer"),
        # Past the maxima: caught at load time, before any grid or path array
        # is sized from them.
        ("grid", {"nx": 1e300}, "contracts[3].grid.nx: must be at most 4001"),
        ("grid", {"nt": 1e300}, "contracts[3].grid.nt: must be at most 100000"),
        ("mc", {"paths": 1e300}, "contracts[2].mc.paths: must be at most 1000000"),
        ("mc", {"paths": 1e12}, "contracts[2].mc.paths: must be at most 1000000"),
    ])
    def test_bad_resolution_is_config_error(self, tmp_path, capsys, section, value, field):
        cfg = json.loads(json.dumps(BOOK))
        if section == "grid":
            cfg["contracts"].append(dict(GRID_STREAM, grid=value))
        else:
            cfg["contracts"][2].update(method="monte-carlo", mc=value)
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(write_config(tmp_path, cfg))
        assert main(["price", write_config(tmp_path, cfg)]) == 2

    def test_contracts_object_reports_expected_list(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"] = {"cap": cfg["contracts"][1]}
        with pytest.raises(ConfigError, match="contracts: expected a list"):
            load_config(write_config(tmp_path, cfg))
        assert main(["price", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("mutate, field", [
        (lambda c: c.update(curve={"csv": "nope.csv"}), "curve.csv"),
        (lambda c: c["vol_structure"].update(factors=[{"kind": "tabulated", "csv": "nope.csv"}]),
         "vol_structure.factors[0].csv"),
    ])
    def test_missing_csv_is_config_error(self, tmp_path, capsys, mutate, field):
        cfg = json.loads(json.dumps(BOOK))
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=re.escape(field) + ".*nope.csv"):
            load_config(path)
        assert main(["price", path]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["0,0.02\n30,abc\n", "1,0.02\n1,0.03\n"],
                             ids=["non-numeric", "duplicate-maturity"])
    def test_malformed_curve_csv_is_config_error(self, tmp_path, capsys, text):
        (tmp_path / "bad.csv").write_text(text)
        path = write_config(tmp_path, dict(BOOK, curve={"csv": "bad.csv"}))
        with pytest.raises(ConfigError, match=r"curve\.csv: .*bad\.csv"):
            load_config(path)
        assert main(["price", path]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("point, beta, entry", [
        ((5, 30), "nan", "values[1, 2]"), ((5, 10), "inf", "values[1, 1]"), ((0, 0), "-inf", "values[0, 0]"),
    ])
    def test_non_finite_tabulated_beta_is_config_error(self, tmp_path, capsys, point, beta, entry):
        grid = {(t, T): "0.01" for t in (0, 5) for T in (0, 10, 30)}
        grid[point] = beta
        (tmp_path / "beta.csv").write_text("".join(f"{t},{T},{b}\n" for (t, T), b in grid.items()))
        cfg = dict(BOOK, vol_structure={"factors": [{"kind": "tabulated", "csv": "beta.csv"}]})
        path = write_config(tmp_path, cfg)
        message = f"vol_structure.factors[0].csv: tabulated {entry} (beta at t={point[0]:.1f}, T={point[1]:.1f})"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        assert main(["price", path]) == 2
        err = capsys.readouterr().err
        assert message in err and "must be finite" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_tabulated_level_is_pricing_error(self, tmp_path, capsys):
        # beta^2 overflows in the exact time integral: inf without a warning, then a named error.
        (tmp_path / "beta.csv").write_text("0,0,1e160\n0,10,1e160\n5,0,1e160\n5,10,1e160\n")
        cfg = dict(BOOK, vol_structure={"factors": [{"kind": "tabulated", "csv": "beta.csv"}]})
        assert main(["price", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert "is not finite (a factor level too large for its variance integral)" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("factor", [
        {"kind": "ho-lee", "c": 1e200},
        {"kind": "hull-white", "c": 0.01, "kappa": 1e6},
    ], ids=["ho-lee", "hull-white"])
    def test_overflowing_factor_level_is_pricing_error(self, tmp_path, capsys, factor):
        cfg = json.loads(json.dumps(BOOK))
        cfg["vol_structure"]["factors"] = [factor]
        path = write_config(tmp_path, cfg)
        assert main(["price", path]) == 3
        message = ("contract 'cap': numerical overflow (a factor level too large for its "
                   "variance integral)")
        err = capsys.readouterr().err
        assert message in err and "out of range" not in err
        setup = load_config(path)
        for _ in range(2):  # the failed variance is not memoized
            with pytest.raises(DomainError, match=re.escape(message)):
                price_configured(setup, setup.contracts[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["cap", "floor", "in-arrears-payer-swap", "swaption-payer"])
    def test_ho_lee_level_overflow_names_contract_and_cause(self, tmp_path, capsys, kind):
        # c^2 overflows in the variance integral itself (an OverflowError, not inf).
        contract = {"name": kind, "kind": kind, "schedule": [1.0, 1.5, 2.0], "strike_rate": 0.04}
        cfg = dict(BOOK, contracts=[contract],
                   vol_structure={"factors": [{"kind": "ho-lee", "c": 1e160}]})
        assert main(["price", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err == (f"pricing error: contract '{kind}': numerical overflow (a factor level "
                       "too large for its variance integral)\n")

    def test_shared_schedule_evaluates_each_variance_once(self, tmp_path, monkeypatch):
        """Caps and floors on one schedule read the same periods: each
        contract-period makes one period_prices and one extreme_variance
        lookup, each distinct period is evaluated once (one P(T_{i-1}), one
        forward price, one variance per band extreme), each distinct
        (scale, window, pair) is integrated once per market, and repricing
        the same contracts integrates nothing."""
        schedule = [1.0, 1.5, 2.0, 2.5, 3.0]
        cfg = dict(BOOK, contracts=[
            {"name": f"{kind}-{k}", "kind": kind, "schedule": schedule, "strike_rate": k}
            for kind in ("cap", "floor") for k in (0.01, 0.02, 0.04)])
        calls = {}

        def record(cls, name):
            method = getattr(cls, name)

            def recorded(self, *args):
                calls.setdefault(name, []).append(args)
                return method(self, *args)

            monkeypatch.setattr(cls, name, recorded)

        record(HoLeeFactor, "fp_cov_integral")
        for name in ("integrated_variance", "extreme_variance"):
            record(VolStructure, name)
        for name in ("bond_price", "forward_price", "period_prices"):
            record(DiscountCurve, name)
        setup = load_config(write_config(tmp_path, cfg))
        first = [price_configured(setup, cc) for cc in setup.contracts]
        contract_periods, periods = 6 * 4, 4
        assert len(calls["period_prices"]) == len(calls["extreme_variance"]) == contract_periods
        assert len(calls["bond_price"]) == len(calls["forward_price"]) == periods
        keys = calls["integrated_variance"]
        assert len(calls["fp_cov_integral"]) == len(set(keys)) == len(keys) == 2 * periods
        done = {name: len(args) for name, args in calls.items()}
        assert [price_configured(setup, cc) for cc in setup.contracts] == first
        assert {name: len(args) for name, args in calls.items()} == dict(
            done, period_prices=2 * contract_periods, extreme_variance=2 * contract_periods)

    def test_method_on_non_swaption_is_config_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][1]["method"] = "bogus"
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=r"contracts\[1\]\.method"):
            load_config(path)
        assert main(["price", path]) == 2
        assert "swaption-payer" in capsys.readouterr().err

    SCHEDULE = [1.0, 1.5, 2.0]
    KINDS = {
        "fixed-coupon-bond": {"fixed_rate": 0.03},
        "floating-rate-note": {},
        "payer-swap": {"fixed_rate": 0.03},
        "cap": {"strike_rate": 0.04},
        "floor": {"strike_rate": 0.04},
        "in-arrears-payer-swap": {"strike_rate": 0.04},
        "swaption-payer": {"strike_rate": 0.04},
        "swaption-payer/quadrature-1f": {"strike_rate": 0.04, "method": "quadrature-1f"},
        "swaption-payer/monte-carlo": {"strike_rate": 0.04, "method": "monte-carlo"},
        "stream": {"legs": GRID_STREAM["legs"]},
    }
    SECTIONS = {"grid": {"nx": 31, "nt": 30}, "mc": {"paths": 1000, "seed": 3},
                "method": "monte-carlo"}
    READERS = {("stream", "grid"), ("swaption-payer", "method"),
               ("swaption-payer/quadrature-1f", "method"), ("swaption-payer/monte-carlo", "method"),
               ("swaption-payer/monte-carlo", "mc")}

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_section_only_on_the_contracts_that_read_it(self, tmp_path, capsys, kind, section):
        # grid on streams, method on swaptions, mc on Monte Carlo swaptions
        # only: on any other contract no pricer reads it, so it is refused.
        contract = {"name": "c", "kind": kind.split("/")[0], "schedule": self.SCHEDULE,
                    **self.KINDS[kind], section: self.SECTIONS[section]}
        path = write_config(tmp_path, dict(BOOK, contracts=[dict(BOOK["contracts"][0]), contract]))
        if (kind, section) in self.READERS:
            cc = load_config(path).contracts[1]
            read = {"grid": (cc.nx, cc.nt), "mc": cc.mc and (cc.mc.paths, cc.mc.seed),
                    "method": cc.method}
            assert read[section] == {"grid": (31, 30), "mc": (1000, 3), "method": "monte-carlo"}[section]
            return
        field = f"contracts[1].{section}: only "
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(path)
        assert main(["price", path]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_byte_order_mark_config_loads(self, tmp_path):
        # As a spreadsheet or editor exports UTF-8 JSON.
        p = tmp_path / "book.json"
        p.write_bytes(b"\xef\xbb\xbf" + json.dumps(BOOK).encode())
        assert load_config(str(p)) == load_config(write_config(tmp_path, BOOK, "plain.json"))

    @pytest.mark.parametrize("mutate, field", [
        (lambda c: 5, "config: expected an object"),
        (lambda c: dict(c, vol_structure=5), "vol_structure: expected an object"),
        (lambda c: dict(c, band=5), "band: expected an object"),
        (lambda c: dict(c, vol_structure={"factors": 5}), "vol_structure.factors: expected a list"),
        (lambda c: dict(c, contracts=[dict(STREAM, legs=5)]), "contracts[0].legs: expected a list"),
        (lambda c: c["contracts"][2].update(method="monte-carlo", mc={"antithetic": "no"}) or c,
         "contracts[2].mc.antithetic: expected true or false"),
        (lambda c: c["contracts"][2].update(method="montecarlo") or c,
         "contracts[2].method: unknown swaption method 'montecarlo'"),
        (lambda c: c["contracts"][2].update(method=5) or c,
         "contracts[2].method: unknown swaption method 5"),
    ], ids=["root", "vol_structure", "band", "factors", "legs", "antithetic",
            "method-name", "method-type"])
    def test_malformed_section_is_config_error(self, tmp_path, capsys, mutate, field):
        path = write_config(tmp_path, mutate(json.loads(json.dumps(BOOK))))
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(path)
        assert main(["price", path]) == 2
        assert field in capsys.readouterr().err

    def test_pricing_error_exit_3(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BOOK))
        # quadrature with two factors fails at pricing time
        cfg["vol_structure"]["factors"].append({"kind": "ho-lee", "c": 0.01})
        cfg["band"] = {"sigma_lower": [0.5, 0.5], "sigma_upper": [1.5, 1.5]}
        assert main(["price", write_config(tmp_path, cfg)]) == 3
        assert "quadrature-1f" in capsys.readouterr().err

    def test_unconverged_root_find_is_pricing_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(option_pricing, "_ROOT_ITERATION_CAP", 2)
        assert main(["price", write_config(tmp_path, BOOK)]) == 3
        err = capsys.readouterr().err
        assert "no convergence in 2 iterations" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["quadrature-1f", "monte-carlo"])
    @pytest.mark.parametrize("factor, schedule", [
        ({"kind": "hull-white", "c": 1e160, "kappa": 0.1}, [1.0, 1.5, 2.0]),
        ({"kind": "ho-lee", "c": 1e153}, [5.0 + 0.25 * k for k in range(121)]),
    ], ids=["hull-white", "ho-lee-120-periods"])
    def test_infinite_swaption_variance_is_named_pricing_error(self, tmp_path, capsys, factor,
                                                               schedule, method):
        # The total variance overflows to inf (c^2 (T_i - T_0)^2 T_0 for Ho-Lee
        # on a long schedule); it is refused, without a RuntimeWarning, before
        # the root-find or the Monte Carlo terminal vector reads it.
        swaption = dict(BOOK["contracts"][2], schedule=schedule, method=method)
        cfg = dict(BOOK, curve={"knots": [[0.0, 0.02], [40.0, 0.02]]}, contracts=[swaption],
                   vol_structure={"factors": [factor]})
        path = write_config(tmp_path, cfg)
        assert main(["price", path]) == 3
        err = capsys.readouterr().err
        assert "contract 'swaption': swaption total variance" in err and "not finite" in err
        assert "Traceback" not in err
        setup = load_config(path)
        with pytest.raises(DomainError, match="not finite"):
            price_configured(setup, setup.contracts[0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("contract", [
        {"name": "arrears", "kind": "in-arrears-payer-swap", "schedule": [1.0, 1.5, 2.0],
         "strike_rate": 0.03},
        {"name": "cap", "kind": "cap", "schedule": [1.0, 1.5, 2.0], "strike_rate": 0.04},
        {"name": "floor", "kind": "floor", "schedule": [0.5, 1.0, 2.0], "strike_rate": 0.04},
    ], ids=["in-arrears", "cap", "floor"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_infinite_variance_is_named_pricing_error(self, tmp_path, capsys, contract, fmt):
        # The product of two Hull-White loadings of c = 1e160 overflows to an
        # infinite variance: refused, naming the first period and its window,
        # before a closed form turns it into an inf or NaN bound.
        cfg = dict(BOOK, contracts=[contract],
                   vol_structure={"factors": [{"kind": "hull-white", "c": 1e160, "kappa": 0.1}]})
        path = write_config(tmp_path, cfg)
        assert main(["--format", fmt, "price", path]) == 3
        out, err = capsys.readouterr()
        t0, t1 = contract["schedule"][:2]
        message = (f"contract '{contract['name']}': period 0 [{t0}, {t1}]: variance over "
                   f"[0, {t0}] is not finite (a factor level too large for its variance integral)")
        assert err == f"pricing error: {message}\n"
        assert "Infinity" not in out and "NaN" not in out and "inf" not in out
        setup = load_config(path)
        with pytest.raises(DomainError, match=re.escape(message)):
            price_configured(setup, setup.contracts[0])

    def test_every_pricing_error_names_the_contract(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["vol_structure"]["factors"].append({"kind": "ho-lee", "c": 0.01})
        cfg["band"] = {"sigma_lower": [0.5, 0.5], "sigma_upper": [1.5, 1.5]}
        setup = load_config(write_config(tmp_path, cfg))
        with pytest.raises(UnsupportedMethodError, match="^contract 'swaption': quadrature-1f"):
            price_configured(setup, setup.contracts[2])

    def test_json_output_refuses_non_finite_numbers(self):
        from robust_rates.cli import _emit

        with pytest.raises(ValueError):
            _emit([{"name": "x", "lower": math.inf}], "json", ("lower",))

    def test_determinism_across_threads(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][2]["method"] = "monte-carlo"
        path = write_config(tmp_path, cfg)
        outputs = []
        for threads in ("1", "4"):
            assert main(["--format", "json", "--seed", "42", "--threads", threads,
                         "price", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_seed_changes_mc_results(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"] = [dict(cfg["contracts"][2], method="monte-carlo")]
        path = write_config(tmp_path, cfg)
        assert main(["--format", "json", "--seed", "1", "price", path]) == 0
        a = capsys.readouterr().out
        assert main(["--format", "json", "--seed", "2", "price", path]) == 0
        b = capsys.readouterr().out
        assert a != b


class TestStressCommand:
    def test_linear_contracts_have_zero_half_spread(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOK)
        assert main(["--format", "json", "stress", cfg, "--epsilon", "0.5"]) == 0
        rows = json.loads(capsys.readouterr().out)["contracts"]
        by_name = {r["name"]: r for r in rows}
        assert by_name["frn"]["rel_half_spread"] == 0.0
        assert by_name["cap"]["rel_half_spread"] > 0.0

    def test_small_epsilon_shrinks_spread(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOK)
        spreads = []
        for eps in ("0.5", "0.01"):
            assert main(["--format", "json", "stress", cfg, "--epsilon", eps]) == 0
            rows = json.loads(capsys.readouterr().out)["contracts"]
            spreads.append({r["name"]: r["rel_half_spread"] for r in rows})
        assert spreads[1]["cap"] < spreads[0]["cap"] / 10
        assert spreads[1]["swaption"] < spreads[0]["swaption"] / 10

    def test_epsilon_out_of_range_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, BOOK)
        assert main(["stress", cfg, "--epsilon", "1.5"]) == 2
        assert main(["stress", cfg, "--epsilon", "-0.1"]) == 2


class TestGoldenOutputs:
    """The demo book's JSON output at one thread, byte for byte."""

    HERE = os.path.dirname(os.path.abspath(__file__))
    DEMO_BOOK = os.path.join(HERE, os.pardir, "demos", "data", "book.json")

    @pytest.mark.parametrize("command, golden", [
        (["price"], "book-price.json"),
        (["stress", "--epsilon", "0.3"], "book-stress.json"),
    ], ids=["price", "stress"])
    def test_demo_book_output_is_golden(self, capsys, command, golden):
        args = ["--format", "json", "--threads", "1", command[0], self.DEMO_BOOK, *command[1:]]
        assert main(args) == 0
        with open(os.path.join(self.HERE, "golden", golden), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()


class TestVerifyCommand:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_parity_suite_passes(self, capsys):
        assert main(["verify", "parity"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestConfigNumbers:
    """Numbers are JSON numbers; integer fields take integral values."""

    @pytest.mark.parametrize("mutate, field", [
        (lambda c: c["contracts"].append(dict(GRID_STREAM, grid={"nx": 30.7})),
         "contracts[3].grid.nx: expected an integer"),
        (lambda c: c["contracts"].append(dict(GRID_STREAM, grid={"nt": True})),
         "contracts[3].grid.nt: expected an integer"),
        (lambda c: c["contracts"][2].update(method="monte-carlo", mc={"paths": 1000.5}),
         "contracts[2].mc.paths: expected an integer"),
        (lambda c: c["contracts"][2].update(method="monte-carlo", mc={"seed": True}),
         "contracts[2].mc.seed: expected an integer"),
        (lambda c: c["contracts"][2].update(method="monte-carlo", mc={"paths": 1000, "seed": -1}),
         "contracts[2].mc: seed must be in [0, 2**128)"),
        (lambda c: c["contracts"][2].update(method="monte-carlo", mc={"paths": 1000, "seed": 2**128}),
         "contracts[2].mc: seed must be in [0, 2**128)"),
        (lambda c: c["contracts"][1].update(strike_rate=True), "contracts[1].strike_rate: expected a number"),
        (lambda c: c["contracts"][1].update(strike_rate="0.04"), "contracts[1].strike_rate: expected a number"),
        (lambda c: c["contracts"][1].update(strike_rate=2**1100), "contracts[1].strike_rate: must be finite"),
        (lambda c: c["vol_structure"]["factors"][0].update(c=True),
         "vol_structure.factors[0].c: expected a number"),
        (lambda c: c["band"].update(sigma_upper=[True]), "band.sigma_upper[0]: expected a number"),
        (lambda c: c["contracts"][1].update(schedule=[True, "1.5", 2]),
         "contracts[1].schedule: contract 'cap': expected a list of dates"),
        (lambda c: c["contracts"][1].update(schedule="123"),
         "contracts[1].schedule: contract 'cap': expected a list of dates"),
        (lambda c: c["contracts"][1].update(schedule=[1, 2**1100]),
         "contracts[1].schedule: contract 'cap': dates must be finite"),
        (lambda c: c["curve"].update(knots=[[True, 0.02], [30.0, 0.02]]), "curve.knots[0][0]: expected a number"),
        (lambda c: c["curve"].update(knots=[[0.0, "0.02"], [30.0, 0.02]]), "curve.knots[0][1]: expected a number"),
        (lambda c: c["curve"].update(knots=[[0.0, 0.02, 0.03]]), "curve.knots: expected [[maturity, rate], ...]"),
    ], ids=["nx-fraction", "nt-bool", "paths-fraction", "seed-bool", "seed-negative", "seed-2**128",
            "strike-bool", "strike-string", "strike-huge", "factor-bool", "band-bool", "schedule-mixed",
            "schedule-string", "schedule-huge", "knot-bool", "knot-string", "knot-triple"])
    def test_non_numbers_are_config_errors(self, tmp_path, capsys, mutate, field):
        cfg = json.loads(json.dumps(BOOK))
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(path)
        assert main(["price", path]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_integral_numbers_load_as_integers(self, tmp_path):
        cfg = json.loads(json.dumps(BOOK))
        cfg["contracts"][2].update(method="monte-carlo", mc={"paths": 1000.0, "seed": 2**128 - 1})
        cfg["contracts"].append(dict(GRID_STREAM, grid={"nx": 31.0, "nt": 30}))
        swaption, stream = load_config(write_config(tmp_path, cfg)).contracts[2:]
        values = (stream.nx, stream.nt, swaption.mc.paths, swaption.mc.seed)
        assert values == (31, 30, 1000, 2**128 - 1)
        assert all(type(v) is int for v in values)
