import json

import pytest
from render_reference import reference_csv, reference_json, reference_markdown

from fpaccel import Status
from fpaccel.cli import (
    _SUITES,
    METHODS,
    Experiment,
    GoldenValue,
    MethodColumn,
    UsageError,
    _parse_params,
    main,
    render,
    render_csv,
    render_json,
    render_markdown,
    run_experiment,
    run_suite,
)
from fpaccel.maps import corpus_lookup


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


TABLE1_ARGS = [
    "--problem", "sin",
    "--method", "plain", "--method", "first_newton", "--method", "standard",
    "--method", "aitken", "--method", "theta2",
    "--max-iter", "4",
]


def test_markdown_sine_table(capsys):
    rc, out, _ = _run(capsys, TABLE1_ARGS)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| n | plain | first_newton | standard | aitken | theta2 |"
    assert lines[2] == "| 0 | 3 | 3 | 3 |  |  |"
    assert lines[4] == "| 2 | 0.140652 | 0.995758 | 0.173163 | 0.0938926 | 0.141125 |"
    assert lines[5] == "| 3 | 0.140189 | 0.652467 | 0.000345858 | 0.0935825 | -0.000754788 |"
    assert "2.6182e-12" in lines[6]


def test_markdown_pads_blown_up_column(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "kvb_complex", "--method", "plain", "--method", "standard",
         "--max-iter", "5"],
    )
    assert rc == 0
    assert out.count("Indeterminate") == 2
    lines = out.strip().splitlines()
    assert lines[2].startswith("| 0 | 1.9+0.1i |")
    assert lines[6].startswith("| 4 | Indeterminate |")
    assert len(lines) == 8


def test_csv_blowup_rows(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "kvb_complex", "--method", "plain", "--method", "standard",
         "--max-iter", "5", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,method,re,im,status"
    assert "4,plain,,,nonfinite" in lines
    assert "5,plain,,,nonfinite" in lines
    last = [l for l in lines if l.startswith("5,standard,")][0]
    _, _, re_s, im_s, status = last.split(",")
    assert status == "ok"
    assert abs(float(re_s) - 2.0) <= 1e-9
    assert abs(float(im_s)) <= 1e-9


def test_json_nulls_and_precision(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "kvb_complex", "--method", "plain", "--method", "standard",
         "--max-iter", "5", "--format", "json"],
    )
    assert rc == 0
    docs = json.loads(out)
    assert [d["method"] for d in docs] == ["plain", "standard"]
    plain, std = docs
    assert list(plain["rows"][0]) == ["n", "re", "im", "status"]
    assert plain["stop_reason"] == "nonfinite"
    assert plain["rows"][4]["re"] is None and plain["rows"][4]["im"] is None
    assert plain["rows"][4]["status"] == "nonfinite"
    assert std["stop_reason"] == "max_iter"
    assert abs(std["rows"][5]["re"] - 2.0) <= 1e-9
    # repr round trip keeps full precision
    assert plain["rows"][1]["re"] == 2.391422135261737


def test_iterated_aitken_rows_start_at_depth(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "sin", "--method", "iterated_aitken:2", "--max-iter", "6",
         "--format", "json"],
    )
    assert rc == 0
    (doc,) = json.loads(out)
    assert doc["rows"][0]["n"] == 2
    assert len(doc["rows"]) == 3
    assert doc["stop_reason"] == Status.END_OF_INPUT.value


def test_transform_column_offsets():
    prob = corpus_lookup("sin")
    exp = run_experiment(
        prob, ["aitken", "theta2", "w_transform", "iterated_aitken:3"], None, 8
    )
    assert [c.offset for c in exp.columns] == [1, 2, 1, 3]
    # w column covers every plain iterate, so its last row is offset + 9
    assert exp.n_rows == 10


def test_integral_and_compose_methods(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "sin", "--method", "integral:2", "--method", "compose:standard:2",
         "--max-iter", "2", "--format", "json"],
    )
    assert rc == 0
    integ, comp = json.loads(out)
    assert abs(integ["rows"][1]["re"]) < 3.0
    assert abs(comp["rows"][2]["re"]) < 1e-10


def test_complex_start_override(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "sin", "--x0", "0.3", "--x0-im", "0.1",
         "--max-iter", "2", "--format", "csv"],
    )
    assert rc == 0
    row1 = [l for l in out.splitlines() if l.startswith("1,plain,")][0]
    assert float(row1.split(",")[3]) != 0.0


def test_render_is_deterministic():
    prob = corpus_lookup("sin")
    a = render(run_experiment(prob, ["plain", "standard"], None, 4), "markdown")
    b = render(run_experiment(prob, ["plain", "standard"], None, 4), "markdown")
    assert a == b


def test_render_rejects_unknown_format():
    exp = run_experiment(corpus_lookup("sin"), ["plain"], None, 2)
    with pytest.raises(UsageError):
        render(exp, "yaml")


def test_suites_all_green(capsys):
    rc, out, _ = _run(capsys, ["--suite", "table1", "--suite", "table2", "--suite", "table3"])
    assert rc == 0
    assert "FAIL" not in out
    assert out.strip().endswith("43/43 checks passed")
    assert "PASS table1 standard[4]" in out
    assert "PASS table3 plain beyond 1e30 by step 3" in out


def test_suite_runner_direct(capsys):
    assert run_suite(["table2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("6/6 checks passed")


def test_unknown_suite(capsys):
    rc, out, err = _run(capsys, ["--suite", "table9"])
    assert rc == 2
    assert "unknown suite" in err
    # every name is checked before any suite runs
    rc, out, err = _run(capsys, ["--suite", "table1", "--suite", "table9"])
    assert rc == 2
    assert err.startswith("error: unknown suite 'table9'")
    assert out == ""
    # a direct caller gets the error main prints
    with pytest.raises(UsageError, match="unknown suite 'table9'"):
        run_suite(["table1", "table9"])
    assert capsys.readouterr() == ("", "")


def test_suite_cells_name_their_own_columns():
    assert {name: len(s.golden) for name, s in _SUITES.items()} == {"table1": 17, "table2": 6, "table3": 16}
    for suite in _SUITES.values():
        for gv in suite.golden:
            assert gv.method in suite.methods, (suite.problem, gv)
            assert 0 <= gv.index <= suite.max_iter, (suite.problem, gv)


def test_golden_value_modes():
    ok, _ = GoldenValue("m", 0, 0.5, tol=1e-3).check(0.5004)
    assert ok
    ok, _ = GoldenValue("m", 0, 0.5, tol=1e-3).check(0.502)
    assert not ok
    ok, _ = GoldenValue("m", 0, 100.0, mode="rel", tol=1e-2).check(100.9)
    assert ok
    ok, _ = GoldenValue("m", 0, 1e-12, mode="factor", tol=10.0).check(5e-12)
    assert ok
    ok, _ = GoldenValue("m", 0, 1e-12, mode="factor", tol=10.0).check(5e-11)
    assert not ok
    ok, _ = GoldenValue("m", 0, 0.25, part="im", tol=1e-6).check(complex(9.0, 0.25))
    assert ok
    with pytest.raises(ValueError):
        GoldenValue("m", 0, 1.0, part="bogus").check(1.0)
    with pytest.raises(ValueError):
        GoldenValue("m", 0, 1.0, mode="bogus").check(1.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "cosh"],
        ["--problem", "sin", "--method", "halley"],
        ["--problem", "sin", "--method", "integral:x"],
        ["--problem", "sin", "--method", "integral"],
        ["--problem", "sin", "--method", "compose:standard"],
        ["--problem", "logistic", "--param", "a"],
        ["--problem", "logistic", "--param", "a=fast"],
        ["--problem", "sin", "--param", "a=1.0"],
        [],
        ["--problem", "sin", "--method", "compose:standard:0"],
        ["--problem", "sin", "--method", "iterated_aitken:-1", "--max-iter", "5"],
        ["--problem", "sin", "--method", "iterated_aitken:x", "--max-iter", "1"],
        ["--problem", "kvb_complex", "--method", "integral:2"],
        ["--problem", "sin", "--max-iter", "-1"],
        ["--problem", "sin", "--tol=-1e-9"],
        ["--problem", "sin", "--tol=nan"],
        ["--problem", "sin", "--tol=inf"],
        ["--problem", "power_family", "--param", "alpha=1", "--param", "r=1,2"],
        ["--problem", "s_family", "--param", "alphas=1", "--param", "r=1,2"],
        ["--problem", "s_family", "--param", "alphas=1,abc", "--param", "r=1"],
        ["--problem", "s_family", "--param", "alphas=,", "--param", "r=1"],
        ["--problem", "logistic", "--param", "a="],
        ["--problem", "logistic", "--param", "a=1,2"],
        ["--problem", "power_family", "--param", "alpha=1,2", "--param", "r=3"],
        ["--problem", "sin", "--method", "compose:standard:x"],
        ["--problem", "sin", "--method", "aitken:3"],
        ["--problem", "sin", "--method", "theta2:x"],
        ["--problem", "sin", "--method", "w_transform:9"],
        ["--problem", "sin", "--method", "plain:1"],
        ["--problem", "sin", "--method", "compose:aitken:2"],
        ["--problem", "sin", "--method", "iterated_aitken"],
        ["--problem", "logistic", "--param", "a=nan"],
        ["--problem", "logistic", "--param", "a=inf"],
        ["--problem", "power_family", "--param", "alpha=1", "--param", "r=3", "--param", "x_star=nan"],
        ["--problem", "power_family", "--param", "alpha=-inf", "--param", "r=3"],
        ["--problem", "s_family", "--param", "alphas=1,nan", "--param", "r=1"],
        ["--problem", "s_family", "--param", "alphas=inf", "--param", "r=1"],
        ["--problem", "s_family", "--param", "alphas=1", "--param", "r=1", "--param", "x_star=inf"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["--problem", "sin", "--method", "plain", "--method", "iterated_aitken:50",
          "--max-iter", "5"], 6),
        (["--problem", "sin", "--method", "aitken", "--max-iter", "1"], 0),
        (["--problem", "logistic", "--param", "a=1", "--x0", "0", "--method", "plain",
          "--method", "aitken"], 2),
    ],
)
def test_short_plain_trace_gives_empty_transform_column(capsys, argv, rows):
    rc, out, err = _run(capsys, argv + ["--format", "json"])
    assert rc == 0 and err == ""
    *steps, transform = json.loads(out)
    assert transform["rows"] == [] and transform["stop_reason"] == Status.END_OF_INPUT.value
    assert [len(doc["rows"]) for doc in steps] == [rows] * len(steps)
    # an empty column adds no blank markdown rows
    rc, out, _ = _run(capsys, argv)
    assert rc == 0 and len(out.splitlines()) == 2 + rows


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_overflowing_transform_stops_nonfinite(capsys):
    argv = ["--problem", "power_family", "--param", "alpha=-1", "--param", "r=1.5",
            "--x0", "-12.22", "--method", "plain", "--method", "aitken", "--max-iter", "14"]
    rc, out, _ = _run(capsys, argv + ["--format", "json"])
    assert rc == 0
    plain, aitken = json.loads(out, parse_constant=_reject_constant)
    assert aitken["stop_reason"] == "nonfinite"
    assert all(row["status"] == "ok" for row in aitken["rows"])
    rc, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert "inf" not in out


def _spec(name):
    # one valid value for each of the method's argument slots
    fill = {"J": "1", "METHOD": "standard", "K": "2", "D": "1"}
    return ":".join([name] + [fill[a] for a in METHODS[name].args])


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_method_runs_on_sin(name):
    spec = _spec(name)
    exp = run_experiment(corpus_lookup("sin"), [spec], 3.0, 6)
    (col,) = exp.columns
    assert col.method == spec
    assert len(col.values) >= 3
    if METHODS[name].transform:
        assert col.offset >= 1
    else:
        assert col.offset == 0 and col.values[0] == 3.0
    assert all(abs(v) < 3.0 for v in col.values[1:])
    for fmt in ("markdown", "csv", "json"):
        assert render(exp, fmt)
    with pytest.raises(UsageError):
        run_experiment(corpus_lookup("sin"), [spec + ":9"], 3.0, 6)


@pytest.mark.parametrize(
    "problem, params, x0",
    [("sin", {}, None), ("logistic", {"a": 1.0}, None), ("fdil", {}, 0.5), ("kvb_complex", {}, None)],
)
def test_renders_match_reference_encoders(problem, params, x0):
    # every method the problem accepts; kvb_complex's plain column ends in
    # Indeterminate pad rows and fdil from 0.5 leaves its transform columns empty
    real_only = {"integral"} if problem == "kvb_complex" else set()
    specs = [_spec(name) for name in METHODS if name not in real_only]
    exp = run_experiment(corpus_lookup(problem, **params), specs, x0, 12)
    assert render_markdown(exp) == reference_markdown(exp)
    assert render_json(exp) == reference_json(exp)
    assert render_csv(exp) == reference_csv(exp)


def test_renders_of_empty_columns_match_reference_encoders():
    for exp in (
        Experiment("sin", [], 0),
        Experiment("sin", [MethodColumn("aitken", 0, (), Status.END_OF_INPUT.value)], 0),
    ):
        assert render_markdown(exp) == reference_markdown(exp)
        assert render_json(exp) == reference_json(exp)
        assert render_csv(exp) == reference_csv(exp)
    assert render_json(Experiment("sin", [], 0)) == "[]"
    # no columns but a row count still gives that many numbered rows
    rowed = Experiment("sin", [], 2)
    assert render_markdown(rowed) == reference_markdown(rowed)


def test_int_start_renders_as_int_in_markdown_and_float_elsewhere():
    # iterate keeps an int x0 as the column's first point
    exp = run_experiment(corpus_lookup("sin"), ["plain", "aitken"], 1, 4)
    assert type(exp.columns[0].values[0]) is int
    assert render_markdown(exp).splitlines()[2] == "| 0 | 1 |  |"
    assert render_csv(exp).splitlines()[1] == "0,plain,1.0,0.0,ok"
    assert '"n": 0,\n        "re": 1.0,\n        "im": 0.0,' in render_json(exp)
    assert render_markdown(exp) == reference_markdown(exp)
    assert render_json(exp) == reference_json(exp)
    assert render_csv(exp) == reference_csv(exp)


_STATUS_TEXT = {s.value for s in Status}


def test_status_cells_are_plain_values():
    # str() and format() of an Enum member differ across Python versions;
    # every rendered status must be the member's value
    exp = run_experiment(corpus_lookup("kvb_complex"), ["plain", "standard", "aitken"], None, 8)
    lines = render(exp, "csv").splitlines()[1:]
    assert {line.rsplit(",", 1)[1] for line in lines} <= _STATUS_TEXT
    for doc in json.loads(render(exp, "json")):
        assert doc["stop_reason"] in _STATUS_TEXT
        assert {row["status"] for row in doc["rows"]} <= _STATUS_TEXT
    stops = ["nonfinite", "converged", Status.END_OF_INPUT.value]
    assert [c.stop_reason for c in exp.columns] == stops
    assert all(type(c.stop_reason) is str for c in exp.columns)


def test_status_cell_rule():
    # every value row reads ok but the last of a converged or diverged column,
    # which reads the stop reason; pad rows read nonfinite
    exp = run_experiment(corpus_lookup("kvb_complex"), ["plain", "standard", "aitken"], None, 8)
    plain, std, aitken = json.loads(render(exp, "json"))
    assert [row["status"] for row in plain["rows"]] == ["ok"] * 4 + ["nonfinite"] * 5
    assert [row["status"] for row in std["rows"]] == ["ok"] * 6 + ["converged"]
    assert {row["status"] for row in aitken["rows"]} == {"ok"}
    diverged = Experiment("p", [MethodColumn("m", 0, (1.0, 2.0), "diverged")], 2)
    assert render(diverged, "csv").splitlines()[1:] == ["0,m,1.0,0.0,ok", "1,m,2.0,0.0,diverged"]


def test_overflowing_modulus_ends_column_nonfinite(capsys):
    # the second iterate has finite parts but a modulus beyond the largest float
    argv = ["--problem", "logistic", "--param", "a=1", "--x0", "1.2e154", "--x0-im", "0.6e154",
            "--method", "plain", "--max-iter", "2"]
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    rc, out, _ = _run(capsys, argv + ["--format", "json"])
    assert rc == 0
    (doc,) = json.loads(out)
    assert doc["stop_reason"] == "nonfinite"
    assert [row["status"] for row in doc["rows"]] == ["ok", "nonfinite", "nonfinite"]
    assert doc["rows"][0]["re"] == 1.2e154


def test_infinite_argument_ends_every_column_nonfinite(capsys):
    # 2z overflows to inf+inf*j, where cmath.exp raises ValueError
    argv = ["--problem", "kvb_complex", "--x0", "1e308", "--x0-im", "1e308",
            "--method", "plain", "--method", "steffensen", "--method", "standard",
            "--max-iter", "2", "--format", "json"]
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    for doc in json.loads(out):
        assert doc["stop_reason"] == "nonfinite"
        assert [row["status"] for row in doc["rows"]] == ["ok", "nonfinite", "nonfinite"]
        assert (doc["rows"][0]["re"], doc["rows"][0]["im"]) == (1e308, 1e308)


def test_quadrature_failure_ends_its_column_singular(capsys):
    # integral:3 cannot meet its absolute budget at 55; the plain column survives
    argv = ["--problem", "sin", "--x0", "55", "--method", "plain", "--method", "integral:3",
            "--max-iter", "3", "--format", "json"]
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    plain, integ = json.loads(out)
    assert len(plain["rows"]) == 4 and plain["stop_reason"] == "max_iter"
    assert [row["re"] for row in integ["rows"]] == [55.0]
    assert integ["stop_reason"] == "singular"


@pytest.mark.parametrize("x0", ["0.5", "0.9"])
def test_w_transform_domain_error_is_a_stop_reason(capsys, x0):
    rc, out, err = _run(
        capsys,
        ["--problem", "fdil", "--x0", x0, "--method", "plain", "--method", "w_transform",
         "--format", "json"],
    )
    assert rc == 0, err
    assert [doc["stop_reason"] for doc in json.loads(out)] == ["domain", "domain"]


def test_param_parsing():
    assert _parse_params(["a=2.5"]) == {"a": 2.5}
    assert _parse_params(["alphas=1,0.5", "r=1.5"]) == {"alphas": (1.0, 0.5), "r": 1.5}
    with pytest.raises(UsageError):
        _parse_params(["a"])
    with pytest.raises(UsageError):
        _parse_params(["a=two"])
    with pytest.raises(UsageError, match="--param alphas wants"):
        _parse_params(["alphas=1,abc"])


def test_param_tuple_reaches_problem(capsys):
    rc, out, _ = _run(
        capsys,
        ["--problem", "s_family", "--param", "alphas=1,0.5", "--param", "r=1.5",
         "--max-iter", "2", "--format", "csv"],
    )
    assert rc == 0
    assert out.splitlines()[1].startswith("0,plain,0.25,")
