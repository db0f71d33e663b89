"""End-to-end CLI runs: exit codes, outputs, determinism."""

import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentphase.cli import DEFAULTS, EXIT_NOCONV, EXIT_OK, EXIT_PARSE, EXIT_RANGE, main
from momentphase.series import FormalSeries, series_exp

NAN, INF = float("nan"), float("inf")


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def dirac_line_file(tmp_path, mass=1.0, order=3):
    return write_json(
        tmp_path / "dirac.json",
        {"kind": "power", "support": "half_line", "values": [mass] + [0.0] * order},
    )


def beta_jump_file(tmp_path, beta=0.5, order=12):
    # measure whose phase is beta on [0, 1]: moment series 1 - exp(-phase series)
    a_phi = np.array([beta / (k + 1) for k in range(order + 1)])
    s = FormalSeries.zeros(1, order + 1)
    s.coeff[1:] = -a_phi
    a_mu = (-series_exp(s).coeff[1:].real).tolist()
    return write_json(
        tmp_path / "betajump.json",
        {"kind": "power", "support": [0.0, 1.0], "values": a_mu},
    )


def test_line_pipeline_dirac(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            dirac_line_file(tmp_path),
            "--pipeline", "line",
            "--grid", "512",
            "--tol", "1e-8",
            "--max-sweeps", "200000",
            "--delta", "0.1",
            "-o", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 1
    assert report["solver"]["converged"] is True
    # conditioned moments of a unit point mass at the origin: 1/(n+1)
    cond = report["conditioned_moments"]
    assert cond == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4], rel=1e-12)
    assert (out / "density.csv").exists()
    assert (out / "phase.csv").exists()
    assert report["provenance"]["sign_oracle_residual"] < 1e-6
    assert report["feasibility"] == "boundary"


def test_conditioned_dirac_converges_in_few_steps(tmp_path):
    # the default budget allows 500,000 steps; a Newton-started solve of
    # the bounded phase needs a handful
    out = tmp_path / "out"
    assert main([dirac_line_file(tmp_path), "--pipeline", "line", "-o", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["converged"] is True
    assert report["solver"]["iterations"] < 100


def test_line_point_mass_off_origin_converges(tmp_path):
    # mass 0.5 at 1.0: its phase is one on [1, 1.5], so a window starting
    # at 0 would leave most quadrature nodes where the phase vanishes
    path = write_json(
        tmp_path / "atom.json",
        {"kind": "power", "support": "half_line", "values": [0.5, 0.5, 0.5, 0.5]},
    )
    out = tmp_path / "out"
    assert main([path, "--pipeline", "line", "-o", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["converged"] is True
    assert report["phase_interval"][0] > 0


OFF_ORIGIN_ATOMS = [(0.5, 1.0, 11), (0.4, 2.0, 9)] + [
    (mass, at, 9) for mass in (0.3, 0.45, 0.6) for at in (0.5, 1.0, 1.5, 2.0)
]


@pytest.mark.parametrize("mass, at, count", OFF_ORIGIN_ATOMS)
def test_conditioned_atoms_off_origin_recover_their_phase(tmp_path, mass, at, count):
    # the phase of mass m at x is the indicator of [x, x + m], so the
    # solver's window sits away from the origin
    from momentphase.transform import read_csv

    path = write_json(
        tmp_path / "atom.json",
        {"kind": "power", "support": "half_line",
         "values": [mass * at**n for n in range(count)]},
    )
    out = tmp_path / "out"
    assert main([path, "--pipeline", "line", "--max-sweeps", "20000", "-o", str(out)]) == EXIT_OK
    phi = read_csv(out / "phase.csv")
    assert phi.a <= at and at + mass <= phi.b
    indicator = (phi.grid >= at) & (phi.grid <= at + mass)
    assert np.sum(np.abs(phi.values - indicator)) * phi.step < 0.1 * mass


def test_skip_condition_negative_control(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            dirac_line_file(tmp_path),
            "--pipeline", "line",
            "--skip-condition",
            "--max-sweeps", "30000",
            "-o", str(out),
        ]
    )
    assert code == EXIT_NOCONV
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["converged"] is False
    assert report["conditioned_moments"] is None


@pytest.mark.parametrize(
    "pipeline, payload",
    [
        ("line", {"kind": "power", "support": "half_line", "values": []}),
        ("line", {"kind": "power", "support": "half_line", "values": [1, NAN, 0, 0]}),
        ("line", {"kind": "power", "support": [0.0, 1.0], "values": [1, 0.5, INF]}),
        ("circle", {"kind": "trig", "values": [[0.2, 0.0], [0.1, -INF]]}),
        (
            "polydisk",
            {"kind": "multi", "dimension": 1, "order": 2,
             "values": [[[0], 1.0], [[1], NAN], [[2], 0.1]]},
        ),
        ("line", {"kind": "power", "support": [1.0], "values": [1, 0.5, 0.3]}),
        ("line", [1.0, 0.5, 0.3]),
        ("line", {"kind": "power", "support": "half_line", "values": [0.0, 0.0, 0.0]}),
        ("polydisk", {"kind": "multi", "dimension": 1, "order": 2,
                      "values": [[[0], -1.0], [[1], 0.5], [[2], 0.3]]}),
        ("line", {"kind": "power", "support": "half_line", "values": [1.0, 0.5]}),
        ("line", {"kind": "power", "support": [NAN, 1.0], "values": [1, 0.5, 0.3]}),
        ("line", {"kind": "power", "support": [0.0, INF], "values": [1, 0.5, 0.3]}),
        # finite moments whose conditioned moments overflow
        ("line", {"kind": "power", "support": "half_line", "values": [1, 0.5, 1e308, 0.1]}),
        (
            "polydisk",
            {"kind": "multi", "dimension": 1, "order": 3,
             "values": [[[0], 1.0], [[1], 1e308], [[2], 1e308], [[3], 1.0]]},
        ),
        ("polydisk", {"kind": "multi", "dimension": 2, "order": 1,
                      "values": [[[0, 0], 1.0], [[1.7, 0], 0.3]]}),
        ("polydisk", {"kind": "multi", "dimension": 2.9, "order": 1,
                      "values": [[[0, 0], 1.0], [[1, 0], 0.3]]}),
        ("polydisk", {"kind": "multi", "dimension": 2, "order": 1,
                      "values": [[[0, 0], 1.0], [[1, 0], 0.3], [[0, 0], 2.0]]}),
        # JSON integers too large for a float
        ("line", {"kind": "power", "support": "half_line", "values": [10**400, 0, 0, 0]}),
        ("circle", {"kind": "trig", "values": [[10**400, 0.0], [0.1, 0.0]]}),
        ("polydisk", {"kind": "multi", "dimension": 1, "order": 1,
                      "values": [[[0], 1.0], [[1], 10**400]]}),
        # a few bytes that ask for a dense series over the size cutoffs
        ("polydisk", {"kind": "multi", "dimension": 4, "order": 30,
                      "values": [[[0, 0, 0, 0], 1.0], [[1, 0, 0, 0], 0.1]]}),
        ("polydisk", {"kind": "multi", "dimension": 1, "order": 100_000_000,
                      "values": [[[0], 1.0], [[1], 0.1]]}),
        ("raybeam", {"kind": "multi", "dimension": 2, "order": 100_000_000,
                     "values": [[[0, 0], 1.0], [[1, 0], 0.1]]}),
        ("polydisk", {"kind": "multi", "dimension": 5000, "order": 0,
                      "values": [[[0] * 5000, 1.0]]}),
        ("polydisk", {"kind": "multi", "dimension": 10_000_000, "order": 0,
                      "values": [[[0], 1.0]]}),
        ("line", {"kind": "power", "support": "half_line", "values": [1.0] + [0.0] * 65}),
        ("circle", {"kind": "trig", "values": [[0.2, 0.0]] + [[0.0, 0.0]] * 65}),
    ],
    ids=["empty", "power-nan", "power-inf", "trig-inf", "multi-nan", "one-bound", "list",
         "line-zero-mass", "polydisk-negative-mass", "line-two-moments", "support-nan",
         "support-inf", "line-conditioning-overflow", "polydisk-conditioning-overflow",
         "multi-fractional-index", "multi-fractional-dimension", "multi-repeated-index",
         "power-int-overflow", "trig-int-overflow", "multi-int-overflow",
         "multi-over-coefficient-cutoff", "multi-over-order-cutoff", "raybeam-over-order-cutoff",
         "multi-over-dimension-cutoff", "multi-far-over-dimension-cutoff",
         "power-over-order-cutoff", "trig-over-order-cutoff"],
)
def test_empty_moments_file_is_parse_error(tmp_path, pipeline, payload):
    path = write_json(tmp_path / "moments.json", payload)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main([path, "--pipeline", pipeline, "-o", str(out)]) == EXIT_PARSE
    assert not out.exists()


def test_widest_multi_header_under_the_cutoffs_runs_at_once(tmp_path):
    # 901 coefficients of dimension 900: the index and product tables must
    # grow with the pairs whose degrees fit, not with all pairs times the
    # dimension (about 9 s on a 2-core host); the run takes well under 1 s
    d = 900
    path = write_json(
        tmp_path / "wide.json",
        {"kind": "multi", "dimension": d, "order": 1,
         "values": [[[0] * d, 1.0], [[1] + [0] * (d - 1), 0.1]]},
    )
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([path, "--pipeline", "polydisk", "-o", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 4.0
    entries = json.loads((out / "conditioned.json").read_text())["entries"]
    assert [idx[:2] for idx, _, _ in entries] == [[0, 0], [1, 0]]


def test_malformed_json_is_parse_error(tmp_path):
    # a syntax error, and nesting deeper than the parser can recurse, as the
    # moments file and as the config file
    moments = dirac_line_file(tmp_path)
    for i, text in enumerate(["{not json", "[" * 100_000 + "]" * 100_000]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"o{i}"
        assert main([str(path), "--pipeline", "line", "-o", str(out)]) == EXIT_PARSE
        assert main([moments, "--config", str(path), "-o", str(out)]) == EXIT_PARSE
        assert not out.exists()


def test_wrong_kind_for_pipeline_is_parse_error(tmp_path, capsys):
    path = write_json(tmp_path / "trig.json", {"kind": "trig", "values": [[0.5, 0.0]]})
    out = tmp_path / "o"
    assert main([path, "--pipeline", "line", "-o", str(out)]) == EXIT_PARSE
    assert "error: cannot read input: line pipeline expects" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "order, directions, huge",
    [
        (2, [[1.0, 1.0], [1.0, 0.0]], None),
        (1, [[1.0, 1.0]], None),
        (2, [[NAN, 1.0]], None),
        (2, [[INF, 1.0]], None),
        (2, [], None),
        (3, [[1.0, 1.0]], [1, 1]),
        (2, [[10**400, 1.0]], None),
        (2, [[1, 1], [1, 2, 3]], None),
        (2, {"y": [1.0, 1.0]}, None),
    ],
    ids=["zero-direction-component", "two-moments", "nan-direction-component",
         "inf-direction-component", "no-directions", "ray-conditioning-overflow",
         "int-overflow-direction-component", "mixed-dimension-directions",
         "directions-not-a-list"],
)
def test_bad_ray_input_exits_before_output(
    tmp_path, monkeypatch, capsys, order, directions, huge
):
    # `huge` names the one moment set to 1e308, whose ray phase moments
    # overflow; every fault of the directions file is refused as input, before
    # any ray is solved
    import momentphase.raybeam

    solved = []
    monkeypatch.setattr(
        momentphase.raybeam, "solve_power_moments", lambda *a, **k: solved.append(a)
    )
    values = [
        [[i, j], 1e308 if [i, j] == huge else 1.0 / ((i + 1) * (j + 1))]
        for i in range(order + 1)
        for j in range(order + 1 - i)
    ]
    path = write_json(
        tmp_path / "square.json",
        {"kind": "multi", "dimension": 2, "order": order, "values": values},
    )
    dirs = write_json(tmp_path / "dirs.json", directions)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main([path, "--pipeline", "raybeam", "--directions", dirs, "-o", str(out)])
    assert code == EXIT_PARSE
    assert not out.exists()
    assert solved == []
    # with order 2 the moments are sound: the fault is the directions file's
    if order == 2:
        assert capsys.readouterr().err.startswith("error: cannot read input:")


def test_phase_range_violation_exits_4(tmp_path):
    # moments that condition to the moments of a height-two block: no
    # admissible phase has them (phases are bounded by one), so the
    # reconstructed profile breaks the range check at inversion time
    spike = np.array(
        [2.0 * (0.8 ** (j + 1) - 0.3 ** (j + 1)) / (j + 1) for j in range(6)]
    )
    s = FormalSeries.zeros(1, 6)
    s.coeff[1:] = -spike
    a_mu = (-series_exp(s).coeff[1:].real).tolist()
    path = write_json(
        tmp_path / "tall.json",
        {"kind": "power", "support": [0.0, 1.0], "values": a_mu},
    )
    out = tmp_path / "out"
    code = main(
        [path, "--pipeline", "line", "--tol", "1e-3", "--delta", "0.1", "-o", str(out)]
    )
    assert code == EXIT_RANGE
    report = json.loads((out / "report.json").read_text())
    assert "error" in report


def test_beta_jump_line_pipeline_recovers_density(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            beta_jump_file(tmp_path),
            "--pipeline", "line",
            "--grid", "1024",
            "--tol", "1e-8",
            "--max-sweeps", "400000",
            "--delta", "0.1",
            "-o", str(out),
        ]
    )
    assert code == EXIT_OK
    from momentphase.transform import read_csv

    rho = read_csv(out / "density.csv")
    x = rho.grid
    exact = np.sqrt((1 - x) / x) / np.pi
    inner = (x > 0.05) & (x < 0.95)
    l1 = np.sum(np.abs(rho.values - exact)[inner]) / np.sum(exact[inner])
    assert l1 < 0.05
    report = json.loads((out / "report.json").read_text())
    assert report["mass"]["recovered"] == pytest.approx(0.5, rel=0.02)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_circle_pipeline_point_mass(tmp_path):
    theta0, sig, mass, m = 0.7, 0.4, 1.0, 8
    tau = [
        mass * np.exp(-1j * k * theta0) * np.exp(-(k**2) * sig**2 / 2) / (2 * np.pi)
        for k in range(m + 1)
    ]
    path = write_json(
        tmp_path / "circ.json",
        {"kind": "trig", "values": [[v.real, v.imag] for v in tau]},
    )
    out = tmp_path / "out"
    code = main(
        [path, "--pipeline", "circle", "--grid", "1024", "--tol", "1e-8", "-o", str(out)]
    )
    assert code == EXIT_OK
    from momentphase.transform import read_csv

    rho = read_csv(out / "density.csv")
    assert rho.kind == "circle"
    recovered = np.sum(rho.values) * rho.step
    assert recovered == pytest.approx(mass, rel=0.02)
    # density concentrates near theta0
    assert abs(rho.grid[np.argmax(rho.values)] - theta0) < 0.3


def test_polydisk_pipeline_emits_conditioned_moments(tmp_path):
    c, a, n = 2.0, 0.5, 8
    path = write_json(
        tmp_path / "poly.json",
        {
            "kind": "multi",
            "dimension": 1,
            "order": n,
            "values": [[[k], c * a**k] for k in range(n + 1)],
        },
    )
    out = tmp_path / "out"
    assert main([path, "--pipeline", "polydisk", "-o", str(out)]) == EXIT_OK
    payload = json.loads((out / "conditioned.json").read_text())
    assert payload["total_mass"] == pytest.approx(c)
    entries = {tuple(idx): complex(re, im) for idx, re, im in payload["entries"]}
    for k in range(1, n + 1):
        assert entries[(k,)] == pytest.approx(a**k / (2j * k), rel=1e-12)


def test_raybeam_pipeline_writes_slices(tmp_path):
    n = 6
    values = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            values.append([[i, j], 1.0 / ((i + 1) * (j + 1))])
    path = write_json(
        tmp_path / "square.json",
        {"kind": "multi", "dimension": 2, "order": n, "values": values},
    )
    dirs = write_json(tmp_path / "dirs.json", [[1.0, 1.0], [2.0, 1.0]])
    out = tmp_path / "out"
    code = main(
        [
            path,
            "--pipeline", "raybeam",
            "--directions", dirs,
            "--grid", "1024",
            "--tol", "1e-5",
            "--delta", "0.1",
            "--max-sweeps", "200000",
            "-o", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["rays"]) == 2
    for i in range(2):
        assert (out / f"phase_{i:03d}.csv").exists()
        assert (out / f"slice_{i:03d}.csv").exists()
    assert report["rays"][0]["phase_moments"][0] == pytest.approx(1.0)


def test_raybeam_requires_directions(tmp_path):
    path = write_json(
        tmp_path / "m.json",
        {"kind": "multi", "dimension": 2, "order": 2,
         "values": [[[0, 0], 1.0], [[1, 0], 0.5], [[0, 1], 0.5], [[1, 1], 0.25],
                    [[2, 0], 0.33], [[0, 2], 0.33]]},
    )
    out = tmp_path / "o"
    assert main([path, "--pipeline", "raybeam", "-o", str(out)]) == EXIT_PARSE
    assert not out.exists()


def test_outputs_are_deterministic(tmp_path):
    path = dirac_line_file(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                path,
                "--pipeline", "line",
                "--grid", "256",
                "--tol", "1e-7",
                "--delta", "0.1",
                "--max-sweeps", "100000",
                "-o", str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out)
    for fname in ("report.json", "density.csv", "phase.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_config_file_overrides_flags(tmp_path):
    path = dirac_line_file(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", {"grid": 256, "delta": 0.1})
    out = tmp_path / "out"
    code = main(
        [path, "--pipeline", "line", "--grid", "1024", "--config", cfg, "-o", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["config"]["grid"] == 256


def test_unknown_config_key_is_rejected(tmp_path):
    path = dirac_line_file(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", {"grits": 256})
    assert main([path, "--config", cfg, "-o", str(tmp_path / "o")]) == EXIT_PARSE


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid", "1000"],
        ["--grid", "1"],
        ["--nodes", "1"],
        ["--tol", "-1"],
        ["--tol", "0"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--max-sweeps", "0"],
        ["--delta", "0"],
        ["--delta", "-0.5"],
        # over the size cutoffs
        ["--grid", "17179869184"],
        ["--nodes", "100000"],
    ],
    ids=lambda flags: "".join(flags).lstrip("-"),
)
def test_bad_config_value_exits_before_output(tmp_path, flags):
    out = tmp_path / "o"
    code = main([dirac_line_file(tmp_path), "--pipeline", "line", *flags, "-o", str(out)])
    assert code == EXIT_PARSE
    assert not out.exists()


BAD_CONFIG_FILES = [
    {"grid": "1024"},
    {"window": [1.0]},
    {"window": [-4.0, 12.0, 99.0]},
    {"window": [5.0, 1.0]},
    {"window": [-4.0, INF]},
    {"window": "wide"},
    {"span": -3},
    {"span": NAN},
    {"span": "1"},
    {"pad": 4},
    {"phase_support": [0.0, 1.0]},
    {"output": 5},
    {"output": None},
    {"skip_condition": "no"},
    {"directions": 7},
    {"pipeline": ["line"]},
    {"pipeline": "bogus"},
    {"tol": 10**400},
    # top levels that are not one JSON object
    None,
    5,
    [["grid", 4]],
    "grid",
    ["grid"],
]


def test_bad_config_file_value_exits_before_output(tmp_path):
    moments = dirac_line_file(tmp_path)
    for i, config in enumerate(BAD_CONFIG_FILES):
        cfg = write_json(tmp_path / f"cfg{i}.json", config)
        out = tmp_path / f"o{i}"
        assert main([moments, "--config", cfg, "-o", str(out)]) == EXIT_PARSE, config
        assert not out.exists(), config


def test_unwritable_output_path_is_parse_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n", encoding="utf-8")
    code = main([dirac_line_file(tmp_path), "-o", str(blocker / "out")])
    assert code == EXIT_PARSE
    assert "error: cannot write output:" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "keep me\n"


def test_missing_directions_file_exits_before_output(tmp_path):
    path = write_json(
        tmp_path / "m.json",
        {"kind": "multi", "dimension": 2, "order": 1,
         "values": [[[0, 0], 1.0], [[1, 0], 0.5], [[0, 1], 0.5]]},
    )
    out = tmp_path / "o"
    code = main(
        [path, "--pipeline", "raybeam", "--directions", str(tmp_path / "nope.json"),
         "-o", str(out)]
    )
    assert code == EXIT_PARSE
    assert not out.exists()


def strict_load(path):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_report_is_strict_json_when_solver_values_overflow(tmp_path):
    # the conditioned moments stay finite (c_3 is about 1e308); the solver's
    # Legendre targets and duals do not
    path = write_json(
        tmp_path / "huge.json",
        {"kind": "power", "support": "half_line", "values": [1, 0.5, 0.3, 1e308]},
    )
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main([path, "--pipeline", "line", "--max-sweeps", "20000", "-o", str(out)])
    assert code == EXIT_NOCONV
    report = strict_load(out / "report.json")
    assert "solver.alpha" in report["non_finite"]
    assert None in report["solver"]["alpha"]


@pytest.mark.parametrize("window", [None, [-4.0, 12.0]], ids=["per-ray-windows", "fixed-window"])
def test_raybeam_csv_x_column_is_each_files_own_grid(tmp_path, window):
    # with per-ray windows every ray's files sit on their own grid, with a
    # fixed window all of them share one; either way each file's x column
    # must be the cell centres of the (a, b, G) in its own header
    n = 4
    values = [
        [[i, j], 1.0 / ((i + 1) * (j + 1))] for i in range(n + 1) for j in range(n + 1 - i)
    ]
    path = write_json(
        tmp_path / "square.json",
        {"kind": "multi", "dimension": 2, "order": n, "values": values},
    )
    dirs = write_json(tmp_path / "dirs.json", [[1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
    config = write_json(tmp_path / "config.json", {"window": window})
    out = tmp_path / "out"
    code = main(
        [path, "--pipeline", "raybeam", "--directions", dirs, "--config", config,
         "--grid", "256", "--tol", "1e-5", "--delta", "0.1", "-o", str(out)]
    )
    assert code == EXIT_OK
    headers = set()
    for i in range(3):
        for name in (f"phase_{i:03d}.csv", f"slice_{i:03d}.csv"):
            lines = (out / name).read_text(encoding="ascii").splitlines()
            kind, a, b, g = lines[0].split(",")
            assert kind == "interval"
            a, b, g = float(a), float(b), int(g)
            x = np.array([float(row.split(",")[0]) for row in lines[2:]])
            centres = a + (np.arange(g) + 0.5) * ((b - a) / g)
            assert np.array_equal(x, centres)
            headers.add(lines[0])
    assert len(headers) == (3 if window is None else 1)


def test_provenance_hashes_the_bytes_of_both_input_files(tmp_path, monkeypatch):
    import builtins
    import io

    n = 3
    values = [
        [[i, j], 1.0 / ((i + 1) * (j + 1))] for i in range(n + 1) for j in range(n + 1 - i)
    ]
    # indented and with a trailing newline, so a hash of re-serialised JSON differs
    path = tmp_path / "square.json"
    path.write_text(
        json.dumps({"kind": "multi", "dimension": 2, "order": n, "values": values}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    dirs = tmp_path / "dirs.json"
    dirs.write_text("[[1.0, 1.0],\n [2.0, 1.0]]\n", encoding="utf-8")
    # each input file is opened once in the run: what is hashed is what was parsed
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", counting_open)
        patch.setattr(io, "open", counting_open)
        code = main(
            [str(path), "--pipeline", "raybeam", "--directions", str(dirs), "--grid", "256",
             "--tol", "1e-5", "-o", str(out)]
        )
    assert code == EXIT_OK
    assert opened.count(str(path)) == 1
    assert opened.count(str(dirs)) == 1
    provenance = json.loads((out / "report.json").read_text())["provenance"]
    assert provenance["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert provenance["directions_sha256"] == hashlib.sha256(dirs.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# the exit-code contract over drawn inputs: every run ends in 0, 2, 3 or 4;
# exit 2 leaves no output directory and every other exit leaves one strict
# report.json; a config with one bad value exits 2
# ---------------------------------------------------------------------------

# one bad value for each key of DEFAULTS, several for some
BAD_SETTINGS = [
    ("pipeline", "bogus"), ("pipeline", ["line"]), ("pipeline", 5),
    ("grid", 1000), ("grid", "1024"), ("grid", 2**34), ("grid", 64.0),
    ("tol", 0), ("tol", "1e-7"), ("tol", 10**400), ("tol", None),
    ("max_sweeps", 0), ("max_sweeps", 2.5), ("max_sweeps", True),
    ("delta", -1.0), ("delta", "0.1"),
    ("nodes", 1), ("nodes", 10**8), ("nodes", None),
    ("span", -1.0), ("span", "1"),
    ("skip_condition", "no"), ("skip_condition", 1), ("skip_condition", None),
    ("directions", 7), ("directions", ["dirs.json"]),
    ("output", 5), ("output", None), ("output", ["out"]),
    ("window", [1.0]), ("window", "wide"), ("window", [5.0, 1.0]),
]


def _point_mass(mass, at, count):
    values = [mass * at**k for k in range(count)]
    return {"kind": "power", "support": "half_line", "values": values}


def _uniform(mass, count):
    values = [mass / (k + 1) for k in range(count)]
    return {"kind": "power", "support": [0.0, 1.0], "values": values}


def _circle(mass, r, theta, m):
    tau = [mass * r**k * np.exp(-1j * k * theta) / (2 * np.pi) for k in range(m + 1)]
    return {"kind": "trig", "values": [[v.real, v.imag] for v in tau]}


def _atoms(d, n, atoms):
    values = []
    for i in range(n + 1):
        for j in range(n + 1 - i if d == 2 else 1):
            idx = [i, j] if d == 2 else [i]
            values.append([idx, sum(m * x**i * y**j for m, (x, y) in atoms)])
    return {"kind": "multi", "dimension": d, "order": n, "values": values}


MASSES = st.floats(0.1, 2.0)
COORDINATES = st.floats(0.0, 0.9)
VALID = st.one_of(
    st.builds(_point_mass, MASSES, st.floats(0.0, 2.0), st.integers(3, 8)),
    st.builds(_uniform, MASSES, st.integers(3, 8)),
    st.builds(_circle, MASSES, st.floats(0.0, 0.9), st.floats(-3.0, 3.0), st.integers(1, 6)),
    st.builds(
        _atoms,
        st.sampled_from([1, 2]),
        st.integers(1, 4),
        st.lists(st.tuples(MASSES, st.tuples(COORDINATES, COORDINATES)), min_size=1, max_size=3),
    ),
)
FIXED = st.sampled_from([
    # boundary: an atom at the right end, the origin, on the circle
    {"kind": "power", "support": [0.0, 1.0], "values": [1.0, 1.0, 1.0, 1.0]},
    {"kind": "power", "support": "half_line", "values": [1.0, 0.0, 0.0, 0.0]},
    _circle(1.0, 1.0, 0.5, 4),
    # infeasible
    {"kind": "power", "support": [0.0, 1.0], "values": [1.0, -5.0, 0.0, 0.0]},
    {"kind": "power", "support": "half_line", "values": [-1.0, 0.5, 0.3, 0.2]},
    _atoms(2, 2, [(-1.0, (0.2, 0.3))]),
    # absurd magnitude
    {"kind": "power", "support": "half_line", "values": [1e300, 1e300, 1e300, 1e300]},
    {"kind": "power", "support": [0.0, 1.0], "values": [1e-300, 1e-301, 1e-302, 1e-303]},
    {"kind": "power", "support": "half_line", "values": [1.0, 0.5, 1e308, 0.1]},
    {"kind": "power", "support": "half_line", "values": [10**400, 0, 0, 0]},
    {"kind": "power", "support": "half_line", "values": [1.0, NAN, 0.0]},
    _circle(1e300, 0.5, 0.0, 3),
    _atoms(2, 3, [(1.0, (1e100, 1e100))]),
    # wrong JSON types
    None, 5, "power", [1.0, 0.5], {},
    {"kind": 5}, {"kind": "power"}, {"kind": "power", "values": "abc"},
    {"kind": "power", "values": [[1.0, 2.0], [3.0]]},
    {"kind": "power", "support": "nowhere", "values": [1.0, 0.5]},
    {"kind": "power", "support": [0.0, None], "values": [1.0, 0.5]},
    {"kind": "trig", "values": [[1.0]]}, {"kind": "trig", "values": [1.0, 2.0]},
    {"kind": "multi", "dimension": "2", "order": 1, "values": []},
    {"kind": "multi", "dimension": 2, "order": 1, "values": [[[[0], [0]], 1.0]]},
    {"kind": "multi", "dimension": 2, "order": 1, "values": [[[0, 0], "1"]]},
    # absurd shapes, and shapes over the size cutoffs
    {"kind": "multi", "dimension": 5000, "order": 0, "values": [[[0] * 5000, 1.0]]},
    {"kind": "multi", "dimension": 4, "order": 30, "values": [[[0, 0, 0, 0], 1.0]]},
    {"kind": "multi", "dimension": 1, "order": 100_000_000, "values": [[[0], 1.0]]},
    {"kind": "power", "support": "half_line", "values": [1.0] + [0.0] * 100},
])
DIRECTIONS = st.sampled_from([None, [[1.0, 1.0], [2.0, 1.0]], [[1.0, 3.0]], [], [[0.0, 1.0]], "x"])


@settings(max_examples=200, deadline=None)
@given(
    payload=st.one_of(VALID, FIXED),
    pipeline=st.sampled_from(["line", "circle", "polydisk", "raybeam"]),
    bad=st.one_of(st.none(), st.sampled_from(BAD_SETTINGS)),
    directions=DIRECTIONS,
    skip=st.booleans(),
    sweeps=st.integers(1, 200),
    grid=st.sampled_from([4, 64, 256]),
)
def test_every_run_ends_in_a_documented_exit_code(
    payload, pipeline, bad, directions, skip, sweeps, grid
):
    assert {key for key, _ in BAD_SETTINGS} == set(DEFAULTS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [write_json(tmp / "m.json", payload), "--pipeline", pipeline,
                "--max-sweeps", str(sweeps), "--grid", str(grid), "-o", str(tmp / "out")]
        if skip:
            argv.append("--skip-condition")
        if directions is not None:
            argv += ["--directions", write_json(tmp / "dirs.json", directions)]
        if bad is not None:
            argv += ["--config", write_json(tmp / "cfg.json", dict([bad]))]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_NOCONV, EXIT_RANGE)
        if bad is not None:
            assert code == EXIT_PARSE
        # a bad setting may name another output directory; none may appear
        written = list(tmp.glob("**/report.json"))
        if code == EXIT_PARSE:
            assert not (tmp / "out").exists() and not written
        else:
            assert written == [tmp / "out" / "report.json"]
            strict_load(written[0])
