"""Tests for the command-line front end."""

import json

import numpy as np
import pytest

from lowrankmf import NmfOptions, SolverConfig, solve_denoise
from lowrankmf.cli import main, parse_args
from lowrankmf.common import IterationRecord, IterationTrace, PruneEvent, stop_status
from lowrankmf.data import read_coordinate, read_matrix, write_matrix
from lowrankmf.oracles import rate_bound_check

TRACE_KEYS = {
    "schema_version", "config", "initial_objective", "iterations", "prunes", "status", "metrics"
}
ITER_KEYS = {
    "k", "objective", "d", "rel_change", "delta", "ms",
    "displacement_sq", "gram_min_eig", "max_col_sq",
}


# ---------------------------------------------------------------- parsing


def test_parse_complete_movielens_flags():
    args = parse_args(
        [
            "complete",
            "--input",
            "u.data",
            "--format",
            "movielens",
            "--lambda",
            "0.3",
            "--rank-init",
            "12",
            "--max-iter",
            "200",
        ]
    )
    assert args.command == "complete"
    assert args.format == "movielens"
    assert args.lam == 0.3
    assert args.rank_init == 12
    assert args.max_iter == 200


@pytest.mark.parametrize("command", ["denoise", "nmf"])
def test_required_flags_only_give_the_library_defaults(command):
    args = parse_args([command, "--input", "y.mtx", "--lambda", "2.5", "--rank-init", "7"])
    assert args.configs == [SolverConfig(lam=2.5, d_init=7)]


def test_parse_missing_input_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_args(["denoise", "--lambda", "1.0"])
    assert exc.value.code == 2


def test_parse_negative_lambda_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_args(["denoise", "--input", "x.mtx", "--lambda", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag",
    [
        "--tol=nan", "--lambda=nan", "--eta=inf", "--snr-db=nan", "--snr-db=-inf",
        "--beta-u=nan", "--beta-v=inf",
    ],
)
def test_parse_non_finite_float_is_usage_error(flag):
    command = "nmf" if flag.startswith("--beta") else "denoise"
    argv = [command, "--rows", "10", "--cols", "8", "--rank", "2", "--lambda", "1", flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--rows", "10", "--cols", "8", "--rank", "2", "--lambda", "1"]
        for command in ("denoise", "complete", "nmf")
    ]
    + [
        ["bench", "--rows", "10", "--cols", "8", "--rank", "2", "--lambda-grid", "1"],
        ["synth", "--rows", "10", "--cols", "8", "--rank", "2", "--output", "y.mtx"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("nmf", "--beta-u=1.5", "beta_u and beta_v must lie in (0, 1)"),
        ("denoise", "--tol=0", "tol must be positive and finite"),
        ("complete", "--max-iter=0", "max_iter must be an integer of at least 1"),
        ("denoise", "--rank-init=0", "d_init must be an integer of at least 1"),
    ],
)
def test_value_the_config_refuses_is_usage_error_with_its_message(command, flag, message, capsys):
    argv = [command, "--rows", "10", "--cols", "8", "--rank", "2", "--lambda", "1", flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bench_takes_no_lambda(capsys):
    argv = ["bench", "--rows", "5", "--cols", "5", "--rank", "1", "--lambda", "7"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lambda-grid", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lambda 7" in capsys.readouterr().err


def test_rank_init_defaults_to_the_smaller_dimension(tmp_path):
    trace_path = tmp_path / "t.json"
    argv = ["denoise", "--rows", "10", "--cols", "8", "--rank", "2", "--lambda", "1"]
    assert main([*argv, "--max-iter", "1", "--trace", str(trace_path)]) == 0
    assert json.loads(trace_path.read_text())["config"]["d_init"] == 8


def test_parse_synth_needs_dimensions():
    with pytest.raises(SystemExit) as exc:
        parse_args(["synth", "--output", "y.mtx", "--rows", "5"])
    assert exc.value.code == 2


def test_parse_non_integer_rows_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["synth", "--rows", "2.5", "--cols", "3", "--rank", "1", "--output", "y"])
    assert exc.value.code == 2
    assert "'2.5' is not an integer" in capsys.readouterr().err


def test_parse_unknown_command():
    with pytest.raises(SystemExit) as exc:
        parse_args(["polish"])
    assert exc.value.code == 2


# ------------------------------------------------------------ end to end


def test_synth_then_denoise_roundtrip(tmp_path, capsys):
    y_path = tmp_path / "y.mtx"
    code = main(
        [
            "synth",
            "--rows",
            "20",
            "--cols",
            "15",
            "--rank",
            "2",
            "--snr-db",
            "20",
            "--seed",
            "3",
            "--output",
            str(y_path),
        ]
    )
    assert code == 0
    assert y_path.exists()
    out_prefix = tmp_path / "sol"
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "denoise",
            "--input",
            str(y_path),
            "--lambda",
            "1.0",
            "--rank-init",
            "6",
            "--seed",
            "4",
            "--output",
            str(out_prefix),
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "status=" in line and "objective=" in line
    u = read_matrix(f"{out_prefix}.u.mtx", "mm")
    v = read_matrix(f"{out_prefix}.v.mtx", "mm")
    y = read_matrix(y_path, "mm")
    assert u.shape[0] == 20 and v.shape[0] == 15
    assert u.shape[1] == v.shape[1]
    # the factor product approximates the data
    assert np.linalg.norm(u @ v.T - y) / np.linalg.norm(y) < 0.5
    doc = json.loads(trace_path.read_text())
    assert set(doc) == TRACE_KEYS
    for it in doc["iterations"]:
        assert set(it) == ITER_KEYS
    assert doc["status"] in ("converged", "max_iter", "degenerate")
    assert doc["config"]["lambda"] == 1.0


def test_synth_with_a_mask_card_writes_the_mask_file(tmp_path, capsys):
    out = tmp_path / "y.mtx"
    argv = ["synth", "--rows", "12", "--cols", "9", "--rank", "2", "--mask-card", "40"]
    assert main([*argv, "--output", str(out)]) == 0
    assert "wrote mask (40 entries)" in capsys.readouterr().out
    y, mask = read_coordinate(f"{out}.mask.mtx")
    assert y.shape == (12, 9) and mask.card == 40
    full = read_matrix(out, "mm")
    assert np.array_equal(y.flat[mask.flat], full.flat[mask.flat])


def test_complete_on_a_movielens_file(tmp_path, capsys):
    p = tmp_path / "u.data"
    p.write_text("1\t1\t5\t0\n1\t2\t3\t0\n2\t1\t4\t0\n2\t3\t2\t0\n3\t2\t1\t0\n")
    argv = ["complete", "--input", str(p), "--format", "movielens", "--lambda", "1"]
    assert main([*argv, "--rank-init", "2"]) == 0
    assert "nmae=" in capsys.readouterr().out


def test_huge_lambda_exits_degenerate(capsys):
    code = main(
        [
            "denoise",
            "--rows",
            "10",
            "--cols",
            "10",
            "--rank",
            "2",
            "--lambda",
            "1e9",
            "--rank-init",
            "4",
        ]
    )
    assert code == 3
    assert "status=degenerate" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["1.0", "1.5"])
def test_prune_tol_of_one_or_more_is_usage_error(value, capsys):
    # with 1.5 every column went at the first iteration and the run exited 3
    argv = ["denoise", "--rows", "30", "--cols", "20", "--rank", "2", "--lambda", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--prune-tol", value])
    assert exc.value.code == 2
    assert "prune_tol must lie in (0, 1)" in capsys.readouterr().err


def test_missing_input_file_exits_one(capsys):
    code = main(["denoise", "--input", "/nonexistent/path.mtx", "--lambda", "1.0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_input_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.mtx"
    p.write_text("not a matrix\n")
    code = main(["denoise", "--input", str(p), "--lambda", "1.0"])
    assert code == 1


def test_malformed_size_line_exits_one_with_its_location(tmp_path, capsys):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2.5 2 1\n1 1 1.0\n")
    code = main(["complete", "--input", str(p), "--lambda", "1.0"])
    assert code == 1
    assert f"error: {p}:2: non-integer token '2.5'" in capsys.readouterr().err


def test_snr_too_low_for_a_finite_noise_variance_exits_one(capsys):
    argv = ["denoise", "--rows", "10", "--cols", "8", "--rank", "2", "--lambda", "1"]
    assert main([*argv, "--snr-db=-3300"]) == 1
    assert "error: snr_db=-3300.0" in capsys.readouterr().err


def test_singular_curvature_block_exits_one(tmp_path, capsys):
    y = 1e6 * np.random.default_rng(60).standard_normal((2, 2))
    p = tmp_path / "y.mtx"
    write_matrix(p, y, "mm")
    args = ["--input", str(p), "--lambda", "5.960464477539063e-08", "--rank-init", "4"]
    code = main(["denoise", *args, "--max-iter", "1", "--seed", "60"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: iteration 1, U half-step" in err and "use a larger lam" in err


def test_y_whose_squared_norm_overflows_exits_one(tmp_path, capsys):
    y = np.ones((4, 3))
    y[1, 2] = 1e308
    p = tmp_path / "y.mtx"
    write_matrix(p, y, "mm")
    assert main(["denoise", "--input", str(p), "--lambda", "1", "--rank-init", "2"]) == 1
    assert "error: y is too large" in capsys.readouterr().err


def test_movielens_grid_too_large_to_densify_exits_one(tmp_path, capsys):
    p = tmp_path / "u.data"
    p.write_text("4000\t3000\t5\t0\n1\t1\t3\t0\n")
    code = main(["complete", "--input", str(p), "--format", "movielens", "--lambda", "1.0"])
    assert code == 1
    assert "too large to densify" in capsys.readouterr().err


def test_complete_synthetic_with_mask(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    code = main(
        [
            "complete",
            "--rows",
            "25",
            "--cols",
            "20",
            "--rank",
            "2",
            "--snr-db",
            "20",
            "--mask-card",
            "300",
            "--lambda",
            "0.5",
            "--rank-init",
            "6",
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nre=" in out and "nmae=" in out
    doc = json.loads(trace_path.read_text())
    assert doc["metrics"]["nre"] is not None
    assert doc["metrics"]["nmae"] is not None


def test_complete_on_an_array_file_observes_every_entry(tmp_path, capsys):
    y = np.random.default_rng(5).standard_normal((12, 9))
    objectives = []
    for fmt in ("mm", "csv"):
        p = tmp_path / f"y.{fmt}"
        write_matrix(p, y, fmt)
        argv = ["complete", "--input", str(p), "--format", fmt, "--lambda", "1.0"]
        assert main([*argv, "--rank-init", "4", "--max-iter", "20"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        objectives.append(line.split("objective=")[1].split()[0])
    assert objectives[0] == objectives[1]


def test_nmf_synthetic_runs(capsys):
    code = main(
        [
            "nmf",
            "--rows",
            "20",
            "--cols",
            "18",
            "--rank",
            "2",
            "--snr-db",
            "20",
            "--lambda",
            "1.0",
            "--rank-init",
            "5",
        ]
    )
    assert code == 0


def test_trace_reproducible_modulo_timing(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        code = main(
            [
                "denoise",
                "--rows",
                "15",
                "--cols",
                "12",
                "--rank",
                "2",
                "--snr-db",
                "15",
                "--lambda",
                "1.0",
                "--rank-init",
                "5",
                "--seed",
                "7",
                "--trace",
                str(p),
            ]
        )
        assert code == 0
        paths.append(p)
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        for it in doc["iterations"]:
            it["ms"] = 0.0
    assert docs[0] == docs[1]


def test_trace_file_rebuilds_the_rate_report(tmp_path):
    y = np.random.default_rng(8).standard_normal((14, 10))
    y_path, trace_path = tmp_path / "y.mtx", tmp_path / "t.json"
    write_matrix(y_path, y, "mm")
    argv = ["denoise", "--input", str(y_path), "--lambda", "4.0", "--rank-init", "8"]
    assert main([*argv, "--seed", "3", "--trace", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text())
    assert doc["schema_version"] == 2
    config = doc["config"]
    config["lam"] = config.pop("lambda")
    config["nmf"] = NmfOptions(**config["nmf"])
    rebuilt = IterationTrace(
        config=SolverConfig(**config),
        initial_objective=doc["initial_objective"],
        records=[IterationRecord(**it) for it in doc["iterations"]],
        prunes=[PruneEvent(**p) for p in doc["prunes"]],
        status=doc["status"],
    )
    _, trace = solve_denoise(y, SolverConfig(lam=4.0, d_init=8, seed=3))
    assert rebuilt.config == trace.config
    assert rate_bound_check(rebuilt) == rate_bound_check(trace)
    # a prune removing two columns at once, and three more
    assert len(trace.prunes) == 4 and rebuilt.prunes == trace.prunes
    assert rebuilt.status == stop_status(rebuilt) == trace.status


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_bench_needs_ground_truth(tmp_path, capsys):
    y_path = tmp_path / "y.csv"
    y_path.write_text("1,2\n3,4\n")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--input", str(y_path), "--format", "csv", "--lambda-grid", "1,2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [("bench", f) for f in ("--input=y.mtx", "--format=csv", "--output=f", "--trace=t.json")]
    + [("denoise", "--mask-card=5"), ("nmf", "--mask-card=5")],
)
def test_flag_the_command_does_not_read_is_usage_error(command, flag, capsys):
    argv = [command, "--rows", "5", "--cols", "5", "--rank", "1"]
    argv += ["--lambda-grid", "1"] if command == "bench" else ["--lambda", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_complete_on_an_empty_coordinate_file_names_it(tmp_path, capsys):
    p = tmp_path / "empty.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    assert main(["complete", "--input", str(p), "--lambda", "1"]) == 1
    assert f"{p}: no entries found" in capsys.readouterr().err


def test_bench_reports_best_lambda(capsys):
    code = main(
        [
            "bench",
            "--rows",
            "20",
            "--cols",
            "15",
            "--rank",
            "2",
            "--snr-db",
            "20",
            "--rank-init",
            "5",
            "--lambda-grid",
            "0.5,1,5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("lambda=") >= 4  # three grid lines plus the summary
    assert "best lambda=" in out


def test_bench_bad_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "bench",
                "--rows",
                "5",
                "--cols",
                "5",
                "--rank",
                "1",
                "--lambda-grid",
                "1,-2",
            ]
        )
    assert exc.value.code == 2


def test_bench_non_finite_grid_value_is_usage_error():
    argv = ["bench", "--rows", "5", "--cols", "5", "--rank", "1", "--lambda-grid", "1,nan"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
