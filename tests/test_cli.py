"""End-to-end command-line checks via subprocess."""

import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "causalboot.cli"]


def run_cli(*args):
    return subprocess.run(CLI + [str(a) for a in args], capture_output=True, text=True)


@pytest.fixture
def confounder_graph(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("U->Y; U->X; Y->X\n")
    return path


def test_dsep_queries(tmp_path, confounder_graph):
    out = run_cli("dsep", "--graph", confounder_graph, "--a", "X", "--b", "Y")
    assert out.returncode == 0 and out.stdout.strip() == "false"
    chain = tmp_path / "chain.txt"
    chain.write_text("A->B; B->C\n")
    out = run_cli("dsep", "--graph", chain, "--a", "A", "--b", "C", "--given", "B")
    assert out.returncode == 0 and out.stdout.strip() == "true"


def test_identify_prints_estimand(confounder_graph):
    out = run_cli(
        "identify", "--graph", confounder_graph, "--outcome", "X", "--do", "Y"
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "Σ_{u} P(u) P(x|u,y)"


def test_identify_unidentifiable_exit_code(tmp_path):
    path = tmp_path / "bow.txt"
    path.write_text("Y->X; Y<->X\n")
    out = run_cli("identify", "--graph", path, "--outcome", "X", "--do", "Y")
    assert out.returncode == 2
    assert out.stdout.startswith("UNIDENTIFIABLE:")


def test_missing_graph_file_is_input_error(tmp_path):
    out = run_cli("dsep", "--graph", tmp_path / "nope.txt", "--a", "A", "--b", "B")
    assert out.returncode == 1
    assert "error:" in out.stderr


def test_unreadable_graph_file_is_input_error(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe U->X")
    out = run_cli("dsep", "--graph", path, "--a", "U", "--b", "X")
    assert out.returncode == 1
    assert "error:" in out.stderr and "Traceback" not in out.stderr


def test_internal_value_errors_are_not_reported_as_bad_input(
    confounder_graph, monkeypatch
):
    from causalboot import cli

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "d_separated", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(
            ["dsep", "--graph", str(confounder_graph), "--a", "X", "--b", "Y"]
        )


def simulate_csv(tmp_path, name, *extra):
    path = tmp_path / name
    out = run_cli(
        "simulate",
        "--scenario", "a",
        "--regime", "conf",
        "--n", 200,
        "--qc", 0.9,
        "--seed", 5,
        "--out", path,
        *extra,
    )
    assert out.returncode == 0, out.stderr
    return path


def test_simulate_schema_and_determinism(tmp_path):
    a = simulate_csv(tmp_path, "a.csv")
    b = simulate_csv(tmp_path, "b.csv")
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join([f"x{j}" for j in range(10)] + ["y", "u"])
    assert len(lines) == 201
    assert a.read_bytes() == b.read_bytes()


def test_simulate_hides_shadow_columns_behind_prefix(tmp_path):
    path = tmp_path / "c.csv"
    out = run_cli(
        "simulate", "--scenario", "c", "--n", 50, "--seed", 1, "--out", path
    )
    assert out.returncode == 0
    header = path.read_text().splitlines()[0]
    assert header.endswith("y,u,z,_v")
    path = tmp_path / "d.csv"
    out = run_cli(
        "simulate", "--scenario", "d", "--n", 50, "--seed", 1, "--out", path
    )
    assert out.returncode == 0
    assert path.read_text().splitlines()[0].endswith("y,z,_u")


def test_simulate_discrete_mode(tmp_path):
    path = tmp_path / "disc.csv"
    out = run_cli(
        "simulate",
        "--scenario", "a",
        "--n", 40,
        "--seed", 2,
        "--out", path,
        "--x-mode", "discrete",
        "--x-support", 4,
    )
    assert out.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y,u"
    codes = {int(line.split(",")[0]) for line in lines[1:]}
    assert codes <= {0, 1, 2, 3}


def test_simulate_rejects_malformed_offsets(tmp_path):
    out = run_cli(
        "simulate", "--scenario", "a", "--n", 10, "--seed", 1,
        "--out", tmp_path / "o.csv", "--delta-y", "1,x",
    )
    assert out.returncode == 1
    assert "error: --delta-y needs comma-separated floats" in out.stderr
    assert not (tmp_path / "o.csv").exists()


def test_simulate_rejects_non_finite_noise_and_offsets(tmp_path):
    for flags in (("--sigma", "inf"), ("--delta-u", ",".join(["inf"] * 10))):
        path = tmp_path / "o.csv"
        out = run_cli(
            "simulate", "--scenario", "a", "--n", 50, "--seed", 1,
            "--out", path, *flags,
        )
        assert out.returncode == 1
        assert "must be finite" in out.stderr
        assert not path.exists()


def test_simulate_offset_flags_reach_the_generator(tmp_path):
    offsets = ",".join(["3.0"] + ["0.0"] * 9)
    plain = simulate_csv(tmp_path, "plain.csv")
    moved = simulate_csv(tmp_path, "moved.csv", "--delta-y", offsets)
    assert plain.read_bytes() != moved.read_bytes()


def test_bootstrap_rejects_non_finite_smoothing(tmp_path):
    src = simulate_csv(tmp_path, "train.csv")
    for value in ("nan", "inf"):
        out = run_cli(
            "bootstrap",
            "--scenario", "a",
            "--method", "cb",
            "--in", src,
            "--out", tmp_path / "out.csv",
            "--seed", 1,
            "--smoothing", value,
        )
        assert out.returncode == 1
        assert "smoothing must be finite and nonnegative" in out.stderr


def test_bootstrap_rejects_non_finite_bandwidth(tmp_path):
    src = tmp_path / "a.csv"
    run_cli("simulate", "--scenario", "a", "--n", 50, "--seed", 1, "--out", src)
    for kernel in ("gaussian:inf", "gaussian:nan"):
        out_path = tmp_path / "out.csv"
        out = run_cli(
            "bootstrap",
            "--scenario", "a",
            "--method", "cb",
            "--in", src,
            "--out", out_path,
            "--seed", 1,
            "--kernel", kernel,
        )
        assert out.returncode == 1
        assert "bandwidth must be finite and positive" in out.stderr
        assert not out_path.exists()


def test_bootstrap_cb_round_trip(tmp_path):
    src = simulate_csv(tmp_path, "train.csv")
    out_a = tmp_path / "cb_a.csv"
    out_b = tmp_path / "cb_b.csv"
    for out_path in (out_a, out_b):
        out = run_cli(
            "bootstrap",
            "--scenario", "a",
            "--method", "cb",
            "--in", src,
            "--out", out_path,
            "--seed", 7,
        )
        assert out.returncode == 0, out.stderr
    lines = out_a.read_text().splitlines()
    assert lines[0] == ",".join(f"x{j}" for j in range(10)) + ",y"
    assert out_a.read_bytes() == out_b.read_bytes()


def test_bootstrap_da_and_smoothing_kernel_flags(tmp_path):
    src = simulate_csv(tmp_path, "train.csv")
    out = run_cli(
        "bootstrap",
        "--scenario", "a",
        "--method", "da",
        "--in", src,
        "--out", tmp_path / "da.csv",
        "--seed", 3,
    )
    assert out.returncode == 0, out.stderr
    out = run_cli(
        "bootstrap",
        "--scenario", "a",
        "--method", "cb",
        "--in", src,
        "--out", tmp_path / "smooth.csv",
        "--seed", 3,
        "--smoothing", 0.5,
        "--kernel", "gaussian:0.05",
    )
    assert out.returncode == 0, out.stderr


def test_bootstrap_zero_support_exit_code(tmp_path):
    src = tmp_path / "degenerate.csv"
    src.write_text("x0,y,u\n0.1,1,1\n0.2,1,1\n0.3,0,0\n0.4,0,0\n")
    out = run_cli(
        "bootstrap",
        "--scenario", "a",
        "--method", "da",
        "--in", src,
        "--out", tmp_path / "out.csv",
        "--seed", 1,
    )
    assert out.returncode == 3
    assert "empty stratum" in out.stderr


def test_bootstrap_input_validation_exit_code(tmp_path):
    src = tmp_path / "no_u.csv"
    src.write_text("x0,y\n0.1,1\n0.2,0\n")
    out = run_cli(
        "bootstrap",
        "--scenario", "a",
        "--method", "cb",
        "--in", src,
        "--out", tmp_path / "out.csv",
        "--seed", 1,
    )
    assert out.returncode == 1
    assert "missing u" in out.stderr
    src = tmp_path / "odd.csv"
    src.write_text("x0,y,mystery\n0.1,1,9\n")
    out = run_cli(
        "bootstrap",
        "--scenario", "a",
        "--method", "cb",
        "--in", src,
        "--out", tmp_path / "out.csv",
        "--seed", 1,
    )
    assert out.returncode == 1
    assert "unknown columns" in out.stderr


@pytest.mark.parametrize("method", ["cb", "da"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_bootstrap_rejects_non_finite_features(tmp_path, method, value):
    src = simulate_csv(tmp_path, "train.csv")
    lines = src.read_text().splitlines()
    fields = lines[10].split(",")
    fields[3] = value
    lines[10] = ",".join(fields)
    src.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "out.csv"
    out = run_cli(
        "bootstrap",
        "--scenario", "a",
        "--method", method,
        "--in", src,
        "--out", out_path,
        "--seed", 1,
    )
    assert out.returncode == 1
    assert "row 11: features must be finite" in out.stderr
    assert not out_path.exists()


def test_simulate_output_feeds_bootstrap(tmp_path):
    path = tmp_path / "c.csv"
    out = run_cli(
        "simulate", "--scenario", "c", "--n", 300, "--seed", 4, "--out", path
    )
    assert out.returncode == 0
    out = run_cli(
        "bootstrap",
        "--scenario", "c",
        "--method", "cb",
        "--in", path,
        "--out", tmp_path / "debiased.csv",
        "--seed", 4,
    )
    assert out.returncode == 0, out.stderr


def run_spec(tmp_path, text, name="spec.txt", out="out"):
    spec = tmp_path / name
    spec.write_text(text)
    return run_cli("run", "--spec", spec, "--out", tmp_path / out), tmp_path / out


def test_run_writes_results_and_resolved_spec(tmp_path):
    text = (
        "scenarios=a\nqc_grid=0.95\nmethods=simple\nseeds=0\n"
        "n_train=200\nn_test=200\ntrain.epochs=5\n"
    )
    result, out_dir = run_spec(tmp_path, text)
    assert result.returncode == 0, result.stderr
    results = out_dir / "results.csv"
    resolved = out_dir / "spec.resolved.txt"
    assert results.exists() and resolved.exists()
    assert len(results.read_text().splitlines()) == 1 + 4
    assert "train.epochs=5" in resolved.read_text()
    again, out_dir2 = run_spec(tmp_path, text, name="spec2.txt", out="out2")
    assert again.returncode == 0
    assert results.read_bytes() == (out_dir2 / "results.csv").read_bytes()


def test_run_reports_failed_cells(tmp_path):
    text = (
        "scenarios=a\nqc_grid=0.95\nmethods=simple\nseeds=0\n"
        "n_train=100\nn_test=100\ntrain.epochs=2\nsim.feature_dim=2\n"
    )
    result, out_dir = run_spec(tmp_path, text)
    assert result.returncode == 4
    assert "cells failed" in result.stderr
    content = (out_dir / "results.csv").read_text()
    assert "error:" in content


def test_run_rejects_bad_spec(tmp_path):
    result, _ = run_spec(tmp_path, "scenarios=a\nwidgets=9\n")
    assert result.returncode == 2
    assert "unknown spec key" in result.stderr
    result, _ = run_spec(tmp_path, "scenarios=a\nn_train=abc\n", name="s2.txt")
    assert result.returncode == 2
    assert "spec key 'n_train': bad value 'abc'" in result.stderr
    for k, (text, message) in enumerate((
        ("scenarios=zz\n", "unknown scenario 'zz'"),
        ("scenarios=a\nmethods=bogus\n", "unknown method 'bogus'"),
        ("scenarios=a\nsim.sigma=-1\n", "spec sim settings: sigma"),
        ("scenarios=c\nsim.feature_dim=2\n", "spec sim settings: feature_dim"),
    )):
        result, out_dir = run_spec(tmp_path, text, name=f"s{k + 3}.txt", out=f"o{k}")
        assert result.returncode == 2
        assert message in result.stderr
        assert not out_dir.exists()


def test_run_rejects_unusable_train_settings(tmp_path):
    for k, line in enumerate(("train.epochs=0", "train.kind=tree", "train.lr=inf")):
        text = f"scenarios=a\nseeds=0\nn_train=100\nn_test=100\n{line}\n"
        result, out_dir = run_spec(tmp_path, text, name=f"s{k}.txt", out=f"o{k}")
        assert result.returncode == 2
        assert "error: spec train settings" in result.stderr
        assert not out_dir.exists()
