"""Command-line checks, via subprocess or `cli.main`, and the CSV reader and writer."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalboot import cli
from causalboot.bootstrap import BootstrapError, NotIdentifiedError
from causalboot.errors import CausalBootError
from causalboot.estimate import EstimateError, ZeroSupportError
from causalboot.graph import GraphError
from causalboot.harness import HarnessError
from causalboot.identify import EstimandError
from causalboot.model import ModelError
from causalboot.simulate import Dataset, SimulateError

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


def test_simulate_rejects_sizes_beyond_the_row_limit(tmp_path):
    # rejected by SimConfig before anything is allocated or written
    for n in ("99999999999999999999", "10000001", "0"):
        path = tmp_path / "o.csv"
        out = run_cli(
            "simulate", "--scenario", "a", "--n", n, "--seed", 1, "--out", path
        )
        assert out.returncode == 1
        assert f"error: n must be positive and at most 10000000, got {n}" in out.stderr
        assert "Traceback" not in out.stderr
        assert not path.exists()
    # a draw's width is capped too: n times feature_dim, and in discrete
    # mode n times x_support, may not pass 10**8 values
    for flags, product in (
        (("--feature-dim", "99999999999"), "n * feature_dim"),
        (("--x-mode", "discrete", "--x-support", "99999999999"), "n * x_support"),
    ):
        path = tmp_path / "o.csv"
        out = run_cli(
            "simulate", "--scenario", "a", "--n", 50, "--seed", 1,
            "--out", path, *flags,
        )
        assert out.returncode == 1
        assert f"error: {product} must be at most 100000000" in out.stderr
        assert "Traceback" not in out.stderr
        assert not path.exists()


def test_error_classes_carry_their_exit_codes():
    assert issubclass(CausalBootError, ValueError)
    codes = {
        BootstrapError: 1, EstimateError: 1, EstimandError: 1, GraphError: 1,
        ModelError: 1, SimulateError: 1, HarnessError: 2, NotIdentifiedError: 2,
        ZeroSupportError: 3,
    }
    for cls, code in codes.items():
        assert issubclass(cls, CausalBootError)
        assert cls.exit_code == code, cls


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
    for header, name in (("x0,y,u,u", "u"), ("x0,y,y", "y")):
        src = tmp_path / "repeated.csv"
        src.write_text(f"{header}\n0.1,1,0,1\n")
        out_path = tmp_path / "out.csv"
        out = run_cli(
            "bootstrap",
            "--scenario", "a",
            "--method", "cb",
            "--in", src,
            "--out", out_path,
            "--seed", 1,
        )
        assert out.returncode == 1
        assert f"error: column '{name}' appears more than once" in out.stderr
        assert not out_path.exists()


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


# SHA-256 of each output, taken when every row was formatted cell by cell
# with csv.writer; the chunked writer must reproduce them byte for byte.
PINNED = {
    "sim_c.csv": "5391a6f83b955e5ba9d4d5b95e044007ee9653270892db6407a1d877b388debc",
    "cb_c.csv": "44f82d8aa07d39528205e6f9ecb97e74c7920c6b9c1ec50863b097888836165e",
    "cbg_c.csv": "c78bae805e84554e1d8a31c0fb94ab79a38ec0fb481a64459129a484a474016b",
    "da_c.csv": "7a4f5fb481a4c7e4b685078cd8bb188efb47ea3120cba37443a11be4d8e70d5a",
    "sim_a.csv": "8520d66cbf95d291f83d88dcc06a01e85327b7399e58930066e609664614cd69",
    "cb_a.csv": "57a13f1820dd5b4840c52c19a6469b0208474ac6b8ed1455606b14cf072cbb67",
    "da_a.csv": "0af29cf9cbe130c6de76e9772b5d2b70726b59fc11235df5ad7cfb0b33eb9d84",
}


def test_outputs_match_pinned_digests(tmp_path):
    def boot(scenario, method, src, out, seed, *extra):
        argv = ["bootstrap", "--scenario", scenario, "--method", method,
                "--in", src, "--out", out, "--seed", seed, *extra]
        assert cli.main([str(a) for a in argv]) == 0

    p = {name: tmp_path / name for name in PINNED}
    assert cli.main(["simulate", "--scenario", "c", "--n", "1500", "--seed", "3",
                     "--out", str(p["sim_c.csv"])]) == 0
    boot("c", "cb", p["sim_c.csv"], p["cb_c.csv"], 5)
    boot("c", "cb", p["sim_c.csv"], p["cbg_c.csv"], 5,
         "--kernel", "gaussian:0.3", "--smoothing", 1)
    boot("c", "da", p["sim_c.csv"], p["da_c.csv"], 5)
    assert cli.main(["simulate", "--scenario", "a", "--n", "700", "--seed", "4",
                     "--x-mode", "discrete", "--out", str(p["sim_a.csv"])]) == 0
    boot("a", "cb", p["sim_a.csv"], p["cb_a.csv"], 6)
    boot("a", "da", p["sim_a.csv"], p["da_a.csv"], 6)
    digests = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in p.items()
    }
    assert digests == PINNED


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.one_of(
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 11),
    d=st.integers(1, 3),
    data=st.data(),
)
def test_write_read_round_trip_across_chunks(tmp_path_factory, n, d, data):
    chunk = data.draw(st.integers(1, 4))
    values = data.draw(st.lists(edge_floats, min_size=n * d, max_size=n * d))
    x = np.array(values, dtype=np.float64).reshape(n, d)
    labels = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    y = np.array(data.draw(labels), dtype=np.int64)
    u = np.array(data.draw(labels), dtype=np.int64)
    drawn = np.array(
        data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n if n else 0)),
        dtype=np.int64,
    )
    original = Dataset(x=x, y=y, columns={"u": u}, shadow={})
    tmp = tmp_path_factory.mktemp("csv")
    mp = pytest.MonkeyPatch()
    mp.setattr(cli, "_CHUNK", chunk)
    try:
        cli._write_dataset(str(tmp / "a.csv"), original, True)
        back = cli._read_dataset(str(tmp / "a.csv"))
        assert back.x.shape == (n, d) and back.x.tobytes() == x.tobytes()
        assert back.y.tobytes() == y.tobytes()
        assert back.columns["u"].tobytes() == u.tobytes()
        assert np.array_equal(back.shadow[cli._SOURCE], np.arange(n))

        cli._write_dataset(str(tmp / "b.csv"), back, False)
        cli._write_dataset(str(tmp / "c.csv"), original, False)
        assert (tmp / "b.csv").read_bytes() == (tmp / "c.csv").read_bytes()

        # a resample's rows written through the source index read the same
        # as the same rows written out in full
        resampled = Dataset(x=x[drawn], y=y[drawn], columns={}, shadow={})
        cli._write_dataset(str(tmp / "d.csv"), resampled, False)
        cli._write_dataset(str(tmp / "e.csv"), resampled, False, x, drawn)
        assert (tmp / "d.csv").read_bytes() == (tmp / "e.csv").read_bytes()
    finally:
        mp.undo()


@pytest.mark.parametrize(
    "body, message",
    [
        # records are rows 2..; with three rows a chunk, row 7 is in the third
        ("0.1,1,0\n" * 5 + "0.2,1\n", "row 7 has 2 fields"),
        ("0.1,1,0\n" * 4 + "0.2,1.5,0\n" + "0.3,x,0\n",
         "row 6: invalid literal for int() with base 10: '1.5'"),
        ("0.1,1,0\n" * 3 + "0.2,1,0\n0.3,1,0,9\n",
         "row 6 has 4 fields"),
        ("0.1,1,0\n" * 4 + "inf,1,0\n", "row 6: features must be finite"),
        ("0.1,1,0\nabc,1,0\n0.3,0\n",
         "row 3: could not convert string to float: 'abc'"),
        ("0.1,1,0\n" * 6 + "0.2,1,-9223372036854775809\n",
         "row 8: u value -9223372036854775809 does not fit in int64"),
    ],
)
def test_read_errors_name_the_global_row(tmp_path, monkeypatch, body, message):
    monkeypatch.setattr(cli, "_CHUNK", 3)
    path = tmp_path / "bad.csv"
    path.write_text("x0,y,u\n" + body)
    with pytest.raises(EstimateError) as err:
        cli._read_dataset(str(path))
    assert str(err.value) == message


def test_header_only_file_reads_as_empty_and_bootstrap_rejects_it(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x0,x1,y,u\n")
    data = cli._read_dataset(str(path))
    assert data.x.shape == (0, 2) and data.y.shape == (0,)
    for method in ("cb", "da"):
        out_path = tmp_path / f"{method}.csv"
        out = run_cli(
            "bootstrap", "--scenario", "a", "--method", method,
            "--in", path, "--out", out_path, "--seed", 1,
        )
        assert out.returncode == 1
        assert "error: empty dataset" in out.stderr
        assert not out_path.exists()


@pytest.mark.parametrize("method", ["cb", "da"])
def test_bootstrap_rejects_labels_beyond_int64(tmp_path, method):
    src = simulate_csv(tmp_path, "train.csv")
    lines = src.read_text().splitlines()
    fields = lines[2].split(",")
    fields[10] = "99999999999999999999"
    lines[2] = ",".join(fields)
    src.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "out.csv"
    out = run_cli(
        "bootstrap", "--scenario", "a", "--method", method,
        "--in", src, "--out", out_path, "--seed", 1,
    )
    assert out.returncode == 1
    assert "error: row 3: y value 99999999999999999999 does not fit in int64" in out.stderr
    assert "Traceback" not in out.stderr
    assert not out_path.exists()


def test_bootstrap_refuses_to_overwrite_its_input(tmp_path, monkeypatch, capsys):
    src = simulate_csv(tmp_path, "s.csv")
    before = src.read_bytes()
    monkeypatch.chdir(tmp_path)
    for out_path in (src, "s.csv", tmp_path / "." / "s.csv"):
        for method in ("cb", "da"):
            argv = ["bootstrap", "--scenario", "a", "--method", method,
                    "--in", str(src), "--out", str(out_path), "--seed", "1"]
            assert cli.main(argv) == 1
            assert "--out must not name the --in file" in capsys.readouterr().err
            assert src.read_bytes() == before


def test_bootstrap_cb_exits_2_on_an_unidentifiable_scenario(
    tmp_path, capsys, unidentifiable_a
):
    src = simulate_csv(tmp_path, "s.csv")
    for method, code in (("cb", 2), ("da", 0)):
        out_path = tmp_path / f"{method}.csv"
        argv = ["bootstrap", "--scenario", "a", "--method", method,
                "--in", str(src), "--out", str(out_path), "--seed", "1"]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: hedge")
        assert out_path.exists() == (code == 0)


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
        ("scenarios=a\nn_train=99999999999999999999999\n", "at most 10000000"),
        ("scenarios=a\nn_test=10000001\n", "at most 10000000"),
        ("scenarios=a,a\n", "scenarios lists 'a' more than once"),
        ("scenarios=a\nmethods=simple,simple\n", "methods lists 'simple'"),
        ("scenarios=a\nseeds=1,1\n", "seeds lists 1 more than once"),
        ("scenarios=a\nqc_grid=0.75,0.75\n", "qc_grid lists 0.75 more"),
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
