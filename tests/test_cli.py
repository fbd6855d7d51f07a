"""Command-line checks, via subprocess or `cli.main`, and the CSV reader and writer."""

import ast
import contextlib
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalboot import _csvtext, cli
from causalboot.bootstrap import BootstrapError, NotIdentifiedError
from causalboot.errors import CausalBootError
from causalboot.estimate import EstimateError, ZeroSupportError
from causalboot.graph import GraphError
from causalboot.harness import HarnessError, parse_spec_text, resolved_spec_text
from causalboot.identify import EstimandError
from causalboot.model import ModelError
from causalboot.simulate import MAX_ROWS, Dataset, SimConfig, SimulateError, simulate
import csv_reference
from forks import counting_forks, two_cpus

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


# Small graph texts: X, Y and at most four more names, Z among those
# drawn from, each declared and then joined by edges of either kind
# (cycles included), with latent flags and, now and then, a self loop
# or junk.
MORE_NAMES = ["Z", "U", "V", "latent", "N_1"]
FAULTS = ["X -> X", "Y <-> Y", "->", "X ->", "<-> Y", "1X", "X - > Y", "X Y", "("]


@st.composite
def graph_texts(draw):
    more = draw(st.lists(st.sampled_from(MORE_NAMES), max_size=4, unique=True))
    names = ["X", "Y", *more]
    name = st.sampled_from(names)
    pair = st.permutations(names).map(lambda p: p[:2])
    edge = st.builds("{0[0]} {1} {0[1]}".format, pair, st.sampled_from(["->", "<->"]))
    statement = st.one_of(edge, st.builds("latent {}".format, name), name)
    statements = [*names, *draw(st.lists(statement, max_size=8))]
    if draw(st.integers(0, 4)) == 4:
        at = draw(st.integers(0, len(statements)))
        statements.insert(at, draw(st.sampled_from(FAULTS)))
    return draw(st.sampled_from(["; ", "\n"])).join(statements)


# node arguments, the first of each a valid query: known and unknown
# names, empty lists, repeats and overlaps
A_ARGS = st.sampled_from(["X", "X,Z", "Z", "Y", "X,X", "Q", "", " , "])
B_ARGS = st.sampled_from(["Y", "Y,Z", "U", "X", "Q", ""])
GIVEN_ARGS = st.sampled_from(["", "Z", "U", "Z,U", "Y", "Q"])


@settings(max_examples=300, deadline=None)
@given(
    text=graph_texts(),
    command=st.sampled_from(["dsep", "identify"]),
    nodes=st.tuples(A_ARGS, B_ARGS, GIVEN_ARGS),
)
def test_graph_commands_end_with_an_exit_code(text, command, nodes):
    # hypothesis refuses tmp_path inside @given, so each example makes its own
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        path.write_text(text)
        if command == "dsep":
            flags = ["--a", nodes[0], "--b", nodes[1], "--given", nodes[2]]
        else:
            flags = ["--outcome", nodes[0], "--do", nodes[1]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--graph", str(path), *flags])
    assert code in (0, 1, 2)
    assert (code == 1) == err.getvalue().startswith("error: ")


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


@pytest.mark.parametrize("cell", ["1_0", "٣", "1\u0660"])
def test_simulate_refuses_offsets_beyond_the_strict_syntax(tmp_path, capsys, cell):
    path = tmp_path / "o.csv"
    offsets = ",".join([cell] + ["0"] * 9)
    argv = ["simulate", "--scenario", "a", "--n", "5", "--seed", "1",
            "--out", str(path), "--delta-y", offsets]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: --delta-y needs comma-separated floats, got {offsets!r}\n"
    )
    assert not path.exists()


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
    # mode n times x_support, may not pass 10**8 values; the discrete
    # support itself is capped at 10**4 values
    for flags, message in (
        (("--feature-dim", "99999999999"),
         "n * feature_dim must be at most 100000000"),
        (("--x-mode", "discrete", "--x-support", "99999999999"),
         "n * x_support must be at most 100000000"),
        (("--x-mode", "discrete", "--x-support", "10001"),
         "x_support must be at most 10000, got 10001"),
    ):
        path = tmp_path / "o.csv"
        out = run_cli(
            "simulate", "--scenario", "a", "--n", 50, "--seed", 1,
            "--out", path, *flags,
        )
        assert out.returncode == 1
        assert f"error: {message}" in out.stderr
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


def test_bootstrap_da_refuses_the_cb_only_flags(tmp_path, capsys):
    src = simulate_csv(tmp_path, "train.csv")
    out_path = tmp_path / "da.csv"
    boot = ["bootstrap", "--scenario", "a", "--method", "da",
            "--in", str(src), "--out", str(out_path), "--seed", "3"]
    for flags in (["--kernel", "gaussian:5"], ["--smoothing", "3"],
                  ["--kernel", "delta"], ["--smoothing", "0"],
                  ["--kernel", "gaussian:5", "--smoothing", "3"]):
        capsys.readouterr()
        assert cli.main(boot + flags) == BootstrapError.exit_code == 1
        err = capsys.readouterr().err
        assert "--kernel and --smoothing apply to --method cb only" in err
        assert not out_path.exists()
    assert cli.main(boot) == 0 and out_path.exists()


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
    no_y = tmp_path / "no_y.csv"
    no_y.write_text("x0,u\n0.1,0\n0.2,1\n")
    fine = tmp_path / "fine.csv"
    fine.write_text("x0,y,u\n0.1,1,0\n0.2,0,1\n")
    for src, method, message in (
        (no_y, "cb", "error: dataset needs a y column"),
        (fine, "simple", "error: bootstrap method must be cb or da"),
    ):
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
        assert message in out.stderr
        assert "Traceback" not in out.stderr
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
    "cb_b.csv": "fac306505bead38ae057f7ef54479a5e0ae14b86e12e28430d4613709b9489a3",
    "cb_d.csv": "b1d4abca46673566b2fc2059f33d21cf6aada5f7e542f8bcb209598a67bccaf8",
    "cb_e.csv": "9453aac8f3e4d0dee47b9e862a9811adab8d534b8362639cbeee8cb6f179756c",
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
    # b's (z | u) denominator, d's shared (z | y) table, e's care column
    for scenario, n, seed, extra in (("b", 900, 7, ()), ("d", 800, 9, ()),
                                     ("e", 600, 11, ("--smoothing", 0.5))):
        sim = tmp_path / f"sim_{scenario}.csv"
        assert cli.main(["simulate", "--scenario", scenario, "--n", str(n),
                         "--seed", str(seed), "--out", str(sim)]) == 0
        boot(scenario, "cb", sim, p[f"cb_{scenario}.csv"], seed + 1, *extra)
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
    mp.setattr(_csvtext, "_step", lambda blocks: chunk)
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


def written(path, data, *index):
    cli._write_dataset(str(path), data, *index)
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 11),
    d=st.integers(1, 3),
    split=st.integers(1, 4),
    chunk=st.integers(1, 4),
    data=st.data(),
)
def test_split_write_equals_the_serial_write(tmp_path_factory, n, d, split, chunk, data):
    x = np.array(data.draw(st.lists(edge_floats, min_size=n * d, max_size=n * d)))
    x = x.reshape(n, d)
    labels = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    y, u = (np.array(data.draw(labels), dtype=np.int64) for _ in range(2))
    dataset = Dataset(x=x, y=y, columns={"u": u}, shadow={cli._SOURCE: np.arange(n)})
    # an index of the same length as y, so the indexed path writes n rows
    drawn = np.array(
        data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    tmp = tmp_path_factory.mktemp("split")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_csvtext, "_step", lambda blocks: chunk)
        serial = [
            written(tmp / "a.csv", dataset, True),
            written(tmp / "b.csv", dataset, False, x, drawn),
        ]
        mp.setattr(cli, "_SPLIT_ROWS", split)
        pids = counting_forks(mp)
        halves = [
            written(tmp / "c.csv", dataset, True),
            written(tmp / "d.csv", dataset, False, x, drawn),
        ]
    assert halves == serial
    assert len(pids) == (2 if n >= max(split, 2) and two_cpus() else 0)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def stepped(v: float, k: int) -> float:
    """The float k steps above v (below for k < 0)."""
    for _ in range(abs(k)):
        v = float(np.nextafter(v, np.inf if k > 0 else -np.inf))
    return v


int64s = st.integers(-(2**63), 2**63 - 1)
# the kernel's digit proof, its edges and every class it leaves to repr
kernel_floats = st.tuples(
    st.one_of(
        edge_floats,
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
        st.integers(-1074, 1023).map(lambda k: 2.0**k),
        st.tuples(
            st.sampled_from([1e-4, 1e16, 2.0**53, 0.1, 1.0]), st.integers(-3, 3)
        ).map(lambda t: stepped(*t)),
        st.tuples(st.one_of(finite, st.floats(1e-5, 1e17)), st.integers(1, 17)).map(
            lambda t: float(f"{t[0]:.{t[1]}g}")  # rounded to 1-17 digits
        ),
    ),
    st.booleans(),
).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 9),
    d=st.integers(1, 3),
    ints=st.booleans(),
    block=st.integers(1, 4),
    data=st.data(),
)
def test_writer_matches_the_reference_writer(tmp_path_factory, n, d, ints, block, data):
    cells = st.lists(int64s if ints else kernel_floats, min_size=n * d, max_size=n * d)
    x = np.array(data.draw(cells), dtype=np.int64 if ints else np.float64).reshape(n, d)
    y, u = (
        np.array(data.draw(st.lists(int64s, min_size=n, max_size=n)), dtype=np.int64)
        for _ in range(2)
    )
    dataset = Dataset(x=x, y=y, columns={"u": u}, shadow={cli._SOURCE: y[::-1]})
    drawn = np.array(
        data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n if n else 0)),
        dtype=np.int64,
    )
    resampled = Dataset(x=x[drawn], y=y[drawn], columns={}, shadow={})
    tmp = tmp_path_factory.mktemp("reference")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_csvtext, "_step", lambda blocks: block)
        for args in ((dataset, True), (dataset, False), (resampled, False, x, drawn)):
            cli._write_dataset(str(tmp / "a.csv"), *args)
            csv_reference.write_dataset(str(tmp / "b.csv"), *args)
            assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


def test_kernel_writes_a_million_floats_as_repr():
    rng = np.random.default_rng(2024)
    # any finite double: 64-bit patterns
    anywhere = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    anywhere = anywhere[np.isfinite(anywhere)]
    # doubles in the kernel's own domain, 1e-4 <= |v| < 1e16, any significand
    exponents = rng.integers(-14, 54, 310_000)
    significands = rng.integers(1 << 52, 1 << 53, 310_000)
    inside = np.ldexp(significands.astype(np.float64), exponents - 52)
    inside *= rng.choice([-1.0, 1.0], len(inside))
    inside = inside[(np.abs(inside) >= 1e-4) & (np.abs(inside) < 1e16)]
    # the features simulate writes in the benchmark's scenario
    sim = simulate(SimConfig(scenario="c", n=50_000), "conf", 5).x.reshape(-1, 1)

    for name, values in (("anywhere", anywhere), ("inside", inside), ("scenario c", sim)):
        values = values.reshape(-1, 1)
        text = "".join(_csvtext.lines([values]))
        assert text == "".join(f"{v!r}\n" for v in values[:, 0].tolist()), name
        if name == "scenario c":
            fallback = len(_csvtext._floats(values.reshape(-1)).texts)
            assert fallback <= 0.01 * len(values), fallback
    assert len(anywhere) + len(inside) + len(sim) >= 10**6


def raise_in_a_child(mp):
    parent, slab = os.getpid(), _csvtext._slab

    def slab_here_only(blocks, end):
        if os.getpid() != parent:
            raise RuntimeError("fault in the child")
        return slab(blocks, end)

    mp.setattr(_csvtext, "_slab", slab_here_only)


def no_spill(mp):
    def refused(*args, **kwargs):
        raise OSError("no room for a spill")

    mp.setattr(tempfile, "TemporaryFile", refused)


@pytest.mark.parametrize(
    "fault, forks",
    [
        (raise_in_a_child, 2),
        (no_spill, 0),
        (lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False), 0),
        (lambda mp: mp.delattr(os, "fork", raising=False), 0),
    ],
    ids=["child-fails", "no-spill", "one-cpu", "no-fork"],
)
def test_every_fallback_writes_the_serial_bytes(tmp_path, monkeypatch, fault, forks):
    rng = np.random.default_rng(8)
    n = 9
    x = rng.standard_normal((n, 2))
    y = rng.integers(0, 2, n)
    dataset = Dataset(x=x, y=y, columns={"u": y ^ 1}, shadow={cli._SOURCE: np.arange(n)})
    drawn = rng.integers(0, n, n)
    serial = [
        written(tmp_path / "a.csv", dataset, True),
        written(tmp_path / "b.csv", dataset, False, x, drawn),
    ]
    monkeypatch.setattr(cli, "_SPLIT_ROWS", 2)
    pids = counting_forks(monkeypatch) if hasattr(os, "fork") else []
    fault(monkeypatch)
    assert [
        written(tmp_path / "c.csv", dataset, True),
        written(tmp_path / "d.csv", dataset, False, x, drawn),
    ] == serial
    assert len(pids) == (forks if two_cpus() else 0)


@pytest.mark.skipif(not two_cpus(), reason="the split needs os.fork and two CPUs")
def test_forked_writes_match_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_SPLIT_ROWS", 2)
    pids = counting_forks(monkeypatch)
    p = {name: tmp_path / name for name in ("sim_c.csv", "cb_c.csv", "cbg_c.csv", "da_c.csv")}
    assert cli.main(["simulate", "--scenario", "c", "--n", "1500", "--seed", "3",
                     "--out", str(p["sim_c.csv"])]) == 0
    for name, method, *extra in (("cb_c.csv", "cb"),
                                 ("cbg_c.csv", "cb", "--kernel", "gaussian:0.3",
                                  "--smoothing", "1"),
                                 ("da_c.csv", "da")):
        assert cli.main(["bootstrap", "--scenario", "c", "--method", method,
                         "--in", str(p["sim_c.csv"]), "--out", str(p[name]),
                         "--seed", "5", *extra]) == 0
    assert len(pids) == 4
    for name, path in p.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[name], name


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


STRICT_CELLS = [
    # (cell, column, message after "row 7: ")
    ("1_0", "x0", "x0 value '1_0' is not a plain ASCII number"),
    ("1_0", "u", "u value '1_0' is not a plain ASCII number"),
    ("٣", "x0", "x0 value '٣' is not a plain ASCII number"),
    ("٣", "u", "u value '٣' is not a plain ASCII number"),
    ("1.0", "u", "invalid literal for int() with base 10: '1.0'"),
    ("0x1", "x0", "could not convert string to float: '0x1'"),
    ("0x1", "u", "invalid literal for int() with base 10: '0x1'"),
    # a byte that is not UTF-8
    (b"1\xff", "x0", "could not convert string to float: '1\\udcff'"),
    (b"1\xff", "u", "invalid literal for int() with base 10: '1\\udcff'"),
    # separators that numpy.loadtxt, not float() or int(), strips as blanks
    ("\x1c0.5", "x0", "could not convert string to float: '\\x1c0.5'"),
    ("1\x1f", "u", "invalid literal for int() with base 10: '1\\x1f'"),
]


@pytest.mark.parametrize("cell, column, message", STRICT_CELLS)
def test_bootstrap_refuses_cells_beyond_the_strict_syntax(
    tmp_path, monkeypatch, capsys, cell, column, message
):
    # rows 2-6 are good; with three records a chunk, row 7 is in the second
    monkeypatch.setattr(cli, "_CHUNK", 3)
    cells = {"x0": b"0.5", "y": b"1", "u": b"0"}
    cells[column] = cell if isinstance(cell, bytes) else cell.encode()
    src, out_path = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_bytes(b"x0,y,u\n" + b"0.1,1,0\n0.2,0,1\n" * 2 + b"0.3,1,1\n"
                    + b",".join(cells.values()) + b"\n0.4,0,0\n")
    for method in ("cb", "da"):
        argv = ["bootstrap", "--scenario", "a", "--method", method,
                "--in", str(src), "--out", str(out_path), "--seed", "1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: row 7: {message}\n"
        assert not out_path.exists()


def test_separators_in_a_shadow_cell_read(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("x0,y,u,_v\n0.5,1,0,\x1c1\x1f\n0.25,0,1,2\n")
    data = cli._read_dataset(str(path))
    assert data.x.tolist() == [[0.5], [0.25]]
    assert data.y.tolist() == [1, 0]


def test_a_huge_cell_and_a_fault_name_the_faulty_row(tmp_path, capsys):
    # csv.reader refuses a cell over csv.field_size_limit() characters;
    # the checker reads the one np.loadtxt read and names the real fault
    limit = csv.field_size_limit()
    src, out_path = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("x0,y,u,_v\n0.5,1,0," + "7" * 200_000 + "\n1_0,0,1,2\n")
    argv = ["bootstrap", "--scenario", "a", "--method", "da",
            "--in", str(src), "--out", str(out_path), "--seed", "1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: row 3: x0 value '1_0' is not a plain ASCII number\n"
    )
    assert not out_path.exists()
    assert csv.field_size_limit() == limit
    src.write_text("x0,y,u,_" + "v" * 200_000 + "\n0.5,1,0,2\n0.25,0,1,3\n")
    assert cli._read_dataset(str(src)).x.tolist() == [[0.5], [0.25]]


def test_a_warning_in_the_parse_refuses_the_file(tmp_path, monkeypatch):
    # numpy before 2.0 reads 1.0 into an int column with only a
    # DeprecationWarning; the warning must refuse the file there too
    load = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                      DeprecationWarning, stacklevel=2)
        return load(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "in.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as outside the test run
        path.write_text("x0,y,u\n0.1,1,0\n0.2,1.0,0\n")
        with pytest.raises(EstimateError, match=r"^row 3: invalid literal for int\(\)"):
            cli._read_dataset(str(path))
        # a file the checker finds nothing wrong with is still refused
        path.write_text("x0,y,u\n0.1,1,0\n")
        with pytest.raises(EstimateError, match="Parsing an integer via a float"):
            cli._read_dataset(str(path))


# Short CSV texts for bootstrap: a header, mostly a usable one, then
# rows of valid cells, with either line ending.  About half the texts
# carry one or two faults: a junk cell, a short or long row, a blank,
# whitespace-only or '#' line.
CSV_HEADERS = ["x0,y,u", "x0,x1,y,u,z", "x0,y,u,z,d", "x0,y,u,z,_v", "x0,_v,y,u"]
CSV_BAD_HEADERS = ["x0,y", "x1,y,u", "x0,y,y", "x0,y,w", "y,u", "", '"x0",y,u', "x0,y,u,"]
CSV_CELLS = {"x": ["0.5", "-1.25", "3", "1e-3", "-0.0"], "other": ["0", "1", "1", "2"]}
CSV_JUNK = [
    "", " ", "abc", "nan", "inf", "-inf", "1e400", "1_0", "0x1", "1.5", "+1", "٣",
    "１", "\u30001", " 1 ", '"1"', '"', '""', '"1,0"', '"1\n0"', '"\n"', '"a\n\nb"',
    '"1"2', "1.0", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "\x1c0.5", "1\x1f", "\x1d1\x1e",
]
CSV_FAULTS = ["junk", "junk", "short", "long", "blank", "spaces", "comment"]


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(CSV_HEADERS * 3 + CSV_BAD_HEADERS))
    names = header.split(",")
    rows = [
        [draw(st.sampled_from(CSV_CELLS["x" if c.startswith("x") else "other"]))
         for c in names]
        for _ in range(draw(st.integers(0, 12)))
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(CSV_FAULTS))
        if fault == "junk" and cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CSV_JUNK))
        elif fault == "short" and cells:
            cells.pop()
        elif fault == "long":
            cells.append("0")
        elif fault == "blank":
            cells.clear()
        elif fault == "spaces":
            cells[:] = [" \t"]
        elif fault == "comment" and cells:
            cells[0] = "#" + cells[0]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header, *map(",".join, rows)]
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def read_outcome(read, path):
    """What a reader makes of a file: its Dataset's bytes, or its
    EstimateError's message."""
    try:
        data = read(str(path))
    except EstimateError as exc:
        return str(exc)
    return (
        data.x.shape, data.x.tobytes(), data.y.tobytes(),
        {name: col.tobytes() for name, col in data.columns.items()},
        {name: col.tobytes() for name, col in data.shadow.items()},
    )


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), chunk=st.integers(1, 4))
@example(text="x0,y,u\n0.1,1,0\n \n", chunk=1)
@example(text="x0,y,u\n0.1,1,0\n#0.2,1,0\n", chunk=1)
@example(text="x0,y,u,z,_v\n0.1,1,0,1,\"a\n\nb\"\n0.2,0,1,0,1\n", chunk=1)
@example(text="x0,y,u,z,_v\n0.1,1,0,1,\"1\n0\"\n", chunk=2)
@example(text="x0,y,u,z,_v\n0.1,1,0,1\n", chunk=1)
@example(text="x0,y,u,z,_v\n0.1,1,0,1,0,0\n", chunk=1)
@example(text="x0,y,u,z,_v\n0.1,1,0\n", chunk=1)
@example(text="x0,y,u", chunk=1)
@example(text="x0,y,u\n", chunk=1)
@example(text="x0,y,u\n\n", chunk=1)
@example(text="x0,y,u\n0.1,1,0\n\n", chunk=1)
def test_strict_reader_matches_the_reference_reader(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("ref") / "in.csv"
    path.write_text(text, newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK", chunk)
        mp.setattr(csv_reference, "_CHUNK", chunk)
        got = read_outcome(cli._read_dataset, path)
        want = read_outcome(csv_reference.read_dataset, path)
    if got == want:
        return
    # only a cell Python reads and the strict syntax refuses may differ,
    # and the strict reader names it no later than the reference's fault
    assert isinstance(got, str), (got, want)
    match = re.fullmatch(r"row (\d+): \w+ value (.+) is not a plain ASCII number", got)
    assert match, (got, want)
    row, cell = int(match[1]), ast.literal_eval(match[2])
    assert csv_reference.refused(cell)
    records = list(csv.reader(io.StringIO(text, newline="")))
    assert cell in records[row - 1]
    if isinstance(want, str) and want.startswith("row "):
        assert row <= int(re.match(r"row (\d+)", want)[1]), (got, want)


@settings(max_examples=300, deadline=None)
@given(
    text=csv_texts(),
    scenario=st.sampled_from("abcde"),
    method=st.sampled_from([
        ("cb",), ("cb", "--kernel", "gaussian:0.3"), ("cb", "--smoothing", "1"),
        ("da",), ("da",), ("da", "--smoothing", "1"),
    ]),
)
def test_bootstrap_ends_with_an_exit_code_on_malformed_csv(text, scenario, method):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPLIT_ROWS", 2)
        src, out_path = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        src.write_text(text, newline="")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["bootstrap", "--scenario", scenario, "--method", *method,
                             "--in", str(src), "--out", str(out_path), "--seed", "1"])
        assert code in range(5)
        assert "Traceback" not in err.getvalue()
        assert out_path.exists() == (code == 0)
        if code == 0:
            assert cli._read_dataset(str(out_path)).n > 0


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


def test_bootstrap_refuses_a_hard_link_to_its_input(tmp_path, capsys):
    src = simulate_csv(tmp_path, "s.csv")
    link = tmp_path / "link.csv"
    try:
        os.link(src, link)
    except (AttributeError, NotImplementedError, OSError):
        pytest.skip("hard links are not supported here")
    before = src.read_bytes()
    for method in ("cb", "da"):
        argv = ["bootstrap", "--scenario", "a", "--method", method,
                "--in", str(src), "--out", str(link), "--seed", "1"]
        assert cli.main(argv) == 1
        assert "--out must not name the --in file" in capsys.readouterr().err
        assert src.read_bytes() == before
        assert os.path.samefile(src, link)


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


@pytest.mark.parametrize("classes", [(0, 1, 2), (-1, 1)])
def test_bootstrap_resamples_any_integer_labels(tmp_path, classes):
    # resampling takes any integer labels; only train and run need {0, 1}
    rng = np.random.default_rng(3)
    n = 300
    y = np.array(classes)[rng.integers(0, len(classes), n)]
    u = rng.integers(0, 2, n)
    y[: 2 * len(classes)] = np.repeat(classes, 2)
    u[: 2 * len(classes)] = np.tile([0, 1], len(classes))
    src = tmp_path / "labels.csv"
    x = rng.standard_normal(n).tolist()
    rows = (f"{xv!r},{yv},{uv}" for xv, yv, uv in zip(x, y, u))
    src.write_text("x0,y,u\n" + "\n".join(rows) + "\n")
    for method in ("cb", "da"):
        out_path = tmp_path / f"{method}.csv"
        argv = ["bootstrap", "--scenario", "a", "--method", method,
                "--in", str(src), "--out", str(out_path), "--seed", "1"]
        assert cli.main(argv) == 0
        got = cli._read_dataset(str(out_path)).y
        assert set(np.unique(got)) == set(classes)
        if method == "cb":
            for c in classes:
                assert (got == c).sum() == (y == c).sum()


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


def main_spec(tmp_path, capsys, text, name, out):
    """`run` on a spec text through cli.main: the exit code, stderr and
    the output directory."""
    spec = tmp_path / name
    spec.write_text(text)
    code = cli.main(["run", "--spec", str(spec), "--out", str(tmp_path / out)])
    return code, capsys.readouterr().err, tmp_path / out


def test_run_rejects_bad_spec(tmp_path, capsys):
    # one case through the console entry point, the rest in process
    result, out_dir = run_spec(tmp_path, "scenarios=a\nwidgets=9\n")
    assert result.returncode == 2
    assert "unknown spec key" in result.stderr
    assert not out_dir.exists()
    code, err, _ = main_spec(tmp_path, capsys, "scenarios=a\nn_train=abc\n", "s2.txt", "o")
    assert code == 2
    assert "spec key 'n_train': bad value 'abc'" in err
    for k, (text, message) in enumerate((
        ("scenarios=zz\n", "unknown scenario 'zz'"),
        ("scenarios=a\nmethods=bogus\n", "unknown method 'bogus'"),
        ("scenarios=a\nsim.sigma=-1\n", "spec sim settings: sigma"),
        ("scenarios=c\nsim.feature_dim=2\n", "spec sim settings: feature_dim"),
        ("scenarios=a\nsim.x_mode=discrete\nsim.x_support=10001\n",
         "spec sim settings: x_support must be at most 10000"),
        ("scenarios=a\nn_train=99999999999999999999999\n", "at most 10000000"),
        ("scenarios=a\nn_test=10000001\n", "at most 10000000"),
        ("scenarios=a,a\n", "scenarios lists 'a' more than once"),
        ("scenarios=a\nmethods=simple,simple\n", "methods lists 'simple'"),
        ("scenarios=a\nseeds=1,1\n", "seeds lists 1 more than once"),
        ("scenarios=a\nqc_grid=0.75,0.75\n", "qc_grid lists 0.75 more"),
        ("scenarios=a\ntrain.seed=3\n", "unknown spec key 'train.seed'"),
        ("scenarios=a\nsim.q_c=0.8\n", "sim.q_c is set by each qc_grid level"),
        ("scenarios=a\nqc_grid=0.9\ncomplexity_sweep=1.0\n",
         "qc_grid has no effect with complexity_sweep"),
    )):
        code, err, out_dir = main_spec(tmp_path, capsys, text, f"s{k + 3}.txt", f"o{k}")
        assert code == 2
        assert message in err
        assert not out_dir.exists()


def test_run_help_lists_every_spec_key(capsys):
    # resolved specs write every key a spec file may set, in either mode
    accepted = set()
    for text in ("scenarios=a\n", "scenarios=a\ncomplexity_sweep=1\nsim.qp_c=0.5\n"):
        resolved = resolved_spec_text(parse_spec_text(text))
        accepted |= {line.partition("=")[0] for line in resolved.splitlines()}
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    listed = capsys.readouterr().out.partition("spec keys:")[2]
    assert set(listed.replace(",", " ").split()) == accepted
    assert "train.seed" not in listed


def test_run_rejects_unusable_train_settings(tmp_path, capsys):
    for k, line in enumerate(("train.epochs=0", "train.kind=tree", "train.lr=inf")):
        text = f"scenarios=a\nseeds=0\nn_train=100\nn_test=100\n{line}\n"
        code, err, out_dir = main_spec(tmp_path, capsys, text, f"s{k}.txt", f"o{k}")
        assert code == 2
        assert "error: spec train settings" in err
        assert not out_dir.exists()


def exit_code(argv):
    """cli.main's exit code, argparse's refusals included, with its
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue() + err.getvalue()


# Short spec texts: key=value lines from every key family, each value
# usable or junk, mixed with malformed lines.
SPEC_KEYS = [
    "scenarios", "qc_grid", "methods", "seeds", "n_train", "n_test",
    "complexity_sweep", "sim.sigma", "sim.feature_dim", "sim.x_mode",
    "sim.x_support", "sim.q_c", "train.epochs", "train.kind", "train.lr",
    "train.seed", "sim.bogus", "train.bogus", "widgets",
]
SPEC_VALUES = [
    "a", "a,b", "c,e", "zz", "0.9", "0.75,0.75", "simple,cb", "bogus", "0",
    "1,2", "1,1", "40", "-1", "10000000", "10000001", "99999999999999999999",
    "abc", "", "inf", "nan", "1_0", "discrete", "tree", ",", "1e400", "٣",
]
SPEC_JUNK_LINES = ["=", "noequals", "# comment", "=5", "scenarios==a", "  ", "\t#"]


@st.composite
def spec_texts(draw):
    lines = [
        f"{draw(st.sampled_from(SPEC_KEYS))}={draw(st.sampled_from(SPEC_VALUES))}"
        for _ in range(draw(st.integers(0, 5)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(SPEC_JUNK_LINES + lines[:1])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(max_examples=200, deadline=None)
@given(text=spec_texts())
def test_run_ends_with_an_exit_code_on_malformed_specs(text):
    # the grid itself is stubbed out: the property is the refusal of a
    # spec, and a usable one could ask for ten million rows
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_experiment", lambda spec: [])
        spec, out_dir = Path(tmp) / "spec.txt", Path(tmp) / "out"
        spec.write_text(text, newline="")
        code, printed = exit_code(["run", "--spec", str(spec), "--out", str(out_dir)])
        assert code in range(5)
        assert "Traceback" not in printed
        assert out_dir.exists() == (code == 0)


DELTA_FLAGS = [f"--{name.replace('_', '-')}" for name in cli._DELTA_KEYS]
DELTA_CELLS = ["0", "1.5", "-2", " 3 ", "nan", "inf", "1e400", "x", "", "1_0", "٣"]


@st.composite
def simulate_flags(draw):
    n = draw(st.one_of(
        st.integers(1, 40).map(str),
        st.sampled_from(["0", "-3", "abc", "1.5", str(MAX_ROWS), str(MAX_ROWS + 1),
                         "99999999999999999999"]),
    ))
    flags = ["--scenario", draw(st.sampled_from("abcde")), "--n", n]
    for flag in draw(st.lists(st.sampled_from(DELTA_FLAGS), max_size=2, unique=True)):
        cells = draw(st.lists(st.sampled_from(DELTA_CELLS), max_size=11))
        flags += [flag, ",".join(cells)]
    if n == str(MAX_ROWS):
        flags += ["--delta-y", "1,x"]  # refused before a row is drawn
    return flags


@settings(max_examples=200, deadline=None)
@given(flags=simulate_flags())
def test_simulate_ends_with_an_exit_code_on_malformed_flags(flags):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        draw = cli.simulate

        def small_only(cfg, *args):
            assert cfg.n <= 40, "a refusal reached the generator"
            return draw(cfg, *args)

        mp.setattr(cli, "simulate", small_only)
        out_path = Path(tmp) / "o.csv"
        code, printed = exit_code(
            ["simulate", *flags, "--seed", "1", "--out", str(out_path)]
        )
        assert code in range(5)
        assert "Traceback" not in printed
        assert out_path.exists() == (code == 0)
