import json
import subprocess
import sys

import numpy as np
import pytest

from graphspace import AttributedGraph, cli, length, serialize_graph
from graphspace.sampling import random_graph
from graphspace.suites import run_suite


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "graphspace", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture
def graph_files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return tmp_path, write


def test_dist_examples(graph_files):
    _, write = graph_files
    a = write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    b = write("b.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0]],"edges":[]}')
    res = run_cli("dist", a, b)
    assert res.returncode == 0 and res.stdout == "2.000000000000\n"
    res = run_cli("dist", a, a)
    assert res.stdout == "0.000000000000\n"
    c = write("c.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    d = write("d.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0],[0.0]],"edges":[]}')
    res = run_cli("dist", c, d, "--witness")
    assert res.stdout == "3.162277660168\nwitness 1 0\n"


def test_dist_error_exit_codes(graph_files):
    tmp, write = graph_files
    a = write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    bad = write("bad.json", "{broken")
    res = run_cli("dist", a, bad)
    assert res.returncode == 1 and "error:" in res.stderr
    missing = str(tmp / "nope.json")
    assert run_cli("dist", a, missing).returncode == 1
    c = write("c.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    res = run_cli("dist", a, c, "--guard", "1")
    assert res.returncode == 2


def test_guard_env_variable(graph_files):
    _, write = graph_files
    a = write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    b = write("b.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0],[0.0]],"edges":[]}')
    assert run_cli("dist", a, b, env={"GED_ORDER_GUARD": "1"}).returncode == 2
    res = run_cli("dist", a, b, "--guard", "9", env={"GED_ORDER_GUARD": "1"})
    assert res.returncode == 0  # flag takes precedence over the variable


def test_kernel_command(graph_files):
    _, write = graph_files
    a = write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    y = write("y.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0],[4.0]],"edges":[]}')
    res = run_cli("kernel", a, y, "--class", "compact", "--witness")
    assert res.returncode == 0
    assert res.stdout == "12.000000000000\nwitness 1 0\n"


def test_gram_identical_graphs_distance(graph_files):
    tmp, write = graph_files
    write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    write("b.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    out = tmp / "gram.csv"
    res = run_cli("gram", str(tmp), "--kind", "distance", "-o", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a.json,b.json"
    assert lines[1] == "0,0" and lines[2] == "0,0"


def test_gram_single_graph_kernel(graph_files):
    tmp, write = graph_files
    g = '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[{"from":0,"to":1,"attr":[2.0]}]}'
    path = write("g.json", g)
    res = run_cli("gram", path, "--kind", "kernel")
    assert res.returncode == 0
    header, value = res.stdout.splitlines()
    assert header == "g.json"
    from graphspace import parse_graph

    assert float(value) == pytest.approx(length(parse_graph(g)) ** 2, rel=1e-11)


def test_gram_random_collection_is_metric(graph_files):
    tmp, write = graph_files
    rng = np.random.default_rng(13)
    for k in range(5):
        write(f"g{k}.json", serialize_graph(random_graph(rng, 3, 1, edge_prob=0.5)))
    res = run_cli("gram", str(tmp), "--kind", "distance")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(names) == 5 and len(rows) == 5
    for i in range(5):
        assert rows[i][i] == 0.0
        for j in range(5):
            assert abs(rows[i][j] - rows[j][i]) <= 1e-12


def test_align_command(graph_files):
    tmp, write = graph_files
    center = write("z.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    x = write("x.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0],[0.0]],"edges":[]}')
    res = run_cli("align", center, x)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload == [[[[0.0], [0.0]], [[0.0], [5.0]]]]


def test_mean_command(graph_files):
    _, write = graph_files
    x = write("x.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    res = run_cli("mean", x, x)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["frechet_value"] == 0.0
    assert payload["mean"]["nodes"] == [[1.0], [2.0]]
    assert payload["trace"] == [0.0]


def test_mean_rejects_a_negative_max_iter(graph_files):
    _, write = graph_files
    x = write("x.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    y = write("y.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    res = run_cli("mean", x, y, "--max-iter", "-1")
    assert res.returncode == 1 and "max_iter" in res.stderr and res.stdout == ""
    res = run_cli("mean", x, y, "--max-iter", "0")
    assert res.returncode == 0 and json.loads(res.stdout)["trace"]


def test_main_reuses_one_parser_with_the_output_of_fresh_ones(graph_files, capsys):
    # main builds its parser once per process; a run of subcommands, with a
    # usage error between them, prints and returns what fresh parsers give.
    tmp, write = graph_files
    a = write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    b = write("b.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0],[1.0]],"edges":[]}')
    runs = [
        ["dist", a, b, "--witness"],
        ["kernel", a, b],
        ["dist", a, b, "--bogus"],
        ["mean", a, b, "--max-iter", "2"],
        ["gram", a, b, "--kind", "kernel"],
        ["check", "--suite", "mcs", "--trials", "5"],
        ["align", b, a],
        ["dist", a, b],
    ]

    def outputs(fresh):
        got = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # usage errors exit from the parser
                code = exc.code
            out = capsys.readouterr()
            got.append((code, out.out, out.err))
        return got

    cli._parser.cache_clear()
    shared = outputs(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert shared == outputs(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0, 1, 0, 0]
    assert cli.build_parser() is not cli.build_parser()


def test_gram_rejects_mixed_dimensions(graph_files):
    tmp, write = graph_files
    write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0]],"edges":[]}')
    write("b.json", '{"directed":false,"attr_dim":2,"nodes":[[1.0,2.0]],"edges":[]}')
    res = run_cli("gram", str(tmp))
    assert res.returncode == 1 and "mixed" in res.stderr


def test_align_rejects_singular_center(graph_files):
    _, write = graph_files
    center = write("z.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[1.0]],"edges":[]}')
    x = write("x.json", '{"directed":false,"attr_dim":1,"nodes":[[2.0]],"edges":[]}')
    res = run_cli("align", center, x)
    assert res.returncode == 1 and "ordinary" in res.stderr


def test_mean_rejects_too_small_order(graph_files):
    _, write = graph_files
    x = write("x.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    res = run_cli("mean", x, x, "--order", "1")
    assert res.returncode == 1


def test_check_command_exit_codes():
    res = run_cli("check", "--suite", "homogeneity", "--trials", "15", "--seed", "7")
    assert res.returncode == 0
    assert "positive_homogeneity: PASS" in res.stdout
    assert run_cli("check", "--suite", "bogus").returncode == 3


@pytest.mark.parametrize("suite", ["homogeneity", "cauchy-schwarz", "ordinary"])
def test_check_suites_honour_guard(suite):
    res = run_cli("check", "--suite", suite, "--trials", "3", "--guard", "1")
    assert res.returncode == 2


def test_run_suite_rejects_parameters_the_suite_does_not_take():
    with pytest.raises(ValueError, match="seed"):
        run_suite("mcs", seed=0)


def test_run_suite_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        run_suite("ordinary", trials=-5)
    report = run_suite("ordinary", trials=0)
    assert report.passed and report.lines() == run_suite("ordinary", trials=0).lines()


def test_check_is_byte_deterministic():
    args = ("check", "--suite", "metric", "--trials", "40", "--seed", "7")
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout and first.stdout
    assert first.returncode == second.returncode == 0


def test_gram_is_byte_deterministic(graph_files):
    tmp, write = graph_files
    rng = np.random.default_rng(29)
    for k in range(4):
        write(f"g{k}.json", serialize_graph(random_graph(rng, 3, 1)))
    first = run_cli("gram", str(tmp), "--kind", "distance")
    second = run_cli("gram", str(tmp), "--kind", "distance")
    assert first.stdout == second.stdout and first.returncode == 0


@pytest.mark.parametrize(
    "args",
    [
        ("dist", "a.json", "a.json", "--bogus"),
        ("mean", "a.json", "--score", "delta"),
        ("align", "a.json", "a.json", "--pad", "bound"),
        ("dist", "a.json", "a.json", "--seed", "1"),
        ("check", "--suite", "metric", "--class", "compact"),
        ("gram", "a.json", "--kind", "kernel", "--tol", "1e-6"),
        ("dist", "a.json", "a.json", "--pad", "pairwise-sum", "--order", "5"),
        ("gram", "a.json", "--pad", "pairwise-sum", "--order", "5"),
        ("check", "--suite", "mcs", "--trials", "5"),
        ("check", "--suite", "mcs", "--seed", "1"),
        ("check", "--suite", "mcs", "--tol", "1e-3"),
        ("check", "--suite", "ordinary", "--tol", "1e-3"),
        ("gram", "a.json", "--tol", "nan"),
        ("gram", "a.json", "--tol", "-1"),
        ("gram", "a.json", "--tol", "inf"),
        ("check", "--suite", "metric", "--tol", "nan"),
        ("check", "--suite", "metric", "--tol", "-1"),
        ("check", "--suite", "ordinary", "--trials", "-5"),
    ],
)
def test_usage_errors_exit_1(graph_files, args):
    tmp, write = graph_files
    write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    res = run_cli(*(str(tmp / a) if a == "a.json" else a for a in args))
    assert res.returncode == 1 and "error:" in res.stderr and res.stdout == ""
    assert res.stderr.count("error:") == 1


def test_gram_tol_applies_to_distances(graph_files):
    tmp, write = graph_files
    write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[3.0]],"edges":[]}')
    write("b.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0],[1.0]],"edges":[]}')
    default = run_cli("gram", str(tmp), "--kind", "distance")
    explicit = run_cli("gram", str(tmp), "--kind", "distance", "--tol", "1e-6")
    assert default.returncode == explicit.returncode == 0
    assert default.stdout == explicit.stdout


def test_gram_distance_honours_pad_and_class_like_dist(graph_files):
    tmp, write = graph_files
    a = write("a.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0]],"edges":[]}')
    b = write("b.json", '{"directed":false,"attr_dim":1,"nodes":[[-3.0]],"edges":[]}')
    # Pairwise-sum padding lets both real nodes route through null slots
    # (sqrt 34); compact bijections forbid that and match them (8).
    cases = [((), 8.0), (("--pad", "pairwise-sum"), 34.0**0.5),
             (("--pad", "pairwise-sum", "--class", "compact"), 8.0)]
    for flags, expected in cases:
        gram = run_cli("gram", str(tmp), "--kind", "distance", *flags)
        dist = run_cli("dist", a, b, *flags)
        assert gram.returncode == dist.returncode == 0
        entry = float(gram.stdout.splitlines()[1].split(",")[1])
        assert entry == pytest.approx(expected, abs=1e-10)
        assert float(dist.stdout) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("count", [1, 3])
def test_gram_scans_each_unordered_pair_once(graph_files, count):
    from graphspace import edit_kernel, induced_metric, load_graph

    tmp, write = graph_files
    rng = np.random.default_rng(31 + count)
    paths = [write(f"g{k}.json", serialize_graph(random_graph(rng, int(rng.integers(2, 5)), 2)))
             for k in range(count)]
    graphs = [load_graph(p) for p in paths]
    order = max(g.order for g in graphs)
    for kind in ("kernel", "distance"):
        res = run_cli("gram", str(tmp), "--kind", kind)
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert all(rows[i][j] == rows[j][i] for i in range(count) for j in range(count))
        for i in range(count):
            if kind == "distance":
                assert rows[i][i] == f"{0.0:.12g}"
            for j in range(i if kind == "kernel" else i + 1, count):
                x, y = graphs[i], graphs[j]
                want = (edit_kernel(x, y, order=order).value if kind == "kernel"
                        else induced_metric(x, y, order=order))
                assert rows[i][j] == f"{want:.12g}"


def test_align_rejects_another_attribute_dimension(graph_files):
    _, write = graph_files
    center = write("z.json", serialize_graph(AttributedGraph(False, 2, [(1.0, 0.0), (2.0, 0.0)])))
    x = write("x.json", '{"directed":false,"attr_dim":1,"nodes":[[5.0]],"edges":[]}')
    res = run_cli("align", center, x)
    assert res.returncode == 1 and res.stdout == ""
    assert "error: dimension mismatch" in res.stderr


@pytest.mark.parametrize("command", ["gram", "align", "mean"])
def test_order_below_a_graph_exits_1_before_the_guard(graph_files, command):
    # --order 10 is below the order-11 graph and above the default guard 9:
    # the order is rejected as input (exit 1), not by the guard (exit 2).
    tmp, write = graph_files
    big = write("big.json", serialize_graph(AttributedGraph(False, 1, [(1.0,)] * 11)))
    small = write("small.json", '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[]}')
    args = {"gram": [str(tmp)], "align": [small, big], "mean": [big, small]}[command]
    res = run_cli(command, *args, "--order", "10")
    assert res.returncode == 1 and "below graph order 11" in res.stderr
    assert run_cli(command, *args).returncode == 2  # order 11 alone exceeds the guard
