import io
import json
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
from hypothesis import given, strategies as st

from layerchain.cli import _COMMANDS, main
from layerchain.kernels import PolyMatrix, build_reduced_kernel
from layerchain.graphs import cycle
from layerchain.schemas import (
    CONJECTURE_CERTIFICATE_SCHEMA,
    MATRIX_SCHEMA,
    ONSET_CERTIFICATE_SCHEMA,
    VECTOR_SCHEMA,
)
from test_kernels import complete_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_states_counts(capsys):
    data = run_json(capsys, "states", "--graph", "cycle:3")
    assert data["pattern_count"] == 15
    assert data["infected_count"] == 10
    assert data["core_count"] == 5
    assert data["lumped_count"] == 11
    assert data["lumped_states"][0] == "dagger"


def test_kernel_round_trips_through_cli(capsys):
    data = run_json(capsys, "kernel", "--graph", "cycle:2", "--kind", "reduced")
    jsonschema.validate(data, MATRIX_SCHEMA)
    assert PolyMatrix.from_dict(data) == build_reduced_kernel(cycle(2))


def test_stationary_artifact(capsys):
    data = run_json(capsys, "stationary", "--graph", "cycle:2")
    jsonschema.validate(data["stationary"], VECTOR_SCHEMA)
    jsonschema.validate(data["initial"], VECTOR_SCHEMA)
    assert data["stationary"]["c_p"] == ["1", "0", "-1", "1"]


def test_onset_command(capsys):
    data = run_json(capsys, "onset", "--graph", "cycle:2")
    jsonschema.validate(data, ONSET_CERTIFICATE_SCHEMA)
    assert data["onset"] == 2
    assert data["matrix_step"] == 4


def test_verify_command_proven_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--graph", "cycle:2")
    assert code == 0, err
    data = json.loads(out)
    jsonschema.validate(data, CONJECTURE_CERTIFICATE_SCHEMA)
    assert data["verdict"] == "proven"


def test_connection_with_probability(capsys):
    data = run_json(
        capsys, "connection", "--graph", "cycle:2", "--vertex", "1", "--n", "0", "--p", "1/2"
    )
    assert data["probability"] == "31/49"


def test_expected_command(capsys):
    data = run_json(capsys, "expected", "--graph", "cycle:2", "--n", "0", "--p", "1/2")
    assert data["expected_count"] == "80/49"


def test_bound_table_json_and_csv(capsys):
    data = run_json(capsys, "bound", "--max-degree", "5")
    assert [row["g_le_1"] for row in data["rows"][:5]] == [True] * 5
    assert data["rows"][5]["h_le_1"] is True
    code, out, _ = run_cli(capsys, "bound", "--max-degree", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,p,g,g_le_1,h,h_le_1"
    assert len(lines) == 4


def test_extremal_command(capsys):
    data = run_json(
        capsys,
        "extremal",
        "--graph",
        "path:3",
        "--kind",
        "open",
        "--source",
        "*,1|0,2",
        "--target",
        "*,1|0,2",
    )
    assert data["m"] == 3


def test_decay_command(capsys):
    data = run_json(capsys, "decay", "--graph", "cycle:2", "--p", "1/2")
    assert data["approximate"] is True
    assert 0 < data["estimate"] < 1


def test_mc_command_metadata(capsys):
    data = run_json(
        capsys,
        "mc",
        "--graph",
        "cycle:2",
        "--p",
        "1/2",
        "--vertex",
        "1",
        "--n",
        "1",
        "--samples",
        "2000",
        "--seed",
        "4",
    )
    assert data["generator"] == "numpy-pcg64"
    assert data["seed"] == 4
    assert data["sample_count"] == 2000
    assert data["approximate"] is True


def test_fit_command(capsys):
    data = run_json(
        capsys, "fit", "--graph", "cycle:2", "--p", "1/2", "--samples", "5000", "--seed", "2"
    )
    assert data["pvalue"] > 1e-4


def test_artifacts_are_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code, _, _ = run_cli(capsys, "onset", "--graph", "cycle:2", "--out", str(target))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_graph_file_loading(tmp_path, capsys):
    doc = tmp_path / "triangle.json"
    doc.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]], "origin": 0}))
    data = run_json(capsys, "states", "--graph", str(doc))
    assert data["pattern_count"] == 15
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps({"vertices": 2, "edges": [], "origin": 0}))
    code, _, err = run_cli(capsys, "states", "--graph", str(bad))
    assert code == 1
    assert "disconnected" in err
    # a directory and a file that is not UTF-8 text cannot be read as a graph
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe")
    for unreadable in (tmp_path, undecodable):
        code, out, err = run_cli(capsys, "states", "--graph", str(unreadable))
        assert code == 1 and out == ""
        assert err.startswith("error: [document-invalid] "), err


def test_one_vertex_graph(capsys):
    graph = ("--graph", "path:1")
    data = run_json(capsys, "stationary", *graph)
    assert data["stationary"]["entries"] == [["1"]]
    data = run_json(capsys, "verify", *graph)
    assert data["verdict"] == "proven"
    data = run_json(capsys, "fit", *graph, "--p", "1/2", "--samples", "500", "--seed", "1")
    assert data["counts"] == [0, 500] and data["pvalue"] == 1.0
    data = run_json(
        capsys, "mc", *graph, "--p", "1/2", "--vertex", "0", "--n", "2",
        "--samples", "500", "--seed", "1",
    )
    assert 0 < data["estimate"] < 1


def test_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "mc", "--graph", "cycle:2")
    assert code == 1 and "requires" in err
    code, _, err = run_cli(capsys, "decay", "--graph", "cycle:2", "--p", "zebra")
    assert code == 1
    code, _, err = run_cli(capsys, "states", "--graph", "cycle:2", "--format", "csv")
    assert code == 1 and err.startswith("error: [argument-invalid] ")
    code, out, err = run_cli(capsys, "bound", "--max-degree", "-1")
    assert code == 1 and out == "" and err.startswith("error: [degree-negative] ")
    code, _, _ = run_cli(capsys, "definitely-not-a-command")
    assert code == 1
    cases = [
        (["connection", "--vertex", "1", "--n", "-1", "--p", "1/2"], "layer-negative"),
        (["connection", "--vertex", "1", "--n", "1", "--p", "3/2"], "probability-range"),
        (["connection", "--vertex", "1", "--n", "1", "--p=-1/2"], "probability-range"),
        (["connection", "--vertex", "7", "--n", "1"], "vertex-out-of-range"),
        (["connection", "--vertex", "-1", "--n", "1"], "vertex-out-of-range"),
        (["expected", "--n", "-2"], "layer-negative"),
        (["expected", "--n", "1", "--p", "3/2"], "probability-range"),
        (["expected-mono", "--n", "-2"], "layer-negative"),
        (["expected-mono", "--n", "1", "--max-degree", "-2"], "degree-negative"),
        (["verify", "--cap", "-1"], "cap-negative"),
        (["onset", "--cap", "-1"], "cap-negative"),
        (["fit", "--p", "1/2", "--samples", "0"], "samples-invalid"),
        (["mc", "--p", "1/2", "--vertex", "1", "--n", "1", "--samples", "0"], "samples-invalid"),
        (["mc", "--p", "1/2", "--vertex", "1", "--n", "1", "--seed", "-1"], "seed-invalid"),
        (["mc", "--p", "3/2", "--vertex", "1", "--n", "1"], "probability-range"),
        (["mc", "--p", "1/2", "--vertex", "5", "--n", "1"], "target-invalid"),
        (["extremal", "--source", "garbage", "--target", "*,0,1,2"], "pattern-invalid"),
        (["extremal", "--source", "*,1|0", "--target", "*,1|0,2"], "pattern-size"),
        (["extremal", "--source", "*,1|0,2"], "argument-missing"),
        (["extremal", "--target", "*,1|0,2"], "argument-missing"),
        (["states", "--out", str(tmp_path / "missing" / "x.json")], "output-unwritable"),
        (["states", "--out", str(tmp_path)], "output-unwritable"),
    ]
    for argv, code_name in cases:
        code, out, err = run_cli(capsys, argv[0], "--graph", "cycle:3", *argv[1:])
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: [{code_name}] "), err
    for p in ("0", "1"):
        data = run_json(
            capsys, "connection", "--graph", "cycle:2", "--vertex", "1", "--n", "1", "--p", p
        )
        assert data["p"] == p


def _complete_graph_file(directory, k: int) -> str:
    path = directory / f"complete{k}.json"
    path.write_text(json.dumps({"vertices": k, "edges": complete_graph(k).edges}))
    return str(path)


def test_edge_inputs_end_in_coded_errors(capsys, tmp_path):
    mc = ["mc", "--vertex", "0", "--n", "1", "--p"]
    # K7 (28 bonds) and K8 (36) are past the 21-bond guard, rejected before
    # the 2^b configurations of a table or the automorphisms of the graph
    complete = [_complete_graph_file(tmp_path, k) for k in (7, 8)]
    cases = [
        (["states", "--graph", "cycle:²"], "descriptor-invalid"),
        # inside (0, 1), but 1.0 and 0.0 as floats
        (mc + ["99999999999999999999/100000000000000000000", "--graph", "cycle:3"],
         "probability-range"),
        (mc + ["1/1" + "0" * 400, "--graph", "cycle:3"], "probability-range"),
        # beyond the 12-vertex guard, rejected before any layer step
        (["verify", "--graph", "path:13"], "enumeration-guard"),
        (["kernel", "--kind", "lumped", "--graph", "path:13"], "enumeration-guard"),
        (mc + ["1/2", "--graph", "path:13"], "enumeration-guard"),
        # inside both guards, but Bell(11) * 2^20 cells exceed the successor
        # table's cap of 2^31 - 1 cells: rejected before the patterns are listed
        (["kernel", "--kind", "full", "--graph", "cycle:10"], "enumeration-guard"),
        *(
            (argv + ["--graph", graph], "enumeration-guard")
            for graph in complete
            for argv in (["states"], ["verify"], mc + ["1/2"])
        ),
    ]
    for argv, code_name in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: [{code_name}] "), err


def test_origin_override(capsys):
    data = run_json(capsys, "stationary", "--graph", "cycle:3", "--origin", "1")
    entries = dict(zip(data["initial"]["states"], data["initial"]["entries"]))
    assert entries["*,0|1|2"] == []
    assert entries["*,1|0|2"] != []


def test_states_five_cycle_counts(capsys):
    data = run_json(capsys, "states", "--graph", "cycle:5")
    assert data["core_count"] == 42
    assert data["lumped_count"] == 127


def test_verify_cap_exhaustion_is_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "verify", "--graph", "cycle:2", "--cap", "0")
    assert code == 3
    assert json.loads(out)["verdict"] == "inconclusive"
    code, out, _ = run_cli(capsys, "onset", "--graph", "cycle:2", "--cap", "1")
    assert code == 3
    assert json.loads(out)["error"] == "onset-cap-exceeded"


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: layerchain")
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0 and "--cap" in out and "--samples" not in out


def _parses_as_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


_WORDS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_NOT_INT = st.text(min_size=1, max_size=6).filter(lambda t: not _parses_as_int(t))
_WELL_TYPED = {
    "--graph": "cycle:2",
    "--origin": "0",
    "--n": "1",
    "--vertex": "1",
    "--p": "1/2",
    "--samples": "5",
    "--seed": "0",
    "--cap": "4",
    "--source": "*,0|1",
    "--target": "*,0|1",
    "--format": "json",
    "--kind": "open",
    "--max-degree": "3",
}


def _foreign_flag(command: str):
    """A well-typed flag that only other commands read."""
    entry = _COMMANDS[command]
    reads = {"--" + flag.rstrip("!") for flag in entry.flags.split()}
    reads |= {"--" + flag for flag in entry.options}
    foreign = sorted(set(_WELL_TYPED) - reads)
    return st.sampled_from(foreign).map(lambda flag: [command, flag, _WELL_TYPED[flag]])


def _malformed_argv():
    """Command lines that argparse itself rejects, so none runs a command;
    --threads is among them, since certification runs in-process, and so is
    any flag that the command does not read."""
    command = st.sampled_from(sorted(_COMMANDS))
    int_flag = st.sampled_from(("--n", "--vertex", "--samples", "--seed", "--cap", "--origin"))
    return st.one_of(
        st.tuples(command, int_flag, _NOT_INT).map(list),
        st.tuples(command, _WORDS.map(lambda w: "--no-such-" + w)).map(list),
        _WORDS.filter(lambda w: w not in _COMMANDS).map(lambda w: [w, "--graph", "cycle:2"]),
        st.tuples(st.sampled_from(("kernel", "extremal")), _WORDS).map(
            lambda t: [t[0], "--kind", "x" + t[1]]
        ),
        _WORDS.map(lambda w: ["bound", "--format", "x" + w]),
        st.tuples(st.sampled_from(("onset", "verify")), st.integers(-3, 8)).map(
            lambda t: [t[0], "--graph", "cycle:2", "--threads", str(t[1])]
        ),
        command.flatmap(_foreign_flag),
        st.just([]),
    )


@given(_malformed_argv())
def test_malformed_command_lines_are_coded_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 1, argv
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: [argument-invalid] "), err.getvalue()
    assert "Traceback" not in err.getvalue()
