import numpy as np
import pytest

from gfnlab.graphs import DataError, DatasetMeta, Graph
from gfnlab.tu import KNOWN_DATASETS, _read_numbers, parse_tu_dataset

from conftest import write_tu_files


def test_minimal_two_node_dataset(tmp_path):
    d = write_tu_files(tmp_path / "tiny", "tiny",
                       indicator=["1", "1"],
                       edges=["1, 2", "2, 1"],
                       graph_labels=["1"])
    ds = parse_tu_dataset(d, "tiny")
    assert len(ds) == 1
    g = ds.graphs[0]
    assert g.graph.num_nodes == 2
    assert g.graph.edge_count == 1
    assert g.label == 0
    # no node files: all-ones fallback column
    np.testing.assert_array_equal(g.node_features, [[1.0], [1.0]])


def test_two_graphs_with_node_labels(tmp_path):
    d = write_tu_files(tmp_path / "two", "two",
                       indicator=["1", "1", "1", "2", "2"],
                       edges=["1 2", "2 1", "2 3", "3 2", "4 5", "5 4"],
                       graph_labels=["-1", "1"],
                       node_labels=["0", "2", "0", "2", "2"])
    ds = parse_tu_dataset(d, "two")
    assert len(ds) == 2 and ds.num_classes == 2
    assert [g.label for g in ds.graphs] == [0, 1]  # -1/1 remapped by sorted value
    # one-hot over the two observed label values {0, 2}
    assert ds.feature_dim == 2
    np.testing.assert_array_equal(ds.graphs[0].node_features,
                                  [[1, 0], [0, 1], [1, 0]])
    np.testing.assert_array_equal(ds.graphs[1].node_features, [[0, 1], [0, 1]])
    assert ds.graphs[1].graph.edge_count == 1


def test_node_attributes_concatenated_after_labels(tmp_path):
    d = write_tu_files(tmp_path / "attr", "attr",
                       indicator=["1", "1"],
                       edges=["1 2", "2 1"],
                       graph_labels=["5"],
                       node_labels=["1", "1"],
                       node_attributes=["0.5, 1.5", "2.5, 3.5"])
    ds = parse_tu_dataset(d, "attr")
    assert ds.feature_dim == 3  # 1 one-hot column + 2 attribute columns
    np.testing.assert_allclose(ds.graphs[0].node_features,
                               [[1.0, 0.5, 1.5], [1.0, 2.5, 3.5]])


def test_single_direction_edges_are_symmetrized(tmp_path):
    d = write_tu_files(tmp_path / "oneway", "oneway",
                       indicator=["1", "1", "1"],
                       edges=["1 2", "2 3"],
                       graph_labels=["1"])
    ds = parse_tu_dataset(d, "oneway")
    assert ds.graphs[0].graph.edge_count == 2


def test_windows_line_endings_and_blank_lines(tmp_path):
    d = tmp_path / "crlf"
    d.mkdir()
    (d / "crlf_graph_indicator.txt").write_text("1\r\n1\r\n\r\n")
    (d / "crlf_A.txt").write_text("1, 2\r\n2, 1\r\n")
    (d / "crlf_graph_labels.txt").write_text("1\r\n")
    ds = parse_tu_dataset(d, "crlf")
    assert len(ds) == 1 and ds.graphs[0].graph.num_nodes == 2


def test_interleaved_graph_indicator(tmp_path):
    # graph membership need not be contiguous in the node numbering
    d = write_tu_files(tmp_path / "mix", "mix",
                       indicator=["1", "2", "1"],
                       edges=["1 3", "3 1"],
                       graph_labels=["1", "2"],
                       node_labels=["7", "8", "9"])
    ds = parse_tu_dataset(d, "mix")
    assert ds.graphs[0].graph.num_nodes == 2
    assert ds.graphs[1].graph.num_nodes == 1
    assert ds.graphs[0].graph.edge_count == 1
    # node ordering within graph 0 follows file order: global nodes 1 then 3
    np.testing.assert_array_equal(ds.graphs[0].node_features, [[1, 0, 0], [0, 0, 1]])
    np.testing.assert_array_equal(ds.graphs[1].node_features, [[0, 1, 0]])


def _random_tu_files(rng, directory):
    """A random TU layout with an interleaved indicator, non-contiguous graph
    ids, isolated nodes, graphs without edges and edges listed once, twice,
    reversed or repeated, in shuffled order. Returns the directory and, per
    graph in id order, its global node ids (file order), its local edge list
    and its raw label, and the raw node labels."""
    num_graphs = int(rng.integers(1, 7))
    ids = np.sort(rng.choice(np.arange(1, 40), num_graphs, replace=False))
    indicator = rng.permutation(np.repeat(ids, rng.integers(1, 9, num_graphs)))
    node_labels = rng.integers(0, 5, indicator.size)
    graph_labels = rng.integers(-2, 3, num_graphs)
    lines, graphs = [], []
    for gid, label in zip(ids, graph_labels):
        nodes = np.flatnonzero(indicator == gid)
        pairs = rng.integers(0, nodes.size, (int(rng.integers(0, 2 * nodes.size)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        graphs.append((nodes, pairs, label))
        for u, v in nodes[pairs] + 1:
            lines += [[f"{u} {v}"], [f"{v} {u}"], [f"{u} {v}", f"{v} {u}"],
                      [f"{u} {v}"] * 3][int(rng.integers(4))]
    d = write_tu_files(directory, "rnd", indicator=[str(i) for i in indicator],
                       edges=[lines[i] for i in rng.permutation(len(lines))],
                       graph_labels=[str(x) for x in graph_labels],
                       node_labels=[str(x) for x in node_labels])
    return d, graphs, node_labels


def test_each_graph_equals_from_edges_on_its_own_local_edges(tmp_path):
    rng = np.random.default_rng(17)
    for trial in range(40):
        d, graphs, node_labels = _random_tu_files(rng, tmp_path / str(trial))
        ds = parse_tu_dataset(d, "rnd")
        onehot = node_labels[:, None] == np.unique(node_labels)
        classes = np.unique([label for _, _, label in graphs])
        assert len(ds) == len(graphs)
        for parsed, (nodes, edges, label) in zip(ds.graphs, graphs):
            expected = Graph.from_edges(nodes.size, edges)
            assert parsed.graph.num_nodes == nodes.size
            np.testing.assert_array_equal(parsed.graph.indptr, expected.indptr)
            np.testing.assert_array_equal(parsed.graph.indices, expected.indices)
            np.testing.assert_array_equal(parsed.node_features, onehot[nodes])
            assert parsed.label == np.searchsorted(classes, label)


def test_self_loops_warn_once_per_file_with_the_total(tmp_path):
    d = write_tu_files(tmp_path / "loops", "loops",
                       indicator=["1", "2", "1", "2", "2"],
                       edges=["1 3", "1 1", "3 3", "2 4", "5 5", "4 5"],
                       graph_labels=["1", "2"])
    clean = write_tu_files(tmp_path / "clean", "loops",
                           indicator=["1", "2", "1", "2", "2"],
                           edges=["1 3", "2 4", "4 5"],
                           graph_labels=["1", "2"])
    with pytest.warns(UserWarning) as record:
        ds = parse_tu_dataset(d, "loops")
    assert [str(w.message) for w in record] == ["dropping 3 self-loop(s)"]
    for parsed, expected in zip(ds.graphs, parse_tu_dataset(clean, "loops").graphs):
        np.testing.assert_array_equal(parsed.graph.indptr, expected.graph.indptr)
        np.testing.assert_array_equal(parsed.graph.indices, expected.graph.indices)


def test_one_from_edges_call_per_file(tmp_path, monkeypatch):
    calls = []
    build = Graph.from_edges.__func__

    def counting(cls, num_nodes, edges):
        calls.append(num_nodes)
        return build(cls, num_nodes, edges)

    monkeypatch.setattr(Graph, "from_edges", classmethod(counting))
    d, graphs, node_labels = _random_tu_files(np.random.default_rng(3), tmp_path / "one")
    ds = parse_tu_dataset(d, "rnd")
    assert len(ds) == len(graphs) and calls == [node_labels.size]


def _tu_like_text(rng, dtype):
    """Random numbers laid out as a TU file might hold them: one to three per
    line, comma- or space-separated, LF or CRLF, with blank lines and leading
    or trailing whitespace. Returns the text and the numbers' count."""
    if dtype == np.int64:
        values = rng.integers(-10**12, 10**12, int(rng.integers(0, 60)))
        tokens = [("+" if v >= 0 and rng.random() < 0.2 else "") + str(v) for v in values]
    else:
        values = rng.standard_normal(int(rng.integers(0, 60))) * 10.0 ** rng.integers(-8, 9)
        formats = [repr, "{:.6g}".format, "{:e}".format, "{:.17g}".format, "{:.3f}".format]
        tokens = [formats[int(rng.integers(len(formats)))](float(v)) for v in values]
    newline = ["\n", "\r\n"][int(rng.integers(2))]
    lines, i = [], 0
    while i < len(tokens):
        width = int(rng.integers(1, 4))
        sep = [", ", ",", " ", "\t", "  "][int(rng.integers(5))]
        pad = [("", ""), (" ", ""), ("", " "), ("\t", "  ")][int(rng.integers(4))]
        lines.append(pad[0] + sep.join(tokens[i : i + width]) + pad[1])
        lines += [""] * int(rng.integers(0, 2) * rng.integers(1, 3))
        i += width
    lead = ["", newline, " "][int(rng.integers(3))]
    return lead + newline.join(lines) + newline * int(rng.integers(0, 3)), len(tokens)


@pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=["int64", "float64"])
def test_reader_matches_splitting_the_text(tmp_path, dtype):
    rng = np.random.default_rng(23)
    path = tmp_path / "numbers.txt"
    for _ in range(200):
        text, count = _tu_like_text(rng, dtype)
        path.write_bytes(text.encode())
        expected = np.array(text.replace(",", " ").split(), dtype=dtype)
        got = _read_numbers(path, dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape == (count,)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=["int64", "float64"])
@pytest.mark.parametrize("text", ["", "\n", "  \r\n\t\n ", ",", " , \n"],
                         ids=["empty", "newline", "whitespace", "comma", "commas-and-spaces"])
def test_reader_gives_empty_for_a_file_without_numbers(tmp_path, dtype, text):
    path = tmp_path / "blank.txt"
    path.write_bytes(text.encode())
    got = _read_numbers(path, dtype)
    assert got.dtype == dtype and got.shape == (0,)


def test_reader_keeps_the_int64_limits(tmp_path):
    path = tmp_path / "limits.txt"
    path.write_text("9223372036854775807\n-9223372036854775808\n+9223372036854775807\n")
    got = _read_numbers(path, np.int64)
    np.testing.assert_array_equal(got, [2**63 - 1, -(2**63), 2**63 - 1])


@pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=["int64", "float64"])
def test_reader_refuses_what_splitting_refuses(tmp_path, dtype):
    """Short random strings of digits, signs, separators, '.', 'e' and
    numbers at and beyond the int64 limits: the reader gives the same array
    as splitting the text, or a DataError wherever that raises."""
    rng = np.random.default_rng(31)
    alphabet = list(" \n\r\t\x0b\x0c,-+0123456789.e") + [
        "99999999999999999999", "9223372036854775807", "-9223372036854775808"]
    path = tmp_path / "fuzz.txt"
    for _ in range(1500):
        text = "".join(rng.choice(alphabet, int(rng.integers(0, 10))))
        path.write_bytes(text.encode())
        try:
            expected = np.array(text.replace(",", " ").split(), dtype=dtype)
        except (ValueError, OverflowError):
            with pytest.raises(DataError):
                _read_numbers(path, dtype)
        else:
            assert _read_numbers(path, dtype).tobytes() == expected.tobytes()


@pytest.mark.parametrize("text", ["1 - 2", "3 -", "- 3", "1 + 2", "4 +\n"])
def test_reader_refuses_a_sign_without_digits(tmp_path, text):
    path = tmp_path / "signs.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="signs.txt contains non-numeric data"):
        _read_numbers(path, np.int64)
    with pytest.raises(DataError, match="signs.txt contains non-numeric data"):
        _read_numbers(path, np.float64)


FILE_PARTS = {  # which TU file carries the bad token, and the other files' content
    "graph_labels": dict(indicator=["1", "1"], edges=["1 2"], graph_labels=["{}"]),
    "A": dict(indicator=["1", "1"], edges=["1 2", "2 {}"], graph_labels=["1"]),
    "node_labels": dict(indicator=["1", "1"], edges=["1 2"], graph_labels=["1"],
                        node_labels=["0", "{}"]),
    "graph_indicator": dict(indicator=["1", "{}"], edges=["1 2"], graph_labels=["1"]),
}


def _tu_files_with(directory, part, token):
    return write_tu_files(directory, "big", **{
        key: [line.replace("{}", token) for line in lines]
        for key, lines in FILE_PARTS[part].items()})


@pytest.mark.parametrize("part", FILE_PARTS)
@pytest.mark.parametrize("token", ["99999999999999999999", "-99999999999999999999",
                                   "9223372036854775808", "-9223372036854775809"])
def test_integer_outside_int64_is_a_data_error(tmp_path, part, token):
    d = _tu_files_with(tmp_path / "big", part, token)
    with pytest.raises(DataError, match=f"big_{part}.txt contains an integer outside int64"):
        parse_tu_dataset(d, "big")


@pytest.mark.parametrize("part", FILE_PARTS)
def test_non_utf8_byte_is_non_numeric_data(tmp_path, part):
    d = _tu_files_with(tmp_path / "raw", part, "0")
    path = d / f"big_{part}.txt"
    path.write_bytes(path.read_bytes().replace(b"0", b"\xff"))
    with pytest.raises(DataError, match=f"big_{part}.txt contains non-numeric data"):
        parse_tu_dataset(d, "big")


def test_grouped_graphs_view_one_feature_matrix(tmp_path):
    rng = np.random.default_rng(5)
    for i, node_files in enumerate([{}, {"node_labels": [str(x) for x in rng.integers(0, 4, 9)]},
                                    {"node_attributes": [f"{x:.3f}" for x in rng.random(9)]}]):
        d = write_tu_files(tmp_path / str(i), "grp",
                           indicator=["1", "1", "1", "2", "2", "4", "4", "4", "4"],
                           edges=["1 2", "2 3", "4 5", "6 9"], graph_labels=["1", "2", "1"],
                           **node_files)
        graphs = parse_tu_dataset(d, "grp").graphs
        base = graphs[0].node_features.base
        assert base is not None
        assert all(g.node_features.base is base and np.shares_memory(base, g.node_features)
                   for g in graphs)
        assert sum(g.node_features.shape[0] for g in graphs) == 9


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing required file"):
            parse_tu_dataset(tmp_path, "nope")

    def test_non_numeric_data(self, tmp_path):
        d = write_tu_files(tmp_path / "bad", "bad", ["1", "x"], ["1 2"], ["1"])
        with pytest.raises(DataError, match="non-numeric"):
            parse_tu_dataset(d, "bad")

    def test_odd_edge_index_count(self, tmp_path):
        d = write_tu_files(tmp_path / "odd", "odd", ["1", "1"], ["1 2 2"], ["1"])
        with pytest.raises(DataError, match="even number"):
            parse_tu_dataset(d, "odd")

    def test_edge_outside_node_range(self, tmp_path):
        d = write_tu_files(tmp_path / "oob", "oob", ["1", "1"], ["1 9", "9 1"], ["1"])
        with pytest.raises(DataError, match="outside"):
            parse_tu_dataset(d, "oob")

    def test_cross_graph_edge(self, tmp_path):
        d = write_tu_files(tmp_path / "cross", "cross",
                           ["1", "1", "2"], ["2 3", "3 2"], ["1", "2"])
        with pytest.raises(DataError, match="between two graphs"):
            parse_tu_dataset(d, "cross")

    def test_label_count_mismatch(self, tmp_path):
        d = write_tu_files(tmp_path / "lbl", "lbl",
                           ["1", "1", "2"], ["1 2", "2 1"], ["1"])
        with pytest.raises(DataError, match="graph labels"):
            parse_tu_dataset(d, "lbl")

    def test_node_label_count_mismatch(self, tmp_path):
        d = write_tu_files(tmp_path / "nl", "nl", ["1", "1"], ["1 2", "2 1"], ["1"],
                           node_labels=["1"])
        with pytest.raises(DataError, match="node_labels"):
            parse_tu_dataset(d, "nl")

    def test_attribute_rows_must_divide(self, tmp_path):
        d = write_tu_files(tmp_path / "at", "at", ["1", "1"], ["1 2", "2 1"], ["1"],
                           node_attributes=["0.5 0.5 0.5"])
        with pytest.raises(DataError, match="divide"):
            parse_tu_dataset(d, "at")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_attribute(self, tmp_path, value):
        d = write_tu_files(tmp_path / "nf", "nf", ["1", "1"], ["1 2", "2 1"], ["1"],
                           node_attributes=["0.5, 1.5", f"2.5, {value}"])
        with pytest.raises(DataError, match="^nf_node_attributes.txt contains a non-finite value$"):
            parse_tu_dataset(d, "nf")

    def test_meta_mismatch(self, tmp_path):
        d = write_tu_files(tmp_path / "m", "m", ["1", "1"], ["1 2", "2 1"], ["1"])
        with pytest.raises(DataError, match="^m: expected 50 graphs, parsed 1$"):
            parse_tu_dataset(d, "m", meta=DatasetMeta(expected_graph_count=50))

    @pytest.mark.parametrize("meta, message", [
        (DatasetMeta(expected_class_count=2), "m: expected 2 classes, parsed 1"),
        (DatasetMeta(expected_feature_dim=3), "m: expected feature_dim 3, parsed 1"),
    ], ids=["classes", "feature_dim"])
    def test_class_and_feature_count_mismatch(self, tmp_path, meta, message):
        d = write_tu_files(tmp_path / "m", "m", ["1", "1"], ["1 2", "2 1"], ["1"])
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_tu_dataset(d, "m", meta=meta)


def test_known_dataset_registry_shapes():
    # registry anchors used to validate real downloads
    assert KNOWN_DATASETS["MUTAG"].expected_graph_count == 188
    assert KNOWN_DATASETS["MUTAG"].expected_class_count == 2
    assert KNOWN_DATASETS["MUTAG"].expected_feature_dim == 7
    assert KNOWN_DATASETS["ENZYMES"].expected_graph_count == 600
    assert KNOWN_DATASETS["ENZYMES"].expected_class_count == 6
    assert KNOWN_DATASETS["IMDB-BINARY"].expected_graph_count == 1000
