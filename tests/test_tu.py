import numpy as np
import pytest

from gfnlab.graphs import DataError, DatasetMeta
from gfnlab.tu import KNOWN_DATASETS, parse_tu_dataset

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
