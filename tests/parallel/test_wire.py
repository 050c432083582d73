"""Wire format: faithful round-trips and malformed-input rejection."""

import struct
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import canonical_signature
from repro.core.regularize import regularize
from repro.graph.bipartite import BipartiteGraph, EdgeKind, NodeKind
from repro.parallel.wire import MAX_NEXT_EDGE_ID, decode_graph, encode_graph
from repro.util.errors import GraphError
from tests.conftest import bipartite_graphs, raw_state


def graph_state(g: BipartiteGraph) -> tuple:
    """Everything the schedulers can observe about a graph."""
    return (
        sorted(g.left_nodes()),
        sorted(g.right_nodes()),
        [(n, g.left_node_kind(n)) for n in sorted(g.left_nodes())],
        [(n, g.right_node_kind(n)) for n in sorted(g.right_nodes())],
        sorted(
            (e.id, e.left, e.right, e.weight, type(e.weight), e.kind)
            for e in g.edges()
        ),
        g._next_edge_id,
    )


class TestRoundTrip:
    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_int_graphs(self, g):
        decoded = decode_graph(encode_graph(g))
        assert graph_state(decoded) == graph_state(g)
        assert raw_state(decoded) == raw_state(g)

    @given(bipartite_graphs(integer_weights=False))
    @settings(max_examples=40, deadline=None)
    def test_random_float_graphs(self, g):
        decoded = decode_graph(encode_graph(g))
        assert graph_state(decoded) == graph_state(g)
        assert raw_state(decoded) == raw_state(g)

    def test_mixed_weight_types(self):
        g = BipartiteGraph.from_edges([(0, 0, 3), (0, 1, 2.5), (1, 1, 7)])
        g2 = decode_graph(encode_graph(g))
        assert graph_state(g2) == graph_state(g)
        weights = {e.weight for e in g2.edges()}
        assert weights == {3, 2.5, 7}
        assert {type(w) for w in weights} == {int, float}

    def test_edge_id_gaps_survive(self):
        g = BipartiteGraph.from_edges([(0, 0, 4), (0, 1, 2), (1, 1, 3)])
        g.remove_edge(1)
        g2 = decode_graph(encode_graph(g))
        assert graph_state(g2) == graph_state(g)
        assert not g2.has_edge_id(1)
        # New edges keep allocating past the old high-water mark.
        assert g2._next_edge_id == g._next_edge_id

    def test_filler_kinds_survive(self):
        g = BipartiteGraph.from_edges([(0, 0, 4), (1, 1, 2)])
        result = regularize(g, k=2)
        reg = result.graph
        kinds = {e.kind for e in reg.edges()}
        assert EdgeKind.ORIGINAL in kinds  # sanity: regularize kept them
        assert graph_state(decode_graph(encode_graph(reg))) == graph_state(reg)

    def test_isolated_nodes_survive(self):
        g = BipartiteGraph.from_edges([(0, 0, 1)])
        g.add_left_node(5, NodeKind.PADDING)
        g.add_right_node(9, NodeKind.FILLER)
        g2 = decode_graph(encode_graph(g))
        assert graph_state(g2) == graph_state(g)
        assert g2.left_node_kind(5) is NodeKind.PADDING
        assert g2.right_node_kind(9) is NodeKind.FILLER

    def test_empty_graph(self):
        g = BipartiteGraph()
        assert graph_state(decode_graph(encode_graph(g))) == graph_state(g)

    @given(bipartite_graphs())
    @settings(max_examples=20, deadline=None)
    def test_signature_preserved(self, g):
        assert canonical_signature(decode_graph(encode_graph(g))) == (
            canonical_signature(g)
        )


class TestMalformedInput:
    def test_bad_magic(self):
        with pytest.raises(GraphError, match="not a KPBW"):
            decode_graph(b"NOPE" + b"\x00" * 64)

    def test_truncated(self):
        data = encode_graph(BipartiteGraph.from_edges([(0, 0, 1)]))
        with pytest.raises(GraphError):
            decode_graph(data[:10])

    def test_trailing_bytes(self):
        data = encode_graph(BipartiteGraph.from_edges([(0, 0, 1)]))
        with pytest.raises(GraphError, match="trailing"):
            decode_graph(data + b"\x00")

    def test_bad_version(self):
        data = bytearray(encode_graph(BipartiteGraph.from_edges([(0, 0, 1)])))
        data[4] = 99
        with pytest.raises(GraphError, match="version"):
            decode_graph(bytes(data))

    def test_mixed_int_beyond_f64_rejected(self):
        g = BipartiteGraph.from_edges([(0, 0, 2**60), (0, 1, 0.5)])
        with pytest.raises(GraphError, match="exact"):
            encode_graph(g)

    def test_huge_pure_int_weights_ok(self):
        g = BipartiteGraph.from_edges([(0, 0, 2**60), (0, 1, 3)])
        g2 = decode_graph(encode_graph(g))
        assert sorted(e.weight for e in g2.edges()) == [3, 2**60]


def _reference_message() -> bytes:
    g = BipartiteGraph.from_edges(
        [(0, 0, 3), (0, 1, 7), (1, 0, 2), (1, 1, 5), (2, 2, 11)]
    )
    return encode_graph(g)


class TestCorruptionFuzz:
    """Corrupted payloads always raise GraphError — never struct.error,
    IndexError, or a silently-wrong graph."""

    def _expect_rejection_or_identity(self, mutated: bytes) -> None:
        reference = graph_state(decode_graph(_reference_message()))
        try:
            decoded = decode_graph(mutated)
        except GraphError:
            return  # rejected: good
        # The only acceptable non-rejection is a graph identical to the
        # original (mutation landed on bytes that don't matter — with a
        # CRC in place this should never happen, but the property is
        # "never silently wrong", so check it rather than assume).
        assert graph_state(decoded) == reference

    @given(st.integers(min_value=0, max_value=len(_reference_message()) - 1))
    @settings(max_examples=200, deadline=None)
    def test_truncation_any_length(self, cut):
        with pytest.raises(GraphError):
            decode_graph(_reference_message()[:cut])

    @given(
        st.integers(min_value=0, max_value=len(_reference_message()) - 1),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_bit_flip(self, index, bit):
        data = bytearray(_reference_message())
        data[index] ^= 1 << bit
        with pytest.raises(GraphError):
            decode_graph(bytes(data))

    @given(
        st.integers(min_value=0, max_value=len(_reference_message()) - 1),
        st.binary(min_size=1, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_splice(self, index, junk):
        data = bytearray(_reference_message())
        data[index : index + len(junk)] = junk
        self._expect_rejection_or_identity(bytes(data))

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_length_extension(self, extra):
        with pytest.raises(GraphError):
            decode_graph(_reference_message() + b"\x00" * extra)

    @given(st.binary(min_size=0, max_size=128))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, junk):
        with pytest.raises(GraphError):
            decode_graph(junk)

    @given(st.binary(min_size=0, max_size=96))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_with_magic(self, junk):
        with pytest.raises(GraphError):
            decode_graph(b"KPBW" + junk)

    def test_header_count_mismatch(self):
        # Inflate num_edges without adding payload: length check fires
        # before any array is sliced.
        import struct

        data = bytearray(_reference_message())
        (n_edges,) = struct.unpack_from("<Q", data, 28)
        struct.pack_into("<Q", data, 28, n_edges + 1)
        with pytest.raises(GraphError):
            decode_graph(bytes(data))

    def test_unknown_flags_rejected(self):
        data = bytearray(_reference_message())
        data[5] |= 0x80
        with pytest.raises(GraphError):
            decode_graph(bytes(data))

    def test_checksum_protects_weights(self):
        # Flip a weight byte and fix nothing else: CRC catches it even
        # though the length and structure still parse.
        data = bytearray(_reference_message())
        data[-1] ^= 0xFF
        with pytest.raises(GraphError, match="checksum"):
            decode_graph(bytes(data))


def _signed(
    left=(0,), right=(0,), ids=(0,), lefts=(0,), rights=(0,), weights=(1,),
    *, left_kinds=None, right_kinds=None, edge_kinds=None, next_edge_id=None,
    flags=1, mask=b"",
) -> bytes:
    """A KPBW v2 message with a valid CRC, built field by field from the
    documented layout, so any field can hold any value."""
    header = struct.Struct("<4sBBxxI4Q")
    if next_edge_id is None:
        next_edge_id = max(ids, default=-1) + 1
    body = b"".join([
        array("q", left).tobytes(),
        bytes(left_kinds or [0] * len(left)),
        array("q", right).tobytes(),
        bytes(right_kinds or [0] * len(right)),
        array("q", ids).tobytes(),
        array("q", lefts).tobytes(),
        array("q", rights).tobytes(),
        bytes(edge_kinds or [0] * len(ids)),
        array("q" if flags & 1 else "d", weights).tobytes(),
        mask,
    ])
    counts = (len(left), len(right), len(ids), next_edge_id)
    crc = zlib.crc32(header.pack(b"KPBW", 2, flags, 0, *counts) + body)
    return header.pack(b"KPBW", 2, flags, crc, *counts) + body


#: Messages whose CRC and lengths are valid but whose content no graph
#: can hold, with the error each must raise.
CRAFTED = [
    pytest.param({"weights": (0,)}, "edge 0 has non-positive wire weight",
                 id="zero-weight"),
    pytest.param({"weights": (-3,)}, "edge 0 has non-positive wire weight",
                 id="negative-weight"),
    pytest.param({"weights": (float("nan"),), "flags": 0},
                 "edge 0 has non-finite wire weight", id="nan-weight"),
    pytest.param({"weights": (float("inf"),), "flags": 0},
                 "edge 0 has non-finite wire weight", id="inf-weight"),
    pytest.param({"edge_kinds": [3]}, "invalid edge kind byte 3",
                 id="bad-edge-kind"),
    pytest.param({"left_kinds": [9]}, "invalid left node kind byte 9",
                 id="bad-node-kind"),
    pytest.param({"ids": (1, 0), "lefts": (0, 0), "rights": (0, 0),
                  "weights": (1, 1)},
                 "not strictly ascending", id="descending-ids"),
    pytest.param({"ids": (2, 2), "lefts": (0, 0), "rights": (0, 0),
                  "weights": (1, 1)},
                 "not strictly ascending", id="repeated-id"),
    pytest.param({"ids": (0, 5), "lefts": (0, 0), "rights": (0, 0),
                  "weights": (1, 1), "next_edge_id": 5},
                 "does not clear the highest edge id 5", id="next-id-too-low"),
    pytest.param({"lefts": (9,)}, "inconsistent", id="dangling-left"),
    pytest.param({"rights": (9,)}, "inconsistent", id="dangling-right"),
    pytest.param({"left": (0, 0)}, "repeats a left node id",
                 id="repeated-left-node"),
    pytest.param({"right": (0, 0)}, "repeats a right node id",
                 id="repeated-right-node"),
    pytest.param({"ids": (-1,), "next_edge_id": 0}, "edge id -1 is negative",
                 id="negative-edge-id"),
    pytest.param({"next_edge_id": MAX_NEXT_EDGE_ID + 1},
                 "exceeds the wire-format limit", id="next-id-over-limit"),
    pytest.param({"weights": (float("nan"),), "flags": 2, "mask": b"\x01"},
                 "edge 0 has non-finite wire weight", id="nan-marked-int"),
    pytest.param({"weights": (2.5,), "flags": 2, "mask": b"\x01"},
                 "fractional", id="fraction-marked-int"),
    pytest.param({"ids": (0, 1, 2), "lefts": (0, 0, 0), "rights": (0, 0, 0),
                  "weights": (1e308, 1e308, 0.5), "flags": 2,
                  "mask": b"\x01\x01\x00"},
                 "beyond exact f64 range", id="huge-int-marked-mixed"),
    pytest.param({"weights": (2.0**53 + 2,), "flags": 2, "mask": b"\x01"},
                 "beyond exact f64 range", id="int-marked-over-2**53"),
]


class TestCraftedMessages:
    def test_builder_matches_the_encoder(self):
        g = BipartiteGraph.from_edges([(0, 0, 3), (0, 1, 7), (1, 1, 2)])
        assert _signed(
            left=(0, 1), right=(0, 1), ids=(0, 1, 2), lefts=(0, 0, 1),
            rights=(0, 1, 1), weights=(3, 7, 2),
        ) == encode_graph(g)

    @pytest.mark.parametrize("fields, message", CRAFTED)
    def test_rejected_with_graph_error(self, fields, message):
        with pytest.raises(GraphError, match=message):
            decode_graph(_signed(**fields))

    def test_int_marked_weight_at_the_exact_limit_decodes(self):
        g = BipartiteGraph.from_edges([(0, 0, 2**53), (0, 1, 0.5)])
        decoded = decode_graph(encode_graph(g))
        assert raw_state(decoded) == raw_state(g)
        assert type(decoded.edge_weight(0)) is int

    def test_next_edge_id_at_the_limit_decodes(self):
        g = decode_graph(_signed(next_edge_id=MAX_NEXT_EDGE_ID))
        assert g._next_edge_id == MAX_NEXT_EDGE_ID
        assert g.edge_ids() == [0]

    def test_encoder_refuses_what_the_decoder_rejects(self):
        g = BipartiteGraph.from_edges([(0, 0, 1)])
        g._next_edge_id = MAX_NEXT_EDGE_ID + 1
        with pytest.raises(GraphError, match="limit"):
            encode_graph(g)
        g = BipartiteGraph.from_edges([(0, 0, 1)])
        g._live = {-1: None}
        with pytest.raises(GraphError, match="negative"):
            encode_graph(g)
