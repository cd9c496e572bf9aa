"""Topology construction: shapes, sampling, repair, export format."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifset.errors import (DataError, DivisibilityError, EmptyNetworkError,
                             TopologyFormatError)
from motifset.topology import (
    ER_MODE,
    FIXED_MODE,
    BlockDensitySpec,
    MotifTopology,
    blocks,
    build_topology,
    export_topology,
    parse_topology,
)

from oracles import active_block_count, expand_mask, parse_topology_reference


class TestDensitySpec:
    def test_fixed_density_is_itself(self):
        spec = BlockDensitySpec(FIXED_MODE, 0.4)
        assert spec.target_density(10, 20) == 0.4

    def test_erdos_renyi_formula(self):
        # eps * (r + c) / (r * c), capped at 1
        spec = BlockDensitySpec(ER_MODE, 2.0)
        assert spec.target_density(4, 4) == pytest.approx(2.0 * 8 / 16)
        assert spec.target_density(2, 2) == 1.0  # 2*4/4 = 2, capped

    @pytest.mark.parametrize("mode,value", [
        ("fixed_density", 0.0), ("fixed_density", -0.5),
        ("fixed_density", 1.5), ("erdos_renyi_set", 0.0),
        ("nonsense", 0.5),
    ])
    def test_invalid_specs_rejected(self, mode, value):
        with pytest.raises(ValueError):
            BlockDensitySpec(mode, value)


class TestBuildShapes:
    def test_motif1_full_density_is_dense(self):
        topo = build_topology([4, 4], 1, BlockDensitySpec(FIXED_MODE, 1.0))
        assert topo.block_masks[0].shape == (4, 4)
        assert active_block_count(topo) == [16]
        assert topo.block_masks[0].all()

    def test_motif2_blocks_quarter_the_grid(self):
        # a 4x4 hidden-facing layer at m=2 collapses to a 2x2 block grid
        topo = build_topology([4, 4, 4], 2, BlockDensitySpec(FIXED_MODE, 1.0))
        assert topo.block_masks[0].shape == (2, 2)
        assert active_block_count(topo)[0] == 4

    def test_output_layer_always_neuron_granularity(self):
        topo = build_topology([8, 8, 10], 4, BlockDensitySpec(FIXED_MODE, 1.0))
        assert topo.tile(0) == 4
        assert topo.tile(1) == 1
        assert topo.block_masks[-1].shape == (8, 10)

    def test_tile_index_wraps_like_a_sequence(self):
        topo = build_topology([8, 16, 8, 10], 4,
                              BlockDensitySpec(FIXED_MODE, 1.0))
        assert [topo.tile(i) for i in (-3, -2, -1)] == [4, 4, 1]
        with pytest.raises(IndexError):
            topo.tile(3)

    def test_paper_scale_shapes(self):
        topo = build_topology([784, 3000, 3000, 3000, 10], 2,
                              BlockDensitySpec(ER_MODE, 5.0), seed=1)
        shapes = [m.shape for m in topo.block_masks]
        assert shapes == [(392, 1500), (1500, 1500), (1500, 1500), (3000, 10)]

    def test_class_count_need_not_divide(self):
        # output width 10 with m=4 is fine; hidden widths must divide
        build_topology([8, 8, 10], 4, BlockDensitySpec(FIXED_MODE, 0.5))

    @pytest.mark.parametrize("sizes", [[5, 4], [4, 6, 4], [6, 4, 4]])
    def test_divisibility_enforced(self, sizes):
        with pytest.raises(DivisibilityError):
            build_topology(sizes, 4, BlockDensitySpec(FIXED_MODE, 0.5))

    def test_single_size_rejected(self):
        with pytest.raises(EmptyNetworkError):
            build_topology([4], 1, BlockDensitySpec(FIXED_MODE, 0.5))

    def test_masks_are_read_only(self):
        topo = build_topology([4, 4], 1, BlockDensitySpec(FIXED_MODE, 0.5))
        with pytest.raises(ValueError):
            topo.block_masks[0][0, 0] = True

    def test_copy_mutable_detaches(self):
        topo = build_topology([4, 4], 1, BlockDensitySpec(FIXED_MODE, 0.5))
        copy = topo.copy_mutable()
        before = topo.block_masks[0].copy()
        copy.block_masks[0][:] = True
        assert (topo.block_masks[0] == before).all()


class TestSampling:
    def test_exact_count_sampling(self):
        # achieved count equals round(p * total) before repair
        topo = build_topology([20, 20], 1, BlockDensitySpec(FIXED_MODE, 0.3),
                              seed=3)
        # repair can only add blocks into empty columns; with 120 active
        # out of 400 an empty column is possible, so check a lower bound
        # and the exact value when no column needed repair
        count = active_block_count(topo)[0]
        assert count >= round(0.3 * 400)

    def test_density_within_ten_percent_at_scale(self):
        for seed in range(5):
            topo = build_topology([100, 100], 1,
                                  BlockDensitySpec(FIXED_MODE, 0.1), seed=seed)
            achieved = active_block_count(topo)[0] / (100 * 100)
            assert abs(achieved - 0.1) / 0.1 <= 0.1

    def test_mean_density_converges_over_100_seeds(self):
        target = 0.1
        densities = []
        for seed in range(100):
            topo = build_topology([100, 100], 1,
                                  BlockDensitySpec(FIXED_MODE, target),
                                  seed=seed)
            densities.append(active_block_count(topo)[0] / 10000)
        assert abs(np.mean(densities) - target) <= 0.01

    def test_deterministic_per_seed(self):
        a = build_topology([8, 8, 4], 2, BlockDensitySpec(ER_MODE, 1.5),
                           seed=7)
        b = build_topology([8, 8, 4], 2, BlockDensitySpec(ER_MODE, 1.5),
                           seed=7)
        for ma, mb in zip(a.block_masks, b.block_masks):
            assert (ma == mb).all()
        c = build_topology([8, 8, 4], 2, BlockDensitySpec(ER_MODE, 1.5),
                           seed=8)
        assert any((ma != mc).any()
                   for ma, mc in zip(a.block_masks, c.block_masks))

    def test_sampling_procedure_reproduced_independently(self):
        """Re-run the documented sampling recipe by hand and compare, on
        layers that need the empty-column repair and layers that do not."""
        repaired = 0
        for sizes, m, spec, seed in (
                ((6, 4), 2, BlockDensitySpec(FIXED_MODE, 0.5), 11),
                ((12, 8, 6, 3), 2, BlockDensitySpec(ER_MODE, 0.5), 3),
                ((40, 30, 10), 1, BlockDensitySpec(FIXED_MODE, 0.03), 5)):
            topo = build_topology(sizes, m, spec, seed=seed)
            for i, mask in enumerate(topo.block_masks):
                # the final weight layer is stored at tile 1
                tile = 1 if i == len(sizes) - 2 else m
                rows, cols = sizes[i] // tile, sizes[i + 1] // tile
                rng = np.random.default_rng((seed, i))
                k = round(spec.target_density(rows, cols) * rows * cols)
                expected = np.zeros((rows, cols), dtype=bool)
                expected.flat[rng.choice(rows * cols, size=k,
                                         replace=False)] = True
                for col in np.flatnonzero(~expected.any(axis=0)):
                    expected[rng.integers(rows), col] = True
                    repaired += 1
                assert (mask == expected).all()
        assert repaired

    def test_every_output_column_reachable(self):
        # near-empty sampling still leaves no dead output column
        for seed in range(20):
            topo = build_topology([16, 8, 8], 2,
                                  BlockDensitySpec(ER_MODE, 0.1),
                                  seed=seed)
            for mask in topo.block_masks:
                assert mask.any(axis=0).all()


class TestExpandMask:
    def test_motif1_identity(self):
        topo = build_topology([4, 4], 1, BlockDensitySpec(FIXED_MODE, 0.5),
                              seed=2)
        assert (expand_mask(topo, 0) == topo.block_masks[0]).all()

    def test_single_block_tile(self):
        masks = (np.array([[True]]), np.ones((2, 3), dtype=bool))
        topo = MotifTopology((2, 2, 3), 2, masks)
        expanded = expand_mask(topo, 0)
        assert expanded.shape == (2, 2)
        assert expanded.all()

    def test_popcount_scales_by_tile_area(self):
        topo = build_topology([8, 8, 4], 2, BlockDensitySpec(FIXED_MODE, 0.5),
                              seed=5)
        blocks = int(topo.block_masks[0].sum())
        assert int(expand_mask(topo, 0).sum()) == blocks * 4


class TestBlocks:
    def test_tile_of_block_and_write_through(self):
        a = np.arange(24.0).reshape(4, 6)
        view = blocks(a, 2)
        assert view.shape == (2, 2, 3, 2)
        np.testing.assert_array_equal(view[1, :, 2, :], a[2:4, 4:6])
        view[0, :, 1, :] = -1.0
        assert (a[0:2, 2:4] == -1.0).all() and (a < 0).sum() == 4

    def test_non_contiguous_rejected(self):
        # a reshape of a strided array would copy, losing every write
        with pytest.raises(ValueError):
            blocks(np.zeros((4, 6)).T, 2)


class TestTextFormat:
    def test_header_and_layer_lines(self):
        topo = build_topology([4, 4, 4], 2, BlockDensitySpec(FIXED_MODE, 1.0))
        text = export_topology(topo)
        lines = text.splitlines()
        assert lines[0] == "motif-topology v1"
        assert lines[1] == "layer 0 2 2 2"
        # 4 block lines, then the final layer at tile 1
        assert lines[6] == "layer 1 4 4 1"

    def test_round_trip_bit_exact(self):
        topo = build_topology([8, 8, 6], 2, BlockDensitySpec(ER_MODE, 2.0),
                              seed=13)
        back = parse_topology(export_topology(topo))
        assert back.layer_sizes == topo.layer_sizes
        assert back.motif_size == topo.motif_size
        for ma, mb in zip(topo.block_masks, back.block_masks):
            assert (ma == mb).all()

    def test_row_major_block_order(self):
        topo = build_topology([4, 4], 1, BlockDensitySpec(FIXED_MODE, 1.0))
        body = export_topology(topo).splitlines()[2:]
        pairs = [tuple(int(v) for v in ln.split()) for ln in body]
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("sizes,m,density", [
        ((8, 8, 6), 2, 0.3), ((12, 24, 12, 5), 4, 0.2),
        ((30, 40, 3), 1, 0.05), ((4, 4), 1, 1.0)])
    def test_text_is_one_line_per_block(self, sizes, m, density):
        # sparse grids leave block rows empty; those get no line
        topo = build_topology(sizes, m, BlockDensitySpec(FIXED_MODE, density),
                              seed=7)
        lines = ["motif-topology v1"]
        for i, mask in enumerate(topo.block_masks):
            rows, cols = mask.shape
            lines.append(f"layer {i} {rows} {cols} {topo.tile(i)}")
            lines += [f"{r} {c}" for r in range(rows) for c in range(cols)
                      if mask[r, c]]
        assert export_topology(topo) == "\n".join(lines) + "\n"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_topology("not a topology\n")

    def test_parse_errors_are_typed(self):
        with pytest.raises(TopologyFormatError) as caught:
            parse_topology("not a topology\n")
        assert isinstance(caught.value, DataError)

    def test_parse_takes_bytes(self):
        topo = build_topology([8, 8, 6], 2, BlockDensitySpec(FIXED_MODE, 0.5),
                              seed=3)
        text = export_topology(topo)
        back = parse_topology(text.encode())
        for ma, mb in zip(topo.block_masks, back.block_masks):
            assert (ma == mb).all()

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\n\n", 2),       # blank line
        lambda t: t.replace("\n0 ", "\n 0 ", 1),     # leading space
        lambda t: t.replace("\n", " \n", 3),         # trailing space
        lambda t: t.replace("\n0 ", "\n0  ", 2),     # repeated space
        lambda t: t.replace("\n0 ", "\n0\t", 2),     # tab
        lambda t: t.replace("\n", "\r\n"),           # CRLF line ends
        lambda t: t.replace("\n0 ", "\n+0 ", 1),     # plus sign
        lambda t: t.replace("\n10 ", "\n1_0 ", 1),   # digit separator
        lambda t: t.replace("\n1 ", "\n\u0661 ", 1),  # Arabic-Indic one
        lambda t: t[:-1],                            # no final newline
        lambda t: "\n" + t,                          # leading blank line
    ], ids=["blank-line", "leading-space", "trailing-space", "double-space",
            "tab", "crlf", "plus", "underscore", "non-ascii-digit",
            "no-final-newline", "leading-newline"])
    def test_lenient_spellings_rejected(self, edit):
        # the line-by-line reference reads these through str.split and
        # int; the parser takes only the text export_topology writes
        topo = build_topology([24, 24, 5], 2,
                              BlockDensitySpec(FIXED_MODE, 0.5), seed=5)
        text = export_topology(topo)
        edited = edit(text)
        assert edited != text
        sizes, m, masks = parse_topology_reference(edited)
        assert sizes == topo.layer_sizes
        for ma, mb in zip(topo.block_masks, masks):
            assert (ma == mb).all()
        with pytest.raises(TopologyFormatError):
            parse_topology(edited)

    @pytest.mark.parametrize("body", ["0 1\n2", "0 1\n2\n", " 1\n",
                                      "1 \n", "0 1\n 1\n", "1 2 3\n",
                                      "1\n2 3\n", "-1 0\n"])
    def test_malformed_block_lines_rejected(self, body):
        text = "motif-topology v1\nlayer 0 4 4 1\n" + body
        with pytest.raises(ValueError):
            parse_topology_reference(text)
        with pytest.raises(TopologyFormatError, match="block line"):
            parse_topology(text)

    @pytest.mark.parametrize("line", ["99999999999999999999 0",
                                      "0 99999999999999999999", "12 0",
                                      "0 12"])
    def test_block_beyond_grid_rejected(self, line):
        # numbers too large for int64 saturate, so they are out of range too
        text = "motif-topology v1\nlayer 0 12 12 1\n" + line + "\n"
        with pytest.raises(TopologyFormatError, match="outside the 12 x 12"):
            parse_topology(text)


CANONICAL = re.compile(rb"motif-topology v1\n(?:layer [0-9]+ [0-9]+ [0-9]+ "
                       rb"[0-9]+\n|[0-9]+ [0-9]+\n)*")


def _reference_parse(data: bytes):
    """``(layer_sizes, motif_size, masks)`` per the scalar reference, or
    None when it, or the topology its parts describe, is rejected."""
    try:
        sizes, m, masks = parse_topology_reference(data.decode())
        MotifTopology(sizes, m, tuple(masks))
    except (ValueError, DivisibilityError, EmptyNetworkError):
        return None
    return sizes, m, masks


@st.composite
def mutated_texts(draw):
    """An exported topology with a few flipped, replaced or deleted bytes,
    dropped or duplicated lines and inserted whitespace."""
    sizes, m, density, seed = draw(topology_cases())
    data = export_topology(build_topology(
        sizes, m, BlockDensitySpec(FIXED_MODE, density), seed=seed)).encode()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["flip", "byte", "delete", "drop",
                                     "duplicate", "space"]))
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        lines = data.splitlines(keepends=True)
        line = min(data.count(b"\n", 0, at), len(lines) - 1)
        if kind == "flip":
            data = data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
        elif kind == "byte":
            byte = draw(st.sampled_from(b"0123456789 \nl+_-"))
            data = data[:at] + bytes([byte]) + data[at + 1:]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        elif kind == "drop":
            data = b"".join(lines[:line] + lines[line + 1:])
        elif kind == "duplicate":
            data = b"".join(lines[:line + 1] + lines[line:])
        else:
            space = draw(st.sampled_from([b" ", b"\t", b"\n", b"\r\n"]))
            data = data[:at] + space + data[at:]
    return data


@given(mutated_texts())
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference_on_canonical_texts(data):
    # the parser accepts a text exactly when the line-by-line reference
    # does and the text is in export_topology's grammar, with equal masks
    want = _reference_parse(data)
    try:
        got = parse_topology(data)
    except TopologyFormatError:
        assert want is None or not CANONICAL.fullmatch(data)
        return
    assert want is not None and CANONICAL.fullmatch(data)
    sizes, m, masks = want
    assert got.layer_sizes == sizes and got.motif_size == m
    for ma, mb in zip(got.block_masks, masks, strict=True):
        np.testing.assert_array_equal(ma, mb)


@st.composite
def topology_cases(draw):
    m = draw(st.sampled_from([1, 2, 4]))
    depth = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=6)) * m
              for _ in range(depth)]
    out = draw(st.integers(min_value=2, max_value=9))
    density = draw(st.floats(min_value=0.05, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return widths + [out], m, density, seed


@given(topology_cases())
@settings(max_examples=60, deadline=None)
def test_build_invariants(case):
    sizes, m, density, seed = case
    topo = build_topology(sizes, m, BlockDensitySpec(FIXED_MODE, density),
                          seed=seed)
    assert topo.n_weight_layers == len(sizes) - 1
    for i, mask in enumerate(topo.block_masks):
        tile = topo.tile(i)
        assert mask.shape == (sizes[i] // tile, sizes[i + 1] // tile)
        assert mask.any(axis=0).all()  # no dead output column
        assert not mask.flags.writeable
    again = build_topology(sizes, m, BlockDensitySpec(FIXED_MODE, density),
                           seed=seed)
    for ma, mb in zip(topo.block_masks, again.block_masks):
        assert (ma == mb).all()
    back = parse_topology(export_topology(topo), motif_size=m)
    assert back.layer_sizes == topo.layer_sizes
    for ma, mb in zip(topo.block_masks, back.block_masks):
        assert (ma == mb).all()
