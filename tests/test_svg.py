import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svg_oracle import heat_grid_svg as heat_grid_oracle

from fuzzyblock.kernel import TunnelSection
from fuzzyblock.svg_out import damage_map_svg, heat_color, heat_grid_svg, polyline_svg

SQUARE = TunnelSection(((-2, -2), (2, -2), (2, 2), (-2, 2)))


def _half_levels():
    """Values v, within 3 ulps of 1 - (k + 0.5) / 255, with 255 * (1 - v) == k + 0.5."""
    found = []
    for k in range(255):
        v = 1.0 - (k + 0.5) / 255
        near = [v]
        for toward in (0.0, 1.0):
            u = v
            for _ in range(3):
                u = math.nextafter(u, toward)
                near.append(u)
        found += [u for u in near if 255 * (1.0 - u) == k + 0.5]
    return found


# gray levels that a tie decides: round() and np.rint both go to the even one
HALF_LEVELS = _half_levels()


class TestHeatColor:
    def test_low_is_hot_red(self):
        assert heat_color(0.0, 5.0) == "rgb(255,0,0)"

    def test_high_is_cold_blue(self):
        assert heat_color(5.0, 5.0) == "rgb(0,0,255)"

    def test_midpoint_yellow(self):
        assert heat_color(2.5, 5.0) == "rgb(255,255,0)"

    def test_clamped(self):
        assert heat_color(99.0, 5.0) == "rgb(0,0,255)"


class TestDamageMapSvg:
    def test_uniform_field_single_color(self):
        series = [(a + 2.5, 2.5) for a in range(0, 360, 5)]
        svg = damage_map_svg(SQUARE, series)
        fills = set(re.findall(r'fill="(rgb[^"]+)"', svg))
        assert fills == {"rgb(255,255,0)"}

    def test_min_at_crown_red_on_top(self):
        series = []
        for a in range(0, 360, 5):
            angle = a + 2.5
            dist = min(abs(angle - 90), 360 - abs(angle - 90))
            series.append((angle, 0.0 if dist < 10 else 5.0))
        svg = damage_map_svg(SQUARE, series)
        for quad in re.findall(r'<polygon points="([^"]+)" fill="rgb\(255,0,0\)"', svg):
            ys = [float(pair.split(",")[1]) for pair in quad.split()]
            # svg y axis points down, so the crown band has negative y
            assert max(ys) < 0

    def test_byte_identical(self):
        series = [(a + 0.5, (a % 50) / 10) for a in range(0, 360, 10)]
        assert damage_map_svg(SQUARE, series) == damage_map_svg(SQUARE, series)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            damage_map_svg(SQUARE, [])


class TestHeatGridSvg:
    def test_grayscale_cells(self):
        grid = np.array([[0.0, 1.0], [0.5, 0.25]])
        svg = heat_grid_svg(grid, (0, 0, 2, 2))
        assert 'fill="rgb(255,255,255)"' in svg  # membership 0 renders white
        assert 'fill="rgb(0,0,0)"' in svg  # membership 1 renders black

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heat_grid_svg(np.zeros((0, 0)), (0, 0, 1, 1))

    def test_half_levels_cover_both_parities(self):
        ties = [int(255 * (1.0 - v)) for v in HALF_LEVELS]
        assert len(ties) > 100
        assert {k % 2 for k in ties} == {0, 1}

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        values=st.lists(
            st.sampled_from([0.0, 1.0, -0.0, -1e-300, 1.0 + 2**-52, -3.5, 7.25])
            | st.sampled_from([math.nan, math.inf, -math.inf])
            | st.sampled_from(HALF_LEVELS)
            | st.floats(-2.0, 3.0),
            min_size=1,
        ),
        corner=st.tuples(st.sampled_from([-2.2, -0.0, 0.0, 1.5]), st.sampled_from([-1.0, 0.0, 3.0])),
        extent=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    )
    def test_equal_to_per_cell_emitter(self, shape, values, corner, extent):
        grid = np.resize(np.array(values), shape)
        bbox = (corner[0], corner[1], corner[0] + extent[0], corner[1] + extent[1])
        svg, ref = heat_grid_svg(grid, bbox), heat_grid_oracle(grid, bbox)
        same = svg == ref  # a bare == of two long strings makes pytest diff them slowly
        assert same, next(pair for pair in zip(svg.splitlines(), ref.splitlines()) if pair[0] != pair[1])


class TestPolylineSvg:
    def test_basic(self):
        svg = polyline_svg([0, 1, 2], [1, 3, 2])
        assert svg.startswith("<svg") and "polyline" in svg

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            polyline_svg([0, 1], [1])
