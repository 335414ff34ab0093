import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyblock.cli import atomic_write_text
from fuzzyblock.kernel import TunnelSection
from fuzzyblock.surrogate import dataset
from fuzzyblock.surrogate.dataset import (
    FEATURE_NAMES,
    DatasetSpec,
    NormalizationRecord,
    Sample,
    dataset_csv_text,
    generate_dataset,
    joint_cases,
    normalize,
    read_dataset_csv,
    single_joint_case,
)
from kinematics_oracle import wedge

OCTAGON = TunnelSection(
    ((2, -1.2), (2, 1.2), (1.2, 2), (-1.2, 2), (-2, 1.2), (-2, -1.2), (-1.2, -2), (1.2, -2))
)
SQUARE = TunnelSection(((-2, -2), (2, -2), (2, 2), (-2, 2)))
TRIANGLE = TunnelSection(((0, 0), (4, 0), (1, 3)), axis_trend_deg=33.0)


def small_spec(seed=7, count=40):
    return DatasetSpec(
        tunnel=OCTAGON,
        seed=seed,
        sample_count=count,
        dip_range=(10, 35),
        dip_direction_range=(100, 160),
        friction_range=(15, 25),
        angle_range=(31, 391),
    )


class TestGeneration:
    def test_sample_count(self):
        spec = small_spec(count=283)
        assert len(generate_dataset(spec)) == 283

    def test_deterministic(self):
        a = generate_dataset(small_spec())
        b = generate_dataset(small_spec())
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_dataset(small_spec(seed=1))
        b = generate_dataset(small_spec(seed=2))
        assert a != b

    def test_values_within_ranges(self):
        spec = small_spec(count=100)
        for s in generate_dataset(spec):
            assert spec.dip_range[0] <= s.dip_deg <= spec.dip_range[1]
            assert spec.dip_direction_range[0] <= s.dipdir_deg <= spec.dip_direction_range[1]
            assert spec.friction_range[0] <= s.phi_deg <= spec.friction_range[1]
            assert spec.angle_range[0] <= s.angle_deg <= spec.angle_range[1]
            assert s.volume_m3 >= 0.0
            assert 0.0 <= s.sf <= spec.sf_cap

    def test_targets_match_direct_kernel_computation(self):
        spec = small_spec(count=25)
        for s in generate_dataset(spec):
            redo = single_joint_case(
                spec.tunnel, s.dip_deg, s.dipdir_deg, s.phi_deg, s.angle_deg, spec.sf_cap
            )
            assert redo.sf == s.sf
            assert redo.volume_m3 == s.volume_m3

    def test_samples_do_not_depend_on_the_batch(self):
        assert generate_dataset(small_spec(count=60))[:25] == generate_dataset(small_spec(count=25))

    def test_kinematic_failure_propagates(self, monkeypatch):
        real = dataset._wedges
        batches = []

        def failing(tunnel, draws, sf_cap):
            batches.append(len(draws))
            real(tunnel, draws, sf_cap)
            raise RuntimeError("injected failure")

        monkeypatch.setattr(dataset, "_wedges", failing)
        with pytest.raises(RuntimeError, match="injected failure"):
            generate_dataset(small_spec(count=12))
        assert batches == [12]  # every draw goes through one batched call

    def test_missing_facet_is_an_error(self, monkeypatch):
        # index -1 must not select the last facet
        monkeypatch.setattr(
            TunnelSection, "facets_at_angles",
            lambda self, thetas: (np.full(len(thetas), -1), np.zeros((len(thetas), 3))),
        )
        with pytest.raises(ValueError, match="no facet found at angle 90.0"):
            single_joint_case(OCTAGON, 25.0, 130.0, 20.0, 90.0)

    def test_empty_batch(self):
        assert joint_cases(OCTAGON, []) == []

    def test_each_sample_is_the_first_draw_of_its_stream(self):
        spec = small_spec(count=6)
        ranges = (spec.dip_range, spec.dip_direction_range, spec.friction_range, spec.angle_range)
        for k, s in enumerate(generate_dataset(spec)):
            key = np.array([spec.seed, k], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            assert [s.dip_deg, s.dipdir_deg, s.phi_deg, s.angle_deg] == [
                rng.uniform(*r) for r in ranges
            ]

    def test_rekeyed_generator_restarts_each_stream(self):
        # the generator that generate_dataset re-keys per sample, left with a
        # pending 32-bit half and a part-used buffer, restarts stream (seed, i)
        # exactly as a fresh Philox keyed by (seed, i) starts it
        near = (0, 1, 999, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)
        rng = dataset.stream(0, 0)
        for seed in (*near, 7, -1, -(2**63), 2**64 + 7):
            for index in (*near, *range(2, 40)):
                rng.integers(2**32, dtype=np.uint32)
                rng.random()
                key = np.array([seed & (2**64 - 1), index], dtype=np.uint64)
                draws = []
                for gen in (dataset._rekeyed(rng, seed, index), dataset.stream(seed, index),
                            np.random.Generator(np.random.Philox(key=key))):
                    draws.append((gen.integers(2**32, size=3, dtype=np.uint32).tolist(),
                                  gen.random(9).tolist()))
                assert draws[0] == draws[1] == draws[2], (seed, index)

    def test_roof_positions_fall(self):
        # any position on an upward-facing facet admits vertical fall: sf 0
        s = single_joint_case(OCTAGON, 25.0, 130.0, 20.0, 90.0)
        assert s.sf == 0.0

    def test_plane_slide_value(self):
        # left wall with a joint dipping toward the opening slides downdip
        s = single_joint_case(OCTAGON, 30.0, 130.0, 20.0, 180.0)
        expected = math.tan(math.radians(20)) / math.tan(math.radians(30))
        assert s.sf == pytest.approx(expected, abs=1e-9)

    def test_floor_stable(self):
        s = single_joint_case(OCTAGON, 30.0, 130.0, 20.0, 270.0)
        assert s.sf == 5.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(tunnel=OCTAGON, sample_count=0)
        with pytest.raises(ValueError):
            DatasetSpec(tunnel=OCTAGON, dip_range=(30, 30))
        with pytest.raises(ValueError):
            DatasetSpec(tunnel=OCTAGON, sf_cap=0.0)

    @pytest.mark.parametrize("dip_range", [(-10, 100), (-0.5, 30), (10, 90.5)])
    def test_dip_outside_0_90_rejected(self, dip_range):
        with pytest.raises(ValueError, match=r"dip_range must stay within \[0, 90\]"):
            DatasetSpec(tunnel=OCTAGON, dip_range=dip_range)

    @pytest.mark.parametrize("friction_range", [(-1, 20), (15, 90), (15, 120)])
    def test_friction_outside_0_90_rejected(self, friction_range):
        with pytest.raises(ValueError, match=r"friction_range must stay within \[0, 90\)"):
            DatasetSpec(tunnel=OCTAGON, friction_range=friction_range)

    @pytest.mark.parametrize("name", ["dip_range", "dip_direction_range", "friction_range",
                                      "angle_range"])
    # the last pair has finite ends but a width that overflows
    @pytest.mark.parametrize(
        "bad", [(0, math.inf), (-math.inf, 10), (0, math.nan), (-1e308, 1e308)]
    )
    def test_non_finite_end_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must have finite ends and width"):
            DatasetSpec(tunnel=OCTAGON, **{name: bad})

    def test_closed_range_ends_accepted(self):
        spec = DatasetSpec(tunnel=OCTAGON, sample_count=30, dip_range=(0, 90),
                           friction_range=(0, 89.999))
        assert len(generate_dataset(spec)) == 30


# right-angle dip directions and 45-degree positions put sliding directions
# and facet normals at right angles, where the exit tolerance decides
draws = st.tuples(
    st.one_of(st.sampled_from([0.0, 90.0]), st.floats(0.0, 90.0)),
    st.one_of(st.sampled_from([-720.0, -90.0, 0.0, 90.0, 180.0, 270.0, 360.0]),
              st.floats(-720.0, 720.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 89.9)),
    st.one_of(st.integers(-22, 22).map(lambda k: 45.0 * k), st.floats(-1000.0, 1000.0)),
)


class TestBatchedKinematics:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([OCTAGON, SQUARE, TRIANGLE]),
        st.lists(draws, min_size=1, max_size=12),
        st.sampled_from([0.5, 5.0]),
    )
    def test_matches_per_draw_kernel_calls(self, tunnel, batch, sf_cap):
        # bit for bit against one per-code sliding_mode and safety_factor call per side
        refs = [wedge(tunnel, draw, sf_cap) for draw in batch]
        sf, upper, normals, offsets = dataset._wedges(tunnel, batch, sf_cap)
        for k, (ref_sf, side, ref_normals, ref_offsets) in enumerate(refs):
            assert np.float64(ref_sf).tobytes() == sf[k].tobytes()
            assert upper[k] == (side == "U")
            assert ref_normals.tobytes() == normals[k].tobytes()
            assert ref_offsets.tobytes() == offsets[k].tobytes()

    @pytest.mark.parametrize("dd", [-4.0e-104, -1e-300, -2.0e-14])
    def test_tiny_negative_dip_direction_gives_a_sample(self, dd):
        # dd % 360.0 rounds to 360.0 here; the draw is analyzed as dip direction 0
        assert dd % 360.0 == 360.0
        got = single_joint_case(OCTAGON, 30.0, dd, 20.0, 180.0)
        at_zero = single_joint_case(OCTAGON, 30.0, 0.0, 20.0, 180.0)
        assert got.dipdir_deg == dd
        assert (got.sf, got.volume_m3) == (at_zero.sf, at_zero.volume_m3)

    @pytest.mark.parametrize(
        "draw, sf, upper",
        [
            ((25.0, 130.0, 20.0, 90.0), 0.0, False),  # roof: the lower block falls
            ((0.0, 0.0, 20.0, 90.0), 0.0, False),  # flat joint over the roof
            ((90.0, 0.0, 20.0, 90.0), 0.0, False),  # vertical joint over the roof
            ((30.0, 130.0, 20.0, 180.0), 0.6304149381918094, True),  # left wall slides
            ((30.0, 270.0, 0.0, 0.0), 0.0, True),  # right wall, frictionless slide
            ((30.0, 130.0, 20.0, 270.0), 5.0, False),  # floor: nothing moves
            # striking normal to the wall, the slide runs along it to within
            # 1e-16, inside the exit tolerance: it does not leave the rock
            ((30.0, 180.0, 20.0, 180.0), 5.0, False),
        ],
    )
    def test_modes_and_sides(self, draw, sf, upper):
        got_sf, got_upper, _, _ = dataset._wedges(OCTAGON, [draw], 5.0)
        assert (got_sf[0], got_upper[0]) == (sf, upper)
        ref_sf, side, _, _ = wedge(OCTAGON, draw, 5.0)
        assert (ref_sf, side == "U") == (sf, upper)


class TestNormalization:
    def test_affine_examples(self):
        rec = NormalizationRecord(("a",), (0.0, 0.0), (10.0, 10.0))
        assert rec.apply_features(np.array([[5.0]]))[0, 0] == pytest.approx(0.0)
        assert rec.apply_features(np.array([[0.0]]))[0, 0] == pytest.approx(-1.0)
        assert rec.apply_features(np.array([[7.5]]))[0, 0] == pytest.approx(0.5)

    def test_round_trip(self):
        samples = generate_dataset(small_spec(count=60))
        X, y, rec = normalize(samples)
        assert X.min() >= -1.0 - 1e-12 and X.max() <= 1.0 + 1e-12
        back = rec.invert_target(y)
        raw = np.array([s.sf for s in samples])
        assert np.allclose(back, raw, atol=1e-12)

    def test_constant_column_rejected(self):
        samples = [Sample(20.0, 120.0, 18.0, 100.0, 5.0, float(k)) for k in range(5)]
        with pytest.raises(ValueError, match="phi_deg|dip"):
            normalize(samples)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="empty sample list"):
            normalize([])

    def test_custom_range(self):
        samples = generate_dataset(small_spec(count=60))
        X, y, rec = normalize(samples, (0.0, 1.0))
        assert X.min() >= -1e-12 and X.max() <= 1.0 + 1e-12


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        samples = generate_dataset(small_spec(count=30))
        path = tmp_path / "data.csv"
        atomic_write_text(str(path), dataset_csv_text(samples))
        again = read_dataset_csv(str(path))
        assert again == samples

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path))

    @pytest.mark.parametrize("text", ["", "a,b,c\n1,2,3,4,5,6\n"], ids=["empty", "wide_rows"])
    def test_header_checked_first(self, tmp_path, text):
        # the header is checked before any row width, and an empty file has none
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path}: dataset header must be dip_deg,"):
            read_dataset_csv(str(path))

    def test_header_line_present(self, tmp_path):
        samples = generate_dataset(small_spec(count=3))
        path = tmp_path / "data.csv"
        atomic_write_text(str(path), dataset_csv_text(samples))
        first = path.read_text().splitlines()[0]
        assert first == ",".join(FEATURE_NAMES + ("sf",))
