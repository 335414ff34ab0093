import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import sweep_csv_oracle
from fuzzyblock import fuzzy_blocks
from fuzzyblock.cli import atomic_write_text, main
from fuzzyblock.fuzzy_blocks import finiteness_label, pbp, systems_for_code
from fuzzyblock.kernel.tunnel import all_codes, enumerate_tunnel_blocks
from fuzzyblock.plane_geometry import cell_centers
from fuzzyblock.project import parse_project
from fuzzyblock.surrogate import generate_dataset, load_model, single_joint_case
from fuzzyblock.surrogate.dataset import dataset_csv_text
from fuzzyblock.surrogate import model as surrogate_model
from fuzzyblock.surrogate.model import bin_angles, model_json_text
from conftest import OCTAGON_SECTION, standard_project_dict
from test_fuzzy_blocks import fuzzy_joint_ring
from test_readme import fenced_blocks
from test_tunnel import degenerate_joint_set, joint_sets


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def small_project(tmp_path, **overrides):
    doc = standard_project_dict()
    doc["dataset"]["sample_count"] = 60
    doc["anfis"]["epochs"] = 5
    doc.update(overrides)
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestKbtCommands:
    def test_analyze_row_count_and_header(self, tmp_path):
        proj = small_project(tmp_path)
        out = str(tmp_path / "blocks.csv")
        assert main(["kbt", "analyze", "-p", proj, "-o", out]) == 0
        header, rows = read_csv(out)
        assert header == ["facet", "code", "class", "mode", "sf", "volume", "angle",
                          "boundary", "error"]
        assert len(rows) == 8 * 8  # facets x 2^n codes
        assert {r[7] for r in rows} == {"0", "1"}
        assert all(r[8] == "" for r in rows)

    def test_analyze_writes_record_errors(self, tmp_path):
        # J1 opposed to its parallel copy J4 fails the wedge reactions of some codes
        doc = standard_project_dict()
        doc["joints"].append(dict(doc["joints"][0], id="J4"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "blocks.csv")
        assert main(["kbt", "analyze", "-p", str(path), "-o", out]) == 0
        _, rows = read_csv(out)
        failed = [r for r in rows if r[8]]
        assert failed and all(r[2] == "removable" and r[4] == "" and r[5] == "" for r in failed)

    def test_analyze_finds_removable_roof(self, tmp_path):
        proj = small_project(tmp_path)
        out = str(tmp_path / "blocks.csv")
        main(["kbt", "analyze", "-p", proj, "-o", out])
        _, rows = read_csv(out)
        removable = [r for r in rows if r[2] == "removable"]
        assert any(r[1] == "LLL" and r[3] == "falling" and float(r[4]) == 0.0 for r in removable)

    def test_volume_rows_subset(self, tmp_path):
        proj = small_project(tmp_path)
        out = str(tmp_path / "volumes.csv")
        assert main(["kbt", "volume", "-p", proj, "-o", out]) == 0
        header, rows = read_csv(out)
        assert header == ["facet", "code", "volume"]
        assert all(float(r[2]) >= 0 for r in rows)

    def test_bbox_margin_is_rejected(self, tmp_path, capsys):
        # no kbt product reads bbox_margin_m, so a project that sets it is a data error
        doc = standard_project_dict()
        doc["bbox_margin_m"] = 0.5
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        for cmd in ("analyze", "volume"):
            out = tmp_path / f"{cmd}.csv"
            assert main(["kbt", cmd, "-p", str(path), "-o", str(out)]) == 2
            assert "unknown key 'bbox_margin_m' at $" in capsys.readouterr().err
            assert not out.exists()

    def test_no_joints_is_data_error(self, tmp_path):
        doc = standard_project_dict()
        del doc["joints"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "x.csv")
        assert main(["kbt", "analyze", "-p", str(path), "-o", out]) == 2


def joints_project(joints):
    """A crisp project on the octagon with the given joints."""
    return {
        "schema_version": 1,
        "tunnel": {"section": OCTAGON_SECTION, "axis_trend_deg": 0.0},
        "joints": [{"id": j.id, "dip_deg": j.orientation.dip_deg,
                    "dip_direction_deg": j.orientation.dip_direction_deg,
                    "friction_deg": j.friction_deg} for j in joints],
    }


def assert_sweep_products_match_record_oracle(directory, doc):
    """``kbt analyze`` and ``kbt volume`` write, byte for byte, what the
    oracle builds pair by pair from the sweep's columns for the same project."""
    path = directory / "p.json"
    path.write_text(json.dumps(doc))
    cfg = parse_project(str(path))
    sweep = enumerate_tunnel_blocks(cfg.joints, cfg.tunnel)
    expected = {"analyze": sweep_csv_oracle.analyze_text(sweep),
                "volume": sweep_csv_oracle.volume_text(sweep)}
    for cmd, text in expected.items():
        out = directory / f"{cmd}.csv"
        assert main(["kbt", cmd, "-p", str(path), "-o", str(out)]) == 0
        assert out.read_bytes() == text.encode("utf-8"), cmd


class TestSweepProductsMatchRecordOracle:
    @pytest.mark.parametrize("n_joints", [1, 2, 3, 8])
    def test_degenerate_joint_sets(self, tmp_path, n_joints):
        doc = joints_project(degenerate_joint_set(n_joints))
        assert_sweep_products_match_record_oracle(tmp_path, doc)
        _, rows = read_csv(tmp_path / "analyze.csv")
        assert len(rows) == 8 * 2 ** n_joints
        if n_joints == 8:
            # dip 0, dip 90 and a parallel copy: boundary-only cones, mode
            # errors, zero and positive volumes all reach the products
            assert {r[2] for r in rows} == {"infinite", "tapered", "removable"}
            assert any(r[8] for r in rows) and {r[7] for r in rows} == {"0", "1"}

    def test_readme_project(self, tmp_path):
        (block,) = fenced_blocks("json")
        assert_sweep_products_match_record_oracle(tmp_path, json.loads(block))

    @settings(max_examples=25, deadline=None)
    @given(joint_sets())
    def test_joint_sets(self, tmp_path_factory, joints):
        directory = tmp_path_factory.mktemp("sweep")
        assert_sweep_products_match_record_oracle(directory, joints_project(joints))


class TestExitCodes:
    def test_usage_error(self):
        assert main(["kbt", "analyze"]) == 1

    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    def test_missing_project(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["kbt", "analyze", "-p", "/no/file.json", "-o", out]) == 2

    def test_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = standard_project_dict()
        doc["joints"][0]["frction"] = 1
        path.write_text(json.dumps(doc))
        assert main(["kbt", "analyze", "-p", str(path), "-o", str(tmp_path / "x.csv")]) == 2

    def test_retired_key_is_data_error(self, tmp_path, capsys):
        doc = standard_project_dict()
        doc["joints"][2]["location"] = [0.0, 0.0, 0.0]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["kbt", "analyze", "-p", str(path), "-o", str(tmp_path / "x.csv")]) == 2
        assert "unknown key 'location' at $.joints[2]" in capsys.readouterr().err

    def test_rule_grid_cap_is_data_error_before_gen(self, tmp_path, capsys):
        # a rule grid that training would refuse stops gen, not train
        doc = standard_project_dict()
        doc["anfis"]["mfs_per_input"] = [8, 8, 8, 8, 8]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "d.csv"
        assert main(["surrogate", "gen", "-p", str(path), "-o", str(out)]) == 2
        assert "$.anfis.mfs_per_input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["kbt", "analyze"], ["kbt", "volume"], ["fuzzy", "pbr", "--delta-variant", "paper"],
        ["fuzzy", "pbr", "--delta-variant", "standard"],
    ], ids=["kbt_analyze", "kbt_volume", "fuzzy_pbr_paper", "fuzzy_pbr_standard"])
    def test_ninth_joint_is_data_error_in_both_theories(self, tmp_path, capsys, argv):
        # fuzzy pbr once ranked 9 fuzzy joints (4097 rows) where kbt refused 9 crisp ones
        doc = standard_project_dict()
        doc["joints"] = [dict(doc["joints"][0], id=f"J{i + 1}", dip_direction_deg=40.0 * i)
                         for i in range(9)]
        doc["fuzzy_joints"] = fuzzy_joint_ring(9, 1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(argv + ["-p", str(path), "-o", str(out)]) == 2
        assert "at most 8 joints are supported (2^n block codes), got 9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["surrogate", "gen", "-p", "p.json", "-o", "d.csv", "--seed", "5"],
        ["surrogate", "train", "-p", "p.json", "-d", "d.csv", "-o", "m.json", "--seed", "5"],
        ["surrogate", "train", "-p", "p.json", "-d", "d.csv", "-o", "m.json", "--epochs", "5"],
        ["surrogate", "train", "-p", "p.json", "-d", "d.csv", "-o", "m.json", "--range", "0,1"],
    ], ids=["gen_seed", "train_seed", "train_epochs", "train_range"])
    def test_removed_flag_is_usage_error(self, argv):
        # each of these once shadowed a project key
        assert main(argv) == 1


class TestFuzzyPbr:
    def test_crisp_degenerate_matches_kbt(self, tmp_path):
        doc = standard_project_dict()
        # degenerate fuzzy joints equal the crisp ones
        doc["fuzzy_joints"] = [
            {"id": f"F{k}", "dip_deg": 60.0, "dip_direction_deg": float(dd),
             "friction_deg": 20.0}
            for k, dd in enumerate((0, 120, 240))
        ]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        blocks = str(tmp_path / "blocks.csv")
        pbr_out = str(tmp_path / "pbr.csv")
        assert main(["kbt", "analyze", "-p", str(path), "-o", blocks]) == 0
        assert main(["fuzzy", "pbr", "-p", str(path), "-o", pbr_out]) == 0
        _, block_rows = read_csv(blocks)
        _, pbr_rows = read_csv(pbr_out)
        removable = {(r[0], r[1]) for r in block_rows if r[2] == "removable"}
        for facet, code, pbp_s, pjb_s, pbr_s, label in pbr_rows:
            assert float(pbr_s) in (0.0, 1.0)
            assert (float(pbr_s) == 1.0) == ((facet, code) in removable)

    @pytest.mark.parametrize("variant", ["paper", "standard"])
    def test_matches_one_pbp_per_system(self, tmp_path, variant):
        # a dip-0 core, a dip-90 support edge and a near-parallel pair, whose
        # opposite sides give near-opposed rows in half the codes
        doc = standard_project_dict()
        doc["fuzzy_joints"] = [
            {"id": "F1", "dip_deg": [0, 0, 0, 5], "dip_direction_deg": [40, 45, 45, 50],
             "friction_deg": [15, 20, 20, 25]},
            {"id": "F2", "dip_deg": [80, 85, 88, 90], "dip_direction_deg": [110, 115, 120, 125],
             "friction_deg": [15, 20, 20, 25]},
            {"id": "F3", "dip_deg": [55, 60, 60, 65], "dip_direction_deg": [200, 205, 205, 210],
             "friction_deg": [15, 20, 20, 25]},
            {"id": "F4", "dip_deg": [56, 60.5, 60.5, 64],
             "dip_direction_deg": [201, 205.5, 205.5, 209], "friction_deg": [15, 20, 20, 25]},
        ]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "pbr.csv")
        assert main(["fuzzy", "pbr", "-p", str(path), "-o", out, "--delta-variant", variant]) == 0
        cfg = parse_project(str(path))
        expected = []
        for facet in cfg.tunnel.facets():
            for code in all_codes(4):
                jp, bp = systems_for_code(cfg.fuzzy_joints, code, facet.inward_normal)
                pbp_value, pjb_sup = pbp(bp, variant), pbp(jp, variant)
                expected.append([
                    str(facet.index), code, repr(pbp_value), repr(pjb_sup),
                    repr(min(1.0 - pbp_value, pjb_sup)),
                    finiteness_label(pbp_value, cfg.label_thresholds),
                ])
        header, rows = read_csv(out)
        assert header == ["facet", "code", "pbp", "pjb_sup", "pbr", "label"]
        assert rows == expected
        if variant == "standard":  # the paper PBP is 0 or 1; this one takes values between
            assert {r[2] for r in rows} > {"0.0", "1.0"}

    @staticmethod
    def spy(monkeypatch, result=fuzzy_blocks.pbps):
        """Record the knot shape and values of each ``pbps`` call; ``result`` gives the values."""
        calls = []

        def recording(knots, variant="paper"):
            values = result(knots, variant)
            calls.append((np.asarray(knots).shape, values))
            return values

        monkeypatch.setattr(fuzzy_blocks, "pbps", recording)
        return calls

    @pytest.mark.parametrize("variant", ["paper", "standard"])
    def test_block_pyramids_of_live_codes_only(self, tmp_path, monkeypatch, variant):
        path = small_project(tmp_path, fuzzy_joints=fuzzy_joint_ring(8, 7))
        cfg = parse_project(path)
        jp = fuzzy_blocks.code_knots(cfg.fuzzy_joints, all_codes(8))
        every = fuzzy_blocks.pbps(
            fuzzy_blocks.block_knots(jp, [f.inward_normal for f in cfg.tunnel.facets()]), variant)
        out = tmp_path / "pbr.csv"
        calls = self.spy(monkeypatch)
        assert main(["fuzzy", "pbr", "-p", path, "-o", str(out), "--delta-variant", variant]) == 0
        (jp_shape, pjb_sups), (bp_shape, _) = calls
        live = pjb_sups > 0.0
        assert jp_shape == (256, 4, 8, 3) and 0 < live.sum() < 128
        assert bp_shape == (8 * live.sum(), 4, 9, 3)
        # the values of a search over every code, the skipped ones 0.0 too
        _, rows = read_csv(out)
        assert [r[2] for r in rows] == [repr(v) for v in every.tolist()]

    def test_no_live_code(self, tmp_path, monkeypatch):
        # every joint pyramid of PJB-sup 0 leaves no block pyramid to search
        calls = self.spy(monkeypatch, lambda knots, variant: np.zeros(len(knots)))
        out = tmp_path / "pbr.csv"
        assert main(["fuzzy", "pbr", "-p", small_project(tmp_path), "-o", str(out)]) == 0
        assert [shape for shape, _ in calls] == [(8, 4, 3, 3)]
        _, rows = read_csv(out)
        assert len(rows) == 64
        assert {tuple(r[2:]) for r in rows} == {("0.0", "0.0", "0.0", "finite")}

    def test_paper_is_the_default_variant(self, tmp_path):
        proj = small_project(tmp_path)
        plain, flagged = str(tmp_path / "plain.csv"), str(tmp_path / "flagged.csv")
        assert main(["fuzzy", "pbr", "-p", proj, "-o", plain]) == 0
        assert main(["fuzzy", "pbr", "-p", proj, "-o", flagged, "--delta-variant", "paper"]) == 0
        assert Path(plain).read_bytes() == Path(flagged).read_bytes()

    def test_variant_key_is_data_error(self, tmp_path, capsys):
        # the flag is the one source of the variant; the project key is retired
        proj = small_project(tmp_path, delta_variant="standard")
        assert main(["fuzzy", "pbr", "-p", proj, "-o", str(tmp_path / "pbr.csv")]) == 2
        assert "unknown key 'delta_variant' at $" in capsys.readouterr().err

    def test_table_to_stdout(self, tmp_path, capsys):
        proj = small_project(tmp_path)
        assert main(["fuzzy", "pbr", "-p", proj]) == 0
        captured = capsys.readouterr()
        assert "pbp" in captured.out and "label" in captured.out


class TestGeomEval:
    def test_raster_csv_and_svg(self, tmp_path):
        proj = small_project(tmp_path)
        out = str(tmp_path / "raster.csv")
        svg = str(tmp_path / "raster.svg")
        assert main(["geom", "eval", "-p", proj, "-o", out, "--svg", svg]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "membership"]
        assert len(rows) == 8 * 8
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)
        assert Path(svg).read_text().startswith("<svg")

    def test_csv_cells_are_the_cell_centers(self, tmp_path):
        proj = small_project(tmp_path)
        out = str(tmp_path / "raster.csv")
        assert main(["geom", "eval", "-p", proj, "-o", out]) == 0
        job = parse_project(proj).geometry
        xs, ys = cell_centers(job.bbox, job.nx, job.ny)
        _, rows = read_csv(out)
        assert np.array([float(r[0]) for r in rows]).tobytes() == np.tile(xs, job.ny).tobytes()
        assert np.array([float(r[1]) for r in rows]).tobytes() == np.repeat(ys, job.nx).tobytes()

    def test_missing_geometry_section(self, tmp_path):
        doc = standard_project_dict()
        del doc["geometry"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["geom", "eval", "-p", str(path), "-o", str(tmp_path / "r.csv")]) == 2


class TestSurrogatePipeline:
    def test_gen_train_predict_map(self, tmp_path):
        proj = small_project(tmp_path)
        data = str(tmp_path / "data.csv")
        model = str(tmp_path / "model.json")
        pred = str(tmp_path / "pred.csv")
        map_csv = str(tmp_path / "map.csv")
        map_svg = str(tmp_path / "map.svg")
        rules = str(tmp_path / "rules.txt")

        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        header, rows = read_csv(data)
        assert header == ["dip_deg", "dipdir_deg", "phi_deg", "angle_deg", "volume_m3", "sf"]
        assert len(rows) == 60

        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", model,
                     "--rules", rules]) == 0
        doc = json.loads(Path(model).read_text())
        assert doc["schema_version"] == 1
        assert doc["normalization"] is not None
        assert len(Path(rules).read_text().splitlines()) == 2 * 2 * 2 * 8 * 2

        assert main(["surrogate", "predict", "-m", model, "-d", data, "-o", pred]) == 0
        pheader, prows = read_csv(pred)
        assert pheader[-1] == "sf_pred"
        assert len(prows) == 60

        assert main(["surrogate", "map", "-p", proj, "-m", model, "-o", map_csv,
                     "--svg", map_svg, "--bins", "36"]) == 0
        mheader, mrows = read_csv(map_csv)
        assert mheader == ["angle_deg", "sf_pred"]
        assert len(mrows) == 36
        assert Path(map_svg).read_text().startswith("<svg")

    def test_map_volumes_equal_single_joint_cases(self, tmp_path, monkeypatch):
        proj = small_project(tmp_path)
        data, model = str(tmp_path / "data.csv"), str(tmp_path / "model.json")
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", model]) == 0
        seen = []

        def recording(model, bins, per_bin_inputs):
            seen.append(per_bin_inputs["volume_m3"])
            return real(model, bins, per_bin_inputs=per_bin_inputs)

        # ``surrogate map`` imports damage_map from its module when it runs
        real = surrogate_model.damage_map
        monkeypatch.setattr(surrogate_model, "damage_map", recording)
        assert main(["surrogate", "map", "-p", proj, "-m", model,
                     "-o", str(tmp_path / "map.csv"), "--bins", "24"]) == 0
        cfg, m = parse_project(proj), load_model(model)
        dip, dd, phi = m.input_medians[:3]
        angles = bin_angles(m.normalization.mins[3], m.normalization.maxs[3], 24)
        expected = [
            single_joint_case(cfg.tunnel, dip, dd, phi, float(a)).volume_m3
            for a in angles
        ]
        assert np.array(seen[0]).tobytes() == np.array(expected).tobytes()

    def test_gen_sample_count_283(self, tmp_path):
        proj = small_project(tmp_path)
        doc = json.loads(Path(proj).read_text())
        doc["dataset"]["sample_count"] = 283
        Path(proj).write_text(json.dumps(doc))
        data = str(tmp_path / "data.csv")
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        _, rows = read_csv(data)
        assert len(rows) == 283

    def test_seed_flag_determines_output(self, tmp_path):
        # the dataset seed comes from the project's dataset.seed alone
        outputs = []
        for seed in (5, 5, 6):
            doc = standard_project_dict()
            doc["dataset"].update(sample_count=60, seed=seed)
            proj = tmp_path / f"proj{len(outputs)}.json"
            proj.write_text(json.dumps(doc))
            out = tmp_path / f"data{len(outputs)}.csv"
            assert main(["surrogate", "gen", "-p", str(proj), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_deterministic_retrain_byte_identity(self, tmp_path):
        proj = small_project(tmp_path)
        data = str(tmp_path / "data.csv")
        main(["surrogate", "gen", "-p", proj, "-o", data])
        m1 = str(tmp_path / "m1.json")
        m2 = str(tmp_path / "m2.json")
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", m1]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", m2]) == 0
        assert Path(m1).read_bytes() == Path(m2).read_bytes()

    def test_products_match_library_writers(self, tmp_path):
        # one serializer per product: the CLI files are the library's bytes
        proj = small_project(tmp_path)
        data, lib_data = str(tmp_path / "data.csv"), str(tmp_path / "lib_data.csv")
        model, lib_model = str(tmp_path / "m.json"), str(tmp_path / "lib_m.json")
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        samples = generate_dataset(parse_project(proj).dataset)
        atomic_write_text(lib_data, dataset_csv_text(samples))
        assert Path(data).read_bytes() == Path(lib_data).read_bytes()
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", model]) == 0
        atomic_write_text(lib_model, model_json_text(load_model(model)))
        assert Path(model).read_bytes() == Path(lib_model).read_bytes()

    def test_range_flag(self, tmp_path):
        # the normalization range comes from anfis.normalization_range
        data = str(tmp_path / "data.csv")
        main(["surrogate", "gen", "-p", small_project(tmp_path), "-o", data])
        doc = standard_project_dict()
        doc["dataset"]["sample_count"] = 60
        doc["anfis"].update(epochs=5, normalization_range=[0, 1])
        proj = tmp_path / "ranged.json"
        proj.write_text(json.dumps(doc))
        model = str(tmp_path / "m.json")
        assert main(["surrogate", "train", "-p", str(proj), "-d", data, "-o", model]) == 0
        doc = json.loads(Path(model).read_text())
        assert doc["normalization"]["range"] == [0.0, 1.0]

    def test_bad_range_flag(self, tmp_path, capsys):
        data = str(tmp_path / "data.csv")
        main(["surrogate", "gen", "-p", small_project(tmp_path), "-o", data])
        doc = standard_project_dict()
        doc["anfis"]["normalization_range"] = [1, 0]
        proj = tmp_path / "inverted.json"
        proj.write_text(json.dumps(doc))
        assert main(["surrogate", "train", "-p", str(proj), "-d", data,
                     "-o", str(tmp_path / "m.json")]) == 2
        assert "$.anfis.normalization_range" in capsys.readouterr().err


class TestMalformedInputs:
    """A malformed input file is a data error naming the file, not a traceback."""

    def test_dataset_short_row(self, tmp_path, capsys):
        proj = small_project(tmp_path)
        data = tmp_path / "data.csv"
        assert main(["surrogate", "gen", "-p", proj, "-o", str(data)]) == 0
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n")
        assert main(["surrogate", "train", "-p", proj, "-d", str(data),
                     "-o", str(tmp_path / "m.json")]) == 2
        assert f"{data} line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("mfs"), "model lacks key 'mfs'"),
        (lambda doc: doc.update(mfs=5), "object is not iterable"),
        (lambda doc: doc["input_names"].reverse(), "inputs must be dip_deg"),
    ], ids=["missing_mfs", "mfs_not_list", "inputs_reordered"])
    def test_malformed_model(self, tmp_path, capsys, edit, message):
        proj = small_project(tmp_path)
        data, model = str(tmp_path / "data.csv"), tmp_path / "m.json"
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", str(model)]) == 0
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        assert main(["surrogate", "map", "-p", proj, "-m", str(model),
                     "-o", str(tmp_path / "map.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and message in err

    @pytest.mark.parametrize("text", [b"{bad\n", b"\xff{}\n"], ids=["not_json", "not_utf8"])
    def test_model_not_json(self, tmp_path, capsys, text):
        # the decoder's message once reached stderr without the file's name
        proj = small_project(tmp_path)
        data, model = str(tmp_path / "data.csv"), tmp_path / "m.json"
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        model.write_bytes(text)
        pred = tmp_path / "pred.csv"
        assert main(["surrogate", "predict", "-m", str(model), "-d", data, "-o", str(pred)]) == 2
        assert f"{model}: " in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize("edit, command, message", [
        (lambda doc: doc.update(input_medians=doc["input_medians"][:1]), "map",
         "need one input median per input (5)"),
        (lambda doc: doc["normalization"]["mins"].__setitem__(0, "abc"), "map",
         "normalization mins and maxs must be finite numbers, got 'abc'"),
        (lambda doc: doc["normalization"]["mins"].__setitem__(0, "abc"), "predict",
         "normalization mins and maxs must be finite numbers, got 'abc'"),
        (lambda doc: doc["input_medians"].__setitem__(2, None), "map",
         "input medians must be finite numbers, got None"),
        (lambda doc: doc["consequents"][0].__setitem__(0, float("inf")), "predict",
         "consequents must be finite"),
        (lambda doc: doc["mfs"][0][0].__setitem__(0, float("nan")), "predict",
         "MF parameters must be finite"),
        (lambda doc: doc["normalization"]["maxs"].__setitem__(
            0, doc["normalization"]["mins"][0]), "map",
         "dip_deg is constant or reversed: its normalization max"),
        # the record once went unread: predict wrote the real model's pred.csv
        (lambda doc: doc["normalization"]["feature_names"].__setitem__(0, "a"), "predict",
         "normalization feature_names ['a', 'dipdir_deg', 'phi_deg', 'angle_deg', 'volume_m3']"
         " differ from input_names ['dip_deg', 'dipdir_deg', 'phi_deg', 'angle_deg',"
         " 'volume_m3']"),
        (lambda doc: doc["normalization"]["feature_names"].reverse(), "map",
         "normalization feature_names ['volume_m3', 'angle_deg', 'phi_deg', 'dipdir_deg',"
         " 'dip_deg'] differ from input_names"),
        # a third range value was once dropped without a word
        (lambda doc: doc["normalization"]["range"].append(2.0), "predict",
         "model normalization range must be two numbers, got [-1.0, 1.0, 2.0]"),
        (lambda doc: doc["normalization"]["range"].pop(), "map",
         "model normalization range must be two numbers, got [-1.0]"),
        (lambda doc: doc["normalization"].update(range="ab"), "predict",
         "model normalization range must be two numbers, got 'ab'"),
    ], ids=["medians_short", "min_string_map", "min_string_predict", "median_null",
            "consequent_inf", "center_nan", "max_equals_min", "feature_name_predict",
            "feature_names_reversed_map", "range_three", "range_one", "range_string"])
    def test_bad_model_number(self, tmp_path, capsys, edit, command, message):
        # each of these once crashed with a traceback or wrote non-finite or
        # wrong values; the model file is now rejected when it is loaded
        proj = small_project(tmp_path)
        data, model = str(tmp_path / "data.csv"), tmp_path / "m.json"
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", str(model)]) == 0
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        out = str(tmp_path / "out.csv")
        argv = {"map": ["surrogate", "map", "-p", proj, "-m", str(model), "-o", out],
                "predict": ["surrogate", "predict", "-m", str(model), "-d", data, "-o", out]}
        assert main(argv[command]) == 2
        assert f"{model}: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_predict_short_row(self, tmp_path, capsys):
        proj = small_project(tmp_path)
        data, model = tmp_path / "data.csv", str(tmp_path / "m.json")
        assert main(["surrogate", "gen", "-p", proj, "-o", str(data)]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", str(data), "-o", model]) == 0
        data.write_text(data.read_text() + "1.0,2.0\n")
        assert main(["surrogate", "predict", "-m", model, "-d", str(data),
                     "-o", str(tmp_path / "pred.csv")]) == 2
        assert f"{data} line 62" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_field_not_a_finite_number(self, tmp_path, capsys, command, value):
        proj = small_project(tmp_path)
        data, model = tmp_path / "data.csv", str(tmp_path / "m.json")
        assert main(["surrogate", "gen", "-p", proj, "-o", str(data)]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", str(data), "-o", model]) == 0
        lines = data.read_text().splitlines()
        fields = lines[2].split(",")
        fields[2] = value  # phi_deg of the second data row, on line 3
        lines[2] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        argv = {"train": ["surrogate", "train", "-p", proj, "-d", str(data), "-o", out],
                "predict": ["surrogate", "predict", "-m", model, "-d", str(data), "-o", out]}
        assert main(argv[command]) == 2
        assert f"{data} line 3: phi_deg must be a finite number" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_plot_short_row(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("angle_deg,sf_pred\n0,1\n90\n")
        assert main(["plot", "-d", str(path), "-o", str(tmp_path / "o.svg")]) == 2
        assert f"{path} line 3" in capsys.readouterr().err


class TestPlot:
    def test_plot_damage_series(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("angle_deg,sf_pred\n" + "\n".join(f"{a},{a % 7}" for a in range(0, 360, 10)) + "\n")
        out = str(tmp_path / "plot.svg")
        assert main(["plot", "-d", str(path), "-o", out]) == 0
        assert Path(out).read_text().startswith("<svg")

    def test_plot_raster(self, tmp_path):
        path = tmp_path / "raster.csv"
        rows = ["x,y,membership"]
        for j in range(3):
            for i in range(3):
                rows.append(f"{i + 0.5},{j + 0.5},{(i + j) % 2}")
        path.write_text("\n".join(rows) + "\n")
        out = str(tmp_path / "plot.svg")
        assert main(["plot", "-d", str(path), "-o", out]) == 0
        assert "rect" in Path(out).read_text()

    def test_empty_csv_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        assert main(["plot", "-d", str(path), "-o", str(tmp_path / "o.svg")]) == 2

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["plot", "-d", str(path), "-o", str(tmp_path / "o.svg")]) == 2
        assert f"{path} is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_series_field_not_a_finite_number(self, tmp_path, capsys, value):
        path = tmp_path / "series.csv"
        path.write_text(f"angle_deg,sf_pred\n0,1\n90,{value}\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "-d", str(path), "-o", str(out)]) == 2
        assert f"{path} line 3: sf_pred must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_raster_field_not_a_finite_number(self, tmp_path, capsys, value):
        path = tmp_path / "raster.csv"
        path.write_text(f"x,y,membership\n0.5,0.5,0\n1.5,0.5,{value}\n0.5,1.5,1\n1.5,1.5,0\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "-d", str(path), "-o", str(out)]) == 2
        assert f"{path} line 3: membership must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            # uneven spacing: x = 3 where the grid 0, 1 puts 2
            ("uneven.csv", "0,0,1\n1,0,0\n3,0,1\n",
             "line 4: x = 3.0 is off the even grid of spacing 1.0 from 0.0"),
            # cells (1, 0) and (0, 1) of the 2 x 2 grid are missing
            ("missing.csv", "0,0,1\n1,1,1\n",
             "line 2: the grid row y = 0.0 has no cell at x = 1.0"),
            # the last row repeats the cell of line 2
            ("duplicate.csv", "0,0,1\n1,0,1\n0,1,1\n1,1,0\n0,0,0.5\n",
             "line 6: duplicate cell x = 0.0, y = 0.0 (first on line 2)"),
        ],
        ids=["uneven", "missing", "duplicate"],
    )
    def test_broken_raster_is_data_error(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text("x,y,membership\n" + text)
        out = tmp_path / "o.svg"
        assert main(["plot", "-d", str(path), "-o", str(out)]) == 2
        assert f"{path} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_geom_raster_plots_as_its_grid(self, tmp_path, project_file):
        # the reprs of a raster's cell centers are evenly spaced to a few ulps
        raster = str(tmp_path / "raster.csv")
        assert main(["geom", "eval", "-p", project_file, "-o", raster]) == 0
        out = str(tmp_path / "plot.svg")
        assert main(["plot", "-d", raster, "-o", out]) == 0
        assert Path(out).read_text().count("<rect") == 64

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("angle_deg,sf_pred\n0,1\n90,2\n180,3\n")
        out1 = str(tmp_path / "p1.svg")
        out2 = str(tmp_path / "p2.svg")
        main(["plot", "-d", str(path), "-o", out1])
        main(["plot", "-d", str(path), "-o", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestAtomicWrites:
    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_overwrite_is_atomic(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "one\n")
        atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"

    def test_product_mode_follows_umask(self, tmp_path):
        # a product gets the mode a plain open() would give it, not mkstemp's 0600
        out = tmp_path / "blocks.csv"
        old = os.umask(0o022)
        try:
            assert main(["kbt", "analyze", "-p", small_project(tmp_path), "-o", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644

    def test_products_consumable_round_trip(self, tmp_path):
        # CSV written by gen feeds train without transformation, and the map
        # CSV feeds plot
        proj = small_project(tmp_path)
        data = str(tmp_path / "d.csv")
        model = str(tmp_path / "m.json")
        map_csv = str(tmp_path / "map.csv")
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", model]) == 0
        assert main(["surrogate", "map", "-p", proj, "-m", model, "-o", map_csv]) == 0
        assert main(["plot", "-d", map_csv, "-o", str(tmp_path / "map.svg")]) == 0
