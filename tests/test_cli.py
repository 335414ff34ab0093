import csv
import json
import os

from fuzzyblock.cli import atomic_write_text, main
from fuzzyblock.project import parse_project
from fuzzyblock.surrogate import generate_dataset, load_model, save_model, write_dataset_csv
from conftest import standard_project_dict


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
        assert header == ["facet", "code", "class", "mode", "sf", "volume", "angle"]
        assert len(rows) == 8 * 8  # facets x 2^n codes

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

    def test_no_joints_is_data_error(self, tmp_path):
        doc = standard_project_dict()
        del doc["joints"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "x.csv")
        assert main(["kbt", "analyze", "-p", str(path), "-o", out]) == 2


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
        assert open(svg).read().startswith("<svg")

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
        doc = json.load(open(model))
        assert doc["schema_version"] == 1
        assert doc["normalization"] is not None
        assert len(open(rules).read().splitlines()) == 2 * 2 * 2 * 8 * 2

        assert main(["surrogate", "predict", "-m", model, "-d", data, "-o", pred]) == 0
        pheader, prows = read_csv(pred)
        assert pheader[-1] == "sf_pred"
        assert len(prows) == 60

        assert main(["surrogate", "map", "-p", proj, "-m", model, "-o", map_csv,
                     "--svg", map_svg, "--bins", "36"]) == 0
        mheader, mrows = read_csv(map_csv)
        assert mheader == ["angle_deg", "sf_pred"]
        assert len(mrows) == 36
        assert open(map_svg).read().startswith("<svg")

    def test_gen_sample_count_283(self, tmp_path):
        proj = small_project(tmp_path)
        doc = json.loads(open(proj).read())
        doc["dataset"]["sample_count"] = 283
        open(proj, "w").write(json.dumps(doc))
        data = str(tmp_path / "data.csv")
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        _, rows = read_csv(data)
        assert len(rows) == 283

    def test_seed_flag_determines_output(self, tmp_path):
        proj = small_project(tmp_path)
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        c = str(tmp_path / "c.csv")
        main(["surrogate", "gen", "-p", proj, "-o", a, "--seed", "5"])
        main(["surrogate", "gen", "-p", proj, "-o", b, "--seed", "5"])
        main(["surrogate", "gen", "-p", proj, "-o", c, "--seed", "6"])
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()

    def test_deterministic_retrain_byte_identity(self, tmp_path):
        proj = small_project(tmp_path)
        data = str(tmp_path / "data.csv")
        main(["surrogate", "gen", "-p", proj, "-o", data])
        m1 = str(tmp_path / "m1.json")
        m2 = str(tmp_path / "m2.json")
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", m1]) == 0
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", m2]) == 0
        assert open(m1, "rb").read() == open(m2, "rb").read()

    def test_products_match_library_writers(self, tmp_path):
        # one serializer per product: the CLI files are the library's bytes
        proj = small_project(tmp_path)
        data, lib_data = str(tmp_path / "data.csv"), str(tmp_path / "lib_data.csv")
        model, lib_model = str(tmp_path / "m.json"), str(tmp_path / "lib_m.json")
        assert main(["surrogate", "gen", "-p", proj, "-o", data]) == 0
        write_dataset_csv(lib_data, generate_dataset(parse_project(proj).dataset))
        assert open(data, "rb").read() == open(lib_data, "rb").read()
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", model]) == 0
        save_model(load_model(model), lib_model)
        assert open(model, "rb").read() == open(lib_model, "rb").read()

    def test_range_flag(self, tmp_path):
        proj = small_project(tmp_path)
        data = str(tmp_path / "data.csv")
        main(["surrogate", "gen", "-p", proj, "-o", data])
        model = str(tmp_path / "m.json")
        assert main(["surrogate", "train", "-p", proj, "-d", data, "-o", model,
                     "--range", "0,1"]) == 0
        doc = json.load(open(model))
        assert doc["normalization"]["range"] == [0.0, 1.0]

    def test_bad_range_flag(self, tmp_path):
        proj = small_project(tmp_path)
        data = str(tmp_path / "data.csv")
        main(["surrogate", "gen", "-p", proj, "-o", data])
        assert main(["surrogate", "train", "-p", proj, "-d", data,
                     "-o", str(tmp_path / "m.json"), "--range", "zero-one"]) == 2


class TestPlot:
    def test_plot_damage_series(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("angle_deg,sf_pred\n" + "\n".join(f"{a},{a % 7}" for a in range(0, 360, 10)) + "\n")
        out = str(tmp_path / "plot.svg")
        assert main(["plot", "-d", str(path), "-o", out]) == 0
        assert open(out).read().startswith("<svg")

    def test_plot_raster(self, tmp_path):
        path = tmp_path / "raster.csv"
        rows = ["x,y,membership"]
        for j in range(3):
            for i in range(3):
                rows.append(f"{i + 0.5},{j + 0.5},{(i + j) % 2}")
        path.write_text("\n".join(rows) + "\n")
        out = str(tmp_path / "plot.svg")
        assert main(["plot", "-d", str(path), "-o", out]) == 0
        assert "rect" in open(out).read()

    def test_empty_csv_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        assert main(["plot", "-d", str(path), "-o", str(tmp_path / "o.svg")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("angle_deg,sf_pred\n0,1\n90,2\n180,3\n")
        out1 = str(tmp_path / "p1.svg")
        out2 = str(tmp_path / "p2.svg")
        main(["plot", "-d", str(path), "-o", out1])
        main(["plot", "-d", str(path), "-o", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()


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
