import json

import pytest

from opdiv.cli import main

from conftest import FIG3_EDGES


@pytest.fixture
def fig3_file(tmp_path):
    p = tmp_path / "fig3.edges"
    p.write_text("n 11\n" + "\n".join(f"{u} {v}" for u, v in FIG3_EDGES) + "\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlace:
    def test_table_matches_published_rows(self, capsys, fig3_file):
        code, out, _ = run(capsys, "place", "--graph", fig3_file, "--l0", "1", "--R", "nf")
        assert code == 0
        assert " 2    0.000    0.000" in out
        assert " 5    0.583    1.003" in out
        assert "11    0.639    0.937" in out
        assert "argmax simpson: [10, 11]" in out
        assert "argmax shannon: [5, 6]" in out

    def test_generator_path_r2(self, capsys):
        code, out, _ = run(capsys, "place", "--gen", "path:10", "--l0", "3", "--R", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert 8 in payload["argmax_simpson"]
        assert payload["prediction"] == {"topology": "path", "nodes": [8], "agrees": True}

    def test_generator_cycle_attains_log(self, capsys):
        code, out, _ = run(capsys, "place", "--gen", "cycle:6", "--l0", "1", "--R", "nf",
                           "--format", "json")
        payload = json.loads(out)
        import math

        best = max(s["shannon"] for s in payload["scores"].values())
        assert best == pytest.approx(math.log(4))
        assert payload["max_diversity"]["shannon"] == pytest.approx(math.log(4))

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "place", "--gen", "path:6", "--l0", "1", "--R", "2",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "l1,simpson,shannon"
        assert len(out.splitlines()) == 6

    def test_deterministic(self, capsys, fig3_file):
        _, out1, _ = run(capsys, "place", "--graph", fig3_file, "--l0", "1", "--R", "nf")
        _, out2, _ = run(capsys, "place", "--graph", fig3_file, "--l0", "1", "--R", "nf")
        assert out1 == out2

    def test_ytree_prediction_reported(self, capsys):
        code, out, _ = run(capsys, "place", "--gen", "ytree:2,4,2", "--l0", "1", "--R", "nf")
        assert code == 0
        assert "predicted optimal (ytree): [6, 7]" in out
        assert "prediction agrees with brute force: yes" in out

    def test_path_boundary_opinions_keep_both_endpoints(self, capsys):
        # with l1 = 100 the followers sit exactly on the bin boundaries i/98, one per bin
        code, out, _ = run(capsys, "place", "--gen", "path:100", "--l0", "2", "--R", "nf",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["argmax_simpson"] == [99, 100]
        assert payload["argmax_shannon"] == [99, 100]

    def test_cycle_boundary_opinions_binned_exactly(self, capsys):
        # l1 = 3 puts follower 2 at 1/2 = 49/98 and the long arc at i/98: one bin holds two
        code, out, _ = run(capsys, "place", "--gen", "cycle:100", "--l0", "1", "--R", "nf",
                           "--format", "json")
        assert code == 0
        simpson = json.loads(out)["scores"]["3"]["simpson"]
        assert simpson == pytest.approx(1 - 2 / (98 * 97), abs=1e-12)

    def test_bad_l0(self, capsys, fig3_file):
        code, _, err = run(capsys, "place", "--graph", fig3_file, "--l0", "99")
        assert code == 1 and "error" in err

    def test_out_file(self, capsys, tmp_path, fig3_file):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "place", "--graph", fig3_file, "--l0", "1",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert "argmax simpson: [10, 11]" in target.read_text()


class TestVerify:
    def test_paths_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "paths", "--bound", "8")
        assert code == 0
        assert "0 counterexample(s)" in out
        assert "Theorem 2 audit" in out
        assert "stated j=7: optimal" in out  # n=8, k=2

    def test_cycles_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "cycles", "--bound", "8")
        assert code == 0 and "0 counterexample(s)" in out

    def test_ytrees_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "ytrees", "--bound", "3")
        assert code == 0

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "appendix", "--bound", "8")
        _, out2, _ = run(capsys, "verify", "appendix", "--bound", "8")
        assert out1 == out2


class TestDump:
    def test_path5_quarters(self, capsys):
        code, out, _ = run(capsys, "dump", "--gen", "path:5", "--l0", "1", "--l1", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[:4] == ["node,opinion", "2,0.25", "3,0.5", "4,0.75"]
        payload = json.loads(lines[-1])
        assert payload == {"R": 3, "n_f": 3, "counts": [1, 1, 1]}

    def test_fig3_all_ones(self, capsys, fig3_file):
        code, out, _ = run(capsys, "dump", "--graph", fig3_file, "--l0", "1", "--l1", "2")
        assert code == 0
        for line in out.splitlines()[1:-1]:
            assert line.endswith(",1")

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "dump", "--graph", str(tmp_path / "nope.edges"),
                             "--l0", "1", "--l1", "2")
        assert code == 1
        assert out == ""  # no partial output
        assert "error" in err


class TestUsageErrors:
    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_requires_graph_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["place", "--l0", "1"])
