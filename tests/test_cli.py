import json
import random

import numpy as np
import pytest

from opdiv import brute_force_best, cli, graphs, verify, write_edge_list
from opdiv.cli import main
from opdiv.placement import exact_engine
from opdiv.verify import random_tree

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


def round_trip_place_json(g, l0, R_spec):
    """`place --format json` rebuilt here from the score table and both argmax sets."""
    R = cli._resolve_r(R_spec, g.n)
    result = brute_force_best(g, l0, R)
    payload = {
        "R": R,
        "scores": {
            str(v): {"simpson": s.simpson, "shannon": s.shannon}
            for v, s in sorted(result.scores.items())
        },
        "argmax_simpson": sorted(result.argmax_simpson),
        "argmax_shannon": sorted(result.argmax_shannon),
        "l0": l0,
        "max_diversity": cli._bounds(g.n - 2, R),
    }
    prediction = cli._prediction(g, l0, R)
    if prediction:
        kind, pred = prediction
        payload["prediction"] = {
            "topology": kind,
            "nodes": sorted(pred),
            "agrees": pred <= result.argmax_simpson and pred <= result.argmax_shannon,
        }
    return json.dumps(payload, indent=2) + "\n"


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

    @pytest.mark.parametrize("spec,l0,R", [
        ("cycle:30", 5, "nf"),
        ("path:12", 3, "2"),
        ("ytree:2,4,2", 1, "nf"),
        ("cycle:9", 2, "3"),
    ])
    def test_json_matches_round_trip_of_to_json(self, capsys, spec, l0, R):
        code, out, _ = run(capsys, "place", "--gen", spec, "--l0", str(l0), "--R", R,
                           "--format", "json")
        assert code == 0
        assert out == round_trip_place_json(graphs.generate(spec), l0, R)

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

    @pytest.mark.parametrize("suite", sorted(cli.MIN_BOUNDS))
    def test_bound_below_minimum_is_an_input_error(self, capsys, suite):
        least = cli.MIN_BOUNDS[suite]
        code, out, err = run(capsys, "verify", suite, "--bound", str(least - 1))
        assert code == 1 and out == ""
        assert err == f"error: --bound for {suite} must be at least {least}, got {least - 1}\n"

    @pytest.mark.parametrize("suite", sorted(cli.MIN_BOUNDS))
    def test_bound_at_minimum_runs(self, capsys, suite):
        least = cli.MIN_BOUNDS[suite]
        code, out, err = run(capsys, "verify", suite, "--bound", str(least))
        assert code == 0 and err == ""
        assert out.endswith(f"{suite} (bound {least}): 0 counterexample(s)\n")

    def test_minimum_bounds_cover_every_suite(self):
        assert cli.MIN_BOUNDS.keys() == cli.DEFAULT_BOUNDS.keys() == verify.SUITES.keys()
        assert all(cli.MIN_BOUNDS[s] <= cli.DEFAULT_BOUNDS[s] for s in cli.MIN_BOUNDS)


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

    @pytest.mark.parametrize("snap", ["0", "1e-09"])
    def test_histogram_is_the_place_count_row_on_trees_and_cycles(self, capsys, tmp_path, snap):
        tree = random_tree(24, random.Random(5))
        (tmp_path / "tree").write_text(write_edge_list(tree))
        sources = [(graphs.generate(s), ["--gen", s]) for s in ("path:17", "cycle:23", "ytree:3,5,2")]
        sources.append((tree, ["--graph", str(tmp_path / "tree")]))
        parser = cli.build_parser()  # built once: argparse setup would dominate the run time
        for g, source in sources:
            n_f = g.n - 2
            for l0 in (1, 5):
                F = np.flatnonzero(np.arange(g.n) != l0 - 1)
                for R in (2, 5, n_f):
                    table = exact_engine(g)(g, l0, F, R, float(snap))
                    result = brute_force_best(g, l0, R, snap_tol=float(snap))
                    for l1, row in zip((F + 1).tolist(), table.tolist()):
                        args = parser.parse_args(["dump", *source, "--l0", str(l0), "--l1", str(l1),
                                                  "--R", str(R), "--snap-tol", snap])
                        assert args.func(args) == 0
                        counts = json.loads(capsys.readouterr().out.splitlines()[-1])["counts"]
                        assert counts == row
                        simpson = 1.0 - sum(c * (c - 1) for c in counts) / (n_f * (n_f - 1))
                        assert simpson == result.scores[l1].simpson

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "dump", "--graph", str(tmp_path / "nope.edges"),
                             "--l0", "1", "--l1", "2")
        assert code == 1
        assert out == ""  # no partial output
        assert "error" in err


class TestUsageErrors:
    @pytest.mark.parametrize("command", [
        ["place", "--gen", "path:6", "--l0", "1"],
        ["dump", "--gen", "path:6", "--l0", "1", "--l1", "6"],
    ], ids=["place", "dump"])
    @pytest.mark.parametrize("snap", ["-1e-12", "0.25", "nan", "inf"])
    def test_snap_tol_outside_its_domain(self, capsys, command, snap):
        code, out, err = run(capsys, *command, "--R", "2", f"--snap-tol={snap}")
        assert code == 1 and out == ""
        assert "outside [0, 1/(2R)) = [0, 0.25) for R = 2" in err

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_requires_graph_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["place", "--l0", "1"])
