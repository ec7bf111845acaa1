"""Golden output: SHA-256 digests of CLI runs, pinned in `golden.sha256`.

Each case runs `opdiv.cli.main` and hashes its exit code, stdout and stderr,
so error runs are pinned too. A change that alters any byte of these outputs
fails here. When a change of output is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden.sha256

and say why in the change's notes. JSON scores and `dump`'s opinion CSV are
left out (only `dump`'s histogram line is hashed): their 17-digit floats may
differ in the last place across numpy builds.
"""
import contextlib
import hashlib
import io
import pathlib
import random
import sys

from opdiv import build_graph, cli, write_edge_list
from opdiv.verify import random_tree

DIGESTS = pathlib.Path(__file__).with_name("golden.sha256")


def graph_sources(directory):
    """Graph arguments for a path, a cycle, a Y-tree, a Prüfer tree and a tree plus edges."""
    rng = random.Random(20181108)
    tree = random_tree(40, rng)
    edges = set(random_tree(30, rng).edges)
    while len(edges) < 32:
        edges.add(tuple(sorted(rng.sample(range(1, 31), 2))))
    sources = {spec: ["--gen", spec] for spec in ("path:17", "cycle:23", "ytree:3,5,2")}
    for label, g in (("tree:40", tree), ("tree+edges:30", build_graph(30, sorted(edges)))):
        file = pathlib.Path(directory) / label.replace(":", "-")
        file.write_text(write_edge_list(g))
        sources[label] = ["--graph", str(file)]
    return sources


def cases(directory):
    """(name, argv, histogram line only) for every pinned run."""
    for label, source in graph_sources(directory).items():
        for l0 in (1, 5, 12):
            for R in ("2", "5", "nf"):
                place = ["place", *source, "--l0", str(l0), "--R", R]
                for fmt in ("table", "csv"):
                    yield f"place {label} l0={l0} R={R} {fmt}", [*place, "--format", fmt], False
                for snap in ("1e-06", "0"):
                    name = f"place {label} l0={l0} R={R} snap={snap}"
                    yield name, [*place, "--snap-tol", snap], False
        for l0, l1 in ((1, 3), (5, 11)):
            for R in ("2", "5", "nf"):
                argv = ["dump", *source, "--l0", str(l0), "--l1", str(l1), "--R", R]
                yield f"dump {label} l0={l0} l1={l1} R={R}", argv, True
    for suite in sorted(cli.DEFAULT_BOUNDS):
        yield f"verify {suite}", ["verify", suite], False


def digest(argv, histogram_only):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if histogram_only:
        text = text.splitlines(keepends=True)[-1] if text else ""
    return hashlib.sha256(f"{code}\n{text}{err.getvalue()}".encode()).hexdigest()


def digests(directory):
    return {name: digest(argv, h) for name, argv, h in cases(directory)}


def test_outputs_match_golden_digests(tmp_path):
    want = {}
    for line in DIGESTS.read_text().splitlines():
        value, name = line.split("  ", 1)
        want[name] = value
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in got if got[name] != want[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        for name, value in digests(directory).items():
            sys.stdout.write(f"{value}  {name}\n")
