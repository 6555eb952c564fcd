"""CLI behavior: sources, output shapes, exit codes.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 not-X-top, 4 semiring axiom failure, 141 output pipe closed by its
reader.
"""

import io
import json

import pytest

from xtoplat import FiniteLattice
from xtoplat.cli import main
from xtoplat.formats import dumps, lattice_to_json
from xtoplat.poset import _bits, _mask, poset_from_relation

from .oracles import TABLE_ATTRIBUTES, open_family


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# the Boolean semiring {0, 1}, its tables given by element index
BOOLEAN_SEMIRING = {
    "labels": ["0", "1"],
    "add": [[0, 1], [1, 1]],
    "mul": [[0, 0], [0, 1]],
    "zero": 0,
    "one": 1,
}


def m3_space_json():
    P = poset_from_relation(
        ["bot", "p", "q", "r", "top"],
        [("bot", "p"), ("bot", "q"), ("bot", "r"), ("p", "top"), ("q", "top"), ("r", "top")],
    )
    return {"lattice": lattice_to_json(FiniteLattice(P)), "X": ["p", "q", "r"]}


class TestClassify:
    def test_forest_t2_t3(self):
        code, text = run(["classify", "--forest", "T2+T3", "--json"])
        assert code == 0
        report = json.loads(text)
        assert report["t_threequarter"] is True
        assert report["t1"] is False

    def test_forest_v2(self):
        code, text = run(["classify", "--forest", "V2", "--json"])
        assert code == 0
        report = json.loads(text)
        assert report["t_half"] is True and report["t_threequarter"] is False

    def test_poset_file_three_chain(self, tmp_path):
        path = tmp_path / "chain3.json"
        path.write_text(
            dumps({"labels": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]})
        )
        code, text = run(["classify", "--poset", str(path), "--json"])
        assert code == 0
        assert json.loads(text)["t_quarter"] is False

    def test_text_output_has_point_table(self):
        code, text = run(["classify", "--chain", "2"])
        assert code == 0
        assert "K.dim: 1" in text and "point" in text

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["classify", "--poset", str(path)])[0] == 2

    def test_empty_poset_exit_2(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(dumps({"labels": [], "leq": []}))
        assert run(["classify", "--poset", str(path)])[0] == 2

    def test_not_xtop_exit_3(self, tmp_path):
        path = tmp_path / "m3.json"
        path.write_text(dumps(m3_space_json()))
        assert run(["classify", "--space", str(path)])[0] == 3

    def test_requires_exactly_one_source(self):
        assert run(["classify"])[0] == 2
        assert run(["classify", "--forest", "T2", "--chain", "3"])[0] == 2

    @pytest.mark.parametrize("command", ["classify", "export"])
    def test_empty_chain_is_one_source_exit_2(self, capsys, command):
        assert run([command, "--chain", "0"]) == (2, "")
        assert capsys.readouterr().err == "error: a chain needs at least one element\n"

    @pytest.mark.parametrize(
        "source, data, message",
        [
            ("--poset", {"labels": "ab"}, "'labels' must be a list of strings"),
            ("--poset", {"labels": ["a", 3]}, "'labels' must be a list of strings"),
            (
                "--space",
                {"lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]}, "X": "a"},
                "'X' must be a list of labels",
            ),
            (
                "--space",
                {"lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]}, "X": ["zz"]},
                "'X' names unknown label 'zz'",
            ),
            (
                "--space",
                {
                    "lattice": {
                        "labels": ["a", "b"],
                        "leq": [["a", "b"]],
                        "meet": [["a", "zz"], ["a", "b"]],
                    },
                    "X": ["a"],
                },
                "'meet' names unknown label 'zz'",
            ),
            (
                "--space",
                {
                    "lattice": {
                        "labels": ["a", "b"],
                        "leq": [["a", "b"]],
                        "meet": ["aa", "ab"],
                    },
                    "X": ["a"],
                },
                "'meet' must be a list of rows, each a list of labels",
            ),
            (
                "--space",
                {
                    "lattice": {
                        "labels": ["a", "b"],
                        "leq": [["a", "b"]],
                        "join": [["a", "b"], ["b", 1]],
                    },
                    "X": ["a"],
                },
                "'join' must be a list of rows, each a list of labels",
            ),
            (
                "--space",
                {
                    "lattice": {"labels": ["a", "b"], "leq": [["a", "b"]], "join": "ab"},
                    "X": ["a"],
                },
                "'join' must be a list of rows, each a list of labels",
            ),
            (
                "--poset",
                {"labels": ["a", "b"], "leq": ["ab"]},
                "'leq' entries must be [smaller, larger] pairs of labels",
            ),
            (
                "--poset",
                {"labels": ["a", "b"], "leq": [["a", 1]]},
                "'leq' entries must be [smaller, larger] pairs of labels",
            ),
            (
                "--poset",
                {"labels": ["a", "b"], "leq": [["a", "b", "b"]]},
                "'leq' entries must be [smaller, larger] pairs of labels",
            ),
            (
                "--poset",
                {"labels": ["a", "b"], "leq": 1},
                "'leq' entries must be [smaller, larger] pairs of labels",
            ),
            (
                "--space",
                {
                    "lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]},
                    "X": ["a"],
                    "closed_sets": 5,
                },
                "'closed_sets' must be a list of label lists",
            ),
            (
                "--space",
                {
                    "lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]},
                    "X": ["a"],
                    "closed_sets": ["a"],
                },
                "'closed_sets' must be a list of label lists",
            ),
            (
                # a misspelt optional field once loaded as a 2-point antichain
                "--poset",
                {"labels": ["a", "b"], "relations": [["a", "b"]]},
                "poset JSON has unknown key 'relations'; the keys are 'labels', 'leq'",
            ),
            (
                # a poset file takes no tables, which only the lattice format names
                "--poset",
                {"labels": ["a"], "meet": [["a"]]},
                "poset JSON has unknown key 'meet'; the keys are 'labels', 'leq'",
            ),
            (
                "--space",
                {"lattice": {"labels": ["a"], "leq": [], "order": []}, "X": []},
                "lattice JSON has unknown key 'order'; "
                "the keys are 'labels', 'leq', 'meet', 'join'",
            ),
            (
                "--space",
                {"lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]}, "X": ["a"], "closed": []},
                "space JSON has unknown key 'closed'; the keys are 'lattice', 'X', 'closed_sets'",
            ),
            (
                # a repeated label in X or in a closed set, and a repeated
                # closed set, were once read into sets and collapsed
                "--space",
                {"lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]}, "X": ["a", "a"]},
                "'X' names label 'a' twice",
            ),
            (
                "--space",
                {
                    "lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]},
                    "X": ["a"],
                    "closed_sets": [[], ["a", "a"], []],
                },
                "'closed_sets' names label 'a' twice in one set",
            ),
            (
                "--space",
                {
                    "lattice": {"labels": ["a", "b"], "leq": [["a", "b"]]},
                    "X": ["a"],
                    "closed_sets": [[], ["a"], []],
                },
                "'closed_sets' lists the closed set [] twice",
            ),
            (
                "--space",
                {
                    "lattice": {
                        "labels": ["a", "b", "c", "d"],
                        "leq": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
                    },
                    "X": ["b", "c"],
                    "closed_sets": [[], ["b"], ["c"], ["c", "b"], ["b", "c"]],
                },
                "'closed_sets' lists the closed set ['b', 'c'] twice",
            ),
        ],
    )
    def test_malformed_labels_exit_2(self, tmp_path, capsys, source, data, message):
        path = tmp_path / "input.json"
        path.write_text(dumps(data))
        code, text = run(["classify", source, str(path)])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_never_builds_the_order_or_tables_of_the_upset_lattice(self, monkeypatch):
        # the DOT export of a poset source reads P alone; with the closed
        # sets it materializes the space, but needs neither the lattice's
        # order nor its tables
        from xtoplat import formats
        from xtoplat.topology import from_poset

        spaces = []

        def recording(P):
            spaces.append(from_poset(P))
            return spaces[-1]

        monkeypatch.setattr(formats, "from_poset", recording)
        argv = ["export", "--format", "dot", "--forest", "V3+V3+V3"]
        assert run(argv)[0] == 0 and spaces == []
        argv.append("--closed-sets")
        assert run(argv)[0] == run(argv)[0] == 0
        assert [space.lattice.n for space in spaces] == [729, 729]
        first, second = (space.lattice for space in spaces)
        assert first == second and hash(first) == hash(second)
        for L in (first, second):
            assert L._order is None
            assert not any(hasattr(L, name) for name in TABLE_ATTRIBUTES)


    @pytest.mark.parametrize(
        "source", [["--forest", "V3+T2+C3"], ["--chain", "5"], ["--poset", None]]
    )
    def test_poset_sources_never_build_the_upset_lattice(
        self, tmp_path, monkeypatch, source
    ):
        from xtoplat import lattice, topology
        from xtoplat.poset import FinitePoset

        def refuse(*args):
            raise AssertionError("the up-set lattice was built")

        monkeypatch.setattr(lattice, "upset_lattice", refuse)
        monkeypatch.setattr(topology, "upset_lattice", refuse)
        monkeypatch.setattr(FinitePoset, "upset_masks", refuse)
        if source[1] is None:
            path = tmp_path / "poset.json"
            path.write_text(
                dumps({"labels": ["a", "b", "c"], "leq": [["a", "b"], ["a", "c"]]})
            )
            source = [source[0], str(path)]
        for argv in (
            ["classify", *source],
            ["classify", *source, "--json"],
            ["export", *source, "--format", "dot"],
        ):
            code, text = run(argv)
            assert code == 0 and text

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--chain", "50"],
            ["classify", "--forest", "T3+V2+C4", "--json"],
            ["classify", "--forest", "T3+V2+C4"],
        ],
    )
    def test_shape_sources_skip_closure_and_validation(self, monkeypatch, argv):
        from xtoplat import poset

        expected = run(argv)

        def refuse(*args):
            raise AssertionError("a closure or validation pass ran")

        monkeypatch.setattr(poset, "_from_pairs", refuse)
        monkeypatch.setattr(poset.FinitePoset, "__init__", refuse)
        assert run(argv) == expected and expected[0] == 0

    @pytest.mark.parametrize(
        "source, points",
        [
            (["--chain", "1000000"], 1000000),
            (["--forest", "C600000"], 600000),
            (["--forest", "T20000+V20000"], 40002),
        ],
    )
    def test_oversized_source_exit_2_before_anything_is_built(
        self, monkeypatch, capsys, source, points
    ):
        import tracemalloc

        from xtoplat.poset import MAX_POINTS, FinitePoset

        def refuse(*args):
            raise AssertionError("rows were built")

        monkeypatch.setattr(FinitePoset, "_written", refuse)
        for argv in (["classify", *source], ["export", *source]):
            tracemalloc.start()
            try:
                result = run(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result == (2, "")
            assert peak < 1 << 20
            assert capsys.readouterr().err == (
                f"error: a chain, tree or forest has at most {MAX_POINTS} points, "
                f"got {points}\n"
            )

    @pytest.mark.parametrize("spec", ["T13", "V18", "T30+V30"])
    def test_wide_forest_labels_stay_distinct(self, spec):
        code, text = run(["classify", "--forest", spec, "--json"])
        assert code == 0
        labels = [p["label"] for p in json.loads(text)["points"]]
        assert len(labels) == len(set(labels))

    def test_long_chain_and_many_component_forest(self):
        # a 500-point chain, as deep as a recursive up-set walk would go,
        # and a forest with 4^20 up-sets, which classify never enumerates
        code, text = run(["classify", "--chain", "500", "--json"])
        assert code == 0 and json.loads(text)["kdim"] == 499
        code, text = run(["classify", "--forest", "+".join(["V3"] * 20), "--json"])
        assert code == 0 and len(json.loads(text)["components"]) == 20


class TestSpec:
    def test_bni_5_4(self):
        code, text = run(["spec", "--bni", "5", "4", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["spec"] == [["0"], ["0", "2", "3", "4"]]
        assert payload["separation"]["t_half"] is True
        assert payload["separation"]["t_threequarter"] is False

    def test_bni_210_0(self):
        # Z/210Z: the 16 ideals dZ/210Z and the 4 primes pZ/210Z, p | 210
        code, text = run(["spec", "--bni", "210", "0", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert len(payload["ideals"]) == 16
        assert [P[:2] for P in payload["spec"]] == [["0", "7"], ["0", "5"], ["0", "3"], ["0", "2"]]

    def test_s3_topology(self):
        code, text = run(["spec", "--s3", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["ideals"] == [["0"], ["0", "a"], ["0", "a", "1"]]
        assert payload["kdim"] == 1
        assert payload["flags"]["is_local"] is True

    def test_drop_zero_subspace(self):
        code, text = run(["spec", "--bni", "6", "3", "--subspace", "drop-zero", "--json"])
        assert code == 0
        payload = json.loads(text)
        sep = payload["separation"]
        assert sep["t_half"] is True and sep["t_threequarter"] is False

    def test_only_the_printed_list_enumerates_ideals(self, monkeypatch):
        # the spectrum, its spaces, the export and the bni sweep read the
        # primes alone; spec enumerates the ideals for the list it prints
        from xtoplat import cli, semiring

        R = semiring.bni(12, 4)
        listed = [[R.labels[a] for a in sorted(_bits(I))] for I in semiring.ideals(R)]

        def refuse(*args):
            raise AssertionError("the ideals were enumerated")

        semiring.spectrum.cache_clear()
        monkeypatch.setattr(semiring, "ideals", refuse)
        monkeypatch.setattr(cli, "ideals", refuse)
        for source in (R, semiring.s3(), semiring.bni(16, 9)):
            semiring.spectrum(source)
            for which in ("all", "max", "min", "drop-zero"):
                semiring.spec_space(source, which)
        assert run(["export", "--format", "json", "--bni", "12", "0"])[0] == 0
        assert run(["verify", "bni", "--max-n", "12"])[0] == 0
        monkeypatch.undo()
        code, text = run(["spec", "--bni", "12", "4", "--json"])
        assert code == 0 and json.loads(text)["ideals"] == listed
        code, text = run(["spec", "--bni", "12", "4"])
        printed = " ".join("{" + ",".join(I) + "}" for I in listed)
        assert code == 0 and f"ideals ({len(listed)}): {printed}\n" in text

    def test_ideal_lists_are_the_subset_scan_in_index_order(self, tmp_path):
        # each ideal printed from its mask, its labels in index order: the
        # table's labels b, a, 10, ... sort unlike their indices, and its
        # ideals {0} × B and {0, a} × {0} tie in size
        from xtoplat.formats import semiring_from_json
        from xtoplat.semiring import bni, s3

        from .oracles import ideals_by_subset_scan, product_semiring

        R = product_semiring(s3(), bni(2, 1))
        table = {
            "labels": ["b", "a", "10", "9", "x", "c"],
            "add": [list(row) for row in R.add],
            "mul": [list(row) for row in R.mul],
            "zero": R.zero,
            "one": R.one,
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        sources = [(["--table", str(path)], semiring_from_json(table)), (["--s3"], s3())]
        sources += [
            (["--bni", str(n), str(i)], bni(n, i)) for n in range(2, 9) for i in range(n)
        ]
        lists = []
        for argv, R in sources:
            scanned = sorted(map(sorted, ideals_by_subset_scan(R)), key=lambda I: (len(I), I))
            listed = [[R.labels[a] for a in I] for I in scanned]
            code, text = run(["spec", *argv, "--json"])
            assert code == 0 and json.loads(text)["ideals"] == listed, argv
            code, text = run(["spec", *argv])
            printed = " ".join("{" + ",".join(I) + "}" for I in listed)
            assert code == 0 and f"ideals ({len(listed)}): {printed}\n" in text, argv
            lists.append(listed)
        # sorting by label would reorder the table's ideals and their members
        by_label = sorted(map(sorted, lists[0]), key=lambda I: (len(I), I))
        assert lists[0][:3] == [["b"], ["b", "a"], ["b", "10"]] != by_label[:3]

    def test_spec_reads_the_prime_order_alone(self, monkeypatch):
        # the report, point rows and opens come off the chosen primes'
        # inclusion order: no radical-ideal lattice, embedding or space
        from xtoplat import semiring, topology
        from xtoplat.formats import report_to_json
        from xtoplat.separation import report_and_points

        sources = {
            ("--bni", "12", "4"): semiring.bni(12, 4),
            ("--bni", "16", "9"): semiring.bni(16, 9),
            ("--bni", "2", "1"): semiring.bni(2, 1),  # drop-zero keeps nothing
            ("--s3",): semiring.s3(),
        }
        selectors = ("all", "max", "min", "drop-zero")
        expected = {}
        for argv, R in sources.items():
            for which in selectors:
                space = semiring.spec_space(R, which)
                opens = [list(space.labels_of(_mask(U))) for U in open_family(space)]
                separation = report_to_json(*report_and_points(space))
                expected[argv, which] = opens, json.loads(dumps(separation))

        def refuse(*args):
            raise AssertionError("a lattice or space was built")

        for module, name in (
            (semiring, "radical_lattice"),
            (semiring, "build_space"),
            (topology, "build_space"),
        ):
            monkeypatch.setattr(module, name, refuse)
        for (argv, which), (opens, separation) in expected.items():
            code, text = run(["spec", *argv, "--subspace", which, "--json"])
            payload = json.loads(text)
            assert code == 0 and payload["opens"] == opens
            assert payload["separation"] == separation
            code, text = run(["spec", *argv, "--subspace", which])
            printed = " ".join("{" + ",".join(U) + "}" for U in opens)
            assert code == 0 and f"topology opens ({which}): {printed}\n" in text

    def test_axiom_error_exit_4(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            dumps(
                {
                    "labels": ["0", "a", "1"],
                    "add": [["0", "a", "1"], ["a", "a", "1"], ["1", "1", "1"]],
                    "mul": [["0", "a", "0"], ["a", "a", "a"], ["0", "a", "1"]],
                    "zero": "0",
                    "one": "1",
                }
            )
        )
        assert run(["spec", "--table", str(path)])[0] == 4

    def test_table_file(self, tmp_path):
        from xtoplat.semiring import s3

        from .oracles import semiring_to_json

        path = tmp_path / "s3.json"
        path.write_text(dumps(semiring_to_json(s3())))
        code, text = run(["spec", "--table", str(path)])
        assert code == 0
        assert "K.dim(R): 1" in text

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("add", [[0, 1], [1, True]], "element True is neither a label nor an index"),
            ("mul", [[0, 0], [0, 1.7]], "element 1.7 is neither a label nor an index"),
            ("zero", False, "element False is neither a label nor an index"),
            ("one", 7, "element index 7 out of range"),
        ],
    )
    def test_entry_neither_label_nor_index_exit_2(
        self, tmp_path, capsys, field, value, message
    ):
        path = tmp_path / "table.json"
        path.write_text(dumps({**BOOLEAN_SEMIRING, field: value}))
        code, text = run(["spec", "--table", str(path)])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("add", 5, "'add' must be a list of rows, each a list of elements"),
            ("labels", "01", "'labels' must be a list of strings"),
            ("mul", [[0, 0], "01"], "'mul' must be a list of rows, each a list of elements"),
            (
                "units",
                [],
                "semiring JSON has unknown key 'units'; "
                "the keys are 'labels', 'add', 'mul', 'zero', 'one'",
            ),
        ],
    )
    def test_malformed_table_exit_2(self, tmp_path, capsys, field, value, message):
        # each of these was once split into characters or raised a TypeError
        path = tmp_path / "table.json"
        path.write_text(dumps({**BOOLEAN_SEMIRING, field: value}))
        code, text = run(["spec", "--table", str(path)])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_one_point_column_per_flag():
    from xtoplat.cli import _POINT_CELLS, _POINT_HEADER
    from xtoplat.separation import POINT_COLUMNS, PointClassification

    assert len(POINT_COLUMNS) == len(PointClassification._fields) - 1
    assert len(_POINT_CELLS) == len(_POINT_HEADER.split()) == len(POINT_COLUMNS)


class TestJsonOutput:
    """Each ``--json`` command prints ``json.dumps(payload, indent=2,
    ensure_ascii=False)`` of the payload it builds, and a newline."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--forest", "T3+V2+C4", "--json"],
            ["classify", "--chain", "1", "--json"],
            *(
                ["spec", *source, "--subspace", which, "--json"]
                for source in (["--bni", "12", "0"], ["--bni", "6", "3"], ["--s3"])
                for which in ("all", "max", "min", "drop-zero")
            ),
            ["verify", "all", "--max-size", "3", "--max-n", "4", "--json"],
            ["export", "--forest", "T2+V2", "--format", "json"],
            ["export", "--bni", "12", "0", "--format", "json"],
        ],
    )
    def test_stdout_is_json_dumps_of_the_payload(self, monkeypatch, argv):
        from xtoplat import cli

        payloads = []

        def recording(data):
            payloads.append(data)
            return dumps(data)

        monkeypatch.setattr(cli, "dumps", recording)
        code, text = run(argv)
        assert code == 0 and len(payloads) == 1
        assert text == json.dumps(payloads[0], indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize(
        "source",
        [["--forest", "T2+V3"], ["--chain", "4"], ["--bni", "12", "0"], ["--s3"]],
    )
    def test_every_export_reads_back_as_a_space(self, tmp_path, source):
        code, text = run(["export", *source, "--format", "json"])
        assert code == 0
        path = tmp_path / "space.json"
        path.write_text(text, encoding="utf-8")
        assert run(["classify", "--space", str(path)])[0] == 0


class TestVerify:
    def test_xct_small(self):
        code, text = run(["verify", "xct", "--max-size", "4"])
        assert code == 0
        assert "PASS xct" in text

    def test_bni_small(self):
        code, text = run(["verify", "bni", "--max-n", "8", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload[0]["suite"] == "bni"
        assert payload[0]["failures"] == []

    def test_json_reports_seconds_per_suite(self):
        code, text = run(["verify", "all", "--max-size", "3", "--max-n", "4", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert [r["suite"] for r in payload] == ["xct", "quarter", "discrete", "forest", "bni"]
        assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in payload)
        # the text output carries no timing
        code, text = run(["verify", "all", "--max-size", "3", "--max-n", "4"])
        assert code == 0 and "second" not in text and len(text.splitlines()) == 5

    def test_forest_small(self):
        code, text = run(["verify", "forest", "--max-size", "5"])
        assert code == 0

    def test_one_analysis_per_space(self, monkeypatch):
        from xtoplat import separation

        analysed = []
        init = separation._Analysis.__init__

        def counting(self, source, *args, **kwargs):
            analysed.append(source)
            init(self, source, *args, **kwargs)

        monkeypatch.setattr(separation._Analysis, "__init__", counting)
        code, text = run(["verify", "forest", "--max-size", "4", "--json"])
        assert code == 0 and len(analysed) == json.loads(text)[0]["instances"]
        analysed.clear()
        code, text = run(["verify", "bni", "--max-n", "5", "--json"])
        # the middle columns B(4,2), B(5,2), B(5,3) also analyse the punctured spectrum
        assert code == 0 and len(analysed) == json.loads(text)[0]["instances"] + 3

    def test_quarter_and_discrete_small(self):
        assert run(["verify", "quarter", "--max-size", "4"])[0] == 0
        assert run(["verify", "discrete", "--max-size", "4"])[0] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["xct", "--max-size", "0"], "--max-size must be at least 1, got 0"),
            (["xct", "--max-size", "-3"], "--max-size must be at least 1, got -3"),
            (["bni", "--max-n", "1"], "--max-n must be at least 2, got 1"),
        ],
    )
    def test_bound_that_sweeps_nothing_exit_2(self, capsys, argv, message):
        code, text = run(["verify", *argv])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("suite", ["xct", "quarter", "discrete", "all"])
    def test_bound_beyond_the_enumeration_exit_2(self, monkeypatch, capsys, suite):
        from xtoplat import verify

        def refuse(n):
            raise AssertionError(f"enumeration started at n={n}")

        monkeypatch.setattr(verify, "all_posets_upto", refuse)
        monkeypatch.setattr(verify, "all_lattices_upto", refuse)
        code, text = run(["verify", suite, "--max-size", "8"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            f"error: --max-size must be at most 7 for verify {suite}, got 8\n"
        )

    def test_forest_takes_a_bound_beyond_the_enumeration(self):
        assert run(["verify", "forest", "--max-size", "8"])[0] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["forest", "--max-size", "14"],
                "--max-size must be at most 13 for verify forest, got 14",
            ),
            (["bni", "--max-n", "121"], "--max-n must be at most 120, got 121"),
            (["bni", "--max-n", "100000"], "--max-n must be at most 120, got 100000"),
            (["all", "--max-n", "121"], "--max-n must be at most 120, got 121"),
        ],
    )
    def test_bound_past_the_cap_exit_2(self, monkeypatch, capsys, argv, message):
        from xtoplat import verify

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")

        for function, _ in verify._SUITES.values():
            monkeypatch.setattr(verify, function, refuse)
        code, text = run(["verify", *argv])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["xct", "--max-n", "5"], "verify xct takes --max-size, not --max-n"),
            (["quarter", "--max-n", "5"], "verify quarter takes --max-size, not --max-n"),
            (
                ["forest", "--max-size", "4", "--max-n", "5"],
                "verify forest takes --max-size, not --max-n",
            ),
            (["bni", "--max-size", "3"], "verify bni takes --max-n, not --max-size"),
            (["bni", "--max-size", "3", "--max-n", "3"], "verify bni takes --max-n, not --max-size"),
        ],
    )
    def test_bound_the_suite_does_not_read_exit_2(
        self, monkeypatch, capsys, argv, message
    ):
        # the bound was once dropped, and the suite ran at its default
        from xtoplat import verify

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")

        for function, _ in verify._SUITES.values():
            monkeypatch.setattr(verify, function, refuse)
        code, text = run(["verify", *argv])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_suites_are_looked_up_when_they_run(self, monkeypatch):
        # a wrapper bound to a suite's name after import is the one called
        from xtoplat import verify

        calls = []
        for function, _ in verify._SUITES.values():
            original = getattr(verify, function)

            def wrapped(*args, _original=original, _name=function, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(verify, function, wrapped)
        results = verify.run_suites("all", max_size=2, max_n=3)
        assert [r.suite for r in results] == ["xct", "quarter", "discrete", "forest", "bni"]
        assert calls == [
            "verify_xct",
            "verify_quarter",
            "verify_discrete",
            "verify_forest",
            "verify_bni_grid",
        ]


class TestExport:
    def test_forest_t5_dot(self):
        code, text = run(["export", "--forest", "T5", "--format", "dot"])
        assert code == 0
        assert text.count("->") == 5
        assert len([line for line in text.splitlines() if line.endswith(";") and "->" not in line and "rank" not in line]) >= 6

    def test_bni_7_1_dot(self):
        code, text = run(["export", "--bni", "7", "1", "--format", "dot"])
        assert code == 0
        # V_2-shaped spectrum: {0} under 2B and 3B
        assert text.count("->") == 2

    def test_empty_poset_exit_2(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(dumps({"labels": [], "leq": []}))
        assert run(["export", "--poset", str(path)])[0] == 2

    def test_long_chain_dot(self):
        # the up-set walk of a 500-chain is 500 splits deep
        code, text = run(["export", "--format", "dot", "--chain", "500"])
        assert code == 0
        assert text.count("->") == 499

    def test_json_format_round_trips(self):
        code, text = run(["export", "--forest", "T2", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert set(payload) == {"lattice", "X", "closed_sets"}

    def test_byte_stable(self):
        a = run(["export", "--bni", "12", "0", "--format", "json"])[1]
        b = run(["export", "--bni", "12", "0", "--format", "json"])[1]
        assert a == b

    def test_oversized_json_lattice_exit_2_before_its_tables(self, monkeypatch, capsys):
        # 9 × C2 has 19,683 up-sets, so each table would hold 3.9 × 10^8 cells
        import time

        from xtoplat.formats import MAX_JSON_ELEMENTS
        from xtoplat.lattice import UpsetLattice

        def refuse(*args):
            raise AssertionError("the order or a table was built")

        monkeypatch.setattr(UpsetLattice, "poset", property(refuse))
        monkeypatch.setattr(UpsetLattice, "meet", refuse)
        monkeypatch.setattr(UpsetLattice, "join", refuse)
        start = time.perf_counter()
        assert run(["export", "--forest", "+".join(["C2"] * 9), "--format", "json"]) == (2, "")
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == (
            "error: the JSON lattice export writes |L|² table cells and stops at "
            f"{MAX_JSON_ELEMENTS} elements; this lattice has 19683\n"
        )

    def test_json_lattice_cap_is_inclusive(self, monkeypatch):
        # the up-set lattice of a 7-chain has 8 elements
        from xtoplat import formats

        expected = run(["export", "--chain", "7", "--format", "json"])
        monkeypatch.setattr(formats, "MAX_JSON_ELEMENTS", 8)
        assert run(["export", "--chain", "7", "--format", "json"]) == expected
        assert expected[0] == 0
        monkeypatch.setattr(formats, "MAX_JSON_ELEMENTS", 7)
        assert run(["export", "--chain", "7", "--format", "json"]) == (2, "")

    def test_semiring_json_carries_the_radical_ideal_lattice(self):
        from xtoplat.formats import space_from_json

        code, text = run(["export", "--bni", "12", "0", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        # (6), (3), (2) and R: the intersections of the primes (2) and (3)
        assert payload["lattice"]["labels"] == [
            "{0,6}",
            "{0,3,6,9}",
            "{0,2,4,6,8,10}",
            "{0,1,2,3,4,5,6,7,8,9,10,11}",
        ]
        space = space_from_json(payload)
        assert [list(space.labels_of(C)) for C in space.closed_family] == payload[
            "closed_sets"
        ]


def test_classify_json_is_byte_stable():
    a = run(["classify", "--forest", "T2+V3", "--json"])[1]
    b = run(["classify", "--forest", "T2+V3", "--json"])[1]
    assert a == b


class TestVerifyFailurePath:
    def test_failing_suite_exits_1(self, monkeypatch):
        from xtoplat import cli
        from xtoplat.verify import SuiteFailure, SuiteResult

        def fake(suite, max_size=None, max_n=None):
            return [SuiteResult("xct", 1, 1, [SuiteFailure("instance", "check", "w")])]

        monkeypatch.setattr(cli, "run_suites", fake)
        code, text = run(["verify", "xct"])
        assert code == 1
        assert "FAIL" in text and "instance: check [w]" in text

    def test_a_sweep_names_only_the_instances_that_fail(self, monkeypatch):
        from xtoplat import verify
        from xtoplat.poset import FinitePoset
        from xtoplat.separation import CheckResult

        expected = run(["verify", "quarter", "--max-size", "4"])
        named = []
        covers = FinitePoset.covers

        def counting(P):
            named.append(P)
            return covers(P)

        monkeypatch.setattr(FinitePoset, "covers", counting)
        assert run(["verify", "quarter", "--max-size", "4"]) == expected
        assert named == []
        # one failing check on the 3-chain, the only 3-point poset of height 2
        cross_check = verify.cross_check

        def failing(space, selected):
            results = cross_check(space, selected)
            if space.n_points == 3 and space.lattice.n == 4:
                results = (CheckResult("planted", False, "w"), *results[1:])
            return results

        monkeypatch.setattr(verify, "cross_check", failing)
        code, text = run(["verify", "quarter", "--max-size", "4"])
        assert code == 1 and len(named) == 1
        assert text.splitlines() == [
            expected[1].replace("PASS", "FAIL").replace(" 0 failures", " 1 failures").rstrip(),
            f"  poset(n=3, covers={covers(named[0])}): planted [w]",
        ]

    def test_suite_with_zero_instances_fails(self, monkeypatch):
        from xtoplat import verify

        monkeypatch.setattr(verify, "forest_specs", lambda *args, **kwargs: iter(()))
        code, text = run(["verify", "forest"])
        assert (code, text) == (1, "FAIL forest: 0 instances, 0 checks, 0 failures\n")
        code, text = run(["verify", "forest", "--json"])
        assert code == 1 and json.loads(text)[0]["instances"] == 0


def test_spec_s3_topology_shown():
    code, text = run(["spec", "--s3", "--json"])
    assert code == 0
    assert json.loads(text)["opens"] == [[], ["{0}"], ["{0}", "{0,a}"]]


def test_parser_error_leaves_later_calls_unchanged():
    import subprocess
    import sys

    argv = ["spec", "--bni", "6", "3", "--subspace", "drop-zero"]
    with pytest.raises(SystemExit) as err:
        run(["spec", "--subspace", "nowhere"])
    assert err.value.code == 2
    code, text = run(argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "xtoplat", *argv], capture_output=True, text=True
    )
    assert fresh.returncode == code == 0
    assert fresh.stdout == text


# command lines of the shapes the benchmark runs, each read in one pass
ONE_PASS_LINES = [
    ["spec", "--bni", "10", "6"],
    ["spec", "--bni", "16", "3", "--subspace", "drop-zero"],
    ["spec", "--bni", "30", "15"],
    ["spec", "--s3"],
    ["classify", "--forest", "T2+V3+C2"],
    ["classify", "--json", "--forest", "C5+C6+C5"],
    ["verify", "xct", "--max-size", "5"],
    ["verify", "forest", "--max-size", "7"],
    ["export", "--bni", "12", "6", "--format", "json", "--subspace", "max"],
    ["spec", "--bn", "3", "1"],  # an abbreviation
    ["spec", "--subspace=min", "--s3"],
    ["verify", "--", "bni"],
    ["spec"],  # no source: refused after the parse
]

# command lines the parse refuses or answers with help, and the one a
# subcommand leaves partly unread
REFUSED_LINES = [
    ["spec", "--bni", "3", "1", "extra"],
    ["spec", "--s3", "--"],
    ["spec", "--", "--s3"],
    ["--", "spec", "--s3"],
    ["spec", "--bni", "3"],
    ["spec", "--bni=3", "1"],
    ["spec", "--subspace", "nowhere"],
    ["verify", "bni", "--max-n", "x"],
    ["classify", "--chain"],
    ["nope"],
    [],
    ["-h"],
    ["spec", "-h"],
]


class TestOnePassParse:
    """``cli._parse`` against the full parser: the same namespace for every
    line, and the same exit code, stdout and stderr for every refusal."""

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result = parse(list(argv))
        except SystemExit as exit:
            result = ("exit", exit.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", ONE_PASS_LINES + REFUSED_LINES)
    def test_matches_the_full_parser(self, capsys, argv):
        from xtoplat.cli import _parse, build_parser

        expected = self.outcome(build_parser().parse_args, argv, capsys)
        assert self.outcome(_parse, argv, capsys) == expected
        # a refusal or help is ("exit", code), a parsed line a namespace
        assert isinstance(expected[0], tuple) == (argv in REFUSED_LINES)

    def test_every_spec_grid_line_matches_the_full_parser(self):
        from xtoplat.cli import _parse, build_parser

        parser = build_parser()
        subspaces = [[], *(["--subspace", which] for which in ("max", "min", "drop-zero"))]
        for n in range(2, 17):
            for i in range(n):
                for subspace in subspaces:
                    for json_flag in ([], ["--json"]):
                        argv = ["spec", "--bni", str(n), str(i), *subspace, *json_flag]
                        assert _parse(argv) == parser.parse_args(argv), argv

    @pytest.mark.parametrize("argv", ONE_PASS_LINES)
    def test_a_subcommand_line_takes_one_parse(self, monkeypatch, argv):
        import argparse

        from xtoplat.cli import _parse

        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        _parse(argv)
        assert calls == [f"xtoplat {argv[0]}"]


def test_console_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "xtoplat", "classify", "--forest", "V2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_half"] is True


def test_a_closed_pipe_exits_141_with_nothing_on_stderr():
    # a reader that stops early, as `head` does, is not a parse error
    import os
    import subprocess
    import sys

    export = ["export", "--forest", "C2+C2+C2+C2+C2", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "xtoplat", *export],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "latti'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (err, proc.returncode) == (b"", 141)
    # a short output sits in the stdout buffer until the flush; with no
    # reader at all and a buffered stdout, that flush is what fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        short = subprocess.run(
            [sys.executable, "-m", "xtoplat", "classify", "--chain", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (short.stderr, short.returncode) == (b"", 141)
