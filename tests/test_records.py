"""The result records: immutable, compared field by field, and cheap to import.

The value records, ``XTopSpace`` among them, are ``typing.NamedTuple``s;
``SuiteResult`` is a plain class.  No module of the package imports
``dataclasses``, whose import and per-class code generation cost more at
start-up than a typical CLI job.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import xtoplat
from xtoplat import (
    SeparationReport,
    SpectrumReport,
    SubsetViolationError,
    XTopSpace,
    bni,
    build_space,
    covariety,
    cross_check,
    forest,
    from_poset,
    has_complete_max_property,
    ideals,
    is_xtop_by_irreducibility,
    is_xtop_by_unions,
    jacobson_and_prime_meets,
    radical_info,
    report_and_points,
    spectrum,
    upset_lattice,
    variety,
    verify_bni,
)
from xtoplat import cli
from xtoplat.formats import dumps, report_to_json
from xtoplat.verify import SuiteFailure, SuiteResult

REPORT_KEYS = [
    "kdim",
    "t0",
    "t_quarter",
    "t_half",
    "t_threequarter",
    "t1",
    "t2",
    "t1half_kc",
    "r0",
    "r1",
    "tf",
    "es",
    "discrete",
    "irreducible",
    "connected",
    "sober",
    "spectral",
    "quasi_hausdorff",
    "totally_separated",
    "totally_disconnected",
    "ind_zero_dim",
    "stone",
    "amin",
    "bmax",
    "pamin",
    "pbmax",
    "complete_max_property",
    "components",
    "quasicomponents",
]

POINT_KEYS = [
    "label",
    "is_closed",
    "is_kerneled",
    "is_isolated",
    "is_regular_open",
    "is_excluded",
    "is_min",
    "is_max",
    "in_SI",
    "in_CSI",
    "is_abs_min",
    "is_barely_max",
]


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(xtoplat.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import xtoplat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def _frozen_records():
    space = from_poset(forest([("T", 2), ("T", 3)]))
    report, points = report_and_points(space)
    R = bni(6, 2)
    return [
        points[0],
        report,
        jacobson_and_prime_meets(space),
        cross_check(space)[0],
        radical_info(space.lattice, space.points),
        space,
        R,
        spectrum(R),
        verify_bni(6, 2),
        SuiteFailure("instance", "check"),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_records_reject_attribute_assignment(record):
    field = next(iter(vars(record))) if hasattr(record, "__dict__") else record._fields[0]
    value = getattr(record, field)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


def test_plain_records_compare_and_hash_by_fields():
    P = forest([("T", 2), ("C", 2)])
    first, second = from_poset(P), from_poset(P)
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != XTopSpace(first.lattice, (0,) * first.lattice.n)


def test_space_is_its_lattice_and_variety_masks():
    # X is read off the masks as V(bottom); nothing mirrors them
    from xtoplat import topology

    space = from_poset(forest([("T", 2), ("C", 2)]))
    assert XTopSpace._fields == ("lattice", "variety_masks") and isinstance(space, tuple)
    for name in ("varieties", "open_family", "variety", "covariety", "kernel"):
        assert not hasattr(space, name), name
    assert not hasattr(topology, "cached_property")
    bottom = space.variety_masks[space.lattice.bottom]
    assert space.points == sum(1 << x for x in range(space.lattice.n) if bottom >> x & 1)


def test_suite_result_is_mutable_and_compared_by_fields():
    a, b = SuiteResult("xct"), SuiteResult("xct")
    assert a == b and a.failures is not b.failures
    a.expect("i", False, "check", "w")
    assert a != b and a.checks == 1
    assert a.failures == [SuiteFailure("i", "check", "w")]
    b.checks, b.failures = 1, [SuiteFailure("i", "check", "w")]
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


class TestEmbeddedSubsetValidates:
    """X, the subset embedded in L \\ {top}, is a mask of element indices,
    and every public entry that takes it runs the one carrier check: an
    index at or past |L| raises IndexError naming the lowest, and a
    negative int, a bool or a non-int is refused."""

    L, _ = upset_lattice(forest([("T", 2)]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda L, m: build_space(L, m),
            lambda L, m: build_space(L=L, X=m),
            lambda L, m: build_space(X=m, L=L),
        ],
        ids=["positional", "keywords", "keywords-reversed"],
    )
    def test_every_constructor_call_checks(self, make):
        L = self.L
        with pytest.raises(SubsetViolationError, match="top element"):
            make(L, 1 << L.bottom | 1 << L.top)
        with pytest.raises(IndexError, match=f"index {L.n} out of range"):
            make(L, 1 << L.n + 3 | 1 << L.n | 1 << L.bottom)
        for refused, error in ((-1, ValueError), (True, TypeError), ({L.bottom}, TypeError)):
            with pytest.raises(error):
                make(L, refused)

    @pytest.mark.parametrize(
        "entry, out_of_range",
        [
            (build_space, IndexError),
            (radical_info, IndexError),
            (is_xtop_by_unions, IndexError),
            (is_xtop_by_irreducibility, IndexError),
            (has_complete_max_property, IndexError),
            (lambda L, X: variety(L, X, L.bottom), IndexError),
            (lambda L, X: covariety(L, X, L.bottom), IndexError),
            # a subspace's Y must lie inside X, which holds neither
            (lambda L, X: build_space(L, 1 << L.bottom).subspace(X), SubsetViolationError),
        ],
        ids=[
            "build_space",
            "radical_info",
            "is_xtop_by_unions",
            "is_xtop_by_irreducibility",
            "has_complete_max_property",
            "variety",
            "covariety",
            "XTopSpace.subspace",
        ],
    )
    def test_every_entry_rejects_top_and_out_of_range(self, entry, out_of_range):
        L = self.L
        with pytest.raises(SubsetViolationError):
            entry(L, 1 << L.bottom | 1 << L.top)
        with pytest.raises(out_of_range):
            entry(L, 1 << L.n)
        for refused, error in ((-1, ValueError), (True, TypeError), ({L.bottom}, TypeError)):
            with pytest.raises(error):
                entry(L, refused)


def test_mask_readers_refuse_what_is_not_a_mask():
    # a negative int has infinitely many bits, so reading one bit by bit
    # would never end; a bool or a set is not a mask
    from xtoplat.poset import is_tree_component

    P = forest([("T", 2)])
    L, _ = upset_lattice(P)
    space = from_poset(P)
    readers = [
        L.maximals_of,
        L.variety_masks,
        space.labels_of,
        space.closure,
        space.subspace,
        lambda S: is_tree_component(P, S),
    ]
    for read in readers:
        for refused, error in ((-1, ValueError), (False, TypeError), ({0}, TypeError)):
            with pytest.raises(error):
                read(refused)
    with pytest.raises(IndexError, match=f"index {L.n} out of range"):
        L.maximals_of(1 << L.n | 1)
    with pytest.raises(IndexError, match=f"index {L.n + 2} out of range"):
        L.variety_masks(1 << L.n + 2)


def test_report_to_json_key_order():
    report, points = report_and_points(forest([("T", 2), ("V", 3)]))
    data = report_to_json(report, points)
    assert list(data) == REPORT_KEYS + ["points"]
    assert [list(row) for row in data["points"]] == [POINT_KEYS] * len(points)
    assert list(report._asdict()) == list(SeparationReport._fields) == REPORT_KEYS
    written = json.loads(dumps(data))
    assert written["components"] == [list(part) for part in report.components]


def test_spec_flags_are_the_boolean_fields_of_the_report():
    report = spectrum(bni(6, 2))
    flags = [name for name in SpectrumReport._fields if type(getattr(report, name)) is bool]
    assert cli._SPECTRUM_FLAGS == flags
    out = io.StringIO()
    assert cli.main(["spec", "--bni", "6", "2", "--json"], out=out) == 0
    assert list(json.loads(out.getvalue())["flags"]) == flags


def test_equal_semirings_share_the_caches():
    R, S = bni(16, 3), bni(16, 3)
    assert R is not S and R == S and hash(R) == hash(S)
    ideals.cache_clear()
    spectrum.cache_clear()
    # each spec job builds its own semiring; the --subspace jobs hit the
    # entries the first one made
    for which in ("all", "max", "min", "drop-zero"):
        assert cli.main(["spec", "--bni", "16", "3", "--subspace", which], out=io.StringIO()) == 0
    assert ideals.cache_info().misses == spectrum.cache_info().misses == 1
    assert ideals.cache_info().hits >= 3 and spectrum.cache_info().hits >= 3
