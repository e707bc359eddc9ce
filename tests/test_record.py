"""Every record class against its frozen-dataclass twin (``oracles.dataclass_twin``)."""
import ast
import dataclasses
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import systolic
from systolic import bounds, complexes, genfun, graphs, homology, presentations, sleeves, snf, waring
from systolic._record import asdict, fields, record, trusted
from systolic.corpus import corpus_complex, corpus_list

import oracles

RP2 = corpus_complex("rp2_min")
PENTAGON = graphs.Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
CIRCULANT = graphs.Graph(26, tuple(sorted(
    {tuple(sorted((i, (i + d) % 26))) for i in range(26) for d in (1, 2, 3, 13)}
)))
PRESENTATION = presentations.parse_presentation("a,b,c ; [a,b]c^-5, [a,c], [b,c]")

# two instances of each record class, made by the package where it makes them
SAMPLES = {
    "BoundConstants": lambda: [bounds.BoundConstants(), bounds.BoundConstants(m=2, cm=2.0)],
    "BoundReport": lambda: [bounds.sandwich(10), bounds.sandwich(3)],
    "GroupCountReport": lambda: [bounds.group_count_bound(14), bounds.group_count_bound(300)],
    "UpperBoundIngredients": lambda: [
        bounds.UpperBoundIngredients.make({1: 2.0}), bounds.UpperBoundIngredients(((2, 1.0),), (3.0,))
    ],
    "SimplicialComplex": lambda: [RP2, corpus_complex("torus_7")],
    "BoundaryMatrix": lambda: [oracles.boundary_matrix(RP2, 1), oracles.boundary_matrix(RP2, 2)],
    "CorpusEntry": lambda: corpus_list()[:2],
    "RationalSequence": lambda: [
        genfun.RationalSequence.from_values([1, "1/2", 3]), genfun.RationalSequence((Fraction(2),))
    ],
    "RecurrenceVerdict": lambda: [
        genfun.detect_linear_recurrence(genfun.RationalSequence.from_values([1, 1, 2, 3, 5, 8, 13, 21]), 2),
        genfun.detect_linear_recurrence(genfun.RationalSequence.from_values([2, 3, 5, 7, 11, 13]), 1),
    ],
    "Graph": lambda: [PENTAGON, CIRCULANT],
    "MetricGraph": lambda: [graphs.MetricGraph(PENTAGON, 3), graphs.MetricGraph(PENTAGON, Fraction(1, 3))],
    "HomologySummary": lambda: [homology.homology(RP2), homology.homology(corpus_complex("torus_7"))],
    "TriangleTorsionReport": lambda: [
        homology.check_s2_torsion_bound(RP2), homology.check_s2_torsion_bound(corpus_complex("torus_7"))
    ],
    "Presentation": lambda: [PRESENTATION, presentations.parse_presentation("a ; a^2")],
    "AbelianizedGroup": lambda: [
        presentations.abelianization(PRESENTATION), presentations.AbelianizedGroup(1, ())
    ],
    "CubicalModel": lambda: [sleeves.CubicalModel(3, 7), sleeves.CubicalModel(4, 9)],
    "AssemblyReport": lambda: [
        sleeves.assemble(sleeves.CubicalModel(3, 7), Fraction(1, 5), CIRCULANT),
        sleeves.assemble(sleeves.CubicalModel(3, 7), Fraction(1, 4), CIRCULANT),
    ],
    "SmithForm": lambda: [snf.smith_normal_form([[2, 0], [0, 3]]), snf.smith_normal_form([[1, 2, 3]])],
    "WaringDecomposition": lambda: [waring.min_powers(79, 4), waring.min_powers(23, 3)],
    "FourthPowerReport": lambda: [waring.verify_g4(100), waring.verify_g4(20)],
}


def _record_classes():
    """The record classes of the package, and the oracles' ``BoundaryMatrix``."""
    found = {}
    modules = [
        importlib.import_module(f"systolic.{info.name}") for info in pkgutil.iter_modules(systolic.__path__)
    ]
    for module in [*modules, oracles]:
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "__record_fields__" in vars(obj):
                found[obj.__name__] = obj
    return found


RECORDS = _record_classes()


def _twin_of(instance, twin):
    """The instance of the dataclass twin with the same field values."""
    return twin(**asdict(instance))


def _outcome(make):
    """("made", repr) of what ``make`` returns, or the kind and text of what it
    raises; a FrozenInstanceError counts as the AttributeError it is."""
    try:
        return ("made", repr(make()))
    except (AttributeError, TypeError, ValueError) as exc:
        kind = next(k for k in (AttributeError, TypeError, ValueError) if isinstance(exc, k))
        return (kind.__name__, str(exc))


def _pairs(items):
    return [(a, b) for i, a in enumerate(items) for b in items[i:]]


def test_every_record_class_has_samples():
    assert set(RECORDS) == set(SAMPLES)
    assert "SearchCounts" not in RECORDS  # the one mutable tally is a plain class


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_matches_its_dataclass_twin(name):
    cls, twin = RECORDS[name], oracles.dataclass_twin(RECORDS[name])
    first, second = SAMPLES[name]()
    assert type(first) is cls and first != second
    assert fields(cls) == fields(first) == tuple(f.name for f in dataclasses.fields(twin))
    pairs = [(made, _twin_of(made, twin)) for made in (first, second)]
    pairs.append((cls(**asdict(first)), pairs[0][1]))
    for made, twin_made in pairs:
        assert repr(made) == repr(twin_made)
        assert hash(made) == hash(twin_made)
        assert made != twin_made and twin_made != made
        shallow = {f.name: getattr(twin_made, f.name) for f in dataclasses.fields(twin)}
        assert asdict(made) == shallow
        if not any(dataclasses.is_dataclass(value) for value in shallow.values()):
            assert asdict(made) == dataclasses.asdict(twin_made)
    for (a, twin_a), (b, twin_b) in _pairs(pairs):
        assert (a == b) == (twin_a == twin_b)
        assert (hash(a) == hash(b)) == (hash(twin_a) == hash(twin_b))
    name0, value0 = fields(cls)[0], getattr(first, fields(cls)[0])
    for attempt in (
        lambda c: setattr(c, name0, value0),
        lambda c: delattr(c, name0),
        lambda c: setattr(c, "extra", 1),
    ):
        assert _outcome(lambda: attempt(first)) == _outcome(lambda: attempt(_twin_of(first, twin)))
        assert _outcome(lambda: attempt(first))[0] == "AttributeError"
    values = asdict(first)
    for make in (
        lambda c: c(**values, a=1),  # an unknown keyword
        lambda c: c(),  # every required field missing
        lambda c: c(*list(values.values())[:1]),  # all but the first missing, if required
        lambda c: c(value0, **values),  # the first field twice
        lambda c: c(*values.values(), value0),  # one positional too many
        lambda c: c(*values.values()),  # every field by position
    ):
        assert _outcome(lambda: make(cls)) == _outcome(lambda: make(twin))
    assert "unexpected keyword argument 'a'" in _outcome(lambda: cls(**values, a=1))[1]


# A change per class that its __post_init__ refuses or normalises.
REPLACEMENTS = [
    ("BoundConstants", {"m": 0}),
    ("BoundConstants", {"cm": float("inf")}),
    ("UpperBoundIngredients", {"base": ((0, 1.0),)}),
    ("SimplicialComplex", {"facets": ((1, 0),)}),
    ("RationalSequence", {"terms": ()}),
    ("Graph", {"edges": ((4, 0), (1, 0))}),
    ("Graph", {"edges": ((0, 0),)}),
    ("MetricGraph", {"edge_length": 2}),
    ("MetricGraph", {"edge_length": -1}),
    ("Presentation", {"relators": (((3, 1),),)}),
    ("AbelianizedGroup", {"torsion_factors": (2, 3)}),
    ("CubicalModel", {"c": 6}),
    ("SmithForm", {"invariant_factors": (2, 3)}),
    ("WaringDecomposition", {"parts": (1,)}),
    ("BoundConstants", {"a": 1.0}),
    ("Presentation", {"relators": (((0, 0),),)}),
    ("Presentation", {"relators": (((1, 1), (0, 1)),)}),
    ("Presentation", {"relators": 5}),
    ("Presentation", {"relators": ((0, 1),)}),
    ("Presentation", {"relators": [((0, 1),)]}),
    ("CubicalModel", {"m": 3.5}),
    ("CubicalModel", {"c": 9.5}),
]


@pytest.mark.parametrize("name, changes", REPLACEMENTS)
def test_replace_runs_post_init_as_the_twin_does(name, changes):
    first, twin = SAMPLES[name]()[0], oracles.dataclass_twin(RECORDS[name])
    values = {**asdict(first), **changes}
    assert _outcome(lambda: RECORDS[name](**values)) == _outcome(lambda: twin(**values))


@pytest.mark.parametrize("relators, message", [
    (5, "relators of type int are not a tuple of relators"),
    (((0, 1),), "relator (0, 1) is not a tuple of (generator, total) pairs"),
    ([((0, 1),)], "relators of type list are not a tuple of relators"),
    ((((0, 1, 2),),), "relator ((0, 1, 2),) is not a tuple of (generator, total) pairs"),
    (([0, 1],), "relator [0, 1] is not a tuple of (generator, total) pairs"),
])
def test_presentation_refuses_relators_of_another_shape(relators, message):
    # the first two raised TypeError, and a list of rows was kept, which made the record unhashable
    with pytest.raises(ValueError) as refused:
        presentations.Presentation(2, relators)
    assert str(refused.value) == message


def test_trusted_makes_the_record_without_post_init():
    made = trusted(graphs.Graph, 5, PENTAGON.edges)
    assert (made, hash(made), repr(made)) == (PENTAGON, hash(PENTAGON), repr(PENTAGON))
    assert made.adjacency == PENTAGON.adjacency
    assert trusted(graphs.Graph, 2, ((1, 0),)).edges == ((1, 0),)  # not checked, not normalised


def test_only_builders_that_prove_their_output_call_trusted():
    # every other record is made by its constructor, the one check of its
    # invariant; from_facets was a second path around it
    calls, names = [], set()
    for path in sorted(Path(systolic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): f"{path.stem}.{top.name}"
                 for top in tree.body if isinstance(top, ast.FunctionDef) for node in ast.walk(top)}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            names.add(name)
            if isinstance(node, ast.Call) and "trusted" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(owner.get(id(node), path.stem))
    assert sorted(calls) == ["graphs.construct_regular_girth", "presentations.parse_presentation"]
    assert "from_facets" not in names


def test_cached_property_is_kept_per_instance():
    torus = corpus_complex("torus_7")
    faces = torus.faces_by_dim
    assert torus.faces_by_dim is faces and "faces_by_dim" in vars(torus)
    copy = complexes.SimplicialComplex(torus.facets, torus.vertex_count)
    assert "faces_by_dim" not in vars(copy) and copy.faces_by_dim == faces


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError, match="without a default follows"):
        @record
        class Broken:
            first: int = 0
            second: int
