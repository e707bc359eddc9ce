"""Built-in corpus of small complexes and graphs used by tests and the CLI."""
from __future__ import annotations

from importlib import resources

from ._caps import read_json
from ._record import record
from .complexes import SimplicialComplex

_COMPLEX_NAMES = (
    "rp2_min",
    "sphere_delta3",
    "torus_7",
    "moebius_band",
    "pinched_spheres",
)
_GRAPH_NAMES = ("petersen",)


@record
class CorpusEntry:
    name: str
    kind: str  # "complex" | "graph"
    provenance: str


def _read(name: str) -> dict:
    path = resources.files("systolic").joinpath("data", f"{name}.json")
    return read_json(path.read_bytes(), f"corpus {name}")


def corpus_list() -> list[CorpusEntry]:
    """Names and provenance of every built-in object, complexes first."""
    entries = []
    for name in _COMPLEX_NAMES + _GRAPH_NAMES:
        data = _read(name)
        entries.append(CorpusEntry(name, data["kind"], data["provenance"]))
    return entries


def corpus_complex(name: str) -> SimplicialComplex:
    if name not in _COMPLEX_NAMES:
        raise ValueError(f"unknown corpus complex {name!r}; have {_COMPLEX_NAMES}")
    data = _read(name)
    return SimplicialComplex(data["facets"], data["vertices"])


def corpus_complexes() -> dict[str, SimplicialComplex]:
    return {name: corpus_complex(name) for name in _COMPLEX_NAMES}
