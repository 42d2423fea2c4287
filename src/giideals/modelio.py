"""JSON documents: model dispatch, family serialization, fingerprints.

Three document schemas cross the package boundary (see the README for
examples):

* kgraph model: ``{"kind": "kgraph", "rank": k, "vertices": [...],
  "adjacency": [...]}``;
* dynsys model: ``{"kind": "dynsys", "rank": d, "points": [...],
  "maps": [...]}``;
* family: ``{"rank": k, "sets": {"": [...], "1": [...], "1,2": [...]}}`` with
  one key per direction set (comma-joined sorted elements, "" for the empty
  set) and vertex names as strings.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .core import (
    _is_int,
    DirectionModel,
    IdealFamily,
    InvalidInputError,
    canonical_masks,
    check_family,
    label_to_mask,
    mask_label,
)
from .dynsys import load_dynsys
from .kgraph import load_kgraph


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc) -> str:
    """Deterministic one-line JSON used for hashing and stdout."""
    return _CANONICAL.encode(doc)


def fingerprint(doc) -> str:
    """Stable short identifier of a JSON document."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


def load_model(doc) -> DirectionModel:
    """Dispatch a model document on its "kind" field."""
    if not isinstance(doc, dict):
        raise InvalidInputError("model document must be a JSON object")
    kind = doc.get("kind")
    if kind == "kgraph":
        return load_kgraph(doc)
    if kind == "dynsys":
        return load_dynsys(doc)
    raise InvalidInputError(f'unknown model kind {kind!r} (want "kgraph" or "dynsys")')


def load_model_path(path) -> DirectionModel:
    return load_model(read_json(path))


def model_fingerprint(model: DirectionModel) -> str:
    return fingerprint(model.to_doc())


def family_to_doc(model: DirectionModel, family) -> dict:
    """The family document ``{"rank": k, "sets": {label: [names]}}``.

    The family is validated once, by :func:`check_family`.  ``sets`` keys
    are in :func:`canonical_masks` order, names in vertex order.  This is
    the one renderer of families: a lattice node's id is the fingerprint of
    this document, and both lattice exports read its ``sets``.
    """
    fam = check_family(model, family)
    names = model.vertex_names
    return {
        "rank": model.rank,
        "sets": {
            mask_label(m): [names[v] for v in range(len(names)) if fam[m] >> v & 1]
            for m in canonical_masks(model.rank)
        },
    }


def family_from_doc(model: DirectionModel, doc) -> IdealFamily:
    if not isinstance(doc, dict) or "sets" not in doc:
        raise InvalidInputError('family document must be an object with "sets"')
    if not _is_int(doc.get("rank")) or doc["rank"] != model.rank:
        raise InvalidInputError(
            f"family rank {doc.get('rank')!r} does not match model rank {model.rank}"
        )
    sets = doc["sets"]
    if not isinstance(sets, dict):
        raise InvalidInputError('"sets" must map direction-set labels to vertex lists')
    nmasks = 1 << model.rank
    want = {mask_label(m) for m in range(nmasks)}
    got = set(sets)
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise InvalidInputError(
            f"family keys mismatch: missing {missing}, unexpected {extra}"
        )
    out = [0] * nmasks
    for label, names in sets.items():
        if not isinstance(names, list):
            raise InvalidInputError(f"entry {label!r} must be a list of vertex names")
        out[label_to_mask(label, model.rank)] = model.set_of_names(names)
    return tuple(out)


def family_from_path(model: DirectionModel, path) -> IdealFamily:
    return family_from_doc(model, read_json(path))


def read_json(path):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {p}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{p} is not valid JSON: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is invalid input."""
    p = Path(path)
    try:
        p.write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {p}: {exc}") from None
