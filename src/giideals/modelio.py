"""JSON documents: model loading, family serialization, fingerprints.

Two document formats cross the package boundary (see the README for
examples):

* model: ``{"kind": ..., "rank": k, <names key>: [...], <entries key>:
  [...]}``, one entry per direction.  Each backend class names its kind and
  keys (kgraph: ``vertices``, ``adjacency``; dynsys: ``points``, ``maps``);
  :data:`MODEL_KINDS` maps kinds to classes; ``DirectionModel.to_doc``
  writes and :func:`load_model` reads from the same class attributes;
* family: ``{"rank": k, "sets": {"": [...], "1": [...], "1,2": [...]}}``, one
  key per direction set (its :func:`~giideals.core.mask_label`, both ways)
  and vertex names as strings.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .core import (
    _is_int,
    DirectionModel,
    IdealFamily,
    InvalidInputError,
    canonical_masks,
    check_family,
    mask_label,
)
from .dynsys import PartialMapSystem
from .kgraph import KGraphSkeleton

#: The one table of model kinds, each mapped to its class; the class names
#: its document keys.
MODEL_KINDS = {cls.kind: cls for cls in (KGraphSkeleton, PartialMapSystem)}


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc) -> str:
    """Deterministic one-line JSON used for hashing and stdout."""
    return _CANONICAL.encode(doc)


def fingerprint(doc) -> str:
    """Stable short identifier of a JSON document."""
    return _digest(canonical_json(doc))


def _digest(text: str) -> str:
    import hashlib  # only fingerprints need it

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_model(doc) -> DirectionModel:
    """Check a model document's envelope and build the model; the
    constructor checks each direction's entry, and a ``TypeError`` or
    ``ValueError`` it meets on malformed data is invalid input too."""
    if not isinstance(doc, dict):
        raise InvalidInputError("model document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        want = " or ".join(map(json.dumps, MODEL_KINDS))
        raise InvalidInputError(f"unknown model kind {kind!r} (want {want})")
    cls = MODEL_KINDS[kind]
    names_key, data_key, noun = cls.names_key, cls.entries_key, cls.entry_noun
    for key in ("rank", names_key, data_key):
        if key not in doc:
            raise InvalidInputError(f"{kind} document missing {key!r}")
    names, data = doc[names_key], doc[data_key]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise InvalidInputError(f'"{names_key}" must be a list of names')
    if not _is_int(doc["rank"]):
        raise InvalidInputError('"rank" must be an integer')
    if not isinstance(data, list) or len(data) != doc["rank"]:
        raise InvalidInputError(f'"{data_key}" must list one {noun} per direction')
    try:
        return cls(names, data)
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {data_key} data: {exc}") from None


def load_model_path(path) -> DirectionModel:
    return load_model(read_json(path))


def model_fingerprint(model: DirectionModel) -> str:
    return fingerprint(model.to_doc())


def render_families(
    model: DirectionModel, families, with_ids: bool = False
) -> tuple[list[dict], list[str] | None]:
    """Each family's document ``sets`` and, ``with_ids``, the fingerprint of
    its document (else ``None``).

    Families are validated by :func:`check_family`; ``sets`` keys are in
    :func:`canonical_masks` order, names in vertex order, and no two dicts
    share a list.  Each distinct vertex set is rendered once, to its names
    and, ``with_ids``, their compact JSON, from which each document's
    :func:`canonical_json` text is assembled and hashed.  This is the one
    renderer of families.
    """
    names = model.vertex_names
    masks = canonical_masks(model.rank)
    labels = [mask_label(m) for m in masks]
    by_key = sorted(zip(labels, masks))
    keyed = ",".join(f"{_quote(label)}:%s" for label, _ in by_key)
    template = f'{{"rank":{model.rank},"sets":{{{keyed}}}}}'
    rendered: dict[int, tuple[list[str], str | None]] = {}
    all_sets, ids = [], []
    for family in families:
        fam = check_family(model, family)
        for s in fam:
            if s not in rendered:
                members = [names[v] for v in range(len(names)) if s >> v & 1]
                text = "[" + ",".join(map(_quote, members)) + "]" if with_ids else None
                rendered[s] = members, text
        entries = [rendered[s] for s in fam]
        all_sets.append({lab: entries[m][0].copy() for lab, m in zip(labels, masks)})
        if with_ids:
            ids.append(_digest(template % tuple(entries[m][1] for _, m in by_key)))
    return all_sets, ids if with_ids else None


def family_to_doc(model: DirectionModel, family) -> dict:
    """The family document ``{"rank": k, "sets": {label: [names]}}``: the
    one-family case of :func:`render_families`."""
    return {"rank": model.rank, "sets": render_families(model, [family])[0][0]}


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
    masks = {mask_label(m): m for m in canonical_masks(model.rank)}
    if sets.keys() != masks.keys():
        missing = sorted(masks.keys() - sets.keys())
        extra = sorted(sets.keys() - masks.keys())
        raise InvalidInputError(
            f"family keys mismatch: missing {missing}, unexpected {extra}"
        )
    out = [0] * len(masks)
    for label, names in sets.items():
        if not isinstance(names, list):
            raise InvalidInputError(f"entry {label!r} must be a list of vertex names")
        out[masks[label]] = model.set_of_names(names)
    return tuple(out)


def family_from_path(model: DirectionModel, path) -> IdealFamily:
    return family_from_doc(model, read_json(path))


def read_json(path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{p} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{p} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past the int-string digit limit
        raise InvalidInputError(f"{p} has a number too long to read: {exc}") from None
    except RecursionError:
        raise InvalidInputError(f"{p} nests too deeply to parse") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whatever the locale; an
    unwritable path is invalid input."""
    p = Path(path)
    try:
        p.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {p}: {exc}") from None
