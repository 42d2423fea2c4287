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
from operator import itemgetter
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


class _Memo(dict):
    """``memo[key]`` is ``render(key)``, computed on its first lookup."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        self[key] = value = self.render(key)
        return value


def _renderer(model: DirectionModel):
    """The one renderer of families: a function from a family to its
    entries, each the vertex set's names and their compact JSON array.
    Each distinct vertex set is checked and rendered once; a family of the
    wrong length, or with an entry that is not an ``int`` (``1.0 == 1``),
    goes through :func:`check_family` first."""

    def render(s):
        names = model.names_of_set(s)
        return names, "[" + ",".join(map(_quote, names)) + "]"

    rendered = _Memo(render).__getitem__

    def entries(family) -> list:
        fam = tuple(family)
        if len(fam) != 1 << model.rank or not {int}.issuperset(map(type, fam)):
            fam = check_family(model, fam)
        return list(map(rendered, fam))

    return entries


def render_families(model: DirectionModel, families) -> list[dict]:
    """Each family's document ``sets``, checked as :func:`check_family`
    checks it, keys in :func:`canonical_masks` order and names in vertex
    order; no two dicts share a list."""
    labels = [(mask_label(m), m) for m in canonical_masks(model.rank)]
    rendered = map(_renderer(model), families)
    return [{label: list(fam[m][0]) for label, m in labels} for fam in rendered]


def family_ids(model: DirectionModel, families) -> list[str]:
    """Each family's id, the :func:`fingerprint` of its document, checked as
    :func:`render_families` checks it; each document's :func:`canonical_json`
    text is assembled from the rendered vertex sets."""
    entries = _renderer(model)
    by_key = sorted((mask_label(m), m) for m in canonical_masks(model.rank))
    keyed = ",".join(f"{_quote(label)}:%s" for label, _ in by_key)
    template = f'{{"rank":{model.rank},"sets":{{{keyed}}}}}'
    in_key_order, text = itemgetter(*(m for _, m in by_key)), itemgetter(1)
    return [
        _digest(template % tuple(map(text, in_key_order(entries(family)))))
        for family in families
    ]


def family_to_doc(model: DirectionModel, family) -> dict:
    """The family document ``{"rank": k, "sets": {label: [names]}}``: the
    one-family case of :func:`render_families`."""
    return {"rank": model.rank, "sets": render_families(model, [family])[0]}


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
