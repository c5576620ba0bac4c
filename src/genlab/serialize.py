"""JSON file formats and atomic writes.

Rationals travel as decimal-free "p/q" strings (plain integers also accepted);
anything with a dot or exponent is rejected so exactness can never silently
degrade. Writers stage to a temp file in the target directory and rename, so
partial files are never left behind.
"""
from __future__ import annotations

import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, TextIO

import genlab

from .core import (
    CertificateError,
    DomainFamily,
    GenlabError,
    HypothesisClass,
    Hypothesis,
    LabeledDistribution,
    LabeledSample,
    MetaDistribution,
)

# a rational's numerator and denominator digits, padded with ASCII whitespace
# at most: with re.ASCII, \s is what bytes.strip() strips
_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*", re.ASCII)


# A class file as `json.dump(indent=2, sort_keys=True)` and a newline lay it
# out: the head, rows of `space` digits joined by _ROW_SEP, the foot, the
# space and the end. `write_hypothesis_class` writes it, `_class_layout` reads it.
_CLASS_HEAD = '{\n  "hypotheses": [\n'
_ROW_OPEN, _LABEL_SEP, _ROW_CLOSE, _ROW_SEP = "    [\n      ", ",\n      ", "\n    ]", ",\n"
_CLASS_FOOT, _CLASS_END = '\n  ],\n  "space": ', "\n}\n"
_LABEL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_LABELS = bytes.maketrans(b"01", b"\x00\x01")
_ONE_AS_ZERO = bytes.maketrans(b"1", b"0")


def _class_row(digits: str) -> str:
    """One row of a class file, its labels given as a string of digits."""
    return _ROW_OPEN + _LABEL_SEP.join(digits) + _ROW_CLOSE


class FormatError(GenlabError, ValueError):
    """A file or string does not match the expected format."""


def _typed(value: Any, kind: type, what: str) -> Any:
    """`value`, refused unless it is a JSON `kind` (list, dict or str)."""
    if not isinstance(value, kind):
        name = {list: "list", dict: "object", str: "string"}[kind]
        raise FormatError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value


def _field(obj: Any, key: str, what: str, kind: type = object) -> Any:
    """obj[key], refusing an `obj` that is not a JSON object, a missing key and
    a value that is not a `kind`."""
    if key not in _typed(obj, dict, what):
        raise FormatError(f"{what} needs a '{key}' field")
    return obj[key] if kind is object else _typed(obj[key], kind, f"{what} '{key}'")


def _int(value: Any, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not coerced."""
    if type(value) is not int:
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def rational_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _ratio(text: Any, what: str) -> tuple[int, int]:
    """`rational_from_str`'s value as (numerator, denominator) in lowest
    terms, the denominator positive, read from the digits with no `Fraction`."""
    if type(text) is int:
        return text, 1
    digits = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if digits is None:
        raise FormatError(
            f"{what} expected a decimal-free rational like '3/10' or '7', got {text!r}".lstrip()
        )
    num, den = digits.groups()
    p, q = int(num), int(den) if den else 1  # the numerator first, as Fraction(str) reads them
    if not q:
        raise FormatError(f"{what} zero denominator in rational {text!r}".lstrip())
    g = math.gcd(p, q)
    return p // g, q // g


def rational_from_str(text: Any, what: str = "") -> Fraction:
    """A "p/q" or integer string, padded with ASCII whitespace at most, or a
    JSON integer (not a boolean), as a Fraction; `what` names the value in a
    refusal."""
    return Fraction(*_ratio(text, what))


def domain_to_dict(d: LabeledDistribution) -> dict[str, Any]:
    """Each atom's mass is written as its numerator over `denominator` in
    lowest terms, the "p/q" string of its `Fraction`."""
    den = d.denominator
    atoms = []
    for x, y, w in d.weighted:
        g = math.gcd(w, den)
        atoms.append({"x": x, "y": y, "mass": f"{w // g}/{den // g}"})
    return {"space": d.space, "atoms": atoms}


def _atom(a: Any) -> tuple[int, int, int, int]:
    """(x, y, p, q) of an atom object whose mass is p/q in lowest terms. A
    dict with int x and y and a string mass skips `_field`, whose refusals
    it cannot meet."""
    if type(a) is dict and type(a.get("x")) is int and type(a.get("y")) is int \
            and type(mass := a.get("mass")) is str:
        return a["x"], a["y"], *_ratio(mass, "atom mass")
    return (_int(_field(a, "x", "atom"), "atom x"), _int(_field(a, "y", "atom"), "atom y"),
            *_ratio(_field(a, "mass", "atom"), "atom mass"))


def domain_from_dict(obj: dict[str, Any]) -> LabeledDistribution:
    """A domain object, its masses read as integers over the LCM of their
    reduced denominators and checked by `LabeledDistribution.from_weighted`."""
    atoms = [_atom(a) for a in _field(obj, "atoms", "domain object", list)]
    space = _int(_field(obj, "space", "domain object"), "domain space")
    den = math.lcm(*[q for _, _, _, q in atoms])
    return LabeledDistribution.from_weighted(
        space, [(x, y, p * (den // q)) for x, y, p, q in atoms], den)


def hypothesis_class_to_dict(hc: HypothesisClass) -> dict[str, Any]:
    """Each row lists one member's labels, the ints 0 and 1 read from its mask."""
    rows = [list(m.to_bytes(hc.space, "little")) for m in hc.masks]
    return {"space": hc.space, "hypotheses": rows}


def hypothesis_class_from_dict(obj: dict[str, Any]) -> HypothesisClass:
    """A class object, read row by row and label by label, so a refusal names
    the first bad row or label."""
    try:
        members = tuple(Hypothesis(tuple(_int(v, "hypothesis label") for v in row))
                        for row in obj["hypotheses"])
        return HypothesisClass(_int(obj["space"], "class space"), members)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed hypothesis class object: {exc}") from exc


def _family(obj: Any, what: str, base_dir: Path | None) -> DomainFamily:
    """The family that `obj` (named `what`) lists under "domains": domain
    objects, or paths to domain files relative to `base_dir`; an empty list is
    refused."""
    domains = tuple(
        domain_from_dict(_read_json(Path(base_dir or "") / e) if isinstance(e, str) else e)
        for e in _field(obj, "domains", what, list)
    )
    if not domains:
        raise FormatError(f"{what} lists no domains")
    return DomainFamily(domains[0].space, domains)


def family_to_dict(g: DomainFamily) -> dict[str, Any]:
    return {"domains": [domain_to_dict(d) for d in g.domains]}


def family_from_dict(obj: dict[str, Any], base_dir: Path | None = None) -> DomainFamily:
    """Accepts both plain families and meta files (weights ignored)."""
    return _family(obj, "family object", base_dir)


def meta_to_dict(p: MetaDistribution) -> dict[str, Any]:
    return {
        "domains": [domain_to_dict(d) for d in p.family.domains],
        "weights": [rational_to_str(w) for w in p.weights],
    }


def meta_from_dict(obj: dict[str, Any], base_dir: Path | None = None) -> MetaDistribution:
    family = _family(obj, "meta object", base_dir)
    weights = tuple(
        rational_from_str(w, "meta weight") for w in _field(obj, "weights", "meta object", list)
    )
    return MetaDistribution(family, weights)


def certificate_to_dict(cert: genlab.ShatteringCertificate) -> dict[str, Any]:
    return {
        "S": list(cert.domain_indices),
        "witnesses": {str(mask): w for mask, w in enumerate(cert.witnesses)},
    }


def certificate_from_dict(obj: dict[str, Any]) -> genlab.ShatteringCertificate:
    """Witnesses are keyed by the decimal string of each subset bitmask, and
    indices and witnesses are JSON integers."""
    listed = _field(obj, "S", "certificate object", list)
    indices = tuple(_int(i, "certificate index") for i in listed)
    table = _field(obj, "witnesses", "certificate object", dict)
    size = 1 << len(indices)
    keys = len(table) == size and [str(m) for m in range(size)]  # only once the count fits
    if not keys or table.keys() != set(keys):
        raise CertificateError(
            f"certificate needs witnesses for all {size} subset bitmasks"
        )
    return genlab.ShatteringCertificate(
        indices, tuple(_int(table[k], "certificate witness") for k in keys)
    )


def cover_to_dict(cover: genlab.Cover) -> dict[str, Any]:
    return {
        "centers": list(cover.center_indices),
        "radius": rational_to_str(cover.radius),
        "tau": None if cover.query.tau is None else rational_to_str(cover.query.tau),
    }


def cover_from_dict(obj: dict[str, Any]) -> genlab.Cover:
    what = "cover object"
    centers = tuple(_int(c, "cover center") for c in _field(obj, "centers", what, list))
    radius = rational_from_str(_field(obj, "radius", what), "cover radius")
    tau = _field(obj, "tau", what)
    query = genlab.DivergenceQuery(None if tau is None else rational_from_str(tau, "cover tau"))
    try:
        return genlab.Cover(centers, radius, query)
    except ValueError as exc:
        raise FormatError(f"malformed cover object: {exc}") from exc


def training_set_to_dict(t: genlab.TrainingSet) -> dict[str, Any]:
    return {
        "domain_indices": list(t.domain_indices),
        "samples": [[[x, y] for (x, y) in s.points] for s in t.samples],
        "master_seed": t.master_seed,
        "draw_seeds": list(t.draw_seeds),
    }


def training_set_from_dict(obj: dict[str, Any]) -> genlab.TrainingSet:
    what = "training set object"
    rows = _field(obj, "samples", what, list)
    try:  # LabeledSample unpacks each point as an [x, y] pair of JSON integers
        samples = tuple(LabeledSample(tuple(points)) for points in rows)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed training set sample: {exc}") from exc
    return genlab.TrainingSet(
        tuple(_int(i, "domain index") for i in _field(obj, "domain_indices", what, list)),
        samples,
        _int(_field(obj, "master_seed", what), "master seed"),
        tuple(_int(s, "draw seed") for s in _field(obj, "draw_seeds", what, list)),
    )


def error_table_to_dict(t: genlab.ErrorTable) -> dict[str, Any]:
    return {
        "mode": t.mode,
        "entries": [[rational_to_str(v) for v in row] for row in t.entries],
    }


def error_table_from_dict(obj: dict[str, Any]) -> genlab.ErrorTable:
    what = "error table object"
    rows = tuple(
        tuple(rational_from_str(v, "error table entry") for v in _typed(r, list, "error table row"))
        for r in _field(obj, "entries", what, list)
    )
    return genlab.ErrorTable(rows, _field(obj, "mode", what, str))


def _read_json(path: Path | str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply") from None


def load_domain(path: Path | str) -> LabeledDistribution:
    return domain_from_dict(_read_json(path))


def _class_layout(data: bytes) -> tuple[int, bytes] | None:
    """(space, the label rows joined) when `data` is byte for byte the file
    that `write_hypothesis_class` writes, else None. Every row of that file
    has the same length, so with its 1s read as 0s the rows are one row
    template repeated, and label j of every row is one strided slice."""
    foot = data.rfind(_CLASS_FOOT.encode())
    tail = data[foot + len(_CLASS_FOOT):]
    digits = tail[:-len(_CLASS_END)]
    space = int(digits) if len(digits) < 10 and digits.isdigit() else 0
    if not (foot > 0 and space and tail == f"{space}{_CLASS_END}".encode()
            and data.startswith(_CLASS_HEAD.encode())):
        return None
    # the row length comes from `space` before any row is built, so a file
    # that claims a huge space is turned away without allocating for it
    start, step = len(_CLASS_HEAD), len(_LABEL_SEP) + 1
    stride = len(_class_row("0") + _ROW_SEP) + (space - 1) * step
    count, extra = divmod(foot - start + len(_ROW_SEP), stride)
    if extra or count < 1:
        return None
    row = _class_row("0" * space).encode()
    plain, last = data.translate(_ONE_AS_ZERO), foot - len(row)
    if not plain.startswith(row, last) or plain.count(row + _ROW_SEP.encode(), start, last) != count - 1:
        return None
    labels = bytearray(count * space)
    for j in range(space):
        labels[j::space] = data[start + len(_ROW_OPEN) + j * step:foot:stride]
    return space, bytes(labels).translate(_DIGIT_LABELS)


def load_hypothesis_class(path: Path | str) -> HypothesisClass:
    """The class in the file at `path`. A file in `write_hypothesis_class`'s
    layout is read straight from its bytes, and refused, for repeated rows
    only, with the JSON reader's message. Any other file is read as JSON."""
    with open(path, "rb") as fh:
        layout = _class_layout(fh.read())
    if layout is not None:
        return HypothesisClass._from_rows(*layout)
    return hypothesis_class_from_dict(_read_json(path))


def load_family(path: Path | str) -> DomainFamily:
    return family_from_dict(_read_json(path), Path(path).parent)


def load_meta(path: Path | str) -> MetaDistribution:
    return meta_from_dict(_read_json(path), Path(path).parent)


def load_certificate(path: Path | str) -> genlab.ShatteringCertificate:
    return certificate_from_dict(_read_json(path))


@contextmanager
def _staged(path: Path | str) -> Iterator[TextIO]:
    """A text file handle staged in a sibling temp file, renamed into place
    when the block exits cleanly and deleted when it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: Path | str, text: str) -> None:
    with _staged(path) as fh:
        fh.write(text)


def write_hypothesis_class(path: Path | str, hc: HypothesisClass) -> None:
    """Stream into place the class file that `write_json_atomic(path,
    hypothesis_class_to_dict(hc))` writes, byte for byte, each row rendered
    from its mask."""
    with _staged(path) as fh:
        head = _CLASS_HEAD
        for m in hc.masks:
            digits = m.to_bytes(hc.space, "little").translate(_LABEL_DIGITS).decode()
            fh.write(head + _class_row(digits))
            head = _ROW_SEP
        fh.write(f"{_CLASS_FOOT}{hc.space}{_CLASS_END}")


def write_json_atomic(path: Path | str, obj: Any) -> None:
    """Stream indented, key-sorted JSON and a final newline into place (report.json
    and report.csv are streamed instead from `ExperimentReport.chunks`' templates)."""
    with _staged(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
