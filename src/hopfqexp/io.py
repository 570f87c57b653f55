"""JSON (de)serialization with bit-exact round trips.

All scalars use the exact text form: a rational is "p/q" or "p"; a
cyclotomic number is the array of its power-basis coordinates relative
to the document's conductor.  An algebra document is written in one
streamed pass (`algebra_chunks`), and a file is replaced whole or not at
all (`write_atomic`).  Deserialization re-runs the full axiom check and
grouplike verification before returning anything.
"""

from __future__ import annotations

import json
import os
import stat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator

from .hopf import GrouplikeSet, HopfAlgebraData, TensorElement, element_inverse, validate
from .linalg import SparseVec
from .scalars import scalar_from_json, scalar_to_json

SCHEMA = "hopf-qexp/1"


class SchemaError(ValueError):
    """A malformed or axiom-violating document."""


def algebra_chunks(H: HopfAlgebraData,
                   r_matrix: TensorElement | None = None) -> Iterator[str]:
    """The document of H, with R when given, as text chunks whose
    concatenation is exactly ``dumps(doc)``: the layout of
    ``json.dumps(doc, indent=2)``, then a newline.

    It reads the tables as they are and builds no dense list of scalars:
    each row of ``mult``, of the antipode and of R is laid out as one
    chunk, and each distinct scalar once per nesting depth, its
    coordinates quoted by the C encoder of `json`.
    """
    n = H.dim
    zero = H.zero_scalar
    memo: dict[tuple, str] = {}

    def fmt(c, depth: int) -> str:  # the scalar c as laid out at depth
        key = (c.num, c.den, depth)
        text = memo.get(key)
        if text is None:
            text = memo[key] = _array(map(_quote, scalar_to_json(c)), depth)
        return text

    def dense(vec: SparseVec, depth: int) -> str:  # a row of n scalars
        texts = [fmt(zero, depth + 1)] * n
        for k, c in vec.items():
            texts[k] = fmt(c, depth + 1)
        return _array(texts, depth)

    def mult() -> Iterator[str]:
        table = H.mult_table
        for key in sorted(table):
            i, j = key
            yield _array((str(i), str(j), dense(table[key], 3)), 2)

    def comult() -> Iterator[str]:
        for k, d in enumerate(H.comult):
            for (i, j) in sorted(d):
                yield _array((str(k), str(i), str(j), fmt(d[(i, j)], 3)), 2)

    def rows(entries: Iterable[tuple[int, int, object]]) -> Iterator[str]:
        """The n rows of the n x n matrix with the given (row, column,
        scalar) entries."""
        by_row: list[SparseVec] = [{} for _ in range(n)]
        for i, j, c in entries:
            by_row[i][j] = c
        return (dense(row, 2) for row in by_row)

    fields: list[tuple[str, Iterable[str]]] = [
        ("schema", _small(SCHEMA)), ("kind", _small("hopf-algebra")),
        ("name", _small(H.name)), ("dim", _small(n)),
        ("conductor", _small(H.conductor)),
        ("basis_labels", _small(list(H.basis_labels))),
        ("unit", (_array([fmt(v, 2) for v in H.unit], 1),)),
        ("counit", (_array([fmt(v, 2) for v in H.counit], 1),)),
        ("mult", _stream(mult(), 1)),
        ("comult", _stream(comult(), 1)),
        ("antipode", _stream(rows((i, j, c) for j, col in enumerate(H.antipode)
                                  for i, c in col.items()), 1)),
    ]
    if H.grouplike_vectors is not None:
        fields.append(("grouplikes", (_array(
            [_array([fmt(v, 3) for v in g], 2) for g in H.grouplike_vectors], 1),)))
    if H.grading is not None:
        fields.append(("grading", _small(list(H.grading))))
    if r_matrix is not None:
        fields.append(("r_matrix", _stream(
            rows((i, j, c) for (i, j), c in r_matrix.data.items()), 1)))
    opening = "{"
    for name, chunks in fields:
        yield f"{opening}\n  {_quote(name)}: "
        opening = ","
        yield from chunks
    yield "\n}\n"


def _small(value) -> tuple[str]:
    """A small JSON value, laid out by `json` itself at depth 1."""
    return (json.dumps(value, indent=2).replace("\n", "\n  "),)


def _array(texts: Iterable[str], depth: int) -> str:
    """The JSON array of the laid-out items texts at depth, as
    ``json.dumps(indent=2)`` lays it out."""
    pad = "\n" + "  " * (depth + 1)
    body = f",{pad}".join(texts)
    return f"[{pad}{body}\n{'  ' * depth}]" if body else "[]"


def _stream(texts: Iterable[str], depth: int) -> Iterator[str]:
    """`_array` of the items texts, one chunk per item."""
    pad = "\n" + "  " * (depth + 1)
    opening = "["
    for text in texts:
        yield opening + pad + text
        opening = ","
    yield "[]" if opening == "[" else f"\n{'  ' * depth}]"


def algebra_to_dict(H: HopfAlgebraData, r_matrix: TensorElement | None = None) -> dict:
    """The document of H as a dict: `algebra_chunks` read back."""
    return json.loads("".join(algebra_chunks(H, r_matrix)))


def _rows(t: TensorElement, fmt) -> list[list]:
    """The dim x dim coefficient rows of t, each scalar written by fmt."""
    n, zero = t.parent.dim, t.parent.zero_scalar
    return [[fmt(t.data.get((i, j), zero)) for j in range(n)] for i in range(n)]


def _field(doc: dict, name: str):
    if name not in doc:
        raise SchemaError(f"missing field: {name}")
    return doc[name]


def _integer(value, what: str) -> int:
    if type(value) is not int:  # a JSON integer: no float, bool or string
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {value!r}")
    return value


def algebra_from_dict(doc: dict, check: bool = True) -> HopfAlgebraData:
    if not isinstance(doc, dict):
        raise SchemaError("document is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema: {doc.get('schema')!r}")
    try:
        n = _integer(_field(doc, "dim"), "dim")
        cond = _integer(_field(doc, "conductor"), "conductor")
        name = _string(_field(doc, "name"), "name")
        labels = _field(doc, "basis_labels")
        if not isinstance(labels, list):
            raise SchemaError(f"basis_labels must be a list, got {type(labels).__name__}")
        labels = [_string(label, "a basis label") for label in labels]
        if len(labels) != n:  # before anything is sized by dim
            raise SchemaError(f"{len(labels)} basis labels for dim {n}")

        memo: dict[tuple, object] = {}

        def sc(data):
            # one object per distinct coordinate list, as in a built double;
            # only a list becomes a tuple key, so no other value hits an entry
            key = tuple(data) if isinstance(data, list) else data
            if key not in memo:
                memo[key] = scalar_from_json(data, cond)
            return memo[key]

        unit = [sc(v) for v in _field(doc, "unit")]
        counit = [sc(v) for v in _field(doc, "counit")]
        mult = {}
        for i, j, dense in _field(doc, "mult"):
            key = (_integer(i, "mult index"), _integer(j, "mult index"))
            if key in mult:
                raise SchemaError(f"mult pair {key} is listed twice")
            if len(dense) != n:
                raise SchemaError(f"mult row {key} has {len(dense)} scalars for dim {n}")
            mult[key] = {k: sc(v) for k, v in enumerate(dense)}
        comult = [dict() for _ in range(n)]
        for k, i, j, coeff in _field(doc, "comult"):
            if not 0 <= _integer(k, "comult index") < n:
                raise IndexError(f"comult index {k} out of range")
            pair = (_integer(i, "comult index"), _integer(j, "comult index"))
            if pair in comult[k]:
                raise SchemaError(f"comult entry {k}, {pair} is listed twice")
            comult[k][pair] = sc(coeff)
        rows = _field(doc, "antipode")
        if len(rows) != n or any(not isinstance(row, list) or len(row) != n for row in rows):
            raise SchemaError(f"the antipode must be {n} rows of {n} scalars")
        antipode = [{i: sc(row[j]) for i, row in enumerate(rows)} for j in range(n)]
        grouplikes = None
        if "grouplikes" in doc:
            grouplikes = [[sc(v) for v in g] for g in doc["grouplikes"]]
        grading = [_integer(d, "grading") for d in doc["grading"]] if "grading" in doc else None
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed document: {exc}") from exc
    try:
        H = HopfAlgebraData(
            name=name, dim=n, conductor=cond, basis_labels=labels,
            mult=mult, unit=unit, comult=comult, counit=counit,
            antipode=antipode, grouplike_vectors=grouplikes, grading=grading)
    except ValueError as exc:
        raise SchemaError(f"inconsistent structure data: {exc}") from exc
    if check:
        violations = validate(H)
        if violations:
            raise SchemaError("axiom check failed: " + "; ".join(violations))
        if H.grouplike_vectors is not None:
            try:
                GrouplikeSet.build(H, H.grouplike_vectors)
            except ValueError as exc:
                raise SchemaError(f"grouplike verification failed: {exc}") from exc
    return H


def write_algebra(H: HopfAlgebraData, path,
                  r_matrix: TensorElement | None = None) -> None:
    write_atomic(path, algebra_chunks(H, r_matrix))


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the chunks to path through a temporary file beside it, moved
    onto path once every chunk is written: a failure part way leaves no
    truncated file and keeps an earlier one, with its mode.  A path that
    exists and is no regular file (a device, a pipe) is written in place."""
    target = os.path.realpath(path)
    existed = os.path.exists(target)
    if existed and not os.path.isfile(target):
        with open(target, "w") as fh:
            fh.writelines(chunks)
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x")
    except OSError as exc:  # named after the path asked for, as open(path) would
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.writelines(chunks)
        if existed:
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def read_algebra(path, check: bool = True) -> HopfAlgebraData:
    return algebra_from_dict(_load(path), check=check)


def twist_from_dict(doc: dict, algebra: HopfAlgebraData | None = None,
                    check: bool = True):
    """Resolve a twist file: {algebra: preset-name or inline, J, J_inv?}.

    With check=True (the default) the twist is built by `make_twist`, and
    its ValueError becomes a SchemaError; with check=False the caller gets
    the raw candidate (J_inv is None when the document has none and J is
    singular) and is expected to run is_twist itself.
    """
    from .twist import TwistData, make_twist

    if not isinstance(doc, dict):
        raise SchemaError("twist document is not a JSON object")
    if algebra is None:
        spec = _field(doc, "algebra")
        if isinstance(spec, str):
            from .presets import get_preset

            try:
                algebra = get_preset(spec)
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        else:
            algebra = algebra_from_dict(spec)
    cond = algebra.conductor
    n = algebra.dim

    def tensor_from_matrix(rows):
        if (not isinstance(rows, list) or len(rows) != n
                or any(not isinstance(r, list) or len(r) != n for r in rows)):
            raise SchemaError("twist coefficient matrix has the wrong shape")
        data = {(i, j): scalar_from_json(rows[i][j], cond)
                for i in range(n) for j in range(n)}
        return TensorElement(algebra, 2, data)

    try:
        J = tensor_from_matrix(_field(doc, "J"))
        J_inv = tensor_from_matrix(doc["J_inv"]) if "J_inv" in doc else None
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed twist document: {exc}") from exc
    if check:
        try:
            return make_twist(algebra, J, J_inv)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    return TwistData(parent=algebra, J=J, J_inv=element_inverse(J) if J_inv is None else J_inv)


def twist_to_dict(T) -> dict:
    H = T.parent
    return {
        "schema": SCHEMA,
        "kind": "twist",
        "algebra": algebra_to_dict(H),
        "J": _rows(T.J, scalar_to_json),
        "J_inv": _rows(T.J_inv, scalar_to_json),
    }


def read_twist(path, algebra: HopfAlgebraData | None = None, check: bool = True):
    return twist_from_dict(_load(path), algebra=algebra, check=check)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
