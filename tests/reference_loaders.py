"""The model and table loaders that reading files whole replaced.

``reference_parse_model`` first draws a random model of the file's spec
and overwrites its arrays in place; ``reference_load_table`` feeds csv the
file's lines as ``open`` yields them, decoding 8 KB at a time. The
loaders in ``src/`` must give the same models, tables and errors.
"""

from __future__ import annotations

import csv
from contextlib import closing

import numpy as np

from tableqa.errors import (MalformedFile, MalformedLine, NotText, TableQAError,
                            UntrainedModel)
from tableqa.nn import _MAGIC, _parse_spec, init_model
from tableqa.tabular import _TT_MAGIC, FEATURE_DIM, Table, TableTypeModel
from tableqa.textproc import _not_utf8, read_lines


def reference_parse_arrays(lines, start, expected, source):
    seen = set()
    for lineno, line in enumerate(lines[start:], start=start + 1):
        where = f"{source}:{lineno}"
        if line == "end":
            break
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[0] != "array":
            raise UntrainedModel(
                f"{where}: expected 'array <name> <shape> <values>', got {line[:40]!r}"
            )
        _, name, shape_s, values_s = parts
        if name not in expected or name in seen:
            raise UntrainedModel(f"{where}: unexpected array {name!r}")
        target = expected[name]
        if shape_s != ",".join(str(d) for d in target.shape):
            raise UntrainedModel(
                f"{where}: array {name} has shape {shape_s}, expected "
                + ",".join(str(d) for d in target.shape)
            )
        try:
            values = np.array([float(v) for v in values_s.split()])
        except ValueError as exc:
            raise UntrainedModel(f"{where}: array {name}: {exc}") from None
        if values.size != target.size:
            raise UntrainedModel(
                f"{where}: array {name} of shape {shape_s} needs {target.size} "
                f"values, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise UntrainedModel(f"{where}: array {name} has a non-finite value")
        target.reshape(-1)[:] = values
        seen.add(name)
    else:
        raise UntrainedModel(f"{source}:{len(lines)}: missing 'end' line (truncated file?)")
    missing = [name for name in expected if name not in seen]
    if missing:
        raise UntrainedModel(f"{source}:{lineno}: missing array {missing[0]}")


def reference_parse_model(text, source="<model>"):
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise UntrainedModel(f"{source}:1: not a {_MAGIC} model file")
    spec = _parse_spec(lines[1] if len(lines) > 1 else "", f"{source}:2")
    model = init_model(spec, seed=0)
    reference_parse_arrays(lines, 2, dict(model.arrays()), source)
    return model


def reference_load_model(path):
    return reference_parse_model("".join(read_lines(path)), str(path))


def reference_load_table_type_model(path):
    lines = "".join(read_lines(path)).splitlines()
    if not lines or lines[0] != _TT_MAGIC:
        raise UntrainedModel(f"{path}:1: not a {_TT_MAGIC} model file")
    arrays = {name: np.zeros(FEATURE_DIM) for name in ("weights", "mean", "scale")}
    arrays["bias"] = np.zeros(1)
    reference_parse_arrays(lines, 1, arrays, str(path))
    if not arrays["scale"].all():
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith("array scale "))
        raise UntrainedModel(f"{path}:{lineno}: array scale has a zero entry")
    return TableTypeModel(weights=arrays["weights"], bias=float(arrays["bias"][0]),
                          mean=arrays["mean"], scale=arrays["scale"])


def reference_read_lines(path):
    """The lines of ``path`` as ``open(path, newline="")`` yields them,
    decoded 8 KB at a time; bytes that are not UTF-8 raise NotText."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raise NotText(_not_utf8(path, fh.read())) from None


def reference_load_table(path, fmt):
    path = str(path)
    with closing(reference_read_lines(path)) as lines:
        reader = csv.reader(lines, delimiter=fmt.value)
        try:
            headers = next(reader, None)
            if headers is None:
                raise MalformedFile(f"{path}:1: empty file")
            if not headers or headers == [""]:
                raise MalformedFile(f"{path}:1: zero columns")
            width, records = len(headers), []
            start = reader.line_num + 1
            for record in reader:
                if len(record) != width:
                    raise MalformedFile(f"{path}:{start}: row has {len(record)} "
                                        f"cells, expected {width}")
                records.append(record)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise MalformedLine(f"{path}:{reader.line_num}: {exc}") from None
    table_id = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return Table(id=table_id, name=table_id, headers=headers, rows=records)


def outcome(load, *args):
    """``load(*args)``, or the type and message of the error it raises."""
    try:
        return load(*args)
    except TableQAError as exc:
        return type(exc), str(exc)


def model_arrays(model):
    """Every array a model file holds, as (name, dtype, shape, bytes)."""
    return [(name, a.dtype, a.shape, a.tobytes()) for name, a in model.arrays()]
