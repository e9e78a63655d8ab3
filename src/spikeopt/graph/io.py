"""On-disk formats.

Model: `<name>.json` manifest plus `<name>.bin` blob. The blob starts with
magic `SGM1` followed by little-endian float32 data; the manifest lists
nodes, edges, and named tensor entries with byte offsets into the blob
(relative to the end of the magic). Saving is canonical (sorted manifest
keys, tensors in sorted name order), so save(load(p)) is byte-identical.
The manifest text is exactly `json.dumps(manifest, indent=2, sort_keys=True)`
plus a newline. The blob is streamed from the tensors to the file, and each
tensor is read from the file straight into its own writable array.

Dataset tensors: magic `STEN`, u32 rank, u32 dims..., float32 payload.
Labels: magic `SLBL`, u32 sequence to end of file. All integers little-endian.
"""

from __future__ import annotations

import json
import math
import os
import struct
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .model import Graph, GraphError, Node

__all__ = [
    "ModelFormatError",
    "TruncatedBlobError",
    "save_model",
    "load_model",
    "save_tensor",
    "load_tensor",
    "save_labels",
    "load_labels",
]

MODEL_MAGIC = b"SGM1"
TENSOR_MAGIC = b"STEN"
LABEL_MAGIC = b"SLBL"

_TENSOR_KEYS = ("weight", "bias", "gamma", "beta", "mean", "var", "cal_w", "cal_b")


class ModelFormatError(GraphError):
    """Manifest or blob violates the file format."""


class TruncatedBlobError(ModelFormatError):
    """Blob shorter than the manifest's tensor entries claim."""


def _paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".bin")


_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)
_INDENT = "  "
_reject = json.JSONEncoder().default  # TypeError naming the type, as json.dumps raises


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, at C-encoder speed.

    CPython's C encoder writes no indentation, so the stdlib falls back to its
    pure-Python encoder, which spends a bytecode pass on every element. Here
    a container that holds no container is one C-encoder call whose item
    separator carries the newline and indent of its depth, and only the
    containers around those are walked in Python.
    """
    if c_make_encoder is None:
        return json.dumps(obj, indent=2, sort_keys=True)
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


@cache
def _flat_encoder(depth: int):
    """The C encoder for a container of scalars at `depth`: it separates the
    items by a comma, a newline and the indent of depth + 1."""
    return c_make_encoder(None, _reject, encode_basestring_ascii, None, ": ",
                          ",\n" + _INDENT * (depth + 1), True, False, True)


def _holds_container(values) -> bool:
    # one C-level pass collects the element types; only the few distinct
    # types are checked in Python, subclasses of dict, list and tuple included
    types = set(map(type, values))
    return not types <= _SCALARS and any(issubclass(t, _CONTAINERS) for t in types)


def _key(key) -> str:
    """A dict key as json.dumps writes it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, depth: int, out: list) -> None:
    """Append the indented text of `obj`, whose first line is at `depth`."""
    if type(obj) is str:  # most scalars in a manifest are names
        out.append(encode_basestring_ascii(obj))
        return
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        out.append("".join(_flat_encoder(depth)(obj, 0)))
        return
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = "\n" + _INDENT * (depth + 1)
    close = "\n" + _INDENT * depth + ("}" if is_dict else "]")
    if not _holds_container(obj.values() if is_dict else obj):
        text = "".join(_flat_encoder(depth)(obj, 0))
        out += (text[0], inner, text[1:-1], close)  # "[a,<inner>b]" opened onto its own line
        return
    out.append("{" if is_dict else "[")
    sep = inner
    if is_dict:
        for key, val in sorted(obj.items()):
            out += (sep, encode_basestring_ascii(key if type(key) is str else _key(key)), ": ")
            _write(val, depth + 1, out)
            sep = "," + inner
    else:
        for val in obj:
            out.append(sep)
            _write(val, depth + 1, out)
            sep = "," + inner
    out.append(close)


def save_model(g: Graph, path, meta: dict | None = None) -> None:
    """Write `<path>.json` + `<path>.bin` (path may carry either suffix)."""
    jpath, bpath = _paths(path)
    nodes_out = []
    tensors: dict[str, np.ndarray] = {}
    for nid in g.topo_order:
        node = g.nodes[nid]
        plain, names = {}, {}
        for key, val in node.params.items():
            if key in _TENSOR_KEYS and val is not None:
                name = f"{nid}.{key}"
                tensors[name] = np.asarray(val, dtype="<f4", order="C")
                names[key] = name
            elif isinstance(val, np.ndarray):
                plain[key] = val.tolist()
            elif isinstance(val, tuple):
                plain[key] = list(val)
            else:
                plain[key] = val
        nodes_out.append({"id": nid, "kind": node.kind, "params": plain, "tensors": names})

    entries = {}
    offset = 0
    for name in sorted(tensors):
        arr = tensors[name]
        entries[name] = {"offset": offset, "shape": list(arr.shape)}
        offset += arr.size * 4
    manifest = {
        "format": "SGM1",
        "nodes": nodes_out,
        "edges": [[s, d, p] for s, d, p in g.edges],
        "tensors": entries,
        "meta": meta or {},
    }
    jpath.write_text(_dumps(manifest) + "\n", encoding="utf-8")
    with open(bpath, "wb") as fh:
        fh.write(MODEL_MAGIC)
        for name in sorted(tensors):
            fh.write(tensors[name])


def _read_f32(fh, start: int, shape) -> np.ndarray | None:
    """The float32 tensor of `shape` at byte `start` of the open file `fh`,
    read straight into its own writable array; None if the file ends first.

    One array per tensor, not views of one buffer holding the whole file:
    the views measured 7-9% slower on the bench's mlp-wide set-up and steps
    (glibc then faults fresh pages for the weight casts of later commands).
    """
    arr = np.empty(shape, dtype="<f4")
    fh.seek(start)
    return arr if fh.readinto(arr) == arr.nbytes else None


def load_model(path) -> tuple[Graph, dict]:
    """Read a model; returns (graph, meta)."""
    jpath, bpath = _paths(path)
    try:
        manifest = json.loads(jpath.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"manifest {jpath} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "SGM1":
        raise ModelFormatError(f"manifest {jpath} lacks the SGM1 format tag")

    def read_tensor(name):  # reads from `blob`, opened below
        try:
            entry = manifest["tensors"][name]
        except KeyError:
            raise ModelFormatError(f"{jpath}: tensor entry {name!r} missing") from None
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(isinstance(d, int) and d >= 0 for d in shape):
            raise ModelFormatError(f"{jpath}: tensor {name!r} has invalid shape {shape!r}")
        size = math.prod(shape) * 4
        off = entry["offset"]
        if not isinstance(off, int) or off < 0:
            raise ModelFormatError(f"{jpath}: tensor {name!r} has invalid offset {off!r}")
        arr = _read_f32(blob, 4 + off, shape) if off + size <= size_data else None
        if arr is None:
            raise TruncatedBlobError(
                f"{bpath}: tensor {name!r} needs bytes [{off}, {off + size}) "
                f"but blob has {size_data}"
            )
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"{bpath}: tensor {name!r} holds NaN or inf values")
        return arr

    with open(bpath, "rb") as blob:
        if blob.read(4) != MODEL_MAGIC:
            raise ModelFormatError(f"blob {bpath} lacks the SGM1 magic")
        size_data = os.fstat(blob.fileno()).st_size - 4
        try:
            nodes = []
            for i, spec in enumerate(manifest["nodes"]):
                missing = [key for key in ("id", "kind", "params") if key not in spec]
                if missing:
                    raise ModelFormatError(f"{jpath}: node entry {i} lacks {', '.join(missing)}")
                params = dict(spec["params"])
                for key, name in spec.get("tensors", {}).items():
                    params[key] = read_tensor(name)
                nodes.append(Node(spec["id"], spec["kind"], params))
            edges = [(s, d, p) for s, d, p in manifest["edges"]]
            return Graph(nodes, edges), manifest.get("meta", {})
        except GraphError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # a field of the wrong type or shape, e.g. null nodes or a list as an id
            raise ModelFormatError(f"manifest {jpath} is malformed: {exc!r}") from None


def save_tensor(arr, path) -> None:
    arr = np.asarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != TENSOR_MAGIC:
            raise ModelFormatError(f"{path}: missing STEN magic")
        rank = struct.unpack_from("<I", head, 4)[0] if len(head) == 8 else 0
        start = 8 + 4 * rank
        if size < start:
            raise TruncatedBlobError(f"{path}: shorter than its rank/dims header")
        dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        count = math.prod(dims)  # Python ints: no int64 wrap-around
        arr = _read_f32(fh, start, dims) if size - start >= count * 4 else None
    if arr is None:
        raise TruncatedBlobError(f"{path}: payload shorter than {dims}")
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"{path}: tensor holds NaN or inf values")
    return arr


def save_labels(labels, path) -> None:
    labels = np.asarray(labels, dtype="<u4")
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(labels.tobytes())


def load_labels(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != LABEL_MAGIC:
        raise ModelFormatError(f"{path}: missing SLBL magic")
    if (len(raw) - 4) % 4:
        raise ModelFormatError(f"{path}: label payload is not a whole u32 sequence")
    return np.frombuffer(raw, dtype="<u4", offset=4).astype(np.int64)
