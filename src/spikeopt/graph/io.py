"""On-disk formats.

Model: `<name>.json` manifest plus `<name>.bin` blob. The blob starts with
magic `SGM1` followed by little-endian float32 data; the manifest lists
nodes, edges, and named tensor entries with byte offsets into the blob
(relative to the end of the magic). Saving is canonical (sorted manifest
keys, tensors in sorted name order), so save(load(p)) is byte-identical.

Dataset tensors: magic `STEN`, u32 rank, u32 dims..., float32 payload.
Labels: magic `SLBL`, u32 sequence to end of file. All integers little-endian.
"""

from __future__ import annotations

import json
import struct
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
                tensors[name] = np.asarray(val, dtype=np.float32)
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
    blob = bytearray(MODEL_MAGIC)
    for name in sorted(tensors):
        arr = tensors[name]
        entries[name] = {"offset": offset, "shape": list(arr.shape)}
        blob += arr.astype("<f4").tobytes()
        offset += arr.size * 4
    manifest = {
        "format": "SGM1",
        "nodes": nodes_out,
        "edges": [[s, d, p] for s, d, p in g.edges],
        "tensors": entries,
        "meta": meta or {},
    }
    jpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    bpath.write_bytes(bytes(blob))


def load_model(path) -> tuple[Graph, dict]:
    """Read a model; returns (graph, meta)."""
    jpath, bpath = _paths(path)
    try:
        manifest = json.loads(jpath.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"manifest {jpath} is not valid JSON: {exc}") from None
    if manifest.get("format") != "SGM1":
        raise ModelFormatError(f"manifest {jpath} has wrong format tag {manifest.get('format')!r}")
    raw = bpath.read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"blob {bpath} lacks the SGM1 magic")
    data = raw[4:]

    def read_tensor(name):
        try:
            entry = manifest["tensors"][name]
        except KeyError:
            raise ModelFormatError(f"{jpath}: tensor entry {name!r} missing") from None
        shape = tuple(entry["shape"])
        size = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        off = entry["offset"]
        if not isinstance(off, int) or off < 0:
            raise ModelFormatError(f"{jpath}: tensor {name!r} has invalid offset {off!r}")
        if off + size > len(data):
            raise TruncatedBlobError(
                f"{bpath}: tensor {name!r} needs bytes [{off}, {off + size}) "
                f"but blob has {len(data)}"
            )
        return np.frombuffer(data, dtype="<f4", count=size // 4, offset=off).reshape(shape).copy()

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


def save_tensor(arr, path) -> None:
    arr = np.asarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def load_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != TENSOR_MAGIC:
        raise ModelFormatError(f"{path}: missing STEN magic")
    rank = struct.unpack_from("<I", raw, 4)[0] if len(raw) >= 8 else 0
    start = 8 + 4 * rank
    if len(raw) < start:
        raise TruncatedBlobError(f"{path}: shorter than its rank/dims header")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    count = int(np.prod(dims, dtype=np.int64))
    if len(raw) - start < count * 4:
        raise TruncatedBlobError(f"{path}: payload shorter than {dims}")
    return np.frombuffer(raw, dtype="<f4", count=count, offset=start).reshape(dims).copy()


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
