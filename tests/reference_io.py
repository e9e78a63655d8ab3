"""Model files as earlier versions wrote them, for tests only.

`reference_save_model` is `save_model` as earlier versions wrote it: the
manifest goes through the stdlib's indented encoder, a gather's indices are
a JSON list in its `params`, and the blob, float32 tensors only, is built
in memory before it is written. `json_list_form` turns a file of today's
`spikeopt.graph.io.save_model` into that form. Today's writer must write
what that form turns into the reference's file, and must re-save a file of
the reference in its own form.
"""

import copy
import json
import math

import numpy as np

from spikeopt.graph import Graph
from spikeopt.graph.io import _TENSOR_KEYS, MODEL_MAGIC, _paths


def reference_save_model(g: Graph, path, meta: dict | None = None) -> None:
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


def json_list_form(manifest: dict, blob: bytes) -> tuple[dict, bytes]:
    """The manifest and blob of a model file with each int64 index table
    moved back into its node's `params` as a JSON list, and the float32
    tensors packed again in name order: the file as earlier versions wrote
    it, given the same manifest text encoder."""
    manifest = copy.deepcopy(manifest)
    entries = manifest["tensors"]
    for node in manifest["nodes"]:
        for key, name in list(node["tensors"].items()):
            entry = entries[name]
            if entry.get("dtype") == "<i8":
                count = math.prod(entry["shape"])
                node["params"][key] = np.frombuffer(
                    blob, "<i8", count, 4 + entry["offset"]).tolist()
                del node["tensors"][key], entries[name]
    packed, offset = bytearray(MODEL_MAGIC), 0
    for name in sorted(entries):
        entry, size = entries[name], 4 * math.prod(entries[name]["shape"])
        packed += blob[4 + entry["offset"] : 4 + entry["offset"] + size]
        entry["offset"], offset = offset, offset + size
    return manifest, bytes(packed)
