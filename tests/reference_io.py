"""`save_model` as earlier versions wrote model files, for tests only.

The manifest goes through the stdlib's indented encoder and the blob is
built in memory before it is written. `spikeopt.graph.io.save_model` must
write the same blob and a manifest of the same JSON value, and must re-save
a file of this writer in its own compact form.
"""

import json

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
