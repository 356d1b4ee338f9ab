"""Binary checkpoint format "GVMC-3": one self-contained file.

Layout: an 8-byte little-endian unsigned length, then that many bytes of
UTF-8 JSON manifest, then the raw tensor payload. The manifest records the
format version, the creating config, the root seed, a stage tag, extra
metadata (sorted user and item ids; a stage-2 model's token list, in id
order, as ``extra.vocab``), and a named-tensor directory mapping each name
to its shape, dtype, and byte offset into the payload. The tensors tile the
payload in offset order, with no gap and no overlap. A file of another
version (a GVMC-2 file with its vocabulary sidecar, say) fails with
ConfigError, and a damaged one with DataError.

Payloads are little-endian float32, or float64 given `f64=True`. A
trained model's file holds the dtype it trained in (`training.save_bundle`),
and `load_checkpoint` hands each tensor back in its file's dtype, so a
round-trip is bit-exact at either precision.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError, DataError
from .tensor import Tensor

FORMAT_VERSION = "GVMC-3"
_DTYPE_BYTES = {"f32": 4, "f64": 8}
_DTYPE_NP = {"f32": "<f4", "f64": "<f8"}


def save_checkpoint(path, tensors: Dict[str, Tensor], *, config: dict,
                    seed: int, stage: str, extra: Optional[dict] = None,
                    f64: bool = False) -> None:
    """Write named parameter tensors with their manifest."""
    dtype = "f64" if f64 else "f32"
    names = sorted(tensors)
    directory = {}
    offset = 0
    blobs = []
    for name in names:
        data = tensors[name].data
        blob = np.ascontiguousarray(data, dtype=_DTYPE_NP[dtype]).tobytes()
        directory[name] = {"shape": list(data.shape), "dtype": dtype,
                           "offset": offset}
        offset += len(blob)
        blobs.append(blob)
    manifest = {
        "format": FORMAT_VERSION,
        "config": config,
        "seed": seed,
        "stage": stage,
        "extra": extra or {},
        "tensors": directory,
        "payload_bytes": offset,
    }
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(encoded)))
        fh.write(encoded)
        for blob in blobs:
            fh.write(blob)


def _read_manifest(fh) -> dict:
    """The manifest at the start of an open checkpoint, checked for its
    version; leaves `fh` at the payload."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(8)
    if len(head) < 8:
        raise DataError(f"checkpoint header is {len(head)} bytes, need 8")
    (length,) = struct.unpack("<Q", head)
    if length > size - 8:
        raise DataError(f"checkpoint manifest of {length} bytes overruns the "
                        f"{size}-byte file")
    try:
        manifest = json.loads(fh.read(length).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise DataError(f"checkpoint manifest is not UTF-8 JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise DataError("checkpoint manifest is not a JSON object")
    if manifest.get("format") != FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint format {manifest.get('format')!r} is not {FORMAT_VERSION}")
    return manifest


def _open(path):
    """`path` open for reading; failing that, DataError naming the file."""
    try:
        return open(path, "rb")
    except OSError as err:
        raise DataError(f"cannot read checkpoint file {path}: {err}") from None


def read_manifest(path) -> dict:
    with _open(path) as fh:
        return _read_manifest(fh)


def load_checkpoint(path) -> tuple:
    """Returns (manifest, {name: ndarray}). The payload is read once, into
    one byte buffer, and each array is a view of its own slice in the dtype
    the file holds: nothing is widened or copied. A NaN or an infinity in
    the payload fails with DataError naming the first tensor holding one."""
    with _open(path) as fh:
        manifest = _read_manifest(fh)
        try:
            layout, end = [], 0
            for name, spec in sorted(manifest["tensors"].items(),
                                     key=lambda item: item[1]["offset"]):
                dtype, shape = spec["dtype"], spec["shape"]
                if dtype not in _DTYPE_NP:
                    raise DataError(f"tensor {name}: unknown dtype {dtype!r}")
                if not all(type(dim) is int and dim >= 0 for dim in shape):
                    raise DataError(f"tensor {name}: bad shape {shape!r}")
                if spec["offset"] != end:
                    raise DataError(f"tensor {name} starts at byte {spec['offset']}; "
                                    f"the tensors before it end at byte {end}")
                layout.append((name, dtype, shape, end))
                end += math.prod(shape) * _DTYPE_BYTES[dtype]
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != end or end != manifest["payload_bytes"]:
                raise DataError(f"checkpoint payload is {size} bytes, manifest says {end}")
        except (KeyError, TypeError, AttributeError, ValueError) as err:
            raise DataError(f"checkpoint tensor directory is malformed: {err!r}") from None
        payload = np.empty(end, np.uint8)
        if fh.readinto(payload) != end:
            raise DataError(f"checkpoint payload ends before byte {end}")
    bounds = [start for *_, start in layout[1:]] + [end]
    arrays = {name: payload[start:stop].view(_DTYPE_NP[dtype]).reshape(shape)
              for (name, dtype, shape, start), stop in zip(layout, bounds)}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, array in arrays.items():
            # a finite sum proves every value finite
            if not (math.isfinite(np.add.reduce(array, axis=None))
                    or np.isfinite(array).all()):
                raise DataError(f"checkpoint tensor {name} holds a NaN or an infinity")
    return manifest, arrays


def restore_params(params: Dict[str, Tensor], arrays: Dict[str, np.ndarray]) -> None:
    """Make each loaded array the `data` of its parameter: adopted as it is,
    in the checkpoint's dtype, not copied or cast."""
    missing = sorted(set(params) - set(arrays))
    surplus = sorted(set(arrays) - set(params))
    if missing or surplus:
        raise DataError(
            f"checkpoint/model tensor names differ (missing {missing[:3]}, "
            f"surplus {surplus[:3]})")
    for name, tensor in params.items():
        if list(tensor.data.shape) != list(arrays[name].shape):
            raise DataError(
                f"tensor {name}: shape {list(arrays[name].shape)} does not match "
                f"model shape {list(tensor.data.shape)}")
        tensor.data = arrays[name]
