"""How factmine frames the files it writes and reads.

Two framings cover every artifact. A matrix file (checkpoint, index) is a
JSON header line carrying a schema_version, then row-major little-endian
float64 matrices back to back. A line file (pairs, runs, RAG datasets,
sweeps, logs, sidecars, configs) is UTF-8 text, one item per line, JSON
with sorted keys where it holds JSON. Every write goes to a sibling
temporary file that replaces the target only once it is complete, so an
interrupted write leaves the previous file as it was.
"""

import functools
import json
import os
import stat

import numpy as np

from .errors import MalformedArtifact

to_json = functools.partial(json.dumps, sort_keys=True)


def _write(path, chunks):
    """Write the byte strings `chunks` to `path` through a sibling temporary
    file. A path that exists but is not a regular file (a device, a FIFO, a
    link) is written in place, since a rename would replace the node itself."""
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")  # permissions follow the umask, as for a plain open
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_lines(path, lines):
    """Write each string of `lines` as one UTF-8 line."""
    _write(path, (line.encode() + b"\n" for line in lines))


def read_lines(path):
    """(line_no, text) for each non-blank line, numbered from 1, without its newline.

    Raises MalformedArtifact naming the first line that is not UTF-8.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedArtifact(path, f"line {line_no}: not UTF-8") from None
            if text.strip():
                yield line_no, text.rstrip("\n")


def read_headed_lines(path, kind):
    """The JSON object on line 1 and an iterator over read_lines' later lines.

    Raises MalformedArtifact unless line 1 is a JSON object.
    """
    lines = read_lines(path)
    line_no, text = next(lines, (None, None))
    try:
        header = json.loads(text) if line_no == 1 else None
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise MalformedArtifact(path, f"line 1: {kind} header is not a JSON object")
    return header, lines


def write_matrices(path, header, *matrices):
    """A JSON header line, then each matrix as row-major little-endian float64."""
    _write(path, [
        to_json(header).encode() + b"\n",
        *(np.ascontiguousarray(m, dtype="<f8").tobytes() for m in matrices),
    ])


def read_header(path, kind, version):
    """The header written by write_matrices and the bytes that follow it.

    Raises MalformedArtifact unless the header is a JSON object whose
    schema_version is `version`.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(line)
    except ValueError:
        raise MalformedArtifact(path, f"{kind} header is not a JSON line") from None
    if not isinstance(header, dict) or header.get("schema_version") != version:
        raise MalformedArtifact(path, f"{kind} schema_version is not {version!r}")
    return header, body


def read_matrices(path, kind, body, *shapes):
    """The matrices of `shapes`, stored back to back in `body`, as fresh arrays.

    Raises MalformedArtifact unless `body` holds exactly their values, all
    finite.
    """
    sizes = [rows * cols for rows, cols in shapes]
    expected = 8 * sum(sizes)
    if len(body) != expected:
        raise MalformedArtifact(path, f"{kind} body is {len(body)} bytes, expected {expected}")
    values = np.frombuffer(body, dtype="<f8")
    if not np.isfinite(values).all():
        raise MalformedArtifact(path, f"{kind} has non-finite entries")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    return [part.reshape(shape).copy() for part, shape in zip(parts, shapes)]
