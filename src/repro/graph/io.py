"""Serialization for multi-relational graphs.

Three formats, chosen for interoperability rather than invention:

* **triple CSV** — one ``tail,label,head`` line per edge; the lingua franca
  of edge lists.  Isolated vertices travel as ``#vertex,<id>`` rows (the
  ``#vertex`` marker is reserved; endpoints of edges need no row).  Lossy
  for properties, and **strings only**: ids that are not ``str`` would come
  back as different values, so :func:`write_triples` refuses them — use
  JSON for typed ids.
* **JSON** — a complete dump: vertices with properties, edges with
  properties, graph name.  Round-trips everything.
* **GraphML subset** — enough of GraphML to exchange labeled digraphs with
  external tools (edge labels as a ``label`` data key).

Every reader validates its input and raises :class:`SerializationError` with
a line/position diagnostic on malformed data.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ElementTree
from typing import Any, Dict, IO, Union

from repro.errors import SerializationError
from repro.graph.graph import MultiRelationalGraph

__all__ = [
    "write_triples",
    "read_triples",
    "to_triple_text",
    "from_triple_text",
    "write_json",
    "read_json",
    "to_json_dict",
    "from_json_dict",
    "write_graphml",
    "read_graphml",
]


def _opened(file: Union[str, IO], mode: str):
    """Return (stream, should_close) for a path or an already-open stream."""
    if isinstance(file, str):
        return open(file, mode, encoding="utf-8", newline=""), True
    return file, False


# ----------------------------------------------------------------------
# Triple CSV
# ----------------------------------------------------------------------

#: Reserved first field marking an isolated-vertex row in triple CSV.
_VERTEX_MARKER = "#vertex"


def write_triples(graph: MultiRelationalGraph, file: Union[str, IO]) -> None:
    """Write the graph as CSV: ``tail,label,head`` edge rows (sorted,
    stable) plus a ``#vertex,<id>`` row per isolated vertex.

    Without the vertex rows, ``read_triples(to_triple_text(g))`` silently
    dropped every vertex with no incident edge — the round trip now
    preserves the full vertex set.

    Raises
    ------
    SerializationError
        If any vertex id or label is not a ``str``.  CSV has no types:
        an ``int``-vertex graph would round-trip to a *different* graph
        (``1`` back as ``"1"``).  Use the JSON format for typed ids.
    """
    # Validate every id BEFORE opening/writing: raising mid-stream would
    # leave a truncated partial file (possibly clobbering a good one).
    for value in graph.vertices() | graph.labels():
        if not isinstance(value, str):
            raise SerializationError(
                "triple CSV is a string-only format: {!r} would read back "
                "as {!r}; use write_json for non-string vertex ids and "
                "labels".format(value, str(value)))
    stream, should_close = _opened(file, "w")
    try:
        writer = csv.writer(stream)
        for e in sorted(graph.edge_set(), key=repr):
            writer.writerow([e.tail, e.label, e.head])
        for v in sorted(graph.vertices(), key=repr):
            if not graph.out_edges(v) and not graph.in_edges(v):
                writer.writerow([_VERTEX_MARKER, v])
    finally:
        if should_close:
            stream.close()


def read_triples(file: Union[str, IO], name: str = "") -> MultiRelationalGraph:
    """Read a ``tail,label,head`` CSV into a graph (values kept as strings).

    ``#vertex,<id>`` rows (written for isolated vertices) restore bare
    vertices; everything else must be a 3-field edge row.
    """
    stream, should_close = _opened(file, "r")
    try:
        graph = MultiRelationalGraph(name=name)
        for line_number, row in enumerate(csv.reader(stream), start=1):
            if not row:
                continue
            if row[0] == _VERTEX_MARKER and len(row) == 2:
                graph.add_vertex(row[1])
                continue
            if len(row) != 3:
                raise SerializationError(
                    "line {}: expected 3 fields, got {}".format(line_number, len(row)))
            graph.add_edge(row[0], row[1], row[2])
        return graph
    finally:
        if should_close:
            stream.close()


def to_triple_text(graph: MultiRelationalGraph) -> str:
    """The triple CSV as a string."""
    buffer = io.StringIO()
    write_triples(graph, buffer)
    return buffer.getvalue()


def from_triple_text(text: str, name: str = "") -> MultiRelationalGraph:
    """Parse triple CSV text into a graph."""
    return read_triples(io.StringIO(text), name=name)


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def to_json_dict(graph: MultiRelationalGraph) -> Dict[str, Any]:
    """A complete JSON-serializable dictionary for ``graph``.

    Vertices and labels must themselves be JSON-representable (strings,
    numbers, booleans); tuples will come back as lists.
    """
    return {
        "format": "repro-multirelational-v1",
        "name": graph.name,
        "vertices": [
            {"id": v, "properties": graph.vertex_properties(v)}
            for v in sorted(graph.vertices(), key=repr)
        ],
        "edges": [
            {
                "tail": e.tail,
                "label": e.label,
                "head": e.head,
                "properties": graph.edge_properties(e.tail, e.label, e.head),
            }
            for e in sorted(graph.edge_set(), key=repr)
        ],
    }


def from_json_dict(data: Dict[str, Any]) -> MultiRelationalGraph:
    """Rebuild a graph from :func:`to_json_dict` output."""
    if not isinstance(data, dict):
        raise SerializationError("expected a JSON object at the top level")
    if data.get("format") != "repro-multirelational-v1":
        raise SerializationError(
            "unknown format marker {!r}".format(data.get("format")))
    graph = MultiRelationalGraph(name=data.get("name", ""))
    for record in data.get("vertices", []):
        if "id" not in record:
            raise SerializationError("vertex record missing 'id': {!r}".format(record))
        graph.add_vertex(record["id"], **record.get("properties", {}))
    for record in data.get("edges", []):
        missing = {"tail", "label", "head"} - set(record)
        if missing:
            raise SerializationError(
                "edge record missing {}: {!r}".format(sorted(missing), record))
        graph.add_edge(record["tail"], record["label"], record["head"],
                       **record.get("properties", {}))
    return graph


def write_json(graph: MultiRelationalGraph, file: Union[str, IO], indent: int = 2) -> None:
    """Dump the complete graph as JSON."""
    stream, should_close = _opened(file, "w")
    try:
        json.dump(to_json_dict(graph), stream, indent=indent, sort_keys=True)
    finally:
        if should_close:
            stream.close()


def read_json(file: Union[str, IO]) -> MultiRelationalGraph:
    """Load a graph dumped by :func:`write_json`."""
    stream, should_close = _opened(file, "r")
    try:
        try:
            data = json.load(stream)
        except json.JSONDecodeError as exc:
            raise SerializationError("invalid JSON: {}".format(exc)) from exc
        return from_json_dict(data)
    finally:
        if should_close:
            stream.close()


# ----------------------------------------------------------------------
# GraphML subset
# ----------------------------------------------------------------------

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def write_graphml(graph: MultiRelationalGraph, file: Union[str, IO]) -> None:
    """Write a GraphML document; the edge label goes into a ``label`` data key.

    Vertex ids and labels are stringified (GraphML ids are strings).
    Properties are not serialized in this subset — use JSON for full fidelity.
    """
    root = ElementTree.Element("graphml", xmlns=_GRAPHML_NS)
    key = ElementTree.SubElement(
        root, "key", id="label", attrib={"for": "edge",
                                         "attr.name": "label",
                                         "attr.type": "string"})
    del key  # structure only; no children needed
    graph_el = ElementTree.SubElement(
        root, "graph", id=graph.name or "G", edgedefault="directed")
    for v in sorted(graph.vertices(), key=repr):
        ElementTree.SubElement(graph_el, "node", id=str(v))
    for e in sorted(graph.edge_set(), key=repr):
        edge_el = ElementTree.SubElement(
            graph_el, "edge", source=str(e.tail), target=str(e.head))
        data = ElementTree.SubElement(edge_el, "data", key="label")
        data.text = str(e.label)
    text = ElementTree.tostring(root, encoding="unicode")
    stream, should_close = _opened(file, "w")
    try:
        stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        stream.write(text)
    finally:
        if should_close:
            stream.close()


def read_graphml(file: Union[str, IO], name: str = "") -> MultiRelationalGraph:
    """Read the GraphML subset written by :func:`write_graphml`.

    Unlabeled edges get the label ``"edge"`` (GraphML permits plain digraphs).
    """
    stream, should_close = _opened(file, "r")
    try:
        try:
            tree = ElementTree.parse(stream)
        except ElementTree.ParseError as exc:
            raise SerializationError("invalid GraphML XML: {}".format(exc)) from exc
    finally:
        if should_close:
            stream.close()
    root = tree.getroot()
    def qualified(tag: str) -> str:
        return "{{{}}}{}".format(_GRAPHML_NS, tag)
    graph_el = root.find(qualified("graph"))
    if graph_el is None:
        # Tolerate documents written without the namespace.
        graph_el = root.find("graph")
    if graph_el is None:
        raise SerializationError("GraphML document has no <graph> element")
    graph = MultiRelationalGraph(name=name or graph_el.get("id", ""))
    for node_el in list(graph_el.iter(qualified("node"))) + list(graph_el.iter("node")):
        node_id = node_el.get("id")
        if node_id is None:
            raise SerializationError("<node> without an id attribute")
        graph.add_vertex(node_id)
    for edge_el in list(graph_el.iter(qualified("edge"))) + list(graph_el.iter("edge")):
        source = edge_el.get("source")
        target = edge_el.get("target")
        if source is None or target is None:
            raise SerializationError("<edge> missing source/target")
        label = "edge"
        for data_el in list(edge_el.iter(qualified("data"))) + list(edge_el.iter("data")):
            if data_el.get("key") == "label" and data_el.text is not None:
                label = data_el.text
        graph.add_edge(source, label, target)
    return graph
