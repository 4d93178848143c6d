"""The in-memory database: objects, catalog, startup files.

The prototype keeps the whole database in server main memory (paper
section 6): objects are initialised from a startup data file when the
server starts, writes mutate memory in place (with shadow copies for abort
restore), and object-level limits (OIL/OEL) live with the objects.

The startup file format is line-oriented plain text::

    # comment
    <object-id> <value> [<oil> <oel>] [<group>]

where ``oil``/``oel`` may be the word ``inf`` for an unbounded limit and
``group`` attaches the object to a group declared earlier with::

    group <name> [<parent>]

Group lines may appear anywhere before the objects that use them.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.core.bounds import ObjectBounds
from repro.core.hierarchy import GroupCatalog
from repro.engine.objects import DEFAULT_VERSION_WINDOW, DataObject
from repro.errors import SpecificationError, UnknownObjectError

__all__ = ["Database"]


def _parse_limit(token: str) -> float:
    if token.lower() in ("inf", "unbounded", "none"):
        return math.inf
    return float(token)


class Database:
    """A collection of :class:`DataObject` plus the group catalog."""

    def __init__(
        self,
        catalog: GroupCatalog | None = None,
        version_window: int = DEFAULT_VERSION_WINDOW,
    ):
        self.catalog = catalog if catalog is not None else GroupCatalog()
        self.version_window = version_window
        self._objects: dict[int, DataObject] = {}

    # -- population ----------------------------------------------------------

    def create_object(
        self,
        object_id: int,
        value: float,
        bounds: ObjectBounds | None = None,
        group: str | None = None,
    ) -> DataObject:
        """Add one object; optionally place it in a catalog group."""
        if object_id in self._objects:
            raise SpecificationError(f"object {object_id} already exists")
        obj = DataObject(object_id, value, bounds, self.version_window)
        self._objects[object_id] = obj
        if group is not None:
            self.catalog.assign(object_id, group)
        return obj

    def create_many(
        self, items: Iterable[tuple[int, float]], bounds: ObjectBounds | None = None
    ) -> None:
        """Bulk-create objects sharing one :class:`ObjectBounds`."""
        for object_id, value in items:
            self.create_object(object_id, value, bounds)

    def adopt_object(self, obj: DataObject) -> DataObject:
        """Insert an *existing* :class:`DataObject` instance, un-copied.

        The sharded engine partitions one database into per-shard views
        that alias the same objects (and share the same catalog), so a
        write through a shard is immediately visible in the full
        database.  Raises if the id is already present.
        """
        if obj.object_id in self._objects:
            raise SpecificationError(f"object {obj.object_id} already exists")
        self._objects[obj.object_id] = obj
        return obj

    @classmethod
    def from_startup_file(
        cls, path: str | Path, version_window: int = DEFAULT_VERSION_WINDOW
    ) -> "Database":
        """Build a database from a startup data file (format above)."""
        db = cls(version_window=version_window)
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                tokens = line.split()
                try:
                    db._apply_startup_line(tokens)
                except (ValueError, SpecificationError) as exc:
                    raise SpecificationError(
                        f"{path}:{lineno}: bad startup line {line!r}: {exc}"
                    ) from exc
        return db

    def _apply_startup_line(self, tokens: list[str]) -> None:
        if tokens[0].lower() == "group":
            if len(tokens) == 2:
                self.catalog.add_group(tokens[1])
            elif len(tokens) == 3:
                self.catalog.add_group(tokens[1], parent=tokens[2])
            else:
                raise SpecificationError("expected: group <name> [<parent>]")
            return
        object_id = int(tokens[0])
        value = float(tokens[1])
        bounds = None
        group = None
        rest = tokens[2:]
        if len(rest) >= 2:
            bounds = ObjectBounds(
                import_limit=_parse_limit(rest[0]),
                export_limit=_parse_limit(rest[1]),
            )
            rest = rest[2:]
        if rest:
            group = rest[0]
        self.create_object(object_id, value, bounds, group)

    def write_startup_file(self, path: str | Path) -> None:
        """Serialise the current committed state back to the file format."""
        lines = ["# repro database startup file"]
        seen_groups: list[str] = []
        for group in self.catalog.groups():
            parent = self.catalog.parent_of(group)
            if parent == "<transaction>":
                lines.append(f"group {group}")
            else:
                lines.append(f"group {group} {parent}")
            seen_groups.append(group)
        for object_id in sorted(self._objects):
            obj = self._objects[object_id]
            oil = obj.bounds.import_limit
            oel = obj.bounds.export_limit
            oil_s = "inf" if math.isinf(oil) else f"{oil:g}"
            oel_s = "inf" if math.isinf(oel) else f"{oel:g}"
            group = self.catalog.group_of(object_id)
            suffix = f" {group}" if group != "<transaction>" else ""
            lines.append(
                f"{object_id} {obj.committed_value:g} {oil_s} {oel_s}{suffix}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    # -- access ---------------------------------------------------------------

    def get(self, object_id: int) -> DataObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise UnknownObjectError(
                f"no object with id {object_id}"
            ) from None

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def object_ids(self) -> Iterator[int]:
        return iter(self._objects)

    def objects(self) -> Iterator[DataObject]:
        return iter(self._objects.values())

    def by_id(self) -> Mapping[int, DataObject]:
        """The live id -> object mapping, read-only by contract.

        The transaction manager holds it to look each operation's object
        up without a call; :meth:`get` is the lookup that raises
        :class:`UnknownObjectError` for an unknown id.
        """
        return self._objects

    def committed_snapshot(self) -> dict[int, float]:
        """``{id: committed value}`` — useful for tests and examples."""
        return {
            object_id: obj.committed_value
            for object_id, obj in self._objects.items()
        }

    def total_committed_value(self) -> float:
        """Sum of all committed values (the banking example's 'overall')."""
        return sum(obj.committed_value for obj in self._objects.values())

    def __repr__(self) -> str:
        return f"Database(objects={len(self._objects)})"
