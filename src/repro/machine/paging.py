"""Demand-paged virtual address space.

Mappings are created by the loader (one per ELF section).  The first touch
of a page raises a fault: anonymous pages cost the kernel trap only, while
file-backed pages additionally read the page through the node's buffer
cache — this is how the cost of reading DLL contents lands *where the
access happens* (at import for Vanilla/RTLD_NOW, at first call for lazy
binding, at startup for LD_BIND_NOW), which is the central mechanism behind
Table I.

The profile's ``demand_paging=False`` switch (BlueGene-style) makes
:meth:`AddressSpace.map` report the whole file range as faulted up front;
``text_limit_bytes`` (AIX 32-bit) raises :class:`TextSegmentLimitError`
when exceeded; ``randomize_load_addresses`` (exec-shield) adds a random
page slack before each mapping so per-process layouts diverge.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import ConfigError, PageFaultError, TextSegmentLimitError
from repro.fs.files import FileImage
from repro.machine.osprofile import OsProfile
from repro.rng import SeededRng


@dataclass
class Mapping:
    """One contiguous virtual mapping (an ELF section or anonymous area)."""

    start: int
    size: int
    name: str
    is_text: bool = False
    file: FileImage | None = None
    file_offset: int = 0

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self.start + self.size

    def contains(self, address: int) -> bool:
        """True if the address falls inside this mapping."""
        return self.start <= address < self.end


@dataclass
class Fault:
    """A page fault produced by a touch: where, and what backs it."""

    page_address: int
    mapping: Mapping

    @property
    def is_major(self) -> bool:
        """True if servicing requires file IO."""
        return self.mapping.file is not None

    def file_range(self, page_bytes: int) -> tuple[FileImage, int, int]:
        """The (file, offset, size) backing this page."""
        mapping = self.mapping
        if mapping.file is None:
            raise ConfigError("anonymous fault has no file range")
        offset = mapping.file_offset + (self.page_address - mapping.start)
        size = min(page_bytes, mapping.file_offset + mapping.size - offset)
        return mapping.file, offset, max(0, size)


@dataclass
class AddressSpace:
    """A process's mappings plus the set of resident pages."""

    profile: OsProfile
    rng: SeededRng | None = None
    base_address: int = 0x0000_0000_0040_0000
    _mappings: list[Mapping] = field(default_factory=list)
    _starts: list[int] = field(default_factory=list)
    _present: set[int] = field(default_factory=set)
    _next_address: int = 0
    text_bytes: int = 0

    def __post_init__(self) -> None:
        self._next_address = self.base_address

    @property
    def page_bytes(self) -> int:
        """Page size inherited from the OS profile."""
        return self.profile.page_bytes

    @property
    def present_pages(self) -> set[int]:
        """The live set of resident page numbers (``address // page``).

        The execution context's access fast path tests membership here
        to skip :meth:`touch` on a resident page; only this class adds
        to the set.
        """
        return self._present

    @property
    def mappings(self) -> tuple[Mapping, ...]:
        """All mappings in address order."""
        return tuple(self._mappings)

    def _align_up(self, value: int) -> int:
        page = self.page_bytes
        return (value + page - 1) & ~(page - 1)

    def map(
        self,
        size: int,
        name: str,
        *,
        is_text: bool = False,
        file: FileImage | None = None,
        file_offset: int = 0,
    ) -> Mapping:
        """Create a mapping and return it.

        With demand paging enabled pages start non-resident.  Without it
        (BlueGene profile) the whole mapping is immediately resident and
        the caller is responsible for charging the up-front file read (see
        :meth:`prefault_ranges`).
        """
        if size <= 0:
            raise ConfigError(f"mapping size must be positive, got {size}")
        if is_text:
            new_text = self.text_bytes + size
            limit = self.profile.text_limit_bytes
            if limit is not None and new_text > limit:
                raise TextSegmentLimitError(new_text, limit)
            self.text_bytes = new_text
        start = self._align_up(self._next_address)
        if self.profile.randomize_load_addresses and self.rng is not None:
            start += self.page_bytes * self.rng.randint(0, 255)
        mapping = Mapping(
            start=start,
            size=size,
            name=name,
            is_text=is_text,
            file=file,
            file_offset=file_offset,
        )
        index = bisect.bisect_left(self._starts, start)
        self._starts.insert(index, start)
        self._mappings.insert(index, mapping)
        self._next_address = self._align_up(mapping.end) + self.page_bytes
        if not self.profile.demand_paging:
            for page in self._pages_of(mapping.start, mapping.size):
                self._present.add(page)
        return mapping

    def _pages_of(self, address: int, size: int) -> range:
        page = self.page_bytes
        first = address // page
        last = (address + size - 1) // page
        return range(first, last + 1)

    def find_mapping(self, address: int) -> Mapping:
        """Locate the mapping containing an address."""
        index = bisect.bisect_right(self._starts, address) - 1
        if index >= 0:
            mapping = self._mappings[index]
            if mapping.contains(address):
                return mapping
        raise PageFaultError(address)

    def touch(self, address: int, size: int) -> list[Fault]:
        """Mark a byte range resident, returning the faults it produced."""
        if size <= 0:
            raise ConfigError(f"touch size must be positive, got {size}")
        faults: list[Fault] = []
        page_size = self.page_bytes
        for page in self._pages_of(address, size):
            if page in self._present:
                continue
            page_address = page * page_size
            mapping = self.find_mapping(page_address)
            self._present.add(page)
            faults.append(Fault(page_address=page_address, mapping=mapping))
        return faults

    def mark_range_present(self, address: int, size: int) -> None:
        """Mark a byte range resident without producing faults.

        Used for kernel read-ahead (pages brought in alongside a fault)
        and for metadata the dynamic linker reads eagerly at map time.
        """
        if size <= 0:
            return
        for page in self._pages_of(address, size):
            self._present.add(page)

    def is_resident(self, address: int, size: int = 1) -> bool:
        """True if the whole range is already resident."""
        return all(page in self._present for page in self._pages_of(address, size))

    def resident_pages(self) -> int:
        """Number of resident pages."""
        return len(self._present)

    def mapped_bytes(self) -> int:
        """Sum of all mapping sizes."""
        return sum(mapping.size for mapping in self._mappings)

    def prefault_ranges(self) -> list[tuple[FileImage, int, int]]:
        """File ranges that must be read up front when paging is disabled."""
        if self.profile.demand_paging:
            return []
        return [
            (mapping.file, mapping.file_offset, mapping.size)
            for mapping in self._mappings
            if mapping.file is not None
        ]
