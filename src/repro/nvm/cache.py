"""CPU store-buffer / cache model in front of the durable medium.

Semantics (matching x86 + ADR persistence):

- ``store`` writes are immediately visible to loads but *volatile*.
- ``flush`` (clwb) queues the covered cache lines for write-back.
- ``fence`` (sfence) guarantees every queued line is durable.
- Any dirty or queued line may *also* become durable at any moment
  (cache eviction), so a crash image is: the fenced image, plus an
  arbitrary subset of unfenced 8-byte words.

Word (8-byte) granularity is the atomicity unit: an aligned 8-byte store
never tears, anything larger may persist partially.

Representation
==============

The dirty (stored-not-flushed), pending (flushed-not-fenced) and touched
(stored-since-durable) sets are cache-line/word-granular chunked bitmaps
(:class:`repro.nvm.bitmap.RangeBitmap`) instead of sorted interval
lists: a bulk store is a single slice assignment plus a few chunk-mask
ORs, and scattered small stores OR one bit into one small int instead of
splicing a Python list.

``pending`` and ``touched`` are additionally maintained *lazily*: the
store paths append raw ranges to ``_pending_log``/``_touched_log`` and
the logs are folded into the bitmaps only when set semantics are needed
(fence-with-dirty, external inspection); the common fence replays the
raw ranges directly (idempotent) and drops both wholesale.

Images: one working buffer, durable = base + page overlay
--------------------------------------------------------

No image is copied or zeroed in full behind the caller's back, so
booting, draining and imaging cost in proportion to the words touched,
not to the device size:

- The **working image** (what loads observe) is one contiguous writable
  buffer, so the store/load hot path is a single slice copy. A booted
  device gets one copy of its image; a fresh device a zero-filled
  buffer (:func:`_zeroed`: demand-zero anonymous ``mmap`` above
  :data:`_EAGER_ZERO_MAX`).
- The **durable image** (what survives a crash) is a *base* under a
  page-granular *overlay*, layered like a ``ChainMap``. A fresh
  device's base is the zero page, held as a private :func:`_zeroed`
  buffer that fences write in place: above the eager size the kernel
  does the page-granular copy-on-write from the zero page itself. The
  base of :meth:`StoreBuffer.from_image` is the caller's image, shared
  and never written: page p reads from ``_pages[p]`` once a fence or
  drain has written to it, from the image otherwise, and enters the
  overlay as a copy of its image bytes.
- A fence copies each pending run into the durable image (one slice per
  run, or per overlay page it covers). :meth:`StoreBuffer.drain` copies
  only the ``touched`` runs: ``touched`` always covers every word where
  working and durable differ (see :meth:`StoreBuffer.fence`), so
  everything else already agrees.
- :meth:`StoreBuffer.crash_image` builds a full image in one pass:
  base, overlay, then the chosen unfenced words. A booted device's
  untouched durable image is its base, returned without a copy.

The crash-image candidate set (``unfenced_words``) scans only touched
runs — in ascending offset order, exactly the order the interval-based
tracker produced — so ``choose_persist_words`` yields identical subsets
from the same seed across the representation change; the word list is
memoized until the next mutation.
"""

from __future__ import annotations

import mmap
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.bitmap import RangeBitmap
from repro.util import ATOMIC_UNIT, CACHE_LINE

# Alignment masks (power-of-two sizes): x & _LINE_MASK == align_down,
# (x + LINE - 1) & _LINE_MASK == align_up. Inlined in the hot methods —
# these run several times per simulated write.
_LINE = CACHE_LINE
_LINE_MASK = -CACHE_LINE
_LINE_SHIFT = CACHE_LINE.bit_length() - 1
_WORD_MASK = -ATOMIC_UNIT

#: touched runs at least this long diff working vs durable through a
#: vectorized uint64 compare; shorter runs stay on the per-word loop
#: (less constant overhead). Both scans emit words in ascending order.
_VECTOR_SCAN_BYTES = 1024

#: overlay page: the unit a durable image copies from a shared base
_PAGE = 4096
_PAGE_SHIFT = _PAGE.bit_length() - 1
#: fresh images up to this size are zero-filled when made, larger ones
#: are demand-zero. A device that touches most of its pages takes a page
#: fault per page either way, and filling it when made keeps those
#: faults out of the run that follows (a small buffer, served from the
#: allocator's heap, may take none). A device that touches few pages
#: saves the faults and the resident memory by being demand-zero. The
#: touched share is unknown when a device is made, so the size stands in
#: for it. The benchmark's devices are dense and stay eager: a crashsweep
#: unit's 4 MB device; fio-mgsp-mixed's 64 MB device (setup writes 25%
#: of its pages, a measured round writes 49% and reads 43%);
#: service-1000t's two 64 MB shards (49% written at setup, 11% per
#: round). A sparse large device (256 MB touched by 1000 small stores:
#: 1.5% of its pages) is demand-zero.
_EAGER_ZERO_MAX = 64 << 20


def _zeroed(size: int):
    """A writable zero-filled buffer of *size* bytes; above
    :data:`_EAGER_ZERO_MAX` its pages are only allocated when first
    written (anonymous private ``mmap``, huge pages off so a scattered
    write commits 4 KB, not 2 MB)."""
    if size <= _EAGER_ZERO_MAX:
        return bytearray(size)
    if not hasattr(mmap, "MAP_PRIVATE"):  # Windows: pagefile-backed, lazily committed
        return mmap.mmap(-1, size)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return buf


def choose_persist_words(
    candidates: Sequence[int], rng: random.Random, persist_probability: float
) -> List[int]:
    """The word subset a random crash persists: each candidate flips the
    given rng's coin, *in candidate order*. Kept as a standalone function
    so crash-image composition and the crash-sweep minimizer derive the
    identical subset from the same seed."""
    return [w for w in candidates if rng.random() < persist_probability]


class StoreBuffer:
    """Volatile view over a durable byte image (see the module docstring
    for the working / base + overlay representation)."""

    def __init__(self, size: int, image: Optional[bytes] = None) -> None:
        self.size = size
        #: what loads observe
        self._working = _zeroed(size) if image is None else bytearray(image)
        #: the durable base: a private zeroed buffer, written in place,
        #: or a shared image, written through ``_pages`` (page index ->
        #: that page's durable bytes); None while the base is private
        self._base = _zeroed(size) if image is None else image
        self._pages: Optional[Dict[int, bytearray]] = None if image is None else {}
        #: persistent views for single-pass bulk copies (a slice on
        #: either side of an assignment would materialise an
        #: intermediate copy). The buffers never resize, so the views
        #: stay valid for the buffer's lifetime.
        self._wmv = memoryview(self._working)
        self._bmv = memoryview(self._base)
        self.dirty = RangeBitmap(CACHE_LINE)  # stored, not flushed
        #: flushed, not fenced. Like ``touched``, maintained lazily: the
        #: non-temporal store paths append line-aligned ranges to
        #: ``_pending_log`` and the log is folded in only when set
        #: semantics are needed (fence-with-dirty, external inspection);
        #: the common fence just replays the raw ranges (idempotent).
        self.pending = RangeBitmap(CACHE_LINE)
        self._pending_log: List[tuple] = []
        #: word-aligned ranges stored since last made durable; always a
        #: superset of the words where working and durable differ.
        #: Maintained lazily: stores append to ``_touched_log`` and the
        #: log is folded into the bitmap only when someone needs it
        #: (fence-with-dirty, unfenced_words) — the common fence drops
        #: both wholesale.
        self.touched = RangeBitmap(ATOMIC_UNIT)
        self._touched_log: List[tuple] = []
        self._uw_cache: Optional[List[int]] = None

    @classmethod
    def from_image(cls, image: bytes) -> "StoreBuffer":
        """A buffer whose working and durable images both equal *image*.

        The image becomes the durable base without a copy (any other
        buffer type is copied to ``bytes`` first, so later writes to it
        cannot leak in); the working image is its one copy.
        """
        if type(image) is not bytes:
            image = bytes(image)
        return cls(len(image), image)

    def _consolidate_touched(self) -> RangeBitmap:
        log = self._touched_log
        if log:
            touched = self.touched
            for s, e in log:
                touched.add(s, e)
            log.clear()
        return self.touched

    def _consolidate_pending(self) -> RangeBitmap:
        log = self._pending_log
        if log:
            pending = self.pending
            for s, e in log:
                pending.add(s, e)
            log.clear()
        return self.pending

    def pending_set(self) -> RangeBitmap:
        """The flushed-not-fenced line bitmap (consolidated view)."""
        return self._consolidate_pending()

    def has_pending(self) -> bool:
        """Whether a fence would make anything durable (cheap: checks
        the raw log before consolidating the bitmap)."""
        return bool(self._pending_log) or bool(self.pending)

    # -- the persistence primitives ---------------------------------------

    def store(self, offset: int, data) -> None:
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"store [{offset}, {end}) outside device of {self.size}")
        self._working[offset:end] = data
        self.dirty.add(offset & _LINE_MASK, (end + _LINE - 1) & _LINE_MASK)
        self._touched_log.append((offset & _WORD_MASK, (end + ATOMIC_UNIT - 1) & _WORD_MASK))
        self._uw_cache = None

    def store_v(self, writes: Sequence[Tuple[int, bytes]]) -> int:
        """Bulk :meth:`store`: identical per-element state transitions,
        shared attribute lookups. Validates every element up front and
        raises before mutating anything, so a caller can fall back to
        the per-element path for exact partial-application semantics.
        Returns total bytes stored."""
        size = self.size
        for offset, data in writes:
            if offset < 0 or offset + len(data) > size:
                end = offset + len(data)
                raise OutOfRangeError(f"store [{offset}, {end}) outside device of {size}")
        working = self._working
        dirty = self.dirty
        tlog = self._touched_log
        total = 0
        for offset, data in writes:
            end = offset + len(data)
            working[offset:end] = data
            dirty.add(offset & _LINE_MASK, (end + _LINE - 1) & _LINE_MASK)
            tlog.append((offset & _WORD_MASK, (end + ATOMIC_UNIT - 1) & _WORD_MASK))
            total += end - offset
        self._uw_cache = None
        return total

    def nt_store(self, offset: int, data) -> int:
        """Fused store + flush of exactly the stored range (non-temporal
        store). Equivalent to ``store`` followed by ``flush`` over the
        same bytes — the just-stored lines are always dirty, so the
        intermediate dirty-set round trip is skipped. Returns the number
        of lines queued (identical to what ``flush`` would report).
        """
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"store [{offset}, {end}) outside device of {self.size}")
        self._working[offset:end] = data
        start = offset & _LINE_MASK
        aend = (end + _LINE - 1) & _LINE_MASK
        if self.dirty:
            self.dirty.remove(start, aend)
        self._pending_log.append((start, aend))
        self._touched_log.append((offset & _WORD_MASK, (end + ATOMIC_UNIT - 1) & _WORD_MASK))
        self._uw_cache = None
        return (aend - start) >> _LINE_SHIFT

    def nt_store_v(self, writes: Sequence[Tuple[int, bytes]]) -> Tuple[int, int]:
        """Bulk :meth:`nt_store`; validates up front (see
        :meth:`store_v`). Returns (total bytes, total lines queued)."""
        size = self.size
        for offset, data in writes:
            if offset < 0 or offset + len(data) > size:
                end = offset + len(data)
                raise OutOfRangeError(f"store [{offset}, {end}) outside device of {size}")
        working = self._working
        # A batch only removes from dirty, so emptiness checked once holds.
        dirty = self.dirty if self.dirty else None
        plog = self._pending_log
        tlog = self._touched_log
        total = 0
        lines = 0
        for offset, data in writes:
            end = offset + len(data)
            working[offset:end] = data
            start = offset & _LINE_MASK
            aend = (end + _LINE - 1) & _LINE_MASK
            if dirty is not None:
                dirty.remove(start, aend)
            plog.append((start, aend))
            tlog.append((offset & _WORD_MASK, (end + ATOMIC_UNIT - 1) & _WORD_MASK))
            total += end - offset
            lines += (aend - start) >> _LINE_SHIFT
        self._uw_cache = None
        return total, lines

    def nt_store_word(self, offset: int, value: int) -> None:
        """:meth:`nt_store` specialized for one aligned 8-byte word (the
        metadata-commit pattern): same state transitions, one line."""
        if offset % ATOMIC_UNIT != 0:
            raise TornWriteError(f"atomic store at unaligned offset {offset}")
        if offset < 0 or offset + 8 > self.size:
            raise OutOfRangeError(f"store at {offset} outside device of {self.size}")
        self._working[offset : offset + 8] = value.to_bytes(8, "little")
        line = offset & _LINE_MASK
        if self.dirty:
            self.dirty.remove(line, line + _LINE)
        self._pending_log.append((line, line + _LINE))
        self._touched_log.append((offset, offset + 8))
        self._uw_cache = None

    def nt_store_words(self, words) -> None:
        """Batch of :meth:`nt_store_word` calls: identical per-word state
        transitions, shared attribute lookups across the batch. Validates
        every word up front and raises before mutating anything (see
        :meth:`store_v`), so a caller can fall back to the per-element
        path for exact partial-application semantics."""
        working = self._working
        size = self.size
        for offset, _value in words:
            if offset % ATOMIC_UNIT != 0:
                raise TornWriteError(f"atomic store at unaligned offset {offset}")
            if offset < 0 or offset + 8 > size:
                raise OutOfRangeError(f"store at {offset} outside device of {size}")
        # A batch only removes from dirty, so emptiness checked once holds.
        dirty = self.dirty if self.dirty else None
        plog = self._pending_log
        log = self._touched_log
        for offset, value in words:
            working[offset : offset + 8] = value.to_bytes(8, "little")
            line = offset & _LINE_MASK
            if dirty is not None:
                dirty.remove(line, line + _LINE)
            plog.append((line, line + _LINE))
            log.append((offset, offset + 8))
        self._uw_cache = None

    def atomic_store_u64(self, offset: int, value: int) -> None:
        """8-byte aligned atomic store (the only atomic unit NVM gives us)."""
        if offset % ATOMIC_UNIT != 0:
            raise TornWriteError(f"atomic store at unaligned offset {offset}")
        self.store(offset, value.to_bytes(8, "little"))

    def load(self, offset: int, length: int) -> bytes:
        end = offset + length
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"load [{offset}, {end}) outside device of {self.size}")
        # One copy: a bytearray slice would materialise an intermediate
        # bytearray before bytes() copied it again.
        return bytes(self._wmv[offset:end])

    def load_u64(self, offset: int) -> int:
        return int.from_bytes(self.load(offset, 8), "little")

    def flush(self, offset: int, length: int) -> int:
        """clwb every cache line covering [offset, offset+length).

        Returns the number of lines flushed (for cost accounting). Clean
        lines are skipped, as clwb on a clean line is nearly free.
        """
        if not self.dirty:
            return 0
        start = offset & _LINE_MASK
        end = (offset + length + _LINE - 1) & _LINE_MASK
        nlines = 0
        plog = self._pending_log
        for s, e in self.dirty.iter_intersect(start, end):
            plog.append((s, e))
            nlines += (e - s) >> _LINE_SHIFT
        if nlines:
            self.dirty.remove(start, end)
        return nlines

    def flush_v(self, ranges: Sequence[Tuple[int, int]]) -> List[int]:
        """Bulk :meth:`flush`; returns the lines each range queued, in
        order (0 for a redundant call, whose covered lines were all
        already clean)."""
        counts = []
        dirty = self.dirty
        plog = self._pending_log
        for offset, length in ranges:
            if not dirty:
                counts.append(0)
                continue
            start = offset & _LINE_MASK
            end = (offset + length + _LINE - 1) & _LINE_MASK
            nlines = 0
            for s, e in dirty.iter_intersect(start, end):
                plog.append((s, e))
                nlines += (e - s) >> _LINE_SHIFT
            if nlines:
                dirty.remove(start, end)
            counts.append(nlines)
        return counts

    def _make_durable(self, runs: Iterable[Tuple[int, int]]) -> None:
        """Copy the working bytes of each [start, end) run into the
        durable image: in place over a private base, else into overlay
        pages, one slice per page (a page's first write copies it in
        from the shared base)."""
        wmv = self._wmv
        pages = self._pages
        if pages is None:
            bmv = self._bmv
            for start, end in runs:
                bmv[start:end] = wmv[start:end]
            return
        size = self.size
        for start, end in runs:
            end = min(end, size)
            while start < end:
                page = start >> _PAGE_SHIFT
                lo = page << _PAGE_SHIFT
                hi = min(lo + _PAGE, end)
                chunk = pages.get(page)
                if chunk is None:
                    chunk = pages[page] = bytearray(self._bmv[lo : min(lo + _PAGE, size)])
                chunk[start - lo : hi - lo] = wmv[start:hi]
                start = hi

    def _durable_pieces(self, start: int, end: int) -> List[Tuple[int, memoryview]]:
        """``(lo, view)`` pairs tiling [start, end) in order: ``view``
        holds the durable bytes from offset ``lo`` on, taken from an
        overlay page or from the base."""
        end = min(end, self.size)
        pages = self._pages
        if not pages:
            return [(start, self._bmv[start:end])]
        first = start >> _PAGE_SHIFT
        last = (end - 1) >> _PAGE_SHIFT
        if last - first < len(pages):
            own = [p for p in range(first, last + 1) if p in pages]
        else:
            own = sorted(p for p in pages if first <= p <= last)
        pieces = []
        pos = start
        for page in own:
            lo = page << _PAGE_SHIFT
            if pos < lo:
                pieces.append((pos, self._bmv[pos:lo]))
                pos = lo
            hi = min(lo + _PAGE, end)
            pieces.append((pos, memoryview(pages[page])[pos - lo : hi - lo]))
            pos = hi
        if pos < end:
            pieces.append((pos, self._bmv[pos:end]))
        return pieces

    def fence(self) -> None:
        """sfence: everything previously flushed becomes durable."""
        if not self.dirty:
            # Common case: every store since the last fence was also
            # flushed, so the popped pending set covers all of touched
            # (touched ⊆ dirty ∪ pending always holds) — drop it whole.
            # The raw pending log is replayed directly: duplicate or
            # overlapping ranges just copy the same bytes twice.
            pending = self.pending
            if pending:
                self._make_durable(pending.runs())
                pending.clear()
            self._make_durable(self._pending_log)
            self._pending_log.clear()
            if self.touched:
                self.touched.clear()
            self._touched_log.clear()
            self._uw_cache = None
            return
        dirty = self.dirty
        touched = self._consolidate_touched()
        runs = self._consolidate_pending().pop_runs()
        self._make_durable(runs)
        for start, end in runs:
            # The fenced words now match durably; keep only the parts
            # that were re-dirtied after the flush as crash candidates.
            if touched.overlaps(start, end):
                touched.remove(start, end)
                for ds, de in dirty.iter_intersect(start, end):
                    touched.add(ds, de)
        self._uw_cache = None

    def persist(self, offset: int, length: int) -> int:
        """flush + fence convenience; returns lines flushed."""
        nlines = self.flush(offset, length)
        self.fence()
        return nlines

    def drain(self) -> None:
        """Make the entire working image durable (orderly shutdown).

        Copies only the touched runs: they cover every word where the
        working and durable images differ; everywhere else they agree.
        """
        self._make_durable(self._touched_log)
        self._make_durable(self.touched.runs())
        self.dirty.clear()
        self.pending.clear()
        self._pending_log.clear()
        self.touched.clear()
        self._touched_log.clear()
        self._uw_cache = None

    # -- crash-image composition ------------------------------------------

    def _diff_words(self, start: int, end: int, words: List[int]) -> None:
        """Append offsets of words differing between working and durable
        inside [start, end), ascending. Long runs use one vectorized
        uint64 compare; short runs use the per-word loop — same output."""
        for lo, view in self._durable_pieces(start, end):
            if len(view) >= _VECTOR_SCAN_BYTES:
                n = len(view) >> 3
                w = np.frombuffer(self._working, dtype=np.uint64, count=n, offset=lo)
                d = np.frombuffer(view, dtype=np.uint64, count=n)
                diff = np.flatnonzero(w != d)
                if len(diff):
                    words.extend((lo + (diff << 3)).tolist())
                continue
            working = self._working[lo : lo + len(view)]
            durable = bytes(view)
            if working == durable:
                continue
            for off in range(0, len(view), ATOMIC_UNIT):
                if working[off : off + 8] != durable[off : off + 8]:
                    words.append(lo + off)

    def unfenced_words(self) -> List[int]:
        """Offsets of every 8-byte word that differs between the working
        and durable images and has not been fenced.

        Memoized until the next store/fence/drain; the scan itself only
        visits ``touched`` runs rather than every dirty/pending line.
        """
        if self._uw_cache is None:
            words: List[int] = []
            for start, end in self._consolidate_touched().runs():
                self._diff_words(start, end, words)
            self._uw_cache = words
        return list(self._uw_cache)

    def _unfenced_words_full_scan(self) -> List[int]:
        """Reference implementation: re-walk every dirty/pending word.

        Kept for regression tests asserting the incremental tracker
        reports the identical word set.
        """
        words: List[int] = []
        durable = self.snapshot_durable()
        for line_bitmap in (self.dirty, self._consolidate_pending()):
            for start, end in line_bitmap.runs():
                for off in range(start, end, ATOMIC_UNIT):
                    if self._working[off : off + 8] != durable[off : off + 8]:
                        words.append(off)
        return sorted(set(words))

    def crash_image(
        self,
        persist_words: Optional[Iterable[int]] = None,
        rng: Optional[random.Random] = None,
        persist_probability: float = 0.5,
    ) -> bytes:
        """Compose a possible post-crash image.

        - With ``persist_words``, exactly those unfenced words are taken
          from the working image (for exhaustive adversarial tests).
        - Otherwise each unfenced word independently persists with
          ``persist_probability`` using ``rng`` (default: fresh RNG).
        """
        candidates = self.unfenced_words()
        if persist_words is not None:
            chosen = set(persist_words)
            unknown = chosen.difference(candidates)
            if unknown:
                raise OutOfRangeError(f"words {sorted(unknown)} are not unfenced")
            chosen = sorted(chosen)
        else:
            # analysis: allow(ambient-nondeterminism) -- exploratory default only; every replayable caller passes a seeded rng
            rng = rng or random.Random()
            chosen = choose_persist_words(candidates, rng, persist_probability)
        return self._compose(chosen)

    def _compose(self, words: Sequence[int]) -> bytes:
        """The durable image with the ascending unfenced *words* taken
        from the working image, built in one pass: base, overlay, words."""
        if not words and self._pages == {}:
            return self._base  # a shared image nothing was made durable over
        wmv = self._wmv
        pieces = []
        i = 0
        for lo, view in self._durable_pieces(0, self.size):
            hi = lo + len(view)
            pos = lo
            while i < len(words) and words[i] < hi:
                word = words[i]
                pieces.append(view[pos - lo : word - lo])
                pieces.append(wmv[word : word + ATOMIC_UNIT])
                pos = word + ATOMIC_UNIT
                i += 1
            pieces.append(view[pos - lo :])
        return b"".join(pieces)

    def snapshot_durable(self) -> bytes:
        """The image with *no* eviction of unfenced lines (kindest crash)."""
        return self._compose(())

    def snapshot_working(self) -> bytes:
        """The image loads observe: every store applied."""
        return bytes(self._wmv)
