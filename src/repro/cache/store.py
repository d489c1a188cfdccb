"""The two-tier certified solution cache.

Tier 1 is an in-process LRU (an ``OrderedDict`` capped at
``max_memory_entries``); tier 2 is an optional on-disk store shared by
every process pointing at the same path:

* ``<path>`` — an append-only JSONL **index**.  Lines are
  ``{"type": "entry", "fp": digest, "status": ..., ...}`` or
  ``{"type": "evict", "fp": digest}``; replaying the file in order
  (last operation per digest wins) reconstructs the live index, exactly
  like the lease log's pure fold.  Appends use the same ``O_APPEND``
  single-``write`` discipline as
  :meth:`repro.portfolio.leases.LeaseLog._append`, so concurrent
  writers — pool workers, elastic workers, even across hosts on a
  POSIX-append filesystem — never interleave bytes.  Readers skip
  undecodable lines (a torn tail from a killed writer only loses
  itself): dropping a cache line is always safe because a miss just
  means a cold solve, and a *wrong* line can at worst produce a hit
  that fails its SAT check and is evicted.
* ``<path>.payloads/<digest>.aag`` — one AIGER ASCII file per
  ``SYNTHESIZED`` entry holding the canonical Skolem vector
  (written to a temp file and ``os.replace``\\ d, so readers never see
  a half-written payload; concurrent writers of the *same* digest both
  hold re-checkable vectors, so last-writer-wins is sound).
  ``FALSE`` entries carry their universal witness inline in the index
  line instead.

Corruption anywhere — unreadable payload, malformed index value,
mismatched shapes — degrades to a miss plus an eviction, never an
error and never a wrong answer (the caller proves every hit for the
submitted instance, by SAT or by exact renaming of an instance it
proved by SAT earlier in this process; see :mod:`repro.cache.resolve`).
A freshly loaded entry carries no such proof, so its first hit in a
process is always proven by SAT.
"""

import json
import os
from collections import OrderedDict

from repro.core.result import Status
from repro.formula.aig import functions_to_aig, read_henkin_aiger

__all__ = ["CacheEntry", "SolutionCache"]

#: Default tier-1 capacity (entries, not bytes: vectors are small DAGs).
DEFAULT_MEMORY_ENTRIES = 256


class CacheEntry:
    """One cached decisive outcome, in canonical numbering.

    ``status`` is ``Status.SYNTHESIZED`` (``functions`` holds the
    canonical ``{y: BoolExpr}`` vector) or ``Status.FALSE``
    (``witness`` holds the canonical ``{x: bool}`` falsity witness).
    ``proven`` is ``None`` until :func:`repro.cache.resolve.cache_lookup`
    proves the entry by SAT for some instance; it then holds that
    instance's image in canonical ids, so exact renamings of it are
    proven without SAT.  It lives only on this object: it is never
    written to disk and is dropped with the entry.
    """

    __slots__ = ("status", "functions", "witness", "proven")

    def __init__(self, status, functions=None, witness=None):
        self.status = status
        self.functions = functions
        self.witness = witness
        self.proven = None

    def __repr__(self):
        return "CacheEntry(%s)" % (self.status,)


class SolutionCache:
    """Two-tier fingerprint-keyed cache of certified solutions.

    ``path=None`` keeps the cache purely in-process (tier 1 only).
    ``counters`` tracks ``hits`` / ``misses`` / ``stores`` /
    ``evictions`` for reporting; hit/miss here means raw lookup
    outcome — the certification verdict on a hit is the caller's
    (:func:`repro.cache.resolve.cache_lookup`) business.
    """

    def __init__(self, path=None,
                 max_memory_entries=DEFAULT_MEMORY_ENTRIES):
        self.path = path
        self.payload_dir = (path + ".payloads") if path else None
        self.max_memory_entries = max_memory_entries
        self._lru = OrderedDict()
        self._disk = None  # lazily loaded {digest: index line dict}
        self.counters = {"hits": 0, "misses": 0, "stores": 0,
                         "evictions": 0}

    # ------------------------------------------------------------------
    # on-disk index (same append discipline as LeaseLog)
    # ------------------------------------------------------------------
    def _append(self, data):
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        line = (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")
        if self._tail_is_torn():
            # A predecessor died mid-append; start a fresh line so the
            # torn record only loses itself.  The check-then-write race
            # at worst yields a blank line, which readers skip.
            line = b"\n" + line
        fd = os.open(self.path,
                     os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def _tail_is_torn(self):
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    def _load_index(self):
        if self._disk is not None:
            return self._disk
        self._disk = {}
        if self.path is None:
            return self._disk
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return self._disk
        for line in raw.decode("utf-8", "replace").splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue  # torn/garbled line: see module docstring
            if not isinstance(data, dict):
                continue
            digest = data.get("fp")
            if not isinstance(digest, str):
                continue
            kind = data.get("type")
            if kind == "entry":
                self._disk[digest] = data
            elif kind == "evict":
                self._disk.pop(digest, None)
        return self._disk

    def _payload_path(self, digest):
        return os.path.join(self.payload_dir, digest + ".aag")

    def _read_entry(self, data):
        """Materialize a :class:`CacheEntry` from one index line.

        Raises on any malformed content — the caller converts that
        into an eviction.
        """
        status = data["status"]
        if status == Status.SYNTHESIZED:
            with open(self._payload_path(data["fp"])) as handle:
                functions = read_henkin_aiger(handle.read())
            return CacheEntry(Status.SYNTHESIZED, functions=functions)
        if status == Status.FALSE:
            witness = {int(x): bool(v)
                       for x, v in data["witness"].items()}
            return CacheEntry(Status.FALSE, witness=witness)
        raise ValueError("uncacheable status %r" % (status,))

    # ------------------------------------------------------------------
    # cache operations
    # ------------------------------------------------------------------
    def get(self, digest):
        """The live :class:`CacheEntry` for ``digest``, or ``None``.

        A disk entry that fails to materialize (missing or corrupt
        payload, malformed witness) is evicted and reported as a miss.
        """
        entry = self._lru.get(digest)
        if entry is not None:
            self._lru.move_to_end(digest)
            self.counters["hits"] += 1
            return entry
        data = self._load_index().get(digest)
        if data is not None:
            try:
                entry = self._read_entry(data)
            except Exception:
                self.evict(digest)
                self.counters["misses"] += 1
                return None
            self._remember(digest, entry)
            self.counters["hits"] += 1
            return entry
        self.counters["misses"] += 1
        return None

    def put(self, digest, status, functions=None, witness=None):
        """Record one decisive outcome under ``digest``.

        ``functions``/``witness`` must already be in canonical
        numbering.  Re-putting a digest overwrites (last writer wins —
        both writers held re-certifiable entries).
        """
        if status not in (Status.SYNTHESIZED, Status.FALSE):
            raise ValueError("only SYNTHESIZED/FALSE outcomes are "
                             "cacheable, not %r" % (status,))
        entry = CacheEntry(status, functions=functions, witness=witness)
        self._remember(digest, entry)
        self.counters["stores"] += 1
        if self.path is None:
            return
        line = {"type": "entry", "fp": digest, "status": str(status)}
        if status == Status.SYNTHESIZED:
            os.makedirs(self.payload_dir, exist_ok=True)
            payload = self._payload_path(digest)
            tmp = "%s.tmp-%d" % (payload, os.getpid())
            with open(tmp, "w") as handle:
                handle.write(functions_to_aig(functions).to_aag())
            os.replace(tmp, payload)
        else:
            line["witness"] = {str(x): bool(v)
                               for x, v in witness.items()}
        self._append(line)
        self._load_index()[digest] = line

    def evict(self, digest):
        """Drop ``digest`` from both tiers (appending a tombstone)."""
        self._lru.pop(digest, None)
        self.counters["evictions"] += 1
        if self.path is None:
            return
        # Tombstone unconditionally: a concurrent writer's entry line
        # may not be in our index snapshot yet, and replay folds
        # evictions in file order anyway.
        self._append({"type": "evict", "fp": digest})
        self._load_index().pop(digest, None)

    def _remember(self, digest, entry):
        self._lru[digest] = entry
        self._lru.move_to_end(digest)
        while len(self._lru) > self.max_memory_entries:
            self._lru.popitem(last=False)

    def __len__(self):
        """Live entries visible to this process (both tiers)."""
        keys = set(self._lru)
        if self.path is not None:
            keys.update(self._load_index())
        return len(keys)

    def __repr__(self):
        return "SolutionCache(%r, %d entries)" % (self.path, len(self))
