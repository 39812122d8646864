"""The routing layer: the CSR kernel behind one epoch-keyed cache.

Scheduling dominates sweep wall-time, and almost all of it is Dijkstra:
the flexible scheduler's metric closure needs a shortest path per
terminal *pair*, twice per task, even when nothing the paths depend on
has changed.  Every scheduler routes through :class:`PathCache`, which
runs the array-native kernel (:mod:`repro.network.csr`) and memoises its
results.  Two ideas carry it:

* **Single-source trees instead of point-to-point queries.**  A cached
  :meth:`PathCache.sssp` keeps the whole distance/predecessor tree, so a
  metric closure over ``T`` terminals costs ``T - 1`` passes instead of
  ``T·(T-1)/2``, and a path to any destination is an O(path)
  extraction.  Extraction is bit-identical to a point-to-point search
  that stops at the destination: a destination's predecessor chain is
  fully settled before the search would have stopped there.

* **Validation by weight-array comparison.**  Every
  :class:`~repro.network.link.Link` mutation writes the network's link
  ledger and advances its ``epoch``; structural growth advances the
  ``topology_version``.  The epoch is the one validation key: the CSR
  snapshot re-gathers its overlay from the ledger slots when it moved,
  and the cache compares against it.  An entry remembers the epoch, the
  topology version and the per-edge weight array it was computed from.
  A lookup at an equal epoch is a free hit.  After the epoch moves, the
  token's current array is rebuilt once (vectorised from the gathered
  overlay, memoised per epoch) and compared: an
  element-equal array replays the identical computation, and for full
  trees the :func:`~repro.network.csr.tree_unaffected` change-cut also
  keeps entries whose array delta provably cannot move the tree.  A
  topology-version move drops everything — a new link offers paths no
  array of the old shape could describe.  Because the kernel is a
  deterministic function of the array, a surviving entry is
  byte-identical to a recompute.  Validation happens only at lookup:
  link failures, restores, drains and capacity changes leave the cache
  alone, and :meth:`PathCache.prune` (called after a node failure) only
  drops entries by containment, never revalidates.

Weight functions enter the cache via a small *spec* protocol: a
``cache_token()`` identifying the weight semantics (the CSR weight
builders lower it to an array), ``shareable()`` saying whether anyone
else will ever look the token up, and ``weight_fn()`` for the scalar
view.  :class:`~repro.network.auxiliary.AuxiliaryGraphBuilder`
implements it natively; :class:`LatencyWeightSpec` / :class:`HopWeightSpec`
wrap the plain weights.  One-shot point-to-point routes (background
traffic, default lightpaths) skip the cache and go straight to
:func:`repro.network.csr.shortest_paths_csr`, so they never crowd out
the schedulers' entries.  The reference oracle the equivalence tests
and benchmarks compare this path against is one object-graph heap loop
over ``spec.weight_fn()`` in ``tests/oracle.py``; no copy of it lives
in the package.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..errors import NoPathError
from .. import obs
from .graph import Network
from .paths import (
    PathResult,
    ShortestPathTree,
    TreeResult,
    WeightFn,
    hop_weight,
    k_shortest_paths,
    latency_weight,
    tree_from_metric_closure,
)
from . import csr as csr_kernel

#: The LRU bound of every :class:`PathCache`.
MAX_ENTRIES = 1024


# ---------------------------------------------------------------------------
# Weight specs: cacheable identities for weight functions
# ---------------------------------------------------------------------------

class LatencyWeightSpec:
    """Cache spec for :func:`repro.network.paths.latency_weight`.

    Latency weights depend only on a link's latency (static) and its
    failure state, so revalidation after unrelated mutations (e.g.
    reservations) is nearly always a hit.
    """

    def __init__(self, network: Network) -> None:
        self._network = network

    def cache_token(self) -> Hashable:
        return ("latency",)

    def shareable(self) -> bool:
        return True

    def weight_fn(self) -> WeightFn:
        return latency_weight(self._network)


class HopWeightSpec:
    """Cache spec for :func:`repro.network.paths.hop_weight`."""

    def __init__(self, network: Network) -> None:
        self._network = network

    def cache_token(self) -> Hashable:
        return ("hop",)

    def shareable(self) -> bool:
        return True

    def weight_fn(self) -> WeightFn:
        return hop_weight(self._network)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`PathCache`."""

    hits: int = 0
    misses: int = 0
    revalidations: int = 0
    invalidations: int = 0
    evictions: int = 0
    repairs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "repairs": self.repairs,
        }

    def snapshot(self) -> Mapping[str, int]:
        """An immutable point-in-time copy of every counter.

        The returned mapping is read-only, so a caller holding a
        snapshot across a scheduling phase cannot accidentally mutate
        (or be affected by) the live counters; pair it with
        :meth:`delta` to measure one phase's cache traffic.
        """
        return MappingProxyType(self.as_dict())

    def delta(self, since: Mapping[str, int]) -> Dict[str, int]:
        """Counter movement since an earlier :meth:`snapshot`.

        Missing keys in ``since`` count as zero, so an empty mapping
        yields the absolute counters.
        """
        return {
            name: value - since.get(name, 0)
            for name, value in self.as_dict().items()
        }


@dataclass
class _Entry:
    """One cached result: its value (or raised error) and its weight array.

    ``token`` names the weight array the entry is validated against.
    ``exact`` entries survive only an element-equal array; the others
    are full trees the change-cut may keep across unequal arrays.
    ``endpoints`` names the query's source/destination nodes so pruning
    after a node failure can drop entries anchored at the dead node by
    containment.
    """

    value: Any
    error: Optional[NoPathError]
    warray: Any
    token: Hashable
    epoch: int
    topology_version: int
    endpoints: Tuple[str, ...] = ()
    exact: bool = False


class PathCache:
    """Epoch-keyed memoisation of CSR routing results over one network.

    Keys combine the query (kind, endpoints, ``k``) with the weight
    spec's ``cache_token()``; validity is the weight-array comparison
    described in the module docstring.  Entries are LRU-evicted beyond
    :data:`MAX_ENTRIES`.  ``NoPathError`` outcomes are cached too — an
    unreachable verdict is exactly as state-dependent as a path.

    The cache never returns a result that differs from recomputing: a
    surviving entry's weight array equals the current one, or provably
    differs only where it cannot move the entry's tree.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        # token -> (epoch, topology_version, weight array, weight list):
        # the weight arrays current entries are validated against,
        # rebuilt vectorised once per epoch move per token.
        self._warrays: Dict[Hashable, Tuple[int, int, Any, list]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def invalidate(self) -> None:
        """Drop every entry."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()

    def prune(self, dead_nodes: Sequence[str] = ()) -> int:
        """Drop entries no lookup may serve again, by containment only.

        The orchestrator calls this after a node failure.  An entry whose
        source or destination set touches one of ``dead_nodes`` is
        dropped: an unreachable-source tree is valid under every array,
        yet must not serve a "node exists and is isolated" answer for a
        node that is *down*.  Entries from an older ``topology_version``
        are dropped too.  Nothing is revalidated here: every other entry
        is checked against the current weight array by the next lookup
        that reaches it.  Returns how many entries were dropped.
        """
        dead = frozenset(dead_nodes)
        version = self._network.topology_version
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.topology_version != version
            or not dead.isdisjoint(entry.endpoints)
        ]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    # -- validation --------------------------------------------------------

    def _weight_arrays(self, snapshot: Any, token: Hashable) -> Tuple[Any, list]:
        """The current ``(array, list)`` weight pair for a token, memoised.

        One vectorised rebuild per epoch move per token, shared by every
        lookup and revalidation in between.  The kernel's vectorised
        solve reads the array (and a tree it builds may keep it); the
        heap loop and the scalar edge-weight views read the list.
        """
        epoch = self._network.epoch
        version = self._network.topology_version
        cached = self._warrays.get(token)
        if cached is not None and cached[0] == epoch and cached[1] == version:
            return cached[2], cached[3]
        array = csr_kernel.weight_array(snapshot, token)
        wlist = array.tolist()
        self._warrays[token] = (epoch, version, array, wlist)
        return array, wlist

    def _validate(self, entry: _Entry, snapshot: Any) -> bool:
        """True when an entry still answers the current network state.

        Equal epoch is a free hit.  Otherwise the token's weight array is
        rebuilt (memoised) and compared: an element-equal array replays
        the identical array computation; for tree entries the
        :func:`~repro.network.csr.tree_unaffected` change-cut additionally
        keeps entries whose array delta provably cannot move the tree,
        counted in ``stats.repairs``.  A surviving entry adopts the new
        array and epoch.
        """
        if entry.topology_version != self._network.topology_version:
            return False
        epoch = self._network.epoch
        if entry.epoch == epoch:
            return True
        new_array, _wlist = self._weight_arrays(snapshot, entry.token)
        self.stats.revalidations += 1
        if not (entry.warray == new_array).all():
            if entry.exact or not csr_kernel.tree_unaffected(
                snapshot, entry.value, entry.warray, new_array
            ):
                return False
            self.stats.repairs += 1
        entry.warray = new_array
        entry.epoch = epoch
        return True

    def _hit(self, key: Hashable, entry: _Entry) -> Any:
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if entry.error is not None:
            # Clear the stored traceback before re-raising: each raise
            # appends a segment, and a shared instance raised on every
            # hit would grow its chain (and pin caller frames) without
            # bound.
            raise entry.error.with_traceback(None)
        return entry.value

    def _get(
        self,
        key: Hashable,
        snapshot: Any,
        array: Any,
        token: Hashable,
        *,
        endpoints: Tuple[str, ...],
        exact: bool,
        compute,
    ) -> Any:
        """Serve ``key`` from the cache, or run ``compute`` and store it.

        ``compute`` is a no-argument callable running the array kernel
        over the already-refreshed ``snapshot`` and ``array``'s list
        form; a raised :class:`NoPathError` is stored (as an exact
        entry) and re-raised.
        """
        entry = self._entries.get(key)
        if entry is not None:
            if self._validate(entry, snapshot):
                return self._hit(key, entry)
            del self._entries[key]
            self.stats.invalidations += 1
        self.stats.misses += 1
        stored = _Entry(
            value=None,
            error=None,
            warray=array,
            token=token,
            epoch=self._network.epoch,
            topology_version=self._network.topology_version,
            endpoints=endpoints,
            exact=exact,
        )
        try:
            stored.value = compute()
        except NoPathError as exc:
            stored.error = exc
            stored.exact = True
            self._store(key, stored)
            raise
        self._store(key, stored)
        return stored.value

    def _store(self, key: Hashable, entry: _Entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- cached queries ----------------------------------------------------

    def sssp(
        self,
        source: str,
        spec: Any,
        *,
        token: Optional[Hashable] = None,
        shareable: Optional[bool] = None,
    ) -> ShortestPathTree:
        """The full single-source tree from ``source`` under ``spec``.

        ``token``/``shareable`` let a caller issuing many lookups under
        one spec (e.g. :meth:`terminal_tree`) evaluate
        ``spec.cache_token()`` / ``spec.shareable()`` — each an
        all-links scan for auxiliary weights — once instead of per
        source.
        """
        if shareable is None:
            shareable = spec.shareable()
        if not shareable:
            # Nothing with this spec's token will ever be looked up
            # again (e.g. an owner-specific auxiliary weight for a task
            # that already holds capacity): skip storage and LRU traffic
            # entirely and just run the computation.
            self.stats.misses += 1
            return csr_kernel.sssp_csr(self._network, source, spec)
        if token is None:
            token = spec.cache_token()
        snapshot = csr_kernel.get_snapshot(self._network)
        array, wlist = self._weight_arrays(snapshot, token)
        return self._get(
            ("sssp", source, token),
            snapshot,
            array,
            token,
            endpoints=(source,),
            exact=False,
            compute=lambda: csr_kernel.sssp_tree(
                snapshot, source, wlist, array
            ),
        )

    def shortest_path(
        self, source: str, destination: str, spec: Any
    ) -> PathResult:
        """Bit-identical replacement for a point-to-point Dijkstra query."""
        self._network.node(destination)
        return self.sssp(source, spec).path_to(destination)

    def batched_sssp(
        self, sources: Sequence[str], spec: Any
    ) -> Dict[str, ShortestPathTree]:
        """One tree per distinct source, sharing a single spec evaluation.

        The multi-source entry point schedulers use to price a whole
        candidate set in one call: the spec's token/shareable scans, the
        snapshot refresh, and the weight-array build all happen once,
        and each source costs one (cached) array SSSP.  Returns
        ``{source: tree}`` in first-occurrence order.
        """
        shareable = spec.shareable()
        token = spec.cache_token() if shareable else None
        trees: Dict[str, ShortestPathTree] = {}
        with obs.span("csr.batch_sssp", sources=len(sources)):
            for source in sources:
                if source not in trees:
                    trees[source] = self.sssp(
                        source, spec, token=token, shareable=shareable
                    )
        obs.inc("csr.batch_sssp")
        return trees

    def k_shortest_paths(
        self, source: str, destination: str, k: int, spec: Any
    ) -> List[PathResult]:
        """Cached Yen's algorithm under ``spec``'s weight.

        The object control flow runs with array spur searches; entries
        are validated by exact weight-array equality (a ban-constrained
        search has no change-cut shortcut).
        """
        if not spec.shareable():
            self.stats.misses += 1
            return csr_kernel.k_shortest_paths_csr(
                self._network, source, destination, k, spec
            )
        token = spec.cache_token()
        snapshot = csr_kernel.get_snapshot(self._network)
        array, wlist = self._weight_arrays(snapshot, token)
        return self._get(
            ("ksp", source, destination, k, token),
            snapshot,
            array,
            token,
            endpoints=(source, destination),
            exact=True,
            compute=lambda: k_shortest_paths(
                source,
                destination,
                k,
                csr_kernel.array_edge_weight(snapshot, wlist),
                search=csr_kernel.array_search(snapshot, wlist),
            ),
        )

    def terminal_tree(
        self, root: str, terminals: Sequence[str], spec: Any
    ) -> TreeResult:
        """The flexible scheduler's tree via cached single-source passes.

        Builds the metric closure from one :meth:`sssp` per terminal
        (except the last — closure pairs are ordered) and finishes with
        the shared :func:`~repro.network.paths.tree_from_metric_closure`,
        so the result is byte-identical to
        :func:`~repro.network.csr.terminal_tree_csr` and to the oracle's
        object construction.
        """
        terminal_list = list(dict.fromkeys([root, *terminals]))
        for terminal in terminal_list:
            self._network.node(terminal)
        if len(terminal_list) == 1:
            return TreeResult(root=root, parent={}, weight=0.0)
        # One shareable/token evaluation for the whole tree: the network
        # is not mutated during this read-only construction, so the
        # answers cannot change between sources.
        if not spec.shareable():
            # Unshareable specs bypass storage anyway; the kernel's
            # uncached construction builds the weight array once for all
            # T-1 passes instead of once per source.  Miss accounting
            # counts one per source pass.
            self.stats.misses += len(terminal_list) - 1
            return csr_kernel.terminal_tree_csr(
                self._network, root, terminals, spec
            )
        token = spec.cache_token()
        closure: Dict[Tuple[str, str], PathResult] = {}
        for i, a in enumerate(terminal_list[:-1]):
            tree = self.sssp(a, spec, token=token, shareable=True)
            for b in terminal_list[i + 1 :]:
                closure[(a, b)] = tree.path_to(b)
        # The finisher only reads edge weights for its final sum; the
        # array view returns the same float64s as the scalar weight fn
        # without per-edge link scans.
        snapshot = csr_kernel.get_snapshot(self._network)
        _array, wlist = self._weight_arrays(snapshot, token)
        return tree_from_metric_closure(
            root,
            terminal_list,
            closure,
            csr_kernel.array_edge_weight(snapshot, wlist),
        )


# ---------------------------------------------------------------------------
# Per-network cache attachment
# ---------------------------------------------------------------------------

def get_cache(network: Network) -> PathCache:
    """The network's :class:`PathCache`, created on first use.

    One cache per :class:`Network` instance: scratch copies made with
    ``copy_topology`` start cold, and sweep workers each cache their own
    private network.
    """
    cache = network._path_cache
    if cache is None:
        cache = network._path_cache = PathCache(network)
    return cache


def peek_cache(network: Network) -> Optional[PathCache]:
    """The network's cache if one was ever attached, else ``None``."""
    return network._path_cache
