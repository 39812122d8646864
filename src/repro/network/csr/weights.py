"""Token-driven array weight builders.

The routing cache identifies weight semantics by ``cache_token()``; this
module lowers each recognised token to a vectorised per-edge weight
array over a :class:`~repro.network.csr.snapshot.CsrSnapshot`.  Every
arithmetic operation is applied in the same order, with the same
epsilons, as the scalar weight function it mirrors
(:func:`~repro.network.paths.latency_weight`,
:func:`~repro.network.paths.hop_weight`,
:meth:`~repro.network.auxiliary.AuxiliaryGraphBuilder.edge_weight`), so
``weight_array(snapshot, token)[edge_pos[(u, v)]]`` is bit-equal to the
scalar ``weight(u, v)`` — the property the byte-identity contract rests
on, and the one the hypothesis suite hammers.

Unrecognised tokens raise :class:`~repro.errors.TopologyError`: the
array kernel is the only routing path, so a weight spec it cannot lower
fails closed instead of being routed some other way.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from ...errors import TopologyError
from .snapshot import CsrSnapshot


def weight_array(snapshot: CsrSnapshot, token: Hashable):
    """The per-edge weight array for a recognised cache token.

    Returned arrays are guaranteed non-negative (``[0, +inf]``) — the
    array kernel's relaxation loop relies on that to skip the object
    kernel's per-edge isinf/negative checks.  The recognised builders
    cannot produce negatives (latencies and auxiliary coefficients are
    validated non-negative at construction), but if one ever did, the
    same "negative edge weight" :class:`~repro.errors.TopologyError` the
    object kernel raises is raised here, naming the first such edge.

    Raises:
        TopologyError: for a token no builder recognises, or a lowered
            array holding a negative weight.
    """
    kind = token[0] if isinstance(token, tuple) and token else None
    if kind == "latency" and len(token) == 1:
        weights = _latency_array(snapshot)
    elif kind == "hop" and len(token) == 1:
        weights = _hop_array(snapshot)
    elif kind == "aux" and len(token) == 7:
        weights = _aux_array(snapshot, token)
    else:
        raise TopologyError(
            f"weight token {token!r} cannot be lowered to a CSR weight array"
        )
    negative = weights < 0.0
    if negative.any():
        pos = int(negative.argmax())
        src = snapshot.names[snapshot.heads[pos]]
        dst = snapshot.names[snapshot.indices[pos]]
        raise TopologyError(
            f"negative edge weight {float(weights[pos])} on {src}->{dst}"
        )
    return weights


def _latency_array(snapshot: CsrSnapshot):
    weights = snapshot.latency.copy()
    weights[snapshot.failed] = math.inf
    return weights


def _hop_array(snapshot: CsrSnapshot):
    weights = np.ones(snapshot.m, dtype=np.float64)
    weights[snapshot.failed] = math.inf
    return weights


def _aux_array(snapshot: CsrSnapshot, token: tuple):
    """Vectorised AuxiliaryGraphBuilder.edge_weight.

    Term-by-term mirror of the scalar formula; elementwise IEEE ops in
    the same order produce bit-equal float64 results.
    """
    _kind, demand, owner, alpha, beta, gamma, discount = token
    capacity = snapshot.capacity
    used = snapshot.used

    already = np.zeros(snapshot.m, dtype=bool)
    if owner is not None:
        # The owner holds capacity somewhere: mark the edges where its
        # held rate covers the demand (the scalar `already` predicate).
        # Only links in the network's reservation registry can hold
        # anything, so the scan skips the (vast) unreserved majority.
        positions_of = snapshot._positions
        for link in snapshot.network._reserved_links:
            if not link.holds(owner):
                continue
            for pos, src, dst in positions_of.get(link, ()):
                if link.owner_gbps(src, dst, owner) >= demand - 1e-9:
                    already[pos] = True

    bandwidth_cost = demand / capacity
    if owner is not None:
        bandwidth_cost = np.where(
            already, bandwidth_cost * discount, bandwidth_cost
        )

    utilisation = used / capacity
    with np.errstate(divide="ignore", invalid="ignore"):
        congestion = utilisation / (1.0 - utilisation)
    congestion = np.where(utilisation < 1.0, congestion, 1e9)

    weights = alpha * bandwidth_cost + beta * snapshot.latency + gamma * congestion

    # Admission: infeasible edges (not already held, residual short of
    # the demand) and failed edges weigh inf, exactly as the scalar
    # early returns do.
    infeasible = ~already & ((capacity - used) + 1e-9 < demand)
    weights[snapshot.failed | infeasible] = math.inf
    return weights
