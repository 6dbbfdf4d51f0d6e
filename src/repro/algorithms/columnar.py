"""Array-program ports of the hottest catalog algorithms.

These are the columnar (:class:`repro.engine.columnar.ArrayContext`)
forms of fan-out broadcasting, :func:`repro.clique.routing.route` (all
three schemes), cube-partitioned matrix multiplication and PSRS sorting.
Each port mirrors its generator twin *round for round and bit for bit*:
the same chunking (MSB-first at the per-link budget ``B``), the same
header exchanges, the same privileged bulk-channel usage — so
``repro.engine.diff`` can differentially gate the columnar engine
against the reference engine on identical round counts, outputs and bit
totals.

The collectives come in two accumulator flavours chosen by payload
width: payloads of at most 64 bits stay in ``(n, n)`` ``uint64``
matrices updated by whole-column shifts (the vectorised fast path),
wider payloads accumulate per-pair Python big ints (chunks themselves
always fit ``uint64`` because they are at most ``B`` bits — the ports
require ``B <= 64``).  Entry packing reuses the bulk bit-codec kernels
(:func:`repro.clique.bits.encode_uint_array` and friends) exactly like
the generator forms, so the wire bits are identical by construction.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Generator

import numpy as np

from ..clique.bits import BitReader, BitString, BitWriter, uint_width
from ..clique.errors import CliqueError, ProtocolViolation
from ..clique.primitives import chunks_needed
from ..clique.routing import (
    _LEN_WIDTH,
    _STATUS_PERIOD,
    ROUTE_SCHEMES,
    _relay_of,
    _relay_position,
    relay_min_bandwidth,
)
from ..engine.columnar import array_program
from .matmul import Semiring

__all__ = [
    "array_all_broadcast",
    "array_all_gather_uint",
    "array_agree_uint_max",
    "array_route",
    "fanout_array",
    "fanout_generator",
    "fanout_work_array",
    "fanout_work_generator",
    "routing_array",
    "routing_generator",
    "matmul_array",
    "sorting_array",
]

_I64 = np.int64
_U64 = np.uint64


def _require_narrow_links(ctx) -> None:
    if ctx.bandwidth > 64:
        raise CliqueError(
            f"columnar ports carry one chunk per uint64 lane and need a "
            f"per-link budget of at most 64 bits, got B={ctx.bandwidth}; "
            f"run this configuration on another engine"
        )


def _chunk_layout(k: int, b: int) -> list[int]:
    """Chunk widths of a ``k``-bit payload split at ``b`` (MSB first)."""
    if k <= 0:
        return []
    full, tail = divmod(k, b)
    return [b] * full + ([tail] if tail else [])


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


def array_all_broadcast(
    ctx, values, k: int
) -> Generator[None, None, list[list[int]]]:
    """Columnar :func:`repro.clique.primitives.all_broadcast`.

    Every node broadcasts a ``k``-bit payload (``values[v]`` for node
    ``v``); returns ``result[dst][src]`` with every reassembled payload
    (own payload included), raising :class:`ProtocolViolation` exactly
    like the generator form when a payload does not reassemble to ``k``
    bits.  Takes ``ceil(k / B)`` rounds.
    """
    _require_narrow_links(ctx)
    n, b = ctx.n, ctx.bandwidth
    vals = [int(v) for v in values]
    if k == 0:
        return [[0] * n for _ in range(n)]
    widths = _chunk_layout(k, b)
    small = k <= 64
    if small:
        acc = np.zeros((n, n), dtype=_U64)
    else:
        acc_py = [[0] * n for _ in range(n)]
    got = np.zeros((n, n), dtype=_I64)
    sent = 0
    for w in widths:
        shift = k - sent - w
        mask = (1 << w) - 1
        chunk = [(v >> shift) & mask for v in vals]
        sent += w
        ctx.broadcast(np.asarray(chunk, dtype=_U64), w)
        yield
        bs, bv, _bw = ctx.inbox_broadcast
        if bs.size:
            # Fast path: the emission columns are the delivery, and the
            # whole-column update covers the local own-payload append
            # (diagonal) with the identical value.
            if small:
                acc[:, bs] = (acc[:, bs] << _U64(w)) | bv
            else:
                bsl, bvl = bs.tolist(), bv.tolist()
                for dst in range(n):
                    row = acc_py[dst]
                    for j, s in enumerate(bsl):
                        row[s] = (row[s] << w) | bvl[j]
            got[:, bs] += w
        else:
            # Explicit path: broadcasts arrive expanded per recipient;
            # the own chunk never transits and is appended locally.
            src, dst, val, wid = ctx.inbox_messages
            if src.size:
                if small:
                    acc[dst, src] = (
                        acc[dst, src] << wid.astype(_U64)
                    ) | val
                else:
                    for i in range(src.size):
                        d, s = int(dst[i]), int(src[i])
                        acc_py[d][s] = (acc_py[d][s] << int(wid[i])) | int(
                            val[i]
                        )
                np.add.at(got, (dst, src), wid)
            diag = np.arange(n)
            if small:
                acc[diag, diag] = (acc[diag, diag] << _U64(w)) | np.asarray(
                    chunk, dtype=_U64
                )
            else:
                for v in range(n):
                    acc_py[v][v] = (acc_py[v][v] << w) | chunk[v]
            got[diag, diag] += w
    bad = got != k
    if bad.any():
        dst, src = np.argwhere(bad)[0]
        raise ProtocolViolation(
            f"all_broadcast: node {int(dst)} reassembled {int(got[dst, src])} "
            f"bits from node {int(src)}, expected {k}"
        )
    if small:
        return [[int(x) for x in row] for row in acc]
    return acc_py


def array_all_gather_uint(
    ctx, values, width: int
) -> Generator[None, None, list[list[int]]]:
    """Columnar ``all_gather_uint``: ``result[dst][src]`` uint values."""
    return (yield from array_all_broadcast(ctx, values, width))


def array_agree_uint_max(
    ctx, values, width: int
) -> Generator[None, None, list[int]]:
    """Columnar ``agree_uint_max``: each node's view of the maximum."""
    rows = yield from array_all_gather_uint(ctx, values, width)
    return [max(row) for row in rows]


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
#
# Flows are ``flows[src][dst] = (value, nbits)`` with arbitrary-precision
# values; the result is ``result[dst][src] = (value, nbits)``.


def array_route(
    ctx, flows: dict[int, dict[int, tuple[int, int]]], scheme: str = "lenzen"
) -> Generator[None, None, list[dict[int, tuple[int, int]]]]:
    """Columnar :func:`repro.clique.routing.route` — all three schemes.

    Mirrors the generator collective exactly: a sparse 32-bit length
    exchange on flow links, the per-node payload-load counters, then the
    scheme phase (``direct`` chunking, the ``lenzen`` cost-model bulk
    channel, or the executable ``relay`` store-and-forward protocol).
    """
    if scheme not in ROUTE_SCHEMES:
        raise ProtocolViolation(f"unknown routing scheme {scheme!r}")
    _require_narrow_links(ctx)
    n, b = ctx.n, ctx.bandwidth
    live: dict[int, dict[int, tuple[int, int]]] = {}
    self_flows: dict[int, tuple[int, int]] = {}
    for src in range(n):
        mine = {}
        for d, (value, nbits) in flows.get(src, {}).items():
            if nbits <= 0:
                continue
            if d == src:
                self_flows[src] = (value, nbits)
                continue
            if not 0 <= d < n:
                raise ProtocolViolation(f"flow destination {d} out of range")
            mine[d] = (value, nbits)
        live[src] = mine

    result: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    if n == 1:
        if 0 in self_flows:
            result[0][0] = self_flows[0]
        return result

    # ---- Phase 1: sparse length exchange (headers only on flow links).
    pairs = [(s, d) for s in range(n) for d in live[s]]
    hdr_src = np.asarray([p[0] for p in pairs], dtype=_I64)
    hdr_dst = np.asarray([p[1] for p in pairs], dtype=_I64)
    hdr_len = np.asarray(
        [live[s][d][1] for s, d in pairs], dtype=_U64
    )
    acc_len = np.zeros((n, n), dtype=_U64)
    got_len = np.zeros((n, n), dtype=_I64)
    sent_bits = 0
    for w in _chunk_layout(_LEN_WIDTH, b):
        shift = _LEN_WIDTH - sent_bits - w
        sent_bits += w
        if hdr_src.size:
            chunk = (hdr_len >> _U64(shift)) & _U64((1 << w) - 1)
            ctx.send(hdr_src, hdr_dst, chunk, w)
        yield
        src, dst, val, wid = ctx.inbox_messages
        if src.size:
            acc_len[dst, src] = (acc_len[dst, src] << wid.astype(_U64)) | val
            np.add.at(got_len, (dst, src), wid)
    in_lengths: list[dict[int, int]] = [
        {
            int(s): int(acc_len[dst, s])
            for s in np.nonzero(got_len[dst])[0]
        }
        for dst in range(n)
    ]

    out_col = np.asarray(
        [sum(nb for _v, nb in live[s].values()) for s in range(n)], dtype=_I64
    )
    in_col = np.asarray(
        [sum(in_lengths[dst].values()) for dst in range(n)], dtype=_I64
    )
    ctx.count("route_payload_out_bits", out_col)
    ctx.count("route_payload_in_bits", in_col)

    if scheme == "direct":
        yield from _array_route_direct(ctx, live, in_lengths, result)
    elif scheme == "lenzen":
        yield from _array_route_lenzen(ctx, live, in_lengths, result)
    else:
        yield from _array_route_relay(ctx, live, in_lengths, result)

    for src, payload in self_flows.items():
        result[src][src] = payload
    return result


def _array_route_direct(
    ctx, live, in_lengths, result
) -> Generator[None, None, None]:
    n, b = ctx.n, ctx.bandwidth
    my_rounds = [
        max(
            (
                chunks_needed(length, b)
                for length in (
                    list(in_lengths[v].values())
                    + [nb for _val, nb in live[v].values()]
                )
            ),
            default=0,
        )
        for v in range(n)
    ]
    totals = yield from array_agree_uint_max(ctx, my_rounds, _LEN_WIDTH)
    total_rounds = totals[0]

    chunked: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in range(n):
        for d, (value, nbits) in live[s].items():
            chunked[(s, d)] = [
                (c.value, len(c)) for c in BitString(value, nbits).split(b)
            ]
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for r in range(total_rounds):
        esrc, edst, evals, ewids = [], [], [], []
        for (s, d), chunks in chunked.items():
            if r < len(chunks):
                value, w = chunks[r]
                esrc.append(s)
                edst.append(d)
                evals.append(value)
                ewids.append(w)
        if esrc:
            ctx.send(
                np.asarray(esrc, dtype=_I64),
                np.asarray(edst, dtype=_I64),
                np.asarray(evals, dtype=_U64),
                np.asarray(ewids, dtype=_I64),
            )
        yield
        src, dst, val, wid = ctx.inbox_messages
        for i in range(src.size):
            key = (int(dst[i]), int(src[i]))
            value, bits = acc.get(key, (0, 0))
            acc[key] = (
                (value << int(wid[i])) | int(val[i]),
                bits + int(wid[i]),
            )
    for dst in range(n):
        for s, expected in in_lengths[dst].items():
            if expected <= 0:
                continue
            value, bits = acc.get((dst, s), (0, 0))
            if bits < expected:
                raise ProtocolViolation(
                    f"route: node {dst} received {bits} of "
                    f"{expected} bits from node {s}"
                )
            result[dst][s] = (value >> (bits - expected), expected)


def _array_route_lenzen(
    ctx, live, in_lengths, result
) -> Generator[None, None, None]:
    n, b = ctx.n, ctx.bandwidth
    loads = [
        max(
            sum(nb for _val, nb in live[v].values()),
            sum(in_lengths[v].values()),
        )
        for v in range(n)
    ]
    max_loads = yield from array_agree_uint_max(ctx, loads, _LEN_WIDTH)
    charged = max(0, math.ceil(max_loads[0] / (b * (n - 1))))
    if charged == 0:
        return
    for s in range(n):
        for d, (value, nbits) in live[s].items():
            ctx.bulk_send(s, d, value, nbits)
    yield
    received: dict[tuple[int, int], tuple[int, int]] = {}
    for src, dst, value, width in ctx.inbox_bulk:
        received[(dst, src)] = (value, width)
    for _ in range(charged - 1):
        yield
    for dst in range(n):
        for s, expected in in_lengths[dst].items():
            got = received.get((dst, s), (0, 0))[1]
            if expected > 0 and got != expected:
                raise ProtocolViolation(
                    f"route(lenzen): node {dst} expected {expected} bits "
                    f"from {s}, got {got}"
                )
    for (dst, s), (value, nbits) in received.items():
        if nbits > 0:
            result[dst][s] = (value, nbits)


def _array_route_relay(
    ctx, live, in_lengths, result
) -> Generator[None, None, None]:
    n, b = ctx.n, ctx.bandwidth
    if n == 2:
        yield from _array_route_direct(ctx, live, in_lengths, result)
        return
    node_w = uint_width(max(1, n - 1))
    payload_w = b - 1 - node_w
    if payload_w < 1:
        raise ProtocolViolation(
            f"relay routing needs bandwidth >= {relay_min_bandwidth(n)} bits "
            f"(got {b}); run with bandwidth_multiplier >= 2"
        )
    msg_w = 1 + node_w + payload_w
    peer_mask = (1 << node_w) - 1
    chunk_mask = (1 << payload_w) - 1

    spread = [
        {w: deque() for w in range(n) if w != me} for me in range(n)
    ]
    forward = [
        {d: deque() for d in range(n) if d != me} for me in range(n)
    ]
    expect = [
        {s: math.ceil(length / payload_w) for s, length in in_lengths[me].items()}
        for me in range(n)
    ]
    store = [
        {s: {} for s, c in expect[me].items() if c > 0} for me in range(n)
    ]
    seen = [dict() for _ in range(n)]
    remaining = [sum(expect[me].values()) for me in range(n)]

    for me in range(n):
        for d, (value, nbits) in live[me].items():
            chunks = [
                (c.value, len(c)) for c in BitString(value, nbits).split(payload_w)
            ]
            if chunks and chunks[-1][1] < payload_w:  # pad the tail chunk
                tv, tw = chunks[-1]
                chunks[-1] = (tv << (payload_w - tw), payload_w)
            for i, (cv, _cw) in enumerate(chunks):
                spread[me][_relay_of(me, d, i, n)].append((d, cv))

    def satisfied(me: int) -> bool:
        return (
            remaining[me] == 0
            and all(not q for q in spread[me].values())
            and all(not q for q in forward[me].values())
        )

    def accept(me: int, src: int, relay: int, chunk_val: int) -> None:
        if src not in store[me]:
            raise ProtocolViolation(
                f"route(relay): node {me} got unexpected chunk from {src}"
            )
        k = seen[me].get((src, relay), 0)
        seen[me][(src, relay)] = k + 1
        index = _relay_position(src, me, relay, n) + k * (n - 1)
        if index >= expect[me][src]:
            raise ProtocolViolation(
                f"route(relay): node {me} got chunk index {index} beyond "
                f"expected {expect[me][src]} from {src}"
            )
        if index in store[me][src]:
            raise ProtocolViolation(
                f"route(relay): node {me} got duplicate chunk {index} "
                f"from {src}"
            )
        store[me][src][index] = chunk_val
        remaining[me] -= 1

    data_round = 0
    while True:
        if data_round % (_STATUS_PERIOD + 1) == _STATUS_PERIOD:
            sat = [1 if satisfied(me) else 0 for me in range(n)]
            ctx.broadcast(np.asarray(sat, dtype=_U64), 1)
            yield
            data_round += 1
            ok = np.ones(n, dtype=bool)
            bs, bv, _bw = ctx.inbox_broadcast
            if bs.size:
                zeros = bs[bv == 0]
                if zeros.size == 1:
                    ok[:] = False
                    ok[int(zeros[0])] = True
                elif zeros.size > 1:
                    ok[:] = False
            src, dst, val, _wid = ctx.inbox_messages
            if src.size:
                np.logical_and.at(ok, dst, val == 1)
            done = [bool(sat[me]) and bool(ok[me]) for me in range(n)]
            if all(done):
                break
            if any(done):
                raise ProtocolViolation(
                    "route(relay): nodes disagree on completion (lossy "
                    "delivery is not survivable by the raw relay protocol)"
                )
            continue

        esrc, edst, evals = [], [], []
        for me in range(n):
            for peer in range(n):
                if peer == me:
                    continue
                if forward[me][peer]:
                    src0, cv = forward[me][peer].popleft()
                    raw = (((1 << node_w) | src0) << payload_w) | cv
                elif spread[me][peer]:
                    dstf, cv = spread[me][peer].popleft()
                    raw = (dstf << payload_w) | cv
                else:
                    continue
                esrc.append(me)
                edst.append(peer)
                evals.append(raw)
        if esrc:
            ctx.send(
                np.asarray(esrc, dtype=_I64),
                np.asarray(edst, dtype=_I64),
                np.asarray(evals, dtype=_U64),
                msg_w,
            )
        yield
        data_round += 1
        src, dst, val, _wid = ctx.inbox_messages
        for i in range(src.size):
            me, sender, raw = int(dst[i]), int(src[i]), int(val[i])
            tag = raw >> (msg_w - 1)
            peer_id = (raw >> payload_w) & peer_mask
            chunk_val = raw & chunk_mask
            if tag == 0:
                if peer_id == me:
                    accept(me, sender, me, chunk_val)
                else:
                    forward[me][peer_id].append((sender, chunk_val))
            else:
                accept(me, peer_id, sender, chunk_val)

    for me in range(n):
        for s, chunks in store[me].items():
            m = expect[me][s]
            for i in range(m):
                if i not in chunks:
                    raise ProtocolViolation(
                        f"route(relay): node {me} missing chunk {i} of flow "
                        f"from {s}"
                    )
            merged = 0
            for i in range(m):
                merged = (merged << payload_w) | chunks[i]
            length = in_lengths[me][s]
            result[me][s] = (merged >> (m * payload_w - length), length)


# ---------------------------------------------------------------------------
# Catalog ports
# ---------------------------------------------------------------------------


_FANOUT_MUL = 1103515245
_FANOUT_INC = 12345


def _fanout_width(bandwidth: int) -> int:
    return min(bandwidth, 48)


def fanout_generator(node) -> Generator[None, None, tuple[int, int]]:
    """Generator form of the fan-out stress program.

    ``node.aux`` rounds of all-to-all broadcasts of an evolving value;
    returns ``(messages received, xor fold of received values)`` — an
    output that is sensitive to every individual delivery, which makes
    the fault-plan parity diff an output-level check.
    """
    rounds = int(node.aux)
    w = _fanout_width(node.bandwidth)
    mask = (1 << w) - 1
    x = int(node.input) & mask
    count = 0
    fold = 0
    for r in range(rounds):
        node.send_to_all(BitString(x, w))
        yield
        for _src, msg in node.inbox.items():
            count += 1
            fold ^= msg.value
        x = (x * _FANOUT_MUL + _FANOUT_INC + r) & mask
    return (count, fold)


@array_program(shardable=True)
def fanout_array(ctx) -> Generator[None, None, dict[int, tuple[int, int]]]:
    """Columnar twin of :func:`fanout_generator` — fully vectorised.

    Shardable: the evolving per-node value is kept and broadcast for the
    owned senders only (identical columns to the classic full-range
    emission when the owned range is the whole clique), the inbox is
    consumed by whole-column/scatter updates — valid on owned rows
    whatever slice arrives — and only owned outputs are returned, so
    the per-node Python loops, which shard threads run one at a time
    under the GIL, are not repeated by every shard.
    """
    n = ctx.n
    lo, hi = ctx.lo, ctx.hi
    rounds = int(ctx.auxes[0])
    w = _fanout_width(ctx.bandwidth)
    mask = _U64((1 << w) - 1)
    x = np.asarray([int(v) for v in ctx.inputs[lo:hi]], dtype=_U64) & mask
    count = np.zeros(n, dtype=_I64)
    fold = np.zeros(n, dtype=_U64)
    for r in range(rounds):
        ctx.broadcast(x, w, senders=ctx.ids[lo:hi])
        yield
        bs, bv, _bw = ctx.inbox_broadcast
        if bs.size:
            total = np.bitwise_xor.reduce(bv)
            fold ^= total
            fold[bs] ^= bv
            count += bs.size
            count[bs] -= 1
        src, dst, val, _wid = ctx.inbox_messages
        if src.size:
            np.add.at(count, dst, 1)
            np.bitwise_xor.at(fold, dst, val)
        x = (x * _U64(_FANOUT_MUL) + _U64(_FANOUT_INC + r)) & mask
    return {v: (int(count[v]), int(fold[v])) for v in range(lo, hi)}


# -- fanout_work: the compute-heavy shard-parallel stress program -----------
#
# ``fanout`` is communication-bound: O(n) vector work per round, nothing
# for extra cores to chew on.  ``fanout_work`` adds a per-node hidden
# state of ``state`` uint64 lanes put through ``passes`` xorshift-
# multiply mixing passes per round — O(n * state * passes) elementwise
# work that shard-parallel execution genuinely splits — and exchanges
# digests over a k-regular ring (unicast only, so the fast and explicit
# delivery paths agree message for message).  Both twins run their lane
# arithmetic through the same numpy uint64 helpers, so the wrapping
# semantics are identical by construction.

_WORK_SEED_A = 0x9E3779B97F4A7C15
_WORK_SEED_B = 0xBF58476D1CE4E5B9
_WORK_MUL = 0x2545F4914F6CDD1D
_WORK_RC_A = 0x9E3779B1
_WORK_RC_B = 0x85EBCA77
_M64 = (1 << 64) - 1


def _work_degree(n: int) -> int:
    return min(8, n - 1)


def _work_state(values, m: int) -> np.ndarray:
    """``(len(values), m)`` uint64 lane matrix seeded from the inputs."""
    vals = np.asarray([int(v) & _M64 for v in values], dtype=_U64)
    lanes = np.arange(m, dtype=_U64)
    return (
        vals[:, None] * _U64(_WORK_SEED_A)
        + lanes[None, :] * _U64(_WORK_SEED_B)
        + _U64(1)
    )


def _work_mix(state: np.ndarray, r: int, passes: int) -> np.ndarray:
    """``passes`` in-place xorshift-multiply rounds over the lane axis."""
    for p in range(passes):
        state ^= state << _U64(13)
        state ^= state >> _U64(7)
        state ^= state << _U64(17)
        state *= _U64(_WORK_MUL)
        state += _U64(((r + 1) * _WORK_RC_A + p * _WORK_RC_B) & _M64)
    return state


def _work_digest(state: np.ndarray, mask) -> np.ndarray:
    """Per-node ``w``-bit digest: lane xor-fold, avalanched, masked."""
    d = np.bitwise_xor.reduce(state, axis=-1)
    d ^= d >> _U64(29)
    return d & mask


def _work_params(aux) -> tuple[int, int, int]:
    aux = dict(aux)
    return (
        int(aux.get("rounds", 3)),
        int(aux.get("state", 16)),
        int(aux.get("passes", 2)),
    )


def fanout_work_generator(node) -> Generator[None, None, tuple[int, int]]:
    """Generator form of the compute-heavy fan-out stress program.

    Each round: mix the hidden lane state, unicast the digest to the
    ``min(8, n-1)`` next ring neighbours, then fold the received
    digests back into lane 0.  Returns ``(messages received, xor fold
    of received values ^ final digest)`` — sensitive to every delivery
    *and* every mixing pass.
    """
    n = node.n
    rounds, m, passes = _work_params(node.aux)
    w = _fanout_width(node.bandwidth)
    mask = _U64((1 << w) - 1)
    k = _work_degree(n)
    state = _work_state([node.input], m)[0]
    count = 0
    fold = 0
    for r in range(rounds):
        _work_mix(state, r, passes)
        digest = int(_work_digest(state, mask))
        for off in range(1, k + 1):
            node.send((node.id + off) % n, BitString(digest, w))
        yield
        rf = 0
        for _src, msg in node.inbox.items():
            count += 1
            fold ^= msg.value
            rf ^= msg.value
        state[0] ^= _U64(rf)
    _work_mix(state, rounds, passes)
    final = int(_work_digest(state, mask))
    return (count, fold ^ final)


@array_program(shardable=True)
def fanout_work_array(ctx) -> Generator[None, None, list[tuple[int, int]]]:
    """Columnar twin of :func:`fanout_work_generator`.

    Shardable: the lane state is held as an ``(owned, m)`` matrix —
    the part shard-parallel execution actually splits — digests go out
    src-major for the owned senders only, and the received digests are
    folded back with scatter reductions over owned destinations.
    """
    n = ctx.n
    lo, hi = ctx.lo, ctx.hi
    rounds, m, passes = _work_params(ctx.auxes[0])
    w = _fanout_width(ctx.bandwidth)
    mask = _U64((1 << w) - 1)
    k = _work_degree(n)
    state = _work_state(ctx.inputs[lo:hi], m)
    count = np.zeros(n, dtype=_I64)
    fold = np.zeros(n, dtype=_U64)
    offs = np.arange(1, k + 1, dtype=_I64)
    src_col = np.repeat(ctx.ids[lo:hi], k)
    dst_col = (src_col + np.tile(offs, hi - lo)) % n
    for r in range(rounds):
        _work_mix(state, r, passes)
        digest = _work_digest(state, mask)
        if k:
            ctx.send(src_col, dst_col, np.repeat(digest, k), w)
        yield
        src, dst, val, _wid = ctx.inbox_messages
        rf = np.zeros(n, dtype=_U64)
        if src.size:
            np.add.at(count, dst, 1)
            np.bitwise_xor.at(fold, dst, val)
            np.bitwise_xor.at(rf, dst, val)
        state[:, 0] ^= rf[lo:hi]
    _work_mix(state, rounds, passes)
    final = _work_digest(state, mask)
    return {
        v: (int(count[v]), int(fold[v]) ^ int(final[v - lo]))
        for v in range(lo, hi)
    }


def _flow_length(src: int, dst: int) -> int:
    return 24 + 8 * ((src + 2 * dst) % 5)


def _flow_value(src: int, dst: int, length: int) -> int:
    """Deterministic pseudo-random payload bits for the routing catalog."""
    x = ((src * 0x9E3779B1) ^ (dst * 0x85EBCA77) ^ 0x27220A95) & 0xFFFFFFFF
    out = 0
    for _ in range(math.ceil(length / 32)):
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        out = (out << 32) | x
    return out >> (32 * math.ceil(length / 32) - length)


def _routing_dsts(src: int, n: int) -> list[int]:
    return sorted({(src + 1) % n, (src + 5) % n})


def routing_generator(node) -> Generator[None, None, tuple]:
    """Generator form of the routing catalog entry (relay by default)."""
    n = node.n
    scheme = str(node.aux or "relay")
    from ..clique.routing import route

    flows = {
        d: BitString(_flow_value(node.id, d, _flow_length(node.id, d)),
                     _flow_length(node.id, d))
        for d in _routing_dsts(node.id, n)
    }
    received = yield from route(node, flows, scheme=scheme)
    return tuple(sorted((s, len(p), p.value) for s, p in received.items()))


def routing_array(ctx) -> Generator[None, None, list[tuple]]:
    """Columnar twin of :func:`routing_generator`."""
    n = ctx.n
    scheme = str(ctx.auxes[0] or "relay")
    flows = {
        src: {
            d: (
                _flow_value(src, d, _flow_length(src, d)),
                _flow_length(src, d),
            )
            for d in _routing_dsts(src, n)
        }
        for src in range(n)
    }
    received = yield from array_route(ctx, flows, scheme=scheme)
    return [
        tuple(sorted((s, nb, v) for s, (v, nb) in received[dst].items()))
        for dst in range(n)
    ]


def matmul_array(ctx) -> Generator[None, None, list[np.ndarray]]:
    """Columnar cube-partitioned matrix multiplication.

    Mirrors :func:`repro.algorithms.matmul.distributed_matmul` with the
    RING semiring: node ``v``'s input is ``(A[v], B[v])`` and its output
    ``C[v]``.  ``ctx.auxes[v]`` carries ``{"max_entry", "scheme"}``.
    """
    from .common import group_partition, int_ceil_root
    from .matmul import RING

    n = ctx.n
    aux = dict(ctx.auxes[0])
    semiring: Semiring = RING
    max_entry = int(aux["max_entry"])
    scheme = str(aux.get("scheme", "lenzen"))
    g = int_ceil_root(n, 3)
    blocks = group_partition(n, g)
    in_w = semiring.in_width(n, max_entry)
    acc_w = semiring.acc_width(n, max_entry)

    def block_of(i: int) -> int:
        size = math.ceil(n / g)
        return min(i // size, g - 1)

    def triple_of(t: int) -> tuple[int, int, int]:
        return (t // (g * g), (t // g) % g, t % g)

    # ---- Phase 1: distribute input blocks to the cube nodes.
    flows: dict[int, dict[int, tuple[int, int]]] = {}
    for me in range(n):
        a_row = np.asarray(ctx.inputs[me][0], dtype=np.int64)
        b_row = np.asarray(ctx.inputs[me][1], dtype=np.int64)
        my_block = block_of(me)
        mine: dict[int, tuple[int, int]] = {}
        for t in range(g**3):
            a, bb, c = triple_of(t)
            w = BitWriter()
            if a == my_block:
                w.write_bits(semiring.encode_entries(a_row[blocks[bb]], in_w))
            if bb == my_block:
                w.write_bits(semiring.encode_entries(b_row[blocks[c]], in_w))
            payload = w.finish()
            if len(payload) > 0:
                mine[t] = (payload.value, len(payload))
        flows[me] = mine
    received = yield from array_route(ctx, flows, scheme=scheme)

    # ---- Phase 2: local block multiply at cube nodes.
    partials: dict[int, np.ndarray] = {}
    for me in range(n):
        if me >= g**3:
            continue
        a, bb, c = triple_of(me)
        Ba, Bb, Bc = blocks[a], blocks[bb], blocks[c]
        a_block = np.full(
            (len(Ba), len(Bb)), semiring.identity, dtype=np.int64
        )
        b_block = np.full(
            (len(Bb), len(Bc)), semiring.identity, dtype=np.int64
        )
        for src, (value, nbits) in received[me].items():
            r = BitReader(BitString(value, nbits))
            src_block = block_of(src)
            if src_block == a:
                chunk = r.read_bits(len(Bb) * in_w)
                a_block[Ba.index(src)] = semiring.decode_entries(
                    chunk, len(Bb), in_w
                )
            if src_block == bb:
                chunk = r.read_bits(len(Bc) * in_w)
                b_block[Bb.index(src)] = semiring.decode_entries(
                    chunk, len(Bc), in_w
                )
        partials[me] = semiring.local_matmul(a_block, b_block)

    # ---- Phase 3: aggregate partial rows at the row owners.
    flows3: dict[int, dict[int, tuple[int, int]]] = {}
    for me, partial in partials.items():
        a, bb, c = triple_of(me)
        mine = {}
        for idx, i in enumerate(blocks[a]):
            payload = semiring.encode_entries(partial[idx], acc_w)
            mine[i] = (payload.value, len(payload))
        flows3[me] = mine
    received3 = yield from array_route(ctx, flows3, scheme=scheme)

    out: list[np.ndarray] = []
    for me in range(n):
        c_row = np.full(n, semiring.identity, dtype=np.int64)
        for t, (value, nbits) in received3[me].items():
            a, bb, c = triple_of(t)
            Bc = blocks[c]
            vals = semiring.decode_entries(
                BitString(value, nbits), len(Bc), acc_w
            )
            c_row[Bc] = semiring.combine(c_row[Bc], vals)
        out.append(c_row)
    return out


def sorting_array(ctx) -> Generator[None, None, list[list[int]]]:
    """Columnar PSRS sorting (twin of ``distributed_sort``).

    Node ``v``'s input is its key list; ``ctx.auxes[v]`` carries
    ``{"key_width", "scheme"}``.
    """
    from ..clique.bits import encode_uint_array

    n = ctx.n
    aux = dict(ctx.auxes[0])
    key_width = int(aux["key_width"])
    scheme = str(aux.get("scheme", "lenzen"))
    locals_: list[list[int]] = []
    for me in range(n):
        keys = [int(k) for k in ctx.inputs[me]]
        for k in keys:
            if k < 0 or k.bit_length() > key_width:
                raise ProtocolViolation(
                    f"key {k} does not fit in {key_width} bits"
                )
        locals_.append(sorted(keys))
    if n == 1:
        return [locals_[0]]

    # Step 2: publish n evenly spaced samples per node.
    pad = (1 << key_width) - 1
    payloads = []
    for local in locals_:
        if local:
            step = max(1, len(local) // n)
            samples = [local[min(i * step, len(local) - 1)] for i in range(n)]
        else:
            samples = [pad] * n
        payloads.append(encode_uint_array(samples, key_width).value)
    sample_rows = yield from array_all_broadcast(
        ctx, payloads, n * key_width
    )

    def unpack_samples(value: int) -> list[int]:
        mask = (1 << key_width) - 1
        return [
            (value >> ((n - 1 - i) * key_width)) & mask for i in range(n)
        ]

    def pack_keys(keys: list[int]) -> tuple[int, int]:
        w = BitWriter()
        w.write_uint(len(keys), 32)
        if keys:
            w.write_uints(keys, key_width)
        bits = w.finish()
        return (bits.value, len(bits))

    def unpack_keys(value: int, nbits: int) -> list[int]:
        r = BitReader(BitString(value, nbits))
        count = r.read_uint(32)
        return r.read_uints(count, key_width)

    # Step 3: route keys to their splitter bucket.
    flows: dict[int, dict[int, tuple[int, int]]] = {}
    for me in range(n):
        all_samples = sorted(
            s for row in sample_rows[me] for s in unpack_samples(row)
        )
        splitters = [all_samples[(j + 1) * n - 1] for j in range(n - 1)]
        buckets: dict[int, list[int]] = {j: [] for j in range(n)}
        for k in locals_[me]:
            buckets[bisect.bisect_left(splitters, k)].append(k)
        flows[me] = {
            j: pack_keys(ks) for j, ks in buckets.items() if ks
        }
    received = yield from array_route(ctx, flows, scheme=scheme)
    merged = [
        sorted(
            k
            for value, nbits in received[me].values()
            for k in unpack_keys(value, nbits)
        )
        for me in range(n)
    ]

    # Step 4: all-gather bucket sizes and re-route to rank owners.
    size_rows = yield from array_all_gather_uint(
        ctx, [len(m) for m in merged], 32
    )
    flows2: dict[int, dict[int, tuple[int, int]]] = {}
    for me in range(n):
        sizes = size_rows[me]
        total = sum(sizes)
        my_offset = sum(sizes[:me])
        quota = -(-total // n)
        rank_flows: dict[int, list[int]] = {}
        for pos, k in enumerate(merged[me]):
            rank = my_offset + pos
            owner = min(rank // quota, n - 1) if quota > 0 else 0
            rank_flows.setdefault(owner, []).append(k)
        flows2[me] = {d: pack_keys(ks) for d, ks in rank_flows.items() if ks}
    received2 = yield from array_route(ctx, flows2, scheme=scheme)
    return [
        sorted(
            k
            for value, nbits in received2[me].values()
            for k in unpack_keys(value, nbits)
        )
        for me in range(n)
    ]
