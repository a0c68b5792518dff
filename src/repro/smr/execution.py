"""Deterministic execution: the committed log and an example app state.

Each replica appends executed blocks to an :class:`ExecutionLog` (the
total order agreed by consensus) and applies their transactions to a
deterministic state machine.  Tests compare logs and state digests
across replicas to check agreement.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..crypto import Digest, encode, sha256
from .block import GENESIS, Block

#: 2PC states besides the staged ops (see :class:`KVStore`).
COMMITTED, ABORTED, ABORTED_PREPARED = "committed", "aborted", "aborted+prepared"
#: Arity of each plain op, the only ops a prepare may stage.
_ARITY = {"set": 3, "del": 2, "add": 3}
_OP_NAMES = tuple((name,) for name in _ARITY)  # ``in`` compares, never hashes


def _is_plain(op: Any) -> bool:
    return type(op) is tuple and op[:1] in _OP_NAMES and _ARITY[op[0]] == len(op)


class KVStore:
    """A deterministic replicated key-value state machine.

    Supported operations (``tx.op``):

    * ``("set", key, value)``
    * ``("del", key)``
    * ``("add", key, delta)`` — integer accumulate, missing keys are 0

    Cross-shard 2PC markers (:mod:`repro.shard`) stage a multi-shard
    transaction's local effects until its decision, so each shard's
    chain records the whole 2PC history:

    * ``("xprepare", xid, ops)`` — stage ``ops`` (a tuple of plain
      set/del/add ops; anything else raises) under transaction id ``xid``
    * ``("xcommit", xid)`` — apply the staged ops (unstaged: raises)
    * ``("xabort", xid)`` — discard them; presumed abort, so it may
      precede the prepare, which then stages nothing

    The history is one table, ``x_table``: xid → its staged ops
    (undecided), ``COMMITTED``, ``ABORTED`` (no prepare seen) or
    ``ABORTED_PREPARED``; ``x_staged``, ``x_prepared``, ``x_committed``
    and ``x_aborted`` are read-only views of it (transitions:
    docs/invariants.md, "One 2PC table per store").
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.ops_applied = 0
        #: xid -> 2PC state (never pruned; the oracle reads it).
        self.x_table: dict[int, Any] = {}

    def apply(self, op: Any) -> None:
        if op is None:
            return
        kind = op[0]
        if kind == "set":
            _, key, value = op
            self._data[key] = value
        elif kind == "del":
            _, key = op
            self._data.pop(key, None)
        elif kind == "add":
            _, key, delta = op
            self._data[key] = int(self._data.get(key, 0)) + int(delta)
        elif kind == "xprepare":
            _, xid, ops = op
            state = self.x_table.get(xid)
            if state is not None and state != ABORTED:
                raise ValueError(f"2PC tx {xid} prepared twice")
            if type(ops) is not tuple or not all(map(_is_plain, ops)):
                raise ValueError(f"2PC tx {xid} stages a non-plain op")
            # A late prepare (presumed abort) stages nothing.
            self.x_table[xid] = ops if state is None else ABORTED_PREPARED
        elif kind == "xcommit" or kind == "xabort":
            _, xid = op
            legs = self.x_table.get(xid)
            if legs is not None and type(legs) is not tuple:
                raise ValueError(f"2PC tx {xid} decided twice")
            if kind == "xabort":  # may precede the prepare
                self.x_table[xid] = ABORTED if legs is None else ABORTED_PREPARED
            elif legs is None:
                raise ValueError(f"2PC commit for unstaged tx {xid}")
            else:
                self.x_table[xid] = COMMITTED
                for leg in legs:
                    self.apply(leg)
                    self.ops_applied -= 1  # count the decision, not each leg
        else:
            raise ValueError(f"unknown operation {kind!r}")
        self.ops_applied += 1

    # -- read-only views of the 2PC table -----------------------------------
    def _xids(self, *states: str) -> frozenset[int]:
        return frozenset(x for x, s in self.x_table.items() if s in states)

    x_committed = property(lambda kv: kv._xids(COMMITTED))
    x_aborted = property(lambda kv: kv._xids(ABORTED, ABORTED_PREPARED))
    x_prepared = property(lambda kv: frozenset(kv.x_table) - kv._xids(ABORTED))
    x_staged = property(
        lambda kv: {x: s for x, s in kv.x_table.items() if type(s) is tuple}
    )

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def state_digest(self) -> Digest:
        """Order-independent digest of the full state (agreement checks).
        Not memoized: a run reads it once, when it has ended."""
        items = tuple(sorted((k, repr(v)) for k, v in self._data.items()))
        return sha256(encode(("kv-state", items)))


class ExecutionLog:
    """The per-replica committed block sequence plus app state."""

    def __init__(self, state: Optional[KVStore] = None) -> None:
        self.blocks: list[Block] = []
        # Genesis is executed by definition (empty, carries no txs).
        self.executed: set[Digest] = {GENESIS.hash}
        self.state = state if state is not None else KVStore()
        self.txs_executed = 0
        self._exec_times: list[float] = []
        #: Packed keys of op-bearing transactions already applied.
        #: Pipelined protocols can order one transaction into two
        #: committed blocks (the view-(v+1) leader proposes before view
        #: v's commit prunes its mempool), so commit-time dedup lives
        #: here; rows with ``op is None`` are no-ops and not tracked.
        self._applied_keys: set[int] = set()
        #: (length, callback) armed by :meth:`when_length`, else None.
        self._length_watch: Optional[tuple[int, Callable[[], None]]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    def when_length(self, length: int, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, inside the :meth:`execute` that brings
        the log to ``length`` blocks (at once if it has them): how a run
        driver stops at its target without polling.  One watch at a time."""
        if len(self.blocks) >= length:
            callback()
        else:
            self._length_watch = (length, callback)

    def is_executed(self, h: Digest) -> bool:
        return h in self.executed

    def execute(self, block: Block, now: float) -> None:
        """Append ``block`` and apply its transactions.

        Blocks must arrive in chain order (the caller walks unexecuted
        ancestors first); re-execution is rejected.
        """
        if block.hash in self.executed:
            raise ValueError(f"block {block.hash.hex()[:8]} already executed")
        if self.blocks and block.parent != self.blocks[-1].hash:
            raise ValueError(
                "out-of-order execution: block does not extend the log head"
            )
        self.blocks.append(block)
        self.executed.add(block.hash)
        self._exec_times.append(now)
        # Only op columns can matter: ``op is None`` (every row of the
        # synthetic saturated workload) is the documented no-op.  The
        # applied set keeps the segment's own cached packed keys.
        apply = self.state.apply
        applied = self._applied_keys
        for seg in block.txs.segments:
            if seg.ops is None:
                continue
            for key, op in zip(seg.packed, seg.ops):
                if op is None or key in applied:
                    continue  # no-op, or re-ordered by a pipelined leader
                applied.add(key)
                apply(op)
        self.txs_executed += len(block.txs)
        watch = self._length_watch
        if watch is not None and len(self.blocks) >= watch[0]:
            self._length_watch = None
            watch[1]()

    def head_hash(self) -> Optional[Digest]:
        return self.blocks[-1].hash if self.blocks else None

    def execution_time(self, index: int) -> float:
        return self._exec_times[index]

    def log_digest(self) -> Digest:
        """Digest of the committed order (prefix-agreement checks).
        Not memoized: a run reads it once, when it has ended."""
        return sha256(encode(("log", tuple(b.hash for b in self.blocks))))


def prefix_agreement(logs: list[ExecutionLog]) -> bool:
    """True iff every pair of logs agrees on their common prefix — that
    is, iff every log is a prefix of the longest one (O(n·L))."""
    longest = max((log.blocks for log in logs), key=len, default=())
    for log in logs:
        for x, y in zip(log.blocks, longest):
            if x.hash != y.hash:
                return False
    return True


__all__ = ["KVStore", "ExecutionLog", "prefix_agreement", "COMMITTED",
           "ABORTED", "ABORTED_PREPARED"]
