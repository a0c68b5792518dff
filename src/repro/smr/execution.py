"""Deterministic execution: the committed log and an example app state.

Each replica appends executed blocks to an :class:`ExecutionLog` (the
total order agreed by consensus) and applies their transactions to a
deterministic state machine.  Tests compare logs and state digests
across replicas to check agreement.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..crypto import Digest, digest_of
from .block import GENESIS, Block


class KVStore:
    """A deterministic replicated key-value state machine.

    Supported operations (``tx.op``):

    * ``("set", key, value)``
    * ``("del", key)``
    * ``("add", key, delta)`` — integer accumulate, missing keys are 0

    Cross-shard 2PC markers (:mod:`repro.shard`) — a multi-shard
    transaction's local effects are *staged* by a prepare and only
    reach the data on a commit decision, so the per-shard chain records
    the whole 2PC history and the atomicity oracle can compare shards:

    * ``("xprepare", xid, ops)`` — stage ``ops`` (a tuple of plain
      set/del/add ops) under transaction id ``xid``
    * ``("xcommit", xid)`` — apply the staged ops
    * ``("xabort", xid)`` — discard them

    Presumed abort: an ``xabort`` may serialize *before* the prepare on
    a shard (the coordinator's deadline fires while the prepare is
    still in that shard's pipeline), so an abort never requires a prior
    prepare, and a prepare that lands after the abort records the xid
    but stages nothing.  A commit, by contrast, is only ever sent after
    the coordinator observed every prepare committed, so an unstaged
    ``xcommit`` is a real protocol violation and raises.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.ops_applied = 0
        #: xid -> staged ops awaiting a 2PC decision.
        self.x_staged: dict[int, tuple] = {}
        #: Full 2PC history (never pruned; the oracle reads these).
        self.x_prepared: set[int] = set()
        self.x_committed: set[int] = set()
        self.x_aborted: set[int] = set()

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
            if xid in self.x_prepared:
                raise ValueError(f"2PC tx {xid} prepared twice")
            self.x_prepared.add(xid)
            if xid not in self.x_aborted:  # late prepare: presumed abort
                self.x_staged[xid] = tuple(ops)
        elif kind == "xcommit":
            _, xid = op
            self._decide(xid)
            if xid not in self.x_staged:
                raise ValueError(f"2PC commit for unstaged tx {xid}")
            self.x_committed.add(xid)
            for staged in self.x_staged.pop(xid):
                self.apply(tuple(staged))
                self.ops_applied -= 1  # count the decision, not each leg
        elif kind == "xabort":
            _, xid = op
            self._decide(xid)
            self.x_aborted.add(xid)
            self.x_staged.pop(xid, None)  # may precede the prepare
        else:
            raise ValueError(f"unknown operation {kind!r}")
        self.ops_applied += 1

    def _decide(self, xid: int) -> None:
        """A 2PC decision is unique per transaction id."""
        if xid in self.x_committed or xid in self.x_aborted:
            raise ValueError(f"2PC tx {xid} decided twice")

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def state_digest(self) -> Digest:
        """Order-independent digest of the full state (agreement checks)."""
        items = tuple(sorted((k, repr(v)) for k, v in self._data.items()))
        return digest_of("kv-state", items)


class ExecutionLog:
    """The per-replica committed block sequence plus app state."""

    def __init__(self, state: Optional[KVStore] = None) -> None:
        self.blocks: list[Block] = []
        # Genesis is executed by definition (empty, carries no txs).
        self.executed: set[Digest] = {GENESIS.hash}
        self.state = state if state is not None else KVStore()
        self.txs_executed = 0
        self._exec_times: list[float] = []
        #: Keys of op-bearing transactions already applied.  Pipelined
        #: protocols can legitimately order one transaction into two
        #: committed blocks (the view-(v+1) leader proposes before view
        #: v's commit prunes its mempool), so commit-time dedup lives
        #: here, keyed on ``(client_id, tx_id)``.  Only transactions
        #: with a real ``op`` are tracked — the synthetic workload's
        #: rows carry ``op is None`` and are state-machine no-ops.
        self._applied_keys: set[tuple[int, int]] = set()
        #: (length, callback) armed by :meth:`when_length`, else None.
        self._length_watch: Optional[tuple[int, Callable[[], None]]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    def when_length(self, length: int, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, from inside the :meth:`execute` that
        brings the log to ``length`` blocks — at once if it already has
        them.  How a run driver learns that its target is reached
        without polling ``len(log)`` after every simulation event.  One
        watch at a time; arming again replaces it."""
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
        # Only op-bearing rows can matter: ``op is None`` (every row of
        # the synthetic saturated workload) is the documented no-op.
        apply = self.state.apply
        applied = self._applied_keys
        for tx in block.txs.op_rows:
            key = (tx.client_id, tx.tx_id)
            if key in applied:
                continue  # re-ordered by a pipelined leader
            applied.add(key)
            apply(tx.op)
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
        """Digest of the committed order (prefix-agreement checks)."""
        return digest_of("log", tuple(b.hash for b in self.blocks))


def prefix_agreement(logs: list[ExecutionLog]) -> bool:
    """True iff every pair of logs agrees on their common prefix — that
    is, iff every log is a prefix of the longest one (O(n·L))."""
    longest = max((log.blocks for log in logs), key=len, default=())
    for log in logs:
        for x, y in zip(log.blocks, longest):
            if x.hash != y.hash:
                return False
    return True


__all__ = ["KVStore", "ExecutionLog", "prefix_agreement"]
