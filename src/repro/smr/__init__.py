"""State-machine-replication substrate: transactions, blocks, chains,
mempools, clients, and deterministic execution."""

from .block import GENESIS, GENESIS_HASH, Block, create_leaf, make_genesis
from .chain import BlockStore, ChainError
from .client import Client, Reply, SubmitTxBatch
from .execution import ExecutionLog, KVStore, prefix_agreement
from .mempool import BLOCK_TXS, DEFAULT_DEDUP_WINDOW, Mempool
from .transaction import TX_OVERHEAD_BYTES, TxBatch, TxFactory

__all__ = [
    "GENESIS",
    "GENESIS_HASH",
    "Block",
    "create_leaf",
    "make_genesis",
    "BlockStore",
    "ChainError",
    "Client",
    "Reply",
    "SubmitTxBatch",
    "ExecutionLog",
    "KVStore",
    "prefix_agreement",
    "BLOCK_TXS",
    "DEFAULT_DEDUP_WINDOW",
    "Mempool",
    "TX_OVERHEAD_BYTES",
    "TxBatch",
    "TxFactory",
]
