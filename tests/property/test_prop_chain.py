"""Property tests: block-store ancestry invariants over random trees."""

from hypothesis import given
from hypothesis import strategies as st

from repro.smr import GENESIS, BlockStore, TxBatch, create_leaf


@st.composite
def block_trees(draw):
    """A random block tree: each new block picks a random parent."""
    n = draw(st.integers(min_value=1, max_value=14))
    blocks = [GENESIS]
    parents = {GENESIS.hash: None}
    for view in range(n):
        parent = blocks[draw(st.integers(0, len(blocks) - 1))]
        b = create_leaf(parent.hash, view, TxBatch(), proposer=draw(st.integers(0, 3)))
        if b.hash not in parents:
            blocks.append(b)
            parents[b.hash] = parent.hash
    order = draw(st.permutations(blocks[1:]))
    return blocks, parents, order


def real_ancestors(parents, h):
    out = []
    cur = parents.get(h)
    while cur is not None:
        out.append(cur)
        cur = parents.get(cur)
    return out


@given(block_trees())
def test_extends_plus_matches_parent_walk(tree):
    blocks, parents, order = tree
    store = BlockStore()
    for b in order:  # random insertion order
        store.add(b)
    for b in blocks:
        ancs = set(real_ancestors(parents, b.hash))
        for other in blocks:
            expected = other.hash in ancs
            assert store.extends_plus(b.hash, other.hash) == expected


@given(block_trees())
def test_heights_settle_regardless_of_insertion_order(tree):
    blocks, parents, order = tree
    store = BlockStore()
    for b in order:
        store.add(b)
    for b in blocks:
        assert store.height(b.hash) == len(real_ancestors(parents, b.hash))


@given(block_trees())
def test_conflicts_symmetric_and_chain_free(tree):
    blocks, parents, order = tree
    store = BlockStore()
    for b in order:
        store.add(b)
    for a in blocks:
        for b in blocks:
            assert store.conflicts(a.hash, b.hash) == store.conflicts(
                b.hash, a.hash
            )
            if store.extends_plus(a.hash, b.hash):
                assert not store.conflicts(a.hash, b.hash)


@given(block_trees())
def test_path_from_is_contiguous_and_complete(tree):
    blocks, parents, order = tree
    store = BlockStore()
    for b in order:
        store.add(b)
    executed = {GENESIS.hash}
    for tip in blocks[1:]:
        path = store.path_from(tip.hash, executed)
        # Path is a contiguous parent chain ending at the tip.
        assert path[-1].hash == tip.hash
        for x, y in zip(path, path[1:]):
            assert y.parent == x.hash
        assert path[0].parent in executed or path[0].parent == GENESIS.hash
