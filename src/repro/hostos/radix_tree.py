"""A Linux-kernel-style radix tree.

The UVM driver stores reverse DMA address mappings "in a radix tree data
structure implemented in the mainline Linux kernel" (paper §5.2), and inline
timing in the paper attributes the majority of high-cost DMA batches to this
structure.  We implement the real thing — 6-bit fanout (64 slots per node),
height growth on demand — and surface *node allocation counts* so the cost
model can charge slab allocations and periodic slab refills exactly where
the kernel would.

Keys are non-negative integers (page indexes); values are arbitrary (DMA
addresses in our use).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

#: Linux RADIX_TREE_MAP_SHIFT default.
MAP_SHIFT = 6
MAP_SIZE = 1 << MAP_SHIFT  # 64
MAP_MASK = MAP_SIZE - 1


class _Node:
    __slots__ = ("slots", "count")

    def __init__(self) -> None:
        self.slots: List[Any] = [None] * MAP_SIZE
        self.count = 0

    def __reduce__(self):
        # Pickled as its two fields, not a slot-state dict: a checkpoint of
        # the DMA reverse map pickles every node.
        return _node, (self.slots, self.count)


def _node(slots: List[Any], count: int) -> _Node:
    node = _Node.__new__(_Node)
    node.slots = slots
    node.count = count
    return node


class RadixTree:
    """Path-growing radix tree with allocation accounting.

    >>> t = RadixTree()
    >>> t.insert(5, "x")
    True
    >>> t.lookup(5)
    'x'
    >>> t.lookup(6) is None
    True
    """

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._height = 0  # levels below root; 0 = empty tree
        self._size = 0
        #: Total nodes ever allocated (drives the slab cost model).
        self.nodes_allocated = 0
        #: Nodes currently live.
        self.nodes_live = 0

    # ----------------------------------------------------------------- stats

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def _alloc_node(self) -> _Node:
        self.nodes_allocated += 1
        self.nodes_live += 1
        return _Node()

    def _free_node(self, node: _Node) -> None:
        self.nodes_live -= 1

    # ------------------------------------------------------------------- ops

    def _max_key(self) -> int:
        """Largest key representable at the current height."""
        if self._height == 0:
            return -1
        return (1 << (MAP_SHIFT * self._height)) - 1

    def insert(self, key: int, value: Any) -> bool:
        """Insert ``key`` → ``value``; False if the key already existed
        (value is replaced either way)."""
        if key < 0:
            raise ValueError("radix tree keys must be non-negative")
        if value is None:
            raise ValueError("radix tree cannot store None")
        if self._root is None:
            # Fresh tree: allocate a root already tall enough for the key
            # (wrapping an empty root would leak a dangling node).
            height = 1
            while key > (1 << (MAP_SHIFT * height)) - 1:
                height += 1
            self._root = self._alloc_node()
            self._height = height
        # Grow the tree until the key fits (a live root is never empty).
        while key > self._max_key():
            new_root = self._alloc_node()
            new_root.slots[0] = self._root
            new_root.count = 1
            self._root = new_root
            self._height += 1
        node = self._root
        shift = MAP_SHIFT * (self._height - 1)
        while shift > 0:
            idx = (key >> shift) & MAP_MASK
            child = node.slots[idx]
            if child is None:
                child = self._alloc_node()
                node.slots[idx] = child
                node.count += 1
            node = child
            shift -= MAP_SHIFT
        idx = key & MAP_MASK
        existed = node.slots[idx] is not None
        if not existed:
            node.count += 1
            self._size += 1
        node.slots[idx] = value
        return not existed

    def lookup(self, key: int) -> Any:
        """Value stored at ``key`` or None."""
        if key < 0:
            raise ValueError("radix tree keys must be non-negative")
        if self._root is None or key > self._max_key():
            return None
        node = self._root
        shift = MAP_SHIFT * (self._height - 1)
        while shift > 0:
            node = node.slots[(key >> shift) & MAP_MASK]
            if node is None:
                return None
            shift -= MAP_SHIFT
        return node.slots[key & MAP_MASK]

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None

    def delete(self, key: int) -> Any:
        """Remove ``key``; returns the old value or None.  Frees nodes whose
        last slot empties (as the kernel's does on the shrink path)."""
        if key < 0 or self._root is None or key > self._max_key():
            return None
        path: List[Tuple[_Node, int]] = []
        node = self._root
        shift = MAP_SHIFT * (self._height - 1)
        while shift > 0:
            idx = (key >> shift) & MAP_MASK
            child = node.slots[idx]
            if child is None:
                return None
            path.append((node, idx))
            node = child
            shift -= MAP_SHIFT
        idx = key & MAP_MASK
        value = node.slots[idx]
        if value is None:
            return None
        node.slots[idx] = None
        node.count -= 1
        self._size -= 1
        # Free emptied nodes bottom-up.
        child = node
        while child.count == 0 and path:
            parent, pidx = path.pop()
            parent.slots[pidx] = None
            parent.count -= 1
            self._free_node(child)
            child = parent
        if child.count == 0 and child is self._root:
            self._free_node(child)
            self._root = None
            self._height = 0
        return value

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate ``(key, value)`` pairs in ascending key order."""
        if self._root is None:
            return
        yield from self._walk(self._root, self._height - 1, 0)

    def _walk(self, node: _Node, level: int, prefix: int) -> Iterator[Tuple[int, Any]]:
        for idx in range(MAP_SIZE):
            slot = node.slots[idx]
            if slot is None:
                continue
            key = (prefix << MAP_SHIFT) | idx
            if level == 0:
                yield key, slot
            else:
                yield from self._walk(slot, level - 1, key)
