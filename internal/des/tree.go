package des

import (
	"math"
	"slices"
)

// eventTree is the kernel's event queue: a winner (tournament) tree
// over every station, indexed by station ID. Node 1 is the root, node
// i's children are 2i and 2i+1, and leaf len/2+id is station id, so
// the leaf count is a power of two at least the station count. Each
// node holds the least (key, ID) of its subtree, where the key is the
// order-preserving image of the station's nextAt (treeKey) and an idle
// station, or a leaf no station has yet, keys +Inf. Within a subtree
// the left child's IDs are all smaller than the right child's, so
// letting the left winner take ties keeps the exact (nextAt, ID)
// order.
//
// Nodes carry no pointers: the root names its station by ID, and the
// kernel reads the station from its station list.
type eventTree []treeNode

type treeNode struct {
	k  uint64 // treeKey of the winner's nextAt
	id int    // the winner's station ID
}

// idleKey is the key of an idle station: the bits of +Inf, which no
// finite time's key reaches.
const idleKey = 0x7ff0000000000000

// treeKey maps a station's nextAt to its tree key. A non-negative
// float64 orders like its bits read as a uint64; clearing the sign bit
// maps −0 to +0, so the two tie on ID as they compare equal. An idle
// station (nextAt < 0) keys +Inf. Run rejects negative arrivals, so a
// pending event is never negative.
func treeKey(at float64) uint64 {
	k := math.Float64bits(at) &^ (1 << 63)
	if at < 0 {
		k = idleKey
	}
	return k
}

// root is the earliest pending event: its time (+Inf when every
// station is idle) and its station ID.
func (t eventTree) root() (at float64, id int) {
	return math.Float64frombits(t[1].k), t[1].id
}

// set re-keys station id at nextAt and replays its leaf-to-root path:
// each level's winner is the lesser of the path node and its sibling.
// A sibling at i^1 with i odd is a left sibling and wins ties, hence
// the +1. The compare selects without a data-dependent branch, and
// the sibling loads depend only on the path, not on earlier compares.
func (t eventTree) set(id int, at float64) {
	k := treeKey(at)
	i := len(t)/2 + id
	t[i] = treeNode{k, id}
	for i > 1 {
		sib := t[i^1]
		if sib.k < k+uint64(i&1) {
			k, id = sib.k, sib.id
		}
		i >>= 1
		t[i] = treeNode{k, id}
	}
}

// grow makes room for n stations. The leaf count doubles until n fit,
// the existing leaves keep their keys, every new leaf keys idle, and
// each internal node is replayed from its children. A new station
// starts idle, so its leaf needs no set.
func (t *eventTree) grow(n int) {
	old := len(*t) / 2
	if n <= old {
		return
	}
	l := max(old, 1)
	for l < n {
		l *= 2
	}
	nodes := slices.Grow(*t, 2*l-len(*t))[:2*l]
	copy(nodes[l:], nodes[old:2*old])
	for id := old; id < l; id++ {
		nodes[l+id] = treeNode{idleKey, id}
	}
	for i := l - 1; i >= 1; i-- {
		nodes[i] = winner(nodes[2*i], nodes[2*i+1])
	}
	*t = nodes
}

// winner is the lesser of a left node a and a right node b; a wins
// ties.
func winner(a, b treeNode) treeNode {
	if b.k < a.k {
		return b
	}
	return a
}
