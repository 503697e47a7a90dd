// Package maxreg implements the max-register substrates the paper builds
// on: the exact m-bounded max register of Aspnes, Attiya and Censor-Hillel
// ("Polylogarithmic concurrent data structures from monotone circuits",
// J. ACM 2012; reference [8] of the paper) and an unbounded extension
// parameterized by any bounded max-register implementation, realizing the
// "plug-in" construction the paper attributes to Baig et al. [9].
//
// Since PR 6 the public package reaches these registers only through the
// sharded backend plane (internal/shard); the unsharded types here double
// as reference implementations for the conformance oracles and the
// benchmark baselines.
package maxreg

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// Bounded is the exact m-bounded max register of [8]: a binary tree of
// switch registers in which Write(v) descends towards v's leaf, setting the
// switch of every right branch bottom-up, and Read follows set switches
// down, accumulating the maximum written value. Both operations touch one
// register per tree level, giving worst-case step complexity ceil(log2 m) —
// exponentially better than the Omega(n) bound for unbounded exact max
// registers when m is small. It is linearizable and wait-free.
//
// Tree nodes are materialized lazily by the first write that descends
// into them, published with a CAS so concurrent first descents agree on
// one node; a node's register counts in Resident only once its CAS wins.
// Reads build nothing but still pay exactly one step per level, as in
// the model, where all registers exist up front: a read that reaches an
// unbuilt left subtree of size s takes the ceil(log2 s) reads of its
// never-written switches at once (prim.Proc.ReadUnbuilt), since a write
// builds a node before it writes below it. A gated (simulated) process
// takes each of those reads as its own step and builds the nodes it
// reads, so simulated executions keep their object IDs and traces.
type Bounded struct {
	m       uint64
	factory *prim.Factory
	root    *node
}

// node covers a value domain of the given size (>= 2); values < half route
// left, values >= half route right (offset by half). Children whose domain
// has size 1 stay nil: a size-1 max register always reads 0 and needs no
// storage.
type node struct {
	sw    *prim.Reg
	size  uint64
	half  uint64
	left  atomic.Pointer[node]
	right atomic.Pointer[node]
}

var _ object.MaxReg = (*Bounded)(nil)

// NewBounded creates an m-bounded exact max register (domain {0..m-1}).
// m must be at least 1.
func NewBounded(f *prim.Factory, m uint64) (*Bounded, error) {
	if m < 1 {
		return nil, fmt.Errorf("maxreg: bound m must be >= 1, got %d", m)
	}
	b := &Bounded{m: m, factory: f}
	if m >= 2 {
		b.root = newNode(f, m)
	}
	return b, nil
}

func newNode(f *prim.Factory, size uint64) *node {
	return &node{sw: f.Reg(), size: size, half: (size + 1) / 2}
}

// child returns the left or right child of n, materializing it if its
// domain has at least two values.
func (b *Bounded) child(n *node, right bool) *node {
	ptr := &n.left
	size := n.half
	if right {
		ptr = &n.right
		size = n.size - n.half
	}
	if size <= 1 {
		return nil
	}
	if c := ptr.Load(); c != nil {
		return c
	}
	st := b.factory.Stage()
	fresh := newNode(st, size)
	if ptr.CompareAndSwap(nil, fresh) {
		b.factory.Materialized(st.Resident())
		return fresh
	}
	return ptr.Load()
}

// Bound returns m.
func (b *Bounded) Bound() uint64 { return b.m }

// Depth returns the tree height, i.e. the worst-case number of steps of one
// operation: ceil(log2 m).
func (b *Bounded) Depth() int {
	if b.m <= 1 {
		return 0
	}
	d := bits.Len64(b.m - 1)
	return d
}

// Write records v. It panics if v >= m: writing out of range is a caller
// bug, like indexing a slice out of bounds.
func (b *Bounded) Write(p *prim.Proc, v uint64) {
	if v >= b.m {
		panic(fmt.Sprintf("maxreg: write %d out of range of %d-bounded max register", v, b.m))
	}
	b.writeTree(p, b.root, v)
}

func (b *Bounded) writeTree(p *prim.Proc, n *node, v uint64) {
	if n == nil {
		return
	}
	if v >= n.half {
		b.writeTree(p, b.child(n, true), v-n.half)
		n.sw.Write(p, 1)
		return
	}
	// Smaller half: only descend while no larger value switched right;
	// otherwise v is already subsumed by the maximum.
	if n.sw.Read(p) == 0 {
		b.writeTree(p, b.child(n, false), v)
	}
}

// Read returns the maximum value written so far (exactly). A set switch
// has a built right child (its writer built it first); an unbuilt left
// child of size s is ceil(log2 s) switches no write has reached, all 0,
// so a production read charges their steps and stops there.
func (b *Bounded) Read(p *prim.Proc) uint64 {
	v := uint64(0)
	n := b.root
	for n != nil {
		if n.sw.Read(p) == 1 {
			v += n.half
			n = b.child(n, true)
		} else if n.left.Load() == nil && p.ReadUnbuilt(bits.Len64(n.half-1)) {
			return v
		} else {
			n = b.child(n, false)
		}
	}
	return v
}

// boundedHandle adapts Bounded to the object interfaces. The exact bounded
// max register keeps no per-process persistent state, so the handle is just
// the (register, process) pair.
type boundedHandle struct {
	b *Bounded
	p *prim.Proc
}

// MaxRegHandle implements object.MaxReg.
func (b *Bounded) MaxRegHandle(p *prim.Proc) object.MaxRegHandle {
	return &boundedHandle{b: b, p: p}
}

func (h *boundedHandle) Write(v uint64) { h.b.Write(h.p, v) }
func (h *boundedHandle) Read() uint64   { return h.b.Read(h.p) }
