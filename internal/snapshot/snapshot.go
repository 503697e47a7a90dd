// Package snapshot implements the classic wait-free single-writer atomic
// snapshot of Afek, Attiya, Dolev, Gafni, Merritt and Shavit (J. ACM 1993),
// the substrate behind the "easy" optimal exact counter the paper's
// introduction describes: increment your component, scan and sum to read.
//
// Update embeds a scan, so both operations run in O(n^2) steps worst case
// (adaptive constructions reach O(n); see reference [7] of the paper — the
// asymptotics of the counters built on top are unchanged).
package snapshot

import (
	"fmt"

	"approxobj/internal/object"
	"approxobj/internal/prim"
)

// cell is the immutable content of one component register.
type cell struct {
	val  uint64
	seq  uint64
	view []uint64 // embedded scan taken by the writing Update
}

// Snapshot is an n-component single-writer atomic snapshot. Component i is
// written only by process i (via Update) and read by anyone (via Scan).
type Snapshot struct {
	n    int
	regs []*prim.RefReg
}

// New creates a snapshot object with one component per process of f,
// all initialized to zero.
func New(f *prim.Factory) (*Snapshot, error) {
	n := f.N()
	if n < 1 {
		return nil, fmt.Errorf("snapshot: need at least one process, got %d", n)
	}
	return &Snapshot{n: n, regs: f.RefRegRow(n)}, nil
}

// N returns the number of components.
func (s *Snapshot) N() int { return s.n }

// Handle binds process p to the snapshot. The handle caches the process's
// own sequence number (single-writer state, kept locally so Update needs no
// extra read step) and the collect scratch of ScanInto, so steady-state
// scans through one handle allocate nothing. Each process has one handle:
// a second handle for p restarts the sequence at 1, where it could collide
// with a cell p already wrote and hide that component's movement from a
// concurrent Scan.
type Handle struct {
	s   *Snapshot
	p   *prim.Proc
	seq uint64

	// ScanInto scratch: two collect buffers (the classic "two identical
	// successive collects" pair) and the per-component movement counters,
	// reused across scans.
	ca, cb []*cell
	moved  []int
}

// Handle returns process p's view of the snapshot.
func (s *Snapshot) Handle(p *prim.Proc) *Handle {
	return &Handle{s: s, p: p}
}

// SnapshotHandle implements object.Snapshot, so the sharded runtime can
// build snapshots like any other backend.
func (s *Snapshot) SnapshotHandle(p *prim.Proc) object.SnapshotHandle {
	return s.Handle(p)
}

// collectInto reads every component once into out (grown as needed),
// returning the observed cells (nil entries mean "never written", i.e.
// value 0, sequence 0).
func (h *Handle) collectInto(out []*cell) []*cell {
	if cap(out) < h.s.n {
		out = make([]*cell, h.s.n)
	}
	out = out[:h.s.n]
	for i, r := range h.s.regs {
		if c, ok := r.Read(h.p).(*cell); ok {
			out[i] = c
		} else {
			out[i] = nil
		}
	}
	return out
}

func seqOf(c *cell) uint64 {
	if c == nil {
		return 0
	}
	return c.seq
}

func valOf(c *cell) uint64 {
	if c == nil {
		return 0
	}
	return c.val
}

// Scan returns an atomic view of all n components: either a "direct" view
// from two identical successive collects, or the embedded view of a process
// observed to move twice (whose embedded scan then ran entirely within this
// Scan's interval). The slice is fresh (owned by the caller).
func (h *Handle) Scan() []uint64 { return h.ScanInto(nil) }

// ScanInto is Scan into a reused buffer: dst is grown (or allocated, if
// nil) to n and filled with the view. Collect buffers and movement
// counters live in the handle, so steady-state scans through one handle
// allocate nothing. The step count is identical to Scan's.
func (h *Handle) ScanInto(dst []uint64) []uint64 {
	cells, view := h.scan()
	if view != nil {
		return append(dst[:0], view...)
	}
	if cap(dst) < h.s.n {
		dst = make([]uint64, h.s.n)
	}
	dst = dst[:h.s.n]
	for i, c := range cells {
		dst[i] = valOf(c)
	}
	return dst
}

// MergeInto raises every component of acc, which must hold n
// components, to the value the scan sees, and returns it: the
// element-wise max of acc and ScanInto's view, the fold step of a
// combined scan over several snapshots, which needs no buffer of its
// own. Its reads and steps are ScanInto's.
func (h *Handle) MergeInto(acc []uint64) []uint64 {
	acc = acc[:h.s.n]
	cells, view := h.scan()
	for i := range acc {
		var v uint64
		if view != nil {
			v = view[i]
		} else {
			v = valOf(cells[i])
		}
		if v > acc[i] {
			acc[i] = v
		}
	}
	return acc
}

// scan takes an atomic view: either two identical successive collects,
// returned as the cells of the second (view nil), or the embedded view
// of a process observed to move twice, returned borrowed (cells nil;
// read-only, shared with the cell that embeds it).
func (h *Handle) scan() (cells []*cell, view []uint64) {
	n := h.s.n
	if cap(h.moved) < n {
		h.moved = make([]int, n)
	} else {
		h.moved = h.moved[:n]
		for i := range h.moved {
			h.moved[i] = 0
		}
	}
	prev := h.collectInto(h.ca)
	cur := h.cb
	for {
		cur = h.collectInto(cur)
		same := true
		for i := range cur {
			if seqOf(cur[i]) != seqOf(prev[i]) {
				same = false
				h.moved[i]++
				if h.moved[i] >= 2 {
					// cur[i].view was embedded by an Update that began
					// after our first collect: it is a valid view here.
					h.ca, h.cb = prev, cur
					return nil, cur[i].view
				}
			}
		}
		if same {
			h.ca, h.cb = prev, cur
			return cur, nil
		}
		prev, cur = cur, prev
	}
}

// Update sets this process's component to v. Per Afek et al., it embeds a
// scan in the published cell so concurrent scanners can borrow it.
func (h *Handle) Update(v uint64) {
	view := h.Scan()
	h.seq++
	h.s.regs[h.p.ID()].Write(h.p, &cell{val: v, seq: h.seq, view: view})
}
