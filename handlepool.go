package approxobj

import (
	"sync/atomic"

	"approxobj/internal/pool"
)

// This file implements the pooled side of handle management: every object
// owns a free list (internal/pool) of its process slots, and goroutines
// borrow exclusive handles from it instead of computing slot indices.
// Slot ownership transfers through the pool's channel, which also gives
// the happens-before edge that lets successive owners reuse a slot's
// cached handle (and its persistent per-process algorithm state) without
// extra synchronization. Every family shares the slot-ownership and
// step-accounting logic through the generic slotPool below, whose
// handles are the kind's runtime handles themselves; each family
// contributes only its typed Acquire/TryAcquire/Do wrappers.

// pooledHandle is what the pool needs of a slot's handle: release
// flushes its buffered mutations and credits its steps.
type pooledHandle interface {
	comparable
	Flush()
	Steps() uint64
}

// slotPool is the pooled-handle plumbing every object family embeds: the
// slot free list, the per-slot handle cache, and retired-step
// accounting.
type slotPool[H pooledHandle] struct {
	free    *pool.Pool
	handles []H              // lazily built, one per pool slot
	leases  []slotLease      // per-slot lease state (see lease)
	mk      func(slot int) H // builds a slot's handle on first lease
	retired atomic.Uint64    // steps credited by released pooled handles
}

// slotLease is one slot's lease state: its monotonic generation (the
// release idempotence guard, see lease) and the steps its cached handle
// has already credited to the retired counter — handles survive across
// leases, so each release credits only the delta.
type slotLease struct {
	gen      atomic.Uint64
	credited uint64
}

// init sizes the pool in place (slotPool embeds an atomic and must not
// be copied once in use) and binds the owning object's handle
// constructor, so the acquisition hot path allocates no closures.
func (p *slotPool[H]) init(slots int, mk func(slot int) H) {
	p.free = pool.New(slots)
	p.handles = make([]H, slots)
	p.leases = make([]slotLease, slots)
	p.mk = mk
}

// acquire borrows a slot (blocking) and leases its handle.
func (p *slotPool[H]) acquire() (H, func()) {
	return p.lease(p.free.Acquire())
}

// tryAcquire is acquire without blocking; ok is false when every slot is
// held.
func (p *slotPool[H]) tryAcquire() (h H, release func(), ok bool) {
	slot, ok := p.free.TryAcquire()
	if !ok {
		return h, nil, false
	}
	h, release = p.lease(slot)
	return h, release, true
}

// lease hands out slot's cached handle, building it on first use (safe
// without a lock — the pool hands each slot to one goroutine at a
// time, and releases happen-before the next acquire), and returns it
// with an idempotent release that flushes the handle, credits its steps
// since the slot's last release, and frees the slot.
//
// The idempotence guard is the slot's monotonic generation counter:
// each lease bumps it to g and release succeeds only by advancing g to
// g+1, so a cleanup path racing the owner's deferred release cannot
// retire the handle twice or duplicate the slot in the free list — and
// a stale closure surviving past a re-lease can never succeed either
// (the generation has moved past g for good). Sharing the guard with
// the slot keeps the acquisition hot path to one allocation (the
// release closure itself) instead of two.
func (p *slotPool[H]) lease(slot int) (H, func()) {
	h := p.handles[slot]
	if isNil(h) {
		h = p.mk(slot)
		p.handles[slot] = h
	}
	l := &p.leases[slot]
	g := l.gen.Add(1)
	return h, func() {
		if !l.gen.CompareAndSwap(g, g+1) {
			return
		}
		h.Flush()
		steps := h.Steps()
		p.retired.Add(steps - l.credited)
		l.credited = steps
		p.free.Release(slot)
	}
}

func isNil[H comparable](h H) bool {
	var zero H
	return h == zero
}

// Acquire borrows an exclusive handle from the counter's slot pool,
// blocking until a slot is free. The returned release function flushes
// any batched increments, credits the handle's steps to the object's
// retired-step counter (see Registry snapshots), and returns the slot;
// it is idempotent. The handle must not be used after release. Steps()
// on a pooled handle is cumulative over every previous owner of its
// slot — cost individual operations as a before/after delta.
func (c *Counter) Acquire() (CounterHandle, func()) {
	return c.slots.acquire()
}

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (c *Counter) TryAcquire() (h CounterHandle, release func(), ok bool) {
	ph, release, ok := c.slots.tryAcquire()
	if !ok {
		return nil, nil, false
	}
	return ph, release, true
}

// Do runs f with a pooled handle, releasing it (and flushing batched
// increments) when f returns. It blocks until a slot is free.
func (c *Counter) Do(f func(CounterHandle)) {
	h, release := c.Acquire()
	defer release()
	f(h)
}

// Acquire borrows an exclusive handle from the register's slot pool,
// blocking until a slot is free. The returned release function flushes
// any elided writes, credits the handle's steps to the object's
// retired-step counter (see Registry snapshots), and returns the slot;
// it is idempotent. The handle must not be used after release. Steps()
// on a pooled handle is cumulative over every previous owner of its slot
// — cost individual operations as a before/after delta.
func (r *MaxRegister) Acquire() (MaxRegisterHandle, func()) {
	return r.slots.acquire()
}

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (r *MaxRegister) TryAcquire() (h MaxRegisterHandle, release func(), ok bool) {
	ph, release, ok := r.slots.tryAcquire()
	if !ok {
		return nil, nil, false
	}
	return ph, release, true
}

// Do runs f with a pooled handle, releasing it (and flushing elided
// writes) when f returns. It blocks until a slot is free.
func (r *MaxRegister) Do(f func(MaxRegisterHandle)) {
	h, release := r.Acquire()
	defer release()
	f(h)
}

// Acquire borrows an exclusive handle from the snapshot's slot pool,
// blocking until a slot is free: the handle is the single writer of the
// slot's component (discover which via Component). The returned release
// function flushes any elided component update, credits the handle's
// steps to the object's retired-step counter (see Registry snapshots),
// and returns the slot; it is idempotent. The handle must not be used
// after release. Steps() on a pooled handle is cumulative over every
// previous owner of its slot — cost individual operations as a
// before/after delta.
func (s *Snapshot) Acquire() (SnapshotHandle, func()) {
	return s.slots.acquire()
}

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (s *Snapshot) TryAcquire() (h SnapshotHandle, release func(), ok bool) {
	ph, release, ok := s.slots.tryAcquire()
	if !ok {
		return nil, nil, false
	}
	return ph, release, true
}

// Do runs f with a pooled handle, releasing it (and flushing any elided
// component update) when f returns. It blocks until a slot is free.
func (s *Snapshot) Do(f func(SnapshotHandle)) {
	h, release := s.Acquire()
	defer release()
	f(h)
}

// Acquire borrows an exclusive handle from the histogram's slot pool,
// blocking until a slot is free. The returned release function flushes
// any buffered observations, credits the handle's steps to the object's
// retired-step counter (see Registry snapshots), and returns the slot;
// it is idempotent. The handle must not be used after release. Steps()
// on a pooled handle is cumulative over every previous owner of its
// slot — cost individual operations as a before/after delta.
func (h *Histogram) Acquire() (HistogramHandle, func()) {
	return h.slots.acquire()
}

// TryAcquire is Acquire without blocking: ok is false (and the handle and
// release are nil) when every slot is currently held.
func (h *Histogram) TryAcquire() (hh HistogramHandle, release func(), ok bool) {
	ph, release, ok := h.slots.tryAcquire()
	if !ok {
		return nil, nil, false
	}
	return ph, release, true
}

// Do runs f with a pooled handle, releasing it (and flushing buffered
// observations) when f returns. It blocks until a slot is free.
func (h *Histogram) Do(f func(HistogramHandle)) {
	hh, release := h.Acquire()
	defer release()
	f(hh)
}
