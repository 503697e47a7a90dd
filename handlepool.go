package approxobj

import (
	"fmt"
	"sync/atomic"

	"approxobj/internal/telemetry"
)

// This file implements the pooled side of handle management: every object
// owns a free list of its process slots, and goroutines borrow exclusive
// handles from it instead of computing slot indices. The free list is a
// buffered channel in FIFO order: a lease receives a slot, a release sends
// it back. The channel gives the happens-before edge that lets successive
// owners reuse a slot's cached handle (and its persistent per-process
// algorithm state) without extra synchronization. Who holds a slot is
// recorded once, in the slot's lease generation, which is odd exactly
// while the slot is leased. Every family shares the lease and
// step-accounting logic through the generic slotPool below, whose handles
// are the kind's runtime handles themselves; each family contributes only
// its typed Acquire/TryAcquire/Do wrappers.

// pooledHandle is what the pool needs of a slot's handle: release
// flushes its buffered mutations and credits its steps.
type pooledHandle interface {
	comparable
	Flush()
	Steps() uint64
}

// slotPool is the pooled-handle plumbing every object family embeds: the
// slot free list, the per-slot handle cache and lease state, and
// retired-step accounting.
type slotPool[H pooledHandle] struct {
	free    chan int         // free slots; room for all, so a release never blocks
	handles []H              // lazily built, one per slot (see handle)
	leases  []slotLease      // per-slot lease state (see lease)
	mk      func(slot int) H // builds a slot's handle on first use
	retired atomic.Uint64    // steps credited by released pooled handles
	tel     *telemetry.Sink  // lease events; nil when uninstrumented
}

// slotLease is one slot's lease state: its generation (the ownership
// word, see lease) and the steps its cached handle has already credited
// to the retired counter — handles survive across leases, so each
// release credits only the delta.
type slotLease struct {
	gen      atomic.Uint64
	credited uint64
}

// init sizes the pool in place (slotPool embeds an atomic and must not
// be copied once in use) and binds the owning object's handle
// constructor, so the acquisition hot path allocates no closures.
func (p *slotPool[H]) init(slots int, mk func(slot int) H) {
	p.free = make(chan int, slots)
	for i := range slots {
		p.free <- i
	}
	p.handles = make([]H, slots)
	p.leases = make([]slotLease, slots)
	p.mk = mk
}

// acquire borrows a slot (blocking) and leases its handle, with an
// idempotent release.
func (p *slotPool[H]) acquire() (H, func()) {
	slot := <-p.free
	h, g := p.lease(slot)
	return h, func() { p.release(slot, g) }
}

// tryAcquire is acquire without blocking; ok is false when every slot is
// held.
func (p *slotPool[H]) tryAcquire() (h H, release func(), ok bool) {
	select {
	case slot := <-p.free:
		h, g := p.lease(slot)
		return h, func() { p.release(slot, g) }, true
	default:
		p.tel.Inc(telemetry.EvPoolTryFail, 0)
		return h, nil, false
	}
}

// do runs f with a leased handle (blocking until a slot is free) and
// releases it when f returns. It builds no release closure, so it
// allocates nothing.
func (p *slotPool[H]) do(f func(H)) {
	slot := <-p.free
	h, g := p.lease(slot)
	defer p.release(slot, g)
	f(h)
}

// handle returns slot's one handle, building it on first use. Every
// lease of the slot and every public Handle(slot) call get this handle,
// so the slot's buffered mutations and per-process algorithm state live
// in one place. Building it needs no lock: the free list hands each
// slot to one goroutine at a time, a release happens-before the next
// lease, and a manually managed slot has one goroutine by contract.
func (p *slotPool[H]) handle(slot int) H {
	h := p.handles[slot]
	if isNil(h) {
		h = p.mk(slot)
		p.handles[slot] = h
	}
	return h
}

// lease hands out slot's handle and returns the lease's generation g for
// release.
//
// The generation is the slot's only ownership word: each lease advances
// it to an odd g, and only release(slot, g) advances it to g+1, so it is
// odd exactly while the slot is leased. A lease that finds the slot
// leased already leaves it even and panics. A release racing the
// owner's deferred one cannot retire the handle twice or put the slot on
// the free list twice, and a stale release surviving past a re-lease can
// never succeed (the generation has moved past g for good). Sharing the
// guard with the slot keeps Acquire to one allocation, its release
// closure.
func (p *slotPool[H]) lease(slot int) (H, uint64) {
	g := p.leases[slot].gen.Add(1)
	if g%2 == 0 {
		panic(fmt.Sprintf("approxobj: pool slot %d handed out while leased", slot))
	}
	if p.tel != nil {
		p.tel.Inc(telemetry.EvPoolAcquire, slot)
		p.tel.Trace(telemetry.TraceAcquire, slot, 0)
	}
	return p.handle(slot), g
}

// release ends lease g of slot: it flushes the slot's handle, credits
// its steps since the slot's last release, and frees the slot. Every
// call after the first for one lease is a no-op.
func (p *slotPool[H]) release(slot int, g uint64) {
	l := &p.leases[slot]
	if !l.gen.CompareAndSwap(g, g+1) {
		return
	}
	h := p.handles[slot]
	h.Flush()
	steps := h.Steps()
	p.retired.Add(steps - l.credited)
	l.credited = steps
	p.free <- slot
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
// increments) when f returns. It blocks until a slot is free, and
// allocates nothing.
func (c *Counter) Do(f func(CounterHandle)) {
	c.slots.do(func(h BatchedCounterHandle) { f(h) })
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
// writes) when f returns. It blocks until a slot is free, and allocates
// nothing.
func (r *MaxRegister) Do(f func(MaxRegisterHandle)) {
	r.slots.do(func(h BatchedMaxRegisterHandle) { f(h) })
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
// component update) when f returns. It blocks until a slot is free, and
// allocates nothing.
func (s *Snapshot) Do(f func(SnapshotHandle)) {
	s.slots.do(func(h *snapshotSlotHandle) { f(h) })
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
// observations) when f returns. It blocks until a slot is free, and
// allocates nothing.
func (h *Histogram) Do(f func(HistogramHandle)) {
	h.slots.do(func(hh *histSlotHandle) { f(hh) })
}
