package check

import (
	"fmt"
	"sort"

	"approxobj/internal/history"
	"approxobj/internal/object"
)

// CounterWitness goes beyond the boolean verdict of Counter: when the
// history is accepted (and has no crashed increments), it constructs an
// explicit witness linearization — a total order of the completed
// operations — and verifies it end to end:
//
//  1. the order respects real-time precedence (op1.Ret < op2.Inv implies
//     op1 is not ordered after op2), and
//  2. every read's response is within b of the number of increments
//     preceding it in the order.
//
// The construction emits reads by ascending prefix size (ties by
// invocation) and, before each read, every increment of its assigned
// prefix set not yet emitted.
//
// A verified witness is a *proof* that the history is linearizable. The
// construction itself is heuristic: the greedy assignment does not enforce
// chain-nesting between concurrent reads' prefix sets, so for some
// linearizable histories (equal-cardinality, diverging prefix sets among
// overlapping reads) emission can order a read after an increment that
// follows it in real time. Such a construction failure is reported in the
// Result but is inconclusive — callers wanting a plain verdict should use
// Counter. The witness tests in this package pin down workload families
// where construction always succeeds.
func CounterWitness(h []history.Op, b object.Bounds, pendingIncs int) (Result, []history.Op) {
	res, assignments := counterAssign(h, b, pendingIncs)
	if !res.OK || pendingIncs > 0 {
		return res, nil
	}
	if assignments == nil {
		// Read-free history: any precedence-compatible order works.
		sorted := append([]history.Op(nil), h...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ret < sorted[j].Ret })
		return res, sorted
	}

	var incs []history.Op
	for _, op := range h {
		if op.Kind == history.KindInc {
			incs = append(incs, op)
		}
	}
	// Same index space as the assignment sets: increments by Ret.
	sort.Slice(incs, func(i, j int) bool { return incs[i].Ret < incs[j].Ret })

	order := append([]readAssignment(nil), assignments...)
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := order[i].set.count(), order[j].set.count()
		if ci != cj {
			return ci < cj
		}
		return order[i].op.Inv < order[j].op.Inv
	})

	var witness []history.Op
	emitted := make([]bool, len(incs))
	for _, a := range order {
		for i := range incs {
			if a.set.has(i) && !emitted[i] {
				witness = append(witness, incs[i])
				emitted[i] = true
			}
		}
		witness = append(witness, a.op)
	}
	for i := range incs {
		if !emitted[i] {
			witness = append(witness, incs[i])
		}
	}

	if err := verifyCounterWitness(witness, b); err != nil {
		return fail("witness verification failed: %v (checker bug?)", err), nil
	}
	return res, witness
}

// verifyCounterWitness checks precedence-respect and the sequential
// (relaxed) counter specification of a linearization order.
func verifyCounterWitness(l []history.Op, b object.Bounds) error {
	for i := 0; i < len(l); i++ {
		for j := i + 1; j < len(l); j++ {
			if l[j].Ret < l[i].Inv {
				return fmt.Errorf("%v is ordered before %v but follows it in real time", l[i], l[j])
			}
		}
	}
	var count uint64
	for _, op := range l {
		switch op.Kind {
		case history.KindInc:
			count++
		case history.KindCounterRead:
			if !b.Contains(count, op.Resp) {
				return fmt.Errorf("%v: prefix count %d outside envelope %+v", op, count, b)
			}
		}
	}
	return nil
}
