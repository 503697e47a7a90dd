package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"approxobj"
	"approxobj/expose"
)

// E18Windowed measures the windowed tier (WithWindow) under the
// observe+scrape traffic an exposition endpoint sees: every kind is
// built windowed, a writer goroutine churns it continuously, and the
// timed loop is the read side — the per-kind windowed read (which folds
// the live epoch ring) for the four kind rows, and a full
// expose.WriteRegistry render (the scrape itself) for the
// registry-scrape row. The window is deliberately long (no rotation
// fires mid-cell), so after the writer stops and flushes, the windowed
// read must land inside the object's envelope against the exact
// write count — re-verified per cell.
func E18Windowed(cfg Config) ([]*Table, error) {
	reads := 100_000
	if cfg.Quick {
		reads = 10_000
	}
	// Long window: rotation (d/epochs = 2 min) never fires inside a
	// cell, so the convergence checks see the whole write history. The
	// envelope still carries the Window term — it is configured, not
	// measured.
	const (
		windowDur    = 10 * time.Minute
		windowEpochs = 5
	)
	window := approxobj.WithWindow(windowDur, windowEpochs)

	t := &Table{
		ID:    "E18",
		Title: "windowed objects: read cost under concurrent observation, plus a registry scrape",
		Note: `Each kind row times the windowed read (Read/ScanInto/p99 Quantile) through
one handle while a writer goroutine churns another: the read folds the
live epoch ring (epochs x shards per-kind combines), which is the
steady-state cost a windowed object adds over a cumulative one. The
registry-scrape row times one expose.WriteRegistry render of a registry
holding all four windowed kinds under the same churn — the cost of one
Prometheus scrape. The recorded envelope carries the Window term
(d/epochs); the window is long enough that no rotation fires mid-cell,
so each cell re-verifies quiescent convergence exactly.`,
		Header: []string{"case", "epochs", "read ns/op"},
	}

	var sink uint64
	for _, row := range kindRows {
		o, err := row.open(nil, approxobj.WithShards(2), window)
		if err != nil {
			return nil, err
		}
		nsPerOp, err := timeUnderChurn(reads, o, &sink)
		o.obj.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: E18 %s: %w", row.name, err)
		}
		t.AddRow(row.name, windowEpochs, fmt.Sprintf("%.1f", nsPerOp))
		t.AddRecord(Record{
			Params:   map[string]string{"kind": row.name},
			NsPerOp:  nsPerOp,
			Envelope: EnvelopeOf(o.obj.Bounds()),
		})
	}
	if sink == ^uint64(0) {
		return nil, fmt.Errorf("bench: impossible sink value")
	}

	scrape, err := e18Scrape(reads/100, window, windowDur, windowEpochs)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, scrape.Rows...)
	t.Records = append(t.Records, scrape.Records...)
	return []*Table{t}, nil
}

// churn calls put(1), put(2), ... until stop is closed and returns how
// many values it put.
func churn(put func(uint64), stop <-chan struct{}) uint64 {
	for n := uint64(0); ; {
		select {
		case <-stop:
			return n
		default:
			n++
			put(n)
		}
	}
}

// timeUnderChurn runs the timed read loop while a writer goroutine
// churns the object, then stops the writer and checks the quiescent
// read against the number of values it put.
func timeUnderChurn(reads int, o *kindObj, sink *uint64) (float64, error) {
	stop, total := make(chan struct{}), make(chan uint64)
	go func() { total <- churn(o.put, stop) }()
	start := time.Now()
	for i := 0; i < reads; i++ {
		*sink += o.read()
	}
	elapsed := time.Since(start)
	close(stop)
	if err := o.settled(<-total); err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(reads), nil
}

// e18Scrape times a full expose.WriteRegistry render of a registry
// holding one windowed object of every kind, while one writer goroutine
// per object churns it — the per-scrape cost of the exposition
// endpoint.
func e18Scrape(scrapes int, window approxobj.Option, d time.Duration, epochs int) (*Table, error) {
	if scrapes < 100 {
		scrapes = 100
	}
	reg := approxobj.NewRegistry()
	defer reg.Close()
	objs := make([]*kindObj, len(kindRows))
	for i, row := range kindRows {
		o, err := row.open(reg, window)
		if err != nil {
			return nil, err
		}
		objs[i] = o
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(len(objs))
	for _, o := range objs {
		go func() {
			defer wg.Done()
			churn(o.put, stop)
		}()
	}

	start := time.Now()
	for i := 0; i < scrapes; i++ {
		if err := expose.WriteRegistry(io.Discard, reg); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("bench: E18 scrape: %w", err)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	nsPerOp := float64(elapsed.Nanoseconds()) / float64(scrapes)
	t := &Table{ID: "E18"}
	t.AddRow("registry-scrape", epochs, fmt.Sprintf("%.1f", nsPerOp))
	t.AddRecord(Record{
		Params:   map[string]string{"kind": "registry-scrape"},
		NsPerOp:  nsPerOp,
		Envelope: &RecordEnvelope{Mult: 1, Window: uint64(d / time.Duration(epochs))},
	})
	return t, nil
}
