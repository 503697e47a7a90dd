package approxobj

import (
	"strings"
	"testing"
	"time"
)

// TestSpecValidation exercises the single validation point: every option
// combination that used to be rejected by one of five constructors (or
// silently accepted) is accepted or rejected here, with the reason in the
// error.
func TestSpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    Kind
		opts    []Option
		wantErr string // substring; "" means the spec must be valid
	}{
		{"counter defaults", KindCounter, nil, ""},
		{"counter exact sharded batched", KindCounter,
			[]Option{WithProcs(8), WithShards(4), WithBatch(16)}, ""},
		{"counter additive", KindCounter,
			[]Option{WithProcs(8), WithAccuracy(Additive(64))}, ""},
		{"counter mult ok", KindCounter,
			[]Option{WithProcs(8), WithAccuracy(Multiplicative(3))}, ""},
		{"counter mult huge k does not overflow", KindCounter,
			[]Option{WithProcs(4), WithAccuracy(Multiplicative(1 << 32))}, ""},
		{"counter zero procs", KindCounter,
			[]Option{WithProcs(0)}, "process slot"},
		{"counter mult k too small for n", KindCounter,
			[]Option{WithProcs(100), WithAccuracy(Multiplicative(2))}, "sqrt"},
		{"counter mult k < 2", KindCounter,
			[]Option{WithAccuracy(Multiplicative(1))}, "k >= 2"},
		// The randomized accuracy row: counters only, k and delta both
		// validated in the accuracy table (no per-kind switch).
		{"counter randomized", KindCounter,
			[]Option{WithProcs(4), WithAccuracy(Randomized(2, 0.01))}, ""},
		{"counter randomized sharded batched", KindCounter,
			[]Option{WithProcs(8), WithAccuracy(Randomized(4, 0.1)), WithShards(4), WithBatch(16)}, ""},
		{"counter randomized windowed", KindCounter,
			[]Option{WithProcs(4), WithAccuracy(Randomized(2, 0.05)), WithWindow(time.Minute, 6)}, ""},
		{"counter randomized k < 2", KindCounter,
			[]Option{WithAccuracy(Randomized(1, 0.01))}, "k >= 2"},
		{"counter randomized delta zero", KindCounter,
			[]Option{WithAccuracy(Randomized(2, 0))}, "0 < delta < 1"},
		{"counter randomized delta one", KindCounter,
			[]Option{WithAccuracy(Randomized(2, 1))}, "0 < delta < 1"},
		{"counter randomized delta negative", KindCounter,
			[]Option{WithAccuracy(Randomized(2, -0.5))}, "0 < delta < 1"},
		{"maxreg randomized", KindMaxRegister,
			[]Option{WithAccuracy(Randomized(2, 0.01))}, "not implemented for max registers"},
		{"snapshot randomized", KindSnapshot,
			[]Option{WithAccuracy(Randomized(2, 0.01))}, "not implemented for snapshots"},
		{"histogram randomized", KindHistogram,
			[]Option{WithAccuracy(Randomized(2, 0.01)), WithBound(1024)}, "not implemented for histograms"},
		{"counter zero shards", KindCounter,
			[]Option{WithShards(0)}, "shard count"},
		{"counter zero batch", KindCounter,
			[]Option{WithBatch(0)}, "batch size"},
		{"counter with bound", KindCounter,
			[]Option{WithBound(1024)}, "WithBound"},
		{"maxreg defaults", KindMaxRegister, nil, ""},
		{"maxreg bounded exact", KindMaxRegister,
			[]Option{WithProcs(4), WithBound(1024)}, ""},
		{"maxreg bounded mult", KindMaxRegister,
			[]Option{WithProcs(4), WithAccuracy(Multiplicative(2)), WithBound(1 << 20)}, ""},
		{"maxreg unbounded mult", KindMaxRegister,
			[]Option{WithProcs(4), WithAccuracy(Multiplicative(2))}, ""},
		{"maxreg bound too small", KindMaxRegister,
			[]Option{WithBound(1)}, "bound must be >= 2"},
		{"maxreg mult k < 2", KindMaxRegister,
			[]Option{WithAccuracy(Multiplicative(1))}, "k >= 2"},
		{"maxreg additive", KindMaxRegister,
			[]Option{WithAccuracy(Additive(8))}, "not implemented for max registers"},
		// Since the unified sharded runtime, WithShards and WithBatch are
		// valid for max registers too.
		{"maxreg sharded", KindMaxRegister,
			[]Option{WithProcs(4), WithShards(4)}, ""},
		{"maxreg batched", KindMaxRegister,
			[]Option{WithProcs(4), WithBatch(8)}, ""},
		{"maxreg sharded batched bounded mult", KindMaxRegister,
			[]Option{WithProcs(4), WithAccuracy(Multiplicative(2)), WithBound(1 << 20), WithShards(2), WithBatch(16)}, ""},
		{"maxreg zero shards", KindMaxRegister,
			[]Option{WithShards(0)}, "shard count"},
		{"maxreg zero batch", KindMaxRegister,
			[]Option{WithBatch(0)}, "batch size"},
		{"maxreg batch swallows bound", KindMaxRegister,
			[]Option{WithBound(16), WithBatch(16)}, "exceeds"}, // B = m already covers every legal write (v <= m-1)
		{"maxreg batch at bound edge", KindMaxRegister,
			[]Option{WithBound(16), WithBatch(15)}, ""},
		// The snapshot family validates through the same backend table.
		{"snapshot defaults", KindSnapshot, nil, ""},
		{"snapshot sharded batched", KindSnapshot,
			[]Option{WithProcs(6), WithShards(3), WithBatch(16)}, ""},
		{"snapshot zero procs", KindSnapshot,
			[]Option{WithProcs(0)}, "process slot"},
		{"snapshot zero shards", KindSnapshot,
			[]Option{WithShards(0)}, "shard count"},
		{"snapshot zero batch", KindSnapshot,
			[]Option{WithBatch(0)}, "batch size"},
		{"snapshot multiplicative", KindSnapshot,
			[]Option{WithAccuracy(Multiplicative(4))}, "not implemented for snapshots"},
		{"snapshot additive", KindSnapshot,
			[]Option{WithAccuracy(Additive(8))}, "not implemented for snapshots"},
		{"snapshot with bound", KindSnapshot,
			[]Option{WithBound(1024)}, "WithBound"},
		// The histogram family validates through the same backend table.
		{"histogram mult unbounded", KindHistogram,
			[]Option{WithProcs(4), WithAccuracy(Multiplicative(2))}, ""},
		{"histogram mult bounded sharded batched", KindHistogram,
			[]Option{WithProcs(6), WithAccuracy(Multiplicative(4)), WithBound(1 << 16), WithShards(3), WithBatch(32)}, ""},
		{"histogram exact bounded", KindHistogram,
			[]Option{WithProcs(2), WithBound(1024)}, ""},
		{"histogram exact needs bound", KindHistogram,
			[]Option{WithProcs(2)}, "needs WithBound"},
		{"histogram exact bound too large", KindHistogram,
			[]Option{WithBound(1 << 21)}, "table limit"},
		{"histogram mult k < 2", KindHistogram,
			[]Option{WithAccuracy(Multiplicative(1))}, "k >= 2"},
		{"histogram additive", KindHistogram,
			[]Option{WithAccuracy(Additive(8))}, "not implemented for histograms"},
		// The observation buffer is a count, not a value window: a batch
		// at or past the bound is fine for histograms (unlike registers).
		{"histogram batch past bound", KindHistogram,
			[]Option{WithAccuracy(Multiplicative(2)), WithBound(16), WithBatch(64)}, ""},
		{"histogram zero shards", KindHistogram,
			[]Option{WithAccuracy(Multiplicative(2)), WithShards(0)}, "shard count"},
		{"histogram zero batch", KindHistogram,
			[]Option{WithAccuracy(Multiplicative(2)), WithBatch(0)}, "batch size"},
		// Windowed objects (WithWindow) validate through the same single
		// point: d must be positive and the ring needs >= 2 epochs.
		{"counter windowed", KindCounter,
			[]Option{WithProcs(4), WithWindow(time.Minute, 6)}, ""},
		{"counter windowed sharded batched cached", KindCounter,
			[]Option{WithProcs(4), WithShards(2), WithBatch(8), WithReadCache(time.Millisecond), WithWindow(time.Minute, 6)}, ""},
		{"maxreg windowed", KindMaxRegister,
			[]Option{WithProcs(4), WithWindow(time.Second, 2)}, ""},
		{"snapshot windowed", KindSnapshot,
			[]Option{WithProcs(4), WithWindow(time.Hour, 12)}, ""},
		{"histogram windowed", KindHistogram,
			[]Option{WithProcs(4), WithAccuracy(Multiplicative(2)), WithWindow(time.Minute, 6)}, ""},
		{"window zero duration", KindCounter,
			[]Option{WithWindow(0, 6)}, "window duration must be > 0"},
		{"window negative duration", KindCounter,
			[]Option{WithWindow(-time.Second, 6)}, "window duration must be > 0"},
		{"window one epoch", KindCounter,
			[]Option{WithWindow(time.Minute, 1)}, "at least 2 epochs"},
		{"window zero epochs", KindCounter,
			[]Option{WithWindow(time.Minute, 0)}, "at least 2 epochs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			switch tc.kind {
			case KindCounter:
				_, err = NewCounter(tc.opts...)
			case KindMaxRegister:
				_, err = NewMaxRegister(tc.opts...)
			case KindHistogram:
				_, err = NewHistogram(tc.opts...)
			default:
				_, err = NewSnapshot(tc.opts...)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSpecAccessors checks the spec round-trip: what the options say is
// what the built object reports.
func TestSpecAccessors(t *testing.T) {
	c, err := NewCounter(
		WithProcs(8),
		WithAccuracy(Multiplicative(4)),
		WithShards(2),
		WithBatch(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Spec()
	if s.Kind() != KindCounter || s.Procs() != 8 || s.Shards() != 2 || s.Batch() != 16 ||
		s.Bound() != 0 || s.Accuracy() != Multiplicative(4) {
		t.Errorf("spec = %v, want counter{procs: 8, multiplicative(4), shards: 2, batch: 16}", s)
	}
	if c.N() != 8 || c.K() != 4 || c.Shards() != 2 || c.Batch() != 16 {
		t.Errorf("accessors N=%d K=%d S=%d B=%d, want 8 4 2 16", c.N(), c.K(), c.Shards(), c.Batch())
	}
	if got := s.String(); got != "counter{procs: 8, multiplicative(4), shards: 2, batch: 16}" {
		t.Errorf("String() = %q", got)
	}

	r, err := NewMaxRegister(WithProcs(2), WithBound(1024))
	if err != nil {
		t.Fatal(err)
	}
	rs := r.Spec()
	if rs.Kind() != KindMaxRegister || rs.Procs() != 2 || rs.Bound() != 1024 || !rs.Accuracy().IsExact() {
		t.Errorf("spec = %v, want max register{procs: 2, exact, bound: 1024}", rs)
	}
	if got := rs.String(); got != "max register{procs: 2, exact, bound: 1024}" {
		t.Errorf("String() = %q", got)
	}

	sr, err := NewMaxRegister(
		WithProcs(4),
		WithAccuracy(Multiplicative(2)),
		WithShards(2),
		WithBatch(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sr.N() != 4 || sr.K() != 2 || sr.Shards() != 2 || sr.Batch() != 8 {
		t.Errorf("accessors N=%d K=%d S=%d B=%d, want 4 2 2 8", sr.N(), sr.K(), sr.Shards(), sr.Batch())
	}
	if got, want := sr.Bounds(), (Bounds{Mult: 2, Buffer: 7}); got != want {
		t.Errorf("sharded maxreg Bounds = %+v, want %+v", got, want)
	}
	if got := sr.Spec().String(); got != "max register{procs: 4, multiplicative(2), shards: 2, batch: 8}" {
		t.Errorf("String() = %q", got)
	}

	sn, err := NewSnapshot(WithProcs(4), WithShards(2), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	if sn.N() != 4 || sn.Components() != 4 || sn.Shards() != 2 || sn.Batch() != 8 {
		t.Errorf("accessors N=%d C=%d S=%d B=%d, want 4 4 2 8", sn.N(), sn.Components(), sn.Shards(), sn.Batch())
	}
	if got, want := sn.Bounds(), (Bounds{Mult: 1, Buffer: 7}); got != want {
		t.Errorf("sharded snapshot Bounds = %+v, want %+v", got, want)
	}
	if got := sn.Spec().String(); got != "snapshot{procs: 4, exact, shards: 2, batch: 8}" {
		t.Errorf("String() = %q", got)
	}

	hg, err := NewHistogram(
		WithProcs(4),
		WithAccuracy(Multiplicative(2)),
		WithBound(1<<16),
		WithShards(2),
		WithBatch(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	if hg.N() != 4 || hg.K() != 2 || hg.Shards() != 2 || hg.Batch() != 8 || hg.Bound() != 1<<16 {
		t.Errorf("accessors N=%d K=%d S=%d B=%d m=%d, want 4 2 2 8 65536",
			hg.N(), hg.K(), hg.Shards(), hg.Batch(), hg.Bound())
	}
	if hg.Buckets() != 17 { // {0}, [1,1], [2,3], ..., [2^15, 2^16-1]
		t.Errorf("Buckets = %d, want 17 for k=2 over [0, 2^16)", hg.Buckets())
	}
	if got, want := hg.Bounds(), (Bounds{Mult: 2, Buffer: 28}); got != want {
		t.Errorf("histogram Bounds = %+v, want %+v (Buffer = (B-1)*n)", got, want)
	}
	if got := hg.Spec().String(); got != "histogram{procs: 4, multiplicative(2), shards: 2, batch: 8, bound: 65536}" {
		t.Errorf("String() = %q", got)
	}

	wc, err := NewCounter(WithProcs(4), WithWindow(time.Minute, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	ws := wc.Spec()
	if !ws.Windowed() {
		t.Error("Windowed() = false for a WithWindow spec")
	}
	if d, n := ws.Window(); d != time.Minute || n != 6 {
		t.Errorf("Window() = (%v, %d), want (1m0s, 6)", d, n)
	}
	if got := ws.String(); got != "counter{procs: 4, exact, shards: 1, batch: 1, window: 1m0s/6}" {
		t.Errorf("String() = %q", got)
	}
	if cs := (Spec{}); cs.Windowed() {
		t.Error("zero spec reports Windowed()")
	}
}

// TestKindTextRoundTrip pins the symmetric text encoding of kinds: every
// kind registered in the backend table must survive MarshalText →
// UnmarshalText unchanged (so registry names and bench records can parse
// kinds back), and unknown names must fail with the registered kinds in
// the error.
func TestKindTextRoundTrip(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 4 {
		t.Fatalf("backend table registers %d kinds, want 4", len(kinds))
	}
	for _, kp := range kinds {
		text, err := kp.Kind.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", kp.Kind, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != kp.Kind {
			t.Errorf("round trip %v -> %q -> %v", kp.Kind, text, back)
		}
		parsed, err := ParseKind(string(text))
		if err != nil || parsed != kp.Kind {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", text, parsed, err, kp.Kind)
		}
	}
	var k Kind
	err := k.UnmarshalText([]byte("bloom filter"))
	if err == nil {
		t.Fatal("UnmarshalText accepted an unknown kind name")
	}
	for _, name := range []string{"counter", "max register", "snapshot", "histogram"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-kind error %q does not list registered kind %q", err, name)
		}
	}
	if Kind(99).String() != "invalid" {
		t.Errorf("unregistered Kind String() = %q, want \"invalid\"", Kind(99).String())
	}
}

// TestKindPolicyTable pins the policy-table rows the README documents:
// each kind's combine/buffer names.
func TestKindPolicyTable(t *testing.T) {
	want := map[Kind][2]string{
		KindCounter:     {"sum", "count batching"},
		KindMaxRegister: {"max", "write elision"},
		KindSnapshot:    {"per-component", "component elision"},
		KindHistogram:   {"per-bucket sum", "bucket batching"},
	}
	for _, kp := range Kinds() {
		w, ok := want[kp.Kind]
		if !ok {
			t.Errorf("unexpected kind %v in the table", kp.Kind)
			continue
		}
		if kp.Combine != w[0] || kp.Buffer != w[1] {
			t.Errorf("%v policy = (%q, %q), want (%q, %q)", kp.Kind, kp.Combine, kp.Buffer, w[0], w[1])
		}
	}
}

// TestAccuracyK pins the accuracy parameter semantics the compat wrappers
// and Bounds rely on.
func TestAccuracyK(t *testing.T) {
	if Exact().K() != 1 || !Exact().IsExact() {
		t.Error("Exact() must report K=1")
	}
	if Additive(40).K() != 40 || Additive(40).IsExact() {
		t.Error("Additive(40) must report K=40")
	}
	if Multiplicative(4).K() != 4 || Multiplicative(4).IsExact() {
		t.Error("Multiplicative(4) must report K=4")
	}
	r := Randomized(4, 0.01)
	if r.K() != 4 || r.Delta() != 0.01 || r.IsExact() {
		t.Error("Randomized(4, 0.01) must report K=4, Delta=0.01, not exact")
	}
	if Multiplicative(4).Delta() != 0 {
		t.Error("deterministic accuracies must report Delta=0")
	}
	if got := r.String(); got != "randomized(4, 0.01)" {
		t.Errorf("Randomized String() = %q", got)
	}
	var zero Accuracy
	if !zero.IsExact() || zero.K() != 1 {
		t.Error("zero Accuracy must behave as Exact()")
	}
}
